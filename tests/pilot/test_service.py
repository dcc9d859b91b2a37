"""Tests for the pilot service and PilotCompute lifecycle."""

import time

import pytest

from repro.compute import Client, ResourceSpec
from repro.pilot import (
    PilotComputeService,
    PilotDescription,
    PilotState,
)


class TestSubmission:
    def test_pilot_reaches_running(self, pilot_service):
        pilot = pilot_service.submit_pilot(PilotDescription())
        assert pilot.wait(PilotState.RUNNING, timeout=10)
        assert pilot.state is PilotState.RUNNING

    def test_cluster_usable_once_running(self, pilot_service):
        pilot = pilot_service.submit_pilot(PilotDescription(nodes=2))
        pilot.wait(timeout=10)
        client = Client(pilot.cluster)
        assert client.submit(lambda: 21 * 2).result(timeout=5) == 42

    def test_cluster_before_running_raises(self, pilot_service):
        pilot = pilot_service.submit_pilot(
            PilotDescription(resource="cloud", instance_type="lrz.medium")
        )
        pilot.wait(timeout=10)
        pilot.cancel()
        with pytest.raises(RuntimeError):
            pilot.cluster

    def test_failed_acquisition_reported(self, pilot_service):
        pilot = pilot_service.submit_pilot(
            PilotDescription(resource="ssh", nodes=1000)
        )
        pilot.wait(timeout=10)
        assert pilot.state is PilotState.FAILED
        assert "edge devices" in pilot.error

    def test_state_history_records_path(self, pilot_service):
        pilot = pilot_service.submit_pilot(PilotDescription())
        pilot.wait(timeout=10)
        events = pilot.events.events()
        assert {(e.type, e.origin) for e in events} == {("pilot_state", pilot.pilot_id)}
        states = [PilotState(e.fields["state"]) for e in events]
        assert states == [PilotState.PENDING, PilotState.RUNNING]

    def test_state_change_callbacks(self, pilot_service):
        seen = []
        pilot = pilot_service.submit_pilot(PilotDescription())
        pilot.on_state_change(lambda p, s: seen.append(s))
        pilot.wait(timeout=10)
        pilot.cancel()
        assert PilotState.CANCELED in seen

    def test_state_change_callback_error_counted(self, pilot_service):
        pilot = pilot_service.submit_pilot(PilotDescription())
        pilot.wait(timeout=10)
        assert pilot.stats()["callback_errors"] == {}
        pilot.on_state_change(lambda p, s: 1 / 0)
        pilot.cancel()
        assert pilot.state is PilotState.CANCELED
        assert pilot.stats()["callback_errors"] == {"ZeroDivisionError": 1}

    def test_emulated_delay_scaled(self):
        service = PilotComputeService(time_scale=0.01)
        try:
            t0 = time.monotonic()
            pilot = service.submit_pilot(
                PilotDescription(resource="cloud", instance_type="lrz.medium")
            )
            assert pilot.wait(timeout=10)
            elapsed = time.monotonic() - t0
            # 25 s boot delay at 1% scale ~ 0.25 s.
            assert 0.1 < elapsed < 5.0
        finally:
            service.close()


class TestCancellation:
    def test_cancel_running_pilot(self, pilot_service):
        pilot = pilot_service.submit_pilot(PilotDescription())
        pilot.wait(timeout=10)
        pilot.cancel()
        assert pilot.state is PilotState.CANCELED

    def test_cancel_is_idempotent(self, pilot_service):
        pilot = pilot_service.submit_pilot(PilotDescription())
        pilot.wait(timeout=10)
        pilot.cancel()
        pilot.cancel()

    def test_cancel_releases_backend_capacity(self, pilot_service):
        d = PilotDescription(resource="ssh", nodes=2, node_spec=ResourceSpec(cores=1, memory_gb=4))
        pilot = pilot_service.submit_pilot(d)
        pilot.wait(timeout=10)
        plugin = pilot_service.plugin("ssh")
        held = plugin.stats()["devices_held"]
        assert held == 2
        pilot.cancel()
        deadline = time.monotonic() + 5
        while plugin.stats()["devices_held"] > 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert plugin.stats()["devices_held"] == 0


class TestService:
    def test_list_pilots_by_state(self, pilot_service):
        p1 = pilot_service.submit_pilot(PilotDescription())
        p2 = pilot_service.submit_pilot(PilotDescription(resource="ssh", nodes=1000))
        pilot_service.wait_all(timeout=10)
        running = pilot_service.list_pilots(PilotState.RUNNING)
        failed = pilot_service.list_pilots(PilotState.FAILED)
        assert p1 in running
        assert p2 in failed

    def test_wait_all_false_on_failure(self, pilot_service):
        pilot_service.submit_pilot(PilotDescription(resource="ssh", nodes=1000))
        assert not pilot_service.wait_all(timeout=10)

    def test_stop_pilot(self, pilot_service):
        pilot = pilot_service.submit_pilot(PilotDescription())
        pilot.wait(timeout=10)
        pilot_service.stop_pilot(pilot.pilot_id)
        assert pilot.state is PilotState.DONE

    def test_unknown_pilot_lookup(self, pilot_service):
        with pytest.raises(KeyError):
            pilot_service.pilot("ghost")

    def test_close_cancels_everything(self):
        service = PilotComputeService(time_scale=0.0)
        pilot = service.submit_pilot(PilotDescription())
        pilot.wait(timeout=10)
        service.close()
        assert pilot.state is PilotState.CANCELED

    def test_closed_service_rejects_submission(self):
        service = PilotComputeService()
        service.close()
        with pytest.raises(RuntimeError):
            service.submit_pilot(PilotDescription())

    def test_stats(self, pilot_service):
        pilot_service.submit_pilot(PilotDescription())
        pilot_service.wait_all(timeout=10)
        stats = pilot_service.stats()
        assert stats["pilots"] == 1
        assert stats["by_state"].get("running") == 1

    def test_custom_plugin_registration(self, pilot_service):
        from repro.pilot.plugins.ssh_edge import SshEdgePlugin

        custom = SshEdgePlugin(devices=1)
        pilot_service.register_plugin("ssh", custom)
        assert pilot_service.plugin("ssh") is custom
