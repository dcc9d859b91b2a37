"""Smoke tests: every shipped example must run to completion.

Run as part of the normal suite so the examples (deliverable artefacts)
cannot rot. Each example is executed in a subprocess with a generous
timeout; its stdout must contain a marker proving it reached its final
reporting section.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

#: script name -> marker expected in stdout.
EXAMPLES = {
    "quickstart.py": "completed: True",
    "outlier_detection.py": "Expected ordering",
    "geo_distribution.py": "cost-based placement",
    "dynamic_scaling.py": "messages per model",
    "hierarchical_continuum.py": "Small messages tolerate",
    "telemetry_tracing.py": "telemetry accounting verified",
}


@pytest.mark.parametrize("script,marker", sorted(EXAMPLES.items()))
def test_example_runs(script, marker, tmp_path):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
    assert marker in proc.stdout, f"{script} output missing {marker!r}:\n{proc.stdout}"
    # An example cleans up after itself: nothing left in the temp dir.
    assert list(tmp_path.iterdir()) == [], f"{script} left files in its temp dir"


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLES), (
        "examples on disk and smoke-test coverage diverged: "
        f"{on_disk ^ set(EXAMPLES)}"
    )
