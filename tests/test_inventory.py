"""Inventory rules: a config field somebody sets and something reads, or
no field at all.

An option with one value in use is a constant. Every field of
``PipelineConfig``, ``StorageConfig`` and ``PilotDescription`` must be
passed by keyword somewhere in the repository outside the module that
defines it — by the CLI, the pipeline, a benchmark, an example or at
least a test. A field
that fails this is deleted (its default becomes a constant next to its
use), not added to a list here.

A field is also dead when the code it configures never reads it, however
often it is set and validated: ``PipelineConfig`` is read by
``core/pipeline.py`` and its two halves ``core/edge.py`` and
``core/cloud.py``, ``StorageConfig`` by ``broker/storage/``,
``PilotDescription`` by ``pilot/`` (its service and plugins). A read
through one of the config's own properties (``effective_consumers``
reads ``num_consumers``) counts. The match is by attribute name alone:
any ``x.<field>`` load in a reader counts, whatever ``x`` is, so a dead
field that shares its name with an unrelated attribute read there (a
consumer's or a link's) still passes. The rule catches a field nothing
by that name touches; it does not trace the config object.

The broker clients' constructors are held to a stricter rule: every
keyword of ``Producer`` and ``Consumer`` must be passed by some caller
in ``src`` (outside the client's own module), ``bench``, ``benchmarks``
or ``examples``. A knob only tests set is deleted.

The monitoring constructors are held to the same rule, matched by
callee: every parameter with a default of ``Tracer``,
``TelemetrySampler``, ``EventJournal``, ``Histogram``,
``MetricsRegistry.histogram`` / ``to_prometheus``,
``ClusterMetricsAggregator``, the two cluster collectors and
``MetricsCollector`` (its constructor, ``stamp`` and ``stamp_many``)
must be passed by keyword to a call of that name (``Tracer(...)``,
``x.histogram(...)``) outside ``repro.monitoring``. A bound or seed only
tests set is a module constant, which a test monkeypatches. So must
every keyword of ``AutoScaler``, outside ``tests/``.
"""

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.broker import Consumer, Producer
from repro.broker.storage import StorageConfig
from repro.core import AutoScaler, PipelineConfig
from repro.monitoring import (
    ClusterEventCollector,
    ClusterMetricsAggregator,
    ClusterTraceCollector,
    EventJournal,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    TelemetrySampler,
    Tracer,
)
from repro.pilot import PilotDescription

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "bench", "benchmarks", "examples", "tests")
CLIENT_CALLERS = ("src", "bench", "benchmarks", "examples")
READERS = {
    PipelineConfig: (
        "src/repro/core/pipeline.py",
        "src/repro/core/edge.py",
        "src/repro/core/cloud.py",
    ),
    StorageConfig: ("src/repro/broker/storage",),
    PilotDescription: ("src/repro/pilot",),
}
MONITORING = ROOT / "src" / "repro" / "monitoring"
MONITORING_CALLABLES = {
    "Tracer": Tracer.__init__,
    "TelemetrySampler": TelemetrySampler.__init__,
    "EventJournal": EventJournal.__init__,
    "Histogram": Histogram.__init__,
    "histogram": MetricsRegistry.histogram,
    "to_prometheus": MetricsRegistry.to_prometheus,
    "ClusterMetricsAggregator": ClusterMetricsAggregator.__init__,
    "ClusterEventCollector": ClusterEventCollector.__init__,
    "ClusterTraceCollector": ClusterTraceCollector.__init__,
    "MetricsCollector": MetricsCollector.__init__,
    "stamp": MetricsCollector.stamp,
    "stamp_many": MetricsCollector.stamp_many,
}


def _keywords_passed(skip: Path, tops=SEARCHED, callee=None) -> set:
    """Every keyword-argument name of every call under *tops*, outside
    *skip* (a file or a directory); only of calls to *callee*
    (``callee(...)`` or ``x.callee(...)``) when one is named."""
    names = set()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            if path == skip or skip in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and callee in (None, _name(node.func)):
                    names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


def _name(func: ast.expr):
    """``f`` of a call ``f(...)`` or ``x.f(...)``."""
    return getattr(func, "attr", None) or getattr(func, "id", None)


def _attributes_loaded(tree: ast.AST, skip=()) -> set:
    """Names of every ``x.name`` read in *tree*, outside the *skip* nodes."""
    skipped = {id(node) for root in skip for node in ast.walk(root)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in skipped
    }


def _fields_read(config) -> set:
    """Attribute names the config's reader modules load — its own class
    body (validation) aside — plus what each property they load reads."""
    names = set()
    for reader in READERS[config]:
        path = ROOT / reader
        for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            tree = ast.parse(source.read_text())
            own = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == config.__name__
            ]
            names |= _attributes_loaded(tree, skip=own)
    for name, member in vars(config).items():
        if isinstance(member, property) and name in names:
            body = ast.parse(textwrap.dedent(inspect.getsource(member.fget)))
            names |= _attributes_loaded(body)
    return names


@pytest.mark.parametrize("config", list(READERS))
def test_every_config_field_is_set_somewhere(config):
    passed = _keywords_passed(skip=Path(inspect.getsourcefile(config)).resolve())
    unset = [f.name for f in dataclasses.fields(config) if f.name not in passed]
    assert not unset, (
        f"{config.__name__} fields nobody sets (make each a constant): {unset}"
    )


@pytest.mark.parametrize("config", list(READERS))
def test_every_config_field_is_read(config):
    read = _fields_read(config)
    unread = [f.name for f in dataclasses.fields(config) if f.name not in read]
    assert not unread, (
        f"{config.__name__} fields {', '.join(READERS[config])} never reads "
        f"(delete each): {unread}"
    )


@pytest.mark.parametrize("client", [Producer, Consumer])
def test_every_client_keyword_is_passed_outside_tests(client):
    passed = _keywords_passed(
        skip=Path(inspect.getsourcefile(client)).resolve(), tops=CLIENT_CALLERS
    )
    params = list(inspect.signature(client.__init__).parameters)[1:]
    unset = [name for name in params if name not in passed]
    assert not unset, (
        f"{client.__name__} keywords only tests pass (make each a constant): {unset}"
    )


@pytest.mark.parametrize("callee", list(MONITORING_CALLABLES))
def test_every_monitoring_keyword_is_passed_outside_tests(callee):
    params = inspect.signature(MONITORING_CALLABLES[callee]).parameters.values()
    assert not any(p.kind is p.VAR_KEYWORD for p in params), f"{callee} takes **kwargs"
    knobs = [p.name for p in params if p.default is not p.empty]
    passed = _keywords_passed(skip=MONITORING, tops=CLIENT_CALLERS, callee=callee)
    unset = [name for name in knobs if name not in passed]
    assert not unset, (
        f"{callee} keywords only tests pass (make each a module constant): {unset}"
    )


def test_every_autoscaler_keyword_is_passed_outside_tests():
    params = inspect.signature(AutoScaler.__init__).parameters.values()
    knobs = [p.name for p in params if p.default is not p.empty]
    passed = _keywords_passed(
        skip=Path(inspect.getsourcefile(AutoScaler)).resolve(),
        tops=CLIENT_CALLERS,
        callee="AutoScaler",
    )
    unset = [name for name in knobs if name not in passed]
    assert not unset, f"AutoScaler keywords only tests pass (make each a constant): {unset}"
