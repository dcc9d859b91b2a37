"""Inventory rule: a config field somebody sets, or no field at all.

An option with one value in use is a constant. Every field of
``PipelineConfig`` and ``StorageConfig`` must be passed by keyword
somewhere in the repository outside the module that defines it — by the
CLI, the pipeline, a benchmark, an example or at least a test. A field
that fails this is deleted (its default becomes a constant next to its
use), not added to a list here.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.broker.storage import StorageConfig
from repro.core import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "bench", "benchmarks", "examples", "tests")


def _keywords_passed(skip: Path) -> set:
    """Every keyword-argument name of every call outside *skip*."""
    names = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            if path == skip:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


@pytest.mark.parametrize("config", [PipelineConfig, StorageConfig])
def test_every_config_field_is_set_somewhere(config):
    passed = _keywords_passed(skip=Path(inspect.getsourcefile(config)).resolve())
    unset = [f.name for f in dataclasses.fields(config) if f.name not in passed]
    assert not unset, (
        f"{config.__name__} fields nobody sets (make each a constant): {unset}"
    )

