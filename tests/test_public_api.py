"""Public-API consistency checks."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.broker",
    "repro.compute",
    "repro.core",
    "repro.data",
    "repro.ml",
    "repro.ml.nn",
    "repro.monitoring",
    "repro.netem",
    "repro.params",
    "repro.pilot",
    "repro.sim",
    "repro.util",
    "repro.cli",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_quickstart_symbols_present(self):
        # The README quickstart must keep working.
        for name in (
            "PilotComputeService",
            "PilotDescription",
            "EdgeToCloudPipeline",
            "PipelineConfig",
            "ResourceSpec",
            "make_block_producer",
            "passthrough_processor",
        ):
            assert hasattr(repro, name)


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_declared_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_has_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


class TestDocumentationCoverage:
    def test_public_classes_have_docstrings(self):
        import inspect

        missing = []
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        missing.append(f"{module_name}.{name}")
        assert not missing, f"undocumented public symbols: {missing}"
