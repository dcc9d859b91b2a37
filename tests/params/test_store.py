"""Tests for the parameter server's versioned store."""

import pytest

from repro.params import KeyNotFound, ParameterServer


@pytest.fixture
def store():
    return ParameterServer()


class TestBasicOps:
    def test_set_and_get(self, store):
        store.set("k", 1)
        entry = store.get("k")
        assert entry.value == 1
        assert entry.version == 1

    def test_missing_key(self, store):
        with pytest.raises(KeyNotFound):
            store.get("nope")

    def test_versions_increment(self, store):
        store.set("k", 1)
        store.set("k", 2)
        assert store.get("k").version == 2

    def test_keys_with_prefix(self, store):
        store.set("model/a", 1)
        store.set("model/b", 2)
        store.set("other", 3)
        assert store.keys("model/") == ["model/a", "model/b"]
        assert len(store.keys()) == 3
