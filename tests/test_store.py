"""The BlobStore: namespaces, atomicity discipline, layout compatibility."""

import pytest

from repro.store import NAMESPACES, BlobStore, LocalDirStore


@pytest.fixture()
def store(tmp_path):
    return LocalDirStore(tmp_path)


def test_put_get_round_trip(store):
    store.put("results", "abc", b"payload")
    assert store.get("results", "abc") == b"payload"
    assert store.get("results", "missing") is None


def test_namespaces_map_to_historical_layout(store):
    # the mapping IS the compatibility contract with pre-store caches
    assert store.path("results", "k").name == "k.pkl"
    assert store.path("results", "k").parent == store.root
    assert store.path("checkpoints", "k") == \
        store.root / "checkpoints" / "k.ckpt"
    assert store.path("sessions", "k") == store.root / "sessions" / "k.ckpt"


def test_namespaces_are_isolated(store):
    store.put("results", "same-key", b"r")
    store.put("checkpoints", "same-key", b"c")
    assert store.get("results", "same-key") == b"r"
    assert store.get("checkpoints", "same-key") == b"c"
    assert store.keys("sessions") == []


def test_unknown_namespace_lists_available(store):
    with pytest.raises(KeyError, match="results"):
        store.put("junk-drawer", "k", b"x")


def test_invalid_keys_rejected(store):
    with pytest.raises(ValueError):
        store.put("results", "../escape", b"x")
    with pytest.raises(ValueError):
        store.put("results", ".hidden", b"x")


def test_put_replaces_atomically(store):
    store.put("results", "k", b"old")
    store.put("results", "k", b"new")
    assert store.get("results", "k") == b"new"
    # no temp droppings left behind
    leftovers = [p for p in store.root.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_delete_and_keys(store):
    for key in ("b", "a", "c"):
        store.put("sessions", key, b"x")
    assert store.keys("sessions") == ["a", "b", "c"]
    assert store.delete("sessions", "b") is True
    assert store.delete("sessions", "b") is False
    assert store.keys("sessions") == ["a", "c"]


def test_stats_per_namespace_and_aggregate(store):
    store.put("results", "r1", b"12345")
    store.put("checkpoints", "c1", b"123")
    one = store.stats("results")
    assert one["entries"] == 1 and one["bytes"] == 5
    agg = store.stats()
    assert agg["entries"] == 2 and agg["bytes"] == 8
    assert set(agg["namespaces"]) == set(NAMESPACES)


def test_clear_one_namespace_or_all(store):
    store.put("results", "r1", b"x")
    store.put("sessions", "s1", b"x")
    assert store.clear("results") == 1
    assert store.get("sessions", "s1") == b"x"
    assert store.clear() == 1
    assert store.stats()["entries"] == 0


def test_shared_store_backs_result_cache(tmp_path):
    # the result cache sits on the same store root the service uses
    from repro.runner import ResultCache

    store = LocalDirStore(tmp_path)
    rc = ResultCache(store=store)
    assert rc.root == store.root
    with pytest.raises(ValueError):
        ResultCache(tmp_path, store=store)


def test_namespace_resolver_is_static():
    ns = BlobStore.namespace("checkpoints")
    assert ns.subdir == "checkpoints" and ns.suffix == ".ckpt"
