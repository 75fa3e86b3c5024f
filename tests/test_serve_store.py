"""Tests for the per-user LoRA adapter store (persistence + LRU cache)."""

import pickle

import numpy as np
import pytest

from repro.serve.adapter_store import (
    ADAPTER_SUFFIX,
    AdapterStoreError,
    LoRAAdapterStore,
    validate_user_id,
)


def make_state(seed: int, rank: int = 4, dim: int = 8):
    """A synthetic adapter state dict (two layers of A/B matrices)."""
    rng = np.random.default_rng(seed)
    return {
        "adapter.0.lora_a": rng.standard_normal((rank, dim)).astype(np.float32),
        "adapter.0.lora_b": rng.standard_normal((dim, rank)).astype(np.float32),
        "adapter.1.lora_a": rng.standard_normal((rank, dim)).astype(np.float32),
        "adapter.1.lora_b": rng.standard_normal((dim, rank)).astype(np.float32),
    }


def assert_states_identical(left, right):
    assert set(left) == set(right)
    for key in left:
        assert left[key].dtype == np.float32
        np.testing.assert_array_equal(left[key], right[key])


class TestUserIdValidation:
    def test_accepts_safe_ids(self):
        for user_id in ("alice", "user-07", "a.b_c-d", "X" * 64):
            assert validate_user_id(user_id) == user_id

    @pytest.mark.parametrize(
        "bad", ["", "../evil", "a/b", ".hidden", "-lead", "x" * 65, "sp ace", None, 7]
    )
    def test_rejects_unsafe_ids(self, bad):
        with pytest.raises(AdapterStoreError):
            validate_user_id(bad)


class TestRoundTrip:
    def test_put_get_bit_identical(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        state = make_state(0)
        store.put("alice", state)
        assert_states_identical(store.get("alice"), state)

    def test_get_returns_isolated_copy(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        store.put("alice", make_state(0))
        fetched = store.get("alice")
        fetched["adapter.0.lora_a"][:] = 0.0
        assert_states_identical(store.get("alice"), make_state(0))

    def test_put_copies_input(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        state = make_state(0)
        store.put("alice", state)
        state["adapter.0.lora_a"][:] = 0.0
        assert_states_identical(store.get("alice"), make_state(0))

    def test_unknown_user_raises_keyerror(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        with pytest.raises(KeyError, match="no adapter stored"):
            store.get("ghost")

    def test_survives_reopen(self, tmp_path):
        with LoRAAdapterStore(tmp_path) as store:
            store.put("alice", make_state(3))
        reopened = LoRAAdapterStore(tmp_path)
        assert "alice" in reopened
        assert_states_identical(reopened.get("alice"), make_state(3))


class TestLRUEviction:
    def test_eviction_order_is_least_recently_used(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=2)
        store.put("a", make_state(1))
        store.put("b", make_state(2))
        store.get("a")  # a becomes most-recent
        store.put("c", make_state(3))  # evicts b
        assert store.cached_users == ["a", "c"]
        assert store.stats.evictions == 1

    def test_evicted_adapter_reloads_bit_identically(self, tmp_path):
        """The acceptance-criterion round trip: evict to disk, reload, compare."""
        store = LoRAAdapterStore(tmp_path, cache_capacity=1)
        states = {f"user-{i}": make_state(10 + i) for i in range(4)}
        for user, state in states.items():
            store.put(user, state)  # each put evicts (and flushes) the previous
        assert store.stats.evictions == 3
        assert store.stats.disk_writes == 3
        for user, state in states.items():
            assert_states_identical(store.get(user), state)
        # The reloads themselves caused disk traffic (capacity 1 thrashes).
        assert store.stats.disk_loads >= 3

    def test_eviction_does_not_lose_dirty_updates(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=1)
        store.put("a", make_state(1))
        store.put("a", make_state(2))  # overwrite while still dirty
        store.put("b", make_state(3))  # evicts a -> must flush the *second* state
        assert_states_identical(store.get("a"), make_state(2))

    def test_hit_and_miss_counters(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=1)
        store.put("a", make_state(1))
        store.put("b", make_state(2))
        store.get("b")  # hit
        store.get("a")  # miss -> disk
        stats = store.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            LoRAAdapterStore(tmp_path, cache_capacity=0)
        with pytest.raises(ValueError):
            LoRAAdapterStore(tmp_path, mmap_cache_capacity=-1)


class TestDeleteAndInventory:
    def test_delete_removes_cache_and_disk(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        store.put("alice", make_state(0))
        store.flush()
        assert store.delete("alice")
        assert "alice" not in store
        assert not (tmp_path / f"alice{ADAPTER_SUFFIX}").exists()
        assert store.stats.deletes == 1
        assert not store.delete("alice")  # second delete finds nothing

    def test_users_lists_disk_and_cache(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=1)
        store.put("b", make_state(1))
        store.put("a", make_state(2))  # evicts b to disk
        assert store.users() == ["a", "b"]
        assert len(store) == 2


class TestCorruption:
    """Unreadable adapter files are quarantined (renamed ``*.corrupt``), not
    fatal: the user simply looks freshly-registered and re-initializes blank."""

    def test_corrupt_payload_quarantined(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        path = store.path_for("alice")
        path.write_bytes(pickle.dumps({"not": "an adapter"}))
        with pytest.raises(KeyError, match="quarantined"):
            store.get("alice")
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.stats.quarantined == 1
        assert store.health.state.value == "degraded"

    def test_truncated_pickle_quarantined(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        store.put("alice", make_state(0))
        store.flush()
        path = store.path_for("alice")
        path.write_bytes(path.read_bytes()[:20])  # truncate mid-stream
        store._cache.clear()  # force the disk path
        with pytest.raises(KeyError, match="quarantined"):
            store.get("alice")
        assert path.with_name(path.name + ".corrupt").exists()

    def test_wrong_format_version_quarantined(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        path = store.path_for("alice")
        path.write_bytes(
            pickle.dumps({"format_version": 99, "user_id": "alice", "state": {}})
        )
        with pytest.raises(KeyError, match="quarantined"):
            store.get("alice")
        assert path.with_name(path.name + ".corrupt").exists()

    def test_put_after_quarantine_reinitializes(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        path = store.path_for("alice")
        path.write_bytes(b"garbage")
        with pytest.raises(KeyError):
            store.get("alice")
        fresh = make_state(1)
        store.put("alice", fresh, round=0)
        store.flush()
        reloaded = LoRAAdapterStore(tmp_path)
        assert_states_identical(reloaded.get("alice"), fresh)
        # The quarantined original is kept alongside for post-mortem.
        assert path.with_name(path.name + ".corrupt").exists()

    def test_repeated_quarantine_suffixes(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        path = store.path_for("alice")
        for _ in range(2):
            path.write_bytes(b"garbage")
            with pytest.raises(KeyError):
                store.get("alice")
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.with_name(path.name + ".corrupt.1").exists()
        assert store.stats.quarantined == 2
