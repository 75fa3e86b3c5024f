"""The A1 binary adapter record: round-trips, zero-copy loads, damage tolerance.

Mirrors the journal's torn-tail suite: every damage class an operator can
inflict on an adapter file — truncation inside the header, a flipped payload
byte, a shape table that lies about buffer lengths, a future version byte —
must be *diagnosed* (a precise :class:`AdapterFormatError` reason), then
*survived* by the store (quarantine + blank re-init), never crash serving.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.utils.a1 import (
    ADAPTER_ALIGNMENT,
    ADAPTER_HEADER_NBYTES,
    AdapterFormatError,
    open_adapter_record,
    pack_adapter_record,
    unpack_adapter_record,
)
from repro.serve.adapter_store import AdapterStoreError, LoRAAdapterStore


def make_state(seed=0, layers=3):
    rng = np.random.default_rng(seed)
    state = {}
    for index in range(layers):
        state[f"adapter.{index}.lora_a"] = rng.standard_normal((4, 16)).astype(np.float32)
        state[f"adapter.{index}.lora_b"] = rng.standard_normal((16, 4)).astype(np.float32)
    return state


def assert_states_identical(left, right):
    assert list(left) == list(right)
    for key in left:
        assert left[key].dtype == np.float32
        assert left[key].shape == right[key].shape
        assert left[key].tobytes() == right[key].tobytes()


class TestRoundTrip:
    def test_pack_unpack_bit_identical(self):
        state = make_state(1)
        record = unpack_adapter_record(pack_adapter_record("alice", state, round=7))
        assert record.user_id == "alice"
        assert record.round == 7
        assert_states_identical(record.state, state)

    def test_pack_is_deterministic(self):
        state = make_state(2)
        assert pack_adapter_record("bob", state, round=3) == pack_adapter_record(
            "bob", state, round=3
        )

    def test_empty_state_round_trips(self):
        record = unpack_adapter_record(pack_adapter_record("carol", {}, round=0))
        assert record.state == {}
        assert record.nbytes == 0

    def test_buffers_are_aligned(self, tmp_path):
        # mmap bases are page-aligned and every payload offset is 64-byte
        # aligned, so mapped tensor views start on cache-line boundaries.
        path = tmp_path / "dave.adapter.bin"
        path.write_bytes(pack_adapter_record("dave", make_state(3)))
        record = open_adapter_record(path)
        for array in record.state.values():
            address = array.__array_interface__["data"][0]
            assert address % ADAPTER_ALIGNMENT == 0

    def test_mmap_load_is_read_only_view(self, tmp_path):
        state = make_state(4)
        path = tmp_path / "eve.adapter.bin"
        path.write_bytes(pack_adapter_record("eve", state, round=1))
        record = open_adapter_record(path)
        assert_states_identical(record.state, state)
        for array in record.state.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0


class TestDamage:
    """Every damage class raises a precise AdapterFormatError."""

    def blob(self):
        return pack_adapter_record("mallory", make_state(6), round=2)

    def test_truncated_header(self):
        with pytest.raises(AdapterFormatError, match="truncated header"):
            unpack_adapter_record(self.blob()[: ADAPTER_HEADER_NBYTES - 1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.adapter.bin"
        path.write_bytes(b"")
        with pytest.raises(AdapterFormatError, match="truncated header"):
            open_adapter_record(path)

    def test_bad_magic(self):
        blob = bytearray(self.blob())
        blob[0:2] = b"ZZ"
        with pytest.raises(AdapterFormatError, match="bad magic"):
            unpack_adapter_record(bytes(blob))

    def test_wrong_version_byte(self):
        blob = bytearray(self.blob())
        blob[2] = 99
        with pytest.raises(AdapterFormatError, match="unsupported format version 99"):
            unpack_adapter_record(bytes(blob))

    def test_truncated_shape_table(self):
        blob = self.blob()
        with pytest.raises(AdapterFormatError, match="truncated shape table"):
            unpack_adapter_record(blob[: ADAPTER_HEADER_NBYTES + 3])

    def test_table_crc_mismatch(self):
        blob = bytearray(self.blob())
        blob[ADAPTER_HEADER_NBYTES] ^= 0xFF  # flip a byte inside the table
        with pytest.raises(AdapterFormatError, match="shape table CRC mismatch"):
            unpack_adapter_record(bytes(blob))

    def test_truncated_payload(self):
        blob = self.blob()
        with pytest.raises(AdapterFormatError, match="truncated payload"):
            unpack_adapter_record(blob[:-1])

    def test_payload_crc_mismatch(self):
        blob = bytearray(self.blob())
        blob[-1] ^= 0x01  # flip a bit in the last payload byte
        with pytest.raises(AdapterFormatError, match="payload CRC mismatch"):
            unpack_adapter_record(bytes(blob))

    def retabled(self, edit):
        """The blob with ``edit`` applied to its shape table, CRC recomputed
        so only the semantic checks can catch the damage."""
        good = self.blob()
        header = bytearray(good[:ADAPTER_HEADER_NBYTES])
        (table_nbytes,) = struct.unpack_from("<I", header, 12)
        table = bytearray(good[ADAPTER_HEADER_NBYTES : ADAPTER_HEADER_NBYTES + table_nbytes])
        edit(table)
        struct.pack_into("<I", header, 16, zlib.crc32(bytes(table)))
        return bytes(header) + bytes(table) + good[ADAPTER_HEADER_NBYTES + table_nbytes :]

    def test_shape_table_buffer_length_mismatch(self):
        def corrupt_nbytes(table):
            # first entry: skip user id ("mallory" = 7 bytes) then key len
            position = 7
            (key_len,) = struct.unpack_from("<H", table, position)
            position += 2 + key_len + 2  # key, dtype+ndim
            (ndim,) = struct.unpack_from("<B", table, position - 1)
            position += 4 * ndim + 8  # dims, offset
            struct.pack_into("<Q", table, position, 12345)

        with pytest.raises(AdapterFormatError, match="length mismatch"):
            unpack_adapter_record(self.retabled(corrupt_nbytes))

    def test_non_utf8_key(self):
        def corrupt_key(table):
            table[7 + 2] = 0xFF  # first byte of the first key

        with pytest.raises(AdapterFormatError, match="tensor key is not valid UTF-8"):
            unpack_adapter_record(self.retabled(corrupt_key))

    def test_duplicate_key(self):
        def duplicate_key(table):
            second = table.find(b"adapter.0.lora_b")
            table[second + len("adapter.0.lora_")] = ord("a")

        with pytest.raises(AdapterFormatError, match="duplicate tensor key"):
            unpack_adapter_record(self.retabled(duplicate_key))

    def test_too_many_dimensions(self):
        # A CRC-valid record declaring more dims than numpy supports must
        # still fail as a format error, not as numpy's ValueError.
        ndim = 65
        table = b"u" + struct.pack("<H", 1) + b"k" + struct.pack("<BB", 0, ndim)
        table += struct.pack(f"<{ndim}I", *([1] * ndim)) + struct.pack("<QQ", 0, 4)
        payload = np.ones(1, dtype="<f4").tobytes()
        header = struct.pack(
            "<2sBBHHIIIIQ", b"A1", 1, 0, 1, 1, 0, len(table),
            zlib.crc32(table), zlib.crc32(payload), len(payload),
        )
        padding = b"\0" * (-(len(header) + len(table)) % ADAPTER_ALIGNMENT)
        with pytest.raises(AdapterFormatError, match="unusable shape"):
            unpack_adapter_record(header + table + padding + payload)

    def test_nonzero_flags(self):
        blob = bytearray(self.blob())
        blob[3] = 1
        with pytest.raises(AdapterFormatError, match="unknown flags"):
            unpack_adapter_record(bytes(blob))

    @pytest.mark.parametrize("count", range(6))
    def test_short_tensor_count_leaves_trailing_table_bytes(self, count):
        # The tensor count (header byte 6) is outside both CRCs; a smaller
        # count used to decode silently to the first ``count`` tensors.
        blob = bytearray(self.blob())
        assert blob[6] == 6
        blob[6] = count
        with pytest.raises(AdapterFormatError, match="trailing bytes"):
            unpack_adapter_record(bytes(blob))


class TestStoreDamageTolerance:
    """The store's contract: damaged binary file -> quarantine + blank re-init."""

    def damage_cases(self, blob):
        return {
            "truncated_header": blob[:10],
            "bad_crc": bytes(blob[:-1]) + bytes([blob[-1] ^ 1]),
            "wrong_version": bytes(blob[:2]) + bytes([99]) + bytes(blob[3:]),
            "truncated_payload": blob[:-8],
        }

    @pytest.mark.parametrize(
        "case", ["truncated_header", "bad_crc", "wrong_version", "truncated_payload"]
    )
    def test_damaged_file_quarantined_and_user_reinits(self, tmp_path, case):
        store = LoRAAdapterStore(tmp_path)
        state = make_state(7)
        store.put("alice", state, round=3)
        store.flush()
        path = store.path_for("alice")
        blob = path.read_bytes()
        path.write_bytes(self.damage_cases(bytearray(blob))[case])
        store._cache.clear()
        store._records.clear()
        with pytest.raises(KeyError, match="quarantined"):
            store.get("alice")
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.stats.quarantined == 1
        assert store.health.state.value == "degraded"
        # blank re-init: the user can be re-registered and round-trips again
        fresh = make_state(8)
        store.put("alice", fresh, round=0)
        store.flush()
        assert_states_identical(LoRAAdapterStore(tmp_path).get("alice"), fresh)

    def test_flipped_user_id_length_quarantined(self, tmp_path):
        # Header byte 4 is the user id length, outside both CRCs.  Flipping
        # its low bit shifts the shape-table parse onto a dim byte >= 0x80,
        # which used to escape as a UnicodeDecodeError and skip quarantine.
        store = LoRAAdapterStore(tmp_path)
        store.put("alice", {"blocks.0.q.lora_a": np.ones((4, 200), np.float32)}, round=1)
        store.flush()
        path = store.path_for("alice")
        blob = bytearray(path.read_bytes())
        blob[4] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(KeyError, match="quarantined"):
            LoRAAdapterStore(tmp_path).get("alice")
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_foreign_user_record_quarantined(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        store.path_for("alice").write_bytes(pack_adapter_record("bob", make_state(9)))
        with pytest.raises(KeyError, match="belongs to 'bob'"):
            store.get("alice")
        assert store.stats.quarantined == 1


class TestWarmMmapCache:
    def test_evicted_entry_reloads_via_mmap_hit(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=1)
        a, b = make_state(10), make_state(11)
        store.put("a", a)
        store.get("a")  # no disk yet: cached
        store.put("b", b)  # evicts + flushes a
        first = store.get("a")  # cold binary load, populates the record cache
        assert store.stats.disk_loads == 1
        store.put("b", b)  # evict a again (clean now)
        second = store.get("a")  # warm: record cache, no new disk load
        assert store.stats.mmap_hits == 1
        assert store.stats.disk_loads == 1
        assert_states_identical(first, second)
        assert_states_identical(first, a)

    def test_write_invalidates_record_cache(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=1)
        store.put("a", make_state(12))
        store.put("b", make_state(13))  # flush+evict a
        store.get("a")  # map it
        updated = make_state(14)
        store.put("a", updated, round=5)
        store.flush("a")  # rewrite must drop the stale mapping
        store.put("b", make_state(13))  # evict a
        reloaded = store.get("a")
        assert_states_identical(reloaded, updated)
        assert store.get_round("a") == 5

    def test_mmap_cache_capacity_bounds_handles(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=1, mmap_cache_capacity=2)
        for index in range(4):
            store.put(f"u{index}", make_state(index))
        store.flush()
        store._cache.clear()
        for index in range(4):
            store.get(f"u{index}")
        assert len(store._records) == 2

    def test_get_returns_writable_copies(self, tmp_path):
        store = LoRAAdapterStore(tmp_path, cache_capacity=1)
        store.put("a", make_state(15))
        store.put("b", make_state(16))
        loaded = store.get("a")  # mmap-backed read-only views inside
        key = next(iter(loaded))
        loaded[key][0, 0] = 123.0  # caller's copy must be writable
        again = store.get("a")
        assert again[key][0, 0] != 123.0  # and must not leak back in


class TestSingleFormat:
    def test_store_refuses_a_directory_with_pickle_adapters(self, tmp_path):
        store = LoRAAdapterStore(tmp_path)
        store.put("alice", make_state(17))
        store.close()
        (tmp_path / "old-user.adapter.pkl").write_bytes(b"pre-A1 bytes")
        (tmp_path / "zed.adapter.pkl").write_bytes(b"pre-A1 bytes")
        with pytest.raises(AdapterStoreError, match="old-user.adapter.pkl"):
            LoRAAdapterStore(tmp_path)
