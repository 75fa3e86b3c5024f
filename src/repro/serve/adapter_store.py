"""Per-user LoRA adapter persistence with an LRU in-memory cache.

The paper's deployment story is one shared frozen base model multiplexed
across many users, each owning only a lightweight LoRA adapter.  This module
is the storage half of that story: :class:`LoRAAdapterStore` keeps every
user's adapter state dict (the ``lora_a`` / ``lora_b`` matrices produced by
:func:`repro.nn.lora.lora_state_dict`) on disk, with a bounded write-back LRU
cache in front so the hot users' adapters never touch the filesystem.

Disk layout (one file per user, written atomically)::

    <directory>/
        <user_id>.adapter.bin     # A1 binary record (header, shape table,
                                  # CRC-checksummed raw float32 buffers; see
                                  # repro.utils.a1)
        <user_id>.adapter.bin.corrupt   # quarantined unreadable file (kept
                                        # for post-mortem; the user re-inits
                                        # blank)

Adapters are written in the ``A1`` binary format
(:mod:`repro.utils.a1`): versioned header, CRC-32 over the shape
table and the payload, and 64-byte-aligned raw float32 buffers that load
zero-copy through ``mmap``.  A bounded handle cache keeps recently decoded
mappings alive, so re-loading a recently-evicted adapter costs a dict copy
instead of a deserialize — the "warm mmap load" measured in
``BENCH_serving.json``.  ``A1`` is the only on-disk format: a store refuses
to open a directory that still holds pre-``A1`` ``*.adapter.pkl`` files,
rather than silently re-initializing those users blank.

The cache budget is configurable both as an entry count and as a byte budget;
eviction flushes dirty entries to disk first, so an evicted adapter reloaded
later is bit-identical to the evicted one (proven in
``tests/test_serve_store.py``).  All cache traffic is counted in
:class:`StoreStats` so a run's summary and the metrics export can expose
hit rates and eviction pressure.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import atomic_bytes_dump
from repro.nn.lora import clone_lora_state, lora_state_nbytes
from repro.utils.a1 import (
    AdapterFormatError,
    AdapterRecord,
    open_adapter_record,
    pack_adapter_record,
)
from repro.obs import MetricsRegistry
from repro.serve.errors import StoreIOError
from repro.serve.faults import NO_FAULTS, FaultInjector
from repro.serve.health import ComponentHealth

#: Current on-disk adapter file suffix (A1 binary records).
ADAPTER_SUFFIX = ".adapter.bin"

#: User ids become file names; keep them to a safe, portable alphabet.
_USER_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class AdapterStoreError(RuntimeError):
    """An adapter file is missing, corrupt or the user id is unusable."""


def validate_user_id(user_id: str) -> str:
    """Check that ``user_id`` is non-empty and filesystem-safe; returns it."""
    if not isinstance(user_id, str) or not _USER_ID_PATTERN.match(user_id):
        raise AdapterStoreError(
            f"invalid user id {user_id!r}: expected 1-64 chars from "
            "[A-Za-z0-9._-] starting with an alphanumeric"
        )
    return user_id


class StoreStats:
    """Cache / disk traffic counters of one :class:`LoRAAdapterStore`.

    Every field is backed by a ``store_<field>_total`` counter on a
    :class:`repro.obs.MetricsRegistry`, so the same counts feed this
    report view, the wire-protocol ``metrics`` op and JSON snapshots —
    there is exactly one source of truth.  Fields read as attributes
    (``stats.hits``) and grow only through :meth:`inc`.
    """

    FIELDS = (
        "hits",
        "misses",
        "evictions",
        "disk_loads",
        "disk_writes",
        "deletes",
        "quarantined",
        "io_errors",
        "mmap_hits",
    )

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        registry = metrics if metrics is not None else MetricsRegistry()
        self._counters = {name: registry.counter(f"store_{name}_total") for name in self.FIELDS}

    def __getattr__(self, name: str) -> int:
        # .get() keeps lookups safe before __init__ ran (e.g. during copy).
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return counters[name].value
        raise AttributeError(name)

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the ``name`` field's counter."""
        self._counters[name].inc(amount)

    @property
    def hit_rate(self) -> float:
        """Cache hits over all lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready view (the ``store`` section of a shard's summary)."""
        view: Dict[str, float] = {name: getattr(self, name) for name in self.FIELDS}
        view["hit_rate"] = self.hit_rate
        return view


@dataclass
class _CacheEntry:
    """One cached adapter: the state arrays plus write-back bookkeeping.

    ``round`` is the user's fine-tune round counter — the fencing token of
    the serving layer's exactly-once personalize protocol.  It is persisted
    inside the adapter payload so a restarted server can tell whether an
    interrupted round already reached the disk.
    """

    state: Dict[str, np.ndarray]
    nbytes: int
    dirty: bool = field(default=False)
    round: int = 0


class LoRAAdapterStore:
    """Persists per-user adapter weights behind a bounded write-back LRU cache.

    ``cache_capacity`` bounds the number of adapters held in memory;
    ``cache_max_bytes`` additionally bounds their total payload size (either
    may be ``None`` for "unbounded" on that axis).  ``put`` marks entries
    dirty and defers the disk write until the entry is evicted or
    :meth:`flush` / :meth:`close` runs — the store never loses an update
    because eviction always flushes first.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        cache_capacity: Optional[int] = 4,
        cache_max_bytes: Optional[int] = None,
        faults: Optional[FaultInjector] = None,
        mmap_cache_capacity: Optional[int] = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if cache_capacity is not None and cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1 or None, got {cache_capacity}")
        if cache_max_bytes is not None and cache_max_bytes < 1:
            raise ValueError(f"cache_max_bytes must be >= 1 or None, got {cache_max_bytes}")
        if mmap_cache_capacity is not None and mmap_cache_capacity < 0:
            raise ValueError(
                f"mmap_cache_capacity must be >= 0 or None, got {mmap_cache_capacity}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        stale = min(self.directory.glob("*.adapter.pkl"), default=None)
        if stale is not None:
            raise AdapterStoreError(
                f"{stale} is a pre-A1 adapter file: this store reads only A1 "
                f"records (*{ADAPTER_SUFFIX}) and would silently restart its user "
                "blank; convert it with a release that still ships "
                "`repro migrate-adapters`, or delete it"
            )
        self.cache_capacity = cache_capacity
        self.cache_max_bytes = cache_max_bytes
        self.mmap_cache_capacity = mmap_cache_capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = StoreStats(self.metrics)
        self.faults = faults if faults is not None else NO_FAULTS
        self.health = ComponentHealth("adapter_store")
        self._cache: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        #: Decoded A1 mappings kept alive after the entry cache evicted their
        #: state: a bounded LRU of file handles, not of RAM — the pages live
        #: in the OS page cache.  A hit here is the "warm mmap load" path.
        self._records: "OrderedDict[str, AdapterRecord]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # paths and inventory
    # ------------------------------------------------------------------ #
    def path_for(self, user_id: str) -> Path:
        """The on-disk adapter file for ``user_id`` (A1 binary)."""
        return self.directory / f"{validate_user_id(user_id)}{ADAPTER_SUFFIX}"

    def users(self) -> List[str]:
        """Every known user (on disk or cached), sorted."""
        on_disk = {
            path.name[: -len(ADAPTER_SUFFIX)]
            for path in self.directory.glob(f"*{ADAPTER_SUFFIX}")
        }
        return sorted(on_disk | set(self._cache))

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._cache or self.path_for(user_id).is_file()

    def __len__(self) -> int:
        return len(self.users())

    @property
    def cached_users(self) -> List[str]:
        """Users currently in memory, least- to most-recently used."""
        return list(self._cache)

    @property
    def cached_nbytes(self) -> int:
        """Total payload bytes of the in-memory cache."""
        return sum(entry.nbytes for entry in self._cache.values())

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #
    def put(
        self, user_id: str, state: Dict[str, np.ndarray], round: Optional[int] = None
    ) -> None:
        """Store/overwrite a user's adapter (write-back: disk write deferred).

        The arrays are deep-copied at the boundary, so the caller (typically
        the live model about to fine-tune further) cannot mutate the stored
        snapshot afterwards.  ``round`` updates the user's fine-tune round
        fence; ``None`` keeps the currently cached value (0 for a new user).
        """
        validate_user_id(user_id)
        copied = clone_lora_state(state)
        previous = self._cache.get(user_id)
        if round is None:
            round = previous.round if previous is not None else 0
        entry = _CacheEntry(
            state=copied, nbytes=lora_state_nbytes(copied), dirty=True, round=int(round)
        )
        self._cache[user_id] = entry
        self._cache.move_to_end(user_id)
        self._shrink_to_budget()

    def get(self, user_id: str) -> Dict[str, np.ndarray]:
        """A copy of the user's adapter state, from cache or disk.

        Raises :class:`KeyError` for an unknown user — callers that want
        "new users start blank" semantics handle that case themselves (see
        :class:`~repro.serve.session.SessionManager`).
        """
        validate_user_id(user_id)
        entry = self._cache.get(user_id)
        if entry is not None:
            self.stats.inc("hits")
            self._cache.move_to_end(user_id)
            return clone_lora_state(entry.state)
        self.stats.inc("misses")
        state, round = self._read_from_disk(user_id)
        self._cache[user_id] = _CacheEntry(
            state=state, nbytes=lora_state_nbytes(state), dirty=False, round=round
        )
        self._shrink_to_budget()
        return clone_lora_state(state)

    def get_round(self, user_id: str) -> int:
        """The user's persisted fine-tune round fence (0 for unknown users).

        Unlike :meth:`get`, an unknown (or quarantined) user is not an
        error here — recovery code probes rounds for users that may never
        have reached the disk.
        """
        validate_user_id(user_id)
        entry = self._cache.get(user_id)
        if entry is not None:
            return entry.round
        try:
            _, round = self._read_from_disk(user_id)
        except KeyError:
            return 0
        return round

    def delete(self, user_id: str) -> bool:
        """Forget a user entirely (cache and disk); returns whether one existed."""
        validate_user_id(user_id)
        existed = self._cache.pop(user_id, None) is not None
        self._records.pop(user_id, None)
        path = self.path_for(user_id)
        if path.is_file():
            path.unlink()
            existed = True
        if existed:
            self.stats.inc("deletes")
        return existed

    def flush(self, user_id: Optional[str] = None) -> int:
        """Write dirty cached adapters to disk; returns the number written.

        With ``user_id`` given, only that user's entry is flushed.
        """
        targets = [user_id] if user_id is not None else list(self._cache)
        written = 0
        for target in targets:
            entry = self._cache.get(target)
            if entry is not None and entry.dirty:
                self._write_to_disk(target, entry.state, entry.round)
                entry.dirty = False
                written += 1
        return written

    def close(self) -> None:
        """Flush every dirty entry and drop the in-memory and mmap caches."""
        self.flush()
        self._cache.clear()
        self._records.clear()

    def __enter__(self) -> "LoRAAdapterStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _shrink_to_budget(self) -> None:
        """Evict least-recently-used entries until both budgets are met.

        A dirty entry is flushed *before* it leaves the cache: if the disk
        write fails (a :class:`StoreIOError`, real or injected), the entry
        stays resident and dirty, so no adapter update is ever dropped on
        the floor by an eviction racing a flaky disk.
        """
        while self._over_budget():
            evicted_user, entry = next(iter(self._cache.items()))
            if entry.dirty:
                self._write_to_disk(evicted_user, entry.state, entry.round)
                entry.dirty = False
            self._cache.popitem(last=False)
            self.stats.inc("evictions")

    def _over_budget(self) -> bool:
        if len(self._cache) <= 1:
            # The single most-recent entry always stays resident, even when it
            # alone exceeds the byte budget — evicting it would thrash.
            return False
        if self.cache_capacity is not None and len(self._cache) > self.cache_capacity:
            return True
        if self.cache_max_bytes is not None and self.cached_nbytes > self.cache_max_bytes:
            return True
        return False

    def _quarantine(self, path: Path, user_id: str, reason: str) -> None:
        """Move a corrupt adapter file aside so the user can re-init blank.

        The file is renamed to ``*.corrupt`` (``.corrupt.1``, ... when a
        previous quarantine already parked one) rather than deleted — the
        bytes may still matter for a post-mortem.
        """
        quarantine = path.with_name(path.name + ".corrupt")
        suffix = 0
        while quarantine.exists():
            suffix += 1
            quarantine = path.with_name(f"{path.name}.corrupt.{suffix}")
        try:
            os.replace(path, quarantine)
        except OSError:
            # The rename itself failing must not take the server down; the
            # next read will just re-attempt the quarantine.
            pass
        self.stats.inc("quarantined")
        self.health.degrade(f"quarantined corrupt adapter of {user_id!r}: {reason}")

    def _write_to_disk(self, user_id: str, state: Dict[str, np.ndarray], round: int = 0) -> None:
        self.faults.store_fault("write", user_id)
        path = self.path_for(user_id)
        try:
            atomic_bytes_dump(path, pack_adapter_record(user_id, state, round=int(round)))
        except OSError as error:
            self.stats.inc("io_errors")
            raise StoreIOError(f"writing adapter file {path}: {error}") from error
        # The atomic replace left any live mapping pointing at the old inode;
        # drop it so the next read maps the new bytes.
        self._records.pop(user_id, None)
        self.stats.inc("disk_writes")
        self.faults.after_store_write(user_id, path)

    def _cache_record(self, user_id: str, record: AdapterRecord) -> None:
        if self.mmap_cache_capacity == 0:
            return
        self._records[user_id] = record
        self._records.move_to_end(user_id)
        if self.mmap_cache_capacity is not None:
            while len(self._records) > self.mmap_cache_capacity:
                self._records.popitem(last=False)

    def _read_from_disk(self, user_id: str) -> Tuple[Dict[str, np.ndarray], int]:
        record = self._records.get(user_id)
        if record is not None:
            # Warm mmap load: the file is already mapped and fully verified;
            # handing out the read-only views costs a dict copy.
            self._records.move_to_end(user_id)
            self.stats.inc("mmap_hits")
            return record.state_views(), record.round
        path = self.path_for(user_id)
        if not path.is_file():
            raise KeyError(f"no adapter stored for user {user_id!r} in {self.directory}")
        self.faults.store_fault("read", user_id)
        try:
            record = open_adapter_record(path)
        except OSError as error:
            self.stats.inc("io_errors")
            raise StoreIOError(f"reading adapter file {path}: {error}") from error
        except AdapterFormatError as error:
            # Corruption is not retryable: park the file and report the
            # user as unknown, so the session layer re-initializes them
            # blank instead of the whole serve run dying on one bad file.
            self._quarantine(path, user_id, error.reason)
            raise KeyError(
                f"no usable adapter for user {user_id!r}: {error.reason} "
                "(corrupt file quarantined)"
            ) from error
        if record.user_id != user_id:
            self._quarantine(path, user_id, f"record belongs to {record.user_id!r}")
            raise KeyError(
                f"no usable adapter for user {user_id!r}: record belongs to "
                f"{record.user_id!r} (quarantined)"
            )
        self.stats.inc("disk_loads")
        self._cache_record(user_id, record)
        return record.state_views(), record.round
