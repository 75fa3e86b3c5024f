"""Dependency-free metrics registry for the serving stack.

Design constraints, in order:

* **Digest neutrality.**  Instrumentation must never perturb the model
  path: metrics read ``time.perf_counter`` and integer counts only —
  never any RNG stream — so transcript digests with metrics enabled are
  byte-identical to digests without.
* **Deterministic snapshots.**  Histograms use *fixed* bucket bounds
  chosen at registration time, and every snapshot section is emitted in
  sorted key order, so two runs over the same load produce snapshots
  that differ only in measured wall-clock values, never in shape.
* **Mergeable.**  Sharded serving produces one snapshot per worker;
  :func:`merge_snapshots` folds them into a single view with well-defined
  semantics per instrument (counters and histogram buckets sum; each
  gauge carries its own merge mode).

The registry is intentionally tiny: three instrument kinds plus a timer
helper, a snapshot, and a merge.  No background threads, no external
dependencies, no global state — callers own their registry instance and
thread it to the components they want instrumented.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

#: Version stamped into every snapshot; bump on breaking schema changes.
SNAPSHOT_SCHEMA_VERSION = 1

#: Default bucket bounds (seconds) for latency-style histograms.  A final
#: +inf bucket is always implied; these bounds cover ~0.5 ms session swaps
#: up to multi-minute fine-tune rounds.
TIME_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: Default bucket bounds for small-count histograms (batch occupancy,
#: queue depth samples).
COUNT_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Gauge merge modes, in the order :func:`merge_snapshots` documents them.
GAUGE_MERGE_MODES = ("last", "sum", "max", "min")


def _format_labels(labels: Mapping[str, object]) -> str:
    """Canonical ``{k=v,...}`` suffix (sorted keys; empty string if none)."""
    if not labels:
        return ""
    parts = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return "{" + parts + "}"


def metric_key(name: str, labels: Mapping[str, object] | None = None) -> str:
    """The canonical snapshot key for ``name`` under ``labels``."""
    return name + _format_labels(labels or {})


class Counter:
    """A monotonically increasing count (resets only with its registry)."""

    __slots__ = ("key", "_value")

    def __init__(self, key: str) -> None:
        self.key = key
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.key!r} cannot decrease (got {amount})")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value with an explicit cross-shard merge mode."""

    __slots__ = ("key", "merge", "_value")

    def __init__(self, key: str, merge: str = "last") -> None:
        if merge not in GAUGE_MERGE_MODES:
            raise ValueError(f"unknown gauge merge mode {merge!r} for {key!r}")
        self.key = key
        self.merge = merge
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bound bucketed distribution (cumulative counts, +inf implied)."""

    __slots__ = ("key", "bounds", "bucket_counts", "_sum", "_count")

    def __init__(self, key: str, bounds: Sequence[float]) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered:
            raise ValueError(f"histogram {key!r} needs at least one bucket bound")
        if list(ordered) != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise ValueError(f"histogram {key!r} bounds must be strictly increasing")
        self.key = key
        self.bounds = ordered
        # One slot per finite bound plus the implicit +inf overflow bucket.
        self.bucket_counts = [0] * (len(ordered) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum


class MetricsRegistry:
    """Get-or-create registry of counters, gauges, and histograms.

    Instruments are identified by ``name`` plus optional labels; repeated
    registration with the same key returns the same instrument (and raises
    if the caller asks for a conflicting kind or configuration under an
    existing key).  All mutation of the registry *structure* is locked;
    individual observations are plain attribute updates, safe under the
    GIL for the single-writer-per-instrument pattern the serving stack
    uses.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument registration ------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = metric_key(name, labels)
        with self._lock:
            found = self._counters.get(key)
            if found is None:
                self._ensure_unclaimed(key, self._counters)
                found = self._counters[key] = Counter(key)
        return found

    def gauge(self, name: str, merge: str = "last", **labels: object) -> Gauge:
        key = metric_key(name, labels)
        with self._lock:
            found = self._gauges.get(key)
            if found is None:
                self._ensure_unclaimed(key, self._gauges)
                found = self._gauges[key] = Gauge(key, merge=merge)
            elif found.merge != merge:
                raise ValueError(
                    f"gauge {key!r} already registered with merge mode "
                    f"{found.merge!r}, not {merge!r}"
                )
        return found

    def histogram(
        self, name: str, buckets: Sequence[float] = TIME_BUCKETS, **labels: object
    ) -> Histogram:
        key = metric_key(name, labels)
        with self._lock:
            found = self._histograms.get(key)
            if found is None:
                self._ensure_unclaimed(key, self._histograms)
                found = self._histograms[key] = Histogram(key, buckets)
            elif found.bounds != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {key!r} already registered with bounds "
                    f"{found.bounds}, not {tuple(buckets)}"
                )
        return found

    def _ensure_unclaimed(self, key: str, owner: Mapping[str, object]) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not owner and key in table:
                raise ValueError(f"metric key {key!r} already registered as a {kind}")

    # -- timers ------------------------------------------------------------

    @contextmanager
    def timer(
        self, name: str, buckets: Sequence[float] = TIME_BUCKETS, **labels: object
    ) -> Iterator[None]:
        """Measure one span into the histogram ``name`` (perf_counter only)."""
        histogram = self.histogram(name, buckets=buckets, **labels)
        start = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - start)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready snapshot; every section in sorted key order."""
        with self._lock:
            counters = {key: c.value for key, c in sorted(self._counters.items())}
            gauges = {
                key: {"value": g.value, "merge": g.merge}
                for key, g in sorted(self._gauges.items())
            }
            histograms = {
                key: {
                    "bounds": list(h.bounds),
                    "counts": list(h.bucket_counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for key, h in sorted(self._histograms.items())
            }
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def key_set(self) -> List[str]:
        """Sorted list of every registered metric key (all kinds)."""
        with self._lock:
            keys = [*self._counters, *self._gauges, *self._histograms]
        return sorted(keys)


def snapshot_key_set(snapshot: Mapping[str, object]) -> List[str]:
    """Sorted metric keys present in a snapshot produced by any registry."""
    keys: List[str] = []
    for section in ("counters", "gauges", "histograms"):
        keys.extend(snapshot.get(section, {}))
    return sorted(keys)


def merge_snapshots(snapshots: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Fold per-shard snapshots into one aggregate view.

    * counters: summed
    * histograms: per-bucket counts, sum and count summed (bounds must
      match — mismatched bounds mean mismatched code versions and raise)
    * gauges: folded per their recorded merge mode (``sum``/``max``/
      ``min``; ``last`` keeps the value from the last snapshot seen, so
      it alone depends on the snapshots' order).  Snapshots that give one
      gauge different modes raise, as mismatched histogram bounds do.

    Everything but ``last`` gauges is independent of the order and the
    grouping of the snapshots (a merge of merges equals the flat merge),
    up to float rounding in ``sum`` gauges and histogram sums.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Dict[str, object]] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    schema = SNAPSHOT_SCHEMA_VERSION
    for snap in snapshots:
        schema = max(schema, int(snap.get("schema", SNAPSHOT_SCHEMA_VERSION)))
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + int(value)
        for key, entry in snap.get("gauges", {}).items():
            mode = entry.get("merge", "last")
            value = float(entry["value"])
            seen = gauges.get(key)
            if seen is None:
                gauges[key] = {"value": value, "merge": mode}
                continue
            if seen["merge"] != mode:
                raise ValueError(
                    f"gauge {key!r} merge modes differ across shards "
                    f"({seen['merge']!r} vs {mode!r})"
                )
            if mode == "sum":
                seen["value"] = float(seen["value"]) + value
            elif mode == "max":
                seen["value"] = max(float(seen["value"]), value)
            elif mode == "min":
                seen["value"] = min(float(seen["value"]), value)
            else:  # "last"
                seen["value"] = value
        for key, entry in snap.get("histograms", {}).items():
            seen = histograms.get(key)
            if seen is None:
                histograms[key] = {
                    "bounds": list(entry["bounds"]),
                    "counts": list(entry["counts"]),
                    "sum": float(entry["sum"]),
                    "count": int(entry["count"]),
                }
                continue
            if seen["bounds"] != list(entry["bounds"]):
                raise ValueError(f"histogram {key!r} bucket bounds differ across shards")
            seen["counts"] = [a + b for a, b in zip(seen["counts"], entry["counts"])]
            seen["sum"] = float(seen["sum"]) + float(entry["sum"])
            seen["count"] = int(seen["count"]) + int(entry["count"])
    return {
        "schema": schema,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def observe_health(registry: MetricsRegistry, report: Mapping[str, Mapping[str, object]]) -> None:
    """Fold a ``health_report()``-style dict into labeled severity gauges.

    Each component becomes ``health_state{component=<name>}`` with value
    0 (ok), 1 (degraded) or 2 (failed) — merge mode ``max`` so the
    sharded merged view reports the worst state across workers.
    """
    severity = {"ok": 0, "degraded": 1, "failed": 2}
    for component in sorted(report):
        state = str(report[component].get("state", "ok"))
        registry.gauge("health_state", merge="max", component=component).set(
            severity.get(state, 2)
        )
