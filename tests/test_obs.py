"""The metrics registry: instrument semantics, snapshots, merging, export.

The observability layer's contract is deterministic *shape*: two runs
over the same code register the same keys with the same bucket bounds,
snapshots emit in sorted order, and per-shard snapshots merge with
well-defined per-instrument semantics.  The validator that CI runs over
nightly snapshots (``scripts/metrics_check.py``) is tested here too —
against both valid snapshots and fabricated corruption, so a gate that
passes everything fails this suite.
"""

import importlib.util
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    COUNT_BUCKETS,
    SNAPSHOT_SCHEMA_VERSION,
    MetricsRegistry,
    PeriodicSnapshotter,
    merge_snapshots,
    metric_key,
    observe_health,
    snapshot_key_set,
    write_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "metrics_check", REPO_ROOT / "scripts" / "metrics_check.py"
)
metrics_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(metrics_check)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("requests_total") == "requests_total"

    def test_labels_sorted(self):
        assert (
            metric_key("requests_total", {"kind": "chat", "code": "ok"})
            == "requests_total{code=ok,kind=chat}"
        )


class TestCounter:
    def test_increments(self):
        counter = MetricsRegistry().counter("hits_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_same_key_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("req_total", kind="chat").inc()
        registry.counter("req_total", kind="chat").inc()
        assert registry.counter("req_total", kind="chat").value == 2

    def test_labels_distinguish(self):
        registry = MetricsRegistry()
        registry.counter("req_total", kind="chat").inc()
        assert registry.counter("req_total", kind="personalize").value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_rejects_unknown_merge_mode(self):
        with pytest.raises(ValueError, match="merge mode"):
            MetricsRegistry().gauge("depth", merge="average")

    def test_rejects_conflicting_merge_mode(self):
        registry = MetricsRegistry()
        registry.gauge("depth", merge="max")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("depth", merge="sum")


class TestHistogram:
    def test_buckets_are_placed_by_bound(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        # <=1: two (0.5 and the boundary 1.0), <=2: none, <=4: one, +inf: one
        assert hist.bucket_counts == [2, 0, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(104.5)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MetricsRegistry().histogram("lat", buckets=(2.0, 1.0))

    def test_rejects_conflicting_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("lat", buckets=(1.0, 3.0))

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError, match="at least one"):
            MetricsRegistry().histogram("lat", buckets=())


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("thing")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.histogram("thing")

    def test_timer_observes_into_histogram(self):
        registry = MetricsRegistry()
        with registry.timer("span_seconds"):
            time.sleep(0.001)
        hist = registry.histogram("span_seconds")
        assert hist.count == 1
        assert hist.sum > 0

    def test_key_set_spans_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.gauge("g")
        registry.histogram("h")
        assert registry.key_set() == ["c", "g", "h"]


class TestSnapshot:
    def test_shape_and_schema(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc(3)
        registry.gauge("depth", merge="max").set(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA_VERSION
        assert snap["counters"] == {"hits_total": 3}
        assert snap["gauges"] == {"depth": {"value": 2.0, "merge": "max"}}
        assert snap["histograms"]["lat"] == {
            "bounds": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }

    def test_sections_sorted_and_json_round_trip(self):
        registry = MetricsRegistry()
        for name in ("zebra", "alpha", "mid"):
            registry.counter(name).inc()
        snap = json.loads(json.dumps(registry.snapshot()))
        assert list(snap["counters"]) == ["alpha", "mid", "zebra"]

    def test_pre_registered_keys_appear_at_zero(self):
        """Key-set is a property of registration, not traffic."""
        registry = MetricsRegistry()
        registry.counter("never_hit_total")
        registry.histogram("never_seen", buckets=(1.0,))
        snap = registry.snapshot()
        assert snap["counters"]["never_hit_total"] == 0
        assert snap["histograms"]["never_seen"]["count"] == 0

    def test_snapshot_key_set(self):
        registry = MetricsRegistry()
        registry.counter("c")
        registry.gauge("g")
        assert snapshot_key_set(registry.snapshot()) == ["c", "g"]


class TestMerge:
    def two_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, hits in ((a, 2), (b, 5)):
            registry.counter("hits_total").inc(hits)
            registry.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        return a, b

    def test_counters_sum(self):
        a, b = self.two_registries()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["hits_total"] == 7

    def test_histograms_sum_bucketwise(self):
        a, b = self.two_registries()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["histograms"]["lat"]["counts"] == [2, 0, 0]
        assert merged["histograms"]["lat"]["count"] == 2
        assert merged["histograms"]["lat"]["sum"] == pytest.approx(1.0)

    def test_histogram_bounds_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b.histogram("lat", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bounds differ"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    @pytest.mark.parametrize(
        "mode,expected", [("sum", 7.0), ("max", 5.0), ("min", 2.0), ("last", 5.0)]
    )
    def test_gauge_merge_modes(self, mode, expected):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", merge=mode).set(2)
        b.gauge("g", merge=mode).set(5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["g"]["value"] == expected

    def test_disjoint_keys_union(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only_a").inc()
        b.counter("only_b").inc()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert set(merged["counters"]) == {"only_a", "only_b"}

    def test_empty_merge_is_an_empty_snapshot(self):
        merged = merge_snapshots([])
        assert merged["schema"] == SNAPSHOT_SCHEMA_VERSION
        assert snapshot_key_set(merged) == []

    def test_gauge_merge_mode_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("queue_depth", merge="sum").set(2)
        b.gauge("queue_depth", merge="max").set(5)
        with pytest.raises(ValueError, match="'queue_depth' merge modes differ"):
            merge_snapshots([a.snapshot(), b.snapshot()])


# Each key keeps one kind, one gauge mode and one set of bounds across
# snapshots, as registries built by the same code do.  ``last`` gauges are
# left out: they keep the last snapshot's value, so they depend on order.
GAUGE_MODES = {"g_sum": "sum", "g_max": "max", "g_min": "min"}
HISTOGRAM_BOUNDS = {"h_lat": [0.1, 1.0], "h_rows": [1.0, 4.0, 16.0]}


@st.composite
def snapshots(draw):
    counters = {
        key: draw(st.integers(0, 10**6))
        for key in draw(st.sets(st.sampled_from(["c_a", "c_b", "c_c"])))
    }
    gauges = {}
    for key in draw(st.sets(st.sampled_from(sorted(GAUGE_MODES)))):
        mode = GAUGE_MODES[key]
        if mode == "sum":
            # Integer-valued, so float sums are exact in any order.
            value = float(draw(st.integers(-(10**6), 10**6)))
        else:
            value = draw(st.floats(-1e6, 1e6, allow_nan=False))
        gauges[key] = {"value": value, "merge": mode}
    histograms = {}
    for key in draw(st.sets(st.sampled_from(sorted(HISTOGRAM_BOUNDS)))):
        bounds = HISTOGRAM_BOUNDS[key]
        buckets = len(bounds) + 1
        counts = draw(st.lists(st.integers(0, 1000), min_size=buckets, max_size=buckets))
        histograms[key] = {
            "bounds": list(bounds),
            "counts": counts,
            "sum": draw(st.floats(0, 1e6, allow_nan=False)),
            "count": sum(counts),
        }
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def _order_free_view(merged):
    """Everything a merge must agree on whatever the order and grouping."""
    return (
        snapshot_key_set(merged),
        merged["counters"],
        {key: entry["value"] for key, entry in merged["gauges"].items()},
        {key: (entry["counts"], entry["count"]) for key, entry in merged["histograms"].items()},
    )


class TestMergeProperties:
    """``merge_snapshots`` is commutative and associative."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), snaps=st.lists(snapshots(), max_size=6))
    def test_any_order_and_grouping_agrees(self, data, snaps):
        flat = _order_free_view(merge_snapshots(snaps))
        shuffled = data.draw(st.permutations(snaps))
        assert _order_free_view(merge_snapshots(shuffled)) == flat
        cuts = sorted(data.draw(st.sets(st.integers(0, len(shuffled)))))
        groups = [shuffled[a:b] for a, b in zip([0] + cuts, cuts + [len(shuffled)])]
        merged_groups = merge_snapshots(merge_snapshots(group) for group in groups)
        assert _order_free_view(merged_groups) == flat


class TestObserveHealth:
    def test_states_become_labeled_severity_gauges(self):
        registry = MetricsRegistry()
        observe_health(
            registry,
            {
                "store": {"state": "ok"},
                "scheduler": {"state": "degraded"},
                "journal": {"state": "failed"},
            },
        )
        snap = registry.snapshot()["gauges"]
        assert snap["health_state{component=store}"]["value"] == 0
        assert snap["health_state{component=scheduler}"]["value"] == 1
        assert snap["health_state{component=journal}"]["value"] == 2
        assert snap["health_state{component=store}"]["merge"] == "max"

    def test_merged_view_reports_worst_state(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        observe_health(a, {"store": {"state": "ok"}})
        observe_health(b, {"store": {"state": "failed"}})
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["gauges"]["health_state{component=store}"]["value"] == 2


class TestExport:
    def test_write_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        path = tmp_path / "metrics.json"
        write_snapshot(path, registry.snapshot())
        assert json.loads(path.read_text())["counters"]["hits_total"] == 1

    def test_periodic_snapshotter_writes_on_start_and_stop(self, tmp_path):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        path = tmp_path / "metrics.json"
        snapshotter = PeriodicSnapshotter(registry, path, interval_seconds=60.0)
        snapshotter.start()
        assert json.loads(path.read_text())["counters"]["hits_total"] == 0
        counter.inc(3)
        snapshotter.stop()
        assert json.loads(path.read_text())["counters"]["hits_total"] == 3

    def test_snapshotter_custom_snapshot_fn(self, tmp_path):
        registry = MetricsRegistry()
        other = MetricsRegistry()
        other.counter("merged_total").inc(9)
        path = tmp_path / "metrics.json"
        snapshotter = PeriodicSnapshotter(
            registry, path, interval_seconds=60.0, snapshot_fn=other.snapshot
        )
        snapshotter.start()
        snapshotter.stop()
        assert json.loads(path.read_text())["counters"]["merged_total"] == 9


class TestMetricsCheck:
    """scripts/metrics_check.py must accept real snapshots and catch rot."""

    def real_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("serve_requests_total", kind="chat").inc(4)
        registry.gauge("pending", merge="sum").set(1)
        registry.histogram("lat", buckets=COUNT_BUCKETS).observe(2)
        return registry.snapshot()

    def test_valid_snapshot_passes(self):
        assert metrics_check.validate_snapshot(self.real_snapshot()) == []

    def test_wrong_schema_caught(self):
        snap = self.real_snapshot()
        snap["schema"] = 99
        assert any("schema" in p for p in metrics_check.validate_snapshot(snap))

    def test_negative_counter_caught(self):
        snap = self.real_snapshot()
        snap["counters"]["serve_requests_total{kind=chat}"] = -1
        assert any("non-negative" in p for p in metrics_check.validate_snapshot(snap))

    def test_bucket_count_mismatch_caught(self):
        snap = self.real_snapshot()
        snap["histograms"]["lat"]["counts"].append(0)
        assert any("buckets" in p for p in metrics_check.validate_snapshot(snap))

    def test_count_sum_mismatch_caught(self):
        snap = self.real_snapshot()
        snap["histograms"]["lat"]["count"] = 42
        assert any("sum to" in p for p in metrics_check.validate_snapshot(snap))

    def test_unknown_gauge_merge_caught(self):
        snap = self.real_snapshot()
        snap["gauges"]["pending"]["merge"] = "median"
        assert any("merge mode" in p for p in metrics_check.validate_snapshot(snap))

    def test_cli_require_nonzero(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(self.real_snapshot()))
        assert metrics_check.main([str(path), "--require-nonzero", "serve_retries_total"]) == 1
        ok = metrics_check.main(
            [str(path), "--require-nonzero", "serve_requests_total{kind=chat}"]
        )
        assert ok == 0

    def test_cli_require_missing_key(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(self.real_snapshot()))
        assert metrics_check.main([str(path), "--require", "no_such_metric"]) == 1
        assert metrics_check.main([str(path), "--require", "lat"]) == 0
