"""The benchmark's own tests: tracer, statistics, host-speed rescaling and
digest neutrality.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

(The file is not named ``test_*.py`` so the repository's own test run
does not collect it.)
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from hostspeed import REFERENCE_SECONDS, HostSpeed  # noqa: E402
from stats import (  # noqa: E402
    PercentileError,
    median_segments,
    min_samples,
    percentile,
    quartile_spread,
    samples_beyond,
    tail_summary,
)
from tracer import Span, Tracer, layer_table, self_times, union_length  # noqa: E402


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def test_union_length_merges_overlaps_and_gaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    parent = Span(1, "p", 0.0, 10.0)
    children = [
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),  # overlaps a by 1 s
        Span(4, "c", 8.0, 12.0, parent=1),  # runs past the parent's end
        Span(5, "grandchild", 1.5, 2.0, parent=2),
    ]
    own = self_times([parent, *children])
    # Union of children inside [0, 10]: [1, 6] ∪ [8, 10] = 7 s.
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.5)
    assert own[5] == pytest.approx(0.5)
    table = layer_table([parent, *children])
    assert table["p"] == {"calls": 1, "s": pytest.approx(10.0), "self_s": pytest.approx(3.0)}


def test_self_time_with_children_recorded_from_other_threads():
    """Children on worker threads (explicit parent) overlap each other."""
    tracer = Tracer()
    barrier = threading.Barrier(2)
    with tracer.span("session") as root:

        def worker(name: str) -> None:
            barrier.wait()
            start = tracer.clock()
            time.sleep(0.05)
            tracer.add(name, start, tracer.clock(), parent=root.id, request=name)

        threads = [threading.Thread(target=worker, args=(f"client{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        time.sleep(0.02)
    spans = tracer.finished()
    root_span = next(span for span in spans if span.name == "session")
    children = [span for span in spans if span.parent == root_span.id]
    assert len(children) == 2
    covered = union_length((child.start, child.end) for child in children)
    # The two children overlap, so the union is well below their sum.
    assert covered < sum(child.seconds for child in children)
    own = self_times(spans)
    assert own[root_span.id] == pytest.approx(root_span.seconds - covered)
    assert own[root_span.id] >= 0.015


def test_nested_spans_inherit_parent_and_request():
    tracer = Tracer()
    with tracer.span("turn", request="7"):
        with tracer.span("inner"):
            pass
    spans = {span.name: span for span in tracer.finished()}
    assert spans["inner"].parent == spans["turn"].id
    assert spans["inner"].request == "7"


def test_wrappers_time_calls_and_uninstall_restores():
    class Target:
        def work(self, value):
            return value * 2

    original = Target.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(Target, "work", "target.work",
                annotate=lambda span, args, kwargs, result, token: span.attrs.update(out=result))
    assert Target().work(3) == 6
    tracer.uninstall()
    assert Target.__dict__["work"] is original
    (span,) = tracer.finished()
    assert span.name == "target.work" and span.attrs["out"] == 6 and span.seconds >= 0


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def test_percentile_rule_needs_ten_samples_beyond():
    assert min_samples(0.99) == 1000
    assert min_samples(0.90) == 100
    assert min_samples(0.75) == 40
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    with pytest.raises(PercentileError, match="n >= 1000"):
        tail_summary(list(range(999)), 0.99)
    summary = tail_summary([float(i) for i in range(1, 1001)], 0.99)
    assert summary["n"] == 1000 and summary["beyond"] == 10
    assert summary["p99"] == 990.0
    assert summary["p50"] == pytest.approx(500.5)


def test_nearest_rank_percentile_returns_a_sample():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 1.0) == 5.0
    assert percentile(values, 0.2) == 1.0


def test_median_segments_takes_each_segment_from_its_median_repetition():
    # Repetition a is slow in segment 1, repetition c in segment 2.
    a = [0.0, 3.0, 4.0, 7.0]
    b = [0.0, 1.0, 2.0, 5.0]
    c = [0.0, 1.0, 9.0, 12.0]
    assert median_segments([a, b, c]) == pytest.approx([0.0, 1.0, 2.0, 5.0])
    assert median_segments([a]) == pytest.approx(a)
    with pytest.raises(ValueError, match="differ in length"):
        median_segments([a, b[:3]])


def test_rescale_removes_kernel_time_and_scales_by_nearby_runs():
    host = HostSpeed()
    full = REFERENCE_SECONDS
    host.record(1.0, 1.0 + 2 * full, 2 * full)  # the host at half speed
    host.record(5.0, 5.0 + full, full)  # at full speed
    # 0.2 s measured around the slow run: its CPU time out, the rest halved.
    assert host.rescale([0.9, 1.0, 1.1])[-1] == pytest.approx(0.1 - full)
    # 0.3 s around the fast run: its CPU time out, the rest as measured.
    assert host.rescale([4.9, 5.2]) == pytest.approx([0.0, 0.3 - full])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)


# ---------------------------------------------------------------------- #
# tracing is digest-neutral, and the per-layer catalog is complete
# ---------------------------------------------------------------------- #
@pytest.fixture
def small_chat_fleet(monkeypatch):
    import chat_fleet

    monkeypatch.setattr(chat_fleet, "SETUPS", 1)
    monkeypatch.setattr(chat_fleet, "REQUESTS", 48)
    monkeypatch.setattr(chat_fleet, "MIN_OPEN", 40)
    monkeypatch.setattr(chat_fleet, "OPEN_RATE", 400.0)
    # One burst before the open loop and one after it: the same request ids
    # are submitted again after the open loop.
    monkeypatch.setattr(chat_fleet, "BURSTS", 2)
    return chat_fleet


def test_traced_and_untraced_chat_fleet_have_the_same_digest(small_chat_fleet, tmp_path):
    untraced = small_chat_fleet.run(5, 0.1, tmp_path / "plain")
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = small_chat_fleet.run(5, 0.1, tmp_path / "traced", tracer=tracer)
    finally:
        tracer.uninstall()
    assert untraced.checks["burst_open_loop_responses_identical"]
    assert traced.checks["burst_open_loop_responses_identical"]
    assert untraced.checks["bursts_served_in_the_same_turns"]
    assert untraced.failed == traced.failed == 0
    assert untraced.detail["transcript_digest"] == traced.detail["transcript_digest"]

    spans = tracer.finished()
    names = {span.name for span in spans}
    assert {"llm.pretrain", "llm.respond_batch", "serve.attach", "serve.store.get",
            layers.TURN, layers.SUBMIT, layers.RUN} <= names
    by_id = {span.id: span for span in spans}
    # Decode spans sit under a reconstructed scheduler turn with request ids.
    decode = next(span for span in spans if span.name == "llm.respond_batch")
    ancestors = []
    node = decode
    while node.parent is not None:
        node = by_id[node.parent]
        ancestors.append(node.name)
    assert layers.TURN in ancestors
    assert decode.request is not None

    metrics = layers.per_layer_metrics(spans, state_mb=traced.state_mb)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {entry["name"] for entry in declared}
    assert metrics["llm.finetune.s"] == 0 and metrics["serve.journal.s"] == 0
    assert metrics["core.checkpoint.s"] == 0
    assert metrics["llm.respond_batch.calls"] > 0
    # Queue waits pair each open-loop turn with its own submit, not with the
    # resubmission of the same id in the later burst.
    assert metrics["serve.scheduler.queue_wait_ms_p50"] > 0
    assert 0 < metrics["serve.scheduler.busy_ratio"] <= 1
    assert metrics["serve.scheduler.batch_rows_mean"] >= 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
