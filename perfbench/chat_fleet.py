"""chat_fleet — many tenants chatting through one in-process scheduler.

32 users, chat only, greedy decoding, an adapter LRU of 8 entries over
adapter files already on disk, so most adapter swaps read an A1 file
through ``LoRAAdapterStore.get``.  One benchmark thread drives a
``RequestScheduler`` through one request list in two phases:

* burst — every request queued at t=0 and served by one ``run()``,
  repeated ``BURSTS`` times over the run.  Each request is timed from t=0
  until its entry is emitted: the gated ``p50_ms``/``tail_ms`` are the wait
  of a request that arrives with a backlog, and the throughput is the
  offline capacity (requests/s, tokens/s).  The bursts serve the same
  requests in the same scheduler turns; each burst's times are rescaled to
  full host speed (see ``hostspeed.py``), and every turn takes the median
  of its repetitions (see :func:`stats.median_segments`);
* open loop — a prefix of the same requests sent on a seeded Poisson
  schedule at the fixed ``OPEN_RATE``; each is timed from its due time, so a
  stall shows as latency of the requests behind it.  Between arrivals the
  thread serves whatever is queued with ``run()``; how late it sent each
  request, and the queue left when the last one was sent, are reported.
  Its latencies feed the report and the traced run's queue figures.

Greedy decoding must not depend on batch composition, so each request's
response must be identical in every phase.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    DATASET,
    MODEL_SEED,
    SCALE,
    SETUPS,
    WorkloadResult,
    clock,
    entries_digest,
    mean_rouge1,
    peak_rss_mb,
    phase,
    population,
    references,
    traffic,
)
from hostspeed import WINDOW, HostSpeed
from layers import directory_mb
from stats import PercentileError, highest_supported, median_segments, percentile, tail_summary
from tracer import Tracer

NUM_USERS = 32
CACHE_CAPACITY = 8
MAX_BATCH = 8
#: Offered open-loop rate (requests/s), about a sixth of the batch-1
#: saturation (near 125 req/s on the 2-core reference container).
OPEN_RATE = 20.0
#: Requests per burst (10 samples beyond p99); the open loop sends the first
#: ``OPEN_RATE * seconds / 4`` of them (at least ``MIN_OPEN``: 10 beyond p90).
REQUESTS = 1000
MIN_OPEN = 100
#: Burst repetitions, spread over the run.
BURSTS = 7
#: The gated latency is the burst's: each request timed from t=0 until its
#: entry is emitted.  Open-loop latency at batch 1 is reported but not
#: gated: on the reference container it moved 70% between minutes in which
#: batched work moved 15-20% (p50 11-19.5 ms over ten seeds at 20 req/s,
#: 12-36 ms at 45 req/s).
TAIL = 0.99


def _build(llm, scale, adapter_dir: Path):
    from repro.serve import LoRAAdapterStore, RequestScheduler
    from repro.serve.runner import make_session_manager, serving_generation_config

    store = LoRAAdapterStore(adapter_dir, cache_capacity=CACHE_CAPACITY)
    manager = make_session_manager(llm, store, scale, seed=MODEL_SEED)
    scheduler = RequestScheduler(
        manager, max_batch_size=MAX_BATCH, generation=serving_generation_config(llm, scale)
    )
    return manager, scheduler


def _listen(scheduler) -> Dict[int, float]:
    """Completion time of every emitted entry, by request id."""
    emitted: Dict[int, float] = {}
    scheduler.entry_listener = lambda entry: emitted.__setitem__(entry["request_id"], clock())
    return emitted


def _served(scheduler) -> Dict[int, dict]:
    return {entry["request_id"]: entry for entry in scheduler.transcript}


def run(seed: int, seconds: float, workdir: Path, tracer: Optional[Tracer] = None) -> WorkloadResult:
    from repro.experiments.presets import get_scale
    from repro.serve.loadgen import build_serving_llm, user_ids

    scale = get_scale(SCALE, seed=MODEL_SEED)
    count = REQUESTS
    users = population(NUM_USERS)
    requests = traffic(seed, users, count)
    # The open loop sends a prefix of the same requests (they are drawn
    # independently, so any prefix is a random sample of them).
    open_count = min(count, max(MIN_OPEN, int(OPEN_RATE * seconds / 4)))
    arrivals = np.random.default_rng([seed, 0xC4A7]).exponential(1.0 / OPEN_RATE, size=open_count)
    due = np.cumsum(arrivals)

    adapter_dir = workdir / "adapters"
    host = HostSpeed()
    burst_seconds: List[float] = []
    bursts: List[Dict[int, dict]] = []
    burst_turns: List[List[List[int]]] = []
    burst_timelines: List[List[float]] = []

    def burst() -> None:
        """Every request queued at t=0 and served by one ``run()``."""
        _, scheduler = _build(llm, scale, adapter_dir)
        done = _listen(scheduler)
        with phase(tracer, "bench.burst"):
            start = clock()
            scheduler.submit_many(requests)
            scheduler.run()
            burst_seconds.append(clock() - start)
        turns = [list(turn.request_ids) for turn in scheduler.turns]
        timeline = [start]
        for turn in turns:
            ends = [done[rid] for rid in turn if rid in done]
            timeline.append(max(ends) if ends else timeline[-1])
        burst_turns.append(turns)
        burst_timelines.append(timeline)
        bursts.append(_served(scheduler))

    # The bursts are spread over the whole run, one after each set-up and
    # the rest after the open loop, so no one stretch of host speed decides
    # them.  Every set-up builds the same model.
    setup_spans: List[List[float]] = []
    with host.sampling():
        for index in range(SETUPS):
            with phase(tracer, "bench.setup"):
                start = clock()
                llm = build_serving_llm(scale, dataset=DATASET, seed=MODEL_SEED)
                setup_spans.append([start, clock()])
            if index == 0:
                # Existing tenants: every user's adapter is on disk before serving.
                manager, _ = _build(llm, scale, adapter_dir)
                for user in user_ids(NUM_USERS):
                    manager.attach(user)
                manager.flush()
            burst()

        # -- open loop ---------------------------------------------------- #
        _, scheduler = _build(llm, scale, adapter_dir)
        open_done = _listen(scheduler)
        lateness: List[float] = []
        queue_at_end = 0
        with phase(tracer, "bench.open_loop"):
            origin = clock()
            sent = 0
            while sent < open_count or scheduler.pending_count:
                now = clock() - origin
                while sent < open_count and due[sent] <= now:
                    scheduler.submit(requests[sent])
                    lateness.append(clock() - origin - due[sent])
                    sent += 1
                    if sent == open_count:
                        queue_at_end = scheduler.pending_count
                if scheduler.pending_count:
                    scheduler.run()
                elif sent < open_count:
                    time.sleep(max(0.0, due[sent] - (clock() - origin)))
            open_seconds = clock() - origin
        opened = _served(scheduler)
        while len(bursts) < BURSTS:
            burst()
        time.sleep(WINDOW)  # kernel runs after the last burst, for its rescaling
    setup_measured = [end - start for start, end in setup_spans]
    setup_seconds = [host.rescale(span)[-1] for span in setup_spans]
    burst_set = bursts[0]

    open_ms = [
        1e3 * (open_done[request.request_id] - (origin + due[index]))
        for index, request in enumerate(requests[:open_count])
        if request.request_id in open_done
    ]
    answers = references(users)
    pairs = []
    missing_reference = 0
    for request in requests:
        entry = burst_set.get(request.request_id)
        reference = answers[request.user_id].get(request.question)
        if entry is None or reference is None:
            missing_reference += int(reference is None)
            continue
        pairs.append((entry.get("response", ""), reference))

    def bad(entries: Dict[int, dict]) -> int:
        return sum(1 for entry in entries.values() if entry.get("dead_letter") or entry.get("degraded"))

    phases = [(served, count) for served in bursts] + [(opened, open_count)]
    mismatched = sum(
        1
        for index, request in enumerate(requests)
        if len(
            {
                served.get(request.request_id, {}).get("response")
                for served, sent_count in phases
                if index < sent_count
            }
        )
        != 1
    )
    failed = sum(bad(served) + sent_count - len(served) for served, sent_count in phases)
    same_turns = all(turns == burst_turns[0] for turns in burst_turns)
    rescaled = [host.rescale(timeline) for timeline in burst_timelines]
    # Reported as a failed check when the turns differ; the first burst stands in.
    offsets = median_segments(rescaled) if same_turns else rescaled[0]
    burst_latency = [
        1e3 * offsets[index + 1] for index, turn in enumerate(burst_turns[0]) for _ in turn
    ]
    burst_span = offsets[-1]
    checks = {
        "burst_open_loop_responses_identical": mismatched == 0,
        "bursts_served_in_the_same_turns": same_turns,
        "every_question_has_reference": missing_reference == 0,
        "all_served": all(len(served) == sent_count for served, sent_count in phases),
    }
    try:
        tail = tail_summary(burst_latency, TAIL)
        checks["tail_percentile_supported"] = True
    except PercentileError as error:
        tail = {"p50": statistics.median(burst_latency) if burst_latency else 0.0,
                "p99": 0.0, "error": str(error)}
        checks["tail_percentile_supported"] = False
    tokens = sum(len(entry.get("response", "").split()) for entry in burst_set.values())
    rouge = mean_rouge1(pairs) or 0.0
    digest = entries_digest(
        [{"request_id": rid, "response": entry.get("response")} for rid, entry in burst_set.items()]
    )
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "p50_ms": tail["p50"],
        "tail_ms": tail["p99"],
        "throughput_per_s": count / burst_span,
        "rouge1": rouge,
        "peak_rss_mb": peak_rss_mb(),
    }
    lateness_ms = [1e3 * value for value in lateness]
    detail = {
        "setup_seconds": setup_seconds,
        "setup_measured_seconds": setup_measured,
        "host_speed": host.summary(),
        "requests": count,
        "users": NUM_USERS,
        "latency": {"of": "burst chat", "n": len(burst_latency), "tail": f"p{TAIL * 100:g}"},
        "burst_chat_p50_ms": tail["p50"],
        "burst_chat_p99_ms": tail["p99"],
        "burst_turns": len(burst_turns[0]),
        "burst_rescaled_seconds": burst_span,
        "chat_p50_ms": statistics.median(open_ms) if open_ms else 0.0,
        "chat_latency_ms": highest_supported(open_ms),
        "chat_tokens_per_s": tokens / burst_span,
        "burst_seconds": burst_seconds,
        "open_loop": {
            "offered_rate_per_s": OPEN_RATE,
            "requests": open_count,
            "achieved_rate_per_s": open_count / open_seconds,
            "seconds": open_seconds,
            "lateness_ms_max": max(lateness_ms),
            "lateness_ms_p99": percentile(lateness_ms, 0.99),
            "queue_at_end": queue_at_end,
        },
        "mismatched_responses": mismatched,
        "transcript_digest": digest,
    }
    return WorkloadResult(
        metrics=metrics,
        attempted=BURSTS * count + open_count,
        failed=failed,
        checks=checks,
        detail=detail,
        state_mb=directory_mb(adapter_dir),
    )
