"""Benchmark S1 — multi-tenant serving throughput and adapter-swap latency.

Serves the same deterministic chat-only multi-user load over one shared
pre-trained base model under four scheduling policies:

* ``sequential`` — ``max_batch_size=1``: one request per user per turn.
  This is not one row per decode: the chat turns between two personalize
  turns still share decode rounds (up to ``ROUND_ROWS`` rows across users
  per ``respond_batch``).  Recorded, not gated;
* ``per_turn`` — ``max_batch_size=8`` with ``scheduler.ROUND_ROWS`` set to
  1 for the pass, so each turn (one user's batch) decodes alone: the
  scheduler before cross-adapter rounds;
* ``batched`` — ``max_batch_size=8``: each turn takes up to 8 of a user's
  queued requests, and the turns share decode rounds;
* ``journaled`` — ``batched`` plus a durable request journal recording
  every enqueue and completion (the PR-6 robustness layer), measuring what
  crash-safety costs at steady state.

Decoding is greedy, so all policies produce the identical transcript —
the comparison isolates scheduling policy, not output quality.  Also
measures adapter hot-swap latency with a cold store (adapter read from
disk) and a warm cache (adapter already in memory).

Two further sections cover the scale-out layer (``docs/scaling.md``):

* ``sharding`` — the same 100-user chat-only load served through
  ``run_serve`` at 1 (one worker thread), 2 and 4 workers, recording aggregate
  tokens/sec, p99 entry latency, and whether the transcript digest stayed
  byte-identical across worker counts and rounds (it must — topology is
  not allowed to change behaviour).  ``cpu_count`` is recorded so the
  scaling gate in ``perf_check.py --sharding`` can skip the 4-worker
  speedup requirement on machines without 4 cores.
* ``adapter_format`` — per-load microseconds of the ``A1`` binary format
  read cold (``mmap_cache_capacity=0``: open, map and verify every load)
  and warm (record handles mmapped and cached).  The mmap cache's promise
  is a warm load ≥2× faster than a cold one.

Every section times its cases in interleaved rounds (``timing.interleave``)
and records medians with their IQRs; a gated ratio is the median of its
per-round ratios.  The summary is gated by ``scripts/perf_check.py
--serving``, ``--chaos-overhead`` and ``--sharding``, which, like a direct
run, writes it to ``runs/perf/BENCH_serving.json``; the test asserts the
≥2× batched-over-per-turn speedup.  Run directly
(``python benchmarks/bench_serving.py``) or through pytest.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict

import repro.serve.scheduler as scheduling
from repro.experiments.presets import get_scale
from repro.serve import (
    LoadConfig,
    LoRAAdapterStore,
    RequestJournal,
    RequestScheduler,
    ServeConfig,
    generate_load,
    run_serve,
)
from repro.serve.loadgen import build_serving_llm, user_ids
from repro.serve.runner import make_session_manager, serving_generation_config
from repro.serve.shard import default_worker_mode
from timing import blas_threads, interleave, per_round, percentile, write_summary
from timing import spread, summarize, whole_call

RESULT_NAME = "BENCH_serving.json"

NUM_USERS = 4
NUM_REQUESTS = 32
BATCHED_MAX_BATCH = 8
ROUNDS = 30
REQUIRED_SPEEDUP = 2.0
# name -> (max_batch_size, scheduler.ROUND_ROWS for the pass, journaled)
POLICIES = {
    "sequential": (1, scheduling.ROUND_ROWS, False),
    "per_turn": (BATCHED_MAX_BATCH, 1, False),
    "batched": (BATCHED_MAX_BATCH, scheduling.ROUND_ROWS, False),
    "journaled": (BATCHED_MAX_BATCH, scheduling.ROUND_ROWS, True),
}

# Scale-out section: 100 simulated users, chat-only so every worker count
# serves the identical decode workload.
SHARD_WORKER_COUNTS = (1, 2, 4)
SHARD_NUM_USERS = 100
SHARD_NUM_REQUESTS = 200
SHARD_ROUNDS = 3
# Gates enforced by ``perf_check.py --sharding`` (imported from here so the
# bench and the gate cannot drift apart).
REQUIRED_MMAP_SPEEDUP = 2.0
REQUIRED_SHARD_SCALING = 1.8
ADAPTER_BENCH_ROUNDS = 32
SWAP_ROUNDS = 8


def _policy_case(llm, scale, load, root: Path, policy: str):
    """One full scheduling pass over the load per call; returns the transcript.

    Only ``submit_many`` + ``run`` is timed: the store, sessions, journal
    and load are built the same way for every policy and must not dilute
    the measured ratios.
    """
    max_batch_size, round_rows, journaled = POLICIES[policy]

    def case(lap):
        call_dir = Path(tempfile.mkdtemp(prefix=f"{policy}-", dir=root))
        store = LoRAAdapterStore(call_dir / "adapters", cache_capacity=NUM_USERS)
        manager = make_session_manager(llm, store, scale, seed=load.seed)
        journal = RequestJournal(call_dir / "journal.log") if journaled else None
        scheduler = RequestScheduler(
            manager,
            max_batch_size=max_batch_size,
            generation=serving_generation_config(llm, scale),
            journal=journal,
        )
        requests = generate_load(load)
        saved, scheduling.ROUND_ROWS = scheduling.ROUND_ROWS, round_rows
        try:
            with lap:
                scheduler.submit_many(requests)
                scheduler.run()
        finally:
            scheduling.ROUND_ROWS = saved
            if journal is not None:
                journal.close()
        return scheduler.transcript

    return case


def _shard_bench(llm, scale) -> Dict[str, object]:
    """Serve the 100-user load at each worker count; digests must agree.

    Aggregate tokens/sec counts the words of every chat response across
    all shards — the fleet-level figure an operator scales for — over the
    serving time ``run_serve`` itself measures (worker start-up excluded).
    Process workers only help when the machine has cores to put them on,
    so the host ``cpu_count`` rides along for the gate to consult.
    """
    load = LoadConfig(
        num_users=SHARD_NUM_USERS,
        num_requests=SHARD_NUM_REQUESTS,
        chat_only=True,
        seed=0,
    )

    def case(workers):
        def serve(lap):
            config = ServeConfig(
                load=load, scale=scale, workers=workers, max_batch_size=BATCHED_MAX_BATCH
            )
            outcome = run_serve(config, llm=llm.clone())
            lap.seconds = outcome.elapsed_seconds
            return outcome

        return serve

    seconds, outcomes = interleave(
        {str(workers): case(workers) for workers in SHARD_WORKER_COUNTS}, SHARD_ROUNDS
    )
    per_workers: Dict[str, dict] = {}
    token_rates = {}
    for workers, runs in outcomes.items():
        tokens = sum(
            len(entry.get("response", "").split())
            for entry in runs[0].transcript
            if entry.get("kind") == "chat"
        )
        token_rates[workers] = [tokens / elapsed for elapsed in seconds[workers]]
        rates, rates_iqr = spread(token_rates[workers], 1)
        latencies = [
            latency
            for outcome in runs
            for shard in outcome.shards
            for latency in shard["entry_latencies"]
        ]
        per_workers[workers] = {
            "tokens_per_sec": rates,
            "tokens_per_sec_iqr": rates_iqr,
            "requests_per_sec": spread([o.requests_per_sec for o in runs])[0],
            "p99_latency_ms": round(1e3 * percentile(latencies, 0.99), 2),
        }
    digests = {outcome.transcript_digest for runs in outcomes.values() for outcome in runs}
    first = str(SHARD_WORKER_COUNTS[0])
    last = str(SHARD_WORKER_COUNTS[-1])
    scaling, scaling_iqr = spread(per_round(token_rates[last], token_rates[first]))
    return {
        "num_users": SHARD_NUM_USERS,
        "num_requests": SHARD_NUM_REQUESTS,
        "repeats": SHARD_ROUNDS,
        "mode": default_worker_mode(),
        "cpu_count": os.cpu_count() or 1,
        "workers": per_workers,
        "digests_match": len(digests) == 1,
        "transcript_digest": outcomes[first][0].transcript_digest,
        "scaling_at_max_workers": scaling,
        "scaling_at_max_workers_iqr": scaling_iqr,
    }


def _adapter_format_bench(llm, scale, root: Path) -> Dict[str, object]:
    """Per-load microseconds of A1 records, cold and warm.

    Both stores use ``cache_capacity=1`` with several users, so every
    ``get`` misses the state LRU and exercises the on-disk format.  The
    warm store additionally holds an mmap record handle per user (faulted
    in by the warm-up pass) — the steady-state fast path of the binary
    format.  Each call is one pass over the users.
    """
    users = user_ids(NUM_USERS)
    binary_dir = root / "fmt-binary"
    seed_store = LoRAAdapterStore(binary_dir, cache_capacity=NUM_USERS)
    seed_manager = make_session_manager(llm, seed_store, scale, seed=0)
    for user in users:
        seed_manager.attach(user)  # create + persist every adapter (A1)
    seed_store.flush()

    def load_all(mmap_cache_capacity):
        store = LoRAAdapterStore(
            binary_dir, cache_capacity=1, mmap_cache_capacity=mmap_cache_capacity
        )

        def run():
            for user in users:  # keep no copy: held copies made each load fault in pages
                store.get(user)

        return whole_call(run)

    seconds, _ = interleave(
        {"cold": load_all(0), "warm": load_all(NUM_USERS)}, ADAPTER_BENCH_ROUNDS
    )
    cold, cold_iqr = spread([1e6 * s / len(users) for s in seconds["cold"]], 1)
    warm, warm_iqr = spread([1e6 * s / len(users) for s in seconds["warm"]], 1)
    speedup, speedup_iqr = spread(per_round(seconds["cold"], seconds["warm"]))
    return {
        "repeats": ADAPTER_BENCH_ROUNDS,
        "loads_per_repeat": len(users),
        "binary_cold_us": cold,
        "binary_cold_iqr_us": cold_iqr,
        "warm_mmap_us": warm,
        "warm_mmap_iqr_us": warm_iqr,
        "mmap_speedup_over_cold": speedup,
        "mmap_speedup_over_cold_iqr": speedup_iqr,
    }


def _adapter_swap_bench(llm, scale, root: Path, seed: int) -> Dict[str, object]:
    """Milliseconds per attach, cold (a 1-adapter cache and no mmap handle
    cache: every attach opens and reads the file) and warm (every adapter
    cached), each round one pass over the users."""
    users = user_ids(NUM_USERS)
    cases = {}
    for name, capacity, mmap_capacity in (("cold", 1, 0), ("warm", NUM_USERS, NUM_USERS)):
        store = LoRAAdapterStore(
            root / "swap", cache_capacity=capacity, mmap_cache_capacity=mmap_capacity
        )
        manager = make_session_manager(llm, store, scale, seed=seed)
        for user in users:
            manager.attach(user)  # create + persist, then populate the cache
        store.flush()

        def attach_all(lap, attach=manager.attach):
            lap.seconds = sum(attach(user) for user in users) / len(users)

        cases[name] = attach_all
    seconds, _ = interleave(cases, SWAP_ROUNDS)
    medians, iqrs = summarize({name: [1e3 * s for s in seconds[name]] for name in seconds}, 4)
    return {"repeats": SWAP_ROUNDS, **medians, **{f"{n}_iqr": iqr for n, iqr in iqrs.items()}}


def run_benchmark(rounds: int = ROUNDS) -> Dict[str, object]:
    """Measure the scheduling policies; returns the JSON-ready summary."""
    scale = get_scale("smoke", seed=0)
    load = LoadConfig(
        num_users=NUM_USERS,
        num_requests=NUM_REQUESTS,
        chat_only=True,
        seed=0,
    )
    llm = build_serving_llm(scale, dataset=load.dataset, seed=load.seed)

    with tempfile.TemporaryDirectory(prefix="repro-bench-serving-") as root:
        seconds, transcripts = interleave(
            {policy: _policy_case(llm, scale, load, Path(root), policy) for policy in POLICIES},
            rounds,
        )
        # Greedy decoding must make the policies semantically identical; a
        # divergence would mean batching (or journaling) changed the outputs,
        # not just the speed.  Service *order* legitimately differs (batch
        # size changes the round-robin interleaving), so compare per
        # request id.
        reference = sorted(transcripts["sequential"][-1], key=lambda r: r["request_id"])
        for policy in POLICIES:
            by_id = sorted(transcripts[policy][-1], key=lambda r: r["request_id"])
            if by_id != reference:
                raise AssertionError(
                    f"sequential and {policy} scheduling produced different "
                    "responses for the same requests"
                )
        adapter_swap = _adapter_swap_bench(llm, scale, Path(root), load.seed)
        adapter_format = _adapter_format_bench(llm, scale, Path(root))

    sharding = _shard_bench(llm, scale)

    rates = {policy: [NUM_REQUESTS / s for s in seconds[policy]] for policy in POLICIES}
    medians, iqrs = summarize(rates)
    speedup, speedup_iqr = spread(per_round(rates["batched"], rates["per_turn"]))
    # Fraction of batched throughput lost to journaling (can be slightly
    # negative from timing noise when the journal is effectively free).
    overhead, overhead_iqr = spread(
        [1.0 - ratio for ratio in per_round(rates["journaled"], rates["batched"])], 4
    )
    summary = {
        "benchmark": "serving_throughput",
        "num_users": NUM_USERS,
        "num_requests": NUM_REQUESTS,
        "max_batch_size": BATCHED_MAX_BATCH,
        "repeats": rounds,
        "blas_threads": blas_threads(),
        "model": {
            "dim": llm.config.dim,
            "num_layers": llm.config.num_layers,
            "num_heads": llm.config.num_heads,
            "max_seq_len": llm.config.max_seq_len,
        },
        "requests_per_sec": medians,
        "requests_per_sec_iqr": iqrs,
        "batched_speedup_over_per_turn": speedup,
        "batched_speedup_over_per_turn_iqr": speedup_iqr,
        "journal_overhead": overhead,
        "journal_overhead_iqr": overhead_iqr,
        "adapter_swap_ms": adapter_swap,
        "adapter_format": adapter_format,
        "sharding": sharding,
    }
    return summary


def test_serving_throughput():
    """Batched multi-user decode must be ≥2× per-turn decode rounds."""
    summary = run_benchmark()
    rates = summary["requests_per_sec"]
    print(
        f"\n[Serving] req/sec (median of {summary['repeats']}) — per-turn "
        f"{rates['per_turn']}, batched {rates['batched']} "
        f"({summary['batched_speedup_over_per_turn']}x), sequential "
        f"{rates['sequential']}, journaled {rates['journaled']} "
        f"({100 * summary['journal_overhead']:.1f}% overhead); "
        f"adapter swap cold {summary['adapter_swap_ms']['cold']} ms / "
        f"warm {summary['adapter_swap_ms']['warm']} ms"
    )
    fmt = summary["adapter_format"]
    shard = summary["sharding"]
    print(
        f"[Serving] adapter format (median of {fmt['repeats']}) — binary cold "
        f"{fmt['binary_cold_us']} us, warm mmap {fmt['warm_mmap_us']} us "
        f"({fmt['mmap_speedup_over_cold']}x over cold); "
        f"sharded digests match: {shard['digests_match']}"
    )
    assert summary["batched_speedup_over_per_turn"] >= REQUIRED_SPEEDUP
    assert fmt["mmap_speedup_over_cold"] >= REQUIRED_MMAP_SPEEDUP
    assert shard["digests_match"], "aggregate digest changed with worker count"


if __name__ == "__main__":
    result = run_benchmark()
    write_summary(result, RESULT_NAME)
    print(json.dumps(result, indent=2))
