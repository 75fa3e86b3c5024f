"""Benchmark F1 — socket front-end throughput, tail latency and determinism.

Boots the asyncio TCP front-end (:mod:`repro.serve.frontend`) in a
background thread over one shared pre-trained base model and drives a
chat-only workload with ``NUM_USERS`` concurrent socket clients, one
connection per user.  Measures, over real sockets:

* sustained requests/sec across the whole driven load;
* per-request latency (connect-to-``done``, token stream included) —
  p50 / p99 / mean across all clients;
* determinism: the server boots ``ROUNDS`` times (after one warm-up
  boot) from identical model state (runtime snapshot restored before each
  boot) and every normalized transcript digest must be byte-identical —
  the record/replay guarantee measured under benchmark concurrency rather
  than test-sized loads.

Throughput is the median over the boots (``timing.interleave``), recorded
with its interquartile range; each boot times only the drive, not the
server's start and drain.  Latency percentiles are nearest-rank over every
request of every timed boot.  The summary is gated by
``scripts/perf_check.py --frontend`` (throughput and p99 against the
committed ``BENCH_frontend_baseline.json``), which, like a direct run,
writes it to ``runs/perf/BENCH_frontend.json``.
Run directly (``python benchmarks/bench_frontend.py``) or through pytest.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List

from repro.experiments.presets import get_scale
from repro.serve import ServeConfig
from repro.serve.client import ServeClient
from repro.serve.frontend import FrontendThread, ServeFrontend
from repro.serve.loadgen import LoadConfig, build_serving_llm, generate_load
from timing import blas_threads, interleave, percentile, spread, write_summary

RESULT_NAME = "BENCH_frontend.json"

NUM_USERS = 4
NUM_REQUESTS = 32
MAX_BATCH = 8
ROUNDS = 5


async def _drive_user_timed(
    host: str, port: int, user_id: str, questions: List[str]
) -> List[float]:
    """Drive one user's questions in order; returns per-request seconds."""
    latencies: List[float] = []
    async with ServeClient(host, port) as client:
        await client.connect(user_id)
        for question in questions:
            start = time.perf_counter()
            result = await client.chat(question)
            latencies.append(time.perf_counter() - start)
            assert not result.dead_letter, f"dead letter for {user_id}"
        await client.bye()
    return latencies


async def _drive_all(host: str, port: int, per_user: Dict[str, List[str]]):
    return await asyncio.gather(
        *(
            _drive_user_timed(host, port, user, questions)
            for user, questions in sorted(per_user.items())
        )
    )


def run_benchmark(rounds: int = ROUNDS) -> Dict[str, object]:
    """Measure the front-end under concurrent socket clients."""
    scale = get_scale("smoke", seed=0)
    load = LoadConfig(num_users=NUM_USERS, num_requests=NUM_REQUESTS, chat_only=True, seed=0)
    llm = build_serving_llm(scale, dataset=load.dataset, seed=load.seed)
    llm.add_lora()
    snapshot = llm.export_runtime_state()

    per_user: Dict[str, List[str]] = {}
    for request in generate_load(load):
        per_user.setdefault(request.user_id, []).append(request.question)

    def boot(lap):
        """One server boot + drive; returns request latencies and the digest."""
        llm.load_runtime_state(snapshot)
        config = ServeConfig(load=load, scale=scale, listen="127.0.0.1:0", max_batch_size=MAX_BATCH)
        server = FrontendThread(ServeFrontend(config, llm=llm))
        host, port = server.start()
        with lap:
            latencies_per_user = asyncio.run(_drive_all(host, port, per_user))
        latencies = [latency for user in latencies_per_user for latency in user]
        return latencies, server.stop().transcript_digest

    seconds, boots = interleave({"boot": boot}, rounds)
    rate, rate_iqr = spread([NUM_REQUESTS / elapsed for elapsed in seconds["boot"]])
    latencies = [latency for boot_latencies, _ in boots["boot"] for latency in boot_latencies]
    digests = [digest for _, digest in boots["boot"]]
    summary = {
        "benchmark": "frontend_throughput",
        "num_users": NUM_USERS,
        "num_requests": NUM_REQUESTS,
        "max_batch_size": MAX_BATCH,
        "repeats": rounds,
        "blas_threads": blas_threads(),
        "model": {
            "dim": llm.config.dim,
            "num_layers": llm.config.num_layers,
            "num_heads": llm.config.num_heads,
            "max_seq_len": llm.config.max_seq_len,
        },
        "requests_per_sec": rate,
        "requests_per_sec_iqr": rate_iqr,
        "latency_ms": {
            "p50": round(1e3 * percentile(latencies, 0.50), 3),
            "p99": round(1e3 * percentile(latencies, 0.99), 3),
            "mean": round(1e3 * sum(latencies) / len(latencies), 3),
            "max": round(1e3 * max(latencies), 3),
        },
        "digest_stable": len(set(digests)) == 1,
        "transcript_digest": digests[0],
    }
    return summary


def test_frontend_throughput():
    """Every socket-driven boot must serve everything and digest identically."""
    summary = run_benchmark()
    print(
        f"\n[Frontend] {summary['requests_per_sec']} req/sec over "
        f"{summary['num_users']} socket clients; latency p50 "
        f"{summary['latency_ms']['p50']} ms / p99 {summary['latency_ms']['p99']} ms; "
        f"digest stable: {summary['digest_stable']}"
    )
    assert summary["digest_stable"], "socket serving digest differed between runs"


if __name__ == "__main__":
    result = run_benchmark()
    write_summary(result, RESULT_NAME)
    print(json.dumps(result, indent=2))
