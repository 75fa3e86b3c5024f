#!/usr/bin/env python
"""Decode- and serving-throughput regression gate.

Runs the smoke-scale generation benchmark (``benchmarks/bench_generation.py``)
and compares the measured tokens/sec against the committed baseline
(``benchmarks/BENCH_generation_baseline.json``).  Exits non-zero when any
decode path regresses by more than the allowed fraction (default 20%), so CI
catches changes that quietly slow the fast inference path down.

With ``--serving`` the multi-tenant serving benchmark
(``benchmarks/bench_serving.py``) runs too, and the gate additionally
enforces the machine-independent structural guarantee of the serving layer:
batched multi-user decode must stay at least 2x ahead of the sequential
per-user loop.

With ``--chaos-overhead`` the serving benchmark's journaled policy is
gated as well: request journaling (the crash-safety layer of
``docs/robustness.md``) must cost at most 10% of batched serving
throughput.  Both serving flags share one benchmark run when combined.

With ``--sharding`` the serving benchmark's scale-out sections are gated
(sharing the run with ``--serving``/``--chaos-overhead``): the aggregate
transcript digest must be byte-identical at every worker count and the
median warm-mmap A1 adapter load must stay ≥2x faster than the median cold
A1 read (``mmap_cache_capacity=0``) — both machine-independent, enforced
always.  The ≥1.8x tokens/sec scaling at 4 workers is only enforced when
the bench-recorded ``cpu_count`` is at least 4 (process workers cannot
speed up a box with nothing to run on).

With ``--training`` the training benchmark (``benchmarks/bench_training.py``)
runs too.  The fused-kernel backend promises a >=2x LoRA fine-tune step over
the pre-backend composition: enforced against the committed
``BENCH_training_baseline.json`` seconds (absolute, reference machine) and
against the benchmark's own in-run legacy replica (``speedup_over_legacy``,
machine-independent, also checked under ``--ratio-only``).

The committed generation baseline intentionally holds the *pre-backend* seed
numbers: the decode tentpole gate requires kv-cached decode to stay at least
``REQUIRED_DECODE_UPLIFT``x above it, so a change that quietly gives the
speedup back fails CI rather than ratcheting the baseline down.

With ``--frontend`` the socket front-end benchmark
(``benchmarks/bench_frontend.py``) runs too: digest stability across two
socket-driven runs is enforced unconditionally (machine-independent), and
sustained req/s plus p99 latency are gated against the committed
``BENCH_frontend_baseline.json`` (skipped under ``--ratio-only``; the
bounds are generous because CI runners vary).

Usage::

    PYTHONPATH=src python scripts/perf_check.py [--tolerance 0.2] [--update]
                                                [--serving] [--chaos-overhead]
                                                [--sharding] [--training]
                                                [--frontend] [--ratio-only]

``--update`` rewrites the baseline from the current run (use after an
intentional perf change, on the machine that produces the committed numbers).
Absolute throughput is machine-dependent; the committed baseline should be
refreshed whenever the reference machine changes.

Exit codes: 0 pass, 1 throughput regression, 2 bad arguments (argparse),
3 baseline file missing, 4 baseline file malformed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_generation_baseline.json"
TRAINING_BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_training_baseline.json"
FRONTEND_BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_frontend_baseline.json"

PATHS_CHECKED = ("full_forward", "kv_cached", "batched")

# Tentpole guarantees of the fused-kernel backend, measured against the
# committed pre-backend baselines (see module docstring).
REQUIRED_DECODE_UPLIFT = 2.5
REQUIRED_FINETUNE_SPEEDUP = 2.0

EXIT_REGRESSION = 1
# 2 is argparse's exit code for bad arguments; keep the new codes distinct.
EXIT_BASELINE_MISSING = 3
EXIT_BASELINE_MALFORMED = 4

# Journaling every request may cost at most this fraction of the batched
# serving throughput (machine-independent: both sides measured in-run).
MAX_JOURNAL_OVERHEAD = 0.10

# Socket front-end gates (--frontend).  The absolute bounds are generous —
# GitHub runners vary wildly — while the structural digest-stability check
# is exact and enforced even under --ratio-only.
FRONTEND_THROUGHPUT_FLOOR_FRACTION = 0.5
FRONTEND_P99_CEILING_FACTOR = 3.0


class BaselineError(ValueError):
    """The committed baseline file cannot be used."""


def load_baseline(path: Path) -> dict:
    """The ``tokens_per_sec`` mapping from the committed baseline.

    Raises :class:`FileNotFoundError` when the file is absent and
    :class:`BaselineError` (with a human-readable reason) when its content
    cannot be interpreted, so the caller can report each case distinctly
    instead of surfacing a traceback.
    """
    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise BaselineError(f"not valid JSON ({error})") from error
    if not isinstance(payload, dict) or "tokens_per_sec" not in payload:
        raise BaselineError("missing the 'tokens_per_sec' object")
    baseline = payload["tokens_per_sec"]
    if not isinstance(baseline, dict):
        raise BaselineError("'tokens_per_sec' is not an object")
    for decode_path in PATHS_CHECKED:
        if decode_path not in baseline:
            raise BaselineError(f"'tokens_per_sec' lacks the {decode_path!r} entry")
        try:
            value = float(baseline[decode_path])
        except (TypeError, ValueError):
            raise BaselineError(
                f"'tokens_per_sec.{decode_path}' is not a number "
                f"({baseline[decode_path]!r})"
            ) from None
        if value <= 0.0:
            raise BaselineError(f"'tokens_per_sec.{decode_path}' must be positive, got {value}")
    return baseline


def load_frontend_baseline(path: Path) -> dict:
    """The committed socket front-end baseline (throughput + latency)."""
    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise BaselineError(f"not valid JSON ({error})") from error
    if not isinstance(payload, dict):
        raise BaselineError("top level is not an object")
    try:
        throughput = float(payload.get("requests_per_sec"))
    except (TypeError, ValueError):
        raise BaselineError(
            f"'requests_per_sec' is not a number ({payload.get('requests_per_sec')!r})"
        ) from None
    if throughput <= 0.0:
        raise BaselineError(f"'requests_per_sec' must be positive, got {throughput}")
    latency = payload.get("latency_ms")
    if not isinstance(latency, dict):
        raise BaselineError("missing the 'latency_ms' object")
    for key in ("p50", "p99"):
        try:
            value = float(latency.get(key))
        except (TypeError, ValueError):
            raise BaselineError(
                f"'latency_ms.{key}' is not a number ({latency.get(key)!r})"
            ) from None
        if value <= 0.0:
            raise BaselineError(f"'latency_ms.{key}' must be positive, got {value}")
    return payload


def load_training_baseline(path: Path) -> dict:
    """The ``seconds`` mapping from the committed training baseline."""
    text = path.read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise BaselineError(f"not valid JSON ({error})") from error
    if not isinstance(payload, dict) or "seconds" not in payload:
        raise BaselineError("missing the 'seconds' object")
    seconds = payload["seconds"]
    if not isinstance(seconds, dict):
        raise BaselineError("'seconds' is not an object")
    for key in ("finetune_step", "pretrain_epoch"):
        try:
            value = float(seconds.get(key))
        except (TypeError, ValueError):
            raise BaselineError(f"'seconds.{key}' is not a number ({seconds.get(key)!r})") from None
        if value <= 0.0:
            raise BaselineError(f"'seconds.{key}' must be positive, got {value}")
    return seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="maximum allowed fractional regression per decode path (default 0.2)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the committed baseline from the current run",
    )
    parser.add_argument(
        "--ratio-only", action="store_true",
        help="skip the machine-dependent absolute-throughput comparison and "
             "enforce only the kv-cached-over-full-forward speedup ratio "
             "(use on machines slower than the baseline machine)",
    )
    parser.add_argument(
        "--serving", action="store_true",
        help="also run the multi-tenant serving benchmark and enforce the "
             "2x batched-over-sequential serving speedup",
    )
    parser.add_argument(
        "--chaos-overhead", action="store_true",
        help="also enforce that request journaling costs at most "
             f"{MAX_JOURNAL_OVERHEAD:.0%}% of batched serving throughput "
             "(runs the serving benchmark; shares the run with --serving)",
    )
    parser.add_argument(
        "--sharding", action="store_true",
        help="also gate the scale-out sections of the serving benchmark: "
             "digest parity across worker counts and the warm-mmap adapter "
             "speedup always; the 4-worker scaling floor only on >=4-core "
             "machines (runs the serving benchmark; shares the run with "
             "--serving/--chaos-overhead)",
    )
    parser.add_argument(
        "--training", action="store_true",
        help="also run the training benchmark and enforce the "
             f">={REQUIRED_FINETUNE_SPEEDUP:.0f}x fused-over-legacy LoRA "
             "fine-tune step speedup",
    )
    parser.add_argument(
        "--frontend", action="store_true",
        help="also run the socket front-end benchmark: digest stability is "
             "enforced always; throughput/p99 are gated against "
             "BENCH_frontend_baseline.json unless --ratio-only",
    )
    args = parser.parse_args()

    # Validate the baselines *before* spending a minute on the benchmarks,
    # and report each failure mode distinctly instead of a traceback.
    baseline = None
    training_baseline = None
    frontend_baseline = None
    if not args.update:
        try:
            checked_path = BASELINE_PATH
            baseline = load_baseline(BASELINE_PATH)
            if args.training:
                checked_path = TRAINING_BASELINE_PATH
                training_baseline = load_training_baseline(TRAINING_BASELINE_PATH)
            if args.frontend:
                checked_path = FRONTEND_BASELINE_PATH
                frontend_baseline = load_frontend_baseline(FRONTEND_BASELINE_PATH)
        except FileNotFoundError:
            print(
                f"ERROR: baseline file missing: {checked_path}\n"
                "Run `python scripts/perf_check.py --update` on the reference "
                "machine to create it.",
                file=sys.stderr,
            )
            return EXIT_BASELINE_MISSING
        except BaselineError as error:
            print(
                f"ERROR: baseline file malformed: {checked_path}: {error}\n"
                "Restore the committed file or regenerate it with "
                "`python scripts/perf_check.py --update`.",
                file=sys.stderr,
            )
            return EXIT_BASELINE_MALFORMED

    from bench_generation import run_benchmark

    summary = run_benchmark()
    current = summary["tokens_per_sec"]
    print("measured tokens/sec:", json.dumps(current))

    if args.update:
        BASELINE_PATH.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        if args.frontend:
            from bench_frontend import run_benchmark as run_frontend_benchmark

            frontend_summary = run_frontend_benchmark()
            FRONTEND_BASELINE_PATH.write_text(
                json.dumps(frontend_summary, indent=2) + "\n"
            )
            print(f"frontend baseline written to {FRONTEND_BASELINE_PATH}")
        return 0

    print("baseline tokens/sec:", json.dumps(baseline))

    failures = []
    if args.ratio_only:
        print("  (absolute-throughput comparison skipped: --ratio-only)")
    else:
        for path in PATHS_CHECKED:
            reference = float(baseline[path])
            measured = float(current[path])
            floor = reference * (1.0 - args.tolerance)
            status = "ok" if measured >= floor else "REGRESSED"
            print(f"  {path:<14} {measured:>10.1f} vs baseline {reference:>10.1f} "
                  f"(floor {floor:.1f}) {status}")
            if measured < floor:
                failures.append(path)
        # Tentpole: the fused decode path must hold its uplift over the
        # committed pre-backend seed numbers (machine-dependent, so skipped
        # under --ratio-only like the other absolute comparisons).
        uplift = float(current["kv_cached"]) / float(baseline["kv_cached"])
        print(
            f"  kv_cached uplift over seed baseline: {uplift:.2f}x "
            f"(required >= {REQUIRED_DECODE_UPLIFT:.1f}x)"
        )
        if uplift < REQUIRED_DECODE_UPLIFT:
            failures.append("kv_cached_uplift")

    # The structural guarantee is machine-independent: cached decode must
    # stay well ahead of the full-forward reference path.
    kv_speedup = float(current["kv_cached"]) / float(current["full_forward"])
    print(f"  kv_cached speedup over full_forward: {kv_speedup:.2f}x (required >= 5.0x)")
    if kv_speedup < 5.0:
        failures.append("kv_cached_speedup")

    if args.serving or args.chaos_overhead or args.sharding:
        from bench_serving import (
            REQUIRED_MMAP_SPEEDUP,
            REQUIRED_SHARD_SCALING,
            REQUIRED_SPEEDUP,
            SHARD_WORKER_COUNTS,
            run_benchmark as run_serving_benchmark,
        )

        serving = run_serving_benchmark()
        rates = serving["requests_per_sec"]
        if args.serving:
            speedup = float(serving["batched_speedup"])
            print(
                f"serving req/sec: sequential {rates['sequential']}, "
                f"batched {rates['batched']} "
                f"({speedup:.2f}x, required >= {REQUIRED_SPEEDUP:.1f}x); "
                f"adapter swap cold {serving['adapter_swap_ms']['cold']} ms / "
                f"warm {serving['adapter_swap_ms']['warm']} ms"
            )
            if speedup < REQUIRED_SPEEDUP:
                failures.append("serving_batched_speedup")
        if args.chaos_overhead:
            overhead = float(serving["journal_overhead"])
            print(
                f"journal overhead: batched {rates['batched']} vs journaled "
                f"{rates['journaled']} req/sec — {overhead:.1%} "
                f"(allowed <= {MAX_JOURNAL_OVERHEAD:.0%})"
            )
            if overhead > MAX_JOURNAL_OVERHEAD:
                failures.append("journal_overhead")
        if args.sharding:
            shard = serving["sharding"]
            fmt = serving["adapter_format"]
            per_workers = shard["workers"]
            max_workers = str(max(SHARD_WORKER_COUNTS))
            rates = ", ".join(
                f"{count}w {per_workers[str(count)]['tokens_per_sec']} tok/s "
                f"(p99 {per_workers[str(count)]['p99_latency_ms']} ms)"
                for count in SHARD_WORKER_COUNTS
            )
            print(
                f"sharding ({shard['num_users']} users, {shard['mode']} mode, "
                f"{shard['cpu_count']} cpus): {rates}; digests match: "
                f"{shard['digests_match']}"
            )
            # Structural, machine-independent, enforced always: topology must
            # not change behaviour, and the binary format must earn its keep.
            if not shard["digests_match"]:
                failures.append("sharding_digest_parity")
            mmap_speedup = float(fmt["mmap_speedup_over_cold"])
            print(
                f"  adapter format (median of {fmt['repeats']}): warm mmap "
                f"{fmt['warm_mmap_us']} us (IQR {fmt['warm_mmap_iqr_us']}) vs cold "
                f"{fmt['binary_cold_us']} us (IQR {fmt['binary_cold_iqr_us']}) — "
                f"{mmap_speedup:.2f}x (required >= {REQUIRED_MMAP_SPEEDUP:.1f}x)"
            )
            if mmap_speedup < REQUIRED_MMAP_SPEEDUP:
                failures.append("adapter_mmap_speedup")
            scaling = float(shard["scaling_at_max_workers"])
            if int(shard["cpu_count"]) >= max(SHARD_WORKER_COUNTS):
                status = "ok" if scaling >= REQUIRED_SHARD_SCALING else "REGRESSED"
                print(
                    f"  scaling at {max_workers} workers: {scaling:.2f}x "
                    f"(required >= {REQUIRED_SHARD_SCALING:.1f}x) {status}"
                )
                if scaling < REQUIRED_SHARD_SCALING:
                    failures.append("sharding_scaling")
            else:
                print(
                    f"  ({max_workers}-worker scaling floor skipped: machine has "
                    f"{shard['cpu_count']} cpus, measured {scaling:.2f}x)"
                )

    if args.training:
        from bench_training import run_benchmark as run_training_benchmark

        training = run_training_benchmark()
        seconds = training["seconds"]
        ratios = training["speedup_over_legacy"]
        # Machine-independent: the benchmark's in-run legacy replica.
        print(
            f"training: finetune_step {seconds['finetune_step']*1e3:.2f} ms "
            f"({ratios['finetune_step']:.2f}x over legacy, required >= "
            f"{REQUIRED_FINETUNE_SPEEDUP:.1f}x); pretrain_epoch "
            f"{seconds['pretrain_epoch']*1e3:.1f} ms "
            f"({ratios['pretrain_epoch']:.2f}x over legacy)"
        )
        if float(ratios["finetune_step"]) < REQUIRED_FINETUNE_SPEEDUP:
            failures.append("finetune_step_speedup")
        if args.ratio_only:
            print("  (absolute training comparison skipped: --ratio-only)")
        else:
            # Absolute: the committed pre-backend seconds (reference machine).
            ceiling = float(training_baseline["finetune_step"]) / REQUIRED_FINETUNE_SPEEDUP
            status = "ok" if float(seconds["finetune_step"]) <= ceiling else "REGRESSED"
            print(
                f"  finetune_step {seconds['finetune_step']*1e3:.2f} ms vs seed "
                f"{float(training_baseline['finetune_step'])*1e3:.2f} ms "
                f"(ceiling {ceiling*1e3:.2f} ms) {status}"
            )
            if float(seconds["finetune_step"]) > ceiling:
                failures.append("finetune_step_absolute")

    if args.frontend:
        from bench_frontend import run_benchmark as run_frontend_benchmark

        frontend = run_frontend_benchmark()
        throughput = float(frontend["requests_per_sec"])
        p99 = float(frontend["latency_ms"]["p99"])
        print(
            f"frontend: {throughput} req/sec over {frontend['num_users']} socket "
            f"clients; p50 {frontend['latency_ms']['p50']} ms / p99 {p99} ms; "
            f"digest stable: {frontend['digest_stable']}"
        )
        # Structural (machine-independent, enforced even under --ratio-only):
        # two socket-driven runs must produce identical transcript digests.
        if not frontend["digest_stable"]:
            failures.append("frontend_digest_stability")
        if args.ratio_only:
            print("  (absolute frontend comparison skipped: --ratio-only)")
        else:
            floor = float(frontend_baseline["requests_per_sec"]) * (
                FRONTEND_THROUGHPUT_FLOOR_FRACTION
            )
            ceiling = float(frontend_baseline["latency_ms"]["p99"]) * (
                FRONTEND_P99_CEILING_FACTOR
            )
            status = "ok" if throughput >= floor else "REGRESSED"
            print(
                f"  throughput {throughput:.1f} vs baseline "
                f"{float(frontend_baseline['requests_per_sec']):.1f} req/sec "
                f"(floor {floor:.1f}) {status}"
            )
            if throughput < floor:
                failures.append("frontend_throughput")
            status = "ok" if p99 <= ceiling else "REGRESSED"
            print(
                f"  p99 {p99:.1f} ms vs baseline "
                f"{float(frontend_baseline['latency_ms']['p99']):.1f} ms "
                f"(ceiling {ceiling:.1f} ms) {status}"
            )
            if p99 > ceiling:
                failures.append("frontend_p99_latency")

    if failures:
        print(f"FAIL: throughput regressed: {', '.join(failures)}")
        return EXIT_REGRESSION
    print("PASS: throughput within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
