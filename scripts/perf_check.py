#!/usr/bin/env python
"""Decode-, training-, serving- and front-end-throughput regression gate.

Runs the smoke-scale generation benchmark (``benchmarks/bench_generation.py``)
and, per flag, the serving, training and front-end benchmarks.  Each times
its cases interleaved, round by round (``benchmarks/timing.py``), and every
gate reads medians (a ratio, the median of its per-round ratios).  Before
numpy loads, ``OPENBLAS_NUM_THREADS`` defaults to ``1``.

* Always: kv-cached decode ≥5× the full-forward reference.  Without
  ``--ratio-only``, each decode path must also stay within ``TOLERANCE``
  (20%) of the committed ``BENCH_generation_baseline.json``, and kv-cached
  decode ``REQUIRED_DECODE_UPLIFT``× above it (the baseline holds the
  *pre-backend* seed numbers, so a change that gives the speedup back fails
  instead of ratcheting the baseline down).
* ``--serving``: batched multi-user serving ≥2× ``per_turn`` serving (each
  turn's batch decoded alone, as before cross-adapter decode rounds).
* ``--chaos-overhead``: request journaling (``docs/robustness.md``) costs at
  most 10% of batched serving throughput.
* ``--sharding``: the transcript digest is byte-identical at every worker
  count and a warm-mmap A1 adapter load ≥2× a cold A1 read, always; the
  ≥1.8× tokens/sec scaling at 4 workers only when the bench-recorded
  ``cpu_count`` is at least 4.  The serving flags share one benchmark run.
* ``--training``: the fused LoRA fine-tune step ≥2× the in-run legacy
  replica and, without ``--ratio-only``, ≥2× faster than the committed
  ``BENCH_training_baseline.json`` seconds.
* ``--frontend``: every socket-driven boot gives the same transcript
  digest, always; without ``--ratio-only``, throughput and p99 latency
  against the committed ``BENCH_frontend_baseline.json``, with generous
  bounds because runners vary.

Run as ``PYTHONPATH=src python scripts/perf_check.py [flags]``.  Every
benchmark's summary is written to ``runs/perf/BENCH_<name>.json``
(gitignored), so a gate run leaves the tree clean.  ``--update``, run on
the reference machine, also writes each benchmark it ran to the committed
``benchmarks/BENCH_<name>.json`` and, with ``--frontend``, rewrites
``BENCH_frontend_baseline.json``; it skips the absolute comparisons, which
it reads no baseline for.  ``BENCH_generation_baseline.json`` and
``BENCH_training_baseline.json`` are the hand-kept seed references the
uplift gates divide by: no flag rewrites them.  ``--ratio-only`` skips
every machine-dependent absolute comparison (use on other machines, e.g.
CI).  Baselines are validated before any benchmark runs.

Exit codes: 0 pass, 1 throughput regression, 2 bad arguments (argparse),
3 baseline file missing, 4 baseline file malformed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before anything imports numpy

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from timing import RUNS_DIR, write_summary  # noqa: E402

BENCH_DIR = REPO_ROOT / "benchmarks"
BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_generation_baseline.json"
TRAINING_BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_training_baseline.json"
FRONTEND_BASELINE_PATH = REPO_ROOT / "benchmarks" / "BENCH_frontend_baseline.json"

PATHS_CHECKED = ("full_forward", "kv_cached", "batched")
# Maximum allowed fractional regression per decode path (absolute mode).
TOLERANCE = 0.2

# Guarantees of the fused-kernel backend (see module docstring).
REQUIRED_KV_SPEEDUP = 5.0
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


def load_baseline(path: Path, required: Sequence[str]) -> dict:
    """The baseline JSON at ``path``; every dotted ``required`` key must be positive.

    Raises :class:`FileNotFoundError` when the file is absent and
    :class:`BaselineError` (with a human-readable reason) when its content
    cannot be interpreted, so the caller can report each case distinctly
    instead of surfacing a traceback.
    """
    try:
        payload = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BaselineError(f"not valid JSON ({error})") from error
    for key_path in required:
        value = payload
        for key in key_path.split("."):
            if not isinstance(value, dict) or key not in value:
                raise BaselineError(f"missing {key_path!r}")
            value = value[key]
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise BaselineError(f"{key_path!r} is not a number ({value!r})") from None
        if not number > 0.0:
            raise BaselineError(f"{key_path!r} must be positive, got {number}")
    return payload


def record(summary: dict, name: str, update: bool = False) -> None:
    """Write ``summary`` to ``RUNS_DIR/name`` and, only with ``update``, to ``BENCH_DIR/name``."""
    write_summary(summary, name, RUNS_DIR)
    if update:
        write_summary(summary, name, BENCH_DIR)


def _iqr(pair, scale: float = 1.0) -> str:
    return f"IQR {pair[0] * scale:g}–{pair[1] * scale:g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for flag, text in (
        (
            "--update",
            "also write the committed benchmarks/BENCH_<name>.json summaries (and the "
            "front-end baseline) from the current run",
        ),
        ("--ratio-only", "skip the machine-dependent absolute comparisons"),
        ("--serving", "also enforce the 2x batched-over-per-turn serving speedup"),
        (
            "--chaos-overhead",
            "also enforce that request journaling costs at most "
            f"{MAX_JOURNAL_OVERHEAD:.0%}% of batched serving throughput",
        ),
        (
            "--sharding",
            "also gate digest parity across worker counts, the warm-mmap adapter "
            "speedup and, on >=4-core machines, the 4-worker scaling floor",
        ),
        (
            "--training",
            f"also enforce the >={REQUIRED_FINETUNE_SPEEDUP:.0f}x fused-over-legacy "
            "LoRA fine-tune step speedup",
        ),
        (
            "--frontend",
            "also enforce socket front-end digest stability and, unless "
            "--ratio-only, throughput/p99 against BENCH_frontend_baseline.json",
        ),
    ):
        parser.add_argument(flag, action="store_true", help=text)
    args = parser.parse_args()

    # Validate the baselines *before* spending a minute on the benchmarks,
    # and report each failure mode distinctly instead of a traceback.
    required = {BASELINE_PATH: [f"tokens_per_sec.{path}" for path in PATHS_CHECKED]}
    if args.training:
        required[TRAINING_BASELINE_PATH] = ["seconds.finetune_step", "seconds.pretrain_epoch"]
    if args.frontend:
        required[FRONTEND_BASELINE_PATH] = ["requests_per_sec", "latency_ms.p50", "latency_ms.p99"]
    baselines = {}
    for path, keys in ({} if args.update else required).items():
        try:
            baselines[path] = load_baseline(path, keys)
        except FileNotFoundError:
            print(
                f"ERROR: baseline file missing: {path}\n"
                "Restore the committed file (the front-end baseline can also be "
                "rewritten with `python scripts/perf_check.py --update --frontend` "
                "on the reference machine).",
                file=sys.stderr,
            )
            return EXIT_BASELINE_MISSING
        except BaselineError as error:
            print(
                f"ERROR: baseline file malformed: {path}: {error}\n"
                "Restore the committed file.",
                file=sys.stderr,
            )
            return EXIT_BASELINE_MALFORMED

    from bench_generation import run_benchmark

    summary = run_benchmark()
    record(summary, "BENCH_generation.json", args.update)
    current = summary["tokens_per_sec"]
    print(f"measured tokens/sec (median of {summary['repeats']} rounds):", json.dumps(current))
    # The absolute comparisons read the committed baselines, which --update does not load.
    absolute = not (args.ratio_only or args.update)

    failures = []

    def gate(name: str, ok: bool, line: str) -> None:
        print(f"  {line} {'ok' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(name)

    def ratio_gate(name, label, value, iqr, bound, at_most=False):
        """Gate a median of per-round ratios on ``bound``."""
        ok = value <= bound if at_most else value >= bound
        rule = "allowed <=" if at_most else "required >="
        gate(name, ok, f"{label}: {value:g} ({_iqr(iqr)}; {rule} {bound:g})")

    if not absolute:
        print("  (absolute-throughput comparison skipped)")
    else:
        baseline = baselines[BASELINE_PATH]["tokens_per_sec"]
        for path in PATHS_CHECKED:
            reference, measured = float(baseline[path]), float(current[path])
            floor = reference * (1.0 - TOLERANCE)
            gate(
                path,
                measured >= floor,
                f"{path:<14} {measured:>10.1f} vs baseline {reference:>10.1f} (floor {floor:.1f})",
            )
        uplift = float(current["kv_cached"]) / float(baseline["kv_cached"])
        gate(
            "kv_cached_uplift",
            uplift >= REQUIRED_DECODE_UPLIFT,
            f"kv_cached uplift over seed baseline: {uplift:.2f}x "
            f"(required >= {REQUIRED_DECODE_UPLIFT:.1f}x)",
        )
    ratio_gate(
        "kv_cached_speedup", "kv_cached over full_forward",
        summary["speedup_over_full_forward"]["kv_cached"],
        summary["speedup_over_full_forward_iqr"]["kv_cached"], REQUIRED_KV_SPEEDUP,
    )

    if args.serving or args.chaos_overhead or args.sharding:
        from bench_serving import (
            REQUIRED_MMAP_SPEEDUP,
            REQUIRED_SHARD_SCALING,
            REQUIRED_SPEEDUP,
            SHARD_WORKER_COUNTS,
            run_benchmark as run_serving_benchmark,
        )

        serving = run_serving_benchmark()
        record(serving, "BENCH_serving.json", args.update)
        rates, iqrs = serving["requests_per_sec"], serving["requests_per_sec_iqr"]
        print(
            f"serving req/sec, median of {serving['repeats']} rounds: "
            + ", ".join(f"{name} {rates[name]} ({_iqr(iqrs[name])})" for name in rates)
        )
        if args.serving:
            ratio_gate(
                "serving_batched_speedup", "batched over per_turn",
                serving["batched_speedup_over_per_turn"],
                serving["batched_speedup_over_per_turn_iqr"], REQUIRED_SPEEDUP,
            )
        if args.chaos_overhead:
            ratio_gate(
                "journal_overhead", "journal overhead (1 - journaled / batched)",
                serving["journal_overhead"], serving["journal_overhead_iqr"],
                MAX_JOURNAL_OVERHEAD, at_most=True,
            )
        if args.sharding:
            shard, fmt = serving["sharding"], serving["adapter_format"]
            print(
                f"sharding ({shard['num_users']} users, {shard['mode']} mode, "
                f"{shard['cpu_count']} cpus, median of {shard['repeats']} rounds): "
                + ", ".join(
                    f"{count}w {figures['tokens_per_sec']} tok/s "
                    f"({_iqr(figures['tokens_per_sec_iqr'])}, p99 {figures['p99_latency_ms']} ms)"
                    for count, figures in shard["workers"].items()
                )
                + f"; adapter load (median of {fmt['repeats']}): warm mmap "
                f"{fmt['warm_mmap_us']} us, cold {fmt['binary_cold_us']} us"
            )
            # Structural, machine-independent, enforced always: topology must
            # not change behaviour, and the binary format must earn its keep.
            gate("sharding_digest_parity", shard["digests_match"], "digests match across workers:")
            ratio_gate(
                "adapter_mmap_speedup", "cold A1 load over warm mmap load",
                fmt["mmap_speedup_over_cold"], fmt["mmap_speedup_over_cold_iqr"],
                REQUIRED_MMAP_SPEEDUP,
            )
            max_workers = max(SHARD_WORKER_COUNTS)
            scaling = (shard["scaling_at_max_workers"], shard["scaling_at_max_workers_iqr"])
            if int(shard["cpu_count"]) >= max_workers:
                ratio_gate(
                    "sharding_scaling", f"tokens/sec at {max_workers} workers over 1",
                    *scaling, REQUIRED_SHARD_SCALING,
                )
            else:
                print(
                    f"  ({max_workers}-worker scaling floor skipped: machine has "
                    f"{shard['cpu_count']} cpus, measured {scaling[0]}x)"
                )

    if args.training:
        from bench_training import run_benchmark as run_training_benchmark

        training = run_training_benchmark()
        record(training, "BENCH_training.json", args.update)
        seconds, iqrs = training["seconds"], training["seconds_iqr"]
        print(
            f"training (median of {training['repeats']} rounds): finetune_step "
            f"{seconds['finetune_step'] * 1e3:.2f} ms ({_iqr(iqrs['finetune_step'], 1e3)}); "
            f"pretrain_epoch {seconds['pretrain_epoch'] * 1e3:.1f} ms "
            f"({training['speedup_over_legacy']['pretrain_epoch']}x over legacy)"
        )
        # Machine-independent: the benchmark's in-run legacy replica.
        ratio_gate(
            "finetune_step_speedup", "finetune_step, legacy over fused",
            training["speedup_over_legacy"]["finetune_step"],
            training["speedup_over_legacy_iqr"]["finetune_step"], REQUIRED_FINETUNE_SPEEDUP,
        )
        if not absolute:
            print("  (absolute training comparison skipped)")
        else:
            # Absolute: the committed pre-backend seconds (reference machine).
            seed = float(baselines[TRAINING_BASELINE_PATH]["seconds"]["finetune_step"])
            ceiling = seed / REQUIRED_FINETUNE_SPEEDUP
            gate(
                "finetune_step_absolute",
                float(seconds["finetune_step"]) <= ceiling,
                f"finetune_step {seconds['finetune_step'] * 1e3:.2f} ms vs seed "
                f"{seed * 1e3:.2f} ms (ceiling {ceiling * 1e3:.2f} ms)",
            )

    if args.frontend:
        from bench_frontend import run_benchmark as run_frontend_benchmark

        frontend = run_frontend_benchmark()
        record(frontend, "BENCH_frontend.json", args.update)
        if args.update:
            FRONTEND_BASELINE_PATH.write_text(json.dumps(frontend, indent=2) + "\n")
            print(f"frontend baseline written to {FRONTEND_BASELINE_PATH}")
        throughput = float(frontend["requests_per_sec"])
        p99 = float(frontend["latency_ms"]["p99"])
        print(
            f"frontend: {throughput} req/sec (median of {frontend['repeats']} boots, "
            f"{_iqr(frontend['requests_per_sec_iqr'])}) over {frontend['num_users']} "
            f"socket clients; p50 {frontend['latency_ms']['p50']} ms / p99 {p99} ms"
        )
        # Structural (machine-independent, enforced even under --ratio-only):
        # every socket-driven boot must produce the same transcript digest.
        gate("frontend_digest_stability", frontend["digest_stable"], "digest stable across boots:")
        if not absolute:
            print("  (absolute frontend comparison skipped)")
        else:
            reference = baselines[FRONTEND_BASELINE_PATH]
            floor = float(reference["requests_per_sec"]) * FRONTEND_THROUGHPUT_FLOOR_FRACTION
            ceiling = float(reference["latency_ms"]["p99"]) * FRONTEND_P99_CEILING_FACTOR
            gate(
                "frontend_throughput",
                throughput >= floor,
                f"throughput {throughput:.1f} vs baseline "
                f"{float(reference['requests_per_sec']):.1f} req/sec (floor {floor:.1f})",
            )
            gate(
                "frontend_p99_latency",
                p99 <= ceiling,
                f"p99 {p99:.1f} ms vs baseline "
                f"{float(reference['latency_ms']['p99']):.1f} ms (ceiling {ceiling:.1f} ms)",
            )

    if failures:
        print(f"FAIL: throughput regressed: {', '.join(failures)}")
        return EXIT_REGRESSION
    print("PASS: throughput within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
