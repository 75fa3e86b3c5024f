"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chat_fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the workload twice in one process, untraced and then
traced; it prints the per-layer metrics and the tracing overhead (traced
minus untraced) of every end-to-end metric, and checks that tracing left
the outputs unchanged.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the full report
(environment stamp, output checks, named per-workload figures, per-layer
self times) goes to ``perfbench_out/<workload>-seed<n>-trace<t>/report.json``
and, when traced, the spans to ``spans.json`` beside it.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS threads for the benchmark and its server child, unless the caller
#: set them.  With OpenBLAS's default of one thread per core, batched decode
#: on the 2-core reference container swung 634–949 req/s between bursts of
#: identical work; single-threaded it held 539–572 req/s.
BLAS_THREADS = "1"
OUT_DIR = ROOT / "perfbench_out"
WORKLOADS = ("chat_fleet", "device_session", "paper_stream")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload(name: str):
    if name == "chat_fleet":
        import chat_fleet as module
    elif name == "device_session":
        import device_session as module
    else:
        import paper_stream as module
    return module.run


def _run_once(name: str, seed: int, seconds: float, workdir: Path, traced: bool):
    from tracer import Tracer

    import layers

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    run = _workload(name)
    if not traced:
        return run(seed, seconds, workdir)
    tracer = Tracer()
    layers.install(tracer)
    try:
        result = run(seed, seconds, workdir, tracer=tracer)
    finally:
        tracer.uninstall()
    result.spans = tracer.finished() + result.spans
    return result


def _check_metrics(values: Dict[str, float], declared: List[dict], kind: str) -> List[str]:
    problems = []
    names = {entry["name"] for entry in declared}
    if set(values) != names:
        problems.append(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(names - set(values))}, extra {sorted(set(values) - names)}"
        )
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{kind} metric {name} is not a finite number: {value!r}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {ROOT / 'src' / 'repro'}; run from a full checkout")
    try:
        spec = _load_spec()
    except (OSError, ValueError) as error:
        return _fail(f"cannot read BENCHMARK.json: {error}")
    # Before anything imports numpy; inherited by the server child.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)
    # One CPU for the benchmark and its server child: the host's speed
    # belongs to a CPU, and the host-speed kernel (hostspeed.py) must run
    # where the work runs.  The client of device_session waits while its
    # server works, so one CPU serves both.
    usable = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if usable:
        os.sched_setaffinity(0, usable[:1])
    sys.path.insert(0, str(ROOT / "src"))

    from common import environment_stamp
    from layers import per_layer_metrics
    from tracer import layer_table

    traced = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    untraced = _run_once(args.workload, args.seed, args.seconds, OUT_DIR / tag / "run", False)
    report = {
        "workload": args.workload,
        "environment": environment_stamp(ROOT, args.seed, traced, usable),
        "end_to_end": untraced.metrics,
        "checks": untraced.checks,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "detail": untraced.detail,
    }
    correct = untraced.correct
    attempted, failed = untraced.attempted, untraced.failed
    metrics = untraced.metrics
    declared = spec["end_to_end"]
    if traced:
        result = _run_once(args.workload, args.seed, args.seconds, OUT_DIR / tag / "traced", True)
        same_outputs = result.detail.get("transcript_digest") == untraced.detail.get(
            "transcript_digest"
        )
        report["traced"] = {
            "end_to_end": result.metrics,
            "checks": dict(result.checks, tracing_left_outputs_unchanged=same_outputs),
            "detail": result.detail,
            "overhead": {
                name: result.metrics[name] - untraced.metrics[name] for name in untraced.metrics
            },
            "layers": layer_table(result.spans),
        }
        correct = correct and result.correct and same_outputs
        attempted += result.attempted
        failed += result.failed
        metrics = per_layer_metrics(
            result.spans, state_mb=result.state_mb, client_failed=result.client_failed
        )
        declared = spec["per_layer"]
        (OUT_DIR / tag / "spans.json").write_text(
            json.dumps([span.to_dict() for span in result.spans]) + "\n"
        )
    problems = _check_metrics(metrics, declared, "per-layer" if traced else "end-to-end")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = correct and not problems
    report["correct"] = correct
    report["metrics"] = metrics
    (OUT_DIR / tag / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n")

    units = {entry["name"]: entry["unit"] for entry in declared}
    for name, value in sorted(untraced.metrics.items()):
        print(f"{args.workload} {name} = {value:.6g}")
    latency = untraced.detail["latency"]
    print(f"p50_ms and tail_ms ({latency['tail']}) over {latency['n']} {latency['of']} samples")
    for name, ok in sorted(report["checks"].items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if traced:
        for name, ok in sorted(report["traced"]["checks"].items()):
            print(f"check traced {name}: {'ok' if ok else 'FAILED'}")
        for name, delta in sorted(report["traced"]["overhead"].items()):
            print(f"tracing overhead {name}: {delta:+.6g}")
    print(f"report: {OUT_DIR / tag / 'report.json'}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
