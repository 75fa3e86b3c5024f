"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload chat_fleet --seeds 1-10

Runs ``run.py`` once per seed, one after another, and prints for every
end-to-end metric its median and its quartile spread — (Q3 − Q1) / median
with the quartiles of ``statistics.quantiles(values, n=4)`` — beside the
metric's bound from ``BENCHMARK.json``.  A spread above a third of the
bound is flagged: the benchmark is meant to stay well inside its bounds.
Exits 1 when a run fails or is not correct, or when a spread (``setup_s``
excepted) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    """``1-10`` or ``3,5,8`` (or a mix: ``1-3,7``)."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: Dict[str, List[float]] = {}
    ok = True
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()),
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    for metric in spec["end_to_end"]:
        samples = values.get(metric["name"], [])
        if len(samples) < 2:
            continue
        spread = quartile_spread(samples)
        flag = "ok"
        if spread > metric["bound"] / 3:
            flag = "above a third of the bound"
        if spread > metric["bound"] and metric["name"] != "setup_s":
            flag = "ABOVE THE BOUND"
            ok = False
        print(f"{metric['name']:<18} median {statistics.median(samples):12.6g} "
              f"{metric['unit']:<6} spread {spread:.3f} (bound {metric['bound']}) {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
