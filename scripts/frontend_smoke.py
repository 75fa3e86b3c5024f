#!/usr/bin/env python
"""CI smoke for the socket front-end: real server process, real TCP clients.

Boots ``python -m repro serve --listen 127.0.0.1:0`` as a genuine
subprocess (ephemeral port, discovered through ``--port-file``), drives a
deterministic multi-user workload over concurrent socket connections with
:mod:`repro.serve.client`, asks the server to drain via the ``shutdown``
op, and checks the whole contract end to end:

* the server exits 0 and writes ``serve_result.json``;
* every driven request completes (no dead letters at this scale);
* the digest the *clients* observed (``metrics`` frame) equals the digest
  the *server* reported (``serve_result.json``) — one truth, two vantage
  points;
* across ``--runs`` independent server boots the digest is byte-identical —
  the determinism guarantee of the serving layer, now enforced over real
  sockets and scheduling noise.

With ``--trace-out`` the first run records a replayable trace
(``repro replay`` verifies it; the nightly job does exactly that).  With
``--durable`` every server boots with ``--state-dir <run>/state``: the
journaled single-worker path, recovering through the same serving core as
``repro serve``.

Usage::

    PYTHONPATH=src python scripts/frontend_smoke.py --runs 2 --out artifacts/
    PYTHONPATH=src python scripts/frontend_smoke.py --runs 2 --durable --out artifacts/durable

Exit codes: 0 pass, 1 any check failed, 2 bad arguments (argparse).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import drive_load, fetch_stats, request_shutdown  # noqa: E402
from repro.serve.frontend import wait_for_port_file  # noqa: E402
from repro.serve.loadgen import LoadConfig  # noqa: E402


def boot_server(run_dir: Path, args: argparse.Namespace, trace_out: Path = None):
    """Start one real server subprocess; returns (process, port_file)."""
    port_file = run_dir / "port"
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        str(port_file),
        "--out",
        str(run_dir),
        "--scale",
        "smoke",
        "--seed",
        str(args.seed),
        "--max-batch",
        "4",
        "--quiet",
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if args.durable:
        command += ["--state-dir", str(run_dir / "state")]
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        f":{existing}" if existing else ""
    )
    log = (run_dir / "server.log").open("w")
    process = subprocess.Popen(
        command, stdout=log, stderr=subprocess.STDOUT, env=environment, cwd=REPO_ROOT
    )
    return process, port_file


def run_once(index: int, args: argparse.Namespace, out_dir: Path) -> dict:
    """One boot → drive → drain cycle; returns the run's summary."""
    run_dir = out_dir / f"run{index}"
    run_dir.mkdir(parents=True, exist_ok=True)
    trace_out = None
    if args.trace_out and index == 0:
        trace_out = Path(args.trace_out)
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    process, port_file = boot_server(run_dir, args, trace_out=trace_out)
    try:
        port = wait_for_port_file(port_file, timeout=args.timeout)
        load = LoadConfig(
            num_users=args.users,
            num_requests=args.requests,
            seed=args.seed,
            personalize_every=args.personalize_every,
        )
        started = time.perf_counter()
        outcomes = drive_load("127.0.0.1", port, load)
        drive_seconds = time.perf_counter() - started
        stats = fetch_stats("127.0.0.1", port)
        request_shutdown("127.0.0.1", port)
        exit_code = process.wait(timeout=args.timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    result_path = run_dir / "serve_result.json"
    server_result = json.loads(result_path.read_text()) if result_path.is_file() else {}
    return {
        "run": index,
        "exit_code": exit_code,
        "driven_requests": len(outcomes),
        "dead_letters": sum(1 for outcome in outcomes if outcome.dead_letter),
        "busy_retries": sum(outcome.busy_retries for outcome in outcomes),
        "drive_seconds": round(drive_seconds, 3),
        "client_digest": stats.get("transcript_digest"),
        "server_digest": server_result.get("transcript_digest"),
        "server_total_requests": server_result.get("total_requests"),
        "journal_digest": server_result.get("journal_digest"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=2, help="independent server boots")
    parser.add_argument("--users", type=int, default=3, help="concurrent users")
    parser.add_argument("--requests", type=int, default=12, help="total requests per run")
    parser.add_argument("--seed", type=int, default=0, help="workload + model seed")
    parser.add_argument(
        "--personalize-every", type=int, default=4,
        help="every Nth request of a user personalizes",
    )
    parser.add_argument(
        "--out", default="artifacts/frontend", help="directory for run artifacts"
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="record run 0 to this replayable trace file",
    )
    parser.add_argument(
        "--durable",
        action="store_true",
        help="boot each server with --state-dir <run>/state (journaled serving)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, help="per-phase timeout in seconds"
    )
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    failures = []
    for index in range(args.runs):
        summary = run_once(index, args, out_dir)
        runs.append(summary)
        print(json.dumps(summary, sort_keys=True))
        if summary["exit_code"] != 0:
            failures.append(f"run{index}: server exited {summary['exit_code']}")
        if summary["driven_requests"] != args.requests:
            failures.append(
                f"run{index}: drove {summary['driven_requests']}/{args.requests} requests"
            )
        if summary["dead_letters"]:
            failures.append(f"run{index}: {summary['dead_letters']} dead letter(s)")
        if args.durable and summary["journal_digest"] is None:
            failures.append(f"run{index}: durable server reported no journal digest")
        if summary["client_digest"] != summary["server_digest"]:
            failures.append(
                f"run{index}: client digest {summary['client_digest']} != "
                f"server digest {summary['server_digest']}"
            )

    digests = {summary["server_digest"] for summary in runs}
    if len(digests) != 1 or None in digests:
        failures.append(f"digest unstable across {args.runs} run(s): {sorted(map(str, digests))}")

    report = {
        "runs": runs,
        "digests": sorted(str(digest) for digest in digests),
        "stable": len(digests) == 1 and None not in digests,
        "failures": failures,
    }
    (out_dir / "smoke_summary.json").write_text(json.dumps(report, indent=2) + "\n")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"PASS: {args.runs} run(s), digest {next(iter(digests))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
