"""The unified experiment runner CLI.

One entrypoint drives every registered experiment through the pipeline
engine, with JSON artifacts and full-state checkpoints per run::

    repro run figure2 --scale smoke --out runs/fig2-smoke
    repro run table3 --scale smoke --dataset meddialog --bins 2,4,8
    repro list

Also reachable as ``python -m repro ...`` and ``python -m repro.experiments
...`` (the module form works straight from a source checkout with
``PYTHONPATH=src``; the ``repro`` console script is installed by
``pip install -e .``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.experiments.presets import ExperimentScale  # noqa: F401  (docs/type reference)
from repro.utils.logging import enable_console_logging


def _csv_strings(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> List[int]:
    try:
        return [int(item) for item in _csv_strings(text)]
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {error}")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified runner for the paper-reproduction experiments.",
    )
    subparsers = parser.add_subparsers(dest="command")

    run = subparsers.add_parser(
        "run",
        help="run one registered experiment and write its artifacts",
        description=(
            "Run one experiment (figure2/figure3/table2/table3/table4) at the "
            "chosen scale; writes result.json, run.json and per-run engine "
            "checkpoints under --out."
        ),
    )
    run.add_argument("experiment", help="registered experiment name (see `repro list`)")
    run.add_argument(
        "--scale",
        default=None,
        help="scale preset: smoke / small / paper (default: $REPRO_SCALE or small)",
    )
    run.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    run.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="run directory for JSON artifacts + checkpoints "
        "(default runs/<experiment>-<scale>-seed<seed>; use --no-artifacts to skip)",
    )
    run.add_argument(
        "--no-artifacts",
        action="store_true",
        help="do not write any files; print the result only",
    )
    run.add_argument(
        "--datasets",
        type=_csv_strings,
        default=None,
        help="comma-separated dataset analogues (figure2/table2/table4)",
    )
    run.add_argument(
        "--dataset", default=None, help="single dataset analogue (figure3/table3)"
    )
    run.add_argument(
        "--methods",
        type=_csv_strings,
        default=None,
        help="comma-separated selection methods",
    )
    run.add_argument("--method", default=None, help="single selection method (figure3)")
    run.add_argument(
        "--num-seeds",
        type=int,
        default=None,
        help="framework-seed repetitions to average over",
    )
    run.add_argument(
        "--counts",
        type=_csv_ints,
        default=None,
        help="comma-separated synthesis counts (figure3)",
    )
    run.add_argument(
        "--bins",
        type=_csv_ints,
        default=None,
        dest="bins_list",
        help="comma-separated buffer bin counts (table3)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress progress logging")

    subparsers.add_parser(
        "list",
        help="list the registered experiments",
        description="List every experiment the `run` subcommand accepts.",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a synthetic multi-user load over one shared base model",
        description=(
            "Run the multi-tenant serving smoke: N users share one frozen base "
            "model, each with a persisted LoRA adapter; a deterministic "
            "synthetic load of chat + personalize requests is scheduled in "
            "same-adapter batches.  Prints throughput, adapter-swap and "
            "cache statistics plus the transcript digest; writes "
            "serve_result.json and the adapter files under --out."
        ),
    )
    serve.add_argument("--users", type=int, default=8, help="number of tenants (default 8)")
    serve.add_argument(
        "--requests", type=int, default=64, help="total requests in the load (default 64)"
    )
    serve.add_argument(
        "--scale",
        default=None,
        help="scale preset: smoke / small / paper (default: $REPRO_SCALE or small)",
    )
    serve.add_argument("--seed", type=int, default=0, help="load + model seed (default 0)")
    serve.add_argument(
        "--dataset", default="meddialog", help="dataset analogue for the load (default meddialog)"
    )
    serve.add_argument(
        "--personalize-every",
        type=int,
        default=8,
        help="every k-th request of a user is a personalize/fine-tune job (default 8)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="max chat requests of one user per turn (default 8)",
    )
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=4,
        help="adapters held in the in-memory LRU cache (default 4)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard users across N shared-nothing workers behind a "
        "consistent-hash router (forked processes where available, threads "
        "otherwise); the transcript digest is identical for any N "
        "(default 1: one worker thread)",
    )
    serve.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="run directory for serve_result.json + adapter files; any adapters "
        "from a previous run there are reset so a rerun is deterministic "
        "(default runs/serve-<scale>-seed<seed>; use --no-artifacts to skip)",
    )
    serve.add_argument(
        "--no-artifacts",
        action="store_true",
        help="do not write any files; print the report only",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable-serving state (request journal + per-user checkpoints); "
        "enables crash-safe replay (default <out>/state when --chaos/--resume)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing journal in --state-dir: finished requests are "
        "skipped, committed fine-tunes roll forward, the rest re-serves",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="inject a deterministic fault schedule (store I/O errors, a corrupt "
        "adapter file, a slow session, a soft crash) derived from --seed",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=3,
        help="max attempts for transient failures (capped exponential backoff "
        "with deterministic jitter; 1 disables retrying; default 3)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request latency deadline; overdue work dead-letters "
        "(default: none)",
    )
    serve.add_argument(
        "--pretrain-epochs",
        type=int,
        default=None,
        help="override the scale preset's base-model pre-training epochs "
        "(chaos smoke uses 1 to keep restarts fast)",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress progress logging")
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve over a real TCP socket instead of a synthetic load: start "
        "the asyncio front-end (newline-delimited JSON protocol; port 0 "
        "binds an ephemeral port) and run until SIGINT/SIGTERM or a "
        "client's shutdown op drains it",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="with --listen: write the bound port here once the socket is "
        "live (how CI discovers a --listen 127.0.0.1:0 server)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="with --listen: record every admitted request to a replayable "
        "trace file (see `repro replay`)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="with --listen: max accepted-but-unfinished requests before "
        "clients get busy frames (default 64)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="with --listen: max in-flight requests per user before busy "
        "frames (default 4)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a rolling JSON metrics snapshot here every "
        "--metrics-interval seconds while serving (see docs/observability.md)",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between --metrics-out snapshots (default 1.0)",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip metrics export: no metrics.json, no metrics key in "
        "serve_result.json (collection itself is always on and digest-neutral)",
    )

    replay_cmd = subparsers.add_parser(
        "replay",
        help="replay a recorded serve trace against a fresh server",
        description=(
            "Boot a fresh front-end server from the configuration recorded in "
            "TRACE, re-drive the recorded per-user request streams over real "
            "sockets, and compare the resulting transcript digest against the "
            "recorded one.  Exits 0 on a byte-identical digest, 1 on a "
            "mismatch, 2 when the trace is missing/malformed."
        ),
    )
    replay_cmd.add_argument("trace", help="trace file recorded with `repro serve --trace-out`")
    replay_cmd.add_argument(
        "--pretrain-epochs",
        type=int,
        default=None,
        help="override the recorded base-model pre-training epochs",
    )
    replay_cmd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write a JSON comparison report here",
    )
    replay_cmd.add_argument("--quiet", action="store_true", help="suppress progress logging")

    return parser


def _collect_options(spec_options: Sequence[str], args: argparse.Namespace) -> dict:
    """CLI flags -> runner kwargs, keeping only what the experiment accepts."""
    candidates = {
        "datasets": args.datasets,
        "dataset": args.dataset,
        "methods": args.methods,
        "method": args.method,
        "num_seeds": args.num_seeds,
        "counts": args.counts,
        "bins_list": args.bins_list,
    }
    options = {}
    for name, value in candidates.items():
        if value is None:
            continue
        if name not in spec_options:
            raise ValueError(
                f"experiment {args.experiment!r} does not accept --"
                f"{name.replace('_list', '').replace('_', '-')} "
                f"(accepted options: {sorted(set(spec_options) - {'run_dir'})})"
            )
        options[name] = value
    return options


def _command_list() -> int:
    from repro.experiments.registry import experiment_names, get_experiment

    for name in experiment_names():
        spec = get_experiment(name)
        print(f"{name:<10} {spec.title}")
        print(f"{'':<10} {spec.description}")
    return 0


def _usage_error(error: Exception) -> int:
    """Report a bad argument value as one ``error:`` line; exit status 2."""
    message = error.args[0] if isinstance(error, KeyError) and error.args else error
    print(f"error: {message}", file=sys.stderr)
    return 2


def _command_run(args: argparse.Namespace) -> int:
    # The experiment registry loads every runner module, so only `run` and
    # `list` import it: a `serve` boot compiles none of them.
    from repro.experiments.registry import get_experiment, resolve_run, run_experiment

    # Every argument is checked here, before any work or directory creation.
    try:
        options = _collect_options(get_experiment(args.experiment).options, args)
        spec, scale = resolve_run(args.experiment, args.scale, args.seed, **options)
    except (KeyError, ValueError) as error:
        return _usage_error(error)
    if not args.quiet:
        enable_console_logging()

    if args.no_artifacts and args.out is not None:
        print(
            "error: --out and --no-artifacts contradict each other "
            "(--no-artifacts writes nothing, including checkpoints)",
            file=sys.stderr,
        )
        return 2
    out_dir = args.out
    if out_dir is None and not args.no_artifacts:
        out_dir = f"runs/{args.experiment}-{scale.name}-seed{args.seed}"

    run = run_experiment(args.experiment, scale=scale, seed=args.seed, out_dir=out_dir, **options)
    print(f"== {spec.title} (scale={run.scale}, seed={run.seed}) ==")
    print(spec.formatter(run.result))
    print(f"\ncompleted in {run.seconds:.1f}s")
    if run.artifacts:
        for kind, path in sorted(run.artifacts.items()):
            print(f"{kind}: {path}")
        print(f"checkpoints: {run.run_dir / 'checkpoints'}")
    return 0


def _prepare_serve_dirs(config, default_name: str, allow_temp_state: bool = True):
    """Resolve the run/adapter/state directories for one serve invocation.

    Returns ``(config, out_path, temporary_state)`` with the resolved paths
    filled into the config.  Adapter and state directories left over from a
    previous run into the same ``--out`` are reset (unless resuming) so a
    rerun is deterministic.  A durable run with no run directory gets its
    state in a temporary directory when ``allow_temp_state`` (the synthetic
    load paths); the socket front-end skips that — with no ``--out`` it just
    serves non-durably.
    """
    import shutil
    import tempfile
    from pathlib import Path

    scale = config.resolved_scale()
    out_dir = config.out_dir
    if out_dir is None and not config.no_artifacts:
        out_dir = Path(f"runs/{default_name}-{scale.name}-seed{config.seed}")
    adapter_dir = None
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        adapter_dir = out_path / "adapters"
        if adapter_dir.exists() and not config.resume:
            shutil.rmtree(adapter_dir)

    temporary_state = None
    state_dir = config.state_dir
    if config.durable and state_dir is None:
        if out_path is not None:
            state_dir = out_path / "state"
        elif allow_temp_state:
            temporary_state = tempfile.TemporaryDirectory(prefix="repro-serve-state-")
            state_dir = Path(temporary_state.name) / "state"
    if state_dir is not None and state_dir.exists() and not config.resume:
        shutil.rmtree(state_dir)

    config = config.with_(out_dir=out_path, adapter_dir=adapter_dir, state_dir=state_dir)
    return config, out_path, temporary_state


def _write_metrics_snapshot(out_path, metrics) -> None:
    """Write the drained run's metrics next to serve_result.json."""
    if metrics is None:
        return
    from repro.obs import write_snapshot
    from repro.serve.config import METRICS_FILE

    path = out_path / METRICS_FILE
    write_snapshot(path, metrics)
    print(f"metrics: {path}")


def _command_replay(args: argparse.Namespace) -> int:
    if not args.quiet:
        enable_console_logging()

    import json
    from pathlib import Path

    from repro.experiments.presets import get_scale
    from repro.serve.client import replay_trace_against
    from repro.serve.config import ServeConfig
    from repro.serve.frontend import FrontendThread, ServeFrontend
    from repro.serve.loadgen import LoadConfig
    from repro.serve.trace import TraceError, load_trace

    try:
        trace = load_trace(args.trace)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if trace.dropped_records:
        print(
            f"error: trace has {trace.dropped_records} corrupt record(s); "
            "refusing to replay against a damaged expectation",
            file=sys.stderr,
        )
        return 2
    if trace.digest is None:
        print(
            "error: trace has no summary digest (recorder was killed before "
            "the run drained); nothing to verify against",
            file=sys.stderr,
        )
        return 2

    meta = trace.meta
    seed = int(meta.get("seed", 0))
    pretrain_epochs = args.pretrain_epochs
    if pretrain_epochs is None:
        recorded = meta.get("pretrain_epochs")
        pretrain_epochs = None if recorded is None else int(recorded)
    config = ServeConfig(
        load=LoadConfig(dataset=meta.get("dataset", "meddialog"), seed=seed),
        scale=get_scale(meta.get("scale"), seed=seed),
        pretrain_epochs=pretrain_epochs,
        max_batch_size=int(meta.get("max_batch_size", 8)),
    )
    server = FrontendThread(ServeFrontend(config))
    host, port = server.start()
    print(f"replaying {len(trace.requests)} request(s) against {host}:{port}")
    try:
        replay_trace_against(host, port, trace)
    finally:
        outcome = server.stop()
    match = outcome.transcript_digest == trace.digest
    print(f"recorded digest: {trace.digest}")
    print(f"replayed digest: {outcome.transcript_digest}")
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(
                {
                    "trace": str(args.trace),
                    "requests": len(trace.requests),
                    "recorded_digest": trace.digest,
                    "replayed_digest": outcome.transcript_digest,
                    "match": match,
                },
                indent=2,
            )
            + "\n"
        )
    if not match:
        print("error: replay diverged from the recorded run", file=sys.stderr)
        return 1
    print("replay matches the recorded run")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.config import ServeConfig
    from repro.serve.frontend import ServeFrontend
    from repro.serve.runner import run_serve
    from repro.serve.shard import ShardPoolError

    # The one place serve argv becomes configuration; everything below (and
    # every entry point) reads the typed config.
    try:
        config = ServeConfig.from_args(args)
    except (KeyError, ValueError) as error:
        return _usage_error(error)
    if not args.quiet:
        enable_console_logging()
    listening = config.listen is not None
    if not listening:
        for flag, name in (
            (config.port_file, "--port-file"),
            (config.trace_out, "--trace-out"),
        ):
            if flag is not None:
                print(f"error: {name} requires --listen", file=sys.stderr)
                return 2
        if config.no_artifacts and config.out_dir is not None:
            print(
                "error: --out and --no-artifacts contradict each other "
                "(--no-artifacts writes nothing, including adapter files)",
                file=sys.stderr,
            )
            return 2
    # The socket front-end with no --out just serves non-durably.
    config, out_path, temporary_state = _prepare_serve_dirs(
        config, "serve-frontend" if listening else "serve", allow_temp_state=not listening
    )
    try:
        if listening:
            outcome = ServeFrontend(config).run()
        else:
            outcome = run_serve(config)
    except ShardPoolError as error:
        print(f"error: {error}", file=sys.stderr)
        if config.state_dir is not None and temporary_state is None:
            print(
                f"the shard journals under {config.state_dir} are intact; "
                "rerun with --resume to recover",
                file=sys.stderr,
            )
        return 1
    finally:
        if temporary_state is not None:
            temporary_state.cleanup()
    return _report_serve(config, outcome, out_path)


def _report_serve(config, outcome, out_path) -> int:
    """Print one serve outcome and write its artifacts (every topology)."""
    import json

    scale = config.resolved_scale()
    title = "serve front-end" if outcome.listen else "multi-tenant serve"
    print(f"== {title} (scale={scale.name}, seed={config.seed}, workers={config.workers}) ==")
    where = f" on {outcome.listen}" if outcome.listen else ""
    print(
        f"served {outcome.total_requests} requests "
        f"({outcome.chat_requests} chat / {outcome.personalize_requests} personalize) "
        f"for {outcome.num_users} users{where}"
    )
    print(
        f"throughput: {outcome.requests_per_sec:.2f} req/s "
        f"({outcome.elapsed_seconds:.1f}s total)"
    )
    sharded = len(outcome.shards) > 1
    for shard in outcome.shards:
        store = shard["store"]
        print(
            f"  shard {shard['index']:02d}: {shard['served']} served for "
            f"{len(shard['users'])} user(s); adapter cache hit rate {store['hit_rate']:.2f} "
            f"({store['evictions']} evictions, {store['disk_loads']} disk loads, "
            f"{store['disk_writes']} disk writes)"
        )
        if sharded and shard["journal_digest"] is not None:
            print(f"  shard {shard['index']:02d} journal digest: {shard['journal_digest']}")
    print(f"transcript digest: {outcome.transcript_digest}")
    if outcome.busy_rejections:
        print(
            f"backpressure: {outcome.busy_rejections} busy refusal(s), "
            f"peak depth {outcome.max_queue_depth_seen}"
        )
    if outcome.retries or outcome.dead_letter_requests or outcome.degraded_chat_requests:
        print(
            f"robustness: {outcome.retries} retries, "
            f"{outcome.degraded_chat_requests} degraded chats, "
            f"{outcome.dead_letter_requests} dead-lettered"
        )
    health = {}
    for shard in outcome.shards:
        for name, item in shard["health"].items():
            health[f"shard{shard['index']:02d}.{name}" if sharded else name] = item
    if health:
        print("health: " + ", ".join(f"{name}={item['state']}" for name, item in health.items()))
        for name, item in health.items():
            for reason in item.get("reasons", []):
                print(f"  [{name}] {reason}")
    if outcome.restarts:
        print(f"crash recovery: {outcome.restarts} in-process restart(s)")
    if outcome.replayed_requests:
        print(f"crash recovery: {outcome.replayed_requests} fine-tune(s) rolled forward")
    reports = [shard["faults"] for shard in outcome.shards if shard["faults"] is not None]
    if reports:
        injected = {}
        for report in reports:
            for name, count in report["injected"].items():
                injected[name] = injected.get(name, 0) + count
        summary = ", ".join(f"{name}×{count}" for name, count in sorted(injected.items()))
        print(f"faults injected: {summary or 'none'}")
    if outcome.journal_digest is not None:
        print(f"journal digest: {outcome.journal_digest}")
    if config.trace_out is not None:
        print(f"trace: {config.trace_out}")
    if out_path is not None:
        result_path = out_path / "serve_result.json"
        payload = outcome.to_dict()
        payload["scale"] = scale.name
        payload["seed"] = config.seed
        payload["workers"] = config.workers
        if outcome.listen:
            payload["load"] = None  # socket traffic has no synthetic load
        else:
            payload["load"] = {
                "num_users": config.load.num_users,
                "num_requests": config.load.num_requests,
                "dataset": config.load.dataset,
                "personalize_every": config.load.personalize_every,
            }
        result_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"result: {result_path}")
        if config.adapter_dir is not None:
            print(f"adapters: {config.adapter_dir}")
        _write_metrics_snapshot(out_path, outcome.metrics)
    if outcome.all_dead_lettered:
        print(
            "error: every request dead-lettered — the serving layer made no "
            "progress (check the health reasons above)",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro``, ``python -m repro`` and the tests."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "replay":
        return _command_replay(args)
    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
