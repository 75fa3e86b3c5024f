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
from repro.experiments.registry import (
    experiment_names,
    get_experiment,
    run_experiment,
)
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
        help="max same-adapter chat requests decoded in one batch (default 8)",
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
        "otherwise); the aggregate transcript digest is identical for any N "
        "(default 1: the single-scheduler path)",
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

    migrate = subparsers.add_parser(
        "migrate-adapters",
        help="convert legacy pickle adapter files to the A1 binary format",
        description=(
            "One-shot store migration: every *.adapter.pkl in DIR is decoded, "
            "re-encoded as a checksummed A1 binary record (*.adapter.bin), "
            "verified bit-identical against the pickle payload, and only then "
            "replaces it.  Users that already have a binary record are "
            "skipped; undecodable pickles are reported and left in place.  "
            "Exits 0 when every adapter migrated (or was already migrated), "
            "1 when any failed, 2 when DIR does not exist.  Sharded adapter "
            "roots are migrated per shard: run once per shard-NN directory."
        ),
    )
    migrate.add_argument("directory", help="adapter directory holding *.adapter.pkl files")
    migrate.add_argument(
        "--keep-pickles",
        action="store_true",
        help="leave the legacy pickle files in place next to the new binary "
        "records (default: delete each pickle once its record verifies)",
    )
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
            raise SystemExit(
                f"error: experiment {args.experiment!r} does not accept --"
                f"{name.replace('_list', '').replace('_', '-')} "
                f"(accepted options: {sorted(set(spec_options) - {'run_dir'})})"
            )
        options[name] = value
    return options


def _command_list() -> int:
    for name in experiment_names():
        spec = get_experiment(name)
        print(f"{name:<10} {spec.title}")
        print(f"{'':<10} {spec.description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if not args.quiet:
        enable_console_logging()
    try:
        spec = get_experiment(args.experiment)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    options = _collect_options(spec.options, args)

    if args.no_artifacts and args.out is not None:
        print(
            "error: --out and --no-artifacts contradict each other "
            "(--no-artifacts writes nothing, including checkpoints)",
            file=sys.stderr,
        )
        return 2
    out_dir = args.out
    scale_name = args.scale
    if out_dir is None and not args.no_artifacts:
        from repro.experiments.presets import get_scale

        resolved = get_scale(scale_name, seed=args.seed)
        out_dir = f"runs/{args.experiment}-{resolved.name}-seed{args.seed}"

    run = run_experiment(
        args.experiment,
        scale=scale_name,
        seed=args.seed,
        out_dir=out_dir,
        **options,
    )
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


def _command_serve_frontend(config) -> int:
    """The ``repro serve --listen`` path: a real TCP server until drained."""
    import json

    from repro.serve.frontend import ServeFrontend

    scale = config.resolved_scale()
    config, out_path, _ = _prepare_serve_dirs(config, "serve-frontend", allow_temp_state=False)
    try:
        frontend = ServeFrontend(config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    outcome = frontend.run()
    print(f"== serve front-end (scale={scale.name}, seed={config.seed}) ==")
    print(
        f"served {outcome.total_requests} request(s) "
        f"({outcome.chat_requests} chat / {outcome.personalize_requests} personalize) "
        f"for {outcome.num_users} user(s) on {outcome.host}:{outcome.port}"
    )
    print(
        f"throughput: {outcome.requests_per_sec:.2f} req/s "
        f"({outcome.elapsed_seconds:.1f}s listening)"
    )
    if outcome.busy_rejections:
        print(
            f"backpressure: {outcome.busy_rejections} busy refusal(s), "
            f"peak depth {outcome.max_queue_depth_seen}"
        )
    if outcome.dead_letter_requests or outcome.degraded_chat_requests:
        print(
            f"robustness: {outcome.degraded_chat_requests} degraded chats, "
            f"{outcome.dead_letter_requests} dead-lettered"
        )
    if outcome.replayed_requests:
        print(f"crash recovery: {outcome.replayed_requests} fine-tune(s) rolled forward")
    print(f"transcript digest: {outcome.transcript_digest}")
    if outcome.journal_digest is not None:
        print(f"journal digest: {outcome.journal_digest}")
    if config.trace_out is not None:
        print(f"trace: {config.trace_out}")
    if out_path is not None:
        result_path = out_path / "serve_result.json"
        payload = outcome.to_dict()
        payload["scale"] = scale.name
        payload["seed"] = config.seed
        result_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"result: {result_path}")
        _write_metrics_snapshot(out_path, outcome.metrics)
    if outcome.all_dead_lettered:
        print(
            "error: every request dead-lettered — the serving layer made no "
            "progress (dead-letter frames were delivered before close)",
            file=sys.stderr,
        )
        return 3
    return 0


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


def _normalized_aggregate_digest(transcript) -> str:
    """The sharded-run digest computed from a single-scheduler transcript.

    Normalizes each entry to its per-user sequence number (request ids are
    arrival-order noise) and composes per-user digests exactly as the shard
    layer does, so ``--workers 1`` output is byte-comparable with any
    ``--workers N`` run of the same load (see docs/scaling.md).
    """
    from repro.serve.runner import normalize_entry
    from repro.serve.shard import aggregate_transcript_digest

    seqs: dict = {}
    normalized = []
    for entry in sorted(transcript, key=lambda record: record["request_id"]):
        seq = seqs.get(entry["user_id"], 0)
        seqs[entry["user_id"]] = seq + 1
        normalized.append(normalize_entry(entry, seq))
    return aggregate_transcript_digest(normalized)


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.config import ServeConfig

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if not args.quiet:
        enable_console_logging()
    # The one place serve argv becomes configuration; everything below (and
    # every entry point) reads the typed config.
    config = ServeConfig.from_args(args)
    if config.listen is not None:
        return _command_serve_frontend(config)
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
    if config.workers > 1:
        return _command_serve_sharded(config)

    import json

    from repro.serve import run_serve

    scale = config.resolved_scale()
    config, out_path, temporary_state = _prepare_serve_dirs(config, "serve")
    try:
        outcome = run_serve(config)
    finally:
        if temporary_state is not None:
            temporary_state.cleanup()
    report = outcome.report
    print(f"== multi-tenant serve (scale={scale.name}, seed={config.seed}) ==")
    print(
        f"served {report.total_requests} requests "
        f"({report.chat_requests} chat / {report.personalize_requests} personalize) "
        f"for {report.num_users} users in {report.num_turns} turns"
    )
    print(
        f"throughput: {report.requests_per_sec:.2f} req/s "
        f"({report.elapsed_seconds:.1f}s total)"
    )
    print(
        f"adapter swaps: {report.swap['count']} "
        f"(mean {report.swap['mean_ms']:.2f} ms, max {report.swap['max_ms']:.2f} ms)"
    )
    print(
        f"adapter cache: hit rate {report.store['hit_rate']:.2f} "
        f"({report.store['evictions']} evictions, "
        f"{report.store['disk_loads']} disk loads, "
        f"{report.store['disk_writes']} disk writes)"
    )
    print(f"transcript digest: {report.transcript_digest}")
    aggregate_digest = _normalized_aggregate_digest(outcome.transcript)
    print(f"aggregate transcript digest: {aggregate_digest}")
    if report.retries or report.dead_letter_requests or report.degraded_chat_requests:
        print(
            f"robustness: {report.retries} retries, "
            f"{report.degraded_chat_requests} degraded chats, "
            f"{report.dead_letter_requests} dead-lettered"
        )
    if report.health:
        summary = ", ".join(
            f"{item['component']}={item['state']}" for item in report.health.values()
        )
        print(f"health: {summary}")
        for item in report.health.values():
            for reason in item.get("reasons", []):
                print(f"  [{item['component']}] {reason}")
    if outcome.restarts:
        print(f"crash recovery: {outcome.restarts} in-process restart(s)")
    if outcome.replayed_requests:
        print(f"crash recovery: {outcome.replayed_requests} fine-tune(s) rolled forward")
    if outcome.faults is not None:
        injected = ", ".join(
            f"{name}×{count}" for name, count in outcome.faults["injected"].items()
        )
        print(f"faults injected: {injected or 'none'}")
    if outcome.journal_digest is not None:
        print(f"journal digest: {outcome.journal_digest}")
    if out_path is not None:
        result_path = out_path / "serve_result.json"
        payload = report.to_dict()
        payload["scale"] = scale.name
        payload["seed"] = config.seed
        payload["load"] = {
            "num_users": config.load.num_users,
            "num_requests": config.load.num_requests,
            "dataset": config.load.dataset,
            "personalize_every": config.load.personalize_every,
        }
        payload["transcript"] = outcome.transcript
        payload["aggregate_digest"] = aggregate_digest
        payload["journal_digest"] = outcome.journal_digest
        payload["restarts"] = outcome.restarts
        payload["replayed_requests"] = outcome.replayed_requests
        payload["faults"] = outcome.faults
        result_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"result: {result_path}")
        print(f"adapters: {config.adapter_dir}")
        _write_metrics_snapshot(out_path, outcome.metrics)
    if report.total_requests > 0 and report.dead_letter_requests == report.total_requests:
        print(
            "error: every request dead-lettered — the serving layer made no "
            "progress (check the health reasons above)",
            file=sys.stderr,
        )
        return 3
    return 0


def _command_serve_sharded(config) -> int:
    """The ``repro serve --workers N`` path: consistent-hash sharded serving."""
    import json

    from repro.serve.shard import ShardPoolError, run_serve_sharded

    scale = config.resolved_scale()
    config, out_path, temporary_state = _prepare_serve_dirs(config, "serve")
    try:
        outcome = run_serve_sharded(config)
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
    print(
        f"== sharded multi-tenant serve (scale={scale.name}, seed={config.seed}, "
        f"workers={outcome.num_workers}, mode={outcome.mode}) =="
    )
    print(
        f"served {outcome.total_requests} requests for "
        f"{len(outcome.user_digests)} users across {outcome.num_workers} shard(s)"
    )
    print(
        f"throughput: {outcome.requests_per_sec:.2f} req/s "
        f"({outcome.elapsed_seconds:.1f}s total)"
    )
    for summary in outcome.shard_summaries:
        print(
            f"  shard {summary['index']:02d}: {summary['served']} served "
            f"for {len(summary['users'])} user(s)"
        )
    print(f"aggregate transcript digest: {outcome.aggregate_digest}")
    if outcome.dead_letter_requests or outcome.degraded_chat_requests:
        print(
            f"robustness: {outcome.degraded_chat_requests} degraded chats, "
            f"{outcome.dead_letter_requests} dead-lettered"
        )
    if outcome.restarts:
        print(f"crash recovery: {outcome.restarts} in-shard restart(s)")
    if outcome.replayed_requests:
        print(f"crash recovery: {outcome.replayed_requests} fine-tune(s) rolled forward")
    if out_path is not None:
        result_path = out_path / "serve_result.json"
        payload = outcome.to_dict()
        payload["scale"] = scale.name
        payload["seed"] = config.seed
        payload["load"] = {
            "num_users": config.load.num_users,
            "num_requests": config.load.num_requests,
            "dataset": config.load.dataset,
            "personalize_every": config.load.personalize_every,
        }
        # The single-scheduler result key, so digest-comparing tooling can
        # read either shape without caring about --workers.
        payload["transcript_digest"] = outcome.aggregate_digest
        result_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"result: {result_path}")
        print(f"adapters: {config.adapter_dir}")
        _write_metrics_snapshot(out_path, outcome.metrics)
    if outcome.all_dead_lettered:
        print(
            "error: every request dead-lettered — the serving layer made no "
            "progress (check the shard summaries above)",
            file=sys.stderr,
        )
        return 3
    return 0


def _command_migrate_adapters(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.serve.adapter_store import migrate_adapter_directory

    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    report = migrate_adapter_directory(directory, keep_pickles=args.keep_pickles)
    print(f"== adapter migration ({directory}) ==")
    print(
        f"migrated {len(report.migrated)}, skipped {len(report.skipped)} "
        f"(already binary), failed {len(report.failed)}"
    )
    for user_id in report.migrated:
        print(f"  migrated: {user_id}")
    for user_id, reason in report.failed:
        print(f"  FAILED {user_id}: {reason}", file=sys.stderr)
    return 0 if report.ok else 1


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
    if args.command == "migrate-adapters":
        return _command_migrate_adapters(args)
    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
