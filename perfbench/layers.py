"""Which public functions the traced run times, and the per-layer metrics.

:func:`install` wraps the functions of the layer table (see
``METRICS.md``) with :class:`~tracer.Tracer` spans.  It is used in the
benchmark process for the in-process workloads and, through
``launcher.py``, inside the ``repro serve`` child of ``device_session``.
:func:`per_layer_metrics` turns the collected spans into the named
per-layer metrics of ``BENCHMARK.json``.

The scheduler's turns are not a function of their own.  The wrapper on
``RequestScheduler.run`` chains the scheduler's public ``entry_listener``
to stamp when each request's entry is emitted, and after the run it
records one ``serve.scheduler.turn`` span per :class:`ServeTurn`, ending at
the turn's last emit and lasting the turn's own measured seconds.  Spans
the run's turns contain are moved under their turn.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from stats import percentile
from tracer import Span, Tracer, layer_table

# Span names of the scheduler and client layers (used by the analysis).
TURN = "serve.scheduler.turn"
SUBMIT = "serve.scheduler.submit"
RUN = "serve.scheduler.run"
SERVER_SPANS = {"client.chat": "serve.respond", "client.personalize": "serve.personalize"}
#: Benchmark phase whose scheduler turns are excluded from queue-wait
#: figures: everything in it is queued at t=0, so its waits measure the
#: burst size, not the scheduler.
BURST_PHASE = "bench.burst"


def _rows(span: Span, args, kwargs, result, token) -> None:
    questions = args[1] if len(args) > 1 else kwargs.get("questions", ())
    span.attrs["rows"] = len(questions)
    # The tokenizer is word-level, so response words are generated tokens.
    span.attrs["tokens"] = sum(len(response.split()) for response in result)


def _examples(span: Span, args, kwargs, result, token) -> None:
    span.attrs["examples"] = int(result.num_examples) * int(result.epochs)


def _accepted(span: Span, args, kwargs, result, token) -> None:
    span.attrs["accepted"] = int(bool(result.accepted))


def _swap(span: Span, args, kwargs, result, token) -> None:
    span.attrs["swap"] = int(result > 0.0)


def _user(span: Span, args, kwargs, result, token) -> None:
    span.attrs["user"] = args[1] if len(args) > 1 else kwargs.get("user_id")


def _hits_before(args, kwargs) -> int:
    return args[0].stats.hits


def _hit(span: Span, args, kwargs, result, token) -> None:
    span.attrs["hit"] = int(args[0].stats.hits > token)


def _submitted(span: Span, args, kwargs, result, token) -> None:
    span.request = str(result.request_id)


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer table."""
    from repro.core.checkpoint import CheckpointManager
    from repro.core.engine import PipelineEngine
    from repro.eval.rouge_eval import ResponseEvaluator
    from repro.llm.finetune import LoRAFineTuner
    from repro.llm.model import OnDeviceLLM
    from repro.serve.adapter_store import LoRAAdapterStore
    from repro.serve.journal import RequestJournal
    from repro.serve.scheduler import RequestScheduler
    from repro.serve.session import SessionManager

    # Import the modules that bind ``build_pretrained_llm`` by name before
    # patching, so their references are found and wrapped too.
    import repro.experiments.common  # noqa: F401
    import repro.serve.loadgen  # noqa: F401

    # ``repro.llm.pretrain`` is also a function re-exported by ``repro.llm``,
    # so the module is taken from the import system, not by attribute.
    pretrain = importlib.import_module("repro.llm.pretrain")
    tracer.wrap(pretrain, "build_pretrained_llm", "llm.pretrain")
    tracer.wrap(OnDeviceLLM, "respond_batch", "llm.respond_batch", annotate=_rows)
    # Selectors embed one text at a time through ``token_embeddings``
    # (``embed_text`` delegates to it); ``embed_batch`` is the batched form.
    tracer.wrap(OnDeviceLLM, "token_embeddings", "llm.embed")
    tracer.wrap(OnDeviceLLM, "embed_batch", "llm.embed")
    tracer.wrap(LoRAFineTuner, "finetune", "llm.finetune", annotate=_examples)
    tracer.wrap(PipelineEngine, "select", "core.select", annotate=_accepted)
    tracer.wrap(PipelineEngine, "annotate", "core.annotate")
    tracer.wrap(PipelineEngine, "synthesize", "core.synthesize")
    tracer.wrap(PipelineEngine, "evaluate", "core.evaluate")
    tracer.wrap(CheckpointManager, "save", "core.checkpoint")
    tracer.wrap(SessionManager, "attach", "serve.attach", annotate=_swap)
    tracer.wrap(SessionManager, "respond", "serve.respond", annotate=_user)
    tracer.wrap(SessionManager, "personalize", "serve.personalize", annotate=_user)
    tracer.wrap(LoRAAdapterStore, "get", "serve.store.get", before=_hits_before, annotate=_hit)
    tracer.wrap(LoRAAdapterStore, "put", "serve.store.put")
    tracer.wrap(LoRAAdapterStore, "flush", "serve.store.flush")
    for method in ("record_meta", "record_enqueue", "record_intent", "record_complete",
                   "record_dead_letter"):
        tracer.wrap(RequestJournal, method, "serve.journal")
    tracer.wrap(RequestScheduler, "submit", SUBMIT, annotate=_submitted)
    tracer.patch(RequestScheduler, "run", functools.partial(_wrap_run, tracer))
    tracer.wrap(ResponseEvaluator, "__call__", "eval")


def _wrap_run(tracer: Tracer, original):
    @functools.wraps(original)
    def run(self, *args, **kwargs):
        emitted: Dict[int, float] = {}
        listener = self.entry_listener

        def stamp(entry: dict) -> None:
            emitted[entry["request_id"]] = tracer.clock()
            if listener is not None:
                listener(entry)

        first_turn = len(self.turns)
        mark = tracer.mark()
        span = tracer.begin(RUN)
        self.entry_listener = stamp
        try:
            return original(self, *args, **kwargs)
        finally:
            self.entry_listener = listener
            tracer.end(span)
            _record_turns(tracer, span, self.turns[first_turn:], emitted, mark)

    return run


def _record_turns(tracer: Tracer, run_span: Span, turns, emitted, mark: int) -> None:
    """One span per finished turn; re-parent the run's children under them."""
    turn_spans: List[Span] = []
    for turn in turns:
        ends = [emitted[request_id] for request_id in turn.request_ids if request_id in emitted]
        if not ends:
            continue
        end = max(ends)
        turn_spans.append(
            tracer.add(
                TURN,
                max(run_span.start, end - turn.seconds),
                end,
                parent=run_span.id,
                request=",".join(str(request_id) for request_id in turn.request_ids),
                rows=turn.batch_size,
                kind=turn.kind,
                user=turn.user_id,
            )
        )
    for child in tracer.spans_since(mark):
        if child.parent != run_span.id or child.name == TURN:
            continue
        for turn_span in turn_spans:
            if turn_span.start <= child.start and child.end <= turn_span.end + 1e-6:
                child.parent = turn_span.id
                break


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def _ancestor_names(span: Span, by_id: Dict[int, Span]) -> List[str]:
    names = []
    node = by_id.get(span.parent) if span.parent is not None else None
    while node is not None:
        names.append(node.name)
        node = by_id.get(node.parent) if node.parent is not None else None
    return names


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pct(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def directory_mb(path: Optional[Path]) -> float:
    """Bytes of every regular file under ``path``, in MB (0 when absent)."""
    if path is None or not Path(path).exists():
        return 0.0
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            file_path = Path(root) / name
            if file_path.is_file() and not file_path.is_symlink():
                total += file_path.stat().st_size
    return total / 1e6


def per_layer_metrics(
    spans: Iterable[Span], state_mb: float = 0.0, client_failed: int = 0
) -> Dict[str, float]:
    """The named per-layer metrics of one traced workload run.

    Layers a workload never touches read 0: that is the measurement (the
    workload was chosen so the layer does no work), not a missing value.
    """
    spans = list(spans)
    table = layer_table(spans)
    by_id = {span.id: span for span in spans}
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def row(name: str) -> Dict[str, float]:
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    metrics: Dict[str, float] = {}
    pre = row("llm.pretrain")
    metrics["llm.pretrain.s"] = pre["s"]
    metrics["llm.pretrain.self_s"] = pre["self_s"]

    respond = row("llm.respond_batch")
    respond_spans = by_name.get("llm.respond_batch", [])
    metrics["llm.respond_batch.calls"] = respond["calls"]
    metrics["llm.respond_batch.s"] = respond["s"]
    metrics["llm.respond_batch.self_s"] = respond["self_s"]
    metrics["llm.respond_batch.rows_mean"] = _mean([s.attrs.get("rows", 0) for s in respond_spans])
    metrics["llm.respond_batch.tok_per_s"] = _ratio(
        sum(s.attrs.get("tokens", 0) for s in respond_spans), respond["s"]
    )

    embed = row("llm.embed")
    metrics["llm.embed.calls"] = embed["calls"]
    metrics["llm.embed.s"] = embed["s"]
    metrics["llm.embed.self_s"] = embed["self_s"]

    finetune = row("llm.finetune")
    metrics["llm.finetune.calls"] = finetune["calls"]
    metrics["llm.finetune.s"] = finetune["s"]
    metrics["llm.finetune.self_s"] = finetune["self_s"]
    metrics["llm.finetune.examples_per_s"] = _ratio(
        sum(s.attrs.get("examples", 0) for s in by_name.get("llm.finetune", [])), finetune["s"]
    )

    select_spans = by_name.get("core.select", [])
    metrics["core.select.s"] = row("core.select")["s"]
    metrics["core.select.self_s"] = row("core.select")["self_s"]
    metrics["core.select.accept_ratio"] = _mean([s.attrs.get("accepted", 0) for s in select_spans])
    metrics["core.annotate.s"] = row("core.annotate")["s"]
    metrics["core.synthesize.s"] = row("core.synthesize")["s"]
    metrics["core.synthesize.self_s"] = row("core.synthesize")["self_s"]
    metrics["core.evaluate.s"] = row("core.evaluate")["s"]
    metrics["core.evaluate.self_s"] = row("core.evaluate")["self_s"]
    metrics["core.checkpoint.calls"] = row("core.checkpoint")["calls"]
    metrics["core.checkpoint.s"] = row("core.checkpoint")["s"]

    attach = row("serve.attach")
    metrics["serve.attach.calls"] = attach["calls"]
    metrics["serve.attach.swaps"] = sum(s.attrs.get("swap", 0) for s in by_name.get("serve.attach", []))
    metrics["serve.attach.s"] = attach["s"]
    metrics["serve.attach.self_s"] = attach["self_s"]

    gets = by_name.get("serve.store.get", [])
    metrics["serve.store.get.s"] = row("serve.store.get")["s"]
    metrics["serve.store.get.hit_ratio"] = _mean([s.attrs.get("hit", 0) for s in gets])
    metrics["serve.store.put.s"] = row("serve.store.put")["s"]
    metrics["serve.store.flush.calls"] = row("serve.store.flush")["calls"]
    metrics["serve.store.flush.s"] = row("serve.store.flush")["s"]

    metrics.update(_scheduler_metrics(by_name, by_id))

    journal = row("serve.journal")
    metrics["serve.journal.calls"] = journal["calls"]
    metrics["serve.journal.s"] = journal["s"]

    metrics.update(_frontend_metrics(by_name))
    metrics["serve.client.failed"] = client_failed
    metrics["serve.state_mb"] = state_mb

    metrics["eval.s"] = row("eval")["s"]
    metrics["eval.self_s"] = row("eval")["self_s"]
    return metrics


def _scheduler_metrics(by_name, by_id) -> Dict[str, float]:
    turns = [
        turn
        for turn in by_name.get(TURN, [])
        if BURST_PHASE not in _ancestor_names(turn, by_id)
    ]
    # A request id can be submitted again in a later phase, so each turn is
    # matched to the latest submit of its request before the turn started.
    submits: Dict[str, List[float]] = {}
    for span in by_name.get(SUBMIT, []):
        submits.setdefault(span.request, []).append(span.start)
    for times in submits.values():
        times.sort()

    def submitted(request_id: str, before: float) -> Optional[float]:
        times = submits.get(request_id, [])
        index = bisect.bisect_right(times, before)
        return times[index - 1] if index else None

    waits = []
    first_submit = None
    for turn in turns:
        for request_id in turn.request.split(","):
            start = submitted(request_id, turn.start)
            if start is not None:
                waits.append(1e3 * (turn.start - start))
                first_submit = start if first_submit is None else min(first_submit, start)
    busy = sum(turn.seconds for turn in turns)
    window = max(turn.end for turn in turns) - first_submit if waits else 0.0
    runs = by_name.get(RUN, [])
    return {
        "serve.scheduler.turns": len(turns),
        "serve.scheduler.batch_rows_mean": _mean([turn.attrs.get("rows", 0) for turn in turns]),
        "serve.scheduler.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "serve.scheduler.queue_wait_ms_p99": _pct(waits, 0.99),
        "serve.scheduler.busy_ratio": _ratio(busy, window),
        "serve.scheduler.run.s": sum(span.seconds for span in runs),
    }


def _frontend_metrics(by_name) -> Dict[str, float]:
    """Client latency minus the server's session span, per request.

    Requests are matched by user and per-user order: each user has one
    request in flight at a time, so the k-th client request of a user is
    the k-th session call for that user on the server.
    """
    waits: List[float] = []
    retries = 0
    for client_name, server_name in SERVER_SPANS.items():
        clients: Dict[str, List[Span]] = {}
        for span in by_name.get(client_name, []):
            clients.setdefault(span.attrs["user"], []).append(span)
            retries += int(span.attrs.get("busy_retries", 0))
        servers: Dict[str, List[Span]] = {}
        for span in by_name.get(server_name, []):
            servers.setdefault(span.attrs["user"], []).append(span)
        for user, client_spans in clients.items():
            server_spans = sorted(servers.get(user, []), key=lambda span: span.start)
            client_spans.sort(key=lambda span: span.start)
            for client, server in zip(client_spans, server_spans):
                waits.append(1e3 * (client.seconds - server.seconds))
    return {
        "serve.frontend.wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "serve.client.busy_retries": retries,
    }
