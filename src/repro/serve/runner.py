"""The shard-serving core and the end-to-end serving run built on it.

:class:`ShardServer` is the one place a serving stack is built and
recovered: the adapter store, the session manager, the scheduler and —
with a ``state_dir`` — the request journal.  Every entry point drives it:
:func:`run_serve` (one shard, a synthetic load), the
:mod:`repro.serve.shard` pool worker (one shard per worker) and the socket
front-end's scheduler bridge (:mod:`repro.serve.frontend`).

With a ``state_dir`` the run is *durable*: every request is journaled
before it is served, personalize rounds commit through per-user engine
checkpoints, and a crashed run — injected soft crash, ``SIGKILL``, power
cut — resumes from the journal with at-least-once chat and exactly-once
personalize semantics (``docs/robustness.md`` walks through every crash
window).  Soft crashes (:class:`~repro.serve.faults.InjectedCrash`) are
restarted inside the same process: the base model's runtime state is
snapshotted once and restored per restart, so an in-process "reboot" serves
from bit-identical weights and RNG streams, exactly like a real one.
"""

from __future__ import annotations

import signal
import tempfile
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.experiments.presets import ExperimentScale
from repro.llm.generation import GenerationConfig
from repro.llm.model import OnDeviceLLM
from repro.obs import MetricsRegistry, PeriodicSnapshotter
from repro.serve.adapter_store import LoRAAdapterStore
from repro.serve.config import ServeConfig
from repro.serve.errors import TransientServingError
from repro.serve.faults import FaultInjector, InjectedCrash
from repro.serve.journal import (
    JOURNAL_FILE,
    JournalError,
    JournalReplay,
    RequestJournal,
    journal_digest,
    replay,
)
from repro.serve.loadgen import build_serving_llm, generate_load
from repro.serve.scheduler import PersonalizeRequest, Request, RequestScheduler, ServeReport
from repro.serve.session import SessionManager, serving_framework_config


@dataclass
class ServeOutcome:
    """Everything one serving run produced (report + full transcript)."""

    report: ServeReport
    transcript: List[dict] = field(default_factory=list)
    adapter_dir: Optional[Path] = None
    state_dir: Optional[Path] = None
    #: Order-independent digest of everything the journal saw finish —
    #: completed ∪ replayed ∪ dead-lettered, keyed by request id.  This is
    #: the fingerprint the chaos suite compares across kill/resume runs.
    journal_digest: Optional[str] = None
    #: In-process restarts taken after injected soft crashes.
    restarts: int = 0
    #: Personalize rounds that recovery found committed but unmarked and
    #: rolled forward without re-applying (the exactly-once path).
    replayed_requests: int = 0
    faults: Optional[dict] = None
    #: Drained-state metrics snapshot (None when metrics were disabled).
    metrics: Optional[dict] = None

    @property
    def digest(self) -> str:
        """The transcript digest (determinism fingerprint of the run)."""
        return self.report.transcript_digest


def make_session_manager(
    llm: OnDeviceLLM,
    store: LoRAAdapterStore,
    scale: ExperimentScale,
    seed: int = 0,
    lexicons: Optional[LexiconCollection] = None,
    checkpoint_root: Optional[Union[str, Path]] = None,
) -> SessionManager:
    """A session manager whose per-user frameworks follow the scale preset.

    Serving-time fine-tuning rounds are capped at 4 epochs — they run between
    user turns, where the scale's full offline epoch budget would stall the
    queue.
    """

    def framework_config(user_seed: int):
        return serving_framework_config(
            seed=user_seed,
            lora=llm.lora_config,
            buffer_bins=scale.buffer_bins,
            finetune_epochs=min(4, scale.finetune_epochs),
            finetune_batch_size=scale.finetune_batch_size,
            learning_rate=scale.learning_rate,
            synthesis_per_item=scale.synthesis_per_item,
        )

    return SessionManager(
        llm,
        store,
        lexicons=lexicons or builtin_lexicons(),
        framework_config_factory=framework_config,
        seed=seed,
        checkpoint_root=checkpoint_root,
    )


def serving_generation_config(llm: OnDeviceLLM, scale: ExperimentScale) -> GenerationConfig:
    """The chat decoding configuration of a serving run (scale-derived)."""
    return GenerationConfig(
        max_new_tokens=scale.eval_max_new_tokens,
        greedy=scale.eval_greedy,
        stop_token_id=llm.tokenizer.vocabulary.eos_id,
    )


# ---------------------------------------------------------------------- #
# recovery
# ---------------------------------------------------------------------- #
def adapter_state_from_model_section(model_section: dict) -> Dict[str, np.ndarray]:
    """Extract the LoRA adapter from a checkpoint's model runtime section.

    The full model ``state_dict`` names LoRA tensors ``<module>.lora_a`` /
    ``<module>.lora_b`` in module order, while the adapter-only format is
    ``adapter.<i>.lora_a`` / ``adapter.<i>.lora_b`` with ``i`` counting
    adapters in the same order — so pairing by suffix and position is exact.
    Recovery uses this to roll a user's adapter forward from a committed
    checkpoint without constructing (or disturbing) an engine.
    """
    adapter: Dict[str, np.ndarray] = {}
    index_a = index_b = 0
    for key, value in model_section["state_dict"].items():
        if key.endswith(".lora_a"):
            adapter[f"adapter.{index_a}.lora_a"] = np.array(value, copy=True)
            index_a += 1
        elif key.endswith(".lora_b"):
            adapter[f"adapter.{index_b}.lora_b"] = np.array(value, copy=True)
            index_b += 1
    return adapter


def restore_shared_streams(checkpoint_root: Path, llm: OnDeviceLLM) -> int:
    """Restore shared RNG streams from the latest committed checkpoint.

    The generation and dropout RNG streams live in the shared model and
    advance with *every* user's fine-tune round, so after a restart they
    must resume from where the last committed round left them — not from
    the process-start snapshot, and not from whichever user happens to be
    restored first.  The latest commit is found by the monotonic
    ``commit_seq`` each personalize commit stamps into its manifest.
    Returns the highest sequence number seen (0 when no commits exist),
    which the new scheduler continues from.
    """
    latest_seq = 0
    latest_manager: Optional[CheckpointManager] = None
    if checkpoint_root.is_dir():
        for user_dir in sorted(checkpoint_root.iterdir()):
            checkpoints = CheckpointManager(user_dir)
            if not checkpoints.exists():
                continue
            try:
                manifest = checkpoints.manifest()
            except CheckpointError:
                continue
            seq = int((manifest.get("extra") or {}).get("commit_seq", 0))
            if seq > latest_seq:
                latest_seq = seq
                latest_manager = checkpoints
    if latest_manager is not None:
        try:
            llm.load_rng_streams(latest_manager.load_state()["model"])
        except (CheckpointError, KeyError, ValueError):
            # Streams stay at the reboot snapshot; serving still works, only
            # bit-exact equivalence with the uninterrupted run is lost.
            pass
    return latest_seq


def roll_forward(
    past: JournalReplay,
    store: LoRAAdapterStore,
    manager: SessionManager,
    journal: RequestJournal,
) -> Dict[int, dict]:
    """Finish personalize rounds that committed but were never marked done.

    A crash between the checkpoint commit and the journal's ``complete``
    record leaves a pending personalize request whose user checkpoint
    manifest carries exactly that request id in ``extra`` — proof the round
    was fully applied.  Recovery replays the *outcome* (the transcript entry
    stored in ``extra``), syncs the adapter + round fence from the
    checkpoint, and marks the request complete, all without re-applying.
    Returns the replayed entries keyed by request id.
    """
    replayed: Dict[int, dict] = {}
    for request_id in sorted(past.enqueued):
        request = past.enqueued[request_id]
        if past.is_finished(request_id) or not isinstance(request, PersonalizeRequest):
            continue
        manager_dir = manager.session_checkpoint_dir(request.user_id)
        checkpoints = CheckpointManager(manager_dir)
        if not checkpoints.exists():
            continue
        try:
            manifest = checkpoints.manifest()
        except CheckpointError:
            continue
        extra = manifest.get("extra") or {}
        if extra.get("request_id") != request_id or not extra.get("entry"):
            continue
        round_committed = int(extra.get("round", manifest.get("finetune_rounds", 0)))
        try:
            if store.get_round(request.user_id) < round_committed:
                state = checkpoints.load_state()
                store.put(
                    request.user_id,
                    adapter_state_from_model_section(state["model"]),
                    round=round_committed,
                )
                store.flush(request.user_id)
        except (CheckpointError, TransientServingError) as error:
            # Best effort only: the lazy session restore syncs the cache on
            # the user's next touch, and the checkpoint keeps the truth.
            store.health.degrade(
                f"roll-forward adapter sync for {request.user_id!r} failed: {error}"
            )
        entry = dict(extra["entry"])
        journal.record_complete([entry])
        replayed[request_id] = entry
    return replayed


def normalize_entry(entry: dict, user_seq: int) -> dict:
    """One transcript entry keyed for cross-run comparison.

    The globally-assigned ``request_id`` encodes the arrival interleaving of
    concurrent connections — scheduling noise, not serving behaviour — so it
    is replaced by the per-user sequence number, which every connection
    carries deterministically.
    """
    normalized = {key: value for key, value in entry.items() if key != "request_id"}
    normalized["user_seq"] = user_seq
    return normalized


# ---------------------------------------------------------------------- #
# the shard-serving core
# ---------------------------------------------------------------------- #
class ShardServer:
    """One shard's serving stack with journal recovery and in-place restarts.

    Three steps, the same for every entry point:

    - :meth:`boot` builds the adapter store, session manager and scheduler.
      With a ``state_dir`` it also recovers from the journal: it replays it
      (degrading health on dropped records), refuses one written for a
      different workload, rolls committed fine-tunes forward, announces
      every entry the journal saw finish, and re-submits what it left
      pending.
    - :meth:`serve` submits the requests the journal does not know yet and
      serves the queue.  An injected soft crash restores the base model's
      runtime snapshot and boots again in place; requests that were not
      journaled before the crash are submitted again.
    - :meth:`finish` flushes the adapters (a transient failure degrades
      instead of raising) and closes the journal.

    Without a ``state_dir`` there is no journal, nothing to recover and no
    crash to survive; the same steps serve the load once.

    Every transcript entry, live or announced on boot, is keyed by its
    per-user sequence number (:func:`normalize_entry`), kept in
    :attr:`entries` by request id and passed to ``on_entry(request_id,
    normalized_entry)``.  An entry re-announced unchanged after an
    in-process restart is not passed on again.
    """

    def __init__(
        self,
        config: ServeConfig,
        llm: OnDeviceLLM,
        lexicons: Optional[LexiconCollection] = None,
        metrics: Optional[MetricsRegistry] = None,
        meta: Optional[dict] = None,
        on_entry: Optional[Callable[[int, dict], None]] = None,
    ) -> None:
        plan = config.fault_plan
        self.config = config
        self.llm = llm
        self.scale = config.resolved_scale()
        self.lexicons = lexicons or builtin_lexicons()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults = FaultInjector(plan) if plan is not None else None
        self.generation = serving_generation_config(llm, self.scale)
        #: The journal's first record; its ``load`` is the workload fence.
        self.meta = {"load": asdict(config.load), "scale": self.scale.name, **(meta or {})}
        self.on_entry = on_entry
        self.journal_path: Optional[Path] = None
        self._temporary: Optional[tempfile.TemporaryDirectory] = None
        if config.state_dir is not None:
            state = Path(config.state_dir)
            state.mkdir(parents=True, exist_ok=True)
            self.journal_path = state / JOURNAL_FILE
            if self.journal_path.exists() and not config.resume:
                raise JournalError(
                    f"journal already exists at {self.journal_path}; "
                    "pass resume=True to replay it"
                )
            self.adapter_dir = Path(config.adapter_dir or state / "adapters")
        elif plan is not None and plan.crash_point is not None:
            raise ValueError("crash injection requires a state_dir to recover from")
        elif config.adapter_dir is not None:
            self.adapter_dir = Path(config.adapter_dir)
        else:
            self._temporary = tempfile.TemporaryDirectory(prefix="repro-adapters-")
            self.adapter_dir = Path(self._temporary.name)
        self.entries: Dict[int, dict] = {}
        self.scheduler: Optional[RequestScheduler] = None
        self.journal: Optional[RequestJournal] = None
        #: Above every request id the journal has seen (fresh ids start here).
        self.next_request_id = 0
        self.restarts = 0
        #: Personalize rounds found committed but unmarked and rolled
        #: forward without re-applying (the exactly-once path).
        self.replayed_requests = 0
        self._journaled: set = set()
        self._seqs: Dict[str, int] = {}
        self._snapshot: Optional[dict] = None

    @property
    def durable(self) -> bool:
        return self.journal_path is not None

    @property
    def temporary_adapters(self) -> bool:
        """Whether the adapter files are discarded by :meth:`finish`."""
        return self._temporary is not None

    @property
    def dead_letter_requests(self) -> int:
        return sum(1 for entry in self.entries.values() if entry.get("dead_letter"))

    def journal_digest(self) -> Optional[str]:
        """The journal's finished-entry digest (None when not durable)."""
        return journal_digest(self.journal_path) if self.durable else None

    # -- the three steps ------------------------------------------------ #
    def boot(self) -> None:
        """Build the serving stack and recover from the journal (if durable)."""
        self._guarded(lambda: None)

    def serve(self, requests: Iterable[Request] = ()) -> ServeReport:
        """Submit ``requests`` the journal does not know, serve until drained.

        Returns the report of the final scheduler's run.
        """
        inbox = deque(requests)

        def step() -> ServeReport:
            while inbox:
                if inbox[0].request_id not in self._journaled:
                    self.scheduler.submit(inbox[0])
                inbox.popleft()
            return self.scheduler.run()

        return self._guarded(step)

    def finish(self) -> None:
        """Final flush, journal close, temporary adapter cleanup."""
        sessions = self.scheduler.sessions
        try:
            sessions.flush()
        except TransientServingError as error:
            # Everything recovery needs is durable already (journal +
            # checkpoints): a store hiccup at the very end must not fail a
            # run that served every request.
            sessions.store.health.degrade(f"final adapter flush failed: {error}")
        if self.journal is not None:
            self.journal.close()
        if self._temporary is not None:
            self._temporary.cleanup()

    # -- internals ------------------------------------------------------ #
    def _guarded(self, step):
        """Run ``step`` on a booted stack; an injected crash reboots in place."""
        while True:
            try:
                if self.scheduler is None:
                    self._boot()
                return step()
            except InjectedCrash:
                if self.journal is not None:
                    self.journal.close()
                self.scheduler = None
                self.restarts += 1
                self.metrics.counter("serve_restarts_total").inc()
                if self.restarts > self.config.max_restarts:
                    raise RuntimeError(
                        f"gave up after {self.config.max_restarts} injected-crash restarts"
                    ) from None
                self.llm.load_runtime_state(self._snapshot)

    def _boot(self) -> None:
        config = self.config
        store = LoRAAdapterStore(
            self.adapter_dir,
            cache_capacity=config.cache_capacity,
            faults=self.faults,
            metrics=self.metrics,
        )
        checkpoint_root = self.journal_path.parent / "sessions" if self.durable else None
        manager = make_session_manager(
            self.llm,
            store,
            self.scale,
            seed=config.load.seed,
            lexicons=self.lexicons,
            checkpoint_root=checkpoint_root,
        )
        past = JournalReplay()
        commit_seq = 0
        if self.durable:
            if self._snapshot is None:
                # Taken after the manager injected LoRA: restoring it is the
                # in-process equivalent of a reboot — same weights, same RNG
                # streams as a freshly started server.
                self._snapshot = self.llm.export_runtime_state()
            commit_seq = restore_shared_streams(checkpoint_root, self.llm)
            past = replay(self.journal_path)
            recorded = (past.meta or {}).get("load")
            if recorded is not None and recorded != self.meta["load"]:
                raise JournalError(
                    "journal was recorded for a different load configuration; refusing "
                    f"to resume (journaled {recorded!r}, requested {self.meta['load']!r})"
                )
            self.journal = RequestJournal(
                self.journal_path, fsync=config.fsync, metrics=self.metrics
            )
            self.journal.observe_replay(past)
            if past.dropped_records:
                self.journal.health.degrade(
                    f"dropped {past.dropped_records} corrupt journal record(s) on replay"
                )
            if past.meta is None:
                self.journal.record_meta(self.meta)
        self.scheduler = RequestScheduler(
            manager,
            max_batch_size=config.max_batch_size,
            generation=self.generation,
            journal=self.journal,
            faults=self.faults,
            retry=config.retry,
            deadline_seconds=config.deadline_seconds,
            commit_seq_start=commit_seq,
            next_request_id_start=past.next_request_id,
            metrics=self.metrics,
        )
        self.scheduler.entry_listener = self._emit
        self.next_request_id = max(self.next_request_id, past.next_request_id)
        self._journaled = set(past.enqueued)
        self._seqs = {}
        replayed = roll_forward(past, store, manager, self.journal) if self.durable else {}
        self.replayed_requests += len(replayed)
        # Per user, finished ids are a FIFO prefix, so announcing them in id
        # order reproduces the sequence numbers of the run that served them.
        for entry in past.finished_entries():
            self._emit(dict(entry))
        for request_id in sorted(replayed):
            self._emit(dict(replayed[request_id]))
        for request in past.pending:
            if request.request_id not in replayed:
                self.scheduler.submit(request, journal_record=False)

    def _emit(self, entry: dict) -> None:
        user = entry["user_id"]
        seq = self._seqs.get(user, 0)
        self._seqs[user] = seq + 1
        request_id = entry["request_id"]
        normalized = normalize_entry(entry, seq)
        if self.entries.get(request_id) == normalized:
            return
        self.entries[request_id] = normalized
        if self.on_entry is not None:
            self.on_entry(request_id, normalized)


# ---------------------------------------------------------------------- #
# the entry point
# ---------------------------------------------------------------------- #
def run_serve(
    config: ServeConfig,
    lexicons: Optional[LexiconCollection] = None,
    llm: Optional[OnDeviceLLM] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ServeOutcome:
    """Serve one synthetic workload end to end; returns the outcome.

    ``config`` describes the whole run.  Runtime objects stay keywords:
    pass ``llm`` to reuse an already-built base model (the benchmark does
    this to compare policies on identical weights), ``lexicons`` to
    override the built-ins, and ``metrics`` to aggregate several runs into
    one registry.

    With no ``adapter_dir`` and no ``state_dir`` the adapter files live in
    a temporary directory that is discarded after the run (the report keeps
    the store statistics).

    With ``state_dir`` the run is durable (journal + per-user checkpoints
    under that directory, adapters in ``<state_dir>/adapters`` unless
    ``adapter_dir`` overrides).  ``resume=False`` requires a fresh journal;
    ``resume=True`` replays an existing one: finished requests are skipped,
    committed-but-unmarked personalize rounds are rolled forward, and
    everything else is re-served.  Injected *soft* crashes restart in
    process (up to ``max_restarts`` times); a hard crash (``SIGKILL``)
    needs a new process calling back with ``resume=True``.
    """
    if not isinstance(config, ServeConfig):
        raise TypeError(f"run_serve() takes a ServeConfig, not {type(config).__name__}")
    load = config.load
    scale = config.resolved_scale()
    lexicons = lexicons or builtin_lexicons()
    registry = metrics if metrics is not None else MetricsRegistry()
    if llm is None:
        llm = build_serving_llm(
            scale,
            dataset=load.dataset,
            seed=load.seed,
            lexicons=lexicons,
            pretrain_epochs=config.pretrain_epochs,
        )
    snapshotter: Optional[PeriodicSnapshotter] = None
    if config.metrics_enabled and config.metrics_out is not None:
        snapshotter = PeriodicSnapshotter(
            registry, config.metrics_out, config.metrics_interval_seconds
        ).start()
    server = ShardServer(config, llm, lexicons=lexicons, metrics=registry)
    restore_handlers = _install_stop_handlers(server) if config.install_signal_handlers else None
    try:
        server.boot()
        report = server.serve(generate_load(load, lexicons=lexicons))
        server.finish()
    finally:
        if restore_handlers is not None:
            restore_handlers()
        if snapshotter is not None:
            snapshotter.stop()
    return ServeOutcome(
        report=report,
        transcript=list(server.scheduler.transcript),
        adapter_dir=None if server.temporary_adapters else server.adapter_dir,
        state_dir=None if config.state_dir is None else Path(config.state_dir),
        journal_digest=server.journal_digest(),
        restarts=server.restarts,
        replayed_requests=server.replayed_requests,
        faults=None if server.faults is None else server.faults.report(),
        metrics=registry.snapshot() if config.metrics_enabled else None,
    )


def _install_stop_handlers(server: ShardServer):
    """SIGINT/SIGTERM → graceful drain; returns a restore callback (or None).

    Signal handlers only work in the main thread; elsewhere (tests running
    under pytest-xdist workers, notebooks) this silently does nothing.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous = {}

    def handle(signum, frame):
        if server.scheduler is not None:
            server.scheduler.request_stop()

    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, handle)
    except ValueError:
        return None

    def restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return restore
