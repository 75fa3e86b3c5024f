"""The shard-serving core, the one serving outcome, and the offline entry point.

:class:`ShardServer` is the one place a serving stack is built and
recovered: the adapter store, the session manager, the scheduler and —
with a ``state_dir`` — the request journal.  Every entry point drives it
the same way, through a :class:`~repro.serve.shard.ShardPool` worker per
shard: :func:`run_serve` (a synthetic load) and the socket front-end
(:mod:`repro.serve.frontend`), for one worker or several.  Every entry
point also reports the same way: one :class:`ServeOutcome`, built from the
shards' normalized transcript entries and their :meth:`ShardServer.summary`.

With a ``state_dir`` the run is *durable*: every request is journaled
before it is served, personalize rounds commit through per-user engine
checkpoints, and a crashed run — injected soft crash, ``SIGKILL``, power
cut — resumes from the journal with at-least-once chat and exactly-once
personalize semantics (``docs/robustness.md`` walks through every crash
window).  Soft crashes (:class:`~repro.serve.faults.InjectedCrash`) are
restarted inside the same process: the base model's runtime state is
snapshotted once and restored per restart, so an in-process "reboot" serves
from bit-identical weights and RNG streams, exactly like a real one.

Determinism is fingerprinted by one digest.  Entries are normalized to
their per-user sequence number (request ids are arrival noise), each user's
entries are digested in ``user_seq`` order, and the per-user digests compose
into one aggregate SHA-256 over the sorted ``user:digest`` lines::

    aggregate = sha256( sorted("<user>:<sha256(user entries)>") )

Serving a user is independent of interleaved other-user work, so the
aggregate is byte-identical for any worker count, any socket interleaving,
and again after a kill-and-resume.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.checkpoint import CheckpointError, CheckpointManager, require_format
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.experiments.presets import ExperimentScale
from repro.llm.base_cache import BOOT_PHASES, CACHE_RESULTS, BaseModelBoot
from repro.llm.generation import GenerationConfig
from repro.llm.model import OnDeviceLLM
from repro.obs import MetricsRegistry, PeriodicSnapshotter, merge_snapshots
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
from repro.serve.scheduler import (
    CHAT,
    PERSONALIZE,
    PersonalizeRequest,
    Request,
    RequestScheduler,
)
from repro.serve.session import SessionManager, serving_framework_config


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

    The generation and LoRA dropout RNG streams live in the shared model and
    advance with *every* user's fine-tune round, so after a restart they
    must resume from where the last committed round left them — not from
    the process-start snapshot, and not from whichever user happens to be
    restored first.  The latest commit is found by the monotonic
    ``commit_seq`` each personalize commit stamps into its manifest.
    Returns the highest sequence number seen (0 when no commits exist),
    which the new scheduler continues from.  A checkpoint of another format
    version raises :class:`CheckpointError`: the boot refuses the state
    directory instead of restarting each of its users blank.
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
            require_format(manifest, user_dir)
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


def user_transcript_digest(entries: Sequence[dict]) -> str:
    """SHA-256 of one user's normalized entries in ``user_seq`` order."""
    ordered = sorted(entries, key=lambda entry: entry["user_seq"])
    encoded = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def compose_user_digests(user_digests: Dict[str, str]) -> str:
    """Aggregate digest over per-user digests (sorted ``user:digest`` lines).

    Pure composition: any partition of users into shards yields the same
    aggregate as long as every user's own digest is unchanged — the property
    that makes the digest worker-count-independent.
    """
    lines = "\n".join(f"{user}:{digest}" for user, digest in sorted(user_digests.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _by_user(entries: Iterable[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for entry in entries:
        grouped.setdefault(entry["user_id"], []).append(entry)
    return grouped


def aggregate_transcript_digest(normalized_entries: Iterable[dict]) -> str:
    """The transcript digest, straight from normalized entries (any order)."""
    per_user = _by_user(normalized_entries)
    return compose_user_digests(
        {user: user_transcript_digest(entries) for user, entries in per_user.items()}
    )


def served_counts(entries: Sequence[dict]) -> Dict[str, int]:
    """Entries by outcome: total, served chats/personalizes, dead letters."""
    live = [entry for entry in entries if not entry.get("dead_letter")]
    return {
        "total": len(entries),
        "chat": sum(1 for entry in live if entry.get("kind") == CHAT),
        "personalize": sum(1 for entry in live if entry.get("kind") == PERSONALIZE),
        "dead_letter": len(entries) - len(live),
    }


def observe_boot(registry: MetricsRegistry, boot: Optional[BaseModelBoot]) -> None:
    """Record how the base model was produced (``boot`` is None for a model
    that did not come from ``build_pretrained_llm``, e.g. a clone).  Every
    key is registered, so the key set is the same cold and warm."""
    for result in CACHE_RESULTS:
        registry.counter("base_model_cache_total", result=result)
    for phase in BOOT_PHASES:
        registry.gauge("boot_seconds", merge="max", phase=phase)
    if boot is not None:
        registry.counter("base_model_cache_total", result=boot.result).inc()
        registry.gauge("boot_seconds", merge="max", phase=boot.phase).set(boot.seconds)


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
    in-process restart is not passed on again.  :meth:`summary` reports the
    shard's side of the :class:`ServeOutcome`.

    ``index`` is the shard's position in a pool of ``config.workers``
    shards; with more than one, the journal meta records it.
    """

    def __init__(
        self,
        config: ServeConfig,
        llm: OnDeviceLLM,
        lexicons: Optional[LexiconCollection] = None,
        index: int = 0,
    ) -> None:
        plan = config.fault_plan
        self.config = config
        self.llm = llm
        self.index = index
        self.scale = config.resolved_scale()
        self.lexicons = lexicons or builtin_lexicons()
        self.metrics = MetricsRegistry()
        # One shard per run reports the boot, so a merged view counts it once.
        observe_boot(self.metrics, llm.boot if index == 0 else None)
        self.faults = FaultInjector(plan) if plan is not None else None
        self.generation = serving_generation_config(llm, self.scale)
        #: The journal's first record; its ``load`` is the workload fence.
        self.meta = {"load": asdict(config.load), "scale": self.scale.name}
        if config.workers > 1:
            self.meta["shard"] = {"index": index, "num_shards": config.workers}
        self.on_entry: Optional[Callable[[int, dict], None]] = None
        #: Passed on as every scheduler's ``turn_listener``.
        self.on_turn: Optional[Callable[[], None]] = None
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
        #: Seconds spent in :meth:`serve`, and per delivered entry the
        #: seconds since its :meth:`serve` call began.
        self.serve_seconds = 0.0
        self.entry_latencies: List[float] = []
        self._serve_started: Optional[float] = None
        self._journaled: set = set()
        self._seqs: Dict[str, int] = {}
        self._snapshot: Optional[dict] = None

    @property
    def durable(self) -> bool:
        return self.journal_path is not None

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

    def serve(self, requests: Iterable[Request] = ()) -> None:
        """Submit ``requests`` the journal does not know, serve until drained."""
        inbox = deque(requests)

        def step() -> None:
            while inbox:
                if inbox[0].request_id not in self._journaled:
                    self.scheduler.submit(inbox[0])
                inbox.popleft()
            self.scheduler.run()

        self._serve_started = time.perf_counter()
        try:
            self._guarded(step)
        finally:
            self.serve_seconds += time.perf_counter() - self._serve_started
            self._serve_started = None

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

    def request_stop(self) -> None:
        """Stop serving at the next turn boundary (what the signal handlers call).

        What is still queued stays journaled for a later ``resume``.
        """
        scheduler = self.scheduler
        if scheduler is not None:
            scheduler.request_stop()

    def status(self) -> dict:
        """The live view a pool reports: metrics snapshot, component health,
        and queued requests per user."""
        scheduler = self.scheduler
        return {
            "metrics": self.metrics.snapshot(),
            "health": {} if scheduler is None else scheduler.health_report(),
            "queue_depths": {} if scheduler is None else scheduler.queue_depths(),
        }

    def summary(self) -> dict:
        """This shard's side of the :class:`ServeOutcome` (JSON-ready).

        A pool worker sends it to the parent as its ``done`` message.
        """
        scheduler = self.scheduler
        per_user = _by_user(self.entries.values())
        return {
            "index": self.index,
            "served": len(self.entries),
            "users": sorted(per_user),
            "user_digests": {
                user: user_transcript_digest(entries) for user, entries in per_user.items()
            },
            "journal_digest": self.journal_digest(),
            "replayed_requests": self.replayed_requests,
            "restarts": self.restarts,
            "dead_letter_requests": self.dead_letter_requests,
            # Registry-backed counters accumulate across in-place restarts, so
            # the final scheduler's view is the total.
            "degraded_chat_requests": scheduler.degraded_chats,
            "retries": scheduler.retries,
            "serve_seconds": self.serve_seconds,
            "entry_latencies": list(self.entry_latencies),
            "store": scheduler.sessions.store.stats.to_dict(),
            "health": scheduler.health_report(),
            "faults": None if self.faults is None else self.faults.report(),
            "metrics": self.metrics.snapshot(),
        }

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
        self.scheduler.turn_listener = self.on_turn
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
        if self._serve_started is not None:
            self.entry_latencies.append(time.perf_counter() - self._serve_started)
        if self.on_entry is not None:
            self.on_entry(request_id, normalized)


# ---------------------------------------------------------------------- #
# the outcome
# ---------------------------------------------------------------------- #
@dataclass
class ServeOutcome:
    """What one serving run produced, the same for every topology.

    Built by :meth:`build` from the run's normalized transcript entries and
    one :meth:`ShardServer.summary` per shard — whether the shard served in
    process, in a pool worker or behind the socket front-end.
    """

    #: Normalized entries sorted by ``(user_id, user_seq)``.
    transcript: List[dict]
    #: One :meth:`ShardServer.summary` per shard, in shard order.
    shards: List[dict]
    #: :func:`aggregate_transcript_digest` of :attr:`transcript`.
    transcript_digest: str
    total_requests: int
    chat_requests: int
    personalize_requests: int
    dead_letter_requests: int
    degraded_chat_requests: int
    retries: int
    num_users: int
    elapsed_seconds: float
    requests_per_sec: float
    #: In-process restarts taken after injected soft crashes.
    restarts: int
    #: Personalize rounds that recovery found committed but unmarked and
    #: rolled forward without re-applying (the exactly-once path).
    replayed_requests: int
    #: Drained-state metrics snapshot (None when metrics were disabled).
    metrics: Optional[dict] = None
    #: The socket front-end's traffic facts (a synthetic load has none).
    listen: Optional[str] = None
    busy_rejections: int = 0
    max_queue_depth_seen: int = 0

    @classmethod
    def build(
        cls, entries: Iterable[dict], shards: Sequence[dict], elapsed: float, **extra
    ) -> "ServeOutcome":
        """Assemble the outcome; ``extra`` sets the optional fields.

        The digest is recomputed from the entries and cross-checked against
        the shards' per-user digests (a user must live on exactly one shard).
        """
        transcript = sorted(entries, key=lambda entry: (entry["user_id"], entry["user_seq"]))
        digest = aggregate_transcript_digest(transcript)
        if shards:
            user_digests: Dict[str, str] = {}
            for shard in shards:
                for user, user_digest in shard["user_digests"].items():
                    if user in user_digests:
                        raise RuntimeError(f"user {user!r} served by more than one shard")
                    user_digests[user] = user_digest
            composed = compose_user_digests(user_digests)
            if composed != digest:
                raise RuntimeError(
                    "transcript digest mismatch between shard-composed and "
                    f"recomputed values ({composed[:12]} != {digest[:12]})"
                )
        served = served_counts(transcript)
        return cls(
            transcript=transcript,
            shards=list(shards),
            transcript_digest=digest,
            total_requests=served["total"],
            chat_requests=served["chat"],
            personalize_requests=served["personalize"],
            dead_letter_requests=served["dead_letter"],
            degraded_chat_requests=sum(1 for entry in transcript if entry.get("degraded")),
            retries=sum(shard["retries"] for shard in shards),
            num_users=len({entry["user_id"] for entry in transcript}),
            elapsed_seconds=elapsed,
            requests_per_sec=served["total"] / elapsed if elapsed > 0 else 0.0,
            restarts=sum(shard["restarts"] for shard in shards),
            replayed_requests=sum(shard["replayed_requests"] for shard in shards),
            **extra,
        )

    @property
    def journal_digest(self) -> Optional[str]:
        """The journal digest (None unless every shard is durable).

        One shard's own digest, or for several the SHA-256 over their
        ``index:digest`` lines.
        """
        digests = [(shard["index"], shard["journal_digest"]) for shard in self.shards]
        if not digests or any(digest is None for _, digest in digests):
            return None
        if len(digests) == 1:
            return digests[0][1]
        joined = "\n".join(f"{index}:{digest}" for index, digest in sorted(digests))
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    @property
    def all_dead_lettered(self) -> bool:
        """True when the run served traffic but every request dead-lettered.

        The ``repro serve`` exit-3 contract.
        """
        return self.total_requests > 0 and self.dead_letter_requests == self.total_requests

    def to_dict(self) -> dict:
        """JSON-ready view (``serve_result.json``).

        Per-shard latencies and raw metric snapshots stay off it: the merged
        ``metrics`` is the exported view.
        """
        return {
            "listen": self.listen,
            "total_requests": self.total_requests,
            "chat_requests": self.chat_requests,
            "personalize_requests": self.personalize_requests,
            "dead_letter_requests": self.dead_letter_requests,
            "degraded_chat_requests": self.degraded_chat_requests,
            "retries": self.retries,
            "num_users": self.num_users,
            "elapsed_seconds": self.elapsed_seconds,
            "requests_per_sec": self.requests_per_sec,
            "busy_rejections": self.busy_rejections,
            "max_queue_depth_seen": self.max_queue_depth_seen,
            "transcript_digest": self.transcript_digest,
            "journal_digest": self.journal_digest,
            "restarts": self.restarts,
            "replayed_requests": self.replayed_requests,
            "shards": [
                {
                    key: value
                    for key, value in shard.items()
                    if key not in ("entry_latencies", "metrics")
                }
                for shard in self.shards
            ],
            "metrics": self.metrics,
            "transcript": list(self.transcript),
        }


# ---------------------------------------------------------------------- #
# the entry point
# ---------------------------------------------------------------------- #
def run_serve(
    config: ServeConfig,
    lexicons: Optional[LexiconCollection] = None,
    llm: Optional[OnDeviceLLM] = None,
    mode: Optional[str] = None,
) -> ServeOutcome:
    """Serve one synthetic workload end to end; returns the outcome.

    ``config`` describes the whole run.  Runtime objects stay keywords:
    pass ``llm`` to reuse an already-built base model (the benchmark does
    this to compare policies on identical weights), ``lexicons`` to
    override the built-ins, and ``mode`` to pick the pool's worker mode.

    A :class:`~repro.serve.shard.ShardPool` of ``config.workers`` workers
    routes every request to its consistent-hash shard.  One worker keeps
    its journal, checkpoints and adapters in the state root; several keep
    theirs under ``<state_dir>/shard-NN``, each resuming independently.  A
    resume with a different worker count is refused.

    With no ``adapter_dir`` and no ``state_dir`` the adapter files live in
    a temporary directory that is discarded after the run (the shard
    summaries keep the store statistics).

    With ``state_dir`` the run is durable (journal + per-user checkpoints
    under that directory, adapters in ``<state_dir>/adapters`` unless
    ``adapter_dir`` overrides).  ``resume=False`` requires a fresh journal;
    ``resume=True`` replays an existing one: finished requests are skipped,
    committed-but-unmarked personalize rounds are rolled forward, and
    everything else is re-served.  Injected *soft* crashes restart in
    process (up to ``max_restarts`` times); a hard crash (``SIGKILL``)
    needs a new process calling back with ``resume=True``.  With
    ``install_signal_handlers``, SIGINT/SIGTERM stop every worker at its
    next turn boundary and the run reports what it served.
    """
    from repro.serve.shard import ShardPool, install_stop_handlers  # shard imports this module

    if not isinstance(config, ServeConfig):
        raise TypeError(f"run_serve() takes a ServeConfig, not {type(config).__name__}")
    load = config.load
    lexicons = lexicons or builtin_lexicons()
    if llm is None:
        llm = build_serving_llm(
            config.resolved_scale(),
            dataset=load.dataset,
            seed=load.seed,
            lexicons=lexicons,
            pretrain_epochs=config.pretrain_epochs,
        )
    requests = generate_load(load, lexicons=lexicons)
    pool = ShardPool(config, llm, mode=mode, lexicons=lexicons)
    snapshotter: Optional[PeriodicSnapshotter] = None
    if config.metrics_enabled and config.metrics_out is not None:
        snapshotter = PeriodicSnapshotter(
            MetricsRegistry(),
            config.metrics_out,
            config.metrics_interval_seconds,
            snapshot_fn=pool.merged_metrics,
        ).start()
    restore_handlers = (
        install_stop_handlers(pool.request_stop) if config.install_signal_handlers else None
    )
    try:
        pool.start()
        started = time.perf_counter()
        pool.submit_many(requests)
        shards = pool.drain()
        elapsed = time.perf_counter() - started
    except BaseException:
        pool.terminate()
        raise
    finally:
        if restore_handlers is not None:
            restore_handlers()
        if snapshotter is not None:
            snapshotter.stop()
    snapshot = merge_snapshots(shard["metrics"] for shard in shards)
    return ServeOutcome.build(
        pool.normalized_entries(),
        shards,
        elapsed,
        metrics=snapshot if config.metrics_enabled else None,
    )
