"""Multi-tenant session management over one shared base model.

One frozen transformer serves every user; what distinguishes users is (a)
their LoRA adapter weights and (b) their personalization state (buffer,
selector, fine-tuner).  :class:`SessionManager` owns the mapping:

* **attach/detach** hot-swaps the active user's adapter into the shared
  model through :meth:`OnDeviceLLM.load_adapter_state` — the transformer is
  never re-built or re-loaded, so a swap costs O(adapter bytes), and the
  outgoing user's weights are written back to the
  :class:`~repro.serve.adapter_store.LoRAAdapterStore` first, so no update
  is ever lost.  Only personalize requests attach: chats hand each user's
  adapter to one shared decode (:meth:`SessionManager.respond_round`);
* **sessions** lazily wire a per-user :class:`PersonalizationFramework`
  around the shared model, so personalize requests run through the exact
  PR-2 pipeline stages (``ingest → select → annotate → synthesize →
  finetune``) and train only the attached user's adapter;
* per-user embedding memo caches stay warm across swaps: a session only
  computes embeddings while its own adapter is attached and adapters are
  restored bit-identically, so a returning user's memos remain exact
  (fine-tuning invalidates through the engine itself).

New users start from the *blank* adapter captured right after injection
(``B = 0`` — an exact no-op), so every user's personalization begins from
identical base behaviour.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.core.framework import FrameworkConfig, PersonalizationFramework
from repro.core.synthesis import SynthesisConfig
from repro.data.dialogue import DialogueSet
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.llm.finetune import FineTuneConfig, FineTuneReport
from repro.llm.generation import GenerationConfig
from repro.llm.model import OnDeviceLLM
from repro.nn.lora import LoRAConfig, RowAdapter, clone_lora_state
from repro.obs import MetricsRegistry
from repro.serve.adapter_store import LoRAAdapterStore, validate_user_id
from repro.serve.errors import TransientServingError
from repro.serve.health import ComponentHealth


def user_seed(user_id: str, base_seed: int = 0) -> int:
    """A stable per-user seed (identical across processes and runs).

    Python's built-in ``hash`` is salted per process, so the derivation uses
    CRC-32 of the user id instead — two serving runs with the same users and
    base seed draw identical per-user random streams.
    """
    digest = zlib.crc32(user_id.encode("utf-8"))
    return int((base_seed * 1_000_003 + digest) % (2**31 - 1))


def serving_framework_config(
    seed: int = 0,
    lora: Optional[LoRAConfig] = None,
    selector: str = "ours",
    buffer_bins: int = 8,
    finetune_epochs: int = 4,
    finetune_batch_size: int = 8,
    learning_rate: float = 1e-2,
    synthesis_per_item: int = 2,
) -> FrameworkConfig:
    """A :class:`FrameworkConfig` tuned for interactive serving.

    Fine-tuning rounds are triggered explicitly by personalize requests, not
    by a stream interval, so ``finetune_interval`` is set effectively
    infinite; the epoch count defaults low because serving-time rounds run
    between user turns.
    """
    return FrameworkConfig(
        buffer_bins=buffer_bins,
        finetune_interval=1_000_000_000,
        selector=selector,
        synthesis=SynthesisConfig(num_per_item=synthesis_per_item, seed=seed),
        finetune=FineTuneConfig(
            epochs=finetune_epochs,
            batch_size=finetune_batch_size,
            learning_rate=learning_rate,
            lora=lora if lora is not None else LoRAConfig(),
            seed=seed,
        ),
        seed=seed,
    )


@dataclass
class UserSession:
    """Per-user serving state: the personalization framework plus counters."""

    user_id: str
    seed: int
    framework: PersonalizationFramework
    chat_requests: int = 0
    personalize_requests: int = 0
    finetune_rounds: int = 0
    dialogues_offered: int = 0
    dialogues_accepted: int = 0


@dataclass
class PersonalizeOutcome:
    """What one personalize request did."""

    user_id: str
    offered: int
    accepted: int
    finetuned: bool
    report: Optional[FineTuneReport] = None


class SessionManager:
    """Attaches per-user adapters to one shared model and runs their sessions."""

    def __init__(
        self,
        llm: OnDeviceLLM,
        store: LoRAAdapterStore,
        lora_config: Optional[LoRAConfig] = None,
        lexicons: Optional[LexiconCollection] = None,
        generation: Optional[GenerationConfig] = None,
        framework_config_factory: Optional[Callable[[int], FrameworkConfig]] = None,
        seed: int = 0,
        checkpoint_root: Optional[Union[str, Path]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.llm = llm
        self.store = store
        self.lexicons = lexicons or builtin_lexicons()
        self.generation = generation
        self.seed = seed
        # Sharing the store's registry by default keeps every serving metric
        # (cache traffic, swap latency, pipeline stage timings) in one
        # snapshot without each construction site threading it through.
        self.metrics = metrics if metrics is not None else store.metrics
        #: With a checkpoint root set, every user's engine state is persisted
        #: after each personalize round (manifest-last, so the write is the
        #: atomic commit point) and restored on first touch after a restart.
        self.checkpoint_root = Path(checkpoint_root) if checkpoint_root is not None else None
        self.health = ComponentHealth("sessions")
        self._degraded_users: Set[str] = set()
        llm.add_lora(lora_config)
        # The blank adapter every new user starts from: the current A matrices
        # with B forced to zero, which is an exact no-op on the base model.
        # Zeroing B (rather than trusting the live state) matters when the
        # llm arrives with adapters already injected *and trained* — e.g. a
        # model previously driven by a framework run or another manager; the
        # live adapter is simply overwritten by the first attach, never
        # inherited by new users.
        self._blank_state = llm.export_adapter_state()
        for key, value in self._blank_state.items():
            if key.endswith("lora_b"):
                self._blank_state[key] = np.zeros_like(value)
        self._blank_adapter = self._row_adapter(self._blank_state)
        if framework_config_factory is None:

            def framework_config_factory(seed: int) -> FrameworkConfig:
                return serving_framework_config(seed=seed, lora=self.llm.lora_config)

        self._framework_config_factory = framework_config_factory
        self._sessions: Dict[str, UserSession] = {}
        self._active_user: Optional[str] = None
        # Users whose live adapter may differ from the store's copy.  Only
        # fine-tuning mutates adapter weights, so chat-only swaps skip the
        # export + write-back entirely.
        self._dirty: Set[str] = set()

    # ------------------------------------------------------------------ #
    # adapter attachment
    # ------------------------------------------------------------------ #
    @property
    def active_user(self) -> Optional[str]:
        """The user whose adapter is currently attached (None when blank)."""
        return self._active_user

    def attach(self, user_id: str) -> float:
        """Make ``user_id`` the active user; returns the swap latency in seconds.

        A no-op (returning 0.0, which callers count as no swap) when the user is already
        attached.  Otherwise the outgoing user's adapter is written back to
        the store (if it changed) and the incoming user's adapter is fetched
        (unknown users get a copy of the blank adapter).

        The incoming session's embedding memo caches survive the swap on
        purpose: a session's embeddings are only ever computed while its own
        adapter is attached, the adapter is restored bit-identically from the
        store, and fine-tuning invalidates through the engine itself — so a
        returning user's memos are still exact.  (Code that mutates adapter
        weights behind the manager's back must call
        ``session.framework.engine.invalidate_embedding_caches()`` itself.)
        """
        validate_user_id(user_id)
        if self._active_user == user_id:
            return 0.0
        start = time.perf_counter()
        self._write_back_active()
        self.llm.load_adapter_state(self._stored_adapter(user_id))
        self._active_user = user_id
        return time.perf_counter() - start

    def _stored_adapter(self, user_id: str) -> Dict[str, np.ndarray]:
        """The store's copy of the user's adapter; an unknown user is stored blank."""
        try:
            return self.store.get(user_id)
        except KeyError:
            return self._stored_blank(user_id)

    def _stored_blank(self, user_id: str) -> Dict[str, np.ndarray]:
        """Store a copy of the blank adapter as ``user_id``'s; returns the copy."""
        state = clone_lora_state(self._blank_state)
        self.store.put(user_id, state)
        return state

    def chat_adapter(self, user_id: str) -> RowAdapter:
        """The adapter ``user_id``'s chat rows decode with; attaches nothing.

        The attached user's live adapter (which may be newer than the
        store's copy), else the store's copy, read without a copy and
        checked once per cached state; a user the store has never seen is
        stored blank first, exactly as :meth:`attach` would.  The user's
        session is created first, so on the first touch after a restart the
        checkpoint-restored adapter is the one returned.
        """
        validate_user_id(user_id)
        self.session(user_id)
        if user_id == self._active_user:
            return self._row_adapter(self.llm.export_adapter_state())
        try:
            return self.store.read(user_id, self._row_adapter)
        except KeyError:
            return self._row_adapter(self._stored_blank(user_id))

    def _row_adapter(self, state: Dict[str, np.ndarray]) -> RowAdapter:
        return RowAdapter(self.llm.model, state)

    def degraded_adapter(self, user_id: str) -> RowAdapter:
        """The *blank* adapter, for ``user_id``'s chats while its own is unreachable.

        The graceful-degradation chat path: when the adapter store keeps
        failing, the shared base model still answers (un-personalized)
        rather than dead-lettering the user's chats.  Nothing is read from
        or written to the store and the attached adapter is untouched; the
        user is recorded in :attr:`degraded_users`.
        """
        validate_user_id(user_id)
        try:
            self.session(user_id)
        except TransientServingError:
            # The first touch tried a checkpoint restore through the failing
            # store; the session stays unregistered, so the user's next
            # healthy request runs the restore again.
            pass
        if user_id not in self._degraded_users:
            self._degraded_users.add(user_id)
            self.health.degrade(f"serving {user_id!r} with the blank adapter (store unavailable)")
        return self._blank_adapter

    def _write_back_active(self) -> None:
        """Save the active user's adapter to the store if it changed.

        Only fine-tuning dirties an adapter (and :meth:`personalize` already
        writes back right after each round), so ordinary chat swaps cost no
        export, no copy and no eventual disk write.
        """
        if self._active_user is not None and self._active_user in self._dirty:
            round_count: Optional[int] = None
            session = self._sessions.get(self._active_user)
            if session is not None:
                round_count = session.framework.engine.finetune_round_count
            self.store.put(self._active_user, self.llm.export_adapter_state(), round=round_count)
            self._dirty.discard(self._active_user)

    def detach(self) -> None:
        """Write the active user's adapter back and restore the blank adapter."""
        if self._active_user is None:
            return
        self._write_back_active()
        self.llm.load_adapter_state(self._blank_state)
        self._active_user = None

    def flush(self) -> None:
        """Persist the active adapter and every dirty cached adapter to disk."""
        self._write_back_active()
        self.store.flush()

    # ------------------------------------------------------------------ #
    # per-user sessions
    # ------------------------------------------------------------------ #
    def session(self, user_id: str) -> UserSession:
        """The (lazily created) serving session of ``user_id``.

        When a checkpoint root is configured and this user has a complete
        checkpoint, the fresh session is restored from it before first use
        — the restart half of the durable-serving protocol.  The user's
        adapter is attached *first* so the checkpointed runtime (which
        includes the trained adapter inside the model section) lands on a
        consistent shared model and the manager's active-user bookkeeping
        stays truthful.
        """
        validate_user_id(user_id)
        session = self._sessions.get(user_id)
        if session is not None:
            return session
        seed = user_seed(user_id, self.seed)
        framework = PersonalizationFramework(
            self.llm,
            config=self._framework_config_factory(seed),
            lexicons=self.lexicons,
        )
        framework.engine.observe_stages(self.metrics)
        session = UserSession(user_id=user_id, seed=seed, framework=framework)
        if self.checkpoint_root is not None:
            self._restore_session(session)
        # Registered only once restored: when the restore raises (say a
        # transient store fault), the next call runs it again instead of
        # returning a fresh engine that would commit rounds from zero.
        self._sessions[user_id] = session
        return session

    def _restore_session(self, session: UserSession) -> None:
        """Restore a new session from its user's checkpoint, if there is one."""
        user_id = session.user_id
        framework = session.framework
        manager = CheckpointManager(self.session_checkpoint_dir(user_id))
        if not manager.exists():
            return
        try:
            self.attach(user_id)
            # The checkpointed model section carries the shared
            # generation/dropout RNG streams as of *this user's* last
            # commit; restoring them here would rewind streams other users'
            # rounds have since advanced.  Streams are a global resource —
            # the durable runner restores them once, from the latest commit
            # — so the per-user restore must leave them untouched.
            streams = self.llm.export_rng_streams()
            try:
                manager.restore(framework.engine)
            finally:
                self.llm.load_rng_streams(streams)
        except CheckpointError as error:
            # A corrupt per-user checkpoint must not take the whole server
            # down: serve from the stored adapter (or blank) and flag the
            # degradation.
            self.health.degrade(f"discarded corrupt checkpoint for {user_id!r}: {error}")
            return
        session.finetune_rounds = framework.engine.finetune_round_count
        # The restored runtime carries the adapter as of the checkpoint;
        # re-sync the store's cached copy so a crash-between-commit-and-flush
        # window cannot leave the store a round behind the engine.
        self.store.put(user_id, self.llm.export_adapter_state(), round=session.finetune_rounds)

    @property
    def sessions(self) -> Dict[str, UserSession]:
        """Every session created so far, keyed by user id (live view)."""
        return self._sessions

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #
    def session_checkpoint_dir(self, user_id: str) -> Path:
        """Where ``user_id``'s engine checkpoint lives (requires a root)."""
        if self.checkpoint_root is None:
            raise ValueError("SessionManager has no checkpoint_root configured")
        return self.checkpoint_root / user_id

    def checkpoint_session(self, user_id: str, extra: Optional[dict] = None) -> Path:
        """Persist ``user_id``'s full engine state; the manifest write commits.

        ``extra`` carries the scheduler's exactly-once fencing metadata
        (request id, round counter, pending transcript entry); because the
        manifest is written last, a directory with a manifest mentioning
        round *N* proves round *N* was fully applied.
        """
        session = self.session(user_id)
        return CheckpointManager(self.session_checkpoint_dir(user_id)).save(
            session.framework.engine, extra=extra
        )

    # ------------------------------------------------------------------ #
    # serving operations
    # ------------------------------------------------------------------ #
    def respond(
        self,
        user_id: str,
        questions: Sequence[str],
        generation: Optional[GenerationConfig] = None,
    ) -> List[str]:
        """Answer a batch of questions with ``user_id``'s adapter.

        All questions decode in one padded ``respond_batch`` pass with the
        :meth:`chat_adapter` applied to their rows; nothing is attached or
        swapped.  The scheduler uses :meth:`respond_round`, which decodes
        several users' batches in one pass.
        """
        if not questions:
            return []
        adapter = self.chat_adapter(user_id)
        return self.respond_round([(user_id, questions, adapter)], generation)[0]

    def respond_round(
        self,
        batches: Sequence[Tuple[str, Sequence[str], RowAdapter]],
        generation: Optional[GenerationConfig] = None,
    ) -> List[List[str]]:
        """Answer several users' question batches in one shared decode.

        ``batches`` holds ``(user_id, questions, adapter)`` in row order,
        each adapter from :meth:`chat_adapter` or :meth:`degraded_adapter`.
        Every batch's rows decode with its own adapter in a single
        ``respond_batch`` call; consecutive batches passing the same adapter
        object share one segment, so a round with one adapter makes exactly
        the kernel calls of decoding with it attached.  Returns the
        responses per batch.
        """
        questions: List[str] = []
        segments: List[Tuple[int, RowAdapter]] = []
        for _, batch_questions, adapter in batches:
            if not batch_questions:
                continue
            questions.extend(batch_questions)
            if segments and segments[-1][1] is adapter:
                segments[-1] = (segments[-1][0] + len(batch_questions), adapter)
            else:
                segments.append((len(batch_questions), adapter))
        responses = self.llm.respond_batch(
            questions, generation=generation or self.generation, adapters=segments
        )
        answers: List[List[str]] = []
        offset = 0
        for user_id, batch_questions, _ in batches:
            answers.append(responses[offset : offset + len(batch_questions)])
            offset += len(batch_questions)
            session = self._sessions.get(user_id)
            if session is not None:  # None only for a degraded, unrestored user
                session.chat_requests += len(batch_questions)
        return answers

    @property
    def degraded_users(self) -> Set[str]:
        """Users that were ever served by the blank-adapter fallback."""
        return set(self._degraded_users)

    def personalize(
        self,
        user_id: str,
        dialogues: Sequence[DialogueSet],
        finetune: bool = True,
    ) -> PersonalizeOutcome:
        """Feed dialogues through the pipeline stages and fine-tune the adapter.

        Each dialogue runs ``ingest → select → annotate`` on the user's own
        engine; accepted sets land in the user's buffer.  With ``finetune``
        (and a non-empty buffer) one ``synthesize → finetune`` round follows,
        training the attached adapter only.  The updated adapter is written
        back to the store before returning.
        """
        self.attach(user_id)
        session = self.session(user_id)
        engine = session.framework.engine
        accepted = 0
        for dialogue in dialogues:
            decision = engine.process_dialogue(dialogue)
            accepted += int(decision.accepted)
        session.dialogues_offered += len(dialogues)
        session.dialogues_accepted += accepted
        session.personalize_requests += 1
        report: Optional[FineTuneReport] = None
        finetuned = False
        if finetune and not engine.buffer.is_empty():
            self._dirty.add(user_id)
            # Reseed dropout per (user, round): the dropout streams live in
            # the *shared* model, so without this a round's masks would
            # depend on how many other users' rounds ran first — and a
            # crash-recovered scheduler, whose round order may legitimately
            # differ, could never reproduce the uninterrupted results.
            self.llm.reseed_dropout(
                user_seed(f"{user_id}/round/{engine.finetune_round_count}", self.seed)
            )
            report = engine.finetune_round()
            session.finetune_rounds += 1
            finetuned = True
            # The adapter just changed; write it back (fenced with the new
            # round count) so an eviction or a crash between requests cannot
            # lose the update — and so recovery can compare the store's
            # round against the checkpoint's to detect a half-applied job.
            # A transient store failure here must NOT unwind the applied
            # round: the user stays dirty and the next write-back retries.
            try:
                self.store.put(
                    user_id,
                    self.llm.export_adapter_state(),
                    round=engine.finetune_round_count,
                )
                self._dirty.discard(user_id)
            except TransientServingError as error:
                self.health.degrade(f"adapter write-back for {user_id!r} failed: {error}")
        return PersonalizeOutcome(
            user_id=user_id,
            offered=len(dialogues),
            accepted=accepted,
            finetuned=finetuned,
            report=report,
        )
