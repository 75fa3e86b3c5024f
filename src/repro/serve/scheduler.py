"""Cross-user request scheduling over the shared base model.

The scheduler multiplexes many users' requests over one
:class:`~repro.serve.session.SessionManager`.  Two request kinds exist:

* :class:`ChatRequest` — answer one question with the user's adapter;
  consecutive queued chat requests of the *same* user form one turn;
* :class:`PersonalizeRequest` — feed dialogue sets through the PR-2 pipeline
  stages and run one LoRA fine-tuning round on the user's adapter.

Scheduling is strict round-robin over users in order of first submission:
each turn serves at most one batch of one user, then moves to the next user
with pending work.  That bounds how long any user waits behind another
user's fine-tune job (fairness is asserted in
``tests/test_serve_scheduler.py``).

Chat turns are decoded in shared rounds: the chat turns between two
personalize turns, up to :data:`ROUND_ROWS` rows, go through **one** padded
:meth:`~repro.llm.model.OnDeviceLLM.respond_batch` call in which each
turn's rows use that user's adapter (:func:`repro.nn.lora.row_adapters`),
so chats never attach or swap an adapter.  Per-turn side effects (deadline
checks, fault hooks and the adapter fetch before the decode; journaling and
entry emission after it) still run turn by turn in ring order.

Everything is deterministic for a fixed seed: the transcript (request ids,
questions, responses, personalization outcomes — no wall-clock fields) of
two runs from identical seeds is identical.  Callers fingerprint it with
:func:`repro.serve.runner.aggregate_transcript_digest`.

Robustness (optional, all off by default):

* a :class:`~repro.serve.journal.RequestJournal` records every submission
  and every finished turn, making the scheduler restartable (see
  ``docs/robustness.md`` for the full protocol);
* a :class:`~repro.serve.errors.RetryPolicy` retries transient failures
  (store I/O, injected faults) with capped exponential backoff and
  deterministic jitter; chats that exhaust retries fall back to
  blank-adapter degraded serving before dead-lettering;
* a per-request ``deadline_seconds`` dead-letters work whose (virtual,
  fault-injected) latency exceeds the budget — checked for personalize jobs
  *before* any state changes, never after, so a deadline can never
  dead-letter an already-applied fine-tune;
* personalize turns run a write-ahead protocol — journal intent →
  in-memory apply → per-user engine checkpoint (the manifest write is the
  atomic commit point) → adapter flush → journal complete — which, fenced
  by the per-user round counter persisted with the adapter, makes
  fine-tunes exactly-once across crashes while chats stay at-least-once.
"""

from __future__ import annotations

import time
import zlib
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.data.dialogue import DialogueSet
from repro.llm.generation import GenerationConfig
from repro.obs import COUNT_BUCKETS, MetricsRegistry, observe_health
from repro.serve.errors import (
    DeadlineExceededError,
    RetryPolicy,
    ServingError,
    TransientServingError,
)
from repro.serve.faults import NO_FAULTS, FaultInjector
from repro.serve.health import ComponentHealth
from repro.serve.session import SessionManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (journal imports us)
    from repro.serve.journal import RequestJournal

CHAT = "chat"
PERSONALIZE = "personalize"

#: The most chat rows one shared decode holds.  At smoke scale a decode
#: step costs per-call dispatch more than arithmetic, so a 64-row step
#: costs about 3.5x an 8-row one; an uncapped round is faster still but
#: grows the KV cache and the prefill activations with its row count
#: (16-21 MB more peak RSS at 256 rows, about 3.6 MB at 64).
ROUND_ROWS = 64


@dataclass(frozen=True)
class ChatRequest:
    """One user question to answer with the user's adapter attached."""

    user_id: str
    question: str
    request_id: Optional[int] = None


@dataclass(frozen=True)
class PersonalizeRequest:
    """A batch of dialogue sets to select from and fine-tune on."""

    user_id: str
    dialogues: Tuple[DialogueSet, ...]
    finetune: bool = True
    request_id: Optional[int] = None


Request = Union[ChatRequest, PersonalizeRequest]


@dataclass
class ServeTurn:
    """One scheduling turn: a batch of one user's requests.

    The first chat turn of a shared decode round is charged the round's
    decode; see :meth:`RequestScheduler._finish_round`.
    """

    index: int
    user_id: str
    kind: str
    request_ids: List[int]
    batch_size: int
    swap_seconds: float
    seconds: float


@dataclass
class _PendingChat:
    """One chat turn waiting for its round's shared decode."""

    user_id: str
    batch: List[ChatRequest]
    started: float
    #: Requests still queued once the turn took its batch (``queue_depth``).
    queue_depth: int
    #: The adapter the turn's rows decode with; None when it dead-letters.
    adapter: Optional[Dict[str, np.ndarray]] = None
    degraded: bool = False
    error: Optional[ServingError] = None


def _round_rows(pending: Sequence[_PendingChat]) -> int:
    """Rows the pending round will decode (dead-lettering turns have none)."""
    return sum(len(turn.batch) for turn in pending if turn.adapter is not None)


class RequestScheduler:
    """Queues requests per user and serves them in round-robin batches."""

    def __init__(
        self,
        sessions: SessionManager,
        max_batch_size: int = 8,
        generation: Optional[GenerationConfig] = None,
        journal: Optional["RequestJournal"] = None,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
        commit_seq_start: int = 0,
        next_request_id_start: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be > 0, got {deadline_seconds}")
        self.sessions = sessions
        self.max_batch_size = max_batch_size
        self.generation = generation
        self.journal = journal
        self.faults = faults if faults is not None else NO_FAULTS
        self.retry = retry
        self.deadline_seconds = deadline_seconds
        #: Whether personalize turns commit through per-user engine
        #: checkpoints (requires the session manager's checkpoint root).
        self.checkpoint_sessions = sessions.checkpoint_root is not None
        # Global commit order across restarts: each personalize commit gets
        # the next sequence number, so recovery can identify the *latest*
        # committed checkpoint (whose model section holds the authoritative
        # shared RNG stream positions).  A resumed scheduler starts above
        # every sequence number already on disk.
        self._commit_seq = commit_seq_start
        self.health = ComponentHealth("scheduler")
        self._queues: Dict[str, Deque[Request]] = {}
        self._ring: List[str] = []  # users with pending work, in arrival order
        self._ring_members: set = set()
        self._cursor = 0
        # A resumed server starts id assignment above every journaled id so
        # freshly arriving (socket) requests can never collide with replayed
        # ones (see JournalReplay.next_request_id).
        self._next_request_id = next_request_id_start
        self._stop_requested = False
        #: Called with every transcript entry (chat, personalize, dead
        #: letter) the moment it is produced — the delivery hook the network
        #: front-end uses to stream results to waiting connections without
        #: polling the transcript.  Must not raise.
        self.entry_listener: Optional[Callable[[dict], None]] = None
        self.transcript: List[dict] = []
        self.turns: List[ServeTurn] = []
        self.dead_letters: List[dict] = []
        # The whole catalog is registered up front so a snapshot's key set
        # is a property of the code, not of which code paths traffic
        # happened to exercise — sharded and single-worker snapshots agree.
        # Prefer the store's registry so one registry spans the run.
        self.metrics = (
            metrics if metrics is not None else sessions.store.metrics
        )
        self._retries_counter = self.metrics.counter("serve_retries_total")
        self._degraded_counter = self.metrics.counter("serve_degraded_total")
        self._dead_letter_counter = self.metrics.counter("serve_dead_letters_total")
        self._tokens_counter = self.metrics.counter("tokens_generated_total")
        self._runs_counter = self.metrics.counter("serve_runs_total")
        # Incremented by the runner/shard restart loops, pre-registered here
        # so the key exists even in runs that never crash.
        self.metrics.counter("serve_restarts_total")
        for kind in (CHAT, PERSONALIZE):
            self.metrics.counter("serve_requests_total", kind=kind)
            self.metrics.histogram("turn_seconds", kind=kind)
        self.metrics.histogram("swap_seconds")
        self.metrics.histogram("batch_occupancy", buckets=COUNT_BUCKETS)
        self.metrics.histogram("decode_rows", buckets=COUNT_BUCKETS)
        self.metrics.histogram("queue_depth", buckets=COUNT_BUCKETS)
        self.metrics.gauge("pending_requests", merge="sum")
        self.metrics.gauge("tokens_per_second", merge="sum")
        self.metrics.gauge("requests_per_second", merge="sum")
        observe_health(self.metrics, self.health_report())
        # Backoff jitter draws from a dedicated seeded stream so retrying
        # never perturbs any model RNG — transcripts stay digest-identical
        # whether or not a run needed retries.
        self._retry_rng = np.random.default_rng(
            zlib.crc32(b"retry-jitter") ^ (sessions.seed & 0x7FFFFFFF)
        )

    # Retry / degradation counts live on the metrics registry so the same
    # numbers feed reports, the wire-protocol ops and JSON snapshots.
    @property
    def retries(self) -> int:
        return self._retries_counter.value

    @property
    def degraded_chats(self) -> int:
        return self._degraded_counter.value

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, request: Request, journal_record: bool = True) -> Request:
        """Enqueue one request; assigns a sequential id when none is set.

        With a journal attached the request is journaled *before* it enters
        the in-memory queue — once ``submit`` returns, the request survives
        a crash.  ``journal_record=False`` re-enqueues a request the journal
        already knows (the resubmission path after a restart).
        """
        if not isinstance(request, (ChatRequest, PersonalizeRequest)):
            raise TypeError(f"unsupported request type {type(request)!r}")
        if request.request_id is None:
            request = replace(request, request_id=self._next_request_id)
        self._next_request_id = max(self._next_request_id, request.request_id + 1)
        if self.journal is not None and journal_record:
            self.journal.record_enqueue(request)
        self.faults.crash_point("submit.after_journal")
        queue = self._queues.get(request.user_id)
        if queue is None:
            queue = deque()
            self._queues[request.user_id] = queue
        # A user whose queue drained earlier was dropped from the ring; a new
        # request re-enters them at the back (fresh arrival order).
        if request.user_id not in self._ring_members:
            self._ring.append(request.user_id)
            self._ring_members.add(request.user_id)
        queue.append(request)
        return request

    def submit_many(
        self, requests: Sequence[Request], journal_record: bool = True
    ) -> List[Request]:
        """Enqueue several requests in order; returns them with ids assigned."""
        return [self.submit(request, journal_record=journal_record) for request in requests]

    @property
    def pending_count(self) -> int:
        """Requests currently queued."""
        return sum(len(queue) for queue in self._queues.values())

    def queue_depths(self) -> Dict[str, int]:
        """Queued requests per user (users with empty queues omitted)."""
        return {user: len(queue) for user, queue in self._queues.items() if queue}

    def _emit(self, entry: dict) -> None:
        """Append one transcript entry and notify the delivery listener."""
        self.transcript.append(entry)
        if self.entry_listener is not None:
            self.entry_listener(entry)

    def request_stop(self) -> None:
        """Ask :meth:`run` to stop at the next turn boundary (graceful drain).

        The in-flight batch finishes and is journaled; everything still
        queued stays journaled as enqueued-but-unfinished, so a later run —
        same process or a restart — replays it.  This is what the runner's
        signal handlers call.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------ #
    # the serving loop
    # ------------------------------------------------------------------ #
    def _next_user(self) -> Optional[str]:
        """The next round-robin user with pending work (None when drained).

        Emptied queues are unlinked from the ring as they are met, so a ring
        full of drained users (e.g. after their requests dead-lettered) is
        skipped in one bounded sweep instead of stalling the loop.
        """
        while self._ring:
            if self._cursor >= len(self._ring):
                self._cursor = 0
            user = self._ring[self._cursor]
            if self._queues.get(user):
                return user
            del self._ring[self._cursor]
            self._ring_members.discard(user)
        return None

    def run(self) -> None:
        """Serve every queued request.

        The loop is synchronous and deterministic: users are visited in
        round-robin order, one same-adapter batch per visit.  Requests
        submitted from within the loop (not currently done by any caller)
        would simply join their user's queue.  What a run did is in
        :attr:`turns`, :attr:`transcript` and the registry's counters; its
        throughput goes to the ``requests_per_second`` and
        ``tokens_per_second`` gauges.
        """
        start = time.perf_counter()
        tokens_start = self._tokens_counter.value
        served = 0
        # Chat turns wait here for their round's shared decode.  A round
        # ends at a personalize turn (whose fine-tune later chats must see),
        # at the row cap, at a stop request, or when the queues drain.
        pending: List[_PendingChat] = []
        while True:
            if self._stop_requested:
                self._stop_requested = False
                self._finish_round(pending)
                if self._next_user() is not None:
                    self.health.degrade("stopped early: drained in-flight work on request")
                break
            user = self._next_user()
            if user is None:
                break
            queue = self._queues[user]
            turn_start = time.perf_counter()
            if isinstance(queue[0], ChatRequest):
                size = 0
                for request in queue:
                    if size == self.max_batch_size or not isinstance(request, ChatRequest):
                        break
                    size += 1
                if _round_rows(pending) + size > ROUND_ROWS:
                    self._finish_round(pending)
                    turn_start = time.perf_counter()
                self.faults.crash_point("turn.before_serve")
                batch = [queue.popleft() for _ in range(size)]
                pending.append(self._prepare_chat_turn(user, batch, turn_start, pending))
                served += size
            else:
                self._finish_round(pending)
                turn_start = time.perf_counter()
                self.faults.crash_point("turn.before_serve")
                request = queue.popleft()
                swap_seconds = self._serve_personalize_turn(user, request)
                served += 1
                self._record_turn(
                    user,
                    PERSONALIZE,
                    [request.request_id],
                    swap_seconds,
                    time.perf_counter() - turn_start,
                    self.pending_count,
                )
            # Strict round-robin: move past the user just served so one heavy
            # queue cannot monopolize consecutive turns.
            self._cursor += 1
        self._finish_round(pending)
        elapsed = time.perf_counter() - start
        self._runs_counter.inc()
        self.metrics.gauge("pending_requests", merge="sum").set(self.pending_count)
        self.metrics.gauge("requests_per_second", merge="sum").set(
            served / elapsed if elapsed > 0 else 0.0
        )
        run_tokens = self._tokens_counter.value - tokens_start
        self.metrics.gauge("tokens_per_second", merge="sum").set(
            run_tokens / elapsed if elapsed > 0 else 0.0
        )
        observe_health(self.metrics, self.health_report())

    def _record_turn(
        self,
        user: str,
        kind: str,
        request_ids: List[int],
        swap_seconds: float,
        turn_seconds: float,
        queue_depth: int,
    ) -> None:
        """Account one finished turn: its metrics and its :class:`ServeTurn`.

        ``queue_depth`` is the number of requests still queued right after
        the turn took its batch.
        """
        self.metrics.counter("serve_requests_total", kind=kind).inc(len(request_ids))
        self.metrics.histogram("turn_seconds", kind=kind).observe(turn_seconds)
        self.metrics.histogram("batch_occupancy", buckets=COUNT_BUCKETS).observe(
            len(request_ids)
        )
        if swap_seconds > 0.0:
            self.metrics.histogram("swap_seconds").observe(swap_seconds)
        self.metrics.histogram("queue_depth", buckets=COUNT_BUCKETS).observe(queue_depth)
        self.turns.append(
            ServeTurn(
                index=len(self.turns),
                user_id=user,
                kind=kind,
                request_ids=request_ids,
                batch_size=len(request_ids),
                swap_seconds=swap_seconds,
                seconds=turn_seconds,
            )
        )

    def health_report(self) -> Dict[str, dict]:
        """The health of every serving component, keyed by component name."""
        components = [
            self.health,
            self.sessions.health,
            self.sessions.store.health,
        ]
        if self.journal is not None:
            components.append(self.journal.health)
        return {component.component: component.to_dict() for component in components}

    # ------------------------------------------------------------------ #
    # retry / dead-letter plumbing
    # ------------------------------------------------------------------ #
    def _with_retries(self, operation):
        """Run ``operation``, retrying transient failures per the policy."""
        attempt = 1
        while True:
            try:
                return operation()
            except TransientServingError:
                if self.retry is None or attempt >= self.retry.max_attempts:
                    raise
                self._retries_counter.inc()
                time.sleep(self.retry.delay(attempt, self._retry_rng))
                attempt += 1

    def _dead_letter(self, request: Request, kind: str, error: BaseException) -> dict:
        """Record one poisoned request; it will never be retried again."""
        entry = {
            "request_id": request.request_id,
            "user_id": request.user_id,
            "kind": kind,
            "dead_letter": True,
            "error": type(error).__name__,
            "reason": str(error),
        }
        self.dead_letters.append(entry)
        self._dead_letter_counter.inc()
        if self.journal is not None:
            self.journal.record_dead_letter(entry)
        # Emit *after* journaling: once a listener (the socket front-end)
        # forwards the dead-letter frame to a client, the failure is durable.
        self._emit(entry)
        self.health.degrade(f"dead-lettered request {request.request_id} ({type(error).__name__})")
        return entry

    def _check_deadline(self, batch_size: int) -> Optional[DeadlineExceededError]:
        """The deadline violation for the next serve, if any.

        Latency is *virtual*: the fault injector decides how slow the next
        session serve is, and that virtual latency is charged against the
        per-request deadline.  Chaos runs therefore stay fast and, unlike a
        wall-clock deadline, perfectly deterministic.
        """
        delay = self.faults.session_delay()
        if self.deadline_seconds is not None and delay > self.deadline_seconds:
            return DeadlineExceededError(
                f"session latency {delay:.1f}s exceeds the "
                f"{self.deadline_seconds:.1f}s deadline ({batch_size} request(s))"
            )
        return None

    # ------------------------------------------------------------------ #
    # per-kind serving
    # ------------------------------------------------------------------ #
    def _prepare_chat_turn(
        self,
        user: str,
        batch: List[ChatRequest],
        started: float,
        pending: Sequence[_PendingChat],
    ) -> _PendingChat:
        """Everything a chat turn does before the shared decode.

        The deadline check and the adapter fetch run per turn, in ring
        order, so fault schedules see the same calls as serving turn by
        turn.  Failure ladder: transient errors are retried; exhausted
        retries fall back to the blank adapter (an answer from the shared
        base model beats no answer); only when even that fails — or a
        deadline/permanent error strikes — does the batch dead-letter, at
        the turn's place in :meth:`_finish_round`.
        """
        turn = _PendingChat(user, batch, started, self.pending_count)
        try:
            deadline_error = self._check_deadline(len(batch))
            if deadline_error is not None:
                raise deadline_error
            previous = pending[-1] if pending else None
            if (
                previous is not None
                and previous.user_id == user
                and previous.adapter is not None
                and not previous.degraded
            ):
                # The user's adapter is already in this round: nothing to fetch.
                turn.adapter = previous.adapter
            else:
                try:
                    turn.adapter = self._with_retries(lambda: self.sessions.chat_adapter(user))
                except TransientServingError:
                    turn.adapter = self.sessions.degraded_adapter(user)
                    turn.degraded = True
                    self._degraded_counter.inc(len(batch))
        except ServingError as error:
            turn.error = error
        return turn

    def _finish_round(self, pending: List[_PendingChat]) -> None:
        """Decode the pending chat turns in one shared round, then finish each.

        One :meth:`SessionManager.respond_round` call decodes every row, each
        turn's rows with that turn's adapter.  Afterwards the per-turn side
        effects run turn by turn in ring order — the ``chat.after_serve``
        crash point, the journal's ``record_complete`` and entry emission
        (or the dead letters of a failed turn) — so journals and transcripts
        match serving the turns one at a time.  Empties ``pending``.

        The round's time is charged in emission order: the first turn's
        seconds run from its start to its emission (every adapter fetch of
        the round and the shared decode), each later turn's from the
        previous emission to its own.  Turns therefore never overlap and
        still add up to the scheduler's busy time.
        """
        if not pending:
            return
        decoded = [turn for turn in pending if turn.adapter is not None]
        answers: List[List[str]] = []
        if decoded:
            answers = self.sessions.respond_round(
                [
                    (turn.user_id, [request.question for request in turn.batch], turn.adapter)
                    for turn in decoded
                ],
                generation=self.generation,
            )
            self.metrics.histogram("decode_rows", buckets=COUNT_BUCKETS).observe(
                _round_rows(pending)
            )
        responses_by_turn = iter(answers)
        charged_until = pending[0].started
        for turn in pending:
            if turn.adapter is None:
                for request in turn.batch:
                    self._dead_letter(request, CHAT, turn.error)
            else:
                self._complete_chat_turn(turn, next(responses_by_turn))
            finished = time.perf_counter()
            self._record_turn(
                turn.user_id,
                CHAT,
                [request.request_id for request in turn.batch],
                0.0,
                finished - charged_until,
                turn.queue_depth,
            )
            charged_until = finished
        pending.clear()

    def _complete_chat_turn(self, turn: _PendingChat, responses: List[str]) -> None:
        """Journal and emit one decoded chat turn's entries."""
        self.faults.crash_point("chat.after_serve")
        # The tokenizer is word-level, so response word counts are the
        # generated-token tally behind the tokens/sec gauge.
        self._tokens_counter.inc(sum(len(response.split()) for response in responses))
        entries = []
        for request, response in zip(turn.batch, responses):
            entry = {
                "request_id": request.request_id,
                "user_id": turn.user_id,
                "kind": CHAT,
                "question": request.question,
                "response": response,
            }
            if turn.degraded:
                entry["degraded"] = True
            entries.append(entry)
        if self.journal is not None:
            self.journal.record_complete(entries)
        for entry in entries:
            self._emit(entry)

    def _serve_personalize_turn(self, user: str, request: PersonalizeRequest) -> float:
        """Serve one personalize job exactly once; returns the swap latency.

        The write-ahead sequence (crash points in parentheses):

        1. deadline check — *before* any state changes, never after;
        2. attach the user's adapter, with retries (safe: attaching mutates
           nothing durable);
        3. journal the intent with the round counter as it stands
           (``personalize.after_intent``);
        4. apply in memory — pipeline stages + fine-tune round
           (``personalize.after_apply``);
        5. commit: per-user engine checkpoint whose manifest carries
           ``{request_id, round, entry}`` (``personalize.after_commit``);
        6. flush the adapter (with its round fence) to disk, with retries
           (``personalize.after_flush``);
        7. journal completion.

        A crash before 5 leaves no durable trace of the round, so replay
        re-applies from identical state (same result, by determinism); a
        crash after 5 is detected by recovery, which rolls the adapter
        forward from the checkpoint and marks the request complete without
        re-applying.  Personalize jobs cannot run degraded: training against
        the blank adapter would silently fork the user's personalization, so
        persistent failure dead-letters instead.
        """
        deadline_error = self._check_deadline(1)
        if deadline_error is not None:
            self._dead_letter(request, PERSONALIZE, deadline_error)
            return 0.0
        try:
            swap_seconds = self._with_retries(lambda: self.sessions.attach(user))
            session = self.sessions.session(user)
        except ServingError as error:
            self._dead_letter(request, PERSONALIZE, error)
            return 0.0
        engine = session.framework.engine
        round_before = engine.finetune_round_count
        if self.journal is not None:
            self.journal.record_intent(request.request_id, user, round_before)
        self.faults.crash_point("personalize.after_intent")
        outcome = self.sessions.personalize(
            user, list(request.dialogues), finetune=request.finetune
        )
        self.faults.crash_point("personalize.after_apply")
        final_loss = round(outcome.report.final_loss, 8) if outcome.report is not None else None
        entry = {
            "request_id": request.request_id,
            "user_id": user,
            "kind": PERSONALIZE,
            "offered": outcome.offered,
            "accepted": outcome.accepted,
            "finetuned": outcome.finetuned,
            "final_loss": final_loss,
        }
        if self.checkpoint_sessions:
            self._commit_seq += 1
            self.sessions.checkpoint_session(
                user,
                extra={
                    "request_id": request.request_id,
                    "round": engine.finetune_round_count,
                    "commit_seq": self._commit_seq,
                    "entry": entry,
                },
            )
        self.faults.crash_point("personalize.after_commit")
        try:
            self._with_retries(lambda: self.sessions.flush())
        except TransientServingError as error:
            # The round is committed (checkpoint manifest written); recovery
            # can roll the adapter forward from it, so a failed flush only
            # degrades the store instead of undoing an applied fine-tune.
            self.sessions.store.health.degrade(f"post-commit adapter flush failed: {error}")
        self.faults.crash_point("personalize.after_flush")
        if self.journal is not None:
            self.journal.record_complete([entry])
        self._emit(entry)
        return swap_seconds
    # NOTE: sessions.personalize itself tolerates a transient write-back
    # failure (the user stays dirty and the next flush retries), so step 4
    # never double-applies: there is no retry wrapped around the apply.
