"""Async network front-end: real sockets in front of the request scheduler.

``repro serve --listen HOST:PORT`` promotes the in-process serving core
(PRs 3/6) into an actual server: an :mod:`asyncio` TCP front-end speaking a
small newline-delimited JSON protocol —

* ``connect`` — bind the connection to a user id;
* ``chat`` — answer one question, streamed back as incremental ``token``
  frames followed by a ``done`` frame;
* ``personalize`` — feed annotated dialogue sets through the pipeline
  stages and fine-tune the user's adapter;
* ``metrics`` — the versioned observability frame: serving counters,
  component health and the full metrics-registry snapshot in one payload;
* ``bye`` / ``shutdown`` — close one connection / drain the whole server.

The event loop never touches the model.  Accepted requests cross a
**bounded bridge** (:class:`PoolBridge`) into a
:class:`~repro.serve.shard.ShardPool` — one worker thread for
``--workers 1``, forked shard workers for more — whose workers each own a
:class:`~repro.serve.runner.ShardServer`, the serving core every entry
point shares.  Same-adapter batching, round-robin fairness, the journal,
retries and the dead-letter ladder all apply unchanged to socket traffic.
Admission is limited by a global queue depth and a per-user in-flight cap;
requests over either bound are refused with a ``busy`` frame instead of
buffering unboundedly, so a flood (or a slow client pipelining blindly)
can never grow the bridge past its bound.

``SIGINT``/``SIGTERM`` (or a ``shutdown`` op) drain gracefully: admission
closes, the workers finish every accepted request, every produced frame —
including dead-letter frames — is flushed to its client, and only then do
the sockets close.  With a ``state_dir`` the run is durable exactly like
``repro serve``: requests are journaled on submission, an injected soft
crash restarts the core in place, and a killed server resumes through the
same recovery (topology and workload fences checked, committed fine-tunes
rolled forward, the rest re-served before the socket opens).

Determinism across runs is fingerprinted by the one transcript digest
every serving path reports
(:func:`~repro.serve.runner.aggregate_transcript_digest`): entries are
keyed by ``(user_id, per-user sequence number)`` instead of the
globally-assigned request id, because the global arrival interleaving of
concurrent connections is scheduling noise while each user's own order is
carried in-order by its connection.  Chat responses are greedy and per-user
adapter state is order-independent across users (the PR-6 reseeding
discipline), so two runs of the same per-user workloads produce
byte-identical digests no matter how the network interleaves them — the
property the trace record/replay loadgen (:mod:`repro.serve.trace`) and the
``frontend-smoke`` CI job assert over real sockets.  A drained run reports
the same :class:`~repro.serve.runner.ServeOutcome` as ``repro serve``, plus
its traffic facts (listen address, busy refusals, peak queue depth).
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.data.dialogue import DialogueSet
from repro.data.lexicons import LexiconCollection, builtin_lexicons
from repro.llm.model import OnDeviceLLM
from repro.obs import MetricsRegistry, PeriodicSnapshotter, merge_snapshots, observe_health
from repro.serve.adapter_store import AdapterStoreError, validate_user_id
from repro.serve.config import ServeConfig, parse_listen
from repro.serve.errors import ServingError
from repro.serve.health import ComponentHealth, HealthRegistry
from repro.serve.loadgen import LoadConfig, build_serving_llm
from repro.serve.runner import ServeOutcome, aggregate_transcript_digest, served_counts
from repro.serve.scheduler import CHAT, PERSONALIZE, ChatRequest, PersonalizeRequest, Request
from repro.serve.shard import ShardPool, ShardPoolError

PROTOCOL_VERSION = 3
SERVER_NAME = "repro-serve"

#: Schema version of the ``metrics`` frame body.
METRICS_FRAME_SCHEMA = 1

#: One frame (a newline-terminated JSON object) may be at most this long.
MAX_FRAME_BYTES = 1 << 20

DEFAULT_MAX_QUEUE_DEPTH = 64
DEFAULT_MAX_INFLIGHT_PER_USER = 4

# Client -> server operations.
OP_CONNECT = "connect"
OP_CHAT = "chat"
OP_PERSONALIZE = "personalize"
OP_METRICS = "metrics"
OP_BYE = "bye"
OP_SHUTDOWN = "shutdown"

# Server -> client frame kinds.
FRAME_HELLO = "hello"
FRAME_TOKEN = "token"
FRAME_DONE = "done"
FRAME_DEAD_LETTER = "dead_letter"
FRAME_BUSY = "busy"
FRAME_ERROR = "error"
FRAME_METRICS = "metrics"
FRAME_BYE = "bye"

# Typed error codes carried by ``error`` frames.
ERR_PROTOCOL = "protocol"  # undecodable line / not a JSON object
ERR_OVERSIZED = "oversized"  # frame longer than MAX_FRAME_BYTES
ERR_UNKNOWN_OP = "unknown_op"  # well-formed frame, unrecognized "op"
ERR_BAD_PAYLOAD = "bad_payload"  # recognized op, missing/ill-typed fields

# ``busy`` frame reasons.
BUSY_QUEUE_FULL = "queue_full"
BUSY_USER_LIMIT = "user_limit"
BUSY_DRAINING = "draining"


class ProtocolError(ServingError):
    """A frame violated the wire protocol (carries the typed error code)."""

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


def encode_frame(frame: dict) -> bytes:
    """One wire frame: canonical JSON + ``\\n`` (raises when oversized)."""
    data = json.dumps(frame, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(ERR_OVERSIZED, f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return data + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict (raises :class:`ProtocolError`)."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(ERR_OVERSIZED, f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, arrays nested too deep to parse.
        raise ProtocolError(ERR_PROTOCOL, f"frame is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(ERR_PROTOCOL, "frame must be a JSON object")
    return payload


def stream_chunks(text: str) -> List[str]:
    """How a response is split into incremental ``token`` frames.

    Word-level chunks (the reproduction's tokenizer is word-level); joining
    with single spaces reconstructs the response exactly, and the ``done``
    frame carries the authoritative full string regardless.
    """
    return text.split(" ") if text else []


# ---------------------------------------------------------------------- #
# the bridge: event loop -> shard pool
# ---------------------------------------------------------------------- #
class PoolBridge:
    """Admission in front of a :class:`~repro.serve.shard.ShardPool`, delivery back.

    The event loop *admits* requests (:meth:`try_admit`, then
    :meth:`enqueue`).  ``max_queue_depth`` bounds the total
    accepted-but-unfinished requests and ``max_inflight_per_user`` bounds
    any single user, so neither a flood nor one greedy client can grow the
    bridge beyond its bounds — the overflow is refused with a ``busy``
    frame, never buffered.  Admitted requests get their globally unique
    request id here, in arrival order, above every id the journals have
    seen, and go to their consistent-hash shard.  Its worker serves every
    request queued so far in one batch and streams normalized entries back
    through the pool's ``on_entry`` hook the moment each is produced, so
    dead-letter frames reach clients as promptly as successes.  Because
    each user's requests travel in arrival order to a single shard, the
    per-user sequence numbers match what one scheduler would have assigned
    — the transcript digest is byte-identical for any worker count.
    """

    def __init__(
        self,
        pool: ShardPool,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_inflight_per_user: int = DEFAULT_MAX_INFLIGHT_PER_USER,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_inflight_per_user < 1:
            raise ValueError(f"max_inflight_per_user must be >= 1, got {max_inflight_per_user}")
        self.pool = pool
        pool.on_entry = self._on_entry
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_user = max_inflight_per_user
        self.health = ComponentHealth("frontend")
        self._lock = threading.Lock()
        self._inflight: Dict[str, int] = {}
        self._inflight_total = 0
        self._deliveries: Dict[int, Callable[[dict], None]] = {}
        self._request_users: Dict[int, str] = {}
        self._next_request_id = 0
        self._stopped = False
        self.busy_rejections = 0
        self.max_depth_seen = 0
        #: The shard summaries, once drained (see :class:`ServeOutcome`).
        self.summaries: List[dict] = []

    def boot(self, timeout: float = 300.0) -> None:
        """Start the shards; each replays its own journal before the socket opens."""
        infos = self.pool.start(timeout=timeout)
        self._next_request_id = max((info["next_request_id"] for info in infos), default=0)

    # -- admission (event-loop thread) --------------------------------- #
    def try_admit(self, user_id: str) -> Optional[str]:
        """Reserve one in-flight slot; returns a ``busy`` reason or None."""
        with self._lock:
            if self._inflight_total >= self.max_queue_depth:
                self.busy_rejections += 1
                return BUSY_QUEUE_FULL
            if self._inflight.get(user_id, 0) >= self.max_inflight_per_user:
                self.busy_rejections += 1
                return BUSY_USER_LIMIT
            self._inflight_total += 1
            self._inflight[user_id] = self._inflight.get(user_id, 0) + 1
            self.max_depth_seen = max(self.max_depth_seen, self._inflight_total)
            return None

    def enqueue(self, request: Request, deliver: Callable[[dict], None]) -> None:
        """Give one *admitted* request its id and route it to its shard.

        A shard that is gone answers at once with an (unjournaled) dead
        letter instead of leaving the client waiting.
        """
        with self._lock:
            request = replace(request, request_id=self._next_request_id)
            self._next_request_id += 1
            self._deliveries[request.request_id] = deliver
            self._request_users[request.request_id] = request.user_id
        try:
            self.pool.submit(request)
        except ShardPoolError as error:
            self.health.fail(str(error))
            self._dead_letter(request.request_id, request.user_id, str(error))

    @property
    def inflight_total(self) -> int:
        with self._lock:
            return self._inflight_total

    # -- results (serving threads) -------------------------------------- #
    def _release(self, request_id: int) -> Optional[Callable[[dict], None]]:
        with self._lock:
            deliver = self._deliveries.pop(request_id, None)
            user = self._request_users.pop(request_id, None)
            if deliver is not None:
                self._inflight_total -= 1
                if user is not None and user in self._inflight:
                    self._inflight[user] -= 1
            return deliver

    def _on_entry(self, request_id: int, entry: dict) -> None:
        deliver = self._release(request_id)
        if deliver is not None:
            deliver(entry)

    def _dead_letter(self, request_id: int, user: str, reason: str) -> None:
        """Answer a waiting client with a synthetic (unjournaled) dead letter."""
        entry = {"user_id": user, "kind": "error", "dead_letter": True}
        self._on_entry(request_id, {**entry, "error": "ShardPoolError", "reason": reason})

    # -- drain ---------------------------------------------------------- #
    def stop(self) -> None:
        """Drain every shard, then release any stranded deliveries.

        Blocking; called off the event loop, once admission is closed.  All
        of a worker's entries reach :meth:`_on_entry` before its drain
        completes, so every delivery is posted to the event loop before this
        returns.  If a shard died, its clients get synthetic (unjournaled)
        dead-letter frames instead of hanging.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        try:
            self.summaries = self.pool.drain()
        except Exception as error:  # pragma: no cover - defensive
            self.health.fail(f"shard pool drain failed: {type(error).__name__}: {error}")
        with self._lock:
            stranded = [(rid, self._request_users.get(rid, "?")) for rid in self._deliveries]
        for request_id, user in stranded:
            self._dead_letter(request_id, user, "shard worker died before serving this request")


# ---------------------------------------------------------------------- #
# per-connection protocol handling
# ---------------------------------------------------------------------- #
_CLOSE = object()


class _Connection:
    """One client connection: a reader loop plus a serialized writer task.

    All frames leave through one outbox queue consumed by a single writer
    coroutine, so token streams never interleave with other frames and a
    slow client (whose ``drain()`` blocks) stalls only its own writer — the
    bridge keeps serving everyone else.
    """

    def __init__(self, frontend: "ServeFrontend", reader, writer) -> None:
        self.frontend = frontend
        self.reader = reader
        self.writer = writer
        self.user_id: Optional[str] = None
        self.outbox: "asyncio.Queue" = asyncio.Queue()
        self.closed = False
        self._writer_task: Optional[asyncio.Task] = None

    # -- outbox -------------------------------------------------------- #
    def send_frame(self, frame: dict) -> None:
        if not self.closed:
            self.outbox.put_nowait(("frame", frame))

    def send_result(self, client_id: object, entry: dict) -> None:
        if not self.closed:
            self.outbox.put_nowait(("result", client_id, entry))

    def shutdown(self) -> None:
        """Close after flushing everything already queued."""
        if not self.closed:
            self.closed = True
            self.outbox.put_nowait(_CLOSE)

    # -- the two coroutines -------------------------------------------- #
    async def handle(self) -> None:
        self._writer_task = asyncio.ensure_future(self._write_loop())
        try:
            while True:
                try:
                    line = await self.reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    # EOF mid-line: a torn final frame, exactly like the
                    # journal's torn tail — ignore it and close quietly.
                    break
                except asyncio.LimitOverrunError:
                    self.send_frame(
                        _error_frame(None, ERR_OVERSIZED, "frame exceeds the 1 MiB limit")
                    )
                    break
                except (ConnectionResetError, OSError):
                    break
                try:
                    op = decode_frame(line)
                except ProtocolError as error:
                    # Framing is intact (the newline was found), so protocol
                    # errors are recoverable: report and keep reading.
                    self.send_frame(_error_frame(None, error.code, error.reason))
                    continue
                if await self._dispatch(op):
                    break
        finally:
            self.shutdown()
            if self._writer_task is not None:
                try:
                    await self._writer_task
                except asyncio.CancelledError:  # pragma: no cover - teardown
                    pass

    async def _write_loop(self) -> None:
        try:
            while True:
                item = await self.outbox.get()
                if item is _CLOSE:
                    break
                if item[0] == "frame":
                    data = encode_frame(item[1])
                else:
                    # A finished request's frames go out in one write and
                    # one drain, however many token frames it has.
                    frames = _result_frames(item[1], item[2])
                    data = b"".join(encode_frame(frame) for frame in frames)
                self.writer.write(data)
                await self.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # the client went away; results stay journaled server-side
        finally:
            self.closed = True
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- dispatch ------------------------------------------------------ #
    async def _dispatch(self, op: dict) -> bool:
        """Handle one client op; returns True when the connection should end."""
        kind = op.get("op")
        client_id = op.get("id")
        if kind == OP_CONNECT:
            user = op.get("user_id")
            try:
                validate_user_id(user if isinstance(user, str) else "")
            except (AdapterStoreError, ValueError, TypeError):
                self.send_frame(
                    _error_frame(client_id, ERR_BAD_PAYLOAD, f"invalid user_id {user!r}")
                )
                return False
            self.user_id = user
            self.send_frame(
                {
                    "frame": FRAME_HELLO,
                    "id": client_id,
                    "user_id": user,
                    "server": SERVER_NAME,
                    "protocol": PROTOCOL_VERSION,
                }
            )
            return False
        if kind in (OP_CHAT, OP_PERSONALIZE):
            self._dispatch_request(kind, client_id, op)
            return False
        if kind == OP_METRICS:
            # Collecting the shards' status can cross worker pipes, so it
            # runs off the event loop.
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, self.frontend.metrics_payload)
            self.send_frame({"frame": FRAME_METRICS, "id": client_id, **payload})
            return False
        if kind == OP_BYE:
            self.send_frame({"frame": FRAME_BYE, "id": client_id})
            return True
        if kind == OP_SHUTDOWN:
            self.send_frame({"frame": FRAME_BYE, "id": client_id, "draining": True})
            self.frontend.request_drain()
            return True
        self.send_frame(_error_frame(client_id, ERR_UNKNOWN_OP, f"unknown op {kind!r}"))
        return False

    def _dispatch_request(self, kind: str, client_id: object, op: dict) -> None:
        """Admission + hand-off for the two serving ops."""
        user = op.get("user_id") or self.user_id
        if not isinstance(user, str) or not user:
            self.send_frame(
                _error_frame(
                    client_id, ERR_BAD_PAYLOAD, f"{kind} needs a user (send connect first)"
                )
            )
            return
        try:
            validate_user_id(user)
            request = self._build_request(kind, user, op)
        except ProtocolError as error:
            self.send_frame(_error_frame(client_id, error.code, error.reason))
            return
        except (AdapterStoreError, ValueError, TypeError) as error:
            self.send_frame(_error_frame(client_id, ERR_BAD_PAYLOAD, str(error)))
            return
        if self.frontend.draining:
            self.send_frame({"frame": FRAME_BUSY, "id": client_id, "reason": BUSY_DRAINING})
            return
        reason = self.frontend.bridge.try_admit(user)
        if reason is not None:
            self.send_frame({"frame": FRAME_BUSY, "id": client_id, "reason": reason})
            return
        self.frontend.record_admitted(kind, user, op)
        loop = asyncio.get_running_loop()

        def deliver(entry: dict, conn: "_Connection" = self) -> None:
            # Worker thread -> event loop; FIFO of call_soon_threadsafe
            # guarantees every result lands in the outbox before the drain
            # sequence (which runs after the worker joins) posts _CLOSE.
            loop.call_soon_threadsafe(conn.send_result, client_id, entry)

        self.frontend.bridge.enqueue(request, deliver)

    def _build_request(self, kind: str, user: str, op: dict) -> Request:
        if kind == OP_CHAT:
            question = op.get("question")
            if not isinstance(question, str):
                raise ProtocolError(ERR_BAD_PAYLOAD, "chat needs a string 'question'")
            return ChatRequest(user_id=user, question=question)
        dialogues = op.get("dialogues")
        if not isinstance(dialogues, list) or not dialogues:
            raise ProtocolError(
                ERR_BAD_PAYLOAD, "personalize needs a non-empty 'dialogues' list"
            )
        try:
            decoded = tuple(DialogueSet.from_dict(item) for item in dialogues)
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ProtocolError(
                ERR_BAD_PAYLOAD, f"undecodable dialogue set: {error}"
            ) from None
        return PersonalizeRequest(
            user_id=user, dialogues=decoded, finetune=bool(op.get("finetune", True))
        )


def _error_frame(client_id: object, code: str, reason: str) -> dict:
    return {"frame": FRAME_ERROR, "id": client_id, "error": code, "reason": reason}


def _result_frames(client_id: object, entry: dict) -> List[dict]:
    """The frame sequence one finished request sends back to its client."""
    if entry.get("dead_letter"):
        return [
            {
                "frame": FRAME_DEAD_LETTER,
                "id": client_id,
                "kind": entry.get("kind"),
                "error": entry.get("error"),
                "reason": entry.get("reason"),
            }
        ]
    if entry.get("kind") == CHAT:
        frames: List[dict] = [
            {"frame": FRAME_TOKEN, "id": client_id, "index": index, "text": chunk}
            for index, chunk in enumerate(stream_chunks(entry.get("response", "")))
        ]
        done = {
            "frame": FRAME_DONE,
            "id": client_id,
            "kind": CHAT,
            "response": entry.get("response", ""),
        }
        if entry.get("degraded"):
            done["degraded"] = True
        frames.append(done)
        return frames
    return [
        {
            "frame": FRAME_DONE,
            "id": client_id,
            "kind": PERSONALIZE,
            "offered": entry.get("offered"),
            "accepted": entry.get("accepted"),
            "finetuned": entry.get("finetuned"),
            "final_loss": entry.get("final_loss"),
        }
    ]


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #
class ServeFrontend:
    """The asyncio TCP server in front of one :class:`PoolBridge`.

    Construction is cheap; :meth:`run` builds the serving environment (the
    base model, then a :class:`PoolBridge` over a
    :class:`~repro.serve.shard.ShardPool` of ``config.workers`` workers),
    recovers from the journals, binds the socket and serves until drained.
    :class:`FrontendThread` wraps it for callers that need the server in a
    background thread (tests, benchmarks, ``repro replay``).

    ``llm`` and ``lexicons`` are runtime objects to reuse; ``shard_mode``
    picks the pool's worker mode (a test hook).
    """

    def __init__(
        self,
        config: ServeConfig,
        llm: Optional[OnDeviceLLM] = None,
        lexicons: Optional[LexiconCollection] = None,
        shard_mode: Optional[str] = None,
    ) -> None:
        if not isinstance(config, ServeConfig):
            raise TypeError(f"ServeFrontend() takes a ServeConfig, not {type(config).__name__}")
        self.host, self.port = parse_listen(config.listen) if config.listen else ("127.0.0.1", 0)
        # Socket traffic has no synthetic workload, so the journal's
        # workload fence records the model's identity (seed and dataset).
        stub = LoadConfig(num_users=1, num_requests=1, dataset=config.dataset, seed=config.seed)
        self.config = config.with_(load=stub)
        self.scale = config.resolved_scale()
        self.llm = llm
        self.lexicons = lexicons or builtin_lexicons()
        #: This process's own metrics: the folded-in component health.
        self.metrics = MetricsRegistry()
        self.shard_mode = shard_mode
        self.bridge: Optional[PoolBridge] = None
        self.recorder = None
        self.draining = False
        self.started = threading.Event()
        self.bound_port: Optional[int] = None
        self.outcome: Optional[ServeOutcome] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_event: Optional[asyncio.Event] = None
        self._drain_requested_early = False
        self._connections: set = set()
        self._handler_tasks: set = set()

    # -- environment construction -------------------------------------- #
    def _build(self) -> None:
        """The base model and the bridge; journals replay before the socket opens."""
        config = self.config
        if self.llm is None:
            self.llm = build_serving_llm(
                self.scale,
                dataset=config.dataset,
                seed=config.seed,
                lexicons=self.lexicons,
                pretrain_epochs=config.pretrain_epochs,
            )
        pool = ShardPool(config, self.llm, mode=self.shard_mode, lexicons=self.lexicons)
        self.bridge = PoolBridge(pool, config.max_queue_depth, config.max_inflight_per_user)
        self.bridge.boot()

    # -- recording ------------------------------------------------------ #
    def record_admitted(self, kind: str, user: str, op: dict) -> None:
        """Trace hook: every admitted request, in per-user admission order."""
        if self.recorder is None:
            return
        if kind == OP_CHAT:
            payload = {"question": op.get("question")}
        else:
            payload = {
                "dialogues": op.get("dialogues"),
                "finetune": bool(op.get("finetune", True)),
            }
        self.recorder.record_request(user, kind, payload)

    # -- live introspection -------------------------------------------- #
    def stats(self, views: List[dict]) -> dict:
        """The serving-counter half of the ``metrics`` frame body.

        ``views`` are the shards' :meth:`~repro.serve.shard.ShardPool.statuses`.
        One schema for every worker count: ``workers`` is always present,
        and ``queue_depths`` / ``pending`` cover every shard's scheduler.
        """
        depths = {user: depth for view in views for user, depth in view["queue_depths"].items()}
        transcript = self.bridge.pool.normalized_entries()
        return {
            "served": served_counts(transcript),
            "pending": sum(depths.values()),
            "inflight": self.bridge.inflight_total,
            "busy_rejections": self.bridge.busy_rejections,
            "queue_depths": depths,
            "workers": self.config.workers,
            "draining": self.draining,
            "transcript_digest": aggregate_transcript_digest(transcript),
        }

    def health_snapshot(self, views: List[dict]) -> dict:
        """The front-end's health plus every shard's components (each
        component at its worst state across shards)."""
        registry = HealthRegistry.from_components([self.bridge.health])
        for view in views:
            for name, report in view["health"].items():
                (registry.get(name) or registry.register(ComponentHealth(name))).merge(report)
        return registry.to_dict()

    def metrics_snapshot(self, views: Optional[List[dict]] = None) -> dict:
        """Every shard's registry snapshot merged with this process's own.

        The component health is folded in first, so the snapshot has the
        same key set for any worker count.
        """
        if views is None:
            views = self.bridge.pool.statuses()
        observe_health(self.metrics, self.health_snapshot(views)["components"])
        return merge_snapshots([*(view["metrics"] for view in views), self.metrics.snapshot()])

    def metrics_payload(self) -> dict:
        """The versioned body the ``metrics`` op returns."""
        views = self.bridge.pool.statuses()
        payload = self.stats(views)
        payload.update(self.health_snapshot(views))
        payload["metrics"] = self.metrics_snapshot(views)
        payload["schema"] = METRICS_FRAME_SCHEMA
        payload["server"] = SERVER_NAME
        payload["protocol"] = PROTOCOL_VERSION
        return payload

    # -- drain ---------------------------------------------------------- #
    def request_drain(self) -> None:
        """Begin graceful shutdown; safe from any thread and from signals."""
        self.draining = True
        if self._loop is None or self._drain_event is None:
            self._drain_requested_early = True
            return

        def _set() -> None:
            self._drain_event.set()

        try:
            self._loop.call_soon_threadsafe(_set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- the run -------------------------------------------------------- #
    def run(self) -> ServeOutcome:
        """Build, serve until drained, and report; blocks the calling thread."""
        self._build()
        config = self.config
        if config.trace_out is not None:
            from repro.serve.trace import TraceRecorder

            self.recorder = TraceRecorder(
                config.trace_out,
                meta={
                    "scale": self.scale.name,
                    "seed": config.seed,
                    "dataset": config.dataset,
                    "pretrain_epochs": config.pretrain_epochs,
                    "max_batch_size": config.max_batch_size,
                },
            )
        snapshotter: Optional[PeriodicSnapshotter] = None
        if config.metrics_enabled and config.metrics_out is not None:
            snapshotter = PeriodicSnapshotter(
                self.metrics,
                config.metrics_out,
                config.metrics_interval_seconds,
                snapshot_fn=self.metrics_snapshot,
            ).start()
        start = time.perf_counter()
        try:
            asyncio.run(self._serve())
        finally:
            elapsed = time.perf_counter() - start
            self.bridge.stop()  # already drained unless serving failed
            if snapshotter is not None:
                snapshotter.stop()
        port = self.bound_port if self.bound_port is not None else self.port
        self.outcome = ServeOutcome.build(
            self.bridge.pool.normalized_entries(),
            self.bridge.summaries,
            elapsed,
            metrics=self.metrics_snapshot() if config.metrics_enabled else None,
            listen=f"{self.host}:{port}",
            busy_rejections=self.bridge.busy_rejections,
            max_queue_depth_seen=self.bridge.max_depth_seen,
        )
        if self.recorder is not None:
            self.recorder.record_summary(
                digest=self.outcome.transcript_digest,
                requests=self.outcome.total_requests,
            )
            self.recorder.close()
        return self.outcome

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        if self._drain_requested_early:
            self._drain_event.set()
        server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_FRAME_BYTES + 1024
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        port_file = self.config.port_file
        if port_file is not None:
            Path(port_file).parent.mkdir(parents=True, exist_ok=True)
            Path(port_file).write_text(f"{self.bound_port}\n")
        installed: List[int] = []
        if self.config.install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(signum, self.request_drain)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
        self.started.set()
        try:
            await self._drain_event.wait()
            self.draining = True
            server.close()
            await self._loop.run_in_executor(None, self.bridge.stop)
            # All deliveries were posted with call_soon_threadsafe *before*
            # the executor completion that resumed us, and the loop runs its
            # ready queue FIFO — every result frame is in its outbox now.
            for connection in list(self._connections):
                connection.shutdown()
            if self._handler_tasks:
                await asyncio.wait(list(self._handler_tasks), timeout=10.0)
                for task in list(self._handler_tasks):
                    if not task.done():  # pragma: no cover - hung client
                        task.cancel()
        finally:
            for signum in installed:
                try:
                    self._loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            server.close()
            try:
                await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - hung handler
                pass

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handler_tasks.add(task)
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        try:
            await connection.handle()
        finally:
            self._connections.discard(connection)
            self._handler_tasks.discard(task)


class FrontendThread:
    """Run a :class:`ServeFrontend` in a background thread (tests, replay, bench)."""

    def __init__(self, frontend: ServeFrontend) -> None:
        self.frontend = frontend
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-frontend", daemon=True
        )

    def _run(self) -> None:
        try:
            self.frontend.run()
        except BaseException as error:  # pragma: no cover - surfaced via .stop()
            self.error = error
            self.frontend.started.set()

    def start(self, timeout: float = 120.0) -> Tuple[str, int]:
        """Start serving; returns ``(host, port)`` once the socket is bound."""
        self._thread.start()
        if not self.frontend.started.wait(timeout):
            raise TimeoutError("front-end server did not start in time")
        if self.error is not None:
            raise RuntimeError(f"front-end server failed to start: {self.error}")
        return self.frontend.host, self.frontend.bound_port

    def stop(self, timeout: float = 120.0) -> ServeOutcome:
        """Drain, join and return the outcome (raises the server's error, if any)."""
        self.frontend.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - hung server
            raise TimeoutError("front-end server did not drain in time")
        if self.error is not None:
            raise self.error
        return self.frontend.outcome


def wait_for_port_file(path: Union[str, Path], timeout: float = 120.0) -> int:
    """Poll a ``--port-file`` until the server writes its bound port."""
    path = Path(path)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.is_file():
            text = path.read_text().strip()
            if text:
                port = int(text)
                # Wait until the socket actually accepts.
                try:
                    with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                        return port
                except OSError:
                    pass
        time.sleep(0.05)
    raise TimeoutError(f"no server port appeared in {path} within {timeout:.0f}s")
