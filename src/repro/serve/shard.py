"""Serving workers: consistent-hash routing over shared-nothing shard workers.

Every serving run, whatever ``--workers`` is, drives one :class:`ShardPool`:
a :class:`ShardRing` maps every user id onto one of N shards by consistent
hashing, and the pool runs one worker per shard — each owning a private
:class:`~repro.serve.runner.ShardServer` (scheduler, session manager,
adapter store and, when durable, request journal).  ``repro serve``
(through :func:`~repro.serve.runner.run_serve`) and the socket front-end
(:mod:`repro.serve.frontend`) both serve through it.

Workers share *nothing* mutable.  A worker runs in one of two modes:

- ``thread`` — a thread of this process, fed through an in-memory channel
  (no pickling).  Shard 0 serves the caller's model itself; any further
  shard gets a deep copy.  A one-worker pool uses this mode by default.
- ``process`` — a forked child fed through a :func:`multiprocessing.Pipe`,
  inheriting the pre-built base model copy-on-write.  The default for
  several workers where ``fork`` exists.

Either way a user's entire history lives on exactly one shard, which is
what keeps scale-out deterministic.  A one-worker pool keeps its durable
state in the state root itself (``journal.log``, ``sessions/``,
``adapters/``); several workers keep theirs under ``shard-NN/`` next to a
``shards.json`` topology manifest.

Each worker streams *normalized* transcript entries (request ids replaced
by the per-user sequence number) and ends with its shard summary, so the
pool's results compose into one :class:`~repro.serve.runner.ServeOutcome`
and one aggregate transcript digest — byte-identical for 1, 2 or 4
workers, and again after a kill-and-resume, because each shard replays its
own journal independently and replayed entries are JSON-stable.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import queue
import signal
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

from repro.data.lexicons import LexiconCollection
from repro.llm.model import OnDeviceLLM
from repro.obs import merge_snapshots
from repro.serve.config import ServeConfig
from repro.serve.journal import JOURNAL_FILE, JournalError
from repro.serve.runner import ShardServer
from repro.serve.scheduler import Request

#: Top-level state-directory manifest of a several-worker durable run:
#: records the shard count and load so a resume with a different topology
#: is refused instead of silently scrambling user->shard assignments.
SHARDS_META_FILE = "shards.json"

#: Points each shard owns on the ring, and the prefix of their hash keys.
VNODES_PER_SHARD = 64
RING_SALT = "repro-shard"


# ---------------------------------------------------------------------- #
# consistent-hash routing
# ---------------------------------------------------------------------- #
class ShardRing:
    """A consistent-hash ring mapping user ids to shard indices.

    Each shard owns :data:`VNODES_PER_SHARD` points on a 64-bit ring
    (SHA-256 of ``"<RING_SALT>/<shard>/<vnode>"``); a user hashes to the
    first point at or after its own hash.  Consistent hashing gives the rebalance property the
    scaling guide documents: growing from N to N+1 shards moves only the
    keys the new shard's points capture (≈ 1/(N+1) of them) — every other
    user stays on its shard, adapters and journals untouched.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        points = []
        for shard in range(num_shards):
            for vnode in range(VNODES_PER_SHARD):
                points.append((self._point(f"{RING_SALT}/{shard}/{vnode}"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def _point(key: str) -> int:
        return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")

    def shard_for(self, user_id: str) -> int:
        """The shard that owns ``user_id``."""
        index = bisect_right(self._hashes, self._point(user_id)) % len(self._hashes)
        return self._owners[index]

    def assignments(self, user_ids: Sequence[str]) -> Dict[int, List[str]]:
        """User ids grouped by owning shard (shards with no users omitted)."""
        grouped: Dict[int, List[str]] = {}
        for user_id in user_ids:
            grouped.setdefault(self.shard_for(user_id), []).append(user_id)
        return grouped


# ---------------------------------------------------------------------- #
# the worker (runs in a forked process or a thread)
# ---------------------------------------------------------------------- #
def shard_state_dir(state_root: Union[str, Path], index: int) -> Path:
    """The per-shard durable state directory under ``state_root``."""
    return Path(state_root) / f"shard-{index:02d}"


def install_stop_handlers(stop: Callable[[int], None]):
    """SIGINT/SIGTERM → ``stop(signum)``; returns a restore callback (or None).

    Signal handlers only work in the main thread; elsewhere (a thread
    worker, tests under pytest-xdist, notebooks) this silently does nothing.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, lambda signum, frame: stop(signum))
    except ValueError:
        return None

    def restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return restore


_HANG_UP = object()


class _WorkerEnd:
    """A thread worker's end of its in-memory channel: a pipe's shape, no pickling.

    ``recv`` and ``poll`` read the messages the parent queued.  ``send``
    hands a reply straight to the pool's message handler, in the worker
    thread, so a thread worker needs no listener thread and an entry
    reaches the front-end without an extra thread hop.
    """

    def __init__(self, inbox: "queue.SimpleQueue", deliver: Callable[[tuple], None]) -> None:
        self._inbox = inbox
        self.send = deliver

    def recv(self):
        message = self._inbox.get()
        if message is _HANG_UP:
            raise EOFError("the pool closed the channel")
        return message

    def poll(self) -> bool:
        return not self._inbox.empty()

    def close(self) -> None:
        pass


class _ParentEnd:
    """The pool's end of a thread worker's channel."""

    def __init__(self, inbox: "queue.SimpleQueue") -> None:
        self._inbox = inbox

    def send(self, message) -> None:
        self._inbox.put(message)

    def close(self) -> None:
        self._inbox.put(_HANG_UP)


def _shard_worker_main(conn, server: ShardServer) -> None:
    """Worker entry point: serve this shard's requests until drained.

    ``server`` is this shard's (not yet booted) core.  Protocol (worker
    side):

    - sends ``("entry", request_id, normalized_entry)`` for every transcript
      entry — journal-replayed ones first on resume, then live ones;
    - sends ``("ready", info)`` once recovery is done and the shard accepts
      requests;
    - receives ``("serve", [request, ...])``, ``("status",)`` and
      ``("drain",)`` commands; every ``serve`` queued so far goes into one
      :meth:`ShardServer.serve` call, so concurrent arrivals batch;
      ``status`` is also answered at every turn boundary of a serve call,
      which keeps the ``serve`` and ``drain`` commands it reads there, in
      order, for after the call;
    - sends ``("done", summary)`` (:meth:`ShardServer.summary`) after
      draining, or ``("error", text, exception)`` if it failed (the
      exception object only over an in-memory channel), then exits.

    A process worker of ``repro serve`` stops gracefully on SIGINT/SIGTERM,
    which the parent forwards (:meth:`ShardPool.request_stop`); behind
    ``--listen`` it ignores them and serves until the parent's drain.
    """
    try:
        _shard_worker_serve(conn, server)
    except BaseException as error:  # noqa: BLE001 - report, then die
        raised = error if isinstance(conn, _WorkerEnd) else None
        try:
            conn.send(("error", f"{type(error).__name__}: {error}", raised))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _shard_worker_serve(conn, server: ShardServer) -> None:
    def stop(signum: int) -> None:
        # Behind the socket front-end the parent drains on a signal, so a
        # worker the signal also reaches (a terminal's Ctrl-C) keeps serving.
        if server.config.listen is None:
            server.request_stop()

    if server.config.install_signal_handlers:
        install_stop_handlers(stop)
    server.on_entry = lambda request_id, entry: conn.send(("entry", request_id, entry))
    deferred: Deque[tuple] = deque()

    def answer_status() -> None:
        while conn.poll():
            message = conn.recv()
            if message[0] == "status":
                conn.send(("status", server.status()))
            else:
                deferred.append(message)

    server.on_turn = answer_status
    server.boot()
    if server.scheduler.pending_count:
        server.serve()  # what the journal left pending, before the shard takes traffic
    conn.send(("ready", {"index": server.index, "next_request_id": server.next_request_id}))
    draining = False
    while not draining:
        batch: List[Request] = []
        while True:
            message = deferred.popleft() if deferred else conn.recv()
            if message[0] == "serve":
                batch.extend(message[1])
            elif message[0] == "status":
                conn.send(("status", server.status()))
            elif message[0] == "drain":
                draining = True
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown shard command {message[0]!r}")
            if not deferred and not conn.poll():
                break
        if batch:
            server.serve(batch)
    server.finish()
    conn.send(("done", server.summary()))


# ---------------------------------------------------------------------- #
# the pool (parent side)
# ---------------------------------------------------------------------- #
class ShardPoolError(RuntimeError):
    """A shard worker died or misbehaved."""


@dataclass
class _Worker:
    index: int
    server: ShardServer
    conn: object = None
    runner: object = None  # multiprocessing.Process or threading.Thread
    listener: Optional[threading.Thread] = None
    ready: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)
    ready_info: Optional[dict] = None
    summary: Optional[dict] = None
    error: Optional[str] = None
    exception: Optional[BaseException] = None
    # Sends can come from different threads (the submit path and the
    # status poller), and interleaved pipe sends corrupt the stream.
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    status_ready: threading.Event = field(default_factory=threading.Event)
    status: Optional[dict] = None


def default_worker_mode() -> str:
    """``process`` where ``fork`` exists (Linux), else the ``thread`` fallback."""
    # Imported here: a thread-only pool (one worker) never loads multiprocessing.
    import multiprocessing

    return "process" if "fork" in multiprocessing.get_all_start_methods() else "thread"


class ShardPool:
    """One worker per shard plus the consistent-hash router in front.

    ``config.workers`` is the shard count.  One worker serves ``config``
    as it is; with several, worker *i* serves it with its own directories
    filled in (``<state_dir>/shard-NN`` and ``<adapter_dir>/shard-NN``).
    ``mode`` defaults to ``thread`` for one worker and to
    :func:`default_worker_mode` for several.  The pool owns the worker
    lifecycle (spawn → ready → serve → drain) and the merged view of their
    output: deduplicated normalized entries, per-shard live status, and the
    shard summaries :meth:`drain` returns.  ``on_entry`` (if set) is called
    as ``on_entry(request_id, normalized_entry)`` the moment a worker
    reports an entry — the socket front-end uses this for streaming
    delivery.
    """

    def __init__(
        self,
        config: ServeConfig,
        llm: OnDeviceLLM,
        mode: Optional[str] = None,
        lexicons: Optional[LexiconCollection] = None,
    ) -> None:
        if mode is None:
            mode = "thread" if config.workers == 1 else "process"
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown shard worker mode {mode!r}")
        if mode == "process":
            mode = default_worker_mode()
        self.config = config
        self.ring = ShardRing(config.workers)
        self.num_shards = config.workers
        self.mode = mode
        self.llm = llm
        self.lexicons = lexicons
        self.on_entry: Optional[Callable[[int, dict], None]] = None
        self.entries: Dict[int, dict] = {}
        self._entries_lock = threading.Lock()
        self._status_lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._started = False
        self._drained = False

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    def start(self, timeout: float = 300.0) -> List[dict]:
        """Spawn every worker and wait until all shards are ready.

        Returns the per-shard ready infos (``index``, ``next_request_id``:
        above every request id the shard's journal has seen).  On a durable
        pool this is where each shard independently replays its journal —
        replayed entries stream through ``on_entry`` before ready fires.

        A refused configuration raises here, before anything is spawned.
        A thread worker that fails to boot re-raises its own exception; a
        process worker's failure raises :class:`ShardPoolError`.
        """
        if self._started:
            raise ShardPoolError("pool already started")
        self._started = True
        self._check_state_meta()
        # Every model copy is taken before any worker starts mutating the
        # caller's model (shard 0 of a thread pool serves it directly).
        servers = [
            ShardServer(
                self.worker_config(index),
                self.llm if index == 0 or self.mode == "process" else copy.deepcopy(self.llm),
                lexicons=self.lexicons,
                index=index,
            )
            for index in range(self.num_shards)
        ]
        if self.mode == "process":
            import multiprocessing

            context = multiprocessing.get_context("fork")
        for server in servers:
            worker = _Worker(index=server.index, server=server)
            name = f"repro-shard-{server.index}"
            if self.mode == "process":
                worker.conn, child = context.Pipe()
                worker.runner = context.Process(
                    target=_shard_worker_main, args=(child, server), name=name, daemon=True
                )
                worker.runner.start()
                child.close()
            else:
                inbox: "queue.SimpleQueue" = queue.SimpleQueue()
                worker.conn = _ParentEnd(inbox)
                child = _WorkerEnd(inbox, functools.partial(self._handle, worker))
                worker.runner = threading.Thread(
                    target=_shard_worker_main, args=(child, server), name=name, daemon=True
                )
                worker.runner.start()
            self._workers.append(worker)
        if self.mode == "process":
            # Listen only after every fork: forked children must not inherit
            # the listener threads (a forked lock held by a thread that does
            # not exist in the child is a deadlock).
            for worker in self._workers:
                worker.listener = threading.Thread(
                    target=self._listen, args=(worker,), name=f"repro-shard-listen-{worker.index}"
                )
                worker.listener.start()
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            remaining = max(0.0, deadline - time.monotonic())
            if not worker.ready.wait(remaining):
                self.terminate()
                raise ShardPoolError(f"shard {worker.index} not ready after {timeout}s")
            if worker.error is not None:
                self.terminate()
                if worker.exception is not None:
                    raise worker.exception
                raise ShardPoolError(f"shard {worker.index} failed: {worker.error}")
        return [worker.ready_info for worker in self._workers]

    def worker_config(self, index: int) -> ServeConfig:
        """The config shard ``index`` serves (its own directories filled in)."""
        if self.num_shards == 1:
            return self.config
        state, adapters = self.config.state_dir, self.config.adapter_dir
        return self.config.with_(
            state_dir=state and shard_state_dir(state, index),
            adapter_dir=adapters and shard_state_dir(adapters, index),
        )

    def _check_state_meta(self) -> None:
        """Fence the topology of a durable state root (write it when fresh).

        Several workers record ``shards.json`` (shard count, load, scale);
        one worker serves from the root itself, so a root ``journal.log``
        with no manifest counts as one shard.  Existing state without
        ``resume``, a different worker count, or a manifest recorded for a
        different load raises :class:`JournalError`.
        """
        config = self.config
        if config.state_dir is None:
            return
        state_root = Path(config.state_dir)
        meta_path = state_root / SHARDS_META_FILE
        meta = {
            "num_shards": self.num_shards,
            "load": asdict(config.load),
            "scale": config.resolved_scale().name,
        }
        if meta_path.is_file():
            recorded = json.loads(meta_path.read_text())
        elif (state_root / JOURNAL_FILE).is_file():
            recorded = {"num_shards": 1}
        else:
            if self.num_shards > 1:
                state_root.mkdir(parents=True, exist_ok=True)
                meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
            return
        if not config.resume:
            raise JournalError(
                f"serving state already exists at {state_root}; pass resume=True to replay it"
            )
        if recorded.get("num_shards") != self.num_shards:
            raise JournalError(
                f"state dir was written by {recorded.get('num_shards')} worker(s); refusing "
                f"to resume with {self.num_shards} (a different number of shards would "
                "scramble user->shard assignments)"
            )
        if "load" in recorded and recorded["load"] != meta["load"]:
            raise JournalError(
                "sharded state dir was recorded for a different load "
                "configuration; refusing to resume"
            )

    def _handle(self, worker: _Worker, message: tuple) -> None:
        """Apply one worker message (listener thread or thread worker)."""
        kind = message[0]
        if kind == "entry":
            _, request_id, entry = message
            with self._entries_lock:
                self.entries[request_id] = entry
            if self.on_entry is not None:
                self.on_entry(request_id, entry)
        elif kind == "ready":
            worker.ready_info = message[1]
            worker.ready.set()
        elif kind == "status":
            worker.status = message[1]
            worker.status_ready.set()
        elif kind in ("done", "error"):
            if kind == "done":
                worker.summary = message[1]
            else:
                worker.error, worker.exception = message[1], message[2]
            worker.done.set()
            worker.ready.set()
            worker.status_ready.set()

    def _listen(self, worker: _Worker) -> None:
        """Drain one process worker's pipe until done/error/EOF (its own thread)."""
        while not worker.done.is_set():
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                message = ("error", "worker pipe closed unexpectedly (process died?)", None)
            self._handle(worker, message)

    def request_stop(self, signum: int = signal.SIGTERM) -> None:
        """Ask every worker to stop at its next turn boundary (graceful drain).

        A thread worker's scheduler is asked directly; a process worker gets
        ``signum`` forwarded and stops in its own main thread.  Safe to call
        from a signal handler.  What is still queued stays journaled for a
        later ``resume``.
        """
        for worker in self._workers:
            if self.mode == "thread":
                worker.server.request_stop()
            elif worker.runner.is_alive():
                try:
                    os.kill(worker.runner.pid, signum)
                except ProcessLookupError:
                    pass

    # -------------------------------------------------------------- #
    # routing + serving
    # -------------------------------------------------------------- #
    def submit(self, request: Request) -> int:
        """Route one request to its shard; returns the shard index."""
        index = self.ring.shard_for(request.user_id)
        self._send(self._workers[index], ("serve", [request]))
        return index

    def submit_many(self, requests: Sequence[Request]) -> None:
        """Route a batch, one message per shard, preserving arrival order."""
        grouped: Dict[int, List[Request]] = {}
        for request in requests:
            grouped.setdefault(self.ring.shard_for(request.user_id), []).append(request)
        for index, batch in grouped.items():
            self._send(self._workers[index], ("serve", batch))

    def _send(self, worker: _Worker, message) -> None:
        if worker.done.is_set():
            raise ShardPoolError(
                f"shard {worker.index} is not accepting requests ({worker.error or 'drained'})"
            )
        try:
            with worker.send_lock:
                worker.conn.send(message)
        except (OSError, BrokenPipeError) as error:
            detail = worker.error or f"{type(error).__name__}: {error}"
            raise ShardPoolError(
                f"shard {worker.index} is not accepting requests ({detail})"
            ) from None

    def drain(self, timeout: float = 600.0) -> List[dict]:
        """Flush and stop every worker; returns the shard summaries in order.

        Raises :class:`ShardPoolError` if any worker died without reporting
        a summary (its shard's requests may be stranded in its journal).
        """
        if self._drained:
            return [worker.summary for worker in self._workers]
        self._drained = True
        for worker in self._workers:
            try:
                self._send(worker, ("drain",))
            except ShardPoolError:
                pass  # already dead; the error is recorded
        deadline = time.monotonic() + timeout
        failures = []
        for worker in self._workers:
            remaining = max(0.0, deadline - time.monotonic())
            if not worker.done.wait(remaining):
                failures.append(f"shard {worker.index} did not drain within {timeout}s")
                continue
            if worker.listener is not None:
                worker.listener.join(timeout=10.0)
            worker.runner.join(timeout=10.0)
            if worker.error is not None:
                failures.append(f"shard {worker.index}: {worker.error}")
            try:
                worker.conn.close()
            except OSError:
                pass
        if failures:
            raise ShardPoolError("; ".join(failures))
        return [worker.summary for worker in self._workers]

    def terminate(self) -> None:
        """Best-effort hard stop (failure paths only; drains nothing)."""
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            terminate = getattr(worker.runner, "terminate", None)
            if terminate is not None and worker.runner.is_alive():
                terminate()

    # -------------------------------------------------------------- #
    # merged views
    # -------------------------------------------------------------- #
    def normalized_entries(self) -> List[dict]:
        """Every entry seen so far, sorted by ``(user_id, user_seq)``."""
        with self._entries_lock:
            entries = list(self.entries.values())
        return sorted(entries, key=lambda entry: (entry["user_id"], entry["user_seq"]))

    def statuses(self, timeout: float = 30.0) -> List[dict]:
        """One live :meth:`ShardServer.status` per live-or-drained shard.

        A drained worker's comes from its summary, and a thread worker's is
        read in place.  A process worker is asked over its pipe and answers
        at its next turn boundary, so a busy shard can take one turn to reply.
        Workers that died or time out are skipped — a partial view beats no
        view during an incident.
        """
        with self._status_lock:
            views: Dict[int, dict] = {}
            asked: List[_Worker] = []
            for worker in self._workers:
                if worker.done.is_set() or self.mode == "thread":
                    view = self._view(worker)
                    if view is not None:
                        views[worker.index] = view
                    continue
                worker.status_ready.clear()
                try:
                    self._send(worker, ("status",))
                except ShardPoolError:
                    continue
                asked.append(worker)
            deadline = time.monotonic() + timeout
            for worker in asked:
                remaining = max(0.0, deadline - time.monotonic())
                if worker.status_ready.wait(remaining):
                    view = self._view(worker) if worker.done.is_set() else worker.status
                    if view is not None:
                        views[worker.index] = view
            return [views[index] for index in sorted(views)]

    @staticmethod
    def _view(worker: _Worker) -> Optional[dict]:
        """A drained worker's final status, or a thread worker's live one."""
        if not worker.done.is_set():
            return worker.server.status()
        summary = worker.summary
        if summary is None:
            return None
        return {"metrics": summary["metrics"], "health": summary["health"], "queue_depths": {}}

    def merged_metrics(self, timeout: float = 30.0) -> dict:
        """All shard snapshots merged into one pool-wide view."""
        return merge_snapshots(view["metrics"] for view in self.statuses(timeout))
