"""Durable request journal: append-only, checksummed, crash-safe to replay.

The journal is the serving layer's source of truth about what work was
promised and what work finished.  Every request is journaled at submission
(``enqueue``), every served turn appends the transcript entries it produced
(``complete``), poisoned requests are recorded as ``dead_letter``, and
personalize (fine-tune) jobs additionally write an ``intent`` record before
touching any state — the write-ahead half of their exactly-once protocol
(see :mod:`repro.serve.scheduler` and ``docs/robustness.md``).

Record format — one line per record::

    J1 <sha256[:16] of payload> <canonical JSON payload>\n

Appends go through one buffered handle and are flushed per record (fsync
optional); a crash can therefore tear at most the *final* line, and a torn
line fails its checksum.  :func:`replay` tolerates exactly that: a bad last
line is dropped as a torn tail, while a bad line in the middle of the file
(real corruption) is dropped *and counted*, so callers can degrade health.

Replaying yields the set of unfinished requests — ``enqueued`` minus
``complete``/``dead_letter`` — in request-id order.  Chat requests replay
at-least-once (re-serving a chat is idempotent under greedy decoding);
personalize requests are fenced by the per-user round counter persisted
with the adapter, so they apply exactly once even when the process dies
between the fine-tune and the completion mark.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.data.dialogue import DialogueSet
from repro.obs import MetricsRegistry
from repro.serve.errors import ServingError
from repro.serve.health import ComponentHealth
from repro.serve.scheduler import ChatRequest, PersonalizeRequest, Request

JOURNAL_MAGIC = "J1"
JOURNAL_FILE = "journal.log"

# One canonical-JSON encoder for every record line; ``json.dumps`` with
# options would build a fresh encoder per append.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class JournalError(ServingError):
    """The journal cannot be used (bad meta record, undecodable request)."""


# ---------------------------------------------------------------------- #
# request (de)serialization
# ---------------------------------------------------------------------- #
def encode_request(request: Request) -> dict:
    """A JSON-ready description of one request (inverse of :func:`decode_request`)."""
    if isinstance(request, ChatRequest):
        return {
            "type": "chat",
            "request_id": request.request_id,
            "user_id": request.user_id,
            "question": request.question,
        }
    if isinstance(request, PersonalizeRequest):
        return {
            "type": "personalize",
            "request_id": request.request_id,
            "user_id": request.user_id,
            "finetune": request.finetune,
            "dialogues": [dialogue.to_dict() for dialogue in request.dialogues],
        }
    raise TypeError(f"unsupported request type {type(request)!r}")


def decode_request(payload: dict) -> Request:
    """Rebuild a request from :func:`encode_request` output."""
    kind = payload.get("type")
    if kind == "chat":
        return ChatRequest(
            user_id=payload["user_id"],
            question=payload["question"],
            request_id=payload["request_id"],
        )
    if kind == "personalize":
        return PersonalizeRequest(
            user_id=payload["user_id"],
            dialogues=tuple(DialogueSet.from_dict(item) for item in payload["dialogues"]),
            finetune=bool(payload.get("finetune", True)),
            request_id=payload["request_id"],
        )
    raise JournalError(f"cannot decode journaled request of type {kind!r}")


# ---------------------------------------------------------------------- #
# line encoding
# ---------------------------------------------------------------------- #
def encode_record_line(record: dict, magic: str = JOURNAL_MAGIC) -> str:
    """One checksummed record line: ``<magic> <sha256[:16]> <canonical JSON>``.

    The same discipline protects every durable line format in the serving
    layer — the request journal (magic ``J1``) and the request-trace files
    of :mod:`repro.serve.trace` (magic ``T1``): a torn or flipped line fails
    its checksum instead of decoding into garbage.
    """
    payload = _CANONICAL_JSON.encode(record)
    checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return f"{magic} {checksum} {payload}\n"


def decode_record_line(line: str, magic: str = JOURNAL_MAGIC) -> Optional[dict]:
    """The record on one line, or None when the line fails validation."""
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) != 3 or parts[0] != magic:
        return None
    checksum, payload = parts[1], parts[2]
    if hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16] != checksum:
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


# ---------------------------------------------------------------------- #
# replay
# ---------------------------------------------------------------------- #
@dataclass
class JournalReplay:
    """Everything a restarted server learns from the journal."""

    meta: Optional[dict] = None
    enqueued: Dict[int, Request] = field(default_factory=dict)
    completed: Dict[int, dict] = field(default_factory=dict)
    dead_lettered: Dict[int, dict] = field(default_factory=dict)
    intents: Dict[int, dict] = field(default_factory=dict)
    records: int = 0
    dropped_records: int = 0
    torn_tail: bool = False

    def is_finished(self, request_id: int) -> bool:
        return request_id in self.completed or request_id in self.dead_lettered

    @property
    def next_request_id(self) -> int:
        """The first id a resumed scheduler may assign to *new* requests.

        One above every id the journal has ever seen (enqueued, completed or
        dead-lettered), so requests arriving after a restart — e.g. over the
        network front-end's socket bridge — can never collide with replayed
        ones.
        """
        seen = [*self.enqueued, *self.completed, *self.dead_lettered]
        return max(seen) + 1 if seen else 0

    @property
    def pending(self) -> List[Request]:
        """Enqueued-but-unfinished requests, in request-id order."""
        return [
            self.enqueued[request_id]
            for request_id in sorted(self.enqueued)
            if not self.is_finished(request_id)
        ]

    def finished_entries(self) -> List[dict]:
        """Every completed/dead-lettered transcript entry, in id order."""
        merged = dict(self.completed)
        merged.update(self.dead_lettered)
        return [merged[request_id] for request_id in sorted(merged)]


def replay(path: Union[str, Path]) -> JournalReplay:
    """Read a journal back; tolerates a torn final line (see module docs)."""
    path = Path(path)
    result = JournalReplay()
    if not path.is_file():
        return result
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines(keepends=True)
    for index, line in enumerate(lines):
        record = decode_record_line(line) if line.endswith("\n") else None
        if record is None and not line.endswith("\n") and index == len(lines) - 1:
            # An unterminated final line is the expected shape of a crash
            # mid-append: drop it silently, the request it belonged to is
            # simply not marked and will be replayed.
            result.torn_tail = True
            continue
        if record is None:
            result.dropped_records += 1
            continue
        result.records += 1
        kind = record.get("kind")
        if kind == "meta":
            result.meta = record
        elif kind == "enqueue":
            request = decode_request(record["request"])
            result.enqueued[int(request.request_id)] = request
        elif kind == "intent":
            result.intents[int(record["request_id"])] = record
        elif kind == "complete":
            for entry in record.get("entries", []):
                result.completed[int(entry["request_id"])] = entry
        elif kind == "dead_letter":
            entry = record["entry"]
            result.dead_lettered[int(entry["request_id"])] = entry
        else:
            result.dropped_records += 1
    return result


def entries_digest(entries: List[dict]) -> str:
    """SHA-256 over transcript entries sorted by request id.

    Service order differs between an interrupted run and its replay (and
    between batch sizes), so the recovery fingerprint is order-independent:
    the union of completed and replayed entries keyed by request id.
    """
    ordered = sorted(entries, key=lambda entry: entry["request_id"])
    encoded = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def journal_digest(path: Union[str, Path]) -> str:
    """The order-independent digest of everything a journal saw finish."""
    return entries_digest(replay(path).finished_entries())


# ---------------------------------------------------------------------- #
# the writer
# ---------------------------------------------------------------------- #
class RequestJournal:
    """Append-only journal writer (one per serving process).

    ``fsync=True`` additionally fsyncs every append — full power-cut
    durability at a measurable cost; the default relies on the OS page
    cache surviving a process kill, which is the failure model the chaos
    suite exercises (SIGKILL, not power loss).
    """

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.health = ComponentHealth("journal")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._handle = self.path.open("a", encoding="utf-8")
        self._appends = self.metrics.counter("journal_appends_total")
        # Replay counters are registered up front so snapshot key sets do
        # not depend on whether this process ever had to recover.
        for name in (
            "journal_replayed_records_total",
            "journal_dropped_records_total",
            "journal_replayed_pending_total",
            "journal_torn_tails_total",
        ):
            self.metrics.counter(name)

    # -- writing ------------------------------------------------------- #
    def append(self, record: dict) -> None:
        self._handle.write(encode_record_line(record))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._appends.inc()

    @property
    def appended(self) -> int:
        """Records appended by this writer (registry-backed count)."""
        return self._appends.value

    def observe_replay(self, result: JournalReplay) -> None:
        """Fold what a recovery replay saw into the journal counters."""
        self.metrics.counter("journal_replayed_records_total").inc(result.records)
        self.metrics.counter("journal_dropped_records_total").inc(result.dropped_records)
        self.metrics.counter("journal_replayed_pending_total").inc(len(result.pending))
        if result.torn_tail:
            self.metrics.counter("journal_torn_tails_total").inc()

    def record_meta(self, meta: dict) -> None:
        self.append({"kind": "meta", **meta})

    def record_enqueue(self, request: Request) -> None:
        self.append({"kind": "enqueue", "request": encode_request(request)})

    def record_intent(self, request_id: int, user_id: str, round_before: int) -> None:
        self.append(
            {
                "kind": "intent",
                "request_id": request_id,
                "user_id": user_id,
                "round_before": round_before,
            }
        )

    def record_complete(self, entries: List[dict]) -> None:
        self.append({"kind": "complete", "entries": list(entries)})

    def record_dead_letter(self, entry: dict) -> None:
        self.append({"kind": "dead_letter", "entry": dict(entry)})

    # -- lifecycle ----------------------------------------------------- #
    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
