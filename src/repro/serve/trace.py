"""Request-trace recording and loading for the serving front-end.

A *trace* captures one live serving run's request stream — every request
the front-end admitted, in per-user admission order, with its payload and
a per-request seed — plus a summary carrying the run's normalized
transcript digest.  Replaying the trace against a freshly booted server
(:func:`repro.serve.client.replay_trace_against`, or ``repro replay`` on
the CLI) must reproduce that digest byte-for-byte: the recorded run *is*
the expectation, so any divergence — a nondeterministic decode, an
adapter-state leak between users, a scheduler change that reorders
per-user work — fails loudly.  The nightly ``frontend-replay`` CI job and
``perf_check.py --frontend`` both gate on this.

File format — versioned JSONL sharing the journal's checksummed line
codec, under its own magic::

    T1 <sha256[:16] of payload> <canonical JSON payload>\n

Record kinds, in file order:

* ``header`` — format version plus the serving configuration (scale, seed,
  dataset, pre-train epochs) a replayer needs to boot an equivalent server;
* ``request`` — one admitted request: ``user_id``, the per-user sequence
  number ``seq``, arrival offset ``arrival_ms``, the op (``chat`` /
  ``personalize``), the wire payload, and the derived per-request ``seed``;
* ``summary`` — the run's transcript digest (the per-user-composed
  aggregate every serving path reports) and request count.

Version 2 is the only version read: a version 1 trace's summary holds the
digest the front-end reported before it switched to the aggregate, so
:func:`load_trace` refuses it instead of replaying it as a false
divergence — re-record it.

Like the journal, a trace tolerates a torn final line (the recorder was
killed mid-append); any other undecodable line is counted so callers can
refuse or degrade.  A trace without a summary (killed before shutdown) can
still be replayed, it just cannot self-verify.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.serve.errors import ServingError
from repro.serve.journal import decode_record_line, encode_record_line
from repro.serve.session import user_seed

TRACE_MAGIC = "T1"
TRACE_VERSION = 2


class TraceError(ServingError):
    """A trace file cannot be used (missing, empty, or wrong format)."""


@dataclass
class TraceRequest:
    """One recorded request."""

    user_id: str
    seq: int
    op: str
    payload: dict
    arrival_ms: float
    seed: int

    def to_record(self) -> dict:
        return {
            "kind": "request",
            "user_id": self.user_id,
            "seq": self.seq,
            "op": self.op,
            "payload": self.payload,
            "arrival_ms": round(self.arrival_ms, 3),
            "seed": self.seed,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TraceRequest":
        return cls(
            user_id=record["user_id"],
            seq=int(record["seq"]),
            op=record["op"],
            payload=dict(record["payload"]),
            arrival_ms=float(record.get("arrival_ms", 0.0)),
            seed=int(record.get("seed", 0)),
        )


@dataclass
class Trace:
    """A loaded trace file."""

    meta: dict
    requests: List[TraceRequest] = field(default_factory=list)
    summary: Optional[dict] = None
    dropped_records: int = 0
    torn_tail: bool = False

    @property
    def digest(self) -> Optional[str]:
        """The recorded run's transcript digest (None when never summarized)."""
        return None if self.summary is None else self.summary.get("transcript_digest")

    def by_user(self) -> dict:
        """Requests grouped per user, each list in recorded ``seq`` order."""
        grouped: dict = {}
        for request in self.requests:
            grouped.setdefault(request.user_id, []).append(request)
        for requests in grouped.values():
            requests.sort(key=lambda r: r.seq)
        return grouped


class TraceRecorder:
    """Append-only trace writer attached to a live front-end.

    The front-end calls :meth:`record_request` at admission time (event-loop
    thread, so per-user order is exactly admission order) and
    :meth:`record_summary` once the run has drained.  Lines are flushed per
    record: a killed recorder loses at most its torn final line, which
    :func:`load_trace` drops — mirroring the journal's crash contract.
    """

    def __init__(self, path: Union[str, Path], meta: Optional[dict] = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self._start = time.perf_counter()
        self._seq: dict = {}
        self.recorded = 0
        header = {"kind": "header", "version": TRACE_VERSION, **(meta or {})}
        self._append(header)

    def _append(self, record: dict) -> None:
        self._handle.write(encode_record_line(record, magic=TRACE_MAGIC))
        self._handle.flush()

    def record_request(self, user_id: str, op: str, payload: dict) -> TraceRequest:
        """Record one admitted request; assigns its per-user sequence number."""
        seq = self._seq.get(user_id, 0)
        self._seq[user_id] = seq + 1
        request = TraceRequest(
            user_id=user_id,
            seq=seq,
            op=op,
            payload=payload,
            arrival_ms=1e3 * (time.perf_counter() - self._start),
            # The per-(user, seq) seed is recorded for forward compatibility
            # with sampled decoding; greedy serving never reads it.
            seed=user_seed(f"{user_id}/{seq}", 0),
        )
        self._append(request.to_record())
        self.recorded += 1
        return request

    def record_summary(self, digest: str, requests: int) -> None:
        self._append(
            {"kind": "summary", "transcript_digest": digest, "requests": requests}
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace back; tolerates a torn final line, counts real corruption.

    Raises :class:`TraceError` when the file is missing, its first valid
    record is not a ``header`` (e.g. a journal passed by mistake — the magic
    differs, so every line fails validation and there is no header), or the
    header names another format version.
    """
    path = Path(path)
    if not path.is_file():
        raise TraceError(f"no trace file at {path}")
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines(keepends=True)
    meta: Optional[dict] = None
    requests: List[TraceRequest] = []
    summary: Optional[dict] = None
    dropped = 0
    torn_tail = False
    for index, line in enumerate(lines):
        record = decode_record_line(line, magic=TRACE_MAGIC) if line.endswith("\n") else None
        if record is None and not line.endswith("\n") and index == len(lines) - 1:
            torn_tail = True
            continue
        if record is None:
            dropped += 1
            continue
        kind = record.get("kind")
        if kind == "header":
            meta = record
        elif kind == "request":
            try:
                requests.append(TraceRequest.from_record(record))
            except (KeyError, TypeError, ValueError):
                dropped += 1
        elif kind == "summary":
            summary = record
        else:
            dropped += 1
    if meta is None:
        raise TraceError(f"{path} has no valid trace header (is it a {TRACE_MAGIC} file?)")
    if meta.get("version") != TRACE_VERSION:
        raise TraceError(
            f"{path} is a version {meta.get('version')} trace; this build reads version "
            f"{TRACE_VERSION} only (its summary digest is computed differently): re-record it"
        )
    return Trace(
        meta=meta,
        requests=requests,
        summary=summary,
        dropped_records=dropped,
        torn_tail=torn_tail,
    )
