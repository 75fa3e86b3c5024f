"""Property tests at two parser boundaries of the serving layer.

Each parser either parses or raises its own typed error — never anything
else, whatever bytes arrive:

* :func:`~repro.serve.frontend.decode_frame` on arbitrary socket bytes
  returns a dict or raises :class:`~repro.serve.frontend.ProtocolError`;
* :func:`~repro.serve.journal.replay` on a valid journal cut at any byte,
  or with any one byte flipped, returns a replay or raises
  :class:`~repro.serve.journal.JournalError`, and a cut journal never
  reports a request finished that the intact journal does not.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.frontend import ProtocolError, decode_frame
from repro.serve.journal import JournalError, encode_record_line, encode_request, replay
from repro.serve.scheduler import ChatRequest

SETTINGS = settings(max_examples=60, deadline=None)


def _journal_bytes() -> bytes:
    """A small valid journal: meta, three enqueues, two outcomes, an intent."""
    records = [{"kind": "meta", "load": {"seed": 0}, "scale": "smoke"}]
    for index in range(3):
        user = f"user-{index % 2:02d}"
        request = ChatRequest(user_id=user, question=f"q{index}", request_id=index)
        records.append({"kind": "enqueue", "request": encode_request(request)})
    entry = {"request_id": 0, "user_id": "user-00", "kind": "chat", "response": "a"}
    records.append({"kind": "complete", "entries": [entry]})
    dead = {"request_id": 1, "user_id": "user-01", "kind": "chat", "dead_letter": True}
    records.append({"kind": "dead_letter", "entry": {**dead, "error": "E", "reason": "r"}})
    records.append({"kind": "intent", "request_id": 2, "user_id": "user-00", "round_before": 0})
    return "".join(encode_record_line(record) for record in records).encode("utf-8")


JOURNAL = _journal_bytes()


def _replay_bytes(data: bytes):
    """Replay ``data`` as a journal file; None when it raised JournalError."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "journal.log"
        path.write_bytes(data)
        try:
            return replay(path)
        except JournalError:
            return None


def _finished(result) -> set:
    return set(result.completed) | set(result.dead_lettered)


class TestDecodeFrame:
    @given(st.binary(max_size=512))
    @example(b"[" * 100_000)  # nested too deep for the JSON parser
    @example(b"1" * 5_000)  # an integer over the int-string conversion limit
    @example(b'{"op": "chat"}')
    @SETTINGS
    def test_arbitrary_bytes_parse_or_raise_protocol_error(self, data):
        try:
            frame = decode_frame(data)
        except ProtocolError:
            return
        assert isinstance(frame, dict)


class TestJournalReplay:
    def test_the_intact_journal_replays_every_record(self):
        result = _replay_bytes(JOURNAL)
        assert result.records == 7 and result.dropped_records == 0
        assert _finished(result) == {0, 1}
        assert [request.request_id for request in result.pending] == [2]

    @given(st.integers(min_value=0, max_value=len(JOURNAL)))
    @SETTINGS
    def test_a_cut_journal_finishes_a_subset(self, cut):
        result = _replay_bytes(JOURNAL[:cut])
        if result is not None:
            assert _finished(result) <= _finished(_replay_bytes(JOURNAL))

    @given(st.integers(min_value=0, max_value=len(JOURNAL) - 1), st.integers(1, 255))
    @SETTINGS
    def test_a_flipped_byte_is_dropped_not_misread(self, offset, mask):
        data = bytearray(JOURNAL)
        data[offset] ^= mask
        result = _replay_bytes(bytes(data))
        if result is not None:
            assert _finished(result) <= _finished(_replay_bytes(JOURNAL))
            # One flip damages at most two of the seven records (a flipped
            # newline merges two lines, and both fail their checksums).
            assert result.records >= 5
