"""Property tests at three parser boundaries of the serving layer.

Each parser either parses or raises its own typed error — never anything
else, whatever bytes arrive:

* :func:`~repro.serve.frontend.decode_frame` on arbitrary socket bytes
  returns a dict or raises :class:`~repro.serve.frontend.ProtocolError`;
* :func:`~repro.serve.journal.replay` on a valid journal cut at any byte,
  or with any one byte flipped, returns a replay or raises
  :class:`~repro.serve.journal.JournalError`, and a cut journal never
  reports a request finished that the intact journal does not;
* :func:`~repro.utils.a1.unpack_adapter_record` on any bytes,
  or on a valid record cut or with any one byte changed, returns a record
  or raises :class:`~repro.utils.a1.AdapterFormatError`, and a
  one-byte change outside the round fence (bytes 8-11, covered by neither
  CRC) never decodes to a different adapter.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils.a1 import (
    ADAPTER_MAGIC,
    AdapterFormatError,
    pack_adapter_record,
    unpack_adapter_record,
)
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


def _adapter_record_bytes() -> bytes:
    """A valid six-tensor record; a 200-wide dim puts bytes >= 0x80 in the table."""
    rng = np.random.default_rng(0)
    state = {}
    for index in range(3):
        width = 200 if index == 0 else 16
        state[f"blocks.{index}.q.lora_a"] = rng.standard_normal((4, width)).astype(np.float32)
        state[f"blocks.{index}.q.lora_b"] = rng.standard_normal((width, 4)).astype(np.float32)
    return pack_adapter_record("alice", state, round=3)


RECORD = _adapter_record_bytes()

#: Header bytes 8-11: the round fence, which neither CRC covers.
ROUND_FENCE = range(8, 12)


def _decode_record(data: bytes):
    """The decoded record, or None when it raised AdapterFormatError."""
    try:
        return unpack_adapter_record(data)
    except AdapterFormatError:
        return None


def _identity(record) -> tuple:
    """Everything of a record but its round: user id, keys, shapes, bytes."""
    tensors = [(key, value.shape, value.tobytes()) for key, value in record.state.items()]
    return record.user_id, tensors


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


class TestAdapterRecord:
    @given(
        st.one_of(
            st.binary(max_size=512),
            st.binary(max_size=512).map(lambda tail: ADAPTER_MAGIC + b"\x01\x00" + tail),
        )
    )
    @SETTINGS
    def test_arbitrary_bytes_decode_or_raise_format_error(self, data):
        _decode_record(data)

    @given(st.integers(min_value=0, max_value=len(RECORD) - 1))
    @SETTINGS
    def test_a_cut_record_raises_format_error(self, cut):
        assert _decode_record(RECORD[:cut]) is None

    @given(st.integers(min_value=0, max_value=len(RECORD) - 1), st.integers(1, 255))
    @example(4, 0x01)  # user id length: used to escape as UnicodeDecodeError
    @example(6, 0x06 ^ 0x05)  # tensor count 6 -> 5: used to drop a tensor silently
    @example(3, 0x01)  # reserved flags
    @SETTINGS
    def test_a_changed_byte_is_rejected_not_misread(self, offset, mask):
        data = bytearray(RECORD)
        data[offset] ^= mask
        record = _decode_record(bytes(data))
        if record is not None and offset not in ROUND_FENCE:
            assert _identity(record) == _identity(unpack_adapter_record(RECORD))
