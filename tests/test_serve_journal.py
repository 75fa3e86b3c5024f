"""Tests for the durable request journal (encoding, checksums, replay)."""

import json

import pytest

from repro.serve.journal import (
    JOURNAL_MAGIC,
    JournalError,
    RequestJournal,
    decode_record_line,
    decode_request,
    encode_record_line,
    encode_request,
    entries_digest,
    journal_digest,
    replay,
)
from repro.serve.scheduler import ChatRequest, PersonalizeRequest


def chat(request_id, user="alice", question="my chest hurts"):
    return ChatRequest(user_id=user, question=question, request_id=request_id)


def entry_for(request_id, user="alice"):
    return {
        "request_id": request_id,
        "user_id": user,
        "kind": "chat",
        "question": "q",
        "response": "r",
    }


class TestRequestCodec:
    def test_chat_roundtrip(self):
        request = chat(7, user="bob", question="i feel dizzy")
        assert decode_request(encode_request(request)) == request

    def test_personalize_roundtrip(self, med_corpus):
        request = PersonalizeRequest(
            user_id="alice",
            dialogues=tuple(med_corpus.dialogues()[:2]),
            finetune=True,
            request_id=3,
        )
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, PersonalizeRequest)
        assert decoded.request_id == 3
        assert decoded.user_id == "alice"
        assert decoded.finetune is True
        assert len(decoded.dialogues) == 2
        # DialogueSets survive the JSON round trip content-identically.
        assert [d.to_dict() for d in decoded.dialogues] == [
            d.to_dict() for d in request.dialogues
        ]

    def test_unknown_type_raises(self):
        with pytest.raises(JournalError, match="cannot decode"):
            decode_request({"type": "telemetry"})

    def test_encode_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            encode_request({"user_id": "alice"})


class TestLineCodec:
    def test_roundtrip(self):
        record = {"kind": "meta", "answer": 42}
        line = encode_record_line(record)
        assert line.startswith(f"{JOURNAL_MAGIC} ")
        assert line.endswith("\n")
        assert decode_record_line(line) == record

    def test_checksum_mismatch_rejected(self):
        line = encode_record_line({"kind": "meta"})
        tampered = line.replace('"meta"', '"mela"')
        assert decode_record_line(tampered) is None

    def test_wrong_magic_rejected(self):
        line = encode_record_line({"kind": "meta"})
        assert decode_record_line("J9" + line[2:]) is None

    def test_non_object_payload_rejected(self):
        import hashlib

        payload = json.dumps([1, 2, 3], separators=(",", ":"))
        checksum = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert decode_record_line(f"{JOURNAL_MAGIC} {checksum} {payload}\n") is None


class TestReplayAccounting:
    def test_full_lifecycle(self, tmp_path):
        path = tmp_path / "journal.log"
        with RequestJournal(path) as journal:
            journal.record_meta({"scale": "smoke"})
            journal.record_enqueue(chat(0))
            journal.record_enqueue(chat(1, user="bob"))
            journal.record_enqueue(chat(2))
            journal.record_intent(1, "bob", round_before=0)
            journal.record_complete([entry_for(0)])
            journal.record_dead_letter(
                {"request_id": 2, "user_id": "alice", "kind": "chat", "dead_letter": True}
            )
        result = replay(path)
        assert result.meta is not None and result.meta["scale"] == "smoke"
        assert sorted(result.enqueued) == [0, 1, 2]
        assert result.is_finished(0) and result.is_finished(2)
        assert not result.is_finished(1)
        assert [request.request_id for request in result.pending] == [1]
        assert result.intents[1]["round_before"] == 0
        assert [entry["request_id"] for entry in result.finished_entries()] == [0, 2]
        assert result.dropped_records == 0
        assert not result.torn_tail

    def test_missing_file_is_empty(self, tmp_path):
        result = replay(tmp_path / "never-written.log")
        assert result.records == 0
        assert result.pending == []

    def test_torn_tail_dropped_silently(self, tmp_path):
        path = tmp_path / "journal.log"
        with RequestJournal(path) as journal:
            journal.record_enqueue(chat(0))
            journal.record_complete([entry_for(0)])
            journal.record_enqueue(chat(1))
        # Simulate a crash mid-append: cut the final line in half, leaving
        # it unterminated.
        data = path.read_bytes()
        last_line_start = data[:-1].rfind(b"\n") + 1
        path.write_bytes(data[: last_line_start + (len(data) - last_line_start) // 2])
        result = replay(path)
        assert result.torn_tail
        assert result.dropped_records == 0  # a torn tail is expected, not corruption
        assert sorted(result.enqueued) == [0]

    def test_midfile_corruption_dropped_and_counted(self, tmp_path):
        path = tmp_path / "journal.log"
        with RequestJournal(path) as journal:
            journal.record_enqueue(chat(0))
            journal.record_enqueue(chat(1))
            journal.record_complete([entry_for(1)])
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"request_id":1', '"request_id":9')
        path.write_text("".join(lines))
        result = replay(path)
        assert result.dropped_records == 1
        assert sorted(result.enqueued) == [0]  # the tampered enqueue is gone
        assert result.is_finished(1)

    def test_unknown_record_kind_counts_as_dropped(self, tmp_path):
        path = tmp_path / "journal.log"
        with RequestJournal(path) as journal:
            journal.append({"kind": "gossip"})
        assert replay(path).dropped_records == 1

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "journal.log"
        with RequestJournal(path) as journal:
            journal.record_enqueue(chat(0))
        with RequestJournal(path, fsync=True) as journal:
            journal.record_complete([entry_for(0)])
        result = replay(path)
        assert result.records == 2
        assert result.pending == []


class TestDigests:
    def test_digest_is_order_independent(self):
        entries = [entry_for(0), entry_for(1, user="bob"), entry_for(2)]
        assert entries_digest(entries) == entries_digest(list(reversed(entries)))

    def test_digest_is_content_sensitive(self):
        changed = dict(entry_for(0))
        changed["response"] = "something else"
        assert entries_digest([entry_for(0)]) != entries_digest([changed])

    def test_journal_digest_matches_entries_digest(self, tmp_path):
        path = tmp_path / "journal.log"
        entries = [entry_for(0), entry_for(1, user="bob")]
        with RequestJournal(path) as journal:
            journal.record_enqueue(chat(0))
            journal.record_enqueue(chat(1, user="bob"))
            # Completion order reversed relative to ids: the digest must not care.
            journal.record_complete([entries[1]])
            journal.record_complete([entries[0]])
        assert journal_digest(path) == entries_digest(entries)
