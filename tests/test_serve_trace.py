"""Tests for request-trace record/replay and the front-end resume path.

The headline guarantee: a trace recorded from a live socket run, replayed
against a freshly booted server, reproduces the recorded run's normalized
transcript digest byte for byte.  The satellite guarantees: damaged or
unverifiable traces are refused (``repro replay`` exit 2), and a killed
durable front-end resumes through the PR-6 journal replay path to the same
transcript a crash-free run produces.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments.presets import get_scale
from repro.serve.adapter_store import LoRAAdapterStore
from repro.serve.client import drive_load, replay_trace_against
from repro.serve.config import ServeConfig
from repro.serve.frontend import FrontendThread, ServeFrontend
from repro.serve.journal import JOURNAL_FILE, RequestJournal, encode_record_line, replay
from repro.serve.loadgen import LoadConfig, build_serving_llm
from repro.serve.runner import make_session_manager, serving_generation_config
from repro.serve.scheduler import ChatRequest, RequestScheduler
from repro.serve.trace import (
    TRACE_MAGIC,
    TraceError,
    TraceRecorder,
    load_trace,
)


@pytest.fixture(scope="module")
def frontend_env(lexicons):
    """One shared serving LLM plus its pristine runtime snapshot.

    Default pre-train budget: a 1-epoch model answers every chat with an
    immediate EOS, which would make the digest comparisons trivial.
    """
    scale = get_scale("smoke", seed=0)
    llm = build_serving_llm(scale, seed=0, lexicons=lexicons)
    llm.add_lora()
    return {
        "scale": scale,
        "llm": llm,
        "snapshot": llm.export_runtime_state(),
        "lexicons": lexicons,
    }


def pristine_llm(frontend_env):
    frontend_env["llm"].load_runtime_state(frontend_env["snapshot"])
    return frontend_env["llm"]


def boot(frontend_env, trace_path=None, **kwargs):
    config = ServeConfig(
        load=LoadConfig(seed=0),
        scale=frontend_env["scale"],
        max_batch_size=4,
        trace_out=trace_path,
        **kwargs,
    )
    frontend = ServeFrontend(
        config,
        llm=pristine_llm(frontend_env),
        lexicons=frontend_env["lexicons"],
    )
    server = FrontendThread(frontend)
    host, port = server.start()
    return server, host, port


class TestTraceFormat:
    def test_recorder_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path, meta={"scale": "smoke", "seed": 7}) as recorder:
            recorder.record_request("alice", "chat", {"question": "q0"})
            recorder.record_request("bob", "chat", {"question": "r0"})
            recorder.record_request("alice", "chat", {"question": "q1"})
            recorder.record_summary(digest="abc123", requests=3)
        trace = load_trace(path)
        assert trace.meta["scale"] == "smoke"
        assert trace.meta["seed"] == 7
        assert trace.digest == "abc123"
        assert trace.dropped_records == 0
        assert not trace.torn_tail
        by_user = trace.by_user()
        assert [request.seq for request in by_user["alice"]] == [0, 1]
        assert [request.payload["question"] for request in by_user["alice"]] == [
            "q0",
            "q1",
        ]
        assert [request.payload["question"] for request in by_user["bob"]] == ["r0"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path, meta={"scale": "smoke"}) as recorder:
            recorder.record_request("alice", "chat", {"question": "q0"})
        with path.open("a", encoding="utf-8") as handle:
            handle.write(f"{TRACE_MAGIC} deadbeefdeadbeef {{\"kind\": \"requ")
        trace = load_trace(path)
        assert trace.torn_tail
        assert trace.dropped_records == 0
        assert len(trace.requests) == 1

    def test_corrupt_middle_record_is_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path, meta={"scale": "smoke"}) as recorder:
            recorder.record_request("alice", "chat", {"question": "q0"})
            recorder.record_request("alice", "chat", {"question": "q1"})
            recorder.record_summary(digest="abc123", requests=2)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"question"', '"quesXion"', 1)  # checksum breaks
        path.write_text("".join(lines))
        trace = load_trace(path)
        assert trace.dropped_records == 1
        assert len(trace.requests) == 1

    def test_missing_or_headerless_files_are_refused(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.jsonl")
        not_a_trace = tmp_path / "journal.log"
        not_a_trace.write_text("J1 0123456789abcdef {}\n")
        with pytest.raises(TraceError):
            load_trace(not_a_trace)


def _record_trace(path, users, requests):
    """A T1 trace as the front-end writes one; returns its request records."""
    with TraceRecorder(path, meta={"scale": "smoke", "seed": 3}) as recorder:
        recorded = [
            recorder.record_request(
                f"user-{index % users:02d}",
                "personalize" if index % 5 == 4 else "chat",
                {"question": f"question {index} \u00e9", "max_new_tokens": index % 7},
            ).to_record()
            for index in range(requests)
        ]
        recorder.record_summary(digest="ab" * 32, requests=requests)
    return recorded


def _load_damaged(data: bytes):
    """``load_trace`` of ``data``: the Trace, or None when it raised TraceError."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.jsonl"
        path.write_bytes(data)
        try:
            return load_trace(path)
        except TraceError:
            return None


def _is_subsequence(items, sequence):
    remaining = iter(sequence)
    return all(any(item == candidate for candidate in remaining) for item in items)


class TestTraceDamageProperties:
    """``load_trace`` on damaged traces.

    Whatever the damage, it either raises :class:`TraceError` or returns a
    Trace that accounts for every line of the file: the header, the
    summary, each returned request, each dropped record and the torn tail.
    Checksums keep damaged lines out, so the returned requests are always
    recorded ones, in recorded order.
    """

    def _check_accounting(self, data, recorded, trace):
        lines = data.decode("utf-8", errors="replace").splitlines(keepends=True)
        got = [request.to_record() for request in trace.requests]
        assert _is_subsequence(got, recorded)
        summary = 0 if trace.summary is None else 1
        assert 1 + summary + len(got) + trace.dropped_records + int(trace.torn_tail) == len(lines)
        return got

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(users=st.integers(1, 4), requests=st.integers(0, 12))
    def test_untouched_trace_round_trips(self, users, requests):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            recorded = _record_trace(path, users, requests)
            trace = load_trace(path)
        assert [request.to_record() for request in trace.requests] == recorded
        assert trace.dropped_records == 0 and not trace.torn_tail
        assert trace.digest == "ab" * 32 and trace.meta["seed"] == 3

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), requests=st.integers(1, 10))
    def test_byte_flips(self, data, requests):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            recorded = _record_trace(path, 3, requests)
            damaged = bytearray(path.read_bytes())
        # Arrival times make the length vary by a byte or two between
        # runs, so positions are drawn independently of it.
        flips = data.draw(st.lists(st.integers(0, 2**20), min_size=1, max_size=4))
        for position in flips:
            damaged[position % len(damaged)] ^= data.draw(st.integers(1, 255))
        trace = _load_damaged(bytes(damaged))
        if trace is not None:
            got = self._check_accounting(bytes(damaged), recorded, trace)
            # A flip breaks its own line, or two when it hits a newline.
            assert len(recorded) - len(got) <= 2 * len(flips)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), requests=st.integers(0, 10))
    def test_truncation(self, data, requests):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            recorded = _record_trace(path, 3, requests)
            original = path.read_bytes()
        cut = data.draw(st.integers(0, 2**20)) % (len(original) + 1)
        trace = _load_damaged(original[:cut])
        if trace is not None:
            got = self._check_accounting(original[:cut], recorded, trace)
            # Every request line that ended before the cut survives.
            whole_lines = original[:cut].count(b"\n")
            assert len(got) >= min(len(recorded), whole_lines - 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(garbage=st.binary(min_size=1, max_size=200), requests=st.integers(0, 10))
    def test_trailing_garbage(self, garbage, requests):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.jsonl"
            recorded = _record_trace(path, 3, requests)
            damaged = path.read_bytes() + garbage
        trace = _load_damaged(damaged)
        assert trace is not None
        got = self._check_accounting(damaged, recorded, trace)
        assert got == recorded
        assert trace.digest == "ab" * 32


class TestReplayCLIRefusals:
    """``repro replay`` must exit 2 — not crash, not replay — on bad traces."""

    def test_missing_trace_exits_2(self, tmp_path):
        assert main(["replay", str(tmp_path / "nope.jsonl"), "--quiet"]) == 2

    def test_corrupt_trace_exits_2(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path, meta={"scale": "smoke", "seed": 0}) as recorder:
            recorder.record_request("alice", "chat", {"question": "q0"})
            recorder.record_summary(digest="abc123", requests=1)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"question"', '"quesXion"', 1)
        path.write_text("".join(lines))
        assert main(["replay", str(path), "--quiet"]) == 2

    def test_summaryless_trace_exits_2(self, tmp_path):
        """A recorder killed before the run drained leaves no digest to
        verify against; replay refuses rather than vacuously passing."""
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path, meta={"scale": "smoke", "seed": 0}) as recorder:
            recorder.record_request("alice", "chat", {"question": "q0"})
        assert main(["replay", str(path), "--quiet"]) == 2

    def test_version_1_trace_exits_2_asking_for_a_rerecord(self, tmp_path, capsys):
        """A v1 summary holds the digest the front-end reported before it
        switched to the aggregate: replaying it would be a false divergence."""
        path = tmp_path / "trace.jsonl"
        header = {"kind": "header", "version": 1, "scale": "smoke", "seed": 0}
        summary = {"kind": "summary", "transcript_digest": "abc123", "requests": 1}
        path.write_text(
            encode_record_line(header, magic=TRACE_MAGIC)
            + encode_record_line(summary, magic=TRACE_MAGIC)
        )
        with pytest.raises(TraceError, match="re-record"):
            load_trace(path)
        assert main(["replay", str(path), "--quiet"]) == 2
        assert "re-record" in capsys.readouterr().err


class TestRecordReplayDigest:
    def test_recorded_and_replayed_runs_digest_identically(
        self, frontend_env, tmp_path
    ):
        """Record a live socket run, then re-drive the trace against a fresh
        boot from identical model state: the two normalized transcript
        digests must be byte-identical."""
        trace_path = tmp_path / "trace.jsonl"
        load = LoadConfig(num_users=2, num_requests=8, personalize_every=4, seed=0)

        server, host, port = boot(frontend_env, trace_path=trace_path)
        outcomes = drive_load(host, port, load)
        recorded = server.stop()
        assert len(outcomes) == load.num_requests
        assert recorded.dead_letter_requests == 0

        trace = load_trace(trace_path)
        assert trace.digest == recorded.transcript_digest
        assert len(trace.requests) == load.num_requests
        assert trace.summary["requests"] == recorded.total_requests
        assert trace.dropped_records == 0

        server, host, port = boot(frontend_env)
        replay_outcomes = replay_trace_against(host, port, trace)
        replayed = server.stop()
        assert len(replay_outcomes) == load.num_requests
        assert replayed.transcript_digest == trace.digest


class TestFrontendResume:
    def test_killed_server_resumes_to_the_crash_free_transcript(
        self, frontend_env, tmp_path
    ):
        """A durable front-end killed with journaled-but-unserved requests
        must, on ``resume=True``, re-serve them through the PR-6 replay path
        before the socket opens — landing on the same normalized transcript
        digest as a crash-free run of the same per-user workload."""
        env = frontend_env

        # Crash-free reference: a live server boot driven over the socket.
        server, host, port = boot(env)
        reference_outcomes = drive_load(
            host, port, LoadConfig(num_users=1, num_requests=3, chat_only=True, seed=0)
        )
        reference = server.stop()
        assert len(reference_outcomes) == 3
        assert reference.dead_letter_requests == 0
        # The reference transcript (sorted by per-user order) carries the
        # exact question stream the crashed journal below must enqueue.
        user_id = reference.transcript[0]["user_id"]
        questions = [entry["question"] for entry in reference.transcript]

        # "Crash": journal the same requests as enqueued, never serve them,
        # and abandon the process state (the journal's crash contract).
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        llm = pristine_llm(env)
        store = LoRAAdapterStore(state_dir / "adapters", cache_capacity=4)
        manager = make_session_manager(
            llm,
            store,
            env["scale"],
            seed=0,
            lexicons=env["lexicons"],
            checkpoint_root=state_dir / "sessions",
        )
        journal = RequestJournal(state_dir / JOURNAL_FILE)
        scheduler = RequestScheduler(
            manager,
            max_batch_size=4,
            generation=serving_generation_config(llm, env["scale"]),
            journal=journal,
        )
        for question in questions:
            scheduler.submit(ChatRequest(user_id=user_id, question=question))
        journal.close()
        pending_before = replay(state_dir / JOURNAL_FILE)
        assert len(pending_before.pending) == len(questions)

        # Resume: the pending requests are re-served before the socket opens.
        server, host, port = boot(env, state_dir=state_dir, resume=True)
        resumed = server.stop()
        assert resumed.total_requests == len(reference.transcript)
        assert resumed.transcript_digest == reference.transcript_digest
        # The journal now records everything as finished.
        after = replay(state_dir / JOURNAL_FILE)
        assert after.pending == []
