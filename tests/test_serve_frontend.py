"""Tests for the socket front-end: protocol, backpressure, drain, digests.

Everything network-shaped here runs over real TCP connections against a
:class:`~repro.serve.frontend.ServeFrontend` in a background thread — the
same stack ``repro serve --listen`` boots, minus the subprocess (the CI
``frontend-smoke`` job covers that).
"""

import asyncio
import os
import threading
import time

import pytest

from repro.experiments.presets import get_scale
from repro.serve import PermanentServingError
from repro.serve import frontend as frontend_module
from repro.serve.client import ServeClient, drive_load, fetch_stats
from repro.serve.frontend import (
    BUSY_QUEUE_FULL,
    BUSY_USER_LIMIT,
    ERR_BAD_PAYLOAD,
    ERR_OVERSIZED,
    ERR_PROTOCOL,
    ERR_UNKNOWN_OP,
    FRAME_BUSY,
    FRAME_DEAD_LETTER,
    FRAME_DONE,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_METRICS,
    MAX_FRAME_BYTES,
    FrontendThread,
    ProtocolError,
    ServeFrontend,
    decode_frame,
    encode_frame,
    parse_listen,
    stream_chunks,
    wait_for_port_file,
)
from repro.serve.config import ServeConfig
from repro.serve.faults import FaultPlan
from repro.serve.journal import JournalError
from repro.serve.loadgen import LoadConfig, build_serving_llm
from repro.serve.runner import ShardServer, aggregate_transcript_digest, normalize_entry
from repro.serve.adapter_store import LoRAAdapterStore


@pytest.fixture(scope="module")
def frontend_env(lexicons):
    """One shared serving LLM plus its pristine runtime snapshot.

    Restoring the snapshot before every boot makes the cross-boot digest
    comparisons meaningful (same weights, same RNG positions).  The default
    pre-train budget (not the 1-epoch shortcut) is deliberate: an
    undertrained smoke model answers with an immediate EOS, which would let
    the token-streaming assertions pass vacuously.
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


def boot(frontend_env, **kwargs):
    """Boot one front-end from pristine state; returns (server, host, port)."""
    config = ServeConfig(
        load=LoadConfig(seed=0),
        scale=frontend_env["scale"],
        max_batch_size=4,
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


async def read_frames_until_eof(reader):
    frames = []
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            break
        frames.append(decode_frame(line))
    return frames


class TestFraming:
    def test_encode_decode_roundtrip(self):
        frame = {"op": "chat", "id": 3, "question": "does aspirin help?"}
        assert decode_frame(encode_frame(frame).rstrip(b"\n")) == frame

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"this is not json")
        assert excinfo.value.code == ERR_PROTOCOL

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"[1,2,3]")
        assert excinfo.value.code == ERR_PROTOCOL

    def test_encode_rejects_oversized_frames(self):
        with pytest.raises(ProtocolError) as excinfo:
            encode_frame({"question": "x" * MAX_FRAME_BYTES})
        assert excinfo.value.code == ERR_OVERSIZED

    def test_stream_chunks_reconstruct_the_response(self):
        text = "take two of these and rest"
        assert " ".join(stream_chunks(text)) == text
        assert stream_chunks("") == []

    def test_digest_ignores_cross_user_interleaving(self):
        """The normalized digest must not depend on global arrival order."""
        a0 = normalize_entry({"request_id": 0, "user_id": "a", "response": "x"}, 0)
        b0 = normalize_entry({"request_id": 1, "user_id": "b", "response": "y"}, 0)
        assert aggregate_transcript_digest([a0, b0]) == aggregate_transcript_digest([b0, a0])
        # ...but it does depend on each user's own order.
        a1 = normalize_entry({"request_id": 2, "user_id": "a", "response": "z"}, 1)
        a1_swapped = normalize_entry({"request_id": 2, "user_id": "a", "response": "x"}, 1)
        a0_swapped = normalize_entry({"request_id": 0, "user_id": "a", "response": "z"}, 0)
        assert aggregate_transcript_digest([a0, a1]) != aggregate_transcript_digest(
            [a0_swapped, a1_swapped]
        )

    def test_parse_listen(self):
        assert parse_listen("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert parse_listen("localhost:0") == ("localhost", 0)
        for bad in ("no-port", ":8080", "host:notaport", "host:70000"):
            with pytest.raises(ValueError):
                parse_listen(bad)


class TestProtocolOverSocket:
    def test_malformed_ops_get_typed_errors_and_the_connection_survives(
        self, frontend_env
    ):
        """Unknown ops, bad JSON and bad payloads each produce a typed error
        frame — and the connection keeps working afterwards."""
        server, host, port = boot(frontend_env)

        async def scenario():
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_FRAME_BYTES + 1024
            )

            async def exchange(raw: bytes) -> dict:
                writer.write(raw)
                await writer.drain()
                return decode_frame(await reader.readuntil(b"\n"))

            frames = {}
            frames["unknown"] = await exchange(b'{"op":"frobnicate","id":1}\n')
            frames["not_json"] = await exchange(b"definitely not json\n")
            frames["not_object"] = await exchange(b"[1,2,3]\n")
            frames["no_user"] = await exchange(b'{"op":"chat","question":"hi","id":2}\n')
            frames["bad_user"] = await exchange(b'{"op":"connect","user_id":"../evil"}\n')
            frames["hello"] = await exchange(b'{"op":"connect","user_id":"user_00"}\n')
            frames["bad_question"] = await exchange(b'{"op":"chat","question":42}\n')
            frames["bad_dialogues"] = await exchange(
                b'{"op":"personalize","dialogues":[]}\n'
            )
            # The v2 aliases of ``metrics`` are gone: plain unknown ops now.
            frames["old_stats"] = await exchange(b'{"op":"stats","id":3}\n')
            frames["old_health"] = await exchange(b'{"op":"health","id":4}\n')
            frames["metrics"] = await exchange(b'{"op":"metrics"}\n')
            writer.close()
            await writer.wait_closed()
            return frames

        frames = asyncio.run(scenario())
        server.stop()
        assert frames["unknown"]["frame"] == FRAME_ERROR
        assert frames["unknown"]["error"] == ERR_UNKNOWN_OP
        assert frames["unknown"]["id"] == 1
        assert frames["not_json"]["error"] == ERR_PROTOCOL
        assert frames["not_object"]["error"] == ERR_PROTOCOL
        assert frames["no_user"]["error"] == ERR_BAD_PAYLOAD
        assert frames["bad_user"]["error"] == ERR_BAD_PAYLOAD
        assert frames["hello"]["frame"] == FRAME_HELLO
        assert frames["bad_question"]["error"] == ERR_BAD_PAYLOAD
        assert frames["bad_dialogues"]["error"] == ERR_BAD_PAYLOAD
        for name, client_id in (("old_stats", 3), ("old_health", 4)):
            assert frames[name]["frame"] == FRAME_ERROR
            assert frames[name]["error"] == ERR_UNKNOWN_OP
            assert frames[name]["id"] == client_id
        # The connection survived every error: the final metrics op worked.
        assert frames["metrics"]["frame"] == FRAME_METRICS

    def test_torn_final_frame_closes_quietly(self, frontend_env):
        """EOF mid-line is the socket analogue of the journal's torn tail:
        dropped silently, no error frame, no crash — and the server keeps
        accepting new connections."""
        server, host, port = boot(frontend_env)

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op":"sta')  # torn: no terminating newline
            await writer.drain()
            writer.write_eof()
            frames = await read_frames_until_eof(reader)
            writer.close()
            await writer.wait_closed()
            # The listener is still alive and serving.
            async with ServeClient(host, port) as client:
                metrics = await client.metrics()
            return frames, metrics

        frames, metrics = asyncio.run(scenario())
        outcome = server.stop()
        assert frames == []
        assert metrics["frame"] == FRAME_METRICS
        assert outcome.total_requests == 0

    def test_oversized_frame_gets_a_typed_error_then_close(self, frontend_env):
        """A line that exceeds the frame limit cannot be parsed incrementally;
        the server reports ``oversized`` and closes that connection."""
        server, host, port = boot(frontend_env)

        async def scenario():
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_FRAME_BYTES + 1024
            )
            writer.write(b"x" * (MAX_FRAME_BYTES + 4096) + b"\n")
            await writer.drain()
            frames = await read_frames_until_eof(reader)
            writer.close()
            await writer.wait_closed()
            return frames

        frames = asyncio.run(scenario())
        server.stop()
        assert len(frames) == 1
        assert frames[0]["frame"] == FRAME_ERROR
        assert frames[0]["error"] == ERR_OVERSIZED


class TestStreamingAndDrain:
    def test_token_stream_reconstructs_the_response_and_shutdown_drains(
        self, frontend_env
    ):
        server, host, port = boot(frontend_env)

        async def scenario():
            async with ServeClient(host, port) as client:
                await client.connect("user_00")
                result = await client.chat("what should I do about headaches?")
                await client.shutdown()
            return result

        result = asyncio.run(scenario())
        outcome = server.stop()
        assert not result.dead_letter
        assert result.streamed, "chat produced no token frames"
        # The incremental token frames reassemble to exactly the done frame's
        # authoritative response string.
        assert result.streamed_text == result.response
        assert outcome.total_requests == 1
        assert outcome.chat_requests == 1


    def test_a_chat_result_is_its_result_frames_in_one_write(self, frontend_env, monkeypatch):
        """The bytes a client reads for a chat are exactly the encoded
        ``_result_frames`` of the entry the server delivered, frame for
        frame, and the server sends them with one socket write."""
        entries = []
        server_writes = []
        send_result = frontend_module._Connection.send_result
        write = asyncio.StreamWriter.write

        def recording_send_result(self, client_id, entry):
            entries.append((client_id, entry))
            send_result(self, client_id, entry)

        def recording_write(self, data):
            if threading.current_thread() is not threading.main_thread():
                server_writes.append(bytes(data))
            write(self, data)

        monkeypatch.setattr(frontend_module._Connection, "send_result", recording_send_result)
        monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
        server, host, port = boot(frontend_env)

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op":"connect","user_id":"user_00"}\n')
            hello = decode_frame(await reader.readuntil(b"\n"))
            writer.write(b'{"op":"chat","id":7,"question":"what should I do about headaches?"}\n')
            lines = []
            while not lines or decode_frame(lines[-1])["frame"] != FRAME_DONE:
                lines.append(await reader.readuntil(b"\n"))
            writer.close()
            await writer.wait_closed()
            return hello, lines

        hello, lines = asyncio.run(scenario())
        server.stop()
        assert hello["frame"] == FRAME_HELLO
        [(client_id, entry)] = entries
        expected = frontend_module._result_frames(client_id, entry)
        assert len(expected) > 1, "the chat streamed no token frames"
        assert [decode_frame(line) for line in lines] == expected
        assert b"".join(lines) == b"".join(encode_frame(frame) for frame in expected)
        assert b"".join(lines) in server_writes


class TestBackpressure:
    def test_blind_pipelining_is_refused_not_buffered(self, frontend_env, monkeypatch):
        """With the shard worker held inside its first batch nothing
        finishes, so admission alone decides: a client pipelining past its
        per-user cap gets ``user_limit``, a second user pushing the total
        past the global bound gets ``queue_full``, and the bridge depth never
        exceeds its configured bound.  Released, the drain serves everything
        that *was* admitted and flushes the results before closing."""
        release = threading.Event()
        serve = ShardServer.serve

        def held_serve(self, requests=()):
            requests = list(requests)
            if requests:
                release.wait(timeout=60)
            serve(self, requests)

        monkeypatch.setattr(ShardServer, "serve", held_serve)
        server, host, port = boot(frontend_env, max_queue_depth=3, max_inflight_per_user=2)
        frontend = server.frontend

        async def scenario():
            reader_a, writer_a = await asyncio.open_connection(host, port)
            writer_a.write(encode_frame({"op": "connect", "user_id": "user_00"}))
            for index in range(3):  # cap is 2: the third must be refused
                writer_a.write(encode_frame({"op": "chat", "question": f"q{index}"}))
            await writer_a.drain()
            hello_a = decode_frame(await reader_a.readuntil(b"\n"))
            busy_a = decode_frame(await reader_a.readuntil(b"\n"))

            reader_b, writer_b = await asyncio.open_connection(host, port)
            writer_b.write(encode_frame({"op": "connect", "user_id": "user_01"}))
            for index in range(2):  # depth is 3 with 2 admitted: one fits
                writer_b.write(encode_frame({"op": "chat", "question": f"r{index}"}))
            await writer_b.drain()
            hello_b = decode_frame(await reader_b.readuntil(b"\n"))
            busy_b = decode_frame(await reader_b.readuntil(b"\n"))

            depth_at_peak = frontend.bridge.inflight_total
            release.set()
            frontend.request_drain()
            frames_a = await read_frames_until_eof(reader_a)
            frames_b = await read_frames_until_eof(reader_b)
            for writer in (writer_a, writer_b):
                writer.close()
                await writer.wait_closed()
            return hello_a, busy_a, hello_b, busy_b, depth_at_peak, frames_a, frames_b

        hello_a, busy_a, hello_b, busy_b, depth, frames_a, frames_b = asyncio.run(
            scenario()
        )
        outcome = server.stop()
        assert hello_a["frame"] == FRAME_HELLO and hello_b["frame"] == FRAME_HELLO
        assert busy_a["frame"] == FRAME_BUSY
        assert busy_a["reason"] == BUSY_USER_LIMIT
        assert busy_b["frame"] == FRAME_BUSY
        assert busy_b["reason"] == BUSY_QUEUE_FULL
        # The bridge never grew past its bound, however hard the clients pushed.
        assert depth == 3
        assert outcome.max_queue_depth_seen == 3
        assert outcome.busy_rejections == 2
        # Everything admitted before the drain was served, and its result
        # frames reached the clients before their sockets closed.
        assert sum(1 for f in frames_a if f["frame"] == FRAME_DONE) == 2
        assert sum(1 for f in frames_b if f["frame"] == FRAME_DONE) == 1
        assert outcome.total_requests == 3
        assert outcome.dead_letter_requests == 0


class TestDigestStability:
    def test_two_boots_of_the_same_load_digest_identically(self, frontend_env):
        """The acceptance property, in-process: two independent server boots
        driven with the same per-user workload over real sockets produce
        byte-identical normalized transcript digests, and the digest the
        clients observe (stats frame) equals the one the server reports."""
        load = LoadConfig(num_users=2, num_requests=8, personalize_every=4, seed=0)
        digests = set()
        for _ in range(2):
            server, host, port = boot(frontend_env)
            outcomes = drive_load(host, port, load)
            stats = fetch_stats(host, port)
            outcome = server.stop()
            assert len(outcomes) == load.num_requests
            assert outcome.dead_letter_requests == 0
            assert stats["transcript_digest"] == outcome.transcript_digest
            digests.add(outcome.transcript_digest)
        assert len(digests) == 1


class TestAllDeadLetterOverSocket:
    def test_cli_exits_3_and_dead_letter_frames_reach_clients_before_close(
        self, monkeypatch, tmp_path
    ):
        """The PR-6 exit-code contract must hold over the socket bridge:
        when every request dead-letters, ``repro serve --listen`` exits 3 —
        and each client has already received its dead-letter frame (read off
        the still-open connection) before the server closes it."""
        from repro.cli import main

        def poisoned_get(self, user_id, *args):
            raise PermanentServingError("injected: store unusable")

        monkeypatch.setattr(LoRAAdapterStore, "get", poisoned_get)
        monkeypatch.setattr(LoRAAdapterStore, "read", poisoned_get)
        monkeypatch.chdir(tmp_path)
        port_file = tmp_path / "port"
        exit_code = {}

        def serve():
            exit_code["value"] = main(
                [
                    "serve",
                    "--listen",
                    "127.0.0.1:0",
                    "--port-file",
                    str(port_file),
                    "--out",
                    str(tmp_path / "out"),
                    "--scale",
                    "smoke",
                    "--pretrain-epochs",
                    "1",
                    "--max-batch",
                    "4",
                    "--quiet",
                ]
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        port = wait_for_port_file(port_file, timeout=120)

        async def drive():
            results = []
            async with ServeClient("127.0.0.1", port) as client:
                await client.connect("user_00")
                results.append(await client.chat("q0"))
                results.append(await client.chat("q1"))
                await client.shutdown()
            return results

        results = asyncio.run(drive())
        thread.join(timeout=120)
        assert not thread.is_alive(), "server did not drain after shutdown"
        # The frames arrived while the connection was still open...
        assert [result.dead_letter for result in results] == [True, True]
        # ...and the CLI still failed loudly.
        assert exit_code["value"] == 3


class TestDeadWorker:
    def test_every_waiting_client_gets_a_dead_letter(self, frontend_env, monkeypatch):
        """A serving failure ends the shard worker.  The request it held is
        answered with a dead letter at the drain, a request admitted after
        its death at once, and the drain completes with the failure in the
        front-end's health."""

        def broken_serve(self, requests=()):
            if list(requests):
                raise RuntimeError("injected serving failure")

        monkeypatch.setattr(ShardServer, "serve", broken_serve)
        server, host, port = boot(frontend_env)
        frontend = server.frontend

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"op": "connect", "user_id": "user_00"}))
            writer.write(encode_frame({"op": "chat", "question": "q0"}))
            await writer.drain()
            hello = decode_frame(await reader.readuntil(b"\n"))
            deadline = time.monotonic() + 60
            # A dead worker reports no status.
            while frontend.bridge.pool.statuses() and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            async with ServeClient(host, port) as client:
                await client.connect("user_01")
                later = await client.chat("q1")
            frontend.request_drain()
            frames = await read_frames_until_eof(reader)
            writer.close()
            await writer.wait_closed()
            return hello, later, frames

        hello, later, frames = asyncio.run(scenario())
        outcome = server.stop()
        assert hello["frame"] == FRAME_HELLO
        assert later.dead_letter
        assert [frame["frame"] for frame in frames] == [FRAME_DEAD_LETTER]
        assert outcome.total_requests == 0
        assert frontend.bridge.health.state.value == "failed"


def drive_within(host, port, load, timeout=120.0):
    """``drive_load`` that fails instead of hanging when a client is stranded."""
    outcomes = []
    thread = threading.Thread(
        target=lambda: outcomes.append(drive_load(host, port, load)), daemon=True
    )
    thread.start()
    thread.join(timeout)
    assert outcomes, f"clients were still waiting after {timeout:.0f}s"
    return outcomes[0]


class TestSharedRecoveryCore:
    """The front-end recovers through the one serving core at any worker count."""

    def frontend(self, frontend_env, seed=0, **changes):
        config = ServeConfig(
            load=LoadConfig(seed=seed),
            scale=frontend_env["scale"],
            max_batch_size=4,
            **changes,
        )
        return ServeFrontend(
            config,
            llm=pristine_llm(frontend_env),
            lexicons=frontend_env["lexicons"],
            shard_mode="thread",
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_with_a_different_seed_is_refused(self, frontend_env, tmp_path, workers):
        state = tmp_path / "state"
        first = FrontendThread(self.frontend(frontend_env, state_dir=state, workers=workers))
        first.start()
        first.stop()
        resumed = FrontendThread(
            self.frontend(frontend_env, seed=1, state_dir=state, workers=workers, resume=True)
        )
        with pytest.raises(RuntimeError, match="different load"):
            resumed.start()
        assert isinstance(resumed.error, JournalError)

    def test_soft_crash_restarts_in_place_with_the_crash_free_digest(
        self, frontend_env, tmp_path
    ):
        load = LoadConfig(num_users=2, num_requests=8, personalize_every=4, seed=0)
        clean = FrontendThread(self.frontend(frontend_env, state_dir=tmp_path / "clean"))
        host, port = clean.start()
        drive_within(host, port, load)
        reference = clean.stop()

        plan = FaultPlan(crash_point="chat.after_serve")
        crashed = FrontendThread(
            self.frontend(frontend_env, state_dir=tmp_path / "crashed", fault_plan=plan)
        )
        host, port = crashed.start()
        outcomes = drive_within(host, port, load)
        outcome = crashed.stop()
        assert len(outcomes) == load.num_requests
        assert not any(result.dead_letter for result in outcomes)
        assert outcome.total_requests == load.num_requests
        assert outcome.metrics["counters"]["serve_restarts_total"] == 1
        assert outcome.transcript_digest == reference.transcript_digest

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fsync_and_max_restarts_reach_every_journal(
        self, frontend_env, tmp_path, monkeypatch, workers
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        state = tmp_path / "state"
        frontend = self.frontend(
            frontend_env, state_dir=state, workers=workers, fsync=True, max_restarts=3
        )
        server = FrontendThread(frontend)
        host, port = server.start()
        drive_within(host, port, LoadConfig(num_users=2, num_requests=2, chat_only=True))
        server.stop()
        assert synced, "no journal append was fsynced"
        pool = frontend.bridge.pool
        cores = [pool.worker_config(index) for index in range(workers)]
        assert [config.max_restarts for config in cores] == [3] * workers
        assert all(config.fsync for config in cores)
