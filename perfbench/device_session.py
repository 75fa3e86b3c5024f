"""device_session — the paper's on-device scenario over a real socket.

A child process runs ``repro serve --listen 127.0.0.1:0`` at smoke scale
with a durable ``--state-dir``; ``setup_s`` is the time from spawn until
its port file appears and the socket accepts.  The child is booted
``SETUPS`` times, each boot with a fresh state dir, and every boot serves
the same session and is then drained.

Two closed-loop connections, one user each, send chats; one request in 8,
at seeded random positions, is a personalize.  Each user then asks every
question of its corpus once, and ``rouge1`` scores those answers.  A personalize carries 3
dialogue sets and runs select → annotate → synthesize → LoRA fine-tune,
journaled and checkpointed.  Each user has one request in flight, so
scheduler batches stay at 1.  ``p50_ms``/``tail_ms`` time the
personalizes, send → ``done`` frame.

The sessions must produce the same transcript digest.  Every latency is
rescaled to full host speed (see ``hostspeed.py``) by kernel runs in this,
the client's, process.  The host's speed belongs to a CPU, and ``run.py``
pins the benchmark to one CPU, so the server child, which inherits the
pin, works where the kernel runs.  Every request's latency is then the
median of its repetitions, one per session.  The throughput is the
request count over the longer of the two users' summed latencies.

The traced run starts the child through ``launcher.py``, which installs
the same wrappers and then calls the CLI entry point; the child writes its
spans to a file at exit and they are merged with the client's spans.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    DATASET,
    MODEL_SEED,
    SCALE,
    SETUPS,
    WorkloadResult,
    clock,
    mean_rouge1,
    peak_rss_mb,
    population,
    references,
    traffic,
)
from hostspeed import WINDOW, HostSpeed
from layers import directory_mb
from stats import PercentileError, highest_supported, tail_summary
from tracer import Span, Tracer

HERE = Path(__file__).resolve().parent
NUM_USERS = 2
PERSONALIZE_EVERY = 8
#: Session requests per second of ``--seconds`` (the closed loop's rate on
#: the 2-core reference container), so the sessions last about ``--seconds``.
SESSION_RATE = 45.0
#: 40 personalizes a session leave 10 beyond p75.
MIN_PERSONALIZES = 40
TAIL = 0.75
BOOT_TIMEOUT = 120.0
EXIT_TIMEOUT = 60.0


class ServerFailed(RuntimeError):
    """The server child exited or never became ready."""


def _server_command(boot_dir: Path, spans_out: Optional[Path]) -> List[str]:
    serve = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--scale",
        SCALE,
        "--seed",
        str(MODEL_SEED),
        "--dataset",
        DATASET,
        "--out",
        str(boot_dir / "out"),
        "--state-dir",
        str(boot_dir / "state"),
        "--port-file",
        str(boot_dir / "port"),
        "--quiet",
    ]
    if spans_out is None:
        return [sys.executable, "-m", "repro", *serve]
    return [sys.executable, str(HERE / "launcher.py"), "--spans-out", str(spans_out), "--", *serve]


class Server:
    """One ``repro serve --listen`` child; always waited for on close."""

    def __init__(self, boot_dir: Path, spans_out: Optional[Path]) -> None:
        self.boot_dir = boot_dir
        boot_dir.mkdir(parents=True)
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(boot_dir / "server.log", "wb")
        self.started = clock()
        self.process = subprocess.Popen(
            _server_command(boot_dir, spans_out),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=str(boot_dir),
        )
        self.port = 0

    def wait_ready(self) -> float:
        """Seconds from spawn until the port file names a listening socket."""
        import socket

        port_file = self.boot_dir / "port"
        deadline = self.started + BOOT_TIMEOUT
        while clock() < deadline:
            if self.process.poll() is not None:
                raise ServerFailed(f"server exited with {self.process.returncode} while booting")
            text = port_file.read_text().strip() if port_file.is_file() else ""
            if text:
                self.port = int(text)
                with socket.create_connection(("127.0.0.1", self.port), timeout=5.0):
                    return clock() - self.started
            time.sleep(0.002)
        raise ServerFailed(f"no port file within {BOOT_TIMEOUT:.0f}s")

    def close(self) -> int:
        """Drain the server (shutdown op), then wait for the child to end."""
        from repro.serve.client import request_shutdown

        try:
            if self.port and self.process.poll() is None:
                request_shutdown("127.0.0.1", self.port)
            return self.process.wait(timeout=EXIT_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            return self.process.wait()
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self._log.close()


async def _drive_user(port: int, user: str, ops: List[tuple], records: List[dict]) -> None:
    from repro.serve.client import ClientError, ServeClient
    from repro.serve.frontend import FRAME_DEAD_LETTER, OP_CHAT

    async with ServeClient("127.0.0.1", port) as client:
        await client.connect(user)
        for seq, op in ops:
            record = {"user": user, "seq": seq, "op": op["op"], "start": clock()}
            try:
                if op["op"] == OP_CHAT:
                    result = await client.chat(op["question"])
                    record.update(
                        response=result.response,
                        dead_letter=result.dead_letter,
                        degraded=result.degraded,
                        busy_retries=result.busy_retries,
                    )
                else:
                    retries_before = client.busy_retries
                    frame = await client.personalize(op["dialogues"], op.get("finetune", True))
                    record.update(
                        dead_letter=frame.get("frame") == FRAME_DEAD_LETTER,
                        degraded=False,
                        busy_retries=client.busy_retries - retries_before,
                    )
            except (ClientError, OSError) as error:
                record.update(error=str(error), end=clock())
                records.append(record)
                return  # the connection is no longer usable
            record["end"] = clock()
            records.append(record)
        await client.bye()


async def _session(port: int, per_user: Dict[str, List[tuple]]) -> List[dict]:
    """Drive every user's ``(seq, op)`` list over a connection of its own."""
    records: List[dict] = []
    await asyncio.gather(
        *(_drive_user(port, user, ops, records) for user, ops in sorted(per_user.items()))
    )
    return records


async def _server_stats(port: int) -> dict:
    from repro.serve.client import ServeClient

    async with ServeClient("127.0.0.1", port) as client:
        return await client.metrics()


def run(seed: int, seconds: float, workdir: Path, tracer: Optional[Tracer] = None) -> WorkloadResult:
    from repro.serve.frontend import OP_CHAT, OP_PERSONALIZE
    from repro.serve.scheduler import ChatRequest

    drawn = max(PERSONALIZE_EVERY * MIN_PERSONALIZES, int(SESSION_RATE * seconds / SETUPS))
    users = population(NUM_USERS)
    per_user: Dict[str, List[dict]] = {user: [] for user in users}
    for request in traffic(seed, users, drawn, personalizes=drawn // PERSONALIZE_EVERY):
        if isinstance(request, ChatRequest):
            op = {"op": OP_CHAT, "question": request.question}
        else:
            dialogues = [dialogue.to_dict() for dialogue in request.dialogues]
            op = {"op": OP_PERSONALIZE, "dialogues": dialogues, "finetune": True}
        per_user[request.user_id].append(op)
    answers = references(users)
    # Each user ends with an exam: every question of its corpus, once.  The
    # session's chats are a seeded sample asked while the adapters are still
    # training, so their ROUGE-1 moved 0.30-0.37 across five seeds.
    exam_from = {user: len(ops) for user, ops in per_user.items()}
    for user, ops in per_user.items():
        ops.extend({"op": OP_CHAT, "question": question} for question in sorted(answers[user]))
    count = sum(len(ops) for ops in per_user.values())

    numbered = {user: list(enumerate(ops)) for user, ops in per_user.items()}
    host = HostSpeed()
    setup_spans: List[List[float]] = []
    session_seconds: List[float] = []
    sessions: List[List[dict]] = []
    stats: List[dict] = []
    exit_codes: List[int] = []
    roots: List[Span] = []
    server: Optional[Server] = None
    spans_files = [
        workdir / f"server-spans-{boot}.json" if tracer is not None else None
        for boot in range(SETUPS)
    ]
    try:
        with host.sampling():
            for boot in range(SETUPS):
                server = Server(workdir / f"boot{boot}", spans_files[boot])
                setup_spans.append([server.started, server.started + server.wait_ready()])
                if tracer is not None:
                    roots.append(tracer.begin("bench.session"))
                started = clock()
                sessions.append(asyncio.run(_session(server.port, numbered)))
                session_seconds.append(clock() - started)
                if tracer is not None:
                    tracer.end(roots[-1])
                time.sleep(WINDOW)  # kernel runs after the session, for its rescaling
                stats.append(asyncio.run(_server_stats(server.port)))
                exit_codes.append(server.close())
                server = None
    finally:
        if server is not None:
            server.close()
    setup_measured = [end - start for start, end in setup_spans]
    setup_seconds = [host.rescale(span)[-1] for span in setup_spans]

    state_dir = workdir / f"boot{SETUPS - 1}"
    state_mb = directory_mb(state_dir / "state") + directory_mb(state_dir / "out" / "adapters")
    spans: List[Span] = []
    if tracer is not None:
        for root, records in zip(roots, sessions):
            for record in records:
                tracer.add(
                    f"client.{record['op']}",
                    record["start"],
                    record["end"],
                    parent=root.id,
                    request=f"{record['user']}/{record['seq']}",
                    user=record["user"],
                    busy_retries=record.get("busy_retries", 0),
                )
        for boot, path in enumerate(spans_files):
            spans.extend(_load_server_spans(path, offset=(boot + 1) * 10**9))

    everything = [record for records in sessions for record in records]
    client_errors = sum(1 for r in everything if "error" in r)
    unsent = count * len(sessions) - len(everything)
    dead = sum(1 for r in everything if r.get("dead_letter"))
    degraded = sum(1 for r in everything if r.get("degraded"))
    failed = client_errors + unsent + dead + degraded

    # Every request's rescaled latency in each session, keyed by user and position.
    repeated: Dict[tuple, List[float]] = {}
    for record in everything:
        if "error" not in record:
            key = (record["user"], record["seq"])
            repeated.setdefault(key, []).append(host.rescale([record["start"], record["end"]])[-1])
    complete = {
        key: statistics.median(values)
        for key, values in repeated.items()
        if len(values) == len(sessions)
    }
    op_of = {key: per_user[key[0]][key[1]]["op"] for key in complete}
    personalize_ms = [1e3 * value for key, value in complete.items() if op_of[key] != OP_CHAT]
    chat_ms = [1e3 * value for key, value in complete.items() if op_of[key] == OP_CHAT]
    busiest_user_s = max(
        (sum(value for key, value in complete.items() if key[0] == user) for user in per_user),
        default=0.0,
    )

    pairs = []
    missing_reference = 0
    for record in sessions[0]:
        if "error" in record or record["seq"] < exam_from[record["user"]]:
            continue
        question = per_user[record["user"]][record["seq"]]["question"]
        reference = answers[record["user"]].get(question)
        if reference is None:
            missing_reference += 1
        else:
            pairs.append((record["response"], reference))

    digests = [entry.get("transcript_digest") for entry in stats]
    checks = {
        "no_dead_letter_or_degraded_frames": dead == 0 and degraded == 0,
        "server_exited_cleanly": all(code == 0 for code in exit_codes),
        "every_question_has_reference": missing_reference == 0,
        "server_served_every_request": all(
            entry.get("served", {}).get("total") == count for entry in stats
        ),
        "sessions_have_the_same_digest": len(set(digests)) == 1 and digests[0] is not None,
    }
    try:
        tail = tail_summary(personalize_ms, TAIL)
        checks["tail_percentile_supported"] = True
    except PercentileError as error:
        tail = {"p50": statistics.median(personalize_ms) if personalize_ms else 0.0,
                "p75": 0.0, "error": str(error)}
        checks["tail_percentile_supported"] = False
    chat_tail = dict(highest_supported(chat_ms), p50=statistics.median(chat_ms) if chat_ms else 0.0)
    measured_ms = [
        1e3 * (r["end"] - r["start"]) for r in everything if r["op"] != OP_CHAT and "error" not in r
    ]

    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "p50_ms": tail["p50"],
        "tail_ms": tail["p75"],
        "throughput_per_s": count / busiest_user_s if busiest_user_s else 0.0,
        "rouge1": mean_rouge1(pairs) or 0.0,
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    detail = {
        "setup_seconds": setup_seconds,
        "setup_measured_seconds": setup_measured,
        "host_speed": host.summary(),
        "requests": count,
        "sessions": len(sessions),
        "users": NUM_USERS,
        "latency": {"of": "personalize", "n": len(personalize_ms), "tail": f"p{TAIL * 100:g}"},
        "personalize_p50_ms": tail["p50"],
        "personalize_p75_ms": tail["p75"],
        "personalize_measured_p50_ms": statistics.median(measured_ms) if measured_ms else 0.0,
        "chat_latency_ms": chat_tail,
        "chat_tokens_per_s": sum(
            len(r["response"].split()) for r in sessions[0] if r["op"] == OP_CHAT and "error" not in r
        ) / session_seconds[0],
        "session_seconds": session_seconds,
        "state_mb": state_mb,
        "client_errors": client_errors,
        "dead_letters": dead,
        "degraded": degraded,
        "busy_retries": sum(r.get("busy_retries", 0) for r in everything),
        "server_exit_codes": exit_codes,
        "transcript_digest": digests[0],
    }
    return WorkloadResult(
        metrics=metrics,
        attempted=count * SETUPS,
        failed=failed,
        checks=checks,
        detail=detail,
        spans=spans,
        state_mb=state_mb,
        client_failed=client_errors + unsent,
    )


def _load_server_spans(path: Path, offset: int) -> List[Span]:
    """The child's spans, with ids shifted clear of this process's ids."""
    if path is None or not path.is_file():
        return []
    spans = []
    for data in json.loads(path.read_text()):
        span = Span.from_dict(data)
        span.id += offset
        if span.parent is not None:
            span.parent += offset
        spans.append(span)
    return spans
