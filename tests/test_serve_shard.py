"""Sharded serving: routing, digest composition, scale-out determinism.

The acceptance property of the sharded layer is that the **aggregate
transcript digest is a function of the workload, not the topology**: the
same seeded load produces byte-identical digests for 1, 2 or 4 workers, in
process or thread mode, durable or ephemeral — and again after a hard
mid-run kill followed by ``--resume``.  The suites below pin each piece:
the consistent-hash ring (stable, balanced, minimal movement), the digest
composition algebra (partition-independent), the pool lifecycle, the resume
fences, and the CLI contract.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.experiments.presets import get_scale
from repro.serve import (
    LoadConfig,
    ServeConfig,
    aggregate_transcript_digest,
    compose_user_digests,
    run_serve,
    user_transcript_digest,
)
from repro.serve.journal import JournalError
from repro.serve.loadgen import generate_load, user_ids
from repro.serve.shard import SHARDS_META_FILE, ShardPool, ShardRing, shard_state_dir

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

SHARD_LOAD = LoadConfig(
    num_users=3,
    num_requests=9,
    personalize_every=3,
    dialogues_per_personalize=2,
    corpus_size_per_user=10,
    seed=0,
)


class TestShardRing:
    def test_deterministic_across_instances(self):
        first = ShardRing(4)
        second = ShardRing(4)
        users = user_ids(64)
        assert [first.shard_for(u) for u in users] == [second.shard_for(u) for u in users]

    def test_every_shard_owns_users(self):
        ring = ShardRing(4)
        owners = {ring.shard_for(u) for u in user_ids(256)}
        assert owners == {0, 1, 2, 3}

    def test_assignments_partition_the_users(self):
        ring = ShardRing(3)
        users = user_ids(50)
        grouped = ring.assignments(users)
        flattened = [user for shard_users in grouped.values() for user in shard_users]
        assert sorted(flattened) == sorted(users)

    def test_rebalance_moves_a_minority_of_keys(self):
        """Growing N -> N+1 shards must not reshuffle the world: consistent
        hashing moves roughly 1/(N+1) of the keys, never a majority."""
        users = user_ids(400)
        before = ShardRing(4)
        after = ShardRing(5)
        moved = sum(1 for u in users if before.shard_for(u) != after.shard_for(u))
        assert 0 < moved < len(users) // 2

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shards=st.integers(1, 8),
        users=st.sets(
            st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
            min_size=100,
            max_size=300,
        ),
    )
    def test_growing_moves_users_only_to_the_new_shard(self, shards, users):
        """N -> N+1 moves about 1/(N+1) of the users, all of them onto the
        new shard N; every other user keeps its shard."""
        before, after = ShardRing(shards), ShardRing(shards + 1)
        moved = [user for user in users if before.shard_for(user) != after.shard_for(user)]
        assert {after.shard_for(user) for user in moved} <= {shards}
        assert len(moved) / len(users) < 2 / (shards + 1)

    def test_single_shard_owns_everything(self):
        ring = ShardRing(1)
        assert {ring.shard_for(u) for u in user_ids(20)} == {0}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            ShardRing(0)


class TestDigestComposition:
    def entries_for(self, user, texts):
        return [
            {"user_id": user, "user_seq": seq, "kind": "chat", "response": text}
            for seq, text in enumerate(texts)
        ]

    def test_aggregate_is_partition_independent(self):
        """The algebra behind scale-out determinism: any shard partition of
        the same per-user entries composes to the same aggregate."""
        alice = self.entries_for("alice", ["a1", "a2"])
        bob = self.entries_for("bob", ["b1"])
        by_user = {
            "alice": user_transcript_digest(alice),
            "bob": user_transcript_digest(bob),
        }
        assert compose_user_digests(by_user) == aggregate_transcript_digest(alice + bob)
        assert compose_user_digests(by_user) == aggregate_transcript_digest(bob + alice)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        responses=st.lists(
            st.tuples(st.sampled_from(["alice", "bob", "carol", "dave", "erin"]),
                      st.text(max_size=6)),
            max_size=24,
        ),
        shard_of=st.dictionaries(st.sampled_from(["alice", "bob", "carol", "dave", "erin"]),
                                 st.integers(0, 3)),
        order=st.randoms(use_true_random=False),
    )
    def test_any_partition_composes_to_the_aggregate(self, responses, shard_of, order):
        """Shards each digest their own users; merging their per-user digests
        gives the aggregate over every entry in any order, whatever the
        partition — the algebra that keeps shared decode rounds and worker
        counts from moving a digest."""
        entries, seqs = [], {}
        for user, text in responses:
            seqs[user] = seqs.get(user, -1) + 1
            entries.append({"user_id": user, "user_seq": seqs[user], "kind": "chat",
                            "response": text})
        shards = {}
        for entry in entries:
            shards.setdefault(shard_of.get(entry["user_id"], 0), []).append(entry)
        merged = {}
        for shard_entries in shards.values():
            by_user = {}
            for entry in shard_entries:
                by_user.setdefault(entry["user_id"], []).append(entry)
            for user, user_entries in by_user.items():
                assert user not in merged
                merged[user] = user_transcript_digest(user_entries)
        order.shuffle(entries)
        assert compose_user_digests(merged) == aggregate_transcript_digest(entries)

    def test_user_digest_sorts_by_seq(self):
        entries = self.entries_for("alice", ["a1", "a2", "a3"])
        assert user_transcript_digest(entries) == user_transcript_digest(entries[::-1])

    def test_changed_entry_changes_aggregate(self):
        alice = self.entries_for("alice", ["a1", "a2"])
        tweaked = self.entries_for("alice", ["a1", "DIFFERENT"])
        assert aggregate_transcript_digest(alice) != aggregate_transcript_digest(tweaked)


def user_digests(outcome):
    """Every user's digest, from the shard summaries."""
    return {
        user: digest
        for shard in outcome.shards
        for user, digest in shard["user_digests"].items()
    }


class TestShardedServe:
    """End-to-end sharded runs (thread mode: cheap under pytest)."""

    def sharded(self, llm, workers, **kwargs):
        config = ServeConfig(load=SHARD_LOAD, workers=workers, **kwargs)
        return run_serve(config, llm=llm.clone(), mode="thread")

    def test_digest_identical_across_worker_counts(self, pretrained_llm):
        one = self.sharded(pretrained_llm, 1)
        two = self.sharded(pretrained_llm, 2)
        assert one.transcript_digest == two.transcript_digest
        assert user_digests(one) == user_digests(two)
        assert one.total_requests == two.total_requests == SHARD_LOAD.num_requests

    def test_matches_single_scheduler_run(self, pretrained_llm):
        """``--workers N`` changes topology, not behaviour: the sharded
        run's transcript and digest equal those of the in-process shard."""
        single = run_serve(ServeConfig(load=SHARD_LOAD), llm=pretrained_llm.clone())
        sharded = self.sharded(pretrained_llm, 2)
        assert single.transcript == sharded.transcript
        assert aggregate_transcript_digest(single.transcript) == sharded.transcript_digest
        assert single.transcript_digest == sharded.transcript_digest

    def test_users_partitioned_one_shard_each(self, pretrained_llm):
        outcome = self.sharded(pretrained_llm, 2)
        seen = {}
        for summary in outcome.shards:
            for user in summary["users"]:
                assert user not in seen, f"{user} served by two shards"
                seen[user] = summary["index"]
        assert sorted(seen) == user_ids(SHARD_LOAD.num_users)

    def test_durable_resume_reproduces_digest(self, pretrained_llm, tmp_path):
        state = tmp_path / "state"
        first = self.sharded(pretrained_llm, 2, state_dir=state)
        assert (state / SHARDS_META_FILE).is_file()
        assert shard_state_dir(state, 0).is_dir()
        resumed = self.sharded(pretrained_llm, 2, state_dir=state, resume=True)
        assert resumed.transcript_digest == first.transcript_digest
        assert resumed.journal_digest == first.journal_digest
        assert [shard["journal_digest"] for shard in resumed.shards] == [
            shard["journal_digest"] for shard in first.shards
        ]

    @pytest.mark.parametrize("written, resumed", [(2, 4), (1, 2), (2, 1)])
    def test_resume_refuses_different_worker_count(
        self, pretrained_llm, tmp_path, written, resumed
    ):
        """The topology fence holds at every worker count: a one-worker
        state root (``journal.log``, no manifest) counts as one shard."""
        state = tmp_path / "state"
        self.sharded(pretrained_llm, written, state_dir=state)
        with pytest.raises(JournalError, match="shards"):
            self.sharded(pretrained_llm, resumed, state_dir=state, resume=True)
        assert not (state / "journal.log").exists() or written == 1
        assert not shard_state_dir(state, 0).exists() or written > 1

    def test_fresh_run_refuses_existing_state(self, pretrained_llm, tmp_path):
        state = tmp_path / "state"
        self.sharded(pretrained_llm, 2, state_dir=state)
        with pytest.raises(JournalError, match="resume"):
            self.sharded(pretrained_llm, 2, state_dir=state)


class TestLiveStatus:
    def test_process_workers_report_progress_before_drain(self, pretrained_llm):
        """A process worker answers ``status`` at its scheduler's turn
        boundaries, so a shard busy with one large batch shows how far it
        got, not nothing until the batch ends."""
        load = LoadConfig(
            num_users=4, num_requests=24, personalize_every=3,
            dialogues_per_personalize=2, corpus_size_per_user=10, seed=0,
        )
        pool = ShardPool(ServeConfig(load=load, workers=2), pretrained_llm.clone(), mode="process")
        pool.start()
        samples = []
        try:
            pool.submit_many(generate_load(load))
            deadline = time.monotonic() + 120
            while len(pool.entries) < load.num_requests and time.monotonic() < deadline:
                samples.append([_served(view) for view in pool.statuses()])
            final = [summary["served"] for summary in pool.drain()]
        except BaseException:
            pool.terminate()
            raise
        assert any(
            len(sample) == 2 and any(0 < count < total for count, total in zip(sample, final))
            for sample in samples
        ), samples


def _served(view):
    counters = view["metrics"]["counters"]
    return sum(counters[f"serve_requests_total{{kind={kind}}}"] for kind in ("chat", "personalize"))


class TestShardedFrontend:
    def test_socket_digest_identical_across_worker_counts(self, pretrained_llm):
        """The PR-8 front-end routed through the shard pool: same per-user
        socket streams, any worker count, one transcript digest."""
        from repro.serve import FrontendThread, ServeFrontend, drive_load

        digests = {}
        for workers in (1, 2):
            frontend = ServeFrontend(
                ServeConfig(load=SHARD_LOAD, workers=workers),
                llm=pretrained_llm.clone(),
                shard_mode="thread",
            )
            thread = FrontendThread(frontend)
            host, port = thread.start()
            drive_load(host, port, SHARD_LOAD)
            outcome = thread.stop()
            assert outcome.total_requests == SHARD_LOAD.num_requests
            assert outcome.dead_letter_requests == 0
            digests[workers] = outcome.transcript_digest
        assert digests[1] == digests[2]

    def test_thread_workers_answer_every_request_once_under_contention(self, pretrained_llm):
        """Thread workers hand entries to the pool and the bridge from their
        own threads.  With more workers than cores and a very short switch
        interval, every request is still answered exactly once and the
        bridge ends with nothing in flight."""
        from repro.serve import FrontendThread, ServeFrontend, drive_load

        load = LoadConfig(num_users=8, num_requests=48, chat_only=True, seed=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            frontend = ServeFrontend(
                ServeConfig(load=load, workers=4), llm=pretrained_llm.clone(), shard_mode="thread"
            )
            server = FrontendThread(frontend)
            host, port = server.start()
            results = []
            driver = threading.Thread(
                target=lambda: results.extend(drive_load(host, port, load)), daemon=True
            )
            driver.start()
            driver.join(120)
            assert not driver.is_alive(), "clients were still waiting after 120 s"
            outcome = server.stop()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == load.num_requests
        assert not any(result.dead_letter for result in results)
        assert outcome.total_requests == load.num_requests
        assert frontend.bridge.inflight_total == 0
        assert sorted(frontend.bridge.pool.entries) == list(range(load.num_requests))


SHARD_CLI_ARGS = [
    "serve",
    "--users", "3",
    "--requests", "9",
    "--personalize-every", "3",
    "--scale", "smoke",
    "--pretrain-epochs", "1",
    "--seed", "0",
    "--workers", "2",
    "--quiet",
]


def cli_env():
    """The environment of a ``repro`` subprocess: this source tree, no crash armed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CRASH_POINT", None)
    return env


def run_sharded_cli(state_dir, resume=False, crash_point=None):
    """One ``repro serve --workers 2`` subprocess (chaos-style harness)."""
    env = cli_env()
    if crash_point is not None:
        env["REPRO_CRASH_POINT"] = crash_point
        env["REPRO_CRASH_HIT"] = "1"
        env["REPRO_CRASH_HARD"] = "1"
    args = [
        sys.executable, "-m", "repro", *SHARD_CLI_ARGS,
        "--no-artifacts", "--state-dir", str(state_dir),
    ]
    if resume:
        args.append("--resume")
    return subprocess.run(args, env=env, capture_output=True, text=True, timeout=240)


class TestShardedCLI:
    def test_writes_result_and_digest(self, tmp_path, capsys):
        out_dir = tmp_path / "sharded-run"
        code = main([*SHARD_CLI_ARGS, "--out", str(out_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert output.count("transcript digest:") == 1
        payload = json.loads((out_dir / "serve_result.json").read_text())
        assert payload["workers"] == 2
        assert [shard["index"] for shard in payload["shards"]] == [0, 1]
        assert payload["total_requests"] == 9
        assert payload["transcript_digest"] == aggregate_transcript_digest(payload["transcript"])
        assert len(payload["transcript"]) == 9
        # Per-shard adapter directories were written in the A1 format.
        adapters = list((out_dir / "adapters").glob("shard-*/*.adapter.bin"))
        assert adapters

    def test_single_worker_cli_prints_comparable_aggregate(self, tmp_path, capsys):
        """``--workers 1`` (one worker thread) must emit the same transcript
        digest a two-worker run of the load prints."""
        single_out = tmp_path / "single"
        args = [arg for arg in SHARD_CLI_ARGS if arg not in ("--workers", "2")]
        assert main([*args, "--out", str(single_out)]) == 0
        single = json.loads((single_out / "serve_result.json").read_text())
        sharded_out = tmp_path / "sharded"
        assert main([*SHARD_CLI_ARGS, "--out", str(sharded_out)]) == 0
        sharded = json.loads((sharded_out / "serve_result.json").read_text())
        assert single["transcript_digest"] == sharded["transcript_digest"]
        assert single.keys() == sharded.keys()

    def test_rejects_bad_worker_count(self, capsys):
        assert main(["serve", "--workers", "0", "--quiet"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_kill_one_shard_then_resume_matches_uninterrupted(self, tmp_path):
        """A worker SIGKILLed mid-run (power-cut style, no unwinding) must
        resume to the exact digest of a run that never crashed."""
        clean_state = tmp_path / "clean"
        clean = run_sharded_cli(clean_state)
        assert clean.returncode == 0, clean.stderr
        clean_digest = _digest_from(clean.stdout)

        crashed_state = tmp_path / "crashed"
        crashed = run_sharded_cli(crashed_state, crash_point="personalize.after_commit")
        assert crashed.returncode != 0, "the killed worker should fail the run"
        resumed = run_sharded_cli(crashed_state, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert _digest_from(resumed.stdout) == clean_digest


def _digest_from(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("transcript digest:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no digest line in output:\n{stdout}")


STOP_LOAD = LoadConfig(num_users=2, num_requests=40, personalize_every=3, seed=0)

STOP_CLI_ARGS = [
    "serve",
    "--users", "2",
    "--requests", "40",
    "--personalize-every", "3",
    "--scale", "smoke",
    "--pretrain-epochs", "1",
    "--seed", "0",
    "--no-artifacts",
    "--quiet",
]


@pytest.fixture(scope="module")
def stop_load_digest():
    """The transcript digest of the graceful-stop load served without a stop."""
    config = ServeConfig(load=STOP_LOAD, scale=get_scale("smoke", seed=0), pretrain_epochs=1)
    return run_serve(config).transcript_digest


def _journal_records(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.is_file() else 0


class TestGracefulStop:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_stops_every_worker_and_resume_completes(
        self, tmp_path, stop_load_digest, workers
    ):
        """SIGTERM to ``repro serve`` stops every worker at a turn boundary:
        the run exits 0 having served part of the load, the rest stays
        journaled, and ``--resume`` completes it to the digest of a run that
        was never stopped."""
        state = tmp_path / "state"
        command = [
            sys.executable, "-m", "repro", *STOP_CLI_ARGS,
            "--workers", str(workers), "--state-dir", str(state),
        ]
        journals = (
            [state / "journal.log"]
            if workers == 1
            else [shard_state_dir(state, index) / "journal.log" for index in range(workers)]
        )
        process = subprocess.Popen(
            command, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            deadline = time.monotonic() + 120
            # The meta record comes at boot; an enqueue record means serving began.
            while not any(_journal_records(path) > 1 for path in journals):
                assert process.poll() is None, "serve ended before it could be stopped"
                assert time.monotonic() < deadline, "no journal records within 120 s"
                time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, stderr
        served = int(stdout.split("served ", 1)[1].split(" ", 1)[0])
        assert served < STOP_LOAD.num_requests
        resumed = subprocess.run(
            [*command, "--resume"], env=cli_env(), capture_output=True, text=True, timeout=240
        )
        assert resumed.returncode == 0, resumed.stderr
        assert f"served {STOP_LOAD.num_requests} requests" in resumed.stdout
        assert _digest_from(resumed.stdout) == stop_load_digest

    def test_workers_behind_listen_serve_through_a_signal(self, tmp_path):
        """Behind ``--listen`` the parent drains on SIGINT/SIGTERM.  Forked
        workers that get the signal too (a terminal's Ctrl-C reaches the
        whole process group) keep serving, so every request is answered."""
        from repro.serve.client import drive_load, request_shutdown
        from repro.serve.frontend import wait_for_port_file

        port_file = tmp_path / "port"
        command = [
            sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
            "--port-file", str(port_file), "--workers", "2", "--scale", "smoke",
            "--pretrain-epochs", "1", "--out", str(tmp_path / "out"), "--quiet",
        ]
        process = subprocess.Popen(
            command, env=cli_env(), cwd=tmp_path, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        load = LoadConfig(num_users=3, num_requests=12, personalize_every=4, seed=0)
        results = []
        try:
            port = wait_for_port_file(port_file, timeout=120)
            children = Path(f"/proc/{process.pid}/task/{process.pid}/children").read_text()
            assert len(children.split()) == 2
            for child in children.split():
                os.kill(int(child), signal.SIGINT)
            driver = threading.Thread(
                target=lambda: results.extend(drive_load("127.0.0.1", port, load)), daemon=True
            )
            driver.start()
            driver.join(120)
            assert not driver.is_alive(), "clients were still waiting after 120 s"
            request_shutdown("127.0.0.1", port)
            _, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, stderr
        assert len(results) == load.num_requests
        assert not any(result.dead_letter for result in results)
