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
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.serve import LoadConfig, ServeConfig, run_serve
from repro.serve.journal import JournalError
from repro.serve.loadgen import user_ids
from repro.serve.shard import (
    SHARDS_META_FILE,
    ShardRing,
    aggregate_transcript_digest,
    compose_user_digests,
    run_serve_sharded,
    shard_state_dir,
    user_transcript_digest,
)

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

    def test_user_digest_sorts_by_seq(self):
        entries = self.entries_for("alice", ["a1", "a2", "a3"])
        assert user_transcript_digest(entries) == user_transcript_digest(entries[::-1])

    def test_changed_entry_changes_aggregate(self):
        alice = self.entries_for("alice", ["a1", "a2"])
        tweaked = self.entries_for("alice", ["a1", "DIFFERENT"])
        assert aggregate_transcript_digest(alice) != aggregate_transcript_digest(tweaked)


class TestShardedServe:
    """End-to-end sharded runs (thread mode: cheap under pytest)."""

    def sharded(self, llm, workers, **kwargs):
        config = ServeConfig(load=SHARD_LOAD, workers=workers, **kwargs)
        return run_serve_sharded(config, llm=llm.clone(), mode="thread")

    def test_digest_identical_across_worker_counts(self, pretrained_llm):
        one = self.sharded(pretrained_llm, 1)
        two = self.sharded(pretrained_llm, 2)
        assert one.aggregate_digest == two.aggregate_digest
        assert one.user_digests == two.user_digests
        assert one.total_requests == two.total_requests == SHARD_LOAD.num_requests

    def test_matches_single_scheduler_run(self, pretrained_llm):
        """``--workers N`` changes topology, not behaviour: the sharded
        aggregate equals the normalized digest of a plain run_serve run."""
        from repro.serve.runner import normalize_entry

        single = run_serve(ServeConfig(load=SHARD_LOAD), llm=pretrained_llm.clone())
        seqs, normalized = {}, []
        for entry in sorted(single.transcript, key=lambda e: e["request_id"]):
            seq = seqs.get(entry["user_id"], 0)
            seqs[entry["user_id"]] = seq + 1
            normalized.append(normalize_entry(entry, seq))
        sharded = self.sharded(pretrained_llm, 2)
        assert aggregate_transcript_digest(normalized) == sharded.aggregate_digest

    def test_users_partitioned_one_shard_each(self, pretrained_llm):
        outcome = self.sharded(pretrained_llm, 2)
        seen = {}
        for summary in outcome.shard_summaries:
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
        assert resumed.aggregate_digest == first.aggregate_digest
        assert resumed.journal_digests == first.journal_digests

    def test_resume_refuses_different_worker_count(self, pretrained_llm, tmp_path):
        state = tmp_path / "state"
        self.sharded(pretrained_llm, 2, state_dir=state)
        with pytest.raises(JournalError, match="shards"):
            self.sharded(pretrained_llm, 4, state_dir=state, resume=True)

    def test_fresh_run_refuses_existing_state(self, pretrained_llm, tmp_path):
        state = tmp_path / "state"
        self.sharded(pretrained_llm, 2, state_dir=state)
        with pytest.raises(JournalError, match="resume"):
            self.sharded(pretrained_llm, 2, state_dir=state)


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


def run_sharded_cli(state_dir, resume=False, crash_point=None):
    """One ``repro serve --workers 2`` subprocess (chaos-style harness)."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CRASH_POINT", None)
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
        assert "aggregate transcript digest:" in output
        payload = json.loads((out_dir / "serve_result.json").read_text())
        assert payload["num_workers"] == 2
        assert payload["total_requests"] == 9
        assert payload["transcript_digest"] == payload["aggregate_digest"]
        assert len(payload["transcript"]) == 9
        # Per-shard adapter directories were written in the A1 format.
        adapters = list((out_dir / "adapters").glob("shard-*/*.adapter.bin"))
        assert adapters

    def test_single_worker_cli_prints_comparable_aggregate(self, tmp_path, capsys):
        """``--workers 1`` takes the single-scheduler path but must emit the
        same normalized aggregate digest a sharded run of the load prints."""
        single_out = tmp_path / "single"
        args = [arg for arg in SHARD_CLI_ARGS if arg not in ("--workers", "2")]
        assert main([*args, "--out", str(single_out)]) == 0
        single = json.loads((single_out / "serve_result.json").read_text())
        sharded_out = tmp_path / "sharded"
        assert main([*SHARD_CLI_ARGS, "--out", str(sharded_out)]) == 0
        sharded = json.loads((sharded_out / "serve_result.json").read_text())
        assert single["aggregate_digest"] == sharded["aggregate_digest"]

    def test_rejects_bad_worker_count(self, capsys):
        assert main(["serve", "--workers", "0", "--quiet"]) == 2
        assert "--workers" in capsys.readouterr().err

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
        if line.startswith("aggregate transcript digest:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no digest line in output:\n{stdout}")
