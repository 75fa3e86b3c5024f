"""Integration tests for fault-tolerant serving.

Everything here drives the real durable serving stack — journal, retries,
degradation, crash recovery — against injected faults and asserts the
robustness layer's headline guarantees: transient faults are invisible in
the transcript, crashes never lose or double-apply work, and persistent
failure degrades service instead of wedging it.
"""

import pytest

from repro.cli import main
from repro.experiments.presets import get_scale
from repro.llm.generation import GenerationConfig
from repro.serve import (
    CRASH_POINTS,
    ChatRequest,
    FaultPlan,
    InjectedFaultError,
    LoadConfig,
    LoRAAdapterStore,
    PermanentServingError,
    PersonalizeRequest,
    RequestScheduler,
    RetryPolicy,
    ServeConfig,
    run_serve,
)
from repro.serve.loadgen import build_serving_llm
from repro.serve.session import SessionManager, serving_framework_config

# A small load that exercises both request kinds: 2 users, 12 requests,
# 4 of them personalize (fine-tune) jobs.
LOAD = LoadConfig(
    num_users=2,
    num_requests=12,
    personalize_every=3,
    dialogues_per_personalize=2,
    seed=0,
)


@pytest.fixture(scope="module")
def serve_env(lexicons):
    """One shared serving LLM plus its pristine runtime snapshot.

    The snapshot is taken *before* any serving so every test replays from
    identical weights and RNG positions — restoring it is what makes the
    digest comparisons below meaningful.
    """
    scale = get_scale("smoke", seed=0)
    llm = build_serving_llm(scale, seed=0, lexicons=lexicons, pretrain_epochs=1)
    llm.add_lora()
    return {"scale": scale, "llm": llm, "snapshot": llm.export_runtime_state()}


def pristine_llm(serve_env):
    serve_env["llm"].load_runtime_state(serve_env["snapshot"])
    return serve_env["llm"]


class TestTransientFaults:
    def test_retried_faults_leave_no_trace_in_the_transcript(self, serve_env):
        """A run whose store hiccups (but always recovers on retry) must be
        transcript-identical to a fault-free run: retries are invisible."""
        llm = pristine_llm(serve_env)
        # cache_capacity=1 forces evictions and disk round trips on every
        # adapter swap — the I/O surface the faults are injected into.
        clean = run_serve(
            ServeConfig(load=LOAD, scale=serve_env["scale"], cache_capacity=1), llm=llm
        )
        llm = pristine_llm(serve_env)
        faulty = run_serve(
            ServeConfig(
                load=LOAD,
                scale=serve_env["scale"],
                cache_capacity=1,
                # seed=1: this plan's store-io stream fires a few faults within
                # the ~12 disk operations this load performs (seed 0's happens
                # not to dip below the rate at all).
                fault_plan=FaultPlan(seed=1, store_error_rate=0.25),
                retry=RetryPolicy(max_attempts=6),
            ),
            llm=llm,
        )
        assert faulty.retries > 0
        assert faulty.dead_letter_requests == 0
        assert faulty.degraded_chat_requests == 0
        assert faulty.transcript_digest == clean.transcript_digest

    def test_persistent_read_faults_degrade_instead_of_wedging(self, serve_env):
        """With every store read failing, chats fall back to blank-adapter
        degraded serving and personalize jobs dead-letter — the run still
        finishes every request one way or the other."""
        llm = pristine_llm(serve_env)
        outcome = run_serve(
            ServeConfig(
                load=LOAD,
                scale=serve_env["scale"],
                cache_capacity=1,
                fault_plan=FaultPlan(
                    seed=0, store_error_rate=1.0, store_error_ops=("read",)
                ),
                retry=RetryPolicy(max_attempts=2),
            ),
            llm=llm,
        )
        assert outcome.degraded_chat_requests > 0
        assert outcome.dead_letter_requests > 0  # personalize jobs whose attach failed
        # Every request is accounted for — served, degraded, or dead-lettered.
        assert outcome.total_requests == LOAD.num_requests
        assert outcome.shards[0]["health"]["sessions"]["state"] != "ok"
        # Degraded answers are flagged in the transcript.
        assert any(entry.get("degraded") for entry in outcome.transcript)

    def test_deadline_dead_letters_the_slow_turn_only(self, serve_env):
        """Virtual latency beyond the deadline dead-letters that turn's
        requests; everything else is served normally."""
        llm = pristine_llm(serve_env)
        outcome = run_serve(
            ServeConfig(
                load=LOAD,
                scale=serve_env["scale"],
                fault_plan=FaultPlan(seed=0, slow_session_at=1, slow_session_seconds=30.0),
                deadline_seconds=1.0,
            ),
            llm=llm,
        )
        assert outcome.dead_letter_requests > 0
        assert outcome.dead_letter_requests < LOAD.num_requests
        dead = [entry for entry in outcome.transcript if entry.get("dead_letter")]
        assert all(entry["error"] == "DeadlineExceededError" for entry in dead)


class TestQuarantine:
    def test_corrupt_adapter_is_quarantined_and_serving_continues(
        self, serve_env, tmp_path
    ):
        """A corrupted adapter file is renamed ``*.corrupt`` on first read
        and the user restarts from a blank adapter — no crash, no stall."""
        llm = pristine_llm(serve_env)
        adapter_dir = tmp_path / "adapters"
        outcome = run_serve(
            ServeConfig(
                load=LOAD,
                scale=serve_env["scale"],
                adapter_dir=adapter_dir,
                cache_capacity=1,  # force evictions: corruption must be re-read
                fault_plan=FaultPlan(
                    seed=0, corrupt_user="user-00", corrupt_after_writes=1
                ),
            ),
            llm=llm,
        )
        shard = outcome.shards[0]
        assert shard["store"].get("quarantined", 0) >= 1
        assert list(adapter_dir.glob("*.corrupt*"))
        assert shard["health"]["adapter_store"]["state"] == "degraded"
        assert outcome.dead_letter_requests == 0


class TestCrashRecovery:
    def test_soft_crash_at_every_point_recovers_digest_identical(
        self, serve_env, tmp_path
    ):
        """Crash at each named crash point, restart from the journal, and
        end with exactly the fault-free journal digest: no lost request, no
        double-applied fine-tune (a double apply would shift the committed
        round's loss and change the digest)."""
        llm = pristine_llm(serve_env)
        baseline = run_serve(
            ServeConfig(
                load=LOAD, scale=serve_env["scale"], state_dir=tmp_path / "baseline"
            ),
            llm=llm,
        )
        assert baseline.journal_digest is not None
        for point in CRASH_POINTS:
            llm = pristine_llm(serve_env)
            outcome = run_serve(
                ServeConfig(
                    load=LOAD,
                    scale=serve_env["scale"],
                    state_dir=tmp_path / f"crash-{point}",
                    fault_plan=FaultPlan(seed=0, crash_point=point, crash_at_hit=1),
                ),
                llm=llm,
            )
            assert outcome.restarts == 1, point
            assert outcome.journal_digest == baseline.journal_digest, point

    @pytest.mark.parametrize("workers", [1, 2])
    def test_soft_crash_reports_every_request_and_the_crash_free_digest(
        self, serve_env, tmp_path, workers
    ):
        """The outcome covers every entry the shards saw finish — not just
        the final scheduler run after the restart — for any worker count."""
        load = LoadConfig(num_users=4, num_requests=32, seed=0)

        def serve(name, plan=None):
            config = ServeConfig(
                load=load,
                scale=serve_env["scale"],
                workers=workers,
                state_dir=tmp_path / name,
                fault_plan=plan,
            )
            return run_serve(config, llm=pristine_llm(serve_env), mode="thread")

        clean = serve("clean")
        crashed = serve("crashed", FaultPlan(crash_point="chat.after_serve", crash_at_hit=3))
        assert crashed.restarts >= 1
        assert clean.total_requests == crashed.total_requests == load.num_requests
        assert len(crashed.transcript) == load.num_requests
        assert crashed.transcript_digest == clean.transcript_digest

    def test_crash_plan_without_state_dir_is_rejected(self, serve_env):
        llm = pristine_llm(serve_env)
        with pytest.raises(ValueError, match="state_dir"):
            run_serve(
                ServeConfig(
                    load=LOAD,
                    scale=serve_env["scale"],
                    fault_plan=FaultPlan(crash_point=CRASH_POINTS[0]),
                ),
                llm=llm,
            )


class TestChaosCLI:
    def test_chaos_run_reports_every_request_for_any_worker_count(self, capsys):
        """The nightly chaos run: a soft crash and injected faults, yet every
        request is reported served, under one digest, for 1 and 2 workers."""
        digests = set()
        for workers in ("1", "2"):
            code = main(
                [
                    "serve", "--chaos", "--seed", "0",
                    "--users", "4", "--requests", "32",
                    "--scale", "smoke", "--no-artifacts", "--quiet",
                    "--workers", workers,
                ]
            )
            assert code == 0
            output = capsys.readouterr().out
            assert "served 32 requests" in output, output
            lines = [line for line in output.splitlines() if "transcript digest:" in line]
            assert len(lines) == 1, output
            digests.add(lines[0].split(":", 1)[1].strip())
        assert len(digests) == 1


def _requests_served(scheduler):
    """Requests ``scheduler`` has served so far, dead-lettered ones included."""
    return sum(
        scheduler.metrics.counter("serve_requests_total", kind=kind).value
        for kind in ("chat", "personalize")
    )


def make_manager(llm, tmp_path, checkpoint_root=None):
    def factory(seed):
        return serving_framework_config(
            seed=seed,
            lora=llm.lora_config,
            buffer_bins=4,
            finetune_epochs=1,
            finetune_batch_size=4,
            synthesis_per_item=1,
        )

    return SessionManager(
        llm,
        LoRAAdapterStore(tmp_path, cache_capacity=4),
        framework_config_factory=factory,
        seed=0,
        checkpoint_root=checkpoint_root,
    )


class TestRestoreAfterRestart:
    def test_store_fault_on_first_chat_still_restores_the_session(
        self, fresh_llm, tmp_path, med_corpus, monkeypatch
    ):
        """A one-shot store read fault on a user's first chat after a durable
        restart is retried, and the retry still restores the user's engine
        from its checkpoint — so the next personalize round is round 2, not
        a second round 1 against a fresh engine."""
        generation = GenerationConfig(max_new_tokens=8)
        dialogues = tuple(med_corpus.dialogues()[:4])
        before = make_manager(fresh_llm, tmp_path / "store", tmp_path / "sessions")
        scheduler = RequestScheduler(before, max_batch_size=4, generation=generation)
        scheduler.submit(PersonalizeRequest(user_id="alice", dialogues=dialogues))
        scheduler.run()
        before.flush()
        assert before.session("alice").framework.engine.finetune_round_count == 1

        restarted = make_manager(fresh_llm, tmp_path / "store", tmp_path / "sessions")
        real_get = LoRAAdapterStore.get
        faulted = []

        def flaky_get(self, user_id):
            if not faulted:
                faulted.append(user_id)
                raise InjectedFaultError("injected: one-shot store read fault")
            return real_get(self, user_id)

        monkeypatch.setattr(LoRAAdapterStore, "get", flaky_get)
        scheduler = RequestScheduler(
            restarted, max_batch_size=4, generation=generation, retry=RetryPolicy()
        )
        scheduler.submit(ChatRequest(user_id="alice", question="q"))
        scheduler.run()
        assert faulted == ["alice"]
        assert scheduler.metrics.counter("serve_retries_total").value == 1
        assert scheduler.metrics.counter("serve_degraded_total").value == 0
        assert scheduler.metrics.counter("serve_dead_letters_total").value == 0
        engine = restarted.session("alice").framework.engine
        assert engine.finetune_round_count == 1

        scheduler.submit(PersonalizeRequest(user_id="alice", dialogues=dialogues))
        scheduler.run()
        assert engine.finetune_round_count == 2


class TestSchedulerDrain:
    def test_poisoned_user_does_not_stall_the_ring(
        self, fresh_llm, tmp_path, monkeypatch
    ):
        """When every request of one user dead-letters, their emptied queue
        is unlinked from the round-robin ring and the other users drain
        normally — the loop terminates instead of spinning."""
        manager = make_manager(fresh_llm, tmp_path)
        real_get = LoRAAdapterStore.get

        def poisoned_get(self, user_id):
            if user_id == "poison":
                raise PermanentServingError("injected: user is poisoned")
            return real_get(self, user_id)

        monkeypatch.setattr(LoRAAdapterStore, "get", poisoned_get)
        scheduler = RequestScheduler(
            manager, max_batch_size=4, generation=GenerationConfig(max_new_tokens=8)
        )
        for index in range(3):
            scheduler.submit(ChatRequest(user_id="poison", question=f"q{index}"))
        for index in range(3):
            scheduler.submit(ChatRequest(user_id="healthy", question=f"q{index}"))
        scheduler.run()
        assert _requests_served(scheduler) == 6
        assert scheduler.metrics.counter("serve_dead_letters_total").value == 3
        assert scheduler.pending_count == 0
        healthy = [
            entry
            for entry in scheduler.transcript
            if entry["user_id"] == "healthy" and not entry.get("dead_letter")
        ]
        assert len(healthy) == 3

    def test_drained_user_reenters_the_ring_on_resubmission(self, fresh_llm, tmp_path):
        manager = make_manager(fresh_llm, tmp_path)
        scheduler = RequestScheduler(
            manager, max_batch_size=4, generation=GenerationConfig(max_new_tokens=8)
        )
        scheduler.submit(ChatRequest(user_id="alice", question="first"))
        scheduler.run()
        assert _requests_served(scheduler) == 1
        scheduler.submit(ChatRequest(user_id="alice", question="second"))
        scheduler.run()
        assert _requests_served(scheduler) == 2
        assert scheduler.pending_count == 0

    def test_request_stop_drains_before_serving(self, fresh_llm, tmp_path):
        """A stop requested before the loop starts leaves the queue intact
        and degrades the scheduler's health — the graceful-shutdown half of
        the runner's signal handling."""
        manager = make_manager(fresh_llm, tmp_path)
        scheduler = RequestScheduler(
            manager, max_batch_size=4, generation=GenerationConfig(max_new_tokens=8)
        )
        scheduler.submit(ChatRequest(user_id="alice", question="q"))
        scheduler.request_stop()
        scheduler.run()
        assert scheduler.health_report()["scheduler"]["reasons"] == [
            "stopped early: drained in-flight work on request"
        ]
        assert _requests_served(scheduler) == 0
        assert scheduler.pending_count == 1
        # A follow-up run serves what was left.
        scheduler.run()
        assert _requests_served(scheduler) == 1


class TestAllDeadLetterExit:
    def test_cli_exits_3_when_nothing_is_served(self, monkeypatch, tmp_path):
        """``repro serve`` must fail loudly (exit 3) when the run made no
        progress at all — every request dead-lettered."""
        from repro.cli import main

        def poisoned_get(self, user_id):
            raise PermanentServingError("injected: store unusable")

        monkeypatch.setattr(LoRAAdapterStore, "get", poisoned_get)
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "serve",
                "--users",
                "2",
                "--requests",
                "6",
                "--scale",
                "smoke",
                "--pretrain-epochs",
                "1",
                "--no-artifacts",
                "--quiet",
            ]
        )
        assert code == 3
