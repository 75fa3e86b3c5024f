"""Tests for the cross-user request scheduler, load generator and serve CLI."""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.presets import get_scale
from repro.serve import (
    ChatRequest,
    LoadConfig,
    PersonalizeRequest,
    RequestScheduler,
    ServeConfig,
    generate_load,
    run_serve,
)
from repro.llm.generation import GenerationConfig
from repro.obs import COUNT_BUCKETS
from repro.serve.loadgen import user_ids
from repro.serve.scheduler import ROUND_ROWS
from tests.test_serve_session import make_manager


MICRO_LOAD = LoadConfig(
    num_users=2,
    num_requests=8,
    personalize_every=3,
    dialogues_per_personalize=2,
    corpus_size_per_user=10,
    seed=0,
)


def micro_serve(seed=0):
    load = LoadConfig(
        num_users=MICRO_LOAD.num_users,
        num_requests=MICRO_LOAD.num_requests,
        personalize_every=MICRO_LOAD.personalize_every,
        dialogues_per_personalize=MICRO_LOAD.dialogues_per_personalize,
        corpus_size_per_user=MICRO_LOAD.corpus_size_per_user,
        seed=seed,
    )
    return run_serve(
        ServeConfig(load=load, scale=get_scale("smoke", seed=seed), pretrain_epochs=3)
    )


class TestLoadGenerator:
    def test_deterministic(self):
        first = generate_load(MICRO_LOAD)
        second = generate_load(MICRO_LOAD)
        assert [type(request).__name__ for request in first] == [
            type(request).__name__ for request in second
        ]
        assert [request.user_id for request in first] == [
            request.user_id for request in second
        ]
        for left, right in zip(first, second):
            if isinstance(left, ChatRequest):
                assert left.question == right.question
            else:
                assert [d.question for d in left.dialogues] == [
                    d.question for d in right.dialogues
                ]

    def test_personalize_cadence_per_user(self):
        load = LoadConfig(
            num_users=2, num_requests=40, personalize_every=4, corpus_size_per_user=10
        )
        requests = generate_load(load)
        counts = {user: 0 for user in user_ids(2)}
        for request in requests:
            counts[request.user_id] += 1
            expected_personalize = counts[request.user_id] % 4 == 0
            assert isinstance(request, PersonalizeRequest) == expected_personalize

    def test_chat_only(self):
        load = LoadConfig(num_users=2, num_requests=20, chat_only=True, corpus_size_per_user=8)
        assert all(isinstance(r, ChatRequest) for r in generate_load(load))

    def test_request_ids_follow_submission_order(self):
        requests = generate_load(MICRO_LOAD)
        assert [request.request_id for request in requests] == list(range(len(requests)))


class TestSchedulerFairness:
    def test_round_robin_bounds_waiting(self, fresh_llm, tmp_path, med_corpus):
        """A user with 3 requests is served right after the heavy user's first
        batch, not after the heavy user's entire queue (incl. a fine-tune)."""
        manager = make_manager(fresh_llm, tmp_path)
        scheduler = RequestScheduler(manager, max_batch_size=4)
        questions = [dialogue.question for dialogue in med_corpus.dialogues()[:12]]
        for index in range(9):
            scheduler.submit(ChatRequest(user_id="heavy", question=questions[index]))
        scheduler.submit(
            PersonalizeRequest(user_id="heavy", dialogues=tuple(med_corpus.dialogues()[:2]))
        )
        for index in range(3):
            scheduler.submit(ChatRequest(user_id="light", question=questions[9 + index]))

        report = scheduler.run()
        # heavy: 4 + 4 + 1 chat turns (the personalize request splits the last
        # batch) + 1 personalize turn; light: one 3-chat turn, served second.
        assert report.turn_users == ["heavy", "light", "heavy", "heavy", "heavy"]
        assert report.num_turns == 5
        kinds = [turn.kind for turn in scheduler.turns]
        assert kinds == ["chat", "chat", "chat", "chat", "personalize"]
        assert report.per_user["light"]["chat"] == 3
        assert report.per_user["heavy"]["chat"] == 9
        assert report.per_user["heavy"]["personalize"] == 1
        assert report.total_requests == 13

    def test_same_adapter_requests_batch_together(self, fresh_llm, tmp_path, med_corpus):
        """Interleaved submissions still coalesce into per-user batches."""
        manager = make_manager(fresh_llm, tmp_path)
        scheduler = RequestScheduler(manager, max_batch_size=8)
        questions = [dialogue.question for dialogue in med_corpus.dialogues()[:6]]
        for index in range(3):  # a1 b1 a2 b2 a3 b3
            scheduler.submit(ChatRequest(user_id="aa", question=questions[2 * index]))
            scheduler.submit(ChatRequest(user_id="bb", question=questions[2 * index + 1]))
        report = scheduler.run()
        assert report.turn_users == ["aa", "bb"]
        assert [turn.batch_size for turn in scheduler.turns] == [3, 3]
        # Chats decode with per-row adapters in one shared round: no swaps.
        assert report.swap["count"] == 0
        assert manager.active_user is None

    def test_batched_equals_sequential_under_greedy(
        self, fresh_llm, tmp_path, med_corpus
    ):
        """Scheduling policy changes throughput, not responses (greedy)."""
        from repro.llm.generation import GenerationConfig

        greedy = GenerationConfig(max_new_tokens=8, greedy=True)
        questions = [dialogue.question for dialogue in med_corpus.dialogues()[:6]]

        def serve(max_batch_size, directory):
            manager = make_manager(fresh_llm.clone(), directory)
            scheduler = RequestScheduler(
                manager, max_batch_size=max_batch_size, generation=greedy
            )
            for index, question in enumerate(questions):
                scheduler.submit(
                    ChatRequest(user_id=f"user-{index % 2}", question=question)
                )
            scheduler.run()
            return sorted(scheduler.transcript, key=lambda r: r["request_id"])

        sequential = serve(1, tmp_path / "seq")
        batched = serve(8, tmp_path / "batch")
        assert sequential == batched

    def test_rejects_bad_batch_size(self, fresh_llm, tmp_path):
        with pytest.raises(ValueError, match="max_batch_size"):
            RequestScheduler(make_manager(fresh_llm, tmp_path), max_batch_size=0)

    def test_resubmit_after_run_is_served(self, fresh_llm, tmp_path, med_corpus):
        """A user who drained earlier re-enters the ring on a later submit."""
        manager = make_manager(fresh_llm, tmp_path)
        scheduler = RequestScheduler(manager, max_batch_size=4)
        question = med_corpus.dialogues()[0].question
        scheduler.submit(ChatRequest(user_id="alice", question=question))
        first = scheduler.run()
        assert first.total_requests == 1
        scheduler.submit(ChatRequest(user_id="alice", question=question))
        scheduler.submit(ChatRequest(user_id="bob", question=question))
        second = scheduler.run()
        assert second.total_requests == 2
        assert scheduler.pending_count == 0
        # Each report covers its own run; the transcript log is cumulative.
        assert second.num_turns == 2
        assert second.turn_users == ["alice", "bob"]
        assert len(scheduler.transcript) == 3


def _manager_with_adapters(llm, directory, users):
    """A manager whose users already own distinct non-zero adapters."""
    manager = make_manager(llm, directory, cache_capacity=2)
    rng = np.random.default_rng(7)
    for user in users:
        state = llm.export_adapter_state()
        for key in state:
            if key.endswith("lora_b"):
                state[key] = (rng.standard_normal(state[key].shape) * 0.5).astype(np.float32)
        manager.store.put(user, state)
    return manager


def _count_respond_batch(llm):
    """Record every ``respond_batch`` call on ``llm``: rows, adapter segments."""
    calls = []
    real = llm.respond_batch

    def counting(questions, *args, **kwargs):
        calls.append((len(questions), kwargs.get("adapters")))
        return real(questions, *args, **kwargs)

    llm.respond_batch = counting
    return calls


def _serve_turn_by_turn(manager, turns, requests, generation):
    """The reference: each turn on its own, attach plus ``respond_batch``."""
    by_id = {request.request_id: request for request in requests}
    outcomes = {}
    for turn in turns:
        if turn.kind == "chat":
            manager.attach(turn.user_id)
            questions = [by_id[request_id].question for request_id in turn.request_ids]
            responses = manager.llm.respond_batch(questions, generation=generation)
            outcomes.update(zip(turn.request_ids, responses))
        else:
            request = by_id[turn.request_ids[0]]
            outcome = manager.personalize(turn.user_id, list(request.dialogues))
            outcomes[request.request_id] = round(outcome.report.final_loss, 8)
    return outcomes


def _served(transcript):
    return {
        entry["request_id"]: entry["response"] if entry["kind"] == "chat" else entry["final_loss"]
        for entry in transcript
    }


class TestSharedDecodeRounds:
    """Chat turns between personalize turns decode in one ``respond_batch``."""

    GREEDY = GenerationConfig(max_new_tokens=6, greedy=True)

    def test_rounds_of_many_users_match_turn_by_turn(self, pretrained_llm, tmp_path, med_corpus):
        users, chats, max_batch = [f"user-{index:02d}" for index in range(10)], 9, 8
        llm = pretrained_llm.clone()
        manager = _manager_with_adapters(llm, tmp_path / "rounds", users)
        calls = _count_respond_batch(llm)
        scheduler = RequestScheduler(manager, max_batch_size=max_batch, generation=self.GREEDY)
        questions = [dialogue.question for dialogue in med_corpus.dialogues()]
        requests = scheduler.submit_many(
            [
                ChatRequest(user_id=user, question=questions[(turn * 7 + index) % len(questions)])
                for turn in range(chats)
                for index, user in enumerate(users)
            ]
        )
        report = scheduler.run()

        rows = len(users) * chats
        assert [rows for rows, _ in calls] == [ROUND_ROWS, rows - ROUND_ROWS]
        assert len(calls) == math.ceil(rows / ROUND_ROWS)
        # The turn sequence is the round-robin one: per user, a batch of up
        # to max_batch, then whatever is left.
        expected = [(user, max_batch) for user in users] + [(user, 1) for user in users]
        assert [(turn.user_id, turn.batch_size) for turn in scheduler.turns] == expected
        assert report.turn_users == [user for user, _ in expected]
        by_user = {user: [r.request_id for r in requests if r.user_id == user] for user in users}
        assert [turn.request_ids for turn in scheduler.turns] == (
            [by_user[user][:max_batch] for user in users]
            + [by_user[user][max_batch:] for user in users]
        )
        assert report.swap["count"] == 0
        decode_rows = scheduler.metrics.histogram("decode_rows", buckets=COUNT_BUCKETS)
        assert (decode_rows.count, decode_rows.sum) == (2, rows)
        # Each turn samples the queue as it stood right after taking its
        # batch, as when turns were served one at a time.
        queue_depth = scheduler.metrics.histogram("queue_depth", buckets=COUNT_BUCKETS)
        left = rows - np.cumsum([batch for _, batch in expected])
        assert (queue_depth.count, queue_depth.sum) == (len(expected), int(left.sum()))

        reference = _manager_with_adapters(pretrained_llm.clone(), tmp_path / "ref", users)
        expected_responses = _serve_turn_by_turn(
            reference, scheduler.turns, requests, self.GREEDY
        )
        assert _served(scheduler.transcript) == expected_responses
        # Turn order is the transcript order.
        assert [entry["request_id"] for entry in scheduler.transcript] == [
            request_id for turn in scheduler.turns for request_id in turn.request_ids
        ]

    def test_personalize_flushes_the_round(self, pretrained_llm, tmp_path, med_corpus):
        llm = pretrained_llm.clone()
        manager = _manager_with_adapters(llm, tmp_path / "rounds", ["aa", "bb"])
        calls = _count_respond_batch(llm)
        scheduler = RequestScheduler(manager, max_batch_size=8, generation=self.GREEDY)
        questions = [dialogue.question for dialogue in med_corpus.dialogues()[:6]]
        requests = scheduler.submit_many(
            [
                ChatRequest(user_id="aa", question=questions[0]),
                ChatRequest(user_id="aa", question=questions[1]),
                ChatRequest(user_id="bb", question=questions[2]),
                ChatRequest(user_id="bb", question=questions[3]),
                PersonalizeRequest(user_id="aa", dialogues=tuple(med_corpus.dialogues()[:4])),
                ChatRequest(user_id="aa", question=questions[0]),
                ChatRequest(user_id="aa", question=questions[4]),
                ChatRequest(user_id="bb", question=questions[5]),
            ]
        )
        report = scheduler.run()

        assert report.turn_users == ["aa", "bb", "aa", "aa"]
        assert [turn.kind for turn in scheduler.turns] == ["chat", "chat", "personalize", "chat"]
        # Round one (aa, bb) decodes before the fine-tune; aa's later chats
        # form the second round and see the fine-tuned adapter.
        assert [rows for rows, _ in calls] == [5, 2]
        assert manager.store.get_round("aa") == 1
        tuned = manager.store.get("aa")
        [(rows, used)] = calls[1][1]
        assert rows == 2
        assert all(np.array_equal(used[key], tuned[key]) for key in tuned)
        before = calls[0][1][0][1]
        assert not all(np.array_equal(before[key], tuned[key]) for key in tuned)
        reference = _manager_with_adapters(pretrained_llm.clone(), tmp_path / "ref", ["aa", "bb"])
        expected = _serve_turn_by_turn(reference, scheduler.turns, requests, self.GREEDY)
        assert _served(scheduler.transcript) == expected
        # Only the personalize turn attached an adapter.
        assert report.swap["count"] == 1


class TestEndToEndDeterminism:
    def test_fixed_seed_gives_identical_digest(self):
        """The acceptance criterion: two full rebuild to serve runs, one digest."""
        first = micro_serve(seed=0)
        second = micro_serve(seed=0)
        assert first.transcript_digest == second.transcript_digest
        assert first.transcript == second.transcript
        assert first.total_requests == MICRO_LOAD.num_requests

    def test_different_seed_changes_digest(self):
        assert micro_serve(seed=0).transcript_digest != micro_serve(seed=1).transcript_digest

    def test_report_accounting(self):
        outcome = micro_serve(seed=0)
        assert (
            outcome.chat_requests + outcome.personalize_requests + outcome.dead_letter_requests
            == outcome.total_requests
        )
        assert [shard["served"] for shard in outcome.shards] == [outcome.total_requests]
        assert outcome.num_users == MICRO_LOAD.num_users
        assert outcome.requests_per_sec > 0
        payload = outcome.to_dict()
        json.dumps(payload)  # must be JSON-serializable as-is
        assert payload["transcript_digest"] == outcome.transcript_digest


class TestServeCLI:
    def test_serve_cli_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "serve-run"
        code = main(
            [
                "serve",
                "--users", "2",
                "--requests", "6",
                "--scale", "smoke",
                "--seed", "0",
                "--personalize-every", "3",
                "--out", str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "transcript digest:" in output
        payload = json.loads((out_dir / "serve_result.json").read_text())
        assert payload["total_requests"] == 6
        assert payload["scale"] == "smoke"
        assert len(payload["transcript"]) == 6
        adapters = list((out_dir / "adapters").glob("*.adapter.bin"))
        assert adapters  # per-user adapter files persisted

        # Re-running into the same --out must reset the adapter directory and
        # reproduce the identical transcript digest (the acceptance check) —
        # stale trained adapters must not seed the second run.
        assert main(
            [
                "serve",
                "--users", "2",
                "--requests", "6",
                "--scale", "smoke",
                "--seed", "0",
                "--personalize-every", "3",
                "--out", str(out_dir),
                "--quiet",
            ]
        ) == 0
        capsys.readouterr()
        rerun = json.loads((out_dir / "serve_result.json").read_text())
        assert rerun["transcript_digest"] == payload["transcript_digest"]

    def test_serve_cli_rejects_contradictory_flags(self, capsys):
        code = main(["serve", "--no-artifacts", "--out", "somewhere", "--quiet"])
        assert code == 2
        assert "contradict" in capsys.readouterr().err
