"""Tests for multi-tenant session management (adapter hot-swap correctness)."""

import numpy as np
import pytest

from repro.llm.generation import GenerationConfig
from repro.serve.adapter_store import LoRAAdapterStore
from repro.serve.session import SessionManager, serving_framework_config, user_seed


def make_manager(llm, tmp_path, cache_capacity=4, selector="fifo"):
    """A session manager with tiny serving-time fine-tuning rounds."""

    def factory(seed):
        return serving_framework_config(
            seed=seed,
            lora=llm.lora_config,
            selector=selector,
            buffer_bins=4,
            finetune_epochs=2,
            finetune_batch_size=4,
            synthesis_per_item=1,
        )

    return SessionManager(
        llm,
        LoRAAdapterStore(tmp_path, cache_capacity=cache_capacity),
        framework_config_factory=factory,
        seed=0,
    )


@pytest.fixture()
def greedy():
    return GenerationConfig(max_new_tokens=10, greedy=True)


QUESTION = "my chest hurts and i feel dizzy"


class TestBlankAdapter:
    def test_fresh_user_behaves_like_base_model(
        self, pretrained_llm, fresh_llm, tmp_path, greedy
    ):
        """A new user's blank adapter is an exact no-op on the shared model."""
        base_response = pretrained_llm.respond_batch([QUESTION], generation=greedy)
        manager = make_manager(fresh_llm, tmp_path)
        assert manager.respond("alice", [QUESTION], generation=greedy) == base_response

    def test_blank_is_noop_even_on_a_pretrained_adapter(
        self, pretrained_llm, fresh_llm, tmp_path, med_corpus, greedy
    ):
        """A model arriving with a *trained* adapter must not leak it into
        new users: the captured blank forces B = 0 (an exact no-op)."""
        donor_manager = make_manager(fresh_llm, tmp_path / "donor")
        donor_manager.personalize("donor", med_corpus.dialogues()[:4])
        donor_manager.attach("donor")  # leave the trained adapter loaded

        base_response = pretrained_llm.respond_batch([QUESTION], generation=greedy)
        second = SessionManager(
            fresh_llm, LoRAAdapterStore(tmp_path / "second"), seed=0
        )
        assert second.respond("newbie", [QUESTION], generation=greedy) == base_response

    def test_chat_only_swaps_do_not_write_adapters(self, fresh_llm, tmp_path, greedy):
        """Only fine-tuning dirties an adapter: pure chat traffic never
        re-exports or rewrites unchanged adapter state on swaps."""
        manager = make_manager(fresh_llm, tmp_path, cache_capacity=1)
        for user in ("alice", "bob", "alice", "bob"):
            manager.respond(user, [QUESTION], generation=greedy)
        manager.flush()
        # One registration put per user (the blank), nothing else: the
        # capacity-1 cache evicted each blank once, so exactly two writes.
        assert manager.store.stats.disk_writes == 2

    def test_attach_is_noop_when_already_active(self, fresh_llm, tmp_path):
        manager = make_manager(fresh_llm, tmp_path)
        assert manager.attach("alice") > 0.0
        assert manager.attach("alice") == 0.0
        assert manager.active_user == "alice"
        assert manager.attach("bob") > 0.0
        assert manager.active_user == "bob"


class TestSwapIsolation:
    def test_personalization_stays_per_user(
        self, fresh_llm, tmp_path, med_corpus, greedy
    ):
        """Fine-tuning alice must not leak into bob, and alice's adapter must
        survive a swap away and back bit-identically."""
        manager = make_manager(fresh_llm, tmp_path)
        base_response = manager.respond("bob", [QUESTION], generation=greedy)

        outcome = manager.personalize("alice", med_corpus.dialogues()[:4])
        assert outcome.finetuned
        assert outcome.report is not None and outcome.report.num_examples > 0
        alice_state = fresh_llm.export_adapter_state()
        alice_response = manager.respond("alice", [QUESTION], generation=greedy)

        # Bob still sees blank-adapter behaviour.
        assert manager.respond("bob", [QUESTION], generation=greedy) == base_response
        # Alice's trained adapter is restored exactly after the round trip.
        manager.attach("alice")
        restored = fresh_llm.export_adapter_state()
        assert set(restored) == set(alice_state)
        for key in alice_state:
            np.testing.assert_array_equal(restored[key], alice_state[key])
        assert manager.respond("alice", [QUESTION], generation=greedy) == alice_response

    def test_finetuned_adapter_is_nonzero(self, fresh_llm, tmp_path, med_corpus):
        manager = make_manager(fresh_llm, tmp_path)
        manager.personalize("alice", med_corpus.dialogues()[:4])
        state = fresh_llm.export_adapter_state()
        assert any(np.any(state[key] != 0.0) for key in state if key.endswith("lora_b"))

    def test_eviction_roundtrip_with_real_adapter(
        self, fresh_llm, tmp_path, med_corpus
    ):
        """A trained adapter evicted to disk reloads bit-identically."""
        manager = make_manager(fresh_llm, tmp_path, cache_capacity=1)
        manager.personalize("alice", med_corpus.dialogues()[:4])
        manager.attach("alice")
        alice_state = fresh_llm.export_adapter_state()
        manager.attach("bob")  # alice written back, then evicted by...
        manager.attach("carol")  # ...these swaps through a capacity-1 cache
        assert manager.store.stats.evictions >= 1
        manager.attach("alice")
        restored = fresh_llm.export_adapter_state()
        for key in alice_state:
            np.testing.assert_array_equal(restored[key], alice_state[key])

    def test_swap_does_not_rebuild_the_base_model(self, fresh_llm, tmp_path):
        manager = make_manager(fresh_llm, tmp_path)
        model_id = id(fresh_llm.model)
        base_weight = None
        for name, tensor in fresh_llm.model.named_parameters():
            if "q_proj" in name and name.endswith("weight"):
                base_weight = tensor
                break
        assert base_weight is not None
        before = base_weight.data.copy()
        for user in ("alice", "bob", "carol", "alice", "bob"):
            manager.attach(user)
        assert id(fresh_llm.model) == model_id
        np.testing.assert_array_equal(base_weight.data, before)


class TestDetachAndFlush:
    def test_detach_restores_blank(self, fresh_llm, tmp_path, med_corpus, greedy):
        manager = make_manager(fresh_llm, tmp_path)
        base_response = manager.respond("bob", [QUESTION], generation=greedy)
        manager.personalize("alice", med_corpus.dialogues()[:4])
        manager.detach()
        assert manager.active_user is None
        # With the blank adapter attached the shared model answers like base.
        blank_response = fresh_llm.respond_batch([QUESTION], generation=greedy)
        assert blank_response == base_response

    def test_flush_persists_active_user(self, fresh_llm, tmp_path, med_corpus):
        manager = make_manager(fresh_llm, tmp_path)
        manager.personalize("alice", med_corpus.dialogues()[:4])
        manager.attach("alice")
        live_state = fresh_llm.export_adapter_state()
        manager.flush()
        reopened = LoRAAdapterStore(tmp_path)
        stored = reopened.get("alice")
        for key in live_state:
            np.testing.assert_array_equal(stored[key], live_state[key])


class TestSeeds:
    def test_user_seed_is_stable_and_distinct(self):
        assert user_seed("alice", 3) == user_seed("alice", 3)
        assert user_seed("alice", 3) != user_seed("bob", 3)
        assert user_seed("alice", 3) != user_seed("alice", 4)

    def test_sessions_are_cached(self, fresh_llm, tmp_path):
        manager = make_manager(fresh_llm, tmp_path)
        assert manager.session("alice") is manager.session("alice")
        assert manager.session("alice") is not manager.session("bob")
