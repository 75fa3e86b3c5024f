"""The fast inference path: ``prefill``, KV-cached decoding, batching.

These are the exact-equivalence suites the fast path is contractually held
to, all against the one full-window forward, the autograd ``forward``:
incremental KV-cached decoding must reproduce it (including across the
``max_seq_len`` truncation boundary, where the sliding window shifts every
absolute position and the cache must be invalidated), the graph-free
``hidden_states`` times the tied head must reproduce its logits bit for bit,
and batched decoding must reproduce per-sequence decoding row by row.
"""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.llm.generation import (
    GenerationConfig,
    apply_repetition_penalty,
    generate_tokens,
    generate_tokens_batch,
    sample_next_token,
)
from repro.nn import (
    LayerKVCache,
    load_lora_state_dict,
    lora_layers,
    lora_state_dict,
    row_adapters,
)
from repro.nn.functional import attention_scores_mask
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.textmetrics.rouge import Rouge1Reference, rouge_1_f1


def _forward_last(model, ids):
    """Next-token logits of the full-window autograd ``forward`` over ``ids``."""
    return model(np.asarray(ids, dtype=np.int64)[None, :]).data[0, -1]


class TestInferenceMode:
    def test_forward_values_identical(self, pretrained_llm):
        token_ids = np.arange(1, 13, dtype=np.int64)[None, :]
        model = pretrained_llm.model
        model.eval()
        assert model.lm_head is None  # tied head: logits are hidden @ E.T
        default_logits = model(token_ids)
        fast_logits = model.hidden_states(token_ids) @ model.token_embedding.weight.data.T
        np.testing.assert_array_equal(default_logits.data, fast_logits)

    def test_no_tape_recorded(self, pretrained_llm):
        token_ids = np.arange(1, 9, dtype=np.int64)[None, :]
        model = pretrained_llm.model
        model.eval()
        logits = model.prefill(token_ids, model.new_kv_cache())
        hidden = model.hidden_states(token_ids)
        assert type(logits) is np.ndarray and type(hidden) is np.ndarray
        assert logits.shape == (1, model.config.vocab_size)
        assert hidden.shape == (1, 8, model.config.dim)


class TestCausalMask:
    def test_square_mask_unchanged(self):
        mask = attention_scores_mask(4)
        expected = np.triu(np.ones((4, 4), dtype=bool), k=1)
        np.testing.assert_array_equal(mask, expected)

    def test_rectangular_mask_for_cached_decoding(self):
        mask = attention_scores_mask(2, past_len=3)
        assert mask.shape == (2, 5)
        # Query 0 sits at global position 3: sees keys 0..3, hides key 4.
        np.testing.assert_array_equal(mask[0], [False, False, False, False, True])
        np.testing.assert_array_equal(mask[1], [False, False, False, False, False])


class TestKVCachedEquivalence:
    def test_incremental_logits_match_full_forward(self, pretrained_llm):
        """Per-step logits from the cached path equal the full re-forward."""
        model = pretrained_llm.model
        model.eval()
        ids = list(range(1, 11))
        cache = model.new_kv_cache()
        primed = model.prefill(np.asarray(ids[:4], dtype=np.int64)[None, :], cache)
        np.testing.assert_allclose(primed[0], _forward_last(model, ids[:4]), atol=1e-5)
        for position in range(4, len(ids)):
            step = model.decode_logits(ids[position], cache)
            np.testing.assert_allclose(
                step, _forward_last(model, ids[: position + 1]), atol=1e-5
            )
        assert cache.length == len(ids)

    def test_greedy_decode_identical_within_window(self, pretrained_llm):
        prompt = pretrained_llm.tokenizer.encode(
            "what should i know about dose and vial", add_bos=True, add_eos=False
        )
        config = GenerationConfig(max_new_tokens=16, greedy=True)
        reference, _ = _reference_decode(pretrained_llm.model, prompt, config)
        cached = generate_tokens(pretrained_llm.model, prompt, config)
        assert cached == reference

    def test_greedy_decode_identical_across_truncation_boundary(self, pretrained_llm):
        """The window slides past max_seq_len; the cache must be rebuilt.

        64 context tokens + 80 new tokens forces dozens of slid-window steps,
        each of which invalidates the cache (absolute positions shifted), so
        any stale reuse would diverge from the full-forward reference.
        """
        max_context = pretrained_llm.config.max_seq_len
        prompt = pretrained_llm.tokenizer.encode(
            "what should i know about dose and vial", add_bos=True, add_eos=False
        )
        config = GenerationConfig(max_new_tokens=max_context + 16, greedy=True)
        reference, _ = _reference_decode(pretrained_llm.model, prompt, config)
        cached = generate_tokens(pretrained_llm.model, prompt, config)
        assert len(reference) == max_context + 16  # actually crossed the boundary
        assert cached == reference

    def test_sampled_decode_identical_with_same_seed(self, pretrained_llm):
        prompt = pretrained_llm.tokenizer.encode(
            "my chest hurts and i feel dizzy", add_bos=True, add_eos=False
        )
        config = GenerationConfig(
            max_new_tokens=80, temperature=0.5, repetition_penalty=1.3,
            stop_token_id=pretrained_llm.tokenizer.vocabulary.eos_id,
        )
        reference, _ = _reference_decode(
            pretrained_llm.model, prompt, config, rng=np.random.default_rng(7)
        )
        cached = generate_tokens(
            pretrained_llm.model, prompt, config, rng=np.random.default_rng(7)
        )
        assert cached == reference

    def test_long_prompt_left_truncated(self, pretrained_llm):
        max_context = pretrained_llm.config.max_seq_len
        prompt = list(range(1, max_context + 20))
        config = GenerationConfig(max_new_tokens=4, greedy=True)
        reference, _ = _reference_decode(pretrained_llm.model, prompt, config)
        cached = generate_tokens(pretrained_llm.model, prompt, config)
        assert cached == reference

    def test_cache_overflow_raises(self, pretrained_llm):
        model = pretrained_llm.model
        model.eval()
        max_context = model.config.max_seq_len
        cache = model.new_kv_cache()
        model.prefill(np.ones((1, max_context), dtype=np.int64), cache)
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            model.decode_logits(1, cache)
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            model.prefill(np.ones((1, 1), dtype=np.int64), cache)

    def test_kv_cache_reset(self, pretrained_llm):
        model = pretrained_llm.model
        model.eval()
        cache = model.new_kv_cache()
        model.prefill(np.ones((1, 5), dtype=np.int64), cache)
        assert cache.length == 5
        cache.reset()
        assert cache.length == 0

    def test_layer_cache_raises_past_capacity(self):
        rows = np.zeros((2, 3, 1, 4), dtype=np.float32)
        cache = LayerKVCache(3)
        keys, _ = cache.extend(np.ones((2, 3, 2, 4), dtype=np.float32), rows.repeat(2, 2))
        assert keys.shape == (2, 3, 2, 4)
        cache.append_token(rows[:, :, 0], rows[:, :, 0])
        with pytest.raises(ValueError, match="capacity 3 exceeded"):
            cache.append_token(rows[:, :, 0], rows[:, :, 0])
        with pytest.raises(ValueError, match="capacity 3 exceeded"):
            cache.extend(rows, rows)
        assert cache.length == 3
        # A reset cache takes a new batch size within the same capacity.
        cache.reset()
        keys, _ = cache.extend(np.ones((1, 3, 3, 4), dtype=np.float32), rows[:1].repeat(3, 2))
        assert keys.shape == (1, 3, 3, 4) and cache.length == 3
        with pytest.raises(ValueError, match="capacity 3 exceeded"):
            LayerKVCache(3).extend(rows.repeat(4, 2), rows.repeat(4, 2))


class TestBatchedDecoding:
    def test_rows_match_single_sequence_greedy(self, pretrained_llm):
        questions = [
            "what should i know about dose and vial",
            "my chest hurts and i feel dizzy",
            "tell me about the refill",
        ]
        config = GenerationConfig(
            max_new_tokens=24, greedy=True,
            stop_token_id=pretrained_llm.tokenizer.vocabulary.eos_id,
        )
        prompts = [pretrained_llm._prompt_ids_for_question(q) for q in questions]
        singles = [
            generate_tokens(pretrained_llm.model, prompt, config) for prompt in prompts
        ]
        batched = generate_tokens_batch(
            pretrained_llm.model, prompts, config,
            pad_token_id=pretrained_llm.tokenizer.vocabulary.pad_id,
        )
        assert batched == singles

    def test_per_sequence_stop_handling(self, pretrained_llm):
        model = pretrained_llm.model
        config = GenerationConfig(max_new_tokens=12, greedy=True, stop_token_id=None)
        prompts = [[1, 2, 3], [4, 5], [6]]
        outputs = generate_tokens_batch(model, prompts, config, pad_token_id=0)
        assert len(outputs) == 3
        # Without a stop token every row decodes to the full budget.
        assert all(len(row) == 12 for row in outputs)
        # With a stop token, each row ends at (and includes) its first stop.
        greedy_first = [row[0] for row in outputs]
        stop = greedy_first[0]
        config_stop = GenerationConfig(max_new_tokens=12, greedy=True, stop_token_id=stop)
        stopped = generate_tokens_batch(model, prompts, config_stop, pad_token_id=0)
        for row in stopped:
            if stop in row:
                assert row.index(stop) == len(row) - 1
            else:
                assert len(row) == 12

    def test_crosses_truncation_boundary(self, pretrained_llm):
        max_context = pretrained_llm.config.max_seq_len
        config = GenerationConfig(max_new_tokens=max_context + 8, greedy=True)
        prompts = [[1, 2, 3, 4], [5, 6]]
        singles = [
            generate_tokens(pretrained_llm.model, prompt, config) for prompt in prompts
        ]
        batched = generate_tokens_batch(pretrained_llm.model, prompts, config, pad_token_id=0)
        assert batched == singles

    def test_empty_batch_and_empty_prompt(self, pretrained_llm):
        config = GenerationConfig(max_new_tokens=4)
        assert generate_tokens_batch(pretrained_llm.model, [], config) == []
        with pytest.raises(ValueError):
            generate_tokens_batch(pretrained_llm.model, [[1], []], config)

    def test_respond_batch_matches_respond_greedy(self, pretrained_llm):
        questions = ["what about the dose", "my knee aches"]
        config = GenerationConfig(
            max_new_tokens=12, greedy=True,
            stop_token_id=pretrained_llm.tokenizer.vocabulary.eos_id,
        )
        singles = [pretrained_llm.respond(q, generation=config) for q in questions]
        batched = pretrained_llm.respond_batch(questions, generation=config)
        assert batched == singles


def _reference_decode(model, prompt, config, rng=None):
    """The no-cache reference loop: one full ``forward`` of the visible window per token.

    Samples as ``generate_tokens`` does (greedy ids are the argmax) and stops
    at ``config.stop_token_id``.  Returns the ids and every step's next-token
    logits ``(steps, vocab)``.
    """
    max_context = model.config.max_seq_len
    context = list(prompt)
    ids, logits_rows = [], []
    for _ in range(config.max_new_tokens):
        logits = _forward_last(model, context[-max_context:])
        next_id = sample_next_token(logits, config, rng=rng, previous_ids=ids)
        ids.append(next_id)
        logits_rows.append(logits)
        context.append(next_id)
        if next_id == config.stop_token_id:
            break
    return ids, np.stack(logits_rows)


@contextmanager
def _recorded_step_logits(model):
    """Collect the ``(B, vocab)`` next-token logits of every batched decode step.

    Wraps the two ways a step gets its logits: the padded ``prefill``
    (first step and every re-prime) and the incremental ``decode_step``.
    """
    steps = []
    entries = {name: getattr(model, name) for name in ("decode_step", "prefill")}

    def recorded(entry):
        def record(*args, **kwargs):
            logits = entry(*args, **kwargs)
            steps.append(logits.copy())
            return logits

        return record

    for name, entry in entries.items():
        setattr(model, name, recorded(entry))
    try:
        yield steps
    finally:
        for name in entries:
            delattr(model, name)


@pytest.fixture(scope="module")
def decode_models(pretrained_llm):
    """The shared pre-trained model, bare and with a non-zero LoRA adapter."""
    adapted = pretrained_llm.clone()
    adapted.add_lora()
    rng = np.random.default_rng(5)
    for layer in lora_layers(adapted.model):
        layer.lora_b.data = (rng.standard_normal(layer.lora_b.data.shape) * 0.05).astype(
            np.float32
        )
    adapted.model.eval()
    return {False: pretrained_llm.model, True: adapted.model}


_PROMPTS = st.lists(
    st.lists(st.integers(min_value=1, max_value=99), min_size=1, max_size=72),
    min_size=1,
    max_size=9,
)


class TestBatchedDecodeProperty:
    """Ragged batches of 1-9 prompts, some past ``max_seq_len`` (re-primes)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(prompts=_PROMPTS, new_tokens=st.integers(min_value=1, max_value=12),
           adapted=st.booleans())
    @example(prompts=[[5] * 60, [7, 8], [9] * 70], new_tokens=12, adapted=True)
    @example(prompts=[[3, 4, 5]], new_tokens=6, adapted=False)
    @example(prompts=[[4], [2, 3]], new_tokens=5, adapted=True)
    @example(prompts=[[6] * 75], new_tokens=4, adapted=False)
    # One row primed with 4 tokens, then cached steps (the prefill/decode_logits case).
    @example(prompts=[[1, 2, 3, 4]], new_tokens=7, adapted=False)
    # Left-padded rows whose prime is a one-token prompt.
    @example(prompts=[[7], [9], [5, 6, 7, 8, 9, 10]], new_tokens=3, adapted=True)
    def test_greedy_rows_match_alone_and_reference(
        self, decode_models, prompts, new_tokens, adapted
    ):
        model = decode_models[adapted]
        assert model.config.vocab_size > 99
        config = GenerationConfig(max_new_tokens=new_tokens, greedy=True)
        with _recorded_step_logits(model) as steps:
            batched = generate_tokens_batch(model, prompts, config, pad_token_id=0)
        assert len(steps) == new_tokens
        for row, prompt in enumerate(prompts):
            reference_ids, reference_logits = _reference_decode(model, prompt, config)
            assert batched[row] == generate_tokens(model, prompt, config)
            assert batched[row] == reference_ids
            step_logits = np.stack([logits[row] for logits in steps])
            np.testing.assert_allclose(step_logits, reference_logits, rtol=0, atol=1e-4)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(prompts=_PROMPTS, new_tokens=st.integers(min_value=1, max_value=12),
           adapted=st.booleans(), seed=st.integers(min_value=0, max_value=2**16))
    def test_sampled_decode_repeats_with_same_seed(
        self, decode_models, prompts, new_tokens, adapted, seed
    ):
        model = decode_models[adapted]
        config = GenerationConfig(
            max_new_tokens=new_tokens, temperature=0.8, top_k=20, repetition_penalty=1.2
        )
        first = generate_tokens_batch(
            model, prompts, config, rng=np.random.default_rng(seed), pad_token_id=0
        )
        again = generate_tokens_batch(
            model, prompts, config, rng=np.random.default_rng(seed), pad_token_id=0
        )
        assert first == again
        assert [len(row) for row in first] == [new_tokens] * len(prompts)


@pytest.fixture(scope="module")
def mixed_adapters(pretrained_llm):
    """A LoRA-injected model plus four distinct non-zero adapter states."""
    llm = pretrained_llm.clone()
    llm.add_lora()
    llm.model.eval()
    states = []
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        state = lora_state_dict(llm.model)
        for key in state:
            state[key] = (rng.standard_normal(state[key].shape) * 0.05).astype(np.float32)
        states.append(state)
    return llm, states


@st.composite
def _segmented_prompts(draw):
    """Ragged prompts cut into 1-4 contiguous segments, each with an adapter index."""
    prompts = draw(_PROMPTS)
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(prompts) - 1)), max_size=3)))
    bounds = [0] + [cut for cut in cuts if cut < len(prompts)] + [len(prompts)]
    adapters = draw(st.lists(st.integers(0, 3), min_size=len(bounds) - 1,
                             max_size=len(bounds) - 1))
    return prompts, [(stop - start, adapter)
                     for start, stop, adapter in zip(bounds, bounds[1:], adapters)]


class TestMixedAdapterDecodeProperty:
    """One decode over rows of up to four adapters (``row_adapters``)."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=_segmented_prompts(), new_tokens=st.integers(min_value=1, max_value=12))
    @example(case=([[5] * 60, [7, 8], [9] * 70, [4, 4]], [(1, 0), (1, 1), (1, 2), (1, 3)]),
             new_tokens=12)
    @example(case=([[4], [6, 7, 8]], [(1, 0), (1, 2)]), new_tokens=4)
    @example(case=([[3] * 75, [8] * 66], [(1, 1), (1, 3)]), new_tokens=6)
    # TestPrefill's mixed-adapter batch, decoded on.
    @example(case=([[5, 6, 7, 8, 9, 10], [11, 12], [13], [14, 15, 16]],
                   [(1, 0), (2, 2), (1, 3)]), new_tokens=5)
    def test_rows_match_their_adapter_attached_alone(self, mixed_adapters, case, new_tokens):
        llm, states = mixed_adapters
        model = llm.model
        prompts, segments = case
        config = GenerationConfig(max_new_tokens=new_tokens, greedy=True)
        with row_adapters(model, [(rows, states[index]) for rows, index in segments]):
            with _recorded_step_logits(model) as steps:
                batched = generate_tokens_batch(model, prompts, config, pad_token_id=0)
        assert all(layer.row_adapters is None for layer in lora_layers(model))
        row_states = [index for rows, index in segments for _ in range(rows)]
        for row, prompt in enumerate(prompts):
            load_lora_state_dict(model, states[row_states[row]])
            with _recorded_step_logits(model) as alone_steps:
                alone = generate_tokens_batch(model, [prompt], config, pad_token_id=0)
            assert batched[row] == alone[0]
            np.testing.assert_allclose(
                np.stack([logits[row] for logits in steps]),
                np.stack([logits[0] for logits in alone_steps]),
                rtol=0,
                atol=1e-4,
            )

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(prompts=_PROMPTS, new_tokens=st.integers(min_value=1, max_value=12),
           adapter=st.integers(0, 3))
    def test_one_adapter_is_the_attached_path_exactly(
        self, mixed_adapters, prompts, new_tokens, adapter
    ):
        llm, states = mixed_adapters
        model = llm.model
        config = GenerationConfig(max_new_tokens=new_tokens, greedy=True)
        load_lora_state_dict(model, states[adapter])
        with _recorded_step_logits(model) as attached_steps:
            attached = generate_tokens_batch(model, prompts, config, pad_token_id=0)
        # Another adapter attached: the segment alone must decide the rows.
        load_lora_state_dict(model, states[(adapter + 1) % 4])
        with row_adapters(model, [(len(prompts), states[adapter])]):
            with _recorded_step_logits(model) as segment_steps:
                segmented = generate_tokens_batch(model, prompts, config, pad_token_id=0)
        assert segmented == attached
        assert len(segment_steps) == len(attached_steps)
        for ours, theirs in zip(segment_steps, attached_steps):
            assert np.array_equal(ours, theirs)

    def test_segments_cleared_on_error_and_attached_adapter_untouched(self, mixed_adapters):
        llm, states = mixed_adapters
        load_lora_state_dict(llm.model, states[0])
        before = lora_state_dict(llm.model)
        with pytest.raises(RuntimeError, match="boom"):
            with row_adapters(llm.model, [(1, states[1]), (1, states[2])]):
                assert all(layer.row_adapters is not None for layer in lora_layers(llm.model))
                raise RuntimeError("boom")
        assert all(layer.row_adapters is None for layer in lora_layers(llm.model))
        llm.respond_batch(["a", "b"], generation=GenerationConfig(max_new_tokens=3, greedy=True),
                          adapters=[(1, states[1]), (1, states[2])])
        after = lora_state_dict(llm.model)
        assert all(np.array_equal(before[key], after[key]) for key in before)

    def test_respond_batch_checks_segment_rows_and_state_shape(self, mixed_adapters):
        llm, states = mixed_adapters
        with pytest.raises(ValueError, match="cover 1 rows"):
            llm.respond_batch(["a", "b"], adapters=[(1, states[0])])
        bad = dict(states[0])
        bad["adapter.0.lora_a"] = bad["adapter.0.lora_a"][:, :-1]
        with pytest.raises(ValueError, match="different LoRA rank"):
            llm.respond_batch(["a", "b"], adapters=[(1, states[0]), (1, bad)])
        assert all(layer.row_adapters is None for layer in lora_layers(llm.model))


def _left_padded(prompts):
    """``(tokens, attention_mask, position_ids)`` of left-padded ``prompts``."""
    batch, width = len(prompts), max(len(p) for p in prompts)
    tokens = np.zeros((batch, width), dtype=np.int64)
    mask = np.zeros((batch, width), dtype=bool)
    positions = np.zeros((batch, width), dtype=np.int64)
    for row, prompt in enumerate(prompts):
        tokens[row, width - len(prompt):] = prompt
        mask[row, width - len(prompt):] = True
        positions[row, width - len(prompt):] = np.arange(len(prompt))
    return tokens, mask, positions


def _primed(model, prompts):
    """Left-pad ``prompts`` and ``prefill`` a cache; returns it, the prefill
    logits and the :meth:`decode_step` inputs ``(padding, lengths)``."""
    tokens, mask, positions = _left_padded(prompts)
    batch, width = tokens.shape
    cache = model.new_kv_cache()
    logits = model.prefill(tokens, cache, attention_mask=mask, position_ids=positions)
    padding = np.zeros((batch, model.config.max_seq_len), dtype=bool)
    padding[:, :width] = ~mask
    lengths = np.array([len(p) for p in prompts], dtype=np.int64)
    return cache, logits, padding, lengths


class TestDecodeStep:
    def test_matches_masked_forward_with_untied_head(self):
        config = TransformerConfig(vocab_size=50, max_seq_len=16, dim=16, num_layers=2,
                                   num_heads=2, tie_embeddings=False)
        model = TransformerLM(config, rng=np.random.default_rng(0))
        model.eval()
        prompts = [[1, 2, 3, 4], [5, 6], [7]]
        cache, _, padding, lengths = _primed(model, prompts)
        new = np.array([8, 9, 10], dtype=np.int64)
        got = model.decode_step(new, lengths, padding, cache)
        for row, prompt in enumerate(prompts):
            expected = _forward_last(model, prompt + [int(new[row])])
            np.testing.assert_allclose(got[row], expected, rtol=0, atol=1e-5)
        assert cache.length == 5

    def test_guards(self, pretrained_llm):
        model = pretrained_llm.model
        model.eval()
        cache, _, padding, lengths = _primed(model, [[1, 2], [3]])
        token_ids = np.array([4, 5], dtype=np.int64)
        full, _, padding, lengths = _primed(model, [[1] * model.config.max_seq_len, [2]])
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            model.decode_step(token_ids, lengths, padding, full)
        model.train()
        try:
            with pytest.raises(RuntimeError, match="eval mode"):
                model.decode_step(token_ids, lengths, padding, cache)
        finally:
            model.eval()

    def test_eval_model_is_not_walked(self, pretrained_llm):
        model = pretrained_llm.model
        model.eval()
        model.eval = lambda: pytest.fail("decode of an eval-mode model walked the tree")
        try:
            config = GenerationConfig(max_new_tokens=3, greedy=True)
            generate_tokens_batch(model, [[1, 2], [3]], config)
            generate_tokens(model, [1, 2], config)
            model.hidden_states(np.array([[1, 2, 3]]))
        finally:
            del model.eval


class TestPrefill:
    """Each row of a left-padded ``prefill`` against that row alone through ``forward``.

    One :meth:`decode_step` after the prime reads every cached key/value of
    every layer, so it checks the cache the prime filled the same way.
    """

    PROMPTS = [[5, 6, 7, 8, 9, 10], [11, 12], [13], [14, 15, 16]]

    def _check(self, model, prompts, segments=None):
        """``segments`` decode the rows with ``row_adapters``; each row's
        reference then runs with its segment's adapter attached."""
        new = np.arange(len(prompts), dtype=np.int64) + 20
        with row_adapters(model, segments) if segments else nullcontext():
            cache, got, padding, lengths = _primed(model, prompts)
            assert got.shape == (len(prompts), model.config.vocab_size)
            assert cache.length == max(len(prompt) for prompt in prompts)
            stepped = model.decode_step(new, lengths, padding, cache)
        row_states = [state for count, state in segments or () for _ in range(count)]
        for row, prompt in enumerate(prompts):
            if row_states:
                load_lora_state_dict(model, row_states[row])
            np.testing.assert_allclose(
                got[row], _forward_last(model, prompt), rtol=0, atol=1e-5
            )
            np.testing.assert_allclose(
                stepped[row], _forward_last(model, prompt + [int(new[row])]), rtol=0, atol=1e-5
            )

    def test_left_padded_batch_with_one_adapter(self, decode_models):
        self._check(decode_models[True], self.PROMPTS)

    def test_left_padded_batch_with_mixed_adapters(self, mixed_adapters):
        llm, states = mixed_adapters
        self._check(llm.model, self.PROMPTS, [(1, states[0]), (2, states[2]), (1, states[3])])

    def test_one_token_prompts(self, decode_models):
        # The last block's cache starts empty and ends holding the prompt token.
        self._check(decode_models[True], [[7]])
        self._check(decode_models[False], [[7], [9]])

    def test_untied_head_and_one_layer(self):
        for num_layers in (1, 2):
            config = TransformerConfig(vocab_size=50, max_seq_len=16, dim=16,
                                       num_layers=num_layers, num_heads=2,
                                       tie_embeddings=False)
            model = TransformerLM(config, rng=np.random.default_rng(num_layers))
            model.eval()
            self._check(model, [[1, 2, 3, 4], [5, 6], [7]])

    def test_requires_eval_mode(self, pretrained_llm):
        model = pretrained_llm.model
        model.train()
        try:
            with pytest.raises(RuntimeError, match="eval mode"):
                model.prefill(np.array([[1, 2]]), model.new_kv_cache())
        finally:
            model.eval()

    def test_hidden_states_times_tied_head_equal_forward(self, decode_models):
        model = decode_models[True]
        assert model.lm_head is None
        tokens, mask, _ = _left_padded(self.PROMPTS)
        hidden = model.hidden_states(tokens, attention_mask=mask)
        logits = model(tokens, attention_mask=mask).data
        assert np.array_equal(hidden @ model.token_embedding.weight.data.T, logits)


class TestBatchedEvaluator:
    def test_batched_equals_sequential_greedy(self, pretrained_llm, med_corpus):
        from repro.eval.rouge_eval import EvaluationConfig, ResponseEvaluator

        dialogues = med_corpus.dialogues()[40:52]
        sequential = ResponseEvaluator(
            dialogues,
            EvaluationConfig(subset_size=6, max_new_tokens=12, greedy=True,
                             seed=0, batch_size=1),
        )
        batched = ResponseEvaluator(
            dialogues,
            EvaluationConfig(subset_size=6, max_new_tokens=12, greedy=True,
                             seed=0, batch_size=4),
        )
        seq_report = sequential.evaluate(pretrained_llm)
        batch_report = batched.evaluate(pretrained_llm)
        assert batch_report.scores == pytest.approx(seq_report.scores)

    def test_learning_curve_records_eval_seconds(self):
        from repro.core.framework import LearningCurvePoint, PersonalizationResult
        from repro.eval.learning_curve import LearningCurve

        result = PersonalizationResult(selector_name="ours")
        result.learning_curve = [
            LearningCurvePoint(seen=0, rouge_1=0.1, finetune_round=0, eval_seconds=0.5),
            LearningCurvePoint(seen=8, rouge_1=0.2, finetune_round=1, eval_seconds=0.25),
        ]
        curve = LearningCurve.from_result(result)
        assert curve.eval_seconds() == [0.5, 0.25]
        assert curve.total_eval_seconds() == pytest.approx(0.75)
        assert curve.to_dict()["eval_seconds"] == [0.5, 0.25]


class TestVectorizedRepetitionPenalty:
    def _reference(self, logits, previous_ids, penalty):
        if penalty == 1.0 or not previous_ids:
            return logits
        adjusted = logits.copy()
        for token_id in set(int(t) for t in previous_ids):
            if adjusted[token_id] > 0:
                adjusted[token_id] /= penalty
            else:
                adjusted[token_id] *= penalty
        return adjusted

    def test_matches_reference_loop(self, rng):
        logits = rng.standard_normal(50)
        previous = [3, 7, 7, 12, 3, 49]
        fast = apply_repetition_penalty(logits, previous, 1.3)
        np.testing.assert_allclose(fast, self._reference(logits, previous, 1.3))

    def test_noop_cases(self, rng):
        logits = rng.standard_normal(10)
        assert apply_repetition_penalty(logits, [1, 2], 1.0) is logits
        assert apply_repetition_penalty(logits, [], 1.5) is logits

    def test_accepts_numpy_previous_ids(self, rng):
        logits = rng.standard_normal(20)
        previous = np.asarray([4, 4, 9], dtype=np.int64)
        fast = apply_repetition_penalty(logits, previous, 2.0)
        np.testing.assert_allclose(fast, self._reference(logits, [4, 9], 2.0))


class TestRouge1Reference:
    def test_matches_pairwise_rouge(self):
        reference = "the quick brown fox jumps over the lazy dog"
        cached = Rouge1Reference(reference)
        for candidate in (
            "the quick brown fox", "a completely different sentence", "", reference,
        ):
            assert cached.f1(candidate) == pytest.approx(rouge_1_f1(candidate, reference))

    def test_corpus_rouge_matches_mean_of_pairs(self):
        from repro.textmetrics.rouge import corpus_rouge_1

        candidates = ["the cat sat", "dogs bark loudly", ""]
        references = ["the cat sat on the mat", "dogs bark", "something"]
        expected = sum(rouge_1_f1(c, r) for c, r in zip(candidates, references)) / 3
        assert corpus_rouge_1(candidates, references) == pytest.approx(expected)


class TestScorerCaches:
    def test_lexicon_profile_matches_uncached_metrics(self, untrained_llm, lexicons):
        from repro.core.metrics import QualityScorer, domain_specific_score, dominant_domain

        scorer = QualityScorer(untrained_llm, lexicons)
        text = "please tell me about the dose and vial for my chest"
        num_tokens, counts, dominant = scorer.lexicon_profile(text)
        assert dominant == dominant_domain(text, lexicons)
        assert counts == lexicons.overlap_counts(text)
        scores = scorer.score(text, [])
        assert scores.dss == pytest.approx(domain_specific_score(text, lexicons))
        # Second call is served from cache and stays identical.
        assert scorer.lexicon_profile(text) == (num_tokens, counts, dominant)

    def test_embedding_cache_hit_and_invalidation(self, untrained_llm, lexicons):
        from repro.core.metrics import QualityScorer

        scorer = QualityScorer(untrained_llm, lexicons)
        text = "a dose of medicine"
        first = scorer.embed(text)
        assert scorer.embed(text) is first  # cache hit returns the same array
        scorer.invalidate_embeddings()
        second = scorer.embed(text)
        assert second is not first
        np.testing.assert_allclose(first, second)

    def test_cache_is_bounded(self, untrained_llm, lexicons):
        from repro.core.metrics import QualityScorer

        scorer = QualityScorer(untrained_llm, lexicons, cache_size=2)
        for index in range(4):
            scorer.lexicon_profile(f"text number {index}")
        assert len(scorer._profile_cache) == 2


class TestBufferCachedViews:
    def _entry(self, text, domain, value):
        from repro.core.buffer import BufferEntry
        from repro.data.dialogue import DialogueSet

        return BufferEntry(
            dialogue=DialogueSet(question=text, response="r"),
            embedding=np.full(4, float(value)),
            dominant_domain=domain,
        )

    def test_stacked_embeddings_cached_and_invalidated(self):
        from repro.core.buffer import DataBuffer

        buffer = DataBuffer(num_bins=3)
        buffer.add(self._entry("a", "x", 1.0))
        first = buffer.embeddings()
        assert buffer.embeddings() is first  # cached between mutations
        buffer.add(self._entry("b", "y", 2.0))
        second = buffer.embeddings()
        assert second is not first
        assert second.shape == (2, 4)
        buffer.replace(0, self._entry("c", "y", 3.0))
        third = buffer.embeddings()
        np.testing.assert_allclose(third[0], np.full(4, 3.0))

    def test_domain_index_tracks_mutations(self):
        from repro.core.buffer import DataBuffer

        buffer = DataBuffer(num_bins=3)
        buffer.add(self._entry("a", "x", 1.0))
        buffer.add(self._entry("b", "y", 2.0))
        assert len(buffer.entries_in_domain("x")) == 1
        assert len(buffer.entries_in_domain("y")) == 1
        buffer.replace(0, self._entry("c", "y", 3.0))
        assert buffer.entries_in_domain("x") == []
        assert len(buffer.entries_in_domain("y")) == 2
        assert [embedding[0] for embedding in buffer.embeddings_in_domain("y")] == [3.0, 2.0]


class TestVectorizedCollate:
    def test_matches_per_row_fill(self, untrained_llm):
        from repro.llm.finetune import IGNORE_INDEX, collate_batch

        examples = [
            ([1, 2, 3, 4], [2, 3, 4, IGNORE_INDEX]),
            ([5, 6], [6, IGNORE_INDEX]),
            ([7, 8, 9], [8, 9, IGNORE_INDEX]),
        ]
        batch, labels, mask = collate_batch(untrained_llm, examples)
        pad = untrained_llm.tokenizer.vocabulary.pad_id
        expected_batch = np.array([[1, 2, 3, 4], [5, 6, pad, pad], [7, 8, 9, pad]])
        expected_labels = np.array([
            [2, 3, 4, IGNORE_INDEX],
            [6, IGNORE_INDEX, IGNORE_INDEX, IGNORE_INDEX],
            [8, 9, IGNORE_INDEX, IGNORE_INDEX],
        ])
        np.testing.assert_array_equal(batch, expected_batch)
        np.testing.assert_array_equal(labels, expected_labels)
        np.testing.assert_array_equal(mask, np.array([
            [True, True, True, True],
            [True, True, False, False],
            [True, True, True, False],
        ]))
