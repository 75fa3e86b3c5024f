"""The on-device LLM wrapper.

:class:`OnDeviceLLM` bundles the tokenizer and the numpy transformer and
exposes exactly the three capabilities the paper's framework consumes:

* ``token_embeddings`` / ``embed_text`` — the "last hidden layer" embedding
  function ``f(·)`` used by the EOE and IDD selection metrics;
* ``respond`` / ``generate`` — temperature-sampled response generation, used
  both for the user-facing answers and for data synthesis;
* LoRA fine-tuning via :mod:`repro.llm.finetune`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.llm.generation import GenerationConfig, generate_tokens, generate_tokens_batch
from repro.nn.lora import (
    LoRAConfig,
    inject_lora,
    load_lora_state_dict,
    lora_layers,
    lora_state_dict,
    row_adapters,
)
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.nn.layers import Dropout
from repro.tokenizer.word_tokenizer import WordTokenizer
from repro.utils.rng import as_generator, get_generator_state, set_generator_state


@dataclass
class OnDeviceLLMConfig:
    """Size/behaviour knobs of the on-device model."""

    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    max_seq_len: int = 96
    ffn_multiplier: int = 4
    dropout_rate: float = 0.0
    max_vocab_size: Optional[int] = 4096
    seed: int = 0


class OnDeviceLLM:
    """A small causal LM playing the role of the deployed edge-device LLM."""

    def __init__(
        self,
        tokenizer: WordTokenizer,
        config: Optional[OnDeviceLLMConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config or OnDeviceLLMConfig()
        self.tokenizer = tokenizer
        rng = as_generator(rng if rng is not None else self.config.seed)
        transformer_config = TransformerConfig(
            vocab_size=tokenizer.vocab_size,
            max_seq_len=self.config.max_seq_len,
            dim=self.config.dim,
            num_layers=self.config.num_layers,
            num_heads=self.config.num_heads,
            ffn_multiplier=self.config.ffn_multiplier,
            dropout_rate=self.config.dropout_rate,
        )
        self.model = TransformerLM(transformer_config, rng=rng)
        self._generation_rng = as_generator(self.config.seed + 17)
        self._lora_config: Optional[LoRAConfig] = None
        #: How :func:`~repro.llm.pretrain.build_pretrained_llm` produced this
        #: model (a :class:`~repro.llm.base_cache.BaseModelBoot`); None otherwise.
        self.boot = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_texts(
        cls,
        texts: Sequence[str],
        config: Optional[OnDeviceLLMConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "OnDeviceLLM":
        """Build tokenizer from ``texts`` and instantiate a fresh model."""
        config = config or OnDeviceLLMConfig()
        tokenizer = WordTokenizer.from_texts(texts, max_vocab_size=config.max_vocab_size)
        return cls(tokenizer, config=config, rng=rng)

    # ------------------------------------------------------------------ #
    # embeddings (the paper's f(T))
    # ------------------------------------------------------------------ #
    def token_embeddings(self, text: str) -> np.ndarray:
        """Last-hidden-layer embedding of every token of ``text``.

        Returns an array of shape ``(num_tokens, dim)``; this is the
        ``E = [e_1, ..., e_q]`` the EOE metric operates on.  Empty text maps
        to a single zero row so downstream metrics stay well-defined.
        """
        ids = self.tokenizer.encode(text, add_bos=True, add_eos=False,
                                    max_length=self.config.max_seq_len)
        if not ids:
            return np.zeros((1, self.config.dim), dtype=np.float32)
        hidden = self.model.hidden_states(np.asarray(ids, dtype=np.int64)[None, :])
        return hidden[0]

    def embed_text(self, text: str) -> np.ndarray:
        """A single embedding vector for ``text`` (mean of token embeddings)."""
        return self.token_embeddings(text).mean(axis=0)

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embedding vectors for a batch of texts, shape ``(len(texts), dim)``.

        All texts are encoded in one right-padded forward; padded positions
        are excluded through the attention mask and from the per-text mean, so
        each row equals the :meth:`embed_text` result for that text alone.
        """
        if not texts:
            return np.zeros((0, self.config.dim), dtype=np.float32)
        encoded = [
            self.tokenizer.encode(text, add_bos=True, add_eos=False,
                                  max_length=self.config.max_seq_len)
            for text in texts
        ]
        output = np.zeros((len(texts), self.config.dim), dtype=np.float32)
        occupied = [index for index, ids in enumerate(encoded) if ids]
        if not occupied:
            return output
        batch, mask = self.tokenizer.pad_batch([encoded[i] for i in occupied])
        hidden = self.model.hidden_states(batch, attention_mask=mask)
        for row, index in enumerate(occupied):
            output[index] = hidden[row, : len(encoded[index])].mean(axis=0)
        return output

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def generate(
        self,
        prompt: str,
        generation: Optional[GenerationConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> str:
        """Generate a free-form continuation of ``prompt``."""
        generation = generation or GenerationConfig(stop_token_id=self.tokenizer.vocabulary.eos_id)
        prompt_ids = self.tokenizer.encode(prompt, add_bos=True, add_eos=False,
                                           max_length=self.config.max_seq_len - 1)
        new_ids = generate_tokens(
            self.model,
            prompt_ids,
            generation,
            rng=rng if rng is not None else self._generation_rng,
        )
        return self.tokenizer.decode(new_ids)

    def respond(
        self,
        question: str,
        generation: Optional[GenerationConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> str:
        """Answer a user question (prompt is ``<bos> question <sep>``)."""
        generation = generation or GenerationConfig(stop_token_id=self.tokenizer.vocabulary.eos_id)
        prompt_ids = self._prompt_ids_for_question(question)
        new_ids = generate_tokens(
            self.model,
            prompt_ids,
            generation,
            rng=rng if rng is not None else self._generation_rng,
        )
        return self.tokenizer.decode(new_ids)

    def _prompt_ids_for_question(self, question: str) -> List[int]:
        """The ``<bos> question <sep>`` prompt ids used by :meth:`respond`."""
        question_ids = self.tokenizer.encode(question, add_bos=True, add_eos=False,
                                             max_length=self.config.max_seq_len // 2)
        return question_ids + [self.tokenizer.vocabulary.sep_id]

    def respond_batch(
        self,
        questions: Sequence[str],
        generation: Optional[GenerationConfig] = None,
        rng: Optional[np.random.Generator] = None,
        adapters: Optional[Sequence[Tuple[int, Dict[str, np.ndarray]]]] = None,
    ) -> List[str]:
        """Answer a batch of user questions in one padded decoding pass.

        Semantically the batched counterpart of calling :meth:`respond` per
        question: each row is prompted with ``<bos> question <sep>`` and
        decoded until ``stop_token_id`` or ``max_new_tokens``, but all rows
        share the model forwards, so the per-question cost is amortized.

        ``adapters`` decodes the rows with other adapters than the attached
        one: ``(rows, state)`` segments in question order, covering every
        question (see :func:`~repro.nn.lora.row_adapters`).  This is how one
        decode serves the questions of several users.
        """
        if not questions:
            return []
        generation = generation or GenerationConfig(stop_token_id=self.tokenizer.vocabulary.eos_id)
        prompts = [self._prompt_ids_for_question(question) for question in questions]
        segments = nullcontext()
        if adapters is not None:
            covered = sum(rows for rows, _ in adapters)
            if covered != len(questions):
                raise ValueError(
                    f"adapter segments cover {covered} rows but there are "
                    f"{len(questions)} questions"
                )
            segments = row_adapters(self.model, adapters)
        with segments:
            new_ids = generate_tokens_batch(
                self.model,
                prompts,
                generation,
                rng=rng if rng is not None else self._generation_rng,
                pad_token_id=self.tokenizer.vocabulary.pad_id,
            )
        return [self.tokenizer.decode(ids) for ids in new_ids]

    # ------------------------------------------------------------------ #
    # LoRA plumbing
    # ------------------------------------------------------------------ #
    def add_lora(self, lora_config: Optional[LoRAConfig] = None,
                 rng: Optional[np.random.Generator] = None) -> int:
        """Inject LoRA adapters (idempotent); returns the number of adapters."""
        if lora_layers(self.model):
            return len(lora_layers(self.model))
        self._lora_config = lora_config or LoRAConfig()
        adapters = inject_lora(self.model, self._lora_config,
                               rng=rng if rng is not None else as_generator(self.config.seed + 29))
        return len(adapters)

    def has_lora(self) -> bool:
        """Whether LoRA adapters are currently injected."""
        return bool(lora_layers(self.model))

    @property
    def lora_config(self) -> Optional[LoRAConfig]:
        """The LoRA configuration of the injected adapters (None before add_lora)."""
        return self._lora_config

    def export_adapter_state(self) -> Dict[str, np.ndarray]:
        """Adapter-only snapshot of the currently attached LoRA weights.

        This is the per-user artefact the multi-tenant serving layer persists:
        the frozen base transformer stays in place and only the A/B low-rank
        matrices travel.  Raises when no adapters are injected.
        """
        if not self.has_lora():
            raise RuntimeError("no LoRA adapters injected; call add_lora() first")
        return lora_state_dict(self.model)

    def load_adapter_state(self, state: Dict[str, np.ndarray]) -> None:
        """Hot-swap the attached LoRA weights without touching the base model.

        The counterpart of :meth:`export_adapter_state`: loads an adapter-only
        state dict into the already-injected LoRA layers.  The transformer, its
        tokenizer and the generation RNG are untouched, so swapping the active
        user is O(adapter) rather than O(model).
        """
        if not self.has_lora():
            raise RuntimeError("no LoRA adapters injected; call add_lora() first")
        load_lora_state_dict(self.model, state)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _dropout_modules(self) -> List[Dropout]:
        """Every dropout module, in deterministic depth-first order."""
        return [module for module in self.model.module_list() if isinstance(module, Dropout)]

    def export_runtime_state(self) -> dict:
        """Full mid-run snapshot: weights, LoRA config, mode and RNG streams.

        Unlike :meth:`save` (which persists a finished model to disk), this
        captures everything needed to continue *running* the model bit-for-bit
        identically — including the generation RNG and the per-dropout-layer
        RNGs that advance during training.  The returned dict is picklable.
        """
        return {
            "state_dict": self.model.state_dict(),
            "lora_config": self._lora_config,
            "training": self.model.training,
            "generation_rng": get_generator_state(self._generation_rng),
            "dropout_rngs": [
                get_generator_state(module._rng) for module in self._dropout_modules()
            ],
        }

    def reseed_dropout(self, seed: int) -> None:
        """Reset every dropout stream to a state derived from ``seed``.

        Multi-tenant serving calls this before each fine-tune round with a
        per-``(user, round)`` seed: dropout draws then depend only on whose
        round it is, not on how many other users' rounds happened to run
        first on the shared model.  That order-independence is what lets a
        crash-recovered scheduler — whose round ordering may legitimately
        differ from the uninterrupted run's — reproduce bit-identical
        fine-tune results (see ``docs/robustness.md``).
        """
        for index, module in enumerate(self._dropout_modules()):
            module._rng = as_generator((seed + 7919 * index) % (2**31 - 1))

    def export_rng_streams(self) -> dict:
        """Snapshot only the generation + dropout RNG streams (no weights).

        These streams are *shared* across every user a serving deployment
        multiplexes over this model, so crash recovery treats them as a
        global resource: restoring one user's full runtime snapshot must not
        rewind streams that later work already advanced (see
        :mod:`repro.serve.session` and :mod:`repro.serve.runner`).
        """
        return {
            "generation_rng": get_generator_state(self._generation_rng),
            "dropout_rngs": [
                get_generator_state(module._rng) for module in self._dropout_modules()
            ],
        }

    def load_rng_streams(self, payload: dict) -> None:
        """Restore streams captured by :meth:`export_rng_streams`.

        Also accepts a full :meth:`export_runtime_state` payload (both carry
        the ``generation_rng`` / ``dropout_rngs`` keys).
        """
        set_generator_state(self._generation_rng, payload["generation_rng"])
        dropouts = self._dropout_modules()
        states = payload.get("dropout_rngs", [])
        if len(states) != len(dropouts):
            raise ValueError(
                f"snapshot has {len(states)} dropout RNG states but the model "
                f"has {len(dropouts)} dropout modules"
            )
        for module, state in zip(dropouts, states):
            set_generator_state(module._rng, state)

    def load_runtime_state(self, payload: dict) -> None:
        """Restore a snapshot produced by :meth:`export_runtime_state`.

        The model must have the same architecture as the one snapshotted;
        LoRA adapters are injected first when the snapshot carries them.
        """
        lora_config = payload.get("lora_config")
        if lora_config is not None and not self.has_lora():
            self.add_lora(lora_config)
        self.model.load_state_dict(payload["state_dict"])
        if payload.get("training", False):
            self.model.train()
        else:
            self.model.eval()
        self.load_rng_streams(payload)

    def clone(self) -> "OnDeviceLLM":
        """A deep copy with identical weights (used to compare selectors fairly).

        If LoRA adapters are injected, the clone receives adapters with the
        same configuration before the weights are copied so the state dicts
        line up exactly.
        """
        clone = OnDeviceLLM(self.tokenizer, config=self.config)
        if self.has_lora():
            clone.add_lora(self._lora_config)
        clone.model.load_state_dict(self.model.state_dict())
        return clone
