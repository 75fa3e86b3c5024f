"""Shared fixtures for the test suite.

Expensive objects (a small synthetic corpus, a pre-trained tiny LLM) are
session-scoped so the many tests that need "some model" or "some dialogues"
do not each pay for construction.  Tests that mutate a model always work on a
clone.

The base-model cache points at a temporary directory for the whole session
(CLI subprocesses inherit it): the suite pretrains each model config cold
once and never reads or writes the user's own cache.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.data.lexicons import builtin_lexicons
from repro.data.synthetic import make_corpus, make_generator
from repro.llm.base_cache import CACHE_DIR_ENV
from repro.llm.model import OnDeviceLLM, OnDeviceLLMConfig
from repro.llm.pretrain import PretrainConfig, build_pretrained_llm


_session_cache = None


def pytest_configure(config):
    global _session_cache
    _session_cache = tempfile.TemporaryDirectory(prefix="repro-test-cache-")
    os.environ[CACHE_DIR_ENV] = _session_cache.name


def pytest_unconfigure(config):
    _session_cache.cleanup()


TINY_LLM_CONFIG = OnDeviceLLMConfig(
    dim=32, num_layers=1, num_heads=2, max_seq_len=64, max_vocab_size=2048, seed=0
)


@pytest.fixture(scope="session")
def lexicons():
    """The built-in lexicon collection."""
    return builtin_lexicons()


@pytest.fixture(scope="session")
def med_corpus(lexicons):
    """A small MedDialog-analogue corpus (substantive items only)."""
    return make_corpus("meddialog", size=60, seed=0, lexicons=lexicons)


@pytest.fixture(scope="session")
def alpaca_corpus(lexicons):
    """A small ALPACA-analogue corpus."""
    return make_corpus("alpaca", size=60, seed=1, lexicons=lexicons)


@pytest.fixture(scope="session")
def med_generator(lexicons):
    """The corpus generator for the MedDialog analogue (exposes the persona)."""
    return make_generator("meddialog", size=60, seed=0, lexicons=lexicons)


@pytest.fixture(scope="session")
def pretrained_llm(med_corpus):
    """A tiny pre-trained LLM shared across tests (do not mutate: clone it)."""
    return build_pretrained_llm(
        med_corpus,
        llm_config=TINY_LLM_CONFIG,
        pretrain_config=PretrainConfig(epochs=6, batch_size=16, seed=0),
    )


@pytest.fixture()
def fresh_llm(pretrained_llm):
    """A mutable clone of the shared pre-trained LLM."""
    return pretrained_llm.clone()


@pytest.fixture(scope="session")
def untrained_llm(med_corpus):
    """A tiny *untrained* LLM (for tests that only need shapes/interfaces)."""
    return OnDeviceLLM.from_texts(med_corpus.all_text(), config=TINY_LLM_CONFIG)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
