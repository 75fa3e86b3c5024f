"""The content-addressed base-model cache behind ``build_pretrained_llm``.

* **Bit-identity** — a warm load leaves the model exactly as pretraining
  does: equal weights (writable), eval mode and equal RNG streams (the
  generation stream only: the base model has no dropout); a second cold
  build writes a byte-identical record.
* **Robustness** — a record with any byte changed, cut short, extended or
  belonging to another key is never loaded: the boot pretrains again and
  ends with the reference weights.  An unwritable cache directory boots.
* **Keying** — every key input (source bytes, configs, vocabulary, pairs)
  changes the key; the BLAS thread count, which the key leaves out, does
  not change a serve digest.
* **Observability** — serve runs report the cache result and boot time
  under the same metric keys cold and warm.
"""

import logging
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.data.synthetic import make_corpus
from repro.llm.base_cache import (
    CACHE_DIR_ENV,
    base_model_key,
    cache_dir,
    record_path,
    source_digest,
)
from repro.llm.model import OnDeviceLLM, OnDeviceLLMConfig
from repro.llm.pretrain import PretrainConfig, build_pretrained_llm, pretraining_pairs
from repro.obs import snapshot_key_set
from repro.serve import LoadConfig, ServeConfig, run_serve
from repro.utils.a1 import pack_adapter_record, unpack_adapter_record

SRC_ROOT = Path(repro.__file__).resolve().parents[1]
MICRO = OnDeviceLLMConfig(
    dim=16, num_layers=1, num_heads=2, max_seq_len=32, max_vocab_size=512, seed=0
)
PRETRAIN = PretrainConfig(epochs=1, batch_size=16, seed=0)


@pytest.fixture(scope="module")
def corpus(lexicons):
    return make_corpus("meddialog", size=12, seed=0, lexicons=lexicons)


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(directory))
    return directory


def build(corpus, llm_config=MICRO, pretrain_config=PRETRAIN):
    return build_pretrained_llm(corpus, llm_config=llm_config, pretrain_config=pretrain_config)


def assert_same_model(left, right):
    left_state, right_state = left.model.state_dict(), right.model.state_dict()
    assert list(left_state) == list(right_state)
    for name in left_state:
        assert left_state[name].dtype == right_state[name].dtype
        assert np.array_equal(left_state[name], right_state[name]), name
    assert left.export_rng_streams() == right.export_rng_streams()
    assert left.model.training is False and right.model.training is False


def only_record(directory: Path) -> Path:
    (path,) = directory.iterdir()
    return path


class TestColdWarm:
    def test_warm_load_is_bit_identical(self, corpus, cache):
        cold = build(corpus)
        warm = build(corpus)
        assert (cold.boot.result, cold.boot.phase) == ("miss", "pretrain")
        assert (warm.boot.result, warm.boot.phase) == ("hit", "load")
        assert_same_model(cold, warm)
        assert all(tensor.data.flags.writeable for tensor in warm.model.parameters())
        assert warm.export_rng_streams()["dropout_rngs"] == []
        assert only_record(cache).name == record_path(warm_key(corpus)).name

    def test_cold_rebuild_writes_identical_bytes(self, corpus, tmp_path, monkeypatch):
        records = []
        for name in ("first", "second"):
            monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / name))
            assert build(corpus).boot.result == "miss"
            records.append(only_record(tmp_path / name).read_bytes())
        assert records[0] == records[1]


def warm_key(corpus, llm_config=MICRO, pretrain_config=PRETRAIN, pairs=None, source=None):
    llm = OnDeviceLLM.from_texts(corpus.all_text(), config=llm_config)
    if pairs is None:
        pairs = pretraining_pairs(corpus, rng=pretrain_config.seed)
    return base_model_key(llm, pretrain_config, pairs, source=source)


@pytest.fixture(scope="module")
def pristine(corpus, tmp_path_factory):
    """A cache holding the reference record, the reference model, and a
    record of another key with the same parameter shapes."""
    directory = tmp_path_factory.mktemp("pristine")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(directory / "other"))
        other = build(corpus, pretrain_config=replace(PRETRAIN, epochs=2))
        assert other.boot.result == "miss"
        other_record = only_record(directory / "other").read_bytes()
        patch.setenv(CACHE_DIR_ENV, str(directory / "cache"))
        reference = build(corpus)
    path = only_record(directory / "cache")
    return {"reference": reference, "path": path, "data": path.read_bytes(), "other": other_record}


class TestDamagedRecords:
    def rebuilds(self, pristine, corpus, damaged: bytes):
        pristine["path"].write_bytes(damaged)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(CACHE_DIR_ENV, str(pristine["path"].parent))
            llm = build(corpus)
        assert llm.boot.result == "rebuilt"
        assert_same_model(llm, pristine["reference"])
        assert pristine["path"].read_bytes() == pristine["data"]

    def test_pristine_record_hits(self, pristine, corpus):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(CACHE_DIR_ENV, str(pristine["path"].parent))
            llm = build(corpus)
        assert llm.boot.result == "hit"
        assert_same_model(llm, pristine["reference"])

    @settings(max_examples=40, deadline=None)
    @given(position=st.integers(min_value=0), change=st.integers(min_value=1, max_value=255))
    def test_any_changed_byte_rebuilds(self, pristine, corpus, position, change):
        damaged = bytearray(pristine["data"])
        damaged[position % len(damaged)] ^= change
        self.rebuilds(pristine, corpus, bytes(damaged))

    @settings(max_examples=20, deadline=None)
    @given(length=st.integers(min_value=0))
    def test_truncated_record_rebuilds(self, pristine, corpus, length):
        self.rebuilds(pristine, corpus, pristine["data"][: length % len(pristine["data"])])

    @settings(max_examples=5, deadline=None)
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_extended_record_rebuilds(self, pristine, corpus, tail):
        self.rebuilds(pristine, corpus, pristine["data"] + tail)

    def test_another_keys_record_rebuilds(self, pristine, corpus):
        # Same names and shapes, different weights: only the key stops it.
        self.rebuilds(pristine, corpus, pristine["other"])

    def test_nonzero_round_fence_rebuilds(self, pristine, corpus):
        # Bytes 8-11 (the adapter round fence) are outside both CRCs; a base
        # record is only ever written with round 0.
        record = unpack_adapter_record(pristine["data"])
        key = pristine["path"].name[len("base-") : -len(".bin")]
        self.rebuilds(pristine, corpus, pack_adapter_record(key, record.state, round=1))


class TestKey:
    def test_every_input_changes_the_key(self, corpus, lexicons):
        base = warm_key(corpus)
        pairs = pretraining_pairs(corpus, rng=PRETRAIN.seed)
        edited = [(pairs[0][0], pairs[0][1] + " indeed"), *pairs[1:]]
        other_corpus = make_corpus("meddialog", size=12, seed=5, lexicons=lexicons)
        variants = {
            "source": warm_key(corpus, source="0" * 64),
            "epochs": warm_key(corpus, pretrain_config=replace(PRETRAIN, epochs=2)),
            "pretrain seed": warm_key(corpus, pretrain_config=replace(PRETRAIN, seed=1)),
            "model seed": warm_key(corpus, llm_config=replace(MICRO, seed=1)),
            "ffn width": warm_key(corpus, llm_config=replace(MICRO, ffn_multiplier=2)),
            "pair": warm_key(corpus, pairs=edited),
            "vocabulary": warm_key(other_corpus, pairs=pairs),
        }
        assert base == warm_key(corpus)
        assert len({base, *variants.values()}) == len(variants) + 1

    def test_source_digest_sees_one_byte(self, tmp_path):
        package = Path(repro.__file__).resolve().parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        assert source_digest(copy) == source_digest(package)
        target = copy / "llm" / "pretrain.py"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        assert source_digest.__wrapped__(copy) != source_digest(package)

    def test_changed_input_is_a_miss(self, corpus, cache):
        assert build(corpus).boot.result == "miss"
        assert build(corpus).boot.result == "hit"
        assert build(corpus, pretrain_config=replace(PRETRAIN, epochs=2)).boot.result == "miss"
        assert len(list(cache.iterdir())) == 2


class TestLocation:
    def test_override_then_xdg_then_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert cache_dir() == tmp_path / "override"
        monkeypatch.delenv(CACHE_DIR_ENV)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cache_dir() == tmp_path / "xdg" / "repro"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert cache_dir() == tmp_path / "home" / ".cache" / "repro"

    def test_unwritable_cache_still_boots(self, corpus, tmp_path, monkeypatch, caplog):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv(CACHE_DIR_ENV, str(blocker / "cache"))
        reference = build(corpus)
        with caplog.at_level(logging.WARNING, logger="repro.llm.base_cache"):
            llm = build(corpus)
        assert llm.boot.result == "miss"
        assert "not writable" in caplog.text
        assert_same_model(llm, reference)


class TestServe:
    LOAD = LoadConfig(num_users=2, num_requests=6, personalize_every=3, corpus_size_per_user=8)

    def test_boot_metrics_cold_and_warm(self, cache):
        config = ServeConfig(load=self.LOAD, pretrain_epochs=1)
        cold = run_serve(config).metrics
        warm = run_serve(config).metrics
        sharded = run_serve(config.with_(workers=2), mode="thread").metrics
        assert snapshot_key_set(cold) == snapshot_key_set(warm) == snapshot_key_set(sharded)
        assert cold["counters"]["base_model_cache_total{result=miss}"] == 1
        assert warm["counters"]["base_model_cache_total{result=hit}"] == 1
        assert sharded["counters"]["base_model_cache_total{result=hit}"] == 1
        assert warm["counters"]["base_model_cache_total{result=miss}"] == 0
        assert cold["gauges"]["boot_seconds{phase=pretrain}"]["value"] > 0
        assert warm["gauges"]["boot_seconds{phase=load}"]["value"] > 0
        assert warm["gauges"]["boot_seconds{phase=pretrain}"]["value"] == 0

    def test_blas_thread_count_keeps_the_digest(self, tmp_path):
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
            env["OPENBLAS_NUM_THREADS"] = threads
            # A cache per run: both runs pretrain cold, under their own threads.
            env[CACHE_DIR_ENV] = str(tmp_path / f"threads-{threads}")
            result = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--users", "8", "--requests", "64",
                 "--scale", "smoke", "--no-artifacts", "--quiet"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            digests.append(re.search(r"transcript digest: (\w+)", result.stdout).group(1))
        assert digests[0] == digests[1]
