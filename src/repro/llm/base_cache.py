"""Content-addressed cache of pretrained base-model weights.

The paper's device receives an LLM that is already pre-trained and only
trains LoRA factors on it.  Our base model is pretrained by
:func:`~repro.llm.pretrain.pretrain`, which is deterministic in its inputs,
so :func:`~repro.llm.pretrain.build_pretrained_llm` pretrains a given model
once per host and loads it on every later boot.

The cache key is a SHA-256 over everything that decides the trained bits:

* the bytes of the ``repro`` package source;
* the numpy version and its build info (BLAS/LAPACK build, detected SIMD
  extensions);
* ``OnDeviceLLMConfig`` and ``PretrainConfig`` as sorted-key JSON;
* the vocabulary tokens and the pretraining ``(question, response)`` pairs.

The BLAS thread count is not part of the key.  The training step's loss
and gradients have the same bits at 1 and 2 OpenBLAS threads for every
batch shape, because it rounds each row reduction up to a multiple of 32
rows (``tests/test_train_step.py::TestBlasThreadCount``), so the smoke
serve's transcript digest is the same at both too
(``tests/test_base_cache.py``).

A model is stored as one ``A1`` record (:mod:`repro.utils.a1`) named by its
key: every parameter as float32, plus the generation RNG stream as JSON bytes
(the base model has no dropout streams: only LoRA adapters drop out).  A
record is used only if the file is exactly the canonical encoding of a
record with the expected key and the model's parameter names and shapes;
anything else (missing, truncated, a failed CRC, another key, other shapes,
one changed byte anywhere) pretrains cold and rewrites the file.  Writes go
to a temporary file and ``os.replace``, so concurrent boots are safe; an
unwritable cache directory logs a warning and never fails the boot.

The directory is ``$REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro``,
else ``~/.cache/repro``.  It is deliberately not a run's ``--state-dir``: a
device that reboots keeps its model but may start with a new state dir.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from repro.utils.a1 import AdapterFormatError, pack_adapter_record, unpack_adapter_record
from repro.utils.logging import get_logger

#: The one override of the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: What :attr:`BaseModelBoot.result` can be, and the boot phases timed.
CACHE_RESULTS = ("hit", "miss", "rebuilt")
BOOT_PHASES = ("pretrain", "load")

#: Record entry holding the JSON of ``OnDeviceLLM.export_rng_streams()``.
RNG_STREAMS_ENTRY = "rng_streams"

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent
_LOGGER = get_logger("llm.base_cache")


@dataclass(frozen=True)
class BaseModelBoot:
    """How a base model was produced: ``hit`` (loaded from the cache),
    ``miss`` (no record) or ``rebuilt`` (an unusable record), and the
    seconds the load, or the pretraining, took."""

    result: str
    seconds: float

    @property
    def phase(self) -> str:
        return "load" if self.result == "hit" else "pretrain"


def cache_dir() -> Path:
    """Where base-model records live (see the module docstring)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"


def record_path(key: str) -> Path:
    """The cache file of the model with ``key``."""
    return cache_dir() / f"base-{key}.bin"


@functools.lru_cache(maxsize=None)
def source_digest(root: Path = _PACKAGE_ROOT) -> str:
    """SHA-256 over every ``.py`` file under ``root`` (relative path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _numpy_build() -> str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 can only print its config
        config = {}
    return json.dumps({"version": np.__version__, "config": config}, sort_keys=True, default=str)


def base_model_key(llm, pretrain_config, pairs: Sequence[Tuple[str, str]], source=None) -> str:
    """The cache key of pretraining ``llm`` (freshly initialized) on ``pairs``.

    ``source`` replaces the package source digest (tests use it to model an
    edited source tree).
    """
    digest = hashlib.sha256()
    for part in (
        source or source_digest(),
        _numpy_build(),
        json.dumps(asdict(llm.config), sort_keys=True),
        json.dumps(asdict(pretrain_config), sort_keys=True),
        json.dumps(llm.tokenizer.vocabulary.tokens()),
        json.dumps([list(pair) for pair in pairs]),
    ):
        data = part.encode("utf-8")
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def _decode(llm, key: str, data: bytes):
    """``(weights, rng_streams)`` from a record's bytes; ``ValueError`` names
    the first reason the record is not this model's."""
    record = unpack_adapter_record(data)
    if record.user_id != key:
        raise ValueError("record holds another key")
    if pack_adapter_record(key, record.state) != data:
        raise ValueError("record is not in canonical form")
    expected = {name: tensor.data.shape for name, tensor in llm.model.named_parameters()}
    found = {name: array.shape for name, array in record.state.items() if name != RNG_STREAMS_ENTRY}
    if found != expected or RNG_STREAMS_ENTRY not in record.state:
        raise ValueError("parameter names or shapes differ")
    streams = json.loads(record.state[RNG_STREAMS_ENTRY].tobytes())
    if streams["dropout_rngs"]:
        raise ValueError("record carries dropout streams")
    np.random.default_rng().bit_generator.state = streams["generation_rng"]
    return {name: record.state[name] for name in expected}, streams


def load_base_model(llm, key: str, path: Path) -> str:
    """Load the record at ``path`` into ``llm``: ``hit``, ``miss`` or ``rebuilt``.

    ``llm`` changes only on a hit, and then ends in the state pretraining
    leaves: writable weights, eval mode, the stored RNG streams.
    """
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        return "miss"
    except OSError as error:
        _LOGGER.warning("base-model cache %s is unreadable (%s); pretraining", path, error)
        return "rebuilt"
    try:
        weights, streams = _decode(llm, key, data)
    except (AdapterFormatError, ValueError, TypeError, KeyError) as error:
        _LOGGER.info("base-model cache %s is unusable (%s); pretraining", path, error)
        return "rebuilt"
    llm.model.load_state_dict(weights)
    llm.model.eval()
    llm.load_rng_streams(streams)
    return "hit"


def store_base_model(llm, key: str, path: Path) -> None:
    """Write ``llm``'s weights and RNG streams to ``path`` atomically."""
    state = llm.model.state_dict()
    streams = json.dumps(llm.export_rng_streams(), sort_keys=True).encode("utf-8")
    state[RNG_STREAMS_ENTRY] = np.frombuffer(streams, dtype=np.uint8)
    data = pack_adapter_record(key, state)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temporary = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(data)
            os.replace(temporary, path)
        except BaseException:
            Path(temporary).unlink(missing_ok=True)
            raise
    except OSError as error:
        _LOGGER.warning(
            "base-model cache %s is not writable (%s); this boot pretrained cold",
            path.parent,
            error,
        )
