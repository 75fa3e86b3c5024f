"""Full-state checkpoint/resume for the pipeline engine.

A checkpoint directory holds one rolling snapshot of a personalization run,
split into one file per state section plus a JSON manifest:

``manifest.json``
    Human-readable metadata: format version, selector name, dialogue-set
    cursor, completed fine-tuning rounds.  Written *last*, so a directory
    with a manifest is a complete checkpoint and a directory without one is
    an aborted write.
``model.pkl``
    Model weights (base + LoRA adapters), LoRA config, train/eval mode, the
    generation RNG and the RNG of every LoRA adapter's dropout.
``finetuner.pkl``
    The fine-tuner's epoch-shuffling RNG.  Each fine-tuning round builds
    and drops its own Adam, so no optimizer state is saved; a section that
    still carries an ``optimizer`` entry restores the same way.
``buffer.pkl``
    The :class:`~repro.core.buffer.DataBuffer` contents — dialogue sets,
    cached embeddings, dominant domains, quality scores — plus insertion /
    replacement counters.
``components.pkl``
    The selector / annotator / synthesizer ``state_dict`` snapshots (RNG
    streams, offer/acceptance counters, annotation and synthesis
    statistics); a custom selector's extended ``state_dict`` rides along.
``progress.pkl``
    Stream cursor, dialogues seen, completed rounds, the learning curve so
    far and the fine-tune reports.

Restoring into a freshly constructed engine with the same configuration
yields a run whose remaining learning-curve points are bit-identical to the
uninterrupted run (wall-clock fields aside) — proven by the round-trip test
in ``tests/test_engine_checkpoint.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import PipelineEngine

#: Format 2: the model section lists one dropout RNG per LoRA adapter (8 on
#: the serving model); format 1 also listed the model's own inert dropouts.
CHECKPOINT_FORMAT_VERSION = 2


def atomic_bytes_dump(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (write temp file, then rename).

    A reader never observes a half-written file: either the old content is
    still there or the new content is complete.
    """
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    with temporary.open("wb") as handle:
        handle.write(data)
    os.replace(temporary, path)
    return path


def sha256_hex(data: bytes) -> str:
    """SHA-256 hex digest of ``data`` (section / journal checksums)."""
    return hashlib.sha256(data).hexdigest()

MANIFEST_FILE = "manifest.json"

_SECTION_FILES = {
    "model": "model.pkl",
    "finetuner": "finetuner.pkl",
    "buffer": "buffer.pkl",
    "components": "components.pkl",
    "progress": "progress.pkl",
}


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, incomplete or incompatible."""


def require_format(manifest: dict, directory: Path) -> None:
    """Raise :class:`CheckpointError` unless ``manifest`` is of this format version."""
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} in {directory} is not supported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )


class CheckpointManager:
    """Saves and restores :class:`PipelineEngine` state in a directory.

    The manager keeps a single rolling snapshot: each :meth:`save` overwrites
    the previous one, so the directory always holds the latest resumable
    state of the run.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_FILE

    def exists(self) -> bool:
        """Whether the directory holds a complete checkpoint."""
        return self.manifest_path.is_file()

    def manifest(self) -> dict:
        """The manifest of the stored checkpoint."""
        if not self.exists():
            raise CheckpointError(f"no checkpoint manifest in {self.directory}")
        try:
            return json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"corrupt checkpoint manifest {self.manifest_path}: {error}"
            ) from error

    # ------------------------------------------------------------------ #
    def save(self, engine: "PipelineEngine", extra: Optional[dict] = None) -> Path:
        """Write the engine's full state; returns the checkpoint directory.

        ``extra`` (JSON-serializable) rides along in the manifest — the
        serving layer stores its exactly-once fencing metadata there
        (request id, round counter, pending transcript entry), making the
        manifest write the atomic commit point of a personalize round.
        """
        state = engine.capture_state()
        self.directory.mkdir(parents=True, exist_ok=True)
        # Invalidate any previous snapshot first: if this write dies halfway,
        # the directory must not pass for a complete (older or mixed) one.
        if self.manifest_path.exists():
            self.manifest_path.unlink()
        checksums = {}
        for section, filename in _SECTION_FILES.items():
            data = pickle.dumps(state[section])
            checksums[section] = sha256_hex(data)
            atomic_bytes_dump(self.directory / filename, data)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "selector": engine.selector.name,
            "seen": engine.seen_count,
            "finetune_rounds": engine.finetune_round_count,
            "learning_curve_points": len(engine.learning_curve),
            "buffer_entries": len(engine.buffer),
            "sections": dict(_SECTION_FILES),
            "checksums": checksums,
        }
        if extra is not None:
            manifest["extra"] = extra
        self.manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return self.directory

    def load_state(self) -> dict:
        """Read the raw state sections from disk (validated, not applied)."""
        manifest = self.manifest()
        require_format(manifest, self.directory)
        checksums = manifest.get("checksums", {})
        state = {}
        for section, filename in _SECTION_FILES.items():
            path = self.directory / filename
            if not path.is_file():
                raise CheckpointError(f"checkpoint section missing: {path}")
            data = path.read_bytes()
            expected = checksums.get(section)
            if expected is not None and sha256_hex(data) != expected:
                raise CheckpointError(
                    f"checkpoint section corrupt: {path} does not match the "
                    "checksum recorded in the manifest"
                )
            state[section] = pickle.loads(data)
        return state

    def restore(self, engine: "PipelineEngine") -> dict:
        """Load the checkpoint into ``engine``; returns the manifest.

        The receiving engine must use the same selection policy the
        checkpoint was taken under — resuming e.g. an ``ours`` run into a
        ``fifo`` framework would silently mix policies.
        """
        manifest = self.manifest()
        saved_selector = manifest.get("selector")
        if saved_selector is not None and saved_selector != engine.selector.name:
            raise CheckpointError(
                f"checkpoint in {self.directory} was taken with selector "
                f"{saved_selector!r} but the engine uses {engine.selector.name!r}"
            )
        engine.restore_state(self.load_state())
        return manifest
