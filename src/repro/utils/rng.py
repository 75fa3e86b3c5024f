"""Seeded random-number management.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator` (or derives one from a parent seed) so that
experiments are reproducible run-to-run.  The helpers here centralise the
common patterns: creating a generator from a seed, and snapshotting and
restoring its state for checkpoints.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0x5EED


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` maps to a fixed library-wide default seed (reproducibility is the
    default, not an opt-in).  An existing generator is passed through
    unchanged so callers can share one stream deliberately.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an int, Generator or None, got {type(seed)!r}")
    return np.random.default_rng(int(seed))


def get_generator_state(rng: np.random.Generator) -> dict:
    """Snapshot of a generator's internal state (a plain, picklable dict).

    The checkpoint system stores these snapshots so a resumed run replays
    exactly the random draws an uninterrupted run would have made.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"expected a numpy Generator, got {type(rng)!r}")
    return rng.bit_generator.state


def set_generator_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a generator to a state captured by :func:`get_generator_state`.

    The generator must use the same bit-generator algorithm the snapshot was
    taken from (numpy validates this and raises otherwise).
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"expected a numpy Generator, got {type(rng)!r}")
    rng.bit_generator.state = state
