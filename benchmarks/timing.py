"""The one timing harness of the benchmarks that ``scripts/perf_check.py`` gates.

:func:`interleave` runs named cases in rounds after a warm-up; the case that
goes first rotates from round to round, so transient machine load lands on
every case instead of biasing one.  A case times its work inside ``with
lap:``, keeping set-up and tear-down outside, or stores the figure the
program under test measured itself in ``lap.seconds``.  :func:`spread` gives
the median and quartiles by ``statistics.quantiles(n=4)`` (the rule of
perfbench's ``quartile_spread``; nothing is imported from ``perfbench/``, so
a change there cannot move a gate), and :func:`percentile` is nearest-rank.

Unpinned, OpenBLAS may spread one small GEMM over every core, and a ratio
of two paths then measures how that pool was scheduled: ``perf_check.py``
and ``benchmarks/conftest.py`` default ``OPENBLAS_NUM_THREADS`` to ``1``
before numpy loads, and every ``BENCH_*.json`` records :func:`blas_threads`.

A run's summary goes to :data:`RUNS_DIR` (:func:`write_summary`), which is
gitignored: only ``perf_check.py --update`` rewrites the committed
``benchmarks/BENCH_*.json``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


#: Where a benchmark run writes its summary (``runs/`` is gitignored).
RUNS_DIR = Path(__file__).resolve().parent.parent / "runs" / "perf"


def write_summary(summary: Mapping[str, object], name: str, directory: Path = RUNS_DIR) -> Path:
    """Write ``summary`` as indented JSON to ``directory / name``; returns the path."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(summary, indent=2) + "\n")
    return path


class Lap:
    """The timed part of one call of a case: ``with lap:`` or ``lap.seconds``."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.seconds: Optional[float] = None

    def __enter__(self) -> "Lap":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = self._clock() - self._start


Case = Callable[[Lap], object]


def whole_call(call: Callable[[], object]) -> Case:
    """A case that times all of ``call`` and returns what it returned."""

    def case(lap: Lap) -> object:
        with lap:
            return call()

    return case


def interleave(
    cases: Mapping[str, Case],
    rounds: int,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[Dict[str, List[float]], Dict[str, List[object]]]:
    """Seconds of each timed call per case, and what each timed call returned.

    Each case first runs one untimed warm-up call (page faults, caches, BLAS
    pools), in listed order.  Round ``r`` then starts at the ``r``-th case
    (modulo their number) and runs them all once in listed order from there.
    """
    names = list(cases)
    for name in names:
        cases[name](Lap(clock))
    seconds: Dict[str, List[float]] = {name: [] for name in names}
    values: Dict[str, List[object]] = {name: [] for name in names}
    for index in range(rounds):
        first = index % len(names)
        for name in names[first:] + names[:first]:
            lap = Lap(clock)
            values[name].append(cases[name](lap))
            if lap.seconds is None:
                raise RuntimeError(f"case {name!r} did not time its work")
            seconds[name].append(lap.seconds)
    return seconds, values


def spread(samples: Sequence[float], digits: int = 2) -> Tuple[float, List[float]]:
    """The median and the interquartile range ``[q1, q3]`` of ``samples``."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return round(median, digits), [round(q1, digits), round(q3, digits)]


def summarize(
    named: Mapping[str, Sequence[float]], digits: int = 2
) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """Per name, the median and the interquartile range of its samples."""
    spreads = {name: spread(samples, digits) for name, samples in named.items()}
    return {name: s[0] for name, s in spreads.items()}, {name: s[1] for name, s in spreads.items()}


def per_round(numerators: Sequence[float], denominators: Sequence[float]) -> List[float]:
    """The ratio of two cases' samples round by round.

    Cases timed in one round share that round's machine state, so a slow
    stretch moves both sides of a round's ratio and mostly cancels in it: a
    gated ratio is the median of these, not a ratio of two medians.
    """
    return [a / b for a, b in zip(numerators, denominators)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 1) of ``values``, unsorted."""
    ordered = sorted(values)
    # The epsilon keeps q * n = 99.00000000000001 from rounding a rank up.
    return ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]


def blas_threads() -> str:
    """The OpenBLAS thread setting this process runs with."""
    return os.environ.get("OPENBLAS_NUM_THREADS", "unset")
