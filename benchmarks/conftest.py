"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at a reduced,
CPU-friendly scale.  The scale is controlled by the ``REPRO_SCALE``
environment variable (``smoke`` by default for the benchmark suite so a full
run finishes in minutes; set ``REPRO_SCALE=small`` or ``paper`` for larger
runs).  ``REPRO_BENCH_FULL=1`` switches the dataset sweeps from the
two-dataset default to all six analogues.  The paper benchmarks run when
named (``bench_*.py`` is outside pytest's ``python_files``, so a bare
``pytest benchmarks/`` collects nothing)::

    PYTHONPATH=src python -m pytest benchmarks/bench_table*.py \
        benchmarks/bench_figure*.py benchmarks/bench_ablation_components.py \
        --benchmark-only
"""

from __future__ import annotations

import os
import sys

# One BLAS thread unless the caller chose (see the module docstring of
# ``timing.py``).  It only takes effect before numpy loads; a test session
# that merely passes through this directory has loaded numpy already and
# must not hand the setting to the processes its tests start.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from repro.experiments import get_scale  # noqa: E402
from repro.data.synthetic import DATASET_NAMES  # noqa: E402


def bench_scale():
    """The experiment scale used by the benchmarks (default: smoke)."""
    return get_scale(os.environ.get("REPRO_SCALE", "smoke"))


def bench_datasets():
    """Datasets swept by the per-dataset benchmarks."""
    if os.environ.get("REPRO_BENCH_FULL", "0") == "1":
        return DATASET_NAMES
    return ("meddialog", "alpaca")


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def datasets():
    return bench_datasets()
