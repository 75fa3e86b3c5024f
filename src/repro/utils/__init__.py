"""Shared utilities: seeded RNG, config validation, logging.

Timing lives in :mod:`repro.obs` (``MetricsRegistry.timer``); the pipeline
engine keeps its own per-stage totals (``PipelineEngine.stage_seconds``).
"""

from repro.utils.config import (
    require_choice,
    require_in_unit_interval,
    require_non_negative,
    require_positive,
)
from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import as_generator

__all__ = [
    "as_generator",
    "enable_console_logging",
    "get_logger",
    "require_choice",
    "require_in_unit_interval",
    "require_non_negative",
    "require_positive",
]
