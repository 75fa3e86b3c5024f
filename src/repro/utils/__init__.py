"""Shared utilities: seeded RNG, config (de)serialization, logging.

Timing lives in :mod:`repro.obs` (``MetricsRegistry.timer``); the pipeline
engine keeps its own per-stage totals (``PipelineEngine.stage_seconds``).
"""

from repro.utils.config import (
    config_from_dict,
    config_to_dict,
    load_config,
    require_choice,
    require_in_unit_interval,
    require_non_negative,
    require_positive,
    save_config,
)
from repro.utils.logging import enable_console_logging, get_logger
from repro.utils.rng import (
    ReseedableRNG,
    as_generator,
    choice_without_replacement,
    derive_seed,
    shuffled,
    spawn,
    stream_of_seeds,
)

__all__ = [
    "ReseedableRNG",
    "as_generator",
    "choice_without_replacement",
    "config_from_dict",
    "config_to_dict",
    "derive_seed",
    "enable_console_logging",
    "get_logger",
    "load_config",
    "require_choice",
    "require_in_unit_interval",
    "require_non_negative",
    "require_positive",
    "save_config",
    "shuffled",
    "spawn",
    "stream_of_seeds",
]
