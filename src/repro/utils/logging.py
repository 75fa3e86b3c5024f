"""Minimal logging used by experiment runners and the framework.

The library deliberately avoids configuring the root logger; it exposes a
namespaced logger factory and an opt-in console handler.  Pipeline progress
is observed through :class:`repro.core.engine.PipelineObserver`, not logged.
"""

from __future__ import annotations

import logging
from typing import Optional

_LIBRARY_LOGGER_NAME = "repro"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a library-namespaced logger (``repro`` or ``repro.<name>``)."""
    if name:
        return logging.getLogger(f"{_LIBRARY_LOGGER_NAME}.{name}")
    return logging.getLogger(_LIBRARY_LOGGER_NAME)


def enable_console_logging(level: int = logging.INFO) -> None:
    """Attach a simple console handler to the library logger (idempotent)."""
    logger = get_logger()
    logger.setLevel(level)
    has_console = any(
        isinstance(handler, logging.StreamHandler) for handler in logger.handlers
    )
    if not has_console:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        logger.addHandler(handler)
