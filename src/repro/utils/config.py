"""Validation helpers shared by every config dataclass.

Each helper raises ``ValueError`` naming the field when a value is out of
range, so a bad config fails at construction time.
"""

from __future__ import annotations

from typing import Any


def require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def require_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def require_in_unit_interval(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def require_choice(name: str, value: Any, choices: tuple) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
