"""Tests for the utils package (rng, config validation, logging)."""

import logging

import numpy as np
import pytest

from repro.utils import (
    as_generator,
    get_logger,
    require_choice,
    require_in_unit_interval,
    require_non_negative,
    require_positive,
)


class TestRNG:
    def test_as_generator_from_int_deterministic(self):
        assert as_generator(7).integers(1000) == as_generator(7).integers(1000)

    def test_as_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_as_generator_invalid_type(self):
        with pytest.raises(TypeError):
            as_generator("seed")


class TestConfig:
    def test_validators(self):
        require_positive("x", 1)
        require_non_negative("x", 0)
        require_in_unit_interval("x", 0.5)
        require_choice("x", "a", ("a", "b"))
        with pytest.raises(ValueError):
            require_positive("x", 0)
        with pytest.raises(ValueError):
            require_non_negative("x", -1)
        with pytest.raises(ValueError):
            require_in_unit_interval("x", 2.0)
        with pytest.raises(ValueError):
            require_choice("x", "c", ("a", "b"))


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("sub").name == "repro.sub"
        assert isinstance(get_logger(), logging.Logger)
