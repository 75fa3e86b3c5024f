"""Tests for the utils package (rng, config, logging)."""

import dataclasses
import logging

import numpy as np
import pytest

from repro.utils import (
    ReseedableRNG,
    as_generator,
    choice_without_replacement,
    config_from_dict,
    config_to_dict,
    derive_seed,
    get_logger,
    load_config,
    require_choice,
    require_in_unit_interval,
    require_non_negative,
    require_positive,
    save_config,
    shuffled,
    spawn,
    stream_of_seeds,
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

    def test_spawn_count_and_independence(self):
        children = spawn(0, 3)
        assert len(children) == 3
        values = [child.integers(10**6) for child in children]
        assert len(set(values)) > 1

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(0, -1)

    def test_derive_seed_salted(self):
        assert derive_seed(0, salt=1) != derive_seed(0, salt=2)

    def test_choice_without_replacement(self):
        picked = choice_without_replacement(0, list(range(10)), 4)
        assert len(set(picked)) == 4
        with pytest.raises(ValueError):
            choice_without_replacement(0, [1, 2], 5)

    def test_shuffled_preserves_multiset(self):
        items = list(range(20))
        result = shuffled(3, items)
        assert sorted(result) == items and items == list(range(20))

    def test_stream_of_seeds(self):
        stream = stream_of_seeds(5)
        assert next(stream) != next(stream)

    def test_reseedable_rng_reset(self):
        rng = ReseedableRNG(11)
        first = rng.generator.integers(10**6)
        rng.reset()
        assert rng.generator.integers(10**6) == first
        rng.reset(seed=12)
        assert rng.seed == 12
        assert len(rng.spawn(2)) == 2


@dataclasses.dataclass
class _Inner:
    value: int = 1


@dataclasses.dataclass
class _Outer:
    name: str = "x"
    inner: _Inner = dataclasses.field(default_factory=_Inner)
    items: list = dataclasses.field(default_factory=list)


class TestConfig:
    def test_roundtrip_nested_dataclass(self):
        outer = _Outer(name="demo", inner=_Inner(value=5), items=[1, 2])
        data = config_to_dict(outer)
        assert data == {"name": "demo", "inner": {"value": 5}, "items": [1, 2]}
        restored = config_from_dict(_Outer, data)
        assert restored == outer

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError):
            config_from_dict(_Inner, {"bogus": 1})

    def test_non_dataclass_raises(self):
        with pytest.raises(TypeError):
            config_from_dict(dict, {})

    def test_save_load_file(self, tmp_path):
        outer = _Outer(name="saved")
        path = save_config(outer, tmp_path / "config.json")
        assert load_config(_Outer, path) == outer

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
