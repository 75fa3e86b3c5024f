"""Tests for the robustness primitives: errors, retry policy, fault
injection, and component health."""

import numpy as np
import pytest

from repro.serve.errors import (
    DeadlineExceededError,
    InjectedFaultError,
    PermanentServingError,
    PoisonRequestError,
    RetryPolicy,
    ServingError,
    StoreIOError,
    TransientServingError,
)
from repro.serve.faults import (
    CRASH_POINTS,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    chaos_plan,
)
from repro.serve.health import ComponentHealth, HealthRegistry, HealthState


class TestErrorTaxonomy:
    def test_transient_family(self):
        for error_type in (TransientServingError, StoreIOError, InjectedFaultError):
            assert issubclass(error_type, TransientServingError)
            assert issubclass(error_type, ServingError)

    def test_permanent_family(self):
        for error_type in (PermanentServingError, DeadlineExceededError, PoisonRequestError):
            assert issubclass(error_type, PermanentServingError)
            assert issubclass(error_type, ServingError)

    def test_transient_and_permanent_are_disjoint(self):
        assert not issubclass(TransientServingError, PermanentServingError)
        assert not issubclass(PermanentServingError, TransientServingError)

    def test_injected_crash_is_not_an_exception(self):
        """Ordinary `except Exception` must not swallow a simulated crash."""
        assert issubclass(InjectedCrash, BaseException)
        assert not issubclass(InjectedCrash, Exception)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_exponential_schedule_without_jitter(self):
        # 5 ms doubling per retry, capped at 100 ms from the sixth retry on.
        delays = [RetryPolicy().delay(attempt) for attempt in range(1, 8)]
        assert delays == [0.005, 0.01, 0.02, 0.04, 0.08, 0.1, 0.1]

    def test_jitter_only_shrinks_and_is_deterministic(self):
        policy = RetryPolicy()

        def schedule(seed):
            rng = np.random.default_rng(seed)
            return [policy.delay(attempt, rng) for attempt in range(1, 8)]

        first = schedule(7)
        assert first == schedule(7)
        assert first != schedule(8)
        for attempt, jittered in enumerate(first, start=1):
            raw = policy.delay(attempt)
            assert 0.5 * raw <= jittered <= raw

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(store_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_point="not.a.point")
        with pytest.raises(ValueError):
            FaultPlan(crash_at_hit=0)

    def test_from_env_unset(self):
        assert FaultPlan.from_env({}) is None

    def test_from_env_parses_crash_plan(self):
        plan = FaultPlan.from_env(
            {
                "REPRO_CRASH_POINT": "personalize.after_apply",
                "REPRO_CRASH_HIT": "2",
                "REPRO_CRASH_HARD": "0",
            }
        )
        assert plan is not None
        assert plan.crash_point == "personalize.after_apply"
        assert plan.crash_at_hit == 2
        assert plan.crash_hard is False

    def test_from_env_defaults_to_hard_crash(self):
        plan = FaultPlan.from_env({"REPRO_CRASH_POINT": CRASH_POINTS[0]})
        assert plan is not None and plan.crash_hard is True

    def test_chaos_plan_is_deterministic_and_valid(self):
        first = chaos_plan(3, users=4)
        second = chaos_plan(3, users=4)
        assert first == second
        assert first != chaos_plan(4, users=4)
        assert first.crash_point in CRASH_POINTS
        assert 0.0 < first.store_error_rate < 1.0
        assert first.corrupt_user is not None
        assert chaos_plan(3, users=4, crash=False).crash_point is None


class TestFaultInjector:
    def test_disabled_injector_is_a_noop(self, tmp_path):
        injector = FaultInjector(None)
        assert not injector.enabled
        injector.crash_point(CRASH_POINTS[0])
        injector.store_fault("read", "alice")
        assert injector.session_delay() == 0.0
        path = tmp_path / "adapter"
        path.write_bytes(b"payload")
        injector.after_store_write("alice", path)
        assert path.read_bytes() == b"payload"
        assert injector.counters == {}

    def test_soft_crash_fires_at_the_named_hit(self):
        injector = FaultInjector(
            FaultPlan(crash_point="chat.after_serve", crash_at_hit=2)
        )
        injector.crash_point("chat.after_serve")  # hit 1: survives
        injector.crash_point("turn.before_serve")  # different point: survives
        with pytest.raises(InjectedCrash) as excinfo:
            injector.crash_point("chat.after_serve")  # hit 2: dies
        assert excinfo.value.point == "chat.after_serve"
        assert excinfo.value.hit == 2
        assert injector.counters == {"crash:chat.after_serve": 1}
        # The plan fired; later visits to the same point pass through.
        injector.crash_point("chat.after_serve")

    def test_store_faults_follow_the_rate(self):
        injector = FaultInjector(FaultPlan(store_error_rate=1.0))
        with pytest.raises(InjectedFaultError):
            injector.store_fault("read", "alice")
        assert injector.counters == {"store_error:read": 1}
        # Ops outside the plan's scope never fault.
        scoped = FaultInjector(
            FaultPlan(store_error_rate=1.0, store_error_ops=("write",))
        )
        scoped.store_fault("read", "alice")

    def test_corruption_truncates_the_nth_write(self, tmp_path):
        injector = FaultInjector(
            FaultPlan(corrupt_user="alice", corrupt_after_writes=2)
        )
        path = tmp_path / "alice.adapter"
        path.write_bytes(b"0123456789")
        injector.after_store_write("alice", path)  # write 1: untouched
        assert path.read_bytes() == b"0123456789"
        injector.after_store_write("bob", path)  # other user: untouched
        injector.after_store_write("alice", path)  # write 2: truncated
        assert path.read_bytes() == b"01234"
        assert injector.counters == {"corrupt:alice": 1}

    def test_slow_session_charges_once(self):
        injector = FaultInjector(
            FaultPlan(slow_session_at=2, slow_session_seconds=60.0)
        )
        assert injector.session_delay() == 0.0
        assert injector.session_delay() == 60.0
        assert injector.session_delay() == 0.0
        assert injector.counters == {"slow_session": 1}

    def test_report_shape(self):
        injector = FaultInjector(FaultPlan(slow_session_at=1, slow_session_seconds=1.0))
        injector.session_delay()
        report = injector.report()
        assert report["plan"]["slow_session_at"] == 1
        assert report["injected"] == {"slow_session": 1}


class TestComponentHealth:
    def test_states_only_worsen(self):
        health = ComponentHealth("store")
        assert health.ok
        health.degrade("a quarantined file")
        assert health.state is HealthState.DEGRADED
        health.fail("directory gone")
        assert health.state is HealthState.FAILED
        health.degrade("late degradation")  # cannot improve FAILED
        assert health.state is HealthState.FAILED

    def test_reasons_are_unique_and_bounded(self):
        health = ComponentHealth("store")
        for index in range(12):
            health.degrade(f"reason {index}")
            health.degrade(f"reason {index}")  # duplicate ignored
        assert len(health.reasons) == 8
        assert health.reasons[-1] == "reason 11"

    def test_to_dict(self):
        health = ComponentHealth("journal")
        health.degrade("dropped a corrupt record")
        assert health.to_dict() == {
            "component": "journal",
            "state": "degraded",
            "reasons": ["dropped a corrupt record"],
        }

    def test_registry_aggregates_worst(self):
        registry = HealthRegistry()
        store = registry.register(ComponentHealth("store"))
        registry.register(ComponentHealth("scheduler"))
        assert registry.overall() is HealthState.OK
        store.degrade("hiccup")
        assert registry.overall() is HealthState.DEGRADED
        store.fail("gone")
        assert registry.overall() is HealthState.FAILED
        snapshot = registry.to_dict()
        assert snapshot["overall"] == "failed"
        assert set(snapshot["components"]) == {"store", "scheduler"}
        assert registry.get("store") is store
