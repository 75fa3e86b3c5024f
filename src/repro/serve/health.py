"""Structured component health for the serving layer.

Every long-lived serving component (adapter store, session manager, request
scheduler) carries a :class:`ComponentHealth` that moves through three
states, worst-first::

    OK ──▶ DEGRADED ──▶ FAILED

* ``OK`` — serving normally;
* ``DEGRADED`` — still serving, but with reduced guarantees (a quarantined
  adapter file, blank-adapter read-only fallback, requests dead-lettered);
* ``FAILED`` — the component cannot serve (every request dead-lettered,
  store directory gone).

Health never silently improves: :meth:`ComponentHealth.degrade` and
:meth:`ComponentHealth.fail` only move the state towards worse, so a
component that limped through an incident still reports it at the end of
the run.  :class:`HealthRegistry` aggregates components into one overall
state (the worst of its members), the shape the ``repro serve`` report and
the CLI surface.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional


class HealthState(enum.Enum):
    """Component health, ordered from healthy to dead."""

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"

    @property
    def severity(self) -> int:
        """Numeric badness (higher is worse), used to aggregate components."""
        return _SEVERITY[self]

    def worst(self, other: "HealthState") -> "HealthState":
        """The worse of two states."""
        return self if self.severity >= other.severity else other


_SEVERITY = {HealthState.OK: 0, HealthState.DEGRADED: 1, HealthState.FAILED: 2}


class ComponentHealth:
    """One component's health state plus the reasons it got there."""

    def __init__(self, component: str) -> None:
        self.component = component
        self.state = HealthState.OK
        self.reasons: List[str] = []

    @property
    def ok(self) -> bool:
        return self.state is HealthState.OK

    def degrade(self, reason: str) -> None:
        """Move to DEGRADED (never back towards OK) and record why."""
        self.state = self.state.worst(HealthState.DEGRADED)
        self._record(reason)

    def fail(self, reason: str) -> None:
        """Move to FAILED and record why."""
        self.state = self.state.worst(HealthState.FAILED)
        self._record(reason)

    def merge(self, view: Dict[str, object]) -> None:
        """Fold in another copy's :meth:`to_dict` view (the worse state, its reasons)."""
        self.state = self.state.worst(HealthState(view["state"]))
        for reason in view["reasons"]:
            self._record(reason)

    def _record(self, reason: str) -> None:
        # Keep reasons unique and bounded; health is a summary, not a log.
        if reason not in self.reasons:
            self.reasons.append(reason)
            del self.reasons[:-8]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (embedded in the serving report)."""
        return {
            "component": self.component,
            "state": self.state.value,
            "reasons": list(self.reasons),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentHealth({self.component}={self.state.value})"


class HealthRegistry:
    """Aggregates the health of several components into one overall state."""

    def __init__(self) -> None:
        self._components: Dict[str, ComponentHealth] = {}

    @classmethod
    def from_components(cls, components: Iterable[ComponentHealth]) -> "HealthRegistry":
        """A registry over an existing set of components (live references).

        The network front-end uses this for its ``metrics`` frame: one
        registry aggregates the scheduler/session/store/journal/frontend
        components into the overall state a load balancer would probe.
        """
        registry = cls()
        for health in components:
            registry.register(health)
        return registry

    def register(self, health: ComponentHealth) -> ComponentHealth:
        self._components[health.component] = health
        return health

    def get(self, component: str) -> Optional[ComponentHealth]:
        return self._components.get(component)

    def overall(self) -> HealthState:
        """The worst state across every registered component."""
        state = HealthState.OK
        for health in self._components.values():
            state = state.worst(health.state)
        return state

    def to_dict(self) -> Dict[str, object]:
        return {
            "overall": self.overall().value,
            "components": {
                name: health.to_dict() for name, health in sorted(self._components.items())
            },
        }

    def observe(self, metrics) -> None:
        """Export every component's state as a ``health_state`` gauge.

        ``metrics`` is a :class:`repro.obs.MetricsRegistry`; the gauge value
        is the state's severity (0 ok / 1 degraded / 2 failed), merged with
        ``max`` across shards so a degraded worker shows through the pool.
        """
        from repro.obs import observe_health

        observe_health(
            metrics, {name: health.to_dict() for name, health in self._components.items()}
        )
