"""Deterministic fault injection for the serving layer.

The chaos-hardening counterpart of the serving subsystem: a
:class:`FaultInjector` sits behind every risky boundary (adapter-store disk
I/O, session latency, named scheduler crash points) and — driven by a seeded
:class:`FaultPlan` — injects the failures a production deployment would
eventually meet:

* **transient store I/O errors** (:class:`~repro.serve.errors.InjectedFaultError`,
  a :class:`~repro.serve.errors.TransientServingError`) at a configurable
  rate, exercising the scheduler's retry/backoff path;
* **corrupt adapter files** — a chosen user's adapter file is truncated
  after its n-th disk write, exercising the store's quarantine path;
* **slow sessions** — virtual latency charged against per-request
  deadlines (virtual so that chaos runs stay fast *and* deterministic);
* **crashes at named crash points** — either a *soft* crash
  (:class:`InjectedCrash`, a ``BaseException`` the durable runner catches to
  simulate a process restart) or a *hard* crash (``SIGKILL`` to the own
  process — no cleanup, no ``atexit``, exactly what a power cut looks like).

Everything is derived from the plan seed with per-purpose child generators
(seeded by ``seed ⊕ crc32(purpose)``), so the injection schedule does not
depend on the order in which different purposes draw — two runs from the
same seed inject the same faults at the same operations, which is what makes
the chaos suite's transcript digests comparable across runs.

The injector is also configurable from the environment
(:meth:`FaultPlan.from_env`), which is how the kill/resume chaos test arms a
hard crash inside a ``repro serve`` subprocess it then expects to die.
"""

from __future__ import annotations

import os
import signal
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.serve.errors import InjectedFaultError

#: Every named crash point, in the order a request meets them.  The chaos
#: suite iterates this list; code under test calls
#: ``faults.crash_point(<name>)`` at the matching spot.
CRASH_POINTS: Tuple[str, ...] = (
    "submit.after_journal",
    "turn.before_serve",
    "chat.after_serve",
    "personalize.after_intent",
    "personalize.after_apply",
    "personalize.after_commit",
    "personalize.after_flush",
)

ENV_CRASH_POINT = "REPRO_CRASH_POINT"
ENV_CRASH_HIT = "REPRO_CRASH_HIT"
ENV_CRASH_HARD = "REPRO_CRASH_HARD"


class InjectedCrash(BaseException):
    """A simulated process death at a named crash point.

    Deliberately a ``BaseException``: ordinary ``except Exception`` error
    handling must not swallow a crash, exactly as it could not swallow a
    ``SIGKILL``.  Only the durable serve runner catches it, to simulate a
    restart-from-journal inside one process.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


@dataclass
class FaultPlan:
    """What to inject, all derived deterministically from ``seed``."""

    seed: int = 0
    #: Probability that a guarded store operation raises a transient error.
    store_error_rate: float = 0.0
    #: Which store operations the error rate applies to ("read" / "write").
    store_error_ops: Tuple[str, ...] = ("read", "write")
    #: Corrupt this user's adapter file (truncate it) ...
    corrupt_user: Optional[str] = None
    #: ... right after its n-th disk write (1-based).
    corrupt_after_writes: int = 1
    #: Charge this much virtual latency on the n-th session serve (1-based).
    slow_session_at: Optional[int] = None
    slow_session_seconds: float = 0.0
    #: Crash at this named point on its n-th hit (1-based).
    crash_point: Optional[str] = None
    crash_at_hit: int = 1
    #: Hard crash = SIGKILL the process; soft = raise :class:`InjectedCrash`.
    crash_hard: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.store_error_rate <= 1.0:
            raise ValueError(f"store_error_rate must be in [0, 1], got {self.store_error_rate}")
        if self.crash_point is not None and self.crash_point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.crash_point!r}; known: {', '.join(CRASH_POINTS)}"
            )
        if self.crash_at_hit < 1 or self.corrupt_after_writes < 1:
            raise ValueError("crash_at_hit and corrupt_after_writes are 1-based (>= 1)")

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> Optional["FaultPlan"]:
        """A crash-only plan from ``REPRO_CRASH_*`` variables (None if unset).

        This is the hook the kill/resume chaos test uses to arm a hard crash
        inside a ``repro serve`` subprocess: the parent sets the variables,
        spawns the server, and expects it to die by SIGKILL at the point.
        """
        env = os.environ if env is None else env
        point = env.get(ENV_CRASH_POINT)
        if not point:
            return None
        return cls(
            crash_point=point,
            crash_at_hit=int(env.get(ENV_CRASH_HIT, "1")),
            crash_hard=env.get(ENV_CRASH_HARD, "1") not in ("", "0", "false"),
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "store_error_rate": self.store_error_rate,
            "store_error_ops": list(self.store_error_ops),
            "corrupt_user": self.corrupt_user,
            "corrupt_after_writes": self.corrupt_after_writes,
            "slow_session_at": self.slow_session_at,
            "slow_session_seconds": self.slow_session_seconds,
            "crash_point": self.crash_point,
            "crash_at_hit": self.crash_at_hit,
            "crash_hard": self.crash_hard,
        }


def chaos_plan(seed: int, users: Optional[int] = None, crash: bool = True) -> FaultPlan:
    """The ``repro serve --chaos`` fault plan for one seed.

    Draws a moderate transient-error rate, one corrupt-adapter event, one
    slow session and (with ``crash``) one soft crash at a seed-chosen crash
    point — every failure mode the robustness layer claims to survive, in
    one deterministic run.
    """
    rng = np.random.default_rng(zlib.crc32(b"chaos-plan") ^ (seed & 0x7FFFFFFF))
    corrupt_user = None
    if users is not None and users > 0:
        corrupt_user = f"user-{int(rng.integers(users)):02d}"
    return FaultPlan(
        seed=seed,
        store_error_rate=0.05 + 0.10 * float(rng.random()),
        corrupt_user=corrupt_user,
        corrupt_after_writes=1 + int(rng.integers(2)),
        slow_session_at=2 + int(rng.integers(6)),
        slow_session_seconds=3600.0,
        crash_point=str(rng.choice(CRASH_POINTS)) if crash else None,
        crash_at_hit=1 + int(rng.integers(3)),
        crash_hard=False,
    )


class FaultInjector:
    """Executes a :class:`FaultPlan` against the serving layer's hook points.

    With ``plan=None`` every hook is a cheap no-op — production code calls
    the hooks unconditionally and pays one attribute check when chaos is
    off.  All injections are counted in :attr:`counters` so the CLI can
    print what the run actually survived.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan
        self.counters: Dict[str, int] = {}
        self._point_hits: Dict[str, int] = {}
        self._store_ops = 0
        self._session_serves = 0
        self._writes_per_user: Dict[str, int] = {}
        seed = 0 if plan is None else plan.seed
        self._store_rng = np.random.default_rng(zlib.crc32(b"store-io") ^ (seed & 0x7FFFFFFF))

    @property
    def enabled(self) -> bool:
        return self.plan is not None

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # hook points
    # ------------------------------------------------------------------ #
    def crash_point(self, name: str) -> None:
        """Die here if the plan says so; otherwise just count the visit."""
        if self.plan is None:
            return
        hit = self._point_hits.get(name, 0) + 1
        self._point_hits[name] = hit
        if self.plan.crash_point != name or hit != self.plan.crash_at_hit:
            return
        self._count(f"crash:{name}")
        if self.plan.crash_hard:
            # A power cut, not an exception: no unwinding, no atexit, no
            # buffered writes surviving.  flush stdio first so the parent
            # test can still read what was printed before the kill.
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedCrash(name, hit)

    def store_fault(self, op: str, user_id: Optional[str] = None) -> None:
        """Maybe raise a transient I/O error for one store operation."""
        if self.plan is None or self.plan.store_error_rate <= 0.0:
            return
        if op not in self.plan.store_error_ops:
            return
        self._store_ops += 1
        if float(self._store_rng.random()) < self.plan.store_error_rate:
            self._count(f"store_error:{op}")
            raise InjectedFaultError(
                f"injected store {op} fault (op {self._store_ops}"
                + (f", user {user_id}" if user_id else "")
                + ")"
            )

    def after_store_write(self, user_id: str, path: Path) -> None:
        """Corrupt the just-written adapter file when the plan targets it."""
        if self.plan is None or self.plan.corrupt_user != user_id:
            return
        writes = self._writes_per_user.get(user_id, 0) + 1
        self._writes_per_user[user_id] = writes
        if writes != self.plan.corrupt_after_writes:
            return
        path = Path(path)
        if path.is_file():
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
            self._count(f"corrupt:{user_id}")

    def session_delay(self) -> float:
        """Virtual latency (seconds) to charge against the next serve."""
        if self.plan is None or self.plan.slow_session_at is None:
            return 0.0
        self._session_serves += 1
        if self._session_serves == self.plan.slow_session_at:
            self._count("slow_session")
            return self.plan.slow_session_seconds
        return 0.0

    def report(self) -> dict:
        """What was injected (JSON-ready; embedded in chaos artifacts)."""
        return {
            "plan": None if self.plan is None else self.plan.to_dict(),
            "injected": dict(sorted(self.counters.items())),
        }


#: Shared no-op injector used whenever no faults are configured.
NO_FAULTS = FaultInjector(None)
