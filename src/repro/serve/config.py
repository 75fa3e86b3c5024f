"""Typed serving configuration: one object instead of ~20 threaded kwargs.

Every serving entry point — :func:`repro.serve.runner.run_serve` and
:class:`repro.serve.frontend.ServeFrontend` — historically grew its own
copy of the same option surface, each change threading one more keyword
from ``cli.py`` down the stack.  :class:`ServeConfig` is now the single
source of truth: the CLI parses argv into it once
(:meth:`ServeConfig.from_args`) and every entry point takes the config
object as its first argument (anything else is a :class:`TypeError`).

``ServeConfig`` is frozen — derived values (resolved output directories,
for example) are filled in with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.experiments.presets import ExperimentScale, get_scale
from repro.serve.errors import RetryPolicy
from repro.serve.faults import FaultPlan, chaos_plan
from repro.serve.loadgen import LoadConfig

#: Written next to ``serve_result.json`` at drain (and by ``--metrics-out``).
METRICS_FILE = "metrics.json"


@dataclass(frozen=True)
class ServeConfig:
    """Everything one ``repro serve`` invocation is configured by.

    Groups, in field order: the workload, the serving environment, the
    durability / robustness knobs, the network front-end, artifact
    output, and observability.  Runtime *objects* that cannot meaningfully
    round-trip through argv (a pre-built ``llm``, custom ``lexicons``)
    stay keyword arguments on the entry points.
    """

    # workload
    load: LoadConfig
    scale: Optional[ExperimentScale] = None

    # serving environment
    adapter_dir: Optional[Path] = None
    cache_capacity: Optional[int] = 4
    max_batch_size: int = 8
    pretrain_epochs: Optional[int] = None
    workers: int = 1

    # durability / robustness
    state_dir: Optional[Path] = None
    resume: bool = False
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    deadline_seconds: Optional[float] = None
    fsync: bool = False
    max_restarts: int = 8
    install_signal_handlers: bool = False

    # network front-end (``--listen``)
    listen: Optional[str] = None
    port_file: Optional[Path] = None
    trace_out: Optional[Path] = None
    max_queue_depth: int = 64
    max_inflight_per_user: int = 4

    # artifacts
    out_dir: Optional[Path] = None
    no_artifacts: bool = False

    # observability (see docs/observability.md)
    metrics_enabled: bool = True
    metrics_out: Optional[Path] = None
    metrics_interval_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError(f"cache_capacity must be >= 1 or None, got {self.cache_capacity}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be > 0, got {self.deadline_seconds}")
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.max_inflight_per_user < 1:
            raise ValueError(
                f"max_inflight_per_user must be >= 1, got {self.max_inflight_per_user}"
            )
        if self.listen is not None:
            parse_listen(self.listen)
        if self.metrics_interval_seconds <= 0:
            raise ValueError(
                f"metrics_interval_seconds must be > 0, got {self.metrics_interval_seconds}"
            )

    # -- derived views ----------------------------------------------------

    @property
    def seed(self) -> int:
        return self.load.seed

    @property
    def dataset(self) -> str:
        return self.load.dataset

    @property
    def durable(self) -> bool:
        """Whether this run needs a journal + checkpoints on disk."""
        return self.state_dir is not None or self.resume or self.fault_plan is not None

    def resolved_scale(self) -> ExperimentScale:
        return self.scale if self.scale is not None else get_scale("smoke", seed=self.seed)

    def with_(self, **changes: object) -> "ServeConfig":
        """A copy with ``changes`` applied (``dataclasses.replace`` sugar)."""
        return replace(self, **changes)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServeConfig":
        """Build the config from the ``repro serve`` argparse namespace.

        This is the *only* place serve argv is interpreted.  Environment-
        armed crash plans (``REPRO_CRASH_POINT`` et al.) take precedence
        over ``--chaos``; the chaos plan is armed only for synthetic-load
        runs (the socket front-end serves live traffic, where an injected
        crash schedule derived from a load size is meaningless).
        """
        scale = get_scale(args.scale, seed=args.seed)
        load = LoadConfig(
            num_users=args.users,
            num_requests=args.requests,
            dataset=args.dataset,
            personalize_every=args.personalize_every,
            seed=args.seed,
        )
        fault_plan = FaultPlan.from_env()
        if fault_plan is None and args.chaos and args.listen is None:
            fault_plan = chaos_plan(args.seed, users=args.users)
        return cls(
            load=load,
            scale=scale,
            cache_capacity=args.cache_capacity,
            max_batch_size=args.max_batch,
            pretrain_epochs=args.pretrain_epochs,
            workers=args.workers,
            state_dir=_maybe_path(args.state_dir),
            resume=args.resume,
            fault_plan=fault_plan,
            retry=RetryPolicy(max_attempts=args.retries),
            deadline_seconds=args.deadline,
            install_signal_handlers=True,
            listen=args.listen,
            port_file=_maybe_path(args.port_file),
            trace_out=_maybe_path(args.trace_out),
            max_queue_depth=args.max_queue_depth,
            max_inflight_per_user=args.max_inflight,
            out_dir=_maybe_path(args.out),
            no_artifacts=args.no_artifacts,
            metrics_enabled=not args.no_metrics,
            metrics_out=_maybe_path(args.metrics_out),
            metrics_interval_seconds=args.metrics_interval,
        )


def parse_listen(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> tuple (port 0 binds an ephemeral port)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--listen expects HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--listen expects a numeric port, got {port_text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen port out of range: {port}")
    return host, port


def _maybe_path(value: Optional[Union[str, Path]]) -> Optional[Path]:
    return None if value is None else Path(value)
