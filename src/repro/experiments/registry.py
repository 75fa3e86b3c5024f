"""Declarative experiment registry: one interface for every figure and table.

Every reproduced experiment (figure2, figure3, table2, table3, table4) is
registered here as an :class:`ExperimentSpec` — a name, a runner callable, a
JSON serializer and the set of CLI-forwardable options.  The unified runner
(:func:`run_experiment`, driven by ``python -m repro.experiments run ...``)
resolves the scale preset, executes the runner, writes JSON artifacts (and,
through the pipeline engine, full-state checkpoints) under a run directory,
and returns everything a caller needs programmatically.

Registering a new experiment is one :func:`register_experiment` call; the
CLI, artifact layout and checkpointing come for free.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.baselines import selector_name
from repro.data.synthetic import dataset_preset
from repro.eval.learning_curve import format_learning_curves
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.presets import ExperimentScale, get_scale
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.table4 import Table4Result, run_table4
from repro.utils.config import require_non_negative, require_positive
from repro.utils.logging import get_logger

_LOGGER = get_logger("experiments.registry")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: how to run, serialize and display it."""

    name: str
    title: str
    description: str
    runner: Callable[..., object]
    serializer: Callable[[object], dict]
    formatter: Callable[[object], str]
    options: Tuple[str, ...] = ()


@dataclass
class ExperimentRun:
    """Outcome of one :func:`run_experiment` invocation."""

    name: str
    scale: str
    seed: int
    result: object
    seconds: float
    options: Dict[str, object] = field(default_factory=dict)
    run_dir: Optional[Path] = None
    artifacts: Dict[str, Path] = field(default_factory=dict)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (name must be unique)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def experiment_names() -> List[str]:
    """All registered experiment names, sorted."""
    return sorted(_REGISTRY)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a spec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {experiment_names()}"
        ) from None


# --------------------------------------------------------------------------- #
# serializers (result object -> JSON-ready dict)
# --------------------------------------------------------------------------- #
def _figure2_to_dict(result: Figure2Result) -> dict:
    return {
        "datasets": result.datasets,
        "methods": result.methods,
        "curves": {
            dataset: {method: curve.to_dict() for method, curve in methods.items()}
            for dataset, methods in result.curves.items()
        },
    }


def _figure3_to_dict(result: Figure3Result) -> dict:
    return {
        "dataset": result.dataset,
        "counts": result.counts,
        "rouge_by_count": {str(count): value for count, value in result.rouge_by_count.items()},
        "seconds_per_epoch_by_count": {
            str(count): value for count, value in result.seconds_per_epoch_by_count.items()
        },
        "best_count": result.best_count() if result.counts else None,
    }


def _table2_to_dict(result: Table2Result) -> dict:
    return {
        "datasets": result.datasets,
        "methods": result.methods,
        "scores": result.scores,
    }


def _table3_to_dict(result: Table3Result) -> dict:
    return {
        "dataset": result.dataset,
        "methods": result.methods,
        "bins_list": result.bins_list,
        "scores": {str(bins): row for bins, row in result.scores.items()},
        "buffer_sizes_kb": {str(bins): kb for bins, kb in result.buffer_sizes_kb.items()},
    }


def _table4_to_dict(result: Table4Result) -> dict:
    return {
        "datasets": result.datasets,
        "methods": result.methods,
        "scores": result.scores,
    }


def _figure2_format(result: Figure2Result) -> str:
    panels = []
    for dataset in result.datasets:
        curves = [result.curves[dataset][method] for method in result.methods]
        panels.append(f"[{dataset}]\n{format_learning_curves(curves)}")
    return "\n\n".join(panels)


# --------------------------------------------------------------------------- #
# the unified runner
# --------------------------------------------------------------------------- #
def resolve_run(
    name: str,
    scale: Union[str, ExperimentScale, None] = None,
    seed: int = 0,
    **options,
) -> Tuple[ExperimentSpec, ExperimentScale]:
    """Check one run's arguments without doing any work.

    Returns the experiment's spec and the resolved scale.  Raises
    ``KeyError`` for an unknown experiment, scale or dataset, ``TypeError``
    for an option the experiment does not take, and ``ValueError`` for an
    unknown method or an out-of-range value.
    """
    spec = get_experiment(name)
    unknown = set(options) - set(spec.options)
    if unknown:
        raise TypeError(
            f"experiment {name!r} does not accept options {sorted(unknown)}; "
            f"accepted: {sorted(spec.options)}"
        )
    require_non_negative("seed", seed)
    resolved = scale if isinstance(scale, ExperimentScale) else get_scale(scale, seed=seed)
    for dataset in _listed(options, "datasets", "dataset"):
        dataset_preset(dataset)
    for method in _listed(options, "methods", "method"):
        selector_name(method)
    if options.get("num_seeds") is not None:
        require_positive("num_seeds", options["num_seeds"])
    for count in options.get("counts") or ():
        require_non_negative("counts", count)
    for bins in options.get("bins_list") or ():
        require_positive("bins", bins)
    return spec, resolved


def _listed(options: dict, many: str, one: str) -> List[str]:
    """The values of a list option and its single-value form."""
    values = list(options.get(many) or ())
    if options.get(one) is not None:
        values.append(options[one])
    return values


def run_experiment(
    name: str,
    scale: Union[str, ExperimentScale, None] = None,
    seed: int = 0,
    out_dir: Optional[Union[str, Path]] = None,
    **options,
) -> ExperimentRun:
    """Run one registered experiment and (optionally) write its artifacts.

    ``scale`` is a preset name (``smoke`` / ``small`` / ``paper``), an
    :class:`ExperimentScale`, or ``None`` for the ``REPRO_SCALE`` default.
    ``out_dir`` receives ``result.json`` (the serialized result), ``run.json``
    (run metadata) and — through the engine — full-state checkpoints under
    ``out_dir/checkpoints/``.  Unknown ``options`` raise, so typos do not
    silently fall back to defaults.
    """
    spec, resolved = resolve_run(name, scale, seed, **options)

    run_dir = Path(out_dir) if out_dir is not None else None
    kwargs = dict(options)
    if run_dir is not None and "run_dir" in spec.options:
        kwargs.setdefault("run_dir", run_dir)

    _LOGGER.info("running experiment %s at scale %s (seed %d)", name, resolved.name, seed)
    start = time.perf_counter()
    result = spec.runner(scale=resolved, seed=seed, **kwargs)
    seconds = time.perf_counter() - start

    run = ExperimentRun(
        name=name,
        scale=resolved.name,
        seed=seed,
        result=result,
        seconds=seconds,
        options={key: value for key, value in options.items() if key != "run_dir"},
        run_dir=run_dir,
    )
    if run_dir is not None:
        run.artifacts = _write_artifacts(spec, run)
    return run


def _jsonable(value):
    """Best-effort conversion of option values for the run manifest."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


def _write_artifacts(spec: ExperimentSpec, run: ExperimentRun) -> Dict[str, Path]:
    run_dir = run.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    result_path = run_dir / "result.json"
    result_path.write_text(json.dumps(spec.serializer(run.result), indent=2) + "\n")
    meta_path = run_dir / "run.json"
    meta_path.write_text(
        json.dumps(
            {
                "experiment": run.name,
                "title": spec.title,
                "scale": run.scale,
                "seed": run.seed,
                "options": _jsonable(run.options),
                "seconds": run.seconds,
                "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            },
            indent=2,
        )
        + "\n"
    )
    _LOGGER.info("artifacts written to %s", run_dir)
    return {"result": result_path, "run": meta_path}


# --------------------------------------------------------------------------- #
# built-in registrations
# --------------------------------------------------------------------------- #
register_experiment(
    ExperimentSpec(
        name="figure2",
        title="Figure 2 — learning curves per dataset and method",
        description=(
            "ROUGE-1 versus dialogue sets seen for the proposed selection and "
            "the baselines on every dataset analogue."
        ),
        runner=run_figure2,
        serializer=_figure2_to_dict,
        formatter=_figure2_format,
        options=("datasets", "methods", "num_seeds", "run_dir"),
    )
)

register_experiment(
    ExperimentSpec(
        name="figure3",
        title="Figure 3 — synthesis-count sweep (ROUGE-1 and time/epoch)",
        description=(
            "ROUGE-1 and training seconds per epoch as a function of the "
            "number of synthesized sets per buffered original."
        ),
        runner=run_figure3,
        serializer=_figure3_to_dict,
        formatter=lambda result: result.format(),
        options=("dataset", "counts", "method", "num_seeds", "run_dir"),
    )
)

register_experiment(
    ExperimentSpec(
        name="table2",
        title="Table 2 — method comparison on all dataset analogues",
        description=(
            "Final ROUGE-1 of random/FIFO/K-Center/proposed selection on each "
            "dataset analogue at the preset buffer size."
        ),
        runner=run_table2,
        serializer=_table2_to_dict,
        formatter=lambda result: result.format(),
        options=("datasets", "methods", "num_seeds", "run_dir"),
    )
)

register_experiment(
    ExperimentSpec(
        name="table3",
        title="Table 3 — buffer-size sweep with √batch LR scaling",
        description=(
            "Final ROUGE-1 per method as the buffer grows, with the paper's "
            "learning-rate ∝ √batch-size rule."
        ),
        runner=run_table3,
        serializer=_table3_to_dict,
        formatter=lambda result: result.format(),
        options=("dataset", "bins_list", "methods", "num_seeds", "run_dir"),
    )
)

register_experiment(
    ExperimentSpec(
        name="table4",
        title="Table 4 — single-metric ablation (EOE / DSS / IDD)",
        description=(
            "The framework restricted to one quality metric versus the full "
            "strict-dominance rule, on every dataset analogue."
        ),
        runner=run_table4,
        serializer=_table4_to_dict,
        formatter=lambda result: result.format(),
        options=("datasets", "methods", "num_seeds", "run_dir"),
    )
)
