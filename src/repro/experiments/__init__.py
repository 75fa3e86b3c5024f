"""Experiment runners reproducing every table and figure of the paper."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the static view of the lazy re-exports below
    from repro.experiments.common import (
        ABLATION_METHODS,
        DEFAULT_METHODS,
        ExperimentEnvironment,
        MethodScore,
        comparison_scores,
        format_table,
        framework_config_for,
        mean_final_rouge,
        prepare_environment,
        run_method,
        run_method_comparison,
        run_method_mean,
    )
    from repro.experiments.figure2 import Figure2Result, run_figure2
    from repro.experiments.figure3 import Figure3Result, run_figure3
    from repro.experiments.presets import (
        ExperimentScale,
        get_scale,
        paper_scale,
        small_scale,
        smoke_scale,
    )
    from repro.experiments.registry import (
        ExperimentRun,
        ExperimentSpec,
        experiment_names,
        get_experiment,
        register_experiment,
        run_experiment,
    )
    from repro.experiments.table2 import Table2Result, run_table2
    from repro.experiments.table3 import Table3Result, run_table3
    from repro.experiments.table4 import Table4Result, run_table4

__all__ = [
    "ABLATION_METHODS",
    "DEFAULT_METHODS",
    "ExperimentEnvironment",
    "ExperimentRun",
    "ExperimentScale",
    "ExperimentSpec",
    "Figure2Result",
    "Figure3Result",
    "MethodScore",
    "Table2Result",
    "Table3Result",
    "Table4Result",
    "comparison_scores",
    "experiment_names",
    "format_table",
    "framework_config_for",
    "get_experiment",
    "get_scale",
    "paper_scale",
    "mean_final_rouge",
    "prepare_environment",
    "register_experiment",
    "run_experiment",
    "run_figure2",
    "run_figure3",
    "run_method",
    "run_method_comparison",
    "run_method_mean",
    "run_table2",
    "run_table3",
    "run_table4",
    "small_scale",
    "smoke_scale",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.experiments.common": (
            "ABLATION_METHODS DEFAULT_METHODS ExperimentEnvironment MethodScore "
            "comparison_scores format_table framework_config_for mean_final_rouge "
            "prepare_environment run_method run_method_comparison run_method_mean"
        ),
        "repro.experiments.figure2": "Figure2Result run_figure2",
        "repro.experiments.figure3": "Figure3Result run_figure3",
        "repro.experiments.presets": (
            "ExperimentScale get_scale paper_scale small_scale smoke_scale"
        ),
        "repro.experiments.registry": (
            "ExperimentRun ExperimentSpec experiment_names get_experiment "
            "register_experiment run_experiment"
        ),
        "repro.experiments.table2": "Table2Result run_table2",
        "repro.experiments.table3": "Table3Result run_table3",
        "repro.experiments.table4": "Table4Result run_table4",
    },
)
