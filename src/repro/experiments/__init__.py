"""Experiment harness: scaling presets, trial runner, the figure table."""

from repro.experiments.export import export_figure, figure_to_dict
from repro.experiments.figures import (
    FIGURES,
    Figure,
    FigureResult,
    Sweep,
    SweepResult,
    TableResult,
    run_figure,
)
from repro.experiments.parallel import resolve_jobs, run_trials
from repro.experiments.report import format_figure, format_panel, print_figure
from repro.experiments.runner import (
    TrialResult,
    TrialSpec,
    run_digestion_stress,
    run_trial,
)
from repro.experiments.scale import (
    FULL,
    PRESETS,
    SMALL,
    TINY,
    ScalePreset,
    preset_from_env,
)

__all__ = [
    "FIGURES",
    "FULL",
    "Figure",
    "FigureResult",
    "PRESETS",
    "SMALL",
    "ScalePreset",
    "Sweep",
    "SweepResult",
    "TINY",
    "TableResult",
    "TrialResult",
    "TrialSpec",
    "export_figure",
    "figure_to_dict",
    "format_figure",
    "format_panel",
    "preset_from_env",
    "print_figure",
    "resolve_jobs",
    "run_digestion_stress",
    "run_figure",
    "run_trial",
    "run_trials",
]
