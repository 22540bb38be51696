"""Experiment harness: scaling presets, trial runner, per-figure sweeps."""

from repro.experiments.figures import (
    ALL_FIGURES,
    FigureResult,
    SweepResult,
    TableResult,
    fig1_snapshot,
    fig5_timeline,
    fig7_k_filled,
    fig8_hit_correlated,
    fig9_hit_uniform,
    fig10_overhead,
    fig11_spatial,
    fig12_user,
)
from repro.experiments.export import export_figure, figure_to_dict
from repro.experiments.extensions import ext_and_semantics, ext_skew_sensitivity
from repro.experiments.figures import ALL_FIGURES as _registry
from repro.experiments.report import format_figure, format_panel, print_figure

_registry.setdefault("ext1", ext_skew_sensitivity)
_registry.setdefault("ext2", ext_and_semantics)
from repro.experiments.parallel import resolve_jobs, run_trials
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
    "ALL_FIGURES",
    "FULL",
    "FigureResult",
    "PRESETS",
    "SMALL",
    "ScalePreset",
    "SweepResult",
    "TINY",
    "TableResult",
    "TrialResult",
    "TrialSpec",
    "export_figure",
    "ext_and_semantics",
    "ext_skew_sensitivity",
    "figure_to_dict",
    "fig1_snapshot",
    "fig5_timeline",
    "fig7_k_filled",
    "fig8_hit_correlated",
    "fig9_hit_uniform",
    "fig10_overhead",
    "fig11_spatial",
    "fig12_user",
    "format_figure",
    "format_panel",
    "preset_from_env",
    "print_figure",
    "resolve_jobs",
    "run_digestion_stress",
    "run_trial",
    "run_trials",
]
