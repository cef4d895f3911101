"""Benchmark harness: experiment drivers, the paper's reference numbers,
and table formatting used by the ``benchmarks/`` modules."""

from .experiments import (
    DPIA_BEST_V_MW,
    ExperimentRow,
    dpia_experiment,
    dria_experiment,
    mia_experiment,
    simulate_fl_for_dpia,
    v_mw_search,
)
from .tables import format_comparison, layers_label, print_table

__all__ = [
    "ExperimentRow",
    "dria_experiment",
    "mia_experiment",
    "dpia_experiment",
    "simulate_fl_for_dpia",
    "v_mw_search",
    "DPIA_BEST_V_MW",
    "format_comparison",
    "print_table",
    "layers_label",
]
