"""Percolation thresholds and sequential attack detection for complex networks.

The analytic names (moments, q_c, Wald's report counts, the worst-case
bounds and the report-budget rule) need only the standard library, so
`import seqdef` does not load numpy. The names that build arrays load it
on first use: the graph names of `graph_engine` and `simulate_detection`
are bound by the module `__getattr__` (PEP 562), and functions such as
`sample_degree_sequence` import numpy when called. Binding any deferred
name imports `graph_engine` and `sprt_engine` together, since perfbench's
tracer looks up `seqdef.graph_engine` in `sys.modules` for every workload.
"""

from .degree_models import DegreeModel, MomentSummary, giant_component_exists, moments, sample_degree_sequence, thin
from .errors import ConfigError, InfeasibleError, NoRootError, NumericalError, SeqdefError, SubcriticalError
from .percolation_analytic import CriticalValueReport, cutoff_degree, qc_intentional, qc_random
from .robust_design import BaselineCheck, OperationPoint, baseline_check, feasible, min_detection
from .sprt_engine import (
    AttackPlan,
    DetectionSummary,
    DetectorProfile,
    RiskBudget,
    SprtTrace,
    WorstCaseBounds,
    decision_by_counts,
    expected_reports_intentional,
    expected_reports_random,
    normal_cdf,
    per_report_llr,
    report_segments,
    step,
    truncate,
    worst_case_bounds,
)

__version__ = "0.1.0"

_GRAPH_NAMES = (
    "NetworkGraph", "QcEstimate", "RemovalCurve", "average_random_attack", "betweenness", "estimate_qc",
    "generate", "generate_from_sequence", "largest_component", "load_edge_list", "removal_order", "simulate_attack",
)


def __getattr__(name):
    """Bind a graph name or `simulate_detection` on first use; this loads numpy."""
    if name not in (*_GRAPH_NAMES, "simulate_detection"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import graph_engine, sprt_engine
    value = globals()[name] = getattr(graph_engine if name in _GRAPH_NAMES else sprt_engine, name)
    return value

__all__ = [
    "AttackPlan",
    "BaselineCheck",
    "ConfigError",
    "CriticalValueReport",
    "DegreeModel",
    "DetectionSummary",
    "DetectorProfile",
    "InfeasibleError",
    "MomentSummary",
    "NetworkGraph",
    "NoRootError",
    "NumericalError",
    "OperationPoint",
    "QcEstimate",
    "RemovalCurve",
    "RiskBudget",
    "SeqdefError",
    "SprtTrace",
    "SubcriticalError",
    "WorstCaseBounds",
    "average_random_attack",
    "baseline_check",
    "betweenness",
    "cutoff_degree",
    "decision_by_counts",
    "estimate_qc",
    "expected_reports_intentional",
    "expected_reports_random",
    "feasible",
    "generate",
    "generate_from_sequence",
    "giant_component_exists",
    "largest_component",
    "load_edge_list",
    "min_detection",
    "moments",
    "normal_cdf",
    "per_report_llr",
    "qc_intentional",
    "qc_random",
    "removal_order",
    "report_segments",
    "sample_degree_sequence",
    "simulate_attack",
    "simulate_detection",
    "step",
    "thin",
    "truncate",
    "worst_case_bounds",
]
