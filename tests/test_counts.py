"""The count rule: every scalar size, budget and trial count goes through `_solve._count`.

NaN, ±inf, fractions and values below the count's least value raise
ConfigError at every entry point; a whole float is accepted and stored as
an int.
"""

import ast
import math
from pathlib import Path

import pytest

import seqdef
from seqdef import (
    AttackPlan,
    ConfigError,
    DegreeModel,
    DetectorProfile,
    NetworkGraph,
    RiskBudget,
    average_random_attack,
    decision_by_counts,
    estimate_qc,
    feasible,
    generate,
    min_detection,
    simulate_attack,
    simulate_detection,
    worst_case_bounds,
)
from seqdef.degree_models import sample_degree_sequence
from seqdef.experiments_cli import ExperimentConfig, cmd_operation_curves
from seqdef.robust_design import required_rate
from seqdef.sprt_engine import per_report_llr

RISK = RiskBudget(0.01, 0.001)
DET = DetectorProfile(0.9, 0.001)
PLAN = AttackPlan("random", 0.5, 100)
GRAPH = generate(DegreeModel.er(3), 60, seed=1)


def _operation_rows(mc):
    text = cmd_operation_curves(ExperimentConfig(command="operation-curves", mc_list=str(mc), pf_grid="0.01"))
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


# entry point, least value, a valid value, call(value) -> what the entry kept, whether that is the stored count
SITES = {
    "NetworkGraph.n": (1, 10, lambda v: NetworkGraph(v, []).n, True),
    "generate.n": (2, 10, lambda v: generate(DegreeModel.er(1), v, seed=0).n, True),
    "simulate_attack.step_count": (2, 5, lambda v: len(simulate_attack(GRAPH, AttackPlan("degree", 0.5, 60), v, 0)), True),
    "average_random_attack.trials": (1, 3, lambda v: average_random_attack(GRAPH, 0.5, 5, v, 0).lcc_fraction.tolist(), False),
    "estimate_qc.trials": (1, 3, lambda v: estimate_qc(GRAPH, "random", v, 0), False),
    "AttackPlan.n": (1, 10, lambda v: AttackPlan("random", 0.5, v).n, True),
    "worst_case_bounds.m_c": (1, 10, lambda v: worst_case_bounds(0.5, DET, RISK, v).m_c, True),
    "simulate_detection.trials": (1, 10, lambda v: simulate_detection(PLAN, DET, RISK, 10, v, 0).trials, True),
    "simulate_detection.m_c": (1, 10, lambda v: simulate_detection(PLAN, DET, RISK, v, 10, 0), False),
    "per_report_llr.i": (1, 3, lambda v: per_report_llr(1, PLAN, DET, v), False),
    "decision_by_counts.m": (1, 10, lambda v: decision_by_counts(1, v, PLAN, DET, RISK), False),
    "decision_by_counts.d_m": (0, 2, lambda v: decision_by_counts(v, 10, PLAN, DET, RISK), False),
    "DegreeModel.k_min": (1, 2, lambda v: DegreeModel.er(3, k_min=v).k_min, True),
    "DegreeModel.k_max": (5, 10, lambda v: DegreeModel.er(3, k_min=5, k_max=v).k_max, True),
    "DegreeModel.n": (2, 10, lambda v: DegreeModel.er(3, n=v).n, True),
    "DegreeModel.empirical.degree": (1, 2, lambda v: next(iter(DegreeModel.empirical({v: 1.0}).histogram)), True),
    "sample_degree_sequence.size": (2, 10, lambda v: sample_degree_sequence(DegreeModel.er(3), v, 0).tolist(), False),
    "required_rate.m_c": (1, 10, lambda v: required_rate(RISK, v), False),
    "min_detection.m_c": (1, 10, lambda v: min_detection(0.01, RISK, v).m_c, True),
    "feasible.m_c": (1, 10, lambda v: feasible(DET, RISK, v), False),
    "operation-curves.mc_list": (1, 5, _operation_rows, False),
}


def _bad_values(least):
    return [math.nan, math.inf, -math.inf, least + 1.5, least - 1]


@pytest.mark.parametrize(
    "site, value",
    [(site, value) for site, (least, *_) in SITES.items() for value in _bad_values(least)],
    ids=lambda x: str(x),
)
def test_count_entry_points_reject_non_counts(site, value):
    call = SITES[site][2]
    with pytest.raises(ConfigError, match="whole number"):
        call(value)


@pytest.mark.parametrize("site", list(SITES))
def test_count_entry_points_accept_whole_floats(site):
    _, good, call, stored = SITES[site]
    kept = call(float(good))
    assert kept == call(good)
    if stored:
        assert type(kept) is int and kept == good


def test_simulate_attack_rejects_a_plan_sized_for_another_graph():
    # plan.n was never read: the curve followed graph.n whatever the plan said
    for n in (GRAPH.n - 1, GRAPH.n + 1):
        with pytest.raises(ConfigError, match="sized for n="):
            simulate_attack(GRAPH, AttackPlan("degree", 0.5, n), 5, 0)


def test_decision_by_counts_rejects_more_ones_than_reports():
    # (7, 5) was classified as accept_attack; a targeted plan counts ones among its first M = 4 reports only
    with pytest.raises(ConfigError, match="exceeds the 5 informative reports"):
        decision_by_counts(7, 5, PLAN, DET, RISK)
    with pytest.raises(ConfigError, match="exceeds the 4 informative reports"):
        decision_by_counts(5, 10, AttackPlan("degree", 0.04, 100), DET, RISK)
    assert decision_by_counts(4, 10, AttackPlan("degree", 0.04, 100), DET, RISK) == "accept_attack"


def _source_nodes():
    """(file name, node) for every AST node of the package's modules."""
    for path in sorted(Path(seqdef.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_scalar_count_through_the_array_rule():
    # `int(_whole(x))` is a scalar count checked by the array rule, beside a hand-written bound;
    # scalar counts go through `_count`, which checks the bound too
    found = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and any(isinstance(a, ast.Call) and getattr(a.func, "id", None) == "_whole" for a in node.args)
    ]
    assert found == []


def test_no_np_unique():
    # the first np.unique call in a process adds 0.9-1.5 MB of peak RSS, several times the
    # run-to-run spread of the benchmark's powergrid peak_rss_mb; a sort and a neighbour
    # comparison find the same distinct values
    found = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "unique"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy"
            and any(alias.name == "unique" for alias in node.names)
        )
    ]
    assert found == []
