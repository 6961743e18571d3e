"""End-to-end acceptance gate.

Each test pins one quantitative contract of the library at its stated
tolerance and prints a PASS/FAIL line (visible with -s; the -v test
status carries the same verdict).

The US power-grid experiment (c09) needs the published 4941-node
dataset, which the repository does not hold. It is skipped unless the
edge list is at tests/data/uspowergrid.edges or SEQDEF_POWERGRID_DATASET
points at it.
"""

import math
import os
import pathlib

import numpy as np
import pytest

from oracles import exact_truncated_test
from seqdef import (
    AttackPlan,
    DegreeModel,
    DetectorProfile,
    RiskBudget,
    average_random_attack,
    estimate_qc,
    expected_reports_random,
    generate,
    load_edge_list,
    min_detection,
    moments,
    qc_intentional,
    qc_random,
    report_segments,
    simulate_attack,
    simulate_detection,
    worst_case_bounds,
)
from seqdef.experiments_cli import run
from seqdef.robust_design import baseline_check, information_rate, required_rate
from seqdef.sprt_engine import _detection_law

RISK = RiskBudget(0.01, 0.001)
GOLDEN_CUTOFF = (3 + math.sqrt(5)) ** 2 / 4


def report(criterion, ok, detail=""):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def budget(n, qc):
    return math.ceil(n * qc - 1e-9)


def test_c01_power_law_reference_thresholds():
    """Analytic thresholds for the two power-law reference parameter sets."""
    qc_www = qc_random(DegreeModel.power_law(2.1, k_min=1, k_max=1000)).qc
    ok = abs(qc_www - 0.9909) <= 1e-3
    ok &= budget(325729, qc_www) == 322780
    assert report("c01 www", ok, f"qc={qc_www:.6f} budget={budget(325729, qc_www)}")
    qc_net = qc_random(DegreeModel.power_law(2.5, k_min=1, k_max=1000)).qc
    assert report("c01 internet qc", abs(qc_net - 0.9673) <= 1e-3, f"qc={qc_net:.6f}")


def test_c01_internet_report_budget_reference():
    """Internet report budget from the budget rule, against the reference qc.

    `baseline_check` sets m_c = ceil(N * qc). For the Internet set
    (N = 6209) the reference qc = 0.9673 implies ceil(6209 * 0.9673) =
    6006; the library's qc = 0.967345 gives 6007. The +-1 absorbs the
    4-digit rounding of the reference qc, worth at most 0.31 of a report.
    The historically quoted budget 6000 is not asserted: it needs
    qc = 0.96634, at the very edge of the reference band, and no k_max
    cut-off gives it, while the WWW reference budget 322780 follows the
    ceil rule exactly (see the test above).
    """
    model = DegreeModel.power_law(2.5, k_min=1, k_max=1000, n=6209)
    mc = baseline_check(model, DetectorProfile(0.5, 0.01), RISK).m_c
    reference = math.ceil(6209 * 0.9673)
    ok = abs(mc - reference) <= 1
    assert report("c01 internet budget", ok, f"budget={mc} reference={reference} +- 1")


def test_c02_er_closed_form():
    """Random-attack threshold of ER networks equals 1 - 1/k_hat exactly."""
    ok = True
    for k_hat in (2.0, 4.0, 8.0):
        qc = qc_random(DegreeModel.er(k_hat)).qc
        ok &= abs(qc - (1 - 1 / k_hat)) < 1e-12
    assert report("c02 er closed form", ok)


def test_c03_eu_grid_exponential():
    """Exponential (EU grid) threshold by the large-k_max closed form.

    The historically reported 0.629 implies a different effective k_min;
    this check pins our k_min = 1 value 0.6212.
    """
    qc = qc_random(DegreeModel.exponential(1.63, k_min=1, n=2783)).qc
    assert report("c03 eu grid", abs(qc - 0.6212) <= 1e-4, f"qc={qc:.6f}")


def test_c04_monte_carlo_analytic_agreement():
    """Configuration-model percolation matches the closed forms within 0.02."""
    pl_model = DegreeModel.power_law(2.5, k_min=1, k_max=1000)
    pl_graph = generate(pl_model, 10**5, seed=5)
    pl_est = estimate_qc(pl_graph, "random", trials=5, seed=11)
    pl_qc = qc_random(pl_model).qc
    ok = abs(pl_est.qc - pl_qc) <= 0.02
    assert report("c04 power law", ok, f"estimate={pl_est.qc:.4f} analytic={pl_qc:.4f}")

    er_model = DegreeModel.er(4)
    er_graph = generate(er_model, 10**5, seed=2)
    er_est = estimate_qc(er_graph, "random", trials=5, seed=11)
    ok = abs(er_est.qc - 0.75) <= 0.02
    assert report("c04 er", ok, f"estimate={er_est.qc:.4f} analytic=0.75")


def test_c05_intentional_attack_roots():
    """Cutoff roots, equation residuals, and scheme ordering."""
    pl = qc_intentional(DegreeModel.power_law(2.5, k_min=1, n=10**9))
    ok = abs(pl.cutoff_degree - GOLDEN_CUTOFF) <= 1e-6
    ok &= abs(pl.qc - 0.0557) <= 1e-3
    assert report("c05 power-law root", ok, f"cutoff={pl.cutoff_degree:.6f} qc={pl.qc:.6f}")

    exp_model = DegreeModel.exponential(1.63, n=2783)
    exp = qc_intentional(exp_model)
    m = moments(exp_model)
    u = exp.qc + 1 / exp_model.n
    residual = (1 - math.log(u)) * u + m.mean_degree / (m.second_moment - m.mean_degree) - 1
    assert report("c05 exponential residual", abs(residual) < 1e-10, f"residual={residual:.2e}")

    mean = moments(DegreeModel.power_law(2.5)).mean_degree
    ok = True
    for model in (DegreeModel.er(mean), DegreeModel.power_law(2.5), DegreeModel.exponential(mean - 1)):
        ok &= qc_intentional(model).qc < qc_random(model).qc
    assert report("c05 intentional < random", ok)


def test_c06_h0_false_alarm_bound():
    """H0 attack declarations stay under the sequential-test design bound."""
    det = DetectorProfile(0.5, 0.01)
    plan = AttackPlan("random", 0.3, 10**4)
    sim = simulate_detection(plan, det, RISK, m_c=10**4, trials=10**4, seed=43, truth="h0")
    bound = RISK.delta / (1 - RISK.theta)
    limit = bound + 3 * math.sqrt(bound * (1 - bound) / 10**4)
    ok = sim.attack_frequency <= limit
    assert report("c06 h0 bound", ok, f"freq={sim.attack_frequency:.4f} limit={limit:.4f}")


def test_c06_h1_mean_stop_vs_formula():
    """Mean stop index against the exact oracle and Wald's overshoot bracket.

    The expected-report formula is Wald's approximation, which neglects
    threshold overshoot. Here one success moves the LLR by
    z1 = log(p1/p0) = 2.708, 59% of log A, so the exact E[stop] = 20.264
    lies 22% above the formula's 16.603; no correct simulator meets a
    fixed relative band such as 15%. Instead:

    * the simulated mean lies within 3 Monte-Carlo standard errors of the
      exact lattice mean (SE 0.167 at 1e4 trials, from the oracle's exact
      stop-index variance; an off-by-one stop index misses by 6 SE);
    * the exact mean lies in the overshoot bracket around the formula,
      formula <= E[stop] <= formula + z1 / E[z|H1]. By Wald's identity
      E[Lambda_N] = E[N] * E[z|H1], and an upper crossing overshoots
      log A by less than z1. With the oracle's upper-crossing probability
      0.99910 the exact bracket is [16.607, 26.389], inside this one;
    * the library's exact law (`_detection_law`, which `simulate_detection`
      draws from) gives the oracle's mean within 1e-9, and the overshoot
      gap to the formula is reported as a number.
    """
    det = DetectorProfile(0.5, 0.01)
    plan = AttackPlan("random", 0.3, 10**4)
    trials = 10**4
    p1, p0 = 0.3 * det.p_d, det.p_f
    formula = expected_reports_random(0.3, det, RISK)
    sim = simulate_detection(plan, det, RISK, m_c=10**4, trials=trials, seed=42, truth="h1")
    exact = exact_truncated_test(p1, p1, p0, RISK, m_c=20000)
    se = math.sqrt((exact.second_moment - exact.mean**2) / trials)
    z = (sim.mean_stop_index - exact.mean) / se
    ok = abs(z) <= 3
    assert report("c06 h1 mean stop", ok, f"simulated={sim.mean_stop_index:.3f} exact={exact.mean:.3f} z={z:+.2f}")

    z1, z0 = math.log(p1 / p0), math.log((1 - p1) / (1 - p0))
    upper = formula + z1 / (p1 * z1 + (1 - p1) * z0)
    ok = formula <= exact.mean <= upper
    assert report("c06 h1 overshoot bracket", ok, f"formula={formula:.3f} exact={exact.mean:.3f} upper={upper:.3f}")

    _, stop, _, z1, z0 = report_segments(plan, det)[0]
    first, k, p, _ = _detection_law(z1, z0, RISK.log_a, RISK.log_b, min(stop, 10**4), p1)
    law_mean = (p[:k] + p[k : 2 * k]) @ np.arange(first, first + k) + (p[2 * k] + p[2 * k + 1]) * 10**4
    ok = abs(law_mean - exact.mean) <= 1e-9
    detail = f"law={law_mean:.6f} exact={exact.mean:.6f} formula={formula:.3f} gap={law_mean / formula - 1:+.1%}"
    assert report("c06 h1 exact law and overshoot gap", ok, detail)


def test_c07_intentional_truncation_identity():
    """The cumulative LLR is frozen, bitwise, once the attacked set is exhausted."""
    from seqdef import SprtTrace, step

    det = DetectorProfile(0.6, 0.4)
    risk = RiskBudget(1e-6, 1e-6)  # thresholds unreachable within 2M low-information reports
    plan = AttackPlan("intentional", 0.02, 1000)  # M = 20
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(1000):
        trace = SprtTrace()
        for _ in range(plan.m):
            step(trace, int(rng.random() < det.p_d), plan, det, risk)
        frozen = trace.cumulative_llr
        for _ in range(plan.m):
            step(trace, int(rng.random() < det.p_f), plan, det, risk)
            ok &= trace.cumulative_llr == frozen
    assert report("c07 truncation identity", ok)


def test_c08_worst_case_bound_sandwich():
    """Attack-declaration frequency against the exact truncated test and the normal lower bound.

    * In every cell the simulated frequency lies within 3 Monte-Carlo
      standard errors of the exact truncated-SPRT value (two-sided), from
      the lattice DP `exact_truncated_test`.
    * The paper's normal-approximation `accept_lower_bound` is compared
      with that exact value, with no sampling noise. It holds in 8 of the 9
      cells. At q = 0.5, m_c = 100 the exact P(attack) is 0.999061, below
      the bound 0.999861: the approximation understates the miss
      probability there. That cell is reported as a discrepancy in the
      paper's bound; the simulator cannot meet a bound the exact test
      misses (at 1e4 trials it would need at most 4 misses against 9.39
      expected).
    """
    det = DetectorProfile(0.5, 0.01)
    trials = 10**4
    bound_gap = (0.5, 100)
    ok = True
    for q in (0.2, 0.3, 0.5):
        for m_c in (20, 50, 100):
            bound = worst_case_bounds(q, det, RISK, m_c).accept_lower_bound
            exact = exact_truncated_test(q * det.p_d, q * det.p_d, det.p_f, RISK, m_c).attack
            sim = simulate_detection(AttackPlan("random", q, 10**4), det, RISK, m_c, trials, seed=7, truth="h1")
            z = (sim.attack_frequency - exact) / math.sqrt(exact * (1 - exact) / trials)
            detail = f"freq={sim.attack_frequency:.4f} exact={exact:.6f} z={z:+.2f}"
            ok &= report(f"c08 q={q} m_c={m_c} exact", abs(z) <= 3, detail)
            bound_ok = exact < bound if (q, m_c) == bound_gap else exact >= bound
            label = "bound gap" if (q, m_c) == bound_gap else "bound"
            ok &= report(f"c08 q={q} m_c={m_c} {label}", bound_ok, f"exact={exact:.6f} bound={bound:.6f}")
    assert ok


def _powergrid_dataset():
    env = os.environ.get("SEQDEF_POWERGRID_DATASET")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).parent / "data" / "uspowergrid.edges"


@pytest.mark.skipif(
    not _powergrid_dataset().exists(),
    reason=f"US power-grid edge list not found at {_powergrid_dataset()}; place it at "
    "tests/data/uspowergrid.edges or point SEQDEF_POWERGRID_DATASET at it",
)
def test_c09_us_power_grid_experiment():
    """Ingestion counts and degree-vs-random dominance on the US grid.

    Needs the published 4941-node / 6594-edge topology (Watts & Strogatz,
    Nature 393, 440, 1998), which the repository does not hold. Place the
    edge list ('u v' per line, any integer ids) at
    tests/data/uspowergrid.edges or point SEQDEF_POWERGRID_DATASET at it
    to run the experiment; without it the test is skipped.
    """
    path = _powergrid_dataset()
    graph = load_edge_list(path)
    ok = graph.n == 4941 and graph.edge_count == 6594
    assert report("c09 ingestion", ok, f"nodes={graph.n} edges={graph.edge_count}")
    steps = 10  # q = 0.05 .. 0.5
    degree_curve = simulate_attack(graph, AttackPlan("intentional", 0.5, graph.n), steps + 1, seed=0)
    random_curve = average_random_attack(graph, 0.5, steps + 1, trials=100, seed=0)
    gaps = random_curve.lcc_fraction[1:] - degree_curve.lcc_fraction[1:]
    assert report("c09 dominance", bool((gaps >= 0.02).all()), f"min gap={gaps.min():.4f}")


def test_c10_robust_design_monotonicity():
    """Operation points solve the equality curve and order correctly."""
    pf_grid = np.geomspace(1e-4, 8e-3, 10)
    mc_grid = range(1, 11)
    ok = True
    points = {}
    for m_c in mc_grid:
        for pf in pf_grid:
            point = min_detection(float(pf), RISK, m_c)
            points[(m_c, pf)] = point.p_d_min
            ok &= abs(information_rate(point.p_d_min, float(pf)) - required_rate(RISK, m_c)) < 1e-10
    for m_c in mc_grid:
        row = [points[(m_c, pf)] for pf in pf_grid]
        ok &= all(a <= b + 1e-12 for a, b in zip(row, row[1:]))
    for pf in pf_grid:
        col = [points[(m_c, pf)] for m_c in mc_grid]
        ok &= all(a >= b - 1e-12 for a, b in zip(col, col[1:]))
    assert report("c10 operation curves", ok)


def test_c11_cli_determinism(tmp_path):
    """Identical configuration and seed reproduce every CSV byte for byte."""
    toy = generate(DegreeModel.power_law(2.5, k_max=50, n=400), 400, seed=9)
    toy_path = tmp_path / "toy.edges"
    toy_path.write_text(toy.edge_text())
    runs = [
        ["qc-sweep", "--seed", "3"],
        ["m1", "--seed", "3"],
        ["worst-case", "--seed", "3"],
        ["empirical", "--seed", "3"],
        ["powergrid", "--seed", "3", "--graph", str(toy_path), "--trials", "5", "--steps", "5"],
        ["operation-curves", "--seed", "3"],
    ]
    ok = True
    for argv in runs:
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert run(argv + ["--out", str(out)]) == 0
        command_ok = out.read_bytes() == first
        ok &= command_ok
        report(f"c11 {argv[0]}", command_ok)
    assert ok
