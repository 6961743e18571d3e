"""Feasibility of sequential defense under a report budget.

A detector pair (p_d, p_f) can beat a degree-targeted attack only if the
per-report information rate (a binary KL-divergence) is at least the
decision effort divided by the budget m_c. This module evaluates that
inequality, solves for the minimum detection probability on the equality
curve, and offers the composite budget check combining both attack
schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._solve import _count, bisect_root, ceil_count
from .degree_models import DegreeModel
from .errors import ConfigError, InfeasibleError
from .percolation_analytic import qc_random
from .sprt_engine import (
    DetectorProfile,
    RiskBudget,
    _llr_drift,
    expected_reports_intentional,
    expected_reports_random,
)


@dataclass(frozen=True)
class OperationPoint:
    """Minimum p_d that still meets the budget m_c at false-alarm p_f."""

    p_f: float
    p_d_min: float
    m_c: int


@dataclass(frozen=True)
class BaselineCheck:
    """Budget from the percolation threshold vs. required report counts."""

    m_c: int
    m1_random: float
    m1_intentional: float
    ok: bool


def information_rate(p_d: float, p_f: float) -> float:
    """Binary KL divergence D(p_d || p_f) = E[z|H1]: nonnegative, zero iff p_d == p_f."""
    return _llr_drift(p_d, p_f)


def required_rate(risk: RiskBudget, m_c: int) -> float:
    """Decision effort theta*logB + (1-theta)*logA spread over m_c reports."""
    return risk.decision_effort / _count(m_c, "report budget m_c")


def feasible(detector: DetectorProfile, risk: RiskBudget, m_c: int) -> bool:
    """True iff the detector can identify a targeted attack within m_c reports."""
    return information_rate(detector.p_d, detector.p_f) >= required_rate(risk, m_c)


def min_detection(p_f: float, risk: RiskBudget, m_c: int) -> OperationPoint:
    """Solve the equality curve for the minimal feasible p_d at this p_f.

    The information rate is strictly increasing in p_d on (p_f, 1), so
    bisection applies. Raises InfeasibleError when even p_d -> 1 falls
    short of the required rate.
    """
    if not 0.0 < p_f < 1.0:
        raise ConfigError("p_f must lie strictly inside (0, 1)")
    rhs = required_rate(risk, m_c)
    hi = 1.0 - 1e-12

    def gap(p_d: float) -> float:
        return information_rate(p_d, p_f) - rhs

    if gap(hi) < 0.0:
        raise InfeasibleError(
            f"infeasible at this m_c: even p_d -> 1 gives rate "
            f"{information_rate(hi, p_f):.6g} < required {rhs:.6g}"
        )
    p_d_min = bisect_root(gap, p_f * (1.0 + 1e-12), hi, what="operation point")
    return OperationPoint(p_f=p_f, p_d_min=p_d_min, m_c=int(m_c))  # whole: `required_rate` checked it


def baseline_check(model: DegreeModel, detector: DetectorProfile, risk: RiskBudget) -> BaselineCheck:
    """Budget rule: m_c from the random-attack threshold must cover both schemes."""
    qc = qc_random(model).qc
    m_c = ceil_count(model.n * qc)
    m1_ran = expected_reports_random(qc, detector, risk)
    m1_int = expected_reports_intentional(detector, risk)
    return BaselineCheck(
        m_c=m_c,
        m1_random=m1_ran,
        m1_intentional=m1_int,
        ok=m_c >= max(m1_ran, m1_int),
    )
