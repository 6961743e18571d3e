"""Feasibility inequality, operation curves, and the composite budget rule."""

import math

import numpy as np
import pytest

from seqdef import (
    ConfigError,
    DegreeModel,
    DetectorProfile,
    InfeasibleError,
    RiskBudget,
    baseline_check,
    feasible,
    min_detection,
)
from seqdef.robust_design import information_rate, required_rate

RISK = RiskBudget(0.01, 0.001)


class TestFeasible:
    def test_reference_point(self):
        det = DetectorProfile(0.9, 0.001)
        assert information_rate(0.9, 0.001) == pytest.approx(5.892, abs=1e-3)
        assert required_rate(RISK, 1) == pytest.approx(4.593, abs=1e-3)
        assert feasible(det, RISK, 1) is True

    def test_vanishing_divergence_is_infeasible(self):
        det = DetectorProfile(0.0101, 0.01)  # divergence ~ 5e-7
        assert feasible(det, RISK, 1) is False
        assert feasible(det, RISK, 10**8) is True  # huge budget rescues any p_d > p_f

    def test_monotone_in_budget(self):
        det = DetectorProfile(0.2, 0.01)
        values = [feasible(det, RISK, mc) for mc in range(1, 40)]
        # once true, stays true
        assert values == sorted(values)

    def test_information_rate_nonnegative(self):
        for pd in np.linspace(0.011, 0.99, 25):
            assert information_rate(pd, 0.01) >= 0.0
        assert information_rate(0.01, 0.01) == 0.0


class TestMinDetection:
    def test_equality_residual(self):
        point = min_detection(0.001, RISK, 1)
        assert abs(information_rate(point.p_d_min, 0.001) - required_rate(RISK, 1)) < 1e-10
        assert 0.001 < point.p_d_min <= 1.0

    def test_budget_ordering(self):
        tight = min_detection(0.001, RISK, 5)
        loose = min_detection(0.001, RISK, 10)
        assert loose.p_d_min <= tight.p_d_min

    def test_monotone_grid(self):
        pfs = np.geomspace(1e-4, 8e-3, 10)
        mcs = range(1, 11)
        table = {(mc, pf): min_detection(float(pf), RISK, mc).p_d_min for mc in mcs for pf in pfs}
        for mc in mcs:
            row = [table[(mc, pf)] for pf in pfs]
            assert all(a <= b + 1e-12 for a, b in zip(row, row[1:]))  # increasing in p_f
        for pf in pfs:
            col = [table[(mc, pf)] for mc in mcs]
            assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))  # decreasing in m_c

    def test_infeasible_reported(self):
        with pytest.raises(InfeasibleError, match="infeasible"):
            min_detection(0.3, RISK, 1)

    def test_bad_pf_rejected(self):
        with pytest.raises(ConfigError):
            min_detection(0.0, RISK, 5)


class TestOperationCurve:
    def test_curve_families_ordered(self):
        # a larger budget needs no stronger detector at any p_f: the m_c = 10 curve lies below m_c = 2
        for p_f in np.geomspace(1e-4, 5e-3, 8):
            lower, upper = min_detection(float(p_f), RISK, 10), min_detection(float(p_f), RISK, 2)
            assert lower.p_d_min <= upper.p_d_min
            assert lower.m_c == 10 and upper.m_c == 2


class TestBaselineCheck:
    def test_strong_detector_passes(self):
        check = baseline_check(DegreeModel.er(4), DetectorProfile(0.9, 0.001), RISK)
        assert check.m_c == 7500
        assert check.m1_intentional == pytest.approx(0.7795, abs=1e-4)
        assert check.ok is True

    def test_weak_detector_fails(self):
        check = baseline_check(DegreeModel.er(4), DetectorProfile(0.101, 0.1), RISK)
        assert check.m1_intentional > check.m_c
        assert check.ok is False
