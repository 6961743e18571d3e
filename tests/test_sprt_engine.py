"""Sequential test: likelihood ratios, decisions, report counts, bounds."""

import ast
import hashlib
import inspect
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqdef
from seqdef import (
    AttackPlan,
    ConfigError,
    DetectionSummary,
    DetectorProfile,
    NumericalError,
    RiskBudget,
    SprtTrace,
    decision_by_counts,
    expected_reports_intentional,
    expected_reports_random,
    normal_cdf,
    per_report_llr,
    report_segments,
    simulate_detection,
    step,
    truncate,
    worst_case_bounds,
)

from oracles import TruncatedOutcome, exact_truncated_test
from seqdef import sprt_engine
from seqdef._rand import rng_stream
from seqdef.sprt_engine import _count_llr, _detection_law, _llr_pair

RISK = RiskBudget(0.01, 0.001)


def law_outcome(plan, detector, risk, m_c, truth):
    """`_detection_law`'s outcome probabilities and stop moments, as an `exact_truncated_test` outcome."""
    _, stop, p1, z1, z0 = report_segments(plan, detector)[0]
    success = p1 if truth == "h1" else detector.p_f
    first, k, p, _ = _detection_law(z1, z0, risk.log_a, risk.log_b, min(stop, m_c), success)
    stops = np.arange(first, first + k)
    decided, forced = p[:k] + p[k : 2 * k], p[2 * k] + p[2 * k + 1]
    moments = (decided @ stops + forced * m_c, decided @ stops**2 + forced * m_c**2)
    return TruncatedOutcome(p[:k].sum(), p[k : 2 * k].sum(), p[2 * k], p[2 * k + 1], *moments)


def oracle_outcome(plan, detector, risk, m_c, truth):
    _, stop, p1, _, _ = report_segments(plan, detector)[0]
    return exact_truncated_test(p1 if truth == "h1" else detector.p_f, p1, detector.p_f, risk, m_c, stop)


def assert_walk_mirrored(z1, z0, log_a, log_b, limit, success):
    """`_walk` with negated LLRs and the thresholds swapped and negated is the same walk, attack and null swapped.

    Negation is exact in floats, and each end of the band is trimmed at the same reports. The one
    exception is a forced verdict at an LLR of exactly 0, null on both sides.
    """
    first, k, p, rest = sprt_engine._walk(z1, z0, log_a, log_b, limit, success, 0, 0, np.ones(1))
    mfirst, mk, mp, mrest = sprt_engine._walk(-z1, -z0, -log_b, -log_a, limit, success, 0, 0, np.ones(1))
    assert (mfirst, mk, mrest is None) == (first, k, rest is None)
    assert np.array_equal(mp[: 2 * k], np.concatenate((p[k : 2 * k], p[:k])))
    forced, mirrored = p[2 * k : 2 * k + 2], mp[2 * k : 2 * k + 2]  # (attack, null) truncated at the last report
    assert np.array_equal(p[2 * k + 2 :], mp[2 * k + 2 :])  # the undecided mass of a walk stopped below EPSILON
    if rest is None and any(_count_llr(d, first + k - 1, z1, z0) == 0.0 for d in range(first + k)):
        tied = forced[1] - mirrored[0]  # null on both sides: each side's null is the other's attack and the tie
        assert tied >= 0.0 and mirrored[1] - forced[0] == pytest.approx(tied, abs=1e-15, rel=0)
    else:
        assert np.array_equal(mirrored, forced[::-1])


class TestTypes:
    def test_risk_thresholds(self):
        assert RISK.log_a == pytest.approx(math.log(0.999 / 0.01), abs=1e-15)
        assert RISK.log_b == pytest.approx(math.log(0.001 / 0.99), abs=1e-15)
        assert RISK.log_b < 0.0 < RISK.log_a

    def test_risk_duality(self):
        # swapping delta and theta mirrors the thresholds
        swapped = RiskBudget(RISK.theta, RISK.delta)
        assert swapped.log_a == -RISK.log_b
        assert swapped.log_b == -RISK.log_a

    def test_risk_thresholds_cached_outside_the_fields(self):
        # the thresholds are computed once per instance, and the value semantics ignore the cache
        risk, fresh = RiskBudget(0.01, 0.001), RiskBudget(0.01, 0.001)
        effort = risk.decision_effort
        assert {"log_a", "log_b", "decision_effort"} <= vars(risk).keys()
        assert effort == 0.001 * math.log(0.001 / 0.99) + 0.999 * math.log(0.999 / 0.01)
        assert (risk, hash(risk), repr(risk)) == (fresh, hash(fresh), "RiskBudget(delta=0.01, theta=0.001)")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DetectorProfile(0.5, 0.6),
            lambda: DetectorProfile(1.0, 0.1),
            lambda: DetectorProfile(0.5, 0.0),
            lambda: RiskBudget(0.0, 0.1),
            lambda: RiskBudget(0.6, 0.5),
            lambda: AttackPlan("random", 0.0, 10),
            lambda: AttackPlan("sneaky", 0.5, 10),
        ],
    )
    def test_invalid_inputs_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_degree_is_a_synonym_of_intentional(self):
        assert AttackPlan("degree", 0.25, 100) == AttackPlan("intentional", 0.25, 100)

    def test_report_segments(self):
        det = DetectorProfile(0.9, 0.001)
        ((start, stop, p1, z1, z0),) = report_segments(AttackPlan("random", 0.37, 100), det)
        assert (start, stop, p1) == (0, math.inf, 0.37 * 0.9)
        assert z1 == pytest.approx(math.log(0.333 / 0.001), abs=1e-12)
        assert z0 == pytest.approx(math.log(0.667 / 0.999), abs=1e-12)
        targeted = AttackPlan("intentional", 0.25, 100)
        assert targeted.m == 25
        attacked, inert = report_segments(targeted, det)
        assert attacked[:3] == (0, 25, 0.9)
        assert attacked[3:] == pytest.approx((math.log(900), math.log(0.1 / 0.999)), abs=1e-12)
        assert inert == (25, math.inf, 0.001, 0.0, 0.0)

    @pytest.mark.parametrize("q", [0.0, -0.2, 1.5, math.nan])
    def test_fraction_outside_unit_interval_rejected_by_formulas(self, q):
        det = DetectorProfile(0.5, 0.01)
        with pytest.raises(ConfigError, match="attacked fraction"):
            expected_reports_random(q, det, RISK)
        with pytest.raises(ConfigError, match="attacked fraction"):
            worst_case_bounds(q, det, RISK, 10)

    def test_ceil_report_count(self):
        assert AttackPlan("intentional", 0.2, 10).m == 2
        assert AttackPlan("intentional", 0.21, 10).m == 3
        assert AttackPlan("intentional", 1.0, 7).m == 7

    def test_tiny_targeted_fraction_attacks_one_node(self):
        # the float-noise guard rounded n*q = 1e-9 down to 0 nodes, and every run was truncated to null
        plan = AttackPlan("degree", 1e-12, 1000)
        assert plan.m == 1
        assert simulate_detection(plan, DetectorProfile(0.9, 0.001), RISK, 1000, 100, 0).threshold_attack > 0


class TestPerReportLLR:
    def test_random_success_value(self):
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("random", 0.5, 10000)
        assert per_report_llr(1, plan, det, 1) == pytest.approx(math.log(450), abs=1e-12)

    def test_intentional_beyond_target_is_zero(self):
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("intentional", 0.01, 1000)  # M = 10
        for x in (0, 1):
            assert per_report_llr(x, plan, det, 11) == 0.0
            assert per_report_llr(x, plan, det, 500) == 0.0

    def test_boundary_identical_hypotheses(self):
        # q * p_d == p_f exactly: both outcomes carry no information
        det = DetectorProfile(0.5, 0.25)
        plan = AttackPlan("random", 0.5, 100)
        assert per_report_llr(0, plan, det, 3) == 0.0
        assert per_report_llr(1, plan, det, 3) == 0.0

    def test_report_index_starts_at_one(self):
        with pytest.raises(ConfigError, match="starts at 1"):
            per_report_llr(1, AttackPlan("random", 0.5, 100), DetectorProfile(0.9, 0.001), 0)

    @pytest.mark.parametrize("x", [7, -1, 0.5, math.nan, "1", 1.0])
    def test_report_must_be_a_bit(self, x):
        # 7 and NaN were read as a one: they accepted the attack, and 7 gave z1
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("random", 0.5, 10000)
        with pytest.raises(ConfigError, match="must be a bit"):
            per_report_llr(x, plan, det, 1)
        trace = SprtTrace()
        with pytest.raises(ConfigError, match="must be a bit"):
            step(trace, x, plan, det, RISK)
        assert trace == SprtTrace()

    @pytest.mark.parametrize("x", [0, 1, False, True, np.int64(1), np.uint8(0), np.bool_(True), np.bool_(False)])
    def test_bits_of_every_integer_type_accepted(self, x):
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("random", 0.5, 10000)
        assert per_report_llr(x, plan, det, 1) == per_report_llr(int(x), plan, det, 1)
        trace = step(SprtTrace(), x, plan, det, RISK)
        assert trace.reports == [int(x)] and type(trace.reports[0]) is int and trace.d_count == int(x)


class TestStepAndTruncate:
    def test_strong_first_report_accepts_immediately(self):
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("random", 0.5, 10000)
        trace = step(SprtTrace(), 1, plan, det, RISK)
        assert trace.state == "accept_attack"
        assert trace.stop_index == 1

    def test_symmetric_alternation_continues(self):
        det = DetectorProfile(0.8, 0.2)  # z(1) = -z(0) = log 4
        plan = AttackPlan("intentional", 1.0, 10)
        trace = SprtTrace()
        for x in (1, 0, 1, 0, 1, 0):
            step(trace, x, plan, det, RISK)
        assert trace.state == "continue"
        assert trace.cumulative_llr == pytest.approx(0.0, abs=1e-12)

    def test_null_run_accepts_null(self):
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("random", 0.5, 10000)
        trace = SprtTrace()
        while trace.state == "continue":
            step(trace, 0, plan, det, RISK)
        assert trace.state == "accept_null"
        assert trace.cumulative_llr <= RISK.log_b

    def test_stepping_decided_trace_rejected(self):
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("random", 0.5, 10000)
        trace = step(SprtTrace(), 1, plan, det, RISK)
        with pytest.raises(ValueError, match="decided"):
            step(trace, 0, plan, det, RISK)

    def test_llr_matches_scratch_recomputation(self):
        det = DetectorProfile(0.7, 0.05)
        plan = AttackPlan("random", 0.4, 1000)
        rng = np.random.default_rng(5)
        trace = SprtTrace()
        xs = []
        while trace.state == "continue" and len(xs) < 200:
            x = int(rng.random() < 0.28)
            xs.append(x)
            step(trace, x, plan, det, RISK)
        scratch = sum(per_report_llr(x, plan, det, i) for i, x in enumerate(xs, start=1))
        assert trace.cumulative_llr == pytest.approx(scratch, abs=1e-12)
        assert trace.d_count == sum(xs)

    @pytest.mark.parametrize("llr,expected", [(0.5, "accept_attack"), (0.0, "accept_null"), (-0.5, "accept_null")])
    def test_truncation_sign_rule(self, llr, expected):
        trace = SprtTrace(cumulative_llr=llr)
        assert truncate(trace, 10) == expected
        assert trace.stop_index == 10

    def test_truncate_validation(self):
        with pytest.raises(ValueError):
            truncate(SprtTrace(), 0)
        # NaN was accepted as accept_null with stop_index nan, and 2.5 was kept as the stop index
        for m_c in (math.nan, math.inf, -math.inf, 2.5):
            with pytest.raises(ValueError, match="whole number"):
                truncate(SprtTrace(), m_c)
        decided = SprtTrace(state="accept_attack")
        with pytest.raises(ValueError):
            truncate(decided, 5)
        # a budget below the reports already stepped gave a verdict, with stop_index 1 after three reports
        det, plan = DetectorProfile(0.8, 0.2), AttackPlan("intentional", 1.0, 10)
        trace = SprtTrace()
        for x in (1, 0, 1):
            step(trace, x, plan, det, RISK)
        for m_c in (1, 2):
            with pytest.raises(ValueError, match="below the 3 reports already stepped"):
                truncate(trace, m_c)
        assert (trace.state, trace.stop_index) == ("continue", None)
        assert truncate(trace, 3) == "accept_attack"


class TestCountFormAgreement:
    @pytest.mark.parametrize("scheme,q", [("random", 0.35), ("random", 0.7), ("intentional", 0.02)])
    def test_count_form_matches_llr_form(self, scheme, q):
        # the rearranged d_m thresholds must agree with the stepwise test;
        # for targeted plans d_m counts successes in the first min(m, M) reports
        rng = np.random.default_rng(11)
        plan = AttackPlan(scheme, q, 500)
        det = DetectorProfile(0.6, 0.02)
        for _ in range(200):
            trace = SprtTrace()
            m = 0
            while trace.state == "continue" and m < 80:
                x = int(rng.random() < 0.3)
                m += 1
                step(trace, x, plan, det, RISK)
                d_m = sum(trace.reports[: plan.m]) if plan.targeted else trace.d_count
                assert decision_by_counts(d_m, m, plan, det, RISK) == trace.state

    @settings(max_examples=300, deadline=None)
    @given(
        scheme=st.sampled_from(["random", "intentional", "betweenness"]),
        q=st.floats(1e-3, 1.0),
        n=st.integers(1, 300),
        probs=st.tuples(st.floats(1e-4, 0.999), st.floats(1e-4, 0.999)).map(sorted),
        delta=st.floats(1e-4, 0.45),
        theta=st.floats(1e-4, 0.45),
        xs=st.lists(st.booleans(), min_size=1, max_size=150),
    )
    def test_count_form_matches_step_property(self, scheme, q, n, probs, delta, theta, xs):
        plan = AttackPlan(scheme, q, n)
        det = DetectorProfile(probs[1], probs[0])
        risk = RiskBudget(delta, theta)
        trace = SprtTrace()
        for m, x in enumerate(xs, start=1):
            step(trace, x, plan, det, risk)
            d_m = sum(trace.reports[: plan.m]) if plan.targeted else trace.d_count
            assert decision_by_counts(d_m, m, plan, det, risk) == trace.state
            if trace.state != "continue":
                break


class TestCountLattice:
    @settings(max_examples=300, deadline=None)
    @given(
        probs=st.tuples(st.floats(1e-4, 0.999), st.floats(1e-4, 0.999)),
        counts=st.lists(st.integers(0, 10**12), min_size=3, max_size=3).map(sorted),
    )
    def test_count_llr_monotone_in_d(self, probs, counts):
        # `_walk` trims the band only at its two ends, which is exact only because the float LLR
        # moves one way in d for fixed m: both signs of z0 (q * p_d above and below p_f)
        z1, z0 = _llr_pair(*probs)
        d, later, m = counts
        for a, b in ((d, min(d + 1, m)), (d, later)):
            first, second = _count_llr(a, m, z1, z0), _count_llr(b, m, z1, z0)
            assert first <= second if z0 <= 0.0 else first >= second

    @settings(max_examples=300, deadline=None)
    @given(
        scheme=st.sampled_from(["random", "intentional"]),
        q=st.floats(1e-3, 1.0),
        n=st.integers(1, 120),
        probs=st.tuples(st.floats(1e-4, 0.999), st.floats(1e-4, 0.999)).map(sorted),
        delta=st.floats(1e-4, 0.45),
        theta=st.floats(1e-4, 0.45),
        m_c=st.integers(1, 150),
        truth=st.sampled_from(["h0", "h1"]),
    )
    @example("random", 1.0, 10, (0.375, 0.75), 0.375, 0.2, 20, "h1")  # at d = 1 the zeros bring the LLR onto log B at m = 3
    @example("random", 1.0, 10, (0.25, 0.75), 0.01, 0.01, 2, "h1")  # the LLR at m_c is exactly 0
    @example("random", 0.01, 10**4, (0.02, 0.5), 0.01, 0.001, 150, "h0")  # q * p_d < p_f: the zeros drift up
    @example("random", 1.0, 10, (0.25, 0.75), 0.25, 0.25, 5, "h1")  # z1 is exactly log A and z0 exactly log B
    def test_law_matches_exact_oracle_property(self, scheme, q, n, probs, delta, theta, m_c, truth):
        # random and targeted plans, budgets that end inside and past the attacked set, both LLR signs
        plan, det, risk = AttackPlan(scheme, q, n), DetectorProfile(probs[1], probs[0]), RiskBudget(delta, theta)
        law, exact = law_outcome(plan, det, risk, m_c, truth), oracle_outcome(plan, det, risk, m_c, truth)
        assert law[:4] == pytest.approx(exact[:4], abs=1e-12, rel=0)
        assert law.mean == pytest.approx(exact.mean, abs=1e-12, rel=0)

    @settings(max_examples=100, deadline=None)
    @given(
        probs=st.tuples(st.floats(1e-4, 0.999), st.floats(1e-4, 0.999)).map(sorted).filter(lambda p: p[0] < p[1]),
        delta=st.floats(1e-4, 0.45),
        theta=st.floats(1e-4, 0.45),
        limit=st.integers(1, 300),
        success=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),  # as q * p_d and p_f are
    )
    @example((0.25, 0.75), 0.01, 0.01, 2, 0.5)  # the LLR of one one in two reports is exactly 0
    def test_walk_mirrors_h0_and_h1(self, probs, delta, theta, limit, success):
        # negated LLRs with the thresholds swapped and negated give the same walk with attack and null
        # swapped, bit for bit: negation is exact in floats, and each end of the band is trimmed at the
        # same reports. The one exception is a forced verdict at an LLR of exactly 0, null on both sides
        risk = RiskBudget(delta, theta)
        assert_walk_mirrored(*_llr_pair(probs[1], probs[0]), risk.log_a, risk.log_b, limit, success)

    @pytest.mark.parametrize("log_a, log_b", [(3.0, -2.0), (2.0, -3.0), (4.0, -1.0)])
    def test_walk_mirrors_llrs_that_meet_the_thresholds(self, log_a, log_b):
        # with z1 = 1 and z0 = -1 the LLR after m reports with d ones is 2d - m, which lands exactly on
        # each threshold: a state there is decided (attack at log_a, null at log_b) on both sides. The
        # odd limit keeps the forced verdicts off an LLR of 0
        assert_walk_mirrored(1.0, -1.0, log_a, log_b, 11, 0.5)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        scheme=st.sampled_from(["random", "intentional"]),
        q=st.floats(0.05, 1.0),
        n=st.integers(1, 60),
        probs=st.tuples(st.floats(0.01, 0.9), st.floats(0.01, 0.9)).map(sorted),
        m_c=st.integers(1, 40),
        truth=st.sampled_from(["h0", "h1"]),
    )
    def test_stepwise_sampler_matches_law_property(self, scheme, q, n, probs, m_c, truth):
        # 300 tests run through `step` and `truncate`, one Bernoulli report at a time, independent of the
        # lattice: their attack frequency and mean stop index lie within 3 SE of the law's
        plan, det = AttackPlan(scheme, q, n), DetectorProfile(probs[1], probs[0])
        _, stop, p1, _, _ = report_segments(plan, det)[0]
        rng, runs = np.random.default_rng(2026), 300
        attack, stops = 0, []
        for _ in range(runs):
            trace = SprtTrace()
            while trace.state == "continue" and len(trace.reports) < m_c:
                informative = len(trace.reports) < stop
                step(trace, int(rng.random() < (p1 if truth == "h1" and informative else det.p_f)), plan, det, RISK)
            verdict = truncate(trace, m_c) if trace.state == "continue" else trace.state
            attack += verdict == "accept_attack"
            stops.append(trace.stop_index)
        law = law_outcome(plan, det, RISK, m_c, truth)
        p = law.attack
        assert abs(attack / runs - p) <= 3 * math.sqrt(p * (1 - p) / runs)
        spread = math.sqrt(max(law.second_moment - law.mean**2, 0.0) / runs)
        assert abs(sum(stops) / runs - law.mean) <= 3 * spread + 1e-9

    # the benchmark's four regimes and a near-inert stream (p_d = 0.05), whose band is wide and whose walk
    # runs to m_c; the long walks stop below EPSILON with a remainder atom
    REGIMES = {
        "long_h1": (AttackPlan("random", 0.3, 10**4), (0.5, 0.01), 10**4, "h1"),
        "long_h0": (AttackPlan("random", 0.3, 10**4), (0.5, 0.01), 10**4, "h0"),
        "short_h1": (AttackPlan("random", 0.3, 10**4), (0.5, 0.01), 50, "h1"),
        "targeted_h1": (AttackPlan("intentional", 0.002, 10**4), (0.5, 0.01), 200, "h1"),
        "inert_h1": (AttackPlan("random", 0.3, 10**4), (0.05, 0.01), 10**4, "h1"),
        "inert_h0": (AttackPlan("random", 0.3, 10**4), (0.05, 0.01), 10**4, "h0"),
    }

    @pytest.mark.parametrize("name", list(REGIMES))
    def test_law_matches_exact_oracle_in_long_walks(self, name):
        plan, det, m_c, truth = self.REGIMES[name]
        det = DetectorProfile(*det)
        law, exact = law_outcome(plan, det, RISK, m_c, truth), oracle_outcome(plan, det, RISK, m_c, truth)
        assert law[:4] == pytest.approx(exact[:4], abs=1e-12, rel=0)
        assert law.mean == pytest.approx(exact.mean, abs=1e-12 * max(1.0, exact.mean), rel=0)
        _, stop, p1, z1, z0 = report_segments(plan, det)[0]
        success = p1 if truth == "h1" else det.p_f
        _, k, p, resume = _detection_law(z1, z0, RISK.log_a, RISK.log_b, min(stop, m_c), success)
        assert (resume is not None) == name.startswith("long") and p.size == 2 * k + 2 + (resume is not None)
        assert 0.0 <= p[-1] < sprt_engine.EPSILON if resume else k == min(stop, m_c)

    # (first, k, sha256 of p's little-endian float64 bytes) of the law in each regime, and of long_h1's
    # resumed walk; any change to the walk's arithmetic or its verdicts moves a pin
    LAW_PINS = {
        "long_h1": (1, 654, "182dad9194fa5af698194fc39ab319c8bdea9fdeb406ce68c18ff4c82ec38dff"),
        "long_h0": (1, 684, "5a7bf7253c7e570ce03e790e6340bee4c3ab19c44f71f3f1ae18c9d4ca16be17"),
        "short_h1": (1, 50, "0f0eebebf3d986cfee808b39829bd6b1512a437211fff5be5b90ba40baab6b72"),
        "targeted_h1": (1, 20, "7babb527ee5b5e06c5363e08ec21b7c877a6e8c02d8307733d6c2afe9e840005"),
        "inert_h1": (1, 10000, "2c24311c9ac2a92ebf50b19b627ea926c720b9f919f42a2ba9e0c31d27facf2b"),
        "inert_h0": (1, 10000, "1bb0339093a5f9d1d9cd586bfe1f6027d169b63a3e692efe3ccc64fb7dfcc9b4"),
        "long_h1_resumed": (655, 647, "c36156640b5b3fa4462788bdddaa44cbc80ce5948797c3d25dc7110214fce119"),
    }

    @pytest.mark.parametrize("name", list(LAW_PINS))
    def test_law_pinned(self, name):
        plan, det, m_c, truth = self.REGIMES[name.removesuffix("_resumed")]
        det = DetectorProfile(*det)
        _, stop, p1, z1, z0 = report_segments(plan, det)[0]
        law = _detection_law(z1, z0, RISK.log_a, RISK.log_b, min(stop, m_c), p1 if truth == "h1" else det.p_f)
        first, k, p, _ = law[3]() if name.endswith("_resumed") else law
        assert (first, k, hashlib.sha256(p.astype("<f8").tobytes()).hexdigest()) == self.LAW_PINS[name]

    def test_remainder_resumes_the_walk(self, monkeypatch):
        # with EPSILON at 1e-3 about 20 of 20,000 runs land on the remainder of each walk; they resume it
        # from its saved state, and the summary keeps the exact law and repeats for its seed
        walks = []

        def counted(*args):
            walks.append(signature.bind(*args).arguments["m"])  # the report the walk starts from
            return walk(*args)

        walk = sprt_engine._walk
        signature = inspect.signature(walk)
        monkeypatch.setattr(sprt_engine, "EPSILON", 1e-3)
        monkeypatch.setattr(sprt_engine, "_walk", counted)
        _detection_law.cache_clear()
        try:
            plan, det, trials = AttackPlan("random", 0.3, 10**4), DetectorProfile(0.5, 0.01), 20000
            summary = simulate_detection(plan, det, RISK, 10**4, trials, seed=19)
            first = list(walks)
            assert simulate_detection(plan, det, RISK, 10**4, trials, seed=19) == summary
        finally:
            _detection_law.cache_clear()
        # the law's walk from report 0, then one resumed walk per remainder that runs landed on, each deeper
        assert len(first) >= 2 and first[0] == 0 and first == sorted(set(first)) and walks == first + first[1:]
        exact = oracle_outcome(plan, det, RISK, 10**4, "h1")
        p = exact.attack
        assert abs(summary.attack_frequency - p) <= 3 * math.sqrt(p * (1 - p) / trials)
        spread = math.sqrt((exact.second_moment - exact.mean**2) / trials)
        assert abs(summary.mean_stop_index - exact.mean) <= 3 * spread

    @pytest.mark.parametrize("p", [1e-18, 1e-300, 1e-310, 5e-324])
    def test_vanishing_success_probability(self, p):
        # the ones carry a mass of p or less, down to subnormal, and raise no warning (warnings are errors
        # here); no run sees a one-report, so each takes the all-zeros path. At a subnormal p (1e-310,
        # 5e-324) p_d / p_f overflows, so z1 is taken as a difference of logs
        for plan, det, truth in (
            (AttackPlan("random", 0.3, 100), DetectorProfile(0.5, p), "h0"),  # zeros drift down to log B
            (AttackPlan("random", 2 * p, 100), DetectorProfile(0.5, 0.01), "h1"),  # zeros drift up to log A
        ):
            for m_c in (5, 10**12):
                trace = SprtTrace()
                while trace.state == "continue" and len(trace.reports) < m_c:
                    step(trace, 0, plan, det, RISK)
                forced = trace.state == "continue"
                verdict = truncate(trace, m_c) if forced else trace.state
                counts = [0, 0, 0, 0]
                counts[2 * forced + (verdict == "accept_null")] = 3000
                expected = DetectionSummary(3000, trace.stop_index, trace.stop_index, *counts)
                assert simulate_detection(plan, det, RISK, m_c, 3000, seed=1, truth=truth) == expected


    def test_count_llr_called_only_by_the_rule_and_the_walk(self):
        # one count-form rule: `decision_by_counts` states it and `_walk` reads it at the band's ends;
        # any other reader of `_count_llr` would be a third copy to keep in step
        readers = set()
        for path in sorted(Path(seqdef.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if (isinstance(node, ast.Name) and node.id == "_count_llr") or (
                        isinstance(node, ast.alias) and node.name == "_count_llr"
                    ):
                        readers.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
        assert readers == {"sprt_engine.py:decision_by_counts", "sprt_engine.py:_walk"}


class TestExpectedReports:
    def test_reference_evaluation(self):
        det = DetectorProfile(0.9, 0.001)
        numerator = RISK.theta * RISK.log_b + (1 - RISK.theta) * RISK.log_a
        assert numerator == pytest.approx(4.5927, abs=1e-4)
        assert expected_reports_random(0.5, det, RISK) == pytest.approx(1.897, abs=1e-3)
        assert expected_reports_intentional(det, RISK) == pytest.approx(0.7795, abs=1e-4)

    def test_intentional_equals_random_at_full_fraction(self):
        det = DetectorProfile(0.9, 0.001)
        assert expected_reports_intentional(det, RISK) == expected_reports_random(1.0, det, RISK)

    def test_random_decreasing_in_q(self):
        det = DetectorProfile(0.5, 0.01)
        qs = np.linspace(0.03, 1.0, 40)  # beyond p_f / p_d = 0.02
        m1 = [expected_reports_random(q, det, RISK) for q in qs]
        assert all(a > b for a, b in zip(m1, m1[1:]))

    def test_random_decreasing_in_pd(self):
        m1 = [expected_reports_random(0.4, DetectorProfile(pd, 0.001), RISK) for pd in np.linspace(0.1, 0.95, 20)]
        assert all(a > b for a, b in zip(m1, m1[1:]))

    def test_intentional_increasing_in_pf(self):
        m1 = [expected_reports_intentional(DetectorProfile(0.6, pf), RISK) for pf in np.linspace(0.001, 0.3, 20)]
        assert all(a < b for a, b in zip(m1, m1[1:]))

    def test_degenerate_rejected(self):
        with pytest.raises(NumericalError):
            expected_reports_random(0.5, DetectorProfile(0.5, 0.25), RISK)

    def test_underflowing_attack_probability_rejected(self):
        # q * p_d rounds to 0 at the smallest subnormal q, and log(0) is a bare math domain error
        det = DetectorProfile(0.4, 0.01)
        with pytest.raises(NumericalError, match="underflows"):
            report_segments(AttackPlan("random", 5e-324, 100), det)
        with pytest.raises(NumericalError, match="underflows"):
            expected_reports_random(5e-324, det, RISK)


class TestNormalCdf:
    def test_half_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in np.linspace(-8, 8, 81):
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-14

    def test_against_scipy(self):
        for x in np.linspace(-6, 6, 37):
            assert normal_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), abs=1e-12)


class TestWorstCaseBounds:
    def test_large_budget_accepts_surely(self):
        det = DetectorProfile(0.5, 0.001)
        b = worst_case_bounds(0.3, det, RISK, 10**4)
        assert b.accept_lower_bound > 1 - 1e-9

    def test_error_caps_dominate_targets_on_grid(self):
        for q in (0.1, 0.3, 0.6):
            for pd in (0.3, 0.6, 0.9):
                for mc in (5, 50, 500):
                    b = worst_case_bounds(q, DetectorProfile(pd, 0.01), RISK, mc)
                    assert b.sigma_z_h0 > 0 and b.sigma_z_h1 > 0
                    assert normal_cdf(b.y3) >= normal_cdf(b.y4)
                    assert normal_cdf(b.y5) >= normal_cdf(b.y6)
                    assert b.delta_at_mc >= RISK.delta
                    assert b.theta_at_mc >= RISK.theta
                    for p in (b.accept_lower_bound, b.reject_lower_bound, b.delta_at_mc, b.theta_at_mc):
                        assert 0.0 <= p <= 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(NumericalError):
            worst_case_bounds(0.001, DetectorProfile(0.5, 0.01), RISK, 10)

    def test_termination_frequency_vs_bound(self):
        # Monte-Carlo termination frequency dominates the normal lower bound
        det = DetectorProfile(0.5, 0.001)
        b = worst_case_bounds(0.3, det, RISK, 100)
        sim = simulate_detection(AttackPlan("random", 0.3, 10**4), det, RISK, 100, 10**4, seed=9, truth="h1")
        se = math.sqrt(b.accept_lower_bound * (1 - b.accept_lower_bound) / 10**4)
        assert sim.attack_frequency >= b.accept_lower_bound - 3 * se


class TestSimulateDetection:
    def test_mean_stop_matches_exact_oracle(self):
        det = DetectorProfile(0.5, 0.01)
        plan = AttackPlan("random", 0.3, 10**4)
        sim = simulate_detection(plan, det, RISK, 10**4, 10**4, seed=42, truth="h1")
        oracle = exact_truncated_test(0.15, 0.15, 0.01, RISK, m_c=20000).mean
        assert sim.mean_stop_index == pytest.approx(oracle, rel=0.05)

    def test_h0_false_alarm_within_wald_bound(self):
        det = DetectorProfile(0.5, 0.01)
        plan = AttackPlan("random", 0.3, 10**4)
        sim = simulate_detection(plan, det, RISK, 10**4, 10**4, seed=43, truth="h0")
        bound = RISK.delta / (1 - RISK.theta)
        se = math.sqrt(bound * (1 - bound) / 10**4)
        assert sim.attack_frequency <= bound + 3 * se

    def test_small_m_regime_vs_exact_oracle(self):
        # strong detectors decide within a couple of reports; the Wald
        # approximation is loose here, so the exact oracle is the anchor
        det = DetectorProfile(0.9, 0.001)
        plan = AttackPlan("random", 0.5, 10**4)
        sim = simulate_detection(plan, det, RISK, 10**4, 10**4, seed=3, truth="h1")
        exact = exact_truncated_test(0.45, 0.45, 0.001, RISK, m_c=20000)
        assert sim.mean_stop_index == pytest.approx(exact.mean, rel=0.05)

    def test_intentional_never_stops_after_target(self):
        det = DetectorProfile(0.5, 1e-6)
        plan = AttackPlan("intentional", 0.05, 1000)  # M = 50
        sim = simulate_detection(plan, det, RISK, 200, 1000, seed=5, truth="h1")
        assert sim.max_stop_index <= plan.m
        assert sim.truncated_frequency == 0.0

    def test_intentional_llr_frozen_beyond_target(self):
        # low-information detector so no trace decides within 2M reports
        det = DetectorProfile(0.6, 0.4)
        risk = RiskBudget(1e-6, 1e-6)
        plan = AttackPlan("intentional", 0.02, 1000)  # M = 20
        rng = np.random.default_rng(31)
        for _ in range(100):
            trace = SprtTrace()
            for i in range(1, plan.m + 1):
                step(trace, int(rng.random() < 0.6), plan, det, risk)
            frozen = trace.cumulative_llr
            for i in range(plan.m + 1, 2 * plan.m + 1):
                step(trace, int(rng.random() < 0.4), plan, det, risk)
                assert trace.cumulative_llr == frozen  # bitwise

    def test_determinism(self):
        det = DetectorProfile(0.5, 0.01)
        plan = AttackPlan("random", 0.3, 10**4)
        a = simulate_detection(plan, det, RISK, 500, 2000, seed=7, truth="h1")
        b = simulate_detection(plan, det, RISK, 500, 2000, seed=7, truth="h1")
        assert a == b
        c = simulate_detection(plan, det, RISK, 500, 2000, seed=8, truth="h1")
        assert c != a

    def test_truncation_applies_sign_rule(self):
        # weak signal and tiny budget force truncation decisions
        det = DetectorProfile(0.3, 0.2)
        plan = AttackPlan("random", 0.9, 100)
        sim = simulate_detection(plan, det, RISK, 3, 2000, seed=1, truth="h1")
        assert sim.truncated_attack + sim.truncated_null > 0
        assert sim.trials == sim.threshold_attack + sim.threshold_null + sim.truncated_attack + sim.truncated_null

    # Exact summaries: a change to the random stream, the order of the atoms in its draw,
    # the lattice walk or the count-form classification fails here.
    # (plan, detector, m_c, trials, seed, truth) -> (mean stop, max stop, ta, tn, ua, un)
    PINNED = {
        # c06's test: the walk stops below EPSILON, long before m_c
        "long_h1": (
            (AttackPlan("random", 0.3, 10**4), (0.5, 0.01), 10**4, 17_192, 11, "h1"),
            (20.206549557933922, 166, 17176, 16, 0, 0),
        ),
        # weak reports: runs take many one-reports to decide, and some reach truncation at m_c
        "many_rounds_h1": (
            (AttackPlan("random", 0.05, 10**4), (0.5, 0.01), 1500, 3000, 12, "h1"),
            (595.379, 1500, 2842, 3, 117, 38),
        ),
        "many_rounds_h0": (
            (AttackPlan("random", 0.05, 10**4), (0.5, 0.01), 1500, 3000, 13, "h0"),
            (1056.068, 1500, 19, 2419, 26, 536),
        ),
        # M = 37 < m_c = 60: reports past M are inert, and undecided runs are truncated at m_c
        "targeted_h1": (
            (AttackPlan("intentional", 0.0037, 10**4), (0.3, 0.1), 60, 5000, 14, "h1"),
            (33.2016, 60, 3390, 0, 1351, 259),
        ),
        "targeted_h0": (
            (AttackPlan("intentional", 0.0037, 10**4), (0.3, 0.1), 60, 5000, 15, "h0"),
            (55.7478, 60, 21, 711, 319, 3949),
        ),
        "truncated_m3": (
            (AttackPlan("random", 0.9, 100), (0.3, 0.2), 3, 2000, 1, "h1"),
            (3.0, 3, 0, 0, 1233, 767),
        ),
        # the benchmark's short_h1 regime: the walk reaches m_c, where the rest is truncated
        "short_h1": (
            (AttackPlan("random", 0.3, 10**4), (0.5, 0.01), 50, 300_000, 7, "h1"),
            (19.21419, 50, 281429, 166, 14464, 3941),
        ),
    }

    @staticmethod
    def _pinned(name):
        (plan, det, m_c, trials, seed, truth), numbers = TestSimulateDetection.PINNED[name]
        summary = simulate_detection(plan, DetectorProfile(*det), RISK, m_c, trials, seed, truth=truth)
        return summary, DetectionSummary(trials, *numbers)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_summary_pinned(self, name):
        summary, expected = self._pinned(name)
        assert summary == expected

    # every pinned case, a test whose zeros drift up to log A (q * p_d < p_f) under
    # H1 and H0, and a targeted budget that ends inside the attacked set (M = 100)
    ORACLE_GRID = [case for case, _ in PINNED.values()] + [
        (AttackPlan("random", 0.01, 10**4), (0.5, 0.02), 400, 20000, 16, "h1"),
        (AttackPlan("random", 0.01, 10**4), (0.5, 0.02), 400, 20000, 17, "h0"),
        (AttackPlan("intentional", 0.01, 10**4), (0.3, 0.1), 40, 20000, 18, "h0"),
    ]

    def test_summaries_match_exact_oracle(self):
        # P(attack), P(truncated) and the mean stop within 4 SE of the exact truncated
        # test; 30 two-sided comparisons, so a correct simulator fails with p < 0.002.
        # The 1e-9 absorbs float noise where every run stops at m_c (zero variance).
        for plan, det, m_c, trials, seed, truth in self.ORACLE_GRID:
            detector = DetectorProfile(*det)
            sim = simulate_detection(plan, detector, RISK, m_c, trials, seed, truth=truth)
            _, stop, p1, _, _ = report_segments(plan, detector)[0]
            exact = exact_truncated_test(p1 if truth == "h1" else detector.p_f, p1, detector.p_f, RISK, m_c, stop)
            for got, p in ((sim.attack_frequency, exact.attack), (sim.truncated_frequency, exact.truncated)):
                assert abs(got - p) <= 4 * math.sqrt(p * (1 - p) / trials), (plan, truth, got, p)
            variance = max(exact.second_moment - exact.mean**2, 0.0)
            assert abs(sim.mean_stop_index - exact.mean) <= 4 * math.sqrt(variance / trials) + 1e-9, (plan, truth)

    def test_budget_far_past_every_decision_changes_nothing(self):
        # the long_h1 walk stops below EPSILON within 700 reports, so a budget of 10**12 gives the
        # same law and summary; the walk's length is set by its undecided mass, never by m_c
        (plan, det, _, trials, seed, truth), _ = self.PINNED["long_h1"]
        start = time.perf_counter()
        huge = simulate_detection(plan, DetectorProfile(*det), RISK, 10**12, trials, seed, truth=truth)
        assert time.perf_counter() - start < 1.0
        assert huge == self._pinned("long_h1")[0]

    @pytest.mark.parametrize("name", ["long_h1", "targeted_h0", "truncated_m3"])
    def test_stream_contract(self, name):
        # one multinomial from rng_stream(seed, 0x5D) over the atoms in the documented order: threshold attack
        # at stops first..first+k-1, threshold null at the same stops, truncated attack and null, remainder
        (plan, det, m_c, trials, seed, truth), _ = self.PINNED[name]
        detector = DetectorProfile(*det)
        _, stop, p1, z1, z0 = report_segments(plan, detector)[0]
        success = p1 if truth == "h1" else detector.p_f
        first, k, p, _ = _detection_law(z1, z0, RISK.log_a, RISK.log_b, min(stop, m_c), success)
        counts = rng_stream(seed, 0x5D).multinomial(trials, p).tolist()
        assert sum(counts[2 * k + 2 :]) == 0  # no run on the remainder, so one draw decides every run
        stops = [first + i for i in range(k) for _ in range(counts[i] + counts[k + i])]
        stops += [m_c] * (counts[2 * k] + counts[2 * k + 1])
        expected = DetectionSummary(
            trials, sum(stops) / trials, max(stops), sum(counts[:k]), sum(counts[k : 2 * k]), *counts[2 * k : 2 * k + 2]
        )
        assert simulate_detection(plan, detector, RISK, m_c, trials, seed, truth=truth) == expected

    @pytest.mark.parametrize("name, trials", [("long_h1", 2**62), ("short_h1", 2**63 - 1)])
    def test_mean_stop_exact_at_the_most_trials(self, name, trials):
        # the int64 dot of stop counts and stop indices wrapped without a warning: the mean stop read
        # 0.264 for long_h1 and 3.26 for short_h1, against an exact 20.264 and 19.262
        (plan, det, m_c, _, seed, truth), _ = self.PINNED[name]
        detector = DetectorProfile(*det)
        summary = simulate_detection(plan, detector, RISK, m_c, trials, seed, truth=truth)
        counts = summary.threshold_attack, summary.threshold_null, summary.truncated_attack, summary.truncated_null
        assert sum(counts) == trials
        exact = oracle_outcome(plan, detector, RISK, m_c, truth)
        spread = math.sqrt((exact.second_moment - exact.mean**2) / trials)
        assert abs(summary.mean_stop_index - exact.mean) <= 3 * spread + 1e-9

    def test_validation(self):
        det = DetectorProfile(0.5, 0.01)
        plan = AttackPlan("random", 0.3, 100)
        with pytest.raises(ConfigError):
            simulate_detection(plan, det, RISK, 0, 10, seed=0)
        with pytest.raises(ConfigError):
            simulate_detection(plan, det, RISK, 10, 0, seed=0)
        with pytest.raises(ConfigError):
            simulate_detection(plan, det, RISK, 10, 10, seed=0, truth="maybe")
        # a non-whole budget was accepted and came back as max_stop_index; non-whole trials
        # ended in a bare TypeError
        with pytest.raises(ConfigError, match="m_c"):
            simulate_detection(plan, det, RISK, 2.5, 10, seed=0)
        with pytest.raises(ConfigError, match="trials"):
            simulate_detection(plan, det, RISK, 10, 2.5, seed=0)
        # numpy's multinomial takes its count as a C long; one more run was a bare OverflowError
        with pytest.raises(ConfigError, match="trials"):
            simulate_detection(plan, det, RISK, 10, 2**63, seed=0)
