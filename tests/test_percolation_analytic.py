"""Critical-fraction formulas and root solutions for both attack schemes."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from seqdef import (
    ConfigError,
    DegreeModel,
    NoRootError,
    SubcriticalError,
    cutoff_degree,
    moments,
    qc_intentional,
    qc_random,
    thin,
)
from seqdef._solve import bisect_root
from seqdef.percolation_analytic import _poisson_tails

GOLDEN_CUTOFF = (3 + math.sqrt(5)) ** 2 / 4  # root of the alpha=2.5 quadratic


class TestRandomAttack:
    @pytest.mark.parametrize("k_hat", [2.0, 4.0, 8.0])
    def test_er_closed_form(self, k_hat):
        assert qc_random(DegreeModel.er(k_hat)).qc == pytest.approx(1 - 1 / k_hat, abs=1e-12)

    def test_power_law_reference_values(self):
        assert qc_random(DegreeModel.power_law(2.1)).qc == pytest.approx(0.9909, abs=1e-3)
        assert qc_random(DegreeModel.power_law(2.5)).qc == pytest.approx(0.9673, abs=1e-3)

    def test_exponential_reference_value(self):
        assert qc_random(DegreeModel.exponential(1.63)).qc == pytest.approx(0.6212, abs=1e-4)

    def test_report_fields(self):
        rep = qc_random(DegreeModel.er(4))
        assert rep.cutoff_degree is None
        assert rep.link_deletion_prob is None

    def test_subcritical_rejected(self):
        with pytest.raises(SubcriticalError, match="disconnected in percolation sense"):
            qc_random(DegreeModel.er(1))

    def test_thinning_back_substitution(self):
        # removing exactly qc brings the Molloy-Reed ratio to the boundary
        for model in (DegreeModel.er(4), DegreeModel.power_law(2.5), DegreeModel.exponential(1.63)):
            qc = qc_random(model).qc
            assert thin(model, qc).tau == pytest.approx(2.0, abs=1e-8)

    def test_increasing_in_mean_degree(self):
        er = [qc_random(DegreeModel.er(k)).qc for k in np.linspace(1.5, 9, 12)]
        assert all(a < b for a, b in zip(er, er[1:]))
        # alpha down means mean degree up for power-law networks
        pl = [qc_random(DegreeModel.power_law(a)).qc for a in np.linspace(3.4, 2.1, 12)]
        assert all(a < b for a, b in zip(pl, pl[1:]))
        ex = [qc_random(DegreeModel.exponential(b)).qc for b in np.linspace(0.9, 4, 12)]
        assert all(a < b for a, b in zip(ex, ex[1:]))

    def test_empirical_matches_thin_scan(self):
        # brute-force grid scan of the thinned criterion as oracle
        hist = {1: 0.3, 2: 0.25, 3: 0.2, 5: 0.15, 8: 0.07, 12: 0.03}
        model = DegreeModel.empirical(hist)
        qs = np.arange(0.0, 1.0, 1e-4)
        taus = np.array([thin(model, q).tau for q in qs])
        scan = qs[np.argmax(taus <= 2.0)]
        assert qc_random(model).qc == pytest.approx(scan, abs=1e-4)


class TestCutoffDegree:
    def test_power_law_inverts_tail(self):
        # the tail of the density truncated to [k_min, k_max], which `moments` integrates; with k_max far
        # out it is the untruncated tail k**-1.5, whose inverse at GOLDEN_CUTOFF**-1.5 is GOLDEN_CUTOFF
        q = GOLDEN_CUTOFF ** (-1.5)
        far = DegreeModel.power_law(2.5, k_max=10**9, n=10**12)
        assert cutoff_degree(far, q) == pytest.approx(GOLDEN_CUTOFF, abs=1e-3)
        model = DegreeModel.power_law(2.5, n=10**12)
        cutoff, top = cutoff_degree(model, q), model.k_max**-1.5
        assert 1 < cutoff < GOLDEN_CUTOFF
        assert (cutoff**-1.5 - top) / (1 - top) == pytest.approx(q + 1e-12, rel=1e-12)
        assert cutoff_degree(DegreeModel.power_law(2.1, n=10**4), 1e-6) == pytest.approx(846.35, abs=0.01)  # not 4289.8

    def test_exponential_log_inverse(self):
        model = DegreeModel.exponential(1.63, n=10**12)
        assert cutoff_degree(model, math.exp(-1)) == pytest.approx(1 + 1.63, abs=1e-6)

    @pytest.mark.parametrize(
        "model",
        [
            DegreeModel.power_law(2.5, n=10**6),
            DegreeModel.exponential(1.63, n=10**6),
            DegreeModel.er(4, n=10**6),
        ],
    )
    def test_monotone_decreasing_in_q(self, model):
        qs = np.linspace(0.01, 0.9, 25)
        cutoffs = [cutoff_degree(model, q) for q in qs]
        assert all(a >= b for a, b in zip(cutoffs, cutoffs[1:]))

    def test_everything_removed_returns_k_min(self):
        model = DegreeModel.power_law(2.5, k_min=3, n=100)
        assert cutoff_degree(model, 0.999999) == 3.0

    @pytest.mark.parametrize("k_hat", [4.0, 900.0])  # exp(-900) is 0: 900 raised NoRootError
    def test_er_discrete_tail_brackets_target(self, k_hat):
        model = DegreeModel.er(k_hat, n=10**6)
        q = 0.3
        cut = cutoff_degree(model, q)
        lo, hi = math.floor(cut), math.ceil(cut)
        sf = scipy.stats.poisson.sf  # independent Poisson tail oracle
        assert sf(lo - 1, k_hat) - 1e-6 >= q >= sf(hi - 1, k_hat) - 1e-6

    def test_empirical_interpolates_across_support_gaps(self):
        # P(K >= k) - 1/n is 0.499 at k = 4 and 0.249 at k = 5: the step that crosses 0.3 lies in the
        # gap between the support points 4 and 7, which alone would interpolate to 4 + 0.796 * 3 = 6.388
        model = DegreeModel.empirical({2: 0.5, 4: 0.25, 7: 0.25}, n=1000)
        assert cutoff_degree(model, 0.3) == pytest.approx(4.796, abs=1e-12)
        assert cutoff_degree(model, 0.999) == model.k_min  # q + 1/n reaches 1: every node is removed

    def test_q_outside_open_interval_rejected(self):
        with pytest.raises(ConfigError):
            cutoff_degree(DegreeModel.er(4), 0.0)


class TestPoissonTails:
    @pytest.mark.parametrize("k_hat", [4.0, 50.0, 700.0, 740.0, 744.0, 800.0, 1000.0])
    def test_tails_match_scipy(self, k_hat):
        # the recurrence starts where the mass is a normal float; exp(-k_hat) underflows above 708
        limit = int(k_hat + 20.0 * math.sqrt(k_hat) + 200)
        tails = list(itertools.islice(_poisson_tails(k_hat), limit + 1))
        expected = scipy.stats.poisson.sf(np.arange(limit + 1) - 1, k_hat)
        assert np.max(np.abs(np.array(tails) - expected)) <= 1e-12


class TestIntentionalAttack:
    def test_power_law_golden_root(self):
        rep = qc_intentional(DegreeModel.power_law(2.5, n=10**9))
        assert rep.cutoff_degree == pytest.approx(GOLDEN_CUTOFF, abs=1e-6)
        assert rep.qc == pytest.approx(0.0557, abs=1e-3)

    def test_power_law_equation_residual_and_consistency(self):
        model = DegreeModel.power_law(2.5, n=10**9)
        rep = qc_intentional(model)
        x = rep.cutoff_degree / model.k_min
        residual = x ** (2 - 2.5) - model.k_min * ((2 - 2.5) / (3 - 2.5)) * (x ** (3 - 2.5) - 1) - 2
        assert abs(residual) < 1e-10
        assert rep.qc == pytest.approx(x ** (1 - 2.5), abs=1e-10)
        assert rep.link_deletion_prob == pytest.approx(x ** (2 - 2.5), abs=1e-10)

    def test_power_law_documented_small_alpha_value(self):
        # alpha = 2.1 root sits near 0.047 for k_min = 1 in the large-n limit
        rep = qc_intentional(DegreeModel.power_law(2.1, n=10**9))
        assert rep.qc == pytest.approx(0.047, abs=2e-3)

    def test_exponential_equation_residual(self):
        model = DegreeModel.exponential(1.63, n=2783)
        rep = qc_intentional(model)
        m = moments(model)
        u = rep.qc + 1 / model.n
        residual = (1 - math.log(u)) * u + m.mean_degree / (m.second_moment - m.mean_degree) - 1
        assert abs(residual) < 1e-10

    # exp(-k_hat) is subnormal at 744 (qc was 4.3e-6 off) and 0 at 900 (NoRootError)
    @pytest.mark.parametrize("k_hat", [4.0, 744.0, 900.0])
    def test_er_tail_interpolation_against_scipy(self, k_hat):
        model = DegreeModel.er(k_hat)
        rep = qc_intentional(model)
        n = model.n
        sf = scipy.stats.poisson.sf
        target = 1 - 1 / k_hat
        j = math.floor(rep.cutoff_degree)
        # deletion probability brackets the target between adjacent integers
        assert sf(j - 2, k_hat) >= target > sf(j - 1, k_hat)
        t = (sf(j - 2, k_hat) - target) / (sf(j - 2, k_hat) - sf(j - 1, k_hat))
        assert rep.cutoff_degree == pytest.approx(j + t, abs=1e-9)
        q_lo = sf(j - 1, k_hat) - 1 / n
        q_hi = sf(j, k_hat) - 1 / n
        assert rep.qc == pytest.approx((1 - t) * q_lo + t * q_hi, abs=1e-9)
        assert rep.link_deletion_prob == pytest.approx(target, abs=1e-12)

    def test_power_law_cutoff_omits_the_1_over_n_term(self):
        # only the power-law solve leaves 1/n out of qc and the k_max truncation out of its cutoff, so
        # only there does cutoff_degree(model, qc) differ from the report's cutoff; a rule that unifies
        # the two must move these pins on purpose
        model = DegreeModel.power_law(2.5, n=10**4)
        rep = qc_intentional(model)
        assert rep.cutoff_degree == pytest.approx(6.854102, abs=1e-6)
        assert cutoff_degree(model, rep.qc) == pytest.approx(6.843475, abs=1e-6)
        model = DegreeModel.exponential(1.63)
        rep = qc_intentional(model)
        assert rep.cutoff_degree == pytest.approx(3.144712, abs=1e-6)
        assert cutoff_degree(model, rep.qc) == rep.cutoff_degree  # the report's cutoff is this call
        # for ER, cutoff_degree undoes the interpolation that gave qc, so the two agree to rounding only
        for k_hat, cutoff, ulps in ((3.0, 3.598929, 0), (20.0, 14.405228, 1)):
            rep = qc_intentional(DegreeModel.er(k_hat))
            assert rep.cutoff_degree == pytest.approx(cutoff, abs=1e-6)
            assert abs(cutoff_degree(DegreeModel.er(k_hat), rep.qc) - rep.cutoff_degree) == ulps * math.ulp(cutoff)

    def test_intentional_below_random_at_equal_mean_degree(self):
        mean = moments(DegreeModel.power_law(2.5)).mean_degree
        triples = (
            DegreeModel.er(mean),
            DegreeModel.power_law(2.5),
            DegreeModel.exponential(mean - 1.0),
        )
        for model in triples:
            assert moments(model).mean_degree == pytest.approx(mean, rel=1e-9)
            assert qc_intentional(model).qc < qc_random(model).qc

    def test_no_root_reports_bracket(self):
        with pytest.raises(NoRootError, match=r"no sign change on \[1.15292e\+18, 2.30584e\+18\]"):
            bisect_root(lambda x: -1.0, 1.0, 2.0, expand=True, what="a function of one sign")
        # alpha <= 2 leaves the power-law equation negative everywhere, so no cutoff exists
        for alpha in (1.8, 2.0):
            with pytest.raises(ConfigError, match=f"needs alpha > 2, got {alpha}"):
                qc_intentional(DegreeModel.power_law(alpha, n=10**6))

    def test_empirical_rejected(self):
        with pytest.raises(ConfigError):
            qc_intentional(DegreeModel.empirical({3: 1.0}))

    def test_subcritical_rejected(self):
        with pytest.raises(SubcriticalError):
            qc_intentional(DegreeModel.er(0.9))

    def test_cutoff_in_support(self):
        for model in (DegreeModel.er(4), DegreeModel.power_law(2.5), DegreeModel.exponential(1.63)):
            rep = qc_intentional(model)
            assert model.k_min <= rep.cutoff_degree <= model.k_max
            assert 0.0 <= rep.link_deletion_prob <= 1.0
            assert 0.0 <= rep.qc <= 1.0


def _counted(f):
    """`f` and the list of points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestBisectRoot:
    @pytest.mark.parametrize("root", [1.0, 2.0])
    def test_exact_root_at_an_endpoint_is_returned(self, root):
        f, calls = _counted(lambda x: x - root)
        assert bisect_root(f, 1.0, 2.0) == root
        assert calls == [1.0, 2.0]

    @pytest.mark.parametrize(
        "jump, lo, hi, n_calls, found",
        [
            # the jump never gives |f| < 1e-10, so bisection stops once no float lies strictly inside
            # the bracket, at any |mid| (a relative width test could not fire once |mid| >= 0.5)
            (0.3, 0.0, 1.0, 56, "0x1.3333333333332p-2"),
            (1.3, 1.0, 2.0, 54, "0x1.4ccccccccccccp+0"),
            (0.6, 0.0, 1.0, 55, "0x1.3333333333332p-1"),
            # halving [0, 1] towards 1e-300 takes about 1000 steps: all MAX_ITER run and the midpoint falls through
            (1e-300, 0.0, 1.0, 202, "0x1.0000000000000p-201"),
        ],
    )
    def test_jump_stops_at_width_or_max_iter(self, jump, lo, hi, n_calls, found):
        f, calls = _counted(lambda x: -1.0 if x < jump else 1.0)
        assert bisect_root(f, lo, hi).hex() == found
        assert len(calls) == n_calls
