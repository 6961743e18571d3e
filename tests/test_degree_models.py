"""Degree-model moments, thinning, discretization, and sampling."""

import math
import signal

import numpy as np
import pytest

from seqdef import ConfigError, DegreeModel, generate, giant_component_exists, moments, sample_degree_sequence, thin
from seqdef.degree_models import discrete_pmf


def numeric_power_law_moment(alpha, k_min, k_max, r, points=200001):
    """Quadrature oracle: integrate k^r * c1 * k^-alpha on a log grid."""
    u = np.linspace(math.log(k_min), math.log(k_max), points)
    k = np.exp(u)
    norm = np.trapezoid(k ** (-alpha) * k, u)  # du = dk/k
    return np.trapezoid(k ** (r - alpha) * k, u) / norm


class TestMoments:
    def test_er_poisson_identities(self):
        m = moments(DegreeModel.er(4))
        assert m.mean_degree == pytest.approx(4.0, abs=1e-12)
        assert m.second_moment == pytest.approx(20.0, abs=1e-12)
        assert m.tau == pytest.approx(5.0, abs=1e-12)

    def test_power_law_tau_vs_quadrature(self):
        model = DegreeModel.power_law(2.5, k_min=1, k_max=1000)
        m = moments(model)
        oracle_tau = numeric_power_law_moment(2.5, 1, 1000, 2) / numeric_power_law_moment(2.5, 1, 1000, 1)
        assert m.tau == pytest.approx(31.623, abs=1e-3)
        assert m.tau == pytest.approx(oracle_tau, rel=1e-6)

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 2.0000001, 2.9999999])
    def test_power_law_log_branches_match_quadrature(self, alpha):
        m = moments(DegreeModel.power_law(alpha, k_min=2, k_max=500))
        assert m.mean_degree == pytest.approx(numeric_power_law_moment(alpha, 2, 500, 1), rel=1e-6)
        assert m.second_moment == pytest.approx(numeric_power_law_moment(alpha, 2, 500, 2), rel=1e-6)

    def test_exponential_closed_forms(self):
        m = moments(DegreeModel.exponential(1.63, k_min=1))
        assert m.mean_degree == pytest.approx(2.63, abs=1e-12)
        assert m.second_moment == pytest.approx(9.5738, abs=1e-4)
        assert m.tau == pytest.approx(3.6402, abs=1e-4)

    def test_empirical_sums_histogram(self):
        m = moments(DegreeModel.empirical({1: 0.5, 3: 0.5}))
        assert m.mean_degree == pytest.approx(2.0)
        assert m.second_moment == pytest.approx(5.0)

    def test_moment_inequalities(self):
        for model in (DegreeModel.er(3.7), DegreeModel.power_law(2.3), DegreeModel.exponential(2.2)):
            m = moments(model)
            assert m.mean_degree > 0
            assert m.second_moment >= m.mean_degree
            assert m.tau >= 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: DegreeModel.er(0.0),
            lambda: DegreeModel.power_law(1.0),
            lambda: DegreeModel.exponential(0.0),
            lambda: DegreeModel.er(4, k_min=0),
            lambda: DegreeModel.er(4, k_min=5, k_max=4),
            lambda: DegreeModel.er(4, n=1),
            lambda: DegreeModel.power_law(2.5, k_min=7, k_max=7),
            lambda: DegreeModel.empirical({}),
            lambda: DegreeModel.empirical({1: 0.5, 2: 0.6}),
            lambda: DegreeModel(kind="empirical", histogram={1: 0.5, 9: 0.5}, k_min=1, k_max=5),
            # NaN and ±inf passed the `<=` checks; qc_random then read them as subcritical (qc=0.0)
            lambda: DegreeModel.er(float("nan")),
            lambda: DegreeModel.er(float("inf")),
            lambda: DegreeModel.power_law(float("nan")),
            lambda: DegreeModel.power_law(float("inf")),
            lambda: DegreeModel.exponential(float("nan")),
            lambda: DegreeModel.exponential(float("-inf")),
            lambda: DegreeModel.empirical({1: float("nan"), 2: 1.0}),
            # a fractional degree was truncated to {2: .5, 3: .5}; masses of ±inf or near the float
            # limit ended in a bare ValueError or OverflowError from fsum
            lambda: DegreeModel.empirical({2.5: 0.5, 3: 0.5}),
            lambda: DegreeModel.empirical({1: float("inf"), 2: float("-inf")}),
            lambda: DegreeModel.empirical({1: 1e308, 2: 1e308}),
            # built directly, a fractional degree fed `moments` 2.5 and `discrete_pmf` 2
            lambda: DegreeModel(kind="empirical", histogram={2.5: 0.5, 3: 0.5}, k_min=1, k_max=3),
        ],
    )
    def test_invalid_models_rejected(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_empirical_models_hash_by_value(self):
        a = DegreeModel.empirical({1: 0.25, 2: 0.75})
        b = DegreeModel.empirical({2: 0.75, 1: 0.25})
        other = DegreeModel.empirical({1: 0.5, 2: 0.5})
        assert a == b and a != other
        assert hash(a) == hash(b)
        assert {a, b, other} == {a, other}


class TestGiantComponent:
    def test_er_examples(self):
        assert giant_component_exists(DegreeModel.er(4)) is True
        # tau = 2 exactly fails the strict inequality
        assert giant_component_exists(DegreeModel.er(1)) is False

    def test_exponential_example(self):
        assert giant_component_exists(DegreeModel.exponential(1.63)) is True


class TestThin:
    def test_no_removal_is_identity(self):
        model = DegreeModel.power_law(2.5)
        assert thin(model, 0.0) == moments(model)

    def test_full_removal_empties_network(self):
        summary = thin(DegreeModel.er(4), 1.0)
        assert summary.mean_degree == 0.0
        assert summary.second_moment == 0.0
        assert summary.tau == 0.0

    def test_er_critical_point(self):
        # ER k_hat=4 thinned at q=0.75 sits exactly on the tau=2 boundary
        assert thin(DegreeModel.er(4), 0.75).tau == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model",
        [DegreeModel.er(4), DegreeModel.power_law(2.5), DegreeModel.exponential(1.63)],
    )
    def test_thinning_identities(self, model):
        m0 = moments(model)
        for q in (0.1, 0.35, 0.6, 0.9):
            mt = thin(model, q)
            assert mt.mean_degree == pytest.approx((1 - q) * m0.mean_degree, rel=1e-12)
            expected_second = (1 - q) ** 2 * m0.second_moment + q * (1 - q) * m0.mean_degree
            assert mt.second_moment == pytest.approx(expected_second, rel=1e-12)

    @pytest.mark.parametrize(
        "model",
        [DegreeModel.er(4), DegreeModel.power_law(2.5), DegreeModel.exponential(1.63)],
    )
    def test_tau_strictly_decreasing_in_q(self, model):
        qs = np.linspace(0.01, 0.99, 50)
        taus = [thin(model, q).tau for q in qs]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ConfigError):
            thin(DegreeModel.er(4), 1.5)


class TestDiscretization:
    def test_masses_normalized(self):
        model = DegreeModel.empirical({2: 0.5, 4: 0.25, 7: 0.25})
        ks, ps = discrete_pmf(model)
        assert ks[0] == model.k_min and ks[-1] == model.k_max
        assert abs(math.fsum(ps) - 1.0) < 1e-9
        assert min(ps) >= 0


class TestSampling:
    def test_er_sample_mean(self):
        seq = sample_degree_sequence(DegreeModel.er(4), 10**5, seed=1)
        assert abs(seq.mean() - 4.0) < 0.05

    def test_power_law_ccdf_slope(self):
        # log-log regression of the empirical CCDF recovers 1 - alpha
        seq = sample_degree_sequence(DegreeModel.power_law(2.5), 10**5, seed=3)
        ks = np.arange(1, 201)
        ccdf = np.array([(seq > k).mean() for k in ks])
        mask = ccdf > 30 / len(seq)
        slope = np.polyfit(np.log(ks[mask]), np.log(ccdf[mask]), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.1)

    def test_two_degrees_even_sum(self):
        seq = sample_degree_sequence(DegreeModel.power_law(2.5), 2, seed=8)
        assert len(seq) == 2
        assert seq.sum() % 2 == 0

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_even_sum_and_determinism(self, seed):
        model = DegreeModel.exponential(1.63)
        a = sample_degree_sequence(model, 5001, seed=seed)
        b = sample_degree_sequence(model, 5001, seed=seed)
        assert a.sum() % 2 == 0
        assert np.array_equal(a, b)

    def test_seed_changes_sample(self):
        model = DegreeModel.er(4)
        a = sample_degree_sequence(model, 1000, seed=1)
        b = sample_degree_sequence(model, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_support_respected_for_bounded_kinds(self):
        for model in (DegreeModel.power_law(2.5, k_min=2, k_max=50), DegreeModel.exponential(1.5, k_min=3, k_max=60)):
            seq = sample_degree_sequence(model, 20000, seed=4)
            assert seq.min() >= model.k_min
            assert seq.max() <= model.k_max

    @pytest.mark.parametrize(
        "model",
        [DegreeModel.er(4), DegreeModel.power_law(2.5), DegreeModel.exponential(1.63)],
    )
    def test_monte_carlo_moments_match_analytic(self, model):
        # sample moments agree with the analytic ones within 3 standard errors
        seq = sample_degree_sequence(model, 10**6, seed=21).astype(float)
        m = moments(model)
        n = len(seq)
        se_mean = seq.std() / math.sqrt(n)
        assert abs(seq.mean() - m.mean_degree) < 3 * se_mean
        sq = seq**2
        se_second = sq.std() / math.sqrt(n)
        assert abs(sq.mean() - m.second_moment) < 3 * se_second

    @pytest.mark.parametrize(
        "model, mean",
        [
            # beta <= 1: inverse-CDF draw on [1, 30], whose mean a + beta - L/(e^{L/beta} - 1) the rounding keeps
            (DegreeModel.exponential(0.8, k_max=30), 1.0 + 0.8 - 29.0 / math.expm1(29.0 / 0.8)),
            # rng.choice over discrete_pmf's range and masses; the pmf mean
            (DegreeModel.empirical({2: 0.5, 4: 0.25, 7: 0.25}), 0.5 * 2 + 0.25 * 4 + 0.25 * 7),
            # Poisson(8) draws above k_max = 10 are redrawn: the mean of Poisson(8) given K <= 10
            (
                DegreeModel.er(8, k_max=10),
                sum(k * 8**k / math.factorial(k) for k in range(11)) / sum(8**k / math.factorial(k) for k in range(11)),
            ),
        ],
        ids=["exponential-inverse-cdf", "empirical-choice", "er-redraw"],
    )
    def test_sampler_branch_support_seed_and_mean(self, model, mean):
        seq = sample_degree_sequence(model, 10**5, seed=5)
        least = 0 if model.kind == "er" else model.k_min  # ER keeps its isolated nodes
        assert least <= seq.min() and seq.max() <= model.k_max
        assert np.array_equal(seq, sample_degree_sequence(model, 10**5, seed=5))
        assert abs(seq.mean() - mean) < 4 * seq.std() / math.sqrt(len(seq))

    @pytest.mark.parametrize(
        "model, mean",
        [(DegreeModel.er(50, k_max=10, n=100), "50.0"), (DegreeModel.exponential(1e6, k_max=2, n=100), "1000001.0")],
        ids=["er", "exponential-negative-binomial"],
    )
    def test_unreachable_k_max_raises_instead_of_hanging(self, model, mean):
        # one redraw of ER(50) lands at or below 10 with probability 6.5e-12, and of this negative binomial
        # at or below 2 with about 2e-6: an unbounded redraw loop never returned. The alarm fails a hang
        def expire(signum, frame):
            raise TimeoutError("the sampler hung")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with pytest.raises(ConfigError, match=f"k_max = {model.k_max} in 1000 rounds .* mean degree {mean}"):
                sample_degree_sequence(model, 100, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_empirical_draws_only_histogram_degrees(self):
        seq = sample_degree_sequence(DegreeModel.empirical({2: 0.5, 4: 0.25, 7: 0.25}), 10**4, seed=6)
        assert set(np.unique(seq).tolist()) == {2, 4, 7}

    def test_size_below_two_rejected(self):
        with pytest.raises(ConfigError):
            sample_degree_sequence(DegreeModel.er(4), 1, seed=0)
        # a non-whole node count; the power-law path raised a bare TypeError from the sampler
        for model in (DegreeModel.power_law(2.5, k_max=10), DegreeModel.er(4)):
            with pytest.raises(ConfigError, match="node count"):
                generate(model, 10.5, seed=0)
        # link probability k_hat / n above 1; was a bare ValueError from numpy's geometric sampler
        with pytest.raises(ConfigError, match="link probability"):
            generate(DegreeModel.er(5, n=4), 4, 0)
