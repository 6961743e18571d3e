"""Sequential detection of network attacks from binary node reports.

A fusion center collects one-bit attack reports in descending degree
order and runs a sequential probability ratio test between "attack"
(H1) and "no attack" (H0). Under H1 a report is Bernoulli(a_i * p_d)
where a_i is the per-node attack probability of the scheme; under H0 it
is Bernoulli(p_f).

`report_segments` describes the H1 stream once, as runs of constant
success probability: one run at q * p_d for a random attack; the
attacked set at p_d, then inert reports (zero LLR) for a targeted one.
The per-report LLR, the count-form decision, the exact law of the test
and the LLR moments (report counts, bounds, KL rate) read them.

The count-form rule is stated in `decision_by_counts`; `_detection_law`
steps the count lattice through its undecided band one report at a time
and gives the exact probability of every (verdict, stop index) atom (Wald
1947). `simulate_detection` draws the atom counts of its runs from them
in one multinomial (Devroye 1986, ch. XI), which has the law of running
the tests one by one.

Since detectors are i.i.d. given a_i, only the a_i sequence matters for
simulation; the descending-degree report order is a labeling convention.
Betweenness-targeted plans reuse the degree-targeted report model (an
attacked subset of the first M reporters).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field

from ._rand import _seed, rng_stream
from ._solve import _count, ceil_count, clamp01
from .errors import ConfigError, NumericalError

RANDOM = "random"
INTENTIONAL = "intentional"
BETWEENNESS = "betweenness"
_SCHEMES = (RANDOM, INTENTIONAL, BETWEENNESS, "degree")  # "degree" names INTENTIONAL

CONTINUE = "continue"
ACCEPT_ATTACK = "accept_attack"
ACCEPT_NULL = "accept_null"

H0 = "h0"
H1 = "h1"

# Undecided mass below which `_walk` stops and keeps the rest as one remainder atom, which a draw
# that lands on it walks on from; changing it changes `simulate_detection` summaries, never their law.
# A walk covers min(m_c, the reports until less than EPSILON is undecided); paper budgets m_c = ceil(n q_c) are finite.
EPSILON = 1e-17


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class DetectorProfile:
    """Per-node detection probability p_d and false-alarm probability p_f."""

    p_d: float
    p_f: float

    def __post_init__(self):
        if not (0.0 < self.p_f < 1.0 and 0.0 < self.p_d < 1.0):
            raise ConfigError("p_d and p_f must lie strictly inside (0, 1)")
        if self.p_d < self.p_f:
            raise ConfigError("detector needs p_d >= p_f")


@dataclass(frozen=True)
class RiskBudget:
    """System-level false-alarm (delta) and miss (theta) targets."""

    delta: float
    theta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0 and 0.0 < self.theta < 1.0):
            raise ConfigError("delta and theta must lie strictly inside (0, 1)")
        if self.delta + self.theta >= 1.0:
            raise ConfigError("delta + theta must be < 1")

    # computed once per instance; not fields, so repr, eq and hash are unchanged
    @functools.cached_property
    def log_a(self) -> float:
        return math.log((1.0 - self.theta) / self.delta)

    @functools.cached_property
    def log_b(self) -> float:
        return math.log(self.theta / (1.0 - self.delta))

    @functools.cached_property
    def decision_effort(self) -> float:
        """theta*log B + (1-theta)*log A: expected LLR at the decision under H1."""
        return self.theta * self.log_b + (1.0 - self.theta) * self.log_a


def _attack_scheme(name: str) -> str:
    """The attack scheme called `name`, "degree" read as INTENTIONAL; ConfigError if unknown."""
    if name not in _SCHEMES:
        raise ConfigError(f"unknown attack scheme {name!r}")
    return INTENTIONAL if name == "degree" else name


def _attacked_fraction(q: float) -> float:
    """q itself, once checked to lie in (0, 1]."""
    if not 0.0 < q <= 1.0:
        raise ConfigError("attacked fraction q must lie in (0, 1]")
    return q


@dataclass(frozen=True)
class AttackPlan:
    """Attack scheme, attacked fraction q, and network size n; scheme "degree" is stored as INTENTIONAL."""

    scheme: str
    q: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "scheme", _attack_scheme(self.scheme))
        _attacked_fraction(self.q)
        object.__setattr__(self, "n", _count(self.n, "network size n"))

    @property
    def targeted(self) -> bool:
        return self.scheme != RANDOM

    @property
    def m(self) -> int:
        """Number of attacked nodes, ceil(n*q) with a float-noise guard; at least 1, as q > 0."""
        return max(1, ceil_count(self.n * self.q))


@dataclass
class SprtTrace:
    """Running state of one sequential test (single-owner, mutable)."""

    reports: list[int] = field(default_factory=list)
    d_count: int = 0
    cumulative_llr: float = 0.0
    state: str = CONTINUE
    stop_index: int | None = None


@dataclass(frozen=True)
class WorstCaseBounds:
    """Normal-approximation bounds for the test truncated at m_c reports.

    These are the paper's normal approximation, not bounds everywhere: at
    p_d = 0.5, p_f = 0.01, q = 0.5, m_c = 100 (delta = 0.01, theta = 0.001)
    the exact truncated P(attack) is 0.999061, below `accept_lower_bound`
    0.999861.
    """

    m_c: int
    y1: float
    y2: float
    y3: float
    y4: float
    y5: float
    y6: float
    accept_lower_bound: float
    reject_lower_bound: float
    delta_at_mc: float
    theta_at_mc: float
    mean_z_h0: float
    mean_z_h1: float
    sigma_z_h0: float
    sigma_z_h1: float


@dataclass(frozen=True)
class DetectionSummary:
    """Aggregate outcome of simulated detection runs."""

    trials: int
    mean_stop_index: float
    max_stop_index: int
    threshold_attack: int
    threshold_null: int
    truncated_attack: int
    truncated_null: int

    @property
    def attack_frequency(self) -> float:
        return (self.threshold_attack + self.truncated_attack) / self.trials

    @property
    def null_frequency(self) -> float:
        return (self.threshold_null + self.truncated_null) / self.trials

    @property
    def truncated_frequency(self) -> float:
        return (self.truncated_attack + self.truncated_null) / self.trials


def _llr_pair(p1: float, p0: float) -> tuple[float, float]:
    """(z1, z0): LLR of a one and of a zero report, success prob p1 vs p0; 0.0 where p1 == p0."""
    if p1 == p0:
        return 0.0, 0.0
    if p1 == 0.0:
        raise NumericalError("H1 success probability underflows to 0 (q * p_d below the float minimum)")
    ratio = p1 / p0
    z1 = math.log(ratio) if ratio < math.inf else math.log(p1) - math.log(p0)  # the ratio overflows for a subnormal p0
    return z1, math.log((1.0 - p1) / (1.0 - p0))


def report_segments(plan: AttackPlan, detector: DetectorProfile) -> list[tuple]:
    """The H1 report stream as runs (start, stop, p1, z1, z0) of constant success probability.

    Reports start..stop-1 (0-based) succeed with probability p1 under H1
    and carry LLR z1 if one, z0 if zero. A random attack is one run at
    q * p_d; a targeted attack is the attacked set [0, M) at p_d, then
    inert reports at p_f with zero LLR. The last run is unbounded
    (stop = inf).
    """
    if not plan.targeted:
        p1 = plan.q * detector.p_d
        return [(0, math.inf, p1, *_llr_pair(p1, detector.p_f))]
    return [
        (0, plan.m, detector.p_d, *_llr_pair(detector.p_d, detector.p_f)),
        (plan.m, math.inf, detector.p_f, 0.0, 0.0),
    ]


def per_report_llr(x: int, plan: AttackPlan, detector: DetectorProfile, i: int) -> float:
    """Log-likelihood ratio of report i (1-based), read off its report segment; x is a bit, 0 or 1."""
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if not isinstance(x, (int, np.integer, np.bool_) if np else int) or x not in (0, 1):
        raise ConfigError(f"report x must be a bit, 0 or 1, got {x!r}")
    i = _count(i, "report index i (it starts at 1)")
    _, _, _, z1, z0 = next(seg for seg in report_segments(plan, detector) if i <= seg[1])
    return z1 if x else z0


def step(
    trace: SprtTrace,
    x: int,
    plan: AttackPlan,
    detector: DetectorProfile,
    risk: RiskBudget,
) -> SprtTrace:
    """Feed one report into the test and update the decision state."""
    if trace.state != CONTINUE:
        raise ValueError("stepping a decided trace")
    i = len(trace.reports) + 1
    z = per_report_llr(x, plan, detector, i)
    trace.reports.append(int(x))
    trace.d_count += int(x)
    trace.cumulative_llr += z
    if trace.cumulative_llr >= risk.log_a:
        trace.state = ACCEPT_ATTACK
        trace.stop_index = i
    elif trace.cumulative_llr <= risk.log_b:
        trace.state = ACCEPT_NULL
        trace.stop_index = i
    return trace


def truncate(trace: SprtTrace, m_c: int) -> str:
    """Forced decision at the report budget: attack iff the LLR is positive."""
    try:
        m_c = _count(m_c, "truncation length m_c")
    except ConfigError as err:  # a bad budget here is a caller's bug, as is truncating a decided trace
        raise ValueError(*err.args) from None
    if trace.state != CONTINUE:
        raise ValueError("truncating a decided trace")
    if m_c < len(trace.reports):
        raise ValueError(f"truncation length m_c = {m_c} is below the {len(trace.reports)} reports already stepped")
    trace.state = ACCEPT_ATTACK if trace.cumulative_llr > 0.0 else ACCEPT_NULL
    trace.stop_index = m_c
    return trace.state


def _count_llr(d, m, z1, z0):
    """LLR after m informative reports with d ones."""
    return d * z1 + (m - d) * z0


def decision_by_counts(
    d_m: int,
    m: int,
    plan: AttackPlan,
    detector: DetectorProfile,
    risk: RiskBudget,
) -> str:
    """Decision from the success count d_m after m reports.

    The LLR d_m*z1 + (min(m, stop) - d_m)*z0 of the first report segment;
    must agree with the stepwise test on every trajectory. Targeted plans
    are inert beyond the attacked set, so d_m counts successes among the
    first min(m, M) reports only, so d_m <= min(m, M). `_walk` applies the
    same expression, `_count_llr`, and comparisons to the count lattice.
    """
    m = _count(m, "report count m")
    d_m = _count(d_m, "success count d_m", 0)
    _, stop, _, z1, z0 = report_segments(plan, detector)[0]
    if d_m > min(m, stop):
        raise ConfigError(f"success count d_m = {d_m} exceeds the {min(m, stop)} informative reports")
    lam = _count_llr(d_m, min(m, stop), z1, z0)
    if lam >= risk.log_a:
        return ACCEPT_ATTACK
    if lam <= risk.log_b:
        return ACCEPT_NULL
    return CONTINUE


def _llr_drift(p1: float, p0: float) -> float:
    """E[z|H1] for success probs p1/p0: the binary KL divergence D(p1 || p0)."""
    z1, z0 = _llr_pair(p1, p0)
    return p1 * z1 + (1.0 - p1) * z0


def expected_reports_random(q: float, detector: DetectorProfile, risk: RiskBudget) -> float:
    """Expected report count to identify a random attack on the q fraction.

    This is Wald's approximation [theta*log B + (1-theta)*log A] / E[z|H1],
    which neglects threshold overshoot. It therefore underestimates the
    true E[stop] when one report's LLR jump is a large share of log A
    (for q*p_d = 0.15, p_f = 0.01 the jump is 59% of log A and the exact
    mean is 22% above this value).
    """
    p1 = _attacked_fraction(q) * detector.p_d
    if p1 == detector.p_f:
        raise NumericalError("degenerate test: q * p_d equals p_f")
    return risk.decision_effort / _llr_drift(p1, detector.p_f)


def expected_reports_intentional(detector: DetectorProfile, risk: RiskBudget) -> float:
    """Expected report count to identify a degree-targeted attack.

    Wald's approximation with q = 1; like `expected_reports_random` it
    neglects overshoot and underestimates E[stop] when one report's LLR
    jump is a large share of log A.
    """
    return expected_reports_random(1.0, detector, risk)


def worst_case_bounds(
    q_effective: float,
    detector: DetectorProfile,
    risk: RiskBudget,
    m_c: int,
) -> WorstCaseBounds:
    """Termination and error bounds for the test forced to stop at m_c.

    For targeted plans pass q_effective = m_c / n, which makes the worst
    case (attacked set exactly as large as the budget) coincide with the
    random-attack analysis. The values are the paper's normal
    approximation, so `accept_lower_bound` can exceed the exact truncated
    P(attack) (see `WorstCaseBounds`).
    """
    m_c = _count(m_c, "report budget m_c")
    p1 = _attacked_fraction(q_effective) * detector.p_d
    if p1 <= detector.p_f:
        raise NumericalError("worst-case bounds need q_effective * p_d > p_f")
    # mean and spread of one report's LLR under H1 and under H0
    p0 = detector.p_f
    z1, z0 = _llr_pair(p1, p0)
    e1, e0 = p1 * z1 + (1.0 - p1) * z0, p0 * z1 + (1.0 - p0) * z0
    s1, s0 = math.sqrt(p1 * (1.0 - p1)) * (z1 - z0), math.sqrt(p0 * (1.0 - p0)) * (z1 - z0)
    rt = math.sqrt(m_c)
    y1 = (risk.log_a - m_c * e1) / (rt * s1)
    y2 = (risk.log_b - m_c * e0) / (rt * s0)
    y3 = (risk.log_a - m_c * e0) / (rt * s0)
    y4 = -rt * e0 / s0
    y5 = -rt * e1 / s1
    y6 = (risk.log_b - m_c * e1) / (rt * s1)
    return WorstCaseBounds(
        m_c=m_c,
        y1=y1,
        y2=y2,
        y3=y3,
        y4=y4,
        y5=y5,
        y6=y6,
        accept_lower_bound=clamp01(1.0 - normal_cdf(y1)),
        reject_lower_bound=clamp01(normal_cdf(y2)),
        delta_at_mc=clamp01(risk.delta + normal_cdf(y3) - normal_cdf(y4)),
        theta_at_mc=clamp01(risk.theta + normal_cdf(y5) - normal_cdf(y6)),
        mean_z_h0=e0,
        mean_z_h1=e1,
        sigma_z_h0=s0,
        sigma_z_h1=s1,
    )


@functools.lru_cache(maxsize=32)  # per process, and shared by every caller, so p is read-only
def _detection_law(z1, z0, log_a, log_b, limit, success):
    """The exact law of one run of the truncated test, from report 0: `_walk`'s (first, k, p, resume)."""
    import numpy as np
    law = _walk(z1, z0, log_a, log_b, limit, success, 0, 0, np.ones(1))
    law[2].flags.writeable = False
    return law


def _walk(z1, z0, log_a, log_b, limit, success, m, a, mass):
    """Walk the count lattice from report m, where mass[i] is undecided with a + i ones, one report at a time.

    Each report is one numpy shift-and-add of the undecided band: a one moves mass from d to
    d + 1 with probability `success`. For fixed m the float LLR `_count_llr` is monotone in d, so
    the states that leave the band at report m are an end run on each side; each end is trimmed
    while its LLR is at or past log_a (attack) or log_b (null). The walk ends at report `limit`,
    where the rest is truncated (attack iff the LLR is positive), when no mass is left, or once
    the undecided mass is below EPSILON. Returns (first, k, p, resume): p holds the threshold-attack
    masses at stop indices first..first+k-1, the threshold-null masses at the same stops, then the
    truncated attack and null masses and, if the walk stopped below EPSILON, that undecided mass
    last; `resume()` walks on from its state, scaled to 1 (else None).
    """
    import numpy as np
    first, keep = m + 1, 1.0 - success
    buf = np.zeros(mass.size + 64)
    i, j = 0, mass.size  # buf[i:j] is the band, a + (0, 1, ...) ones; buf[j:] is zero
    buf[:j] = mass
    attack, null = [], []
    while True:
        m += 1
        if j + 1 == buf.size:  # the band reached the end of the buffer: copy it to the front of a new one
            buf, i, j = np.concatenate((buf[i:j], np.zeros(j - i + 64))), 0, j - i
        band = buf[i:j]
        ones = band * success
        band *= keep
        buf[i + 1 : j + 1] += ones
        j += 1
        gone = [0.0, 0.0]  # null, attack
        while i < j:  # the ones' end
            llr = _count_llr(a + j - 1 - i, m, z1, z0)
            if log_b < llr < log_a:
                break
            j -= 1
            gone[llr >= log_a] += buf[j]
            buf[j] = 0.0
        while i < j:  # the zeros' end
            llr = _count_llr(a, m, z1, z0)
            if log_b < llr < log_a:
                break
            gone[llr >= log_a] += buf[i]
            i, a = i + 1, a + 1
        null.append(gone[0])
        attack.append(gone[1])
        if m == limit or i == j:
            break
        left = buf[i:j].sum()
        if left < EPSILON:
            rest = functools.partial(_walk, z1, z0, log_a, log_b, limit, success, m, a, buf[i:j] / left)
            return first, len(attack), np.array([*attack, *null, 0.0, 0.0, left]), rest
    forced = [0.0, 0.0]  # null, attack at m_c
    for d in range(a, a + j - i):
        forced[_count_llr(d, m, z1, z0) > 0.0] += buf[i + d - a]
    return first, len(attack), np.array([*attack, *null, forced[1], forced[0]]), None


def simulate_detection(
    plan: AttackPlan,
    detector: DetectorProfile,
    risk: RiskBudget,
    m_c: int,
    trials: int,
    seed: int,
    truth: str = H1,
) -> DetectionSummary:
    """Summary of `trials` independent runs of the truncated sequential test.

    Reports are Bernoulli(a_i * p_d) under H1 and Bernoulli(p_f) under
    H0; each run steps until a threshold crossing or the forced decision
    at m_c. The summary is a function of how many runs land on each atom
    (verdict, stop index), and those counts are multinomial in the atoms'
    exact probabilities, so it is drawn from them in one call.
    Deterministic given (seed, parameters).

    Stream contract: `_detection_law` walks the count lattice of the first
    report segment to its atoms (later reports are inert), classified by the
    count-form rule of `decision_by_counts`, for min(stop, m_c, reports until
    less than EPSILON is undecided) reports: ~1.2e5 if near-inert and unbounded.
    `rng_stream(seed, 0x5D).multinomial(trials, p)` then draws the counts of
    the atoms in this order: threshold attack at stop indices 1, 2, ..., k,
    threshold null at the same stops, truncated attack, truncated null, and,
    if the walk stopped with less than EPSILON undecided, that remainder.
    Runs on the remainder resume the walk from its saved state, and the same
    generator draws their counts over the resumed atoms, in the same order,
    until no run is left undecided; so the law is never truncated. The
    counts are folded in Python ints, exact up to 2**63 - 1 trials.
    """
    trials = _count(trials, "trials")
    if trials > 2**63 - 1:  # numpy's multinomial takes its count as a C long
        raise ConfigError(f"trials = {trials} exceeds 2**63 - 1, the most runs one multinomial draws")
    m_c = _count(m_c, "report budget m_c")
    _seed(seed)
    if truth not in (H0, H1):
        raise ConfigError("truth must be 'h0' or 'h1'")
    _, stop, p1, z1, z0 = report_segments(plan, detector)[0]
    if z1 == 0.0 and z0 == 0.0:  # inert stream: the LLR stays 0, so every run is truncated to null
        return DetectionSummary(trials, float(m_c), m_c, 0, 0, 0, trials)
    success = p1 if truth == H1 else detector.p_f
    law = _detection_law(z1, z0, risk.log_a, risk.log_b, min(stop, m_c), success)
    rng, runs = rng_stream(seed, 0x5D), trials
    ta = tn = ua = un = stop_sum = stop_max = 0
    while runs:
        first, k, p, resume = law
        counts = rng.multinomial(runs, p).tolist()
        hits, stops = list(map(operator.add, counts[:k], counts[k : 2 * k])), range(first, first + k)
        ta, tn, ua, un = ta + sum(counts[:k]), tn + sum(counts[k : 2 * k]), ua + counts[2 * k], un + counts[2 * k + 1]
        stop_sum += sum(map(operator.mul, hits, stops)) + (counts[2 * k] + counts[2 * k + 1]) * m_c
        stop_max = max(stop_max, max(itertools.compress(stops, hits), default=0))
        runs = counts[-1] if resume else 0
        law = resume() if runs else None
    return DetectionSummary(
        trials=trials,
        mean_stop_index=stop_sum / trials,
        max_stop_index=m_c if ua + un else stop_max,
        threshold_attack=ta,
        threshold_null=tn,
        truncated_attack=ua,
        truncated_null=un,
    )
