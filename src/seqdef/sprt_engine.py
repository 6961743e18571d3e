"""Sequential detection of network attacks from binary node reports.

A fusion center collects one-bit attack reports in descending degree
order and runs a sequential probability ratio test between "attack"
(H1) and "no attack" (H0). Under H1 a report is Bernoulli(a_i * p_d)
where a_i is the per-node attack probability of the scheme; under H0 it
is Bernoulli(p_f).

`report_segments` describes the H1 stream once, as runs of constant
success probability: one run at q * p_d for a random attack; the
attacked set at p_d, then inert reports (zero LLR) for a targeted one.
The per-report LLR, the count-form decision, the Monte-Carlo success-time
kernel and the LLR moments (report counts, bounds, KL rate) read them.

The count-form rule is stated in `decision_by_counts` and tabulated by
`_verdict_table` as Wald's integer stopping bounds per one-report count,
which the Monte-Carlo kernel reads. The kernel draws the geometric gaps
between one-reports by inverting one exponential each (Devroye 1986, ch. X).

Since detectors are i.i.d. given a_i, only the a_i sequence matters for
simulation; the descending-degree report order is a labeling convention.
Betweenness-targeted plans reuse the degree-targeted report model (an
attacked subset of the first M reporters).
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field

from ._rand import _ordered_map, _seed, rng_stream
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

# Monte-Carlo stream layout: runs form chunks of ROW_CHUNK, each with its own stream, so changing
# it changes every `simulate_detection` summary. A chunk is one task of `_ordered_map` and bounds one
# kernel call's memory (64 KiB per array). 16,384 ran no faster in more memory; 32,768 ran slower.
ROW_CHUNK = 8192


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
    first min(m, M) reports only, so d_m <= min(m, M). It is the
    reference for `_verdict_table`, which tabulates the same expression,
    `_count_llr`, for the Monte-Carlo kernel.
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


@functools.lru_cache(maxsize=32)  # per process: a forked worker fills its own copy
def _verdict_table(z1, z0, log_a, log_b, limit):
    """Wald's table of the count-form rule: a cached function d -> (lo, hi, forced).

    With d ones among m reports, d <= m <= limit, the test goes on while lo <= m < hi. Below lo
    it gives the verdict the zeros move the LLR away from (attack if z0 <= 0, else null), from
    hi on the other one; `forced` is whether the truncated verdict at m = limit is attack. For
    fixed d the float LLR is monotone in m, since rounding is, so bisection finds its exact flips.
    """
    crossed = (lambda x: x > log_b, lambda x: x >= log_a) if z0 > 0.0 else (lambda x: x < log_a, lambda x: x <= log_b)

    @functools.cache
    def table(d):
        lo, hi = (bisect.bisect_left(range(limit + 1), True, d, key=lambda m: past(_count_llr(d, m, z1, z0))) for past in crossed)
        return lo, hi, _count_llr(d, limit, z1, z0) > 0.0

    return table


def _exponential_gaps(rng, success, rows):
    """`gaps(size)`: float Geometric(success) gaps, ⌈E / -log1p(-success)⌉ of an exponential E, at least 1, in one reused array of `rows`."""
    import numpy as np
    rate = max(-math.log1p(-success), 1e-300)  # a subnormal divisor (p below ~2.2e-308) overflows the quotient
    out = np.empty(rows)

    def gaps(size):
        gap = rng.standard_exponential(out=out[:size])
        return np.maximum(np.ceil(np.divide(gap, rate, out=gap), out=gap), 1.0, out=gap)

    return gaps


def _detection_chunk(z1, z0, log_a, log_b, limit, m_c, trials, seed, success, k):
    """Run chunk k of `trials` tests, drawing from `rng_stream(seed, 0x5D, k)` once per round for the runs still undecided.

    Gaps to the next one-report come from `_exponential_gaps`, as floats
    (exact below 2**53; a time past `limit` is never cast); reports past
    `limit` are inert. In round j every undecided run holds d = j - 1 ones,
    and its zeros carry it to `table(d)`'s hi. A run whose next one-report
    comes later stops there, or at m_c if hi is past `limit`; the others are
    classified at their one-report by `table(d + 1)`. Returns (below, above,
    ua, un, stop_sum, stop_max): verdicts at a threshold below lo and from
    hi on, attack and null verdicts at truncation, and the sum and maximum
    of the stop indices.
    """
    import numpy as np
    rows = min(ROW_CHUNK, trials - k * ROW_CHUNK)
    table, gaps = _verdict_table(z1, z0, log_a, log_b, limit), _exponential_gaps(rng_stream(seed, 0x5D, k), success, rows)
    below = above = ua = un = stop_sum = stop_max = 0
    last = np.zeros(rows)  # latest one-report of each undecided run, in run order
    d = 0  # one-reports so far, the same for every undecided run
    while last.size:
        _, hi, forced = table(d)
        t = gaps(last.size)
        t += last
        t = t[t <= min(hi, limit)]  # runs whose next one-report comes before they leave
        gone = last.size - t.size
        if gone and hi <= limit:
            above, stop_sum, stop_max = above + gone, stop_sum + gone * hi, max(stop_max, hi)
        elif gone:  # forced decision: attack iff the LLR is positive
            ua, un = (ua + gone, un) if forced else (ua, un + gone)
            stop_sum, stop_max = stop_sum + gone * m_c, m_c
        d += 1
        lo, hi, _ = table(d)
        live = (lo <= t) & (t < hi)
        stops, last = t[~live].astype(np.int64), t[live]
        from_hi = int(np.count_nonzero(stops >= hi))
        below, above = below + stops.size - from_hi, above + from_hi
        stop_sum, stop_max = stop_sum + int(stops.sum()), max(stop_max, int(stops.max(initial=0)))
    return below, above, ua, un, stop_sum, stop_max


def simulate_detection(
    plan: AttackPlan,
    detector: DetectorProfile,
    risk: RiskBudget,
    m_c: int,
    trials: int,
    seed: int,
    truth: str = H1,
) -> DetectionSummary:
    """Monte-Carlo runs of the truncated sequential test.

    Reports are Bernoulli(a_i * p_d) under H1 and Bernoulli(p_f) under
    H0; each run steps until a threshold crossing or the forced decision
    at m_c. Deterministic given (seed, parameters).

    Stream contract: trials form chunks of ROW_CHUNK runs, chunk k drawing from
    `rng_stream(seed, 0x5D, k)`. A run is given by the times of its one-reports among
    the informative reports, 1..min(stop, m_c) of the first report segment. Round j
    draws `standard_exponential(size)` once for the undecided runs, in run order, and
    the gap to each one's j-th one-report is ⌈E / max(−log1p(−p), 1e-300)⌉, at least 1:
    numpy's p < 1/3 geometric method, used for every p. States are classified by `_verdict_table`,
    the count-form rule as integers; an inert first segment draws nothing. Chunks fix
    the stream and bound memory. They are the tasks of `_ordered_map`, so they may run on
    pinned forked workers, and their integer counts are summed in chunk order, so the
    summary is the same on any machine and any CPU count.
    """
    trials = _count(trials, "trials")
    m_c = _count(m_c, "report budget m_c")
    _seed(seed)
    if truth not in (H0, H1):
        raise ConfigError("truth must be 'h0' or 'h1'")
    _, stop, p1, z1, z0 = report_segments(plan, detector)[0]
    success = p1 if truth == H1 else detector.p_f
    limit = min(stop, m_c)
    if z1 == 0.0 and z0 == 0.0:  # inert stream: the LLR stays 0, so every run is truncated to null
        return DetectionSummary(trials, float(m_c), m_c, 0, 0, 0, trials)
    chunk = functools.partial(_detection_chunk, z1, z0, risk.log_a, risk.log_b, limit, m_c, trials, seed, success)
    results = list(_ordered_map(chunk, range(-(-trials // ROW_CHUNK)), ROW_CHUNK))
    below, above, ua, un, stop_sum = (sum(result[i] for result in results) for i in range(5))
    ta, tn = (below, above) if z0 <= 0.0 else (above, below)
    return DetectionSummary(
        trials=trials,
        mean_stop_index=stop_sum / trials,
        max_stop_index=max(result[5] for result in results),
        threshold_attack=ta,
        threshold_null=tn,
        truncated_attack=ua,
        truncated_null=un,
    )
