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

Since detectors are i.i.d. given a_i, only the a_i sequence matters for
simulation; the descending-degree report order is a labeling convention.
Betweenness-targeted plans reuse the degree-targeted report model (an
attacked subset of the first M reporters).
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from ._rand import rng_stream
from ._solve import ceil_count, clamp01
from .errors import ConfigError, NumericalError

RANDOM = "random"
INTENTIONAL = "intentional"
BETWEENNESS = "betweenness"
_SCHEMES = (RANDOM, INTENTIONAL, BETWEENNESS)

CONTINUE = "continue"
ACCEPT_ATTACK = "accept_attack"
ACCEPT_NULL = "accept_null"

H0 = "h0"
H1 = "h1"

# Monte-Carlo stream layout: runs form chunks of ROW_CHUNK, each with its own
# stream, so changing it changes every `simulate_detection` summary.
ROW_CHUNK = 4096


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

    @property
    def log_a(self) -> float:
        return math.log((1.0 - self.theta) / self.delta)

    @property
    def log_b(self) -> float:
        return math.log(self.theta / (1.0 - self.delta))

    @property
    def decision_effort(self) -> float:
        """theta*log B + (1-theta)*log A: expected LLR at the decision under H1."""
        return self.theta * self.log_b + (1.0 - self.theta) * self.log_a


def _attacked_fraction(q: float) -> float:
    """q itself, once checked to lie in (0, 1]."""
    if not 0.0 < q <= 1.0:
        raise ConfigError("attacked fraction q must lie in (0, 1]")
    return q


@dataclass(frozen=True)
class AttackPlan:
    """Attack scheme, attacked fraction q, and network size n."""

    scheme: str
    q: float
    n: int

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown attack scheme {self.scheme!r}")
        _attacked_fraction(self.q)
        if self.n < 1:
            raise ConfigError("network size n must be >= 1")

    @property
    def targeted(self) -> bool:
        return self.scheme != RANDOM

    @property
    def m(self) -> int:
        """Number of attacked nodes, ceil(n*q) with a float-noise guard."""
        return ceil_count(self.n * self.q)


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
    """Normal-approximation bounds for the test truncated at m_c reports."""

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
    return math.log(p1 / p0), math.log((1.0 - p1) / (1.0 - p0))


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
    """Log-likelihood ratio of report i (1-based), read off its report segment."""
    if i < 1:
        raise ConfigError("report index i starts at 1")
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
    trace.reports.append(int(bool(x)))
    trace.d_count += int(bool(x))
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
    if m_c < 1:
        raise ValueError("truncation length m_c must be >= 1")
    if trace.state != CONTINUE:
        raise ValueError("truncating a decided trace")
    trace.state = ACCEPT_ATTACK if trace.cumulative_llr > 0.0 else ACCEPT_NULL
    trace.stop_index = m_c
    return trace.state


def _count_llr(d, m, z1, z0):
    """LLR after m informative reports with d ones; m may be an integer array."""
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
    first min(m, M) reports only. The Monte-Carlo kernel classifies its
    (m, d_m) states with the same expression, `_count_llr`.
    """
    _, stop, _, z1, z0 = report_segments(plan, detector)[0]
    lam = _count_llr(d_m, min(m, stop), z1, z0)
    if lam >= risk.log_a:
        return ACCEPT_ATTACK
    if lam <= risk.log_b:
        return ACCEPT_NULL
    return CONTINUE


def _llr_stats(p1: float, p0: float) -> tuple[float, float, float, float]:
    """(E[z|H1], E[z|H0], sigma[z|H1], sigma[z|H0]) for success probs p1/p0."""
    z1, z0 = _llr_pair(p1, p0)
    spread = z1 - z0
    e1 = p1 * z1 + (1.0 - p1) * z0
    e0 = p0 * z1 + (1.0 - p0) * z0
    s1 = math.sqrt(p1 * (1.0 - p1)) * spread
    s0 = math.sqrt(p0 * (1.0 - p0)) * spread
    return e1, e0, s1, s0


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
    return risk.decision_effort / _llr_stats(p1, detector.p_f)[0]


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
    random-attack analysis.
    """
    if m_c < 1:
        raise ConfigError("report budget m_c must be >= 1")
    p1 = _attacked_fraction(q_effective) * detector.p_d
    if p1 <= detector.p_f:
        raise NumericalError("worst-case bounds need q_effective * p_d > p_f")
    e1, e0, s1, s0 = _llr_stats(p1, detector.p_f)
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


def _drift_exit(d, z1, z0, log_a, log_b, limit):
    """First m > d at which d ones and m - d zeros cross the threshold the zeros drift to.

    A closed-form estimate fixed up against `_count_llr`; above `limit` if no m up to it crosses.
    """
    past, bound = (operator.le, log_b) if z0 < 0.0 else (operator.ge, log_a)
    k = (bound - d * z1) / z0 if z0 else math.inf
    m = d + max(1, math.ceil(min(k, limit)))
    while m > d + 1 and past(_count_llr(d, m - 1, z1, z0), bound):
        m -= 1
    while m <= limit and not past(_count_llr(d, m, z1, z0), bound):
        m += 1
    return m


def _detection_chunk(success, z1, z0, limit, log_a, log_b, m_c, rows, rng):
    """Run `rows` tests on `rng`'s stream, one geometric draw per run and one-report.

    Reports 1..limit are ones with probability `success`; later ones are
    inert. In round j every undecided run holds j - 1 ones, so its zeros
    move the LLR towards one threshold (log B if z0 < 0, log A if z0 > 0),
    reached at one report count, `_drift_exit`. A run whose next one-report
    comes later stops there, or at m_c if that count is past `limit`; the
    others are classified at their one-report. Returns (ta, tn, ua, un,
    stop_sum, stop_max): attack and null verdicts at a threshold, then at
    truncation, and the sum and maximum of the stop indices.
    """
    if z1 == 0.0 and z0 == 0.0:  # inert stream: the LLR stays 0 and every run is truncated to null
        return 0, 0, 0, rows, m_c * rows, m_c
    ta = tn = ua = un = stop_sum = stop_max = 0
    last = np.zeros(rows, dtype=np.int64)  # latest one-report of each undecided run, in run order
    d = 0  # one-reports so far, the same for every undecided run
    while last.size:
        exit_m = _drift_exit(d, z1, z0, log_a, log_b, limit)
        gaps = rng.geometric(success, last.size)
        inside = gaps <= min(exit_m, limit) - last  # next one-report comes before the run leaves
        t = last[inside] + gaps[inside]
        gone = last.size - t.size
        if gone and exit_m <= limit:
            ta, tn = (ta + gone, tn) if z0 > 0.0 else (ta, tn + gone)
            stop_sum, stop_max = stop_sum + gone * exit_m, max(stop_max, exit_m)
        elif gone:  # forced decision: attack iff the LLR is positive
            ua, un = (ua + gone, un) if _count_llr(d, limit, z1, z0) > 0.0 else (ua, un + gone)
            stop_sum, stop_max = stop_sum + gone * m_c, m_c
        d += 1
        lam = _count_llr(d, t, z1, z0)
        attacks = int(np.count_nonzero(lam >= log_a))
        live = (log_b < lam) & (lam < log_a)
        stops, last = t[~live], t[live]
        ta, tn = ta + attacks, tn + stops.size - attacks
        stop_sum, stop_max = stop_sum + int(stops.sum()), max(stop_max, int(stops.max(initial=0)))
    return ta, tn, ua, un, stop_sum, stop_max


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

    Stream contract: trials form chunks of ROW_CHUNK runs, chunk k drawing
    from `rng_stream(seed, 0x5D, k)`. A run is given by the times of its
    one-reports among the informative reports, 1..min(stop, m_c) of the
    first report segment. Round j draws `rng.geometric(success, size)` once
    for the runs still undecided, in run order: the gaps to their j-th
    one-reports. States are classified by the count-form rule of
    `decision_by_counts`; an inert first segment draws nothing. Chunks run
    on a thread pool of one worker per usable CPU and are combined in chunk
    order, so the summary is bit-identical for any CPU count.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if m_c < 1:
        raise ConfigError("report budget m_c must be >= 1")
    if truth not in (H0, H1):
        raise ConfigError("truth must be 'h0' or 'h1'")
    _, stop, p1, z1, z0 = report_segments(plan, detector)[0]
    success = p1 if truth == H1 else detector.p_f
    limit = min(stop, m_c)
    chunks = range(-(-trials // ROW_CHUNK))

    def run_chunk(k):
        rows = min(ROW_CHUNK, trials - k * ROW_CHUNK)
        return _detection_chunk(success, z1, z0, limit, risk.log_a, risk.log_b, m_c, rows, rng_stream(seed, 0x5D, k))

    workers = min(len(os.sched_getaffinity(0)), len(chunks))
    if workers > 1:
        # imported here: concurrent.futures pulls in logging, which `import seqdef` avoids
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(k) for k in chunks]

    ta, tn, ua, un, stop_sum = (sum(result[i] for result in results) for i in range(5))
    return DetectionSummary(
        trials=trials,
        mean_stop_index=stop_sum / trials,
        max_stop_index=max(result[5] for result in results),
        threshold_attack=ta,
        threshold_null=tn,
        truncated_attack=ua,
        truncated_null=un,
    )
