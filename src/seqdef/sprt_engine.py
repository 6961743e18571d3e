"""Sequential detection of network attacks from binary node reports.

A fusion center collects one-bit attack reports in descending degree
order and runs a sequential probability ratio test between "attack"
(H1) and "no attack" (H0). Under H1 a report is Bernoulli(a_i * p_d)
where a_i is the per-node attack probability of the scheme; under H0 it
is Bernoulli(p_f).

`report_segments` describes the H1 stream once, as runs of constant
success probability: one run at q * p_d for a random attack; the
attacked set at p_d, then inert reports (zero LLR) for a targeted one.
The per-report LLR, the count-form decision, the Monte-Carlo blocks and
the LLR moments (report counts, worst-case bounds, KL rate) read them.

Since detectors are i.i.d. given a_i, only the a_i sequence matters for
simulation; the descending-degree report order is a labeling convention.
Betweenness-targeted plans reuse the degree-targeted report model (an
attacked subset of the first M reporters).
"""

from __future__ import annotations

import math
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
    first min(m, M) reports only.
    """
    _, stop, _, z1, z0 = report_segments(plan, detector)[0]
    lam = d_m * z1 + (min(m, stop) - d_m) * z0
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


def _report_blocks(plan, detector, truth, m_c, width):
    """Yield (start, stop, success_prob, z_if_one, z_if_zero) column blocks of the first m_c reports."""
    for seg_start, seg_stop, p1, z1, z0 in report_segments(plan, detector):
        seg_stop = min(seg_stop, m_c)
        success = p1 if truth == H1 else detector.p_f
        for start in range(seg_start, seg_stop, width):
            yield start, min(start + width, seg_stop), success, z1, z0


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
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if m_c < 1:
        raise ConfigError("report budget m_c must be >= 1")
    if truth not in (H0, H1):
        raise ConfigError("truth must be 'h0' or 'h1'")
    log_a, log_b = risk.log_a, risk.log_b

    counts = {"ta": 0, "tn": 0, "ua": 0, "un": 0}
    stop_sum = 0.0
    stop_max = 0
    row_chunk = 4096
    col_block = 512

    for chunk_index, chunk_start in enumerate(range(0, trials, row_chunk)):
        rows = min(row_chunk, trials - chunk_start)
        rng = rng_stream(seed, 0x5D, chunk_index)
        lam = np.zeros(rows)
        active = np.arange(rows)
        stop = np.full(rows, m_c, dtype=np.int64)
        verdict = np.zeros(rows, dtype=np.int8)  # 0 undecided, 1 attack, -1 null

        for start, stop_col, success, z1, z0 in _report_blocks(plan, detector, truth, m_c, col_block):
            if active.size == 0:
                break
            width = stop_col - start
            if z1 == 0.0 and z0 == 0.0:
                # inert columns: the LLR is frozen, no decision can occur
                continue
            bits = rng.random((active.size, width)) < success
            zs = np.where(bits, z1, z0)
            path = lam[active, None] + np.cumsum(zs, axis=1)
            hit_a = path >= log_a
            hit_b = path <= log_b
            hit = hit_a | hit_b
            any_hit = hit.any(axis=1)
            first = np.argmax(hit, axis=1)
            decided_rows = active[any_hit]
            if decided_rows.size:
                first_hit = first[any_hit]
                stop[decided_rows] = start + first_hit + 1
                attack = hit_a[np.flatnonzero(any_hit), first_hit]
                verdict[decided_rows] = np.where(attack, 1, -1)
            lam[active] = path[:, -1]
            active = active[~any_hit]

        # forced decision for still-active rows: attack iff the LLR is positive
        if active.size:
            verdict[active] = np.where(lam[active] > 0.0, 1, -1)
        undecided = np.zeros(rows, dtype=bool)
        undecided[active] = True

        counts["ta"] += int(((verdict == 1) & ~undecided).sum())
        counts["tn"] += int(((verdict == -1) & ~undecided).sum())
        counts["ua"] += int(((verdict == 1) & undecided).sum())
        counts["un"] += int(((verdict == -1) & undecided).sum())
        stop_sum += float(stop.sum())
        stop_max = max(stop_max, int(stop.max()))

    return DetectionSummary(
        trials=trials,
        mean_stop_index=stop_sum / trials,
        max_stop_index=stop_max,
        threshold_attack=counts["ta"],
        threshold_null=counts["tn"],
        truncated_attack=counts["ua"],
        truncated_null=counts["un"],
    )
