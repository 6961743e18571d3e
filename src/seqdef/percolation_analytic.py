"""Critical removal fractions under random and intentional attack.

Random attack admits the closed form q_c = 1 - 1/(tau0 - 1). Intentional
attack (removal of the highest-degree fraction) is reduced to an
equivalent random link-deletion probability with a new cutoff degree,
which leads to a per-model root equation: a Poisson tail scan for ER, a
monotone power equation for power-law, and a logarithmic equation for
exponential networks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

from ._solve import bisect_root, clamp01
from .degree_models import (
    EMPIRICAL,
    ER,
    EXPONENTIAL,
    POWER_LAW,
    DegreeModel,
    discrete_pmf,
    expm1_over,
    moments,
)
from .errors import ConfigError, NoRootError, SubcriticalError
from .sprt_engine import INTENTIONAL, RANDOM

CLOSED_FORM = "closed_form"
ROOT_SOLVE = "root_solve"

SUBCRITICAL_MSG = "network already disconnected in percolation sense"


@dataclass(frozen=True)
class CriticalValueReport:
    """Critical removed fraction q_c plus the intentional-attack extras."""

    qc: float
    scheme: str
    method: str
    cutoff_degree: float | None = None
    link_deletion_prob: float | None = None


def qc_random(model: DegreeModel) -> CriticalValueReport:
    """Critical fraction for uniformly random node removal."""
    tau0 = moments(model).tau
    if tau0 <= 2.0:
        raise SubcriticalError(SUBCRITICAL_MSG)
    return CriticalValueReport(
        qc=clamp01(1.0 - 1.0 / (tau0 - 1.0)),
        scheme=RANDOM,
        method=CLOSED_FORM,
    )


def _tail_cutoff_discrete(tails: list[tuple[int, float]], q: float) -> float:
    """Interpolated cutoff j + t where the discrete tail minus 1/N crosses q.

    `tails` holds (j, P(K >= j) - 1/N) pairs, decreasing in j.
    """
    for (j_lo, t_lo), (j_hi, t_hi) in zip(tails, tails[1:]):
        if t_lo >= q > t_hi:
            frac = (t_lo - q) / (t_lo - t_hi) if t_lo > t_hi else 0.0
            return j_lo + frac * (j_hi - j_lo)
    raise NoRootError("cutoff degree", tails[0][0], tails[-1][0], tails[0][1] - q, tails[-1][1] - q)


def _poisson_tails(k_hat: float) -> Iterator[float]:
    """P(K >= 0), P(K >= 1), ... for K ~ Poisson(k_hat), drawn only as far as the caller reads.

    The recurrence starts at the first k whose mass (from lgamma) is a normal float, which is
    k = 0 below k_hat = 708; every earlier mass is subnormal or 0, so every earlier tail is 1.0.
    """
    k, log_k_hat = 0, math.log(k_hat)
    while (pmf := math.exp(k * log_k_hat - k_hat - math.lgamma(k + 1.0))) < sys.float_info.min:
        yield 1.0
        k += 1
    tail = 1.0
    while True:
        yield tail
        tail = max(0.0, tail - pmf)
        k += 1
        pmf *= k_hat / k


def cutoff_degree(model: DegreeModel, q: float) -> float:
    """New maximum degree after removing the top q fraction of nodes.

    The tail is inverted at q + 1/n; `qc_intentional` says where its cutoff differs from this one.
    """
    if not 0.0 < q < 1.0:
        raise ConfigError("attacked fraction q must lie in (0, 1)")
    u = q + 1.0 / model.n
    if u >= 1.0:
        return float(model.k_min)
    if model.kind == POWER_LAW:
        return model.k_min * u ** (1.0 / (1.0 - model.alpha))
    if model.kind == EXPONENTIAL:
        return -model.beta * math.log(u) + model.k_min
    # ER and empirical: discrete tail sums
    if model.kind == ER:
        limit = int(model.k_hat + 20.0 * math.sqrt(model.k_hat) + 200)
        tails = [(j, sf - 1.0 / model.n) for j, sf in zip(range(limit + 1), _poisson_tails(model.k_hat))]
    else:
        ks, ps = discrete_pmf(model)
        running = 1.0
        tails = []
        for k, p in zip(ks, ps):
            tails.append((int(k), running - 1.0 / model.n))
            running -= p
        tails.append((int(ks[-1]) + 1, running - 1.0 / model.n))
    return _tail_cutoff_discrete(tails, q)


def _qc_intentional_er(model: DegreeModel) -> CriticalValueReport:
    k_hat, n = model.k_hat, model.n
    target = 1.0 - 1.0 / k_hat  # critical link-deletion probability
    limit = int(k_hat + 20.0 * math.sqrt(k_hat) + 200)
    tails = _poisson_tails(k_hat)
    sf_i, sf_next = next(tails), next(tails)  # P(K >= i), P(K >= i + 1)
    # q_tilde(j) = P(K >= j - 1) decreases in j; bracket the target between
    # adjacent integers and interpolate both the cutoff and q linearly.
    for i in range(limit):
        if sf_i >= target > sf_next:
            t = (sf_i - target) / (sf_i - sf_next)
            j_lo = i + 1
            q_lo = sf_next - 1.0 / n
            q_hi = next(tails) - 1.0 / n
            return CriticalValueReport(
                qc=clamp01((1.0 - t) * q_lo + t * q_hi),
                scheme=INTENTIONAL,
                method=ROOT_SOLVE,
                cutoff_degree=j_lo + t,
                link_deletion_prob=target,
            )
        sf_i, sf_next = sf_next, next(tails)
    raise NoRootError("ER intentional cutoff", 1, limit, 1.0 - target, sf_i - target)


def _qc_intentional_power_law(model: DegreeModel) -> CriticalValueReport:
    alpha, kn = model.alpha, float(model.k_min)

    def equation(x: float) -> float:
        # x = cutoff / k_min; stable through the alpha = 3 log branch
        term = kn * (2.0 - alpha) * expm1_over(3.0 - alpha, math.log(x))
        return x ** (2.0 - alpha) - term - 2.0

    x = bisect_root(equation, 1.0, 2.0, expand=True, what="power-law intentional cutoff")
    return CriticalValueReport(
        qc=clamp01(x ** (1.0 - alpha)),
        scheme=INTENTIONAL,
        method=ROOT_SOLVE,
        cutoff_degree=kn * x,
        link_deletion_prob=clamp01(x ** (2.0 - alpha)),
    )


def _qc_intentional_exponential(model: DegreeModel) -> CriticalValueReport:
    kn, beta, n = float(model.k_min), model.beta, model.n
    m = moments(model)
    target = 1.0 - m.mean_degree / (m.second_moment - m.mean_degree)  # = 1 - 1/(tau0-1)

    def equation(q: float) -> float:
        u = q + 1.0 / n
        return (1.0 - math.log(u)) * u - target  # link-deletion probability in the small-k_min simplification

    qc = bisect_root(equation, 1e-12, 1.0 - 1.0 / n, what="exponential intentional critical value")
    return CriticalValueReport(
        qc=clamp01(qc),
        scheme=INTENTIONAL,
        method=ROOT_SOLVE,
        cutoff_degree=-beta * math.log(qc + 1.0 / n) + kn,
        link_deletion_prob=clamp01(target),
    )


def qc_intentional(model: DegreeModel) -> CriticalValueReport:
    """Critical fraction when the highest-degree q fraction is removed.

    ER and exponential solves add 1/n to q as `cutoff_degree` does, so `cutoff_degree(model, qc)` is
    the report's cutoff. The power-law qc = x^(1-alpha) has no 1/n term, so there it reads lower by
    O(1/n): 6.845915 against 6.854102 at alpha = 2.5, n = 1e4.
    """
    if model.kind == EMPIRICAL:
        raise ConfigError("intentional-attack threshold needs a parametric model")
    if moments(model).tau <= 2.0:
        raise SubcriticalError(SUBCRITICAL_MSG)
    if model.kind == ER:
        return _qc_intentional_er(model)
    if model.kind == POWER_LAW:
        return _qc_intentional_power_law(model)
    return _qc_intentional_exponential(model)
