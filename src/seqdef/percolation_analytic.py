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
from dataclasses import dataclass

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


def _poisson_tails(k_hat: float, limit: int) -> list[float]:
    """[P(K >= 0), P(K >= 1), ...] up to index `limit` for K ~ Poisson(k_hat)."""
    tails = [1.0]
    pmf = math.exp(-k_hat)
    for k in range(limit):
        tails.append(max(0.0, tails[-1] - pmf))
        pmf *= k_hat / (k + 1)
    return tails


def cutoff_degree(model: DegreeModel, q: float) -> float:
    """New maximum degree after removing the top q fraction of nodes."""
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
        sf = _poisson_tails(model.k_hat, limit)
        tails = [(j, sf[j] - 1.0 / model.n) for j in range(limit + 1)]
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
    sf = _poisson_tails(k_hat, limit + 2)
    # q_tilde(j) = P(K >= j - 1) decreases in j; bracket the target between
    # adjacent integers and interpolate both the cutoff and q linearly.
    for i in range(limit):
        if sf[i] >= target > sf[i + 1]:
            t = (sf[i] - target) / (sf[i] - sf[i + 1])
            j_lo = i + 1
            q_lo = sf[i + 1] - 1.0 / n
            q_hi = sf[i + 2] - 1.0 / n
            return CriticalValueReport(
                qc=clamp01((1.0 - t) * q_lo + t * q_hi),
                scheme=INTENTIONAL,
                method=ROOT_SOLVE,
                cutoff_degree=j_lo + t,
                link_deletion_prob=target,
            )
    raise NoRootError("ER intentional cutoff", 1, limit, sf[0] - target, sf[limit] - target)


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
    """Critical fraction when the highest-degree q fraction is removed."""
    if model.kind == EMPIRICAL:
        raise ConfigError("intentional-attack threshold needs a parametric model")
    if moments(model).tau <= 2.0:
        raise SubcriticalError(SUBCRITICAL_MSG)
    if model.kind == ER:
        return _qc_intentional_er(model)
    if model.kind == POWER_LAW:
        return _qc_intentional_power_law(model)
    return _qc_intentional_exponential(model)
