"""Critical removal fractions under random and intentional attack.

Random attack admits the closed form q_c = 1 - 1/(tau0 - 1). Intentional
attack (removal of the highest-degree fraction) is reduced to an
equivalent random link-deletion probability with a new cutoff degree,
which leads to a per-model root equation: a Poisson tail scan for ER, a
monotone power equation for power-law, and a logarithmic equation for
exponential networks.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

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

SUBCRITICAL_MSG = "network already disconnected in percolation sense"


@dataclass(frozen=True)
class CriticalValueReport:
    """Critical removed fraction q_c plus the intentional-attack extras."""

    qc: float
    cutoff_degree: float | None = None
    link_deletion_prob: float | None = None


def qc_random(model: DegreeModel) -> CriticalValueReport:
    """Critical fraction for uniformly random node removal."""
    tau0 = moments(model).tau
    if tau0 <= 2.0:
        raise SubcriticalError(SUBCRITICAL_MSG)
    return CriticalValueReport(qc=clamp01(1.0 - 1.0 / (tau0 - 1.0)))


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


def _poisson_limit(k_hat: float) -> int:
    """Steps a Poisson tail scan may take: far past the mean, where every tail is 0."""
    return int(k_hat + 20.0 * math.sqrt(k_hat) + 200)


def _tail_crossing(tails: Iterable[float], target: float, limit: int, what: str) -> tuple[int, float, float, Iterator]:
    """First step j < limit of a decreasing tail sequence with tails[j] >= target > tails[j + 1].

    The tails are read only up to tails[j + 1]. Returns j, the fraction t = (lo - target) / (lo - hi)
    of the step from lo = tails[j] to hi = tails[j + 1], hi, and the iterator at tails[j + 2].
    """
    rest = iter(tails)
    first = lo = next(rest)
    for j, hi in zip(range(limit), rest):
        if lo >= target > hi:
            return j, (lo - target) / (lo - hi), hi, rest
        lo = hi
    raise NoRootError(what, 0, limit, first - target, lo - target)


def cutoff_degree(model: DegreeModel, q: float) -> float:
    """New maximum degree after removing the top q fraction of nodes.

    The tail is inverted at q + 1/n; `qc_intentional` says where its cutoff differs from this one.
    Each kind inverts the tail that its `moments` integrate: the power law's density truncated to
    [k_min, k_max], the exponential's untruncated on [k_min, inf), the Poisson's on 0, 1, ... and
    the histogram's on its degrees. ER and empirical tails interpolate the step of P(K >= k) - 1/n
    that crosses q, at every integer k.
    """
    if not 0.0 < q < 1.0:
        raise ConfigError("attacked fraction q must lie in (0, 1)")
    u = q + 1.0 / model.n
    if u >= 1.0:
        return float(model.k_min)
    if model.kind == POWER_LAW:
        s, a, b = 1.0 - model.alpha, float(model.k_min), float(model.k_max)
        return (b**s + u * (a**s - b**s)) ** (1.0 / s)
    if model.kind == EXPONENTIAL:
        return -model.beta * math.log(u) + model.k_min
    if model.kind == ER:
        tails = (sf - 1.0 / model.n for sf in _poisson_tails(model.k_hat))
        j, t, _, _ = _tail_crossing(tails, q, _poisson_limit(model.k_hat), "cutoff degree")
        return j + t
    _, ps = discrete_pmf(model)
    tails = (sf - 1.0 / model.n for sf in itertools.accumulate(ps, operator.sub, initial=1.0))
    j, t, _, _ = _tail_crossing(tails, q, len(ps), "cutoff degree")
    return model.k_min + j + t


def _qc_intentional_er(model: DegreeModel) -> CriticalValueReport:
    k_hat, n = model.k_hat, model.n
    target = 1.0 - 1.0 / k_hat  # critical link-deletion probability
    # q_tilde(j) = P(K >= j - 1) falls in j: bracket the target at j = i + 1, i + 2, interpolate cutoff and q
    i, t, sf_next, rest = _tail_crossing(_poisson_tails(k_hat), target, _poisson_limit(k_hat), "ER intentional cutoff")
    return CriticalValueReport(
        qc=clamp01((1.0 - t) * (sf_next - 1.0 / n) + t * (next(rest) - 1.0 / n)),
        cutoff_degree=i + 1 + t,
        link_deletion_prob=target,
    )


def _qc_intentional_power_law(model: DegreeModel) -> CriticalValueReport:
    alpha, kn = model.alpha, float(model.k_min)
    if alpha <= 2.0:  # the equation is -1 at x = 1 and does not increase, so it has no root
        raise ConfigError(f"power-law intentional threshold needs alpha > 2, got {alpha}")

    def equation(x: float) -> float:
        # x = cutoff / k_min; stable through the alpha = 3 log branch
        term = kn * (2.0 - alpha) * expm1_over(3.0 - alpha, math.log(x))
        return x ** (2.0 - alpha) - term - 2.0

    x = bisect_root(equation, 1.0, 2.0, expand=True, what="power-law intentional cutoff")
    return CriticalValueReport(
        qc=clamp01(x ** (1.0 - alpha)),
        cutoff_degree=kn * x,
        link_deletion_prob=clamp01(x ** (2.0 - alpha)),
    )


def _qc_intentional_exponential(model: DegreeModel) -> CriticalValueReport:
    n, m = model.n, moments(model)
    target = 1.0 - m.mean_degree / (m.second_moment - m.mean_degree)  # = 1 - 1/(tau0-1)

    def equation(q: float) -> float:
        u = q + 1.0 / n
        return (1.0 - math.log(u)) * u - target  # link-deletion probability in the small-k_min simplification

    qc = bisect_root(equation, 1e-12, 1.0 - 1.0 / n, what="exponential intentional critical value")
    return CriticalValueReport(
        qc=clamp01(qc), cutoff_degree=cutoff_degree(model, qc), link_deletion_prob=clamp01(target)
    )


def qc_intentional(model: DegreeModel) -> CriticalValueReport:
    """Critical fraction when the highest-degree q fraction is removed.

    How the report's cutoff relates to `cutoff_degree(model, qc)`, which inverts the tail at qc + 1/n:
    - exponential: it is that call, by construction;
    - ER: they agree to rounding, as the call undoes the interpolation that gave qc; the last bit differs
      at k_hat = 20, and 10 ulps (1.4e-15 relative) at k_hat = 930, n = 1e6;
    - power law: it is the root x * k_min, which also gives link_deletion_prob = x^(2-alpha). By design
      qc = x^(1-alpha) has no 1/n term, and the call inverts the tail truncated at k_max, so at alpha = 2.5,
      n = 1e4 it reads 6.843475 against 6.854102 (6.845915, the 1/n term alone, at k_max = 1e9).
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
