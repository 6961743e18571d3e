"""Parametric degree distributions and their moment machinery.

Four model kinds are supported: Erdos-Renyi (Poisson degrees with mean
k_hat), power-law (skewness alpha), exponential (scale beta), and
empirical histograms. Analytic moments use the continuous approximation
on [k_min, k_max] (the exponential kind in its large-k_max limit), while
sampling produces integer degree sequences suitable for configuration
model generation. Only the samplers import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from ._rand import rng_stream
from ._solve import _count
from .errors import ConfigError

ER = "er"
POWER_LAW = "power_law"
EXPONENTIAL = "exponential"
EMPIRICAL = "empirical"

_PARAMETRIC = (ER, POWER_LAW, EXPONENTIAL)

DEFAULT_K_MIN = 1
DEFAULT_K_MAX = 1000
DEFAULT_N = 10000


@dataclass(frozen=True)
class DegreeModel:
    """A degree distribution plus support bounds and network size.

    Instances are immutable; build them with the `er`, `power_law`,
    `exponential` or `empirical` constructors.
    """

    kind: str
    k_min: int = DEFAULT_K_MIN
    k_max: int = DEFAULT_K_MAX
    n: int = DEFAULT_N
    k_hat: float | None = None
    alpha: float | None = None
    beta: float | None = None
    # a dict is unhashable: the hash skips it, equality still compares it
    histogram: Mapping[int, float] | None = field(default=None, repr=False, hash=False)

    def __post_init__(self):
        if self.kind not in (*_PARAMETRIC, EMPIRICAL):
            raise ConfigError(f"unknown degree model kind {self.kind!r}")
        object.__setattr__(self, "k_min", _count(self.k_min, "k_min"))
        object.__setattr__(self, "k_max", _count(self.k_max, "k_max", self.k_min))
        object.__setattr__(self, "n", _count(self.n, "network size n", 2))
        if self.kind in _PARAMETRIC and self.k_max == self.k_min:
            raise ConfigError("degenerate support (k_min == k_max) for parametric model")
        if self.kind == ER:
            if self.k_hat is None or not math.isfinite(self.k_hat) or self.k_hat <= 0:
                raise ConfigError(f"ER model needs a finite mean degree k_hat > 0, got {self.k_hat}")
        elif self.kind == POWER_LAW:
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha <= 1:
                raise ConfigError(f"power-law model needs a finite alpha > 1, got {self.alpha}")
        elif self.kind == EXPONENTIAL:
            if self.beta is None or not math.isfinite(self.beta) or self.beta <= 0:
                raise ConfigError(f"exponential model needs a finite beta > 0, got {self.beta}")
        else:
            if not self.histogram:
                raise ConfigError("empirical model needs a non-empty histogram")
            for k, p in self.histogram.items():
                if not (self.k_min <= _count(k, "histogram degree") <= self.k_max):
                    raise ConfigError(f"histogram degree {k} outside [{self.k_min}, {self.k_max}]")
                if not 0.0 <= p <= 1.0:  # also keeps NaN and ±inf out of the fsum
                    raise ConfigError(f"histogram probability for degree {k} must lie in [0, 1], got {p!r}")
            total = math.fsum(self.histogram.values())
            if not abs(total - 1.0) <= 1e-9:
                raise ConfigError(f"empirical histogram sums to {total!r}, not 1")

    @classmethod
    def er(cls, k_hat, k_min=DEFAULT_K_MIN, k_max=DEFAULT_K_MAX, n=DEFAULT_N):
        return cls(kind=ER, k_hat=float(k_hat), k_min=k_min, k_max=k_max, n=n)

    @classmethod
    def power_law(cls, alpha, k_min=DEFAULT_K_MIN, k_max=DEFAULT_K_MAX, n=DEFAULT_N):
        return cls(kind=POWER_LAW, alpha=float(alpha), k_min=k_min, k_max=k_max, n=n)

    @classmethod
    def exponential(cls, beta, k_min=DEFAULT_K_MIN, k_max=DEFAULT_K_MAX, n=DEFAULT_N):
        return cls(kind=EXPONENTIAL, beta=float(beta), k_min=k_min, k_max=k_max, n=n)

    @classmethod
    def empirical(cls, histogram, n=DEFAULT_N):
        hist = {_count(k, "histogram degree"): float(p) for k, p in histogram.items()}
        return cls(kind=EMPIRICAL, histogram=hist, k_min=min(hist, default=1), k_max=max(hist, default=1), n=n)


@dataclass(frozen=True)
class MomentSummary:
    """First two degree moments and their ratio tau = E[K^2]/E[K]."""

    mean_degree: float
    second_moment: float
    tau: float


def expm1_over(s: float, span: float, scale: float = 1.0) -> float:
    """scale * (e^{s*span} - 1) / s, evaluated left to right; expm1 keeps the s -> 0 limit smooth."""
    if s == 0.0:
        return scale * span
    return scale * math.expm1(s * span) / s


def _power_integral(a: float, b: float, p: float) -> float:
    """Integral of k^p over [a, b], stable through the p = -1 singularity."""
    s = p + 1.0
    return expm1_over(s, math.log(b / a), a**s)


def _power_law_moments(alpha: float, a: float, b: float) -> tuple[float, float]:
    """(E[K], E[K^2]) of the continuous density ~ k^-alpha on [a, b]; no model is built."""
    c1 = 1.0 / _power_integral(a, b, -alpha)
    return c1 * _power_integral(a, b, 1.0 - alpha), c1 * _power_integral(a, b, 2.0 - alpha)


def moments(model: DegreeModel) -> MomentSummary:
    """First two moments of the degree distribution.

    ER uses the Poisson identities, power-law the normalized continuous
    moment integrals (with logarithmic branches at alpha = 2 and 3),
    exponential the large-k_max limit closed forms, and empirical the
    sums over `discrete_pmf`.
    """
    if model.kind == ER:
        m1 = model.k_hat
        m2 = model.k_hat**2 + model.k_hat
    elif model.kind == POWER_LAW:
        m1, m2 = _power_law_moments(model.alpha, float(model.k_min), float(model.k_max))
    elif model.kind == EXPONENTIAL:
        kn, beta = float(model.k_min), model.beta
        m1 = kn + beta
        m2 = kn**2 + 2.0 * kn * beta + 2.0 * beta**2
    else:
        ks, ps = discrete_pmf(model)
        m1 = math.fsum(k * p for k, p in zip(ks, ps))
        m2 = math.fsum(k * k * p for k, p in zip(ks, ps))
    return MomentSummary(m1, m2, m2 / m1)


def giant_component_exists(model: DegreeModel) -> bool:
    """Molloy-Reed criterion: a giant component exists iff tau > 2."""
    return moments(model).tau > 2.0


def thin(model: DegreeModel, q: float) -> MomentSummary:
    """Moments after uniformly random removal of a q fraction of nodes.

    Removal binomially thins each surviving node's degree, so
    E[K] -> (1-q) E[K0] and E[K^2] -> (1-q)^2 E[K0^2] + q(1-q) E[K0].
    At q = 1 the network is empty and tau is reported as 0.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError("removal fraction q must lie in [0, 1]")
    m0 = moments(model)
    keep = 1.0 - q
    m1 = keep * m0.mean_degree
    m2 = keep * keep * m0.second_moment + q * keep * m0.mean_degree
    tau = m2 / m1 if m1 > 0.0 else 0.0
    return MomentSummary(m1, m2, tau)


def discrete_pmf(model: DegreeModel) -> tuple[range, list[float]]:
    """An empirical model's degrees k_min..k_max and their normalized masses; nothing else reads the histogram."""
    hist = model.histogram
    ks = range(model.k_min, model.k_max + 1)
    total = math.fsum(hist.values())
    return ks, [hist.get(k, 0.0) / total for k in ks]


def _continuous_inverse_cdf(model: DegreeModel, u: np.ndarray) -> np.ndarray:
    import numpy as np
    a, b = float(model.k_min), float(model.k_max)
    if model.kind == POWER_LAW:
        s = 1.0 - model.alpha
        return (a**s + u * (b**s - a**s)) ** (1.0 / s)
    # exponential: truncated density ~ e^{-k/beta} on [a, b]
    beta = model.beta
    return a - beta * np.log1p(-u * (1.0 - math.exp(-(b - a) / beta)))


def _resample_overflow(draw, size, model):
    """`draw(size)`, its values above k_max redrawn for at most 1000 rounds, as the parity loop; then ConfigError."""
    import numpy as np
    draws = draw(size)
    for _ in range(1000):
        over = draws > model.k_max
        if not over.any():
            return draws.astype(np.int64)
        draws[over] = draw(int(over.sum()))
    raise ConfigError(
        f"cannot draw degrees up to k_max = {model.k_max} in 1000 rounds from a model of mean degree {moments(model).mean_degree!r}"
    )


def _draw(model: DegreeModel, size: int, rng: np.random.Generator) -> np.ndarray:
    import numpy as np
    if model.kind == ER:
        return _resample_overflow(lambda m: rng.poisson(model.k_hat, size=m), size, model)
    if model.kind == EMPIRICAL:
        ks, ps = discrete_pmf(model)
        return rng.choice(ks, size=size, p=ps)
    if model.kind == EXPONENTIAL and model.beta > 1.0:
        # negative-binomial offset calibrated so both closed-form moments
        # hold exactly: mean beta needs p = 1/beta, and r = beta/(beta-1)
        # then gives variance beta^2
        r = model.beta / (model.beta - 1.0)
        p = 1.0 / model.beta
        return _resample_overflow(lambda m: model.k_min + rng.negative_binomial(r, p, size=m), size, model)
    # remaining continuous kinds: inverse-CDF draw, then mean-preserving
    # stochastic rounding (floor plus a Bernoulli on the fractional part)
    t = _continuous_inverse_cdf(model, rng.random(size))
    base = np.floor(t)
    k = base + (rng.random(size) < (t - base))
    return np.clip(k, model.k_min, model.k_max).astype(np.int64)


def sample_degree_sequence(model: DegreeModel, size: int, seed: int) -> np.ndarray:
    """Draw `size` i.i.d. degrees; the sum is forced even by resampling one entry.

    Deterministic given (model, size, seed). ER draws keep the full
    Poisson support (isolated nodes occur in ER graphs); the other kinds
    stay within [k_min, k_max].
    """
    size = _count(size, "degree sequence size", 2)
    rng = rng_stream(seed, 0xDE6)  # stream tag for degree draws
    seq = _draw(model, size, rng)
    if int(seq.sum()) % 2 == 1:
        old = int(seq[-1])
        for _ in range(1000):
            new = int(_draw(model, 1, rng)[0])
            if (new - old) % 2 == 1:
                seq[-1] = new
                break
        else:
            raise ConfigError("cannot make degree sum even by resampling one entry")
    return seq
