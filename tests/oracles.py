"""Independent oracles shared by test modules."""

import itertools
import math
from collections import Counter
from typing import NamedTuple


class StopMoments(NamedTuple):
    """Exact stop-index statistics of the two-threshold sequential test."""

    mean: float
    second_moment: float
    upper_probability: float


def exact_stop_moments(p1, p0, risk, horizon=20000):
    """First two moments of the stop index and the upper-crossing probability.

    Propagates probability mass over (success count, failure count)
    lattice states that are still undecided; independent of the library's
    simulation path. Mass still undecided at `horizon` counts as stopping
    there and as not crossing the upper threshold.
    """
    z1, z0 = math.log(p1 / p0), math.log((1 - p1) / (1 - p0))
    alive = {(0, 0): 1.0}
    mean = second = upper = 0.0
    for m in range(1, horizon + 1):
        nxt = {}
        for (a, b), pr in alive.items():
            for da, db, pp in ((1, 0, p1), (0, 1, 1 - p1)):
                na, nb = a + da, b + db
                lam = na * z1 + nb * z0
                w = pr * pp
                if lam >= risk.log_a:
                    mean += m * w
                    second += m * m * w
                    upper += w
                elif lam <= risk.log_b:
                    mean += m * w
                    second += m * m * w
                else:
                    nxt[(na, nb)] = nxt.get((na, nb), 0.0) + w
        alive = nxt
        if sum(alive.values()) < 1e-13:
            break
    rest = sum(alive.values())
    return StopMoments(mean + rest * horizon, second + rest * horizon * horizon, upper)


def exact_mean_stop(p1, p0, risk, horizon=20000):
    """Exact expected stop index of the two-threshold sequential test."""
    return exact_stop_moments(p1, p0, risk, horizon).mean


def min_disruptive_fraction(n, edges):
    """Smallest fraction of the n nodes whose removal leaves Molloy-Reed tau <= 2.

    Scans every removal set by size; tau is the sum of squared surviving
    degrees over the sum of surviving degrees, and counts as 0 once no
    edge survives, so removing all nodes always qualifies.
    """
    for r in range(n + 1):
        for removed in itertools.combinations(range(n), r):
            gone = set(removed)
            degree = Counter()
            for a, b in edges:
                if a not in gone and b not in gone:
                    degree[a] += 1
                    degree[b] += 1
            s1 = sum(degree.values())
            if s1 == 0 or sum(k * k for k in degree.values()) / s1 <= 2.0:
                return r / n
