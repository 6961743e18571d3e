"""Independent oracles shared by test modules."""

import itertools
import math
from collections import Counter
from typing import NamedTuple


class TruncatedOutcome(NamedTuple):
    """Exact outcome probabilities and stop-index moments of the truncated sequential test."""

    threshold_attack: float
    threshold_null: float
    truncated_attack: float
    truncated_null: float
    mean: float
    second_moment: float

    @property
    def attack(self):
        return self.threshold_attack + self.truncated_attack

    @property
    def truncated(self):
        return self.truncated_attack + self.truncated_null


def exact_truncated_test(success, p1, p0, risk, m_c, stop=math.inf):
    """Exact outcome of the sequential test forced to decide at report m_c.

    Reports 1..min(stop, m_c) are ones with probability `success` and carry
    LLR log(p1/p0) if one, log((1-p1)/(1-p0)) if zero. Later reports are
    inert (zero LLR), so mass still undecided after report min(stop, m_c)
    is truncated at m_c: attack iff its LLR is positive. Propagates the
    probability of each undecided success count report by report;
    independent of the library's simulation path.
    """
    z1, z0 = math.log(p1 / p0), math.log((1 - p1) / (1 - p0))
    limit = min(stop, m_c)
    alive = {0: 1.0}
    attack = null = mean = second = 0.0
    for m in range(1, limit + 1):
        nxt = {}
        for d, pr in alive.items():
            for nd, w in ((d + 1, pr * success), (d, pr * (1 - success))):
                lam = nd * z1 + (m - nd) * z0
                if lam >= risk.log_a:
                    attack += w
                elif lam <= risk.log_b:
                    null += w
                else:
                    nxt[nd] = nxt.get(nd, 0.0) + w
                    continue
                mean += m * w
                second += m * m * w
        alive = nxt
    truncated_attack = sum(pr for d, pr in alive.items() if d * z1 + (limit - d) * z0 > 0)
    rest = sum(alive.values())
    forced = (truncated_attack, rest - truncated_attack)
    return TruncatedOutcome(attack, null, *forced, mean + rest * m_c, second + rest * m_c**2)


def molloy_reed_tau(degrees):
    """Molloy-Reed tau = sum d² / sum d as one float quotient, 0 with no edge: the float form of the test tau <= 2.

    With whole degrees both sums are exact Python ints and the quotient is correctly rounded, as
    the library's tau curves divide them.
    """
    s1 = sum(degrees)
    return sum(d * d for d in degrees) / s1 if s1 else 0.0


def surviving_degrees(edges, alive):
    """Degrees, node by node, of the subgraph of `edges` that the node set `alive` spans; nodes of degree 0 left out."""
    degree = Counter()
    for a, b in edges:
        if a in alive and b in alive:
            degree[a] += 1
            degree[b] += 1
    return list(degree.values())


def estimate_qc_by_tau(n, edges, orders):
    """(q_c, subcritical) by the float tau rule: (0, True) if the intact graph has tau <= 2, else the
    mean over `orders` (removal orders of the n nodes) of the first fraction m / n removed at which
    tau of what survives is <= 2.
    """
    if molloy_reed_tau(surviving_degrees(edges, set(range(n)))) <= 2.0:
        return 0.0, True
    crossings = []
    for order in orders:
        m = next(m for m in range(n + 1) if molloy_reed_tau(surviving_degrees(edges, set(order[m:]))) <= 2.0)
        crossings.append(m / n)
    return sum(crossings) / len(crossings), False


def min_disruptive_fraction(n, edges):
    """Smallest fraction of the n nodes whose removal leaves Molloy-Reed tau <= 2.

    Scans every removal set by size, with `molloy_reed_tau` of the surviving
    degrees, so removing all nodes always qualifies.
    """
    for r in range(n + 1):
        for removed in itertools.combinations(range(n), r):
            if molloy_reed_tau(surviving_degrees(edges, set(range(n)) - set(removed))) <= 2.0:
                return r / n


def configuration_model(degrees, n, rng, sweeps):
    """Stub matching with conflict re-wiring, each sweep's pair codes ranked by a stable argsort.

    The reference for `_configuration_model`'s rule: of the copies of a
    code that one sweep draws, the stable argsort ranks the one of lowest
    pair index first, and it wins. Returns (edges, dropped stubs, sweeps
    that drew a non-loop code more than once, dissolves), so that a test
    can see which paths it ran.
    """
    import numpy as np

    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    accepted = np.empty(0, dtype=np.int64)
    seen = np.array([n * n], dtype=np.int64)
    repeats = dissolves = 0
    for _ in range(sweeps):
        if stubs.size == 0:
            break
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        codes = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(codes, kind="stable")
        ranked = codes[order]
        at = np.searchsorted(seen, ranked)
        copy = np.diff(ranked, prepend=-1) == 0
        repeats += bool((copy & (u[order] != v[order])).any())
        fresh = (u[order] != v[order]) & (seen[at] != ranked) & ~copy
        keep = np.zeros(codes.size, dtype=bool)
        keep[order[fresh]] = True
        accepted = np.concatenate((accepted, codes[keep]))
        seen = np.insert(seen, at[fresh], ranked[fresh])
        stubs = np.concatenate((u[~keep], v[~keep]))
        if stubs.size and not keep.any() and accepted.size:
            dissolves += 1
            picks = rng.choice(accepted.size, size=min(accepted.size, max(4, stubs.size)), replace=False)
            freed = accepted[picks]
            accepted = np.delete(accepted, picks)
            seen = np.delete(seen, np.searchsorted(seen, freed))
            stubs = np.concatenate((stubs, freed // n, freed % n))
    return np.column_stack(np.divmod(seen[:-1], n)), int(stubs.size), repeats, dissolves
