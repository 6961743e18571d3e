"""Concrete graphs: generation, ingestion, components, betweenness, attacks.

Graphs are simple and undirected with dense node indices, stored as one
canonical edge array. An attack removes nodes in a scheme-specific order;
each edge then has a survival time t_e, the earlier removal position of
its two ends, and is present while at most t_e nodes are gone. The whole
removal curve follows from these times: the Molloy-Reed ratio of the
surviving subgraph by sorting and cumulative sums, and its largest
component by one union-find pass over the edges in decreasing t_e
(reverse percolation, Newman & Ziff 2000).

Betweenness orders come from exact Brandes accumulation, run on flat
(source, node) state arrays a batch of sources at a time after degree-1
leaves are folded into their hubs; its scores are rounded to TIE_DIGITS
significant digits before sorting, so float-noise ties break by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rand import rng_stream
from .degree_models import ER, DegreeModel, sample_degree_sequence
from .errors import ConfigError
from .sprt_engine import AttackPlan, _attacked_fraction

REWIRE_SWEEPS = 100
BRANDES_BATCH_STATES = 40_000  # flat (source, node) states plus half-edge scans per betweenness batch; bounds its memory
TIE_DIGITS = 9
SCHEMES = ("random", "degree", "intentional", "betweenness")


class NetworkGraph:
    """Simple undirected graph over node indices 0..n-1.

    The constructor canonicalizes raw edges into `edges`, the one stored
    representation: rows (a, b) with a < b, sorted, with self-loops and
    duplicates dropped and counted. Instances are treated as immutable
    once built.
    """

    def __init__(self, n, edges, *, labels=None, stubs_dropped=0):
        if n < 1:
            raise ConfigError("graph needs at least one node")
        self.n = int(n)
        raw = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if raw.size and (raw.min() < 0 or raw.max() >= self.n):
            raise ConfigError("edge endpoint outside [0, n)")
        loops = raw[:, 0] == raw[:, 1]
        self.self_loops_dropped = int(loops.sum())
        raw = raw[~loops]
        codes = np.unique(np.minimum(raw[:, 0], raw[:, 1]) * self.n + np.maximum(raw[:, 0], raw[:, 1]))
        self.duplicates_dropped = int(raw.shape[0] - codes.size)
        self.edges = np.column_stack((codes // self.n, codes % self.n))
        self.stubs_dropped = int(stubs_dropped)
        self.labels = None if labels is None else np.asarray(labels)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def tau(self) -> float:
        """Molloy-Reed ratio E[K^2]/E[K]; 0 for an edgeless graph."""
        deg = self.degrees()
        s1 = float(deg.sum())
        return float((deg.astype(float) ** 2).sum() / s1) if s1 > 0 else 0.0

    def edge_text(self) -> str:
        """Canonical serialization that `load_edge_list` reads back as this graph.

        One 'u v' line per edge, then one single-id line per isolated
        node; ids are the graph's `labels` when it has them. The loader
        needs at least one edge and sorts labels, so graphs built with
        no edges or unsorted labels do not round-trip.
        """
        ids = np.arange(self.n) if self.labels is None else self.labels
        lines = [f"{a} {b}\n" for a, b in ids[self.edges].tolist()]
        lines += [f"{v}\n" for v in ids[self.degrees() == 0].tolist()]
        return "".join(lines)


@dataclass(frozen=True)
class RemovalCurve:
    """Attack response sampled at increasing removed fractions."""

    removed_fraction: np.ndarray
    lcc_fraction: np.ndarray
    remaining_tau: np.ndarray

    def __len__(self):
        return len(self.removed_fraction)


class QcEstimate(NamedTuple):
    qc: float
    subcritical: bool


def _er_gnp(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Exact G(n, p) edge codes via geometric skipping over the pair space."""
    total = n * (n - 1) // 2
    if p <= 0.0:
        return np.empty((0, 2), dtype=np.int64)
    blocks = []
    position = -1
    expect = int(p * total) + 1
    while position < total:
        gaps = rng.geometric(p, size=max(1024, int(0.1 * expect)))
        codes = position + np.cumsum(gaps)
        blocks.append(codes)
        position = int(codes[-1])
    codes = np.concatenate(blocks)
    codes = codes[codes < total].astype(np.int64)
    # decode upper-triangle codes into (i, j) with i < j
    rem = total - 1 - codes
    t = np.floor((np.sqrt(8.0 * rem + 1.0) - 1.0) / 2.0).astype(np.int64)
    i = n - 2 - t
    j = codes - i * (2 * n - i - 1) // 2 + i + 1
    return np.column_stack((i, j))


def _configuration_model(degrees: np.ndarray, n: int, rng: np.random.Generator):
    """Stub matching with conflict re-wiring; returns (edges, dropped stubs).

    Conflicting pairings (self-loops, duplicates) are re-drawn for up to
    REWIRE_SWEEPS sweeps. A sweep that makes no progress dissolves a few
    accepted edges back into the stub pool, which escapes dead ends such
    as two leftover stubs of one node. Residual stubs are dropped and
    counted.
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    if stubs.size % 2 == 1:
        raise ConfigError("degree sequence has odd sum")
    accepted = np.empty(0, dtype=np.int64)
    for _ in range(REWIRE_SWEEPS):
        if stubs.size == 0:
            break
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        a, b = np.minimum(u, v), np.maximum(u, v)
        codes = a * n + b
        keep = a != b
        first = np.zeros(codes.size, dtype=bool)
        _, first_idx = np.unique(codes, return_index=True)
        first[first_idx] = True
        keep &= first
        keep &= ~np.isin(codes, accepted)
        accepted = np.concatenate((accepted, codes[keep]))
        stubs = np.concatenate((u[~keep], v[~keep]))
        if stubs.size and not keep.any() and accepted.size:
            dissolve = min(accepted.size, max(4, stubs.size))
            picks = rng.choice(accepted.size, size=dissolve, replace=False)
            freed = accepted[picks]
            accepted = np.delete(accepted, picks)
            stubs = np.concatenate((stubs, freed // n, freed % n))
    edges = np.column_stack((accepted // n, accepted % n))
    return edges, int(stubs.size)


def generate(model: DegreeModel, n: int, seed: int) -> NetworkGraph:
    """Realize the degree model as a graph, deterministically per seed.

    ER models are generated edge-wise with link probability k_hat / n;
    the other kinds go through a sampled degree sequence and stub
    matching (configuration model).
    """
    if n < 2:
        raise ConfigError("graph generation needs n >= 2")
    if model.kind == ER:
        rng = rng_stream(seed, 0x6E)
        edges = _er_gnp(n, model.k_hat / n, rng)
        return NetworkGraph(n, edges)
    degrees = sample_degree_sequence(model, n, seed)
    return generate_from_sequence(degrees, seed)


def generate_from_sequence(degrees, seed: int) -> NetworkGraph:
    """Configuration-model graph from an explicit degree sequence."""
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    if n < 2:
        raise ConfigError("graph generation needs n >= 2")
    rng = rng_stream(seed, 0xCF)
    edges, dropped = _configuration_model(degrees, n, rng)
    return NetworkGraph(n, edges, stubs_dropped=dropped)


def load_edge_list(path) -> NetworkGraph:
    """Parse a whitespace edge list ('u v' per line, '#' comments).

    A single-integer line declares an isolated node. Original node ids
    need not be dense; they are remapped to 0..n-1 in sorted order and
    kept on the returned graph's `labels`.
    """
    pairs: list[tuple[int, int]] = []
    mentioned: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                ids = [int(p) for p in parts]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: malformed line {raw.strip()!r}") from exc
            if any(i < 0 for i in ids):
                raise ConfigError(f"{path}:{lineno}: negative node id in {raw.strip()!r}")
            if len(ids) == 1:
                mentioned.add(ids[0])
            elif len(ids) == 2:
                mentioned.update(ids)
                pairs.append((ids[0], ids[1]))
            else:
                raise ConfigError(f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}")
    if not pairs:
        raise ConfigError(f"{path}: no edges")
    labels = np.array(sorted(mentioned), dtype=np.int64)
    index = {int(label): i for i, label in enumerate(labels)}
    edges = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64)
    return NetworkGraph(len(labels), edges, labels=labels)


def largest_component(graph: NetworkGraph) -> tuple[int, list[int]]:
    """Size and members of the largest connected component.

    Ties are broken in favor of the component containing the lowest
    node index.
    """
    roots, _ = _union_edges(graph.n, graph.edges)
    sizes = np.bincount(roots)[roots]
    best = int(sizes.max())
    winner = roots[np.argmax(sizes == best)]  # lowest-index tie-break
    return best, np.flatnonzero(roots == winner).tolist()


def _union_edges(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over `edges` in row order, with path halving and union by size.

    Returns each node's final root, and the largest component size after
    each prefix of edges (index k: after the first k; index 0 is 1).
    """
    parent = list(range(n))
    size = [1] * n

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    best = 1
    bests = [best]
    for a, b in edges.tolist():
        a, b = find(a), find(b)
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            best = max(best, size[a])
        bests.append(best)
    return np.array([find(v) for v in range(n)]), np.array(bests)


def betweenness(graph: NetworkGraph, normalized: bool = True) -> np.ndarray:
    """Exact shortest-path betweenness: Brandes accumulation over batched BFS DAGs.

    Scores count ordered pairs (s, t), twice networkx's undirected raw
    score; normalization divides by the (n-1)(n-2) ordered node pairs that
    exclude the vertex itself.

    Leaf fold (Baglioni et al. 2012): a degree-1 node whose neighbour x is
    not itself a leaf lies on no shortest path, and each of its paths runs
    through x. Folding x's L_x leaves into it gives x the closed-form term
    2·L_x·(N_C−2) − L_x·(L_x−1), N_C its component size, and a weight
    c_x = 1 + L_x that Brandes applies to x as source and as target on the
    graph without those leaves. Leaves, isolated nodes and the two ends of
    a K2 component score 0.

    Brandes (2001) then runs from every node with a remaining edge, a batch
    of sources at a time, on flat states s·n + v. A level-synchronous BFS
    emits each level's shortest-path DAG incidences and sums path counts σ
    over them; the dependencies δ replay the levels in reverse. Per-node
    sums follow the batch and level order, so the scores agree with
    per-source Brandes to float rounding, not bit for bit; `removal_order`
    rounds them to TIE_DIGITS significant digits before it sorts.
    """
    n = graph.n
    degrees = graph.degrees()
    a, b = graph.edges.T
    pendant = (degrees[a] == 1) | (degrees[b] == 1)  # leaf edges and K2 components
    hub = np.where(degrees[a] == 1, b, a)[pendant]
    leaves = np.bincount(hub[degrees[hub] > 1], minlength=n)
    roots, _ = _union_edges(n, graph.edges)
    component = np.bincount(roots)[roots]
    scores = 2.0 * leaves * (component - 2) - leaves * (leaves - 1.0)
    _brandes_batches(n, graph.edges[~pendant], 1.0 + leaves, scores)
    if normalized and n > 2:
        scores /= (n - 1) * (n - 2)
    return scores


def _brandes_batches(n: int, edges: np.ndarray, weight: np.ndarray, scores: np.ndarray) -> None:
    """Add to `scores` the weighted Brandes dependencies of every source with an edge in `edges`.

    Sources go in batches sized so that the flat per-batch arrays hold
    about BRANDES_BATCH_STATES entries. The CSR arrays keep, per half-edge,
    the hop from its end to its other end, so a frontier state s·n + u
    reaches s·n + v by adding v - u.
    """
    ends = np.concatenate((edges[:, 0], edges[:, 1]))
    perm = np.argsort(ends, kind="stable")
    hop = np.concatenate((edges[:, 1], edges[:, 0]))[perm] - ends[perm]
    degree = np.bincount(ends, minlength=n)
    indptr = np.cumsum(degree) - degree
    del ends, perm  # the batches below set the peak memory
    sources = np.flatnonzero(degree)
    batch = max(1, BRANDES_BATCH_STATES // (n + hop.size))
    for lo in range(0, sources.size, batch):
        src = sources[lo:lo + batch]
        origin = np.arange(src.size) * n + src
        # 1 until a state is reached; int64, not bool, because numpy keeps freed blocks under
        # 1 KiB cached per byte size, and masks of every length would pin that cache full
        fresh = np.ones(src.size * n, dtype=np.int64)
        sigma = np.zeros(src.size * n)
        fresh[origin] = 0
        sigma[origin] = 1.0
        levels = []
        front = origin
        while front.size:
            u = front % n
            count = degree[u]
            stop = np.cumsum(count)
            # each frontier state with the CSR offset of its first half-edge, repeated per half-edge
            tails, first = np.repeat(np.stack((front, indptr[u] - stop + count)), count, axis=1)
            heads = tails + hop[first + np.arange(stop[-1])]
            new = np.flatnonzero(fresh[heads])
            tails, heads = tails[new], heads[new]
            fresh[heads] = 0
            np.add.at(sigma, heads, sigma[tails])
            levels.append((tails, heads))
            reached = np.zeros(src.size * n, dtype=bool)  # the next frontier, each state once
            reached[heads] = True
            front = np.flatnonzero(reached)
        target = np.tile(weight, src.size)
        delta = np.zeros(src.size * n)
        for tails, heads in reversed(levels):
            np.add.at(delta, tails, sigma[tails] * ((target[heads] + delta[heads]) / sigma[heads]))
        delta[origin] = 0.0
        scores += (weight[src, None] * delta.reshape(src.size, n)).sum(axis=0)


def removal_order(graph: NetworkGraph, scheme: str, seed: int) -> np.ndarray:
    """Full node removal order for an attack scheme.

    Random orders are seeded permutations, trial 0 of the orders that
    random-attack averages draw; degree and betweenness orders are
    static (computed once on the intact graph), descending, with index
    tie-breaks. Betweenness scores are rounded to TIE_DIGITS significant
    digits before sorting, so scores equal in exact arithmetic tie
    whatever order their float sums ran in.
    """
    _check_scheme(scheme)
    if scheme == "random":
        return _random_order(graph, seed, 0)
    if scheme in ("degree", "intentional"):
        return np.lexsort((np.arange(graph.n), -graph.degrees()))
    return np.lexsort((np.arange(graph.n), -_round_significant(betweenness(graph), TIE_DIGITS)))


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown attack scheme {scheme!r}")


def _round_significant(x: np.ndarray, digits: int) -> np.ndarray:
    """Round each value to `digits` significant decimal digits; zeros stay zero."""
    exponent = np.floor(np.log10(np.abs(x), out=np.zeros_like(x), where=x != 0))
    scale = 10.0 ** (digits - 1 - exponent)
    return np.round(x * scale) / scale


def _random_order(graph: NetworkGraph, seed: int, trial: int) -> np.ndarray:
    """Random removal order of trial `trial`, drawn from stream (seed, 0xA7, trial)."""
    return rng_stream(seed, 0xA7, trial).permutation(graph.n)


def _removal_orders(graph: NetworkGraph, scheme: str, trials: int, seed: int):
    """Yield the removal orders of an attack: `trials` seeded random orders, or one static order."""
    if scheme != "random":
        yield removal_order(graph, scheme, seed)
        return
    for trial in range(trials):
        yield _random_order(graph, seed, trial)


def _survival_times(graph: NetworkGraph, order: np.ndarray) -> np.ndarray:
    """Per edge, the earlier removal position t_e of its ends; the edge is present while at most t_e nodes are gone."""
    position = np.empty(graph.n, dtype=np.int64)
    position[order] = np.arange(graph.n)
    return np.minimum(position[graph.edges[:, 0]], position[graph.edges[:, 1]])


def _tau_by_removed(graph: NetworkGraph, order: np.ndarray) -> np.ndarray:
    """Molloy-Reed tau of what survives each removal prefix of `order`, by removed count m = 0..n.

    Going back in time, a node's degree grows by one at each of its edges'
    survival times, so its half-edge of rank r (0 for the latest t_e) adds
    2r + 1 to the sum of squared degrees. Both sums are exact integers, and
    tau is 0 once no edge survives.
    """
    n = graph.n
    times = _survival_times(graph, order)
    # half-edges grouped by node, latest survival time first
    key = np.sort(graph.edges.T.ravel() * (n + 1) + (n - np.concatenate((times, times))))
    degrees = graph.degrees()
    rank = np.arange(key.size) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    s2 = np.bincount(n - key % (n + 1), weights=2 * rank + 1, minlength=n + 1)[::-1].cumsum()[::-1]
    s1 = 2.0 * np.bincount(times, minlength=n + 1)[::-1].cumsum()[::-1]
    return np.divide(s2, s1, out=np.zeros(n + 1), where=s1 > 0)


def _lcc_by_removed(graph: NetworkGraph, order: np.ndarray) -> np.ndarray:
    """Largest-component size of what survives each removal prefix of `order`, by removed count m = 0..n.

    Edges are united in decreasing survival time; once every edge with
    t_e >= m is in, the largest component is that of the graph with m
    nodes gone, where a lone surviving node counts 1.
    """
    n = graph.n
    times = _survival_times(graph, order)
    _, bests = _union_edges(n, graph.edges[np.argsort(-times)])
    lcc = bests[np.bincount(times, minlength=n + 1)[::-1].cumsum()[::-1]]
    lcc[n] = 0
    return lcc


def simulate_attack(graph: NetworkGraph, plan: AttackPlan, step_count: int, seed: int) -> RemovalCurve:
    """Remove nodes in scheme order and sample the response curve.

    The curve is evaluated at `step_count` evenly spaced removed
    fractions from 0 to plan.q; component fractions are relative to the
    original node count. A random plan follows trial 0 of
    `average_random_attack`.
    """
    return _removal_curve(graph, plan.scheme, plan.q, step_count, 1, seed)


def average_random_attack(graph: NetworkGraph, q: float, step_count: int, trials: int, seed: int) -> RemovalCurve:
    """Random-attack curve averaged over `trials` seeded removal orders."""
    return _removal_curve(graph, "random", q, step_count, trials, seed)


def _removal_curve(graph, scheme, q, step_count, trials, seed) -> RemovalCurve:
    """Response curve from 0 to q, averaged over the orders of `_removal_orders`."""
    if step_count < 2:
        raise ConfigError("step_count must be >= 2")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    fractions = np.linspace(0.0, _attacked_fraction(q), step_count)
    removed = np.minimum(np.round(fractions * graph.n).astype(np.int64), graph.n)
    lcc_acc = np.zeros(step_count)
    tau_acc = np.zeros(step_count)
    for order in _removal_orders(graph, scheme, trials, seed):
        lcc_acc += _lcc_by_removed(graph, order)[removed] / graph.n
        tau_acc += _tau_by_removed(graph, order)[removed]
    return RemovalCurve(
        removed_fraction=fractions,
        lcc_fraction=lcc_acc / trials,
        remaining_tau=tau_acc / trials,
    )


def _first_crossing(tau: np.ndarray) -> int:
    """Smallest removal count at which tau drops to 2 or below."""
    return int(np.argmax(tau <= 2.0))


def estimate_qc(graph: NetworkGraph, scheme: str, trials: int, seed: int) -> QcEstimate:
    """Empirical critical fraction: first q where surviving tau falls to <= 2.

    Random attacks are averaged over `trials` seeded orders; targeted
    orders are deterministic.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    _check_scheme(scheme)
    if graph.tau() <= 2.0:
        return QcEstimate(0.0, True)
    orders = _removal_orders(graph, scheme, trials, seed)
    crossings = [_first_crossing(_tau_by_removed(graph, order)) / graph.n for order in orders]
    return QcEstimate(float(np.mean(crossings)), False)
