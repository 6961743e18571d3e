"""Concrete graphs: generation, ingestion, components, betweenness, attacks.

Graphs are simple and undirected with dense node indices, stored as one
canonical edge array. An attack removes nodes in a scheme-specific order;
each edge then has a survival time t_e, the earlier removal position of
its two ends, and is present while at most t_e nodes are gone. The whole
removal curve follows from these times: the Molloy-Reed ratio of the
surviving subgraph by sorting and cumulative sums, and its largest
component by one union-find pass over the edges in decreasing t_e
(reverse percolation, Newman & Ziff 2000).

Betweenness orders come from exact scores. Every hanging tree is peeled
away and scored by one closed form in its sizes; exact Brandes
accumulation then runs on the 2-core alone, LANES sources at a time, one
bit lane each of a word per node (multi-source BFS, Then et al. 2014),
over a shortest-path DAG sorted by level, with dependencies in reciprocal
form. The scores are rounded to TIE_DIGITS significant digits before
sorting, so float-noise ties break by index.

Brandes lane blocks and random-attack trials are tasks of the one map
`_rand._ordered_map`, which also runs detection chunks; its results are
folded in task order, so no output depends on the CPU count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rand import _ordered_map, _seed, rng_stream
from ._solve import _count, _whole
from .degree_models import ER, DegreeModel, sample_degree_sequence
from .errors import ConfigError
from .sprt_engine import INTENTIONAL, RANDOM, AttackPlan, _attack_scheme, _attacked_fraction

REWIRE_SWEEPS = 100
LANES = 32  # Brandes sources per BFS, one bit each of a uint32 word per node
TIE_DIGITS = 9


class NetworkGraph:
    """Simple undirected graph over node indices 0..n-1.

    The constructor canonicalizes raw edges into `edges`, the one stored
    representation: rows (a, b) with a < b, sorted, with self-loops and
    duplicates dropped and counted. Duplicates are found by sorting the
    pair codes a*n + b and keeping each code that differs from the one
    before it. `n` and the endpoints must be whole numbers, `edges` must
    be (u, v) rows, and `labels`, when given, holds a distinct id per node.
    Instances are treated as immutable once built.
    """

    def __init__(self, n, edges, *, labels=None, stubs_dropped=0):
        self.n = _count(n, "node count")
        raw = _whole(edges, "edge endpoints")
        if raw.size and (raw.ndim != 2 or raw.shape[1] != 2):
            raise ConfigError(f"edges must be (u, v) rows, got shape {raw.shape}")
        raw = raw.reshape(-1, 2)
        if raw.size and (raw.min() < 0 or raw.max() >= self.n):
            raise ConfigError("edge endpoint outside [0, n)")
        loops = raw[:, 0] == raw[:, 1]
        self.self_loops_dropped = int(loops.sum())
        raw = raw[~loops]
        codes = np.sort(np.minimum(raw[:, 0], raw[:, 1]) * self.n + np.maximum(raw[:, 0], raw[:, 1]))
        codes = codes[np.diff(codes, prepend=-1) != 0]  # first copy of each code; empty stays empty
        self.duplicates_dropped = int(raw.shape[0] - codes.size)
        self.edges = np.column_stack((codes // self.n, codes % self.n))
        self.stubs_dropped = int(stubs_dropped)
        self.labels = None if labels is None else np.asarray(labels)
        if self.labels is not None:
            if self.labels.shape != (self.n,):
                raise ConfigError(f"labels must hold one id per node ({self.n}), got shape {self.labels.shape}")
            ids = np.sort(self.labels)  # not np.unique, whose first call raises peak RSS by about 1.5 MB
            if np.any(ids[1:] == ids[:-1]):  # edge_text would write one id for several nodes
                raise ConfigError("labels must be distinct")

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
    """Attack response sampled at increasing removed fractions.

    `lcc_by_removed` is the unsampled largest-component fraction, by
    removed node count m = 0..n; `lcc_fraction` is read from it.
    """

    removed_fraction: np.ndarray
    lcc_fraction: np.ndarray
    remaining_tau: np.ndarray
    lcc_by_removed: np.ndarray

    def __len__(self):
        return len(self.removed_fraction)


class QcEstimate(NamedTuple):
    qc: float
    subcritical: bool


def _er_gnp(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Exact G(n, p) edge codes via geometric skipping over the pair space."""
    total = n * (n - 1) // 2
    if p <= 0.0:  # a subnormal k_hat divided by n rounds to 0, which the geometric sampler rejects
        return np.empty((0, 2), dtype=np.int64)
    blocks = []
    position = -1
    expect = int(p * total) + 1
    while position < total:
        gaps = rng.geometric(p, size=max(1024, int(0.1 * expect)))
        # a gap past the last pair ends the scan at any length; capped, gaps near 1/p cannot overflow int64
        codes = position + np.cumsum(np.minimum(gaps, total + 1))
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

    Conflicts are found by sorting: a sweep's pair codes a*n + b are
    ranked by a stable argsort, the first copy of a code wins, and
    membership is tested with `searchsorted` against `seen`, a sorted
    mirror of the accepted codes that ends in the sentinel n*n. `accepted`
    itself keeps insertion order, because the dissolve choice picks
    pairings by their index in it.
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    if stubs.size % 2 == 1:
        raise ConfigError("degree sequence has odd sum")
    accepted = np.empty(0, dtype=np.int64)
    seen = np.array([n * n], dtype=np.int64)  # every code a*n + b is below n*n
    for _ in range(REWIRE_SWEEPS):
        if stubs.size == 0:
            break
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        codes = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(codes, kind="stable")
        ranked = codes[order]
        at = np.searchsorted(seen, ranked)
        fresh = (u[order] != v[order]) & (seen[at] != ranked) & (np.diff(ranked, prepend=-1) != 0)
        keep = np.zeros(codes.size, dtype=bool)
        keep[order[fresh]] = True
        accepted = np.concatenate((accepted, codes[keep]))
        seen = np.insert(seen, at[fresh], ranked[fresh])
        stubs = np.concatenate((u[~keep], v[~keep]))
        if stubs.size and not keep.any() and accepted.size:
            dissolve = min(accepted.size, max(4, stubs.size))
            picks = rng.choice(accepted.size, size=dissolve, replace=False)
            freed = accepted[picks]
            accepted = np.delete(accepted, picks)
            seen = np.delete(seen, np.searchsorted(seen, freed))
            stubs = np.concatenate((stubs, freed // n, freed % n))
    edges = np.column_stack((accepted // n, accepted % n))
    return edges, int(stubs.size)


def generate(model: DegreeModel, n: int, seed: int) -> NetworkGraph:
    """Realize the degree model as a graph, deterministically per seed.

    ER models are generated edge-wise with link probability k_hat / n;
    the other kinds go through a sampled degree sequence and stub
    matching (configuration model).
    """
    n = _count(n, "node count", 2)
    if model.kind == ER:
        if not model.k_hat <= n:  # not `k_hat > n`, so that NaN fails too
            raise ConfigError(f"ER link probability k_hat / n must be <= 1, got {model.k_hat} / {n}")
        rng = rng_stream(seed, 0x6E)
        edges = _er_gnp(n, model.k_hat / n, rng)
        return NetworkGraph(n, edges)
    degrees = sample_degree_sequence(model, n, seed)
    return generate_from_sequence(degrees, seed)


def generate_from_sequence(degrees, seed: int) -> NetworkGraph:
    """Configuration-model graph from an explicit 1-D sequence of whole, non-negative degrees."""
    degrees = _whole(degrees, "degrees")
    if degrees.ndim != 1:
        raise ConfigError(f"degree sequence must be 1-D, got shape {degrees.shape}")
    if np.any(degrees < 0):
        raise ConfigError("degree sequence has a negative entry")
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
            if any(not 0 <= i < 2**63 for i in ids):
                raise ConfigError(f"{path}:{lineno}: node id outside [0, 2**63) in {raw.strip()!r}")
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
    roots = _roots(_union_edges(graph.n, graph.edges)[0])
    sizes = np.bincount(roots)[roots]
    best = int(sizes.max())
    winner = roots[np.argmax(sizes == best)]  # lowest-index tie-break
    return best, np.flatnonzero(roots == winner).tolist()


def _union_edges(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over `edges` in row order, with path halving and union by size.

    Returns the parent forest (`_roots` resolves it) and the largest
    component size after each prefix of edges (index k: after the first k;
    index 0 is 1). `find` is inlined and `bests.append` bound once, because
    this loop is nearly all of a random-attack curve's cost.
    """
    parent = list(range(n))
    size = [1] * n
    best = 1
    bests = [best]
    record = bests.append
    for a, b in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            if size[a] > best:
                best = size[a]
        record(best)
    return np.array(parent), np.array(bests)


def _roots(parent: np.ndarray) -> np.ndarray:
    """Each node's root in a parent forest, by pointer jumping."""
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    return parent


def betweenness(graph: NetworkGraph, normalized: bool = True) -> np.ndarray:
    """Exact shortest-path betweenness: hanging trees in closed form, Brandes on the 2-core.

    Scores count ordered pairs (s, t), twice networkx's undirected raw
    score; normalization divides by the (n-1)(n-2) ordered node pairs that
    exclude the vertex itself.

    Tree fold (Baglioni et al. 2012, from single leaves to whole trees):
    peeling degree-1 nodes until none is left leaves the 2-core, and a tree
    component peels away entirely. Each node v then roots a tree of s_v
    nodes, itself and everything peeled into it, whose child subtrees have
    squared sizes summing to q_v. A shortest path runs through v if its
    ends lie in two different child subtrees, or one inside the tree below
    v and one outside the tree, so v scores

        (s_v - 1)² - q_v + 2 (s_v - 1) (N_C - s_v)

    from those pairs, N_C being the size of its component. For a node
    outside the 2-core that is the whole score; it is 0 for isolated nodes
    and for both ends of a K2. Every other shortest path
    joins the hanging trees of two distinct 2-core nodes a and b inside the
    core, so Brandes runs on the 2-core alone, relabelled 0..m-1, with
    weight s as source and as target (`_brandes_batches`).
    """
    n = graph.n
    indptr, degree, neighbour = _csr(n, graph.edges)
    size, squares, core = _peel_trees(indptr, degree, neighbour)
    roots = _roots(_union_edges(n, graph.edges)[0])
    component = np.bincount(roots)[roots]
    scores = (size - 1.0) ** 2 - squares + 2.0 * (size - 1.0) * (component - size)
    if core.any():  # a forest has no 2-core
        index = np.cumsum(core) - 1
        inner = graph.edges[core[graph.edges].all(axis=1)]
        scores[core] += _brandes_batches(int(core.sum()), index[inner], size[core].astype(np.float64))
    if normalized and n > 2:
        scores /= (n - 1) * (n - 2)
    return scores


def _csr(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency of an edge array: (indptr, degree, neighbour), half-edges grouped by node."""
    ends = np.concatenate((edges[:, 0], edges[:, 1]))
    neighbour = np.concatenate((edges[:, 1], edges[:, 0]))[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=n)
    return np.cumsum(degree) - degree, degree, neighbour


def _peel_trees(indptr: np.ndarray, degree: np.ndarray, neighbour: np.ndarray):
    """Peel degree-1 nodes, a round of current leaves at a time, until none is left.

    Returns per node the size s of the tree it roots (itself plus
    everything peeled into it) and the sum q of its child subtrees'
    squared sizes, both int64, and the 2-core mask. Each leaf is peeled
    into its one neighbour not yet peeled. When a tree component is down
    to two nodes, both are leaves of the same round and each is peeled
    into the other, so each ends up with the sizes of the whole tree
    rooted at itself, which is what its score needs.
    """
    left = degree.copy()  # edges to nodes not yet peeled; at most 0 once peeled
    size = np.ones(degree.size, dtype=np.int64)
    squares = np.zeros(degree.size, dtype=np.int64)
    leaves = np.flatnonzero(left == 1)
    while leaves.size:
        count = degree[leaves]
        stop = np.cumsum(count)
        near = neighbour[np.repeat(indptr[leaves] - stop + count, count) + np.arange(stop[-1])]
        parent = near[left[near] > 0]  # exactly one per leaf, in leaf order
        peeled = size[leaves]  # read before the adds: the two ends of a K2 are each other's parent
        left[leaves] = 0
        np.subtract.at(left, parent, 1)
        np.add.at(size, parent, peeled)
        np.add.at(squares, parent, peeled**2)
        leaves = np.sort(parent[left[parent] == 1])
        leaves = leaves[np.diff(leaves, prepend=-1) != 0]  # not np.unique: its first call adds 0.9 MB of RSS
    return size, squares, left > 0


def _brandes_batches(n: int, edges: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Weighted Brandes scores on a graph in which every node has at least two edges.

    Source s adds weight[s] · δ_s(v) to node v, where δ_s(v) sums, over
    targets t, weight[t] times the share of s-t shortest paths through v.
    The sources run LANES at a time, one `_brandes_lanes` task each,
    through `_ordered_map`, and the blocks' partial scores are added in
    block order. Float sums depend on their order, and this one is fixed by
    the graph alone: the scores are the same bit for bit inline or forked,
    on any CPU count.
    """
    indptr, degree, neighbour = _csr(n, edges)
    lanes = functools.partial(_brandes_lanes, n, indptr, neighbour, np.repeat(np.arange(n), degree), weight)
    return sum(_ordered_map(lanes, range(0, n, LANES), LANES * (n + neighbour.size)))


def _brandes_lanes(n, indptr, neighbour, tail, weight, lo) -> np.ndarray:
    """Weighted Brandes scores of the sources lo .. lo + LANES - 1, source lo + j in bit lane j.

    BFS runs on words: bit j of word v is set once lane j reaches v, and a
    level is the OR over each node's half-edges (reduceat needs every node
    to own one) less what is seen. Levels are written into bit planes and
    unpacked once. An unreached (v, j) stays at level 0: neither it nor
    lane j's source is adjacent to a node one level deeper in lane j. The
    shortest-path DAG holds every (half-edge, lane) whose head is one level
    below its tail, stably sorted by level, and σ sums along it level by
    level. Dependencies go back up in reciprocal form, with the invariant
    r = (weight + δ) / σ: r starts at weight / σ and adds r[head] to r[tail]
    along each DAG edge, so δ = σ · (r - weight / σ), exactly 0 at a node
    with no DAG child and at an unreached one (σ = 0).
    """
    src = np.arange(lo, min(lo + LANES, n))
    origin = src * LANES + np.arange(src.size)
    seen = np.zeros(n, dtype=np.uint32)
    seen[src] = np.uint32(1) << np.arange(src.size, dtype=np.uint32)
    front, planes, depth = seen, np.zeros((n.bit_length(), n), dtype=np.uint32), 0  # every level is below n
    while (front := np.bitwise_or.reduceat(front[neighbour], indptr) & ~seen).any():
        seen |= front
        depth += 1
        planes[[b for b in range(depth.bit_length()) if depth >> b & 1]] |= front  # the planes of depth's one bits
    level = np.zeros((n, LANES), dtype=np.min_scalar_type(depth + 1))  # no level + 1 overflows
    bits = np.unpackbits(planes[: depth.bit_length()].astype("<u4").view(np.uint8), axis=1, bitorder="little")
    for b, plane in enumerate(bits.reshape(-1, n, LANES)):
        level |= plane.astype(level.dtype) << b
    tail_level = level[tail]
    dag = np.flatnonzero(level[neighbour] == tail_level + 1)  # (half-edge, lane) codes e·LANES + j
    at = tail_level.ravel()[dag]
    dag = dag[np.argsort(at, kind="stable")]
    edge = dag // LANES
    tails = dag + (tail[edge] - edge) * LANES  # state codes v·LANES + j
    heads = dag + (neighbour[edge] - edge) * LANES
    bounds = np.cumsum(np.bincount(at, minlength=depth)).tolist()
    steps = list(zip([0] + bounds[:-1], bounds))
    sigma = np.zeros(n * LANES)
    sigma[origin] = 1.0
    for a, b in steps:
        np.add.at(sigma, heads[a:b], sigma[tails[a:b]])
    paths = sigma.reshape(n, LANES)
    share = np.divide(weight[:, None], paths, out=np.zeros((n, LANES)), where=paths > 0).ravel()
    r = share.copy()
    for a, b in reversed(steps):
        np.add.at(r, tails[a:b], r[heads[a:b]])
    delta = sigma * (r - share)
    delta[origin] = 0.0
    return (delta.reshape(n, LANES)[:, : src.size] * weight[src]).sum(axis=1)


def removal_order(graph: NetworkGraph, scheme: str, seed: int) -> np.ndarray:
    """Full node removal order for an attack scheme.

    Random orders are seeded permutations, trial 0 of the orders that
    random-attack averages draw; degree and betweenness orders are
    static (computed once on the intact graph), descending, with index
    tie-breaks. Betweenness scores are rounded to TIE_DIGITS significant
    digits before sorting, so scores equal in exact arithmetic tie
    whatever order their float sums ran in.
    """
    scheme = _attack_scheme(scheme)
    _seed(seed)
    if scheme == RANDOM:
        return _random_order(graph, seed, 0)
    if scheme == INTENTIONAL:
        return np.lexsort((np.arange(graph.n), -graph.degrees()))
    return np.lexsort((np.arange(graph.n), -_round_significant(betweenness(graph), TIE_DIGITS)))


def _round_significant(x: np.ndarray, digits: int) -> np.ndarray:
    """Round each value to `digits` significant decimal digits; zeros stay zero."""
    exponent = np.floor(np.log10(np.abs(x), out=np.zeros_like(x), where=x != 0))
    scale = 10.0 ** (digits - 1 - exponent)
    return np.round(x * scale) / scale


def _random_order(graph: NetworkGraph, seed: int, trial: int) -> np.ndarray:
    """Random removal order of trial `trial`, drawn from stream (seed, 0xA7, trial)."""
    return rng_stream(seed, 0xA7, trial).permutation(graph.n)


def _order(graph: NetworkGraph, scheme: str, seed: int, trial: int) -> np.ndarray:
    """Removal order of one attack trial: the seeded random order of `trial`, or the scheme's one static order."""
    return _random_order(graph, seed, trial) if scheme == RANDOM else removal_order(graph, scheme, seed)


def _survival_times(graph: NetworkGraph, order: np.ndarray) -> np.ndarray:
    """Per edge, the earlier removal position t_e of its ends; the edge is present while at most t_e nodes are gone."""
    position = np.empty(graph.n, dtype=np.int64)
    position[order] = np.arange(graph.n)
    return np.minimum(position[graph.edges[:, 0]], position[graph.edges[:, 1]])


def _tau_constants(graph: NetworkGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order-free part of `_tau_by_removed`: key base u·(n+1) + n by half-edge and by sorted position; 2r + 1."""
    n = graph.n
    degrees = graph.degrees()
    rank = np.arange(2 * graph.edge_count) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    return graph.edges.T.ravel() * (n + 1) + n, np.repeat(np.arange(n) * (n + 1) + n, degrees), 2.0 * rank + 1


def _tau_by_removed(graph: NetworkGraph, order: np.ndarray, constants) -> np.ndarray:
    """Molloy-Reed tau of what survives each removal prefix of `order`, by removed count m = 0..n.

    Going back in time, a node's degree grows by one at each of its edges'
    survival times, so its half-edge of rank r (0 for the latest t_e) adds
    2r + 1 to the sum of squared degrees. Both sums are exact integers, and
    tau is 0 once no edge survives. `constants`, from `_tau_constants`,
    serves every order on one graph.
    """
    n = graph.n
    base, offset, weights = constants
    times = _survival_times(graph, order)
    # half-edges grouped by node, latest survival time first; a key's offset less the key is its time
    key = np.sort(base - np.concatenate((times, times)))
    s2 = np.bincount(offset - key, weights=weights, minlength=n + 1)[::-1].cumsum()[::-1]
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
    `average_random_attack`. The plan must be sized for this graph.
    """
    if plan.n != graph.n:
        raise ConfigError(f"attack plan is sized for n={plan.n}, but the graph has {graph.n} nodes")
    return _removal_curve(graph, plan.scheme, plan.q, step_count, 1, seed)


def average_random_attack(graph: NetworkGraph, q: float, step_count: int, trials: int, seed: int) -> RemovalCurve:
    """Random-attack curve averaged over `trials` seeded removal orders.

    Each trial is one task of `_ordered_map` that returns its own arrays,
    and the parent adds them in trial order, so the curve is the same bit
    for bit inline or forked, on any CPU count.
    """
    return _removal_curve(graph, RANDOM, q, step_count, trials, seed)


def _removal_curve(graph, scheme, q, step_count, trials, seed) -> RemovalCurve:
    """Response curve from 0 to q, averaged over the `trials` orders of `_order`."""
    _seed(seed)
    step_count = _count(step_count, "step_count", 2)
    trials = _count(trials, "trials")
    fractions = np.linspace(0.0, _attacked_fraction(q), step_count)
    removed = np.minimum(np.round(fractions * graph.n).astype(np.int64), graph.n)
    response = functools.partial(_trial_response, graph, scheme, seed, removed, _tau_constants(graph))
    lcc_acc = np.zeros(graph.n + 1)
    tau_acc = np.zeros(step_count)
    for lcc, tau in _ordered_map(response, range(trials), graph.n + 2 * graph.edge_count):
        lcc_acc += lcc / graph.n
        tau_acc += tau
    lcc = lcc_acc / trials
    return RemovalCurve(
        removed_fraction=fractions,
        lcc_fraction=lcc[removed],
        remaining_tau=tau_acc / trials,
        lcc_by_removed=lcc,
    )


def _trial_response(graph, scheme, seed, removed, constants, trial) -> tuple[np.ndarray, np.ndarray]:
    """(LCC sizes by removed count, tau at `removed`) of the removal order of `trial`."""
    order = _order(graph, scheme, seed, trial)
    return _lcc_by_removed(graph, order), _tau_by_removed(graph, order, constants)[removed]


def _first_crossing(tau: np.ndarray) -> int:
    """Smallest removal count at which tau drops to 2 or below."""
    return int(np.argmax(tau <= 2.0))


def estimate_qc(graph: NetworkGraph, scheme: str, trials: int, seed: int) -> QcEstimate:
    """Empirical critical fraction: first q where surviving tau falls to <= 2.

    Random attacks are averaged over `trials` seeded orders; targeted
    orders are deterministic.
    """
    trials = _count(trials, "trials")
    scheme = _attack_scheme(scheme)
    _seed(seed)
    if graph.tau() <= 2.0:
        return QcEstimate(0.0, True)
    constants = _tau_constants(graph)
    orders = (_order(graph, scheme, seed, trial) for trial in range(trials if scheme == RANDOM else 1))
    crossings = [_first_crossing(_tau_by_removed(graph, order, constants)) / graph.n for order in orders]
    return QcEstimate(float(np.mean(crossings)), False)
