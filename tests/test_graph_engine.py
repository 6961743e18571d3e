"""Graph construction, ingestion, metrics, and attack simulation."""

import ast
import ctypes
import functools
import hashlib
import itertools
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import seqdef
from seqdef import (
    AttackPlan,
    ConfigError,
    DegreeModel,
    NetworkGraph,
    average_random_attack,
    betweenness,
    estimate_qc,
    generate,
    generate_from_sequence,
    largest_component,
    load_edge_list,
    qc_random,
    removal_order,
    sample_degree_sequence,
    simulate_attack,
)
from seqdef import _rand
from seqdef._rand import GROUP_STATES, rng_stream
from seqdef import graph_engine
from seqdef.graph_engine import (
    REWIRE_SWEEPS,
    TIE_DIGITS,
    _configuration_model,
    _er_gnp,
    _excess_by_removed,
    _lcc_by_removed,
    _order,
    _removal_curve,
    _round_significant,
    _survival_times,
    _excess_constants,
)

from conftest import leftover_children
from oracles import (
    configuration_model,
    estimate_qc_by_tau,
    min_disruptive_fraction,
    molloy_reed_tau,
)


def complete_graph(n):
    return NetworkGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return NetworkGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def is_canonical(n, edges):
    """Whether `edges` is already in `NetworkGraph`'s stored form: every row a < b, pair codes a*n + b strictly increasing."""
    codes = edges[:, 0] * n + edges[:, 1]
    return bool((edges[:, 0] < edges[:, 1]).all() and (np.diff(codes) > 0).all())


class TestNetworkGraph:
    def test_canonicalization_counts(self):
        g = NetworkGraph(4, [(0, 1), (1, 0), (2, 2), (1, 2)])
        assert g.edge_count == 2
        assert g.self_loops_dropped == 1
        assert g.duplicates_dropped == 1
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_degrees_and_tau(self):
        g = NetworkGraph(3, [(0, 1), (1, 2)])
        assert list(g.degrees()) == [1, 2, 1]
        assert molloy_reed_tau(g.degrees().tolist()) == 6 / 4
        _, _, weights = _excess_constants(g)
        assert weights.sum() == 1 * -1 + 2 * 0 + 1 * -1  # the excess sum d(d - 2), below 0 as tau < 2

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ConfigError):
            NetworkGraph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "n, edges, labels",
        [
            (2.7, [(0, 1)], None),  # was built with 2 nodes
            (3, [(0.5, 1.9)], None),  # was the edge (0, 1)
            (3, [(0, float("nan"))], None),
            (3, [(0, 1, 2), (1, 2, 0)], None),  # was re-paired into (0, 1), (2, 1), (2, 0)
            (3, [0, 1, 2], None),
            (3, [(0, 1)], [5]),  # edge_text() then raised IndexError
            (3, [(0, 1)], [[1, 2, 3]]),
            (3, [(0, 1)], [5, 5, 5]),  # edge_text() wrote the self-loop "5 5", a different graph
        ],
    )
    def test_bad_inputs_rejected(self, n, edges, labels):
        with pytest.raises(ConfigError):
            NetworkGraph(n, edges, labels=labels)

    def test_whole_float_inputs_accepted(self):
        g = NetworkGraph(3.0, [(0.0, 2.0)], labels=[7, 8, 9])
        assert g.n == 3 and g.edges.tolist() == [[0, 2]]

    def test_changing_canonical_input_leaves_edges(self):
        # canonical input is stored without a sort; what is stored must still be the graph's own copy
        raw = np.array([[0, 1], [1, 2]])
        g = NetworkGraph(3, raw)
        raw[0] = (0, 2)
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize(
        "raw",
        [
            np.asfortranarray([[0, 1], [0, 2], [1, 2]]),
            np.array([[0, 1], [2, 2], [0, 2], [2, 2], [1, 2], [2, 2]])[::2],  # every other row
            np.array([[0, 9, 1], [0, 9, 2], [1, 9, 2]])[:, ::2],  # every other column
        ],
        ids=["fortran", "row_strided", "column_strided"],
    )
    def test_canonical_input_stored_c_contiguous_int64(self, raw):
        g = NetworkGraph(3, raw)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous


@st.composite
def raw_edge_lists(draw):
    # empty lists and lists of self-loops only leave no pair codes at all
    n = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(0, n - 1)
    loops = st.lists(node.map(lambda v: (v, v)), max_size=4)
    pairs = st.lists(st.tuples(node, node), max_size=3 * n)
    # sorted rows a < b, with repeats (which the canonical-input check must refuse) and without (stored as drawn)
    ordered = pairs.map(lambda ps: sorted((min(p), max(p)) for p in ps if p[0] != p[1]))
    return n, draw(st.one_of(st.just([]), loops, pairs, ordered, ordered.map(lambda ps: sorted(set(ps)))))


@settings(deadline=None)
@given(case=raw_edge_lists())
def test_canonicalization_matches_set_oracle(case):
    n, raw = case
    g = NetworkGraph(n, raw)
    counts = Counter((min(a, b), max(a, b)) for a, b in raw if a != b)
    assert g.edges.tolist() == [list(pair) for pair in sorted(counts)]
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(counts), 2)
    assert g.self_loops_dropped == sum(a == b for a, b in raw)
    assert g.duplicates_dropped == sum(counts.values()) - len(counts)


class TestGenerate:
    def test_er_mean_degree(self):
        g = generate(DegreeModel.er(4), 10**4, seed=7)
        assert 2 * g.edge_count / g.n == pytest.approx(4.0, abs=0.1)

    def test_er_determinism(self):
        a = generate(DegreeModel.er(4), 2000, seed=3)
        b = generate(DegreeModel.er(4), 2000, seed=3)
        c = generate(DegreeModel.er(4), 2000, seed=4)
        assert a.edge_text() == b.edge_text()
        assert a.edge_text() != c.edge_text()

    @pytest.mark.parametrize(
        "k_hat, n",
        [
            (5e-324, 3),  # k_hat / n rounds to 0, which numpy's geometric sampler rejects
            (1e-14, 1000),  # gaps near 1e17 overflowed their int64 sum: 'edge endpoint outside [0, n)'
            (1e-320, 100),  # gaps at the int64 limit wrapped the scan position, and the scan ran on
        ],
    )
    def test_er_with_vanishing_link_probability_is_empty(self, k_hat, n):
        assert generate(DegreeModel.er(k_hat, n=n), n, seed=0).edge_count == 0

    def test_er_edges_are_canonical(self):
        n = 3000
        assert is_canonical(n, _er_gnp(n, 4 / n, np.random.default_rng(1)))

    @pytest.mark.parametrize(
        "degrees, seed",
        [
            ([4] * 6, 3),  # dissolves accepted edges and their codes in `seen`
            (sample_degree_sequence(DegreeModel.power_law(2.5, k_max=40, n=2000), 2000, seed=2), 2),
        ],
        ids=["dissolve", "power_law"],
    )
    def test_configuration_model_edges_are_canonical(self, degrees, seed):
        degrees = np.array(degrees)
        edges, dropped = _configuration_model(degrees, degrees.size, np.random.default_rng(seed))
        assert is_canonical(degrees.size, edges)
        assert dropped == 0 and np.array_equal(np.bincount(edges.ravel(), minlength=degrees.size), degrees)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), kind=st.sampled_from(["hubs", "dissolve"]), seed=st.integers(0, 2**16))
    def test_configuration_model_matches_the_stable_sweep(self, data, kind, seed):
        # the lowest pair index of each run of equal codes is the copy a stable argsort ranks first.
        # Hubs make one sweep draw a code twice; a hub with more stubs than other nodes stalls the
        # sweeps, which then dissolve accepted edges
        if kind == "hubs":
            n = data.draw(st.integers(4, 40))
            degrees = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            for hub in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
                degrees[hub] = data.draw(st.integers(n // 2, n - 1))
        else:
            n = data.draw(st.integers(3, 6))
            others = data.draw(st.lists(st.integers(1, 2), min_size=n - 1, max_size=n - 1))
            degrees = [data.draw(st.integers(3 * n, 4 * n))] + others
        degrees = np.array(degrees)
        degrees[0] += degrees.sum() % 2
        edges, dropped, repeats, dissolves = configuration_model(degrees, n, rng_stream(seed, 0xCF), REWIRE_SWEEPS)
        assume(repeats if kind == "hubs" else dissolves)
        got, got_dropped = _configuration_model(degrees, n, rng_stream(seed, 0xCF))
        assert np.array_equal(got, edges) and got_dropped == dropped

    def test_configuration_model_preserves_sequence(self):
        model = DegreeModel.power_law(2.5, k_max=40, n=2000)
        seq = sample_degree_sequence(model, 2000, seed=17)
        g = generate_from_sequence(seq, seed=17)
        assert g.stubs_dropped == 0
        assert np.array_equal(np.sort(g.degrees()), np.sort(seq))

    def test_configuration_model_determinism(self):
        seq = sample_degree_sequence(DegreeModel.exponential(1.63), 1500, seed=2)
        a = generate_from_sequence(seq, seed=9)
        b = generate_from_sequence(seq, seed=9)
        assert a.edge_text() == b.edge_text()

    def test_odd_sum_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            generate_from_sequence([1, 1, 1], seed=0)

    @pytest.mark.parametrize(
        "degrees, match",
        [
            ([2, 2, 2.7], "whole"),  # was truncated to a triangle
            ([1.5, 1.5, 1], "whole"),  # was reported as an odd sum
            ([-1, 1, 2], "negative"),  # was a bare ValueError from np.repeat
            ([[1, 1], [1, 1]], "1-D"),  # was 'object too deep'
        ],
    )
    def test_bad_degree_sequence_rejected(self, degrees, match):
        with pytest.raises(ConfigError, match=match):
            generate_from_sequence(degrees, seed=0)

    # sha256 of edges.tobytes() and stubs_dropped: the conflict checks decide which stubs
    # the next shuffle sees and which pairings a dissolve frees, so any rewrite of them
    # must reproduce every draw
    @pytest.mark.parametrize(
        "case, expected",
        [
            ("one_sweep", ("d96ed50af1d832b35adea28a6ab23eae2f8bb0967465c06b0b0c721fb0647be8", 0)),
            ("later_sweeps", ("1c82be473ce4cb2231fbb929141303e0cc2b7b929cc372ba4cd62f4f6c9fe4c4", 0)),
            ("dissolve", ("216df43fb91be6c2ffe0e25096e463536716c45c5ba66b5fbb94eec75f4ee846", 0)),
            ("residual", ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 6)),
            ("power_law_1e4", ("d75175782712b677b813c1fce889116f5aeff1624b6b7971583794a2d47d2db7", 0)),
        ],
    )
    def test_configuration_model_pinned(self, case, expected):
        if case == "power_law_1e4":
            g = generate(DegreeModel.power_law(2.5, k_min=1, k_max=100), 10**4, seed=0)
        else:
            seq, seed = {
                "one_sweep": ([3, 3, 2, 2, 2, 1, 1, 2], 0),  # matched in the first sweep
                "later_sweeps": (
                    sample_degree_sequence(DegreeModel.power_law(2.5, k_max=40, n=2000), 2000, seed=2),
                    2,
                ),  # a second sweep re-draws the conflicts
                "dissolve": ([4] * 6, 3),  # 25 sweeps, 9 of them dissolve accepted edges
                "residual": ([4, 2], 0),  # no simple graph exists; all 6 stubs are dropped
            }[case]
            g = generate_from_sequence(seq, seed)
        assert (hashlib.sha256(g.edges.tobytes()).hexdigest(), g.stubs_dropped) == expected


class TestLoadEdgeList:
    def test_counts_and_remapping(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(
            "# a comment\n"
            "10 20\n"
            "20 10\n"  # duplicate (reversed)
            "3 3\n"  # self-loop
            "20 30\n"
            "99\n"  # isolated node declaration
        )
        g = load_edge_list(path)
        assert g.n == 5  # ids 3, 10, 20, 30, 99
        assert g.edge_count == 2
        assert g.self_loops_dropped == 1
        assert g.duplicates_dropped == 1
        assert list(g.labels) == [3, 10, 20, 30, 99]
        assert g.degrees()[list(g.labels).index(99)] == 0

    def test_edge_text_round_trip(self, tmp_path):
        # the ER power-grid stand-in has isolated nodes; the labelled graph has sparse ids
        source = tmp_path / "labelled.edges"
        source.write_text("10 20\n20 30\n99\n")
        for g in (generate(DegreeModel.er(2.67, n=4941), 4941, seed=3), load_edge_list(source)):
            path = tmp_path / "round.edges"
            path.write_text(g.edge_text())
            back = load_edge_list(path)
            assert back.n == g.n
            assert np.array_equal(back.edges, g.edges)
            assert np.array_equal(back.labels, np.arange(g.n) if g.labels is None else g.labels)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# nothing\n")
        with pytest.raises(ConfigError, match="no edges"):
            load_edge_list(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1 2\nfoo bar\n")
        with pytest.raises(ConfigError, match=":2"):
            load_edge_list(path)

    def test_id_beyond_int64_reports_number(self, tmp_path):
        # was a bare OverflowError from the label array, and a traceback from the CLI
        path = tmp_path / "bad.edges"
        path.write_text("1 2\n1 99999999999999999999\n")
        with pytest.raises(ConfigError, match=":2"):
            load_edge_list(path)

    def test_three_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1 2 3\n")
        with pytest.raises(ConfigError, match=":1"):
            load_edge_list(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("-1 2\n", ":1: node id outside"),
            ("1 2\n1 2 99999999999999999999\n", ":2: node id outside"),  # the range is checked before the count
        ],
    )
    def test_id_out_of_range_reports_number(self, tmp_path, text, match):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_edge_list(path)

    def test_byte_order_mark_ignored(self, tmp_path):
        # the mark was read as part of the first id: "malformed line '\ufeff10 20'"
        text = "10 20\n20 30\n99\n"
        plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        a, b = load_edge_list(plain), load_edge_list(marked)
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf10 20")
        assert (b.n, b.edges.tolist(), b.labels.tolist()) == (a.n, a.edges.tolist(), a.labels.tolist())

    def test_largest_id_kept_exactly(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(f"1 {2**63 - 1}\n")
        g = load_edge_list(path)
        assert g.labels.dtype == np.int64
        assert g.labels.tolist() == [1, 2**63 - 1]
        assert g.edges.tolist() == [[0, 1]]


@st.composite
def labelled_graphs(draw):
    # self-loops and repeated pairs are drawn too, and so are one node and no edges
    n = draw(st.integers(min_value=1, max_value=25))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    labels = sorted(draw(st.sets(st.integers(0, 10**6), min_size=n, max_size=n)))
    return NetworkGraph(n, edges, labels=labels)


@st.composite
def small_graphs(draw, max_nodes):
    # self-loops and repeated pairs are drawn too; unlinked nodes stay isolated
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return NetworkGraph(n, draw(st.lists(pairs, max_size=2 * n)))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=labelled_graphs())
def test_edge_text_round_trip_property(g, tmp_path):
    assume(g.edge_count > 0)
    path = tmp_path / "g.edges"
    path.write_text(g.edge_text())
    back = load_edge_list(path)
    assert back.n == g.n
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.labels, g.labels)
    assert np.array_equal(NetworkGraph(g.n, g.edges).edges, g.edges)


@settings(deadline=None)
@given(g=labelled_graphs(), data=st.data())
def test_reverse_percolation_matches_brute_force(g, data):
    # every removal prefix: LCC by depth-first search and the Molloy-Reed excess sum d(d - 2) from the
    # surviving degrees, an exact integer
    order = np.array(data.draw(st.permutations(range(g.n))))
    times = _survival_times(g, order)
    lcc, excess = _lcc_by_removed(g, times), _excess_by_removed(g, times, _excess_constants(g))
    for m in range(g.n + 1):
        alive = set(order[m:].tolist())
        adj = {v: [] for v in alive}
        for a, b in g.edges.tolist():
            if a in alive and b in alive:
                adj[a].append(b)
                adj[b].append(a)
        best, seen = 0, set()
        for root in alive:
            if root in seen:
                continue
            stack, size = [root], 0
            seen.add(root)
            while stack:
                size += 1
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            best = max(best, size)
        assert lcc[m] == best
        assert excess[m] == sum(len(nb) * (len(nb) - 2) for nb in adj.values())


class TestLargestComponent:
    def test_path_graph(self):
        size, members = largest_component(NetworkGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        assert size == 5
        assert members == [0, 1, 2, 3, 4]

    def test_two_triangles_tie_break(self):
        g = NetworkGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        size, members = largest_component(g)
        assert size == 3
        assert members == [0, 1, 2]  # lowest contained index wins the tie


def to_networkx(g):
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.edges.tolist())
    return graph


@settings(deadline=None)
@given(g=small_graphs(max_nodes=12))
def test_largest_component_matches_networkx(g):
    components = sorted(sorted(c) for c in nx.connected_components(to_networkx(g)))
    best = max(len(c) for c in components)
    expected = next(c for c in components if len(c) == best)  # lowest-index tie-break
    assert largest_component(g) == (best, expected)


@st.composite
def trees_on_cycles(draw, max_nodes):
    # each node links to one earlier node or starts a new tree, so the links alone form a
    # forest; a cycle over the first nodes, when drawn, hangs the trees rooted there off it
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n) if draw(st.booleans())]
    cycle = draw(st.integers(0, n))
    edges += [(i, (i + 1) % cycle) for i in range(cycle)] if cycle >= 3 else []
    return NetworkGraph(n, edges)


@settings(deadline=None)
@given(g=st.one_of(small_graphs(max_nodes=12), trees_on_cycles(max_nodes=14)))
def test_betweenness_matches_networkx(g):
    # networkx counts each unordered pair once; the raw score here counts both directions
    graph = to_networkx(g)
    raw = nx.betweenness_centrality(graph, normalized=False)
    normalized = nx.betweenness_centrality(graph)
    assert np.allclose(betweenness(g, normalized=False), [2 * raw[v] for v in range(g.n)], rtol=1e-12, atol=1e-12)
    assert np.allclose(betweenness(g), [normalized[v] for v in range(g.n)], rtol=0, atol=1e-12)


def forks(tasks, states):
    """Whether `_ordered_map` forks `tasks` tasks of `states` node and half-edge entries each, given 2 usable CPUs."""
    return tasks > 1 and tasks * states > GROUP_STATES


def lane_blocks(core):
    """(tasks, states) of the 32-source lane blocks that `betweenness` maps over a graph whose 2-core is `core`."""
    nodes = core.number_of_nodes()
    return -(-nodes // 32), 32 * (nodes + 2 * core.number_of_edges())


def test_betweenness_matches_networkx_across_batches():
    # every case the tree fold handles, on a graph whose 2-core has enough lane blocks to fork,
    # so that forked workers each run several blocks
    base = generate(DegreeModel.er(2.5, n=600), 600, seed=5)
    star = [(600, v) for v in range(601, 606)]
    pendant_path = [(0, 606), (606, 607), (607, 608), (608, 609)]
    k2 = [(610, 611)]
    # hung off node 1, 4 deep, branching at 612 and 613
    deep_tree = [(1, 612), (612, 613), (612, 614), (613, 615), (613, 616), (615, 617), (614, 618)]
    tree_component = [(620, 621), (621, 622), (621, 623), (623, 624), (623, 625), (625, 626)]
    extra = star + pendant_path + k2 + deep_tree + tree_component
    g = NetworkGraph(640, np.concatenate((base.edges, extra)))  # 627..639 isolated
    degrees = g.degrees()
    assert (degrees == 1).sum() > 20 and (degrees == 0).sum() >= 8
    graph = to_networkx(g)
    core = nx.k_core(graph, 2)  # what Brandes runs on after the fold
    assert core.number_of_nodes() < (degrees > 1).sum()
    blocks, states = lane_blocks(core)
    assert forks(blocks, states) and blocks > 4
    raw = nx.betweenness_centrality(graph, normalized=False)
    normalized = nx.betweenness_centrality(graph)
    assert np.allclose(betweenness(g, normalized=False), [2 * raw[v] for v in range(g.n)], rtol=1e-12, atol=1e-12)
    assert np.allclose(betweenness(g), [normalized[v] for v in range(g.n)], rtol=0, atol=1e-12)
    assert leftover_children() == []


def run_on_one_cpu(snippet):
    """Stdout bytes of `snippet`, run by a fresh interpreter that can use one CPU only."""
    code = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" + snippet
    src = Path(seqdef.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)}, capture_output=True, check=True, timeout=300
    )
    return child.stdout


def test_betweenness_independent_of_cpu_count():
    # one usable CPU runs the lane blocks inline; the scores must equal the forked runs'.
    # Workers finish in a different order from run to run, so partials summed as they
    # complete rather than in block order show up in one of a few forked runs
    inline = run_on_one_cpu(
        "import sys; from seqdef import DegreeModel, betweenness, generate; "
        "sys.stdout.buffer.write(betweenness(generate(DegreeModel.er(2.67, n=900), 900, seed=4)).tobytes())"
    )
    g = generate(DegreeModel.er(2.67, n=900), 900, seed=4)
    assert forks(*lane_blocks(nx.k_core(to_networkx(g), 2)))
    for _ in range(3):
        assert np.array_equal(np.frombuffer(inline), betweenness(g))
    assert leftover_children() == []


def assert_betweenness_matches_networkx(g):
    graph = to_networkx(g)
    raw = nx.betweenness_centrality(graph, normalized=False)
    assert np.allclose(betweenness(g, normalized=False), [2 * raw[v] for v in range(g.n)], rtol=1e-12, atol=1e-12)


def test_betweenness_matches_networkx_with_unreached_lanes():
    # a 2-core of three components, relabelled in index order, so that blocks of 32 lanes straddle
    # two of them and some lanes never reach part of the nodes of their block's BFS
    a = generate(DegreeModel.er(3.0, n=150), 150, seed=1)
    b = generate(DegreeModel.er(4.0, n=120), 120, seed=2)
    cycle = [(270 + i, 270 + (i + 1) % 20) for i in range(20)]
    g = NetworkGraph(290, np.concatenate((a.edges, b.edges + 150, cycle)))
    core = nx.k_core(to_networkx(g), 2)
    assert nx.number_connected_components(core) >= 3
    assert core.number_of_nodes() > 2 * 32
    assert_betweenness_matches_networkx(g)


@pytest.mark.parametrize(
    "n, edges",
    [
        (600, [(i, (i + 1) % 600) for i in range(600)]),  # cycle C_600, 300 levels deep
        (600, [(i, i + 2) for i in range(598)] + [(i, i + 1) for i in range(0, 600, 2)]),  # ladder, 300 rungs
    ],
    ids=["cycle", "ladder"],
)
def test_betweenness_matches_networkx_beyond_255_levels(n, edges):
    # levels past 255 must not wrap in a narrow level type
    assert_betweenness_matches_networkx(NetworkGraph(n, edges))


STAND_IN_ORDER = "1ec86395b1b9ae290ca835b23f7a8e9606ab328a8f2cd06ce1036fa1babc7f20"


def test_betweenness_order_on_stand_in_is_pinned():
    # sha256 of the removal order's bytes, as the per-source frontier kernel gave it before the
    # bit-lane kernel replaced it; float noise in the scores must not reorder any node
    g = generate(DegreeModel.er(2.67, n=4941), 4941, seed=3)
    digest = hashlib.sha256(removal_order(g, "betweenness", 0).tobytes()).hexdigest()
    assert digest == STAND_IN_ORDER
    assert leftover_children() == []


@functools.cache
def stand_in_raw_scores(seed):
    """Raw betweenness of stand-in `seed`, computed once for the tests that share it; any CPU count gives these bits."""
    return betweenness(generate(DegreeModel.er(2.67, n=4941), 4941, seed=seed), normalized=False)


def scrambled_stand_in(tmp_path):
    """(stand-in seed 3, perm, the stand-in loaded back from a scrambled edge list).

    Node i of the first is node perm[i] of the last. The raw list goes through NetworkGraph's sort
    path: ids permuted, half the rows reversed, 50 lines repeated, 7 self-loops, lines shuffled.
    """
    g = generate(DegreeModel.er(2.67, n=4941), 4941, seed=3)
    rng = np.random.default_rng(3)
    perm = rng.permutation(g.n)  # node i of g is written as id perm[i], which the loader makes node perm[i]
    rows = perm[g.edges]
    flip = rng.permutation(len(rows))[: len(rows) // 2]
    rows[flip] = rows[flip, ::-1]
    loops = np.repeat(rng.choice(g.n, 7, replace=False), 2).reshape(-1, 2)
    rows = np.concatenate((rows, rows[rng.choice(len(rows), 50, replace=False)], loops))
    lines = [f"{a} {b}\n" for a, b in rows[rng.permutation(len(rows))].tolist()]
    lines += [f"{v}\n" for v in perm[g.degrees() == 0].tolist()]  # isolated nodes
    path = tmp_path / "stand_in.edges"
    path.write_text("".join(lines))
    return g, perm, load_edge_list(path)


def same_up_to_ties(a, b, key):
    """Whether removal orders a and b meet equal `key` values (by node) in the same runs, each run the same node set."""
    if not np.array_equal(key[a], key[b]):
        return False
    run = np.cumsum(np.diff(key[a], prepend=key[a][:1]) != 0)
    return np.array_equal(a[np.lexsort((a, run))], b[np.lexsort((b, run))])


def test_sort_path_on_a_scrambled_stand_in(tmp_path):
    # the stand-in as a raw edge list, which `load_edge_list` canonicalizes on NetworkGraph's sort path
    g, perm, loaded = scrambled_stand_in(tmp_path)
    assert (loaded.n, loaded.self_loops_dropped, loaded.duplicates_dropped) == (g.n, 7, 50)
    assert np.allclose(betweenness(loaded, normalized=False)[perm], stand_in_raw_scores(3), rtol=1e-12, atol=0)
    order = _order(g, "random", 0, 0)
    times, image = _survival_times(g, order), _survival_times(loaded, perm[order])
    assert np.array_equal(_lcc_by_removed(loaded, image), _lcc_by_removed(g, times))
    assert np.array_equal(
        _excess_by_removed(loaded, image, _excess_constants(loaded)), _excess_by_removed(g, times, _excess_constants(g))
    )
    assert leftover_children() == []


def test_scrambled_stand_in_forked_and_threaded(tmp_path, monkeypatch, cpus):
    # the relation again with every map on 2 workers (GROUP_STATES = 0): lane blocks and random curves
    # fork, estimate_qc's trials run on threads, against the stand-in's runs inline on 1 CPU. The
    # scrambled graph's random trials take the images of the stand-in's orders
    g, perm, loaded = scrambled_stand_in(tmp_path)
    original, scored = graph_engine._order, []
    def image_order(graph, *args):
        return perm[original(g, *args)] if graph is loaded else original(graph, *args)

    monkeypatch.setattr(graph_engine, "_order", image_order)
    monkeypatch.setattr(graph_engine, "betweenness", lambda graph: scored.append(betweenness(graph)) or scored[-1])
    cpus(1)
    scores = stand_in_raw_scores(3) / ((g.n - 1) * (g.n - 2))  # as `betweenness` normalizes
    by_betweenness = np.lexsort((np.arange(g.n), -_round_significant(scores, TIE_DIGITS)))
    assert hashlib.sha256(by_betweenness.tobytes()).hexdigest() == STAND_IN_ORDER  # removal_order's
    images = {"betweenness": perm[by_betweenness], "degree": perm[removal_order(g, "degree", 0)]}
    curve, qc = average_random_attack(g, 0.5, 9, 8, seed=1), estimate_qc(g, "random", 5, 1)
    cpus(2)
    monkeypatch.setattr(_rand, "GROUP_STATES", 0)
    assert len(_rand._cpus(range(5), 1)) == 2
    by_scheme = {scheme: removal_order(loaded, scheme, 0) for scheme in images}
    assert np.allclose(scored[0][perm], scores, rtol=1e-12, atol=0)
    key = {"betweenness": _round_significant(scored[0], TIE_DIGITS), "degree": loaded.degrees()}
    for scheme, image in images.items():
        assert same_up_to_ties(by_scheme[scheme], image, key[scheme]), scheme
    image_curve = average_random_attack(loaded, 0.5, 9, 8, seed=1)
    assert np.array_equal(image_curve.lcc_by_removed, curve.lcc_by_removed)
    assert np.array_equal(image_curve.remaining_tau, curve.remaining_tau)
    assert estimate_qc(loaded, "random", 5, 1) == qc
    assert leftover_children() == []


def test_disjoint_union_of_two_stand_ins():
    # the 2-cores of seeds 3 and 4 (3,485 and 3,496 nodes) sit side by side, so one lane block holds
    # sources of both copies; no shortest path crosses, so each copy keeps its own raw scores, and
    # the largest component is the larger copy's
    a, b = (generate(DegreeModel.er(2.67, n=4941), 4941, seed=seed) for seed in (3, 4))
    union = NetworkGraph(a.n + b.n, np.concatenate((a.edges, b.edges + a.n)))
    raw = betweenness(union, normalized=False)
    assert np.allclose(raw[: a.n], stand_in_raw_scores(3), rtol=1e-12, atol=0)
    assert np.allclose(raw[a.n :], stand_in_raw_scores(4), rtol=1e-12, atol=0)
    (size_a, members_a), (size_b, members_b) = largest_component(a), largest_component(b)
    assert size_a != size_b
    larger = members_a if size_a > size_b else [v + a.n for v in members_b]
    assert largest_component(union) == (max(size_a, size_b), larger)
    assert leftover_children() == []


def names_read(name):
    """(file, enclosing function) of every place the package's modules read `name`; not its assignment or def."""
    reads = []
    for path in Path(seqdef.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        reads += [
            (path.name, owner.get(id(n)))
            for n in ast.walk(tree)  # names, attributes and imports
            if name in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None))
            and not isinstance(getattr(n, "ctx", None), ast.Store)
            and not isinstance(n, ast.FunctionDef)
        ]
    return reads


def test_keep_heap_set_once_at_graph_engine_import():
    # one heap policy per process: importing graph_engine sets it, and forked workers inherit it,
    # because fork copies glibc's malloc settings. The inline one-CPU path and every in-process
    # workload run under it too
    assert names_read("_keep_heap") == [("graph_engine.py", None)]


def test_forked_betweenness_without_mallopt(monkeypatch, cpus):
    # where libc has no mallopt the heap policy is a no-op and the allocator keeps its defaults;
    # forked scores still equal the inline ones
    g = generate(DegreeModel.er(2.67, n=900), 900, seed=4)
    assert forks(*lane_blocks(nx.k_core(to_networkx(g), 2)))
    cpus(1)
    inline = betweenness(g)
    cpus(2)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert _rand._keep_heap() is None
    assert np.array_equal(betweenness(g), inline)
    assert leftover_children() == []


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt")
def test_repeated_estimate_qc_takes_no_fresh_pages():
    # freed arrays stay in the heap for the next one; glibc's defaults hand them back to the
    # kernel, and the second call faulted 860 pages back in at n = 1e4
    delta = run_on_one_cpu(
        "import resource; from seqdef import DegreeModel, estimate_qc, generate\n"
        "g = generate(DegreeModel.er(4), 10**4, seed=2)\n"
        "estimate_qc(g, 'random', 5, 11)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "estimate_qc(g, 'random', 5, 11)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    assert int(delta) < 100


def test_random_curve_independent_of_cpu_count():
    # one usable CPU runs the trials inline; the curve must equal the forked runs'. As for
    # betweenness, a few forked runs catch trials added as their workers complete
    inline = run_on_one_cpu(
        "import sys; from seqdef import DegreeModel, average_random_attack, generate; "
        "c = average_random_attack(generate(DegreeModel.er(2.67, n=2000), 2000, seed=4), 0.5, 9, 150, seed=6); "
        "sys.stdout.buffer.write(c.lcc_by_removed.tobytes() + c.remaining_tau.tobytes())"
    )
    g = generate(DegreeModel.er(2.67, n=2000), 2000, seed=4)
    assert forks(150, g.n + 2 * g.edge_count)
    for _ in range(3):
        curve = average_random_attack(g, 0.5, 9, 150, seed=6)
        assert np.array_equal(np.frombuffer(inline[: 8 * (g.n + 1)]), curve.lcc_by_removed)
        assert np.array_equal(np.frombuffer(inline[8 * (g.n + 1) :]), curve.remaining_tau)
    assert leftover_children() == []


def test_random_curve_is_the_trial_order_sum():
    # each trial hands back its own arrays and the parent adds them in trial order, so the curve
    # from forked workers is the plain loop over single trials, bit for bit
    g = generate(DegreeModel.er(2.67, n=900), 900, seed=4)
    trials = 250
    assert forks(trials, g.n + 2 * g.edge_count)
    curve = average_random_attack(g, 0.5, 7, trials, seed=2)
    removed = np.round(np.linspace(0.0, 0.5, 7) * g.n).astype(np.int64)
    lcc, tau = np.zeros(g.n + 1), np.zeros(7)
    for trial in range(trials):
        times = _survival_times(g, _order(g, "random", 2, trial))
        lcc += _lcc_by_removed(g, times) / g.n
        tau += [molloy_reed_tau(np.bincount(g.edges[times >= m].ravel()).tolist()) for m in removed]
    assert np.array_equal(curve.lcc_by_removed, lcc / trials)
    assert np.array_equal(curve.remaining_tau, tau / trials)
    assert leftover_children() == []


def test_cpus_and_group_states_change_no_output(monkeypatch, cpus):
    # the parent folds one result per lane block or trial in task order, so the CPU
    # count and GROUP_STATES only schedule: a map forked on 2 or 3 CPUs, whether every map forks
    # (GROUP_STATES = 1), the default or none does (2**40), gives the bits of the inline run
    g = generate(DegreeModel.er(2.67, n=900), 900, seed=4)
    assert forks(*lane_blocks(nx.k_core(to_networkx(g), 2)))
    runs = set()
    for states, count in itertools.product((1, GROUP_STATES, 2**40), (1, 2, 3)):
        monkeypatch.setattr(_rand, "GROUP_STATES", states)
        cpus(count)
        curve = average_random_attack(g, 0.5, 5, 40, seed=0)
        runs.add((betweenness(g).tobytes(), curve.lcc_by_removed.tobytes(), curve.remaining_tau.tobytes()))
    assert len(runs) == 1


def test_only_the_worker_rule_reads_group_states():
    # the threshold is a scheduling choice made in one place, which both maps read; code that read it
    # elsewhere could make an output depend on it again
    assert names_read("GROUP_STATES") == [("_rand.py", "_cpus")]


def test_only_graph_tasks_use_the_map():
    # Brandes lane blocks and random trials are the map's two kinds of task; detection draws its runs
    # in one multinomial and imports no map
    assert set(names_read("_ordered_map")) == {
        ("graph_engine.py", None), ("graph_engine.py", "_brandes_batches"), ("graph_engine.py", "_removal_curve")
    }


def test_import_leaves_scipy_out():
    # the package's runtime dependency is numpy alone; scipy is a test-only dependency. The
    # forked map uses os.fork and pipes, so that neither importing `graph_engine` nor a forked
    # betweenness run loads concurrent.futures, the logging it pulls in, or multiprocessing
    src = Path(seqdef.__file__).resolve().parents[1]
    modules = ("scipy", "concurrent.futures", "logging", "multiprocessing")
    code = (
        "import sys, seqdef, seqdef.graph_engine\n"
        f"assert not any(m in sys.modules for m in {modules})\n"
        "from seqdef import *\n"
        "betweenness(generate(DegreeModel.er(2.67, n=900), 900, seed=4))\n"
        f"sys.exit(any(m in sys.modules for m in {modules}))"
    )
    assert subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)}).returncode == 0


class TestBetweenness:
    def test_star_center_dominates(self):
        scores = betweenness(star_graph(4))
        assert scores[0] == pytest.approx(1.0)
        assert np.allclose(scores[1:], 0.0)

    def test_cycle_symmetry(self):
        scores = betweenness(NetworkGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert np.allclose(scores, scores[0])
        assert scores[0] == pytest.approx(1 / 6)

    def test_path_middle_after_normalization(self):
        scores = betweenness(NetworkGraph(3, [(0, 1), (1, 2)]))
        assert scores[1] == pytest.approx(1.0)

    def test_accumulation_identity_against_pair_oracle(self):
        # oracle: sigma_st(v) = sigma_sv * sigma_vt when d(s,v)+d(v,t)=d(s,t),
        # computed from independent all-pairs BFS path counting
        rng = np.random.default_rng(14)
        for trial in range(3):
            n = 30
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.12]
            g = NetworkGraph(n, edges) if edges else star_graph(4)
            n = g.n
            neighbors = [[] for _ in range(n)]
            for a, b in g.edges.tolist():
                neighbors[a].append(b)
                neighbors[b].append(a)
            dist = np.full((n, n), -1, dtype=int)
            sigma = np.zeros((n, n))
            for s in range(n):
                dist[s][s] = 0
                sigma[s][s] = 1.0
                frontier = [s]
                while frontier:
                    nxt = []
                    for v in frontier:
                        for w in neighbors[v]:
                            if dist[s][w] < 0:
                                dist[s][w] = dist[s][v] + 1
                                nxt.append(w)
                            if dist[s][w] == dist[s][v] + 1:
                                sigma[s][w] += sigma[s][v]
                    frontier = nxt
            expected = np.zeros(n)
            for s, t, v in itertools.product(range(n), repeat=3):
                if len({s, t, v}) < 3 or dist[s][t] < 0 or dist[s][v] < 0 or dist[v][t] < 0:
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    expected[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
            raw = betweenness(g, normalized=False)
            assert np.allclose(raw, expected, atol=1e-9)
            assert raw.sum() == pytest.approx(expected.sum(), abs=1e-9)


class TestRemovalOrder:
    def test_degree_order_static_with_tie_break(self):
        g = NetworkGraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])  # degrees 1,3,2,2
        order = removal_order(g, "degree", seed=0)
        assert list(order) == [1, 2, 3, 0]

    def test_random_order_is_seeded_permutation(self):
        g = star_graph(5)
        a = removal_order(g, "random", seed=5)
        b = removal_order(g, "random", seed=5)
        assert np.array_equal(a, b)
        assert sorted(a) == list(range(g.n))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            removal_order(star_graph(3), "entropy", seed=0)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (200, [(i, (i + 1) % 200) for i in range(200)]),  # cycle C_200
            (200, [(i, (i + d) % 200) for i in range(200) for d in (1, 3)]),  # circulant C_200(1, 3)
            (100, [(i, 10 * (i // 10) + (i + 1) % 10) for i in range(100)] + [(i, (i + 10) % 100) for i in range(100)]),
        ],
        ids=["cycle", "circulant", "torus"],
    )
    def test_betweenness_ties_break_by_index_on_vertex_transitive_graphs(self, n, edges):
        # every node has the same score in exact arithmetic; float noise, which the cycle lacks
        # and the circulant and 10x10 torus have, must not order them
        g = NetworkGraph(n, edges)
        assert list(removal_order(g, "betweenness", seed=0)) == list(range(n))


class TestSimulateAttack:
    def test_complete_graph_linear_decay(self):
        curve = simulate_attack(complete_graph(5), AttackPlan("random", 1.0, 5), 6, seed=0)
        assert np.allclose(curve.lcc_fraction, [1.0, 0.8, 0.6, 0.4, 0.2, 0.0])
        assert curve.remaining_tau[-1] == 0.0

    def test_star_shatters_on_hub_removal(self):
        curve = simulate_attack(star_graph(9), AttackPlan("intentional", 0.1, 10), 2, seed=0)
        assert curve.lcc_fraction[0] == pytest.approx(1.0)
        assert curve.lcc_fraction[1] == pytest.approx(0.1)

    def test_zero_fraction_point_leaves_graph_untouched(self):
        g = generate(DegreeModel.er(3), 500, seed=1)
        before = g.edge_text()
        curve = simulate_attack(g, AttackPlan("random", 0.4, 500), 9, seed=2)
        assert g.edge_text() == before
        assert curve.removed_fraction[0] == 0.0
        assert curve.lcc_fraction[0] == largest_component(g)[0] / g.n

    def test_fractions_strictly_increasing(self):
        curve = simulate_attack(complete_graph(6), AttackPlan("random", 0.5, 6), 5, seed=0)
        diffs = np.diff(curve.removed_fraction)
        assert (diffs > 0).all()

    def test_targeted_curve_non_increasing(self):
        g = generate(DegreeModel.power_law(2.5, k_max=60, n=2000), 2000, seed=5)
        curve = simulate_attack(g, AttackPlan("intentional", 1.0, 2000), 21, seed=0)
        assert (np.diff(curve.lcc_fraction) <= 1e-12).all()

    def test_step_count_validation(self):
        with pytest.raises(ConfigError):
            simulate_attack(star_graph(3), AttackPlan("random", 0.5, 4), 1, seed=0)
        # a non-whole step count ended in a bare TypeError
        with pytest.raises(ConfigError, match="step_count"):
            simulate_attack(star_graph(3), AttackPlan("random", 0.5, 4), 2.5, seed=0)

    def test_degree_attack_dominates_random_on_power_law(self):
        # Monte-Carlo dominance with 100 random orders, one-sided slack 0.02
        g = generate(DegreeModel.power_law(2.5, k_max=60, n=2000), 2000, seed=5)
        degree_curve = simulate_attack(g, AttackPlan("intentional", 0.5, g.n), 10, seed=0)
        random_curve = average_random_attack(g, 0.5, 10, trials=100, seed=0)
        gaps = random_curve.lcc_fraction - degree_curve.lcc_fraction
        assert (gaps[1:] >= -0.02).all()


@pytest.mark.parametrize("q", [0.0, -0.5, 1.5, float("nan")])
def test_fraction_outside_unit_interval_rejected_by_curves(q):
    g = generate(DegreeModel.er(3), 200, seed=1)
    with pytest.raises(ConfigError, match="q"):
        average_random_attack(g, q, 5, trials=2, seed=0)
    with pytest.raises(ConfigError, match="q"):
        _removal_curve(g, "degree", q, 5, 1, 0)


class TestAverageRandomAttack:
    def test_validation(self):
        g = complete_graph(5)
        with pytest.raises(ConfigError, match="trials"):
            average_random_attack(g, 0.5, 5, trials=0, seed=0)
        # non-whole counts ended in a bare TypeError
        with pytest.raises(ConfigError, match="trials"):
            average_random_attack(g, 0.5, 5, trials=2.5, seed=0)
        with pytest.raises(ConfigError, match="step_count"):
            average_random_attack(g, 0.5, 2.5, trials=2, seed=0)

    def test_single_trial_is_the_random_simulate_attack(self):
        # one stream convention: removal_order(g, "random", seed) is trial 0
        g = generate(DegreeModel.er(3), 400, seed=1)
        single = simulate_attack(g, AttackPlan("random", 0.6, g.n), 7, seed=3)
        averaged = average_random_attack(g, 0.6, 7, trials=1, seed=3)
        assert np.array_equal(single.lcc_fraction, averaged.lcc_fraction)
        assert np.array_equal(single.remaining_tau, averaged.remaining_tau)
        lcc = _lcc_by_removed(g, _survival_times(g, removal_order(g, "random", seed=3)))
        removed = np.round(single.removed_fraction * g.n).astype(np.int64)
        assert np.array_equal(lcc[removed] / g.n, single.lcc_fraction)
        assert np.array_equal(lcc / g.n, single.lcc_by_removed)

    def test_determinism_and_shape(self):
        g = generate(DegreeModel.er(3), 400, seed=1)
        a = average_random_attack(g, 0.6, 7, trials=20, seed=3)
        b = average_random_attack(g, 0.6, 7, trials=20, seed=3)
        assert np.array_equal(a.lcc_fraction, b.lcc_fraction)
        assert len(a) == 7
        assert a.lcc_fraction[0] == pytest.approx(largest_component(g)[0] / g.n)


CYCLE_50 = [(i, (i + 1) % 50) for i in range(50)]


class TestEstimateQc:
    @settings(deadline=None)
    @given(g=small_graphs(max_nodes=30), seed=st.integers(0, 2**16), trials=st.integers(1, 4))
    def test_matches_the_float_tau_rule(self, g, seed, trials):
        # the integer excess D <= 0 gives the subcritical flag and the crossing of float tau <= 2, on the
        # same random and degree orders
        edges = g.edges.tolist()
        randoms = [_order(g, "random", seed, trial).tolist() for trial in range(trials)]
        assert tuple(estimate_qc(g, "random", trials, seed)) == estimate_qc_by_tau(g.n, edges, randoms)
        degree = [removal_order(g, "degree", seed).tolist()]
        assert tuple(estimate_qc(g, "degree", trials, seed)) == estimate_qc_by_tau(g.n, edges, degree)

    @pytest.mark.parametrize(
        "n, edges, qc",
        [
            (50, CYCLE_50, (0.0, True)),  # tau = 2 exactly: D = 0 on the intact graph
            (50, CYCLE_50 + [(0, 25)], (0.08, False)),  # D = 6 - 2 per removal here falls to 0 at m = 4
            (5, [], (0.0, True)),  # edgeless: D = 0, and tau counts as 0
            (10, [(i, i + 1) for i in range(0, 10, 2)], (0.0, True)),  # perfect matching: tau = 1, D = -10
        ],
        ids=["cycle", "cycle_with_chord", "edgeless", "perfect_matching"],
    )
    def test_excess_examples(self, n, edges, qc):
        g = NetworkGraph(n, edges)
        assert tuple(estimate_qc(g, "random", 1, 0)) == qc
        assert estimate_qc_by_tau(n, g.edges.tolist(), [_order(g, "random", 0, 0).tolist()]) == qc

    def test_already_subcritical_flagged(self):
        path4 = NetworkGraph(4, [(0, 1), (1, 2), (2, 3)])  # tau = 10/6 <= 2
        est = estimate_qc(path4, "random", trials=3, seed=0)
        assert est.qc == 0.0
        assert est.subcritical is True

    @settings(deadline=None)
    @given(g=small_graphs(max_nodes=8), seed=st.integers(0, 2**16))
    def test_estimate_is_at_least_exhaustive_minimum(self, g, seed):
        # no removal order disrupts the graph with fewer nodes than the smallest disruptive set
        floor = min_disruptive_fraction(g.n, g.edges.tolist())
        for scheme in ("random", "degree", "betweenness"):
            assert estimate_qc(g, scheme, trials=3, seed=seed).qc >= floor - 1e-12

    def test_er_random_matches_analytic(self):
        model = DegreeModel.er(4)
        g = generate(model, 30000, seed=2)
        est = estimate_qc(g, "random", trials=3, seed=11)
        assert est.qc == pytest.approx(qc_random(model).qc, abs=0.03)

    def test_targeted_below_random(self):
        g = generate(DegreeModel.power_law(2.5, k_max=60, n=3000), 3000, seed=6)
        targeted = estimate_qc(g, "degree", trials=1, seed=0)
        random_est = estimate_qc(g, "random", trials=3, seed=0)
        assert targeted.qc < random_est.qc

    # float hex of the 5-trial q_c at seed 11, and for ER the sha256 of edges.tobytes(): a change to
    # G(n, p) generation, canonicalization, survival times or the excess pass moves one of them
    RANDOM_QC_PINS = pytest.mark.parametrize(
        "model, seed, edges, qc",
        [
            (
                DegreeModel.er(4),
                2,
                "7c53538f4a5d081bf606abebd86c65c34cdca71798e6d69b2ec3d3eeb38a7eca",
                "0x1.807dd44135547p-1",
            ),
            (
                DegreeModel.power_law(2.5, k_max=100),
                0,
                "d75175782712b677b813c1fce889116f5aeff1624b6b7971583794a2d47d2db7",
                "0x1.c29f16b11c6d2p-1",
            ),
        ],
        ids=["er", "power_law"],
    )

    @RANDOM_QC_PINS
    def test_random_qc_pinned(self, model, seed, edges, qc):
        g = generate(model, 10**4, seed=seed)
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == edges
        assert estimate_qc(g, "random", 5, 11).qc.hex() == qc

    @RANDOM_QC_PINS
    def test_random_qc_pinned_on_threads(self, monkeypatch, cpus, model, seed, edges, qc):
        # at n = 1e4 the 5 trials run inline by default; on 2 threads they give the same bits
        g = generate(model, 10**4, seed=seed)
        cpus(2)
        monkeypatch.setattr(_rand, "GROUP_STATES", 0)
        assert len(_rand._cpus(range(5), g.n + 2 * g.edge_count)) == 2
        assert estimate_qc(g, "random", 5, 11).qc.hex() == qc

    def test_forked_betweenness_after_threaded_estimate_qc(self, monkeypatch, cpus):
        # the thread map joins its threads before it returns, so the fork map that follows forks a
        # process with one thread: no warning, no child left behind, and the inline scores
        g = generate(DegreeModel.er(2.67, n=900), 900, seed=4)
        assert forks(*lane_blocks(nx.k_core(to_networkx(g), 2)))
        cpus(1)
        inline, qc = betweenness(g), estimate_qc(g, "random", 5, 0)
        cpus(2)
        monkeypatch.setattr(_rand, "GROUP_STATES", 0)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_qc(g, "random", 5, 0) == qc
            assert threading.active_count() == threads
            assert np.array_equal(betweenness(g), inline)
        assert leftover_children() == []

    def test_trials_validation(self):
        with pytest.raises(ConfigError):
            estimate_qc(star_graph(3), "random", trials=0, seed=0)
        with pytest.raises(ConfigError, match="trials"):  # was a bare TypeError
            estimate_qc(complete_graph(5), "random", trials=2.5, seed=0)

    def test_unknown_scheme_rejected_on_subcritical_graph(self):
        path4 = NetworkGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ConfigError):
            estimate_qc(path4, "entropy", trials=3, seed=0)
