"""Graph construction, ingestion, metrics, and attack simulation."""

import ast
import ctypes
import hashlib
import itertools
import subprocess
import sys
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
    DetectorProfile,
    NetworkGraph,
    RiskBudget,
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
    simulate_detection,
)
from seqdef import _rand
from seqdef._rand import GROUP_STATES
from seqdef.graph_engine import (
    _lcc_by_removed,
    _random_order,
    _removal_curve,
    _tau_by_removed,
    _tau_constants,
)

from conftest import leftover_children
from oracles import min_disruptive_fraction


def complete_graph(n):
    return NetworkGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return NetworkGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


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
        assert g.tau() == pytest.approx(6 / 4)

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


@st.composite
def raw_edge_lists(draw):
    # empty lists and lists of self-loops only leave no pair codes at all
    n = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(0, n - 1)
    loops = st.lists(node.map(lambda v: (v, v)), max_size=4)
    pairs = st.lists(st.tuples(node, node), max_size=3 * n)
    return n, draw(st.one_of(st.just([]), loops, pairs))


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


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, min_size=1, max_size=3 * n))
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
    # every removal prefix: LCC by depth-first search and tau from the surviving degrees
    order = np.array(data.draw(st.permutations(range(g.n))))
    lcc, tau = _lcc_by_removed(g, order), _tau_by_removed(g, order, _tau_constants(g))
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
        s1 = sum(len(nb) for nb in adj.values())
        s2 = sum(len(nb) ** 2 for nb in adj.values())
        assert lcc[m] == best
        assert tau[m] == (s2 / s1 if s1 else 0.0)


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


def test_betweenness_order_on_stand_in_is_pinned():
    # sha256 of the removal order's bytes, as the per-source frontier kernel gave it before the
    # bit-lane kernel replaced it; float noise in the scores must not reorder any node
    g = generate(DegreeModel.er(2.67, n=4941), 4941, seed=3)
    digest = hashlib.sha256(removal_order(g, "betweenness", 0).tobytes()).hexdigest()
    assert digest == "1ec86395b1b9ae290ca835b23f7a8e9606ab328a8f2cd06ce1036fa1babc7f20"
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


def test_keep_heap_runs_only_in_forked_workers():
    # the allocator settings are for forked workers alone; the calling process, and with it the
    # inline one-CPU path and every in-process workload, keeps glibc's defaults
    assert names_read("_keep_heap") == [("_rand.py", "_worker")]


def test_forked_betweenness_without_mallopt(monkeypatch, cpus):
    # where libc has no mallopt the workers keep the allocator's defaults; forked scores still equal
    # the inline ones
    g = generate(DegreeModel.er(2.67, n=900), 900, seed=4)
    assert forks(*lane_blocks(nx.k_core(to_networkx(g), 2)))
    cpus(1)
    inline = betweenness(g)
    cpus(2)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert np.array_equal(betweenness(g), inline)
    assert leftover_children() == []


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
        order = _random_order(g, 2, trial)
        lcc += _lcc_by_removed(g, order) / g.n
        tau += _tau_by_removed(g, order, _tau_constants(g))[removed]
    assert np.array_equal(curve.lcc_by_removed, lcc / trials)
    assert np.array_equal(curve.remaining_tau, tau / trials)
    assert leftover_children() == []


def test_cpus_and_group_states_change_no_output(monkeypatch, cpus):
    # the parent folds one result per lane block, trial or detection chunk in task order, so the CPU
    # count and GROUP_STATES only schedule: a map forked on 2 or 3 CPUs, whether every map forks
    # (GROUP_STATES = 1), the default or none does (2**40), gives the bits of the inline run
    g = generate(DegreeModel.er(2.67, n=900), 900, seed=4)
    assert forks(*lane_blocks(nx.k_core(to_networkx(g), 2)))
    detect = (AttackPlan("random", 0.3, 10**4), DetectorProfile(0.5, 0.01), RiskBudget(0.01, 0.001), 60, 20000, 3)
    runs = set()
    for states, count in itertools.product((1, GROUP_STATES, 2**40), (1, 2, 3)):
        monkeypatch.setattr(_rand, "GROUP_STATES", states)
        cpus(count)
        curve = average_random_attack(g, 0.5, 5, 40, seed=0)
        summary = simulate_detection(*detect)
        runs.add((betweenness(g).tobytes(), curve.lcc_by_removed.tobytes(), curve.remaining_tau.tobytes(), repr(summary)))
    assert len(runs) == 1


def test_only_ordered_map_reads_group_states():
    # the fork threshold is a scheduling choice made in one place; code that read it elsewhere could
    # make an output depend on it again
    assert names_read("GROUP_STATES") == [("_rand.py", "_ordered_map")]


def test_import_leaves_scipy_out():
    # the package's runtime dependency is numpy alone; scipy is a test-only dependency. The
    # forked map uses os.fork and pipes, so that neither importing `graph_engine` nor a forked
    # betweenness or detection run loads concurrent.futures, the logging it pulls in, or
    # multiprocessing
    src = Path(seqdef.__file__).resolve().parents[1]
    modules = ("scipy", "concurrent.futures", "logging", "multiprocessing")
    code = (
        "import sys, seqdef, seqdef.graph_engine\n"
        f"assert not any(m in sys.modules for m in {modules})\n"
        "from seqdef import *\n"
        "betweenness(generate(DegreeModel.er(2.67, n=900), 900, seed=4))\n"
        "simulate_detection(AttackPlan('random', 0.3, 50), DetectorProfile(0.5, 0.01), RiskBudget(0.01, 0.001), 50, 300000, 7)\n"
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
        lcc = _lcc_by_removed(g, removal_order(g, "random", seed=3))
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


class TestEstimateQc:
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

    def test_trials_validation(self):
        with pytest.raises(ConfigError):
            estimate_qc(star_graph(3), "random", trials=0, seed=0)
        with pytest.raises(ConfigError, match="trials"):  # was a bare TypeError
            estimate_qc(complete_graph(5), "random", trials=2.5, seed=0)

    def test_unknown_scheme_rejected_on_subcritical_graph(self):
        path4 = NetworkGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ConfigError):
            estimate_qc(path4, "entropy", trials=3, seed=0)
