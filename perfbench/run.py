"""Benchmark for the seqdef package: three closed-loop, single-process workloads.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload powergrid --seed 0 --seconds 20 --trace 0

Workloads (the seed shifts every input seed; seed 0 is the configuration of
the acceptance tests and of the ROADMAP baseline):

  powergrid    the `powergrid` CLI command, --trials 100, on the 4941-node
               ER(2.67) stand-in for the US power grid. Betweenness
               dominates; reverse percolation is a small share.
  percolation  the c04 acceptance pipeline at n = 1e5: generate a
               power-law (alpha 2.5, k 1..1000) and an ER (k_hat 4) graph,
               rebuild each as NetworkGraph(n, edges), estimate q_c over 5
               random-attack trials. Never calls betweenness.
  detection    simulate_detection for one detector (0.5, 0.01) and risk
               (0.01, 0.001) in four regimes that use the kernel
               differently: long tests under H1 and H0, a short budget with
               truncation, and a targeted plan whose informative segment is
               followed by inert columns.

Every workload also runs the five analytic CLI commands (qc-sweep, m1,
worst-case, empirical, operation-curves) in-process, outside wall_s.

A run sets up several times (import in a fresh interpreter, input
generation and writing, warm-up) and reports the median as setup_s. It
then repeats the workload body until --seconds have passed (at least
once) and reports the median body time as wall_s. Batches of analytic
CLI passes run before the first body pass and after each one, so that
analytic_cli_ms, their median, samples the whole run. With --trace 1 one
more pass of the body runs with spans around calls into public functions
of graph_engine, degree_models and sprt_engine, recorded from here, and
the run prints the per-layer metrics of BENCHMARK.json instead of the
end-to-end ones; a layer the workload does not run reads 0.

Output checks run after the timed passes, on the first pass's outputs,
with the acceptance tests' tolerances; every later pass, CLI pass and the
traced pass must reproduce the first one's output digests. The c04
tolerance for the power-law graph is checked at the c04 test's own
inputs (seed 0), which percolation runs once more, untimed, at any other
seed; at other seeds its 5-trial estimate is reported beside that check
but not counted, because it misses the 0.02 tolerance on about 30% of
seeds. The ER estimate is checked at every seed.

The last stdout line is the result object {"correct", "attempted",
"failed", "metrics"}, where attempted and failed count checks. The line
before it records the environment, every check and every output digest,
and names digests that differ from those stored in perfbench/digests.json
(reported, not counted as a failure).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SIZES = {
    "paper": {
        "grid_nodes": 4941,
        "grid_trials": 100,
        "perc_nodes": 10**5,
        "perc_kmax": 1000,
        "det_trials": {"long_h1": 100_000, "long_h0": 100_000, "short_h1": 800_000, "targeted_h1": 2_000_000},
        "cli_batch": 25,
        "setup_reps": 5,
    },
    # Smoke-test size. The power-law cutoff shrinks with n (k_max = sqrt(n))
    # so that the configuration model stays close to its analytic q_c.
    "tiny": {
        "grid_nodes": 300,
        "grid_trials": 5,
        "perc_nodes": 10**4,
        "perc_kmax": 100,
        "det_trials": {"long_h1": 4000, "long_h0": 4000, "short_h1": 4000, "targeted_h1": 4000},
        "cli_batch": 3,
        "setup_reps": 1,
    },
}

ANALYTIC_COMMANDS = ("qc-sweep", "m1", "worst-case", "empirical", "operation-curves")

# name, scheme, attacked fraction q, report budget m_c, truth, base seed.
# Base seeds are those of the c06 (42, 43) and c08 (7) acceptance tests.
REGIMES = (
    ("long_h1", "random", 0.3, 10_000, "h1", 42),
    ("long_h0", "random", 0.3, 10_000, "h0", 43),
    ("short_h1", "random", 0.3, 50, "h1", 7),
    ("targeted_h1", "intentional", 0.002, 200, "h1", 44),
)
DETECTOR = (0.5, 0.01)
RISK = (0.01, 0.001)
C04_TOLERANCE = 0.02
C04_ESTIMATE_SEED = 11


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _import_package():
    """Import seqdef from this checkout's src/, never from an installed copy."""
    if not (SRC / "seqdef" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: seqdef sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqdef
    import seqdef.experiments_cli  # noqa: F401

    if Path(seqdef.__file__).resolve().parent != SRC / "seqdef":
        raise SystemExit(f"perfbench: imported seqdef from {seqdef.__file__}, not from {SRC}")


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import seqdef.experiments_cli; print(time.perf_counter() - start)"
)


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter; this process has imported it already."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(probe.stdout)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


Span = collections.namedtuple("Span", "label seconds info")


class Tracer:
    """Spans around calls into seqdef, taken from outside the package.

    `patched()` rebinds each traced function, in every seqdef module that
    holds it, to a wrapper that records its wall time and a few sizes read
    from its arguments or result. `scope(tag)` appends `.tag` to the labels
    of spans recorded inside it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._tag = ""

    @contextlib.contextmanager
    def scope(self, tag):
        self._tag = "." + tag
        try:
            yield
        finally:
            self._tag = ""

    def call(self, label, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        self.spans.append(Span(label + self._tag, time.perf_counter() - start, {}))
        return result

    def _wrap(self, label, fn, describe):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            bound = signature.bind(*args, **kwargs).arguments
            name, info = describe(bound, result) if describe else ("", {})
            self.spans.append(Span(label + name + self._tag, seconds, info))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        modules = [m for name, m in sys.modules.items() if name == "seqdef" or name.startswith("seqdef.")]
        for module_name, func_name, describe in TRACED:
            original = getattr(sys.modules[f"seqdef.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, describe)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    saved.append((module, func_name, original))
                    setattr(module, func_name, wrapper)
        try:
            yield self
        finally:
            for module, func_name, original in reversed(saved):
                setattr(module, func_name, original)

    def total(self, label):
        return sum(s.seconds for s in self.spans if s.label == label)

    def info_sum(self, label, key):
        return sum(s.info.get(key, 0) for s in self.spans if s.label == label)


class Untraced:
    """Same interface as Tracer, recording nothing."""

    scope = staticmethod(lambda tag: contextlib.nullcontext())
    call = staticmethod(lambda label, fn, *args: fn(*args))


def _attack_scheme(bound, result):
    return ("_degree" if bound["plan"].scheme == "intentional" else "_" + bound["plan"].scheme), {}


# module, function, describe(bound arguments, result) -> (label suffix, sizes)
TRACED = (
    ("graph_engine", "load_edge_list", lambda a, r: ("", {"nodes": r.n, "edges": r.edge_count})),
    ("graph_engine", "average_random_attack", lambda a, r: ("", {"passes": a["trials"]})),
    ("graph_engine", "simulate_attack", _attack_scheme),
    # every removal order is consumed by one reverse-percolation pass
    ("graph_engine", "removal_order", lambda a, r: ("", {"passes": 1})),
    # exact Brandes runs one BFS per node
    ("graph_engine", "betweenness", lambda a, r: ("", {"sources": a["graph"].n})),
    ("graph_engine", "generate", lambda a, r: ("", {"edges": r.edge_count, "stubs_dropped": r.stubs_dropped})),
    ("graph_engine", "generate_from_sequence", None),
    ("graph_engine", "estimate_qc", None),
    ("degree_models", "sample_degree_sequence", lambda a, r: ("", {"degree_sum": int(r.sum())})),
    ("sprt_engine", "simulate_detection", None),
)


# --- workloads -----------------------------------------------------------
#
# Each workload has setup(), body(tracer) -> facts, check(facts) -> a list
# of (name, ok, detail), digests(facts) -> {output name: digest} and
# layers(tracer, facts, wall) -> per-layer metrics. Only body() is timed.
# Checks run on the first pass; later passes must reproduce its digests.


class Powergrid:
    """`seqdef powergrid` on the ER(2.67) stand-in for the US power grid."""

    def __init__(self, seed, size):
        self.seed = seed
        self.nodes = size["grid_nodes"]
        self.argv = [
            "powergrid", "--graph", "powergrid.edges", "--trials", str(size["grid_trials"]),
            "--seed", str(seed), "--out", "powergrid.csv",
        ]

    def setup(self):
        from seqdef import DegreeModel, generate
        from seqdef.experiments_cli import run

        graph = generate(DegreeModel.er(2.67, n=self.nodes), self.nodes, seed=3 + self.seed)
        self.edge_count = graph.edge_count
        self.input_digest = _sha(_write_edge_list(graph, "powergrid.edges"))
        warm = generate(DegreeModel.er(2.67, n=60), 60, seed=1)
        _write_edge_list(warm, "warm.edges")
        _require_ok(run(["powergrid", "--graph", "warm.edges", "--trials", "2", "--out", "warm.csv"]), "powergrid warm-up")

    def body(self, tracer):
        from seqdef.experiments_cli import run

        return {"exit": run(self.argv)}

    def check(self, facts):
        lines = Path("powergrid.csv").read_text().splitlines()
        meta = next((line for line in lines if line.startswith("meta,")), "")
        sizes = f"nodes={self.nodes},edges={self.edge_count}"
        return [("powergrid.all_nodes_read", facts["exit"] == 0 and sizes in meta, meta)]

    def digests(self, facts):
        return {"powergrid.edges": self.input_digest, "powergrid.csv": _sha(Path("powergrid.csv").read_bytes())}

    def layers(self, tracer, facts, wall):
        named = ("load_edge_list", "average_random_attack", "simulate_attack_degree", "betweenness")
        metrics = {f"graph_engine.{name}_s": tracer.total(f"graph_engine.{name}") for name in named}
        metrics["experiments_cli.powergrid_unattributed_s"] = wall - sum(metrics.values())
        metrics["graph_engine.nodes"] = tracer.info_sum("graph_engine.load_edge_list", "nodes")
        metrics["graph_engine.edges"] = tracer.info_sum("graph_engine.load_edge_list", "edges")
        metrics["graph_engine.percolation_passes"] = tracer.info_sum(
            "graph_engine.average_random_attack", "passes"
        ) + tracer.info_sum("graph_engine.removal_order", "passes")
        metrics["graph_engine.bfs_sources"] = tracer.info_sum("graph_engine.betweenness", "sources")
        return metrics


class Percolation:
    """The c04 pipeline: generate, rebuild, estimate q_c for PL and ER graphs."""

    def __init__(self, seed, size):
        from seqdef import DegreeModel, qc_random

        self.seed, self.nodes = seed, size["perc_nodes"]
        # graph seeds of the c04 acceptance test; the run's seed shifts them
        self.cases = (
            ("pl", DegreeModel.power_law(2.5, k_min=1, k_max=size["perc_kmax"]), 5),
            ("er", DegreeModel.er(4), 2),
        )
        self.analytic = {tag: qc_random(model).qc for tag, model, _ in self.cases}

    def setup(self):
        from seqdef import NetworkGraph, estimate_qc, generate

        for _, model, graph_seed in self.cases:
            graph = generate(model, 2000, graph_seed + self.seed)
            NetworkGraph(graph.n, graph.edges)
            estimate_qc(graph, "random", trials=2, seed=C04_ESTIMATE_SEED + self.seed)

    def _pipeline(self, tracer, shift, tags=("pl", "er")):
        from seqdef import NetworkGraph, estimate_qc, generate

        facts = {}
        for tag, model, graph_seed in self.cases:
            if tag not in tags:
                continue
            with tracer.scope(tag):
                graph = generate(model, self.nodes, graph_seed + shift)
                tracer.call("graph_engine.network_graph", NetworkGraph, graph.n, graph.edges)
                estimate = estimate_qc(graph, "random", trials=5, seed=C04_ESTIMATE_SEED + shift)
            facts[tag] = (graph.edges.tobytes(), graph.stubs_dropped, estimate.qc)
        return facts

    def body(self, tracer):
        return self._pipeline(tracer, self.seed)

    def check(self, facts):
        """c04's tolerance: on this seed's ER estimate, and on the c04 test's own power-law inputs.

        The 5-trial first-crossing estimate of the power-law q_c sits about
        0.015 below the analytic value with a spread of about 0.009, so it
        misses 0.02 on about 30% of seeds while the program computes what
        it specifies. This seed's power-law estimate rides along in the
        check's detail.
        """
        pl_analytic, er_analytic = self.analytic["pl"], self.analytic["er"]
        pl_seeded, er_qc = facts["pl"][2], facts["er"][2]
        pl_qc = pl_seeded if self.seed == 0 else self._pipeline(Untraced, 0, ("pl",))["pl"][2]
        pl_detail = f"estimate={pl_qc!r} analytic={pl_analytic!r}; seed {self.seed}: estimate={pl_seeded!r}"
        return [
            ("c04.pl", abs(pl_qc - pl_analytic) <= C04_TOLERANCE, pl_detail),
            ("c04.er", abs(er_qc - er_analytic) <= C04_TOLERANCE, f"estimate={er_qc!r} analytic={er_analytic!r}"),
        ]

    def digests(self, facts):
        return {f"percolation.{tag}": _sha(edges + repr((dropped, qc)).encode()) for tag, (edges, dropped, qc) in facts.items()}

    def layers(self, tracer, facts, wall):
        metrics = {}
        for tag, _, _ in self.cases:
            for name in ("estimate_qc", "generate", "network_graph"):
                metrics[f"graph_engine.{name}_s.{tag}"] = tracer.total(f"graph_engine.{name}.{tag}")
            metrics[f"graph_engine.edges.{tag}"] = tracer.info_sum(f"graph_engine.generate.{tag}", "edges")
            metrics[f"percolation_analytic.qc_abs_err.{tag}"] = abs(facts[tag][2] - self.analytic[tag])
        metrics["degree_models.sample_degree_sequence_s.pl"] = tracer.total("degree_models.sample_degree_sequence.pl")
        metrics["graph_engine.generate_from_sequence_s.pl"] = tracer.total("graph_engine.generate_from_sequence.pl")
        metrics["graph_engine.stubs_dropped.pl"] = tracer.info_sum("graph_engine.generate.pl", "stubs_dropped")
        degree_sum = tracer.info_sum("degree_models.sample_degree_sequence.pl", "degree_sum")
        metrics["graph_engine.stub_yield.pl"] = 2 * metrics["graph_engine.edges.pl"] / degree_sum
        return metrics


class Detection:
    """simulate_detection in four regimes of one detector and risk budget."""

    def __init__(self, seed, size):
        from seqdef import AttackPlan, DetectorProfile, RiskBudget

        self.detector, self.risk = DetectorProfile(*DETECTOR), RiskBudget(*RISK)
        self.regimes = [
            (name, AttackPlan(scheme, q, 10**4), m_c, truth, base + seed, size["det_trials"][name])
            for name, scheme, q, m_c, truth, base in REGIMES
        ]

    def setup(self):
        from seqdef import simulate_detection

        for _, plan, m_c, truth, seed, _ in self.regimes:
            simulate_detection(plan, self.detector, self.risk, m_c, 1000, seed, truth=truth)

    def body(self, tracer):
        from seqdef import simulate_detection

        facts = {}
        for name, plan, m_c, truth, seed, trials in self.regimes:
            with tracer.scope(name):
                facts[name] = simulate_detection(plan, self.detector, self.risk, m_c, trials, seed, truth=truth)
        return facts

    def check(self, facts):
        from seqdef import worst_case_bounds

        h0 = facts["long_h0"]
        bound = self.risk.delta / (1 - self.risk.theta)
        limit = bound + 3 * math.sqrt(bound * (1 - bound) / h0.trials)
        short = facts["short_h1"]
        plan, m_c = self.regimes[2][1], self.regimes[2][2]
        lower = worst_case_bounds(plan.q, self.detector, self.risk, m_c).accept_lower_bound
        floor = lower - 3 * math.sqrt(max(lower * (1 - lower), 1e-12) / short.trials)
        return [
            ("c06.long_h0", h0.attack_frequency <= limit, f"freq={h0.attack_frequency!r} limit={limit!r}"),
            ("c08.short_h1", short.attack_frequency >= floor, f"freq={short.attack_frequency!r} floor={floor!r}"),
        ]

    def digests(self, facts):
        return {f"detection.{name}": _sha(repr(summary).encode()) for name, summary in facts.items()}

    def layers(self, tracer, facts, wall):
        metrics = {}
        for name, summary in facts.items():
            seconds = tracer.total(f"sprt_engine.simulate_detection.{name}")
            reports = round(summary.mean_stop_index * summary.trials)
            metrics[f"sprt_engine.simulate_detection_s.{name}"] = seconds
            metrics[f"sprt_engine.reports.{name}"] = reports
            metrics[f"sprt_engine.reports_per_s.{name}"] = reports / seconds
            metrics[f"sprt_engine.truncated_frac.{name}"] = summary.truncated_frequency
        return metrics


WORKLOADS = {"powergrid": Powergrid, "percolation": Percolation, "detection": Detection}


def _write_edge_list(graph, path) -> bytes:
    """'u v' per edge plus a single-id line per isolated node, so every node is read back."""
    import numpy as np

    isolated = np.flatnonzero(graph.degrees() == 0).tolist()
    text = "".join(f"{a} {b}\n" for a, b in graph.edges.tolist()) + "".join(f"{v}\n" for v in isolated)
    data = text.encode()
    Path(path).write_bytes(data)
    return data


def _require_ok(code, what):
    if code != 0:
        raise RuntimeError(f"{what} exited with code {code}")


def _cli_pass():
    """Run the five analytic commands in-process; return (seconds per command, CSV digests)."""
    from seqdef.experiments_cli import run

    seconds, digests = {}, {}
    for command in ANALYTIC_COMMANDS:
        out = f"{command}.csv"
        start = time.perf_counter()
        code = run([command, "--out", out])
        seconds[command] = time.perf_counter() - start
        _require_ok(code, command)
        digests[f"cli.{command}.csv"] = _sha(Path(out).read_bytes())
    return seconds, digests


def _declared_units(kind):
    """Metric name -> unit for one metric kind of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _stored_digests(size, seed):
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(size, {}).get(str(seed), {}) if path.is_file() else {}


def measure(workload_name, seed, seconds, trace, size_name):
    """Run one workload in this process; return (info, result)."""
    nproc = _cap_threads()
    _import_package()
    import numpy

    size = SIZES[size_name]
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK)
    home = os.getcwd()
    os.chdir(work)
    try:
        workload = WORKLOADS[workload_name](seed, size)
        setups = []
        for _ in range(size["setup_reps"]):
            import_s = _import_seconds()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            _cli_pass()
            setups.append(import_s + time.perf_counter() - start)

        cli_walls, cli_times, cli_outputs = [], {c: [] for c in ANALYTIC_COMMANDS}, []

        def cli_batch():
            for _ in range(size["cli_batch"]):
                gc.collect()
                start = time.perf_counter()
                times, cli_digests = _cli_pass()
                cli_walls.append(time.perf_counter() - start)
                for command, value in times.items():
                    cli_times[command].append(value)
                cli_outputs.append(cli_digests)

        walls, outputs, timings = [], [], {}
        started = time.perf_counter()
        cli_batch()
        while not walls or time.perf_counter() - started < seconds:
            gc.collect()
            start = time.perf_counter()
            facts = workload.body(Untraced)
            walls.append(time.perf_counter() - start)
            if not outputs:
                first_facts = facts
            outputs.append(workload.digests(facts))
            cli_batch()
        checks = workload.check(first_facts)
        del first_facts
        first = outputs[0]
        if len(outputs) > 1:
            checks.append(("identical.body", all(d == first for d in outputs), f"{len(outputs)} passes"))
        checks.append(("identical.cli", all(d == cli_outputs[0] for d in cli_outputs), f"{len(cli_walls)} passes"))

        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "analytic_cli_ms": 1000 * statistics.median(cli_walls),
        }
        if trace:
            tracer = Tracer()
            gc.collect()
            with tracer.patched():
                start = time.perf_counter()
                facts = workload.body(tracer)
                traced_wall = time.perf_counter() - start
            checks.append(("identical.traced", workload.digests(facts) == first, ""))
            metrics = workload.layers(tracer, facts, traced_wall)
            for command, values in cli_times.items():
                metrics[f"experiments_cli.{command.replace('-', '_')}_ms"] = 1000 * statistics.median(values)
            metrics["bench.tracing_overhead_s"] = traced_wall - wall_s
            timings["traced_wall_s"] = traced_wall
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    declared = _declared_units("per_layer" if trace else "end_to_end")
    undeclared = metrics.keys() - declared.keys()
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    digests = {**first, **cli_outputs[0]}
    failed = [name for name, ok, _ in checks if not ok]
    stored = _stored_digests(size_name, seed)
    info = {
        "workload": workload_name,
        "seed": seed,
        "size": size_name,
        "trace": trace,
        "env": {
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _commit(),
            "machine": platform.machine(),
        },
        "walls_s": walls,
        "setups_s": setups,
        **timings,
        "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
        "digests": digests,
        "digest_changes": sorted(k for k, v in digests.items() if k in stored and stored[k] != v),
    }
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        # a layer this workload does not run reads 0
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in declared.items()},
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="paper", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
