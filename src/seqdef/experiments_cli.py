"""Command-line harness: seeded, deterministic CSV sweeps.

Every command renders its full configuration into '#'-prefixed header
lines followed by one CSV table, so a rerun with the same configuration
is byte-identical. Commands:

  qc-sweep          thresholds of the three canonical models vs mean degree
  m1                expected report counts over (q, p_d, p_f) grids
  worst-case        truncated-test bounds over a critical-value grid
  empirical         reference parameter sets (WWW / Internet / EU grid)
  powergrid         attack curves and report markers on a real edge list
  operation-curves  minimum p_d vs p_f for given report budgets

ExperimentConfig is the one table of settings: each field name is both
a config-file key and a command-line flag (--<name>), with the field's
type and default. Flags override config-file keys, which override the
defaults.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, fields

from .degree_models import DegreeModel, moments
from .errors import ConfigError, InfeasibleError, NumericalError, SubcriticalError
from .graph_engine import average_random_attack, load_edge_list, simulate_attack
from .percolation_analytic import qc_intentional, qc_random
from .robust_design import min_detection
from .sprt_engine import (
    AttackPlan,
    DetectorProfile,
    RiskBudget,
    _attacked_fraction,
    expected_reports_intentional,
    expected_reports_random,
    worst_case_bounds,
)
from ._solve import bisect_root, ceil_count

_EMPIRICAL_NETWORKS = (
    # name, model kind, parameter, node count
    ("www", "power_law", 2.1, 325729),
    ("internet", "power_law", 2.5, 6209),
    ("eu_grid", "exponential", 1.63, 2783),
)


@dataclass
class ExperimentConfig:
    """Everything a command run depends on; echoed into the CSV header."""

    command: str = ""
    seed: int = 0
    out: str | None = None
    pd: float = 0.9
    pf: float = 0.001
    delta: float = 0.01
    theta: float = 0.001
    n: int = 10000
    kmin: int = 1
    kmax: int = 1000
    q: float = 0.5
    trials: int = 100
    graph: str | None = None
    steps: int = 21
    meandeg_grid: str = "1.2:6.4:14"
    q_grid: str = "0.05:1.0:20"
    pd_grid: str = "0.1:0.9:9"
    pf_list: str = "0.001,0.01,0.1"
    qc_grid: str = "0.02:0.6:30"
    pf_grid: str = "1e-4:0.1:10:log"
    mc_list: str = "1,5,10,50"
    khat_grid: str = "1.2:8.0:18"
    alpha_grid: str = "2.1:3.8:18"
    beta_grid: str = "0.8:4.0:17"

    def echo_lines(self) -> list[str]:
        pairs = []
        for f in fields(self):
            value = getattr(self, f.name)
            pairs.append(f"# {f.name} = {'' if value is None else _fmt(value)}")
        return pairs

    def detector(self) -> DetectorProfile:
        return DetectorProfile(self.pd, self.pf)

    def risk(self) -> RiskBudget:
        return RiskBudget(self.delta, self.theta)


# key -> type of every setting; str for the paths whose default is None
_KEY_TYPES = {
    f.name: str if f.default is None else type(f.default) for f in fields(ExperimentConfig) if f.name != "command"
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def parse_grid(text: str) -> list[float]:
    """Parse 'a,b,c' lists or 'lo:hi:count[:log]' ranges into floats; log ranges need lo, hi > 0."""
    text = text.strip()
    parts = text.split(":")
    log = parts[3:] == ["log"]
    try:
        if len(parts) == 1:
            return [float(tok) for tok in text.split(",") if tok.strip()]
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad grid spec {text!r}") from exc
    if len(parts) != (4 if log else 3) or count < 1 or (log and min(lo, hi) <= 0.0):
        raise ConfigError(f"bad grid spec {text!r}")
    if count == 1:
        return [lo]
    if log:
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return [lo * ratio**i for i in range(count)]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _render(config: ExperimentConfig, columns: list[str], rows: list[list[str]]) -> str:
    lines = config.echo_lines()
    lines.append(",".join(columns))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _family_model(kind: str, param: float, config: ExperimentConfig, n: int | None = None) -> DegreeModel:
    size = config.n if n is None else n
    if kind == "er":
        return DegreeModel.er(param, k_min=config.kmin, k_max=config.kmax, n=size)
    if kind == "power_law":
        return DegreeModel.power_law(param, k_min=config.kmin, k_max=config.kmax, n=size)
    return DegreeModel.exponential(param, k_min=config.kmin, k_max=config.kmax, n=size)


def _model_for_mean_degree(kind: str, mean_degree: float, config: ExperimentConfig) -> DegreeModel:
    """Model of the given family whose (continuous) mean degree matches."""
    if kind == "er":
        param = mean_degree
    elif kind == "exponential":
        if mean_degree <= config.kmin:
            raise ConfigError(f"exponential model needs mean degree > k_min, got {mean_degree}")
        param = mean_degree - config.kmin
    else:

        def gap(alpha: float) -> float:
            return moments(_family_model(kind, alpha, config)).mean_degree - mean_degree

        param = bisect_root(gap, 1.0 + 1e-9, 60.0, what="power-law skewness for mean degree")
    return _family_model(kind, param, config)


def _thresholds(model: DegreeModel) -> tuple[float, float]:
    """(qc_random, qc_intentional), both 0 for an already-subcritical model."""
    try:
        q_ran = qc_random(model).qc
        q_int = qc_intentional(model).qc
    except SubcriticalError:
        return 0.0, 0.0
    return q_ran, q_int


def cmd_qc_sweep(config: ExperimentConfig) -> str:
    """Random vs intentional thresholds at matched mean degree."""
    rows = []
    for mean_degree in parse_grid(config.meandeg_grid):
        for kind in ("er", "power_law", "exponential"):
            model = _model_for_mean_degree(kind, mean_degree, config)
            param = {"er": model.k_hat, "power_law": model.alpha, "exponential": model.beta}[kind]
            q_ran, q_int = _thresholds(model)
            rows.append([kind, _fmt(mean_degree), _fmt(param), _fmt(q_ran), _fmt(q_int)])
    return _render(config, ["model", "mean_degree", "param", "qc_random", "qc_intentional"], rows)


def cmd_m1(config: ExperimentConfig) -> str:
    """Expected report counts for random and intentional attacks.

    Grid points outside the detectable regime (p_d <= p_f, or random
    attacks with q * p_d <= p_f) are skipped; a q outside (0, 1] is a
    configuration error.
    """
    risk = config.risk()
    pd_grid = parse_grid(config.pd_grid)
    pf_list = parse_grid(config.pf_list)
    q_grid = [_attacked_fraction(q) for q in parse_grid(config.q_grid)]
    columns = ["record", "model", "param", "q", "pd", "pf", "qc_random", "m1"]
    rows = []
    for pf in pf_list:
        for pd in pd_grid:
            if pd <= pf:
                continue
            det = DetectorProfile(pd, pf)
            for q in q_grid:
                if q * pd <= pf:
                    continue
                m1 = expected_reports_random(q, det, risk)
                rows.append(["random", "", "", _fmt(q), _fmt(pd), _fmt(pf), "", _fmt(m1)])
            m1 = expected_reports_intentional(det, risk)
            rows.append(["intentional", "", "", "", _fmt(pd), _fmt(pf), "", _fmt(m1)])
    # report-count surfaces over (network parameter, pd) at the critical q
    surface_grids = (
        ("er", config.khat_grid),
        ("power_law", config.alpha_grid),
        ("exponential", config.beta_grid),
    )
    for kind, grid in surface_grids:
        for param in parse_grid(grid):
            try:
                qc = qc_random(_family_model(kind, param, config)).qc
            except SubcriticalError:
                continue
            for pd in pd_grid:
                if pd <= config.pf:
                    continue
                det = DetectorProfile(pd, config.pf)
                m1 = expected_reports_random(qc, det, risk)
                rows.append(["surface", kind, _fmt(param), _fmt(qc), _fmt(pd), _fmt(config.pf), _fmt(qc), _fmt(m1)])
    return _render(config, columns, rows)


def cmd_worst_case(config: ExperimentConfig) -> str:
    """Truncated-test bounds swept over critical values."""
    det = config.detector()
    risk = config.risk()
    columns = [
        "q_c", "m_c", "accept_lower_bound", "reject_lower_bound",
        "delta_at_mc", "theta_at_mc", "y1", "y2", "y3", "y4", "y5", "y6",
    ]
    rows = []
    for qc in parse_grid(config.qc_grid):
        m_c = ceil_count(config.n * qc)
        b = worst_case_bounds(qc, det, risk, m_c)
        rows.append([
            _fmt(qc), str(m_c), _fmt(b.accept_lower_bound), _fmt(b.reject_lower_bound),
            _fmt(b.delta_at_mc), _fmt(b.theta_at_mc),
            _fmt(b.y1), _fmt(b.y2), _fmt(b.y3), _fmt(b.y4), _fmt(b.y5), _fmt(b.y6),
        ])
    return _render(config, columns, rows)


def cmd_empirical(config: ExperimentConfig) -> str:
    """Thresholds and report counts for the reference parameter sets."""
    risk = config.risk()
    columns = [
        "network", "model", "param", "n", "qc_random", "mc_random",
        "qc_intentional", "mc_intentional", "pd", "pf", "m1_random", "m1_intentional",
    ]
    rows = []
    for name, kind, param, n_nodes in _EMPIRICAL_NETWORKS:
        model = _family_model(kind, param, config, n=n_nodes)
        q_ran = qc_random(model).qc
        q_int = qc_intentional(model).qc
        mc_ran = ceil_count(n_nodes * q_ran)
        mc_int = ceil_count(n_nodes * q_int)
        for pf in parse_grid(config.pf_list):
            for pd in parse_grid(config.pd_grid):
                if pd <= pf:
                    continue
                det = DetectorProfile(pd, pf)
                m1_ran = expected_reports_random(q_ran, det, risk)
                m1_int = expected_reports_intentional(det, risk)
                rows.append([
                    name, kind, _fmt(param), str(n_nodes), _fmt(q_ran), str(mc_ran),
                    _fmt(q_int), str(mc_int), _fmt(pd), _fmt(pf), _fmt(m1_ran), _fmt(m1_int),
                ])
    return _render(config, columns, rows)


def cmd_powergrid(config: ExperimentConfig) -> str:
    """Attack curves plus detection markers for a real topology."""
    if not config.graph:
        raise ConfigError("powergrid needs --graph PATH (edge list)")
    graph = load_edge_list(config.graph)
    risk = config.risk()
    columns = ["record", "scheme", "q", "lcc", "tau", "pd", "m1", "m1_fraction", "lcc_at_m1"]
    rows = [[
        "meta", "", "", "", "", "",
        f"nodes={graph.n}", f"edges={graph.edge_count}",
        f"dropped_loops={graph.self_loops_dropped};dropped_dupes={graph.duplicates_dropped}",
    ]]
    random_curve = average_random_attack(graph, config.q, config.steps, config.trials, config.seed)
    for i in range(len(random_curve)):
        rows.append([
            "curve", "random", _fmt(float(random_curve.removed_fraction[i])),
            _fmt(float(random_curve.lcc_fraction[i])), _fmt(float(random_curve.remaining_tau[i])),
            "", "", "", "",
        ])
    curves = {}
    for scheme in ("degree", "betweenness"):
        plan = AttackPlan("intentional" if scheme == "degree" else scheme, config.q, graph.n)
        curve = curves[scheme] = simulate_attack(graph, plan, config.steps, config.seed)
        for i in range(len(curve)):
            rows.append([
                "curve", scheme, _fmt(float(curve.removed_fraction[i])),
                _fmt(float(curve.lcc_fraction[i])), _fmt(float(curve.remaining_tau[i])),
                "", "", "", "",
            ])
    # detection markers: reports needed for a targeted attack, and the
    # surviving largest component when exactly that many top-degree nodes
    # are already gone (the undetectable region boundary), read from the
    # degree curve's own pass
    for pd in parse_grid(config.pd_grid):
        det = DetectorProfile(pd, config.pf)
        m1 = expected_reports_intentional(det, risk)
        boundary = min(graph.n, ceil_count(m1))
        rows.append([
            "m1", "degree", "", "", "", _fmt(pd), _fmt(m1),
            _fmt(m1 / graph.n), _fmt(float(curves["degree"].lcc_by_removed[boundary])),
        ])
    return _render(config, columns, rows)


def cmd_operation_curves(config: ExperimentConfig) -> str:
    """Minimum detection probability vs false-alarm rate per report budget."""
    risk = config.risk()
    columns = ["m_c", "pf", "feasible", "pd_min"]
    rows = []
    feasible_points = 0
    for mc in parse_grid(config.mc_list):
        if not mc.is_integer():
            raise ConfigError(f"mc_list entries must be integers, got {mc!r}")
        m_c = int(mc)
        for pf in parse_grid(config.pf_grid):
            try:
                point = min_detection(pf, risk, m_c)
            except InfeasibleError:
                rows.append([str(m_c), _fmt(pf), "0", ""])
            else:
                feasible_points += 1
                rows.append([str(m_c), _fmt(pf), "1", _fmt(point.p_d_min)])
    if not feasible_points:
        raise InfeasibleError("no feasible operation point on the requested grids")
    return _render(config, columns, rows)


_COMMANDS = {
    "qc-sweep": cmd_qc_sweep,
    "m1": cmd_m1,
    "worst-case": cmd_worst_case,
    "empirical": cmd_empirical,
    "powergrid": cmd_powergrid,
    "operation-curves": cmd_operation_curves,
}


def _read_config_file(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: '%' is not special
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not text.lstrip().startswith("["):
        text = "[seqdef]\n" + text
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    merged: dict[str, str] = {}
    for section in parser.sections():
        merged.update(parser.items(section))
    return merged


def _coerce(key: str, raw: str):
    try:
        return _KEY_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def build_config(command: str, file_options: dict[str, str], flag_options: dict) -> ExperimentConfig:
    """Defaults, then config-file keys, then command-line flags."""
    config = ExperimentConfig(command=command)
    for key, raw in file_options.items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(config, key, _coerce(key, raw))
    for key, value in flag_options.items():
        if value is not None:
            setattr(config, key, value)
    return config


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --alpha must not resolve to --alpha_grid
    parser = argparse.ArgumentParser(prog="seqdef", description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", type=str, default=None)
    for key, kind in _KEY_TYPES.items():
        parser.add_argument(f"--{key}", type=kind, default=None)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flag_options = {key: getattr(args, key) for key in _KEY_TYPES}
    try:
        file_options = _read_config_file(args.config) if args.config else {}
        config = build_config(args.command, file_options, flag_options)
        csv_text = _COMMANDS[args.command](config)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
    except ConfigError as exc:
        print(f"seqdef: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"seqdef: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"seqdef: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
