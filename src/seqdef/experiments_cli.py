"""Command-line harness: seeded, deterministic CSV sweeps.

Every command renders its full configuration into '#'-prefixed header
lines followed by one CSV table, so a rerun with the same configuration
is byte-identical. Commands:

  qc-sweep          thresholds of the three canonical models vs mean degree
  m1                expected report counts over (q, p_d, p_f) grids
  worst-case        truncated-test bounds over a critical-value grid, by the
                    paper's normal approximation (not exact bounds everywhere)
  empirical         reference parameter sets (WWW / Internet / EU grid)
  powergrid         attack curves and report markers on a real edge list
  operation-curves  minimum p_d vs p_f for given report budgets

ExperimentConfig is the one table of settings: each field name is both
a config-file key and a command-line flag (--<name>), with the field's
type and default. Flags override config-file keys, which override the
defaults. Both arrive as text and are coerced by the field's type alike.
The header echoes a float as .12g where that reads back exactly, else as
its repr.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import dataclass, fields

from .degree_models import DegreeModel, _power_law_moments
from .errors import ConfigError, InfeasibleError, NumericalError, SubcriticalError
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
from ._solve import _count, bisect_root, ceil_count

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

    def detector(self) -> DetectorProfile:
        return DetectorProfile(self.pd, self.pf)

    def risk(self) -> RiskBudget:
        return RiskBudget(self.delta, self.theta)


# key -> type of every setting; str for the paths whose default is None
_KEY_TYPES = {
    f.name: str if f.default is None else type(f.default) for f in fields(ExperimentConfig) if f.name != "command"
}


def parse_grid(text: str, finite: bool = True) -> list[float]:
    """Parse non-empty 'a,b,c' lists or 'lo:hi:count[:log]' ranges into floats; log ranges need lo, hi > 0.

    Every entry and range bound must be finite: NaN or ±inf is a ConfigError.
    `finite=False` leaves that check to the caller, for grids of counts that
    the count rule checks.
    """
    text = text.strip()
    parts = text.split(":")
    log = parts[3:] == ["log"]
    try:
        if len(parts) == 1:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
            if not values or (finite and not all(map(math.isfinite, values))):
                raise ValueError("empty list or a NaN or infinite entry")
            return values
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad grid spec {text!r}") from exc
    if len(parts) != (4 if log else 3) or count < 1 or (log and min(lo, hi) <= 0.0):
        raise ConfigError(f"bad grid spec {text!r}")
    if count == 1:
        values = [lo]
    elif log:
        ratio = (hi / lo) ** (1.0 / (count - 1))
        values = [lo * ratio**i for i in range(count)]
    else:
        step = (hi - lo) / (count - 1)
        values = [lo + step * i for i in range(count)]
    if finite and not all(map(math.isfinite, (lo, hi, *values))):  # a bound, or a range too wide for floats
        raise ConfigError(f"bad grid spec {text!r}")
    return values


def _detectors(pd_grid, pf: float):
    """DetectorProfile(pd, pf) for each pd of the grid above pf; pd <= pf cannot tell attack from noise."""
    for pd in pd_grid:
        if pd > pf:
            yield DetectorProfile(pd, pf)


def _detectable(q: float, det: DetectorProfile) -> bool:
    """Whether attacking a fraction q beats noise: q * p_d > p_f by a relative 1e-9 (`ceil_count`'s is absolute)."""
    return q * det.p_d > det.p_f * (1 + 1e-9)  # 0.1 * 0.1 is one ulp above p_f = 0.01, a point equal to it in decimal


def _render(config: ExperimentConfig, columns: list[str], rows: list[list]) -> str:
    """The '# key = value' header, the column row, then the rows; floats are written as .12g, the rest by str."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        text = "" if value is None else format(value, ".12g") if isinstance(value, float) else str(value)
        if isinstance(value, float) and float(text) != value:
            text = repr(value)  # .12g dropped digits (repr keeps NaN's text)
        lines.append(f"# {f.name} = {text}")
    lines.append(",".join(columns))
    lines.extend(
        ",".join([c if c.__class__ is str else format(c, ".12g") if isinstance(c, float) else str(c) for c in row])
        for row in rows
    )
    return "\n".join(lines) + "\n"


def _family_model(kind: str, param: float, config: ExperimentConfig, n: int | None = None) -> DegreeModel:
    # each kind names its DegreeModel constructor
    return getattr(DegreeModel, kind)(param, k_min=config.kmin, k_max=config.kmax, n=config.n if n is None else n)


def _model_for_mean_degree(kind: str, mean_degree: float, config: ExperimentConfig) -> DegreeModel:
    """Model of the given family whose (continuous) mean degree matches."""
    if kind == "er":
        param = mean_degree
    elif kind == "exponential":
        if mean_degree <= config.kmin:
            raise ConfigError(f"exponential model needs mean degree > k_min, got {mean_degree}")
        param = mean_degree - config.kmin
    else:
        _family_model(kind, 2.0, config)  # checks k_min, k_max and n once, not at every bisection step
        a, b = float(config.kmin), float(config.kmax)

        def gap(alpha: float) -> float:
            return _power_law_moments(alpha, a, b)[0] - mean_degree

        # the mean falls as alpha grows, so only a mean between its values at the bracket's ends has a root
        low, top = _power_law_moments(60.0, a, b)[0], _power_law_moments(1.0 + 1e-9, a, b)[0]
        if not low < mean_degree < top:
            raise ConfigError(f"power-law model needs mean degree in ({low:.6g}, {top:.6g}), got {mean_degree}")
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
            rows.append([kind, mean_degree, param, q_ran, q_int])
    return _render(config, ["model", "mean_degree", "param", "qc_random", "qc_intentional"], rows)


def cmd_m1(config: ExperimentConfig) -> str:
    """Expected report counts for random and intentional attacks.

    Grid points outside the detectable regime (p_d <= p_f, or random and
    surface rows with q * p_d <= p_f, q being q_c on a surface) are
    skipped; a q outside (0, 1] is a configuration error.
    """
    risk = config.risk()
    pd_grid = parse_grid(config.pd_grid)
    pf_list = parse_grid(config.pf_list)
    q_grid = [_attacked_fraction(q) for q in parse_grid(config.q_grid)]
    columns = ["record", "model", "param", "q", "pd", "pf", "qc_random", "m1"]
    rows = []
    for pf in pf_list:
        for det in _detectors(pd_grid, pf):
            for q in q_grid:
                if _detectable(q, det):
                    m1 = expected_reports_random(q, det, risk)
                    rows.append(["random", "", "", q, det.p_d, pf, "", m1])
            m1 = expected_reports_intentional(det, risk)
            rows.append(["intentional", "", "", "", det.p_d, pf, "", m1])
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
            for det in _detectors(pd_grid, config.pf):
                if _detectable(qc, det):
                    m1 = expected_reports_random(qc, det, risk)
                    rows.append(["surface", kind, param, qc, det.p_d, config.pf, qc, m1])
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
        rows.append([qc, *(getattr(b, column) for column in columns[1:])])  # the other columns are fields of b
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
            for det in _detectors(parse_grid(config.pd_grid), pf):
                m1_ran = expected_reports_random(q_ran, det, risk)
                m1_int = expected_reports_intentional(det, risk)
                rows.append([name, kind, param, n_nodes, q_ran, mc_ran, q_int, mc_int, det.p_d, pf, m1_ran, m1_int])
    return _render(config, columns, rows)


def cmd_powergrid(config: ExperimentConfig) -> str:
    """Attack curves plus detection markers for a real topology; markers skip p_d <= p_f, as m1 does."""
    from .graph_engine import average_random_attack, load_edge_list, simulate_attack  # loads numpy
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
    curves = {
        "random": average_random_attack(graph, config.q, config.steps, config.trials, config.seed),
        "degree": simulate_attack(graph, AttackPlan("degree", config.q, graph.n), config.steps, config.seed),
        "betweenness": simulate_attack(graph, AttackPlan("betweenness", config.q, graph.n), config.steps, config.seed),
    }
    for scheme, curve in curves.items():
        for i in range(len(curve)):
            rows.append([
                "curve", scheme, curve.removed_fraction[i], curve.lcc_fraction[i], curve.remaining_tau[i], "", "", "", "",
            ])
    # detection markers: reports needed for a targeted attack, and the
    # surviving largest component when exactly that many top-degree nodes
    # are already gone (the undetectable region boundary), read from the
    # degree curve's own pass
    for det in _detectors(parse_grid(config.pd_grid), config.pf):
        m1 = expected_reports_intentional(det, risk)
        boundary = min(graph.n, ceil_count(m1))
        rows.append(["m1", "degree", "", "", "", det.p_d, m1, m1 / graph.n, curves["degree"].lcc_by_removed[boundary]])
    return _render(config, columns, rows)


def cmd_operation_curves(config: ExperimentConfig) -> str:
    """Minimum detection probability vs false-alarm rate per report budget."""
    risk = config.risk()
    columns = ["m_c", "pf", "feasible", "pd_min"]
    rows = []
    feasible_points = 0
    for mc in parse_grid(config.mc_list, finite=False):
        m_c = _count(mc, "mc_list entry")  # the count rule rejects NaN and ±inf too
        for pf in parse_grid(config.pf_grid):
            try:
                point = min_detection(pf, risk, m_c)
            except InfeasibleError:
                rows.append([m_c, pf, 0, ""])
            else:
                feasible_points += 1
                rows.append([m_c, pf, 1, point.p_d_min])
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
    # '%' is literal; no header names the section "\n", so [DEFAULT] is an ordinary section with its own keys
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
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
    where: dict[str, str] = {}
    for section in parser.sections():
        for key in parser[section]:
            if where.setdefault(key, section) != section:
                raise ConfigError(f"config key {key!r} is set in both [{where[key]}] and [{section}] of {path}")
    return {key: parser[section][key] for key, section in where.items()}


def build_config(command: str, file_options: dict[str, str], flag_options: dict[str, str]) -> ExperimentConfig:
    """Defaults, then config-file keys, then command-line flags; each value is coerced by its key's type."""
    config = ExperimentConfig(command=command)
    for key, raw in [*file_options.items(), *flag_options.items()]:
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(config, key, _KEY_TYPES[key](raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return config


@functools.cache  # one parser per process; parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --alpha must not resolve to --alpha_grid
    parser = argparse.ArgumentParser(prog="seqdef", description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", default=None)
    for key in _KEY_TYPES:
        parser.add_argument(f"--{key}", default=None)  # text, coerced by build_config as a config-file key is
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flag_options = {key: value for key, value in vars(args).items() if key in _KEY_TYPES and value is not None}
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
