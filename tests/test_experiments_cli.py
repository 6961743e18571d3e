"""CLI harness: CSV shape, reference rows, overrides, exit codes, determinism."""

import ast
import hashlib
import inspect
import math
from dataclasses import fields
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdef import ConfigError, DegreeModel, DetectorProfile, RiskBudget, expected_reports_intentional, generate
import seqdef.experiments_cli as cli
from seqdef.experiments_cli import (
    ExperimentConfig,
    _build_parser,
    _read_config_file,
    build_config,
    cmd_empirical,
    cmd_m1,
    cmd_operation_curves,
    cmd_powergrid,
    cmd_qc_sweep,
    cmd_worst_case,
    parse_grid,
    run,
)


SETTINGS = [f for f in fields(ExperimentConfig) if f.name != "command"]


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# sha256 of each analytic command's stdout at defaults and at one config that takes other branches
ANALYTIC_PINS = {
    "qc-sweep": "2d27872c96803921c06cca78bd52bd87f4d2614f2d301cc8a574897d092b3e78",
    "qc-sweep --kmin 2 --kmax 500 --meandeg_grid 2.5:9:7": "ad58968fd6531edc8b23f72ad7a0039d6a030a54148b0bfc80ef5ba665eeb7b2",
    "m1": "9e3a57ff8753a30ee2d9e1d9e0baf4f9e5688335a73cf32ea134c7bb852e609b",
    "m1 --delta 0.05 --theta 0.01 --pf 0.01": "9a0060c9000ccd6bce53c6c2dc6e735110c309d1a97dfc83e813b3bbb9c17836",
    "worst-case": "03a58d59318d66e2919d39b1256c61feee97698acf7ee563a4194369e6c1c20c",
    "worst-case --pd 0.7 --pf 0.01 --n 5000": "9d907e53a983f8c149d37bb4562b45a6aa2520d463c3d5da0ad96961c4db0e5a",
    "empirical": "eca942aca104aa293be0db3353617591cfbe1350fe84e6bed05a0dcc2bbcfdb4",
    "empirical --pd_grid 0.3,0.6 --pf_list 0.01": "9c637ed8cc4b6a6f84ae7512f518623f96ac2376b80d8f9572b1eea2dd6d7f59",
    "operation-curves": "2d4d1f736803723fe30152585d897c0c9bf3e1dd03ac9c35c91939ad18218349",
    "operation-curves --mc_list 3,20 --pf_grid 1e-3:0.2:7:log": "99a2e5041f0ce505f3cf0ee17ac417e8cf1922f1d0dd8632f42628d9e7b584c0",
}

@pytest.fixture()
def toy_graph_path(tmp_path):
    g = generate(DegreeModel.power_law(2.5, k_max=50, n=400), 400, seed=9)
    path = tmp_path / "toy.edges"
    path.write_text(g.edge_text())
    return str(path)


class TestParseGrid:
    def test_linspace(self):
        assert parse_grid("0:1:5") == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])

    def test_log_spacing(self):
        grid = parse_grid("1e-4:1e-2:3:log")
        assert grid == pytest.approx([1e-4, 1e-3, 1e-2])

    def test_comma_list(self):
        assert parse_grid("1,2.5,4") == [1.0, 2.5, 4.0]

    def test_bad_specs_rejected(self):
        from seqdef import ConfigError

        non_finite = ("1,nan", "inf", "nan:1:3", "0:inf:3", "-inf:1:3", "0:nan:1", "1:inf:3:log")
        # finite bounds, but a step or ratio beyond float range makes NaN or inf entries
        too_wide = ("-1e308:1e308:3", "1e-300:1e300:3:log")
        for spec in ("1:2", "1:2:0", "1:2:3:cubic", "a,b", "", ",", *non_finite, *too_wide):
            with pytest.raises(ConfigError):
                parse_grid(spec)


class TestQcSweep:
    def test_reference_rows(self):
        config = ExperimentConfig(command="qc-sweep", meandeg_grid="1.2,4")
        rows = parse_csv(cmd_qc_sweep(config))
        er4 = next(r for r in rows if r["model"] == "er" and r["mean_degree"] == "4")
        assert float(er4["qc_random"]) == pytest.approx(0.75, abs=1e-12)
        for row in rows:
            assert float(row["qc_intentional"]) <= float(row["qc_random"]) + 1e-12
        # near-unit mean degree the thresholds collapse toward zero
        for row in rows:
            if row["mean_degree"] == "1.2":
                assert float(row["qc_random"]) < 0.2

    def test_matched_mean_degree(self):
        config = ExperimentConfig(command="qc-sweep", meandeg_grid="2.9")
        rows = parse_csv(cmd_qc_sweep(config))
        assert {r["model"] for r in rows} == {"er", "power_law", "exponential"}
        from seqdef import moments

        for row in rows:
            param = float(row["param"])
            model = {
                "er": DegreeModel.er,
                "power_law": DegreeModel.power_law,
                "exponential": DegreeModel.exponential,
            }[row["model"]](param)
            assert moments(model).mean_degree == pytest.approx(2.9, rel=1e-6)


class TestM1:
    def test_monotonicity_and_formula(self):
        config = ExperimentConfig(
            command="m1",
            q_grid="0.3,0.6",
            pd_grid="0.2,0.5,0.8",
            pf_list="0.001,0.01",
            khat_grid="4",
            alpha_grid="2.5",
            beta_grid="1.63",
        )
        rows = parse_csv(cmd_m1(config))
        random_rows = [r for r in rows if r["record"] == "random"]
        # decreasing in pd at fixed (q, pf)
        for q in ("0.3", "0.6"):
            for pf in ("0.001", "0.01"):
                block = [float(r["m1"]) for r in random_rows if r["q"] == q and r["pf"] == pf]
                assert block == sorted(block, reverse=True)
        # increasing in pf at fixed (q, pd)
        for q in ("0.3", "0.6"):
            for pd in ("0.2", "0.5", "0.8"):
                block = [float(r["m1"]) for r in random_rows if r["q"] == q and r["pd"] == pd]
                assert block == sorted(block)
        risk = RiskBudget(config.delta, config.theta)
        for row in rows:
            if row["record"] == "intentional":
                expected = expected_reports_intentional(DetectorProfile(float(row["pd"]), float(row["pf"])), risk)
                assert float(row["m1"]) == pytest.approx(expected, rel=1e-9)

    def test_surface_rows_present(self):
        config = ExperimentConfig(
            command="m1", q_grid="0.5", pd_grid="0.3,0.6", pf_list="0.001",
            khat_grid="3,5", alpha_grid="2.3", beta_grid="1.63,2.2",
        )
        rows = parse_csv(cmd_m1(config))
        surface = [r for r in rows if r["record"] == "surface"]
        assert {r["model"] for r in surface} == {"er", "power_law", "exponential"}
        for row in surface:
            assert 0.0 < float(row["qc_random"]) < 1.0

    @pytest.mark.parametrize(
        "argv", [[], ["--pf", "0.03"], ["--pf", "0.05"], ["--pf", "0.1"]], ids=["defaults", "0.03", "0.05", "0.1"]
    )
    def test_rows_skip_points_equal_to_pf_in_decimal(self, argv, capsys):
        # a surface row's q is q_c: at pf = 0.03 five rows had q_c * p_d <= p_f (ER k_hat = 1.2:
        # 0.1667 * 0.1), and at 0.05 and 0.1 ER k_hat = 2, whose q_c is 0.5 exactly, met p_d = 0.1 and
        # 0.2 in a degenerate test (exit 3). In floats 0.1 * 0.1 and 0.05 * 0.2 are one ulp above p_f =
        # 0.01, and at pf = 0.1 exponential beta = 1 keeps q_c * 0.3 one ulp above it: each wrote an m1 of
        # 2.07e18 or 2.07e17. In decimal they equal p_f, which the rule skips, on random and surface rows
        assert run(["m1", *argv]) == 0
        rows = [r for r in parse_csv(capsys.readouterr().out) if r["record"] in ("random", "surface")]
        assert any(r["record"] == "surface" for r in rows)
        assert all(Decimal(r["q"]) * Decimal(r["pd"]) > Decimal(r["pf"]) for r in rows)

    def test_subcritical_surface_point_is_skipped(self, capsys):
        # k_hat = 0.5 has tau = 1.5: qc_random raises SubcriticalError, and the point writes no row
        assert run(["m1", "--khat_grid", "0.5,4"]) == 0
        surface = [line for line in capsys.readouterr().out.splitlines() if line.startswith("surface,er,")]
        assert surface and all(line.startswith("surface,er,4,") for line in surface)


class TestWorstCase:
    def test_bounds_converge_along_grid(self):
        config = ExperimentConfig(command="worst-case", qc_grid="0.05:0.6:12", pd=0.9, pf=0.001)
        rows = parse_csv(cmd_worst_case(config))
        accept = [float(r["accept_lower_bound"]) for r in rows]
        assert accept[-1] > 0.999
        assert accept[-1] >= accept[0]
        assert float(rows[-1]["delta_at_mc"]) == pytest.approx(config.delta, abs=1e-6)
        for row in rows:
            for col in ("accept_lower_bound", "reject_lower_bound", "delta_at_mc", "theta_at_mc"):
                assert 0.0 <= float(row[col]) <= 1.0
            assert int(row["m_c"]) == math.ceil(config.n * float(row["q_c"]) - 1e-9)


class TestEmpirical:
    def test_reference_networks(self):
        config = ExperimentConfig(command="empirical", pd_grid="0.1,0.5", pf_list="0.001,0.01")
        rows = parse_csv(cmd_empirical(config))
        www = next(r for r in rows if r["network"] == "www")
        assert float(www["qc_random"]) == pytest.approx(0.9909, abs=1e-3)
        assert int(www["mc_random"]) == 322780
        internet = next(r for r in rows if r["network"] == "internet")
        assert float(internet["qc_random"]) == pytest.approx(0.9673, abs=1e-3)
        # budget column stays consistent with ceil(n * qc)
        assert int(internet["mc_random"]) == math.ceil(6209 * float(internet["qc_random"]) - 1e-9)
        eu = next(r for r in rows if r["network"] == "eu_grid")
        assert float(eu["qc_random"]) == pytest.approx(0.6212, abs=1e-4)
        for row in rows:
            assert float(row["m1_random"]) < int(row["mc_random"])

    def test_intentional_columns(self):
        config = ExperimentConfig(command="empirical", pd_grid="0.5", pf_list="0.001")
        rows = parse_csv(cmd_empirical(config))
        for row in rows:
            assert float(row["qc_intentional"]) < float(row["qc_random"])
            assert int(row["mc_intentional"]) == math.ceil(int(row["n"]) * float(row["qc_intentional"]) - 1e-9)


class TestPowergrid:
    def test_sections_and_markers(self, toy_graph_path):
        config = ExperimentConfig(
            command="powergrid", graph=toy_graph_path, trials=5, steps=6,
            pf=0.005, pd_grid="0.1,0.3,0.5",
        )
        text = cmd_powergrid(config)
        rows = parse_csv(text)
        meta = next(r for r in rows if r["record"] == "meta")
        assert meta["m1"] == "nodes=400"
        schemes = {r["scheme"] for r in rows if r["record"] == "curve"}
        assert schemes == {"random", "degree", "betweenness"}
        markers = [r for r in rows if r["record"] == "m1"]
        m1_values = [float(r["m1"]) for r in markers]
        assert m1_values == sorted(m1_values, reverse=True)  # decreasing in pd
        for row in markers:
            assert 0.0 <= float(row["lcc_at_m1"]) <= 1.0

    @pytest.mark.parametrize("pf", ["0.1", "0.2"])
    def test_markers_skip_pd_at_or_below_pf(self, toy_graph_path, tmp_path, pf):
        # as in m1 and empirical; at pf = 0.1 the pd = 0.1 point was a degenerate test (exit 3),
        # at pf = 0.2 the pd = 0.1 point was a config error (exit 2)
        out = tmp_path / "pg.csv"
        assert run(["powergrid", "--graph", toy_graph_path, "--trials", "2", "--pf", pf, "--out", str(out)]) == 0
        pds = [float(r["pd"]) for r in parse_csv(out.read_text()) if r["record"] == "m1"]
        assert pds and min(pds) > float(pf)

    def test_graph_required(self):
        from seqdef import ConfigError

        with pytest.raises(ConfigError, match="--graph"):
            cmd_powergrid(ExperimentConfig(command="powergrid"))


class TestOperationCurves:
    def test_min_detection_rows(self):
        config = ExperimentConfig(command="operation-curves", mc_list="1,5", pf_grid="1e-4:5e-3:4:log")
        rows = parse_csv(cmd_operation_curves(config))
        from seqdef.robust_design import information_rate, required_rate

        risk = RiskBudget(config.delta, config.theta)
        by_mc = {}
        for row in rows:
            assert row["feasible"] == "1"
            pd_min = float(row["pd_min"])
            residual = information_rate(pd_min, float(row["pf"])) - required_rate(risk, int(row["m_c"]))
            assert abs(residual) < 1e-10
            by_mc.setdefault(row["m_c"], []).append(pd_min)
        for tight, loose in zip(by_mc["1"], by_mc["5"]):
            assert loose <= tight


class TestConfigHandling:
    def test_file_then_flags_priority(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sweep]\npd = 0.2\nseed = 9\n")
        config = build_config("qc-sweep", {"pd": "0.2", "seed": "9"}, {"pd": 0.5})
        assert config.pd == 0.5  # flag wins
        assert config.seed == 9

    def test_unknown_key_rejected(self):
        from seqdef import ConfigError

        with pytest.raises(ConfigError, match="unknown config key"):
            build_config("qc-sweep", {"pq": "1"}, {})

    def test_percent_in_value_is_literal(self, tmp_path):
        out = tmp_path / "50%.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {out}\n")
        assert run(["qc-sweep", "--config", str(cfg)]) == 0
        assert f"# out = {out}\n" in out.read_text()

    def test_key_in_two_sections_rejected(self, tmp_path, capsys):
        # the sections were merged, so the later [b] won silently and the run exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[a]\nmeandeg_grid = 3\n[b]\nmeandeg_grid = 4\n")
        assert run(["qc-sweep", "--config", str(cfg)]) == 2
        assert "'meandeg_grid' is set in both [a] and [b]" in capsys.readouterr().err
        # a [DEFAULT] key is set in that section alone, not in each section that inherits it
        cfg.write_text("[DEFAULT]\nseed = 9\n[a]\npd = 0.2\n[b]\nn = 50\n")
        assert _read_config_file(str(cfg)) == {"seed": "9", "pd": "0.2", "n": "50"}

    def test_config_file_without_section(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("meandeg_grid = 4\n")
        assert run(["qc-sweep", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# meandeg_grid = 4" in out
        assert "er,4,4,0.75," in out

    @pytest.mark.parametrize("key, raw", [("n", "x"), ("pd", "abc")])
    def test_bad_flag_value_is_the_config_file_error(self, key, raw, tmp_path, capsys):
        # argparse rejected the flag itself, with its usage text and SystemExit(2), not the key's message
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        assert run(["m1", "--config", str(cfg)]) == 2
        from_file = capsys.readouterr().err
        assert run(["m1", f"--{key}", raw]) == 2
        assert capsys.readouterr().err == from_file == f"seqdef: config error: bad value for {key}: {raw!r}\n"


class TestHeader:
    @pytest.mark.parametrize(
        "flag, raw, echo",
        [("pd", "0.9", "0.9"), ("pd", "0.90000000000001", "0.90000000000001"), ("q", "1.0", "1"), ("n", "600", "600")],
    )
    def test_echo(self, flag, raw, echo, capsys):
        # 0.90000000000001 was echoed as 0.9, above a different table than 0.9's
        assert run(["worst-case", f"--{flag}", raw]) == 0
        assert f"\n# {flag} = {echo}\n" in capsys.readouterr().out

    @settings(deadline=None)
    @given(values=st.fixed_dictionaries({key: st.floats() for key in ("pd", "pf", "delta", "theta", "q")}))
    @example(values={"pd": 0.90000000000001, "pf": 1e-3, "delta": 0.1 + 0.2, "theta": math.nan, "q": -math.inf})
    def test_header_floats_read_back_exactly(self, values):
        text = cli._render(ExperimentConfig(command="worst-case", **values), ["x"], [])
        header = dict(line[2:].split(" = ", 1) for line in text.splitlines() if line.startswith("# "))
        back = build_config("worst-case", {key: header[key] for key in values}, {})
        assert {key: repr(getattr(back, key)) for key in values} == {key: repr(v) for key, v in values.items()}


class TestConfigTable:
    def test_every_setting_is_read(self):
        # a key only validated by build_config would be accepted and then ignored
        read = set()
        for func in ast.walk(ast.parse(inspect.getsource(cli))):
            if isinstance(func, ast.FunctionDef) and func.name != "build_config":
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("config", "self")
                    ):
                        read.add(node.attr)
        assert sorted(f.name for f in SETTINGS if f.name not in read) == []

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda f: f.name)
    def test_flag_and_file_key_agree(self, setting, tmp_path):
        # the parser passes the flag's text through, and build_config coerces it as it does the key's
        kind = str if setting.default is None else type(setting.default)
        raw = {int: "7", float: "0.25", str: "1,2"}[kind]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{setting.name} = {raw}\n")
        from_file = getattr(build_config("m1", _read_config_file(str(cfg)), {}), setting.name)
        flag = getattr(_build_parser().parse_args(["m1", f"--{setting.name}", raw]), setting.name)
        assert flag == raw
        from_flag = getattr(build_config("m1", {}, {setting.name: flag}), setting.name)
        assert from_file == from_flag == kind(raw)
        assert type(from_file) is type(from_flag) is kind

    @pytest.mark.parametrize(
        "flags", [["--alpha", "2.1"], ["--scheme", "random"], ["--mc", "7"], ["--the", "0.1"]], ids=" ".join
    )
    def test_removed_and_abbreviated_flags_exit_2(self, flags):
        with pytest.raises(SystemExit) as exc:
            run(["qc-sweep", *flags])
        assert exc.value.code == 2

    def test_removed_key_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2.1\n")
        assert run(["qc-sweep", "--config", str(cfg)]) == 2


class TestExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["qc-sweep", "--out", str(out), "--seed", "1"]) == 0
        assert out.read_text().startswith("# command = qc-sweep")

    def test_config_error_is_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        assert run(["qc-sweep", "--config", str(cfg)]) == 2
        assert run(["powergrid"]) == 2  # missing --graph
        assert run(["qc-sweep", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_all_infeasible_grid_raises(self):
        # a budget of one report cannot be met at such high false-alarm rates
        from seqdef import InfeasibleError

        config = ExperimentConfig(command="operation-curves", mc_list="1", pf_grid="0.2,0.3")
        with pytest.raises(InfeasibleError):
            cmd_operation_curves(config)

    @pytest.mark.parametrize(
        "argv",
        [
            ["operation-curves", "--pf_grid", "0:0.1:10:log"],
            ["operation-curves", "--pf_grid=-1e-4:0.1:10:log"],
            ["m1", "--q_grid", "0:1:abc"],
            ["m1", "--q_grid", "0.1:1:2.5"],
            ["operation-curves", "--mc_list", "2.7"],
            ["m1", "--q_grid", "0.5:1.5:3"],
            ["m1", "--q_grid=-0.5:1:4"],
            ["worst-case", "--qc_grid", "0.5:1.5:3"],
            ["operation-curves", "--mc_list", ""],  # was exit 3, "no feasible operation point"
            ["qc-sweep", "--meandeg_grid", ""],  # was exit 0 with a header-only CSV
            ["qc-sweep", "--meandeg_grid", "nan"],  # was exit 1, a ValueError traceback
            ["qc-sweep", "--meandeg_grid", "inf"],  # was exit 1, an OverflowError traceback
            ["m1", "--khat_grid", "nan"],  # was exit 2 for "q must lie in (0, 1]", from a qc read as 0.0
        ],
        ids=" ".join,
    )
    def test_bad_grid_input_is_config_error(self, argv, capsys):
        assert run(argv) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("qc-sweep", "meandeg_grid"),
            ("m1", "q_grid"),
            ("m1", "pd_grid"),
            ("m1", "pf_list"),
            ("m1", "khat_grid"),
            ("m1", "alpha_grid"),
            ("m1", "beta_grid"),
            ("worst-case", "qc_grid"),
            ("empirical", "pd_grid"),
            ("empirical", "pf_list"),
            ("operation-curves", "mc_list"),
            ("operation-curves", "pf_grid"),
        ],
    )
    def test_non_finite_grid_entry_is_config_error(self, command, flag, value, capsys):
        # worst-case --qc_grid nan and inf ended in a traceback (exit 1); m1 and empirical dropped a
        # NaN p_d or p_f and exited 0 without its rows
        assert run([command, f"--{flag}={value}"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, bounds",
        [
            (["--meandeg_grid", "1.0"], "(1.01724, 144.62)"),  # k_min itself: was exit 3, "no sign change on [1, 60]"
            (["--meandeg_grid", "1.01"], "(1.01724, 144.62)"),  # below the mean at alpha = 60: was exit 3 too
            (["--meandeg_grid", "144.7"], "(1.01724, 144.62)"),  # just above (k_max - k_min)/ln(k_max/k_min)
            (["--meandeg_grid", "144.6200622"], "(1.01724, 144.62)"),  # above the mean at alpha = 1 + 1e-9: was exit 3
            (["--meandeg_grid", "600"], "(1.01724, 144.62)"),
            (["--kmin", "2", "--meandeg_grid", "2.001"], "(2.03448, 160.589)"),
            (["--kmin", "2", "--kmax", "500", "--meandeg_grid", "2"], "(2.03448, 90.1935)"),
            (["--kmin", "2", "--kmax", "500", "--meandeg_grid", "90.2"], "(2.03448, 90.1935)"),
        ],
    )
    def test_power_law_mean_out_of_reach_is_config_error(self, flags, bounds, capsys):
        assert run(["qc-sweep", *flags]) == 2
        assert f"power-law model needs mean degree in {bounds}, got" in capsys.readouterr().err

    def test_power_law_alpha_at_most_2_is_config_error(self, capsys):
        # a mean above ln(1000)/(1 - 1/1000) matches alpha <= 2, where the intentional cutoff has no root
        assert run(["qc-sweep", "--meandeg_grid", "7"]) == 2  # was exit 3, after doubling the bracket 60 times
        assert "power-law intentional threshold needs alpha > 2, got 1.99503" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kmin", "5", "--kmax", "3"], "k_max must be a whole number >= 5, got 3"),
            (["--kmax", "1"], "degenerate support (k_min == k_max) for parametric model"),
            (["--kmin", "0"], "k_min must be a whole number >= 1, got 0"),
            (["--n", "1"], "network size n must be a whole number >= 2, got 1"),
        ],
    )
    def test_bad_support_checked_before_the_skewness_solve(self, flags, message, capsys):
        assert run(["qc-sweep", *flags]) == 2
        assert capsys.readouterr().err == f"seqdef: config error: {message}\n"
        # the power-law branch checks the support itself, not only through the ER model built before it
        config = build_config("qc-sweep", {}, {flag[2:]: value for flag, value in zip(flags[::2], flags[1::2])})
        with pytest.raises(ConfigError) as exc:
            cli._model_for_mean_degree("power_law", 2.0, config)
        assert str(exc.value) == message

    def test_numerical_exit_code_through_cli(self, tmp_path):
        cfg = tmp_path / "oc.cfg"
        cfg.write_text("mc_list = 1\npf_grid = 0.2,0.3\n")
        assert run(["operation-curves", "--config", str(cfg)]) == 3

    def test_argparse_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit) as exc:
            run(["powergrid", "--scheme", "chaos"])
        assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["qc-sweep", "--seed", "5"],
            ["m1", "--seed", "5"],
            ["worst-case", "--seed", "5"],
            ["empirical", "--seed", "5"],
            ["operation-curves", "--seed", "5"],
        ],
    )
    def test_rerun_byte_identical(self, argv, tmp_path):
        out = tmp_path / "run.csv"
        assert run(argv + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_powergrid_byte_identical(self, toy_graph_path, tmp_path):
        out = tmp_path / "pg.csv"
        argv = ["powergrid", "--graph", toy_graph_path, "--trials", "5", "--steps", "5", "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_powergrid_numbers_pinned(self, toy_graph_path, tmp_path):
        # digest of the CSV body (the non-'#' lines): a refactor that moves any number fails here
        out = tmp_path / "pg.csv"
        argv = ["powergrid", "--graph", toy_graph_path, "--trials", "5", "--steps", "5", "--out", str(out)]
        assert run(argv) == 0
        body = "".join(ln for ln in out.read_text().splitlines(keepends=True) if not ln.startswith("#"))
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "58929481db222638097ee788df169b090e5e3063f7df515ccc68098ab2346226"
        )

    def test_one_parser_serves_every_run(self, capsys):
        # a flag of one call must not leak into the next, now that the parser is built once
        assert _build_parser() is _build_parser()
        lines = list(ANALYTIC_PINS)
        for line in [lines[1], lines[0], lines[3], lines[2]]:
            assert run(line.split()) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ANALYTIC_PINS[line]

    @pytest.mark.parametrize("line", list(ANALYTIC_PINS))
    def test_analytic_csvs_pinned(self, line, capsys):
        # sha256 of the whole stdout, header included: a speedup that moves any byte fails here
        assert run(line.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ANALYTIC_PINS[line]
