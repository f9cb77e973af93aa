import json

import pytest

from awgp.cli import main
from awgp.config import build_scenario
from awgp.fsde import estimate_coupling_cost
from awgp.gauss_aw import DistanceReport
from awgp.oracles import default_registry_path, get_golden


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def spec_files(tmp_path):
    spec1 = {"T": 1.0, "components": [
        {"kernel": {"kind": "molchan_golosov", "h": 0.5}, "measure": "lebesgue"}]}
    spec2 = {"T": 1.0, "components": [
        {"kernel": {"kind": "molchan_golosov", "h": 0.75}, "measure": "lebesgue"}]}
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    p1.write_text(json.dumps(spec1))
    p2.write_text(json.dumps(spec2))
    return str(p1), str(p2)


class TestAwFbm:
    def test_equal_hurst_zero(self, capsys):
        code, out, _ = run_cli(capsys, "aw-fbm", "--h1", "0.5", "--h2", "0.5",
                               "--T", "1", "--grid", "64")
        assert code == 0
        assert json.loads(out)["distance_squared"] == 0.0

    def test_golden_value(self, capsys):
        code, out, _ = run_cli(capsys, "aw-fbm", "--h1", "0.5", "--h2", "0.75",
                               "--T", "1", "--grid", "256")
        assert code == 0
        val = json.loads(out)["distance_squared"]
        assert val == pytest.approx(get_golden("aw2_fbm_h050_h075_T1"), rel=1e-4)

    def test_json_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "aw-fbm", "--h1", "0.6", "--h2", "0.8",
                            "--grid", "64", "--correlations")
        rep = DistanceReport.from_json(out)
        assert rep.to_dict(include_correlation=True) == json.loads(out)

    def test_sweep_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "aw-fbm", "--sweep", "--h1-range", "0.5:0.7:2",
                             "--h2-range", "0.5:0.7:2", "--grid", "32",
                             "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "H1,H2,aw_squared"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.5 and float(first[2]) == 0.0

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_sweep_exit_2(self, tmp_path, capsys, count):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "aw-fbm", "--sweep", "--h1-range", f"0.1:0.9:{count}",
                               "--output", str(out_path))
        assert code == 2
        assert "count" in err and not out_path.exists()

    def test_csv_states_the_node_count(self, capsys):
        # the self-similar rule rounds --grid to a multiple of 16, at least 32; the header
        # stays first
        outs = {}
        for grid in ("1", "2", "100"):
            code, out, _ = run_cli(capsys, "aw-fbm", "--h1", "0.3", "--h2", "0.7",
                                   "--grid", grid, "--format", "csv")
            assert code == 0
            outs[grid] = out.strip().splitlines()
            assert outs[grid][0] == "distance_squared,trace_term,cross_term"
        assert outs["1"] == outs["2"] and outs["1"][-1] == "# n_s,32"
        assert outs["100"][-1] == "# n_s,96"

    def test_csv_states_the_cantor_cell_count(self, tmp_path, capsys):
        # a singular measure takes its own 2^k >= 8 n_s cells: 128 for --grid 16
        spec = tmp_path / "cantor.json"
        spec.write_text(json.dumps({"T": 1.0, "components": [
            {"kernel": {"kind": "brownian"}, "measure": "cantor"}]}))
        code, out, _ = run_cli(capsys, "aw-unit", "--spec1", str(spec), "--spec2", str(spec),
                               "--grid", "16", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[-1] == "# n_s,128"

    def test_default_sweep_is_symmetric_with_zero_diagonal(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "aw-fbm", "--sweep", "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "H1,H2,aw_squared" and len(lines) == 82
        table = {(h1, h2): float(v) for h1, h2, v in (line.split(",") for line in lines[1:])}
        for (h1, h2), v in table.items():
            assert v == table[h2, h1]
            assert v == 0.0 if h1 == h2 else v > 0.0

    def test_idempotent_output(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli(capsys, "aw-fbm", "--h1", "0.55", "--h2", "0.7", "--grid", "48",
                "--output", str(a))
        run_cli(capsys, "aw-fbm", "--h1", "0.55", "--h2", "0.7", "--grid", "48",
                "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    # each mode refuses the flags only the other reads; once a sweep dropped --h1 and
    # --correlations and wrote CSV under --format json, and a pair dropped the ranges
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("fields,refused", [
        ({"sweep": True, "h1": 0.3, "format": "json", "correlations": True},
         ["--h1", "--correlations"]),
        ({"sweep": True, "h2": 0.0}, ["--h2"]),
        ({"h1": 0.3, "h2": 0.5, "h1_range": "0.1:0.2:2"}, ["--h1-range"]),
        ({"h1": 0.3, "h2": 0.5, "h2_range": "0.1:0.2:2"}, ["--h2-range"]),
    ], ids=["sweep-h1-correlations", "sweep-h2", "pair-h1-range", "pair-h2-range"])
    def test_flag_of_the_other_mode_exit_2(self, fields, refused, via_config, tmp_path, capsys):
        out_path = tmp_path / "out.txt"
        argv = ["aw-fbm", "--grid", "8", "--output", str(out_path)]
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(fields))
            argv += ["--config", str(cfg)]
        else:
            for key, value in fields.items():
                argv += ["--" + key.replace("_", "-")] + ([] if value is True else [str(value)])
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and not out_path.exists()
        assert all(flag in err for flag in refused)

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "aw-fbm", "--h1", "0.5")
        assert code == 2
        assert "--h2" in err

    def test_overflowing_horizon_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "aw-fbm", "--h1", "0.3", "--h2", "0.7", "--T", "1e300")
        assert code == 3 and out == ""
        assert "overflows" in err and "Traceback" not in err and len(err.splitlines()) == 1

    def test_vanishing_horizon_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "aw-fbm", "--h1", "0.3", "--h2", "0.7", "--T", "1e-300")
        assert code == 3 and out == ""
        assert "underflows" in err and "Traceback" not in err and len(err.splitlines()) == 1

    def test_domain_validation_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "aw-fbm", "--h1", "1.5", "--h2", "0.5")
        assert code == 2
        assert "validation" in err

    # every case fails while parsing, before any worker could start
    def test_threads_env_not_an_integer_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("AWGP_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "scenario.json"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_threads_env_read_on_every_call(self, tmp_path, monkeypatch, capsys):
        # the parser is built once per process, so the variable must not be read there
        path = tmp_path / "cov.csv"
        path.write_text("1,0.5\n0.5,2\n")
        argv = ["aw-discrete", "--cov1", str(path), "--cov2", str(path)]
        monkeypatch.setenv("AWGP_THREADS", "2")
        assert main(argv) == 0
        monkeypatch.setenv("AWGP_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_flag_not_positive_exit_2(self, value, monkeypatch, capsys):
        monkeypatch.delenv("AWGP_THREADS", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "scenario.json", f"--threads={value}"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestAwDiscrete:
    def test_equal_matrices(self, tmp_path, capsys):
        path = tmp_path / "cov.csv"
        path.write_text("1,0.5\n0.5,2\n")
        code, out, _ = run_cli(capsys, "aw-discrete", "--cov1", str(path), "--cov2", str(path))
        assert code == 0
        assert json.loads(out)["distance_squared"] == pytest.approx(0.0, abs=1e-12)

    def test_not_positive_definite_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n2,1\n")
        code, _, err = run_cli(capsys, "aw-discrete", "--cov1", str(path), "--cov2", str(path))
        assert code == 2
        assert "pivot" in err

    def test_non_finite_entry_exit_2(self, tmp_path, capsys):
        path, eye = tmp_path / "nan.csv", tmp_path / "eye.csv"
        path.write_text("nan,0\n0,1\n")
        eye.write_text("1,0\n0,1\n")
        code, out, err = run_cli(capsys, "aw-discrete", "--cov1", str(path), "--cov2", str(eye))
        assert code == 2
        assert out == "" and "finite" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "aw-discrete", "--cov1", "nope.csv", "--cov2", "nope.csv")
        assert code == 2


class TestAwUnitMulti:
    def test_unit(self, spec_files, capsys):
        p1, p2 = spec_files
        code, out, _ = run_cli(capsys, "aw-unit", "--spec1", p1, "--spec2", p2, "--grid", "128")
        assert code == 0
        val = json.loads(out)["distance_squared"]
        assert val == pytest.approx(get_golden("aw2_fbm_h050_h075_T1"), rel=1e-3)

    def test_multi_matches_unit(self, spec_files, capsys):
        p1, p2 = spec_files
        _, out_u, _ = run_cli(capsys, "aw-unit", "--spec1", p1, "--spec2", p2, "--grid", "64")
        _, out_m, _ = run_cli(capsys, "aw-multi", "--spec1", p1, "--spec2", p2, "--grid", "64")
        assert (json.loads(out_m)["distance_squared"]
                == pytest.approx(json.loads(out_u)["distance_squared"], abs=1e-10))

    def test_config_file_supplies_flags(self, spec_files, tmp_path, capsys):
        p1, p2 = spec_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec1": p1, "spec2": p2, "grid": 64}))
        code, out, _ = run_cli(capsys, "aw-unit", "--config", str(cfg))
        assert code == 0
        assert "distance_squared" in json.loads(out)

    def test_config_sets_flags_with_defaults(self, spec_files, tmp_path, capsys):
        p1, p2 = spec_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec1": p1, "spec2": p2, "grid": 32, "format": "csv"}))
        code, out, _ = run_cli(capsys, "aw-unit", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "distance_squared,trace_term,cross_term"
        # an explicit flag wins over the config
        code, out, _ = run_cli(capsys, "aw-unit", "--config", str(cfg), "--format", "json")
        assert code == 0
        assert "distance_squared" in json.loads(out)

    def test_seed_flag_rejected(self, spec_files):
        p1, p2 = spec_files
        with pytest.raises(SystemExit) as exc:
            main(["aw-unit", "--spec1", p1, "--spec2", p2, "--seed", "1"])
        assert exc.value.code == 2

    def test_unknown_config_field_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["aw-unit", "--config", str(cfg)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("base", ["mg", "rl"])
    def test_overflowing_fou_kernel_exit_3(self, base, spec_files, tmp_path, capsys):
        fou = tmp_path / "fou.json"
        fou.write_text(json.dumps({"T": 1.0, "components": [{"kernel": {
            "kind": "fou", "h": 0.7, "lam": 1000.0, "base": base, "convention": "forward"}}]}))
        code, out, err = run_cli(capsys, "aw-unit", "--spec1", spec_files[0], "--spec2",
                                 str(fou), "--grid", "32")
        assert code == 3 and out == ""
        assert "lam = 1000" in err

    def test_vanishing_horizon_cumulative_route_exit_3(self, tmp_path, capsys):
        paths = []
        for name, kernel in (("fou", {"kind": "fou", "h": 0.3, "lam": 2.0, "base": "rl"}),
                             ("bm", "brownian")):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"T": 1e-300, "components": [{"kernel": kernel}]}))
        code, out, err = run_cli(capsys, "aw-unit", "--spec1", str(paths[0]), "--spec2",
                                 str(paths[1]))
        assert code == 3 and out == ""
        assert "underflows" in err and "Traceback" not in err

    # np.interp needs increasing abscissae and would silently interpolate anything else
    @pytest.mark.parametrize("component", [
        {"kernel": {"kind": "constant_volatility", "s": [0.5, 0.0, 1.0], "rho": [1, 2, 3]}},
        {"kernel": {"kind": "constant_volatility", "s": [0.0, 0.5, 1.0], "rho": [1, None, 3]}},
        {"kernel": "brownian", "measure": {"kind": "tabulated", "s": [0.0, 0.0, 1.0],
                                           "rho": [1, 2, 3]}},
    ], ids=["kernel-unordered", "kernel-nan", "measure-repeated"])
    def test_bad_interpolation_table_exit_2(self, component, spec_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 1.0, "components": [component]}))
        code, out, err = run_cli(capsys, "aw-unit", "--spec1", str(bad), "--spec2",
                                 spec_files[0], "--grid", "32")
        assert code == 2 and out == ""
        assert "validation error" in err


# each subcommand takes only the common flags its handler reads
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "format", "csv"), ("simulate", "grid", 64), ("simulate", "correlations", True),
    ("check-assumptions", "format", "csv"), ("check-assumptions", "grid", 64),
    ("check-assumptions", "correlations", True), ("aw-discrete", "grid", 64),
    ("mart-approx", "correlations", True), ("aw-fbm", "threads", 2), ("aw-multi", "threads", 2),
    ("mart-approx", "threads", 2), ("check-assumptions", "threads", 2),
])
def test_unread_common_flag_exit_2(command, flag, value, via_config, tmp_path, capsys):
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--" + flag] + ([] if value is True else [str(value)])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", [["aw-fbm", "--h1", "0.5", "--h2", "0.7"],
                                     ["aw-unit"], ["aw-multi"], ["mart-approx", "--h", "0.7"]],
                         ids=["aw-fbm", "aw-unit", "aw-multi", "mart-approx"])
@pytest.mark.parametrize("value", ["0", "-5", "2.5"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_non_positive_grid_exit_2(command, value, via_config, spec_files, tmp_path, capsys):
    if command[0] in ("aw-unit", "aw-multi"):
        command = command + ["--spec1", spec_files[0], "--spec2", spec_files[1]]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": json.loads(value)}))
        argv = command + ["--config", str(cfg)]
    else:
        argv = command + ["--grid", value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


class TestMartApprox:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "mart-approx", "--h", "0.5", "--grid", "32")
        assert code == 0
        data = json.loads(out)
        assert data["distance_squared"] <= 1e-10
        assert len(data["r"]) == len(data["rho"]) == 32

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "mart-approx", "--h", "0.6", "--grid", "16",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# distance_squared,")
        assert lines[1] == "r,rho"
        assert len(lines) == 19
        assert lines[-1] == "# distance_nodes,32"

    def test_json_records_distance_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "mart-approx", "--h", "0.7", "--grid", "100")
        assert code == 0
        assert json.loads(out)["grid_meta"] == {"distance_nodes": 96}

    @pytest.mark.parametrize("T", ["0", "-1", "nan", "inf"])
    def test_bad_horizon_exit_2(self, capsys, T):
        code, _, err = run_cli(capsys, "mart-approx", "--h", "0.7", "--T", T)
        assert code == 2
        assert "horizon" in err


def _scenario(tmp_path, **overrides):
    cfg = {
        "h1": 0.6, "h2": 0.8,
        "kernel1": "molchan_golosov", "kernel2": "molchan_golosov",
        "drift1": "tanh", "drift2": "tanh",
        "sigma1": {"name": "const", "c": 1.0}, "sigma2": {"name": "const", "c": 1.0},
        "x01": 0.0, "x02": 0.2,
        "T": 1.0, "M": 32, "n_paths": 200, "seed": 5,
        "controls": ["synchronous", "independent",
                     {"kind": "random_piecewise", "cells": 8, "count": 2, "seed": 3}],
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSimulate:
    def test_records_and_paths(self, tmp_path, capsys):
        sc = _scenario(tmp_path)
        paths_csv = tmp_path / "paths.csv"
        code, out, _ = run_cli(capsys, "simulate", "--scenario", sc,
                               "--paths-csv", str(paths_csv))
        assert code == 0
        records = json.loads(out)
        assert len(records) == 4
        assert all({"mean", "std_error", "n_paths", "control"} <= set(r) for r in records)
        assert records[0]["control"]["kind"] == "synchronous"
        lines = paths_csv.read_text().strip().splitlines()
        assert lines[0] == "path_id,t,x1,x2"
        assert len(lines) == 1 + 10 * 33

    def test_deterministic_across_runs(self, tmp_path, capsys):
        sc = _scenario(tmp_path)
        _, out1, _ = run_cli(capsys, "simulate", "--scenario", sc)
        _, out2, _ = run_cli(capsys, "simulate", "--scenario", sc)
        assert out1 == out2

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_battery_output_is_the_per_control_loop(self, tmp_path, capsys, threads):
        # one battery call prints, byte for byte, what one estimate per control printed
        sc = _scenario(tmp_path, n_paths=5000, M=16)
        code, out, _ = run_cli(capsys, "simulate", "--scenario", sc, "--threads", threads)
        scenario = build_scenario(sc)
        records = [estimate_coupling_cost(scenario.spec1, scenario.spec2, control,
                                          scenario.n_steps, scenario.n_paths, scenario.seed,
                                          n_workers=int(threads)).to_dict()
                   for control in scenario.controls]
        assert code == 0 and out == json.dumps(records, indent=2) + "\n"

    def test_explosion_exit_3(self, tmp_path, capsys):
        sc = _scenario(tmp_path, drift1={"name": "linear", "a": 1e5},
                       controls=["synchronous"], M=8)
        code, _, err = run_cli(capsys, "simulate", "--scenario", sc)
        assert code == 3
        assert "numerical failure" in err

    def test_bad_grid_exit_2(self, tmp_path, capsys):
        sc = _scenario(tmp_path, M=4)
        code, _, _ = run_cli(capsys, "simulate", "--scenario", sc)
        assert code == 2

    def test_fou_kernel_scenario(self, tmp_path, capsys):
        sc = _scenario(tmp_path, kernel2={"kind": "fou", "lam": 1.0, "n_inner": 16},
                       M=16, n_paths=60, controls=["synchronous"])
        code, out, _ = run_cli(capsys, "simulate", "--scenario", sc)
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1 and records[0]["mean"] >= 0.0

    @pytest.mark.parametrize("fou", [{"lam": float("nan")}, {"lam": 1.0, "n_inner": 10},
                                     {"lam": 1.0, "base": "rl", "n_inner": 32}])
    def test_bad_fou_kernel_exit_2(self, tmp_path, capsys, fou):
        sc = _scenario(tmp_path, kernel2={"kind": "fou", **fou}, M=16, n_paths=60,
                       controls=["synchronous"])
        code, _, _ = run_cli(capsys, "simulate", "--scenario", sc)
        assert code == 2


    @pytest.mark.parametrize("control", [
        {"kind": "piecewise_constant", "values": []},
        {"kind": "random_piecewise", "cells": 0},
        {"kind": "random_piecewise", "cells": -2},
        {"kind": "piecewise_constant", "values": [0.5, float("nan")]},
        {"kind": "tabulated", "times": [0.5, 0.0, 1.0], "values": [0.1, 0.2, 0.3]},
        {"kind": "tabulated", "times": [0.0, 1.0], "values": [0.1, 0.2, 0.3]},
    ], ids=["empty", "no-cells", "negative-cells", "nan", "times-not-increasing",
            "length-mismatch"])
    def test_bad_control_exit_2(self, tmp_path, capsys, control):
        sc = _scenario(tmp_path, controls=["synchronous", control])
        code, out, err = run_cli(capsys, "simulate", "--scenario", sc)
        assert code == 2 and out == ""
        assert "validation error" in err


    @pytest.mark.parametrize("overrides", [
        {"drift1": {"name": "tabulated", "x": [1.0, -1.0], "y": [0.0, 1.0]}},
        {"sigma2": {"name": "tabulated", "x": [-1.0, 1.0], "y": [1.0, None]}},
    ], ids=["drift-unordered", "diffusion-nan"])
    def test_bad_interpolation_table_exit_2(self, tmp_path, capsys, overrides):
        sc = _scenario(tmp_path, controls=["synchronous"], **overrides)
        code, out, err = run_cli(capsys, "simulate", "--scenario", sc)
        assert code == 2 and out == ""
        assert "validation error" in err


class TestCheckAssumptions:
    def test_reports_both_processes(self, tmp_path, capsys):
        sc = _scenario(tmp_path)
        code, out, _ = run_cli(capsys, "check-assumptions", "--scenario", sc)
        assert code == 0
        data = json.loads(out)
        assert data["process1"]["monotonicity_satisfied"]
        assert data["process2"]["all_regularity_passed"]


class TestRegenGoldens:
    def test_writes_registry(self, tmp_path, capsys):
        out = tmp_path / "goldens.json"
        code, _, err = run_cli(capsys, "regen-goldens", "--output", str(out))
        assert code == 0
        reg = json.loads(out.read_text())
        assert "aw2_fbm_h050_h075_T1" in reg
        assert "regenerated" in err

    def test_output_required(self):
        packaged = default_registry_path()
        before = packaged.read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["regen-goldens"])
        assert exc.value.code == 2
        assert packaged.read_bytes() == before
