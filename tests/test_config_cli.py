import dataclasses
import json
import math
import os
import stat
import sys

import numpy as np
import pytest

from conftest import fem_rod
from oracles import exact_hankel_values
from tlbt.balancing import balance, select_order, truncate
from tlbt.cli import main, parse_input, parse_model
from tlbt.config import ExperimentConfig
from tlbt.gramians import GramianSet, infinite_gramians, time_limited_gramians
from tlbt.mmio import write_matrix
from tlbt.systems import StateSpaceSystem, generate_heat_model, load_system


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_sweep(path):
    text = path.read_text().splitlines()
    header = [c.strip() for c in text[0].split(",")]
    rows = []
    for line in text[1:]:
        cells = [c.strip() for c in line.split(",")]
        rows.append(dict(zip(header, cells)))
    return rows


class TestExperimentConfig:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(model="gen:10,2,2", tbar=0.5, dt=0.01, r=3, out="results")
        again = ExperimentConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg

    def test_defaults(self):
        cfg = ExperimentConfig(model="gen:5,1,1")
        assert cfg.input == "const:1"
        assert cfg.out == "out"
        assert cfg.r is None and cfg.tau is None

    def test_both_order_controls_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig(model="gen:5,1,1", r=2, tau=0.1)

    def test_require_order_control(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(model="gen:5,1,1").require_order_control()
        ExperimentConfig(model="gen:5,1,1", r=2).require_order_control()
        ExperimentConfig(model="gen:5,1,1", tau=0.1).require_order_control()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"model": "gen:5,1,1", "horizon": 2.0})

    def test_value_validation(self):
        with pytest.raises(ValueError, match="r must be"):
            ExperimentConfig(model="gen:5,1,1", r=0)
        with pytest.raises(ValueError, match="tau must be"):
            ExperimentConfig(model="gen:5,1,1", tau=-1.0)
        with pytest.raises(ValueError, match="tau must be positive, got 0"):
            ExperimentConfig(model="gen:5,1,1", tau=0.0)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            ExperimentConfig(model="gen:5,1,1", tau=math.inf)
        with pytest.raises(ValueError, match="tbar must be"):
            ExperimentConfig(model="gen:5,1,1", tbar=-2.0)
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(model="")
        # a config file can give any JSON type
        for name in ("tbar", "dt", "tend", "tau"):
            with pytest.raises(ValueError, match=f"{name} must be a real number, got '0.1'"):
                ExperimentConfig(model="gen:5,1,1", **{name: "0.1"})
        for name in ("model", "input", "out"):
            with pytest.raises(ValueError, match=f"{name} must be a string, got 5"):
                ExperimentConfig(**{"model": "gen:5,1,1", name: 5})
        # bool is a subclass of int, so true would pass as 1
        with pytest.raises(ValueError, match="r must be a positive integer, got True"):
            ExperimentConfig(model="gen:5,1,1", r=True)
        with pytest.raises(ValueError, match="r must be a positive integer, got True"):
            ExperimentConfig.from_dict(json.loads('{"model": "gen:5,1,1", "r": true}'))
        for name in ("tbar", "dt", "tend", "tau"):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite, got True"):
                ExperimentConfig(model="gen:5,1,1", **{name: True})


class TestParsers:
    def test_parse_model_generated(self):
        sys = parse_model("gen:8,3,2")
        assert (sys.n, sys.m, sys.p) == (8, 3, 2)

    def test_parse_model_bad_spec(self):
        with pytest.raises(ValueError, match="gen:n,m,p"):
            parse_model("gen:8,3")
        with pytest.raises(ValueError, match="non-integer"):
            parse_model("gen:a,b,c")

    def test_parse_input_const_broadcast(self):
        u = parse_input("const:2.5", 3)
        assert np.array_equal(u(0.0), [2.5, 2.5, 2.5])

    def test_parse_input_const_channels(self):
        u = parse_input("const:1,2", 2)
        assert np.array_equal(u(1.0), [1.0, 2.0])
        with pytest.raises(ValueError, match="channels"):
            parse_input("const:1,2", 3)

    def test_parse_input_star_needs_seven(self):
        assert parse_input("star", 7).m == 7
        with pytest.raises(ValueError, match="7 channels"):
            parse_input("star", 3)

    def test_parse_input_table(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t, u_1\n0.0, 1.0\n1.0, 3.0\n")
        u = parse_input(f"table:{path}", 1)
        assert u(0.5)[0] == pytest.approx(2.0)

    def test_parse_input_table_first_row_with_exponents_is_data(self, tmp_path):
        # 'e' in 1e-3 is a letter, but the row parses as numbers
        path = tmp_path / "u.csv"
        path.write_text("0, 1e-3\n0.5, 2e-3\n1.0, 3e-3\n")
        assert parse_input(f"table:{path}", 1)(0.0)[0] == 1e-3
        path.write_text("0; 1\n0.5, 2\n")
        with pytest.raises(ValueError, match=r"u.csv:1: non-numeric table row"):
            parse_input(f"table:{path}", 1)

    def test_parse_input_table_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("\nt, u_1\n0.0, 1.0\n1.0, 3.0\n")
        assert parse_input(f"table:{path}", 1)(0.5)[0] == pytest.approx(2.0)
        # only one header, and only before the data
        path.write_text("\nt, u_1\nt, u_1\n0.0, 1.0\n")
        with pytest.raises(ValueError, match=r"u.csv:3: non-numeric table row"):
            parse_input(f"table:{path}", 1)
        path.write_text("0.0, 1.0\n\nt, u_1\n")
        with pytest.raises(ValueError, match=r"u.csv:3: non-numeric table row"):
            parse_input(f"table:{path}", 1)

    def test_parse_input_unknown(self):
        with pytest.raises(ValueError, match="unknown input spec"):
            parse_input("ramp", 2)


class TestGenModel:
    def test_writes_matrices_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "model"
        assert run_cli("gen-model", "--model", "gen:6,2,2", "--out", out) == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "manifest.json") in printed
        loaded = load_system(out / "manifest.json")
        direct = generate_heat_model(6, 2, 2)
        assert np.array_equal(loaded.A, direct.A)
        assert np.array_equal(loaded.B, direct.B)
        assert np.array_equal(loaded.C, direct.C)

    def test_mass_matrix_rod_through_files_gives_the_api_rom(self, tmp_path):
        # the Matrix Market round trip of gen-model and reduce loses no bit
        # of the model or of the ROM
        rod = fem_rod(60, 7, 6)
        source = write_manifest(tmp_path / "rod", A=rod.A, E=rod.E, B=rod.B, C=rod.C)
        model = tmp_path / "model"
        assert run_cli("gen-model", "--model", source, "--out", model) == 0
        assert run_cli("reduce", "--model", model / "manifest.json", "--tbar", 0.05, "--order", 6,
                       "--out", tmp_path / "out") == 0
        bal = balance(time_limited_gramians(rod, 0.05), rod).reduce_to(6)
        want = truncate(rod, bal)
        got = load_system(tmp_path / "out" / "rom_manifest.json")
        for x, y in ((got.A, want.A11), (got.B, want.B1), (got.C, want.C1)):
            assert np.array_equal(x, y)
        sigma = np.loadtxt(tmp_path / "out" / "singular_values.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(sigma, bal.singular_values)
        # the kept Hankel singular values against the exact ones
        ref = exact_hankel_values("fem_rod(60,7,6)", "0.05")
        assert np.linalg.norm(sigma[:6] - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_non_ascii_model_name_is_escaped_in_comments(self, tmp_path):
        rod = fem_rod(5, 2, 2)
        source = write_manifest(tmp_path / "dir", A=rod.A, E=rod.E, B=rod.B, C=rod.C)
        named = source.with_name("modèle.json")
        source.rename(named)
        out = tmp_path / "out"
        assert run_cli("gen-model", "--model", named, "--out", out) == 0
        assert (out / "E.mtx").read_text().splitlines()[1] == "% mod\\xe8le E, n = 5"
        loaded = load_system(out / "manifest.json")
        assert np.array_equal(loaded.E, rod.E) and np.array_equal(loaded.A, rod.A)

    def test_bad_manifest_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run_cli("reduce", "--model", missing, "--tbar", 1.0, "--order", 2) == 2
        assert str(missing) in capsys.readouterr().err

    def test_manifest_value_that_names_no_file_exits_2(self, tmp_path, capsys):
        write_matrix(tmp_path / "A.mtx", [[-1.0]])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"A": "A.mtx", "B": "A.mtx", "C": 5}))
        assert run_cli("bound", "--model", bad, "--tbar", 1.0, "--order", 1, "--out", tmp_path / "out") == 2
        assert f"{bad}: role 'C' must name a file, got 5" in capsys.readouterr().err


class TestReduce:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "red"
        assert run_cli("reduce", "--model", "gen:10,10,10", "--tbar", 0.5,
                       "--order", 3, "--out", out) == 0
        for name in ("rom_A.mtx", "rom_B.mtx", "rom_C.mtx", "rom_manifest.json",
                     "singular_values.csv", "summary.json"):
            assert (out / name).exists()
        rom = load_system(out / "rom_manifest.json")
        assert rom.n == 3 and rom.m == 10 and rom.p == 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 10 and summary["r"] == 3
        assert summary["sigma_tail_sum"] > 0

    def test_singular_values_csv_nonincreasing(self, tmp_path):
        out = tmp_path / "red"
        run_cli("reduce", "--model", "gen:10,10,10", "--tbar", 0.5, "--order", 3, "--out", out)
        lines = (out / "singular_values.csv").read_text().splitlines()
        assert lines[0] == "i, sigma"
        sigma = np.array([float(line.split(",")[1]) for line in lines[1:]])
        summary = json.loads((out / "summary.json").read_text())
        assert sigma.size == summary["n_hat"]
        assert np.all(np.diff(sigma) <= 0)

    def test_tolerance_control_matches_select_order(self, tmp_path):
        out = tmp_path / "red"
        tau = 1e-2
        run_cli("reduce", "--model", "gen:10,10,10", "--tbar", 0.5, "--tol", tau, "--out", out)
        summary = json.loads((out / "summary.json").read_text())
        sys = generate_heat_model(10, 10, 10)
        bal = balance(time_limited_gramians(sys, 0.5), sys)
        assert summary["r"] == select_order(bal.singular_values, tau)
        assert summary["sigma_tail_sum"] <= tau

    def test_zero_tolerance_exits_2_before_any_gramian(self, tmp_path, capsys, monkeypatch):
        import tlbt.cli

        monkeypatch.setattr(tlbt.cli, "time_limited_gramians",
                            lambda *args: pytest.fail("the Gramians were computed"))
        assert run_cli("reduce", "--model", "gen:6,2,2", "--tbar", 0.5, "--tol", 0,
                       "--out", tmp_path) == 2
        assert "tau must be positive, got 0" in capsys.readouterr().err

    def test_missing_order_control_exits_2(self, tmp_path, capsys):
        assert run_cli("reduce", "--model", "gen:6,2,2", "--tbar", 0.5,
                       "--out", tmp_path) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": "gen:10,10,10", "tbar": 0.5, "r": 2, "out": str(tmp_path / "a")
        }))
        assert run_cli("reduce", "--config", cfg_path, "--out", tmp_path / "b") == 0
        assert not (tmp_path / "a").exists()
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["r"] == 2


class TestBound:
    def test_terms_reconstruct_epsilon(self, tmp_path):
        out = tmp_path / "bnd"
        assert run_cli("bound", "--model", "gen:10,10,10", "--tbar", 0.5,
                       "--order", 3, "--out", out) == 0
        data = json.loads((out / "bound.json").read_text())
        radicand = data["term_cpc"] + data["term_cprc"] - 2.0 * data["term_cpmc"]
        assert data["epsilon"] ** 2 == pytest.approx(radicand, abs=1e-12 * data["term_cpc"])
        assert data["r"] == 3
        assert data["horizon"] == 0.5

    def test_full_order_bound_is_zero(self, tmp_path):
        out = tmp_path / "bnd"
        run_cli("bound", "--model", "gen:8,8,8", "--tbar", 0.5, "--order", 8, "--out", out)
        data = json.loads((out / "bound.json").read_text())
        assert data["epsilon"] ** 2 <= 1e-12 * data["term_cpc"]

    def test_verify_representation_agreement(self, tmp_path):
        out = tmp_path / "bnd"
        assert run_cli("bound", "--model", "gen:12,12,12", "--tbar", 0.5,
                       "--order", 4, "--out", out, "--verify") == 0
        data = json.loads((out / "bound.json").read_text())
        for key in ("alt_leading", "alt_remainder", "alt_last",
                    "epsilon_squared_alt", "representation_discrepancy"):
            assert key in data
        eps_sq = data["epsilon"] ** 2
        assert data["representation_discrepancy"] <= 1e-7 * max(eps_sq, 1e-12 * data["term_cpc"])
        # the gap is to the trace form, not to the certified eps
        trace = data["term_cpc"] + data["term_cprc"] - 2.0 * data["term_cpmc"]
        assert data["representation_discrepancy"] == abs(data["epsilon_squared_alt"] - trace)
        # the plain sum of the terms, with no square root and square on the way
        assert data["epsilon_squared_alt"] == data["alt_leading"] + data["alt_remainder"] + data["alt_last"]


class TestSimulate:
    def test_zero_input_gives_zero_error(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--model", "gen:8,8,8", "--tbar", 0.5, "--order", 3,
                       "--input", "zero", "--dt", 0.5 / 64, "--out", out) == 0
        data = json.loads((out / "max_error.json").read_text())
        assert data["max_error_tbar"] == 0.0
        assert data["bound_level"] == 0.0
        err = np.loadtxt(out / "error.csv", delimiter=",", skiprows=1)
        assert np.array_equal(err[:, 1], np.zeros(65))

    def test_constant_input_error_below_bound(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--model", "gen:10,10,10", "--tbar", 0.5, "--order", 3,
                       "--input", "const:1", "--out", out) == 0
        data = json.loads((out / "max_error.json").read_text())
        assert 0 < data["max_error_tbar"] <= data["bound_level"]
        assert data["bound_level"] == pytest.approx(data["epsilon"] * data["input_l2_tbar"], rel=1e-12, abs=0.0)

    def test_longer_observation_window(self, tmp_path):
        out = tmp_path / "sim"
        tbar, dt = 0.25, 0.25 / 32
        assert run_cli("simulate", "--model", "gen:8,8,8", "--tbar", tbar, "--order", 2,
                       "--tend", 4 * tbar, "--dt", dt, "--out", out) == 0
        full = np.loadtxt(out / "y_full.csv", delimiter=",", skiprows=1)
        assert full.shape[0] == 129
        assert full[-1, 0] == pytest.approx(1.0, rel=1e-12, abs=0.0)
        data = json.loads((out / "max_error.json").read_text())
        assert data["max_error_total"] >= data["max_error_tbar"]

    def test_tend_shorter_than_horizon_rejected(self, tmp_path, capsys):
        assert run_cli("simulate", "--model", "gen:8,8,8", "--tbar", 1.0, "--order", 2,
                       "--tend", 0.5, "--out", tmp_path) == 2
        assert "shorter than the horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("tbar, tend, name", [(0.05, 0.3, "tbar"), (0.04, 0.31, "tend")])
    def test_grid_off_dt_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, tbar, tend, name):
        import tlbt.cli

        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(tlbt.cli, "parse_model", refuse)
        assert run_cli("simulate", "--model", "gen:8,8,8", "--tbar", tbar, "--order", 2,
                       "--tend", tend, "--dt", 0.02, "--out", tmp_path / "sim") == 2
        value = tbar if name == "tbar" else tend
        assert f"{name} = {value} is not an integer multiple of dt = 0.02" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()


def test_artifacts_get_the_mode_open_would_give(tmp_path):
    args = ("--model", "gen:8,8,8", "--tbar", 0.5, "--order", 3)
    old = os.umask(0o022)
    try:
        # the second round replaces the files the first one wrote
        for _ in range(2):
            assert run_cli("reduce", *args, "--out", tmp_path) == 0
            assert run_cli("simulate", *args, "--dt", 0.5 / 64, "--out", tmp_path) == 0
            modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
            assert len(modes) == 10
            assert modes == dict.fromkeys(modes, 0o644)
    finally:
        os.umask(old)


class TestSweep:
    def test_r_axis_errors_below_bound(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--model", "gen:12,12,12", "--tbar", 0.4, "--axis", "r",
                       "--values", "2,4,6", "--out", out) == 0
        rows = read_sweep(out / "sweep.csv")
        assert len(rows) == 6
        assert [r["method"] for r in rows] == ["BT", "TLBT"] * 3
        for row in rows:
            assert row["status"] == "ok"
            if row["method"] == "TLBT":
                assert float(row["max_error_tbar"]) <= float(row["bound_level"])
            else:
                assert row["bound_level"] == ""

    def test_tbar_axis(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--model", "gen:8,8,8", "--axis", "tbar",
                       "--values", "0.2,0.4,0.8", "--order", 2, "--out", out) == 0
        rows = read_sweep(out / "sweep.csv")
        assert len(rows) == 6
        assert all(row["r"] == "2" for row in rows)

    def test_tau_axis_orders_grow_as_tolerance_shrinks(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--model", "gen:10,10,10", "--tbar", 0.4, "--axis", "tau",
                       "--values", "1e-2,1e-4,1e-6", "--out", out) == 0
        rows = [r for r in read_sweep(out / "sweep.csv") if r["method"] == "TLBT"]
        orders = [int(r["r"]) for r in rows]
        assert orders == sorted(orders)

    def test_failed_value_is_reported_not_fatal(self, tmp_path):
        out = tmp_path / "sw"
        assert run_cli("sweep", "--model", "gen:8,8,8", "--tbar", 0.4, "--axis", "r",
                       "--values", "2,100", "--out", out) == 0
        rows = read_sweep(out / "sweep.csv")
        good = [r for r in rows if r["value"] == "2"]
        bad = [r for r in rows if r["value"] == "100"]
        assert all(r["status"] == "ok" for r in good)
        assert all(r["status"].startswith("error: ValueError") for r in bad)

    def test_deterministic_and_parallel_consistent(self, tmp_path):
        args = ("sweep", "--model", "gen:8,8,8", "--tbar", 0.4, "--axis", "r", "--values", "2,3,4")
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        assert run_cli(*args, "--out", out3, "--jobs", 2) == 0
        ref = (out1 / "sweep.csv").read_bytes()
        assert (out2 / "sweep.csv").read_bytes() == ref
        assert (out3 / "sweep.csv").read_bytes() == ref

    def test_shared_work_done_once_up_front(self, tmp_path, monkeypatch):
        import tlbt.cli

        calls = []
        for name in ("infinite_gramians", "time_limited_gramians", "input_l2_norm", "simulate"):
            def counted(*args, _name=name, _fn=getattr(tlbt.cli, name)):
                calls.append((_name, getattr(args[0], "n", None)))
                return _fn(*args)

            monkeypatch.setattr(tlbt.cli, name, counted)
        assert run_cli("sweep", "--model", "gen:8,8,8", "--tbar", 0.4, "--axis", "r",
                       "--values", "2,3,4", "--jobs", 2, "--out", tmp_path) == 0
        assert calls.count(("infinite_gramians", 8)) == 1
        assert calls.count(("time_limited_gramians", 8)) == 1
        assert calls.count(("simulate", 8)) == 1
        assert len([c for c in calls if c[0] == "input_l2_norm"]) == 1
        assert len([c for c in calls if c[0] == "simulate" and c[1] != 8]) == 6

    @pytest.mark.parametrize("args", [
        ("--tbar", 0.05, "--axis", "r", "--values", "2,3,4"),
        ("--order", 2, "--axis", "tbar", "--values", "0.05,0.1"),
    ], ids=["r", "tbar"])
    def test_grid_off_dt_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, args):
        import tlbt.cli

        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(tlbt.cli, "parse_model", refuse)
        assert run_cli("sweep", "--model", "gen:8,8,8", *args, "--dt", 0.02, "--out", tmp_path / "sw") == 2
        assert "tbar = 0.05 is not an integer multiple of dt = 0.02" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_rows_and_simulate_solve_no_trace_term(self, tmp_path, monkeypatch):
        # the TLBT rows and simulate read eps alone; bound adds the traces
        import tlbt.bounds

        calls = []
        for name in ("_mixed_core", "_reduced_gramian"):
            def counted(*args, _name=name, _fn=getattr(tlbt.bounds, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(tlbt.bounds, name, counted)
        common = ("--model", "gen:8,8,8", "--tbar", 0.4)
        assert run_cli("sweep", *common, "--axis", "r", "--values", "2,3,4", "--out", tmp_path / "sw") == 0
        assert all(row["status"] == "ok" for row in read_sweep(tmp_path / "sw" / "sweep.csv"))
        assert run_cli("simulate", *common, "--order", 2, "--out", tmp_path / "sim") == 0
        assert calls == []
        assert run_cli("bound", *common, "--order", 2, "--out", tmp_path / "b") == 0
        assert sorted(calls) == ["_mixed_core", "_reduced_gramian"]

    def test_many_workers_match_serial_run(self, tmp_path):
        args = ("sweep", "--model", "gen:8,8,8", "--order", 2, "--axis", "tbar",
                "--values", "0.2,0.4,-1,0.4,0.8,0.2")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_cli(*args, "--out", tmp_path / "a", "--jobs", 6) == 0
        finally:
            sys.setswitchinterval(switch)
        assert run_cli(*args, "--out", tmp_path / "b") == 0
        text = (tmp_path / "a" / "sweep.csv").read_bytes()
        assert text == (tmp_path / "b" / "sweep.csv").read_bytes()
        rows = read_sweep(tmp_path / "a" / "sweep.csv")
        assert [r["status"] == "ok" for r in rows] == [True] * 4 + [False] * 2 + [True] * 6
        # the failed horizon's shared work fails both of its rows
        assert rows[4]["status"].startswith("error: ValueError: dt must be positive")
        assert rows[5]["status"].startswith("error: ValueError: tbar must be positive")

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_exits_2(self, tmp_path, capsys, jobs):
        assert run_cli("sweep", "--model", "gen:8,8,8", "--tbar", 0.4, "--axis", "r",
                       "--values", "2", "--jobs", jobs, "--out", tmp_path) == 2
        assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_tbar_axis_requires_order_control(self, tmp_path, capsys):
        assert run_cli("sweep", "--model", "gen:8,8,8", "--axis", "tbar",
                       "--values", "0.2,0.4", "--out", tmp_path) == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["r", "tau"])
    def test_r_and_tau_axes_require_tbar(self, tmp_path, capsys, axis):
        assert run_cli("sweep", "--model", "gen:8,8,8", "--axis", axis,
                       "--values", "2", "--out", tmp_path) == 2
        assert "tbar is required" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


def count_factorizations(monkeypatch, *argv):
    """Run the CLI and return the matrices handed to scipy's Schur
    factorization, the shapes handed to its expm (one (n, n) entry per
    call, also for a batched call on a stack of n x n matrices) and the
    matrices handed to its eigh."""
    import scipy.linalg

    schur, expm, eigh = scipy.linalg.schur, scipy.linalg.expm, scipy.linalg.eigh
    factored, exponentiated, decomposed = [], [], []

    def counting_schur(a, *args, **kwargs):
        factored.append(np.array(a))
        return schur(a, *args, **kwargs)

    def counting_expm(a, *args, **kwargs):
        exponentiated.append(np.shape(a)[-2:])
        return expm(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        decomposed.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    assert run_cli(*argv) == 0
    return factored, exponentiated, decomposed


@pytest.mark.parametrize("command", ["reduce", "bound"])
def test_one_eigh_and_no_schur_form_or_expm_per_command(command, tmp_path, monkeypatch):
    factored, exponentiated, decomposed = count_factorizations(
        monkeypatch, command, "--model", "gen:80,7,6", "--tbar", 0.05, "--order", 9,
        "--out", tmp_path)
    # A is symmetric tridiagonal Toeplitz: its sine eigenbasis, read in
    # closed form, gives the Gramians, the propagators and the kernel samples
    assert decomposed == []
    assert [x.shape for x in factored].count((80, 80)) == 0
    assert exponentiated.count((80, 80)) == 0


def write_manifest(folder, **roles):
    folder.mkdir()
    for role, mat in roles.items():
        write_matrix(folder / f"{role}.mtx", mat)
    (folder / "manifest.json").write_text(json.dumps({r: f"{r}.mtx" for r in roles}))
    return folder / "manifest.json"


@pytest.mark.parametrize("command", ["reduce", "bound"])
def test_mass_matrix_model_is_one_generalized_eigh(command, tmp_path, monkeypatch):
    rod = fem_rod(60, 7, 6)
    manifest = write_manifest(tmp_path / "model", A=rod.A, E=rod.E, B=rod.B, C=rod.C)
    factored, exponentiated, decomposed = count_factorizations(
        monkeypatch, command, "--model", manifest, "--tbar", 0.05, "--order", 6,
        "--out", tmp_path / "out")
    # A and E are symmetric tridiagonal Toeplitz, E with a positive symbol:
    # the pencil's eigenbasis is the sine basis, scaled
    assert decomposed == []
    assert [x.shape for x in factored].count((60, 60)) == 0
    assert exponentiated.count((60, 60)) == 0


def test_bound_factors_the_reduced_operator_once(tmp_path, monkeypatch):
    # the hypothesis check, the reduced and mixed Gramians and the kernel
    # samples of the reduced model share one Schur form of A11 and one
    # batched expm of it
    factored, exponentiated, _ = count_factorizations(
        monkeypatch, "bound", "--model", "gen:80,7,6", "--tbar", 0.05, "--order", 9,
        "--out", tmp_path)
    assert [x.shape for x in factored] == [(9, 9)]
    assert exponentiated == [(9, 9)]


@pytest.mark.parametrize("command", ["reduce", "bound"])
def test_nonsymmetric_model_factors_a_and_its_transpose(command, tmp_path, monkeypatch):
    heat = generate_heat_model(30, 2, 2)
    # upwind advection makes A non-symmetric; it stays Hurwitz
    a = heat.A + 20.0 * (np.eye(30, k=-1) - np.eye(30))
    manifest = write_manifest(tmp_path / "model", A=a, B=heat.B, C=heat.C)
    factored, exponentiated, _ = count_factorizations(
        monkeypatch, command, "--model", manifest, "--tbar", 0.05,
        "--order", 4, "--out", tmp_path / "out")
    # A^T's Schur form is A's, reversed
    full = [x for x in factored if x.shape == (30, 30)]
    assert len(full) == 1 and np.array_equal(full[0], a)
    # e^(A tbar) for the propagators; bound adds one batched expm of A at
    # the kernel mesh's finest panel width and its four node offsets
    assert exponentiated.count((30, 30)) == (2 if command == "bound" else 1)


def counted_eighs(monkeypatch):
    """The shapes of the matrices handed to np.linalg.eigh from now on."""
    eigh = np.linalg.eigh
    shapes = []

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return shapes


@pytest.mark.parametrize("command", ["reduce", "bound"])
def test_one_eigh_per_gramian_per_command(command, tmp_path, monkeypatch):
    shapes = counted_eighs(monkeypatch)
    assert run_cli(command, "--model", "gen:80,7,6", "--tbar", 0.05, "--order", 9,
                   "--out", tmp_path) == 0
    # the eigen record factors a finite horizon's P and Q by pivoted
    # Cholesky from their closed-form columns
    assert shapes.count((80, 80)) == 0


def test_no_eigh_of_a_schur_record_time_limited_gramian(monkeypatch):
    # the Schur record factors a finite horizon's cores by pivoted
    # Cholesky, and the unrestricted pair's by one eigh each
    heat = generate_heat_model(100, 7, 6)
    sys = StateSpaceSystem(A=heat.A + 20.0 * (np.eye(100, k=-1) - np.eye(100)), B=heat.B, C=heat.C)
    shapes = counted_eighs(monkeypatch)
    time_limited_gramians(sys, 0.05)
    assert shapes.count((100, 100)) == 0
    infinite_gramians(sys)
    assert shapes.count((100, 100)) == 2


def test_one_eigh_per_unrestricted_gramian(monkeypatch):
    shapes = counted_eighs(monkeypatch)
    infinite_gramians(generate_heat_model(80, 7, 6))
    # P and Q, each checked, clamped and factored from one eigendecomposition
    assert shapes.count((80, 80)) == 2


def formed_gramians(monkeypatch, *argv):
    """Run the CLI and return the dense Gramians it read, as (name, order)."""
    formed = []

    def spying(name):
        prop = getattr(GramianSet, name)

        def read(self):
            formed.append((name, self.lowrank_P.shape[0]))
            return prop.fget(self)

        return property(read)

    for name in ("P", "Q"):
        monkeypatch.setattr(GramianSet, name, spying(name))
    assert run_cli(*argv) == 0
    return formed


@pytest.mark.parametrize("model", ["gen", "fem"])
def test_reduce_forms_no_dense_gramian(model, tmp_path, monkeypatch):
    # balancing and truncation read the factors only
    if model == "fem":
        rod = fem_rod(60, 7, 6)
        model = write_manifest(tmp_path / "model", A=rod.A, E=rod.E, B=rod.B, C=rod.C)
    else:
        model = "gen:80,7,6"
    assert formed_gramians(monkeypatch, "reduce", "--model", model, "--tbar", 0.05,
                           "--order", 6, "--out", tmp_path / "out") == []


@pytest.mark.parametrize("command", [("bound", "--order", 2), ("simulate", "--order", 2),
                                     ("sweep", "--axis", "r", "--values", "1,2,3")], ids=lambda c: c[0])
def test_bound_simulate_and_sweep_form_no_dense_gramian(command, tmp_path, monkeypatch):
    # tr(C P C^T) reads the factor of P
    def dense(self):
        raise AssertionError("a dense Gramian was read")

    for name in ("P", "Q"):
        monkeypatch.setattr(GramianSet, name, property(dense))
    assert run_cli(*command, "--model", "gen:20,3,2", "--tbar", 0.05, "--out", tmp_path) == 0
    if command[0] == "sweep":
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and all(row.endswith(", ok") for row in rows), rows


def test_verify_adds_no_factorization_to_bound(tmp_path, monkeypatch):
    args = ("--model", "gen:40,40,40", "--tbar", 0.05, "--order", 4)
    factored, exponentiated, decomposed = count_factorizations(
        monkeypatch, "bound", *args, "--out", tmp_path / "v", "--verify")
    # the balanced-coordinates route reuses the eigenbasis and the
    # propagators of the trace route
    assert decomposed == []
    assert [x.shape for x in factored].count((40, 40)) == 0
    assert exponentiated.count((40, 40)) == 0
    assert run_cli("bound", *args, "--out", tmp_path / "b") == 0
    verified = json.loads((tmp_path / "v" / "bound.json").read_text())
    plain = json.loads((tmp_path / "b" / "bound.json").read_text())
    for key in ("epsilon", "term_cpc", "term_cprc", "term_cpmc"):
        assert verified[key] == plain[key]


@pytest.mark.parametrize("command", ["reduce", "bound"])
def test_sine_basis_transforms_only_x_t_b_and_c_x(command, tmp_path, monkeypatch):
    # from order 512 the sine basis is applied by FFT; Gramians, balancing,
    # truncation and the mixed Gramian stay in eigen coordinates, so the
    # only transforms are the record's X^T B (7 columns) and C X (6)
    import tlbt.systems

    dst1, columns = tlbt.systems._dst1, []

    def spy(m):
        columns.append(m.shape[1])
        return dst1(m)

    monkeypatch.setattr(tlbt.systems, "_dst1", spy)
    assert run_cli(command, "--model", "gen:800,7,6", "--tbar", 0.05, "--order", 9, "--out", tmp_path) == 0
    assert columns == [7, 6]
