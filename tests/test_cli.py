import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qbounce.classical import collision_table
from qbounce.cli import (ConfigError, compute_series, main, parse_config,
                         SERIES_COLUMNS)

BASE_CONFIG = """\
# light molecule bouncing off a heavy partner
m_x      = 1.0
m_y      = 400.0
x_m0     = 25.0
y_m0     = 50.0
sigma0x  = 1.0
sigma0y  = 0.5
p_x0     = 190.0
schedule = auto
seed     = 0
"""


def write_config(tmp_path, text=BASE_CONFIG, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.params.y_M0 == 50.0
        assert cfg.schedule == "auto"
        assert cfg.seed == 0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "sigma_0y = 0.4\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_missing_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "m_y = 400.0\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG + "m_y = 100.0\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_physics_reported_with_field(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace("p_x0     = 190.0",
                                                          "p_x0     = -5.0"))
        with pytest.raises(ConfigError, match="p_x0"):
            parse_config(path)

    def test_explicit_schedule_sorted(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", "schedule = 0.3,0.1,0.2"))
        cfg = parse_config(path)
        assert cfg.schedule == [0.1, 0.2, 0.3]

    def test_oracle_flags(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto",
            "schedule = auto\noracles  = event_driven,monte_carlo:2000"))
        cfg = parse_config(path)
        assert cfg.event_driven
        assert cfg.monte_carlo == 2000


class TestRun:
    def test_end_to_end_arc(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        with open(out / "series.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [c for c in rows[0]] == SERIES_COLUMNS
        ns = [int(float(r["n"])) for r in rows]
        assert ns[0] == 0
        assert ns == sorted(ns)
        purities = [float(r["purity"]) for r in rows]
        assert purities[0] == 1.0
        assert min(purities) < 0.9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["validity_warning"] is False
        assert manifest["n_max"] == 15

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto",
            "schedule = auto\noracles  = monte_carlo:500"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out_a), "--seed", "3"]) == 0
        assert main(["run", str(cfg), "--out", str(out_b), "--seed", "3"]) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()

    def test_different_seed_changes_mc_columns(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto",
            "schedule = auto\noracles  = monte_carlo:500"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--out", str(out_a), "--seed", "3"])
        main(["run", str(cfg), "--out", str(out_b), "--seed", "4"])
        assert (out_a / "series.csv").read_bytes() != (out_b / "series.csv").read_bytes()

    def test_validity_warning_flag(self, tmp_path):
        slow = BASE_CONFIG.replace("p_x0     = 190.0", "p_x0     = 40.0")
        cfg = write_config(tmp_path, slow)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["validity_figure"] < 1.0
        assert manifest["validity_warning"] is True

    def test_mixed_phase_instant_diagnostic(self, tmp_path, capsys):
        from qbounce.channels import reference_trajectory
        base = parse_config(write_config(tmp_path))
        t_bad = reference_trajectory(base.params).pair_events[3].t
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", f"schedule = {t_bad:.12g}"), name="bad.cfg")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "nearest safe instants" in err
        assert not (tmp_path / "o").exists()

    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", "schedule = -1.0"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "backwards" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "bogus = 1\n")
        assert main(["run", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, flags, match", [
        ("seed = zero", [], "'seed': expected an integer, got 'zero'"),
        ("oracles = monte_carlo:lots", [], "expected an integer, got 'lots'"),
        ("oracles = monte_carlo:0", [], "must be positive, got 0"),
        ("oracles = monte_carlo:-5", [], "must be positive, got -5"),
        ("oracles = grid:n=abc;l=30;dt=2e-3", [], "grid n: expected an integer"),
        ("oracles = grid:n=512;l=30;dt=fast", [], "grid dt: expected a number"),
        ("", ["--oracles", "monte_carlo:x"], "--oracles: monte_carlo sample count"),
        ("", ["--oracles", "monte_carlo:0"], "--oracles: .* must be positive"),
        ("", ["--oracles", "bogus"], "--oracles: unknown oracle 'bogus'"),
        ("seed = -1", [], "'seed': must be non-negative, got -1"),
        ("", ["--seed", "-1"], "--seed: must be non-negative, got -1"),
    ], ids=["seed", "mc-count", "mc-zero", "mc-negative", "grid-n", "grid-dt",
            "cli-mc-count", "cli-mc-zero", "cli-unknown", "seed-negative",
            "cli-seed-negative"])
    def test_malformed_value_exit_code(self, tmp_path, capsys, extra, flags, match):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("seed     = 0\n", "")
                           + extra + "\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: ")
        assert re.search(match, err)
        assert not out.exists()

    def test_cli_oracles_share_config_parser(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out),
                     "--oracles", "event_driven,monte_carlo:300"]) == 0
        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert header[-2:] == ["mc_dsigma_y", "mc_dsigma_x"]

    def test_manifest_lists_config_and_cli_oracles(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto",
            "schedule = auto\noracles  = monte_carlo:500"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out),
                     "--oracles", "event_driven"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {s.partition(":")[0] for s in manifest["config"]["oracles"].split(",")}
        assert names == {"monte_carlo", "event_driven"}
        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert header[-2:] == ["mc_dsigma_y", "mc_dsigma_x"]

    def test_import_loads_neither_scipy_nor_numba(self):
        # either would add to every run's start-up time and peak memory
        code = ("import sys, qbounce.cli; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "& {'scipy', 'numba'}))")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.stdout.strip() == "[]"

    def test_series_builds_collision_table_once(self, tmp_path):
        # one table per scenario, not one per instant: the per-instant
        # rebuilds made the analytic series O(n_max^2)
        cfg = parse_config(write_config(tmp_path, BASE_CONFIG.replace(
            "p_x0     = 190.0", "p_x0     = 191.0")))
        collision_table.cache_clear()
        rows, _ = compute_series(cfg)
        info = collision_table.cache_info()
        assert len(rows) == 32
        assert info.misses <= 1
        assert info.hits + info.misses <= 2

    def test_small_eps_run_returns_to_purity_one(self, tmp_path):
        # eps = 1e-4: n_max = 7853 and 15,708 auto-schedule instants; each
        # instant must cost O(log n_max), or this run takes minutes
        text = (BASE_CONFIG.replace("m_y      = 400.0", "m_y      = 1e8")
                .replace("sigma0y  = 0.5", "sigma0y  = 5e-4")
                .replace("p_x0     = 190.0", "p_x0     = 4e4"))
        cfg = write_config(tmp_path, text)
        params = parse_config(cfg).params
        assert params.validity_figure == pytest.approx(1.27, abs=0.01)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        with open(out / "series.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15708
        # the last row follows the final collision, past n_cr = 7853.98
        assert float(rows[-1]["n"]) > params.n_cr
        assert float(rows[-1]["purity"]) == pytest.approx(1.0, abs=1e-6)
        assert min(float(r["purity"]) for r in rows) < 0.9


class TestCompare:
    def test_run_against_itself_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        assert main(["compare", str(out), str(out), "--tol", "purity=1e-12"]) == 0
        text = capsys.readouterr().out
        assert "purity: max_abs=0" in text

    def test_closed_form_vs_event_driven_momenta(self, tmp_path):
        cfg_a = write_config(tmp_path)
        cfg_b = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", "schedule = auto\noracles  = event_driven"),
            name="oracle.cfg")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg_a), "--out", str(out_a)])
        main(["run", str(cfg_b), "--out", str(out_b)])
        # closed-form momenta against trajectory momenta: identical to 1e-12
        assert main(["compare", str(out_a), str(out_b),
                     "--tol", "p_xn=1e-9", "--tol", "p_yn=1e-9"]) == 0

    def test_threshold_failure_sets_exit_code(self, tmp_path):
        cfg_a = write_config(tmp_path)
        out_a = tmp_path / "a"
        main(["run", str(cfg_a), "--out", str(out_a)])
        out_b = tmp_path / "b"
        cfg_b = write_config(tmp_path, BASE_CONFIG.replace("seed     = 0",
                                                           "seed     = 0\n"),
                             name="b.cfg")
        main(["run", str(cfg_b), "--out", str(out_b), "--seed", "1"])
        rows = (out_b / "series.csv").read_text().splitlines()
        parts = rows[1].split(",")
        parts[SERIES_COLUMNS.index("purity")] = "0.5"
        rows[1] = ",".join(parts)
        (out_b / "series.csv").write_text("\n".join(rows) + "\n")
        assert main(["compare", str(out_a), str(out_b),
                     "--tol", "purity=1e-6"]) == 1

    def test_mismatched_schedules_rejected(self, tmp_path):
        cfg_a = write_config(tmp_path)
        cfg_b = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", "schedule = 0.01,0.02"), name="b.cfg")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg_a), "--out", str(out_a)])
        main(["run", str(cfg_b), "--out", str(out_b)])
        assert main(["compare", str(out_a), str(out_b)]) == 2


class TestValidate:
    def test_reports_derived_quantities(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "n_max = 15" in out
        assert "validity_figure" in out
        assert "schedule_unsafe = 0\n" in out
        assert "first_unsafe_instant = none\n" in out

    def test_rejects_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("y_m0     = 50.0",
                                                         "y_m0     = 10.0"))
        assert main(["validate", str(cfg)]) == 2

    def test_predicts_the_gate_on_the_auto_schedule(self, tmp_path, capsys):
        # eps = 0.02: 43 of the 79 auto instants have channels straddling a
        # collision, and run exits 3 at the first of them
        cfg = write_config(tmp_path, BASE_CONFIG.replace("m_y      = 400.0",
                                                         "m_y      = 2500.0"))
        assert main(["validate", str(cfg)]) == 3
        out = capsys.readouterr().out
        assert "auto_schedule_len = 79\n" in out
        assert "schedule_unsafe = 43\n" in out
        assert "first_unsafe_instant = 4.97172" in out
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "t=4.97172 " in capsys.readouterr().err

    def test_predicts_the_gate_on_an_explicit_schedule(self, tmp_path, capsys):
        from qbounce.channels import reference_trajectory
        base = parse_config(write_config(tmp_path))
        t_bad = reference_trajectory(base.params).pair_events[3].t
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", f"schedule = 0.01,{t_bad!r}"), name="bad.cfg")
        assert main(["validate", str(cfg)]) == 3
        out = capsys.readouterr().out
        assert "schedule_unsafe = 1\n" in out
        assert f"first_unsafe_instant = {t_bad!r}\n" in out


class TestGridOracleIntegration:
    def test_grid_column_and_snapshots(self, tmp_path):
        # desk-scale toy: a couple of instants before the first collision
        text = """\
m_x      = 1.0
m_y      = 25.0
x_m0     = 10.0
y_m0     = 20.0
sigma0x  = 0.5
sigma0y  = 0.5
p_x0     = 4.0
schedule = 0.05,0.1
oracles  = grid:n=512;l=30;dt=2e-3
seed     = 0
"""
        cfg = write_config(tmp_path, text, name="grid.cfg")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        with open(out / "series.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "grid_purity" in rows[0]
        for row in rows:
            # product state before the first collision: both purities near one
            assert float(row["grid_purity"]) == pytest.approx(1.0, abs=5e-3)
            assert float(row["purity"]) == 1.0
        snaps = sorted((out / "snapshots").glob("*.bin"))
        assert len(snaps) == 2
        assert len(sorted((out / "snapshots").glob("marginals_*.csv"))) == 2
        from qbounce.grid import load_snapshot
        f = load_snapshot(snaps[0])
        assert f.spec.n == 512

    def test_cross_oracle_compare(self, tmp_path):
        # same schedule, purity from the analytic pipeline in one run and
        # from the grid oracle in the other; compare stays within 0.05
        base = """\
m_x      = 1.0
m_y      = 25.0
x_m0     = 10.0
y_m0     = 20.0
sigma0x  = 0.5
sigma0y  = 0.5
p_x0     = 4.0
schedule = 0.05,0.1
seed     = 0
"""
        cfg_a = write_config(tmp_path, base, name="analytic.cfg")
        cfg_b = write_config(
            tmp_path,
            base + "oracles  = grid:n=512;l=30;dt=2e-3\npurity_source = grid\n",
            name="gridded.cfg")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_a), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg_b), "--out", str(out_b)]) == 0
        assert main(["compare", str(out_a), str(out_b),
                     "--tol", "purity=0.05"]) == 0
