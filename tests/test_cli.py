import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbounce import channels, classical, cli, grid
from qbounce.channels import (WIDTH_RATIO_GATE, MixedPhaseError, ScenarioParams,
                              auto_schedule, entanglement_report, mixed_phase_gate,
                              propagate_ensemble, reference_trajectory, split_width)
from qbounce.classical import (ClassicalTrajectory, collision_table, ensemble_widths,
                               event_driven_trajectory)
from qbounce.cli import (ConfigError, compute_series, main, parse_config,
                         SERIES_COLUMNS)

from oracles import (assemble_quadratic_form, channel_event_times, ensemble_at_count, events,
                     masses_from_epsilon, monte_carlo_spreads, pair_events,
                     write_series_reference)

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


# desk-scale scenario (eps = 0.2) that the grid oracle resolves at n = 512, l = 30
DESK_CONFIG = """\
m_x      = 1.0
m_y      = 25.0
x_m0     = 10.0
y_m0     = 20.0
sigma0x  = 0.5
sigma0y  = 0.5
p_x0     = 4.0
schedule = 0.004
"""


# eps = 1e-4: n_max = 7853 and 15,708 auto-schedule instants
SMALL_EPS_1E4_CONFIG = (BASE_CONFIG.replace("m_y      = 400.0", "m_y      = 1e8")
                        .replace("sigma0y  = 0.5", "sigma0y  = 5e-4")
                        .replace("p_x0     = 190.0", "p_x0     = 4e4"))


def write_config(tmp_path, text=BASE_CONFIG, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def config_with(text: str, **keys: str) -> str:
    """text with the line of each given key replaced, or the key appended."""
    lines = [line for line in text.splitlines()
             if line.partition("=")[0].strip() not in keys]
    return "\n".join([*lines, *(f"{k} = {v}" for k, v in keys.items())]) + "\n"


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.params.y_M0 == 50.0
        assert cfg.schedule == auto_schedule(cfg.params)
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

    def test_series_files_match_the_json_module_writer(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, config_with(
            BASE_CONFIG, oracles="event_driven,monte_carlo:500")))
        rows, _ = compute_series(cfg, tmp_path)
        rows[1]["purity"] = math.nan
        rows[2]["mc_dsigma_x"], rows[2]["mc_dsigma_y"] = math.inf, -math.inf
        rows[3]["x_M"] = -0.0
        for out in (tmp_path / "a", tmp_path / "b"):
            out.mkdir()
        cli.write_series(rows, tmp_path / "a")
        write_series_reference(rows, tmp_path / "b")
        for name in ("series.csv", "series.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert '"purity": NaN' in (tmp_path / "a" / "series.json").read_text()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, config_with(BASE_CONFIG, oracles="monte_carlo:500",
                                                 seed="3"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()

    def test_different_seed_changes_mc_columns(self, tmp_path):
        cfg_a, cfg_b = (write_config(tmp_path, config_with(
            BASE_CONFIG, oracles="monte_carlo:500", seed=seed), name=f"seed{seed}.cfg")
            for seed in ("3", "4"))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg_a), "--out", str(out_a)])
        main(["run", str(cfg_b), "--out", str(out_b)])
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
        t_bad = pair_events(reference_trajectory(base.params))[3].t
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", f"schedule = {t_bad:.12g}"), name="bad.cfg")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "channels straddle an event from " in err
        assert not (tmp_path / "o").exists()

    def test_wall_bounce_instant_fails_the_gate(self, tmp_path, capsys):
        # the first wall bounce: the -3 sigma channel's light particle has
        # bounced off the wall by then, the +3 sigma one's has not
        base = parse_config(write_config(tmp_path))
        ref = reference_trajectory(base.params)
        t_wall = next(e.t for e in events(ref) if e.kind == "wall")
        cfg = write_config(tmp_path, config_with(BASE_CONFIG, schedule=repr(t_wall)),
                           name="wall.cfg")
        out = tmp_path / "o"
        assert main(["validate", str(cfg)]) == 3
        assert "schedule_unsafe = 1\n" in capsys.readouterr().out
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        window = re.search(r"channels straddle an event from (\S+) until (\S+)$",
                           capsys.readouterr().err)
        assert float(window[1]) <= t_wall < float(window[2])
        assert not out.exists()

    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys, monkeypatch):
        # a config that parses, then an error while the series is computed
        def fail(cfg, out_dir):
            raise ValueError("state is not normalizable")
        monkeypatch.setattr(cli, "compute_series", fail)
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: state is not normalizable\n"
        assert list(tmp_path.iterdir()) == [cfg]     # no temporary directory either

    def test_grid_failing_part_way_exits_4(self, tmp_path, capsys, monkeypatch):
        # any drift now trips the unitarity guard, at the first instant, after
        # its snapshot directory was made
        monkeypatch.setattr(grid, "NORM_DRIFT_LIMIT", -1.0)
        cfg = write_config(tmp_path, config_with(DESK_CONFIG, oracles="grid:n=384;l=22;dt=2e-3"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: norm drift ")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_grid_failing_after_writing_snapshots_leaves_nothing(self, tmp_path, capsys,
                                                                 monkeypatch):
        # two instants are written, then the guard trips in the third's first check
        written = []

        def save(f, path, save=grid.save_snapshot):
            save(f, path)
            written.append(path)
            if len(written) == 2:
                monkeypatch.setattr(grid, "NORM_DRIFT_LIMIT", -1.0)
        monkeypatch.setattr(grid, "save_snapshot", save)
        cfg = write_config(tmp_path, config_with(DESK_CONFIG, schedule="0.002,0.004,0.06",
                                                 oracles="grid:n=384;l=22;dt=2e-3"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert " at step 25: " in capsys.readouterr().err
        assert len(written) == 2 and not any(path.exists() for path in written)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_rerun_replaces_the_earlier_run(self, tmp_path):
        # a grid run, then one with another schedule into the same directory:
        # its series, manifest and snapshots replace the first's, other files stay
        out = tmp_path / "o"
        for t in ("0.002", "0.004"):
            cfg = write_config(tmp_path, config_with(DESK_CONFIG, schedule=t,
                                                     oracles="grid:n=384;l=22;dt=2e-3"))
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            if t == "0.002":
                (out / "notes.txt").write_text("keep\n")
        assert sorted(p.name for p in (out / "snapshots").iterdir()) == [
            "field_t0.004000.bin", "marginals_t0.004000.csv"]
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "series.csv", "series.json", "snapshots"]
        assert (out / "notes.txt").read_text() == "keep\n"
        assert json.loads((out / "manifest.json").read_text())["schedule"] == [0.004]
        assert len((out / "series.csv").read_text().splitlines()) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o", "scenario.cfg"]

    def test_out_that_cannot_be_created_fails_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch):
        def fail(cfg, out_dir):
            raise AssertionError("the series was computed")

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(cli, "compute_series", fail)
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        out = tmp_path / "sub" / "o"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --out {out}: {tmp_path}: Permission denied\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "bogus = 1\n")
        assert main(["run", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("base, keys, match", [
        (BASE_CONFIG, {"seed": "zero"}, "'seed': expected an integer, got 'zero'"),
        (BASE_CONFIG, {"oracles": "monte_carlo:lots"}, "expected an integer, got 'lots'"),
        (BASE_CONFIG, {"oracles": "monte_carlo:0"}, "must be at least 2, got 0"),
        (BASE_CONFIG, {"oracles": "monte_carlo:-5"}, "must be at least 2, got -5"),
        (BASE_CONFIG, {"oracles": "monte_carlo:1"}, "must be at least 2, got 1$"),
        (BASE_CONFIG, {"oracles": "grid:n=abc;l=30;dt=2e-3"}, "grid n: expected an integer"),
        (BASE_CONFIG, {"oracles": "grid:n=512;l=30;dt=fast"}, "grid dt: expected a number"),
        (BASE_CONFIG, {"oracles": "bogus"}, "oracles: unknown oracle 'bogus'"),
        (BASE_CONFIG, {"oracles": "monte_carlo:100,event_driven,monte_carlo:50"},
         "oracles: repeated oracle 'monte_carlo'$"),
        (BASE_CONFIG, {"oracles": "event_driven,event_driven"},
         "oracles: repeated oracle 'event_driven'$"),
        (DESK_CONFIG, {"oracles": "grid:n=64;n=512;l=30;dt=2e-3"},
         "oracles: grid: repeated option 'n'$"),
        (DESK_CONFIG, {"oracles": "grid:n=512;l=30;dt=2e-3;l=40"},
         "oracles: grid: repeated option 'l'$"),
        (DESK_CONFIG, {"oracles": "grid:n=512; dt =1e-3;l=30;dt=2e-3"},
         "oracles: grid: repeated option 'dt'$"),
        (DESK_CONFIG, {"oracles": "grid:n=512;l=30;dt=2e-3,grid:n=384;l=22;dt=2e-3"},
         "oracles: repeated oracle 'grid'$"),
        (BASE_CONFIG, {"seed": "-1"}, "'seed': must be non-negative, got -1"),
        (DESK_CONFIG, {"oracles": "grid:n=512;l=30;dt=0"},
         "grid dt: must be positive and finite, got 0$"),
        (DESK_CONFIG, {"oracles": "grid:n=512;l=30;dt=-1e-3"},
         "grid dt: must be positive and finite, got -0.001"),
        (DESK_CONFIG, {"oracles": "grid:n=512;l=30;dt=nan"},
         "grid dt: must be positive and finite, got nan"),
        (DESK_CONFIG, {"oracles": "grid:n=512;l=30;dt=2e-3;tmax=0.5"},
         "grid: needs exactly the options n, l and dt .*got n, l, dt, tmax"),
        (DESK_CONFIG, {"oracles": "grid:n=4;l=30;dt=2e-3"}, "grid: grid too small: n=4"),
        (DESK_CONFIG, {"oracles": "grid:n=512;l=-3;dt=2e-3"},
         "grid: length must be positive and finite, got -3"),
        (BASE_CONFIG, {"oracles": "grid:n=64;l=30;dt=1e-3"}, "grid: width 1 under-resolved"),
        # y_m0 = 20: a domain [0, 15] holds none of the heavy packet
        (DESK_CONFIG, {"oracles": "grid:n=256;l=15;dt=2e-3"},
         "grid: l=15 leaves 1.00e\\+00 of the heavy packet beyond y = l "
         "\\(> 1e-08\\); need l >= 21.985$"),
        (BASE_CONFIG, {"p_x0": "nan"}, "p_x0 must be finite, got nan"),
        (BASE_CONFIG, {"p_x0": "inf"}, "p_x0 must be finite, got inf"),
        (BASE_CONFIG, {"sigma0x": "nan"}, "sigma0x must be finite, got nan"),
        (BASE_CONFIG, {"schedule": "nan"}, "instants must be finite and non-negative, got nan"),
        (BASE_CONFIG, {"schedule": "0.1,inf"}, "non-negative, got inf"),
        (BASE_CONFIG, {"schedule": "-1.0"}, "non-negative, got -1.0"),
        (BASE_CONFIG, {"m_y": "inf"}, "masses must be positive and finite, got m_x=1, m_y=inf"),
        (BASE_CONFIG, {"m_y": "nan"}, "masses must be positive and finite, got m_x=1, m_y=nan"),
        (BASE_CONFIG, {"m_y": "1.0"}, "need m_x < m_y"),
        # the output path and format are not config keys: `--out` sets the one,
        # and run always writes series.csv and series.json
        (BASE_CONFIG, {"formats": "csv"}, "unknown key 'formats'"),
        (BASE_CONFIG, {"out": "x"}, "unknown key 'out'"),
    ], ids=["seed", "mc-count", "mc-zero", "mc-negative", "mc-one", "grid-n", "grid-dt",
            "oracle-unknown", "oracle-repeated-mc", "oracle-repeated-event-driven",
            "grid-n-repeated", "grid-l-repeated", "grid-dt-repeated", "oracle-repeated-grid",
            "seed-negative", "grid-dt-zero", "grid-dt-negative",
            "grid-dt-nan", "grid-unknown-option", "grid-n-small", "grid-l-negative",
            "grid-under-resolved", "grid-domain-cuts-packet", "p_x0-nan", "p_x0-inf",
            "sigma0x-nan", "schedule-nan", "schedule-inf", "schedule-negative",
            "m_y-inf", "m_y-nan", "m_y-equal", "formats-key", "out-key"])
    def test_malformed_value_exit_code(self, tmp_path, capsys, base, keys, match):
        text = config_with("\n".join(line for line in base.splitlines()
                                     if not line.startswith("seed")), **keys)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: ")
        assert re.search(match, err)
        assert not out.exists()
        # validate reads the same config and must not accept it either
        assert main(["validate", str(cfg)]) == 2
        assert capsys.readouterr().err == err

    def test_out_naming_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def fail(cfg, out_dir):
            raise AssertionError("the series was computed")
        monkeypatch.setattr(cli, "compute_series", fail)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        for out in (taken, taken / "sub"):
            assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: --out {out}: {taken}: Not a directory\n"
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_missing_config_is_one_line(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.cfg"
        assert main([command, str(missing), *(["--out", str(tmp_path / "o")]
                                              if command == "run" else [])]) == 2
        assert capsys.readouterr().err == \
            f"config error: {missing}: No such file or directory\n"
        assert not (tmp_path / "o").exists()

    def test_monte_carlo_memory_is_per_instant(self, tmp_path):
        # N samples reduced to two spreads per instant: no (N, instants) or
        # per-instant (N,) arrays.  The sorted samples and their two prefix
        # sums peak at 5.04 doubles per sample (the bound keeps a 50% margin)
        n = 100_000
        cfg = parse_config(write_config(tmp_path, config_with(
            BASE_CONFIG, oracles=f"monte_carlo:{n}")))
        tracemalloc.start()
        try:
            rows, _ = compute_series(cfg, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 32
        assert peak < 7.6 * n * 8

    def test_manifest_echoes_config_oracles(self, tmp_path):
        cfg = write_config(tmp_path, config_with(
            BASE_CONFIG, oracles="monte_carlo:500,event_driven"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["oracles"] == "monte_carlo:500,event_driven"
        header = (out / "series.csv").read_text().splitlines()[0].split(",")
        assert header[-2:] == ["mc_dsigma_y", "mc_dsigma_x"]

    def test_manifest_reports_the_event_driven_deviations(self, tmp_path):
        cfg = write_config(tmp_path, config_with(BASE_CONFIG, oracles="event_driven"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        checks = json.loads((out / "manifest.json").read_text())["oracle_checks"]
        # the oracle's centres and momenta against the table-built rows
        assert 0 <= checks["event_driven_max_center_dev"] <= 1e-10 * 50.0
        assert 0 <= checks["event_driven_max_p_dev"] <= 1e-10 * 190.0
        # the oracle only reports: the series is the run's without it
        plain = tmp_path / "plain"
        cfg = write_config(tmp_path, name="plain.cfg")
        assert main(["run", str(cfg), "--out", str(plain)]) == 0
        assert (out / "series.csv").read_bytes() == (plain / "series.csv").read_bytes()

    def test_over_the_event_limit_exits_before_any_work(self, tmp_path, capsys, monkeypatch):
        # eps = 1e-7 gives 15.7 million reference events: rejected from n_max
        # alone, so no collision table is built
        def fail(eps):
            raise AssertionError("a collision table was built")
        monkeypatch.setattr(classical, "collision_table", fail)
        monkeypatch.setattr(channels, "collision_table", fail)
        cfg = write_config(tmp_path, config_with(BASE_CONFIG, m_y="1e14", p_x0="4000.0"))
        out = tmp_path / "o"
        for command in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == (
                f"config error: {cfg}: eps = 1e-07 gives up to 15,707,964 reference events, "
                f"over the limit of {cli.MAX_EVENTS:,}\n")
        assert not out.exists()
        # eps = 7.9e-7 (up to 1,986,918 events) is just inside the limit; an
        # explicit schedule needs no table, where an auto one is built in parsing
        assert parse_config(write_config(tmp_path, config_with(
            BASE_CONFIG, m_y="1.6e12", p_x0="4000.0", schedule="0.1"))).params.n_max == 993458

    @pytest.mark.parametrize("text, message", [
        (config_with(BASE_CONFIG, oracles="monte_carlo:1000000000000"),
         "monte_carlo samples: 1,000,000,000,000, over the limit of 2,000,000"),
        # eps = 1e-3: 1,571 auto instants
        (config_with(BASE_CONFIG, m_y="1e6", sigma0y="0.005", p_x0="4000.0",
                     oracles="monte_carlo:319000"),
         "monte_carlo samples x instants: 501,149,000, over the limit of 500,000,000"),
        (config_with(DESK_CONFIG, oracles="grid:n=400000;l=30;dt=2e-3"),
         "grid MiB of fields: 19,531,348, over the limit of 1,024"),
        (config_with(DESK_CONFIG, schedule="1000000", oracles="grid:n=512;l=30;dt=2e-3"),
         "grid work in n = 512 steps: 500,000,000, over the limit of 20,000"),
        # 5,050 steps, each costing 3.99 steps at n = 512
        (config_with(DESK_CONFIG, schedule="10.1", oracles="grid:n=1024;l=30;dt=2e-3"),
         "grid work in n = 512 steps: 20,161, over the limit of 20,000"),
    ], ids=["mc-samples", "mc-sample-instants", "grid-memory", "grid-steps",
            "grid-steps-n1024"])
    def test_oracle_work_over_its_bound_exits_before_any_work(self, tmp_path, capsys,
                                                              text, message):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        for command in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert main(command) == 2
            assert capsys.readouterr().err == f"config error: {cfg}: oracles: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        config_with(BASE_CONFIG, oracles="monte_carlo:2000000"),
        config_with(BASE_CONFIG, m_y="1e6", sigma0y="0.005", p_x0="4000.0",
                    oracles="monte_carlo:318000"),
        # grid.RUN_FIELDS fields at n = 2895: 1,023.8 MiB, whatever the instant count
        config_with(DESK_CONFIG, oracles="grid:n=2895;l=30;dt=2e-3"),
        config_with(DESK_CONFIG, schedule="39.99", oracles="grid:n=512;l=30;dt=2e-3"),
        # 30,000 steps at 0.56 of an n = 512 step (n = 256 never passes the
        # resolution gate: a width is at most 1/46 of the domain)
        config_with(DESK_CONFIG, schedule="60", oracles="grid:n=384;l=22;dt=2e-3"),
    ], ids=["mc-samples", "mc-sample-instants", "grid-memory", "grid-steps",
            "grid-steps-n384"])
    def test_oracle_work_just_inside_its_bound_is_admitted(self, tmp_path, text):
        parse_config(write_config(tmp_path, text))

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

    def test_traced_benchmark_run_completes(self, tmp_path):
        # perfbench/tracer.py wraps the package's functions by name and reads
        # reference_trajectory's cache, so a rename in src/ would break it
        repo = Path(__file__).resolve().parents[1]
        spans = tmp_path / "spans.json"
        done = subprocess.run(
            [sys.executable, str(repo / "perfbench" / "tracer.py"), "trace", str(spans),
             "smoke", "--", "run", str(write_config(tmp_path)), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(repo / "src")})
        assert done.returncode == 0, done.stderr
        lookups = json.loads(spans.read_text())["reference_trajectory"]
        assert lookups["hits"] + lookups["misses"] >= 1

    def test_series_builds_collision_table_once(self, tmp_path):
        # one table per scenario, not one per instant: the per-instant
        # rebuilds made the analytic series O(n_max^2)
        cfg = parse_config(write_config(tmp_path, BASE_CONFIG.replace(
            "p_x0     = 190.0", "p_x0     = 191.0")))
        collision_table.cache_clear()
        rows, _ = compute_series(cfg, tmp_path)
        info = collision_table.cache_info()
        assert len(rows) == 32
        assert info.misses <= 1
        assert info.hits + info.misses <= 2

    def test_small_eps_run_returns_to_purity_one(self, tmp_path):
        # each instant must cost O(log n_max), or this run takes minutes
        cfg = write_config(tmp_path, SMALL_EPS_1E4_CONFIG)
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

    def test_series_is_evaluated_over_the_whole_schedule(self, tmp_path, monkeypatch):
        # counts, not timing: a return to per-instant evaluation fails here
        cfg = parse_config(write_config(tmp_path, SMALL_EPS_1E4_CONFIG))
        gate, gate_calls = channels.mixed_phase_gate, []
        propagate, propagate_calls = channels.propagate_ensemble, []

        def counted_gate(params, t):
            gate_calls.append(np.size(t))
            return gate(params, t)

        def counted_propagate(params, t):
            propagate_calls.append(np.size(t))
            return propagate(params, t)

        def per_instant(*args, **kwargs):
            raise AssertionError("compute_series evaluated one instant at a time")

        monkeypatch.setattr(channels, "mixed_phase_gate", counted_gate)
        monkeypatch.setattr(channels, "propagate_ensemble", counted_propagate)
        monkeypatch.setattr(ClassicalTrajectory, "state_at", per_instant)
        collision_table.cache_clear()
        rows, _ = compute_series(cfg, tmp_path)
        assert len(rows) == 15708
        assert propagate_calls == [15708]
        assert len(gate_calls) <= 2
        lookups = collision_table.cache_info()
        assert lookups.misses <= 1
        assert lookups.hits + lookups.misses <= 2


class TestCompare:
    def test_run_against_itself_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        assert main(["compare", str(out), str(out), "--tol", "purity=1e-12"]) == 0
        text = capsys.readouterr().out
        assert "purity: max_abs=0" in text

    def test_threshold_failure_sets_exit_code(self, tmp_path):
        cfg_a = write_config(tmp_path)
        out_a = tmp_path / "a"
        main(["run", str(cfg_a), "--out", str(out_a)])
        out_b = tmp_path / "b"
        cfg_b = write_config(tmp_path, BASE_CONFIG.replace("seed     = 0",
                                                           "seed     = 1"),
                             name="b.cfg")
        main(["run", str(cfg_b), "--out", str(out_b)])
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

    def test_tol_t_bounds_the_schedule_check(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "series.csv").read_text().splitlines()))
        rows = rows[:1] + [row for row in rows[1:] if 1 < float(row[0]) < 50]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("".join(",".join(row) + "\n" for row in rows))
        for row in rows[1:]:            # t moved by 1e-11 relative: under 1e-9
            row[0] = repr(float(row[0]) * (1 + 1e-11))
        b.write_text("".join(",".join(row) + "\n" for row in rows))
        assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == "error: runs do not share a schedule\n"
        assert main(["compare", str(a), str(b), "--tol", "t=1e-9"]) == 0
        assert main(["compare", str(a), str(b), "--tol", "t=1e-11"]) == 2

    @pytest.mark.parametrize("tol, message", [
        ("purity=abc", "--tol purity=abc: expected a number, got 'abc'"),
        ("purity", "--tol purity: expected COL=VAL"),
        ("purty=0.1", "--tol purty=0.1: 'purty' is not a column of both runs"),
        ("purity=nan", "--tol purity=nan: must be non-negative and finite"),
    ], ids=["not-a-number", "no-value", "unknown-column", "nan"])
    def test_bad_tolerance_is_one_line(self, tmp_path, capsys, tol, message):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out), str(out), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_names_the_instant_of_the_largest_deviation(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        cells = lines[5].split(",")
        t = float(cells[SERIES_COLUMNS.index("t")])
        cells[SERIES_COLUMNS.index("purity")] = "0.5"
        lines[5] = ",".join(cells)
        perturbed = tmp_path / "perturbed.csv"
        perturbed.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["compare", str(out), str(perturbed), "--json"]) == 0
        text = capsys.readouterr().out
        assert re.search(rf"^purity: max_abs=\S+ max_rel=\S+ at t={re.escape(repr(t))}$",
                         text, re.M)
        assert "x_M: max_abs=0 max_rel=0\n" in text
        report = json.loads(text.splitlines()[-1])
        assert report["purity"]["at_t"] == t
        assert report["x_M"]["at_t"] is None

    def test_missing_input_is_one_line(self, tmp_path, capsys):
        out, missing = tmp_path / "out", tmp_path / "absent"
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out), str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


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
        # eps = 0.02: 43 of the 79 reference midpoints have channels
        # straddling a collision; the auto schedule leaves them out
        cfg = write_config(tmp_path, BASE_CONFIG.replace("m_y      = 400.0",
                                                         "m_y      = 2500.0"))
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "auto_schedule_len = 36\n" in out
        assert "auto_schedule_dropped = 43\n" in out
        assert "schedule_unsafe = 0\n" in out
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len((tmp_path / "o" / "series.csv").read_text().splitlines()) == 1 + 36

    @pytest.mark.parametrize("length, code", [("21.984", 2), ("21.985", 0)])
    def test_grid_domain_bound_named_in_the_error(self, tmp_path, length, code):
        # 21.985 is the `need l >=` of the grid-domain-cuts-packet case
        cfg = write_config(tmp_path, config_with(
            DESK_CONFIG, oracles=f"grid:n=512;l={length};dt=2e-3"))
        assert main(["validate", str(cfg)]) == code

    def test_builds_and_gates_the_auto_schedule_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("auto_schedule", "mixed_phase_gate"):
            def counted(*args, _fn=getattr(channels, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(channels, name, counted)
        assert main(["validate", str(write_config(tmp_path))]) == 0
        assert "auto_schedule_len = 32\n" in capsys.readouterr().out
        assert calls.count("auto_schedule") == 1
        assert calls.count("mixed_phase_gate") <= 2

    def test_predicts_the_gate_on_an_explicit_schedule(self, tmp_path, capsys):
        from qbounce.channels import reference_trajectory
        base = parse_config(write_config(tmp_path))
        t_bad = pair_events(reference_trajectory(base.params))[3].t
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "schedule = auto", f"schedule = 0.01,{t_bad!r}"), name="bad.cfg")
        assert main(["validate", str(cfg)]) == 3
        out = capsys.readouterr().out
        assert "schedule_unsafe = 1\n" in out
        assert f"first_unsafe_instant = {t_bad!r}\n" in out


def _readme_cli_blocks() -> list[str]:
    """Fenced code blocks of README's CLI section: the usage, then the config example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0].split("```")[1::2]


class TestReadmeMatchesParser:
    def test_config_example_sets_every_key(self):
        example = _readme_cli_blocks()[1]
        keys = {m.group(1) for m in re.finditer(r"^(\w+)\s*=", example, re.MULTILINE)}
        assert keys == cli._KNOWN_KEYS

    @pytest.mark.parametrize("command", ["run", "compare", "validate"])
    def test_usage_lists_every_option(self, capsys, command):
        flag = r"--[a-z][\w-]*"
        documented = {f for line in _readme_cli_blocks()[0].splitlines()
                      if line.split()[1:2] == [command] for f in re.findall(flag, line)}
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert documented == set(re.findall(flag, capsys.readouterr().out)) - {"--help"}


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
        # 25 + 25 steps of 2e-3; the sampled times are off by rounding only
        block = json.loads((out / "manifest.json").read_text())["grid"]
        assert block["steps"] == 50
        assert 0 <= block["max_t_offset"] <= 1e-15

    def test_memory_does_not_grow_with_the_schedule(self, tmp_path):
        # each sampled field is written and dropped: 2 and 12 instants one
        # step apart, the first at t = 0, both peak at 4.56 fields (the
        # stepper's four and the marginals' |psi|^2), 12 within a tenth of a
        # field of 2 and under 4.7 fields.  A stepper that copied the whole
        # start beside it reads 5.05, and one that made its y-sweep and
        # elimination arrays beside the start and its zero-step copy 5.8
        field = 385**2 * 16
        peaks = []
        for k in (2, 12):
            cfg = parse_config(write_config(tmp_path, config_with(
                DESK_CONFIG, schedule=",".join(f"{0.002 * i:.3f}" for i in range(k)),
                oracles="grid:n=384;l=22;dt=2e-3", purity_source="grid")))
            out = tmp_path / f"out{k}"
            out.mkdir()
            tracemalloc.start()
            try:
                rows, _ = compute_series(cfg, out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(rows) == len(list((out / "snapshots").glob("field_t*.bin"))) == k
        assert peaks[1] < peaks[0] + 0.1 * field
        assert peaks[1] < 4.7 * field

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from Linux's /proc/self/status")
    def test_resident_memory_follows_the_field_window(self, tmp_path):
        # a desk run at n = 512 touches its fields only where the field is:
        # 3.5-3.8 fields of VmHWM above a bare import of qbounce.cli; a start
        # built from field-sized temporaries, copied whole into the stepper
        # beside a zeroed whole output array, reads 5.9.  VmHWM is read
        # inside each child, since a child's ru_maxrss starts from its
        # forking parent's high-water mark
        field = 513**2 * 16
        cfg = write_config(tmp_path, config_with(
            DESK_CONFIG, schedule="0.04,0.08,0.12", oracles="grid:n=512;l=30;dt=2e-3",
            purity_source="grid"))
        hwm = ("print(next(int(l.split()[1]) * 1024 for l in open('/proc/self/status') "
               "if l.startswith('VmHWM:')))")
        src = Path(__file__).resolve().parents[1] / "src"

        def peak(code):
            done = subprocess.run([sys.executable, "-c", code + "; " + hwm],
                                  capture_output=True, text=True, check=True,
                                  env={**os.environ, "PYTHONPATH": str(src)})
            return int(done.stdout.split()[-1])

        bare = peak("import qbounce.cli")
        run = peak(f"from qbounce.cli import main; "
                   f"assert main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0")
        assert run - bare < 4.5 * field

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


@st.composite
def admissible_configs(draw) -> dict[str, str]:
    """Config keys of a scenario that passes ScenarioParams.

    eps in [1e-3, 0.3], widths up to WIDTH_RATIO_GATE of the gaps, and either
    the auto schedule or up to five instants anywhere in the collision phase.
    """
    eps = draw(st.floats(1e-3, 0.3))
    x_m0 = draw(st.floats(1.0, 50.0))
    y_m0 = x_m0 + draw(st.floats(1.0, 50.0))
    limit = WIDTH_RATIO_GATE * min(x_m0, y_m0 - x_m0)
    sigma0x = limit * draw(st.floats(0.05, 1.0))
    # broad-heavy branch: sigma0y > eps sigma0x
    sigma0y = min(limit, eps * sigma0x
                  + (limit - eps * sigma0x) * draw(st.floats(0.01, 1.0)))
    params = ScenarioParams(x_M0=x_m0, y_M0=y_m0, sigma0x=sigma0x, sigma0y=sigma0y,
                            p_x0=draw(st.floats(1.0, 1e4)),
                            masses=masses_from_epsilon(eps))
    schedule = "auto"
    if draw(st.booleans()):
        t_end = 1.1 * float(reference_trajectory(params).t[-1])
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
        schedule = ",".join(repr(f * t_end) for f in fractions)
    return {"m_x": repr(params.masses.m_x), "m_y": repr(params.masses.m_y),
            "x_m0": repr(x_m0), "y_m0": repr(y_m0), "sigma0x": repr(sigma0x),
            "sigma0y": repr(sigma0y), "p_x0": repr(params.p_x0), "schedule": schedule}


# the two configs on which many reference midpoints fail the gate: eps = 0.02
# (43 of 79) and eps = 0.002 (753 of 786); the auto schedule leaves them out
HEAVY_WIDTH = {"m_x": "1.0", "m_y": "2500.0", "x_m0": "25.0", "y_m0": "50.0",
               "sigma0x": "1.0", "sigma0y": "0.5", "p_x0": "190.0", "schedule": "auto"}
SMALL_EPS = {**HEAVY_WIDTH, "m_y": "250000.0", "p_x0": "4000.0"}


@settings(max_examples=40, deadline=None)
@given(keys=admissible_configs())
@example(keys=HEAVY_WIDTH)
@example(keys=SMALL_EPS)
def test_validate_predicts_run(keys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = Path(tmp) / "out"
        validated = main(["validate", str(cfg)])
        ran = main(["run", str(cfg), "--out", str(out)])
        assert validated == ran
        if keys["schedule"] == "auto":
            assert ran == 0
        assert out.exists() == (ran == 0)


@settings(max_examples=40, deadline=None)
@given(keys=admissible_configs())
@example(keys=HEAVY_WIDTH)
@example(keys=SMALL_EPS)
def test_reference_is_the_event_driven_run(keys):
    """The reference trajectory, built from the collision table, is the
    event-driven simulator's run up to rounding: the same events in the same
    order, the same states to a relative 1e-10, the same auto schedule."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        params = parse_config(path).params
    ref = reference_trajectory(params)
    oracle = event_driven_trajectory(params.x_M0, params.y_M0, params.v_x0, params.masses)
    assert np.array_equal(ref.n, oracle.n)
    for name in ("t", "x", "y"):
        np.testing.assert_allclose(getattr(ref, name), getattr(oracle, name), rtol=1e-10, atol=0)
    for name in ("v_x", "v_y"):
        np.testing.assert_allclose(getattr(ref, name), getattr(oracle, name),
                                   rtol=0, atol=1e-10 * params.v_x0)
    ts = oracle.t
    mids = np.append((ts[:-1] + ts[1:]) / 2, ts[-1] + (ts[-1] - ts[-2]) / 2)
    assert len(auto_schedule(params)) == np.count_nonzero(mixed_phase_gate(params, mids))


def scenario_of(keys: dict[str, str]) -> ScenarioParams:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return parse_config(path).params


def reference_midpoints(params: ScenarioParams) -> np.ndarray:
    """The instants auto_schedule chooses from: midway between events, and a tail."""
    ts = reference_trajectory(params).t
    return np.append((ts[:-1] + ts[1:]) / 2, ts[-1] + (ts[-1] - ts[-2]) / 2)


def end_channels_agree(params: ScenarioParams, ts) -> tuple[np.ndarray, np.ndarray]:
    """Whether the -3 and +3 sigma channels share their pair count, and their
    wall count, at each instant of ts (channel_kinematics, one at a time)."""
    dsigma_y0, _ = split_width(params)
    ends = np.array([params.y_M0 - 3 * dsigma_y0, params.y_M0 + 3 * dsigma_y0])
    counts = np.array([classical.channel_kinematics(float(t), ends, params.x_M0,
                                                    params.v_x0, params.table)[2:]
                       for t in ts])                 # (instants, pair/wall, channel)
    same = counts[..., 0] == counts[..., 1]
    return same[:, 0], same[:, 1]


@settings(max_examples=40, deadline=None)
@given(keys=admissible_configs())
@example(keys=HEAVY_WIDTH)
@example(keys=SMALL_EPS)
def test_auto_schedule_keeps_the_midpoints_where_the_end_channels_agree(keys):
    """Every reference event fails the gate, and a reference midpoint passes
    it exactly when the end channels agree on both counts there."""
    params = scenario_of(keys)
    assert not mixed_phase_gate(params, reference_trajectory(params).t[1:]).any()
    mids = reference_midpoints(params)
    pairs, walls = end_channels_agree(params, mids)
    assert np.array_equal(mixed_phase_gate(params, mids), pairs & walls)
    assert auto_schedule(params) == mids[pairs & walls].tolist()


@pytest.mark.parametrize("keys, wall_only", [
    ({**HEAVY_WIDTH, "m_y": "400.0"}, 0), (HEAVY_WIDTH, 0), (SMALL_EPS, 0),
    ({**HEAVY_WIDTH, "m_y": "1e6", "sigma0y": "0.005", "p_x0": "4000.0"}, 0),
    ({**HEAVY_WIDTH, "m_y": "1e8", "sigma0y": "5e-4", "p_x0": "4e4"}, 0),
    ({"m_y": "25.0", "x_m0": "10.0", "y_m0": "20.0", "sigma0x": "0.5", "sigma0y": "0.5",
      "p_x0": "4.0"}, 0),
    ({**HEAVY_WIDTH, "m_y": "400.0", "sigma0y": "0.8"}, 1),
], ids=["arc", "heavy-width", "small-eps", "eps-1e-3", "eps-1e-4", "desk", "arc-sigma0y-0.8"])
def test_midpoints_only_a_wall_window_drops(keys, wall_only):
    # the first six keep the auto schedules of the pair-collision gate alone;
    # at sigma0y = 0.8 one midpoint between a collision and the wall bounce
    # after it has the end channels on both sides of the bounce only
    params = scenario_of(keys)
    mids = reference_midpoints(params)
    pairs, _ = end_channels_agree(params, mids)
    gate = mixed_phase_gate(params, mids)
    assert not (gate & ~pairs).any()
    assert np.count_nonzero(pairs & ~gate) == wall_only


@settings(max_examples=40, deadline=None)
@given(keys=admissible_configs())
@example(keys=HEAVY_WIDTH)
@example(keys=SMALL_EPS)
def test_series_equals_the_scalar_api(keys):
    """Every analytic column of compute_series equals propagate_ensemble ->
    assemble_quadratic_form -> entanglement_report at its instant, bit for
    bit: both evaluate the same broadcasting laws, and a second copy of any
    law would round differently somewhere."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        cfg = parse_config(path)
        params = cfg.params
        try:
            rows, _ = compute_series(cfg, Path(tmp))
        except MixedPhaseError as err:
            # the series stops where the scalar API stops, with the same diagnosis
            with pytest.raises(MixedPhaseError, match=re.escape(str(err))):
                propagate_ensemble(params, err.t)
            assert all(channels.mixed_phase_gate(params, t) for t in cfg.schedule if t < err.t)
            return
    dsigma_y0, _ = split_width(params)
    for row in rows:
        e = propagate_ensemble(params, row["t"])
        rep = entanglement_report(assemble_quadratic_form(e, params))
        want = {"n": e.n, "x_M": e.x_center, "y_M": e.y_center,
                "dsigma_y_n": e.dsigma_y_n,
                "dsigma_x_n": ensemble_widths(e.n, params.eps, dsigma_y0).dsigma_x,
                "abs_a_xy": np.abs(rep.a_xy), "purity": rep.purity,
                "schmidt_entropy": rep.schmidt_entropy, "p_xn": e.p_xn, "p_yn": e.p_yn}
        assert {col: row[col] for col in want} == want


@settings(max_examples=200, deadline=None)
@given(keys=admissible_configs())
@example(keys=HEAVY_WIDTH)
@example(keys=SMALL_EPS)
def test_cross_coefficient_vanishes_at_the_critical_count(keys):
    """At n_cr = pi/(4 eps) a_xy is zero relative to the size of the quadratic
    form, at any instant: criterion 1's absolute 1e-10 is for ARC_PARAMS only."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        params = parse_config(path).params
    for t in (0.0, 1.0, 8.0, 100.0):
        form = assemble_quadratic_form(ensemble_at_count(params, params.n_cr, t), params)
        scale = np.sqrt(np.abs(np.real(form.a_xx) * np.real(form.a_yy)))
        assert np.all(np.abs(form.a_xy) <= 1e-10 * scale)


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, the benchmark's configs and reference checks."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    return workloads


def test_benchmark_configs_stay_well_inside_the_work_bounds(tmp_path, monkeypatch):
    # every benchmark workload is admitted with a tenth of each bound
    workloads = _perfbench_workloads(monkeypatch)
    for bound in ("MAX_EVENTS", "MAX_MC_SAMPLES", "MAX_MC_SAMPLE_INSTANTS",
                  "MAX_GRID_STEPS", "MAX_GRID_MIB"):
        monkeypatch.setattr(cli, bound, getattr(cli, bound) / 10)
    for name in workloads.WORKLOADS:
        text = workloads.config_text(workloads.scenario(name, 0))
        parse_config(write_config(tmp_path, text, name=f"{name}.cfg"))


def test_benchmark_reference_checks_pass(tmp_path, monkeypatch):
    # ReferenceChecks calls channel_kinematics, collision_table, split_width
    # and parse_config: a rename in src/ fails here before it fails the benchmark
    workloads = _perfbench_workloads(monkeypatch)
    keys = workloads.scenario("arc_oracles", 0)
    cfg = write_config(tmp_path, workloads.config_text(keys))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "series.csv").read_text().splitlines()))
    manifest = json.loads((out / "manifest.json").read_text())
    errors = workloads.ReferenceChecks("arc_oracles", keys, cfg).errors(rows, manifest)
    assert set(errors) == {"event_driven_p", "rotation_law", "mc_sampling"}
    assert all(err <= 1 for err in errors.values()), errors


def mc_samples(cfg) -> np.ndarray:
    """The Monte Carlo oracle's initial heavy positions, drawn as compute_series draws them."""
    dsigma_y0, _ = split_width(cfg.params)
    return np.random.default_rng(cfg.seed).normal(cfg.params.y_M0, dsigma_y0,
                                                  size=cfg.monte_carlo)


def mc_spreads_at(cfg, ts):
    """classical.sample_spreads over the oracle's samples, at instants the gate may refuse."""
    p = cfg.params
    return classical.sample_spreads(ts, mc_samples(cfg), p.x_M0, p.v_x0, p.table)


def assert_mc_spreads_match(cfg, ts, sd_x, sd_y):
    """sd_x and sd_y at ts equal np.std(ddof=1) of the per-sample positions,
    within 1e-9 max(value, dsigma_y0)."""
    p = cfg.params
    dsigma_y0, _ = split_width(p)
    want = monte_carlo_spreads(ts, cfg.monte_carlo, cfg.seed, y_M0=p.y_M0,
                               dsigma_y0=dsigma_y0, x_M0=p.x_M0, v_x0=p.v_x0, eps=p.eps)
    for got, w in zip((sd_x, sd_y), want):
        assert np.all(np.abs(np.asarray(got) - w) <= 1e-9 * np.maximum(w, dsigma_y0))


def mc_event_times(cfg) -> np.ndarray:
    """Collision and bounce times of the first, middle and last sorted samples."""
    y0 = np.sort(mc_samples(cfg))
    p = cfg.params
    return channel_event_times(y0[[0, len(y0) // 2, -1]], p.x_M0, p.v_x0, p.table)


@settings(max_examples=30, deadline=None)
@given(keys=admissible_configs(), samples=st.integers(2, 5000),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_monte_carlo_spreads_equal_the_per_sample_statistic(keys, samples, seed, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.cfg"
        path.write_text(config_with("", **keys, oracles=f"monte_carlo:{samples}", seed=str(seed)))
        cfg = parse_config(path)
        # the gated instants, as a run would need them
        cfg.schedule = ([t for t in cfg.schedule if mixed_phase_gate(cfg.params, t)]
                        or auto_schedule(cfg.params))
        rows, _ = compute_series(cfg, Path(tmp))
    some = sorted(set(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                         max_size=4))))
    rows = [rows[i] for i in some]
    assert_mc_spreads_match(cfg, [r["t"] for r in rows], [r["mc_dsigma_x"] for r in rows],
                            [r["mc_dsigma_y"] for r in rows])
    # the samples' own collision and bounce times, one ulp either side of them
    times = mc_event_times(cfg)
    ts = [float(f(t)) for t in data.draw(st.lists(st.sampled_from(times), min_size=1,
                                                  max_size=3))
          for f in (lambda t: t, lambda t: np.nextafter(t, 0), lambda t: np.nextafter(t, np.inf))]
    assert_mc_spreads_match(cfg, ts, *mc_spreads_at(cfg, ts))
    # before the earliest sample's first collision every x_m is x_m0 + v_x0 t
    t = data.draw(st.floats(0.0, 0.999)) * times[0]
    assert mc_spreads_at(cfg, [t])[0][0] == 0.0


def test_monte_carlo_spreads_on_the_benchmark_arc(tmp_path, monkeypatch):
    workloads = _perfbench_workloads(monkeypatch)
    cfg = parse_config(write_config(tmp_path, workloads.config_text(
        workloads.scenario("arc_oracles", 0))))
    assert (cfg.monte_carlo, cfg.seed) == (200_000, 0)
    rows, _ = compute_series(cfg, tmp_path)
    assert len(rows) == 32
    assert_mc_spreads_match(cfg, [r["t"] for r in rows], [r["mc_dsigma_x"] for r in rows],
                            [r["mc_dsigma_y"] for r in rows])
    times = mc_event_times(cfg)[::6]
    ts = np.concatenate([times, np.nextafter(times, 0), np.nextafter(times, np.inf)])
    assert_mc_spreads_match(cfg, ts, *mc_spreads_at(cfg, ts))


def test_monte_carlo_x_spread_is_zero_before_the_first_collision(tmp_path):
    # every channel sits at x_m0 + v_x0 t until the earliest sample collides:
    # one block with no slope, so the spread is exactly zero, not rounding noise
    cfg = parse_config(write_config(tmp_path, config_with(BASE_CONFIG,
                                                          oracles="monte_carlo:10000")))
    first = mc_event_times(cfg)[0]
    cfg.schedule = [0.0, first / 2, math.nextafter(first, 0)]
    rows, _ = compute_series(cfg, tmp_path)
    assert [row["mc_dsigma_x"] for row in rows] == [0.0, 0.0, 0.0]
    assert rows[0]["mc_dsigma_y"] == pytest.approx(np.std(mc_samples(cfg), ddof=1), rel=1e-12)
