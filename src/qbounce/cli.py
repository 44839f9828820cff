"""Batch front-end: run scenarios from flat key=value configs, emit CSV/JSON
time series plus a manifest, and compare run artifacts column by column.

Config format (UTF-8, one `key = value` per line, `#` comments):

    m_x      = 1.0          # optional, default 1
    m_y      = 400.0
    x_m0     = 25.0
    y_m0     = 50.0
    sigma0x  = 1.0
    sigma0y  = 0.5
    p_x0     = 190.0
    schedule = auto         # or comma-separated instants
    oracles  = event_driven,monte_carlo:10000,grid:n=256;l=32;dt=1e-3
    seed     = 0
    out      = out
    formats  = csv,json

Natural units (hbar = 1).  Identical config and seed give byte-identical
series.csv; the manifest records config, versions, seed and wall-clock.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, channels, classical, grid
from .channels import (MixedPhaseError, ScenarioParams, assemble_quadratic_form,
                       entanglement_report, initial_ensemble, propagate_ensemble,
                       split_width)
from .gaussian import MassPair

SERIES_COLUMNS = [
    "t", "n", "x_M", "y_M", "dsigma_y_n", "dsigma_x_n", "abs_a_xy",
    "purity", "schmidt_entropy", "p_xn", "p_yn", "validity_figure",
]
OPTIONAL_COLUMNS = ["grid_purity", "mc_dsigma_y", "mc_dsigma_x"]

_KNOWN_KEYS = {
    "m_x", "m_y", "x_m0", "y_m0", "sigma0x", "sigma0y", "p_x0",
    "schedule", "oracles", "seed", "out", "formats", "purity_source",
}


class ConfigError(ValueError):
    pass


@dataclass
class GridOracleSpec:
    n: int
    length: float
    dt: float
    t_max: float = math.inf


@dataclass
class ScenarioConfig:
    params: ScenarioParams
    schedule: list[float] | str = "auto"
    event_driven: bool = False
    monte_carlo: int = 0
    grid_oracle: GridOracleSpec | None = None
    purity_source: str = "analytic"
    seed: int = 0
    out: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    raw: dict = field(default_factory=dict)


def _number(kind, text: str, what: str):
    """text converted by kind (int or float); ConfigError naming `what` if malformed."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what}: expected {expected}, got {text!r}") from None


def _seed(seed: int, what: str) -> int:
    """seed, checked up front: numpy's generators reject negative seeds."""
    if seed < 0:
        raise ConfigError(f"{what}: must be non-negative, got {seed}")
    return seed


def _apply_oracles(cfg: ScenarioConfig, spec: str, where: str) -> None:
    """Switch on the oracles of a comma-separated spec; errors start with `where`."""
    for spec_str in (s.strip() for s in spec.split(",") if s.strip()):
        name, _, arg = spec_str.partition(":")
        if name == "event_driven":
            cfg.event_driven = True
        elif name == "monte_carlo":
            count = _number(int, arg or "10000", f"{where}: monte_carlo sample count")
            if count <= 0:
                raise ConfigError(f"{where}: monte_carlo sample count must be "
                                  f"positive, got {count}")
            cfg.monte_carlo = count
        elif name == "grid":
            opts = {}
            for item in arg.split(";"):
                if not item:
                    continue
                k, _, v = item.partition("=")
                opts[k.strip()] = v.strip()
            try:
                cfg.grid_oracle = GridOracleSpec(
                    n=_number(int, opts["n"], f"{where}: grid n"),
                    length=_number(float, opts["l"], f"{where}: grid l"),
                    dt=_number(float, opts["dt"], f"{where}: grid dt"),
                    t_max=_number(float, opts.get("t_max", "inf"), f"{where}: grid t_max"))
            except KeyError as exc:
                raise ConfigError(f"{where}: grid oracle needs {exc} "
                                  "(grid:n=..;l=..;dt=..[;t_max=..])") from None
        else:
            raise ConfigError(f"{where}: unknown oracle {name!r}")


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a key=value scenario file; unknown keys are errors."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(known: {', '.join(sorted(_KNOWN_KEYS))})")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    def fnum(key, default=None):
        val = raw.get(key, default)
        if val is None:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return _number(float, val, f"{path}: key {key!r}")

    try:
        params = ScenarioParams(
            x_M0=fnum("x_m0"), y_M0=fnum("y_m0"), sigma0x=fnum("sigma0x"),
            sigma0y=fnum("sigma0y"), p_x0=fnum("p_x0"),
            masses=MassPair(m_x=fnum("m_x", "1.0"), m_y=fnum("m_y")))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    cfg = ScenarioConfig(params=params, raw=dict(raw))
    sched = raw.get("schedule", "auto").strip()
    if sched != "auto":
        try:
            instants = sorted(float(s) for s in sched.split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}: schedule: {exc}") from None
        if not instants:
            raise ConfigError(f"{path}: schedule is empty")
        cfg.schedule = instants
    what = f"{path}: key 'seed'"
    cfg.seed = _seed(_number(int, raw.get("seed", "0"), what), what)
    cfg.out = raw.get("out", "out")
    cfg.formats = tuple(s.strip() for s in raw.get("formats", "csv,json").split(","))
    for fmt in cfg.formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"{path}: unknown format {fmt!r}")
    cfg.purity_source = raw.get("purity_source", "analytic").strip()
    if cfg.purity_source not in ("analytic", "grid"):
        raise ConfigError(f"{path}: purity_source must be analytic or grid")

    _apply_oracles(cfg, raw.get("oracles", ""), f"{path}: oracles")
    if cfg.purity_source == "grid" and cfg.grid_oracle is None:
        raise ConfigError(f"{path}: purity_source=grid requires the grid oracle")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def compute_series(cfg: ScenarioConfig) -> tuple[list[dict], dict]:
    """Rows for every scheduled instant plus oracle summary details."""
    params = cfg.params
    schedule = (channels.auto_schedule(params) if cfg.schedule == "auto"
                else list(cfg.schedule))
    dsigma_y0, _ = split_width(params)
    eps = params.eps
    traj = channels.reference_trajectory(params)
    e0 = initial_ensemble(params)
    details: dict = {"oracle_checks": {}}

    rows = []
    for t in schedule:
        e = propagate_ensemble(e0, params, t)
        state = assemble_quadratic_form(e, params, check_gate=False)
        rep = entanglement_report(state)
        row = {
            "t": t, "n": e.n, "x_M": e.x_center, "y_M": e.y_center,
            "dsigma_y_n": e.dsigma_y_n,
            "dsigma_x_n": dsigma_y0 / eps * abs(math.sin(2 * eps * e.n)),
            "abs_a_xy": abs(rep.a_xy), "purity": rep.purity,
            "schmidt_entropy": rep.schmidt_entropy,
            "p_xn": e.p_xn, "p_yn": e.p_yn,
            "validity_figure": params.validity_figure,
        }
        rows.append(row)

    if cfg.event_driven:
        # momenta re-derived from the recorded trajectory rather than the
        # closed forms; lets `compare` quantify the two routes' agreement
        dev = 0.0
        for row in rows:
            ref = traj.state_at(row["t"])
            p_xn = params.masses.m_x * ref.v_x
            p_yn = params.masses.m_y * ref.v_y
            dev = max(dev, abs(p_xn - row["p_xn"]), abs(p_yn - row["p_yn"]))
            row["p_xn"], row["p_yn"] = p_xn, p_yn
        details["oracle_checks"]["event_driven_max_p_dev"] = dev

    if cfg.monte_carlo:
        xs, ys, _ = classical.monte_carlo_positions(
            [row["t"] for row in rows], cfg.monte_carlo, cfg.seed,
            y_M0=params.y_M0, dsigma_y0=dsigma_y0, x_M0=params.x_M0,
            v_x0=params.v_x0, eps=eps)
        for j, row in enumerate(rows):
            row["mc_dsigma_y"] = float(np.std(ys[:, j], ddof=1))
            row["mc_dsigma_x"] = float(np.std(xs[:, j], ddof=1))

    snapshots = []
    if cfg.grid_oracle is not None:
        gspec = grid.GridSpec(n=cfg.grid_oracle.n, length=cfg.grid_oracle.length)
        f = grid.init_field(params, gspec)
        for row in rows:
            if row["t"] > cfg.grid_oracle.t_max:
                row["grid_purity"] = float("nan")
                continue
            steps = int(round((row["t"] - f.t) / cfg.grid_oracle.dt))
            if steps > 0:
                f = grid.evolve(f, params.masses, cfg.grid_oracle.dt, steps)
            row["grid_purity"] = grid.schmidt_purity(f)
            snapshots.append((row["t"], f))
            if cfg.purity_source == "grid":
                row["purity"] = row["grid_purity"]
                row["schmidt_entropy"] = grid.schmidt_entropy(f)
    details["snapshots"] = snapshots
    details["schedule"] = schedule
    return rows, details


def _columns_for(rows: list[dict]) -> list[str]:
    cols = list(SERIES_COLUMNS)
    for opt in OPTIONAL_COLUMNS:
        if rows and opt in rows[0]:
            cols.append(opt)
    return cols


def write_series(rows: list[dict], out_dir: Path, formats) -> None:
    cols = _columns_for(rows)
    if "csv" in formats:
        with open(out_dir / "series.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(cols)
            for row in rows:
                w.writerow([_fmt(row[c]) for c in cols])
    if "json" in formats:
        payload = [{c: row[c] for c in cols} for row in rows]
        with open(out_dir / "series.json", "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def cmd_run(args) -> int:
    try:
        cfg = parse_config(args.config)
        if args.oracles:
            _apply_oracles(cfg, args.oracles, "--oracles")
            cfg.raw["oracles"] = ",".join(
                s for s in (cfg.raw.get("oracles", ""), args.oracles) if s)
        if args.seed is not None:
            cfg.seed = _seed(args.seed, "--seed")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        cfg.out = args.out
    started = time.time()
    try:
        rows, details = compute_series(cfg)
    except MixedPhaseError as exc:
        print(f"mixed-phase instant: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # made only now, so a run that fails leaves no empty output directory
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series(rows, out_dir, cfg.formats)
    snap_dir = out_dir / "snapshots"
    for t, f in details.get("snapshots", []):
        snap_dir.mkdir(exist_ok=True)
        grid.save_snapshot(f, snap_dir / f"field_t{t:.6f}.bin")
        grid.write_marginals_csv(f, snap_dir / f"marginals_t{t:.6f}.csv")
    params = cfg.params
    manifest = {
        "config": cfg.raw,
        "seed": cfg.seed,
        "versions": {"qbounce": __version__, "numpy": np.__version__},
        "wall_clock_s": time.time() - started,
        "validity_figure": params.validity_figure,
        "validity_warning": params.validity_figure < 1.0,
        "n_max": params.n_max,
        "n_cr": params.n_cr,
        "schedule": details["schedule"],
        "columns": _columns_for(rows),
        "oracle_checks": details["oracle_checks"],
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} instants to {out_dir}")
    return 0


def _read_series(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def cmd_compare(args) -> int:
    path_a = Path(args.run_a) / "series.csv" if Path(args.run_a).is_dir() else Path(args.run_a)
    path_b = Path(args.run_b) / "series.csv" if Path(args.run_b).is_dir() else Path(args.run_b)
    head_a, rows_a = _read_series(path_a)
    head_b, rows_b = _read_series(path_b)
    if len(rows_a) != len(rows_b):
        print("error: runs have different numbers of instants", file=sys.stderr)
        return 2
    ia, ib = head_a.index("t"), head_b.index("t")
    ta = [r[ia] for r in rows_a]
    tb = [r[ib] for r in rows_b]
    if any(abs(a - b) > 1e-12 * max(1.0, abs(a)) for a, b in zip(ta, tb)):
        print("error: runs do not share a schedule", file=sys.stderr)
        return 2
    tol = {}
    for item in args.tol or []:
        col, _, val = item.partition("=")
        tol[col] = float(val)
    shared = [c for c in head_a if c in head_b]
    status = 0
    report = {}
    for col in shared:
        ca, cb = head_a.index(col), head_b.index(col)
        va = np.array([r[ca] for r in rows_a])
        vb = np.array([r[cb] for r in rows_b])
        ok = np.isfinite(va) & np.isfinite(vb)
        if not ok.any():
            continue
        dabs = float(np.max(np.abs(va[ok] - vb[ok]))) if ok.any() else 0.0
        scale = np.maximum(np.abs(va[ok]), np.abs(vb[ok]))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.abs(va[ok] - vb[ok]) / np.where(scale > 0, scale, 1.0)
        drel = float(np.max(rel))
        report[col] = {"max_abs": dabs, "max_rel": drel}
        flag = ""
        if col in tol and dabs > tol[col]:
            status = 1
            flag = f"  EXCEEDS tol={tol[col]:g}"
        print(f"{col}: max_abs={dabs:.6g} max_rel={drel:.6g}{flag}")
    if args.json:
        print(json.dumps(report, sort_keys=True))
    return status


def cmd_validate(args) -> int:
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    params = cfg.params
    dsigma_y0, sigma_yT = split_width(params)
    info = {
        "epsilon": params.eps,
        "v_x0": params.v_x0,
        "n_max": params.n_max,
        "n_cr": params.n_cr,
        "dsigma_y0": dsigma_y0,
        "sigma_yT": sigma_yT,
        "validity_figure": params.validity_figure,
        "validity_warning": params.validity_figure < 1.0,
        "auto_schedule_len": len(channels.auto_schedule(params)),
    }
    for key, value in info.items():
        print(f"{key} = {value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbounce",
        description="wall / light / heavy wave-packet scenarios: run, compare, validate")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--oracles", default=None,
                       help="comma list, e.g. event_driven,monte_carlo:10000")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two run artifacts")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--tol", action="append", metavar="COL=VAL",
                       help="fail when a column's max abs deviation exceeds VAL")
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="validate a config and report derived quantities")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
