"""Batch front-end: run scenarios from flat key=value configs, emit CSV/JSON
time series plus a manifest, and compare run artifacts column by column.

Configs are UTF-8, one `key = value` per line, `#` comments.  The keys are
_KNOWN_KEYS; README's CLI section documents them, and a test keeps the two
equal.  The config alone decides what `run` computes: `--out` only names the
output directory.  Natural units (hbar = 1).  Identical configs give
byte-identical series.csv; the manifest records config, versions, seed and
wall-clock.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, channels, classical, grid
from .channels import MixedPhaseError, ScenarioParams, split_width
from .gaussian import OVERLAP_GATE, MassPair, wall_tail_mass

SERIES_COLUMNS = [
    "t", "n", "x_M", "y_M", "dsigma_y_n", "dsigma_x_n", "abs_a_xy",
    "purity", "schmidt_entropy", "p_xn", "p_yn", "validity_figure",
]
OPTIONAL_COLUMNS = ["grid_purity", "mc_dsigma_y", "mc_dsigma_x"]

# Admission bound on the reference run's events, at most 2 (n_max + 1); at
# eps = 1e-6 (1.57 million) `run` with event_driven peaks at 320 MiB (README).
MAX_EVENTS = 2_000_000
# Admission bounds on the oracles' work; README gives the run just inside each.
MAX_MC_SAMPLES = 2_000_000
MAX_MC_SAMPLE_INSTANTS = 500_000_000
MAX_GRID_STEPS = 20_000     # counted at n = 512: a step costs about (n + 1)^2
MAX_GRID_MIB = 1024         # the fields a grid run holds: (instants + 6) (n + 1)^2 complex

_KNOWN_KEYS = {
    "m_x", "m_y", "x_m0", "y_m0", "sigma0x", "sigma0y", "p_x0",
    "schedule", "oracles", "seed", "purity_source",
}


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    params: ScenarioParams
    schedule: list[float] | str = "auto"
    event_driven: bool = False
    monte_carlo: int = 0
    grid_oracle: grid.GridSpec | None = None
    grid_dt: float = 0.0
    purity_source: str = "analytic"
    seed: int = 0
    raw: dict = field(default_factory=dict)


def _number(kind, text: str, what: str):
    """text converted by kind (int or float); ConfigError naming `what` if malformed."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what}: expected {expected}, got {text!r}") from None


def _grid_oracle(arg: str, params: ScenarioParams, where: str) -> tuple[grid.GridSpec, float]:
    """Grid and time step of an `n=..;l=..;dt=..` spec, checked as `run` would use them."""
    pairs = (item.partition("=") for item in arg.split(";") if item.strip())
    opts = {k.strip(): v.strip() for k, _, v in pairs}
    if set(opts) != {"n", "l", "dt"}:
        raise ConfigError(f"{where}: needs exactly the options n, l and dt "
                          f"(grid:n=..;l=..;dt=..), got {', '.join(opts) or 'none'}")
    n = _number(int, opts["n"], f"{where} n")
    length = _number(float, opts["l"], f"{where} l")
    dt = _number(float, opts["dt"], f"{where} dt")
    if not 0 < dt < math.inf:
        raise ConfigError(f"{where} dt: must be positive and finite, got {dt:g}")
    try:
        spec = grid.GridSpec(n=n, length=length)
        grid.check_resolution(spec, (params.sigma0x, params.sigma0y), params.p_x0)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    heavy = params.packet_y()   # y = l is a wall: what it cuts is the mirror image's tail
    cut = wall_tail_mass(replace(heavy, center=length - heavy.center))
    if cut > OVERLAP_GATE:
        from statistics import NormalDist   # here, off every run's start-up path
        sd = math.sqrt(heavy.density_variance)
        need = heavy.center - NormalDist(0, sd).inv_cdf(OVERLAP_GATE)
        raise ConfigError(f"{where}: l={length:g} leaves {cut:.2e} of the heavy packet beyond "
                          f"y = l (> {OVERLAP_GATE:.0e}); need l >= {math.ceil(need * 1e3) / 1e3}")
    return spec, dt


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a key=value scenario file; unknown keys are errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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
    events = 2 * (params.n_max + 1)
    if events > MAX_EVENTS:
        raise ConfigError(f"{path}: eps = {params.eps:.3g} gives up to {events:,} reference "
                          f"events, over the limit of {MAX_EVENTS:,}")

    cfg = ScenarioConfig(params=params, raw=dict(raw))
    sched = raw.get("schedule", "auto").strip()
    if sched != "auto":
        try:
            instants = sorted(float(s) for s in sched.split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}: schedule: {exc}") from None
        if not instants:
            raise ConfigError(f"{path}: schedule is empty")
        bad = [t for t in instants if not 0 <= t < math.inf]
        if bad:
            raise ConfigError(f"{path}: schedule: instants must be finite and "
                              f"non-negative, got {bad[0]!r}")
        cfg.schedule = instants
    cfg.seed = _number(int, raw.get("seed", "0"), f"{path}: key 'seed'")
    if cfg.seed < 0:    # numpy's generators reject negative seeds
        raise ConfigError(f"{path}: key 'seed': must be non-negative, got {cfg.seed}")
    cfg.purity_source = raw.get("purity_source", "analytic").strip()
    if cfg.purity_source not in ("analytic", "grid"):
        raise ConfigError(f"{path}: purity_source must be analytic or grid")

    where = f"{path}: oracles"
    for spec in (s.strip() for s in raw.get("oracles", "").split(",") if s.strip()):
        name, _, arg = spec.partition(":")
        if name == "event_driven":
            cfg.event_driven = True
        elif name == "monte_carlo":
            count = _number(int, arg or "10000", f"{where}: monte_carlo sample count")
            if count <= 0:
                raise ConfigError(f"{where}: monte_carlo sample count must be "
                                  f"positive, got {count}")
            cfg.monte_carlo = count
        elif name == "grid":
            cfg.grid_oracle, cfg.grid_dt = _grid_oracle(arg, params, f"{where}: grid")
        else:
            raise ConfigError(f"{where}: unknown oracle {name!r}")
    if cfg.purity_source == "grid" and cfg.grid_oracle is None:
        raise ConfigError(f"{path}: purity_source=grid requires the grid oracle")
    if cfg.monte_carlo or cfg.grid_oracle is not None:
        # the oracles' work grows with the schedule: an auto one is built to count it
        schedule = channels.auto_schedule(params) if cfg.schedule == "auto" else cfg.schedule
        cells = (cfg.grid_oracle.n + 1) ** 2 if cfg.grid_oracle is not None else 0
        for what, need, limit in (
                ("monte_carlo samples", cfg.monte_carlo, MAX_MC_SAMPLES),
                ("monte_carlo samples x instants", cfg.monte_carlo * len(schedule),
                 MAX_MC_SAMPLE_INSTANTS),
                ("grid MiB of fields", (len(schedule) + 6) * cells * 16 / 2**20, MAX_GRID_MIB),
                ("grid work in n = 512 steps",
                 max(schedule) / cfg.grid_dt * (cells / 513**2) if cells else 0,
                 MAX_GRID_STEPS)):
            if need > limit:
                raise ConfigError(f"{where}: {what}: {need:,.0f}, over the limit of {limit:,}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def compute_series(cfg: ScenarioConfig) -> tuple[list[dict], dict]:
    """Rows for every scheduled instant plus oracle summary details.

    The analytic columns come from the scalar API evaluated over the whole
    schedule at once: propagate_ensemble gates every instant and gives the
    ensembles, entanglement_report the entanglement of their (unnormalized:
    no column reads log_norm) channel integrals.  The Monte Carlo columns are
    classical.sample_spreads of the sampled channels: sorted once, then a few
    block sums per instant.
    """
    params = cfg.params
    schedule = channels.auto_schedule(params) if cfg.schedule == "auto" else list(cfg.schedule)
    ts = np.array(schedule, dtype=float)
    dsigma_y0, _ = split_width(params)
    e = channels.propagate_ensemble(params, ts)
    rep = channels.entanglement_report(channels.channel_integral(e, params))
    columns = {
        "t": ts, "n": e.n, "x_M": e.x_center, "y_M": e.y_center,
        "dsigma_y_n": e.dsigma_y_n,
        "dsigma_x_n": classical.ensemble_widths(e.n, params.eps, dsigma_y0).dsigma_x,
        "abs_a_xy": np.abs(rep.a_xy), "purity": rep.purity,
        "schmidt_entropy": rep.schmidt_entropy,
        "p_xn": e.p_xn, "p_yn": e.p_yn,
        "validity_figure": np.full(ts.shape, params.validity_figure),
    }
    details: dict = {"oracle_checks": {}}
    if cfg.event_driven:
        # the event-driven simulator re-derives the rows' centres and momenta
        # without the collision table: record its largest deviations from them
        o = classical.event_driven_trajectory(
            params.x_M0, params.y_M0, params.v_x0, params.masses).states_at(ts)
        m = params.masses
        dev = np.abs([o.x - e.x_center, o.y - e.y_center, m.m_x * o.v_x - e.p_xn,
                      m.m_y * o.v_y - e.p_yn]).max(axis=1, initial=0.0)
        details["oracle_checks"].update(event_driven_max_center_dev=float(dev[:2].max()),
                                        event_driven_max_p_dev=float(dev[2:].max()))
    rows = [dict(zip(columns, values))
            for values in zip(*(c.tolist() for c in columns.values()))]

    if cfg.monte_carlo:
        # N sampled channels, reduced to their two position spreads at each
        # instant: O(N) memory whatever the number of instants, no O(N) work
        # per instant
        y0 = np.random.default_rng(cfg.seed).normal(params.y_M0, dsigma_y0,
                                                    size=cfg.monte_carlo)
        spreads = classical.sample_spreads(ts, y0, params.x_M0, params.v_x0, params.table)
        for row, (sd_x, sd_y) in zip(rows, spreads.T.tolist()):
            row["mc_dsigma_y"], row["mc_dsigma_x"] = sd_y, sd_x

    snapshots = []
    if cfg.grid_oracle is not None:
        f = grid.init_field(params, cfg.grid_oracle)
        # the grid samples whole steps: up to dt/2 away from the scheduled t
        sampled = details["grid"] = {"steps": 0, "max_t_offset": 0.0}
        for row in rows:
            steps = int(round((row["t"] - f.t) / cfg.grid_dt))
            if steps > 0:
                f = grid.evolve(f, params.masses, cfg.grid_dt, steps)
                sampled["steps"] += steps
            sampled["max_t_offset"] = max(sampled["max_t_offset"], abs(f.t - row["t"]))
            snapshots.append((row["t"], f))
            if cfg.purity_source == "grid":     # both from one Gram matrix
                row["grid_purity"], row["schmidt_entropy"] = grid.schmidt_measures(f)
                row["purity"] = row["grid_purity"]
            else:
                row["grid_purity"] = grid.schmidt_purity(f)
    details["snapshots"] = snapshots
    details["schedule"] = schedule
    return rows, details


def _columns_for(rows: list[dict]) -> list[str]:
    cols = list(SERIES_COLUMNS)
    for opt in OPTIONAL_COLUMNS:
        if rows and opt in rows[0]:
            cols.append(opt)
    return cols


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(value) -> str:
    """A series value as json.dump spells it: repr, with json's non-finite names."""
    if type(value) in (float, int):
        text = repr(value)
        return _JSON_NON_FINITE.get(text, text)
    return json.dumps(value)


def _write_series_json(rows: list[dict], cols: list[str], fh) -> None:
    """json.dump(rows restricted to cols, fh, indent=1, sort_keys=True) and a
    newline, formatted row by row: json's indenting encoder is pure Python,
    and took half of write_series on a 1,571-row series."""
    keys = sorted(cols)
    heads = [f"  {json.dumps(k)}: " for k in keys]
    sep = "[\n {\n"
    for row in rows:
        fh.write(sep + ",\n".join([h + _json_value(row[k]) for h, k in zip(heads, keys)]))
        sep = "\n },\n {\n"
    fh.write("\n }\n]\n" if rows else "[]\n")


def write_series(rows: list[dict], out_dir: Path) -> None:
    cols = _columns_for(rows)
    with open(out_dir / "series.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for row in rows:
            w.writerow([_fmt(row[c]) for c in cols])
    with open(out_dir / "series.json", "w") as fh:
        _write_series_json(rows, cols, fh)


def cmd_run(args) -> int:
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    # checked before any work: mkdir fails on a file anywhere along the path
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        print(f"error: --out {out_dir}: {existing} is not a directory", file=sys.stderr)
        return 2
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
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series(rows, out_dir)
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
    if "grid" in details:
        manifest["grid"] = details["grid"]
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} instants to {out_dir}")
    return 0


def _read_series(run: str) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a run's series.csv (or of the CSV file itself)."""
    path = Path(run) / "series.csv" if Path(run).is_dir() else Path(run)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [[float(v) for v in row] for row in reader]
    except (OSError, ValueError) as exc:      # unreadable, or a value that is no number
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    if "t" not in header or any(len(row) != len(header) for row in rows):
        raise ConfigError(f"{path}: not a series file (needs a 't' column and full rows)")
    return header, rows


def _tolerances(items, columns) -> dict[str, float]:
    """--tol COL=VAL items; every COL must be a column both runs have."""
    tol = {}
    for item in items or []:
        col, eq, val = item.partition("=")
        if not eq:
            raise ConfigError(f"--tol {item}: expected COL=VAL")
        if col not in columns:
            raise ConfigError(f"--tol {item}: {col!r} is not a column of both runs")
        tol[col] = _number(float, val, f"--tol {item}")
        if not 0 <= tol[col] < math.inf:
            raise ConfigError(f"--tol {item}: must be non-negative and finite")
    return tol


def cmd_compare(args) -> int:
    try:
        head_a, rows_a = _read_series(args.run_a)
        head_b, rows_b = _read_series(args.run_b)
        shared = [c for c in head_a if c in head_b]
        tol = _tolerances(args.tol, shared)
        if len(rows_a) != len(rows_b):
            raise ConfigError("runs have different numbers of instants")
        ia, ib = head_a.index("t"), head_b.index("t")
        t_a = np.array([r[ia] for r in rows_a])
        limit = tol.get("t", 1e-12 * np.maximum(1.0, np.abs(t_a)))   # --tol t= bounds it too
        if np.any(np.abs(t_a - [r[ib] for r in rows_b]) > limit):
            raise ConfigError("runs do not share a schedule")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    report = {}
    for col in shared:
        ca, cb = head_a.index(col), head_b.index(col)
        va = np.array([r[ca] for r in rows_a])
        vb = np.array([r[cb] for r in rows_b])
        ok = np.isfinite(va) & np.isfinite(vb)
        if not ok.any():
            continue
        dev = np.abs(va[ok] - vb[ok])
        worst = int(np.argmax(dev))
        dabs = float(dev[worst])
        scale = np.maximum(np.abs(va[ok]), np.abs(vb[ok]))
        drel = float(np.max(dev / np.where(scale > 0, scale, 1.0)))
        # the row of the largest absolute deviation, named by run_a's t
        at_t = float(t_a[ok][worst]) if dabs > 0 else None
        report[col] = {"max_abs": dabs, "max_rel": drel, "at_t": at_t}
        where = f" at t={at_t!r}" if at_t is not None else ""
        flag = ""
        if col in tol and dabs > tol[col]:
            status = 1
            flag = f"  EXCEEDS tol={tol[col]:g}"
        print(f"{col}: max_abs={dabs:.6g} max_rel={drel:.6g}{where}{flag}")
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
    auto = channels.auto_schedule(params)
    info = {
        "epsilon": params.eps,
        "v_x0": params.v_x0,
        "n_max": params.n_max,
        "n_cr": params.n_cr,
        "dsigma_y0": dsigma_y0,
        "sigma_yT": sigma_yT,
        "validity_figure": params.validity_figure,
        "validity_warning": params.validity_figure < 1.0,
        "auto_schedule_len": len(auto),
        # of the reference midpoints: one per event, plus the tail instant
        "auto_schedule_dropped": len(channels.reference_trajectory(params).t) - len(auto),
    }
    # run gates every scheduled instant and exits 3 at the first that fails
    schedule = np.array(auto if cfg.schedule == "auto" else cfg.schedule, dtype=float)
    unsafe = schedule[~channels.mixed_phase_gate(params, schedule)].tolist()
    info["schedule_unsafe"] = len(unsafe)
    info["first_unsafe_instant"] = unsafe[0] if unsafe else "none"
    for key, value in info.items():
        print(f"{key} = {value}")
    return 3 if unsafe else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbounce",
        description="wall / light / heavy wave-packet scenarios: run, compare, validate")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out", help="output directory")
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
