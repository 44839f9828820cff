"""Batch front-end: run scenarios from flat key=value configs, emit CSV/JSON
time series plus a manifest, and compare run artifacts column by column.

Configs are UTF-8, one `key = value` per line, `#` comments.  The keys are
_KNOWN_KEYS; README's CLI section documents them, and a test keeps the two
equal.  The config alone decides what `run` computes: `--out` only names the
output directory, built in a temporary one and moved into place whole.
Natural units (hbar = 1).  Identical configs give byte-identical series.csv;
the manifest records config, versions, seed, wall-clock and the report that
`validate` prints.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__, channels, classical, grid
from .channels import MixedPhaseError, ScenarioParams, split_width
from .gaussian import OVERLAP_GATE, MassPair, wall_tail_mass

SERIES_COLUMNS = [
    "t", "n", "x_M", "y_M", "dsigma_y_n", "dsigma_x_n", "abs_a_xy",
    "purity", "schmidt_entropy", "p_xn", "p_yn", "validity_figure",
]
OPTIONAL_COLUMNS = ["grid_purity", "mc_dsigma_y", "mc_dsigma_x"]
_stamp = "{:.6f}".format    # an instant's part of its snapshot names: field_t{stamp}.bin

# Admission bound on the reference run's events, at most 2 (n_max + 1); at
# eps = 1e-6 (1.57 million) `run` with event_driven peaks at 338 MiB (README).
MAX_EVENTS = 2_000_000
# Admission bounds on the oracles' work; README gives the run just inside each.
MAX_MC_SAMPLES = 2_000_000
MAX_GRID_STEPS = 20_000     # counted at n = 512: a step costs about (n + 1)^2
MAX_GRID_MIB = 1024         # the fields a grid run holds: grid.RUN_FIELDS (n + 1)^2 complex

_KNOWN_KEYS = {
    "m_x", "m_y", "x_m0", "y_m0", "sigma0x", "sigma0y", "p_x0",
    "schedule", "oracles", "seed", "purity_source",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    params: ScenarioParams
    schedule: np.ndarray        # sorted, read-only float64
    report: MappingProxyType    # what validate prints and run's manifest records, read-only
    event_driven: bool = False
    monte_carlo: int = 0
    grid_oracle: grid.GridSpec | None = None
    grid_dt: float = 0.0
    purity_source: str = "analytic"
    seed: int = 0
    raw: dict = field(default_factory=dict)


def _number(kind, text: str, what: str, error=ConfigError):
    """text converted by kind (int or float); error naming `what` if malformed."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise error(f"{what}: expected {expected}, got {text!r}") from None


def _grid_oracle(arg: str, params: ScenarioParams, where: str) -> tuple[grid.GridSpec, float]:
    """Grid and time step of an `n=..;l=..;dt=..` spec, checked as `run` would use them."""
    opts: dict[str, str] = {}
    for item in filter(str.strip, arg.split(";")):
        key, _, value = map(str.strip, item.partition("="))
        if key in opts:
            raise ConfigError(f"{where}: repeated option {key!r}")
        opts[key] = value
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
    """The one admission of `run` and `validate`: a key=value scenario file (unknown
    keys are errors), every check before any work, in order, and the frozen config
    with its report, which `validate` prints and `run` records in the manifest."""
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

    sched = raw.get("schedule", "auto").strip()
    if sched == "auto":
        schedule = channels.auto_schedule(params)
    else:
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
        schedule = np.array(instants)
    schedule.flags.writeable = False
    seed = _number(int, raw.get("seed", "0"), f"{path}: key 'seed'")
    if seed < 0:    # numpy's generators reject negative seeds
        raise ConfigError(f"{path}: key 'seed': must be non-negative, got {seed}")
    purity_source = raw.get("purity_source", "analytic").strip()
    if purity_source not in ("analytic", "grid"):
        raise ConfigError(f"{path}: purity_source must be analytic or grid")

    where = f"{path}: oracles"
    oracles: dict = {}      # by name, also ScenarioConfig's field for all but grid
    for spec in (s.strip() for s in raw.get("oracles", "").split(",") if s.strip()):
        name, sep, arg = spec.partition(":")
        if name in oracles:
            raise ConfigError(f"{where}: repeated oracle {name!r}")
        if name == "event_driven":
            if sep:
                raise ConfigError(f"{where}: event_driven takes no argument, got {spec!r}")
            oracles[name] = True
        elif name == "monte_carlo":
            oracles[name] = _number(int, arg or "10000", f"{where}: monte_carlo sample count")
            if oracles[name] < 2:       # a sample spread (ddof = 1) needs two samples
                raise ConfigError(f"{where}: monte_carlo sample count must be "
                                  f"at least 2, got {oracles[name]}")
        elif name == "grid":
            oracles[name] = _grid_oracle(arg, params, f"{where}: grid")
        else:
            raise ConfigError(f"{where}: unknown oracle {name!r}")
    grid_oracle, grid_dt = oracles.pop("grid", (None, 0.0))
    if purity_source == "grid" and grid_oracle is None:
        raise ConfigError(f"{path}: purity_source=grid requires the grid oracle")
    if grid_oracle is not None:     # sorted: instants that share a stamp are neighbours
        for a, b in zip(schedule.tolist(), schedule[1:].tolist()):
            if _stamp(a) == _stamp(b):
                raise ConfigError(f"{where}: grid: instants {a!r} and {b!r} share the "
                                  f"snapshot stamp {_stamp(a)} (field_t{_stamp(a)}.bin)")
    cells = (grid_oracle.n + 1) ** 2 if grid_oracle is not None else 0
    for what, need, limit in (
            ("monte_carlo samples", oracles.get("monte_carlo", 0), MAX_MC_SAMPLES),
            ("grid MiB of fields", grid.RUN_FIELDS * cells * 16 / 2**20, MAX_GRID_MIB),
            ("grid work in n = 512 steps",
             schedule[-1] / grid_dt * (cells / 513**2) if cells else 0, MAX_GRID_STEPS)):
        if need > limit:
            raise ConfigError(f"{where}: {what}: {need:,.0f}, over the limit of {limit:,}")
    # run gates every scheduled instant and exits 3 at the first that fails.  An explicit
    # schedule's latest instant is the first to fail the normalizability rule (after the
    # last event A and D fall like 1/t^2), and an overflow fails it too; an unsafe one is
    # left to that exit 3.  An auto schedule ends half a gap after the last event.
    safe = channels.mixed_phase_gate(params, schedule)
    if sched != "auto" and safe[-1]:
        last = schedule[-1].item()
        try:
            with np.errstate(over="raise", invalid="raise"):
                channels.channel_integral(channels.propagate_ensemble(params, last), params)
        except (ValueError, FloatingPointError) as exc:
            raise ConfigError(f"{path}: schedule: instant {last!r} is too late: its analytic "
                              f"state is not representable in floating point ({exc})") from None
    auto = schedule if sched == "auto" else channels.auto_schedule(params)
    unsafe = schedule[~safe].tolist()
    dsigma_y0, sigma_yT = split_width(params)
    report = {
        "epsilon": params.eps, "v_x0": params.v_x0, "n_max": params.n_max, "n_cr": params.n_cr,
        "dsigma_y0": dsigma_y0, "sigma_yT": sigma_yT, "validity_figure": params.validity_figure,
        "validity_warning": params.validity_figure < 1.0, "auto_schedule_len": len(auto),
        # of the reference midpoints: one per event, plus the tail instant
        "auto_schedule_dropped": len(channels.reference_trajectory(params).t) - len(auto),
        "schedule_unsafe": len(unsafe), "first_unsafe_instant": unsafe[0] if unsafe else "none",
    }
    return ScenarioConfig(params, schedule, MappingProxyType(report), grid_oracle=grid_oracle,
                          grid_dt=grid_dt, purity_source=purity_source, seed=seed, raw=raw,
                          **oracles)


def compute_series(cfg: ScenarioConfig, out_dir: Path) -> tuple[dict[str, np.ndarray], dict]:
    """The series' columns, {name: array} in header order, and the manifest's
    oracle details.

    The analytic columns come from the scalar API evaluated over the whole
    schedule at once: propagate_ensemble gates every instant and gives the
    ensembles, entanglement_report the entanglement of their (unnormalized:
    no column reads log_norm) channel integrals.  The Monte Carlo columns are
    classical.sample_spreads of the sampled channels: sorted once, then block
    sums over a chunk of instants at a time.  The grid oracle is one
    propagation: each sampled field is written to out_dir/snapshots at once,
    and only its measures kept.
    """
    params = cfg.params
    ts = cfg.schedule
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
        # the event-driven simulator re-derives the series' centres and momenta
        # without the collision table: record its largest deviations from them.
        # Centres are compared no later than the last event: past it both move
        # freely, so a far instant's deviation would be the positions' rounding.
        sim = classical.event_driven_trajectory(params.x_M0, params.y_M0, params.v_x0,
                                                params.masses)
        ref = channels.reference_trajectory(params)
        o, at = sim.states_at(ts), np.minimum(ts, ref.t[-1])
        c, r = sim.states_at(at), ref.states_at(at)
        m = params.masses
        dev = np.abs([c.x - r.x, c.y - r.y, m.m_x * o.v_x - e.p_xn,
                      m.m_y * o.v_y - e.p_yn]).max(axis=1, initial=0.0)
        details["oracle_checks"].update(event_driven_max_center_dev=float(dev[:2].max()),
                                        event_driven_max_p_dev=float(dev[2:].max()))

    if cfg.monte_carlo:
        # N sampled channels, reduced to their two position spreads at each instant:
        # O(N) memory whatever the instant count, no O(N) work or loop per instant
        y0 = np.random.default_rng(cfg.seed).normal(params.y_M0, dsigma_y0,
                                                    size=cfg.monte_carlo)
        columns["mc_dsigma_x"], columns["mc_dsigma_y"] = classical.sample_spreads(
            ts, y0, params.x_M0, params.v_x0, params.table)     # shape (2, T)

    if cfg.grid_oracle is not None:
        snap_dir = out_dir / "snapshots"
        snap_dir.mkdir()
        offset = 0.0
        # grid purity, and with purity_source grid the entropy of the same Gram matrix
        measures = np.empty((len(ts), 2))
        fields = grid.sample(grid.init_field(params, cfg.grid_oracle), params.masses,
                             cfg.grid_dt, ts)
        for k, t in enumerate(ts):
            f = next(fields)
            offset = max(offset, abs(f.t - t))
            grid.save_snapshot(f, snap_dir / f"field_t{_stamp(t)}.bin")
            grid.write_marginals_csv(f, snap_dir / f"marginals_t{_stamp(t)}.csv")
            measures[k] = (grid.schmidt_measures(f) if cfg.purity_source == "grid"
                           else (grid.schmidt_purity(f), math.nan))
            sampled = f.t
            del f       # before the first step it is the start: not held through that step
        columns["grid_purity"] = measures[:, 0]
        if cfg.purity_source == "grid":
            columns["purity"], columns["schmidt_entropy"] = measures.T
        details["grid"] = {"steps": round(sampled / cfg.grid_dt), "max_t_offset": offset}
    return {c: columns[c] for c in SERIES_COLUMNS + OPTIONAL_COLUMNS if c in columns}, details


WRITE_CHUNK = 256   # rows formatted at a time: the text held is one chunk's, not the series'
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_series(columns: dict[str, np.ndarray], out_dir: Path) -> None:
    """series.csv, and series.json as json.dump(rows, fh, indent=1,
    sort_keys=True) and a newline would write it, WRITE_CHUNK rows at a time.
    Each file has one %-template per row: %.17g (%d for an int column) in the
    CSV; in the JSON %s, which spells a float or an int as repr and json do,
    in place of json's indenting encoder, which is pure Python."""
    names = list(columns)
    keys = sorted(range(len(names)), key=names.__getitem__)     # the JSON's key order
    csv_row = ",".join("%d" if columns[c].dtype.kind in "iu" else "%.17g" for c in names) + "\n"
    json_row = " {\n" + ",\n".join(f"  {json.dumps(names[i])}: %s" for i in keys) + "\n }"
    count = len(columns["t"])
    with open(out_dir / "series.csv", "w", newline="") as csv_fh, \
            open(out_dir / "series.json", "w") as json_fh:
        csv_fh.write(",".join(names) + "\n")
        json_fh.write("[\n" if count else "[]\n")
        for start in range(0, count, WRITE_CHUNK):
            chunk = [columns[c][start:start + WRITE_CHUNK] for c in names]
            values = [c.tolist() for c in chunk]
            csv_fh.write("".join(map(csv_row.__mod__, zip(*values))))
            for i, c in enumerate(chunk):
                if not np.isfinite(c).all():        # json's names of the non-finite floats
                    values[i] = [v if math.isfinite(v) else _JSON_NON_FINITE[str(v)]
                                 for v in values[i]]
            json_fh.write((",\n" if start else "")
                          + ",\n".join(map(json_row.__mod__, zip(*(values[i] for i in keys)))))
        if count:
            json_fh.write("\n]\n")


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    out_dir = Path(args.out)
    # what admission or --out already predicts fails before the first side effect
    if cfg.report["schedule_unsafe"]:   # the gate's own error, naming the event window
        channels.propagate_ensemble(cfg.params, cfg.report["first_unsafe_instant"])
    snapshots = ["snapshots"] if cfg.grid_oracle is not None else []
    for name in ["series.csv", "series.json", "manifest.json", *snapshots]:
        part = out_dir / name       # as the move below sees it: a link is not its target
        if os.path.lexists(part) and stat.S_ISDIR(part.lstat().st_mode) != (name in snapshots):
            kind = "not a" if name in snapshots else "a"
            raise ValueError(f"--out {out_dir}: {name} is {kind} directory")
    # the first side effect: an --out that cannot be made fails here, a failed run leaves nothing
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    try:
        work_dir = tempfile.TemporaryDirectory(prefix=".qbounce-run-", dir=existing)
    except OSError as exc:      # a file on the path, or no permission to write there
        raise ValueError(f"--out {out_dir}: {existing}: {exc.strerror or exc}") from None
    started = time.time()
    with work_dir as tmp:
        work = Path(tmp)
        columns, details = compute_series(cfg, work)   # an error here removes tmp
        write_series(columns, work)
        manifest = {
            "config": cfg.raw,
            "seed": cfg.seed,
            "versions": {"qbounce": __version__, "numpy": np.__version__},
            "wall_clock_s": time.time() - started,
            **cfg.report,
            "columns": list(columns),
            **details,      # the oracle checks, and the grid's sampling
        }
        with open(work / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        # a rerun replaces the earlier run's outputs, snapshots included, and no other file
        out_dir.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(out_dir / "snapshots", ignore_errors=True)
        for part in work.iterdir():
            part.replace(out_dir / part.name)
    print(f"wrote {len(columns['t'])} instants to {out_dir}")
    return 0


def _read_series(run: str) -> tuple[list[str], np.ndarray]:
    """Header and values, one column per header name, of a run's series.csv
    (or of the CSV file itself): distinct names, a 't' column of finite
    instants and full rows."""
    path = Path(run) / "series.csv" if Path(run).is_dir() else Path(run)
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # a header alone is zero rows
            header = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        if "number of columns changed" not in str(exc):   # unreadable, or no number
            raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
        data = None                                         # a ragged row
    if "t" not in header or data is None or data.size and data.shape[1] != len(header):
        raise ValueError(f"{path}: not a series file (needs a 't' column and full rows)")
    if len(set(header)) < len(header):
        raise ValueError(f"{path}: not a series file (a column name repeats)")
    data = data.reshape(len(data), len(header))
    if not np.isfinite(data[:, header.index("t")]).all():
        raise ValueError(f"{path}: not a series file (an instant t is not finite)")
    return header, data


def _tolerances(items, columns) -> dict[str, float]:
    """--tol COL=VAL items; every COL must be a column both runs have."""
    tol = {}
    for item in items or []:
        col, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"--tol {item}: expected COL=VAL")
        if col not in columns:
            raise ValueError(f"--tol {item}: {col!r} is not a column of both runs")
        tol[col] = _number(float, val, f"--tol {item}", ValueError)
        if not 0 <= tol[col] < math.inf:
            raise ValueError(f"--tol {item}: must be non-negative and finite")
    return tol


def cmd_compare(args) -> int:
    head_a, data_a = _read_series(args.run_a)
    head_b, data_b = _read_series(args.run_b)
    shared = [c for c in head_a if c in head_b]
    tol = _tolerances(args.tol, shared)
    if len(data_a) != len(data_b):
        raise ValueError("runs have different numbers of instants")
    t_a = data_a[:, head_a.index("t")]
    limit = tol.get("t", 1e-12 * np.maximum(1.0, np.abs(t_a)))   # --tol t= bounds it too
    if np.any(np.abs(t_a - data_b[:, head_b.index("t")]) > limit):
        raise ValueError("runs do not share a schedule")
    status = 0
    report = {}
    for col in shared:
        va, vb = data_a[:, head_a.index(col)], data_b[:, head_b.index(col)]
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
    cfg = parse_config(args.config)
    for key, value in cfg.report.items():
        print(f"{key} = {value}")
    return 3 if cfg.report["schedule_unsafe"] else 0


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
    try:        # every command's errors: ConfigError and MixedPhaseError are ValueErrors, so first
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MixedPhaseError as exc:
        print(f"mixed-phase instant: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:  # a computation or a write stopped part-way
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
