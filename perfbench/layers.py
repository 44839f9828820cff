"""Per-layer metrics from the spans of one traced run.

Naming: `<fn>.ms` / `<fn>.s` is the inclusive time spent in a function over
the whole run, `<fn>.self_*` its self time (span duration minus the time its
child spans cover), `<fn>.us` and `<fn>.ms_per_call` the mean per call,
`<fn>.calls` the call count, `<layer>.self_s` the summed self time of every
span of that layer.  The layer self times, `trace.startup_s` (process spawn to
the first span: interpreter start and imports) and `trace.exit_s` (last span
to process exit) add up to `trace.run_s`.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracer import LAYERS

INSTANT_PARTS = ("channels.propagate_ensemble", "channels.assemble_quadratic_form",
                 "channels.entanglement_report")

# name -> unit, in report order; every name is always reported
UNITS = {
    "cli.parse_config.ms": "ms",
    "cli.compute_series.self_s": "s",
    "cli.write_series.ms": "ms",
    "channels.instant_us.p50": "us",
    "channels.instant_us.p99": "us",
    "channels.propagate_ensemble.self_ms": "ms",
    "channels.assemble_quadratic_form.us": "us",
    "channels.mixed_phase_gate.calls": "count",
    "channels.mixed_phase_gate.ms": "ms",
    "channels.auto_schedule.ms": "ms",
    "channels.reference_trajectory.hit_ratio": "ratio",
    "channels.reference_trajectory.lookups": "count",
    "classical.collision_table.calls": "count",
    "classical.collision_table.ms": "ms",
    "classical.state_at.calls": "count",
    "classical.state_at.ms": "ms",
    "classical.channel_kinematics.calls": "count",
    "classical.channel_kinematics.ms": "ms",
    "classical.event_driven_trajectory.ms": "ms",
    "classical.monte_carlo_positions.s": "s",
    "classical.mc_sample_instants_per_s": "1/s",
    "gaussian.normalized.us": "us",
    "grid.init_field.ms": "ms",
    "grid.step_ms": "ms",
    "grid.evolve.calls": "count",
    "grid.evolve.steps": "count",
    "grid.evolve.ms_per_call": "ms",
    "grid.schmidt_purity.ms": "ms",
    "grid.schmidt_entropy.ms": "ms",
    "grid.save_snapshot.ms": "ms",
    "grid.write_marginals_csv.ms": "ms",
    "grid.snapshot_mb": "MiB",
    "grid.step_ms.n256": "ms",
    "grid.schmidt_purity.ms.n256": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.startup_s": "s",
    "trace.exit_s": "s",
    "trace.overhead_s": "s",
    "ref_err": "ratio",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def analyse(trace: dict, spawn_t: float, exit_t: float) -> tuple[dict, dict]:
    """(metrics without the probe, overhead and ref_err; inclusive seconds by name)."""
    spans = trace["spans"]
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    children: list[float] = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for (name, start, end, parent), covered in zip(spans, children):
        incl[name] += end - start
        self_s[name] += end - start - covered
        calls[name] += 1

    # one instant = propagate + assemble + entanglement called by compute_series
    series_idx = {i for i, s in enumerate(spans) if s[0] == "cli.compute_series"}
    instants: list[float] = []
    for name, start, end, parent in spans:
        if parent in series_idx and name in INSTANT_PARTS:
            if name == INSTANT_PARTS[0]:
                instants.append(0.0)
            instants[-1] += end - start

    def per_call(name: str, scale: float) -> float:
        return incl[name] * scale / calls[name] if calls[name] else 0.0

    counts = trace["counts"]
    steps = counts.get("grid.evolve.steps", 0)
    mc_s = incl["classical.monte_carlo_positions"]
    ref = trace["reference_trajectory"]
    lookups = ref["hits"] + ref["misses"]
    m = {
        "cli.parse_config.ms": incl["cli.parse_config"] * 1e3,
        "cli.compute_series.self_s": self_s["cli.compute_series"],
        "cli.write_series.ms": incl["cli.write_series"] * 1e3,
        "channels.instant_us.p50": _percentile(instants, 50) * 1e6,
        "channels.instant_us.p99": _percentile(instants, 99) * 1e6,
        "channels.propagate_ensemble.self_ms": self_s["channels.propagate_ensemble"] * 1e3,
        "channels.assemble_quadratic_form.us": per_call("channels.assemble_quadratic_form", 1e6),
        "channels.mixed_phase_gate.calls": calls["channels.mixed_phase_gate"],
        "channels.mixed_phase_gate.ms": incl["channels.mixed_phase_gate"] * 1e3,
        "channels.auto_schedule.ms": incl["channels.auto_schedule"] * 1e3,
        "channels.reference_trajectory.hit_ratio": ref["hits"] / lookups if lookups else 0.0,
        "channels.reference_trajectory.lookups": lookups,
        "gaussian.normalized.us": per_call("gaussian.normalized", 1e6),
        "classical.monte_carlo_positions.s": mc_s,
        "classical.mc_sample_instants_per_s":
            counts.get("classical.mc_sample_instants", 0) / mc_s if mc_s else 0.0,
        "grid.step_ms": incl["grid.evolve"] * 1e3 / steps if steps else 0.0,
        "grid.evolve.calls": calls["grid.evolve"],
        "grid.evolve.steps": steps,
        "grid.evolve.ms_per_call": per_call("grid.evolve", 1e3),
    }
    for fn in ("collision_table", "state_at", "channel_kinematics"):
        m[f"classical.{fn}.calls"] = calls[f"classical.{fn}"]
        m[f"classical.{fn}.ms"] = incl[f"classical.{fn}"] * 1e3
    for fn in ("classical.event_driven_trajectory", "grid.init_field",
               "grid.schmidt_purity", "grid.schmidt_entropy", "grid.save_snapshot",
               "grid.write_marginals_csv"):
        m[f"{fn}.ms"] = incl[fn] * 1e3
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.startswith(layer + "."))
    m["trace.run_s"] = exit_t - spawn_t
    m["trace.startup_s"] = min(s[1] for s in spans) - spawn_t
    m["trace.exit_s"] = exit_t - max(s[2] for s in spans)
    return m, dict(incl)
