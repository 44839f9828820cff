"""Benchmark workloads: seeded `qbounce run` configs and their reference checks.

Each workload is one fixed scenario.  The bench seed sets the config's Monte
Carlo `seed` and a small jitter of `p_x0` and `x_m0` that leaves the instant
count and the grid step count unchanged (the benchmark checks both before it
times anything).

ROADMAP item 3's eps = 0.02 config (m_y = 2500, sigma0y = 0.5, p_x0 = 190) is
deliberately not a workload: `run` exits 3 on it today.  That is a
correctness defect to fix, not something to average into timing data.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass

# Tolerances.  Where a test already fixes one, the same value is used.
GRID_PURITY_TOL = 5e-3      # tests/test_cli.py: grid purity before the first collision
MC_WIDTH_REL = 0.02         # acceptance criterion 5: relative rule ...
MC_WIDTH_ABS = 0.02         # ... or absolute 0.02 * dsigma_y0 ...
MC_WIDTH_SWITCH = 0.05      # ... when the expected width is below 0.05 * dsigma_y0
# Closed-form momenta against the event-driven oracle, relative to p_x0.
# Rounding in the oracle grows with the collision count: the baseline is
# 4.8e-15 at n_max = 31 and 2.2e-12 at n_max = 1570, so 1e-10 keeps a 45x
# margin at the largest count here while any error in the laws (O(eps)) fails.
P_DEV_RTOL = 1e-10
QUANTILE_POINTS = 20001     # deterministic ensemble for the exact MC widths


@dataclass(frozen=True)
class Workload:
    why: str
    params: dict            # scenario keys other than schedule and oracles
    schedule: str
    oracles: str
    instants: int           # rows `run` must write
    purity_source: str = "analytic"

    @property
    def grid(self) -> bool:
        return "grid:" in self.oracles


_DESK = dict(m_x=1.0, m_y=25.0, x_m0=10.0, y_m0=20.0, sigma0x=0.5,
             sigma0y=0.5, p_x0=4.0)
_DESK_GRID = "grid:n=512;l=30;dt=2e-3"

WORKLOADS = {
    "analytic_small_eps": Workload(
        why="eps=0.001 auto schedule (1571 instants), event_driven only: the "
            "per-instant analytic path and its collision_table rebuilds",
        params=dict(m_x=1.0, m_y=1e6, x_m0=25.0, y_m0=50.0, sigma0x=1.0,
                    sigma0y=0.005, p_x0=4000.0),
        schedule="auto", oracles="event_driven", instants=1571),
    "arc_oracles": Workload(
        why="eps=0.05 arc (32 instants) with event_driven and 200k-sample "
            "Monte Carlo: MC kinematics and the memory high-water mark",
        params=dict(m_x=1.0, m_y=400.0, x_m0=25.0, y_m0=50.0, sigma0x=1.0,
                    sigma0y=0.5, p_x0=190.0),
        schedule="auto", oracles="event_driven,monte_carlo:200000",
        instants=32),
    "grid_desk": Workload(
        why="eps=0.2 grid oracle at n=512, 60 Crank-Nicolson steps, 3 "
            "purities: the grid step kernel",
        params=_DESK, schedule="0.04,0.08,0.12", oracles=_DESK_GRID, instants=3),
    "grid_snapshots": Workload(
        why="eps=0.2 grid oracle, 6 one-step instants with grid purity: "
            "SVDs, per-call stepper set-up and snapshot writes",
        params=_DESK,
        schedule=",".join(f"{0.002 * k:.3f}" for k in range(1, 7)),
        oracles=_DESK_GRID, instants=6, purity_source="grid"),
}


def scenario(name: str, seed: int) -> dict:
    """Config keys of workload `name` for bench seed `seed`."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    keys = dict(w.params)
    keys["p_x0"] *= 1 + 0.002 * rng.uniform(-1, 1)
    if w.grid:
        # sigma0x sits exactly at the width gate 0.05 * min(x_m0, y_m0 - x_m0),
        # so x_m0 may only move up, with y_m0 following to keep both gaps.
        shift = 0.05 * rng.random()
        keys["x_m0"] += shift
        keys["y_m0"] += 2 * shift
    else:
        keys["x_m0"] += 0.2 * rng.uniform(-1, 1)
    keys.update(schedule=w.schedule, oracles=w.oracles, seed=seed,
                purity_source=w.purity_source)
    return keys


def config_text(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _crit5(value: float, want: float, d0: float) -> float:
    """Deviation over criterion 5's tolerance (relative, or absolute near zero)."""
    if want > MC_WIDTH_SWITCH * d0:
        return abs(value - want) / (MC_WIDTH_REL * want)
    return abs(value - want) / (MC_WIDTH_ABS * d0)


class ReferenceChecks:
    """Independent references for one generated scenario.

    `errors(rows, manifest)` returns {check: deviation / tolerance}; a value
    above one fails the run.
    """

    def __init__(self, name: str, keys: dict, config_path):
        self.workload = WORKLOADS[name]
        self.keys = keys
        self.config_path = config_path
        self._ensemble = None
        self._exact = {}

    def errors(self, rows: list[dict], manifest: dict) -> dict[str, float]:
        w = self.workload
        out = {}
        if "event_driven" in w.oracles:
            dev = manifest["oracle_checks"]["event_driven_max_p_dev"]
            out["event_driven_p"] = dev / (P_DEV_RTOL * self.keys["p_x0"])
        if w.grid:
            # both packets are still apart: the grid state is a product
            early = [r for r in rows if int(float(r["n"])) == 0]
            if not early:
                raise ValueError("no grid instant before the first collision")
            out["grid_purity"] = max(abs(float(r["grid_purity"]) - 1.0)
                                     for r in early) / GRID_PURITY_TOL
        if "monte_carlo:" in w.oracles:
            out.update(self._mc_errors(rows))
        return out

    def _mc_errors(self, rows: list[dict]) -> dict[str, float]:
        """MC widths against the rotation law, split into two checks.

        `mc_sampling`: MC widths against the exact ensemble widths, i.e. the
        same channel kinematics integrated over a deterministic quantile grid
        of initial offsets.  `rotation_law`: those exact widths against the
        rotation law d0 |cos 2 eps n|, (d0/eps) |sin 2 eps n|.  Both use
        criterion 5's rule.  Checking MC against the law directly mixes a
        seed-free first-order error of the law (1.76% at n = 15 here) with
        sampling noise, and fails on about 6% of seeds.
        """
        law_err = mc_err = 0.0
        for r in rows:
            t, n = float(r["t"]), int(float(r["n"]))
            d0, eps, (ex, ey) = self._exact_widths(t)
            law_y = d0 * abs(math.cos(2 * eps * n))
            law_x = d0 / eps * abs(math.sin(2 * eps * n))
            law_err = max(law_err, _crit5(ey, law_y, d0), _crit5(ex, law_x, d0))
            mc_err = max(mc_err, _crit5(float(r["mc_dsigma_y"]), ey, d0),
                         _crit5(float(r["mc_dsigma_x"]), ex, d0))
        return {"rotation_law": law_err, "mc_sampling": mc_err}

    def _exact_widths(self, t: float):
        """(d0, eps, (width_x, width_y)) of the exact channel ensemble at t."""
        import numpy as np
        from qbounce import classical
        from qbounce.channels import split_width
        from qbounce.cli import parse_config
        if self._ensemble is None:
            params = parse_config(self.config_path).params
            d0, _ = split_width(params)
            nd = statistics.NormalDist()
            z = np.array([nd.inv_cdf((i + 0.5) / QUANTILE_POINTS)
                          for i in range(QUANTILE_POINTS)])
            # dividing by std(z) removes the grid's own truncation of the tails
            self._ensemble = (params, d0, params.y_M0 + d0 * z, 1 / float(np.std(z)),
                              classical.collision_table(params.eps))
        params, d0, y0, scale, table = self._ensemble
        if t not in self._exact:
            x, y, _, _ = classical.channel_kinematics(t, y0, params.x_M0,
                                                      params.v_x0, table)
            self._exact[t] = (float(np.std(x)) * scale, float(np.std(y)) * scale)
        return d0, params.eps, self._exact[t]
