"""Brute-force oracles and written-out reference formulas used only by the tests.

Everything here deliberately avoids the closed-form code paths it checks:
norms and overlaps by adaptive quadrature, purity by sampling the amplitude
on a grid and squaring the reduced density matrix, assembled coefficients by
differentiating the channel integral under the integral sign.  The collision
maps and coefficient formulas are separate copies of the laws, so a change to
the package's one implementation cannot move its reference along with it.
The exact single-collision transforms of packets and quadratic forms (free
flight, wall mirror, pair-collision substitution) live here too: they are
criterion 8's analytic reference, and no run uses them.
"""

import cmath
import csv
import json
import math
import struct
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from qbounce.channels import ChannelEnsemble, channel_integral, split_width
from qbounce.classical import (ClassicalState, after_collision, channel_kinematics,
                               collision_angle, collision_table, ensemble_widths,
                               max_collisions)
from qbounce.gaussian import (OVERLAP_GATE, GaussianPacket, MassPair, QuadraticFormState,
                              collide_velocities, wall_tail_mass, width_param)
from qbounce.grid import GridField, _cn_coeffs, marginals


def masses_from_epsilon(eps: float, m_x: float = 1.0) -> MassPair:
    """The mass pair with sqrt(m_x / m_y) = eps."""
    if not 0 < eps:
        raise ValueError("epsilon must be positive")
    return MassPair(m_x=m_x, m_y=m_x / eps**2)


def trajectory_state(traj, i: int) -> ClassicalState:
    """Row i of a classical trajectory's columns, with plain float and int fields."""
    return ClassicalState(*(getattr(traj, name)[i].item()
                            for name in ("x", "y", "v_x", "v_y", "t", "n")))


def events(traj) -> tuple:
    """The events of a classical trajectory, in order: each its time t, its
    kind ("pair" where the pair count rises, else "wall") and the state after it."""
    return tuple(SimpleNamespace(t=traj.t[i].item(),
                                 kind="pair" if traj.n[i] > traj.n[i - 1] else "wall",
                                 state=trajectory_state(traj, i))
                 for i in range(1, len(traj.t)))


def pair_events(traj) -> tuple:
    """The pair collisions of a classical trajectory, in order."""
    return tuple(e for e in events(traj) if e.kind == "pair")


def collision_table_recursion(eps: float) -> SimpleNamespace:
    """classical.collision_table by the one-collision-at-a-time loop it replaced.

    pos(k+1) = pos(k) (v_x + v_y) / closing and t(k+1) = t(k) + 2 pos(k) /
    closing with closing = v_x(k) - v_y(k), until the closing speed is <= 0.
    """
    phi = math.atan2(2 * eps, 1 - eps * eps)
    times, pos = [0.0], [1.0]
    v_x, v_y = [1.0], [0.0]
    while v_x[-1] - v_y[-1] > 0:
        closing = v_x[-1] - v_y[-1]
        times.append(times[-1] + 2 * pos[-1] / closing)
        pos.append(pos[-1] * (v_x[-1] + v_y[-1]) / closing)
        k = len(pos) - 1
        v_x.append(math.cos(k * phi))
        v_y.append(eps * math.sin(k * phi))
    return SimpleNamespace(count=len(times) - 1, times=np.array(times), positions=np.array(pos),
                           v_x=np.array(v_x), v_y=np.array(v_y))


def write_series_reference(columns: dict, out_dir) -> None:
    """cli.write_series by the csv and json modules (json's indenting encoder):
    the columns in their order, a float as .17g and an int as str in the CSV,
    one object per row with sorted keys in the JSON."""
    names = list(columns)
    rows = [dict(zip(names, values))
            for values in zip(*(np.asarray(c).tolist() for c in columns.values()))]
    with open(out_dir / "series.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        w.writerows([format(v, ".17g") if isinstance(v, float) else str(v)
                     for v in row.values()] for row in rows)
    with open(out_dir / "series.json", "w") as fh:
        json.dump(rows, fh, indent=1, sort_keys=True)
        fh.write("\n")


def marginals_reference(field: GridField) -> tuple[np.ndarray, np.ndarray]:
    """grid.marginals with |psi|^2 formed over the whole grid; the total is
    the sum of the row sums."""
    h = field.h
    dens = np.abs(field.psi)
    dens **= 2
    px = dens.sum(axis=1)
    total = px.sum() * h * h
    return px * h / total, dens.sum(axis=0) * h / total


def write_marginals_csv_reference(field: GridField, path) -> None:
    """grid.write_marginals_csv by csv.writer (CRLF line ends), values as .17g."""
    xs, _ = field.spec.axes()
    px, py = marginals(field)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["coordinate", "density_x", "density_y"])
        for i in range(len(xs)):
            w.writerow([f"{xs[i]:.17g}", f"{px[i]:.17g}", f"{py[i]:.17g}"])


def collision_position_approx(n, y_m0: float, eps: float) -> float:
    """Asymptotic position of the n-th collision, y_m0 exp(2 n^2 eps^2)."""
    if n < 0 or n > max_collisions(eps):
        raise ValueError(f"n={n} outside [0, {max_collisions(eps)}]")
    return y_m0 * math.exp(2 * n * n * eps * eps)


def collision_time_approx(n, y_m0: float, v_x0: float, eps: float) -> float:
    """Asymptotic time of the n-th collision in the zeroth-collision convention.

    (2 y_m0 / v_x0) n [1 + eps^2 (4 n^2 / 3 + n + 1/3)]: growing positions and
    shrinking closing speed make each round trip longer than 2 y_m0 / v_x0.
    The law measures time from a fictitious zeroth collision at the heavy
    particle's initial position, so the light particle's initial half-flight
    is not part of it.
    """
    if n < 0 or n > max_collisions(eps):
        raise ValueError(f"n={n} outside [0, {max_collisions(eps)}]")
    return (2 * y_m0 / v_x0) * n * (1 + eps * eps * (4 * n * n / 3 + n + 1 / 3))


def collisions_by_time(t: float, y_m0: float, v_x0: float, eps: float) -> int:
    """Number of collisions completed by time t, by inverting the time law.

    Floor of the numerical inverse of collision_time_approx; shares that
    law's validity window and counting convention.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    n_top = max_collisions(eps)
    if t >= collision_time_approx(n_top, y_m0, v_x0, eps):
        return n_top
    lo, hi = 0, n_top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if collision_time_approx(mid, y_m0, v_x0, eps) <= t:
            lo = mid
        else:
            hi = mid
    return lo


def ensemble_at_count(params, n, t: float) -> ChannelEnsemble:
    """Ensemble at a prescribed (possibly fractional) collision count.

    Continuum evaluation of the rotation laws, used to probe the critical
    count pi/(4 eps) which falls between integer collision indices; centres
    are placed on the asymptotic reference so entanglement quantities, which
    do not depend on them, are evaluated at physically sensible positions.
    The light particle is taken to move away from the wall.
    """
    eps = params.eps
    dsigma_y0, _ = split_width(params)
    n_eff = min(n, params.n_max)
    # the folded speeds of collision_table, at a fractional count
    phi = collision_angle(eps)
    v_x, v_y = params.v_x0 * np.cos(n_eff * phi), params.v_x0 * eps * np.sin(n_eff * phi)
    y_c = collision_position_approx(n_eff, params.y_M0, eps)
    return ChannelEnsemble(
        n=n, x_center=y_c / 2, y_center=y_c,
        dsigma_y_n=ensemble_widths(n, eps, dsigma_y0).dsigma_y,
        p_xn=params.masses.m_x * v_x, p_yn=params.masses.m_y * v_y, t=t)


def axy_formula(n, eps: float, beta_x_sq: complex, beta_y_sq: complex) -> complex:
    """Cross coefficient sin(4 eps n)[beta_y^2 - eps^2 beta_x^2]/(2 eps beta_x^2 beta_y^2).

    Equals the channel integral's cross coefficient identically; zero at
    n = 0 and at the critical count where 4 eps n = pi.
    """
    return (math.sin(4 * eps * n) * (beta_y_sq - eps**2 * beta_x_sq)
            / (2 * eps * beta_x_sq * beta_y_sq))


def energy_exchange_check(t: float, params) -> bool:
    """At the critical count the diagonal coefficients swap roles.

    Checks a_xx(n_cr) = -eps^2/(2 beta_y^2) and a_yy(n_cr) = -1/(2 eps^2
    beta_x^2) to a relative 1e-8: the packets have exchanged the kinetic
    energies stored in their rest-frame momentum spreads.
    """
    rtol = 1e-8
    eps = params.eps
    e = ensemble_at_count(params, params.n_cr, t)
    state = assemble_quadratic_form(e, params)
    bx2, by2 = betas(params, t)
    want_xx = -eps**2 / (2 * by2)
    want_yy = -1 / (2 * eps**2 * bx2)
    return (abs(state.a_xx - want_xx) <= rtol * abs(want_xx)
            and abs(state.a_yy - want_yy) <= rtol * abs(want_yy))


def post_collision_momenta(p_x: float, p_y: float, masses) -> tuple[float, float]:
    """Elastic hard-core momenta after a single pair collision.

    The incoming pair must be closing (v_x > v_y).  Total momentum and kinetic
    energy are conserved exactly; with the heavy particle at rest the light one
    recoils with p_x (m_x - m_y) / (m_x + m_y).
    """
    v_x, v_y = p_x / masses.m_x, p_y / masses.m_y
    if v_x <= v_y:
        raise ValueError("pre-collision velocities must be closing (v_x > v_y)")
    m = masses.total
    p_x_new = ((masses.m_x - masses.m_y) * p_x + 2 * masses.m_x * p_y) / m
    p_y_new = (2 * masses.m_y * p_x + (masses.m_y - masses.m_x) * p_y) / m
    return p_x_new, p_y_new


def collision_velocity_map(v_x: float, v_y: float, masses) -> tuple[float, float]:
    """One pair collision followed by the wall bounce, in folded speeds.

    Takes the approach speeds (v_x toward the heavy particle, v_y away from
    the wall), applies the elastic collision and re-folds the light particle's
    recoil through the wall, so both outputs are again approach speeds.
    Conserves m_x v_x^2 + m_y v_y^2 exactly.
    """
    if v_x <= v_y:
        raise ValueError("approach speeds must be closing (v_x > v_y)")
    m = masses.total
    v_x_new = ((masses.m_y - masses.m_x) * v_x - 2 * masses.m_y * v_y) / m
    v_y_new = (2 * masses.m_x * v_x + (masses.m_y - masses.m_x) * v_y) / m
    return v_x_new, v_y_new


def _exact_masses(masses) -> SimpleNamespace:
    """The float masses as exact fractions, in the shape collision_velocity_map reads."""
    m_x, m_y = Fraction(masses.m_x), Fraction(masses.m_y)
    return SimpleNamespace(m_x=m_x, m_y=m_y, total=m_x + m_y)


def folded_speeds_exact(masses, v_x0: float, count: int) -> list[tuple[Fraction, Fraction]]:
    """Folded speeds after 0, 1, ..., count pair collisions, in exact arithmetic.

    collision_velocity_map iterated in fractions.Fraction from the exact
    values of the float masses and v_x0, heavy particle at rest: the only
    rounding left is the caller's float() of each entry.
    """
    exact = _exact_masses(masses)
    speeds = [(Fraction(v_x0), Fraction(0))]
    for _ in range(count):
        speeds.append(collision_velocity_map(*speeds[-1], exact))
    return speeds


def pair_collisions_exact(masses, x0: float, y0: float, v_x0: float) -> list[tuple[Fraction, Fraction]]:
    """(time, heavy position) of every pair collision, in exact arithmetic.

    The first is at ((y0 - x0) / v_x0, y0).  After one at (t, y) that leaves
    the folded speeds (u, w), the light particle runs to the wall and back
    while the heavy one runs on, so the next follows after dt = 2 y / (u - w)
    at y + w dt, as long as u > w.  The speeds are folded_speeds_exact's
    iteration, all of it in fractions.Fraction from the exact float inputs.
    """
    exact = _exact_masses(masses)
    t, y = (Fraction(y0) - Fraction(x0)) / Fraction(v_x0), Fraction(y0)
    u, w = collision_velocity_map(Fraction(v_x0), Fraction(0), exact)
    out = [(t, y)]
    while u > w:
        dt = 2 * y / (u - w)
        t, y = t + dt, y + w * dt
        out.append((t, y))
        u, w = collision_velocity_map(u, w, exact)
    return out


def evaluate_with_image(p, x) -> np.ndarray:
    """Antisymmetrized near-wall field phi(x) - phi(-x), exact for the hard wall."""
    x = np.asarray(x, dtype=float)
    return evaluate_packet(p, x) - evaluate_packet(p, -x)


def betas(params, t) -> tuple[complex, complex]:
    """Width parameters (beta_x^2, beta_y^2) of the original packets at t."""
    return (width_param(params.sigma0x, params.masses.m_x, t),
            width_param(params.sigma0y, params.masses.m_y, t))


def packet_norm_sq(p) -> float:
    """Closed-form integral of |phi|^2 over the whole line."""
    b = complex(p.width_sq)
    return math.exp(2 * complex(p.log_norm).real) * math.sqrt(math.pi) * abs(b) / math.sqrt(b.real)


def axx_formula(n, eps: float, beta_x_sq: complex, beta_y_sq: complex) -> complex:
    """Diagonal x coefficient of the assembled form."""
    c, s = math.cos(2 * eps * n), math.sin(2 * eps * n)
    return -(c * c / (2 * beta_x_sq) + s * s * eps**2 / (2 * beta_y_sq))


def ayy_formula(n, eps: float, beta_x_sq: complex, beta_y_sq: complex) -> complex:
    """Diagonal y coefficient of the assembled form."""
    c, s = math.cos(2 * eps * n), math.sin(2 * eps * n)
    return -(c * c / (2 * beta_y_sq) + s * s / (2 * eps**2 * beta_x_sq))


def composed_marginal_variances(params, n, t: float) -> tuple[float, float]:
    """Marginal position variances predicted by the coherent channel sum.

    The incoherent guess (classical spread plus single-packet width) is wrong
    because channels interfere; carrying the interference through the
    Gaussian integrals gives, with B = beta_x^2, E = beta_y^2, s2 = sigma0y^2,

        Var_y = |E|^2 [c^2 d0^2 Re(BE) + e2] / (2 s2 [d0^2 Re(BE) + e2])
        Var_x = |E|^2 [s^2 d0^2 Re(BE) + e2] / (2 eps^2 s2 [d0^2 Re(BE) + e2])

    where e2 = eps^2 |B|^2 s2 and (c, s) = (cos, sin)(2 eps n).
    """
    eps = params.eps
    dsigma_y0, _ = split_width(params)
    d0sq = dsigma_y0**2
    bb, ee = betas(params, t)
    c, s = math.cos(2 * eps * n), math.sin(2 * eps * n)
    re_be = (bb * ee).real
    s2 = params.sigma0y**2
    e2 = eps**2 * abs(bb) ** 2 * s2
    common = d0sq * re_be + e2
    var_y = abs(ee) ** 2 * (c * c * d0sq * re_be + e2) / (2 * s2 * common)
    var_x = abs(ee) ** 2 * (s * s * d0sq * re_be + e2) / (2 * eps**2 * s2 * common)
    return var_x, var_y


def moments(field) -> dict:
    """Means and variances of a grid field's position densities."""
    xs, ys = field.spec.axes()
    px, py = marginals(field)
    h = field.h
    mx = float(np.sum(xs * px) * h)
    my = float(np.sum(ys * py) * h)
    vx = float(np.sum((xs - mx) ** 2 * px) * h)
    vy = float(np.sum((ys - my) ** 2 * py) * h)
    return {"mean_x": mx, "mean_y": my, "var_x": vx, "var_y": vy}


def momentum_means(state: QuadraticFormState) -> tuple[float, float]:
    """(<p_x>, <p_y>) = Im of the log-gradient at the packet centre."""
    mx, my = means(state)
    px = (2 * state.a_xx * mx + state.a_xy * my + state.b_x).imag
    py = (2 * state.a_yy * my + state.a_xy * mx + state.b_y).imag
    return float(px), float(py)


def state_at_linear_scan(traj, t: float) -> ClassicalState:
    """ClassicalTrajectory.state_at by scanning every event in order."""
    s = trajectory_state(traj, 0)
    if t < s.t:
        raise ValueError("t precedes the trajectory start")
    for e in events(traj):
        if e.t > t:
            break
        s = e.state
    dt = t - s.t
    return ClassicalState(x=s.x + s.v_x * dt, y=s.y + s.v_y * dt,
                          v_x=s.v_x, v_y=s.v_y, t=t, n=s.n)


def counts_at_linear_scan(traj, t: float) -> tuple[int, int]:
    """(pair, wall) event counts of a trajectory up to and including time t."""
    pair = sum(1 for e in events(traj) if e.kind == "pair" and e.t <= t)
    wall = sum(1 for e in events(traj) if e.kind == "wall" and e.t <= t)
    return pair, wall


def channel_kinematics_dense(t: float, y_m0, x_m0: float, v_x0: float, table):
    """classical.channel_kinematics from the full (channels, K) event-time arrays.

    Counts every pair collision and wall bounce with time <= t directly,
    instead of searching for the latest collision.
    """
    y_m0 = np.atleast_1d(np.asarray(y_m0, dtype=float))
    times = pair_collision_times(y_m0, x_m0, v_x0, table)     # (..., K)
    k = (times <= t).sum(axis=-1)
    before = k == 0
    ki = np.maximum(k - 1, 0)
    pos_k = y_m0 * table.positions[1:][ki]
    t_k = np.take_along_axis(times, ki[..., None], axis=-1)[..., 0]
    vx_k = v_x0 * table.v_x[1:][ki]
    vy_k = v_x0 * table.v_y[1:][ki]
    tau = t - t_k
    y_m = np.where(before, y_m0, pos_k + tau * vy_k)
    x_m = np.where(before, x_m0 + v_x0 * t, np.abs(pos_k - tau * vx_k))
    with np.errstate(divide="ignore"):
        wall_times = times + (y_m0[..., None] * table.positions[1:]
                              / (v_x0 * table.v_x[1:]))
    walls = ((times <= t) & (wall_times <= t) & (table.v_x[1:] > 0)).sum(axis=-1)
    return x_m, y_m, k, walls


def channel_event_times(y_m0, x_m0: float, v_x0: float, table) -> np.ndarray:
    """Sorted pair-collision and wall-bounce times of the channels y_m0, each
    bounce timed as channel_kinematics times the one after its collision."""
    y_m0 = np.atleast_1d(np.asarray(y_m0, dtype=float))
    pair = pair_collision_times(y_m0, x_m0, v_x0, table)
    bounce = table.v_x[1:] > 0
    wall = pair[:, bounce] + (y_m0[:, None] * table.positions[1:][bounce]
                              / (v_x0 * table.v_x[1:][bounce]))
    return np.sort(np.concatenate([pair.ravel(), wall.ravel()]))


def monte_carlo_spreads(times, n_samples: int, seed: int, *, y_M0: float,
                        dsigma_y0: float, x_M0: float, v_x0: float, eps: float):
    """np.std(ddof=1) of x_m and y_m over monte_carlo_positions' samples at
    each instant, one instant at a time: two arrays shaped like times.  Each
    position is the sample's on its leg at channel_kinematics' pair count,
    written out and evaluated in np.longdouble: after a late last event they lie near 1e4
    and beyond, and float64 rounding of a few samples' positions alone moves
    their spread by about an ulp of that, more than the tests allow."""
    wide = np.longdouble
    table = collision_table(eps)
    y0 = np.random.default_rng(seed).normal(y_M0, dsigma_y0, size=n_samples)
    x0, v0, y0_wide = wide(x_M0), wide(v_x0), y0.astype(wide)
    spreads = []
    for t in times:
        k = channel_kinematics(float(t), y0, x_M0, v_x0, table)[2]
        t_k, pos_k, vx_k, vy_k, _ = after_collision(np.maximum(k - 1, 0), y0_wide, x0, v0, table)
        tau = wide(t) - t_k
        x_m = np.where(k == 0, x0 + v0 * wide(t), np.abs(pos_k - tau * vx_k))
        y_m = np.where(k == 0, y0_wide, pos_k + tau * vy_k)
        spreads.append([np.std(pos, ddof=1) for pos in (x_m, y_m)])
    return np.array(spreads, dtype=float).reshape(-1, 2).T


def monte_carlo_positions(times, n_samples: int, seed: int, *, y_M0: float,
                          dsigma_y0: float, x_M0: float, v_x0: float,
                          eps: float):
    """Ensemble positions at the given instants for Gaussian-distributed y_m0.

    Returns (x_m, y_m, counts) arrays of shape (n_samples, len(times)).
    Samples are independent channels run through the exact kinematics with a
    deterministic seed; cli.compute_series draws the same samples and keeps
    only their two spreads per instant.  The arrays are transposed views of
    instant-major
    (len(times), n_samples) buffers, so column j, one instant's ensemble,
    is contiguous in memory.
    """
    rng = np.random.default_rng(seed)
    y0 = rng.normal(y_M0, dsigma_y0, size=n_samples)
    table = collision_table(eps)
    xs = np.empty((len(times), n_samples))
    ys = np.empty((len(times), n_samples))
    ns = np.empty((len(times), n_samples), dtype=int)
    for j, t in enumerate(times):
        xs[j], ys[j], ns[j], _ = channel_kinematics(float(t), y0, x_M0, v_x0, table)
    return xs.T, ys.T, ns.T


def channel_coords(y_m0: float, t: float, *, x_M0: float, y_M0: float,
                   v_x0: float, eps: float) -> tuple[float, float]:
    """Channel coordinates from the linear scaling law around the reference.

    x_m = x_M(t) + (sin(2 eps n)/eps) (y_m0 - y_M0),
    y_m = y_M(t) + cos(2 eps n) (y_m0 - y_M0),
    with the reference trajectory and n taken from the exact kinematics.
    The instant must be between collisions for both channels.
    """
    table = collision_table(eps)
    x_ref, y_ref, n_ref, w_ref = channel_kinematics(t, np.array([y_M0]), x_M0, v_x0, table)
    _, _, n_ch, w_ch = channel_kinematics(t, np.array([y_m0]), x_M0, v_x0, table)
    if n_ref[0] != n_ch[0] or w_ref[0] != w_ch[0]:
        raise ValueError("mixed-phase instant: channels straddle an event")
    n = float(n_ref[0])
    off = y_m0 - y_M0
    return (float(x_ref[0]) + math.sin(2 * eps * n) / eps * off,
            float(y_ref[0]) + math.cos(2 * eps * n) * off)


def cn_lines_dense(psi: np.ndarray, gamma: float, axis: int) -> np.ndarray:
    """One Crank-Nicolson sweep over the triangle, one dense solve per segment.

    Along axis 0 the segment of column j is rows 1 ... j-1, along axis 1 the
    segment of row i is columns i+1 ... n-1; each solves
    (I + i gamma T) x = (I - i gamma T) psi with T = tridiag(-1, 2, -1).
    """
    n = psi.shape[0] - 1
    out = np.zeros_like(psi)
    for k in range(1, n):
        idx = np.arange(1, k) if axis == 0 else np.arange(k + 1, n)
        m = len(idx)
        if m == 0:
            continue
        t = 2 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
        line = (idx, k) if axis == 0 else (k, idx)
        rhs = (np.eye(m) - 1j * gamma * t) @ psi[line]
        out[line] = np.linalg.solve(np.eye(m) + 1j * gamma * t, rhs)
    return out


def sweep_lines_reference(psi, gamma, cp, inv):
    """grid._sweep_lines with a fresh array for every intermediate.

    Same arithmetic in the same operand order; the package's buffered sweep
    must reproduce it bit for bit.
    """
    n = psi.shape[0] - 1
    a = -1j * gamma
    d = (1 - 2j * gamma) * psi
    d[1:-1] += 1j * gamma * (psi[:-2] + psi[2:])
    for i in range(1, n - 1):
        s = slice(i + 1, n)
        d[i, s] = (d[i, s] - a * d[i - 1, s]) * inv[i]
    out = np.zeros_like(psi)
    for i in range(n - 2, 0, -1):
        s = slice(i + 1, n)
        out[i, s] = d[i, s] - cp[i] * out[i + 1, s]
    return out


def evolve_reference(field, masses, dt: float, steps: int):
    """grid.evolve before support windows: the Strang splitting Y(dt/2)
    [X(dt) Y(dt)]^(steps-1) X(dt) Y(dt/2) over the whole triangle, each sweep
    by sweep_lines_reference, each y sweep between two (x, y) -> (L - y,
    L - x) mirrors.  No norm guard."""
    h = field.h
    gx, gy = dt / (4 * masses.m_x * h * h), dt / (4 * masses.m_y * h * h)
    x, y, y_half = ((g, *map(np.array, _cn_coeffs(g, field.spec.n))) for g in (gx, gy, gy / 2))

    def sweep_y(psi, coeffs):
        mirrored = np.ascontiguousarray(psi[::-1, ::-1].T)
        return np.ascontiguousarray(sweep_lines_reference(mirrored, *coeffs)[::-1, ::-1].T)

    psi = field.psi
    for k in range(steps):
        psi = sweep_lines_reference(sweep_y(psi, y if k else y_half), *x)
    if steps:
        psi = sweep_y(psi, y_half)
    return GridField(psi=psi, spec=field.spec, t=field.t + steps * dt)


def save_snapshot_reference(field, path) -> None:
    """grid.save_snapshot as first written: re and im interleaved through a
    (n, n, 2) float array, then converted and copied to bytes."""
    n = field.spec.n + 1
    with open(path, "wb") as fh:
        fh.write(b"QBGRID1\x00")
        fh.write(struct.pack("<qqddd", n, n, field.h, field.h, field.t))
        inter = np.empty((n, n, 2))
        inter[:, :, 0] = field.psi.real
        inter[:, :, 1] = field.psi.imag
        fh.write(inter.astype("<f8").tobytes(order="C"))


def purity_by_full_gram(psi: np.ndarray) -> float:
    """||G||_F^2 / (tr G)^2 of the Gram matrix G = psi^H psi of every amplitude."""
    g = psi.conj().T @ psi
    return float(np.vdot(g, g).real / np.trace(g).real ** 2)


def schmidt_by_svd(psi: np.ndarray) -> tuple[float, float]:
    """Purity and entropy of the Schmidt spectrum from the singular values."""
    s2 = np.linalg.svd(psi, compute_uv=False) ** 2
    purity = float(np.sum(s2 * s2) / np.sum(s2) ** 2)
    lam = s2 / s2.sum()
    lam = lam[lam > 0]
    return purity, float(-np.sum(lam * np.log(lam)))


def packet_norm_quadrature(packet, span: float = 40.0) -> float:
    """Integral of |phi|^2 by adaptive quadrature."""
    c = packet.center
    val, _ = quad(lambda x: abs(evaluate_packet(packet, x)) ** 2,
                  c - span, c + span, limit=400)
    return val


def halfline_norm_quadrature(func, lo: float, hi: float) -> float:
    val, _ = quad(lambda x: abs(func(x)) ** 2, lo, hi, limit=400)
    return val


def sample_state(state: QuadraticFormState, nx: int = 400, ny: int = 400,
                 span: float = 7.0, scaled: bool = True):
    """Amplitudes of the state (scaled as evaluate scales them) on a grid
    spanning +-span marginal widths."""
    (mx, my), cov = means(state), covariance(state)
    sx, sy = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    xs = np.linspace(mx - span * sx, mx + span * sx, nx)
    ys = np.linspace(my - span * sy, my + span * sy, ny)
    return xs, ys, evaluate(state, xs[:, None], ys[None, :], scaled)


def state_norm_quadrature(state: QuadraticFormState, span: float = 10.0,
                          n_res: int = 4000) -> float:
    """Integral of |psi|^2 over the plane on a dense grid around the centre."""
    xs, ys, psi = sample_state(state, n_res, n_res, span, scaled=False)
    return float(np.trapezoid(np.trapezoid(np.abs(psi) ** 2, ys, axis=1), xs))


def purity_by_quadrature(state: QuadraticFormState, n: int = 400,
                         span: float = 7.0) -> float:
    """Purity from the reduced density matrix built by discretized quadrature.

    rho_x = psi psi^dagger dy on the sampled amplitude matrix; the purity
    Tr rho^2 / (Tr rho)^2 is evaluated by matrix squaring.
    """
    _, _, psi = sample_state(state, n, n, span)
    rho = psi @ psi.conj().T
    tr = np.trace(rho).real
    tr2 = np.trace(rho @ rho).real
    return float(tr2 / tr**2)


def assembled_coefficients_by_quadrature(params, ensemble, d0: float):
    """Quadratic-form coefficients of the channel superposition by quadrature.

    The channel integral over the initial offset w is differentiated under
    the integral sign; the log-derivatives at the distribution centre give
    the five coefficients without any closed-form Gaussian integration.
    """
    eps = params.eps
    bx2, _ = betas(params, ensemble.t)
    bt2 = eps**2 * bx2
    fx = np.sin(2 * eps * ensemble.n) / eps
    fy = np.cos(2 * eps * ensemble.n)
    x0, y0 = ensemble.x_center, ensemble.y_center
    pxn, pyn = ensemble.p_xn, ensemble.p_yn

    def integrand(w, x, y, deriv):
        g = np.exp(-w * w / (2 * d0**2))
        ex = -(x - x0 - fx * w) ** 2 / (2 * bx2) + 1j * pxn * x
        ey = -(y - y0 - fy * w) ** 2 / (2 * bt2) + 1j * pyn * y
        f = g * np.exp(ex + ey)
        dx = -(x - x0 - fx * w) / bx2 + 1j * pxn
        dy = -(y - y0 - fy * w) / bt2 + 1j * pyn
        return {"": f, "x": f * dx, "y": f * dy,
                "xx": f * (dx * dx - 1 / bx2),
                "yy": f * (dy * dy - 1 / bt2),
                "xy": f * dx * dy}[deriv]

    lim = 12 * d0
    vals = {}
    for deriv in ("", "x", "y", "xx", "yy", "xy"):
        re, _ = quad(lambda w: integrand(w, x0, y0, deriv).real, -lim, lim,
                     limit=300, epsabs=1e-13, epsrel=1e-12)
        im, _ = quad(lambda w: integrand(w, x0, y0, deriv).imag, -lim, lim,
                     limit=300, epsabs=1e-13, epsrel=1e-12)
        vals[deriv] = re + 1j * im
    qx = vals["x"] / vals[""]
    qy = vals["y"] / vals[""]
    qxx = vals["xx"] / vals[""] - qx * qx
    qyy = vals["yy"] / vals[""] - qy * qy
    qxy = vals["xy"] / vals[""] - qx * qy
    a_xx, a_yy, a_xy = qxx / 2, qyy / 2, qxy
    b_x = qx - 2 * a_xx * x0 - a_xy * y0
    b_y = qy - 2 * a_yy * y0 - a_xy * x0
    return {"a_xx": a_xx, "a_yy": a_yy, "a_xy": a_xy, "b_x": b_x, "b_y": b_y}


def ks_distance_to_gaussian(samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance to the fitted normal distribution."""
    from math import erf, sqrt

    x = np.sort(samples)
    mu, sd = x.mean(), x.std(ddof=1)
    z = (x - mu) / (sd * sqrt(2.0))
    cdf = 0.5 * (1 + np.array([erf(v) for v in z]))
    n = len(x)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(cdf - ecdf_hi)), np.max(np.abs(cdf - ecdf_lo))))


def pair_collision_times(y_m0, x_m0: float, v_x0: float, table) -> np.ndarray:
    """Actual times of collisions 1..K for initial heavy position(s) y_m0."""
    y_m0 = np.asarray(y_m0, dtype=float)[..., None]
    return after_collision(np.arange(table.count), y_m0, x_m0, v_x0, table)[0]


def assemble_quadratic_form(e: ChannelEnsemble, params) -> QuadraticFormState:
    """channels.channel_integral at e.t, normalized."""
    return normalized(channel_integral(e, params))


# ---------------------------------------------------------------------------
# single-collision Gaussian algebra: packets and quadratic forms transformed
# exactly, the analytic reference of criterion 8 and of the grid tests
# ---------------------------------------------------------------------------

def free_evolve(p: GaussianPacket, dt: float) -> GaussianPacket:
    """Advance a packet by dt of free flight (exact, norm preserving)."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return p
    new_width = p.width_sq + 1j * dt / p.mass
    # d(log N)/dt = -i/(2 m width_sq) - i p^2/(2 m), integrated in closed form
    dlog = (-0.5 * cmath.log(new_width / p.width_sq)
            - 0.5j * p.momentum**2 * dt / p.mass)
    return GaussianPacket(center=p.center + p.momentum / p.mass * dt,
                          width_sq=new_width, momentum=p.momentum,
                          mass=p.mass, log_norm=p.log_norm + dlog)


def wall_reflect(p: GaussianPacket) -> GaussianPacket:
    """The reflected wave -phi(-x) of a wall-bound packet: its mirror image,
    with the antisymmetrization sign tracked as i pi in log_norm."""
    if p.momentum >= 0:
        raise ValueError("packet must approach the wall (momentum < 0)")
    return replace(p, center=-p.center, momentum=-p.momentum,
                   log_norm=p.log_norm + 1j * math.pi)


def evaluate_packet(p: GaussianPacket, x) -> np.ndarray:
    """Pointwise amplitude phi(x); broadcasts over array input."""
    x = np.asarray(x, dtype=float)
    return np.exp(-(x - p.center) ** 2 / (2 * p.width_sq)
                  + 1j * p.momentum * x + p.log_norm)


def density_overlap(p1: GaussianPacket, p2: GaussianPacket) -> float:
    """Bhattacharyya overlap of the two position densities (1 when identical)."""
    v1, v2 = p1.density_variance, p2.density_variance
    pref = math.sqrt(2 * math.sqrt(v1 * v2) / (v1 + v2))
    return pref * math.exp(-(p1.center - p2.center) ** 2 / (4 * (v1 + v2)))


def concentration_matrix(state: QuadraticFormState) -> np.ndarray:
    """M with |psi|^2 = exp{-z^T M z + 2 Re(b).z + 2 Re log_norm}."""
    return np.array([[-2 * complex(state.a_xx).real, -complex(state.a_xy).real],
                     [-complex(state.a_xy).real, -2 * complex(state.a_yy).real]])


def means(state: QuadraticFormState) -> tuple[float, float]:
    """Position expectation values (<x>, <y>)."""
    mu = np.linalg.solve(concentration_matrix(state), np.real([state.b_x, state.b_y]))
    return float(mu[0]), float(mu[1])


def covariance(state: QuadraticFormState) -> np.ndarray:
    """Position covariance matrix of |psi|^2."""
    return np.linalg.inv(concentration_matrix(state)) / 2


def evaluate(state: QuadraticFormState, x, y, scaled: bool = False) -> np.ndarray:
    """Amplitude of the quadratic-form state at (x, y), broadcast; scaled divides
    it by its largest magnitude there.  The tests' one copy of the exponent."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    logpsi = (state.a_xx * x**2 + state.a_yy * y**2 + state.a_xy * x * y
              + state.b_x * x + state.b_y * y + state.log_norm)
    return np.exp(logpsi - logpsi.real.max() if scaled else logpsi)


def log_norm_sq(state: QuadraticFormState) -> float:
    """log of the squared L2 norm, integrated in closed form over the plane."""
    m = concentration_matrix(state)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    v = np.real([state.b_x, state.b_y])
    shift = float(v @ np.linalg.solve(m, v))
    return (math.log(math.pi) - 0.5 * math.log(det) + shift
            + 2 * complex(state.log_norm).real)


def normalized(state: QuadraticFormState) -> QuadraticFormState:
    """Rescale log_norm so the state has unit L2 norm."""
    return replace(state, log_norm=state.log_norm - 0.5 * log_norm_sq(state))


def substitute_linear(state: QuadraticFormState, mat) -> QuadraticFormState:
    """Replace (x, y) by (a x + b y, c x + d y) inside the quadratic form."""
    (a, b), (c, d) = mat
    return QuadraticFormState(
        a_xx=state.a_xx * a * a + state.a_yy * c * c + state.a_xy * a * c,
        a_yy=state.a_xx * b * b + state.a_yy * d * d + state.a_xy * b * d,
        a_xy=2 * state.a_xx * a * b + 2 * state.a_yy * c * d + state.a_xy * (a * d + b * c),
        b_x=state.b_x * a + state.b_y * c,
        b_y=state.b_x * b + state.b_y * d,
        log_norm=state.log_norm,
    )


def product_form(px: GaussianPacket, py: GaussianPacket) -> QuadraticFormState:
    """Quadratic form of the product state phi_x(x) phi_y(y)."""
    bx2, by2 = px.width_sq, py.width_sq
    return QuadraticFormState(
        a_xx=-1 / (2 * bx2),
        a_yy=-1 / (2 * by2),
        a_xy=0.0,
        b_x=px.center / bx2 + 1j * px.momentum,
        b_y=py.center / by2 + 1j * py.momentum,
        log_norm=(px.log_norm + py.log_norm
                  - px.center**2 / (2 * bx2) - py.center**2 / (2 * by2)),
    )


def collision_matrix(masses: MassPair) -> tuple[tuple[float, float], tuple[float, float]]:
    """Substitution matrix of the hard-core pair collision in (x, y).

    Flipping the relative coordinate at fixed centre of mass is the same
    linear map as collide_velocities, so its images of (1, 0) and (0, 1) are
    the columns; the matrix is an involution with determinant -1.
    """
    a, c = collide_velocities(1.0, 0.0, masses)
    b, d = collide_velocities(0.0, 1.0, masses)
    return (a, b), (c, d)


def collide_gaussians(px: GaussianPacket, py: GaussianPacket,
                      masses: MassPair, check: bool = True) -> QuadraticFormState:
    """Two-particle state right after a hard-core collision of two packets.

    Valid only between collisions: the packets must be well separated from
    each other and from the wall (gate OVERLAP_GATE), so the instantaneous
    coordinate-swap rule applies.  If m_x width_x^2 = m_y width_y^2 the cross
    coefficient of the result vanishes and the state stays a product.
    """
    if not math.isclose(px.mass, masses.m_x) or not math.isclose(py.mass, masses.m_y):
        raise ValueError("packet masses do not match the mass pair")
    if check:
        ov = density_overlap(px, py)
        if ov > OVERLAP_GATE:
            raise ValueError(f"packets overlap too much for an instantaneous "
                             f"collision snapshot ({ov:.2e} > {OVERLAP_GATE:.0e})")
        tail = max(wall_tail_mass(px), wall_tail_mass(py))
        if tail > OVERLAP_GATE:
            raise ValueError(f"packet tail penetrates the wall "
                             f"({tail:.2e} > {OVERLAP_GATE:.0e})")
    out = substitute_linear(product_form(px, py), collision_matrix(masses))
    # antisymmetrization in the relative coordinate flips the global sign
    return replace(out, log_norm=out.log_norm + 1j * math.pi)


def normalized_field(psi: np.ndarray, spec) -> GridField:
    """psi zeroed off the triangle and normalized on the grid, at t = 0."""
    psi = np.where(spec.domain_mask(), psi, 0)
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * spec.h**2)
    if nrm == 0:
        raise ValueError("field vanishes on the domain")
    return GridField(psi=psi / nrm, spec=spec, t=0.0)


def field_from_packets_reference(px: GaussianPacket, py: GaussianPacket, spec,
                                 cutoff: bool = True) -> GridField:
    """grid.field_from_packets as one expression, each step into a new array."""
    xs, ys = spec.axes()
    x = xs[:, None]
    y = ys[None, :]
    logpsi = (-(x - px.center) ** 2 / (2 * px.width_sq) + 1j * px.momentum * x
              - (y - py.center) ** 2 / (2 * py.width_sq) + 1j * py.momentum * y)
    psi = np.exp(logpsi - logpsi.real.max())
    if cutoff:
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = psi * np.sin(math.pi * np.where(y > 0, x / np.maximum(y, 1e-300), 0.0))
    return normalized_field(psi, spec)


def field_from_state(state: QuadraticFormState, spec) -> GridField:
    """A quadratic-form state sampled on the triangle, normalized on the grid."""
    xs, ys = spec.axes()
    return normalized_field(evaluate(state, xs[:, None], ys[None, :], scaled=True), spec)


def norm_sq(field: GridField) -> float:
    """Discrete norm squared, sum |psi|^2 h^2."""
    return float(np.sum(np.abs(field.psi) ** 2) * field.h**2)


def overlap(field: GridField, state: QuadraticFormState) -> complex:
    """Discrete inner product with a quadratic-form state sampled on the grid."""
    return overlap_fields(field, field_from_state(state, field.spec))


def overlap_fields(f1: GridField, f2: GridField) -> complex:
    """Discrete inner product of two fields, each divided by its norm."""
    n1 = math.sqrt(float(np.sum(np.abs(f1.psi) ** 2)))
    n2 = math.sqrt(float(np.sum(np.abs(f2.psi) ** 2)))
    return complex(np.sum(np.conj(f1.psi) * f2.psi) / (n1 * n2))


def energy(field: GridField, masses) -> float:
    """Kinetic expectation value with one-sided zero boundaries."""
    psi = field.psi
    h = field.h
    dx = (psi[1:, :] - psi[:-1, :]) / h
    dy = (psi[:, 1:] - psi[:, :-1]) / h
    ex = np.sum(np.abs(dx) ** 2) / (2 * masses.m_x)
    ey = np.sum(np.abs(dy) ** 2) / (2 * masses.m_y)
    return float((ex + ey) * h * h / norm_sq(field))
