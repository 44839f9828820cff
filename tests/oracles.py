"""Brute-force oracles and written-out reference formulas used only by the tests.

Everything here deliberately avoids the closed-form code paths it checks:
norms and overlaps by adaptive quadrature, purity by sampling the amplitude
on a grid and squaring the reduced density matrix, assembled coefficients by
differentiating the channel integral under the integral sign.  The collision
maps and coefficient formulas are separate copies of the laws, so a change to
the package's one implementation cannot move its reference along with it.
"""

import csv
import json
import math
import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from qbounce.channels import _betas, split_width
from qbounce.classical import (ClassicalState, channel_kinematics, collision_table,
                               pair_collision_times)
from qbounce.cli import _columns_for, _fmt
from qbounce.gaussian import MassPair, QuadraticFormState, evaluate_packet
from qbounce.grid import GridField, _cn_coeffs, marginals


def masses_from_epsilon(eps: float, m_x: float = 1.0) -> MassPair:
    """The mass pair with sqrt(m_x / m_y) = eps."""
    if not 0 < eps:
        raise ValueError("epsilon must be positive")
    return MassPair(m_x=m_x, m_y=m_x / eps**2)


def pair_events(traj) -> tuple:
    """The pair collisions of a classical trajectory, in order."""
    return tuple(e for e in traj.events if e.kind == "pair")


def write_series_reference(rows: list[dict], out_dir) -> None:
    """cli.write_series by the csv and json modules (json's indenting encoder)."""
    cols = _columns_for(rows)
    with open(out_dir / "series.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for row in rows:
            w.writerow([_fmt(row[c]) for c in cols])
    payload = [{c: row[c] for c in cols} for row in rows]
    with open(out_dir / "series.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


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


def folded_speeds_exact(masses, v_x0: float, count: int) -> list[tuple[Fraction, Fraction]]:
    """Folded speeds after 0, 1, ..., count pair collisions, in exact arithmetic.

    collision_velocity_map iterated in fractions.Fraction from the exact
    values of the float masses and v_x0, heavy particle at rest: the only
    rounding left is the caller's float() of each entry.
    """
    m_x, m_y = Fraction(masses.m_x), Fraction(masses.m_y)
    exact = SimpleNamespace(m_x=m_x, m_y=m_y, total=m_x + m_y)
    speeds = [(Fraction(v_x0), Fraction(0))]
    for _ in range(count):
        speeds.append(collision_velocity_map(*speeds[-1], exact))
    return speeds


def evaluate_with_image(p, x) -> np.ndarray:
    """Antisymmetrized near-wall field phi(x) - phi(-x), exact for the hard wall."""
    x = np.asarray(x, dtype=float)
    return evaluate_packet(p, x) - evaluate_packet(p, -x)


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
    bb, ee = _betas(params, t)
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
    mx, my = state.means()
    px = (2 * state.a_xx * mx + state.a_xy * my + state.b_x).imag
    py = (2 * state.a_yy * my + state.a_xy * mx + state.b_y).imag
    return float(px), float(py)


def state_at_linear_scan(traj, t: float) -> ClassicalState:
    """ClassicalTrajectory.state_at by scanning every event in order."""
    if t < traj.initial.t:
        raise ValueError("t precedes the trajectory start")
    s = traj.initial
    for e in traj.events:
        if e.t > t:
            break
        s = e.state
    dt = t - s.t
    return ClassicalState(x=s.x + s.v_x * dt, y=s.y + s.v_y * dt,
                          v_x=s.v_x, v_y=s.v_y, t=t, n=s.n)


def counts_at_linear_scan(traj, t: float) -> tuple[int, int]:
    """(pair, wall) event counts of a trajectory up to and including time t."""
    pair = sum(1 for e in traj.events if e.kind == "pair" and e.t <= t)
    wall = sum(1 for e in traj.events if e.kind == "wall" and e.t <= t)
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
    """grid.evolve before support windows: the Strang step X(dt/2) Y(dt)
    X(dt/2) over the whole triangle, each sweep by sweep_lines_reference, the
    y sweep between two (x, y) -> (L - y, L - x) mirrors.  No norm guard."""
    h = field.h
    coeffs = []
    for gamma in (dt / (8 * masses.m_x * h * h), dt / (4 * masses.m_y * h * h)):
        cp, inv = _cn_coeffs(gamma, field.spec.n)
        coeffs.append((gamma, np.array(cp), np.array(inv)))
    (gx, cpx, invx), (gy, cpy, invy) = coeffs
    psi = field.psi
    for _ in range(steps):
        psi = sweep_lines_reference(psi, gx, cpx, invx)
        psi = sweep_lines_reference(np.ascontiguousarray(psi[::-1, ::-1].T), gy, cpy, invy)
        psi = sweep_lines_reference(np.ascontiguousarray(psi[::-1, ::-1].T), gx, cpx, invx)
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


def state_norm_quadrature(state: QuadraticFormState, span: float = 10.0,
                          n_res: int = 4000) -> float:
    """Integral of |psi|^2 over the plane on a dense grid around the centre."""
    mean = state.means()
    cov = state.covariance()
    sx, sy = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    xs = np.linspace(mean[0] - span * sx, mean[0] + span * sx, n_res)
    ys = np.linspace(mean[1] - span * sy, mean[1] + span * sy, n_res)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    logpsi = (state.a_xx * X**2 + state.a_yy * Y**2 + state.a_xy * X * Y
              + state.b_x * X + state.b_y * Y + state.log_norm)
    dens = np.exp(2 * logpsi.real)
    return float(np.trapezoid(np.trapezoid(dens, ys, axis=1), xs))


def sample_state(state: QuadraticFormState, nx: int = 400, ny: int = 400,
                 span: float = 7.0):
    """Amplitudes of the state on a grid spanning +-span marginal widths."""
    mean = state.means()
    cov = state.covariance()
    sx, sy = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    xs = np.linspace(mean[0] - span * sx, mean[0] + span * sx, nx)
    ys = np.linspace(mean[1] - span * sy, mean[1] + span * sy, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    logpsi = (state.a_xx * X**2 + state.a_yy * Y**2 + state.a_xy * X * Y
              + state.b_x * X + state.b_y * Y)
    return xs, ys, np.exp(logpsi - logpsi.real.max())


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
    bx2, _ = _betas(params, ensemble.t)
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
