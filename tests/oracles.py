"""Brute-force oracles used only by the test suite.

Everything here deliberately avoids the closed-form code paths it checks:
norms and overlaps by adaptive quadrature, purity by sampling the amplitude
on a grid and squaring the reduced density matrix, assembled coefficients by
differentiating the channel integral under the integral sign.
"""

import numpy as np
from scipy.integrate import quad

from qbounce.classical import ClassicalState
from qbounce.gaussian import QuadraticFormState, evaluate_packet


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
    from qbounce.channels import _betas

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
