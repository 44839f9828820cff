"""Brute-force 2D Schrödinger propagation on the triangle 0 < x < y < L.

The hard wall and the hard-core contact are Dirichlet boundaries: the grid is
square so the contact line x = y passes exactly through nodes, which are
pinned to zero together with x = 0 and y = L.  Time stepping is a Strang
split of Crank-Nicolson half steps per direction; each 1D solve is a Cayley
transform of a Hermitian tridiagonal operator on its row/column segment, so
every step is exactly unitary in the discrete norm and the only errors are
O(dt^2) splitting and O(h^2) dispersion.

Every x-segment starts at the wall node i = 1, so one Thomas elimination along
axis 0 solves them all at once; the anti-diagonal mirror (x, y) -> (L - y,
L - x) maps the triangle onto itself and turns the y-segments into such
x-segments, so the same routine does the y sweep.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianPacket, MassPair, QuadraticFormState

MIN_POINTS_PER_SIGMA = 8
MIN_POINTS_PER_WAVELENGTH = 8
NORM_DRIFT_LIMIT = 1e-8      # per-step unitarity guard
NORM_CHECK_EVERY = 25        # steps between two unitarity checks
# Amplitudes below this fraction of max|psi| are left out of the Schmidt
# measures.  Dropping them is a perturbation E of the (n+1) x (n+1) amplitude
# matrix with ||E||_F <= (n + 1) * SUPPORT_CUTOFF * max|psi|, and max|psi| is
# at most the largest singular value s_max, so by Weyl's inequality no
# singular value moves by more than (n + 1) * 1e-20 * s_max (5e-18 s_max at
# n = 512), below the rounding of the Gram matrix itself (about 1e-16 s_max^2
# in each squared singular value).
SUPPORT_CUTOFF = 1e-20

_SNAP_MAGIC = b"QBGRID1\x00"


@dataclass(frozen=True)
class GridSpec:
    """Square grid with n cells per axis on [0, L]; nodes at i L / n."""
    n: int
    length: float

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"grid too small: n={self.n} < 8")
        if not 0 < self.length < math.inf:
            raise ValueError(f"length must be positive and finite, got {self.length:g}")

    @property
    def h(self) -> float:
        return self.length / self.n

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.linspace(0.0, self.length, self.n + 1)
        return x, x.copy()

    def domain_mask(self) -> np.ndarray:
        """Interior triangle nodes: 0 < x_i < y_j < L strictly."""
        idx = np.arange(self.n + 1)
        return (idx[:, None] >= 1) & (idx[:, None] < idx[None, :]) \
            & (idx[None, :] <= self.n - 1)


@dataclass(frozen=True)
class GridField:
    """Complex amplitude on the triangle, zero outside the mask."""
    psi: np.ndarray
    spec: GridSpec
    t: float

    @property
    def h(self) -> float:
        return self.spec.h

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.h**2)


def _masked(psi: np.ndarray, spec: GridSpec) -> np.ndarray:
    out = np.zeros_like(psi)
    m = spec.domain_mask()
    out[m] = psi[m]
    return out


def _normalized_field(psi: np.ndarray, spec: GridSpec, t: float) -> GridField:
    psi = _masked(psi, spec)
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * spec.h**2)
    if nrm == 0:
        raise ValueError("field vanishes on the domain")
    return GridField(psi=psi / nrm, spec=spec, t=t)


def init_field(params, spec: GridSpec) -> GridField:
    """Discretized initial state with the sine cutoff enforcing the boundaries.

    Gaussian product times sin(pi x / y) Theta(x) Theta(y - x), normalized on
    the grid.  Fails hard when the grid cannot resolve the packet widths or
    the light particle's wavelength.
    """
    check_resolution(spec, (params.sigma0x, params.sigma0y), params.p_x0)
    return field_from_packets(params.packet_x(), params.packet_y(), spec)


def check_resolution(spec: GridSpec, sigmas, p_max: float) -> None:
    """Raise unless widths and the de Broglie wavelength are resolved."""
    h = spec.h
    for s in sigmas:
        if s / h < MIN_POINTS_PER_SIGMA:
            need = int(math.ceil(spec.length * MIN_POINTS_PER_SIGMA / s))
            raise ValueError(
                f"width {s:g} under-resolved: {s / h:.1f} points per sigma "
                f"< {MIN_POINTS_PER_SIGMA}; need n >= {need}")
    if p_max != 0:
        lam = 2 * math.pi / abs(p_max)
        if lam / h < MIN_POINTS_PER_WAVELENGTH:
            need = int(math.ceil(spec.length * MIN_POINTS_PER_WAVELENGTH / lam))
            raise ValueError(
                f"wavelength {lam:g} under-resolved: {lam / h:.1f} points "
                f"< {MIN_POINTS_PER_WAVELENGTH}; need n >= {need}")


def field_from_packets(px: GaussianPacket, py: GaussianPacket, spec: GridSpec,
                       cutoff: bool = True, t: float = 0.0) -> GridField:
    """Sample a product of packets on the triangle; optional sine cutoff."""
    xs, ys = spec.axes()
    x = xs[:, None]
    y = ys[None, :]
    logpsi = (-(x - px.center) ** 2 / (2 * px.width_sq) + 1j * px.momentum * x
              - (y - py.center) ** 2 / (2 * py.width_sq) + 1j * py.momentum * y)
    psi = np.exp(logpsi - logpsi.real.max())
    if cutoff:
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = psi * np.sin(math.pi * np.where(y > 0, x / np.maximum(y, 1e-300), 0.0))
    return _normalized_field(psi, spec, t)


def field_from_state(state: QuadraticFormState, spec: GridSpec,
                     t: float = 0.0) -> GridField:
    """Sample a quadratic-form state on the triangle (normalized discretely)."""
    xs, ys = spec.axes()
    x = xs[:, None]
    y = ys[None, :]
    logpsi = (state.a_xx * x**2 + state.a_yy * y**2 + state.a_xy * x * y
              + state.b_x * x + state.b_y * y)
    psi = np.exp(logpsi - logpsi.real.max())
    return _normalized_field(psi, spec, t)


# ---------------------------------------------------------------------------
# Crank-Nicolson sweeps
# ---------------------------------------------------------------------------

def _cn_coeffs(gamma: complex, n: int):
    """Shared Thomas elimination coefficients for segments starting at step 1.

    System (1 + 2 i gamma) x_k - i gamma (x_{k-1} + x_{k+1}) = r_k; cprime[m]
    and inv[m] depend only on the distance m from the segment start.  Lists
    of Python complex, so the row loops index no numpy scalars.
    """
    a = -1j * gamma
    b = 1 + 2j * gamma
    cp = np.zeros(n + 1, dtype=np.complex128)
    inv = np.zeros(n + 1, dtype=np.complex128)
    inv[1] = 1 / b
    cp[1] = a / b
    for m in range(2, n + 1):
        denom = b - a * cp[m - 1]
        inv[m] = 1 / denom
        cp[m] = a * inv[m]
    return cp.tolist(), inv.tolist()


def _sweep_lines(psi, gamma, cp, inv, out, d, row):
    """CN solve along axis 0 for every segment [1, j-1] of column j at once.

    Row i takes part only in the segments of columns i+1 ... n-1, so each row
    of the elimination touches just those.  psi must vanish outside the
    triangle; out, which must not be psi, is overwritten and does too, because
    no row writes outside it.  d (psi's shape) and row (one row) are workspace.

    Every product keeps the operand order of (d - a * d_prev) * inv and
    d - cp * x and writes into a buffer that is not one of its operands:
    numpy's complex multiply rounds with fused multiply-adds, and its loops
    for a leading scalar, a trailing scalar or an in-place operand need not
    round alike.  Sums and differences are exact per element and may alias.
    """
    n = psi.shape[0] - 1
    a = -1j * gamma
    # d = (1 - 2 i gamma) psi + i gamma (psi[i-1] + psi[i+1]), with out as workspace
    np.add(psi[:-2], psi[2:], out=d[1:-1])
    np.multiply(1j * gamma, d[1:-1], out=out[1:-1])
    np.multiply(1 - 2j * gamma, psi, out=d)
    d[1:-1] += out[1:-1]
    out.fill(0)
    for i in range(1, n - 1):
        di, r = d[i, i + 1:n], row[:n - i - 1]
        np.multiply(a, d[i - 1, i + 1:n], out=r)
        np.subtract(di, r, out=r)
        np.multiply(r, inv[i], out=di)
    for i in range(n - 2, 0, -1):
        r = row[:n - i - 1]
        np.multiply(cp[i], out[i + 1, i + 1:n], out=r)
        np.subtract(d[i, i + 1:n], r, out=out[i, i + 1:n])


def _reflect(psi):
    """The field under (x, y) -> (L - y, L - x): swaps the axes, keeps the
    triangle.  A strided view; copy it before sweeping."""
    return psi[::-1, ::-1].T


class _Stepper:
    """Precomputed sweep coefficients and workspace for one (spec, masses, dt)."""

    def __init__(self, spec: GridSpec, masses: MassPair, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        h = spec.h
        gx = dt / (8 * masses.m_x * h * h)   # half step in x
        gy = dt / (4 * masses.m_y * h * h)   # full step in y
        self.x = (gx, *_cn_coeffs(gx, spec.n))
        self.y = (gy, *_cn_coeffs(gy, spec.n))
        shape = (spec.n + 1, spec.n + 1)
        # the sweeps' elimination array and row, then the fields between sweeps
        self.work = (np.empty(shape, dtype=complex), np.empty(spec.n + 1, dtype=complex))
        self.swept = np.empty(shape, dtype=complex)
        self.mirrored = np.empty(shape, dtype=complex)

    def step(self, psi: np.ndarray) -> np.ndarray:
        """One Strang step into a new array; psi is left as it is."""
        _sweep_lines(psi, *self.x, self.swept, *self.work)
        np.copyto(self.mirrored, _reflect(self.swept))
        _sweep_lines(self.mirrored, *self.y, self.swept, *self.work)
        np.copyto(self.mirrored, _reflect(self.swept))
        out = np.empty_like(psi)
        _sweep_lines(self.mirrored, *self.x, out, *self.work)
        return out


def evolve(field: GridField, masses: MassPair, dt: float, steps: int) -> GridField:
    """Propagate the field by steps * dt; aborts if unitarity ever degrades.

    Accuracy is second order in dt and h; choose dt so the largest kinetic
    phase per step stays small (dt <~ m_x h^2 is comfortable).
    """
    stepper = _Stepper(field.spec, masses, dt)
    psi = field.psi.copy()
    norm0 = float(np.sum(np.abs(psi) ** 2))
    last, last_k = norm0, 0
    for k in range(steps):
        psi = stepper.step(psi)
        if (k + 1) % NORM_CHECK_EVERY == 0 or k == steps - 1:
            now = float(np.sum(np.abs(psi) ** 2))
            drift = abs(now - last) / (norm0 * (k + 1 - last_k))
            if drift > NORM_DRIFT_LIMIT:
                raise RuntimeError(
                    f"norm drift {drift:.2e} per step exceeds "
                    f"{NORM_DRIFT_LIMIT:.0e} at step {k + 1}: unstable configuration")
            last, last_k = now, k + 1
    return GridField(psi=psi, spec=field.spec, t=field.t + steps * dt)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _gram(psi: np.ndarray) -> np.ndarray:
    """psi^H psi on the numerical support of psi; its eigenvalues are the
    squared singular values of psi.

    Amplitudes below SUPPORT_CUTOFF * max|psi| are zeroed and the rest is cut
    to its bounding rows and columns.  Left in, the far Gaussian tails make
    the product and eigvalsh run on slow subnormal floats."""
    mag = np.abs(psi)
    keep = ~(mag < SUPPORT_CUTOFF * mag.max())    # a NaN field keeps every amplitude
    rows = np.flatnonzero(keep.any(axis=1))
    cols = np.flatnonzero(keep.any(axis=0))
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    core = np.where(keep[box], psi[box], 0)
    return core.conj().T @ core


def _purity_of_gram(g: np.ndarray) -> float:
    return float(np.vdot(g, g).real / np.trace(g).real ** 2)


def schmidt_purity(field: GridField) -> float:
    """Sum s^4 / (sum s^2)^2 over the singular values s of the amplitude
    matrix, as ||G||_F^2 / (tr G)^2 of its Gram matrix G."""
    return _purity_of_gram(_gram(field.psi))


def schmidt_measures(field: GridField) -> tuple[float, float]:
    """schmidt_purity and the entropy of the normalized Schmidt spectrum,
    both from one Gram matrix."""
    g = _gram(field.psi)
    lam = np.linalg.eigvalsh(g)
    lam = lam / lam.sum()
    lam = lam[lam > 0]          # drop rounding-level negative and underflowed weights
    return _purity_of_gram(g), float(-np.sum(lam * np.log(lam)))


def overlap(field: GridField, state: QuadraticFormState) -> complex:
    """Discrete inner product with a quadratic-form state sampled on the grid."""
    other = field_from_state(state, field.spec, t=field.t)
    return overlap_fields(field, other)


def overlap_fields(f1: GridField, f2: GridField) -> complex:
    n1 = math.sqrt(float(np.sum(np.abs(f1.psi) ** 2)))
    n2 = math.sqrt(float(np.sum(np.abs(f2.psi) ** 2)))
    return complex(np.sum(np.conj(f1.psi) * f2.psi) / (n1 * n2))


def marginals(field: GridField) -> tuple[np.ndarray, np.ndarray]:
    """Position densities over x and over y; each integrates to one."""
    h = field.h
    dens = np.abs(field.psi) ** 2
    total = dens.sum() * h * h
    return dens.sum(axis=1) * h / total, dens.sum(axis=0) * h / total


def energy(field: GridField, masses: MassPair) -> float:
    """Kinetic expectation value with one-sided zero boundaries."""
    psi = field.psi
    h = field.h
    dx = (psi[1:, :] - psi[:-1, :]) / h
    dy = (psi[:, 1:] - psi[:, :-1]) / h
    ex = np.sum(np.abs(dx) ** 2) / (2 * masses.m_x)
    ey = np.sum(np.abs(dy) ** 2) / (2 * masses.m_y)
    return float((ex + ey) * h * h / field.norm_sq)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def save_snapshot(field: GridField, path) -> None:
    """Binary snapshot: magic, n_x, n_y (int64 LE), dx, dy, t (float64 LE),
    then row-major interleaved re/im float64 pairs."""
    n = field.spec.n + 1
    with open(path, "wb") as fh:
        fh.write(_SNAP_MAGIC)
        fh.write(struct.pack("<qqddd", n, n, field.h, field.h, field.t))
        inter = np.empty((n, n, 2))
        inter[:, :, 0] = field.psi.real
        inter[:, :, 1] = field.psi.imag
        fh.write(inter.astype("<f8").tobytes(order="C"))


def load_snapshot(path) -> GridField:
    """Read back a field written by save_snapshot."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_SNAP_MAGIC))
        if magic != _SNAP_MAGIC:
            raise ValueError("not a field snapshot")
        nx, ny, dx, dy, t = struct.unpack("<qqddd", fh.read(40))
        if nx != ny:
            raise ValueError("snapshot grid is not square")
        raw = np.frombuffer(fh.read(), dtype="<f8").reshape(nx, ny, 2)
    spec = GridSpec(n=nx - 1, length=dx * (nx - 1))
    psi = raw[:, :, 0] + 1j * raw[:, :, 1]
    return GridField(psi=psi, spec=spec, t=t)


def write_marginals_csv(field: GridField, path) -> None:
    xs, _ = field.spec.axes()
    px, py = marginals(field)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["coordinate", "density_x", "density_y"])
        for i in range(len(xs)):
            w.writerow([f"{xs[i]:.17g}", f"{px[i]:.17g}", f"{py[i]:.17g}"])
