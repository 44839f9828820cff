"""Brute-force 2D Schrödinger propagation on the triangle 0 < x < y < L.

The hard wall and the hard-core contact are Dirichlet boundaries: the grid is
square so the contact line x = y passes exactly through nodes, which are
pinned to zero together with x = 0 and y = L.  Time stepping is a Strang
split of Crank-Nicolson half steps per direction; each 1D solve is a Cayley
transform of a Hermitian tridiagonal operator on its row/column segment, so
the step is unitary in the discrete norm.  Its errors are O(dt^2) splitting,
O(h^2) dispersion and the truncation to the field's support window, which
drops only amplitudes below about SUPPORT_CUTOFF * max|psi| (bound next to
the constant).

Every x-segment starts at the wall node i = 1, so one Thomas elimination along
axis 0 solves them all at once; the anti-diagonal mirror (x, y) -> (L - y,
L - x) maps the triangle onto itself and turns the y-segments into such
x-segments, so the same routine does the y sweep.  Each step runs the sweeps
on the rows and columns where the field is, and leaves the rest exactly zero.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianPacket, MassPair

MIN_POINTS_PER_SIGMA = 8
MIN_POINTS_PER_WAVELENGTH = 8
NORM_DRIFT_LIMIT = 1e-8      # per-step unitarity guard
NORM_CHECK_EVERY = 25        # steps between two unitarity checks
# Amplitudes below this fraction of max|psi| are left out of the Schmidt
# measures and of the grid step.
# - Schmidt measures.  Dropping them is a perturbation E of the (n+1) x (n+1)
#   amplitude matrix with ||E||_F <= (n + 1) * SUPPORT_CUTOFF * max|psi|, and
#   max|psi| is at most the largest singular value s_max, so by Weyl's
#   inequality no singular value moves by more than (n + 1) * 1e-20 * s_max
#   (5e-18 s_max at n = 512), below the rounding of the Gram matrix itself
#   (about 1e-16 s_max^2 in each squared singular value).
# - Step.  A step sweeps only the bounding box of the amplitudes at or above
#   the cutoff, padded along each sweep's axis by the M cells with
#   |cp|^M < SUPPORT_CUTOFF, cp being the elimination factor, which damps a
#   line's solution by |cp| per cell.  A sweep thus drops the input outside
#   the window and the solution's continuation past it, each amplitude below
#   about SUPPORT_CUTOFF * max|psi|: ||E||_F <~ 2 (n + 1) SUPPORT_CUTOFF
#   max|psi| per sweep.  The sweeps are unitary, so these errors add up over
#   the steps without growing: after K steps the field is within about
#   6 K (n + 1) SUPPORT_CUTOFF ||psi|| of the whole-triangle step (1.2e-13
#   ||psi|| after criterion 8's 4,000 steps at n = 512).  Measured on the
#   desk field at n = 512: 1.2e-25 max|psi| after 60 steps.
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


def _normalized_field(psi: np.ndarray, spec: GridSpec) -> GridField:
    """psi zeroed off the triangle and normalized on the grid, at t = 0."""
    psi = np.where(spec.domain_mask(), psi, 0)
    nrm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * spec.h**2)
    if nrm == 0:
        raise ValueError("field vanishes on the domain")
    return GridField(psi=psi / nrm, spec=spec, t=0.0)


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
                       cutoff: bool = True) -> GridField:
    """Sample a product of packets on the triangle at t = 0; optional sine
    cutoff (init_field's default; perfbench/tracer.py passes it by keyword)."""
    xs, ys = spec.axes()
    x = xs[:, None]
    y = ys[None, :]
    logpsi = (-(x - px.center) ** 2 / (2 * px.width_sq) + 1j * px.momentum * x
              - (y - py.center) ** 2 / (2 * py.width_sq) + 1j * py.momentum * y)
    psi = np.exp(logpsi - logpsi.real.max())
    if cutoff:
        with np.errstate(divide="ignore", invalid="ignore"):
            psi = psi * np.sin(math.pi * np.where(y > 0, x / np.maximum(y, 1e-300), 0.0))
    return _normalized_field(psi, spec)


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


def _margin(cp) -> int:
    """Smallest M with max|cp|^M < SUPPORT_CUTOFF: the cells over which the
    elimination damps a line's solution below the cutoff."""
    c = max(map(abs, cp))
    return math.floor(math.log(SUPPORT_CUTOFF) / math.log(c)) + 1


def _triangle(n: int) -> tuple[range, range]:
    """The window of the whole triangle: rows 1 ... n-2, columns 2 ... n-1."""
    return range(1, n - 1), range(2, n)


def _box(rows: range, cols: range) -> tuple[slice, slice]:
    return np.s_[rows.start:rows.stop, cols.start:cols.stop]


def _support_box(keep: np.ndarray) -> tuple[range, range]:
    """The bounding rows and columns of the True entries of keep."""
    (r0, r1), (c0, c1) = (np.flatnonzero(keep.any(axis=axis))[[0, -1]] for axis in (1, 0))
    return range(r0, r1 + 1), range(c0, c1 + 1)


def _mirror(window: tuple[range, range], n: int) -> tuple[range, range]:
    """The window under the (x, y) -> (L - y, L - x) reflection."""
    rows, cols = window
    return (range(n + 1 - cols.stop, n + 1 - cols.start),
            range(n + 1 - rows.stop, n + 1 - rows.start))


def _sweep_lines(psi, gamma, cp, inv, out, d, row, rows, cols):
    """CN solve along axis 0 for every segment [1, j-1] of column j in cols,
    on the rows of the window alone.

    Row i takes part only in the segments of columns i+1 ... n-1, so each row
    of the elimination touches just those inside cols.  The forward pass
    starts at rows.start as if every row before it were zero, and the back
    substitution starts at rows.stop - 1 as if row rows.stop of the solution
    were; over the whole triangle (_triangle) both hold exactly.  psi is read
    on rows.start - 1 ... rows.stop and cols, and must vanish outside the
    triangle there.  out, which must not be psi, is written on rows.start ...
    rows.stop and cols only (zero off the triangle and on the last of those
    rows).  d (psi's shape) and row (one row) are workspace.

    Every product keeps the operand order of (d - a * d_prev) * inv and
    d - cp * x and writes into a buffer that is not one of its operands:
    numpy's complex multiply rounds with fused multiply-adds, and its loops
    for a leading scalar, a trailing scalar or an in-place operand need not
    round alike.  Sums and differences are exact per element and may alias.
    """
    r0, r1 = rows.start, rows.stop
    c0, c1 = cols.start, cols.stop
    a = -1j * gamma
    # d = (1 - 2 i gamma) psi + i gamma (psi[i-1] + psi[i+1]), with out as workspace
    box = _box(rows, cols)
    ws = out[box]
    np.add(psi[r0 - 1:r1 - 1, c0:c1], psi[r0 + 1:r1 + 1, c0:c1], out=d[box])
    np.multiply(1j * gamma, d[box], out=ws)
    np.multiply(1 - 2j * gamma, psi[box], out=d[box])
    d[box] += ws
    d[r0 - 1, c0:c1] = 0
    out[r0:r1 + 1, c0:c1] = 0
    for i in rows:
        s = max(i + 1, c0)
        di, r = d[i, s:c1], row[:c1 - s]
        np.multiply(a, d[i - 1, s:c1], out=r)
        np.subtract(di, r, out=r)
        np.multiply(r, inv[i], out=di)
    for i in reversed(rows):
        s = max(i + 1, c0)
        r = row[:c1 - s]
        np.multiply(cp[i], out[i + 1, s:c1], out=r)
        np.subtract(d[i, s:c1], r, out=out[i, s:c1])


def _reflect(psi):
    """The field under (x, y) -> (L - y, L - x): swaps the axes, keeps the
    triangle.  A strided view; copy it before sweeping."""
    return psi[::-1, ::-1].T


class _Stepper:
    """Precomputed sweep coefficients and workspace for one (spec, masses, dt),
    and the window of the field it last stepped."""

    def __init__(self, spec: GridSpec, masses: MassPair, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        h = spec.h
        gx = dt / (8 * masses.m_x * h * h)   # half step in x
        gy = dt / (4 * masses.m_y * h * h)   # full step in y
        self.x = (gx, *_cn_coeffs(gx, spec.n))
        self.y = (gy, *_cn_coeffs(gy, spec.n))
        self.pad = (_margin(self.x[1]), _margin(self.y[1]))   # rows, columns
        self.n = spec.n
        self.window = _triangle(spec.n)      # where the next input may be nonzero
        shape = (spec.n + 1, spec.n + 1)
        # the sweeps' elimination array and row, then the fields between sweeps
        self.work = (np.empty(shape, dtype=complex), np.empty(spec.n + 1, dtype=complex))
        self.swept = np.empty(shape, dtype=complex)
        self.mirrored = np.empty(shape, dtype=complex)
        # the steps' outputs, used in turn; the one not holding the field is zero
        self.fields = (np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex))

    def support_window(self, psi: np.ndarray) -> tuple[range, range]:
        """Bounding rows and columns of the amplitudes at or above
        SUPPORT_CUTOFF * max|psi|, padded by the sweeps' margins and clipped
        to the triangle.  Reads psi on self.window only."""
        rows, cols = self.window
        mag = np.abs(psi[_box(rows, cols)])
        top = mag.max()
        if not math.isfinite(top):        # a NaN field sweeps the whole triangle
            return _triangle(self.n)
        hit_r, hit_c = _support_box(mag >= SUPPORT_CUTOFF * top)
        pad_r, pad_c = self.pad
        r0 = max(1, rows.start + hit_r.start - pad_r)
        c1 = min(self.n, cols.start + hit_c.stop + pad_c)
        r1 = min(rows.start + hit_r.stop + pad_r, c1 - 1)
        c0 = max(cols.start + hit_c.start - pad_c, r0 + 1)
        return range(r0, r1), range(c0, c1)

    def _mirror_swept(self, rows: range, cols: range) -> None:
        """mirrored = the reflection of swept on the window, with the zero
        rows either side that the next sweep reads."""
        box = _box(rows, cols)
        self.mirrored[box] = _reflect(self.swept)[box]
        self.mirrored[rows.start - 1, box[1]] = 0
        self.mirrored[rows.stop, box[1]] = 0

    def step(self, psi: np.ndarray) -> np.ndarray:
        """One Strang step of psi, which must vanish outside self.window,
        over its support window.

        The result is one of self.fields and vanishes outside the new
        self.window.  A psi that is the other one is zeroed for the step
        after, so a result stays valid until the next step; any other psi is
        left as it is."""
        win = self.support_window(psi)
        mir = _mirror(win, self.n)
        out = self.fields[psi is self.fields[0]]
        _sweep_lines(psi, *self.x, self.swept, *self.work, *win)
        self._mirror_swept(*mir)
        _sweep_lines(self.mirrored, *self.y, self.swept, *self.work, *mir)
        self._mirror_swept(*win)
        _sweep_lines(self.mirrored, *self.x, out, *self.work, *win)
        if any(psi is f for f in self.fields):    # zero again, for the step after next
            psi[_box(*self.window)] = 0
        self.window = win
        return out


def evolve(field: GridField, masses: MassPair, dt: float, steps: int) -> GridField:
    """Propagate the field by steps * dt; aborts if unitarity ever degrades.

    Accuracy is second order in dt and h; choose dt so the largest kinetic
    phase per step stays small (dt <~ m_x h^2 is comfortable).
    """
    stepper = _Stepper(field.spec, masses, dt)
    psi = field.psi
    norm0 = float(np.sum(np.abs(psi) ** 2))
    last, last_k = norm0, 0
    for k in range(steps):
        psi = stepper.step(psi)
        if (k + 1) % NORM_CHECK_EVERY == 0 or k == steps - 1:
            now = float(np.sum(np.abs(psi[_box(*stepper.window)]) ** 2))
            drift = abs(now - last) / (norm0 * (k + 1 - last_k))
            if not drift <= NORM_DRIFT_LIMIT:        # a NaN drift fails too
                raise RuntimeError(
                    f"norm drift {drift:.2e} per step exceeds "
                    f"{NORM_DRIFT_LIMIT:.0e} at step {k + 1}: unstable configuration")
            last, last_k = now, k + 1
    return GridField(psi=psi if steps else psi.copy(), spec=field.spec, t=field.t + steps * dt)


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
    box = _box(*_support_box(keep))
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


def marginals(field: GridField) -> tuple[np.ndarray, np.ndarray]:
    """Position densities over x and over y; each integrates to one."""
    h = field.h
    dens = np.abs(field.psi) ** 2
    total = dens.sum() * h * h
    return dens.sum(axis=1) * h / total, dens.sum(axis=0) * h / total


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def save_snapshot(field: GridField, path) -> None:
    """Binary snapshot: magic, n_x, n_y (int64 LE), dx, dy, t (float64 LE),
    then row-major interleaved re/im float64 pairs, i.e. psi as <c16."""
    n = field.spec.n + 1
    with open(path, "wb") as fh:
        fh.write(_SNAP_MAGIC)
        fh.write(struct.pack("<qqddd", n, n, field.h, field.h, field.t))
        fh.write(np.ascontiguousarray(field.psi, dtype="<c16").data)


def load_snapshot(path) -> GridField:
    """Read back a field written by save_snapshot."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_SNAP_MAGIC))
        if magic != _SNAP_MAGIC:
            raise ValueError("not a field snapshot")
        nx, ny, dx, dy, t = struct.unpack("<qqddd", fh.read(40))
        if nx != ny:
            raise ValueError("snapshot grid is not square")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != nx * ny * 16:
            raise ValueError(f"snapshot payload is {size} bytes, expected "
                             f"{nx} x {ny} x 16 = {nx * ny * 16}")
        psi = np.empty((nx, ny), dtype="<c16")
        fh.readinto(psi)
    spec = GridSpec(n=nx - 1, length=dx * (nx - 1))
    return GridField(psi=psi, spec=spec, t=t)


def write_marginals_csv(field: GridField, path) -> None:
    xs, _ = field.spec.axes()
    px, py = marginals(field)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["coordinate", "density_x", "density_y"])
        for i in range(len(xs)):
            w.writerow([f"{xs[i]:.17g}", f"{px[i]:.17g}", f"{py[i]:.17g}"])
