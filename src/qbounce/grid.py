"""Brute-force 2D Schrödinger propagation on the triangle 0 < x < y < L.

The hard wall and the hard-core contact are Dirichlet boundaries: the grid is
square so the contact line x = y passes exactly through nodes, which are
pinned to zero together with x = 0 and y = L.  Time stepping is a Strang
splitting of Crank-Nicolson sweeps with its half steps on y: K steps run as
Y(dt/2) [X(dt) Y(dt)]^(K-1) X(dt) Y(dt/2), K x sweeps and K + 1 y sweeps.
Each 1D solve is a Cayley transform of a Hermitian tridiagonal operator on
its row/column segment, so every sweep is unitary in the discrete norm.  The
errors are O(dt^2) splitting, O(h^2) dispersion and the truncation to the
field's support window, which drops only amplitudes below about
SUPPORT_CUTOFF * max|psi| (bound next to the constant).

Every x-segment starts at the wall node i = 1, so one Thomas elimination along
axis 0 solves them all at once; the anti-diagonal mirror (x, y) -> (L - y,
L - x) maps the triangle onto itself and turns the y-segments into such
x-segments, so the same routine does the y sweep.  Each step runs the sweeps
on the rows and columns where the field is, and leaves the rest exactly zero.
A sweep solves in place, so a propagation holds four field-sized arrays.  It
writes them on the field's window alone, the two it zeroes lazily, so the
memory a run touches follows the field, not the grid.
"""

from __future__ import annotations

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
#   |cp|^M < SUPPORT_CUTOFF, cp being the elimination factor of the axis's
#   full step (a half step's damps faster), which damps a line's solution by
#   |cp| per cell.  A sweep thus drops the input outside the window and the
#   solution's continuation past it, each amplitude below about
#   SUPPORT_CUTOFF * max|psi|: ||E||_F <~ 2 (n + 1) SUPPORT_CUTOFF max|psi|
#   per sweep.  The sweeps are unitary, so these errors add up over the
#   2 K + 1 sweeps of K steps without growing: the field is within about
#   2 (2 K + 1) (n + 1) SUPPORT_CUTOFF ||psi|| of the whole-triangle steps
#   (8.2e-14 ||psi|| after criterion 8's 4,000 steps at n = 512).  Measured
#   on the desk field at n = 512: 1.2e-25 max|psi| after 60 steps.
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
    """Sample a product of packets on the triangle at t = 0, normalized on the
    grid; optional sine cutoff (init_field's default; perfbench/tracer.py
    passes it by keyword).

    Built in place in one complex array and one real scratch array, each
    ufunc applied in the order of the one-expression
    exp(log psi - max Re log psi) * sin(pi x / y), zeroed off the triangle
    and divided by its norm, so the bytes are that expression's."""
    xs, ys = spec.axes()
    x = xs[:, None]
    y = ys[None, :]
    psi = np.empty((spec.n + 1, spec.n + 1), dtype=complex)
    np.subtract(-(x - px.center) ** 2 / (2 * px.width_sq) + 1j * px.momentum * x,
                (y - py.center) ** 2 / (2 * py.width_sq), out=psi)
    psi += 1j * py.momentum * y
    psi -= psi.real.max()
    np.exp(psi, out=psi)
    scratch = np.empty(psi.shape)
    if cutoff:
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x, np.maximum(y, 1e-300), out=scratch)
        scratch[:, ~(ys > 0)] = 0.0
        scratch *= math.pi
        np.sin(scratch, out=scratch)
        psi *= scratch
    np.copyto(psi, 0, where=~spec.domain_mask())
    np.abs(psi, out=scratch)
    scratch **= 2
    nrm = math.sqrt(float(scratch.sum()) * spec.h**2)
    if nrm == 0:
        raise ValueError("field vanishes on the domain")
    psi /= nrm
    return GridField(psi=psi, spec=spec, t=0.0)


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


def _sweep_lines(psi, gamma, cp, inv, d, row, rows, cols):
    """CN solve in place along axis 0 for every segment [1, j-1] of column j
    in cols, on the rows of the window alone.

    Row i takes part only in the segments of columns i+1 ... n-1, so each row
    of the elimination touches just those inside cols.  The forward pass
    starts at rows.start as if every row before it were zero, and the back
    substitution starts at rows.stop - 1 as if row rows.stop of the solution
    were; over the whole triangle (_triangle) both hold exactly.  psi is read
    on rows.start - 1 ... rows.stop and cols, and must vanish outside the
    triangle there; the solution replaces it on rows.start ... rows.stop and
    cols (zero off the triangle and on the last of those rows).  d (psi's
    shape) and row (one row) are workspace.

    Products keep one operand order, the scalar first on the right-hand side,
    then (d - a * d_prev) * inv and d - cp * x: numpy's complex multiply
    rounds with fused multiply-adds, and its loops for a leading and a
    trailing scalar need not round alike.  numpy 2.4's x86-64 loops round a
    product in place as out of place; TestLineSolver checks the sweeps bit
    for bit.  Sums and differences are exact per element and may alias.
    """
    r0, r1 = rows.start, rows.stop
    c0, c1 = cols.start, cols.stop
    a = -1j * gamma
    # d = (1 - 2 i gamma) psi + i gamma (psi[i-1] + psi[i+1])
    box = _box(rows, cols)
    np.add(psi[r0 - 1:r1 - 1, c0:c1], psi[r0 + 1:r1 + 1, c0:c1], out=d[box])
    np.multiply(1j * gamma, d[box], out=d[box])
    np.multiply(1 - 2j * gamma, psi[box], out=psi[box])
    d[box] += psi[box]
    d[r0 - 1, c0:c1] = 0
    psi[r0:r1 + 1, c0:c1] = 0
    # rows before `split` lie wholly left of cols, so each of their segments
    # starts at c0 and they run as row views of the block; row i of the rest
    # starts at column i + 1
    split = min(c0, r1)
    blk, r = d[r0 - 1:split, c0:c1], row[:c1 - c0]
    for prev, di, f in zip(blk, blk[1:], inv[r0:split]):
        np.multiply(a, prev, out=r)
        np.subtract(di, r, out=r)
        np.multiply(r, f, out=di)
    for i in range(split, r1):
        di, r = d[i, i + 1:c1], row[:c1 - i - 1]
        np.multiply(a, d[i - 1, i + 1:c1], out=r)
        np.subtract(di, r, out=r)
        np.multiply(r, inv[i], out=di)
    for i in range(r1 - 1, split - 1, -1):
        r = row[:c1 - i - 1]
        np.multiply(cp[i], psi[i + 1, i + 1:c1], out=r)
        np.subtract(d[i, i + 1:c1], r, out=psi[i, i + 1:c1])
    blk, r = psi[r0:split + 1, c0:c1], row[:c1 - c0]
    for nxt, oi, di, c in zip(blk[:0:-1], blk[-2::-1], d[r0:split, c0:c1][::-1],
                              cp[r0:split][::-1]):
        np.multiply(c, nxt, out=r)
        np.subtract(di, r, out=oi)


def _reflect(psi):
    """The field under (x, y) -> (L - y, L - x): swaps the axes, keeps the
    triangle.  A strided view; copy it before sweeping."""
    return psi[::-1, ::-1].T


# The field-sized arrays a grid run holds at once, whatever its instant count:
# _Stepper's four and the Schmidt measures' temporaries, up to 3.6 (README).
RUN_FIELDS = 8


class _Stepper:
    """The propagation of one field at one (masses, dt): the sweeps'
    coefficients and four field-sized arrays, one role each.  psi: the
    start's support window, carried without its closing Y(dt/2); mirrored:
    the y sweeps' scratch; work: the elimination's array and row; out: the
    last closed field handed out.  psi and out are lazily zeroed and every
    array is written on the field's window alone, so a run's resident memory
    follows the field, not the grid."""

    def __init__(self, field: GridField, masses: MassPair, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        n, h = field.spec.n, field.spec.h
        gx = dt / (4 * masses.m_x * h * h)   # full step in x
        gy = dt / (4 * masses.m_y * h * h)   # full step in y
        self.x, self.y, self.y_half = ((g, *_cn_coeffs(g, n)) for g in (gx, gy, gy / 2))
        self.pad = (_margin(self.x[1]), _margin(self.y[1]))   # rows, columns
        self.n = n
        # the first sweep reads the start on its support window alone, so
        # only that box is copied
        self.psi, self.window = field.psi, _triangle(n)
        self.window = self.support_window()  # where psi may be nonzero
        box = _box(*self.window)
        self.psi = np.zeros((n + 1, n + 1), dtype=complex)
        self.psi[box] = field.psi[box]
        # made at their first use, after sample has dropped the start
        self.mirrored = self.work = self.out = None
        self.closed = (range(0), range(0))   # where out may be nonzero

    def support_window(self) -> tuple[range, range]:
        """Bounding rows and columns of the amplitudes of psi at or above
        SUPPORT_CUTOFF * max|psi|, padded by the sweeps' margins and clipped
        to the triangle."""
        rows, cols = self.window
        mag = np.abs(self.psi[_box(rows, cols)])
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

    def _sweep_y(self, y, dest: np.ndarray, old: tuple[range, range]) -> tuple[range, range]:
        """Y psi on the support window of psi, swept in mirrored through the
        reflection, then copied onto the window's box of dest, which is zeroed
        first on the box old; returns the window."""
        win = self.support_window()
        rows, cols = _mirror(win, self.n)
        box = _box(rows, cols)
        self.mirrored[box] = _reflect(self.psi)[box]
        self.mirrored[[rows.start - 1, rows.stop], box[1]] = 0   # the rows the sweep reads
        _sweep_lines(self.mirrored, *y, *self.work, rows, cols)
        dest[_box(*old)] = 0
        box = _box(*win)
        dest[box] = _reflect(self.mirrored)[box]
        return win

    def step(self, y) -> None:
        """psi = X(dt) Y psi over the support window of psi, which becomes
        self.window; y is self.y, or self.y_half to open a run."""
        if self.work is None:
            self.mirrored = np.empty_like(self.psi)
            self.work = (np.empty_like(self.psi), np.empty(self.n + 1, dtype=complex))
        self.window = self._sweep_y(y, self.psi, self.window)
        _sweep_lines(self.psi, *self.x, *self.work, *self.window)

    def close(self) -> np.ndarray:
        """out = Y(dt/2) psi, psi left as it is, on the support window of psi,
        which becomes self.closed.  out is made at the first call, and each
        call rewrites it: closing adds no field."""
        if self.out is None:
            self.out = np.zeros(self.psi.shape, dtype=complex)
        self.closed = self._sweep_y(self.y_half, self.out, self.closed)
        return self.out


def sample(field: GridField, masses: MassPair, dt: float, times):
    """The field at each of times, in order, from one propagation in whole
    steps of dt: at the step nearest each instant (its t says which), and
    valid until the next is requested.  Aborts if unitarity ever degrades.

    K steps run as Y(dt/2) [X(dt) Y(dt)]^(K-1) X(dt) Y(dt/2), X and Y the
    Crank-Nicolson sweeps along x and y: a Strang splitting with its half
    steps on y.  A y sweep loops over the window's columns and an x sweep
    over its rows, so the half steps cost least on fields narrower in y than
    in x, as the heavy particle makes them.  The stepper carries the start's
    support window without the closing Y(dt/2) across the whole schedule,
    and each sampled field is that closing written to the stepper's output
    array, so sampling leaves the later fields as they are.  An instant
    before the first step yields the start itself, which sample holds until
    the first step and no longer: a caller that keeps it past its next
    request keeps it beside the stepper's arrays.

    Accuracy is second order in dt and h; choose dt so the largest kinetic
    phase per step stays small (dt <~ m_x h^2 is comfortable).
    """
    stepper = _Stepper(field, masses, dt)
    spec, t, start = field.spec, field.t, field.psi
    del field           # the start is held until the first step, as start
    norm0 = float(np.vdot(start, start).real)
    last, last_k, k = norm0, 0, 0
    for when in times:
        end = k + max(0, round((when - t) / dt))
        t += (end - k) * dt
        if end > k:
            start = None
        for k in range(k + 1, end + 1):
            stepper.step(stepper.y if k > 1 else stepper.y_half)
            if k % NORM_CHECK_EVERY == 0 or k == end:
                now = float(np.sum(np.abs(stepper.psi[_box(*stepper.window)]) ** 2))
                drift = abs(now - last) / (norm0 * (k - last_k))
                if not drift <= NORM_DRIFT_LIMIT:        # a NaN drift fails too
                    raise RuntimeError(
                        f"norm drift {drift:.2e} per step exceeds "
                        f"{NORM_DRIFT_LIMIT:.0e} at step {k}: unstable configuration")
                last, last_k = now, k
        yield GridField(psi=start if start is not None else stepper.close(), spec=spec, t=t)


def evolve(field: GridField, masses: MassPair, dt: float, steps: int) -> GridField:
    """Propagate the field by steps * dt: sample's one-instant case, so zero
    steps give the field's own array."""
    return next(sample(field, masses, dt, [field.t + steps * dt]))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _gram(psi: np.ndarray) -> np.ndarray:
    """psi^H psi on the numerical support of psi; its eigenvalues are the
    squared singular values of psi.

    psi is cut to the bounding rows and columns of its nonzero amplitudes
    before |psi| is formed, so the measures touch only the field's window.
    Amplitudes below SUPPORT_CUTOFF * max|psi| are zeroed and the rest is cut
    to its bounding rows and columns.  Left in, the far Gaussian tails make
    the product and eigvalsh run on slow subnormal floats."""
    keep = psi != 0                      # a NaN amplitude is nonzero
    # a field without a nonzero amplitude keeps one zero: a 0/0, NaN purity
    psi = psi[_box(*_support_box(keep))] if keep.any() else psi[:1, :1]
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
    purity = _purity_of_gram(g)
    if not np.isfinite(g).all():        # eigvalsh does not converge on a NaN or inf
        return purity, math.nan
    lam = np.linalg.eigvalsh(g)
    lam = lam / lam.sum()
    lam = lam[lam > 0]          # drop rounding-level negative and underflowed weights
    return purity, float(-np.sum(lam * np.log(lam)))


def marginals(field: GridField) -> tuple[np.ndarray, np.ndarray]:
    """Position densities over x and over y; each integrates to one.

    |psi|^2 is formed on the rows from the first to the last nonzero one
    alone; the total is the sum of the row sums."""
    h, psi = field.h, field.psi
    nonzero = np.flatnonzero((psi != 0).any(axis=1))      # a NaN is nonzero
    rows = slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)
    dens = np.abs(psi[rows])
    dens **= 2
    px = np.zeros(psi.shape[0])
    px[rows] = dens.sum(axis=1)
    total = px.sum() * h * h
    return px * h / total, dens.sum(axis=0) * h / total


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
    with open(path, "w", newline="") as fh:     # CRLF line ends, as csv.writer's
        fh.write("coordinate,density_x,density_y\r\n")
        fh.writelines(map("%.17g,%.17g,%.17g\r\n".__mod__,
                          zip(xs.tolist(), px.tolist(), py.tolist())))
