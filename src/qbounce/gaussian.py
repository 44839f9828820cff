"""Complex Gaussian states for the wall / light / heavy hard-core system.

One-particle packets are stored as

    phi(x) = exp{ -(x - center)^2 / (2 width_sq) + i momentum x + log_norm },

with the complex squared width sigma0^2 (1 + i t / (m sigma0^2)) carrying the
free spreading.  Two-particle states are quadratic forms

    psi(x, y) = exp{ a_xx x^2 + a_yy y^2 + a_xy x y + b_x x + b_y y + log_norm }.

A hard wall at the origin reflects a packet into its mirror image; a hard-core
pair collision is the linear substitution that flips the relative coordinate
while keeping the centre of mass.  Both transforms act exactly on these
representations.  hbar = 1 throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

# packets must be at least this well separated (amplitude-density overlap and
# wall tail mass) before the instantaneous collision transform applies
OVERLAP_GATE = 1e-8


@dataclass(frozen=True)
class MassPair:
    """Masses of the light (x) and heavy (y) particle.

    epsilon = sqrt(m_x / m_y) is the small parameter of the whole problem;
    total returns m_x + m_y.
    """

    m_x: float
    m_y: float

    def __post_init__(self):
        if not (0 < self.m_x < math.inf and 0 < self.m_y < math.inf):
            raise ValueError(f"masses must be positive and finite, got "
                             f"m_x={self.m_x:g}, m_y={self.m_y:g}")

    @property
    def epsilon(self) -> float:
        return math.sqrt(self.m_x / self.m_y)

    @property
    def total(self) -> float:
        return self.m_x + self.m_y


def width_param(sigma0: float, mass: float, t: float) -> complex:
    """Complex squared width sigma0^2 (1 + i t / (mass sigma0^2)) at time t."""
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    return sigma0**2 + 1j * t / mass


@dataclass(frozen=True)
class GaussianPacket:
    """Free one-particle Gaussian packet.

    center moves ballistically, width_sq picks up i dt / mass per free step,
    and log_norm absorbs the normalization magnitude and accumulated dynamical
    phase, so products of many transformed packets never overflow.
    """

    center: float
    width_sq: complex
    momentum: float
    mass: float
    log_norm: complex = 0.0

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if complex(self.width_sq).real <= 0:
            raise ValueError("width_sq must have positive real part")

    @classmethod
    def initial(cls, center: float, sigma0: float, momentum: float,
                mass: float) -> "GaussianPacket":
        """Normalized packet at t = 0 (real squared width sigma0^2)."""
        if sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        return cls(center=center, width_sq=sigma0**2, momentum=momentum,
                   mass=mass, log_norm=-0.25 * math.log(math.pi * sigma0**2))

    @property
    def density_variance(self) -> float:
        """Variance of |phi|^2: |width_sq|^2 / (2 sigma0^2)."""
        b = complex(self.width_sq)
        return abs(b) ** 2 / (2 * b.real)


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
    """Mirror image of a wall-bound packet (far-field reflected wave).

    The reflected wave is -phi(-x), i.e. the mirror packet with an
    antisymmetrization sign, which we track as i*pi in log_norm.
    """
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


def wall_tail_mass(p: GaussianPacket) -> float:
    """Probability mass of |phi|^2 on the forbidden side x < 0."""
    return 0.5 * math.erfc(p.center / math.sqrt(2 * p.density_variance))


@dataclass(frozen=True)
class QuadraticFormState:
    """Two-particle Gaussian wave function as a complex quadratic form.

    Normalizability requires Re a_xx < 0, Re a_yy < 0 and the real quadratic
    form -Re(a_xx) x^2 - Re(a_yy) y^2 - Re(a_xy) x y to be positive definite.
    The state factorizes exactly when a_xy = 0.  The coefficients may be
    arrays, one state per element; every element must be normalizable.
    """

    a_xx: complex
    a_yy: complex
    a_xy: complex
    b_x: complex
    b_y: complex
    log_norm: complex = 0.0

    def __post_init__(self):
        a = -2 * np.real(self.a_xx)
        d = -2 * np.real(self.a_yy)
        g = -np.real(self.a_xy)
        if np.any((a <= 0) | (d <= 0) | (a * d - g * g <= 0)):
            raise ValueError("quadratic form is not normalizable")

    def concentration_matrix(self) -> np.ndarray:
        """M with |psi|^2 = exp{-z^T M z + 2 Re(b).z + 2 Re log_norm}."""
        return np.array([[-2 * complex(self.a_xx).real, -complex(self.a_xy).real],
                         [-complex(self.a_xy).real, -2 * complex(self.a_yy).real]])

    def means(self) -> tuple[float, float]:
        """Position expectation values (<x>, <y>)."""
        m = self.concentration_matrix()
        v = np.array([complex(self.b_x).real, complex(self.b_y).real])
        mu = np.linalg.solve(m, v)
        return float(mu[0]), float(mu[1])

    def covariance(self) -> np.ndarray:
        """Position covariance matrix of |psi|^2."""
        return np.linalg.inv(self.concentration_matrix()) / 2


def evaluate(state: QuadraticFormState, x, y) -> np.ndarray:
    """Pointwise amplitude of the quadratic-form state; broadcasts."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(state.a_xx * x**2 + state.a_yy * y**2 + state.a_xy * x * y
                  + state.b_x * x + state.b_y * y + state.log_norm)


def log_norm_sq(state: QuadraticFormState) -> float:
    """log of the squared L2 norm, integrated in closed form over the plane."""
    m = state.concentration_matrix()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    v = np.array([complex(state.b_x).real, complex(state.b_y).real])
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


def collide_velocities(v_x: float, v_y: float, masses: MassPair) -> tuple[float, float]:
    """Raw signed velocities after an elastic hard-core pair collision.

    The only implementation of the elastic map: it flips the relative
    velocity at fixed centre-of-mass velocity, conserving momentum and
    kinetic energy, and is its own inverse.  The caller decides that the
    pair is closing (v_x > v_y).
    """
    m = masses.total
    return (((masses.m_x - masses.m_y) * v_x + 2 * masses.m_y * v_y) / m,
            (2 * masses.m_x * v_x + (masses.m_y - masses.m_x) * v_y) / m)


def collision_matrix(masses: MassPair) -> tuple[tuple[float, float], tuple[float, float]]:
    """Substitution matrix of the hard-core pair collision in (x, y).

    Flipping the relative coordinate r = x - y at fixed centre of mass
    R = (m_x x + m_y y) / M is the same linear map as collide_velocities, so
    its images of (1, 0) and (0, 1) are the columns; the matrix is an
    involution with determinant -1.
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
