"""Complex Gaussian states for the wall / light / heavy hard-core system.

One-particle packets are stored as

    phi(x) = exp{ -(x - center)^2 / (2 width_sq) + i momentum x + log_norm },

with the complex squared width sigma0^2 (1 + i t / (m sigma0^2)) carrying the
free spreading.  Two-particle states are quadratic forms

    psi(x, y) = exp{ a_xx x^2 + a_yy y^2 + a_xy x y + b_x x + b_y y + log_norm }.

The package builds these representations (the initial packets, the channel
integral's quadratic form, the wall tail mass behind the grid domain bound)
and holds the one elastic collision map, collide_velocities, which the
event-driven simulator applies.  The exact wall-reflection and pair-collision
transforms of packets and forms are the tests' analytic reference
(tests/oracles.py).  hbar = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# largest packet mass a hard wall may cut off: the grid oracle's domain bound,
# and the separation the instantaneous collision transform needs
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
