"""Non-entangling channel decomposition of the two-packet problem.

The heavy packet, too broad to satisfy m_x sigma_x^2 = m_y sigma_y^2 on its
own, is written as a Gaussian blur (width dsigma_y0) of narrower packets
(width sigma_yT = eps sigma_x) that do satisfy it.  Each blurred component is
a channel whose collisions never create cross terms, so the two-particle
state at any between-collision instant is a single Gaussian integral over the
classical channel distribution:

    centre line   x_m - x_M(t) = (sin(2 eps n)/eps) (y_m0 - y_M0)
                  y_m - y_M(t) =  cos(2 eps n)      (y_m0 - y_M0)
    y-width       dsigma_y0 |cos(2 eps n)|

Integrating the channel superposition in closed form gives back a quadratic
form whose cross coefficient

    a_xy = sin(4 eps n) [beta_y^2 - eps^2 beta_x^2] / (2 eps beta_x^2 beta_y^2)

vanishes at n = 0 and again at the critical count pi/(4 eps): the
entanglement built up by the collisions disappears when they stop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import classical
from .classical import (ClassicalTrajectory, CollisionTable, channel_rotation,
                        collision_table, critical_count, ensemble_widths,
                        max_collisions)
from .gaussian import (GaussianPacket, MassPair, QuadraticFormState, scaled_coefficients,
                       width_param)

# widths must stay below this fraction of every relevant distance
WIDTH_RATIO_GATE = 0.05


class MixedPhaseError(ValueError):
    """Requested instant lies in the event window [start, stop) (event_windows)."""

    def __init__(self, t: float, start: float, stop: float):
        self.t, self.start, self.stop = t, start, stop
        super().__init__(f"t={t:g} is not a whole-ensemble between-event instant: "
                         f"channels straddle an event from {start:g} until {stop:g}")


@dataclass(frozen=True)
class ScenarioParams:
    """Initial configuration: two narrow packets, the light one moving.

    Requires finite values, m_x < m_y, 0 < x_M0 < y_M0, widths at most
    WIDTH_RATIO_GATE of every packet-to-packet and packet-to-wall distance,
    and the broad-heavy branch m_x sigma0x^2 < m_y sigma0y^2 (split_width).
    validity_figure = eps m_x sigma0x v_x0 / pi must be large for the packets
    to stay narrow through the last collision.
    """

    x_M0: float
    y_M0: float
    sigma0x: float
    sigma0y: float
    p_x0: float
    masses: MassPair

    def __post_init__(self):
        for name in ("x_M0", "y_M0", "sigma0x", "sigma0y", "p_x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.masses.m_x < self.masses.m_y:
            raise ValueError("need m_x < m_y: the light particle is x, the heavy one y")
        if not 0 < self.x_M0 < self.y_M0:
            raise ValueError("need 0 < x_M0 < y_M0")
        if self.p_x0 <= 0:
            raise ValueError("p_x0 must be positive")
        if self.sigma0x <= 0 or self.sigma0y <= 0:
            raise ValueError("widths must be positive")
        gap = min(self.x_M0, self.y_M0 - self.x_M0, self.y_M0)
        for name, s in (("sigma0x", self.sigma0x), ("sigma0y", self.sigma0y)):
            if s > WIDTH_RATIO_GATE * gap:
                raise ValueError(
                    f"{name}={s:g} too broad: widths must be <= "
                    f"{WIDTH_RATIO_GATE} * {gap:g}")
        split_width(self)       # the broad-heavy branch: a blur left to split off

    @property
    def eps(self) -> float:
        return self.masses.epsilon

    @property
    def v_x0(self) -> float:
        return self.p_x0 / self.masses.m_x

    @property
    def validity_figure(self) -> float:
        return self.eps * self.masses.m_x * self.sigma0x * self.v_x0 / math.pi

    @functools.cached_property
    def table(self) -> CollisionTable:
        """The collision sequence, looked up once per scenario."""
        return collision_table(self.eps)

    @functools.cached_property
    def event_windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted starts and stops of the disjoint windows [start, stop) in
        which the +-3 sigma channels straddle a pair collision or wall bounce.

        An event's time (after_collision) rises with y_m0, so its window runs
        from the -3 sigma channel's time to the +3 sigma one's.  Overlapping
        windows merge; only their union counts, so the edges sort apart."""
        dsigma_y0, _ = split_width(self)
        ends = np.array([[self.y_M0 - 3 * dsigma_y0], [self.y_M0 + 3 * dsigma_y0]])
        t_k, _, vx_k, _, t_wall = classical.after_collision(
            np.arange(self.table.count), ends, self.x_M0, self.v_x0, self.table)
        lo, hi = np.sort(np.concatenate((t_k, t_wall[:, vx_k > 0]), axis=1), axis=1)
        first = np.append(True, lo[1:] > hi[:-1])    # no window covers the gap before
        starts, stops = lo[first], hi[np.append(first[1:], True)]
        starts.flags.writeable = stops.flags.writeable = False
        return starts, stops

    @property
    def n_max(self) -> int:
        return max_collisions(self.eps)

    @property
    def n_cr(self) -> float:
        return critical_count(self.eps)

    def packet_x(self) -> GaussianPacket:
        return GaussianPacket.initial(self.x_M0, self.sigma0x, self.p_x0,
                                      self.masses.m_x)

    def packet_y(self) -> GaussianPacket:
        return GaussianPacket.initial(self.y_M0, self.sigma0y, 0.0,
                                      self.masses.m_y)


def split_width(params: ScenarioParams) -> tuple[float, float]:
    """Split sigma0y^2 into the channel blur and the channel packet width.

    sigma_yT^2 = (m_x/m_y) sigma0x^2 makes each channel non-entangling;
    dsigma_y0^2 = sigma0y^2 - sigma_yT^2 is the blur the channels' centres
    are distributed with.  Convolving the two Gaussians restores sigma0y.
    The one test of the broad-heavy branch: ScenarioParams admits by it.
    """
    sigma_yT_sq = params.masses.m_x / params.masses.m_y * params.sigma0x**2
    dsq = params.sigma0y**2 - sigma_yT_sq
    if dsq <= 0:
        raise ValueError(f"need m_x sigma0x^2 < m_y sigma0y^2, got sigma0y^2 - (m_x/m_y) "
                         f"sigma0x^2 = {dsq:.3g}: at 0 one channel is already non-entangling "
                         f"(single channel), below 0 the mirrored decomposition is not implemented")
    return math.sqrt(dsq), math.sqrt(sigma_yT_sq)


@dataclass(frozen=True)
class ChannelEnsemble:
    """Classical distribution over channel centres at one instant (or one per
    element, when the fields are arrays over instants).

    The centres sit on the line x_m = x_center + (tan(2 eps n)/eps)
    (y_m - y_center) with a Gaussian of width dsigma_y_n along y_m.  The sign
    of p_xn is the light particle's direction.
    """

    n: float
    x_center: float
    y_center: float
    dsigma_y_n: float
    p_xn: float
    p_yn: float
    t: float


@dataclass(frozen=True)
class EntanglementReport:
    a_xy: complex
    purity: float
    schmidt_entropy: float


@functools.lru_cache(maxsize=32)
def reference_trajectory(params: ScenarioParams) -> ClassicalTrajectory:
    """The centre channel's run (y_m0 = y_M0) from the collision table (cached per scenario)."""
    return classical.channel_trajectory(params.y_M0, params.x_M0, params.v_x0, params.table)


def mixed_phase_gate(params: ScenarioParams, t):
    """True when the +-3 sigma span of channels shares one count of pair
    collisions and one of wall bounces at t: t lies in no event window.
    t may be an array of instants, giving a bool array, or one, giving a bool."""
    starts, stops = params.event_windows
    t = np.asarray(t, dtype=float)
    i = np.searchsorted(starts, t, "right") - 1
    safe = (i < 0) | (t >= stops[i])
    return safe if np.ndim(t) else bool(safe)


def auto_schedule(params: ScenarioParams) -> np.ndarray:
    """Safe reporting instants: of the midpoints between the reference events
    (wall bounces included) and one tail instant after the last, those that
    pass mixed_phase_gate."""
    ts = reference_trajectory(params).t          # at least one collision: two rows
    out = np.append((ts[:-1] + ts[1:]) / 2, ts[-1] + (ts[-1] - ts[-2]) / 2)
    return out[mixed_phase_gate(params, out)]


def propagate_ensemble(params: ScenarioParams, t) -> ChannelEnsemble:
    """Ensemble at the between-event instant(s) t, fields shaped like t.

    Raises MixedPhaseError, naming the event window, at the first instant of
    t that fails mixed_phase_gate.  Collision count, centres and momenta come
    from the reference trajectory's state at t, width from the rotation law
    at the current count.  At t = 0 it is the initial ensemble: a delta in
    x_m times a Gaussian of width dsigma_y0 in y_m.
    """
    ts = np.atleast_1d(t)
    unsafe = ts[~mixed_phase_gate(params, ts)]
    if unsafe.size:
        starts, stops = params.event_windows
        i = np.searchsorted(starts, unsafe[0], "right") - 1
        raise MixedPhaseError(float(unsafe[0]), float(starts[i]), float(stops[i]))
    ref = reference_trajectory(params).states_at(t)
    dsigma_y0, _ = split_width(params)
    return ChannelEnsemble(
        n=ref.n, x_center=ref.x, y_center=ref.y,
        dsigma_y_n=ensemble_widths(ref.n, params.eps, dsigma_y0).dsigma_y,
        p_xn=params.masses.m_x * ref.v_x, p_yn=params.masses.m_y * ref.v_y, t=ref.t)


def channel_integral(e: ChannelEnsemble, params: ScenarioParams) -> QuadraticFormState:
    """Unnormalized quadratic form of the channel superposition at e.t; the
    instant is not checked (propagate_ensemble gates it).

    The Gaussian channel integral is done in closed form in the initial
    offset w = y_m0 - y_M0, which stays regular through the width zero at
    the critical count.  Elementwise over arrays; one instant runs as a
    one-element array, since numpy rounds complex products in array loops
    unlike in scalar arithmetic, so it gets the bits it gets in a schedule.
    """
    eps = params.eps
    dsigma_y0, _ = split_width(params)
    d0sq = dsigma_y0**2
    bx2 = width_param(params.sigma0x, params.masses.m_x,
                      np.atleast_1d(np.asarray(e.t, dtype=float)))
    bt2 = eps**2 * bx2                      # channel heavy width parameter
    c, s = channel_rotation(e.n, eps)
    fx, fy = s / eps, c                     # offset-to-x_m and -to-y_m scales
    p, q = 1 / bx2, 1 / bt2
    alpha = -(1 / (2 * d0sq) + fx * fx * p / 2 + fy * fy * q / 2)
    lam_x, lam_y = fx * p, fy * q
    lam_1 = -fx * p * e.x_center - fy * q * e.y_center
    denom = -4 * alpha
    coefficients = dict(
        a_xx=-p / 2 + lam_x * lam_x / denom,
        a_yy=-q / 2 + lam_y * lam_y / denom,
        a_xy=2 * lam_x * lam_y / denom,
        b_x=p * e.x_center + 1j * e.p_xn + 2 * lam_x * lam_1 / denom,
        b_y=q * e.y_center + 1j * e.p_yn + 2 * lam_y * lam_1 / denom,
        log_norm=(-p * e.x_center * e.x_center / 2 - q * e.y_center * e.y_center / 2
                  + lam_1 * lam_1 / denom),     # no centre squared: it overflows first
    )
    if np.ndim(e.t) == 0:
        coefficients = {key: value[0] for key, value in coefficients.items()}
    return QuadraticFormState(**coefficients)


def schmidt_entropy_from_purity(purity):
    """Entropy of the geometric Schmidt spectrum with the given purity(ies)."""
    if not np.all((0 < purity) & (purity <= 1)):
        raise ValueError("purity must lie in (0, 1]")
    lam = (1 - purity) / (1 + purity)
    with np.errstate(divide="ignore", invalid="ignore"):    # lam = 0 at purity 1
        entropy = -np.log(1 - lam) - lam * np.log(lam) / (1 - lam)
    return np.where(lam > 0, entropy, 0.0)[()]


def entanglement_report(state: QuadraticFormState) -> EntanglementReport:
    """Cross coefficient, purity and Schmidt entropy of a pure Gaussian pair, elementwise.

    With A = -2 Re a_xx, D = -2 Re a_yy, g = a_xy the four-fold Gaussian
    integral for Tr rho_x^2 collapses to sqrt[(AD - (Re g)^2)/(AD + (Im g)^2)].
    Displacements and global phase drop out.  It reads the state's
    scaled_coefficients, on which the state passed the normalizability rule.
    """
    a, d, g, h = scaled_coefficients(state.a_xx, state.a_yy, state.a_xy)
    purity = np.sqrt((a * d - g * g) / (a * d + h * h))
    return EntanglementReport(a_xy=state.a_xy, purity=purity,
                              schmidt_entropy=schmidt_entropy_from_purity(purity))
