"""Classical dynamics of the wall / light / heavy hard-core chain.

Two independent routes are provided on purpose:

* closed forms and exact recursions for the collision sequence, where the
  light particle's velocity is folded by the wall bounce so that speeds stay
  positive: v_x(n) = v_x0 cos(n phi), v_y(n) = v_x0 eps sin(n phi) with
  phi = arctan(2 eps / (1 - eps^2));
* an event-driven simulator with raw signed velocities and geometric event
  detection, used as the oracle everything else is checked against.

Collision counting: n counts pair collisions only; wall bounces are recorded
in trajectories but do not increment n.  The asymptotic position/time laws
y(n) = y0 exp(2 n^2 eps^2) and t(n) = (2 y0 / v0) n [1 + eps^2 (...)] measure
time from a fictitious zeroth collision at the heavy particle's initial
position, so the light particle's initial half-flight is not part of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import MassPair, collide_velocities

# relative tie-break window for simultaneous wall/pair events
_TIE = 1e-14


def collision_angle(eps: float) -> float:
    """Rotation angle per collision, arctan(2 eps / (1 - eps^2)) ~ 2 eps."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.atan2(2 * eps, 1 - eps * eps)


def max_collisions(eps: float) -> int:
    """Crossover count arctan(1/eps)/phi ~ pi/(4 eps) - 1/2, rounded to the nearest int.

    The light particle stops catching up there.  Rounding keeps the result within
    one collision of pi/(4 eps) for all eps <= 0.2, and the folded closed forms hold
    up to it (n phi < pi/2).  It is not the last collision's index: a run from
    x_M0 = y_M0 / 2 makes 16 pair collisions at eps = 0.05 (n_max = 15), 4 at
    eps = 0.2 (n_max = 3) and 785 at eps = 0.001 (n_max = 785).
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return int(math.floor(math.atan(1 / eps) / collision_angle(eps) + 0.5))


def critical_count(eps: float) -> float:
    """Continuum collision count pi / (4 eps) where the ensemble refocuses."""
    return math.pi / (4 * eps)


def closed_form_velocities(n, eps: float, v_x0: float):
    """Folded speeds after n pair collisions: v_x0 (cos(n phi), eps sin(n phi)).

    n may be fractional (continuum evaluation of the rotation law) and an
    array; no element may exceed max_collisions(eps), beyond which the
    folding breaks down.
    """
    if np.any((n < 0) | (n > max_collisions(eps))):
        raise ValueError(f"n={n} outside [0, {max_collisions(eps)}]")
    phi = collision_angle(eps)
    return v_x0 * np.cos(n * phi), v_x0 * eps * np.sin(n * phi)


@dataclass(frozen=True)
class ClassicalState:
    """Snapshot of the pair: positions, raw signed velocities, time, pair count."""
    x: float
    y: float
    v_x: float
    v_y: float
    t: float
    n: int


@dataclass(frozen=True)
class TrajectoryEvent:
    t: float
    kind: str                 # "wall" or "pair"
    state: ClassicalState     # state immediately after the event


@dataclass(frozen=True)
class ClassicalTrajectory:
    """Event record of one exact run; motion is linear between events."""
    initial: ClassicalState
    events: tuple[TrajectoryEvent, ...] = field(default_factory=tuple)

    @property
    def final(self) -> ClassicalState:
        return self.events[-1].state if self.events else self.initial

    @functools.cached_property
    def state_columns(self) -> ClassicalState:
        """Initial state, then the state after each event: one read-only array per field."""
        states = (self.initial, *(e.state for e in self.events))
        columns = {}
        for name in ("x", "y", "v_x", "v_y", "t", "n"):
            columns[name] = np.array([getattr(s, name) for s in states])
            columns[name].flags.writeable = False
        return ClassicalState(**columns)

    def states_at(self, t) -> ClassicalState:
        """Interpolated states at the instant(s) t, as arrays shaped like t.

        Each starts from the last event with e.t <= t, or the initial state,
        and moves linearly from there (freely past the last event).
        """
        t = np.asarray(t, dtype=float)[()]
        if np.any(t < self.initial.t):
            raise ValueError("t precedes the trajectory start")
        c = self.state_columns
        i = np.searchsorted(c.t[1:], t, "right")
        dt = t - c.t[i]
        return ClassicalState(x=c.x[i] + c.v_x[i] * dt, y=c.y[i] + c.v_y[i] * dt,
                              v_x=c.v_x[i], v_y=c.v_y[i], t=t, n=c.n[i])

    def state_at(self, t: float) -> ClassicalState:
        """states_at for one instant, with plain float and int fields."""
        s = self.states_at(t)
        return ClassicalState(float(s.x), float(s.y), float(s.v_x), float(s.v_y), t, int(s.n))


def event_driven_trajectory(x0: float, y0: float, v_x0: float, masses: MassPair,
                            t_end: float | None = None) -> ClassicalTrajectory:
    """Exact event-driven run of the wall / light / heavy system.

    The heavy particle starts at rest.  Next-event times come from
    closed-form linear motion, so there is no stepping error: wall hits flip
    v_x, pair hits apply collide_velocities.
    Stops when no further event can occur (light particle slower than the
    heavy one and not wall-bound) or when t_end is passed.
    """
    if not 0 < x0 < y0:
        raise ValueError("need 0 < x0 < y0")
    if v_x0 == 0:
        raise ValueError("need a moving light particle")
    initial = ClassicalState(x=x0, y=y0, v_x=v_x0, v_y=0.0, t=0.0, n=0)
    state = initial
    events: list[TrajectoryEvent] = []
    # generous cap; the energy argument guarantees far earlier termination
    cap = 4 * max_collisions(min(masses.epsilon, 0.999)) + 64 if masses.epsilon < 1 else 64
    for _ in range(cap):
        t_wall = -state.x / state.v_x if state.v_x < 0 else math.inf
        t_pair = ((state.y - state.x) / (state.v_x - state.v_y)
                  if state.v_x > state.v_y else math.inf)
        if not math.isfinite(t_wall) and not math.isfinite(t_pair):
            break
        # near-simultaneous events: take the wall bounce first
        if t_wall <= t_pair * (1 + _TIE):
            dt, kind = t_wall, "wall"
        else:
            dt, kind = t_pair, "pair"
        t_next = state.t + dt
        if t_end is not None and t_next > t_end:
            break
        x = state.x + state.v_x * dt
        y = state.y + state.v_y * dt
        if kind == "wall":
            state = ClassicalState(x=0.0, y=y, v_x=-state.v_x, v_y=state.v_y,
                                   t=t_next, n=state.n)
        else:
            v_x_new, v_y_new = collide_velocities(state.v_x, state.v_y, masses)
            state = ClassicalState(x=x, y=y, v_x=v_x_new, v_y=v_y_new,
                                   t=t_next, n=state.n + 1)
        events.append(TrajectoryEvent(t=t_next, kind=kind, state=state))
    else:
        raise RuntimeError("event cap exceeded; inconsistent dynamics")
    return ClassicalTrajectory(initial=initial, events=tuple(events))


@dataclass(frozen=True)
class CollisionTable:
    """Exact collision sequence for unit initial position and speed.

    Index k runs over collisions in the fictitious-zeroth convention:
    times[0] = 0 at position 1, times[k] of the k-th collision thereafter.
    Positions and times scale linearly with y_m0 / v_x0, which is what makes
    whole-ensemble evaluations cheap.
    """
    eps: float
    times: np.ndarray       # shape (K+1,), times[0] = 0
    positions: np.ndarray   # shape (K+1,), positions[0] = 1
    v_x: np.ndarray         # folded speeds after collision k
    v_y: np.ndarray

    @property
    def count(self) -> int:
        return len(self.times) - 1


@functools.lru_cache(maxsize=32)
def collision_table(eps: float) -> CollisionTable:
    """Exact positions/times of the collision sequence (unit y0 and v0).

    Cached per eps; every caller shares the returned arrays, so they are
    read-only.
    """
    phi = collision_angle(eps)
    total = max_collisions(eps) + 1
    ks = np.arange(total + 1)
    v_x = np.cos(ks * phi)
    v_y = eps * np.sin(ks * phi)
    times = np.zeros(total + 1)
    pos = np.ones(total + 1)
    for k in range(total):
        closing = v_x[k] - v_y[k]
        if closing <= 0:
            # the (k+1)-th collision never happens; truncate
            ks, v_x, v_y = ks[:k + 1], v_x[:k + 1], v_y[:k + 1]
            times, pos = times[:k + 1], pos[:k + 1]
            break
        times[k + 1] = times[k] + 2 * pos[k] / closing
        pos[k + 1] = pos[k] * (v_x[k] + v_y[k]) / closing
    for arr in (times, pos, v_x, v_y):
        arr.flags.writeable = False
    return CollisionTable(eps=eps, times=times, positions=pos, v_x=v_x, v_y=v_y)


def collision_position_approx(n, y_m0: float, eps: float) -> float:
    """Asymptotic position of the n-th collision, y_m0 exp(2 n^2 eps^2)."""
    if n < 0 or n > max_collisions(eps):
        raise ValueError(f"n={n} outside [0, {max_collisions(eps)}]")
    return y_m0 * math.exp(2 * n * n * eps * eps)


def collision_time_approx(n, y_m0: float, v_x0: float, eps: float) -> float:
    """Asymptotic time of the n-th collision in the zeroth-collision convention.

    (2 y_m0 / v_x0) n [1 + eps^2 (4 n^2 / 3 + n + 1/3)]: growing positions and
    shrinking closing speed make each round trip longer than 2 y_m0 / v_x0.
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


# ---------------------------------------------------------------------------
# whole-ensemble kinematics: every channel shares the folded speed sequence,
# so positions and times scale linearly with the initial heavy position
# ---------------------------------------------------------------------------

def pair_collision_times(y_m0, x_m0: float, v_x0: float,
                         table: CollisionTable) -> np.ndarray:
    """Actual times of collisions 1..K for initial heavy position(s) y_m0.

    The first collision happens at (y_m0 - x_m0)/v_x0 at position y_m0 exactly
    (the heavy particle has not moved yet); later gaps scale with y_m0.
    """
    y_m0 = np.asarray(y_m0, dtype=float)
    rel = table.times[1:] - table.times[1]        # zero-based gap sequence
    return ((y_m0[..., None] - x_m0) / v_x0
            + y_m0[..., None] * rel / v_x0)


def _count_error(t: np.ndarray, k: np.ndarray, y_m0: np.ndarray, start: np.ndarray,
                 v_x0: float, rel: np.ndarray) -> np.ndarray:
    """+1 where count k is one short at t, -1 where it is one over, else 0.

    Compares t with the channel's entries k-1 and k of the times
    start + y_m0 rel / v_x0, evaluated exactly as pair_collision_times does.
    """
    last = len(rel) - 1
    short = (k <= last) & (start + y_m0 * rel[np.minimum(k, last)] / v_x0 <= t)
    over = (k > 0) & (start + y_m0 * rel[np.maximum(k - 1, 0)] / v_x0 > t)
    return short.astype(int) - over


def pair_counts(t, y_m0, x_m0: float, v_x0: float, table: CollisionTable) -> np.ndarray:
    """Pair collisions completed by time t in the channel(s) starting at y_m0.

    The count of a channel's pair_collision_times that are <= t, exactly.
    t and y_m0 (all positive) broadcast against each other.  Each channel's
    times are non-decreasing, so a searchsorted on the unit gap sequence
    gives the count up to rounding; the guess is then stepped, one collision
    at a time and only where it is off, until the exact entries on either
    side bracket t.  O(log K) per element; no (..., K) array is formed.
    """
    shape = np.broadcast_shapes(np.shape(t), np.shape(y_m0))
    # broadcast views, not copies: a scalar t costs no (channels,) array
    t, y_m0 = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                                  np.atleast_1d(np.asarray(y_m0, dtype=float)))
    rel = table.times[1:] - table.times[1]        # as pair_collision_times
    start = (y_m0 - x_m0) / v_x0                  # first collision time
    k = np.searchsorted(rel, (t - start) * v_x0 / y_m0, "right")
    step = _count_error(t, k, y_m0, start, v_x0, rel)
    off = np.nonzero(step)
    step = step[off]
    while step.size:
        k[off] += step
        step = _count_error(t[off], k[off], y_m0[off], start[off], v_x0, rel)
        off, step = tuple(i[step != 0] for i in off), step[step != 0]
    return k.reshape(shape)


def channel_kinematics(t: float, y_m0, x_m0: float, v_x0: float,
                       table: CollisionTable):
    """Exact (x_m, y_m, pair count, wall count) at time t, vectorized over y_m0.

    y_m0 is a scalar or 1-D array of initial heavy positions, all positive.
    Between collisions the light particle follows |y(k) - (t - t_k) v_x(k)|,
    which folds the wall bounce into one expression.  The pair count is
    pair_counts, so it costs O(log K) per channel and no (channels, K)
    array is formed.
    """
    y_m0 = np.atleast_1d(np.asarray(y_m0, dtype=float))
    rel = table.times[1:] - table.times[1]                    # as pair_collision_times
    start = (y_m0 - x_m0) / v_x0                              # first collision time
    k = pair_counts(t, y_m0, x_m0, v_x0, table)               # collisions so far
    before = k == 0
    ki = np.maximum(k - 1, 0)                                 # index into table rows
    pos_k = y_m0 * table.positions[1:][ki]
    t_k = start + y_m0 * rel[ki] / v_x0
    vx_k = v_x0 * table.v_x[1:][ki]
    vy_k = v_x0 * table.v_y[1:][ki]
    tau = t - t_k
    y_m = np.where(before, y_m0, pos_k + tau * vy_k)
    x_m = np.where(before, x_m0 + v_x0 * t, np.abs(pos_k - tau * vx_k))
    # wall bounces: one after each collision once the light particle reaches
    # x = 0, provided it recoiled toward the wall (folded v_x > 0).  The
    # bounce after collision j comes before collision j+1, so every bounce
    # but the one after the latest collision has happened by t.
    toward_wall = table.v_x[1:] > 0
    earlier = np.concatenate(([0], np.cumsum(toward_wall)))
    with np.errstate(divide="ignore"):
        latest = ~before & toward_wall[ki] & (t_k + pos_k / vx_k <= t)
    return x_m, y_m, k, earlier[ki] + latest


@dataclass(frozen=True)
class EnsembleWidths:
    """Classical ensemble widths after n collisions."""
    n: float
    dsigma_y: float
    dsigma_x: float


def channel_rotation(n, eps: float):
    """(cos 2 eps n, sin 2 eps n): how far n collisions turn a channel's offset.

    The only place the rotation law is evaluated; n may be fractional and an
    array.
    """
    return np.cos(2 * eps * n), np.sin(2 * eps * n)


def ensemble_widths(n, eps: float, dsigma_y0: float) -> EnsembleWidths:
    """Width pair (dsigma_y0 |cos 2 eps n|, (dsigma_y0/eps) |sin 2 eps n|), elementwise in n."""
    if np.any(n < 0):
        raise ValueError("n must be non-negative")
    c, s = channel_rotation(n, eps)
    return EnsembleWidths(n=n, dsigma_y=dsigma_y0 * np.abs(c),
                          dsigma_x=dsigma_y0 / eps * np.abs(s))

