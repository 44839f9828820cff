"""Classical dynamics of the wall / light / heavy hard-core chain.

Two independent routes are provided on purpose:

* closed forms and exact recursions for the collision sequence, where the
  light particle's velocity is folded by the wall bounce so that speeds stay
  positive: v_x(n) = v_x0 cos(n phi), v_y(n) = v_x0 eps sin(n phi) with
  phi = arctan(2 eps / (1 - eps^2)); collision_table, the one evaluation of
  these speeds, holds the sequence, and every run reads it, the reference
  trajectory included (channel_trajectory);
* an event-driven simulator with raw signed velocities and geometric event
  detection, used as the oracle everything else is checked against.

Collision counting: n counts pair collisions only; wall bounces are recorded
in trajectories but do not increment n.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

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
class ClassicalTrajectory(ClassicalState):
    """One exact run as read-only columns: the initial state, then the state
    after each event.  An event is a pair collision where n rises, else a
    wall bounce.  Motion is linear between events."""

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    def states_at(self, t) -> ClassicalState:
        """Interpolated states at the instant(s) t, as arrays shaped like t.

        Each starts from the last event with event time <= t, or the initial
        state, and moves linearly from there (freely past the last event).
        """
        t = np.asarray(t, dtype=float)[()]
        if np.any(t < self.t[0]):
            raise ValueError("t precedes the trajectory start")
        i = np.searchsorted(self.t[1:], t, "right")
        dt = t - self.t[i]
        return ClassicalState(x=self.x[i] + self.v_x[i] * dt, y=self.y[i] + self.v_y[i] * dt,
                              v_x=self.v_x[i], v_y=self.v_y[i], t=t, n=self.n[i])

    def state_at(self, t: float) -> ClassicalState:
        """states_at for one instant, with plain float and int fields.  No run
        calls it; it stays because perfbench/tracer.py wraps it by name."""
        s = self.states_at(t)
        return ClassicalState(float(s.x), float(s.y), float(s.v_x), float(s.v_y), t, int(s.n))


def event_driven_trajectory(x0: float, y0: float, v_x0: float, masses: MassPair,
                            t_end: float | None = None) -> ClassicalTrajectory:
    """Exact event-driven run of the wall / light / heavy system: the oracle.

    The heavy particle starts at rest.  Next-event times come from
    closed-form linear motion, so there is no stepping error: wall hits flip
    v_x, pair hits apply collide_velocities and raise n.  Records the state
    after each event, 48 bytes a row.  Stops when no further event can occur
    (light particle slower than the heavy one and not wall-bound) or when
    t_end is passed.
    """
    if not 0 < x0 < y0:
        raise ValueError("need 0 < x0 < y0")
    if v_x0 == 0:
        raise ValueError("need a moving light particle")
    x, y, v_x, v_y, t, n = x0, y0, v_x0, 0.0, 0.0, 0
    # the states' columns, one compact buffer each: 8 bytes a value, no tuples
    columns = (*(array("d") for _ in range(5)), array("q"))
    # generous cap; the energy argument guarantees far earlier termination
    cap = 4 * max_collisions(min(masses.epsilon, 0.999)) + 64 if masses.epsilon < 1 else 64
    for _ in range(cap):
        for column, value in zip(columns, (x, y, v_x, v_y, t, n)):
            column.append(value)                # the state after the last event
        t_wall = -x / v_x if v_x < 0 else math.inf
        t_pair = (y - x) / (v_x - v_y) if v_x > v_y else math.inf
        if not math.isfinite(t_wall) and not math.isfinite(t_pair):
            break
        # near-simultaneous events: take the wall bounce first
        wall = t_wall <= t_pair * (1 + _TIE)
        dt = t_wall if wall else t_pair
        if t_end is not None and t + dt > t_end:
            break
        t += dt
        y += v_y * dt
        if wall:
            x, v_x = 0.0, -v_x
        else:
            x += v_x * dt
            v_x, v_y = collide_velocities(v_x, v_y, masses)
            n += 1
    else:
        raise RuntimeError("event cap exceeded; inconsistent dynamics")
    return ClassicalTrajectory(*map(np.array, columns))


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

    pos(k+1) = pos(k) (v_x + v_y) / closing and t(k+1) = t(k) + 2 pos(k) /
    closing, with closing = v_x(k) - v_y(k), while the closing speed is > 0.
    Cached per eps; the shared arrays are read-only.
    """
    phi = collision_angle(eps)
    ks = np.arange(max_collisions(eps) + 2)
    v_x = np.cos(ks * phi)
    v_y = eps * np.sin(ks * phi)
    closing = v_x - v_y
    stop = np.flatnonzero(closing[:-1] <= 0)
    count = int(stop[0]) if stop.size else len(ks) - 1     # collisions that happen
    closing = closing[:count]
    pos = np.concatenate(([1.0], np.cumprod((v_x[:count] + v_y[:count]) / closing)))
    times = np.concatenate(([0.0], np.cumsum(2 * pos[:count] / closing)))
    v_x, v_y = v_x[:count + 1], v_y[:count + 1]
    for arr in (times, pos, v_x, v_y):
        arr.flags.writeable = False
    return CollisionTable(eps=eps, times=times, positions=pos, v_x=v_x, v_y=v_y)


# ---------------------------------------------------------------------------
# whole-ensemble kinematics: every channel shares the folded speed sequence,
# so positions and times scale linearly with the initial heavy position
# ---------------------------------------------------------------------------

def _pair_time(ki, y_m0, start, v_x0: float, table: CollisionTable):
    """Time of collision ki + 1 of the channel(s) y_m0, broadcast with ki, given
    the time of collision 1, start = (y_m0 - x_m0) / v_x0: gaps scale with y_m0."""
    rel = table.times[1:] - table.times[1]                    # zero-based gap sequence
    return start + y_m0 * rel[ki] / v_x0


def after_collision(ki, y_m0, x_m0: float, v_x0: float, table: CollisionTable):
    """Time, position and folded speeds after collision ki + 1 of the channel(s)
    y_m0 (broadcast with ki), and the time of the wall bounce that follows where
    vx_k > 0."""
    t_k = _pair_time(ki, y_m0, (y_m0 - x_m0) / v_x0, v_x0, table)
    pos_k = y_m0 * table.positions[1:][ki]
    vx_k = v_x0 * table.v_x[1:][ki]
    with np.errstate(divide="ignore"):
        t_wall = t_k + pos_k / vx_k
    return t_k, pos_k, vx_k, v_x0 * table.v_y[1:][ki], t_wall


def _positions(t: float, k, y_m0, x_m0: float, v_x0: float, table: CollisionTable):
    """(x_m, y_m, t_wall) at time t of the channel(s) y_m0 after k pair
    collisions, broadcast: free flight while k == 0, else linear motion from
    after_collision's state.  x_m is unfolded there: negative once the light
    particle is past the wall bounce at t_wall."""
    before = k == 0
    t_k, pos_k, vx_k, vy_k, t_wall = after_collision(np.maximum(k - 1, 0), y_m0, x_m0,
                                                     v_x0, table)
    tau = t - t_k
    y_m = np.where(before, y_m0, pos_k + tau * vy_k)
    x_m = np.where(before, x_m0 + v_x0 * t, pos_k - tau * vx_k)
    return x_m, y_m, t_wall


def channel_kinematics(t: float, y_m0, x_m0: float, v_x0: float,
                       table: CollisionTable):
    """Exact (x_m, y_m, pair count, wall count) at time t, vectorized over y_m0.

    y_m0 is a scalar or 1-D array of initial heavy positions, all positive.
    A searchsorted on the unit gap sequence gives each pair count to within one
    collision; one step up and one down against the channel's exact times
    (_pair_time) make it exact: O(log K) per channel, no (channels, K) array.
    Between collisions the light particle follows |y(k) - (t - t_k) v_x(k)|,
    which folds the wall bounce into one expression.  For the spreads of many
    channels over many instants, sample_spreads needs no per-channel work.
    """
    y_m0 = np.atleast_1d(np.asarray(y_m0, dtype=float))
    last = table.count - 1
    rel = table.times[1:] - table.times[1]
    start = (y_m0 - x_m0) / v_x0                              # time of collision 1
    k = np.searchsorted(rel, (t - start) * v_x0 / y_m0, "right")
    k[(k <= last) & (_pair_time(np.minimum(k, last), y_m0, start, v_x0, table) <= t)] += 1
    k[(k > 0) & (_pair_time(np.maximum(k - 1, 0), y_m0, start, v_x0, table) > t)] -= 1
    del start                                                 # one array fewer at the peak below
    before = k == 0
    ki = np.maximum(k - 1, 0)                                 # index into table rows
    x_m, y_m, t_wall = _positions(t, k, y_m0, x_m0, v_x0, table)
    np.abs(x_m, out=x_m, where=~before)
    # wall bounces: one after each collision once the light particle reaches
    # x = 0, provided it recoiled toward the wall (folded v_x > 0).  The
    # bounce after collision j comes before collision j+1, so every bounce
    # but the one after the latest collision has happened by t.
    toward_wall = table.v_x[1:] > 0
    earlier = np.concatenate(([0], np.cumsum(toward_wall)))
    latest = ~before & toward_wall[ki] & (t_wall <= t)
    return x_m, y_m, k, earlier[ki] + latest


def channel_blocks(t: float, y_sorted, x_m0: float, v_x0: float, table: CollisionTable):
    """The channels y_sorted (ascending) at time t as contiguous blocks of equal
    (pair count, wall count), counted as channel_kinematics counts them.

    Every collision and bounce time rises with y_m0, in floating point too, so
    the counts fall along y_sorted.  Returns (edges, pairs, walls): block b is
    y_sorted[edges[b]:edges[b + 1]].  Each pair count c from the first
    channel's down to the last channel's has two blocks, either may be empty:
    first the channels past the wall bounce after collision c, then the rest.
    Each edge is a bisection over y_sorted with channel_kinematics' exact
    comparisons: O(blocks log N), no per-channel work.
    """
    n = len(y_sorted)
    k_first, k_last = channel_kinematics(t, y_sorted[[0, -1]], x_m0, v_x0, table)[2]
    pairs = np.arange(k_first, k_last - 1, -1)
    ki = np.maximum(pairs - 1, 0)
    # channels with at least c pair collisions, and those past the bounce after
    # collision c, both a prefix of y_sorted: bisect for their lengths at once
    lo, hi = np.zeros((2, len(pairs)), int), np.full((2, len(pairs)), n)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        t_k, _, _, _, t_wall = after_collision(ki, y_sorted[np.minimum(mid, n - 1)],
                                               x_m0, v_x0, table)
        done = np.stack((t_k[0], t_wall[1])) <= t
        hi = np.where(done, hi, mid)
        lo = np.minimum(np.where(done, mid + 1, lo), hi)      # lo == hi: converged
    collided, bounced = np.where(pairs > 0, lo, n)
    lower = np.append(0, collided[:-1])                       # the start of c's channels
    # a bounce comes after its collision and well before the next one, so a
    # bounce edge lies between its count's two collision edges
    toward_wall = (pairs > 0) & (table.v_x[1:][ki] > 0)
    bounced = np.where(toward_wall, bounced, lower)
    edges = np.append(0, np.stack((bounced, collided), axis=-1).ravel())
    earlier = np.concatenate(([0], np.cumsum(table.v_x[1:] > 0)))[ki]
    walls = np.stack((earlier + toward_wall, earlier), axis=-1).ravel()
    return edges, np.repeat(pairs, 2), walls


def sample_spreads(ts, y_m0, x_m0: float, v_x0: float, table: CollisionTable):
    """Sample standard deviations (ddof = 1) of x_m and y_m over the channels
    y_m0, at least two, at each instant of ts: channel_kinematics' positions, summed by block.

    Within a channel_blocks block x_m and y_m are affine in u = y_m0 - centre,
    centre the median channel, with one sign of the wall fold, so a block's
    mean and spread follow from its count and its sums of u and u^2.  The
    channels are sorted once and those sums kept as prefix sums: O(N log N)
    once, then O(blocks log N) per instant.  Each block's coefficients are its
    positions (_positions) at u = 0 and u = centre.  The variance sums each block's squared
    distance from the mean and its spread about its own mean: no cancellation
    between blocks, so a vanishing spread stays accurate (exactly 0.0 while
    every channel is in free flight).  Returns (sd_x, sd_y), shaped like ts.
    """
    y_sorted = np.sort(y_m0)
    n = len(y_sorted)
    centre = y_sorted[n // 2]
    u = y_sorted - centre
    s1, s2 = np.zeros((2, n + 1))
    np.cumsum(u, out=s1[1:])
    np.cumsum(np.square(u, out=u), out=s2[1:])
    del u
    refs = np.array([[centre], [2 * centre]])
    out = np.empty((2, len(ts)))
    for j, t in enumerate(map(float, ts)):
        edges, pairs, _ = channel_blocks(t, y_sorted, x_m0, v_x0, table)
        full = np.flatnonzero(np.diff(edges))                 # the non-empty blocks
        start, stop = edges[full], edges[full + 1]
        count, S1, S2 = stop - start, s1[stop] - s1[start], s2[stop] - s2[start]
        x_m, y_m, _ = _positions(t, pairs[full], refs, x_m0, v_x0, table)
        x_m[:, full % 2 == 0] *= -1                           # past the bounce: fold
        at0, at1 = np.stack((x_m, y_m), axis=1)               # (x, y) at u = 0, centre
        slope = (at1 - at0) / centre
        u_mean = S1 / count
        block_mean = at0 + slope * u_mean
        mean = (count / n * block_mean).sum(axis=-1)
        var = (count * (block_mean - mean[:, None]) ** 2
               + slope * slope * (S2 - S1 * u_mean)).sum(axis=-1)
        out[:, j] = np.sqrt(np.maximum(var / (n - 1), 0.0))
    return out


def channel_trajectory(y_m0: float, x_m0: float, v_x0: float,
                       table: CollisionTable) -> ClassicalTrajectory:
    """The run of the channel starting at y_m0, with channel_kinematics'
    expressions: after the initial state, collision k's pair row and, where
    vx_k > 0, its wall row, with raw velocities -+vx_k and vy_k.
    event_driven_trajectory's states up to rounding, without a loop."""
    ki = np.arange(table.count)
    t_k, pos_k, vx_k, vy_k, t_wall = after_collision(ki, y_m0, x_m0, v_x0, table)
    keep = np.stack((np.ones(table.count, bool), vx_k > 0), axis=-1).ravel()

    def rows(start, pair, wall):
        events = np.stack(np.broadcast_arrays(pair, wall), axis=-1).ravel()[keep]
        return np.concatenate(([start], events))

    return ClassicalTrajectory(
        x=rows(x_m0, pos_k, 0.0), y=rows(y_m0, pos_k, pos_k + vy_k * (t_wall - t_k)),
        v_x=rows(v_x0, -vx_k, vx_k), v_y=rows(0.0, vy_k, vy_k),
        t=rows(0.0, t_k, t_wall), n=rows(0, ki + 1, ki + 1))


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

