import math

import numpy as np
import pytest

from qbounce.classical import (channel_kinematics, channel_trajectory,
                               closed_form_velocities, collision_angle,
                               collision_table, critical_count, ensemble_widths,
                               event_driven_trajectory, max_collisions,
                               pair_collision_times)
from qbounce.gaussian import MassPair
from oracles import (channel_coords, collision_position_approx, collision_time_approx,
                     collision_velocity_map, collisions_by_time, counts_at_linear_scan,
                     collision_table_recursion, events, folded_speeds_exact, ks_distance_to_gaussian,
                     masses_from_epsilon, monte_carlo_positions, pair_collisions_exact,
                     pair_events)


class TestCollisionVelocityMap:
    def test_heavy_at_rest_small_eps(self):
        m = masses_from_epsilon(0.1)
        vx, vy = collision_velocity_map(1.0, 0.0, m)
        assert vx == pytest.approx(0.99 / 1.01)
        assert vy == pytest.approx(0.02 / 1.01)

    def test_equal_masses_exchange(self):
        vx, vy = collision_velocity_map(1.0, 0.0, MassPair(1.0, 1.0))
        assert (vx, vy) == pytest.approx((0.0, 1.0))

    def test_energy_ellipse_preserved(self):
        m = masses_from_epsilon(0.1)
        vx, vy = 1.0, 0.0
        for _ in range(4):
            vx, vy = collision_velocity_map(vx, vy, m)
            assert vx**2 + vy**2 / m.epsilon**2 == pytest.approx(1.0, rel=1e-14)

    def test_non_closing_rejected(self):
        with pytest.raises(ValueError):
            collision_velocity_map(0.5, 0.5, masses_from_epsilon(0.1))


class TestCollisionAngle:
    def test_small_eps_value(self):
        assert collision_angle(0.1) == pytest.approx(0.199337, abs=1e-6)

    def test_tiny_eps_value(self):
        assert abs(collision_angle(0.01) - 0.02) < 1e-5

    def test_small_angle_limit(self):
        for eps in (1e-3, 1e-5, 1e-7):
            assert collision_angle(eps) / (2 * eps) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_cubic_error_bound(self, eps):
        assert abs(collision_angle(eps) - 2 * eps) <= 3 * eps**3

    @pytest.mark.parametrize("eps", [1.0, 1.5, 0.0, -0.1])
    def test_domain(self, eps):
        with pytest.raises(ValueError):
            collision_angle(eps)


class TestMaxCollisions:
    def test_reference_values(self):
        assert max_collisions(0.1) == 7
        assert max_collisions(0.01) == 78

    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
    def test_close_to_quarter_pi_law(self, eps):
        assert abs(max_collisions(eps) - math.pi / (4 * eps)) <= 1.0

    def test_matches_catchup_condition(self):
        # collision k happens while v_x(k-1) > v_y(k-1): the tabulated index
        # is reachable, and the chase is certainly over one step later
        for eps in (0.02, 0.07, 0.1, 0.3):
            phi = collision_angle(eps)
            n_max = max_collisions(eps)
            for n in range(n_max):
                assert math.cos(n * phi) > eps * math.sin(n * phi)
            n_done = n_max + 1
            assert math.cos(n_done * phi) <= eps * math.sin(n_done * phi)


class TestClosedFormVelocities:
    def test_initial(self):
        assert closed_form_velocities(0, 0.1, 2.0) == pytest.approx((2.0, 0.0))

    def test_first_collision_matches_map(self):
        m = masses_from_epsilon(0.1)
        want = collision_velocity_map(1.0, 0.0, m)
        assert closed_form_velocities(1, 0.1, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_matches_iterated_map(self, eps):
        m = masses_from_epsilon(eps)
        vx, vy = 1.0, 0.0
        for n in range(1, max_collisions(eps) + 1):
            vx, vy = collision_velocity_map(vx, vy, m)
            cf = closed_form_velocities(n, eps, 1.0)
            assert cf == pytest.approx((vx, vy), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m_y", [400.0, 2500.0, 1e6])
    def test_match_exact_rational_map_up_to_n_max(self, m_y):
        masses, v_x0 = MassPair(1.0, m_y), 190.0
        n = np.arange(max_collisions(masses.epsilon) + 1)
        exact = folded_speeds_exact(masses, v_x0, n[-1])
        want = np.array([(float(v_x), float(v_y)) for v_x, v_y in exact])
        got = np.column_stack(closed_form_velocities(n, masses.epsilon, v_x0))
        assert np.max(np.abs(got - want)) <= 1e-14 * v_x0

    def test_rotation_invariant_exact(self):
        for n in range(max_collisions(0.05) + 1):
            vx, vy = closed_form_velocities(n, 0.05, 3.0)
            assert vx**2 + vy**2 / 0.05**2 == pytest.approx(9.0, rel=1e-14)

    def test_monotone_exchange(self):
        eps = 0.05
        seq = [closed_form_velocities(n, eps, 1.0) for n in range(max_collisions(eps) + 1)]
        assert all(a[0] > b[0] for a, b in zip(seq, seq[1:]))
        assert all(a[1] < b[1] for a, b in zip(seq, seq[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form_velocities(max_collisions(0.1) + 1, 0.1, 1.0)


class TestEventDrivenTrajectory:
    def test_requires_interior_start(self):
        m = masses_from_epsilon(0.2)
        with pytest.raises(ValueError):
            event_driven_trajectory(-1.0, 5.0, 1.0, m)
        with pytest.raises(ValueError):
            event_driven_trajectory(6.0, 5.0, 1.0, m)

    def test_infinite_mass_limit_times(self):
        # with an essentially fixed heavy particle the pair events, shifted by
        # the first-flight offset, land on the 2 y0 n / v0 grid exactly
        m = MassPair(1.0, 1e14)
        traj = event_driven_trajectory(0.7, 2.0, 1.0, m, t_end=20.0)
        times = [e.t for e in pair_events(traj)]
        offset = (2.0 + 0.7) / 1.0
        for n, t in enumerate(times, start=1):
            assert t + offset == pytest.approx(2 * 2.0 * n / 1.0, rel=1e-7)

    def test_terminates_with_no_catchup(self):
        m = masses_from_epsilon(0.1)
        traj = event_driven_trajectory(1.0, 3.0, 1.0, m)
        assert traj.v_y[-1] > 0
        assert traj.v_x[-1] <= traj.v_y[-1]

    def test_energy_conserved_across_events(self):
        m = masses_from_epsilon(0.05)
        traj = event_driven_trajectory(1.0, 3.0, 1.0, m)
        e0 = 0.5 * m.m_x
        for e in events(traj):
            s = e.state
            en = 0.5 * (m.m_x * s.v_x**2 + m.m_y * s.v_y**2)
            assert en == pytest.approx(e0, rel=1e-12)

    def test_events_alternate_after_first_pair(self):
        m = masses_from_epsilon(0.08)
        traj = event_driven_trajectory(0.5, 2.0, 1.0, m)
        kinds = [e.kind for e in events(traj)]
        assert kinds[0] == "pair"
        for a, b in zip(kinds[:-1], kinds[1:]):
            assert a != b

    def test_times_strictly_increasing(self):
        m = masses_from_epsilon(0.12)
        traj = event_driven_trajectory(0.5, 2.0, 1.0, m)
        ts = [e.t for e in events(traj)]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
    def test_pair_count_near_max_collisions(self, eps):
        m = masses_from_epsilon(eps)
        traj = event_driven_trajectory(1.0, 3.0, 1.0, m)
        assert abs(len(pair_events(traj)) - max_collisions(eps)) <= 1

    def test_folded_velocities_match_closed_forms(self):
        eps = 0.1
        m = masses_from_epsilon(eps)
        traj = event_driven_trajectory(1.0, 3.0, 2.0, m)
        for n, e in enumerate(pair_events(traj), start=1):
            if n > max_collisions(eps):
                break
            vx, vy = closed_form_velocities(n, eps, 2.0)
            assert abs(e.state.v_x) == pytest.approx(vx, rel=1e-12)
            assert e.state.v_y == pytest.approx(vy, rel=1e-12)


class TestCollisionTableBridge:
    """The exact recursion table must reproduce the event-driven oracle."""

    def test_cached_table_is_shared_and_read_only(self):
        tab = collision_table(0.05)
        assert collision_table(0.05) is tab
        for arr in (tab.times, tab.positions, tab.v_x, tab.v_y):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.001])
    def test_cumulative_table_matches_the_recursion(self, eps):
        tab, want = collision_table(eps), collision_table_recursion(eps)
        assert tab.count == want.count
        for name in ("times", "positions", "v_x", "v_y"):
            got, ref = getattr(tab, name), getattr(want, name)
            assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)) <= 1e-13

    @pytest.mark.parametrize("eps", [0.05, 0.02, 0.01])
    def test_both_routes_match_exact_collisions(self, eps):
        # pair times and positions in exact rational arithmetic; the table
        # route and the event-driven simulator each hold them to 1e-12
        m = masses_from_epsilon(eps)
        x0, y0, v0 = 25.0, 50.0, 190.0
        exact = np.array([(float(t), float(y)) for t, y in pair_collisions_exact(m, x0, y0, v0)])
        for traj in (channel_trajectory(y0, x0, v0, collision_table(eps)),
                     event_driven_trajectory(x0, y0, v0, m)):
            pair = np.flatnonzero(np.diff(traj.n)) + 1      # the rows where n rises
            got = np.column_stack((traj.t[pair], traj.y[pair]))
            assert got.shape == exact.shape
            assert np.max(np.abs(got - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_times_and_positions_match_oracle(self, eps):
        m = masses_from_epsilon(eps)
        y0, x0, v0 = 3.0, 1.0, 2.0
        traj = event_driven_trajectory(x0, y0, v0, m)
        tab = collision_table(eps)
        times = pair_collision_times(np.array([y0]), x0, v0, tab)[0]
        for k, e in enumerate(pair_events(traj)):
            assert times[k] == pytest.approx(e.t, rel=1e-10)
            assert y0 * tab.positions[k + 1] == pytest.approx(e.state.y, rel=1e-10)

    def test_kinematics_match_oracle_states(self):
        eps = 0.07
        m = masses_from_epsilon(eps)
        y0, x0, v0 = 4.0, 1.5, 1.0
        traj = event_driven_trajectory(x0, y0, v0, m)
        tab = collision_table(eps)
        for t in np.linspace(0.1, traj.t[-1] * 0.9, 17):
            s = traj.state_at(float(t))
            x_m, y_m, n, w = channel_kinematics(float(t), np.array([y0]), x0, v0, tab)
            assert x_m[0] == pytest.approx(s.x, rel=1e-9, abs=1e-9)
            assert y_m[0] == pytest.approx(s.y, rel=1e-9)
            assert n[0] == s.n
            pair, wall = counts_at_linear_scan(traj, float(t))
            assert (n[0], w[0]) == (pair, wall)


class TestAsymptoticLaws:
    def test_position_trivial(self):
        assert collision_position_approx(0, 2.5, 0.05) == 2.5

    def test_position_reference_value(self):
        assert collision_position_approx(10, 1.0, 0.02) == pytest.approx(
            math.exp(0.08), rel=1e-12)

    def test_position_vs_oracle_one_percent(self):
        eps = 0.02
        tab = collision_table(eps)
        got = collision_position_approx(10, 1.0, eps)
        assert got == pytest.approx(tab.positions[10], rel=0.01)

    def test_time_trivial(self):
        assert collision_time_approx(0, 1.0, 1.0, 0.05) == 0.0

    def test_time_infinite_mass_limit(self):
        t = collision_time_approx(5, 2.0, 1.0, 1e-6)
        assert t == pytest.approx(2 * 2.0 * 5, rel=1e-9)

    def test_time_reference_value(self):
        # 20 [1 + 0.0004 (400/3 + 10 + 1/3)]; the correction increases the
        # time, consistent with the slowing chase and the counting inverse
        got = collision_time_approx(10, 1.0, 1.0, 0.02)
        assert got == pytest.approx(20 * (1 + 4e-4 * (400 / 3 + 10 + 1 / 3)), rel=1e-12)
        assert got > 20.0

    @pytest.mark.parametrize("eps", [0.02, 0.05])
    def test_time_within_window_tolerance(self, eps):
        tab = collision_table(eps)
        for n in range(1, max_collisions(eps) // 2 + 1):
            got = collision_time_approx(n, 1.0, 1.0, eps)
            assert got == pytest.approx(tab.times[n], rel=0.05)


class TestCollisionsByTime:
    def test_zero(self):
        assert collisions_by_time(0.0, 1.0, 1.0, 0.05) == 0

    def test_step_at_first_collision(self):
        eps = 0.05
        t1 = collision_time_approx(1, 1.0, 1.0, eps)
        assert collisions_by_time(t1 * 0.999, 1.0, 1.0, eps) == 0
        assert collisions_by_time(t1 * 1.001, 1.0, 1.0, eps) == 1

    def test_reference_count(self):
        # inverse of the corrected time law at t = 18.9 gives 9, matching the
        # exact recursion (18.74 <= 18.9 < 21.04)
        assert collisions_by_time(18.9, 1.0, 1.0, 0.02) == 9
        tab = collision_table(0.02)
        assert tab.times[9] <= 18.9 < tab.times[10]

    def test_consistent_with_exact_counts(self):
        eps = 0.05
        tab = collision_table(eps)
        for t in np.linspace(0.5, tab.times[max_collisions(eps) // 2], 23):
            approx = collisions_by_time(float(t), 1.0, 1.0, eps)
            exact = int((tab.times <= float(t)).sum() - 1)
            assert abs(approx - exact) <= 1


class TestChannelCoords:
    def test_reference_channel_returns_reference(self):
        eps = 0.05
        m = masses_from_epsilon(eps)
        traj = event_driven_trajectory(1.0, 3.0, 2.0, m)
        t = (traj.t[5] + traj.t[6]) / 2      # between events 5 and 6
        x_m, y_m = channel_coords(3.0, t, x_M0=1.0, y_M0=3.0, v_x0=2.0, eps=eps)
        s = traj.state_at(t)
        assert x_m == pytest.approx(s.x, rel=1e-9)
        assert y_m == pytest.approx(s.y, rel=1e-9)

    def test_offsets_match_two_oracle_runs(self):
        eps = 0.05
        m = masses_from_epsilon(eps)
        x0, y0, v0 = 1.0, 3.0, 2.0
        dy = 0.01
        ref = event_driven_trajectory(x0, y0, v0, m)
        other = event_driven_trajectory(x0, y0 + dy, v0, m)
        # mid-flight instant with five collisions behind the ensemble
        pair_ts = [e.t for e in pair_events(ref)]
        wall_ts = [e.t for e in events(ref) if e.kind == "wall"]
        t = (pair_ts[4] + wall_ts[4]) / 2
        x_m, y_m = channel_coords(y0 + dy, t, x_M0=x0, y_M0=y0, v_x0=v0, eps=eps)
        s = other.state_at(t)
        rs = ref.state_at(t)
        assert x_m - rs.x == pytest.approx(s.x - rs.x, rel=0.02)
        assert y_m - rs.y == pytest.approx(s.y - rs.y, rel=0.02)

    def test_mixed_phase_rejected(self):
        eps = 0.05
        m = masses_from_epsilon(eps)
        ref = event_driven_trajectory(1.0, 3.0, 2.0, m)
        t_evt = pair_events(ref)[3].t
        with pytest.raises(ValueError, match="mixed"):
            # a channel far enough out has not collided yet at the event time
            channel_coords(3.3, t_evt, x_M0=1.0, y_M0=3.0, v_x0=2.0, eps=eps)

    def test_linearity_three_point_collinearity(self):
        eps = 0.05
        m = masses_from_epsilon(eps)
        x0, y0, v0 = 1.0, 3.0, 2.0
        ref = event_driven_trajectory(x0, y0, v0, m)
        pair_ts = [e.t for e in pair_events(ref)]
        wall_ts = [e.t for e in events(ref) if e.kind == "wall"]
        t = (pair_ts[4] + wall_ts[4]) / 2
        offs = np.array([-0.01, 0.004, 0.012])
        xs, ys = [], []
        for d in offs:
            o = event_driven_trajectory(x0, y0 + d, v0, m).state_at(t)
            xs.append(o.x)
            ys.append(o.y)
        for vals in (xs, ys):
            slope = (vals[2] - vals[0]) / (offs[2] - offs[0])
            interp = vals[0] + slope * (offs[1] - offs[0])
            span = abs(vals[2] - vals[0])
            if span > 0:
                assert abs(vals[1] - interp) <= 0.02 * span


class TestEnsembleWidths:
    def test_initial(self):
        w = ensemble_widths(0, 0.05, 0.4)
        assert (w.dsigma_y, w.dsigma_x) == (0.4, 0.0)

    def test_quarter_period(self):
        eps = 0.05
        w = ensemble_widths(critical_count(eps), eps, 0.4)
        assert w.dsigma_y == pytest.approx(0.0, abs=1e-15)
        assert w.dsigma_x == pytest.approx(0.4 / eps, rel=1e-12)

    def test_monte_carlo_width_at_fixed_count(self):
        # 1e4 exact runs: the y spread contracts by |cos(2 eps n)| at fixed n
        eps, d0, n_probe = 0.05, 0.05, 5
        m = masses_from_epsilon(eps)
        traj = event_driven_trajectory(10.0, 30.0, 2.0, m)
        pair_ts = [e.t for e in pair_events(traj)]
        wall_ts = [e.t for e in events(traj) if e.kind == "wall"]
        t = (pair_ts[n_probe - 1] + wall_ts[n_probe - 1]) / 2
        xs, ys, ns = monte_carlo_positions(
            [t], 10_000, seed=7, y_M0=30.0, dsigma_y0=d0, x_M0=10.0,
            v_x0=2.0, eps=eps)
        assert (ns[:, 0] == n_probe).all()
        want = ensemble_widths(n_probe, eps, d0)
        assert np.std(ys[:, 0], ddof=1) == pytest.approx(want.dsigma_y, rel=0.02)
        assert np.std(xs[:, 0], ddof=1) == pytest.approx(want.dsigma_x, rel=0.02)

    def test_monte_carlo_sample_stays_gaussian(self):
        eps, d0 = 0.05, 0.05
        m = masses_from_epsilon(eps)
        traj = event_driven_trajectory(10.0, 30.0, 2.0, m)
        pair_ts = [e.t for e in pair_events(traj)]
        wall_ts = [e.t for e in events(traj) if e.kind == "wall"]
        t = (pair_ts[6] + wall_ts[6]) / 2      # n = 7 <= n_max / 2
        xs, ys, _ = monte_carlo_positions(
            [t], 10_000, seed=11, y_M0=30.0, dsigma_y0=d0, x_M0=10.0,
            v_x0=2.0, eps=eps)
        assert ks_distance_to_gaussian(ys[:, 0]) <= 0.02
        assert ks_distance_to_gaussian(xs[:, 0]) <= 0.02

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ensemble_widths(-1, 0.05, 0.3)
