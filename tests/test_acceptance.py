"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The grid criteria (8 and 9) dominate the runtime (several minutes).
"""

import math

import numpy as np
import pytest

from qbounce.channels import (ScenarioParams, auto_schedule, entanglement_report,
                              propagate_ensemble, purity_from_coefficients, split_width)
from qbounce.classical import collision_table, event_driven_trajectory, max_collisions
from qbounce.gaussian import GaussianPacket, MassPair
from qbounce import grid
from oracles import (assemble_quadratic_form, assembled_coefficients_by_quadrature,
                     collide_gaussians, collision_position_approx, collision_time_approx,
                     energy_exchange_check, ensemble_at_count, events, free_evolve,
                     masses_from_epsilon, monte_carlo_positions, normalized, overlap,
                     pair_collision_times, pair_events, purity_by_quadrature)

ARC_PARAMS = ScenarioParams(x_M0=25.0, y_M0=50.0, sigma0x=1.0, sigma0y=0.5,
                            p_x0=190.0, masses=masses_from_epsilon(0.05))


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_entanglement_arc():
    p = ARC_PARAMS
    assert p.validity_figure >= 3.0

    purity_start = entanglement_report(
        assemble_quadratic_form(propagate_ensemble(p, 0.0), p)).purity
    assert purity_start == 1.0

    best_purity, best_state, best_n = 2.0, None, None
    for t in auto_schedule(p):
        e = propagate_ensemble(p, t)
        if 0 < e.n < p.n_cr:
            st = assemble_quadratic_form(e, p)
            rep = entanglement_report(st)
            if rep.purity < best_purity:
                best_purity, best_state, best_n = rep.purity, st, e.n
    oracle_purity = purity_by_quadrature(best_state, n=400)
    assert abs(oracle_purity - best_purity) <= 1e-4
    assert oracle_purity < 0.9

    e_cr = ensemble_at_count(p, p.n_cr, 8.0)
    rep_cr = entanglement_report(assemble_quadratic_form(e_cr, p))
    assert rep_cr.purity == pytest.approx(1.0, abs=1e-6)
    assert abs(rep_cr.a_xy) <= 1e-10
    report(1, f"purity 1 -> {best_purity:.4f} (oracle {oracle_purity:.4f}) "
              f"at n={best_n} -> {rep_cr.purity:.10f} at n_cr; "
              f"|a_xy(n_cr)| = {abs(rep_cr.a_xy):.2e}")


def test_criterion_2_collision_count_law():
    lines = []
    for eps in (0.1, 0.05, 0.02):
        n_max = max_collisions(eps)
        assert abs(n_max - math.pi / (4 * eps)) <= 1.0
        m = masses_from_epsilon(eps)
        traj = event_driven_trajectory(1.0, 3.0, 1.0, m)
        assert abs(len(pair_events(traj)) - n_max) <= 1
        lines.append(f"eps={eps}: n_max={n_max}, oracle={len(pair_events(traj))}")
    report(2, "; ".join(lines))


def test_criterion_3_velocity_closed_forms():
    worst = 0.0
    for eps in (0.1, 0.01):
        m = masses_from_epsilon(eps)
        v0 = 1.7
        traj = event_driven_trajectory(1.0, 3.0, v0, m)
        tab = collision_table(eps)
        for n, event in enumerate(pair_events(traj), start=1):
            if n > max_collisions(eps):
                break
            vx, vy = v0 * tab.v_x[n], v0 * tab.v_y[n]
            worst = max(worst,
                        abs(abs(event.state.v_x) - vx) / vx if vx else 0.0,
                        abs(event.state.v_y - vy) / vy)
    assert worst <= 1e-12
    report(3, f"closed forms vs event-driven composition, worst rel dev {worst:.2e}")


def test_criterion_4_asymptotic_positions_and_times():
    worst_pos = worst_time = 0.0
    for eps in (0.05, 0.02):
        m = masses_from_epsilon(eps)
        y0, x0, v0 = 1.0, 0.35, 1.0
        traj = event_driven_trajectory(x0, y0, v0, m)
        pairs = pair_events(traj)
        # exact-recursion bridge: the table reproduces the oracle outright
        tab = collision_table(eps)
        times = pair_collision_times(np.array([y0]), x0, v0, tab)[0]
        for k, e in enumerate(pairs):
            assert times[k] == pytest.approx(e.t, rel=1e-10)
            assert y0 * tab.positions[k + 1] == pytest.approx(e.state.y, rel=1e-10)
        # the asymptotic laws measure time from a virtual bounce at the heavy
        # particle's initial position, so the oracle times gain (y0 + x0)/v0
        offset = (y0 + x0) / v0
        for n in range(1, max_collisions(eps) // 2 + 1):
            t_from_oracle = pairs[n - 1].t + offset
            y_from_oracle = pairs[n - 1].state.y
            dt = abs(collision_time_approx(n, y0, v0, eps) - t_from_oracle) / t_from_oracle
            dy = abs(collision_position_approx(n, y0, eps) - y_from_oracle) / y_from_oracle
            worst_time = max(worst_time, dt)
            worst_pos = max(worst_pos, dy)
    assert worst_pos <= 0.05
    assert worst_time <= 0.05
    report(4, f"asymptotics vs oracle, worst pos {worst_pos:.3f}, "
              f"worst time {worst_time:.3f} (tolerance 0.05)")


def test_criterion_5_monte_carlo_width_laws():
    eps, d0, y0, x0, v0, seed = 0.02, 0.1, 50.0, 25.0, 1.0, 12
    m = masses_from_epsilon(eps)
    traj = event_driven_trajectory(x0, y0, v0, m)
    pairs = pair_events(traj)
    walls = [e for e in events(traj) if e.kind == "wall"]
    times = [pairs[0].t / 2]
    for pe in pairs:
        w = next((we for we in walls if we.t > pe.t), None)
        times.append((pe.t + w.t) / 2 if w is not None else pe.t + 1.0)
    xs, ys, ns = monte_carlo_positions(times, 10_000, seed, y_M0=y0,
                                       dsigma_y0=d0, x_M0=x0, v_x0=v0, eps=eps)
    worst_y = worst_x = 0.0
    checked = 0
    for j in range(len(times)):
        n = ns[0, j]
        assert (ns[:, j] == n).all(), "sample straddles a collision"
        sy = float(np.std(ys[:, j], ddof=1))
        sx = float(np.std(xs[:, j], ddof=1))
        want_y = d0 * abs(math.cos(2 * eps * n))
        want_x = d0 / eps * abs(math.sin(2 * eps * n))
        if want_y > 0.05 * d0:
            assert sy == pytest.approx(want_y, rel=0.02)
            worst_y = max(worst_y, abs(sy - want_y) / want_y)
        else:
            assert abs(sy - want_y) <= 0.02 * d0
        if want_x > 0.05 * d0:
            assert sx == pytest.approx(want_x, rel=0.02)
            worst_x = max(worst_x, abs(sx - want_x) / want_x)
        else:
            assert abs(sx - want_x) <= 0.02 * d0
        checked += 1
    assert checked == len(pairs) + 1
    report(5, f"width laws over n=0..{int(ns[:, -1].max())} "
              f"(10^4 samples, seed {seed}): worst rel dev "
              f"y {worst_y:.4f}, x {worst_x:.4f} (tolerance 0.02)")


def test_criterion_6_assembly_matches_quadrature():
    p = ARC_PARAMS
    d0, _ = split_width(p)
    ensembles = []
    seen = set()
    for t in auto_schedule(p):
        e = propagate_ensemble(p, t)
        if e.n in (1, 3) and e.n not in seen:
            seen.add(e.n)
            ensembles.append(e)
    ensembles.append(ensemble_at_count(p, p.n_cr, 8.0))
    worst = 0.0
    for e in ensembles:
        st = assemble_quadratic_form(e, p)
        want = assembled_coefficients_by_quadrature(p, e, d0)
        # a coefficient that vanishes identically (the cross term at the
        # critical count) is compared against the size of the quadratic form
        scale = max(abs(getattr(st, n))
                    for n in ("a_xx", "a_yy", "a_xy", "b_x", "b_y"))
        for name in ("a_xx", "a_yy", "a_xy", "b_x", "b_y"):
            got = getattr(st, name)
            ref = abs(got) if abs(got) > 1e-6 * scale else scale
            dev = abs(got - want[name]) / ref
            worst = max(worst, dev)
            assert dev <= 1e-8, (e.n, name, got, want[name])
    report(6, f"five coefficients vs quadrature at n in (1, 3, n_cr): "
              f"worst rel dev {worst:.2e} (tolerance 1e-8)")


def test_criterion_7_energy_exchange_identity():
    from qbounce.channels import _betas
    p = ARC_PARAMS
    assert energy_exchange_check(8.0, p)
    e = ensemble_at_count(p, p.n_cr, 8.0)
    st = assemble_quadratic_form(e, p)
    bx2, by2 = _betas(p, 8.0)
    dev_xx = abs(st.a_xx - (-p.eps**2 / (2 * by2))) / abs(st.a_xx)
    dev_yy = abs(st.a_yy - (-1 / (2 * p.eps**2 * bx2))) / abs(st.a_yy)
    report(7, f"a_xx(n_cr) and a_yy(n_cr) swap roles: rel devs "
              f"{dev_xx:.2e}, {dev_yy:.2e} (tolerance 1e-8)")


DESK_MASSES = MassPair(1.0, 25.0)        # eps = 0.2
DESK = dict(n=512, length=32.0, x0=14.6, y0=29.0, sigma0x=2.5, p0=4.5,
            dt=1.35e-3, t_end=5.4)


def _desk_run(sigma0y):
    spec = grid.GridSpec(n=DESK["n"], length=DESK["length"])
    px = GaussianPacket.initial(DESK["x0"], DESK["sigma0x"], DESK["p0"], 1.0)
    py = GaussianPacket.initial(DESK["y0"], sigma0y, 0.0, DESK_MASSES.m_y)
    f = grid.field_from_packets(px, py, spec, cutoff=True)
    steps = int(round(DESK["t_end"] / DESK["dt"]))
    f2 = grid.evolve(f, DESK_MASSES, dt=DESK["dt"], steps=steps)
    st = normalized(collide_gaussians(free_evolve(px, DESK["t_end"]),
                                      free_evolve(py, DESK["t_end"]),
                                      DESK_MASSES, check=False))
    return f2, st


@pytest.mark.slow
def test_criterion_8_grid_cross_validation():
    # generic (entangling) widths
    f_gen, st_gen = _desk_run(sigma0y=0.7)
    ov_gen = abs(overlap(f_gen, st_gen))
    p_grid = grid.schmidt_purity(f_gen)
    p_ana = purity_from_coefficients(st_gen.a_xx, st_gen.a_yy, st_gen.a_xy)
    assert ov_gen >= 0.95
    assert abs(p_grid - p_ana) <= 0.05

    # matched widths: the collision must not entangle
    f_eq, st_eq = _desk_run(sigma0y=DESK_MASSES.epsilon * DESK["sigma0x"])
    ov_eq = abs(overlap(f_eq, st_eq))
    p_eq = grid.schmidt_purity(f_eq)
    assert ov_eq >= 0.95
    assert p_eq >= 0.999
    report(8, f"desk scale eps=0.2 512^2: generic |ov|={ov_gen:.3f}, "
              f"|purity {p_grid:.4f} - analytic {p_ana:.4f}| <= 0.05; "
              f"matched widths |ov|={ov_eq:.3f}, grid purity {p_eq:.5f} >= 0.999")


@pytest.mark.slow
def test_criterion_9_grid_unitarity_and_convergence():
    # per-step norm drift on a live collision configuration
    spec = grid.GridSpec(n=256, length=16.0)
    px = GaussianPacket.initial(7.3, 1.25, 3.0, 1.0)
    py = GaussianPacket.initial(14.5, 0.35, 0.0, 25.0)
    f = grid.field_from_packets(px, py, spec, cutoff=True)
    norms = [f.norm_sq]
    for _ in range(60):
        f = grid.evolve(f, DESK_MASSES, dt=2e-3, steps=1)
        norms.append(f.norm_sq)
    drift = float(np.abs(np.diff(norms)).max())
    assert drift <= 1e-8

    # second-order convergence of the post-collision purity under joint
    # refinement of h and dt
    purities = {}
    for n in (128, 256, 512):
        spc = grid.GridSpec(n=n, length=16.0)
        f0 = grid.field_from_packets(px, py, spc, cutoff=True)
        dt = (16.0 / n) / 10
        f1 = grid.evolve(f0, DESK_MASSES, dt=dt, steps=int(round(3.2 / dt)))
        purities[n] = grid.schmidt_purity(f1)
    ratio = (purities[128] - purities[256]) / (purities[256] - purities[512])
    assert 3.0 <= ratio <= 5.0
    report(9, f"max per-step norm drift {drift:.2e} (<= 1e-8); "
              f"purity refinement ratio {ratio:.2f} in [3, 5]")
