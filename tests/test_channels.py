import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from qbounce.channels import (MixedPhaseError, ScenarioParams,
                              auto_schedule, entanglement_report, mixed_phase_gate,
                              propagate_ensemble, reference_trajectory, schmidt_entropy_from_purity,
                              split_width)
from qbounce.gaussian import MassPair, QuadraticFormState
from oracles import (assemble_quadratic_form, assembled_coefficients_by_quadrature,
                     axx_formula, axy_formula, ayy_formula, betas, composed_marginal_variances,
                     covariance, energy_exchange_check, ensemble_at_count, events,
                     log_norm_sq, masses_from_epsilon, means, momentum_means, pair_events,
                     product_form, purity_by_quadrature)


def make_params(eps=0.05, sigma0x=1.0, sigma0y=0.5, x_M0=25.0, y_M0=50.0,
                p_x0=190.0):
    return ScenarioParams(x_M0=x_M0, y_M0=y_M0, sigma0x=sigma0x,
                          sigma0y=sigma0y, p_x0=p_x0,
                          masses=masses_from_epsilon(eps))


class TestScenarioParams:
    def test_validity_figure(self):
        p = make_params()
        assert p.validity_figure == pytest.approx(0.05 * 1.0 * 190.0 / math.pi)

    def test_orders_enforced(self):
        with pytest.raises(ValueError):
            make_params(x_M0=50.0, y_M0=25.0)

    def test_width_ratio_enforced(self):
        with pytest.raises(ValueError, match="broad"):
            make_params(sigma0x=2.0)

    def test_broad_heavy_branch_enforced(self):
        # matched widths leave nothing to decompose
        with pytest.raises(ValueError):
            make_params(sigma0y=0.05)

    def test_momentum_sign(self):
        with pytest.raises(ValueError):
            make_params(p_x0=-3.0)


class TestSplitWidth:
    def test_reference_values(self):
        p = ScenarioParams(x_M0=25.0, y_M0=50.0, sigma0x=1.0, sigma0y=0.5,
                           p_x0=50.0, masses=masses_from_epsilon(0.1))
        dsigma, s_t = split_width(p)
        assert s_t == pytest.approx(0.1)
        assert dsigma == pytest.approx(math.sqrt(0.25 - 0.01))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_convolution_reconstructs_original(self):
        # quad flags its own roundoff detection at these tolerances; the
        # 1e-12 agreement below is the actual accuracy statement
        p = make_params()
        dsigma, s_t = split_width(p)

        def conv(y):
            val, _ = quad(lambda u: math.exp(-u * u / (2 * dsigma**2))
                          * math.exp(-(y - u) ** 2 / (2 * s_t**2)),
                          -14 * dsigma, 14 * dsigma, limit=400,
                          epsabs=1e-15, epsrel=1e-14)
            return val

        c0 = conv(0.0)
        for y in (0.3, 0.7, 1.2):
            want = math.exp(-y * y / (2 * p.sigma0y**2))
            assert conv(y) / c0 == pytest.approx(want, rel=1e-12)

    def test_boundary_is_single_channel(self):
        # matched widths cannot be represented as ScenarioParams (the strict
        # branch gate fires), and split_width itself rejects them too
        p = make_params()

        class Boundary:
            masses = p.masses
            sigma0x = p.sigma0x
            sigma0y = math.sqrt(p.masses.m_x / p.masses.m_y) * p.sigma0x

        with pytest.raises(ValueError, match="single channel"):
            split_width(Boundary())


class TestInitialEnsemble:
    def test_structure(self):
        p = make_params()
        e = propagate_ensemble(p, 0.0)
        dsigma, _ = split_width(p)
        assert e.n == 0
        assert e.dsigma_y_n == pytest.approx(dsigma)
        assert (e.x_center, e.y_center) == (p.x_M0, p.y_M0)
        assert (e.p_xn, e.p_yn) == (p.p_x0, 0.0)


class TestMixedPhaseGate:
    def test_true_at_zero(self):
        p = make_params()
        assert mixed_phase_gate(p, 0.0)

    def test_false_at_first_collision(self):
        p = make_params()
        t1 = pair_events(reference_trajectory(p))[0].t
        assert not mixed_phase_gate(p, t1)

    def test_true_between_first_and_second(self):
        # the midpoint of the first collision and the wall bounce after it
        # passes; the bounce itself, with channels on both sides, does not
        p = make_params()
        ev = events(reference_trajectory(p))
        assert [e.kind for e in ev[:2]] == ["pair", "wall"]
        assert mixed_phase_gate(p, (ev[0].t + ev[1].t) / 2)
        assert not mixed_phase_gate(p, ev[1].t)

    def test_error_reports_safe_instants(self):
        p = make_params()
        t1 = pair_events(reference_trajectory(p))[0].t
        with pytest.raises(MixedPhaseError) as err:
            propagate_ensemble(p, t1)
        assert_names_the_event_window(p, err.value, t1)


def assert_names_the_event_window(p, err, t):
    """err's window [start, stop) holds t, its edges are the nearest instants
    the gate accepts, and the auto schedule keeps no instant inside it."""
    assert err.t == t
    assert err.start <= t < err.stop
    assert mixed_phase_gate(p, err.stop)
    assert mixed_phase_gate(p, np.nextafter(err.start, -np.inf))
    assert not any(err.start <= s < err.stop for s in auto_schedule(p))


class TestPropagateEnsemble:
    def test_free_flight_before_first_collision(self):
        p = make_params()
        e = propagate_ensemble(p, 0.05)
        assert e.n == 0
        assert e.x_center == pytest.approx(p.x_M0 + p.v_x0 * 0.05)
        assert e.y_center == pytest.approx(p.y_M0)
        assert e.dsigma_y_n == pytest.approx(propagate_ensemble(p, 0.0).dsigma_y_n)

    def test_counts_and_widths_along_schedule(self):
        p = make_params()
        dsigma0, _ = split_width(p)
        eps = p.eps
        last_n = -1
        for t in auto_schedule(p):
            e = propagate_ensemble(p, t)
            assert e.n >= last_n
            last_n = e.n
            assert e.dsigma_y_n == pytest.approx(dsigma0 * abs(math.cos(2 * eps * e.n)))

    def test_sign_flips_between_pair_and_wall(self):
        p = make_params()
        traj = reference_trajectory(p)
        pair1 = pair_events(traj)[0]
        wall1 = next(e for e in events(traj) if e.kind == "wall")
        mid_in = (pair1.t + wall1.t) / 2
        e = propagate_ensemble(p, mid_in)
        assert e.p_xn < 0
        after = next(e2 for e2 in events(traj) if e2.t > wall1.t)
        mid_out = (wall1.t + after.t) / 2
        e = propagate_ensemble(p, mid_out)
        assert e.p_xn > 0

    def test_contraction_at_critical_count(self):
        p = make_params()
        dsigma0, _ = split_width(p)
        e = ensemble_at_count(p, p.n_cr, 8.0)
        assert e.dsigma_y_n <= 1e-12 * dsigma0


class TestAssembleQuadraticForm:
    def test_initial_state_recovered(self):
        # at n = 0 the blur of narrow channels reassembles the original product
        p = make_params()
        e = propagate_ensemble(p, 0.0)
        st = assemble_quadratic_form(e, p)
        want = product_form(p.packet_x(), p.packet_y())
        assert abs(st.a_xy) < 1e-14
        assert st.a_xx == pytest.approx(want.a_xx, rel=1e-12)
        assert st.a_yy == pytest.approx(want.a_yy, rel=1e-12)
        assert st.b_x == pytest.approx(want.b_x, rel=1e-12)
        assert st.b_y == pytest.approx(want.b_y, rel=1e-12)

    def test_normalized(self):
        p = make_params()
        for t in auto_schedule(p)[:6]:
            e = propagate_ensemble(p, t)
            st = assemble_quadratic_form(e, p)
            assert log_norm_sq(st) == pytest.approx(0.0, abs=1e-10)

    def test_centers_and_momenta_encoded(self):
        p = make_params()
        t = auto_schedule(p)[7]
        e = propagate_ensemble(p, t)
        st = assemble_quadratic_form(e, p)
        mx, my = means(st)
        assert mx == pytest.approx(e.x_center, rel=1e-9)
        assert my == pytest.approx(e.y_center, rel=1e-9)
        px, py = momentum_means(st)
        assert px == pytest.approx(e.p_xn, rel=1e-9)
        assert py == pytest.approx(e.p_yn, rel=1e-9)

    def test_coefficients_match_quadrature(self):
        p = make_params()
        t = auto_schedule(p)[5]
        e = propagate_ensemble(p, t)
        st = assemble_quadratic_form(e, p)
        d0, _ = split_width(p)
        want = assembled_coefficients_by_quadrature(p, e, d0)
        for name in ("a_xx", "a_yy", "a_xy", "b_x", "b_y"):
            assert getattr(st, name) == pytest.approx(want[name], rel=1e-8)

    def test_marginal_variances_match_composition(self):
        p = make_params()
        for idx in (3, 9, 15):
            t = auto_schedule(p)[idx]
            e = propagate_ensemble(p, t)
            st = assemble_quadratic_form(e, p)
            cov = covariance(st)
            var_x, var_y = composed_marginal_variances(p, e.n, t)
            assert cov[0, 0] == pytest.approx(var_x, rel=1e-6)
            assert cov[1, 1] == pytest.approx(var_y, rel=1e-6)


class TestCoefficientFormulas:
    def test_axy_zeros(self):
        p = make_params()
        bx2, by2 = betas(p, 3.0)
        assert axy_formula(0, p.eps, bx2, by2) == 0
        assert abs(axy_formula(p.n_cr, p.eps, bx2, by2)) < 1e-14

    def test_axy_matches_assembled(self):
        # the explicit integral and the closed formula agree identically,
        # far beyond the documented 10% cross-check tolerance
        p = make_params()
        for idx in (3, 7, 11):
            t = auto_schedule(p)[idx]
            e = propagate_ensemble(p, t)
            st = assemble_quadratic_form(e, p)
            bx2, by2 = betas(p, t)
            want = axy_formula(e.n, p.eps, bx2, by2)
            if abs(want) > 0:
                assert st.a_xy == pytest.approx(want, rel=1e-10)
            assert st.a_xx == pytest.approx(axx_formula(e.n, p.eps, bx2, by2), rel=1e-10)
            assert st.a_yy == pytest.approx(ayy_formula(e.n, p.eps, bx2, by2), rel=1e-10)

    def test_energy_exchange_at_critical_count(self):
        p = make_params()
        assert energy_exchange_check(8.0, p)

    def test_energy_exchange_quarter_period_structure(self):
        # cos term vanishes at 2 eps n = pi/2 in both diagonal formulas
        p = make_params()
        bx2, by2 = betas(p, 5.0)
        n_cr = p.n_cr
        assert axx_formula(n_cr, p.eps, bx2, by2) == pytest.approx(
            -p.eps**2 / (2 * by2), rel=1e-12)
        assert ayy_formula(n_cr, p.eps, bx2, by2) == pytest.approx(
            -1 / (2 * p.eps**2 * bx2), rel=1e-12)

    def test_initial_coefficients_untransformed(self):
        p = make_params()
        bx2, by2 = betas(p, 0.0)
        assert axx_formula(0, p.eps, bx2, by2) == pytest.approx(-1 / (2 * bx2))
        assert ayy_formula(0, p.eps, bx2, by2) == pytest.approx(-1 / (2 * by2))


class TestEntanglementReport:
    def test_product_state(self):
        st = QuadraticFormState(a_xx=-0.5, a_yy=-0.7, a_xy=0.0, b_x=0.2,
                                b_y=-0.4j)
        rep = entanglement_report(st)
        assert rep.purity == 1.0
        assert rep.schmidt_entropy == 0.0

    def test_generic_state_matches_quadrature_oracle(self):
        st = QuadraticFormState(a_xx=-0.5 + 0.1j, a_yy=-0.7 - 0.05j,
                                a_xy=0.12 + 0.08j, b_x=0.3 + 0.7j,
                                b_y=-0.2 + 0.4j)
        rep = entanglement_report(st)
        assert rep.purity == pytest.approx(purity_by_quadrature(st, n=400), abs=1e-4)

    def test_displacement_and_phase_invariance(self):
        st = QuadraticFormState(a_xx=-0.5 + 0.1j, a_yy=-0.7 - 0.05j,
                                a_xy=0.12 + 0.08j, b_x=0.3 + 0.7j,
                                b_y=-0.2 + 0.4j)
        moved = replace(st, b_x=st.b_x + 1.3 - 0.2j, b_y=st.b_y - 0.6 + 1.1j,
                        log_norm=st.log_norm + 2.2j)
        assert entanglement_report(moved).purity == entanglement_report(st).purity

    def test_purity_one_iff_no_cross_term(self):
        p = make_params()
        for idx in (2, 8, 14):
            t = auto_schedule(p)[idx]
            e = propagate_ensemble(p, t)
            st = assemble_quadratic_form(e, p)
            rep = entanglement_report(st)
            if abs(rep.a_xy) < 1e-10:
                assert rep.purity == pytest.approx(1.0, abs=1e-10)
            else:
                assert rep.purity < 1.0

    def test_entropy_monotone_in_purity(self):
        purities = [0.2, 0.5, 0.9, 0.999, 1.0]
        ents = [schmidt_entropy_from_purity(p) for p in purities]
        assert all(a > b for a, b in zip(ents, ents[1:]))
        assert ents[-1] == 0.0

    def test_non_normalizable_rejected(self):
        # the state's own rule rejects it before any report reads it
        with pytest.raises(ValueError, match="not normalizable"):
            entanglement_report(QuadraticFormState(a_xx=-1.0, a_yy=-1.0, a_xy=2.5,
                                                   b_x=0.0, b_y=0.0))

    @pytest.mark.parametrize("k", [-1000, -600, -1, 0, 1, 600, 1000])
    def test_purity_is_the_same_at_every_power_of_two_scale(self, k):
        # one power of two scales A, D and a_xy alike and leaves the purity,
        # bit for bit, also where A D itself underflows or overflows
        st = QuadraticFormState(a_xx=-0.3 + 0.2j, a_yy=-1.7 - 0.4j, a_xy=0.25 + 0.6j,
                                b_x=0.0, b_y=0.0)
        scaled = QuadraticFormState(a_xx=st.a_xx * 2.0**k, a_yy=st.a_yy * 2.0**k,
                                    a_xy=st.a_xy * 2.0**k, b_x=0.0, b_y=0.0)
        want = entanglement_report(st)
        got = entanglement_report(scaled)
        assert 0 < want.purity < 1
        assert got.purity == want.purity
        assert got.schmidt_entropy == want.schmidt_entropy

    def test_subnormal_widths_are_rejected(self):
        # once A or D is subnormal the scaling overflows: the one rule rejects
        # the state instead of reporting a purity from a few bits
        with pytest.raises(ValueError, match="not normalizable"):
            QuadraticFormState(a_xx=-1e-310, a_yy=-1e-310, a_xy=0.0, b_x=0.0, b_y=0.0)


class TestEntanglementArc:
    def test_rise_and_return(self):
        p = make_params()
        purities = {}
        for t in auto_schedule(p):
            e = propagate_ensemble(p, t)
            rep = entanglement_report(assemble_quadratic_form(e, p))
            purities.setdefault(e.n, rep.purity)
        assert purities[0] == 1.0
        assert min(purities.values()) < 0.9
        # purity at the critical count returns to one
        e = ensemble_at_count(p, p.n_cr, 8.0)
        rep = entanglement_report(assemble_quadratic_form(e, p))
        assert rep.purity == pytest.approx(1.0, abs=1e-6)
        assert abs(rep.a_xy) <= 1e-10

    def test_purity_time_independent_between_collisions(self):
        # free flight is local unitary evolution: entanglement frozen at fixed n
        p = make_params()
        traj = reference_trajectory(p)
        t_a = auto_schedule(p)[3]
        e_a = propagate_ensemble(p, t_a)
        t_b = auto_schedule(p)[4]
        e_b = propagate_ensemble(p, t_b)
        assert e_a.n == e_b.n
        pa = entanglement_report(assemble_quadratic_form(e_a, p)).purity
        pb = entanglement_report(assemble_quadratic_form(e_b, p)).purity
        assert pa == pytest.approx(pb, rel=1e-12)


class TestNearestSafeInstants:
    def test_bracket_requested_instant(self):
        p = make_params()
        t1 = pair_events(reference_trajectory(p))[0].t
        with pytest.raises(MixedPhaseError) as err:
            propagate_ensemble(p, t1)
        assert_names_the_event_window(p, err.value, t1)

    def test_skips_auto_instants_that_fail_the_gate(self):
        # eps = 0.02: the +-3 sigma span of channels straddles a collision at
        # reference midpoints 18 to 60; the auto schedule leaves them out
        p = ScenarioParams(x_M0=25.0, y_M0=50.0, sigma0x=1.0, sigma0y=0.5,
                           p_x0=190.0, masses=MassPair(1.0, 2500.0))
        ts = reference_trajectory(p).t.tolist()
        mids = [(a + b) / 2 for a, b in zip(ts[:-1], ts[1:])]
        mids.append(ts[-1] + (ts[-1] - ts[-2]) / 2)
        unsafe = [i for i, t in enumerate(mids) if not mixed_phase_gate(p, t)]
        assert unsafe == list(range(18, 61))
        assert auto_schedule(p).tolist() == mids[:18] + mids[61:]
        for t in mids[18], mids[60]:
            with pytest.raises(MixedPhaseError) as err:
                propagate_ensemble(p, t)
            assert_names_the_event_window(p, err.value, t)
