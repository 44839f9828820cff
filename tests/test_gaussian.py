import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbounce.gaussian import (GaussianPacket, MassPair, QuadraticFormState, collide_velocities,
                              width_param)
from oracles import (collide_gaussians, collision_matrix, collision_velocity_map,
                     density_overlap, evaluate, evaluate_packet, evaluate_with_image,
                     free_evolve, halfline_norm_quadrature, log_norm_sq, momentum_means,
                     normalized, packet_norm_quadrature, packet_norm_sq,
                     post_collision_momenta, product_form, state_norm_quadrature,
                     substitute_linear, wall_reflect)


class TestWidthParam:
    def test_initial(self):
        assert width_param(1.0, 1.0, 0.0) == 1.0 + 0.0j

    @pytest.mark.parametrize("sigma0,mass,t,expected", [
        (1.0, 1.0, 1.0, 1 + 1j),
        (2.0, 0.5, 2.0, 4 + 4j),
    ])
    def test_direct_values(self, sigma0, mass, t, expected):
        assert width_param(sigma0, mass, t) == pytest.approx(expected)

    def test_imaginary_part_increases(self):
        vals = [width_param(1.3, 2.0, t).imag for t in (0.0, 0.5, 1.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("sigma0,mass", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, sigma0, mass):
        with pytest.raises(ValueError):
            width_param(sigma0, mass, 1.0)


class TestFreeEvolve:
    def test_packet_at_rest_keeps_center(self):
        p = GaussianPacket.initial(1.5, 0.8, 0.0, 2.0)
        assert free_evolve(p, 7.0).center == 1.5

    def test_ballistic_center(self):
        p = GaussianPacket.initial(0.0, 1.0, 1.0, 1.0)
        assert free_evolve(p, 3.0).center == pytest.approx(3.0)

    def test_width_follows_width_param(self):
        p = GaussianPacket.initial(0.0, 1.3, 2.0, 0.7)
        out = free_evolve(p, 2.4)
        assert out.width_sq == pytest.approx(width_param(1.3, 0.7, 2.4))

    def test_norm_preserved_quadrature(self):
        p = GaussianPacket.initial(-1.0, 0.6, 3.0, 1.5)
        before = packet_norm_quadrature(p)
        after = packet_norm_quadrature(free_evolve(p, 2.0))
        assert before == pytest.approx(1.0, abs=1e-10)
        assert after == pytest.approx(before, abs=1e-10)

    def test_negative_dt_rejected(self):
        p = GaussianPacket.initial(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            free_evolve(p, -0.1)


class TestWallReflect:
    def test_mirror_image(self):
        p = GaussianPacket.initial(-3.0, 1.0, -2.0, 1.0)
        out = wall_reflect(p)
        assert (out.center, out.momentum) == (3.0, 2.0)
        assert out.width_sq == p.width_sq

    def test_node_at_wall(self):
        p = free_evolve(GaussianPacket.initial(4.0, 0.9, -2.5, 1.3), 1.1)
        assert abs(evaluate_with_image(p, 0.0)) < 1e-15

    def test_antisymmetrized_norm_on_halfline(self):
        # packet far from the wall: the two-term field carries unit norm on x > 0
        p = GaussianPacket.initial(8.0, 0.7, -3.0, 1.0)
        val = halfline_norm_quadrature(lambda x: evaluate_with_image(p, x), 0.0, 40.0)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_requires_wallbound_momentum(self):
        p = GaussianPacket.initial(3.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            wall_reflect(p)

    def test_reflection_sign_is_tracked(self):
        p = GaussianPacket.initial(-3.0, 1.0, -2.0, 1.0)
        out = wall_reflect(p)
        assert cmath.exp(out.log_norm - p.log_norm) == pytest.approx(-1.0)


class TestPostCollisionMomenta:
    def test_heavy_at_rest(self):
        m = MassPair(1.0, 25.0)
        px, py = post_collision_momenta(3.0, 0.0, m)
        # the light particle recoils; the transferred magnitude matches
        # (m_y - m_x)/(m_x + m_y) and the heavy one picks up 2 m_y /(m_x + m_y)
        assert px == pytest.approx(-3.0 * (25.0 - 1.0) / 26.0)
        assert py == pytest.approx(3.0 * 2 * 25.0 / 26.0)

    def test_equal_masses_exchange(self):
        m = MassPair(2.0, 2.0)
        assert post_collision_momenta(3.0, -1.0, m) == pytest.approx((-1.0, 3.0))

    @pytest.mark.parametrize("p_x,p_y", [(3.0, 0.0), (2.0, 5.0), (1.0, -4.0)])
    def test_conservation(self, p_x, p_y):
        m = MassPair(1.0, 7.0)
        px2, py2 = post_collision_momenta(p_x, p_y, m)
        assert px2 + py2 == pytest.approx(p_x + p_y, rel=1e-14)
        e_in = p_x**2 / (2 * m.m_x) + p_y**2 / (2 * m.m_y)
        e_out = px2**2 / (2 * m.m_x) + py2**2 / (2 * m.m_y)
        assert e_out == pytest.approx(e_in, rel=1e-14)

    def test_non_closing_rejected(self):
        # v_x = 1.0 but v_y = 2.0: the pair is separating
        with pytest.raises(ValueError):
            post_collision_momenta(1.0, 8.0, MassPair(1.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(m_x=st.floats(1e-3, 1e3), m_y=st.floats(1e-3, 1e3),
       v_y=st.floats(-1e3, 1e3), closing=st.floats(1e-6, 1e3))
def test_collide_velocities_is_the_elastic_law(m_x, m_y, v_y, closing):
    masses = MassPair(m_x, m_y)
    v_x = v_y + closing
    out_x, out_y = collide_velocities(v_x, v_y, masses)
    p_scale = abs(m_x * v_x) + abs(m_y * v_y)
    assert abs(m_x * out_x + m_y * out_y - (m_x * v_x + m_y * v_y)) <= 1e-14 * p_scale
    energy = m_x * v_x**2 + m_y * v_y**2
    assert abs(m_x * out_x**2 + m_y * out_y**2 - energy) <= 1e-14 * energy
    back_x, back_y = collide_velocities(out_x, out_y, masses)
    scale = max(abs(v_x), abs(v_y))
    assert abs(back_x - v_x) <= 1e-14 * scale and abs(back_y - v_y) <= 1e-14 * scale
    (a, b), (c, d) = collision_matrix(masses)
    assert (a, c) == collide_velocities(1.0, 0.0, masses)
    assert (b, d) == collide_velocities(0.0, 1.0, masses)
    assert collision_velocity_map(v_x, v_y, masses) == (-out_x, out_y)


def _packets(sigma0x=0.5, sigma0y=0.3, masses=MassPair(1.0, 25.0), t=0.0,
             x0=5.0, y0=15.0, p=4.0):
    px = GaussianPacket.initial(x0, sigma0x, p, masses.m_x)
    py = GaussianPacket.initial(y0, sigma0y, 0.0, masses.m_y)
    if t:
        px, py = free_evolve(px, t), free_evolve(py, t)
    return px, py


class TestCollideGaussians:
    def test_matched_widths_stay_product(self):
        # m_x sigma_x^2 = m_y sigma_y^2 kills the cross term
        m = MassPair(1.0, 25.0)
        px, py = _packets(sigma0x=0.5, sigma0y=0.1, masses=m)
        st = collide_gaussians(px, py, m)
        assert abs(st.a_xy) < 1e-14

    def test_equal_masses_stay_product(self):
        m = MassPair(1.0, 1.0)
        px = GaussianPacket.initial(5.0, 0.5, 4.0, 1.0)
        py = GaussianPacket.initial(15.0, 0.9, 0.0, 1.0)
        st = collide_gaussians(px, py, m)
        assert abs(st.a_xy) < 1e-14

    def test_matches_center_of_mass_route(self):
        # independent pipeline: to (R, r), flip r, transform back
        m = MassPair(1.0, 7.0)
        px, py = _packets(sigma0y=0.4, masses=m, t=0.9)
        direct = collide_gaussians(px, py, m, check=False)
        mt = m.total
        via = product_form(px, py)
        via = substitute_linear(via, ((1.0, m.m_y / mt), (1.0, -m.m_x / mt)))
        via = substitute_linear(via, ((1.0, 0.0), (0.0, -1.0)))
        via = substitute_linear(via, ((m.m_x / mt, m.m_y / mt), (1.0, -1.0)))
        for name in ("a_xx", "a_yy", "a_xy", "b_x", "b_y"):
            got, want = getattr(direct, name), getattr(via, name)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_involution(self):
        m = MassPair(1.0, 9.0)
        px, py = _packets(masses=m, sigma0y=0.45, t=0.4)
        st = product_form(px, py)
        twice = substitute_linear(substitute_linear(st, collision_matrix(m)),
                                  collision_matrix(m))
        for name in ("a_xx", "a_yy", "a_xy", "b_x", "b_y"):
            assert getattr(twice, name) == pytest.approx(getattr(st, name), rel=1e-12)

    def test_post_collision_momenta_match_classical(self):
        m = MassPair(1.0, 25.0)
        px, py = _packets(masses=m, sigma0y=0.4, t=1.2)
        st = collide_gaussians(px, py, m, check=False)
        want = post_collision_momenta(px.momentum, 0.0, m)
        got = momentum_means(st)
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        assert got[1] == pytest.approx(want[1], rel=1e-10)

    def test_norm_preserved(self):
        m = MassPair(1.0, 25.0)
        px, py = _packets(masses=m, sigma0y=0.4, t=0.8)
        st = collide_gaussians(px, py, m, check=False)
        assert math.exp(log_norm_sq(st)) == pytest.approx(1.0, abs=1e-8)
        assert state_norm_quadrature(st) == pytest.approx(1.0, abs=1e-6)

    def test_matched_widths_continue_free_law(self):
        # after a matched-width collision the width parameters keep evolving
        # as in free flight: the diagonal coefficients stay -1/(2 beta^2(t))
        m = MassPair(1.0, 25.0)
        for t in (0.5, 2.0, 7.0):
            px, py = _packets(sigma0x=0.5, sigma0y=0.1, masses=m, t=t)
            st = collide_gaussians(px, py, m, check=False)
            assert st.a_xx == pytest.approx(-1 / (2 * width_param(0.5, 1.0, t)), rel=1e-12)
            assert st.a_yy == pytest.approx(-1 / (2 * width_param(0.1, 25.0, t)), rel=1e-12)

    def test_width_relation_propagates(self):
        # m_x beta_x^2 = m_y beta_y^2 holds at all times once it holds at t=0
        m = MassPair(1.0, 25.0)
        for t in (0.0, 1.0, 5.0):
            bx = width_param(0.5, m.m_x, t)
            by = width_param(0.1, m.m_y, t)
            assert m.m_x * bx == pytest.approx(m.m_y * by, rel=1e-14)

    def test_overlapping_packets_rejected(self):
        m = MassPair(1.0, 25.0)
        px = GaussianPacket.initial(5.0, 1.0, 4.0, 1.0)
        py = GaussianPacket.initial(6.0, 1.0, 0.0, 25.0)
        with pytest.raises(ValueError, match="overlap"):
            collide_gaussians(px, py, m)

    def test_wall_penetration_rejected(self):
        m = MassPair(1.0, 25.0)
        px = GaussianPacket.initial(0.5, 0.5, 4.0, 1.0)
        py = GaussianPacket.initial(15.0, 0.3, 0.0, 25.0)
        with pytest.raises(ValueError, match="wall"):
            collide_gaussians(px, py, m)


class TestQuadraticFormState:
    def test_origin_value(self):
        st = QuadraticFormState(a_xx=-1.0, a_yy=-0.5, a_xy=0.0, b_x=0.0,
                                b_y=0.0, log_norm=0.3 + 0.1j)
        assert evaluate(st, 0.0, 0.0) == pytest.approx(cmath.exp(0.3 + 0.1j))

    def test_product_factorization(self):
        # centres near the origin keep the expanded exponent terms order one,
        # so the identity holds to full precision
        px = free_evolve(GaussianPacket.initial(0.8, 0.5, 1.5, 1.0), 0.6)
        py = free_evolve(GaussianPacket.initial(2.5, 0.4, 0.0, 25.0), 0.6)
        st = product_form(px, py)
        xs = px.center + np.array([-0.3, 0.0, 0.25])
        ys = py.center + np.array([-0.2, 0.1, 0.3])
        joint = evaluate(st, xs[:, None], ys[None, :])
        sep = evaluate_packet(px, xs)[:, None] * evaluate_packet(py, ys)[None, :]
        np.testing.assert_allclose(joint, sep, rtol=1e-14)

    def test_normalized_integrates_to_one(self):
        m = MassPair(1.0, 9.0)
        px, py = _packets(masses=m, sigma0y=0.5, t=0.7)
        st = normalized(collide_gaussians(px, py, m, check=False))
        assert state_norm_quadrature(st) == pytest.approx(1.0, abs=1e-6)

    def test_non_normalizable_rejected(self):
        with pytest.raises(ValueError):
            QuadraticFormState(a_xx=1.0, a_yy=-1.0, a_xy=0.0, b_x=0.0, b_y=0.0)
        with pytest.raises(ValueError):
            QuadraticFormState(a_xx=-1.0, a_yy=-1.0, a_xy=2.5, b_x=0.0, b_y=0.0)


class TestSeparationDiagnostics:
    def test_identical_packets_overlap_fully(self):
        p = GaussianPacket.initial(4.0, 0.8, 1.0, 1.0)
        assert density_overlap(p, p) == pytest.approx(1.0)

    def test_far_packets_overlap_vanishes(self):
        a = GaussianPacket.initial(2.0, 0.3, 1.0, 1.0)
        b = GaussianPacket.initial(20.0, 0.3, 0.0, 25.0)
        assert density_overlap(a, b) < 1e-12

    def test_norm_closed_form_matches_quadrature(self):
        p = free_evolve(GaussianPacket.initial(3.0, 0.7, 2.0, 1.4), 1.7)
        assert packet_norm_sq(p) == pytest.approx(packet_norm_quadrature(p), rel=1e-9)
