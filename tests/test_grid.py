import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbounce.channels import ScenarioParams, entanglement_report
from qbounce.gaussian import GaussianPacket, MassPair
from qbounce import grid
from qbounce.grid import (GridSpec, evolve, field_from_packets, init_field, load_snapshot,
                          marginals, sample, save_snapshot, schmidt_measures, schmidt_purity,
                          write_marginals_csv)

from oracles import (cn_lines_dense, collide_gaussians, energy, evolve_reference,
                     field_from_packets_reference, field_from_state, free_evolve,
                     moments, norm_sq, normalized, overlap,
                     overlap_fields, product_form, purity_by_full_gram,
                     marginals_reference, save_snapshot_reference, schmidt_by_svd,
                     sweep_lines_reference,
                     wall_reflect, write_marginals_csv_reference)

MASSES = MassPair(1.0, 25.0)
DESK_SPEC = GridSpec(n=512, length=30.0)


def random_triangle_field(spec: GridSpec, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (spec.n + 1, spec.n + 1)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.where(spec.domain_mask(), psi, 0)


def compliant_params():
    return ScenarioParams(x_M0=10.0, y_M0=20.0, sigma0x=0.5, sigma0y=0.5,
                          p_x0=4.0, masses=MassPair(1.0, 25.0))


def sweep_lines(psi, gamma, cp, inv):
    """grid._sweep_lines over the whole triangle on a copy of psi, with
    fresh workspace."""
    out = psi.copy()
    grid._sweep_lines(out, gamma, cp, inv, np.empty_like(psi),
                      np.empty(len(psi), dtype=complex), *grid._triangle(len(psi) - 1))
    return out


def sweep_lines_y(sweep, psi, gamma, cp, inv):
    """A line sweep along axis 1: the axis-0 sweep between two mirrors."""
    mirrored = np.ascontiguousarray(grid._reflect(psi))
    return np.ascontiguousarray(grid._reflect(sweep(mirrored, gamma, cp, inv)))


@st.composite
def resolved_packet_pairs(draw):
    """(spec, light packet, heavy packet) that check_resolution accepts at
    n = 128, the light packet centred below the heavy one."""
    spec = GridSpec(n=128, length=10.0)
    sigmas = st.floats(grid.MIN_POINTS_PER_SIGMA * spec.h, 2.0)
    p_max = 0.99 * 2 * math.pi / (grid.MIN_POINTS_PER_WAVELENGTH * spec.h)
    momenta = st.floats(-p_max, p_max)
    x_c = draw(st.floats(1.0, 5.0))
    y_c = draw(st.floats(x_c + 1.0, 9.0))
    s_x, s_y, p_x, p_y = draw(sigmas), draw(sigmas), draw(momenta), draw(momenta)
    grid.check_resolution(spec, (s_x, s_y), max(abs(p_x), abs(p_y)))
    return (spec, GaussianPacket.initial(x_c, s_x, p_x, 1.0),
            GaussianPacket.initial(y_c, s_y, p_y, 25.0))


class TestInitField:
    def test_boundary_values_zero(self):
        f = init_field(compliant_params(), GridSpec(n=512, length=30.0))
        n = f.spec.n
        assert np.all(f.psi[0, :] == 0)
        assert np.all(f.psi[:, n] == 0)
        idx = np.arange(n + 1)
        assert np.all(f.psi[idx, idx] == 0)
        assert np.all(f.psi[idx[1:], idx[:-1]] == 0)   # below the diagonal

    def test_discrete_norm_one(self):
        f = init_field(compliant_params(), GridSpec(n=512, length=30.0))
        assert norm_sq(f) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_uncut_gaussian(self):
        p = compliant_params()
        f = init_field(p, GridSpec(n=512, length=30.0))
        raw = field_from_packets(p.packet_x(), p.packet_y(),
                                 f.spec, cutoff=False)
        assert abs(overlap_fields(f, raw)) >= 0.999

    @settings(max_examples=30, deadline=None)
    @given(case=resolved_packet_pairs(), cutoff=st.booleans())
    @example(case=(DESK_SPEC, compliant_params().packet_x(), compliant_params().packet_y()),
             cutoff=True)
    @example(case=(DESK_SPEC, compliant_params().packet_x(), compliant_params().packet_y()),
             cutoff=False)
    def test_built_in_place_as_the_one_expression_byte_for_byte(self, case, cutoff):
        spec, px, py = case
        got = field_from_packets(px, py, spec, cutoff=cutoff).psi
        want = field_from_packets_reference(px, py, spec, cutoff=cutoff).psi
        assert got.tobytes() == want.tobytes()

    def test_allocates_one_and_a_half_fields(self):
        # the complex field, a real scratch array (half a field) and the
        # triangle mask's booleans: 1.63 fields; the one expression, a new
        # array per term, allocates 4.00
        tracemalloc.start()
        try:
            f = init_field(compliant_params(), DESK_SPEC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * f.psi.nbytes

    def test_under_resolved_width_rejected(self):
        p = compliant_params()
        with pytest.raises(ValueError, match="points per sigma"):
            init_field(p, GridSpec(n=64, length=30.0))

    def test_under_resolved_wavelength_rejected(self):
        p = ScenarioParams(x_M0=10.0, y_M0=20.0, sigma0x=0.5, sigma0y=0.5,
                           p_x0=60.0, masses=MassPair(1.0, 25.0))
        with pytest.raises(ValueError, match="wavelength"):
            init_field(p, GridSpec(n=512, length=30.0))


class TestEvolve:
    def test_free_packet_follows_exact_law(self):
        # drift and ballistic spreading against the closed-form packet
        spec = GridSpec(n=320, length=18.0)
        px = GaussianPacket.initial(5.4, 1.5, 0.7, 1.0)
        py = GaussianPacket.initial(14.4, 1.0, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=False)
        f2 = evolve(f, MASSES, dt=1e-3, steps=1000)
        mo = moments(f2)
        want = free_evolve(px, 1.0)
        assert abs(mo["mean_x"] - want.center) <= 1e-3 * abs(want.center - px.center)
        assert mo["var_x"] == pytest.approx(want.density_variance, rel=1e-3)

    def test_norm_conserved_per_step(self):
        spec = GridSpec(n=128, length=12.0)
        px = GaussianPacket.initial(3.5, 0.8, 1.5, 1.0)
        py = GaussianPacket.initial(9.0, 0.5, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=True)
        norms = [norm_sq(f)]
        for _ in range(40):
            f = evolve(f, MASSES, dt=2e-3, steps=1)
            norms.append(norm_sq(f))
        drifts = np.abs(np.diff(norms))
        assert drifts.max() < 1e-12

    def test_energy_stable(self):
        spec = GridSpec(n=160, length=12.0)
        px = GaussianPacket.initial(3.5, 0.8, 1.5, 1.0)
        py = GaussianPacket.initial(9.0, 0.5, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=True)
        e0 = energy(f, MASSES)
        f2 = evolve(f, MASSES, dt=1e-3, steps=400)
        assert energy(f2, MASSES) == pytest.approx(e0, rel=1e-6)

    @pytest.mark.slow
    def test_wall_reflection_matches_mirror_packet(self):
        # light packet thrown at the wall; after the bounce the field is the
        # freely evolved mirror image times the undisturbed heavy packet
        spec = GridSpec(n=512, length=28.0)
        px = GaussianPacket.initial(7.0, 1.6, -3.0, 1.0)
        py = GaussianPacket.initial(22.0, 0.5, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=False)
        t_end = 6.0
        f2 = evolve(f, MASSES, dt=2e-3, steps=int(t_end / 2e-3))
        pred_x = free_evolve(wall_reflect(px), t_end)
        pred_y = free_evolve(py, t_end)
        pred = field_from_packets(pred_x, pred_y, spec, cutoff=False)
        assert abs(overlap_fields(f2, pred)) >= 0.999

    def test_boundaries_stay_exactly_zero(self):
        spec = GridSpec(n=128, length=12.0)
        px = GaussianPacket.initial(3.5, 0.8, 1.5, 1.0)
        py = GaussianPacket.initial(9.0, 0.5, 0.0, 25.0)
        f = evolve(field_from_packets(px, py, spec), MASSES, dt=2e-3, steps=60)
        outside = ~f.spec.domain_mask()
        assert np.all(f.psi[outside] == 0)


    def test_each_sampled_field_is_one_evolve_from_the_start(self):
        # instants 0, 1, 29 (past a unitarity check), 0 and 10 steps apart,
        # the last between two steps: bit for bit the field of one evolve
        # call over the instant's total step count.  Each closing Y(dt/2)
        # acts on a copy, so sampling at the earlier instants leaves the later
        # fields as they are; a zero-step instant yields the start itself
        spec = GridSpec(n=128, length=12.0)
        px = GaussianPacket.initial(3.5, 0.8, 1.5, 1.0)
        py = GaussianPacket.initial(9.0, 0.5, 0.0, 25.0)
        start = field_from_packets(px, py, spec)
        before = start.psi.copy()
        dt = 2e-3
        got = sample(start, MASSES, dt, [0.0, dt, 30 * dt, 30 * dt, 40.4 * dt])
        for f, steps in zip(got, (0, 1, 30, 30, 40), strict=True):
            want = evolve(start, MASSES, dt, steps)     # before the next step
            assert f.t == pytest.approx(want.t, rel=1e-15, abs=0)
            assert f.psi.tobytes() == want.psi.tobytes()
        assert np.array_equal(start.psi, before)      # the start is left as it was

    def test_zero_steps_give_the_start(self):
        # no step, no closing: the start's own array, untouched, and no
        # output array made for it
        spec = GridSpec(n=64, length=8.0)
        start = grid.GridField(psi=random_triangle_field(spec), spec=spec, t=0.5)
        before = start.psi.copy()
        f = evolve(start, MASSES, dt=2e-3, steps=0)
        assert f.t == start.t
        assert f.psi is start.psi
        assert f.psi.tobytes() == before.tobytes()

    def test_closing_a_sampled_field_allocates_no_field(self):
        # the stepper's four fields and window-sized temporaries: 4.21-4.23
        # fields, with a closing at every step or at one; the bound keeps 0.07
        # of a field of margin.  Each closing rewrites the stepper's one
        # output array; a fifth field-sized buffer, for the closing or the
        # steps, or |psi|^2 of the whole start, would break the bound
        start = init_field(compliant_params(), GridSpec(n=384, length=22.0))
        field = start.psi.nbytes
        for k in (1, 12):
            tracemalloc.start()
            try:
                for _ in sample(start, MASSES, 2e-3, [2e-3 * i for i in range(1, k + 1)]):
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4.3 * field

    def test_nan_amplitude_fails_the_unitarity_guard(self):
        # a NaN drift compares false with the limit, so it must not pass it
        spec = GridSpec(n=64, length=8.0)
        psi = random_triangle_field(spec)
        psi[10, 40] = np.nan
        field = grid.GridField(psi=psi, spec=spec, t=0.0)
        with pytest.raises(RuntimeError, match="norm drift nan"):
            evolve(field, MASSES, dt=2e-3, steps=30)


def assert_matches_whole_triangle_steps(field, dt, steps, got=None):
    # the windowed step drops only amplitudes below SUPPORT_CUTOFF * max|psi|;
    # got is evolve's field unless given
    got = evolve(field, MASSES, dt, steps).psi if got is None else got
    want = evolve_reference(field, MASSES, dt, steps).psi
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.all(got[~field.spec.domain_mask()] == 0)


class TestSupportWindow:
    def test_desk_field_matches_whole_triangle_steps(self):
        p = compliant_params()
        assert_matches_whole_triangle_steps(init_field(p, DESK_SPEC), dt=2e-3, steps=60)

    def test_stepper_copies_only_the_start_window(self):
        # the desk start has tails below the cutoff outside the window, which
        # the stepper leaves uncopied; a zero-step instant still yields every
        # byte of the start, and the stepped fields are the whole triangle's
        p = compliant_params()
        start = init_field(p, DESK_SPEC)
        before = start.psi.tobytes()
        mag = np.abs(start.psi)
        assert np.any((mag > 0) & (mag < grid.SUPPORT_CUTOFF * mag.max()))
        assert not np.array_equal(grid._Stepper(start, MASSES, 2e-3).psi, start.psi)
        dt = 2e-3
        got = sample(start, MASSES, dt, [0.0, dt, 30 * dt])
        for f, steps in zip(got, (0, 1, 30), strict=True):
            if steps:
                assert_matches_whole_triangle_steps(start, dt, steps, got=f.psi)
            else:
                assert f.psi.tobytes() == before
        assert start.psi.tobytes() == before

    @settings(max_examples=25, deadline=None)
    @given(case=resolved_packet_pairs())
    @example(case=(                 # the fastest light packet the grid resolves
        GridSpec(n=128, length=10.0),
        GaussianPacket.initial(3.0, grid.MIN_POINTS_PER_SIGMA * 10 / 128, 9.9, 1.0),
        GaussianPacket.initial(6.0, 0.625, 0.0, 25.0)))
    @example(case=(                 # thrown at the wall from next to it
        GridSpec(n=128, length=10.0),
        GaussianPacket.initial(1.0, 0.7, -9.9, 1.0),
        GaussianPacket.initial(2.5, 0.7, 9.9, 25.0)))
    def test_resolved_packet_pairs_match_whole_triangle_steps(self, case):
        # steps long enough for the fast packets to cross their tails' margin
        spec, px, py = case
        assert_matches_whole_triangle_steps(field_from_packets(px, py, spec), dt=1e-2, steps=40)


class TestLineSolver:
    @pytest.mark.parametrize("gamma", [0.07, 5.0])
    def test_sweeps_match_dense_solves(self, gamma):
        # gamma = 5 takes |cp| close to 1, where back substitution damps
        # rounding errors least
        spec = GridSpec(n=24, length=1.0)
        psi = random_triangle_field(spec)
        cp, inv = grid._cn_coeffs(gamma, spec.n)
        along_x = sweep_lines(psi, gamma, cp, inv)
        along_y = sweep_lines_y(sweep_lines, psi, gamma, cp, inv)
        np.testing.assert_allclose(along_x, cn_lines_dense(psi, gamma, axis=0),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(along_y, cn_lines_dense(psi, gamma, axis=1),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_sweeps_match_the_allocating_reference_bit_for_bit(self, axis):
        # five steps in, the desk field's tails hold subnormal amplitudes;
        # numpy's complex multiply rounds with fused multiply-adds, so a
        # product with its operands swapped shows in the last bit
        p = compliant_params()
        f = evolve_reference(init_field(p, DESK_SPEC), p.masses, dt=2e-3, steps=5)
        assert np.any(np.abs(f.psi[f.psi != 0]) < np.finfo(float).tiny)
        gamma, cp, inv = getattr(grid._Stepper(f, p.masses, 2e-3), axis)
        if axis == "x":
            got = sweep_lines(f.psi, gamma, cp, inv)
            want = sweep_lines_reference(f.psi, gamma, np.array(cp), np.array(inv))
        else:
            got = sweep_lines_y(sweep_lines, f.psi, gamma, cp, inv)
            want = sweep_lines_y(sweep_lines_reference, f.psi, gamma,
                                 np.array(cp), np.array(inv))
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert got.tobytes() == want.tobytes()     # the signs of zeros too

    def test_reflect_is_an_involution_preserving_the_triangle(self):
        spec = GridSpec(n=24, length=1.0)
        rng = np.random.default_rng(1)
        psi = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        np.testing.assert_array_equal(grid._reflect(grid._reflect(psi)), psi)
        mask = spec.domain_mask()
        np.testing.assert_array_equal(grid._reflect(mask), mask)


class TestSchmidtPurity:
    def test_gram_matrix_matches_svd(self):
        spec = GridSpec(n=64, length=1.0)
        f = grid.GridField(psi=random_triangle_field(spec, seed=2), spec=spec, t=0.0)
        purity, entropy = schmidt_by_svd(f.psi)
        assert schmidt_purity(f) == pytest.approx(purity, abs=1e-12)
        # one Gram matrix gives both, the purity bit for bit as schmidt_purity
        both = schmidt_measures(f)
        assert both[0] == schmidt_purity(f)
        assert both[1] == pytest.approx(entropy, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(case=resolved_packet_pairs())
    @example(case=(DESK_SPEC, compliant_params().packet_x(), compliant_params().packet_y()))
    def test_support_cropped_measures_match_full_matrix_oracles(self, case):
        # the measures drop amplitudes below SUPPORT_CUTOFF * max|psi|; the
        # oracles use every amplitude.  Near purity 1 the entropy is
        # ill-conditioned, so the Gram route itself is only good to ~1e-9 there.
        spec, px, py = case
        f = field_from_packets(px, py, spec)
        purity, entropy = schmidt_measures(f)
        assert purity == schmidt_purity(f)
        assert purity == pytest.approx(purity_by_full_gram(f.psi), rel=1e-14)
        assert entropy == pytest.approx(schmidt_by_svd(f.psi)[1], rel=1e-7)

    def test_field_without_amplitude_has_nan_purity(self):
        # 0 / 0, with numpy's invalid-value warning, as over the whole matrix
        spec = GridSpec(n=64, length=8.0)
        f = grid.GridField(psi=np.zeros((65, 65), dtype=complex), spec=spec, t=0.0)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(schmidt_purity(f))

    def test_nan_field_keeps_every_amplitude(self):
        # a NaN maximum drops no amplitude below the cutoff: the Gram matrix
        # spans every nonzero column, the 1e-30 one included
        spec = GridSpec(n=64, length=8.0)
        psi = np.zeros((65, 65), dtype=complex)
        psi[5:10, 20:30] = 1
        psi[30, 50] = 1e-30
        assert grid._gram(psi).shape == (10, 10)
        psi[6, 21] = np.nan
        g = grid._gram(psi)
        assert g.shape == (31, 31)
        assert g[30, 30] == 1e-30 ** 2
        assert math.isnan(schmidt_purity(grid.GridField(psi=psi, spec=spec, t=0.0)))

    def test_nan_field_has_nan_measures(self):
        # as schmidt_purity: NaN purity and entropy, not eigvalsh's LinAlgError
        spec = GridSpec(n=64, length=8.0)
        psi = random_triangle_field(spec)
        psi[10, 40] = np.nan
        purity, entropy = schmidt_measures(grid.GridField(psi=psi, spec=spec, t=0.0))
        assert math.isnan(purity) and math.isnan(entropy)

    def test_temporaries_stay_under_four_fields(self):
        # grid.RUN_FIELDS counts them on top of the stepper's four fields: a
        # field that fills the triangle takes |psi|, a mask, its cropped copy,
        # that copy's conjugate and the Gram matrix, 3.56 fields as n grows
        spec = GridSpec(n=256, length=10.0)
        f = grid.GridField(psi=random_triangle_field(spec), spec=spec, t=0.0)
        tracemalloc.start()
        try:
            schmidt_measures(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * f.psi.nbytes

    def test_product_field(self):
        spec = GridSpec(n=128, length=12.0)
        px = GaussianPacket.initial(3.5, 0.6, 0.0, 1.0)
        py = GaussianPacket.initial(9.0, 0.5, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=False)
        assert schmidt_purity(f) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_finite_and_zero_for_product(self):
        spec = GridSpec(n=256, length=16.0)
        px = GaussianPacket.initial(5.0, 0.6, 1.0, 1.0)
        py = GaussianPacket.initial(12.0, 0.5, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=False)
        _, ent = schmidt_measures(f)
        assert math.isfinite(ent)
        assert ent == pytest.approx(0.0, abs=1e-10)

    def test_two_equal_terms(self):
        # two exactly orthogonal product terms with equal weight: purity 1/2
        spec = GridSpec(n=96, length=12.0)
        xs, _ = spec.axes()
        g1 = np.exp(-(xs - 3.0) ** 2)
        g2 = np.exp(-(xs - 4.0) ** 2)
        u, _ = np.linalg.qr(np.stack([g1, g2], axis=1))
        h1 = np.exp(-(xs - 8.0) ** 2 / 0.5)
        h2 = np.exp(-(xs - 9.5) ** 2 / 0.5)
        v, _ = np.linalg.qr(np.stack([h1, h2], axis=1))
        psi = (np.outer(u[:, 0], v[:, 0]) + np.outer(u[:, 1], v[:, 1])) / math.sqrt(2)
        f = grid.GridField(psi=psi.astype(complex), spec=spec, t=0.0)
        assert schmidt_purity(f) == pytest.approx(0.5, abs=1e-12)


class TestOverlap:
    def test_self_overlap(self):
        m = MassPair(1.0, 25.0)
        px = free_evolve(GaussianPacket.initial(4.0, 0.7, 3.0, 1.0), 0.4)
        py = free_evolve(GaussianPacket.initial(12.0, 0.4, 0.0, 25.0), 0.4)
        st = normalized(product_form(px, py))
        f = field_from_state(st, GridSpec(n=256, length=16.0))
        assert abs(overlap(f, st)) >= 0.9999

    def test_orthogonal_momentum_mirror(self):
        # same shape but mirrored momentum: overlap exp(-p^2 sigma^2) is tiny
        px = GaussianPacket.initial(4.0, 0.8, 5.0, 1.0)
        py = GaussianPacket.initial(12.0, 0.4, 0.0, 25.0)
        st = normalized(product_form(px, py))
        mirrored = normalized(product_form(
            GaussianPacket.initial(4.0, 0.8, -5.0, 1.0), py))
        f = field_from_state(st, GridSpec(n=256, length=16.0))
        assert abs(overlap(f, mirrored)) <= 1e-3

    def test_bounded_by_one(self):
        px = GaussianPacket.initial(4.0, 0.7, 1.0, 1.0)
        py = GaussianPacket.initial(12.0, 0.4, 0.0, 25.0)
        st = normalized(product_form(px, py))
        f = field_from_state(st, GridSpec(n=128, length=16.0))
        assert abs(overlap(f, st)) <= 1 + 1e-12


class TestMarginals:
    def test_integrate_to_one(self):
        f = init_field(compliant_params(), GridSpec(n=512, length=30.0))
        px, py = marginals(f)
        assert np.sum(px) * f.h == pytest.approx(1.0, abs=1e-10)
        assert np.sum(py) * f.h == pytest.approx(1.0, abs=1e-10)

    def test_product_state_marginals_match_packets(self):
        spec = GridSpec(n=256, length=16.0)
        px = GaussianPacket.initial(5.0, 0.6, 0.0, 1.0)
        py = GaussianPacket.initial(12.0, 0.5, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=False)
        dx, dy = marginals(f)
        xs, ys = spec.axes()
        want_x = np.exp(-(xs - 5.0) ** 2 / 0.6**2)
        want_x /= want_x.sum() * f.h
        want_y = np.exp(-(ys - 12.0) ** 2 / 0.5**2)
        want_y /= want_y.sum() * f.h
        assert np.max(np.abs(dx - want_x)) < 1e-6
        assert np.max(np.abs(dy - want_y)) < 1e-6

    def test_zero_at_wall(self):
        f = init_field(compliant_params(), GridSpec(n=512, length=30.0))
        dx, _ = marginals(f)
        assert dx[0] == 0.0

    def test_bit_for_bit_the_whole_grid_row_sums(self):
        # |psi|^2 on the nonzero rows alone gives the whole grid's row sums,
        # column sums and total (the sum of the row sums) to the last bit: a
        # row's sum does not depend on the rows around it, and a zero row adds
        # an exact zero; stepped desk fields, then rows cut at the start,
        # across the middle, at the end, one row, a NaN and no nonzero row
        p = compliant_params()
        fields = list(sample(init_field(p, DESK_SPEC), MASSES, 2e-3, [0.0, 0.04, 0.08, 0.5]))
        fields = [grid.GridField(psi=f.psi.copy(), spec=f.spec, t=f.t) for f in fields]
        spec = GridSpec(n=64, length=8.0)
        for rows in (np.s_[:9], np.s_[20:45], np.s_[50:], np.s_[33:34], np.s_[:0]):
            psi = np.zeros((spec.n + 1, spec.n + 1), dtype=complex)
            psi[rows] = random_triangle_field(spec)[rows]
            fields.append(grid.GridField(psi=psi, spec=spec, t=0.0))
        fields[-2].psi[33, 40] = np.nan
        for f in fields:
            with np.errstate(invalid="ignore"):     # no nonzero row: 0 / 0, as before
                got, want = marginals(f), marginals_reference(f)
            for a, b in zip(got, want, strict=True):
                assert a.tobytes() == b.tobytes()

    def test_allocates_only_the_nonzero_rows(self):
        # |psi|^2 over the stepped desk field's rows: 0.21-0.23 of a field by
        # tracemalloc at 0.04-0.12, against 0.503 over the whole grid
        f = evolve(init_field(compliant_params(), DESK_SPEC), MASSES, 2e-3, 20)
        tracemalloc.start()
        try:
            marginals(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * f.psi.nbytes


class TestSnapshotRoundTrip:
    def test_save_load(self, tmp_path):
        spec = GridSpec(n=64, length=8.0)
        px = GaussianPacket.initial(2.0, 0.4, 1.0, 1.0)
        py = GaussianPacket.initial(6.0, 0.3, 0.0, 25.0)
        f = field_from_packets(px, py, spec)
        path = tmp_path / "snap.bin"
        save_snapshot(f, path)
        g = load_snapshot(path)
        assert g.spec.n == f.spec.n
        assert g.t == f.t
        np.testing.assert_array_equal(g.psi, f.psi)

    def test_bytes_match_the_interleaving_writer(self, tmp_path):
        spec = GridSpec(n=64, length=8.0)
        psi = random_triangle_field(spec, seed=3)
        psi[5, 9] = complex(-0.0, np.nan)
        f = grid.GridField(psi=psi, spec=spec, t=0.25)
        save_snapshot(f, tmp_path / "new.bin")
        save_snapshot_reference(f, tmp_path / "old.bin")
        assert (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()

    def test_truncated_payload_names_both_sizes(self, tmp_path):
        spec = GridSpec(n=64, length=8.0)
        f = grid.GridField(psi=random_triangle_field(spec), spec=spec, t=0.0)
        path = tmp_path / "snap.bin"
        save_snapshot(f, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ValueError, match=r"is 67590 bytes, expected 65 x 65 x 16 = 67600"):
            load_snapshot(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"whatever")
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_marginals_csv(self, tmp_path):
        spec = GridSpec(n=64, length=8.0)
        px = GaussianPacket.initial(2.0, 0.4, 1.0, 1.0)
        py = GaussianPacket.initial(6.0, 0.3, 0.0, 25.0)
        f = field_from_packets(px, py, spec)
        path = tmp_path / "marg.csv"
        write_marginals_csv(f, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "coordinate,density_x,density_y"
        assert len(rows) == spec.n + 2
        # byte for byte csv.writer's file, a NaN field's too
        nan_psi = f.psi.copy()
        nan_psi[5, 9] = np.nan
        for psi in (f.psi, nan_psi):
            f = grid.GridField(psi=psi, spec=spec, t=0.0)
            write_marginals_csv(f, path)
            write_marginals_csv_reference(f, tmp_path / "ref.csv")
            assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestCollisionCrossCheck:
    def test_reduced_desk_collision_against_analytic(self):
        # half-resolution version of the desk-scale cross-validation: evolve
        # through one pair collision until the packets separate again, then
        # compare with the instantaneous-swap prediction
        spec = GridSpec(n=256, length=32.0)
        px = GaussianPacket.initial(14.6, 2.5, 4.5, 1.0)
        py = GaussianPacket.initial(29.0, 0.7, 0.0, 25.0)
        f = field_from_packets(px, py, spec, cutoff=True)
        t_end = 5.4
        f2 = evolve(f, MASSES, dt=2e-3, steps=2700)
        st = normalized(collide_gaussians(free_evolve(px, t_end),
                                          free_evolve(py, t_end),
                                          MASSES, check=False))
        assert abs(overlap(f2, st)) > 0.85
        pa = entanglement_report(st).purity
        assert schmidt_purity(f2) == pytest.approx(pa, abs=0.05)
