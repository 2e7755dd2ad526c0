import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from kdvorbits.errors import DomainError, ResolutionError
from kdvorbits.hill import floquet_monodromy, winding_number
from kdvorbits.orbits import cnoidal_profile
from kdvorbits.profiles import Profile, grid, spectral_derivative
from kdvorbits.virasoro import (
    CircleDiffeo,
    coadjoint,
    compose,
    density_transform,
    infinitesimal_coadjoint,
    schwarzian,
)


def random_diffeo(seed, k_max=3, budget=0.9):
    """A Fourier-family diffeo with sum k|a_k| <= budget, reproducibly."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, k_max)
    k = np.arange(1, k_max + 1)
    raw *= budget * rng.uniform(0.5, 1.0) / np.sum(k * np.abs(raw))
    return CircleDiffeo.fourier(raw, rng.uniform(0.0, 2.0 * math.pi, k_max))


class TestCircleDiffeo:
    def test_winding_and_positivity(self):
        f = random_diffeo(3)
        xs = np.linspace(-5.0, 5.0, 41)
        assert_allclose(f(xs + 2.0 * math.pi), f(xs) + 2.0 * math.pi,
                        rtol=0, atol=1e-12)
        assert np.all(f.derivative(xs, 1) > 0.0)

    @pytest.mark.parametrize("x", [0.3, 2.9, 10.0, -7.0])
    def test_inverse_round_trip(self, x):
        f = random_diffeo(5)
        assert abs(f.inverse(float(f(x))) - x) < 1e-11

    @pytest.mark.parametrize("f", [random_diffeo(5),
                                   CircleDiffeo(lambda x: x + 0.3 * math.sin(x))],
                             ids=["fourier", "scalar_only_fd"])
    def test_inverse_of_an_array_matches_each_point(self, f):
        # one Newton run over the whole array, each point with its own
        # bracket; the scalar call is its one-element case
        ys = np.linspace(-7.0, 10.0, 12).reshape(3, 4)
        xs = f.inverse(ys)
        assert xs.shape == ys.shape
        assert_allclose(xs.ravel(), [f.inverse(y) for y in ys.ravel()],
                        rtol=0, atol=1e-14)
        assert_allclose(f(xs), ys, rtol=0, atol=1e-12)

    def test_supplied_inverse_is_used(self):
        calls = []

        def inv(y):
            calls.append(y)
            return y - 1.0

        f = CircleDiffeo(lambda x: x + 1.0, inverse=inv)
        assert f.inverse(4.0) == 3.0
        assert calls == [4.0]

    def test_finite_differences_track_analytic(self):
        exact = CircleDiffeo.fourier([0.1, 0.05], [0.4, 1.1])
        fd = CircleDiffeo(exact)  # same map, derivatives by stencil
        xs = np.linspace(0.0, 2.0 * math.pi, 11)
        assert_allclose(fd.derivative(xs, 1), exact.derivative(xs, 1),
                        rtol=0, atol=1e-9)
        assert_allclose(fd.derivative(xs, 2), exact.derivative(xs, 2),
                        rtol=0, atol=1e-3)

    @pytest.mark.parametrize("x, order", [(1e12, 1), (1e15, 1), (1e6, 3)])
    def test_finite_differences_far_from_the_origin(self, x, order):
        # f = x + sin(x)/4: the stencil runs at x reduced modulo 2 pi, a point
        # within half an ulp of x, so the error is at most max|f''| ulp(x) / 2
        # plus the stencil's own (1e-9 for f', about 2 for f''' at step 1e-5)
        f = CircleDiffeo(lambda x: x + np.sin(x) / 4.0)
        exact = 1.0 + math.cos(x) / 4.0 if order == 1 else -math.cos(x) / 4.0
        stencil = 1e-9 if order == 1 else 2.5
        assert abs(f.derivative(x, order) - exact) <= 0.125 * math.ulp(x) + stencil

    def test_rejects_folding_amplitudes(self):
        with pytest.raises(DomainError):
            CircleDiffeo.fourier([0.6, 0.25])  # sum k|a_k| = 1.1

    @pytest.mark.parametrize("amplitudes, phases", [([math.nan], None), ([0.1], [math.inf]),
                                                    ([0.1, math.inf], [0.0, 0.0]),
                                                    ([0.1], [math.nan])])
    def test_rejects_non_finite_amplitudes_and_phases(self, amplitudes, phases):
        # the fold test, sum k|a_k| >= 1, is False for a nan sum and lets it through
        with pytest.raises(DomainError, match="must be finite"):
            CircleDiffeo.fourier(amplitudes, phases)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_a_translation_by_a_non_finite_angle_is_refused(self, a):
        # check=False let it through: x -> x + a sent every x to nan or inf
        with pytest.raises(DomainError, match="must be finite"):
            CircleDiffeo.translation(a)

    def test_rejects_mismatched_phases(self):
        with pytest.raises(DomainError):
            CircleDiffeo.fourier([0.1, 0.1], [0.0])

    def test_rejects_partial_derivative_triple(self):
        with pytest.raises(DomainError):
            CircleDiffeo(lambda x: x, derivatives=(lambda x: 1.0,))

    def test_rejects_non_diffeos(self):
        with pytest.raises(DomainError):
            CircleDiffeo(lambda x: x + 1.5 * math.sin(x))  # f' crosses zero
        with pytest.raises(DomainError):
            CircleDiffeo(lambda x: 1.1 * x)  # wrong winding

    def test_derivative_order_bounds(self):
        f = random_diffeo(1)
        with pytest.raises(DomainError):
            f.derivative(0.5, 4)


class TestSchwarzian:
    def test_identity_and_translation_vanish(self):
        xs = grid(32)
        assert_allclose(schwarzian(CircleDiffeo.identity(), xs), 0.0,
                        rtol=0, atol=1e-15)
        assert_allclose(schwarzian(CircleDiffeo.translation(1.3), xs), 0.0,
                        rtol=0, atol=1e-15)

    def test_single_mode_value_at_origin(self):
        f = CircleDiffeo.fourier([0.1])  # x + 0.1 sin x
        assert abs(schwarzian(f, 0.0) - (-1.0 / 11.0)) < 1e-12

    def test_finite_difference_route_agrees(self):
        # f(0) = 0 keeps the stencil's cancellation error small at the
        # origin; elsewhere the f''' stencil at 1e-5 is noise-dominated.
        fd = CircleDiffeo(lambda x: x + 0.1 * math.sin(x))
        assert abs(schwarzian(fd, 0.0) - (-1.0 / 11.0)) < 1e-4

    @pytest.mark.parametrize("seeds", [(11, 12), (13, 14), (15, 16)])
    def test_cocycle(self, seeds):
        f, g = random_diffeo(seeds[0]), random_diffeo(seeds[1])
        xs = grid(64)
        lhs = schwarzian(compose(f, g), xs)
        rhs = schwarzian(f, g(xs)) * g.derivative(xs, 1) ** 2 + schwarzian(g, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    @given(a=st.floats(-0.3, 0.3), b=st.floats(-0.15, 0.15))
    @settings(deadline=None, max_examples=40)
    def test_cocycle_two_modes(self, a, b):
        f = CircleDiffeo.fourier([a, b])
        g = CircleDiffeo.fourier([b, a / 2.0], [0.7, 2.1])
        xs = grid(16)
        lhs = schwarzian(compose(f, g), xs)
        rhs = schwarzian(f, g(xs)) * g.derivative(xs, 1) ** 2 + schwarzian(g, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-7


class TestCoadjoint:
    c = 1.7

    def profile(self):
        return cnoidal_profile(0.7, 0.15, self.c)

    def test_identity_fixes_everything(self):
        p = self.profile()
        q = coadjoint(p, CircleDiffeo.identity(), self.c)
        assert_allclose(q.samples, p.samples, rtol=0, atol=1e-13)

    def test_translation_shifts(self):
        p = self.profile()
        a = 0.8
        q = coadjoint(p, CircleDiffeo.translation(a), self.c)
        assert_allclose(q.samples, p(grid(p.n) - a), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_floquet_data_is_invariant(self, seed):
        p = self.profile()
        f = random_diffeo(seed)
        q = coadjoint(p, f, self.c)
        t_p = np.trace(floquet_monodromy(p, self.c))
        t_q = np.trace(floquet_monodromy(q, self.c))
        assert abs(t_p - t_q) < 1e-5
        assert winding_number(q, self.c) == winding_number(p, self.c)

    def test_composition_is_the_group_law(self):
        p = self.profile()
        f, g = random_diffeo(31), random_diffeo(32)
        twice = coadjoint(coadjoint(p, g, self.c), f, self.c)
        once = coadjoint(p, compose(f, g), self.c)
        assert np.max(np.abs(twice.samples - once.samples)) < 1e-7

    def test_anomaly_scales_with_charge(self):
        # q depends affinely on c; the difference isolates (S/12)/f'^2.
        p = self.profile()
        f = random_diffeo(33)
        q1 = coadjoint(p, f, 1.0)
        q2 = coadjoint(p, f, 13.0)
        xs = np.array([f.inverse(y) for y in grid(p.n)])
        against = schwarzian(f, xs) / f.derivative(xs, 1) ** 2
        assert_allclose(q2.samples - q1.samples, against, rtol=0, atol=1e-11)

    def test_evaluates_each_derivative_once(self, monkeypatch):
        f, orders = random_diffeo(34), []
        derivative = f.derivative
        monkeypatch.setattr(f, "derivative", lambda x, order: orders.append(order)
                            or derivative(x, order))
        p = self.profile()
        f.inverse(grid(p.n))  # the Newton pull-back's own f' calls
        newton = orders[:]
        orders.clear()
        coadjoint(p, f, self.c)
        assert orders == [*newton, 1, 2, 3]

    def test_rejects_nonfinite_charge(self):
        with pytest.raises(DomainError):
            coadjoint(self.profile(), CircleDiffeo.identity(), float("nan"))


class TestInfinitesimalCoadjoint:
    c = 2.4

    def test_zero_generator(self):
        p = cnoidal_profile(0.5, 0.4, self.c)
        xi = Profile.from_samples(np.zeros(p.n))
        out = infinitesimal_coadjoint(p, xi, self.c)
        assert np.max(np.abs(out.samples)) == 0.0

    def test_constants_are_fixed_points(self):
        p = Profile.from_samples(np.full(512, 0.37))
        xi = Profile.from_samples(np.full(512, -1.4))
        out = infinitesimal_coadjoint(p, xi, self.c)
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_profile_generates_its_own_flow(self):
        p = cnoidal_profile(0.5, 0.4, self.c)
        out = infinitesimal_coadjoint(p, p, self.c)
        kdv = (-3.0 * p.samples * spectral_derivative(p.samples)
               + (self.c / 12.0) * spectral_derivative(p.samples, 3))
        assert np.max(np.abs(out.samples - kdv)) < 1e-8

    def test_finite_difference_spot_check(self):
        p = cnoidal_profile(0.5, 0.4, self.c)
        xi = Profile.from_callable(
            lambda x: 0.3 * np.sin(x) + 0.1 * np.cos(2.0 * x))
        out = infinitesimal_coadjoint(p, xi, self.c)
        h = 1e-3
        for x in (0.9, 3.1, 5.0):
            def d(fn, k):
                vals = np.array([fn(x + j * h) for j in (-2, -1, 0, 1, 2)])
                if k == 1:
                    return (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
                return (-vals[0] + 2 * vals[1] - 2 * vals[3] + vals[4]) / (2 * h**3)
            expected = (-xi(x) * d(p, 1) - 2.0 * d(xi, 1) * p(x)
                        + (self.c / 12.0) * d(xi, 3))
            assert abs(out(x) - expected) < 1e-4

    def test_mismatched_grids_are_merged(self):
        p = cnoidal_profile(0.5, 0.4, self.c, n=512)
        xi = cnoidal_profile(0.5, 0.4, self.c, n=64)
        out = infinitesimal_coadjoint(p, xi, self.c)
        assert out.n == 512
        same = infinitesimal_coadjoint(p, p, self.c)
        assert np.max(np.abs(out.samples - same.samples)) < 1e-10

    def test_rough_samples_are_refused(self):
        p = cnoidal_profile(0.5, 0.4, self.c)
        rng = np.random.default_rng(0)
        xi = Profile.from_samples(rng.normal(size=p.n))
        with pytest.raises(ResolutionError):
            infinitesimal_coadjoint(p, xi, self.c)


class TestDensityTransform:
    def test_weight_zero_is_composition(self):
        f = random_diffeo(51)
        out = density_transform(math.sin, f, 0.0)
        for y in (0.5, 2.0, 4.4):
            assert abs(out(y) - math.sin(f.inverse(y))) < 1e-14

    def test_identity_map(self):
        out = density_transform(math.cos, CircleDiffeo.identity(), -0.5)
        assert out(1.2) == pytest.approx(math.cos(1.2), abs=1e-15)

    def test_transported_pair_solves_transported_hill(self):
        # Solve psi'' = (6p/c) psi, push p with the coadjoint action and
        # psi as h = -1/2 densities, and check the new equation by a
        # five-point second derivative, scaled by the solution size.
        c = 2.0
        p = cnoidal_profile(0.6, 0.9, c)
        rng = np.random.default_rng(12)
        f = CircleDiffeo.fourier([0.18, 0.07, 0.04],
                                 rng.uniform(0.0, 2.0 * math.pi, 3))

        def rhs(x, y):
            q = 6.0 * p(x) / c
            return (y[1], q * y[0], y[3], q * y[2])

        sol = solve_ivp(rhs, (-1.0, 2.0 * math.pi + 1.0), (1.0, 0.0, 0.0, 1.0),
                        method="DOP853", rtol=1e-12, atol=1e-12,
                        dense_output=True, max_step=0.05)
        assert sol.success
        q_new = coadjoint(p, f, c)
        h = 1e-4
        for component in (0, 2):
            moved = density_transform(lambda x: sol.sol(x)[component], f, -0.5)
            for y in (1.0, 2.5, 4.0, 5.5):
                vals = np.array([moved(y + j * h) for j in (-2, -1, 0, 1, 2)])
                d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2]
                      + 16 * vals[3] - vals[4]) / (12 * h * h)
                residual = d2 - 6.0 * q_new(y) / c * vals[2]
                assert abs(residual) / max(1.0, abs(vals[2])) < 1e-6
