import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kdvorbits.elliptic import (
    FLOAT,
    JacobiTriple,
    _agm,
    _float_agm,
    ellint_differences,
    ellint_E,
    ellint_F_zeta,
    ellint_K,
    ellint_KE,
    jacobi,
)
from kdvorbits.errors import DomainError

import oracles

M_GRID = [0.0, 1e-6, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999]


class TestCompleteIntegrals:
    @pytest.mark.parametrize("m", M_GRID)
    def test_K_matches_quadrature(self, m):
        assert_allclose(ellint_K(m), oracles.quad_K(m), rtol=1e-14)

    @pytest.mark.parametrize("m", M_GRID)
    def test_E_matches_quadrature(self, m):
        assert_allclose(ellint_E(m), oracles.quad_E(m), rtol=1e-14)

    def test_special_values(self):
        assert ellint_K(0.0) == pytest.approx(math.pi / 2, abs=1e-16)
        assert ellint_E(0.0) == pytest.approx(math.pi / 2, abs=1e-16)
        assert ellint_E(1.0) == 1.0

    def test_K_log_divergence_near_one(self):
        # K(m) ~ log(4) - log(sqrt(1-m)) as m -> 1
        m = 1.0 - 1e-8
        approx = math.log(4.0) - 0.5 * math.log(1.0 - m)
        assert abs(ellint_K(m) - approx) < 1e-7

    @pytest.mark.parametrize("m", [1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.9, 1.0 - 1e-12])
    def test_differences_match_mpmath(self, m):
        # K - E ~ pi m/4 and (2 - m)K - 2E ~ pi m^2/16 keep their digits
        # as m -> 0, where forming them from K and E cancels all of them
        with mp.workdps(60):
            mm = mp.mpf(m)
            K, E = mp.ellipk(mm), mp.ellipe(mm)
            expected = [float(K), float(K - E), float((2 - mm) * K - 2 * E)]
        assert_allclose(ellint_differences(m), expected, rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("m", [0.0, 1e-15, 1e-9, 0.05, 0.5, 0.95,
                                   1.0 - 1e-9, 1.0 - 1e-15, 1.0])
    def test_incomplete_F_and_zeta_match_mpmath(self, m):
        # Z(phi|m) = E(phi|m) - E F(phi|m) / K with tan phi = y / x;
        # at m = 1, F = asinh(y / x), Z = sin phi
        for y, x in ((0.0, 1.0), (1e-8, 1.0), (0.3, 1.0), (1.0, 1.0), (2.5, 1.0),
                     (1.0, 1e-8), (1.0, 0.0), (1.0, math.inf), (1.2e308, 1.6e308),
                     (5e-324, 5e-324)):
            with mp.workdps(40):
                mm, ph = mp.mpf(m), mp.atan2(y, x)
                if m == 1.0:
                    F, Z = (mp.asinh(mp.mpf(y) / x) if x else mp.inf), mp.sin(ph)
                else:
                    F = mp.ellipf(ph, mm)
                    Z = mp.ellipe(ph, mm) - mp.ellipe(mm) / mp.ellipk(mm) * F
                F, Z = float(F), float(Z)
            got_F, got_Z = ellint_F_zeta(y, x, m)
            assert got_F == F or abs(got_F - F) <= 1e-14 * abs(F), (m, y, x)
            assert abs(got_Z - Z) <= 5e-15, (m, y, x)

    def test_incomplete_F_meets_K_at_the_quarter_period(self):
        # x = 0 is phi = pi/2 exactly: F is K bit for bit
        for m in [*np.linspace(0.0, 0.99, 100), 0.999, 1.0 - 2**-30, 1.0 - 2**-52]:
            assert ellint_F_zeta(1.0, 0.0, m)[0] == ellint_K(m), m

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                ellint_K(bad)
            with pytest.raises(DomainError):
                ellint_differences(bad)
        with pytest.raises(DomainError):
            ellint_E(1.0 + 1e-12)
        for bad in (-0.1, 1.0 + 1e-12, math.nan):
            with pytest.raises(DomainError):
                ellint_F_zeta(1.0, 2.0, bad)
        for y, x in ((-1.0, 1.0), (1.0, -1e-300), (math.nan, 1.0), (1.0, math.nan),
                     (0.0, 0.0), (math.inf, math.inf)):
            with pytest.raises(DomainError):
                ellint_F_zeta(y, x, 0.5)

    @pytest.mark.parametrize("m", [0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0])
    def test_incomplete_F_and_zeta_take_arrays_bit_for_bit(self, m):
        # sides over e^-20 .. e^5, zero, inf and beyond hypot's range on both
        # ends; each element of one array call is its scalar call, bit for bit
        sides = np.concatenate([np.exp(np.linspace(-20.0, 5.0, 26)),
                                [0.0, math.inf, 5e-324, 1e-310, 1e-301, 1e301, 1.7e308]])
        y, x = (a.ravel() for a in np.meshgrid(sides, sides))
        keep = (np.maximum(y, x) > 0.0) & (np.minimum(y, x) < math.inf)
        y, x = y[keep].reshape(1, -1), x[keep].reshape(1, -1)
        F, Z = ellint_F_zeta(y, x, m)
        assert F.shape == Z.shape == y.shape
        for i in range(y.size):
            alone = ellint_F_zeta(float(y.flat[i]), float(x.flat[i]), m)
            assert (F.flat[i], Z.flat[i]) == alone, (y.flat[i], x.flat[i])
        # x = 0 is phi = pi/2: F is K bit for bit
        assert np.all(F[x == 0.0] == (ellint_K(m) if m < 1.0 else math.inf))

    def test_incomplete_F_and_zeta_each_element_its_own_parameter(self):
        # one call over mixed m: every element stops its chain on its own tests
        rng = np.random.default_rng(5)
        m = rng.permutation(np.concatenate([[0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0, 5e-324],
                                            rng.uniform(0.0, 1.0, 94)]))
        y, x = np.exp(rng.uniform(-20.0, 5.0, 100)), np.exp(rng.uniform(-20.0, 5.0, 100))
        F, Z = ellint_F_zeta(y, x, m)
        for args, f, z in zip(zip(y.tolist(), x.tolist(), m.tolist()), F.tolist(), Z.tolist()):
            assert (f, z) == ellint_F_zeta(*args), args

    @pytest.mark.parametrize("y, x, m", [
        ([1.0, 1.0, -1.0, 1.0], [1.0, 2.0, 1.0, 1.0], [0.5, 1.5, 0.5, math.nan]),
        ([1.0, 0.0, 1.0], [1.0, 0.0, -1.0], 0.5),
        ([1.0, math.inf, math.nan], [1.0, math.inf, 1.0], [0.3, 0.4, 0.5]),
    ])
    def test_array_raises_for_its_first_invalid_element(self, y, x, m):
        y, x, m = np.broadcast_arrays(np.array(y), np.array(x), np.array(m))
        first = next(i for i in range(y.size)
                     if not (0.0 <= m[i] <= 1.0 and y[i] >= 0.0 and x[i] >= 0.0
                             and y[i] + x[i] > 0.0 and min(y[i], x[i]) < math.inf))
        with pytest.raises(DomainError) as alone:
            ellint_F_zeta(float(y[first]), float(x[first]), float(m[first]))
        with pytest.raises(DomainError) as together:
            ellint_F_zeta(y, x, m)
        assert str(together.value) == str(alone.value)

    def test_differences_take_arrays_bit_for_bit(self):
        # each element stops its AGM on its own test: an array call equals
        # the 0-d calls, and both equal the tail summed on the cached scalar
        # chain, on m log-spread towards 0 and towards 1
        ms = np.concatenate([[0.0, 5e-324, 0.5, 1.0 - 2.0**-53], np.geomspace(1e-36, 0.5, 300),
                             1.0 - np.geomspace(2.0**-53, 0.5, 300)])
        arrays = ellint_differences(ms.reshape(2, -1))
        for i, m in enumerate(ms.tolist()):
            alone = ellint_differences(m)
            assert all(type(v) is float for v in alone)
            assert alone == tuple(float(v.flat[i]) for v in arrays), m
            a_seq = [state.a for state in _agm(m, FLOAT)]
            c_sq, tail = m, 0.0
            for n, a in enumerate(a_seq[1:]):
                c_sq = c_sq * c_sq / (16.0 * a * a)
                tail += 2.0**n * c_sq
            K = math.pi / (2.0 * a_seq[-1])
            assert alone == (K, K * (0.5 * m + tail), 2.0 * K * tail), m

    def test_differences_name_the_first_bad_element(self):
        with pytest.raises(DomainError, match=r"got 1\.5\b"):
            ellint_differences(np.array([0.5, 1.5, -1.0, math.nan]))

    def test_K_and_E_together_bit_for_bit(self):
        # ellint_KE is (ellint_K, ellint_E) on the scalar chain, and an array
        # call is its elements' scalar calls, on m log-spread towards 0 and 1
        ms = np.concatenate([[0.0, 5e-324, 0.5, 1.0 - 2.0**-53], np.geomspace(1e-36, 0.5, 300),
                             1.0 - np.geomspace(2.0**-53, 0.5, 300)])
        K, E = ellint_KE(ms.reshape(2, -1))
        assert K.shape == E.shape == (2, ms.size // 2)
        for m, k, e in zip(ms.tolist(), K.ravel().tolist(), E.ravel().tolist()):
            assert ellint_KE(m) == (ellint_K(m), ellint_E(m)) == (k, e), m
        with pytest.raises(DomainError, match=r"got 1\.0\b"):
            ellint_KE(np.array([0.5, 1.0, math.nan]))

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_legendre_relation(self, m):
        K, E = ellint_K(m), ellint_E(m)
        Kc, Ec = ellint_K(1.0 - m), ellint_E(1.0 - m)
        assert abs(E * Kc + Ec * K - K * Kc - math.pi / 2) < 1e-12 * K * Kc


class TestJacobiReal:
    @pytest.mark.parametrize("m", M_GRID)
    def test_matches_ode_oracle(self, m):
        us = np.linspace(-10.0, 10.0, 41)
        for u in us:
            got = jacobi(float(u), m)
            want = oracles.ode_jacobi(float(u), m)
            assert_allclose(got, want, atol=1e-10)

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0 - 1e-9),
    )
    @settings(max_examples=150, deadline=None)
    def test_pythagorean_identities(self, u, m):
        s, c, d = jacobi(u, m)
        assert abs(s * s + c * c - 1.0) < 1e-12
        assert abs(d * d - (1.0 - m * s * s)) < 1e-12

    @pytest.mark.parametrize("m", [1e-6, 0.5, 0.999999])
    def test_periodicity(self, m):
        K = ellint_K(m)
        for u in (-2.3, 0.17, 1.9):
            s0, c0, d0 = jacobi(u, m)
            s1, c1, d1 = jacobi(u + 4 * K, m)
            assert_allclose((s1, c1, d1), (s0, c0, d0), atol=1e-12)
            s2, c2, d2 = jacobi(u + 2 * K, m)
            assert_allclose((s2, c2, d2), (-s0, -c0, d0), atol=1e-12)

    @pytest.mark.parametrize("m", [0.0, 0.25, 0.5, 0.9])
    def test_quarter_period_values(self, m):
        K = ellint_K(m)
        s, c, d = jacobi(K, m)
        assert_allclose(s, 1.0, atol=1e-14)
        assert_allclose(c, 0.0, atol=1e-14)
        assert_allclose(d, math.sqrt(1.0 - m), atol=1e-14)

    def test_trig_limit(self):
        u = 1.234
        assert jacobi(u, 0.0) == (math.sin(u), math.cos(u), 1.0)

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=80, deadline=None)
    def test_derivatives_by_finite_differences(self, u, m):
        h = 1e-6
        sp, cp, dp = jacobi(u + h, m)
        sm, cm, dm = jacobi(u - h, m)
        s, c, d = jacobi(u, m)
        assert abs((sp - sm) / (2 * h) - c * d) < 1e-8
        assert abs((cp - cm) / (2 * h) + s * d) < 1e-8
        assert abs((dp - dm) / (2 * h) + m * s * c) < 1e-8

    def test_sn_addition_formula(self):
        # sn(u+v) = (sn u cn v dn v + sn v cn u dn u) / (1 - m sn^2 u sn^2 v)
        rng = np.random.default_rng(7)
        for m in (0.2, 0.5, 0.95):
            for u, v in rng.uniform(-3, 3, size=(20, 2)):
                su, cu, du = jacobi(u, m)
                sv, cv, dv = jacobi(v, m)
                expected = (su * cv * dv + sv * cu * du) / (1 - m * su**2 * sv**2)
                got, _, _ = jacobi(u + v, m)
                assert abs(got - expected) < 1e-12

    def test_vectorized_matches_scalar(self):
        us = np.linspace(-7, 7, 23)
        m = 0.37
        batch = jacobi(us, m)
        assert isinstance(batch, JacobiTriple)
        for i, u in enumerate(us):
            single = jacobi(float(u), m)
            assert batch.sn[i] == single.sn
            assert batch.cn[i] == single.cn
            assert batch.dn[i] == single.dn

    def test_arrays_agree_with_floats_to_a_few_ulp(self):
        # the ascent takes sin, cos, sqrt and arithmetic only, which numpy
        # rounds as math does: an array element is its float call bit for
        # bit, so the few ulp once allowed here are now none
        rng = np.random.default_rng(3)
        us = rng.uniform(-30.0, 30.0, 400)
        ms = [0.0, 1e-9, 0.37, 0.5, 0.9, *(1.0 - np.geomspace(1e-9, 1e-2, 12)),
              *rng.uniform(0.0, 1.0 - 1e-9, 8)]
        for m in map(float, ms):
            batch = jacobi(us, m)
            single = [jacobi(u, m) for u in us.tolist()]
            assert np.array(batch).T.tolist() == [list(t) for t in single], m

    def test_found_point_near_m_one(self):
        # the arcsin descent left dn 8.5e-11 off here
        u, m = 24.740234191038034, 1.0 - 1e-13
        with mp.workdps(40):
            want = [float(mp.ellipfun(f, u, m=m)) for f in ("sn", "cn", "dn")]
        assert_allclose(jacobi(u, m), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [1e-9, 0.5, 1.0 - 1e-13])
    @pytest.mark.parametrize("u", [5e-324, 1e-300, 1e-160, -1e-170])
    def test_tiny_arguments(self, u, m):
        # Bulirsch's x = a_N cot v would square to inf here, and sn to nan
        sn, cn, dn = jacobi(u, m)
        assert abs(sn - u) <= 2.0 * math.ulp(u)
        assert (cn, dn) == (1.0, 1.0)

    def test_scalar_returns_floats(self):
        out = jacobi(0.5, 0.5)
        assert all(isinstance(v, float) for v in out)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            jacobi(0.3, 1.0)

    def test_near_quarter_period_at_m_near_one(self):
        # dn ~ 1e-6 around u = K here; 1 - m sn^2 would leave it a few
        # correct digits (scipy.special.ellipj misses sn by ~5e-11 too).
        m = 1.0 - 1e-12
        K = ellint_K(m)
        with mp.workdps(40):
            for u in (K - 3.0, K - 1.0, K - 1e-3, K, K + 1e-3, K + 1.0, K + 3.0):
                got = jacobi(u, m)
                want = [float(mp.ellipfun(f, u, m=m)) for f in ("sn", "cn", "dn")]
                assert_allclose(got, want, rtol=0.0, atol=1e-15)
                assert abs(got.dn - want[2]) <= 1e-9 * want[2]


class TestAgmCache:
    def test_long_sweep_stays_bounded(self):
        maxsize = _float_agm.cache_info().maxsize
        assert maxsize is not None
        for m in np.linspace(0.01, 0.99, 3 * maxsize):
            ellint_K(float(m))
            jacobi(0.7, float(m))
        assert _float_agm.cache_info().currsize <= maxsize
