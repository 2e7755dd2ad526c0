"""Every finite float input gets a value or a contract error.

A call on finite floats, subnormals and +-1.7e308 among them, returns a value
or raises :class:`DomainError` or :class:`NumericalError`; no other exception
and no numpy warning may escape (pyproject turns numpy's warnings into errors).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdvorbits.asymptotics import (
    K_asymptotes,
    V_near_m0,
    V_near_m1,
    degenerate_wp,
    degenerate_zeta,
    exceptional_V_asymptote,
    k_large_V,
    k_near_wedge,
    one_minus_m_nonperturbative,
)
from kdvorbits.elliptic import (
    ellint_differences,
    ellint_E,
    ellint_F_zeta,
    ellint_K,
    ellint_KE,
    jacobi,
    jacobi_complex,
)
from kdvorbits.errors import DomainError, NumericalError
from kdvorbits.orbits import constant_trace, winding_from_kc
from kdvorbits.weierstrass import lattice, sigma, wp, wp_prime, zeta

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# finite floats, and as often the parameter range 0 <= m <= 1 with its subnormals
PARAMETER = st.one_of(st.floats(0.0, 1.0), FINITE)


def _each_gets_the_contract(*calls):
    for call in calls:
        try:
            call()
        except (DomainError, NumericalError):
            pass


class TestElliptic:
    # the examples: the circular limit of jacobi_complex, where sin z overflows,
    # and a period reduction of jacobi that overflows to -inf
    @given(m=PARAMETER, y=FINITE, x=FINITE, u=FINITE, v=FINITE)
    @example(m=1.976e-320, y=1.0, x=1.0, u=1.7673744569203736e-238, v=1.7e308)
    @example(m=0.25, y=1.7976931348623157e308, x=5e-324, u=1.7976931348623157e308, v=-1.7e308)
    @settings(max_examples=400, deadline=None)
    def test_scalars(self, m, y, x, u, v):
        _each_gets_the_contract(
            lambda: ellint_K(m), lambda: ellint_E(m), lambda: ellint_KE(m),
            lambda: ellint_differences(m), lambda: ellint_F_zeta(y, x, m),
            lambda: jacobi(u, m), lambda: jacobi_complex(complex(u, v), m))

    # rows of (m, y, x, u); the arrays are the columns.  In the example the
    # period reduction of jacobi overflows (a numpy warning)
    @given(st.lists(st.tuples(PARAMETER, FINITE, FINITE, FINITE), min_size=1, max_size=4))
    @example([(0.25, 1.0, 1.0, 1.7976931348623157e308), (0.3, 1e-310, 1.7e308, -1.7e308)])
    @settings(max_examples=300, deadline=None)
    def test_arrays(self, rows):
        m, y, x, u = (np.array(column) for column in zip(*rows))
        _each_gets_the_contract(
            lambda: ellint_KE(m), lambda: ellint_differences(m), lambda: ellint_F_zeta(y, x, m),
            lambda: ellint_F_zeta(y, x, 0.5), lambda: jacobi(u, float(m[0])))


class TestOrbits:
    # a cosh past overflow, a cos and a floor of an overflowing 6|kc| and 24|kc|
    @given(FINITE)
    @example(1e300)
    @example(-1.7e308)
    @example(1.7976931348623157e308)
    @settings(max_examples=300, deadline=None)
    def test_constant_potential(self, kc):
        _each_gets_the_contract(lambda: constant_trace(kc), lambda: winding_from_kc(kc))


class TestWeierstrass:
    # the example overflowed the period reduction: sn came out 0 and 1/sn^2 divided by it
    @given(m=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True)),
           x=FINITE, y=FINITE)
    @example(m=0.5, x=1.7e308, y=0.0)
    @example(m=0.0, x=1.7976931348623157e308, y=1.7e308)
    @settings(max_examples=300, deadline=None)
    def test_wp_and_its_derivative(self, m, x, y):
        lat = lattice(m)
        _each_gets_the_contract(
            lambda: wp(x, lat), lambda: wp_prime(x, lat),
            lambda: wp(complex(x, y), lat), lambda: wp_prime(complex(x, y), lat))

    # the examples: a rest of rounding noise that reads as a lattice point or
    # a zero, and the quasi-periodic factor of sigma past overflow
    @given(m=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True)),
           x=FINITE, y=FINITE)
    @example(m=0.5, x=1e53, y=1.0)
    @example(m=0.5, x=3e52, y=3e52)
    @example(m=0.5, x=1e3, y=0.0)
    @example(m=0.0, x=1e3, y=1e3)
    @settings(max_examples=300, deadline=None)
    def test_zeta_and_sigma(self, m, x, y):
        lat = lattice(m)
        _each_gets_the_contract(
            lambda: zeta(x, lat), lambda: sigma(x, lat),
            lambda: zeta(complex(x, y), lat), lambda: sigma(complex(x, y), lat))

    # no lattice point lies near these, so no PoleError: the reduction
    # itself is rounding noise
    @pytest.mark.parametrize("f, z", [(zeta, 1e53), (zeta, 3e52j), (sigma, 1e53),
                                      (sigma, 1e53 + 1j), (wp, 1e53)])
    def test_an_unreducible_argument_is_refused(self, f, z):
        with pytest.raises(DomainError, match="cannot reduce"):
            f(z, lattice(0.5))

    # Past 1e-9 / ulp(2K) periods (about 8.35e6 at m = 1/2) the rounding of
    # the rest, |n| ulp(2K), exceeds the 1e-9 pole tolerance: at 1e16 the
    # rest came out 0 and read as a pole, at -3e15 as a value of noise.
    @pytest.mark.parametrize("f, z", [
        (f, z) for f in (wp, wp_prime, zeta, sigma) for z in (1e16, -3e15, 8.4e6, -8.4e6)
    ] + [(zeta, 1.0 + 1e16j), (zeta, 1e7j), (sigma, 1e7j), (zeta, 1e16 + 1.0j)])
    def test_a_reduction_rounder_than_the_pole_tolerance_is_refused(self, f, z):
        with pytest.raises(DomainError, match="cannot reduce"):
            f(z, lattice(0.5))

    # jacobi_complex refuses only from 2^53 periods 4K': wp(0.3 + 1e16j) came
    # out 5.55 - 7.06j, a value of the rounding noise of the reduction
    @pytest.mark.parametrize("f", [wp, wp_prime])
    @pytest.mark.parametrize("z", [0.3 + 1e16j, 0.3 + 1e8j])
    def test_an_imaginary_part_too_far_out_is_refused(self, f, z):
        with pytest.raises(DomainError, match="cannot reduce"):
            f(z, lattice(0.5))

    @pytest.mark.parametrize("m", [0.0, 0.5, 0.9])
    def test_the_last_reducible_periods_still_answer(self, m):
        lat = lattice(m)
        period = math.pi if m == 0.0 else 2.0 * lat.K
        x = 0.99e-9 / math.ulp(period) * period
        for f in (wp, wp_prime, zeta):
            assert math.isfinite(abs(f(x, lat)))
        with pytest.raises(DomainError, match="cannot reduce"):
            wp(1.02e-9 / math.ulp(period) * period, lat)


def _V_near_m0(kc, m):
    """V_near_m0, which warns by design within 1e-3 of kc = -1/24 on a valid m."""
    if abs(kc + 1.0 / 24.0) < 1e-3 and 0.0 <= m <= 1.0:
        with pytest.warns(RuntimeWarning, match="V_near_m0 loses accuracy"):
            return V_near_m0(kc, m)
    return V_near_m0(kc, m)


class TestAsymptotics:
    # the examples: cosh of V_near_m1's slope past overflow; sin, then sinh,
    # of a degenerate form past overflow; 1/sinh^2 where sinh^2 underflows
    @given(m=PARAMETER, V=FINITE, kc=st.one_of(FINITE, st.floats(-0.05, 0.0)), x=FINITE,
           y=FINITE, n=st.integers(-3, 10**6), side=st.sampled_from(["lower", "upper"]),
           end=st.sampled_from(["m_to_0", "m_to_1"]))
    @example(m=0.5, V=1.0, kc=1.8033316126960154e109, x=1.0, y=0.0, n=1, side="lower",
             end="m_to_0")
    @example(m=0.999999999, V=1.0, kc=1.0, x=0.5, y=-1.6014462564197873e179, n=1,
             side="lower", end="m_to_0")
    @example(m=0.5, V=1.0, kc=1.0, x=-1e300, y=0.0, n=1, side="lower", end="m_to_1")
    @example(m=0.999999999, V=1.0, kc=1.0, x=3.9889411146863e-276, y=0.0, n=1,
             side="lower", end="m_to_1")
    @settings(max_examples=300, deadline=None)
    def test_every_function(self, m, V, kc, x, y, n, side, end):
        z = complex(x, y)
        _each_gets_the_contract(
            lambda: k_large_V(m, V), lambda: exceptional_V_asymptote(n, m),
            lambda: k_near_wedge(m, V, side), lambda: one_minus_m_nonperturbative(kc, V),
            lambda: V_near_m1(kc, m), lambda: _V_near_m0(kc, m),
            lambda: degenerate_zeta(z, m, end), lambda: degenerate_wp(z, m, end),
            lambda: K_asymptotes(m))
