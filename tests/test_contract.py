"""Every finite float input gets a value or a contract error.

A call on finite floats, subnormals and +-1.7e308 among them, returns a value
or raises :class:`DomainError` or :class:`NumericalError`; no other exception
and no numpy warning may escape (pyproject turns numpy's warnings into errors).
What comes back, a float or an array and of which shape, is pinned per input type.
"""

import cmath
import dataclasses
import itertools
import math
import re

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
from kdvorbits.bands import (
    band_edges,
    crystal_momentum,
    exceptional_energy_asymptote,
    floquet_traces,
    kappa_ell_extended,
    lame_profile,
    numeric_band_gaps,
)
from kdvorbits.elliptic import (
    ellint_differences,
    ellint_E,
    ellint_F_zeta,
    ellint_K,
    ellint_KE,
    jacobi,
)
from kdvorbits.errors import DomainError, NumericalError, shown
from kdvorbits.hill import (
    floquet,
    floquet_monodromy,
    kdv_evolve,
    lame_exact_residual,
    winding_number,
)
from kdvorbits.orbits import (
    cnoidal_profile,
    constant_trace,
    level_curve,
    orbit_data,
    winding_from_kc,
)
from kdvorbits.profiles import _MAX_SAMPLES, Profile, grid, spectral_derivative
from kdvorbits.shoaling import m_from_depth, zero_average_V
from kdvorbits.virasoro import (
    CircleDiffeo,
    coadjoint,
    compose,
    density_transform,
    infinitesimal_coadjoint,
    schwarzian,
)
from kdvorbits.weierstrass import lattice, sigma, wp, wp_amplitude, wp_prime, zeta

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
    # the examples: a subnormal m, and a period reduction of jacobi that
    # overflows to -inf
    @given(m=PARAMETER, y=FINITE, x=FINITE, u=FINITE)
    @example(m=1.976e-320, y=1.0, x=1.0, u=1.7673744569203736e-238)
    @example(m=0.25, y=1.7976931348623157e308, x=5e-324, u=1.7976931348623157e308)
    @settings(max_examples=400, deadline=None)
    def test_scalars(self, m, y, x, u):
        _each_gets_the_contract(
            lambda: ellint_K(m), lambda: ellint_E(m), lambda: ellint_KE(m),
            lambda: ellint_differences(m), lambda: ellint_F_zeta(y, x, m),
            lambda: jacobi(u, m))

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


def _finite(value):
    """value, which must be finite: an answer, not an overflow passed on."""
    assert cmath.isfinite(value), value
    return value


class TestWeierstrass:
    # the examples: the period reduction overflowed, so sn came out 0 and 1/sn^2
    # divided by it; at m = 0, 1/sin^2 came out nan at Im z = 400, and the theta
    # series, unbounded in Im z, gave nan where sin nears overflow and a
    # ValueError at Im z = 1.7e308
    @given(m=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True)),
           x=FINITE, y=FINITE)
    @example(m=0.5, x=1.7e308, y=0.0)
    @example(m=0.0, x=1.7976931348623157e308, y=1.7e308)
    @example(m=0.0, x=0.3, y=400.0)
    @example(m=0.0, x=7.296180602762178, y=710.4539485741404)
    @example(m=0.0, x=0.3, y=1.7e308)
    @settings(max_examples=300, deadline=None)
    def test_wp_and_its_derivative(self, m, x, y):
        lat = lattice(m)
        z = complex(x, y)
        _each_gets_the_contract(
            lambda: _finite(wp(x, lat)), lambda: _finite(wp_prime(x, lat)),
            lambda: _finite(wp(z, lat)), lambda: _finite(wp_prime(z, lat)))

    # the examples: a rest of rounding noise that reads as a lattice point or
    # a zero, the quasi-periodic factor of sigma past overflow, at m = 0 a
    # sigma(1.34e154) that came out nan, and the cases of wp above
    @given(m=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True)),
           x=FINITE, y=FINITE)
    @example(m=0.5, x=1e53, y=1.0)
    @example(m=0.5, x=3e52, y=3e52)
    @example(m=0.5, x=1e3, y=0.0)
    @example(m=0.0, x=1e3, y=1e3)
    @example(m=0.0, x=1.3407807929942597e154, y=0.0)
    @example(m=0.0, x=0.3, y=400.0)
    @example(m=0.0, x=7.296180602762178, y=710.4539485741404)
    @example(m=0.0, x=0.3, y=1.7e308)
    @settings(max_examples=300, deadline=None)
    def test_zeta_and_sigma(self, m, x, y):
        lat = lattice(m)
        z = complex(x, y)
        _each_gets_the_contract(
            lambda: _finite(zeta(x, lat)), lambda: _finite(sigma(x, lat)),
            lambda: _finite(zeta(z, lat)), lambda: _finite(sigma(z, lat)))

    # m = 0 once answered a complex 1 + 0j with a float
    @pytest.mark.parametrize("m", [0.0, 0.5])
    @pytest.mark.parametrize("f", [wp, wp_prime])
    def test_a_complex_argument_gets_a_complex_answer(self, f, m):
        assert type(f(1.0 + 0.0j, lattice(m))) is complex
        assert type(f(1.0, lattice(m))) is float

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

    # the reduction refuses from 1e-9 / ulp(2K') periods 2K', as in the real
    # direction: a complex split once answered wp(0.3 + 1e16j) = 5.55 - 7.06j,
    # a value of the rounding noise of its reduction
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
    # of a degenerate form past overflow; 1/sinh^2 where sinh^2 underflows; an
    # index too long for str() in a refusal message, and its positive, past floats
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
    @example(m=0.5, V=1.0, kc=1.0, x=0.5, y=0.0, n=-10**5000, side="lower", end="m_to_0")
    @example(m=0.5, V=1.0, kc=1.0, x=0.5, y=0.0, n=10**5000, side="lower", end="m_to_0")
    @settings(max_examples=300, deadline=None)
    def test_every_function(self, m, V, kc, x, y, n, side, end):
        z = complex(x, y)
        _each_gets_the_contract(
            lambda: k_large_V(m, V), lambda: exceptional_V_asymptote(n, m),
            lambda: k_near_wedge(m, V, side), lambda: one_minus_m_nonperturbative(kc, V),
            lambda: V_near_m1(kc, m), lambda: _V_near_m0(kc, m),
            lambda: degenerate_zeta(z, m, end), lambda: degenerate_wp(z, m, end),
            lambda: K_asymptotes(m))


# 8 to 16 finite samples, as often of order one as near the float limit
SAMPLES = st.lists(st.one_of(st.floats(-2.0, 2.0), FINITE), min_size=8, max_size=16)
SMOOTH = Profile.from_samples(np.cos(grid(16)))


def _profile(samples):
    try:
        return Profile.from_samples(np.array(samples))
    except DomainError:
        return SMOOTH


class TestProfiles:
    # the examples: the transform of finite samples near the float limit
    # overflowed, in from_samples and in spectral_derivative; an order too long
    # for str() in a refusal message
    @given(samples=SAMPLES, order=st.one_of(st.integers(-2, 6), st.floats(-2.0, 6.0)),
           x=FINITE, n=st.integers(0, 40), a=FINITE, k=st.integers(0, 8))
    @example(samples=[1.7e308, -1.7e308] * 4, order=1, x=0.5, n=16, a=1.0, k=1)
    @example(samples=[1e307, -1e307] * 4, order=3, x=1e308, n=40, a=1.7e308, k=8)
    @example(samples=[1.0] * 8, order=-10**5000, x=0.5, n=16, a=1.0, k=1)
    @settings(max_examples=300, deadline=None)
    def test_every_function(self, samples, order, x, n, a, k):
        p = _profile(samples)
        _each_gets_the_contract(
            lambda: grid(n), lambda: Profile.from_samples(np.array(samples)),
            lambda: spectral_derivative(np.array(samples), order),
            lambda: Profile.from_callable(lambda t: a * np.cos(k * t), n),
            lambda: p(x), lambda: p(np.array([x, 0.5])), lambda: p.mean(),
            lambda: p.derivative(order), lambda: p.resampled(n))

    def test_a_sample_count_too_long_to_print(self):
        # grid(n) takes no such n, so it is not drawn with the rest
        n = -10**5000
        _each_gets_the_contract(lambda: Profile.from_callable(np.cos, n),
                                lambda: cnoidal_profile(0.5, 0.2, 1.0, n=n))


class TestVirasoro:
    # the examples: a rotation by an infinite angle, and samples whose
    # transform overflowed once coadjoint and its infinitesimal form had moved them;
    # a derivative order too long for str() in a refusal message
    @given(samples=SAMPLES, a=FINITE, amplitudes=st.lists(st.one_of(st.floats(-0.3, 0.3), FINITE),
                                                          max_size=3),
           phase=FINITE, x=FINITE, c=FINITE, h=FINITE, order=st.integers(0, 4))
    @example(samples=[1.0] * 8, a=math.inf, amplitudes=[0.1], phase=0.0, x=0.5, c=1.0, h=0.5,
             order=1)
    @example(samples=[1.7e308, -1.7e308] * 4, a=0.5, amplitudes=[0.1], phase=0.0, x=0.5, c=1.0,
             h=0.5, order=1)
    @example(samples=[1.0] * 8, a=0.5, amplitudes=[0.1], phase=0.0, x=0.5, c=1.0, h=0.5,
             order=10**5000)
    @settings(max_examples=300, deadline=None)
    def test_every_function(self, samples, a, amplitudes, phase, x, c, h, order):
        p = _profile(samples)
        maps = []

        def build(make):
            try:
                maps.append(make())
            except DomainError:
                pass

        _each_gets_the_contract(
            lambda: build(lambda: CircleDiffeo.translation(a)),
            lambda: build(lambda: CircleDiffeo.fourier(amplitudes, [phase] * len(amplitudes))),
            lambda: build(CircleDiffeo.identity),
            lambda: build(lambda: CircleDiffeo(lambda t: t + 0.25 * math.sin(t) + a)))
        maps.append(compose(maps[-1], maps[0]))
        for f in maps:
            _each_gets_the_contract(
                lambda: f(x), lambda: f.derivative(x, order), lambda: f.inverse(x),
                lambda: f(np.array([x, 0.5])), lambda: f.derivative(np.array([x, 0.5]), order),
                lambda: f.inverse(np.array([x, 0.5])), lambda: schwarzian(f, np.array([x, 0.5])),
                lambda: schwarzian(f, x), lambda: coadjoint(p, f, c),
                lambda: density_transform(math.cos, f, h)(x))
        _each_gets_the_contract(lambda: infinitesimal_coadjoint(p, SMOOTH, c),
                                lambda: infinitesimal_coadjoint(SMOOTH, p, c))


class TestHill:
    # the examples: a tau that no step count covers, past the float range and
    # nan, where int() raised OverflowError and ValueError; a step bound
    # tau * speed * kmax that overflowed; sigma quotients whose exp overflowed
    # and whose multiplier was 0 / 0; a step count too long for str() in a
    # refusal message.  Explicit step counts keep every drawn evolution short.
    @given(samples=SAMPLES, c=st.one_of(st.floats(-4.0, 4.0), FINITE), tau=FINITE,
           steps=st.integers(-1, 24), m=PARAMETER, V=st.one_of(st.floats(-2.0, 2.0), FINITE),
           x=st.one_of(st.floats(-4.0, 4.0), FINITE), y=st.one_of(st.floats(-4.0, 4.0), FINITE))
    @example(samples=[1.0] * 8, c=2.0, tau=1e308, steps=None, m=0.5, V=0.2, x=0.5, y=0.5)
    @example(samples=[1.0] * 8, c=2.0, tau=math.nan, steps=None, m=0.5, V=0.2, x=0.5, y=0.5)
    @example(samples=[0.0] * 7 + [4.333323355083853e157], c=1.0, tau=3.457110143021566e149,
             steps=0, m=0.5, V=0.2, x=0.5, y=0.5)
    @example(samples=[1.0] * 8, c=1.0, tau=0.0, steps=0, m=0.5, V=0.0, x=0.0, y=-1680.0)
    @example(samples=[1.0] * 8, c=1.0, tau=0.0, steps=0, m=0.5, V=511824.0, x=2.0, y=75.0)
    @example(samples=[1.0] * 8, c=1.0, tau=0.5, steps=-10**5000, m=0.5, V=0.2, x=0.5, y=0.5)
    @settings(max_examples=200, deadline=None)
    def test_every_function(self, samples, c, tau, steps, m, V, x, y):
        p = _profile(samples)
        _each_gets_the_contract(
            lambda: floquet(p, c), lambda: floquet_monodromy(p, c), lambda: winding_number(p, c),
            lambda: kdv_evolve(p, c, tau, steps),
            lambda: lame_exact_residual(m, V, [complex(x, y), complex(y, x)]))


class TestPastTheFloatRange:
    # ints past the float range or numpy's largest array: each raised
    # OverflowError or numpy's ValueError before a refusal could name it
    def refused(self, call, n):
        with pytest.raises(DomainError, match=re.escape(shown(n))):
            call()

    def test_kdv_step_count(self):
        # an explicit step count past the CFL need is not capped: only one
        # that tau / steps cannot divide by is refused
        self.refused(lambda: kdv_evolve(SMOOTH, 1.0, 1e-4, steps=10**5000), 10**5000)

    @pytest.mark.parametrize("profile", [SMOOTH, cnoidal_profile(0.5, 0.2, 1.0)],
                             ids=["from_samples", "from_callable"])
    def test_resampled(self, profile):
        self.refused(lambda: profile.resampled(10**30), 10**30)

    def test_from_callable(self):
        self.refused(lambda: Profile.from_callable(np.cos, 10**30), 10**30)

    @pytest.mark.parametrize("n", [10**30, -10**30])
    def test_grid(self, n):
        self.refused(lambda: grid(n), n)

    def test_cnoidal_profile(self):
        self.refused(lambda: cnoidal_profile(0.5, 0.2, 1.0, n=10**30), 10**30)

    def test_spectral_derivative(self):
        self.refused(lambda: spectral_derivative(SMOOTH.samples, 10**5000), 10**5000)

    def test_profile_derivative(self):
        self.refused(lambda: SMOOTH.derivative(10**5000), 10**5000)

    # a count whose arrays numpy can size but no 64-bit address space holds
    # (4.6e18 bytes), so the allocation is refused at once: numpy's MemoryError
    # escaped before
    @pytest.mark.parametrize("call", [grid, SMOOTH.resampled, cnoidal_profile(0.5, 0.2, 1.0).resampled,
                                      lambda n: Profile.from_callable(np.cos, n)],
                             ids=["grid", "resampled", "resampled_callable", "from_callable"])
    def test_past_memory(self, call):
        self.refused(lambda: call(_MAX_SAMPLES), _MAX_SAMPLES)


class TestBands:
    # Lame indices outside [1, 4096]; in the examples, 10^200, whose N(N+1) m overflowed,
    # and 10^5000, too long for str() in a refusal message
    LAME_MISFITS = st.sampled_from([0, -1, 4097, 10**200, 10**5000])

    # N, n and the energy lists are kept small so that every drawn call is short.
    # The examples: an energy the scan resolves whose steps grow past the float
    # range, and one whose entries stay finite but whose trace does not; an
    # energy scale whose hbar^2 overflowed, and one divided by a zero mass;
    # energies whose abelian integral overflows, and m = 1 - 1e-8, whose lowest
    # band is 0 wide in floats
    @given(m=PARAMETER, E=FINITE, c=FINITE, N=st.one_of(st.integers(-1, 12), LAME_MISFITS),
           n=st.integers(-1, 32), energies=st.lists(FINITE, max_size=3),
           scale=st.one_of(st.none(), FINITE))
    @example(m=0.5, E=1.0, c=1.0, N=1, n=8, energies=[-6.8e5], scale=None)
    @example(m=0.5, E=1.0, c=1.0, N=1, n=8, energies=[-1e5], scale=None)
    @example(m=0.0, E=1.0, c=1.0, N=1, n=8, energies=[], scale=1e155)
    @example(m=0.0, E=1.0, c=0.0, N=1, n=8, energies=[], scale=1.0)
    @example(m=0.5, E=1.0, c=1.0, N=12, n=8, energies=[1e300, -1e300, 3.0], scale=None)
    @example(m=1.0 - 1e-8, E=1.0, c=1.0, N=2, n=8, energies=[0.5, 2.0], scale=None)
    @example(m=0.5, E=1.0, c=1.0, N=10**200, n=8, energies=[1.0], scale=None)
    @example(m=0.5, E=1.0, c=1.0, N=10**5000, n=8, energies=[1.0], scale=None)
    @settings(max_examples=300, deadline=None)
    def test_every_function(self, m, E, c, N, n, energies, scale):
        _each_gets_the_contract(
            lambda: crystal_momentum(E, m), lambda: band_edges(m, N),
            lambda: lame_profile(N, m, E, c, n),
            lambda: floquet_traces(np.array(energies), m, N),
            lambda: kappa_ell_extended(np.array(energies), m, N),
            lambda: exceptional_energy_asymptote(N, m),
            lambda: exceptional_energy_asymptote(N, m, scale, c, E))

    # E_max within the default scan, past the energies the scan resolves (refused
    # before it starts), or not positive: a scan up to E_max = 1e5 takes minutes
    @given(m=PARAMETER, N=st.one_of(st.integers(-1, 3), LAME_MISFITS),
           E_max=st.one_of(st.none(), st.floats(-1.0, 20.0), st.floats(1e6, 1e308),
                           st.floats(max_value=-1.0, allow_infinity=False)))
    @example(m=0.5, N=10**200, E_max=None)
    @example(m=0.5, N=10**5000, E_max=None)
    @settings(max_examples=60, deadline=None)
    def test_numeric_band_gaps(self, m, N, E_max):
        _each_gets_the_contract(lambda: numeric_band_gaps(N, m, E_max))


def _kind(value):
    """The type of a value and of its parts: an array's dtype and shape (and one
    element's kind for dtype object), and the fields of a tuple or a dataclass."""
    name = ("np." if type(value).__module__ == "numpy" else "") + type(value).__name__
    if isinstance(value, np.ndarray):
        element = f" of {_kind(value.flat[0])}" if value.dtype == object else ""
        return f"array[{value.dtype}]{value.shape}{element}"
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, field.name) for field in dataclasses.fields(value))
    elif not isinstance(value, tuple):
        return name
    parts = [(kind, len(list(run))) for kind, run in itertools.groupby(map(_kind, value))]
    return "{}({})".format("" if name == "tuple" else name,  # a run of n equal kinds: kind*n
                           ", ".join(kind + (f"*{n}" if n > 1 else "") for kind, n in parts))


# Each call on one argument given as a float, an np.float64, a 0-d array and a
# 1-d array, the rest floats: the kind of what comes back.
_FORMS = {"float": float, "float64": np.float64, "0-d": np.array, "1-d": lambda x: np.array([x, x])}
_CALLS = {
    "ellint_KE(m)": (lambda a: ellint_KE(a), 0.5),
    "ellint_F_zeta(y)": (lambda a: ellint_F_zeta(a, 0.5, 0.5), 0.3),
    "ellint_F_zeta(m)": (lambda a: ellint_F_zeta(0.3, 0.5, a), 0.5),
    "jacobi(u)": (lambda a: jacobi(a, 0.5), 0.7),
    "lattice(m)": (lambda a: lattice(a), 0.5),
    "wp_amplitude(V)": (lambda a: wp_amplitude(a, lattice(0.5)), 0.3),
    "orbit_data(m)": (lambda a: orbit_data(a, 0.3), 0.5),
    "orbit_data(V)": (lambda a: orbit_data(0.5, a), -0.2),
    "level_curve(m)": (lambda a: level_curve(-0.3, a, "below_wedge"), 0.5),
    "zero_average_V(m)": (lambda a: zero_average_V(a), 0.5),
    "ellint_differences(m)": (lambda a: ellint_differences(a), 0.5),
    "m_from_depth(h)": (lambda a: m_from_depth(a, 10.0, 1e4, 1025.0, 9.81), 3.0),
}
_KINDS = {
    ("ellint_KE(m)", "float"):
        "(float*2)",
    ("ellint_KE(m)", "float64"):
        "(float*2)",
    ("ellint_KE(m)", "0-d"):
        "(float*2)",
    ("ellint_KE(m)", "1-d"):
        "(array[float64](2,)*2)",
    ("ellint_F_zeta(y)", "float"):
        "(float*2)",
    ("ellint_F_zeta(y)", "float64"):
        "(float*2)",
    ("ellint_F_zeta(y)", "0-d"):
        "(float*2)",
    ("ellint_F_zeta(y)", "1-d"):
        "(array[float64](2,)*2)",
    ("ellint_F_zeta(m)", "float"):
        "(float*2)",
    ("ellint_F_zeta(m)", "float64"):
        "(float*2)",
    ("ellint_F_zeta(m)", "0-d"):
        "(float*2)",
    ("ellint_F_zeta(m)", "1-d"):
        "(array[float64](2,)*2)",
    ("jacobi(u)", "float"):
        "JacobiTriple(float*3)",
    ("jacobi(u)", "float64"):
        "JacobiTriple(float*3)",
    ("jacobi(u)", "0-d"):
        "JacobiTriple(float*3)",
    ("jacobi(u)", "1-d"):
        "JacobiTriple(array[float64](2,)*3)",
    ("lattice(m)", "float"):
        "RectLattice(float*12)",
    ("lattice(m)", "float64"):
        "RectLattice(float*12)",
    ("lattice(m)", "0-d"):
        "RectLattice(float*12)",
    ("lattice(m)", "1-d"):
        "RectLattice(array[float64](2,)*12)",
    ("wp_amplitude(V)", "float"):
        "EdgeAmplitude(int, (float*2), float, int, (float*3))",
    ("wp_amplitude(V)", "float64"):
        "EdgeAmplitude(int, (float*2), float, int, (float*3))",
    ("wp_amplitude(V)", "0-d"):
        "EdgeAmplitude(int, (float*2), float, int, (float*3))",
    ("wp_amplitude(V)", "1-d"):
        "EdgeAmplitude(array[int64](2,), (array[float64](2,)*2), array[float64](2,), "
        "array[int64](2,), (array[float64](2,)*3))",
    ("orbit_data(m)", "float"):
        "OrbitData(float, complex, bool, OrbitClass(OrbitKind, int))",
    ("orbit_data(m)", "float64"):
        "OrbitData(float, complex, bool, OrbitClass(OrbitKind, int))",
    ("orbit_data(m)", "0-d"):
        "OrbitData(float, complex, bool, OrbitClass(OrbitKind, int))",
    ("orbit_data(m)", "1-d"):
        "OrbitData(array[float64](2,), array[complex128](2,), array[bool](2,), "
        "array[object](2,) of OrbitClass(OrbitKind, int))",
    ("orbit_data(V)", "float"):
        "OrbitData(float, complex, bool, OrbitClass(OrbitKind, int))",
    ("orbit_data(V)", "float64"):
        "OrbitData(float, complex, bool, OrbitClass(OrbitKind, int))",
    ("orbit_data(V)", "0-d"):
        "OrbitData(float, complex, bool, OrbitClass(OrbitKind, int))",
    ("orbit_data(V)", "1-d"):
        "OrbitData(array[float64](2,), array[complex128](2,), array[bool](2,), "
        "array[object](2,) of OrbitClass(OrbitKind, int))",
    ("level_curve(m)", "float"):
        "float",
    ("level_curve(m)", "float64"):
        "float",
    ("level_curve(m)", "0-d"):
        "float",
    ("level_curve(m)", "1-d"):
        "array[float64](2,)",
    ("zero_average_V(m)", "float"):
        "float",
    ("zero_average_V(m)", "float64"):
        "float",
    ("zero_average_V(m)", "0-d"):
        "float",
    ("zero_average_V(m)", "1-d"):
        "array[float64](2,)",
    ("ellint_differences(m)", "float"):
        "(float*3)",
    ("ellint_differences(m)", "float64"):
        "(float*3)",
    ("ellint_differences(m)", "0-d"):
        "(float*3)",
    ("ellint_differences(m)", "1-d"):
        "(array[float64](2,)*3)",
    ("m_from_depth(h)", "float"):
        "float",
    ("m_from_depth(h)", "float64"):
        "float",
    ("m_from_depth(h)", "0-d"):
        "float",
    ("m_from_depth(h)", "1-d"):
        "array[float64](2,)",
}


@pytest.mark.parametrize("call, form", list(_KINDS))
def test_the_kind_of_each_answer(call, form):
    # one rule for every call: a float, an np.float64 and a 0-d array come back
    # in Python's types, as the float does, and an array as arrays
    f, x = _CALLS[call]
    assert _kind(f(_FORMS[form](x))) == _KINDS[call, form]
