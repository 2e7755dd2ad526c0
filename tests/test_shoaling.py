"""Shallow-water wave trains and the shoaling path.

The closed-form transport bracket is checked against quadrature of the
squared surface deviation (two independent routes: dn-power integrals
from the ODE oracle, and the sampled dimensionless profile), the
depth-pointedness relation against its own inverse and against the
critical-depth formula, and the path bookkeeping against bisection.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

import oracles
from kdvorbits import shoaling
from kdvorbits.errors import DomainError, NumericalError
from kdvorbits.orbits import OrbitKind, classify, cnoidal_profile, orbit_data
from kdvorbits.shoaling import (
    WaveTrain,
    critical_depth,
    critical_m,
    depth_from_m,
    depth_profile_D,
    energy_transport,
    m_from_depth,
    read_bathymetry,
    shoaling_path,
    wavelength,
    zero_average_V,
)
from kdvorbits.weierstrass import lattice

# A reference train shared below: 8-second swell over 5 m of water with
# the pointedness dialed to 0.5; its transport F is then conserved while
# the depth drops.
T_REF = 8.0
RHO_REF = 1025.0
G_REF = 9.81
H_REF = 5.0
M_REF = 0.5
TRAIN_REF = WaveTrain(H_REF, wavelength(H_REF, T_REF, G_REF), M_REF,
                      T_REF, RHO_REF, G_REF)
F_REF = TRAIN_REF.F


class TestZeroAverageV:
    def test_flat_limit(self):
        assert_allclose(zero_average_V(0.0), 2.0 / 3.0, rtol=1e-15)

    @pytest.mark.parametrize("m", [1e-2, 1e-3, 1e-4])
    def test_hugs_the_parabolic_line(self, m):
        # V - (2-m)/3 = -m^2/8 + O(m^3): the curve leaves the parabolic
        # line only at second order.
        gap = zero_average_V(m) - (2.0 - m) / 3.0
        assert gap < 0.0
        assert_allclose(gap, -m * m / 8.0, rtol=0.05)

    def test_soliton_limit(self):
        # The approach to -2/3 is logarithmic in 1 - m: slow but monotone.
        values = [zero_average_V(1.0 - 10.0**-j) for j in range(3, 13, 2)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert -2.0 / 3.0 < values[-1] < -0.5

    def test_wedge_top_at_critical_pointedness(self):
        m_star = critical_m()
        v = zero_average_V(m_star)
        assert_allclose(v, (2.0 * m_star - 1.0) / 3.0, atol=1e-14)
        assert_allclose(v, 0.2174098439899801, atol=1e-12)

    @given(st.floats(min_value=1e-3, max_value=0.995))
    @settings(deadline=None, max_examples=50)
    def test_stays_between_the_lines(self, m):
        v = zero_average_V(m)
        assert v < (2.0 - m) / 3.0
        assert v > -(m + 1.0) / 3.0
        # ... and sits above the wedge top exactly when m < m*.
        assert (v > (2.0 * m - 1.0) / 3.0) == (m < critical_m())

    @pytest.mark.parametrize("m", [1.0, 1.2, -0.1, float("nan")])
    def test_rejects_bad_modulus(self, m):
        with pytest.raises(DomainError):
            zero_average_V(m)


class TestCriticalM:
    def test_value(self):
        assert abs(critical_m() - 0.8261147659849698) < 1e-12

    def test_half_ratio(self):
        lat = lattice(critical_m())
        assert abs(lat.E / lat.K - 0.5) < 1e-14

    def test_sits_on_the_exceptional_edge(self):
        m_star = critical_m()
        label = classify(m_star, zero_average_V(m_star))
        assert label.kind is OrbitKind.EXCEPTIONAL
        assert label.winding == 1

    def test_mean_profile_vanishes(self):
        for m in np.linspace(0.1, 0.9, 9):
            profile = cnoidal_profile(m, zero_average_V(m), 1.0)
            assert abs(profile.mean()) < 1e-10


class TestWavelength:
    def test_direct_value(self):
        assert_allclose(wavelength(1.0, 10.0, 9.81),
                        math.sqrt(9.81) * 10.0, rtol=1e-10)

    def test_square_root_scaling(self):
        assert_allclose(wavelength(1.0, 10.0, 9.81),
                        2.0 * wavelength(0.25, 10.0, 9.81), rtol=1e-15)

    @pytest.mark.parametrize("h,T,g", [
        (0.0, 10.0, 9.81),
        (1.0, -2.0, 9.81),
        (1.0, 10.0, 0.0),
        (float("inf"), 10.0, 9.81),
    ])
    def test_rejects_nonpositive_inputs(self, h, T, g):
        with pytest.raises(DomainError):
            wavelength(h, T, g)


class TestWaveTrain:
    def test_epsilon_is_squared_aspect(self):
        assert_allclose(TRAIN_REF.epsilon,
                        H_REF**2 / TRAIN_REF.lam**2, rtol=1e-15)

    def test_transport_computed_when_omitted(self):
        assert TRAIN_REF.F == energy_transport(TRAIN_REF)

    def test_explicit_transport_is_kept(self):
        train = WaveTrain(H_REF, TRAIN_REF.lam, M_REF, T_REF,
                          RHO_REF, G_REF, F=123.0)
        assert train.F == 123.0

    def test_warns_when_not_shallow(self):
        with pytest.warns(RuntimeWarning, match="shallow-water"):
            WaveTrain(3.0, 10.0, 0.5, T_REF, RHO_REF, G_REF)

    def test_silent_when_shallow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            WaveTrain(0.2, 10.0, 0.5, T_REF, RHO_REF, G_REF)

    @pytest.mark.parametrize("kwargs", [
        dict(h=-1.0), dict(lam=0.0), dict(m=1.0), dict(m=-0.2),
        dict(T=0.0), dict(rho=-5.0), dict(g=float("nan")),
    ])
    def test_rejects_bad_fields(self, kwargs):
        fields = dict(h=H_REF, lam=TRAIN_REF.lam, m=M_REF, T=T_REF,
                      rho=RHO_REF, g=G_REF)
        fields.update(kwargs)
        with pytest.raises(DomainError):
            WaveTrain(**fields)


def _bracket(m: float) -> float:
    """The transport bracket isolated from energy_transport's prefactor."""
    train = WaveTrain(1.0, 10.0, m, 1.0, 1.0, 1.0)
    return energy_transport(train) * 10.0**3 / (256.0 / 9.0)


class TestEnergyTransport:
    def test_flat_wave_transports_nothing(self):
        scale = 256.0 / 9.0 * RHO_REF * G_REF * 2.0**6 / 40.0**3 \
            * (math.pi / 2.0) ** 4
        train = WaveTrain(2.0, 40.0, 0.0, T_REF, RHO_REF, G_REF)
        assert abs(train.F) < 1e-12 * scale

    def test_depth_and_wavelength_scaling(self):
        base = WaveTrain(2.0, 40.0, 0.4, T_REF, RHO_REF, G_REF).F
        deeper = WaveTrain(4.0, 40.0, 0.4, T_REF, RHO_REF, G_REF).F
        longer = WaveTrain(2.0, 80.0, 0.4, T_REF, RHO_REF, G_REF).F
        assert_allclose(deeper, 64.0 * base, rtol=1e-13)
        assert_allclose(longer, base / 8.0, rtol=1e-13)

    def test_bracket_against_dn_power_quadrature(self):
        # The bracket equals (K^3/2) * integral_0^{2K} (dn^2 - E/K)^2,
        # assembled here entirely from the quadrature/ODE oracles.
        m = 0.5
        K, E = oracles.quad_K(m), oracles.quad_E(m)
        i2 = oracles.ode_dn_power_integral(2, m)
        i4 = oracles.ode_dn_power_integral(4, m)
        expected = K**3 / 2.0 * (i4 - 2.0 * (E / K) * i2 + 2.0 * E * E / K)
        assert_allclose(_bracket(m), expected, rtol=1e-9)

    @pytest.mark.parametrize("m", [0.3, 0.5, 0.85])
    def test_bracket_against_squared_profile(self, m):
        # Same bracket from the sampled dimensionless zero-average wave:
        # mean of p^2 over a period times (3/32pi)^2.
        profile = cnoidal_profile(m, zero_average_V(m), -32.0 * math.pi**3)
        mean_sq = float(np.mean(profile.samples**2))
        assert_allclose(_bracket(m), mean_sq * (3.0 / (32.0 * math.pi))**2,
                        rtol=1e-9)


class TestDepthFromM:
    def test_round_waves_live_deep(self):
        args = (T_REF, F_REF, RHO_REF, G_REF)
        assert depth_from_m(0.3, *args) > depth_from_m(0.8, *args)
        hs = [depth_from_m(m, *args) for m in np.linspace(0.05, 0.99, 9)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    @pytest.mark.parametrize("m", [0.2, 0.5, 0.8])
    def test_transport_round_trip(self, m):
        h = depth_from_m(m, T_REF, F_REF, RHO_REF, G_REF)
        train = WaveTrain(h, wavelength(h, T_REF, G_REF), m,
                          T_REF, RHO_REF, G_REF)
        assert_allclose(train.F, F_REF, rtol=1e-9)

    def test_reference_depth_is_recovered(self):
        assert_allclose(depth_from_m(M_REF, T_REF, F_REF, RHO_REF, G_REF),
                        H_REF, rtol=1e-12)

    def test_critical_coefficient(self):
        # At m = m* and unit (T, F, rho, g) the depth reduces to the
        # bare coefficient of the critical-depth law.
        assert abs(depth_from_m(critical_m(), 1.0, 1.0, 1.0, 1.0)
                   - 0.3905) < 5e-4

    @pytest.mark.parametrize("m", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_bad_modulus(self, m):
        with pytest.raises(DomainError):
            depth_from_m(m, T_REF, F_REF, RHO_REF, G_REF)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(DomainError):
            depth_from_m(0.5, -1.0, F_REF, RHO_REF, G_REF)
        with pytest.raises(DomainError):
            depth_from_m(0.5, T_REF, 0.0, RHO_REF, G_REF)


def _reach_depths():
    """240 log-spaced depths over the whole reach of m_from_depth for the
    reference train, plus points within 1e-4 and 1e-3 of either end."""
    args = (T_REF, F_REF, RHO_REF, G_REF)
    shallow = depth_from_m(1.0 - 1e-15, *args)
    deep = depth_from_m(1e-6, *args)
    return [*np.geomspace(shallow, deep, 240).tolist(), shallow * (1.0 + 1e-4),
            shallow * 1.001, deep * 0.999, deep * (1.0 - 1e-4)]


class TestMFromDepth:
    @pytest.mark.parametrize("m", [0.05, 0.3, 0.6, 0.9, 0.99])
    def test_round_trip(self, m):
        h = depth_from_m(m, T_REF, F_REF, RHO_REF, G_REF)
        assert abs(m_from_depth(h, T_REF, F_REF, RHO_REF, G_REF) - m) < 1e-10

    def test_reach_is_generous(self):
        # The numeric m -> 0 bound sits two orders of magnitude above
        # the depth of the reference train itself.
        deep = depth_from_m(1e-6, T_REF, F_REF, RHO_REF, G_REF)
        assert deep > 50.0 * H_REF
        with pytest.raises(DomainError, match="exceeds"):
            m_from_depth(1.01 * deep, T_REF, F_REF, RHO_REF, G_REF)

    def test_rejects_vanishing_depth(self):
        shallow = depth_from_m(1.0 - 1e-15, T_REF, F_REF, RHO_REF, G_REF)
        with pytest.raises(DomainError):
            m_from_depth(0.99 * shallow, T_REF, F_REF, RHO_REF, G_REF)

    def test_newton_matches_brentq_across_the_reach(self):
        # the oracle is brentq on depth_from_m
        args = (T_REF, F_REF, RHO_REF, G_REF)
        worst = {"newton": 0.0, "brentq": 0.0}
        for h in _reach_depths():
            expected = brentq(lambda m: depth_from_m(m, *args) - h,
                              1e-6, 1.0 - 1e-15, xtol=1e-15, rtol=8.9e-16)
            m = m_from_depth(h, *args)
            assert abs(m - expected) <= 4e-15, h
            for name, value in (("newton", m), ("brentq", expected)):
                worst[name] = max(worst[name], abs(depth_from_m(value, *args) / h - 1.0))
        # near m = 1 one float step in m moves the depth by ~1e-3
        assert worst["newton"] <= worst["brentq"]

    def test_array_is_the_scalar_calls_bit_for_bit(self):
        args = (T_REF, F_REF, RHO_REF, G_REF)
        hs = _reach_depths()
        alone = [m_from_depth(h, *args) for h in hs]
        assert all(type(m) is float for m in alone)
        assert m_from_depth(np.array(hs), *args).tolist() == alone
        # the shape is kept, and the order of the depths changes nothing
        backwards = m_from_depth(np.array(hs[::-1]).reshape(4, -1), *args)
        assert backwards.shape == (4, 61)
        assert backwards.ravel().tolist() == alone[::-1]

    def test_array_raises_for_the_first_offending_depth(self):
        args = (T_REF, F_REF, RHO_REF, G_REF)
        deep = 1.01 * depth_from_m(1e-6, *args)
        shallow = 0.99 * depth_from_m(1.0 - 1e-15, *args)
        for hs in ([H_REF, deep, shallow, -1.0], [H_REF, shallow, deep],
                   [H_REF, math.nan, deep], [H_REF, H_REF, 0.0, shallow]):
            bad = next(h for h in hs if h != H_REF)
            with pytest.raises(DomainError) as alone:
                m_from_depth(bad, *args)
            with pytest.raises(DomainError) as together:
                m_from_depth(np.array(hs), *args)
            assert str(together.value) == str(alone.value)

    def test_array_names_the_first_depth_that_does_not_settle(self, monkeypatch):
        monkeypatch.setattr(shoaling, "_MAX_STEPS", 5)
        args = (T_REF, F_REF, RHO_REF, G_REF)
        hs = _reach_depths()[::6]
        unsettled = []
        for h in hs:
            try:
                m_from_depth(h, *args)
            except NumericalError as exc:
                unsettled.append((h, str(exc)))
        assert unsettled and unsettled[0][0] != hs[0]
        with pytest.raises(NumericalError) as together:
            m_from_depth(np.array(hs), *args)
        assert str(together.value) == unsettled[0][1]
        assert repr(unsettled[0][0]) in unsettled[0][1]

    @pytest.mark.parametrize("m_true", [1.2e-6, 1e-4, 0.01, 0.08, 0.3, 0.5,
                                        0.8261, 0.99, 1.0 - 1e-9, 1.0 - 1e-13])
    def test_inverse_matches_mpmath(self, m_true):
        # the transport bracket keeps its digits as m -> 0 (it vanishes like
        # m^2 from O(1) terms), so the inverse holds to a few ulp everywhere
        args = (T_REF, F_REF, RHO_REF, G_REF)
        h = depth_from_m(m_true, *args)
        expected = oracles.mp_m_from_depth(h, *args, guess=m_true)
        assert abs(m_from_depth(h, *args) - expected) <= 1e-15 * expected


class TestCriticalDepth:
    def test_coefficient(self):
        assert abs(critical_depth(1.0, 1.0, 1.0, 1.0) - 0.3905) < 5e-4

    def test_agrees_with_depth_relation(self):
        assert_allclose(critical_depth(T_REF, F_REF, RHO_REF, G_REF),
                        depth_from_m(critical_m(), T_REF, F_REF,
                                     RHO_REF, G_REF), rtol=1e-9)

    def test_power_law_exponents(self):
        base = critical_depth(T_REF, F_REF, RHO_REF, G_REF)
        assert_allclose(critical_depth(2.0 * T_REF, F_REF, RHO_REF, G_REF),
                        2.0 ** (6.0 / 9.0) * base, rtol=1e-12)
        assert_allclose(critical_depth(T_REF, 8.0 * F_REF, RHO_REF, G_REF),
                        2.0 ** (2.0 / 3.0) * base, rtol=1e-12)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(DomainError):
            critical_depth(0.0, F_REF, RHO_REF, G_REF)


class TestFloatRange:
    # finite floats, with subnormals and +-1.8e308 among them; the examples
    # are an underflowing transport bracket, an overflowing T**3 and T**6,
    # a subnormal density, and reaches so wide that h**4.5 overflows or
    # underflows to 0 inside them
    @given(*[st.floats(allow_nan=False, allow_infinity=False)] * 5)
    @example(1e-300, 8.0, 1e4, 1025.0, 9.81)
    @example(5.0, 1e200, 1e4, 1025.0, 9.81)
    @example(5.0, 1e60, 1e4, 1025.0, 9.81)
    @example(5.0, 8.0, 1e4, 1e-320, 9.81)
    @example(1e100, 1e100, 1.0, 1.0, 1.0)
    @example(1e-80, 1e-107, 1.0, 1.0, 1.0)
    @example(1e100, 10.0, 8.0, 1025.0, 9.81)  # h**6 overflows in energy_transport
    @example(1.0, 1e-170, 8.0, 1025.0, 9.81)  # lam**3 and lam * lam underflow to 0
    @example(1e300, 1e10, 8.0, 1025.0, 1e300)  # g h overflows in wavelength
    @settings(max_examples=400, deadline=None)
    def test_every_finite_input_gets_a_value_or_a_contract_error(self, x, T, F, rho, g):
        # the wave train reads (h, lam, T) = (x, T, F)
        calls = (lambda: depth_from_m(x, T, F, rho, g),
                 lambda: critical_depth(T, F, rho, g),
                 lambda: m_from_depth(x, T, F, rho, g),
                 lambda: m_from_depth(np.array([x, 0.5 * x]), T, F, rho, g),
                 lambda: wavelength(x, T, g),
                 lambda: WaveTrain(x, T, 0.5, F, rho, g).F,  # energy_transport
                 lambda: WaveTrain(x, T, 0.5, F, rho, g, F=1.0).epsilon)
        for call in calls:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # eps beyond 0.05
                    value = np.asarray(call())
            except (DomainError, NumericalError):
                continue
            assert np.all((value > 0.0) & (value < math.inf))

    @pytest.mark.parametrize("call", [
        lambda: WaveTrain(1e100, 10.0, 0.5, 8.0, 1025.0, 9.81),
        lambda: WaveTrain(1.0, 1e-170, 0.5, 8.0, 1025.0, 9.81),
        lambda: WaveTrain(1.0, 1e-170, 0.5, 8.0, 1025.0, 9.81, F=1e4),
        lambda: wavelength(1e300, 1e10, 1e300),
    ])
    def test_wave_train_out_of_float_range(self, call):
        # an OverflowError, a ZeroDivisionError and an inf before
        with pytest.raises(DomainError, match="take the result out of float range"):
            call()



class TestDepthProfile:
    def test_spatial_mean_is_the_depth(self):
        train = WaveTrain(2.0, wavelength(2.0, T_REF, G_REF), 0.7,
                          T_REF, RHO_REF, G_REF)
        xs = np.linspace(0.0, train.lam, 1024, endpoint=False)
        mean = float(np.mean(depth_profile_D(xs, 0.3, train)))
        assert_allclose(mean, train.h, rtol=1e-9)

    def test_flat_limit(self):
        train = WaveTrain(2.0, wavelength(2.0, T_REF, G_REF), 1e-12,
                          T_REF, RHO_REF, G_REF)
        xs = np.linspace(0.0, train.lam, 257)
        assert np.max(np.abs(depth_profile_D(xs, 0.0, train) - train.h)) \
            < 1e-10 * train.h

    def test_rescaled_deviation_is_the_dimensionless_wave(self):
        # 2 pi (lam^2/h^3) (D - h) at the comoving coordinate equals the
        # zero-average profile at central charge -32 pi^3.
        m, t = 0.7, 0.7
        train = WaveTrain(2.0, wavelength(2.0, T_REF, G_REF), m,
                          T_REF, RHO_REF, G_REF)
        profile = cnoidal_profile(m, zero_average_V(m), -32.0 * math.pi**3)
        xs = np.linspace(0.0, train.lam, 640, endpoint=False)
        comoving = 2.0 * math.pi / train.lam \
            * (xs - math.sqrt(G_REF * train.h) * t)
        rescaled = 2.0 * math.pi * train.lam**2 / train.h**3 \
            * (depth_profile_D(xs, t, train) - train.h)
        assert np.max(np.abs(rescaled - profile(comoving))) < 1e-9

    def test_scalar_position(self):
        crest = float(depth_profile_D(0.0, 0.0, TRAIN_REF))
        assert crest > TRAIN_REF.h


# moderate values, or anything from the smallest subnormal to the float limit
POSITIVE = st.one_of(st.floats(0.1, 1e5), st.floats(min_value=5e-324, max_value=1.7e308))


def _station_by_station(hs, T, F, rho, g):
    """:func:`shoaling_path` one station at a time from the scalar calls: the
    per-station loop the array pass replaced.  Where lam^2 underflows to 0
    that loop divided by zero; the path raises a DomainError there."""
    if not hs:
        raise DomainError("need at least one depth")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise DomainError("depths must be strictly decreasing along the path")
    points, entry = [], None
    for i, (h, m) in enumerate(zip(hs, m_from_depth(np.array(hs), T, F, rho, g).tolist())):
        V = zero_average_V(m)
        data = orbit_data(m, V)
        in_wedge = m > critical_m()
        if in_wedge and entry is None:
            entry = i
        lam = wavelength(h, T, g)
        if lam * lam == 0.0:
            raise DomainError(f"h = {h!r}, lam = {lam!r} take the result out of float range")
        points.append(shoaling.PathPoint(h, lam, m, V, data.kc, data.orbit, in_wedge,
                                         h * h / (lam * lam), math.sqrt(g * h)))
    crossing = critical_depth(T, F, rho, g) if entry else None
    return shoaling.ShoalingPath(points, entry, crossing)


class TestShoalingPath:
    def setup_method(self):
        self.h_star = critical_depth(T_REF, F_REF, RHO_REF, G_REF)
        hs = np.linspace(H_REF, 0.5 * self.h_star, 9)
        self.path = shoaling_path(hs, T_REF, F_REF, RHO_REF, G_REF)

    def test_wedge_entry_bookkeeping(self):
        entry = self.path.entry_index
        assert entry is not None
        flags = [p.in_wedge for p in self.path.points]
        assert flags == [False] * entry + [True] * (len(flags) - entry)
        m_star = critical_m()
        assert all((p.m > m_star) == p.in_wedge for p in self.path.points)

    def test_crossing_depth_matches_critical_depth(self):
        assert_allclose(self.path.crossing_depth, self.h_star, rtol=1e-15)

    def test_pointedness_grows_as_water_shallows(self):
        ms = [p.m for p in self.path.points]
        assert all(a < b for a, b in zip(ms, ms[1:]))

    def test_never_crosses_the_lower_boundary(self):
        assert all(p.V > -(p.m + 1.0) / 3.0 for p in self.path.points)

    def test_orbit_classes_along_the_path(self):
        for p in self.path.points:
            if p.in_wedge:
                assert p.orbit.kind is OrbitKind.HYPERBOLIC
                assert p.orbit.winding == 1
                assert p.kc.imag < 0.0
            else:
                assert p.orbit.kind is OrbitKind.ELLIPTIC
                assert p.orbit.winding == 0
                assert p.kc.imag == 0.0

    def test_derived_columns(self):
        for p in self.path.points:
            assert p.lam == wavelength(p.h, T_REF, G_REF)
            assert_allclose(p.epsilon, p.h**2 / p.lam**2, rtol=1e-15)
            assert p.speed == math.sqrt(G_REF * p.h)

    def test_deep_path_never_enters(self):
        path = shoaling_path([H_REF, 0.9 * H_REF], T_REF, F_REF,
                             RHO_REF, G_REF)
        assert path.entry_index is None
        assert path.crossing_depth is None

    @pytest.mark.parametrize("hs", [[], [3.0, 3.0], [2.0, 3.0]])
    def test_rejects_bad_sequences(self, hs):
        with pytest.raises(DomainError):
            shoaling_path(hs, T_REF, F_REF, RHO_REF, G_REF)

    # T, F, rho, g from POSITIVE; the beach starts at
    # `start` times the depth of m = 1/2 and falls by `steps`.  The examples
    # overflow g h in the wavelength (a numpy RuntimeWarning in a bare array
    # pass) and underflow lam^2 to 0 under h^2.
    @given(T=POSITIVE, F=POSITIVE, rho=POSITIVE, g=POSITIVE, start=st.floats(0.1, 400.0),
           steps=st.lists(st.floats(0.5, 0.999), max_size=6))
    @example(T=80.15, F=1025.0, rho=18.85, g=1.945e274, start=200.0, steps=[0.5])
    @example(T=1e-100, F=1e300, rho=1e-300, g=5e-324, start=1.2, steps=[0.8, 0.6])
    @example(T=T_REF, F=F_REF, rho=RHO_REF, g=G_REF, start=3.0, steps=[0.6] * 5)
    @settings(max_examples=300, deadline=None)
    def test_the_array_pass_is_each_station_alone(self, T, F, rho, g, start, steps):
        try:
            h0 = start * depth_from_m(0.5, T, F, rho, g)
        except DomainError:
            h0 = start
        hs = [h0]
        for step in steps:
            hs.append(hs[-1] * step)
        try:
            expected = _station_by_station(hs, T, F, rho, g)
        except (DomainError, NumericalError) as exc:
            expected = exc
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy warning may reach the CLI
                path = shoaling_path(hs, T, F, rho, g)
        except (DomainError, NumericalError) as exc:
            assert (type(exc), str(exc)) == (type(expected), str(expected))
        else:
            # repr tells float from numpy scalar, -0.0 from 0.0, and rounds-trips
            assert repr(path) == repr(expected)


class TestReadBathymetry:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "bed.csv"
        csv_path.write_text("X,h\n0.0,5.0\n100.0,4.5\n\n200.0,4.0\n")
        xs, hs = read_bathymetry(csv_path)
        assert_allclose(xs, [0.0, 100.0, 200.0])
        assert_allclose(hs, [5.0, 4.5, 4.0])

    @pytest.mark.parametrize("text", [
        "X,h\n0.0\n",               # short row
        "X,h\n0.0,deep\n",          # non-numeric depth
        "X,h\n0.0,-1.0\n",          # dry land
        "X,h\n",                    # no data
        "",                         # no header
    ])
    def test_rejects_malformed_files(self, tmp_path, text):
        csv_path = tmp_path / "bed.csv"
        csv_path.write_text(text)
        with pytest.raises(DomainError):
            read_bathymetry(csv_path)
