import gc
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kdvorbits import elliptic, orbits
from kdvorbits.asymptotics import k_large_V
from kdvorbits.bands import crystal_momentum
from kdvorbits.elliptic import ellint_E, ellint_K, jacobi
from kdvorbits.errors import DomainError, InsideWedgeError, NumericalError
from kdvorbits.orbits import (
    BOUNDARY_TOL,
    OrbitKind,
    OrbitData,
    classify,
    cnoidal_profile,
    cnoidal_speed,
    constant_trace,
    dk_dV,
    level_curve,
    monodromy_trace,
    orbit_data,
    uniform_representative,
    winding_from_kc,
)
from kdvorbits.weierstrass import CORNERS, lattice, wp_amplitude, wp_inverse, zeta

import oracles

M_GRID = [1e-6, 0.05, 0.3, 0.5, 0.7, 0.9, 0.999]


def region_points(m):
    """One interior V per region: below / wedge / band / above."""
    lat = lattice(m)
    return {
        "below": lat.e2 - 0.8,
        "wedge": 0.5 * (lat.e2 + lat.e3),
        "band": 0.5 * (lat.e3 + lat.e1),
        "above": lat.e1 + 1.1,
    }


class TestHolonomyRoutes:
    """The per-edge real formulas must agree with K zeta(a) - eta1 a."""

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.5, 0.9, 0.999])
    def test_trace_matches_zeta_route(self, m):
        lat = lattice(m)
        for V in region_points(m).values():
            a = wp_inverse(V, lat)
            w = lat.K * zeta(a, lat) - lat.eta1 * a
            expected = 2.0 * np.cosh(2.0 * w)
            assert abs(expected.imag) < 1e-9
            assert_allclose(monodromy_trace(m, V), expected.real,
                            rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("m,V", [
        (0.3, -1.7), (0.3, 0.25), (0.3, 1.4),
        (0.7, -0.9), (0.7, 0.35), (0.7, 2.0),
        (0.95, -4.0), (0.95, 0.36),
    ])
    def test_trace_matches_floquet_ode(self, m, V):
        K = ellint_K(m)

        def q(x):
            s = jacobi(K * x / math.pi, m).sn
            return 2.0 * K * K / math.pi**2 * (V / 2 - (m + 1) / 3 + m * s * s)

        assert_allclose(monodromy_trace(m, V), oracles.ode_hill_trace(q),
                        rtol=1e-8, atol=1e-8)

    def test_edge_traces_are_exact(self):
        for m in (0.05, 0.5, 0.9):
            lat = lattice(m)
            assert monodromy_trace(m, lat.e2) == -2.0
            assert monodromy_trace(m, lat.e3) == -2.0
            assert monodromy_trace(m, lat.e1) == 2.0

    def test_trace_is_continuous_across_edges(self):
        for m in (0.3, 0.8):
            lat = lattice(m)
            for edge in (lat.e2, lat.e3, lat.e1):
                lo = monodromy_trace(m, edge - 1e-8)
                hi = monodromy_trace(m, edge + 1e-8)
                assert abs(lo - monodromy_trace(m, edge)) < 1e-6
                assert abs(hi - monodromy_trace(m, edge)) < 1e-6

    def test_nonfinite_V_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                monodromy_trace(0.5, bad)

    @pytest.mark.parametrize("m", [0.05, 0.5, 0.95])
    def test_kc_matches_mpmath_on_all_edges(self, m):
        # V at least 0.1 from the corners; an edge shorter than 0.3 gets
        # its midpoint only.
        lat = lattice(m)

        def inner(lo, hi):
            if hi - lo < 0.3:
                return [0.5 * (lo + hi)]
            return [lo + 0.1, 0.5 * (lo + hi), hi - 0.1]

        Vs = ([-40.0, lat.e2 - 3.0, lat.e2 - 0.1] + inner(lat.e2, lat.e3)
              + inner(lat.e3, lat.e1) + [lat.e1 + 0.1, lat.e1 + 3.0, 40.0])
        for V in Vs:
            want = oracles.mp_kc(m, V)
            got = uniform_representative(m, V).kc
            assert abs(got - want) <= 1e-13 * abs(want), (m, V)

    @pytest.mark.parametrize("offset", [1e-10, 1e-8, 1e-6, 1e-3, 0.1, 3.0])
    def test_kc_just_above_the_parabolic_line(self, offset):
        # at these m the corners are floats, so V - e_i is exact; beside
        # every corner, and as phi -> pi/2 above e1 in particular, the edge
        # exponent must not be a small difference of two O(1) terms
        for m in (2**-31, 0.125, 0.5, 0.875, 1 - 2**-9, 1 - 2**-51):
            lat, q = lattice(m), Fraction(m)
            corners = (lat.e1, lat.e2, lat.e3)
            assert [Fraction(e) for e in corners] == [(2 - q) / 3, -(1 + q) / 3,
                                                      (2 * q - 1) / 3]
            for corner in corners:
                for V in (corner - offset, corner + offset):
                    if any(abs(V - e) < 1e-10 for e in corners if e != corner):
                        continue
                    want = oracles.mp_kc(m, V)
                    got = uniform_representative(m, V).kc
                    assert abs(got.real - want.real) <= 1e-14 * abs(want.real), (m, V)
                    assert abs(got.imag - want.imag) <= 1e-14 * abs(want.imag), (m, V)


class TestHugeV:
    """|V| up to the float range: an answer, never an arithmetic error."""

    def test_trace_overflows_to_infinity(self):
        assert monodromy_trace(0.5, 1e8) == math.inf
        assert monodromy_trace(0.5, 1e300) == math.inf
        assert math.isfinite(uniform_representative(0.5, 1e8).kc.real)

    def test_classify_far_above(self):
        for V in (1e8, 1e300):
            label = classify(0.5, V)
            assert label.kind is OrbitKind.HYPERBOLIC and label.winding == 0

    def test_classify_far_below(self):
        label = classify(0.5, -1e300)
        assert label.kind is OrbitKind.ELLIPTIC and label.winding > 10**149
        assert abs(monodromy_trace(0.5, -1e300)) <= 2.0

    @pytest.mark.parametrize("m", [0.0, 1e-9, 0.5, 1 - 1e-12])
    def test_linear_law_at_the_float_limit(self, m):
        # kc -> K^2 V / 6 pi^2 and d(kc)/dV -> K^2 / 6 pi^2; kc is inf only
        # where K^2 |V| / 6 pi^2 itself leaves the float range
        slope = lattice(m).K ** 2 / (6 * math.pi**2)
        for V in (1.7e308, -1.7e308):
            kc = uniform_representative(m, V).kc.real
            law = k_large_V(m, V).value
            if math.isfinite(slope * V):
                assert abs(kc - law) <= 1e-12 * abs(law)
            else:
                assert kc == law == math.copysign(math.inf, V)
            assert abs(dk_dV(m, V) - slope) <= 1e-12 * slope


class TestUniformRepresentative:
    def test_edge_values(self):
        lat = lattice(0.4)
        for V in (lat.e2, lat.e3):
            rep = uniform_representative(0.4, V)
            assert rep.kc == -1.0 / 24.0
            assert rep.has_rest_frame
        rep = uniform_representative(0.4, lat.e1)
        assert rep.kc == 0.0
        assert rep.has_rest_frame

    def test_wedge_has_no_rest_frame(self):
        rep = uniform_representative(0.5, -0.2)
        assert not rep.has_rest_frame
        assert rep.kc.imag != 0.0
        # Re kc stays in (-1/24 - something, 0); Im kc = -rho/(6 pi)
        rho = -6.0 * math.pi * rep.kc.imag
        assert rho > 0.0
        assert_allclose(rep.kc.real, (rho**2 - math.pi**2 / 4) / (6 * math.pi**2),
                        rtol=1e-14)

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.7, 0.999])
    def test_constant_representative_has_same_trace(self, m):
        # the whole point of kc: the constant potential kc*c lies on the
        # same orbit, so its monodromy trace must agree
        for name, V in region_points(m).items():
            if name == "wedge":
                continue
            rep = uniform_representative(m, V)
            assert rep.kc.imag == 0.0
            assert_allclose(constant_trace(rep.kc.real), monodromy_trace(m, V),
                            rtol=1e-12, atol=1e-12)

    @settings(deadline=None, max_examples=120)
    @given(m=st.floats(1e-5, 0.999), t=st.floats(-3.0, 3.0))
    def test_rest_frame_trace_consistency(self, m, t):
        lat = lattice(m)
        V = lat.e2 + t if t <= 0.0 else lat.e3 + t  # dodge the wedge
        rep = uniform_representative(m, V)
        assert rep.has_rest_frame
        assert_allclose(constant_trace(rep.kc.real), monodromy_trace(m, V),
                        rtol=1e-11, atol=1e-11)

    def test_kc_monotone_in_V_outside_wedge(self):
        # strictly increasing on each side; the two wedge edges share -1/24
        for m in (0.1, 0.6, 0.95):
            lat = lattice(m)
            for grid in (np.linspace(lat.e2 - 5.0, lat.e2, 40),
                         np.linspace(lat.e3, lat.e1 + 5.0, 60)):
                vals = [uniform_representative(m, V).kc.real for V in grid]
                assert np.all(np.diff(vals) > 0.0)

    def test_kc_tends_to_minus_infinity_below(self):
        assert uniform_representative(0.5, -1e4).kc.real < -300.0


class TestClassify:
    def test_reference_points(self):
        # the m = 0.5 section: wedge, parabolic edge, lower exceptional edge
        assert classify(0.5, -0.2) == classify(0.5, -0.2)
        c = classify(0.5, -0.2)
        assert (c.kind, c.winding) == (OrbitKind.HYPERBOLIC, 1)
        c = classify(0.5, 0.5)
        assert (c.kind, c.winding) == (OrbitKind.PARABOLIC, 0)
        c = classify(0.5, -0.5)
        assert (c.kind, c.winding) == (OrbitKind.EXCEPTIONAL, 1)

    def test_band_and_above(self):
        assert classify(0.5, 0.25) == classify(0.5, 0.25)
        assert classify(0.5, 0.25).kind is OrbitKind.ELLIPTIC
        assert classify(0.5, 0.25).winding == 0
        assert classify(0.5, 3.0).kind is OrbitKind.HYPERBOLIC
        assert classify(0.5, 3.0).winding == 0

    def test_below_wedge_windings_increase(self):
        # phi grows without bound as V -> -inf, so n steps through 1,2,3,...
        m = 0.3
        lat = lattice(m)
        seen = set()
        for V in np.linspace(lat.e2 - 1e-6, -60.0, 400):
            seen.add(classify(m, V).winding)
        assert {1, 2, 3, 4}.issubset(seen)

    def test_upper_edge_is_exceptional(self):
        lat = lattice(0.7)
        c = classify(0.7, lat.e3)
        assert (c.kind, c.winding) == (OrbitKind.EXCEPTIONAL, 1)

    def test_m_zero_double_corner(self):
        # at m = 0 the wedge closes; V = -1/3 is the exceptional point
        c = classify(0.0, -1.0 / 3.0)
        assert (c.kind, c.winding) == (OrbitKind.EXCEPTIONAL, 1)

    def test_str_form(self):
        assert str(classify(0.5, -0.2)) == "Hyperbolic(n=1)"
        assert str(classify(0.5, 0.5)) == "Parabolic(n=0)"

    def test_overlapping_snap_bands_pick_the_nearer_corner(self):
        # 1 - m < BOUNDARY_TOL: e3 and e1 both lie within the snap of V
        m = 1.0 - 4.2e-13
        lat = lattice(m)
        data = orbit_data(m, lat.e1 + 1e-14)
        assert data.orbit.kind is OrbitKind.PARABOLIC and data.trace == 2.0
        data = orbit_data(m, lat.e3 - 1e-14)
        assert data.orbit.kind is OrbitKind.EXCEPTIONAL and data.trace == -2.0


class TestOneCornerRule:
    """wp_amplitude alone decides whether V sits on a corner, and which."""

    def test_parabolic_point_near_m_one_agrees_everywhere(self):
        # e3 is 4.2e-13 below e1, so V = e1 + 1e-14 lies within the snap
        # of both; e1 is the nearer and all three routes must say so
        m = 1.0 - 4.2e-13
        lat = lattice(m)
        V = lat.e1 + 1e-14
        assert wp_inverse(V, lat) == complex(lat.K, 0.0)
        point = crystal_momentum((2.0 * m + 2.0) / 3.0 - V, m)
        assert point.kappa_ell == 0.0
        assert 2.0 * math.cos(point.kappa_ell) == orbit_data(m, V).trace

    @pytest.mark.parametrize("m", [5e-13, 0.5, 1.0 - 4.2e-13, 1.0 - 2.0**-52])
    @pytest.mark.parametrize("corner", ["e1", "e2", "e3"])
    def test_every_route_names_the_same_corner(self, m, corner):
        lat = lattice(m)
        points = {1j * lat.Kc: "e2", complex(lat.K, lat.Kc): "e3",
                  complex(lat.K, 0.0): "e1"}
        kinds = {"e1": OrbitKind.PARABOLIC, "e2": OrbitKind.EXCEPTIONAL,
                 "e3": OrbitKind.EXCEPTIONAL}
        for offset in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            V = getattr(lat, corner) + offset * BOUNDARY_TOL
            named = CORNERS[wp_amplitude(V, lat).corner]
            assert points.get(wp_inverse(V, lat)) == named, V
            kind = orbit_data(m, V).orbit.kind
            assert (kind if kind in kinds.values() else None) == kinds.get(named), V


# Every m in [0, 1) and every finite V, with the extremes named.
ANY_M = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 1e-9,
                                   0.5, 1.0 - 2.0**-52]))
ANY_V = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([5e-324, -5e-324, 1e-300, -1e-300,
                                   1.7e308, -1.7e308]),
                  st.floats(-3.0, 3.0))


class TestOrbitData:
    """One record per wave; the public functions are its projections."""

    def test_reference_record(self):
        data = orbit_data(0.5, -0.2)
        assert isinstance(data, OrbitData)
        assert data.orbit.kind is OrbitKind.HYPERBOLIC
        assert data.orbit.winding == 1
        assert not data.has_rest_frame and data.trace < -2.0

    @settings(deadline=None, max_examples=400)
    @given(m=ANY_M, V=ANY_V)
    def test_whole_float_range(self, m, V):
        # DomainError subclasses ValueError: catching these two exact
        # families lets a bare ValueError (or anything else) fail the test
        try:
            data = orbit_data(m, V)
        except (DomainError, NumericalError):
            return
        assert data.trace == monodromy_trace(m, V)
        assert uniform_representative(m, V) == (data.kc, data.has_rest_frame)
        assert classify(m, V) == data.orbit
        kind, trace = data.orbit.kind, data.trace
        if kind is OrbitKind.ELLIPTIC:
            assert abs(trace) <= 2.0
        elif kind is OrbitKind.HYPERBOLIC:
            assert abs(trace) >= 2.0
        elif kind is OrbitKind.EXCEPTIONAL:
            assert trace == -2.0
        else:
            assert trace == 2.0
        try:
            dk_dV(m, V)
        except (DomainError, NumericalError):
            pass

    @settings(deadline=None, max_examples=300)
    @given(m=ANY_M, kc=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.floats(-3.0, 3.0)),
           region=st.sampled_from(["below_wedge", "above_wedge"]))
    def test_level_curve_raises_only_contract_errors(self, m, kc, region):
        try:
            level_curve(kc, m, region)
        except (DomainError, NumericalError):
            pass

    # the examples: the double corner of m = 0, where the exponent is nan; the
    # overflowing square and cosh; the three corners of m = 1/2; e1 where it
    # all but meets e3
    @settings(deadline=None, max_examples=60)
    @given(m=st.lists(ANY_M, min_size=1, max_size=6), V=st.lists(ANY_V, min_size=1, max_size=8))
    @example(m=[0.0, 2.0**-54], V=[-1.0 / 3.0])
    @example(m=[0.0, 0.5], V=[1.7e308, -1.7e308])
    @example(m=[0.5], V=[-0.5, 0.0, 0.5])
    @example(m=[1.0 - 2.0**-52], V=[0.3333333333338334])
    def test_arrays_are_their_cells(self, m, V):
        # every cell of one call over the broadcast grid is its scalar call
        data = orbit_data(np.array(m)[:, None], np.array(V))
        assert data.trace.shape == data.kc.shape == data.orbit.shape == (len(m), len(V))
        for (i, m_i), (j, V_j) in itertools.product(enumerate(m), enumerate(V)):
            alone = orbit_data(m_i, V_j)
            cell = (data.trace[i, j], data.kc[i, j], data.has_rest_frame[i, j], data.orbit[i, j])
            assert repr(tuple(map(float, (cell[0], cell[1].real, cell[1].imag)))) == repr(
                (alone.trace, alone.kc.real, alone.kc.imag)), (m_i, V_j)
            assert (cell[2], cell[3]) == (alone.has_rest_frame, alone.orbit)

    def test_arrays_build_the_lattice_of_the_distinct_m(self, monkeypatch):
        from kdvorbits import orbits

        sizes, build = [], orbits.lattice
        monkeypatch.setattr(orbits, "lattice", lambda m: sizes.append(np.size(m)) or build(m))
        m, V = np.meshgrid([0.9, 0.1, 0.5, 0.1], np.linspace(-2.0, 2.0, 7), indexing="ij")
        data = orbit_data(m, V)
        assert sizes == [3]
        given = orbit_data(lattice(m), V)  # or takes the lattice built
        assert all(np.array_equal(a, b) for a, b in zip(data, given))
        zero_d, alone = orbit_data(np.array(0.5), np.array(0.1)), orbit_data(0.5, 0.1)
        assert [(type(a), a) for a in zero_d] == [(type(a), a) for a in alone]

    def test_a_float_corner_evaluates_no_edge_exponent(self, monkeypatch):
        from kdvorbits import orbits

        cells, exponent = [], orbits._edge_exponent
        monkeypatch.setattr(orbits, "_edge_exponent",
                            lambda lat, amp: cells.append(np.size(amp.edge)) or exponent(lat, amp))
        lat = lattice(0.5)
        for V in (lat.e1, lat.e2, lat.e3):
            orbit_data(0.5, V)
        assert cells == []
        orbit_data(0.5, 0.1)
        orbit_data(np.array(0.5), np.array([lat.e1, 0.1]))  # an array's pass covers every cell
        assert cells == [1, 2]

    def test_an_array_raises_for_its_first_invalid_cell(self):
        m, V = np.array([0.5, 0.5, 1.5, -1.0]), np.array([0.1, math.nan, 0.0, 0.0])
        with pytest.raises(DomainError, match="V must be finite, got nan"):
            orbit_data(m, V)
        with pytest.raises(DomainError, match="lattice requires 0 <= m < 1, got 1.5"):
            orbit_data(m[::-1][1:], V[::-1][1:])

    @pytest.mark.parametrize("m", [5e-324, 1e-300, 1e-17])
    def test_tiny_m_is_the_m_zero_limit(self, m):
        assert lattice(m).m == 0.0
        for V in np.linspace(-3.0, 3.0, 2001):
            assert orbit_data(m, V) == orbit_data(0.0, V)
        for V in (-2.0, 0.1, 2.5):
            assert dk_dV(m, V) == dk_dV(0.0, V)
        assert level_curve(-0.5, m, "below_wedge") == level_curve(-0.5, 0.0, "below_wedge")
        assert level_curve(0.2, m, "above_wedge") == level_curve(0.2, 0.0, "above_wedge")


class TestWindingFromKc:
    def test_reference_values(self):
        assert winding_from_kc(-1.0 / 6.0) == 2
        assert winding_from_kc(-1.0 / 24.0 - 1e-9) == 1
        assert winding_from_kc(-1.0 / 24.0 + 1e-9) == 0
        assert winding_from_kc(-1.0 / 24.0) == 1
        assert winding_from_kc(0.0) == 0

    def test_exact_squares_snap(self):
        # kc = -n^2/24 sits exactly on a winding step
        for n in range(1, 8):
            assert winding_from_kc(-n * n / 24.0) == n

    def test_positive_kc_rejected(self):
        with pytest.raises(DomainError):
            winding_from_kc(0.3)
        with pytest.raises(DomainError):
            winding_from_kc(math.nan)

    @settings(deadline=None, max_examples=200)
    @given(kc=st.floats(-40.0, 0.0))
    def test_matches_plain_floor_away_from_steps(self, kc):
        x = math.sqrt(-24.0 * kc)
        if abs(x - round(x)) < 1e-9:
            return
        assert winding_from_kc(kc) == math.floor(x)

    def test_agrees_with_classify(self):
        for m in (0.2, 0.6, 0.9):
            lat = lattice(m)
            for V in np.linspace(lat.e2 - 8.0, lat.e2 - 1e-3, 17):
                rep = uniform_representative(m, V)
                assert winding_from_kc(rep.kc.real) == classify(m, V).winding


class TestConstantTrace:
    def test_special_values(self):
        assert constant_trace(0.0) == 2.0
        assert_allclose(constant_trace(-1.0 / 24.0), -2.0, atol=1e-12)
        assert_allclose(constant_trace(-1.0 / 6.0), 2.0, atol=1e-12)  # n = 2

    def test_large_positive(self):
        kc = 0.7
        assert_allclose(constant_trace(kc),
                        2.0 * math.cosh(2.0 * math.pi * math.sqrt(6.0 * kc)),
                        rtol=1e-15)


class TestDkDv:
    @pytest.mark.parametrize("m", [0.05, 0.3, 0.5, 0.9])
    def test_against_finite_differences(self, m):
        lat = lattice(m)
        pts = [lat.e2 - 0.9, lat.e2 - 0.05,
               0.5 * (lat.e3 + lat.e1), lat.e1 - 0.02,
               lat.e1 + 0.02, lat.e1 + 1.5]
        h = 1e-6
        for V in pts:
            fd = (uniform_representative(m, V + h).kc.real
                  - uniform_representative(m, V - h).kc.real) / (2 * h)
            assert_allclose(dk_dV(m, V), fd, rtol=2e-8)

    @pytest.mark.parametrize("m", [0.2, 0.5, 0.8])
    def test_parabolic_edge_limit(self, m):
        lat = lattice(m)
        expected = ellint_E(m) ** 2 / (6.0 * math.pi**2 * (1.0 - m))
        assert_allclose(dk_dV(m, lat.e1), expected, rtol=1e-15)
        # and it really is the limit of the interior derivative
        assert_allclose(dk_dV(m, lat.e1 - 1e-7), expected, rtol=1e-5)
        assert_allclose(dk_dV(m, lat.e1 + 1e-7), expected, rtol=1e-5)

    def test_wedge_edges_diverge(self):
        lat = lattice(0.5)
        assert dk_dV(0.5, lat.e2) == math.inf
        assert dk_dV(0.5, lat.e3) == math.inf

    def test_inside_wedge_raises(self):
        with pytest.raises(InsideWedgeError):
            dk_dV(0.5, -0.2)

    def test_m_zero_slope_is_one_over_24(self):
        # the m -> 0 section is the exact line kc = (V - 2/3)/24
        for V in (-2.0, 0.1, 2.5):
            assert_allclose(dk_dV(0.0, V), 1.0 / 24.0, rtol=1e-12)


def assert_resolves_to_corner(m, kc, corner):
    """kc lies between the corner's own kc and the kc just outside its snap band."""
    lat = lattice(m)
    own = 0.0 if corner == lat.e1 else -1.0 / 24.0
    if abs(kc - own) <= BOUNDARY_TOL or lat.m == 0.0:
        return
    if -1.0 / 24.0 < kc < 0.0 and (math.nextafter(lat.e3 + BOUNDARY_TOL, math.inf)
                                   >= math.nextafter(lat.e1 - BOUNDARY_TOL, -math.inf)):
        return  # the two snap bands cover the band
    side = {lat.e2: -1.0, lat.e3: 1.0}.get(corner, 1.0 if kc > 0.0 else -1.0)
    probe = math.nextafter(corner + side * BOUNDARY_TOL, side * math.inf)
    edge = orbit_data(m, probe).kc.real
    slack = 4.0 * abs(dk_dV(m, probe)) * math.ulp(probe) + 1e-15
    assert min(own, edge) - slack <= kc <= max(own, edge) + slack


class TestLevelCurve:
    def test_reference_inversion(self):
        V = level_curve(-4.0 / 24.0, 0.3, "below_wedge")
        kc = uniform_representative(0.3, V).kc.real
        assert abs(kc + 4.0 / 24.0) <= 1e-9

    @pytest.mark.parametrize("m", [0.0, 0.05, 0.3, 0.9, 0.999])
    def test_round_trip_below(self, m):
        for target in (-0.05, -0.25, -1.3, -6.0):
            V = level_curve(target, m, "below_wedge")
            assert V <= lattice(m).e2
            kc = uniform_representative(m, V).kc.real
            assert abs(kc - target) <= 1e-10 * max(1.0, abs(target))

    @pytest.mark.parametrize("m", [0.0, 0.05, 0.3, 0.9, 0.999])
    def test_round_trip_above(self, m):
        for target in (-0.03, -0.001, 0.02, 0.6, 11.0):
            V = level_curve(target, m, "above_wedge")
            assert V >= lattice(m).e3
            kc = uniform_representative(m, V).kc.real
            assert abs(kc - target) <= 1e-10 * max(1.0, abs(target))

    def test_boundary_target_returns_wedge_edges(self):
        lat = lattice(0.45)
        assert level_curve(-1.0 / 24.0, 0.45, "below_wedge") == lat.e2
        assert level_curve(-1.0 / 24.0, 0.45, "above_wedge") == lat.e3
        assert level_curve(0.0, 0.45, "above_wedge") == lat.e1
        # a root within rounding of the corner V = e1 is the corner
        assert level_curve(1e-40, 0.45, "above_wedge") == lat.e1

    def test_near_boundary_targets_resolve_to_corner(self):
        # kc ~ sqrt(V - corner) there, so 1e-9 away is inside the corner's
        # double-precision resolution; the edge V is the right answer
        V = level_curve(-1.0 / 24.0 - 1e-9, 0.3, "below_wedge")
        assert abs(V - lattice(0.3).e2) < 1e-10

    def test_wrong_side_rejected(self):
        with pytest.raises(DomainError):
            level_curve(-0.01, 0.3, "below_wedge")
        with pytest.raises(DomainError):
            level_curve(-0.1, 0.3, "above_wedge")
        with pytest.raises(DomainError):
            level_curve(-0.1, 0.3, "sideways")
        for kc in (math.inf, -math.inf, math.nan):
            for region in ("below_wedge", "above_wedge"):
                with pytest.raises(DomainError):
                    level_curve(kc, 0.3, region)

    @settings(deadline=None, max_examples=60)
    @given(m=st.floats(1e-4, 0.999), t=st.floats(-8.0, -0.05))
    def test_random_round_trips_below(self, m, t):
        V = level_curve(t, m, "below_wedge")
        kc = uniform_representative(m, V).kc.real
        assert abs(kc - t) <= 1e-9 * max(1.0, abs(t))

    @settings(deadline=None, max_examples=60)
    @given(m=st.floats(1e-4, 0.999),
           t=st.one_of(st.floats(0.05, 8.0), st.floats(8.0, 1e300)))
    def test_random_round_trips_above(self, m, t):
        V = level_curve(t, m, "above_wedge")
        kc = uniform_representative(m, V).kc.real
        assert abs(kc - t) <= 1e-9 * max(1.0, abs(t))

    @pytest.mark.parametrize("target,region", [
        (1e15, "above_wedge"), (-1e15, "below_wedge"), (1e14, "above_wedge")])
    def test_huge_targets_round_trip(self, target, region):
        V = level_curve(target, 0.5, region)
        assert abs(orbit_data(0.5, V).kc.real - target) <= 1e-10 * abs(target)

    def test_root_inside_the_e1_snap_band_is_e1(self):
        # the band is 4.2e-13 wide and kc = 0.0234 needs V - e1 ~ 1e-12
        m = 1.0 - 4.2e-13
        assert level_curve(0.0234, m, "above_wedge") == lattice(m).e1

    def test_targets_beyond_every_finite_V_rejected(self):
        for m in (0.0, 0.5):
            for target, region in ((1e308, "above_wedge"), (-1e308, "below_wedge")):
                with pytest.raises(DomainError):
                    level_curve(target, m, region)

    @settings(deadline=None, max_examples=400)
    @example(m=1 - 2**-52, kc=5.0)
    @given(m=ANY_M, kc=st.one_of(st.floats(-1e300, 1e300), st.floats(-3.0, 3.0),
                                 st.sampled_from([-1.0 / 24.0, 0.0, 1e-40, -1e-40])))
    def test_every_target_round_trips(self, m, kc):
        region = "above_wedge" if kc >= -1.0 / 24.0 else "below_wedge"
        V = level_curve(kc, m, region)
        lat = lattice(m)
        if V in (lat.e1, lat.e2, lat.e3):
            assert_resolves_to_corner(m, kc, V)
            return
        tol = max(1e-10 * max(1.0, abs(kc)), 4.0 * abs(dk_dV(m, V)) * math.ulp(V))
        assert abs(orbit_data(m, V).kc.real - kc) <= tol

    @settings(deadline=None, max_examples=60)
    @example(m=[0.5] * 20 + [1.5, 0.0], kc=-1e307, region="below_wedge")
    @example(m=[1 - 2**-52, 0.3] * 10, kc=-1e-40, region="above_wedge")
    # the search fails at the first m, before a later invalid m would report
    @example(m=[0.5, 1.5], kc=-1e308, region="below_wedge")
    @example(m=[0.3, 0.5, math.nan, 0.7], kc=-1e308, region="below_wedge")
    @given(m=st.lists(ANY_M, min_size=1, max_size=40),
           kc=st.one_of(st.floats(-1e300, 1e300), st.floats(-3.0, 3.0),
                        st.sampled_from([-1.0 / 24.0, 0.0, 1e-40, -1e-40, -1e307])),
           region=st.sampled_from(["below_wedge", "above_wedge"]))
    def test_an_array_of_m_is_each_m_alone(self, m, kc, region):
        # each V bit for bit that of its own call; or the error of the first
        # failing m, in row order, as one call per m gives
        alone = []
        for m_i in m:
            try:
                alone.append(repr(level_curve(kc, m_i, region)))
            except (DomainError, NumericalError) as exc:
                alone.append(exc)
                break
        try:
            together = level_curve(kc, np.array(m), region)
        except (DomainError, NumericalError) as exc:
            assert (type(exc), str(exc)) == (type(alone[-1]), str(alone[-1]))
        else:
            assert [repr(V) for V in together.tolist()] == alone

    def test_an_array_of_m_keeps_its_shape(self):
        m = np.linspace(0.1, 0.9, 30).reshape(5, 6)
        V = level_curve(-0.3, m, "below_wedge")
        assert V.shape == (5, 6)
        assert V[2, 3] == level_curve(-0.3, float(m[2, 3]), "below_wedge")
        assert level_curve(-0.3, np.empty(0), "below_wedge").shape == (0,)

    # the diagram's two overlay curves as the benchmark draws them: 400 m across
    # the grid, one level below the wedge and one above
    OVERLAY_M = np.linspace(0.03, 0.95, 400)
    OVERLAYS = [(-0.115, "below_wedge"), (0.297, "above_wedge")]

    @pytest.mark.parametrize("kc, region", OVERLAYS)
    def test_a_curve_stops_at_the_rounding_floor(self, monkeypatch, kc, region):
        # a row settles once x is within 4 ulp of its target, so converged rows
        # do not keep the pass going by stepping between neighbouring floats
        passes, evaluate = [], orbits._edge_exponent
        monkeypatch.setattr(orbits, "_edge_exponent",
                            lambda *args: passes.append(1) or evaluate(*args))
        level_curve(kc, self.OVERLAY_M, region)
        assert len(passes) <= 7

    @pytest.mark.parametrize("kc, region", OVERLAYS)
    def test_a_curve_builds_the_chain_of_its_mu_once(self, monkeypatch, kc, region):
        # the edge, and so mu, of a row never changes during its search; the
        # chain lives as long as the call (the lattice's chains do not count)
        lat = lattice(self.OVERLAY_M)
        monkeypatch.setattr(orbits, "lattice", lambda m: lat)
        chains, build = [], elliptic._agm

        def traced(m, xp):  # each array chain, as weak references to its states
            states = list(build(m, xp))
            if xp is elliptic.ARRAY:
                chains.append([weakref.ref(state.a) for state in states])
            yield from states

        monkeypatch.setattr(elliptic, "_agm", traced)
        level_curve(kc, self.OVERLAY_M, region)
        gc.collect()
        assert len(chains) == 1 and all(ref() is None for ref in chains[0])

    @pytest.mark.parametrize("kc, region", OVERLAYS)
    def test_a_curve_agrees_with_mpmath(self, kc, region):
        # 25 rows of each overlay against kc from mpmath's integrals, far inside
        # the 1e-10 of the search's own verification
        V = level_curve(kc, self.OVERLAY_M, region)
        for m_i, V_i in zip(self.OVERLAY_M[::16].tolist(), V[::16].tolist()):
            assert abs(oracles.mp_kc(m_i, V_i).real - kc) <= 4e-15 * max(1.0, abs(kc))

    def test_level_curves_nest_in_m(self):
        # deeper kc targets push V further down, at every m
        for m in (0.1, 0.5, 0.9):
            vs = [level_curve(t, m, "below_wedge") for t in (-0.05, -0.3, -1.0)]
            assert vs[0] > vs[1] > vs[2]


class TestCnoidalProfile:
    def test_matches_closed_form(self):
        m, V, c = 0.7, -1.1, 17.0
        p = cnoidal_profile(m, V, c)
        K = ellint_K(m)
        x = np.linspace(0.0, 2.0 * np.pi, 29)
        s = jacobi(K * x / np.pi, m).sn
        expected = c * K * K / (3 * np.pi**2) * (V / 2 - (m + 1) / 3 + m * s * s)
        assert_allclose(p(x), expected, rtol=1e-13, atol=1e-13)

    def test_period_and_shape(self):
        p = cnoidal_profile(0.5, 0.3, 6.0)
        assert_allclose(p(0.0), p(2.0 * math.pi), rtol=1e-12)
        # trough at x = 0 (sn vanishes), crest at half period
        assert p(math.pi) > p(0.0)

    def test_mean_value(self):
        m, V, c = 0.6, -0.9, 10.0
        p = cnoidal_profile(m, V, c)
        K, E = ellint_K(m), ellint_E(m)
        expected = c * K * K / (3 * np.pi**2) * (V / 2 - (m + 1) / 3 + (K - E) / K)
        assert_allclose(p.mean(), expected, rtol=1e-12)

    def test_m_zero_is_constant(self):
        p = cnoidal_profile(0.0, 0.5, 12.0)
        x = np.linspace(0.0, 2.0 * np.pi, 11)
        assert_allclose(p(x), 12.0 * (math.pi / 2) ** 2 / (3 * math.pi**2)
                        * (0.25 - 1.0 / 3.0), rtol=1e-12)

    def test_amplitude_scales_with_central_charge(self):
        p1 = cnoidal_profile(0.4, -0.7, 1.0)
        p2 = cnoidal_profile(0.4, -0.7, 5.0)
        x = np.linspace(0.0, 2.0 * np.pi, 7)
        assert_allclose(p2(x), 5.0 * p1(x), rtol=1e-12)

    def test_speed(self):
        m, V, c = 0.8, -1.3, 24.0
        K = ellint_K(m)
        assert_allclose(cnoidal_speed(m, V, c), c * K * K * V / (2 * math.pi**2),
                        rtol=1e-15)
        assert cnoidal_speed(m, 0.0, c) == 0.0
