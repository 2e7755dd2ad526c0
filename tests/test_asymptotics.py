import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from kdvorbits.asymptotics import (
    Approximation,
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
from kdvorbits.errors import DomainError, PoleError
from kdvorbits.orbits import level_curve, uniform_representative
from kdvorbits.weierstrass import lattice, wp, zeta

WEDGE_KC = -1.0 / 24.0


def exact_kc(m, V):
    return uniform_representative(m, V).kc.real


class TestKLargeV:
    """kc grows linearly in V with an O(1/|V|) remainder."""

    @pytest.mark.parametrize("V", [100.0, -100.0])
    def test_matches_exact_at_large_V(self, V):
        ap = k_large_V(0.5, V)
        assert abs(ap.value / exact_kc(0.5, V) - 1.0) < 1e-3
        assert ap.validity == 0.01

    def test_same_constants_both_signs(self):
        # value(V) + value(-V) = -4 K eta1 / 6 pi^2 exactly, by linearity
        lat = lattice(0.5)
        total = k_large_V(0.5, 300.0).value + k_large_V(0.5, -300.0).value
        # the linear terms cancel ~5 against ~0.05, costing a couple digits
        assert_allclose(total, -4.0 * lat.K * lat.eta1 / (6.0 * math.pi**2),
                        rtol=1e-11)

    def test_error_times_V_bounded(self):
        products = []
        V = 50.0
        while V <= 1600.0:
            products.append(abs(k_large_V(0.5, V).value - exact_kc(0.5, V)) * V)
            V *= 2.0
        assert max(products) <= 1.5 * min(products)

    @pytest.mark.parametrize("V", [50.0, 500.0, 5000.0])
    def test_first_order_halving(self, V):
        err = abs(k_large_V(0.5, V).value - exact_kc(0.5, V))
        err_half = abs(k_large_V(0.5, 2 * V).value - exact_kc(0.5, 2 * V))
        assert 1.5 <= err / err_half <= 3.0


class TestExceptionalVAsymptote:
    """V_n ~ -pi^2 n^2 / 4K^2 for the winding-n constants."""

    def test_thirty_levels_deep(self):
        ap = exceptional_V_asymptote(30, 0.2)
        exact = level_curve(-900.0 / 24.0, 0.2, "below_wedge")
        assert abs(ap.value / exact - 1.0) < 0.01

    def test_error_decreases_with_n(self):
        rels = []
        for n in (10, 40):
            exact = level_curve(-n * n / 24.0, 0.2, "below_wedge")
            rels.append(abs(exceptional_V_asymptote(n, 0.2).value / exact - 1.0))
        assert rels[1] < rels[0]

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_second_order_halving(self, n):
        def rel(k):
            exact = level_curve(-k * k / 24.0, 0.2, "below_wedge")
            return abs(exceptional_V_asymptote(k, 0.2).value / exact - 1.0)

        assert 3.0 <= rel(n) / rel(2 * n) <= 5.0

    def test_validity_is_inverse_quantum_number(self):
        lat = lattice(0.2)
        ap = exceptional_V_asymptote(25, 0.2)
        assert_allclose(ap.validity, 2.0 * lat.K / (25.0 * math.pi), rtol=1e-15)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(DomainError):
            exceptional_V_asymptote(0, 0.5)


class TestKNearWedge:
    """Square-root spikes of kc at the two wedge boundaries."""

    def test_just_below_lower_boundary(self):
        lat = lattice(0.5)
        V = lat.e2 - 1e-6
        ap = k_near_wedge(0.5, V, "lower")
        assert abs(ap.value - exact_kc(0.5, V)) < 1e-4
        assert ap.validity == pytest.approx(1e-6)

    def test_just_above_upper_boundary(self):
        lat = lattice(0.5)
        V = lat.e3 + 1e-6
        assert abs(k_near_wedge(0.5, V, "upper").value - exact_kc(0.5, V)) < 1e-4

    def test_on_boundary_is_corner_value(self):
        lat = lattice(0.3)
        assert k_near_wedge(0.3, lat.e2, "lower").value == WEDGE_KC
        assert k_near_wedge(0.3, lat.e3, "upper").value == WEDGE_KC

    @pytest.mark.parametrize("nu", [2e-4, 2e-5, 2e-6])
    def test_error_linear_in_offset(self, nu):
        lat = lattice(0.5)

        def err(off):
            V = lat.e2 - off
            return abs(k_near_wedge(0.5, V, "lower").value - exact_kc(0.5, V))

        assert 1.5 <= err(nu) / err(nu / 2.0) <= 3.0

    def test_side_mismatch_rejected(self):
        lat = lattice(0.5)
        with pytest.raises(DomainError):
            k_near_wedge(0.5, lat.e2 + 1e-3, "lower")  # inside the wedge
        with pytest.raises(DomainError):
            k_near_wedge(0.5, lat.e3 - 1e-3, "upper")
        with pytest.raises(DomainError):
            k_near_wedge(0.5, lat.e2, "left")
        with pytest.raises(DomainError):
            k_near_wedge(0.0, -1.0 / 3.0, "lower")


class TestOneMinusMNonperturbative:
    """1-m collapses exponentially as a deep level curve reaches V = -2/3."""

    def test_rate_constant_is_pi_times_n_minus_1(self):
        # kc = -4/24 is the winding-2 constant; the decay rate is pi(2-1).
        v1 = one_minus_m_nonperturbative(-4.0 / 24.0, -2.0 / 3.0 - 0.01).value
        v2 = one_minus_m_nonperturbative(-4.0 / 24.0, -2.0 / 3.0 - 0.0025).value
        measured = (math.log(v1) - math.log(v2)) / (1.0 / math.sqrt(0.0025)
                                                    - 1.0 / math.sqrt(0.01))
        assert_allclose(measured, math.pi, rtol=1e-12)

    def test_limit_is_zero_on_the_nose(self):
        ap = one_minus_m_nonperturbative(-0.5, -2.0 / 3.0)
        assert ap.value == 0.0 and ap.validity == 0.0

    @staticmethod
    def invert_exact(kc, V):
        """The m whose level curve passes through V, via the exact solver."""

        def g(u):
            return level_curve(kc, 1.0 - 10.0**u, "below_wedge") - V

        return 10.0 ** brentq(g, -15.5, -1.0, xtol=1e-10)

    def test_matches_exact_inversion(self):
        V = -2.0 / 3.0 - 0.01
        approx = one_minus_m_nonperturbative(-4.0 / 24.0, V).value
        exact = self.invert_exact(-4.0 / 24.0, V)
        assert abs(approx / exact - 1.0) < 0.10

    def test_relative_error_improves_toward_limit(self):
        rels = []
        for dv in (0.02, 0.015, 0.01):
            V = -2.0 / 3.0 - dv
            approx = one_minus_m_nonperturbative(-4.0 / 24.0, V).value
            rels.append(abs(approx / self.invert_exact(-4.0 / 24.0, V) - 1.0))
        assert rels[0] > rels[1] > rels[2]

    @pytest.mark.parametrize("kc", [WEDGE_KC, 0.0, 0.3])
    def test_requires_deep_level_curve(self, kc):
        with pytest.raises(DomainError):
            one_minus_m_nonperturbative(kc, -0.7)


class TestVNearM1:
    """Level curves with kc > -1/24 enter (m, V) = (1, 1/3) on a line."""

    @pytest.mark.parametrize("m", [0.9, 0.99, 0.9999])
    def test_zero_kc_is_the_parabolic_line(self, m):
        assert_allclose(V_near_m1(0.0, m).value, (2.0 - m) / 3.0, rtol=1e-14)

    def test_slope_minimum_at_wedge_constant(self):
        def slope(kc):
            return (V_near_m1(kc, 0.99).value - 1.0 / 3.0) / 0.01

        floor = slope(WEDGE_KC + 1e-9)
        assert abs(floor - (-2.0 / 3.0)) < 1e-3
        for kc in (-0.03, -0.01, 0.0, 0.05, 0.3):
            assert slope(kc) > floor

    def test_against_exact_level_curve(self):
        # The remainder is quadratic in 1-m with an O(100) constant, so
        # millisized 1-m only gets to a few e-4.
        err = abs(V_near_m1(0.05, 0.999).value - level_curve(0.05, 0.999, "above_wedge"))
        assert err < 3e-4
        err = abs(V_near_m1(0.05, 0.9995).value - level_curve(0.05, 0.9995, "above_wedge"))
        assert err < 1e-4

    @pytest.mark.parametrize("gap", [2e-3, 2e-4, 2e-5])
    def test_second_order_halving(self, gap):
        def err(g):
            return abs(V_near_m1(0.05, 1.0 - g).value
                       - level_curve(0.05, 1.0 - g, "above_wedge"))

        assert 3.0 <= err(gap) / err(gap / 2.0) <= 5.0

    def test_rejects_deep_constants(self):
        with pytest.raises(DomainError):
            V_near_m1(WEDGE_KC, 0.99)
        with pytest.raises(DomainError):
            V_near_m1(-0.2, 0.99)


class TestVNearM0:
    """Level curves leave the line m = 0 with slope -(12 kc + 1/3)."""

    def test_exact_on_the_axis(self):
        assert_allclose(V_near_m0(0.1, 0.0).value, 24.0 * 0.1 + 2.0 / 3.0,
                        rtol=1e-15)

    @pytest.mark.parametrize("m", [0.0, 0.03, 0.2])
    def test_zero_kc_reproduces_parabolic_line(self, m):
        # (1 - m/2)(2/3) and (2 - m)/3 are the same polynomial.
        assert_allclose(V_near_m0(0.0, m).value, (2.0 - m) / 3.0, rtol=1e-15)

    def test_against_exact_level_curve(self):
        err = abs(V_near_m0(0.1, 0.05).value - level_curve(0.1, 0.05, "above_wedge"))
        assert err < 1e-3

    @pytest.mark.parametrize("m", [0.04, 0.01, 0.0025])
    def test_second_order_halving(self, m):
        def err(mm):
            return abs(V_near_m0(0.1, mm).value
                       - level_curve(0.1, mm, "above_wedge"))

        assert 3.0 <= err(m) / err(m / 2.0) <= 5.0

    def test_warns_where_quadratic_term_diverges(self):
        with pytest.warns(RuntimeWarning):
            V_near_m0(WEDGE_KC + 5e-4, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V_near_m0(WEDGE_KC + 0.05, 0.01)  # far enough away: silent


def m_for_nome_sq(target):
    """The m at which exp(-2 pi K'/K) equals ``target``."""

    def f(m):
        lat = lattice(m)
        return math.exp(-2.0 * math.pi * lat.Kc / lat.K) - target

    return brentq(f, 1e-8, 0.9, xtol=1e-15)


class TestDegenerateForms:
    """Trig/hyperbolic limits of zeta and wp with the q^2 correction."""

    def test_zeta_at_half_period_small_m(self):
        m = 1e-3
        lat = lattice(m)
        ap = degenerate_zeta(lat.K, m, "m_to_0")
        assert abs(ap.value - lat.eta1) < 1e-6
        assert ap.value.imag == 0.0
        assert ap.validity == pytest.approx(math.exp(-2.0 * math.pi * lat.Kc / lat.K))

    def test_zeta_large_m_consistent_with_legendre(self):
        # Reconstruct zeta(K) = eta1 from the degenerate zeta(i Kc) through
        # Legendre's relation; near m = 1 this is the two-term cotangent
        # asymptote of the real quasi-period.
        m = 0.999
        lat = lattice(m)
        eta2 = degenerate_zeta(1j * lat.Kc, m, "m_to_1").value
        assert abs(eta2 - zeta(1j * lat.Kc, lat)) < 1e-12
        eta1_back = math.pi / (2.0 * lat.Kc) - 1j * eta2 * lat.K / lat.Kc
        assert abs(eta1_back - lat.eta1) < 1e-12
        leading = math.pi / (2.0 * lat.Kc) - math.pi**2 * lat.K / (12.0 * lat.Kc**2)
        assert abs(eta1_back.real - leading) < 1e-4

    def test_wp_grid_small_m(self):
        m = 1e-4
        lat = lattice(m)
        worst = 0.0
        for j in range(10):
            z = lat.K * (0.15 + 0.077 * j)
            worst = max(worst, abs(degenerate_wp(z, m, "m_to_0").value - wp(z, lat)))
        assert worst < 1e-6

    @pytest.mark.parametrize("z", [0.6, 0.4 + 0.3j, 1.1j - 0.2])
    def test_hyperbolic_end_matches_exact(self, z):
        m = 0.999
        lat = lattice(m)
        assert abs(degenerate_wp(z, m, "m_to_1").value - wp(z, lat)) < 1e-10
        assert abs(degenerate_zeta(z, m, "m_to_1").value - zeta(z, lat)) < 1e-10

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_error_quadratic_in_nome_sq(self, j):
        def rel(q2):
            m = m_for_nome_sq(q2)
            lat = lattice(m)
            z = 0.37 * lat.K
            exact = zeta(z, lat)
            return abs(degenerate_zeta(z, m, "m_to_0").value - exact) / abs(exact)

        q2 = 1e-4 / 2**j
        assert 3.0 <= rel(q2) / rel(q2 / 2.0) <= 5.0

    def test_poles_are_reported(self):
        with pytest.raises(PoleError):
            degenerate_zeta(0.0, 0.1, "m_to_0")
        with pytest.raises(PoleError):
            degenerate_wp(0.0, 0.1, "m_to_0")
        with pytest.raises(PoleError):
            degenerate_zeta(0.0, 0.9, "m_to_1")

    def test_bad_end_token(self):
        with pytest.raises(DomainError):
            degenerate_zeta(0.5, 0.1, "m_to_2")

    def test_a_seeded_sweep_is_pinned(self):
        # Recorded when m_to_1 had sinh and cosh forms of its own: i times the
        # m_to_0 form at iz answers as they did.  2,000 seeded (m, z), m a
        # third uniform in [0, 1) and a third log-spread toward each end, from
        # 1e-15 of it; |z| log-spread from 1e-3 to 1e3; both forms, both ends.
        rng = np.random.default_rng(35)
        near = 10.0 ** rng.uniform(-15.0, -1.0, 2000)
        ms = np.choose(rng.integers(0, 3, 2000), (rng.uniform(0.0, 1.0, 2000), near, 1.0 - near))
        zs = 10.0 ** rng.uniform(-3.0, 3.0, 2000) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 2000))
        lines = []
        for m, z in zip(ms.tolist(), zs.tolist()):
            for end in ("m_to_0", "m_to_1"):
                for form in (degenerate_zeta, degenerate_wp):
                    try:
                        ap = form(z, m, end)
                        lines.append(f"{ap.value!r} {ap.validity!r}")
                    except (DomainError, PoleError) as exc:
                        lines.append(type(exc).__name__)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "b6aadfc1baa15a23e67fbb032a3ea48844cc9a556bf27bc042e09a794fb8a083")


class TestKAsymptotes:
    """K diverges logarithmically at m = 1; the complement stays near pi/2."""

    def test_logarithmic_branch(self):
        m = 1.0 - 1e-10
        big, _ = K_asymptotes(m)
        # compare at the representable gap 1.0 - m, not the literal 1e-10
        assert abs(big.value - sp.ellipkm1(1.0 - m)) < 1e-8

    def test_complement_branch(self):
        _, small = K_asymptotes(1.0 - 1e-4)
        assert abs(small.value - sp.ellipk(1e-4)) < 1e-8

    def test_remainder_scales_like_gap_log_gap(self):
        scaled = []
        for gap in (1e-3, 1e-4, 1e-5, 1e-6):
            big, _ = K_asymptotes(1.0 - gap)
            err = abs(big.value - sp.ellipkm1(gap))
            scaled.append(err / (gap * abs(math.log(gap))))
        assert max(scaled) <= 1.5 * min(scaled)

    @pytest.mark.parametrize("gap", [1e-3, 1e-5])
    def test_halving_orders(self, gap):
        def errs(g):
            big, small = K_asymptotes(1.0 - g)
            return (abs(big.value - sp.ellipkm1(g)),
                    abs(small.value - sp.ellipk(g)))

        e1, f1 = errs(gap)
        e2, f2 = errs(gap / 2.0)
        assert 1.5 <= e1 / e2 <= 3.0   # (1-m) log(1-m) remainder
        assert 3.0 <= f1 / f2 <= 5.0   # (1-m)^2 remainder

    @pytest.mark.parametrize("m", [0.0, 1.0, 1.5, -0.2])
    def test_domain(self, m):
        with pytest.raises(DomainError):
            K_asymptotes(m)


class TestLevelCurveLimitsAtM1:
    """Exact level curves converge to V = -2/3 or +1/3 as m -> 1."""

    @pytest.mark.parametrize("kc,region,limit,floor", [
        # below the wedge the approach is only logarithmic in 1-m
        (-4.0 / 24.0, "below_wedge", -2.0 / 3.0, 0.05),
        (0.05, "above_wedge", 1.0 / 3.0, 2e-5),
        (-1.0 / 48.0, "above_wedge", 1.0 / 3.0, 2e-5),
    ])
    def test_monotone_approach(self, kc, region, limit, floor):
        gaps = [abs(level_curve(kc, 1.0 - 10.0**-j, region) - limit)
                for j in range(2, 7)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < floor


class TestApproximationContract:
    """Every op reports the magnitude of its own small parameter."""

    def test_fields(self):
        ap = k_large_V(0.3, 250.0)
        assert isinstance(ap, Approximation)
        assert ap.validity == pytest.approx(1.0 / 250.0)
        assert K_asymptotes(0.99)[0].validity == pytest.approx(0.01)
        assert V_near_m1(0.1, 0.97).validity == pytest.approx(0.03)
        assert V_near_m0(0.1, 0.02).validity == 0.02
        assert one_minus_m_nonperturbative(-0.5, -0.7).validity == pytest.approx(0.7 - 2.0 / 3.0)
