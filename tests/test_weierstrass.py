import cmath
import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kdvorbits.elliptic import ellint_E, ellint_F_zeta, ellint_K
from kdvorbits.errors import DomainError, PoleError
from kdvorbits.weierstrass import (
    RectLattice,
    lattice,
    sigma,
    wp,
    EDGES,
    CORNERS,
    wp_amplitude,
    wp_inverse,
    wp_prime,
    zeta,
)

import oracles

M_GRID = [1e-6, 0.05, 0.3, 0.5, 0.7, 0.9, 0.999]
NEAR_ONE = [1 - 1e-8, 1 - 1e-12]


class TestLattice:
    @pytest.mark.parametrize("m", M_GRID)
    def test_branch_points_are_cubic_roots(self, m):
        lat = lattice(m)
        for e in (lat.e1, lat.e2, lat.e3):
            assert abs(4 * e**3 - lat.g2 * e - lat.g3) < 1e-14
        assert abs(lat.e1 + lat.e2 + lat.e3) < 1e-15
        # symmetric functions pin g2, g3 independently of the closed forms
        assert_allclose(lat.g2, -4 * (lat.e1 * lat.e2 + lat.e1 * lat.e3 + lat.e2 * lat.e3),
                        rtol=1e-14)
        assert_allclose(lat.g3, 4 * lat.e1 * lat.e2 * lat.e3, rtol=1e-13, atol=1e-16)

    def test_unit_gap_between_extreme_branch_points(self):
        # e2 - e1 = -1 for every m: the wedge sits at unit depth below e1
        for m in M_GRID:
            lat = lattice(m)
            assert lat.e2 - lat.e1 == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("m", M_GRID)
    def test_eta1_closed_form_vs_integration(self, m):
        lat = lattice(m)
        assert abs(lat.eta1 - oracles.eta1_by_integration(m)) < 1e-12

    @pytest.mark.parametrize("m", [0.3, 0.6, 0.9])
    def test_legendre_relation(self, m):
        lat = lattice(m)
        # omega1 zeta(omega2) - omega2 zeta(omega1) = -i pi/2
        lhs = lat.omega1 * lat.eta2 - lat.omega2 * lat.eta1
        assert abs(lhs - (-1j * math.pi / 2)) < 1e-12

    def test_degenerate_lattice(self):
        lat = lattice(0.0)
        assert lat.Kc == math.inf
        assert lat.e2 == lat.e3 == pytest.approx(-1 / 3)
        assert lat.eta1 == pytest.approx(math.pi / 6, abs=1e-15)

    def test_domain(self):
        for bad in (-0.2, 1.0, 2.0, math.nan):
            with pytest.raises(DomainError):
                lattice(bad)

    def test_an_array_of_m_is_each_m_alone(self):
        # m uniform and log-spread toward 0 and 1, with 0, the smallest
        # subnormal, 2^-54 (1 - m rounds to 1: the m = 0 lattice), 1e-17 and
        # 1 - 2^-53; every field of every element bit for bit its scalar call
        rng = np.random.default_rng(18)
        m = rng.permutation(np.concatenate([
            rng.uniform(0.0, 1.0, 500), 10.0 ** -rng.uniform(0.0, 320.0, 300),
            1.0 - 10.0 ** -rng.uniform(0.0, 15.9, 300),
            [0.0, 5e-324, 2.0**-54, 1e-17, 1.0 - 2.0**-53]])).reshape(-1, 5)
        together = lattice(m)
        for field in fields(RectLattice):
            column = getattr(together, field.name)
            assert column.shape == m.shape
            alone = [getattr(lattice(m_i), field.name) for m_i in m.ravel().tolist()]
            assert list(map(float.hex, column.ravel().tolist())) == list(map(float.hex, alone)), \
                field.name

    @pytest.mark.parametrize("m", [[0.5, math.nan, -0.1], [0.2, -0.1, 1.0], [0.0, 0.3, 1.0]])
    def test_an_array_raises_for_its_first_invalid_m(self, m):
        first = next(m_i for m_i in m if not 0.0 <= m_i < 1.0)
        with pytest.raises(DomainError) as alone:
            lattice(first)
        with pytest.raises(DomainError) as together:
            lattice(np.array(m))
        assert str(together.value) == str(alone.value)


def _random_cell_points(lat, n, seed, margin=0.25):
    """Points in the base cell away from lattice points."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-lat.K, lat.K), rng.uniform(-lat.Kc, lat.Kc))
        if abs(z) > margin and abs(z - 2 * lat.K) > margin:
            pts.append(z)
    return pts


def _cell_and_boundary_points(lat):
    """Random base-cell points plus points on the boundary of the rectangle."""
    K, Kc = lat.K, lat.Kc
    return _random_cell_points(lat, 6, seed=1) + [
        complex(K, 0.3 * Kc), complex(0.4 * K, Kc), complex(K, Kc),
        complex(-0.7 * K, -Kc), complex(0.0, Kc), complex(K, 0.0)]


class TestWp:
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_corner_values(self, m):
        lat = lattice(m)
        assert wp(lat.K, lat) == pytest.approx(lat.e1, abs=1e-14)
        assert wp(1j * lat.Kc, lat) == pytest.approx(lat.e2, abs=1e-14)
        assert wp(complex(lat.K, lat.Kc), lat) == pytest.approx(lat.e3, abs=1e-14)

    @pytest.mark.parametrize("m", [0.2, 0.5, 0.95])
    def test_differential_equation(self, m):
        # (wp')^2 = 4 wp^3 - g2 wp - g3 everywhere
        lat = lattice(m)
        for z in _random_cell_points(lat, 25, seed=3):
            P = wp(z, lat)
            Pp = wp_prime(z, lat)
            scale = max(1.0, abs(P) ** 3)
            assert abs(Pp**2 - (4 * P**3 - lat.g2 * P - lat.g3)) < 1e-9 * scale

    def test_against_independent_jacobi_oracle(self):
        # wp(z) = m sn^2(z - iK'|m) - (m+1)/3 with sn from ODE integration
        m = 0.5
        lat = lattice(m)
        Kc = oracles.quad_K(1.0 - m)
        for z in (0.7 + 0.9j, 1.1 - 0.4j, 0.3 + 0.2j, 1.4 + 1.7j):
            sn, _, _ = oracles.ode_jacobi_complex(z - 1j * Kc, m)
            expected = m * sn * sn - (m + 1) / 3
            assert abs(wp(z, lat) - expected) < 1e-9

    @pytest.mark.parametrize("m", M_GRID + NEAR_ONE + [1e-9])
    def test_matches_mpmath(self, m):
        # against sn, cn, dn from mpmath, not a theta series; m = 1e-9 because a
        # route through a rounded 1 - m loses digits there
        lat = lattice(m)
        for z in _cell_and_boundary_points(lat):
            ref_wp, ref_prime = oracles.mp_wp(z, m)
            assert abs(wp(z, lat) - ref_wp) <= 1e-14 * max(1.0, abs(ref_wp))
            assert abs(wp_prime(z, lat) - ref_prime) <= 1e-14 * max(1.0, abs(ref_prime))

    @pytest.mark.parametrize("m", [0.3, 0.8])
    def test_prime_is_derivative(self, m):
        lat = lattice(m)
        h = 1e-6
        for z in _random_cell_points(lat, 10, seed=5):
            fd = (wp(z + h, lat) - wp(z - h, lat)) / (2 * h)
            assert abs(fd - wp_prime(z, lat)) < 1e-5 * max(1.0, abs(wp_prime(z, lat)))

    def test_parity_and_periodicity(self):
        lat = lattice(0.6)
        z = 0.8 + 0.5j
        assert abs(wp(-z, lat) - wp(z, lat)) < 1e-12
        assert abs(wp_prime(-z, lat) + wp_prime(z, lat)) < 1e-12
        for shift in (2 * lat.K, 2j * lat.Kc, 2 * lat.K + 2j * lat.Kc):
            assert abs(wp(z + shift, lat) - wp(z, lat)) < 1e-11

    def test_real_input_returns_float(self):
        lat = lattice(0.4)
        out = wp(0.9, lat)
        assert isinstance(out, float)
        assert isinstance(wp_prime(0.9, lat), float)
        assert out > lat.e1  # real axis sits above e1

    def test_second_derivative_at_corners(self):
        # wp'' = 6 wp^2 - g2/2: values 2(1-m), 2m, 2m(m-1) at K, iK', K+iK'
        m = 0.37
        lat = lattice(m)
        for corner, expected in ((lat.K, 2 * (1 - m)),
                                 (1j * lat.Kc, 2 * m),
                                 (complex(lat.K, lat.Kc), 2 * m * (m - 1))):
            val = 6 * wp(corner, lat) ** 2 - lat.g2 / 2
            assert val == pytest.approx(expected, abs=1e-13)

    def test_pole_rejection(self):
        lat = lattice(0.5)
        for z in (0.0, 2 * lat.K, complex(2 * lat.K, 2 * lat.Kc), 1e-10 + 1e-11j):
            with pytest.raises(PoleError):
                wp(z, lat)

    def test_trigonometric_limit(self):
        lat = lattice(0.0)
        z = 0.7 + 0.3j
        assert abs(wp(z, lat) - (1 / cmath.sin(z) ** 2 - 1 / 3)) < 1e-13
        assert abs(wp_prime(z, lat) + 2 * cmath.cos(z) / cmath.sin(z) ** 3) < 1e-12


class TestZeta:
    """zeta is pinned down jointly by zeta' = -wp (with wp independently
    verified above), oddness, and the quasi-period increments, which
    determine it uniquely; plus closed-form spot values."""

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_oddness(self, m):
        lat = lattice(m)
        for z in _random_cell_points(lat, 10, seed=8):
            assert abs(zeta(-z, lat) + zeta(z, lat)) < 1e-12

    @pytest.mark.parametrize("m", [0.2, 0.5, 0.8])
    def test_derivative_is_minus_wp(self, m):
        lat = lattice(m)
        h = 1e-6
        # near the origin, next to both axes, generic, near the corner
        pts = [0.3 + 0.1j, 0.02 + 0.3j, 0.9 + 5e-5j, 5e-5 + 0.8j, 0.8 + 0.6j,
               complex(0.99 * lat.K, 0.7 * lat.Kc)]
        for z in pts:
            fd = (zeta(z + h, lat) - zeta(z - h, lat)) / (2 * h)
            assert abs(fd + wp(z, lat)) < 2e-4 * max(1.0, abs(wp(z, lat)))

    def test_quasi_periods(self):
        lat = lattice(0.42)
        z = 0.51 + 0.33j
        base = zeta(z, lat)
        assert abs(zeta(z + 2 * lat.K, lat) - base - 2 * lat.eta1) < 1e-12
        assert abs(zeta(z + 2j * lat.Kc, lat) - base - 2 * lat.eta2) < 1e-12
        assert abs(zeta(z - 4 * lat.K + 2j * lat.Kc, lat) - base
                   + 4 * lat.eta1 - 2 * lat.eta2) < 1e-11

    def test_half_period_values(self):
        for m in (0.3, 0.6, 0.9):
            lat = lattice(m)
            assert abs(zeta(complex(lat.K), lat) - lat.eta1) < 1e-13
            assert abs(zeta(1j * lat.Kc, lat) - lat.eta2) < 1e-13

    def test_corner_additivity(self):
        # zeta(K + iK') = zeta(K) + zeta(iK') on the rectangular lattice
        lat = lattice(0.5)
        lhs = zeta(complex(lat.K, lat.Kc), lat)
        rhs = zeta(complex(lat.K), lat) + zeta(1j * lat.Kc, lat)
        assert abs(lhs - rhs) < 1e-12

    def test_branch_seams_agree(self):
        # the addition formula
        #   zeta(x + iy) = zeta(x) + zeta(iy) + (wp'(x) - wp'(iy)) / (2 (wp(x) - wp(iy)))
        # with every axis value from the ODE oracles: zeta(x) = eps(x|m)
        # + cn dn/sn - e1 x, and zeta(iy) = -i zc(y) with zc(y) = eps(y|1-m)
        # + cn dn/sn - (1+m) y/3 at (y|1-m)
        m = 0.45
        lat = lattice(m)

        def addition(x, y):
            s, c, d = oracles.ode_jacobi(x, m)
            zx = oracles.ode_dn2_antiderivative(x, m) + c * d / s - lat.e1 * x
            px, ppx = 1 / s**2 - (m + 1) / 3, -2 * c * d / s**3
            s, c, d = oracles.ode_jacobi(y, 1 - m)
            zc = oracles.ode_dn2_antiderivative(y, 1 - m) + c * d / s - (1 + m) * y / 3
            py, ppy = (2 - m) / 3 - 1 / s**2, -2j * c * d / s**3
            return zx - 1j * zc + 0.5 * (ppx - ppy) / (px - py)

        for x, y in ((0.28, 0.28), (0.9, 5e-5), (5e-5, 0.8), (0.25, 0.2)):
            assert abs(zeta(complex(x, y), lat) - addition(x, y)) < 1e-9

    @pytest.mark.parametrize("m", M_GRID + NEAR_ONE)
    def test_matches_mpmath_theta(self, m):
        lat = lattice(m)
        for z in _cell_and_boundary_points(lat):
            ref_zeta, ref_sigma = oracles.mp_zeta_sigma(z, m)
            assert abs(zeta(z, lat) - ref_zeta) <= 1e-14 * abs(ref_zeta)
            assert abs(sigma(z, lat) - ref_sigma) <= 1e-14 * abs(ref_sigma)

    def test_pole_rejection(self):
        lat = lattice(0.5)
        with pytest.raises(PoleError):
            zeta(0.0, lat)
        with pytest.raises(PoleError):
            zeta(complex(2 * lat.K, 2 * lat.Kc) + 1e-10, lat)

    def test_trigonometric_limit(self):
        lat = lattice(0.0)
        z = 1.2 + 0.4j
        assert abs(zeta(z, lat) - (z / 3 + 1 / cmath.tan(z))) < 1e-13
        # quasi-periodicity survives the degeneration: eta1 = pi/6
        assert abs(zeta(z + math.pi, lat) - zeta(z, lat) - math.pi / 3) < 1e-13


class TestSigma:
    def test_normalisation_at_origin(self):
        lat = lattice(0.5)
        for t in (1e-4, 1e-3):
            assert abs(sigma(complex(t), lat) / t - 1.0) < 1e-10

    def test_quasi_periodicity_real_shift(self):
        lat = lattice(0.5)
        for z in (0.3 + 0.2j, -0.7 + 0.9j, 1.1 - 1.2j):
            lhs = sigma(z + 2 * lat.K, lat) / sigma(z, lat)
            rhs = -cmath.exp(2 * lat.eta1 * (z + lat.K))
            assert abs(lhs - rhs) < 1e-8 * abs(rhs)

    def test_quasi_periodicity_imaginary_shift(self):
        lat = lattice(0.35)
        z = 0.4 - 0.3j
        lhs = sigma(z + 2j * lat.Kc, lat) / sigma(z, lat)
        rhs = -cmath.exp(2 * lat.eta2 * (z + 1j * lat.Kc))
        assert abs(lhs - rhs) < 1e-8 * abs(rhs)

    def test_oddness_and_lattice_zeros(self):
        lat = lattice(0.7)
        z = 0.52 + 0.61j
        assert abs(sigma(-z, lat) + sigma(z, lat)) < 1e-10 * abs(sigma(z, lat))
        assert sigma(complex(2 * lat.K, 2 * lat.Kc), lat) == 0.0

    def test_log_derivative_is_zeta(self):
        lat = lattice(0.5)
        h = 1e-6
        for z in (0.6 + 0.4j, 1.2 - 0.7j):
            fd = (sigma(z + h, lat) - sigma(z - h, lat)) / (2 * h) / sigma(z, lat)
            assert abs(fd - zeta(z, lat)) < 1e-8

    def test_trigonometric_limit(self):
        lat = lattice(0.0)
        z = 0.9 + 0.2j
        assert abs(sigma(z, lat) - cmath.sin(z) * cmath.exp(z * z / 6)) < 1e-14


class TestWpInverse:
    @pytest.mark.parametrize("m", [1e-5, 0.3, 0.5, 0.9, 0.999, 1 - 1e-8, 1 - 1e-12])
    def test_round_trip_all_regions(self, m):
        lat = lattice(m)
        width = lat.e3 - lat.e2
        Vs = [-1e6, -37.0, lat.e2 - 1.5, lat.e2 - 1e-9,
              lat.e2 + 0.5 * width, lat.e2 + 1e-3 * width, lat.e3 - 1e-3 * width,
              lat.e3 + 0.25 * (lat.e1 - lat.e3), lat.e1 - 1e-9, lat.e1 + 1e-9,
              lat.e1 + 2.0, 1e7]
        for V in Vs:
            a = wp_inverse(V, lat)
            got = wp(a if a.imag != 0.0 else a.real, lat)
            val = got if isinstance(got, float) else got.real
            assert abs(val - V) <= 1e-10 * max(1.0, abs(V))

    def test_branch_geometry(self):
        lat = lattice(0.5)
        a = wp_inverse(lat.e2 - 2.0, lat)
        assert a.real == 0.0 and 0 < a.imag < lat.Kc
        a = wp_inverse((lat.e2 + lat.e3) / 2, lat)
        assert a.imag == lat.Kc and 0 < a.real < lat.K
        a = wp_inverse((lat.e3 + lat.e1) / 2, lat)
        assert a.real == lat.K and 0 < a.imag < lat.Kc
        a = wp_inverse(lat.e1 + 3.0, lat)
        assert a.imag == 0.0 and 0 < a.real < lat.K

    def test_band_edge_orientation(self):
        # Im(a) decreases as V increases across the right edge
        lat = lattice(0.4)
        Vs = np.linspace(lat.e3 + 1e-6, lat.e1 - 1e-6, 9)
        ims = [wp_inverse(V, lat).imag for V in Vs]
        assert all(a > b for a, b in zip(ims, ims[1:]))

    def test_corners_are_exact(self):
        lat = lattice(0.62)
        assert wp_inverse(lat.e2, lat) == 1j * lat.Kc
        assert wp_inverse(lat.e3, lat) == complex(lat.K, lat.Kc)
        assert wp_inverse(lat.e1, lat) == complex(lat.K, 0.0)
        # within snapping distance behaves the same
        assert wp_inverse(lat.e2 + 5e-13, lat) == 1j * lat.Kc

    @pytest.mark.parametrize("m", [0.05, 0.62, 0.95])
    def test_amplitude_meets_the_corners(self, m):
        lat = lattice(m)
        # phi = 0 at e2 and pi/2 at e3 and e1: a zero numerator or denominator
        for V, corner, edge, zero, mu in [(lat.e2, "e2", "top", 0, m),
                                          (lat.e3, "e3", "right", 1, 1.0 - m),
                                          (lat.e1, "e1", "real", 1, m)]:
            amp = wp_amplitude(V, lat)
            assert (EDGES[amp.edge], amp.amplitude[zero], amp.mu) == (edge, 0.0, mu)
            assert amp.amplitude[1 - zero] > 0.0
            assert CORNERS[amp.corner] == corner
        assert ellint_F_zeta(1.0, 0.0, 1.0 - m)[0] == lat.Kc
        assert ellint_F_zeta(1.0, 0.0, m)[0] == lat.K

    def test_reference_point(self):
        lat = lattice(0.5)
        a = wp_inverse(1.0, lat)
        assert abs(wp(a.real, lat) - 1.0) < 1e-10

    def test_infinities_collapse_to_origin(self):
        lat = lattice(0.5)
        assert wp_inverse(math.inf, lat) == 0.0
        assert wp_inverse(-math.inf, lat) == 0.0
        with pytest.raises(DomainError):
            wp_inverse(math.nan, lat)

    def test_degenerate_lattice_branches(self):
        lat = lattice(0.0)
        for V in (-4.0, 0.2, 3.0):
            a = wp_inverse(V, lat)
            val = wp(a if a.imag != 0.0 else a.real, lat)
            val = val if isinstance(val, float) else val.real
            assert abs(val - V) < 1e-12 * max(1.0, abs(V))
        with pytest.raises(DomainError):
            wp_inverse(-1 / 3, lat)


def _answers(calls):
    """One line per call: the repr of its answer, or the name of its error."""
    lines = []
    for call in calls:
        try:
            lines.append(repr(call()))
        except (DomainError, PoleError) as exc:
            lines.append(type(exc).__name__)
    return "\n".join(lines)


class TestEveryM:
    def test_the_values_at_positive_m_are_pinned(self):
        # Recorded when m = 0 still had trigonometric evaluators of its own:
        # every m > 0 answers as it did, sign of zero included.  2,000 seeded
        # (m, z), m a third uniform in (0, 1) and a third log-spread toward
        # each end, from 1e-15 of it; |z| log-spread from 1e-3 to 1e3.
        rng = np.random.default_rng(35)
        near = 10.0 ** rng.uniform(-15.0, -1.0, 2000)
        ms = np.choose(rng.integers(0, 3, 2000), (rng.uniform(0.0, 1.0, 2000), near, 1.0 - near))
        zs = 10.0 ** rng.uniform(-3.0, 3.0, 2000) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 2000))
        calls = [lambda f=f, a=a, lat=lattice(m): f(a, lat)
                 for m, z in zip(ms.tolist(), zs.tolist())
                 for f in (wp, wp_prime, zeta, sigma) for a in (z, z.real)]
        assert hashlib.sha256(_answers(calls).encode()).hexdigest() == (
            "372d4bd6637ab3481cff8edb50b1847d42ed7fee06dede532223f783cffc99e5")

    def test_m0_is_the_trigonometric_limit(self):
        # The theta_1 series of nome 0 is sin v: within 2e-13 max(1, |f|) of the
        # limits up to |Im z| = 709, and DomainError past 710.5, where sin
        # overflows.  Once wp was nan for 356 <= |Im z| < 710, wp' refused from
        # |Im z| = 237, and zeta answered past 710.5.
        lat = lattice(0.0)
        rng = np.random.default_rng(35)
        for x, y in zip(rng.uniform(-50.0, 50.0, 400).tolist(),
                        rng.uniform(-1000.0, 1000.0, 400).tolist()):
            z = complex(x, y)
            for f, limit in zip((wp, wp_prime, zeta, sigma), oracles.mp_circular(z)):
                if abs(y) <= 709.0:
                    assert abs(f(z, lat) - limit) <= 2e-13 * max(1.0, abs(limit)), (f, z)
                elif abs(y) >= 710.5:
                    with pytest.raises(DomainError, match=f.__name__):
                        f(z, lat)
