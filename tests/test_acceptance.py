"""The acceptance gate: ten end-to-end checks, one test per criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Each test asserts the headline numbers at their stated
tolerances and nothing else; the fine-grained behavior lives in the
per-module suites.

Criterion 5 asserts a published closed form for the bifurcation slope
that disagrees with both the implementation and its own finite-difference
cross-check; it is expected to fail, and does so on the final assert so
the cross-check still runs.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from kdvorbits.asymptotics import (
    K_asymptotes,
    V_near_m0,
    V_near_m1,
    degenerate_zeta,
    exceptional_V_asymptote,
    k_large_V,
    k_near_wedge,
    one_minus_m_nonperturbative,
)
from kdvorbits.bands import numeric_band_gaps
from kdvorbits.elliptic import jacobi
from kdvorbits.hill import floquet_monodromy, kdv_evolve, winding_number
from kdvorbits.orbits import (
    classify,
    cnoidal_profile,
    dk_dV,
    level_curve,
    monodromy_trace,
    uniform_representative,
)
from kdvorbits.shoaling import (
    WaveTrain,
    critical_depth,
    critical_m,
    shoaling_path,
    wavelength,
    zero_average_V,
)
from kdvorbits.virasoro import CircleDiffeo, coadjoint
from kdvorbits.weierstrass import lattice, wp, wp_prime, zeta


def test_01_critical_pointedness():
    critical_m.cache_clear()
    start = time.perf_counter()
    value = critical_m()
    elapsed = time.perf_counter() - start
    assert abs(value - 0.8261147659849698) < 1e-12
    assert elapsed < 1.0


def test_02_wedge_boundaries():
    for m in np.linspace(0.05, 0.95, 20):
        for edge in (-(m + 1.0) / 3.0, (2.0 * m - 1.0) / 3.0):
            kc = uniform_representative(m, edge).kc
            assert abs(kc.real - (-1.0 / 24.0)) < 1e-9
            assert abs(kc.imag) < 1e-9
            assert abs(monodromy_trace(m, edge) - (-2.0)) < 1e-9


def test_03_oracle_equivalence():
    start = time.perf_counter()
    c = 2.0
    for m in np.linspace(0.1, 0.9, 20):
        for V in np.linspace(-1.2, 1.2, 20):
            closed = monodromy_trace(m, V)
            profile = cnoidal_profile(m, V, c)
            floquet = float(np.trace(floquet_monodromy(profile, c)))
            assert abs(floquet - closed) / abs(closed) < 1e-11
            assert winding_number(profile, c) == classify(m, V).winding
    assert time.perf_counter() - start < 120.0


def test_04_band_structure():
    gaps = numeric_band_gaps(1, 0.6)
    assert len(gaps) == 1
    assert abs(gaps[0].lo - 1.0) < 1e-4
    assert abs(gaps[0].hi - 1.6) < 1e-4
    assert len(numeric_band_gaps(2, 0.5)) == 2


def test_05_finite_slope_bifurcation():
    for m in (0.2, 0.5, 0.8):
        lat = lattice(m)
        slope = dk_dV(m, lat.e1)
        # two-sided finite differences confirm the implemented slope
        delta = 1e-6
        fd = (uniform_representative(m, lat.e1 + delta).kc.real
              - uniform_representative(m, lat.e1 - delta).kc.real) / (2 * delta)
        assert abs(fd - slope) / slope < 1e-4
        # the published closed form for the same slope (expected failure:
        # it disagrees with the finite-difference check above by ~10x)
        quasi_period_form = (zeta(lat.K, lat) ** 2).real \
            / (6.0 * math.pi**2 * (1.0 - m))
        assert abs(quasi_period_form / slope - 1.0) < 1e-6


def test_06_identity_suite():
    for m in (0.2, 0.5, 0.95):
        lat = lattice(m)
        # Legendre relation between the half-periods and quasi-periods
        legendre = lat.omega1 * lat.eta2 - lat.omega2 * lat.eta1
        assert abs(legendre - (-1j * math.pi / 2.0)) < 1e-12
        # branch points solve the cubic and sum to zero
        for e in (lat.e1, lat.e2, lat.e3):
            assert abs(4.0 * e**3 - lat.g2 * e - lat.g3) < 1e-12
        assert abs(lat.e1 + lat.e2 + lat.e3) < 1e-12
        assert abs(wp(lat.K, lat) - lat.e1) < 1e-12
        assert abs(wp(1j * lat.Kc, lat) - lat.e2) < 1e-12
        assert abs(wp(complex(lat.K, lat.Kc), lat) - lat.e3) < 1e-12
        # differential equation at interior points
        for z in (0.8 * lat.K + 0.3j * lat.Kc, 0.31 * lat.K + 0.71j * lat.Kc):
            P, Pp = wp(z, lat), wp_prime(z, lat)
            scale = max(1.0, abs(P) ** 3)
            assert abs(Pp**2 - (4.0 * P**3 - lat.g2 * P - lat.g3)) \
                < 1e-9 * scale
        # second derivative 6 wp^2 - g2/2 at the three corners
        corners = ((lat.K, 2.0 * (1.0 - m)), (1j * lat.Kc, 2.0 * m),
                   (complex(lat.K, lat.Kc), 2.0 * m * (m - 1.0)))
        for corner, expected in corners:
            val = 6.0 * wp(corner, lat) ** 2 - lat.g2 / 2.0
            assert abs(val - expected) < 1e-9
        # Jacobi: addition formula and the two Pythagorean identities
        for u, v in ((0.3, 1.1), (-0.9, 0.4), (1.7, 2.2)):
            su, cu, du = jacobi(u, m)
            sv, cv, dv = jacobi(v, m)
            target = (su * cv * dv + sv * cu * du) \
                / (1.0 - m * su**2 * sv**2)
            assert abs(jacobi(u + v, m).sn - target) < 1e-10
            assert abs(su**2 + cu**2 - 1.0) < 1e-12
            assert abs(du**2 - (1.0 - m * su**2)) < 1e-12


def _exact_kc(m, V):
    return uniform_representative(m, V).kc.real


def _m_for_nome_sq(target):
    def gap(m):
        lat = lattice(m)
        return math.exp(-2.0 * math.pi * lat.Kc / lat.K) - target

    return brentq(gap, 1e-8, 0.9)


def test_07_asymptotic_convergence_orders():
    # large-V linear law: first order in 1/V over three decades
    def err_large(V):
        return abs(k_large_V(0.5, V).value - _exact_kc(0.5, V))
    for V in (50.0, 500.0, 5000.0):
        assert 1.5 <= err_large(V) / err_large(2.0 * V) <= 3.0

    # exceptional-constant depth: second order in 1/n
    def rel_exc(n):
        exact = level_curve(-n * n / 24.0, 0.2, "below_wedge")
        return abs(exceptional_V_asymptote(n, 0.2).value / exact - 1.0)
    for n in (8, 32, 128):
        assert 3.0 <= rel_exc(n) / rel_exc(2 * n) <= 5.0

    # square-root wedge exit: remainder linear in the offset
    e2 = lattice(0.5).e2

    def err_edge(nu):
        V = e2 - nu
        return abs(k_near_wedge(0.5, V, "lower").value - _exact_kc(0.5, V))
    for nu in (2e-4, 2e-5, 2e-6):
        assert 1.5 <= err_edge(nu) / err_edge(nu / 2.0) <= 3.0

    # level curves at both degenerate ends: second order in the gap
    def err_m1(gap):
        return abs(V_near_m1(0.05, 1.0 - gap).value
                   - level_curve(0.05, 1.0 - gap, "above_wedge"))
    for gap in (2e-3, 2e-4, 2e-5):
        assert 3.0 <= err_m1(gap) / err_m1(gap / 2.0) <= 5.0

    def err_m0(m):
        return abs(V_near_m0(0.1, m).value
                   - level_curve(0.1, m, "above_wedge"))
    for m in (0.04, 0.01, 0.0025):
        assert 3.0 <= err_m0(m) / err_m0(m / 2.0) <= 5.0

    # complete integrals near m = 1: log branch first order, complement
    # branch second order
    import scipy.special as sp

    def errs_K(gap):
        big, small = K_asymptotes(1.0 - gap)
        return (abs(big.value - sp.ellipkm1(gap)),
                abs(small.value - sp.ellipk(gap)))
    for gap in (1e-3, 1e-5):
        big_1, small_1 = errs_K(gap)
        big_2, small_2 = errs_K(gap / 2.0)
        assert 1.5 <= big_1 / big_2 <= 3.0
        assert 3.0 <= small_1 / small_2 <= 5.0

    # degenerate zeta: error quartic in the nome
    def rel_zeta(q2):
        m = _m_for_nome_sq(q2)
        lat = lattice(m)
        z = 0.37 * lat.K
        exact = zeta(z, lat)
        return abs(degenerate_zeta(z, m, "m_to_0").value - exact) / abs(exact)
    for q2 in (1e-4, 2.5e-5, 6.25e-6):
        assert 3.0 <= rel_zeta(q2) / rel_zeta(q2 / 2.0) <= 5.0

    # non-perturbative m -> 1 law: 10% prediction of 1 - m close to the
    # soliton velocity -2/3 (the regime lives just below it)
    V_probe = -2.0 / 3.0 - 0.01
    predicted = one_minus_m_nonperturbative(-4.0 / 24.0, V_probe).value

    def defect(t):
        return level_curve(-4.0 / 24.0, 1.0 - 10.0**t, "below_wedge") - V_probe
    actual = 10.0 ** brentq(defect, -15.5, -1.0)
    assert abs(predicted / actual - 1.0) < 0.10


def test_08_shoaling():
    assert abs(critical_depth(1.0, 1.0, 1.0, 1.0) - 0.3905) < 5e-4
    T, rho, g = 8.0, 1025.0, 9.81
    train = WaveTrain(5.0, wavelength(5.0, T, g), 0.5, T, rho, g)
    h_star = critical_depth(T, train.F, rho, g)
    path = shoaling_path(np.linspace(5.0, 0.5 * h_star, 9),
                         T, train.F, rho, g)
    assert path.entry_index is not None
    assert_allclose(path.crossing_depth, h_star, rtol=1e-6)
    for m in np.linspace(0.1, 0.9, 9):
        profile = cnoidal_profile(m, zero_average_V(m), 1.0)
        assert abs(profile.mean()) < 1e-10


def test_09_dynamics():
    m, c, tau = 0.5, -32.0 * math.pi**3, 1e-4
    V = zero_average_V(m)
    before = cnoidal_profile(m, V, c)
    evolved = kdv_evolve(before, c, tau)
    translated = cnoidal_profile(m, V, c, tau=tau)
    assert float(np.max(np.abs(evolved.samples - translated.samples))) < 1e-6
    trace_before = float(np.trace(floquet_monodromy(before, c)))
    trace_after = float(np.trace(floquet_monodromy(evolved, c)))
    assert abs(trace_after - trace_before) < 1e-5


def _random_diffeo(seed, k_max=3, budget=0.6):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.2, 1.0, size=k_max)
    scale = budget / np.sum(np.arange(1, k_max + 1) * raw)
    amps = raw * scale * rng.uniform(0.5, 1.0)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=k_max)
    return CircleDiffeo.fourier(amps, phases)


def test_10_virasoro_invariance():
    waves = [(0.3, -0.7, 1.3), (0.5, 0.3, 2.0), (0.6, -0.3, 1.0),
             (0.7, 0.8, -3.0), (0.8, 0.1, 0.7)]
    diffeos = [_random_diffeo(seed) for seed in range(20)]
    for m, V, c in waves:
        profile = cnoidal_profile(m, V, c)
        trace = float(np.trace(floquet_monodromy(profile, c)))
        winding = classify(m, V).winding
        for f in diffeos:
            moved = coadjoint(profile, f, c)
            shifted = float(np.trace(floquet_monodromy(moved, c)))
            assert abs(shifted - trace) < 1e-5
            assert winding_number(moved, c) == winding
