import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
import kdvorbits.bands as bands
from kdvorbits.bands import (
    _CHUNK,
    BandPoint,
    GapInterval,
    _half_period_entries,
    _magnus_nodes,
    band_edges,
    crystal_momentum,
    exceptional_energy_asymptote,
    kappa_ell_extended,
    lame_profile,
    numeric_band_gaps,
    floquet_traces,
)
from kdvorbits.errors import DomainError, ResolutionError
from kdvorbits.hill import floquet, floquet_monodromy
from kdvorbits.orbits import cnoidal_profile, dk_dV, level_curve, uniform_representative
from kdvorbits.weierstrass import lattice


def orbit_V(E, m):
    return (2.0 * m + 2.0) / 3.0 - E


class TestCrystalMomentum:
    def test_travels_the_valence_band(self):
        m = 0.6
        assert crystal_momentum(m, m).kappa_ell == 0.0
        assert crystal_momentum(1.0, m).kappa_ell == math.pi
        mid = crystal_momentum(0.8, m)
        assert 0.0 < mid.kappa_ell < math.pi and not mid.in_gap
        assert mid.kappa_ell_extended.imag == 0.0

    def test_gap_and_below_spectrum_markers(self):
        m = 0.6
        gap = crystal_momentum(1.3, m)
        assert gap.in_gap
        assert gap.kappa_ell_extended.real == pytest.approx(math.pi)
        assert gap.kappa_ell_extended.imag > 0.0
        below = crystal_momentum(0.3, m)
        assert below.in_gap
        assert below.kappa_ell_extended.real == 0.0
        assert below.kappa_ell_extended.imag > 0.0

    def test_conduction_band_folds_back(self):
        bp = crystal_momentum(3.0, 0.6)
        assert not bp.in_gap
        assert bp.kappa_ell_extended.real > math.pi
        assert 0.0 <= bp.kappa_ell <= math.pi
        refolded = math.fmod(bp.kappa_ell_extended.real, 2.0 * math.pi)
        refolded = min(refolded, 2.0 * math.pi - refolded)
        assert_allclose(bp.kappa_ell, refolded, rtol=1e-12)

    @pytest.mark.parametrize("E,m", [
        (0.8, 0.6),    # valence band
        (1.3, 0.6),    # gap
        (2.5, 0.6),    # conduction band
        (0.3, 0.6),    # below the spectrum
        (0.97, 0.2), (4.0, 0.9),
    ])
    def test_energy_and_orbit_constant_agree(self, E, m):
        # -(kappa l / 2 pi)^2 = 6 kc links the dispersion to the constant
        # representative of the matching orbit; both sides are complex in
        # the forbidden regions, and the routes share no code.
        bp = crystal_momentum(E, m)
        lhs = -((bp.kappa_ell_extended / (2.0 * math.pi)) ** 2)
        rhs = 6.0 * uniform_representative(m, orbit_V(E, m)).kc
        assert cmath.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-9)

    @given(E=st.floats(0.01, 6.0), m=st.floats(0.01, 0.95))
    @settings(deadline=None, max_examples=60)
    def test_identity_holds_everywhere(self, E, m):
        bp = crystal_momentum(E, m)
        lhs = -((bp.kappa_ell_extended / (2.0 * math.pi)) ** 2)
        rhs = 6.0 * uniform_representative(m, orbit_V(E, m)).kc
        assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)

    @pytest.mark.parametrize("E", [0.25, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 5.0])
    def test_free_dispersion_at_m0(self, E):
        # At m = 0 the potential is constant and kappa l = pi sqrt(E),
        # right through the double corner E = 1 where both gaps close.
        bp = crystal_momentum(E, 0.0)
        assert_allclose(bp.kappa_ell_extended, math.pi * math.sqrt(E),
                        rtol=1e-12, atol=1e-12)
        assert not bp.in_gap

    @pytest.mark.parametrize("m", [5e-324, 1e-300, 1e-17])
    def test_tiny_m_is_the_m0_dispersion(self, m):
        # 1 - m rounds to 1: the lattice is the m = 0 one, double corner included
        for E in (0.25, 1.0, 2.0):
            assert crystal_momentum(E, m) == crystal_momentum(E, 0.0)

    @pytest.mark.parametrize("E", [0.7, 0.95, 1.3, 1.8, 2.5])
    def test_cosine_matches_adaptive_floquet_trace(self, E):
        m = 0.6
        trace = np.trace(floquet_monodromy(lame_profile(1, m, E, 1.0), 1.0))
        assert abs(cmath.cos(crystal_momentum(E, m).kappa_ell_extended)
                   - trace / 2.0) < 1e-8

    def test_square_root_onset_at_parabolic_edge(self):
        # kappa ~ A sqrt(E - m) with A^2 = 24 pi^2 (dk/dV at the edge):
        # the dispersion slope blows up even though the orbit-plane slope
        # stays finite.
        m = 0.6
        lat = lattice(m)
        slope = dk_dV(m, lat.e1)
        assert math.isfinite(slope) and slope > 0.0
        amp = 2.0 * math.pi * math.sqrt(6.0 * slope)
        ratios = [crystal_momentum(m + d, m).kappa_ell / math.sqrt(d)
                  for d in (1e-3, 1e-5, 1e-7)]
        assert abs(ratios[1] - amp) < abs(ratios[0] - amp)
        assert_allclose(ratios[2], amp, rtol=1e-5)

    def test_rejects_nonfinite_energy(self):
        with pytest.raises(DomainError):
            crystal_momentum(float("nan"), 0.5)
        with pytest.raises(DomainError):
            crystal_momentum(float("inf"), 0.5)


class TestBandEdges:
    def test_single_gap_of_width_m(self):
        lo, mid, hi = band_edges(0.6)
        assert (lo, mid, hi) == (0.6, 1.0, 1.6)
        assert hi - mid == pytest.approx(0.6)

    def test_edges_are_the_wedge_corners(self):
        m = 0.37
        lat = lattice(m)
        lo, mid, hi = band_edges(m)
        assert_allclose(orbit_V(lo, m), lat.e1, rtol=1e-14)
        assert_allclose(orbit_V(mid, m), lat.e3, rtol=1e-14, atol=1e-16)
        assert_allclose(orbit_V(hi, m), lat.e2, rtol=1e-14)

    def test_kappa_snaps_at_all_three(self):
        m = 0.6
        lo, mid, hi = band_edges(m)
        assert crystal_momentum(lo, m).kappa_ell == 0.0
        assert crystal_momentum(mid, m).kappa_ell == math.pi
        assert crystal_momentum(hi, m).kappa_ell == math.pi

    @pytest.mark.parametrize("m", [1.0, -0.1, float("nan")])
    def test_domain(self, m):
        with pytest.raises(DomainError):
            band_edges(m)
        with pytest.raises(DomainError):
            band_edges(m, 3)

    @pytest.mark.parametrize("N", [0, -2])
    def test_rejects_bad_index(self, N):
        with pytest.raises(DomainError):
            band_edges(0.5, N)

    @pytest.mark.parametrize("N", [4097, 10**12])
    def test_index_is_capped_before_allocating(self, N):
        # the dense blocks of N = 4097 would hold 34 MB; refuse with nothing built
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="4096"):
                band_edges(0.5, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("m", [0.0, 1e-300, 0.05, 0.3, 0.37, 0.95, 1.0 - 2.0**-52])
    def test_N1_is_exact(self, m):
        assert band_edges(m, 1) == band_edges(m) == (m, 1.0, m + 1.0)

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.5, 0.6, 0.95])
    def test_N2_textbook_edges(self, m):
        root = math.sqrt(1.0 - m + m * m)
        expected = sorted([2.0 * (1.0 + m) - 2.0 * root, 1.0 + m, 1.0 + 4.0 * m,
                           4.0 + m, 2.0 * (1.0 + m) + 2.0 * root])
        assert_allclose(band_edges(m, 2), expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("N", [2, 3, 6])
    def test_free_levels_at_m0(self, N):
        levels = [float(r * r) for r in range(N + 1)]
        assert band_edges(0.0, N) == tuple(sorted(levels + levels[1:]))

    def test_large_index(self):
        # the lowest bands are narrower than an ulp here, so the order is
        # only non-strict
        edges = band_edges(0.5, 2000)
        assert len(edges) == 4001
        assert edges[0] > 0.0 and all(np.diff(edges) >= 0.0)

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.6, 0.95])
    def test_edges_certified_by_adaptive_oracle(self, m):
        # At each edge either |Tr| = 2 to 1e-8, or Tr - 2s changes sign
        # across E +- 1e-9 max(1, E), s = (-1)^g the sign of Tr in the
        # neighbouring gap g.  The first check alone fails at steep edges
        # (|Tr| - 2 reaches 0.0155 next to a band 1.7e-8 wide at N = 5,
        # m = 0.95), the second alone at the flat edges of gaps narrower
        # than about 2e-3.
        def trace(N, E):
            return np.trace(floquet_monodromy(lame_profile(N, m, E, 1.0), 1.0))

        for N in range(1, 6):
            edges = band_edges(m, N)
            assert len(edges) == 2 * N + 1
            assert all(np.diff(edges) > 0.0)
            for k, E in enumerate(edges):
                if abs(abs(trace(N, E)) - 2.0) <= 1e-8:
                    continue
                target = 2.0 * (-1.0) ** ((k + 1) // 2)
                step = 1e-9 * max(1.0, E)
                below, above = (trace(N, E + d) - target for d in (-step, step))
                assert below * above < 0.0, (N, k, E)


# The oracle sweep of kappa_ell_extended.  Where a band is narrower than
# band_edges resolves, the band check fails and the Magnus trace answers
# instead: the lowest bands are 1.7e-8 wide at (5, 0.95), 2.2e-11 at (8, 0.9)
# and 8e-14 at (8, 0.95), and they miss pi by 9.3e-9, 2.2e-5 and 9.5e-3.
ORACLE_SWEEP = [(N, m) for N in (2, 3, 4, 5, 8) for m in (0.0, 0.01, 0.3, 0.5, 0.9, 0.95)]
UNRESOLVED = {(5, 0.95), (8, 0.9), (8, 0.95)}


class TestKappaEllExtended:
    @pytest.mark.parametrize("m", [0.3, 0.5, 0.9])
    def test_N1_is_the_weierstrass_closed_form(self, m):
        # two routes that share no code: the abelian integral over band_edges,
        # and crystal_momentum's zeta function at wp_inverse
        energies = np.linspace(0.0, 20.0, 602)[1:]
        closed = [crystal_momentum(E, m).kappa_ell_extended.real for E in energies]
        assert_allclose(kappa_ell_extended(energies, m, 1), closed, rtol=0.0, atol=1e-12)
        far = np.array([1e3, 1e6, 1e8])
        closed = [crystal_momentum(E, m).kappa_ell_extended.real for E in far]
        assert_allclose(kappa_ell_extended(far, m, 1), closed, rtol=1e-14)

    @pytest.mark.parametrize("N, m", ORACLE_SWEEP)
    def test_matches_the_floquet_oracle(self, N, m):
        edges = band_edges(m, N)
        if (N, m) in UNRESOLVED:
            with pytest.raises(ResolutionError, match="integrates to pi"):
                kappa_ell_extended([1.0], m, N)
            return
        # 2 cos(kappa l) against the oracle's trace, three energies in each
        # band wider than 2e-6 and the rest of about 20 in the top band, all
        # at least 1e-6 from an edge.  The oracle accepts its Richardson-
        # extrapolated monodromy M at 1e-11 max(1, max|M|) of its own step-
        # doubling estimate, which is the scale here: max|M| reaches 3e5 in
        # the narrow bands, where its trace is up to 3.1e-8 off kappa l's, at
        # (4, 0.95, E = 10.72), and 1.1e-9 at (5, 0.9, E = 13.27629); the
        # worst over the scale is 1.9e-11.
        finite = [(j, lo, hi) for j, (lo, hi) in enumerate(zip(edges[:-1:2], edges[1::2]))
                  if hi - lo > 2e-6]
        energies = [float(np.clip(lo + f * (hi - lo), lo + 1e-6, hi - 1e-6))
                    for _, lo, hi in finite for f in (0.1, 0.5, 0.9)]
        energies += list(edges[-1] + np.geomspace(1e-3, 10.0, max(4, 20 - len(energies))))
        kappa = kappa_ell_extended(energies, m, N)
        for E, k in zip(energies, kappa):
            monodromy = floquet(lame_profile(N, m, E, 1.0), 1.0)[0]
            trace = float(np.trace(monodromy))
            scale = max(1.0, float(np.abs(monodromy).max()))
            assert abs(2.0 * math.cos(k) - trace) <= 1e-10 * scale, (E, k, trace, scale)
        # across band j, kappa l rises strictly from j pi to (j + 1) pi
        for j, lo, hi in finite:
            inside = kappa_ell_extended(np.linspace(lo, hi, 11)[1:-1], m, N)
            assert np.all(np.diff(inside) > 0.0), j
            assert j * math.pi < inside[0] and inside[-1] < (j + 1) * math.pi, j

    def test_gaps_and_the_spectrum_bottom_read_multiples_of_pi(self):
        lo1, hi1, lo2, hi2 = band_edges(0.5, 2)[1:]
        bottom = band_edges(0.5, 2)[0]
        kappa = kappa_ell_extended([0.0, 0.5 * bottom, 0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2)],
                                   0.5, 2)
        assert kappa.tolist() == [0.0, 0.0, math.pi, 2.0 * math.pi]

    def test_closed_gaps_at_m0_give_the_free_dispersion(self):
        # every gap is closed in floats: P has its roots there, and
        # kappa l = 2K sqrt(E) = pi sqrt(E) runs straight through
        energies = np.linspace(0.0, 30.0, 61)
        assert_allclose(kappa_ell_extended(energies, 0.0, 4), math.pi * np.sqrt(energies),
                        rtol=1e-14, atol=0.0)

    def test_shape_follows_the_energies(self):
        assert kappa_ell_extended(np.empty(0), 0.5, 2).shape == (0,)
        assert kappa_ell_extended(np.full((2, 3), 2.0), 0.5, 2).shape == (2, 3)

    def test_a_moved_edge_fails_the_band_check(self, monkeypatch):
        # one edge 1e-6 off: the bands no longer integrate to pi
        moved = list(band_edges(0.5, 2))
        moved[3] += 1e-6
        monkeypatch.setattr(bands, "band_edges", lambda m, N: tuple(moved))
        with pytest.raises(ResolutionError, match="integrates to pi"):
            kappa_ell_extended([1.0], 0.5, 2)

    @pytest.mark.parametrize("m, N", [(0.999999, 3), (1.0 - 1e-8, 2), (0.5, 17), (0.5, 2000)])
    def test_unresolved_inputs_are_left_to_the_magnus_trace(self, m, N):
        with pytest.raises(ResolutionError):
            kappa_ell_extended([1.0, 15.0], m, N)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_ell_extended([1.0], 0.5, 0)
        with pytest.raises(DomainError):
            kappa_ell_extended([1.0], 1.0, 2)
        with pytest.raises(DomainError):
            kappa_ell_extended([math.nan], 0.5, 2)

    @pytest.mark.parametrize("N, E", [(2, 1e100), (3, 1e60), (8, 1e20)])
    def test_energies_that_take_R_out_of_range_are_refused(self, N, E):
        # R's 2N + 1 factors would overflow where N_j's N do not, and the
        # integral would read 0 there
        assert_allclose(kappa_ell_extended([1e16], 0.5, N), 2.0 * lattice(0.5).K * 1e8, rtol=1e-13)
        with pytest.raises(ResolutionError, match="float range"):
            kappa_ell_extended([2.0, -E], 0.5, N)


class TestLameProfile:
    def test_N1_is_the_cnoidal_profile(self):
        m, E, c = 0.45, 0.8, 2.0
        a = lame_profile(1, m, E, c)
        b = cnoidal_profile(m, orbit_V(E, m), c)
        assert_allclose(a.samples, b.samples, rtol=1e-13, atol=1e-16)

    def test_higher_N_scales_the_well(self):
        # Same E: the sn^2 part scales by N(N+1)/2 relative to N = 1.
        m, E, c = 0.45, 0.8, 2.0
        base = lame_profile(1, m, E, c).samples
        three = lame_profile(3, m, E, c).samples
        amp = c * lattice(m).K ** 2 / (6.0 * math.pi**2)
        assert_allclose(three + amp * E, 6.0 * (base + amp * E), rtol=1e-12,
                        atol=1e-15)

    @pytest.mark.parametrize("N", [0, -2])
    def test_rejects_bad_index(self, N):
        with pytest.raises(DomainError):
            lame_profile(N, 0.5, 1.0, 1.0)


class TestExceptionalEnergyAsymptote:
    def test_matches_the_level_curve_image(self):
        n, m = 20, 0.3
        exact = orbit_V(0.0, m) - level_curve(-n * n / 24.0, m, "below_wedge")
        ap = exceptional_energy_asymptote(n, m)
        assert abs(ap.value / exact - 1.0) < 0.02

    def test_free_levels_at_m0(self):
        for n in (1, 7, 50):
            assert_allclose(exceptional_energy_asymptote(n, 0.0).value,
                            float(n * n), rtol=1e-14)

    def test_leading_coefficient(self):
        lat = lattice(0.5)
        n = 200
        ratio = exceptional_energy_asymptote(n, 0.5).value / n**2
        assert_allclose(ratio, math.pi**2 / (4.0 * lat.K**2), rtol=1e-3)

    def test_redimensionalization(self):
        m = 0.3
        lat = lattice(m)
        plain = exceptional_energy_asymptote(9, m)
        dim = exceptional_energy_asymptote(9, m, hbar=2.0, mass=3.0, spacing=5.0)
        assert_allclose(dim.value,
                        plain.value * 2.0 * 4.0 * lat.K**2 / (3.0 * 25.0),
                        rtol=1e-15)
        assert dim.validity == plain.validity

    def test_partial_dimensions_rejected(self):
        with pytest.raises(DomainError):
            exceptional_energy_asymptote(9, 0.3, hbar=1.0)
        with pytest.raises(DomainError):
            exceptional_energy_asymptote(9, 0.3, mass=1.0, spacing=2.0)

    def test_validity_and_domain(self):
        lat = lattice(0.3)
        ap = exceptional_energy_asymptote(12, 0.3)
        assert_allclose(ap.validity, 2.0 * lat.K / (12.0 * math.pi), rtol=1e-15)
        with pytest.raises(DomainError):
            exceptional_energy_asymptote(0, 0.3)


class TestFloquetTraces:
    M = 0.55

    def scan(self, energies, N=3):
        return floquet_traces(np.asarray(energies, float), self.M, N)

    def test_matches_the_scheme_in_extended_precision(self):
        # below the spectrum, deep in the first gap, inside the second
        # band, and 1e-6 either side of the lowest gap's upper edge
        edges = band_edges(self.M, 3)
        energies = [0.0, 0.5 * (edges[1] + edges[2]), 0.5 * (edges[2] + edges[3]),
                    edges[2] - 1e-6, edges[2] + 1e-6]
        scanned = self.scan(energies)
        strength, K = 12.0 * self.M, lattice(self.M).K
        nodes = _magnus_nodes(strength, K, self.M, min(energies), max(energies))
        entries = _half_period_entries(np.array(energies), nodes)
        steps = nodes[0].size
        for E, trace, entry in zip(energies, scanned, entries.T):
            exact = oracles.mp_magnus_trace(E, strength, K, self.M, steps)
            assert abs(trace - exact) <= 1e-12 * max(1.0, abs(exact)), E
            exact = [float(x) for x in oracles.mp_magnus_entries(E, strength, K, self.M, steps)]
            scale = max(1.0, max(abs(x) for x in exact))
            assert_allclose(entry, exact, rtol=0.0, atol=1e-12 * scale, err_msg=str(E))

    def test_values_do_not_depend_on_the_batch(self):
        assert self.scan([]).shape == (0,)
        # one more energy than a chunk, across bands and gaps; every energy
        # here takes the same series degree, so the values agree to the bit
        energies = np.linspace(0.0, 17.0, _CHUNK + 1)
        batch = self.scan(energies)
        single = np.array([self.scan([E])[0] for E in energies])
        np.testing.assert_array_equal(batch, single)

    @pytest.mark.parametrize("E", [1e7, -1e7, math.inf, math.nan])
    def test_unresolved_energy_is_refused(self, E):
        with pytest.raises(DomainError, match="resolves energies in"):
            self.scan([1.0, E], N=2)


class TestNumericBandGaps:
    def test_N1_reproduces_the_closed_form(self):
        (gap,) = numeric_band_gaps(1, 0.6)
        assert_allclose([gap.lo, gap.hi], [1.0, 1.6], atol=1e-4)

    def test_N2_matches_textbook_edges(self):
        gaps = numeric_band_gaps(2, 0.5)
        assert len(gaps) == 2
        assert_allclose([gaps[0].lo, gaps[0].hi], [1.5, 3.0], atol=1e-6)
        assert_allclose([gaps[1].lo, gaps[1].hi],
                        [4.5, 3.0 + math.sqrt(3.0)], atol=1e-6)

    def test_band_narrower_than_the_step(self):
        # the lowest band [2.923775, 2.923821] is narrower than the 0.02 step
        m = 0.95
        edges = band_edges(m, 3)
        assert edges[1] - edges[0] < 1e-4
        gaps = numeric_band_gaps(3, m)
        assert len(gaps) == 3
        assert_allclose([e for gap in gaps for e in gap], edges[1:], rtol=0.0, atol=1e-9)

    def test_narrow_gap_resolved(self):
        (gap,) = numeric_band_gaps(1, 0.02)
        assert gap.hi - gap.lo == pytest.approx(0.02, abs=1e-3)
        assert gap.lo == pytest.approx(1.0, abs=1e-3)

    def test_edges_certified_by_adaptive_oracle(self):
        for gap in numeric_band_gaps(2, 0.5):
            for E in gap:
                trace = np.trace(
                    floquet_monodromy(lame_profile(2, 0.5, E, 1.0), 1.0))
                assert abs(abs(trace) - 2.0) < 1e-6

    @pytest.mark.parametrize("E", [0.8, 2.2, 3.7, 5.1])
    def test_scanner_agrees_with_adaptive_integration(self, E):
        batched = floquet_traces(np.array([E]), 0.5, 2)[0]
        adaptive = np.trace(floquet_monodromy(lame_profile(2, 0.5, E, 1.0), 1.0))
        assert abs(batched - adaptive) < 1e-8

    @pytest.mark.parametrize("N, m", [(N, m) for N in range(1, 7)
                                      for m in (0.05, 0.3, 0.6, 0.95)]
                             + [(8, 0.3), (3, 0.99999), (3, 1.0 - 1e-8)])
    def test_every_edge_matches_the_ince_blocks(self, N, m):
        # down to gaps 2.8e-10 wide, at (6, 0.05), and bands 4.6e-5 wide; at
        # K = 7.1 and 10.6 the m -> 1 cases take 960 and 1408 steps
        gaps = numeric_band_gaps(N, m)
        assert len(gaps) == N
        assert_allclose([e for gap in gaps for e in gap], band_edges(m, N)[1:],
                        rtol=0.0, atol=1e-12)

    # float.hex edges of the sixth-order scheme, each within 1.4e-14 of band_edges
    @pytest.mark.parametrize("N, m, edges", [
        (2, 0.5, ["0x1.8000000000000p+0", "0x1.7ffffffffffffp+1",
                  "0x1.2000000000000p+2", "0x1.2ed9eba16132cp+2"]),
        (3, 0.95, ["0x1.763fc3a3f734ep+1", "0x1.f2960c4c925e8p+2",
                   "0x1.f33333333332dp+2", "0x1.527070071374fp+3",
                   "0x1.5c09a8b09bccap+3", "0x1.76b4f9d9b6d09p+3"]),
        (6, 0.05, ["0x1.79198ff6c8eaep+0", "0x1.42749bf40b2f2p+1",
                   "0x1.3be0c19d0b968p+2", "0x1.443bd8bfff0b7p+2",
                   "0x1.3b0d0a8a3d718p+3", "0x1.3b2caec3877e8p+3",
                   "0x1.0a98beae3581ep+4", "0x1.0a98ea1f85713p+4",
                   "0x1.96e7e1bb74b89p+4", "0x1.96e7e1ec87a79p+4",
                   "0x1.2137887543cc4p+5", "0x1.213788754d77cp+5"]),
    ])
    def test_edges_are_pinned_to_a_few_ulp(self, N, m, edges):
        found = np.array([e for gap in numeric_band_gaps(N, m) for e in gap])
        pinned = np.array([float.fromhex(e) for e in edges])
        assert np.all(np.abs(found - pinned) <= 8.0 * np.spacing(np.maximum(pinned, 1.0)))

    # calls and energies of the sign-only multisection: (2, 0.5) took 14
    # calls and 1763 energies, (3, 0.6) 13 calls and 2338 energies
    @pytest.mark.parametrize("N, m, energies", [(2, 0.5, 1763), (3, 0.6, 2338)])
    def test_refinement_takes_few_kernel_calls(self, monkeypatch, N, m, energies):
        work = []

        def counted(E, *args):
            work.append(np.size(E))
            return _half_period_entries(E, *args)

        monkeypatch.setattr(bands, "_half_period_entries", counted)
        assert len(numeric_band_gaps(N, m)) == N
        assert len(work) <= 9
        assert sum(work) < energies / 2

    def test_never_consults_the_ince_blocks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("band_edges called")

        monkeypatch.setattr(bands, "band_edges", refuse)
        assert len(numeric_band_gaps(3, 0.6)) == 3

    def test_gap_below_the_resolution_is_refused(self):
        # band_edges gives the sixth gap a width of 1.4e-14 here: the scan
        # must refuse it rather than return five gaps
        edges = band_edges(0.01, 6)
        assert edges[12] - edges[11] < 1e-13
        with pytest.raises(ResolutionError, match="found 5 of 6"):
            numeric_band_gaps(6, 0.01)

    def test_missed_zeros_are_refused(self, monkeypatch):
        # on the grid 0, 5, 10 both zeros of y1'(K) below 5, at 1.27 and
        # 4.73, fall in one step, and no rescan may halve it
        monkeypatch.setattr(bands, "_SCAN_STEP", 5.0)
        monkeypatch.setattr(bands, "_RESCANS", 0)
        with pytest.raises(ResolutionError, match=r"zeros of y1'\(K\) and y1\(K\)"):
            numeric_band_gaps(2, 0.5)
        monkeypatch.setattr(bands, "_RESCANS", 1)
        assert len(numeric_band_gaps(2, 0.5)) == 2

    def test_truncated_scan_misses_a_gap(self):
        with pytest.raises(ResolutionError):
            numeric_band_gaps(2, 0.5, E_max=4.0)

    def test_scan_ending_inside_a_gap_is_an_error(self):
        with pytest.raises(DomainError):
            numeric_band_gaps(2, 0.5, E_max=4.6)

    def test_domain(self):
        with pytest.raises(DomainError):
            numeric_band_gaps(2, 0.0)
        with pytest.raises(DomainError, match="m = 0"):
            numeric_band_gaps(2, 1e-300)
        with pytest.raises(DomainError):
            numeric_band_gaps(0, 0.5)
        with pytest.raises(DomainError):
            numeric_band_gaps(1, 0.5, E_max=float("nan"))
        with pytest.raises(DomainError, match="positive"):
            numeric_band_gaps(1, 0.5, E_max=0.0)

    @pytest.mark.parametrize("E_max", [math.inf, 1e300])
    def test_unresolved_E_max_refused_before_the_grid(self, E_max):
        # checked against the range the scan resolves before the scan grid
        # is allocated
        with pytest.raises(DomainError, match="resolves energies"):
            numeric_band_gaps(2, 0.5, E_max=E_max)

    def test_scan_past_the_ceiling_is_refused_at_once(self):
        # E_max = 1e5 asks for 5,000,001 energies, minutes of scanning
        start = time.perf_counter()
        with pytest.raises(DomainError, match="5000001 energies, past the ceiling of 32768"):
            numeric_band_gaps(1, 0.5, 1e5)
        assert time.perf_counter() - start < 0.1

    def test_strength_past_every_resolved_energy_is_named(self):
        # at N(N+1)m past about 2 (2560 / K)^2 the lower end of the resolved
        # range passes the upper one; no E_max can help, so the error says
        # that instead of printing a backwards range
        with pytest.raises(DomainError) as info:
            numeric_band_gaps(3000, 0.5)
        assert "resolves no energy at strength N(N+1)m = 4501500.0" in str(info.value)
        assert "only" not in str(info.value)

    def test_result_types(self):
        gaps = numeric_band_gaps(1, 0.6)
        assert isinstance(gaps[0], GapInterval)
        assert isinstance(crystal_momentum(0.8, 0.6), BandPoint)
