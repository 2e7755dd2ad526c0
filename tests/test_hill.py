"""Floquet oracle tests: monodromy, winding, Lame residuals, KdV stepping.

The point of this module is cross-validation, so most tests compare the
direct RK4/spectral machinery in kdvorbits.hill against the closed-form
elliptic layer it is supposed to be independent of.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kdvorbits import hill
from kdvorbits.errors import DomainError, NumericalError, StabilityError
from kdvorbits.hill import (
    floquet,
    floquet_monodromy,
    kdv_evolve,
    lame_exact_residual,
    winding_number,
)
from kdvorbits.orbits import (
    classify,
    cnoidal_profile,
    cnoidal_speed,
    constant_trace,
    monodromy_trace,
    winding_from_kc,
)
from kdvorbits.profiles import PERIOD, Profile
from kdvorbits.virasoro import CircleDiffeo, coadjoint
from kdvorbits.weierstrass import lattice

C = 2.0

# (m, V, c, amplitudes, phases) of coadjoint moves by Fourier circle maps,
# picked where an adaptive DOP853 at rtol 1e-10 is off the closed-form
# trace by more than 1e-10 relative
MOVES = [
    (0.5, -1.1, -1.2, (0.1, 0.08, 0.05), (1.7, 0.1, 2.1)),
    (0.6, 0.4, -2.8, (0.07, 0.07, 0.06), (0.3, 0.7, 1.2)),
    (0.5, 0.4, -2.0, (0.065, 0.055, 0.045), (4.5, 4.2, 3.1)),
    (0.23, 0.3, -1.8, (0.04, 0.1, 0.04), (4.0, 2.9, 4.6)),
]

# (m, V, c) of a deep well that the oracle accepts only at 4096 steps
DEEP = (0.9, -20.0, 1.0)


def moved_profile(m, V, c, amplitudes, phases):
    return coadjoint(cnoidal_profile(m, V, c),
                     CircleDiffeo.fourier(amplitudes, phases), c)


def constant_profile(kc, c=C, n=32):
    value = kc * c
    return Profile.from_callable(
        lambda x: np.full_like(np.asarray(x, float), value), n=n)


def physical_line(m, count=20):
    lat = lattice(m)
    return [lat.K * x / math.pi + 1j * lat.Kc
            for x in np.linspace(0.4, 2.0 * math.pi - 0.4, count)]


class TestFloquetMonodromy:
    def test_zero_profile_is_a_shear(self):
        mat = floquet_monodromy(constant_profile(0.0), C)
        assert_allclose(mat, [[1.0, 2.0 * math.pi], [0.0, 1.0]],
                        rtol=0, atol=1e-10)
        assert_allclose(np.trace(mat), 2.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kc", [-0.7, -1.0 / 6.0, -0.02, 0.01, 0.4, 0.8])
    def test_constant_trace(self, kc):
        mat = floquet_monodromy(constant_profile(kc), C)
        assert_allclose(np.trace(mat), constant_trace(kc), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("m,V", [(0.3, -0.9), (0.5, -0.2), (0.8, 0.35),
                                     (0.95, 1.1), (0.1, -0.36)])
    def test_unimodular(self, m, V):
        mat = floquet_monodromy(cnoidal_profile(m, V, C), C)
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        assert_allclose(det, 1.0, rtol=0, atol=1e-8)

    def test_wedge_trace_matches_closed_form(self):
        prof = cnoidal_profile(0.5, -0.2, 1.0)
        tr = float(np.trace(floquet_monodromy(prof, 1.0)))
        assert tr < -2.0
        assert_allclose(tr, monodromy_trace(0.5, -0.2), rtol=1e-6)

    def test_trace_independent_of_central_charge(self):
        # p scales with c, so q = 6p/c and hence the trace do not.
        tr1 = np.trace(floquet_monodromy(cnoidal_profile(0.6, 0.8, 1.0), 1.0))
        tr2 = np.trace(floquet_monodromy(cnoidal_profile(0.6, 0.8, -7.0), -7.0))
        assert_allclose(tr1, tr2, rtol=1e-8)

    @pytest.mark.parametrize("m,V,c,amplitudes,phases", MOVES)
    def test_moved_trace_matches_closed_form(self, m, V, c, amplitudes, phases):
        exact = monodromy_trace(m, V)
        tr = float(np.trace(floquet_monodromy(
            moved_profile(m, V, c, amplitudes, phases), c)))
        assert abs(tr - exact) <= 1e-10 * abs(exact)

    def test_step_doubling_sweeps_each_step_count_once(self, monkeypatch):
        # the first pass sweeps 256 and 512 steps for R(2h) and 1024 for R(h);
        # each rejected fine sweep is the next coarse one, so a profile that
        # needs doubling is then swept at 2048, 4096, ... steps, once each
        sweep, counts = hill._sweep, []

        def counted(q, h):
            levels = sweep(q, h)
            counts.append(levels[0].shape[0])
            return levels

        monkeypatch.setattr(hill, "_sweep", counted)
        floquet(cnoidal_profile(*DEEP), DEEP[2])
        assert counts == [256, 512, 1024, 2048, 4096]

    def test_a_planted_defect_is_doubled_past(self, monkeypatch):
        # a sweep's monodromy planted 1e-9 max(1, max|M|) off spoils the
        # extrapolation at its step count and, as the coarse sweep, one
        # doubling later: both fail the estimate, and the extrapolation is
        # accepted two doublings on.  An estimate that compared it with
        # itself, or none, would accept the defect at once.
        prof, c = cnoidal_profile(0.5, -0.2, 1.0), 1.0
        clean, levels = hill._monodromy(prof, c)
        assert levels[0].shape[0] == 1024
        sweep, counts = hill._sweep, []

        def planted(q, h):
            levels = sweep(q, h)
            counts.append(levels[0].shape[0])
            if counts[-1] == planted.at:
                top = levels[-1][0]
                top[0, 0] += 1e-9 * max(1.0, float(np.max(np.abs(top))))
            return levels

        monkeypatch.setattr(hill, "_sweep", planted)
        planted.at = 1024
        mat, levels = hill._monodromy(prof, c)
        assert counts == [256, 512, 1024, 2048, 4096]
        assert levels[0].shape[0] == 4096
        assert np.max(np.abs(mat - clean)) <= 1e-11
        counts.clear()
        planted.at = hill._LAST_STEPS
        monkeypatch.setattr(hill, "_FIRST_STEPS", hill._LAST_STEPS)
        with pytest.raises(NumericalError, match="did not converge in 65536 RK4 steps"):
            hill._monodromy(prof, c)
        assert counts == [16384, 32768, 65536]

    @pytest.mark.parametrize("m, V", [(0.0, 1e6), (0.95, -1e6)])
    def test_overflowed_sweep_raises_at_once(self, monkeypatch, m, V):
        # the monodromy overflows (m = 0) or the coarse sweep of the
        # estimate does (m = 0.95): no doubling up to 65536 steps follows
        sweep, counts = hill._sweep, []

        def counted(q, h):
            levels = sweep(q, h)
            counts.append(levels[0].shape[0])
            return levels

        monkeypatch.setattr(hill, "_sweep", counted)
        with pytest.raises(NumericalError, match="did not converge in 1024 RK4 steps"):
            floquet(cnoidal_profile(m, V, 1.0), 1.0)
        assert counts == [256, 512, 1024]

    def test_zero_central_charge_rejected(self):
        with pytest.raises(DomainError):
            floquet_monodromy(constant_profile(0.1), 0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_nonfinite_central_charge_rejected(self, c):
        with pytest.raises(DomainError, match="finite"):
            floquet(constant_profile(0.1), c)

    def test_nonfinite_potential_rejected(self, monkeypatch):
        def spiked(x):
            x = np.asarray(x, float)
            return np.where(np.abs(x - 1.0) < 0.1, math.inf, 0.0)

        monkeypatch.setattr(hill, "_sweep", None)  # refused before any sweep
        with pytest.raises(DomainError, match="not finite"):
            floquet(Profile.from_callable(spiked, n=64), C)


class TestWindingNumber:
    @pytest.mark.parametrize("kc,expected", [
        (-1.0 / 6.0, 2),
        (1.0, 0),
        (0.0, 0),
        (-1.0 / 24.0, 1),
        (-0.9 / 24.0, 0),
        (-3.9 / 24.0, 1),
        (-4.1 / 24.0, 2),
        (-9.0 / 24.0, 3),   # closed gap: n_eff is exactly 3
        (-16.0 / 24.0, 4),
    ])
    def test_constants(self, kc, expected):
        assert winding_number(constant_profile(kc), C) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-1.5, max_value=0.5))
    def test_constants_match_closed_form(self, kc):
        n_eff = math.sqrt(max(-24.0 * kc, 0.0))
        if abs(n_eff - round(n_eff)) < 1e-3:
            return  # razor's edge between windings; exactness tested above
        assert winding_number(constant_profile(kc), C) == winding_from_kc(kc)

    @pytest.mark.parametrize("m,V", [(0.5, -0.2), (0.9, -0.3), (0.3, -0.35)])
    def test_wedge_interior_is_one(self, m, V):
        assert winding_number(cnoidal_profile(m, V, C), C) == 1

    def test_wedge_count_is_phase_independent(self):
        # floor of the raw lap count would flip 0 <-> 1 with the shift;
        # the parity correction must not.
        base = cnoidal_profile(0.5, -0.2, C)
        for shift in (0.0, 1.0, math.pi / 2, math.pi, 2.5):
            prof = Profile.from_callable(
                lambda x, s=shift: base(np.asarray(x, float) + s), n=512)
            assert winding_number(prof, C) == 1

    @pytest.mark.parametrize("m,V", [
        (0.2, -1.1), (0.7, -0.9), (0.5, -0.5), (0.5, 0.0), (0.4, 0.2),
        (0.6, 0.4667), (0.3, 1.0), (0.9, -2.5),
    ])
    def test_matches_classifier(self, m, V):
        prof = cnoidal_profile(m, V, C)
        assert winding_number(prof, C) == classify(m, V).winding

    def test_zero_central_charge_rejected(self):
        with pytest.raises(DomainError):
            winding_number(constant_profile(-0.1), 0.0)


@pytest.mark.parametrize("oracle", [floquet_monodromy, winding_number])
def test_drifted_wronskian_is_refused(oracle, monkeypatch):
    # psi1(2 pi) off by 1e-6 moves det M by about 6e-7, far past 1e-8; the
    # drift is planted in every sweep, so the step-doubling estimate, which
    # differences two sweeps, does not see it and only det M can
    sweep = hill._sweep

    def drifted(q, h):
        levels = sweep(q, h)
        levels[-1][0, 0, 0] += 1e-6  # the monodromy level
        return levels

    monkeypatch.setattr(hill, "_sweep", drifted)
    with pytest.raises(NumericalError, match="determinant"):
        oracle(constant_profile(-0.02), C)


class TestRunningProduct:
    def test_formed_only_for_a_winding_and_once(self, monkeypatch):
        # DEEP needs doubling, so rejected sweeps precede the accepted one
        running, passes = hill._running, []

        def counted(levels):
            passes.append(levels[0].shape[0])
            return running(levels)

        monkeypatch.setattr(hill, "_running", counted)
        prof, c = cnoidal_profile(*DEEP), DEEP[2]
        floquet_monodromy(prof, c)
        assert passes == []
        winding_number(prof, c)
        assert passes == [4096]

    @pytest.mark.parametrize("m, V, c", [(0.5, -0.2, 1.0), (0.3, 1.5, 0.5)])
    def test_down_pass_matches_the_sequential_product(self, m, V, c):
        n = 1024
        prof = cnoidal_profile(m, V, c)
        q = (6.0 / c) * prof.resampled(2 * n).samples
        levels = hill._sweep(np.append(q, q[0]), PERIOD / n)
        expected, acc = np.empty_like(levels[0]), np.eye(2)
        for j, step in enumerate(levels[0]):
            acc = step @ acc
            expected[j] = acc
        monodromy = levels[-1][0].copy()
        run = hill._running(levels)
        scale = np.maximum(1.0, np.max(np.abs(expected), axis=(1, 2)))
        error = np.max(np.abs(run - expected), axis=(1, 2)) / scale
        assert np.max(error) <= 2.0 * n * np.finfo(float).eps
        assert np.array_equal(run[-1], monodromy)


class TestLameExactResidual:
    def test_reference_point(self):
        assert lame_exact_residual(0.5, 1.0, physical_line(0.5)) < 1e-6

    @pytest.mark.parametrize("m,V", [(0.5, -0.2), (0.3, -0.8), (0.85, 0.1)])
    def test_small_across_regions(self, m, V):
        assert lame_exact_residual(m, V, physical_line(m)) < 1e-6

    def test_generic_complex_points(self):
        lat = lattice(0.6)
        zs = [0.3 + 0.2j, 0.7 * lat.K + 0.9j, 1.1 + 0.5j * lat.Kc]
        assert lame_exact_residual(0.6, 0.4, zs) < 1e-6

    def test_pole_proximity_rejected(self):
        lat = lattice(0.5)
        with pytest.raises(DomainError):
            lame_exact_residual(0.5, 1.0, [2.0 * lat.K + 1e-9])

    def test_solution_zero_proximity_rejected(self):
        lat = lattice(0.5)
        from kdvorbits.weierstrass import wp_inverse
        a = wp_inverse(1.0, lat)
        with pytest.raises(DomainError):
            lame_exact_residual(0.5, 1.0, [a + 2.0 * lat.K + 1e-8j])

    def test_degenerate_modulus_rejected(self):
        with pytest.raises(DomainError):
            lame_exact_residual(0.0, 1.0, [1.0 + 1.0j])

    def test_empty_points_rejected(self):
        with pytest.raises(DomainError):
            lame_exact_residual(0.5, 1.0, [])


class TestKdvEvolve:
    def test_constant_is_a_fixed_point(self):
        prof = constant_profile(0.25, n=64)
        out = kdv_evolve(prof, C, 0.05)
        assert np.max(np.abs(out.samples - prof.samples)) < 1e-12

    def test_mean_is_conserved(self):
        prof = Profile.from_callable(
            lambda x: 0.3 + np.sin(x) + 0.2 * np.cos(3 * x - 1.0), n=256)
        out = kdv_evolve(prof, -4.0, 2e-3)
        assert_allclose(out.mean(), prof.mean(), rtol=0, atol=1e-12)

    def test_cnoidal_wave_translates_rigidly(self):
        m, V, c, tau = 0.5, 0.4, -32.0 * math.pi**3, 1e-4
        evolved = kdv_evolve(cnoidal_profile(m, V, c), c, tau)
        expected = cnoidal_profile(m, V, c, tau=tau)
        x = np.linspace(0.0, 2.0 * math.pi, 701)
        assert np.max(np.abs(evolved(x) - expected(x))) < 1e-6

    def test_speed_sign_convention(self):
        # positive c puts the crest at x = pi; positive speed moves it to +x
        m, V, c = 0.6, 0.5, 32.0 * math.pi**3
        v = cnoidal_speed(m, V, c)
        assert v > 0
        tau = 1e-4
        evolved = kdv_evolve(cnoidal_profile(m, V, c), c, tau)
        x = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        crest = x[np.argmax(evolved(x))]
        assert_allclose(crest, math.pi + v * tau, rtol=0, atol=5e-3)

    def test_trace_is_conserved_along_the_flow(self):
        m, V, c, tau = 0.5, 0.4, -32.0 * math.pi**3, 1e-4
        p0 = cnoidal_profile(m, V, c)
        p1 = kdv_evolve(p0, c, tau)
        tr0 = float(np.trace(floquet_monodromy(p0, c)))
        tr1 = float(np.trace(floquet_monodromy(p1, c)))
        assert abs(tr1 - tr0) < 1e-5

    def test_zero_time_is_identity(self):
        prof = cnoidal_profile(0.5, 0.4, 1.0)
        assert kdv_evolve(prof, 1.0, 0.0) is prof

    def test_understepping_rejected(self):
        prof = cnoidal_profile(0.5, 0.4, -32.0 * math.pi**3)
        with pytest.raises(StabilityError):
            kdv_evolve(prof, -32.0 * math.pi**3, 1e-3, steps=2)

    def test_zero_central_charge_rejected(self):
        with pytest.raises(DomainError):
            kdv_evolve(constant_profile(0.1), 0.0, 1e-3)

    @pytest.mark.parametrize("tau", [1e308, -1e308, math.inf, math.nan])
    def test_a_tau_no_step_count_covers_is_refused(self, tau):
        # int() of the step count raised OverflowError (inf) or ValueError (nan)
        with pytest.raises(DomainError, match="tau"):
            kdv_evolve(constant_profile(0.1), C, tau)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_nonfinite_central_charge_rejected(self, c):
        with pytest.raises(DomainError, match="finite"):
            kdv_evolve(constant_profile(0.1), c, 1e-3)

    def test_only_the_default_step_count_is_capped(self, monkeypatch):
        # the oracle's tau = 1e-4 at c = 1e8 needs 127,380 steps at 512 samples
        prof = cnoidal_profile(0.5, 0.2, 1e8)
        with pytest.raises(DomainError, match=r"tau = 0\.0001 takes 127380 KdV steps"):
            kdv_evolve(prof, 1e8, 1e-4)
        monkeypatch.setattr(hill, "_DEFAULT_STEPS_CEILING", 1)
        with pytest.raises(DomainError, match="takes 2 KdV steps"):
            kdv_evolve(cnoidal_profile(0.5, 0.2, 1.0), 1.0, 1e-4)
        kdv_evolve(cnoidal_profile(0.5, 0.2, 1.0), 1.0, 1e-4, steps=3)
