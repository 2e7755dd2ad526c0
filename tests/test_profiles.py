import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kdvorbits.errors import DomainError
from kdvorbits.profiles import Profile, grid, spectral_derivative


def bumpy(x):
    return 0.3 + np.cos(x) - 0.25 * np.sin(3 * x) + 0.04 * np.cos(7 * x)


def bumpy_prime(x):
    return -np.sin(x) - 0.75 * np.cos(3 * x) - 0.28 * np.sin(7 * x)


class TestSpectralDerivative:
    def test_trig_polynomial_is_exact(self):
        x = grid(64)
        assert_allclose(spectral_derivative(bumpy(x)), bumpy_prime(x),
                        rtol=0, atol=1e-12)

    def test_third_derivative(self):
        x = grid(128)
        d3 = spectral_derivative(np.sin(2 * x), order=3)
        assert_allclose(d3, -8 * np.cos(2 * x), rtol=0, atol=1e-10)

    def test_constant_has_zero_derivative(self):
        assert_allclose(spectral_derivative(np.full(32, 1.7)), np.zeros(32),
                        atol=1e-14)

    def test_nyquist_mode_zeroed_for_odd_orders(self):
        # cos(n/2 x) sampled on n points: its true derivative is invisible
        # to the grid, so the spectral derivative must vanish, not alias
        x = grid(16)
        d = spectral_derivative(np.cos(8 * x))
        assert_allclose(d, np.zeros(16), atol=1e-12)

    @pytest.mark.parametrize("order", [-1, -3, math.nan])
    def test_a_negative_order_is_refused(self, order):
        # (1j k)^order divided by zero at k = 0
        with pytest.raises(DomainError, match="order must be >= 0"):
            spectral_derivative(np.sin(grid(16)), order=order)

    # finite samples whose transform overflows (rfft sums them), and a
    # derivative whose (1j k)^3 factor carries the coefficients past the limit
    @pytest.mark.parametrize("samples, order", [([1.7e308, -1.7e308] * 4, 1), ([1e308] * 8, 0),
                                                ([1e305, 0.0, -1e305, 0.0] * 128, 3)])
    def test_samples_or_a_derivative_out_of_float_range_are_refused(self, samples, order):
        with pytest.raises(DomainError, match="float range"):
            spectral_derivative(np.array(samples), order)


class TestProfile:
    def test_interpolant_reproduces_samples(self):
        x = grid(48)
        p = Profile.from_samples(bumpy(x))
        assert_allclose(p(x), bumpy(x), rtol=0, atol=1e-13)

    def test_interpolant_between_samples(self):
        p = Profile.from_samples(bumpy(grid(64)))
        xs = np.linspace(0.1, 6.2, 23)
        assert_allclose(p(xs), bumpy(xs), rtol=0, atol=1e-12)

    def test_scalar_evaluation_returns_float(self):
        p = Profile.from_samples(bumpy(grid(32)))
        out = p(1.234)
        assert isinstance(out, float)
        assert out == pytest.approx(bumpy(1.234), abs=1e-12)

    def test_from_callable_keeps_the_callable(self):
        p = Profile.from_callable(bumpy, n=32)
        assert p(0.5) == pytest.approx(bumpy(0.5))
        assert_allclose(p.samples, bumpy(grid(32)))

    def test_from_callable_scalar_only_function(self):
        p = Profile.from_callable(lambda x: math.cos(x), n=16)
        assert_allclose(p.samples, np.cos(grid(16)), atol=1e-15)

    def test_mean(self):
        p = Profile.from_samples(bumpy(grid(64)))
        assert p.mean() == pytest.approx(0.3, abs=1e-13)

    def test_derivative_profile(self):
        p = Profile.from_samples(bumpy(grid(64)))
        dp = p.derivative()
        xs = np.linspace(0.0, 2 * np.pi, 11)
        assert_allclose(dp(xs), bumpy_prime(xs), atol=1e-11)

    def test_resampled(self):
        p = Profile.from_callable(bumpy, n=32)
        q = p.resampled(128)
        assert q.n == 128
        assert_allclose(q.samples, bumpy(grid(128)))
        assert p.resampled(32) is p

    @pytest.mark.parametrize("samples", [[1.7e308, -1.7e308] * 4, [math.nan] * 8,
                                         [1.0, math.inf] * 4])
    def test_samples_out_of_float_range_are_refused(self, samples):
        # the transform of [1.7e308, -1.7e308] * 4 overflowed: the profile, its
        # mean and its coadjoint moves came out inf and nan
        with pytest.raises(DomainError, match="samples are not finite"):
            Profile.from_samples(np.array(samples))
        with pytest.raises(DomainError, match="not finite"):
            Profile.from_callable(lambda x: np.array(samples), n=8)

    def test_an_argument_whose_phase_overflows_is_refused(self):
        # x k past the float range gave cos(inf)
        p = Profile.from_samples(np.cos(grid(16)))
        with pytest.raises(DomainError, match="float range"):
            p(1e308)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            Profile.from_samples([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            Profile.from_callable(bumpy, n=4)


class TestTrigResampling:
    # a sample-built profile resamples by a zero-padded inverse rFFT, which
    # must agree with pointwise evaluation of the same interpolant
    @pytest.mark.parametrize("n", [31, 32, 33, 257, 512])
    @pytest.mark.parametrize("target", [8, 48, 101, 4096])
    def test_matches_the_interpolant(self, n, target):
        samples = 1.0 + 3.0 * np.random.default_rng(n).standard_normal(n)
        p = Profile.from_samples(samples)
        q = p.resampled(target)
        assert q.n == target and q.evaluator is p.evaluator
        assert_allclose(q.samples, p(grid(target)), rtol=0,
                        atol=1e-13 * np.max(np.abs(samples)))

    @pytest.mark.parametrize("n", [8, 64, 512])
    @pytest.mark.parametrize("factor", [3, 4, 8.5])
    def test_nyquist_cosine(self, n, factor):
        # cos(n x / 2) sampled on grid(n) is (-1)^j; its interpolant is the
        # cosine itself, with the Nyquist term at half weight.  The angle is
        # reduced in integers, since the evaluator's own k x rounds (2.5e-13
        # at n = 512)
        p = Profile.from_samples(np.cos(0.5 * n * grid(n)))
        target = int(factor * n)
        j = np.arange(target)
        exact = np.cos(math.pi * (j * n % (2 * target)) / target)
        assert_allclose(p.resampled(target).samples, exact, rtol=0, atol=1e-14)
        assert_allclose(p(grid(target)), exact, rtol=0, atol=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            Profile.from_samples(bumpy(grid(32))).resampled(4)
