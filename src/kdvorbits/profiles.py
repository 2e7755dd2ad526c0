"""2pi-periodic Hill potentials as sampled profiles.

A :class:`Profile` couples a callable evaluator with uniform samples on
[0, 2pi).  Profiles built from samples evaluate by trigonometric
interpolation, so spectral operations (used by the KdV stepper and the
coadjoint action), pointwise evaluation and resampling onto a finer
grid (used by the Floquet sweep) see the same function to machine
precision.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, shown

__all__ = ["Profile", "spectral_derivative"]

PERIOD = 2.0 * np.pi
_MIN_SAMPLES = 8
_DEFAULT_SAMPLES = 512
# Half numpy's largest float64 array, so that numpy can size every array a count
# up to it needs (np.arange's grid, a complex half-spectrum): past memory, the
# allocation raises MemoryError
_MAX_SAMPLES = np.iinfo(np.intp).max // 16


def _sampled(n: int, make: Callable) -> np.ndarray:
    """make(n), or DomainError if numpy cannot allocate |n| samples."""
    try:
        if abs(n) <= _MAX_SAMPLES:
            return make(n)
    except MemoryError:
        pass
    raise DomainError(f"{shown(n)} samples are more than numpy can allocate")


def grid(n: int) -> np.ndarray:
    """The uniform sample grid x_j = 2 pi j / n, j = 0..n-1."""
    return _sampled(n, lambda n: PERIOD * np.arange(n) / n)


def finite(values, message: str):
    """values, or DomainError(message) if any is not finite (a value out of range)."""
    if not np.isfinite(values).all():
        raise DomainError(message)
    return values


def pointwise(fn: Callable, x):
    """fn at x, a scalar or an array, for a callable that may take scalars only;
    a value that is not finite, out of the float range, raises DomainError."""
    xa = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):  # refused below
        try:
            out = np.asarray(fn(xa if xa.ndim else float(xa)), dtype=float)
        except (TypeError, ValueError):
            out = None
        if out is None or out.shape != xa.shape:
            out = np.array([float(fn(xi)) for xi in xa.ravel()]).reshape(xa.shape)
    finite(out, "a value is not finite, out of the float range")
    return float(out) if xa.ndim == 0 else out


def _spectrum(samples: np.ndarray) -> np.ndarray:
    """The rFFT of the samples, refused unless they and it are finite (it can overflow)."""
    with np.errstate(all="ignore"):
        return finite(np.fft.rfft(samples),
                      "the samples are not finite, or their transform leaves the float range")


def spectral_derivative(samples: np.ndarray, order: int = 1) -> np.ndarray:
    """Derivative of a periodic sample vector via the rFFT.

    The Nyquist mode is zeroed for odd derivative orders (its sampled
    derivative is not representable on the same grid).  ``order`` must be >= 0
    and in the float range, and samples or a derivative out of the float range
    raise DomainError.
    """
    if not 0 <= order <= sys.float_info.max:  # a negative one would divide by the k = 0 mode
        raise DomainError(
            f"derivative order must be >= 0 and in the float range, got {shown(order)}")
    n = samples.size
    coef = _spectrum(samples)
    with np.errstate(all="ignore"):  # a derivative out of range is refused below
        coef = coef * (1j * np.arange(coef.size)) ** order
        if n % 2 == 0 and order % 2 == 1:
            coef[-1] = 0.0
        return finite(np.fft.irfft(coef, n), "the derivative leaves the float range")


def _trig_resample(samples: np.ndarray, n: int) -> np.ndarray:
    """The trigonometric interpolant of ``samples`` on grid(n): a zero-padded
    inverse rFFT onto grid(k n), k n > size, so no mode aliases, with
    an even count's Nyquist term at half weight as in :func:`_trig_evaluator`."""
    size = samples.size
    k = size // n + 1
    coef = np.zeros(k * n // 2 + 1, dtype=complex)
    with np.errstate(all="ignore"):  # out of range is refused below
        coef[:size // 2 + 1] = np.fft.rfft(samples) * (k * n / size)
        if size % 2 == 0:
            coef[size // 2] = 0.5 * coef[size // 2].real
        return finite(np.fft.irfft(coef, k * n)[::k], "the resampled profile leaves float range")


def _trig_evaluator(samples: np.ndarray) -> Callable:
    """Trigonometric interpolant through uniform samples on [0, 2pi)."""
    n = samples.size
    coef = _spectrum(samples) / n
    k = np.arange(coef.size, dtype=float)
    wr = 2.0 * coef.real
    wi = -2.0 * coef.imag
    wr[0] = coef.real[0]
    if n % 2 == 0:
        wr[-1] = coef.real[-1]
        wi[-1] = 0.0

    def evaluate(x):
        with np.errstate(all="ignore"):  # x k or the value out of range is refused below
            ang = np.multiply.outer(np.asarray(x, dtype=float), k)
            value = finite(np.cos(ang) @ wr + np.sin(ang) @ wi,
                            "the profile's argument or value leaves the float range")
        return float(value) if value.ndim == 0 else value

    evaluate.nodes = samples  # Profile.resampled takes the FFT route on these
    return evaluate


@dataclass
class Profile:
    """A 2pi-periodic profile with both a callable and a sampled form."""

    evaluator: Callable = field(repr=False)
    samples: np.ndarray = field(repr=False)

    @classmethod
    def from_callable(cls, f: Callable, n: int = _DEFAULT_SAMPLES) -> "Profile":
        if n < _MIN_SAMPLES:
            raise DomainError(f"need at least {_MIN_SAMPLES} samples, got {shown(n)}")
        vals = pointwise(f, grid(n))
        _spectrum(vals)
        return cls(evaluator=f, samples=vals)

    @classmethod
    def from_samples(cls, samples) -> "Profile":
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < _MIN_SAMPLES:
            raise DomainError("samples must be a 1-d vector of length >= 8")
        return cls(evaluator=_trig_evaluator(samples), samples=samples)

    def __call__(self, x):
        return self.evaluator(x)

    @property
    def n(self) -> int:
        return self.samples.size

    def mean(self) -> float:
        return float(self.samples.mean())

    def derivative(self, order: int = 1) -> "Profile":
        return Profile.from_samples(spectral_derivative(self.samples, order))

    def resampled(self, n: int) -> "Profile":
        """The same function sampled on grid(n)."""
        if n == self.n:
            return self
        nodes = getattr(self.evaluator, "nodes", None)
        if nodes is None or n < _MIN_SAMPLES:  # from_callable refuses n < 8
            return Profile.from_callable(self.evaluator, n)
        return Profile(evaluator=self.evaluator,
                       samples=_sampled(n, lambda n: _trig_resample(nodes, n)))
