"""Circle diffeomorphisms acting on Hill potentials.

A 2pi-periodic potential transforms under a circle diffeomorphism f the
way a CFT stress tensor does: an inverse-square Jacobian times the
profile, plus a Schwarzian-derivative anomaly weighted by the central
charge.  This module supplies the diffeomorphisms (:class:`CircleDiffeo`),
the anomaly (:func:`schwarzian`), the finite and infinitesimal actions on
:class:`~kdvorbits.profiles.Profile` objects, and the companion density
transform for Hill solutions.  The payoff, exercised in the tests, is
that Floquet traces and winding numbers computed by :mod:`.hill` are
invariant along the resulting orbits -- which is what makes the orbit
labels of :mod:`.orbits` labels of orbits and not just of waves.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError, ResolutionError, shown
from .profiles import PERIOD, Profile, finite, grid, pointwise, spectral_derivative

__all__ = [
    "CircleDiffeo",
    "compose",
    "schwarzian",
    "coadjoint",
    "infinitesimal_coadjoint",
    "density_transform",
]

_FD_STEP = 1e-5
_INVERSE_TOL = 1e-12
_MAX_NEWTON = 100
_CHECK_POINTS = 17


class CircleDiffeo:
    """An orientation-preserving circle diffeomorphism, lifted to the line.

    ``f`` must satisfy f(x + 2pi) = f(x) + 2pi with f' > 0; both are
    spot-checked at construction.  Analytic derivatives can be passed as
    a triple ``derivatives=(d1, d2, d3)`` -- all three or none.  Without
    them, 5-point central differences at step 1e-5 at x mod 2pi stand in; that is
    plenty for f' but carries O(1e-4) noise in f'' and worse in f''', so
    supply the triple whenever the Schwarzian has to be trusted (the
    :meth:`fourier` family always does).

    The inverse defaults to a guarded Newton iteration, bisection-safe
    inside one fundamental cell and polished until |f(x) - y| < 1e-12;
    an explicit inverse evaluator can be passed to skip it.
    """

    def __init__(self, f: Callable, derivatives=None, inverse: Callable | None = None,
                 check: bool = True):
        self._f = f
        if derivatives is not None:
            derivatives = tuple(derivatives)
            if len(derivatives) != 3 or not all(callable(d) for d in derivatives):
                raise DomainError(
                    "derivatives must be the full (d1, d2, d3) triple of callables")
        self._derivs = derivatives
        self._inverse_fn = inverse
        self._base = float(f(0.0))
        if check:
            self._validate()

    def _validate(self):
        xs = np.linspace(0.0, PERIOD, _CHECK_POINTS)
        lo = pointwise(self._f, xs)
        hi = pointwise(self._f, xs + PERIOD)
        if np.max(np.abs(hi - lo - PERIOD)) > 1e-9:
            raise DomainError("f(x + 2 pi) - f(x) != 2 pi: not a lift of a "
                              "circle map")
        if np.min(self.derivative(xs, 1)) <= 0.0:
            raise DomainError("f' <= 0 somewhere: not orientation-preserving")

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        return pointwise(self._f, x)

    def derivative(self, x, order: int = 1):
        """d^order f / dx^order, analytic when available, else 5-point FD."""
        if order not in (1, 2, 3):
            raise DomainError(
                f"derivatives are available up to third order, not {shown(order)}")
        if self._derivs is not None:
            return pointwise(self._derivs[order - 1], x)
        h = _FD_STEP

        def stencil(x):  # through pointwise, which refuses a difference out of range
            x = np.mod(x, PERIOD)  # f(x + 2 pi k) = f(x) + 2 pi k, so f^(n) has period 2 pi
            m2, m1, p1, p2 = (pointwise(self._f, x + s * h) for s in (-2.0, -1.0, 1.0, 2.0))
            if order == 1:
                return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
            if order == 2:
                f0 = pointwise(self._f, x)
                return (-m2 + 16.0 * m1 - 30.0 * f0 + 16.0 * p1 - p2) / (12.0 * h * h)
            return (-m2 + 2.0 * m1 - 2.0 * p1 + p2) / (2.0 * h**3)

        return pointwise(stencil, x)

    def inverse(self, y):
        """The x with f(x) = y, elementwise for an array y.

        From the supplied inverse, or by guarded Newton run on every
        point at once, each with its own bracket, until |f(x) - y| < 1e-12.
        """
        if self._inverse_fn is not None:
            return pointwise(self._inverse_fn, y)
        ya = np.asarray(y, dtype=float)
        flat = ya.ravel()
        # Peel off whole windings so each root lies in [0, 2 pi].
        wind, rem = np.divmod(flat - self._base, PERIOD)
        target = self._base + rem
        x = rem.copy()  # f is within a bounded distance of the identity
        lo, hi = np.zeros_like(x), np.full_like(x, PERIOD)
        todo = np.arange(x.size)
        for _ in range(_MAX_NEWTON):
            g = np.asarray(self(x[todo]), dtype=float) - target[todo]
            open_ = np.abs(g) >= _INVERSE_TOL
            todo, g = todo[open_], g[open_]
            if todo.size == 0:
                break
            xt = x[todo]
            hi[todo] = np.where(g > 0.0, xt, hi[todo])
            lo[todo] = np.where(g > 0.0, lo[todo], xt)
            slope = np.asarray(self.derivative(xt, 1), dtype=float)
            mid = 0.5 * (lo[todo] + hi[todo])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(slope > 0.0, xt - g / slope, mid)
            x[todo] = np.where((lo[todo] < step) & (step < hi[todo]), step, mid)
        else:
            raise NumericalError(
                f"diffeo inversion stalled at y = {float(flat[todo[0]])!r}",
                abscissa=float(x[todo[0]]))
        x += PERIOD * wind
        return float(x[0]) if ya.ndim == 0 else x.reshape(ya.shape)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls) -> "CircleDiffeo":
        return cls.translation(0.0)

    @classmethod
    def translation(cls, a: float) -> "CircleDiffeo":
        """The rigid rotation x -> x + a (derivatives exactly 1, 0, 0); a must be finite."""
        a = float(a)
        if not math.isfinite(a):
            raise DomainError(f"rotation angle must be finite, got {a!r}")
        return cls(lambda x: np.asarray(x, float) + a,
                   derivatives=(np.ones_like, np.zeros_like, np.zeros_like),
                   inverse=lambda y: y - a, check=False)

    @classmethod
    def fourier(cls, amplitudes: Sequence[float],
                phases: Sequence[float] | None = None) -> "CircleDiffeo":
        """f(x) = x + sum_k a_k sin(k x + phi_k), k = 1 .. len(amplitudes).

        Requires sum k |a_k| < 1, which bounds f' away from zero; all
        derivatives are closed-form, so this family is exact enough for
        cocycle and invariance tests.
        """
        a = np.asarray(amplitudes, dtype=float)
        if a.ndim != 1:
            raise DomainError("amplitudes must be a flat sequence")
        k = np.arange(1, a.size + 1, dtype=float)
        phi = np.zeros_like(a) if phases is None else np.asarray(phases, float)
        if phi.shape != a.shape:
            raise DomainError("phases must match amplitudes in length")
        if not (np.isfinite(a).all() and np.isfinite(phi).all()):
            raise DomainError("amplitudes and phases must be finite")
        with np.errstate(over="ignore"):  # an inf load is refused below
            load = float(np.sum(k * np.abs(a)))
        if load >= 1.0:
            raise DomainError(
                f"sum of k|a_k| is {load:.4f}; need < 1 to keep f' > 0")

        def angles(x):
            return np.multiply.outer(np.asarray(x, dtype=float), k) + phi

        def f(x):
            return np.asarray(x, float) + np.sin(angles(x)) @ a

        return cls(
            f,
            derivatives=(
                lambda x: 1.0 + np.cos(angles(x)) @ (k * a),
                lambda x: -np.sin(angles(x)) @ (k * k * a),
                lambda x: -np.cos(angles(x)) @ (k**3 * a),
            ),
            check=False,
        )


def compose(outer: CircleDiffeo, inner: CircleDiffeo) -> CircleDiffeo:
    """The composition outer(inner(x)) as a CircleDiffeo.

    Chain-rule derivatives are attached when both factors carry analytic
    ones, so composing Fourier-family maps loses no precision; otherwise
    the composite falls back to finite differences like any other map.
    """

    def f(x):
        return outer(inner(x))

    derivs = None
    if outer._derivs is not None and inner._derivs is not None:
        def d1(x):
            g = inner(x)
            return outer.derivative(g, 1) * inner.derivative(x, 1)

        def d2(x):
            g = inner(x)
            g1 = inner.derivative(x, 1)
            return (outer.derivative(g, 2) * g1 * g1
                    + outer.derivative(g, 1) * inner.derivative(x, 2))

        def d3(x):
            g = inner(x)
            g1 = inner.derivative(x, 1)
            g2 = inner.derivative(x, 2)
            return (outer.derivative(g, 3) * g1**3
                    + 3.0 * outer.derivative(g, 2) * g1 * g2
                    + outer.derivative(g, 1) * inner.derivative(x, 3))

        derivs = (d1, d2, d3)

    return CircleDiffeo(f, derivatives=derivs,
                        inverse=lambda y: inner.inverse(outer.inverse(y)),
                        check=False)


def schwarzian(f: CircleDiffeo, x):
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at x (or an array)."""
    return _slope_and_schwarzian(f, x)[1]


def _slope_and_schwarzian(f: CircleDiffeo, x):
    """f'(x) and the Schwarzian S[f](x), from one evaluation of f'."""
    d1 = f.derivative(x, 1)
    if np.any(np.asarray(d1) <= 0.0):
        raise DomainError("f' <= 0 at the evaluation point")
    with np.errstate(all="ignore"):  # out of range is refused
        ratio = f.derivative(x, 2) / d1
        return d1, finite(f.derivative(x, 3) / d1 - 1.5 * ratio * ratio,
                          "the Schwarzian leaves the float range")


def coadjoint(p: Profile, f: CircleDiffeo, c: float) -> Profile:
    """The transformed potential q with q(f(x)) = [p(x) + (c/12) S[f](x)] / f'(x)^2.

    Sampled on the uniform grid: each grid point y is pulled back to
    x = f^{-1}(y) and the right-hand side evaluated there.  Acting twice
    composes, q = (f . (g . p)) = ((f o g) . p), because the Schwarzian
    is a cocycle; the tests pin that down together with the invariance
    of the Floquet data.
    """
    if not math.isfinite(c):
        raise DomainError(f"central charge must be finite, got {c!r}")
    xs = f.inverse(grid(p.n))
    d1, anomaly = _slope_and_schwarzian(f, xs)
    with np.errstate(all="ignore"):  # from_samples refuses a sample out of range
        return Profile.from_samples((pointwise(p, xs) + (c / 12.0) * anomaly) / (d1 * d1))


def _resolved(samples: np.ndarray) -> bool:
    """Is the top eighth of the spectrum at noise level?

    Spectral differentiation multiplies mode k by k^3; profiles whose
    energy has not decayed by the grid cutoff would return garbage, so
    they are refused rather than differentiated.
    """
    coef = np.abs(np.fft.rfft(samples))
    tail = coef.size // 8
    peak = float(coef.max(initial=0.0))
    if tail == 0 or peak == 0.0:
        return True
    return float(coef[-tail:].max()) <= 1e-6 * peak


def infinitesimal_coadjoint(p: Profile, xi: Profile, c: float) -> Profile:
    """Lie-derivative form of the action: -xi p' - 2 xi' p + (c/12) xi'''.

    With xi = p this is the KdV right-hand side -3 p p' + (c/12) p''',
    which is the sense in which a Hill potential generates its own flow.
    Derivatives are spectral; profiles whose sample spectra have not
    decayed at the grid cutoff raise ResolutionError.
    """
    if not math.isfinite(c):
        raise DomainError(f"central charge must be finite, got {c!r}")
    n = max(p.n, xi.n)
    p = p.resampled(n)
    xi = xi.resampled(n)
    for name, prof in (("p", p), ("xi", xi)):
        if not _resolved(prof.samples):
            raise ResolutionError(
                f"{name} is not spectrally resolved at n = {n}; "
                "refine the sampling")
    p_vals, xi_vals = p.samples, xi.samples
    with np.errstate(all="ignore"):  # from_samples refuses a sample out of range
        return Profile.from_samples(
            -xi_vals * spectral_derivative(p_vals)
            - 2.0 * spectral_derivative(xi_vals) * p_vals
            + (c / 12.0) * spectral_derivative(xi_vals, 3))


def density_transform(psi: Callable, f: CircleDiffeo, h: float) -> Callable:
    """Transform psi as a density of weight h: (f . psi)(f(x)) = f'(x)^(-h) psi(x).

    Returns the transformed function of the *new* coordinate,
    y -> f'(f^{-1}(y))^(-h) psi(f^{-1}(y)).  With h = -1/2 this carries
    solutions of Hill's equation for p to solutions for coadjoint(p, f, c).
    """

    def transformed(y):
        return pointwise(lambda x: np.power(f.derivative(x, 1), -h) * psi(x), f.inverse(y))

    return transformed
