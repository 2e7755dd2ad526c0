"""Weierstrass functions on the rectangular lattice of a cnoidal wave.

A cnoidal wave with elliptic parameter ``m`` has the rectangular period
lattice with half-periods ``omega1 = K(m)`` (real) and ``omega2 = i K(1-m)``
(imaginary).  On that lattice everything reduces to Jacobi functions:

    wp(z)   = m sn^2(z - i K' | m) - (m+1)/3 = 1/sn^2(z|m) - (m+1)/3
    e1 = (2-m)/3   at z = K
    e2 = -(m+1)/3  at z = i K'
    e3 = (2m-1)/3  at z = K + i K'
    g2 = (4/3)(m^2 - m + 1),   g3 = (4/27)(2m^3 - 3m^2 - 3m + 2)

``zeta`` is built from the Jacobi epsilon function in closed form and
``sigma`` from a quadrature of ``zeta``, both with centred quasi-period
reduction.  ``wp_amplitude`` places V on the boundary of the half
fundamental rectangle, where ``wp`` is real and monotone on each of the
four edges: there sn^2, cn^2 and dn^2 of the arc parameter are ratios
of the gaps V - e_i, so the arc parameter is Legendre's incomplete
integral F(phi|mu) at an amplitude phi read off those gaps, and
``wp_inverse`` is that integral.

The degenerate case ``m == 0`` (second period at infinity) is supported
through the trigonometric limits ``wp = 1/sin^2 z - 1/3``,
``zeta = z/3 + cot z``, ``sigma = sin(z) exp(z^2/6)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import ellipkinc

from .elliptic import ellint_E, ellint_K, jacobi, jacobi_complex, jacobi_epsilon
from .errors import DomainError, PoleError

__all__ = [
    "RectLattice",
    "EdgeAmplitude",
    "lattice",
    "wp",
    "wp_prime",
    "wp_amplitude",
    "wp_inverse",
    "zeta",
    "sigma",
    "eta1_by_integration",
]

_POLE_TOL = 1e-9
_SERIES_RADIUS = 0.4  # |z| below which the Laurent expansion is used
_AXIS_BAND = 1e-4  # strip half-width around the axes handled by Taylor steps
_CORNER_SNAP = 1e-12  # |V - e_i| below which wp_inverse returns the corner
_N_WP_COEFFS = 14


@dataclass(frozen=True)
class RectLattice:
    """Precomputed data for the rectangular lattice with parameter ``m``."""

    m: float
    K: float  # real half-period (omega1)
    E: float
    Kc: float  # K(1-m); the imaginary half-period is i*Kc
    Ec: float
    e1: float
    e2: float
    e3: float
    g2: float
    g3: float
    eta1: float  # zeta(omega1)
    eta2_im: float  # zeta(omega2) = i * eta2_im
    wp_coeffs: tuple = field(repr=False)  # Laurent coefficients c_2, c_3, ...

    @property
    def omega1(self) -> float:
        return self.K

    @property
    def omega2(self) -> complex:
        return 1j * self.Kc

    @property
    def eta2(self) -> complex:
        return 1j * self.eta2_im


def _laurent_coefficients(g2: float, g3: float, count: int) -> tuple:
    """Coefficients c_k of wp(z) = 1/z^2 + sum_{k>=2} c_k z^(2k-2).

    c_2 = g2/20, c_3 = g3/28, and for k >= 4
    c_k = 3 / ((2k+1)(k-3)) * sum_{j=2}^{k-2} c_j c_{k-j}.
    """
    c = {2: g2 / 20.0, 3: g3 / 28.0}
    for k in range(4, count + 2):
        acc = sum(c[j] * c[k - j] for j in range(2, k - 1))
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return tuple(c[k] for k in range(2, count + 2))


@lru_cache(maxsize=512)
def lattice(m: float) -> RectLattice:
    """Build the rectangular lattice attached to elliptic parameter ``m``.

    Requires 0 <= m < 1.  For m = 0 the imaginary half-period degenerates
    to infinity (Kc = inf); the function evaluators below special-case
    that limit, so the lattice object itself is still usable.
    """
    m = float(m)
    if not 0.0 <= m < 1.0 or math.isnan(m):
        raise DomainError(f"lattice requires 0 <= m < 1, got {m!r}")
    K = ellint_K(m)
    E = ellint_E(m)
    if m == 0.0:
        Kc, Ec = math.inf, 1.0
        eta2_im = math.inf
    else:
        Kc = ellint_K(1.0 - m)
        Ec = ellint_E(1.0 - m)
        eta2_im = -(Ec - (1.0 + m) * Kc / 3.0)
    e1 = (2.0 - m) / 3.0
    e2 = -(1.0 + m) / 3.0
    e3 = (2.0 * m - 1.0) / 3.0
    g2 = (4.0 / 3.0) * (m * m - m + 1.0)
    g3 = (4.0 / 27.0) * (2.0 * m**3 - 3.0 * m**2 - 3.0 * m + 2.0)
    eta1 = E - e1 * K
    coeffs = _laurent_coefficients(g2, g3, _N_WP_COEFFS)
    return RectLattice(m=m, K=K, E=E, Kc=Kc, Ec=Ec, e1=e1, e2=e2, e3=e3,
                       g2=g2, g3=g3, eta1=eta1, eta2_im=eta2_im, wp_coeffs=coeffs)


# ---------------------------------------------------------------------------
# Restrictions of wp, wp', zeta to the axes of the rectangle: the
# real-arithmetic building blocks of zeta off the axes.
# ---------------------------------------------------------------------------


def _wp_real(x: float, lat: RectLattice) -> float:
    """wp on the real axis: 1/sn^2(x|m) - (m+1)/3 (even, period 2K)."""
    s, _, _ = jacobi(x, lat.m)
    return 1.0 / (s * s) - (lat.m + 1.0) / 3.0


def _wp_prime_real(x: float, lat: RectLattice) -> float:
    """wp' on the real axis: -2 cn dn / sn^3."""
    s, c, d = jacobi(x, lat.m)
    return -2.0 * c * d / s**3


def _wp_imag_axis(y: float, lat: RectLattice) -> float:
    """wp(iy), a real number: (2-m)/3 - 1/sn^2(y|1-m)."""
    s, _, _ = jacobi(y, 1.0 - lat.m)
    return (2.0 - lat.m) / 3.0 - 1.0 / (s * s)


def _wp_prime_imag_axis_im(y: float, lat: RectLattice) -> float:
    """Im wp'(iy):  wp'(iy) = -2i cn dn / sn^3 evaluated at (y | 1-m)."""
    s, c, d = jacobi(y, 1.0 - lat.m)
    return -2.0 * c * d / s**3


def _zeta_real(x: float, lat: RectLattice) -> float:
    """zeta on the real axis in [-K, K] minus the origin.

    zeta(x) = eps(x|m) + cn dn / sn - e1 x, where eps is the antiderivative
    of dn^2.  (The additive constant vanishes: the expansion at 0 is 1/x.)
    """
    s, c, d = jacobi(x, lat.m)
    return jacobi_epsilon(x, lat.m) + c * d / s - lat.e1 * x


def _zeta_comp(y: float, lat: RectLattice) -> float:
    """The real function zc with zeta(iy) = -i * zc(y).

    zc is the real-axis zeta of the complementary lattice (parameter 1-m),
    whose first symmetric-point value is (1+m)/3:
    zc(y) = eps(y|1-m) + cn dn / sn (y|1-m) - (1+m) y / 3.
    Valid for m = 0 as well (then it is coth y - y/3).
    """
    mm = 1.0 - lat.m
    s, c, d = jacobi(y, mm)
    return jacobi_epsilon(y, mm) + c * d / s - (1.0 + lat.m) * y / 3.0


def _wp_series_tail(z: complex, lat: RectLattice) -> complex:
    """wp(z) - 1/z^2 = sum_k c_k z^(2k-2) for |z| <= the series radius."""
    z2 = z * z
    acc = 0.0 + 0.0j
    p = z2  # z^(2k-2), starting at k = 2
    for ck in lat.wp_coeffs:
        acc += ck * p
        p *= z2
    return acc


def _zeta_series_tail(z: complex, lat: RectLattice) -> complex:
    """zeta(z) - 1/z = -sum_k c_k z^(2k-1)/(2k-1) for |z| <= series radius."""
    z2 = z * z
    acc = 0.0 + 0.0j
    p = z  # becomes z^(2k-1), starting at k = 2
    for k, ck in enumerate(lat.wp_coeffs, start=2):
        p *= z2
        acc -= ck * p / (2 * k - 1)
    return acc


# ---------------------------------------------------------------------------
# Quasi-period reduction shared by zeta and sigma.
# ---------------------------------------------------------------------------


def _reduce(z: complex, lat: RectLattice) -> tuple[complex, int, int]:
    """Centered reduction z = z0 + 2K n1 + 2iKc n2 with z0 in the base cell."""
    x, y = z.real, z.imag
    n1 = round(x / (2.0 * lat.K))
    x0 = x - 2.0 * lat.K * n1
    n2 = round(y / (2.0 * lat.Kc))
    y0 = y - 2.0 * lat.Kc * n2
    return complex(x0, y0), int(n1), int(n2)


def zeta(z: complex, lat: RectLattice) -> complex:
    """Weierstrass zeta on the lattice: zeta' = -wp, zeta(z) ~ 1/z at 0.

    Strategy: reduce to the base cell (accumulating 2 n1 eta1 + 2 n2 eta2),
    then use the Laurent series near the origin, a short Taylor step off the
    nearest axis inside a thin strip, and otherwise the addition formula

        zeta(x + iy) = zeta(x) + zeta(iy)
                       + (wp'(x) - wp'(iy)) / (2 (wp(x) - wp(iy))),

    whose denominator is bounded below by e1 - e2 = 1 on the cell.
    Arguments within 1e-9 of a lattice point raise :class:`PoleError`.
    """
    z = complex(z)
    if lat.m == 0.0:
        w = z - math.pi * round(z.real / math.pi)
        if abs(w) < _POLE_TOL:
            raise PoleError("zeta evaluated too close to a lattice point")
        return z / 3.0 + 1.0 / cmath.tan(w)

    z0, n1, n2 = _reduce(z, lat)
    corr = complex(2.0 * n1 * lat.eta1, 2.0 * n2 * lat.eta2_im)
    r = abs(z0)
    if r < _POLE_TOL:
        raise PoleError("zeta evaluated too close to a lattice point")
    x0, y0 = z0.real, z0.imag

    if r <= _SERIES_RADIUS:
        val = 1.0 / z0 + _zeta_series_tail(z0, lat)
    elif abs(y0) < _AXIS_BAND:
        # Taylor step off the real axis: zeta(x + h) for h = iy0.
        h = 1j * y0
        p = _wp_real(x0, lat)
        pp = _wp_prime_real(x0, lat)
        ppp = 6.0 * p * p - 0.5 * lat.g2  # wp'' = 6 wp^2 - g2/2
        val = (_zeta_real(x0, lat) - p * h - pp * h * h / 2.0
               - ppp * h**3 / 6.0)
    elif abs(x0) < _AXIS_BAND:
        # Taylor step off the imaginary axis: zeta(iy + h) for real h = x0.
        h = x0
        base = -1j * _zeta_comp(y0, lat)
        p = _wp_imag_axis(y0, lat)
        pp = 1j * _wp_prime_imag_axis_im(y0, lat)
        ppp = 6.0 * p * p - 0.5 * lat.g2
        val = base - p * h - pp * h * h / 2.0 - ppp * h**3 / 6.0
    else:
        px = _wp_real(x0, lat)
        ppx = _wp_prime_real(x0, lat)
        py = _wp_imag_axis(y0, lat)
        ppy = 1j * _wp_prime_imag_axis_im(y0, lat)
        val = (_zeta_real(x0, lat) - 1j * _zeta_comp(y0, lat)
               + 0.5 * (ppx - ppy) / (px - py))
    return val + corr


def wp(z: complex, lat: RectLattice):
    """Weierstrass p-function.  Real input returns a float, complex a complex.

    Complex arguments go through m sn^2(z - iK'|m) - (m+1)/3 with the
    complex Jacobi split; real arguments stay in real arithmetic.
    """
    if lat.m == 0.0:
        z = complex(z)
        w = z - math.pi * round(z.real / math.pi)
        if abs(w) < _POLE_TOL:
            raise PoleError("wp evaluated too close to a lattice point")
        val = 1.0 / cmath.sin(w) ** 2 - 1.0 / 3.0
        return val.real if z.imag == 0.0 else val

    if isinstance(z, complex) and z.imag != 0.0:
        s = jacobi_complex(z - 1j * lat.Kc, lat.m).sn
        return lat.m * s * s - (lat.m + 1.0) / 3.0

    x = z.real if isinstance(z, complex) else float(z)
    x0 = x - 2.0 * lat.K * round(x / (2.0 * lat.K))
    if abs(x0) < _POLE_TOL:
        raise PoleError("wp evaluated too close to a lattice point")
    val = _wp_real(x0, lat)
    return complex(val) if isinstance(z, complex) else val


def wp_prime(z: complex, lat: RectLattice):
    """Derivative of the p-function; same input/output convention as wp."""
    if lat.m == 0.0:
        z = complex(z)
        w = z - math.pi * round(z.real / math.pi)
        if abs(w) < _POLE_TOL:
            raise PoleError("wp_prime evaluated too close to a lattice point")
        val = -2.0 * cmath.cos(w) / cmath.sin(w) ** 3
        return val.real if z.imag == 0.0 else val

    if isinstance(z, complex) and z.imag != 0.0:
        s, c, d = jacobi_complex(z - 1j * lat.Kc, lat.m)
        return 2.0 * lat.m * s * c * d

    x = z.real if isinstance(z, complex) else float(z)
    x0 = x - 2.0 * lat.K * round(x / (2.0 * lat.K))
    if abs(x0) < _POLE_TOL:
        raise PoleError("wp_prime evaluated too close to a lattice point")
    val = _wp_prime_real(x0, lat)
    return complex(val) if isinstance(z, complex) else val


# ---------------------------------------------------------------------------
# Inverse of wp along the boundary of the half rectangle.
# ---------------------------------------------------------------------------


class EdgeAmplitude(NamedTuple):
    """a = wp_inverse(V) as the arc parameter F(phi|mu) along one edge.

    ``edge`` is "imaginary", "top", "right" or "real"; see
    :func:`wp_amplitude`.
    """

    edge: str
    phi: float
    mu: float


def wp_amplitude(V: float, lat: RectLattice) -> EdgeAmplitude:
    """The edge holding a = wp^-1(V), and the amplitude and parameter of a there.

    On each edge of the half rectangle sn^2, cn^2 and dn^2 of the arc
    parameter are ratios of the gaps V - e_i, so the Jacobi amplitude
    phi in [0, pi/2] is one atan2 and the arc parameter is F(phi|mu)
    (DLMF 23.6(iv)):

        V <= e2:        a = iY,       phi = atan2(1, sqrt(e2 - V)),        mu = 1-m
        e2 <= V <= e3:  a = X + iKc,  phi = atan2(sqrt(V-e2), sqrt(e3-V)),  mu = m
        e3 <= V <= e1:  a = K + iY,   phi = atan2(sqrt(e1-V), sqrt(V-e3)),  mu = 1-m
        V >= e1:        a = x,        phi = atan2(1, sqrt(V - e1)),        mu = m

    with X, Y or x = F(phi|mu).  mu = 1-m is the float at which
    :func:`lattice` evaluates Kc, so F(pi/2|mu) meets Kc at the corners.
    V = +-inf gives phi = 0, the pole.
    """
    if math.isnan(V):
        raise DomainError("wp_amplitude received NaN")
    m = lat.m
    if V < lat.e2:
        return EdgeAmplitude("imaginary", math.atan2(1.0, math.sqrt(lat.e2 - V)), 1.0 - m)
    if V < lat.e3:
        return EdgeAmplitude("top", math.atan2(math.sqrt(V - lat.e2),
                                               math.sqrt(lat.e3 - V)), m)
    if V < lat.e1:
        return EdgeAmplitude("right", math.atan2(math.sqrt(lat.e1 - V),
                                                 math.sqrt(V - lat.e3)), 1.0 - m)
    return EdgeAmplitude("real", math.atan2(1.0, math.sqrt(V - lat.e1)), m)


def wp_inverse(V: float, lat: RectLattice) -> complex:
    """The point a on the boundary of the half rectangle with wp(a) = V.

    V runs over the whole real line; the inverse walks the rectangle
    boundary, going counterclockwise as V increases:

        V <= e2:        a = iY,      Y in (0, Kc]   (imaginary axis)
        e2 <= V <= e3:  a = X + iKc, X in [0, K]    (top edge)
        e3 <= V <= e1:  a = K + iY,  Y in [Kc, 0]   (right edge, Im decreasing)
        V >= e1:        a = x,       x in (0, K]    (real axis, decreasing)

    The arc parameter X or Y is Legendre's F(phi|mu) at the amplitude
    and parameter of :func:`wp_amplitude` (``scipy.special.ellipkinc``).
    V = +-inf returns 0 (the pole).  Values within 1e-12 of a corner
    value e_i return the corner exactly; at m = 0 the corner e2 = e3 lies
    at infinity and raises :class:`DomainError`.
    """
    edge, phi, mu = wp_amplitude(V, lat)
    if abs(V - lat.e2) <= _CORNER_SNAP:
        if lat.m == 0.0:
            raise DomainError(
                "wp_inverse at the double corner e2 = e3 = -1/3 lies at infinity for m = 0")
        return 1j * lat.Kc
    if abs(V - lat.e3) <= _CORNER_SNAP:
        return complex(lat.K, lat.Kc)
    if abs(V - lat.e1) <= _CORNER_SNAP:
        return complex(lat.K, 0.0)
    t = float(ellipkinc(phi, mu))
    if edge == "imaginary":
        return complex(0.0, t)
    if edge == "top":
        return complex(t, lat.Kc)
    if edge == "right":
        return complex(lat.K, t)
    return complex(t, 0.0)


# ---------------------------------------------------------------------------
# Sigma function by quadrature of zeta - 1/t, plus quasi-period factors.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _zeta_minus_pole(t: complex, lat: RectLattice) -> complex:
    """zeta(t) - 1/t, analytic at the origin of the base cell."""
    if abs(t) <= _SERIES_RADIUS:
        return _zeta_series_tail(t, lat)
    return zeta(t, lat) - 1.0 / t


def sigma(z: complex, lat: RectLattice) -> complex:
    """Weierstrass sigma: the entire function with sigma(z) ~ z at lattice zeros.

    Computed as sigma(z0) = z0 exp(integral_0^{z0} (zeta(t) - 1/t) dt) on
    the reduced argument (Gauss-Legendre panels on the straight segment),
    then carried back with the quasi-periodicity

        sigma(z0 + 2 n1 w1 + 2 n2 w2)
            = (-1)^(n1 + n2 + n1 n2) exp(eta_L (z0 + L/2)) sigma(z0).
    """
    z = complex(z)
    if lat.m == 0.0:
        return cmath.sin(z) * cmath.exp(z * z / 6.0)

    z0, n1, n2 = _reduce(z, lat)
    if z0 == 0.0:
        return 0.0 + 0.0j

    length = abs(z0)
    panels = max(1, math.ceil(length / 0.5))
    nodes, weights = _gl_rule(20)
    integral = 0.0 + 0.0j
    for p in range(panels):
        a = p / panels
        width = 1.0 / panels
        for s, w in zip(nodes, weights):
            t = z0 * (a + width * s)
            integral += w * width * _zeta_minus_pole(t, lat)
    integral *= z0
    val = z0 * cmath.exp(integral)

    if n1 == 0 and n2 == 0:
        return val
    L = complex(2.0 * lat.K * n1, 2.0 * lat.Kc * n2)
    eta_L = complex(2.0 * n1 * lat.eta1, 2.0 * n2 * lat.eta2_im)
    sign = -1.0 if (n1 + n2 + n1 * n2) % 2 else 1.0
    return sign * cmath.exp(eta_L * (z0 + L / 2.0)) * val


# ---------------------------------------------------------------------------
# Slow reference for eta1, kept as a public cross-check of the closed form
# eta1 = E - e1 K.
# ---------------------------------------------------------------------------


def eta1_by_integration(m: float) -> float:
    """eta1 = zeta(K) obtained by integrating zeta' = -wp along the real axis.

    Seeded by the Laurent expansion at z0 = 1e-3 and integrated to K with
    the pole subtracted:  eta1 = (zeta(z0) - 1/z0) + 1/K
    - integral_{z0}^{K} (wp(t) - 1/t^2) dt.  Entirely independent of the
    E - e1 K closed form used by :func:`lattice`.
    """
    lat = lattice(m)
    z0 = 1e-3
    head = _zeta_series_tail(complex(z0), lat).real

    def integrand(t: float) -> float:
        if t <= _SERIES_RADIUS:
            return _wp_series_tail(complex(t), lat).real
        return _wp_real(t, lat) - 1.0 / (t * t)

    nodes, weights = _gl_rule(24)
    span = lat.K - z0
    panels = max(2, math.ceil(span / 0.25))
    total = 0.0
    for p in range(panels):
        a = z0 + span * p / panels
        width = span / panels
        for s, w in zip(nodes, weights):
            total += w * width * integrand(a + width * s)

    return head + 1.0 / lat.K - total
