"""Weierstrass functions on the rectangular lattice of a cnoidal wave.

A cnoidal wave with elliptic parameter ``m`` has the rectangular period
lattice with half-periods ``omega1 = K(m)`` (real) and ``omega2 = i K(1-m)``
(imaginary), on which

    wp(z)   = 1/sn^2(z|m) - (m+1)/3
    e1 = (2-m)/3   at z = K
    e2 = -(m+1)/3  at z = i K'
    e3 = (2m-1)/3  at z = K + i K'
    g2 = (4/3)(m^2 - m + 1),   g3 = (4/27)(2m^3 - 3m^2 - 3m + 2)

``wp``, ``wp_prime``, ``zeta`` and ``sigma`` all come from one short
q-series for the theta function theta_1 and its first three derivatives
(DLMF 23.6(i)), after a centred quasi-period reduction, for a real z and
a complex z alike; for m > 1/2 they are evaluated on the rotated lattice
of 1 - m, whose nome is at most exp(-pi).  ``wp_amplitude`` places V on
the boundary of the half fundamental rectangle, where ``wp`` is real
and monotone on each of the four edges: there tan phi of the Jacobi
amplitude of the arc parameter is a ratio of the gaps V - e_i, and
``wp_inverse`` is Legendre's incomplete integral F(phi|mu) at it.

The degenerate case ``m == 0`` (second period at infinity) is supported
through the trigonometric limits ``wp = 1/sin^2 z - 1/3``,
``zeta = z/3 + cot z``, ``sigma = sin(z) exp(z^2/6)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .elliptic import FLOAT, ellint_F_zeta, ellint_KE, route
from .errors import DomainError, PoleError

__all__ = [
    "BOUNDARY_TOL",
    "EDGES",
    "CORNERS",
    "RectLattice",
    "EdgeAmplitude",
    "lattice",
    "wp",
    "wp_prime",
    "wp_amplitude",
    "wp_inverse",
    "zeta",
    "sigma",
]

#: Absolute tolerance on V for deciding that it sits on a corner e_i.
BOUNDARY_TOL = 1e-12

#: The edges of the half rectangle in the order V meets them, named by
#: their codes in :class:`EdgeAmplitude`; corner code k is the corner where
#: edge k begins, 0 none.
EDGES = ("imaginary", "top", "right", "real")
CORNERS = (None, "e2", "e3", "e1")
IMAGINARY, TOP, RIGHT, REAL = range(4)
E2, E3, E1 = TOP, RIGHT, REAL

_POLE_TOL = 1e-9
# Terms of the theta_1 series; at the largest nome used, exp(-pi), the
# first omitted one is below 1e-80 of the leading term.
_THETA_TERMS = 8


@dataclass(frozen=True)
class RectLattice:
    """Precomputed data for the rectangular lattice with parameter ``m`` (or arrays of m)."""

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

    @property
    def omega1(self) -> float:
        return self.K

    @property
    def omega2(self) -> complex:
        return 1j * self.Kc

    @property
    def eta2(self) -> complex:
        return 1j * self.eta2_im


def lattice(m) -> RectLattice:
    """Build the rectangular lattice attached to elliptic parameter ``m``.

    Requires 0 <= m < 1.  For m = 0 the imaginary half-period degenerates
    to infinity (Kc = inf); the function evaluators below special-case
    that limit, so the lattice object itself is still usable.  An m so
    small that 1 - m rounds to 1 (below about 2^-54) is that limit too:
    the returned lattice has m = 0.0.

    A float m, or one of ndim 0 (:func:`.elliptic.route`), gives float fields,
    cached.  An array of m gives array fields, each element bit for bit
    lattice(m_i), from one masked AGM over m and one over 1 - m.  A
    RectLattice is returned as it is, so a caller may pass one for m.
    """
    if isinstance(m, RectLattice):
        return m
    try:  # the cache before route, which would double the time of a hit
        return _cached(m)  # a float, or a numpy scalar: hashable, and float() takes it
    except TypeError:  # an array is not hashable
        xp, (m,) = route(m)
        return _lattice(m, xp)


_cached = lru_cache(maxsize=512)(lambda m: _lattice(float(m), FLOAT))


def _lattice(m, xp) -> RectLattice:
    """The lattice of m, a float or an array, from K and E at m and 1 - m; g3 per
    element in Python's powers, which numpy's are not always."""
    ok = (m >= 0.0) & (m < 1.0)
    if not xp.all(ok):
        raise DomainError(f"lattice requires 0 <= m < 1, got {xp.first_failing(ok, m)[0]!r}")
    m = xp.where(1.0 - m == 1.0, 0.0, m)
    zero, e1 = m == 0.0, (2.0 - m) / 3.0
    (K, E), (Kc, Ec) = ellint_KE(m), ellint_KE(xp.where(zero, 0.0, 1.0 - m))
    Kc, Ec = xp.where(zero, math.inf, Kc), xp.where(zero, 1.0, Ec)  # so eta2_im = inf at 0
    g3 = xp.each(lambda m: (4.0 / 27.0) * (2.0 * m**3 - 3.0 * m**2 - 3.0 * m + 2.0), m)
    return RectLattice(m=m, K=K, E=E, Kc=Kc, Ec=Ec, e1=e1, e2=-(1.0 + m) / 3.0,
                       e3=(2.0 * m - 1.0) / 3.0, g2=(4.0 / 3.0) * (m * m - m + 1.0), g3=g3,
                       eta1=E - e1 * K, eta2_im=-(Ec - (1.0 + m) * Kc / 3.0))


lattice.cache_info = _cached.cache_info  # the float route's hits and misses


# ---------------------------------------------------------------------------
# wp, wp', zeta and sigma from the theta_1 series, after a quasi-period reduction.
# ---------------------------------------------------------------------------


def _multiple(x: float, period: float, z, name: str) -> int:
    """The multiple n of period nearest x.  DomainError where the rounding of
    the rest x - n period, |n| ulp(period), would exceed the pole tolerance."""
    n = x / period
    if not abs(n) * math.ulp(period) <= _POLE_TOL:
        raise DomainError(f"{name} cannot reduce z = {z!r} modulo its period {period!r}")
    return round(n)


def _reduce(z: complex, lat: RectLattice, name: str) -> tuple[complex, int, int]:
    """Centered reduction z = z0 + 2K n1 + 2iKc n2 with z0 in the base cell
    (n2 = 0 at m = 0, where Kc is infinite); a z too large to reduce raises
    DomainError."""
    n1 = _multiple(z.real, 2.0 * lat.K, z, name)
    n2 = _multiple(z.imag, 2.0 * lat.Kc, z, name) if lat.m else 0
    return complex(z.real - 2.0 * lat.K * n1, z.imag - 2.0 * lat.Kc * n2 if n2 else z.imag), n1, n2


def _off_pole(z: complex, lat: RectLattice, name: str) -> tuple[complex, int, int]:
    """:func:`_reduce`, raising PoleError for a z within the pole tolerance of a
    lattice point: the poles of wp, wp' and zeta."""
    z0, n1, n2 = _reduce(z, lat, name)
    if abs(z0) < _POLE_TOL:
        raise PoleError(f"{name} evaluated too close to a lattice point")
    return z0, n1, n2


def _circular(f, z, lat: RectLattice, name: str):
    """f(w) on the lattice of m = 0, w = z modulo pi: real for a real z, and
    a DomainError where sin w overflows (|Im z| past about 355)."""
    z = complex(z)
    w = _off_pole(z, lat, name)[0]
    try:
        val = f(w)
    except OverflowError:
        raise DomainError(f"{name} overflows at z = {z!r}") from None
    return val.real if z.imag == 0.0 else val


def _theta_series(z0: complex, lat: RectLattice) -> tuple[complex, complex, complex, complex]:
    """zeta, sigma, wp and wp' at z0 != 0 in the base cell (DLMF 23.6(i)).

    With real half-period w, eta = zeta(w), nome q = exp(-pi Kc / K),
    f = pi / (2w), v = f z and t_k = theta_1^(k)(v) / theta_1(v):

        zeta(z)  = eta z / w + f t_1
        sigma(z) = (2w / pi) exp(eta z^2 / 2w) theta_1(v) / theta_1'(0)
        wp(z)    = -eta / w - f^2 (t_2 - t_1^2)
        wp'(z)   = -f^3 (t_3 - 3 t_2 t_1 + 2 t_1^3)

    where theta_1(v) = 2 q^(1/4) sum_n (-1)^n q^(n(n+1)) sin((2n+1) v)
    (DLMF 20.2.1); the factor 2 q^(1/4) cancels.  For m > 1/2 (K > Kc)
    the nome exceeds exp(-pi).  There the rotated lattice i L -- the
    lattice of 1 - m, with w = Kc, eta = -eta2_im and nome
    exp(-pi K / Kc) -- takes over through the homogeneity relations
    zeta(z) = i zeta(iz; 1-m), sigma(z) = -i sigma(iz; 1-m),
    wp(z) = -wp(iz; 1-m) and wp'(z) = -i wp'(iz; 1-m).
    """
    if lat.K > lat.Kc:
        w, eta, ratio, rot = lat.Kc, -lat.eta2_im, lat.K / lat.Kc, 1j
    else:
        w, eta, ratio, rot = lat.K, lat.eta1, lat.Kc / lat.K, 1.0
    z = rot * z0
    v = 0.5 * math.pi * z / w
    q = math.exp(-math.pi * ratio)
    th = dth = ddth = dddth = 0j
    dth0 = 0.0
    for n in range(_THETA_TERMS):
        c = (-1) ** n * q ** (n * (n + 1))
        k = 2 * n + 1
        sin, cos = cmath.sin(k * v), cmath.cos(k * v)
        th += c * sin
        dth += c * k * cos
        ddth -= c * k * k * sin
        dddth -= c * k * k * k * cos
        dth0 += c * k
    f = 0.5 * math.pi / w
    t1, t2, t3 = dth / th, ddth / th, dddth / th
    zeta_val = eta * z / w + f * dth / th
    sigma_val = 2.0 * w / math.pi * cmath.exp(0.5 * eta * z * z / w) * th / dth0
    wp_val = -eta / w - f * f * (t2 - t1 * t1)
    wp_prime_val = -f * f * f * (t3 - 3.0 * t2 * t1 + 2.0 * t1 * t1 * t1)
    return rot * zeta_val, sigma_val / rot, rot**2 * wp_val, rot**3 * wp_prime_val


def wp(z: complex, lat: RectLattice):
    """Weierstrass p-function.  Real input returns a float, complex a complex.

    Reduced to the base cell and read off the theta_1 series of
    :func:`_theta_series`, for a real z and a complex z alike.  Arguments
    within 1e-9 of a lattice point raise :class:`PoleError`.  A z n1
    periods 2K and n2 periods 2iKc out, with |n1| ulp(2K) or |n2| ulp(2Kc)
    > 1e-9, the pole tolerance (|z| > 8.35e6 at m = 1/2), raises
    DomainError: the reduction would round the rest by more.
    """
    if lat.m == 0.0:
        return _circular(lambda w: 1.0 / cmath.sin(w) ** 2 - 1.0 / 3.0, z, lat, "wp")
    val = _theta_series(_off_pole(complex(z), lat, "wp")[0], lat)[2]
    return val if isinstance(z, complex) else val.real


def wp_prime(z: complex, lat: RectLattice):
    """Derivative of the p-function, from the same series; same input/output
    convention, poles and reduction limits as wp."""
    if lat.m == 0.0:
        return _circular(lambda w: -2.0 * cmath.cos(w) / cmath.sin(w) ** 3, z, lat, "wp_prime")
    val = _theta_series(_off_pole(complex(z), lat, "wp_prime")[0], lat)[3]
    return val if isinstance(z, complex) else val.real


def zeta(z: complex, lat: RectLattice) -> complex:
    """Weierstrass zeta on the lattice: zeta' = -wp, zeta(z) ~ 1/z at 0.

    Reduced to the base cell (accumulating 2 n1 eta1 + 2 n2 eta2), then
    evaluated from the theta_1 series of :func:`_theta_series`, with the
    poles and reduction limits of :func:`wp`.
    """
    z = complex(z)
    if lat.m == 0.0:
        return z / 3.0 + 1.0 / cmath.tan(_off_pole(z, lat, "zeta")[0])
    z0, n1, n2 = _off_pole(z, lat, "zeta")
    corr = complex(2.0 * n1 * lat.eta1, 2.0 * n2 * lat.eta2_im)
    return _theta_series(z0, lat)[0] + corr


def sigma(z: complex, lat: RectLattice) -> complex:
    """Weierstrass sigma: the entire function with sigma(z) ~ z at lattice zeros.

    Evaluated on the reduced argument from the theta_1 series of
    :func:`_theta_series`, then carried back with the quasi-periodicity

        sigma(z0 + 2 n1 w1 + 2 n2 w2)
            = (-1)^(n1 + n2 + n1 n2) exp(eta_L (z0 + L/2)) sigma(z0).

    A z too large to reduce, or where exp overflows, raises DomainError.
    """
    z = complex(z)
    try:
        if lat.m == 0.0:
            return cmath.sin(z) * cmath.exp(z * z / 6.0)
        z0, n1, n2 = _reduce(z, lat, "sigma")
        if z0 == 0.0:
            return 0.0 + 0.0j
        val = _theta_series(z0, lat)[1]
        if n1 == 0 and n2 == 0:
            return val
        L = complex(2.0 * lat.K * n1, 2.0 * lat.Kc * n2)
        eta_L = complex(2.0 * n1 * lat.eta1, 2.0 * n2 * lat.eta2_im)
        sign = -1.0 if (n1 + n2 + n1 * n2) % 2 else 1.0
        return sign * cmath.exp(eta_L * (z0 + L / 2.0)) * val
    except OverflowError:
        raise DomainError(f"sigma overflows at z = {z!r}") from None


# ---------------------------------------------------------------------------
# Inverse of wp along the boundary of the half rectangle.
# ---------------------------------------------------------------------------


class EdgeAmplitude(NamedTuple):
    """Where V sits on the boundary of the half rectangle; see :func:`wp_amplitude`.

    a = wp_inverse(V) is the arc parameter F(phi|mu) along the edge coded
    ``edge`` (an index into :data:`EDGES`), with tan phi = y / x for
    ``amplitude`` = (y, x); ``corner`` indexes :data:`CORNERS` (0: none);
    ``gaps`` is sqrt|V - e_i| for i = 1, 2, 3.  Each field is an array where V is.
    """

    edge: int
    amplitude: tuple[float, float]
    mu: float
    corner: int
    gaps: tuple[float, float, float]


def wp_amplitude(V, lat: RectLattice) -> EdgeAmplitude:
    """The edge and corner holding a = wp^-1(V), and the amplitude of a there.

    On each edge of the half rectangle sn^2, cn^2 and dn^2 of the arc
    parameter are ratios of the gaps g_i = sqrt|V - e_i|, so tan phi of
    the Jacobi amplitude phi in [0, pi/2] is the ratio y / x of the pair
    ``amplitude`` and the arc parameter is F(phi|mu) (DLMF 22.16(iii)):

        V <= e2:        a = iY,       amplitude = (1, g2),    mu = 1-m
        e2 <= V <= e3:  a = X + iKc,  amplitude = (g2, g3),   mu = m
        e3 <= V <= e1:  a = K + iY,   amplitude = (g1, g3),   mu = 1-m
        V >= e1:        a = x,        amplitude = (1, g1),    mu = m

    with X, Y or x = F(phi|mu); no angle is formed.  mu = 1-m is the float
    at which :func:`lattice` evaluates Kc, so F at g2 = 0 or g3 = 0 is
    Kc at the corners.  V = +-inf gives (1, inf), phi = 0, the pole.

    V within ``BOUNDARY_TOL`` of a corner sits on it: ``corner`` names
    the nearest, a tie going to e2 and then e3 (the double corner
    e2 = e3 of m = 0 is e2).  No other code compares V with the corners.
    V and the lattice's m are taken as :func:`.elliptic.route` decides, so an
    array of V, or a lattice of arrays, gives arrays; the decision is the same
    arithmetic, element by element.
    """
    xp, (V, _) = route(V, lat.m)
    if xp.any(xp.isnan(V)):
        raise DomainError("wp_amplitude received NaN")
    d1, d2, d3 = abs(V - lat.e1), abs(V - lat.e2), abs(V - lat.e3)
    corner = (E2 * ((d2 <= BOUNDARY_TOL) & (d2 <= d3) & (d2 <= d1))
              + E3 * ((d3 <= BOUNDARY_TOL) & (d3 < d2) & (d3 <= d1))
              + E1 * ((d1 <= BOUNDARY_TOL) & (d1 < d2) & (d1 < d3)))
    gaps = g1, g2, g3 = xp.sqrt(d1), xp.sqrt(d2), xp.sqrt(d3)
    edge = 0 + (V >= lat.e2) + (V >= lat.e3) + (V >= lat.e1)  # corners at or below V, as ints
    mc = 1.0 - lat.m
    y, x, mu = xp.choose(edge, ((1.0, g2, mc), (g2, g3, lat.m), (g1, g3, mc), (1.0, g1, lat.m)))
    return EdgeAmplitude(edge, (y, x), mu, corner, gaps)


def wp_inverse(V: float, lat: RectLattice) -> complex:
    """The point a on the boundary of the half rectangle with wp(a) = V.

    V runs over the whole real line; the inverse walks the rectangle
    boundary, going counterclockwise as V increases:

        V <= e2:        a = iY,      Y in (0, Kc]   (imaginary axis)
        e2 <= V <= e3:  a = X + iKc, X in [0, K]    (top edge)
        e3 <= V <= e1:  a = K + iY,  Y in [Kc, 0]   (right edge, Im decreasing)
        V >= e1:        a = x,       x in (0, K]    (real axis, decreasing)

    The arc parameter X, Y or x is F(phi|mu) as in :func:`wp_amplitude`.
    V = +-inf returns 0 (the pole).  V on a corner (the ``corner`` of
    :func:`wp_amplitude`) returns that corner exactly; at m = 0 the
    corner e2 = e3 lies at infinity and raises :class:`DomainError`.
    """
    edge, amplitude, mu, corner, _ = wp_amplitude(V, lat)
    if corner == E2:
        if lat.m == 0.0:
            raise DomainError(
                "wp_inverse at the double corner e2 = e3 = -1/3 lies at infinity for m = 0")
        return 1j * lat.Kc
    if corner == E3:
        return complex(lat.K, lat.Kc)
    if corner == E1:
        return complex(lat.K, 0.0)
    t = ellint_F_zeta(*amplitude, mu)[0]
    return (complex(0.0, t), complex(t, lat.Kc), complex(lat.K, t), complex(t, 0.0))[edge]
