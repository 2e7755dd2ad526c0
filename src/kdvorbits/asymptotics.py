"""Limiting forms of the orbit invariant at the edges of the (m, V) plane.

Everything in this module approximates a quantity the exact machinery
(``weierstrass``, ``orbits``) already computes; the point of having the
closed forms is that they expose *how* the bifurcation diagram behaves in
the corners -- linear growth at large |V|, square-root spikes at the wedge
corners, the non-perturbative collapse of level curves onto m = 1 -- and
that they stay cheap where the exact evaluators start to sweat.

Each operation returns an :class:`Approximation`: the value together with
the magnitude of the small parameter the expansion is built on.  Smaller
validity means a better-grounded number.  Nothing here raises merely
because an input sits outside the asymptotic regime; callers (and the
``check-asymptotics`` CLI command) are expected to look at ``validity``.

Conventions match the rest of the package: ``m`` is the squared elliptic
modulus, ``V`` the trace coordinate of the cnoidal potential, ``kc`` the
energy of the constant orbit representative in units of the central
charge, and K, E are the complete elliptic integrals for parameter m.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from typing import NamedTuple

from .errors import DomainError, PoleError, shown
from .weierstrass import BOUNDARY_TOL, lattice

__all__ = [
    "Approximation",
    "k_large_V",
    "exceptional_V_asymptote",
    "k_near_wedge",
    "one_minus_m_nonperturbative",
    "V_near_m1",
    "V_near_m0",
    "degenerate_zeta",
    "degenerate_wp",
    "K_asymptotes",
]

_SIX_PI_SQ = 6.0 * math.pi**2
_WEDGE_KC = -1.0 / 24.0


class Approximation(NamedTuple):
    """An asymptotic value paired with the small parameter that earned it.

    ``validity`` is the magnitude of the expansion parameter (1/|V|, the
    distance to a wedge edge, 1-m, ...).  It is a trust score, not an
    error bound: the error vanishes with some positive power of it, with
    an O(1) constant the formulas do not track.
    """

    value: complex
    validity: float


def k_large_V(m: float, V: float) -> Approximation:
    """Linear law kc = (K^2 V - 2 K zeta(K)) / 6 pi^2 for |V| >> 1.

    The same slope and additive constant hold on both ends V -> +-inf;
    the dropped remainder is O(1/|V|).  Validity is 1/|V|.
    """
    lat = lattice(m)
    V = float(V)
    # The slope first, so that K^2 V overflows only where the law itself does.
    value = lat.K * lat.K / _SIX_PI_SQ * V - 2.0 * lat.K * lat.eta1 / _SIX_PI_SQ
    return Approximation(value, 1.0 / abs(V) if V != 0.0 else math.inf)


def exceptional_V_asymptote(n: int, m: float) -> Approximation:
    """Depth of the n-th exceptional level curve, V ~ -pi^2 n^2 / 4 K^2.

    Good when n is large compared with K(m); the relative error decays
    like the square of the validity score 2K/(pi n).  At fixed n the
    approximation degrades as m -> 1, where K blows up.
    """
    n = int(n)
    if not 1 <= n <= sys.float_info.max:
        raise DomainError(f"index n must be a positive float-range integer, got {shown(n)}")
    lat = lattice(m)
    half_wave = math.pi * n / (2.0 * lat.K)
    return Approximation(-(half_wave * half_wave), 1.0 / half_wave)


def k_near_wedge(m: float, V: float, side: str) -> Approximation:
    """Square-root behaviour of kc just outside a wedge boundary.

    ``side`` selects the boundary explicitly -- "lower" for the edge
    V = -(m+1)/3 approached from below, "upper" for V = (2m-1)/3
    approached from above -- and a V on the wedge side of the chosen
    edge is a DomainError rather than a silent extrapolation.  On the
    boundary itself the value is exactly -1/24.  The dropped remainder
    is linear in the offset |V - V_edge|, which is also the validity.
    """
    lat = lattice(m)
    V = float(V)
    if lat.m == 0.0:
        raise DomainError("the wedge collapses to a point at m = 0")
    if side == "upper":
        edge = lat.e3
        prefactor = lat.eta1 + (4.0 * m - 2.0) * lat.K / 6.0  # = E - (1-m) K
        denom = m * (2.0 - 2.0 * m)
        outward = V - edge
    elif side == "lower":
        edge = lat.e2
        prefactor = lat.eta1 - (2.0 * m + 2.0) * lat.K / 6.0  # = E - K
        denom = 2.0 * m
        outward = edge - V
    else:
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    if outward < -BOUNDARY_TOL:
        raise DomainError(
            f"V = {V!r} lies on the wedge side of the {side} boundary (edge at {edge!r})")
    offset = abs(V - edge)
    value = _WEDGE_KC + prefactor * math.sqrt(2.0 * offset / denom) / (6.0 * math.pi)
    return Approximation(value, offset)


def one_minus_m_nonperturbative(kc: float, V: float) -> Approximation:
    """How fast a level curve with kc < -1/24 sticks to the line m = 1.

    As V -> -2/3 the curve satisfies

        1 - m ~ (16/e^2) exp[-pi (sqrt|24 kc| - 1) / sqrt|V + 2/3|],

    so small changes in V produce non-perturbative changes in m.  For the
    winding-n exceptional values kc = -n^2/24 the rate constant reduces
    to pi (n - 1).  Validity is |V + 2/3|.
    """
    kc = float(kc)
    if not kc < _WEDGE_KC:
        raise DomainError(
            f"the non-perturbative regime needs kc < -1/24, got kc = {kc!r}")
    gap = abs(float(V) + 2.0 / 3.0)
    if gap == 0.0:
        return Approximation(0.0, 0.0)
    rate = math.pi * (math.sqrt(24.0 * abs(kc)) - 1.0)
    value = 16.0 * math.exp(-2.0 - rate / math.sqrt(gap))
    return Approximation(value, gap)


def V_near_m1(kc: float, m: float) -> Approximation:
    """Level curve near m = 1 for kc > -1/24: a straight line into V = 1/3.

        V ~ 1/3 + [cosh^2(sqrt(6 pi^2 kc)) - 2/3] (1 - m),

    with the cosh turning into a cos for -1/24 < kc <= 0.  The slope is
    smallest in the limit kc -> -1/24 (where it tends to -2/3) and grows
    with kc; past kc = 2135.18, where the slope overflows, DomainError.
    Remainder O((1-m)^2); validity 1 - m.
    """
    kc = float(kc)
    m = float(m)
    if not kc > _WEDGE_KC:
        raise DomainError(f"the linear regime needs kc > -1/24, got kc = {kc!r}")
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"m must lie in [0, 1], got {m!r}")
    s = _SIX_PI_SQ * kc
    try:
        amp = math.cosh(math.sqrt(s)) if s >= 0.0 else math.cos(math.sqrt(-s))
    except OverflowError:
        amp = math.inf
    slope = amp * amp - 2.0 / 3.0
    if slope == math.inf:
        raise DomainError(f"the slope of V_near_m1 overflows at kc = {kc!r}")
    return Approximation(1.0 / 3.0 + slope * (1.0 - m), 1.0 - m)


def V_near_m0(kc: float, m: float) -> Approximation:
    """Level curve near m = 0: V ~ (1 - m/2)(24 kc + 2/3).

    Exact on the line m = 0.  The formula holds for every kc except
    kc = -1/24, where the dropped m^2 coefficient diverges (it grows
    like a negative power of |V + 1/3|); inputs within 1e-3 of that
    value trigger a RuntimeWarning.  Validity is m.
    """
    kc = float(kc)
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"m must lie in [0, 1], got {m!r}")
    if abs(kc - _WEDGE_KC) < 1e-3:
        warnings.warn(
            "V_near_m0 loses accuracy near kc = -1/24: the dropped m^2 "
            "coefficient diverges there",
            RuntimeWarning, stacklevel=2)
    return Approximation((1.0 - 0.5 * m) * (24.0 * kc + 2.0 / 3.0), m)


def _degenerate_pieces(z: complex, m: float, end: str):
    """Half-period geometry shared by the degenerate zeta/wp forms.

    Returns (finite half-period, w, pi w / (2 half), squared nome, rotation),
    w = rotation(z).  The squared nome exp(2 pi i w2/w1) is the exponentially
    small parameter of the first lattice-sum correction and the validity
    score.  The forms are written for m_to_0; m_to_1 is the same form at w = iz
    with K and K' exchanged (zeta(z) = i zeta(iz; 1-m), wp(z) = -wp(iz; 1-m)).
    The m_to_0 rotation is the identity: 1 * value would turn inf + nan j to nan.
    """
    lat = lattice(m)
    if end == "m_to_0":
        half, diverging, rotate = lat.K, lat.Kc, (lambda w: w)
    elif end == "m_to_1":
        half, diverging, rotate = lat.Kc, lat.K, (lambda w: 1j * w)
    else:
        raise DomainError(f"end must be 'm_to_0' or 'm_to_1', got {end!r}")
    # exp(-2 pi K'/K) underflows to a clean 0.0 at the exact endpoint,
    # where Kc (resp. K) is infinite and the trig form becomes exact.
    nome_sq = math.exp(-2.0 * math.pi * diverging / half) if half != math.inf else math.nan
    if math.isnan(nome_sq):
        raise DomainError(f"the {end} form needs a finite period; got m = {m!r}")
    w = rotate(z)
    return half, w, math.pi * w / (2.0 * half), nome_sq, rotate


def degenerate_zeta(z: complex, m: float, end: str) -> Approximation:
    """Weierstrass zeta with one period sent to infinity.

    For ``end="m_to_0"`` (imaginary period diverging) the function
    collapses onto a cotangent plus an exponentially small correction::

        zeta(z) ~ (pi^2/4K^2) [z/3 + (2K/pi) cot(pi z/2K)
                               - 8 (z - (K/pi) sin(pi z/K)) q^2],

    with q^2 = exp(-2 pi K'/K); ``end="m_to_1"`` is i times the same form
    at iz with K and K' exchanged, the hyperbolic counterpart with
    q^2 = exp(-2 pi K/K').  The correction keeps the error at O(q^4).
    Validity is q^2 itself.  A z where sin overflows raises DomainError.
    """
    z = complex(z)
    half, w, u, nome_sq, rotate = _degenerate_pieces(z, m, end)
    scale = math.pi**2 / (4.0 * half * half)
    try:
        s = cmath.sin(u)
        if s == 0.0:
            raise PoleError(f"z = {z!r} is a pole of the degenerate zeta form")
        value = scale * (w / 3.0 + (2.0 * half / math.pi) * cmath.cos(u) / s
                         - 8.0 * (w - (half / math.pi) * cmath.sin(2.0 * u)) * nome_sq)
    except OverflowError:
        raise DomainError(f"the degenerate zeta form overflows at z = {z!r}") from None
    return Approximation(rotate(value), nome_sq)


def degenerate_wp(z: complex, m: float, end: str) -> Approximation:
    """Weierstrass wp with one period sent to infinity.

    Minus the derivative of :func:`degenerate_zeta`, term by term:
    1/sin^2 plus the same exponentially small lattice correction, error
    O(q^4); ``end="m_to_1"`` is minus the form at iz with K and K'
    exchanged, 1/sinh^2.  Validity is q^2.  A z whose sin^2 underflows to
    0 is a pole; one where it overflows raises DomainError.
    """
    z = complex(z)
    half, w, u, nome_sq, rotate = _degenerate_pieces(z, m, end)
    scale = math.pi**2 / (4.0 * half * half)
    try:
        s = cmath.sin(u)
        if s * s == 0.0:
            raise PoleError(f"z = {z!r} is a pole of the degenerate wp form")
        value = scale * (-1.0 / 3.0 + 1.0 / (s * s) + 8.0 * (1.0 - cmath.cos(2.0 * u)) * nome_sq)
    except OverflowError:
        raise DomainError(f"the degenerate wp form overflows at z = {z!r}") from None
    return Approximation(rotate(rotate(value)), nome_sq)


def K_asymptotes(m: float) -> tuple[Approximation, Approximation]:
    """The two complete elliptic integrals near m = 1.

    Returns approximations for K(m) and for its complement K(1-m):

        K(m)   ~ log(4 / sqrt(1-m))        + O((1-m) log(1-m)),
        K(1-m) ~ (pi/2) (1 + (1-m)/4)      + O((1-m)^2).

    The real half-period diverges logarithmically while the imaginary
    one stays finite; both validities are 1 - m.
    """
    m = float(m)
    if not 0.0 < m < 1.0:
        raise DomainError(f"K_asymptotes expects 0 < m < 1, got {m!r}")
    gap = 1.0 - m
    big = math.log(4.0) - 0.5 * math.log(gap)
    small = 0.5 * math.pi * (1.0 + 0.25 * gap)
    return Approximation(big, gap), Approximation(small, gap)
