"""Monodromy and coadjoint-orbit classification of cnoidal Hill potentials.

A cnoidal wave with parameters (m, V) determines a Hill operator whose
monodromy is known in closed form: with ``a = wp_inverse(V)`` on the
boundary of the half fundamental rectangle, the half Floquet exponent is

    w = K zeta(a) - eta1 a,

the trace of the monodromy is 2 cosh(2w), and the orbit invariant is
kc = w^2 / (6 pi^2) (the energy of the constant representative, in units
of the central charge).

On each of the four edges of the rectangle w is purely imaginary, or
real up to the constant -i pi/2, so one real edge exponent carries it.
Let phi and mu be the amplitude and parameter of a on its edge, with tan phi
a ratio of the gaps g_i = sqrt|V - e_i| (:func:`.weierstrass.wp_amplitude`),
and F = F(phi|mu) and Z = Z(phi|mu) Legendre's integral and Jacobi's zeta,
both from one angle-free :func:`.elliptic.ellint_F_zeta` on that ratio:

    right edge (band,   e3 < V < e1, mu = 1-m):  w = -i phi_w,
        phi_w = K Z + (pi/2) F / Kc
    imaginary axis (below the wedge, V < e2, mu = 1-m):  w = -i phi_w,
        phi_w = K Z + (pi/2) F / Kc + K g2 g3 / g1
    top edge (inside the wedge, e2 < V < e3, mu = m):  w = rho - i pi/2,
        rho = K Z
    real axis (above the spectrum, V > e1, mu = m):  w = rho,
        rho = K Z + K g1 g3 / g2

F is the arc parameter u of a along its edge, and the last terms are
K cn dn / sn at u.  Where mu = 1-m, Legendre's relation (DLMF 19.7.1)
turns K E(phi|mu) - (K - E) F into K Z + (pi/2) F / Kc: pi/2 at both
wedge corners (phi = pi/2), and F / Kc = 0 at m = 0 (Kc = inf).  One
evaluation of the exponent gives :func:`orbit_data` the trace, kc and
the orbit class; working edge-by-edge in real arithmetic keeps the
trichotomy |trace| < 2 / = 2 / > 2 exact, which the classifier relies on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import FLOAT, agm_chain, ellint_F_zeta, jacobi, route
from .errors import DomainError, InsideWedgeError, NumericalError
from .profiles import Profile
from .weierstrass import (BOUNDARY_TOL, E1, IMAGINARY, REAL, RIGHT, TOP, EdgeAmplitude,
                          RectLattice, lattice, wp_amplitude)

__all__ = [
    "OrbitKind",
    "OrbitClass",
    "OrbitData",
    "UniformRepresentative",
    "orbit_data",
    "monodromy_trace",
    "uniform_representative",
    "classify",
    "winding_from_kc",
    "constant_trace",
    "dk_dV",
    "level_curve",
    "cnoidal_profile",
    "cnoidal_speed",
]

_SIX_PI_SQ = 6.0 * math.pi**2

# Snap width used when flooring nearly-integer winding ratios; must stay
# well below the 1e-9 offsets the classifier is specified to resolve.
_FLOOR_SNAP = 4e-12

_NEWTON_CAP = 400  # level_curve steps before it gives up
_S_MAX = math.sqrt(sys.float_info.max)  # the largest gap s with c -+ s^2 finite

class OrbitKind(str, Enum):
    ELLIPTIC = "Elliptic"
    HYPERBOLIC = "Hyperbolic"
    PARABOLIC = "Parabolic"
    EXCEPTIONAL = "Exceptional"


@dataclass(frozen=True)
class OrbitClass:
    """A coadjoint-orbit label: the class of the monodromy plus a winding."""

    kind: OrbitKind
    winding: int

    def __str__(self) -> str:  # e.g. "Elliptic(n=2)"
        return f"{self.kind.value}(n={self.winding})"


class UniformRepresentative(NamedTuple):
    """Energy kc of the constant orbit representative, in units of c.

    ``kc`` is complex: inside the wedge the orbit contains no constant
    (rest-frame) potential and the analytic continuation picks up an
    imaginary part; ``has_rest_frame`` records that distinction.
    """

    kc: complex
    has_rest_frame: bool


class OrbitData(NamedTuple):
    """Monodromy trace, constant representative and orbit class of one wave."""

    trace: float
    kc: complex
    has_rest_frame: bool
    orbit: OrbitClass


def _edge_exponent(lat: RectLattice, amp: EdgeAmplitude, chain=None):
    """The real edge exponent of V on its edge: phi_w or rho.

    phi_w = |Im w| below the wedge and on the band, rho = Re w inside
    and above it, in the forms of the module docstring: sums of
    non-negative terms, with K cn dn / sn as a product of gaps, so nothing
    cancels and no small sn or gap divides, on a corner too (only m = 0's
    double corner gives nan).  The same arithmetic serves floats and
    arrays: off its edge a term is a zero, a gap times False over 1.  ``chain``
    may be the :func:`.elliptic.agm_chain` of the amplitude's mu.
    """
    edge, amplitude, mu, _, (g1, g2, g3) = amp
    F, Z = ellint_F_zeta(*amplitude, chain or mu)
    below, above = edge == IMAGINARY, edge == REAL
    x = lat.K * Z + (edge % 2 == 0) * (0.5 * math.pi * F / lat.Kc)  # where mu = 1 - m
    return x + lat.K * (below * g2 + above * g1) * (g3 / (below * g1 + above * g2
                                                          + (edge % 3 != 0)))


def _square_over_six_pi_sq(x, xp):
    """x^2 / (6 pi^2); past |x| ~ 1e154, where x*x overflows, divided first."""
    square = x * x
    return xp.where(square == math.inf, x * (x / _SIX_PI_SQ), square / _SIX_PI_SQ)


def _root_times(k: float, kc: float) -> float:
    """sqrt(k |kc|); where k |kc| overflows (|kc| past about 1e307), the roots apart."""
    root = math.sqrt(k * abs(kc))
    return math.sqrt(k) * math.sqrt(abs(kc)) if math.isinf(root) else root


def _floor_snap(x, xp):
    """floor(x), or the integer within _FLOOR_SNAP of x; an int for a float."""
    near = xp.round(x)
    return xp.where(abs(x - near) < _FLOOR_SNAP, near, xp.floor(x))


@lru_cache(maxsize=256)  # a diagram holds a few dozen; windings grow without bound
def _orbit_class(kind, winding) -> OrbitClass:
    """The class of OrbitKind number ``kind`` and ``winding``, each an int or a float."""
    return OrbitClass(list(OrbitKind)[int(kind)], int(winding))


def orbit_data(m, V) -> OrbitData:
    """Trace 2 cosh(2w), kc = w^2/(6 pi^2) and orbit class of the wave (m, V).

    One lattice lookup, one :func:`.weierstrass.wp_amplitude` (the edge
    and corner of V) and one evaluation of the edge exponent x.  The
    trace is independent of the central charge and kc is in its units;
    n is the winding:

        wedge edges:      -2,          -1/24 exactly,          Exceptional(n = 1)
        below the wedge:  2 cos 2x,    -x^2/(6 pi^2),          Elliptic(n = floor(2x/pi))
        inside the wedge: -2 cosh 2x,  (x^2 - pi^2/4)/(6 pi^2) - i x/(6 pi),
                                       no rest frame,          Hyperbolic(n = 1)
        band e3 < V < e1: 2 cos 2x,    -x^2/(6 pi^2),          Elliptic(n = 0)
        V = e1:           2,           0 exactly,              Parabolic(n = 0)
        above e1:         2 cosh 2x,   x^2/(6 pi^2),           Hyperbolic(n = 0)

    floor(2x/pi) = floor(sqrt(24 |kc|)) >= 1.  The cosh traces are +inf
    once they overflow (|V| above about 1e5).  m may be its lattice(m).

    One body, for the element type :func:`.elliptic.route` picks: a float runs
    it through ``math``.  Arrays m and V, broadcast together, give arrays of that
    shape (orbit: OrbitClass objects) from one lattice over the distinct m (or the
    lattice given) in one numpy pass, which forms every column of the table on
    every cell (cosh through math, on the hyperbolic cells alone) and picks each
    cell's row, so each cell is its scalar call.  The first invalid cell raises.
    """
    lat = m if isinstance(m, RectLattice) else None
    xp, (m, V) = route(lat.m if lat else m, V)
    ok = (m >= 0.0) & (m < 1.0) & (abs(V) < math.inf)
    if not xp.all(ok):  # the first invalid cell raises its error
        m, V = xp.first_failing(ok, m, V)
        lattice(m)
        raise DomainError(f"V must be finite, got {V!r}")
    if lat is None and xp is FLOAT:
        lat = lattice(m)
    elif lat is None:  # one lattice over the distinct m, gathered to the cells
        distinct, where = np.unique(m, return_inverse=True)
        lat = RectLattice(*(v[where].reshape(m.shape) for v in vars(lattice(distinct)).values()))
    amp = wp_amplitude(V, lat)
    case = xp.where(amp.corner, 3 + amp.corner, amp.edge)  # the four edges, then e2, e3, e1
    with xp.errstate(all="ignore"):  # nan x on m = 0's double corner, columns not picked overflow
        x = 0.0 if xp is FLOAT and amp.corner else _edge_exponent(lat, amp)  # a corner reads no x
        square, top = _square_over_six_pi_sq(x, xp), (x * x - math.pi**2 / 4.0) / _SIX_PI_SQ
        cos, cosh = 2.0 * xp.cos(2.0 * x), 2.0 * xp.cosh(2.0 * x, (case == TOP) | (case == REAL))
        turns = _floor_snap(xp.where(case == IMAGINARY, 2.0 * x / math.pi, 0.0), xp)
        imag = xp.where(case == TOP, -x / (6.0 * math.pi), 0.0)
    trace, real, kind, winding = xp.choose(case, (  # trace, Re kc, OrbitKind number, winding
        (cos, -square, 0, turns), (-cosh, top, 1, 1), (cos, -square, 0, 0), (cosh, square, 1, 0),
        (-2.0, -1.0 / 24.0, 3, 1), (-2.0, -1.0 / 24.0, 3, 1), (2.0, 0.0, 2, 0)))  # e2, e3, e1
    return OrbitData(trace, xp.complex(real, imag), case != TOP,
                     xp.distinct(_orbit_class, kind, winding))


def monodromy_trace(m: float, V: float) -> float:
    """Trace of the Hill monodromy of the cnoidal wave (m, V); see :func:`orbit_data`."""
    return orbit_data(m, V).trace


def uniform_representative(m: float, V: float) -> UniformRepresentative:
    """kc = w^2/(6 pi^2), the constant representative of the orbit of (m, V).

    Real except inside the wedge, where no rest frame exists; see
    :func:`orbit_data`.
    """
    data = orbit_data(m, V)
    return UniformRepresentative(data.kc, data.has_rest_frame)


def classify(m: float, V: float) -> OrbitClass:
    """The coadjoint-orbit class of the cnoidal wave (m, V); see :func:`orbit_data`."""
    return orbit_data(m, V).orbit


def winding_from_kc(kc: float) -> int:
    """Winding number floor(sqrt(24 |kc|)) of an elliptic orbit with kc <= 0."""
    kc = float(kc)
    if math.isnan(kc) or kc > 0.0:
        raise DomainError(f"winding_from_kc requires kc <= 0, got {kc!r}")
    return _floor_snap(_root_times(24.0, kc), FLOAT)


def constant_trace(kc: float) -> float:
    """Monodromy trace of the constant potential p = kc * c.

    2 cosh(2 pi sqrt(6 kc)) for kc >= 0 (+inf once it overflows), turning
    into 2 cos(2 pi sqrt(6 |kc|)) for kc < 0.
    """
    kc = float(kc)
    if kc >= 0.0:
        return 2.0 * FLOAT.cosh(2.0 * math.pi * _root_times(6.0, kc))
    return 2.0 * math.cos(2.0 * math.pi * _root_times(6.0, kc))


def _dx_dV(lat: RectLattice, amp: EdgeAmplitude, V):
    """dx/dV of the edge exponent x of :func:`_edge_exponent`, off the corners.

    zeta' = -wp gives dw/da = -(K V + eta1), and dV = wp'(a) da with
    |wp'(a)| = 2 g1 g2 g3, so dx/dV = (K V + eta1) / (2 g1 g2 g3) below
    and above the wedge and its negative on the band.  K (V / g1) keeps
    |V| near the float limit from overflowing.  Floats or arrays.
    """
    g1, g2, g3 = amp.gaps
    rate = (lat.K * (V / g1) + lat.eta1 / g1) / g2 / g3 / 2.0
    return rate * (1 - 2 * (amp.edge == RIGHT))


def dk_dV(m: float, V: float) -> float:
    """Derivative d(kc)/dV along fixed m, in units of the central charge.

    kc = +-x^2 / (6 pi^2) for the edge exponent x of :func:`orbit_data`
    (+ above the wedge, - below it and on the band), so
    d(kc)/dV = +-x (dx/dV) / (3 pi^2) with dx/dV = +-(K V + eta1) / (2 g1 g2 g3).

    wp' vanishes at the corners: the derivative diverges (+inf is
    returned) on the wedge edges, while at V = e1 the limit is finite,
    E(m)^2 / (6 pi^2 (1 - m)).  Inside the wedge kc is not real and the
    one-dimensional derivative is undefined (:class:`InsideWedgeError`).
    """
    lat = lattice(m)
    if not math.isfinite(V):
        raise DomainError(f"V must be finite, got {V!r}")
    amp = wp_amplitude(V, lat)
    if amp.corner == E1:
        return lat.E**2 / (_SIX_PI_SQ * (1.0 - lat.m))
    if amp.corner:
        return math.inf
    if amp.edge == TOP:
        raise InsideWedgeError(
            "d(kc)/dV is undefined inside the wedge (kc is not real there)")
    slope = 2.0 * _edge_exponent(lat, amp) * _dx_dV(lat, amp, V) / _SIX_PI_SQ
    return slope if amp.edge == REAL else -slope


def level_curve(target_kc: float, m, region: str):
    """Solve kc(m, V) = target_kc for V on one side of the wedge.

    ``region`` is "below_wedge" (requires target_kc <= -1/24; returns
    V <= e2) or "above_wedge" (requires target_kc >= -1/24; returns
    V >= e3).  Exactly -1/24 returns the corresponding wedge edge.

    Newton steps solve x = sqrt(6 pi^2 |kc|) for the edge exponent x of
    :func:`orbit_data` in the gap s = sqrt|V - c| from a corner c
    (V = e2 - s^2 below the wedge, e1 -+ s^2 on the band and above it),
    in which x rises smoothly, like K s far out; dx/ds = 2 s |dx/dV|.
    A step that would leave the bracket on s bisects it, or doubles s
    while it is open above; the search stops once x is within 4 ulp of
    its target, the rounding floor, or a step leaves V as it is.  A target
    between a corner's own value and x at the first float past its snap
    band (|V - c| > BOUNDARY_TOL, where :func:`orbit_data` stops returning
    the corner) resolves to the corner.  Measured, that is kc within 5e-8
    of -1/24 and 7e-14 of 0 at m = 1/2, widening as m -> 1 to 1e-6 below
    e2 and 0.4 above e1 at 1 - m = 2^-52.  A band covered by the two snap
    bands is split at its midpoint.  Any other V must reproduce kc to
    max(1e-10 max(1, |kc|), 4 |dk_dV| ulp(V)), the kc step between
    adjacent floats; a target beyond every finite V raises DomainError.

    A float m gives a float, and an array of m an array of V of its shape, as
    :func:`.elliptic.route` decides.  The search is written once: a float m
    runs it through ``math``, and an array as one masked numpy pass over every
    m, on one array lattice and one AGM chain of the edge's mu, with one
    evaluation of the exponents per Newton step.  Each m stops on its own
    tests, so each V is its scalar call's bit for bit, and the first failing m
    in row order raises the error of its scalar call.
    """
    target_kc = float(target_kc)
    xp, (m,) = route(m)
    if xp is FLOAT:
        V, state = _level_search(target_kc, m, region, FLOAT)
        if state == _RUNAWAY:
            raise DomainError(f"no finite V has kc = {target_kc!r} at m = "
                              f"{m if lattice(m).m else 0!r}")
        if state != _DONE:
            raise NumericalError(_FAILURES[state], abscissa=V)
        return V
    if not m.size:  # no m, so none fails
        return m.copy()
    valid = (m >= 0.0) & (m < 1.0)  # an invalid m fails in its row, on a stand-in lattice
    try:
        with np.errstate(all="ignore"):  # the float route's inf and nan pass silently too
            V, state = _level_search(target_kc, np.where(valid, m, 0.5), region, xp)
    except DomainError:  # the target or the region, which the first m reports as alone
        level_curve(target_kc, float(m.flat[0]), region)
        raise
    failed = (state != _DONE) | ~valid
    if failed.any():  # the first failing m raises its error
        level_curve(target_kc, *xp.first_failing(~failed, m), region)
    return V


# The state of an m in the search of level_curve: searching, solved, or failed.
_LIVE, _DONE, _RUNAWAY, _UNCONVERGED, _UNVERIFIED = range(5)
_FAILURES = {_UNCONVERGED: "level-curve search did not converge",
             _UNVERIFIED: "level-curve solve failed verification"}


def _level_search(target_kc: float, m, region: str, xp):
    """The search of :func:`level_curve` at a float m (xp = FLOAT) or an array
    of valid m (xp = ARRAY): V and the state of each m, of m's shape."""
    if not math.isfinite(target_kc):
        raise DomainError(f"target kc must be finite, got {target_kc!r}")
    lat, boundary = lattice(m), -1.0 / 24.0
    if region == "below_wedge":
        if target_kc > boundary + BOUNDARY_TOL:
            raise DomainError(
                f"kc = {target_kc!r} has no solution below the wedge (needs kc <= -1/24)")
        if abs(target_kc - boundary) <= BOUNDARY_TOL:
            return lat.e2, _DONE
        corner, side = lat.e2, -1.0
    elif region == "above_wedge":
        if target_kc < boundary - BOUNDARY_TOL:
            raise DomainError(
                f"kc = {target_kc!r} has no solution above the wedge (needs kc >= -1/24)")
        if abs(target_kc - boundary) <= BOUNDARY_TOL:
            return lat.e3, _DONE
        if target_kc == 0.0:
            return lat.e1, _DONE
        corner, side = lat.e1, math.copysign(1.0, target_kc)
    else:
        raise DomainError(f"region must be 'below_wedge' or 'above_wedge', got {region!r}")
    flat = 2.0 / 3.0 + 24.0 * target_kc  # V at m = 0
    V = xp.where(lat.m == 0.0, flat, corner)
    state = xp.where(lat.m == 0.0, _RUNAWAY if math.isinf(flat) else _DONE, _LIVE)
    live = state == _LIVE
    target = _root_times(_SIX_PI_SQ, target_kc)
    chain = agm_chain(lat.m if side > 0.0 else 1.0 - lat.m)  # the mu of every V searched

    # The first floats past the snap bands bound the search; a target short
    # of x there resolves to the corner.  An m that has stopped idles at near.
    near, far = xp.nextafter(corner + side * BOUNDARY_TOL, side * math.inf), math.inf
    if region == "above_wedge" and side < 0.0 and xp.any(live):  # on the band
        far = xp.nextafter(lat.e3 + BOUNDARY_TOL, math.inf)
        covered = far >= near  # the two snap bands cover the band: its midpoint
        near = xp.where(covered, 0.5 * (lat.e1 + lat.e3), near)
        far = xp.where(covered, near, far)
        to_e3 = live & (target >= _edge_exponent(lat, wp_amplitude(far, lat), chain))
        V, state = xp.where(to_e3, lat.e3, V), xp.where(to_e3, _DONE, state)
        live = state == _LIVE
    if xp.any(live):
        to_corner = live & (target <= _edge_exponent(lat, wp_amplitude(near, lat), chain))
        V, state = xp.where(to_corner, corner, V), xp.where(to_corner, _DONE, state)
        live = state == _LIVE

    lo, hi = xp.sqrt(abs(near - corner)), xp.sqrt(abs(far - corner))
    s = xp.minimum(xp.minimum(xp.maximum(target / lat.K, lo), hi), _S_MAX)
    searched, x, rate = live, V, V  # x and dx/dV at V, once searched
    floor = 4.0 * math.ulp(target)  # x this close to the target has settled
    for _ in range(_NEWTON_CAP):
        if not xp.any(live):
            break
        V = xp.where(live, corner + side * s * s, V)
        at = xp.where(live, V, near)
        amp = wp_amplitude(at, lat)
        x = xp.where(live, _edge_exponent(lat, amp, chain), x)
        rate = xp.where(live, _dx_dV(lat, amp, at), rate)
        below = x < target
        lo, hi = xp.where(below, s, lo), xp.where(below, hi, s)
        step = s - (x - target) / (2.0 * side * s * rate)
        step = xp.minimum(xp.where((lo < step) & (step < hi), step,
                                   xp.where(hi < math.inf, 0.5 * (lo + hi), 2.0 * s)), _S_MAX)
        runaway = below & (s == _S_MAX)  # x short of the target at the largest gap
        settled = (abs(x - target) <= floor) | (corner + side * step * step == V)
        state = xp.where(live, xp.where(runaway, _RUNAWAY, xp.where(settled, _DONE, _LIVE)),
                         state)
        s, live = step, state == _LIVE
    state = xp.where(live, _UNCONVERGED, state)

    # orbit_data's kc at V, from the exponent it would evaluate there
    error = abs(side * _square_over_six_pi_sq(x, xp) - target_kc)
    slack = 8.0 * abs(x * rate) / _SIX_PI_SQ * xp.ulp(V)  # 4 |dk_dV| ulp(V)
    verified = (error <= 1e-10 * max(1.0, abs(target_kc))) | (error <= slack)
    return V, xp.where(searched & (state == _DONE), xp.where(verified, _DONE, _UNVERIFIED), state)


# ---------------------------------------------------------------------------
# The cnoidal profile itself.
# ---------------------------------------------------------------------------


def cnoidal_profile(m: float, V: float, c: float, tau: float = 0.0,
                    n: int = 512) -> Profile:
    """The 2pi-periodic cnoidal Hill potential with parameters (m, V).

    p(x, tau) = (c K^2 / 3 pi^2) [ V/2 - (m+1)/3 + m sn^2(K (x - v tau) / pi | m) ]

    with v = :func:`cnoidal_speed`: under KdV the wave translates rigidly,
    so ``tau`` just shifts the profile.  At m = 0 this degenerates to the
    constant c (V/2 - 1/3)/12.
    """
    if not math.isfinite(c):
        raise DomainError(f"central charge must be finite, got {c!r}")
    lat = lattice(m)
    K = lat.K
    amp = c * K * K / (3.0 * math.pi**2)
    offset = 0.5 * V - (m + 1.0) / 3.0
    shift = cnoidal_speed(m, V, c) * tau

    def evaluate(x):
        s = jacobi((np.asarray(x, float) - shift) * (K / math.pi), m).sn
        return amp * (offset + m * s * s)

    return Profile.from_callable(evaluate, n=n)


def cnoidal_speed(m: float, V: float, c: float) -> float:
    """Propagation speed of the cnoidal wave under KdV: v = c K^2 V / (2 pi^2)."""
    K = lattice(m).K
    return c * K * K * V / (2.0 * math.pi**2)
