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
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import ellint_F_zeta, jacobi
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
_LATTICE_FIELDS = [f.name for f in fields(RectLattice)]

# Snap width used when flooring nearly-integer winding ratios; must stay
# well below the 1e-9 offsets the classifier is specified to resolve.
_FLOOR_SNAP = 4e-12

_NEWTON_CAP = 400  # level_curve steps before it gives up
_FEW_ROWS = 12  # level_curve rows below which numpy's per-call cost outruns an array pass
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


def _edge_exponent(lat: RectLattice, amp: EdgeAmplitude):
    """The real edge exponent of V off the corners: phi_w or rho.

    phi_w = |Im w| below the wedge and on the band, rho = Re w inside
    and above it, in the forms of the module docstring: sums of
    non-negative terms, with K cn dn / sn as a product of gaps, so nothing
    cancels and no small sn divides as V nears a corner.  The same
    arithmetic serves floats and arrays: off its edge a term is a zero, a
    gap times False over a denominator of 1.
    """
    edge, amplitude, mu, _, (g1, g2, g3) = amp
    F, Z = ellint_F_zeta(*amplitude, mu)
    below, above = edge == IMAGINARY, edge == REAL
    x = lat.K * Z + (edge % 2 == 0) * (0.5 * math.pi * F / lat.Kc)  # where mu = 1 - m
    return x + lat.K * (below * g2 + above * g1) * (g3 / (below * g1 + above * g2
                                                          + (edge % 3 != 0)))


def _two_cosh(x: float) -> float:
    """2 cosh(x), +inf once cosh overflows."""
    try:
        return 2.0 * math.cosh(x)
    except OverflowError:
        return math.inf


def _square_over_six_pi_sq(x: float) -> float:
    """x^2 / (6 pi^2); past |x| ~ 1e154, where x*x overflows, divided first."""
    square = x * x
    if math.isinf(square):
        return x * (x / _SIX_PI_SQ)
    return square / _SIX_PI_SQ


def _floor_snap(x: float) -> int:
    r = round(x)
    if abs(x - r) < _FLOOR_SNAP:
        return int(r)
    return math.floor(x)


@lru_cache(maxsize=256)  # a diagram holds a few dozen; windings grow without bound
def _orbit_class(kind: OrbitKind, winding: int) -> OrbitClass:
    return OrbitClass(kind, winding)


_PARABOLIC = OrbitData(2.0, 0.0 + 0.0j, True, _orbit_class(OrbitKind.PARABOLIC, 0))
_EXCEPTIONAL = OrbitData(-2.0, complex(-1.0 / 24.0, 0.0), True,
                         _orbit_class(OrbitKind.EXCEPTIONAL, 1))


def _orbit_on_edge(edge: int, x: float) -> OrbitData:
    """The orbit data of edge exponent x on an edge, off the corners."""
    if edge == TOP:
        kc = complex((x * x - math.pi**2 / 4.0) / _SIX_PI_SQ, -x / (6.0 * math.pi))
        return OrbitData(-_two_cosh(2.0 * x), kc, False,
                         _orbit_class(OrbitKind.HYPERBOLIC, 1))
    if edge == REAL:
        return OrbitData(_two_cosh(2.0 * x), complex(_square_over_six_pi_sq(x), 0.0),
                         True, _orbit_class(OrbitKind.HYPERBOLIC, 0))
    winding = _floor_snap(2.0 * x / math.pi) if edge == IMAGINARY else 0
    return OrbitData(2.0 * math.cos(2.0 * x), complex(-_square_over_six_pi_sq(x), 0.0),
                     True, _orbit_class(OrbitKind.ELLIPTIC, winding))


def orbit_data(m, V) -> OrbitData:
    """Trace 2 cosh(2w), kc = w^2/(6 pi^2) and orbit class of the wave (m, V).

    One lattice lookup, one :func:`.weierstrass.wp_amplitude` (the edge
    and corner of V) and at most one evaluation of the edge exponent x.
    The trace is independent of the central charge and kc is in its
    units; n is the winding:

        wedge edges:      -2,          -1/24 exactly,          Exceptional(n = 1)
        below the wedge:  2 cos 2x,    -x^2/(6 pi^2),          Elliptic(n = floor(2x/pi))
        inside the wedge: -2 cosh 2x,  (x^2 - pi^2/4)/(6 pi^2) - i x/(6 pi),
                                       no rest frame,          Hyperbolic(n = 1)
        band e3 < V < e1: 2 cos 2x,    -x^2/(6 pi^2),          Elliptic(n = 0)
        V = e1:           2,           0 exactly,              Parabolic(n = 0)
        above e1:         2 cosh 2x,   x^2/(6 pi^2),           Hyperbolic(n = 0)

    floor(2x/pi) = floor(sqrt(24 |kc|)) >= 1.  The cosh traces are +inf
    once they overflow (|V| above about 1e5).

    Arrays m and V, broadcast together, give arrays of that shape (orbit:
    OrbitClass objects) from one wp_amplitude and one ellint_F_zeta over
    the grid; cos, cosh and the floor go through math, so each cell is its
    scalar call bit for bit, and the first invalid cell raises its error.
    """
    if isinstance(m, np.ndarray) or isinstance(V, np.ndarray):
        return _orbit_data_array(*np.broadcast_arrays(np.asarray(m, dtype=float),
                                                      np.asarray(V, dtype=float)))
    lat = lattice(m)
    if not math.isfinite(V):
        raise DomainError(f"V must be finite, got {V!r}")
    amp = wp_amplitude(V, lat)
    if amp.corner:
        return _PARABOLIC if amp.corner == E1 else _EXCEPTIONAL
    return _orbit_on_edge(amp.edge, _edge_exponent(lat, amp))


def _orbit_data_array(m: np.ndarray, V: np.ndarray) -> OrbitData:
    bad = ~((m >= 0.0) & (m < 1.0) & np.isfinite(V))
    if bad.any():
        orbit_data(float(m.flat[np.argmax(bad)]), float(V.flat[np.argmax(bad)]))
    lat = lattice(m)
    amp = wp_amplitude(V, lat)
    with np.errstate(divide="ignore", invalid="ignore"):  # gaps vanish on the corners
        x = _edge_exponent(lat, amp).ravel().tolist()
    cells = [(_PARABOLIC if corner == E1 else _EXCEPTIONAL) if corner else _orbit_on_edge(edge, x_i)
             for corner, edge, x_i in zip(amp.corner.ravel().tolist(), amp.edge.ravel().tolist(), x)]
    columns = list(zip(*cells)) or [()] * 4
    return OrbitData(*(np.array(column, dtype=kind).reshape(m.shape)
                       for column, kind in zip(columns, (float, complex, bool, object))))


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
    return _floor_snap(math.sqrt(-24.0 * kc))


def constant_trace(kc: float) -> float:
    """Monodromy trace of the constant potential p = kc * c.

    2 cosh(2 pi sqrt(6 kc)) for kc >= 0, turning into
    2 cos(2 pi sqrt(6 |kc|)) for kc < 0.
    """
    kc = float(kc)
    if kc >= 0.0:
        return 2.0 * math.cosh(2.0 * math.pi * math.sqrt(6.0 * kc))
    return 2.0 * math.cos(2.0 * math.pi * math.sqrt(-6.0 * kc))


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
    while it is open above; the search stops once a step leaves V as it
    is.  A target between a corner's own value and x at the first float
    past its snap band (|V - c| > BOUNDARY_TOL, where :func:`orbit_data`
    stops returning the corner) resolves to the corner.  Measured, that
    is kc within 5e-8 of -1/24 and 7e-14 of 0 at m = 1/2, widening as
    m -> 1 to 1e-6 below e2 and 0.4 above e1 at 1 - m = 2^-52.  A band
    covered by the two snap bands is split at its midpoint.  Any
    other V must reproduce kc to
    max(1e-10 max(1, |kc|), 4 |dk_dV| ulp(V)), the kc step between
    adjacent floats; a target beyond every finite V raises DomainError.

    An array of m gives an array of V: every m runs this Newton iteration
    (:func:`_level_row`) with its own bracket and exits, on one array
    lattice (:func:`.weierstrass.lattice`), so each V is that
    of its scalar call bit for bit, and the first failing m in row order
    raises its error.  While many rows are live, one array pass evaluates
    the exponents of a step for all of them.
    """
    target_kc = float(target_kc)
    scalar = isinstance(m, float) or np.ndim(m) == 0
    ms = [m] if scalar else np.asarray(m, dtype=float).ravel().tolist()
    table, lats = None, [None] * len(ms)  # None: the row builds its own lattice, or raises
    if not scalar:
        valid = [0.0 <= m_i < 1.0 for m_i in ms]
        table = lattice(np.where(valid, ms, 0.0))
        lats = [RectLattice(*fields) if ok else None for ok, fields in
                zip(valid, zip(*(getattr(table, f).tolist() for f in _LATTICE_FIELDS)))]
    rows, asks = [], []
    for m_i, lat in zip(ms, lats):
        rows.append(_level_row(target_kc, m_i, region, lat))
        asks.append(next(rows[-1]))
        if asks[-1][0] == _FAILED:  # the rows after it cannot report first
            break
    live = [i for i, ask in enumerate(asks) if ask[0] < _DONE]
    while len(live) > _FEW_ROWS:
        V = np.array([asks[i][1] for i in live])
        lat = RectLattice(*(getattr(table, f)[live] for f in _LATTICE_FIELDS))
        amp = wp_amplitude(V, lat)
        with np.errstate(divide="ignore", invalid="ignore"):  # a slope only off the corners
            x, rate = _edge_exponent(lat, amp).tolist(), _dx_dV(lat, amp, V).tolist()
        for i, x_i, rate_i in zip(live, x, rate):
            asks[i] = rows[i].send((x_i, rate_i) if asks[i][0] == _SLOPE else x_i)
        live = [i for i in live if asks[i][0] < _DONE]
    for i in live:  # a few rows left: each runs to its end on answers of its own
        row, ask, lat = rows[i], asks[i], lats[i] or lattice(ms[i])
        while ask[0] < _DONE:
            amp = wp_amplitude(ask[1], lat)
            x = _edge_exponent(lat, amp)
            ask = row.send((x, _dx_dV(lat, amp, ask[1])) if ask[0] == _SLOPE else x)
        asks[i] = ask
    for outcome, value in asks:
        if outcome == _FAILED:
            raise value
    V = [value for _, value in asks]
    return V[0] if scalar else np.array(V, dtype=float).reshape(np.shape(m))


# What a level_curve row yields: asks for x, or x and dx/dV, at a V, then
# its outcome, a V or the error it raises.
_X, _SLOPE, _DONE, _FAILED = range(4)


def _level_row(target_kc: float, m: float, region: str, lat: RectLattice | None):
    """One m of :func:`level_curve` as a generator: it yields (_X, V) for x
    at V and (_SLOPE, V) for (x, dx/dV), then (_DONE, V) or (_FAILED, error)."""
    try:
        V = yield from _level_steps(target_kc, m, region, lat)
    except (DomainError, NumericalError) as exc:
        yield _FAILED, exc
    else:
        yield _DONE, V


def _level_steps(target_kc: float, m: float, region: str, lat: RectLattice | None):
    """The search of :func:`level_curve` for one m, on ``lat`` or lattice(m)."""
    if not math.isfinite(target_kc):
        raise DomainError(f"target kc must be finite, got {target_kc!r}")
    lat = lat or lattice(m)
    boundary = -1.0 / 24.0

    if region == "below_wedge":
        if target_kc > boundary + BOUNDARY_TOL:
            raise DomainError(
                f"kc = {target_kc!r} has no solution below the wedge (needs kc <= -1/24)")
        if abs(target_kc - boundary) <= BOUNDARY_TOL:
            return lat.e2
        corner, side = lat.e2, -1.0
    elif region == "above_wedge":
        if target_kc < boundary - BOUNDARY_TOL:
            raise DomainError(
                f"kc = {target_kc!r} has no solution above the wedge (needs kc >= -1/24)")
        if abs(target_kc - boundary) <= BOUNDARY_TOL:
            return lat.e3
        if target_kc == 0.0:
            return lat.e1
        corner, side = lat.e1, math.copysign(1.0, target_kc)
    else:
        raise DomainError(f"region must be 'below_wedge' or 'above_wedge', got {region!r}")
    if lat.m == 0.0:
        V = 2.0 / 3.0 + 24.0 * target_kc
        if math.isinf(V):
            raise DomainError(f"no finite V has kc = {target_kc!r} at m = 0")
        return V

    # Past |kc| ~ 3e306 the product overflows and the roots are taken apart.
    target = math.sqrt(_SIX_PI_SQ * abs(target_kc))
    if math.isinf(target):
        target = math.sqrt(_SIX_PI_SQ) * math.sqrt(abs(target_kc))

    # The first floats past the snap bands bound the search; a target
    # short of x there resolves to the corner.
    near, far = math.nextafter(corner + side * BOUNDARY_TOL, side * math.inf), math.inf
    if region == "above_wedge" and side < 0.0:  # on the band
        far = math.nextafter(lat.e3 + BOUNDARY_TOL, math.inf)
        if far >= near:  # the two snap bands cover the band
            near = far = 0.5 * (lat.e1 + lat.e3)
        if target >= (yield _X, far):
            return lat.e3
    if target <= (yield _X, near):
        return corner
    lo, hi = math.sqrt(abs(near - corner)), math.sqrt(abs(far - corner))

    s = min(max(target / lat.K, lo), hi, _S_MAX)
    for _ in range(_NEWTON_CAP):
        V = corner + side * s * s
        x, dx_dV = yield _SLOPE, V
        if x == target:
            break
        if x < target:
            if s == _S_MAX:
                raise DomainError(f"no finite V has kc = {target_kc!r} at m = {float(m)!r}")
            lo = s
        else:
            hi = s
        s_next = s - (x - target) / (2.0 * side * s * dx_dV)
        if not lo < s_next < hi:
            s_next = 0.5 * (lo + hi) if hi < math.inf else 2.0 * s
        s_next = min(s_next, _S_MAX)
        if corner + side * s_next * s_next == V:
            break
        s = s_next
    else:
        raise NumericalError("level-curve search did not converge", abscissa=V)

    # orbit_data's kc at V, from the exponent it would evaluate there
    error = abs(side * _square_over_six_pi_sq(x) - target_kc)
    slack = 8.0 * abs(x * dx_dV) / _SIX_PI_SQ * math.ulp(V)  # 4 |dk_dV| ulp(V)
    if not error <= max(1e-10 * max(1.0, abs(target_kc)), slack):
        raise NumericalError("level-curve solve failed verification", abscissa=V)
    return V


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
