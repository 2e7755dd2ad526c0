"""Cnoidal wave trains in shallow water and the shoaling path.

The dimensionless orbit machinery meets the ocean here.  A right-moving
surface wave of period T over depth h, with the standard shallow-water
conventions (central charge c = -32 pi^3, small parameter eps = h^2 /
lambda^2), is a cnoidal wave whose average vanishes; that pins the
velocity parameter to the pointedness, V = 2E/K - (4 - 2m)/3.  Keeping
the period and the energy transport fixed while the depth decreases
turns the pair (h, lambda) into functions of m, so a shoaling wave
traces a definite path through the orbit diagram -- and that path
crosses into the forbidden wedge at a critical pointedness m* where
E(m*)/K(m*) = 1/2, i.e. at a computable critical depth.

Everything dimensionful is SI; every function states its units.  The
leading-order relations deliberately drop the 1 + O(eps) factors, and
:class:`WaveTrain` carries eps so the caller can judge how much that
omission costs.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .elliptic import FLOAT, ellint_differences, jacobi, route
from .errors import DomainError, NumericalError
from .orbits import orbit_data
from .weierstrass import lattice

__all__ = [
    "WaveTrain",
    "zero_average_V",
    "critical_m",
    "wavelength",
    "energy_transport",
    "depth_from_m",
    "m_from_depth",
    "critical_depth",
    "depth_profile_D",
    "ShoalingPath",
    "shoaling_path",
    "read_bathymetry",
]

_EPS_WARN = 0.05
# Search interval of m_from_depth.  The transport bracket behaves as
# (1/8)(pi/2)^4 m^2 near m = 0; at the floor the corresponding depth is
# already ~400x the natural depth scale.
_M_FLOOR = 1e-6
_M_CEIL = 1.0 - 1e-15
# m_from_depth stops once a Newton step moves m by at most this relative
# amount (two ulp).
_M_RTOL = 4.4e-16
_MAX_STEPS = 100


def _require_positive(**fields):
    for name, value in fields.items():
        value = float(value)
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _in_float_range(compute, **inputs) -> float:
    """compute(), or a DomainError naming the inputs if it leaves the float range."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0.0 < value < math.inf:
        named = ", ".join(f"{name} = {v!r}" for name, v in inputs.items())
        raise DomainError(f"{named} take the result out of float range")
    return value


def zero_average_V(m):
    """Velocity parameter of the zero-average cnoidal wave: 2E/K - (4-2m)/3.

    Runs from 2/3 at m = 0 (hugging the parabolic line (2-m)/3 from
    below) down to -2/3 as m -> 1.  An array of m gives each its scalar
    call; m may be given as the lattice(m) the caller already holds.
    """
    lat = lattice(m)
    return 2.0 * lat.E / lat.K - (4.0 - 2.0 * lat.m) / 3.0


@lru_cache(maxsize=1)
def critical_m() -> float:
    """The pointedness m* where the zero-average curve enters the wedge.

    Fixed point of m -> 2E(m)/K(m) - 1 + m, equivalently E/K = 1/2;
    plain iteration contracts (|slope| ~ 0.74 at the fixed point) and is
    run to 1e-15 increments.  It gives 0.8261147659849706, 2.2 ulp above
    the root, whose nearest float is 0.8261147659849704.
    """
    m = 0.8
    for _ in range(500):
        lat = lattice(m)
        m_next = 2.0 * lat.E / lat.K - 1.0 + m
        if abs(m_next - m) <= 1e-15:
            return m_next
        m = m_next
    raise AssertionError("fixed-point iteration for m* failed to settle")


def wavelength(h: float, T: float, g: float) -> float:
    """Leading-order wavelength lambda = sqrt(g h) T  [m]."""
    _require_positive(h=h, T=T, g=g)
    return _in_float_range(lambda: math.sqrt(g * h) * T, h=h, T=T, g=g)


@dataclass(frozen=True)
class WaveTrain:
    """One cnoidal wave train over a flat bed, in SI units.

    h: average depth [m]; lam: wavelength [m]; m: pointedness (squared
    modulus); T: period [s]; rho: density [kg/m^3]; g: gravitational
    acceleration [m/s^2]; F: energy transport [N], computed from the
    other fields when not supplied.

    The shallow-water expansion parameter eps = h^2/lam^2 is exposed as
    a property, and construction warns when it exceeds 0.05 -- beyond
    that the dropped 1 + O(eps) factors are no longer decoration.
    """

    h: float
    lam: float
    m: float
    T: float
    rho: float
    g: float
    F: float | None = None

    def __post_init__(self):
        _require_positive(h=self.h, lam=self.lam, T=self.T,
                          rho=self.rho, g=self.g)
        if not 0.0 <= self.m < 1.0:
            raise DomainError(
                f"squared modulus must lie in [0, 1), got {self.m!r}")
        if self.F is None:
            object.__setattr__(self, "F", energy_transport(self))
        if self.epsilon > _EPS_WARN:
            warnings.warn(
                f"eps = h^2/lambda^2 = {self.epsilon:.3g} exceeds "
                f"{_EPS_WARN}; the shallow-water expansion is strained",
                RuntimeWarning, stacklevel=3)

    @property
    def epsilon(self) -> float:
        """The shallow-water expansion parameter h^2 / lambda^2."""
        return _in_float_range(lambda: self.h * self.h / (self.lam * self.lam),
                               h=self.h, lam=self.lam)


def _transport_bracket(m):
    """(m-1)K^4/3 + (4-2m)EK^3/3 - E^2K^2, zero at m = 0 and increasing, with
    the K and D1 = K - E it is made of (for m_from_depth's slope).

    Evaluated as (K^2/3)[K D2 + D1 (2mK - 3 D1)] with D2 = (2 - m)K - 2E,
    the same polynomial without the cancellation of its O(1) terms down to
    O(m^2): good to a few ulp for every m.  A float or an array of m.
    """
    K, D1, D2 = ellint_differences(m)
    return K * K / 3.0 * (K * D2 + D1 * (2.0 * m * K - 3.0 * D1)), K, D1


def energy_transport(train: WaveTrain) -> float:
    """Energy carried shoreward by the train per unit time  [N].

    (256/9) rho g (h^6/lambda^3) [(m-1)K^4/3 + (4-2m)EK^3/3 - E^2K^2],
    the closed form of the period integral of (energy density x speed).
    A flat train (m = 0) transports nothing: the bracket cancels
    algebraically.
    """
    bracket = _transport_bracket(train.m)[0]
    if bracket == 0.0:
        return 0.0
    return _in_float_range(
        lambda: 256.0 / 9.0 * train.rho * train.g * train.h**6 / train.lam**3 * bracket,
        h=train.h, lam=train.lam, m=train.m, rho=train.rho, g=train.g)


def depth_from_m(m: float, T: float, F: float, rho: float, g: float) -> float:
    """The depth at which a conserved train has pointedness m  [m].

    h^(9/2) = (27/256)(sqrt(g)/rho) T^3 F / [(m-1)K^4 + 2(2-m)EK^3 - 3E^2K^2],
    a strictly decreasing bijection of m in (0, 1) onto (0, infinity):
    deep water means round waves, shallow water means pointed ones.
    The bracket vanishes at m = 0, so that endpoint is out of domain.
    """
    m = float(m)
    if not 0.0 < m < 1.0:
        raise DomainError(
            f"pointedness must lie in (0, 1) to invert the transport "
            f"relation, got {m!r}")
    _require_positive(T=T, F=F, rho=rho, g=g)
    scale = _depth_scale(T, F, rho, g)
    return _in_float_range(lambda: (scale / _transport_bracket(m)[0]) ** (2.0 / 9.0),
                           m=m, T=T, F=F, rho=rho, g=g)


def _depth_scale(T: float, F: float, rho: float, g: float) -> float:
    """h^(9/2) times the transport bracket along a conserved train."""
    return _in_float_range(lambda: 9.0 / 256.0 * math.sqrt(g) / rho * T**3 * F,
                           T=T, F=F, rho=rho, g=g)


@lru_cache(maxsize=1)
def _reach() -> tuple[float, float]:
    """The transport bracket at the ends of m_from_depth's search interval."""
    return _transport_bracket(_M_FLOOR)[0], _transport_bracket(_M_CEIL)[0]


def m_from_depth(h, T: float, F: float, rho: float, g: float):
    """Invert the depth-pointedness relation: the m with depth_from_m = h.

    Newton's method on log(B(m) / B_h), B the transport bracket and B_h
    its value at depth h, in the logit x = log(m / (1 - m)), in which
    log B is close to linear at both ends.  The slope is closed form:
    d log B/dx = E K (K - E)(E - (1 - m)K) / B, from dK/dm and dE/dm
    (DLMF 19.4.1).  Each evaluated m becomes an end of the bracket
    [_M_FLOOR, _M_CEIL], and a step that would leave it bisects it in x
    instead, so no m is evaluated twice.  Stops when a step moves m by
    at most _M_RTOL m, or when no float is left between the ends;
    NumericalError after _MAX_STEPS evaluations.

    Accepts a scalar depth or an array of depths, as :func:`.elliptic.route`
    decides; scalar in, float out.  One iteration runs over all depths (log and
    expm1 per element through math), each leaving on its own exit, so its m is
    bit for bit that of a call on it alone.  An array raises for its first
    offending depth, with the message of that call.
    """
    _require_positive(T=T, F=F, rho=rho, g=g)
    scale = _depth_scale(T, F, rho, g)
    b_lo, b_hi = _reach()
    deep, shallow = (scale / b_lo) ** (2.0 / 9.0), (scale / b_hi) ** (2.0 / 9.0)
    xp, (h,) = route(h)
    depths = np.ravel(h).tolist()
    targets = []
    try:
        for x in depths:
            if not 0.0 < x < math.inf:
                _require_positive(h=x)
            if x > deep:
                raise DomainError(
                    f"depth {x!r} exceeds the m -> 0 reach of the transport "
                    "relation; the train would be rounder than representable")
            if x < shallow:
                raise DomainError(
                    f"depth {x!r} lies below the m -> 1 floor of the transport "
                    "relation")
            targets.append(scale / x**4.5)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"depth {x!r} takes h^(9/2) out of float range") from None
    target = np.array(targets)
    lo, hi = np.full_like(target, _M_FLOOR), np.full_like(target, _M_CEIL)
    f_lo = np.array([math.log(b_lo / t) for t in targets])
    f_hi = np.array([math.log(b_hi / t) for t in targets])
    m, out, live = np.full_like(target, 0.5), np.empty_like(target), np.arange(target.size)
    for _ in range(_MAX_STEPS):
        bracket, K, D1 = _transport_bracket(m)
        f = np.array([math.log(r) for r in (bracket / target).tolist()])
        below = f < 0.0
        lo, f_lo = np.where(below, m, lo), np.where(below, f, f_lo)
        hi, f_hi = np.where(below, hi, m), np.where(below, f_hi, f)
        dx = f * bracket / ((K - D1) * K * D1 * (m * K - D1))
        q = np.array([math.expm1(-d) for d in dx.tolist()])  # the odds scale by 1 + q
        newton = m + m * (1.0 - m) * q / (1.0 + m * q)
        odds = np.sqrt(lo / (1.0 - lo) * hi / (1.0 - hi))
        m_next = np.where((lo < newton) & (newton < hi), newton, odds / (1.0 + odds))
        # exits: f is exactly 0, the step settled, no float is left between the ends
        exact, settled = f == 0.0, np.abs(newton - m) <= _M_RTOL * m
        done = exact | settled | ~((lo < m_next) & (m_next < hi))
        out[live[done]] = np.where(exact, m, np.where(settled, newton, np.where(
            np.abs(f_lo) < np.abs(f_hi), lo, hi)))[done]
        live, m, target, lo, hi, f_lo, f_hi = (
            v[~done] for v in (live, m_next, target, lo, hi, f_lo, f_hi))
        if not live.size:
            return float(out[0]) if xp is FLOAT else out.reshape(h.shape)
    raise NumericalError(
        f"m_from_depth did not settle in {_MAX_STEPS} steps at depth "
        f"{depths[live[0]]!r}", abscissa=float(m[0]))


def critical_depth(T: float, F: float, rho: float, g: float) -> float:
    """The depth at which the shoaling path enters the forbidden wedge  [m].

    h* = (g T^6 F^2 / rho^2)^(1/9) (3 / (4 K(m*)^(4/3)))^(2/3), the
    transport relation evaluated at E/K = 1/2; the numerical coefficient
    is 0.3905... .
    """
    _require_positive(T=T, F=F, rho=rho, g=g)
    K_star = lattice(critical_m()).K
    return _in_float_range(
        lambda: ((g * T**6 * F * F / (rho * rho)) ** (1.0 / 9.0)
                 * (3.0 / (4.0 * K_star ** (4.0 / 3.0))) ** (2.0 / 3.0)),
        T=T, F=F, rho=rho, g=g)


def depth_profile_D(X, t: float, train: WaveTrain):
    """Water depth at lab position X [m] and time t [s]  [m].

    D = h + (16/3)(h^3/lambda^2) K^2 [dn^2(2K(X - sqrt(gh) t)/lambda | m)
    - E/K], the zero-average train translating at the leading-order
    speed sqrt(gh).  The deviation from h, rescaled by 2 pi lambda^2 /
    h^3, is exactly the dimensionless zero-average profile at central
    charge -32 pi^3.  Accepts scalar or array X.
    """
    lat = lattice(train.m)
    phase = (2.0 * lat.K / train.lam
             * (np.asarray(X, dtype=float) - math.sqrt(train.g * train.h) * t))
    dn = jacobi(phase, train.m).dn
    bump = (16.0 / 3.0 * train.h**3 / train.lam**2 * lat.K * lat.K
            * (dn * dn - lat.E / lat.K))
    return train.h + bump


class ShoalingPath(NamedTuple):
    """The path as columns, arrays with one entry per depth in input order, as
    :func:`.orbits.orbit_data` answers (SI units; kc is dimensionless).

    ``entry_index`` is the first station with m > m* (None if the water never
    gets that shallow) and ``crossing_depth`` the depth at which m = m* exactly,
    critical_depth of the same train (None unless two consecutive stations straddle m*).
    """

    h: np.ndarray
    lam: np.ndarray
    m: np.ndarray
    V: np.ndarray
    kc: np.ndarray
    orbit: np.ndarray
    in_wedge: np.ndarray
    epsilon: np.ndarray
    speed: np.ndarray
    entry_index: int | None
    crossing_depth: float | None


def shoaling_path(h_values, T: float, F: float, rho: float,
                  g: float) -> ShoalingPath:
    """Trace a conserved wave train through decreasing depths.

    Takes a sequence or a 1-d array of depths.  For each depth: apply the
    leading-order wavelength, place the zero-average wave in the orbit
    diagram (V, k/c, class), and flag whether it sits inside the
    forbidden wedge.  The speed column is the leading-order sqrt(g h);
    the recorded eps says how much to trust it.  The whole path is one
    array pass, each station bit for bit its scalar calls; the first
    station whose lambda or lambda^2 leaves the float range raises.

    If consecutive depths straddle the wedge boundary, the path reports
    the crossing depth, which is :func:`critical_depth` by construction.
    """
    h = np.array(h_values, float)  # a copy, so the path's h column is its own
    if h.shape != (h.size,) or not h.size:
        raise DomainError(f"need a 1-d sequence of at least one depth, got shape {h.shape}")
    if (np.diff(h) >= 0.0).any():
        raise DomainError("depths must be strictly decreasing along the path")

    m = m_from_depth(h, T, F, rho, g)
    lat = lattice(m)
    V = zero_average_V(lat)
    data = orbit_data(lat, V)
    with np.errstate(all="ignore"):  # out of range is checked below, as wavelength does
        speed = np.sqrt(g * h)
        lam = speed * T
        epsilon = h * h / (lam * lam)
        bad = ~((lam > 0.0) & (lam < math.inf) & (lam * lam > 0.0))
    if bad.any():  # wavelength raises, or else lam^2 underflows to 0 and epsilon does
        h_i = float(h[np.argmax(bad)])
        lam_i = wavelength(h_i, T, g)
        _in_float_range(lambda: h_i * h_i / (lam_i * lam_i), h=h_i, lam=lam_i)
    in_wedge = m > critical_m()
    entry = int(np.argmax(in_wedge)) if in_wedge.any() else None
    crossing = critical_depth(T, F, rho, g) if entry else None  # straddled by two stations
    return ShoalingPath(h, lam, m, V, data.kc, data.orbit, in_wedge, epsilon, speed,
                        entry, crossing)


def read_bathymetry(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column bathymetry CSV (X, h) with a header row.

    Returns (positions, depths) as float arrays; raises DomainError on
    malformed rows, short files, or non-positive depths.
    """
    xs: list[float] = []
    hs: list[float] = []
    with open(path, newline="") as handle:
        rows = csv.reader(handle)
        header = next(rows, None)
        if header is None or len(header) < 2:
            raise DomainError("bathymetry file needs a two-column header row")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise DomainError(f"bathymetry line {lineno}: expected two columns")
            try:
                x, h = float(row[0]), float(row[1])
            except ValueError as exc:
                raise DomainError(f"bathymetry line {lineno}: {exc}") from exc
            if not (math.isfinite(h) and h > 0.0):
                raise DomainError(
                    f"bathymetry line {lineno}: depth must be positive, got {h!r}")
            xs.append(x)
            hs.append(h)
    if not xs:
        raise DomainError("bathymetry file contains no data rows")
    return np.asarray(xs), np.asarray(hs)
