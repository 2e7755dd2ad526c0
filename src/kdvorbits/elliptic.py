"""Jacobi elliptic functions and complete elliptic integrals.

Everything downstream (Weierstrass functions, monodromy, band structure,
shoaling) is built on the primitives in this module:

* ``ellint_K`` / ``ellint_E`` -- complete elliptic integrals via the
  arithmetic-geometric mean, and ``ellint_F_zeta`` -- Legendre's F and Jacobi's
  zeta at the amplitude phi = atan(y / x), by descending Landen on the same chain,
* ``jacobi`` -- real-argument sn/cn/dn by Bulirsch's ascent on the same
  chain, for the profile samplers.

Each recurrence (the AGM chain, the Landen steps of F and Z, the ascent of
sn/cn/dn) is written once, in numpy's names, run through ``math`` on a float and
as one masked numpy pass on an array.  An array element of any of them is its
float call bit for bit.

Throughout the package the *parameter* convention is used: ``m`` is the
squared elliptic modulus, so ``sn(u, m) -> sin(u)`` as ``m -> 0`` and
``-> tanh(u)`` as ``m -> 1``.  All public entry points accept
``0 <= m < 1`` (``ellint_E`` and ``ellint_F_zeta`` also ``m == 1``).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "JacobiTriple",
    "ellint_K",
    "ellint_E",
    "ellint_KE",
    "ellint_F_zeta",
    "agm_chain",
    "jacobi",
]

# Stop the AGM once c_n is below this; the truncation error of the
# amplitude recursion is of the same order.
_AGM_TOL = 4e-16
_AGM_MAX_ITER = 40
AGMChain = NamedTuple("AGMChain", [("m", object), ("states", tuple)])  # from agm_chain


class JacobiTriple(NamedTuple):
    """The values sn(u|m), cn(u|m), dn(u|m) for a common argument."""

    sn: float | np.ndarray
    cn: float | np.ndarray
    dn: float | np.ndarray


def _per_element(f):
    """math's f element by element over arrays of one shape (numpy's is not always math's)."""
    return lambda *args: np.array(list(map(f, *(v.ravel().tolist() for v in args))),
                                  dtype=float).reshape(np.shape(args[0]))


def _cosh(x: float) -> float:
    """math.cosh, +inf once it overflows."""
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _distinct(f, a, b):
    pairs, where = np.unique(a + 1j * b, return_inverse=True)
    out = np.empty(pairs.size, dtype=object)
    out[:] = [f(pair.real, pair.imag) for pair in pairs.tolist()]
    return out[where].reshape(np.shape(a))


# The operations of the rules written once for a float and an array, in numpy's
# names: numpy's own for an array, math's and the builtins' for a float; route picks
# one.  Beyond numpy's: select, where over tuples; choose(index, rows), each column
# of the rows picked by index; cosh, math's where ``where`` holds, +inf past overflow,
# else 0; complex from parts; distinct, f(a, b) once per distinct pair; each, math's
# f per element; first_failing(ok, *values), the values where ok first fails; ulp,
# math.ulp's (np.spacing overflows at the largest floats); errstate, none for a float.
ARRAY = SimpleNamespace(
    select=lambda cond, new, old: [np.where(cond, a, b) for a, b in zip(new, old)],
    choose=lambda index, rows: tuple(np.choose(index, column) for column in zip(*rows)),
    where=np.where, sqrt=np.sqrt, sin=np.sin, cos=np.cos, round=np.round, floor=np.floor,
    ldexp=np.ldexp, copysign=np.copysign, any=np.any, all=np.all, isnan=np.isnan,
    nextafter=np.nextafter, minimum=np.minimum, maximum=np.maximum, ones_like=np.ones_like,
    zeros_like=np.zeros_like, atan2=_per_element(math.atan2), hypot=_per_element(math.hypot),
    each=lambda f, x: _per_element(f)(x), distinct=_distinct, errstate=np.errstate,
    first_failing=lambda ok, *values: [float(v.flat[np.argmin(ok)]) for v in values],
    cosh=lambda x, where: np.piecewise(x, [where], [lambda x: list(map(_cosh, x.tolist()))]),
    complex=lambda real, imag: np.stack((real, imag), -1).view(complex)[..., 0],
    ulp=lambda x: np.spacing(np.minimum(np.abs(x), 2.0**1023)))
FLOAT = SimpleNamespace(
    select=lambda cond, x, y: x if cond else y, where=lambda cond, x, y: x if cond else y,
    choose=lambda index, rows: rows[index], sqrt=math.sqrt, sin=math.sin, cos=math.cos,
    round=round, floor=math.floor, ldexp=math.ldexp, copysign=math.copysign, any=bool,
    all=bool, isnan=math.isnan, nextafter=math.nextafter, minimum=min, maximum=max,
    ones_like=lambda x: 1.0, zeros_like=lambda x: 0.0, atan2=math.atan2, hypot=math.hypot,
    each=lambda f, x: f(x), complex=complex, ulp=math.ulp,
    cosh=lambda x, where=True: _cosh(x) if where else 0.0, distinct=lambda f, a, b: f(a, b),
    first_failing=lambda ok, *values: values, errstate=lambda **_: nullcontext())


def route(*values):
    """The one float/array rule: (FLOAT, the values through float()) where each has
    ndim 0, to answer in Python's types, else (ARRAY, float arrays of one shape)."""
    for value in values:
        if type(value) is not float:
            break
    else:
        return FLOAT, values
    if all(np.ndim(value) == 0 for value in values):
        return FLOAT, tuple(map(float, values))
    return ARRAY, tuple(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values)))


def _check_parameter(m: float, *, allow_one: bool = False) -> float:
    m = float(m)
    if math.isnan(m) or m < 0.0 or m > 1.0 or (m == 1.0 and not allow_one):
        upper = "<= 1" if allow_one else "< 1"
        raise DomainError(f"elliptic parameter must satisfy 0 <= m {upper}, got {m!r}")
    return m


class _State(NamedTuple):
    """a_n, b_n, c_n of an AGM chain, and which elements took the round to it."""

    took: bool | np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray


def _agm(m, xp):
    """The AGM chain of m, a float (xp = FLOAT) or an array (xp = ARRAY), state by state.

    Seeds a0 = 1, b0 = sqrt(1 - m), c0 = sqrt(m); then
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2
    until |c_n| <= _AGM_TOL a_n.  Convergence is quadratic: ten or so rounds
    suffice even for m = 1 - 1e-15.  Each element of an array stops on its own
    test and keeps its last a, b, c, so it is bit for bit the chain of its float.
    A generator: an array pass consumes each state while it is in cache.
    """
    a, b, c = xp.ones_like(m), xp.sqrt(1.0 - m), xp.sqrt(m)
    yield _State(True, a, b, c)
    for _ in range(_AGM_MAX_ITER):
        live = abs(c) > _AGM_TOL * a
        if not xp.any(live):
            return
        a, b, c = xp.select(live, (0.5 * (a + b), xp.sqrt(a * b), 0.5 * (a - b)), (a, b, c))
        yield _State(live, a, b, c)


def agm_chain(m) -> AGMChain:
    """m and its AGM chain, built once for many :func:`ellint_F_zeta` calls at m (an m
    outside [0, 1), which takes its float call there, on the chain of 0)."""
    xp, (m,) = route(m)
    sound = xp.where((m >= 0.0) & (m < 1.0), m, 0.0)
    return AGMChain(m, _float_agm(sound) if xp is FLOAT else tuple(_agm(sound, ARRAY)))


@lru_cache(maxsize=1024)
def _float_agm(m: float) -> tuple[_State, ...]:
    """The chain of a float m, cached at twice the lattice cache: a lattice and
    every edge exponent and wp_inverse on it ask for the chains of m and 1 - m."""
    return tuple(_agm(m, FLOAT))


def ellint_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    K(m) = integral_0^{pi/2} dt / sqrt(1 - m sin^2 t), computed as
    pi / (2 * agm(1, sqrt(1-m))).  Relative accuracy is a few ulp for
    every m in [0, 1); K diverges (like -log sqrt(1-m) + log 4) at m = 1.
    """
    return ellint_KE(m)[0]


def ellint_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m).

    E(m) = integral_0^{pi/2} sqrt(1 - m sin^2 t) dt, from the same AGM
    chain as K via E = K * (1 - sum_n 2^(n-1) c_n^2).  E(1) = 1 exactly.
    """
    m = _check_parameter(m, allow_one=True)
    return 1.0 if m == 1.0 else ellint_KE(m)[1]


def _chain_sums(m):
    """m as :func:`route` gives it (an invalid m, or an array's first, raises), K,
    sum_{n>=0} 2^(n-1) c_n^2 and its n >= 1 tail on the chain of m, the tail
    with c_n^2 = c_{n-1}^4 / (16 a_n^2), which does not cancel as m -> 0."""
    xp, (m,) = route(m)
    ok = (m >= 0.0) & (m < 1.0)
    if not xp.all(ok):
        _check_parameter(*xp.first_failing(ok, m))
    states = iter(_float_agm(m) if xp is FLOAT else _agm(m, xp))
    _, a, _, c = next(states)
    csum, c_sq, tail, power = 0.5 * c * c, m, xp.zeros_like(m), 1.0
    for live, a, _, c in states:
        c_sq_next = c_sq * c_sq / (16.0 * a * a)
        csum, c_sq, tail = xp.select(live, (csum + power * c * c, c_sq_next,
                                            tail + power * c_sq_next), (csum, c_sq, tail))
        power *= 2.0
    return m, math.pi / (2.0 * a), csum, tail


def ellint_KE(m):
    """K(m) and E(m) for 0 <= m < 1 from one AGM chain.  An array of m (:func:`route`)
    gives arrays from one masked chain, each element bit for bit its float call."""
    _, K, csum, _ = _chain_sums(m)
    return K, K * (1.0 - csum)


def ellint_differences(m):
    """K(m), K(m) - E(m) and (2 - m)K(m) - 2E(m), the last two without cancellation.

    K - E = K sum_{n>=0} 2^(n-1) c_n^2 and (2 - m)K - 2E = 2K sum_{n>=1}
    2^(n-1) c_n^2 on the AGM chain of K, with c_0^2 = m and
    c_n = c_{n-1}^2 / (4 a_n) in place of (a_{n-1} - b_{n-1})/2, whose
    subtraction loses digits as m -> 0.  So both keep their relative
    accuracy where they vanish like pi m/4 and pi m^2/16.

    Accepts a scalar or an array of m, as :func:`route` decides; scalar in,
    floats out, and each element of an array bit for bit its float call.
    """
    m, K, _, tail = _chain_sums(m)
    return K, K * (0.5 * m + tail), 2.0 * K * tail


def ellint_F_zeta(y, x, m):
    """Legendre's F(phi|m) and Jacobi's zeta Z(phi|m) = E(phi|m) - E F(phi|m) / K.

    For 0 <= m <= 1 and 0 <= phi <= pi/2 given as y, x >= 0 with tan phi = y / x
    (x = 0 is pi/2, where F is K bit for bit; x = inf is 0), by descending Landen
    on the AGM chain of K (A&S 17.6): with r = b_n/a_n, tan(phi_{n+1} - phi_n)
    = r tan phi_n on the branch within pi/2 of phi_n, F = phi_N / (2^N a_N) and
    Z = sum_{n>=1} c_n sin phi_n.  Only phi_N is formed as an angle: with
    D = sqrt(cos^2 + r^2 sin^2), sin phi_{n+1} = (1 + r) sin cos / D and
    cos phi_{n+1} = (cos^2 - r sin^2) / D keep their error from growing
    with phi_n, and their signs count the turns of phi_N.  c_{n+1} is formed
    as c_n^2 / (4 a_{n+1}), so it does not cancel.  At m = 1, F = asinh(y / x)
    and Z = sin phi.

    Accepts scalars or arrays, broadcast together, as :func:`route` decides;
    scalars in, floats out.  An array runs the float recurrences in one masked
    pass, each element stopping on its own tests, so it is its float call bit for
    bit; the first invalid element raises its error.  m may be its :func:`agm_chain`.
    """
    chain = m if isinstance(m, AGMChain) else None
    xp, (y, x, m) = route(y, x, chain.m if chain else m)
    h = xp.hypot(y, x)
    plain = (m >= 0.0) & (m < 1.0) & (y >= 0.0) & (x >= 0.0) & (h > 1e-300) & (h < 1e300)
    if xp.all(plain):  # valid too, so the common case needs no other test
        states = chain.states if chain else _float_agm(m) if xp is FLOAT else _agm(m, xp)
        return _landen(y / h, x / h, m, states, xp)
    ok = ((m >= 0.0) & (m <= 1.0) & (y >= 0.0) & (x >= 0.0) & (h > 0.0)
          & ((y < math.inf) | (x < math.inf)))
    if not xp.all(ok):
        y, x, m = xp.first_failing(ok, y, x, m)
        if not 0.0 <= m <= 1.0:
            _check_parameter(m, allow_one=True)
        raise DomainError(f"amplitude pair must be >= 0, not both 0 or inf: ({y!r}, {x!r})")
    if xp is FLOAT:  # m = 1, or hypot out of range: divide by the larger side, or point along it
        if not 1e-300 < h < 1e300:
            t = max(y, x)
            y, x = (y / t, x / t) if t < math.inf else (float(y > x), float(x > y))
            h = math.hypot(y, x)
        if m == 1.0:
            return (math.asinh(y / x) if x else math.inf), y / h
        return _landen(y / h, x / h, m, _float_agm(m), FLOAT)
    h, mu = np.where(plain, h, 1.0), np.where(plain, m, 0.0)
    F, Z = _landen(np.where(plain, y / h, 0.0), np.where(plain, x / h, 1.0), mu,
                   chain.states if chain else _agm(mu, ARRAY), ARRAY)
    for i in np.flatnonzero(~plain).tolist():  # the rest take their float calls
        F.flat[i], Z.flat[i] = ellint_F_zeta(float(y.flat[i]), float(x.flat[i]), float(m.flat[i]))
    return F, Z


def _landen(sin, cos, m, states, xp):
    """F and Z of :func:`ellint_F_zeta` from sin, cos phi_0 on the chain of 0 <= m < 1.
    Step n runs while the chain does and c_{n+1} >= 1e-17 m (not absolute:
    Z ~ c_1 >= m/4 as m -> 0); each element stops on its own."""
    states = iter(states)
    _, a, b, c = next(states)
    c_min, landen, n, turns, Z = 1e-17 * m, True, 0, xp.zeros_like(m), xp.zeros_like(m)
    for live, a_next, b_next, _ in states:
        c_next = c * c / (4.0 * a_next)
        landen = landen & live & (c_next >= c_min)
        if xp.any(landen):
            # phi_n = 2 pi turns + atan2(sin, cos); past +-pi/2, one more turn
            twice = turns + turns
            r = b / a
            r_sin = r * sin
            root = xp.sqrt(cos * cos + r_sin * r_sin)
            sin_next = (1.0 + r) * sin * cos / root
            turns, sin, cos, c, Z = xp.select(landen, (
                xp.where(cos < 0.0, twice + xp.copysign(1.0, sin), twice), sin_next,
                (cos * cos - r_sin * sin) / root, c_next, Z + c_next * sin_next),
                (turns, sin, cos, c, Z))
            n = n + landen
        a, b = a_next, b_next
    phi = 2.0 * math.pi * turns + xp.atan2(sin, cos)
    return xp.ldexp(phi / a, -n), Z


# ---------------------------------------------------------------------------
# Real-argument sn/cn/dn: Bulirsch's ascent on the AGM chain.
# ---------------------------------------------------------------------------


def jacobi(u, m: float) -> JacobiTriple:
    """Jacobi sn, cn, dn for real argument(s) ``u`` and parameter ``m``.

    Bulirsch's ascent (``sncndn``, *Numer. Math.* 7 (1965) 78-90) on the AGM
    chain, with v = a_N u = pi u / 2K in [-pi, pi] after reducing u modulo 4K:
    from y = tan v / a_N and dn = 1, step n = N-1, ..., 0 takes y -> y / dn and
    dn -> (1 + b_n a_n+1 y^2) / (1 + a_n a_n+1 y^2) on the old y; then cn =
    +-1 / sqrt(1 + y^2), signed as cos v, and sn = y cn.  y is Bulirsch's 1/x,
    so no u overflows y^2 (cos v never rounds to 0).  Only sin, cos, sqrt and
    arithmetic, which numpy rounds as math does.  |u| >= 2^53 4K, past which
    the reduction is rounding noise, raises :class:`DomainError`.  Accepts
    scalars or arrays, as :func:`route` decides; scalar in, floats out.
    """
    m = _check_parameter(m)
    xp, (u,) = route(u)
    if m == 0.0:
        return JacobiTriple(xp.sin(u), xp.cos(u), xp.ones_like(u))
    chain = _float_agm(m)
    a_next = chain[-1].a
    four_k = 2.0 * math.pi / a_next
    if not xp.all(abs(u) < 2.0**53 * four_k):  # past it, u mod 4K is rounding noise
        raise DomainError(f"cannot reduce u modulo 4K = {four_k!r}: |u| reaches "
                          f"{float(np.max(np.abs(u)))!r}")
    v = a_next * (u - four_k * xp.round(u / four_k))
    cos = xp.cos(v)
    y, dn = xp.sin(v) / (a_next * cos), xp.ones_like(v)
    for _, a, b, _ in reversed(chain[:-1]):
        w = a_next * y * y
        y, dn, a_next = y / dn, (1.0 + b * w) / (1.0 + a * w), a
    cn = xp.copysign(1.0 / xp.sqrt(1.0 + y * y), cos)
    return JacobiTriple(y * cn, cn, dn)
