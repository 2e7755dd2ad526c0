"""Jacobi elliptic functions and complete elliptic integrals.

Everything downstream (Weierstrass functions, monodromy, band structure,
shoaling) is built on the primitives in this module:

* ``ellint_K`` / ``ellint_E`` -- complete elliptic integrals via the
  arithmetic-geometric mean, and ``ellint_F_zeta`` -- Legendre's F and Jacobi's
  zeta at the amplitude phi = atan(y / x), by descending Landen on the same chain,
* ``jacobi`` -- real-argument sn/cn/dn by the descending Landen (AGM
  amplitude) recursion,
* ``jacobi_complex`` -- complex-argument sn/cn/dn assembled from two real
  evaluations (one at modulus parameter ``m``, one at ``1 - m``).

``jacobi``, ``ellint_differences`` and ``ellint_F_zeta`` also take arrays,
element by element bit for bit equal to their scalar calls.

Throughout the package the *parameter* convention is used: ``m`` is the
squared elliptic modulus, so ``sn(u, m) -> sin(u)`` as ``m -> 0`` and
``-> tanh(u)`` as ``m -> 1``.  All public entry points accept
``0 <= m < 1`` (``ellint_E`` and ``ellint_F_zeta`` also ``m == 1``).
``jacobi_complex`` takes ``m == 0``, and any ``m`` for which ``1 - m``
rounds to 1, as the circular limit, never evaluating at ``1 - m = 1``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "JacobiTriple",
    "ellint_K",
    "ellint_E",
    "ellint_F_zeta",
    "jacobi",
    "jacobi_complex",
]

# Stop the AGM once c_n is below this; the truncation error of the
# amplitude recursion is of the same order.
_AGM_TOL = 4e-16
_AGM_MAX_ITER = 40

# Reject complex evaluations closer than this to a pole of sn/cn/dn.
_POLE_TOL = 1e-9


class JacobiTriple(NamedTuple):
    """The values sn(u|m), cn(u|m), dn(u|m) for a common argument."""

    sn: float | complex | np.ndarray
    cn: float | complex | np.ndarray
    dn: float | complex | np.ndarray


def _check_parameter(m: float, *, allow_one: bool = False) -> float:
    m = float(m)
    if math.isnan(m) or m < 0.0 or m > 1.0 or (m == 1.0 and not allow_one):
        upper = "<= 1" if allow_one else "< 1"
        raise DomainError(f"elliptic parameter must satisfy 0 <= m {upper}, got {m!r}")
    return m


@lru_cache(maxsize=1024)
def _agm_chain(m: float) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """AGM sequence for parameter m: (a_n), (c_n), and sum 2^(n-1) c_n^2.

    Cached per float m, at twice the lattice cache: a lattice, and every
    edge exponent and wp_inverse on it, ask for the chains of m and 1 - m.
    Its callers are the scalar routes, whose m repeat: ellint_K/E (so
    ``lattice``), a scalar ellint_F_zeta (so ``classify`` and a scalar
    ``level_curve``) and jacobi.  The array routes run their own masked
    chain, each element stopping on the test below: ellint_differences,
    whose m_from_depth steps never repeat an m, and an array ellint_F_zeta,
    whose diagram cells and level-curve steps would each ask for a chain.

    Seeds a0 = 1, b0 = sqrt(1 - m), c0 = sqrt(m); then
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2.
    Convergence is quadratic: ten or so rounds suffice even for m = 1 - 1e-15.
    """
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    a_seq = [a]
    c_seq = [c]
    csum = 0.5 * c * c
    power = 0.5
    for _ in range(_AGM_MAX_ITER):
        if abs(c) <= _AGM_TOL * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        a_seq.append(a)
        c_seq.append(c)
        csum += power * c * c
    return tuple(a_seq), tuple(c_seq), csum


def ellint_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    K(m) = integral_0^{pi/2} dt / sqrt(1 - m sin^2 t), computed as
    pi / (2 * agm(1, sqrt(1-m))).  Relative accuracy is a few ulp for
    every m in [0, 1); K diverges (like -log sqrt(1-m) + log 4) at m = 1.
    """
    m = _check_parameter(m)
    a_seq, _, _ = _agm_chain(m)
    return math.pi / (2.0 * a_seq[-1])


def ellint_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m).

    E(m) = integral_0^{pi/2} sqrt(1 - m sin^2 t) dt, from the same AGM
    chain as K via E = K * (1 - sum_n 2^(n-1) c_n^2).  E(1) = 1 exactly.
    """
    m = _check_parameter(m, allow_one=True)
    if m == 1.0:
        return 1.0
    a_seq, _, csum = _agm_chain(m)
    K = math.pi / (2.0 * a_seq[-1])
    return K * (1.0 - csum)


def ellint_differences(m):
    """K(m), K(m) - E(m) and (2 - m)K(m) - 2E(m), the last two without cancellation.

    K - E = K sum_{n>=0} 2^(n-1) c_n^2 and (2 - m)K - 2E = 2K sum_{n>=1}
    2^(n-1) c_n^2 on the AGM chain of K, with c_0^2 = m and
    c_n = c_{n-1}^2 / (4 a_n) in place of (a_{n-1} - b_{n-1})/2, whose
    subtraction loses digits as m -> 0.  So both keep their relative
    accuracy where they vanish like pi m/4 and pi m^2/16.

    Accepts a scalar or an array of m; scalar in, floats out.  Each element
    runs the recurrence of :func:`_agm_chain` and stops on its own test, so
    its values are bit for bit those of a call on it alone.
    """
    m = np.asarray(m, dtype=float)
    bad = m[~((m >= 0.0) & (m < 1.0))]
    if bad.size:
        _check_parameter(bad[0])
    a, b, c = np.ones_like(m), np.sqrt(1.0 - m), np.sqrt(m)
    c_sq, tail, power = m, np.zeros_like(m), 1.0
    for _ in range(_AGM_MAX_ITER):
        live = np.abs(c) > _AGM_TOL * a
        if not live.any():
            break
        a, b, c = (np.where(live, 0.5 * (a + b), a), np.where(live, np.sqrt(a * b), b),
                   np.where(live, 0.5 * (a - b), c))
        c_sq = np.where(live, c_sq * c_sq / (16.0 * a * a), c_sq)
        tail = np.where(live, tail + power * c_sq, tail)
        power *= 2.0
    K = math.pi / (2.0 * a)
    out = K, K * (0.5 * m + tail), 2.0 * K * tail
    return tuple(map(float, out)) if m.ndim == 0 else out


def ellint_F_zeta(y, x, m):
    """Legendre's F(phi|m) and Jacobi's zeta Z(phi|m) = E(phi|m) - E F(phi|m) / K.

    For 0 <= m <= 1 and 0 <= phi <= pi/2 given as y, x >= 0 with tan phi = y / x
    (x = 0 is pi/2, where F is K bit for bit; x = inf is 0), by descending Landen
    on the AGM chain of K (A&S 17.6): with r = b_n/a_n, tan(phi_{n+1} - phi_n)
    = r tan phi_n on the branch within pi/2 of phi_n, F = phi_N / (2^N a_N) and
    Z = sum_{n>=1} c_n sin phi_n.  Only phi_N is formed as an angle: with
    D = sqrt(cos^2 + r^2 sin^2), sin phi_{n+1} = (1 + r) sin cos / D and
    cos phi_{n+1} = (cos^2 - r sin^2) / D keep their error from growing
    with phi_n, and their signs count the turns of phi_N.  b_n is formed
    as the chain forms it and c_{n+1} as c_n^2 / (4 a_{n+1}), so neither
    cancels.  At m = 1, F = asinh(y / x) and Z = sin phi.

    Accepts scalars or arrays, broadcast together; scalars in, floats out.
    Each element of an array runs the recurrences of a scalar call and stops
    on its own tests, so its F and Z are bit for bit those of that call; an
    array with an invalid element raises the error of the first one.
    """
    if not (isinstance(y, float) and isinstance(x, float) and isinstance(m, float)) and (
            np.ndim(y) or np.ndim(x) or np.ndim(m)):
        return _F_zeta_array(*np.broadcast_arrays(*(np.array(v, dtype=float) for v in (y, x, m))))
    m = float(m)
    if not 0.0 <= m <= 1.0:
        _check_parameter(m, allow_one=True)
    if not (y >= 0.0 and x >= 0.0 and y + x > 0.0) or y == x == math.inf:
        raise DomainError(f"amplitude pair must be >= 0, not both 0 or inf: ({y!r}, {x!r})")
    h = math.hypot(y, x)
    if not 1e-300 < h < 1e300:  # an infinite side, or hypot would overflow or lose digits
        y, x, h = _scaled_pair(y, x)
    sin, cos = y / h, x / h
    if m == 1.0:
        return (math.asinh(y / x) if x else math.inf), sin
    steps, a_last = _landen_steps(m)
    turns, Z = 0.0, 0.0
    for r, c in steps:
        # phi_n = 2 pi turns + atan2(sin, cos); past +-pi/2, one more turn
        turns += turns
        if cos < 0.0:
            turns += math.copysign(1.0, sin)
        r_sin = r * sin
        root = math.sqrt(cos * cos + r_sin * r_sin)
        sin, cos = (1.0 + r) * sin * cos / root, (cos * cos - r_sin * sin) / root
        Z += c * sin
    phi = 2.0 * math.pi * turns + math.atan2(sin, cos)
    return math.ldexp(phi / a_last, -len(steps)), Z


@lru_cache(maxsize=1024)
def _landen_steps(m: float) -> tuple[tuple[tuple[float, float], ...], float]:
    """The (r_n, c_{n+1}) of each descending Landen step of :func:`ellint_F_zeta`
    at m, and a_N: they depend on m alone, and its scalar callers repeat m."""
    a_seq = _agm_chain(m)[0]
    b, c, c_min, steps = math.sqrt(1.0 - m), math.sqrt(m), 1e-17 * m, []
    for a, a_next in zip(a_seq, a_seq[1:]):
        c = c * c / (4.0 * a_next)
        if c < c_min:  # under 4e-17 c_1 (c_1 >= m/4), not absolute: Z ~ c_1 as m -> 0
            break
        steps.append((b / a, c))
        b = math.sqrt(a * b)
    return tuple(steps), a_seq[-1]


def _scaled_pair(y: float, x: float) -> tuple[float, float, float]:
    """(y, x, hypot(y, x)) for a pair whose hypot is out of range: divided
    by its larger side, or, with an infinite side, the direction it points."""
    t = max(y, x)
    y, x = (y / t, x / t) if t < math.inf else (float(y > x), float(x > y))
    return y, x, math.hypot(y, x)


def _F_zeta_array(y: np.ndarray, x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ellint_F_zeta` element by element: the chain of :func:`_agm_chain`
    and the Landen steps in one masked loop, hypot, atan2 and asinh through math."""
    ok = ((m >= 0.0) & (m <= 1.0) & (y >= 0.0) & (x >= 0.0) & (np.maximum(y, x) > 0.0)
          & (np.minimum(y, x) < math.inf))
    if not ok.all():
        i = int(np.argmin(ok))
        ellint_F_zeta(float(y.flat[i]), float(x.flat[i]), float(m.flat[i]))
    y, x = y.copy(), x.copy()
    h = np.array(list(map(math.hypot, y.ravel().tolist(), x.ravel().tolist()))).reshape(y.shape)
    for i in np.flatnonzero(~((h > 1e-300) & (h < 1e300))).tolist():
        y.flat[i], x.flat[i], h.flat[i] = _scaled_pair(float(y.flat[i]), float(x.flat[i]))
    sin, cos = y / h, x / h
    one = m == 1.0
    mu = np.where(one, 0.0, m)  # m = 1 takes the asinh branch below
    a, b, c_agm = np.ones_like(mu), np.sqrt(1.0 - mu), np.sqrt(mu)
    c, c_min, turns, Z = c_agm, 1e-17 * mu, np.zeros_like(mu), np.zeros_like(mu)
    n, landen = np.zeros(mu.shape, dtype=int), np.ones(mu.shape, dtype=bool)
    for _ in range(_AGM_MAX_ITER):
        chain = np.abs(c_agm) > _AGM_TOL * a  # a, c_agm stay put once it stops
        if not chain.any():
            break
        a_next = 0.5 * (a + b)
        c_next = c * c / (4.0 * a_next)
        landen &= chain & ~(c_next < c_min)
        r = b / a
        twice = turns + turns
        r_sin = r * sin
        root = np.sqrt(cos * cos + r_sin * r_sin)
        step = ((1.0 + r) * sin * cos / root, (cos * cos - r_sin * sin) / root)
        turns = np.where(landen, np.where(cos < 0.0, twice + np.copysign(1.0, sin), twice), turns)
        sin, cos = np.where(landen, step[0], sin), np.where(landen, step[1], cos)
        c, Z, n = np.where(landen, c_next, c), np.where(landen, Z + c_next * sin, Z), n + landen
        a, b, c_agm = (np.where(chain, a_next, a), np.where(chain, np.sqrt(a * b), b),
                       np.where(chain, 0.5 * (a - b), c_agm))
    angle = np.array(list(map(math.atan2, sin.ravel().tolist(), cos.ravel().tolist())))
    F = np.ldexp((2.0 * math.pi * turns + angle.reshape(mu.shape)) / a, -n)
    for i in np.flatnonzero(one).tolist():
        y_i, x_i = float(y.flat[i]), float(x.flat[i])
        F.flat[i], Z.flat[i] = (math.asinh(y_i / x_i) if x_i else math.inf), sin.flat[i]
    return F, Z


# ---------------------------------------------------------------------------
# Real-argument sn/cn/dn: descending Landen amplitude recursion.
# ---------------------------------------------------------------------------


def _amplitude(u: float, m: float) -> float:
    """am(u|m) for 0 <= m < 1, with u first reduced modulo the period 4K.

    The descending Landen recursion phi_N = 2^N a_N u,
    phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2 ends at phi_0 = am u.
    The reduction keeps sin() away from huge arguments once amplified by
    2^N; it shifts am u by a multiple of 2 pi, and not at all for |u| < 2K.
    """
    a_seq, c_seq, _ = _agm_chain(m)
    n_last = len(a_seq) - 1
    four_k = 2.0 * math.pi / a_seq[-1]
    u = u - four_k * round(u / four_k)
    phi = math.ldexp(a_seq[-1] * u, n_last)
    for n in range(n_last, 0, -1):
        t = (c_seq[n] / a_seq[n]) * math.sin(phi)
        t = min(1.0, max(-1.0, t))
        phi = 0.5 * (phi + math.asin(t))
    return phi


def _jacobi_scalar(u: float, m: float) -> tuple[float, float, float]:
    """sn, cn, dn for one real argument and 0 <= m < 1."""
    if m == 0.0:
        return math.sin(u), math.cos(u), 1.0

    phi = _amplitude(u, m)
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(cn * cn + (1.0 - m) * sn * sn)
    return sn, cn, dn


def _jacobi_array(u: np.ndarray, m: float) -> tuple[np.ndarray, ...]:
    """Vectorized counterpart of :func:`_jacobi_scalar` for 0 <= m < 1."""
    if m == 0.0:
        return np.sin(u), np.cos(u), np.ones_like(u)

    a_seq, c_seq, _ = _agm_chain(m)
    n_last = len(a_seq) - 1
    four_k = 2.0 * math.pi / a_seq[-1]
    u = u - four_k * np.round(u / four_k)
    phi = np.ldexp(a_seq[-1] * u, n_last)
    for n in range(n_last, 0, -1):
        t = np.clip((c_seq[n] / a_seq[n]) * np.sin(phi), -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(t))
    sn = np.sin(phi)
    cn = np.cos(phi)
    dn = np.sqrt(cn * cn + (1.0 - m) * sn * sn)
    return sn, cn, dn


def jacobi(u, m: float) -> JacobiTriple:
    """Jacobi sn, cn, dn for real argument(s) ``u`` and parameter ``m``.

    Implemented by the AGM/descending-Landen amplitude recursion:
    phi_N = 2^N a_N u, then phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2,
    with sn = sin(phi_0), cn = cos(phi_0) and dn = sqrt(cn^2 + (1-m) sn^2),
    which is 1 - m sn^2 without its cancellation near u = K as m -> 1.
    Accepts scalars or arrays; scalar in, floats out.
    """
    m = _check_parameter(m)
    if isinstance(u, float) or (np.ndim(u) == 0 and not isinstance(u, np.ndarray)):
        return JacobiTriple(*_jacobi_scalar(float(u), m))
    return JacobiTriple(*_jacobi_array(np.asarray(u, dtype=float), m))


# ---------------------------------------------------------------------------
# Complex argument: split through real evaluations at m and 1 - m.
# ---------------------------------------------------------------------------


def jacobi_complex(z: complex, m: float) -> JacobiTriple:
    """Jacobi sn, cn, dn for a complex argument.

    With s, c, d = sn, cn, dn(Re z | m) and s1, c1, d1 = sn, cn, dn(Im z | 1-m):

        den = c1^2 + m s^2 s1^2
        sn(z) = (s d1 + i c d s1 c1) / den
        cn(z) = (c c1 - i s d s1 d1) / den
        dn(z) = (d c1 d1 - i m s c s1) / den

    The argument is first reduced modulo the common period lattice
    (4K, 4iK') of the three functions.  Arguments within 1e-9 of a pole
    (z = 2nK + (2n'+1) i K') raise :class:`PoleError`.  At m = 0, and
    for m so small that 1 - m rounds to 1, K' is infinite and the
    functions are sin z, cos z and 1.
    """
    m = _check_parameter(m)
    z = complex(z)
    if 1.0 - m == 1.0:
        return JacobiTriple(cmath.sin(z), cmath.cos(z), 1.0 + 0.0j)
    K = ellint_K(m)
    Kc = ellint_K(1.0 - m)

    x = z.real - 4.0 * K * round(z.real / (4.0 * K))
    y = z.imag - 4.0 * Kc * round(z.imag / (4.0 * Kc))

    # Poles of sn/cn/dn within the reduced cell [-2K,2K) x [-2K',2K').
    dist = min(
        math.hypot(x - px, y - py)
        for px in (-2.0 * K, 0.0, 2.0 * K)
        for py in (-Kc, Kc)
    )
    if dist < _POLE_TOL:
        raise PoleError(f"jacobi_complex evaluated within {dist:.2e} of a pole")

    s, c, d = _jacobi_scalar(x, m)
    s1, c1, d1 = _jacobi_scalar(y, 1.0 - m)
    den = c1 * c1 + m * s * s * s1 * s1
    sn = complex(s * d1, c * d * s1 * c1) / den
    cn = complex(c * c1, -s * d * s1 * d1) / den
    dn = complex(d * c1 * d1, -m * s * c * s1) / den
    return JacobiTriple(sn, cn, dn)
