"""Independent numerical references used by the test suite.

Everything here deliberately avoids the closed-form elliptic machinery of
the package under test: values come from direct quadrature of defining
integrals and from ODE integration (scipy's DOP853) of the first-order
systems the special functions satisfy.  Agreement between these slow
references and the fast production formulas is the point of the tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp


# ---------------------------------------------------------------------------
# Complete elliptic integrals by quadrature of their definitions.  tanh-sinh
# quadrature in extended precision keeps the reference trustworthy to well
# below 1e-14 even for m = 1 - 1e-6, where the integrand peaks sharply.
# ---------------------------------------------------------------------------


def quad_K(m: float) -> float:
    """K(m) = integral_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt by quadrature."""
    with mp.workdps(30):
        val = mp.quad(lambda t: 1 / mp.sqrt(1 - m * mp.sin(t) ** 2), [0, mp.pi / 2])
        return float(val)


def quad_E(m: float) -> float:
    """E(m) = integral_0^{pi/2} sqrt(1 - m sin^2 t) dt by quadrature."""
    with mp.workdps(30):
        val = mp.quad(lambda t: mp.sqrt(1 - m * mp.sin(t) ** 2), [0, mp.pi / 2])
        return float(val)


# ---------------------------------------------------------------------------
# Jacobi functions as solutions of their defining ODE system:
#   sn' = cn dn,  cn' = -sn dn,  dn' = -m sn cn,  (sn,cn,dn)(0) = (0,1,1).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _jacobi_ode_solution(m: float, umax: float):
    def rhs(_, y):
        s, c, d = y
        return (c * d, -s * d, -m * s * c)

    sol = solve_ivp(rhs, (0.0, umax), (0.0, 1.0, 1.0), method="DOP853",
                    dense_output=True, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.sol


def ode_jacobi(u: float, m: float, umax: float = 12.0):
    """(sn, cn, dn)(u | m) from ODE integration; |u| must be <= umax."""
    assert abs(u) <= umax
    dense = _jacobi_ode_solution(m, umax)
    s, c, d = dense(abs(u))
    sign = -1.0 if u < 0 else 1.0  # sn is odd, cn and dn are even
    return sign * s, c, d


def ode_jacobi_complex(z: complex, m: float):
    """(sn, cn, dn)(z | m) by integrating the ODE system along the segment 0 -> z.

    Valid as long as the straight path stays away from the poles at
    2nK + (2n'+1) i K'.
    """
    z = complex(z)

    def rhs(_, y):
        s, c, d = y
        return (z * c * d, -z * s * d, -z * m * s * c)

    y0 = np.array([0.0, 1.0, 1.0], dtype=complex)
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return tuple(sol.y[:, -1])


def ode_dn_power_integral(N: int, m: float) -> float:
    """integral_0^{2K} dn^N(t|m) dt with dn supplied by the ODE system."""
    two_K = 2.0 * quad_K(m)

    def rhs(_, y):
        s, c, d = y[0], y[1], y[2]
        return (c * d, -s * d, -m * s * c, d ** N)

    sol = solve_ivp(rhs, (0.0, two_K), (0.0, 1.0, 1.0, 0.0), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return float(sol.y[3, -1])


def ode_dn2_antiderivative(u: float, m: float) -> float:
    """integral_0^u dn^2(t|m) dt with dn supplied by the ODE system."""
    if u == 0.0:
        return 0.0

    def rhs(_, y):
        s, c, d = y[0], y[1], y[2]
        return (c * d, -s * d, -m * s * c, d * d)

    sol = solve_ivp(rhs, (0.0, u), (0.0, 1.0, 1.0, 0.0), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return float(sol.y[3, -1])


# ---------------------------------------------------------------------------
# The orbit invariant kc in 30-digit arithmetic.
# ---------------------------------------------------------------------------


def mp_kc(m: float, V: float) -> complex:
    """kc = w^2 / (6 pi^2), w = K zeta(a) - eta1 a, from mpmath's integrals.

    The arc parameter t of a = wp^-1(V) on its edge of the half rectangle
    is F(asin sn | mu), with sn read off the restriction of wp to that
    edge; epsilon(t) = E(asin sn | mu) and cn dn / sn comes from mpmath's
    Jacobi functions at t.  V must not sit on a corner e_i.
    """
    with mp.workdps(30):
        m, V = mp.mpf(m), mp.mpf(V)
        K, E = mp.ellipk(m), mp.ellipe(m)
        e1, e2, e3 = (2 - m) / 3, -(1 + m) / 3, (2 * m - 1) / 3
        if V < e2:  # a = iY, wp = e1 - 1/sn^2(Y|1-m)
            mu, sn = 1 - m, 1 / mp.sqrt(e1 - V)
        elif V < e3:  # a = X + iK', wp = e2 + m sn^2(X|m)
            mu, sn = m, mp.sqrt((V - e2) / m)
        elif V < e1:  # a = K + iY, wp = e2 + dn^2(Y|1-m)
            mu, sn = 1 - m, mp.sqrt((e1 - V) / (1 - m))
        else:  # a = x, wp = e2 + 1/sn^2(x|m)
            mu, sn = m, 1 / mp.sqrt(V - e2)
        phi = mp.asin(sn)
        t, eps = mp.ellipf(phi, mu), mp.ellipe(phi, mu)
        cn_dn_sn = mp.ellipfun("cn", t, m=mu) * mp.ellipfun("dn", t, m=mu) / sn
        if V < e2:
            w = -1j * (K * eps - (K - E) * t + K * cn_dn_sn)
        elif V < e3:
            w = K * eps - E * t - 1j * mp.pi / 2
        elif V < e1:
            w = -1j * (K * eps - (K - E) * t)
        else:
            w = K * eps - E * t + K * cn_dn_sn
        return complex(w * w / (6 * mp.pi**2))


# ---------------------------------------------------------------------------
# Weierstrass zeta, sigma, wp, wp' and eta1 in 30-digit arithmetic.
# ---------------------------------------------------------------------------


def mp_zeta_sigma(z: complex, m: float) -> tuple[complex, complex]:
    """zeta(z) and sigma(z) on the lattice of m from mpmath's ``jtheta``.

    DLMF 23.6(i) on the lattice itself, with no modular rotation:
    half-period K, eta1 = E - (2-m) K / 3, nome exp(-pi K'/K) and
    v = pi z / 2K.  Slow as q -> 1 but valid for every 0 < m < 1.
    """
    with mp.workdps(30):
        m, z = mp.mpf(m), mp.mpc(z)
        K, Kc, E = mp.ellipk(m), mp.ellipk(1 - m), mp.ellipe(m)
        eta1 = E - (2 - m) * K / 3
        q = mp.exp(-mp.pi * Kc / K)
        v = mp.pi * z / (2 * K)
        t, dt = mp.jtheta(1, v, q), mp.jtheta(1, v, q, 1)
        zeta = eta1 * z / K + mp.pi / (2 * K) * dt / t
        sigma = 2 * K / mp.pi * mp.exp(eta1 * z * z / (2 * K)) * t / mp.jtheta(1, 0, q, 1)
        return complex(zeta), complex(sigma)


def mp_wp(z: complex, m: float) -> tuple[complex, complex]:
    """wp(z) = 1/sn^2 - (m+1)/3 and wp'(z) = -2 cn dn / sn^3 on the lattice of
    m from mpmath's ``ellipfun`` at 30 digits, with no theta series."""
    with mp.workdps(30):
        m, z = mp.mpf(m), mp.mpc(z)
        sn, cn, dn = (mp.ellipfun(f, z, m=m) for f in ("sn", "cn", "dn"))
        return complex(1 / sn**2 - (m + 1) / 3), complex(-2 * cn * dn / sn**3)


def mp_circular(z: complex) -> tuple[complex, complex, complex, complex]:
    """wp, wp', zeta and sigma on the lattice of m = 0, whose second period is
    at infinity, from mpmath's sin and cos at 30 digits: 1/sin^2 z - 1/3,
    -2 cos z / sin^3 z, z/3 + cot z and sin(z) exp(z^2/6)."""
    with mp.workdps(30):
        z = mp.mpc(z)
        s, c = mp.sin(z), mp.cos(z)
        return (complex(1 / s**2 - mp.mpf(1) / 3), complex(-2 * c / s**3),
                complex(z / 3 + c / s), complex(s * mp.exp(z * z / 6)))


def eta1_by_integration(m: float) -> float:
    """eta1 = zeta(K) from the quasi-period of zeta, by quadrature of wp.

    zeta(z + 2K) - zeta(z) = 2 eta1 and zeta' = -wp, so along the top
    edge of the rectangle, where wp(t + iK') = e2 + m sn^2(t|m) has no
    pole, eta1 = -integral_0^K (e2 + m sn^2(t|m)) dt.  mpmath's
    tanh-sinh quadrature of mpmath's sn; independent of the closed form
    E - e1 K.
    """
    with mp.workdps(30):
        m = mp.mpf(m)
        e2 = -(1 + m) / 3
        val = mp.quad(lambda t: e2 + m * mp.ellipfun("sn", t, m=m) ** 2,
                      [0, mp.ellipk(m)])
        return float(-val)


def ode_hill_trace(q, period: float = 2.0 * math.pi) -> float:
    """Trace of the monodromy of psi'' = q(x) psi over one period.

    Integrates the two columns of the fundamental matrix directly; this is
    the brute-force Floquet route against which the closed-form trace is
    checked.
    """

    def rhs(x, y):
        qq = q(x)
        return (y[1], qq * y[0], y[3], qq * y[2])

    sol = solve_ivp(rhs, (0.0, period), (1.0, 0.0, 0.0, 1.0), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    assert sol.success
    return float(sol.y[0, -1] + sol.y[3, -1])


def mp_magnus_entries(E: float, strength: float, K: float, m: float, steps: int,
                      dps: int = 30) -> tuple:
    """Half-period entries of psi'' = (strength sn^2(z|m) - E) psi by the Magnus
    scheme of ``bands._half_period_entries``, in ``dps``-digit arithmetic.

    Returns (y1, y2/h, h y1', y2') at z = K, h = K/steps, as the kernel does
    but as ``dps``-digit mpf numbers: the same ``steps`` steps on [0, K], the
    same three Gauss nodes and the same sixth-order exponent, here built
    from its commutators (Blanes, Casas & Ros, *BIT* 40, 2000) rather than
    from the kernel's closed form; only the node values run in floats.  It
    checks the arithmetic of the float kernel, not its discretisation, so
    sn^2 comes from the package's float ``jacobi`` as it does in the kernel.
    """
    from kdvorbits.elliptic import jacobi

    h = K / steps
    sn = [jacobi(h * (np.arange(steps) + c), m).sn
          for c in (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15))]
    with mp.workdps(dps):
        E, h = mp.mpf(E), mp.mpf(K) / steps

        def comm(x, y):
            return x * y - y * x

        y = mp.eye(2)
        for row in zip(*sn):
            A1, A2, A3 = (mp.matrix([[0, 1], [mp.mpf(strength) * mp.mpf(s) ** 2 - E, 0]])
                          for s in row)
            a1 = h * A2
            a2 = (mp.sqrt(15) * h / 3) * (A3 - A1)
            a3 = (10 * h / 3) * (A3 - 2 * A2 + A1)
            c1 = comm(a1, a2)
            c2 = comm(a1, 2 * a3 + c1) / -60
            omega = a1 + a3 / 12 + comm(-20 * a1 - a3 + c1, a2 + c2) / 240
            musq = -(omega[0, 0] * omega[1, 1] - omega[0, 1] * omega[1, 0])  # Omega^2 = mu^2 I
            root = mp.sqrt(abs(musq))
            if musq > 0:
                ch, s = mp.cosh(root), mp.sinh(root) / root
            elif musq < 0:
                ch, s = mp.cos(root), mp.sin(root) / root
            else:
                ch, s = mp.mpf(1), mp.mpf(1)
            y = (ch * mp.eye(2) + s * omega) * y
        return y[0, 0], y[0, 1] / h, y[1, 0] * h, y[1, 1]


def mp_magnus_trace(E: float, strength: float, K: float, m: float, steps: int,
                    dps: int = 30) -> float:
    """Floquet trace 2 (y1 y2' + y1' y2) at K of :func:`mp_magnus_entries`."""
    a, b, c, d = mp_magnus_entries(E, strength, K, m, steps, dps)
    with mp.workdps(dps):
        return float(2 * (a * d + b * c))


# ---------------------------------------------------------------------------
# The shoaling depth relation inverted in extended precision.
# ---------------------------------------------------------------------------


def mp_m_from_depth(h: float, T: float, F: float, rho: float, g: float,
                    guess: float) -> float:
    """The m whose transport bracket (m-1)K^4/3 + (4-2m)EK^3/3 - E^2K^2
    equals (27/256)(sqrt(g)/rho) T^3 F / (3 h^(9/2)), at 50 digits."""
    with mp.workdps(50):
        target = (mp.mpf(27) / 256 * mp.sqrt(g) / rho * mp.mpf(T) ** 3 * F
                  / (3 * mp.mpf(h) ** mp.mpf(4.5)))

        def defect(x):  # in the logit x = log(m / (1 - m)), so m stays in (0, 1)
            m = 1 / (1 + mp.exp(-x))
            K, E = mp.ellipk(m), mp.ellipe(m)
            return ((m - 1) * K**4 / 3 + (4 - 2 * m) * E * K**3 / 3
                    - E * E * K * K) / target - 1

        x = mp.findroot(defect, mp.log(guess / (1 - mp.mpf(guess))))
        return float(1 / (1 + mp.exp(-x)))


def mp_critical_m() -> float:
    """The root m* of E(m)/K(m) = 1/2, correctly rounded from 50 digits."""
    with mp.workdps(50):
        return float(mp.findroot(lambda m: mp.ellipe(m) / mp.ellipk(m) - 0.5, (0.8, 0.85),
                                 solver="anderson"))


# ---------------------------------------------------------------------------
# KdV by integrating-factor RK4 on the whole spectrum.
# ---------------------------------------------------------------------------


def kdv_full_spectrum(samples, c: float, tau: float) -> np.ndarray:
    """p_tau = (c/12) p_xxx - 3 p p_x by the scheme of ``hill.kdv_evolve``,
    written out on every rfft mode: each step's RK4 stages carry the whole
    spectrum, the top third (at and past the 2/3 cut) included, and the step
    count is kdv_evolve's default.  Only rounding may separate the two."""
    samples = np.asarray(samples, float)
    n = samples.size
    k = np.arange(n // 2 + 1, dtype=float)
    speed = 3.0 * float(np.max(np.abs(samples))) + 1e-30
    steps = max(int(math.ceil(abs(tau) * speed * (n // 2) / 2.8)) + 1, 16)
    dt = tau / steps

    cut = n // 3 + 1  # 2/3-rule: drop the top third before and after squaring
    L = (c / 12.0) * (1j * k) ** 3
    E = np.exp(L * dt / 2.0)
    E2 = E * E
    advect = np.where(k < cut, -1.5j * k, 0.0)

    def nonlinear(ph):
        return advect * np.fft.rfft(np.fft.irfft(ph[:cut], n) ** 2)

    ph = np.fft.rfft(samples)
    for _ in range(steps):
        k1 = nonlinear(ph)
        k2 = nonlinear(E * (ph + 0.5 * dt * k1))
        k3 = nonlinear(E * ph + 0.5 * dt * k2)
        k4 = nonlinear(E2 * ph + dt * E * k3)
        ph = E2 * ph + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
    return np.fft.irfft(ph, n)
