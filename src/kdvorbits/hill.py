"""Numerical Floquet analysis of Hill operators, independent of closed forms.

The potential p enters Hill's equation as psi'' = q(x) psi with
q = 6 p / c, so a constant p = kc*c reproduces the trace
2 cosh(2 pi sqrt(6 kc)).  Everything in this module works from the
sampled profile by direct RK4 stepping or spectral stepping; nothing
here touches the elliptic closed forms, which is what makes the
trace/winding cross-checks in the test suite meaningful.

The one exception is :func:`lame_exact_residual`, which goes the other
way: it evaluates the classical product-of-sigmas solution of the
translated Lame equation and measures, by finite differences, how well it
actually solves the cnoidal Hill equation.

The Floquet oracle is a classical RK4 sweep in plain numpy, a
polynomial propagator rather than the Magnus exponential of ``bands``,
so the two numerical routes share no method, and this module imports no
scipy.  Its steps are multiplied pairwise up to the monodromy; the pair
after every step, which only a winding reads, is one pass back down.
The monodromy is Richardson-extrapolated from the sweeps at h and 2h.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, NumericalError, StabilityError, shown
from .orbits import monodromy_trace
from .profiles import PERIOD, Profile
from .weierstrass import lattice, sigma, wp, wp_inverse, zeta

__all__ = [
    "floquet",
    "floquet_monodromy",
    "winding_number",
    "lame_exact_residual",
    "kdv_evolve",
]

_RTOL = 1e-10  # relative error budget of the Wronskian check
_DET_TOL = 1e-8
_SWEEP_TOL = 1e-11  # step-doubling estimate over max(1, max|M|)
_FIRST_STEPS = 1024
_LAST_STEPS = 65536
_STENCIL_STEP = 1e-4  # lame_exact_residual's stencil width over max(1, |z|)

# RK4 covers the imaginary axis out to ~2.828; keep a sliver of margin.
_CFL_LIMIT = 2.8
# kdv_evolve refuses a default step count past this: 10^5 steps on 512 samples take seconds.
_DEFAULT_STEPS_CEILING = 10**5


def _check_charge(c: float) -> None:
    if c == 0.0 or not math.isfinite(c):
        raise DomainError(f"central charge c must be finite and nonzero, got {c!r}")


def _sweep(q: np.ndarray, h: float) -> list[np.ndarray]:
    """Classical RK4 for y' = [[0, 1], [q, 0]] y over q at every half step.

    ``q`` holds q(j h / 2), j = 0..2n, for n a power of two.  Step k is the
    RK4 propagator, a polynomial in h and g = (h^2 / 6) q at x, x + h/2
    and x + h.  Returns the n steps, then level by level the products of
    neighbouring pairs, up to the monodromy over n h alone.
    """
    g = (h * h / 6.0) * q
    g0, g1, g2 = g[:-1:2], g[1::2], g[2::2]
    step = np.empty((g1.size, 2, 2))
    step[:, 0, 0] = 1.0 + g0 + g1 * (2.0 + 1.5 * g0)
    step[:, 0, 1] = h + h * g1
    step[:, 1, 0] = (g0 + g2 + g1 * (4.0 + 3.0 * (g0 + g2))) / h
    step[:, 1, 1] = 1.0 + g2 + g1 * (2.0 + 1.5 * g2)
    levels = [step]
    while levels[-1].shape[0] > 1:
        levels.append(levels[-1][1::2] @ levels[-1][::2])
    return levels


def _running(levels: list[np.ndarray]) -> np.ndarray:
    """The running product of the steps, (n, 2, 2), by one pass down the levels, in place."""
    run = levels[-1]
    for level in levels[-2::-1]:
        level[2::2] = level[2::2] @ run[:-1]
        level[1::2] = run
        run = level
    return run


def _monodromy(profile: Profile, c: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """The checked monodromy and the levels of its accepted sweep; see :func:`floquet`."""
    _check_charge(c)
    with np.errstate(over="ignore", invalid="ignore"):  # a blown-up sweep fails its own checks
        steps, coarse = _FIRST_STEPS, None
        while True:
            q = (6.0 / c) * profile.resampled(2 * steps).samples
            if not np.all(np.isfinite(q)):
                raise DomainError("the Hill potential 6 p / c is not finite")
            q = np.append(q, q[0])
            h = PERIOD / steps
            if coarse is None:
                coarser, coarse = (_sweep(q[::k], k * h)[-1][0] for k in (4, 2))
            levels = _sweep(q, h)
            fine = levels[-1][0]
            mat = fine + (fine - coarse) / 15.0  # Richardson: RK4's h^4 error term cancels
            error = float(np.max(np.abs(mat - coarse - (coarse - coarser) / 15.0))) / 31.0
            nrm = float(np.max(np.abs(mat)))
            if error <= _SWEEP_TOL * max(1.0, nrm) and math.isfinite(nrm):
                break
            if steps == _LAST_STEPS or not math.isfinite(error + nrm):
                raise NumericalError(
                    f"Floquet sweep did not converge in {steps} RK4 steps "
                    f"(step-doubling estimate {error!r})")
            steps, coarser, coarse = 2 * steps, coarse, fine
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det - 1.0) > max(_DET_TOL, 10.0 * _RTOL * nrm * nrm):
        raise NumericalError(
            f"monodromy determinant drifted to {det!r}; sweep untrustworthy")
    return mat, levels


def floquet(profile: Profile, c: float) -> tuple[np.ndarray, int]:
    """Monodromy matrix and winding of psi'' = (6 p / c) psi, from one sweep.

    The fundamental pair (psi1(0), psi1'(0)) = (1, 0) and
    (psi2(0), psi2'(0)) = (0, 1) is carried over one period by classical
    RK4 (:func:`_sweep`) on q = 6 p / c sampled at the half steps of a
    uniform grid; its n steps are multiplied in pairs, the pairs in pairs,
    and so on, up to M_h (rounding grows like log n).  The monodromy is
    M(h) = M_h + (M_h - M_2h) / 15, which cancels RK4's h^4 error term (M_2h
    sweeps twice the step on every other node); its error is estimated as
    max|M(h) - M(2h)| / 31, taking it to fall like h^5.  The first pass sweeps
    1024, 512 and 256 steps; each further pass doubles the step count and
    sweeps the new fine grid only, until the estimate is at most 1e-11
    max(1, max|M|), else :class:`NumericalError` past 65536 steps, or at
    once where M or the estimate is not finite.  The Wronskian det M
    (exactly 1 in arithmetic) is checked last: 1e-8 absolute at moderate
    matrix norms, relaxed to ~|M|^2 1e-9 once the entries grow
    exponentially large (there an absolute check is unsatisfiable).  Only
    for the winding, one pass down the accepted fine sweep's products then
    forms the pair after every step; :func:`floquet_monodromy` stops at M.

    The stereographic angle theta = 2 atan2(psi2, psi1) obeys
    theta' = 2 / (psi1^2 + psi2^2) > 0 (the Wronskian is 1), so the lap
    count L = theta(2 pi) / 2 pi is monotone, and each step's increment
    of atan2(psi2, psi1) is read in [-pi/2, 3pi/2).  A step near a band
    edge turns it by almost pi (the pair passes close to the origin),
    but none turns it by 3pi/2: that takes two zeros of psi1 or psi2 in
    one step, so h sqrt(-q) > pi, where RK4's step error is of order one.

    The winding of the projective solution ratio psi2/psi1 is floor(L)
    in the stable case |trace| < 2.  In the unstable case the fractional
    part of L is not an invariant -- it shifts with the spatial phase of
    the profile, and floor(L) jumps when a zero of psi2 crosses an
    endpoint -- but L always straddles the winding within one lap, and
    the winding has a definite parity there: odd for trace < -2, even
    for trace > 2.  So the count is corrected to the member of
    {floor(L), floor(L) + 1} with that parity, which is exactly the
    (phase-independent) number of zeros of a Floquet solution per
    period.  Values of L within 1e-6 of an integer (band edges, where
    |trace| = 2) snap to it first.
    """
    mat, levels = _monodromy(profile, c)
    with np.errstate(over="ignore", invalid="ignore"):
        run = _running(levels)
    trace = mat[0, 0] + mat[1, 1]
    # the lap count sum(dalpha) / pi of alpha = atan2(psi2, psi1)
    turn = np.diff(np.arctan2(np.append(0.0, run[:, 0, 1]),
                              np.append(1.0, run[:, 0, 0])))
    turn = (turn + 0.5 * math.pi) % (2.0 * math.pi) - 0.5 * math.pi
    laps = float(turn.sum()) / math.pi
    nearest = round(laps)
    base = int(nearest) if abs(laps - nearest) < 1e-6 else math.floor(laps)
    # unstable: the winding is odd for trace < -2, even for trace > 2
    if abs(trace) >= 2.0 - 1e-9 and base % 2 != (trace < 0.0):
        base = base + 1 if laps - base > 0.0 else base - 1
    return mat, max(0, base)


def floquet_monodromy(profile: Profile, c: float) -> np.ndarray:
    """2x2 monodromy matrix of psi'' = (6 p / c) psi over one period; see :func:`floquet`."""
    return _monodromy(profile, c)[0]


def winding_number(profile: Profile, c: float) -> int:
    """Winding of the projective solution ratio psi2/psi1 over one period; see :func:`floquet`."""
    return floquet(profile, c)[1]


def lame_exact_residual(m: float, V: float, zs) -> float:
    """Residual of the sigma-quotient solutions in the N = 1 Lame equation.

    In the half-period variable z the cnoidal Hill equation becomes
    psi'' = (2 wp(z) + V) psi, solved exactly by the pair

        phi_pm(z) = exp(-+ zeta(a) z) sigma(z +- a) / (sigma(z) sigma(+-a)),

    where wp(a) = V.  Both solutions are checked at every point of
    ``zs`` with a 5-point finite-difference second derivative of width
    1e-4 scaled by |z|, and the largest relative defect is returned
    (expect ~1e-7: the stencil cancellation eats half the mantissa).

    Two side checks tie the formula to the Floquet layer: the
    multipliers phi_pm(z + 2K) / phi_pm(z) must multiply to 1 and sum
    to the closed-form monodromy trace, both within 1e-8, else
    :class:`NumericalError`.  Points within 1e-6 of a pole or zero of
    the pair (the period lattice and its translates by -+a) are
    rejected, since differencing there is meaningless, and so are points
    where the pair or its defect leaves the float range.
    """
    lat = lattice(m)
    if lat.m == 0.0:
        raise DomainError("the m = 0 profile is constant; nothing to validate")
    zs = [complex(z) for z in zs]
    if not zs:
        raise DomainError("need at least one evaluation point")
    a = wp_inverse(V, lat)
    za = zeta(a, lat)
    sig_a = sigma(a, lat)

    def phi(z: complex, sign: float) -> complex:
        return (np.exp(-sign * za * z) * sigma(z + sign * a, lat)
                / (sigma(z, lat) * sign * sig_a))

    two_k = 2.0 * lat.K
    two_kc = 2.0 * lat.Kc

    def lattice_distance(z: complex) -> float:
        zr = z.real - two_k * round(z.real / two_k)
        zi = z.imag - two_kc * round(z.imag / two_kc)
        return math.hypot(zr, zi)

    for z in zs:
        if min(lattice_distance(z), lattice_distance(z + a),
               lattice_distance(z - a)) < 1e-6:
            raise DomainError(
                f"z = {z!r} is within 1e-6 of a pole or zero of the solution")

    defects = []
    with np.errstate(all="ignore"):  # a value out of the float range is refused below
        factors = [phi(zs[0] + two_k, s) / phi(zs[0], s) for s in (1.0, -1.0)]
        for z in zs:
            h = _STENCIL_STEP * max(1.0, abs(z))
            potential = 2.0 * wp(z, lat) + V
            for sign in (1.0, -1.0):
                stencil = [phi(z + j * h, sign) for j in (-2, -1, 0, 1, 2)]
                d2 = (-stencil[0] + 16 * stencil[1] - 30 * stencil[2]
                      + 16 * stencil[3] - stencil[4]) / (12.0 * h * h)
                rhs = potential * stencil[2]
                defects.append(abs(d2 - rhs) / max(abs(rhs), abs(d2), 1e-30))
    if not np.all(np.isfinite(factors + defects)):
        raise DomainError("the sigma quotients leave the float range at these points")
    if abs(factors[0] * factors[1] - 1.0) > 1e-8:
        raise NumericalError(
            "Floquet multipliers of the sigma quotients are not reciprocal")
    if abs(factors[0] + factors[1] - monodromy_trace(m, V)) > 1e-8:
        raise NumericalError(
            "sigma-quotient multipliers disagree with the monodromy trace")
    return max(defects)


def kdv_evolve(profile: Profile, c: float, tau: float,
               steps: int | None = None) -> Profile:
    """Evolve the profile under KdV, p_tau = (c/12) p_xxx - 3 p p_x.

    Pseudo-spectral integrating-factor RK4 with 2/3-rule dealiasing.  Only the
    n // 3 + 1 modes below the cut are stepped: the top third, which no
    nonlinear term reaches, is advanced once by its exact factor
    exp((c/12)(ik)^3 tau); a spectrum left not finite raises StabilityError.  The
    step count is chosen so that the advective CFL number stays under the
    RK4 imaginary-axis limit; passing an explicit ``steps`` that violates
    it raises :class:`StabilityError`, and a tau no step count covers (nan,
    or too long for the profile's speed) :class:`DomainError`, as does a
    default step count past 10^5, before the first step; an explicit
    ``steps`` is capped only by the float range.  Cnoidal waves translate rigidly:
    p(x, tau) = p(x - v tau, 0) with v from :func:`cnoidal_speed`.
    """
    _check_charge(c)
    if tau == 0.0:
        return profile
    samples = profile.samples.astype(float)
    n = samples.size
    k = np.arange(n // 2 + 1, dtype=float)
    speed = 3.0 * float(np.max(np.abs(samples))) + 1e-30
    needed = abs(tau) * speed * (n // 2) / _CFL_LIMIT
    if not math.isfinite(needed):
        raise DomainError(f"tau = {tau!r} takes no finite number of KdV steps")
    needed = int(math.ceil(needed)) + 1
    if steps is None:
        if needed > _DEFAULT_STEPS_CEILING:
            raise DomainError(f"tau = {tau!r} takes {needed} KdV steps, past the default "
                              f"ceiling of {_DEFAULT_STEPS_CEILING}")
        steps = max(needed, 16)
    elif steps < needed:
        raise StabilityError(
            f"steps={shown(steps)} violates the advective CFL bound (need >= {needed})")
    elif not steps <= sys.float_info.max:  # tau / steps would overflow
        raise DomainError(f"steps={shown(steps)} is past the float range")
    dt = tau / steps

    with np.errstate(over="ignore", invalid="ignore"):  # a blown-up run fails the check below
        cut = n // 3 + 1  # 2/3-rule: drop the top third before and after squaring
        L = (c / 12.0) * (1j * k) ** 3
        E = np.exp(L * dt / 2.0)
        E2 = E * E
        # RK4's k_j is -1.5ik f_j, f_j the squares below; into and weights fold in -1.5ik, E, E2
        a, e, e2 = -1.5j * k[:cut], E[:cut], E2[:cut]
        into = (0.5 * dt * a * e, 0.5 * dt * a, dt * a * e)
        weights = (dt / 6.0) * a * np.array([e2, 2.0 * e, 2.0 * e, np.ones(cut)])
        x, f = np.empty(n), np.empty((4, n // 2 + 1), complex)
        squares = f[:, :cut]

        def square(ph, j):  # f_j = rfft(irfft(ph, n) ** 2) below the cut, in buffer j
            np.fft.rfft(np.square(np.fft.irfft(ph, n, out=x), out=x), out=f[j])
            return squares[j]

        spectrum = np.fft.rfft(samples)
        ph = spectrum[:cut]
        for _ in range(steps):
            eph, e2ph = e * ph, e2 * ph
            f1 = square(ph, 0)
            f2 = square(eph + into[0] * f1, 1)
            f3 = square(eph + into[1] * f2, 2)
            square(e2ph + into[2] * f3, 3)
            ph = e2ph + np.add.reduce(weights * squares)
        spectrum[:cut] = ph
        spectrum[cut:] *= E2[cut:] ** steps  # no nonlinear term reaches the top third
        if not np.all(np.isfinite(spectrum)):
            raise StabilityError("KdV step blew up; reduce the time step")
        return Profile.from_samples(np.fft.irfft(spectrum, n))
