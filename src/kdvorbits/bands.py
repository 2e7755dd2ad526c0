"""Band structure of the periodic Lame operator -psi'' + N(N+1) m sn^2 psi.

For N = 1 the potential is the cnoidal profile in disguise, and the band
picture is the orbit classification read sideways: energies translate to
trace coordinates through V = (2m+2)/3 - E, the crystal momentum is the
Floquet exponent, and -(kappa l / 2 pi)^2 = 6 k/c ties a band point to the
energy of its constant orbit representative.  The spectrum has a single
finite gap of width m -- valence band [m, 1], gap (1, m+1), conduction
band [m+1, inf) -- plus the semi-infinite forbidden region below E = m.

:func:`crystal_momentum` evaluates the dispersion in closed form through
the complex Weierstrass zeta function.  That route shares no code with
the elementary edge-wise expressions in :mod:`.orbits`, so agreement
between the two is a real consistency check, exercised in the tests.

For every N the 2N + 1 band edges are the eigenvalues of four finite
tridiagonal matrices (:func:`band_edges`), and the crystal momentum is an
abelian integral over them (:func:`kappa_ell_extended`), or the Magnus
trace (:func:`floquet_traces`) where that cannot resolve the bands.
:func:`numeric_band_gaps` is the independent check and never consults the
matrices.  As sn^2 is even about K, Tr - 2 = 4 y1'(K) y2(K) and Tr + 2 =
4 y1(K) y2'(K) for the fundamental solutions y1, y2 at 0, so each edge is a
simple zero in E of one of these entries, which a batched sixth-order
Magnus integrator, its steps sized from K, scans and regula falsi refines;
their zeros must interlace, y1 with y1' and y2 with y2', and be as many
as Sturm oscillation counts.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .asymptotics import Approximation, exceptional_V_asymptote
from .elliptic import jacobi
from .errors import DomainError, NumericalError, PoleError, ResolutionError, shown
from .profiles import Profile, finite
from .weierstrass import E2, lattice, wp_amplitude, wp_inverse, zeta

__all__ = [
    "BandPoint",
    "GapInterval",
    "crystal_momentum",
    "band_edges",
    "kappa_ell_extended",
    "lame_profile",
    "exceptional_energy_asymptote",
    "floquet_traces",
    "numeric_band_gaps",
]

_EDGE_SNAP = 1e-9
_N_MAX = 4096  # band_edges' dense blocks hold about (N/2)^2 floats
# kappa_ell_extended: largest N, largest miss of a band's pi, Gauss-Legendre
# nodes per panel.  An integral stops at most halfway across its band or gap,
# so on a panel mapped to [-1, 1] the far edge's branch point lies at
# t >= 2 sqrt 2 - 1, and n nodes leave an error of about rho^-2n with
# log rho = acosh t: 16 nodes for 2^-53.
_ABELIAN_N_MAX, _BAND_CHECK = 16, 1e-9
_GAUSS_NODES = math.ceil(26.5 * math.log(2.0) / math.acosh(2.0 * math.sqrt(2.0) - 1.0))
# Magnus steps across the half period [0, K] of sn^2, at most 64 ceil(2K) of
# K = 20, past the largest lattice K (19.75 at m = 1 - 2^-53).
_STEP_CEILING = 2560
# The half period is cut into _BLOCKS blocks of consecutive steps that are
# advanced side by side, and energies are taken _CHUNK at a time, so every
# (block, energy) array holds 2^14 floats whatever the batch size.
_BLOCKS = 64
_CHUNK = 2**14 // _BLOCKS
# Taylor coefficients in x of cosh sqrt(x) and sinh sqrt(x) / sqrt(x).  The
# series stops once the next term is below 2^-65, so the truncations of up
# to 2560 steps together stay under one rounding; for |x| <= 1 that is by
# degree 10.
_COSH = tuple(1.0 / math.factorial(2 * n) for n in range(11))
_SINHC = tuple(1.0 / math.factorial(2 * n + 1) for n in range(11))
_TRUNCATION = 2.0**-65
# The gap scan: first step (the Sturm count catches what it misses), halvings
# and energy count, entry names, final bracket width in ulp, closed-gap width per max(1, E).
_SCAN_STEP, _RESCANS, _SCAN_CEILING = 0.1, 6, 2**15
_ENTRIES = ("y1(K)", "y2(K)", "y1'(K)", "y2'(K)")
_ULPS, _CLOSED = 4, 1e-12


class BandPoint(NamedTuple):
    """Dispersion data at one energy of the N = 1 band problem.

    ``kappa_ell`` is the crystal momentum times the lattice spacing,
    reduced to the first Brillouin zone [0, pi].  ``kappa_ell_extended``
    keeps the unreduced value: real on the bands (running 0 -> pi across
    the valence band and onward from pi in the conduction band), and
    complex in the forbidden regions -- pi + i(...) inside the finite
    gap, purely imaginary below the spectrum.  ``in_gap`` flags the
    forbidden case; for such energies ``kappa_ell`` holds only the real
    part of the extended value.
    """

    energy: float
    kappa_ell: float
    kappa_ell_extended: complex
    in_gap: bool


class GapInterval(NamedTuple):
    """One forbidden energy interval (lo, hi); |Tr M| > 2 strictly inside."""

    lo: float
    hi: float


def crystal_momentum(E: float, m: float) -> BandPoint:
    """Crystal momentum of the N = 1 Lame operator at energy ``E``.

    Evaluates kappa*l = 2i [K zeta(a) - zeta(K) a] at a = wp_inverse(V),
    V = (2m+2)/3 - E, fixing the branch so the extended-zone value has
    nonnegative real and imaginary parts, and snapping to the band edges
    (multiples of pi) within 1e-9.  An imaginary part marks a forbidden
    energy; the identity -(kappa l / 2 pi)^2 = 6 k/c holds in every
    region, gaps included, with both sides complex.
    """
    lat = lattice(m)
    E = float(E)
    if not math.isfinite(E):
        raise DomainError(f"energy must be finite, got {E!r}")
    V = (2.0 * m + 2.0) / 3.0 - E
    if lat.m == 0.0 and wp_amplitude(V, lat).corner == E2:
        # Double corner e2 = e3: the inverse point runs off to i*infinity,
        # but the dispersion pi*sqrt(E) passes through continuously.
        return BandPoint(E, math.pi, complex(math.pi, 0.0), False)
    a = wp_inverse(V, lat)
    try:
        za = zeta(a, lat)
    except PoleError:  # |a| < 1e-9, past |E| ~ 1e18: zeta's Laurent series, exact to an ulp there
        za = 1.0 / a - lat.g2 * a**3 / 60.0
    kappa = 2j * (lat.K * za - lat.eta1 * a)
    if kappa.real < -_EDGE_SNAP or (abs(kappa.real) <= _EDGE_SNAP and kappa.imag < 0.0):
        kappa = -kappa

    re, im = kappa.real, kappa.imag
    if abs(im) <= _EDGE_SNAP:
        im = 0.0
    whole = math.pi * round(re / math.pi)
    if abs(re - whole) <= _EDGE_SNAP:
        re = whole
    kappa = complex(re, im)

    folded = math.fmod(re, 2.0 * math.pi)
    if folded < 0.0:
        folded += 2.0 * math.pi
    if folded > math.pi:
        folded = 2.0 * math.pi - folded
    return BandPoint(E, folded, kappa, im != 0.0)


def _lame_index(N) -> int:
    """N as an int, DomainError outside [1, _N_MAX]."""
    N = int(N)
    if not 1 <= N <= _N_MAX:
        raise DomainError(f"Lame index N must be an integer in [1, {_N_MAX}], got {shown(N)}")
    return N


def band_edges(m: float, N: int = 1) -> tuple[float, ...]:
    """The 2N + 1 band-edge energies of the Lame-N operator, in order.

    Edges e_0 < e_1 <= e_2 < ... < e_2N: bands [e_0, e_1], [e_2, e_3],
    ..., [e_2N, inf) and gaps (e_2g-1, e_2g), g = 1..N.  For N = 1 these
    are (m, 1, m+1) exactly: valence band [m, 1], gap of width m and,
    through V = (2m+2)/3 - E, the wedge corners and the parabolic line of
    the orbit diagram.  At m = 0 the gaps close onto the free levels r^2.
    In floats the order is only non-strict: at large N the lowest bands
    are narrower than an ulp.

    In phi = am x the operator -d^2/dx^2 + N(N+1) m sn^2 maps cos r phi
    to -(d_r cos r phi + u_r cos (r+2) phi + l_r cos (r-2) phi), and
    sin r phi likewise, with d_r = -r^2 + m (r^2 - N(N+1))/2,
    u_r = (m/4)(N-r)(N+r+1) and l_r = (m/4)(N+r)(N-r+1).  Since u_N = 0,
    the cosines and the sines with r <= N of each parity of r span four
    invariant tridiagonal blocks (Ince 1940; Arscott, *Periodic
    Differential Equations*, ch. IX; DLMF 29.15(i)), whose eigenvalues
    are minus the edges.  Each block is symmetrised with off-diagonals
    sqrt(u_r l_r+2) and solved densely by ``numpy.linalg.eigvalsh``: O(N^2)
    memory, so N is capped at 4096 (2049 rows, 34 MB, about 2.5 s).
    """
    N = _lame_index(N)
    m = float(m)
    if not 0.0 <= m < 1.0 or math.isnan(m):
        raise DomainError(f"band_edges requires 0 <= m < 1, got {m!r}")

    n2 = N * (N + 1)
    blocks = []
    # Even cosines, odd cosines, odd sines, even sines.  cos(-phi) = cos phi
    # and sin(-phi) = -sin phi fold l_1 into the r = 1 diagonal with the
    # sign `fold`; cos(-2 phi) = cos 2 phi doubles u_0; sin 0 = 0 drops l_2.
    for first, fold in ((0, 0), (1, 1), (1, -1), (2, 0)):
        r = np.arange(first, N + 1, 2, dtype=float)
        if r.size == 0:
            continue
        # m-terms grouped first, so the 1x1 blocks of N = 1 are exact
        turn = np.where(r == 1.0, 0.25 * fold * n2, 0.0)
        diag = -r * r + m * (0.5 * (r * r - n2) + turn)
        s = r[:-1]
        off = 0.25 * m * np.sqrt((N - s) * (N + s + 1) * (N + s + 2) * (N - s - 1))
        if first == 0:
            off[:1] *= math.sqrt(2.0)
        block = np.diag(off, -1)  # eigvalsh reads the lower triangle only
        np.fill_diagonal(block, diag)
        blocks.append(np.linalg.eigvalsh(block))
    return tuple(float(e) for e in np.sort(-np.concatenate(blocks)))


@functools.cache
def _gauss_legendre() -> tuple:
    """(node, weight) of Gauss-Legendre on [0, 1], by Newton on the Legendre recurrence."""
    rule, n = [], _GAUSS_NODES
    for x in (math.cos(math.pi * (i + 0.75) / (n + 0.5)) for i in range(n)):
        for _ in range(8):
            p, q = 1.0, 0.0
            for k in range(1, n + 1):
                p, q = ((2 * k - 1) * x * p - (k - 1) * q) / k, p
            slope = n * (x * p - q) / (x * x - 1.0)
            x -= p / slope
        rule.append((0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


def _edge_integrals(edges, centers, end, target, scale) -> np.ndarray:
    """int N_j dx / sqrt|R| from edges[end] to target, j = 0..n, R = prod (x - e) over
    the edges and N_j = prod (x - c) over the first j centers, one column each.
    x = e_end + scale v^2 (scale < 0 downward) takes sqrt|x - e_end| into dv,
    and Gauss-Legendre sums the rest over the panels [0, 1], [1, 2], [2, 4], ..."""
    n, columns = centers.size, np.arange(end.size)
    offsets = edges[end] - np.concatenate((edges, centers))[:, None]
    v_end = np.sqrt((target - edges[end]) / scale)
    sums, basis = np.zeros((n + 1, end.size)), np.ones((n + 1, end.size))
    lo, hi = 0.0, 1.0
    while (v_end > lo).any():
        width = np.minimum(hi, v_end) - np.minimum(lo, v_end)
        start = np.where(width > 0.0, lo, 0.5 * v_end)  # past v_end: any finite point
        for node, weight in _gauss_legendre():
            rows = offsets + scale * (start + width * node) ** 2
            rows[end, columns] = 1.0  # x - e_end went into dv
            np.cumprod(rows[2 * n + 1:], axis=0, out=basis[1:])
            sums += basis * (weight * width / np.sqrt(np.abs(np.prod(rows[:2 * n + 1], axis=0))))
        lo, hi = hi, 2.0 * hi
    return 2.0 * np.sqrt(np.abs(scale)) * sums


@np.errstate(all="ignore")  # a band that misses pi or a value out of range is refused
def kappa_ell_extended(energies, m: float, N: int) -> np.ndarray:
    """Extended-zone crystal momentum kappa*l of the Lame-N operator at each energy.

    The quasi-momentum of a finite-gap potential is the abelian integral
    dp = P(E) dE / (2 sqrt R(E)), R = prod (E - e) over the :func:`band_edges`
    and P monic of degree N with every open gap integrating to 0 (Novikov,
    Manakov, Pitaevskii & Zakharov, *Theory of Solitons*, ch. II); a gap
    closed in floats is a root of P.  In band j, kappa*l is j pi + 2K int |dp|
    from the lower edge or (j + 1) pi - 2K int |dp| from the upper one,
    whichever is nearer; it is j pi in gap j and 0 below the spectrum.  Each
    finite band must integrate to pi within 1e-9.  Where one does not (bands
    narrower than band_edges resolves, as at m >= 1 - 1e-6), past N = 16,
    and where R(E) leaves the float range, ResolutionError leaves the answer
    to :func:`floquet_traces`.
    """
    N = _lame_index(N)
    if N > _ABELIAN_N_MAX:
        raise ResolutionError(f"the abelian integral takes N up to {_ABELIAN_N_MAX}, got {N}")
    K = lattice(m).K
    E = finite(np.asarray(energies, float), "energies must be finite")
    edges = np.array(band_edges(m, N))
    open_ = np.flatnonzero(edges[1::2] < edges[2::2])
    e = np.concatenate((edges[:1], np.column_stack((edges[1::2], edges[2::2]))[open_].ravel()))
    at_edge = np.concatenate(([0.0], np.repeat(open_ + 1.0, 2))) * math.pi  # kappa*l there
    top, largest = e.size - 1, np.abs(E).max(initial=0.0)
    if not (largest + np.abs(e).max()) ** (top + 1) < 1e300:  # bounds |R| on the way
        raise ResolutionError(f"R(E) leaves the float range at |E| = {float(largest)!r}")

    # Both halves of every band and gap, then each energy in a band from its
    # nearer edge, scaled by the distance to the edge beyond (or 1).
    below = np.searchsorted(e, E.ravel(), "right")
    band = np.flatnonzero(below % 2)
    x, lower = E.ravel()[band], below[band] - 1
    upper = np.minimum(lower + 1, top)
    end = np.concatenate(((np.arange(2 * top) + 1) // 2,
                          np.where(x - e[lower] <= e[upper] - x, lower, upper)))
    target = np.concatenate((np.repeat(0.5 * (e[:-1] + e[1:]), 2), x))
    down = target < e[end]
    reach = np.diff(np.concatenate(([e[0] - 1.0], e, [e[-1] + 1.0])))
    sums = _edge_integrals(e, 0.5 * (e[1::2] + e[2::2]), end, target,
                           np.where(down, -reach[end + 1], reach[end]))
    spans = sums[:, :2 * top:2] + sums[:, 1:2 * top:2]
    gaps = spans[:, 1::2].T.copy()  # rows [A | b] of the gap conditions A c = -b
    for i in range(top // 2):  # Gauss-Jordan: no BLAS kernel moves the rounding
        f = gaps[:, i] / gaps[i, i]
        f[i] = 0.0
        gaps -= f[:, None] * gaps[i]
    coeffs = np.append(-gaps[:, -1] / gaps.diagonal(), 1.0)

    def momentum(columns):  # 2K int |dp| = K |P . sums|
        return K * np.abs(sum(c * row for c, row in zip(coeffs, columns)))

    miss = float(np.max(np.abs(momentum(spans[:, ::2]) - np.diff(at_edge)[::2]), initial=0.0))
    if not miss <= _BAND_CHECK:
        raise ResolutionError(f"a band at N = {N}, m = {m!r} integrates to pi within {miss:.3g}")
    kappa = np.concatenate(([0.0], at_edge))[below]
    kappa[band] = at_edge[end[2 * top:]] + np.where(down[2 * top:], -1.0, 1.0) * momentum(
        sums[:, 2 * top:])
    if not np.isfinite(kappa).all():
        raise ResolutionError(f"kappa*l at N = {N}, m = {m!r} leaves the float range")
    return kappa.reshape(E.shape)


def lame_profile(N: int, m: float, E: float, c: float, n: int = 512) -> Profile:
    """The 2pi-periodic Hill profile whose band problem is Lame's equation.

    p(x) = (c K^2 / 6 pi^2) [N(N+1) m sn^2(K x / pi | m) - E].

    For N = 1 this is ``cnoidal_profile(m, (2m+2)/3 - E, c)`` exactly;
    for higher N it is the input on which the adaptive Floquet oracle
    in :mod:`.hill` checks :func:`band_edges`.
    """
    N = _lame_index(N)
    lat = lattice(m)
    E = float(E)
    amp = c * lat.K * lat.K / (6.0 * math.pi**2)
    strength = N * (N + 1) * m
    scale = lat.K / math.pi

    def evaluate(x):
        s = jacobi(np.asarray(x, float) * scale, m).sn
        return amp * (strength * s * s - E)

    return Profile.from_callable(evaluate, n=n)


def exceptional_energy_asymptote(n: int, m: float,
                                 hbar: float | None = None,
                                 mass: float | None = None,
                                 spacing: float | None = None) -> Approximation:
    """Energy of the n-th band edge at large n: free-particle levels.

        E_n ~ pi^2 n^2 / (4 K^2) + 2 - 2 E(m)/K(m),

    the image of the n-th exceptional level curve V ~ -pi^2 n^2 / 4K^2
    (:func:`.asymptotics.exceptional_V_asymptote`, which refuses n) under
    V = (2m+2)/3 - E, with the O(1) offset kept (it vanishes at m = 0,
    where the levels are exactly n^2).  Validity is 2K/(pi n), the
    reciprocal of the free-particle quantum number in half-period units;
    at fixed n it degrades as m -> 1 where K diverges.

    Passing ``hbar``, ``mass`` and ``spacing`` together re-dimensionalizes
    the result by the energy scale 2 hbar^2 K^2 / (mass * spacing^2).
    """
    curve = exceptional_V_asymptote(n, m)
    lat = lattice(m)
    value = -curve.value + 2.0 - 2.0 * lat.E / lat.K
    dims = (hbar, mass, spacing)
    if any(d is not None for d in dims):
        if any(d is None for d in dims):
            raise DomainError(
                "re-dimensionalization needs hbar, mass and spacing together")
        try:
            value *= 2.0 * hbar**2 * lat.K**2 / (mass * spacing**2)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"hbar = {hbar!r}, mass = {mass!r} and spacing = {spacing!r} "
                              "take the energy out of the float range")
    return Approximation(value, curve.validity)


# ---------------------------------------------------------------------------
# Numerical gap detection: a batched scan of the half-period entries.
# ---------------------------------------------------------------------------

# Floating-point overflow in the Magnus scan is refused, not warned of: nodes out
# of the float range by _series_degree, entries and traces by finite().
_REFUSED_BELOW = np.errstate(over="ignore", invalid="ignore")


def _step_count(strength: float, K: float, e_lo: float, e_hi: float, at_least: int = 0) -> int:
    """Steps across [0, K <= 19.75]: the least multiple of 64, and at least ``at_least``,
    with h = K/steps <= 1/128 and h^2 |strength sn^2 - E| <= 1 for E in [e_lo, e_hi].
    Past _STEP_CEILING, DomainError names the energies the ceiling resolves."""
    reach = max(abs(s - e) for s in (0.0, strength) for e in (e_lo, e_hi))
    blocks = max(at_least / _BLOCKS, K * max(2.0, math.sqrt(reach) / _BLOCKS))
    if blocks <= _STEP_CEILING / _BLOCKS and math.isfinite(strength + e_lo + e_hi):
        return _BLOCKS * math.ceil(blocks)
    limit = (_STEP_CEILING / K) * (_STEP_CEILING / K)  # no OverflowError from **
    lo, hi = max(strength, 0.0) - limit, min(strength, 0.0) + limit
    span = (f"energies in [{lo:.6g}, {hi:.6g}] only" if lo <= hi
            else f"no energy at strength N(N+1)m = {strength!r}")
    raise DomainError(
        f"the Magnus scan of at most {_STEP_CEILING} steps resolves {span} "
        f"(step phase at most 1), got energies in [{e_lo!r}, {e_hi!r}]")


@_REFUSED_BELOW
def _magnus_nodes(strength: float, K: float, m: float, e_lo: float, e_hi: float) -> tuple:
    """(U, A, B) per step of :func:`_half_period_entries`, for energies in [e_lo, e_hi].

    With s = strength sn^2 at the Gauss nodes 1/2 -+ sqrt(15)/10 and 1/2 of a
    step h, p = (sqrt(15) h/3)(s3 - s1) and r = (10 h/3)(s3 - 2 s2 + s1), the
    step exponent is [[w_H, h U], [w_L, -w_H]] with (w_H, h w_L) = A + B E.
    Blocks of 64 steps are added while a step phase may pass 1."""
    steps = _step_count(strength, K, e_lo, e_hi)
    while True:
        h = K / steps
        s1, s2, s3 = (strength * jacobi(h * (np.arange(steps) + c), m).sn ** 2
                      for c in (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)))
        p = (math.sqrt(15.0) * h / 3.0) * (s3 - s1)
        r = (10.0 * h / 3.0) * (s3 - 2.0 * s2 + s1)
        hr, hp2 = h * r, (h * p) ** 2
        slope = h * h * (1.0 + hr / 180.0 + hp2 / 3600.0)
        nodes = (1.0 - hr / 180.0 + hp2 / 3600.0,
                 np.stack(((h * p / 240.0) * (-20.0 + (4.0 / 3.0) * h * h * s2 + hr / 30.0),
                           hr / 12.0 + (h * h / 120.0) * (r * r / 30.0 - p * p) + slope * s2)),
                 np.stack(((-h**3 / 180.0) * p, -slope)))
        if _series_degree(nodes, e_lo, e_hi) is not None:
            return nodes
        steps = _step_count(strength, K, e_lo, e_hi, steps + _BLOCKS)


def _series_degree(nodes: tuple, e_lo: float, e_hi: float) -> int | None:
    """The Taylor degree in mu^2 for energies in [e_lo, e_hi], from a bound on
    |mu^2| = |w_H^2 + w_U w_L| over the steps; None where a phase may pass 1."""
    U, A, B = nodes
    w_H, hw_L = np.maximum(np.abs(A + B * e_lo), np.abs(A + B * e_hi))
    x_max = float(np.max(w_H * w_H + np.abs(U) * hw_L))
    if not x_max <= 1.0:
        return None
    degree = 0
    while x_max ** (degree + 1) / math.factorial(2 * degree + 2) > _TRUNCATION:
        degree += 1
    return degree


@_REFUSED_BELOW
def _half_period_entries(energies: np.ndarray, nodes: tuple) -> np.ndarray:
    """Half-period entries of psi'' = (strength sn^2(z|m) - E) psi on ``nodes``, per energy.

    Returns (a, b, c, d) = (y1, y2/h, h y1', y2') at z = K along a new
    first axis: the fundamental solutions y1, y2 at 0 in the variables
    (y, h y'), h = K/steps.  The half period is crossed in sixth-order
    Magnus steps with three Gauss nodes each (Blanes, Casas & Ros, *BIT* 40,
    2000; Iserles, Munthe-Kaas, Norsett & Zanna, *Acta Numerica* 2000).  The
    generator Omega of a step is traceless, so its exponential is cosh(mu) I
    + sinh(mu)/mu Omega, with mu^2 = w_H^2 + w_U w_L a convex quadratic in
    E.  One Taylor polynomial in mu^2, by Horner's rule, serves bands and
    gaps alike; its degree is set by a bound on |mu^2| over the energies.

    The steps form 64 blocks that advance side by side on (block, energy)
    arrays, 256 energies at a time, before the block propagators are
    multiplied pairwise.  Energies past those ``nodes`` were sized for, and
    entries that grow out of the float range, raise DomainError.
    """
    E = np.asarray(energies, float)
    flat = E.ravel()
    if flat.size == 0:
        return np.empty((4,) + E.shape)
    degree = _series_degree(nodes, float(flat.min()), float(flat.max()))
    if degree is None:
        raise DomainError("energies past those the Magnus steps were sized for")

    # Step k = (block, j) as column vectors that broadcast over energies.
    shape = (_BLOCKS, nodes[0].size // _BLOCKS, 1)
    U, A, B = (v.reshape(v.shape[:-1] + shape) for v in nodes)
    entries = np.empty((4, flat.size))
    for start in range(0, flat.size, _CHUNK):
        e = flat[start:start + _CHUNK]
        size = (_BLOCKS, e.size)
        # Block propagators [[a, b], [c, d]] in the variables (y, h y'), in
        # which the step is [[ch + w_H s, U s], [h w_L s, ch - w_H s]].
        a, b, c, d = np.ones(size), np.zeros(size), np.zeros(size), np.ones(size)
        x, ch, s, tmp = (np.empty(size) for _ in range(4))
        w, v = wv = np.empty((2,) + size)  # w_H and h w_L
        for j in range(shape[1]):
            np.multiply(B[..., j, :], e, out=wv)
            wv += A[..., j, :]
            np.multiply(U[:, j], v, out=x)
            np.multiply(w, w, out=tmp)
            x += tmp
            ch.fill(_COSH[degree])
            s.fill(_SINHC[degree])
            for n in range(degree - 1, -1, -1):
                ch *= x
                ch += _COSH[n]
                s *= x
                s += _SINHC[n]
            w *= s
            v *= s
            np.add(ch, w, out=tmp)
            ch -= w
            s *= U[:, j]
            for top, bottom in ((a, c), (b, d)):  # each column, in place
                np.multiply(s, bottom, out=x)
                bottom *= ch
                np.multiply(v, top, out=w)
                bottom += w
                top *= tmp
                top += x
        while a.shape[0] > 1:  # later blocks multiply from the left
            a, b, c, d = (a[1::2] * a[::2] + b[1::2] * c[::2],
                          a[1::2] * b[::2] + b[1::2] * d[::2],
                          c[1::2] * a[::2] + d[1::2] * c[::2],
                          c[1::2] * b[::2] + d[1::2] * d[::2])
        entries[:, start:start + e.size] = a[0], b[0], c[0], d[0]
    return finite(entries, "the half-period entries leave the float range").reshape(
        (4,) + E.shape)


@_REFUSED_BELOW
def floquet_traces(energies, m: float, N: int) -> np.ndarray:
    """Floquet trace of the Lame-N operator psi'' = (N(N+1) m sn^2(z|m) - E) psi over [0, 2K].

    sn^2 is even about K, so the trace is 2 (y1 y2' + y1' y2) at K (Magnus
    & Winkler, *Hill's Equation*, ch. 1), 2 (a d + b c) of the half-period
    entries, its steps sized by :func:`_step_count`: DomainError for |E|
    past about (2560 / K)^2, 1.9e6 at m = 1/2, and for every E once the
    strength N(N+1)m is past twice that.  Matches the same scheme in
    30-digit arithmetic to ~1e-13 max(1, |Tr|), and the adaptive oracle in
    :mod:`.hill` to ~1e-9.  The ``band`` command takes kappa*l = acos(Tr / 2)
    from it only where :func:`kappa_ell_extended` raises ResolutionError.
    """
    N, K = _lame_index(N), lattice(m).K
    E = np.asarray(energies, float)
    e_lo, e_hi = (float(E.min()), float(E.max())) if E.size else (0.0, 0.0)
    a, b, c, d = _half_period_entries(E, _magnus_nodes(N * (N + 1) * m, K, m, e_lo, e_hi))
    return finite(2.0 * (a * d + b * c), "the Floquet trace leaves the float range")


def _refine(nodes: tuple, entry: np.ndarray, left: np.ndarray, right: np.ndarray,
            f_left: np.ndarray, f_right: np.ndarray) -> np.ndarray:
    """Zeros of entry ``entry`` in brackets whose end values f_left, f_right differ in sign.

    Each round evaluates, for every open bracket in one batched call, the
    regula falsi point t, t -+ 1 ulp of max(1, t) and the midpoint, and keeps
    the first part that ends on the right end's side (positive or not).  The
    midpoint at least halves a bracket; the pair about t closes it once t is
    within an ulp of the zero (Dowell & Jarratt, *BIT* 11, 1971).  Rounds go
    on until no bracket is wider than 4 ulp of max(1, E).
    """
    while True:
        open_ = np.flatnonzero(right - left > _ULPS * np.spacing(np.maximum(right, 1.0)))
        if open_.size == 0:
            return 0.5 * (left + right)
        lo, hi, f_lo, f_hi = left[open_], right[open_], f_left[open_], f_right[open_]
        t = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        ulp = np.spacing(np.maximum(t, 1.0))
        cuts = np.sort(np.column_stack((t - ulp, t + ulp, 0.5 * (lo + hi))), axis=1)
        points = np.column_stack((lo, np.clip(cuts, lo[:, None], hi[:, None]), hi))
        rows = np.arange(open_.size)
        values = _half_period_entries(points[:, 1:4], nodes)[entry[open_], rows]
        values = np.column_stack((f_lo, values, f_hi))
        j = np.argmax((values[:, 1:] > 0.0) == (f_hi > 0.0)[:, None], axis=1)
        left[open_], right[open_] = points[rows, j], points[rows, j + 1]
        f_left[open_], f_right[open_] = values[rows, j], values[rows, j + 1]


@_REFUSED_BELOW
def _sturm_counts(nodes: tuple, E_max: float) -> np.ndarray:
    """Zeros in E below E_max of y1(K), y2(K), y1'(K), y2'(K), by Sturm oscillation: as many
    as y1(x; E_max) and y2(x; E_max) have on (0, K), one more for y' where y y' < 0 at K.

    :func:`_step_count` keeps h^2 |q - E| <= 1, so by Sturm comparison zeros in
    x lie at least pi h apart and the signs at the step ends count them all; the
    steps are multiplied by a log-depth prefix (Hillis & Steele, *CACM* 29, 1986)."""
    U, A, B = nodes
    w, v = A + B * E_max
    x = w * w + U * v
    ch = s = 0.0
    for n in range(_series_degree(nodes, E_max, E_max), -1, -1):
        ch, s = ch * x + _COSH[n], s * x + _SINHC[n]
    run, shift = np.stack((ch + w * s, U * s, v * s, ch - w * s)), 1
    while shift < run.shape[1]:  # step k now holds steps k - 2 shift + 1 .. k
        (a, b, c, d), (p, q, r, t) = run[:, :-shift], run[:, shift:]
        run[:, shift:] = p * a + q * c, p * b + q * d, r * a + t * c, r * b + t * d
        shift *= 2
    y = run[:2] > 0.0  # y1 and y2 / h at the step ends, both positive just past 0
    zeros = np.count_nonzero(y[:, 1:] != y[:, :-1], axis=1) + ~y[:, 0]
    a, b, c, d = run[:, -1]
    return np.concatenate((zeros, zeros + [a * c < 0.0, b * d < 0.0]))


def _interlacing_fault(zeros: np.ndarray, entry: np.ndarray, resolution: float) -> str | None:
    """Where the zeros of y1' and y1, or of y2' and y2, fail to take turns.

    By Sturm comparison the primed entry vanishes first and the two then
    alternate.  Zeros closer than ``resolution`` (1 + E) count as
    unordered: the scheme cannot order the edges of so narrow a band.
    """
    for first, second in ((2, 0), (3, 1)):
        # padded with the largest float, so an unmatched zero comes out of turn
        turns = np.full((entry.size, 2), np.finfo(float).max)
        for column, which in enumerate((first, second)):
            turns[:np.count_nonzero(entry == which), column] = np.sort(zeros[entry == which])
        turns = turns.ravel()
        early = np.flatnonzero(turns[1:] < turns[:-1] * (1.0 - resolution) - resolution)
        if early.size:
            return (f"the zeros of {_ENTRIES[first]} and {_ENTRIES[second]} "
                    f"do not interlace below E = {float(turns[early[0] + 1])!r}")
    return None


def numeric_band_gaps(N: int, m: float, E_max: float | None = None) -> list[GapInterval]:
    """Locate the N spectral gaps of the Lame-N operator numerically.

    Every band edge is a simple zero in E of one of the half-period
    entries y1, y2, y1', y2' at K, the four Neumann and Dirichlet problems
    on [0, K] (Magnus & Winkler, *Hill's Equation*, ch. 1-2; Eastham, *The
    Spectral Theory of Periodic Differential Equations*, ch. 1-3), and
    zeros of one entry lie a band and a gap apart.  So the entries are
    scanned over [0, E_max] (default (N+1)^2 + 1, above the last gap) at
    a step of 0.1, and every sign change is refined from the entries'
    values, all at once, to a few ulp.  If the zeros of y1 and y1', or of
    y2 and y2', fail to interlace, or an entry's zeros are not as many as
    Sturm oscillation counts below E_max from the signs of y1 and y2 in x,
    the step missed some: it is halved and the scan repeated, at most 6
    times, before ResolutionError.

    The sorted zeros are the bottom of the spectrum and then the edges of
    each gap in pairs, closed gaps included; a pair closer than 1e-12
    max(1, E) is closed.  Fewer than N open gaps raise ResolutionError, more
    NumericalError.  DomainError means E_max is not positive, past the
    energies the scan resolves in 2560 steps, past a first scan of 2^15
    energies (E_max about 3277, under a second), or inside a forbidden region.  Nothing here uses
    :func:`band_edges`.  Gaps come back in energy order, and the order is
    the label: the i-th gap sits at the extended-zone edge kappa*l = i*pi
    (by continuity from the free limit; an annotation, not checked).
    """
    N = _lame_index(N)
    lat = lattice(m)
    if lat.m == 0.0:
        raise DomainError("all gaps close at m = 0; there is nothing to scan")
    E_max = float((N + 1) ** 2 + 1 if E_max is None else E_max)
    if not E_max > 0.0:
        raise DomainError(f"E_max must be positive, got {E_max!r}")
    strength = N * (N + 1) * m
    _step_count(strength, lat.K, 0.0, E_max)  # an unresolved E_max fails before the grid
    step, count = _SCAN_STEP, math.ceil(E_max / _SCAN_STEP) + 1
    if count > _SCAN_CEILING:
        raise DomainError(f"E_max = {E_max!r} takes a scan of {count} energies, past the "
                          f"ceiling of {_SCAN_CEILING}")
    nodes = _magnus_nodes(strength, lat.K, m, 0.0, E_max)
    counts = _sturm_counts(nodes, E_max)
    for _ in range(_RESCANS + 1):
        energies = np.linspace(0.0, E_max, int(math.ceil(E_max / step)) + 1)
        values = _half_period_entries(energies, nodes)
        entry, i = np.nonzero((values[:, 1:] > 0.0) != (values[:, :-1] > 0.0))
        zeros = _refine(nodes, entry, energies[i], energies[i + 1],
                        values[entry, i], values[entry, i + 1])
        found = np.bincount(entry, minlength=len(_ENTRIES))
        fault = _interlacing_fault(zeros, entry, _CLOSED)
        if fault is None and np.array_equal(found, counts):
            break
        step /= 2.0
    else:
        k = int(np.argmax(found != counts))
        raise ResolutionError(
            f"{fault} in [0, {E_max!r}] at scan step {2.0 * step!r}" if fault else
            f"found {found[k]} zeros of {_ENTRIES[k]} below E_max = {E_max!r} where "
            f"Sturm's count is {counts[k]} (scan step {2.0 * step!r})")

    zeros = np.sort(zeros)
    if zeros.size % 2 == 0:
        raise DomainError(f"forbidden region still open at E_max = {E_max!r}; raise E_max")
    gaps = [GapInterval(float(lo), float(hi)) for lo, hi in zip(zeros[1::2], zeros[2::2])
            if hi - lo > _CLOSED * max(1.0, hi)]
    if len(gaps) < N:
        raise ResolutionError(
            f"found {len(gaps)} of {N} expected gaps below E_max = {E_max!r}, a gap "
            f"narrower than {_CLOSED:.3g} max(1, E) counting as closed")
    if len(gaps) > N:
        raise NumericalError(f"found {len(gaps)} open gaps where {N} were expected")
    return gaps
