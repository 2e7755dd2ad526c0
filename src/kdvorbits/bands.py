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
tridiagonal matrices (:func:`band_edges`).  :func:`numeric_band_gaps` is
the independent check: it locates the N gaps by scanning the Floquet
trace of the potential, with a Magnus integrator batched across the
whole energy grid at once, and never consults the matrices.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .asymptotics import Approximation
from .elliptic import jacobi
from .errors import DomainError, NumericalError, ResolutionError
from .profiles import Profile
from .weierstrass import lattice, wp_amplitude, wp_inverse, zeta

__all__ = [
    "BandPoint",
    "GapInterval",
    "crystal_momentum",
    "band_edges",
    "lame_profile",
    "exceptional_energy_asymptote",
    "floquet_traces",
    "numeric_band_gaps",
]

_EDGE_SNAP = 1e-9
_HALF_STEPS = 1536  # Magnus steps across the half period [0, K] of sn^2
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# The half period is cut into _BLOCKS blocks of consecutive steps that are
# advanced side by side, and energies are taken _CHUNK at a time, so every
# (block, energy) array holds 2^14 floats whatever the batch size.
_BLOCKS = 64
_CHUNK = 2**14 // _BLOCKS
# Taylor coefficients in x of cosh sqrt(x) and sinh sqrt(x) / sqrt(x).  The
# series stops once the next term is below 2^-64, so the truncations of all
# 1536 steps together stay under one rounding; for |x| <= 1 that is by
# degree 10.
_COSH = tuple(1.0 / math.factorial(2 * n) for n in range(11))
_SINHC = tuple(1.0 / math.factorial(2 * n + 1) for n in range(11))
_TRUNCATION = 2.0**-64
# Forbidden runs whose |Tr| never clears 2 by more than this are grazing
# artifacts of the scan, not gaps.
_TANGENCY = 1e-7
# Numerical edges are refined by multisection: each round evaluates this
# many subintervals of every bracket, until the brackets are this wide.
_SECTIONS = 16
_EDGE_BRACKET = 1e-9


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
    if lat.m == 0.0 and wp_amplitude(V, lat).corner == "e2":
        # Double corner e2 = e3: the inverse point runs off to i*infinity,
        # but the dispersion pi*sqrt(E) passes through continuously.
        return BandPoint(E, math.pi, complex(math.pi, 0.0), False)
    a = wp_inverse(V, lat)
    kappa = 2j * (lat.K * zeta(a, lat) - lat.eta1 * a)
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
    sqrt(u_r l_r+2), so the memory is O(N).
    """
    N = int(N)
    if N < 1:
        raise DomainError(f"Lame index N must be a positive integer, got {N}")
    m = float(m)
    if not 0.0 <= m < 1.0 or math.isnan(m):
        raise DomainError(f"band_edges requires 0 <= m < 1, got {m!r}")
    from scipy.linalg import eigvalsh_tridiagonal

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
        blocks.append(eigvalsh_tridiagonal(diag, off))
    return tuple(float(e) for e in np.sort(-np.concatenate(blocks)))


def lame_profile(N: int, m: float, E: float, c: float, n: int = 512) -> Profile:
    """The 2pi-periodic Hill profile whose band problem is Lame's equation.

    p(x) = (c K^2 / 6 pi^2) [N(N+1) m sn^2(K x / pi | m) - E].

    For N = 1 this is ``cnoidal_profile(m, (2m+2)/3 - E, c)`` exactly;
    for higher N it is the input on which the adaptive Floquet oracle
    in :mod:`.hill` checks :func:`band_edges`.
    """
    N = int(N)
    if N < 1:
        raise DomainError(f"Lame index N must be a positive integer, got {N}")
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
    under V = (2m+2)/3 - E, with the O(1) offset kept (it vanishes at
    m = 0, where the levels are exactly n^2).  Validity is 2K/(pi n),
    the reciprocal of the free-particle quantum number in half-period
    units; at fixed n it degrades as m -> 1 where K diverges.

    Passing ``hbar``, ``mass`` and ``spacing`` together re-dimensionalizes
    the result by the energy scale 2 hbar^2 K^2 / (mass * spacing^2).
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"band index must be a positive integer, got {n}")
    lat = lattice(m)
    half_wave = math.pi * n / (2.0 * lat.K)
    value = half_wave * half_wave + 2.0 - 2.0 * lat.E / lat.K
    dims = (hbar, mass, spacing)
    if any(d is not None for d in dims):
        if any(d is None for d in dims):
            raise DomainError(
                "re-dimensionalization needs hbar, mass and spacing together")
        value *= 2.0 * hbar**2 * lat.K**2 / (mass * spacing**2)
    return Approximation(value, 1.0 / half_wave)


# ---------------------------------------------------------------------------
# Numerical gap detection: a batched Floquet-trace scan.
# ---------------------------------------------------------------------------

def floquet_traces(energies: np.ndarray, strength: float, K: float,
                    m: float) -> np.ndarray:
    """Floquet trace of psi'' = (strength sn^2(z|m) - E) psi over [0, 2K].

    sn^2 is even about K, so the trace over the full period is
    2 (y1 y2' + y1' y2) at z = K, from the fundamental solutions y1, y2
    at z = 0 (Magnus & Winkler, *Hill's Equation*, ch. 1), and only the
    half period is integrated, in 1536 fourth-order Magnus steps with two
    Gauss nodes each (Iserles, Munthe-Kaas, Norsett & Zanna, *Acta
    Numerica* 2000).  The generator of step k is traceless, so its
    exponential is cosh(mu) I + sinh(mu)/mu Omega, and mu^2 = x =
    delta_k^2 + h^2 qbar_k - h^2 E is affine in E.  cosh sqrt(x) and
    sinh sqrt(x)/sqrt(x) are entire in x, so one Taylor polynomial, by
    Horner's rule, serves bands (x < 0) and gaps (x > 0) alike; its
    degree is set by the largest |x| of the batch.

    The steps are grouped into 64 blocks of 24 consecutive steps.  All
    blocks advance together on (block, energy) arrays, and the 64 block
    propagators are then multiplied pairwise, so the Python loop turns
    24 + 6 times per 256 energies instead of 1536 times per batch.
    Taking energies 256 at a time bounds the working set.  Matches the
    same scheme in 30-digit arithmetic to ~1e-13 max(1, |Tr|), and the
    adaptive oracle in :mod:`.hill` to ~1e-9.

    The scan resolves an energy only while every step phase sqrt|x| is
    at most 1, which holds for |E| up to about (1536 / K)^2, 6.9e5 at
    m = 1/2.  Outside that range, and for non-finite energies, it raises
    DomainError naming the range.  An empty batch gives an empty array.
    """
    E = np.asarray(energies, float)
    flat = E.ravel()
    if flat.size == 0:
        return np.empty(E.shape)
    h = K / _HALF_STEPS
    h2 = h * h
    base = h * np.arange(_HALF_STEPS)
    q_lo = jacobi(base + h * (0.5 - _GAUSS_OFFSET), m).sn
    q_hi = jacobi(base + h * (0.5 + _GAUSS_OFFSET), m).sn
    q_lo = strength * q_lo * q_lo
    q_hi = strength * q_hi * q_hi
    delta = (math.sqrt(3.0) * h2 / 12.0) * (q_hi - q_lo)
    delta_sq = delta * delta
    x0 = delta_sq + h2 * (0.5 * (q_lo + q_hi))

    e_lo, e_hi = float(flat.min()), float(flat.max())
    x_max = max(abs(x0.max() - h2 * e_lo), abs(x0.min() - h2 * e_hi))
    if not x_max <= 1.0:
        raise DomainError(
            f"the {_HALF_STEPS}-step Magnus scan resolves energies in "
            f"[{(x0.max() - 1.0) / h2:.6g}, {(x0.min() + 1.0) / h2:.6g}] only "
            f"(step phase at most 1), got energies in [{e_lo!r}, {e_hi!r}]")
    degree = 0
    while x_max ** (degree + 1) / math.factorial(2 * degree + 2) > _TRUNCATION:
        degree += 1

    # Step k = (block, j) as column vectors that broadcast over energies.
    shape = (_BLOCKS, _HALF_STEPS // _BLOCKS, 1)
    x0, delta, delta_sq = x0.reshape(shape), delta.reshape(shape), delta_sq.reshape(shape)
    traces = np.empty(flat.size)
    for start in range(0, flat.size, _CHUNK):
        e2 = h2 * flat[start:start + _CHUNK]
        size = (_BLOCKS, e2.size)
        # Block propagators [[a, b], [c, d]] in the variables (y, h y'),
        # in which the step is [[ch - delta s, s], [(x - delta^2) s, ch +
        # delta s]]; the conjugation by diag(1, h) leaves ad + bc alone.
        a, b, c, d = np.ones(size), np.zeros(size), np.zeros(size), np.ones(size)
        x, ch, s, ea, ec, tmp = (np.empty(size) for _ in range(6))
        for j in range(shape[1]):
            np.subtract(x0[:, j], e2, out=x)
            ch.fill(_COSH[degree])
            s.fill(_SINHC[degree])
            for n in range(degree - 1, -1, -1):
                ch *= x
                ch += _COSH[n]
                s *= x
                s += _SINHC[n]
            np.multiply(delta[:, j], s, out=tmp)
            np.subtract(ch, tmp, out=ea)
            ch += tmp
            np.subtract(x, delta_sq[:, j], out=ec)
            ec *= s
            for top, bottom in ((a, c), (b, d)):  # each column, in place
                np.multiply(s, bottom, out=tmp)
                bottom *= ch
                np.multiply(ec, top, out=x)
                bottom += x
                top *= ea
                top += tmp
        while a.shape[0] > 1:  # later blocks multiply from the left
            a, b, c, d = (a[1::2] * a[::2] + b[1::2] * c[::2],
                          a[1::2] * b[::2] + b[1::2] * d[::2],
                          c[1::2] * a[::2] + d[1::2] * c[::2],
                          c[1::2] * b[::2] + d[1::2] * d[::2])
        traces[start:start + e2.size] = 2.0 * (a[0] * d[0] + b[0] * c[0])
    return traces.reshape(E.shape)


def _gap_runs(traces: np.ndarray) -> list[tuple[int, int]]:
    """The gaps of a trace scan on an energy grid starting at E = 0.

    Returns (first, last) sample indices of each maximal run with
    |Tr| > 2 and one sign of Tr, in order, except the run starting at
    the first sample (the forbidden region below the spectrum) and
    grazing runs, whose |Tr| never exceeds 2 + 1e-7: a closed gap at the
    noise level of the scan.  The trace has the sign (-1)^g in gap g,
    so where the grid steps over a band the run splits at the sign flip.
    """
    sign = np.where(np.abs(traces) > 2.0, np.sign(traces), 0.0)
    breaks = np.flatnonzero(np.diff(np.concatenate(([0.0], sign, [0.0]))))
    return [(int(i0), int(stop) - 1) for i0, stop in zip(breaks[:-1], breaks[1:])
            if i0 > 0 and sign[i0] != 0.0
            and np.max(np.abs(traces[i0:stop])) > 2.0 + _TANGENCY]


def numeric_band_gaps(N: int, m: float, E_max: float | None = None,
                      scan_step: float | None = None) -> list[GapInterval]:
    """Locate the N spectral gaps of the Lame-N operator numerically.

    Scans the Floquet trace over [0, E_max] (default (N+1)^2 + 1, above
    the last gap), keeps the maximal runs with |Tr| > 2 and one sign of
    Tr, split where the trace changes sign (a band narrower than the
    step), and discards the semi-infinite forbidden region below the
    spectrum.  Each edge is then bracketed by its two neighbouring scan
    samples and refined on the signed target Tr = 2s, s = (-1)^g the sign
    of the trace in gap g: every round cuts all 2N brackets into 16 equal
    parts, evaluates the trace at the cuts in one batched call and keeps
    the part where s Tr crosses 2, until each bracket is at most 1e-9
    wide; the edge is its midpoint.  The default scan step is
    min(1e-3, m/10), sized from the N = 1 gap width m; it resolves only
    gaps wider than itself.  Higher gaps can be far narrower: the
    narrowest is 4.6e-5 wide at (N, m) = (3, 0.05), 9.2e-7 at (4, 0.05),
    1.7e-8 at (5, 0.05) and 2.3e-4 at (5, 0.3), and there the default
    scan raises ResolutionError unless a finer ``scan_step`` is passed.
    Nothing here uses :func:`band_edges`, which these gaps check.

    Raises ResolutionError if the step could not resolve a gap of width
    m (the N = 1 width) or if fewer than N gaps survive; NumericalError
    if more than N turn up; DomainError if E_max is not finite or past
    the energies the scan resolves, or if a gap run touches E_max,
    which means E_max cuts through a gap and should be raised.  Runs
    whose trace never clears |Tr| = 2 by more than 1e-7 are dropped as
    grazing artifacts rather than counted as gaps.

    Gaps come back in energy order, and the order is the label: the
    i-th gap (1-based) sits at the i-th extended-zone edge kappa*l =
    i*pi, so Floquet solutions there wind i times.  That labeling
    follows by continuity from the free limit and is reported as an
    annotation, not checked.
    """
    N = int(N)
    if N < 1:
        raise DomainError(f"Lame index N must be a positive integer, got {N}")
    lat = lattice(m)
    if lat.m == 0.0:
        raise DomainError("all gaps close at m = 0; there is nothing to scan")
    if E_max is None:
        E_max = (N + 1) ** 2 + 1.0
    E_max = float(E_max)
    if scan_step is None:
        scan_step = min(1e-3, m / 10.0)
    scan_step = float(scan_step)
    if not 0.0 < scan_step <= E_max:
        raise DomainError(f"scan step must lie in (0, E_max], got {scan_step!r}")
    if scan_step > m:
        raise ResolutionError(
            f"scan step {scan_step!r} exceeds the narrowest expected gap width {m!r}")

    strength = N * (N + 1) * m
    # DomainError for an E_max the scan cannot resolve, before the grid is built
    floquet_traces(np.array([0.0, E_max]), strength, lat.K, m)
    count = int(math.ceil(E_max / scan_step)) + 1
    energies = np.linspace(0.0, E_max, count)
    traces = floquet_traces(energies, strength, lat.K, m)
    runs = _gap_runs(traces)
    if runs and runs[-1][1] == count - 1:
        raise DomainError(
            f"forbidden region still open at E_max = {E_max!r}; raise E_max")
    if len(runs) < N:
        raise ResolutionError(
            f"found {len(runs)} of {N} expected gaps; scan_step = {scan_step!r} "
            f"resolves only gaps wider than itself, so pass a smaller "
            f"scan_step, or raise E_max")
    if len(runs) > N:
        raise NumericalError(
            f"found {len(runs)} forbidden intervals where {N} were expected")

    # Brackets (left, right) of the lower and upper edge of every gap; the
    # gap side of a bracket is its right end for a lower edge.
    left = energies[[i for i0, i1 in runs for i in (i0 - 1, i1)]]
    right = energies[[i for i0, i1 in runs for i in (i0, i1 + 1)]]
    sign = np.repeat(np.sign(traces[[i0 for i0, _ in runs]]), 2)
    gap_on_right = np.tile([True, False], N)
    fractions = np.linspace(0.0, 1.0, _SECTIONS + 1)
    rows = np.arange(2 * N)
    rounds = math.ceil(math.log(scan_step / _EDGE_BRACKET, _SECTIONS))
    for _ in range(max(rounds, 0)):
        points = left[:, None] + (right - left)[:, None] * fractions
        interior = floquet_traces(points[:, 1:-1].ravel(), strength, lat.K, m)
        in_gap = np.column_stack((
            ~gap_on_right,
            sign[:, None] * interior.reshape(2 * N, -1) > 2.0,
            gap_on_right))
        # first point on the right end's side: the edge lies just before it
        j = np.argmax(in_gap == gap_on_right[:, None], axis=1)
        left, right = points[rows, j - 1], points[rows, j]
    edges = 0.5 * (left + right)
    return [GapInterval(float(lo), float(hi)) for lo, hi in zip(edges[0::2], edges[1::2])]
