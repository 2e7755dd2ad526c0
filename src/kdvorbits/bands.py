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

For N >= 2 no closed form is attempted; :func:`numeric_band_gaps` locates
the (exactly N) gaps by scanning the Floquet trace of the potential, with
a Magnus integrator batched across the whole energy grid at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .asymptotics import Approximation
from .elliptic import jacobi
from .errors import DomainError, NumericalError, ResolutionError
from .profiles import Profile
from .weierstrass import lattice, wp_inverse, zeta

__all__ = [
    "BandPoint",
    "GapInterval",
    "crystal_momentum",
    "band_edges",
    "lame_profile",
    "exceptional_energy_asymptote",
    "floquet_traces",
    "gap_runs",
    "numeric_band_gaps",
]

_EDGE_SNAP = 1e-9
_SCAN_STEPS = 3072  # Magnus steps across one period of sn^2
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# Forbidden runs whose |Tr| never clears 2 by more than this are grazing
# artifacts of the scan, not gaps.
_TANGENCY = 1e-7


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
    if lat.m == 0.0 and abs(V - lat.e2) <= 1e-12:
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


def band_edges(m: float) -> tuple[float, float, float]:
    """Band-edge energies (m, 1, m+1) of the N = 1 operator.

    Valence band [m, 1], gap (1, m+1) of width m, conduction band
    [m+1, inf).  Through V = (2m+2)/3 - E these are exactly the wedge
    corners and the parabolic line of the orbit diagram.
    """
    m = float(m)
    if not 0.0 <= m < 1.0 or math.isnan(m):
        raise DomainError(f"band_edges requires 0 <= m < 1, got {m!r}")
    return m, 1.0, m + 1.0


def lame_profile(N: int, m: float, E: float, c: float, n: int = 512) -> Profile:
    """The 2pi-periodic Hill profile whose band problem is Lame's equation.

    p(x) = (c K^2 / 6 pi^2) [N(N+1) m sn^2(K x / pi | m) - E].

    For N = 1 this is ``cnoidal_profile(m, (2m+2)/3 - E, c)`` exactly;
    higher N supplies the input for :func:`numeric_band_gaps`.
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

    One fourth-order Magnus step per grid cell, two Gauss nodes each;
    the 2x2 propagators are exponentiated in closed form (the generator
    is traceless, so exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega with
    mu^2 = -det Omega) and multiplied out with the whole energy batch
    vectorized.  Matches the adaptive oracle in :mod:`.hill` to ~1e-9.
    """
    E = np.asarray(energies, float)
    h = 2.0 * K / _SCAN_STEPS
    base = h * np.arange(_SCAN_STEPS)
    lo_nodes = jacobi(base + h * (0.5 - _GAUSS_OFFSET), m).sn
    hi_nodes = jacobi(base + h * (0.5 + _GAUSS_OFFSET), m).sn
    lo_nodes = strength * lo_nodes * lo_nodes
    hi_nodes = strength * hi_nodes * hi_nodes

    a = np.ones_like(E)
    b = np.zeros_like(E)
    c = np.zeros_like(E)
    d = np.ones_like(E)
    comm = math.sqrt(3.0) * h * h / 12.0
    for q_lo, q_hi in zip(lo_nodes, hi_nodes):
        q1 = q_lo - E
        q2 = q_hi - E
        qbar = 0.5 * (q1 + q2)
        delta = comm * (q2 - q1)
        musq = delta * delta + h * h * qbar
        root = np.sqrt(np.abs(musq))
        grow = musq >= 0.0
        ch = np.where(grow, np.cosh(root), np.cos(root))
        s = np.where(grow, np.sinh(root), np.sin(root))
        s = np.where(root > 0.0, s / np.where(root > 0.0, root, 1.0), 1.0)
        ea = ch - delta * s
        eb = h * s
        ec = h * qbar * s
        ed = ch + delta * s
        a, b, c, d = ea * a + eb * c, ea * b + eb * d, ec * a + ed * c, ec * b + ed * d
    return a + d


def gap_runs(traces: np.ndarray) -> list[tuple[int, int]]:
    """The gaps of a trace scan on an energy grid starting at E = 0.

    Returns (first, last) sample indices of each maximal run with
    |Tr| > 2, in order, except the run starting at the first sample
    (the forbidden region below the spectrum) and grazing runs, whose
    |Tr| never exceeds 2 + 1e-7: a closed gap at the noise level of
    the scan.
    """
    forbidden = np.concatenate(([0], np.abs(traces) > 2.0, [0]))
    change = np.diff(forbidden.astype(int))
    starts = np.flatnonzero(change == 1)
    stops = np.flatnonzero(change == -1) - 1
    return [(int(i0), int(i1)) for i0, i1 in zip(starts, stops)
            if i0 > 0 and np.max(np.abs(traces[i0:i1 + 1])) > 2.0 + _TANGENCY]


def numeric_band_gaps(N: int, m: float, E_max: float | None = None,
                      scan_step: float | None = None) -> list[GapInterval]:
    """Locate the N spectral gaps of the Lame-N operator numerically.

    Scans the Floquet trace over [0, E_max] (default (N+1)^2 + 1, above
    the last gap), keeps the maximal runs with |Tr| > 2, discards the
    semi-infinite forbidden region below the spectrum, and sharpens each
    gap edge by bisection to 1e-8.  The default scan step is
    min(1e-3, m/10).

    Raises ResolutionError if the step could not resolve a gap of width
    m (the N = 1 width) or if fewer than N gaps survive; NumericalError
    if more than N turn up; DomainError if a gap run touches E_max,
    which means E_max cuts through a gap and should be raised.  Runs
    whose trace never clears |Tr| = 2 by more than 1e-7 are dropped as
    grazing artifacts rather than counted as gaps (:func:`gap_runs`).

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
    count = int(math.ceil(E_max / scan_step)) + 1
    energies = np.linspace(0.0, E_max, count)
    traces = floquet_traces(energies, strength, lat.K, m)

    def trace_at(E: float) -> float:
        return float(floquet_traces(np.array([E]), strength, lat.K, m)[0])

    runs = gap_runs(traces)
    if runs and runs[-1][1] == count - 1:
        raise DomainError(
            f"forbidden region still open at E_max = {E_max!r}; raise E_max")
    gaps: list[GapInterval] = []
    for i0, i1 in runs:
        lo = brentq(lambda E: abs(trace_at(E)) - 2.0,
                    energies[i0 - 1], energies[i0], xtol=1e-8)
        hi = brentq(lambda E: abs(trace_at(E)) - 2.0,
                    energies[i1], energies[i1 + 1], xtol=1e-8)
        gaps.append(GapInterval(float(lo), float(hi)))

    if len(gaps) < N:
        raise ResolutionError(
            f"found {len(gaps)} of {N} expected gaps; refine scan_step or raise E_max")
    if len(gaps) > N:
        raise NumericalError(
            f"found {len(gaps)} forbidden intervals where {N} were expected")
    return gaps
