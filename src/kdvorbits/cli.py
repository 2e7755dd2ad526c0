"""Deterministic command-line front end.

Every figure-class quantity in the library is reachable from here as
CSV (default) or JSON (``--json``), written to stdout or ``--out PATH``.
The same invocation always produces the same bytes: fixed column order,
fixed row order, floats printed with 17 significant digits, booleans as
``true``/``false``, infinities as ``inf``/``-inf``.

Commands::

    classify            orbit data of one cnoidal wave (m, V)
    diagram             classifier sweep over an (m, V) grid
    level-curve         V(m) along one level curve of kc
    band                dispersion scan (E, kappa_ell, in_gap, winding)
    shoal               shoaling path over a bathymetry profile
    check-asymptotics   convergence-order battery for every expansion
    profile             sampled cnoidal Hill potential
    oracle              closed form vs. numerical Floquet cross-check

Exit codes: 0 on success (and for ``--help``), 2 on a usage or domain
error, 3 on a numerical failure; the error is reported on stderr as a
one-line JSON object ``{"error": <class>, "message": <text>}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .asymptotics import (
    K_asymptotes,
    V_near_m0,
    V_near_m1,
    degenerate_zeta,
    exceptional_V_asymptote,
    k_large_V,
    k_near_wedge,
    one_minus_m_nonperturbative,
)
from .bands import band_edges, crystal_momentum, floquet_traces, kappa_ell_extended
from .elliptic import ellint_K
from .errors import DomainError, NumericalError, ResolutionError
from .hill import floquet, kdv_evolve
from .orbits import cnoidal_profile, level_curve, orbit_data
from .profiles import grid
from .shoaling import read_bathymetry, shoaling_path
from .weierstrass import lattice, zeta

_GRID_LIMIT = 4096


# ---------------------------------------------------------------- output

_BOOLEAN = ("false", "true")  # a boolean cell as CSV and JSON print it


def _csv(columns, rows) -> str:
    row_format = _ROW_FORMATS[tuple(columns)]
    return "\n".join([",".join(columns), *(row_format % tuple(row) for row in rows)]) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# The non-finite floats as str prints them and as json.dumps does, at a line start
_NONFINITE = {"-inf": "-Infinity", "inf": "Infinity", "nan": "NaN"}
_NONFINITE_CELL = re.compile(r"\n      (-?inf|nan)")


def _json_table(columns, rows, extra) -> str:
    """json.dumps({"columns": columns, "rows": rows, **extra}, indent=2) + "\n",
    with each row one %-format of _JSON_ROW_FORMATS.  A float cell prints as
    str prints it, float.__repr__ as in json; inf and nan, at the start of
    their lines, are mended after in one pass, or none if there is none."""
    text = _json_text({"columns": list(columns), "rows": [], **extra})
    if not rows:
        return text
    template = _JSON_ROW_FORMATS[tuple(columns)]
    body = ",\n".join(template % tuple(row) for row in rows)
    if "inf" in body or "nan" in body:
        body = _NONFINITE_CELL.sub(lambda cell: "\n      " + _NONFINITE[cell[1]], body)
    return text.replace('\n  "rows": []', '\n  "rows": [\n' + body + "\n  ]", 1)


def _table(args, columns, rows, extra=None) -> str:
    if args.json:
        return _json_table(columns, rows, extra or {})
    return _csv(columns, rows)


def _axis(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    if not 0 <= n <= _GRID_LIMIT:
        raise DomainError(
            f"{name} grid size must lie in [0, {_GRID_LIMIT}], got {n}")
    if not math.isfinite(hi - lo):  # a width past the float range would fill it with nan
        raise DomainError(f"{name} range must be finite, got [{lo!r}, {hi!r}]")
    return np.linspace(float(lo), float(hi), n)


# -------------------------------------------------------------- commands

def _cmd_classify(args) -> str:
    data = orbit_data(args.m, args.V)
    return _json_text({
        "trace": data.trace,
        "kc_real": data.kc.real,
        "kc_imag": data.kc.imag,
        "has_rest_frame": data.has_rest_frame,
        "class": data.orbit.kind.value,
        "winding": data.orbit.winding,
    })


_DIAGRAM_COLUMNS = ("m", "V", "trace", "kc_real", "kc_imag", "class",
                    "winding")


def _cmd_diagram(args) -> str:
    ms = _axis(args.m_range[0], args.m_range[1], args.grid[0], "m")
    vs = _axis(args.V_range[0], args.V_range[1], args.grid[1], "V")
    m_grid, v_grid = (g.ravel() for g in np.meshgrid(ms, vs, indexing="ij"))  # row-major: m outer
    data = orbit_data(m_grid, v_grid)
    rows = [[m, v, trace, kc_real, kc_imag, orbit.kind.value, orbit.winding]
            for m, v, trace, kc_real, kc_imag, orbit in zip(
                m_grid.tolist(), v_grid.tolist(), data.trace.tolist(), data.kc.real.tolist(),
                data.kc.imag.tolist(), data.orbit.tolist())]
    return _table(args, _DIAGRAM_COLUMNS, rows)


_LEVEL_CURVE_COLUMNS = ("m", "V")
_BAND_COLUMNS = ("E", "kappa_ell", "in_gap", "winding")
_SHOAL_COLUMNS = ("X", "h", "lambda", "m", "V", "kc_real", "kc_imag",
                  "class", "winding", "in_wedge", "epsilon", "speed")
_PROFILE_COLUMNS = ("x", "p")
# One %-format per row of each table, CSV and JSON: the cells are Python
# floats and ints, the class names, and booleans from _BOOLEAN.
_ROW_FORMATS = {_DIAGRAM_COLUMNS: "%.17g,%.17g,%.17g,%.17g,%.17g,%s,%d",
                _LEVEL_CURVE_COLUMNS: "%.17g,%.17g",
                _BAND_COLUMNS: "%.17g,%.17g,%s,%d",
                _SHOAL_COLUMNS: "%.17g," * 7 + "%s,%d,%s,%.17g,%.17g",
                _PROFILE_COLUMNS: "%.17g,%.17g"}
_JSON_ROW_FORMATS = {columns: "    [\n%s\n    ]" % ",\n".join(
    '      "%s"' if name == "class" else "      %s" for name in columns) for columns in _ROW_FORMATS}


def _cmd_level_curve(args) -> str:
    ms = _axis(args.m_min, args.m_max, args.m_samples, "m")
    rows = list(zip(ms.tolist(), level_curve(args.kc, ms, args.region).tolist()))
    return _table(args, _LEVEL_CURVE_COLUMNS, rows)


def _foldable(energies, kappa) -> np.ndarray:
    """kappa, the extended kappa_ell at each energy, or DomainError from 2^52 on,
    where ulp(kappa_ell) >= 1 and its fold into [0, pi] keeps no digit."""
    far = ~(np.abs(kappa) < 2.0**52)
    if far.any():
        raise DomainError(f"kappa_ell reaches {float(kappa[far][0])!r} at E = "
                          f"{float(energies[far][0])!r}: past 2**52, its fold keeps no digit")
    return kappa


def _band_rows_closed_form(energies, m: float) -> list:
    points = [crystal_momentum(e, m) for e in energies]
    extended = _foldable(energies, np.array([p.kappa_ell_extended.real for p in points]))
    return [[float(e), p.kappa_ell, _BOOLEAN[p.in_gap], int(math.floor(k / math.pi + 1e-9))]
            for e, p, k in zip(energies, points, extended.tolist())]


def _band_rows_scanned(energies, N: int, m: float) -> list:
    # kappa_ell from the abelian integral over the band edges, folded into
    # [0, pi]; the Magnus trace where that route cannot resolve the bands.
    try:
        kappa = _foldable(energies, kappa_ell_extended(energies, m, N))
        kappa = np.abs(kappa - 2.0 * math.pi * np.rint(kappa / (2.0 * math.pi)))
    except ResolutionError:
        traces = floquet_traces(energies, m, N)
        kappa = np.array([math.acos(t) for t in np.clip(traces / 2.0, -1.0, 1.0).tolist()])

    # Sorted edges: E is strictly inside a gap, or below the spectrum, when
    # as many edges lie below it as up to it, an even number, and the gaps
    # opening up to E number half of those (at most N, while the N = 1
    # closed form's floor(kappa_ell / pi) keeps growing).  Within 1e-9 of an
    # edge kappa is 0 or pi, whichever is nearer, as the N = 1 form snaps.
    edges = np.array(band_edges(m, N))
    below, upto = (np.searchsorted(edges, energies, side) for side in ("left", "right"))
    nearest = np.minimum(np.abs(energies - edges[np.maximum(below - 1, 0)]),
                         np.abs(energies - edges[np.minimum(below, edges.size - 1)]))
    kappa = np.where(nearest <= 1e-9 * np.maximum(1.0, np.abs(energies)),
                     np.where(kappa < 0.5 * math.pi, 0.0, math.pi), kappa)
    in_gap = (below == upto) & (below % 2 == 0)
    gap_cells = np.where(in_gap, "true", "false").tolist()
    return list(zip(energies.tolist(), kappa.tolist(), gap_cells, (upto // 2).tolist()))


def _cmd_band(args) -> str:
    if not args.E_max > 0.0:
        raise DomainError(f"E_max must be positive, got {args.E_max!r}")
    energies = _axis(0.0, args.E_max, args.samples, "E")
    if args.N == 1:
        rows = _band_rows_closed_form(energies, args.m)
    else:
        rows = _band_rows_scanned(energies, args.N, args.m)
    return _table(args, _BAND_COLUMNS, rows)


def _cmd_shoal(args) -> str:
    xs, hs = read_bathymetry(args.bathymetry)
    path = shoaling_path(hs, args.T, args.F, args.rho, args.g)
    columns = (xs, path.h, path.lam, path.m, path.V, path.kc.real, path.kc.imag, path.orbit,
               path.in_wedge, path.epsilon, path.speed)
    rows = [(*head, orbit.kind.value, orbit.winding, _BOOLEAN[in_wedge], epsilon, speed)
            for *head, orbit, in_wedge, epsilon, speed in zip(*(c.tolist() for c in columns))]
    extra = {"entry_index": path.entry_index,
             "crossing_depth": path.crossing_depth}
    return _table(args, _SHOAL_COLUMNS, rows, extra=extra)


def _cmd_profile(args) -> str:
    if not 0 < args.samples <= _GRID_LIMIT:
        raise DomainError(
            f"samples must lie in [1, {_GRID_LIMIT}], got {args.samples}")
    prof = cnoidal_profile(args.m, args.V, args.c, n=args.samples)
    rows = list(zip(grid(args.samples).tolist(), prof.samples.tolist()))
    return _table(args, _PROFILE_COLUMNS, rows)


def _cmd_oracle(args) -> str:
    prof = cnoidal_profile(args.m, args.V, args.c)
    closed = orbit_data(args.m, args.V)
    monodromy, winding = floquet(prof, args.c)
    tau = 1e-4
    evolved = kdv_evolve(prof, args.c, tau)
    expected = cnoidal_profile(args.m, args.V, args.c, tau=tau)
    drift = float(np.max(np.abs(evolved.samples - expected.samples)))
    return _json_text({
        "closed_trace": closed.trace,
        "floquet_trace": float(np.trace(monodromy)),
        "winding_closed": closed.orbit.winding,
        "winding_numeric": winding,
        "kdv_translation_error": drift,
    })


# ------------------------------------------- the convergence-order battery

def _exact_kc(m: float, V: float) -> float:
    return orbit_data(m, V).kc.real


def _m_for_nome_sq(q2: float) -> float:
    """The m whose nome q = exp(-pi Kc/K) has q^2 = q2: m = theta2^4 / theta3^4
    at q (DLMF 22.2.2), six terms of each series."""
    q = math.sqrt(q2)
    theta2 = 2.0 * q**0.25 * sum(q ** (n * (n + 1)) for n in range(6))
    theta3 = 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, 7))
    return (theta2 / theta3) ** 4


def _one_minus_m_at_kc(kc: float, V: float) -> float:
    """The 1 - m at which the wave (m, V) has the given kc: bisection in
    t = log10(1 - m) over [-15.5, -1] down to a 2e-12 wide t bracket.  Below
    the wedge kc rises with V, so kc(m, V) < kc says the level curve of kc
    passes above V at that m."""
    def above(t):
        return orbit_data(1.0 - 10.0**t, V).kc.real < kc

    lo, hi = -15.5, -1.0
    lo_above = above(lo)
    if above(hi) == lo_above:
        raise NumericalError(f"level curve kc = {kc!r} does not cross V = {V!r}")
    while hi - lo > 2e-12:
        mid = 0.5 * (lo + hi)
        if above(mid) == lo_above:
            lo = mid
        else:
            hi = mid
    return 10.0 ** (0.5 * (lo + hi))


def _ratio_check(name, errs, window) -> dict:
    errs = [float(e) for e in errs]
    ratio = errs[0] / errs[1]
    return {"name": name, "criterion": "ratio_in_window",
            "measured": errs, "ratio": ratio, "window": list(window),
            "ok": bool(window[0] <= ratio <= window[1])}


def _decreasing_check(name, values) -> dict:
    values = [float(v) for v in values]
    return {"name": name, "criterion": "decreasing",
            "measured": values, "ratio": None, "window": None,
            "ok": all(a > b for a, b in zip(values, values[1:]))}


def _cmd_check_asymptotics(args) -> str:
    checks = []

    def err_large(V):
        return abs(k_large_V(0.5, V).value - _exact_kc(0.5, V))
    checks.append(_ratio_check("k_large_V_first_order",
                               [err_large(500.0), err_large(1000.0)],
                               (1.5, 3.0)))

    def rel_exceptional(n):
        exact = level_curve(-n * n / 24.0, 0.2, "below_wedge")
        return abs(exceptional_V_asymptote(n, 0.2).value / exact - 1.0)
    checks.append(_ratio_check("exceptional_V_second_order",
                               [rel_exceptional(32), rel_exceptional(64)],
                               (3.0, 5.0)))

    e2 = lattice(0.5).e2

    def err_wedge(nu):
        return abs(k_near_wedge(0.5, e2 - nu, "lower").value
                   - _exact_kc(0.5, e2 - nu))
    checks.append(_ratio_check("k_near_wedge_linear",
                               [err_wedge(2e-5), err_wedge(1e-5)],
                               (1.5, 3.0)))

    def rel_nonpert(dv):
        predicted = one_minus_m_nonperturbative(-4.0 / 24.0,
                                                -2.0 / 3.0 - dv).value
        actual = _one_minus_m_at_kc(-4.0 / 24.0, -2.0 / 3.0 - dv)
        return abs(predicted / actual - 1.0)
    checks.append(_decreasing_check("one_minus_m_nonperturbative_sharpens",
                                    [rel_nonpert(0.02), rel_nonpert(0.01)]))

    def err_m1(g):
        return abs(V_near_m1(0.05, 1.0 - g).value
                   - level_curve(0.05, 1.0 - g, "above_wedge"))
    checks.append(_ratio_check("V_near_m1_second_order",
                               [err_m1(2e-4), err_m1(1e-4)], (3.0, 5.0)))

    def err_m0(m):
        return abs(V_near_m0(0.1, m).value
                   - level_curve(0.1, m, "above_wedge"))
    checks.append(_ratio_check("V_near_m0_second_order",
                               [err_m0(0.01), err_m0(0.005)], (3.0, 5.0)))

    def rel_zeta(q2):
        m = _m_for_nome_sq(q2)
        lat = lattice(m)
        z = 0.37 * lat.K
        exact = zeta(z, lat)
        return abs(degenerate_zeta(z, m, "m_to_0").value - exact) / abs(exact)
    checks.append(_ratio_check("degenerate_zeta_quartic_in_nome",
                               [rel_zeta(1e-4), rel_zeta(5e-5)], (3.0, 5.0)))

    # 1 - g is exact at g = 2^-17 and 2^-18, so the AGM reference K(1 - g)
    # stays within a few ulp; K_asymptotes is a closed form in logs
    def errs_K(g):
        big, small = K_asymptotes(1.0 - g)
        return (abs(big.value - ellint_K(1.0 - g)),
                abs(small.value - ellint_K(g)))
    big_1, small_1 = errs_K(2.0 ** -17)
    big_2, small_2 = errs_K(2.0 ** -18)
    checks.append(_ratio_check("K_log_branch_first_order",
                               [big_1, big_2], (1.5, 3.0)))
    checks.append(_ratio_check("K_complement_second_order",
                               [small_1, small_2], (3.0, 5.0)))

    return _json_text({"checks": checks,
                       "all_ok": all(c["ok"] for c in checks)})


# ------------------------------------------------------------ the parser

class _Parser(argparse.ArgumentParser):
    """argparse that reads -inf, -nan and -1e5 as values, not as options.

    argparse takes only -1 and -1.5 for negative numbers; anything else
    with a leading dash ends the value list.  Non-finite ends then reach
    the range checks and get the JSON error of the CLI contract, and so
    does a usage error, which :func:`main` reports once: a subcommand's
    ArgumentError passes through its parent's ``error`` unchanged.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# add_argument keywords that several flags share: a required float, an (LO, HI) pair
_REAL = {"type": float, "required": True}
_RANGE = {"nargs": 2, "type": float, "required": True, "metavar": ("LO", "HI")}
_WAVE = (("--m", _REAL), ("--V", _REAL))

# name: (handler, add_parser keywords, flags); every command also takes --json and --out
_COMMANDS = {
    "classify": (_cmd_classify, {"help": "orbit data of one wave (m, V)"}, _WAVE),
    "diagram": (_cmd_diagram, {"help": "classifier sweep over an (m, V) grid"}, (
        ("--m-range", _RANGE), ("--V-range", _RANGE),
        ("--grid", {"nargs": 2, "type": int, "required": True, "metavar": ("NM", "NV"),
                    "help": f"points per axis, each at most {_GRID_LIMIT}"}))),
    "level-curve": (_cmd_level_curve, {"help": "V(m) along a level curve of kc"}, (
        ("--kc", _REAL),
        ("--region", {"choices": ("below_wedge", "above_wedge"), "required": True}),
        ("--m-samples", {"type": int, "required": True}),
        ("--m-min", {"type": float, "default": 0.0}),
        ("--m-max", {"type": float, "default": 0.99}))),
    "band": (_cmd_band, {
        "help": "dispersion scan of the Lame-N operator",
        "description": "Columns E, kappa_ell, in_gap, winding.  For N = 1 the "
                       "winding is the extended-zone floor(kappa_ell / pi), which "
                       "keeps growing through the top band; for N >= 2 it is the "
                       "number of gaps below E, at most N."}, (
        ("--m", _REAL), ("--N", {"type": int, "default": 1}), ("--E-max", _REAL),
        ("--samples", {"type": int, "default": 512}))),
    "shoal": (_cmd_shoal, {"help": "shoaling path over a bathymetry CSV"}, (
        ("--bathymetry", {"required": True, "metavar": "CSV",
                          "help": "two-column (X, h) file with a header row"}),
        ("--T", {**_REAL, "help": "wave period [s]"}),
        ("--F", {**_REAL, "help": "energy transport [N]"}),
        ("--rho", {"type": float, "default": 1025.0, "help": "water density [kg/m^3]"}),
        ("--g", {"type": float, "default": 9.81,
                 "help": "gravitational acceleration [m/s^2]"}))),
    "check-asymptotics": (_cmd_check_asymptotics,
                          {"help": "convergence-order battery, JSON report"}, ()),
    "profile": (_cmd_profile, {"help": "sampled cnoidal Hill potential"}, (
        *_WAVE, ("--c", _REAL), ("--samples", {"type": int, "default": 512}))),
    "oracle": (_cmd_oracle, {"help": "closed form vs. numerical Floquet cross-check"},
               (*_WAVE, ("--c", _REAL))),
}
_OUTPUT_FLAGS = (("--json", {"action": "store_true", "help": "emit JSON instead of CSV"}),
                 ("--out", {"metavar": "PATH", "default": None,
                            "help": "write to PATH instead of stdout"}))


@functools.cache
def _parser(command) -> argparse.ArgumentParser:
    """The parser of one command, or of every command for None; built once per process."""
    parser = _Parser(
        prog="kdvorbits",
        description="Coadjoint orbits of cnoidal waves: classification, "
                    "band structure, asymptotics, and shoaling.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command else _COMMANDS:
        handler, keywords, flags = _COMMANDS[name]
        sub = subs.add_parser(name, **keywords)
        for flag, options in (*flags, *_OUTPUT_FLAGS):
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # a command line that names no command gets every command's parser
        args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        text = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:  # a path that cannot be written is an OSError, exit 2
            with open(args.out, "w", newline="") as handle:
                handle.write(text)
    except (argparse.ArgumentError, DomainError, OSError) as exc:
        _report_error(exc)
        return 2
    except NumericalError as exc:
        _report_error(exc)
        return 3
    return 0


def _report_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                 "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
