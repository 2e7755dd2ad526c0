"""Seeded inputs and correctness gates for the four benchmark workloads.

A workload is a list of tasks that one child process runs in order.  A
task is either a ``kdvorbits`` command line, driven through
``kdvorbits.cli.main`` with ``--out``, or a named library procedure from
``child.py`` whose JSON result the child writes to the task's output
file.  ``items`` is the number of work items a task carries; a task with
``part_of`` carries none and, if it fails, fails the items of the task it
names.  Every random choice comes from ``random.Random(seed)``, so one
seed always gives the same inputs and the same output bytes.

The gates run in the parent after the timed region.  Each returns, per
task, the number of its items that failed a check and a few messages.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

WORKLOADS = ("diagram", "shoal", "spectrum", "oracle")

# Sizes at scale 1.  One child of each workload computes for about 3 s on
# a 2-core x86 box, so a run of BENCHMARK.json's run_seconds holds several
# children; spectrum is dominated by two fixed gap searches (about 10 s).
GRID_SIDE = 50
OVERLAY_SAMPLES = 400
STATIONS = 2000
SCAN_SAMPLES = 2048
WAVES = 20
RESIDUAL_POINTS = 1

TRACE_REL = 1e-6        # closed form vs Floquet trace, scale floored at 1
ROUND_TRIP = 1e-10      # level-curve points vs uniform_representative
CROSSING_REL = 1e-9     # shoaling crossing depth vs critical_depth
EDGE_ABS = 1e-6         # numeric vs closed-form Lame-2 band edges
EDGE_TRACE = 1e-6       # | |Tr| - 2 | at a numeric Lame-3 band edge
MOVE_TRACE = 1e-5       # Floquet trace before vs after a coadjoint move
RESIDUAL_MAX = 1e-5     # sigma-quotient residual x min(1, |2 wp(z) + V|)
KDV_DRIFT = 1e-6        # KdV evolution vs rigid translation
WINDING_SNAP = 1e-9     # sqrt(24|kc|) this close to an integer is an edge
SAMPLED_CELLS = 12      # diagram cells re-checked with the Floquet oracle
SCAN_MARGIN = 1e-6      # scan rows this close to a band edge are not judged


def _size(base: int, scale: float, least: int) -> int:
    return max(least, round(base * scale))


def _num(x: float) -> str:
    return repr(float(x))


def _cli(name, gate, argv, out, items, **extra):
    return {"name": name, "gate": gate, "cli": [str(a) for a in argv],
            "out": out, "items": items, **extra}


def _call(name, gate, proc, args, out, items, **extra):
    return {"name": name, "gate": gate, "call": proc, "args": args, "out": out,
            "items": items, **extra}


# ------------------------------------------------------------------ inputs

def make(workload: str, seed: int, inputs: Path, scale: float = 1.0) -> dict:
    """The task list of ``workload`` for ``seed``; input files go to ``inputs``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    tasks = _MAKERS[workload](rng, inputs, scale)
    return {"workload": workload, "seed": seed, "scale": scale, "tasks": tasks}


def _make_diagram(rng, inputs, scale):
    side = _size(GRID_SIDE, scale, 4)
    samples = _size(OVERLAY_SAMPLES, scale, 8)
    # V runs from deep below the wedge (winding up to about 5) to above
    # the parabolic line, so all four regions are on the grid.
    m_lo, m_hi = rng.uniform(0.02, 0.06), rng.uniform(0.92, 0.96)
    v_lo, v_hi = rng.uniform(-3.2, -2.8), rng.uniform(1.4, 1.8)
    sampled = sorted(rng.sample(range(side * side), min(SAMPLED_CELLS, side * side)))
    kc_below, kc_above = rng.uniform(-0.4, -0.1), rng.uniform(0.05, 0.3)
    lo, hi = rng.uniform(0.02, 0.05), rng.uniform(0.93, 0.97)
    overlay = ["--m-samples", samples, "--m-min", _num(lo), "--m-max", _num(hi)]
    return [
        _cli("grid", "grid",
             ["diagram", "--m-range", _num(m_lo), _num(m_hi),
              "--V-range", _num(v_lo), _num(v_hi), "--grid", side, side],
             "grid.csv", side * side, sampled=sampled),
        _cli("overlay_below", "overlay",
             ["level-curve", "--kc", _num(kc_below), "--region", "below_wedge",
              *overlay],
             "below.csv", samples, kc=kc_below, region="below_wedge"),
        _cli("overlay_above", "overlay",
             ["level-curve", "--kc", _num(kc_above), "--region", "above_wedge",
              *overlay],
             "above.csv", samples, kc=kc_above, region="above_wedge"),
    ]


def _make_shoal(rng, inputs, scale):
    from kdvorbits.shoaling import critical_depth

    stations = _size(STATIONS, scale, 8)
    T, F = rng.uniform(8.0, 14.0), rng.uniform(5e3, 5e4)
    rho, g = 1025.0, 9.81
    h_star = critical_depth(T, F, rho, g)
    # Strictly decreasing depths from about 4 h* to 0.4 h*, so the path
    # always crosses into the wedge; uneven steps make each beach unique.
    h_hi, h_lo = h_star * rng.uniform(3.8, 4.2), h_star * rng.uniform(0.38, 0.42)
    steps = [rng.uniform(0.5, 1.5) for _ in range(stations - 1)]
    total = sum(steps)
    x, acc, rows = 0.0, 0.0, []
    for i in range(stations):
        frac = acc / total
        rows.append((x, h_hi * (h_lo / h_hi) ** frac))
        if i < stations - 1:
            acc += steps[i]
            x += 40.0 * steps[i]
    beach = inputs / "beach.csv"
    with open(beach, "w", newline="") as handle:
        handle.write("X,h\n")
        handle.writelines(f"{_num(a)},{_num(b)}\n" for a, b in rows)
    return [_cli("shoal", "shoal",
                 ["shoal", "--bathymetry", str(beach), "--T", _num(T),
                  "--F", _num(F), "--json"],
                 "shoal.json", stations, T=T, F=F, rho=rho, g=g,
                 bathymetry=str(beach))]


def _make_spectrum(rng, inputs, scale):
    samples = _size(SCAN_SAMPLES, scale, 16)
    m2, m3, m_scan = (rng.uniform(0.3, 0.8) for _ in range(3))
    e_max = rng.uniform(6.5, 8.0)
    return [
        _call("gaps2", "gaps", "gaps", {"N": 2, "m": m2}, "gaps2.json", 2),
        _call("gaps3", "gaps", "gaps", {"N": 3, "m": m3}, "gaps3.json", 3),
        _cli("scan", "scan",
             ["band", "--m", _num(m_scan), "--N", 2, "--E-max", _num(e_max),
              "--samples", samples],
             "scan.csv", samples, m=m_scan),
    ]


def _make_oracle(rng, inputs, scale):
    from kdvorbits.weierstrass import lattice

    tasks = []
    for i in range(_size(WAVES, scale, 1)):
        m, V = rng.uniform(0.1, 0.8), rng.uniform(-1.2, 1.2)
        c = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
        # A Fourier circle map x + sum a_k sin(k x + phi_k) with
        # sum k a_k <= 0.6, well inside the diffeomorphism bound of 1.
        raw = [rng.uniform(0.2, 1.0) for _ in range(3)]
        shrink = 0.6 / sum(k * a for k, a in enumerate(raw, 1)) * rng.uniform(0.5, 1.0)
        amps = [a * shrink for a in raw]
        phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
        tasks.append(_cli(f"oracle{i}", "oracle",
                          ["oracle", "--m", _num(m), "--V", _num(V), "--c", _num(c)],
                          f"oracle{i}.json", 1))
        tasks.append(_call(f"move{i}", "move", "move",
                           {"m": m, "V": V, "c": c, "amplitudes": amps,
                            "phases": phases},
                           f"move{i}.json", 0, part_of=f"oracle{i}"))
    m, V = rng.uniform(0.3, 0.8), rng.uniform(-0.8, 1.0)
    lat = lattice(m)
    zs = [[lat.K * rng.uniform(0.4, 2.0 * math.pi - 0.4) / math.pi, lat.Kc]
          for _ in range(RESIDUAL_POINTS)]
    tasks.append(_call("residual", "residual", "residual",
                       {"m": m, "V": V, "zs": zs}, "residual.json", 1))
    tasks.append(_cli("asymptotics", "asymptotics", ["check-asymptotics"],
                      "asymptotics.json", 1))
    return tasks


_MAKERS = {"diagram": _make_diagram, "shoal": _make_shoal,
           "spectrum": _make_spectrum, "oracle": _make_oracle}


# ------------------------------------------------------------------- gates

class _Tally:
    """Failed item indices and the first few messages of one task."""

    def __init__(self):
        self.bad: set = set()
        self.notes: list = []

    def fail(self, item, note: str) -> None:
        self.bad.add(item)
        if len(self.notes) < 5:
            self.notes.append(note)

    def result(self, items: int):
        return min(len(self.bad), items), self.notes


def _read_csv(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _read_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


def _one_row_per_item(rows, task, tally: _Tally) -> bool:
    """False, with every item failed, unless there is one row per item."""
    if len(rows) == task["items"]:
        return True
    tally.fail("rows", f"{task['name']}: {len(rows)} rows, expected {task['items']}")
    tally.bad.update(range(task["items"]))
    return False


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _floquet_trace(profile, c: float) -> float:
    import numpy as np
    from kdvorbits.hill import floquet_monodromy

    return float(np.trace(floquet_monodromy(profile, c)))


def _gate_grid(task, out: Path, tally: _Tally) -> None:
    from kdvorbits.orbits import cnoidal_profile

    header, rows = _read_csv(out / task["out"])
    if not _one_row_per_item(rows, task, tally):
        return
    col = {name: i for i, name in enumerate(header)}
    for i, row in enumerate(rows):
        m, V, t = float(row[col["m"]]), float(row[col["V"]]), float(row[col["trace"]])
        kind, winding = row[col["class"]], int(row[col["winding"]])
        expected = ("Elliptic" if abs(t) < 2.0 else "Hyperbolic" if abs(t) > 2.0
                    else "Exceptional" if t == -2.0 else "Parabolic")
        if kind != expected:
            tally.fail(i, f"cell {i}: class {kind} with trace {t!r}")
        if V < -(1.0 + m) / 3.0 - 1e-12:   # below the wedge, V < e2
            x = math.sqrt(24.0 * abs(float(row[col["kc_real"]])))
            allowed = {math.floor(x)}
            if abs(x - round(x)) < WINDING_SNAP:
                allowed = {round(x), round(x) - 1}
            if winding not in allowed:
                tally.fail(i, f"cell {i}: winding {winding}, sqrt(24|kc|) = {x!r}")
    c = 2.0
    for i in task["sampled"]:
        m, V, t = (float(rows[i][col[k]]) for k in ("m", "V", "trace"))
        floquet = _floquet_trace(cnoidal_profile(m, V, c), c)
        if not _close(floquet, t, TRACE_REL):
            tally.fail(i, f"cell {i}: trace {t!r}, Floquet oracle {floquet!r}")


def _gate_overlay(task, out: Path, tally: _Tally) -> None:
    from kdvorbits.orbits import uniform_representative

    _, rows = _read_csv(out / task["out"])
    if not _one_row_per_item(rows, task, tally):
        return
    kc = task["kc"]
    for i, (m_text, v_text) in enumerate(rows):
        m, V = float(m_text), float(v_text)
        # the wedge is e2 = -(1+m)/3 < V < e3 = (2m-1)/3
        side_ok = (V <= -(1.0 + m) / 3.0 if task["region"] == "below_wedge"
                   else V >= (2.0 * m - 1.0) / 3.0)
        back = uniform_representative(m, V).kc.real
        if not side_ok or abs(back - kc) > ROUND_TRIP * max(1.0, abs(kc)):
            tally.fail(i, f"sample {i}: (m, V) = ({m!r}, {V!r}) gives kc {back!r}, "
                          f"target {kc!r}")


def _gate_shoal(task, out: Path, tally: _Tally) -> None:
    from kdvorbits.shoaling import critical_depth, read_bathymetry

    data = _read_json(out / task["out"])
    rows = data["rows"]
    _, depths = read_bathymetry(task["bathymetry"])
    if not _one_row_per_item(rows, task, tally):
        return
    col = {name: i for i, name in enumerate(data["columns"])}
    h_star = critical_depth(task["T"], task["F"], task["rho"], task["g"])
    crossing = data["crossing_depth"]
    if crossing is None or abs(crossing - h_star) > CROSSING_REL * h_star:
        tally.fail(data["entry_index"],
                   f"crossing depth {crossing!r}, critical depth {h_star!r}")
    previous = -math.inf
    for i, row in enumerate(rows):
        if row[col["h"]] != float(depths[i]):
            tally.fail(i, f"station {i}: depth {row[col['h']]!r} is not the input")
        if not row[col["m"]] > previous:
            tally.fail(i, f"station {i}: m = {row[col['m']]!r} does not increase")
        previous = row[col["m"]]
        hyperbolic_one = row[col["class"]] == "Hyperbolic" and row[col["winding"]] == 1
        if row[col["in_wedge"]] != hyperbolic_one:
            tally.fail(i, f"station {i}: in_wedge {row[col['in_wedge']]} but "
                          f"class {row[col['class']]}({row[col['winding']]})")


def lame2_gaps(m: float):
    """The two closed-form gaps of the Lame-2 operator, and its bottom edge."""
    root = math.sqrt(1.0 - m + m * m)
    return [(1.0 + m, 1.0 + 4.0 * m),
            (4.0 + m, 2.0 * (1.0 + m) + 2.0 * root)], 2.0 * (1.0 + m) - 2.0 * root


def _gate_gaps(task, out: Path, tally: _Tally) -> None:
    from kdvorbits.bands import lame_profile

    N, m = task["args"]["N"], task["args"]["m"]
    gaps = _read_json(out / task["out"])
    if len(gaps) != N:
        tally.fail("count", f"N = {N}: found {len(gaps)} gaps")
        tally.bad.update(range(N))
        return
    if N == 2:
        for i, (got, want) in enumerate(zip(gaps, lame2_gaps(m)[0])):
            if any(abs(a - b) > EDGE_ABS for a, b in zip(got, want)):
                tally.fail(i, f"gap {i}: {got}, closed form {list(want)}")
        return
    c = 2.0
    for i, (lo, hi) in enumerate(gaps):
        def trace(E):
            return _floquet_trace(lame_profile(N, m, E, c), c)
        devs = [abs(abs(trace(E)) - 2.0) for E in (lo, hi)]
        inside = abs(trace(0.5 * (lo + hi)))
        if not lo < hi or max(devs) > EDGE_TRACE or not inside > 2.0:
            tally.fail(i, f"gap {i}: [{lo!r}, {hi!r}] has | |Tr| - 2 | = {devs}, "
                          f"|Tr| = {inside!r} inside")


def _gate_scan(task, out: Path, tally: _Tally) -> None:
    header, rows = _read_csv(out / task["out"])
    if not _one_row_per_item(rows, task, tally):
        return
    gaps, bottom = lame2_gaps(task["m"])
    edges = [bottom] + [e for gap in gaps for e in gap]
    col = {name: i for i, name in enumerate(header)}
    for i, row in enumerate(rows):
        E = float(row[col["E"]])
        if min(abs(E - e) for e in edges) < SCAN_MARGIN:
            continue
        forbidden = E < bottom or any(lo < E < hi for lo, hi in gaps)
        winding = sum(lo < E for lo, _ in gaps)
        kappa = float(row[col["kappa_ell"]])
        if ((row[col["in_gap"]] == "true") != forbidden
                or int(row[col["winding"]]) != winding
                or not 0.0 <= kappa <= math.pi):
            tally.fail(i, f"row {i}: E = {E!r} reads {row[1:]}, expected "
                          f"in_gap {forbidden}, winding {winding}")


def _gate_oracle(task, out: Path, tally: _Tally) -> None:
    data = _read_json(out / task["out"])
    closed, floquet = data["closed_trace"], data["floquet_trace"]
    if not _close(floquet, closed, TRACE_REL):
        tally.fail(0, f"{task['name']}: closed trace {closed!r}, Floquet {floquet!r}")
    if data["winding_closed"] != data["winding_numeric"]:
        tally.fail(0, f"{task['name']}: windings {data['winding_closed']} "
                      f"vs {data['winding_numeric']}")
    if not data["kdv_translation_error"] < KDV_DRIFT:
        tally.fail(0, f"{task['name']}: KdV drift {data['kdv_translation_error']!r}")


def _gate_move(task, out: Path, tally: _Tally) -> None:
    before = _read_json(out / f"{task['part_of']}.json")
    after = _read_json(out / task["out"])
    if abs(after["trace"] - before["floquet_trace"]) > MOVE_TRACE:
        tally.fail(0, f"{task['name']}: trace {before['floquet_trace']!r} moved "
                      f"to {after['trace']!r}")
    if after["winding"] != before["winding_numeric"]:
        tally.fail(0, f"{task['name']}: winding {before['winding_numeric']} moved "
                      f"to {after['winding']}")


def _gate_residual(task, out: Path, tally: _Tally) -> None:
    from kdvorbits.weierstrass import lattice, wp

    # lame_exact_residual divides the stencil defect by the size of
    # (2 wp(z) + V) psi, which vanishes where the potential does, so its
    # relative defect is judged against that potential's size (capped
    # at 1).  Its own multiplier checks already tie sigma to the trace.
    m, V = task["args"]["m"], task["args"]["V"]
    lat = lattice(m)
    scale = min(min(1.0, abs(2.0 * wp(complex(re, im), lat) + V))
                for re, im in task["args"]["zs"])
    worst = _read_json(out / task["out"])
    if not worst * scale < RESIDUAL_MAX:
        tally.fail(0, f"sigma-quotient residual {worst!r} where |2 wp + V| "
                      f"is at least {scale!r}")


def _gate_asymptotics(task, out: Path, tally: _Tally) -> None:
    report = _read_json(out / task["out"])
    if report["all_ok"] is not True or not all(c["ok"] for c in report["checks"]):
        failing = [c["name"] for c in report["checks"] if not c["ok"]]
        tally.fail(0, f"check-asymptotics failed: {failing}")


_GATES = {"grid": _gate_grid, "overlay": _gate_overlay, "shoal": _gate_shoal,
          "gaps": _gate_gaps, "scan": _gate_scan, "oracle": _gate_oracle,
          "move": _gate_move, "residual": _gate_residual,
          "asymptotics": _gate_asymptotics}


def check(spec: dict, out: Path) -> dict:
    """{task name: (failed items, notes)} for the outputs in ``out``.

    A check that raises counts every item of its task as failed.
    """
    verdicts = {}
    for task in spec["tasks"]:
        tally = _Tally()
        try:
            _GATES[task["gate"]](task, out, tally)
        except Exception as exc:  # a malformed output fails its task
            tally.fail("error", f"{task['name']}: check raised {exc!r}")
            tally.bad.update(range(max(1, task["items"])))
        verdicts[task["name"]] = tally.result(max(1, task["items"]))
    return verdicts
