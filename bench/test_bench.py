"""The benchmark's own tests: a tiny smoke run of every workload, and
deliberately corrupted answers that every gate must reject.

    python3 -m pytest bench -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.1
SEED = 7


@pytest.fixture(scope="module")
def smoke():
    """One untraced tiny run per workload, its work directory kept."""
    records = {name: run.run_workload(name, SEED, 0.0, False, scale=TINY, keep=True)
               for name in workloads.WORKLOADS}
    yield records
    for record in records.values():
        shutil.rmtree(record["workdir"], ignore_errors=True)


def _outputs(record, tmp_path):
    """A scratch copy of the first child's outputs, and the spec."""
    workdir = Path(record["workdir"])
    spec = json.loads((workdir / "spec.json").read_text())
    out = tmp_path / "out"
    shutil.copytree(workdir / "child0", out)
    return spec, out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_is_correct(smoke, name):
    record = smoke[name]
    assert record["children"] == 2  # the least a run makes
    assert record["attempted"] > 0 and record["failed"] == 0, record["failures"]
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["output_sha256"] and record["input_sha256"]


def test_same_seed_same_inputs_and_outputs(smoke):
    again = run.run_workload("diagram", SEED, 0.0, False, scale=TINY)
    first = smoke["diagram"]
    assert again["input_sha256"] == first["input_sha256"]
    assert again["output_sha256"] == first["output_sha256"]


def test_traced_run_reports_every_layer_metric():
    record = run.run_workload("diagram", SEED, 0.0, True, scale=TINY)
    metrics = record["metrics"]
    assert record["failed"] == 0 and record["traced_children"] == 1
    assert set(metrics) == set(run.layer_metrics())
    side = round(workloads.GRID_SIDE * TINY)
    samples = round(workloads.OVERLAY_SAMPLES * TINY)
    # three holonomies per grid cell, one round-trip check per curve sample
    wp_inverse_calls = metrics["weierstrass.wp_inverse_calls"]["value"]
    assert wp_inverse_calls <= 3 * side * side + 2 * samples
    assert metrics["orbits.root_fevals"]["value"] > 0
    assert metrics["cli.calls"]["value"] == 3
    assert metrics["hill.calls"]["value"] == 0


def _rewrite_csv(path, edit):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _rewrite_json(path, edit):
    data = json.loads(path.read_text())
    data = edit(data) or data
    path.write_text(json.dumps(data))


def _col(header, rows, name):
    i = header.index(name)
    return i, [row[i] for row in rows]


def _diagram_class(out, spec):
    def edit(header, rows):
        i, traces = _col(header, rows, "trace")
        k = next(n for n, t in enumerate(traces) if abs(float(t)) < 2.0)
        rows[k][header.index("class")] = "Hyperbolic"
    _rewrite_csv(out / "grid.csv", edit)


def _diagram_winding(out, spec):
    def edit(header, rows):
        _, vs = _col(header, rows, "V")
        k = next(n for n, v in enumerate(vs) if float(v) < -1.0)
        rows[k][header.index("winding")] = str(int(rows[k][header.index("winding")]) + 1)
    _rewrite_csv(out / "grid.csv", edit)


def _diagram_floquet(out, spec):
    sampled = spec["tasks"][0]["sampled"]

    def edit(header, rows):
        i = header.index("trace")
        k = next(n for n in sampled if abs(abs(float(rows[n][i])) - 2.0) > 1e-2)
        rows[k][i] = repr(float(rows[k][i]) * (1.0 + 1e-4))
    _rewrite_csv(out / "grid.csv", edit)


def _diagram_overlay(out, spec):
    def edit(header, rows):
        rows[3][1] = repr(float(rows[3][1]) + 1e-6)
    _rewrite_csv(out / "below.csv", edit)


def _shoal_crossing(out, spec):
    def edit(data):
        data["crossing_depth"] *= 1.0 + 1e-7
    _rewrite_json(out / "shoal.json", edit)


def _shoal_monotone(out, spec):
    def edit(data):
        col = data["columns"].index("m")
        rows = data["rows"]
        rows[1][col], rows[2][col] = rows[2][col], rows[1][col]
    _rewrite_json(out / "shoal.json", edit)


def _shoal_wedge(out, spec):
    def edit(data):
        col = data["columns"].index("in_wedge")
        data["rows"][-1][col] = not data["rows"][-1][col]
    _rewrite_json(out / "shoal.json", edit)


def _gaps2_edge(out, spec):
    def edit(gaps):
        gaps[0][0] += 1e-4
    _rewrite_json(out / "gaps2.json", edit)


def _gaps3_edge(out, spec):
    def edit(gaps):
        gaps[1][1] += 1e-3
    _rewrite_json(out / "gaps3.json", edit)


def _gaps3_count(out, spec):
    _rewrite_json(out / "gaps3.json", lambda gaps: gaps[:2])


def _scan_gap(out, spec):
    m = spec["tasks"][2]["m"]
    lo, hi = workloads.lame2_gaps(m)[0][0]

    def edit(header, rows):
        _, energies = _col(header, rows, "E")
        k = next(n for n, e in enumerate(energies) if lo + 1e-3 < float(e) < hi - 1e-3)
        rows[k][header.index("in_gap")] = "false"
    _rewrite_csv(out / "scan.csv", edit)


def _oracle_trace(out, spec):
    def edit(data):
        data["closed_trace"] += 1e-5 * max(1.0, abs(data["closed_trace"]))
    _rewrite_json(out / "oracle0.json", edit)


def _oracle_winding(out, spec):
    def edit(data):
        data["winding_closed"] += 1
    _rewrite_json(out / "oracle0.json", edit)


def _oracle_kdv(out, spec):
    def edit(data):
        data["kdv_translation_error"] = 1e-3
    _rewrite_json(out / "oracle0.json", edit)


def _move_trace(out, spec):
    def edit(data):
        data["trace"] += 1e-4
    _rewrite_json(out / "move0.json", edit)


def _move_winding(out, spec):
    def edit(data):
        data["winding"] += 1
    _rewrite_json(out / "move0.json", edit)


def _residual(out, spec):
    _rewrite_json(out / "residual.json", lambda worst: 1.0)


def _asymptotics(out, spec):
    def edit(data):
        data["checks"][0]["ok"] = False
    _rewrite_json(out / "asymptotics.json", edit)


CORRUPTIONS = [
    ("diagram", "grid", _diagram_class),
    ("diagram", "grid", _diagram_winding),
    ("diagram", "grid", _diagram_floquet),
    ("diagram", "overlay_below", _diagram_overlay),
    ("shoal", "shoal", _shoal_crossing),
    ("shoal", "shoal", _shoal_monotone),
    ("shoal", "shoal", _shoal_wedge),
    ("spectrum", "gaps2", _gaps2_edge),
    ("spectrum", "gaps3", _gaps3_edge),
    ("spectrum", "gaps3", _gaps3_count),
    ("spectrum", "scan", _scan_gap),
    ("oracle", "oracle0", _oracle_trace),
    ("oracle", "oracle0", _oracle_winding),
    ("oracle", "oracle0", _oracle_kdv),
    ("oracle", "move0", _move_trace),
    ("oracle", "move0", _move_winding),
    ("oracle", "residual", _residual),
    ("oracle", "asymptotics", _asymptotics),
]


@pytest.mark.parametrize("name,task,corrupt", CORRUPTIONS,
                         ids=[c[2].__name__.strip("_") for c in CORRUPTIONS])
def test_gate_rejects_corrupted_answer(smoke, tmp_path, name, task, corrupt):
    spec, out = _outputs(smoke[name], tmp_path)
    assert all(n == 0 for n, _ in workloads.check(spec, out).values())
    corrupt(out, spec)
    verdicts = workloads.check(spec, out)
    assert verdicts[task][0] > 0, verdicts[task]
    assert all(n == 0 for t, (n, _) in verdicts.items() if t != task), verdicts


def test_differing_output_bytes_fail_the_items(smoke, tmp_path):
    spec, out = _outputs(smoke["oracle"], tmp_path)
    other = tmp_path / "other"
    shutil.copytree(out, other)
    _move_winding(other, spec)

    def child(index, outdir):
        result = json.loads((outdir / "result.json").read_text())
        return SimpleNamespace(index=index, outdir=outdir, ok=True, result=result,
                               digests=lambda s: run.Child.digests(
                                   SimpleNamespace(outdir=outdir), s))

    children = [child(0, out), child(1, other)]
    reference = children[0].digests(spec)
    notes = run._failures(spec, children, workloads.check(spec, out), reference)
    assert children[0].failed == 0
    assert children[1].failed == 1, notes  # the wave that move0 belongs to


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "diagram",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in bench["per_layer"]} == set(run.layer_metrics())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    expected = {**run.END_TO_END, **run.layer_metrics()}
    assert all(units[k] == u for k, u in expected.items())
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
