"""kdvorbits benchmark: closed-loop, one client, one fresh process per request.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is diagram, shoal, spectrum or oracle (see BENCHMARK.json for why
each exists), or ``all`` to run the four in turn.  The inputs come from
the seed.  For S seconds the parent spawns one child interpreter at a
time (``child.py``), waits for it to exit and spawns the next; once two
have run, it stops before a child that would overrun S.  Each child
pays for interpreter start and imports and starts with cold caches, as
a user of the ``kdvorbits`` command does.

After the timed loop the parent checks every answer (``workloads.py``)
and that every child wrote byte-identical outputs, then prints the
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics over the untraced children, with ``--trace 1`` the
per-layer metrics of traced children, which alternate with untraced
ones so that ``trace.overhead_frac`` compares the two.  A run record
(seed, versions, input and output digests) goes to
``.bench_work/records/``.  Exits 2 without a result when the package
source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CHILDREN_LIMIT_S = 150.0  # no child runs past this, so a run ends within 180 s
BLAS_THREADS = "1"

END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB"}
LAYER_QUANTITIES = {
    "cli": ("out_bytes",),
    "orbits": ("root_fevals",),
    "weierstrass": ("wp_inverse_calls", "root_fevals", "lattice_hit_ratio"),
    "shoaling": ("root_fevals",),
    "bands": ("root_fevals",),
    "hill": ("ode_nfev",),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_sha(root: Path):
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Child:
    """One spawned client request and what it left behind."""

    def __init__(self, index: int, traced: bool, spec_path: Path, outdir: Path,
                 deadline: float):
        self.index, self.traced, self.outdir = index, traced, outdir
        outdir.mkdir(parents=True)
        env = dict(os.environ, OMP_NUM_THREADS=BLAS_THREADS,
                   OPENBLAS_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        argv = [sys.executable, "-I", str(HERE / "child.py"), str(spec_path),
                str(outdir), "1" if traced else "0"]
        with open(outdir / "stderr.txt", "wb") as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                self.code = proc.wait(timeout=max(1.0, deadline - self.spawned))
            except subprocess.TimeoutExpired:
                self.code = None
            finally:
                if proc.poll() is None:  # timed out or interrupted
                    proc.kill()
                    proc.wait()
        self.exited = time.monotonic()
        try:
            self.result = json.loads((outdir / "result.json").read_text())
        except (OSError, ValueError):
            self.result = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.result is not None

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned

    def digests(self, spec: dict) -> dict:
        return {t["out"]: _sha256(self.outdir / t["out"])
                for t in spec["tasks"] if (self.outdir / t["out"]).exists()}


def _measure(spec_path: Path, workdir: Path, seconds: float, traced: bool) -> list:
    """Spawn children back to back for ``seconds``; traced ones alternate.

    At least two children run, so set-up is always timed more than once.
    """
    kinds = (False, True) if traced else (False,)
    children: list = []
    start = time.monotonic()
    deadline = start + CHILDREN_LIMIT_S
    while time.monotonic() < deadline:
        kind = kinds[len(children) % len(kinds)]
        same = [c.wall_s for c in children if c.traced == kind] or \
               [c.wall_s for c in children]
        estimate = statistics.median(same) if same else 0.0
        if len(children) >= 2 and time.monotonic() - start + estimate > seconds:
            break
        children.append(Child(len(children), kind, spec_path,
                              workdir / f"child{len(children)}", deadline))
    return children


def _failures(spec: dict, children: list, verdicts: dict, reference: dict):
    """Sets each child's ``failed`` item count; returns the failure notes."""
    owner = {t["name"]: t.get("part_of", t["name"]) for t in spec["tasks"]}
    items = {t["name"]: t["items"] for t in spec["tasks"]}
    notes = []
    for child in children:
        child.attempted = child.failed = sum(items.values())
        if not child.ok:
            notes.append(f"child {child.index} exited {child.code} without a result")
            continue
        errors = {o["name"]: o["error"] for o in child.result["tasks"]}
        digests = child.digests(spec)
        bad = {}
        for task in spec["tasks"]:
            name, out = task["name"], task["out"]
            count, why = verdicts[name]
            if errors.get(name):
                count, why = items[owner[name]], [errors[name]]
            elif digests.get(out) != reference.get(out):
                count, why = items[owner[name]], [f"{out} differs from the checked child"]
            if count:
                bad[owner[name]] = max(bad.get(owner[name], 0),
                                       count if items[name] else items[owner[name]])
                notes.extend(f"child {child.index}: {w}" for w in why)
        child.failed = sum(bad.values())
    return notes


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(children: list) -> dict:
    """Run totals for wall_s and items_per_s, medians for setup and memory.

    On a shared 2-core host, CPU speed was seen to flip between a fast and
    a slow state for seconds at a time, so child times are bimodal and a
    per-run median jumps between the two; run totals average them out.
    """
    plain = [c for c in children if c.ok and not c.traced]
    compute = sum(c.result["end"] - c.result["ready"] for c in plain)
    values = {
        "wall_s": sum(c.wall_s for c in plain) / len(plain) if plain else 0.0,
        "setup_s": _median([c.result["ready"] - c.spawned for c in plain]),
        "items_per_s": (sum(c.attempted - c.failed for c in plain) / compute
                        if compute else 0.0),
        "peak_rss_mb": _median([c.result["maxrss_kb"] / 1024.0 for c in plain]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics() -> dict:
    """Every per-layer metric name with its unit."""
    units = {"self_s": "s", "out_bytes": "bytes", "lattice_hit_ratio": "fraction"}
    names = {f"{layer}.{quantity}": units.get(quantity, "count")
             for layer in LAYERS
             for quantity in ("calls", "self_s", *LAYER_QUANTITIES.get(layer, ()))}
    names.update({"import.self_s": "s", "trace.overhead_frac": "fraction",
                  "trace.unattributed_s": "s"})
    return names


def _per_layer(spec: dict, children: list) -> dict:
    traced = [c for c in children if c.ok and c.traced]
    plain = [c for c in children if c.ok and not c.traced]
    cli_out = sum((children[0].outdir / t["out"]).stat().st_size
                  for t in spec["tasks"] if "cli" in t
                  and (children[0].outdir / t["out"]).exists())

    def one(child) -> dict:
        rep = child.result["trace"]
        hits, misses = child.result["lattice_cache"]
        compute = child.result["end"] - child.result["ready"]
        row = {"import.self_s": child.result["import_s"],
               "trace.unattributed_s": compute - rep["top_s"],
               "cli.out_bytes": cli_out,
               "weierstrass.wp_inverse_calls": rep["functions"].get(
                   "weierstrass.wp_inverse", 0),
               "weierstrass.lattice_hit_ratio": hits / (hits + misses)
               if hits + misses else 0.0}
        for layer in LAYERS:
            row[f"{layer}.calls"] = rep["calls"].get(layer, 0)
            row[f"{layer}.self_s"] = rep["self_s"].get(layer, 0.0)
        row.update(rep["counts"])
        return row

    rows = [one(c) for c in traced]
    units = layer_metrics()
    values = {name: _median([r.get(name, 0) for r in rows]) for name in units}
    if traced and plain:
        values["trace.overhead_frac"] = (
            statistics.mean(c.wall_s for c in traced)
            / statistics.mean(c.wall_s for c in plain) - 1.0)
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, keep: bool = False) -> dict:
    """Measure one workload and check its answers; returns the result record."""
    import kdvorbits.cli  # noqa: F401 -- writes the bytecode before any child is timed
    import kdvorbits.virasoro  # noqa: F401

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if scale != 1:
        tag += f"-scale{scale}"
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        spec = workloads.make(name, seed, workdir / "inputs", scale)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec, indent=1))
        inputs = {p.name: _sha256(p) for p in sorted((workdir / "inputs").iterdir())}
        inputs["spec.json"] = _sha256(spec_path)

        children = _measure(spec_path, workdir, seconds, trace)

        first = next((c for c in children if c.ok), children[0])
        reference = first.digests(spec)
        verdicts = workloads.check(spec, first.outdir)
        notes = _failures(spec, children, verdicts, reference)
        attempted = sum(c.attempted for c in children)
        failed = sum(c.failed for c in children)
        metrics = _per_layer(spec, children) if trace else _end_to_end(children)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "scale": scale, "git_sha": _git_sha(ROOT),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), **_versions(),
            "children": len(children),
            "traced_children": sum(c.traced for c in children),
            "input_sha256": inputs, "output_sha256": reference,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "failures": notes[:20],
            "child_wall_s": [c.wall_s for c in children],
            "metrics": metrics,
        }
        if trace:
            record["spans"] = next((c.result["trace"]["spans"] for c in children
                                    if c.ok and c.traced), [])
        records = WORK / "records"
        records.mkdir(parents=True, exist_ok=True)
        (records / f"{tag}.json").write_text(json.dumps(record, indent=1))
        if keep:
            record["workdir"] = str(workdir)
        return record
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)


def _print_table(record: dict) -> None:
    print(f"{record['workload']}: seed {record['seed']}, {record['children']} "
          f"children ({record['traced_children']} traced), "
          f"failed_frac {record['failed_frac']:g} "
          f"({record['failed']}/{record['attempted']} items)")
    for name, metric in record["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for note in record["failures"][:5]:
        print(f"  FAILED {note}")
    for out, digest in sorted(record["output_sha256"].items()):
        print(f"  sha256 {out} {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kdvorbits" / "__init__.py").is_file():
        print(f"kdvorbits source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for record in records:
        _print_table(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
