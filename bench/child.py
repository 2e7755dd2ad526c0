"""One benchmark client request: a fresh interpreter that runs one workload.

    python3 -I bench/child.py SPEC.json OUTDIR TRACE

Imports kdvorbits from the ``src`` directory next to ``bench``, stamps the
moment the first task can start, runs every task of the spec in order
and writes ``result.json`` into OUTDIR: the monotonic clock readings
(the parent took its own reading before the spawn, on the same clock),
peak RSS, each task's outcome and, with TRACE = 1, the span report.
Correctness is judged later by the parent, outside the timed region.
"""

import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path.insert(0, _HERE)  # -I leaves the script's directory off sys.path

from tracer import LAYERS, Tracer  # noqa: E402


def _import_package():
    sys.path.insert(0, _SRC)
    import kdvorbits.cli
    import kdvorbits.virasoro

    package_dir = os.path.dirname(os.path.abspath(kdvorbits.__file__))
    if os.path.dirname(package_dir) != _SRC:
        raise SystemExit(f"kdvorbits imported from {package_dir}, not {_SRC}")
    return {layer: sys.modules[f"kdvorbits.{layer}"] for layer in LAYERS}


def _entries(mods):
    """The public functions the benchmark itself calls, by layer."""
    return {
        "cli": {"main": mods["cli"].main},
        "bands": {"numeric_band_gaps": mods["bands"].numeric_band_gaps},
        "orbits": {"cnoidal_profile": mods["orbits"].cnoidal_profile},
        "virasoro": {"fourier": mods["virasoro"].CircleDiffeo.fourier,
                     "coadjoint": mods["virasoro"].coadjoint},
        "hill": {"floquet_monodromy": mods["hill"].floquet_monodromy,
                 "winding_number": mods["hill"].winding_number,
                 "lame_exact_residual": mods["hill"].lame_exact_residual},
    }


def _procedures(api, np):
    def gaps(N, m):
        return [[g.lo, g.hi] for g in api["bands"]["numeric_band_gaps"](N, m)]

    def move(m, V, c, amplitudes, phases):
        hill = api["hill"]
        profile = api["orbits"]["cnoidal_profile"](m, V, c)
        f = api["virasoro"]["fourier"](amplitudes, phases)
        moved = api["virasoro"]["coadjoint"](profile, f, c)
        return {"trace": float(np.trace(hill["floquet_monodromy"](moved, c))),
                "winding": int(hill["winding_number"](moved, c))}

    def residual(m, V, zs):
        points = [complex(re, im) for re, im in zs]
        return float(api["hill"]["lame_exact_residual"](m, V, points))

    return {"gaps": gaps, "move": move, "residual": residual}


def _run_task(task, outdir, api, procedures):
    path = os.path.join(outdir, task["out"])
    if "cli" in task:
        code = api["cli"]["main"](task["cli"] + ["--out", path])
        if code != 0:
            return f"kdvorbits {task['cli'][0]} exited with {code}"
    else:
        value = procedures[task["call"]](**task["args"])
        with open(path, "w") as handle:
            json.dump(value, handle)
    return None


def main(argv):
    spec_path, outdir, trace = argv[1], argv[2], argv[3] == "1"
    before_import = time.monotonic()
    mods = _import_package()
    import numpy as np

    import_s = time.monotonic() - before_import
    with open(spec_path) as handle:
        spec = json.load(handle)
    api = _entries(mods)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(mods)
        api = {layer: {name: tracer.span(layer, name, fn) for name, fn in fns.items()}
               for layer, fns in api.items()}
    procedures = _procedures(api, np)

    ready = time.monotonic()
    outcomes = []
    for task in spec["tasks"]:
        try:
            error = _run_task(task, outdir, api, procedures)
        except (Exception, SystemExit) as exc:  # one failed task must not stop the rest
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append({"name": task["name"], "error": error})
    end = time.monotonic()

    result = {"ready": ready, "end": end, "import_s": import_s,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "tasks": outcomes}
    if tracer is not None:
        result["trace"] = tracer.report()
        info = getattr(mods["weierstrass"].lattice, "cache_info", None)
        result["lattice_cache"] = list(info())[:2] if info else [0, 0]
    with open(os.path.join(outdir, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
