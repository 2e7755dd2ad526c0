"""Modules of the package talk to each other through public names only."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kdvorbits

PACKAGE = Path(kdvorbits.__file__).parent


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("kdvorbits")
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    assert offenders == []


def test_only_elliptic_builds_a_namespace_of_operations():
    # the float and array operations of the closed-form route are one pair,
    # FLOAT and ARRAY in elliptic, which the layers above import
    builders = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, (ast.Name, ast.Attribute))
                and getattr(node, "id", getattr(node, "attr", None)) == "SimpleNamespace"]
    assert builders and {builder.split(":")[0] for builder in builders} == {"elliptic.py"}


def test_only_elliptic_tells_a_float_from_an_array():
    # elliptic.route decides between FLOAT and ARRAY for the whole closed-form
    # route: the layers above ask no numpy rank of their own
    offenders = []
    for name in ("weierstrass", "orbits", "shoaling"):
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            rank = isinstance(node, ast.Attribute) and node.attr == "ndim"
            instance = (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                        and "ndarray" in ast.unparse(node.args[1]))
            if rank or instance:
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_elliptic_forms_the_agm_step_in_one_function():
    # b_{n+1} = sqrt(a_n b_n), a square root of a product, is the AGM step:
    # one chain builder serves every recurrence, for floats and arrays alike
    path = PACKAGE / "elliptic.py"
    builders = set()
    for function in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call) and len(node.args) == 1
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sqrt"
                    and isinstance(node.args[0], ast.BinOp)
                    and isinstance(node.args[0].op, ast.Mult)):
                builders.add(function.name)
    assert builders == {"_agm"}


def test_weierstrass_takes_no_jacobi_function_from_elliptic():
    # wp, wp', zeta and sigma come from one theta_1 series in weierstrass
    offenders = [f"weierstrass.py:{line} {module}" for line, module in _imports("weierstrass")
                 if module.lstrip(".").removeprefix("kdvorbits.").startswith("elliptic.jacobi")]
    assert offenders == []


def _cmath_calls(name):
    """(enclosing function, cmath function) for every cmath call in one package module."""
    path = PACKAGE / f"{name}.py"
    for function in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and ast.unparse(node.func).startswith("cmath."):
                    yield function.name, ast.unparse(node.func).removeprefix("cmath.")


def test_weierstrass_takes_sin_and_cos_only_in_its_theta_series():
    # one evaluator at every m: m = 0 is the series of nome 0, no trigonometric copy
    trig = {(function, call) for function, call in _cmath_calls("weierstrass")
            if call in ("sin", "cos", "tan")}
    assert trig == {("_theta_series", "sin"), ("_theta_series", "cos")}


def test_asymptotics_forms_no_hyperbolic_function():
    # the m_to_1 degenerate forms are the m_to_0 forms at iz
    assert not {call for _, call in _cmath_calls("asymptotics")} & {"sinh", "cosh", "tanh"}


def test_orbits_holds_no_generator():
    # level_curve's search is one function body for a float and an array
    path = PACKAGE / "orbits.py"
    generators = [f"orbits.py:{node.lineno} {function.name}"
                  for function in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(function) if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert generators == []


@pytest.mark.parametrize("kc, region", [(-0.3, "below_wedge"), (0.3, "above_wedge"),
                                        (-0.02, "above_wedge")])
def test_an_array_level_curve_evaluates_every_m_in_one_pass(monkeypatch, kc, region):
    # the two probes past the snap bands, then one evaluation per Newton step,
    # each over the array of every m: no m runs on floats of its own
    from kdvorbits import orbits

    kinds, evaluate = [], orbits.wp_amplitude
    monkeypatch.setattr(orbits, "wp_amplitude",
                        lambda V, lat: kinds.append(type(V)) or evaluate(V, lat))
    orbits.level_curve(kc, np.linspace(0.0, 0.999, 400), region)
    assert set(kinds) == {np.ndarray} and len(kinds) <= orbits._NEWTON_CAP + 2


def _imports(name):
    """(line, module) for every import in one package module; a
    from-import lists its module and each name under it."""
    path = PACKAGE / f"{name}.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _names_hill(module):
    return "hill" in module.lstrip(".").split(".")


CLOSED_FORM = ("elliptic", "weierstrass", "orbits")


def test_closed_form_modules_use_no_quadrature_and_no_oracle():
    # the closed-form route shares no code with the Floquet oracle (hill)
    # and evaluates no quadrature and no scalar root find (scipy.optimize);
    # above elliptic it forms no angle: the amplitude stays a ratio of gaps
    offenders = []
    for name in CLOSED_FORM:
        banned = {"leggauss"} if name == "elliptic" else {"leggauss", "atan2"}
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                ident = getattr(node, "id", getattr(node, "attr", None))
                if ident in banned:
                    offenders.append(f"{name}.py:{node.lineno} {ident}")
        for line, module in _imports(name):
            if (module.startswith(("scipy.integrate", "scipy.optimize"))
                    or _names_hill(module)):
                offenders.append(f"{name}.py:{line} {module}")
    assert offenders == []


def test_bands_uses_no_root_finder_and_no_oracle():
    # the tests check band_edges against the Floquet oracle (hill), and
    # the scan refines its edges by multisection
    offenders = [f"bands.py:{line} {module}" for line, module in _imports("bands")
                 if module.startswith("scipy.optimize") or _names_hill(module)]
    assert offenders == []


# hill reaches the closed-form route only for lame_exact_residual; moving
# that helper out of hill (ROADMAP item 4) empties this list
HILL_REACHES = {"orbits.monodromy_trace", "weierstrass.lattice", "weierstrass.sigma",
                "weierstrass.wp", "weierstrass.wp_inverse", "weierstrass.zeta"}


def test_hill_reaches_the_closed_form_only_through_its_allow_list():
    path = PACKAGE / "hill.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = f"{node.module}." if node.module else ""
            targets = [base + alias.name for alias in node.names]
        else:
            continue
        for target in targets:
            target = target.removeprefix("kdvorbits.")
            if (target.split(".")[0] in CLOSED_FORM + ("bands",)
                    and target not in HILL_REACHES):
                offenders.append(f"hill.py:{node.lineno} {target}")
    assert offenders == []


# numpy's transcendental ufuncs round differently with and without its AVX-512
# loops, so printed bytes that go through one depend on the CPU.  The uses
# left are listed (ROADMAP item 10): hill's exp and virasoro's power.
TRANSCENDENTALS = {"arcsin", "arccos", "exp", "expm1", "log", "log1p", "cosh", "sinh",
                   "tanh", "arctan", "power"}
TRANSCENDENTAL_USES = {"hill.py exp", "virasoro.py power"}


def test_numpy_transcendentals_only_where_listed():
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTALS
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                uses.add(f"{path.name} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                uses.update(f"{path.name} {alias.name}" for alias in node.names
                            if alias.name in TRANSCENDENTALS)
    assert sorted(uses - TRANSCENDENTAL_USES) == []
    assert sorted(TRANSCENDENTAL_USES - uses) == []  # a use that went leaves the list


def _scipy_loaded_after(*lines):
    """The scipy modules (two name levels) a fresh interpreter holds after
    importing every layer and running ``lines``."""
    layers = sorted(path.stem for path in PACKAGE.glob("*.py"))
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})",
        "import kdvorbits.cli, kdvorbits.virasoro",
        *(f"import kdvorbits.{name}" for name in layers if name != "__init__"),
        *lines,
        "print(*sorted({'.'.join(m.split('.')[:2]) for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')}))",
    ])
    return subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, check=True).stdout.split()


def test_importing_every_layer_loads_no_optimize_integrate_or_linalg():
    # every command runs in a fresh process, where scipy.special alone costs
    # ~0.25 s and scipy.integrate (with special, optimize and linalg) ~0.4 s
    assert _scipy_loaded_after() == []


def test_closed_form_and_band_edges_compute_without_scipy():
    loaded = _scipy_loaded_after(
        "from kdvorbits.orbits import level_curve, orbit_data",
        "from kdvorbits.weierstrass import lattice, wp_inverse",
        "from kdvorbits.bands import band_edges",
        "for V in (-3.0, -0.4, 0.2, 0.45, 0.5, 3.0): orbit_data(0.5, V)",
        "for V in (-3.0, -0.2, 0.2, 3.0): wp_inverse(V, lattice(0.3))",
        "level_curve(-0.5, 0.5, 'below_wedge'); level_curve(0.5, 0.5, 'above_wedge')",
        "band_edges(0.5, 3)",
    )
    assert loaded == []


def test_battery_and_oracle_commands_run_without_scipy():
    loaded = _scipy_loaded_after(
        "import os",
        "from kdvorbits.cli import main",
        "assert main(['check-asymptotics', '--out', os.devnull]) == 0",
        "assert main(['oracle', '--m', '0.5', '--V', '-0.2', '--c', '1',",
        "             '--out', os.devnull]) == 0",
    )
    assert loaded == []


def test_floquet_oracle_and_coadjoint_moves_compute_without_scipy():
    loaded = _scipy_loaded_after(
        "from kdvorbits.hill import (floquet, kdv_evolve, lame_exact_residual,",
        "                            winding_number)",
        "from kdvorbits.orbits import cnoidal_profile",
        "from kdvorbits.virasoro import CircleDiffeo, coadjoint",
        "p = cnoidal_profile(0.5, -0.2, 1.0)",
        "floquet(p, 1.0); winding_number(p, 1.0); kdv_evolve(p, 1.0, 1e-4)",
        "lame_exact_residual(0.5, 1.0, [1.0 + 1.5j])",
        "winding_number(coadjoint(p, CircleDiffeo.fourier([0.1], [0.3]), 1.0), 1.0)",
    )
    assert loaded == []


def test_no_module_imports_scipy():
    # the runtime needs numpy alone; scipy is a test dependency
    offenders = [f"{path.name}:{line} {module}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, module in _imports(path.stem)
                 if module.split(".")[0] == "scipy"]
    assert offenders == []
