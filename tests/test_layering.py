"""Modules of the package talk to each other through public names only."""

import ast
from pathlib import Path

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


CLOSED_FORM = ("elliptic", "weierstrass", "orbits")


def test_closed_form_modules_use_no_quadrature_and_no_oracle():
    # the closed-form route shares no code with the Floquet oracle (hill)
    # and evaluates no quadrature
    offenders = []
    for name in CLOSED_FORM:
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if getattr(node, "id", getattr(node, "attr", None)) == "leggauss":
                    offenders.append(f"{name}.py:{node.lineno} leggauss")
                continue
            else:
                continue
            for module in modules:
                parts = module.lstrip(".").split(".")
                if module.startswith("scipy.integrate") or "hill" in parts:
                    offenders.append(f"{name}.py:{node.lineno} {module}")
    assert offenders == []
