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
