"""A layout's coupling J has one source: the ZeemanLevels that set its energies.

A function that takes levels reads J from them; one that also took a
coupling could build a chain at one J with energies set at another.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainlab"


def test_no_function_takes_both_levels_and_coupling():
    both = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if {"levels", "coupling"} <= names:
                    both.append(f"{path.stem}.{node.name}")
    assert not both, "take both levels and coupling: " + ", ".join(both)
