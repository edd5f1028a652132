"""A layout's parameters have one source: the object that holds them.

J has one source, the ZeemanLevels that set a layout's energies: a function
that takes levels reads J from them; one that also took a coupling could
build a chain at one J with energies set at another.  Likewise the arch-1
pad is held by its section, which judges it once, as it is built; a function
that took an arch and a pad would run a hold that no section judged.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chainlab"


def functions_taking(*params):
    """module.function of every function in the package that takes all of params."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
                if set(params) <= names:
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_no_function_takes_both_levels_and_coupling():
    both = functions_taking("levels", "coupling")
    assert not both, "take both levels and coupling: " + ", ".join(both)


def test_no_function_takes_both_an_arch_and_a_pad():
    both = functions_taking("arch", "pad")
    assert not both, "take both arch and pad: " + ", ".join(both)
