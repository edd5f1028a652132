"""A layout's parameters have one source: the object that holds them.

J has one source, the ZeemanLevels that set a layout's energies: a function
that takes levels reads J from them; one that also took a coupling could
build a chain at one J with energies set at another.  Where a coupling is
taken, it is passed: a default J of 1.0 would be a second, silent source.
Likewise the arch-1 pad and the arch-2 eps are held by their sections, which
judge them once, as they are built; a function that took an arch and a pad,
or an arch and an eps, would run a hold that no section judged.  So would
one that took an arch and a loose hold, a gate time t_gate or a SixSetting
setting.  Each section holds the schedules it runs (arch 1's is the result of
arch1_revival, arch 3's are its settings' schedules) and judges their holds.
"""

import ast
from pathlib import Path

import pytest

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


def defaulted(name):
    """module.function or module.Class.name of every function parameter or
    class field in the package that is called name and has a default."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                with_default = positional[len(positional) - len(a.defaults):]
                with_default += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if name in {arg.arg for arg in with_default}:
                    found.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{name}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and item.value is not None
                          and isinstance(item.target, ast.Name) and item.target.id == name]
    return found


def test_no_coupling_has_a_default():
    silent = defaulted("coupling")
    assert not silent, "coupling has a default in: " + ", ".join(silent)


def test_no_function_takes_both_levels_and_coupling():
    both = functions_taking("levels", "coupling")
    assert not both, "take both levels and coupling: " + ", ".join(both)


def test_no_function_takes_both_an_arch_and_a_pad():
    both = functions_taking("arch", "pad")
    assert not both, "take both arch and pad: " + ", ".join(both)


def test_no_function_takes_both_an_arch_and_an_eps():
    both = functions_taking("arch", "eps")
    assert not both, "take both arch and eps: " + ", ".join(both)


@pytest.mark.parametrize("hold", ["t_gate", "setting"])
def test_no_function_takes_both_an_arch_and_a_loose_hold(hold):
    both = functions_taking("arch", hold)
    assert not both, f"take both arch and {hold}: " + ", ".join(both)
