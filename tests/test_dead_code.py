"""Every public name in src/chainlab is used by the package or its scripts.

A name that only tests reach is either a test oracle, listed below with the
test that holds the package to it, or code to delete.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chainlab"

# (module, qualified name, a test that uses it as an independent reference)
ORACLES = (
    ("linalg", "expm_i", "test_evolve.py::test_schedule_on_sector_subset_matches_dense"),
    ("model", "build_heisenberg",
     "test_model.py::test_heisenberg_matches_kron_oracle_random"),
    ("model", "reduced_three_spin",
     "test_model.py::test_reduced_three_spin_matches_shifted_chain"),
    ("gates", "circuit_fidelity", "test_gates.py::test_fidelity_gradient_matches_reference"),
    ("schemes", "arch2_single_qubit_schedule",
     "test_schemes.py::test_arch2_single_qubit_flip_rate"),
)


def _definitions(tree: ast.Module):
    """(qualified name, node) of every public top-level name and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module):
    """(identifier, line) of every name read and attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_name_is_used_outside_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    uses = {path: list(_uses(tree)) for path, tree in trees.items()}
    oracles = {(module, name) for module, name, _ in ORACLES}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree):
            if (path.stem, qualname) in oracles:
                continue
            ident = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == ident and not (other == path and line in own)
                       for other, found in uses.items() for name, line in found):
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, "reached only from tests: " + ", ".join(unused)


def test_every_oracle_exists_and_is_tested():
    for module, name, test in ORACLES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in {n for n, _ in _definitions(tree)}, (module, name)
        test_file, test_name = test.split("::")
        assert f"def {test_name}(" in (ROOT / "tests" / test_file).read_text(), test
        assert name in (ROOT / "tests" / test_file).read_text(), test
