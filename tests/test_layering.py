"""Only cli and analysis touch files: the physics modules return arrays and
records, analysis.emit_table and analysis.emit_json are the artifact writers,
and the scripts write only through them.  No module or script imports scipy
or jsonschema, so the package runs on numpy and the standard library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chainlab"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
FILE_IO_MODULES = {PACKAGE / "cli.py", PACKAGE / "analysis.py"}
FILE_IO_CALLS = {"open", "write_text", "write_bytes"}


def _file_io_calls(tree: ast.Module):
    """(name, line) of every call to open, write_text or write_bytes, bare or
    as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_IO_CALLS:
                yield name, node.lineno


def test_file_io_only_in_cli_and_analysis():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in SOURCES if path not in FILE_IO_MODULES
             for name, line in _file_io_calls(ast.parse(path.read_text()))]
    assert not found, "file I/O outside cli and analysis: " + ", ".join(found)


def test_the_guard_sees_each_kind_of_call():
    tree = ast.parse("open(p)\np.open()\np.write_text(s)\nfh.write_bytes(b)\np.read_text()\n")
    assert sorted(_file_io_calls(tree)) == [
        ("open", 1), ("open", 2), ("write_bytes", 4), ("write_text", 3)]


def _imported_packages(tree: ast.Module):
    """(top-level package, line) of every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_no_module_imports_scipy():
    # nor jsonschema: cli checks the config against CONFIG_SCHEMA itself
    found = [f"{path.relative_to(ROOT)}:{line} {name}" for path in SOURCES
             for name, line in _imported_packages(ast.parse(path.read_text()))
             if name in ("scipy", "jsonschema")]
    assert not found, "scipy or jsonschema imported in the package or a script: " + ", ".join(found)


def test_the_import_guard_sees_each_kind_of_import():
    tree = ast.parse("import scipy\nimport numpy, scipy.optimize as so\n"
                     "from scipy.optimize import minimize\nfrom . import linalg\n"
                     "def f():\n    from scipy import linalg\n")
    assert sorted(_imported_packages(tree)) == [
        ("numpy", 2), ("scipy", 1), ("scipy", 2), ("scipy", 3), ("scipy", 6)]
