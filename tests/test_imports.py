"""No module imports a name it never uses, and no module-level definition of
the package goes unread (stdlib ``ast``; no linter needed).  No runtime module
imports ``gphase.reference``, the second routes the runtime is checked
against, and the runtime reads every definition it holds, so what only the
reference, tests or demos read lives in the reference.  The CLI's import
leaves out both the reference and the scipy subpackages it does not need.

Package ``__init__.py`` files re-export names and are skipped by the import
check; a re-export is no read.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src/gphase", "tests", "demos")
                 for path in (ROOT / folder).glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
RUNTIME = [path for path in SOURCES
           if path.parent.name == "gphase" and path.name != "reference.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def reference_imports(source: str) -> list[str]:
    """Lines of a package module that import ``gphase.reference``, by absolute
    or by relative name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gphase" if node.level else None, node.module]))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "gphase.reference" or n.startswith("gphase.reference.") for n in names):
            found.append(f"line {node.lineno}")
    return found


def definitions(source: str) -> dict[str, int]:
    """Module-level functions, classes and assigned names, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[name.id] = node.lineno
    return defined


def unread_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Definitions of ``modules`` (label -> source) whose name no source in
    ``readers`` reads, as a variable or as an attribute.  Matching is by name
    alone, so a same-named read anywhere keeps a definition."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{label} line {line}: {name}" for label, source in modules.items()
            for name, line in definitions(source).items() if name not in read]


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nprint(np, c)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: a"]


@pytest.mark.parametrize("path", RUNTIME, ids=lambda p: str(p.relative_to(ROOT)))
def test_runtime_never_imports_reference(path):
    assert reference_imports(path.read_text()) == []


def test_detects_a_reference_import():
    source = ("import gphase.reference\nfrom gphase.reference import a\nfrom . import reference\n"
              "from .reference import b\nfrom gphase import gp, reference as r\n"
              "import gphase.gp\nfrom .gp import reference\nfrom . import gp\n"
              "def f():\n    from .reference import c\n")
    assert reference_imports(source) == [
        "line 1", "line 2", "line 3", "line 4", "line 5", "line 10"]


def test_every_package_definition_is_read():
    package = {str(p.relative_to(ROOT)): p.read_text()
               for p in SOURCES if p.parent.name == "gphase"}
    assert unread_definitions(package, [p.read_text() for p in SOURCES]) == []


def test_every_runtime_definition_is_read_by_the_runtime():
    runtime = {str(p.relative_to(ROOT)): p.read_text() for p in RUNTIME}
    assert unread_definitions(runtime, list(runtime.values())) == []


def test_detects_an_unread_definition():
    module = ("X = 1\nY: int = 2\nA, (B, C) = 3, (4, 5)\n"
              "def f(): return Y\nclass K: pass\ndef g(): pass\n")
    reader = "import m\nprint(m.K, B, f)\nC = 0\n"
    assert unread_definitions({"m": module}, [module, reader]) == [
        "m line 1: X", "m line 3: A", "m line 3: C", "m line 6: g"]


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate would add about 0.25 s and 26 MB to the start of every
    # run, and the CLI runs no second route of gphase.reference
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, gphase.cli; print(sorted({'scipy.integrate', "
         "'gphase.reference'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
