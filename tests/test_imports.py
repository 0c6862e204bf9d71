"""Import hygiene: every name a module imports is used in that module, every
name is imported from the module it lives in, never the package root, and a
command's module loads only what that command runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pnpdm

PACKAGE = Path(pnpdm.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(source: str) -> list[str]:
    """Names bound by the import statements of a module."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression references."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [name for name in imported_names(source) if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(d)\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_names_are_imported_only_from_their_modules():
    """The package root is its docstring alone: it imports nothing and binds
    no name, so every `from pnpdm import X` in the repo names a module."""
    init = ast.parse(Path(pnpdm.__file__).read_text(encoding="utf-8"))
    assert ast.get_docstring(init) and len(init.body) == 1
    with pytest.raises(ImportError):
        exec("from pnpdm import run_chain", {})
    root = PACKAGE.parents[1]
    for path in sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "pnpdm" and not node.level:
                for alias in node.names:
                    assert (PACKAGE / f"{alias.name}.py").is_file(), f"{path}: {alias.name}"


@pytest.mark.parametrize("module,unloaded", [
    ("pnpdm.cli",
     ["subprocess", "tempfile", "concurrent.futures", "pnpdm.analytic", "pnpdm.phantom"]),
    ("pnpdm.bridge_helper", ["subprocess", "tempfile", "pnpdm.likelihood"]),
], ids=["cli", "bridge_helper"])
def test_command_module_imports_only_what_it_runs(module, unloaded):
    """A command's module leaves what only other commands use (the bridge
    client's process control, the priors, the phantom, the thread pool) to
    the code that runs it.  The fresh interpreter starts without ``site``,
    whose ``.pth`` files may import anything, on this interpreter's path."""
    path = [str(PACKAGE.parent), *filter(None, sys.path)]
    script = f"import sys\nimport {module}\nprint(*sys.modules)\n"
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert module in loaded and not loaded & set(unloaded), sorted(loaded & set(unloaded))
