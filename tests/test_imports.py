"""Import hygiene: every name a module imports is used in that module, and
every name is imported from the module it lives in, never the package root."""

import ast
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
