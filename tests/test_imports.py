"""Import hygiene: every name a module imports is used in that module, and
the package exports exactly the names its `__init__` imports."""

import ast
from pathlib import Path

import pytest

import pnpdm

MODULES = sorted(p for p in Path(pnpdm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


def test_package_exports_are_exactly_its_imports():
    init = Path(pnpdm.__file__).read_text(encoding="utf-8")
    assert sorted(pnpdm.__all__) == sorted(imported_names(init))
    for name in pnpdm.__all__:
        assert getattr(pnpdm, name, None) is not None, name
