"""Source hygiene: every imported name is used, and the package exports what it imports."""

import ast
from pathlib import Path

import pytest

import msms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "msms" / "__init__.py"
# The package __init__ imports names only to re-export them; the test
# below checks those against ``__all__`` instead.
SOURCES = sorted(
    p
    for pattern in ("src/msms/*.py", "tests/*.py", "scripts/*.py", "perfbench/*.py")
    for p in ROOT.glob(pattern)
    if p != PACKAGE_INIT
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(system, d)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]


def test_package_exports_exactly_what_it_imports():
    imported = {
        alias.asname or alias.name
        for node in ast.parse(PACKAGE_INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # Sorted lists, so a name listed twice in __all__ fails too.
    assert sorted(msms.__all__) == sorted(imported)
    assert [name for name in msms.__all__ if not hasattr(msms, name)] == []
