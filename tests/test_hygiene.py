"""Source hygiene: every imported name is used, the package exports what it
imports, and every name the README calls out exists."""

import ast
import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import msms

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "msms" / "__init__.py"
README = ROOT / "README.md"
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


# -- README names ----------------------------------------------------------------


def readme_names(text: str) -> list[str]:
    """Names in the inline code spans of ``text`` shaped ``name()``, ``obj.name()``
    (the name after the last dot) or CamelCase, and spans that are one
    snake_case name; fenced blocks are skipped."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    names = []
    for span in re.findall(r"`([^`\n]+)`", text):
        names += re.findall(r"\b(\w+)\(\)", span)
        names += re.findall(r"^[a-z]\w*_\w+$", span)
        names += re.findall(r"\b[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b", span)
    return names


def known_names() -> set[str]:
    """Builtins, and the names of msms, of its modules and of their classes."""
    known = set(dir(builtins)) | set(dir(msms))
    for info in pkgutil.iter_modules(msms.__path__):
        module = importlib.import_module(f"msms.{info.name}")
        known |= set(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value):
                known |= set(dir(value))
    return known


def unresolved_readme_names(text: str) -> list[str]:
    known = known_names()
    return sorted({name for name in readme_names(text) if name not in known})


def test_readme_names_resolve():
    assert readme_names(README.read_text())
    assert unresolved_readme_names(README.read_text()) == []


def test_readme_library_tour_runs():
    tour = re.search(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M).group(1)
    namespace = {}
    exec(tour, namespace)
    assert namespace["validity"] is msms.Validity.INVALID
    assert isinstance(namespace["outcome"], msms.ScenarioOutcome)


def test_the_lint_sees_a_stale_readme_name():
    text = (
        "Call `store.gone()` or `gone_too()[-1]` on a `StaleClass`; `ValueError`,\n"
        "`dump_text()`, `ProtectedStore.dump_state()`, `P`, `RETURN_UNCHECKED` and\n"
        "`draw_plan(config)`, `draw_plan`, `MSMS_SEED` and `test_store.py` pass, but\n"
        "not `stale_function`.\n```\n`FencedAway()`\n```\n"
    )
    assert unresolved_readme_names(text) == ["StaleClass", "gone", "gone_too", "stale_function"]
