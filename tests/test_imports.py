"""Every imported name is used: an ``ast`` scan of the package modules
(``__init__.py`` re-exports, so it is left out) and of the test files."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "nbwalk").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree) -> list:
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


# numpy's raw-word rule: PCG64's raw outputs and the spare half its state keeps
RAW_WORD_NAMES = {"random_raw", "has_uint32", "uinteger"}


def _names(tree) -> set:
    """Every name, attribute and string constant in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_only_walkers_reads_raw_words():
    modules = sorted((ROOT / "src" / "nbwalk").glob("*.py"))
    assert "walkers.py" in [p.name for p in modules]
    readers = {p.name: sorted(_names(ast.parse(p.read_text(), str(p))) & RAW_WORD_NAMES) for p in modules}
    assert {name: found for name, found in readers.items() if found} == {"walkers.py": sorted(RAW_WORD_NAMES)}
