"""Every imported name is used: an ``ast`` scan of the package modules
(``__init__.py`` re-exports, so it is left out) and of the test files.
Every private name a package module defines is read in the package, and
only the commands that sample load numpy."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
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


# numpy's raw-word rule: PCG64's raw outputs, the spare half its state
# keeps and the jump back over words read ahead; the package reads numpy's
# 32-bit outputs through ``Generator.integers`` instead
RAW_WORD_NAMES = {"random_raw", "has_uint32", "uinteger", "advance"}


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
    assert {name: found for name, found in readers.items() if found} == {}


def _references(node) -> Counter:
    """How often each name is read, as a name or an attribute, in ``node``."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
    return refs


def _private_definitions(tree):
    """``(name, node)`` for each private name a module binds at its top
    level, by ``def``, ``class`` or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_module_name_is_used():
    # a private name is the package's own business, so one that no code in
    # the package reads, outside its own definition, does nothing
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / "src" / "nbwalk").glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if refs[name] == _references(node)[name]
    ]
    assert unused == []


# in a fresh interpreter: import the exact side's modules, run each command
# by cli.run, print whether numpy is loaded, run ``then`` and print it again
_PROBE = """
import json, sys
import nbwalk.birthdeath, nbwalk.contraction, nbwalk.erasure, nbwalk.laws
from nbwalk.cli import run
for argv in json.loads(sys.argv[1]):
    assert run(argv) == 0, argv
print("numpy" in sys.modules)
exec(sys.argv[2])
print("numpy" in sys.modules)
"""


def _numpy_loaded(cwd, commands, then="") -> list:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-c", _PROBE, json.dumps(commands), then]
    out = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True).stdout
    return [line == "True" for line in out.splitlines()[-2:]]


def test_only_the_commands_that_sample_load_numpy(tmp_path):
    (tmp_path / "tokens").write_text("a b a c\n")
    k4 = json.dumps({"type": "explicit", "adjacency": {v: [w for w in range(4) if w != v] for v in range(4)}})
    sub_k4 = json.dumps({"type": "subdivided", "base": json.loads(k4), "t": 1})
    exact = [
        ["compare", "--graph", json.dumps({"type": "counterexample"}), "--start", "v", "--N", "6", "--m", "2"],
        ["enumerate", "--graph", k4, "--walk", "nbrw", "--start", "0", "--m", "2"],
        ["chain", "--k", "3"],
        ["contract", "--graph", sub_k4],
        ["erase", "--tokens", "@tokens"],
    ]
    # a bare import resolves the Monte Carlo names, and loads numpy, on first use
    names = ("monte_carlo", "sample_path", "is_backtrack_free", "stats", "walkers")
    lazy = f"import nbwalk\nfor name in {names}: getattr(nbwalk, name)"
    assert _numpy_loaded(tmp_path, exact, lazy) == [False, True]
    walk = ["--graph", k4, "--start", "0", "--horizon", "10", "--seed", "1"]
    for command in (
        ["diagnose", *walk, "--walk", "srw", "--replicas", "2"],
        ["walk", *walk, "--walk", "srw"],
        ["erase", *walk],
    ):
        assert _numpy_loaded(tmp_path, [command]) == [True, True], command[0]
