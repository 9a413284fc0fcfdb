"""Every ``nbwalk`` command in the README's example block runs and exits 0,
and every name of the package the README cites exists."""

import io
import re
import shlex
from pathlib import Path

import pytest

import nbwalk
from nbwalk.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """The example block's commands as argument lists, with the stdin text
    of a piped ``echo``: ``\\`` continuations are joined, and a quoted
    argument may run on to the next line."""
    block = README.read_text().split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for line in block.replace("\\\n", " ").splitlines():
        text = pending + line
        if not text.strip() or text.startswith("#"):
            continue
        try:
            words = shlex.split(text)
        except ValueError:  # an open quote: the argument goes on
            pending = text + "\n"
            continue
        pending, stdin = "", None
        if "|" in words:
            bar = words.index("|")
            assert words[0] == "echo", text
            stdin, words = " ".join(words[1:bar]) + "\n", words[bar + 1:]
        assert words[0] == "nbwalk", text
        commands.append((words[1:], stdin))
    assert not pending
    return commands


EXAMPLES = _examples()


@pytest.mark.parametrize("argv, stdin", EXAMPLES, ids=[" ".join(argv[:1]) for argv, _ in EXAMPLES])
def test_readme_example_runs(argv, stdin, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 0


def _cited():
    """Each whole backticked dotted name whose head is ``nbwalk`` or a name
    in it, such as `stats._replica`, `nbwalk.graph` or `Graph.dart_types`."""
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text()))
    return sorted(n for n in names if n.split(".")[0] == "nbwalk" or hasattr(nbwalk, n.split(".")[0]))


@pytest.mark.parametrize("name", _cited())
def test_readme_cites_a_name_that_exists(name):
    head, *rest = name.split(".")
    obj = nbwalk if head == "nbwalk" else getattr(nbwalk, head)
    for part in rest:
        assert hasattr(obj, part), name
        obj = getattr(obj, part)
