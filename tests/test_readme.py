"""Every ``nbwalk`` command in the README's example block runs and exits 0."""

import io
import shlex
from pathlib import Path

import pytest

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
