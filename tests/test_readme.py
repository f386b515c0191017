"""The README's examples run as shown."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from stripes.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block(heading: str, language: str) -> str:
    """The fenced ``language`` block that follows ``heading``."""
    found = re.search(rf"{re.escape(heading)}\s*```{language}\n(.*?)```", README, re.DOTALL)
    assert found, heading
    return found.group(1)


def session() -> list[tuple[str, str]]:
    """Each ``$ stripes ...`` line of the example session with the lines
    shown after it."""
    steps: list[tuple[str, str]] = []
    for line in block("Example session:", "sh").splitlines(keepends=True):
        if line.startswith("$ "):
            steps.append((line[2:].strip(), ""))
        else:
            steps[-1] = (steps[-1][0], steps[-1][1] + line)
    return steps


def test_session_has_examples():
    assert len(session()) >= 3


@pytest.mark.parametrize("command, shown", session())
def test_example_session_prints_what_it_shows(command, shown, monkeypatch, capsys):
    program, *argv = shlex.split(command)
    assert program == "stripes"
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out == shown


def test_library_example_runs():
    exec(block("## Library example", "python"), {})
