"""The README's examples: each ``wbext`` session prints what the README shows,
byte for byte, and each Python example runs to completion."""

import re
import shlex
from pathlib import Path

import pytest

from wbext.cli import main

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", _README, flags=re.M | re.S)
_SESSIONS = [body for lang, body in _BLOCKS if lang == "text" and body.startswith("$ wbext ")]
_PROGRAMS = [body for lang, body in _BLOCKS if lang == "python"]


def test_the_readme_has_examples_of_both_kinds():
    assert _SESSIONS and _PROGRAMS


@pytest.mark.parametrize("block", _SESSIONS, ids=lambda b: b.splitlines()[0][2:])
def test_readme_session_prints_what_the_readme_shows(capsys, block):
    command, expected = block.split("\n", 1)
    assert main(shlex.split(command.removeprefix("$ wbext "))) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("block", _PROGRAMS, ids=[f"python-{i}" for i in range(len(_PROGRAMS))])
def test_readme_program_runs(block):
    exec(compile(block, "README.md", "exec"), {})
