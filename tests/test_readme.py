"""The README's CLI examples run as documented.

Every ``ngphase ...`` line of the README's CLI code block goes through
``cli.main`` in a temporary working directory (one of them writes a file) and
must end in its documented exit code.
"""

import shlex
from pathlib import Path

import pytest

from ngphase.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Documented exit codes other than 0.
EXIT_CODES = {"verify --tolerance 1e-15": 3}


def _cli_commands() -> list[list[str]]:
    """The argv of each ``ngphase`` line in the first code block under ## CLI."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("ngphase ")]


COMMANDS = _cli_commands()


def test_readme_block_is_found():
    # an unparsed block would leave the test below with no cases
    assert set(EXIT_CODES) <= {" ".join(argv) for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exit_code(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_CODES.get(" ".join(argv), 0), err
