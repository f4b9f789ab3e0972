"""The README's CLI examples run as documented, byte for byte.

Every ``ngphase ...`` line of the README's CLI code block goes through
``cli.main`` in a temporary working directory (one of them writes a file).
Its exit code, stderr line and stdout must equal those of its entry in the
characterization corpus (``test_corpus.py``); a command that writes ``--out``
is held to that file instead of its (empty) stdout, and ``verify``'s seconds
column is masked as the corpus masks it.  The README's lists of each
command's scenario flags must name exactly the flags its parser takes.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from ngphase.cli import build_parser
from test_corpus import CORPUS, run

README = Path(__file__).resolve().parents[1] / "README.md"

# The corpus entry that holds each README command's output.
CORPUS_ENTRIES = {
    "overlap --family fock --n 1 --delta-max 3 --steps 300": "readme_overlap",
    "parity --alpha 1.5 --eta 0.9": "readme_parity",
    "evaluate --family fock --n 1 --eta 0.98 --phi 1.01e-3 --oracle": "readme_evaluate",
    "optimize --family cat --alpha 2 --eta 0.95": "optimize_cat",
    "sweep --family cat --alpha 2 --axis eta --values 0.8,0.9,0.95,0.98": "readme_sweep_eta",
    "sweep --family cat --alpha 2 --axis alpha --grid 0.5 4 200 --oracle":
        "readme_sweep_alpha_oracle",
    "figure --id 3 --out fig3.csv": "readme_figure3",
    "verify": "verify_full",
    "verify --tolerance 1e-15": "readme_verify_tolerance",
}


def _cli_commands() -> list[list[str]]:
    """The argv of each ``ngphase`` line in the first code block under ## CLI."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("ngphase ")]


COMMANDS = _cli_commands()


def test_readme_block_is_found():
    # an unparsed block would leave the test below with no cases
    assert sorted(" ".join(argv) for argv in COMMANDS) == sorted(CORPUS_ENTRIES)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exit_code(monkeypatch, tmp_path, argv):
    """The command gives its corpus entry's exit code, stderr line and stdout
    (each text's first line, which names the command, left out)."""
    monkeypatch.chdir(tmp_path)
    got = run(argv).split("\n", 1)[1]
    if "--out" in argv:
        got += (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    expected = (CORPUS / f"{CORPUS_ENTRIES[' '.join(argv)]}.txt").read_text(encoding="utf-8")
    assert got == expected.split("\n", 1)[1]


# The README sentence that lists each command's scenario flags, as the text
# just before the list and the text that ends it.
FLAG_LISTS = {
    "evaluate": ("Scenario flags of `evaluate`, `optimize` and `sweep`:", " (and"),
    "optimize": ("Scenario flags of `evaluate`, `optimize` and `sweep`:", " (and"),
    "sweep": ("Scenario flags of `evaluate`, `optimize` and `sweep`:", " (and"),
    "overlap": ("`overlap` takes", ";"),
    "parity": ("`parity`, always a cat, takes", "."),
}
# Each command's own flags, which the README names apart from those lists.
OWN_FLAGS = {
    "evaluate": {"--phi", "--delta"},
    "optimize": set(),
    "sweep": {"--axis", "--values", "--grid"},
    "overlap": {"--delta-max", "--steps"},
    "parity": {"--delta-max", "--steps"},
}


@pytest.mark.parametrize("command", sorted(FLAG_LISTS))
def test_readme_flag_lists_match_the_parser(command):
    text = " ".join(README.read_text(encoding="utf-8").split())
    start, end = FLAG_LISTS[command]
    listed = re.findall(r"`(--[a-z0-9-]+)`", text.split(start, 1)[1].split(end, 1)[0])
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    taken = {flag for action in subparsers.choices[command]._actions
             for flag in action.option_strings}
    assert sorted(listed) == sorted(taken - {"-h", "--help"} - OWN_FLAGS[command])
