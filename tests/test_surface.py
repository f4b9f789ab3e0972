"""Public-surface census: every name ``ngphase`` exports is read by the
program itself, or is listed below with the reason it is exported anyway."""

import ast
from pathlib import Path

import ngphase

# Exported names no module of the program reads, and why each stays.
UNREAD = {
    "threshold_phase": "with baseline_phase_errors, the paper's threshold-versus-"
                       "shot-noise claim (acceptance criterion 7)",
    "baseline_phase_errors": "the shot-noise and squeezed baselines that claim "
                             "compares threshold_phase with",
}


def _names_read_by_the_program() -> set[str]:
    """Every name a module of ``src/ngphase`` other than ``__init__`` reads,
    as a variable or as an attribute."""
    read = set()
    for path in Path(ngphase.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_exported_name_is_read_by_the_program_or_listed():
    read = _names_read_by_the_program()
    assert set(ngphase.__all__) - read == set(UNREAD)
    assert all(reason for reason in UNREAD.values())
