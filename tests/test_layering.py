"""Layering census: one route to the oracle's numbers.

``protocols`` sizes the basis (``_oracle_space``), builds and displaces the
probes (``_displaced_probes``) and reads the overlaps (``_read_overlaps``).
``cli`` prints what that route returns and ``verification`` checks it, so a
fault there shows in ``verify``; neither keeps a copy of its own.
"""

import ast
from pathlib import Path

import ngphase

SOURCE = Path(ngphase.__file__).parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _calls(name: str) -> list[tuple[str, str, ast.Call]]:
    """(module, innermost enclosing function, call) of every call of
    ``name``, as a bare name or an attribute, in ``src/ngphase``."""
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append((module, where, node))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(SOURCE.glob("*.py")):
        visit(_tree(path), path.stem, "<module>")
    return found


def test_cli_imports_no_numpy_fock_or_loss():
    imported = set()
    for node in ast.walk(_tree(SOURCE / "cli.py")):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            imported.add(module)
            if node.level and not node.module:  # from . import name
                imported |= {alias.name for alias in node.names}
    assert not imported & {"numpy", "fock", "loss"}, imported


def test_recommend_dim_is_called_only_by_the_oracle_space():
    assert [call[:2] for call in _calls("recommend_dim")] == [("protocols", "_oracle_space")]


def test_the_overlap_readout_is_written_once():
    # an overlap of two states; np.vdot(amps, amps), a norm, is no readout
    overlaps = [(module, where) for module, where, call in _calls("vdot")
                if len({ast.dump(arg) for arg in call.args}) == 2]
    assert overlaps == [("protocols", "_read_overlaps")]


def test_verification_keeps_no_batch_of_its_own():
    tree = _tree(SOURCE / "verification.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_displaced", "_self_overlaps"}
    assert "partial" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "partial" not in {alias.name for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom) for alias in node.names}
