"""Checks on the CSV a benchmark command prints."""

from __future__ import annotations

import math

from workloads import Command

# Columns that hold words, not numbers.
TEXT_COLUMNS = {"source", "status", "check"}


def check_output(cmd: Command, returncode: int, text: str,
                 verify_rows: int | None = None) -> list[str]:
    """Problems with one command's result; an empty list means it is correct.

    ``verify_rows`` is the size of the program's check registry, the row
    count a ``verify`` report must have.
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    if not text.endswith("\n"):
        return ["output does not end with a newline"]
    lines = text[:-1].split("\n")
    header = tuple(lines[0].split(","))
    if header != cmd.header:
        return [f"header {','.join(header)!r} != {','.join(cmd.header)!r}"]
    rows = [line.split(",") for line in lines[1:]]
    expected = verify_rows if cmd.is_verify else cmd.rows
    problems = []
    if expected is None or len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {i}: {len(row)} cells, expected {len(header)}")
            continue
        values = {}
        for name, cell in zip(header, row):
            if name in TEXT_COLUMNS:
                continue
            try:
                values[name] = float(cell)
            except ValueError:
                problems.append(f"row {i}: {name}={cell!r} is not a number")
                continue
            if not math.isfinite(values[name]):
                problems.append(f"row {i}: {name}={cell} is not finite")
        gap = values.get(cmd.diff_column)
        if gap is not None and not gap <= cmd.tolerance:
            problems.append(f"row {i}: {cmd.diff_column}={gap!r} exceeds {cmd.tolerance:g}")
        if cmd.is_verify and row[0] != "PASS":
            problems.append(f"check {row[1]} reports {row[0]}")
    return problems


def comparable(cmd: Command, text: str) -> str:
    """The part of the output that must be byte-identical between runs.

    ``verify`` reports each check's run time in its last column; that column
    is a measurement, so it is left out of the comparison.
    """
    if not cmd.is_verify:
        return text
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
