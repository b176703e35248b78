"""Checks of the program's outputs against the expectations ``gen.py`` wrote.

Standard library only, so the parent process (``run.py``) can run them after
each job without importing ``ecrkit``. Each check returns a list of problems
(empty when the output is right) and, for ``matrix``, the number of
``error`` rows.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction
from math import floor

CSV_COLUMNS = [
    "method",
    "muc_p", "muc_r", "muc_f1",
    "b3_p", "b3_r", "b3_f1",
    "ceafe_p", "ceafe_r", "ceafe_f1",
    "r_avg", "p_avg", "conll_f1",
]

# A float sum taken in another order can land an exact .x5 boundary one ulp
# low, so a cell within this distance of a boundary may round either way.
_BOUNDARY_SLACK = Fraction(1, 10**9)

_SUMMARY = re.compile(r"^clusters=(\d+) singletons=(\d+) pair_mass=(-?\d+)$",
                      re.M)


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {i + 1}: got {g[:80]!r}, expected {w[:80]!r}"
    return f"{len(got_lines)} lines, expected {len(want_lines)}"


def check_partition(got: str, want: str, what: str) -> list[str]:
    if got == want:
        return []
    return [f"{what}: partition differs at {_first_difference(got, want)}"]


def check_summary(stdout: str, expected: dict) -> list[str]:
    """The ``clusters= singletons= pair_mass=`` line ``ecrkit cluster``
    prints."""
    found = _SUMMARY.findall(stdout)
    if len(found) != 1:
        return [f"expected one summary line, got {stdout[-200:]!r}"]
    got = dict(zip(("clusters", "singletons", "pair_mass"),
                   map(int, found[0])))
    return [f"{k}={got[k]}, expected {expected[k]}"
            for k in got if got[k] != expected[k]]


def half_up(x: Fraction) -> str:
    """x100, one decimal, half-up, as the matrix cells are written."""
    tenths = floor(x * 1000 + Fraction(1, 2))
    return f"{tenths // 10}.{tenths % 10}"


def allowed_cells(value: Fraction) -> set[str]:
    return {half_up(value + d) for d in (-_BOUNDARY_SLACK, 0, _BOUNDARY_SLACK)}


def check_matrix_csv(text: str, expected: dict) -> tuple[list[str], int]:
    """Every cell of the matrix CSV against the exact scores. Returns the
    problems and the number of ``error`` rows, which count as failed
    operations rather than as wrong output."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return [f"bad CSV header {rows[:1]!r}"], 0
    methods = expected["methods"]
    if len(rows) - 1 != len(methods):
        return [f"{len(rows) - 1} CSV rows, expected {len(methods)}"], 0
    problems: list[str] = []
    errors = 0
    for row, want in zip(rows[1:], methods):
        if len(row) != len(CSV_COLUMNS):
            problems.append(f"row {row[:1]!r} has {len(row)} cells")
            continue
        if row[0] != want["name"]:
            problems.append(f"row {row[0]!r}, expected {want['name']!r}")
            continue
        if row[1] == "error":
            errors += 1
            continue
        for column, cell in zip(CSV_COLUMNS[1:], row[1:]):
            value = Fraction(want["scores"][column])
            if cell not in allowed_cells(value):
                problems.append(f"{row[0]} {column}={cell}, expected "
                                f"{half_up(value)} ({float(value):.6f})")
    return problems, errors
