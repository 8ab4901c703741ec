"""Correctness gate and failure accounting over the artifacts of one workload pass.

Artifacts are kept as ``{"<config stem>/<file name>": text}``.  The gate
compares every ``sweep*.csv`` with the reference rows stored under
``reference/`` (taken with the default seed) and certifies a few model sizes
against the conjugate-gradient oracle, which shares no code with the SVD
path and so covers any seed.
"""

from __future__ import annotations

import math

import numpy as np

# Ranks, independence flags, m and the error text must match exactly.
EXACT_COLUMNS = ("m", "rank_TM", "new_col_independent", "error")
# Floats match to REL_TOL relative.  The absolute floor, a FLOOR share of the
# column's largest reference magnitude, keeps rounding-level entries (such as
# bias_error near 1e-16 while the kernel is empty) from failing a reordering
# of the same arithmetic.
REL_TOL = 1e-9
FLOOR = 1e-12
# Risk agreement between the sweep and the oracle, as in the paper-level
# oracle acceptance test.
ORACLE_TOL = 1e-8


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a sweep CSV; the writer joins fields with bare commas."""
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def sweep_files(artifacts: dict[str, str]) -> list[str]:
    return sorted(name for name in artifacts if name.rsplit("/", 1)[-1].startswith("sweep"))


def compare_sweep_csv(name: str, got: str, want: str) -> list[str]:
    """Mismatches between a produced sweep CSV and its reference, one line each."""
    header, rows = parse_csv(got)
    ref_header, ref_rows = parse_csv(want)
    if header != ref_header:
        return [f"{name}: header {header} differs from the reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, the reference has {len(ref_rows)}"]
    problems = []
    for col, column in enumerate(header):
        if column in EXACT_COLUMNS:
            for i, (row, ref) in enumerate(zip(rows, ref_rows)):
                if row[col] != ref[col]:
                    problems.append(f"{name} row {i + 1} {column}: {row[col]!r} != {ref[col]!r}")
            continue
        ref_values = [float(ref[col]) for ref in ref_rows]
        scale = max((abs(v) for v in ref_values if math.isfinite(v)), default=0.0)
        for i, (row, want_value) in enumerate(zip(rows, ref_values)):
            value = float(row[col])
            if math.isnan(value) and math.isnan(want_value):
                continue
            tol = REL_TOL * max(abs(value), abs(want_value)) + FLOOR * scale
            if not abs(value - want_value) <= tol:
                problems.append(f"{name} row {i + 1} {column}: {value!r} != {want_value!r}")
    return problems


def compare_with_reference(artifacts: dict[str, str], reference: dict[str, str]) -> list[str]:
    produced, expected = sweep_files(artifacts), sorted(reference)
    if produced != expected:
        return [f"sweep files {produced} differ from the reference files {expected}"]
    problems = []
    for name in expected:
        problems.extend(compare_sweep_csv(name, artifacts[name], reference[name]))
    return problems


def count_failures(artifacts: dict[str, str]) -> tuple[int, int]:
    """(rows attempted, rows failed) over the sweep CSVs; a row fails when its ``error`` is set."""
    attempted = failed = 0
    for name in sweep_files(artifacts):
        header, rows = parse_csv(artifacts[name])
        col = header.index("error")
        attempted += len(rows)
        failed += sum(1 for row in rows if row[col])
    return attempted, failed


def risk_rows(text: str) -> dict[int, tuple[float, str]]:
    """``m -> (risk_all, error)`` for the lambda = 0 rows of a sweep CSV."""
    header, rows = parse_csv(text)
    m, lam, risk, err = (header.index(c) for c in ("m", "lambda", "risk_all", "error"))
    return {int(row[m]): (float(row[risk]), row[err]) for row in rows if float(row[lam]) == 0.0}


def oracle_disagreement(risk: float, oracle_risk: float, y_full) -> float:
    """Relative gap between the sweep's and the oracle's risk.

    The scale has a floor of 1e-8 times the mean squared signal, so that two
    risks that are both at rounding level agree.
    """
    floor = float(np.mean(np.abs(y_full) ** 2)) * 1e-8
    return abs(risk - oracle_risk) / max(risk, oracle_risk, floor)
