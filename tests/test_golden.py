"""Golden outputs: shipped configs, cut to a window of model sizes, against stored rows.

The rows under ``golden/`` pin the behaviour of configs that the benchmark's
reference rows do not cover.  Ranks, independence flags, ``m``, ``n`` and the
error text must match exactly; every float matches to 1e-9 relative, with an
absolute floor of 1e-12 times the column's largest stored magnitude so that
rounding-level entries survive a reordering of the same arithmetic.

``ising_sweep_physical`` at m 901-916 is the m >> n case (n = 200, rank
n < m), where the aliasing core is 4.5x smaller than the dense aliasing
operator.  The benchmark's ``ising_saturated`` workload runs the same window,
but only by hand: no workload the benchmark runs by default gates it, so
these rows do.
"""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from gadkit import parse_config
from gadkit.experiments import run_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

EXACT_COLUMNS = ("m", "n", "rank_TM", "new_col_independent", "error")
REL_TOL = 1e-9
FLOOR = 1e-12

# config stem -> model-size window (None: the config's own range)
CASES = {
    "sweep_rrf_sphere": (81, 120),  # real features, straddling m = n = 100
    "ising_sweep_random": (190, 210),  # straddling m = n = 200
    "ising_sweep_physical": (901, 916),  # m >> n = 200
    "gauss_compare": None,
}


def mismatches(name: str, got: str, want: str) -> list[str]:
    """Every cell where a produced CSV departs from its golden copy."""
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return [f"{name}: shape or header differs from the golden copy"]
    problems = []
    for col, column in enumerate(want_rows[0]):
        if column in EXACT_COLUMNS:
            problems += [f"{name} row {i} {column}: {g[col]!r} != {w[col]!r}"
                         for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), 1)
                         if g[col] != w[col]]
            continue
        wanted = [float(w[col]) for w in want_rows[1:]]
        scale = max((abs(v) for v in wanted if math.isfinite(v)), default=0.0)
        for i, (g, w) in enumerate(zip(got_rows[1:], wanted), 1):
            value = float(g[col])
            if math.isnan(value) and math.isnan(w):
                continue
            if not abs(value - w) <= REL_TOL * max(abs(value), abs(w)) + FLOOR * scale:
                problems.append(f"{name} row {i} {column}: {value!r} != {w!r}")
    return problems


@pytest.mark.parametrize("stem", sorted(CASES))
def test_matches_golden_rows(stem, tmp_path):
    config = parse_config(ROOT / "configs" / f"{stem}.cfg")
    window = CASES[stem]
    if window is not None:
        config = replace(config, m_range=(window[0], window[1], 1), m_values=None)
    run_config(config, out_dir=str(tmp_path), seed_override=0, threads=1)
    expected = sorted(p.name for p in (GOLDEN / stem).glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == expected
    problems = []
    for name in expected:
        problems += mismatches(name, (tmp_path / name).read_text(encoding="utf-8"),
                               (GOLDEN / stem / name).read_text(encoding="utf-8"))
    assert not problems, "\n".join(problems[:20])
