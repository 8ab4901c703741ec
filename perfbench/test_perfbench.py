"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import REFERENCE, ROOT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(trace: int) -> dict:
    done = bench("--workload", "fourier_check", "--seed", "0", "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice() -> list[dict]:
    return [smoke(1), smoke(1)]


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit():
    result = smoke(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_with_its_unit(traced_twice):
    result = traced_twice[0]
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", ["linalg.svd_calls_per_m", "bases.evaluate_columns_calls",
                                  "linalg.as_matrix_calls_per_m", "linalg.svd_flops_per_m"])
def test_exact_counts_repeat_between_traced_runs(traced_twice, name):
    first, second = (run["metrics"][name]["value"] for run in traced_twice)
    assert first == second and first > 0


def reference_text() -> str:
    return (REFERENCE / "sweep_rff_sphere" / "sweep.csv").read_text(encoding="utf-8")


def perturbed(text: str, column: str, change) -> str:
    header, rows = gate.parse_csv(text)
    col = header.index(column)
    rows[5][col] = change(rows[5][col])
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def test_gate_accepts_the_reference_itself():
    assert gate.compare_sweep_csv("sweep.csv", reference_text(), reference_text()) == []


def test_gate_rejects_a_perturbed_rank():
    bad = perturbed(reference_text(), "rank_TM", lambda v: str(int(v) + 1))
    problems = gate.compare_sweep_csv("sweep.csv", bad, reference_text())
    assert len(problems) == 1 and "rank_TM" in problems[0]


def test_gate_rejects_a_perturbed_float():
    bad = perturbed(reference_text(), "norm_A", lambda v: repr(float(v) * (1 + 1e-7)))
    problems = gate.compare_sweep_csv("sweep.csv", bad, reference_text())
    assert len(problems) == 1 and "norm_A" in problems[0]


def test_gate_tolerates_rounding_level_changes():
    wobble = perturbed(reference_text(), "norm_A", lambda v: repr(float(v) * (1 + 1e-12)))
    assert gate.compare_sweep_csv("sweep.csv", wobble, reference_text()) == []


def test_failures_count_error_rows():
    sweep = perturbed(reference_text(), "error", lambda _: "LinAlgError: SVD did not converge")
    assert gate.count_failures({"a/sweep.csv": sweep, "a/meta.json": "{}"}) == (40, 1)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fourier_check", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
