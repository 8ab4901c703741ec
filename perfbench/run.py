"""gadkit sweep benchmark: time one workload end to end, or layer by layer, and check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one client:
child processes run one after another, each with the sweep pool width at 1
and one BLAS thread (see BLAS_ENV).

``--trace 0`` starts SETUPS_AROUND processes that only set up, then one
that sets up and runs timed passes for S seconds, then SETUPS_AROUND more
that only set up, so that the set-ups are spread over the whole run.  It
reports the end-to-end metrics: ``setup_s`` (median over all set-ups, from
process start to a warm state), ``run_s`` (median wall time of a pass, to
all artifacts), ``m_per_s`` (median over passes of model sizes per second
inside ``sweep``) and ``peak_rss_mb`` (``ru_maxrss`` of the measuring
process).

``--trace 1`` starts one process that runs untraced passes for S/2 seconds,
then traced passes for S/2 seconds, and reports the per-layer metrics.

Either way the outputs go through the correctness gate (``gate.py``).  The
last stdout line is one JSON object; a run whose outputs are wrong prints
``"correct": false`` with no metrics and exits 1.  Results, machine facts
and spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HERE, ROOT, WORKLOADS, missing_program

SETUPS_AROUND = 3  # set-up-only processes before and after the measuring one
# One BLAS thread: on a shared 2-vCPU host a second OpenBLAS thread made the
# sweeps 1.2-1.7x slower and its speed followed the load on the other vCPU.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIME_LIMIT_S = 170  # every child together, so the run ends within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "m_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "linalg.svd_calls_per_m": "count",
    "linalg.svd_s": "s",
    "linalg.svd_flops_per_m": "flop",
    "linalg.svd_max_operand_mb": "MB",
    "linalg.pseudoinverse_s": "s",
    "linalg.kernel_projector_s": "s",
    "linalg.spectral_norm_s": "s",
    "linalg.as_matrix_calls_per_m": "count",
    "linalg.as_matrix_s": "s",
    "decomposition.ridge_panels_calls_per_m": "count",
    "decomposition.ridge_panels_s": "s",
    "decomposition.build_panels_s": "s",
    "decomposition.aliasing_operator_s": "s",
    "decomposition.risk_and_errors_s": "s",
    "decomposition.sweep_self_s": "s",
    "decomposition.m_step_p50_ms": "ms",
    "decomposition.m_step_tail_ms": "ms",
    "decomposition.m_step_samples": "count",
    "bases.evaluate_columns_calls": "count",
    "bases.evaluate_columns_s": "s",
    "bases.operator_mb": "MB",
    "designs.make_design_s": "s",
    "designs.make_theta_s": "s",
    "config.parse_s": "s",
    "experiments.write_s": "s",
    "experiments.bytes_written": "B",
    "oracle.certify_s": "s",
    "trace.overhead_frac": "ratio",
}


class ChildFailed(Exception):
    pass


def run_child(args, scratch: Path, seconds: float, deadline: float, spans: Path | None = None) -> dict:
    t0 = time.monotonic()
    command = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
               "--t0", repr(t0), "--scratch", str(scratch)]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, **BLAS_ENV}, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"benchmark process exceeded the {TIME_LIMIT_S} s limit") from exc
    if done.returncode != 0:
        raise ChildFailed(f"benchmark process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args, scratch: Path, spans: Path) -> tuple[dict, list[float]]:
    """The measuring child's report and every set-up time taken."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        return run_child(args, scratch, args.seconds, deadline, spans), []
    before = [run_child(args, scratch, 0, deadline)["setup_s"] for _ in range(SETUPS_AROUND)]
    report = run_child(args, scratch, args.seconds, deadline)
    after = [run_child(args, scratch, 0, deadline)["setup_s"] for _ in range(SETUPS_AROUND)]
    return report, before + [report["setup_s"]] + after


def end_to_end(report: dict, setups: list[float]) -> dict[str, float]:
    passes = report["passes"]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p["wall_s"] for p in passes),
        "m_per_s": statistics.median(p["steps"] / p["sweep_s"] for p in passes),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    problem = missing_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    results = ROOT / ".perfbench"
    results.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = results / f"tmp-{label}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    spans = results / f"{label}-spans.json"
    try:
        report, setups = measure(args, scratch, spans)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = not report["problems"]
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(report, setups).items()}
    attempted, failed = report["attempted"], report["failed"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": report["facts"],
        "setups_s": setups,
        "passes": report["passes"],
        "traced_passes_s": report.get("traced_passes", []),
        "failed_row_frac": failed / attempted,
        "problems": report["problems"],
        "metrics": metrics,
    }
    (results / f"{label}.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    for key, value in report["facts"].items():
        print(f"# {key}: {value}")
    print(f"# passes: {len(report['passes'])}, failed_row_frac: {failed / attempted} "
          f"({failed} of {attempted} rows)")
    for line in report["problems"]:
        print(f"WRONG {line}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
