"""One benchmark process: set a workload up, time passes over it, check the outputs.

Started by ``run.py``, one at a time.  It prints one JSON object on its last
stdout line.  A pass is what a user of gadkit does: parse the config, then
``run_config`` it into a fresh directory with the pool width at 1.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from workloads import REFERENCE, ROOT, WORKLOADS, Recipe, missing_program

POOL_WIDTH = 1


def import_program():
    """Import gadkit from this checkout's ``src``, never from anywhere else."""
    problem = missing_program()
    if problem is not None:
        sys.exit(f"perfbench: {problem}")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gadkit

    if Path(gadkit.__file__).resolve().parent != src / "gadkit":
        sys.exit(f"perfbench: imported gadkit from {gadkit.__file__}, not from {src}")
    return gadkit


gadkit = import_program()
import numpy as np  # noqa: E402  (after gadkit, which pins the numpy in use)
from gadkit.experiments import ising_design, materialize_design  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True, eq=False)
class OracleInputs:
    """What the oracle needs to refit a recipe's sweep: built the way run_config builds it."""

    basis: object
    design: object
    theta_spec: object
    theta: np.ndarray
    M_full: np.ndarray


def windowed(config, recipe: Recipe, first_only: bool = False):
    if recipe.window is None:
        return config
    lo, hi = recipe.window
    return replace(config, m_range=(lo, lo if first_only else hi, 1), m_values=None)


def oracle_inputs(config, seed: int) -> OracleInputs:
    basis = replace(config.basis, seed=config.basis.seed + seed)
    if config.experiment == "ising_sweep":
        design = ising_design(int(basis.param("chain_length")), config.design.n_train,
                              config.design.grid_size, config.design.row_order, seed)
    else:
        design = materialize_design(config.design, seed)
    theta_spec = replace(config.theta, seed=config.theta.seed + seed, length=basis.column_budget)
    M_full = gadkit.evaluate_columns(basis, design.all_points, (0, basis.column_budget))
    return OracleInputs(basis, design, theta_spec, gadkit.make_theta(theta_spec), M_full)


class SweepClock:
    """Time spent inside ``sweep`` calls and the model sizes they returned."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = 0
        self._original = gadkit.experiments.sweep

        def timed(*args, **kwargs):
            start = time.perf_counter()
            records = self._original(*args, **kwargs)
            self.seconds += time.perf_counter() - start
            self.steps += len(records)
            return records

        gadkit.experiments.sweep = timed


@dataclass
class Pass:
    wall_s: float
    sweep_s: float
    steps: int
    bytes_written: int
    artifacts: dict[str, str]


def run_pass(recipes, seed: int, scratch: Path, clock: SweepClock, parse=None,
             first_only: bool = False) -> Pass:
    parse = parse or gadkit.parse_config
    out = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        clock.seconds, clock.steps = 0.0, 0
        start = time.perf_counter()
        paths = []
        for recipe in recipes:
            config = windowed(parse(recipe.path), recipe, first_only)
            paths += gadkit.run_config(config, out_dir=str(out / recipe.stem),
                                       seed_override=seed, threads=POOL_WIDTH)
        wall = time.perf_counter() - start
        artifacts = {p.relative_to(out).as_posix(): p.read_text(encoding="utf-8") for p in paths}
        written = sum(p.stat().st_size for p in paths)
    finally:
        shutil.rmtree(out)
    return Pass(wall, clock.seconds, clock.steps, written, artifacts)


def timed_passes(budget_s: float, run, first: dict[str, str] | None = None) -> list[Pass]:
    """Run passes until the next one would overrun ``budget_s``; at least one.

    A pass whose artifacts equal ``first`` (by default the first pass's)
    shares that dict instead of holding its own copy, so that the memory
    held does not grow with the number of passes.
    """
    passes = []
    start = time.monotonic()
    while True:
        p = run(len(passes))
        first = first or p.artifacts
        if p.artifacts == first:
            p.artifacts = first
        passes.append(p)
        if time.monotonic() - start + p.wall_s > budget_s:
            return passes


def reference_rows(recipe: Recipe) -> dict[str, str]:
    folder = REFERENCE / recipe.stem
    return {f"{recipe.stem}/{p.name}": p.read_text(encoding="utf-8")
            for p in sorted(folder.glob("sweep*.csv"))}


def check(recipes, configs, inputs, seed: int, passes: list[Pass], certify) -> list[str]:
    """Every way the outputs are wrong, one line each; empty when they are right."""
    problems = []
    first = passes[0].artifacts
    if any(p.artifacts != first for p in passes[1:]):
        problems.append("artifacts differ between passes of the same seed")
    for recipe in recipes:
        config = configs[recipe.stem]
        own = {k: v for k, v in first.items() if k.startswith(f"{recipe.stem}/")}
        if config.seeds == (seed,):
            problems += gate.compare_with_reference(own, reference_rows(recipe))
        if not recipe.oracle_m:
            continue
        given = inputs[recipe.stem]
        rows = gate.risk_rows(own[f"{recipe.stem}/sweep.csv"])
        y_full = given.M_full @ given.theta
        for m in recipe.oracle_m:
            if m not in rows:
                record = gadkit.sweep(given.basis, given.design, given.theta_spec, [m],
                                      rel_tol=config.rel_tol, threads=POOL_WIDTH)[0]
                rows[m] = (record.risk_all, record.error or "")
            risk, error = rows[m]
            if error:
                continue  # a failed row is counted as failed, not certified
            oracle = certify(given.M_full, given.design, given.theta, m)
            gap = gate.oracle_disagreement(risk, oracle.risk, y_full)
            if not gap <= gate.ORACLE_TOL:
                problems.append(f"{recipe.stem} m={m}: sweep risk {risk!r} vs oracle "
                                f"{oracle.risk!r}, relative gap {gap:.3e}")
    return problems


def blas_threads() -> int | None:
    """Thread count OpenBLAS is using, read from the loaded library; None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pool_width": POOL_WIDTH,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time for passes; 0 sets up and exits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--scratch", required=True, help="directory for pass outputs")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    # set-up: parse, build what the check needs, warm every code path once
    recipes = WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    configs = {r.stem: gadkit.parse_config(r.path) for r in recipes}
    inputs = {r.stem: oracle_inputs(configs[r.stem], args.seed) for r in recipes if r.oracle_m}
    clock = SweepClock()
    run_pass(recipes, args.seed, scratch, clock, first_only=True)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.seconds <= 0:
        print(json.dumps(result))
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(budget, lambda _: run_pass(recipes, args.seed, scratch, clock))
    certify = gadkit.certify
    tracer = None
    traced: list[Pass] = []
    if args.trace:
        tracer = spans.Tracer(args.workload)
        parse = tracer.wrap("config.parse", gadkit.parse_config)
        certify = tracer.wrap("oracle.certify", gadkit.certify)
        tracer.install()

        def traced_pass(i):
            tracer.pass_no = i
            try:
                return run_pass(recipes, args.seed, scratch, clock, parse=parse)
            finally:
                tracer.pass_no = None

        try:
            traced = timed_passes(budget, traced_pass, passes[0].artifacts)
        finally:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the check's own work
    problems = check(recipes, configs, inputs, args.seed, passes + traced, certify)
    attempted = failed = 0
    for p in passes:
        a, f = gate.count_failures(p.artifacts)
        attempted, failed = attempted + a, failed + f
    result.update(
        facts=machine_facts(),
        passes=[{"wall_s": p.wall_s, "sweep_s": p.sweep_s, "steps": p.steps} for p in passes],
        peak_rss_kb=peak_rss_kb,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )
    if tracer is not None:
        layers = tracer.layer_metrics(list(range(len(traced))))
        layers["experiments.bytes_written"] = statistics.median(p.bytes_written for p in traced)
        layers["trace.overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                         / statistics.median(p.wall_s for p in passes) - 1.0)
        result["layers"] = layers
        result["traced_passes"] = [p.wall_s for p in traced]
        tracer.dump(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
