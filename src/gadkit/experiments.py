"""Named experiment recipes producing CSV and JSON artifacts with provenance.

Every run writes ``sweep.csv`` (one row per :class:`SweepRecord`, whose
fields, in order, are its frozen columns), ``meta.json`` (config echo,
per-seed details, tool version, grid convention, numerical stack), and an
experiment-specific summary where the recipe defines one.  Output is
byte-identical for identical config and seeds on one machine.

The run-level seed shifts the basis, theta, and design seeds together, so a
``seeds`` list in the config yields independent replicates of the same
recipe.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import numbers
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .bases import BasisSpec, evaluate_columns, fourier_frequency
from .config import DesignConfig, RunConfig, serialize_config
from .datasets import load_cifar_bin, load_idx
from .decomposition import (
    SweepRecord,
    aliasing_operator,
    build_panels,
    expected_unstructured_error,
    lambda_major,
    sweep,
    sweep_steps,
)
from .designs import ParameterSpec, SampleDesign, make_design
from .errors import GadkitError, InvalidInputError
from .linalg import kernel_projector  # noqa: F401  (perfbench/spans.py wraps this)

GRID_CONVENTION = (
    "risk is the mean squared prediction error over the evaluation grid; "
    "risk_all averages training plus prediction rows, risk_prediction_only "
    "averages prediction rows only"
)

# the BLAS is the only source of parallelism; meta.json records these as set
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(value: float) -> str:
    return repr(float(value))


# how a field of SweepRecord is written, by its declared type, which ``field.type``
# holds as written since decomposition postpones annotations: a missing error is empty
_WRITERS = {"int": str, "float": _fmt, "bool": lambda flag: "true" if flag else "false",
            "str | None": lambda error: error or ""}
# each field of SweepRecord, in declaration order, with its writer
_FIELDS = tuple((field.name, _WRITERS[field.type]) for field in fields(SweepRecord))

# the fields of SweepRecord in order, ``lam`` written as ``lambda``
CSV_COLUMNS = tuple("lambda" if name == "lam" else name for name, _ in _FIELDS)


def _csv_fields(record: SweepRecord) -> list[str]:
    return [write(getattr(record, name)) for name, write in _FIELDS]


def format_record(record: SweepRecord) -> str:
    """One CSV row without its line ending; fields are quoted only where they need it."""
    row = io.StringIO()
    csv.writer(row, lineterminator="\n").writerow(_csv_fields(record))
    return row.getvalue()[:-1]


def write_sweep_csv(path: Path, records: list[SweepRecord]) -> Path:
    """The header and one row per record, each as :func:`format_record` writes it,
    through one CSV writer for the whole file."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(_csv_fields, records))
    path.write_text(text.getvalue(), encoding="utf-8")
    return path


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _shift_seed(basis: BasisSpec, run_seed: int) -> BasisSpec:
    return replace(basis, seed=basis.seed + run_seed)


def _model_sizes(config: RunConfig) -> list[int]:
    if config.m_values is not None:
        return sorted(set(config.m_values))
    lo, hi, step = config.m_range
    return list(range(lo, hi + 1, step))


def materialize_design(design: DesignConfig, run_seed: int) -> SampleDesign:
    """Build the sample design declared in a config, shifted by the run seed.

    Every field :func:`make_design` takes is passed as it stands, and the
    strategy reads the ones it needs; a ``from_dataset`` pool is loaded here,
    from ``dataset_path``, which must be set.
    """
    points = None
    if design.strategy == "from_dataset":
        if design.dataset_path is None:
            raise InvalidInputError("from_dataset strategy requires dataset_path")
        loader = load_idx if design.dataset_format == "idx" else load_cifar_bin
        points = loader(design.dataset_path, scale_policy=design.scale_policy)
    return make_design(design.strategy, design.n_train, design.grid_size, seed=run_seed,
                       interval=design.interval, period=design.period, dim=design.dim,
                       points=points)


def _theta_spec(config: RunConfig, run_seed: int, basis: BasisSpec) -> ParameterSpec:
    return replace(config.theta, seed=config.theta.seed + run_seed, length=basis.column_budget)


def _sweep_records(config: RunConfig, run_seed: int, design: SampleDesign,
                   basis: BasisSpec) -> list[SweepRecord]:
    return sweep(basis, design, _theta_spec(config, run_seed, basis), _model_sizes(config),
                 lambdas=config.lambdas, rel_tol=config.rel_tol)


def _seed_name(config: RunConfig, run_seed: int, name: str) -> str:
    """``name`` for a one-seed run; ``<stem>_seed<k><suffix>`` when the config lists several."""
    if len(config.seeds) == 1:
        return name
    stem, dot, suffix = name.partition(".")
    return f"{stem}_seed{run_seed}{dot}{suffix}"


def _spin_configurations(chain_length: int) -> np.ndarray:
    count = 1 << chain_length
    configs = np.empty((count, chain_length))
    for site in range(chain_length):
        configs[:, site] = np.where((np.arange(count) >> site) & 1, 1.0, -1.0)
    return configs


def ising_design(chain_length: int, n_train: int, grid_size: int,
                 row_order: str, run_seed: int) -> SampleDesign:
    """Training rows from the enumerated spin configurations of a periodic chain.

    ``size_lex`` orders configurations by up-spin count then integer code, so
    training rows are the smallest configurations; ``seeded`` shuffles rows.
    """
    configs = _spin_configurations(chain_length)
    count = configs.shape[0]
    if n_train + grid_size > count:
        raise InvalidInputError(
            f"n_train + grid_size = {n_train + grid_size} exceeds the {count} configurations"
        )
    if row_order == "size_lex":
        sizes = np.array([int(c).bit_count() for c in range(count)])
        order = np.lexsort((np.arange(count), sizes))
    else:
        order = np.random.default_rng(run_seed).permutation(count)
    ordered = configs[order]
    return SampleDesign(
        train_points=ordered[:n_train],
        prediction_points=ordered[n_train : n_train + grid_size],
        strategy="from_dataset",
        seed=run_seed,
        effective_seed=run_seed,
    )


def fourier_alias_expectation(n_base: int, m: int, budget: int) -> np.ndarray:
    """Exact aliasing pattern for equispaced samples: frequency k maps to k mod n."""
    expected = np.zeros((m, budget - m))
    for j in range(m, budget):
        freq = fourier_frequency(j, n_base)
        expected[freq % n_base, j - m] = 1.0
    return expected


def _run_sweep_like(config: RunConfig, run_seed: int, out: Path):
    basis = _shift_seed(config.basis, run_seed)
    design = materialize_design(config.design, run_seed)
    records = _sweep_records(config, run_seed, design, basis)
    csv_path = write_sweep_csv(out / _seed_name(config, run_seed, "sweep.csv"), records)
    return [csv_path], {"design_effective_seed": design.effective_seed}


def _run_fourier_check(config: RunConfig, run_seed: int, out: Path):
    basis = _shift_seed(config.basis, run_seed)
    design = materialize_design(config.design, run_seed)
    n_base = int(basis.param("base_frequencies"))
    records = _sweep_records(config, run_seed, design, basis)

    m = _model_sizes(config)[0]
    M_full = evaluate_columns(basis, design.all_points, (0, basis.column_budget))
    panel = build_panels(M_full, design, m, config.rel_tol)
    aliasing = aliasing_operator(panel)
    expected = fourier_alias_expectation(n_base, m, basis.column_budget)
    max_deviation = float(np.max(np.abs(aliasing - expected))) if aliasing.size else 0.0

    csv_path = write_sweep_csv(out / _seed_name(config, run_seed, "sweep.csv"), records)
    summary = {
        "experiment": "fourier_check",
        "modeled": m,
        "base_frequencies": n_base,
        "column_budget": basis.column_budget,
        "max_deviation": max_deviation,
    }
    summary_path = write_json(out / _seed_name(config, run_seed, "summary.json"), summary)
    return [csv_path, summary_path], {"max_deviation": max_deviation}


def _run_gauss_compare(config: RunConfig, run_seed: int, out: Path):
    basis = _shift_seed(config.basis, run_seed)
    m = config.m_range[0]
    theta_spec = _theta_spec(config, run_seed, basis)
    gauss_records: list[SweepRecord] = []
    uniform_records: list[SweepRecord] = []
    rows = []
    for n in config.n_values:
        gauss = make_design("legendre_gauss", n, config.design.grid_size, seed=run_seed)
        uniform = make_design("uniform_interval", n, config.design.grid_size,
                              seed=run_seed + n, interval=(-1.0, 1.0))
        rec_g = sweep(basis, gauss, theta_spec, [m], rel_tol=config.rel_tol)[0]
        rec_u = sweep(basis, uniform, theta_spec, [m], rel_tol=config.rel_tol)[0]
        gauss_records.append(rec_g)
        uniform_records.append(rec_u)
        if rec_g.error is not None or rec_u.error is not None:
            ratio = float("nan")  # a failed fit has no norm to compare
        else:
            ratio = rec_u.norm_A / rec_g.norm_A if rec_g.norm_A > 0 else float("inf")
        rows.append((n, rec_u.norm_A, rec_g.norm_A, ratio))

    csv_path = write_sweep_csv(out / _seed_name(config, run_seed, "sweep.csv"), gauss_records)
    uniform_path = write_sweep_csv(out / _seed_name(config, run_seed, "sweep_uniform.csv"),
                                   uniform_records)
    summary_lines = ["n,norm_A_uniform,norm_A_gauss,ratio"]
    summary_lines.extend(f"{n},{_fmt(u)},{_fmt(g)},{_fmt(r)}" for n, u, g, r in rows)
    summary_path = out / _seed_name(config, run_seed, "gauss_compare.csv")
    summary_path.write_text("\n".join(summary_lines) + "\n", encoding="utf-8")
    extra = {"fixed_model_size": m, "n_values": list(config.n_values)}
    return [csv_path, uniform_path, summary_path], extra


def _run_ising_sweep(config: RunConfig, run_seed: int, out: Path):
    basis = _shift_seed(config.basis, run_seed)
    chain_length = int(basis.param("chain_length"))
    design = ising_design(chain_length, config.design.n_train, config.design.grid_size,
                          config.design.row_order, run_seed)
    records = _sweep_records(config, run_seed, design, basis)
    csv_path = write_sweep_csv(out / _seed_name(config, run_seed, "sweep.csv"), records)
    extra = {
        "row_order": config.design.row_order,
        "row_order_note": "rows sorted by configuration size then integer code"
        if config.design.row_order == "size_lex"
        else "rows shuffled by the run seed",
    }
    return [csv_path], extra


def _run_unstructured_eb(config: RunConfig, run_seed: int, out: Path):
    basis = _shift_seed(config.basis, run_seed)
    design = materialize_design(config.design, run_seed)
    budget = basis.column_budget
    rng = np.random.default_rng(config.theta.seed + run_seed)
    sigma2 = config.theta.variance
    rows, settings = [], []
    # each kernel projector is read off the panel that the sweep factored at m
    for panel, step_rows in sweep_steps(basis, design, _theta_spec(config, run_seed, basis),
                                        _model_sizes(config), lambdas=config.lambdas,
                                        rel_tol=config.rel_tol):
        if panel is None:
            raise GadkitError(f"m = {step_rows[0].m}: {step_rows[0].error}")
        rows.append(step_rows)
        m = panel.m
        projector = panel.factor.kernel_projector()
        dim_kernel = m - panel.rank
        dim_nescient = budget - m
        draws = rng.normal(0.0, np.sqrt(sigma2), (config.mc_draws, budget))
        bias_sq = np.linalg.norm(projector @ draws[:, :m].T, axis=0) ** 2
        nescient_sq = np.linalg.norm(draws[:, m:], axis=1) ** 2
        mc_mean = float((bias_sq + nescient_sq).mean())
        expected = expected_unstructured_error(sigma2, dim_kernel, dim_nescient)
        settings.append(
            {
                "m": m,
                "dim_kernel": dim_kernel,
                "dim_nescient": dim_nescient,
                "mc_mean": mc_mean,
                "expected": expected,
                "relative_error": abs(mc_mean - expected) / expected if expected else 0.0,
            }
        )
    csv_path = write_sweep_csv(out / _seed_name(config, run_seed, "sweep.csv"), lambda_major(rows))
    summary = {
        "experiment": "unstructured_eb",
        "mc_draws": config.mc_draws,
        "variance": sigma2,
        "settings": settings,
    }
    summary_path = write_json(out / _seed_name(config, run_seed, "summary.json"), summary)
    return [csv_path, summary_path], {"settings": settings}


_RUNNERS = {
    "sweep": _run_sweep_like,
    "ridge_sweep": _run_sweep_like,
    "fourier_check": _run_fourier_check,
    "gauss_compare": _run_gauss_compare,
    "ising_sweep": _run_ising_sweep,
    "unstructured_eb": _run_unstructured_eb,
}

def _blas_build() -> str:
    """Name and version of the BLAS numpy was built against, as numpy reports it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def run_config(config: RunConfig, *, out_dir: str | None = None,
               seed_override: int | None = None, threads: int = 1) -> list[Path]:
    """Execute a validated config and return the written artifact paths.

    The config runs at the scale it was parsed at: ``parse_config(path,
    full_scale=True)`` is what raises it, and ``meta.json`` records
    :attr:`RunConfig.full_scale`.
    """
    # runs are serial; ``threads`` stays only because perfbench/child.py passes it
    if threads != 1:
        raise InvalidInputError(f"runs are serial; threads must be 1, got {threads}")
    if seed_override is not None:
        config = replace(config, seeds=(seed_override,))
    # the basis and theta specs reject a negative seed when they are made, and
    # a run seed only adds to theirs; a negative run seed must fail before
    # anything is written, not inside numpy
    for seed in config.seeds:
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise InvalidInputError(f"run seeds must be nonnegative integers, got {seed!r}")
    out = Path(out_dir if out_dir is not None else config.output_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[config.experiment]
    paths: list[Path] = []
    run_details = []
    try:
        for run_seed in config.seeds:
            seed_paths, extra = runner(config, run_seed, out)
            paths.extend(seed_paths)
            run_details.append({"seed": run_seed, **extra})
    except BaseException:
        # a run that fails in set-up leaves no empty directory of its own behind;
        # rmdir removes nothing that holds a file
        if made:
            with contextlib.suppress(OSError):
                out.rmdir()
        raise
    meta = {
        "tool": "gadkit",
        "version": __version__,
        "experiment": config.experiment,
        "config": serialize_config(config),
        "seeds": list(config.seeds),
        "rel_tol": config.rel_tol,
        "full_scale": config.full_scale,
        "grid_convention": GRID_CONVENTION,
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "csv_columns": list(CSV_COLUMNS),
        "runs": run_details,
    }
    paths.append(write_json(out / "meta.json", meta))
    return paths
