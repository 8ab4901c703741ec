"""Run configuration: a flat key-value file format with one section per module.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, ``#`` comments, and whitespace-separated tokens for list values.
Unknown sections or keys are errors (nothing is silently ignored), missing
required keys are reported by name, and every parse diagnostic carries a
line number.  Configurations round-trip losslessly through
:func:`serialize_config`.

Seed priority: an explicit ``seeds`` key wins; otherwise the ``GADKIT_SEED``
environment variable; otherwise seed 0.  Every seed is a nonnegative integer,
and ``seeds`` lists each run seed once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .bases import FAMILIES, ORDERINGS, BasisSpec
from .datasets import SCALE_POLICIES
from .designs import STRATEGIES, THETA_SCHEMES, ParameterSpec
from .errors import ConfigError, InvalidInputError

EXPERIMENTS = (
    "sweep",
    "fourier_check",
    "gauss_compare",
    "ridge_sweep",
    "ising_sweep",
    "unstructured_eb",
)

ROW_ORDERS = ("size_lex", "seeded")
DATASET_FORMATS = ("idx", "cifar_bin")

SEED_ENV_VAR = "GADKIT_SEED"


@dataclass(frozen=True)
class DesignConfig:
    """Design parameters as declared in a config file (not yet materialized)."""

    strategy: str
    n_train: int
    grid_size: int
    interval: tuple[float, float] = (-1.0, 1.0)
    period: float = 1.0
    dim: int | None = None
    dataset_path: str | None = None
    dataset_format: str = "idx"
    scale_policy: str = "unit_interval"
    row_order: str = "size_lex"


@dataclass(frozen=True)
class RunConfig:
    """A fully validated experiment recipe."""

    experiment: str
    basis: BasisSpec
    design: DesignConfig
    theta: ParameterSpec
    m_range: tuple[int, int, int] | None
    m_values: tuple[int, ...] | None
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...]
    output_dir: str
    rel_tol: float
    n_values: tuple[int, ...] | None
    mc_draws: int


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def parse_seed(text: str, where: str) -> int:
    """A nonnegative integer seed, as numpy's generators require."""
    seed = _parse_int(text, where)
    if seed < 0:
        raise ConfigError(f"{where}: expected a nonnegative integer, got {text!r}")
    return seed


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str, where: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    tokens = text.split()
    if not tokens:
        raise ConfigError(f"{where}: expected at least one integer")
    return tuple(_parse_int(tok, where) for tok in tokens)


def _parse_seed_list(text: str, where: str) -> tuple[int, ...]:
    seeds = tuple(parse_seed(tok, where) for tok in text.split())
    if not seeds:
        raise ConfigError(f"{where}: expected at least one integer")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"{where}: seed {seed} is listed more than once")
    return seeds


def _parse_float_list(text: str, where: str) -> tuple[float, ...]:
    tokens = text.split()
    if not tokens:
        raise ConfigError(f"{where}: expected at least one number")
    return tuple(_parse_float(tok, where) for tok in tokens)


def _parse_pair(text: str, where: str) -> tuple[float, float]:
    values = _parse_float_list(text, where)
    if len(values) != 2:
        raise ConfigError(f"{where}: expected exactly two numbers")
    return values  # type: ignore[return-value]


_SCHEMA: dict[str, dict[str, str]] = {
    "run": {
        "experiment": "str",
        "output_dir": "str",
        "rel_tol": "float",
        "seeds": "seed_list",
    },
    "basis": {
        "family": "str",
        "input_dim": "int",
        "column_budget": "int",
        "ordering": "str",
        "seed": "seed",
        "ordering_seed": "seed",
        "interval": "pair",
        "period": "float",
        "base_frequencies": "int",
        "chain_length": "int",
        "max_order": "int",
    },
    "design": {
        "strategy": "str",
        "n_train": "int",
        "grid_size": "int",
        "interval": "pair",
        "period": "float",
        "dim": "int",
        "dataset_path": "str",
        "dataset_format": "str",
        "scale_policy": "str",
        "row_order": "str",
    },
    "theta": {
        "scheme": "str",
        "seed": "seed",
        "variance": "float",
        "scale": "float",
        "exponent": "float",
        "random_signs": "bool",
        "values": "float_list",
    },
    "sweep": {
        "m_range": "int_list",
        "m_values": "int_list",
        "lambda": "float_list",
        "n_values": "int_list",
        "mc_draws": "int",
    },
}

_PARSERS = {
    "str": lambda text, where: text.strip(),
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "int_list": _parse_int_list,
    "seed": parse_seed,
    "seed_list": _parse_seed_list,
    "float_list": _parse_float_list,
    "pair": _parse_pair,
}

_REQUIRED = {
    "run": ("experiment", "output_dir"),
    "basis": ("family", "column_budget"),
    "design": ("strategy", "n_train", "grid_size"),
    "theta": ("scheme",),
    "sweep": (),
}


def _read_sections(text: str, origin: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{origin}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in section [{current}]")
        sections[current][key] = value
    return sections


def _section_values(sections, name: str, origin: str) -> dict[str, object]:
    raw = sections.get(name, {})
    for key in _REQUIRED[name]:
        if key not in raw:
            raise ConfigError(f"{origin}: section [{name}] is missing required key {key!r}")
    out: dict[str, object] = {}
    for key, value in raw.items():
        parser = _PARSERS[_SCHEMA[name][key]]
        out[key] = parser(value, f"{origin}: [{name}] {key}")
    return out


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    """Parse and fully validate a config from its text form."""
    sections = _read_sections(text, origin)
    for name in ("run", "basis", "design", "theta"):
        if name not in sections:
            raise ConfigError(f"{origin}: missing required section [{name}]")
    run = _section_values(sections, "run", origin)
    basis_raw = _section_values(sections, "basis", origin)
    design_raw = _section_values(sections, "design", origin)
    theta_raw = _section_values(sections, "theta", origin)
    sweep_raw = _section_values(sections, "sweep", origin)

    experiment = run["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"{origin}: [run] experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    rel_tol = float(run.get("rel_tol", 1e-12))
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError(f"{origin}: [run] rel_tol must lie in (0, 1)")
    if "seeds" in run:
        seeds = tuple(run["seeds"])
    elif os.environ.get(SEED_ENV_VAR):
        seeds = (parse_seed(os.environ[SEED_ENV_VAR], f"{origin}: {SEED_ENV_VAR}"),)
    else:
        seeds = (0,)

    family = basis_raw.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"{origin}: [basis] family must be one of {FAMILIES}, got {family!r}")
    ordering = basis_raw.get("ordering", "natural")
    if ordering not in ORDERINGS:
        raise ConfigError(f"{origin}: [basis] ordering must be one of {ORDERINGS}, got {ordering!r}")
    params: dict[str, object] = {}
    for key in ("interval", "period", "base_frequencies", "chain_length", "max_order", "ordering_seed"):
        if key in basis_raw:
            params[key] = basis_raw[key]
    try:
        basis = BasisSpec(
            family=family,
            input_dim=int(basis_raw.get("input_dim", 1)),
            column_budget=int(basis_raw["column_budget"]),
            ordering=ordering,
            params=params,
            seed=int(basis_raw.get("seed", 0)),
        )
    except InvalidInputError as exc:
        raise ConfigError(f"{origin}: [basis] {exc}") from None

    strategy = design_raw.get("strategy")
    if strategy not in STRATEGIES:
        raise ConfigError(f"{origin}: [design] strategy must be one of {STRATEGIES}, got {strategy!r}")
    scale_policy = design_raw.get("scale_policy", "unit_interval")
    if scale_policy not in SCALE_POLICIES:
        raise ConfigError(f"{origin}: [design] scale_policy must be one of {SCALE_POLICIES}")
    row_order = design_raw.get("row_order", "size_lex")
    if row_order not in ROW_ORDERS:
        raise ConfigError(f"{origin}: [design] row_order must be one of {ROW_ORDERS}")
    dataset_format = design_raw.get("dataset_format", "idx")
    if dataset_format not in DATASET_FORMATS:
        raise ConfigError(f"{origin}: [design] dataset_format must be one of {DATASET_FORMATS}")
    n_train = int(design_raw["n_train"])
    grid_size = int(design_raw["grid_size"])
    if n_train < 1:
        raise ConfigError(f"{origin}: [design] n_train must be at least 1")
    if grid_size < 1:
        raise ConfigError(f"{origin}: [design] grid_size must be at least 1")
    design = DesignConfig(
        strategy=strategy,
        n_train=n_train,
        grid_size=grid_size,
        interval=design_raw.get("interval", (-1.0, 1.0)),
        period=float(design_raw.get("period", 1.0)),
        dim=(int(design_raw["dim"]) if "dim" in design_raw else None),
        dataset_path=design_raw.get("dataset_path"),
        dataset_format=dataset_format,
        scale_policy=scale_policy,
        row_order=row_order,
    )

    scheme = theta_raw.get("scheme")
    if scheme not in THETA_SCHEMES:
        raise ConfigError(f"{origin}: [theta] scheme must be one of {THETA_SCHEMES}, got {scheme!r}")
    values = theta_raw.get("values")
    try:
        theta = ParameterSpec(
            scheme=scheme,
            length=basis.column_budget,
            seed=int(theta_raw.get("seed", 0)),
            variance=float(theta_raw.get("variance", 1.0)),
            scale=float(theta_raw.get("scale", 1.0)),
            exponent=float(theta_raw.get("exponent", 2.0)),
            random_signs=bool(theta_raw.get("random_signs", True)),
            values=(tuple(values) if values is not None else None),
        )
    except InvalidInputError as exc:
        raise ConfigError(f"{origin}: [theta] {exc}") from None

    m_range = None
    if "m_range" in sweep_raw:
        tokens = sweep_raw["m_range"]
        if len(tokens) not in (2, 3):
            raise ConfigError(f"{origin}: [sweep] m_range expects 'lo hi' or 'lo hi step'")
        lo, hi = tokens[0], tokens[1]
        step = tokens[2] if len(tokens) == 3 else 1
        if lo < 1 or hi < lo or step < 1:
            raise ConfigError(f"{origin}: [sweep] m_range values out of order")
        m_range = (lo, hi, step)
    elif experiment == "fourier_check" and "m_values" not in sweep_raw:
        n_base = int(basis.param("base_frequencies", 1))
        m_range = (n_base, n_base, 1)
    m_values = tuple(sweep_raw["m_values"]) if "m_values" in sweep_raw else None
    lambdas = tuple(sweep_raw.get("lambda", (0.0,)))
    if any(lam < 0 for lam in lambdas):
        raise ConfigError(f"{origin}: [sweep] lambda values must be nonnegative")
    n_values = tuple(sweep_raw["n_values"]) if "n_values" in sweep_raw else None
    mc_draws = int(sweep_raw.get("mc_draws", 2000))
    if mc_draws < 1:
        raise ConfigError(f"{origin}: [sweep] mc_draws must be at least 1")

    config = RunConfig(
        experiment=experiment,
        basis=basis,
        design=design,
        theta=theta,
        m_range=m_range,
        m_values=m_values,
        lambdas=lambdas,
        seeds=seeds,
        output_dir=run["output_dir"],
        rel_tol=rel_tol,
        n_values=n_values,
        mc_draws=mc_draws,
    )
    _validate_experiment(config, origin)
    return config


def _validate_experiment(config: RunConfig, origin: str) -> None:
    exp = config.experiment
    budget = config.basis.column_budget
    if config.m_range is not None and config.m_range[1] > budget:
        raise ConfigError(f"{origin}: [sweep] m_range must lie in [1, column_budget = {budget}]")
    if config.m_values is not None and not all(1 <= m <= budget for m in config.m_values):
        raise ConfigError(f"{origin}: [sweep] m_values must lie in [1, column_budget = {budget}]")
    if config.n_values is not None and min(config.n_values) < 1:
        raise ConfigError(f"{origin}: [sweep] n_values entries must be at least 1")
    if exp in ("sweep", "ridge_sweep", "ising_sweep") and config.m_range is None:
        raise ConfigError(f"{origin}: experiment {exp!r} requires [sweep] m_range")
    if exp == "fourier_check":
        if config.basis.family != "fourier_discrete":
            raise ConfigError(f"{origin}: fourier_check requires [basis] family = fourier_discrete")
        if config.design.strategy != "equispaced":
            raise ConfigError(f"{origin}: fourier_check requires [design] strategy = equispaced")
        if config.basis.ordering != "natural":
            raise ConfigError(f"{origin}: fourier_check requires [basis] ordering = natural")
        n_base = int(config.basis.param("base_frequencies", 0))
        if config.design.n_train != n_base:
            raise ConfigError(
                f"{origin}: fourier_check requires [design] n_train = base_frequencies ({n_base})"
            )
        sizes = config.m_values or (config.m_range[: 2] if config.m_range else (n_base, n_base))
        if sizes[0] != n_base or sizes[-1] != n_base:
            raise ConfigError(
                f"{origin}: fourier_check requires the model size to equal base_frequencies ({n_base})"
            )
    if exp == "gauss_compare":
        if config.n_values is None:
            raise ConfigError(f"{origin}: gauss_compare requires [sweep] n_values")
        if config.m_range is None or config.m_range[0] != config.m_range[1]:
            raise ConfigError(f"{origin}: gauss_compare requires a fixed model size (m_range 'm m')")
        if config.basis.family != "legendre":
            raise ConfigError(f"{origin}: gauss_compare requires [basis] family = legendre")
    if exp == "ising_sweep":
        if config.basis.family != "cluster_ising":
            raise ConfigError(f"{origin}: ising_sweep requires [basis] family = cluster_ising")
        if config.design.strategy != "from_dataset":
            raise ConfigError(f"{origin}: ising_sweep requires [design] strategy = from_dataset")
    if exp == "unstructured_eb":
        if config.m_values is None:
            raise ConfigError(f"{origin}: unstructured_eb requires [sweep] m_values")
        if config.theta.scheme != "unstructured_iid":
            raise ConfigError(f"{origin}: unstructured_eb requires [theta] scheme = unstructured_iid")
    if (config.design.strategy == "from_dataset" and exp != "ising_sweep"
            and config.design.dataset_path is None):
        raise ConfigError(
            f"{origin}: [design] strategy = from_dataset requires dataset_path "
            "(ising_sweep generates its own configurations)"
        )


def parse_config(path) -> RunConfig:
    """Parse and validate a config file from disk."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config_text(text, origin=str(p))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return " ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Render a config back to its file format; parsing the result is lossless."""
    lines = ["[run]"]
    lines.append(f"experiment = {config.experiment}")
    lines.append(f"output_dir = {config.output_dir}")
    lines.append(f"rel_tol = {_format_value(config.rel_tol)}")
    lines.append(f"seeds = {_format_value(config.seeds)}")

    basis = config.basis
    lines.append("")
    lines.append("[basis]")
    lines.append(f"family = {basis.family}")
    lines.append(f"input_dim = {basis.input_dim}")
    lines.append(f"column_budget = {basis.column_budget}")
    lines.append(f"ordering = {basis.ordering}")
    lines.append(f"seed = {basis.seed}")
    for key in ("ordering_seed", "interval", "period", "base_frequencies", "chain_length", "max_order"):
        if key in basis.params:
            lines.append(f"{key} = {_format_value(basis.params[key])}")

    design = config.design
    lines.append("")
    lines.append("[design]")
    lines.append(f"strategy = {design.strategy}")
    lines.append(f"n_train = {design.n_train}")
    lines.append(f"grid_size = {design.grid_size}")
    lines.append(f"interval = {_format_value(design.interval)}")
    lines.append(f"period = {_format_value(design.period)}")
    if design.dim is not None:
        lines.append(f"dim = {design.dim}")
    if design.dataset_path is not None:
        lines.append(f"dataset_path = {design.dataset_path}")
    lines.append(f"dataset_format = {design.dataset_format}")
    lines.append(f"scale_policy = {design.scale_policy}")
    lines.append(f"row_order = {design.row_order}")

    theta = config.theta
    lines.append("")
    lines.append("[theta]")
    lines.append(f"scheme = {theta.scheme}")
    lines.append(f"seed = {theta.seed}")
    lines.append(f"variance = {_format_value(theta.variance)}")
    lines.append(f"scale = {_format_value(theta.scale)}")
    lines.append(f"exponent = {_format_value(theta.exponent)}")
    lines.append(f"random_signs = {_format_value(theta.random_signs)}")
    if theta.values is not None:
        lines.append(f"values = {_format_value(theta.values)}")

    lines.append("")
    lines.append("[sweep]")
    if config.m_range is not None:
        lines.append(f"m_range = {_format_value(config.m_range)}")
    if config.m_values is not None:
        lines.append(f"m_values = {_format_value(config.m_values)}")
    lines.append(f"lambda = {_format_value(config.lambdas)}")
    if config.n_values is not None:
        lines.append(f"n_values = {_format_value(config.n_values)}")
    lines.append(f"mc_draws = {config.mc_draws}")
    return "\n".join(lines) + "\n"
