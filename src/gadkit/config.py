"""Run configuration: a flat key-value file format with one section per module.

The format is deliberately small: ``[section]`` headers, ``key = value``
lines, ``#`` comments, and whitespace-separated tokens for list values.
One table, ``_SCHEMA``, states each key once: its parser, the values it may
take and whether a file must set it.  A key the file leaves out takes the
default of the dataclass field it fills, and :func:`serialize_config` walks
the same table, so configurations round-trip losslessly.  A second table,
``_EXPERIMENTS``, states each experiment's contract once: the ``[sweep]`` key
that must list the sizes it steps over, the settings it fixes, and whether
``--full-scale`` raises it.

Unknown sections or keys are errors (nothing is silently ignored), and
missing required keys are reported by name.  Every diagnostic about a key
carries the line that sets it, as ``origin:LINE: [section] key: ...``.  Past
single values, a config is checked whole before anything runs: model sizes
against the column budget, what each experiment requires, the dimension of
the design's points against the one the basis family reads, a uniform
design's interval against the distinct points it must hold, and an Ising
design against its ``2**chain_length`` spin configurations.

Seed priority: an explicit ``seeds`` key wins; otherwise the ``GADKIT_SEED``
environment variable; otherwise seed 0.  Every seed is a nonnegative integer,
and ``seeds`` lists each run seed once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from .bases import FAMILIES, ORDERINGS, BasisSpec
from .datasets import SCALE_POLICIES
from .designs import STRATEGIES, THETA_SCHEMES, ParameterSpec, check_interval
from .errors import ConfigError, InvalidInputError
from .linalg import DEFAULT_REL_TOL


class _Experiment(NamedTuple):
    """What an experiment requires of a config, and whether ``--full-scale`` raises it."""

    sizes: str | None = None  # the [sweep] key that must list the sizes it steps over
    fixed: tuple[tuple[str, str, str], ...] = ()  # the (section, key, value) settings it fixes
    raised: bool = False  # whether --full-scale raises it


_EXPERIMENTS = {
    "sweep": _Experiment("m_range", raised=True),
    # fourier_check's one model size defaults to base_frequencies
    "fourier_check": _Experiment(fixed=(("basis", "family", "fourier_discrete"),
                                        ("design", "strategy", "equispaced"),
                                        ("basis", "ordering", "natural"))),
    "gauss_compare": _Experiment("n_values", (("basis", "family", "legendre"),)),
    "ridge_sweep": _Experiment("m_range", raised=True),
    "ising_sweep": _Experiment("m_range", (("basis", "family", "cluster_ising"),
                                           ("design", "strategy", "from_dataset"))),
    "unstructured_eb": _Experiment("m_values", (("theta", "scheme", "unstructured_iid"),)),
}
EXPERIMENTS = tuple(_EXPERIMENTS)

ROW_ORDERS = ("size_lex", "seeded")
DATASET_FORMATS = ("idx", "cifar_bin")

SEED_ENV_VAR = "GADKIT_SEED"

# the reference scale that ``--full-scale`` raises sweep-family dimensions to
FULL_SCALE = {"n_train": 1000, "column_budget": 6000, "grid_size": 2000}


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


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """A fully validated experiment recipe."""

    experiment: str
    basis: BasisSpec
    design: DesignConfig
    theta: ParameterSpec
    m_range: tuple[int, int, int] | None = None
    m_values: tuple[int, ...] | None = None
    lambdas: tuple[float, ...] = (0.0,)
    seeds: tuple[int, ...] = (0,)
    output_dir: str
    rel_tol: float = DEFAULT_REL_TOL
    n_values: tuple[int, ...] | None = None
    mc_draws: int = 2000

    @property
    def full_scale(self) -> bool:
        """Whether ``--full-scale`` raises this recipe and it already stands at that scale.

        Read off the numbers :func:`apply_full_scale` raises, without building
        the raised specs, so that no recipe can fail here.
        """
        budget = self.basis.column_budget
        return (_EXPERIMENTS[self.experiment].raised
                and budget >= FULL_SCALE["column_budget"]
                and self.design.n_train >= FULL_SCALE["n_train"]
                and self.design.grid_size >= FULL_SCALE["grid_size"]
                and self.theta.length == budget
                and (self.m_range is None or self.m_range[1] >= budget))


def _parse_str(text: str, where: str) -> str:
    return text


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


def _parse_count(text: str, where: str) -> int:
    count = _parse_int(text, where)
    if count < 1:
        raise ConfigError(f"{where}: expected a positive integer, got {text!r}")
    return count


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {text!r}")
    return value


def _parse_rel_tol(text: str, where: str) -> float:
    value = _parse_float(text, where)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{where}: expected a number in (0, 1), got {text!r}")
    return value


def _parse_lambda(text: str, where: str) -> float:
    value = _parse_float(text, where)
    if value < 0:
        raise ConfigError(f"{where}: expected a nonnegative number, got {text!r}")
    return value


def _parse_bool(text: str, where: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _list_of(parse: Callable[[str, str], object]) -> Callable[[str, str], tuple]:
    """A parser of one or more whitespace-separated values, each read by ``parse``."""
    def parse_list(text: str, where: str) -> tuple:
        tokens = text.split()
        if not tokens:
            raise ConfigError(f"{where}: expected at least one value")
        return tuple(parse(token, where) for token in tokens)
    return parse_list


def _parse_seed_list(text: str, where: str) -> tuple[int, ...]:
    seeds = _list_of(parse_seed)(text, where)
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"{where}: seed {seed} is listed more than once")
    return seeds


def _parse_pair(text: str, where: str) -> tuple[float, float]:
    values = _list_of(_parse_float)(text, where)
    if len(values) != 2:
        raise ConfigError(f"{where}: expected exactly two numbers")
    return values  # type: ignore[return-value]


def _parse_m_range(text: str, where: str) -> tuple[int, int, int]:
    values = _list_of(_parse_int)(text, where)
    if len(values) not in (2, 3):
        raise ConfigError(f"{where}: expected 'lo hi' or 'lo hi step'")
    lo, hi, step = (*values, 1)[:3]
    if lo < 1 or hi < lo or step < 1:
        raise ConfigError(f"{where}: values out of order")
    return lo, hi, step


class _Key(NamedTuple):
    """One config key: how its text is read, the values it may take, whether a file must set it."""

    parse: Callable[[str, str], object]
    allowed: tuple[str, ...] = ()
    required: bool = False


# every key of every section, in the order serialize_config writes them; a key
# a file leaves out takes the default of the dataclass field it fills
_SCHEMA: dict[str, dict[str, _Key]] = {
    "run": {
        "experiment": _Key(_parse_str, EXPERIMENTS, required=True),
        "output_dir": _Key(_parse_str, required=True),
        "rel_tol": _Key(_parse_rel_tol),
        "seeds": _Key(_parse_seed_list),
    },
    "basis": {
        "family": _Key(_parse_str, FAMILIES, required=True),
        "input_dim": _Key(_parse_count),
        "column_budget": _Key(_parse_count, required=True),
        "ordering": _Key(_parse_str, ORDERINGS),
        "seed": _Key(parse_seed),
        "ordering_seed": _Key(parse_seed),
        "interval": _Key(_parse_pair),
        "period": _Key(_parse_float),
        "base_frequencies": _Key(_parse_count),
        "chain_length": _Key(_parse_count),
        "max_order": _Key(_parse_int),
    },
    "design": {
        "strategy": _Key(_parse_str, STRATEGIES, required=True),
        "n_train": _Key(_parse_count, required=True),
        "grid_size": _Key(_parse_count, required=True),
        "interval": _Key(_parse_pair),
        "period": _Key(_parse_float),
        "dim": _Key(_parse_int),
        "dataset_path": _Key(_parse_str),
        "dataset_format": _Key(_parse_str, DATASET_FORMATS),
        "scale_policy": _Key(_parse_str, SCALE_POLICIES),
        "row_order": _Key(_parse_str, ROW_ORDERS),
    },
    "theta": {
        "scheme": _Key(_parse_str, THETA_SCHEMES, required=True),
        "seed": _Key(parse_seed),
        "variance": _Key(_parse_float),
        "scale": _Key(_parse_float),
        "exponent": _Key(_parse_float),
        "random_signs": _Key(_parse_bool),
        "values": _Key(_list_of(_parse_float)),
    },
    "sweep": {
        "m_range": _Key(_parse_m_range),
        "m_values": _Key(_list_of(_parse_int)),
        "lambda": _Key(_list_of(_parse_lambda)),
        "n_values": _Key(_list_of(_parse_count)),
        "mc_draws": _Key(_parse_count),
    },
}

# the [basis] keys that are BasisSpec fields; the others go into its params
_BASIS_FIELDS = {f.name for f in fields(BasisSpec)}


class _Section(NamedTuple):
    """A section as read: the line of its header, and each key's line and value text."""

    line: int
    keys: dict[str, tuple[int, str]]


_Sections = dict[str, _Section]


def _where(sections: _Sections, origin: str, name: str, key: str) -> str:
    """``origin:LINE: [name] key`` at the line that sets the key, else at its section's header."""
    section = sections.get(name)
    if section is None:
        return f"{origin}: [{name}] {key}"
    return f"{origin}:{section.keys.get(key, (section.line,))[0]}: [{name}] {key}"


def _read_sections(text: str, origin: str) -> _Sections:
    sections: _Sections = {}
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
            sections[name] = _Section(lineno, {})
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current].keys:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in section [{current}]")
        sections[current].keys[key] = (lineno, value)
    return sections


def _section_values(sections: _Sections, name: str, origin: str) -> dict[str, object]:
    """The parsed values of the keys that section ``name`` sets, each checked against its list."""
    section = sections.get(name, _Section(0, {}))
    values: dict[str, object] = {}
    for key, spec in _SCHEMA[name].items():
        if key not in section.keys:
            if spec.required:
                raise ConfigError(
                    f"{origin}:{section.line}: section [{name}] is missing required key {key!r}")
            continue
        where = _where(sections, origin, name, key)
        value = values[key] = spec.parse(section.keys[key][1], where)
        if spec.allowed and value not in spec.allowed:
            raise ConfigError(f"{where}: expected one of {', '.join(spec.allowed)}, got {value!r}")
    return values


def parse_config_text(text: str, origin: str = "<config>", full_scale: bool = False) -> RunConfig:
    """Parse and fully validate a config from its text form.

    With ``full_scale`` the config is raised to the reference scale (see
    :func:`apply_full_scale`) before it is validated, so that model sizes
    are checked against the column budget the run will have.  This is the
    one place full scale is applied; :attr:`RunConfig.full_scale` reads it
    back off the result.
    """
    sections = _read_sections(text, origin)
    for name in ("run", "basis", "design", "theta"):
        if name not in sections:
            raise ConfigError(f"{origin}: missing required section [{name}]")
    run, basis, design, theta, sweep = (_section_values(sections, name, origin)
                                        for name in ("run", "basis", "design", "theta", "sweep"))
    if "seeds" not in run and os.environ.get(SEED_ENV_VAR):
        run["seeds"] = (parse_seed(os.environ[SEED_ENV_VAR], f"{origin}: {SEED_ENV_VAR}"),)
    params = {key: basis.pop(key) for key in list(basis) if key not in _BASIS_FIELDS}
    try:
        # the one field without a dataclass default: a config's basis is 1-D unless it says so
        basis_spec = BasisSpec(**{"input_dim": 1, **basis}, params=params)
    except InvalidInputError as exc:
        raise ConfigError(f"{origin}:{sections['basis'].line}: [basis] {exc}") from None
    try:
        theta_spec = ParameterSpec(length=basis_spec.column_budget, **theta)
    except InvalidInputError as exc:
        raise ConfigError(f"{origin}:{sections['theta'].line}: [theta] {exc}") from None
    if "lambda" in sweep:
        sweep["lambdas"] = sweep.pop("lambda")
    if run["experiment"] == "fourier_check" and not sweep.keys() & {"m_range", "m_values"}:
        n_base = int(basis_spec.param("base_frequencies", 1))
        sweep["m_range"] = (n_base, n_base, 1)
    config = RunConfig(**run, **sweep, basis=basis_spec, design=DesignConfig(**design),
                       theta=theta_spec)
    if full_scale:
        config = apply_full_scale(config)
    _validate_experiment(config, origin, sections)
    return config


def apply_full_scale(config: RunConfig) -> RunConfig:
    """Raise sweep-family dimensions to the reference scale; applying it twice changes nothing.

    The column budget, the training and grid sizes and the coefficient
    length rise to at least ``FULL_SCALE``, and ``m_range`` stretches to the
    new budget.  ``m_values`` is kept, so that it can pick a window of the
    full-scale sweep.
    """
    if not _EXPERIMENTS[config.experiment].raised:
        return config
    basis = replace(config.basis, column_budget=max(config.basis.column_budget,
                                                    FULL_SCALE["column_budget"]))
    design = replace(config.design,
                     n_train=max(config.design.n_train, FULL_SCALE["n_train"]),
                     grid_size=max(config.design.grid_size, FULL_SCALE["grid_size"]))
    theta = replace(config.theta, length=basis.column_budget)
    m_range = config.m_range
    if m_range is not None:
        m_range = (m_range[0], max(m_range[1], basis.column_budget), m_range[2])
    return replace(config, basis=basis, design=design, theta=theta, m_range=m_range)


def _validate_experiment(config: RunConfig, origin: str, sections: _Sections) -> None:
    """Checks across keys, each reported at the line of the key at fault (see :func:`_where`)."""
    at = partial(_where, sections, origin)
    exp, basis, design = config.experiment, config.basis, config.design
    budget = basis.column_budget
    if config.m_range is not None and config.m_range[1] > budget:
        raise ConfigError(f"{at('sweep', 'm_range')} must lie in [1, column_budget = {budget}]")
    if config.m_values is not None and not all(1 <= m <= budget for m in config.m_values):
        raise ConfigError(f"{at('sweep', 'm_values')} must lie in [1, column_budget = {budget}]")
    sizes, fixed, _ = _EXPERIMENTS[exp]
    if sizes and getattr(config, sizes) is None:
        raise ConfigError(f"{at('run', 'experiment')}: {exp} requires [sweep] {sizes}")
    for name, key, value in fixed:
        if getattr(getattr(config, name), key) != value:
            raise ConfigError(f"{at(name, key)}: {exp} requires {key} = {value}")
    if exp == "fourier_check":
        n_base = int(basis.param("base_frequencies"))
        if design.n_train != n_base:
            raise ConfigError(f"{at('design', 'n_train')}: fourier_check requires "
                              f"n_train = base_frequencies ({n_base})")
        ends = config.m_values or config.m_range[:2]
        if ends[0] != n_base or ends[-1] != n_base:
            raise ConfigError(f"{at('sweep', 'm_values' if config.m_values else 'm_range')}: "
                              "fourier_check requires the model size to equal "
                              f"base_frequencies ({n_base})")
    if exp == "gauss_compare" and (config.m_range is None
                                   or config.m_range[0] != config.m_range[1]):
        raise ConfigError(f"{at('sweep', 'm_range')}: "
                          "gauss_compare requires a fixed model size ('m m')")
    if exp == "ising_sweep":
        count = 2 ** int(basis.param("chain_length"))
        if design.n_train + design.grid_size > count:
            raise ConfigError(f"{at('design', 'n_train')}: n_train + grid_size = "
                              f"{design.n_train + design.grid_size} exceeds the {count} spin "
                              f"configurations of chain_length {basis.param('chain_length')}")
    if design.strategy == "from_dataset" and exp != "ising_sweep" and design.dataset_path is None:
        raise ConfigError(f"{at('design', 'strategy')}: from_dataset requires dataset_path "
                          "(ising_sweep generates its own configurations)")
    if design.strategy == "sphere_uniform" and design.dim is None:
        raise ConfigError(f"{at('design', 'strategy')}: sphere_uniform requires dim")
    if design.strategy == "uniform_interval":
        try:
            check_interval(*design.interval, design.n_train + design.grid_size)
        except InvalidInputError as exc:
            raise ConfigError(f"{at('design', 'interval')}: {exc}") from None
    # the dimension of the design's points against the one the family reads; a
    # dataset's points are known only once the run loads them, and ising_sweep's
    # spin configurations have chain_length = input_dim entries, as BasisSpec checks
    if design.strategy != "from_dataset":
        key, points = ("strategy", 1)
        if design.strategy == "sphere_uniform":
            key, points = "dim", design.dim
        reads, needs = ("family", 1)
        if basis.family in ("rff", "rrf", "cluster_ising"):
            reads, needs = "input_dim", basis.input_dim
        if points != needs:
            line = sections["basis"].keys.get(reads, ("",))[0]
            set_at = f"line {line}" if line else "by default"
            raise ConfigError(f"{at('design', key)}: points of dimension {points} do not fit "
                              f"[basis] {reads} = {getattr(basis, reads)} ({set_at}), which reads "
                              f"points of dimension {needs}")


def parse_config(path, full_scale: bool = False) -> RunConfig:
    """Parse and validate a config file from disk, at the reference scale with ``full_scale``."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from None
    return parse_config_text(text, origin=str(p), full_scale=full_scale)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return " ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Render each key of a config that holds a value in the file format; parsing it is lossless."""
    owners = {
        "run": vars(config),
        "basis": {**vars(config.basis), **config.basis.params},
        "design": vars(config.design),
        "theta": vars(config.theta),
        "sweep": {**vars(config), "lambda": config.lambdas},
    }
    blocks = []
    for name, keys in _SCHEMA.items():
        values = [(key, owners[name].get(key)) for key in keys]
        blocks.append("\n".join([f"[{name}]"] + [f"{key} = {_format_value(value)}"
                                                  for key, value in values if value is not None]))
    return "\n\n".join(blocks) + "\n"
