"""Training point sets, prediction grids, and ground-truth coefficient vectors.

A design couples a finite training set with a finite held-out grid that
stands in for the rest of the domain; risk curves are means over that grid.
No two points of a design coincide (exact coordinate comparison): one
rule, :func:`_fresh`, decides which rows are distinct, for random draws,
equispaced grids and dataset pools alike.  Every constructor is
deterministic per seed.  One retry rule serves every random draw: the
training rows are drawn at the seed, then at seed + 1, seed + 2, ... until
they are distinct, and the seed that drew them is recorded on the result as
its effective seed.  A dataset pool is not redrawn: its seeded shuffle is
read once, skipping repeats, and a spin-chain design (:func:`ising_design`)
is such a draw over the enumerated configurations, or their ordered slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .bases import legendre_gauss_nodes
from .errors import InvalidInputError

STRATEGIES = (
    "uniform_interval",
    "equispaced",
    "legendre_gauss",
    "sphere_uniform",
    "from_dataset",
)

THETA_SCHEMES = ("unstructured_iid", "power_decay", "explicit")

_MAX_RETRIES = 64  # draws before giving up on distinct rows


@dataclass(frozen=True, eq=False)
class SampleDesign:
    """Training points and a disjoint prediction grid, both (count, dim)."""

    train_points: np.ndarray
    prediction_points: np.ndarray
    strategy: str
    seed: int
    effective_seed: int

    @property
    def n_train(self) -> int:
        return self.train_points.shape[0]

    @property
    def all_points(self) -> np.ndarray:
        """Training rows first, then prediction rows."""
        return np.vstack([self.train_points, self.prediction_points])


@dataclass(frozen=True)
class ParameterSpec:
    """Generation scheme for the ground-truth coefficient vector.

    ``unstructured_iid`` draws i.i.d. mean-zero normals with the given
    variance; ``power_decay`` sets magnitude scale*(j+1)**(-exponent) with
    seeded random signs unless ``random_signs`` is off; ``explicit`` uses the
    supplied values directly.
    """

    scheme: str
    length: int
    seed: int = 0
    variance: float = 1.0
    scale: float = 1.0
    exponent: float = 2.0
    random_signs: bool = True
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.scheme not in THETA_SCHEMES:
            raise InvalidInputError(f"unknown coefficient scheme {self.scheme!r}")
        if self.length < 1:
            raise InvalidInputError("length must be at least 1")
        if self.seed < 0:
            raise InvalidInputError("the coefficient seed must be a nonnegative integer")
        if self.scheme == "unstructured_iid" and self.variance < 0:
            raise InvalidInputError("variance must be nonnegative")
        if self.scheme == "explicit":
            if self.values is None or len(self.values) != self.length:
                raise InvalidInputError("explicit scheme requires values matching length")


def _row_key(row: np.ndarray) -> bytes:
    return row.tobytes()


def _fresh(rows: Iterable[np.ndarray], taken: set[bytes]) -> Iterator[np.ndarray]:
    """The rows whose coordinates are not yet taken, in order; each one yielded is taken."""
    for row in rows:
        key = _row_key(row)
        if key not in taken:
            taken.add(key)
            yield row


def _distinct_draw(draw: Callable[[np.random.Generator], np.ndarray], seed: int,
                   failure: str) -> tuple[np.ndarray, np.random.Generator, int]:
    """The first draw of distinct rows at seed, seed + 1, ...; its generator and seed with it."""
    for effective in range(seed, seed + _MAX_RETRIES):
        rng = np.random.default_rng(effective)
        rows = draw(rng)
        if len(list(_fresh(rows, set()))) == rows.shape[0]:
            return rows, rng, effective
    raise InvalidInputError(failure)


def _float_position(x: float) -> int:
    """The place of x among the floats in order: neighbours differ by 1, and both zeros are 0."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _floats_in(a: float, b: float, half_open: bool = False) -> int:
    """How many floats lie in [a, b], or in [a, b) when half open, for a <= b."""
    return _float_position(b) - _float_position(a) + (not half_open)


def check_interval(a: float, b: float, points: int) -> None:
    """Raise InvalidInputError unless a < b and [a, b] holds ``points`` distinct floats."""
    if not a < b:
        raise InvalidInputError(f"invalid interval [{a}, {b}]")
    floats = _floats_in(a, b)
    if floats < points:
        raise InvalidInputError(f"[{a}, {b}] holds {floats} floats, fewer than the {points} "
                                "distinct training and grid points")


def _interval_grid(a: float, b: float, grid_size: int, exclude: np.ndarray,
                   half_open: bool = False) -> np.ndarray:
    """Equispaced fill of [a, b] (or [a, b)) with distinct points, skipping excluded coordinates.

    The candidates double until ``grid_size`` of them are new.  Once they
    number more than twice the floats in the interval, where equispaced
    candidates reach every float, a grid still short raises InvalidInputError.
    """
    taken = {_row_key(row) for row in exclude}
    floats = _floats_in(a, b, half_open)
    count = grid_size + exclude.shape[0]
    while True:
        if half_open:
            candidates = a + (np.arange(count) + 0.5) * (b - a) / count
        else:
            candidates = np.linspace(a, b, count)
        keep = list(islice(_fresh(candidates[:, None], set(taken)), grid_size))
        if len(keep) == grid_size:
            return np.vstack(keep)
        if count > 2 * floats:
            raise InvalidInputError(f"could not fill a {grid_size}-point prediction grid on "
                                    f"[{a}, {b}{')' if half_open else ']'}")
        count = 2 * count + 1


def make_design(strategy: str, n: int, grid_size: int, *, seed: int = 0,
                interval: tuple[float, float] = (-1.0, 1.0), period: float = 1.0,
                dim: int | None = None, points: np.ndarray | None = None) -> SampleDesign:
    """Construct a training set of size n plus a disjoint prediction grid.

    ``interval`` bounds the 1-D strategies, ``period`` sets the half-open
    domain for equispaced sampling, ``dim`` is the ambient dimension for the
    sphere, and ``points`` supplies the candidate pool for ``from_dataset``.

    ``from_dataset`` shuffles the pool at ``seed`` and reads it once through
    the distinct-rows rule, skipping every repeat of a row already read: the
    first n distinct rows train and the next ``grid_size`` form the grid, so
    the grid repeats neither a training row nor itself at any seed.  A pool
    with fewer distinct rows fails, the same way at every seed.
    """
    if strategy not in STRATEGIES:
        raise InvalidInputError(f"unknown design strategy {strategy!r}")
    if n < 1:
        raise InvalidInputError("training count must be at least 1")
    if grid_size < 1:
        raise InvalidInputError("prediction grid must be nonempty")

    if strategy == "equispaced":
        if period <= 0:
            raise InvalidInputError("period must be positive")
        train = (np.arange(n) * period / n)[:, None]
        grid = _interval_grid(0.0, period, grid_size, train, half_open=True)
        return SampleDesign(train, grid, strategy, seed, seed)

    if strategy == "legendre_gauss":
        train = legendre_gauss_nodes(n)[:, None]
        grid = _interval_grid(-1.0, 1.0, grid_size, train)
        return SampleDesign(train, grid, strategy, seed, seed)

    if strategy == "uniform_interval":
        a, b = float(interval[0]), float(interval[1])
        check_interval(a, b, n + grid_size)
        train, _, effective = _distinct_draw(lambda rng: rng.uniform(a, b, n)[:, None], seed,
                                             f"could not draw {n} distinct points on [{a}, {b}]")
        grid = _interval_grid(a, b, grid_size, train)
        return SampleDesign(train, grid, strategy, seed, effective)

    if strategy == "sphere_uniform":
        if dim is None or dim < 1:
            raise InvalidInputError("sphere_uniform requires a positive dim")

        def sphere(rng: np.random.Generator, count: int) -> np.ndarray:
            raw = rng.standard_normal((count, dim))
            return raw / np.linalg.norm(raw, axis=1, keepdims=True) * np.sqrt(dim)

        train, rng, effective = _distinct_draw(
            lambda rng: sphere(rng, n), seed,
            f"could not draw {n} distinct points on the dim-{dim} sphere")
        # the grid is drawn on from the generator that drew the training rows
        taken = {_row_key(row) for row in train}
        grid_rows: list[np.ndarray] = []
        for _ in range(_MAX_RETRIES):
            grid_rows += _fresh(sphere(rng, grid_size), taken)
            if len(grid_rows) >= grid_size:
                return SampleDesign(train, np.vstack(grid_rows[:grid_size]), strategy, seed,
                                    effective)
        raise InvalidInputError(
            f"could not fill a {grid_size}-point prediction grid on the dim-{dim} sphere")

    # from_dataset: the distinct rows of a seeded shuffle of the pool, training
    # rows first (retrying the seed cannot remove dataset duplicates)
    if points is None:
        raise InvalidInputError("from_dataset requires a points array")
    pool = np.asarray(points, dtype=float)
    if pool.ndim != 2:
        raise InvalidInputError(f"expected a 2-D point pool, got shape {pool.shape}")
    order = np.random.default_rng(seed).permutation(pool.shape[0])
    rows = list(islice(_fresh((pool[i] for i in order), set()), n + grid_size))
    if len(rows) < n:
        raise InvalidInputError(f"dataset has only {len(rows)} distinct points, {n} requested")
    if len(rows) < n + grid_size:
        raise InvalidInputError(
            f"dataset leaves only {len(rows) - n} prediction points, {grid_size} requested"
        )
    return SampleDesign(np.vstack(rows[:n]), np.vstack(rows[n:]), strategy, seed, seed)


def _spin_configurations(chain_length: int) -> np.ndarray:
    """Every configuration of the chain's spins, +1 or -1, row c spelling the bits of c."""
    bits = (np.arange(1 << chain_length)[:, None] >> np.arange(chain_length)) & 1
    return np.where(bits, 1.0, -1.0)


def ising_design(chain_length: int, n_train: int, grid_size: int,
                 row_order: str, run_seed: int) -> SampleDesign:
    """Training rows from the enumerated spin configurations of a periodic chain.

    ``size_lex`` orders configurations by up-spin count then integer code, so
    training rows are the smallest configurations; ``seeded`` is the
    ``from_dataset`` draw over the configurations at the run seed.
    """
    configs = _spin_configurations(chain_length)
    count = configs.shape[0]
    if n_train + grid_size > count:
        raise InvalidInputError(
            f"n_train + grid_size = {n_train + grid_size} exceeds the {count} configurations"
        )
    if row_order != "size_lex":
        return make_design("from_dataset", n_train, grid_size, seed=run_seed, points=configs)
    ordered = configs[np.argsort((configs > 0).sum(axis=1), kind="stable")]
    return SampleDesign(ordered[:n_train], ordered[n_train : n_train + grid_size],
                        "from_dataset", run_seed, run_seed)


def make_theta(spec: ParameterSpec) -> np.ndarray:
    """Ground-truth coefficient vector, deterministic per scheme and seed."""
    if spec.scheme == "explicit":
        return np.asarray(spec.values, dtype=float)
    rng = np.random.default_rng(spec.seed)
    if spec.scheme == "unstructured_iid":
        return rng.normal(0.0, np.sqrt(spec.variance), spec.length)
    magnitudes = spec.scale * np.power(np.arange(1, spec.length + 1, dtype=float), -spec.exponent)
    if spec.random_signs:
        return magnitudes * rng.choice((-1.0, 1.0), spec.length)
    return magnitudes
