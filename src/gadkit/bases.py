"""Column generators for the extended operator.

A basis family plus a column budget defines the full ordered column set of
the operator mapping coefficients to sampled function values.  Polynomial
families use their standard three-term recurrences, the discrete Fourier
family uses the synthesis convention exp(2*pi*i*k*t/T), the random feature
families draw their projection vectors once per seed (random Fourier
features are exp(i*pi*x.w), read from a table of the phase by half-turn
steps and turned through the rest by short Taylor series), and the
periodic-chain spin family uses products of site spins over clusters.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .linalg import BLOCK, blocks

FAMILIES = (
    "monomial",
    "chebyshev",
    "legendre",
    "fourier_discrete",
    "rff",
    "rrf",
    "cluster_ising",
)

ORDERINGS = ("natural", "seeded_permutation", "physical_cluster")

_FAMILY_PARAM_KEYS = {
    "monomial": {"interval"},
    "chebyshev": set(),
    "legendre": set(),
    "fourier_discrete": {"period", "base_frequencies"},
    "rff": set(),
    "rrf": set(),
    "cluster_ising": {"chain_length", "max_order"},
}
_COMMON_PARAM_KEYS = {"ordering_seed"}


@dataclass(frozen=True)
class BasisSpec:
    """A basis family with a column budget and a declared column ordering.

    ``params`` carries family-specific settings: ``interval`` for monomials,
    ``period`` and ``base_frequencies`` for the discrete Fourier family,
    ``chain_length`` (and optional ``max_order``) for the spin-chain family.
    ``ordering_seed`` overrides ``seed`` for seeded permutations.
    """

    family: str
    input_dim: int
    column_budget: int
    ordering: str = "natural"
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown basis family {self.family!r}")
        if self.ordering not in ORDERINGS:
            raise InvalidInputError(f"unknown column ordering {self.ordering!r}")
        if self.column_budget < 1:
            raise InvalidInputError("column_budget must be at least 1")
        if self.input_dim < 1:
            raise InvalidInputError("input_dim must be at least 1")
        if self.seed < 0 or int(self.param("ordering_seed", 0)) < 0:
            raise InvalidInputError("basis seeds must be nonnegative integers")
        if self.ordering == "physical_cluster" and self.family != "cluster_ising":
            raise InvalidInputError("physical_cluster ordering requires the cluster_ising family")
        allowed = _FAMILY_PARAM_KEYS[self.family] | _COMMON_PARAM_KEYS
        unknown = set(self.params) - allowed
        if unknown:
            raise InvalidInputError(
                f"unknown params for family {self.family!r}: {sorted(unknown)}"
            )
        if self.family == "fourier_discrete":
            if float(self.param("period", 1.0)) <= 0:
                raise InvalidInputError("period must be positive")
            if int(self.param("base_frequencies", 0)) < 1:
                raise InvalidInputError("fourier_discrete requires base_frequencies >= 1")
        if self.family == "cluster_ising":
            length = int(self.param("chain_length", 0))
            if length < 1:
                raise InvalidInputError("cluster_ising requires chain_length >= 1")
            if length != self.input_dim:
                raise InvalidInputError("cluster_ising input_dim must equal chain_length")
            total = len(enumerate_clusters(length, self.max_order))
            if self.column_budget > total:
                raise InvalidInputError(
                    f"column_budget {self.column_budget} exceeds the {total} enumerable clusters"
                )

    def param(self, key: str, default=None):
        return self.params.get(key, default)

    @property
    def max_order(self) -> int | None:
        value = self.param("max_order")
        return None if value is None else int(value)


@functools.lru_cache(maxsize=1)
def feature_weights(count: int, input_dim: int, seed: int) -> np.ndarray:
    """I.i.d. standard-normal projection vectors, one row per feature, fixed by the seed.

    The last draw is kept read-only, so a sweep's row blocks share one draw.
    """
    weights = np.random.default_rng(seed).standard_normal((count, input_dim))
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class ClusterBasisIndex:
    """A cluster of sites on a periodic chain, keyed by size and extent."""

    sites: tuple[int, ...]
    order: int
    diameter: int


def _periodic_diameter(sites: tuple[int, ...], chain_length: int) -> int:
    if len(sites) < 2:
        return 0
    best = 0
    for a, b in itertools.combinations(sites, 2):
        sep = abs(a - b)
        best = max(best, min(sep, chain_length - sep))
    return best


@functools.lru_cache(maxsize=1)
def enumerate_clusters(chain_length: int,
                       max_order: int | None = None) -> tuple[ClusterBasisIndex, ...]:
    """All site subsets of the chain in bitmask (natural) order.

    The empty cluster comes first and indexes the constant column.  An
    optional ``max_order`` drops clusters with more sites than the cap.  The
    last enumeration is kept, as a tuple that no caller can change: a
    sweep's spec and each of its row blocks ask for the same one, always as
    ``enumerate_clusters(chain_length, max_order)``.
    """
    if chain_length < 1:
        raise InvalidInputError("chain_length must be at least 1")
    clusters = []
    for mask in range(1 << chain_length):
        sites = tuple(i for i in range(chain_length) if (mask >> i) & 1)
        if max_order is not None and len(sites) > max_order:
            continue
        clusters.append(
            ClusterBasisIndex(sites, len(sites), _periodic_diameter(sites, chain_length))
        )
    return tuple(clusters)


def fourier_frequency(index: int, base_frequencies: int) -> int:
    """Frequency of the column at a natural index.

    The first ``base_frequencies`` columns carry frequencies 0..n-1; the
    extension alternates outward as n, -1, n+1, -2, ... so a truncated budget
    stays symmetric in frequency.
    """
    n = base_frequencies
    if index < n:
        return index
    ext = index - n
    if ext % 2 == 0:
        return n + ext // 2
    return -(ext // 2 + 1)


def column_order(spec: BasisSpec) -> np.ndarray:
    """Permutation mapping display position to natural column index."""
    budget = spec.column_budget
    if spec.ordering == "natural":
        return np.arange(budget, dtype=np.int64)
    if spec.ordering == "seeded_permutation":
        seed = int(spec.param("ordering_seed", spec.seed))
        return np.random.default_rng(seed).permutation(budget).astype(np.int64)
    # physical_cluster: sort the first budget clusters by (order, diameter, sites)
    clusters = enumerate_clusters(int(spec.param("chain_length")), spec.max_order)[:budget]
    keys = sorted(range(budget), key=lambda i: (clusters[i].order, clusters[i].diameter, clusters[i].sites))
    return np.asarray(keys, dtype=np.int64)


def _points_1d(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2 and pts.shape[1] == 1:
        pts = pts[:, 0]
    if pts.ndim != 1:
        raise InvalidInputError(f"expected 1-D sample points, got shape {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise InvalidInputError("sample points must be finite")
    return pts


def _points_nd(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise InvalidInputError(f"expected points of dimension {dim}, got shape {pts.shape}")
    if pts.size and not np.all(np.isfinite(pts)):
        raise InvalidInputError("sample points must be finite")
    return pts


def _recurrence_columns(t: np.ndarray, degrees: np.ndarray, kind: str, out: np.ndarray) -> None:
    """Chebyshev or Legendre values for the requested degrees via recurrence, written to ``out``.

    The recurrence holds only its last two columns, and each degree is
    copied to the output columns that request it.
    """
    wanted: dict[int, list[int]] = {}
    for j, degree in enumerate(degrees.tolist()):
        wanted.setdefault(degree, []).append(j)
    previous, current = None, np.ones_like(t)
    for degree in range(max(wanted, default=-1) + 1):
        if degree == 1:
            previous, current = current, t
        elif degree > 1:
            k = degree - 1
            if kind == "chebyshev":
                following = 2 * t * current - previous
            else:
                following = ((2 * k + 1) * t * current - k * previous) / (k + 1)
            previous, current = current, following
        for j in wanted.get(degree, ()):
            out[:, j] = current


def _phase_columns(phase: np.ndarray, scale: float, out: np.ndarray) -> None:
    """``exp(1j * scale * phase)`` into ``out``, scaling ``phase`` in place.

    Writing cos and sin of the scaled phase into the real and imaginary
    parts gives the same bits as numpy's complex exponential of the
    purely imaginary argument, without the complex temporary.  The discrete
    Fourier family takes its columns this way.
    """
    phase *= scale
    # the imaginary part of 1j * scale * phase is phase * scale + 0 * 0,
    # which turns a -0.0 phase into +0.0 and so sin's zero positive
    phase += 0.0
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)


# Random Fourier feature entries, exp(1j * pi * turns), are read from a
# table of PHASE_STEPS points per half turn and turned through the rest of
# the step by short Taylor series, about PHASE_ENTRIES entries at a time, in
# whole rows and at most PHASE_ROWS of them, so that the temporaries stay in
# L2 and, at six floats an entry, under the half of a linalg.BLOCK-row
# complex block that the projections leave.  On one core of a Xeon with
# 2 MiB of L2 (one BLAS thread), the kernel over the 2100 x 400 operator of
# sweep_rff_sphere took 10.2-12.4 ms against 32.8-34.5 ms for libm's cos and
# sin of the reduced angle; 16, 24, 48 and 64 rows at a time took 11.3,
# 10.6, 15.7 and 17.2 ms where 32 took 10.2.  Over the 3000 x 6000 operator
# of --full-scale it took 254 ms against 873-901 ms, and 401 ms with 32 rows
# at a time
PHASE_STEPS = 1024
PHASE_ENTRIES = 12800
PHASE_ROWS = 32
# adding 1.5 * 2**52 to a float of modulus below 2**51 rounds it to a whole
# number j, as rint does, and leaves 2**51 + j in the low bits of the
# mantissa, so that an int64 view masked to the table's length indexes it.
# An integer remainder of j in its place took 1.7 ms a 256 x 400 block,
# about as long as the whole kernel takes over that block
_SHIFT = 1.5 * 2.0**52
_STEP = np.pi / PHASE_STEPS


def _phase_table() -> np.ndarray:
    """``exp(1j * pi * j / PHASE_STEPS)`` for j in [0, 2 PHASE_STEPS), read-only.

    Each angle is reduced by whole half turns first, as
    ``exp(1j * pi * t) = (-1)**k exp(1j * pi * (t - k))`` with ``k = rint(t)``,
    so libm's cos and sin see angles within pi/2 and each part, whole and
    half turns included, is within an ulp.  A zero sine is +0.0.  The table
    is built once, at import.
    """
    turns = np.arange(2 * PHASE_STEPS) / PHASE_STEPS
    whole = np.rint(turns)
    angle = np.pi * (turns - whole)
    sign = 1.0 - 2.0 * (whole % 2.0)
    table = np.empty(turns.size, dtype=complex)
    table.real = sign * np.cos(angle)
    table.imag = sign * np.sin(angle) + 0.0
    table.flags.writeable = False
    return table


_PHASE_TABLE = _phase_table()


def _half_turn_columns(turns: np.ndarray, out: np.ndarray) -> None:
    """``exp(1j * pi * turns)`` into ``out`` from the phase table; ``turns`` is overwritten.

    ``r = turns - 2 rint(turns / 2)`` is exact and within [-1, 1], and so is
    ``r = (j + f) / PHASE_STEPS`` with ``j = rint(r * PHASE_STEPS)`` and
    ``|f| <= 1/2``.  The entry is the table's ``T = exp(1j * pi * j / PHASE_STEPS)``
    turned by ``exp(1j * x)``, ``x = pi * f / PHASE_STEPS``, taken as
    ``T + T (cos x - 1 + 1j sin x)`` with cos and sin as Taylor series
    through x**4 and x**5: with ``|x| <= pi / 2048`` the first term left out
    is below 1e-19.  Each part is within 2 ulp of the modulus 1 (at most
    1.0 ulp measured, against 0.86 for libm's cos and sin of the reduced
    angle).  A sine can be zero only at a table point, where x is 0 and the
    entry has the table's bits, +0.0 among them.  The product with T is
    numpy's complex multiply, which may fuse its multiply-adds, so the bits
    off the table points follow the numpy build, not the block.
    """
    cols = turns.shape[1]
    rows = min(PHASE_ROWS, max(1, PHASE_ENTRIES // max(cols, 1)))
    temps = np.empty((3, rows, cols))
    rotations = np.empty((rows, cols), dtype=complex)
    cells = np.empty((rows, cols), dtype=np.int64)
    for lo in range(0, turns.shape[0], rows):
        t = turns[lo : lo + rows]
        a, b, c = temps[:, : t.shape[0]]
        rotation, cell = rotations[: t.shape[0]], cells[: t.shape[0]]
        # whole turns off, then t = r * PHASE_STEPS, within [-PHASE_STEPS, PHASE_STEPS]
        np.multiply(t, 0.5, out=a)
        np.rint(a, out=a)
        a += a
        t -= a
        t *= PHASE_STEPS
        # a = j, the nearest table point, and its table index; t = x
        np.add(t, _SHIFT, out=a)
        np.bitwise_and(a.view(np.int64), 2 * PHASE_STEPS - 1, out=cell)
        a -= _SHIFT
        t -= a
        t *= _STEP
        # rotation = cos x - 1 + 1j sin x, from a = x**2
        np.multiply(t, t, out=a)
        np.multiply(a, 1.0 / 24.0, out=b)
        b -= 0.5
        np.multiply(b, a, out=rotation.real)
        np.multiply(a, 1.0 / 120.0, out=c)
        c -= 1.0 / 6.0
        c *= a
        c *= t
        np.add(c, t, out=rotation.imag)
        block = np.take(_PHASE_TABLE, cell, out=out[lo : lo + rows], mode="clip")
        rotation *= block
        block += rotation


def evaluate_columns(spec: BasisSpec, points, col_range: tuple[int, int]) -> np.ndarray:
    """Evaluate ordered basis columns ``[j_lo, j_hi)`` at the sample points.

    Entry (i, j) is the value of the column at display position j_lo + j
    under the declared column ordering, evaluated at point i.  The output is
    allocated once and filled in near-equal blocks of at most
    ``gadkit.linalg.BLOCK`` rows (see :func:`gadkit.linalg.blocks`), so that
    no temporary grows with the number of points.  Each block takes the same
    arithmetic as the one-shot formula over all rows, so the entries have the
    same bits, on every shipped config among others.  Discrete Fourier
    columns have the bits of numpy's complex exponential
    (:func:`_phase_columns`); random Fourier features come from a table of
    the phase by half-turn steps (:func:`_half_turn_columns`), which holds
    each entry within 2 ulp of the exact exponential, at most 1.0 ulp
    measured.  The one caveat is the random-feature projections, one BLAS
    product per block: a BLAS may round a small product differently from a
    large one (OpenBLAS 0.3.31 does so with 32 input dimensions below about
    1200 entries per block, and for a single column).
    """
    j_lo, j_hi = int(col_range[0]), int(col_range[1])
    if j_lo < 0 or j_hi < j_lo:
        raise InvalidInputError(f"invalid column range [{j_lo}, {j_hi})")
    if j_hi > spec.column_budget:
        raise BudgetExceededError(
            f"column range [{j_lo}, {j_hi}) exceeds budget {spec.column_budget}"
        )
    indices = column_order(spec)[j_lo:j_hi]

    if spec.family == "cluster_ising":
        pts = _points_nd(points, spec.input_dim)
        if pts.size and not np.all(np.isin(pts, (-1.0, 1.0))):
            raise InvalidInputError("spin configurations must have entries in {-1, +1}")
        clusters = enumerate_clusters(int(spec.param("chain_length")), spec.max_order)
        out = np.empty((pts.shape[0], indices.size))
        for j, idx in enumerate(indices):
            sites = clusters[int(idx)].sites
            out[:, j] = pts[:, list(sites)].prod(axis=1) if sites else 1.0
        return out

    if spec.family in ("rff", "rrf"):
        pts = _points_nd(points, spec.input_dim)
        features = feature_weights(spec.column_budget, spec.input_dim, spec.seed)[indices].T
        out = np.empty((pts.shape[0], indices.size),
                       dtype=complex if spec.family == "rff" else float)
        for rows in blocks(pts.shape[0], BLOCK):
            if spec.family == "rff":
                _half_turn_columns(pts[rows] @ features, out[rows])
            else:
                block = np.matmul(pts[rows], features, out=out[rows])
                # (0.0, x), not (x, 0.0): the order decides the sign of a zero
                np.maximum(0.0, block, out=block)
        return out

    t = _points_1d(points)
    if spec.family == "monomial":
        a, b = spec.param("interval", (-1.0, 1.0))
        if t.size and (t.min() < a or t.max() > b):
            raise InvalidInputError(f"points outside the interval [{a}, {b}]")
        out = np.empty((t.size, indices.size))
        for rows in blocks(t.size, BLOCK):
            np.power(t[rows, None], indices[None, :], out=out[rows])
        return out

    if spec.family in ("chebyshev", "legendre"):
        if t.size and (t.min() < -1.0 or t.max() > 1.0):
            raise InvalidInputError("points outside [-1, 1]")
        # column-major, the layout these columns have always had: it fixes
        # the summation order of the products taken with the operator, and
        # each step of the recurrence writes one contiguous column
        out = np.empty((t.size, indices.size), order="F")
        for rows in blocks(t.size, BLOCK):
            _recurrence_columns(t[rows], indices, spec.family, out[rows])
        return out

    # fourier_discrete
    period = float(spec.param("period", 1.0))
    if t.size and (t.min() < 0.0 or t.max() >= period):
        raise InvalidInputError(f"points outside [0, {period})")
    n_base = int(spec.param("base_frequencies"))
    freqs = np.array([fourier_frequency(int(j), n_base) for j in indices])
    out = np.empty((t.size, indices.size), dtype=complex)
    for rows in blocks(t.size, BLOCK):
        _phase_columns(np.outer(t[rows] / period, freqs), 2 * np.pi, out[rows])
    return out


def _legendre_value_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def legendre_gauss_nodes(n: int) -> np.ndarray:
    """Zeros of the degree-n Legendre polynomial, ascending, inside (-1, 1).

    Newton iteration from the Chebyshev-angle guesses cos(pi*(k - 1/4)/(n + 1/2)),
    then an exact antisymmetrization so paired nodes mirror each other and the
    middle node of an odd count is exactly zero.
    """
    if n < 1:
        raise InvalidInputError("node count must be at least 1")
    if n == 1:
        return np.zeros(1)
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_value_and_derivative(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    x = np.sort(x)
    return (x - x[::-1]) / 2
