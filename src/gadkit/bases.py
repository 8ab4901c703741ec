"""Column generators for the extended operator.

A basis family plus a column budget defines the full ordered column set of
the operator mapping coefficients to sampled function values.  Polynomial
families use their standard three-term recurrences, the discrete Fourier
family uses the synthesis convention exp(2*pi*i*k*t/T), the random feature
families draw their projection vectors once per seed (random Fourier
features are exp(i*pi*x.w), taken with the phase reduced by whole half
turns), and the periodic-chain spin family uses products of site spins over
clusters.
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


def _half_turn_columns(turns: np.ndarray, out: np.ndarray) -> None:
    """``exp(1j * pi * turns)`` into ``out`` by whole half turns; ``turns`` is overwritten.

    With ``k = rint(turns)``, ``turns - k`` is exact and at most 1/2 in
    modulus, so cos and sin see angles within pi/2, and
    ``exp(1j * pi * turns) = (-1)**k exp(1j * pi * (turns - k))``.  Each
    part is then within about one ulp of the modulus 1, where the angle
    ``pi * turns`` itself would carry the rounding of an angle up to
    ``pi * max|turns|``.  On the way ``turns`` holds the sign ``(-1)**k``
    and the parts of ``out`` hold k, ``turns - k`` and the angle, so no
    array is made.  A zero sine is +0.0, as from numpy's complex
    exponential of ``1j * pi * -0.0``.
    """
    k = np.rint(turns, out=out.real)
    rest = np.subtract(turns, k, out=out.imag)
    # (-1)**k = 1 - 2 (k - 2 floor(k/2))
    sign = np.multiply(k, 0.5, out=turns)
    np.floor(sign, out=sign)
    sign += sign
    np.subtract(k, sign, out=sign)
    sign *= -2.0
    sign += 1.0
    angle = np.multiply(rest, np.pi, out=out.real)
    np.sin(angle, out=out.imag)
    np.cos(angle, out=out.real)
    out.imag *= sign
    out.imag += 0.0  # -0.0, a zero sine times -1, becomes +0.0
    out.real *= sign


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
    (:func:`_phase_columns`); random Fourier features are reduced by whole
    half turns first (:func:`_half_turn_columns`), which holds each entry
    within about one ulp of the exact exponential.  The one caveat is the
    random-feature projections, one BLAS product per block: a BLAS may round
    a small product differently from a large one (OpenBLAS 0.3.31 does so
    with 32 input dimensions below about 1200 entries per block, and for a
    single column).
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
