"""Dense linear-algebra kernels for the decomposition engine.

Matrices are plain 2-D numpy arrays, real or complex; every transpose in the
real-valued formulas becomes a conjugate transpose so complex bases (discrete
Fourier, random Fourier features) need no special casing.  Numerical rank is
decided by the scale-aware threshold ``rel_tol * sigma_max * max(rows, cols)``
with a strict ``>`` comparison, so ties at the threshold count as dependent.
The spectral norm takes no SVD: it is the square root of the largest
eigenvalue of the Gram matrix on the smaller side, formed after an exact
power-of-two scaling that keeps the Gram entries from overflowing or
underflowing.  Peaks and Grams are taken in blocks of at most ``BLOCK``
rows, so neither makes a temporary the size of its input.

All functions are pure: they never mutate their inputs, except an ``out``
array passed to them, and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_REL_TOL = 1e-12

# most Gram-Schmidt passes of svd_append after the first: a pass is repeated
# while it takes more than 1 - 1/sqrt(2) of the residual's norm (Daniel, Gragg,
# Kaufman & Stewart, Math. Comp. 30, 1976), which a column in the span of the
# earlier ones does to rounding; one repeat is the usual case
REORTHOGONALIZATIONS = 4

# rows (columns, for the Gram of a tall matrix) per block of row_peaks and gram,
# and rows per block of bases.evaluate_columns and of the sweep's evaluation of
# the operator (decomposition._FiniteOperator)
BLOCK = 256


def as_matrix(matrix) -> np.ndarray:
    """Validate and return a finite 2-D float or complex array."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D array, got shape {a.shape}")
    if not (np.issubdtype(a.dtype, np.floating) or np.issubdtype(a.dtype, np.complexfloating)):
        a = a.astype(float)
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    return a


def as_vector(vector, length: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float or complex array."""
    v = np.asarray(vector)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a 1-D array, got shape {v.shape}")
    if not (np.issubdtype(v.dtype, np.floating) or np.issubdtype(v.dtype, np.complexfloating)):
        v = v.astype(float)
    if v.size and not np.all(np.isfinite(v)):
        raise InvalidInputError("vector entries must be finite")
    if length is not None and v.shape[0] != length:
        raise InvalidInputError(f"expected a vector of length {length}, got {v.shape[0]}")
    return v


def _rank_threshold(values: np.ndarray, shape: tuple[int, ...], rel_tol: float) -> float:
    """The rank rule: singular values strictly above this count toward the rank."""
    if values.size == 0:
        return 0.0
    return rel_tol * float(values[0]) * max(shape)


def _check_rel_tol(rel_tol: float) -> float:
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    return float(rel_tol)


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Reduced singular value decomposition with a numerical-rank verdict.

    ``left_vectors`` is (rows, k), ``right_vectors`` is (cols, k), and
    ``singular_values`` is nonincreasing with k = min(rows, cols).  The
    factors are untruncated; ``numerical_rank`` records how many singular
    values clear the rank threshold.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    numerical_rank: int
    rel_tol: float

    def min_positive_singular(self) -> float:
        """Smallest singular value above the rank threshold; 0 if rank 0."""
        if self.numerical_rank == 0:
            return 0.0
        return float(self.singular_values[self.numerical_rank - 1])

    def pinv_norm(self) -> float:
        """Spectral norm of the pseudoinverse; 0 if rank 0."""
        return 1.0 / self.min_positive_singular() if self.numerical_rank else 0.0

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse with sub-threshold singular values zeroed."""
        r = self.numerical_rank
        v1 = self.right_vectors[:, :r]
        u1 = self.left_vectors[:, :r]
        return (v1 / self.singular_values[:r]) @ u1.conj().T

    def kernel_projector(self) -> np.ndarray:
        """Orthogonal projector onto the numerical null space, as a Hermitian idempotent."""
        v = self.right_vectors
        v1 = v[:, : self.numerical_rank]
        projector = np.eye(v.shape[0], dtype=v.dtype) - v1 @ v1.conj().T
        return (projector + projector.conj().T) / 2


def svd(matrix, rel_tol: float = DEFAULT_REL_TOL) -> SvdResult:
    """Reduced SVD with numerical rank at the given relative tolerance."""
    x = as_matrix(matrix)
    rel_tol = _check_rel_tol(rel_tol)
    if min(x.shape) == 0:
        k = 0
        dtype = x.dtype if np.issubdtype(x.dtype, np.complexfloating) else float
        return SvdResult(
            left_vectors=np.zeros((x.shape[0], k), dtype=dtype),
            singular_values=np.zeros(k),
            right_vectors=np.zeros((x.shape[1], k), dtype=dtype),
            numerical_rank=0,
            rel_tol=rel_tol,
        )
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    rank = int(np.count_nonzero(s > _rank_threshold(s, x.shape, rel_tol)))
    return SvdResult(u, s, vh.conj().T, rank, rel_tol)


def svd_append(factor: SvdResult, column: np.ndarray,
               rel_tol: float = DEFAULT_REL_TOL) -> SvdResult | None:
    """The reduced SVD of ``[X, t]`` from the reduced SVD of X, or None where that fails.

    Brand's rank-one column update (Linear Algebra Appl. 415, 2006): with
    ``c = U^H t`` and ``r = t - U c``, ``[X, t] = [U, r/rho] K [[V, 0], [0, 1]]^H``
    for the arrow ``K = [[diag(s), c], [0, rho]]``, ``rho = ||r||``.  While U
    is thinner than X is tall, c and r come from classical Gram-Schmidt with
    at least one reorthogonalization, repeated while a pass takes more than
    ``1 - 1/sqrt(2)`` of the residual's norm, so that ``r/rho`` is
    orthogonal to U even when t lies in range(U) up to rounding.  Once U is
    square, r is rounding and K drops its last row.  The phase
    ``D = diag(c/|c|)``, 1 where c is 0, makes K real,
    ``K = diag(D, 1) [[diag(s), |c|], [0, rho]] diag(D, 1)^H``, so one real
    SVD ``X sigma Y^T`` of that arrow gives ``U <- [U D, r/rho] X`` and
    ``V <- [[V D, 0], [0, 1]] Y``.  None when rho is exactly 0, where
    ``r/rho`` has no direction, or when ``REORTHOGONALIZATIONS`` passes do
    not settle.  The rank is the rule of :func:`svd` over the new shape.  The
    cost is O((rows + cols) k**2) for k singular values, against
    O(rows cols k) for an SVD afresh.
    """
    rel_tol = _check_rel_tol(rel_tol)
    u, s, v = factor.left_vectors, factor.singular_values, factor.right_vectors
    n, k = u.shape
    t = as_vector(column, length=n)
    uh = u.conj().T
    c = uh @ t
    grow = k < n
    if grow:
        r = t - u @ c
        rho = float(np.linalg.norm(r))
        for _ in range(REORTHOGONALIZATIONS):
            again = uh @ r
            c += again
            r -= u @ again
            rho, last = float(np.linalg.norm(r)), rho
            if rho > last / math.sqrt(2.0):
                break
        else:  # no pass settled, as for an exactly zero residual
            return None
    modulus = np.abs(c)
    phase = np.divide(c, modulus, out=np.ones_like(c), where=modulus > 0)
    arrow = np.zeros((k + grow, k + 1))
    arrow[np.arange(k), np.arange(k)] = s
    arrow[:k, k] = modulus
    if grow:
        arrow[k, k] = rho
    x, sigma, yt = np.linalg.svd(arrow, full_matrices=False)
    # U D X as U (D X) and V D Y as V (D Y): the phase scales the small factor, not U or V
    left = u @ (phase[:, None] * x[:k])
    if grow:
        left += np.outer(r / rho, x[k])
    right = np.concatenate([v @ (phase[:, None] * yt[:, :k].T), yt[None, :, k]])
    shape = (n, v.shape[0] + 1)
    rank = int(np.count_nonzero(sigma > _rank_threshold(sigma, shape, rel_tol)))
    return SvdResult(left, sigma, right, rank, rel_tol)


def spectrum(matrix, rel_tol: float = DEFAULT_REL_TOL) -> tuple[np.ndarray, int]:
    """Singular values alone, nonincreasing, and the numerical rank they give."""
    x = as_matrix(matrix)
    rel_tol = _check_rel_tol(rel_tol)
    if min(x.shape) == 0:
        return np.zeros(0), 0
    s = np.linalg.svd(x, compute_uv=False)
    return s, int(np.count_nonzero(s > _rank_threshold(s, x.shape, rel_tol)))


def pseudoinverse(matrix, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with sub-threshold singular values zeroed."""
    return svd(matrix, rel_tol).pinv()


def ldexp(x: np.ndarray, exponent: int, out: np.ndarray | None = None) -> np.ndarray:
    """``x * 2**exponent`` into ``out`` (a new array by default; ``x`` itself scales
    in place), exact for real and complex entries alike."""
    if out is None:
        out = np.empty_like(x)
    if not np.iscomplexobj(x):
        return np.ldexp(x, exponent, out=out)
    np.ldexp(x.real, exponent, out=out.real)
    np.ldexp(x.imag, exponent, out=out.imag)
    return out


def blocks(total: int, most: int) -> list[slice]:
    """The fewest slices of at most ``most`` indices that cover ``range(total)``, of near-equal size.

    Near-equal sizes keep a one-row block out unless ``total`` is 1: numpy
    takes a product with a one-row matrix as a matrix-vector product, which
    can round differently from the product over every row.
    """
    count = max(1, -(-total // most))
    bounds = [total * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def row_peaks(x: np.ndarray) -> np.ndarray:
    """The largest modulus in each row of a 2-D array; 0 for a row with no entries.

    The moduli are taken in blocks of at most ``BLOCK`` rows, not for the whole array at once.
    """
    peaks = np.empty(x.shape[0])
    for rows in blocks(x.shape[0], BLOCK):
        peaks[rows] = np.abs(x[rows]).max(axis=1, initial=0.0)
    return peaks


def gram(x: np.ndarray) -> np.ndarray:
    """The Gram matrix on the smaller side: ``x x^H`` when x is wide or square, ``x^H x`` when tall.

    A real x is multiplied by its own transpose, which takes no copy.  The
    conjugate of a complex x is copied in blocks of at most ``BLOCK`` rows
    (columns, when tall), and each block gives the matching columns (rows)
    of the Gram; with one block this is the one-shot product.
    """
    tall = x.shape[0] > x.shape[1]
    if not np.iscomplexobj(x):
        return x.T @ x if tall else x @ x.T
    k = min(x.shape)
    out = np.empty((k, k), dtype=x.dtype)
    for block in blocks(k, BLOCK):
        if tall:
            np.matmul(x[:, block].conj().T, x, out=out[block])
        else:
            np.matmul(x, x[block].conj().T, out=out[:, block])
    return out


def scaled_root(top_eigenvalue: float, exponent: int) -> float:
    """``sqrt(top_eigenvalue) * 2**exponent``: a norm read off the Gram of a matrix
    scaled by ``2**-exponent``; a norm beyond the float range reads inf."""
    try:
        return math.ldexp(math.sqrt(top_eigenvalue), exponent)
    except OverflowError:
        return math.inf


def scaled_gram(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The Gram on the smaller side of ``x * 2**-e``, and e; e is 0 for a zero x.

    e puts the largest modulus of x in [0.5, 1): the scaling is exact, no
    Gram entry can overflow, and the largest cannot underflow, subnormal
    inputs included.  The scaled copy is the only copy of x that it makes.
    """
    exponent = math.frexp(float(row_peaks(x).max(initial=0.0)))[1]
    return gram(ldexp(x, -exponent)), exponent


def spectral_norm(matrix) -> float:
    """Largest singular value; 0 for an empty or zero matrix.

    Taken as the square root of the largest eigenvalue of the scaled Gram
    matrix on the smaller side (:func:`scaled_gram`), scaled back.  A norm
    beyond the float range reads inf, as it does from an SVD.
    """
    x = as_matrix(matrix)
    if x.size == 0:
        return 0.0
    g, exponent = scaled_gram(x)
    top = float(np.linalg.eigvalsh(g)[-1])
    return scaled_root(top, exponent) if top > 0 else 0.0


def kernel_projector(matrix, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical null space of the matrix.

    Returned as a cols-by-cols Hermitian idempotent; the zero matrix when the
    input has full column rank, the identity when the input is zero.
    """
    return svd(matrix, rel_tol).kernel_projector()
