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

:func:`svd_append` carries an SVD across one appended column through the
SVD of a small real arrow, whose real vectors update a complex factor by
real GEMMs.  Where the arrow carries at least
``ARROW_CROSSOVER`` singular values and an O(k) deflation test finds no
weight and no pole gap within ``DEFLATION_TOL`` times its largest entry,
that SVD comes from the arrow's secular equation: LAPACK's values-only SVD,
one Newton step per root and closed-form vectors, kept only where the
roots interlace the poles strictly and the backward error is within
``GUARD_TOL`` times sigma_max.  Elsewhere it is the dense
``np.linalg.svd`` of the arrow.

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

# svd_append's arrow (see _arrow_svd).  The secular route takes arrows that
# carry at least ARROW_CROSSOVER singular values: in two timeit runs at one
# BLAS thread it took 315 and 168 us at k = 35 against the dense SVD's 273
# and 184 us, and 391 and 182 us at k = 40 against 438 and 246 us
# (BENCH_cheaper_arrow.json).  A weight or a pole gap of at most
# DEFLATION_TOL times the arrow's largest entry sends it to the dense SVD
# before any SVD is taken.  GUARD_TOL bounds the secular route's backward
# error ||w-hat - w|| relative to sigma_max: over the arrows of the shipped
# RFF, RRF and ridge sweeps it read at most 1.6 eps with the Newton step and
# at least 38 eps without it
ARROW_CROSSOVER = 40
DEFLATION_TOL = 8 * np.finfo(float).eps
GUARD_TOL = 16 * np.finfo(float).eps


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


def svd_append(factor: SvdResult, column: np.ndarray) -> SvdResult | None:
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
    ``V <- [[V D, 0], [0, 1]] Y``; for complex U and V each product is one
    real GEMM on their float views, and its result is column-major
    (:func:`_updated_vectors`).  None when rho is exactly 0, where
    ``r/rho`` has no direction, or when ``REORTHOGONALIZATIONS`` passes do
    not settle.  The rank is the rule of :func:`svd` over the new shape, at
    the factor's own ``rel_tol``, which the result keeps.

    The arrow's SVD takes one of two routes (:func:`_arrow_svd`), chosen
    from the inputs.  An arrow that carries at least ``ARROW_CROSSOVER``
    singular values, with no weight and no gap between poles within
    ``DEFLATION_TOL`` times its largest entry, takes the secular route:
    its singular values from LAPACK's values-only SVD, one Newton step on
    the secular equation, and X and Y in closed form from Löwner's weights
    (:func:`_secular_svd`), guarded by strict interlacing and a backward
    error of at most ``GUARD_TOL`` times sigma_max.  Every other arrow,
    and one that fails the guard, takes the dense ``np.linalg.svd``.  The
    cost is O((rows + cols) k**2) for k singular values and one values-only
    SVD of the arrow, against O(rows cols k) for an SVD afresh.
    """
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
    x, sigma, yt = _arrow_svd(s, modulus, rho if grow else None)
    left, right = _updated_vectors(u, v, phase, r / rho if grow else None, x, yt)
    shape = (n, v.shape[0] + 1)
    rank = int(np.count_nonzero(sigma > _rank_threshold(sigma, shape, factor.rel_tol)))
    return SvdResult(left, sigma, right, rank, factor.rel_tol)


def _updated_vectors(u: np.ndarray, v: np.ndarray, phase: np.ndarray, last: np.ndarray | None,
                     x: np.ndarray, yt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``[U D, last] X`` and ``[[V D, 0], [0, 1]] Y`` for the arrow's real X and Y.

    ``last`` is ``r/rho`` of a growing U and X has a row for it; with None,
    U is square.  Real U and V take ``U (D X)`` and ``V (D Y)``: the phase
    scales the small factor, not U or V.  Complex U and V take one real GEMM
    each, half the flops of a complex product with the complex ``D X``: the
    transpose ``[U D, last]^T`` is formed with contiguous rows, so its float
    view holds each row's real and imaginary parts side by side, and ``X^T``
    times that view is the float view of ``([U D, last] X)^T``.  These
    results are the transposes read back as complex, in column-major order.
    """
    k = phase.size
    if not np.iscomplexobj(u):
        left = u @ (phase[:, None] * x[:k])
        if last is not None:
            left += np.outer(last, x[k])
        return left, np.concatenate([v @ (phase[:, None] * yt[:, :k].T), yt[None, :, k]])
    scaled = np.empty((x.shape[0], u.shape[0]), dtype=complex)
    np.multiply(phase[:, None], u.T, out=scaled[:k])
    if last is not None:
        scaled[k] = last
    left = (x.T @ scaled.view(float)).view(complex).T
    del scaled  # before the next one, so that one is held at a time
    scaled = np.empty((k, v.shape[0]), dtype=complex)
    np.multiply(phase[:, None], v.T, out=scaled)
    # the new V's last row is Y's last row, that of the appended column
    right = np.empty((yt.shape[0], v.shape[0] + 1), dtype=complex)
    np.matmul(yt[:, :k], scaled.view(float), out=right[:, :-1].view(float))
    right[:, -1] = yt[:, k]
    return left, right.T


def _arrow_svd(s: np.ndarray, modulus: np.ndarray,
               rho: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``X, sigma, Y^T`` of the arrow ``[[diag(s), modulus], [0, rho]]``, or of
    ``[diag(s), modulus]`` when rho is None, by the secular equation where it applies.

    The arrow's singular values are the roots of the secular equation whose
    poles are s (and 0 when rho is given) with weights modulus (and rho).
    The secular route (:func:`_secular_svd`) needs poles and weights apart
    from rounding, so an O(k) test sends an arrow with a weight, or a gap
    between neighbouring values of s or from the last to 0, of at most
    ``DEFLATION_TOL`` times its largest entry to ``np.linalg.svd``
    before any SVD is taken, as it does an arrow that carries fewer than
    ``ARROW_CROSSOVER`` singular values.  An arrow whose secular route
    fails its checks takes ``np.linalg.svd`` after its values-only SVD.
    """
    k = s.size
    arrow = np.zeros((k + (rho is not None), k + 1))
    arrow[np.arange(k), np.arange(k)] = s
    arrow[:k, k] = modulus
    if rho is not None:
        arrow[k, k] = rho
    if k >= ARROW_CROSSOVER:
        weights = modulus if rho is None else np.append(modulus, rho)
        tol = DEFLATION_TOL * max(s[0], weights.max())
        if weights.min() > tol and s[-1] > tol and (s[:-1] - s[1:]).min() > tol:
            poles = s if rho is None else np.append(s, 0.0)
            factor = _secular_svd(poles, weights, np.linalg.svd(arrow, compute_uv=False), k)
            if factor is not None:
                return factor
    return np.linalg.svd(arrow, full_matrices=False)


def _secular_svd(poles: np.ndarray, weights: np.ndarray, sigma: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The arrow's ``X, sigma, Y^T`` in closed form from its singular values, or None.

    The arrow K has ``K K^T = diag(d)**2 + w w^T`` for the poles d and
    weights w, so each singular value sigma_j is a root of the secular
    equation ``f(sigma**2) = 1 + sum_i w_i**2 / (d_i**2 - sigma**2) = 0``
    and lies strictly between d_j and d_{j-1} (Gu & Eisenstat, SIAM J.
    Matrix Anal. Appl. 16, 1995).  LAPACK's values are refined by one
    Newton step per root on ``(d_p**2 - sigma**2) f``, with the root held as
    the offset ``mu = sigma**2 - d_p**2`` from its nearest pole p, so that
    every ``sigma_j**2 - d_i**2 = (d_p**2 - d_i**2) + mu_j`` keeps its
    relative accuracy.  Löwner's formula then gives the weights w-hat for
    which these roots are exact, as products of O(1) ratios
    ``(sigma_j**2 - d_i**2) / (d_j**2 - d_i**2)``, and the vectors follow
    in closed form: column j of X is ``w-hat / (sigma_j**2 - d**2)`` and
    row j of Y^T is ``d w-hat / (sigma_j**2 - d**2)`` over the first k
    poles with 1 last, each normalized; they are orthonormal to working
    precision whatever the roots' error, which moves only w-hat.  None when
    a root does not interlace the poles strictly, before or after the
    step, or when the backward error ``||w-hat - w||`` exceeds
    ``GUARD_TOL`` times sigma_max.  Besides the arrow, at most two
    arrays of its size are held at once, as the dense SVD's X and Y^T are.
    """
    exponent = math.frexp(max(poles[0], weights.max()))[1]
    d, w, sigma = (np.ldexp(v, -exponent) for v in (poles, weights, sigma))
    near = np.arange(d.size)
    near[1:] -= sigma[1:] - d[1:] > d[:-1] - sigma[1:]
    mu = (sigma - d[near]) * (sigma + d[near])
    # row j, column i: root j against pole i.  Non-finite values, from a
    # root LAPACK put on a pole, fail the tests below
    with np.errstate(all="ignore"):
        squares = np.subtract.outer(d, d)
        squares *= np.add.outer(d, d)  # d_l**2 - d_i**2 with exact differences
        gaps = squares[near]
        gaps += mu[:, None]  # sigma_j**2 - d_i**2
        if not _interlaced(gaps):
            return None
        np.reciprocal(gaps, out=gaps)
        w2 = w * w
        f = 1.0 - gaps @ w2
        slope = np.einsum("ji,ji,i->j", gaps, gaps, w2)
        mu -= mu * f / (f + mu * slope)
        del gaps  # before the next gather, so that two arrays are held at most
        gaps = squares[near]
        gaps += mu[:, None]
        if not _interlaced(gaps):
            return None
        squares.reshape(-1)[:: d.size + 1] = 1.0  # the lone factor sigma_i**2 - d_i**2
        w_hat = np.sqrt(np.multiply.reduce(np.divide(gaps, squares, out=squares), axis=0))
        sigma = np.sqrt(d[near] ** 2 + mu)
        if not np.linalg.norm(w_hat - w) <= GUARD_TOL * sigma[0]:
            return None
    del squares
    xt = np.divide(w_hat, gaps, out=gaps)
    yt = np.empty((d.size, k + 1))
    np.multiply(xt[:, :k], d[:k], out=yt[:, :k])
    yt[:, k] = 1.0
    xt *= 1.0 / np.sqrt(np.einsum("ji,ji->j", xt, xt))[:, None]
    yt *= 1.0 / np.sqrt(np.einsum("ji,ji->j", yt, yt))[:, None]
    return xt.T, np.ldexp(sigma, exponent), yt


def _interlaced(gaps: np.ndarray) -> bool:
    """Whether every root j lies strictly between poles j and j - 1:
    ``sigma_j**2 - d_{j-1}**2 < 0 < sigma_j**2 - d_j**2``."""
    return bool(np.diagonal(gaps).min() > 0 and np.diagonal(gaps, -1).max(initial=-1.0) < 0)


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
