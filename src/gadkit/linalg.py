"""Dense linear-algebra kernels for the decomposition engine.

Matrices are plain 2-D numpy arrays, real or complex; every transpose in the
real-valued formulas becomes a conjugate transpose so complex bases (discrete
Fourier, random Fourier features) need no special casing.  Numerical rank is
decided by the scale-aware threshold ``rel_tol * sigma_max * max(rows, cols)``
with a strict ``>`` comparison, so ties at the threshold count as dependent.
The spectral norm takes no SVD: it is the square root of the largest
eigenvalue of the Gram matrix on the smaller side, formed after an exact
power-of-two scaling that keeps the Gram entries from overflowing or
underflowing.

All functions are pure: they never mutate their inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_REL_TOL = 1e-12


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


def _ldexp(x: np.ndarray, exponent: int) -> np.ndarray:
    """``x * 2**exponent``, exact for real and complex entries alike."""
    if not np.iscomplexobj(x):
        return np.ldexp(x, exponent)
    out = np.empty_like(x)
    np.ldexp(x.real, exponent, out=out.real)
    np.ldexp(x.imag, exponent, out=out.imag)
    return out


def spectral_norm(matrix) -> float:
    """Largest singular value; 0 for an empty or zero matrix.

    Taken as the square root of the largest eigenvalue of the Gram matrix on
    the smaller side, after scaling the entries by a power of two so the
    largest modulus lies in [0.5, 1): the scaling is exact, no Gram entry can
    overflow, and the largest cannot underflow.  A norm beyond the float
    range reads inf, as it does from an SVD.
    """
    x = as_matrix(matrix)
    if x.size == 0:
        return 0.0
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return 0.0
    exponent = math.frexp(peak)[1]
    x = _ldexp(x, -exponent)
    xh = x.conj().T
    gram = x @ xh if x.shape[0] <= x.shape[1] else xh @ x
    root = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
    with np.errstate(over="ignore"):
        return float(np.ldexp(root, exponent))


def kernel_projector(matrix, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical null space of the matrix.

    Returned as a cols-by-cols Hermitian idempotent; the zero matrix when the
    input has full column rank, the identity when the input is zero.
    """
    return svd(matrix, rel_tol).kernel_projector()
