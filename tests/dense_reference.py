"""Dense reference operators and helpers that only the tests use.

The sweep applies the panel's factor to vectors and never forms these
matrices.  ``b_operator``, ``infer_theta`` and ``invertibility_operator``
apply the shipped fit map: each calls :func:`gadkit.decomposition.aliasing_operator`
on a copy of the panel whose nescient training block is the right-hand side, so they
check the package's own arithmetic, not a second copy of it.

``record_mismatches`` compares two sweeps by the golden rule that
``test_golden.py`` applies to CSV rows.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from gadkit.decomposition import OperatorPanel, SweepRecord, aliasing_operator
from gadkit.errors import InvalidInputError
from gadkit.linalg import DEFAULT_REL_TOL, as_matrix, as_vector, svd

# the golden rule: these fields match exactly, every other float to REL_TOL
# relative with an absolute floor of FLOOR times the largest finite magnitude
# of its column, so that rounding-level entries survive a reordering of the
# same arithmetic
EXACT_FIELDS = ("m", "lam", "rank_TM", "new_col_independent", "error")
REL_TOL = 1e-9
FLOOR = 1e-12


def record_mismatches(got: list[SweepRecord], want: list[SweepRecord]) -> list[str]:
    """Every field where one sweep's records depart from another's by the golden rule."""
    if len(got) != len(want):
        return [f"{len(got)} records against {len(want)}"]
    problems = []
    for field in (f.name for f in fields(SweepRecord)):
        pairs = [(getattr(g, field), getattr(w, field)) for g, w in zip(got, want)]
        if field in EXACT_FIELDS:
            problems += [f"record {i} {field}: {a!r} != {b!r}"
                         for i, (a, b) in enumerate(pairs) if a != b]
            continue
        scale = max((abs(b) for _, b in pairs if math.isfinite(b)), default=0.0)
        problems += [f"record {i} {field}: {a!r} != {b!r}" for i, (a, b) in enumerate(pairs)
                     if not (math.isnan(a) and math.isnan(b))
                     and not abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + FLOOR * scale]
    return problems


def _fit(panel: OperatorPanel, rhs: np.ndarray, lam: float) -> np.ndarray:
    """The panel's fit map ``V diag(f) U^H`` applied to the columns of ``rhs``."""
    return aliasing_operator(replace(panel, train=np.hstack([panel.train_modeled, rhs])), lam)


def b_operator(panel: OperatorPanel, lam: float = 0.0) -> np.ndarray:
    """Map from true modeled coefficients to their fitted expectation.

    Unregularized this is the orthogonal projector onto the row space of the
    modeled training block (identity minus the kernel projector); with ridge
    it contracts instead of projecting.
    """
    return _fit(panel, panel.train_modeled, lam)


def infer_theta(panel: OperatorPanel, y_train, lam: float = 0.0) -> np.ndarray:
    """Minimum-norm least-squares fit, zero-padded to the full budget length."""
    y = as_vector(y_train, length=panel.n_train)
    theta_m = _fit(panel, y[:, None], lam)[:, 0]
    out = np.zeros(panel.budget, dtype=theta_m.dtype)
    out[: panel.m] = theta_m
    return out


def invertibility_operator(panel: OperatorPanel, lam: float = 0.0) -> np.ndarray:
    """Block operator of fitting bias on modeled coordinates and identity on nescient ones.

    The modeled block is the kernel projector of the training design
    (unregularized) or identity minus the ridge-contracted map; the nescient
    block is the identity, so the norm is 1 whenever any coordinate is
    unmodeled.
    """
    m, total = panel.m, panel.budget
    top = np.eye(m) - b_operator(panel, lam) if lam > 0 else panel.factor.kernel_projector()
    out = np.zeros((total, total), dtype=top.dtype)
    out[:m, :m] = top
    out[m:, m:] = np.eye(total - m, dtype=top.dtype)
    return out


def augmented_block(panel: OperatorPanel, lam: float) -> np.ndarray:
    """The dense ridge block ``[T_M; sqrt(n*lambda) I]``, which the sweep never forms.

    Its singular values are ``sqrt(sigma**2 + n*lambda)`` over the spectrum
    of T_M and ``sqrt(n*lambda)`` for the other m - min(n, m); ``ridge_panels``
    reads its pseudoinverse norm off T_M's spectrum alone.
    """
    x = panel.train_modeled
    return np.vstack([x, np.sqrt(panel.n_train * lam) * np.eye(panel.m, dtype=x.dtype)])


@dataclass(frozen=True)
class AppendReport:
    """Rank and extreme-singular-value bookkeeping for one column append."""

    was_independent: bool
    old_min_singular: float
    new_min_singular: float
    old_rank: int
    new_rank: int


def append_column(matrix, phi, rel_tol: float = DEFAULT_REL_TOL) -> tuple[np.ndarray, AppendReport]:
    """Adjoin a column and report how rank and the least singular value moved.

    The report encodes the interlacing facts for column appends: an
    independent column can only lower the smallest positive singular value,
    a dependent column can only raise it.
    """
    x = as_matrix(matrix)
    p = as_vector(phi, length=x.shape[0])
    dtype = np.promote_types(x.dtype, p.dtype)
    stacked = np.hstack([x.astype(dtype, copy=False), p.astype(dtype, copy=False)[:, None]])
    old = svd(x, rel_tol)
    new = svd(stacked, rel_tol)
    report = AppendReport(
        was_independent=new.numerical_rank == old.numerical_rank + 1,
        old_min_singular=old.min_positive_singular(),
        new_min_singular=new.min_positive_singular(),
        old_rank=old.numerical_rank,
        new_rank=new.numerical_rank,
    )
    return stacked, report


def interleaving_check(hermitian, c, rel_tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray, bool]:
    """Eigenvalues before and after a rank-one positive update, interlaced or not.

    Returns the spectra of H and H + c c^H in nonincreasing order plus a flag
    that is True exactly when the updated eigenvalues interlace the originals
    from above, to a tolerance of ``rel_tol`` times the spectral norm of H.
    """
    h = as_matrix(hermitian)
    if h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {h.shape}")
    v = as_vector(c, length=h.shape[0])
    scale = np.linalg.norm(h)
    defect = np.linalg.norm(h - h.conj().T)
    if defect > 1e-9 * max(scale, 1.0):
        raise InvalidInputError("matrix is not Hermitian to tolerance")
    h = (h + h.conj().T) / 2
    before = np.linalg.eigvalsh(h)[::-1]
    after = np.linalg.eigvalsh(h + np.outer(v, v.conj()))[::-1]
    tol = rel_tol * (float(np.abs(before).max()) if before.size else 0.0)
    holds = bool(
        np.all(after >= before - tol) and np.all(before[:-1] >= after[1:] - tol)
    )
    return before, after, holds


def local_maxima(values, rel_tol: float = 1e-9) -> list[int]:
    """Indices of strict, plateau-aware local maxima.

    A position qualifies when the value rises strictly above its predecessor
    (relative comparison) and, after any run of equal values, falls strictly
    again; the first index of the plateau is reported.  Endpoints never
    qualify.  On a norm-versus-model-size curve every reported index is one
    where the appended column was linearly independent, since dependent
    appends cannot increase the pseudoinverse norm.
    """
    v = np.asarray(values, dtype=float)

    def above(a: float, b: float) -> bool:
        return a > b + rel_tol * max(abs(a), abs(b), 1e-300)

    peaks: list[int] = []
    i = 1
    n = v.size
    while i < n:
        if above(v[i], v[i - 1]):
            j = i
            while j + 1 < n and not above(v[j + 1], v[i]) and not above(v[i], v[j + 1]):
                j += 1
            if j + 1 < n and above(v[i], v[j + 1]):
                peaks.append(i)
            i = j + 1
        else:
            i += 1
    return peaks
