"""Block partition of the extended operator and the norm/risk sweep engine.

Given the full operator over training plus prediction rows, a model size m
splits its columns into a modeled prefix and a nescient remainder.  The
aliasing operator (pseudoinverse of the modeled training block applied to
the nescient training block) describes how unmodeled coefficients leak into
the fitted ones; the invertibility operator collects the kernel projector of
the modeled block and the identity on the nescient coordinates.  Sweeping m
produces the label-independent anatomy of the risk curve.

Every per-m quantity derives from one SVD of the modeled training block,
T_M = U diag(s) V^H.  The fit map is V diag(f) U^H with one filter vector f:
1/s over the numerical rank when lambda = 0, s / (s**2 + n*lambda) under
ridge.  Lambda is a plain float, active exactly when it is positive, so
lambda = 0 takes the unregularized path and the two agree.  The sweep
applies the factor to vectors and forms neither the fit map, B nor the
aliasing operator: A = V C with the small core C = f * (U^H T_U), so
||A|| = ||C||, the alias error is ||C theta_u||, and the fitted-signal
identity is checked through that same core.  The dense operators
(:func:`aliasing_operator`, :func:`b_operator`,
:func:`invertibility_operator`) remain as the reference the tests compare
against.  :func:`sweep` is the one loop over model sizes: it evaluates the
full operator and checks it for finite entries once, then walks m upward
with lambda inside.  T_M is factored once per model size, and each lambda is
only a different filter f on that factor, so a list of ridge strengths costs
one SVD per m, not one per (lambda, m).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bases import BasisSpec, evaluate_columns
from .designs import ParameterSpec, SampleDesign, make_theta
from .errors import DecompositionMismatchError, GadkitError, InvalidInputError
from .linalg import DEFAULT_REL_TOL, SvdResult, as_matrix, as_vector, spectral_norm, spectrum, svd
from .linalg import kernel_projector, pseudoinverse  # noqa: F401  (perfbench/spans.py wraps these)


@dataclass(frozen=True, eq=False)
class OperatorPanel:
    """The four blocks of the extended operator at one model size."""

    m: int
    train_modeled: np.ndarray
    train_nescient: np.ndarray
    pred_modeled: np.ndarray
    pred_nescient: np.ndarray
    factor: SvdResult  # of train_modeled: the one factorization at this model size

    @property
    def rank(self) -> int:
        return self.factor.numerical_rank

    @property
    def n_train(self) -> int:
        return self.train_modeled.shape[0]

    @property
    def budget(self) -> int:
        return self.m + self.train_nescient.shape[1]


@dataclass(frozen=True)
class SweepRecord:
    """One row of the risk anatomy at a given model size."""

    m: int
    norm_A: float
    norm_pinv_TM: float
    norm_M_TU: float
    alias_error: float
    bias_error: float
    nescience_error: float
    risk_all: float
    risk_prediction_only: float
    rank_TM: int
    new_col_independent: bool
    lam: float
    error: str | None = None


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Risk and error-term breakdown for one fitted model size.

    ``norm_A`` is the spectral norm of the aliasing operator, taken from the
    same core that gives ``alias_error``.
    """

    theta_hat: np.ndarray
    norm_A: float
    risk_all: float
    risk_prediction_only: float
    alias_error: float
    bias_error: float
    nescience_error: float
    identity_residual: float


class _FiniteOperator:
    """The full operator, checked for finite entries when the object is made.

    :func:`sweep` makes one per sweep, and :func:`build_panels` takes it
    without checking the whole operator again at every model size.
    """

    __slots__ = ("matrix",)

    def __init__(self, M_full):
        self.matrix = as_matrix(M_full)


def build_panels(M_full, design: SampleDesign, m: int,
                 rel_tol: float = DEFAULT_REL_TOL) -> OperatorPanel:
    """Split the full operator into its four blocks at model size m.

    Rows of ``M_full`` must be ordered training first, then prediction; the
    modeled columns are the first m under the basis ordering already baked
    into ``M_full``.
    """
    full = M_full.matrix if isinstance(M_full, _FiniteOperator) else as_matrix(M_full)
    n = design.n_train
    total_rows = n + design.prediction_points.shape[0]
    if full.shape[0] != total_rows:
        raise InvalidInputError(
            f"operator has {full.shape[0]} rows, design implies {total_rows}"
        )
    budget = full.shape[1]
    if not 1 <= m <= budget:
        raise InvalidInputError(f"model size {m} outside [1, {budget}]")
    train_modeled = full[:n, :m]
    return OperatorPanel(
        m=int(m),
        train_modeled=train_modeled,
        train_nescient=full[:n, m:],
        pred_modeled=full[n:, :m],
        pred_nescient=full[n:, m:],
        factor=svd(train_modeled, rel_tol),
    )


def _check_lambda(lam: float) -> float:
    """A ridge strength, once it is known to be finite and nonnegative; -0.0 reads 0.0."""
    if not 0.0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be finite and nonnegative, got {lam}")
    return float(lam) if lam > 0 else 0.0


def _ridge_shift(panel: OperatorPanel, lam: float) -> float:
    """n*lambda over the panel's training rows; ridge is active exactly when lambda > 0."""
    return panel.n_train * _check_lambda(lam)


def _filtered_factor(panel: OperatorPanel,
                     lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, f, V)`` with the fit map ``V diag(f) U^H``, from the panel's factor.

    Unregularized, f = 1/s over the numerical rank and U, V keep those
    columns; under ridge, f = s / (s**2 + n*lambda) over every singular value.
    """
    shift = _ridge_shift(panel, lam)
    factor = panel.factor
    s = factor.singular_values
    if not shift:
        r = factor.numerical_rank
        return factor.left_vectors[:, :r], 1.0 / s[:r], factor.right_vectors[:, :r]
    return factor.left_vectors, s / (s**2 + shift), factor.right_vectors


def _fit_map(panel: OperatorPanel, lam: float) -> np.ndarray:
    """Dense map ``V diag(f) U^H`` from training labels to fitted modeled coefficients.

    pinv(T_M) unregularized; under ridge it equals pinv([T_M; sqrt(n*lambda) I])
    applied to zero-padded labels.
    """
    u, f, v = _filtered_factor(panel, lam)
    return (v * f) @ u.conj().T


def ridge_panels(panel: OperatorPanel, lam: float) -> tuple[np.ndarray, float]:
    """Augmented modeled training block and the norm of its pseudoinverse.

    Asserts the shifted-spectrum identity: each singular value of the
    augmented block equals sqrt(sigma_i**2 + n*lambda) over the m base
    singular values (zeros included, taken from the panel's factor), to 1e-9
    relative.  The returned norm is bounded by 1/sqrt(n*lambda) whenever
    lambda is positive.
    """
    shift = _ridge_shift(panel, lam)
    x = panel.train_modeled
    aug = np.vstack([x, np.sqrt(shift) * np.eye(panel.m, dtype=x.dtype)])
    if not shift:
        return aug, panel.factor.pinv_norm()
    s_aug = np.linalg.svd(aug, compute_uv=False)
    s_base = panel.factor.singular_values
    padded = np.zeros(panel.m)
    padded[: s_base.size] = s_base
    expected = np.sqrt(padded**2 + shift)
    scale = max(float(expected[0]), 1.0)
    if not np.allclose(s_aug, expected, rtol=1e-9, atol=1e-12 * scale):
        worst = float(np.max(np.abs(s_aug - expected)))
        raise DecompositionMismatchError(
            f"augmented spectrum deviates from sqrt(sigma^2 + n*lambda) by {worst:.3e}"
        )
    return aug, float(1.0 / s_aug[-1])


def aliasing_operator(panel: OperatorPanel, lam: float = 0.0) -> np.ndarray:
    """Pseudoinverse of the modeled training block applied to the nescient block."""
    return _fit_map(panel, lam) @ panel.train_nescient


def b_operator(panel: OperatorPanel, lam: float = 0.0) -> np.ndarray:
    """Map from true modeled coefficients to their fitted expectation.

    Unregularized this is the orthogonal projector onto the row space of the
    modeled training block (identity minus the kernel projector); with ridge
    it contracts instead of projecting.
    """
    return _fit_map(panel, lam) @ panel.train_modeled


def infer_theta(panel: OperatorPanel, y_train, lam: float = 0.0) -> np.ndarray:
    """Minimum-norm least-squares fit, zero-padded to the full budget length."""
    y = as_vector(y_train, length=panel.n_train)
    theta_m = _fit_map(panel, lam) @ y
    out = np.zeros(panel.budget, dtype=theta_m.dtype)
    out[: panel.m] = theta_m
    return out


def invertibility_operator(panel: OperatorPanel, lam: float = 0.0) -> np.ndarray:
    """Block operator of fitting bias on modeled coordinates and identity on nescient ones.

    The modeled block is the kernel projector of the training design
    (unregularized) or identity minus the ridge-contracted map; the nescient
    block is always the identity, so the overall norm is 1 whenever any
    coordinate is unmodeled.
    """
    m, total = panel.m, panel.budget
    if _ridge_shift(panel, lam):
        top = np.eye(m) - b_operator(panel, lam)
    else:
        top = panel.factor.kernel_projector()
    dtype = top.dtype
    out = np.zeros((total, total), dtype=dtype)
    out[:m, :m] = top
    out[m:, m:] = np.eye(total - m, dtype=dtype)
    return out


def _modeled_signal(panel: OperatorPanel, coefficients: np.ndarray) -> np.ndarray:
    """Signal on training then prediction rows of modeled-only coefficients."""
    return np.concatenate([panel.train_modeled @ coefficients, panel.pred_modeled @ coefficients])


def risk_and_errors(panel: OperatorPanel, theta, y_full, lam: float = 0.0,
                    identity_tol: float = 1e-8) -> RiskReport:
    """Fit from the training labels and break the prediction error apart.

    ``y_full`` must be the noiseless synthesis ``M_full @ theta`` over the
    training then prediction rows; only its training slice reaches the fit,
    so the decomposition itself stays label independent.  The panel's factor
    is applied to vectors: the aliasing operator enters only through its core
    ``C = f * (U^H T_U)``, which gives ``norm_A`` and ``alias_error``.
    Verifies that the fitted signal equals the operator-route reconstruction
    ``B theta_m + A theta_u`` to ``identity_tol`` relative and records the
    residual.
    """
    theta = as_vector(theta, length=panel.budget)
    n = panel.n_train
    y = as_vector(y_full, length=n + panel.pred_modeled.shape[0])
    u, f, v = _filtered_factor(panel, lam)
    uh = u.conj().T
    core = f[:, None] * (uh @ panel.train_nescient)
    theta_m_hat = v @ (f * (uh @ y[:n]))
    theta_hat = np.zeros(panel.budget, dtype=theta_m_hat.dtype)
    theta_hat[: panel.m] = theta_m_hat
    y_hat = _modeled_signal(panel, theta_m_hat)

    theta_m, theta_u = theta[: panel.m], theta[panel.m :]
    fitted_m = v @ (f * (uh @ (panel.train_modeled @ theta_m)))
    aliased = core @ theta_u
    y_check = _modeled_signal(panel, fitted_m + v @ aliased)
    scale = max(float(np.linalg.norm(y_hat)), float(np.linalg.norm(y)), 1e-300)
    residual = float(np.linalg.norm(y_hat - y_check)) / scale
    if residual > identity_tol:
        raise DecompositionMismatchError(
            f"fitted signal deviates from the operator route by {residual:.3e} relative"
        )

    if lam > 0:
        bias_vec = theta_m - fitted_m
    elif panel.rank == panel.m:
        # empty kernel (rank = m <= n): the bias is zero up to rounding.  It
        # is read off the m x m projector, no dearer than the SVD here, because
        # the benchmark's one-row fourier_check reference stores that
        # rounding-level value and has no column scale to floor it
        bias_vec = panel.factor.kernel_projector() @ theta_m
    else:
        bias_vec = theta_m - v @ (v.conj().T @ theta_m)
    sq = np.abs(y - y_hat) ** 2
    return RiskReport(
        theta_hat=theta_hat,
        norm_A=spectral_norm(core),
        risk_all=float(sq.mean()),
        risk_prediction_only=float(sq[n:].mean()) if sq[n:].size else 0.0,
        alias_error=float(np.linalg.norm(aliased)),
        bias_error=float(np.linalg.norm(bias_vec)),
        nescience_error=float(np.linalg.norm(theta_u)),
        identity_residual=residual,
    )


def expected_unstructured_error(sigma2: float, dim_kernel: int, dim_nescient: int) -> float:
    """Expected squared invertibility error under i.i.d. mean-zero coefficients."""
    if sigma2 < 0 or dim_kernel < 0 or dim_nescient < 0:
        raise InvalidInputError("arguments must be nonnegative")
    return sigma2 * (dim_kernel + dim_nescient)


def _new_column_independent(block: np.ndarray, ranks: dict[int, int], m: int,
                             rel_tol: float) -> bool:
    """Whether column m raised the rank; ``ranks`` caches prefix ranks by column count."""
    if m - 1 not in ranks:
        ranks[m - 1] = spectrum(block[:, : m - 1], rel_tol)[1]
    return ranks[m] == ranks[m - 1] + 1


def _error_record(m: int, lam: float, exc: Exception) -> SweepRecord:
    nan = float("nan")
    return SweepRecord(
        m=m, norm_A=nan, norm_pinv_TM=nan, norm_M_TU=nan, alias_error=nan,
        bias_error=nan, nescience_error=nan, risk_all=nan,
        risk_prediction_only=nan, rank_TM=-1, new_col_independent=False,
        lam=lam, error=f"{type(exc).__name__}: {exc}",
    )


def _sweep_record(panel: OperatorPanel, lam: float, theta: np.ndarray, y_full: np.ndarray,
                  norm_nescient: float, independent: bool) -> SweepRecord:
    """The record at one (lambda, m): the ridge filter applied to the panel's shared factor."""
    if lam > 0:
        _, norm_pinv = ridge_panels(panel, lam)
    else:
        norm_pinv = panel.factor.pinv_norm()
    report = risk_and_errors(panel, theta, y_full, lam=lam)
    return SweepRecord(
        m=panel.m,
        norm_A=report.norm_A,
        norm_pinv_TM=float(norm_pinv),
        norm_M_TU=norm_nescient,
        alias_error=report.alias_error,
        bias_error=report.bias_error,
        nescience_error=report.nescience_error,
        risk_all=report.risk_all,
        risk_prediction_only=report.risk_prediction_only,
        rank_TM=panel.rank,
        new_col_independent=independent,
        lam=lam,
    )


def sweep(basis: BasisSpec, design: SampleDesign, theta_spec: ParameterSpec,
          m_range, *, lambdas: Sequence[float] = (0.0,), rel_tol: float = DEFAULT_REL_TOL,
          threads: int = 1) -> list[SweepRecord]:
    """One risk-anatomy record per (lambda, m), in one upward loop over m.

    The operator is evaluated and checked once.  Each step over m builds the
    panel, whose one SVD every lambda shares, takes ``||T_U||``, stores the
    rank of the modeled block and reads the independence flag of column m
    off the rank at m - 1: stored when the previous size was swept, otherwise
    taken from a values-only SVD of the column prefix.  Each lambda then
    filters that factor (``ridge_panels`` with its spectrum check, and
    ``risk_and_errors`` with its identity check).

    An empty or out-of-budget m range, an empty lambda list, or a negative or
    non-finite lambda raises :class:`InvalidInputError` before the operator
    is evaluated; -0.0 is reported as 0.0.  Past those checks a failure
    never aborts the sweep: it yields a record carrying the error message.
    When the panel, ``||T_U||`` or the flag fails at m, every
    lambda gets an error row there; the rank is stored only once the panel
    and the norm have succeeded.  When one lambda's ridge norm or risk fails,
    only that row gets an error, and the rank, which does not depend on
    lambda, is still stored.  Records come back lambda-major, in the
    caller's lambda order (duplicates kept), each lambda sorted by m, and are
    deterministic for fixed seeds.
    """
    # the sweep is serial; ``threads`` stays only because perfbench/child.py passes it
    if threads != 1:
        raise InvalidInputError(f"the sweep runs serially; threads must be 1, got {threads}")
    budget = basis.column_budget
    ms = sorted({int(m) for m in m_range})
    if not ms:
        raise InvalidInputError("empty model-size range")
    if ms[0] < 1 or ms[-1] > budget:
        raise InvalidInputError(f"model sizes must lie in [1, {budget}]")
    if theta_spec.length != budget:
        raise InvalidInputError(
            f"coefficient length {theta_spec.length} does not match budget {budget}"
        )
    if not lambdas:
        raise InvalidInputError("empty lambda list")
    lams = [_check_lambda(lam) for lam in lambdas]
    M_full = evaluate_columns(basis, design.all_points, (0, budget))
    theta = make_theta(theta_spec)
    try:
        operator = _FiniteOperator(M_full)
    except InvalidInputError as exc:
        return [_error_record(m, lam, exc) for lam in lams for m in ms]
    y_full = operator.matrix @ theta
    train_block = operator.matrix[: design.n_train]

    ranks = {0: 0}
    rows: list[list[SweepRecord]] = [[] for _ in lams]  # one list per lambda
    for m in ms:
        try:
            panel = build_panels(operator, design, m, rel_tol)
            norm_nescient = spectral_norm(panel.train_nescient) if m < budget else 0.0
            ranks[m] = panel.rank
            independent = _new_column_independent(train_block, ranks, m, rel_tol)
        except (GadkitError, np.linalg.LinAlgError) as exc:
            for lam, out in zip(lams, rows):
                out.append(_error_record(m, lam, exc))
            continue
        for lam, out in zip(lams, rows):
            try:
                out.append(_sweep_record(panel, lam, theta, y_full, norm_nescient, independent))
            except (GadkitError, np.linalg.LinAlgError) as exc:
                out.append(_error_record(m, lam, exc))
    return [record for out in rows for record in out]
