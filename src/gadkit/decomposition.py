"""Block partition of the extended operator and the norm/risk sweep engine.

Given the operator over training plus prediction rows, a model size m
splits its columns into a modeled prefix and a nescient remainder.  The
aliasing operator (pseudoinverse of the modeled training block applied to
the nescient training block) describes how unmodeled coefficients leak into
the fitted ones.  Sweeping m produces the label-independent anatomy of the
risk curve.

Every per-m quantity derives from one reduced SVD of the modeled training
block, T_M = U diag(s) V^H.  The fit map is V diag(f) U^H with one filter
vector f: 1/s over the numerical rank and 0 past it when lambda = 0,
s / (s**2 + n*lambda) under ridge.  Lambda is a plain float, active exactly when it is
positive, so lambda = 0 takes the unregularized path and the two agree.
The sweep applies the factor to vectors and forms neither the fit map, B
nor the aliasing operator: A = V C with the small core C = diag(f) W and
W = U^H T_U, so ||A|| = ||C|| and the alias error is ||f * (W theta_u)||.
The dense :func:`aliasing_operator` is for ``fourier_check``, which compares
it entry by entry with the exact aliasing map.

:func:`sweep_steps` is the one loop over model sizes: it evaluates the
operator once, in row blocks, then walks m upward with lambda inside and
gives each m's panel, with its one factor, and that m's rows.  A recipe
that needs more of a panel than its rows reads it there instead of
evaluating and factoring again; :func:`sweep` keeps only the rows.  Each block is
checked for finite entries and folded into ``y = M theta``, and the sweep
keeps only what its steps read: the training rows over every column, and
the prediction rows over the first ``max(m)`` columns, which a step reads
only through the modeled prediction block P_M.  No array of every row and
every column is held (see :class:`_FiniteOperator`).

The nescient side, ||T_U|| and the core's Gram, takes one of two routes,
chosen by the shape of T_U as :func:`linalg.gram` chooses its side.  While
T_U is at least as wide as it is tall (p - m >= n), it needs T_U only
through the n x n Gram G = T_U T_U^H, and the sweep holds one
power-of-two-scaled G from step to step: formed at the first such m, then
downdated by the columns that leave T_U, and formed again from T_U when its
trace has shrunk 2**10-fold or strays from the exact squared norm of T_U.
||T_U||**2 is the largest eigenvalue of G and the core's Gram is
K = U^H G U, so W is never formed.  Once T_U is thinner than n, G is
dropped and each step takes ||T_U|| (:func:`linalg.spectral_norm`, 0 for
an empty T_U) and W from T_U itself, and each lambda's core Gram is
:func:`linalg.gram` of its scaled core, on whichever side of the core is
smaller.  :meth:`_NescientGram.at` is the one place that makes this
choice, for the sweep and for :func:`risk_and_errors` alike; the exact
column norms that its drift check reads are summed when it first forms a
Gram, so a range wholly on the thin side pays nothing for them.

T_M gains one column per step, and the sweep carries its factor up: the
SVD of T_{m-1} takes column m by Brand's rank-one update
(:func:`linalg.svd_append`): O((n + m) k**2) products and one LAPACK SVD of
a (k + 1)-square arrow, of its values alone where the arrow's secular
equation gives the vectors and with vectors elsewhere, against an SVD of
the n x m block afresh.  T_M
is factored afresh by ``linalg.svd`` at the first m of a range, after a gap,
after a factor that raised or failed its check, where the update's residual
is exactly 0, and at least every ``CARRY_LIMIT`` model sizes.  Every factor,
afresh or carried, is checked against the held training rows before any
step reads it (:func:`_checked_factor`, O(n m)); a failure makes every
lambda at that m an error row, and only a factor that passed is kept.  A
chain ranks every factor at the ``rel_tol`` of the SVD afresh it started
from.  The independence flag of column m compares the rank of T_M with
that of T_{m-1}, which is recorded with each factor given: the rank of the
kept factor when that is of T_{m-1}, 0 at m = 1, and otherwise (at the
first m of a range past m = 1, after a gap, after a failed factor) that of
a values-only SVD of the column prefix.  So the sweep carries three things
from one m to the next: the checked factor of T_M, the rank of T_{m-1}
recorded with it (both held by :class:`_FiniteOperator`), and the Gram of
T_U (:class:`_NescientGram`).  Lambda never touches them.

At each m one object holds the products of the factor that no lambda changes:
U^H y_train, U^H (T_M theta_m), U^H (T_U theta_u) = W theta_u, and the
Gram of W on the Gram side or W itself on the thin side.  The fitted-signal
identity is checked on them once per m, before any filter, which would only
amplify their rounding (see :func:`_identity_residual`).  Each lambda is
then only filter work on those products.  When some lambda is active, the
step takes one values-only SVD of T_M afresh, whose k = min(n, m) values
check the ridge spectrum of every active lambda (see
:func:`_ridge_spectrum`), and the norms of A of all lambdas are one stacked
``eigvalsh`` call.  No lambda's arithmetic depends on the others in the
list, so every row is exactly what a sweep over its lambda alone gives.
Each step's arrays, G and the carried factor aside, are freed before the
next m is factored.
:func:`risk_and_errors` and :func:`ridge_panels` are the same route for one
lambda.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .bases import BasisSpec, evaluate_columns
from .designs import ParameterSpec, SampleDesign, make_theta
from .errors import DecompositionMismatchError, GadkitError, InvalidInputError
from .linalg import (BLOCK, DEFAULT_REL_TOL, SvdResult, _check_rel_tol, as_matrix, as_vector,
                     blocks, gram, ldexp, row_peaks, scaled_gram, scaled_root, spectral_norm,
                     spectrum, svd, svd_append)
from .linalg import kernel_projector, pseudoinverse  # noqa: F401  (perfbench/spans.py wraps these)

# tolerance of the fitted-signal identity that every model size checks, relative to ||y||
IDENTITY_TOL = 1e-8

# tolerance of the factor check that every model size makes (see _checked_factor):
# the residuals of T_M V = U diag(s) and T_M^H U = V diag(s) on a probe x,
# relative to sigma_max ||x||, and the orthonormality defects of U and V on x,
# relative to ||x||.  Over every shipped config's whole sweep at seed 0, fresh
# and carried factors read at most 2.5e-14; V one part in 1e6 off reads 1e-6
FACTOR_TOL = 1e-10

# A sweep factors T_M afresh at least every CARRY_LIMIT model sizes: after
# CARRY_LIMIT - 1 consecutive carried factors the next is an SVD afresh, so
# that the rounding of the updates cannot pile up.  Carried with no refresh
# over m 1-700 of the shipped Ising sweeps and m 1-400 of the random-feature
# sweeps, the factor drifts by about 1e-15 per update: its singular values
# stay within 1.8e-13 sigma_max of an SVD afresh, and it reconstructs T_M and
# keeps U and V orthonormal to 8e-13.  So a chain of 100 drifts to about 1e-13,
# a thousandth of FACTOR_TOL, and a 40-step window pays one SVD afresh
CARRY_LIMIT = 100

# The Gram of T_U that the sweep holds is formed again from T_U itself once
# the exact squared norm of T_U has fallen by REFACTOR_FALL since the Gram was
# last formed, so that downdating never cancels more than 10 of its bits, or
# once the held Gram's trace departs from that exact value by more than
# TRACE_GAP_TOL of it.  The shipped sweeps downdate with trace gaps of at most
# 1.2e-15; a column left in the Gram by mistake opens a gap of its own share.
REFACTOR_FALL = 2.0**10
TRACE_GAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorPanel:
    """The blocks of the extended operator at one model size.

    ``train`` is the training rows over every column and ``pred`` the
    prediction rows over at least the first m columns; ``train_modeled``,
    ``train_nescient`` and ``pred_modeled`` are views of them.
    """

    m: int
    train: np.ndarray
    pred: np.ndarray
    # of train_modeled: the one factorization at this model size, afresh or
    # carried up from the last, and checked against train_modeled either way
    factor: SvdResult

    @property
    def rank(self) -> int:
        return self.factor.numerical_rank

    @property
    def n_train(self) -> int:
        return self.train.shape[0]

    @property
    def budget(self) -> int:
        return self.train.shape[1]

    @property
    def train_modeled(self) -> np.ndarray:
        return self.train[:, : self.m]

    @property
    def train_nescient(self) -> np.ndarray:
        return self.train[:, self.m :]

    @property
    def pred_modeled(self) -> np.ndarray:
        return self.pred[:, : self.m]


@dataclass(frozen=True)
class SweepRecord:
    """One row of the risk anatomy at a given model size.

    Its fields, in order and by their declared types, are the frozen columns
    of ``sweep.csv`` (see :func:`experiments.format_record`).
    """

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

    The five error and risk fields are the ones :func:`_fit` gives a sweep
    row, and ``theta_hat`` is its fit over the modeled columns, zero over the
    rest of the budget.  ``norm_A`` is the spectral norm of the aliasing
    operator, taken from the same core that gives ``alias_error``.
    ``identity_residual`` is the model size's, read off the products before
    the filter.
    """

    theta_hat: np.ndarray
    norm_A: float
    risk_all: float
    risk_prediction_only: float
    alias_error: float
    bias_error: float
    nescience_error: float
    identity_residual: float


@dataclass(frozen=True, eq=False)
class _SharedProducts:
    """The products at one model size that no lambda changes.

    With ``T_M = U diag(s) V^H`` over k singular values and ``W = U^H T_U``,
    the k x 3 ``coefficients`` hold ``U^H y_train``, ``U^H (T_M theta_m)``
    and ``U^H (T_U theta_u) = W theta_u`` as columns; ``V diag(f)`` maps them
    to ``theta_hat``, ``B theta_m`` and ``A theta_u``; ``identity_residual``
    is :func:`_identity_residual` of them.  ``nescience`` is ``||theta_u||``.

    ``W_s = W * 2**-w_exponent`` is the core's scaled form, and
    ``row_scales`` bounds the modulus of each row of W_s.  Two routes give
    them, by the route rule of the module docstring:

    - the Gram side: from the scaled Gram ``G = T_U T_U^H * 4**-w_exponent``
      that :meth:`_NescientGram.at` gives, ``gram`` is ``K = U^H G U = W_s W_s^H``
      and ``row_scales`` its row norms ``sqrt(diag K)``.  W is never formed.
    - the thin side: W is formed and scaled so that its largest modulus lies
      in [0.5, 1), and ``row_scales`` holds each row's largest modulus.
      ``w_scaled`` is W_s, and each lambda takes the Gram of its own core
      (see :func:`_alias_gram`).

    So ``gram`` is None on the thin side and ``w_scaled`` None on the Gram side.
    """

    panel: OperatorPanel
    y: np.ndarray  # labels over the training then prediction rows
    theta_m: np.ndarray
    nescience: float
    coefficients: np.ndarray
    identity_residual: float
    w_scaled: np.ndarray | None
    w_exponent: int
    row_scales: np.ndarray
    gram: np.ndarray | None


class _FiniteOperator:
    """The rows of the operator that a sweep reads, evaluated once, in row blocks.

    Each block of rows that :func:`linalg.blocks` gives for ``BLOCK`` is
    evaluated over every column by one :func:`evaluate_columns` call, which
    gives every entry the bits of one call over all rows.  The block is
    checked for finite entries and folded into ``y = M theta``, and only two
    parts of it are kept: ``train``, the training rows over every column,
    and ``pred``, the prediction rows over the first ``width`` columns.  No
    array of every row and every column is held.

    ``error`` is the :class:`InvalidInputError` of the first block with a
    non-finite entry, or None.  The blocks after it are still evaluated, so
    that an evaluation error raises as it would from one call over all rows.
    :func:`build_panels` takes the object without checking it again, and
    asks it for the factor of T_M (:meth:`factor_at`).  The object carries
    that factor from one model size to the next as the module docstring
    states, and ``prior_rank`` is the rank of T_{m-1} at the last m it
    gave a factor for.
    """

    __slots__ = ("train", "pred", "y", "error", "prior_rank", "_factor", "_carried")

    def __init__(self, basis: BasisSpec, design: SampleDesign, width: int, theta: np.ndarray):
        points = design.all_points
        self.error: InvalidInputError | None = None
        self._factor: SvdResult | None = None  # the last checked factor of T_M
        self._carried = 0  # how many updates it is from its SVD afresh
        self.prior_rank = 0  # the rank of T_{m-1} at the last factor_at(m)
        for rows in blocks(points.shape[0], BLOCK):
            # the block lives only in _keep, so it is freed before the next is evaluated
            self._keep(rows, evaluate_columns(basis, points[rows], (0, basis.column_budget)),
                       design, width, theta)

    def _keep(self, rows: slice, block: np.ndarray, design: SampleDesign, width: int,
              theta: np.ndarray) -> None:
        """Check one row block, fold it into y and keep its training and prediction parts."""
        if self.error is not None:
            return
        try:
            block = as_matrix(block)
        except InvalidInputError as exc:
            self.error = exc
            return
        n, total = design.n_train, design.n_train + design.prediction_points.shape[0]
        if rows.start == 0:
            self.train = np.empty_like(block, shape=(n, block.shape[1]))
            self.pred = np.empty_like(block, shape=(total - n, width))
            self.y = np.empty(total, dtype=np.result_type(block, theta))
        self.y[rows] = block @ theta
        cut = min(max(n - rows.start, 0), block.shape[0])  # the block's training rows
        self.train[rows.start : rows.start + cut] = block[:cut]
        if cut < block.shape[0]:
            self.pred[rows.start + cut - n : rows.stop - n] = block[cut:, :width]

    def factor_at(self, m: int, rel_tol: float) -> SvdResult:
        """The checked reduced SVD of T_M, the first m training columns.

        When the last factor given was of T_{m-1} and fewer than
        ``CARRY_LIMIT - 1`` updates from an SVD afresh, column m is appended
        to it (:func:`linalg.svd_append`); otherwise, and when the update
        gives None, T_M is factored afresh.  Either way the factor must pass
        :func:`_checked_factor` before it is given and kept.  A factor that
        raises or fails its check is not kept, so the next m starts afresh.
        Once the factor is kept, ``prior_rank`` is set to the rank of
        T_{m-1}: the last factor's if it was of T_{m-1}, 0 at m = 1, and
        otherwise that of a values-only SVD of the column prefix.  So a
        prefix SVD that raises still leaves the factor kept for m + 1.
        """
        last, self._factor = self._factor, None
        block = self.train[:, :m]
        held = last is not None and last.right_vectors.shape[0] == m - 1
        prior = last.numerical_rank if held else 0
        factor = (svd_append(last, self.train[:, m - 1])
                  if held and self._carried < CARRY_LIMIT - 1 else None)
        del last  # freed before an SVD afresh
        if factor is None:
            factor, carried = svd(block, rel_tol), 0
        else:
            carried = self._carried + 1
        self._factor, self._carried = _checked_factor(block, factor), carried
        if not held and m > 1:
            prior = spectrum(self.train[:, : m - 1], rel_tol)[1]
        self.prior_rank = prior
        return factor


class _NescientGram:
    """``||T_U||`` at each model size of a sweep, and the scaled Gram of T_U on the Gram side.

    :meth:`at` is the one place that applies the route rule of the module
    docstring.  On the Gram side it gives ``G = T_U T_U^H * 4**-e`` at model
    size m together with e.  G is formed from T_U at the first such m and
    then downdated: the columns that left T_U since the last m, scaled by
    ``2**-e``, are taken out as one ``x x^H``.  Drift is held against the
    exact squared norms of the columns, summed once, from the last column
    back, when the first Gram is formed.  The Gram is formed again from T_U,
    with a fresh e, when that exact trace has fallen by ``REFACTOR_FALL``
    since the Gram was last formed, or when the held Gram's trace departs
    from it by more than ``TRACE_GAP_TOL`` relative.  A refactor costs one
    Gram of T_U.  Where the columns have comparable norms the trace shrinks
    with the width of T_U, so a refactor waits until T_U has narrowed about
    ``REFACTOR_FALL``-fold.
    """

    __slots__ = ("train", "gram", "exponent", "m", "_unit", "_suffix", "_formed_at")

    def __init__(self, train: np.ndarray):
        self.train = train  # the operator's training rows
        # _refactor sets the Gram's exponent, m and _formed_at with it
        self.gram: np.ndarray | None = None
        self._suffix: np.ndarray | None = None  # summed when the first Gram is formed

    def at(self, m: int) -> tuple[float, tuple[np.ndarray, int] | None]:
        """``||T_U||`` at model size m, which is no smaller than the last, and the Gram and e.

        The Gram and e are None on the thin side, where the norm is
        :func:`linalg.spectral_norm` of T_U.
        """
        if self.train.shape[1] - m < self.train.shape[0]:  # p - m < n
            self.gram = None  # T_U is thinner than n from here on
            return spectral_norm(self.train[:, m:]), None
        if self.gram is None or float(self._suffix[m]) * REFACTOR_FALL < self._formed_at:
            self._refactor(m)
        else:
            x = ldexp(self.train[:, self.m : m], -self.exponent)
            self.gram -= x @ x.conj().T
            self.m = m
            expected = math.ldexp(float(self._suffix[m]), 2 * (self._unit - self.exponent))
            if abs(float(np.trace(self.gram).real) - expected) > TRACE_GAP_TOL * expected:
                self._refactor(m)
        norm = scaled_root(float(_top_eigenvalue(self.gram)), self.exponent)
        return norm, (self.gram, self.exponent)

    def _refactor(self, m: int) -> None:
        self.gram = None  # freed before the new Gram is formed
        if self._suffix is None:
            # squared column norms in units of 4**unit, so that none overflows
            self._unit = math.frexp(float(row_peaks(self.train).max(initial=0.0)))[1]
            squares = np.empty(self.train.shape[1])
            for cols in blocks(self.train.shape[1], BLOCK):
                squares[cols] = (np.abs(ldexp(self.train[:, cols], -self._unit)) ** 2).sum(axis=0)
            # _suffix[m] is the squared norm of T_U at model size m
            self._suffix = np.append(np.cumsum(squares[::-1])[::-1], 0.0)
        self.gram, self.exponent = scaled_gram(self.train[:, m:])
        self.m, self._formed_at = m, float(self._suffix[m])


def build_panels(M_full, design: SampleDesign, m: int,
                 rel_tol: float = DEFAULT_REL_TOL) -> OperatorPanel:
    """Split the operator into its training and prediction rows at model size m.

    ``M_full`` is the full operator, its rows ordered training first, then
    prediction, or a sweep's :class:`_FiniteOperator`, whose prediction rows
    cover only the model sizes it sweeps.  The modeled columns are the first
    m under the basis ordering already baked into the operator.
    """
    n = design.n_train
    if isinstance(M_full, _FiniteOperator):
        train, pred = M_full.train, M_full.pred
    else:
        full = as_matrix(M_full)
        total_rows = n + design.prediction_points.shape[0]
        if full.shape[0] != total_rows:
            raise InvalidInputError(
                f"operator has {full.shape[0]} rows, design implies {total_rows}"
            )
        train, pred = full[:n], full[n:]
    width = pred.shape[1]
    if not 1 <= m <= width:
        raise InvalidInputError(f"model size {m} outside [1, {width}]")
    if isinstance(M_full, _FiniteOperator):
        factor = M_full.factor_at(int(m), rel_tol)
    else:
        factor = _checked_factor(train[:, :m], svd(train[:, :m], rel_tol))
    return OperatorPanel(m=int(m), train=train, pred=pred, factor=factor)


def _checked_factor(block: np.ndarray, factor: SvdResult) -> SvdResult:
    """The factor of ``block``, once it checks against the block's own entries.

    A Freivalds-style check (Freivalds, IFIP 1977) at O(rows cols) that
    shares no arithmetic with how the factor was made: with ``U diag(s) V^H``
    over k singular values and two fixed-seed Gaussian probes x and y of
    length k, ``T_M (V x) = U (s * x)`` and ``T_M^H (U y) = V (s * y)`` must
    hold to ``FACTOR_TOL * sigma_max`` times the probe's norm, and
    ``U^H (U x) = x`` and ``V^H (V x) = x`` to ``FACTOR_TOL`` times it.  A
    swapped, rescaled or sign-flipped singular vector breaks one of them.
    Raises :class:`DecompositionMismatchError` otherwise.  No output reads
    the probes.
    """
    u, s, v = factor.left_vectors, factor.singular_values, factor.right_vectors
    x, y = np.random.default_rng(0).standard_normal((2, s.size))
    scale = FACTOR_TOL * float(s[0] if s.size else 0.0)
    size = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    # A^H z is taken as the conjugate of z^H A, which copies no matrix
    defects = (
        ("T_M V = U diag(s)", np.linalg.norm(block @ (v @ x) - u @ (s * x)), scale * size[0]),
        ("T_M^H U = V diag(s)",
         np.linalg.norm((u @ y).conj() @ block - (v @ (s * y)).conj()), scale * size[1]),
        ("U^H U = I", np.linalg.norm((u @ x).conj() @ u - x), FACTOR_TOL * size[0]),
        ("V^H V = I", np.linalg.norm((v @ x).conj() @ v - x), FACTOR_TOL * size[0]),
    )
    for name, defect, bound in defects:
        if not defect <= bound:
            raise DecompositionMismatchError(
                f"factor of T_M fails {name} by {float(defect):.3e} against {bound:.3e}"
            )
    return factor


def _shared_products(panel: OperatorPanel, theta, y_full,
                     nescient: tuple[np.ndarray, int] | None) -> _SharedProducts:
    """Form the lambda-free products of the panel's factor, once per model size.

    ``y_full`` must be the noiseless synthesis ``M_full @ theta`` over the
    training then prediction rows; only its training slice reaches the fit.
    ``nescient`` is the scaled Gram of T_U and its exponent on the Gram
    side, and None on the thin side, as :meth:`_NescientGram.at` gives them.
    """
    theta = as_vector(theta, length=panel.budget)
    y = as_vector(y_full, length=panel.n_train + panel.pred.shape[0])
    theta_m, theta_u = theta[: panel.m], theta[panel.m :]
    u = panel.factor.left_vectors
    uh = u.conj().T
    coefficients = np.stack([uh @ y[: panel.n_train], uh @ (panel.train_modeled @ theta_m),
                             uh @ (panel.train_nescient @ theta_u)], axis=1)
    residual = _identity_residual(coefficients, float(np.linalg.norm(y)))
    w_scaled = k_gram = None
    if nescient is not None:
        g_u, exponent = nescient
        k_gram = uh @ (g_u @ u)
        scales = np.sqrt(np.maximum(k_gram.diagonal().real, 0.0))
    else:
        w_scaled = uh @ panel.train_nescient
        peaks = row_peaks(w_scaled)
        exponent = math.frexp(float(peaks.max(initial=0.0)))[1]
        ldexp(w_scaled, -exponent, out=w_scaled)  # W_s, in the place of W
        scales = np.ldexp(peaks, -exponent)
    return _SharedProducts(
        panel=panel,
        y=y,
        theta_m=theta_m,
        nescience=float(np.linalg.norm(theta_u)),
        coefficients=coefficients,
        identity_residual=residual,
        w_scaled=w_scaled,
        w_exponent=exponent,
        row_scales=scales,
        gram=k_gram,
    )


def _check_lambda(lam: float) -> float:
    """A ridge strength, once it is known to be finite and nonnegative; -0.0 reads 0.0."""
    if not 0.0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be finite and nonnegative, got {lam}")
    return float(lam) if lam > 0 else 0.0


def _ridge_shift(panel: OperatorPanel, lam: float) -> float:
    """n*lambda over the panel's training rows; ridge is active exactly when lambda > 0."""
    return panel.n_train * _check_lambda(lam)


def _filter(panel: OperatorPanel, shift: float) -> np.ndarray:
    """The filter f of the fit map ``V diag(f) U^H``, one entry per singular value.

    Unregularized (``shift`` = 0), f = 1/s over the numerical rank and 0 past
    it; under ridge, f = s / (s**2 + shift) with ``shift`` = n*lambda.
    """
    s = panel.factor.singular_values
    if shift:
        return s / (s**2 + shift)
    f = np.zeros_like(s)
    r = panel.rank
    f[:r] = 1.0 / s[:r]
    return f


def _stacked(call, keys: list[int], stack: np.ndarray):
    """``call`` over a stack of matrices, made once for all of them, looked up by key.

    ``keys`` names the matrices of the stack in order.  When the one call
    raises :class:`numpy.linalg.LinAlgError`, each lookup makes it again on
    its own matrix, so the error reaches only the rows whose matrix causes it.
    """
    try:
        return dict(zip(keys, call(stack))).__getitem__
    except np.linalg.LinAlgError:
        return lambda key: call(stack[keys.index(key), None])[0]


def _top_eigenvalue(stack: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(stack)[..., -1]


def _ridge_spectrum(panel: OperatorPanel) -> np.ndarray:
    """The k = min(n, m) singular values of T_M from a values-only LAPACK SVD of the held block.

    One call serves every active lambda at the panel's m: the ridge block
    ``[T_M; sqrt(n*lambda) I]`` has exactly the singular values
    ``sqrt(sigma**2 + n*lambda)`` over these, and ``sqrt(n*lambda)`` for its
    other m - k, since rank T_M <= n.  The call takes nothing from the
    panel's factor, so :func:`_checked_pinv_norm` holds the factor's
    singular values, carried or afresh, against a factorization of its own.
    """
    return np.linalg.svd(panel.train_modeled, compute_uv=False)


def _checked_pinv_norm(panel: OperatorPanel, shift: float, s_aug: np.ndarray) -> float:
    """``||pinv([T_M; sqrt(n*lambda) I])||`` off the k leading values ``s_aug``, once they check.

    ``s_aug``, ``sqrt(sigma**2 + n*lambda)`` over the spectrum of
    :func:`_ridge_spectrum`, must match ``sqrt(s**2 + n*lambda)`` over the
    factor's k singular values s.  The full block's other m - k singular
    values equal ``sqrt(n*lambda)``, so the norm is ``1 / sqrt(n*lambda)``
    when m > n.
    """
    expected = np.sqrt(panel.factor.singular_values**2 + shift)
    scale = max(float(expected[0]), 1.0)
    deviation = np.abs(s_aug - expected)
    # np.allclose(s_aug, expected, rtol=1e-9, atol=1e-12 * scale), NaN failing
    if not np.all(deviation <= 1e-12 * scale + 1e-9 * expected):
        raise DecompositionMismatchError(
            f"augmented spectrum deviates from sqrt(sigma^2 + n*lambda) by "
            f"{float(np.max(deviation)):.3e}"
        )
    least = float(s_aug[-1])
    if panel.m > s_aug.size:
        least = min(least, math.sqrt(shift))
    return 1.0 / least


def ridge_panels(panel: OperatorPanel, lam: float) -> float:
    """Norm of the pseudoinverse of the augmented block ``[T_M; sqrt(n*lambda) I]``.

    Asserts the shifted-spectrum identity: ``sqrt(sigma_i**2 + n*lambda)``
    over the k = min(n, m) values of :func:`_ridge_spectrum` equals it over
    the panel factor's singular values, to 1e-9 relative.  The norm is
    bounded by 1/sqrt(n*lambda) whenever lambda is positive, and equals it
    when m > n; at lambda = 0 it is the norm of pinv(T_M).
    """
    shift = _ridge_shift(panel, lam)
    if not shift:
        return panel.factor.pinv_norm()
    return _checked_pinv_norm(panel, shift, np.sqrt(_ridge_spectrum(panel)**2 + shift))


def aliasing_operator(panel: OperatorPanel, lam: float = 0.0) -> np.ndarray:
    """Dense fit map ``V diag(f) U^H`` applied to the nescient training block.

    The fit map is pinv(T_M) unregularized; under ridge it equals
    pinv([T_M; sqrt(n*lambda) I]) applied to zero-padded labels.
    """
    f = _filter(panel, _ridge_shift(panel, lam))
    factor = panel.factor
    return ((factor.right_vectors * f) @ factor.left_vectors.conj().T) @ panel.train_nescient


def _alias_gram(products: _SharedProducts, f: np.ndarray) -> tuple[np.ndarray, int] | None:
    """The Gram whose largest eigenvalue gives ``||A|| = ||diag(f) W||``, or None when A = 0.

    The core is scaled by a power of two that puts the largest of its row
    scales in [0.5, 1): ``g`` is f so rescaled, and the Gram is ``g K g`` on
    the Gram side and :func:`linalg.gram` of ``g W_s`` on the thin side,
    which takes the smaller side of that core.  Returns the Gram and the
    exponent that scales its root back.
    """
    peak = float(np.max(np.abs(f) * products.row_scales, initial=0.0))
    if peak == 0.0:
        return None
    exponent = math.frexp(peak)[1]
    g = np.ldexp(f, -exponent)
    if products.gram is not None:
        core_gram = (g[:, None] * products.gram) * g
    else:
        core_gram = gram(g[:, None] * products.w_scaled)
    return core_gram, exponent + products.w_exponent


def _identity_residual(coefficients: np.ndarray, y_norm: float) -> float:
    """``||U^H (y_train - T_M theta_m - T_U theta_u)||`` over ``||y||``, within ``IDENTITY_TOL``.

    It reads all k rows of ``coefficients``; every lambda's filter maps them alike.
    """
    y_coef, modeled, nescient = coefficients.T
    residual = float(np.linalg.norm(y_coef - (modeled + nescient))) / max(y_norm, 1e-300)
    if residual > IDENTITY_TOL:
        raise DecompositionMismatchError(
            f"fitted signal deviates from the operator route by {residual:.3e} relative"
        )
    return residual


def _fit(products: _SharedProducts, lam: float,
         f: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
    """One lambda's filter work on the checked products: its fit, risks and errors.

    Returns theta_hat over the m modeled columns and the five fit fields of
    the row, keyed by their :class:`SweepRecord` names: ``risk_all``,
    ``risk_prediction_only``, ``alias_error``, ``bias_error`` and
    ``nescience_error``.  A sweep row and :class:`RiskReport` both take them
    from here.
    """
    panel = products.panel
    n, v = panel.n_train, panel.factor.right_vectors
    filtered = f[:, None] * products.coefficients
    # the fit map V diag(f) U^H applied to y_train and T_M theta_m
    theta_m_hat, fitted_m = (v @ filtered[:, :2]).T
    y_hat = np.concatenate([panel.train_modeled @ theta_m_hat, panel.pred_modeled @ theta_m_hat])

    theta_m = products.theta_m
    if lam > 0:
        bias_vec = theta_m - fitted_m
    elif panel.rank == panel.m:
        # empty kernel (rank = m <= n): the bias is zero up to rounding.  It
        # is read off the m x m projector, no dearer than the SVD here, because
        # the benchmark's one-row fourier_check reference stores that
        # rounding-level value and has no column scale to floor it
        bias_vec = panel.factor.kernel_projector() @ theta_m
    else:
        v_r = v[:, : panel.rank]
        bias_vec = theta_m - v_r @ (v_r.conj().T @ theta_m)
    sq = np.abs(products.y - y_hat) ** 2
    return theta_m_hat, {
        "risk_all": float(sq.mean()),
        "risk_prediction_only": float(sq[n:].mean()) if sq[n:].size else 0.0,
        "alias_error": float(np.linalg.norm(filtered[:, 2])),
        "bias_error": float(np.linalg.norm(bias_vec)),
        "nescience_error": products.nescience,
    }


def risk_and_errors(panel: OperatorPanel, theta, y_full, lam: float = 0.0) -> RiskReport:
    """Fit from the training labels and break the prediction error apart.

    ``y_full`` must be the noiseless synthesis ``M_full @ theta`` over the
    training then prediction rows; only its training slice reaches the fit,
    so the decomposition itself stays label independent.  The panel's factor
    is applied to vectors: the aliasing operator enters only through its core
    ``C = diag(f) (U^H T_U)``, which gives ``norm_A`` and ``alias_error``.
    Verifies, before the filter, that the fit equals the operator-route
    reconstruction ``B theta_m + A theta_u`` to ``IDENTITY_TOL`` relative
    and records the residual.  It takes the sweep's own steps for one
    lambda, on one matrix where the sweep stacks all of them, with a
    :class:`_NescientGram` of the panel's own for its m.
    """
    _, nescient = _NescientGram(panel.train).at(panel.m)
    products = _shared_products(panel, theta, y_full, nescient)
    f = _filter(panel, _ridge_shift(panel, lam))
    alias = _alias_gram(products, f)
    norm_A = 0.0 if alias is None else scaled_root(float(_top_eigenvalue(alias[0])), alias[1])
    theta_m_hat, fit = _fit(products, lam, f)
    theta_hat = np.zeros(panel.budget, dtype=theta_m_hat.dtype)
    theta_hat[: panel.m] = theta_m_hat
    return RiskReport(theta_hat=theta_hat, norm_A=norm_A,
                      identity_residual=products.identity_residual, **fit)


def expected_unstructured_error(sigma2: float, dim_kernel: int, dim_nescient: int) -> float:
    """Expected squared invertibility error under i.i.d. mean-zero coefficients."""
    if sigma2 < 0 or dim_kernel < 0 or dim_nescient < 0:
        raise InvalidInputError("arguments must be nonnegative")
    return sigma2 * (dim_kernel + dim_nescient)


def _error_record(m: int, lam: float, exc: Exception) -> SweepRecord:
    nan = float("nan")
    return SweepRecord(
        m=m, norm_A=nan, norm_pinv_TM=nan, norm_M_TU=nan, alias_error=nan,
        bias_error=nan, nescience_error=nan, risk_all=nan,
        risk_prediction_only=nan, rank_TM=-1, new_col_independent=False,
        lam=lam, error=f"{type(exc).__name__}: {exc}",
    )


def _lambda_rows(products: _SharedProducts, lams: list[float], norm_nescient: float,
                 independent: bool) -> list[SweepRecord]:
    """The record of every lambda at the products' model size; a lambda that fails gets an error row.

    The active lambdas' spectrum checks share one :func:`_ridge_spectrum`,
    taken only when some lambda is active; when it raises ``LinAlgError``,
    every active lambda gets that error row.  The eigenvalue problems of
    every ``||A||`` are one stacked call.
    """
    panel = products.panel
    shifts = [panel.n_train * lam for lam in lams]
    filters = [_filter(panel, shift) for shift in shifts]
    try:
        sigma = _ridge_spectrum(panel) if any(shifts) else None
    except np.linalg.LinAlgError as exc:
        sigma = exc
    alias = {i: gram for i, f in enumerate(filters)
             if (gram := _alias_gram(products, f)) is not None}
    tops = (_stacked(_top_eigenvalue, list(alias), np.stack([g for g, _ in alias.values()]))
            if alias else None)
    records = []
    for i, (lam, shift, f) in enumerate(zip(lams, shifts, filters)):
        try:
            if shift and isinstance(sigma, np.linalg.LinAlgError):
                raise sigma
            norm_pinv = (_checked_pinv_norm(panel, shift, np.sqrt(sigma**2 + shift)) if shift
                         else panel.factor.pinv_norm())
            norm_A = scaled_root(float(tops(i)), alias[i][1]) if i in alias else 0.0
            _, fit = _fit(products, lam, f)
        except (GadkitError, np.linalg.LinAlgError) as exc:
            records.append(_error_record(panel.m, lam, exc))
            continue
        records.append(SweepRecord(m=panel.m, norm_A=norm_A, norm_pinv_TM=norm_pinv,
                                   norm_M_TU=norm_nescient, rank_TM=panel.rank,
                                   new_col_independent=independent, lam=lam, **fit))
    return records


def _step(operator: _FiniteOperator, design: SampleDesign, m: int, theta: np.ndarray,
          lams: list[float], rel_tol: float,
          nescient: _NescientGram) -> tuple[OperatorPanel | None, list[SweepRecord]]:
    """The panel at model size m and every lambda's record there, in the caller's lambda order.

    The panel is None when the step failed, and then every lambda has an
    error row.  ``operator`` and ``nescient`` carry what the module
    docstring says from one m to the next.  The shared products live only
    in this call, so that the sweep holds one model size's arrays at a time.
    """
    try:
        # the Gram advances before the panel is built, so that a failed panel
        # at this m leaves the Gram of every later m as it would have been;
        # on the thin side the scaled copy of T_U that ||T_U|| takes is freed
        # before W and its Gram are made
        norm_nescient, gram = nescient.at(m)
        panel = build_panels(operator, design, m, rel_tol)
        products = _shared_products(panel, theta, operator.y, gram)
    except (GadkitError, np.linalg.LinAlgError) as exc:
        return None, [_error_record(m, lam, exc) for lam in lams]
    independent = panel.rank == operator.prior_rank + 1
    return panel, _lambda_rows(products, lams, norm_nescient, independent)


def _steps(operator: _FiniteOperator, design: SampleDesign, ms: list[int], theta: np.ndarray,
           lams: list[float], rel_tol: float) -> Iterator[tuple[OperatorPanel | None,
                                                                 list[SweepRecord]]]:
    """The step loop over an evaluated operator: one :func:`_step` per m, upward."""
    if operator.error is not None:
        for m in ms:
            yield None, [_error_record(m, lam, operator.error) for lam in lams]
        return
    nescient = _NescientGram(operator.train)
    for m in ms:
        # yielded unbound, so that no step's panel outlives its consumer's hold
        yield _step(operator, design, m, theta, lams, rel_tol, nescient)


def sweep_steps(basis: BasisSpec, design: SampleDesign, theta_spec: ParameterSpec, m_range, *,
                lambdas: Sequence[float] = (0.0,), rel_tol: float = DEFAULT_REL_TOL
                ) -> Iterator[tuple[OperatorPanel | None, list[SweepRecord]]]:
    """The sweep one model size at a time: ``(panel, rows)`` for each m, upward.

    Checks the arguments and evaluates the operator as :func:`sweep` does,
    before it returns.  Each step then gives the panel that every lambda at
    m shares, whose factor is the one checked SVD of T_M there, carried up
    from the last m or made afresh, or None when the step failed, with that
    m's record for each lambda in the caller's order.
    :func:`lambda_major` puts the rows of every step in the order
    :func:`sweep` returns them.
    """
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
    _check_rel_tol(rel_tol)
    theta = make_theta(theta_spec)
    operator = _FiniteOperator(basis, design, ms[-1], theta)
    return _steps(operator, design, ms, theta, lams, rel_tol)


def lambda_major(rows: Iterable[list[SweepRecord]]) -> list[SweepRecord]:
    """Every step's records, each step's in lambda order, put lambda-major, each lambda by m."""
    return [record for column in zip(*rows) for record in column]


def sweep(basis: BasisSpec, design: SampleDesign, theta_spec: ParameterSpec,
          m_range, *, lambdas: Sequence[float] = (0.0,), rel_tol: float = DEFAULT_REL_TOL,
          threads: int = 1) -> list[SweepRecord]:
    """One risk-anatomy record per (lambda, m), in one upward loop over m.

    The rows of :func:`sweep_steps`, put lambda-major; each step's panel is
    dropped as soon as its rows are kept.  The operator is evaluated once,
    in row blocks, and every entry is checked for finite values.  Each step
    over m takes ``||T_U||``, builds the panel, whose one SVD every lambda
    shares, forms the lambda-free products of that factor, and checks the
    fitted-signal identity on them.  Each lambda then filters those
    products: the ridge pseudoinverse norm with its spectrum check, and the
    fit.  The spectrum checks of all active lambdas share one values-only
    SVD of T_M (see :func:`_ridge_spectrum`), taken only when some lambda is
    active, and the eigenvalue problems of every ``||A||`` are one stacked
    call.

    The module docstring states the route of the nescient side and, in its
    paragraph on the carried factor, what the sweep carries from one m to
    the next and where the independence flag reads the rank of T_{m-1}.  A
    strided range downdates the Gram of T_U by all of a gap's columns at
    once.  The Gram advances before the panel is built, so a step that
    fails leaves every other step's Gram as it would have been.  A failure
    past the factor (the prefix SVD of the flag, the identity check, one
    lambda's fit) keeps the factor, so every other row stays as it would
    have been; a failed factor ends the chain, and the rows after it move
    by rounding.
    So does where the range starts: a window of a sweep matches the whole
    sweep's rows to rounding, not bit for bit, with ranks, flags and errors
    exactly.

    The operator is evaluated in the row blocks of :func:`linalg.blocks`
    for ``BLOCK``, one :func:`evaluate_columns` call over every column per
    block, and each block is freed before the next is evaluated.  The sweep
    keeps the training rows over every column and the prediction rows over
    the first ``max(m)`` columns, so a window at small m keeps the
    prediction rows over a small share of the columns.  One step is held at
    a time: a step's panel and products are freed before the next m is
    factored, and only its factor is kept, for the update.  The sweep's peak
    memory is therefore those kept rows plus the Gram of T_U plus the larger
    of one block's evaluation and one model size's working set (the factor,
    one Gram's temporary, and W on the thin side), plus the last U and V
    while the update forms the next, however many model sizes it walks.

    An empty or out-of-budget m range, an empty lambda list, a negative or
    non-finite lambda, or a ``rel_tol`` outside (0, 1) raises
    :class:`InvalidInputError` before the operator is evaluated; -0.0 is
    reported as 0.0.  An error that evaluating the
    operator raises is raised.  Past those checks a failure never aborts the
    sweep: it yields a record carrying the error message.  A non-finite
    entry anywhere in the operator, in a column the sweep does not keep
    too, gives every (lambda, m) the error row of that check.
    When ``||T_U||`` or the Gram of T_U, the panel, its factor check or the
    prefix SVD of the flag, or the identity check fails at m, every lambda
    gets an error row there; the factor is kept once it has passed its
    check, so the flag at m + 1 reads its rank whatever fails after it.  When the SVD of T_M that
    the ridge checks share raises ``LinAlgError``, every active lambda at m
    gets an error row.  When one lambda's spectrum check, ``||A||`` or fit
    fails, only that row gets an error; a stacked ``eigvalsh`` call that
    raises ``LinAlgError`` is made again one lambda at a time, so that only
    the lambdas whose matrix fails get an error row.  Records come
    back lambda-major, in the caller's lambda order (duplicates kept), each
    lambda sorted by m, and are deterministic for fixed seeds.
    """
    # the sweep is serial; ``threads`` stays only because perfbench/child.py passes it
    if threads != 1:
        raise InvalidInputError(f"the sweep runs serially; threads must be 1, got {threads}")
    # only the rows are kept: each step's panel is dropped before the next m is factored
    return lambda_major(map(itemgetter(1), sweep_steps(basis, design, theta_spec, m_range,
                                                       lambdas=lambdas, rel_tol=rel_tol)))
