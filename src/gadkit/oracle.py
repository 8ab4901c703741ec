"""Independent reference fit used to certify the decomposition engine.

Conjugate-gradient least squares on the normal equations, started from zero
so every iterate stays in the row space and the limit is the minimum-norm
solution.  Deliberately shares no factorization code with :mod:`gadkit.linalg`
(no SVD anywhere): agreement between the two paths is evidence neither is
wrong.  Full reorthogonalization keeps the exact-arithmetic termination
property at desk scale; speed is a non-goal here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import SampleDesign
from .errors import InvalidInputError, NotConvergedError
from .linalg import as_matrix, as_vector

# convergence threshold on the normal-equation residual, relative to its start
CG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Reference fit with its risk and training residual."""

    theta_hat: np.ndarray
    risk: float
    residual_train: float


def oracle_fit(design_matrix, y_train, iterations: int | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution by conjugate gradients from zero.

    Converged when the normal-equation residual drops below ``CG_TOL``
    relative to its starting value; raises ``NotConvergedError`` with the
    achieved residual otherwise.
    """
    a = as_matrix(design_matrix)
    y = as_vector(y_train, length=a.shape[0])
    dtype = np.promote_types(a.dtype, y.dtype)
    a = a.astype(dtype, copy=False)
    m = a.shape[1]
    x = np.zeros(m, dtype=dtype)
    if m == 0 or min(a.shape) == 0:
        return x

    ah = a.conj().T
    r = y.astype(dtype, copy=True)
    s = ah @ r
    norm0 = float(np.linalg.norm(s))
    if norm0 == 0.0:
        return x
    p = s.copy()
    gamma = float(np.vdot(s, s).real)
    history = [s / np.linalg.norm(s)]
    max_iter = iterations if iterations is not None else 4 * min(a.shape) + 50

    achieved = 1.0
    for _ in range(max_iter):
        q = a @ p
        qq = float(np.vdot(q, q).real)
        if qq == 0.0:
            break
        alpha = gamma / qq
        x = x + alpha * p
        r = r - alpha * q
        s = ah @ r
        # reorthogonalize against earlier normal residuals so rounding cannot
        # reintroduce components already eliminated
        for basis_vec in history:
            s = s - np.vdot(basis_vec, s) * basis_vec
        norm_s = float(np.linalg.norm(s))
        achieved = norm_s / norm0
        if achieved < CG_TOL:
            return x
        history.append(s / norm_s)
        gamma_new = float(np.vdot(s, s).real)
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    if achieved < CG_TOL:
        return x
    raise NotConvergedError(
        f"normal-equation residual {achieved:.3e} above tolerance {CG_TOL:.3e} "
        f"after {max_iter} iterations",
        achieved_residual=achieved,
    )


def oracle_risk(M_full, theta_true, theta_hat) -> float:
    """Mean squared gap between the true and fitted signals over the grid.

    Averages over training plus prediction rows, the engine's ``risk_all``.
    """
    full = as_matrix(M_full)
    t_true = as_vector(theta_true)
    t_hat = as_vector(theta_hat)
    if t_true.shape != t_hat.shape:
        raise InvalidInputError("coefficient vectors must have matching lengths")
    if full.shape[1] != t_true.shape[0]:
        raise InvalidInputError("operator width does not match coefficient length")
    diff = full @ (t_true - t_hat)
    return float((np.abs(diff) ** 2).mean())


def certify(M_full, design: SampleDesign, theta_true, m: int) -> OracleResult:
    """Fit the first m columns on the training rows and evaluate the risk."""
    full = as_matrix(M_full)
    theta = as_vector(theta_true, length=full.shape[1])
    n = design.n_train
    y_full = full @ theta
    block = full[:n, :m]
    theta_m = oracle_fit(block, y_full[:n])
    theta_hat = np.zeros(full.shape[1], dtype=theta_m.dtype)
    theta_hat[:m] = theta_m
    residual = float(np.linalg.norm(block @ theta_m - y_full[:n]))
    return OracleResult(
        theta_hat=theta_hat,
        risk=oracle_risk(full, theta, theta_hat),
        residual_train=residual,
    )
