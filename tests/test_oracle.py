"""Reference fit: minimum-norm solutions without touching the SVD path."""

import numpy as np
import pytest

from gadkit import NotConvergedError, certify
from gadkit.decomposition import build_panels, risk_and_errors
from gadkit.designs import SampleDesign
from gadkit.linalg import pseudoinverse
from gadkit.oracle import oracle_fit, oracle_risk


def direct_design(train, prediction):
    return SampleDesign(
        train_points=np.asarray(train, float).reshape(len(train), -1),
        prediction_points=np.asarray(prediction, float).reshape(len(prediction), -1),
        strategy="from_dataset",
        seed=0,
        effective_seed=0,
    )


class TestOracleFit:
    def test_identity_system(self):
        y = np.array([2.0, -1.0, 3.0])
        np.testing.assert_allclose(oracle_fit(np.eye(3), y), y, atol=1e-12)

    def test_min_norm_on_underdetermined_row(self):
        # theta_1 + theta_2 = 2 with minimum Euclidean norm: (1, 1)
        theta = oracle_fit(np.array([[1.0, 1.0]]), np.array([2.0]))
        np.testing.assert_allclose(theta, [1.0, 1.0], atol=1e-12)

    def test_agrees_with_engine_full_rank(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 12))
        y = rng.standard_normal(20)
        reference = oracle_fit(x, y)
        engine = pseudoinverse(x) @ y
        assert np.linalg.norm(reference - engine) <= 1e-8 * np.linalg.norm(engine)

    def test_agrees_with_engine_rank_deficient(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 6))
        x[:, 5] = x[:, 0] - 2 * x[:, 3]
        y = rng.standard_normal(10)
        reference = oracle_fit(x, y)
        engine = pseudoinverse(x) @ y
        assert np.linalg.norm(reference - engine) <= 1e-8 * np.linalg.norm(engine)

    def test_complex_system(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        reference = oracle_fit(x, y)
        engine = pseudoinverse(x) @ y
        assert np.linalg.norm(reference - engine) <= 1e-8 * np.linalg.norm(engine)

    def test_zero_labels(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(oracle_fit(x, np.zeros(6)), np.zeros(4))

    def test_not_converged_reports_residual(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 25))
        y = rng.standard_normal(30)
        with pytest.raises(NotConvergedError) as info:
            oracle_fit(x, y, iterations=2)
        assert 0 < info.value.achieved_residual < 1.0


class TestOracleRisk:
    def test_exact_fit_has_zero_risk(self):
        rng = np.random.default_rng(5)
        full = rng.standard_normal((7, 5))
        theta = rng.standard_normal(5)
        assert oracle_risk(full, theta, theta) == 0.0

    def test_zero_fit_gives_mean_square_signal(self):
        rng = np.random.default_rng(6)
        full = rng.standard_normal((7, 5))
        theta = rng.standard_normal(5)
        expected = float(np.mean((full @ theta) ** 2))
        assert oracle_risk(full, theta, np.zeros(5)) == pytest.approx(expected)


class TestCrossPath:
    @pytest.mark.parametrize("rows,m", [(20, 8), (15, 15), (10, 24)])
    def test_certify_matches_engine(self, rows, m):
        rng = np.random.default_rng(rows * 37 + m)
        budget = max(m + 4, rows)
        design = direct_design(rng.standard_normal(rows), rng.standard_normal(6))
        full = rng.standard_normal((rows + 6, budget))
        theta = rng.standard_normal(budget)
        result = certify(full, design, theta, m)
        assert result.risk >= 0 and result.residual_train >= 0
        panel = build_panels(full, design, m)
        engine_theta = risk_and_errors(panel, theta, full @ theta).theta_hat
        scale = max(np.linalg.norm(engine_theta), 1.0)
        assert np.linalg.norm(result.theta_hat - engine_theta) <= 1e-8 * scale
