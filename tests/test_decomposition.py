"""Panels, operators, risk breakdown, ridge variants, and the sweep engine."""

import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import gadkit.bases as bases
import gadkit.decomposition as decomposition
import gadkit.linalg as linalg
from dense_reference import (augmented_block, b_operator, infer_theta, invertibility_operator,
                             record_mismatches)
from gadkit import experiments
from gadkit import (
    BasisSpec,
    DecompositionMismatchError,
    InvalidInputError,
    ParameterSpec,
    evaluate_columns,
    make_design,
    parse_config,
    sweep,
)
from gadkit.config import parse_config_text
from gadkit.decomposition import (
    aliasing_operator,
    build_panels,
    expected_unstructured_error,
    ridge_panels,
    risk_and_errors,
)
from gadkit.designs import SampleDesign
from gadkit.linalg import BLOCK, SvdResult, kernel_projector, pseudoinverse, spectral_norm

RIDGE_CONFIG = """
[run]
experiment = ridge_sweep
output_dir = out/ridge_sweep
rel_tol = 1e-12

[basis]
family = rff
input_dim = 6
column_budget = 24
seed = 0

[design]
strategy = sphere_uniform
n_train = 8
grid_size = 30
dim = 6

[theta]
scheme = unstructured_iid
seed = 1

[sweep]
m_range = 5 12
lambda = 0 0.0001 0.01 1
"""


def direct_design(train, prediction):
    """Wrap explicit point arrays without any generation strategy."""
    return SampleDesign(
        train_points=np.atleast_2d(np.asarray(train, float).reshape(len(train), -1)),
        prediction_points=np.atleast_2d(np.asarray(prediction, float).reshape(len(prediction), -1)),
        strategy="from_dataset",
        seed=0,
        effective_seed=0,
    )


def monomial_system(train, prediction, budget, interval):
    spec = BasisSpec("monomial", 1, budget, params={"interval": interval})
    design = direct_design(train, prediction)
    full = evaluate_columns(spec, design.all_points, (0, budget))
    return design, full


class TestBuildPanels:
    def test_vandermonde_prefix(self):
        design, full = monomial_system([0.0, 1.0, 2.0], [0.5], 4, (0.0, 2.0))
        panel = build_panels(full, design, 2)
        np.testing.assert_allclose(panel.train_modeled, [[1, 0], [1, 1], [1, 2]])
        assert panel.rank == 2

    def test_partition_reassembles(self):
        design, full = monomial_system([0.0, 0.5, 1.0], [0.25, 0.75], 5, (0.0, 1.0))
        panel = build_panels(full, design, 3)
        top = np.hstack([panel.train_modeled, panel.train_nescient])
        np.testing.assert_array_equal(np.vstack([top, panel.pred]), full)
        np.testing.assert_array_equal(panel.pred_modeled, full[3:, :3])

    def test_full_budget_has_empty_nescience(self):
        design, full = monomial_system([0.0, 1.0], [0.5], 3, (0.0, 1.0))
        panel = build_panels(full, design, 3)
        assert panel.train_nescient.shape == (2, 0)
        assert spectral_norm(panel.train_nescient) == 0.0

    def test_m_out_of_range(self):
        design, full = monomial_system([0.0, 1.0], [0.5], 3, (0.0, 1.0))
        with pytest.raises(InvalidInputError):
            build_panels(full, design, 0)
        with pytest.raises(InvalidInputError):
            build_panels(full, design, 4)


class TestAliasingOperator:
    def test_scalar_monomial(self):
        # one training point at t = 2: modeled column (1), nescient column (2)
        design, full = monomial_system([2.0], [0.5], 2, (0.0, 2.0))
        panel = build_panels(full, design, 1)
        np.testing.assert_allclose(aliasing_operator(panel), [[2.0]])

    def test_empty_nescience(self):
        design, full = monomial_system([0.0, 1.0], [0.5], 2, (0.0, 1.0))
        panel = build_panels(full, design, 2)
        out = aliasing_operator(panel)
        assert out.shape == (2, 0)
        assert spectral_norm(out) == 0.0

    def test_fourier_identity_copies_small(self):
        n = 4
        spec = BasisSpec("fourier_discrete", 1, 3 * n,
                         params={"period": 1.0, "base_frequencies": n})
        design = make_design("equispaced", n, 32, period=1.0)
        full = evaluate_columns(spec, design.all_points, (0, 3 * n))
        panel = build_panels(full, design, n)
        aliasing = aliasing_operator(panel)
        from gadkit.experiments import fourier_alias_expectation

        np.testing.assert_allclose(aliasing, fourier_alias_expectation(n, n, 3 * n), atol=1e-12)


class TestBOperator:
    def test_full_column_rank_gives_identity(self):
        rng = np.random.default_rng(0)
        design = direct_design(rng.standard_normal(6), rng.standard_normal(3))
        spec = BasisSpec("legendre", 1, 4)
        full = evaluate_columns(spec, np.clip(design.all_points, -1, 1), (0, 4))
        panel = build_panels(full, design, 4)
        np.testing.assert_allclose(b_operator(panel), np.eye(4), atol=1e-10)

    def test_rank_deficient_row(self):
        design = direct_design([1.0], [0.5])
        full = np.array([[1.0, 1.0], [0.5, 0.5]])
        panel = build_panels(full, design, 2)
        np.testing.assert_allclose(b_operator(panel), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_identity_minus_b_is_contraction_and_kernel_projector(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rows, m = int(rng.integers(2, 8)), int(rng.integers(1, 8))
            design = direct_design(rng.standard_normal(rows), rng.standard_normal(2))
            full = rng.standard_normal((rows + 2, m))
            panel = build_panels(full, design, m)
            residual = np.eye(m) - b_operator(panel)
            assert spectral_norm(residual) <= 1 + 1e-10
            np.testing.assert_allclose(residual, kernel_projector(panel.train_modeled),
                                       atol=1e-10)


class TestInferTheta:
    def test_zero_labels(self):
        design, full = monomial_system([0.0, 1.0], [0.5], 3, (0.0, 1.0))
        panel = build_panels(full, design, 2)
        np.testing.assert_array_equal(infer_theta(panel, np.zeros(2)), np.zeros(3))

    def test_invertible_square(self):
        rng = np.random.default_rng(2)
        design = direct_design(rng.standard_normal(3), rng.standard_normal(2))
        full = rng.standard_normal((5, 3))
        panel = build_panels(full, design, 3)
        y = rng.standard_normal(3)
        np.testing.assert_allclose(infer_theta(panel, y),
                                   np.linalg.solve(panel.train_modeled, y), atol=1e-10)

    def test_recovers_consistent_system(self):
        rng = np.random.default_rng(3)
        design = direct_design(rng.standard_normal(8), rng.standard_normal(2))
        full = rng.standard_normal((10, 5))
        panel = build_panels(full, design, 4)
        theta_star = rng.standard_normal(4)
        fitted = infer_theta(panel, panel.train_modeled @ theta_star)
        np.testing.assert_allclose(fitted[:4], theta_star, rtol=1e-9, atol=1e-11)
        assert np.all(fitted[4:] == 0)

    def test_length_mismatch(self):
        design, full = monomial_system([0.0, 1.0], [0.5], 3, (0.0, 1.0))
        panel = build_panels(full, design, 2)
        with pytest.raises(InvalidInputError):
            infer_theta(panel, np.zeros(3))


class TestRiskAndErrors:
    def test_perfectly_modeled_signal(self):
        design, full = monomial_system([0.0, 0.5, 1.0], [0.25, 0.75], 4, (0.0, 1.0))
        panel = build_panels(full, design, 3)
        theta = np.array([1.0, -2.0, 0.5, 0.0])  # nescient part zero
        report = risk_and_errors(panel, theta, full @ theta)
        assert report.risk_all == pytest.approx(0.0, abs=1e-20)
        assert report.alias_error == 0.0
        assert report.bias_error == pytest.approx(0.0, abs=1e-12)
        assert report.nescience_error == 0.0

    def test_full_budget_full_rank(self):
        design, full = monomial_system([0.0, 0.3, 0.7, 1.0], [0.5], 3, (0.0, 1.0))
        panel = build_panels(full, design, 3)
        theta = np.array([1.0, 2.0, 3.0])
        report = risk_and_errors(panel, theta, full @ theta)
        assert report.risk_all < 1e-18

    def test_identity_residual_recorded(self):
        rng = np.random.default_rng(4)
        design = direct_design(rng.standard_normal(6), rng.standard_normal(4))
        full = rng.standard_normal((10, 8))
        panel = build_panels(full, design, 5)
        theta = rng.standard_normal(8)
        report = risk_and_errors(panel, theta, full @ theta)
        assert 0 <= report.identity_residual < 1e-10

    def test_inconsistent_labels_raise(self):
        rng = np.random.default_rng(5)
        design = direct_design(rng.standard_normal(6), rng.standard_normal(4))
        full = rng.standard_normal((10, 8))
        panel = build_panels(full, design, 5)
        theta = rng.standard_normal(8)
        wrong = full @ theta + rng.standard_normal(10)
        with pytest.raises(DecompositionMismatchError):
            risk_and_errors(panel, theta, wrong)

    def test_wrong_length_labels_raise(self):
        # the label vector covers training then prediction rows of the panel
        rng = np.random.default_rng(5)
        design = direct_design(rng.standard_normal(6), rng.standard_normal(4))
        full = rng.standard_normal((10, 8))
        panel = build_panels(full, design, 5)
        theta = rng.standard_normal(8)
        for y in ((full @ theta)[:9], np.append(full @ theta, 0.0), (full @ theta)[:6]):
            with pytest.raises(InvalidInputError):
                risk_and_errors(panel, theta, y)

    def test_error_split_is_pythagorean(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rows = int(rng.integers(2, 10))
            budget = int(rng.integers(2, 12))
            m = int(rng.integers(1, budget + 1))
            design = direct_design(rng.standard_normal(rows), rng.standard_normal(3))
            full = rng.standard_normal((rows + 3, budget))
            panel = build_panels(full, design, m)
            theta = rng.standard_normal(budget)
            report = risk_and_errors(panel, theta, full @ theta)
            combined = np.hypot(report.bias_error, report.nescience_error)
            operator = invertibility_operator(panel)
            np.testing.assert_allclose(combined, np.linalg.norm(operator @ theta), atol=1e-10)
            assert combined <= np.linalg.norm(theta) + 1e-10


class TestIdentityCheck:
    """Planted faults against the fitted-signal identity, through :func:`risk_and_errors`.

    8 training rows, 4 prediction rows and 16 columns, so that m = 4, 8 and
    12 fall below, at and above the interpolation threshold.  Each fault
    breaks ``y_train = T_M theta_m + T_U theta_u`` and nothing else.
    """

    N, BUDGET = 8, 16

    def system(self):
        rng = np.random.default_rng(41)
        design = direct_design(rng.standard_normal(self.N), rng.standard_normal(4))
        full = rng.standard_normal((self.N + 4, self.BUDGET))
        return design, full, rng.standard_normal(self.BUDGET)

    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    @pytest.mark.parametrize("m", [4, 8, 12])
    @pytest.mark.parametrize("fault", ["wrong-T_U", "shifted-split", "perturbed-y"])
    def test_planted_fault_trips_the_check(self, fault, m, lam):
        design, full, theta = self.system()
        y = full @ theta
        clean = risk_and_errors(build_panels(full, design, m), theta, y, lam)
        assert 0 <= clean.identity_residual < 1e-13
        operator = full
        if fault == "wrong-T_U":
            # the panel's nescient training block has its columns reversed
            operator = full.copy()
            operator[: self.N, m:] = full[: self.N, m:][:, ::-1]
        elif fault == "shifted-split":
            # theta_u starts one coefficient early
            theta = np.concatenate([theta[:m], theta[m - 1 : -1]])
        else:
            signs = np.random.default_rng(43).choice([-1.0, 1.0], y.size)
            y = y * (1 + 1e-6 * signs)
        with pytest.raises(DecompositionMismatchError, match="fitted signal deviates"):
            risk_and_errors(build_panels(operator, design, m), theta, y, lam)


class TestInvertibilityOperator:
    def test_norm_one_with_nescient_coordinates(self):
        rng = np.random.default_rng(7)
        design = direct_design(rng.standard_normal(5), rng.standard_normal(2))
        full = rng.standard_normal((7, 6))
        panel = build_panels(full, design, 3)
        assert spectral_norm(invertibility_operator(panel)) == pytest.approx(1.0, abs=1e-12)

    def test_norm_zero_when_everything_modeled_and_full_rank(self):
        rng = np.random.default_rng(8)
        design = direct_design(rng.standard_normal(6), rng.standard_normal(2))
        full = rng.standard_normal((8, 4))
        panel = build_panels(full, design, 4)
        assert spectral_norm(invertibility_operator(panel)) < 1e-10


class TestRidge:
    def panel_identity(self):
        design = direct_design([0.0, 1.0], [0.5])
        full = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 4.0], [2.0, 5.0, 6.0]])
        return build_panels(full, design, 2)

    def test_identity_block_example(self):
        # modeled block I_2, n = 2, lambda = 2: every singular value sqrt(5)
        panel = self.panel_identity()
        pinv_norm = ridge_panels(panel, 2.0)
        aug = augmented_block(panel, 2.0)
        assert aug.shape == (4, 2)
        s = np.linalg.svd(aug, compute_uv=False)
        np.testing.assert_allclose(s, [np.sqrt(5.0)] * 2, rtol=1e-12)
        assert pinv_norm == pytest.approx(1 / np.sqrt(5.0), rel=1e-12)
        assert pinv_norm <= 1 / np.sqrt(2 * 2.0)

    def test_lambda_zero_matches_unregularized(self):
        panel = self.panel_identity()
        pinv_norm = ridge_panels(panel, 0.0)
        assert pinv_norm == pytest.approx(spectral_norm(pseudoinverse(panel.train_modeled)))

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_negative_lambda_rejected(self, lam):
        # every shipped function that takes a ridge strength rejects it,
        # lambda = 0 branches included
        panel = self.panel_identity()
        y = np.zeros(3)
        calls = (
            lambda: ridge_panels(panel, lam),
            lambda: aliasing_operator(panel, lam),
            lambda: risk_and_errors(panel, y, y, lam=lam),
        )
        for call in calls:
            with pytest.raises(InvalidInputError, match="lambda must be finite and nonnegative"):
                call()

    def test_spectrum_shift_random(self):
        # ridge_panels reads the norm off T_M's spectrum without forming the
        # augmented block: it must equal 1/sigma_min of LAPACK's spectrum of
        # the dense block, past m = n too, where that least value is
        # sqrt(n*lambda) and not one shifted from T_M's spectrum
        rng = np.random.default_rng(9)
        fixed = [(7, 4), (7, 7), (7, 11)]  # m < n, m = n, m > n
        for dtype, lam in itertools.product((float, complex), (1e-4, 1e-2, 1.0)):
            shapes = fixed + [(int(rng.integers(2, 12)), int(rng.integers(1, 12)))
                              for _ in range(10)]
            for rows, m in shapes:
                design = direct_design(rng.standard_normal(rows), rng.standard_normal(2))
                full = rng.standard_normal((rows + 2, m))
                if dtype is complex:
                    full = full + 1j * rng.standard_normal((rows + 2, m))
                panel = build_panels(full, design, m)
                pinv_norm = ridge_panels(panel, lam)
                s_aug = np.linalg.svd(augmented_block(panel, lam), compute_uv=False)
                base = np.zeros(m)
                s_base = np.linalg.svd(panel.train_modeled, compute_uv=False)
                base[: s_base.size] = s_base
                np.testing.assert_allclose(s_aug, np.sqrt(base**2 + rows * lam), rtol=1e-9)
                assert pinv_norm == pytest.approx(1 / s_aug[-1], rel=1e-12, abs=0)
                assert pinv_norm <= 1 / np.sqrt(rows * lam) + 1e-12

    def test_ridge_invertibility_norm_bound(self):
        rng = np.random.default_rng(10)
        for lam in (1e-4, 1e-2, 1.0):
            design = direct_design(rng.standard_normal(6), rng.standard_normal(2))
            full = rng.standard_normal((8, 9))
            panel = build_panels(full, design, 7)
            bound = 1 + spectral_norm(panel.train_modeled) / np.sqrt(6 * lam)
            assert spectral_norm(invertibility_operator(panel, lam)) <= bound + 1e-9


class TestExpectedUnstructuredError:
    def test_closed_form_values(self):
        assert expected_unstructured_error(1.0, 0, 5) == 5.0
        assert expected_unstructured_error(2.0, 3, 0) == 6.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            expected_unstructured_error(-1.0, 0, 1)

    def test_monte_carlo_agreement_small(self):
        rng = np.random.default_rng(11)
        design = direct_design(rng.standard_normal(10), rng.standard_normal(2))
        full = rng.standard_normal((12, 16))
        panel = build_panels(full, design, 13)  # over-parameterized: kernel dim 3
        projector = kernel_projector(panel.train_modeled)
        dim_kernel = 13 - panel.rank
        sq = []
        for _ in range(2000):
            theta = rng.normal(0.0, 1.0, 16)
            sq.append(np.linalg.norm(projector @ theta[:13]) ** 2 + np.linalg.norm(theta[13:]) ** 2)
        expected = expected_unstructured_error(1.0, dim_kernel, 3)
        assert abs(np.mean(sq) - expected) / expected < 0.05


class TestSweep:
    def small_setup(self, budget=40, n=12, seed=0):
        basis = BasisSpec("rff", 6, budget, seed=seed)
        design = make_design("sphere_uniform", n, 60, dim=6, seed=seed)
        theta = ParameterSpec("unstructured_iid", budget, seed=seed + 1)
        return basis, design, theta

    @pytest.mark.parametrize("family", ["rff", "rrf"])
    def test_holds_one_model_size_at_a_time(self, family):
        # m >= n, so that W = U^H T_U is n x (p - m), about the size of T_U:
        # a sweep that still held the last step's W and Gram while it
        # factored the next m peaked 30-40% higher over three steps than one.
        # Past the first m the sweep carries its factor: the update holds the
        # last U and V while it forms the new ones, at most one more factor
        # (n x n and (n + 2) x n) than a step that factors afresh
        n, budget = 120, 900
        basis = BasisSpec(family, 6, budget, seed=0)
        design = make_design("sphere_uniform", n, 8, dim=6, seed=0)
        theta = ParameterSpec("unstructured_iid", budget, seed=1)

        def traced_peak(ms):
            tracemalloc.start()
            try:
                sweep(basis, design, theta, ms)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = traced_peak([n])
        carried = (n * n + (n + 2) * n) * (16 if family == "rff" else 8)
        assert traced_peak([n, n + 1, n + 2]) <= one + carried

    def test_pinv_peaks_at_interpolation_threshold(self):
        basis, design, theta = self.small_setup()
        records = sweep(basis, design, theta, range(1, 41))
        norms = [r.norm_pinv_TM for r in records]
        assert int(np.argmax(norms)) + 1 == 12

    def test_monotone_invariants(self):
        basis, design, theta = self.small_setup(seed=3)
        records = sweep(basis, design, theta, range(1, 41))
        for a, b in zip(records, records[1:]):
            assert b.norm_M_TU <= a.norm_M_TU * (1 + 1e-9) + 1e-12
            assert b.nescience_error <= a.nescience_error + 1e-12
            assert b.bias_error >= a.bias_error - 1e-9

    def test_pinv_norm_follows_independence_flags(self):
        # structured spin basis mixes dependent and independent appends
        basis = BasisSpec("cluster_ising", 6, 64, ordering="physical_cluster",
                          params={"chain_length": 6})
        from gadkit.experiments import ising_design

        design = ising_design(6, 20, 44, "size_lex", 0)
        theta = ParameterSpec("power_decay", 64, seed=1, exponent=1.5)
        records = sweep(basis, design, theta, range(1, 65))
        assert any(r.new_col_independent for r in records)
        assert any(not r.new_col_independent for r in records)
        for a, b in zip(records, records[1:]):
            scale = 1e-9 * max(a.norm_pinv_TM, 1.0)
            if b.new_col_independent:
                assert b.norm_pinv_TM >= a.norm_pinv_TM - scale
            else:
                assert b.norm_pinv_TM <= a.norm_pinv_TM + scale

    def test_alias_norm_bounded_by_product(self):
        basis, design, theta = self.small_setup(seed=5)
        records = sweep(basis, design, theta, range(1, 41))
        for r in records:
            assert r.norm_A <= r.norm_pinv_TM * r.norm_M_TU * (1 + 1e-9) + 1e-12

    def test_generic_rank_saturates_below_threshold(self):
        basis, design, theta = self.small_setup(seed=7)
        records = sweep(basis, design, theta, range(1, 41))
        for r in records:
            if r.m <= design.n_train:
                assert r.rank_TM == r.m

    def test_ridge_zero_matches_plain(self):
        basis, design, theta = self.small_setup(seed=9)
        plain = sweep(basis, design, theta, range(1, 21))
        ridged = sweep(basis, design, theta, range(1, 21), lambdas=(0.0,))
        assert plain == ridged

    def test_threads_other_than_one_rejected(self, monkeypatch):
        # the sweep is serial; a wider width fails before any column is evaluated
        basis, design, theta = self.small_setup(seed=11)

        def never(*args, **kwargs):
            raise AssertionError("columns evaluated")

        monkeypatch.setattr(decomposition, "evaluate_columns", never)
        with pytest.raises(InvalidInputError, match="threads must be 1"):
            decomposition.sweep(basis, design, theta, range(1, 21), threads=2)

    @pytest.mark.parametrize("ms, lambdas, rel_tol", [
        ([0, 5], (0.0,), 1e-12),
        ([5, 41], (0.0,), 1e-12),
        ([], (0.0,), 1e-12),
        (range(1, 6), (), 1e-12),
        (range(1, 6), (0.0, -1e-3), 1e-12),
        (range(1, 6), (float("nan"),), 1e-12),
        (range(1, 6), (1e-2, float("inf")), 1e-12),
        (range(1, 6), (0.0,), 0.0),
        (range(1, 6), (0.0,), 1.0),
        (range(1, 6), (0.0,), 2.0),
        (range(1, 6), (0.0,), float("nan")),
    ], ids=["m-zero", "m-over-budget", "empty-range", "no-lambda", "negative-lambda",
            "nan-lambda", "inf-lambda", "rel-tol-zero", "rel-tol-one", "rel-tol-two",
            "rel-tol-nan"])
    def test_bad_input_rejected_before_columns_are_evaluated(self, monkeypatch, ms, lambdas,
                                                             rel_tol):
        basis, design, theta = self.small_setup(seed=11)

        def never(*args, **kwargs):
            raise AssertionError("columns evaluated")

        monkeypatch.setattr(decomposition, "evaluate_columns", never)
        with pytest.raises(InvalidInputError):
            decomposition.sweep(basis, design, theta, ms, lambdas=lambdas, rel_tol=rel_tol)

    def test_negative_zero_lambda_writes_the_zero_rows(self, tmp_path):
        basis, design, theta = self.small_setup(seed=21)
        paths = [
            experiments.write_sweep_csv(tmp_path / f"{name}.csv",
                                        sweep(basis, design, theta, range(1, 21), lambdas=(lam,)))
            for name, lam in (("zero", 0.0), ("negative_zero", -0.0))
        ]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sparse_m_range_flags(self):
        # every m of the sparse range is factored afresh, where the dense
        # range carries its factor: flags and ranks match exactly, floats by
        # the golden rule
        basis, design, theta = self.small_setup(seed=13)
        dense = {r.m: r for r in sweep(basis, design, theta, range(1, 31))}
        sparse = sweep(basis, design, theta, [5, 10, 20, 30])
        assert record_mismatches(sparse, [dense[r.m] for r in sparse]) == []

    def test_failed_m_is_marked_not_fatal(self, monkeypatch):
        basis, design, theta = self.small_setup(seed=15)
        clean = {r.m: r for r in decomposition.sweep(basis, design, theta, range(1, 6))}
        original = decomposition._fit

        def flaky(products, *args):
            if products.panel.m == 3:
                raise DecompositionMismatchError("synthetic failure for testing")
            return original(products, *args)

        monkeypatch.setattr(decomposition, "_fit", flaky)
        records = decomposition.sweep(basis, design, theta, range(1, 6))
        by_m = {r.m: r for r in records}
        assert by_m[3].error is not None
        assert np.isnan(by_m[3].risk_all)
        assert all(by_m[m].error is None for m in (1, 2, 4, 5))
        # a risk failure belongs to one lambda: m = 3 still stores its rank,
        # and the flag at m = 4 reads it
        for m in (1, 2, 4, 5):
            assert (by_m[m].rank_TM, by_m[m].new_col_independent) == (
                clean[m].rank_TM, clean[m].new_col_independent)

    LAMBDAS = (0.0, 1e-4, 1e-2, 1.0)

    def test_failed_lambda_fails_only_its_row(self, monkeypatch):
        # each lambda's fit runs on the products shared at m: a failure there
        # marks one (lambda, m) row, and the lambda-free rank is still stored,
        # so no later flag needs a prefix-rank SVD
        basis, design, theta = self.small_setup(seed=25)
        ms = range(1, 16)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        original_fit = decomposition._fit
        original_spectrum = decomposition.spectrum
        prefix_svds = []

        def flaky(products, lam, *args):
            if products.panel.m == 7 and lam == 1e-2:
                raise DecompositionMismatchError("synthetic failure for testing")
            return original_fit(products, lam, *args)

        def counted(*args, **kwargs):
            prefix_svds.append(1)
            return original_spectrum(*args, **kwargs)

        monkeypatch.setattr(decomposition, "_fit", flaky)
        monkeypatch.setattr(decomposition, "spectrum", counted)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert len(records) == len(clean)
        failed = [i for i, r in enumerate(records) if r.error is not None]
        assert failed == [2 * len(ms) + 6]
        bad = records[failed[0]]
        assert (bad.m, bad.lam, bad.rank_TM) == (7, 1e-2, -1)
        assert bad.error == "DecompositionMismatchError: synthetic failure for testing"
        assert all(got == want for i, (got, want) in enumerate(zip(records, clean))
                   if i != failed[0])
        assert not prefix_svds

    def test_failed_ridge_spectrum_fails_every_active_lambda(self, monkeypatch):
        # at m = 7 the one values-only SVD of T_M that every active lambda's
        # spectrum check reads raises.  Each active lambda there gets that
        # error row; the lambda = 0 row and every other m are the clean
        # sweep's exactly, since the carried factor never reads that SVD
        basis, design, theta = self.small_setup(seed=29)
        ms = range(1, 16)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        original = np.linalg.svd
        planted = []

        def flaky(a, *args, **kwargs):
            if not kwargs.get("compute_uv", True) and np.shape(a) == (design.n_train, 7):
                planted.append(1)
                raise np.linalg.LinAlgError("planted")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert planted == [1]
        assert [(r.lam, r.m) for r in records] == [(r.lam, r.m) for r in clean]
        for got, want in zip(records, clean):
            if got.m == 7 and got.lam > 0:
                assert got.error == "LinAlgError: planted"
                assert got.rank_TM == -1 and np.isnan(got.norm_pinv_TM)
            else:
                assert got == want

    @pytest.mark.parametrize("target, bad", [("eigvalsh", 2)])
    def test_failed_stacked_call_fails_only_its_rows(self, monkeypatch, target, bad):
        # at m = 7 the stacked call over every lambda raises.  Each row then
        # makes it again on its own matrix, in lambda order, and there only
        # the matrix of lambda = 1e-2 fails: the Grams of ||A|| stack all four
        basis, design, theta = self.small_setup(seed=29)
        ms = range(1, 16)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        original_panels = decomposition.build_panels
        original = getattr(np.linalg, target)
        state = {"m": 0, "single": 0}

        def track(operator, design, m, *args, **kwargs):
            state["m"], state["single"] = m, 0
            return original_panels(operator, design, m, *args, **kwargs)

        def flaky(a, *args, **kwargs):
            if np.ndim(a) == 3 and state["m"] == 7:
                if a.shape[0] > 1:
                    raise np.linalg.LinAlgError("planted")
                state["single"] += 1
                if state["single"] == bad + 1:
                    raise np.linalg.LinAlgError("planted")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(decomposition, "build_panels", track)
        monkeypatch.setattr(np.linalg, target, flaky)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert len(records) == len(clean)
        failed = [i for i, r in enumerate(records) if r.error is not None]
        assert failed == [2 * len(ms) + 6]
        bad_row = records[failed[0]]
        assert (bad_row.m, bad_row.lam, bad_row.rank_TM) == (7, 1e-2, -1)
        assert bad_row.error == "LinAlgError: planted"
        assert all(got == want for i, (got, want) in enumerate(zip(records, clean))
                   if i != failed[0])

    @pytest.mark.parametrize("lambdas", [(0.0,), (1e-2,), LAMBDAS, (1e-2,) + LAMBDAS + (1e-2,)],
                             ids=["one", "one-active", "four", "six-with-duplicates"])
    def test_lambda_free_products_formed_once_per_m(self, monkeypatch, lambdas):
        # U^H T_U and the rest of the shared products are formed once per m,
        # however many lambdas read them, and so is the identity check, which
        # no filter enters; so is the spectrum of T_M that the ridge checks
        # read, when some lambda is active, and never on a lambda = 0 sweep.
        # The spectrum check runs for every active lambda
        basis, design, theta = self.small_setup(seed=31)
        ms = range(5, 21)
        counts = {"_shared_products": 0, "_identity_residual": 0, "_ridge_spectrum": 0,
                  "_checked_pinv_norm": 0}
        for name in counts:
            original = getattr(decomposition, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(decomposition, name, counted)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=lambdas)
        assert all(r.error is None for r in records)
        active = sum(1 for lam in lambdas if lam > 0)
        assert counts == {"_shared_products": len(ms),
                          "_identity_residual": len(ms),
                          "_ridge_spectrum": len(ms) if active else 0,
                          "_checked_pinv_norm": active * len(ms)}

    @pytest.mark.parametrize("stage", ["panel", "identity-check"])
    def test_failed_step_fails_every_lambda_at_that_m(self, monkeypatch, stage):
        # the panel and the identity check are shared: a failure of either
        # marks m in every lambda.  The planted identity fault is a 1e-6
        # relative change of the labels at m = 7 alone.  A failed panel
        # leaves no factor to carry, so m = 8 is factored afresh, its flag
        # comes from a prefix-rank SVD, and the rows past 7 match the clean
        # sweep's by the golden rule; an identity fault keeps the checked
        # factor, whose rank the flag at m = 8 reads, and every other row
        # exactly
        basis, design, theta = self.small_setup(seed=27)
        ms = range(1, 16)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        original_panels = decomposition.build_panels
        original_products = decomposition._shared_products
        original_spectrum = decomposition.spectrum
        prefix_widths = []

        def flaky(operator, design, m, *args, **kwargs):
            if m == 7:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original_panels(operator, design, m, *args, **kwargs)

        def planted(panel, theta, y_full, nescient):
            if panel.m == 7:
                y_full = y_full * (1 + 1e-6)
            return original_products(panel, theta, y_full, nescient)

        def counted(block, *args, **kwargs):
            prefix_widths.append(block.shape[1])
            return original_spectrum(block, *args, **kwargs)

        if stage == "panel":
            monkeypatch.setattr(decomposition, "build_panels", flaky)
            message = "LinAlgError: SVD did not converge"
        else:
            monkeypatch.setattr(decomposition, "_shared_products", planted)
            message = "DecompositionMismatchError: fitted signal deviates from the operator route"
        monkeypatch.setattr(decomposition, "spectrum", counted)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in self.LAMBDAS for m in ms]
        for got in records:
            if got.m == 7:
                assert got.error.startswith(message)
                assert got.rank_TM == -1 and np.isnan(got.risk_all)
        others = [i for i, r in enumerate(records) if r.m != 7]
        got, want = [records[i] for i in others], [clean[i] for i in others]
        if stage == "panel":
            assert record_mismatches(got, want) == []
        else:
            assert got == want
        assert prefix_widths == ([7] if stage == "panel" else [])

    @pytest.mark.parametrize("ms, widths", [
        (range(1, 46), []),
        (range(5, 46), [4]),
        ([10, 30, 45], [9, 29, 44]),
        ([*range(1, 9), *range(20, 31), 45], [19, 44]),
    ], ids=["from-1", "from-5", "sparse", "runs-with-gaps"])
    def test_prefix_rank_svd_only_where_no_factor_is_held(self, monkeypatch, ms, widths):
        # the flag of column m reads the rank of T_{m-1} off the factor kept
        # from m - 1; a values-only SVD of the prefix is taken once per range
        # start past m = 1 and once per gap, never inside a contiguous run.
        # Every flag and rank matches the whole sweep's
        basis, design, theta = self.small_setup(budget=48, seed=41)
        whole = {r.m: r for r in decomposition.sweep(basis, design, theta, range(1, 46))}
        original = decomposition.spectrum
        prefix_widths = []

        def counted(block, *args, **kwargs):
            prefix_widths.append(block.shape[1])
            return original(block, *args, **kwargs)

        monkeypatch.setattr(decomposition, "spectrum", counted)
        records = decomposition.sweep(basis, design, theta, ms)
        assert prefix_widths == widths
        assert all(r.error is None for r in records)
        assert [(r.m, r.rank_TM, r.new_col_independent) for r in records] == [
            (m, whole[m].rank_TM, whole[m].new_col_independent) for m in ms]
        assert {r.new_col_independent for r in records} == {True, False}

    def test_failed_prefix_rank_svd_keeps_the_factor(self, monkeypatch):
        # the prefix SVD of the flag at the range start m = 5 raises: every
        # lambda there gets its error row, but the factor of T_5 passed its
        # check and is kept, so m = 6 carries it and reads its rank, and
        # every later row is the clean sweep's exactly
        basis, design, theta = self.small_setup(seed=43)
        ms = range(5, 12)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        prefix_widths = []

        def flaky(block, *args, **kwargs):
            prefix_widths.append(block.shape[1])
            raise np.linalg.LinAlgError("planted")

        monkeypatch.setattr(decomposition, "spectrum", flaky)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert prefix_widths == [4]
        for got, want in zip(records, clean):
            if got.m == 5:
                assert got.error == "LinAlgError: planted" and got.rank_TM == -1
            else:
                assert got == want

    @pytest.mark.parametrize("target", [6, 12, 20], ids=["m<n", "m=n", "m>n"])
    def test_planted_spectrum_fault_fails_every_active_lambda(self, monkeypatch, target):
        # the ridge check compares the factor's k = min(n, m) singular values
        # with a values-only SVD of T_M afresh.  The factor's largest,
        # scaled by 1 + 1e-8 at one m, must fail every active lambda there;
        # the lambda = 0 row and every other m take no check of it
        basis, design, theta = self.small_setup(seed=33)
        assert design.n_train == 12
        ms = range(4, 25)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        original_panels = decomposition.build_panels

        def planted(operator, design, m, *args, **kwargs):
            panel = original_panels(operator, design, m, *args, **kwargs)
            if m != target:
                return panel
            s = panel.factor.singular_values.copy()
            s[0] *= 1 + 1e-8
            return replace(panel, factor=replace(panel.factor, singular_values=s))

        monkeypatch.setattr(decomposition, "build_panels", planted)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in self.LAMBDAS for m in ms]
        for got, want in zip(records, clean):
            if got.m != target:
                assert got == want
            elif got.lam > 0:
                assert got.error.startswith("DecompositionMismatchError: augmented spectrum")
                assert got.rank_TM == -1 and np.isnan(got.norm_pinv_TM)
            else:
                assert got.error is None and got.rank_TM == want.rank_TM

    def test_ridge_norm_past_n_is_the_shift_bound(self):
        # past m = n the full augmented block has m - n singular values equal
        # to sqrt(n*lambda), the least of its spectrum
        basis, design, theta = self.small_setup(seed=35)
        n = design.n_train
        records = decomposition.sweep(basis, design, theta, range(1, 41), lambdas=self.LAMBDAS)
        for record in records:
            assert record.error is None
            if record.lam > 0:
                bound = 1 / math.sqrt(n * record.lam)
                assert record.norm_pinv_TM <= (1 + 1e-12) * bound
                if record.m > n:
                    assert record.norm_pinv_TM == pytest.approx(bound, rel=1e-12, abs=0)

    def test_steps_give_each_panel_with_its_rows(self):
        # sweep_steps gives the panel every lambda at m shares, with that m's
        # rows in lambda order; sweep is those rows put lambda-major
        basis, design, theta = self.small_setup(seed=37)
        ms = [3, 9, 12, 20, 40]
        steps = list(decomposition.sweep_steps(basis, design, theta, reversed(ms),
                                               lambdas=self.LAMBDAS))
        assert [panel.m for panel, _ in steps] == ms
        for panel, rows in steps:
            assert [(r.m, r.lam) for r in rows] == [(panel.m, lam) for lam in self.LAMBDAS]
            assert all(r.rank_TM == panel.rank for r in rows)
            assert panel.factor.singular_values.size == min(design.n_train, panel.m)
        records = decomposition.lambda_major(rows for _, rows in steps)
        assert records == decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)

    def test_failed_step_gives_no_panel(self, monkeypatch):
        basis, design, theta = self.small_setup(seed=39)
        original_panels = decomposition.build_panels

        def flaky(operator, design, m, *args, **kwargs):
            if m == 7:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original_panels(operator, design, m, *args, **kwargs)

        monkeypatch.setattr(decomposition, "build_panels", flaky)
        steps = list(decomposition.sweep_steps(basis, design, theta, [6, 7, 8], lambdas=(0.0, 1.0)))
        assert [panel is None for panel, _ in steps] == [False, True, False]
        assert [r.error for r in steps[1][1]] == ["LinAlgError: SVD did not converge"] * 2

    def test_lambdas_share_one_operator_and_one_panel_per_m(self, monkeypatch):
        # driven through the recipes' entry point: a 4-lambda run evaluates
        # the operator once and builds each panel once, for every lambda
        config = parse_config_text(RIDGE_CONFIG)
        design = experiments.materialize_design(config.design, 0)
        basis = config.basis
        original_columns = decomposition.evaluate_columns
        original_panels = decomposition.build_panels
        columns, panels = [], []

        def count_columns(*args, **kwargs):
            columns.append(1)
            return original_columns(*args, **kwargs)

        def count_panels(operator, design, m, *args, **kwargs):
            panels.append(m)
            return original_panels(operator, design, m, *args, **kwargs)

        monkeypatch.setattr(decomposition, "evaluate_columns", count_columns)
        monkeypatch.setattr(decomposition, "build_panels", count_panels)
        records = experiments._sweep_records(config, 0, design, basis)
        ms = list(range(5, 13))
        assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in self.LAMBDAS for m in ms]
        assert all(r.error is None for r in records)
        assert len(columns) == 1
        assert panels == ms

    def test_operator_validated_once_per_sweep(self, monkeypatch):
        basis, design, theta = self.small_setup(seed=19)
        shape = (design.all_points.shape[0], basis.column_budget)
        original = decomposition.as_matrix
        calls = []

        def counted(matrix):
            if np.shape(matrix) == shape:
                calls.append(1)
            return original(matrix)

        monkeypatch.setattr(decomposition, "as_matrix", counted)
        records = decomposition.sweep(basis, design, theta, range(8, 13))
        assert all(record.error is None for record in records)
        assert len(calls) == 1

    def test_nonfinite_operator_fails_every_model_size(self, monkeypatch):
        # the one check before the loop still turns into one error row per m
        basis, design, theta = self.small_setup(seed=21)
        original = decomposition.evaluate_columns

        def with_nan(*args, **kwargs):
            full = original(*args, **kwargs).copy()
            full[3, 7] = np.nan
            return full

        monkeypatch.setattr(decomposition, "evaluate_columns", with_nan)
        records = decomposition.sweep(basis, design, theta, [1, 5, 12, 30])
        assert [r.m for r in records] == [1, 5, 12, 30]
        for record in records:
            assert record.error == "InvalidInputError: matrix entries must be finite"
            assert record.rank_TM == -1 and np.isnan(record.risk_all)

    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    def test_sweep_builds_no_dense_operator(self, monkeypatch, lam):
        # the sweep applies the panel's factor to vectors and forms no dense
        # operator.  At lambda = 0 the range starts past n:
        # with an empty kernel the bias still reads the m x m kernel
        # projector (see decomposition._fit)
        basis, design, theta = self.small_setup(seed=23)
        n = design.n_train

        def dense(*args, **kwargs):
            raise DecompositionMismatchError("dense operator built inside the sweep")

        for owner, name in ((decomposition, "aliasing_operator"),
                            (SvdResult, "pinv"), (SvdResult, "kernel_projector")):
            monkeypatch.setattr(owner, name, dense)
        ms = range(n + 1, n + 9) if lam == 0 else range(1, n + 9)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=(lam,))
        assert [r.error for r in records] == [None] * len(ms)

    def test_failed_prefix_rank_is_marked_not_fatal(self, monkeypatch):
        # m = 5 needs the rank of the 4-column prefix, which no record of the
        # sparse range supplies; that SVD fails and only m = 5 may suffer
        basis, design, theta = self.small_setup(seed=17)
        n = design.n_train
        original = np.linalg.svd

        def flaky(a, *args, **kwargs):
            if np.shape(a) == (n, 4):
                raise np.linalg.LinAlgError("SVD did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        first, second = decomposition.sweep(basis, design, theta, [5, 10])
        assert first.m == 5 and second.m == 10
        assert first.error == "LinAlgError: SVD did not converge"
        assert first.rank_TM == -1 and not first.new_col_independent
        assert all(np.isnan(getattr(first, name)) for name in (
            "norm_A", "norm_pinv_TM", "norm_M_TU", "alias_error", "bias_error",
            "nescience_error", "risk_all", "risk_prediction_only"))
        assert second.error is None
        assert second.rank_TM == 10 and second.new_col_independent
        assert np.isfinite(second.risk_all)

    def test_complex_fourier_sweep_full_range(self):
        # complex operator end to end: every m must satisfy the identity
        # check and produce real, finite record fields
        basis = BasisSpec("fourier_discrete", 1, 24,
                          params={"period": 1.0, "base_frequencies": 8})
        design = make_design("equispaced", 8, 64, period=1.0)
        theta = ParameterSpec("power_decay", 24, seed=2, exponent=2.0)
        records = sweep(basis, design, theta, range(1, 25))
        assert all(r.error is None for r in records)
        for record in records:
            assert np.isfinite(record.risk_all) and record.risk_all >= 0
            assert np.isfinite(record.norm_A)
        for a, b in zip(records, records[1:]):
            assert b.norm_M_TU <= a.norm_M_TU * (1 + 1e-9) + 1e-12
            assert b.nescience_error <= a.nescience_error + 1e-12
        # the matched-budget point fits the training data exactly
        by_m = {r.m: r for r in records}
        assert by_m[24].rank_TM == 8

    def test_asymptotic_descent_gaussian_columns(self):
        # wide random designs: the pseudoinverse norm at m = 4n sits below its
        # value just past the threshold in at least 95 of 100 seeded trials.
        # The sweep runs on the raw block plus one prediction row.
        n = 12
        basis = BasisSpec("rff", 1, 4 * n)
        design = direct_design(np.zeros(n), [0.0])
        theta = ParameterSpec("unstructured_iid", 4 * n, seed=0)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            block = rng.standard_normal((n, 4 * n))
            full = np.vstack([block, np.ones((1, 4 * n))])
            with mock.patch.object(decomposition, "evaluate_columns", return_value=full):
                records = sweep(basis, design, theta, [n + 1, 4 * n])
            assert all(r.error is None for r in records)
            if records[1].norm_pinv_TM < records[0].norm_pinv_TM:
                wins += 1
        assert wins >= 95


def nescient_mismatches(records, full, design, tol=1e-10):
    """Every row whose ``norm_M_TU`` or ``norm_A`` strays from the norm taken afresh at its m.

    The references are ``spectral_norm`` of the panel's T_U and of the dense
    aliasing operator of the row's lambda, both formed from the panel alone.
    """
    out = []
    for record in records:
        panel = build_panels(full, design, record.m)
        wants = {"norm_M_TU": spectral_norm(panel.train_nescient),
                 "norm_A": spectral_norm(aliasing_operator(panel, record.lam))}
        for column, want in wants.items():
            got = getattr(record, column)
            if record.error is not None or not abs(got - want) <= tol * want:
                out.append((record.lam, record.m, column, got, want, record.error))
    return out


class TestNescientGram:
    """The sweep's downdated Gram of T_U against the norms of every panel taken afresh.

    n = 12 and p = 60, so the Gram of T_U serves m up to 48 and the thin
    route the rest.  Ranges start on either side, and two of them cross the
    handoff at m = 48 with a stride.
    """

    N, BUDGET = 12, 60
    LAMBDAS = (0.0, 1e-4, 1.0)
    RANGES = {"contiguous": range(1, 61), "strided": range(3, 61, 7), "single": [20],
              "thin-start": range(50, 61), "thin-single": [55],
              "strided-across-handoff": range(44, 61, 8)}

    def system(self, dtype, weighted):
        rng = np.random.default_rng(7)
        block = rng.standard_normal((self.N, self.BUDGET))
        if dtype is complex:
            block = block + 1j * rng.standard_normal((self.N, self.BUDGET))
        if weighted:
            # column norms fall from 1 to 1e-12, so that the squared norm of
            # T_U shrinks past REFACTOR_FALL many times over a range
            block = block * np.logspace(0, -12, self.BUDGET)
        full = np.vstack([block, np.ones((1, self.BUDGET), dtype=block.dtype)])
        return full, direct_design(np.zeros(self.N), [0.0])

    def sweep_counting_grams(self, monkeypatch, full, design, ms):
        """The sweep's records over ms, and the width of T_U at each formation of its Gram
        and at each ``spectral_norm`` call."""
        formed, normed = [], []
        original_gram, original_norm = decomposition.scaled_gram, decomposition.spectral_norm

        def counted_gram(block):
            formed.append(block.shape[1])
            return original_gram(block)

        def counted_norm(block):
            normed.append(block.shape[1])
            return original_norm(block)

        monkeypatch.setattr(decomposition, "scaled_gram", counted_gram)
        monkeypatch.setattr(decomposition, "spectral_norm", counted_norm)
        monkeypatch.setattr(decomposition, "evaluate_columns", lambda *args, **kwargs: full)
        records = decomposition.sweep(BasisSpec("rff", 1, self.BUDGET), design,
                                      ParameterSpec("unstructured_iid", self.BUDGET, seed=3),
                                      ms, lambdas=self.LAMBDAS)
        return records, formed, list(normed)

    @pytest.mark.parametrize("weighted", [False, True], ids=["flat", "power-weighted"])
    @pytest.mark.parametrize("kind", list(RANGES))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_norms_taken_afresh(self, monkeypatch, dtype, kind, weighted):
        full, design = self.system(dtype, weighted)
        ms = self.RANGES[kind]
        records, formed, normed = self.sweep_counting_grams(monkeypatch, full, design, ms)
        assert len(records) == len(self.LAMBDAS) * len(ms)
        assert nescient_mismatches(records, full, design) == []
        # the thin side takes spectral_norm of T_U once per m, empty T_U at
        # m = 60 included, and the Gram side never does
        widths = [self.BUDGET - m for m in ms]
        assert normed == [width for width in widths if width < self.N]
        # formed once at the first m of the Gram side; again only when the
        # trace has fallen far enough, which a flat basis never lets it do
        # over this range.  A range that starts thin forms none
        gram_side = [width for width in widths if width >= self.N]
        assert formed[:1] == gram_side[:1]
        if weighted and len(gram_side) > 1:
            assert len(formed) > 1
        else:
            assert len(formed) == len(gram_side[:1])
        # and no m reads a Gram whose T_U has shrunk more than 2**10-fold
        # since the Gram was formed
        train, starts = full[: self.N], [self.BUDGET - width for width in formed]
        for m in ms:
            if self.BUDGET - m >= self.N:
                start = max(s for s in starts if s <= m)
                assert (np.linalg.norm(train[:, m:]) ** 2 * 2.0**10 * (1 + 1e-9)
                        >= np.linalg.norm(train[:, start:]) ** 2), (m, start)

    @pytest.mark.parametrize("drift_control", [True, False], ids=["held", "off"])
    def test_a_skipped_downdate_is_caught(self, monkeypatch, drift_control):
        # a planted fault: the Gram at m = 20 keeps column 19.  The trace gap
        # forms the Gram again at once, which the single formation that
        # test_matches_norms_taken_afresh requires rules out; with drift
        # control off, the norms stray instead
        full, design = self.system(complex, weighted=False)
        original = decomposition._NescientGram.at

        def skipping(self, m):
            if m == 20:
                self.m = m
            return original(self, m)

        monkeypatch.setattr(decomposition._NescientGram, "at", skipping)
        if not drift_control:
            monkeypatch.setattr(decomposition, "REFACTOR_FALL", math.inf)
            monkeypatch.setattr(decomposition, "TRACE_GAP_TOL", math.inf)
        records, formed, _ = self.sweep_counting_grams(monkeypatch, full, design, range(1, 61))
        if drift_control:
            assert formed == [self.BUDGET - 1, self.BUDGET - 20]
            assert nescient_mismatches(records, full, design) == []
        else:
            assert formed == [self.BUDGET - 1]
            strayed = {row[1] for row in nescient_mismatches(records, full, design)}
            assert strayed == set(range(20, 49))


class TestRowBlocks:
    """The sweep evaluates the operator in row blocks and keeps only what it reads.

    Every design here has more than ``BLOCK`` rows, so the sweep makes at
    least two ``evaluate_columns`` calls.  It keeps the training rows over
    every column and the prediction rows over the first ``max(m)`` columns.
    """

    LAMBDAS = (0.0, 1e-2)

    def system(self, family, n=24, grid=400, budget=60):
        if family in ("rff", "rrf"):
            basis = BasisSpec(family, 6, budget, seed=3)
            design = make_design("sphere_uniform", n, grid, dim=6, seed=3)
        else:
            basis = BasisSpec(family, 1, budget)
            design = make_design("uniform_interval", n, grid, interval=(-1.0, 1.0), seed=3)
        assert design.all_points.shape[0] > BLOCK
        return basis, design, ParameterSpec("unstructured_iid", budget, seed=4)

    @pytest.mark.parametrize("family", ["rff", "rrf"])
    def test_window_matches_the_whole_sweep(self, family):
        # the window trims the prediction rows to m = 40 where the whole
        # sweep keeps 60 columns, starts its Gram of T_U at m = 20, and
        # factors T_M afresh at m = 20 where the whole sweep carries its
        # factor.  Ranks, flags and errors match exactly, every float by the
        # golden rule: at rank = m the bias is rounding, 1e-14 or less
        basis, design, theta = self.system(family)
        whole = sweep(basis, design, theta, range(1, 61), lambdas=self.LAMBDAS)
        window = sweep(basis, design, theta, range(20, 41), lambdas=self.LAMBDAS)
        rows = [r for r in whole if 20 <= r.m <= 40]
        assert len(window) == len(rows) == 2 * 21
        assert all(r.error is None for r in rows)
        assert record_mismatches(window, rows) == []

    @pytest.mark.parametrize("family", ["rff", "rrf", "legendre"])
    def test_keeps_training_rows_and_prediction_rows_up_to_the_largest_m(self, monkeypatch,
                                                                          family):
        # n = 300 > BLOCK: the training rows span two of the three blocks,
        # and the middle block holds training and prediction rows.  The rows
        # kept are those of one evaluation over all rows, bit for bit and in
        # its memory layout, and y is M theta over every column
        basis, design, theta = self.system(family, n=300, grid=300, budget=320)
        original = decomposition.build_panels
        seen = []

        def spy(operator, *args, **kwargs):
            seen.append(operator)
            return original(operator, *args, **kwargs)

        monkeypatch.setattr(decomposition, "build_panels", spy)
        records = sweep(basis, design, theta, [150, 299, 301])
        assert [r.error for r in records] == [None] * 3
        full = evaluate_columns(basis, design.all_points, (0, 320))
        operator = seen[0]
        assert all(o is operator for o in seen)
        np.testing.assert_array_equal(operator.train, full[:300])
        np.testing.assert_array_equal(operator.pred, full[300:, :301])
        assert operator.train.flags.f_contiguous == full.flags.f_contiguous
        y = full @ decomposition.make_theta(theta)
        assert np.max(np.abs(operator.y - y)) <= 1e-13 * np.max(np.abs(y))

    def test_every_point_evaluated_once_in_blocks(self, monkeypatch):
        basis, design, theta = self.system("rff")
        original = decomposition.evaluate_columns
        calls = []

        def spy(spec, points, col_range):
            calls.append((np.array(points), col_range))
            return original(spec, points, col_range)

        monkeypatch.setattr(decomposition, "evaluate_columns", spy)
        records = sweep(basis, design, theta, range(20, 41), lambdas=self.LAMBDAS)
        assert all(r.error is None for r in records)
        assert len(calls) >= 2
        assert all(col_range == (0, basis.column_budget) for _, col_range in calls)
        assert all(0 < points.shape[0] <= BLOCK for points, _ in calls)
        np.testing.assert_array_equal(np.vstack([points for points, _ in calls]),
                                      design.all_points)

    def test_no_array_of_every_row_and_column(self):
        # 1024 x 400 complex entries are 6.6 MB.  The sweep keeps 24 training
        # rows over 400 columns and 1000 prediction rows over 30, and
        # evaluates 256 rows at a time; one evaluation peaks at about 2.5 MB
        basis, design, theta = self.system("rff", grid=1000, budget=400)
        operator_bytes = design.all_points.shape[0] * 400 * 16
        tracemalloc.start()
        try:
            records = sweep(basis, design, theta, range(25, 31))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.error is None for r in records)
        assert peak < 0.6 * operator_bytes

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_entry_in_a_dropped_column_fails_every_row(self, monkeypatch, value):
        # the entry sits in a prediction row past max(m), which the sweep
        # does not keep; it would still reach y = M theta, so every
        # (lambda, m) gets the finiteness error
        basis, design, theta = self.system("rff")
        original = decomposition.evaluate_columns
        calls = []

        def planted(spec, points, col_range):
            block = original(spec, points, col_range)
            calls.append(block.shape[0])
            if len(calls) == 2:  # the second block holds prediction rows only
                block[5, 45] = value
            return block

        monkeypatch.setattr(decomposition, "evaluate_columns", planted)
        ms = range(20, 41)
        records = sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert calls[0] > design.n_train and len(calls) == 2
        assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in self.LAMBDAS for m in ms]
        for record in records:
            assert record.error == "InvalidInputError: matrix entries must be finite"
            assert record.rank_TM == -1 and np.isnan(record.risk_all)

    def test_evaluation_error_still_raises(self, monkeypatch):
        # a non-finite entry in the first block does not turn an evaluation
        # error in a later block into error rows
        basis, design, theta = self.system("rff")
        original = decomposition.evaluate_columns
        calls = []

        def failing(spec, points, col_range):
            calls.append(1)
            if len(calls) == 2:
                raise InvalidInputError("planted evaluation error")
            block = original(spec, points, col_range)
            block[0, 0] = np.nan
            return block

        monkeypatch.setattr(decomposition, "evaluate_columns", failing)
        with pytest.raises(InvalidInputError, match="planted evaluation error"):
            sweep(basis, design, theta, range(20, 41))

    def test_identity_check_reads_every_coefficient(self, monkeypatch):
        # once per m, before the filter: the three columns over all
        # k = min(n, m) singular vectors of T_M, on both sides of m = n = 24.
        # A 1e-6 change to any one of the k coefficients of y_train trips it
        basis, design, theta = self.system("rff")
        original = decomposition._identity_residual
        shapes = []

        def spy(coefficients, y_norm):
            shapes.append(coefficients.shape)
            for row in range(coefficients.shape[0]):
                planted = coefficients.copy()
                planted[row, 0] += 1e-6 * y_norm
                with pytest.raises(DecompositionMismatchError):
                    original(planted, y_norm)
            return original(coefficients, y_norm)

        monkeypatch.setattr(decomposition, "_identity_residual", spy)
        ms = range(20, 41)
        records = sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert all(r.error is None for r in records)
        assert shapes == [(min(design.n_train, m), 3) for m in ms]

    @pytest.mark.parametrize("family", ["rff", "rrf"])
    def test_random_features_drawn_once_per_sweep(self, monkeypatch, family):
        # 624 rows are three row blocks, one evaluate_columns call each, and
        # the calls share one draw of the projection vectors
        basis, design, theta = self.system(family, grid=600)
        original = decomposition.evaluate_columns
        calls = []

        def spy(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(decomposition, "evaluate_columns", spy)
        bases.feature_weights.cache_clear()
        records = sweep(basis, design, theta, range(20, 41))
        assert all(r.error is None for r in records)
        info = bases.feature_weights.cache_info()
        assert len(calls) >= 3
        assert (info.misses, info.hits) == (1, len(calls) - 1)


def swap_columns(a, i, j):
    out = a.copy()
    out[:, [i, j]] = out[:, [j, i]]
    return out


def flip_column(a, i):
    out = a.copy()
    out[:, i] *= -1
    return out


# the factor faults a hand-updated factor could make, planted in one factor;
# the sign flip is on the last retained left vector, whose singular value is
# far below sigma_max, so that only a tight bound sees it
FACTOR_FAULTS = {
    "right-vectors-swapped": lambda f: replace(
        f, right_vectors=swap_columns(f.right_vectors, 0, 1)),
    "right-vectors-scaled": lambda f: replace(f, right_vectors=f.right_vectors * (1 + 1e-6)),
    "left-vectors-swapped": lambda f: replace(f, left_vectors=swap_columns(f.left_vectors, 0, 1)),
    "left-sign-flipped": lambda f: replace(
        f, left_vectors=flip_column(f.left_vectors, f.numerical_rank - 1)),
}


class TestFactorCheck:
    """Every factor of T_M, afresh or carried, is checked against the held rows.

    n = 12 and the sweeps walk m 4-24.  A factor made afresh comes from
    ``decomposition.svd``; a carried one from ``decomposition.svd_append``.
    """

    LAMBDAS = (0.0, 1e-2)

    def system(self):
        basis = BasisSpec("rff", 6, 40, seed=41)
        design = make_design("sphere_uniform", 12, 60, dim=6, seed=41)
        return basis, design, ParameterSpec("unstructured_iid", 40, seed=42)

    def sweep_noting_fresh(self, monkeypatch, ms, plant=None, kind=None):
        """The sweep's records and the m it factors afresh; ``plant`` spoils one kind of factor."""
        fresh = []
        original = {"svd": decomposition.svd, "svd_append": decomposition.svd_append}

        def made_afresh(block, *args):
            fresh.append(block.shape[1])
            factor = original["svd"](block, *args)
            return plant(factor) if kind == "svd" and plant else factor

        def carried(last, column, *args):
            factor = original["svd_append"](last, column, *args)
            return plant(factor) if kind == "svd_append" and plant and factor else factor

        monkeypatch.setattr(decomposition, "svd", made_afresh)
        monkeypatch.setattr(decomposition, "svd_append", carried)
        records = sweep(*self.system(), ms, lambdas=self.LAMBDAS)
        monkeypatch.undo()
        return records, fresh

    @pytest.mark.parametrize("target", [6, 12, 20], ids=["m<n", "m=n", "m>n"])
    @pytest.mark.parametrize("kind", ["svd", "svd_append"], ids=["fresh", "carried"])
    @pytest.mark.parametrize("fault", list(FACTOR_FAULTS))
    def test_planted_fault_errors_exactly_its_m(self, monkeypatch, fault, kind, target):
        # a fresh factor at the target takes a gap just before it; a carried
        # one a contiguous range.  Every lambda errors at the target, the next
        # m is factored afresh, and every other row matches the clean sweep
        # by the golden rule, and exactly before the target
        if kind == "svd":
            ms = [*range(4, target - 1), *range(target, 25)]
        else:
            ms = list(range(4, 25))

        def plant(factor):
            at_target = factor.right_vectors.shape[0] == target
            return FACTOR_FAULTS[fault](factor) if at_target else factor

        clean, clean_fresh = self.sweep_noting_fresh(monkeypatch, ms)
        records, fresh = self.sweep_noting_fresh(monkeypatch, ms, plant, kind)
        assert (target in clean_fresh) == (kind == "svd")
        assert target + 1 not in clean_fresh and target + 1 in fresh
        assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in self.LAMBDAS for m in ms]
        for got in records:
            if got.m == target:
                assert got.error.startswith("DecompositionMismatchError: factor of T_M fails")
                assert got.rank_TM == -1 and np.isnan(got.risk_all)
        others = [i for i, r in enumerate(records) if r.m != target]
        assert record_mismatches([records[i] for i in others], [clean[i] for i in others]) == []
        assert all(got == want for got, want in zip(records, clean) if got.m < target)

    def test_check_adds_nothing_to_a_clean_sweep(self, monkeypatch):
        # the probes reach no output: without the check every row is the same
        basis, design, theta = self.system()
        checked = sweep(basis, design, theta, range(1, 41), lambdas=self.LAMBDAS)
        monkeypatch.setattr(decomposition, "_checked_factor", lambda block, factor: factor)
        assert sweep(basis, design, theta, range(1, 41), lambdas=self.LAMBDAS) == checked

    def test_build_panels_checks_a_factor_of_the_whole_operator(self, monkeypatch):
        basis, design, _ = self.system()
        full = evaluate_columns(basis, design.all_points, (0, 40))
        original = decomposition.svd
        monkeypatch.setattr(decomposition, "svd",
                            lambda *args: FACTOR_FAULTS["left-sign-flipped"](original(*args)))
        with pytest.raises(DecompositionMismatchError, match="factor of T_M fails"):
            build_panels(full, design, 8)


class TestCarriedFactor:
    """The factor a sweep carries up its model sizes against ``linalg.svd`` afresh at every m.

    Each system has n = 20 and its windows cross m = n.  The reference
    sweep factors every m afresh (``CARRY_LIMIT`` = 1).
    """

    LAMBDAS = (0.0, 1e-2)
    # the model sizes of each range, and those a sweep over it factors afresh;
    # "after-failure" plants a failed check in the carried factor at m = 15
    RANGES = {
        "contiguous": (list(range(8, 36)), [8]),
        "gap": ([*range(8, 19), *range(22, 36)], [8, 22]),
        "after-failure": (list(range(8, 36)), [8, 16]),
    }

    def system(self, family):
        if family == "cluster_ising":
            basis = BasisSpec("cluster_ising", 6, 64, ordering="physical_cluster",
                              params={"chain_length": 6})
            design = experiments.ising_design(6, 20, 44, "size_lex", 0)
            return basis, design, ParameterSpec("power_decay", 64, seed=1, exponent=1.5)
        basis = BasisSpec(family, 6, 48, seed=5)
        design = make_design("sphere_uniform", 20, 40, dim=6, seed=5)
        return basis, design, ParameterSpec("unstructured_iid", 48, seed=6)

    def steps(self, monkeypatch, family, ms, fail_at=None):
        """The sweep's steps, and the m it factors afresh; ``fail_at`` fails one carried factor."""
        fresh = []
        original_svd, original_append = decomposition.svd, decomposition.svd_append

        def made_afresh(block, *args):
            fresh.append(block.shape[1])
            return original_svd(block, *args)

        def carried(last, column, *args):
            factor = original_append(last, column, *args)
            if factor is not None and factor.right_vectors.shape[0] == fail_at:
                factor = FACTOR_FAULTS["right-vectors-scaled"](factor)
            return factor

        monkeypatch.setattr(decomposition, "svd", made_afresh)
        monkeypatch.setattr(decomposition, "svd_append", carried)
        steps = list(decomposition.sweep_steps(*self.system(family), ms, lambdas=self.LAMBDAS))
        monkeypatch.undo()
        return steps, fresh

    @pytest.mark.parametrize("kind", list(RANGES))
    @pytest.mark.parametrize("family", ["rff", "rrf", "cluster_ising"])
    def test_matches_svd_afresh(self, monkeypatch, family, kind):
        # ranks exactly and singular values to 1e-12 sigma_max against
        # linalg.svd of each step's T_M; rows by the golden rule against a
        # sweep that factors every m afresh
        ms, afresh = self.RANGES[kind]
        fail_at = 15 if kind == "after-failure" else None
        steps, fresh = self.steps(monkeypatch, family, ms, fail_at)
        assert fresh == afresh
        monkeypatch.setattr(decomposition, "CARRY_LIMIT", 1)
        reference, fresh = self.steps(monkeypatch, family, ms)
        assert fresh == ms
        for panel, rows in steps:
            if rows[0].m == fail_at:
                assert panel is None
                assert all(r.error.startswith("DecompositionMismatchError: factor") for r in rows)
                continue
            want = decomposition.svd(panel.train_modeled)
            assert panel.rank == want.numerical_rank, panel.m
            deviation = np.abs(panel.factor.singular_values - want.singular_values)
            assert deviation.max() <= 1e-12 * want.singular_values[0], panel.m
        got = decomposition.lambda_major(rows for _, rows in steps)
        want = decomposition.lambda_major(rows for _, rows in reference)
        keep = [i for i, r in enumerate(got) if r.m != fail_at]
        assert all(want[i].error is None for i in keep)
        assert record_mismatches([got[i] for i in keep], [want[i] for i in keep]) == []

    def test_chain_refreshes_every_carry_limit_sizes_and_at_a_zero_residual(self, monkeypatch):
        # 100 contiguous model sizes factor afresh at the first and then every
        # CARRY_LIMIT sizes; a zero column, whose residual rho is exactly 0
        # while U is thinner than n, is factored afresh too
        basis, design, theta = self.system("rrf")
        full = evaluate_columns(basis, design.all_points, (0, 48))
        full[:, 12] = 0.0
        fresh = []
        original = decomposition.svd

        def made_afresh(block, *args):
            fresh.append(block.shape[1])
            return original(block, *args)

        monkeypatch.setattr(decomposition, "svd", made_afresh)
        monkeypatch.setattr(decomposition, "evaluate_columns", lambda *args: full)
        monkeypatch.setattr(decomposition, "CARRY_LIMIT", 10)
        records = sweep(basis, design, theta, range(1, 49))
        assert all(r.error is None for r in records)
        assert fresh == [1, 11, 13, 23, 33, 43]

    @pytest.mark.parametrize("stem, lo, hi, route", [
        ("sweep_rff_sphere", 81, 120, [False]),
        ("ising_sweep_physical", 190, 230, [True]),
    ], ids=["rff", "spin-chain"])
    def test_arrow_routes_over_a_window(self, monkeypatch, tmp_path, stem, lo, hi, route):
        # the np.linalg.svd calls of each arrow, by compute_uv: every arrow
        # of the benchmark's RFF window takes the secular route ([False], a
        # values-only SVD); past m = 100 every arrow of the physical spin
        # chain has a weight or a pole gap at rounding and takes the dense
        # SVD with no values-only SVD before it ([True])
        routes, original_svd, original_route = [], np.linalg.svd, linalg._arrow_svd

        def recorded(*args):
            calls = []

            def spy(matrix, *svd_args, **kwargs):
                calls.append(kwargs.get("compute_uv", True))
                return original_svd(matrix, *svd_args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", spy)
                routes.append(calls)
                return original_route(*args)

        monkeypatch.setattr(linalg, "_arrow_svd", recorded)
        text = (Path(__file__).resolve().parent.parent / "configs" / f"{stem}.cfg").read_text()
        text = re.sub(r"(?m)^m_range = .*$", f"m_range = {lo} {hi}", text)
        experiments.run_config(parse_config_text(text), out_dir=str(tmp_path), seed_override=0)
        assert len(routes) == hi - lo
        assert all(calls == route for calls in routes)

    @pytest.mark.parametrize("stem", ["fourier_check", "gauss_compare", "unstructured_eb"])
    def test_recipes_without_neighbouring_sizes_never_update(self, monkeypatch, tmp_path, stem):
        # fourier_check and gauss_compare sweep one m, unstructured_eb m 10, 30, 45
        calls = []
        monkeypatch.setattr(decomposition, "svd_append", lambda *args: calls.append(1))
        config = parse_config(Path(__file__).resolve().parent.parent / "configs" / f"{stem}.cfg")
        experiments.run_config(config, out_dir=str(tmp_path), seed_override=0)
        assert calls == []
