"""Panels, operators, risk breakdown, ridge variants, and the sweep engine."""

from unittest import mock

import numpy as np
import pytest

import gadkit.decomposition as decomposition
from dense_reference import augmented_block, b_operator, infer_theta, invertibility_operator
from gadkit import experiments
from gadkit import (
    BasisSpec,
    DecompositionMismatchError,
    InvalidInputError,
    ParameterSpec,
    evaluate_columns,
    make_design,
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
from gadkit.linalg import SvdResult, kernel_projector, pseudoinverse, spectral_norm

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
        bottom = np.hstack([panel.pred_modeled, panel.pred_nescient])
        np.testing.assert_array_equal(np.vstack([top, bottom]), full)

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
        rng = np.random.default_rng(9)
        for lam in (1e-4, 1e-2, 1.0):
            for _ in range(10):
                rows = int(rng.integers(2, 12))
                m = int(rng.integers(1, 12))
                design = direct_design(rng.standard_normal(rows), rng.standard_normal(2))
                full = rng.standard_normal((rows + 2, max(m, 1)))
                panel = build_panels(full, design, m)
                pinv_norm = ridge_panels(panel, lam)
                s_aug = np.linalg.svd(augmented_block(panel, lam), compute_uv=False)
                base = np.zeros(m)
                s_base = np.linalg.svd(panel.train_modeled, compute_uv=False)
                base[: s_base.size] = s_base
                np.testing.assert_allclose(s_aug, np.sqrt(base**2 + rows * lam), rtol=1e-9)
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

    @pytest.mark.parametrize("ms, lambdas", [
        ([0, 5], (0.0,)),
        ([5, 41], (0.0,)),
        ([], (0.0,)),
        (range(1, 6), ()),
        (range(1, 6), (0.0, -1e-3)),
        (range(1, 6), (float("nan"),)),
        (range(1, 6), (1e-2, float("inf"))),
    ], ids=["m-zero", "m-over-budget", "empty-range", "no-lambda", "negative-lambda",
            "nan-lambda", "inf-lambda"])
    def test_bad_input_rejected_before_columns_are_evaluated(self, monkeypatch, ms, lambdas):
        basis, design, theta = self.small_setup(seed=11)

        def never(*args, **kwargs):
            raise AssertionError("columns evaluated")

        monkeypatch.setattr(decomposition, "evaluate_columns", never)
        with pytest.raises(InvalidInputError):
            decomposition.sweep(basis, design, theta, ms, lambdas=lambdas)

    def test_negative_zero_lambda_writes_the_zero_rows(self, tmp_path):
        basis, design, theta = self.small_setup(seed=21)
        paths = [
            experiments.write_sweep_csv(tmp_path / f"{name}.csv",
                                        sweep(basis, design, theta, range(1, 21), lambdas=(lam,)))
            for name, lam in (("zero", 0.0), ("negative_zero", -0.0))
        ]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sparse_m_range_flags(self):
        basis, design, theta = self.small_setup(seed=13)
        dense = {r.m: r for r in sweep(basis, design, theta, range(1, 31))}
        sparse = sweep(basis, design, theta, [5, 10, 20, 30])
        for record in sparse:
            assert record.new_col_independent == dense[record.m].new_col_independent
            assert record.norm_pinv_TM == dense[record.m].norm_pinv_TM

    def test_failed_m_is_marked_not_fatal(self, monkeypatch):
        basis, design, theta = self.small_setup(seed=15)
        clean = {r.m: r for r in decomposition.sweep(basis, design, theta, range(1, 6))}
        original = decomposition.risk_and_errors

        def flaky(panel, *args, **kwargs):
            if panel.m == 3:
                raise DecompositionMismatchError("synthetic failure for testing")
            return original(panel, *args, **kwargs)

        monkeypatch.setattr(decomposition, "risk_and_errors", flaky)
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
        # ridge norm and risk run once per lambda on the shared panel: a failure
        # there marks one (lambda, m) row, and the lambda-free rank is still
        # stored, so no later flag needs a prefix-rank SVD
        basis, design, theta = self.small_setup(seed=25)
        ms = range(1, 16)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        original_risk = decomposition.risk_and_errors
        original_spectrum = decomposition.spectrum
        prefix_svds = []

        def flaky(panel, theta, y_full, lam=0.0, **kwargs):
            if panel.m == 7 and lam == 1e-2:
                raise DecompositionMismatchError("synthetic failure for testing")
            return original_risk(panel, theta, y_full, lam=lam, **kwargs)

        def counted(*args, **kwargs):
            prefix_svds.append(1)
            return original_spectrum(*args, **kwargs)

        monkeypatch.setattr(decomposition, "risk_and_errors", flaky)
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

    def test_failed_panel_fails_every_lambda_at_that_m(self, monkeypatch):
        # the panel is shared: its failure marks m in every lambda and stores
        # no rank, so the flag at m + 1 comes from a prefix-rank SVD
        basis, design, theta = self.small_setup(seed=27)
        ms = range(1, 16)
        clean = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        original_panels = decomposition.build_panels
        original_spectrum = decomposition.spectrum
        prefix_widths = []

        def flaky(operator, design, m, *args, **kwargs):
            if m == 7:
                raise np.linalg.LinAlgError("SVD did not converge")
            return original_panels(operator, design, m, *args, **kwargs)

        def counted(block, *args, **kwargs):
            prefix_widths.append(block.shape[1])
            return original_spectrum(block, *args, **kwargs)

        monkeypatch.setattr(decomposition, "build_panels", flaky)
        monkeypatch.setattr(decomposition, "spectrum", counted)
        records = decomposition.sweep(basis, design, theta, ms, lambdas=self.LAMBDAS)
        assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in self.LAMBDAS for m in ms]
        for got, want in zip(records, clean):
            if got.m == 7:
                assert got.error == "LinAlgError: SVD did not converge"
                assert got.rank_TM == -1 and np.isnan(got.risk_all)
            else:
                assert got == want
        assert prefix_widths == [7]

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
        # projector (see risk_and_errors)
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
