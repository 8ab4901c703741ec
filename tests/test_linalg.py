"""Kernels: SVD, pseudoinverse, projectors, column appends, interlacing."""

import numpy as np
import pytest

from dense_reference import append_column, interleaving_check
from gadkit.errors import InvalidInputError
from gadkit.linalg import kernel_projector, pseudoinverse, spectral_norm, svd


def random_matrix(rng, rows, cols, complex_field=False):
    x = rng.standard_normal((rows, cols))
    if complex_field:
        x = x + 1j * rng.standard_normal((rows, cols))
    return x


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(2))
        np.testing.assert_allclose(res.singular_values, [1.0, 1.0])
        assert res.numerical_rank == 2

    def test_diagonal_rank_deficient(self):
        res = svd(np.array([[3.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(res.singular_values, [3.0, 0.0], atol=1e-15)
        assert res.numerical_rank == 1

    def test_reconstruction_random(self):
        # oracle: multiply the factors back together and compare elementwise;
        # the factorization must hold well inside 10x the rank threshold scale
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = random_matrix(rng, 5, 3)
            res = svd(x)
            rebuilt = res.left_vectors @ np.diag(res.singular_values) @ res.right_vectors.conj().T
            assert np.max(np.abs(rebuilt - x)) < 10 * res.rel_tol * res.singular_values[0]

    def test_values_nonincreasing_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for rows, cols in ((4, 7), (7, 4), (6, 6)):
            res = svd(random_matrix(rng, rows, cols, complex_field=True))
            assert np.all(res.singular_values >= 0)
            assert np.all(np.diff(res.singular_values) <= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = random_matrix(rng, 8, 5)
        first = svd(x)
        second = svd(x.copy())
        np.testing.assert_array_equal(first.singular_values, second.singular_values)
        np.testing.assert_array_equal(first.left_vectors, second.left_vectors)
        np.testing.assert_array_equal(first.right_vectors, second.right_vectors)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(InvalidInputError):
            svd(np.eye(2), rel_tol=0.0)

    def test_empty_columns(self):
        res = svd(np.zeros((3, 0)))
        assert res.numerical_rank == 0
        assert res.singular_values.size == 0


class TestPseudoinverse:
    def test_invertible_square(self):
        rng = np.random.default_rng(2)
        x = random_matrix(rng, 4, 4)
        np.testing.assert_allclose(x @ pseudoinverse(x), np.eye(4), atol=1e-10)

    def test_zero_matrix(self):
        out = pseudoinverse(np.zeros((3, 2)))
        assert out.shape == (2, 3)
        assert np.all(out == 0)

    def test_tall_diagonal_norm(self):
        # singular values are 2 and 1, so the pseudoinverse norm is 1/1
        x = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert spectral_norm(pseudoinverse(x)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_penrose_identities(self, complex_field):
        # spec-level property: four identities on random sizes up to 50x50
        rng = np.random.default_rng(99 if complex_field else 98)
        for _ in range(100):
            rows = int(rng.integers(1, 51))
            cols = int(rng.integers(1, 51))
            x = random_matrix(rng, rows, cols, complex_field)
            if rng.random() < 0.3 and cols >= 2:
                x[:, -1] = x[:, 0] * 2.0  # force rank deficiency
            p = pseudoinverse(x)
            scale = max(spectral_norm(x), 1.0)
            assert np.max(np.abs(x @ p @ x - x)) < 1e-9 * scale
            assert np.max(np.abs(p @ x @ p - p)) < 1e-9 * max(spectral_norm(p), 1.0)
            xp = x @ p
            px = p @ x
            assert np.max(np.abs(xp - xp.conj().T)) < 1e-9
            assert np.max(np.abs(px - px.conj().T)) < 1e-9

    def test_norm_reciprocal_of_least_singular(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = random_matrix(rng, 8, 5)
            res = svd(x)
            product = spectral_norm(pseudoinverse(x)) * res.min_positive_singular()
            assert product == pytest.approx(1.0, rel=1e-9)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_zero_and_empty(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0
        assert spectral_norm(np.zeros((4, 0))) == 0.0

    def test_direction_sampling_lower_bound(self):
        # oracle: ||Xv|| over unit directions never exceeds the norm, and a
        # dense scan of the circle approaches it quadratically in the gap
        rng = np.random.default_rng(3)
        x = random_matrix(rng, 2, 2)
        norm = spectral_norm(x)
        angles = np.linspace(0.0, 2 * np.pi, 10_000, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)])
        values = np.linalg.norm(x @ dirs, axis=0)
        assert values.max() <= norm + 1e-12
        assert norm - values.max() < 1e-6

    def test_random_directions_never_exceed(self):
        rng = np.random.default_rng(4)
        x = random_matrix(rng, 6, 4)
        norm = spectral_norm(x)
        v = rng.standard_normal((4, 10_000))
        v /= np.linalg.norm(v, axis=0)
        assert np.linalg.norm(x @ v, axis=0).max() <= norm + 1e-12


SPECTRAL_SHAPES = [(6, 6), (9, 4), (4, 9), (1, 7), (7, 1)]


def spectral_case(shape, kind, complex_field, scale):
    rows, cols = shape
    rng = np.random.default_rng([rows, cols, int(complex_field)])
    if kind == "zero":
        x = np.zeros(shape, dtype=complex if complex_field else float)
    elif kind == "rank_deficient":
        r = max(1, min(shape) - 2)
        x = random_matrix(rng, rows, r, complex_field) @ random_matrix(rng, r, cols, complex_field)
    else:
        x = random_matrix(rng, rows, cols, complex_field)
    return x * scale


class TestSpectralNormAgainstSvd:
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("kind", ["generic", "rank_deficient", "zero"])
    @pytest.mark.parametrize("shape", SPECTRAL_SHAPES)
    def test_matches_largest_singular_value(self, shape, kind, complex_field, scale):
        x = spectral_case(shape, kind, complex_field, scale)
        expected = float(np.linalg.svd(x, compute_uv=False)[0])
        got = spectral_norm(x)
        assert np.isfinite(got)
        if kind == "zero":
            assert got == 0.0
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_empty(self, shape, complex_field):
        x = np.zeros(shape, dtype=complex if complex_field else float)
        assert spectral_norm(x) == 0.0

    def test_single_huge_entry(self):
        # without scaling, the Gram entry 1e400 would overflow to inf
        x = np.zeros((3, 4))
        x[1, 2] = -1e200
        assert spectral_norm(x) == 1e200

    def test_norm_beyond_float_range_is_inf(self):
        assert spectral_norm(np.full((2, 2), 1e308)) == np.inf


class TestKernelProjector:
    def test_full_column_rank_gives_zero(self):
        rng = np.random.default_rng(6)
        x = random_matrix(rng, 6, 3)
        assert np.max(np.abs(kernel_projector(x))) < 1e-10

    def test_zero_matrix_gives_identity(self):
        np.testing.assert_allclose(kernel_projector(np.zeros((4, 3))), np.eye(3))

    def test_row_vector(self):
        # kernel of [[1, 1]] is spanned by (1, -1)/sqrt(2)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(kernel_projector(np.array([[1.0, 1.0]])), expected, atol=1e-12)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_projector_properties(self, complex_field):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            x = random_matrix(rng, rows, cols, complex_field)
            p = kernel_projector(x)
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            assert np.max(np.abs(x @ p)) < 1e-9 * max(spectral_norm(x), 1.0)


class TestAppendColumn:
    def test_duplicate_column_cannot_shrink(self):
        stacked, report = append_column(np.eye(2), np.array([1.0, 0.0]))
        assert stacked.shape == (2, 3)
        assert not report.was_independent
        assert report.new_min_singular >= report.old_min_singular - 1e-12

    def test_orthonormal_append(self):
        _, report = append_column(np.array([[1.0], [0.0]]), np.array([0.0, 1.0]))
        assert report.was_independent
        assert report.new_min_singular == pytest.approx(1.0)
        assert report.new_min_singular <= report.old_min_singular + 1e-12

    def test_constructed_dependent_column(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 4))
        w = rng.standard_normal(4)
        phi = x @ w + 1e-16 * rng.standard_normal(6)
        _, report = append_column(x, phi)
        assert not report.was_independent
        assert report.new_rank == report.old_rank

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            append_column(np.eye(2), np.ones(3))

    def test_rank_steps_by_at_most_one(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            rows = int(rng.integers(2, 10))
            cols = int(rng.integers(1, 10))
            x = random_matrix(rng, rows, cols)
            if rng.random() < 0.5 and cols >= 2:
                x[:, -1] = x[:, :-1] @ rng.standard_normal(cols - 1)
            dependent = rng.random() < 0.5
            phi = x @ rng.standard_normal(cols) if dependent else rng.standard_normal(rows)
            _, report = append_column(x, phi)
            assert report.new_rank in (report.old_rank, report.old_rank + 1)
            if report.old_rank > 0:
                if report.was_independent:
                    assert report.new_min_singular <= report.old_min_singular * (1 + 1e-9)
                else:
                    assert report.new_min_singular >= report.old_min_singular * (1 - 1e-9)


class TestInterleaving:
    def test_zero_matrix_rank_one(self):
        before, after, holds = interleaving_check(np.zeros((2, 2)), np.array([1.0, 0.0]))
        np.testing.assert_allclose(before, [0.0, 0.0])
        np.testing.assert_allclose(after, [1.0, 0.0], atol=1e-14)
        assert holds

    def test_zero_update(self):
        before, after, holds = interleaving_check(np.diag([2.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(before, after)
        assert holds

    def test_random_hermitian(self):
        rng = np.random.default_rng(10)
        raw = random_matrix(rng, 8, 8, complex_field=True)
        h = (raw + raw.conj().T) / 2
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        _, _, holds = interleaving_check(h, c)
        assert holds

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            interleaving_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))

    def test_subtraction_interleaves_from_below(self):
        # removing a rank-one positive part lowers each eigenvalue but never
        # past the next one down: check by updating the lowered matrix back up
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            raw = random_matrix(rng, n, n)
            h = (raw + raw.T) / 2
            c = rng.standard_normal(n)
            lowered = h - np.outer(c, c)
            eigs_low, eigs_orig, holds = interleaving_check(lowered, c)
            assert holds
            tol = 1e-9 * max(np.abs(eigs_orig).max(), 1.0)
            assert np.all(eigs_low <= eigs_orig + tol)
