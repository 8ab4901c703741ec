"""Kernels: SVD and its column update, pseudoinverse, projectors, column appends, interlacing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import append_column, interleaving_check
from gadkit import linalg
from gadkit.errors import InvalidInputError
from gadkit.linalg import (ARROW_CROSSOVER, BLOCK, DEFLATION_TOL, SvdResult, gram,
                           kernel_projector, pseudoinverse, row_peaks, spectral_norm, svd,
                           svd_append)


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


def factor_defects(factor, x, norm=None):
    """Reconstruction error over sigma_max, and the orthonormality defects of U and V,
    in the Frobenius norm or in the matrix norm ``norm`` (``np.linalg.norm``'s ``ord``)."""
    u, s, v = factor.left_vectors, factor.singular_values, factor.right_vectors
    rebuilt = np.linalg.norm((u * s) @ v.conj().T - x, norm) / s[0]
    eye = np.eye(s.size)
    return (rebuilt, np.linalg.norm(u.conj().T @ u - eye, norm),
            np.linalg.norm(v.conj().T @ v - eye, norm))


def arrow_route(monkeypatch, factor, column):
    """svd_append of the column, and the ``compute_uv`` of each ``np.linalg.svd`` it made:
    ``[False]`` for the secular route, ``[True]`` for the dense SVD alone."""
    calls, original = [], np.linalg.svd

    def spy(matrix, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return original(matrix, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", spy)
        return svd_append(factor, column), calls


def product_formula(u, v, phase, last, x, yt):
    """``[U D, last] X`` as ``U (D X)`` plus the last row's outer product, and
    ``[[V D, 0], [0, 1]] Y`` as ``V (D Y)`` over Y's last row: the phase scales the
    small factor, and a complex U meets the complex ``D X``."""
    k = phase.size
    left = u @ (phase[:, None] * x[:k])
    if last is not None:
        left += np.outer(last, x[k])
    return left, np.concatenate([v @ (phase[:, None] * yt[:, :k].T), yt[None, :, k]])


def axis_factor(s, rows):
    """The exact SVD of ``[diag(s); 0]`` (rows x s.size), with U and V columns of the identity."""
    k = s.size
    return SvdResult(np.eye(rows)[:, :k], s, np.eye(k), k, 1e-12)


class TestSvdAppend:
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("cols", [3, 7, 8, 12], ids=["m<n", "m+1=n", "m=n", "m>n"])
    def test_matches_svd_of_the_wider_block(self, complex_field, cols):
        rng = np.random.default_rng(cols)
        x = random_matrix(rng, 8, cols + 1, complex_field)
        got, want = svd_append(svd(x[:, :cols]), x[:, cols]), svd(x)
        assert got.numerical_rank == want.numerical_rank
        assert got.left_vectors.shape == want.left_vectors.shape
        assert got.right_vectors.shape == want.right_vectors.shape
        np.testing.assert_allclose(got.singular_values, want.singular_values,
                                   rtol=0, atol=1e-14 * want.singular_values[0])
        assert max(factor_defects(got, x)) < 1e-14

    def test_dependent_column_keeps_the_rank(self):
        rng = np.random.default_rng(3)
        x = random_matrix(rng, 8, 4)
        got = svd_append(svd(x), x @ np.array([1.0, -2.0, 0.5, 3.0]))
        assert got.numerical_rank == 4 and got.singular_values.size == 5
        assert max(factor_defects(got, np.column_stack([x, x @ [1.0, -2.0, 0.5, 3.0]]))) < 1e-13

    def test_zero_residual_gives_none(self):
        # a column exactly in range(U) while U is thinner than the block is tall
        assert svd_append(svd(np.eye(3)[:, :2]), np.array([2.0, -1.0, 0.0])) is None
        assert svd_append(svd(np.eye(3)[:, :2]), np.zeros(3)) is None

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_drift_over_600_consecutive_updates(self, complex_field):
        # one factor carried from 1 to 650 columns of a 50-row block, across
        # m = n, with no refresh: singular values stay within 1e-12 sigma_max
        # of an SVD afresh, and the factor reconstructs and stays orthonormal
        # to 1e-12 (about 1e-13, 3e-13 and 3e-13 here)
        rng = np.random.default_rng(11)
        x = random_matrix(rng, 50, 650, complex_field)
        factor = svd(x[:, :1])
        for m in range(2, 651):
            factor = svd_append(factor, x[:, m - 1])
            if m % 50 == 0:
                want = svd(x[:, :m])
                assert factor.numerical_rank == want.numerical_rank
                deviation = np.abs(factor.singular_values - want.singular_values).max()
                assert deviation <= 1e-12 * want.singular_values[0], m
        assert max(factor_defects(factor, x)) < 1e-12

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("k", [ARROW_CROSSOVER, 100, 200])
    @pytest.mark.parametrize("shape", ["growing", "square"])
    def test_secular_route_matches_svd_of_the_wider_block(self, monkeypatch, complex_field,
                                                          k, shape):
        # the arrow's singular values from LAPACK, one Newton step and the
        # closed-form vectors: no dense SVD.  Bounds as above, but in the
        # spectral norm: the Frobenius defects of a fresh 200-column SVD are
        # already 3e-14
        rng = np.random.default_rng(k)
        rows = k + 30 if shape == "growing" else k
        x = random_matrix(rng, rows, k + 11 if shape == "square" else k + 1, complex_field)
        cols = x.shape[1] - 1
        got, calls = arrow_route(monkeypatch, svd(x[:, :cols]), x[:, cols])
        assert calls == [False]
        want = svd(x)
        assert got.numerical_rank == want.numerical_rank
        assert got.left_vectors.shape == want.left_vectors.shape
        assert got.right_vectors.shape == want.right_vectors.shape
        np.testing.assert_allclose(got.singular_values, want.singular_values,
                                   rtol=0, atol=1e-14 * want.singular_values[0])
        assert max(factor_defects(got, x, 2)) < 1e-14

    @pytest.mark.parametrize("case", ["zero-weight", "repeated-value", "below-crossover"])
    def test_dense_route_takes_no_values_first(self, monkeypatch, case):
        # the O(k) deflation test and the size crossover send these arrows
        # to the dense SVD before any SVD is taken
        rng = np.random.default_rng(4)
        k = ARROW_CROSSOVER - 1 if case == "below-crossover" else 60
        s = np.sort(rng.uniform(1.0, 3.0, k))[::-1]
        t = rng.standard_normal(k + 5)
        if case == "zero-weight":
            t[7] = 0.0
        if case == "repeated-value":
            s[9] = s[10]
        got, calls = arrow_route(monkeypatch, axis_factor(s, k + 5), t)
        assert calls == [True]
        x = np.column_stack([np.vstack([np.diag(s), np.zeros((5, k))]), t])
        assert max(factor_defects(got, x, 2)) < 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(ARROW_CROSSOVER, 90),
           grow=st.booleans(), near=st.lists(st.tuples(st.sampled_from(["weight", "gap"]),
                                                        st.integers(0, 10**6),
                                                        st.floats(0.25, 4.0)),
                                              min_size=1, max_size=4))
    def test_near_deflation_keeps_the_factor_exact(self, seed, k, grow, near):
        # weights and pole gaps of about DEFLATION_TOL times the largest
        # entry sit on either side of the deflation test: whichever route
        # takes them, the factor rebuilds [X, t] and stays orthonormal
        rng, grow = np.random.default_rng(seed), int(grow)
        s = np.sort(rng.uniform(0.1, 1.0, k))[::-1]
        t = rng.standard_normal(k + grow)
        scale = DEFLATION_TOL * max(s[0], np.abs(t).max())
        for kind, where, ratio in near:
            i = where % k
            if kind == "weight":
                t[i] = ratio * scale
            elif i + 1 < k:
                s[i + 1] = s[i] - ratio * scale
        s = np.sort(s)[::-1]
        x = np.column_stack([np.vstack([np.diag(s), np.zeros((grow, k))]), t])
        got = svd_append(axis_factor(s, k + grow), t)
        assert max(factor_defects(got, x, 2)) < 1e-13

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("k, route", [(ARROW_CROSSOVER - 1, [True]),
                                          (ARROW_CROSSOVER, [False]), (100, [False])],
                             ids=["dense", "secular", "secular-100"])
    @pytest.mark.parametrize("shape", ["growing", "square"])
    def test_products_follow_the_product_formula(self, monkeypatch, complex_field, k, route,
                                                 shape):
        # complex factors take real GEMMs on the float views: they agree with
        # the complex products to rounding.  Real factors keep the formula,
        # bit for bit and in its memory layout
        rng = np.random.default_rng(k)
        rows = k + 30 if shape == "growing" else k
        x = random_matrix(rng, rows, k + 11 if shape == "square" else k + 1, complex_field)
        cols = x.shape[1] - 1
        seen, original = [], linalg._updated_vectors
        monkeypatch.setattr(linalg, "_updated_vectors",
                            lambda *args: seen.append((args, original(*args))) or seen[-1][1])
        got, calls = arrow_route(monkeypatch, svd(x[:, :cols]), x[:, cols])
        assert calls == route
        (args, vectors), = seen
        assert got.left_vectors is vectors[0] and got.right_vectors is vectors[1]
        for have, want in zip(vectors, product_formula(*args)):
            assert have.shape == want.shape and have.dtype == want.dtype
            if complex_field:
                assert np.linalg.norm(have - want) <= 1e-13 * np.linalg.norm(want)
            else:
                assert have.tobytes() == want.tobytes() and have.strides == want.strides

    def test_rank_follows_the_rule_of_svd(self):
        # a column of 1e-14 relative size sits below the threshold
        # rel_tol * sigma_max * max(rows, cols) of the 4-column block
        x, t = np.eye(6)[:, :4], np.eye(6)[:, 4]
        assert svd_append(svd(x), 1e-14 * t).numerical_rank == 4
        assert svd(np.column_stack([x, 1e-14 * t])).numerical_rank == 4
        assert svd_append(svd(x), 1e-10 * t).numerical_rank == 5

    def test_keeps_the_tolerance_of_its_factor(self):
        # a column of 1e-8 relative size clears the default threshold of the
        # 5-column block but not 1e-6 * sigma_max * 6: a chain ranks every
        # factor at the tolerance it started with
        x, t = np.eye(6)[:, :4], 1e-8 * np.eye(6)[:, 4]
        got = svd_append(svd(x, rel_tol=1e-6), t)
        assert got.rel_tol == 1e-6 and got.numerical_rank == 4
        assert svd(np.column_stack([x, t]), rel_tol=1e-6).numerical_rank == 4
        assert svd_append(svd(x), t).numerical_rank == 5


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
    # 1e-310 and 1e-320 make every entry subnormal, and 1e307 puts the
    # largest near the top of the float range: a Gram that scaled only one
    # of its factors, by 2**(-2e), would overflow or underflow there
    @pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e-200, 1.0, 1e200, 1e307])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("kind", ["generic", "rank_deficient", "zero"])
    @pytest.mark.parametrize("shape", SPECTRAL_SHAPES)
    def test_matches_largest_singular_value(self, shape, kind, complex_field, scale):
        x = spectral_case(shape, kind, complex_field, scale)
        expected = float(np.linalg.svd(x, compute_uv=False)[0])
        got = spectral_norm(x)
        if kind == "zero":
            assert got == 0.0
        elif np.isinf(expected):
            # at 1e307 the complex 6 x 6 rank-deficient case has its norm
            # beyond the float range, and both read inf
            assert got == np.inf
        else:
            assert np.isfinite(got)
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


class TestBlocks:
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("shape", [(BLOCK + 3, BLOCK + 40), (BLOCK + 40, BLOCK + 3),
                                       (2 * BLOCK + 1, 2 * BLOCK + 1), (5, 9), (9, 5)])
    def test_gram_matches_one_shot_product(self, shape, complex_field):
        x = random_matrix(np.random.default_rng(list(shape)), *shape, complex_field)
        want = x.conj().T @ x if shape[0] > shape[1] else x @ x.conj().T
        got = gram(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("shape", [(2 * BLOCK + 5, 7), (3, 0), (0, 4)])
    def test_row_peaks_match_one_shot_moduli(self, shape):
        x = random_matrix(np.random.default_rng(list(shape)), *shape, complex_field=True)
        np.testing.assert_array_equal(row_peaks(x), np.abs(x).max(axis=1, initial=0.0))


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
