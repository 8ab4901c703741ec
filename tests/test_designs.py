"""Sample designs and ground-truth coefficient generation."""

import numpy as np
import pytest

from gadkit import InvalidInputError, ParameterSpec, make_design, make_theta


class TestMakeDesign:
    def test_equispaced(self):
        design = make_design("equispaced", 4, 16, period=1.0)
        np.testing.assert_allclose(design.train_points[:, 0], [0.0, 0.25, 0.5, 0.75])

    def test_legendre_gauss_two_points(self):
        design = make_design("legendre_gauss", 2, 16)
        np.testing.assert_allclose(design.train_points[:, 0],
                                   [-1 / np.sqrt(3), 1 / np.sqrt(3)], rtol=1e-14)

    def test_sphere_radius(self):
        design = make_design("sphere_uniform", 5, 20, dim=16, seed=0)
        norms = np.linalg.norm(design.train_points, axis=1)
        assert np.max(np.abs(norms - 4.0)) < 1e-12
        grid_norms = np.linalg.norm(design.prediction_points, axis=1)
        assert np.max(np.abs(grid_norms - 4.0)) < 1e-12

    def test_uniform_interval_bounds(self):
        design = make_design("uniform_interval", 50, 64, interval=(-2.0, 3.0), seed=1)
        assert design.train_points.min() >= -2.0
        assert design.train_points.max() <= 3.0

    @pytest.mark.parametrize("strategy,kwargs", [
        ("uniform_interval", {"interval": (-1.0, 1.0)}),
        ("equispaced", {"period": 1.0}),
        ("legendre_gauss", {}),
        ("sphere_uniform", {"dim": 4}),
    ])
    def test_reproducible_and_disjoint(self, strategy, kwargs):
        first = make_design(strategy, 12, 40, seed=5, **kwargs)
        second = make_design(strategy, 12, 40, seed=5, **kwargs)
        np.testing.assert_array_equal(first.train_points, second.train_points)
        np.testing.assert_array_equal(first.prediction_points, second.prediction_points)
        train_keys = {row.tobytes() for row in first.train_points}
        assert all(row.tobytes() not in train_keys for row in first.prediction_points)
        assert first.prediction_points.shape[0] == 40

    def test_equispaced_grid_avoids_training_points(self):
        # the offset grid and kT/n lattice can only collide on exact floats
        design = make_design("equispaced", 8, 64, period=1.0)
        train_keys = {row.tobytes() for row in design.train_points}
        assert all(row.tobytes() not in train_keys for row in design.prediction_points)

    def test_from_dataset_skips_duplicates(self):
        pool = np.array([[0.0], [1.0], [1.0], [2.0], [3.0], [4.0]])
        design = make_design("from_dataset", 3, 2, seed=0, points=pool)
        train_keys = {row.tobytes() for row in design.train_points}
        assert len(train_keys) == 3
        assert all(row.tobytes() not in train_keys for row in design.prediction_points)

    def test_from_dataset_exhaustion(self):
        pool = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            make_design("from_dataset", 2, 2, seed=0, points=pool)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidInputError):
            make_design("lattice", 4, 4)

    def test_bad_counts(self):
        with pytest.raises(InvalidInputError):
            make_design("equispaced", 0, 4)
        with pytest.raises(InvalidInputError):
            make_design("equispaced", 4, 0)

    @pytest.mark.parametrize("n, grid_size, message", [
        (3, 2, "could not draw 3 distinct points on the dim-1 sphere"),
        (2, 1, "could not fill a 1-point prediction grid on the dim-1 sphere"),
    ], ids=["training", "grid"])
    def test_sphere_with_too_few_distinct_points_fails(self, n, grid_size, message):
        # a 1-D sphere has exactly two points: three distinct training draws
        # cannot exist, and two training points leave none for the grid; each
        # retry loop must give up cleanly
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            make_design("sphere_uniform", n, grid_size, dim=1, seed=0)

    def test_interval_of_five_floats_cannot_hold_six_points(self):
        # (0, 2e-323) holds five floats; four training points and a two-point
        # grid need six distinct ones, where the grid once repeated the fifth
        with pytest.raises(InvalidInputError, match=r"^\[0.0, 2e-323\] holds 5 floats, fewer "
                                                    r"than the 6 distinct training and grid"):
            make_design("uniform_interval", 4, 2, interval=(0.0, 2e-323), seed=0)

    def test_interval_of_five_floats_holds_five_distinct_points(self):
        design = make_design("uniform_interval", 3, 2, interval=(0.0, 2e-323), seed=0)
        points = np.concatenate([design.train_points, design.prediction_points]).ravel()
        assert sorted(points) == [0.0, 5e-324, 1e-323, 1.5e-323, 2e-323]

    def test_grid_that_the_floats_cannot_fill_fails(self):
        # [0, 5e-324) holds the one float 0, which training takes; the
        # candidates double past twice the floats and then give up
        with pytest.raises(InvalidInputError,
                           match=r"^could not fill a 2-point prediction grid on \[0.0, 5e-324\)$"):
            make_design("equispaced", 1, 2, period=5e-324)


class TestMakeTheta:
    def test_explicit(self):
        spec = ParameterSpec("explicit", 3, values=(1.0, 0.0, 0.0))
        np.testing.assert_array_equal(make_theta(spec), [1.0, 0.0, 0.0])

    def test_explicit_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            ParameterSpec("explicit", 4, values=(1.0, 2.0))

    def test_unstructured_variance(self):
        # law of large numbers: sample variance near sigma^2 at length 10^4
        spec = ParameterSpec("unstructured_iid", 10_000, seed=3, variance=1.0)
        theta = make_theta(spec)
        assert abs(theta.var() - 1.0) < 0.05

    def test_power_decay_positive_signs(self):
        spec = ParameterSpec("power_decay", 3, scale=1.0, exponent=2.0, random_signs=False)
        np.testing.assert_allclose(make_theta(spec), [1.0, 0.25, 1.0 / 9.0])

    def test_power_decay_random_signs_deterministic(self):
        spec = ParameterSpec("power_decay", 16, seed=9, scale=2.0, exponent=1.0)
        first = make_theta(spec)
        second = make_theta(spec)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_allclose(np.abs(first), 2.0 / np.arange(1, 17))

    def test_unstructured_deterministic(self):
        spec = ParameterSpec("unstructured_iid", 32, seed=11, variance=4.0)
        np.testing.assert_array_equal(make_theta(spec), make_theta(spec))
