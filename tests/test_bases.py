"""Basis families: column values, orderings, node computation, spin clusters."""

import tracemalloc

import numpy as np
import pytest

from gadkit import bases
from gadkit.bases import (
    FAMILIES,
    BasisSpec,
    column_order,
    enumerate_clusters,
    evaluate_columns,
    feature_weights,
    fourier_frequency,
    legendre_gauss_nodes,
)
from gadkit.errors import BudgetExceededError, InvalidInputError
from gadkit.linalg import BLOCK, blocks

# explicit low-degree polynomials, independent of the recurrence code
CHEBYSHEV = (
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: 2 * x**2 - 1,
    lambda x: 4 * x**3 - 3 * x,
    lambda x: 8 * x**4 - 8 * x**2 + 1,
    lambda x: 16 * x**5 - 20 * x**3 + 5 * x,
)
LEGENDRE = (
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: (3 * x**2 - 1) / 2,
    lambda x: (5 * x**3 - 3 * x) / 2,
    lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
    lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
)


class TestPolynomialFamilies:
    def test_monomial_vandermonde(self):
        spec = BasisSpec("monomial", 1, 3, params={"interval": (0.0, 2.0)})
        out = evaluate_columns(spec, [0.0, 1.0, 2.0], (0, 3))
        np.testing.assert_allclose(out, [[1, 0, 0], [1, 1, 1], [1, 2, 4]])

    def test_monomial_domain(self):
        spec = BasisSpec("monomial", 1, 3, params={"interval": (0.0, 1.0)})
        with pytest.raises(InvalidInputError):
            evaluate_columns(spec, [2.0], (0, 3))

    @pytest.mark.parametrize("family,oracle", [("chebyshev", CHEBYSHEV), ("legendre", LEGENDRE)])
    def test_recurrence_matches_explicit_polynomials(self, family, oracle):
        rng = np.random.default_rng(0)
        points = rng.uniform(-1, 1, 40)
        spec = BasisSpec(family, 1, 6)
        out = evaluate_columns(spec, points, (0, 6))
        for degree, poly in enumerate(oracle):
            np.testing.assert_allclose(out[:, degree], poly(points), atol=1e-12)

    def test_budget_exceeded(self):
        spec = BasisSpec("legendre", 1, 4)
        with pytest.raises(BudgetExceededError):
            evaluate_columns(spec, [0.0], (0, 5))

    def test_partial_column_range(self):
        spec = BasisSpec("legendre", 1, 6)
        points = np.array([0.3, -0.7])
        full = evaluate_columns(spec, points, (0, 6))
        part = evaluate_columns(spec, points, (2, 5))
        np.testing.assert_array_equal(part, full[:, 2:5])


class TestFourierFamily:
    def spec(self, budget=12, n=4):
        return BasisSpec("fourier_discrete", 1, budget,
                         params={"period": 1.0, "base_frequencies": n})

    def test_frequency_extension_alternates(self):
        freqs = [fourier_frequency(j, 4) for j in range(12)]
        assert freqs == [0, 1, 2, 3, 4, -1, 5, -2, 6, -3, 7, -4]

    def test_wraparound_column_equals_constant(self):
        # at equispaced points the frequency-n column is all ones, like k = 0
        points = np.arange(4) / 4
        out = evaluate_columns(self.spec(), points, (0, 12))
        np.testing.assert_allclose(out[:, 4], out[:, 0], atol=1e-12)

    def test_equispaced_periodicity_all_columns(self):
        n = 8
        spec = BasisSpec("fourier_discrete", 1, 3 * n,
                         params={"period": 1.0, "base_frequencies": n})
        points = np.arange(n) / n
        out = evaluate_columns(spec, points, (0, 3 * n))
        for j in range(n, 3 * n):
            alias = fourier_frequency(j, n) % n
            np.testing.assert_allclose(out[:, j], out[:, alias], atol=1e-12)

    def test_domain_is_half_open(self):
        with pytest.raises(InvalidInputError):
            evaluate_columns(self.spec(), [1.0], (0, 4))


class TestRandomFeatures:
    def test_weights_bit_identical_per_seed(self):
        a = feature_weights(16, 5, seed=7)
        b = feature_weights(16, 5, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_rff_values(self):
        spec = BasisSpec("rff", 3, 8, seed=5)
        points = np.random.default_rng(1).standard_normal((4, 3))
        out = evaluate_columns(spec, points, (0, 8))
        weights = feature_weights(8, 3, seed=5)
        expected = np.exp(1j * np.pi * points @ weights.T)
        np.testing.assert_allclose(out, expected)
        np.testing.assert_allclose(np.abs(out), 1.0)

    def test_rrf_values(self):
        spec = BasisSpec("rrf", 3, 8, seed=5)
        points = np.random.default_rng(2).standard_normal((4, 3))
        out = evaluate_columns(spec, points, (0, 8))
        weights = feature_weights(8, 3, seed=5)
        np.testing.assert_allclose(out, np.maximum(0.0, points @ weights.T))
        assert np.all(out >= 0)


class TestHalfTurnPhases:
    def test_within_two_ulp_of_the_exact_exponential(self):
        # reference: exp(1j pi p) with pi and the angle in long double; 2 ulp
        # of the modulus 1 bounds each part.  The angle pi * p itself rounds by
        # up to half an ulp of 60 pi, so cos and sin of it, the discrete
        # Fourier family's route, miss the bound
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("long double is no wider than double here")
        p = np.random.default_rng(0).uniform(-60.0, 60.0, (300, 400))
        angle = np.longdouble("3.14159265358979323846264338327950288") * p.astype(np.longdouble)
        bound = 2 * np.finfo(float).eps

        def error(out):
            return float(max(np.abs(out.real - np.cos(angle)).max(),
                             np.abs(out.imag - np.sin(angle)).max()))

        out = np.empty(p.shape, dtype=complex)
        bases._half_turn_columns(p.copy(), out)
        assert error(out) <= bound
        bases._phase_columns(p.copy(), np.pi, out)
        assert error(out) > 10 * bound

    def test_a_zero_sine_is_positive(self):
        # at -0.0, and at odd whole turns, where (-1)**k times sin(+0.0) is -0.0
        p = np.array([[-0.0, 0.0, -3.0, 3.0, -1.0, 2.0, -2.0, 0.5]])
        out = np.empty(p.shape, dtype=complex)
        bases._half_turn_columns(p.copy(), out)
        assert out.real[0, :7].tolist() == [1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
        assert out.imag[0, :7].tolist() == [0.0] * 7
        assert not np.signbit(out.imag).any()
        assert out[0, 7] == np.cos(np.pi / 2) + 1j


class TestClusterFamily:
    def spec(self, length=4, ordering="natural", budget=None):
        return BasisSpec(
            "cluster_ising", length, budget or (1 << length),
            ordering=ordering, params={"chain_length": length},
        )

    def all_configs(self, length):
        count = 1 << length
        return np.array(
            [[1.0 if (c >> i) & 1 else -1.0 for i in range(length)] for c in range(count)]
        )

    def test_all_up_spins_give_ones(self):
        spec = self.spec(3, budget=8)
        out = evaluate_columns(spec, [[1, 1, 1]], (0, 8))
        np.testing.assert_array_equal(out, np.ones((1, 8)))

    def test_values_are_signs(self):
        spec = self.spec(4)
        out = evaluate_columns(spec, self.all_configs(4), (0, 16))
        assert set(np.unique(out)) == {-1.0, 1.0}

    def test_gram_is_diagonal_over_full_configuration_space(self):
        length = 4
        spec = self.spec(length)
        out = evaluate_columns(spec, self.all_configs(length), (0, 1 << length))
        gram = out.T @ out
        np.testing.assert_allclose(gram, (1 << length) * np.eye(1 << length), atol=1e-12)

    def test_spin_domain_checked(self):
        with pytest.raises(InvalidInputError):
            evaluate_columns(self.spec(3, budget=4), [[1, 0, 1]], (0, 4))

    def test_physical_order_l4(self):
        # constant, 4 singletons, the 4 nearest-neighbour pairs, then the
        # two diameter-2 pairs, then triplets and the full chain
        spec = self.spec(4, ordering="physical_cluster")
        perm = column_order(spec)
        clusters = enumerate_clusters(4)
        ordered = [clusters[i] for i in perm]
        assert ordered[0].sites == ()
        assert [c.sites for c in ordered[1:5]] == [(0,), (1,), (2,), (3,)]
        assert [c.diameter for c in ordered[5:9]] == [1, 1, 1, 1]
        assert [c.sites for c in ordered[9:11]] == [(0, 2), (1, 3)]
        assert all(c.order == 3 for c in ordered[11:15])
        assert ordered[15].order == 4

    def test_max_order_caps_enumeration(self):
        clusters = enumerate_clusters(5, max_order=2)
        assert all(c.order <= 2 for c in clusters)
        assert len(clusters) == 1 + 5 + 10

    def test_one_enumeration_per_chain(self):
        # the spec's own check and every row block that a sweep evaluates
        # share one enumeration: 1024 configurations make four blocks, each
        # of which asks for the clusters twice.  The kept enumeration is a tuple
        enumerate_clusters.cache_clear()
        spec = self.spec(10, ordering="physical_cluster")
        points = self.all_configs(10)
        row_blocks = blocks(points.shape[0], BLOCK)
        assert len(row_blocks) == 4
        for rows in row_blocks:
            evaluate_columns(spec, points[rows], (0, 1 << 10))
        info = enumerate_clusters.cache_info()
        assert (info.misses, info.hits) == (1, 8)
        assert isinstance(enumerate_clusters(10, None), tuple)


class TestColumnOrder:
    def test_natural_is_identity(self):
        spec = BasisSpec("legendre", 1, 4)
        np.testing.assert_array_equal(column_order(spec), [0, 1, 2, 3])

    def test_seeded_permutation_deterministic(self):
        spec = BasisSpec("monomial", 1, 4, ordering="seeded_permutation",
                         params={"ordering_seed": 7})
        np.testing.assert_array_equal(column_order(spec), column_order(spec))

    def test_physical_order_requires_cluster_family(self):
        with pytest.raises(InvalidInputError):
            BasisSpec("legendre", 1, 4, ordering="physical_cluster")

    def test_evaluation_respects_ordering(self):
        natural = BasisSpec("monomial", 1, 4, params={"interval": (0.0, 3.0)})
        shuffled = BasisSpec("monomial", 1, 4, ordering="seeded_permutation",
                             params={"interval": (0.0, 3.0), "ordering_seed": 3})
        points = [2.0, 3.0]
        base = evaluate_columns(natural, points, (0, 4))
        out = evaluate_columns(shuffled, points, (0, 4))
        np.testing.assert_array_equal(out, base[:, column_order(shuffled)])


def one_shot(spec, points, col_range):
    """The columns by the whole-array formulas, all rows at once, with their memory layout."""
    indices = column_order(spec)[col_range[0] : col_range[1]]
    if spec.family == "cluster_ising":
        clusters = enumerate_clusters(int(spec.param("chain_length")))
        out = np.empty((len(points), indices.size))
        for j, idx in enumerate(indices):
            sites = clusters[int(idx)].sites
            out[:, j] = points[:, list(sites)].prod(axis=1) if sites else 1.0
        return out
    if spec.family in ("rff", "rrf"):
        weights = feature_weights(spec.column_budget, spec.input_dim, spec.seed)
        projections = points @ weights[indices].T
        if spec.family == "rff":
            # exp(1j pi p) = (-1)**k exp(1j pi (p - k)) with k = rint(p)
            k = np.rint(projections)
            sign = 1.0 - 2.0 * (k - 2.0 * np.floor(k / 2.0))
            angles = np.pi * (projections - k)
            out = np.empty(projections.shape, dtype=complex)
            out.real = sign * np.cos(angles)
            out.imag = sign * np.sin(angles) + 0.0
            return out
        return np.maximum(0.0, projections)
    if spec.family == "monomial":
        return np.power(points[:, None], indices[None, :]).astype(float)
    if spec.family == "fourier_discrete":
        freqs = np.array([fourier_frequency(int(j), int(spec.param("base_frequencies")))
                          for j in indices])
        return np.exp(2j * np.pi * np.outer(points / float(spec.param("period")), freqs))
    kmax = int(indices.max()) if indices.size else 0
    table = np.empty((points.size, kmax + 1))
    table[:, 0] = 1.0
    if kmax >= 1:
        table[:, 1] = points
    for k in range(1, kmax):
        if spec.family == "chebyshev":
            table[:, k + 1] = 2 * points * table[:, k] - table[:, k - 1]
        else:
            table[:, k + 1] = ((2 * k + 1) * points * table[:, k] - k * table[:, k - 1]) / (k + 1)
    return table[:, indices]


def block_case(family, rows, budget=14, ordering="natural"):
    """A spec of the family and ``rows`` points in its domain.

    The first point is where a zero's sign can show: the origin for the
    random features, t = 0 (phase -0.0 at negative frequencies) for Fourier.
    """
    rng = np.random.default_rng([rows, budget, FAMILIES.index(family)])
    params = {"ordering_seed": 5} if ordering == "seeded_permutation" else {}
    if family == "cluster_ising":
        spec = BasisSpec(family, 4, min(budget, 16), ordering=ordering,
                         params={**params, "chain_length": 4})
        return spec, rng.choice([-1.0, 1.0], size=(rows, 4))
    if family in ("rff", "rrf"):
        points = rng.standard_normal((rows, 3))
        points[:1] = 0.0
        return BasisSpec(family, 3, budget, ordering=ordering, params=params, seed=2), points
    if family == "fourier_discrete":
        params.update(period=2.0, base_frequencies=5)
        points = np.sort(rng.uniform(0.0, 2.0, rows))
        points[:1] = 0.0
        return BasisSpec(family, 1, budget, ordering=ordering, params=params), points
    if family == "monomial":
        params["interval"] = (-1.0, 1.0)
    return BasisSpec(family, 1, budget, ordering=ordering, params=params), rng.uniform(-1, 1, rows)


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                      3 * BLOCK + 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_identical_to_one_shot_formula(self, family, rows):
        for ordering in ("natural", "seeded_permutation"):
            spec, points = block_case(family, rows, ordering=ordering)
            budget = spec.column_budget
            for col_range in ((0, budget), (0, 0), (3, budget - 2)):
                out = evaluate_columns(spec, points, col_range)
                want = one_shot(spec, points, col_range)
                assert out.dtype == want.dtype and out.shape == want.shape
                assert out.tobytes() == want.tobytes(), (ordering, col_range)
                # the layout fixes the summation order of products with the operator
                if min(out.shape) > 1:
                    assert out.strides == want.strides, (ordering, col_range)

    # the spin family filled its output column by column before, so only
    # these families had whole-array temporaries to lose
    @pytest.mark.parametrize("ordering", ["natural", "seeded_permutation"])
    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "cluster_ising"])
    def test_peak_is_output_plus_one_block(self, family, ordering):
        spec, points = block_case(family, 8 * BLOCK, budget=120, ordering=ordering)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = evaluate_columns(spec, points, (0, spec.column_budget))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        block = BLOCK * out.shape[1] * out.itemsize
        # 16 KiB covers the weights, the column order and the frequencies
        assert peak <= out.nbytes + block + 16 * 1024, (peak, out.nbytes, block)


class TestLegendreGaussNodes:
    def test_single_node_is_zero(self):
        np.testing.assert_array_equal(legendre_gauss_nodes(1), [0.0])

    def test_two_nodes(self):
        np.testing.assert_allclose(legendre_gauss_nodes(2), [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                                   rtol=1e-14)

    def test_five_nodes_symmetric_with_zero_middle(self):
        nodes = legendre_gauss_nodes(5)
        assert nodes[2] == 0.0
        np.testing.assert_allclose(nodes, -nodes[::-1])
        # residual against the explicit degree-5 polynomial
        residual = np.abs((63 * nodes**5 - 70 * nodes**3 + 15 * nodes) / 8)
        assert residual.max() < 1e-13

    @pytest.mark.parametrize("n", [3, 8, 17, 32, 64])
    def test_nodes_are_roots(self, n):
        nodes = legendre_gauss_nodes(n)
        assert nodes.shape == (n,)
        assert np.all(np.diff(nodes) > 0)
        assert nodes.min() > -1 and nodes.max() < 1
        spec = BasisSpec("legendre", 1, n + 1)
        values = evaluate_columns(spec, nodes, (n, n + 1))[:, 0]
        assert np.abs(values).max() < 1e-13

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            legendre_gauss_nodes(0)
