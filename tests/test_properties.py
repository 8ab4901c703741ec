"""Property tests for the identities that follow from one factor of the modeled block.

Blocks are drawn small, real or complex, with some columns copied onto
others so that rank deficiency is exact.  Every per-m object (fitted map,
kernel projector, ridge fit map, risk) comes from the panel's single SVD;
these properties hold it against routes that do not share that factor.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gadkit.decomposition as decomposition
from dense_reference import augmented_block, b_operator
from gadkit import (
    BasisSpec,
    ParameterSpec,
    certify,
    evaluate_columns,
    make_design,
    make_theta,
    sweep,
)
from gadkit.decomposition import aliasing_operator, build_panels, ridge_panels, risk_and_errors
from gadkit.designs import SampleDesign
from gadkit.experiments import format_record
from gadkit.linalg import kernel_projector, pseudoinverse, svd

# derandomized so that the tier-1 run is reproducible; no example database
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

LAMBDAS = (0.0, 1e-4, 1e-2, 1.0)


@st.composite
def blocks(draw, min_rows=1, max_rows=8, max_cols=10):
    """A random block, real or complex, with up to three columns copied onto others."""
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, cols))
    if draw(st.booleans()):
        x = x + 1j * rng.standard_normal((rows, cols))
    for source, target in draw(st.lists(st.tuples(st.integers(0, cols - 1),
                                                   st.integers(0, cols - 1)), max_size=3)):
        x[:, target] = x[:, source]
    return x


def system_of(train_block):
    """Full operator of a training block with one extra prediction row, and its design."""
    n, budget = train_block.shape
    full = np.vstack([train_block, np.ones((1, budget), dtype=train_block.dtype)])
    design = SampleDesign(train_points=np.zeros((n, 1)), prediction_points=np.zeros((1, 1)),
                          strategy="from_dataset", seed=0, effective_seed=0)
    return full, design


def panel_of(train_block, m):
    """Panel of a training block at model size m, with one extra prediction row."""
    return build_panels(*system_of(train_block), m)


@PROPERTY
@given(blocks(), st.data())
def test_fitted_map_plus_kernel_projector_is_identity(block, data):
    m = data.draw(st.integers(1, block.shape[1]))
    panel = panel_of(block, m)
    projector = panel.factor.kernel_projector()
    np.testing.assert_array_equal(projector, kernel_projector(panel.train_modeled))
    np.testing.assert_allclose(b_operator(panel) + projector, np.eye(m), rtol=0, atol=1e-9)


@PROPERTY
@given(blocks())
def test_rank_steps_by_zero_or_one_per_appended_column(block):
    budget = block.shape[1]
    full, design = system_of(block)
    theta_spec = ParameterSpec("unstructured_iid", budget, seed=0)
    with mock.patch.object(decomposition, "evaluate_columns", return_value=full):
        records = sweep(BasisSpec("rff", 1, budget), design, theta_spec, range(1, budget + 1))
    previous = 0
    for record in records:
        assert record.error is None
        step = record.rank_TM - previous
        assert step in (0, 1)
        assert record.new_col_independent == (step == 1)
        assert record.rank_TM == svd(block[:, : record.m]).numerical_rank
        previous = record.rank_TM


@PROPERTY
@given(blocks(min_rows=2), st.data(), st.sampled_from([1e-4, 1e-2, 1.0]))
def test_ridge_fit_map_matches_augmented_pseudoinverse(block, data, lam):
    # reference: the augmented-block route, [T_M; sqrt(n lam) I]^+ applied to
    # zero-padded right-hand sides.  The fit is the one risk_and_errors makes
    n, budget = block.shape
    m = data.draw(st.integers(1, budget))
    full, design = system_of(block)
    panel = build_panels(full, design, m)
    pinv_norm = ridge_panels(panel, lam)  # runs the shifted-spectrum check
    reference = pseudoinverse(augmented_block(panel, lam))
    assert pinv_norm <= 1 / np.sqrt(n * lam) * (1 + 1e-12)

    def padded(rhs):
        rhs = rhs.reshape(n, -1)
        return np.vstack([rhs, np.zeros((m, rhs.shape[1]))])

    theta = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(budget)
    y_full = full @ theta
    pairs = (
        (risk_and_errors(panel, theta, y_full, lam).theta_hat[:m],
         (reference @ padded(y_full[:n]))[:, 0]),
        (aliasing_operator(panel, lam), reference @ padded(panel.train_nescient)),
        (b_operator(panel, lam), reference @ padded(panel.train_modeled)),
    )
    for got, want in pairs:
        scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
        assert float(np.abs(got - want).max(initial=0.0)) <= 1e-9 * scale


@PROPERTY
@given(st.sampled_from(["rff", "rrf"]), st.integers(3, 10), st.integers(0, 2**16), st.data())
def test_sweep_risk_matches_conjugate_gradient_oracle(family, n, seed, data):
    budget = data.draw(st.integers(n, 3 * n))
    ms = data.draw(st.lists(st.integers(1, budget), min_size=1, max_size=4, unique=True))
    basis = BasisSpec(family, 3, budget, seed=seed)
    design = make_design("sphere_uniform", n, 20, dim=3, seed=seed)
    theta_spec = ParameterSpec("unstructured_iid", budget, seed=seed + 1)
    records = sweep(basis, design, theta_spec, ms)
    full = evaluate_columns(basis, design.all_points, (0, budget))
    theta = make_theta(theta_spec)
    floor = 1e-8 * float(np.mean(np.abs(full @ theta) ** 2))
    for record in records:
        assert record.error is None
        oracle = certify(full, design, theta, record.m).risk
        gap = abs(record.risk_all - oracle) / max(record.risk_all, oracle, floor)
        assert gap <= 1e-8, (record.m, record.risk_all, oracle)


def sweep_of(full, design, ms, lambdas=(0.0,), seed=0):
    """Sweep a fixed full operator over ``ms``, with an i.i.d. coefficient draw."""
    budget = full.shape[1]
    theta_spec = ParameterSpec("unstructured_iid", budget, seed=seed)
    with mock.patch.object(decomposition, "evaluate_columns", return_value=full):
        records = sweep(BasisSpec("rff", 1, budget), design, theta_spec, ms, lambdas=lambdas)
    return records, make_theta(theta_spec)


@PROPERTY
@given(blocks(max_rows=6, max_cols=20), st.integers(-2, 2))
def test_sweep_nescient_norm_matches_svd(block, offset):
    # ||T_U|| on both sides of m = n, where U turns square; at the full
    # budget it is 0
    n, budget = block.shape
    ms = sorted({min(max(n + offset, 1), budget), min(2 * n, budget), budget})
    records, _ = sweep_of(*system_of(block), ms)
    for record in records:
        assert record.error is None
        if record.m == budget:
            assert record.norm_M_TU == 0.0
            continue
        want = np.linalg.svd(block[:, record.m :], compute_uv=False)[0]
        assert abs(record.norm_M_TU - want) <= 1e-12 * want, (record.m, record.norm_M_TU, want)


@PROPERTY
@given(blocks(max_cols=16), st.integers(-2, 2),
       st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=3), st.integers(0, 2**16))
def test_sweep_alias_core_matches_dense_aliasing_operator(block, offset, drawn, seed):
    # the sweep reads norm_A and alias_error off the small core C with A = V C.
    # One sweep over a lambda list that holds 0 and a duplicate; every row is
    # held against the dense A = fit map @ T_U of its lambda
    n, budget = block.shape
    lambdas = (*drawn, 0.0, drawn[0])
    ms = sorted({min(max(n + offset, 1), budget), budget})
    full, design = system_of(block)
    records, theta = sweep_of(full, design, ms, lambdas, seed)
    assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in lambdas for m in ms]
    for record in records:
        assert record.error is None
        aliasing = aliasing_operator(build_panels(full, design, record.m), record.lam)
        norm_a = np.linalg.svd(aliasing, compute_uv=False)[0] if aliasing.size else 0.0
        alias_error = np.linalg.norm(aliasing @ theta[record.m :])
        for got, want in ((record.norm_A, norm_a), (record.alias_error, alias_error)):
            assert abs(got - want) <= 1e-9 * max(got, want), (record.lam, got, want)


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_thin_alias_core_on_both_sides_of_the_gram(complex_field):
    # n = 6 and p = 9: T_U is thinner than n past m = 3, so the sweep forms the
    # scaled core W_s and each lambda hands g W_s to linalg.gram.  At m = 4 the
    # core is 4 x 5 (k <= p - m) and gram takes C C^H; at m = 7 it is 6 x 2 and
    # gram takes C^H C.  The draws above may never reach the wide case
    rng = np.random.default_rng(9)
    block = rng.standard_normal((6, 9))
    if complex_field:
        block = block + 1j * rng.standard_normal((6, 9))
    full, design = system_of(block)
    lambdas = (0.0, 1e-2)
    shapes, original = [], decomposition.gram

    def spy(x):
        shapes.append(x.shape)
        return original(x)

    with mock.patch.object(decomposition, "gram", spy):
        records, theta = sweep_of(full, design, [4, 7], lambdas)
    assert shapes == [(4, 5), (4, 5), (6, 2), (6, 2)]
    assert [(r.lam, r.m) for r in records] == [(lam, m) for lam in lambdas for m in (4, 7)]
    for record in records:
        assert record.error is None
        aliasing = aliasing_operator(build_panels(full, design, record.m), record.lam)
        norm_a = np.linalg.svd(aliasing, compute_uv=False)[0]
        alias_error = np.linalg.norm(aliasing @ theta[record.m :])
        for got, want in ((record.norm_A, norm_a), (record.alias_error, alias_error)):
            assert abs(got - want) <= 1e-9 * max(got, want), (record.m, record.lam, got, want)


@PROPERTY
@given(blocks(), st.lists(st.integers(-2, 2), min_size=1, max_size=3),
       st.sampled_from(LAMBDAS), st.sampled_from(LAMBDAS), st.integers(0, 2**16))
def test_one_sweep_over_two_lambdas_equals_one_sweep_per_lambda(block, offsets, a, b, seed):
    # the lambdas share the panel, the norm of T_U and the stored ranks; each
    # row must come out exactly as a sweep over its lambda alone gives it
    n, budget = block.shape
    ms = {min(max(n + offset, 1), budget) for offset in offsets}  # below, at or above n
    full, design = system_of(block)
    basis = BasisSpec("rff", 1, budget)
    theta_spec = ParameterSpec("unstructured_iid", budget, seed=seed)
    with mock.patch.object(decomposition, "evaluate_columns", return_value=full):
        joint = sweep(basis, design, theta_spec, ms, lambdas=(a, b))
        apart = (sweep(basis, design, theta_spec, ms, lambdas=(a,))
                 + sweep(basis, design, theta_spec, ms, lambdas=(b,)))
    assert [format_record(r) for r in joint] == [format_record(r) for r in apart]
