"""Property tests for the identities that follow from one factor of the modeled block.

Blocks are drawn small, real or complex, with some columns copied onto
others so that rank deficiency is exact.  Every per-m object (fitted map,
kernel projector, ridge fit map, risk) comes from the panel's single SVD;
these properties hold it against routes that do not share that factor.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gadkit.decomposition as decomposition
from gadkit import (
    BasisSpec,
    ParameterSpec,
    aliasing_operator,
    b_operator,
    build_panels,
    certify,
    evaluate_columns,
    infer_theta,
    kernel_projector,
    make_design,
    make_theta,
    pseudoinverse,
    ridge_panels,
    svd,
    sweep,
)
from gadkit.designs import SampleDesign
from gadkit.experiments import format_record

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
    # zero-padded right-hand sides
    n, budget = block.shape
    m = data.draw(st.integers(1, budget))
    panel = panel_of(block, m)
    aug, pinv_norm = ridge_panels(panel, lam)  # runs the shifted-spectrum check
    reference = pseudoinverse(aug)
    assert pinv_norm <= 1 / np.sqrt(n * lam) * (1 + 1e-12)

    def padded(rhs):
        rhs = rhs.reshape(n, -1)
        return np.vstack([rhs, np.zeros((m, rhs.shape[1]))])

    y = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    pairs = (
        (infer_theta(panel, y, lam)[:m], (reference @ padded(y))[:, 0]),
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


@PROPERTY
@given(blocks(), st.integers(-2, 2), st.sampled_from(LAMBDAS), st.integers(0, 2**16))
def test_sweep_alias_core_matches_dense_aliasing_operator(block, offset, lam, seed):
    # the sweep reads norm_A and alias_error off the small core C with A = V C;
    # the reference is the dense aliasing operator A = fit map @ T_U
    n, budget = block.shape
    m = min(max(n + offset, 1), budget)  # below, at or above n where the budget allows
    full, design = system_of(block)
    theta_spec = ParameterSpec("unstructured_iid", budget, seed=seed)
    with mock.patch.object(decomposition, "evaluate_columns", return_value=full):
        (record,) = sweep(BasisSpec("rff", 1, budget), design, theta_spec, [m],
                          lambdas=(lam,))
    assert record.error is None
    aliasing = aliasing_operator(build_panels(full, design, m), lam)
    norm_a = np.linalg.svd(aliasing, compute_uv=False)[0] if aliasing.size else 0.0
    alias_error = np.linalg.norm(aliasing @ make_theta(theta_spec)[m:])
    for got, want in ((record.norm_A, norm_a), (record.alias_error, alias_error)):
        assert abs(got - want) <= 1e-9 * max(got, want), (got, want)


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
