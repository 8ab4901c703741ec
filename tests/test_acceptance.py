"""Acceptance gates: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned inline; seeds are fixed so the suite is
deterministic.
"""

import numpy as np
import pytest

from gadkit import (
    BasisSpec,
    ParameterSpec,
    aliasing_operator,
    append_column,
    build_panels,
    evaluate_columns,
    infer_theta,
    interleaving_check,
    invertibility_operator,
    kernel_projector,
    legendre_gauss_nodes,
    make_design,
    oracle_fit,
    oracle_risk,
    risk_and_errors,
    spectral_norm,
    sweep,
)
from gadkit.designs import SampleDesign
from gadkit.experiments import (
    format_record,
    fourier_alias_expectation,
    ising_design,
    local_maxima,
)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def direct_design(train, prediction):
    train = np.asarray(train, float)
    prediction = np.asarray(prediction, float)
    if train.ndim == 1:
        train = train[:, None]
    if prediction.ndim == 1:
        prediction = prediction[:, None]
    return SampleDesign(train, prediction, "from_dataset", 0, 0)


def test_01_fourier_closed_form():
    """Equispaced samples alias frequency k onto k mod n exactly."""
    n, budget = 8, 24
    basis = BasisSpec("fourier_discrete", 1, budget,
                      params={"period": 1.0, "base_frequencies": n})
    design = make_design("equispaced", n, 64, period=1.0)
    full = evaluate_columns(basis, design.all_points, (0, budget))
    panel = build_panels(full, design, n)
    aliasing = aliasing_operator(panel)
    deviation = float(np.max(np.abs(aliasing - fourier_alias_expectation(n, n, budget))))
    _report(1, "fourier closed-form aliasing map", deviation < 1e-10)


def test_02_column_move_norm_monotonicity():
    """1000 seeded column moves: nescience norm never grows; the
    pseudoinverse norm moves with the column's (in)dependence."""
    ok = True
    for case in range(1000):
        rng = np.random.default_rng(20_000 + case)
        rows = int(rng.integers(2, 13))
        budget = int(rng.integers(2, 16))
        m = int(rng.integers(1, budget))
        block = rng.standard_normal((rows, budget))
        if rng.random() < 0.4:
            for j in rng.integers(1, budget, size=2):
                j = int(j)
                block[:, j] = block[:, :j] @ rng.standard_normal(j) if j else block[:, j]
        if rng.random() < 0.5:
            block[:, m] = block[:, :m] @ rng.standard_normal(m) if m else block[:, m]
        nesc_before = spectral_norm(block[:, m:])
        nesc_after = spectral_norm(block[:, m + 1 :])
        if nesc_after > nesc_before * (1 + 1e-9) + 1e-12:
            ok = False
            break
        _, report = append_column(block[:, :m], block[:, m])
        if report.old_rank >= 1:
            if report.was_independent:
                if report.new_min_singular > report.old_min_singular * (1 + 1e-9):
                    ok = False
                    break
            else:
                if report.new_min_singular < report.old_min_singular * (1 - 1e-9):
                    ok = False
                    break
    _report(2, "column-move norm monotonicity (1000 cases)", ok)


def test_03_eigenvalue_interleaving():
    """1000 rank-one positive updates interlace, real and complex, sizes 2-20."""
    ok = True
    for case in range(1000):
        rng = np.random.default_rng(30_000 + case)
        size = int(rng.integers(2, 21))
        complex_field = case % 2 == 1
        raw = rng.standard_normal((size, size))
        c = rng.standard_normal(size)
        if complex_field:
            raw = raw + 1j * rng.standard_normal((size, size))
            c = c + 1j * rng.standard_normal(size)
        h = (raw + raw.conj().T) / 2
        _, _, holds = interleaving_check(h, c, rel_tol=1e-9)
        if not holds:
            ok = False
            break
    _report(3, "eigenvalue interleaving (1000 updates)", ok)


def test_04_double_descent_shape():
    """Random feature models on the sphere: pseudoinverse norm peaks at the
    interpolation threshold and descends beyond it; nescience norm never
    grows. 20 seeds per family, 95% thresholds."""
    n, budget, dim, seeds = 100, 400, 32, 20
    ok = True
    for family in ("rff", "rrf"):
        argmax_hits = 0
        descent_hits = 0
        for seed in range(seeds):
            basis = BasisSpec(family, dim, budget, seed=seed)
            design = make_design("sphere_uniform", n, 1, dim=dim, seed=seed)
            theta = ParameterSpec("unstructured_iid", budget, seed=seed)
            records = sweep(basis, design, theta, range(1, budget + 1))
            if any(r.error is not None for r in records):
                ok = False
            pinv = np.array([r.norm_pinv_TM for r in records])
            nesc = np.array([r.norm_M_TU for r in records])
            if np.any(nesc[1:] > nesc[:-1] * (1 + 1e-9) + 1e-12):
                ok = False
            if int(np.argmax(pinv)) + 1 == n:
                argmax_hits += 1
            if pinv[budget - 1] < pinv[n]:  # m = 400 versus m = 101
                descent_hits += 1
        if argmax_hits < 0.95 * seeds or descent_hits < 0.95 * seeds:
            ok = False
    _report(4, "double-descent shape for random feature models", ok)


def test_05_invertibility_error_suite():
    """Invertibility operator: unit norm with any nescient coordinate, a
    contraction on coefficients, and an exact bias/nescience split; bias
    grows and nescience shrinks along every sweep."""
    ok = True
    rng = np.random.default_rng(50_000)

    # unit norm whenever some coordinate is unmodeled, to 1e-10
    for _ in range(50):
        rows = int(rng.integers(2, 12))
        budget = int(rng.integers(2, 14))
        m = int(rng.integers(1, budget))
        full = rng.standard_normal((rows + 2, budget))
        if rng.random() < 0.3 and m >= 2:
            full[:, m - 1] = full[:, 0]
        panel = build_panels(full, direct_design(rng.standard_normal(rows),
                                                 rng.standard_normal(2)), m)
        if abs(spectral_norm(invertibility_operator(panel)) - 1.0) > 1e-10:
            ok = False

    # contraction and exact Pythagorean split on 500 random instances
    for _ in range(500):
        rows = int(rng.integers(2, 10))
        budget = int(rng.integers(2, 12))
        m = int(rng.integers(1, budget + 1))
        full = rng.standard_normal((rows + 2, budget))
        design = direct_design(rng.standard_normal(rows), rng.standard_normal(2))
        panel = build_panels(full, design, m)
        theta = rng.standard_normal(budget)
        report = risk_and_errors(panel, theta, full @ theta)
        eb_theta = np.concatenate(
            [kernel_projector(panel.train_modeled) @ theta[:m], theta[m:]]
        )
        split = np.hypot(report.bias_error, report.nescience_error)
        if split > np.linalg.norm(theta) * (1 + 1e-12) + 1e-12:
            ok = False
        if not np.isclose(split, np.linalg.norm(eb_theta), rtol=1e-10, atol=1e-12):
            ok = False

    # monotone error terms along sweeps of three different characters
    cluster_basis = BasisSpec("cluster_ising", 6, 64, ordering="physical_cluster",
                              params={"chain_length": 6})
    sweeps = [
        sweep(BasisSpec("rff", 6, 40, seed=1),
              make_design("sphere_uniform", 14, 40, dim=6, seed=1),
              ParameterSpec("unstructured_iid", 40, seed=2), range(1, 41)),
        sweep(BasisSpec("legendre", 1, 30),
              make_design("legendre_gauss", 12, 64),
              ParameterSpec("power_decay", 30, seed=3), range(1, 31)),
        sweep(cluster_basis, ising_design(6, 20, 44, "size_lex", 0),
              ParameterSpec("power_decay", 64, seed=4, exponent=1.5), range(1, 65)),
    ]
    for records in sweeps:
        for a, b in zip(records, records[1:]):
            if b.bias_error < a.bias_error - 1e-9 * max(a.bias_error, 1.0):
                ok = False
            if b.nescience_error > a.nescience_error + 1e-12:
                ok = False
    _report(5, "invertibility error suite", ok)


def test_06_unstructured_expected_error():
    """Monte Carlo invertibility error matches sigma^2 (dim K + dim U) to 5%
    on three settings including an over-parameterized one."""
    ok = True
    settings = [
        (30, 10, 60, 60_001, False),  # under-parameterized: kernel empty
        (20, 35, 50, 60_002, False),  # over-parameterized: kernel dim 15
        (25, 18, 40, 60_003, True),   # planted dependent columns
    ]
    sigma2 = 1.0
    for rows, m, budget, seed, plant in settings:
        rng = np.random.default_rng(seed)
        full = rng.standard_normal((rows + 2, budget))
        if plant:
            full[:, m - 1] = full[:, 0] + full[:, 1]
            full[:, m - 2] = 2 * full[:, 2]
        design = direct_design(rng.standard_normal(rows), rng.standard_normal(2))
        panel = build_panels(full, design, m)
        projector = kernel_projector(panel.train_modeled)
        dim_kernel = m - panel.rank
        dim_nescient = budget - m
        draws = rng.normal(0.0, np.sqrt(sigma2), (2000, budget))
        bias_sq = np.linalg.norm(projector @ draws[:, :m].T, axis=0) ** 2
        nesc_sq = np.linalg.norm(draws[:, m:], axis=1) ** 2
        mc_mean = float((bias_sq + nesc_sq).mean())
        expected = sigma2 * (dim_kernel + dim_nescient)
        if abs(mc_mean - expected) > 0.05 * expected:
            ok = False
    _report(6, "unstructured expected invertibility error", ok)


def test_07_ridge_bounds():
    """Augmented spectra shift exactly, the pseudoinverse norm obeys the
    1/sqrt(n lambda) bound, the ridge invertibility norm obeys its bound,
    and lambda = 0 reproduces the unregularized records byte for byte."""
    ok = True
    rng = np.random.default_rng(70_000)
    for case in range(50):
        rows = int(rng.integers(3, 16))
        budget = int(rng.integers(3, 18))
        m = int(rng.integers(1, budget + 1))
        full = rng.standard_normal((rows + 2, budget))
        design = direct_design(rng.standard_normal(rows), rng.standard_normal(2))
        panel = build_panels(full, design, m)
        for lam in (1e-4, 1e-2, 1.0):
            from gadkit import ridge_panels

            aug, pinv_norm = ridge_panels(panel, lam)
            s_aug = np.linalg.svd(aug, compute_uv=False)
            base = np.zeros(m)
            s_base = np.linalg.svd(panel.train_modeled, compute_uv=False)
            base[: s_base.size] = s_base
            if not np.allclose(s_aug, np.sqrt(base**2 + rows * lam), rtol=1e-9):
                ok = False
            if pinv_norm > 1 / np.sqrt(rows * lam) + 1e-12:
                ok = False
            bound = 1 + spectral_norm(panel.train_modeled) / np.sqrt(rows * lam)
            if spectral_norm(invertibility_operator(panel, lam)) > bound + 1e-9:
                ok = False

    basis = BasisSpec("rff", 5, 30, seed=9)
    design = make_design("sphere_uniform", 12, 30, dim=5, seed=9)
    theta = ParameterSpec("unstructured_iid", 30, seed=10)
    plain = sweep(basis, design, theta, range(1, 31))
    ridged = sweep(basis, design, theta, range(1, 31), lambdas=(0.0,))
    plain_bytes = "\n".join(format_record(r) for r in plain)
    ridge_bytes = "\n".join(format_record(r) for r in ridged)
    if plain_bytes != ridge_bytes:
        ok = False
    _report(7, "ridge spectrum shift and norm bounds", ok)


def test_08_training_point_choice():
    """Legendre model, 50 columns: Gauss-node designs keep the aliasing norm
    at most 10 over n = 10..60 while uniform designs exceed them by 1000x at
    some n below the model size."""
    m, budget = 50, 100
    basis = BasisSpec("legendre", 1, budget)
    gauss_norms = {}
    uniform_norms = {}
    for n in range(10, 61):
        gauss_points = legendre_gauss_nodes(n)
        rng = np.random.default_rng(80_000 + n)
        uniform_points = rng.uniform(-1.0, 1.0, n)
        for label, pts, store in (("gauss", gauss_points, gauss_norms),
                                  ("uniform", uniform_points, uniform_norms)):
            design = direct_design(pts, np.array([0.012345]))
            full = evaluate_columns(basis, design.all_points, (0, budget))
            panel = build_panels(full, design, m)
            store[n] = spectral_norm(aliasing_operator(panel))
    gauss_bounded = max(gauss_norms.values()) <= 10.0
    ratios = {n: uniform_norms[n] / gauss_norms[n] for n in gauss_norms if n < m}
    ok = gauss_bounded and max(ratios.values()) >= 1e3
    _report(8, "training-point choice (Gauss vs uniform)", ok)


def test_09_oracle_equivalence():
    """Engine fit and risk agree with the independent iterative oracle to
    1e-8 relative on 200 instances across all shape regimes."""
    ok = True
    for case in range(200):
        rng = np.random.default_rng(90_000 + case)
        rows = int(rng.integers(8, 31))
        regime = case % 4
        if regime == 0:
            m = int(rng.integers(2, rows))
        elif regime == 1:
            m = rows
        else:
            m = int(rng.integers(rows + 1, rows + 12))
        budget = m + int(rng.integers(1, 8))
        grid = int(rng.integers(2, 6))
        full = rng.standard_normal((rows + grid, budget))
        if regime == 3 and m >= 3:
            full[:, m - 1] = full[:, 0] - full[:, 1]
        design = direct_design(rng.standard_normal(rows), rng.standard_normal(grid))
        theta = rng.standard_normal(budget)
        y_full = full @ theta
        panel = build_panels(full, design, m)
        engine_theta = infer_theta(panel, y_full[:rows])
        reference = oracle_fit(full[:rows, :m], y_full[:rows])
        scale = max(float(np.linalg.norm(engine_theta)), 1.0)
        if np.linalg.norm(engine_theta[:m] - reference) > 1e-8 * scale:
            ok = False
            break
        report = risk_and_errors(panel, theta, y_full)
        padded = np.zeros(budget)
        padded[:m] = reference
        reference_risk = oracle_risk(full, theta, padded, design)
        risk_scale = max(report.risk_all, reference_risk, float(np.mean(np.abs(y_full) ** 2)) * 1e-8)
        if abs(report.risk_all - reference_risk) > 1e-8 * risk_scale:
            ok = False
            break
    _report(9, "oracle equivalence (200 instances)", ok)


def test_10_structured_multiple_descent():
    """Spin-chain system, 1024 configurations, 200 training rows: the
    physically ordered sweep shows at least two pseudoinverse-norm peaks,
    each on an independent-column addition; randomizing rows and columns
    collapses the curve to a single peak at the interpolation threshold."""
    chain, n_train = 10, 200
    budget = 1 << chain

    physical_basis = BasisSpec("cluster_ising", chain, budget, ordering="physical_cluster",
                               params={"chain_length": chain})
    theta = ParameterSpec("unstructured_iid", budget, seed=0)
    physical = ising_design(chain, n_train, budget - n_train, "size_lex", 0)
    records = sweep(physical_basis, physical, theta, range(1, budget + 1))
    pinv = np.array([r.norm_pinv_TM for r in records])
    flags = [r.new_col_independent for r in records]
    peaks = local_maxima(pinv)
    physical_ok = (all(r.error is None for r in records)
                   and len(peaks) >= 2 and all(flags[p] for p in peaks))

    random_basis = BasisSpec("cluster_ising", chain, budget, ordering="seeded_permutation",
                             params={"chain_length": chain, "ordering_seed": 7})
    randomized = ising_design(chain, n_train, budget - n_train, "seeded", 0)
    records_r = sweep(random_basis, randomized, theta, range(1, budget + 1))
    pinv_r = np.array([r.norm_pinv_TM for r in records_r])
    peaks_r = local_maxima(pinv_r)
    random_ok = (all(r.error is None for r in records_r)
                 and peaks_r == [n_train - 1] and int(np.argmax(pinv_r)) + 1 == n_train)
    _report(10, "structured multiple descent (spin chain)", physical_ok and random_ok)
