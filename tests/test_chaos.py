import itertools
import json
import math

import numpy as np
import pytest

from adcap.chaos import (
    BASIS_BLOCK_ROWS,
    basis_matrix,
    basis_norm_sq,
    basis_size,
    collocation_design,
    fit_full,
    fit_sparse,
    lars_select,
    multi_indices,
    sample_moments,
    surrogate_stats_at,
    surrogate_values,
)
from adcap.errors import ConfigurationError
from adcap.feeder import load_feeder
from adcap.stochastic import (
    assemble_variation,
    build_registry,
    physical_inputs,
    standard_normals,
)

from conftest import two_bus_doc
from oracles import (
    basis_matrix_columns,
    design_points_loop,
    evaluate,
    hermite_1d,
    pce_model_from_dict,
    surrogate_statistics,
)


# -- hermite basis ------------------------------------------------------------------


def test_hermite_low_orders():
    x = np.linspace(-3, 3, 13)
    assert np.allclose(hermite_1d(0, x), 1.0)
    assert np.allclose(hermite_1d(1, x), x)
    assert np.allclose(hermite_1d(2, x), x * x - 1.0)
    assert np.allclose(hermite_1d(3, x), x**3 - 3 * x)
    assert np.allclose(hermite_1d(4, x), x**4 - 6 * x * x + 3.0)


def test_hermite_orthogonality_monte_carlo():
    # E[He_a He_b] = delta_ab a!; verified within 3 MC standard errors
    rng = np.random.default_rng(2024)
    m = 1_000_000
    x = rng.standard_normal(m)
    hs = {k: hermite_1d(k, x) for k in range(4)}
    for a in range(4):
        for b in range(a, 4):
            prod = hs[a] * hs[b]
            est = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(m)
            expect = math.factorial(a) if a == b else 0.0
            assert abs(est - expect) <= 3 * se, (a, b, est, se)


def test_basis_norm_sq():
    assert basis_norm_sq((0, 0, 0)) == 1.0
    assert basis_norm_sq((2, 0, 1)) == 2.0
    assert basis_norm_sq((3, 2)) == 12.0


def test_basis_size_matches_enumeration():
    for n in (1, 2, 3, 5, 8, 12, 20):
        for p in (1, 2, 3):
            count = sum(
                1
                for total in range(p + 1)
                for _ in itertools.combinations_with_replacement(range(n), total)
            )
            assert basis_size(n, p) == count
            assert len(multi_indices(n, p)) == count


def test_basis_size_reference_value():
    assert basis_size(12, 2) == 91


def test_multi_indices_graded_order():
    idx = multi_indices(3, 2)
    assert idx[0] == (0, 0, 0)
    degrees = [sum(i) for i in idx]
    assert degrees == sorted(degrees)
    assert len(set(idx)) == len(idx)


def test_basis_matrix_columns():
    xi = np.array([[0.5, -1.0], [2.0, 0.3]])
    idx = multi_indices(2, 2)
    phi = basis_matrix(xi, idx)
    assert phi.shape == (2, len(idx))
    j = idx.index((1, 1))
    assert phi[0, j] == pytest.approx(0.5 * -1.0)
    k = idx.index((2, 0))
    assert phi[1, k] == pytest.approx(2.0 * 2.0 - 1.0)


@pytest.mark.parametrize("order", [1, 3])
def test_basis_matrix_blocks_match_the_whole_array_evaluation(order):
    # two full blocks and a partial one, and a single point
    rng = np.random.default_rng(5)
    idx = multi_indices(4, order)
    for m in (2 * BASIS_BLOCK_ROWS + 37, 1):
        xi = rng.standard_normal((m, 4)) * 2.0
        phi = basis_matrix(xi, idx)
        assert phi.flags.c_contiguous
        assert np.array_equal(phi, basis_matrix_columns(xi, idx))


# -- collocation designs ------------------------------------------------------------


def _ranked_candidates(n, p):
    """Independent reconstruction of the candidate ranking."""
    roots = np.polynomial.hermite_e.hermegauss(p + 1)[0]
    vals = [0.0] + [float(r) for r in roots if abs(r) > 1e-12]
    pts = []
    for combo in itertools.product(vals, repeat=n):
        if sum(1 for c in combo if c != 0.0) <= p:
            pts.append(combo)
    pts = sorted(set(pts), key=lambda t: (round(sum(c * c for c in t), 10), t))
    return [np.array(t) for t in pts]


def test_design_points_follow_norm_ranking():
    expected = _ranked_candidates(4, 2)
    design = collocation_design(4, n_rows=9)
    assert design.rows == 9
    for got, want in zip(design.points, expected[:9]):
        assert np.allclose(got, want)


def test_full_design_is_square_and_full_rank():
    design = collocation_design(12, n_rows=91)
    assert design.rows == 91
    assert design.matrix.shape == (91, 91)
    assert np.linalg.matrix_rank(design.matrix) == 91
    assert np.allclose(design.points[0], 0.0)  # origin ranks first
    for rows in (0, 92):  # outside 1 .. the basis size
        with pytest.raises(ConfigurationError):
            collocation_design(12, n_rows=rows)


def test_sparse_design_takes_best_ranked():
    design = collocation_design(12, n_rows=31)
    expected = _ranked_candidates(12, 2)
    assert design.rows == 31
    for got, want in zip(design.points, expected[:31]):
        assert np.allclose(got, want)


def test_every_design_size_is_a_full_rank_prefix_fitting_its_budget():
    # every size keeps only rank-increasing picks, so each design is a
    # prefix of the K-row design with full row rank, and a sparse fit at a
    # budget of its rows fits that many terms (54 sizes from 37 to 90 fit
    # fewer when a design took the top-ranked candidates as they came)
    full = collocation_design(12, n_rows=91)
    y = np.random.default_rng(5).normal(size=91)
    for rows in range(1, 92):
        design = collocation_design(12, n_rows=rows)
        assert np.array_equal(design.points, full.points[:rows])
        assert np.array_equal(design.matrix, full.matrix[:rows])
        assert np.linalg.matrix_rank(design.matrix) == rows
        assert fit_sparse(design, y[:rows], rows).active.sum() == rows
        fit_sparse(design, y[:rows], "auto")


def test_block_projections_pick_the_rows_of_the_vector_loop():
    # projecting each candidate off all kept rows in one product keeps the
    # same candidates as projecting off one kept vector at a time
    for rows in range(1, 92):
        got = collocation_design(12, n_rows=rows).points
        assert np.array_equal(got, design_points_loop(12, rows)), rows


# -- regression fits ------------------------------------------------------------


def _design(n=12, rows=91):
    return collocation_design(n, n_rows=rows)


def test_fit_full_recovers_polynomial_exactly():
    design = _design()
    idx = design.indices
    j1 = idx.index((0,) * 12)
    truth = np.zeros(len(idx))
    truth[j1] = 2.0
    j2 = idx.index(tuple([2] + [0] * 11))
    truth[j2] = -0.7
    j3 = idx.index(tuple([1, 1] + [0] * 10))
    truth[j3] = 0.25
    y = design.matrix @ truth
    model = fit_full(design, y)
    assert np.allclose(model.coeffs, truth, atol=1e-10)
    assert model.mean == pytest.approx(2.0)
    # variance: sum c_a^2 a! over non-constant terms
    assert model.variance == pytest.approx(0.7**2 * 2.0 + 0.25**2 * 1.0)


def test_lars_matches_sklearn_entry_order():
    sklearn = pytest.importorskip("sklearn.linear_model")
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 20))
    x -= x.mean(axis=0)
    x /= np.linalg.norm(x, axis=0)
    beta = np.zeros(20)
    beta[[3, 11, 17]] = [2.0, -1.5, 1.0]
    y = x @ beta + 0.01 * rng.standard_normal(60)
    y -= y.mean()
    order = lars_select(x, y, max_steps=6)
    _, _, coefs = sklearn.lars_path(x, y, method="lar", max_iter=6)
    ref_order = []
    for k in range(1, coefs.shape[1]):
        new = set(np.flatnonzero(coefs[:, k])) - set(ref_order)
        ref_order.extend(sorted(new))
    assert order[:3] == ref_order[:3]
    assert set(order[:3]) == {3, 11, 17}


def _lars_reference(x, y, steps):
    """Plain LARS after Efron et al. (2004), written independently of
    ``lars_select``.

    The direction is the least-squares fit of the residual on the signed
    active columns: moving the fit a fraction t along it scales every active
    correlation by (1 - t).  The step stops at the first t where an inactive
    correlation ties the shrinking active one.  Returns the entry order and,
    per step, (active set, correlations with the residual).
    """
    mu = np.zeros(len(y))
    active = [int(np.argmax(np.abs(x.T @ y)))]
    history = []
    while True:
        r = y - mu
        c = x.T @ r
        history.append((list(active), c))
        if len(active) == steps:
            return active, history
        signs = np.sign(c[active])
        xa = x[:, active] * signs
        d = xa @ np.linalg.lstsq(xa, r, rcond=None)[0]
        a = x.T @ d
        big_c = np.abs(c[active]).max()
        t_best, j_best = 1.0, None
        for j in sorted(set(range(x.shape[1])) - set(active)):
            for num, den in ((big_c - c[j], big_c - a[j]), (big_c + c[j], big_c + a[j])):
                if den > 0 and 0 < num / den < t_best:
                    t_best, j_best = num / den, j
        mu = mu + t_best * d
        active.append(j_best)


def test_lars_matches_in_repo_oracle():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 15))
        x -= x.mean(axis=0)
        x /= np.linalg.norm(x, axis=0)
        beta = np.zeros(15)
        beta[rng.choice(15, 4, replace=False)] = rng.normal(0.0, 2.0, 4)
        y = x @ beta + 0.3 * rng.standard_normal(40)
        y -= y.mean()
        order, history = _lars_reference(x, y, steps=10)
        for active, c in history:
            # equiangular: every active predictor has the same |correlation|,
            # and no inactive one exceeds it
            big_c = np.abs(c[active]).max()
            assert np.allclose(np.abs(c[active]), big_c, rtol=1e-9)
            inactive = np.setdiff1d(np.arange(15), active)
            assert np.abs(c[inactive]).max() <= big_c * (1 + 1e-9)
        assert lars_select(x, y, max_steps=10) == order


@pytest.mark.parametrize("dup_at", [0, 15])
def test_lars_skips_a_duplicated_column(dup_at):
    # a copy of an active column makes the active Gram matrix singular; the
    # copy is dropped and the path goes on as if it were not there
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 15))
    x -= x.mean(axis=0)
    x /= np.linalg.norm(x, axis=0)
    y = x @ rng.normal(0.0, 1.0, 15) + 0.3 * rng.standard_normal(40)
    y -= y.mean()
    plain = lars_select(x, y, max_steps=10)
    copied = plain[0]
    x_dup = np.insert(x, dup_at, x[:, copied], axis=1)
    shift = [j + (j >= dup_at) for j in plain]  # plain's columns in x_dup
    order = lars_select(x_dup, y, max_steps=10)
    assert len(order) == 10
    assert order[0] in (dup_at, shift[0])  # either copy may enter first
    assert order[1:] == shift[1:]


def test_sparse_recovers_three_term_truth():
    design = _design(rows=60)
    idx = design.indices
    truth = np.zeros(len(idx))
    truth[idx.index((0,) * 12)] = 1.5
    j_lin = idx.index(tuple([0, 1] + [0] * 10))
    truth[j_lin] = 3.0
    j_sq = idx.index(tuple([0, 0, 2] + [0] * 9))
    truth[j_sq] = -2.0
    y = design.matrix @ truth
    model = fit_sparse(design, y, target_terms=3)
    assert set(np.flatnonzero(model.active)) == {0, j_lin, j_sq}
    assert np.allclose(model.coeffs[model.active], truth[[0, j_lin, j_sq]], atol=1e-8)
    auto = fit_sparse(design, y, target_terms="auto")
    assert set(np.flatnonzero(auto.active)) >= {0, j_lin, j_sq}
    assert np.allclose(evaluate(auto, np.zeros((1, 12))), 1.5 - (-2.0), atol=1e-6)


def test_sparse_at_full_count_equals_full_fit():
    design = _design(rows=91)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(0, 1, 91) * np.exp(-0.2 * np.arange(91))
    y = design.matrix @ coeffs
    full = fit_full(design, y)
    sparse = fit_sparse(design, y, target_terms=91)
    assert np.max(np.abs(full.coeffs - sparse.coeffs)) < 1e-10


def test_sparse_term_budget_enforced():
    design = _design(rows=40)
    y = design.matrix @ np.ones(91)
    with pytest.raises(ConfigurationError):
        fit_sparse(design, y, target_terms=0)
    with pytest.raises(ConfigurationError):
        fit_sparse(design, y, target_terms=41)  # more terms than rows
    model = fit_sparse(design, y, target_terms=12)
    assert int(np.count_nonzero(model.active)) == 12


def test_model_json_round_trip():
    design = _design(rows=40)
    y = design.matrix @ (0.1 * np.arange(91.0))
    model = fit_sparse(design, y, target_terms=9)
    again = pce_model_from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(again.active, model.active)
    assert np.allclose(again.coeffs, model.coeffs)
    xi = np.random.default_rng(3).standard_normal((7, 12))
    assert np.allclose(evaluate(again, xi), evaluate(model, xi))


def test_evaluate_matches_direct_expansion():
    design = _design(rows=91)
    rng = np.random.default_rng(11)
    y = rng.normal(size=91)
    model = fit_full(design, y)
    xi = rng.standard_normal((5, 12))
    phi = basis_matrix(xi, design.indices)
    assert np.allclose(evaluate(model, xi), phi @ model.coeffs)


def test_surrogate_values_give_each_model_its_own_evaluation():
    # the per-class samples of one shared basis block per drawn block of
    # BASIS_BLOCK_ROWS points are bitwise those of evaluating each class
    # alone over the one-pass draw, for a full model and sparse models with
    # different active sets (their union, and one model using all of it),
    # on a last block that is partly filled
    design = _design(rows=91)
    rng = np.random.default_rng(5)
    full = fit_full(design, rng.normal(size=91))
    sparse = [
        fit_sparse(design, design.matrix @ rng.normal(size=91) * (rng.random(91) < 0.2), t)
        for t in (4, 9, 17)
    ]
    assert len({tuple(np.flatnonzero(m.active)) for m in sparse}) == 3
    count = 2 * BASIS_BLOCK_ROWS + 3
    [xi] = standard_normals(count, 12, [5, 1])
    for models in ([full, full, full], sparse, sparse[::-1], [sparse[0], full]):
        blocks = standard_normals(count, 12, [5, 1], BASIS_BLOCK_ROWS)
        values = surrogate_values(models, blocks, count)
        assert len(values) == len(models)
        for model, y in zip(models, values):
            assert np.array_equal(y, evaluate(model, xi))


def test_design_centre_is_the_mean_input(registry):
    # the first design point traces the same direction as the mean input,
    # which the run's trace memo relies on to trace it once; a negative
    # forecast mean is clamped at zero in both
    negative_mean = build_registry(load_feeder(two_bus_doc()), {"loads_stochastic": [
        {"bus": "r", "phase": "a", "mean_kw": -50.0, "std_kw": 5.0}]})
    for reg, rows in ((registry, 31), (negative_mean, 3)):
        design = collocation_design(reg.dimension, n_rows=rows)
        assert not design.points[0].any()
        centre = physical_inputs(design.points[:1], reg.distributions())[0]
        mean = reg.mean_inputs()
        assert centre.dtype == mean.dtype and centre.tobytes() == mean.tobytes()
        assert assemble_variation(centre, reg) == assemble_variation(mean, reg)


# -- surrogate statistics ------------------------------------------------------------


def test_analytic_moments_match_sampling():
    design = _design(rows=91)
    idx = design.indices
    truth = np.zeros(len(idx))
    truth[0] = 4.0
    truth[idx.index(tuple([1] + [0] * 11))] = 1.0
    truth[idx.index(tuple([2] + [0] * 11))] = 0.3
    model = fit_full(design, design.matrix @ truth)
    stats = surrogate_statistics(model, 200_000, seed=[9, 1])
    assert stats.analytic_mean == pytest.approx(4.0)
    assert stats.analytic_variance == pytest.approx(1.0 + 0.3**2 * 2.0)
    assert stats.mean == pytest.approx(stats.analytic_mean, rel=5e-3)
    assert stats.variance == pytest.approx(stats.analytic_variance, rel=2e-2)
    assert stats.clip_fraction == 0.0


def test_clipping_in_place_gives_the_statistics_of_a_clipped_copy():
    design = _design(n=2, rows=6)
    model = fit_full(design, np.arange(6.0))
    y = np.random.default_rng(3).normal(0.2, 1.0, 5000)
    negative = float(np.mean(y < 0.0))
    expect = sample_moments(np.maximum(y, 0.0))
    got = surrogate_stats_at(model, y)
    assert got.samples is y and y.min() == 0.0
    assert got.clip_fraction == negative > 0.0
    for key in ("mean", "variance", "skewness", "kurtosis", "ci95"):
        assert getattr(got, key) == getattr(expect, key), key
    assert got.samples.tobytes() == expect.samples.tobytes()


def test_clip_fraction_counts():
    design = _design(n=2, rows=6)
    idx = design.indices
    truth = np.zeros(len(idx))
    truth[idx.index((1, 0))] = 1.0  # plain standard normal response
    model = fit_full(design, design.matrix @ truth)
    stats = surrogate_statistics(model, 50_000, seed=[1, 2])
    assert stats.clip_fraction == pytest.approx(0.5, abs=0.02)
    assert stats.samples.min() >= 0.0


def test_sample_moments_agree_with_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 0.5, 5000)
    s = sample_moments(x)
    assert s.mean == pytest.approx(x.mean())
    assert s.variance == pytest.approx(x.var(ddof=1))
    z = (x - x.mean()) / x.std()
    assert s.skewness == pytest.approx(float(np.mean(z**3)), abs=1e-12)
    assert s.kurtosis == pytest.approx(float(np.mean(z**4)), abs=1e-12)
    assert s.ci95[0] == pytest.approx(np.percentile(x, 2.5))
    assert s.ci95[1] == pytest.approx(np.percentile(x, 97.5))
