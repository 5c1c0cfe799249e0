"""Full-model identification, stability handling, and autocovariance."""
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gica.varmodel
from gica.simulate import SimSpec, build_confounded_system, build_true_model, simulate
from gica.timeseries import TimeSeriesPair, preprocess
from gica.varmodel import (
    BivariateVarModel,
    UnstableModelError,
    aic_curve,
    autocovariance_stack,
    companion_matrix,
    det_polynomial,
    fit_var,
    fit_var_stack,
    gated_lstsq,
    lag_matrix,
    poles_to_ar_coeffs,
    require_stable,
    schur_cohn_stable,
    simulate_var,
    spectral_radius,
)


def gammas_of(model, lags):
    """Autocovariances ``(lags + 1, 2, 2)`` of one model."""
    return autocovariance_stack(model.coeffs[None], model.sigma[None], lags)[0]


def test_pole_placement_coefficients():
    a1, a2 = poles_to_ar_coeffs(0.8, 0.1)
    assert_allclose(a1, 1.294427190999916, rtol=0, atol=1e-12)
    assert_allclose(a2, -0.64, rtol=0, atol=1e-15)
    b1, b2 = poles_to_ar_coeffs(0.9, 0.3)
    assert_allclose(b1, -0.5562305898749054, rtol=0, atol=1e-12)
    assert_allclose(b2, -0.81, rtol=0, atol=1e-15)


def test_pole_placement_rejects_bad_inputs():
    with pytest.raises(ValueError):
        poles_to_ar_coeffs(1.0, 0.1)
    with pytest.raises(ValueError):
        poles_to_ar_coeffs(0.5, 0.6)


def test_companion_eigenvalues_are_the_placed_poles():
    rho, f = 0.85, 0.22
    a1, a2 = poles_to_ar_coeffs(rho, f)
    comp = companion_matrix(np.array([[[a1, 0.0], [0.0, a1]], [[a2, 0.0], [0.0, a2]]]))
    radii = np.abs(np.linalg.eigvals(comp))
    assert_allclose(np.sort(radii), np.full(4, rho), rtol=0, atol=1e-12)


def test_reference_model_radius(reference_model):
    # driver poles at modulus 0.9 dominate the target poles at 0.8
    assert_allclose(spectral_radius(reference_model.coeffs), 0.9, rtol=0, atol=1e-12)
    require_stable(reference_model.coeffs, "model")


def test_unstable_model_raises():
    coeffs = np.array([[[1.05, 0.0], [0.0, 0.2]]])
    model = BivariateVarModel(coeffs, np.eye(2))
    assert spectral_radius(model.coeffs) >= 1.0
    with pytest.raises(UnstableModelError, match="model is unstable: companion spectral radius 1.05 >= 1"):
        require_stable(model.coeffs, "model")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 20),
    k=st.sampled_from([1, 2, 3]),
    batch=st.integers(1, 5),
    length=st.integers(1, 80),
)
def test_simulate_var_rows_match_alone_and_loop(var_loop_reference, seed, m, k, batch, length):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(scale=0.3, size=(m, k, k))
    # scaling A_j by s**j multiplies every companion eigenvalue by s
    scale = rng.uniform(0.5, 0.95) / spectral_radius(coeffs)
    coeffs *= scale ** np.arange(1, m + 1)[:, None, None]
    drive = rng.standard_normal((batch, length, k))
    together = simulate_var(coeffs, drive)
    assert together.shape == drive.shape
    for row, alone in zip(together, drive):
        assert np.array_equal(row, simulate_var(coeffs, alone))
        ref = var_loop_reference(coeffs, alone)
        assert_allclose(row, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_simulate_var_near_unit_circle(var_loop_reference):
    # radius 0.99 at m = 20: det E(z) has 40 roots just inside the circle
    rng = np.random.default_rng(99)
    coeffs = rng.normal(scale=0.3, size=(20, 2, 2))
    scale = 0.99 / spectral_radius(coeffs)
    coeffs *= scale ** np.arange(1, 21)[:, None, None]
    drive = rng.standard_normal((2, 2100, 2))
    together = simulate_var(coeffs, drive)
    for row, alone in zip(together, drive):
        assert np.array_equal(row, simulate_var(coeffs, alone))
        ref = var_loop_reference(coeffs, alone)
        assert_allclose(row, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def scaled_lags(rng, m, k, radius):
    """Random lags ``(m, k, k)`` scaled to companion spectral radius ``radius``."""
    coeffs = rng.normal(scale=0.3, size=(m, k, k))
    return coeffs * (radius / spectral_radius(coeffs)) ** np.arange(1, m + 1)[:, None, None]


def test_simulate_var_rows_are_batch_independent_at_the_surrogate_shape():
    # a significance run's generator: m = max(p, q) = 20 lags, 100 surrogates of 2100 samples
    rng = np.random.default_rng(27)
    coeffs = scaled_lags(rng, 20, 2, 0.95)
    drive = rng.standard_normal((100, 2100, 2))
    together = simulate_var(coeffs, drive)
    for row, alone in zip(together, drive):
        assert np.array_equal(row, simulate_var(coeffs, alone))
    assert np.array_equal(together[:7], simulate_var(coeffs, drive[:7]))
    # one block: a row alone is a vector-matrix product, the batch's slices too
    short = drive[:, :30]
    for row, alone in zip(simulate_var(coeffs, short), short):
        assert np.array_equal(row, simulate_var(coeffs, alone))


def zero_trailing_lags(rng):
    """Zero-padded like an H1 generator: a driver row of 2 lags and a target row of 14 on
    itself, padded to 20, so lags 15 .. 20 are zero matrices."""
    coeffs = np.zeros((20, 2, 2))
    coeffs[:2, 0] = scaled_lags(rng, 2, 2, 0.9)[:, 0]
    coeffs[:14, 1, 1] = scaled_lags(rng, 14, 1, 0.9)[:, 0, 0]
    return coeffs


@pytest.mark.parametrize(
    "lags",
    [
        lambda rng: scaled_lags(rng, 20, 2, 0.95),
        zero_trailing_lags,
        lambda rng: scaled_lags(rng, 20, 3, 0.9),
        lambda rng: scaled_lags(rng, 2, 3, 0.9),
        lambda rng: scaled_lags(rng, 1, 1, 0.5),
    ],
    ids=["m20-k2", "trailing-zero-lags", "m20-k3", "m2-k3", "m1-k1"],
)
def test_simulate_var_matches_loop_around_block_boundaries(var_loop_reference, lags):
    rng = np.random.default_rng(3)
    coeffs = lags(rng)
    block = coeffs.shape[0] + 16  # simulate_var's block length L = m + 16
    for length in (block - 1, block, block + 1, 2 * block + 1):
        drive = rng.standard_normal((3, length, coeffs.shape[-1]))
        for row, alone in zip(simulate_var(coeffs, drive), drive):
            ref = var_loop_reference(coeffs, alone)
            assert_allclose(row, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_simulate_var_rejects_shape_mismatch():
    for lags, channels in [((1, 2, 3), 3), ((1, 3, 2), 2), ((2, 3), 3), ((1, 2, 2), 3), ((1, 3, 3), 2)]:
        with pytest.raises(ValueError, match=r"not \(m, k, k\)"):
            simulate_var(np.zeros(lags), np.zeros((10, channels)))


def test_diagonalized_zeroes_cross_covariance():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    model = BivariateVarModel(np.zeros((1, 2, 2)), sigma)
    assert_allclose(model.residual_correlation(), 0.3 / np.sqrt(2.0), rtol=0, atol=1e-15)
    diag = model.diagonalized()
    assert diag.sigma[0, 1] == 0.0
    assert diag.sigma[1, 0] == 0.0
    assert diag.sigma_x == 2.0
    assert diag.sigma_y == 1.0


def test_model_dict_round_trip(reference_model):
    # model.json's record rebuilds the model it was written from
    data = reference_model.to_dict()
    assert data["p"] == 2
    back = BivariateVarModel(np.array(data["A"]), np.array(data["Sigma"]))
    assert_allclose(back.coeffs, reference_model.coeffs, rtol=0, atol=0)
    assert_allclose(back.sigma, reference_model.sigma, rtol=0, atol=0)


def test_lag_matrix_layout():
    x = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
    z = lag_matrix([x, -x], 2)
    # row n: X_{n-1}, Y_{n-1}, X_{n-2}, Y_{n-2}, X_n, Y_n, zero before the start
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 10.0, -10.0],
            [10.0, -10.0, 0.0, 0.0, 11.0, -11.0],
            [11.0, -11.0, 10.0, -10.0, 12.0, -12.0],
            [12.0, -12.0, 11.0, -11.0, 13.0, -13.0],
            [13.0, -13.0, 12.0, -12.0, 14.0, -14.0],
        ]
    )
    assert_allclose(z, expected, rtol=0, atol=0)
    stacked = lag_matrix(np.stack([[x, -x], [2 * x, -2 * x]]), 2)
    assert np.array_equal(stacked, np.stack([expected, 2 * expected]))
    # one channel: its own lags, then its present
    assert np.array_equal(lag_matrix([x], 2), expected[:, 0::2])


def lstsq_fit(x, y, p):
    """One pair's AR(p) fit from ``np.linalg.lstsq`` on the series-major design."""
    n = x.size
    design = np.column_stack([s[p - k : n - k] for s in (x, y) for k in range(1, p + 1)])
    targets = np.column_stack([x[p:], y[p:]])
    sol, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    resid = targets - design @ sol
    # sol rows: [x lags 1..p, y lags 1..p], columns: equations
    return sol.reshape(2, p, 2).transpose(1, 2, 0), resid.T @ resid / (n - p), rank


@pytest.mark.parametrize("cutoff", [None, 0.0156])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 14])
def test_fit_var_stack_matches_lstsq_per_row(random_model_factory, p, cutoff):
    rng = np.random.default_rng(70 + p)
    rows = []
    for _ in range(3):
        model = random_model_factory(rng, p=p, radius=0.9)
        drive = rng.standard_normal((1500, 2)) * np.sqrt(np.diag(model.sigma))
        x, y = simulate_var(model.coeffs, drive)[1000:].T
        rows.append(preprocess(TimeSeriesPair(x, y, 1.0), cutoff))
    coeffs, sigma = fit_var_stack(np.stack([r.x for r in rows]), np.stack([r.y for r in rows]), p)
    for row, c, s in zip(rows, coeffs, sigma):
        ref_c, ref_s, _ = lstsq_fit(row.x, row.y, p)
        assert np.abs(c - ref_c).max() <= 1e-10 * np.abs(ref_c).max()
        assert np.abs(s - ref_s).max() <= 1e-10 * np.abs(ref_s).max()


@pytest.mark.parametrize("delta", [0.0, 1e-15, 1e-14, 1e-12, 1e-11, 1e-8])
def test_rank_gate_agrees_with_lstsq(delta):
    # y = 2x + delta * noise is rank-deficient at order 1 until delta clears
    # lstsq's threshold, about 3e-13 here
    rng = np.random.default_rng(11)
    x = rng.standard_normal(300)
    y = 2 * x + delta * rng.standard_normal(300)
    rank = lstsq_fit(x, y, 1)[2]
    z = lag_matrix([x, y], 1)[1:]
    if rank < 2:
        with pytest.raises(ValueError, match=f"fitting probe \\(rank {rank}\\)"):
            gated_lstsq(z, 2, "probe")
    else:
        gated_lstsq(z, 2, "probe")
    # a full-rank design may still fail a later gate: its innovations are collinear too
    try:
        fit_var(x, y, 1)
    except ValueError as err:
        assert ("rank-deficient" in str(err)) == (rank < 2)
    else:
        assert rank == 2
    assert (rank < 2) == (delta < 1e-13)


def svd_rank(r11, rows):
    """``lstsq``'s rank rule on ``R11`` ``(..., k, k)`` of ``rows`` rows, by SVD alone."""
    sv = np.linalg.svd(r11, compute_uv=False)
    return (sv > np.finfo(float).eps * max(rows, r11.shape[-1]) * sv[..., :1]).sum(axis=-1)


def conditioned_r11(rng, rows, k, cond):
    """``R11`` of a random ``rows x k`` design with singular values from 1 down to ``1/cond``."""
    u = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    v = np.linalg.qr(rng.standard_normal((k, k)))[0]
    design = u * np.logspace(0, -np.log10(cond), k) @ v.T
    return np.linalg.qr(design, mode="r")


CONDITIONS = 10.0 ** np.arange(0, 16.5, 0.5)  # 1 to 1e16 in half-decades


@pytest.mark.parametrize("rows", [50, 2000])
@pytest.mark.parametrize("k", [2, 6, 14, 28])
def test_rank_screen_agrees_with_svd_rule(rows, k):
    # the Cholesky screen decides only what the SVD rule would, row by row and for a block
    rng = np.random.default_rng(rows + k)
    block = np.stack([conditioned_r11(rng, rows, k, cond) for cond in CONDITIONS])
    expected = svd_rank(block, rows)
    assert 0 < (expected == k).sum() < len(CONDITIONS)  # both decisions are tested
    for r11, rank in zip(block, expected):
        assert gica.varmodel._rank(r11[None], rows).tolist() == [rank]
        # near the underflow threshold the Gram matrix's rounding is absolute, not relative
        for tiny in r11[None] * [[[1e-150]], [[1e-156]], [[1e-160]]]:
            assert np.array_equal(gica.varmodel._rank(tiny[None], rows), svd_rank(tiny[None], rows))
    assert np.array_equal(gica.varmodel._rank(block, rows), expected)
    well = block[CONDITIONS <= 1e4]
    assert np.array_equal(gica.varmodel._rank(well, rows), np.full(len(well), k))
    zero = np.zeros((1, k, k))
    assert np.array_equal(gica.varmodel._rank(zero, rows), svd_rank(zero, rows))
    for rule in (svd_rank, gica.varmodel._rank):  # the SVD of a NaN does not converge
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            rule(np.full((1, k, k), np.nan), rows)
    # a zeroed row among well-conditioned ones sends the whole block to the SVD rule
    mixed = np.concatenate([well, np.zeros((1, k, k))])
    assert np.array_equal(gica.varmodel._rank(mixed, rows), svd_rank(mixed, rows))


def test_rank_screen_skips_the_svd_of_a_well_conditioned_block(monkeypatch):
    block = np.linalg.qr(np.random.default_rng(3).standard_normal((10, 500, 12)), mode="r")

    def forbidden(*args, **kwargs):
        raise AssertionError("the screen should have decided this block")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    assert np.array_equal(gica.varmodel._rank(block, 500), np.full(10, 12))


def test_row_chunked_r_factor_matches_lstsq(aic_loop_reference):
    # 40000 samples take three chunks of rows, the last one ragged
    pair = simulate(SimSpec(system="closed_loop", n=40_000, seed=6, b=1.0, c=0.5, d=0.5))
    for p in (1, 3):
        model = fit_var(pair.x, pair.y, p)
        ref_c, ref_s, _ = lstsq_fit(pair.x, pair.y, p)
        assert np.abs(model.coeffs - ref_c).max() <= 1e-10 * np.abs(ref_c).max()
        assert np.abs(model.sigma - ref_s).max() <= 1e-10 * np.abs(ref_s).max()
    assert_same_scan(pair.x, pair.y, 6, aic_loop_reference)
    # R is unique up to the signs of its rows
    z = lag_matrix([pair.x[:1000], pair.y[:1000]], 3)
    chunked, whole = np.abs(gica.varmodel._r_factor(z, 64)), np.abs(np.linalg.qr(z, mode="r"))
    assert_allclose(chunked, whole, rtol=0, atol=1e-12 * whole.max())


def test_solve_on_r_factors_is_back_substitution():
    # a batched LU of triangular R11 factors takes no pivot: it is the triangular solve
    r = np.linalg.qr(np.random.default_rng(12).standard_normal((5, 200, 7)), mode="r")
    ref = np.stack([scipy.linalg.solve_triangular(f[:5, :5], f[:5, 5:]) for f in r])
    assert np.array_equal(gica.varmodel._solve(r, 5, np.full(5, 5), "probe"), ref)


def test_fit_var_recovers_simulated_coefficients():
    pair = simulate(SimSpec(system="open_loop", n=100_000, seed=3, b=1.0, c=0.5))
    truth = build_true_model(SimSpec(system="open_loop", n=10, seed=3, b=1.0, c=0.5))
    model = fit_var(pair.x, pair.y, 2)
    assert np.max(np.abs(model.coeffs - truth.coeffs)) < 0.02
    assert np.max(np.abs(model.sigma - truth.sigma)) < 0.02


def test_fit_var_requires_enough_samples():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="samples"):
        fit_var(rng.normal(size=10), rng.normal(size=10), 2)


def pair_with_a_nan():
    x, y = np.random.default_rng(5).standard_normal((2, 300))
    x[5] = np.nan
    return x, y


@pytest.mark.parametrize("order", [2, "aic"])
def test_fit_var_refuses_non_finite_samples_by_name(order):
    # the words of TimeSeriesPair, not the rank gate's "SVD did not converge"
    with pytest.raises(ValueError, match="^series contain non-finite values$"):
        fit_var(*pair_with_a_nan(), order)


def test_gated_lstsq_refuses_non_finite_samples_and_the_scan_ends_every_order():
    x, y = pair_with_a_nan()
    with pytest.raises(ValueError, match="^series contain non-finite values$"):
        gated_lstsq(lag_matrix([x, y], 3)[3:], 6, "the test regression")
    assert np.isposinf(aic_curve(x, y)).all()


def test_fit_var_rejects_constant_series():
    x = np.ones(100)
    y = np.ones(100)
    with pytest.raises(ValueError, match="rank"):
        fit_var(x, y, 2)


@pytest.mark.parametrize("order", [2, "aic"])
@pytest.mark.parametrize("x_shape, y_shape", [((100,), (99,)), ((1, 100), (1, 100))])
def test_fit_var_refuses_a_pair_that_is_not_two_equal_series_in_one_message(
    order, x_shape, y_shape
):
    # the pair's message at either order, not the stack fit's at an integer one
    rng = np.random.default_rng(0)
    message = "^x and y must be one-dimensional series of equal length$"
    with pytest.raises(ValueError, match=message):
        fit_var(rng.standard_normal(x_shape), rng.standard_normal(y_shape), order)


def test_fit_var_rejects_bad_order():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="order"):
        fit_var(rng.normal(size=50), rng.normal(size=50), 0)


def ar1_with_lagged_copy(seed, noise=0.0):
    """An AR(1) driver of coefficient 0.5 and a target that is its lag-1 copy plus ``noise``."""
    rng = np.random.default_rng(seed)
    x = simulate_var(np.array([[[0.5, 0.0], [0.0, 0.0]]]), rng.standard_normal((1001, 2)))[:, 0]
    return x[1:], x[:-1] + noise * rng.standard_normal(1000)


def test_exact_target_is_named_and_ends_the_scan():
    # y_n = x_{n-1}: the target equation's residual is rounding, not innovation
    x, y = ar1_with_lagged_copy(0)
    with pytest.raises(ValueError, match="target is an exact function of the past at order 1"):
        fit_var(x, y, 1)
    aics = aic_curve(x, y, 14)
    assert aics[0] == -np.inf and np.all(aics[1:] == np.inf)
    with pytest.raises(ValueError, match="at order 1 a channel is an exact function"):
        fit_var(x, y, "aic", 14)


def test_near_exact_target_still_fits(aic_loop_reference):
    # a real residual of 1e-6 of the target's variance is far above rounding
    x, y = ar1_with_lagged_copy(0, noise=1e-3)
    model = fit_var(x, y, 1)
    assert 3e-7 < model.sigma_y / y.var() < 3e-6
    assert_allclose(model.coeffs[0, 1, 0], 1.0, rtol=0, atol=1e-3)
    assert_same_scan(x, y, 14, aic_loop_reference)


def test_order_selection_mostly_finds_true_order():
    """The information-criterion scan should land on the generating order most of
    the time at this sample size, and never below it."""
    hits = 0
    orders = []
    for seed in range(100):
        pair = simulate(SimSpec(system="open_loop", n=5000, seed=(50, seed), b=1.0, c=0.5))
        p = fit_var(pair.x, pair.y, "aic", p_max=14).p
        orders.append(p)
        hits += p == 2
    assert min(orders) >= 2
    assert hits >= 70


def test_order_selection_tie_goes_to_smaller():
    # white noise: all orders fit equally badly, penalty favors order 1
    rng = np.random.default_rng(0)
    p = fit_var(rng.normal(size=4000), rng.normal(size=4000), "aic", p_max=6).p
    assert p == 1


SCAN_SYSTEMS = [
    {"system": "open_loop", "b": 1.0, "c": 0.5},
    {"system": "open_loop", "b": 0.0, "c": 1.0},
    {"system": "closed_loop", "b": 1.0, "c": 0.5, "d": 0.5},
    {"system": "closed_loop", "b": 0.0, "c": 0.5, "d": 1.0},
    {"system": "confounded", "a": 0.8, "b": 0.0},
    {"system": "confounded", "a": 0.5, "b": 1.0},
]


def assert_same_scan(x, y, p_max, aic_loop_reference):
    ref = aic_loop_reference(x, y, p_max)
    if not np.isfinite(ref).any():
        with pytest.raises(ValueError, match="no order could be fitted"):
            fit_var(x, y, "aic", p_max)
        return
    assert fit_var(x, y, "aic", p_max).p == np.argmin(ref) + 1
    assert_allclose(aic_curve(x, y, p_max), ref, rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    system=st.sampled_from(SCAN_SYSTEMS),
    n=st.sampled_from([40, 41, 150, 500, 2000]),
    seed=st.integers(0, 2**32 - 1),
    cutoff=st.sampled_from([None, 0.0156]),
    p_max=st.integers(1, 14),
)
def test_aic_scan_matches_per_order_fits(aic_loop_reference, system, n, seed, cutoff, p_max):
    pair = preprocess(simulate(SimSpec(n=n, seed=seed, **system)), cutoff)
    assert_same_scan(pair.x, pair.y, p_max, aic_loop_reference)
    if np.isfinite(aic_curve(pair.x, pair.y, p_max)).any():
        # the model read off the scan's R factor is the refit at its order
        scanned = fit_var(pair.x, pair.y, "aic", p_max)
        refit = fit_var(pair.x, pair.y, scanned.p)
        for got, want in ((scanned.coeffs, refit.coeffs), (scanned.sigma, refit.sigma)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("system", SCAN_SYSTEMS[::2], ids=lambda s: s["system"])
def test_aic_scan_stops_at_sample_bound(aic_loop_reference, system):
    # n = 40 fits orders 1..9 only (n > 4p + 2)
    pair = simulate(SimSpec(n=40, seed=4, **system))
    assert np.isfinite(aic_curve(pair.x, pair.y, 14)).sum() == 9
    assert_same_scan(pair.x, pair.y, 14, aic_loop_reference)


@pytest.mark.parametrize("target", ["collinear", "constant"])
def test_aic_scan_rank_deficient_pair(aic_loop_reference, target):
    # y = 2x fails every order; a constant y fits order 1 with a rounding-level
    # residual, so only the orders that fit and the pick are compared
    x = np.random.default_rng(5).normal(size=300)
    y = 2 * x if target == "collinear" else np.full(300, 3.0)
    ref = aic_loop_reference(x, y, 14)
    assert np.array_equal(np.isinf(aic_curve(x, y, 14)), np.isinf(ref))
    if np.isfinite(ref).any():
        assert fit_var(x, y, "aic", 14).p == np.argmin(ref) + 1
    else:
        with pytest.raises(ValueError, match="no order could be fitted"):
            fit_var(x, y, "aic", 14)


def rows_dying_at_different_orders(n):
    """Pairs ``(9, n)``: three closed-loop records, then a pair each whose curve ends by rank
    (order 1), an exact target (order 1), an exact lagged copy (order 3), an exact sinusoid
    driver (order 2), a non-finite sample (order 1) and a zero driver (order 1, by rank, though
    its equation is exact too)."""
    rng = np.random.default_rng(8)
    system = SCAN_SYSTEMS[2]  # closed loop, b = 1, c = 0.5, d = 0.5
    pairs = [simulate(SimSpec(n=n, seed=(9, s), **system)) for s in range(3)]
    rows = [(pair.x, pair.y) for pair in pairs]
    x = rng.standard_normal(n)
    rows += [(x, 2 * x), (x, np.full(n, 3.0))]
    s = simulate_var(np.array([[[0.5, 0.0], [0.0, 0.0]]]), rng.standard_normal((n + 3, 2)))[:, 0]
    rows.append((s[3:], s[:-3]))
    rows.append((np.sin(0.7 * np.arange(n)), rng.standard_normal(n)))
    nan = rng.standard_normal(n)
    nan[n // 2] = np.nan
    rows.append((nan, rng.standard_normal(n)))
    rows.append((np.zeros(n), rng.standard_normal(n)))
    return np.array([x for x, _ in rows]), np.array([y for _, y in rows])


@pytest.mark.parametrize("n", [40, 300])  # at n = 40 the live rows stop at the sample bound, 9
def test_stacked_aic_scan_is_each_row_scanned_alone(aic_loop_reference, n):
    x, y = rows_dying_at_different_orders(n)
    aics, fits = gica.varmodel._aic_scan(x, y, 14)
    assert len(fits) == min(14, (n - 3) // 4)
    for row in range(3):
        assert_allclose(aics[row], aic_loop_reference(x[row], y[row], 14), rtol=0, atol=1e-9)
    models = gica.varmodel.fit_var_aic_stack(x, y, 14)
    for row, model in enumerate(models):
        alone, alone_fits = gica.varmodel._aic_scan(x[row : row + 1], y[row : row + 1], 14)
        assert np.array_equal(aics[row], alone[0])
        for (r, sigma), (r_alone, sigma_alone) in zip(fits, alone_fits):
            assert np.array_equal(r[row], r_alone[0])
            assert np.array_equal(sigma[row], sigma_alone[0])
        if isinstance(model, ValueError):
            with pytest.raises(ValueError, match=f"^{re.escape(str(model))}$"):
                fit_var(x[row], y[row], "aic", 14)
        else:
            chosen = fit_var(x[row], y[row], "aic", 14)
            assert model.p == np.argmin(aics[row]) + 1
            assert np.array_equal(model.coeffs, chosen.coeffs)
            assert np.array_equal(model.sigma, chosen.sigma)
    assert np.isfinite(aics[:3, : len(fits)]).all()
    ends = [int(np.flatnonzero(~np.isfinite(curve))[0]) for curve in aics[3:]]
    assert [end + 1 for end in ends] == [1, 1, 3, 2, 1, 1]
    assert [aics[3 + row, end] for row, end in enumerate(ends)] == [
        np.inf, -np.inf, -np.inf, -np.inf, np.inf, np.inf
    ]
    for curve, end in zip(aics[3:], ends):
        assert np.all(curve[end + 1 :] == np.inf)
    # a block whose rows all fail the rank gate at order 1 scans that order only
    assert len(gica.varmodel._aic_scan(x[[3, 7]], y[[3, 7]], 14)[1]) == 1


@pytest.mark.parametrize(
    "x_shape, y_shape", [((2, 100), (3, 100)), ((2, 100), (2, 99)), ((100,), (100,))]
)
def test_fit_var_stack_refuses_unequal_or_one_dimensional_stacks(x_shape, y_shape):
    # its own message, not a later np.stack error
    rng = np.random.default_rng(0)
    message = "^x and y must be equal-shape stacks of one-dimensional series$"
    with pytest.raises(ValueError, match=message):
        fit_var_stack(rng.standard_normal(x_shape), rng.standard_normal(y_shape), 2)


def test_aic_scan_fits_no_model(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the AIC scan must not fit a model per order")

    for name in ("fit_var", "fit_var_stack", "gated_lstsq"):
        monkeypatch.setattr(gica.varmodel, name, forbidden)
    pair = simulate(SimSpec(system="open_loop", n=500, seed=2, b=1.0, c=0.5))
    assert fit_var(pair.x, pair.y, "aic", 14).p >= 1


def test_aic_fit_gates_each_order_once(monkeypatch):
    # the chosen order's Sigma_p and rank come from the scan; nothing gates it again
    gated = []
    order_gate = gica.varmodel._order_gate

    def counting(r, rows):
        gated.append(rows)
        return order_gate(r, rows)

    monkeypatch.setattr(gica.varmodel, "_order_gate", counting)
    pair = simulate(SimSpec(system="open_loop", n=500, seed=2, b=1.0, c=0.5))
    aic_curve(pair.x, pair.y, 8)
    assert len(gated) == 8
    assert fit_var(pair.x, pair.y, "aic", 8).p >= 1
    assert len(gated) == 16


def test_lyapunov_scalar_closed_form():
    # the embedded AR(1) of coefficient 0.5 has Gamma_yy(0) = 4/3; zero
    # padding to order 5 makes the companion 10x10, where the solver takes
    # its bilinear path instead of the direct one
    for p in (1, 5):
        coeffs = np.zeros((p, 2, 2))
        coeffs[0, 1, 1] = 0.5
        gammas = gammas_of(BivariateVarModel(coeffs, np.eye(2)), 0)
        assert_allclose(gammas[0], [[1.0, 0.0], [0.0, 4.0 / 3.0]], rtol=0, atol=1e-14)


def test_lyapunov_rejects_unstable():
    # spectral radius exactly one: no stationary solution
    coeffs = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(UnstableModelError):
        gammas_of(BivariateVarModel(coeffs, np.eye(2)), 0)


def test_autocovariance_embedded_ar1_closed_form():
    # X white, Y an AR(1) with coefficient 0.5 and unit innovation:
    # Gamma_yy(k) = (4/3) * 0.5**k, all cross terms zero
    coeffs = np.array([[[0.0, 0.0], [0.0, 0.5]]])
    model = BivariateVarModel(coeffs, np.eye(2))
    gammas = gammas_of(model, 8)
    for k in range(9):
        assert_allclose(gammas[k, 1, 1], (4.0 / 3.0) * 0.5**k, rtol=0, atol=1e-12)
        assert_allclose(gammas[k, 1, 0], 0.0, rtol=0, atol=1e-14)
    assert_allclose(gammas[0, 0, 0], 1.0, rtol=0, atol=1e-12)
    assert_allclose(gammas[3, 0, 0], 0.0, rtol=0, atol=1e-14)


def test_autocovariance_prefix_consistency(reference_model):
    short = gammas_of(reference_model, 5)
    long = gammas_of(reference_model, 40)
    assert_allclose(short, long[:6], rtol=0, atol=1e-12)
    assert short.shape == (6, 2, 2)
    assert long.shape == (41, 2, 2)


def test_autocovariance_decays(reference_model):
    gammas = gammas_of(reference_model, 20)
    assert np.linalg.norm(gammas[20]) < np.linalg.norm(gammas[0])


def test_autocovariance_matches_sample_estimate(reference_model):
    pair = simulate(SimSpec(system="open_loop", n=1_000_000, seed=7, b=1.0, c=0.5))
    s = np.column_stack([pair.x, pair.y])
    s = s - s.mean(axis=0)
    gammas = gammas_of(reference_model, 2)
    n = s.shape[0]
    for k in range(3):
        sample = s[k:].T @ s[: n - k] / n
        rel = np.linalg.norm(sample - gammas[k]) / np.linalg.norm(gammas[0])
        assert rel < 0.02


def test_autocovariance_rejects_unstable():
    coeffs = np.array([[[1.01, 0.0], [0.0, 0.0]]])
    with pytest.raises(UnstableModelError):
        gammas_of(BivariateVarModel(coeffs, np.eye(2)), 5)


def lags_at_radius(coeffs, radius):
    """Lags ``(B, m, k, k)`` rescaled to companion radius ``radius``: ``A_l`` times ``s**l``."""
    scale = radius / spectral_radius(coeffs)
    return coeffs * (scale[:, None] ** np.arange(1, coeffs.shape[1] + 1))[..., None, None]


def lyapunov_gammas(coeffs, sigma, q):
    """Oracle: ``Gamma_0 .. Gamma_q`` of each model from scipy's companion Lyapunov solve."""
    out = []
    for a, s in zip(coeffs, sigma):
        p = a.shape[0]
        comp = companion_matrix(a)
        xi = np.zeros_like(comp)
        xi[:2, :2] = s
        psi = scipy.linalg.solve_discrete_lyapunov(comp, xi)
        gammas = list(psi[:2].reshape(2, p, 2).swapaxes(0, 1))
        while len(gammas) <= q:
            gammas.append(sum(a[l] @ gammas[-1 - l] for l in range(p)))
        out.append(gammas[: q + 1])
    return np.array(out)


@pytest.mark.parametrize("p", range(1, 15))
def test_autocovariance_matches_lyapunov_solve(p):
    rng = np.random.default_rng(100 + p)
    coeffs = np.concatenate(
        [lags_at_radius(rng.standard_normal((2, p, 2, 2)), r) for r in (0.5, 0.99, 0.999)]
    )
    root = rng.standard_normal((6, 2, 2))
    sigma = root @ root.swapaxes(-1, -2) + 0.1 * np.eye(2)
    got = autocovariance_stack(coeffs, sigma, 25)
    ref = lyapunov_gammas(coeffs, sigma, 25)
    scale = np.abs(ref).max(axis=(1, 2, 3), keepdims=True)
    assert_allclose(got / scale, ref / scale, rtol=0, atol=1e-10)
    assert np.array_equal(got[:, 0], got[:, 0].swapaxes(-1, -2))


def three_process_lags(n, rng):
    """The confounded system's lags, then random ``(2, 3, 3)`` lags: ``n`` rows in all."""
    system = build_confounded_system(0.8, 0.5)[0][None]
    return np.concatenate([system, rng.standard_normal((n - 1, 2, 3, 3))])


@pytest.mark.parametrize("radius", [0.99, 0.999, 1.001, 1.01])
@pytest.mark.parametrize("kind", ["scalar", "bivariate", "three-process"])
def test_schur_cohn_gate_matches_companion_eigenvalues(kind, radius):
    rng = np.random.default_rng(7)
    draws = {
        "scalar": lambda: rng.standard_normal((40, 22, 1, 1)),
        "bivariate": lambda: rng.standard_normal((40, int(rng.integers(1, 15)), 2, 2)),
        "three-process": lambda: three_process_lags(40, rng),
    }
    for _ in range(5):
        coeffs = lags_at_radius(draws[kind](), radius)
        eig = spectral_radius(coeffs)
        assert np.array_equal(schur_cohn_stable(det_polynomial(coeffs)), eig < 1)
        if radius < 1:
            require_stable(coeffs, "model")
        else:
            with pytest.raises(UnstableModelError, match=f"radius {np.max(eig):.6g} >= 1"):
                require_stable(coeffs, "model")


def gate_passes(coeffs):
    try:
        require_stable(coeffs, "model")
    except UnstableModelError:
        return False
    return True


@pytest.mark.parametrize("p", [1, 2, 5, 14])
def test_gate_cuts_the_zero_taps_of_padded_lags(monkeypatch, p):
    # lags zero-padded to 20 + 3 leave det E all-zero trailing taps: the gate cuts them,
    # so the step-down runs on the unpadded taps and gives the unpadded verdict
    rng = np.random.default_rng(9 + p)
    widths, stable = [], gica.varmodel.schur_cohn_stable
    monkeypatch.setattr(gica.varmodel, "schur_cohn_stable",
                        lambda taps: widths.append(np.shape(taps)[-1]) or stable(taps))
    for radius in (0.5, 0.99, 1.01, 1.5):
        coeffs = lags_at_radius(rng.standard_normal((4, p, 2, 2)), radius)
        padded = np.concatenate([coeffs, np.zeros((4, 23 - p, 2, 2))], axis=1)
        for one, pad in zip(coeffs, padded):
            assert gate_passes(pad) == gate_passes(one) == (radius < 1)
        mixed = np.concatenate([padded[:2], lags_at_radius(padded[2:], 0.9)])
        assert gate_passes(mixed) == (radius < 1)
    assert set(widths) == {2 * p + 1}


def test_det_polynomial_roots_are_inverse_companion_eigenvalues():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        coeffs = rng.standard_normal((3, 4, k, k))
        for taps, comp in zip(det_polynomial(coeffs), companion_matrix(coeffs)):
            assert taps.shape == (4 * k + 1,) and taps[0] == 1.0
            roots = np.sort_complex(1 / np.roots(taps[::-1]))
            assert_allclose(roots, np.sort_complex(np.linalg.eigvals(comp)), atol=1e-9)
