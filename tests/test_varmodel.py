"""Full-model identification, stability handling, and autocovariance."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gica.simulate import SimSpec, build_true_model, simulate
from gica.varmodel import (
    AutocovarianceSequence,
    BivariateVarModel,
    UnstableModelError,
    companion_matrix,
    compute_autocovariance,
    fit_var,
    lagged_design,
    poles_to_ar_coeffs,
    select_order_aic,
)


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
    assert_allclose(reference_model.spectral_radius(), 0.9, rtol=0, atol=1e-12)
    assert reference_model.is_stable()


def test_unstable_model_raises():
    coeffs = np.array([[[1.05, 0.0], [0.0, 0.2]]])
    model = BivariateVarModel(coeffs, np.eye(2))
    assert not model.is_stable()
    with pytest.raises(UnstableModelError):
        model.require_stable()


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
    back = BivariateVarModel.from_dict(reference_model.to_dict())
    assert_allclose(back.coeffs, reference_model.coeffs, rtol=0, atol=0)
    assert_allclose(back.sigma, reference_model.sigma, rtol=0, atol=0)


def test_model_dict_order_mismatch():
    data = {"p": 3, "A": np.zeros((1, 2, 2)).tolist(), "Sigma": np.eye(2).tolist()}
    with pytest.raises(ValueError, match="order"):
        BivariateVarModel.from_dict(data)


def test_lagged_design_layout():
    s = np.array([10.0, 11.0, 12.0, 13.0, 14.0])
    design = lagged_design([s], 2)
    # rows are times n = 2, 3, 4; columns are s[n-1], s[n-2]
    expected = np.array([[11.0, 10.0], [12.0, 11.0], [13.0, 12.0]])
    assert_allclose(design, expected, rtol=0, atol=0)


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


def test_fit_var_rejects_constant_series():
    x = np.ones(100)
    y = np.ones(100)
    with pytest.raises(ValueError, match="rank"):
        fit_var(x, y, 2)


def test_fit_var_rejects_bad_order():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="order"):
        fit_var(rng.normal(size=50), rng.normal(size=50), 0)


def test_order_selection_mostly_finds_true_order():
    """The information-criterion scan should land on the generating order most of
    the time at this sample size, and never below it."""
    hits = 0
    orders = []
    for seed in range(100):
        pair = simulate(SimSpec(system="open_loop", n=5000, seed=(50, seed), b=1.0, c=0.5))
        p = select_order_aic(pair.x, pair.y, p_max=14)
        orders.append(p)
        hits += p == 2
    assert min(orders) >= 2
    assert hits >= 70


def test_order_selection_tie_goes_to_smaller():
    # white noise: all orders fit equally badly, penalty favors order 1
    rng = np.random.default_rng(0)
    p = select_order_aic(rng.normal(size=4000), rng.normal(size=4000), p_max=6)
    assert p == 1


def test_lyapunov_scalar_closed_form():
    # the embedded AR(1) of coefficient 0.5 has Gamma_yy(0) = 4/3; zero
    # padding to order 5 makes the companion 10x10, where the solver takes
    # its bilinear path instead of the direct one
    for p in (1, 5):
        coeffs = np.zeros((p, 2, 2))
        coeffs[0, 1, 1] = 0.5
        gammas = compute_autocovariance(BivariateVarModel(coeffs, np.eye(2)), 0)
        assert_allclose(gammas.gammas[0], [[1.0, 0.0], [0.0, 4.0 / 3.0]], rtol=0, atol=1e-14)


def test_lyapunov_rejects_unstable():
    # spectral radius exactly one: no stationary solution
    coeffs = np.array([[[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(UnstableModelError):
        compute_autocovariance(BivariateVarModel(coeffs, np.eye(2)), 0)


def test_autocovariance_embedded_ar1_closed_form():
    # X white, Y an AR(1) with coefficient 0.5 and unit innovation:
    # Gamma_yy(k) = (4/3) * 0.5**k, all cross terms zero
    coeffs = np.array([[[0.0, 0.0], [0.0, 0.5]]])
    model = BivariateVarModel(coeffs, np.eye(2))
    gammas = compute_autocovariance(model, 8)
    for k in range(9):
        assert_allclose(gammas.gamma_yy(k), (4.0 / 3.0) * 0.5**k, rtol=0, atol=1e-12)
        assert_allclose(gammas.gamma_yx(k), 0.0, rtol=0, atol=1e-14)
    assert_allclose(gammas.gamma_xx(0), 1.0, rtol=0, atol=1e-12)
    assert_allclose(gammas.gamma_xx(3), 0.0, rtol=0, atol=1e-14)


def test_autocovariance_prefix_consistency(reference_model):
    short = compute_autocovariance(reference_model, 5)
    long = compute_autocovariance(reference_model, 40)
    assert_allclose(short.gammas, long.gammas[:6], rtol=0, atol=1e-12)
    assert short.q == 5
    assert long.q == 40


def test_autocovariance_decays(reference_model):
    gammas = compute_autocovariance(reference_model, 20)
    assert np.linalg.norm(gammas.gammas[20]) < np.linalg.norm(gammas.gammas[0])


def test_autocovariance_matches_sample_estimate(reference_model):
    pair = simulate(SimSpec(system="open_loop", n=1_000_000, seed=7, b=1.0, c=0.5))
    s = np.column_stack([pair.x, pair.y])
    s = s - s.mean(axis=0)
    gammas = compute_autocovariance(reference_model, 2)
    n = s.shape[0]
    for k in range(3):
        sample = s[k:].T @ s[: n - k] / n
        rel = np.linalg.norm(sample - gammas.gammas[k]) / np.linalg.norm(gammas.gammas[0])
        assert rel < 0.02


def test_autocovariance_rejects_unstable():
    coeffs = np.array([[[1.01, 0.0], [0.0, 0.0]]])
    with pytest.raises(UnstableModelError):
        compute_autocovariance(BivariateVarModel(coeffs, np.eye(2)), 5)


def test_autocovariance_sequence_lag_conventions():
    gammas = AutocovarianceSequence(np.zeros((3, 2, 2)))
    assert gammas.q == 2
    with pytest.raises(ValueError, match="negative"):
        gammas.gamma_yx(-1)
