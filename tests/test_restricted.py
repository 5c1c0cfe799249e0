"""Reduced-model identification from exact autocovariances."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gica.restricted import AR_ON_Y, X_ON_Y, RestrictedModel, derive_restricted, restricted_stack
from gica.varmodel import BivariateVarModel, autocovariance_stack


def embedded(coeffs_list, sigma=None):
    coeffs = np.array(coeffs_list, dtype=float)
    return BivariateVarModel(coeffs, np.eye(2) if sigma is None else sigma)


def gammas_of(model, lags):
    return autocovariance_stack(model.coeffs[None], model.sigma[None], lags)


def restricted(gammas, q, kind):
    """Coefficients ``(q,)`` and residual variance of the one model in ``gammas``."""
    coeffs, resid_var = restricted_stack(gammas, q, kind)
    return coeffs[0], resid_var[0]


def test_ar_target_recovered_exactly():
    # Y is a pure AR(1) with coefficient 0.5; the self-past regression at any
    # truncation must return that coefficient and unit residual variance
    model = embedded([[[0.0, 0.0], [0.0, 0.5]]])
    coeffs, resid_var = restricted(gammas_of(model, 24), 12, AR_ON_Y)
    expected = np.zeros(12)
    expected[0] = 0.5
    assert_allclose(coeffs, expected, rtol=0, atol=1e-12)
    assert_allclose(resid_var, 1.0, rtol=0, atol=1e-12)


def test_driver_regression_recovered_exactly():
    # Y_n = 0.7 X_{n-1} + V_n with X white: the driver-past regression is the
    # generating equation itself
    model = embedded([[[0.0, 0.0], [0.7, 0.0]]])
    coeffs, resid_var = restricted(gammas_of(model, 16), 8, X_ON_Y)
    expected = np.zeros(8)
    expected[0] = 0.7
    assert_allclose(coeffs, expected, rtol=0, atol=1e-12)
    assert_allclose(resid_var, 1.0, rtol=0, atol=1e-12)


def test_self_regression_is_blind_to_the_driver():
    # without self-dependencies the best self-past predictor of a driven
    # target still has to explain Y through its own (colored) past
    model = embedded([[[0.3, 0.0], [0.6, 0.0]]])
    _, resid_var = restricted(gammas_of(model, 30), 15, AR_ON_Y)
    # residual variance cannot beat the full model's unit innovation
    assert resid_var > 1.0


def test_longer_truncation_never_hurts(reference_model):
    gammas = gammas_of(reference_model, 80)
    v20 = restricted(gammas, 20, AR_ON_Y)[1]
    v40 = restricted(gammas, 40, AR_ON_Y)[1]
    assert v40 <= v20 + 1e-12


def test_truncated_variance_converges(reference_model):
    gammas = gammas_of(reference_model, 80)
    v20 = restricted(gammas, 20, AR_ON_Y)[1]
    v40 = restricted(gammas, 40, AR_ON_Y)[1]
    assert abs(v20 - v40) < 1e-5
    w20 = restricted(gammas, 20, X_ON_Y)[1]
    w40 = restricted(gammas, 40, X_ON_Y)[1]
    assert abs(w20 - w40) < 1e-4


@pytest.mark.xfail(strict=True, reason="measured gap is 5.24e-6; the sub-1e-6 claim does not hold")
def test_truncated_variance_tight_convergence(reference_model):
    gammas = gammas_of(reference_model, 80)
    v20 = restricted(gammas, 20, AR_ON_Y)[1]
    v40 = restricted(gammas, 40, AR_ON_Y)[1]
    assert abs(v20 - v40) < 1e-6


def test_reference_model_frozen_values(reference_model):
    gammas = gammas_of(reference_model, 80)
    assert_allclose(restricted(gammas, 20, AR_ON_Y)[1], 1.489484288455, rtol=0, atol=1e-9)
    assert_allclose(restricted(gammas, 20, X_ON_Y)[1], 4.492437483237, rtol=0, atol=1e-9)


def test_derive_restricted_matches_each_kind(reference_model):
    # both kinds from one autocovariance, as restricted_stack gives them one by one
    gammas = gammas_of(reference_model, 20)
    rest = derive_restricted(reference_model.coeffs[None], reference_model.sigma[None], 20)
    for (coeffs, resid_var), kind in zip((rest[:2], rest[2:]), (AR_ON_Y, X_ON_Y)):
        expected = restricted_stack(gammas, 20, kind)
        assert np.array_equal(coeffs, expected[0]) and np.array_equal(resid_var, expected[1])


def test_truncation_bounds_enforced(reference_model):
    with pytest.raises(ValueError, match="q must be >= 1"):
        derive_restricted(reference_model.coeffs[None], reference_model.sigma[None], 0)


def test_degenerate_driver_covariance_raises():
    # an identically zero driver autocovariance makes the Toeplitz system singular
    gammas = np.zeros((1, 7, 2, 2))
    gammas[0, 0, 1, 1] = 1.0
    with pytest.raises(ValueError, match="singular|degenerate"):
        restricted_stack(gammas, 3, X_ON_Y)


def test_restricted_model_validation():
    with pytest.raises(ValueError, match="kind"):
        RestrictedModel("bogus", np.array([0.1]), 1.0)
    with pytest.raises(ValueError, match="positive"):
        RestrictedModel(AR_ON_Y, np.array([0.1]), 0.0)
    with pytest.raises(ValueError, match="vector"):
        RestrictedModel(AR_ON_Y, np.zeros((2, 2)), 1.0)


def test_restricted_dict_round_trip(reference_model):
    # restricted_x.json's record rebuilds the model it was written from
    _, _, coeffs, resid_var = derive_restricted(
        reference_model.coeffs[None], reference_model.sigma[None], 20
    )
    rest = RestrictedModel(X_ON_Y, coeffs[0], resid_var[0])
    data = rest.to_dict()
    assert data["q"] == 20
    back = RestrictedModel(data["kind"], np.array(data["coeffs"]), data["resid_var"])
    assert back.kind == rest.kind
    assert_allclose(back.coeffs, rest.coeffs, rtol=0, atol=0)
    assert back.resid_var == rest.resid_var
