"""Shared fixtures: reference models, a randomized stable-model factory, a
per-sample VAR recursion used as the reference for the vectorised one, and a
per-order AIC scan used as the reference for the one-QR scan, and band integrals of
one profile."""
import numpy as np
import pytest

from gica.simulate import SimSpec, build_true_model
from gica.spectral import _band_integrals
from gica.varmodel import BivariateVarModel, companion_matrix, fit_var


@pytest.fixture(scope="session")
def reference_model():
    """Open-loop model with strong target dynamics (b = 1) and mid coupling (c = 0.5)."""
    return build_true_model(SimSpec(system="open_loop", n=10, seed=0, b=1.0, c=0.5))


def make_random_stable_model(rng, p=None, radius=None):
    """Draw a random bivariate AR model and rescale its lags to a target radius.

    Scaling A_k by s**k multiplies every companion eigenvalue by s, so the
    spectral radius can be set exactly.
    """
    if p is None:
        p = int(rng.integers(1, 5))
    if radius is None:
        radius = float(rng.uniform(0.5, 0.85))
    coeffs = rng.normal(scale=0.3, size=(p, 2, 2))
    rho = np.max(np.abs(np.linalg.eigvals(companion_matrix(coeffs))))
    if rho < 1e-6:
        coeffs[0, 0, 0] += 0.5
        rho = np.max(np.abs(np.linalg.eigvals(companion_matrix(coeffs))))
    scale = radius / rho
    for k in range(p):
        coeffs[k] *= scale ** (k + 1)
    sigma = np.diag(rng.uniform(0.5, 2.0, size=2))
    return BivariateVarModel(coeffs, sigma)


@pytest.fixture
def random_model_factory():
    return make_random_stable_model


def var_loop(coeffs, drive):
    """``s_t = sum_k A_k s_{t-k} + drive_t`` one sample and one lag at a time."""
    s = np.zeros_like(drive)
    for t in range(drive.shape[0]):
        s[t] = drive[t]
        for k in range(1, min(coeffs.shape[0], t) + 1):
            s[t] += coeffs[k - 1] @ s[t - k]
    return s


@pytest.fixture(scope="session")
def var_loop_reference():
    return var_loop


def aic_loop(x, y, p_max=14):
    """AIC curve from one :func:`fit_var` per order, stopping at the first that fails."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    aics = np.full(p_max, np.inf)
    for p in range(1, p_max + 1):
        try:
            model = fit_var(x, y, p)
        except ValueError:
            break  # not enough samples for this and larger orders
        sign, logdet = np.linalg.slogdet(model.sigma)
        if sign <= 0:
            continue
        aics[p - 1] = n * logdet + 2 * (4 * p)
    return aics


@pytest.fixture(scope="session")
def aic_loop_reference():
    return aic_loop


def integrate_band(profile, f_lo_hz, f_hi_hz):
    """Band integral and band mean of a profile over ``[f_lo, f_hi]`` Hz.

    The integral is ``2 * trapezoid`` over normalized frequency with the
    band edges included by linear interpolation; the mean divides by twice
    the normalized bandwidth, giving the average profile height in nats.
    """
    integral, mean = _band_integrals(profile.values, profile.grid, [(f_lo_hz, f_hi_hz)])
    return float(integral[0]), float(mean[0])


def full_band_integral(profile):
    """``2 * trapezoid integral`` over the whole normalized band [0, 1/2]."""
    return integrate_band(profile, 0.0, profile.grid.fs / 2)[0]
