"""Transfer functions, spectra, directed coherence, and the log measures."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gica.restricted import X_ON_Y, RestrictedModel, derive_restricted
from gica.simulate import SimSpec, build_true_model
from gica.spectral import (
    DEFAULT_BANDS,
    FrequencyGrid,
    MeasureReport,
    SpectralProfile,
    assemble_profiles,
    band_table,
    full_band_integral,
    full_transfer,
    integrate_band,
    restricted_transfer_ga,
)
from gica.varmodel import BivariateVarModel, UnstableModelError, compute_autocovariance

GRID = FrequencyGrid(2049)


def ar1_model(a=0.5):
    return BivariateVarModel(np.array([[[0.0, 0.0], [0.0, a]]]), np.eye(2))


def measures(model, grid=GRID, q=20):
    rest_ar, rest_x = derive_restricted(model, q)
    return assemble_profiles(model, rest_ar, rest_x, grid, DEFAULT_BANDS)


def direct_transfer(coeffs, grid):
    # reference: invert I - sum_k A_k e^(-2i pi f k) built term by term
    e = np.array([np.eye(2, dtype=complex)] * grid.n_points)
    for k in range(1, coeffs.shape[0] + 1):
        e -= np.exp(-2j * np.pi * grid.values * k)[:, None, None] * coeffs[k - 1]
    return np.linalg.inv(e)


def test_grid_endpoints_and_step():
    grid = FrequencyGrid(5, fs=4.0)
    assert_allclose(grid.values, [0.0, 0.125, 0.25, 0.375, 0.5], rtol=0, atol=0)
    assert_allclose(grid.freqs_hz, [0.0, 0.5, 1.0, 1.5, 2.0], rtol=0, atol=0)
    assert grid.step == 0.125
    assert FrequencyGrid.default().n_points == 2049


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(1)
    with pytest.raises(ValueError):
        FrequencyGrid(16, fs=0.0)


def test_profile_rejects_nan():
    grid = FrequencyGrid(4)
    with pytest.raises(ValueError, match="NaN"):
        SpectralProfile(grid, np.array([0.0, np.nan, 0.0, 0.0]), "gc")
    with pytest.raises(ValueError, match="shape"):
        SpectralProfile(grid, np.zeros(5), "gc")


def test_ar1_psd_closed_form():
    profiles, _ = measures(ar1_model(0.5))
    omega = 2 * np.pi * GRID.values
    expected = 1.0 / np.abs(1 - 0.5 * np.exp(-1j * omega)) ** 2
    assert_allclose(profiles["psd_y"].values, expected, rtol=0, atol=1e-12)
    assert_allclose(profiles["psd_x"].values, np.ones_like(expected), rtol=0, atol=1e-12)
    assert_allclose(profiles["psd_cross"].values, 0.0, rtol=0, atol=1e-14)


def test_ar1_psd_integrates_to_variance():
    # 2 * integral of the spectrum recovers Gamma_yy(0) = 4/3; the trapezoid
    # rule is spectrally accurate for these smooth periodic integrands
    profiles, _ = measures(ar1_model(0.5))
    total = full_band_integral(profiles["psd_y"])
    assert_allclose(total, 4.0 / 3.0, rtol=0, atol=1e-10)


def test_reference_psd_integrates_to_variance(reference_model):
    profiles, _ = measures(reference_model)
    gammas = compute_autocovariance(reference_model, 0)
    assert_allclose(full_band_integral(profiles["psd_y"]), gammas.gamma_yy(0), rtol=1e-10, atol=0)


def test_psd_scales_with_sampling_rate(reference_model):
    fast, _ = measures(reference_model, FrequencyGrid(257, fs=8.0))
    slow, _ = measures(reference_model, FrequencyGrid(257, fs=1.0))
    assert_allclose(fast["psd_y"].values * 8.0, slow["psd_y"].values, rtol=0, atol=1e-12)


def test_directed_coherence_shares_sum_to_one(reference_model):
    profiles, _ = measures(reference_model)
    dc_yx, dc_yy = profiles["dc_yx"], profiles["dc_yy"]
    assert_allclose(dc_yx.values + dc_yy.values, 1.0, rtol=0, atol=1e-12)
    assert np.all(dc_yx.values >= 0)
    assert np.all(dc_yy.values >= 0)


def test_causality_profile_matches_coherence_identity(reference_model):
    profiles, _ = measures(reference_model)
    gc, dc_yx = profiles["gc"], profiles["dc_yx"]
    assert_allclose(gc.values, -np.log1p(-dc_yx.values), rtol=0, atol=1e-10)


def test_causality_and_isolation_are_complementary(reference_model):
    # both log profiles exceed their shares: gc = ln(total/internal),
    # gi = ln(total/causal), so exp(-gc) + exp(-gi) = 1
    profiles, _ = measures(reference_model)
    gc, gi = profiles["gc"], profiles["gi"]
    assert_allclose(np.exp(-gc.values) + np.exp(-gi.values), 1.0, rtol=0, atol=1e-12)


def test_uncoupled_target_has_zero_causality_and_infinite_isolation():
    model = build_true_model(SimSpec(system="open_loop", n=10, seed=0, b=1.0, c=0.0))
    profiles, _ = measures(model)
    assert np.all(profiles["gc"].values == 0.0)
    assert np.all(np.isinf(profiles["gi"].values))
    assert np.all(profiles["psd_cross"].values == 0.0)


def test_transfers_match_direct_inverse(random_model_factory):
    # the FFT lag polynomials and closed-form inverses against a direct
    # build; FrequencyGrid(3) has fewer points than lags, so lags alias
    rng = np.random.default_rng(33)
    models = [random_model_factory(rng) for _ in range(4)]
    models += [random_model_factory(rng, p=14) for _ in range(2)]
    for grid in (FrequencyGrid(513), FrequencyGrid(3)):
        for model in models:
            h = full_transfer(model, grid)
            assert_allclose(h, direct_transfer(model.coeffs, grid), rtol=0, atol=1e-12)
            _, rest_x = derive_restricted(model, 20)
            mixed = np.zeros((20, 2, 2))
            mixed[: model.p, 0, :] = model.coeffs[:, 0, :]
            mixed[:, 1, 0] = rest_x.coeffs
            g = restricted_transfer_ga(
                model.coeffs[:, 0, 0], model.coeffs[:, 0, 1], rest_x.coeffs, grid
            )
            assert_allclose(g, direct_transfer(mixed, grid), rtol=0, atol=1e-12)


def test_open_loop_restricted_transfer_is_flat(reference_model):
    # without a feedback entry in the driver row, G_yy is identically one
    _, rest = derive_restricted(reference_model, 20)
    g = restricted_transfer_ga(
        reference_model.coeffs[:, 0, 0], reference_model.coeffs[:, 0, 1], rest.coeffs, GRID
    )
    assert_allclose(np.abs(g[:, 1, 1]), 1.0, rtol=0, atol=1e-12)


def test_autonomy_shape_integrates_to_zero(reference_model):
    profiles, report = measures(reference_model)
    abar, a = profiles["ga_shape"], profiles["ga"]
    assert_allclose(full_band_integral(abar), 0.0, rtol=0, atol=1e-10)
    assert_allclose(full_band_integral(a), report.a_y, rtol=0, atol=1e-10)
    assert_allclose(a.values - abar.values, report.a_y, rtol=0, atol=1e-12)


def test_autonomy_requires_driver_only_model(reference_model):
    rest_ar, _ = derive_restricted(reference_model, 20)
    with pytest.raises(ValueError, match="driver-only"):
        assemble_profiles(reference_model, rest_ar, rest_ar, GRID, DEFAULT_BANDS)


def test_autonomy_rejects_unstable_mixed_model():
    # with a feedback entry in the driver row, an absurd driver-only
    # coefficient closes an explosive loop in the mixed system
    model = build_true_model(SimSpec(system="closed_loop", n=10, seed=0, b=1.0, c=0.5, d=1.0))
    rest_ar, _ = derive_restricted(model, 20)
    runaway = RestrictedModel(X_ON_Y, np.array([5.0]), 1.0)
    with pytest.raises(UnstableModelError):
        assemble_profiles(model, rest_ar, runaway, GRID, DEFAULT_BANDS)


def test_time_domain_measures_frozen_reference(reference_model):
    _, report = measures(reference_model)
    assert_allclose(report.f_xy, 0.398429944914943, rtol=0, atol=1e-9)
    assert_allclose(report.f_y, 1.78472079094876, rtol=0, atol=1e-9)
    assert_allclose(report.a_y, 1.50239542377179, rtol=0, atol=1e-9)


def test_time_domain_measures_validate_kinds(reference_model):
    rest_ar, rest_x = derive_restricted(reference_model, 20)
    with pytest.raises(ValueError):
        assemble_profiles(reference_model, rest_x, rest_x, GRID, DEFAULT_BANDS)
    with pytest.raises(ValueError):
        assemble_profiles(reference_model, rest_ar, rest_ar, GRID, DEFAULT_BANDS)


def test_isolation_time_value_is_infinite_without_coupling():
    model = build_true_model(SimSpec(system="open_loop", n=10, seed=0, b=1.0, c=0.0))
    _, report = measures(model)
    assert report.f_y == float("inf")
    assert report.f_xy < 1e-12
    assert report.a_y > 1.0


def test_band_integral_of_constant_profile():
    profile = SpectralProfile(GRID, np.full(GRID.n_points, 0.7), "gc")
    integral, mean = integrate_band(profile, 0.07, 0.2)
    assert_allclose(integral, 2 * 0.7 * 0.13, rtol=0, atol=1e-12)
    assert_allclose(mean, 0.7, rtol=0, atol=1e-12)


def test_band_integral_of_linear_profile_is_exact():
    profile = SpectralProfile(GRID, GRID.values.copy(), "gc")
    lo, hi = 0.035, 0.11
    integral, mean = integrate_band(profile, lo, hi)
    assert_allclose(integral, hi**2 - lo**2, rtol=0, atol=1e-12)
    assert_allclose(mean, (hi + lo) / 2, rtol=0, atol=1e-12)


def test_band_integral_propagates_infinity():
    values = np.full(GRID.n_points, np.inf)
    profile = SpectralProfile(GRID, values, "gi")
    integral, mean = integrate_band(profile, 0.02, 0.07)
    assert integral == float("inf")
    assert mean == float("inf")
    assert full_band_integral(profile) == float("inf")


def test_band_validation():
    profile = SpectralProfile(GRID, np.zeros(GRID.n_points), "gc")
    with pytest.raises(ValueError, match="band"):
        integrate_band(profile, 0.2, 0.1)
    with pytest.raises(ValueError, match="band"):
        integrate_band(profile, -0.1, 0.2)
    with pytest.raises(ValueError, match="band"):
        integrate_band(profile, 0.1, 0.6)


def test_default_bands():
    assert DEFAULT_BANDS == {"VLF": (0.02, 0.07), "LF": (0.07, 0.2)}


def test_band_table_layout(reference_model):
    profiles, report = measures(reference_model)
    table = band_table(profiles, DEFAULT_BANDS)
    assert table == report.bands
    assert set(table) == {"VLF", "LF"}
    for band in table.values():
        assert set(band) == {"gc", "gi", "ga"}
        for cell in band.values():
            assert set(cell) == {"integral", "mean"}


def test_report_serializes_infinities():
    report = MeasureReport(f_xy=0.0, f_y=float("inf"), a_y=1.25)
    data = report.to_dict()
    assert data["schema"] == 1
    assert data["F_y"] == "inf"
    assert data["A_y"] == 1.25
    assert data["warnings"] == []
    assert "significance" not in data


def test_randomized_profiles_are_well_behaved(random_model_factory):
    rng = np.random.default_rng(21)
    grid = FrequencyGrid(513)
    for _ in range(5):
        model = random_model_factory(rng)
        profiles, _ = measures(model, grid)
        dc_yx, dc_yy = profiles["dc_yx"], profiles["dc_yy"]
        assert np.all(profiles["gc"].values >= 0)
        assert np.all(profiles["gi"].values >= 0)
        assert np.all((dc_yx.values >= 0) & (dc_yx.values <= 1))
        assert np.all(profiles["psd_y"].values > 0)
        assert_allclose(dc_yx.values + dc_yy.values, 1.0, rtol=0, atol=1e-10)
