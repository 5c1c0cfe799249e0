"""Transfer functions, spectra, directed coherence, and the log measures."""
import numpy as np
import pytest

import gica.spectral
from numpy.testing import assert_allclose

from gica.restricted import X_ON_Y, derive_restricted, restricted_lags
from gica.simulate import SimSpec, build_true_model, simulate
from gica.spectral import (
    DEFAULT_BANDS,
    FrequencyGrid,
    MeasureReport,
    SpectralProfile,
    assemble_profiles,
)
from gica.spectral import _band_stack, _lag_transform, measure_blocks, measure_stack
from gica.varmodel import BivariateVarModel, UnstableModelError, autocovariance_stack, fit_var

from conftest import full_band_integral, integrate_band

GRID = FrequencyGrid(2049)


def ar1_model(a=0.5):
    return BivariateVarModel(np.array([[[0.0, 0.0], [0.0, a]]]), np.eye(2))


def restricted(model, q=20):
    """``(ar_coeffs, ar_var, x_coeffs, x_var)`` of one model, each a stack of one."""
    return derive_restricted(model.coeffs[None], model.sigma[None], q)


def measures(model, grid=GRID, q=20):
    return assemble_profiles(model, q, grid, DEFAULT_BANDS)[:2]



def test_assemble_profiles_forms_each_determinant_once(monkeypatch):
    # det E for ga and the PSD scale, det F for ga: two determinants, not three
    dets = []
    nonsingular = gica.spectral._nonsingular

    def counting(det, what):
        dets.append(what)
        return nonsingular(det, what)

    monkeypatch.setattr(gica.spectral, "_nonsingular", counting)
    measures(build_true_model(SimSpec(system="open_loop", n=2, b=1.0, c=0.5)))
    assert dets == ["full model", "mixed model"]


def mixed_determinant(monkeypatch, model, grid):
    """``E(f)``, ``det F(f)`` and ``x_coeffs`` of one model, ``det F`` as measure_stack forms it."""
    dets = {}
    nonsingular = gica.spectral._nonsingular

    def keeping(det, what):
        dets[what] = det[0]
        return nonsingular(det, what)

    monkeypatch.setattr(gica.spectral, "_nonsingular", keeping)
    spectra, _, _, restricted = measure_stack(model.coeffs[None], model.sigma[None], 20, grid, {})
    monkeypatch.undo()
    return spectra[0][0], dets["mixed model"], restricted[2][0]


def direct_transfer(coeffs, grid):
    # reference: invert I - sum_k A_k e^(-2i pi f k) built term by term
    e = np.array([np.eye(2, dtype=complex)] * grid.n_points)
    for k in range(1, coeffs.shape[0] + 1):
        e -= np.exp(-2j * np.pi * grid.values * k)[:, None, None] * coeffs[k - 1]
    return np.linalg.inv(e)


def mixed_coeffs(a_xx, a_xy, b_yx):
    """Reference: lags ``(m, 2, 2)`` of the mixed model, the full driver row over ``B_yx``."""
    coeffs = np.zeros((max(a_xx.size, b_yx.size), 2, 2))
    coeffs[: a_xx.size, 0, 0] = a_xx
    coeffs[: a_xy.size, 0, 1] = a_xy
    coeffs[: b_yx.size, 1, 0] = b_yx
    return coeffs


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
    gammas = autocovariance_stack(reference_model.coeffs[None], reference_model.sigma[None], 0)
    assert_allclose(full_band_integral(profiles["psd_y"]), gammas[0, 0, 1, 1], rtol=1e-10, atol=0)


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
    # the FFT lag polynomials of the full and the mixed model against a
    # direct build; FrequencyGrid(3) has fewer points than lags, so lags alias
    rng = np.random.default_rng(33)
    models = [random_model_factory(rng) for _ in range(4)]
    models += [random_model_factory(rng, p=14) for _ in range(2)]
    for grid in (FrequencyGrid(513), FrequencyGrid(3)):
        for model in models:
            h = np.linalg.inv(_lag_transform(model.coeffs[None], grid)[0])
            assert_allclose(h, direct_transfer(model.coeffs, grid), rtol=0, atol=1e-12)
            x_coeffs = restricted(model)[2][0]
            mixed = mixed_coeffs(model.coeffs[:, 0, 0], model.coeffs[:, 0, 1], x_coeffs)
            g = np.linalg.inv(_lag_transform(mixed[None], grid)[0])
            assert_allclose(g, direct_transfer(mixed, grid), rtol=0, atol=1e-12)


def test_mixed_determinant_matches_block_model(monkeypatch, random_model_factory):
    # det F(f) = E_xx + E_xy B_yx of measure_stack is det G(f)^(-1) of the block
    # mixed model, whose lags restricted_lags builds
    rng = np.random.default_rng(34)
    models = [random_model_factory(rng) for _ in range(4)]
    models += [random_model_factory(rng, p=14) for _ in range(2)]
    for model in models:
        for grid in (FrequencyGrid(513), FrequencyGrid(3)):
            _, det_f, x_coeffs = mixed_determinant(monkeypatch, model, grid)
            mixed = mixed_coeffs(model.coeffs[:, 0, 0], model.coeffs[:, 0, 1], x_coeffs)
            lags = restricted_lags(model.coeffs[None], x_coeffs[None], X_ON_Y)[0]
            assert lags.shape == (max(model.p, 20), 2, 2) and np.array_equal(lags, mixed)
            g = direct_transfer(mixed, grid)
            assert_allclose(det_f, np.linalg.det(np.linalg.inv(g)), rtol=1e-12, atol=0)


def test_open_loop_restricted_transfer_is_flat(monkeypatch, reference_model):
    # without a feedback entry in the driver row, G_yy = (1 - A_xx) / det F is
    # identically one: det F reduces to the driver's own lag polynomial
    e, det_f, _ = mixed_determinant(monkeypatch, reference_model, GRID)
    assert_allclose(np.abs(e[:, 0, 0] / det_f), 1.0, rtol=0, atol=1e-12)


def test_autonomy_shape_integrates_to_zero(reference_model):
    profiles, report = measures(reference_model)
    abar, a = profiles["ga_shape"], profiles["ga"]
    assert_allclose(full_band_integral(abar), 0.0, rtol=0, atol=1e-10)
    assert_allclose(full_band_integral(a), report.a_y, rtol=0, atol=1e-10)
    assert_allclose(a.values - abar.values, report.a_y, rtol=0, atol=1e-12)


def test_autonomy_rejects_unstable_mixed_model(monkeypatch):
    # with a feedback entry in the driver row, an absurd driver-only
    # coefficient closes an explosive loop in the mixed system
    model = build_true_model(SimSpec(system="closed_loop", n=10, seed=0, b=1.0, c=0.5, d=1.0))
    runaway = (*restricted(model)[:2], np.array([[5.0]]), np.array([1.0]))
    monkeypatch.setattr(gica.spectral, "derive_restricted", lambda *_: runaway)
    with pytest.raises(UnstableModelError, match="mixed model for autonomy is unstable"):
        assemble_profiles(model, 20, GRID, DEFAULT_BANDS)


def test_time_domain_measures_frozen_reference(reference_model):
    _, report = measures(reference_model)
    assert_allclose(report.f_xy, 0.398429944914943, rtol=0, atol=1e-9)
    assert_allclose(report.f_y, 1.78472079094876, rtol=0, atol=1e-9)
    assert_allclose(report.a_y, 1.50239542377179, rtol=0, atol=1e-9)


def test_isolation_time_value_is_infinite_without_coupling():
    model = build_true_model(SimSpec(system="open_loop", n=10, seed=0, b=1.0, c=0.0))
    _, report = measures(model)
    assert report.f_y == float("inf")
    assert report.f_xy < 1e-12
    assert report.a_y > 1.0


@pytest.mark.parametrize("q", [3, 5, 20, 200])
@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
def test_uncoupled_model_has_exactly_zero_causality(b, q):
    # exact by structure: at b=1, q=3 the Toeplitz self-past variance is 1 ulp above sigma_y
    model = build_true_model(SimSpec(system="open_loop", n=10, seed=0, b=b, c=0.0))
    _, report = measures(model, q=q)
    assert report.f_xy == 0.0


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
    assert list(report.bands) == ["VLF", "LF"]
    for band, cells in report.bands.items():
        assert set(cells) == {"gc", "gi", "ga"}
        for measure, cell in cells.items():
            assert set(cell) == {"integral", "mean"}
            assert all(type(v) is float for v in cell.values())
            alone = integrate_band(profiles[measure], *DEFAULT_BANDS[band])
            assert_allclose([cell["integral"], cell["mean"]], alone, rtol=1e-12)


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


def padded_rfft_transform(coeffs, grid):
    """Oracle: ``I - sum_k A_k e^(-2i pi f k)`` as the real FFT of the zero-padded lags."""
    size = 2 * (grid.n_points - 1)
    seq = np.zeros((coeffs.shape[0], size, *coeffs.shape[2:]))
    np.add.at(seq, (slice(None), np.arange(1, coeffs.shape[1] + 1) % size), coeffs)
    return np.eye(coeffs.shape[-1]) - np.fft.rfft(seq, axis=1)


@pytest.mark.parametrize("n_points, lags", [(2, 5), (3, 9), (129, 2), (129, 300), (2049, 34)])
def test_lag_transform_matches_padded_fft(n_points, lags):
    # lag counts above M = 2 (n - 1) alias onto k mod M, as in the padded FFT
    grid = FrequencyGrid(n_points)
    rng = np.random.default_rng(n_points + lags)
    for k in (1, 2, 3):
        coeffs = rng.standard_normal((3, lags, k, k))
        e = _lag_transform(coeffs, grid)
        assert e.shape == (3, n_points, k, k)
        assert_allclose(e, padded_rfft_transform(coeffs, grid), rtol=0, atol=1e-13 * lags)
        for i, row in enumerate(coeffs):
            assert np.array_equal(_lag_transform(row[None], grid)[0], e[i])


def band_integral_oracle(values, grid, lo_hz, hi_hz):
    """Per band and row: ``2 * trapezoid`` over normalized ``[lo, hi]`` with the edges
    interpolated, ``inf`` where the row is ``inf`` at a grid point the band reads: one
    whose hat function ``(f_{j-1}, f_{j+1})`` overlaps the band."""
    f, lo, hi = grid.values, lo_hz / grid.fs, hi_hz / grid.fs
    nodes = np.concatenate([[lo], f[(f > lo) & (f < hi)], [hi]])
    read = (np.r_[-np.inf, f[:-1]] < hi) & (np.r_[f[1:], np.inf] > lo)
    heights = [np.interp(nodes, f, row) for row in values]
    return np.array([
        np.inf if np.isinf(row[read]).any() else np.sum(np.diff(nodes) * (h[1:] + h[:-1]))
        for row, h in zip(values, heights)
    ])


@pytest.mark.parametrize("n_points", [2, 129, 2049])
def test_band_matmul_matches_band_by_band_integrals(n_points):
    grid = FrequencyGrid(n_points, fs=4.0)
    bands = {"VLF": (0.02, 0.07), "LF": (0.07, 0.2), "all": (0.0, 2.0), "mid": (0.5, 1.3)}
    rng = np.random.default_rng(n_points)
    profiles = {m: rng.standard_normal((5, n_points)) for m in ("gc", "gi", "ga")}
    profiles["gi"][1, -1] = np.inf
    profiles["ga"][3, 0] = np.inf
    table, full = _band_stack(profiles, grid, bands)
    for m, values in profiles.items():
        assert_allclose(full[m], band_integral_oracle(values, grid, 0.0, 2.0), rtol=1e-12)
        for band, (lo, hi) in bands.items():
            integral = band_integral_oracle(values, grid, lo, hi)
            assert_allclose(table[band][m]["integral"], integral, rtol=1e-12, atol=1e-14)
            mean = integral / (2 * (hi - lo) / grid.fs)
            assert_allclose(table[band][m]["mean"], mean, rtol=1e-12, atol=1e-14)
    # gi's inf at 2 Hz reaches LF only on the two-point grid, where LF's edges read it
    assert np.isinf(table["all"]["gi"]["mean"][1]) and np.isinf(full["ga"][3])
    assert np.isfinite(table["LF"]["gi"]["mean"][1]) == (n_points > 2)
    assert np.isfinite(table["LF"]["gi"]["mean"][[0, 2, 3, 4]]).all()
    for i in range(5):
        one = _band_stack({m: v[i : i + 1] for m, v in profiles.items()}, grid, bands)[0]
        assert one["mid"]["ga"]["mean"][0] == table["mid"]["ga"]["mean"][i]


@pytest.mark.parametrize(
    "j, on_grid, off_grid", [(6, 0, 0), (7, 0, 1), (8, 1, 1), (16, 1, 1), (17, 0, 1), (18, 0, 0)]
)
def test_band_reads_the_grid_points_its_edges_interpolate(j, on_grid, off_grid):
    grid = FrequencyGrid(129)  # f_j = j / 256 Hz
    values = np.ones(grid.n_points)
    values[j] = np.inf
    profile = SpectralProfile(grid, values, "gc")
    for (lo, hi), inf in (((8, 16), on_grid), ((7.5, 16.5), off_grid)):
        mean = integrate_band(profile, lo / 256, hi / 256)[1]
        assert np.isinf(mean) == inf
        assert inf or mean == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n_points", [2048, 2049])
def test_gc_infinite_outside_the_bands_leaves_their_means_finite(n_points):
    # a stable model whose gc is inf only at f = 0, outside VLF and LF
    model = BivariateVarModel(np.array([[[1.0, -0.5], [0.5, 0.0]]]), np.eye(2))
    profiles, report = measures(model, FrequencyGrid(n_points))
    assert np.flatnonzero(np.isinf(profiles["gc"].values)).tolist() == [0]
    assert_allclose(report.bands["VLF"]["gc"]["mean"], 1.5499, atol=5e-5)
    assert_allclose(report.bands["LF"]["gc"]["mean"], 0.3710, atol=5e-5)
    assert np.isinf(integrate_band(profiles["gc"], 0.0, 0.02)[1])
    assert np.isinf(full_band_integral(profiles["gc"]))
    assert_allclose(report.f_xy, 0.4949, atol=5e-5)


def test_measure_stack_rows_equal_each_row_measured_alone():
    # confounded-study fits grouped by order: a stack of one order measures each row with the
    # same bits as a stack of one, on profiles, report arrays and restricted arrays
    grid = FrequencyGrid(257)
    by_order = {}
    for seed in range(2):
        for run in range(10):
            pair = simulate(SimSpec("confounded", 500, seed=(seed, run), a=0.8))
            model = fit_var(pair.x, pair.y, "aic", 14)
            by_order.setdefault(model.p, []).append(model)
    assert max(len(models) for models in by_order.values()) >= 5
    for models in by_order.values():
        coeffs = np.stack([model.coeffs for model in models])
        sigma = np.stack([model.sigma for model in models])
        _, profiles, report, rest = measure_stack(coeffs, sigma, 20, grid, DEFAULT_BANDS)
        for i in range(len(models)):
            _, alone, alone_report, alone_rest = measure_stack(
                coeffs[i : i + 1], sigma[i : i + 1], 20, grid, DEFAULT_BANDS
            )
            for name in profiles:
                assert np.array_equal(profiles[name][i], alone[name][0]), name
            for field in ("f_xy", "f_y", "a_y"):
                assert np.array_equal(getattr(report, field)[i], getattr(alone_report, field)[0])
            for band, cells in report.bands.items():
                for measure, pair in cells.items():
                    for key, values in pair.items():
                        assert np.array_equal(
                            values[i], alone_report.bands[band][measure][key][0]
                        ), (band, measure, key)
            for stacked, single in zip(rest, alone_rest):
                assert np.array_equal(stacked[i], single[0])


def test_measure_blocks_yields_blocks_in_order_and_a_failing_model_alone(random_model_factory):
    # 85 models of order 2 on 513 points: model chunks of 40 rows, grid blocks of 10; row 43
    # is unstable, so its chunk is measured model by model and the others block by block
    grid, rng = FrequencyGrid(513), np.random.default_rng(4)
    models = [random_model_factory(rng, 2, 1.05 if row == 43 else None) for row in range(85)]
    coeffs, sigma = (np.stack([getattr(m, k) for m in models]) for k in ("coeffs", "sigma"))
    outcomes = list(measure_blocks(coeffs, sigma, 20, grid, DEFAULT_BANDS))
    blocks = [range(i, i + 10) for i in range(0, 40, 10)]
    assert [rows for rows, _ in outcomes] == [
        *blocks, *(range(r, r + 1) for r in range(40, 80)), range(80, 85)
    ]
    for rows, outcome in outcomes:
        for j, row in enumerate(rows):
            try:
                _, alone, report, _ = measure_stack(
                    models[row].coeffs[None], models[row].sigma[None], 20, grid, DEFAULT_BANDS
                )
            except ValueError as err:
                assert row == 43 and type(outcome) is type(err) and str(outcome) == str(err)
                continue
            profiles, block_report = outcome
            assert set(profiles) == set(alone)
            for name in alone:
                assert np.array_equal(profiles[name][j], alone[name][0]), (row, name)
            for measure in ("gc", "gi", "ga"):
                for scope in ("time", *DEFAULT_BANDS):
                    assert np.array_equal(
                        block_report.value(measure, scope)[j], report.value(measure, scope)[0]
                    ), (row, measure, scope)
