"""Surrogate generation and percentile-based significance verdicts."""
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gica.spectral
from gica.pipeline import SURROGATE_BLOCK, AnalysisConfig, surrogate_values
from gica.simulate import SimSpec, simulate
from gica.spectral import DEFAULT_BANDS, FrequencyGrid, assemble_profiles, measure_stack
from gica.surrogates import (
    H1,
    H2,
    SURROGATE_BURN_IN,
    TAILS,
    fit_restricted_direct,
    generate_surrogates,
    significance_test,
)
from gica.timeseries import TimeSeriesPair
from gica.varmodel import UnstableModelError, fit_var, fit_var_stack


def lag1_xcorr(x, y):
    return np.corrcoef(x[:-1], y[1:])[0, 1]


def single_report(x, y, order, q, grid):
    return assemble_profiles(fit_var(x, y, order).diagonalized(), q, grid, DEFAULT_BANDS)[1]


def fitted_measures(x, y, order=2, q=20):
    report = single_report(x, y, order, q, FrequencyGrid(513))
    return report.f_xy, report.f_y, report.a_y


@pytest.fixture(scope="module")
def coupled_pair():
    return simulate(SimSpec(system="open_loop", n=500, seed=3, b=1.0, c=0.5))


@pytest.fixture(scope="module")
def coupled_model(coupled_pair):
    return fit_var(coupled_pair.x, coupled_pair.y, 2)


def test_config_validation(coupled_pair, coupled_model):
    # the surrogate settings live in AnalysisConfig; the generator checks the one it takes
    with pytest.raises(ValueError, match="at least 2 surrogates"):
        AnalysisConfig(n_surrogates=1)
    with pytest.raises(ValueError, match="alpha must lie"):
        AnalysisConfig(n_surrogates=100, alpha=0.0)
    with pytest.raises(ValueError, match="alpha must lie"):
        AnalysisConfig(n_surrogates=100, alpha=1.0)
    with pytest.raises(ValueError, match="hypothesis must be"):
        generate_surrogates(coupled_pair, coupled_model, "h3", 2)


def test_tail_assignments():
    assert TAILS == {
        "gc": (H1, "upper"),
        "gi": (H1, "lower"),
        "ga": (H2, "two-sided"),
    }


def driver_row(x, y, p):
    """``(a_xx, a_xy)`` of row 0 of ``fit_var(x, y, p)``, the surrogates' driver equation,
    and its residuals on samples ``p+1 .. n``."""
    a_xx, a_xy = fit_var(x, y, p).coeffs[:, 0].T
    resid = x[p:] - sum(a_xx[k - 1] * x[p - k : x.size - k] + a_xy[k - 1] * y[p - k : y.size - k]
                        for k in range(1, p + 1))
    return a_xx, a_xy, resid


def test_driver_row_recovers_coefficients():
    pair = simulate(SimSpec(system="open_loop", n=5000, seed=1, b=1.0, c=0.5))
    a_xx, a_xy, resid = driver_row(pair.x, pair.y, 2)
    assert_allclose(a_xx, [-0.5562305898749054, -0.81], atol=0.05)
    assert_allclose(a_xy, [0.0, 0.0], atol=0.05)
    assert abs(resid.var() - 1.0) < 0.1
    assert resid.size == pair.n - 2


def lstsq_on_lags(sources, target, lags):
    """``np.linalg.lstsq`` of ``target[lags:]`` on lags ``1..lags`` of each source, in turn."""
    n = target.size
    design = np.column_stack([s[lags - k : n - k] for s in sources for k in range(1, lags + 1)])
    sol = np.linalg.lstsq(design, target[lags:], rcond=None)[0]
    return sol, target[lags:] - design @ sol


@pytest.mark.parametrize("order", [1, 2, 5])
def test_surrogate_regressions_match_lstsq(order):
    pair = simulate(SimSpec(system="closed_loop", n=1000, seed=8, b=1.0, c=0.5, d=0.5))
    x, y = pair.x, pair.y
    a_xx, a_xy, resid = driver_row(x, y, order)
    sol, ref = lstsq_on_lags([x, y], x, order)
    assert_allclose(np.r_[a_xx, a_xy], sol, rtol=0, atol=1e-12 * np.abs(sol).max())
    assert_allclose(resid, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    for kind, source in (("ar_on_y", y), ("x_on_y", x)):
        coeffs, resid = fit_restricted_direct(x, y, kind, 4 * order)
        sol, ref = lstsq_on_lags([source], y, 4 * order)
        assert_allclose(coeffs, sol, rtol=0, atol=1e-12 * np.abs(sol).max())
        assert_allclose(resid, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_direct_restricted_fits_match_projection_values():
    # long-sample least squares approaches the exact projections
    pair = simulate(SimSpec(system="open_loop", n=5000, seed=1, b=1.0, c=0.5))
    _, resid_ar = fit_restricted_direct(pair.x, pair.y, "ar_on_y", 20)
    _, resid_x = fit_restricted_direct(pair.x, pair.y, "x_on_y", 20)
    assert_allclose(resid_ar.var(), 1.489484288455, rtol=0.1)
    assert_allclose(resid_x.var(), 4.492437483237, rtol=0.1)
    assert resid_ar.size == pair.n - 20


def test_direct_restricted_fit_validation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    with pytest.raises(ValueError, match="unknown restricted model kind"):
        fit_restricted_direct(x, y, "z_on_y", 5)
    with pytest.raises(ValueError, match="too short"):
        fit_restricted_direct(x[:40], y[:40], "ar_on_y", 20)


def test_surrogates_shape_and_determinism(coupled_pair, coupled_model):
    surr = generate_surrogates(coupled_pair, coupled_model, H1, 4, 5, 20)
    assert surr.shape == (2, 4, coupled_pair.n)  # channel-major: x, y = surr[:, i]
    assert np.isfinite(surr).all()
    again = generate_surrogates(coupled_pair, coupled_model, H1, 4, 5, 20)
    assert np.array_equal(surr, again)
    assert not np.array_equal(surr[1, 0], surr[1, 1])


def test_surrogate_streams_are_index_keyed(coupled_pair, coupled_model):
    # surrogate i depends only on (seed, i), not on the batch size
    small = generate_surrogates(coupled_pair, coupled_model, H1, 3, 5, 20)
    large = generate_surrogates(coupled_pair, coupled_model, H1, 6, 5, 20)
    for (ax, ay), (bx, by) in zip(zip(*small), zip(*large[:, :3])):
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)


def loop_surrogates(pair, hypothesis, n_surrogates, seed, p, q):
    """The documented H1/H2 generator equations, one sample at a time."""
    a_xx, a_xy, u = driver_row(pair.x, pair.y, p)
    kind = "ar_on_y" if hypothesis == H1 else "x_on_y"
    b, v = fit_restricted_direct(pair.x, pair.y, kind, q)
    total = SURROGATE_BURN_IN + pair.n
    out = []
    for i in range(n_surrogates):
        rng = np.random.default_rng((seed, i))
        u_perm = rng.permutation(u)
        v_perm = rng.permutation(v)
        x = np.zeros(total)
        y = np.zeros(total)
        source = y if hypothesis == H1 else x
        for t in range(total):
            j = t if t < SURROGATE_BURN_IN else t - SURROGATE_BURN_IN
            x[t] = u_perm[j % u.size]
            for k in range(1, min(p, t) + 1):
                x[t] += a_xx[k - 1] * x[t - k] + a_xy[k - 1] * y[t - k]
            y[t] = v_perm[j % v.size]
            for k in range(1, min(q, t) + 1):
                y[t] += b[k - 1] * source[t - k]
        out.append((x[SURROGATE_BURN_IN:], y[SURROGATE_BURN_IN:]))
    return out


@pytest.mark.parametrize("hypothesis", [H1, H2])
@pytest.mark.parametrize("p", [2, 14])
def test_surrogates_match_per_sample_loop(coupled_pair, hypothesis, p):
    batch = generate_surrogates(
        coupled_pair, fit_var(coupled_pair.x, coupled_pair.y, p), hypothesis, 3, 5, 20
    )
    loop = loop_surrogates(coupled_pair, hypothesis, 3, 5, p, 20)
    for (sx, sy), (x, y) in zip(zip(*batch), loop, strict=True):
        assert_allclose(sx, x, rtol=0, atol=1e-12 * np.abs(x).max())
        assert_allclose(sy, y, rtol=0, atol=1e-12 * np.abs(y).max())


@pytest.mark.parametrize("hypothesis", [H1, H2])
def test_short_record_drive_wraps_residuals(var_loop_reference, hypothesis):
    # n = 60 is shorter than the burn-in, so both stretches wrap the residuals
    pair = simulate(SimSpec(system="open_loop", n=60, seed=4, b=1.0, c=0.5))
    a_xx, a_xy, u = driver_row(pair.x, pair.y, 2)
    b, v = fit_restricted_direct(pair.x, pair.y, "ar_on_y" if hypothesis == H1 else "x_on_y", 5)
    coeffs = np.zeros((5, 2, 2))
    coeffs[:2, 0, 0], coeffs[:2, 0, 1] = a_xx, a_xy
    coeffs[:, 1, 1 if hypothesis == H1 else 0] = b
    series = generate_surrogates(pair, fit_var(pair.x, pair.y, 2), hypothesis, 3, 2, 5)
    for i, (sx, sy) in enumerate(zip(*series)):
        rng = np.random.default_rng((2, i))
        perms = [rng.permutation(u), rng.permutation(v)]
        drive = np.stack(
            [np.concatenate([np.resize(r, SURROGATE_BURN_IN), np.resize(r, pair.n)]) for r in perms],
            axis=-1,
        )
        x, y = var_loop_reference(coeffs, drive)[SURROGATE_BURN_IN:].T
        assert_allclose(sx, x, rtol=0, atol=1e-12 * np.abs(x).max())
        assert_allclose(sy, y, rtol=0, atol=1e-12 * np.abs(y).max())


BLOCK_GRID = FrequencyGrid(513)
SCOPES = ("time", "VLF", "LF")


@pytest.mark.parametrize("hypothesis", [H1, H2])
@pytest.mark.parametrize("p", [2, 14])
def test_block_path_matches_single_model_path(coupled_pair, hypothesis, p):
    # a full block and a partial one, against fit_var -> assemble_profiles
    # surrogate by surrogate
    n = SURROGATE_BLOCK + 3
    series = generate_surrogates(
        coupled_pair, fit_var(coupled_pair.x, coupled_pair.y, p), hypothesis, n, 5, 20
    )
    values = surrogate_values(series, p, 20, BLOCK_GRID, DEFAULT_BANDS)
    for i, (x, y) in enumerate(zip(*series)):
        report = single_report(x, y, p, 20, BLOCK_GRID)
        for measure in ("gc", "gi", "ga"):
            for scope in SCOPES:
                assert_allclose(
                    values[measure, scope][i], report.value(measure, scope), rtol=1e-10, atol=1e-12
                )


@pytest.mark.parametrize("hypothesis", [H1, H2])
def test_block_values_do_not_depend_on_block_size(coupled_pair, coupled_model, hypothesis):
    # 7 surrogates are one partial block; in 23 the same ones share a full block
    def values(n):
        series = generate_surrogates(coupled_pair, coupled_model, hypothesis, n, 5, 20)
        return surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS)

    small, large = values(7), values(23)
    for key, row in small.items():
        assert row.shape == (7,) and large[key].shape == (23,)
        assert np.array_equal(row, large[key][:7]), key


@pytest.mark.parametrize("hypothesis", [H1, H2])
@pytest.mark.parametrize("p", [2, 14])
def test_surrogate_values_equal_measure_stack_per_block(coupled_pair, hypothesis, p):
    # two full blocks and a partial one, against fit_var_stack -> measure_stack block by block
    series = generate_surrogates(
        coupled_pair, fit_var(coupled_pair.x, coupled_pair.y, p), hypothesis, 23, 5, 20
    )
    reports = []
    for start in range(0, 23, SURROGATE_BLOCK):
        x, y = series[:, start : start + SURROGATE_BLOCK]
        reports.append(measure_stack(*fit_var_stack(x, y, p), 20, BLOCK_GRID, DEFAULT_BANDS)[2])
    values = surrogate_values(series, p, 20, BLOCK_GRID, DEFAULT_BANDS)
    assert set(values) == {(m, scope) for m in ("gc", "gi", "ga") for scope in SCOPES}
    for (measure, scope), row in values.items():
        loop = np.concatenate([r.value(measure, scope) for r in reports])
        assert np.array_equal(row, loop), (measure, scope)


def hypothesis_measures(hypothesis):
    return [measure for measure, (needed, _) in TAILS.items() if needed == hypothesis]


@pytest.mark.parametrize("hypothesis", [H1, H2])
@pytest.mark.parametrize("p", [2, 14])
def test_surrogate_values_of_a_hypothesis_equal_the_all_measures_call(coupled_pair, hypothesis, p):
    # two full blocks and a partial one: the hypothesis's measures alone, bit for bit
    series = generate_surrogates(
        coupled_pair, fit_var(coupled_pair.x, coupled_pair.y, p), hypothesis, 23, 5, 20
    )
    measures = hypothesis_measures(hypothesis)
    values = surrogate_values(series, p, 20, BLOCK_GRID, DEFAULT_BANDS, measures)
    every = surrogate_values(series, p, 20, BLOCK_GRID, DEFAULT_BANDS)
    assert set(values) == {(m, scope) for m in measures for scope in SCOPES}
    for key, row in values.items():
        assert np.array_equal(row, every[key]), key


@pytest.mark.parametrize("measures", [["GC"], [], ["gc", "F_y"]])
def test_surrogate_values_refuses_measures_it_does_not_know(coupled_pair, coupled_model, measures):
    # refused up front, not as an error of every block's models
    series = generate_surrogates(coupled_pair, coupled_model, H1, 3, 5, 20)
    with pytest.raises(ValueError, match=r"^measures must be some of \('gc', 'gi', 'ga'\), got"):
        surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS, measures)


@pytest.mark.parametrize(
    "hypothesis, dets, profiles",
    [(H1, [], ["gc", "gi"]), (H2, ["full model", "mixed model"], ["ga_shape", "ga"])],
)
def test_hypothesis_blocks_form_only_what_their_verdicts_read(
    coupled_pair, coupled_model, monkeypatch, hypothesis, dets, profiles
):
    # H1 blocks form no det E, det F or ga; H2 blocks form no gc or gi profile
    formed, integrated = [], []
    nonsingular, band_stack = gica.spectral._nonsingular, gica.spectral._band_stack

    def recording_nonsingular(det, what):
        formed.append(what)
        return nonsingular(det, what)

    def recording_band_stack(stack, *args):
        integrated.append(list(stack))
        return band_stack(stack, *args)

    monkeypatch.setattr(gica.spectral, "_nonsingular", recording_nonsingular)
    monkeypatch.setattr(gica.spectral, "_band_stack", recording_band_stack)
    series = generate_surrogates(coupled_pair, coupled_model, hypothesis, 23, 5, 20)
    surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS, hypothesis_measures(hypothesis))
    assert formed == dets * 3 and integrated == [profiles] * 3


def test_models_are_measured_at_once_and_grids_in_blocks(coupled_pair, coupled_model, monkeypatch):
    # at order 2 on 513 points the model stage takes all 23 models in one call; no grid array
    # holds more than a block
    derived, transformed = [], []
    derive, transform = gica.spectral.derive_restricted, gica.spectral._lag_transform

    def recording_derive(coeffs, *args):
        derived.append(len(coeffs))
        return derive(coeffs, *args)

    def recording_transform(coeffs, grid):
        transformed.append(len(coeffs))
        return transform(coeffs, grid)

    monkeypatch.setattr(gica.spectral, "derive_restricted", recording_derive)
    monkeypatch.setattr(gica.spectral, "_lag_transform", recording_transform)
    series = generate_surrogates(coupled_pair, coupled_model, H2, 23, 5, 20)
    surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS)
    assert derived == [23]
    assert sum(transformed) == 23 and max(transformed) <= SURROGATE_BLOCK


def test_model_stage_memory_does_not_grow_with_surrogates(coupled_pair):
    # at order 14 a model's systems outweigh its row of a 513-point grid, so the model stage
    # runs per block and 120 surrogates peak where one block does
    series = generate_surrogates(
        coupled_pair, fit_var(coupled_pair.x, coupled_pair.y, 14), H2, 120, 5, 20
    )

    def peak(rows):
        tracemalloc.start()
        try:
            surrogate_values(series[:, :rows], 14, 20, BLOCK_GRID, DEFAULT_BANDS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    surrogate_values(series[:, :1], 14, 20, BLOCK_GRID, DEFAULT_BANDS)  # fills the grid's caches
    assert peak(120) < 1.1 * peak(SURROGATE_BLOCK)


def surrogate_block_with(coupled_pair, bad_x):
    model = fit_var(coupled_pair.x, coupled_pair.y, 2)
    series = generate_surrogates(coupled_pair, model, H1, 4, 5, 20)
    series[0, 2] = bad_x
    return series


def test_block_with_constant_row_is_rank_deficient(coupled_pair):
    series = surrogate_block_with(coupled_pair, np.ones(coupled_pair.n))
    with pytest.raises(ValueError, match="rank-deficient"):
        surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS)


def test_block_with_explosive_row_is_unstable(coupled_pair):
    rng = np.random.default_rng(2)
    x = np.zeros(coupled_pair.n)
    for t in range(1, x.size):
        x[t] = 1.02 * x[t - 1] + rng.standard_normal()
    series = surrogate_block_with(coupled_pair, x)
    with pytest.raises(UnstableModelError, match="model is unstable"):
        surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS)


def test_each_failing_surrogate_keeps_its_own_error(coupled_pair, coupled_model):
    # rows 2 and 13 explode in two blocks of one model chunk (order 2, 513 points); the call
    # fails with row 2's own error, not with the chunk's largest radius, row 13's 1.03
    series = generate_surrogates(coupled_pair, coupled_model, H1, 23, 5, 20)
    rng = np.random.default_rng(2)
    for row, growth in [(2, 1.01), (13, 1.03)]:
        x = np.zeros(coupled_pair.n)
        for t in range(1, x.size):
            x[t] = growth * x[t - 1] + rng.standard_normal()
        series[0, row] = x
    with pytest.raises(UnstableModelError) as alone:
        measure_stack(*fit_var_stack(*series[:, 2:3], 2), 20, BLOCK_GRID, DEFAULT_BANDS)
    with pytest.raises(UnstableModelError, match="radius 1.00977 ") as failed:
        surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS)
    assert str(failed.value) == str(alone.value)


def test_a_failing_fit_comes_before_any_surrogate_is_measured(coupled_pair, coupled_model):
    # row 2's explosive driver fails a measuring gate and row 13's constant driver fails its
    # block's fit; every block is fitted before any is measured, so the block's error wins
    series = generate_surrogates(coupled_pair, coupled_model, H1, 23, 5, 20)
    rng = np.random.default_rng(2)
    x = np.zeros(coupled_pair.n)
    for t in range(1, x.size):
        x[t] = 1.02 * x[t - 1] + rng.standard_normal()
    series[0, 2], series[0, 13] = x, np.ones(coupled_pair.n)
    with pytest.raises(UnstableModelError):
        measure_stack(*fit_var_stack(*series[:, 2:3], 2), 20, BLOCK_GRID, DEFAULT_BANDS)
    with pytest.raises(ValueError) as block:
        fit_var_stack(*series[:, 10:20], 2)
    with pytest.raises(ValueError, match=r"^rank-deficient .* \(rank 3\)$") as failed:
        surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS)
    assert str(failed.value) == str(block.value)


def test_h1_surrogates_break_coupling(coupled_pair, coupled_model):
    orig = abs(lag1_xcorr(coupled_pair.x, coupled_pair.y))
    surr = generate_surrogates(coupled_pair, coupled_model, H1, 10, 5, 20)
    rs = np.array([lag1_xcorr(*s) for s in zip(*surr)])
    assert np.mean(np.abs(rs)) < orig / 2


def test_h2_surrogates_keep_coupling(coupled_pair, coupled_model):
    orig = lag1_xcorr(coupled_pair.x, coupled_pair.y)
    surr = generate_surrogates(coupled_pair, coupled_model, H2, 10, 5, 20)
    rs = np.array([lag1_xcorr(*s) for s in zip(*surr)])
    assert np.all(np.sign(rs) == np.sign(orig))
    assert np.mean(np.abs(rs)) > abs(orig) / 2


def test_explosive_generator_is_rejected():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(200)
    x = np.zeros(200)
    for t in range(1, 200):
        x[t] = 1.05 * x[t - 1] + u[t]
    bad = TimeSeriesPair(x, rng.standard_normal(200), 1.0)
    with pytest.raises(UnstableModelError, match="surrogate generator is unstable"):
        generate_surrogates(bad, fit_var(bad.x, bad.y, 2), H1, 2, q=5)


def test_causality_significant_on_coupled_data(coupled_pair, coupled_model):
    f_xy, _, _ = fitted_measures(coupled_pair.x, coupled_pair.y)
    surr = generate_surrogates(coupled_pair, coupled_model, H1, 50, 5, 20)
    values = np.array([fitted_measures(*s)[0] for s in zip(*surr)])
    verdict = significance_test("gc", "time", f_xy, values, 0.05)
    assert verdict["significant"]
    assert verdict["tail"] == "upper"
    assert set(verdict["thresholds"]) == {"95"}
    assert f_xy > verdict["thresholds"]["95"]


def test_autonomy_significant_on_coupled_data(coupled_pair, coupled_model):
    _, _, a_y = fitted_measures(coupled_pair.x, coupled_pair.y)
    surr = generate_surrogates(coupled_pair, coupled_model, H2, 50, 5, 20)
    values = np.array([fitted_measures(*s)[2] for s in zip(*surr)])
    verdict = significance_test("ga", "time", a_y, values, 0.05)
    assert verdict["significant"]
    assert verdict["tail"] == "two-sided"
    assert set(verdict["thresholds"]) == {"2.5", "97.5"}


def test_upper_tail_percentile_rule():
    values = np.arange(100.0)
    hit = significance_test("gc", "time", 95.0, values, 0.05)
    assert hit["significant"] and hit["thresholds"]["95"] == pytest.approx(94.05)
    miss = significance_test("gc", "time", 94.0, values, 0.05)
    assert not miss["significant"]


def test_lower_tail_percentile_rule():
    values = np.arange(100.0)
    hit = significance_test("gi", "time", 4.9, values, 0.05)
    assert hit["significant"] and hit["thresholds"]["5"] == pytest.approx(4.95)
    assert not significance_test("gi", "time", 5.0, values, 0.05)["significant"]
    # an infinitely isolated original can never be significantly low
    assert not significance_test("gi", "time", np.inf, values, 0.05)["significant"]


def test_two_sided_percentile_rule():
    values = np.arange(100.0)
    verdict = significance_test("ga", "time", 50.0, values, 0.05)
    assert not verdict["significant"]
    assert verdict["thresholds"]["2.5"] == pytest.approx(2.475)
    assert verdict["thresholds"]["97.5"] == pytest.approx(96.525)
    assert significance_test("ga", "time", 97.0, values, 0.05)["significant"]
    assert significance_test("ga", "time", 2.4, values, 0.05)["significant"]


def test_measure_hypothesis_pairing_enforced():
    # the measure picks its tail, and the pipeline its hypothesis, from TAILS
    with pytest.raises(ValueError, match="unknown measure"):
        significance_test("psd", "time", 1.0, np.zeros(10), 0.05)


def test_verdict_serialization_handles_infinity():
    values = np.linspace(0.25, 1.25, 5)  # the 5th percentile is 0.3
    verdict = significance_test("gi", "time", np.inf, values, 0.05)
    assert verdict == {
        "measure": "gi",
        "scope": "time",
        "original": "inf",
        "thresholds": {"5": pytest.approx(0.3)},
        "tail": "lower",
        "significant": False,
    }
    assert isinstance(verdict["significant"], bool)
    assert isinstance(verdict["thresholds"]["5"], float)
