"""Surrogate generation and percentile-based significance verdicts."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gica.pipeline import SURROGATE_BLOCK, surrogate_values
from gica.simulate import SimSpec, simulate
from gica.spectral import DEFAULT_BANDS, FrequencyGrid, assemble_profiles
from gica.surrogates import (
    H1,
    H2,
    SURROGATE_BURN_IN,
    TAILS,
    SignificanceVerdict,
    SurrogateConfig,
    fit_driver_row,
    fit_restricted_direct,
    generate_surrogates,
    significance_test,
)
from gica.timeseries import TimeSeriesPair
from gica.varmodel import UnstableModelError, fit_var


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


def test_config_validation():
    with pytest.raises(ValueError, match="at least 2 surrogates"):
        SurrogateConfig(n_surrogates=1)
    with pytest.raises(ValueError, match="alpha must lie"):
        SurrogateConfig(alpha=0.0)
    with pytest.raises(ValueError, match="alpha must lie"):
        SurrogateConfig(alpha=1.0)
    with pytest.raises(ValueError, match="hypothesis must be"):
        SurrogateConfig(hypothesis="h3")


def test_tail_assignments():
    assert TAILS == {
        "gc": (H1, "upper"),
        "gi": (H1, "lower"),
        "ga": (H2, "two-sided"),
    }


def test_driver_row_recovers_coefficients():
    pair = simulate(SimSpec(system="open_loop", n=5000, seed=1, b=1.0, c=0.5))
    a_xx, a_xy, resid = fit_driver_row(pair.x, pair.y, 2)
    assert_allclose(a_xx, [-0.5562305898749054, -0.81], atol=0.05)
    assert_allclose(a_xy, [0.0, 0.0], atol=0.05)
    assert abs(resid.var() - 1.0) < 0.1
    assert resid.size == pair.n - 2


def test_driver_row_rejects_short_series():
    with pytest.raises(ValueError, match="too short"):
        fit_driver_row(np.zeros(6), np.zeros(6), 2)


def test_driver_row_rejects_degenerate_design():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_driver_row(np.ones(50), rng.standard_normal(50), 2)


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
    a_xx, a_xy, resid = fit_driver_row(x, y, order)
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


def test_surrogates_shape_and_determinism(coupled_pair):
    config = SurrogateConfig(n_surrogates=4, seed=5, hypothesis=H1)
    surr = generate_surrogates(coupled_pair, config, 2, 20)
    assert surr.shape == (2, 4, coupled_pair.n)  # channel-major: x, y = surr[:, i]
    assert np.isfinite(surr).all()
    again = generate_surrogates(coupled_pair, config, 2, 20)
    assert np.array_equal(surr, again)
    assert not np.array_equal(surr[1, 0], surr[1, 1])


def test_surrogate_streams_are_index_keyed(coupled_pair):
    # surrogate i depends only on (seed, i), not on the batch size
    small = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=3, seed=5, hypothesis=H1), 2, 20
    )
    large = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=6, seed=5, hypothesis=H1), 2, 20
    )
    for (ax, ay), (bx, by) in zip(zip(*small), zip(*large[:, :3])):
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)


def loop_surrogates(pair, config, p, q):
    """The documented H1/H2 generator equations, one sample at a time."""
    a_xx, a_xy, u = fit_driver_row(pair.x, pair.y, p)
    kind = "ar_on_y" if config.hypothesis == H1 else "x_on_y"
    b, v = fit_restricted_direct(pair.x, pair.y, kind, q)
    total = SURROGATE_BURN_IN + pair.n
    out = []
    for i in range(config.n_surrogates):
        rng = np.random.default_rng((config.seed, i))
        u_perm = rng.permutation(u)
        v_perm = rng.permutation(v)
        x = np.zeros(total)
        y = np.zeros(total)
        source = y if config.hypothesis == H1 else x
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
    config = SurrogateConfig(n_surrogates=3, seed=5, hypothesis=hypothesis)
    batch = generate_surrogates(coupled_pair, config, p, 20)
    loop = loop_surrogates(coupled_pair, config, p, 20)
    for (sx, sy), (x, y) in zip(zip(*batch), loop, strict=True):
        assert_allclose(sx, x, rtol=0, atol=1e-12 * np.abs(x).max())
        assert_allclose(sy, y, rtol=0, atol=1e-12 * np.abs(y).max())


@pytest.mark.parametrize("hypothesis", [H1, H2])
def test_short_record_drive_wraps_residuals(var_loop_reference, hypothesis):
    # n = 60 is shorter than the burn-in, so both stretches wrap the residuals
    pair = simulate(SimSpec(system="open_loop", n=60, seed=4, b=1.0, c=0.5))
    config = SurrogateConfig(n_surrogates=3, seed=2, hypothesis=hypothesis)
    a_xx, a_xy, u = fit_driver_row(pair.x, pair.y, 2)
    b, v = fit_restricted_direct(pair.x, pair.y, "ar_on_y" if hypothesis == H1 else "x_on_y", 5)
    coeffs = np.zeros((5, 2, 2))
    coeffs[:2, 0, 0], coeffs[:2, 0, 1] = a_xx, a_xy
    coeffs[:, 1, 1 if hypothesis == H1 else 0] = b
    for i, (sx, sy) in enumerate(zip(*generate_surrogates(pair, config, 2, 5))):
        rng = np.random.default_rng((config.seed, i))
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
    config = SurrogateConfig(n_surrogates=n, seed=5, hypothesis=hypothesis)
    series = generate_surrogates(coupled_pair, config, p, 20)
    values = surrogate_values(series, p, 20, BLOCK_GRID, DEFAULT_BANDS)
    for i, (x, y) in enumerate(zip(*series)):
        report = single_report(x, y, p, 20, BLOCK_GRID)
        for measure in ("gc", "gi", "ga"):
            for scope in SCOPES:
                assert_allclose(
                    values[measure, scope][i], report.value(measure, scope), rtol=1e-10, atol=1e-12
                )


@pytest.mark.parametrize("hypothesis", [H1, H2])
def test_block_values_do_not_depend_on_block_size(coupled_pair, hypothesis):
    # 7 surrogates are one partial block; in 23 the same ones share a full block
    def values(n):
        config = SurrogateConfig(n_surrogates=n, seed=5, hypothesis=hypothesis)
        series = generate_surrogates(coupled_pair, config, 2, 20)
        return surrogate_values(series, 2, 20, BLOCK_GRID, DEFAULT_BANDS)

    small, large = values(7), values(23)
    for key, row in small.items():
        assert row.shape == (7,) and large[key].shape == (23,)
        assert np.array_equal(row, large[key][:7]), key


def surrogate_block_with(coupled_pair, bad_x):
    config = SurrogateConfig(n_surrogates=4, seed=5, hypothesis=H1)
    series = generate_surrogates(coupled_pair, config, 2, 20)
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


def test_h1_surrogates_break_coupling(coupled_pair):
    orig = abs(lag1_xcorr(coupled_pair.x, coupled_pair.y))
    surr = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=10, seed=5, hypothesis=H1), 2, 20
    )
    rs = np.array([lag1_xcorr(*s) for s in zip(*surr)])
    assert np.mean(np.abs(rs)) < orig / 2


def test_h2_surrogates_keep_coupling(coupled_pair):
    orig = lag1_xcorr(coupled_pair.x, coupled_pair.y)
    surr = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=10, seed=5, hypothesis=H2), 2, 20
    )
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
        generate_surrogates(bad, SurrogateConfig(n_surrogates=2, hypothesis=H1), 2, 5)


def test_causality_significant_on_coupled_data(coupled_pair):
    f_xy, _, _ = fitted_measures(coupled_pair.x, coupled_pair.y)
    config = SurrogateConfig(n_surrogates=50, seed=5, hypothesis=H1)
    surr = generate_surrogates(coupled_pair, config, 2, 20)
    values = np.array([fitted_measures(*s)[0] for s in zip(*surr)])
    verdict = significance_test("gc", "time", f_xy, values, config)
    assert verdict.significant
    assert verdict.tail == "upper"
    assert set(verdict.thresholds) == {"95"}
    assert f_xy > verdict.thresholds["95"]


def test_autonomy_significant_on_coupled_data(coupled_pair):
    _, _, a_y = fitted_measures(coupled_pair.x, coupled_pair.y)
    config = SurrogateConfig(n_surrogates=50, seed=5, hypothesis=H2)
    surr = generate_surrogates(coupled_pair, config, 2, 20)
    values = np.array([fitted_measures(*s)[2] for s in zip(*surr)])
    verdict = significance_test("ga", "time", a_y, values, config)
    assert verdict.significant
    assert verdict.tail == "two-sided"
    assert set(verdict.thresholds) == {"2.5", "97.5"}


def test_upper_tail_percentile_rule():
    config = SurrogateConfig(n_surrogates=100, alpha=0.05, hypothesis=H1)
    values = np.arange(100.0)
    hit = significance_test("gc", "time", 95.0, values, config)
    assert hit.significant and hit.thresholds["95"] == pytest.approx(94.05)
    miss = significance_test("gc", "time", 94.0, values, config)
    assert not miss.significant


def test_lower_tail_percentile_rule():
    config = SurrogateConfig(n_surrogates=100, alpha=0.05, hypothesis=H1)
    values = np.arange(100.0)
    hit = significance_test("gi", "time", 4.9, values, config)
    assert hit.significant and hit.thresholds["5"] == pytest.approx(4.95)
    assert not significance_test("gi", "time", 5.0, values, config).significant
    # an infinitely isolated original can never be significantly low
    assert not significance_test("gi", "time", np.inf, values, config).significant


def test_two_sided_percentile_rule():
    config = SurrogateConfig(n_surrogates=100, alpha=0.05, hypothesis=H2)
    values = np.arange(100.0)
    verdict = significance_test("ga", "time", 50.0, values, config)
    assert not verdict.significant
    assert verdict.thresholds["2.5"] == pytest.approx(2.475)
    assert verdict.thresholds["97.5"] == pytest.approx(96.525)
    assert significance_test("ga", "time", 97.0, values, config).significant
    assert significance_test("ga", "time", 2.4, values, config).significant


def test_measure_hypothesis_pairing_enforced():
    h2 = SurrogateConfig(n_surrogates=10, hypothesis=H2)
    with pytest.raises(ValueError, match="requires h1 surrogates"):
        significance_test("gc", "time", 1.0, np.zeros(10), h2)
    h1 = SurrogateConfig(n_surrogates=10, hypothesis=H1)
    with pytest.raises(ValueError, match="requires h2 surrogates"):
        significance_test("ga", "time", 1.0, np.zeros(10), h1)
    with pytest.raises(ValueError, match="unknown measure"):
        significance_test("psd", "time", 1.0, np.zeros(10), h1)
    with pytest.raises(ValueError, match="expected 10 surrogate values"):
        significance_test("gc", "time", 1.0, np.zeros(9), h1)


def test_verdict_serialization_handles_infinity():
    verdict = SignificanceVerdict(
        measure="gi",
        scope="time",
        original=np.inf,
        thresholds={"5": 0.25},
        tail="lower",
        significant=False,
    )
    payload = verdict.to_dict()
    assert payload["original"] == "inf"
    assert payload["thresholds"] == {"5": 0.25}
    assert payload["significant"] is False
    assert isinstance(payload["significant"], bool)
