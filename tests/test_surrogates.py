"""Surrogate generation and percentile-based significance verdicts."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from gica.restricted import derive_restricted
from gica.simulate import SimSpec, simulate
from gica.spectral import DEFAULT_BANDS, FrequencyGrid, assemble_profiles
from gica.surrogates import (
    H1,
    H2,
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


def lag1_xcorr(pair):
    return np.corrcoef(pair.x[:-1], pair.y[1:])[0, 1]


def fitted_measures(pair, order=2, q=20):
    model = fit_var(pair.x, pair.y, order).diagonalized()
    rest_ar, rest_x = derive_restricted(model, q)
    _, report = assemble_profiles(model, rest_ar, rest_x, FrequencyGrid(513), DEFAULT_BANDS)
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
    assert len(surr) == 4
    for s in surr:
        assert s.n == coupled_pair.n
        assert s.fs == coupled_pair.fs
        assert np.isfinite(s.x).all() and np.isfinite(s.y).all()
    again = generate_surrogates(coupled_pair, config, 2, 20)
    for a, b in zip(surr, again):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(surr[0].y, surr[1].y)


def test_surrogate_streams_are_index_keyed(coupled_pair):
    # surrogate i depends only on (seed, i), not on the batch size
    small = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=3, seed=5, hypothesis=H1), 2, 20
    )
    large = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=6, seed=5, hypothesis=H1), 2, 20
    )
    for a, b in zip(small, large[:3]):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_h1_surrogates_break_coupling(coupled_pair):
    orig = abs(lag1_xcorr(coupled_pair))
    surr = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=10, seed=5, hypothesis=H1), 2, 20
    )
    rs = np.array([lag1_xcorr(s) for s in surr])
    assert np.mean(np.abs(rs)) < orig / 2


def test_h2_surrogates_keep_coupling(coupled_pair):
    orig = lag1_xcorr(coupled_pair)
    surr = generate_surrogates(
        coupled_pair, SurrogateConfig(n_surrogates=10, seed=5, hypothesis=H2), 2, 20
    )
    rs = np.array([lag1_xcorr(s) for s in surr])
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
    f_xy, _, _ = fitted_measures(coupled_pair)
    config = SurrogateConfig(n_surrogates=50, seed=5, hypothesis=H1)
    surr = generate_surrogates(coupled_pair, config, 2, 20)
    values = np.array([fitted_measures(s)[0] for s in surr])
    verdict = significance_test("gc", "time", f_xy, values, config)
    assert verdict.significant
    assert verdict.tail == "upper"
    assert set(verdict.thresholds) == {"95"}
    assert f_xy > verdict.thresholds["95"]


def test_autonomy_significant_on_coupled_data(coupled_pair):
    _, _, a_y = fitted_measures(coupled_pair)
    config = SurrogateConfig(n_surrogates=50, seed=5, hypothesis=H2)
    surr = generate_surrogates(coupled_pair, config, 2, 20)
    values = np.array([fitted_measures(s)[2] for s in surr])
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
