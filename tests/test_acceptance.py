"""End-to-end acceptance suite.

One test per shipped guarantee: pointwise spectral identities, integral
consistency with the time-domain measures, the autonomy null, oracle
equivalence of the projection route against direct least squares, the
open-loop trend and peak structure, the closed-loop autonomy drop, the
averaged confounded study, surrogate calibration, the four-setting
benchmark matrix, and the default configuration's convergence to theory.
Known numerical gaps are pinned by strict xfail tests right next to the
guarantee they qualify.
"""
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import binom, chi2

from gica.pipeline import AnalysisConfig, analyze_pair, surrogate_values
from gica.restricted import derive_restricted
from gica.simulate import (
    SimSpec, build_true_model, run_confounded_study, simulate, theoretical_profiles
)
from gica.spectral import (
    DEFAULT_BANDS,
    FrequencyGrid,
    _lag_transform,
    assemble_profiles,
)
from gica.surrogates import generate_surrogates, significance_test
from gica.varmodel import BivariateVarModel, fit_var, lag_matrix

from conftest import full_band_integral

GRID = FrequencyGrid(2049)


def _reference_model():
    return build_true_model(SimSpec(system="open_loop", n=10, b=1.0, c=0.5))


def _exact_measures(model, q, grid=GRID):
    return assemble_profiles(model, q, grid, DEFAULT_BANDS)[:2]


def test_acceptance_01_pointwise_spectral_identities(random_model_factory):
    # share sum, causality-coherence link, and the PSD split, each within
    # 1e-10 at every grid point on ten randomized stable models
    rng = np.random.default_rng(101)
    for _ in range(10):
        model = random_model_factory(rng)
        profiles, _ = _exact_measures(model, 20)
        psd_y, dc_yx, dc_yy = profiles["psd_y"], profiles["dc_yx"], profiles["dc_yy"]
        gc = profiles["gc"]
        h = np.linalg.inv(_lag_transform(model.coeffs[None], GRID)[0])
        causal = np.abs(h[:, 1, 0]) ** 2 * model.sigma[0, 0]
        internal = np.abs(h[:, 1, 1]) ** 2 * model.sigma[1, 1]
        assert np.abs(dc_yx.values + dc_yy.values - 1.0).max() < 1e-10
        assert np.abs(gc.values + np.log1p(-dc_yx.values)).max() < 1e-10
        split_gap = np.abs(psd_y.values - causal - internal) / psd_y.values
        assert split_gap.max() < 1e-10


def test_acceptance_02_integrals_match_time_domain(random_model_factory):
    # twice the one-sided integral of each spectral measure reproduces its
    # time-domain value; the shape term integrates to zero
    rng = np.random.default_rng(202)
    models = [_reference_model()] + [random_model_factory(rng) for _ in range(10)]
    for model in models:
        profiles, report = _exact_measures(model, 200)
        gc_gap = abs(full_band_integral(profiles["gc"]) - report.f_xy)
        shape, ga = profiles["ga_shape"], profiles["ga"]
        ga_gap = abs(full_band_integral(ga) - report.a_y)
        assert gc_gap < 1e-3
        assert ga_gap < 1e-3
        assert abs(full_band_integral(shape)) < 5e-3


@pytest.mark.xfail(
    strict=True,
    reason="E_yx(0) = 0 makes gi infinite at f = 0 alone, an integrable log singularity, "
    "but the full-band integral behind F_y is inf for any inf in the row",
)
def test_acceptance_02_isolation_finite_at_a_single_zero_of_the_coupling():
    model = BivariateVarModel(
        np.array([[[0.5, 0.0], [0.5, 0.2]], [[0.0, 0.0], [-0.5, 0.0]]]), np.eye(2)
    )
    profiles, report = _exact_measures(model, 20)
    assert np.flatnonzero(np.isinf(profiles["gi"].values)).tolist() == [0]
    assert report.f_xy == pytest.approx(0.2819, abs=5e-5)
    assert np.isfinite(report.f_y)


def test_acceptance_03_autonomy_vanishes_without_self_dynamics():
    # with no target self-dynamics the autonomy profile is identically zero
    for c in (0.25, 0.5, 1.0):
        model = build_true_model(SimSpec(system="open_loop", n=10, b=0.0, c=c))
        ga = _exact_measures(model, 20)[0]["ga"]
        assert np.abs(ga.values).max() < 1e-6


@pytest.fixture(scope="module")
def oracle_rows():
    # nine (b, c) combos: compare the projection route against direct
    # least squares on one million samples each
    from gica.surrogates import fit_restricted_direct

    rows = []
    for b in (0.0, 0.5, 1.0):
        for c in (0.0, 0.5, 1.0):
            spec = SimSpec(
                system="open_loop", n=10**6, seed=(9, int(2 * b), int(2 * c)), b=b, c=c
            )
            pair = simulate(spec)
            model = build_true_model(spec)
            rest = derive_restricted(model.coeffs[None], model.sigma[None], 20)
            theory = {"ar_on_y": rest[:2], "x_on_y": rest[2:]}
            for kind in ("ar_on_y", "x_on_y"):
                coeffs, resid = fit_restricted_direct(pair.x, pair.y, kind, 20)
                exact_coeffs, exact_var = (v[0] for v in theory[kind])
                delta = coeffs - exact_coeffs
                # the source's lags 1..20: the first 20 columns of its lag matrix
                source = pair.y if kind == "ar_on_y" else pair.x
                design = lag_matrix([source], 20)[20:, :20]
                rows.append(
                    {
                        "kind": kind,
                        "var_rel": abs(resid.var() - exact_var) / exact_var,
                        "coeff_rel": np.linalg.norm(delta)
                        / max(np.linalg.norm(exact_coeffs), 1.0),
                        "t_stat": delta @ (design.T @ design) @ delta / resid.var(),
                    }
                )
    return rows


def test_acceptance_04_projection_matches_least_squares_oracle(oracle_rows):
    rows = oracle_rows
    assert max(r["var_rel"] for r in rows) < 0.01
    ar = [r for r in rows if r["kind"] == "ar_on_y"]
    xo = [r for r in rows if r["kind"] == "x_on_y"]
    assert max(r["coeff_rel"] for r in ar) < 0.01
    # driver-past coefficients carry more sampling noise; bound them by a
    # chi-square envelope at the 0.1% level plus a looser norm cap
    envelope = chi2(20).ppf(0.999)
    assert max(r["t_stat"] for r in rows) < envelope
    assert max(r["coeff_rel"] for r in xo) < 0.025


@pytest.mark.xfail(
    strict=True,
    reason="driver-past least-squares coefficients have an intrinsic sampling "
    "noise floor near 1.8% at one million samples, above the 1% bound",
)
def test_acceptance_04_strict_coefficient_tolerance(oracle_rows):
    xo = [r for r in oracle_rows if r["kind"] == "x_on_y"]
    assert max(r["coeff_rel"] for r in xo) < 0.01


def test_acceptance_05_open_loop_trend_reproduction():
    values = [0.0, 0.25, 0.5, 0.75, 1.0]
    b_rows = []
    for b in values:
        model = build_true_model(SimSpec(system="open_loop", n=10, b=b, c=0.5))
        _, report = _exact_measures(model, 200)
        b_rows.append((report.f_xy, report.a_y))
    autonomy = [a for _, a in b_rows]
    assert autonomy[0] == 0.0
    assert all(np.diff(autonomy) > 0)
    causality = [f for f, _ in b_rows]
    assert max(causality) - min(causality) < 1e-9

    c_rows = []
    for c in values:
        model = build_true_model(SimSpec(system="open_loop", n=10, b=1.0, c=c))
        _, report = _exact_measures(model, 200)
        c_rows.append((report.f_xy, report.f_y, report.a_y))
    causality = [f for f, _, _ in c_rows]
    assert causality[0] == 0.0
    assert all(np.diff(causality) > 0)
    isolation = [f for _, f, _ in c_rows]
    assert np.isinf(isolation[0])
    assert all(hi > lo for hi, lo in zip(isolation, isolation[1:]))
    autonomy = [a for _, _, a in c_rows]
    assert max(autonomy) - min(autonomy) < 1e-9

    # peak locations on the default grid; both land within 0.01 of the
    # nominal pole frequencies, but not within one grid step (see xfails)
    profiles, _ = _exact_measures(_reference_model(), 200)
    gc_peak = GRID.values[np.argmax(profiles["gc"].values)]
    ga_peak = GRID.values[np.argmax(profiles["ga"].values)]
    assert gc_peak == pytest.approx(0.30029296875, abs=1e-12)
    assert ga_peak == pytest.approx(0.094482421875, abs=1e-12)
    assert abs(gc_peak - 0.3) < 0.01
    assert abs(ga_peak - 0.1) < 0.01


@pytest.mark.xfail(
    strict=True,
    reason="the exact causality peak sits at 0.300287, 1.2 grid steps above "
    "0.3, so one-grid-step alignment with the pole frequency cannot hold",
)
def test_acceptance_05_causality_peak_grid_alignment():
    profiles, _ = _exact_measures(_reference_model(), 200)
    gc_peak = GRID.values[np.argmax(profiles["gc"].values)]
    assert abs(gc_peak - 0.3) <= GRID.step


@pytest.mark.xfail(
    strict=True,
    reason="the exact autonomy peak sits at 0.094386, 23 grid steps below "
    "0.1; the damped self-oscillation peaks below its pole frequency",
)
def test_acceptance_05_autonomy_peak_grid_alignment():
    profiles, _ = _exact_measures(_reference_model(), 200)
    ga_peak = GRID.values[np.argmax(profiles["ga"].values)]
    assert abs(ga_peak - 0.1) <= GRID.step


def test_acceptance_06_feedback_lowers_autonomy():
    with_feedback = build_true_model(
        SimSpec(system="closed_loop", n=10, b=1.0, c=0.5, d=1.0)
    )
    without = build_true_model(SimSpec(system="closed_loop", n=10, b=1.0, c=0.5, d=0.0))
    a_fb = _exact_measures(with_feedback, 20)[1].a_y
    a_open = _exact_measures(without, 20)[1].a_y
    assert a_fb < a_open
    assert_allclose(a_fb, 1.1947771686762167, rtol=0, atol=1e-9)
    assert_allclose(a_open, 1.5023954237717920, rtol=0, atol=1e-9)

    # profile shape under feedback, resolved with the driver-past model
    # truncated at the full model order: a secondary local maximum inside
    # [0.25, 0.35] and a negative dip above 0.35
    ga = _exact_measures(with_feedback, 2)[0]["ga"].values
    interior = (ga[1:-1] > ga[:-2]) & (ga[1:-1] > ga[2:])
    local_max = GRID.values[1:-1][interior]
    assert any(0.25 <= f <= 0.35 for f in local_max)
    assert ga[GRID.values > 0.35].min() < 0.0


@pytest.fixture(scope="module")
def confounded_studies():
    out = {}
    for label, a, b in (("I", 0.0, 0.0), ("II", 0.0, 0.8), ("III", 0.8, 0.0)):
        profiles, failures = run_confounded_study(a, b, n_runs=100, n=500, seed=0)
        out[label] = (profiles, failures)
    return out


def test_acceptance_07_confounded_study_reproduction(confounded_studies):
    studies = confounded_studies
    for label, (profiles, failures) in studies.items():
        assert failures == 0
        gc = profiles["gc"].values
        gc_peak = GRID.values[np.argmax(gc)]
        assert 0.28 <= gc_peak <= 0.32, label
        assert gc.max() > 1.0

    flat = studies["I"][0]["ga"].values
    assert np.abs(flat).max() < 0.05

    ga_ii = studies["II"][0]["ga"].values
    peak_ii = GRID.values[np.argmax(ga_ii)]
    assert ga_ii.max() > 1.0
    assert 0.06 <= peak_ii <= 0.09

    ga_iii = studies["III"][0]["ga"].values
    peak_iii = GRID.values[np.argmax(ga_iii)]
    assert 0.18 <= peak_iii <= 0.22


@pytest.mark.xfail(
    strict=True,
    reason="with a target pole modulus of 0.64 the averaged autonomy peak "
    "lands at 0.076, below the 0.10 +/- 0.02 window",
)
def test_acceptance_07_autonomy_peak_window_with_self_dynamics(confounded_studies):
    ga = confounded_studies["II"][0]["ga"].values
    peak = GRID.values[np.argmax(ga)]
    assert 0.08 <= peak <= 0.12


def test_acceptance_08_surrogate_calibration():
    # false-positive rate inside the exact binomial band at alpha = 0.05,
    # and near-certain detection under solid coupling; F_xy needs no grid, so
    # the stacked refits run on a 3-point one with no bands

    def gc_time(series):
        return surrogate_values(series, 2, 20, FrequencyGrid(3), {})["gc", "time"]

    def fires(pair, run):
        values = gc_time(generate_surrogates(pair, fit_var(pair.x, pair.y, 2), "h1", 100, run, 20))
        original = gc_time(np.stack([pair.x, pair.y])[:, None])[0]
        return significance_test("gc", "time", original, values, 0.05)["significant"]

    null_hits = sum(
        fires(simulate(SimSpec(system="open_loop", n=500, seed=(100, r), b=1.0, c=0.0)), r)
        for r in range(200)
    )
    lo = binom.ppf(0.025, 200, 0.05)
    hi = binom.ppf(0.975, 200, 0.05)
    assert lo <= null_hits <= hi

    power_hits = sum(
        fires(simulate(SimSpec(system="open_loop", n=500, seed=(200, r), b=1.0, c=0.5)), r)
        for r in range(100)
    )
    assert power_hits >= 90


@pytest.fixture(scope="module")
def benchmark_matrix():
    config = AnalysisConfig(order=2, detrend_cutoff=None)
    out = {}
    for k, setting in enumerate(("i", "ii", "iii", "iv")):
        pair = simulate(SimSpec(system="benchmark", n=500, seed=(0, k), setting=setting))
        out[setting] = analyze_pair(pair, config)
    return out


def test_acceptance_09_four_setting_benchmark_matrix(benchmark_matrix):
    results = benchmark_matrix

    def peak(setting, name):
        values = results[setting].profiles[name].values
        return GRID.values[np.argmax(values)], values

    # autonomy fires only with self-dynamics, at the target pole frequency
    for setting in ("ii", "iv"):
        freq, values = peak(setting, "ga")
        assert 0.08 <= freq <= 0.12, setting
        assert values.max() > 1.0
    for setting in ("i", "iii"):
        freq, values = peak(setting, "ga")
        assert not 0.08 <= freq <= 0.12, setting
        assert values.max() < 0.1

    # causality fires only with coupling, at the driver pole frequency
    for setting in ("iii", "iv"):
        freq, values = peak(setting, "gc")
        assert 0.28 <= freq <= 0.32, setting
        assert values.max() > 1.0
    for setting in ("i", "ii"):
        _, values = peak(setting, "gc")
        assert values.max() < 0.05, setting

    # isolation dips at the driver frequency whenever coupling is present
    for setting in ("iii", "iv"):
        gi = results[setting].profiles["gi"].values
        dip = GRID.values[np.argmin(gi)]
        assert 0.28 <= dip <= 0.32, setting
        assert gi.min() < 0.1
    for setting in ("i", "ii"):
        assert results[setting].profiles["gi"].values.min() > 1.0, setting


@pytest.mark.xfail(
    strict=True,
    reason="fitted noise coupling is amplified by the driver resonance, so "
    "the causality argmax sits near 0.3 even when true coupling is absent; "
    "absence shows in amplitude, not location",
)
def test_acceptance_09_causality_silent_without_coupling(benchmark_matrix):
    results = benchmark_matrix
    for setting in ("i", "ii"):
        values = results[setting].profiles["gc"].values
        freq = GRID.values[np.argmax(values)]
        assert abs(freq - 0.3) > 0.02, setting


def test_acceptance_10_default_config_converges_to_theory():
    # the default analysis of eight open-loop records: each time-domain measure and band
    # mean lies within 4 standard errors of its exact value. A default high-pass put a
    # double zero at f = 0: AIC ran to p_max, and A_y and the VLF ga fell 6 and 15 errors low
    spec = SimSpec(system="open_loop", n=5000, b=1.0, c=0.5)
    _, theory = theoretical_profiles(spec, GRID)
    results = [analyze_pair(simulate(replace(spec, seed=seed)), AnalysisConfig())
               for seed in range(8)]
    for measure in ("gc", "gi", "ga"):
        for scope in ("time", *DEFAULT_BANDS):
            values = np.array([r.report.value(measure, scope) for r in results])
            error = values.std(ddof=1) / np.sqrt(values.size)
            z = (values.mean() - theory.value(measure, scope)) / error
            assert abs(z) < 4, (measure, scope, z)
    assert max(r.order for r in results) < AnalysisConfig().p_max
