"""Benchmark system construction, simulation, and theoretical profiles."""
import re
import types
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gica.simulate
import gica.varmodel
from gica.simulate import (
    BENCHMARK_SETTINGS,
    BURN_IN,
    SimSpec,
    build_confounded_system,
    build_true_model,
    run_confounded_study,
    simulate,
    theoretical_profiles,
)
from gica.spectral import (
    DEFAULT_BANDS,
    FrequencyGrid,
    MeasureReport,
    assemble_profiles,
    measure_stack,
)
from gica.restricted import derive_restricted
from gica.varmodel import autocovariance_stack, fit_var

from conftest import full_band_integral

PROFILE_NAMES = {
    "psd_x",
    "psd_y",
    "psd_cross",
    "dc_yx",
    "dc_yy",
    "gc",
    "gi",
    "ga_shape",
    "ga",
}


def test_spec_rejects_unknown_system():
    with pytest.raises(ValueError, match="unknown system"):
        SimSpec(system="ring", n=10)


def test_spec_rejects_short_length():
    # a TimeSeriesPair needs two samples, so the spec takes the pair's bound
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"length must be >= 2, got {n}"):
            SimSpec(system="open_loop", n=n)


@pytest.mark.parametrize("name", ["b", "c", "d", "a"])
def test_spec_rejects_out_of_range_parameters(name):
    with pytest.raises(ValueError, match=f"parameter {name} must lie"):
        SimSpec(system="closed_loop" if name != "a" else "confounded", n=10, **{name: 1.5})
    with pytest.raises(ValueError, match=f"parameter {name} must lie"):
        SimSpec(system="closed_loop" if name != "a" else "confounded", n=10, **{name: -0.1})


@pytest.mark.parametrize(
    "system,name",
    [("open_loop", "d"), ("open_loop", "a"), ("closed_loop", "a"), ("confounded", "c"),
     ("confounded", "d"), ("benchmark", "b"), ("benchmark", "c"), ("benchmark", "d"),
     ("benchmark", "a")],
)
def test_spec_rejects_parameters_its_system_does_not_use(system, name):
    # a nonzero unused parameter must not be dropped or, for d on open_loop, build feedback
    setting = "i" if system == "benchmark" else None
    with pytest.raises(ValueError, match=f"the {system} system does not use {name}, got 0.5"):
        SimSpec(system=system, n=10, setting=setting, **{name: 0.5})
    assert getattr(SimSpec(system=system, n=10, setting=setting, **{name: 0.0}), name) == 0.0


def test_spec_benchmark_needs_setting():
    with pytest.raises(ValueError, match="benchmark requires setting"):
        SimSpec(system="benchmark", n=10)
    with pytest.raises(ValueError, match="benchmark requires setting"):
        SimSpec(system="benchmark", n=10, setting="v")


def test_spec_setting_rejected_elsewhere():
    with pytest.raises(ValueError, match="only valid for the benchmark"):
        SimSpec(system="open_loop", n=10, setting="i")


def test_spec_accepts_tuple_seed():
    spec = SimSpec(system="open_loop", n=10, seed=(4, 2))
    assert spec.seed == (4, 2)


def test_effective_bc_benchmark_matrix():
    assert BENCHMARK_SETTINGS == {
        "i": (0.0, 0.0),
        "ii": (1.0, 0.0),
        "iii": (0.0, 1.0),
        "iv": (1.0, 1.0),
    }
    for setting, expected in BENCHMARK_SETTINGS.items():
        assert SimSpec(system="benchmark", n=10, setting=setting).effective_bc() == expected
        with pytest.raises(ValueError, match="benchmark system does not use b"):
            SimSpec(system="benchmark", n=10, setting=setting, b=0.3, c=0.7)
    assert SimSpec(system="open_loop", n=10, b=0.3, c=0.7).effective_bc() == (0.3, 0.7)


def test_true_model_coefficients():
    # driver poles at modulus 0.9, frequency 0.3; target at 0.8 b, 0.1
    model = build_true_model(SimSpec(system="open_loop", n=10, b=1.0, c=0.5))
    assert_allclose(model.coeffs[0][0, 0], -0.5562305898749054, atol=1e-15)
    assert_allclose(model.coeffs[1][0, 0], -0.81, atol=1e-15)
    assert_allclose(model.coeffs[0][1, 1], 1.294427190999916, atol=1e-15)
    assert_allclose(model.coeffs[1][1, 1], -0.64, atol=1e-15)
    assert model.coeffs[0][1, 0] == -0.5
    assert model.coeffs[0][0, 1] == 0.0
    assert model.coeffs[1][0, 1] == model.coeffs[1][1, 0] == 0.0
    assert_allclose(model.sigma, np.eye(2), atol=0)


def test_true_model_scales_target_modulus():
    model = build_true_model(SimSpec(system="open_loop", n=10, b=0.5))
    assert_allclose(model.coeffs[0][1, 1], 0.6472135954999579, atol=1e-15)
    assert_allclose(model.coeffs[1][1, 1], -0.16, atol=1e-15)
    flat = build_true_model(SimSpec(system="open_loop", n=10, b=0.0))
    assert flat.coeffs[0][1, 1] == 0.0
    assert flat.coeffs[1][1, 1] == 0.0


def test_closed_loop_without_feedback_matches_open_loop():
    open_spec = SimSpec(system="open_loop", n=10, b=0.7, c=0.4)
    closed_spec = SimSpec(system="closed_loop", n=10, b=0.7, c=0.4, d=0.0)
    assert_allclose(
        build_true_model(open_spec).coeffs,
        build_true_model(closed_spec).coeffs,
        rtol=0,
        atol=0,
    )


def test_closed_loop_feedback_entry():
    model = build_true_model(SimSpec(system="closed_loop", n=10, b=1.0, c=0.5, d=0.8))
    assert model.coeffs[0][0, 1] == -0.8


def test_benchmark_model_matches_open_loop_equivalent():
    bench = build_true_model(SimSpec(system="benchmark", n=10, setting="iii"))
    plain = build_true_model(SimSpec(system="open_loop", n=10, b=0.0, c=1.0))
    assert_allclose(bench.coeffs, plain.coeffs, rtol=0, atol=0)


def test_confounded_has_no_bivariate_model():
    with pytest.raises(ValueError, match="not a finite"):
        build_true_model(SimSpec(system="confounded", n=10, a=0.8))


def test_confounded_system_shape_and_couplings():
    coeffs, sigma = build_confounded_system(0.6, 1.0)
    assert coeffs.shape == (2, 3, 3)
    assert_allclose(sigma, np.eye(3), atol=0)
    assert coeffs[0][1, 0] == -0.8
    assert coeffs[0][1, 2] == -0.6
    assert coeffs[0][0, 1] == coeffs[0][0, 2] == 0.0
    assert coeffs[0][2, 0] == coeffs[0][2, 1] == 0.0
    assert_allclose(np.diag(coeffs[1]), [-0.81, -0.64, -0.64], atol=1e-15)


def test_confounded_system_rejects_explosive_target():
    # target modulus 0.8 b passes 1 once b > 1.25; the pole builder
    # rejects it before the companion check can run
    with pytest.raises(ValueError, match="pole modulus"):
        build_confounded_system(0.0, 2.0)


def test_simulate_is_seed_deterministic():
    spec = SimSpec(system="open_loop", n=200, seed=5, b=1.0, c=0.5)
    first = simulate(spec)
    second = simulate(spec)
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.y, second.y)
    other = simulate(SimSpec(system="open_loop", n=200, seed=6, b=1.0, c=0.5))
    assert not np.array_equal(first.x, other.x)


def test_simulate_tuple_seed_deterministic():
    spec = SimSpec(system="confounded", n=100, seed=(3, 1), a=0.8)
    first = simulate(spec)
    second = simulate(spec)
    assert np.array_equal(first.y, second.y)


def test_simulate_length_and_rate():
    for system, kwargs in [
        ("open_loop", {"c": 0.5}),
        ("closed_loop", {"c": 0.5, "d": 1.0}),
        ("confounded", {"a": 0.5}),
    ]:
        pair = simulate(SimSpec(system=system, n=321, seed=1, b=1.0, **kwargs))
        assert pair.n == 321
        assert pair.fs == 1.0
        assert np.isfinite(pair.x).all() and np.isfinite(pair.y).all()


def assert_matches_recursion(spec, var_loop):
    pair = simulate(spec)
    noise = np.random.default_rng(spec.seed).standard_normal((BURN_IN + spec.n, 2))
    x2, y2 = var_loop(build_true_model(spec).coeffs, noise).T
    assert_allclose(pair.x, x2[BURN_IN:], rtol=0, atol=1e-12)
    assert_allclose(pair.y, y2[BURN_IN:], rtol=0, atol=1e-12)


def test_filter_path_matches_direct_recursion(var_loop_reference):
    # the filter-based generator and the generic recursion must agree
    spec = SimSpec(system="open_loop", n=500, seed=7, b=1.0, c=0.5)
    assert_matches_recursion(spec, var_loop_reference)


def test_closed_loop_matches_direct_recursion(var_loop_reference):
    spec = SimSpec(system="closed_loop", n=500, seed=7, b=1.0, c=0.5, d=1.0)
    assert_matches_recursion(spec, var_loop_reference)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.8, 0.0), (0.5, 1.0)])
def test_confounded_matches_three_process_recursion(var_loop_reference, a, b):
    # simulate must run exactly the three-process system build_confounded_system gates
    spec = SimSpec(system="confounded", n=400, seed=7, a=a, b=b)
    pair = simulate(spec)
    noise = np.random.default_rng(spec.seed).standard_normal((BURN_IN + spec.n, 3))
    coeffs, sigma = build_confounded_system(a, b)
    assert np.array_equal(sigma, np.eye(3))
    x3, y3, _ = var_loop_reference(coeffs, noise).T
    assert_allclose(pair.x, x3[BURN_IN:], rtol=0, atol=1e-12)
    assert_allclose(pair.y, y3[BURN_IN:], rtol=0, atol=1e-12)


def test_closed_loop_realization_refits_to_true_model():
    spec = SimSpec(system="closed_loop", n=30000, seed=11, b=1.0, c=0.5, d=1.0)
    pair = simulate(spec)
    fitted = fit_var(pair.x, pair.y, 2)
    true = build_true_model(spec)
    assert np.abs(fitted.coeffs - true.coeffs).max() < 0.02
    assert np.abs(fitted.sigma - true.sigma).max() < 0.02


def test_sample_variance_matches_model_variance():
    spec = SimSpec(system="open_loop", n=100000, seed=13, b=1.0, c=0.5)
    pair = simulate(spec)
    model = build_true_model(spec)
    gamma0 = autocovariance_stack(model.coeffs[None], model.sigma[None], 0)[0, 0]
    assert abs(pair.x.var() - gamma0[0, 0]) / gamma0[0, 0] < 0.05
    assert abs(pair.y.var() - gamma0[1, 1]) / gamma0[1, 1] < 0.05


def test_confounder_touches_only_target():
    base = SimSpec(system="confounded", n=300, seed=9, a=0.0)
    loaded = SimSpec(system="confounded", n=300, seed=9, a=0.8)
    off = simulate(base)
    on = simulate(loaded)
    assert np.array_equal(off.x, on.x)
    assert not np.array_equal(off.y, on.y)


def test_theoretical_profiles_contents():
    spec = SimSpec(system="open_loop", n=10, b=1.0, c=0.5)
    profiles, report = theoretical_profiles(spec, FrequencyGrid(513))
    assert set(profiles) == PROFILE_NAMES
    assert isinstance(report, MeasureReport)
    assert set(report.bands) == {"VLF", "LF"}
    assert report.warnings == []
    model = build_true_model(spec)
    _, ar_var, _, x_var = derive_restricted(model.coeffs[None], model.sigma[None], 20)
    f_xy = np.log(ar_var[0] / model.sigma_y)
    a_y = np.log(x_var[0] / model.sigma_y)
    assert_allclose(report.f_xy, f_xy, rtol=0, atol=1e-12)
    assert_allclose(report.f_y, full_band_integral(profiles["gi"]), rtol=0, atol=1e-12)
    assert_allclose(report.a_y, a_y, rtol=0, atol=1e-12)


def test_theoretical_profiles_report_short_truncation():
    spec = SimSpec(system="open_loop", n=10, b=1.0, c=0.5)
    _, report = theoretical_profiles(spec, FrequencyGrid(257), q=3)
    assert len(report.warnings) == 2
    assert all("consider a larger q" in w for w in report.warnings)


def test_simulate_submodule_is_not_shadowed():
    import gica.simulate as module

    assert isinstance(module, types.ModuleType)


def test_theoretical_profiles_reject_confounded():
    with pytest.raises(ValueError, match="not a finite"):
        theoretical_profiles(SimSpec(system="confounded", n=10, a=0.5))


def test_sweep_records_values_and_trends():
    # a sweep is one theoretical_profiles call per value
    base = SimSpec(system="open_loop", n=10, b=1.0, c=0.0)
    rows = [
        (c, *theoretical_profiles(replace(base, c=c), FrequencyGrid(257)))
        for c in [0.0, 0.5, 1.0]
    ]
    assert [value for value, _, _ in rows] == [0.0, 0.5, 1.0]
    causality = [report.f_xy for _, _, report in rows]
    assert causality[0] < causality[1] < causality[2]
    autonomy = [report.a_y for _, _, report in rows]
    assert max(autonomy) - min(autonomy) < 1e-3


def test_confounded_study_deterministic_and_clean():
    grid = FrequencyGrid(257)
    profiles, failures = run_confounded_study(
        0.8, 0.0, n_runs=3, n=400, seed=5, grid=grid, p_max=8
    )
    assert failures == 0
    assert set(profiles) == {"gc", "gi", "ga"}
    for profile in profiles.values():
        assert np.isfinite(profile.values).all()
    again, _ = run_confounded_study(0.8, 0.0, n_runs=3, n=400, seed=5, grid=grid, p_max=8)
    for name in profiles:
        assert np.array_equal(profiles[name].values, again[name].values)


@pytest.mark.parametrize("seed", range(6))
def test_confounded_study_matches_assemble_profiles_path(seed):
    # the study's stacked path gives bit-identical profiles to one analysis
    # model at a time through assemble_profiles
    grid = FrequencyGrid(257)
    profiles, failures = run_confounded_study(0.8, 0.0, n_runs=3, n=500, seed=seed, grid=grid)
    assert failures == 0
    sums = dict.fromkeys(profiles, 0.0)
    for run in range(3):
        pair = simulate(SimSpec(system="confounded", n=500, seed=(seed, run), a=0.8))
        model = fit_var(pair.x, pair.y, "aic", 14).diagonalized()
        reference = assemble_profiles(model, 20, grid, {})[0]
        for name in sums:
            sums[name] = sums[name] + reference[name].values
    for name in sums:
        assert np.array_equal(profiles[name].values, sums[name] / 3)


@pytest.mark.parametrize("n_runs", [3, 13])  # 13 runs span two simulation blocks
def test_confounded_study_gates_its_system_once(monkeypatch, n_runs):
    # the three-process system once per study, then each run's model and mixed model
    gated, pairs = [], []
    stable, fit = gica.varmodel.schur_cohn_stable, gica.varmodel.fit_var_aic_stack

    def counting(taps):
        gated.append(int(np.prod(np.shape(taps)[:-1])))
        return stable(taps)

    monkeypatch.setattr(gica.varmodel, "schur_cohn_stable", counting)
    run_confounded_study(0.8, 0.5, n_runs=n_runs, n=300, seed=7, grid=FrequencyGrid(129))
    assert sum(gated) == 1 + 2 * n_runs
    monkeypatch.undo()

    # each row of each stacked scan is simulate()'s record for its (seed, run) stream
    def recording(x, y, *args):
        pairs.extend(zip(x, y))
        return fit(x, y, *args)

    monkeypatch.setattr(gica.simulate, "fit_var_aic_stack", recording)
    run_confounded_study(0.8, 0.5, n_runs=n_runs, n=300, seed=7, grid=FrequencyGrid(129))
    assert len(pairs) == n_runs
    for run, (x, y) in enumerate(pairs):
        alone = simulate(SimSpec("confounded", 300, seed=(7, run), a=0.8, b=0.5))
        assert np.array_equal(x, alone.x) and np.array_equal(y, alone.y)


@pytest.mark.parametrize("n, seed", [(40, 1), (40, 2), (6, 0)])
def test_confounded_study_counts_failed_runs_as_a_loop_would(n, seed):
    # 13 runs span two blocks; at n = 40 unstable fits fail in both, at n = 6 no order fits
    grid = FrequencyGrid(129)
    failed = []
    for run in range(13):
        pair = simulate(SimSpec("confounded", n, seed=(seed, run), a=0.8))
        try:
            model = fit_var(pair.x, pair.y, "aic", 14)
            measure_stack(model.coeffs[None], model.sigma[None], 20, grid, {})
        except ValueError:
            failed.append(run)
    assert min(failed) < 10 <= max(failed)
    with pytest.raises(RuntimeError, match=f"aborted: {len(failed)}/13 runs failed"):
        run_confounded_study(0.8, 0.0, n_runs=13, n=n, seed=seed, grid=grid)


@pytest.mark.parametrize("n, seed, reason", [
    (6, 0, "run 0: no order could be fitted; series too short or degenerate"),
    (40, 1, "run 1: model is unstable"),
])
def test_confounded_study_abort_names_its_first_failed_run(n, seed, reason):
    with pytest.raises(RuntimeError, match=f"runs failed the fit gates; first failure, {reason}"):
        run_confounded_study(0.8, 0.0, n_runs=13, n=n, seed=seed, grid=FrequencyGrid(129))


@pytest.mark.parametrize("n, seed, n_runs", [(80, 1, 20), (40, 1, 13), (40, 2, 13)])
def test_grouped_study_is_a_loop_of_single_runs(n, seed, n_runs):
    # a block's models are measured once per order; a run that fails in a shared-order group
    # fails alone, and the sum runs in run order as a loop of fit_var and assemble_profiles
    grid = FrequencyGrid(129)
    sums, orders, errors = dict.fromkeys(("gc", "gi", "ga"), 0.0), [], {}
    for run in range(n_runs):
        pair = simulate(SimSpec("confounded", n, seed=(seed, run), a=0.8))
        try:
            model = fit_var(pair.x, pair.y, "aic", 14)
            orders.append(model.p)
            profiles = assemble_profiles(model.diagonalized(), 20, grid, {})[0]
        except ValueError as err:
            errors[run] = err
            continue
        for name in sums:
            sums[name] = sums[name] + profiles[name].values
    first = min(errors)
    assert len(set(orders[:10])) >= 2
    assert orders.count(orders[first]) > 1  # the first failure shares its order with a run
    if len(errors) > 0.05 * n_runs:
        message = (f"aborted: {len(errors)}/{n_runs} runs failed the fit gates; "
                   f"first failure, run {first}: {errors[first]}")
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_confounded_study(0.8, 0.0, n_runs=n_runs, n=n, seed=seed, grid=grid)
        return
    profiles, failures = run_confounded_study(0.8, 0.0, n_runs=n_runs, n=n, seed=seed, grid=grid)
    assert failures == len(errors)
    for name in sums:
        assert np.array_equal(profiles[name].values, sums[name] / (n_runs - failures))


def test_confounded_study_rejects_empty_run_count():
    with pytest.raises(ValueError, match="n_runs must be >= 1"):
        run_confounded_study(0.5, 0.0, n_runs=0)


def test_confounded_study_rejects_q_below_one_before_simulating(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a settings error must not simulate")

    monkeypatch.setattr(gica.simulate, "_realizations", forbidden)
    with pytest.raises(ValueError, match="^q must be >= 1, got 0$"):
        run_confounded_study(0.8, 0.0, n_runs=3, q=0)


def test_confounded_study_rejects_p_max_below_one_before_simulating(monkeypatch):
    # a settings error, not a failure of every run, and found before the first block
    def forbidden(*args, **kwargs):
        raise AssertionError("a settings error must not simulate")

    monkeypatch.setattr(gica.simulate, "_realizations", forbidden)
    with pytest.raises(ValueError, match="^p_max must be >= 1, got 0$"):
        run_confounded_study(0.8, 0.0, n_runs=3, p_max=0)


def test_estimated_profiles_approach_theory():
    # long-sample fits should land close to exact spectra in sup norm
    grid = FrequencyGrid(513)

    def measures(model):
        return assemble_profiles(model, 20, grid, DEFAULT_BANDS)[:2]

    true_profiles, true_report = measures(
        build_true_model(SimSpec(system="open_loop", n=10, b=1.0, c=0.5))
    )
    gc_true = true_profiles["gc"].values
    ga_true = true_profiles["ga"].values
    gc_err, ga_err, f_xy_hat, a_y_hat = [], [], [], []
    for s in range(20):
        pair = simulate(SimSpec(system="open_loop", n=10000, seed=(300, s), b=1.0, c=0.5))
        profiles, report = measures(fit_var(pair.x, pair.y, 2).diagonalized())
        gc_err.append(np.abs(profiles["gc"].values - gc_true).max())
        ga_err.append(np.abs(profiles["ga"].values - ga_true).max())
        f_xy_hat.append(report.f_xy)
        a_y_hat.append(report.a_y)
    assert np.mean(gc_err) < 0.1
    assert np.mean(ga_err) < 0.1
    assert abs(np.mean(f_xy_hat) - true_report.f_xy) < 0.02
    assert abs(np.mean(a_y_hat) - true_report.a_y) < 0.02
