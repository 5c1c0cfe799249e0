"""Full analysis pipeline and the command-line interface."""
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gica.cli
import gica.pipeline
import gica.spectral
import gica.varmodel
from gica.cli import main
from gica.pipeline import AnalysisConfig, AnalysisResult, analyze_pair
from gica.restricted import derive_restricted
from gica.simulate import SimSpec, build_true_model, simulate
from gica.spectral import MeasureReport
from gica.timeseries import TimeSeriesPair
from gica.varmodel import UnstableModelError

PROFILE_NAMES = (
    "dc_yx",
    "dc_yy",
    "ga",
    "ga_shape",
    "gc",
    "gi",
    "psd_cross",
    "psd_x",
    "psd_y",
)


@pytest.fixture(scope="module")
def sim_pair():
    return simulate(SimSpec(system="open_loop", n=600, seed=3, b=1.0, c=0.5))


def explosive_pair():
    # driver x_t = 1.05 x_{t-1} + u_t; an order-1 fit lands at radius 1.0494
    rng = np.random.default_rng(2)
    u = rng.standard_normal(200)
    x = np.zeros(200)
    for t in range(1, 200):
        x[t] = 1.05 * x[t - 1] + u[t]
    return TimeSeriesPair(x, rng.standard_normal(200), 1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="order must be an integer or 'aic'"):
        AnalysisConfig(order="bic")
    with pytest.raises(ValueError, match="order must be >= 1"):
        AnalysisConfig(order=0)
    with pytest.raises(ValueError, match="q must be >= 1"):
        AnalysisConfig(q=0)
    with pytest.raises(ValueError, match="n_surrogates must be >= 0"):
        AnalysisConfig(n_surrogates=-1)
    with pytest.raises(ValueError, match="unknown hypothesis"):
        AnalysisConfig(hypotheses=("h1", "h9"))


def test_config_checks_surrogate_settings():
    # the surrogate settings fail when the config is built, not after the fit
    with pytest.raises(ValueError, match="at least 2 surrogates"):
        AnalysisConfig(n_surrogates=1)
    with pytest.raises(ValueError, match="alpha must lie"):
        AnalysisConfig(n_surrogates=5, alpha=2.0)
    AnalysisConfig(n_surrogates=0, alpha=2.0)  # no surrogates, nothing to check


@pytest.mark.parametrize("order", [2.7, 2.0, True, np.float64(3.0), "2"])
def test_config_rejects_an_order_that_is_not_an_integer(order):
    # int() would fit 2.7 at order 2 and True at order 1 without a word
    with pytest.raises(ValueError, match=re.escape(f"got {order!r}")):
        AnalysisConfig(order=order)


@pytest.mark.parametrize("order", [1, np.int64(2), np.int32(3), "aic"])
def test_config_takes_integer_orders_and_aic(order):
    assert AnalysisConfig(order=order).order == order


def test_config_rejects_a_band_named_time():
    # "time" keys the time-domain scope of the report and of the surrogate values
    with pytest.raises(ValueError, match="may not be named 'time'"):
        AnalysisConfig(bands={"time": (0.1, 0.2), "LF": (0.07, 0.2)})


def ar1(seed):
    # an AR(1) of coefficient 0.5, 1001 samples
    e = np.random.default_rng(seed).standard_normal(1001)
    x = np.zeros(1001)
    for t in range(1, 1001):
        x[t] = 0.5 * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize(
    "seed, target", [(0, "zero-led"), (1, "zero-led"), (0, "shifted")]
)
def test_lagged_copy_target_raises_before_restricted_models(monkeypatch, seed, target):
    # y_n = x_{n-1}: after mean removal order 1 leaves the means' difference
    # as residual, and order 2 fits exactly, with a rounding-level residual
    def forbidden(*args, **kwargs):
        raise AssertionError("a restricted model was formed")

    monkeypatch.setattr(gica.spectral, "derive_restricted", forbidden)
    x = ar1(seed)
    y = np.r_[0.0, x[1:-1]] if target == "zero-led" else x[:-1]
    with pytest.raises(ValueError, match="at order 2 a channel is an exact function of the past"):
        analyze_pair(TimeSeriesPair(x[1:], y, 1.0), AnalysisConfig(detrend_cutoff=None))


def test_exact_order_one_target_names_the_cause():
    # a cyclic shift keeps the mean, so order 1 already fits y_n = x_{n-1} exactly
    x = ar1(0)
    pair = TimeSeriesPair(x, np.roll(x, 1), 1.0)
    with pytest.raises(ValueError, match="target is an exact function of the past at order 1"):
        analyze_pair(pair, AnalysisConfig(detrend_cutoff=None, order=1))
    with pytest.raises(ValueError, match="at order 1 a channel is an exact function"):
        analyze_pair(pair, AnalysisConfig(detrend_cutoff=None))


def test_near_exact_target_warns():
    # y_n = x_{n-1} at order 1: mean removal leaves only the means' difference as residual
    x = ar1(0)
    pair = TimeSeriesPair(x[1:], x[:-1], 1.0)
    result = analyze_pair(pair, AnalysisConfig(detrend_cutoff=None, order=1, grid_points=129))
    assert result.model.sigma_y / np.mean(result.pair.y**2) == pytest.approx(9.0e-7, rel=0.01)
    near = [w for w in result.report.warnings if "near-exact" in w]
    assert len(near) == 1
    assert near[0].startswith("the target's residual variance is 9e-07 of its mean square")


def test_analyze_pair_returns_full_result(sim_pair):
    config = AnalysisConfig(detrend_cutoff=None, order=2, grid_points=257)
    result = analyze_pair(sim_pair, config)
    assert isinstance(result, AnalysisResult)
    assert result.order == 2
    assert result.model.sigma[0, 1] == 0.0
    assert result.rest_ar.kind == "ar_on_y"
    assert result.rest_x.kind == "x_on_y"
    assert tuple(sorted(result.profiles)) == PROFILE_NAMES
    assert result.report.f_xy > 0.1
    assert result.report.a_y > 0.5
    assert abs(result.pair.x.mean()) < 1e-10


def test_analyze_pair_selects_order(sim_pair):
    config = AnalysisConfig(detrend_cutoff=None, order="aic", p_max=6, grid_points=257)
    result = analyze_pair(sim_pair, config)
    assert result.order == 2
    assert result.report.warnings == []


def test_analyze_pair_fits_one_model(sim_pair, monkeypatch):
    # the AIC scan forms the one R factor; the chosen order's model is read off it
    factored = []
    r_factor = gica.varmodel._r_factor

    def counting(z, *args):
        factored.append(z.shape)
        return r_factor(z, *args)

    monkeypatch.setattr(gica.varmodel, "_r_factor", counting)
    config = AnalysisConfig(detrend_cutoff=0.0156, order="aic", p_max=14, grid_points=257)
    analyze_pair(sim_pair, config)
    assert len(factored) == 1


def test_aic_at_p_max_warns():
    # an AR(3) driver: AIC keeps falling up to order 3, so a ceiling of 2 binds
    rng = np.random.default_rng(8)
    u = rng.standard_normal(2100)
    x = np.zeros(2100)
    for t in range(3, 2100):
        x[t] = 0.2 * x[t - 1] + 0.1 * x[t - 2] + 0.6 * x[t - 3] + u[t]
    y = np.roll(x, 1) * 0.5 + rng.standard_normal(2100)
    pair = TimeSeriesPair(x[100:], y[100:], 1.0)
    config = AnalysisConfig(detrend_cutoff=None, order="aic", p_max=2, grid_points=257)
    result = analyze_pair(pair, config)
    assert result.order == 2
    assert any("order 2 = p_max" in w for w in result.report.warnings)
    unbounded = analyze_pair(pair, AnalysisConfig(detrend_cutoff=None, p_max=6, grid_points=257))
    assert unbounded.order == 3
    assert not any("p_max" in w for w in unbounded.report.warnings)


def test_each_model_is_gated_once(sim_pair, monkeypatch):
    # one analysis with 10 H1 surrogates: the fitted model and its mixed
    # model, the surrogate generator, and each surrogate's model and mixed
    # model pass the Schur-Cohn gate exactly once
    gated = []
    stable = gica.varmodel.schur_cohn_stable

    def counting(taps):
        gated.append(int(np.prod(np.shape(taps)[:-1])))
        return stable(taps)

    monkeypatch.setattr(gica.varmodel, "schur_cohn_stable", counting)
    config = AnalysisConfig(
        detrend_cutoff=None, order=2, grid_points=257, n_surrogates=10, hypotheses=("h1",)
    )
    analyze_pair(sim_pair, config)
    assert sum(gated) == 1 + 1 + 1 + 10 + 10


def test_long_memory_model_warns_about_truncation(sim_pair):
    config = AnalysisConfig(detrend_cutoff=None, order=14, grid_points=257)
    result = analyze_pair(sim_pair, config)
    assert any("residual variance shifts" in w for w in result.report.warnings)


def test_correlated_innovations_warn():
    rng = np.random.default_rng(4)
    chol = np.linalg.cholesky(np.array([[1.0, 0.9], [0.9, 1.0]]))
    e = rng.standard_normal((800, 2)) @ chol.T
    x = np.zeros(800)
    y = np.zeros(800)
    for t in range(1, 800):
        x[t] = 0.5 * x[t - 1] + e[t, 0]
        y[t] = 0.3 * y[t - 1] + e[t, 1]
    pair = TimeSeriesPair(x, y, 1.0)
    config = AnalysisConfig(detrend_cutoff=None, order=1, grid_points=129)
    result = analyze_pair(pair, config)
    assert any("residual cross-correlation" in w for w in result.report.warnings)


def test_truncation_check_flags_short_lag_budget():
    model = build_true_model(SimSpec(system="open_loop", n=10, b=1.0, c=0.5))
    coeffs, sigma = model.coeffs[None], model.sigma[None]
    warnings: list[str] = []
    derive_restricted(coeffs, sigma, 3, warnings)
    assert len(warnings) == 2
    assert all("consider a larger q" in w for w in warnings)
    clean: list[str] = []
    derive_restricted(coeffs, sigma, 30, clean)
    assert clean == []


def test_significance_block_structure():
    pair = simulate(SimSpec(system="open_loop", n=400, seed=3, b=1.0, c=0.5))
    config = AnalysisConfig(
        detrend_cutoff=None,
        order=2,
        q=10,
        grid_points=257,
        n_surrogates=8,
        seed=2,
    )
    result = analyze_pair(pair, config)
    sig = result.report.significance
    assert set(sig) == {"n_surrogates", "alpha", "seed", "h1", "h2"}
    assert sig["n_surrogates"] == 8 and sig["seed"] == 2
    assert set(sig["h1"]) == {"gc", "gi"}
    assert set(sig["h2"]) == {"ga"}
    for measure, scopes in [("gc", sig["h1"]["gc"]), ("ga", sig["h2"]["ga"])]:
        assert set(scopes) == {"time", "VLF", "LF"}
        verdict = scopes["time"]
        assert verdict["measure"] == measure
        assert set(verdict) == {
            "measure",
            "scope",
            "original",
            "thresholds",
            "tail",
            "significant",
        }
    payload = json.dumps(result.report.to_dict())
    assert "significance" in payload


def test_report_serialization_keys(sim_pair):
    config = AnalysisConfig(detrend_cutoff=None, order=2, grid_points=257)
    report = analyze_pair(sim_pair, config).report.to_dict()
    assert set(report) == {"schema", "F_xy", "F_y", "A_y", "bands", "warnings"}
    assert report["schema"] == 1
    assert set(report["bands"]) == {"VLF", "LF"}


def test_analysis_rejects_unstable_fit():
    config = AnalysisConfig(order=1, detrend_cutoff=None)
    with pytest.raises(UnstableModelError, match="model is unstable"):
        analyze_pair(explosive_pair(), config)


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_simulate_then_analyze(tmp_path, capsys):
    csv = tmp_path / "pair.csv"
    rc = run_cli(
        ["simulate", "--system", "open_loop", "--b", "1", "--c", "0.5",
         "--n", "400", "--seed", "3", "--out", csv]
    )
    assert rc == 0
    assert "wrote 400 samples" in capsys.readouterr().out
    outdir = tmp_path / "analysis"
    rc = run_cli(
        ["analyze", "--input", csv, "--fs", "1", "--order", "2",
         "--detrend-cutoff", "off", "--grid-points", "257", "--out", outdir]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "model order: 2" in out
    assert "F_xy" in out and "band means" in out
    for name in ("report.json", "model.json", "restricted_ar.json", "restricted_x.json"):
        assert (outdir / name).exists()
    for name in PROFILE_NAMES:
        path = outdir / f"profile_{name}.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency_hz,value"
        assert len(lines) == 258
    report = json.loads((outdir / "report.json").read_text())
    assert report["schema"] == 1


def test_cli_analyze_is_deterministic(tmp_path, capsys):
    csv = tmp_path / "pair.csv"
    run_cli(["simulate", "--system", "open_loop", "--b", "1", "--c", "0.5",
             "--n", "300", "--seed", "8", "--out", csv])
    args = ["analyze", "--input", csv, "--fs", "1", "--order", "2",
            "--detrend-cutoff", "off", "--grid-points", "129",
            "--surrogates", "5", "--seed", "4"]
    assert run_cli(args + ["--out", tmp_path / "first"]) == 0
    assert run_cli(args + ["--out", tmp_path / "second"]) == 0
    capsys.readouterr()
    first = (tmp_path / "first" / "report.json").read_bytes()
    second = (tmp_path / "second" / "report.json").read_bytes()
    assert first == second


def test_cli_plot_data_layout(tmp_path, capsys):
    csv = tmp_path / "pair.csv"
    run_cli(["simulate", "--system", "open_loop", "--c", "0.5", "--b", "1",
             "--n", "300", "--seed", "2", "--out", csv])
    outdir = tmp_path / "plots"
    rc = run_cli(["analyze", "--input", csv, "--fs", "1", "--order", "2",
                  "--detrend-cutoff", "off", "--grid-points", "129",
                  "--plot-data", "--out", outdir])
    capsys.readouterr()
    assert rc == 0
    lines = (outdir / "plot_data.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["frequency_hz", *PROFILE_NAMES]
    assert len(lines) == 130


def test_cli_custom_band(tmp_path, capsys):
    csv = tmp_path / "pair.csv"
    run_cli(["simulate", "--system", "open_loop", "--c", "0.5", "--b", "1",
             "--n", "300", "--seed", "2", "--out", csv])
    outdir = tmp_path / "banded"
    rc = run_cli(["analyze", "--input", csv, "--fs", "1", "--order", "2",
                  "--detrend-cutoff", "off", "--grid-points", "129",
                  "--band", "MID:0.1-0.2", "--out", outdir])
    capsys.readouterr()
    assert rc == 0
    report = json.loads((outdir / "report.json").read_text())
    assert set(report["bands"]) == {"MID"}
    with pytest.raises(SystemExit, match="NAME:LO-HI"):
        run_cli(["analyze", "--input", csv, "--fs", "1", "--band", "junk",
                 "--out", outdir])


def test_cli_theoretical_point(tmp_path, capsys):
    outdir = tmp_path / "theory"
    rc = run_cli(["theoretical", "--system", "open_loop", "--b", "1",
                  "--c", "0.5", "--out", outdir])
    capsys.readouterr()
    assert rc == 0
    assert (outdir / "true_model.json").exists()
    report = json.loads((outdir / "report.json").read_text())
    assert_allclose(report["F_xy"], 0.398429944914943, rtol=0, atol=1e-12)
    assert_allclose(report["A_y"], 1.50239542377179, rtol=0, atol=1e-11)


def test_cli_theoretical_sweep(tmp_path, capsys):
    outdir = tmp_path / "sweep"
    rc = run_cli(["theoretical", "--system", "open_loop", "--b", "1",
                  "--c", "0.25,0.5", "--out", outdir])
    out = capsys.readouterr().out
    assert rc == 0
    assert "c = 0.25" in out and "c = 0.5" in out
    assert (outdir / "c_0.25" / "report.json").exists()
    assert (outdir / "c_0.5" / "report.json").exists()
    lines = (outdir / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,F_xy,F_y,A_y"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["0.25", "0.5"]
    assert_allclose(float(rows[0][2]), 0.147409992749677, atol=1e-12)
    assert_allclose(float(rows[0][3]), 2.91994159625931, atol=1e-11)
    assert_allclose(float(rows[1][2]), 0.398429944914943, atol=1e-12)
    assert_allclose(float(rows[1][4]), 1.50239542377179, atol=1e-11)


def test_cli_theoretical_rejects_multi_sweep(tmp_path):
    with pytest.raises(SystemExit, match="at most one"):
        run_cli(["theoretical", "--system", "open_loop", "--b", "0,1",
                 "--c", "0.25,0.5", "--out", tmp_path / "bad"])


def test_cli_theoretical_rejects_confounded(tmp_path):
    with pytest.raises(SystemExit, match="confounded-study"):
        run_cli(["theoretical", "--system", "confounded", "--out", tmp_path / "x"])


def test_cli_confounded_study(tmp_path, capsys):
    outdir = tmp_path / "study"
    rc = run_cli(["confounded-study", "--a", "0.8", "--runs", "3", "--n", "300",
                  "--seed", "5", "--grid-points", "129", "--p-max", "8",
                  "--out", outdir])
    out = capsys.readouterr().out
    assert rc == 0
    assert "averaged 3 runs (0 failed)" in out
    for name in ("gc", "gi", "ga"):
        assert (outdir / f"profile_{name}.csv").exists()
    study = json.loads((outdir / "study.json").read_text())
    assert study["failed_runs"] == 0
    assert study["a"] == 0.8 and study["runs"] == 3


def test_cli_error_exits(tmp_path, capsys):
    rc = run_cli(["analyze", "--input", tmp_path / "missing.csv", "--fs", "1",
                  "--out", tmp_path / "o"])
    assert rc == 1
    assert "error: input file not found" in capsys.readouterr().err
    rc = run_cli(["simulate", "--system", "open_loop", "--b", "1.5", "--n", "10",
                  "--out", tmp_path / "p.csv"])
    assert rc == 1
    assert "parameter b must lie" in capsys.readouterr().err
    rc = run_cli(["simulate", "--system", "benchmark", "--n", "10",
                  "--out", tmp_path / "q.csv"])
    assert rc == 1
    assert "benchmark requires setting" in capsys.readouterr().err


def test_cli_rejects_one_surrogate_before_fitting(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("fit_var ran before the surrogate settings were checked")

    monkeypatch.setattr(gica.pipeline, "fit_var", forbidden)
    monkeypatch.setattr(gica.varmodel, "fit_var", forbidden)
    csv = tmp_path / "pair.csv"
    assert run_cli(["simulate", "--system", "open_loop", "--b", "1", "--c", "0.5",
                    "--n", "300", "--seed", "3", "--out", csv]) == 0
    rc = run_cli(["analyze", "--input", csv, "--fs", "1", "--surrogates", "1",
                  "--out", tmp_path / "o"])
    assert rc == 1
    assert "error: need at least 2 surrogates, got 1" in capsys.readouterr().err


def test_cli_analyze_rejects_unstable_fit(tmp_path, capsys):
    pair = explosive_pair()
    csv = tmp_path / "explosive.csv"
    np.savetxt(csv, np.column_stack([pair.x, pair.y]), delimiter=",", fmt="%.17g")
    rc = run_cli(["analyze", "--input", csv, "--fs", "1", "--order", "1",
                  "--detrend-cutoff", "off", "--out", tmp_path / "o"])
    assert rc == 1
    assert "error: model is unstable" in capsys.readouterr().err


def test_cli_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GICA_SEED", "7")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    explicit = tmp_path / "c.csv"
    run_cli(["simulate", "--system", "open_loop", "--c", "0.5", "--b", "1",
             "--n", "50", "--out", first])
    run_cli(["simulate", "--system", "open_loop", "--c", "0.5", "--b", "1",
             "--n", "50", "--out", second])
    monkeypatch.delenv("GICA_SEED")
    run_cli(["simulate", "--system", "open_loop", "--c", "0.5", "--b", "1",
             "--n", "50", "--seed", "7", "--out", explicit])
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == explicit.read_bytes()
    monkeypatch.setenv("GICA_SEED", "not-a-number")
    with pytest.raises(SystemExit, match="must be an integer"):
        run_cli(["simulate", "--system", "open_loop", "--n", "10",
                 "--out", tmp_path / "d.csv"])


def test_cli_summary_separates_infinite_cells(tmp_path, capsys):
    # uncoupled: every band mean of gi is inf, wider than its 12-character column
    rc = run_cli(["theoretical", "--system", "open_loop", "--c", "0",
                  "--grid-points", "129", "--out", tmp_path])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[lines.index("band means (nats):") + 1 :]
    assert rows[0].split() == ["band", "gc", "gi", "ga"]
    for band, row in zip(("VLF", "LF"), rows[1:]):
        assert re.fullmatch(rf"  {band} +-?0\.0000 inf \(isolated\) +-?0\.0000", row), row


def test_cli_summary_calls_only_an_infinite_isolation_isolated(capsys):
    inf = float("inf")
    cells = {m: {"integral": v, "mean": v} for m, v in (("gc", inf), ("gi", inf), ("ga", 0.5))}
    gica.cli._print_summary(MeasureReport(inf, inf, 0.5, {"LF": cells}))
    out = capsys.readouterr().out
    assert "F_xy = inf\n" in out and "F_y  = inf (isolated)\n" in out
    assert re.search(r"\n  LF +inf inf \(isolated\) +0\.5000\n", out), out


def test_cli_simulate_creates_output_directory(tmp_path, capsys):
    csv = tmp_path / "missing" / "dir" / "pair.csv"
    rc = run_cli(["simulate", "--system", "open_loop", "--n", "50", "--out", csv])
    assert rc == 0
    assert len(csv.read_text().splitlines()) == 51


def test_cli_calls_in_one_process_parse_independently(tmp_path, capsys, monkeypatch):
    # the parser is built once; flags of one call must not leak into the next
    builds = []
    build = gica.cli.build_parser
    monkeypatch.setattr(gica.cli, "build_parser", lambda: builds.append(1) or build())
    gica.cli._parser.cache_clear()
    csv = tmp_path / "pair.csv"
    run_cli(["simulate", "--system", "open_loop", "--b", "1", "--c", "0.5",
             "--n", "300", "--seed", "8", "--out", csv])
    args = ["analyze", "--input", csv, "--fs", "1", "--order", "2",
            "--detrend-cutoff", "off", "--grid-points", "129"]
    assert run_cli(args + ["--band", "mid:0.1-0.3", "--plot-data", "--out", tmp_path / "a"]) == 0
    assert run_cli(args + ["--out", tmp_path / "b"]) == 0
    gica.cli._parser.cache_clear()
    assert builds == [1]
    capsys.readouterr()
    assert set(json.loads((tmp_path / "a" / "report.json").read_text())["bands"]) == {"mid"}
    assert set(json.loads((tmp_path / "b" / "report.json").read_text())["bands"]) == {"VLF", "LF"}
    assert (tmp_path / "a" / "plot_data.tsv").exists()
    assert not (tmp_path / "b" / "plot_data.tsv").exists()
