"""Full analysis pipeline and the command-line interface."""
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gica.cli import main
from gica.pipeline import AnalysisConfig, AnalysisResult, analyze_pair
from gica.restricted import derive_restricted
from gica.simulate import SimSpec, build_true_model, simulate
from gica.timeseries import TimeSeriesPair

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
    warnings: list[str] = []
    derive_restricted(model, 3, warnings)
    assert len(warnings) == 2
    assert all("consider a larger q" in w for w in warnings)
    clean: list[str] = []
    derive_restricted(model, 30, clean)
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
