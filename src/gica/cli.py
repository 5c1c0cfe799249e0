"""Command-line interface.

Subcommands: ``analyze`` (measure a CSV pair), ``simulate`` (write a
benchmark realization), ``theoretical`` (exact profiles from true
parameters, single point or one-parameter sweep), and ``confounded-study``
(averaged estimated profiles under a latent confounder). All outputs are
deterministic for fixed inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .pipeline import AnalysisConfig, analyze_pair
from .simulate import (
    BENCHMARK_SETTINGS,
    SYSTEMS,
    SimSpec,
    build_true_model,
    run_confounded_study,
    simulate,
    theoretical_profiles,
    theoretical_sweep,
)
from .spectral import DEFAULT_BANDS, FrequencyGrid, MeasureReport, SpectralProfile
from .timeseries import delimited_text, format_column, load_pair, write_pair

ENV_SEED = "GICA_SEED"


def _fmt(value: float, measure: str = "") -> str:
    """Four decimals; an infinite isolation (``gi``, ``F_y``) reads ``inf (isolated)``."""
    if measure == "gi" and np.isinf(value):
        return "inf (isolated)"
    return f"{value:.4f}"


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"error: {ENV_SEED} must be an integer, got {raw!r}")


def _parse_bands(specs: list[str] | None) -> dict[str, tuple[float, float]]:
    if not specs:
        return dict(DEFAULT_BANDS)
    bands: dict[str, tuple[float, float]] = {}
    for spec in specs:
        try:
            name, rng = spec.split(":")
            lo, hi = (float(tok) for tok in rng.split("-"))
        except ValueError:
            raise SystemExit(
                f"error: band {spec!r} must look like NAME:LO-HI (Hz)"
            ) from None
        bands[name] = (lo, hi)
    return bands


def _write_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_profiles(profiles: dict[str, SpectralProfile], outdir: Path) -> None:
    freqs: dict[FrequencyGrid, list[str]] = {}
    for name, profile in profiles.items():
        if profile.grid not in freqs:
            freqs[profile.grid] = format_column(profile.grid.freqs_hz)
        columns = [freqs[profile.grid], format_column(profile.values)]
        text = delimited_text(["frequency_hz", "value"], columns, ",")
        (outdir / f"profile_{name}.csv").write_text(text)


def _write_plot_data(profiles: dict[str, SpectralProfile], path: Path) -> None:
    names = sorted(profiles)
    columns = [format_column(profiles[names[0]].grid.freqs_hz)]
    columns += [format_column(profiles[n].values) for n in names]
    path.write_text(delimited_text(["frequency_hz", *names], columns, "\t"))


def _print_summary(report: MeasureReport, order: int | None = None) -> None:
    if order is not None:
        print(f"model order: {order}")
    print("time-domain measures (nats):")
    print(f"  causality  F_xy = {_fmt(report.f_xy)}")
    print(f"  isolation  F_y  = {_fmt(report.f_y, 'gi')}")
    print(f"  autonomy   A_y  = {_fmt(report.a_y)}")
    if report.bands:
        print("band means (nats):")
        # a space between cells: "inf (isolated)" and long band names overflow their width
        print("  " + " ".join([f"{'band':<8}", *(f"{m:>12}" for m in ("gc", "gi", "ga"))]))
        for band, measures in report.bands.items():
            row = [f"{band:<8}"]
            for measure in ("gc", "gi", "ga"):
                mark = ""
                if report.significance is not None:
                    mark = "*" if _is_significant(report, measure, band) else ""
                row.append(f"{_fmt(measures[measure]['mean'], measure) + mark:>12}")
            print("  " + " ".join(row))
    if report.significance is not None:
        print("significance (*: outside surrogate thresholds):")
        for measure, label in (("gc", "F_xy"), ("gi", "F_y"), ("ga", "A_y")):
            mark = "*" if _is_significant(report, measure, "time") else " "
            print(f"  {label:<5} {mark}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _is_significant(report: MeasureReport, measure: str, scope: str) -> bool:
    for hyp_block in report.significance.values():
        if isinstance(hyp_block, dict) and measure in hyp_block:
            verdict = hyp_block[measure].get(scope)
            if verdict is not None:
                return bool(verdict["significant"])
    return False


def _add_sim_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", required=True, choices=SYSTEMS)
    parser.add_argument("--b", default="0", help="target autonomy parameter in [0, 1]")
    parser.add_argument("--c", default="0", help="driver coupling in [0, 1]")
    parser.add_argument("--d", default="0", help="feedback coupling in [0, 1]")
    parser.add_argument("--a", type=float, default=0.0, help="confounder coupling in [0, 1]")
    parser.add_argument(
        "--setting",
        choices=sorted(BENCHMARK_SETTINGS),
        help="benchmark column (benchmark system only)",
    )


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = SimSpec(
        system=args.system,
        n=args.n,
        seed=args.seed,
        b=float(args.b),
        c=float(args.c),
        d=float(args.d),
        a=args.a,
        setting=args.setting,
    )
    pair = simulate(spec)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_pair(pair, args.out)
    print(f"wrote {pair.n} samples to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cutoff = None if args.detrend_cutoff == "off" else float(args.detrend_cutoff)
    if args.order == "aic":
        order: int | str = "aic"
    else:
        order = int(args.order)
    hypotheses = ("h1", "h2") if args.hypothesis == "both" else (args.hypothesis,)
    config = AnalysisConfig(
        detrend_cutoff=cutoff,
        order=order,
        p_max=args.p_max,
        q=args.q,
        grid_points=args.grid_points,
        bands=_parse_bands(args.band),
        n_surrogates=args.surrogates,
        alpha=args.alpha,
        hypotheses=hypotheses,
        seed=args.seed,
    )
    pair = load_pair(args.input, args.fs, (args.x_col, args.y_col), args.delimiter)
    result = analyze_pair(pair, config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(result.report.to_dict(), outdir / "report.json")
    _write_json(result.model.to_dict(), outdir / "model.json")
    _write_json(result.rest_ar.to_dict(), outdir / "restricted_ar.json")
    _write_json(result.rest_x.to_dict(), outdir / "restricted_x.json")
    _write_profiles(result.profiles, outdir)
    if args.plot_data:
        _write_plot_data(result.profiles, outdir / "plot_data.tsv")
    _print_summary(result.report, result.order)
    return 0


def cmd_theoretical(args: argparse.Namespace) -> int:
    if args.system == "confounded":
        raise SystemExit(
            "error: the confounded pair has no finite bivariate parameters; "
            "use confounded-study"
        )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = FrequencyGrid(args.grid_points, 1.0)
    multi = {name: _floats(getattr(args, name)) for name in ("b", "c", "d")}
    swept = [name for name, vals in multi.items() if len(vals) > 1]
    if len(swept) > 1:
        raise SystemExit("error: at most one of --b/--c/--d may be a sweep list")
    base = SimSpec(
        system=args.system,
        n=2,
        seed=0,
        b=multi["b"][0] if "b" not in swept else 0.0,
        c=multi["c"][0] if "c" not in swept else 0.0,
        d=multi["d"][0] if "d" not in swept else 0.0,
        setting=args.setting,
    )
    if not swept:
        profiles, report = theoretical_profiles(base, grid, args.q)
        _write_profiles(profiles, outdir)
        _write_json(report.to_dict(), outdir / "report.json")
        _write_json(build_true_model(base).to_dict(), outdir / "true_model.json")
        _print_summary(report)
        return 0
    param = swept[0]
    rows = ["parameter,value,F_xy,F_y,A_y"]
    for value, profiles, report in theoretical_sweep(
        base, param, multi[param], grid, args.q
    ):
        subdir = outdir / f"{param}_{value:g}"
        subdir.mkdir(exist_ok=True)
        _write_profiles(profiles, subdir)
        _write_json(report.to_dict(), subdir / "report.json")
        f_y = "inf" if np.isinf(report.f_y) else f"{report.f_y:.15g}"
        rows.append(f"{param},{value:g},{report.f_xy:.15g},{f_y},{report.a_y:.15g}")
        print(f"{param} = {value:g}: F_xy = {_fmt(report.f_xy)}, "
              f"F_y = {_fmt(report.f_y, 'gi')}, A_y = {_fmt(report.a_y)}")
    (outdir / "sweep_summary.csv").write_text("\n".join(rows) + "\n")
    return 0


def cmd_confounded_study(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = FrequencyGrid(args.grid_points, 1.0)
    profiles, failures = run_confounded_study(
        a=args.a,
        b=float(args.b),
        n_runs=args.runs,
        n=args.n,
        seed=args.seed,
        grid=grid,
        p_max=args.p_max,
        q=args.q,
    )
    _write_profiles(profiles, outdir)
    _write_json(
        {
            "a": args.a,
            "b": float(args.b),
            "runs": args.runs,
            "n": args.n,
            "seed": args.seed,
            "failed_runs": failures,
        },
        outdir / "study.json",
    )
    print(f"averaged {args.runs - failures} runs ({failures} failed) into {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gica",
        description=(
            "Granger causality, isolation, and autonomy analysis of a "
            "driver-target series pair"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="measure a CSV pair")
    p_an.add_argument("--input", required=True, help="CSV file with the two series")
    p_an.add_argument("--fs", type=float, required=True, help="sampling rate in Hz")
    p_an.add_argument("--x-col", type=int, default=0, help="driver column index")
    p_an.add_argument("--y-col", type=int, default=1, help="target column index")
    p_an.add_argument("--delimiter", default=",")
    p_an.add_argument(
        "--detrend-cutoff",
        default="0.0156",
        help="high-pass cutoff in Hz, or 'off' to skip detrending",
    )
    p_an.add_argument("--order", default="aic", help="model order: integer or 'aic'")
    p_an.add_argument("--p-max", type=int, default=14, help="largest order scanned by AIC")
    p_an.add_argument("--q", type=int, default=20, help="restricted-model lag count")
    p_an.add_argument("--grid-points", type=int, default=2049)
    p_an.add_argument(
        "--band",
        action="append",
        help="analysis band NAME:LO-HI in Hz (repeatable; default VLF and LF)",
    )
    p_an.add_argument("--surrogates", type=int, default=0, help="surrogate count (0 = off)")
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--hypothesis", choices=("h1", "h2", "both"), default="both")
    p_an.add_argument("--seed", type=int, default=None)
    p_an.add_argument("--out", required=True, help="output directory")
    p_an.add_argument("--plot-data", action="store_true", help="also write plot_data.tsv")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="write one benchmark realization as CSV")
    _add_sim_params(p_sim)
    p_sim.add_argument("--n", type=int, required=True, help="retained samples")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_th = sub.add_parser(
        "theoretical", help="exact profiles from true parameters (point or sweep)"
    )
    _add_sim_params(p_th)
    p_th.add_argument("--q", type=int, default=20)
    p_th.add_argument("--grid-points", type=int, default=2049)
    p_th.add_argument("--out", required=True, help="output directory")
    p_th.set_defaults(func=cmd_theoretical)

    p_cs = sub.add_parser(
        "confounded-study", help="averaged estimated measures under a latent confounder"
    )
    p_cs.add_argument("--a", type=float, required=True, help="confounder coupling")
    p_cs.add_argument("--b", default="0", help="target autonomy parameter")
    p_cs.add_argument("--runs", type=int, default=100)
    p_cs.add_argument("--n", type=int, default=500)
    p_cs.add_argument("--seed", type=int, default=None)
    p_cs.add_argument("--grid-points", type=int, default=2049)
    p_cs.add_argument("--p-max", type=int, default=14)
    p_cs.add_argument("--q", type=int, default=20)
    p_cs.add_argument("--out", required=True, help="output directory")
    p_cs.set_defaults(func=cmd_confounded_study)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = _default_seed()
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
