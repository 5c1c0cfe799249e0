"""Command-line interface.

Subcommands: ``analyze`` (measure a CSV pair), ``simulate`` (write a
benchmark realization), ``theoretical`` (exact profiles from true
parameters, single point or one-parameter sweep), and ``confounded-study``
(averaged estimated profiles under a latent confounder). All outputs are
deterministic for fixed inputs, flags, and seed.

``simulate`` and ``theoretical`` build every :class:`gica.simulate.SimSpec` with
:func:`_spec`, so a flag the system does not use is refused alike. A theoretical
point is a sweep of one value; only the layout of its outputs differs. Every output
directory is written by :func:`_write_outputs`. A flag's default is its library constant.
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
from .restricted import Q
from .simulate import (
    BENCHMARK_SETTINGS,
    SYSTEMS,
    SimSpec,
    build_true_model,
    run_confounded_study,
    simulate,
    theoretical_profiles,
)
from .spectral import DEFAULT_BANDS, GRID_POINTS, MEASURES, TIME_KEYS, FrequencyGrid
from .spectral import MeasureReport, SpectralProfile
from .surrogates import ALPHA, TAILS
from .timeseries import fill_templates, format_column, load_pair, row_templates, write_pair
from .timeseries import write_text
from .varmodel import P_MAX

ENV_SEED = "GICA_SEED"


def _fmt(value: float, measure: str) -> str:
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
        if name in bands:  # a later spec would silently replace the earlier one
            raise SystemExit(f"error: band {name!r} is given twice")
        bands[name] = (lo, hi)
    return bands


@functools.lru_cache(maxsize=8)
def _grid_templates(grid: FrequencyGrid, width: int, delimiter: str) -> tuple[str, ...]:
    """The row templates of a table labelled by ``grid``'s frequencies, built once per
    process: every profile repeats them."""
    return row_templates(format_column(grid.freqs_hz), width, delimiter)


def _write_outputs(outdir: Path, profiles: dict[str, SpectralProfile], **records: dict) -> None:
    """Make ``outdir`` and write a ``profile_<name>.csv`` per profile and a ``<name>.json`` per
    record."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, profile in profiles.items():
        templates = _grid_templates(profile.grid, 1, ",")
        text = fill_templates("frequency_hz,value\n", templates, [profile.values])
        write_text(outdir / f"profile_{name}.csv", text)
    for name, data in records.items():
        write_text(outdir / f"{name}.json", json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_plot_data(profiles: dict[str, SpectralProfile], path: Path) -> None:
    names = sorted(profiles)
    templates = _grid_templates(profiles[names[0]].grid, len(names), "\t")
    header = "\t".join(["frequency_hz", *names]) + "\n"
    write_text(path, fill_templates(header, templates, [profiles[n].values for n in names]))


def _print_summary(report: MeasureReport, order: int | None = None) -> None:
    if order is not None:
        print(f"model order: {order}")
    print("time-domain measures (nats):")
    for (measure, key), name in zip(TIME_KEYS.items(), ("causality", "isolation", "autonomy")):
        print(f"  {name:<10} {key:<4} = {_fmt(report.value(measure, 'time'), measure)}")
    # a measure whose hypothesis was not run is untested, which a blank mark would not say
    untested = {}
    if report.significance is not None:
        untested = {m: hyp for m, (hyp, _) in TAILS.items() if hyp not in report.significance}
    if report.bands:
        not_run = " and ".join(sorted(set(untested.values())))
        note = f"; {', '.join(untested)} not tested, {not_run} not run" if untested else ""
        print(f"band means (nats{note}):")
        # a space between cells: "inf (isolated)" and long band names overflow their width
        print("  " + " ".join([f"{'band':<8}", *(f"{m:>12}" for m in MEASURES)]))
        for band, measures in report.bands.items():
            row = [f"{band:<8}"]
            for measure in MEASURES:
                mark = ""
                if report.significance is not None:
                    mark = "*" if _is_significant(report, measure, band) else ""
                row.append(f"{_fmt(measures[measure]['mean'], measure) + mark:>12}")
            print("  " + " ".join(row))
    if report.significance is not None:
        print("significance (*: outside surrogate thresholds):")
        for measure, label in TIME_KEYS.items():
            if measure in untested:
                print(f"  {label:<5} not tested ({untested[measure]} not run)")
                continue
            mark = "*" if _is_significant(report, measure, "time") else " "
            print(f"  {label:<5} {mark}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _is_significant(report: MeasureReport, measure: str, scope: str) -> bool:
    block = report.significance.get(TAILS[measure][0])  # absent if its hypothesis was not run
    return block is not None and bool(block[measure][scope]["significant"])


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


def _floats(name: str, raw: str) -> list[float]:
    values = [float(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"--{name} needs at least one value")
    return values


def _spec(args: argparse.Namespace, n: int, seed: int, **values: float) -> SimSpec:
    """The :class:`SimSpec` of ``--system``, ``--setting``, ``--a`` and ``--b/--c/--d``, with
    ``values`` in place of the flags they name, so its unused-parameter check sees every flag."""
    flags = {name: float(getattr(args, name)) for name in "bcd" if name not in values}
    return SimSpec(args.system, n, seed, a=args.a, setting=args.setting, **flags, **values)


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec(args, args.n, args.seed)
    pair = simulate(spec)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_pair(pair, args.out)
    print(f"wrote {pair.n} samples to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cutoff = None if args.detrend_cutoff == "off" else float(args.detrend_cutoff)
    try:
        order: int | str = int(args.order)
    except ValueError:  # "aic", or refused by AnalysisConfig in its own words
        order = args.order
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
    _write_outputs(
        outdir, result.profiles, report=result.report.to_dict(), model=result.model.to_dict(),
        restricted_ar=result.rest_ar.to_dict(), restricted_x=result.rest_x.to_dict(),
    )
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
    grid = FrequencyGrid(args.grid_points, 1.0)
    multi = {name: _floats(name, getattr(args, name)) for name in ("b", "c", "d")}
    swept = [name for name, vals in multi.items() if len(vals) > 1]
    if len(swept) > 1:
        raise SystemExit("error: at most one of --b/--c/--d may be a sweep list")
    param = (swept or ["b"])[0]  # a point is a sweep of its one --b value
    # a value's directory is named by %.15g: a repeat would overwrite it
    labels = format_column(multi[param])
    twice = [label for i, label in enumerate(labels) if label in labels[:i]]
    if twice:
        raise SystemExit(f"error: --{param} value {twice[0]} is given twice")
    point = {name: vals[0] for name, vals in multi.items()}
    points = []
    for value in multi[param]:
        spec = _spec(args, 2, 0, **{**point, param: value})
        points.append((spec, *theoretical_profiles(spec, grid, args.q)))
    outdir = Path(args.out)
    if not swept:
        spec, profiles, report = points[0]
        true_model = build_true_model(spec).to_dict()
        _write_outputs(outdir, profiles, report=report.to_dict(), true_model=true_model)
        _print_summary(report)
        return 0
    rows = [",".join(["parameter", "value", *TIME_KEYS.values()])]
    for label, (_, profiles, report) in zip(labels, points):
        _write_outputs(outdir / f"{param}_{label}", profiles, report=report.to_dict())
        times = [report.value(m, "time") for m in MEASURES]
        rows.append(",".join([param, label, *format_column(times)]))
        shown = [f"{TIME_KEYS[m]} = {_fmt(t, m)}" for m, t in zip(MEASURES, times)]
        print(f"{param} = {label}: {', '.join(shown)}")
    write_text(outdir / "sweep_summary.csv", "\n".join(rows) + "\n")
    return 0


def cmd_confounded_study(args: argparse.Namespace) -> int:
    outdir = Path(args.out)
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
    study = {"a": args.a, "b": float(args.b), "runs": args.runs, "n": args.n,
             "seed": args.seed, "failed_runs": failures}
    _write_outputs(outdir, profiles, study=study)
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
        default="off",
        help="high-pass cutoff in Hz, or 'off' (the default) to skip detrending",
    )
    p_an.add_argument("--order", default="aic", help="model order: integer or 'aic'")
    p_an.add_argument("--p-max", type=int, default=P_MAX, help="largest order scanned by AIC")
    p_an.add_argument("--q", type=int, default=Q, help="restricted-model lag count")
    p_an.add_argument("--grid-points", type=int, default=GRID_POINTS)
    p_an.add_argument(
        "--band",
        action="append",
        help="analysis band NAME:LO-HI in Hz (repeatable; default VLF and LF)",
    )
    p_an.add_argument("--surrogates", type=int, default=0, help="surrogate count (0 = off)")
    p_an.add_argument("--alpha", type=float, default=ALPHA)
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
    p_th.add_argument("--q", type=int, default=Q)
    p_th.add_argument("--grid-points", type=int, default=GRID_POINTS)
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
    p_cs.add_argument("--grid-points", type=int, default=GRID_POINTS)
    p_cs.add_argument("--p-max", type=int, default=P_MAX)
    p_cs.add_argument("--q", type=int, default=Q)
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
