"""The three benchmark workloads: inputs, the timed op, and the checked outputs.

Every workload is driven through a public gica entry point only:
``gica.cli.main`` (cli-analyze), ``gica.pipeline.analyze_pair``
(significance) and ``gica.simulate.run_confounded_study``
(confounded-study). The pinned configuration of each lives in
``workloads.json`` next to this file.

Inputs come from a fixed pool of keys, and the workload seed picks the keys
of one run, so every input the benchmark can make has a reference output
recorded in ``reference/<workload>.json``. The records of cli-analyze and
significance are simulated here with the benchmark's own recursion, never by
``gica.simulate``, so a change to the code under test cannot move its
inputs. Each op looks its entry point up in the gica module at call time,
so that once the tracer is installed its wrapper is the one called.
"""

from __future__ import annotations

import importlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "workloads.json").read_text())
REFERENCE_DIR = HERE / "reference"

# Real outputs must agree with the reference to this relative tolerance:
# far above the roundoff of reordered arithmetic (1e-13 and below), far
# below the size of any change to a model or measure.
RTOL = 1e-6
ATOL = 1e-12

# Poles of the paper's AR(2) blocks as (modulus, normalized frequency); the
# target's modulus is scaled by the autonomy parameter b.
DRIVER_POLE = (0.9, 0.3)
TARGET_POLE = (0.8, 0.1)


def _ar2(modulus: float, freq: float) -> tuple[float, float]:
    return 2.0 * modulus * math.cos(2.0 * math.pi * freq), -modulus * modulus


def simulate_record(
    spec: dict, n: int, burn_in: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One realization of the open- or closed-loop system, burn-in dropped.

    x_t = ax1 x_{t-1} + ax2 x_{t-2} - d y_{t-1} + e_x
    y_t = ay1 y_{t-1} + ay2 y_{t-2} - c x_{t-1} + e_y
    """
    ax1, ax2 = _ar2(*DRIVER_POLE)
    ay1, ay2 = _ar2(TARGET_POLE[0] * spec["b"], TARGET_POLE[1])
    c, d = spec["c"], spec["d"]
    companion = np.array(
        [[ax1, -d, ax2, 0.0], [-c, ay1, 0.0, ay2], [1, 0, 0, 0], [0, 1, 0, 0]], float
    )
    if np.abs(np.linalg.eigvals(companion)).max() >= 1.0:
        raise ValueError(f"system {spec} is unstable")
    noise = rng.standard_normal((burn_in + n, 2)).tolist()
    x1 = x2 = y1 = y2 = 0.0
    xs, ys = [], []
    for ex, ey in noise:
        x = ax1 * x1 + ax2 * x2 - d * y1 + ex
        y = ay1 * y1 + ay2 * y2 - c * x1 + ey
        x2, x1, y2, y1 = x1, x, y1, y
        xs.append(x)
        ys.append(y)
    return np.array(xs[burn_in:]), np.array(ys[burn_in:])


def band_mean(values: np.ndarray, lo: float, hi: float) -> float:
    """Mean height of a profile on the uniform [0, 1/2] grid over [lo, hi]."""
    grid = np.linspace(0.0, 0.5, values.size)
    nodes = np.concatenate([[lo], grid[(grid > lo) & (grid < hi)], [hi]])
    return float(np.trapezoid(np.interp(nodes, grid, values), nodes) / (hi - lo))


def _json_clean(data: Any) -> Any:
    # the reference is stored as JSON; compare like with like
    return json.loads(json.dumps(data))


def mismatches(expected: Any, actual: Any, path: str = "") -> list[str]:
    """Differences between a reference output and an actual one.

    Orders, verdicts and other non-float values must be equal; floats must
    agree to ``RTOL``/``ATOL``.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual or {})}"]
        out: list[str] = []
        for key in expected:
            out += mismatches(expected[key], actual[key], f"{path}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(
        actual, bool
    ):
        if math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


@dataclass
class Item:
    """One input of a workload: its reference key and what the op needs."""

    key: str
    data: Any


class CliAnalyze:
    """``gica analyze`` in-process on two-column CSV records, no surrogates.

    Keys are ``m<mix>-r<realisation>``; a run analyses the same number of
    realisations of every system in the mix, so each run holds the same mix
    of systems.
    """

    name = "cli-analyze"

    def __init__(self) -> None:
        self.cfg = CONFIG[self.name]

    def all_keys(self) -> list[str]:
        return [
            f"m{m}-r{r}"
            for m in range(len(self.cfg["mix"]))
            for r in range(self.cfg["realisations"])
        ]

    def keys(self, seed: int) -> list[str]:
        rng = np.random.default_rng(seed)
        return [
            f"m{m}-r{r}"
            for m in range(len(self.cfg["mix"]))
            for r in sorted(
                rng.choice(
                    self.cfg["realisations"], self.cfg["realisations_per_run"], replace=False
                )
            )
        ]

    def prepare(self, keys: list[str], workdir: Path) -> list[Item]:
        self.cli = importlib.import_module("gica.cli")
        items = []
        for key in keys:
            m, r = (int(tok[1:]) for tok in key.split("-"))
            x, y = simulate_record(
                self.cfg["mix"][m],
                self.cfg["n"],
                self.cfg["burn_in"],
                np.random.default_rng([1, m, r]),
            )
            csv = workdir / f"{key}.csv"
            np.savetxt(csv, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
                       header="x,y", comments="")
            outdir = workdir / f"out-{key}"
            argv = self.cfg["argv"] + ["--input", str(csv), "--out", str(outdir)]
            items.append(Item(key, (argv, outdir)))
        return items

    def op(self, item: Item) -> Any:
        argv, _ = item.data
        sink = io.StringIO()  # the summary and warnings a user's terminal would show
        with redirect_stdout(sink), redirect_stderr(sink):
            return self.cli.main(argv)

    def outputs(self, item: Item, raw: Any) -> dict:
        # A record the reference code rejects (exit code 1, e.g. an unstable
        # fit) is checked on the exit code alone.
        if raw != 0:
            return {"exit_code": raw}
        _, outdir = item.data
        report = json.loads((outdir / "report.json").read_text())
        model = json.loads((outdir / "model.json").read_text())
        return _json_clean(
            {
                "exit_code": raw,
                "order": model["p"],
                "F_xy": report["F_xy"],
                "F_y": report["F_y"],
                "A_y": report["A_y"],
                "bands": {
                    band: {m: v["mean"] for m, v in measures.items()}
                    for band, measures in report["bands"].items()
                },
            }
        )


class Significance:
    """``analyze_pair`` with surrogates under both hypotheses on one record.

    Keys are ``r<realisation>`` of the pinned open-loop system; a run
    repeats the op on the one record its seed picks. The seed picks from
    ``timed_realisations``, the records at which the seed code's AIC picks
    order 2, so that every run does the same work; the reference also holds
    the others.
    """

    name = "significance"

    def __init__(self) -> None:
        self.cfg = CONFIG[self.name]

    def all_keys(self) -> list[str]:
        return [f"r{r}" for r in range(self.cfg["realisations"])]

    def keys(self, seed: int) -> list[str]:
        return [f"r{np.random.default_rng(seed).choice(self.cfg['timed_realisations'])}"]

    def prepare(self, keys: list[str], workdir: Path) -> list[Item]:
        self.pipeline = importlib.import_module("gica.pipeline")
        timeseries = importlib.import_module("gica.timeseries")
        raw = dict(self.cfg["config"])
        raw["bands"] = {k: tuple(v) for k, v in raw["bands"].items()}
        raw["hypotheses"] = tuple(raw["hypotheses"])
        self.config = self.pipeline.AnalysisConfig(**raw)
        items = []
        for key in keys:
            r = int(key[1:])
            x, y = simulate_record(
                self.cfg["system"], self.cfg["n"], self.cfg["burn_in"],
                np.random.default_rng([2, r]),
            )
            items.append(Item(key, timeseries.TimeSeriesPair(x, y, self.cfg["fs"])))
        return items

    def op(self, item: Item) -> Any:
        return self.pipeline.analyze_pair(item.data, self.config)

    def outputs(self, item: Item, raw: Any) -> dict:
        report = raw.report.to_dict()
        return _json_clean(
            {
                "order": raw.order,
                "F_xy": report["F_xy"],
                "F_y": report["F_y"],
                "A_y": report["A_y"],
                "bands": {
                    band: {m: v["mean"] for m, v in measures.items()}
                    for band, measures in report["bands"].items()
                },
                "significance": report["significance"],
            }
        )


class ConfoundedStudy:
    """``run_confounded_study`` on the pinned confounded system.

    Keys are ``s<study seed>``; a run cycles through the study seeds its
    workload seed picks. ``gica.simulate`` makes the records here on
    purpose: simulating is part of the command.
    """

    name = "confounded-study"

    def __init__(self) -> None:
        self.cfg = CONFIG[self.name]

    def all_keys(self) -> list[str]:
        return [f"s{s}" for s in range(self.cfg["study_seeds"])]

    def keys(self, seed: int) -> list[str]:
        picks = np.random.default_rng(seed).choice(
            self.cfg["study_seeds"], size=self.cfg["seeds_per_run"], replace=False
        )
        return [f"s{s}" for s in picks]

    def prepare(self, keys: list[str], workdir: Path) -> list[Item]:
        self.simulate = importlib.import_module("gica.simulate")
        spectral = importlib.import_module("gica.spectral")
        self.grid = spectral.FrequencyGrid(self.cfg["grid_points"], 1.0)
        return [Item(key, int(key[1:])) for key in keys]

    def op(self, item: Item) -> Any:
        return self.simulate.run_confounded_study(
            **self.cfg["args"], seed=item.data, grid=self.grid
        )

    def outputs(self, item: Item, raw: Any) -> dict:
        profiles, failures = raw
        means = {}
        for name, profile in sorted(profiles.items()):
            values = np.asarray(profile.values)
            means[name] = {"full": band_mean(values, 0.0, 0.5)}
            for band, (lo, hi) in self.cfg["bands"].items():
                means[name][band] = band_mean(values, lo, hi)
        return _json_clean({"failed_runs": failures, "band_means": means})


WORKLOADS = {cls.name: cls for cls in (CliAnalyze, Significance, ConfoundedStudy)}


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())["outputs"]
