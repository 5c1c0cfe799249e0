"""Benchmark stochastic processes with known causal structure.

All systems are built from AR(2) blocks with poles placed at chosen
normalized frequencies (driver at 0.3 with modulus 0.9, target at 0.1 with
modulus ``0.8 b``, confounder at 0.2 with modulus 0.8) plus lag-1 coupling
terms. Unit-variance Gaussian innovations drive every equation.

Systems
-------
``open_loop``
    Driver X feeds the target Y with weight ``-c``; no feedback.
``closed_loop``
    Adds feedback ``-d`` from Y into the X equation.
``confounded``
    Three processes; a latent Z feeds Y with weight ``-a`` alongside a
    fixed ``-0.8`` drive from X, and only (X, Y) are returned.
``benchmark``
    The four-setting matrix (i: b=0,c=0; ii: b=1,c=0; iii: b=0,c=1;
    iv: b=1,c=1) used for estimator validation, as open-loop instances.

Every system runs as :func:`gica.varmodel.simulate_var` of its exact coefficients:
:func:`build_true_model`'s for two processes, :func:`build_confounded_system`'s for the
three-process confounded one, of which the observed pair (X, Y) is kept.

Theoretical profiles take :func:`gica.spectral.assemble_profiles`, one spec at a time (a
sweep is one :func:`theoretical_profiles` call per value). A confounded-study block's models,
read off its AIC scan (:func:`gica.varmodel.fit_var_aic_stack`), take the surrogates' batch
driver, :func:`gica.spectral.measure_blocks`, one stack per order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .restricted import Q
from .spectral import DEFAULT_BANDS, GRID_POINTS, MEASURES, FrequencyGrid, MeasureReport
from .spectral import SURROGATE_BLOCK, SpectralProfile, assemble_profiles, measure_blocks
from .timeseries import TimeSeriesPair
from .varmodel import P_MAX, BivariateVarModel, fit_var_aic_stack, poles_to_ar_coeffs
from .varmodel import require_stable, simulate_var

BURN_IN = 1000

DRIVER_POLE = (0.9, 0.3)
TARGET_POLE_MODULUS = 0.8
TARGET_POLE_FREQ = 0.1
CONFOUNDER_POLE = (0.8, 0.2)
CONFOUNDED_XY_COUPLING = 0.8

BENCHMARK_SETTINGS = {
    "i": (0.0, 0.0),
    "ii": (1.0, 0.0),
    "iii": (0.0, 1.0),
    "iv": (1.0, 1.0),
}

# system -> the parameters it uses; a benchmark setting decides b and c
SYSTEMS = {"open_loop": "bc", "closed_loop": "bcd", "confounded": "ab", "benchmark": ""}


@dataclass(frozen=True)
class SimSpec:
    """Choice of system, parameters, length, and seed for one realization.

    ``b`` scales the target's autonomous pole modulus, ``c`` the driver
    coupling, ``d`` the feedback (closed loop only), ``a`` the confounder
    coupling (confounded only). ``setting`` selects a benchmark column. A
    nonzero parameter the system does not use is an error.
    """

    system: str
    n: int
    seed: int | tuple[int, ...] = 0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    a: float = 0.0
    setting: str | None = None

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; choose from {tuple(SYSTEMS)}")
        if self.n < 2:  # a pair needs two samples
            raise ValueError(f"length must be >= 2, got {self.n}")
        for name in ("b", "c", "d", "a"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"parameter {name} must lie in [0, 1], got {value}")
            if value and name not in SYSTEMS[self.system]:
                raise ValueError(f"the {self.system} system does not use {name}, got {value}")
        if self.system == "benchmark":
            if self.setting not in BENCHMARK_SETTINGS:
                raise ValueError(
                    f"benchmark requires setting in {sorted(BENCHMARK_SETTINGS)}, "
                    f"got {self.setting!r}"
                )
        elif self.setting is not None:
            raise ValueError("setting is only valid for the benchmark system")

    def effective_bc(self) -> tuple[float, float]:
        if self.system == "benchmark":
            return BENCHMARK_SETTINGS[self.setting]
        return self.b, self.c


def _target_poles(b: float) -> tuple[float, float]:
    return poles_to_ar_coeffs(TARGET_POLE_MODULUS * b, TARGET_POLE_FREQ)


def build_true_model(spec: SimSpec) -> BivariateVarModel:
    """Exact bivariate parameters of a two-process system.

    Raises for the confounded system, whose observed pair has no finite
    autoregressive representation; use :func:`build_confounded_system` for
    its full three-process parameters.
    """
    if spec.system == "confounded":
        raise ValueError(
            "the observed (X, Y) pair of the confounded system is not a finite "
            "bivariate AR process; simulate and estimate instead"
        )
    b, c = spec.effective_bc()
    ax1, ax2 = poles_to_ar_coeffs(*DRIVER_POLE)
    ay1, ay2 = _target_poles(b)
    a1 = np.array([[ax1, -spec.d], [-c, ay1]])
    a2 = np.array([[ax2, 0.0], [0.0, ay2]])
    model = BivariateVarModel(np.stack([a1, a2]), np.eye(2))
    require_stable(model.coeffs, "model")
    return model


def build_confounded_system(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(2, 3, 3)`` and innovation covariance of the X, Y, Z system."""
    ax1, ax2 = poles_to_ar_coeffs(*DRIVER_POLE)
    ay1, ay2 = _target_poles(b)
    az1, az2 = poles_to_ar_coeffs(*CONFOUNDER_POLE)
    a1 = np.array(
        [
            [ax1, 0.0, 0.0],
            [-CONFOUNDED_XY_COUPLING, ay1, -a],
            [0.0, 0.0, az1],
        ]
    )
    a2 = np.diag([ax2, ay2, az2])
    coeffs = np.stack([a1, a2])
    require_stable(coeffs, "confounded system")
    return coeffs, np.eye(3)


def simulate(spec: SimSpec) -> TimeSeriesPair:
    """One seed-deterministic realization of length ``spec.n``.

    A 1000-sample burn-in from zero initial conditions is generated and
    discarded. Unit sampling rate is attached.
    """
    if spec.system == "confounded":
        coeffs = build_confounded_system(spec.a, spec.b)[0]
    else:
        coeffs = build_true_model(spec).coeffs
    return TimeSeriesPair(*_realizations(coeffs, [spec])[0], 1.0)


def _realizations(coeffs: np.ndarray, specs: list[SimSpec]) -> np.ndarray:
    """Channels 0 and 1 ``(B, 2, n)`` of lags ``coeffs`` ``(m, k, k)`` for ``B`` specs of one
    ``n``, one :func:`simulate_var` call; each draws ``(BURN_IN + n, k)`` noise from its seed."""
    shape = (BURN_IN + specs[0].n, coeffs.shape[-1])
    noise = np.stack([np.random.default_rng(spec.seed).standard_normal(shape) for spec in specs])
    return simulate_var(coeffs, noise)[:, BURN_IN:, :2].swapaxes(-1, -2)


def theoretical_profiles(
    spec: SimSpec,
    grid: FrequencyGrid = FrequencyGrid(GRID_POINTS),
    q: int = Q,
    bands: dict[str, tuple[float, float]] = DEFAULT_BANDS,
) -> tuple[dict[str, SpectralProfile], MeasureReport]:
    """All spectral profiles and the measure report from exact parameters.

    The report carries the ``2q`` truncation warnings of
    :func:`gica.restricted.derive_restricted`.
    """
    return assemble_profiles(build_true_model(spec), q, grid, bands, [])[:2]


def run_confounded_study(
    a: float,
    b: float,
    n_runs: int = 100,
    n: int = 500,
    seed: int = 0,
    grid: FrequencyGrid = FrequencyGrid(GRID_POINTS),
    p_max: int = P_MAX,
    q: int = Q,
) -> tuple[dict[str, SpectralProfile], int]:
    """Average estimated causality/isolation/autonomy over repeated runs.

    The confounded system is built and gated once and simulated ``SURROGATE_BLOCK`` runs at a
    time, each from its ``(seed, run)`` stream. Each block's observed (X, Y) pairs take one
    stacked AIC scan (:func:`gica.varmodel.fit_var_aic_stack`), which fits each run as
    :func:`gica.varmodel.fit_var` alone would, and :func:`gica.spectral.measure_blocks` measures
    its models of each order as one stack. Profiles are summed in run order and averaged. A run
    whose fit or measures fail a gate is skipped; more than 5% failures aborts, naming the first
    failed run and its own error.
    """
    for name, value in (("n_runs", n_runs), ("q", q), ("p_max", p_max)):
        if value < 1:  # a settings error, not a failure of every run
            raise ValueError(f"{name} must be >= 1, got {value}")
    specs = [SimSpec("confounded", n, seed=(seed, run), a=a, b=b) for run in range(n_runs)]
    coeffs, _ = build_confounded_system(a, b)
    sums = {name: np.zeros(grid.n_points) for name in MEASURES}
    failures, first = 0, ""
    for start in range(0, n_runs, SURROGATE_BLOCK):
        x, y = _realizations(coeffs, specs[start : start + SURROGATE_BLOCK]).swapaxes(0, 1)
        results = dict(enumerate(fit_var_aic_stack(x, y, p_max), start))  # a model or its error
        groups: dict[int, list] = {}
        for run, model in results.items():
            if not isinstance(model, ValueError):
                groups.setdefault(model.p, []).append(run)
        for runs in groups.values():
            stack = (np.stack([getattr(results[r], k) for r in runs]) for k in ("coeffs", "sigma"))
            for rows, outcome in measure_blocks(*stack, q, grid, {}):
                failed = isinstance(outcome, ValueError)
                for j, row in enumerate(rows):
                    results[runs[row]] = outcome if failed else {k: outcome[0][k][j] for k in sums}
        for run, result in results.items():
            if isinstance(result, ValueError):
                failures += 1
                first = first or f"first failure, run {run}: {result}"
                continue
            for name in sums:
                sums[name] += result[name]
    if failures > 0.05 * n_runs:
        raise RuntimeError(
            f"confounded study aborted: {failures}/{n_runs} runs failed the fit gates; {first}"
        )
    used = n_runs - failures
    profiles = {
        name: SpectralProfile(grid, sums[name] / used, name) for name in sums
    }
    return profiles, failures
