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

Two-process systems run as :func:`gica.varmodel.simulate_var` of their exact
model, the three-process confounded system as a cascade of ``lfilter`` calls
on the coefficients :func:`build_confounded_system` returns.

Theoretical profiles take an analysis's one call from a model to its
measures, :func:`gica.spectral.assemble_profiles`; each confounded-study run
takes a surrogate block's, :func:`gica.spectral.measure_stack` of the model
:func:`gica.varmodel.fit_var` reads off its AIC scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .spectral import DEFAULT_BANDS, FrequencyGrid, MeasureReport, SpectralProfile
from .spectral import assemble_profiles, measure_stack
from .timeseries import TimeSeriesPair
from .varmodel import BivariateVarModel, fit_var, poles_to_ar_coeffs, require_stable
from .varmodel import simulate_var

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

SYSTEMS = ("open_loop", "closed_loop", "confounded", "benchmark")


@dataclass(frozen=True)
class SimSpec:
    """Choice of system, parameters, length, and seed for one realization.

    ``b`` scales the target's autonomous pole modulus, ``c`` the driver
    coupling, ``d`` the feedback (closed loop only), ``a`` the confounder
    coupling (confounded only). ``setting`` selects a benchmark column.
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
            raise ValueError(f"unknown system {self.system!r}; choose from {SYSTEMS}")
        if self.n < 1:
            raise ValueError(f"length must be >= 1, got {self.n}")
        for name in ("b", "c", "d", "a"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"parameter {name} must lie in [0, 1], got {value}")
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


def _shift1(series: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], series[:-1]))


def _ar_filter(lags: np.ndarray, drive: np.ndarray) -> np.ndarray:
    # s_n = sum_k lags[k-1] s_{n-k} + drive_n, zero initial conditions
    return lfilter([1.0], np.concatenate(([1.0], -lags)), drive)


def simulate(spec: SimSpec) -> TimeSeriesPair:
    """One seed-deterministic realization of length ``spec.n``.

    A 1000-sample burn-in from zero initial conditions is generated and
    discarded. Unit sampling rate is attached.
    """
    if spec.system == "confounded":
        return _confounded_pair(build_confounded_system(spec.a, spec.b)[0], spec)
    rng = np.random.default_rng(spec.seed)
    x, y = simulate_var(build_true_model(spec).coeffs, rng.standard_normal((BURN_IN + spec.n, 2))).T
    return TimeSeriesPair(x[BURN_IN:], y[BURN_IN:], 1.0)


def _confounded_pair(coeffs: np.ndarray, spec: SimSpec) -> TimeSeriesPair:
    """:func:`simulate` of a confounded ``spec`` from its gated system ``coeffs`` ``(2, 3, 3)``."""
    noise = np.random.default_rng(spec.seed).standard_normal((BURN_IN + spec.n, 3))
    # X and Z run on their own lags; Y adds their lag-1 terms to its drive
    x, z = (_ar_filter(coeffs[:, i, i], noise[:, i]) for i in (0, 2))
    drive = coeffs[0, 1, 0] * _shift1(x) + coeffs[0, 1, 2] * _shift1(z) + noise[:, 1]
    y = _ar_filter(coeffs[:, 1, 1], drive)
    return TimeSeriesPair(x[BURN_IN:], y[BURN_IN:], 1.0)


def theoretical_profiles(
    spec: SimSpec,
    grid: FrequencyGrid | None = None,
    q: int = 20,
    bands: dict[str, tuple[float, float]] | None = None,
) -> tuple[dict[str, SpectralProfile], MeasureReport]:
    """All spectral profiles and the measure report from exact parameters.

    The report carries the ``2q`` truncation warnings of
    :func:`gica.restricted.derive_restricted`.
    """
    if grid is None:
        grid = FrequencyGrid.default()
    if bands is None:
        bands = DEFAULT_BANDS
    return assemble_profiles(build_true_model(spec), q, grid, bands, [])[:2]


def theoretical_sweep(
    base: SimSpec,
    param: str,
    values: list[float],
    grid: FrequencyGrid | None = None,
    q: int = 20,
    bands: dict[str, tuple[float, float]] | None = None,
) -> list[tuple[float, dict[str, SpectralProfile], MeasureReport]]:
    """Theoretical profiles for each value of one swept parameter."""
    if param not in ("b", "c", "d"):
        raise ValueError(f"sweep parameter must be b, c, or d, got {param!r}")
    out = []
    for value in values:
        profiles, report = theoretical_profiles(replace(base, **{param: value}), grid, q, bands)
        out.append((value, profiles, report))
    return out


def run_confounded_study(
    a: float,
    b: float,
    n_runs: int = 100,
    n: int = 500,
    seed: int = 0,
    grid: FrequencyGrid | None = None,
    p_max: int = 14,
    q: int = 20,
) -> tuple[dict[str, SpectralProfile], int]:
    """Average estimated causality/isolation/autonomy over repeated runs.

    The confounded system is built and gated once; each run simulates it,
    fits a bivariate model on the observed (X, Y) with AIC order selection,
    and computes the spectral measures; profiles are averaged pointwise. Runs
    whose fit fails the stability gates are skipped; more than 5% failures aborts.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if grid is None:
        grid = FrequencyGrid.default()
    specs = [SimSpec("confounded", n, seed=(seed, run), a=a, b=b) for run in range(n_runs)]
    coeffs, _ = build_confounded_system(a, b)
    sums = {name: np.zeros(grid.n_points) for name in ("gc", "gi", "ga")}
    failures = 0
    for spec in specs:
        pair = _confounded_pair(coeffs, spec)
        try:
            model = fit_var(pair.x, pair.y, "aic", p_max)
            profiles = measure_stack(model.coeffs[None], model.sigma[None], q, grid, {})[1]
        except ValueError:
            failures += 1
            continue
        for name in sums:
            sums[name] += profiles[name][0]
    if failures > 0.05 * n_runs:
        raise RuntimeError(
            f"confounded study aborted: {failures}/{n_runs} runs failed the fit gates"
        )
    used = n_runs - failures
    profiles = {
        name: SpectralProfile(grid, sums[name] / used, name) for name in sums
    }
    return profiles, failures
