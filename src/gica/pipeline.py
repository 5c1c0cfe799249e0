"""End-to-end analysis of one series pair, reusable from code and the CLI.

The pipeline preprocesses the pair, fits the full model (fixed order or
AIC), derives the restricted models analytically from the fitted model's
autocovariance (:func:`gica.restricted.derive_restricted`, whose first
step is the model's stability gate), computes all spectral profiles and
band summaries in one pass (:func:`gica.spectral.assemble_profiles`), and
optionally attaches surrogate significance verdicts, each surrogate refit
going through the same two calls. The fitted innovation covariance is
generally not diagonal; all derived quantities use the strictly causal
convention (off-diagonal dropped), and a warning is attached when the
implied residual correlation exceeds 0.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .restricted import RestrictedModel, derive_restricted
from .spectral import (
    DEFAULT_BANDS,
    FrequencyGrid,
    MeasureReport,
    SpectralProfile,
    assemble_profiles,
)
from .surrogates import H1, H2, SurrogateConfig, generate_surrogates, significance_test
from .timeseries import TimeSeriesPair, preprocess
from .varmodel import BivariateVarModel, fit_var, select_order_aic

RESIDUAL_CORRELATION_WARN = 0.2


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the full analysis pipeline."""

    detrend_cutoff: float | None = 0.0156
    order: int | str = "aic"
    p_max: int = 14
    q: int = 20
    grid_points: int = 2049
    bands: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_BANDS)
    )
    n_surrogates: int = 0
    alpha: float = 0.05
    hypotheses: tuple[str, ...] = (H1, H2)
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.order, str):
            if self.order != "aic":
                raise ValueError(f"order must be an integer or 'aic', got {self.order!r}")
        elif self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.n_surrogates < 0:
            raise ValueError(f"n_surrogates must be >= 0, got {self.n_surrogates}")
        for hyp in self.hypotheses:
            if hyp not in (H1, H2):
                raise ValueError(f"unknown hypothesis {hyp!r}")


@dataclass
class AnalysisResult:
    """Everything one analysis produced."""

    pair: TimeSeriesPair
    order: int
    model: BivariateVarModel
    rest_ar: RestrictedModel
    rest_x: RestrictedModel
    profiles: dict[str, SpectralProfile]
    report: MeasureReport


def analyze_pair(pair: TimeSeriesPair, config: AnalysisConfig) -> AnalysisResult:
    """Run the full pipeline on one pair."""
    clean = preprocess(pair, config.detrend_cutoff)
    if config.order == "aic":
        order = select_order_aic(clean.x, clean.y, config.p_max)
    else:
        order = int(config.order)
    fitted = fit_var(clean.x, clean.y, order)
    warnings: list[str] = []
    resid_corr = fitted.residual_correlation()
    if abs(resid_corr) > RESIDUAL_CORRELATION_WARN:
        warnings.append(
            f"residual cross-correlation {resid_corr:.3f} exceeds "
            f"{RESIDUAL_CORRELATION_WARN}; the strictly causal decomposition "
            "may be distorted"
        )
    model = fitted.diagonalized()
    rest_ar, rest_x = derive_restricted(model, config.q, warnings)
    grid = FrequencyGrid(config.grid_points, pair.fs)
    profiles, report = assemble_profiles(
        model, rest_ar, rest_x, grid, config.bands, warnings
    )
    result = AnalysisResult(
        pair=clean,
        order=order,
        model=model,
        rest_ar=rest_ar,
        rest_x=rest_x,
        profiles=profiles,
        report=report,
    )
    if config.n_surrogates > 0:
        report.significance = _significance(result, config, grid)
    return result


def _significance(
    result: AnalysisResult, config: AnalysisConfig, grid: FrequencyGrid
) -> dict:
    """Surrogate verdicts for every requested hypothesis, measure, and scope."""
    out: dict = {
        "n_surrogates": config.n_surrogates,
        "alpha": config.alpha,
        "seed": config.seed,
    }
    for hyp in config.hypotheses:
        sur_config = SurrogateConfig(
            n_surrogates=config.n_surrogates,
            alpha=config.alpha,
            seed=config.seed,
            hypothesis=hyp,
        )
        surrogate_pairs = generate_surrogates(
            result.pair, sur_config, result.order, config.q
        )
        reports = []
        for sur in surrogate_pairs:
            model = fit_var(sur.x, sur.y, result.order).diagonalized()
            rest_ar, rest_x = derive_restricted(model, config.q)
            reports.append(assemble_profiles(model, rest_ar, rest_x, grid, config.bands)[1])
        tested = ("gc", "gi") if hyp == H1 else ("ga",)
        out[hyp] = {}
        for measure in tested:
            out[hyp][measure] = {}
            for scope in ("time", *config.bands):
                verdict = significance_test(
                    measure,
                    scope,
                    result.report.value(measure, scope),
                    np.array([r.value(measure, scope) for r in reports]),
                    sur_config,
                )
                out[hyp][measure][scope] = verdict.to_dict()
    return out
