"""End-to-end analysis of one series pair, reusable from code and the CLI.

The pipeline preprocesses the pair, fits the full model once
(:func:`gica.varmodel.fit_var`, fixed order or AIC), and makes one call from
the model to its measures (:func:`gica.spectral.assemble_profiles`): the
stability gate, the restricted models derived analytically from the model's
autocovariance, every spectral profile and the band summaries. It optionally
attaches surrogate significance verdicts, whose settings are checked when
:class:`AnalysisConfig` is built. The analysed model is a stack of one;
surrogates take the same call, :func:`gica.spectral.measure_stack`, in blocks
of ``SURROGATE_BLOCK`` rows of the array
:func:`gica.surrogates.generate_surrogates` returns
(:func:`surrogate_values`). The fitted innovation covariance is generally
not diagonal; all derived quantities use the strictly causal convention
(off-diagonal dropped), and a warning is attached when the implied
residual correlation exceeds 0.2, when AIC picks ``p_max``, or when a
channel's residual variance is below ``1e-5`` of its mean square.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .restricted import RestrictedModel
from .spectral import DEFAULT_BANDS, FrequencyGrid, MeasureReport, SpectralProfile
from .spectral import assemble_profiles, measure_stack
from .surrogates import H1, H2, TAILS, SurrogateConfig, generate_surrogates, significance_test
from .timeseries import TimeSeriesPair, preprocess
from .varmodel import BivariateVarModel, fit_var, fit_var_stack

RESIDUAL_CORRELATION_WARN = 0.2
NEAR_EXACT_WARN = 1e-5  # residual variance over mean square, far above the fit's eps gate
SURROGATE_BLOCK = 10  # near the speed of larger blocks, at a tenth of their memory


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
        if isinstance(self.order, bool) or not isinstance(self.order, (int, np.integer)):
            if self.order != "aic":  # a float or a bool would be truncated to an order silently
                raise ValueError(f"order must be an integer or 'aic', got {self.order!r}")
        elif self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if "time" in self.bands:
            raise ValueError("a band may not be named 'time', the time-domain scope's key")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.n_surrogates < 0:
            raise ValueError(f"n_surrogates must be >= 0, got {self.n_surrogates}")
        for hyp in self.hypotheses:
            if hyp not in (H1, H2):
                raise ValueError(f"unknown hypothesis {hyp!r}")
            if self.n_surrogates > 0:
                self.surrogate_config(hyp)  # its checks now, not after the fit

    def surrogate_config(self, hypothesis: str) -> SurrogateConfig:
        return SurrogateConfig(self.n_surrogates, self.alpha, self.seed, hypothesis)


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
    fitted = fit_var(clean.x, clean.y, config.order, config.p_max)
    warnings: list[str] = []
    if config.order == "aic" and fitted.p == config.p_max:
        warnings.append(f"AIC picked order {fitted.p} = p_max; the true order may be higher")
    resid_corr = fitted.residual_correlation()
    if abs(resid_corr) > RESIDUAL_CORRELATION_WARN:
        warnings.append(
            f"residual cross-correlation {resid_corr:.3f} exceeds "
            f"{RESIDUAL_CORRELATION_WARN}; the strictly causal decomposition "
            "may be distorted"
        )
    ratios = np.diag(fitted.sigma) / np.mean(np.square([clean.x, clean.y]), axis=-1)
    for channel, ratio in zip(("driver", "target"), ratios):
        if ratio < NEAR_EXACT_WARN:
            warnings.append(
                f"the {channel}'s residual variance is {ratio:.2g} of its mean square: a "
                "near-exact function of the past, so the measures built on it are unreliable"
            )
    model = fitted.diagonalized()
    grid = FrequencyGrid(config.grid_points, pair.fs)
    profiles, report, rest = assemble_profiles(model, config.q, grid, config.bands, warnings)
    result = AnalysisResult(clean, fitted.p, model, *rest, profiles, report)
    if config.n_surrogates > 0:
        report.significance = _significance(result, config, grid)
    return result


def surrogate_values(
    series: np.ndarray, order: int, q: int, grid: FrequencyGrid, bands: dict
) -> dict[tuple[str, str], np.ndarray]:
    """gc, gi and ga of every pair of ``series`` ``(2, B, n)``, keyed by ``(measure, scope)``.

    Each block of ``SURROGATE_BLOCK`` pairs, sliced from ``series`` without a
    copy, is one :func:`gica.varmodel.fit_var_stack` and :func:`gica.spectral.measure_stack`
    pass: fit, gate, autocovariance, restricted models, measures. Any gate fails the block.
    """
    reports = []
    for start in range(0, series.shape[1], SURROGATE_BLOCK):
        x, y = series[:, start : start + SURROGATE_BLOCK]
        reports.append(measure_stack(*fit_var_stack(x, y, order), q, grid, bands)[2])
    return {
        (measure, scope): np.concatenate([r.value(measure, scope) for r in reports])
        for measure in TAILS
        for scope in ("time", *bands)
    }


def _significance(
    result: AnalysisResult, config: AnalysisConfig, grid: FrequencyGrid
) -> dict:
    """Surrogate verdicts for every requested hypothesis, measure, and scope."""
    out: dict = {"n_surrogates": config.n_surrogates, "alpha": config.alpha, "seed": config.seed}
    for hyp in config.hypotheses:
        sur_config = config.surrogate_config(hyp)
        series = generate_surrogates(result.pair, sur_config, result.order, config.q)
        values = surrogate_values(series, result.order, config.q, grid, config.bands)
        out[hyp] = {
            measure: {
                scope: significance_test(
                    measure, scope, result.report.value(measure, scope),
                    values[measure, scope], sur_config,
                ).to_dict()
                for scope in ("time", *config.bands)
            }
            for measure, (needed, _) in TAILS.items()
            if needed == hyp
        }
    return out
