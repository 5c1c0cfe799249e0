"""End-to-end analysis of one series pair, reusable from code and the CLI.

The pipeline preprocesses the pair, fits the full model once
(:func:`gica.varmodel.fit_var`, fixed order or AIC), and makes one call from
the model to its measures (:func:`gica.spectral.assemble_profiles`): the
stability gate, the restricted models derived analytically from the model's
autocovariance, every spectral profile and the band summaries. It optionally
attaches surrogate significance verdicts, whose settings are checked when
:class:`AnalysisConfig` is built. The analysed model is a stack of one.
Surrogates run a chunk of :data:`SURROGATE_CHUNK` rows at a time: each chunk's
permutations are drawn once (:func:`gica.surrogates.draw_surrogates`) and serve every
hypothesis, whose generator (:func:`gica.surrogates.surrogate_generator`), made once
before the first chunk, builds the chunk's series; each block of
:data:`gica.spectral.SURROGATE_BLOCK` rows is fitted, and only the fits outlive the chunk,
so memory does not grow with the surrogate count: the traced peak of 2 x 100 surrogates
of 2000 samples at order 2 and 2049 points is 4.6 MB, and of 2 x 1000 6.3 MB. Each
hypothesis's joined fits are then measured by the one batch driver,
:func:`gica.spectral.measure_blocks`; :func:`surrogate_values` is the same fits and
measuring of a whole ``(2, B, n)`` batch. Every surrogate of every hypothesis is fitted
before any is measured, so a failing generator or fit, of any hypothesis, fails the
analysis first, with its own error; otherwise the first surrogate that fails a measuring
gate, in the order of the hypotheses, fails it with its own error. Each hypothesis's
surrogates form only the measures :data:`gica.surrogates.TAILS` tests on them: gc and gi for
H1, ga for H2, the latter only on the grid points its band weights touch; every surrogate
passes every model-stage gate. The fitted
innovation covariance is generally not diagonal; all derived quantities use
the strictly causal convention (off-diagonal dropped), and a warning is
attached when the implied residual correlation exceeds 0.2, when AIC picks
``p_max``, or when a channel's residual variance is below ``1e-5`` of its
mean square.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator
from dataclasses import dataclass, field

import numpy as np

from .restricted import Q, RestrictedModel
from .spectral import DEFAULT_BANDS, GRID_POINTS, MEASURES, FrequencyGrid, MeasureReport
from .spectral import SURROGATE_BLOCK, SpectralProfile, assemble_profiles, measure_blocks
from .surrogates import ALPHA, H1, H2, TAILS, draw_surrogates, significance_test, surrogate_generator
from .timeseries import TimeSeriesPair, preprocess
from .varmodel import P_MAX, BivariateVarModel, fit_var, fit_var_stack

RESIDUAL_CORRELATION_WARN = 0.2
NEAR_EXACT_WARN = 1e-5  # residual variance over mean square, far above the fit's eps gate
SURROGATE_CHUNK = 2 * SURROGATE_BLOCK  # surrogates drawn, built and fitted at a time


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of the full analysis pipeline."""

    detrend_cutoff: float | None = None  # a high-pass's zero at f = 0 drives AIC to p_max
    order: int | str = "aic"
    p_max: int = P_MAX
    q: int = Q
    grid_points: int = GRID_POINTS
    bands: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_BANDS)
    )
    n_surrogates: int = 0
    alpha: float = ALPHA
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
        if self.p_max < 1:
            raise ValueError(f"p_max must be >= 1, got {self.p_max}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        FrequencyGrid(self.grid_points)  # refuses a grid of fewer than 2 points, before the fit
        if self.n_surrogates < 0:
            raise ValueError(f"n_surrogates must be >= 0, got {self.n_surrogates}")
        for hyp in self.hypotheses:
            if hyp not in (H1, H2):
                raise ValueError(f"unknown hypothesis {hyp!r}")
        if len(set(self.hypotheses)) < len(self.hypotheses):
            raise ValueError(f"each hypothesis may be given once, got {tuple(self.hypotheses)}")
        # the surrogate settings fail now, not after the fit, and only if surrogates are drawn
        if 0 < self.n_surrogates < 2:
            raise ValueError(f"need at least 2 surrogates, got {self.n_surrogates}")
        if self.n_surrogates > 0 and not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_surrogates > 0 and not self.hypotheses:
            raise ValueError("surrogates need at least one hypothesis to test")


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
    series: np.ndarray, order: int, q: int, grid: FrequencyGrid, bands: dict,
    measures: Collection[str] = MEASURES,
) -> dict[tuple[str, str], np.ndarray]:
    """``measures`` (gc, gi and ga by default) of every pair of ``series`` ``(2, B, n)``, keyed
    by ``(measure, scope)``.

    Each block of ``SURROGATE_BLOCK`` pairs, sliced from ``series`` without a copy, is fitted
    by :func:`gica.varmodel.fit_var_stack`, and the joined fits take one
    :func:`gica.spectral.measure_blocks` call; only each block's report is kept,
    ``measure_stack``'s of the block bit for bit. The grid stage forms
    only what ``measures`` read: without ga no ``det E``, ``det F`` or ga profile, without gc
    and gi neither of their profiles. Every surrogate still passes every model-stage gate (the
    full model's and the mixed model's Schur-Cohn gates, ``F_xy, A_y >= 0``); those imply the
    singular-transfer checks an H1 block skips, as a polynomial with no root in the closed unit
    disk has no zero on the circle. Every block is fitted before any is measured, so the first
    block whose fit fails fails the call with its block's error. Otherwise the first surrogate
    that fails a measuring gate fails the call with its own error.
    """
    return _measured(list(_fitted(series, order)), q, grid, bands, measures)


def _fitted(series: np.ndarray, order: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``fit_var_stack`` of each block of ``SURROGATE_BLOCK`` pairs of ``series``, in order."""
    for i in range(0, series.shape[1], SURROGATE_BLOCK):
        yield fit_var_stack(*series[:, i : i + SURROGATE_BLOCK], order)


def _measured(
    fits: list[tuple[np.ndarray, np.ndarray]], q: int, grid: FrequencyGrid, bands: dict,
    measures: Collection[str],
) -> dict[tuple[str, str], np.ndarray]:
    """:func:`surrogate_values` of the joined block ``fits``."""
    coeffs, sigma = map(np.concatenate, zip(*fits))
    reports = []
    for _, outcome in measure_blocks(coeffs, sigma, q, grid, bands, measures):
        if isinstance(outcome, ValueError):
            raise outcome
        reports.append(outcome[1])
    return {
        (measure, scope): np.concatenate([r.value(measure, scope) for r in reports])
        for measure in measures
        for scope in ("time", *bands)
    }


def _significance(
    result: AnalysisResult, config: AnalysisConfig, grid: FrequencyGrid
) -> dict:
    """Surrogate verdicts for every requested hypothesis, measure, and scope."""
    out: dict = {"n_surrogates": config.n_surrogates, "alpha": config.alpha, "seed": config.seed}
    pair, model, q = result.pair, result.model, config.q
    builds = {hyp: surrogate_generator(pair, model, hyp, q) for hyp in config.hypotheses}
    fits: dict[str, list] = {hyp: [] for hyp in builds}
    for start in range(0, config.n_surrogates, SURROGATE_CHUNK):
        rows = range(start, min(start + SURROGATE_CHUNK, config.n_surrogates))
        drawn = draw_surrogates(pair.n, model.p, q, rows, config.seed)
        # every null is built before any is fitted: built and fitted in turn, glibc's malloc
        # handed the fits' scratch memory back to the system and faulted it in again
        series = {hyp: build(drawn) for hyp, build in builds.items()}
        for hyp, pairs in series.items():
            fits[hyp].extend(_fitted(pairs, result.order))
        del drawn, series  # only the fits outlive a chunk, not even into the next one's build
    for hyp, blocks in fits.items():
        measures = [measure for measure, (needed, _) in TAILS.items() if needed == hyp]
        values = _measured(blocks, q, grid, config.bands, measures)
        out[hyp] = {
            measure: {
                scope: significance_test(
                    measure, scope, result.report.value(measure, scope),
                    values[measure, scope], config.alpha,
                )
                for scope in ("time", *config.bands)
            }
            for measure in measures
        }
    return out
