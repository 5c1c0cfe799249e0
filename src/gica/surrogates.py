"""Residual-resampling surrogate data and significance verdicts.

Two null hypotheses are covered. H1 (no causality, no autonomy beyond
chance): the target surrogate is driven by a self-past-only autoregression,
so any driver-target dependence in the original data is destroyed. H2 (no
autonomy): the target surrogate is driven by the driver's past alone. In
both cases the driver surrogate keeps its full fitted equation (own and
target past), the fitted residuals are permuted without replacement
independently per channel, and the pair is regenerated jointly from zero
initial conditions with a 100-sample burn-in. The driver equation is the
analysed model's row 0; only the null target equation is fitted, by
:func:`gica.varmodel.gated_lstsq`. The draw and the build are two steps, and
both take the surrogates a chunk of rows at a time. :func:`draw_surrogates` draws the
residual indices of a ``range`` of surrogates, row ``i`` from the RNG stream ``(seed,
i)``: both nulls have ``n - p`` driver and ``n - q`` target residuals, so one draw
serves both. :func:`surrogate_generator` makes the null's generator once: it fits the
null target equation, gates :func:`gica.restricted.restricted_lags` of the two equations
with :func:`gica.varmodel.require_stable`, takes the driver residuals and forms the
recursion's block matrices (:func:`gica.varmodel.block_filter`). The build it returns
gathers a chunk's channel-major drive and runs the scan, in which each surrogate is
bit-identical to the same surrogate run alone, into a channel-major ``(2, B, n)`` array.
:func:`gica.pipeline.analyze_pair` draws each chunk once for every hypothesis and keeps
only its fits; :func:`generate_surrogates` is the whole batch at once.

Verdict rules on the surrogate distribution of each measure: causality is
significant above the upper ``1 - alpha`` percentile, isolation below the
lower ``alpha`` percentile, autonomy outside the two-sided
``alpha/2 .. 1 - alpha/2`` band. Percentiles interpolate linearly between
order statistics. :func:`significance_test` returns the verdict as the dict
``report.json`` stores.

The surrogate settings (count, ``alpha``, seed, hypotheses) are fields of
:class:`gica.pipeline.AnalysisConfig`, which checks them when it is built;
each function here takes only the settings it uses. :data:`ALPHA` is ``alpha``'s default.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .restricted import AR_ON_Y, PAST, Q, X_ON_Y, restricted_lags
from .timeseries import TimeSeriesPair, json_number
from .varmodel import BivariateVarModel, block_filter, gated_lstsq, lag_matrix, require_stable

SURROGATE_BURN_IN = 100
ALPHA = 0.05  # default significance level, for the config and the CLI

H1 = "h1"
H2 = "h2"
NULL_KIND = {H1: AR_ON_Y, H2: X_ON_Y}  # hypothesis -> its null target equation's regression

# measure -> (required hypothesis, rejection tail)
TAILS = {
    "gc": (H1, "upper"),
    "gi": (H1, "lower"),
    "ga": (H2, "two-sided"),
}


def fit_restricted_direct(
    x: np.ndarray, y: np.ndarray, kind: str, q: int = Q
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares restricted fit of the target directly on data.

    ``kind`` selects the regressor past, :data:`gica.restricted.PAST`; the hypothesis
    picks it through :data:`NULL_KIND` alone. Returns ``(coeffs, residuals)``.
    """
    if kind not in PAST:
        raise ValueError(f"unknown restricted model kind {kind!r}")
    z = lag_matrix([(x, y)[PAST[kind]]], q)[q:]  # the source's lags 1..q, then ..
    z[:, -1] = y[q:]  # .. the target Y_n in place of the source's present
    coeffs, resid = gated_lstsq(z, q, f"the {kind} regression")
    return coeffs[:, 0], resid[:, 0]


def draw_surrogates(n: int, p: int, q: int, rows: range, seed: int) -> np.ndarray:
    """The residual indices each surrogate of ``rows`` drives ``n`` samples with, ``(2,
    len(rows), SURROGATE_BURN_IN + n)``.

    Row ``i`` of each channel is a permutation, drawn from the RNG stream keyed by ``(seed,
    i)``, of the driver's ``n - p`` residuals (channel 0) and the null target's ``n - q``
    (channel 1); the burn-in reuses it cyclically and the retained stretch restarts it from
    the beginning. The counts do not depend on the hypothesis, so one draw serves both.
    """
    sizes = _residual_counts(n, p, q)
    steps = np.concatenate([np.arange(SURROGATE_BURN_IN), np.arange(n)])
    cyclic = [steps % size for size in sizes]
    drawn = np.empty((2, len(rows), steps.size), dtype=np.intp)
    for j, i in enumerate(rows):
        rng = np.random.default_rng((seed, i))
        for out, size, index in zip(drawn, sizes, cyclic):
            out[j] = rng.permutation(size)[index]
    return drawn


def _residual_counts(n: int, p: int, q: int) -> tuple[int, int]:
    """The driver's and the null target's residual counts, refused when either is empty."""
    if min(n - p, n - q) < 1:  # the null fit refuses these too, but in other words
        raise ValueError(f"series too short for surrogates: {n} samples, {max(p, q)} lags")
    return n - p, n - q


def surrogate_generator(
    pair: TimeSeriesPair, model: BivariateVarModel, hypothesis: str, q: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The build of surrogate pairs under the null ``hypothesis``: a function from
    :func:`draw_surrogates`' indices ``(2, B, SURROGATE_BURN_IN + n)`` to the pairs ``(2, B,
    n)``.

    The driver equation is row 0 of ``model``, the full model fitted to ``pair``, and the
    null target equation is fitted here at ``q`` lags, once; the generator is gated and its
    recursion's block matrices formed here too. Each build gathers both residual series
    into the drive and regenerates the pairs jointly.
    """
    if hypothesis not in NULL_KIND:
        raise ValueError(f"hypothesis must be {H1!r} or {H2!r}, got {hypothesis!r}")
    p = model.p
    _residual_counts(pair.n, p, q)
    z = lag_matrix([pair.x, pair.y], p)[p:]  # [X_{n-1}, Y_{n-1} .. X_{n-p}, Y_{n-p}, X_n, Y_n]
    u = z[:, 2 * p] - z[:, : 2 * p] @ model.coeffs[:, 0].ravel()
    b, v = fit_restricted_direct(pair.x, pair.y, NULL_KIND[hypothesis], q)
    coeffs = restricted_lags(model.coeffs[None], b[None], NULL_KIND[hypothesis])[0]
    require_stable(coeffs, "fitted surrogate generator")
    scan = block_filter(coeffs)

    def build(drawn: np.ndarray) -> np.ndarray:
        drive = np.empty(drawn.shape)  # channel-major: contiguous rows
        for out, resid, index in zip(drive, (u, v), drawn):
            np.take(resid, index, out=out, mode="clip")  # in range: "clip" spares a buffered copy
        return np.moveaxis(scan(np.moveaxis(drive, 0, -1)), -1, 0)[..., SURROGATE_BURN_IN:]

    return build


def generate_surrogates(
    pair: TimeSeriesPair, model: BivariateVarModel, hypothesis: str, n_surrogates: int,
    seed: int = 0, q: int = Q,
) -> np.ndarray:
    """``n_surrogates`` pairs consistent with the null ``hypothesis``, ``(2, B, n)``.

    The :func:`surrogate_generator` build of :func:`draw_surrogates`, all rows at once: each
    surrogate permutes both residual series (independently, without replacement) and
    regenerates the pair jointly. Surrogate ``i`` is ``x, y = series[:, i]`` and draws from
    the RNG stream keyed by ``(seed, i)``, so results are reproducible and order-independent.
    """
    build = surrogate_generator(pair, model, hypothesis, q)
    return build(draw_surrogates(pair.n, model.p, q, range(n_surrogates), seed))


def significance_test(
    measure: str, scope: str, original: float, values: np.ndarray, alpha: float
) -> dict:
    """Verdict of one original measure value against its surrogate ``values``.

    ``measure`` fixes the rejection tail. The verdict is the dict ``report.json``
    stores, with infinities as ``"inf"``. An infinite original isolation value can
    never be significantly low.
    """
    if measure not in TAILS:
        raise ValueError(f"unknown measure {measure!r}; choose from {sorted(TAILS)}")
    tail = TAILS[measure][1]
    # tail -> (lower, upper) percentile; a side without one has an infinite threshold
    lower, upper = {
        "upper": (None, 100 * (1 - alpha)),
        "lower": (100 * alpha, None),
        "two-sided": (100 * alpha / 2, 100 * (1 - alpha / 2)),
    }[tail]
    lo = -np.inf if lower is None else float(np.percentile(values, lower))
    hi = np.inf if upper is None else float(np.percentile(values, upper))
    thresholds = {f"{q:g}": json_number(t) for q, t in ((lower, lo), (upper, hi)) if q is not None}
    return {
        "measure": measure,
        "scope": scope,
        "original": json_number(original),
        "thresholds": thresholds,
        "tail": tail,
        "significant": bool(original < lo or original > hi),
    }
