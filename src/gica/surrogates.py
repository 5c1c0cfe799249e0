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
:func:`gica.varmodel.gated_lstsq`. The generator, :func:`gica.restricted.restricted_lags`
of the two, is gated by :func:`gica.varmodel.require_stable`; the whole batch's
channel-major drive runs through one call of :func:`gica.varmodel.simulate_var`,
a block-state matmul scan in which each surrogate is bit-identical to the same
surrogate run alone, and the batch is returned as a channel-major ``(2, B, n)``
array, which :func:`gica.pipeline.surrogate_values` slices into blocks without a
copy.

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

import numpy as np

from .restricted import AR_ON_Y, PAST, Q, X_ON_Y, restricted_lags
from .timeseries import TimeSeriesPair, json_number
from .varmodel import BivariateVarModel, gated_lstsq, lag_matrix, require_stable, simulate_var

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


def generate_surrogates(
    pair: TimeSeriesPair, model: BivariateVarModel, hypothesis: str, n_surrogates: int,
    seed: int = 0, q: int = Q,
) -> np.ndarray:
    """``n_surrogates`` pairs consistent with the null ``hypothesis``, ``(2, B, n)``.

    The driver equation is row 0 of ``model``, the full model fitted to ``pair``, and the
    null target equation is fitted at ``q`` lags; each surrogate permutes both residual
    series (independently, without replacement) and regenerates the pair jointly.
    Surrogate ``i`` is ``x, y = series[:, i]`` and draws from the RNG stream keyed by
    ``(seed, i)``, so results are reproducible and order-independent.
    """
    if hypothesis not in NULL_KIND:
        raise ValueError(f"hypothesis must be {H1!r} or {H2!r}, got {hypothesis!r}")
    p = model.p
    z = lag_matrix([pair.x, pair.y], p)[p:]  # [X_{n-1}, Y_{n-1} .. X_{n-p}, Y_{n-p}, X_n, Y_n]
    u = z[:, 2 * p] - z[:, : 2 * p] @ model.coeffs[:, 0].ravel()
    b, v = fit_restricted_direct(pair.x, pair.y, NULL_KIND[hypothesis], q)
    coeffs = restricted_lags(model.coeffs[None], b[None], NULL_KIND[hypothesis])[0]
    require_stable(coeffs, "fitted surrogate generator")

    # burn-in reuses the permuted residuals cyclically, the retained
    # stretch restarts them from the beginning
    steps = np.concatenate([np.arange(SURROGATE_BURN_IN), np.arange(pair.n)])
    cyclic = [steps % resid.size for resid in (u, v)]
    drive = np.empty((2, n_surrogates, steps.size))  # channel-major: contiguous rows
    for i in range(n_surrogates):
        rng = np.random.default_rng((seed, i))
        for out, resid, index in zip(drive, (u, v), cyclic):
            out[i] = rng.permutation(resid)[index]
    series = np.moveaxis(simulate_var(coeffs, np.moveaxis(drive, 0, -1)), -1, 0)
    return series[..., SURROGATE_BURN_IN:]


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
