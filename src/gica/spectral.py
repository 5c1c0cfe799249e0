"""Frequency-domain decomposition of causality, isolation, and autonomy.

Given a stable full model with diagonal innovation covariance
``diag(s2_x, s2_y)`` and transfer matrix ``H(f) = [I - sum_k A_k
e^(-2i pi f k)]^(-1)`` (``f`` is normalized frequency in [0, 1/2]), the
target spectrum factorizes into a causal and an internal part:

    P_Y(f) = s2_x |H_yx(f)|^2 + s2_y |H_yy(f)|^2.

The squared directed coherences are the two shares of ``P_Y``, and

    causality  gc(f) = -ln(1 - |dc_yx(f)|^2)   (driver share)
    isolation  gi(f) = -ln(1 - |dc_yy(f)|^2)   (internal share)

so ``gi`` is ``+inf`` where the causal contribution vanishes exactly.
Autonomy compares the full ``H_yy`` with the transfer ``G_yy`` of a mixed
model in which the target equation keeps only the driver's past:

    a(f) = ln( s2_yx |H_yy(f)|^2 / (s2_y |G_yy(f)|^2) ),

with ``s2_yx`` the residual variance of the driver-only regression. Each
spectral measure integrates back to its time-domain counterpart,
``2 * integral over [0, 1/2]``, and the zero-mean shape
``abar(f) = a(f) - A_Y`` integrates to zero.

The measures need only ratios: with ``E = I - A(f)`` and ``F`` the mixed
model's matrix, ``|H_yx|^2 / |H_yy|^2 = |E_yx|^2 / |E_xx|^2`` and ``|H_yy|^2
/ |G_yy|^2 = |det F|^2 / |det E|^2``, so no transfer matrix is formed.
:func:`measure_stack` is the one place models become measures: it takes a
stack of full models ``(coeffs, sigma)`` through two stages. The model stage
derives both restricted models with :func:`gica.restricted.derive_restricted`,
passes the mixed models through the gate every model does, and gives ``F_xy``
and ``A_y``; its arrays are ``(B, ...)``. The grid stage takes ``E`` and ``det F =
E_xx + E_xy B_yx`` of the stack from a cached DFT table per grid, and every band
mean and ``F_y`` from one product with a cached weight matrix per grid and band
set; its arrays are ``(B, n)``. :func:`measure_blocks` is the one batch driver, for
surrogates and study runs alike: on one order's stack, the model stage per chunk of rows, the
grid stage per block, and every row of a chunk or block that fails a gate alone. The grid
stage forms only the measures its caller reads: H1 surrogates form the shares and gc and gi,
H2 surrogates the shares, ``det E``, ``det F`` and ga, and those only on the window of grid
points the weights of their bands touch. Every model passes every model-stage gate, whose
Schur-Cohn tests imply the singular-transfer checks an H1 block skips and, off the window,
those of an H2 block and its zero-PSD gate.
:func:`assemble_profiles` is :func:`measure_stack`'s batch of one, plus display spectra from
its ``E``, ``det E`` and shares. :data:`GRID_POINTS` is the default grid size.
"""

from __future__ import annotations

import functools
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field

import numpy as np

from .restricted import AR_ON_Y, X_ON_Y, RestrictedModel, derive_restricted, restricted_lags
from .timeseries import json_number
from .varmodel import BivariateVarModel, UnstableModelError, require_stable

GRID_POINTS = 2049  # default grid size, for the library, the config and the CLI


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid of normalized frequencies spanning [0, 1/2].

    Parameters
    ----------
    n_points : int
        Number of grid points (>= 2); endpoints are always included.
    fs : float
        Sampling frequency in Hz, used only for display conversion.
    """

    n_points: int
    fs: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.n_points}")
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"sampling rate must be positive, got {self.fs}")

    @property
    def values(self) -> np.ndarray:
        """Normalized frequencies, ``values[0] == 0``, ``values[-1] == 0.5``."""
        return np.linspace(0.0, 0.5, self.n_points)

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.values * self.fs

    @property
    def step(self) -> float:
        """Normalized-frequency spacing."""
        return 0.5 / (self.n_points - 1)


@dataclass(frozen=True)
class SpectralProfile:
    """Values of one spectral measure on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray
    measure_name: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid size {self.grid.n_points}"
            )
        if np.isnan(values).any():
            raise ValueError(f"profile {self.measure_name!r} contains NaN")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


_DFT_TABLES: dict[int, np.ndarray] = {}


def _dft_table(grid: FrequencyGrid, lags: int, window: slice = slice(None)) -> np.ndarray:
    """Rows ``(-cos, sin)(2 pi f_j k)``, interleaved over the ``w`` grid points ``j`` of
    ``window``, ``(lags, 2 w)`` for lags ``k = 1 .. lags``: a view of one table per grid size,
    grown to the most lags seen. The angle is indexed as ``(j k) mod M``, so it is exact for
    any lag."""
    n = grid.n_points
    table = _DFT_TABLES.get(n)
    if table is None or table.shape[0] < lags:
        size = 2 * (n - 1)
        angle = 2 * np.pi / size * (np.outer(np.arange(1, lags + 1), np.arange(n)) % size)
        table = _DFT_TABLES[n] = np.stack([-np.cos(angle), np.sin(angle)], -1).reshape(lags, -1)
        table.setflags(write=False)
    return table[:lags].reshape(lags, n, 2)[:, window].reshape(lags, -1)


def _lag_transform(
    coeffs: np.ndarray, grid: FrequencyGrid, window: slice = slice(None)
) -> np.ndarray:
    """``I - sum_k A_k e^(-2i pi f k)`` of lags ``(B, m, k, k)`` on the ``w`` grid points of
    ``window``, ``(B, w, k, k)``.

    Each model's lags ``(k k, m)`` times :func:`_dft_table` give the real and imaginary
    parts in place, a product per model, so a row does not depend on the batch. The grid is
    ``j / M``, ``M = 2 (n - 1)``, so lags ``k >= M`` alias onto ``k mod M``.
    """
    b, m, k = coeffs.shape[:3]
    parts = np.swapaxes(coeffs.reshape(b, m, k * k), 1, 2) @ _dft_table(grid, m, window)
    parts[:, :: k + 1, 0::2] += 1.0  # the real part of the identity
    return np.moveaxis(parts.view(complex).reshape(b, k, k, parts.shape[-1] // 2), -1, 1)


def _nonsingular(det: np.ndarray, what: str) -> np.ndarray:
    """``det``, a model's transfer determinants on the grid, unless one is zero."""
    if np.any(det == 0):
        raise UnstableModelError(f"{what} transfer is singular on the frequency grid")
    return det


def _nonnegative(value: np.ndarray, name: str) -> np.ndarray:
    # projection inequalities guarantee >= 0 up to roundoff
    if np.any(value < -1e-9):
        raise ValueError(f"{name} is negative ({np.min(value):.6g}); inconsistent models")
    return np.maximum(value, 0.0)


def _band_weights(grid: FrequencyGrid, lo: float, hi: float) -> np.ndarray:
    """Weights ``w`` with ``w @ values`` the band integral over normalized ``[lo, hi]``."""
    values = grid.values
    nodes = np.concatenate([[lo], values[(values > lo) & (values < hi)], [hi]])
    node_w = np.diff(nodes, prepend=lo) + np.diff(nodes, append=hi)  # 2 * trapezoid
    j = np.clip(np.searchsorted(values, nodes, side="right") - 1, 0, grid.n_points - 2)
    t = (nodes - values[j]) / (values[j + 1] - values[j])
    weights = np.zeros(grid.n_points)
    np.add.at(weights, j, node_w * (1 - t))
    np.add.at(weights, j + 1, node_w * t)
    return weights


@functools.lru_cache(maxsize=64)
def _band_matrix(grid: FrequencyGrid, edges: tuple[tuple[float, float], ...]) -> np.ndarray:
    """:func:`_band_weights` ``(n, len(edges))`` of each normalized band in ``edges``."""
    weights = np.stack([_band_weights(grid, lo, hi) for lo, hi in edges], axis=-1)
    weights.setflags(write=False)
    return weights


def _band_edges(grid: FrequencyGrid, bands_hz: list[tuple[float, float]]) -> tuple:
    """The normalized edges of ``(lo, hi)`` Hz bands, each checked to lie in ``[0, fs/2]``."""
    fs = grid.fs
    for lo, hi in bands_hz:
        if not 0 <= lo < hi <= fs / 2:
            raise ValueError(f"band [{lo}, {hi}] Hz must satisfy 0 <= lo < hi <= {fs / 2}")
    return tuple((lo / fs, hi / fs) for lo, hi in bands_hz)


def _band_integrals(
    values: np.ndarray, grid: FrequencyGrid, bands_hz: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals and means ``(..., len(bands_hz))`` of rows ``(..., n)`` over ``(lo, hi)`` Hz
    bands: a product per row with one cached weight matrix, so a row does not depend on the
    batch. A band is ``inf`` where its weights touch an ``inf`` of the row, and only there."""
    edges = _band_edges(grid, bands_hz)
    weights, isinf = _band_matrix(grid, edges), np.isinf(values)
    integrals = (np.where(isinf, 0.0, values)[..., None, :] @ weights)[..., 0, :]
    rows = isinf.any(axis=-1)  # only rows holding an inf pay for the check
    integrals[rows] = np.where(isinf[rows] @ (weights != 0), np.inf, integrals[rows])
    return integrals, integrals / (2.0 * np.array([hi - lo for lo, hi in edges]))


MEASURES = ("gc", "gi", "ga")  # causality, isolation, autonomy: the measures a report holds
TIME_KEYS = dict(zip(MEASURES, ("F_xy", "F_y", "A_y")))  # measure -> its time-domain value's key

# default analysis bands in Hz: very-low- and low-frequency
DEFAULT_BANDS: dict[str, tuple[float, float]] = {
    "VLF": (0.02, 0.07),
    "LF": (0.07, 0.2),
}


def _band_stack(profiles: dict[str, np.ndarray], grid: FrequencyGrid, bands: dict) -> tuple:
    """Band table of the ``(B, n)`` profiles of :data:`MEASURES` in ``profiles`` and their
    full-band integrals ``{m: (B,)}``, from one :func:`_band_integrals`."""
    measures = [m for m in MEASURES if m in profiles]
    integrals, means = _band_integrals(
        np.stack([profiles[m] for m in measures]), grid, [*bands.values(), (0.0, grid.fs / 2)]
    )
    table = {
        band: {
            m: {"integral": integrals[i, :, j], "mean": means[i, :, j]}
            for i, m in enumerate(measures)
        }
        for j, band in enumerate(bands)
    }
    return table, dict(zip(measures, integrals[..., -1]))


def _band_window(grid: FrequencyGrid, bands: dict) -> slice:
    """One slice of the grid points the cached weights of ``bands`` touch (the full band's, the
    last column, touch all), empty without bands. Its ends are rounded out to even points, so
    the BLAS kernel takes a table product's columns over the window in the groups of 4 it takes
    them in over the whole grid, where only a last odd pair takes another path: the window's
    values are the whole grid's bit for bit."""
    weights = _band_matrix(grid, _band_edges(grid, [*bands.values(), (0.0, grid.fs / 2)]))
    touched = np.flatnonzero(weights[:, :-1].any(axis=1))
    if not touched.size:
        return slice(0, 0)
    return slice(touched[0] // 2 * 2, min(grid.n_points, -(-(touched[-1] + 1) // 2) * 2))


def _band_row(table: dict, i: int) -> dict[str, dict[str, dict[str, float]]]:
    return {
        band: {m: {k: float(v[i]) for k, v in pair.items()} for m, pair in cells.items()}
        for band, cells in table.items()
    }


@dataclass
class MeasureReport:
    """Complete numeric outcome of one analysis.

    ``bands`` maps band name to measure name (``gc``/``gi``/``ga``) to a
    ``{"integral": ..., "mean": ...}`` pair; ``significance`` is filled by
    surrogate testing when requested.
    """

    f_xy: float
    f_y: float
    a_y: float
    bands: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    significance: dict | None = None

    def value(self, measure: str, scope: str) -> float:
        """Time-domain value (``scope == "time"``) or band mean of gc, gi or ga."""
        if scope == "time":
            return dict(zip(MEASURES, (self.f_xy, self.f_y, self.a_y)))[measure]
        return self.bands[scope][measure]["mean"]

    def to_dict(self) -> dict:
        out = {
            "schema": 1,
            **{key: json_number(self.value(m, "time")) for m, key in TIME_KEYS.items()},
            "bands": {
                band: {
                    measure: {key: json_number(val) for key, val in pair.items()}
                    for measure, pair in measures.items()
                }
                for band, measures in self.bands.items()
            },
            "warnings": list(self.warnings),
        }
        if self.significance is not None:
            out["significance"] = self.significance
        return out


SURROGATE_BLOCK = 10  # rows per grid stage: near larger blocks' speed, a tenth of their memory


def _model_stage(
    coeffs: np.ndarray, sigma: np.ndarray, q: int, warnings: list[str] | None = None
) -> tuple[tuple, tuple]:
    """The model-sized half of :func:`measure_stack`: ``restricted`` and the rows its grid stage
    takes, ``(coeffs, sigma, x_coeffs, A_y, F_xy)``, each ``(B, ...)``, after every gate of a
    model: the full models' in :func:`gica.restricted.derive_restricted`, the mixed models',
    and ``F_xy, A_y >= 0``. ``sigma`` is diagonalized; ``A_y`` is not yet clipped to 0."""
    sigma = sigma * np.eye(2)
    restricted = derive_restricted(coeffs, sigma, q, warnings)
    _, ar_var, x_coeffs, x_var = restricted
    require_stable(restricted_lags(coeffs, x_coeffs, X_ON_Y), "mixed model for autonomy")
    s2_y = sigma[:, 1, 1]
    # with no X -> Y lag, Y's own past predicts it with error sigma_yy by theory
    ar_var = np.where((coeffs[:, :, 1, 0] == 0).all(axis=1), s2_y, ar_var)
    a_y = np.log(x_var / s2_y)
    f_xy = _nonnegative(np.log(ar_var / s2_y), "F_xy")
    _nonnegative(a_y, "A_y")
    return restricted, (coeffs, sigma, x_coeffs, a_y, f_xy)


def _grid_stage(
    models: tuple, grid: FrequencyGrid, bands: dict[str, tuple[float, float]],
    measures: Collection[str] = MEASURES, window: slice = slice(None),
) -> tuple[tuple, dict[str, np.ndarray], MeasureReport]:
    """The grid-sized half of :func:`measure_stack` on rows of :func:`_model_stage`:
    ``(E, det E, causal, internal)``, the ``(B, n)`` profiles of ``measures`` and the report.

    Only what ``measures`` read is formed. The shares of ``P_Y`` and their zero-PSD gate always;
    gc and gi from them; ``det E``, ``det F`` with their singular-transfer gates, ``ga_shape``
    and ga only for ga (``det E`` is None without it). The report's band table holds the formed
    measures, and its ``f_y`` is None without gi. All of it is formed and gated on the grid
    points of ``window`` alone, and the profiles are 0 off it; ``(E, det E, causal, internal)``
    hold the window's points. Only a window off which every weight of ``bands`` is 0 keeps the
    band table's values (:func:`measure_blocks`).
    """
    coeffs, sigma, x_coeffs, a_y, f_xy = models
    e = _lag_transform(coeffs, grid, window)
    det_e = None
    if "ga" in measures:
        det_e = e[..., 0, 0] * e[..., 1, 1] - e[..., 0, 1] * e[..., 1, 0]
        det_e = _nonsingular(det_e, "full model")
        # -B_yx(f), as E_yx is -A_yx(f): a product per row, so a row does not depend on the batch
        q = x_coeffs.shape[-1]
        minus_b = (x_coeffs[:, None] @ _dft_table(grid, q, window))[:, 0].view(complex)
        det_f = _nonsingular(e[..., 0, 0] - e[..., 0, 1] * minus_b, "mixed model")
    causal = sigma[:, 0, 0, None] * np.abs(e[..., 1, 0]) ** 2
    internal = sigma[:, 1, 1, None] * np.abs(e[..., 0, 0]) ** 2
    if np.any(causal + internal == 0):
        raise ValueError(
            "target PSD is exactly zero at a grid frequency; directed coherence undefined"
        )
    shares = {"gc": (causal, internal), "gi": (internal, causal)}
    with np.errstate(divide="ignore"):  # where one share is zero, the other measure is +inf
        profiles = {m: np.log1p(a / b) for m, (a, b) in shares.items() if m in measures}
    if det_e is not None:
        ga_shape = 2.0 * np.log(np.abs(det_f / det_e))
        profiles.update(ga_shape=ga_shape, ga=a_y[:, None] + ga_shape)
    for name, values in profiles.items():
        if np.isnan(values).any():
            raise ValueError(f"profile {name!r} contains NaN")
        if window != slice(None):  # 0 off the window, so the band product adds the same terms
            profiles[name] = np.zeros((len(values), grid.n_points))
            profiles[name][:, window] = values
    table, full = _band_stack(profiles, grid, bands)
    report = MeasureReport(f_xy, full.get("gi"), np.maximum(a_y, 0.0), table)
    return (e, det_e, causal, internal), profiles, report


def measure_stack(
    coeffs: np.ndarray, sigma: np.ndarray, q: int, grid: FrequencyGrid,
    bands: dict[str, tuple[float, float]], warnings: list[str] | None = None,
) -> tuple[tuple, dict[str, np.ndarray], MeasureReport, tuple]:
    """``(E, det E, causal, internal)``, the gc, gi and ga profiles ``(B, n)``, the report and
    the restricted models of a stack of models ``coeffs`` ``(B, p, 2, 2)``, ``sigma`` ``(B, 2, 2)``;
    ``causal + internal``, ``s2_x |E_yx|^2 + s2_y |E_xx|^2``, is ``P_Y |det E|^2``.

    :func:`_model_stage` then :func:`_grid_stage` on the same rows. ``sigma`` is diagonalized
    (the strictly causal convention), and :func:`gica.restricted.derive_restricted` gates the
    models and returns ``restricted``, ``(ar_coeffs, ar_var, x_coeffs, x_var)``: the self-past
    and the driver-only regressions, with the ``2q`` truncation check when given ``warnings``.
    The mixed models, :func:`gica.restricted.restricted_lags` of ``x_coeffs``, are gated, and
    ``det F = E_xx + E_xy B_yx``. A row whose ``A_yx`` lags are all exactly 0 takes ``ar_var =
    sigma_yy``, so its ``F_xy`` is exactly 0. The report holds ``(B,)`` arrays.
    """
    restricted, models = _model_stage(coeffs, sigma, q, warnings)
    return *_grid_stage(models, grid, bands), restricted


def measure_blocks(
    coeffs: np.ndarray, sigma: np.ndarray, q: int, grid: FrequencyGrid,
    bands: dict[str, tuple[float, float]], measures: Collection[str] = MEASURES,
) -> Iterator[tuple[range, tuple[dict[str, np.ndarray], MeasureReport] | ValueError]]:
    """``(rows, (profiles, report))`` of a stack of models of one order, ``coeffs`` ``(B, p,
    2, 2)``, ``sigma`` ``(B, 2, 2)``, in row order and :func:`measure_stack`'s bit for bit. The
    grid stage forms only what ``measures`` read (all of :data:`MEASURES` by default), and
    every model passes every model-stage gate.

    The model stage runs per chunk of :data:`SURROGATE_BLOCK` rows times as many as keep its
    arrays near a grid block's (per row, the ``(4 (p + 1))**2`` autocovariance system and two
    ``q**2`` Toeplitz systems against the ``8 n`` floats of ``E(f)``), and at least one; the
    grid stage runs per block of :data:`SURROGATE_BLOCK` rows, one block's profiles held at a
    time. Every row of a chunk or block that fails a gate is measured alone, and a row that
    fails alone gives ``(range(row, row + 1), error)``.

    For ga alone (H2 surrogates), whose band means are all that is read, the grid stage runs on
    :func:`_band_window` of ``bands``, and the ga profile is 0 off it; the report's values are
    the whole grid's bit for bit, as off the window every band weight is 0. Off it the model
    stage's Schur-Cohn tests imply the gates: ``det E`` and ``det F`` have no zero on the
    circle, and ``causal + internal = 0`` needs ``E_xx = E_yx = 0``, so ``det E = 0``.
    """
    # checked up front: in the grid stage it would fail every model, one by one
    if not measures or not set(measures) <= set(MEASURES):
        raise ValueError(f"measures must be some of {MEASURES}, got {tuple(measures)}")

    def outcome(rows: range, models: tuple | None = None) -> tuple | ValueError:
        """The profiles and report of ``rows`` from their model stage (their own if None), or
        the error of the first gate they fail."""
        try:
            part = slice(rows.start, rows.stop)
            models = models or _model_stage(coeffs[part], sigma[part], q)[1]
            return _grid_stage(models, grid, bands, measures, window)[1:]
        except ValueError as err:
            return err

    window = slice(None)
    if not {"gc", "gi"} & set(measures):  # ga alone: only its band means are read
        window = _band_window(grid, bands)
    p = coeffs.shape[1]
    size = SURROGATE_BLOCK * max(1, 8 * grid.n_points // ((4 * (p + 1)) ** 2 + 2 * q**2))
    for start in range(0, len(coeffs), size):
        chunk = range(start, min(start + size, len(coeffs)))
        try:
            models = _model_stage(coeffs[start : chunk.stop], sigma[start : chunk.stop], q)[1]
        except ValueError:
            models = None
        for i in range(0, len(chunk), SURROGATE_BLOCK):
            rows, block = chunk[i : i + SURROGATE_BLOCK], slice(i, i + SURROGATE_BLOCK)
            measured = models and outcome(rows, tuple(v[block] for v in models))
            if isinstance(measured, tuple):
                yield rows, measured
            else:  # the chunk or the block failed a gate
                yield from ((range(r, r + 1), outcome(range(r, r + 1))) for r in rows)


def assemble_profiles(
    model: BivariateVarModel, q: int, grid: FrequencyGrid,
    bands: dict[str, tuple[float, float]], warnings: list[str] | None = None,
) -> tuple[dict[str, SpectralProfile], MeasureReport, tuple[RestrictedModel, RestrictedModel]]:
    """Every spectral profile, the measure report and both restricted models of one model.

    :func:`measure_stack` of the model as a stack of one, plus, from its ``E(f)``,
    ``det E(f)`` and shares, the power spectra ``psd_x``, ``psd_y`` (densities per Hz
    under the diagonal-covariance convention) and ``psd_cross``, and the squared directed
    coherences ``dc_yx``, ``dc_yy``, the shares of ``P_Y``.
    """
    spectra, stack, stacked, (ar_coeffs, ar_var, x_coeffs, x_var) = measure_stack(
        model.coeffs[None], model.sigma[None], q, grid, bands, warnings
    )
    e, det_e, causal, internal = (v[0] for v in spectra)
    s2_x, s2_y = model.sigma_x, model.sigma_y
    total = causal + internal
    scale = 1.0 / (grid.fs * np.abs(det_e) ** 2)
    cross = s2_x * e[:, 1, 0] * e[:, 1, 1].conj() + s2_y * e[:, 0, 0] * e[:, 0, 1].conj()
    values = {
        "psd_x": (s2_x * np.abs(e[:, 1, 1]) ** 2 + s2_y * np.abs(e[:, 0, 1]) ** 2) * scale,
        "psd_y": total * scale,
        "psd_cross": np.abs(cross) * scale,
        "dc_yx": causal / total,
        "dc_yy": internal / total,
        **{name: v[0] for name, v in stack.items()},
    }
    profiles = {name: SpectralProfile(grid, v, name) for name, v in values.items()}
    times = (float(v[0]) for v in (stacked.f_xy, stacked.f_y, stacked.a_y))
    report = MeasureReport(*times, _band_row(stacked.bands, 0), list(warnings or []))
    restricted = (RestrictedModel(AR_ON_Y, ar_coeffs[0], ar_var[0]),
                  RestrictedModel(X_ON_Y, x_coeffs[0], x_var[0]))
    return profiles, report, restricted
