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
stack of full models ``(coeffs, sigma)``, derives both restricted models with
:func:`gica.restricted.derive_restricted`, a cached DFT table per grid gives
``E`` and the scalar ``det F`` of the whole stack, the mixed models pass the
Schur-Cohn gate, and every band mean and ``F_y`` come from one product with a
cached weight matrix per grid and band set. :func:`assemble_profiles` is its
batch of one, plus display spectra from ``E``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .restricted import AR_ON_Y, X_ON_Y, RestrictedModel, derive_restricted
from .varmodel import BivariateVarModel, UnstableModelError, require_stable


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

    @classmethod
    def default(cls, fs: float = 1.0, n_points: int = 2049) -> "FrequencyGrid":
        return cls(n_points, fs)


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


def _dft_table(grid: FrequencyGrid, lags: int) -> np.ndarray:
    """Rows ``(-cos, sin)(2 pi f_j k)``, interleaved over ``j``, ``(K, 2 n)`` for lags ``k = 1 ..
    K``, ``K >= lags``: one table per grid size, grown to the most lags seen. The angle is
    indexed as ``(j k) mod M``, so it is exact for any lag."""
    n = grid.n_points
    table = _DFT_TABLES.get(n)
    if table is None or table.shape[0] < lags:
        size = 2 * (n - 1)
        angle = 2 * np.pi / size * (np.outer(np.arange(1, lags + 1), np.arange(n)) % size)
        table = _DFT_TABLES[n] = np.stack([-np.cos(angle), np.sin(angle)], -1).reshape(lags, -1)
        table.setflags(write=False)
    return table


def _lag_transform(coeffs: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """``I - sum_k A_k e^(-2i pi f k)`` of lags ``(B, m, k, k)`` on the grid, ``(B, n, k, k)``.

    Each model's lags ``(k k, m)`` times :func:`_dft_table` give the real and imaginary
    parts in place, a product per model, so a row does not depend on the batch. The grid is
    ``j / M``, ``M = 2 (n - 1)``, so lags ``k >= M`` alias onto ``k mod M``.
    """
    b, m, k = coeffs.shape[:3]
    parts = np.swapaxes(coeffs.reshape(b, m, k * k), 1, 2) @ _dft_table(grid, m)[:m]
    parts[:, :: k + 1, 0::2] += 1.0  # the real part of the identity
    return np.moveaxis(parts.view(complex).reshape(b, k, k, -1), -1, 1)


def _det(e: np.ndarray, what: str) -> np.ndarray:
    """Determinants of ``(..., k, k)`` matrices, ``k`` 1 or 2; a zero one raises."""
    det = e[..., 0, 0] if e.shape[-1] == 1 else (
        e[..., 0, 0] * e[..., 1, 1] - e[..., 0, 1] * e[..., 1, 0])
    if np.any(det == 0):
        raise UnstableModelError(f"{what} transfer is singular on the frequency grid")
    return det


def _mixed_det_lags(a_xx: np.ndarray, a_xy: np.ndarray, b_yx: np.ndarray) -> np.ndarray:
    """Lags ``(B, p+q)`` of the mixed model's ``det F(z) = 1 - A_xx(z) - A_xy(z) B_yx(z)``."""
    lags = np.zeros((b_yx.shape[0], a_xx.shape[-1] + b_yx.shape[-1]))
    lags[:, : a_xx.shape[-1]] = a_xx
    for i, a in enumerate(a_xy.T):  # A_xy lag i+1 times B_yx lag j+1 lands on lag i+j+2
        lags[:, i + 1 : i + 1 + b_yx.shape[-1]] += a[:, None] * b_yx
    return lags


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


def _band_integrals(
    values: np.ndarray, grid: FrequencyGrid, bands_hz: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals and means ``(..., len(bands_hz))`` of rows ``(..., n)`` over ``(lo, hi)`` Hz
    bands: a product per row with one cached weight matrix, so a row does not depend on the
    batch. A band is ``inf`` where its weights touch an ``inf`` of the row, and only there."""
    fs = grid.fs
    for lo, hi in bands_hz:
        if not 0 <= lo < hi <= fs / 2:
            raise ValueError(f"band [{lo}, {hi}] Hz must satisfy 0 <= lo < hi <= {fs / 2}")
    edges = tuple((lo / fs, hi / fs) for lo, hi in bands_hz)
    weights, isinf = _band_matrix(grid, edges), np.isinf(values)
    integrals = (np.where(isinf, 0.0, values)[..., None, :] @ weights)[..., 0, :]
    rows = isinf.any(axis=-1)  # only rows holding an inf pay for the check
    integrals[rows] = np.where(isinf[rows] @ (weights != 0), np.inf, integrals[rows])
    return integrals, integrals / (2.0 * np.array([hi - lo for lo, hi in edges]))


def full_band_integral(profile: SpectralProfile) -> float:
    """``2 * trapezoid integral`` over the whole normalized band [0, 1/2]."""
    return integrate_band(profile, 0.0, profile.grid.fs / 2)[0]


def integrate_band(
    profile: SpectralProfile, f_lo_hz: float, f_hi_hz: float
) -> tuple[float, float]:
    """Band integral and band mean of a profile over ``[f_lo, f_hi]`` Hz.

    The integral is ``2 * trapezoid`` over normalized frequency with the
    band edges included by linear interpolation; the mean divides by twice
    the normalized bandwidth, giving the average profile height in nats.
    """
    integral, mean = _band_integrals(profile.values, profile.grid, [(f_lo_hz, f_hi_hz)])
    return float(integral[0]), float(mean[0])


# default analysis bands in Hz: very-low- and low-frequency
DEFAULT_BANDS: dict[str, tuple[float, float]] = {
    "VLF": (0.02, 0.07),
    "LF": (0.07, 0.2),
}


def _band_stack(profiles: dict[str, np.ndarray], grid: FrequencyGrid, bands: dict) -> tuple:
    """Band table of the ``(B, n)`` gc, gi and ga profiles and their full-band integrals
    ``{m: (B,)}``, from one :func:`_band_integrals`."""
    measures = ("gc", "gi", "ga")
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
            return {"gc": self.f_xy, "gi": self.f_y, "ga": self.a_y}[measure]
        return self.bands[scope][measure]["mean"]

    def to_dict(self) -> dict:
        def num(v: float):
            return "inf" if np.isinf(v) else float(v)

        out = {
            "schema": 1,
            "F_xy": num(self.f_xy),
            "F_y": num(self.f_y),
            "A_y": num(self.a_y),
            "bands": {
                band: {
                    measure: {key: num(val) for key, val in pair.items()}
                    for measure, pair in measures.items()
                }
                for band, measures in self.bands.items()
            },
            "warnings": list(self.warnings),
        }
        if self.significance is not None:
            out["significance"] = self.significance
        return out


def measure_stack(
    coeffs: np.ndarray, sigma: np.ndarray, q: int, grid: FrequencyGrid,
    bands: dict[str, tuple[float, float]], warnings: list[str] | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray], MeasureReport, tuple]:
    """``E(f)``, the gc, gi and ga profiles ``(B, n)``, the report and the restricted models
    of a stack of models ``coeffs`` ``(B, p, 2, 2)``, ``sigma`` ``(B, 2, 2)``.

    ``sigma`` is diagonalized (the strictly causal convention), and
    :func:`gica.restricted.derive_restricted` gates the models and returns
    ``restricted``, ``(ar_coeffs, ar_var, x_coeffs, x_var)``: the self-past and the
    driver-only regressions, with the ``2q`` truncation check when given ``warnings``.
    The mixed models enter as ``det F(z)``, gated here as the scalar lag polynomial
    of degree ``p + q`` it is. A row whose ``A_yx`` lags are all exactly 0 takes
    ``ar_var = sigma_yy``, so its ``F_xy`` is exactly 0. The report holds ``(B,)`` arrays.
    """
    sigma = sigma * np.eye(2)
    restricted = derive_restricted(coeffs, sigma, q, warnings)
    _, ar_var, x_coeffs, x_var = restricted
    e = _lag_transform(coeffs, grid)
    det_e = _det(e, "full model")
    mixed = _mixed_det_lags(coeffs[:, :, 0, 0], coeffs[:, :, 0, 1], x_coeffs)[..., None, None]
    require_stable(mixed, "mixed model for autonomy")
    det_f = _det(_lag_transform(mixed, grid), "mixed model")
    s2_x, s2_y = sigma[:, 0, 0], sigma[:, 1, 1]
    causal = s2_x[:, None] * np.abs(e[..., 1, 0]) ** 2
    internal = s2_y[:, None] * np.abs(e[..., 0, 0]) ** 2
    if np.any(causal + internal == 0):
        raise ValueError(
            "target PSD is exactly zero at a grid frequency; directed coherence undefined"
        )
    with np.errstate(divide="ignore"):  # where one share is zero, the other measure is +inf
        gc, gi = np.log1p(causal / internal), np.log1p(internal / causal)
    ga_shape = 2.0 * np.log(np.abs(det_f / det_e))
    a_y = np.log(x_var / s2_y)
    profiles = {"gc": gc, "gi": gi, "ga_shape": ga_shape, "ga": a_y[:, None] + ga_shape}
    for name, values in profiles.items():
        if np.isnan(values).any():
            raise ValueError(f"profile {name!r} contains NaN")
    # with no X -> Y lag, Y's own past predicts it with error sigma_yy by theory
    ar_var = np.where((coeffs[:, :, 1, 0] == 0).all(axis=1), s2_y, ar_var)
    table, full = _band_stack(profiles, grid, bands)
    report = MeasureReport(_nonnegative(np.log(ar_var / s2_y), "F_xy"), full["gi"],
                           _nonnegative(a_y, "A_y"), table)
    return e, profiles, report, restricted


def assemble_profiles(
    model: BivariateVarModel, q: int, grid: FrequencyGrid,
    bands: dict[str, tuple[float, float]], warnings: list[str] | None = None,
) -> tuple[dict[str, SpectralProfile], MeasureReport, tuple[RestrictedModel, RestrictedModel]]:
    """Every spectral profile, the measure report and both restricted models of one model.

    :func:`measure_stack` of the model as a stack of one, plus, from the same
    ``E(f)``, the power spectra ``psd_x``, ``psd_y`` (densities per Hz under the
    diagonal-covariance convention) and ``psd_cross``, and the squared directed
    coherences ``dc_yx``, ``dc_yy``, the shares of ``P_Y``.
    """
    e, stack, stacked, (ar_coeffs, ar_var, x_coeffs, x_var) = measure_stack(
        model.coeffs[None], model.sigma[None], q, grid, bands, warnings
    )
    e, s2_x, s2_y = e[0], model.sigma_x, model.sigma_y
    causal, internal = s2_x * np.abs(e[:, 1, 0]) ** 2, s2_y * np.abs(e[:, 0, 0]) ** 2
    total = causal + internal
    scale = 1.0 / (grid.fs * np.abs(_det(e, "full model")) ** 2)
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
