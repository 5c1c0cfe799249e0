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

:func:`assemble_profiles` is the one place a model becomes measures. Given
the restricted models from :func:`gica.restricted.derive_restricted`, it
calls :func:`full_transfer` and :func:`restricted_transfer_ga` once each
and derives every profile, the time-domain values and the band table from
those two transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .restricted import AR_ON_Y, X_ON_Y, RestrictedModel
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


def _transfer(coeffs: np.ndarray, grid: FrequencyGrid, what: str) -> np.ndarray:
    """``[I - sum_k A_k e^(-2i pi f k)]^(-1)`` on the grid, shape ``(n, 2, 2)``.

    The grid frequencies are ``j / M`` with ``M = 2 (n - 1)``, so the lag
    polynomials are one real FFT of length ``M`` (lags ``k >= M`` alias
    onto ``k mod M``), and each 2x2 matrix is inverted in closed form.
    """
    m = 2 * (grid.n_points - 1)
    seq = np.zeros((m, 2, 2))
    np.add.at(seq, np.arange(1, coeffs.shape[0] + 1) % m, coeffs)
    e = np.eye(2) - np.fft.rfft(seq, axis=0)
    det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
    if np.any(det == 0):
        raise UnstableModelError(f"{what} transfer is singular on the frequency grid")
    adj = np.stack([e[:, 1, 1], -e[:, 0, 1], -e[:, 1, 0], e[:, 0, 0]], axis=-1)
    return adj.reshape(-1, 2, 2) / det[:, None, None]


def full_transfer(model: BivariateVarModel, grid: FrequencyGrid) -> np.ndarray:
    """Transfer matrix ``H(f)`` of the full model, shape ``(n, 2, 2)``."""
    model.require_stable()
    return _transfer(model.coeffs, grid, "full model")


def _mixed_coeffs(a_xx: np.ndarray, a_xy: np.ndarray, b_yx: np.ndarray) -> np.ndarray:
    m = max(len(a_xx), len(a_xy), len(b_yx))
    coeffs = np.zeros((m, 2, 2))
    coeffs[: len(a_xx), 0, 0] = a_xx
    coeffs[: len(a_xy), 0, 1] = a_xy
    coeffs[: len(b_yx), 1, 0] = b_yx
    return coeffs


def restricted_transfer_ga(
    a_xx: np.ndarray, a_xy: np.ndarray, b_yx: np.ndarray, grid: FrequencyGrid
) -> np.ndarray:
    """Transfer matrix ``G(f)`` of the mixed model used by autonomy.

    The mixed model keeps the full driver equation (lag polynomials
    ``a_xx``, ``a_xy``) and replaces the target equation with the
    driver-only regression ``b_yx``; its transfer is the inverse of

        [[1 - A_xx(f), -A_xy(f)],
         [  -B_yx(f),      1   ]].
    """
    return _transfer(_mixed_coeffs(a_xx, a_xy, b_yx), grid, "mixed model")


def _require_mixed_stable(model: BivariateVarModel, rest_x: RestrictedModel) -> None:
    mixed = _mixed_coeffs(model.coeffs[:, 0, 0], model.coeffs[:, 0, 1], rest_x.coeffs)
    require_stable(mixed, "mixed model for autonomy")


def _nonnegative(value: float, name: str) -> float:
    # projection inequalities guarantee >= 0 up to roundoff
    if value < -1e-9:
        raise ValueError(f"{name} is negative ({value:.6g}); inconsistent models")
    return max(value, 0.0)


def full_band_integral(profile: SpectralProfile) -> float:
    """``2 * trapezoid integral`` over the whole normalized band [0, 1/2]."""
    values = profile.values
    if np.isinf(values).any():
        return float("inf")
    return float(2.0 * np.trapezoid(values, profile.grid.values))


def integrate_band(
    profile: SpectralProfile, f_lo_hz: float, f_hi_hz: float
) -> tuple[float, float]:
    """Band integral and band mean of a profile over ``[f_lo, f_hi]`` Hz.

    The integral is ``2 * trapezoid`` over normalized frequency with the
    band edges included by linear interpolation; the mean divides by twice
    the normalized bandwidth, giving the average profile height in nats.
    """
    fs = profile.grid.fs
    if not 0 <= f_lo_hz < f_hi_hz <= fs / 2:
        raise ValueError(
            f"band [{f_lo_hz}, {f_hi_hz}] Hz must satisfy 0 <= lo < hi <= {fs / 2}"
        )
    lo, hi = f_lo_hz / fs, f_hi_hz / fs
    values = profile.grid.values
    inside = values[(values > lo) & (values < hi)]
    nodes = np.concatenate([[lo], inside, [hi]])
    band = np.interp(nodes, values, profile.values)
    if np.isinf(band).any() or np.isinf(profile.values).any():
        return float("inf"), float("inf")
    integral = float(2.0 * np.trapezoid(band, nodes))
    mean = integral / (2.0 * (hi - lo))
    return integral, mean


# default analysis bands in Hz: very-low- and low-frequency
DEFAULT_BANDS: dict[str, tuple[float, float]] = {
    "VLF": (0.02, 0.07),
    "LF": (0.07, 0.2),
}


def band_table(
    profiles: dict[str, SpectralProfile], bands: dict[str, tuple[float, float]]
) -> dict[str, dict[str, dict[str, float]]]:
    """Band integrals and means of the three log measures.

    ``profiles`` must contain ``gc``, ``gi``, and ``ga`` entries; the result
    maps band name to measure name to ``{"integral", "mean"}``.
    """
    table: dict[str, dict[str, dict[str, float]]] = {}
    for band, (lo, hi) in bands.items():
        table[band] = {}
        for measure in ("gc", "gi", "ga"):
            integral, mean = integrate_band(profiles[measure], lo, hi)
            table[band][measure] = {"integral": integral, "mean": mean}
    return table


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


def assemble_profiles(
    model: BivariateVarModel,
    rest_ar: RestrictedModel,
    rest_x: RestrictedModel,
    grid: FrequencyGrid,
    bands: dict[str, tuple[float, float]],
    warnings: list[str] | None = None,
) -> tuple[dict[str, SpectralProfile], MeasureReport]:
    """Every spectral profile and the measure report of one model.

    One pass: ``H(f)`` and the mixed-model ``G(f)`` are each computed once.
    The profiles are the power spectra ``psd_x``, ``psd_y`` (densities per
    Hz under the diagonal-covariance convention) and ``psd_cross``; the
    squared directed coherences ``dc_yx``, ``dc_yy``, the causal and
    internal shares of ``P_Y`` that sum to one; ``gc = ln(P_Y / (s2_y
    |H_yy|^2))``; ``gi = ln(P_Y / (s2_x |H_yx|^2))``, ``+inf`` where the
    causal part vanishes; the autonomy shape ``ga_shape = ln(|H_yy|^2 /
    |G_yy|^2)`` and ``ga = A_y + ga_shape``. The report holds ``F_xy =
    ln(s2_yy / s2_y)``, ``A_y = ln(s2_yx / s2_y)``, ``F_y = 2 * int gi``
    and the band integrals and means of gc, gi and ga over ``bands``.
    """
    if rest_ar.kind != AR_ON_Y:
        raise ValueError(f"F_xy needs a self-past restricted model, got {rest_ar.kind!r}")
    if rest_x.kind != X_ON_Y:
        raise ValueError(f"autonomy needs a driver-only restricted model, got {rest_x.kind!r}")
    h = full_transfer(model, grid)
    _require_mixed_stable(model, rest_x)
    g = restricted_transfer_ga(
        model.coeffs[:, 0, 0], model.coeffs[:, 0, 1], rest_x.coeffs, grid
    )
    s2_x, s2_y = model.sigma_x, model.sigma_y
    causal = s2_x * np.abs(h[:, 1, 0]) ** 2
    internal = s2_y * np.abs(h[:, 1, 1]) ** 2
    total = causal + internal
    if np.any(total == 0):
        raise ValueError(
            "target PSD is exactly zero at a grid frequency; directed coherence undefined"
        )
    gi = np.full_like(causal, np.inf)
    nz = causal > 0
    gi[nz] = np.log1p(internal[nz] / causal[nz])
    ga_shape = np.log(np.abs(h[:, 1, 1]) ** 2) - np.log(np.abs(g[:, 1, 1]) ** 2)
    a_y = float(np.log(rest_x.resid_var / s2_y))
    scale = 1.0 / grid.fs
    cross = s2_x * h[:, 1, 0] * h[:, 0, 0].conj() + s2_y * h[:, 1, 1] * h[:, 0, 1].conj()
    values = {
        "psd_x": (s2_x * np.abs(h[:, 0, 0]) ** 2 + s2_y * np.abs(h[:, 0, 1]) ** 2) * scale,
        "psd_y": total * scale,
        "psd_cross": np.abs(cross) * scale,
        "dc_yx": causal / total,
        "dc_yy": internal / total,
        "gc": np.log1p(causal / internal),
        "gi": gi,
        "ga_shape": ga_shape,
        "ga": a_y + ga_shape,
    }
    profiles = {name: SpectralProfile(grid, v, name) for name, v in values.items()}
    report = MeasureReport(
        f_xy=_nonnegative(np.log(rest_ar.resid_var / s2_y), "F_xy"),
        f_y=full_band_integral(profiles["gi"]),
        a_y=_nonnegative(a_y, "A_y"),
        bands=band_table(profiles, bands),
        warnings=list(warnings or []),
    )
    return profiles, report
