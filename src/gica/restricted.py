"""Restricted predictors of the target derived from the full model.

Two reduced regressions of the target ``Y`` are needed by the causality
measures: an autoregression on Y's own past (order truncated at ``q``) and a
regression on the driver's past alone. Both are theoretically of infinite
order even when the full model is finite, so they are identified
analytically from the exact autocovariance sequence of the full model (the
reverse Yule-Walker solve of :func:`gica.varmodel.autocovariance_stack`)
rather than refitted on data: with ``Sigma_past`` the Toeplitz covariance
of the chosen past vector and ``r`` the covariance between ``Y_n`` and that
past,

    coeffs = r @ inv(Sigma_past),      resid_var = Gamma_yy(0) - r @ coeffs.

Direct least-squares refits on long realizations are used only as test
oracles for this route. :func:`restricted_stack` identifies one kind for a
stack, its ``(B, q, q)`` Toeplitz systems built by index and solved at once.
:func:`derive_restricted` is the only entry from full models: it takes
stacks ``(B, p, 2, 2)``, ``(B, 2, 2)`` and returns both kinds as arrays, with
an optional ``2q`` truncation check. Its one caller is
:func:`gica.spectral.measure_stack`, for an analysis and a surrogate block
alike. :class:`RestrictedModel` is the record an analysis writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .varmodel import autocovariance_stack

AR_ON_Y = "ar_on_y"
X_ON_Y = "x_on_y"
TRUNCATION_SHIFT_WARN = 1e-4


@dataclass(frozen=True)
class RestrictedModel:
    """A one-equation reduced model of the target.

    Parameters
    ----------
    kind : str
        ``"ar_on_y"`` (Y regressed on its own past) or ``"x_on_y"``
        (Y regressed on the driver's past).
    coeffs : ndarray
        Lag coefficients, shape ``(q,)``.
    resid_var : float
        Residual (one-step prediction error) variance.
    """

    kind: str
    coeffs: np.ndarray
    resid_var: float

    def __post_init__(self) -> None:
        if self.kind not in (AR_ON_Y, X_ON_Y):
            raise ValueError(f"unknown restricted model kind {self.kind!r}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coeffs must be a non-empty vector")
        if not np.isfinite(coeffs).all():
            raise ValueError("coeffs contain non-finite values")
        if not (np.isfinite(self.resid_var) and self.resid_var > 0):
            raise ValueError(f"residual variance must be positive, got {self.resid_var}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "resid_var", float(self.resid_var))

    @property
    def q(self) -> int:
        return int(self.coeffs.size)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.q,
            "coeffs": self.coeffs.tolist(),
            "resid_var": self.resid_var,
        }


def restricted_stack(gammas: np.ndarray, q: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(B, q)`` and residual variances ``(B,)`` of one restricted kind.

    ``gammas`` stacks ``(B, Q + 1, 2, 2)`` autocovariances, ``Q >= q``; any
    row's singular system or non-positive residual variance fails the stack.
    """
    past = 1 if kind == AR_ON_Y else 0  # channel whose past is regressed on
    col = gammas[:, :q, past, past]
    cross = gammas[:, 1 : q + 1, 1, past]
    lags = np.arange(q)
    try:
        coeffs = np.linalg.solve(col[:, abs(lags[:, None] - lags)], cross[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ValueError(
            f"degenerate past covariance in {kind} identification (singular Toeplitz system)"
        ) from None
    if not np.isfinite(coeffs).all():
        raise ValueError("coeffs contain non-finite values")
    resid_var = gammas[:, 0, 1, 1] - (cross[:, None] @ coeffs[..., None])[:, 0, 0]
    if not np.all(resid_var > 0):
        raise ValueError(
            f"non-positive residual variance {np.min(resid_var):.6g} in {kind} identification"
        )
    return coeffs, resid_var


def derive_restricted(
    coeffs: np.ndarray, sigma: np.ndarray, q: int, warnings: list[str] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ar_coeffs, ar_var, x_coeffs, x_var)``: both restricted models of a stack.

    ``coeffs`` ``(B, p, 2, 2)`` and ``sigma`` ``(B, 2, 2)`` pass the gate of
    :func:`gica.varmodel.autocovariance_stack`; each kind has ``(B, q)``
    coefficients and ``(B,)`` residual variances. Given a ``warnings`` list,
    the autocovariance runs to ``2q`` lags, and a warning is appended if
    doubling the truncation shifts either residual variance by more than
    ``1e-4`` relative: ``q`` is too short for the model's memory.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    gammas = autocovariance_stack(coeffs, sigma, q if warnings is None else 2 * q)
    ar_coeffs, ar_var = restricted_stack(gammas, q, AR_ON_Y)
    x_coeffs, x_var = restricted_stack(gammas, q, X_ON_Y)
    if warnings is None:
        return ar_coeffs, ar_var, x_coeffs, x_var
    for short, kind, name in ((ar_var, AR_ON_Y, "self-past"), (x_var, X_ON_Y, "driver-past")):
        shift = np.max(np.abs(restricted_stack(gammas, 2 * q, kind)[1] - short) / short)
        if shift > TRUNCATION_SHIFT_WARN:
            warnings.append(
                f"{name} residual variance shifts by {shift:.2e} when the "
                f"truncation is doubled from {q} to {2 * q} lags; consider a larger q"
            )
    return ar_coeffs, ar_var, x_coeffs, x_var
