"""Restricted predictors of the target derived from the full model.

Two reduced regressions of the target ``Y`` are needed by the causality
measures: an autoregression on Y's own past (order truncated at ``q``) and a
regression on the driver's past alone. Both are theoretically of infinite
order even when the full model is finite, so they are identified
analytically from the exact autocovariance sequence of the full model
rather than refitted on data: with ``Sigma_past`` the Toeplitz covariance
of the chosen past vector and ``r`` the covariance between ``Y_n`` and that
past,

    coeffs = r @ inv(Sigma_past),      resid_var = Gamma_yy(0) - r @ coeffs.

Direct least-squares refits on long realizations are used only as test
oracles for this route. :func:`restricted_stack` identifies one kind for a
stack, its ``(B, q, q)`` Toeplitz systems built by index and solved at once;
:func:`derive_restricted` is its batch of one for both kinds plus a ``2q``
truncation check, and :func:`gica.spectral.assemble_profiles` follows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .varmodel import AutocovarianceSequence, BivariateVarModel, compute_autocovariance

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

    @classmethod
    def from_dict(cls, data: dict) -> "RestrictedModel":
        coeffs = np.asarray(data["coeffs"], dtype=float)
        if coeffs.size != int(data["q"]):
            raise ValueError(
                f"declared lag count {data['q']} does not match {coeffs.size} coefficients"
            )
        return cls(data["kind"], coeffs, float(data["resid_var"]))


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


def _restricted(gammas: AutocovarianceSequence, q: int, kind: str) -> RestrictedModel:
    if not 1 <= q <= gammas.q:
        raise ValueError(f"q must lie in [1, {gammas.q}], got {q}")
    coeffs, resid_var = restricted_stack(gammas.gammas[None], q, kind)
    return RestrictedModel(kind, coeffs[0], resid_var[0])


def restricted_ar(gammas: AutocovarianceSequence, q: int = 20) -> RestrictedModel:
    """Autoregression of the target on its own past, truncated at ``q`` lags."""
    return _restricted(gammas, q, AR_ON_Y)


def restricted_x(gammas: AutocovarianceSequence, q: int = 20) -> RestrictedModel:
    """Regression of the target on the driver's past, truncated at ``q`` lags."""
    return _restricted(gammas, q, X_ON_Y)


def derive_restricted(
    model: BivariateVarModel, q: int, warnings: list[str] | None = None
) -> tuple[RestrictedModel, RestrictedModel]:
    """Restricted models at ``q`` lags with a truncation self-check at ``2q``.

    If doubling the truncation shifts either residual variance by more than
    ``1e-4`` relative, a warning is appended: the default lag count is too
    short for this model's memory.
    """
    gammas = compute_autocovariance(model, 2 * q)
    rest_ar, rest_x = _restricted(gammas, q, AR_ON_Y), _restricted(gammas, q, X_ON_Y)
    if warnings is None:
        return rest_ar, rest_x
    for short, name in ((rest_ar, "self-past"), (rest_x, "driver-past")):
        long = _restricted(gammas, 2 * q, short.kind)
        shift = abs(long.resid_var - short.resid_var) / short.resid_var
        if shift > TRUNCATION_SHIFT_WARN:
            warnings.append(
                f"{name} residual variance shifts by {shift:.2e} when the "
                f"truncation is doubled from {q} to {2 * q} lags; consider a larger q"
            )
    return rest_ar, rest_x
