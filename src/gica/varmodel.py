"""Bivariate autoregressive models: fitting, order selection, autocovariance.

The full model of a pair ``S_n = (X_n, Y_n)`` is

    S_n = sum_{k=1..p} A_k S_{n-k} + U_n,      cov(U_n) = Sigma,

with 2x2 coefficient matrices ``A_k``. Everything downstream (spectra,
restricted models, causality measures) is derived from ``(A, Sigma)``, so
this module also provides the exact autocovariance sequence of a stable
model, obtained from the companion-form discrete Lyapunov equation.
Every stability gate is :func:`require_stable`, and every two-process
simulation, surrogate batches included, runs :func:`simulate_var`.

Fitting and autocovariance take stacks: :func:`fit_var_stack` builds a
block's lagged designs once and keeps one ``lstsq`` per row, whose SVD rank
gate normal equations would lose; :func:`autocovariance_stack` gates, solves
and recurses a whole block at once. :func:`fit_var` is the fit's batch of
one. An equation whose residual is rounding, not innovation, fails a fit.

Order selection fits no model per order: :func:`aic_curve` gets every
order's residual covariance, each on its own sample and through the same
gates as :func:`fit_var`, from one QR factorisation of the lag-ordered data
plus one small QR per order; :func:`select_order_aic` takes its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.signal import lfilter


class UnstableModelError(ValueError):
    """Raised when an operation requires a stable model and the gate fails."""


@dataclass(frozen=True)
class BivariateVarModel:
    """Parameters of a bivariate AR model.

    Parameters
    ----------
    coeffs : ndarray
        Coefficient matrices, shape ``(p, 2, 2)``; ``coeffs[k-1][i, j]``
        multiplies channel ``j`` at lag ``k`` in the equation of channel
        ``i`` (channel 0 is the driver X, channel 1 the target Y).
    sigma : ndarray
        Innovation covariance, shape ``(2, 2)``, symmetric positive definite.
    """

    coeffs: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1:] != (2, 2) or coeffs.shape[0] < 1:
            raise ValueError(f"coeffs must have shape (p, 2, 2), got {coeffs.shape}")
        if sigma.shape != (2, 2):
            raise ValueError(f"sigma must have shape (2, 2), got {sigma.shape}")
        _check_parameters(coeffs, sigma)
        coeffs.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma", sigma)

    @property
    def p(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def sigma_x(self) -> float:
        """Innovation variance of the driver equation."""
        return float(self.sigma[0, 0])

    @property
    def sigma_y(self) -> float:
        """Innovation variance of the target equation."""
        return float(self.sigma[1, 1])

    def residual_correlation(self) -> float:
        """Correlation implied by the off-diagonal of ``sigma``."""
        return float(self.sigma[0, 1] / np.sqrt(self.sigma_x * self.sigma_y))

    def diagonalized(self) -> "BivariateVarModel":
        """Copy with the off-diagonal innovation covariance dropped."""
        return BivariateVarModel(self.coeffs, np.diag(np.diag(self.sigma)))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "A": self.coeffs.tolist(),
            "Sigma": self.sigma.tolist(),
        }


def _check_parameters(coeffs: np.ndarray, sigma: np.ndarray) -> None:
    """The parameter gates of :class:`BivariateVarModel`, on one model or a stack."""
    if not (np.isfinite(coeffs).all() and np.isfinite(sigma).all()):
        raise ValueError("model parameters contain non-finite values")
    # np.allclose(sigma, sigma.T, atol=1e-12) at a fraction of its cost per call
    if np.any(np.abs(sigma - np.swapaxes(sigma, -1, -2)) > 1e-12 + 1e-5 * np.abs(sigma)):
        raise ValueError("sigma must be symmetric")
    if np.linalg.eigvalsh(sigma).min() <= 0:
        raise ValueError("sigma must be positive definite")


def companion_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Stack lag matrices ``(..., p, m, m)`` into companion form ``(..., mp, mp)``."""
    coeffs = np.asarray(coeffs, dtype=float)
    *batch, p, m, _ = coeffs.shape
    comp = np.zeros((*batch, m * p, m * p))
    comp[..., :m, :] = np.swapaxes(coeffs, -3, -2).reshape(*batch, m, m * p)
    comp[..., m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return comp


def spectral_radius(coeffs: np.ndarray) -> float | np.ndarray:
    """Largest companion eigenvalue modulus of ``(..., m, k, k)`` lags, per model."""
    return np.abs(np.linalg.eigvals(companion_matrix(coeffs))).max(axis=-1)


def require_stable(coeffs: np.ndarray, what: str) -> None:
    """Raise :class:`UnstableModelError` naming ``what`` unless all of ``coeffs`` is stable."""
    rho = np.max(spectral_radius(coeffs))
    if rho >= 1.0:
        raise UnstableModelError(
            f"{what} is unstable: companion spectral radius {rho:.6g} >= 1"
        )


def simulate_var(coeffs: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Run ``s_t = sum_{k=1..m} A_k s_{t-k} + drive_t`` from zero initial conditions.

    ``coeffs`` is ``(m, 2, 2)``, ``drive`` and the result ``(..., T, 2)``. With
    ``E(z) = I - sum_k A_k z^k``, ``S(z) = adj E(z) U(z) / det E(z)``: each
    channel is ``lfilter`` by ``det E``, whose roots are the nonzero companion
    eigenvalues, of the drive's ``(..., T)`` rows one by one, so each row is
    bit-identical at any batch size. Zero trailing taps (exact 0s) are trimmed.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 3 or coeffs.shape[1:] != (2, 2) or np.shape(drive)[-1:] != (2,):
        raise ValueError(f"bivariate only: lags {coeffs.shape}, drive {np.shape(drive)}")
    e = np.concatenate([np.eye(2)[None], -coeffs]).transpose(1, 2, 0)  # taps of E_ij(z)
    det = np.trim_zeros(np.convolve(e[0, 0], e[1, 1]) - np.convolve(e[0, 1], e[1, 0]), "b")
    drive = np.moveaxis(np.asarray(drive, dtype=float), -1, 0)  # (2, ..., T)
    s = np.zeros(drive.shape)
    for out, adj_row in zip(s, ((e[1, 1], -e[0, 1]), (-e[1, 0], e[0, 0]))):
        for taps, channel in zip(adj_row, drive):
            if taps.any():
                out += lfilter(np.trim_zeros(taps, "b"), det, channel)
    return np.moveaxis(s, 0, -1)


def poles_to_ar_coeffs(rho: float, f_norm: float) -> tuple[float, float]:
    """AR(2) coefficients placing complex poles at ``rho * exp(+-2i*pi*f)``.

    Returns ``(a1, a2) = (2 rho cos(2 pi f), -rho^2)`` so that
    ``s_n = a1 s_{n-1} + a2 s_{n-2} + e_n`` oscillates around normalized
    frequency ``f_norm`` with bandwidth controlled by ``rho``.
    """
    if not 0 <= rho < 1:
        raise ValueError(f"pole modulus must lie in [0, 1), got {rho}")
    if not 0 <= f_norm <= 0.5:
        raise ValueError(f"normalized frequency must lie in [0, 0.5], got {f_norm}")
    return 2 * rho * np.cos(2 * np.pi * f_norm), -(rho**2)


def lagged_design(series: list[np.ndarray], lags: int) -> np.ndarray:
    """Regressor matrix with columns ``s[n-1] .. s[n-lags]`` per series.

    Rows correspond to times ``n = lags .. N-1`` (0-based); the caller pairs
    them with targets ``s[lags:]``. Series of shape ``(..., N)`` give
    designs of shape ``(..., N - lags, columns)``.
    """
    cols = []
    for s in series:
        for k in range(1, lags + 1):
            cols.append(s[..., lags - k : s.shape[-1] - k])
    return np.stack(cols, axis=-1)


def gated_lstsq(a: np.ndarray, b: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``lstsq`` solution and residuals; a design its SVD finds rank-deficient raises."""
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < a.shape[1]:
        raise ValueError(f"rank-deficient regression while fitting {what} (rank {rank})")
    return sol, b - a @ sol


def fit_var(x: np.ndarray, y: np.ndarray, p: int) -> BivariateVarModel:
    """Least-squares fit of a bivariate AR(p) model: :func:`fit_var_stack` of one pair."""
    x, y = np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None]
    coeffs, sigma = fit_var_stack(x, y, p)
    return BivariateVarModel(coeffs[0], sigma[0])


def fit_var_stack(x: np.ndarray, y: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of bivariate AR(p) models to a stack of pairs ``(B, N)``.

    Both equations are regressed on the joint past ``(X_{n-1..n-p},
    Y_{n-1..n-p})`` over samples ``p+1 .. N``. The innovation covariance is
    the residual covariance with divisor ``N - p``. One ``lstsq`` per row
    keeps each row's coefficients those of its pair alone. Returns ``coeffs``
    ``(B, p, 2, 2)`` and ``sigma`` ``(B, 2, 2)``, through the model's gates.
    """
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must be equal-shape stacks of one-dimensional series")
    n = x.shape[-1]
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if n <= 4 * p + 2:
        raise ValueError(f"need more than {4 * p + 2} samples to fit order {p}, got {n}")
    design = lagged_design([x, y], p)
    targets = np.stack([x[:, p:], y[:, p:]], axis=-1)
    sols = np.empty((x.shape[0], 2 * p, 2))
    resid = np.empty_like(targets)
    for i in range(x.shape[0]):
        sols[i], resid[i] = gated_lstsq(design[i], targets[i], "the full model")
    sigma = np.swapaxes(resid, -1, -2) @ resid / (n - p)
    # sols rows: [x lags 1..p, y lags 1..p], columns: equations; map to (B, p, 2, 2)
    coeffs = sols.reshape(-1, 2, p, 2).transpose(0, 2, 3, 1)
    exact = _exact_equations(sigma, (targets**2).mean(axis=-2)).any(axis=0)
    if exact.any():
        raise ValueError(
            f"the {'target' if exact[1] else 'driver'} is an exact function of the past at "
            f"order {p}: its residual variance is at rounding level of its mean square"
        )
    _check_parameters(coeffs, sigma)
    return coeffs, sigma


def _exact_equations(sigma: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Equations ``(..., 2)`` whose residual variance is rounding: ``<= eps`` times the
    mean square ``power`` of their targets, so every log-ratio built on it is noise."""
    return np.diagonal(sigma, axis1=-2, axis2=-1) <= np.finfo(float).eps * power


def aic_curve(x: np.ndarray, y: np.ndarray, p_max: int = 14) -> np.ndarray:
    """``AIC(p) = N ln det(Sigma_p) + 2 (4 p)`` for ``p = 1 .. p_max``, N the pair length.

    ``Sigma_p`` is :func:`fit_var`'s innovation covariance, each order on its
    own sample ``p+1 .. N``, from one QR factorisation instead of a fit per
    order. With ``Z = [S_{n-1} .. S_{n-P}, S_n]`` (lag-major, zero before the
    start), ``R0 = qr(Z[P:])`` covers the rows all orders share; order p's
    columns of ``R0`` stacked over its extra rows ``Z[p:P]`` take one small QR
    to the R factor of its own design and targets. The leading ``2p x 2p``
    block has the design's singular values, gated with ``lstsq``'s rank
    threshold; the trailing ``2 x 2`` block ``R22`` gives ``Sigma_p =
    R22^T R22 / (N - p)``. As :func:`fit_var` would, the scan stops at the
    first order with ``N <= 4p + 2``, a rank-deficient design, non-finite
    values or a ``Sigma_p`` that is not positive definite; that order and all
    larger ones get ``inf``, as does one whose ``det Sigma_p`` is not positive.
    An order with an exact equation (:func:`fit_var`'s rule, the targets' mean
    square read off their columns of ``R``) gets ``-inf`` and ends the scan.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be one-dimensional series of equal length")
    n, s = x.size, np.stack([x, y], axis=-1)
    top = max(0, min(p_max, (n - 3) // 4))  # largest order with n > 4p + 2
    z = np.zeros((n, top + 1, 2))
    z[:, top] = s
    for k in range(1, top + 1):
        z[k:, k - 1] = s[:-k]
    z = z.reshape(n, 2 * top + 2)
    r0 = np.linalg.qr(z[top:], mode="r")
    sigmas, powers = [], []
    for p in range(1, top + 1):
        cols = np.r_[: 2 * p, -2, -1]
        r = np.linalg.qr(np.vstack([r0[:, cols], z[p:top, cols]]), mode="r")
        if not np.isfinite(r).all():
            break
        sv = np.linalg.svd(r[: 2 * p, : 2 * p], compute_uv=False)
        if sv[-1] <= np.finfo(float).eps * max(n - p, 2 * p) * sv[0]:
            break  # lstsq would find the design rank-deficient
        r22 = r[2 * p :, 2 * p :]
        sigmas.append(r22.T @ r22 / (n - p))
        powers.append((r[:, 2 * p :] ** 2).sum(axis=0) / (n - p))  # targets' mean square
    sigma = np.reshape(sigmas, (-1, 2, 2))
    exact = _exact_equations(sigma, np.reshape(powers, (-1, 2))).any(axis=-1)
    # orders up to the first Sigma_p that is exact or not positive definite
    fitted = int(np.cumprod(~exact & (np.linalg.eigvalsh(sigma).min(axis=-1) > 0)).sum())
    sign, logdet = np.linalg.slogdet(sigma[:fitted])
    aics = np.full(p_max, np.inf)
    aics[:fitted] = np.where(sign > 0, n * logdet + 2 * (4 * np.arange(1, fitted + 1)), np.inf)
    if fitted < exact.size and exact[fitted]:
        aics[fitted] = -np.inf  # the limit of ln det Sigma_p: this order fits exactly
    return aics


def select_order_aic(x: np.ndarray, y: np.ndarray, p_max: int = 14) -> int:
    """The order ``1 .. p_max`` minimizing :func:`aic_curve`; ties go to the smaller order."""
    aics = aic_curve(x, y, p_max)
    if np.isneginf(aics).any():  # a lower order would only misfit an exact relation
        raise ValueError(
            f"no order could be fitted: at order {np.argmin(aics) + 1} a channel is an "
            "exact function of the past, its residual variance at rounding level"
        )
    if not np.isfinite(aics).any():
        raise ValueError("no order could be fitted; series too short or degenerate")
    return int(np.argmin(aics)) + 1


def autocovariance_stack(coeffs: np.ndarray, sigma: np.ndarray, q: int) -> np.ndarray:
    """Autocovariances ``(B, q+1, 2, 2)`` of a stack of stable models.

    The stacked process ``psi_n = (S_n, ..., S_{n-p+1})`` satisfies
    ``Psi = A Psi A^T + Xi`` with ``A`` the companion matrix and ``Xi`` the
    innovation covariance padded with zeros; the first block row of ``Psi``
    yields ``Gamma_0 .. Gamma_{p-1}`` and higher lags follow from the
    recursion ``Gamma_k = sum_l A_l Gamma_{k-l}``. The stack is gated as a
    whole by :func:`require_stable` first.
    """
    if q < 0:
        raise ValueError(f"lag bound must be >= 0, got {q}")
    require_stable(coeffs, "model")
    b, p = coeffs.shape[:2]
    comp = companion_matrix(coeffs)
    xi = np.zeros_like(comp)
    xi[:, :2, :2] = sigma
    psi = scipy.linalg.solve_discrete_lyapunov(comp, xi)
    psi = (psi + np.swapaxes(psi, -1, -2)) / 2  # remove roundoff asymmetry
    gammas = np.empty((b, max(q, p - 1) + 1, 2, 2))
    gammas[:, :p] = psi[:, :2].reshape(b, 2, p, 2).swapaxes(1, 2)
    lags = np.arange(1, p + 1)
    for k in range(p, gammas.shape[1]):
        gammas[:, k] = np.einsum("blij,bljk->bik", coeffs, gammas[:, k - lags])
    return gammas[:, : q + 1]
