"""Bivariate autoregressive models: fitting, order selection, autocovariance.

The full model of a pair ``S_n = (X_n, Y_n)`` is

    S_n = sum_{k=1..p} A_k S_{n-k} + U_n,      cov(U_n) = Sigma,

with 2x2 coefficient matrices ``A_k``. Everything downstream (spectra,
restricted models, causality measures) is derived from ``(A, Sigma)``, so
this module also provides the exact autocovariance sequence of a stable
model, obtained from the companion-form discrete Lyapunov equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


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
        if not (np.isfinite(coeffs).all() and np.isfinite(sigma).all()):
            raise ValueError("model parameters contain non-finite values")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        if np.linalg.eigvalsh(sigma).min() <= 0:
            raise ValueError("sigma must be positive definite")
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

    def companion(self) -> np.ndarray:
        """Companion matrix, shape ``(2p, 2p)``."""
        return companion_matrix(self.coeffs)

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.companion())).max())

    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0

    def require_stable(self) -> None:
        rho = self.spectral_radius()
        if rho >= 1.0:
            raise UnstableModelError(
                f"model is unstable: companion spectral radius {rho:.6g} >= 1"
            )

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

    @classmethod
    def from_dict(cls, data: dict) -> "BivariateVarModel":
        coeffs = np.asarray(data["A"], dtype=float)
        if coeffs.shape[0] != int(data["p"]):
            raise ValueError(
                f"declared order {data['p']} does not match {coeffs.shape[0]} "
                "coefficient matrices"
            )
        return cls(coeffs, np.asarray(data["Sigma"], dtype=float))


def companion_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Stack lag matrices ``(p, m, m)`` into companion form ``(mp, mp)``."""
    coeffs = np.asarray(coeffs, dtype=float)
    p, m, _ = coeffs.shape
    comp = np.zeros((m * p, m * p))
    comp[:m] = np.concatenate(list(coeffs), axis=1)
    if p > 1:
        comp[m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return comp


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
    them with targets ``s[lags:]``.
    """
    cols = []
    for s in series:
        for k in range(1, lags + 1):
            cols.append(s[lags - k : len(s) - k])
    return np.column_stack(cols)


def fit_var(x: np.ndarray, y: np.ndarray, p: int) -> BivariateVarModel:
    """Least-squares fit of a bivariate AR(p) model.

    Both equations are regressed on the joint past ``(X_{n-1..n-p},
    Y_{n-1..n-p})`` over samples ``p+1 .. N``. The innovation covariance is
    the residual covariance with divisor ``N - p``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional with equal length")
    n = x.size
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if n <= 4 * p + 2:
        raise ValueError(f"need more than {4 * p + 2} samples to fit order {p}, got {n}")
    design = lagged_design([x, y], p)
    targets = np.column_stack([x[p:], y[p:]])
    sol, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < design.shape[1]:
        raise ValueError(
            "rank-deficient regression: the lagged design matrix has rank "
            f"{rank} < {design.shape[1]} (constant or collinear series)"
        )
    resid = targets - design @ sol
    sigma = resid.T @ resid / (n - p)
    # sol rows: [x lags 1..p, y lags 1..p]; map to (p, 2, 2)
    coeffs = np.empty((p, 2, 2))
    coeffs[:, :, 0] = sol[:p]
    coeffs[:, :, 1] = sol[p:]
    return BivariateVarModel(coeffs, sigma)


def select_order_aic(x: np.ndarray, y: np.ndarray, p_max: int = 14) -> int:
    """Pick the model order minimizing AIC over ``p = 1 .. p_max``.

    AIC(p) = N ln det(Sigma_p) + 2 (4 p), with N the pair length. Ties go
    to the smaller order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    n = x.size
    aics = np.full(p_max, np.inf)
    for p in range(1, p_max + 1):
        try:
            model = fit_var(x, y, p)
        except ValueError:
            break  # not enough samples for this and larger orders
        sign, logdet = np.linalg.slogdet(model.sigma)
        if sign <= 0:
            continue
        aics[p - 1] = n * logdet + 2 * (4 * p)
    if not np.isfinite(aics).any():
        raise ValueError("no order could be fitted; series too short or degenerate")
    return int(np.argmin(aics)) + 1


@dataclass(frozen=True)
class AutocovarianceSequence:
    """Exact lagged covariances ``Gamma_k = E[S_n S_{n-k}^T]`` of a model.

    ``gammas[k]`` is the 2x2 matrix for lag ``k``, ``k = 0 .. q``.
    """

    gammas: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        gammas = np.asarray(self.gammas, dtype=float)
        if gammas.ndim != 3 or gammas.shape[1:] != (2, 2):
            raise ValueError(f"gammas must have shape (q+1, 2, 2), got {gammas.shape}")
        gammas.setflags(write=False)
        object.__setattr__(self, "gammas", gammas)

    @property
    def q(self) -> int:
        return int(self.gammas.shape[0]) - 1

    def gamma_xx(self, k: int) -> float:
        return float(self.gammas[abs(k), 0, 0])

    def gamma_yy(self, k: int) -> float:
        return float(self.gammas[abs(k), 1, 1])

    def gamma_yx(self, k: int) -> float:
        """``E[Y_n X_{n-k}]`` for ``k >= 0``."""
        if k < 0:
            raise ValueError("use gamma_xy for negative lags")
        return float(self.gammas[k, 1, 0])


def compute_autocovariance(model: BivariateVarModel, q: int) -> AutocovarianceSequence:
    """Autocovariance sequence of a stable model up to lag ``q``.

    The stacked process ``psi_n = (S_n, ..., S_{n-p+1})`` satisfies
    ``Psi = A Psi A^T + Xi`` with ``A`` the companion matrix and ``Xi`` the
    innovation covariance padded with zeros; the first block row of ``Psi``
    yields ``Gamma_0 .. Gamma_{p-1}`` and higher lags follow from the
    recursion ``Gamma_k = sum_l A_l Gamma_{k-l}``.
    """
    if q < 0:
        raise ValueError(f"lag bound must be >= 0, got {q}")
    model.require_stable()
    p = model.p
    comp = model.companion()
    xi = np.zeros_like(comp)
    xi[:2, :2] = model.sigma
    psi = scipy.linalg.solve_discrete_lyapunov(comp, xi)
    psi = (psi + psi.T) / 2  # remove roundoff asymmetry
    gammas = np.empty((max(q, p - 1) + 1, 2, 2))
    for j in range(p):
        gammas[j] = psi[:2, 2 * j : 2 * j + 2]
    for k in range(p, gammas.shape[0]):
        acc = np.zeros((2, 2))
        for l in range(1, p + 1):
            g = gammas[k - l] if k - l >= 0 else gammas[l - k].T
            acc += model.coeffs[l - 1] @ g
        gammas[k] = acc
    return AutocovarianceSequence(gammas[: q + 1])
