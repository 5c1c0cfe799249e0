"""Bivariate autoregressive models: fitting, order selection, autocovariance.

The full model of a pair ``S_n = (X_n, Y_n)`` is

    S_n = sum_{k=1..p} A_k S_{n-k} + U_n,      cov(U_n) = Sigma,

with 2x2 coefficient matrices ``A_k``. Everything downstream (spectra,
restricted models, causality measures) is derived from ``(A, Sigma)``, so
this module also provides the exact autocovariance sequence of a stable
model, from one batched solve of the reverse Yule-Walker equations.
Every stability gate is :func:`require_stable`, a Schur-Cohn step-down on
the determinant polynomial ``det E(z)`` (:func:`det_polynomial`), and every
simulation, the three-process confounded system and surrogate batches
included, runs :func:`simulate_var`: a block-state scan of the recursion in
stacked matmuls, each row bit-identical at any batch size.

Every least-squares fit is the R factor of ``[design | targets]`` from the
lag-major :func:`lag_matrix` (a QR per row chunk), ``lstsq``'s rank rule on
its ``R11`` and a triangular solve (:func:`gated_lstsq`); :func:`_rank` takes
the SVD only when a Cholesky screen of ``R11^T R11`` cannot decide.
:func:`fit_var_stack` (one batched R per block) and the AIC scan (one R plus
one small QR per order, for a whole block of pairs at once) read rank,
``Sigma`` and exact equations off R through one per-order gate.
:func:`fit_var_aic_stack` takes each pair's R and ``Sigma_p`` at its chosen
order from one scan of its block; :func:`fit_var`, the one entry from a pair
to a model, is at ``"aic"`` its batch of one and :func:`aic_curve` that scan's
row. :func:`autocovariance_stack` gates, solves and recurses a whole block at
once. :data:`P_MAX` is the default ``p_max`` of the AIC entries, the config and the CLI.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

P_MAX = 14  # default largest order of the AIC scan, for the library, the config and the CLI


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


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``(..., i + j - 1)`` of polynomial taps ``(..., i)`` and ``(..., j)``."""
    *lead, i = a.shape
    n = i + b.shape[-1] - 1
    terms = np.zeros((*lead, i, n + 1))
    terms[..., : b.shape[-1]] = a[..., :, None] * b[..., None, :]  # row r: a_r b_s at s
    # rows of n + 1 read as rows of n: row r moves right by r, so a_r b_s lands at r + s
    return terms.reshape(*lead, -1)[..., : i * n].reshape(*lead, i, n).sum(axis=-2)


def det_polynomial(coeffs: np.ndarray) -> np.ndarray:
    """Taps ``(..., k m + 1)`` of ``det E(z)``, ``E(z) = I - sum_l A_l z^l``, of lags
    ``(..., m, k, k)``; the roots of ``det E`` are the inverse nonzero companion eigenvalues."""
    coeffs = np.asarray(coeffs, dtype=float)
    *batch, m, k, _ = coeffs.shape
    e = np.zeros((*batch, k, k, m + 1))  # taps of E_ij(z)
    e[..., 0] = np.eye(k)
    e[..., 1:] = -np.moveaxis(coeffs, -3, -1)
    # Leibniz: the signed sum over permutations of the products of E_{i, perm(i)}(z)
    perms = list(itertools.permutations(range(k)))
    factors = e[..., range(k), perms, :]  # (..., k!, k, m + 1)
    det = factors[..., 0, :]
    for i in range(1, k):
        det = _polymul(det, factors[..., i, :])
    inversions = [sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) for p in perms]
    return ((-1.0) ** np.array(inversions)[:, None] * det).sum(axis=-2)


def schur_cohn_stable(taps: np.ndarray) -> np.ndarray:
    """Whether each ``(..., n + 1)`` row ``c_0 + c_1 z + .. + c_n z^n``, ``c_0 != 0``, has no
    root in ``|z| <= 1``.

    The Schur-Cohn step-down (Jury, 1964): a row has none exactly when its reflection
    coefficient ``k = c_n / c_0`` has ``|k| < 1`` and the row of degree ``n - 1``, ``c_i - k
    c_{n-i}``, has none. A non-finite coefficient fails the row.
    """
    c = np.asarray(taps, dtype=float)
    reflections = [np.zeros(c.shape[:-1] + (0,))]  # a constant row has no reflection
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(c.shape[-1] - 1, 0, -1):
            k = c[..., n : n + 1] / c[..., :1]
            reflections.append(k)
            c = c[..., :n] - k * c[..., n:0:-1]
    return (np.abs(np.concatenate(reflections, axis=-1)) < 1).all(axis=-1)


def require_stable(coeffs: np.ndarray, what: str) -> None:
    """Raise :class:`UnstableModelError` naming ``what`` unless all of ``coeffs`` is stable.

    Lags ``(..., m, k, k)`` are stable when :func:`schur_cohn_stable` passes their
    :func:`det_polynomial`, its all-zero trailing taps (of zero-padded lags) cut, each an idle
    step; the companion radius is computed only to word a failure.
    """
    taps = det_polynomial(coeffs)
    width = np.trim_zeros(taps.reshape(-1, taps.shape[-1]).any(axis=0), "b").size
    if not schur_cohn_stable(taps[..., :width]).all():
        rho = np.max(spectral_radius(coeffs))
        raise UnstableModelError(
            f"{what} is unstable: companion spectral radius {rho:.6g} >= 1"
        )


def simulate_var(coeffs: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Run ``s_t = sum_{l=1..m} A_l s_{t-l} + drive_t`` from zero initial conditions.

    ``coeffs`` is ``(m, k, k)``, ``drive`` and the result ``(..., T, k)``. A block-state scan
    (Burrus, "Block realization of digital filters", 1972): time is cut into blocks of ``L =
    m + 16`` samples, and a block's ``L k`` outputs are its drive times the block-lower-
    triangular Toeplitz matrix of the impulse response ``Psi_0 .. Psi_{L-1}``, plus the
    previous block's last ``m`` outputs times an ``(m k, L k)`` state matrix. Both matrices
    are the recursion's own responses to unit inputs, run once per call. The zero-state parts
    of all blocks are one matmul, and the state parts follow in a loop over the blocks.

    Every matmul is stacked over the drive's rows, each 2-D slice of a shape that does not
    depend on the batch, so each row is bit-identical at any batch size. One 2-D GEMM over
    the whole batch would not be: the BLAS kernel, and with it the rounding, depends on the
    product's shape.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 3 or coeffs.shape[1:] != np.shape(drive)[-1:] * 2:  # k channels, k x k lags
        raise ValueError(f"lags {coeffs.shape}, drive {np.shape(drive)}: not (m, k, k), (.., T, k)")
    m, k = coeffs.shape[:2]
    size = m + 16  # L: the loop over blocks stays short, the Toeplitz product (half zeros) cheap
    # unit responses over a block: unit r < m k is a past output, the others a drive sample
    units = (m + size) * k
    s = np.eye(units).reshape(units, m + size, k)
    window = coeffs[::-1].swapaxes(-1, -2).reshape(m * k, k)  # s_{t-m} .. s_{t-1} -> s_t
    for t in range(m, m + size):
        s[:, t] += s[:, t - m : t].reshape(units, m * k) @ window
    response = s[:, m:].reshape(units, size * k)
    state, toeplitz = response[: m * k], response[m * k :]
    drive = np.asarray(drive, dtype=float)
    *lead, steps, _ = drive.shape
    blocks = -(-steps // size)
    padded = np.zeros((*lead, blocks * size, k))
    padded[..., :steps, :] = drive
    out = padded.reshape(math.prod(lead), blocks, size * k) @ toeplitz
    for j in range(1, blocks):
        out[:, j : j + 1] += out[:, j - 1 : j, (size - m) * k :] @ state
    return out.reshape(*lead, blocks * size, k)[..., :steps, :]


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


def lag_matrix(s: np.ndarray, lags: int) -> np.ndarray:
    """``[S_{n-1} .. S_{n-lags}, S_n]`` at each ``n``, lag-major, zero before the start.

    Channels ``(..., C, N)`` give ``(..., N, C (lags + 1))``. For ``(X, Y)``, rows ``p ..``
    of the first ``2p`` and the last two columns are the design and the targets of an
    order-``p`` fit on samples ``p+1 .. N``, for any ``p <= lags``.
    """
    s = np.asarray(s, dtype=float)
    *lead, c, n = s.shape
    z = np.zeros((*lead, lags + 1, c, n))  # column-major: a lag is one copy
    z[..., lags, :, :] = s
    for k in range(1, lags + 1):
        z[..., k - 1, :, k:] = s[..., :-k]
    return np.swapaxes(z.reshape(*lead, (lags + 1) * c, n), -1, -2)


def _rank(r11: np.ndarray, rows: int) -> np.ndarray:
    """Ranks of designs of ``rows`` rows from their QR's ``R11`` ``(..., k, k)``, by ``lstsq``'s
    rule: singular values up to ``eps * max(rows, k)`` times the largest count as zero.

    A Cholesky screen decides a stack of full rank without the SVD. With ``floor = max(1e-6,
    1e3 eps max(rows, k))``, if every ``R11`` is finite and ``G = R11^T R11 - floor^2 |R11|_F^2
    I`` has a Cholesky factor, every row has rank ``k``. Forming ``G`` and factoring it each
    move it by at most ``O(k eps) |R11|_F^2`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 10.1), so success gives ``sigma_min^2 >= (floor^2 - O(k eps)) |R11|_F^2``:
    ``sigma_min >~ floor sigma_max``, far above the rule's ``eps max(rows, k) sigma_max``. The
    screen never changes a decision. A stack it cannot decide takes the SVD rule: a zeroed,
    non-finite or near-singular row, or a shift below the normal range, where rounding is
    absolute and the bound fails.
    """
    k = r11.shape[-1]
    eps = np.finfo(float).eps
    if np.isfinite(r11).all():
        floor = max(1e-6, 1e3 * eps * max(rows, k))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the screen
            shift = floor**2 * (r11**2).sum(axis=(-2, -1))
            gram = np.swapaxes(r11, -1, -2) @ r11 - shift[..., None, None] * np.eye(k)
        if shift.min(initial=np.inf) >= np.finfo(float).tiny:
            try:
                np.linalg.cholesky(gram)
                return np.full(r11.shape[:-2], k)
            except np.linalg.LinAlgError:
                pass
    sv = np.linalg.svd(r11, compute_uv=False)
    return (sv > eps * max(rows, k) * sv[..., :1]).sum(axis=-1)


def _solve(r: np.ndarray, k: int, rank: np.ndarray, what: str) -> np.ndarray:
    """``R11^-1 R12`` of full-rank designs by one batched LU, which on a triangular ``R11`` is
    back substitution; ``scipy.linalg.solve_triangular`` would loop over a block in Python."""
    if np.min(rank) < k:
        raise ValueError(f"rank-deficient regression while fitting {what} (rank {np.min(rank)})")
    return np.linalg.solve(r[..., :k, :k], r[..., :k, k:])


def _require_finite(*series: np.ndarray) -> None:
    """Refuse non-finite samples before an R factor, in the words of
    :class:`gica.timeseries.TimeSeriesPair`; the rank gate's SVD would fail on them with a
    ``LinAlgError`` that does not name the input."""
    if not all(np.isfinite(s).all() for s in series):
        raise ValueError("series contain non-finite values")


def _r_factor(z: np.ndarray, chunk: int = 1 << 14) -> np.ndarray:
    """R of ``z`` ``(..., M, c)``, ``M >= c``: a QR per ``chunk`` rows under the running R."""
    r = np.linalg.qr(z[..., :chunk, :], mode="r")
    for start in range(chunk, z.shape[-2], chunk):
        r = np.linalg.qr(np.concatenate([r, z[..., start : start + chunk, :]], -2), mode="r")
    return r


def gated_lstsq(z: np.ndarray, k: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of the last columns of ``z`` ``(..., M, k + t)`` on its first ``k``: one R
    factor, the rank gate, a triangular solve. Returns solutions ``(..., k, t)`` and residuals."""
    if z.shape[-2] <= k:
        raise ValueError(f"series too short for {what}: {z.shape[-2]} rows, {k} regressors")
    _require_finite(z)
    r = _r_factor(z)
    sol = _solve(r, k, _rank(r[..., :k, :k], z.shape[-2]), what)
    return sol, z[..., k:] - z[..., :k] @ sol


def _order_gate(r: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design rank, ``Sigma_p = R22^T R22 / rows`` and exact-equation flags ``(..., 2)`` from R
    factors of ``[design | targets]``; an equation is exact when its residual variance is at
    most ``eps`` times its target's mean square: every log-ratio built on it is noise."""
    k = r.shape[-1] - 2
    sigma = np.swapaxes(r[..., k:, k:], -1, -2) @ r[..., k:, k:] / rows
    power = (r[..., k:] ** 2).sum(axis=-2) / rows
    exact = np.diagonal(sigma, axis1=-2, axis2=-1) <= np.finfo(float).eps * power
    return _rank(r[..., :k, :k], rows), sigma, exact


def fit_var(
    x: np.ndarray, y: np.ndarray, order: int | str, p_max: int = P_MAX
) -> BivariateVarModel:
    """Least-squares fit of a bivariate AR model: :func:`fit_var_stack` of one pair at an integer
    ``order``; at ``"aic"``, :func:`fit_var_aic_stack` of the pair as a batch of one."""
    x, y = _one_pair(x, y)
    if order == "aic":
        model = fit_var_aic_stack(x, y, p_max)[0]
        if isinstance(model, ValueError):
            raise model
        return model
    coeffs, sigma = fit_var_stack(x, y, int(order))
    return BivariateVarModel(coeffs[0], sigma[0])


def fit_var_aic_stack(
    x: np.ndarray, y: np.ndarray, p_max: int = P_MAX
) -> list[BivariateVarModel | ValueError]:
    """Per pair of stacks ``(B, N)``, the order ``1 .. p_max`` minimizing its :func:`aic_curve`
    (ties go to the smaller) and its ``R11^-1 R12`` and ``Sigma_p``, those one :func:`_aic_scan`
    of the block formed and gated for it; or, for a pair no order fits, the ``ValueError``
    :func:`fit_var` raises for it at ``"aic"``."""
    aics, fits = _aic_scan(x, y, p_max)
    models: list[BivariateVarModel | ValueError] = []
    for row, curve in enumerate(aics):
        try:
            _require_finite(x[row], y[row])  # its curve is all inf: no R of it is finite
            if np.isneginf(curve).any():  # a lower order would only misfit an exact relation
                raise ValueError(
                    f"no order could be fitted: at order {np.argmin(curve) + 1} a channel is an "
                    "exact function of the past, its residual variance at rounding level"
                )
            if not np.isfinite(curve).any():
                raise ValueError("no order could be fitted; series too short or degenerate")
            order = int(np.argmin(curve)) + 1
            r, sigma = fits[order - 1]  # the scan kept this row alive through its order
            coeffs = _solve(r[row], 2 * order, 2 * order, "the full model").reshape(order, 2, 2)
            models.append(BivariateVarModel(coeffs.swapaxes(-1, -2), sigma[row]))
        except ValueError as err:
            models.append(err)
    return models


def fit_var_stack(x: np.ndarray, y: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of bivariate AR(p) models to a stack of pairs ``(B, N)``.

    One batched R of rows ``p ..`` of :func:`lag_matrix` (samples ``p+1 .. N``), its per-order
    gate and ``R11^-1 R12``. Returns ``coeffs`` ``(B, p, 2, 2)`` and the residual covariances
    ``sigma`` ``(B, 2, 2)`` (divisor ``N - p``), through the model's gates.
    """
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("x and y must be equal-shape stacks of one-dimensional series")
    n = x.shape[-1]
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if n <= 4 * p + 2:
        raise ValueError(f"need more than {4 * p + 2} samples to fit order {p}, got {n}")
    _require_finite(x, y)
    r = _r_factor(lag_matrix(np.stack([x, y], axis=-2), p)[:, p:])
    rank, sigma, exact = _order_gate(r, n - p)
    # solution rows: (X, Y) at lags 1..p; columns: equations
    coeffs = _solve(r, 2 * p, rank, "the full model").reshape(-1, p, 2, 2).swapaxes(-1, -2)
    exact = exact.any(axis=0)
    if exact.any():
        raise ValueError(
            f"the {'target' if exact[1] else 'driver'} is an exact function of the past at "
            f"order {p}: its residual variance is at rounding level of its mean square"
        )
    _check_parameters(coeffs, sigma)
    return coeffs, sigma


def aic_curve(x: np.ndarray, y: np.ndarray, p_max: int = P_MAX) -> np.ndarray:
    """``AIC(p) = N ln det(Sigma_p) + 2 (4 p)`` for ``p = 1 .. p_max``, N the pair length.

    ``Sigma_p`` is :func:`fit_var`'s, each order on its own sample ``p+1 ..
    N``, from one R factor instead of a fit per order: the pair's row of
    :func:`_aic_scan`, as a batch of one. With ``Z`` the :func:`lag_matrix`
    of ``P`` lags, ``R0`` of ``Z[P:]`` covers the rows all orders share;
    order p's columns of ``R0`` over its extra rows ``Z[p:P]`` take one
    small QR to its R factor, read by :func:`fit_var_stack`'s gate. The curve
    ends at the first order with ``N <= 4p + 2``, non-finite values, a
    rank-deficient design or a ``Sigma_p`` that is not positive definite: it
    and all larger orders get ``inf``, as does one whose ``det Sigma_p`` is
    not positive. An exact order gets ``-inf`` and ends the curve.
    """
    return _aic_scan(*_one_pair(x, y), p_max)[0][0]


def _one_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A pair of one-dimensional series as stacks ``(1, N)``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be one-dimensional series of equal length")
    return x[None], y[None]


def _aic_scan(x: np.ndarray, y: np.ndarray, p_max: int) -> tuple[np.ndarray, list[tuple]]:
    """:func:`aic_curve` ``(B, p_max)`` of pairs of stacks ``(B, N)``, and per order from 1 the
    stacks ``(R, Sigma_p)`` it formed: one batched small QR and one gate per order for the block.

    A row stays alive while its R is finite and its design has full rank: a non-finite R is
    swapped for zeros, of rank 0, before the gate, and the scan ends when no row is alive. An
    exact order or a ``Sigma_p`` that is not positive definite ends a row's curve after the
    scan, through the same running mask. Each row's curve, R and ``Sigma_p`` are those of the
    row scanned alone.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError("x and y must be equal-shape stacks of one-dimensional series")
    n = x.shape[-1]
    top = max(0, min(p_max, (n - 3) // 4))  # largest order with n > 4p + 2
    pairs = np.stack([x, y], axis=-2)
    # R0 row by row: a block's whole lag matrix would be held twice during its QR
    r0 = np.stack([_r_factor(lag_matrix(pair, top)[top:]) for pair in pairs])
    z = lag_matrix(pairs[..., :top], top)  # rows 0 .. top-1: the extra rows of lower orders
    alive = np.ones(len(x), dtype=bool)
    fits, full, exacts = [], [], []
    for p in range(1, top + 1):
        rows = np.concatenate([r0, z[:, p:top]], axis=-2).take([*range(2 * p), -2, -1], axis=-1)
        r = np.linalg.qr(rows, mode="r")
        if not np.isfinite(r).all():
            r = np.where(np.isfinite(r).all(axis=(-2, -1))[:, None, None], r, 0.0)
        rank, sigma, exact = _order_gate(r, n - p)
        alive = alive & (rank == 2 * p)
        fits.append((r, sigma))
        full.append(alive)
        exacts.append(exact)
        if not alive.any():
            break
    aics = np.full((len(x), p_max), np.inf)
    if fits:
        sigma = np.stack([s for _, s in fits], axis=1)
        full = np.stack(full, axis=-1)
        exact = np.stack(exacts, axis=1).any(axis=-1) & full
        # orders up to the first that is exact, rank-deficient or not positive definite
        fitted = np.logical_and.accumulate(
            full & ~exact & (np.linalg.eigvalsh(sigma)[..., 0] > 0), axis=-1
        )
        sign, logdet = np.linalg.slogdet(sigma)
        penalty = 2 * (4 * np.arange(1, len(fits) + 1))
        aics[:, : len(fits)] = np.where(fitted & (sign > 0), n * logdet + penalty, np.inf)
        # the limit of ln det Sigma_p at an exact order that ends a curve
        ends = exact & np.pad(fitted, ((0, 0), (1, 0)), constant_values=True)[:, :-1]
        aics[:, : len(fits)][ends] = -np.inf
    return aics, fits


def autocovariance_stack(coeffs: np.ndarray, sigma: np.ndarray, q: int) -> np.ndarray:
    """Autocovariances ``(B, q+1, 2, 2)`` of a stack of stable models.

    ``Gamma_0 .. Gamma_p`` solve the reverse Yule-Walker equations ``Gamma_k -
    sum_l A_l Gamma_{k-l} = [k = 0] Sigma``, ``k = 0 .. p``, with ``Gamma_{-j} =
    Gamma_j^T``: ``4 (p + 1)`` unknowns per model, one batched solve of systems built
    by index. Higher lags follow from the recursion ``Gamma_k = sum_l A_l
    Gamma_{k-l}``. The stack is gated as a whole by :func:`require_stable` first.
    """
    if q < 0:
        raise ValueError(f"lag bound must be >= 0, got {q}")
    require_stable(coeffs, "model")
    b, p = coeffs.shape[:2]
    size = 4 * (p + 1)  # unknown (j, m, c) is Gamma_j[m, c] at 4 j + 2 m + c
    k, lag, i, m, c = np.ix_(range(p + 1), range(1, p + 1), range(2), range(2), range(2))
    d = k - lag  # equation (k, i, c) takes A_l[i, m] Gamma_d[m, c]; Gamma_d = Gamma_{-d}^T
    col = 4 * abs(d) + np.where(d >= 0, 2 * m + c, 2 * c + m)
    entry = np.broadcast_to((4 * k + 2 * i + c) * size + col, (p + 1, p, 2, 2, 2)).ravel()
    terms = np.broadcast_to(coeffs[:, None, ..., None], (b, p + 1, p, 2, 2, 2)).reshape(b, -1)
    # a bincount sums the terms that share an entry: Gamma_j[c, c] enters row k at lags k +- j
    entries = (np.arange(b)[:, None] * size**2 + entry).ravel()
    system = np.eye(size) - np.bincount(entries, terms.ravel(), b * size**2).reshape(b, size, size)
    rhs = np.zeros((b, size))
    rhs[:, :4] = sigma.reshape(b, 4)
    gammas = np.empty((b, max(q, p - 1) + 1, 2, 2))
    gammas[:, :p] = np.linalg.solve(system, rhs[..., None]).reshape(b, p + 1, 2, 2)[:, :p]
    gammas[:, 0] = (gammas[:, 0] + np.swapaxes(gammas[:, 0], -1, -2)) / 2  # roundoff asymmetry
    lags = np.arange(1, p + 1)
    for k in range(p, gammas.shape[1]):
        gammas[:, k] = np.einsum("blij,bljk->bik", coeffs, gammas[:, k - lags])
    return gammas[:, : q + 1]
