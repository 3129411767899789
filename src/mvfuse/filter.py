"""Unscented Kalman filtering on stacks of Gaussian states.

The scaled unscented transform with Merwe weights: for dimension d and scaling
(alpha, beta, kappa), lambda = alpha^2 (d + kappa) - d, sigma points are the
mean plus/minus the columns of chol((d + lambda) P), the center mean weight is
lambda / (d + lambda) and the center covariance weight adds (1 - alpha^2 +
beta). For affine measurement maps the update reproduces the closed-form
Kalman filter exactly, independent of the scaling parameters.

A stack of n independent states is an (n, d) mean array with an (n, d, d)
covariance array; predict and update take and return such a pair and act on
every row in one call. Rows never mix: a row's result does not depend on the
other rows of its stack.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    CholeskyFailure,
    DimensionMismatch,
    DivergentUpdate,
    FilterError,
    GeometryError,
    InvalidDt,
    SigmaPointProjectionFailure,
    SingularInnovation,
)

logger = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.1
DEFAULT_BETA = 2.0
DEFAULT_KAPPA = 0.0

# Relative jitter ladder used before declaring a factorization failure.
_JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)

def _transpose(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _checked_covariances(cov: np.ndarray, not_finite: str, asymmetric: str, indefinite: str) -> np.ndarray:
    """The (n, d, d) stack ``cov`` symmetrized, after three rules taken in
    order, each once the ones before pass: each matrix is finite, symmetric,
    and has no eigenvalue below minus its tolerance, 1e-9 x max(1, its
    largest |entry|), as roundoff grows with the entries. The first rule a
    row breaks raises ValueError with its message, formatted with the row."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        asymmetry = np.abs(cov - _transpose(cov)).max(axis=(1, 2))
        sym = 0.5 * (cov + _transpose(cov))
        tol = 1e-9 * np.maximum(1.0, np.abs(sym).max(axis=(1, 2)))
    rules = (lambda: ~np.isfinite(sym).all(axis=(1, 2)), lambda: asymmetry > tol,
             lambda: np.linalg.eigvalsh(sym)[:, 0] < -tol)
    for rule, message in zip(rules, (not_finite, asymmetric, indefinite)):
        bad = rule()
        if bad.any():
            raise ValueError(message.format(int(np.argmax(bad))))
    return sym


@dataclass(frozen=True)
class GaussianBelief:
    """A stack of n Gaussian state estimates: ``mean`` (n, d) and
    ``covariance`` (n, d, d). A (d,) mean with a (d, d) covariance is a
    stack of one.

    Every covariance must be symmetric with eigenvalues no smaller than
    minus the tolerance, 1e-9 x max(1, its largest |entry|); it is stored
    symmetrized and read-only. The whole stack is checked at once, where a
    belief enters: here, in :func:`mvfuse.tracker.init_target` and in
    :func:`mvfuse.pose.init_keypoints`. Predict and update take its
    ``(mean, covariance)`` arrays; the arrays they return, and the row
    subsets the tracker takes of them, come from the filter's own arithmetic
    and are not checked again.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.ndim == 1:
            mean, cov = mean[None], cov[None]
        if mean.ndim != 2 or 0 in mean.shape:
            raise ValueError(f"mean shape {mean.shape} is not (n, d) with n, d >= 1")
        if cov.shape != mean.shape + mean.shape[1:]:
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean shape {mean.shape}"
            )
        if not np.isfinite(mean).all():
            raise ValueError("belief contains non-finite values")
        cov = _checked_covariances(
            cov, "belief contains non-finite values", "covariance is not symmetric",
            "covariance of row {} has a significantly negative eigenvalue",
        )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class MotionModel:
    """Linear-Gaussian motion: x' = F x + w, w ~ N(0, Q)."""

    transition: np.ndarray
    process_noise: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.transition, dtype=np.float64)
        Q = np.asarray(self.process_noise, dtype=np.float64)
        if F.ndim != 2 or F.shape[0] != F.shape[1] or not F.size:
            raise ValueError(f"transition must be square and at least 1 x 1, got {F.shape}")
        if Q.shape != F.shape:
            raise ValueError("process_noise shape must match transition")
        _checked_covariances(
            Q[None], "process_noise is not finite", "process_noise is not symmetric",
            "process_noise is not positive semidefinite",
        )
        F.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "transition", F)
        object.__setattr__(self, "process_noise", Q)

    @property
    def dim(self) -> int:
        return self.transition.shape[0]


# The state layout: (x, y, z) at even indices, each followed by its velocity,
# then, in a box state, the three log half-axes. Basic slices, so indexing a
# stack of states with them gives a view.
POS = slice(0, 6, 2)
VEL = slice(1, 6, 2)
SHAPE = slice(6, 9)


def make_motion_model(dt: float, q_pos: float, q_shape: float | None = None) -> MotionModel:
    """Constant-velocity model over the ``POS``/``VEL`` pairs.

    The state is [x, vx, y, vy, z, vz] plus, when ``q_shape`` is given, the
    3-dim random-walk ``SHAPE`` tail (used for log half-axes). Process noise
    per kinematic pair is the white-acceleration block
    q_pos * [[dt^4/4, dt^3/2], [dt^3/2, dt^2]].

    Raises
    ------
    InvalidDt
        If dt is not a positive finite number.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise InvalidDt(f"dt must be positive, got {dt}")
    if q_pos < 0:
        raise ValueError(f"q_pos must be non-negative, got {q_pos}")
    if q_shape is not None and q_shape < 0:
        raise ValueError(f"q_shape must be non-negative, got {q_shape}")

    pp, pv, vv = q_pos * np.array([dt ** 4 / 4.0, dt ** 3 / 2.0, dt ** 2])
    d = 6 if q_shape is None else 9
    F = np.eye(d)
    Q = np.zeros((d, d))
    # Each (rows, cols) block below is diagonal: one entry per axis.
    np.fill_diagonal(F[POS, VEL], dt)
    np.fill_diagonal(Q[POS, POS], pp)
    np.fill_diagonal(Q[POS, VEL], pv)
    np.fill_diagonal(Q[VEL, POS], pv)
    np.fill_diagonal(Q[VEL, VEL], vv)
    if q_shape is not None:
        np.fill_diagonal(Q[SHAPE, SHAPE], q_shape)
    return MotionModel(transition=F, process_noise=Q)


def _chol_with_jitter(mats: np.ndarray, scale: float, failure: type, what: str) -> np.ndarray:
    """Cholesky factors of ``scale * mats`` for an (n, d, d) stack, in one
    call. If that fails, each matrix walks its own jitter ladder (eps *
    trace(mat)/d * I added before scaling, eps up to 1e-6), so no row's
    factor depends on another row; ``failure`` names the first row that
    stays unfactorizable."""
    try:
        return np.linalg.cholesky(mats if scale == 1.0 else scale * mats)
    except np.linalg.LinAlgError:
        pass
    d = mats.shape[-1]
    out = np.empty_like(mats)
    for i, mat in enumerate(mats):
        base = float(np.trace(mat)) / d
        for eps in _JITTER_LADDER:
            m = mat if eps == 0.0 else mat + (eps * base) * np.eye(d)
            try:
                out[i] = np.linalg.cholesky(scale * m)
            except np.linalg.LinAlgError:
                continue
            if eps > 0.0:
                logger.debug("%s of row %d required jitter %.1e * trace/d", what, i, eps)
            break
        else:
            raise failure(f"{what} of row {i} not factorizable after jitter up to 1e-6 * trace/d")
    return out


def sigma_scale(d: int, alpha: float, kappa: float) -> tuple[float, float]:
    """lambda and the sigma scale d + lambda = alpha^2 (d + kappa) of a d-dim state."""
    lam = alpha * alpha * (d + kappa) - d
    scale = d + lam
    if not 0.0 < scale < np.inf:
        raise ValueError(
            f"alpha^2 (d + kappa) must be positive and finite, got {scale} for d={d}"
        )
    return lam, scale


@lru_cache(maxsize=16)
def _sigma_weights(d: int, alpha: float, beta: float, kappa: float):
    """The sigma scale d + lambda of a d-dim state and the read-only mean
    and covariance weights (2d+1,), built once per scaling."""
    lam, scale = sigma_scale(d, alpha, kappa)
    wm = np.full(2 * d + 1, 1.0 / (2.0 * scale))
    wc = wm.copy()
    wm[0] = lam / scale
    wc[0] = wm[0] + (1.0 - alpha * alpha + beta)
    wm.setflags(write=False)
    wc.setflags(write=False)
    return scale, wm, wc


def sigma_points(
    mean: np.ndarray,
    cov: np.ndarray,
    *,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    kappa: float = DEFAULT_KAPPA,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled sigma points (n, 2d+1, d) of an (n, d) ``mean`` and (n, d, d)
    ``cov`` stack, with their mean and covariance weights (2d+1,) each; the
    weights are read-only and shared by every call with the same dimension
    and scaling.

    Raises
    ------
    CholeskyFailure
        If some row's (scaled, jittered) covariance cannot be factorized.
    """
    n, d = mean.shape
    scale, wm, wc = _sigma_weights(d, alpha, beta, kappa)
    Lt = _transpose(_chol_with_jitter(cov, scale, CholeskyFailure, "sigma-point covariance"))
    center = mean[:, None, :]
    pts = np.empty((n, 2 * d + 1, d))
    pts[:, 0] = mean
    np.add(center, Lt, out=pts[:, 1 : d + 1])
    np.subtract(center, Lt, out=pts[:, d + 1 :])
    return pts, wm, wc


def kalman_predict(
    mean: np.ndarray, cov: np.ndarray, model: MotionModel
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate every row of an (n, d) ``mean`` and (n, d, d) ``cov`` stack
    one step through a linear motion model; returns the predicted pair.

    Raises
    ------
    DimensionMismatch
        If the model dimension differs from the state dimension.
    DivergentUpdate
        If the prediction overflows to non-finite values.
    """
    if model.dim != mean.shape[-1]:
        raise DimensionMismatch(
            f"motion model dim {model.dim} != state dim {mean.shape[-1]}"
        )
    F = model.transition
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        mean = (F @ mean[..., None])[..., 0]
        cov = F @ cov @ F.T + model.process_noise
        cov = 0.5 * (cov + _transpose(cov))
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise DivergentUpdate("prediction overflowed to non-finite values")
    return mean, cov


def _clamp_indefinite(cov: np.ndarray) -> None:
    """Clamp back to the PSD cone, in place, every matrix of a symmetric
    (n, d, d) stack that Cholesky rejects and that has a negative eigenvalue.
    Each matrix is tried on its own, so no row's result depends on another's."""
    rows = []
    for i, mat in enumerate(cov):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            rows.append(i)
    w, V = np.linalg.eigh(cov[rows])
    neg = w[:, 0] < 0.0
    if neg.any():
        logger.debug("clamping posterior eigenvalues (min %.3e)", w[neg, 0].min())
        clamped = (V[neg] * np.clip(w[neg], 0.0, None)[:, None, :]) @ _transpose(V[neg])
        cov[np.array(rows)[neg]] = 0.5 * (clamped + _transpose(clamped))


def ukf_update(
    mean: np.ndarray,
    cov: np.ndarray,
    measurement,
    h: Callable[[np.ndarray], np.ndarray],
    noise,
    *,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    kappa: float = DEFAULT_KAPPA,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of every row of an (n, d) ``mean`` and (n, d, d)
    ``cov`` stack through a batched map ``h``; returns the posterior pair.

    ``measurement`` is (n, m), one row per state row ((m,) when n = 1), and
    ``noise`` the (m, m) covariance they share. ``h`` takes the
    (n, 2d+1, d) sigma points, one state per row, and returns the
    (n, 2d+1, m) predicted measurements; it is called once per update. The
    measurement moments and the state-measurement cross covariance come from
    the weighted sigma rows, and the Kalman gain is applied. Each posterior
    covariance is symmetrized. If roundoff leaves the stack not positive
    definite (one batched Cholesky fails), each row that Cholesky rejects and
    that has a negative eigenvalue is clamped back to the PSD cone.

    A failure in any row fails the whole call (see :func:`update_rows`).

    Raises
    ------
    DimensionMismatch
        If measurement, noise, and h outputs disagree in size.
    SigmaPointProjectionFailure
        If ``h`` raises a geometry error on the sigma points or maps one to
        non-finite values.
    SingularInnovation
        If an innovation covariance cannot be inverted.
    DivergentUpdate
        If a posterior is not finite.
    CholeskyFailure
        Propagated from sigma-point generation.
    """
    n = len(mean)
    z = np.asarray(measurement, dtype=np.float64)
    if z.ndim < 2:
        z = z.reshape(1, -1)
    if not np.isfinite(z).all():
        raise ValueError("measurement contains non-finite values")
    m = z.shape[1]
    R = np.asarray(noise, dtype=np.float64)
    if z.shape[0] != n or R.shape != (m, m):
        raise DimensionMismatch(
            f"measurement {z.shape} and noise {R.shape} do not fit {n} rows"
        )

    X, wm, wc = sigma_points(mean, cov, alpha=alpha, beta=beta, kappa=kappa)
    try:
        Z = np.asarray(h(X), dtype=np.float64)
    except GeometryError as exc:
        raise SigmaPointProjectionFailure(
            f"sigma points failed measurement map: {exc}"
        ) from exc
    if Z.shape != X.shape[:2] + (m,):
        raise DimensionMismatch(
            f"h returned shape {Z.shape}, expected {X.shape[:2] + (m,)}"
        )
    if not np.isfinite(Z).all():
        raise SigmaPointProjectionFailure("measurement map gave non-finite values")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        z_hat = wm @ Z
        dZ = Z - z_hat[..., None, :]
        wdZ = wc[:, None] * dZ
        S = _transpose(dZ) @ wdZ
        S = 0.5 * (S + _transpose(S)) + R
        Cxz = _transpose(X - mean[:, None, :]) @ wdZ

        L = _chol_with_jitter(S, 1.0, SingularInnovation, "innovation covariance")
        K = _transpose(np.linalg.solve(_transpose(L), np.linalg.solve(L, _transpose(Cxz))))
        mean = mean + (K @ (z - z_hat)[..., None])[..., 0]
        cov = cov - K @ S @ _transpose(K)
        cov = 0.5 * (cov + _transpose(cov))
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise DivergentUpdate("update overflowed to a non-finite posterior")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        _clamp_indefinite(cov)
    return mean, cov


def update_rows(
    update: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    mean: np.ndarray,
    cov: np.ndarray,
    rows: np.ndarray,
    z: np.ndarray,
) -> list[tuple[int, FilterError]]:
    """Apply ``update(mean, cov, z) -> (mean, cov)`` (a :func:`ukf_update`
    call, or a predict that ignores ``z``) to the rows ``rows`` of a writable
    (n, d) ``mean`` and (n, d, d) ``cov`` stack, with one row of the
    (len(rows), m) ``z`` each, writing the posterior in place.

    ``update`` gets copies of its rows, so what it does to the arrays it
    receives never reaches the stack: only a returned posterior is written.
    With no rows nothing is called. If the stacked call raises a
    ``FilterError``, ``update`` is redone row by row on stacks of one; a row
    whose own call raises keeps its prior. Returns the (row, error) pairs of
    the stack rows that kept their prior.
    """
    if not len(rows):
        return []
    try:
        post = update(mean[rows], cov[rows], z)
    except FilterError as exc:
        if len(rows) == 1:
            return [(int(rows[0]), exc)]
        one = [slice(k, k + 1) for k in range(len(rows))]
        return [bad for k in one for bad in update_rows(update, mean, cov, rows[k], z[k])]
    mean[rows], cov[rows] = post
    return []
