"""Unscented Kalman filtering on Gaussian beliefs.

The scaled unscented transform with Merwe weights: for dimension d and scaling
(alpha, beta, kappa), lambda = alpha^2 (d + kappa) - d, sigma points are the
mean plus/minus the columns of chol((d + lambda) P), the center mean weight is
lambda / (d + lambda) and the center covariance weight adds (1 - alpha^2 +
beta). For affine measurement maps the update reproduces the closed-form
Kalman filter exactly, independent of the scaling parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CholeskyFailure,
    DimensionMismatch,
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

_SYM_TOL = 1e-9
_EIG_TOL = -1e-9


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class GaussianBelief:
    """Mean and covariance of a Gaussian state estimate.

    The covariance must be symmetric (within 1e-9) with eigenvalues no smaller
    than -1e-9; it is stored symmetrized.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        d = mean.size
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.shape != (d, d):
            raise ValueError(
                f"covariance shape {cov.shape} does not match state dim {d}"
            )
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance contains non-finite values")
        if np.max(np.abs(cov - cov.T)) > _SYM_TOL:
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        if np.linalg.eigvalsh(cov)[0] < _EIG_TOL:
            raise ValueError("covariance has a significantly negative eigenvalue")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class MotionModel:
    """Linear-Gaussian motion: x' = F x + w, w ~ N(0, Q)."""

    transition: np.ndarray
    process_noise: np.ndarray
    dt: float

    def __post_init__(self):
        F = np.asarray(self.transition, dtype=np.float64)
        Q = np.asarray(self.process_noise, dtype=np.float64)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise ValueError(f"transition must be square, got {F.shape}")
        if Q.shape != F.shape:
            raise ValueError("process_noise shape must match transition")
        if np.max(np.abs(Q - Q.T)) > _SYM_TOL:
            raise ValueError("process_noise is not symmetric")
        if np.linalg.eigvalsh(0.5 * (Q + Q.T))[0] < _EIG_TOL:
            raise ValueError("process_noise is not positive semidefinite")
        F.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "transition", F)
        object.__setattr__(self, "process_noise", Q)
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def dim(self) -> int:
        return self.transition.shape[0]


def make_motion_model(dt: float, q_pos: float, q_shape: float | None = None) -> MotionModel:
    """Constant-velocity model over interleaved (coord, velocity) pairs.

    The state is [x, vx, y, vy, z, vz] plus, when ``q_shape`` is given, a
    3-dim random-walk tail (used for log half-axes). Process noise per
    kinematic pair is the white-acceleration block
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

    kin = np.array([[1.0, dt], [0.0, 1.0]])
    qk = q_pos * np.array(
        [[dt ** 4 / 4.0, dt ** 3 / 2.0], [dt ** 3 / 2.0, dt ** 2]]
    )
    d = 6 if q_shape is None else 9
    F = np.eye(d)
    Q = np.zeros((d, d))
    for i in range(3):
        sl = slice(2 * i, 2 * i + 2)
        F[sl, sl] = kin
        Q[sl, sl] = qk
    if q_shape is not None:
        Q[6:, 6:] = q_shape * np.eye(3)
    return MotionModel(transition=F, process_noise=Q, dt=dt)


def _chol_with_jitter(mat: np.ndarray, scale: float, what: str) -> np.ndarray:
    """Cholesky of ``scale * mat`` with escalating relative jitter.

    Jitter is added to ``mat`` as eps * trace(mat)/d * I before scaling, with
    eps walking the ladder up to 1e-6.
    """
    d = mat.shape[0]
    base = float(np.trace(mat)) / d
    for eps in _JITTER_LADDER:
        m = mat if eps == 0.0 else mat + (eps * base) * np.eye(d)
        try:
            L = np.linalg.cholesky(scale * m)
        except np.linalg.LinAlgError:
            continue
        if eps > 0.0:
            logger.debug("%s required jitter %.1e * trace/d", what, eps)
        return L
    raise CholeskyFailure(
        f"{what} not factorizable after jitter up to 1e-6 * trace/d"
    )


def sigma_points(
    belief: GaussianBelief,
    *,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    kappa: float = DEFAULT_KAPPA,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled sigma points (2d+1, d) with their mean and covariance weights
    (2d+1,) each.

    Raises
    ------
    CholeskyFailure
        If the (scaled, jittered) covariance cannot be factorized.
    """
    d = belief.dim
    lam = alpha * alpha * (d + kappa) - d
    scale = d + lam
    if scale <= 0:
        raise ValueError(
            f"alpha^2 (d + kappa) must be positive, got {scale} for d={d}"
        )
    L = _chol_with_jitter(belief.covariance, scale, "sigma-point covariance")
    pts = np.empty((2 * d + 1, d))
    pts[0] = belief.mean
    pts[1 : d + 1] = belief.mean + L.T
    pts[d + 1 :] = belief.mean - L.T
    wm = np.full(2 * d + 1, 1.0 / (2.0 * scale))
    wc = wm.copy()
    wm[0] = lam / scale
    wc[0] = wm[0] + (1.0 - alpha * alpha + beta)
    return pts, wm, wc


def unscented_transform(
    values: np.ndarray | Sequence, mean_weights: np.ndarray, cov_weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance of transformed sigma values.

    ``values`` is (2d+1, m): one row per sigma point.
    """
    V = np.asarray(values, dtype=np.float64)
    wm = np.asarray(mean_weights, dtype=np.float64)
    wc = np.asarray(cov_weights, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != wm.size or wm.size != wc.size:
        raise DimensionMismatch(
            f"values {V.shape} incompatible with {wm.size} weights"
        )
    mean = wm @ V
    dV = V - mean
    cov = dV.T @ (wc[:, None] * dV)
    return mean, 0.5 * (cov + cov.T)


def kalman_predict(belief: GaussianBelief, model: MotionModel) -> GaussianBelief:
    """Propagate a belief one step through a linear motion model.

    Raises
    ------
    DimensionMismatch
        If the model dimension differs from the belief dimension.
    """
    if model.dim != belief.dim:
        raise DimensionMismatch(
            f"motion model dim {model.dim} != state dim {belief.dim}"
        )
    F = model.transition
    mean = F @ belief.mean
    cov = F @ belief.covariance @ F.T + model.process_noise
    return GaussianBelief(mean, 0.5 * (cov + cov.T))


def _solve_spd(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve S X = B for symmetric positive definite S, with jitter fallback."""
    d = S.shape[0]
    base = float(np.trace(S)) / d
    for eps in _JITTER_LADDER:
        m = S if eps == 0.0 else S + (eps * base) * np.eye(d)
        try:
            L = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            continue
        y = np.linalg.solve(L, B)
        return np.linalg.solve(L.T, y)
    raise SingularInnovation(
        "innovation covariance singular after jitter escalation"
    )


def ukf_update(
    belief: GaussianBelief,
    measurement,
    h: Callable[[np.ndarray], np.ndarray],
    noise,
    *,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    kappa: float = DEFAULT_KAPPA,
) -> GaussianBelief:
    """Measurement update through a batched map ``h``.

    ``h`` takes the (2d+1, d) sigma matrix, one state per row, and returns
    the (2d+1, m) predicted measurements, one row per sigma point; it is
    called once per update. The measurement moments and the state-measurement
    cross covariance come from the weighted sigma rows, and the Kalman gain
    is applied. The posterior covariance is symmetrized and, if roundoff
    drives an eigenvalue slightly negative, clamped back to the PSD cone.

    Raises
    ------
    DimensionMismatch
        If measurement, noise, and h outputs disagree in size.
    SigmaPointProjectionFailure
        If ``h`` raises a geometry error on the sigma matrix.
    SingularInnovation
        If the innovation covariance cannot be inverted.
    CholeskyFailure
        Propagated from sigma-point generation.
    """
    z = _as_vector(measurement, "measurement")
    m = z.size
    R = np.asarray(noise, dtype=np.float64)
    if R.shape != (m, m):
        raise DimensionMismatch(
            f"noise shape {R.shape} does not match measurement dim {m}"
        )

    X, wm, wc = sigma_points(belief, alpha=alpha, beta=beta, kappa=kappa)
    try:
        Z = np.asarray(h(X), dtype=np.float64)
    except GeometryError as exc:
        raise SigmaPointProjectionFailure(
            f"sigma points failed measurement map: {exc}"
        ) from exc
    if Z.shape != (X.shape[0], m):
        raise DimensionMismatch(
            f"h returned shape {Z.shape}, expected {(X.shape[0], m)}"
        )

    z_hat, S = unscented_transform(Z, wm, wc)
    S = S + R
    Cxz = (X - belief.mean).T @ (wc[:, None] * (Z - z_hat))

    K = _solve_spd(S, Cxz.T).T
    mean = belief.mean + K @ (z - z_hat)
    cov = belief.covariance - K @ S @ K.T
    cov = 0.5 * (cov + cov.T)
    w, V = np.linalg.eigh(cov)
    if w[0] < 0.0:
        logger.debug("clamping posterior eigenvalues (min %.3e)", w[0])
        cov = (V * np.clip(w, 0.0, None)) @ V.T
        cov = 0.5 * (cov + cov.T)
    return GaussianBelief(mean, cov)
