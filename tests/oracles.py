"""Independent reference implementations used to check the package.

Everything here is written from first principles with plain numpy so that a
bug in the package cannot hide in its own oracle: projection is spelled out
explicitly, the Kalman filter uses the standard closed-form equations, and
the ellipsoid box comes from brute-force surface sampling or from the full
4x4 dual quadric.
"""

from __future__ import annotations

import numpy as np


def pinhole_project(K, R, t, points):
    """Project (N, 3) world points with explicit matrix algebra."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cam = pts @ np.asarray(R).T + np.asarray(t)
    uv = cam[:, :2] * np.asarray(K)[[0, 1], [0, 1]] / cam[:, 2:3]
    uv += np.asarray(K)[[0, 1], [2, 2]]
    # general K (with skew) fallback kept simple: assume zero skew here,
    # which every camera in the tests satisfies
    return uv, cam[:, 2]


def ellipsoid_surface(center, half_axes, n):
    """Quasi-uniform points on an ellipsoid surface (Fibonacci sphere)."""
    i = np.arange(n, dtype=np.float64)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = 2.0 * np.pi * i / golden
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    sphere = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    return sphere * np.asarray(half_axes) + np.asarray(center)


def sampled_bbox(K, R, t, center, half_axes, n=10_000):
    """Bounding box of an ellipsoid obtained by projecting surface samples.

    Always a subset of the true silhouette box, converging to it as n grows;
    with n = 10^4 the corners are within a fraction of a pixel for the
    camera/ellipsoid scales used in the tests.
    """
    uv, depth = pinhole_project(K, R, t, ellipsoid_surface(center, half_axes, n))
    if np.any(depth <= 0):
        raise ValueError("sample behind camera")
    return np.array(
        [uv[:, 0].min(), uv[:, 1].min(), uv[:, 0].max(), uv[:, 1].max()]
    )


def dual_quadric_bbox(P, center, half_axes):
    """Outline box of an axis-aligned ellipsoid by the explicit 4x4 route:
    ``C* = P T diag(a², b², c², -1) Tᵀ Pᵀ``, then the image lines tangent to
    the conic ``u = (C02 ± sqrt(C02² - C00 C22)) / C22`` (v likewise with
    C12 and C11)."""
    a, b, c = np.asarray(half_axes, dtype=np.float64)
    T = np.eye(4)
    T[:3, 3] = center
    C = P @ T @ np.diag([a * a, b * b, c * c, -1.0]) @ T.T @ P.T
    cu, cv = C[0, 2] / C[2, 2], C[1, 2] / C[2, 2]
    ru = np.sqrt(cu * cu - C[0, 0] / C[2, 2])
    rv = np.sqrt(cv * cv - C[1, 1] / C[2, 2])
    return np.array([cu - ru, cv - rv, cu + ru, cv + rv])


class ClosedFormKF:
    """Textbook linear Kalman filter: predict/update with explicit inverses."""

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=np.float64).copy()
        self.cov = np.asarray(cov, dtype=np.float64).copy()

    def predict(self, F, Q):
        self.mean = F @ self.mean
        self.cov = F @ self.cov @ F.T + Q
        self.cov = 0.5 * (self.cov + self.cov.T)

    def update(self, z, H, b, R):
        """Measurement z = H x + b + v, v ~ N(0, R)."""
        S = H @ self.cov @ H.T + R
        K = self.cov @ H.T @ np.linalg.inv(S)
        self.mean = self.mean + K @ (z - (H @ self.mean + b))
        self.cov = self.cov - K @ S @ K.T
        self.cov = 0.5 * (self.cov + self.cov.T)


def dlt_triangulate(projections, pixels):
    """Linear triangulation from multiple views.

    ``projections``: list of 3x4 matrices; ``pixels``: list of (u, v).
    """
    rows = []
    for P, (u, v) in zip(projections, pixels):
        rows.append(u * P[2] - P[0])
        rows.append(v * P[2] - P[1])
    A = np.array(rows)
    _, _, vt = np.linalg.svd(A)
    X = vt[-1]
    return X[:3] / X[3]


def random_spd(rng, d, scale=1.0):
    """Random symmetric positive definite matrix."""
    A = rng.normal(size=(d, d))
    return scale * (A @ A.T + d * np.eye(d))


def random_camera(rng, target=None, distance=None):
    """Random camera looking roughly at ``target`` from a random direction.

    Returns (K, R, t, width, height) tuples usable both for the package and
    for the oracle projector.
    """
    target = np.zeros(3) if target is None else np.asarray(target, dtype=np.float64)
    distance = distance or rng.uniform(6.0, 18.0)
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    elevation = rng.uniform(0.1, 0.9)
    center = target + distance * np.array(
        [
            np.cos(azimuth) * np.cos(elevation),
            np.sin(azimuth) * np.cos(elevation),
            np.sin(elevation),
        ]
    )
    forward = target - center
    forward /= np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    R = np.stack([right, down, forward])
    t = -R @ center
    f = rng.uniform(600.0, 1600.0)
    width, height = 1920, 1080
    K = np.array(
        [[f, 0.0, width / 2.0], [0.0, f, height / 2.0], [0.0, 0.0, 1.0]]
    )
    return K, R, t, width, height
