"""Camera models and projective primitives.

Conventions
-----------
World frame: right-handed, z up, ground plane z = 0, units meters.
Camera frame: x right, y down, z forward (optical axis); a world point maps to
camera coordinates as ``X_cam = R @ X_world + t``, so ``t = -R @ C`` for camera
center ``C``. Pixels: u right, v down, origin at the top-left corner.

Bounding boxes are axis-aligned pixel rectangles ``(u_min, v_min, u_max,
v_max)``. Ellipsoids are axis-aligned in the world frame; orientation is not
modeled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConic,
    DegenerateHomography,
    NonPositiveDepth,
    PointAtInfinity,
)

_ORTHO_TOL = 1e-9
_DEPTH_EPS = 1e-9
_HOMOG_EPS = 1e-12
# Entries (00, 11, 02, 12, 22, 01) of a symmetric 3x3 conic.
_ROWS = np.array([0, 1, 0, 1, 2, 0])
_COLS = np.array([0, 1, 2, 2, 2, 1])


def _as_matrix(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class CameraModel:
    """Calibrated pinhole camera.

    Parameters
    ----------
    intrinsics : (3, 3) array
        Upper-triangular calibration matrix with positive focal lengths and
        bottom row (0, 0, 1). Pixels are assumed rectified (no distortion).
    rotation : (3, 3) array
        World-to-camera rotation, orthonormal with determinant +1.
    translation : (3,) array
        World-to-camera translation (``X_cam = R @ X + t``).
    image_size : (width, height)
        Sensor extent in pixels.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    image_size: tuple[int, int]

    def __post_init__(self):
        K = _as_matrix(self.intrinsics, (3, 3), "intrinsics")
        R = _as_matrix(self.rotation, (3, 3), "rotation")
        t = _as_matrix(self.translation, (3,), "translation")
        if max(abs(K[1, 0]), abs(K[2, 0]), abs(K[2, 1])) > 0:
            raise ValueError("intrinsics must be upper triangular")
        if abs(K[2, 2] - 1.0) > _ORTHO_TOL or abs(K[2, 0]) > 0 or abs(K[2, 1]) > 0:
            raise ValueError("intrinsics bottom row must be (0, 0, 1)")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation determinant must be +1")
        w, h = self.image_size
        if int(w) <= 0 or int(h) <= 0:
            raise ValueError("image_size must be positive")
        for name, arr in (("intrinsics", K), ("rotation", R), ("translation", t)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "image_size", (int(w), int(h)))

    @property
    def projection_matrix(self) -> np.ndarray:
        """3x4 projection ``P = K [R | t]`` (cached)."""
        P = self.__dict__.get("_P")
        if P is None:
            P = self.intrinsics @ np.hstack(
                [self.rotation, self.translation[:, None]]
            )
            P.setflags(write=False)
            self.__dict__["_P"] = P
        return P


def _affine(points: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``points @ A.T + b`` for (..., 3) points, summed term by term in a fixed
    order so that a stack of rows gives bit-for-bit the results of row-by-row
    calls (a BLAS product need not)."""
    return (
        points[..., 0:1] * A[:, 0]
        + points[..., 1:2] * A[:, 1]
        + points[..., 2:3] * A[:, 2]
        + b
    )


def _first_bad(mask: np.ndarray) -> tuple[tuple, str]:
    """Index of the first True entry of a batch mask, and a message suffix
    naming it ('' for a single row)."""
    i = tuple(map(int, np.unravel_index(int(np.argmax(mask)), mask.shape)))
    return i, ("" if not i else f" at row {i[0] if len(i) == 1 else i}")


def _as_rows(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must have shape (..., 3), got {arr.shape}")
    return arr


def in_front(cam: CameraModel, points) -> np.ndarray:
    """Mask (...,) of the world points (..., 3) whose camera-frame depth
    exceeds 1e-9: exactly the points :func:`project_point` accepts."""
    P = cam.projection_matrix
    X = _as_rows(points, "points")
    return _affine(X, P[2:, :3], P[2:, 3])[..., 0] > _DEPTH_EPS


def project_point(cam: CameraModel, points) -> np.ndarray:
    """Project world points (..., 3) to pixel coordinates (..., 2).

    Raises
    ------
    NonPositiveDepth
        If any point's camera-frame depth is <= 1e-9.
    """
    X = _as_rows(points, "points")
    P = cam.projection_matrix
    uvw = _affine(X, P[:, :3], P[:, 3])
    bad = uvw[..., 2] <= _DEPTH_EPS
    if bad.any():
        i, where = _first_bad(bad)
        raise NonPositiveDepth(
            f"depth {uvw[..., 2][i]:.3e} for point {X[i].tolist()}{where}"
        )
    return uvw[..., :2] / uvw[..., 2:3]


def ground_homography(cam: CameraModel) -> np.ndarray:
    """Homography mapping ground-plane points (X, Y, 1) to pixels.

    Columns are ``K [r1 r2 t]`` where r1, r2 are the first two columns of the
    rotation.

    Raises
    ------
    DegenerateHomography
        If the matrix is rank deficient (|det| < 1e-12), which happens when the
        camera center lies in the ground plane.
    """
    H = cam.intrinsics @ np.column_stack(
        [cam.rotation[:, 0], cam.rotation[:, 1], cam.translation]
    )
    if abs(np.linalg.det(H)) < _HOMOG_EPS:
        raise DegenerateHomography(
            "ground homography is singular (camera in ground plane?)"
        )
    return H


def backproject_ground(cam: CameraModel, pixel) -> np.ndarray:
    """Intersect the viewing ray of a pixel with the ground plane z = 0.

    Returns the world point ``(X, Y, 0)``.

    Raises
    ------
    DegenerateHomography
        Propagated from :func:`ground_homography`.
    PointAtInfinity
        If the ray is parallel to the ground plane (homogeneous scale < 1e-12).
    NonPositiveDepth
        If the ground hit lies on or behind the camera (depth <= 1e-9): the
        pixel is above the horizon, and only the backward ray meets the ground.
    """
    uv = np.asarray(pixel, dtype=np.float64).reshape(2)
    H = ground_homography(cam)
    g = np.linalg.solve(H, np.array([uv[0], uv[1], 1.0]))
    if abs(g[2]) < _HOMOG_EPS:
        raise PointAtInfinity(f"pixel {uv.tolist()} maps to the horizon")
    hit = np.array([g[0] / g[2], g[1] / g[2], 0.0])
    if not in_front(cam, hit):
        raise NonPositiveDepth(
            f"pixel {uv.tolist()} hits the ground behind the camera"
        )
    return hit


def project_ellipsoid_to_bbox(cam: CameraModel, center, half_axes) -> np.ndarray:
    """Tight axis-aligned image boxes ``(u_min, v_min, u_max, v_max)`` (..., 4)
    of axis-aligned ellipsoids with centers and half-axes (..., 3).

    The outline of the dual quadric ``Q* = T diag(a², b², c², -1) Tᵀ`` is
    ``C* = P Q* Pᵀ``; for ``P = [M | p]`` this reduces to
    ``C* = M diag(a², b², c²) Mᵀ - w wᵀ`` with ``w = M X + p`` the projective
    image of the center. The image lines tangent to the conic give the box
    edges in closed form.

    Raises
    ------
    ValueError
        If a half-axis is not positive.
    NonPositiveDepth
        If an ellipsoid center is on or behind the principal plane.
    DegenerateConic
        If an outline is not a bounded ellipse (camera inside or tangent to
        the ellipsoid).
    """
    X = _as_rows(center, "center")
    half = _as_rows(half_axes, "half_axes")
    if (half <= 0).any():
        raise ValueError(f"half_axes must be positive, got {half.tolist()}")
    P = cam.projection_matrix
    M = P[:, :3]
    w = _affine(X, M, P[:, 3])
    bad = w[..., 2] <= _DEPTH_EPS
    if bad.any():
        i, where = _first_bad(bad)
        raise NonPositiveDepth(f"ellipsoid center depth {w[..., 2][i]:.3e}{where}")

    C = _affine(half * half, M[_ROWS] * M[_COLS], -w[..., _ROWS] * w[..., _COLS])
    c22 = C[..., 4:5]
    bad = np.abs(c22[..., 0]) < _HOMOG_EPS * np.maximum(1.0, np.abs(C).max(axis=-1))
    if bad.any():
        _, where = _first_bad(bad)
        raise DegenerateConic(f"outline conic degenerate (C22 ~ 0){where}")
    center_uv = C[..., 2:4] / c22
    disc = center_uv * center_uv - C[..., 0:2] / c22
    bad = (disc <= 0).any(axis=-1)
    if bad.any():
        i, where = _first_bad(bad)
        raise DegenerateConic(
            f"outline not a bounded ellipse (disc u, v = {disc[i].tolist()}){where}"
        )
    r = np.sqrt(disc)
    return np.concatenate([center_uv - r, center_uv + r], axis=-1)

