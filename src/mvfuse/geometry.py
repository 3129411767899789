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

from .errors import GeometryError

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

    Attributes
    ----------
    projection_matrix : (3, 4) array
        ``P = K [R | t]``, built and checked with the kernels' constants.
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
        if abs(K[2, 2] - 1.0) > _ORTHO_TOL:
            raise ValueError("intrinsics bottom row must be (0, 0, 1)")
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise ValueError("focal lengths must be positive")
        # An orthonormal matrix has no entry above 1 in magnitude; testing
        # that first keeps R.T @ R from overflowing on absurd entries.
        if np.max(np.abs(R)) > 1.0 + _ORTHO_TOL or np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHO_TOL:
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
        # The 3x4 projection P = K [R | t] = [M | p], and the projection
        # kernels' constants, as columns that broadcast over (3, N)
        # coordinate planes: the columns of M (3, 3, 1) and p (3, 1), and
        # the columns of M[_ROWS] * M[_COLS] (3, 6, 1), the weights of a²,
        # b² and c² in the outline conic. All are built here, read-only.
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            P = K @ np.hstack([R, t[:, None]])
            M = P[:, :3]
            Q = M[_ROWS] * M[_COLS]
        if not np.isfinite(P).all():
            raise ValueError("projection matrix K [R | t] overflows")
        if not np.isfinite(Q).all():
            raise ValueError("outline conic weights of M = K R overflow")
        consts = tuple(
            np.ascontiguousarray(a) for a in (M.T[:, :, None], P[:, 3:], Q.T[:, :, None])
        )
        for a in (P,) + consts:
            a.setflags(write=False)
        object.__setattr__(self, "projection_matrix", P)
        object.__setattr__(self, "_kernel_constants", consts)


def _first_bad(mask: np.ndarray) -> tuple[tuple, str]:
    """Index of the first True entry of a batch mask, and a message suffix
    naming it ('' for a single row)."""
    i = tuple(map(int, np.unravel_index(int(np.argmax(mask)), mask.shape)))
    return i, ("" if not i else f" at row {i[0] if len(i) == 1 else i}")


def _check_finite(what: str, *rows: np.ndarray) -> None:
    """Raise ``GeometryError`` naming the first row of the (..., 3) ``rows``,
    broadcast together, that holds a non-finite value.

    The kernels call it only after a whole-stack test has tripped, before
    they look for the row that test rejects: a non-finite input row always
    trips one, since it makes that row's depth, C22 or discriminant NaN (or
    a point's depth infinite), and every test is written so that NaN fails
    it."""
    rows = np.broadcast_arrays(*rows)
    finite = np.logical_and.reduce([np.isfinite(r).all(axis=-1) for r in rows])
    if not finite.all():
        i, where = _first_bad(~finite)
        values = " and ".join(str(r[i].tolist()) for r in rows)
        raise GeometryError(f"non-finite {what} {values}{where}")


def _as_rows(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must have shape (..., 3), got {arr.shape}")
    return arr


def _linear(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``A x`` (m, N) for N rows x (..., 3), with ``cols`` (3, m, 1) the
    columns of A. The rows are taken as (3, N) coordinate planes, so each
    step is one ufunc loop over N values, not N loops of 3, and the terms
    are summed in a fixed order, so that a stack of rows gives bit-for-bit
    the results of row-by-row calls (a BLAS product need not)."""
    T = rows.reshape(-1, 3).T[:, None, :] * cols
    return T[0] + T[1] + T[2]


def in_front(cam: CameraModel, points) -> np.ndarray:
    """Mask (...,) of the world points (..., 3) whose camera-frame depth
    exceeds 1e-9 and does not overflow: the finite points :func:`project_point`
    accepts, but for those whose pixel overflows."""
    X = _as_rows(points, "points")
    M_cols, p, _ = cam._kernel_constants
    with np.errstate(over="ignore"):  # an overflowed depth is not in front
        depth = (_linear(X, M_cols[:, 2:]) + p[2:])[0]
    return ((depth > _DEPTH_EPS) & (depth < np.inf)).reshape(X.shape[:-1])


def project_point(cam: CameraModel, points) -> np.ndarray:
    """Project world points (..., 3) to pixel coordinates (..., 2).

    Raises
    ------
    GeometryError
        If a point is not finite; if any point's camera-frame depth is
        <= 1e-9 ("depth ..."); if a point's depth or pixel overflows
        ("projects out of range").
    """
    X = _as_rows(points, "points")
    shape = X.shape[:-1]
    M_cols, p, _ = cam._kernel_constants
    with np.errstate(all="ignore"):  # a bad depth or an overflow is refused below
        uvw = _linear(X, M_cols) + p
        uv = np.empty((uvw.shape[1], 2))
        np.divide(uvw[:2], uvw[2], out=uv.T)
    depth = uvw[2]
    if not (((depth > _DEPTH_EPS) & (depth < np.inf)).all() and np.isfinite(uv).all()):
        _check_finite("point", X)
        ok = (depth > _DEPTH_EPS) & (depth < np.inf) & np.isfinite(uv).all(axis=1)
        depth = depth.reshape(shape)
        i, where = _first_bad(~ok.reshape(shape))
        if not depth[i] > _DEPTH_EPS:
            raise GeometryError(
                f"depth {depth[i]:.3e} for point {X[i].tolist()}{where}"
            )
        raise GeometryError(f"point {X[i].tolist()} projects out of range{where}")
    return uv.reshape(shape + (2,))


def ground_homography(cam: CameraModel) -> np.ndarray:
    """Homography mapping ground-plane points (X, Y, 1) to pixels.

    Columns are ``K [r1 r2 t]``, columns 0, 1 and 3 of the projection
    matrix, where r1, r2 are the first two columns of the rotation.

    Raises
    ------
    GeometryError
        If the matrix is rank deficient (|det| < 1e-12), which happens when the
        camera center lies in the ground plane ("ground homography is
        singular").
    """
    H = cam.projection_matrix[:, [0, 1, 3]]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is not singular
        det = np.linalg.det(H)
    if abs(det) < _HOMOG_EPS:
        raise GeometryError(
            "ground homography is singular (camera in ground plane?)"
        )
    return H


def backproject_ground(cam: CameraModel, pixel) -> np.ndarray:
    """Intersect the viewing ray of a pixel with the ground plane z = 0.

    Returns the world point ``(X, Y, 0)``.

    Raises
    ------
    GeometryError
        Propagated from :func:`ground_homography`; if the ray is parallel to
        the ground plane (homogeneous scale < 1e-12, "maps to the horizon");
        if the ground hit lies on or behind the camera (depth <= 1e-9,
        "behind the camera"): the pixel is above the horizon, and only the
        backward ray meets the ground.
    """
    uv = np.asarray(pixel, dtype=np.float64).reshape(2)
    H = ground_homography(cam)
    g = np.linalg.solve(H, np.array([uv[0], uv[1], 1.0]))
    if abs(g[2]) < _HOMOG_EPS:
        raise GeometryError(f"pixel {uv.tolist()} maps to the horizon")
    hit = np.array([g[0] / g[2], g[1] / g[2], 0.0])
    if not in_front(cam, hit):
        raise GeometryError(
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

    Each check below first tests the whole stack at once; only when that
    test trips is the stack searched for the first bad row.

    Raises
    ------
    GeometryError
        If a center or half-axis is not finite; if an ellipsoid center is on
        or behind the principal plane ("ellipsoid center depth"); if an
        outline is not a bounded ellipse (camera inside or tangent to the
        ellipsoid, "outline conic degenerate" or "outline not a bounded
        ellipse"), or its conic overflows ("outline conic overflows").
    ValueError
        If a half-axis is not positive.
    """
    X = _as_rows(center, "center")
    half = _as_rows(half_axes, "half_axes")
    if not (half > 0).all():
        _check_finite("center and half-axes", X, half)
        raise ValueError(f"half_axes must be positive, got {half.tolist()}")
    if X.shape != half.shape:
        X, half = np.broadcast_arrays(X, half)
    shape = X.shape[:-1]
    M_cols, p, Q_cols = cam._kernel_constants
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a test below
        w = _linear(X, M_cols) + p
        if not (w[2] > _DEPTH_EPS).all():
            _check_finite("center and half-axes", X, half)
            depth = w[2].reshape(shape)
            i, where = _first_bad(~(depth > _DEPTH_EPS))
            raise GeometryError(f"ellipsoid center depth {depth[i]:.3e}{where}")

        # The six conic entries (6, N) in _ROWS/_COLS order; C22 is entry 4.
        C = _linear(half * half, Q_cols) - w[_ROWS] * w[_COLS]
        absC = np.abs(C)
        # |C22| >= 1e-12 max(1, max |C|) over the whole stack implies it per row.
        if not (absC[4] >= _HOMOG_EPS * absC.max(initial=1.0)).all():
            _check_finite("center and half-axes", X, half)
            bad = ~(absC[4] >= _HOMOG_EPS * np.maximum(1.0, absC.max(axis=0)))
            if bad.any():
                i, where = _first_bad(bad.reshape(shape))
                if not np.isfinite(C.T.reshape(shape + (6,))[i]).all():
                    raise GeometryError(f"outline conic overflows{where}")
                raise GeometryError(f"outline conic degenerate (C22 ~ 0){where}")
        ratio = C[:4] / C[4]
        center_uv = ratio[2:]
        disc = center_uv * center_uv - ratio[:2]
    if not (disc > 0).all():
        _check_finite("center and half-axes", X, half)
        i, where = _first_bad(~(disc > 0).all(axis=0).reshape(shape))
        if not np.isfinite(C.T.reshape(shape + (6,))[i]).all():
            raise GeometryError(f"outline conic overflows{where}")
        disc = disc.T.reshape(shape + (2,))
        raise GeometryError(
            f"outline not a bounded ellipse (disc u, v = {disc[i].tolist()}){where}"
        )
    r = np.sqrt(disc)
    box = np.empty((r.shape[1], 4))
    np.subtract(center_uv, r, out=box.T[:2])
    np.add(center_uv, r, out=box.T[2:])
    return box.reshape(shape + (4,))
