"""Canonical skeletons and keypoint filtering.

Keypoints are tracked as 6-dim constant-velocity states [x, vx, y, vy, z, vz],
the ``POS`` and ``VEL`` part of the state layout in :mod:`mvfuse.filter`,
with a pinhole pixel measurement. Joints never interact, so the keypoints of
one or more objects are the rows of one (mean, cov) state stack, which the
tracker drives through the same predict and update steps as its box states:
:func:`predict_keypoints` (the filter's ``kalman_predict``) moves the rows,
and :func:`keypoint_update` is the per-camera update that
:func:`mvfuse.filter.update_rows` applies to the joints a camera sees. New
keypoint states are seeded from a canonical skeleton scaled to each object's
ellipsoid and translated to its center, for a whole stack of objects at once;
keypoint velocities start as copies of the object velocity.

Canonical tables are stored normalized: per-axis midrange at the origin and a
vertical (z) extent of exactly 1, so scaling to a person of height 2c is a
multiplication by 2c on z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .filter import POS, SHAPE, VEL, GaussianBelief, kalman_predict, ukf_update
from .geometry import CameraModel, project_point

if TYPE_CHECKING:
    from .io import RunConfig

_EXTENT_EPS = 1e-6
_NORM_TOL = 1e-9


def _normalize(coords: np.ndarray) -> np.ndarray:
    """Center each axis at its midrange and scale all axes by 1/z-extent."""
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span_z = hi[2] - lo[2]
    if span_z <= _EXTENT_EPS:
        raise ValueError("canonical pose has no vertical extent")
    return (coords - (lo + hi) / 2.0) / span_z


@dataclass(frozen=True)
class CanonicalPose:
    """Named skeleton: joint names plus normalized rest coordinates.

    ``coords`` is (N, 3) with zero per-axis midrange and unit z extent; use
    :meth:`from_raw` to build one from unnormalized measurements.
    """

    name: str
    joints: tuple[str, ...]
    coords: np.ndarray

    def __post_init__(self):
        joints = tuple(str(j) for j in self.joints)
        if len(set(joints)) != len(joints):
            raise ValueError("joint names must be unique")
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.shape != (len(joints), 3):
            raise ValueError(
                f"coords shape {coords.shape} must be ({len(joints)}, 3)"
            )
        if len(joints) < 2:
            raise ValueError("a pose needs at least two joints")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords contain non-finite values")
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        if np.max(np.abs(lo + hi)) > _NORM_TOL or abs((hi[2] - lo[2]) - 1.0) > _NORM_TOL:
            raise ValueError(
                "coords must be normalized (zero midrange, unit z extent); "
                "use CanonicalPose.from_raw"
            )
        coords.setflags(write=False)
        object.__setattr__(self, "name", str(self.name))
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_raw(cls, name: str, joints: Sequence[str], coords) -> "CanonicalPose":
        raw = np.asarray(coords, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[1] != 3:
            raise ValueError(f"coords must be (N, 3), got {raw.shape}")
        return cls(name=name, joints=tuple(joints), coords=_normalize(raw))

    @property
    def num_joints(self) -> int:
        return len(self.joints)


# Rest-pose joint positions for a standing figure, meters, z up, y to the
# subject's left. Absolute scale is irrelevant after normalization.
_COCO17_RAW = {
    "nose": (0.10, 0.000, 1.62),
    "left_eye": (0.09, 0.035, 1.66),
    "right_eye": (0.09, -0.035, 1.66),
    "left_ear": (0.02, 0.075, 1.64),
    "right_ear": (0.02, -0.075, 1.64),
    "left_shoulder": (0.00, 0.19, 1.45),
    "right_shoulder": (0.00, -0.19, 1.45),
    "left_elbow": (0.00, 0.24, 1.17),
    "right_elbow": (0.00, -0.24, 1.17),
    "left_wrist": (0.00, 0.26, 0.92),
    "right_wrist": (0.00, -0.26, 0.92),
    "left_hip": (0.00, 0.10, 0.95),
    "right_hip": (0.00, -0.10, 0.95),
    "left_knee": (0.00, 0.11, 0.52),
    "right_knee": (0.00, -0.11, 0.52),
    "left_ankle": (0.00, 0.12, 0.08),
    "right_ankle": (0.00, -0.12, 0.08),
}

_PANOPTIC15_RAW = {
    "neck": (0.00, 0.00, 1.50),
    "nose": (0.10, 0.00, 1.62),
    "mid_hip": (0.00, 0.00, 0.95),
    "left_shoulder": (0.00, 0.19, 1.45),
    "left_elbow": (0.00, 0.24, 1.17),
    "left_wrist": (0.00, 0.26, 0.92),
    "left_hip": (0.00, 0.10, 0.95),
    "left_knee": (0.00, 0.11, 0.52),
    "left_ankle": (0.00, 0.12, 0.08),
    "right_shoulder": (0.00, -0.19, 1.45),
    "right_elbow": (0.00, -0.24, 1.17),
    "right_wrist": (0.00, -0.26, 0.92),
    "right_hip": (0.00, -0.10, 0.95),
    "right_knee": (0.00, -0.11, 0.52),
    "right_ankle": (0.00, -0.12, 0.08),
}


def _build(name: str, table: Mapping[str, tuple[float, float, float]]) -> CanonicalPose:
    return CanonicalPose.from_raw(
        name, list(table.keys()), np.array(list(table.values()))
    )


_BUILTIN = {
    "coco17": _build("coco17", _COCO17_RAW),
    "panoptic15": _build("panoptic15", _PANOPTIC15_RAW),
}


def canonical_pose(name: str) -> CanonicalPose:
    """Look up a built-in skeleton (``coco17`` or ``panoptic15``)."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown skeleton {name!r}; built-ins: {sorted(_BUILTIN)}"
        ) from None


def scaled_offsets(pose: CanonicalPose, half_axes) -> np.ndarray:
    """Canonical coordinates (..., N, 3) scaled to each of the ellipsoids
    whose half-axes (a, b, c) are the rows of ``half_axes`` (..., 3).

    z is stretched to the full height 2c; x and y are stretched so their
    canonical extents span 2a and 2b. A canonical extent too close to zero
    falls back to the neighboring axis' factor to stay finite.
    """
    a, b, c = np.moveaxis(np.asarray(half_axes, dtype=np.float64), -1, 0)
    ext = pose.coords.max(axis=0) - pose.coords.min(axis=0)
    sz = 2.0 * c
    sy = 2.0 * b / ext[1] if ext[1] > _EXTENT_EPS else sz
    sx = 2.0 * a / ext[0] if ext[0] > _EXTENT_EPS else sy
    return pose.coords * np.stack([sx, sy, sz], axis=-1)[..., None, :]


def init_keypoints(
    pose: CanonicalPose, mean: np.ndarray, config: "RunConfig"
) -> GaussianBelief:
    """Seed keypoint states from the (n, 9) means of n object states: per
    object row, the canonical skeleton scaled to its half-axes and
    translated to its center, every keypoint with the object velocity. Joint
    j of object i is row i * num_joints + j."""
    if mean.ndim != 2 or mean.shape[1] != 9:
        raise ValueError(f"object means must be (n, 9), got {mean.shape}")
    offsets = scaled_offsets(pose, np.exp(mean[:, SHAPE]))
    kp_mean = np.empty(offsets.shape[:2] + (6,))
    kp_mean[..., POS] = mean[:, None, POS] + offsets
    kp_mean[..., VEL] = mean[:, None, VEL]
    var = np.empty(6)
    var[POS], var[VEL] = config.init_keypoint_pos_var, config.init_keypoint_vel_var
    rows = len(mean) * pose.num_joints
    return GaussianBelief(kp_mean.reshape(rows, 6), np.broadcast_to(np.diag(var), (rows, 6, 6)))


# The keypoint predict is the filter's; it has a name here so that a caller
# (the tracker, a tracer) can look the keypoint step up apart from the box one.
predict_keypoints = kalman_predict


def keypoint_update(cam: CameraModel, config: "RunConfig"):
    """The update of a stack of 6-dim keypoint states by their (n, 2) pixels
    in ``cam``, through the pinhole pixel map: ``update(mean, cov, z) ->
    (mean, cov)``, for :func:`mvfuse.filter.update_rows`, as the tracker's
    box update is."""
    noise = config.r_keypoint * np.eye(2)
    scaling = dict(alpha=config.alpha, beta=config.beta, kappa=config.kappa)

    def pixels(X: np.ndarray) -> np.ndarray:
        return project_point(cam, X[..., POS])

    def update(mean: np.ndarray, cov: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
        if mean.shape[-1] != 6:
            raise ValueError(f"keypoint states must be 6-dim, got {mean.shape[-1]}")
        return ukf_update(mean, cov, z, pixels, noise, **scaling)

    return update
