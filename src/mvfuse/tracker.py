"""Per-object fusion of multi-camera annotations into 3D tracks.

One object = one 9-dim belief [x, vx, y, vy, z, vz, log a, log b, log c]:
constant-velocity kinematics plus a random walk on the log half-axes. Each
frame is predicted once and then corrected sequentially with every camera's
bounding box (ascending camera id), the posterior of one correction feeding
the next. Keypoint states, when a skeleton is configured, ride along as
independent filters seeded from the post-update birth belief.

Objects are independent given the annotations, so multi-object runs simply
map over object ids (optionally across processes).
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .errors import (
    GeometryError,
    NoObservation,
    SigmaPointProjectionFailure,
    SingularInnovation,
)
from .filter import GaussianBelief, kalman_predict, make_motion_model, ukf_update
from .geometry import (
    BBox,
    CameraModel,
    backproject_ground,
    feet_point,
    project_ellipsoid_to_bbox,
)
from . import pose as pose_mod

if TYPE_CHECKING:
    from .io import RunConfig
    from .pose import CanonicalPose, KeypointState

logger = logging.getLogger(__name__)

# State vector layout.
POS_IDX = np.array([0, 2, 4])
VEL_IDX = np.array([1, 3, 5])
SHAPE_SLICE = slice(6, 9)


@dataclass(frozen=True)
class AnnotationFrame:
    """All annotations for one frame.

    ``boxes[object_id][camera_id]`` is the 2D box of the object in that
    camera; ``keypoints[object_id][camera_id]`` is an (N, 3) array of
    (u, v, visibility) rows.
    """

    frame: int
    boxes: Mapping[int, Mapping[int, BBox]] = field(default_factory=dict)
    keypoints: Mapping[int, Mapping[int, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if int(self.frame) < 0:
            raise ValueError(f"frame must be non-negative, got {self.frame}")
        object.__setattr__(self, "frame", int(self.frame))


@dataclass
class ObjectState:
    """Evolving estimate of one object: ellipsoid belief plus keypoints."""

    belief: GaussianBelief
    keypoints: "list[KeypointState]" = field(default_factory=list)


@dataclass(frozen=True)
class TrackEntry:
    """Extracted estimate at one frame."""

    frame: int
    position: np.ndarray
    half_axes: np.ndarray
    keypoints: np.ndarray | None = None

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(3)
        half = np.asarray(self.half_axes, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(half))):
            raise ValueError("track entry contains non-finite values")
        if np.any(half <= 0):
            raise ValueError(f"half_axes must be positive, got {half}")
        kp = self.keypoints
        if kp is not None:
            kp = np.asarray(kp, dtype=np.float64)
            if kp.ndim != 2 or kp.shape[1] != 3:
                raise ValueError(f"keypoints must be (N, 3), got {kp.shape}")
            kp.setflags(write=False)
        pos.setflags(write=False)
        half.setflags(write=False)
        object.__setattr__(self, "frame", int(self.frame))
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "half_axes", half)
        object.__setattr__(self, "keypoints", kp)


@dataclass(frozen=True)
class Track:
    """One object's entries, one per processed frame, frames strictly
    increasing."""

    object_id: int
    entries: tuple[TrackEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        frames = [e.frame for e in entries]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("track frames must be strictly increasing")
        object.__setattr__(self, "object_id", int(self.object_id))
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class Diagnostic:
    """Non-fatal event surfaced during tracking."""

    kind: str
    object_id: int
    frame: int | None = None
    camera_id: int | None = None
    message: str = ""


EventCallback = Callable[[Diagnostic], None]


def bbox_measurement(cam: CameraModel) -> Callable[[np.ndarray], np.ndarray]:
    """Measurement map: states (..., 9) -> boxes (u_min, v_min, u_max, v_max)
    (..., 4) of the ellipsoids they encode."""
    return lambda X: project_ellipsoid_to_bbox(
        cam, X[..., POS_IDX], np.exp(X[..., SHAPE_SLICE])
    )


def init_target(
    boxes: Mapping[int, BBox],
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
) -> ObjectState:
    """Initial belief from the birth-frame boxes.

    The midpoint of each box's bottom edge is back-projected through its
    camera's ground homography; the ground hits are averaged for (x, y). The
    height starts at the default half-height (bottom of the ellipsoid on the
    ground), velocity at zero, log half-axes at the configured defaults.

    Raises
    ------
    NoObservation
        If no camera contributes a usable ground point.
    """
    hits = []
    for cid in sorted(boxes):
        try:
            hits.append(backproject_ground(cams[cid], feet_point(boxes[cid])))
        except GeometryError as exc:
            logger.debug("camera %d unusable for init: %s", cid, exc)
    if not hits:
        raise NoObservation("no camera provided a usable birth box")
    ground = np.mean(hits, axis=0)

    half = np.asarray(config.default_half_axes, dtype=np.float64)
    mean = np.zeros(9)
    mean[POS_IDX] = [ground[0], ground[1], half[2]]
    mean[SHAPE_SLICE] = np.log(half)
    cov = np.diag(
        [config.init_pos_var, config.init_vel_var] * 3
        + [config.init_shape_var] * 3
    )
    return ObjectState(belief=GaussianBelief(mean, cov))


def extract_estimates(
    state: ObjectState,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Current (position, half_axes, keypoints-or-None) of an object."""
    mean = state.belief.mean
    kp = (
        pose_mod.keypoint_positions(state.keypoints)
        if state.keypoints
        else None
    )
    return mean[POS_IDX].copy(), np.exp(mean[SHAPE_SLICE]), kp


def _observed_frames(
    annotations: Sequence[AnnotationFrame], object_id: int
) -> tuple[list[int], int | None, bool]:
    """(frames with a box in ascending order, last observed frame, has any
    keypoints) for an object. The track end counts keypoint-only frames too.
    """
    box_frames = sorted(af.frame for af in annotations if af.boxes.get(object_id))
    kp_frames = [af.frame for af in annotations if af.keypoints.get(object_id)]
    last = max(box_frames + kp_frames, default=None)
    return box_frames, last, bool(kp_frames)


def track_object(
    annotations: Sequence[AnnotationFrame],
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
    object_id: int,
    skeleton: "CanonicalPose | None" = None,
    on_event: EventCallback | None = None,
) -> Track:
    """Fuse one object's annotations into a Track.

    Processes every integer frame from the object's birth (first frame whose
    boxes give a usable ground point) through its last observation; frames
    absent from ``annotations`` are predict-only. A camera update that fails
    numerically is skipped with a diagnostic; the object carries on with its
    prediction.

    Raises
    ------
    NoObservation
        If no box of the object gives a usable ground point.
    """
    track, diags = _track_object_impl(
        annotations, cams, config, object_id, skeleton
    )
    if on_event is not None:
        for d in diags:
            on_event(d)
    if track is None:
        raise NoObservation(f"object {object_id} has no birth frame")
    return track


def _track_object_impl(
    annotations: Sequence[AnnotationFrame],
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
    object_id: int,
    skeleton: "CanonicalPose | None",
) -> tuple[Track | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    box_frames, last, has_kp = _observed_frames(annotations, object_id)
    by_frame = {af.frame: af for af in annotations}
    for birth in box_frames:
        try:
            state = init_target(by_frame[birth].boxes[object_id], cams, config)
            break
        except NoObservation as exc:
            logger.debug(
                "object %d birth deferred past frame %d: %s", object_id, birth, exc
            )
    else:
        reason = (
            "no box gave a usable ground point" if box_frames else "no boxes at all"
        )
        diags.append(Diagnostic("no_observation", object_id, message=reason))
        return None, diags

    measurements = {cid: bbox_measurement(cam) for cid, cam in cams.items()}
    motion = make_motion_model(config.dt, config.q_pos, config.q_shape)
    kp_motion = pose_mod.keypoint_motion_model(config) if skeleton else None
    r_box = config.r_bbox * np.eye(4)
    track_kp = skeleton is not None and has_kp

    entries: list[TrackEntry] = []
    for frame in range(birth, last + 1):
        if frame > birth:
            state.belief = kalman_predict(state.belief, motion)
            if state.keypoints:
                state.keypoints = pose_mod.predict_keypoints(
                    state.keypoints, kp_motion
                )
        af = by_frame.get(frame)
        if af is not None:
            for cid, box in sorted(af.boxes.get(object_id, {}).items()):
                try:
                    state.belief = ukf_update(
                        state.belief,
                        box.as_array(),
                        measurements[cid],
                        r_box,
                        alpha=config.alpha,
                        beta=config.beta,
                        kappa=config.kappa,
                    )
                except (SigmaPointProjectionFailure, SingularInnovation) as exc:
                    diags.append(
                        Diagnostic(
                            "update_skipped", object_id, frame, cid, str(exc)
                        )
                    )
        if track_kp and frame == birth:
            state.keypoints = pose_mod.init_keypoints(
                skeleton, state.belief, config
            )
        if af is not None and state.keypoints:
            for cid, obs in sorted(af.keypoints.get(object_id, {}).items()):
                state.keypoints = pose_mod.update_keypoints(
                    state.keypoints, obs, cams[cid], config
                )
        position, half_axes, kp = extract_estimates(state)
        entries.append(
            TrackEntry(
                frame=frame, position=position, half_axes=half_axes, keypoints=kp
            )
        )
    return Track(object_id=object_id, entries=tuple(entries)), diags


def _track_one(args) -> tuple[int, Track | None, list[Diagnostic]]:
    annotations, cams, config, object_id, skeleton = args
    track, diags = _track_object_impl(
        annotations, cams, config, object_id, skeleton
    )
    return object_id, track, diags


def run_all(
    annotations: Sequence[AnnotationFrame],
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
    skeleton: "CanonicalPose | None" = None,
    workers: int = 1,
    on_event: EventCallback | None = None,
) -> list[Track]:
    """Track every object id present in the annotations.

    Objects are independent, so the result does not depend on ``workers``.
    Objects without a birth frame (no box, or no box that gives a usable
    ground point) are reported through ``on_event`` and omitted from the
    result.
    """
    ids = sorted(
        {oid for af in annotations for oid in af.boxes}
        | {oid for af in annotations for oid in af.keypoints}
    )
    results: dict[int, Track | None] = {}
    all_diags: list[Diagnostic] = []
    if workers > 1 and len(ids) > 1:
        jobs = [(list(annotations), dict(cams), config, oid, skeleton) for oid in ids]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for oid, track, diags in pool.map(_track_one, jobs):
                results[oid] = track
                all_diags.extend(diags)
    else:
        for oid in ids:
            track, diags = _track_object_impl(
                annotations, cams, config, oid, skeleton
            )
            results[oid] = track
            all_diags.extend(diags)
    if on_event is not None:
        for d in all_diags:
            on_event(d)
    return [results[oid] for oid in ids if results[oid] is not None]
