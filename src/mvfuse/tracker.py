"""Fusion of multi-camera annotations into 3D tracks.

One object = one 9-dim state [x, vx, y, vy, z, vz, log a, log b, log c]:
constant-velocity kinematics plus a random walk on the log half-axes. Each
frame is predicted once and then corrected sequentially with every camera's
bounding box (ascending camera id), the posterior of one correction feeding
the next. Keypoint states, when a skeleton is configured, are 6-dim states
per joint seeded from the post-update birth state.

Objects never interact, so they are filtered together: every object is a row
of one stacked belief (its joints are rows of a second one), and each frame
runs one predict over the live rows, then one update per camera over the rows
with an annotation in it. A row whose update fails is redone alone, so a
failure in one object never touches another.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateConic, DivergentUpdate, GeometryError, NoObservation
from .filter import (
    GaussianBelief,
    kalman_predict,
    make_motion_model,
    ukf_update,
    update_rows,
)
from .geometry import (
    BBox,
    CameraModel,
    backproject_ground,
    feet_point,
    project_ellipsoid_to_bbox,
)
from . import pose as pose_mod
from .tracks import TrackTable

if TYPE_CHECKING:
    from .io import RunConfig
    from .pose import CanonicalPose

logger = logging.getLogger(__name__)

# State vector layout.
POS_IDX = np.array([0, 2, 4])
SHAPE_SLICE = slice(6, 9)
# Log half-axes beyond +-30 (e^30 m ~ 1e13 m) are no annotated object, and
# such a state overflows the arithmetic downstream.
_LOG_AXIS_LIMIT = 30.0


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


@dataclass(frozen=True)
class Diagnostic:
    """Non-fatal event surfaced during tracking."""

    kind: str
    object_id: int
    frame: int | None = None
    camera_id: int | None = None
    message: str = ""


EventCallback = Callable[[Diagnostic], None]


def _half_axes(X: np.ndarray) -> np.ndarray:
    """Half-axes (..., 3) of states (..., 9); log half-axes beyond the limit
    raise ``DegenerateConic``."""
    if np.any(np.abs(X[..., SHAPE_SLICE]) > _LOG_AXIS_LIMIT):
        raise DegenerateConic("log half-axes out of range")
    return np.exp(X[..., SHAPE_SLICE])


def bbox_measurement(cam: CameraModel) -> Callable[[np.ndarray], np.ndarray]:
    """Measurement map: states (..., 9) -> boxes (u_min, v_min, u_max, v_max)
    (..., 4) of the ellipsoids they encode."""
    return lambda X: project_ellipsoid_to_bbox(cam, X[..., POS_IDX], _half_axes(X))


def _box_update(h, noise, scaling, belief: GaussianBelief, z) -> GaussianBelief:
    """One stacked box update; a posterior beyond the log half-axis limit
    fails it."""
    post = ukf_update(belief, z, h, noise, **scaling)
    if np.any(np.abs(post.mean[:, SHAPE_SLICE]) > _LOG_AXIS_LIMIT):
        raise DivergentUpdate("posterior log half-axes out of range")
    return post


def init_target(
    boxes: Mapping[int, BBox],
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
) -> GaussianBelief:
    """Initial one-row belief from the birth-frame boxes.

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
    return GaussianBelief(mean, cov)


def _by_camera(per_object: Mapping, row_of: Mapping[int, int], active: np.ndarray):
    """Regroup one frame's ``{object id: {camera id: item}}`` into
    (camera id, rows, items) in ascending camera id, then row, keeping the
    objects whose row is ``active``."""
    hits = sorted(
        (cid, row_of[oid], item)
        for oid, per_cam in per_object.items()
        if oid in row_of and active[row_of[oid]]
        for cid, item in per_cam.items()
    )
    for cid, group in groupby(hits, key=lambda hit: hit[0]):
        _, rows, items = zip(*group)
        yield cid, np.array(rows), items


def run_all(
    annotations: Sequence[AnnotationFrame],
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
    skeleton: "CanonicalPose | None" = None,
    on_event: EventCallback | None = None,
) -> TrackTable:
    """Track every object id present in the annotations; one table row per
    (frame, object), keypoints from the frame an object's joints are seeded.

    Each object is processed at every integer frame from its birth (first
    frame whose boxes give a usable ground point) through its last
    observation; frames absent from ``annotations`` are predict-only. A
    camera update that fails for an object is skipped with an
    ``update_skipped`` diagnostic and the object carries on with its
    prediction; a failed keypoint update leaves that joint at its prior.
    Objects without a birth frame (no box, or no box that gives a usable
    ground point), and objects none of whose box updates applied, whose track
    would be prediction alone, get a ``no_observation`` diagnostic and are
    omitted. Diagnostics reach ``on_event`` ordered by object, then frame, then
    camera.
    """
    by_frame = {af.frame: af for af in annotations}
    ids = sorted({oid for af in annotations for oid in (*af.boxes, *af.keypoints)})
    diags: list[Diagnostic] = []
    oids, births, lasts, with_kp, beliefs = [], [], [], [], []
    for oid in ids:
        box_frames = sorted(af.frame for af in annotations if af.boxes.get(oid))
        kp_frames = [af.frame for af in annotations if af.keypoints.get(oid)]
        for birth in box_frames:
            try:
                beliefs.append(init_target(by_frame[birth].boxes[oid], cams, config))
                break
            except NoObservation as exc:
                logger.debug("object %d birth deferred past frame %d: %s", oid, birth, exc)
        else:
            reason = "no box gave a usable ground point" if box_frames else "no boxes at all"
            diags.append(Diagnostic("no_observation", oid, message=reason))
            continue
        oids.append(oid)
        births.append(birth)
        lasts.append(max(box_frames + kp_frames))  # keypoint-only frames count
        with_kp.append(skeleton is not None and bool(kp_frames))

    n = len(oids)
    row_of = {oid: i for i, oid in enumerate(oids)}
    birth, last = np.array(births, dtype=int), np.array(lasts, dtype=int)
    with_kp = np.array(with_kp, dtype=bool)
    mean = np.array([b.mean[0] for b in beliefs]).reshape(n, 9)
    cov = np.array([b.covariance[0] for b in beliefs]).reshape(n, 9, 9)
    # Joint j of object row i is keypoint row i * J + j.
    J = skeleton.num_joints if skeleton is not None else 0
    kp_mean, kp_cov = np.zeros((n * J, 6)), np.zeros((n * J, 6, 6))
    kp_on = np.zeros(n, dtype=bool)
    applied = np.zeros(n, dtype=int)  # box updates that took effect, per row

    def joints(rows) -> np.ndarray:
        return (np.asarray(rows)[:, None] * J + np.arange(J)).ravel()

    motion = make_motion_model(config.dt, config.q_pos, config.q_shape)
    kp_motion = pose_mod.keypoint_motion_model(config) if skeleton is not None else None
    measurements = {cid: bbox_measurement(cam) for cid, cam in cams.items()}
    r_box = config.r_bbox * np.eye(4)
    scaling = dict(alpha=config.alpha, beta=config.beta, kappa=config.kappa)
    # The table one frame chunk at a time: frames, object rows, states, keypoints.
    out_frame, out_row = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    out_mean, out_kp = [np.zeros((0, 9))], [np.zeros((0, J, 3))]
    for frame in range(min(births, default=0), max(lasts, default=-1) + 1):
        live = (birth <= frame) & (frame <= last)
        moving = np.flatnonzero(live & (birth < frame))
        if moving.size:
            b = kalman_predict(GaussianBelief._trusted(mean[moving], cov[moving]), motion)
            mean[moving], cov[moving] = b.mean, b.covariance
        kp_rows = joints(moving[kp_on[moving]])
        if kp_rows.size:
            b = pose_mod.predict_keypoints(
                GaussianBelief._trusted(kp_mean[kp_rows], kp_cov[kp_rows]), kp_motion
            )
            kp_mean[kp_rows], kp_cov[kp_rows] = b.mean, b.covariance

        af = by_frame.get(frame, AnnotationFrame(frame))
        for cid, rows, boxes in _by_camera(af.boxes, row_of, live):
            mean[rows], cov[rows], failed = update_rows(
                partial(_box_update, measurements[cid], r_box, scaling),
                GaussianBelief._trusted(mean[rows], cov[rows]),
                [box.as_array() for box in boxes],
            )
            applied[rows] += 1
            for k, exc in failed:
                applied[rows[k]] -= 1
                diags.append(Diagnostic("update_skipped", oids[rows[k]], frame, cid, str(exc)))

        born = np.flatnonzero(with_kp & (birth == frame))
        if born.size:
            b = pose_mod.init_keypoints(
                skeleton, GaussianBelief._trusted(mean[born], cov[born]), config
            )
            kp_mean[joints(born)], kp_cov[joints(born)] = b.mean, b.covariance
            kp_on[born] = True
        for cid, rows, obs in _by_camera(af.keypoints, row_of, kp_on):
            if any(np.shape(o) != (J, 3) for o in obs):
                raise ValueError(f"keypoint observations must be ({J}, 3) arrays")
            kp_rows = joints(rows)
            b = pose_mod.update_keypoints(
                GaussianBelief._trusted(kp_mean[kp_rows], kp_cov[kp_rows]),
                np.concatenate(obs),
                cams[cid],
                config,
            )
            kp_mean[kp_rows], kp_cov[kp_rows] = b.mean, b.covariance

        rows = np.flatnonzero(live)
        out_frame.append(np.full(rows.size, frame))
        out_row.append(rows)
        out_mean.append(mean[rows])
        if J:
            on = kp_on[rows]
            kp = np.full((rows.size, J, 3), np.nan)
            kp[on] = kp_mean[joints(rows[on])][:, pose_mod.KP_POS_IDX].reshape(-1, J, 3)
            out_kp.append(kp)

    for i in np.flatnonzero(applied == 0):
        diags.append(Diagnostic("no_observation", oids[i], message="every box update was skipped"))
    if on_event is not None:
        for d in sorted(diags, key=lambda d: d.object_id):
            on_event(d)
    row = np.concatenate(out_row)
    keep = applied[row] > 0
    state = np.concatenate(out_mean)[keep]
    return TrackTable(
        frame=np.concatenate(out_frame)[keep],
        object_id=np.array(oids, dtype=np.int64)[row[keep]],
        position=state[:, POS_IDX],
        half_axes=np.exp(state[:, SHAPE_SLICE]),
        keypoints=np.concatenate(out_kp)[keep] if J else None,
    )
