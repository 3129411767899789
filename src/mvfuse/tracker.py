"""Fusion of multi-camera annotations into 3D tracks.

One object = one 9-dim state [x, vx, y, vy, z, vz, log a, log b, log c]:
constant-velocity kinematics plus a random walk on the log half-axes.
Keypoint states, when a skeleton is configured, are 6-dim states per joint
seeded from the post-update birth state.

Objects never interact, so they are filtered together in one forward pass:
every object is a row of one (mean, cov) stack (its joints are rows of a
second one). Each frame runs one in-place predict over the live rows of each
stack, the births of the unborn objects it has boxes of, then one in-place
update (``update_rows``) per camera, ascending, over the rows with an
annotation in it, the posterior of one camera feeding the next. A row whose
update fails is redone alone, so a failure in one object never touches
another. Frames with no live row and no annotation are skipped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .errors import (
    DegenerateConic,
    DivergentUpdate,
    GeometryError,
    NoObservation,
    ValidationError,
)
from .filter import (
    POS,
    SHAPE,
    VEL,
    GaussianBelief,
    MotionModel,
    kalman_predict,
    make_motion_model,
    sigma_scale,
    ukf_update,
    update_rows,
)
from .geometry import CameraModel, backproject_ground, project_ellipsoid_to_bbox
from . import pose as pose_mod
from .tracks import AnnotationTable, TrackTable

if TYPE_CHECKING:
    from .io import RunConfig
    from .pose import CanonicalPose

logger = logging.getLogger(__name__)

# Log half-axes beyond +-30 (e^30 m ~ 1e13 m) are no annotated object, and
# such a state overflows the arithmetic downstream.
_LOG_AXIS_LIMIT = 30.0


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
    if (np.abs(X[..., SHAPE]) > _LOG_AXIS_LIMIT).any():
        raise DegenerateConic("log half-axes out of range")
    return np.exp(X[..., SHAPE])


def bbox_measurement(cam: CameraModel) -> Callable[[np.ndarray], np.ndarray]:
    """Measurement map: states (..., 9) -> boxes (u_min, v_min, u_max, v_max)
    (..., 4) of the ellipsoids they encode."""
    return lambda X: project_ellipsoid_to_bbox(cam, X[..., POS], _half_axes(X))


def _box_update(cam: CameraModel, config: "RunConfig"):
    """The update of a stack of box states by their (n, 4) boxes in ``cam``,
    ``update(mean, cov, z) -> (mean, cov)`` for :func:`update_rows`; a
    posterior beyond the log half-axis limit fails it."""
    h, noise = bbox_measurement(cam), config.r_bbox * np.eye(4)
    scaling = dict(alpha=config.alpha, beta=config.beta, kappa=config.kappa)

    def update(mean: np.ndarray, cov: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
        mean, cov = ukf_update(mean, cov, z, h, noise, **scaling)
        if (np.abs(mean[:, SHAPE]) > _LOG_AXIS_LIMIT).any():
            raise DivergentUpdate("posterior log half-axes out of range")
        return mean, cov

    return update


def init_target(
    camera_ids,
    boxes,
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
) -> GaussianBelief:
    """Initial one-row belief from the birth frame's boxes (k, 4), one per
    camera id in ``camera_ids`` (k,).

    The midpoint of each box's bottom edge is back-projected through its
    camera's ground homography; the ground hits are averaged, in ascending
    camera id, for (x, y). The height starts at the default half-height
    (bottom of the ellipsoid on the ground), velocity at zero, log half-axes
    at the configured defaults.

    Raises
    ------
    NoObservation
        If no camera contributes a usable ground point.
    """
    camera_ids = np.asarray(camera_ids)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    hits = []
    for i in np.argsort(camera_ids, kind="stable").tolist():
        cid, (u_min, _, u_max, v_max) = int(camera_ids[i]), boxes[i]
        try:
            hits.append(backproject_ground(cams[cid], ((u_min + u_max) / 2.0, v_max)))
        except GeometryError as exc:
            logger.debug("camera %d unusable for init: %s", cid, exc)
    if not hits:
        raise NoObservation("no camera provided a usable birth box")
    ground = np.mean(hits, axis=0)

    half = np.asarray(config.default_half_axes, dtype=np.float64)
    mean = np.zeros(9)
    mean[POS] = [ground[0], ground[1], half[2]]
    mean[SHAPE] = np.log(half)
    var = np.empty(9)
    var[POS], var[VEL], var[SHAPE] = config.init_pos_var, config.init_vel_var, config.init_shape_var
    return GaussianBelief(mean, np.diag(var))


def _predict(predict, model: MotionModel, mean: np.ndarray, cov: np.ndarray, rows):
    """Move the rows ``rows`` of a writable (mean, cov) stack through
    ``predict``, in place and isolated row from row as :func:`update_rows`
    does; returns the (row, error) pairs of the rows whose predict failed."""
    return update_rows(lambda m, c, _: predict(m, c, model), mean, cov, rows, rows)


def run_all(
    annotations: AnnotationTable,
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
    skeleton: "CanonicalPose | None" = None,
    on_event: EventCallback | None = None,
) -> TrackTable:
    """Track every object id present in the annotations; one table row per
    (frame, object), keypoints from the frame an object's joints are seeded.

    One pass over the frames births each object at the first frame whose
    boxes give a usable ground point and runs it through its last
    observation, predict-only where it has no annotation; frames with no live
    object and no annotation are skipped. A camera update that fails for an
    object is skipped with an ``update_skipped`` diagnostic and the object
    carries on with its prediction; a failed keypoint update leaves that
    joint at its prior. An object whose predict (of its box state or of a
    joint) fails ends at the frame before, with a ``predict_failed``
    diagnostic. Objects never born (no box, or no box that gives a usable
    ground point), and objects none of whose box updates applied, whose
    track would be prediction alone, get a ``no_observation`` diagnostic and
    are omitted. Diagnostics reach ``on_event`` ordered by object, then
    frame, then camera. A config that gives no motion model, sigma points or
    birth belief for a state the run filters raises ``ValidationError``.
    """
    ann = annotations
    # J = 0 when no keypoints are fused: no skeleton, or none in the annotations.
    J = skeleton.num_joints if skeleton is not None and ann.keypoints is not None else 0
    if J and ann.keypoints.shape[1] != J:
        raise ValueError(f"keypoint observations shape must be (n, {J}, 3)")
    has_box, has_kp = ann.has_bbox, ann.has_keypoints
    # The filter's constant pieces, built once before any object is fused: the
    # motion models and the sigma scale of each filtered state. The 6-dim model
    # fails only where the 9-dim one does.
    try:
        motion = make_motion_model(config.dt, config.q_pos, config.q_shape)
        kp_motion = make_motion_model(config.dt, config.q_pos)
    except (ArithmeticError, ValueError) as exc:
        raise ValidationError(f"dt, q_pos and q_shape give no motion model: {exc}") from None
    try:
        for d in (9, 6) if J else (9,):
            sigma_scale(d, config.alpha, config.kappa)
    except ValueError as exc:
        raise ValidationError(f"alpha and kappa give no sigma points: {exc}") from None
    diags: list[Diagnostic] = []
    # One state row per object id, ascending: its last frame (keypoint-only ones
    # count), whether it fuses keypoints or has a box, its birth frame (-1 until born).
    ids, row_of = np.unique(ann.object_id, return_inverse=True)
    oids, n = ids.tolist(), ids.size
    last, birth = np.zeros(n, dtype=np.int64), np.full(n, -1)
    np.maximum.at(last, row_of, ann.frame)
    with_kp, boxed = np.zeros((2, n), dtype=bool)
    np.logical_or.at(with_kp, row_of, has_kp & (J > 0))
    np.logical_or.at(boxed, row_of, has_box)
    mean, cov = np.zeros((n, 9)), np.zeros((n, 9, 9))
    # Joint j of object row i is keypoint row i * J + j; NaN until seeded.
    kp_mean, kp_cov = np.full((n * J, 6), np.nan), np.zeros((n * J, 6, 6))
    applied = np.zeros(n, dtype=int)  # box updates that took effect, per row

    def joints(rows) -> np.ndarray:
        return (np.asarray(rows)[:, None] * J + np.arange(J)).ravel()

    # The update schedule: each frame's (camera id, annotation rows, state rows)
    # blocks, cameras ascending, objects ascending in a block.
    order = np.lexsort((ann.object_id, ann.camera_id, ann.frame))
    pairs = np.column_stack([ann.frame[order], ann.camera_id[order]])
    pairs, starts = np.unique(pairs, axis=0, return_index=True)
    schedule: dict[int, list] = {}
    split = np.split(np.stack([order, row_of[order]]), starts[1:], axis=1)
    for (frame, cid), (a, r) in zip(pairs.tolist(), split):
        schedule.setdefault(frame, []).append((cid, a, r))

    box_update = {cid: _box_update(cam, config) for cid, cam in cams.items()}
    kp_update = {cid: pose_mod.keypoint_update(cam, config) for cid, cam in cams.items()}
    # The table one frame chunk at a time: frames, object rows, states, keypoints.
    out_frame, out_row = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    out_mean, out_kp = [np.zeros((0, 9))], [np.zeros((0, J, 3))]
    annotated = iter(schedule)  # the frames, ascending
    frame = next(annotated, None)
    while frame is not None:
        moving = np.flatnonzero((0 <= birth) & (birth < frame) & (frame <= last))
        failed = dict(_predict(kalman_predict, motion, mean, cov, moving))
        kp_moving = joints(moving[with_kp[moving]])
        for row, exc in _predict(pose_mod.predict_keypoints, kp_motion, kp_mean, kp_cov, kp_moving):
            failed.setdefault(row // J, exc)
        for row, exc in sorted(failed.items()):  # the object ends at the frame before
            last[row] = frame - 1
            diags.append(Diagnostic("predict_failed", oids[row], frame, message=str(exc)))
        # Each unborn object tries a birth from its boxes here, in table order.
        blocks = schedule.get(frame, ())
        cand = np.sort(np.concatenate([a for _, a, _ in blocks] or [order[:0]]))
        cand = cand[has_box[cand] & (birth[row_of[cand]] < 0)]
        rows, firsts = np.unique(row_of[cand], return_index=True)
        for row, at in zip(rows.tolist(), np.split(cand, firsts[1:])):
            try:
                b = init_target(ann.camera_id[at], ann.bbox[at], cams, config)
            except NoObservation as exc:
                logger.debug("object %d birth deferred past frame %d: %s", oids[row], frame, exc)
                continue
            except ValueError as exc:  # the birth belief's own check
                raise ValidationError(
                    f"init_pos_var, init_vel_var and init_shape_var give no birth belief: {exc}"
                ) from None
            mean[row], cov[row], birth[row] = b.mean[0], b.covariance[0], frame
        live = (0 <= birth) & (birth <= frame) & (frame <= last)

        for cid, a, r in blocks:
            take = live[r] & has_box[a]
            rows = r[take]
            applied[rows] += 1
            for row, exc in update_rows(box_update[cid], mean, cov, rows, ann.bbox[a[take]]):
                applied[row] -= 1
                diags.append(Diagnostic("update_skipped", oids[row], frame, cid, str(exc)))

        born = np.flatnonzero(with_kp & (birth == frame))
        if born.size:
            try:
                b = pose_mod.init_keypoints(skeleton, mean[born], config)
            except ValueError as exc:  # the keypoint birth belief's own check
                raise ValidationError(
                    f"init_keypoint_pos_var and init_keypoint_vel_var give no birth belief: {exc}"
                ) from None
            kp_mean[joints(born)], kp_cov[joints(born)] = b.mean, b.covariance
        for cid, a, r in blocks if J else ():  # a keypoint row's object fuses keypoints
            take = live[r] & has_kp[a]
            obs = ann.keypoints[a[take]].reshape(-1, 3)
            seen = obs[:, 2] >= config.visibility_threshold
            kp_rows = joints(r[take])[seen]
            for row, exc in update_rows(kp_update[cid], kp_mean, kp_cov, kp_rows, obs[seen, :2]):
                logger.debug("keypoint row %d update skipped: %s", row, exc)

        rows = np.flatnonzero(live)
        out_frame.append(np.full(rows.size, frame))
        out_row.append(rows)
        out_mean.append(mean[rows])
        if J:
            out_kp.append(kp_mean[joints(rows)][:, POS].reshape(-1, J, 3))
        if (live & (frame < last)).any():
            frame += 1
        else:  # no row is live before the next annotated frame
            frame = next((f for f in annotated if f > frame), None)

    for i in np.flatnonzero(applied == 0):
        reason = ("every box update was skipped" if birth[i] >= 0 else
                  "no box gave a usable ground point" if boxed[i] else "no boxes at all")
        diags.append(Diagnostic("no_observation", oids[i], message=reason))
    if on_event is not None:
        for d in sorted(diags, key=lambda d: d.object_id):
            on_event(d)
    row = np.concatenate(out_row)
    keep = applied[row] > 0
    state = np.concatenate(out_mean)[keep]
    return TrackTable(
        frame=np.concatenate(out_frame)[keep],
        object_id=ids[row[keep]],
        position=state[:, POS],
        half_axes=np.exp(state[:, SHAPE]),
        keypoints=np.concatenate(out_kp)[keep] if J else None,
    )
