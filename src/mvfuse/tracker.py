"""Fusion of multi-camera annotations into 3D tracks.

One object = one 9-dim state [x, vx, y, vy, z, vz, log a, log b, log c]:
constant-velocity kinematics plus a random walk on the log half-axes.
Keypoint states, when a skeleton is configured, are 6-dim states per joint
seeded from the post-update birth state.

Objects never interact, so they are filtered together in one forward pass:
every object is a row of one (mean, cov) stack (its joints are rows of a
second one). What the annotations fix is worked out once, before the first
frame, as a schedule of table row indices: each annotated frame's birth
groups (an object's box rows, cameras ascending) and its per-camera blocks
of box rows and keypoint rows. The frame loop filters the schedule by
liveness alone. Each frame runs one in-place predict over the live rows of
each stack, tries the frame's birth groups of the objects still unborn, then
one in-place update (``update_rows``) per camera, ascending, over the live
rows of its block, the posterior of one camera feeding the next. A row whose
update fails is redone alone, so a failure in one object never touches
another. Frames with no live row and no annotation are skipped.

The pass (``_forward``) hands each visited frame's live rows and their
filtered means to the builder (``run_all``), the one place that makes the
track table.
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


def _runs(at: np.ndarray, *keys: np.ndarray) -> list[np.ndarray]:
    """The runs of equal ``keys`` in the table rows ``at``, in order."""
    cut = np.flatnonzero(np.any([np.diff(k[at]) for k in keys], axis=0)) + 1
    return np.split(at, cut) if at.size else []


def _forward(ann: AnnotationTable, cams: Mapping[int, CameraModel], config: "RunConfig",
             skeleton: "CanonicalPose | None", on_event: EventCallback | None):
    """The forward pass of :func:`run_all`: its checks, its schedule and its
    frame loop, with every diagnostic delivered to ``on_event`` at the end.

    Returns the object ids (one per state row, ascending), J, the chunks
    ``(frames, state rows, filtered means, joint positions)`` of the visited
    frames' live rows after one empty chunk (joint positions only when
    J > 0), and the box updates applied per state row.
    """
    # J = 0 when no keypoints are fused: no skeleton, or none in the annotations.
    J = skeleton.num_joints if skeleton is not None and ann.keypoints is not None else 0
    unknown = ~np.isin(ann.camera_id, list(cams))
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ValidationError(
            f"frame {ann.frame[i]}, object {ann.object_id[i]}: unknown camera {ann.camera_id[i]}"
        )
    if J and ann.keypoints.shape[1] != J:
        i = int(np.argmax(ann.has_keypoints))
        raise ValidationError(
            f"frame {ann.frame[i]}, object {ann.object_id[i]}, camera {ann.camera_id[i]}: "
            f"{ann.keypoints.shape[1]} keypoints, expected {J}"
        )
    # The schedule, fixed by the table before the first frame. One state row per
    # object id, ascending: its last frame (keypoint-only ones count), whether it
    # fuses keypoints or has a box; and its birth frame, -1 until born.
    has_box, has_kp = ann.has_bbox, ann.has_keypoints & (J > 0)
    ids, row_of = np.unique(ann.object_id, return_inverse=True)
    oids, n = ids.tolist(), ids.size
    last, birth = np.zeros(n, dtype=np.int64), np.full(n, -1)
    np.maximum.at(last, row_of, ann.frame)
    with_kp, boxed = (np.bincount(row_of[m], minlength=n) > 0 for m in (has_kp, has_box))
    # Each annotated frame's birth groups, (state row, box rows) with objects and
    # cameras ascending, and its blocks, (camera id, box rows, their state rows,
    # keypoint rows, their state rows) with cameras ascending, objects ascending
    # in a block. A stable sort on (frame, camera) keeps the table's object order.
    births, blocks = {}, {}
    for at in _runs(np.flatnonzero(has_box), ann.frame, row_of):
        births.setdefault(int(ann.frame[at[0]]), []).append((int(row_of[at[0]]), at))
    for a in _runs(np.lexsort((ann.camera_id, ann.frame)), ann.frame, ann.camera_id):
        box, kp = a[has_box[a]], a[has_kp[a]]
        blocks.setdefault(int(ann.frame[a[0]]), []).append(
            (int(ann.camera_id[a[0]]), box, row_of[box], kp, row_of[kp])
        )

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
    mean, cov = np.zeros((n, 9)), np.zeros((n, 9, 9))
    # Joint j of object row i is keypoint row i * J + j; NaN until seeded.
    kp_mean, kp_cov = np.full((n * J, 6), np.nan), np.zeros((n * J, 6, 6))
    applied = np.zeros(n, dtype=int)  # box updates that took effect, per row

    def joints(rows) -> np.ndarray:
        return (np.asarray(rows)[:, None] * J + np.arange(J)).ravel()

    box_update = {cid: _box_update(cam, config) for cid, cam in cams.items()}
    kp_update = {cid: pose_mod.keypoint_update(cam, config) for cid, cam in cams.items()}
    # One chunk per visited frame: frames, state rows, filtered means, joints.
    chunks = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 9)), np.zeros((0, J, 3)))]
    annotated = iter(blocks)  # the frames, ascending
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
        for row, at in births.get(frame, ()):
            if birth[row] >= 0:
                continue
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

        for cid, a, r, _, _ in blocks.get(frame, ()):
            take = live[r]
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
        for cid, _, _, a, r in blocks.get(frame, ()) if J else ():
            take = live[r]
            obs = ann.keypoints[a[take]].reshape(-1, 3)
            seen = obs[:, 2] >= config.visibility_threshold
            kp_rows = joints(r[take])[seen]
            for row, exc in update_rows(kp_update[cid], kp_mean, kp_cov, kp_rows, obs[seen, :2]):
                logger.debug("keypoint row %d update skipped: %s", row, exc)

        rows = np.flatnonzero(live)
        kp = kp_mean[joints(rows)][:, POS].reshape(-1, J, 3) if J else None
        chunks.append((np.full(rows.size, frame), rows, mean[rows], kp))
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
    return ids, J, chunks, applied


def run_all(
    annotations: AnnotationTable,
    cams: Mapping[int, CameraModel],
    config: "RunConfig",
    skeleton: "CanonicalPose | None" = None,
    on_event: EventCallback | None = None,
) -> TrackTable:
    """Track every object id present in the annotations; one table row per
    (frame, object), keypoints from the frame an object's joints are seeded.

    The forward pass (``_forward``) births each object at the first frame
    whose boxes give a usable ground point and runs it through its last
    observation, predict-only where it has no annotation; frames with no
    live object and no annotation are skipped. A camera update that fails
    for an object is skipped with an ``update_skipped`` diagnostic and the
    object carries on with its prediction; a failed keypoint update leaves
    that joint at its prior. An object whose predict (of its box state or of
    a joint) fails ends at the frame before, with a ``predict_failed``
    diagnostic. Objects never born (no box, or no box that gives a usable
    ground point), and objects none of whose box updates applied, whose
    track would be prediction alone, get a ``no_observation`` diagnostic and
    are left out when the table is built here from the rows the pass
    visited. Diagnostics reach ``on_event`` ordered by object, then frame,
    then camera.

    Raises ``ValidationError`` for an annotation whose camera is not in
    ``cams``, for keypoint rows whose joint count differs from the
    skeleton's, and for a config that gives no motion model, sigma points or
    birth belief for a state the run filters.
    """
    ids, J, chunks, applied = _forward(annotations, cams, config, skeleton, on_event)
    frame, row, state, kp = zip(*chunks)
    row = np.concatenate(row)
    keep = applied[row] > 0
    state = np.concatenate(state)[keep]
    return TrackTable(
        frame=np.concatenate(frame)[keep],
        object_id=ids[row[keep]],
        position=state[:, POS],
        half_axes=np.exp(state[:, SHAPE]),
        keypoints=np.concatenate(kp)[keep] if J else None,
    )
