"""Independent reference implementations used to check the package.

Everything here is written from first principles with plain numpy so that a
bug in the package cannot hide in its own oracle: projection is spelled out
explicitly, the Kalman filter uses the standard closed-form equations, the
ellipsoid box comes from brute-force surface sampling or from the full 4x4
dual quadric, and the tracking metrics are scored one pair of objects and one
frame at a time. The ``loop_*`` box-step references are the exception: they
keep an earlier, plainer form of the package's own sigma points, conic box
and UKF update (column by column, no cached constants), so that a faster
form of the same arithmetic can be held to the same bits.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Iterable

import numpy as np
import orjson
from scipy.optimize import linear_sum_assignment

from mvfuse.errors import ParseError, ValidationError
from mvfuse.io import _CHUNK, _float_list, _integer, _json_loads
from mvfuse.metrics import PoseMetrics
from mvfuse.tracks import RowError


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


# --- tracking metrics, one (frame, gt, pred) triple at a time ---------------
# Arguments are track tables, read as ``positions[oid][frame]`` (3,) and
# ``keypoints[oid][frame]`` (J, 3) dicts.


def track_dicts(table):
    """A track table's ``positions``, ``half_axes`` and ``keypoints`` as
    ``{oid: {frame: row}}`` dicts, holding only the rows that carry each
    (a row without one is NaN there). Objects are inserted in the order of
    their first appearance: by frame, then id."""
    out = SimpleNamespace(positions={}, half_axes={}, keypoints={})
    for i, (f, oid) in enumerate(zip(table.frame.tolist(), table.object_id.tolist())):
        out.positions.setdefault(oid, {})[f] = table.position[i]
        if not np.isnan(table.half_axes[i]).all():
            out.half_axes.setdefault(oid, {})[f] = table.half_axes[i]
        if table.keypoints is not None and not np.isnan(table.keypoints[i]).all():
            out.keypoints.setdefault(oid, {})[f] = table.keypoints[i]
    return out

def _dist(a, b):
    """Euclidean distance of two (3,) positions as the plain root of the sum
    of squares, in Python floats."""
    dx, dy, dz = (float(u) - float(v) for u, v in zip(a, b))
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _frame_objects(ts, frame):
    return {oid: per[frame] for oid, per in ts.positions.items() if frame in per}


def loop_clear_mot(pred, gt, threshold=1.0):
    """(fp, fn, ids, mota) with match persistence, frame by frame."""
    pred, gt = track_dicts(pred), track_dicts(gt)
    frames = sorted({f for per in (*gt.positions.values(), *pred.positions.values()) for f in per})
    fp = fn = ids = 0
    last_known = {}
    for f in frames:
        gt_here = _frame_objects(gt, f)
        pred_here = _frame_objects(pred, f)
        matches = {}
        taken = set()
        for g, gpos in gt_here.items():
            p = last_known.get(g)
            if p is None or p not in pred_here or p in taken:
                continue
            if _dist(gpos, pred_here[p]) <= threshold:
                matches[g] = p
                taken.add(p)
        free_g = [g for g in gt_here if g not in matches]
        free_p = [p for p in pred_here if p not in taken]
        if free_g and free_p:
            # Out-of-gate pairs cost more than any set of in-gate pairs.
            forbidden = threshold * min(len(free_g), len(free_p)) + 1.0
            cost = np.empty((len(free_g), len(free_p)))
            for i, g in enumerate(free_g):
                for j, p in enumerate(free_p):
                    d = _dist(gt_here[g], pred_here[p])
                    cost[i, j] = d if d <= threshold else forbidden
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if cost[i, j] <= threshold:
                    matches[free_g[i]] = free_p[j]
                    taken.add(free_p[j])
        fn += len(gt_here) - len(matches)
        fp += len(pred_here) - len(matches)
        for g, p in matches.items():
            prev = last_known.get(g)
            if prev is not None and prev != p:
                ids += 1
            last_known[g] = p
    total_gt = sum(len(per) for per in gt.positions.values())
    return fp, fn, ids, 100.0 * (1.0 - (fp + fn + ids) / total_gt)


def loop_idf1(pred, gt, threshold=1.0):
    """IDF1 from a pair-by-pair, frame-by-frame overlap count."""
    pred, gt = track_dicts(pred), track_dicts(gt)
    total_gt = sum(len(per) for per in gt.positions.values())
    total_pred = sum(len(per) for per in pred.positions.values())
    if total_pred == 0:
        return 0.0
    gt_ids, pred_ids = sorted(gt.positions), sorted(pred.positions)
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    for i, g in enumerate(gt_ids):
        for j, p in enumerate(pred_ids):
            a, b = gt.positions[g], pred.positions[p]
            overlap[i, j] = sum(
                _dist(a[f], b[f]) <= threshold for f in a.keys() & b.keys()
            )
    rows, cols = linear_sum_assignment(-overlap)
    return 100.0 * 2.0 * overlap[rows, cols].sum() / (total_gt + total_pred)


def loop_ospa2(pred, gt, cutoff=1.0, order=1.0):
    """OSPA(2) over the whole union timeline, one pair of tracks at a time."""
    pred, gt = track_dicts(pred), track_dicts(gt)
    frames = sorted({f for per in (*gt.positions.values(), *pred.positions.values()) for f in per})
    pred_tracks = [pred.positions[i] for i in sorted(pred.positions)]
    gt_tracks = [gt.positions[i] for i in sorted(gt.positions)]
    m, n = len(pred_tracks), len(gt_tracks)
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return float(cutoff)
    D = np.empty((m, n))
    for i, a in enumerate(pred_tracks):
        for j, b in enumerate(gt_tracks):
            total, count = 0.0, 0
            for f in frames:
                pa, pb = a.get(f), b.get(f)
                if pa is None and pb is None:
                    continue
                count += 1
                if pa is None or pb is None:
                    total += cutoff
                else:
                    total += min(cutoff, _dist(pa, pb))
            D[i, j] = total / count if count else 0.0
    rows, cols = linear_sum_assignment(D ** order)
    cost = float((D[rows, cols] ** order).sum()) + (cutoff ** order) * (max(m, n) - min(m, n))
    return float((cost / max(m, n)) ** (1.0 / order))


def loop_pose_metrics(pred, gt, ap_thresholds=(25.0, 50.0, 100.0, 150.0), recall_at=500.0):
    """(ap, recall, mpjpe): per-frame Hungarian matching on MPJPE in mm,
    one (gt pose, pred pose) pair at a time."""
    pred, gt = track_dicts(pred), track_dicts(gt)
    total_gt = sum(len(per) for per in gt.keypoints.values())
    frames = sorted({f for per in (*gt.keypoints.values(), *pred.keypoints.values()) for f in per})
    errors = []
    for f in frames:
        gt_poses = [per[f] for _, per in sorted(gt.keypoints.items()) if f in per]
        pred_poses = [per[f] for _, per in sorted(pred.keypoints.items()) if f in per]
        if not gt_poses or not pred_poses:
            continue
        cost = np.empty((len(gt_poses), len(pred_poses)))
        for i, gp in enumerate(gt_poses):
            for j, pp in enumerate(pred_poses):
                cost[i, j] = 1000.0 * float(np.mean(np.linalg.norm(gp - pp, axis=1)))
        rows, cols = linear_sum_assignment(cost)
        errors += [cost[i, j] for i, j in zip(rows, cols) if cost[i, j] <= recall_at]
    errors = np.array(errors)
    ap = {float(d): 100.0 * float((errors <= d).sum()) / total_gt for d in ap_thresholds}
    mpjpe = float(errors.mean()) if errors.size else float("nan")
    return ap, 100.0 * errors.size / total_gt, mpjpe


def loop_frame_pose_metrics(pred, gt, ap_thresholds=(25.0, 50.0, 100.0, 150.0), recall_at=500.0):
    """``mvfuse.metrics.pose_metrics`` in its earlier per-frame form: each
    frame's MPJPE matrix from one ``np.linalg.norm`` over the (x, y, z) axis,
    each frame's matching solved by scipy."""
    g_has, p_has = gt.has_keypoints, pred.has_keypoints
    total_gt, total_pred = int(g_has.sum()), int(p_has.sum())
    frames = np.intersect1d(gt.frame[g_has], pred.frame[p_has])
    bounds = [
        (np.searchsorted(t.frame, frames, "left"), np.searchsorted(t.frame, frames, "right"))
        for t in (gt, pred)
    ]
    matched = []
    for a, b, c, d in zip(*bounds[0], *bounds[1]):
        gt_poses, pred_poses = gt.keypoints[a:b][g_has[a:b]], pred.keypoints[c:d][p_has[c:d]]
        diff = gt_poses[:, None] - pred_poses[None]
        cost = 1000.0 * np.linalg.norm(diff, axis=-1).mean(axis=-1)
        rows, cols = linear_sum_assignment(cost)
        errors = cost[rows, cols]
        matched.append(errors[errors <= recall_at])
    errors = np.concatenate(matched) if matched else np.zeros(0)
    return PoseMetrics(
        ap={float(d): 100.0 * float((errors <= d).sum()) / total_gt for d in ap_thresholds},
        recall=100.0 * errors.size / total_gt,
        mpjpe=float(errors.mean()) if errors.size else float("nan"),
        recall_at=float(recall_at),
        num_gt_poses=total_gt,
        num_pred_poses=total_pred,
    )


def loop_generate(spec):
    """(annotations, ground truth) of ``mvfuse.synth.generate``, rendered one
    (frame, object, camera) at a time: per frame, one outline call per camera
    (row by row where it raises), then for each object and camera in turn
    4 box noise values and 2 per joint in front of the camera. The scene
    layout (cameras, placement, motion) comes from the package."""
    from mvfuse.errors import GeometryError
    from mvfuse.geometry import in_front, project_ellipsoid_to_bbox, project_point
    from mvfuse.pose import canonical_pose, scaled_offsets
    from mvfuse.synth import _build_cameras, _place_objects, _plan_motion
    from mvfuse.tracks import AnnotationTable, TrackTable

    def outline(cam, centers, half_axes):
        try:
            return project_ellipsoid_to_bbox(cam, centers, half_axes)
        except GeometryError:
            out = np.full((len(centers), 4), np.nan)
            for i, (center, half) in enumerate(zip(centers, half_axes)):
                try:
                    out[i] = project_ellipsoid_to_bbox(cam, center, half)
                except GeometryError:
                    pass
            return out

    def joint_pixels(cam, joints):
        front = in_front(cam, joints)
        uv = np.zeros(joints.shape[:-1] + (2,))
        uv[front] = project_point(cam, joints[front])
        return front, uv

    def occluded(k, cid, o):
        return any(
            cid == occ.camera_id and occ.start <= k < occ.stop
            and (occ.object_id is None or o == occ.object_id)
            for occ in spec.occlusions
        )

    rng = np.random.default_rng(spec.seed)
    cams = _build_cameras(spec)
    starts, half_axes = _place_objects(spec, rng)
    ground = _plan_motion(spec, rng, starts)
    skeleton = canonical_pose(spec.skeleton) if spec.skeleton else None
    offsets = (
        np.stack([scaled_offsets(skeleton, half_axes[o]) for o in range(spec.num_objects)])
        if skeleton is not None and spec.num_objects
        else None
    )
    width, height = spec.image_size
    noise = spec.pixel_noise
    J = skeleton.num_joints if skeleton is not None else 0
    no_box, no_kp = np.full(4, np.nan), np.full((J, 3), np.nan)
    gt_pos, gt_kp, keys, boxes, kps = [], [], [], [], []
    for k in range(spec.frames):
        centers = np.column_stack([ground[k], half_axes[:, 2]])
        joints = offsets + centers[:, None, :] if offsets is not None else None
        outlines = {cid: outline(cam, centers, half_axes) for cid, cam in cams.items()}
        gt_pos.append(centers)
        if joints is not None:
            gt_kp.append(joints)
            pixels = {cid: joint_pixels(cam, joints) for cid, cam in cams.items()}
        for o in range(spec.num_objects):
            for cid in cams:
                if occluded(k, cid, o) or np.isnan(outlines[cid][o, 0]):
                    continue
                vals = outlines[cid][o] + rng.normal(0.0, noise, 4) if noise else outlines[cid][o]
                box = np.concatenate([np.minimum(vals[:2], vals[2:]), np.maximum(vals[:2], vals[2:])])
                if not (box[:2] >= 0).all() or box[2] > width or box[3] > height:
                    box = no_box
                rows = no_kp
                if joints is not None:
                    front, joint_uv = pixels[cid]
                    uv = joint_uv[o][front[o]]
                    if noise:
                        uv = uv + rng.normal(0.0, noise, uv.shape)
                    visible = (0 <= uv[:, 0]) & (uv[:, 0] <= width) & (0 <= uv[:, 1]) & (uv[:, 1] <= height)
                    if visible.any():
                        rows = np.zeros((J, 3))
                        rows[front[o]] = np.column_stack([uv, visible])
                if box is not no_box or rows is not no_kp:
                    keys.append((k, o, cid))
                    boxes.append(box)
                    kps.append(rows)

    frame, oid, cid = np.array(keys, dtype=np.int64).reshape(-1, 3).T
    annotations = AnnotationTable(
        frame, oid, cid,
        bbox=np.array(boxes).reshape(-1, 4),
        keypoints=np.array(kps).reshape(-1, J, 3) if J else None,
    )
    n = spec.num_objects
    gt = TrackTable(
        frame=np.repeat(np.arange(spec.frames), n),
        object_id=np.tile(np.arange(n), spec.frames),
        position=np.concatenate(gt_pos),
        half_axes=np.tile(half_axes, (spec.frames, 1)),
        keypoints=np.concatenate(gt_kp) if gt_kp else None,
    )
    return annotations, gt


def loop_constant_velocity(spec, rng, starts):
    """The (frames, num_objects, 2) ground positions of ``mvfuse.synth``'s
    constant-velocity motion, stepped one frame at a time: the same draws
    and velocity, each position the one before plus ``vel * dt``."""
    dt = 1.0 / spec.fps
    bound = np.array([0.48 * spec.arena[0], 0.48 * spec.arena[1]])
    out = np.empty((spec.frames, spec.num_objects, 2))
    for o, start in enumerate(starts):
        heading = rng.uniform(0.0, 2.0 * np.pi)
        speed = rng.uniform(0.3, 0.9)
        vel = speed * np.array([np.cos(heading), np.sin(heading)])
        end = start + vel * dt * (spec.frames - 1)
        if np.any(np.abs(end) > bound):
            vel = -vel
            end = start + vel * dt * (spec.frames - 1)
        if np.any(np.abs(end) > bound):
            vel = vel / (np.max(np.abs(end) / bound) * 1.05)
        pos = start.copy()
        for k in range(spec.frames):
            out[k, o] = pos
            pos = pos + vel * dt
    return out


# --- the box step, in its earlier form ---------------------------------------
# The stacked UKF box update as it was before its per-call overhead was cut:
# the same arithmetic in the same order, so results must agree bit for bit.

_LOOP_ROWS = np.array([0, 1, 0, 1, 2, 0])
_LOOP_COLS = np.array([0, 1, 2, 2, 2, 1])
_LOOP_JITTER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)


def _loop_affine(points, A, b):
    return (
        points[..., 0:1] * A[:, 0]
        + points[..., 1:2] * A[:, 1]
        + points[..., 2:3] * A[:, 2]
        + b
    )


def _loop_first_bad(mask):
    i = tuple(map(int, np.unravel_index(int(np.argmax(mask)), mask.shape)))
    return i, ("" if not i else f" at row {i[0] if len(i) == 1 else i}")


def loop_project_ellipsoid_to_bbox(cam, center, half_axes):
    """Outline boxes (..., 4) of ellipsoids (..., 3), built from the
    projection matrix on every call."""
    from mvfuse.errors import DegenerateConic, NonPositiveDepth

    X = np.asarray(center, dtype=np.float64)
    half = np.asarray(half_axes, dtype=np.float64)
    if (half <= 0).any():
        raise ValueError(f"half_axes must be positive, got {half.tolist()}")
    P = cam.projection_matrix
    M = P[:, :3]
    w = _loop_affine(X, M, P[:, 3])
    bad = w[..., 2] <= 1e-9
    if bad.any():
        i, where = _loop_first_bad(bad)
        raise NonPositiveDepth(f"ellipsoid center depth {w[..., 2][i]:.3e}{where}")
    C = _loop_affine(
        half * half, M[_LOOP_ROWS] * M[_LOOP_COLS], -w[..., _LOOP_ROWS] * w[..., _LOOP_COLS]
    )
    c22 = C[..., 4:5]
    bad = np.abs(c22[..., 0]) < 1e-12 * np.maximum(1.0, np.abs(C).max(axis=-1))
    if bad.any():
        _, where = _loop_first_bad(bad)
        raise DegenerateConic(f"outline conic degenerate (C22 ~ 0){where}")
    center_uv = C[..., 2:4] / c22
    disc = center_uv * center_uv - C[..., 0:2] / c22
    bad = (disc <= 0).any(axis=-1)
    if bad.any():
        i, where = _loop_first_bad(bad)
        raise DegenerateConic(
            f"outline not a bounded ellipse (disc u, v = {disc[i].tolist()}){where}"
        )
    r = np.sqrt(disc)
    return np.concatenate([center_uv - r, center_uv + r], axis=-1)


def _loop_chol_with_jitter(mats, scale, failure, what):
    try:
        return np.linalg.cholesky(scale * mats)
    except np.linalg.LinAlgError:
        pass
    d = mats.shape[-1]
    out = np.empty_like(mats)
    for i, mat in enumerate(mats):
        base = float(np.trace(mat)) / d
        for eps in _LOOP_JITTER:
            m = mat if eps == 0.0 else mat + (eps * base) * np.eye(d)
            try:
                out[i] = np.linalg.cholesky(scale * m)
            except np.linalg.LinAlgError:
                continue
            break
        else:
            raise failure(f"{what} of row {i} not factorizable after jitter up to 1e-6 * trace/d")
    return out


def loop_sigma_points(mean, cov, alpha=0.1, beta=2.0, kappa=0.0):
    """Sigma points (n, 2d+1, d) and weights of the (n, d) mean and (n, d, d)
    covariance stack, the weights built on every call."""
    from mvfuse.errors import CholeskyFailure

    d = mean.shape[1]
    lam = alpha * alpha * (d + kappa) - d
    scale = d + lam
    L = _loop_chol_with_jitter(cov, scale, CholeskyFailure, "sigma-point covariance")
    center = mean[:, None, :]
    pts = np.empty((len(mean), 2 * d + 1, d))
    pts[:, :1] = center
    pts[:, 1 : d + 1] = center + L.swapaxes(-1, -2)
    pts[:, d + 1 :] = center - L.swapaxes(-1, -2)
    wm = np.full(2 * d + 1, 1.0 / (2.0 * scale))
    wc = wm.copy()
    wm[0] = lam / scale
    wc[0] = wm[0] + (1.0 - alpha * alpha + beta)
    return pts, wm, wc


def _loop_clamp_indefinite(cov):
    rows = []
    for i, mat in enumerate(cov):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            rows.append(i)
    w, V = np.linalg.eigh(cov[rows])
    neg = w[:, 0] < 0.0
    if np.any(neg):
        clamped = (V[neg] * np.clip(w[neg], 0.0, None)[:, None, :]) @ V[neg].swapaxes(-1, -2)
        cov[np.array(rows)[neg]] = 0.5 * (clamped + clamped.swapaxes(-1, -2))


def loop_ukf_update(mean, cov, measurement, h, noise, alpha=0.1, beta=2.0, kappa=0.0):
    """Posterior (mean, covariance) of the stacked UKF update: the moments
    of the measurement sigma rows taken once for the innovation covariance
    and again for the cross covariance."""
    from mvfuse.errors import (
        DivergentUpdate,
        GeometryError,
        SigmaPointProjectionFailure,
        SingularInnovation,
    )

    T = lambda a: a.swapaxes(-1, -2)  # noqa: E731
    z = np.atleast_2d(np.asarray(measurement, dtype=np.float64))
    if not np.all(np.isfinite(z)):
        raise ValueError("measurement contains non-finite values")
    R = np.asarray(noise, dtype=np.float64)
    X, wm, wc = loop_sigma_points(mean, cov, alpha, beta, kappa)
    try:
        Z = np.asarray(h(X), dtype=np.float64)
    except GeometryError as exc:
        raise SigmaPointProjectionFailure(f"sigma points failed measurement map: {exc}") from exc
    if not np.all(np.isfinite(Z)):
        raise SigmaPointProjectionFailure("measurement map gave non-finite values")
    z_hat = wm @ Z
    dZ = Z - z_hat[..., None, :]
    S = T(dZ) @ (wc[:, None] * dZ)
    S = 0.5 * (S + T(S)) + R
    dX = X - mean[:, None, :]
    Cxz = T(dX) @ (wc[:, None] * (Z - z_hat[:, None, :]))
    L = _loop_chol_with_jitter(S, 1.0, SingularInnovation, "innovation covariance")
    K = T(np.linalg.solve(T(L), np.linalg.solve(L, T(Cxz))))
    post_mean = mean + (K @ (z - z_hat)[..., None])[..., 0]
    post_cov = cov - K @ S @ T(K)
    post_cov = 0.5 * (post_cov + T(post_cov))
    if not (np.all(np.isfinite(post_mean)) and np.all(np.isfinite(post_cov))):
        raise DivergentUpdate("update overflowed to a non-finite posterior")
    try:
        np.linalg.cholesky(post_cov)
    except np.linalg.LinAlgError:
        _loop_clamp_indefinite(post_cov)
    return post_mean, post_cov


# --- JSONL reader, one record at a time ---------------------------------------
# ``mvfuse.io._read_jsonl`` in its earlier form: every record checked on its
# own as it is read, keypoint records converted _CHUNK at a time.


def _loop_float_rows(rows, n: int, path: str, lines: Iterable, what: str) -> np.ndarray:
    """Rows of ``n`` finite numbers as one (len(rows), n) array, checked in
    one pass; a list that fails is read row by row by ``_float_list``,
    which names the first bad row and its entry of ``lines`` (one line per
    row, read only then)."""
    if (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {n}
        and set(map(type, chain.from_iterable(rows))) <= {float, int}
    ):
        try:
            arr = np.array(rows, dtype=np.float64)
        except OverflowError:  # an int too large for a float
            arr = None
        if arr is not None and np.isfinite(arr).all():
            return arr
    return np.array([_float_list(r, n, path, at, what) for r, at in zip(rows, lines)])


def _loop_iter_jsonl(path, key) -> Iterable[tuple[int, dict]]:
    """The (line number, record) of each non-blank line. orjson reads an
    integer outside [-2**63, 2**64) as a float, so a record whose ``key``
    field comes back a float is read again by ``json.loads``, which gives the
    integer the key check refuses."""
    spath = str(path)
    # Lines are read as they come, so the file is never held whole. A line
    # ends at "\n", "\r\n" or "\r"; str.splitlines() would also end one at a
    # U+2028 inside a string.
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.isspace():
                    continue
                try:
                    record = orjson.loads(line)
                except orjson.JSONDecodeError:
                    record = _json_loads(line, spath, lineno)
                if not isinstance(record, dict):
                    raise ParseError(spath, lineno, "record must be a JSON object")
                if float in {type(record.get(f)) for f in key}:
                    record = _json_loads(line, spath, lineno)
                yield lineno, record
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(spath, None, f"cannot read: {exc}") from exc


def loop_read_jsonl(path, table, key, columns, required, missing, duplicate):
    """Read ``table`` from JSONL, records in any line order, checked as
    ``mvfuse.io`` describes. ``key`` names a row's integer fields; ``columns``
    maps each payload field to its row width (None: keypoints, (J, 3)). A
    record needs one of the ``required`` fields, else it is refused with
    ``missing``; the records of one key merge into one row, and a field given
    twice for a row is refused with ``duplicate``, formatted with the key and
    ``column``. Keypoint records are converted ``_CHUNK`` at a time; a pending
    chunk is checked before a later line's fault is raised, so faults still
    come in line order."""
    spath = str(path)
    row_of: dict[tuple[int, ...], int] = {}  # key -> row, in first-seen order
    given = {c: {} for c in columns}  # column -> {row: line}, in line order
    values = {c: [] for c in columns}  # column -> the values of `given`
    joints: tuple[int, int] | None = None  # (keypoint rows per record, first line)
    kp_column = next((c for c, width in columns.items() if width is None), None)
    pending: list[tuple[list, int]] = []  # (keypoints, line) not yet converted

    def convert() -> None:
        """Check the pending keypoint records and append them to ``values``
        as one (m, J, 3) array."""
        recs, pending[:] = pending[:], []
        if recs:
            rows = list(chain.from_iterable(v for v, _ in recs))
            lines = chain.from_iterable(repeat(at, len(v)) for v, at in recs)
            arr = _loop_float_rows(rows, 3, spath, lines, "keypoint row")
            values[kp_column].append(arr.reshape(len(recs), -1, 3))

    try:
        for lineno, rec in _loop_iter_jsonl(path, key):
            k = tuple(_integer(rec.get(f), spath, lineno, f) for f in key)
            if all(rec.get(c) is None for c in required):
                raise ParseError(spath, lineno, missing)
            row = row_of.setdefault(k, len(row_of))
            for c, width in columns.items():
                value = rec.get(c)
                if value is None:
                    continue
                if row in given[c]:
                    raise ValidationError(f"{spath}:{lineno}: " + duplicate.format(*k, column=c))
                given[c][row] = lineno
                if width is not None:
                    values[c].append(value)
                    continue
                if not isinstance(value, list) or not value:
                    raise ParseError(spath, lineno, f"{c} must be a non-empty list")
                joints = joints or (len(value), lineno)
                if len(value) != joints[0]:  # a bad row of the record is named first
                    _loop_float_rows(value, 3, spath, repeat(lineno), "keypoint row")
                    raise ParseError(
                        spath, lineno, f"{len(value)} keypoint rows, line {joints[1]} has {joints[0]}"
                    )
                pending.append((value, lineno))
                if len(pending) == _CHUNK:
                    convert()
    except (ParseError, ValidationError):
        convert()  # a keypoint fault on an earlier line comes first
        raise
    convert()
    keys = np.array(list(row_of), dtype=np.int64).reshape(-1, len(key)).T
    order = np.lexsort(keys[::-1])
    rank = np.argsort(order)  # first-seen row -> sorted row
    cols = dict(zip(key, keys[:, order]))
    for c, width in columns.items():
        rows = rank[list(given[c])]
        if width is not None:
            cols[c] = np.full((len(order), width), np.nan)
            lines = list(given[c].values())
            cols[c][rows] = _loop_float_rows(values[c], width, spath, lines, c).reshape(-1, width)
        elif joints is not None:
            # Each chunk's rows go straight to their sorted rows and are
            # dropped, so the load never holds a second, stacked copy.
            cols[c], chunks, lo = np.full((len(order), joints[0], 3), np.nan), values[c], 0
            for i, chunk in enumerate(chunks):
                cols[c][rows[lo : lo + len(chunk)]], chunks[i] = chunk, None
                lo += len(chunk)
    try:
        return table(**cols)
    except RowError as exc:
        # the line that gave the bad value; for a key, the row's first line
        row = int(order[exc.row])
        line = min(g[row] for c, g in given.items() if row in g and exc.column in (c, *key))
        raise ParseError(spath, line, exc.reason) from exc
