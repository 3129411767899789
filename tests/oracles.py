"""Independent reference implementations used to check the package.

Everything here is written from first principles with plain numpy so that a
bug in the package cannot hide in its own oracle: projection is spelled out
explicitly, the Kalman filter uses the standard closed-form equations, the
ellipsoid box comes from brute-force surface sampling or from the full 4x4
dual quadric, and the tracking metrics are scored one pair of objects and one
frame at a time. The ``loop_*`` box-step references are the exception: they
keep an earlier, plainer form of the package's own sigma points, conic box
and UKF update (column by column, no cached constants), so that a faster
form of the same arithmetic can be held to the same bits. So do
``loop_frame_clear_mot``, ``loop_frame_idf1``, ``loop_frame_pose_metrics``
and ``loop_frame_ospa2`` (one frame at a time) and
``loop_linear_sum_assignment`` (the assignment search from the first row)
for the metrics.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Iterable

import numpy as np
import orjson
from scipy.optimize import linear_sum_assignment

from mvfuse.errors import ParseError, ValidationError
from mvfuse.io import _float_list, _integer, _json_loads
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


def product_ground_homography(cam):
    """Ground homography ``K [r1 r2 t]`` as its own matrix product, with r1,
    r2 the first two columns of the rotation."""
    R = cam.rotation
    return cam.intrinsics @ np.column_stack([R[:, 0], R[:, 1], cam.translation])


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


def posterior_crb(annotations, cams, gt, config, eps=1e-6):
    """The posterior Cramér–Rao bound of box fusion on a synthetic scene
    (Tichavský, Muravchik & Nehorai, IEEE TSP 1998): ``{(frame, object id):
    trace of the position block of J⁻¹}``, the floor on the mean-square 3D
    position error (m²) of each tracked row for a filter whose prior is the
    birth covariance around the truth. The tracker's birth mean comes from
    the birth frame's boxes, which it then fuses again, so its error can sit
    below this bound: a gate on it is a regression check in its units.

    Each object starts at its first frame with a box, with J₀ the inverse of
    the birth covariance; the motion model is linear with additive noise,
    so each later frame takes J ← (Q + F J⁻¹ Fᵀ)⁻¹, and every frame adds
    Hᵀ R⁻¹ H for each camera with a box of the object. H is a central
    difference of ``tracker.bbox_measurement`` at the true state (the box
    does not depend on velocity, which is left at 0)."""
    from mvfuse.filter import POS, SHAPE, VEL, make_motion_model
    from mvfuse.tracker import bbox_measurement

    model = make_motion_model(config.dt, config.q_pos, config.q_shape)
    F, Q = model.transition, model.process_noise
    var = np.empty(9)
    var[POS], var[VEL], var[SHAPE] = config.init_pos_var, config.init_vel_var, config.init_shape_var
    h = {cid: bbox_measurement(cam) for cid, cam in cams.items()}
    steps = eps * np.eye(9)
    truth = {}
    for f, oid, p, a in zip(gt.frame.tolist(), gt.object_id.tolist(), gt.position, gt.half_axes):
        x = np.zeros(9)
        x[POS], x[SHAPE] = p, np.log(a)
        truth[f, oid] = x
    seen = {}  # object -> frame -> cameras with a box of it
    has = annotations.has_bbox
    for f, oid, cid in zip(*(c[has].tolist() for c in (
            annotations.frame, annotations.object_id, annotations.camera_id))):
        seen.setdefault(oid, {}).setdefault(f, []).append(cid)
    bound = {}
    for oid, per in seen.items():
        info = np.diag(1.0 / var)
        for f in range(min(per), max(per) + 1):
            if f > min(per):
                info = np.linalg.inv(Q + F @ np.linalg.inv(info) @ F.T)
            x = truth[f, oid]
            for cid in per.get(f, ()):
                z = h[cid](np.concatenate([x + steps, x - steps]))
                H = ((z[:9] - z[9:]) / (2.0 * eps)).T
                info = info + H.T @ H / config.r_bbox
            bound[f, oid] = float(np.trace(np.linalg.inv(info)[POS, POS]))
    return bound


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
            # Out-of-gate pairs cost more than any set of in-gate pairs, and
            # no more than the largest float.
            forbidden = float(threshold) * min(len(free_g), len(free_p)) + 1.0
            forbidden = min(forbidden, sys.float_info.max)
            cost = np.empty((len(free_g), len(free_p)))
            near = np.empty(cost.shape, dtype=bool)
            for i, g in enumerate(free_g):
                for j, p in enumerate(free_p):
                    d = _dist(gt_here[g], pred_here[p])
                    near[i, j] = d <= threshold
                    cost[i, j] = d if near[i, j] else forbidden
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if near[i, j]:
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


def _frame_bounds(t, frames):
    lo, hi = (np.searchsorted(t.frame, frames, side).tolist() for side in ("left", "right"))
    return list(zip(lo, hi))


def _frame_distance(a, b):
    with np.errstate(over="ignore"):
        d = a - b
        dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
        return np.sqrt(dx * dx + dy * dy + dz * dz)


def loop_frame_clear_mot(pred, gt, threshold=1.0):
    """``mvfuse.metrics.clear_mot`` in its earlier per-frame form: each
    frame's rows sorted by first-appearance rank, pred ranks mapped to
    columns through a dict, each frame's free block solved by scipy."""

    def first_appearance(t):
        _, first, index = np.unique(t.object_id, return_index=True, return_inverse=True)
        return np.argsort(np.argsort(first))[index]

    def by_rank(t, rank, rows):
        order = np.argsort(rank[rows[0]:rows[1]]) + rows[0]
        return rank[order].tolist(), t.position[order]

    g_rank, p_rank = first_appearance(gt), first_appearance(pred)
    frames = np.unique(np.concatenate((gt.frame, pred.frame)))
    fp = fn = ids = 0
    last_known = {}
    for g_rows, p_rows in zip(_frame_bounds(gt, frames), _frame_bounds(pred, frames)):
        (gi, gv), (pi, pv) = by_rank(gt, g_rank, g_rows), by_rank(pred, p_rank, p_rows)
        col = {p: j for j, p in enumerate(pi)}
        kept = [(i, col[last_known[g]]) for i, g in enumerate(gi) if last_known.get(g) in col]
        matches, taken = {}, set()
        if kept:
            d = _frame_distance(gv[[i for i, _ in kept]], pv[[j for _, j in kept]])
            for (i, j), dij in zip(kept, d.tolist()):
                if j not in taken and dij <= threshold:
                    matches[i] = j
                    taken.add(j)
        free_g = [i for i in range(len(gi)) if i not in matches]
        free_p = [j for j in range(len(pi)) if j not in taken]
        if free_g and free_p:
            cost = _frame_distance(gv[free_g][:, None], pv[free_p])
            cost[cost > threshold] = threshold * min(cost.shape) + 1.0
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if cost[i, j] <= threshold:
                    matches[free_g[i]] = free_p[j]
        fn += len(gi) - len(matches)
        fp += len(pi) - len(matches)
        for i, j in matches.items():
            prev = last_known.get(gi[i])
            if prev is not None and prev != pi[j]:
                ids += 1
            last_known[gi[i]] = pi[j]
    return fp, fn, ids, 100.0 * (1.0 - (fp + fn + ids) / len(gt))


def loop_frame_idf1(pred, gt, threshold=1.0):
    """``mvfuse.metrics.idf1`` in its earlier per-frame form: each frame's
    distance matrix between the objects present, scattered into the overlap
    matrix with ``np.ix_``, the trajectory assignment solved by scipy."""
    if len(pred) == 0:
        return 0.0
    frames = np.unique(np.concatenate((gt.frame, pred.frame)))
    (g_ids, g_obj), (p_ids, p_obj) = (
        np.unique(t.object_id, return_inverse=True) for t in (gt, pred)
    )
    overlap = np.zeros((len(g_ids), len(p_ids)))
    for (a, b), (c, d) in zip(_frame_bounds(gt, frames), _frame_bounds(pred, frames)):
        D = _frame_distance(gt.position[a:b, None], pred.position[None, c:d])
        overlap[np.ix_(g_obj[a:b], p_obj[c:d])] += D <= threshold
    rows, cols = linear_sum_assignment(-overlap)
    return 100.0 * 2.0 * overlap[rows, cols].sum() / (len(gt) + len(pred))


def loop_frame_ospa2(pred, gt, cutoff=1.0, order=1.0, window=None):
    """``mvfuse.metrics.ospa2`` in its earlier per-frame form: each frame's
    dense (n, m) step of cut-off distances added into the per-pair sums in
    frame order; the same bottleneck unit and final assignment, each
    assignment solved by scipy."""
    frames = np.unique(np.concatenate((pred.frame, gt.frame)))
    if window is not None:
        frames = frames[-window:]
    objects = []
    for t in (gt, pred):
        start = int(np.searchsorted(t.frame, frames[0])) if frames.size else len(t)
        ids, index = np.unique(t.object_id[start:], return_inverse=True)
        lo, hi = (np.searchsorted(t.frame, frames, side) for side in ("left", "right"))
        rows = [(index[a - start:b - start], t.position[a:b]) for a, b in zip(lo, hi)]
        objects.append((len(ids), rows))
    (n, g_rows), (m, p_rows) = objects
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return float(cutoff)
    total = np.zeros((n, m))
    seen = np.zeros((n, m), dtype=np.int64)
    for (gi, gp), (pi, pp) in zip(g_rows, p_rows):
        with np.errstate(over="ignore"):
            dx, dy, dz = np.moveaxis(gp[:, None] - pp[None], -1, 0)
            d = np.sqrt(dx * dx + dy * dy + dz * dz)
        step = np.zeros((n, m))
        step[gi, :] = step[:, pi] = cutoff
        step[np.ix_(gi, pi)] = np.minimum(cutoff, d)
        total += step
        seen[gi, :] += 1
        seen[:, pi] += 1
        seen[np.ix_(gi, pi)] -= 1
    D = (total / seen).T / cutoff
    scale = 1.0
    if m == n:  # the bottleneck value, by binary search over the entries
        values = np.unique(D)
        lo, hi = 0, len(values) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            rows, cols = linear_sum_assignment((D > values[mid]).astype(np.float64))
            if (D[rows, cols] > values[mid]).any():
                lo = mid + 1
            else:
                hi = mid
        scale = float(values[lo])
    if not 0.0 < scale < 1.0:
        scale = 1.0
    with np.errstate(over="ignore"):
        P = (D / scale) ** order
    rows, cols = linear_sum_assignment(P)
    cost = float(P[rows, cols].sum()) + (max(m, n) - min(m, n))
    return cutoff * float(scale) * float((cost / max(m, n)) ** (1.0 / order))


def loop_linear_sum_assignment(cost):
    """``mvfuse.metrics.linear_sum_assignment`` in its earlier form: scipy's
    ``rectangular_lsap`` search in Python floats, run from the first row with
    every dual zero, however many leading rows are uncontested."""
    cost = np.asarray(cost, dtype=np.float64)
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    if nr == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    c = cost.tolist()
    inf = math.inf
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur_row in range(nr):
        remaining = list(range(nc - 1, -1, -1))
        spc = [inf] * nc
        rows_seen, cols_seen = [], []
        min_val, i, sink = 0.0, cur_row, -1
        while sink < 0:
            rows_seen.append(i)
            ci, ui = c[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r, s = min_val + ci[j] - ui - v[j], spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        cols = np.array(col4row, dtype=np.int64)
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(nr, dtype=np.int64), np.array(col4row, dtype=np.int64)

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
    bad = ~(w[..., 2] > 1e-9)  # NaN is bad
    if bad.any():
        i, where = _loop_first_bad(bad)
        raise NonPositiveDepth(f"ellipsoid center depth {w[..., 2][i]:.3e}{where}")
    C = _loop_affine(
        half * half, M[_LOOP_ROWS] * M[_LOOP_COLS], -w[..., _LOOP_ROWS] * w[..., _LOOP_COLS]
    )
    c22 = C[..., 4:5]
    bad = ~(np.abs(c22[..., 0]) >= 1e-12 * np.maximum(1.0, np.abs(C).max(axis=-1)))
    if bad.any():
        i, where = _loop_first_bad(bad)
        if not np.isfinite(C[i]).all():
            raise DegenerateConic(f"outline conic overflows{where}")
        raise DegenerateConic(f"outline conic degenerate (C22 ~ 0){where}")
    center_uv = C[..., 2:4] / c22
    disc = center_uv * center_uv - C[..., 0:2] / c22
    bad = ~(disc > 0).all(axis=-1)
    if bad.any():
        i, where = _loop_first_bad(bad)
        if not np.isfinite(C[i]).all():
            raise DegenerateConic(f"outline conic overflows{where}")
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
# ``mvfuse.io._read_jsonl`` in its earlier form: every record checked whole, on
# its own, as it is read.


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


def loop_read_jsonl(path, table, missing, duplicate):
    """Read the table class ``table`` from JSONL, records in any line order,
    checked as ``mvfuse.io`` describes. The class's ``KEY`` names a row's
    integer fields; its ``COLUMNS`` maps each payload field to its row width
    (None: keypoints, (J, 3)). A record needs one of its ``REQUIRED`` fields,
    else it is refused with ``missing``; the records of one key merge into
    one row, and a field given twice for a row is refused with ``duplicate``,
    formatted with the key and ``column``. Each value is checked where its
    record is read, so faults come in line order."""
    spath, key, columns, required = str(path), table.KEY, table.COLUMNS, table.REQUIRED
    row_of: dict[tuple[int, ...], int] = {}  # key -> row, in first-seen order
    given = {c: {} for c in columns}  # column -> {row: line}, in line order
    values = {c: [] for c in columns}  # column -> the checked values of `given`
    joints: tuple[int, int] | None = None  # (keypoint rows per record, first line)
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
                values[c].append(_float_list(value, width, spath, lineno, c))
                continue
            if not isinstance(value, list) or not value:
                raise ParseError(spath, lineno, f"{c} must be a non-empty list")
            # a bad row of the record is named before its row count
            values[c].append([_float_list(r, 3, spath, lineno, "keypoint row") for r in value])
            joints = joints or (len(value), lineno)
            if len(value) != joints[0]:
                raise ParseError(
                    spath, lineno, f"{len(value)} keypoint rows, line {joints[1]} has {joints[0]}"
                )
    keys = np.array(list(row_of), dtype=np.int64).reshape(-1, len(key)).T
    order = np.lexsort(keys[::-1])
    rank = np.argsort(order)  # first-seen row -> sorted row
    cols = dict(zip(key, keys[:, order]))
    for c, width in columns.items():
        if width is None and joints is None:
            continue
        row = (width,) if width else (joints[0], 3)
        cols[c] = np.full((len(order), *row), np.nan)
        cols[c][rank[list(given[c])]] = np.array(values[c]).reshape(-1, *row)
    try:
        return table(**cols)
    except RowError as exc:
        # the line that gave the bad value; for a key, the row's first line
        row = int(order[exc.row])
        line = min(g[row] for c, g in given.items() if row in g and exc.column in (c, *key))
        raise ParseError(spath, line, exc.reason) from exc
