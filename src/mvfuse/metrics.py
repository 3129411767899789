"""Track-level and pose-level evaluation.

All association gates and the OSPA cutoff are in meters; MOTA/IDF1/recall/AP
are percentages; MPJPE and the pose thresholds are in millimeters. Euclidean
distance throughout (use ``evaluate_tracks(plane=True)`` to score on the
ground plane only).

Every metric is defined frame by frame and works on arrays, one frame at a
time: a track table is sorted by (frame, object id), so each frame's objects
are one block of rows, found with ``searchsorted``. IDF1 and OSPA(2) take one
gt x pred distance matrix per frame (IDF1 adds its in-gate hits into a
trajectory overlap matrix, OSPA(2) its cut-off distances into per-pair sums,
in frame order); pose metrics one MPJPE matrix; CLEAR MOT the distances of the
pairs it tests: each object's last match, then the block it assigns. Working
memory stays per frame.

Distances are ``sqrt(dx*dx + dy*dy + dz*dz)``, summed in that order. Pose
metrics take the (x, y, z) coordinate planes of the poses once, so each
frame's MPJPE matrix is that sum over (n, m, J) planes, averaged over the
joints: the bits ``np.linalg.norm(axis=-1)`` gives, without its strided
reduction. The assignment solver returns each row's strict minimum at once
when those minima lie in distinct columns, which is the assignment its
search would find; the search runs only on matrices where rows compete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyGroundTruth
from .tracks import TrackTable


def _unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``values``, as ``np.unique(values)`` gives
    them. A return flag keeps numpy on its sort path: flagless ``np.unique``
    (and ``np.union1d``, ``np.intersect1d``) import ``numpy.ma``."""
    return np.unique(values, return_index=True)[0]


def _strict_minima(cost: np.ndarray) -> np.ndarray | None:
    """The column of each row's minimum, if every row of ``cost`` has one
    strict, finite minimum and no two rows share its column; else None.

    Then this is what :func:`_shortest_paths` returns. Each row's first scan
    meets reduced costs equal to its costs, so it ends at the row's minimum,
    a free column; and a scan that ends at once moves no column dual, so the
    next row's reduced costs are its costs too."""
    col = cost.argmin(axis=1)
    low = cost[np.arange(len(cost)), col]
    if not (np.isfinite(low).all() and ((cost == low[:, None]).sum(axis=1) == 1).all()):
        return None
    taken = np.sort(col)
    return col if (taken[1:] != taken[:-1]).all() else None


def _shortest_paths(cost: np.ndarray) -> list[int]:
    """The column of each row of ``cost`` (no taller than it is wide) by
    shortest augmenting paths, one row at a time, as scipy's
    ``rectangular_lsap`` finds it."""
    nr, nc = cost.shape
    c = cost.tolist()
    inf = np.inf
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur_row in range(nr):
        # Shortest augmenting path from cur_row to a free column. Columns
        # are scanned from the end, so a constant matrix gives the identity.
        remaining = list(range(nc - 1, -1, -1))
        spc = [inf] * nc  # shortest path cost to each column
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
    return col4row


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of a rectangular cost matrix: ``(rows, cols)``,
    rows ascending, one pair per row or per column, whichever are fewer.

    A port of scipy's ``linear_sum_assignment`` (``rectangular_lsap``):
    Crouse's shortest augmenting path form of Jonker-Volgenant (D. F. Crouse,
    "On implementing 2D rectangular assignment algorithms", IEEE Trans.
    Aerospace and Electronic Systems 52(4), 2016). It does scipy's work in
    scipy's order, in Python floats: a tall matrix is transposed, each row
    gets one augmenting path, the duals are updated with the same operations,
    and of equal reduced costs the scan takes a free column, the last one it
    meets. So it returns scipy's ``(rows, cols)`` on every input, ties
    included, and raises the same ``ValueError``s. When each row's strict
    minimum lies in a column of its own, that is the assignment, and it is
    returned without the search (:func:`_strict_minima`).

    Raises
    ------
    ValueError
        If ``cost`` is not 2-D, contains NaN or -inf, or has no assignment
        of finite cost.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got a {cost.ndim} array")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr = len(cost)
    if nr == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    col4row = _strict_minima(cost)
    if col4row is None:
        col4row = _shortest_paths(cost)
    if transpose:
        cols = np.array(col4row, dtype=np.int64)
        order = np.argsort(cols)
        return cols[order], order
    return np.arange(nr, dtype=np.int64), np.array(col4row, dtype=np.int64)


class ClearMotResult(NamedTuple):
    fp: int
    fn: int
    ids: int
    mota: float


@np.errstate(over="ignore")
def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances along the last (x, y, z) axis of ``a - b``, as
    ``sqrt(dx*dx + dy*dy + dz*dz)`` in that order, one rounding per step: no
    BLAS kernel (whose FMA chains differ between builds) decides the last
    bit, so scores do not depend on the machine. A distance that overflows
    is inf, beyond every gate, so its pair is never a match."""
    dx, dy, dz = np.moveaxis(a - b, -1, 0)
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _bounds(frame: np.ndarray, frames: np.ndarray) -> list[tuple[int, int]]:
    """The rows ``lo:hi`` of the sorted column ``frame`` at each of ``frames``."""
    lo, hi = (np.searchsorted(frame, frames, side).tolist() for side in ("left", "right"))
    return list(zip(lo, hi))


def _objects(t: TrackTable, frames: np.ndarray):
    """The objects of ``t`` with a row at ``frames`` (ascending, and every
    frame of ``t`` from ``frames[0]`` on): their number, and per frame the
    index of each row's object among their sorted ids, with the rows."""
    start = int(np.searchsorted(t.frame, frames[0])) if frames.size else len(t)
    ids, index = np.unique(t.object_id[start:], return_inverse=True)
    return len(ids), [(index[a - start:b - start], slice(a, b)) for a, b in _bounds(t.frame, frames)]


def _frame_distances(pred: TrackTable, gt: TrackTable, frames: np.ndarray):
    """The object counts of ``_objects`` for gt and pred, then for each of
    ``frames``: gt objects, pred objects and the gt x pred distance matrix."""
    (n, g_rows), (m, p_rows) = _objects(gt, frames), _objects(pred, frames)
    blocks = (
        (gi, pi, _distance(gt.position[gs, None], pred.position[None, ps]))
        for (gi, gs), (pi, ps) in zip(g_rows, p_rows)
    )
    return n, m, blocks


def _first_appearance(t: TrackTable) -> np.ndarray:
    """Each row's object, ranked by first appearance: by frame, then id."""
    _, first, index = np.unique(t.object_id, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[index]


def clear_mot(pred: TrackTable, gt: TrackTable, threshold: float = 1.0) -> ClearMotResult:
    """CLEAR multi-object tracking scores with match persistence.

    Frame by frame, matches from the last known association are kept while
    both sides exist within the gate; remaining objects are matched by
    minimum-distance Hungarian assignment. An identity switch is counted
    when a ground-truth object is matched to a different prediction than its
    last known match. MOTA = 100 (1 - (FP + FN + IDS) / total GT detections).
    Within a frame, objects take part in the order of their first appearance
    (by frame, then id), which decides ties in the assignment.

    Raises
    ------
    ValueError
        If ``threshold`` is not positive.
    EmptyGroundTruth
        If ``gt`` contains no detections.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    total_gt = len(gt)
    if total_gt == 0:
        raise EmptyGroundTruth("ground truth has no detections")

    def by_rank(t: TrackTable, rank: np.ndarray, rows: tuple[int, int]):
        order = np.argsort(rank[rows[0]:rows[1]]) + rows[0]
        return rank[order].tolist(), t.position[order]

    g_rank, p_rank = _first_appearance(gt), _first_appearance(pred)
    frames = _unique(np.concatenate((gt.frame, pred.frame)))
    fp = fn = ids = 0
    last_known: dict[int, int] = {}  # gt rank -> pred rank
    for g_rows, p_rows in zip(_bounds(gt.frame, frames), _bounds(pred.frame, frames)):
        (gi, gv), (pi, pv) = by_rank(gt, g_rank, g_rows), by_rank(pred, p_rank, p_rows)
        col = {p: j for j, p in enumerate(pi)}
        # Distances of the pairs tested only: last matches, then the free block.
        kept = [(i, col[last_known[g]]) for i, g in enumerate(gi) if last_known.get(g) in col]
        matches: dict[int, int] = {}  # index into gi -> index into pi
        taken: set[int] = set()
        if kept:
            d = _distance(gv[[i for i, _ in kept]], pv[[j for _, j in kept]])
            for (i, j), dij in zip(kept, d.tolist()):
                if j not in taken and dij <= threshold:
                    matches[i] = j
                    taken.add(j)
        free_g = [i for i in range(len(gi)) if i not in matches]
        free_p = [j for j in range(len(pi)) if j not in taken]
        if free_g and free_p:
            cost = _distance(gv[free_g][:, None], pv[free_p])
            # Above any in-gate total, so the assignment matches as many
            # in-gate pairs as it can and then ranks them by distance exactly.
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
    mota = 100.0 * (1.0 - (fp + fn + ids) / total_gt)
    return ClearMotResult(fp=fp, fn=fn, ids=ids, mota=mota)


def idf1(pred: TrackTable, gt: TrackTable, threshold: float = 1.0) -> float:
    """Identity F1: trajectory-level assignment maximizing frames in which a
    ground-truth object and its assigned prediction coincide within the gate.

    With IDTP the total coinciding frames under the best one-to-one
    trajectory assignment, IDF1 = 100 * 2 IDTP / (total GT + total pred).

    Raises
    ------
    EmptyGroundTruth
        If ``gt`` contains no detections.
    """
    total_gt, total_pred = len(gt), len(pred)
    if total_gt == 0:
        raise EmptyGroundTruth("ground truth has no detections")
    if total_pred == 0:
        return 0.0

    n, m, blocks = _frame_distances(pred, gt, _unique(np.concatenate((gt.frame, pred.frame))))
    overlap = np.zeros((n, m))
    for gi, pi, D in blocks:
        overlap[np.ix_(gi, pi)] += D <= threshold
    rows, cols = linear_sum_assignment(-overlap)
    idtp = overlap[rows, cols].sum()
    return 100.0 * 2.0 * idtp / (total_gt + total_pred)


def _bottleneck(D: np.ndarray) -> float:
    """The least t for which some assignment of the square matrix ``D`` uses
    only entries <= t: a binary search over the entries, one 0/1 assignment
    per step."""
    values = _unique(D)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        rows, cols = linear_sum_assignment((D > values[mid]).astype(np.float64))
        if (D[rows, cols] > values[mid]).any():
            lo = mid + 1
        else:
            hi = mid
    return float(values[lo])


def ospa2(
    pred: TrackTable,
    gt: TrackTable,
    cutoff: float = 1.0,
    order: float = 1.0,
    window: int | None = None,
) -> float:
    """OSPA distance between sets of tracks (OSPA-on-OSPA construction).

    Each pair of tracks gets a time-averaged base distance over the frames
    where at least one of the two exists: per frame the cutoff when only
    one exists, min(cutoff, Euclidean distance) when both do. The track sets
    are then compared with an OSPA of the same cutoff and order, so
    unmatched tracks pay the full cutoff. The result lives in [0, cutoff];
    identical sets score 0.

    ``window`` restricts scoring to the last ``window`` frames of the union
    timeline; the default uses every frame. Only tracks with an entry in the
    scored frames take part.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    frames = _unique(np.concatenate((pred.frame, gt.frame)))
    if window is not None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        frames = frames[-window:]

    n, m, blocks = _frame_distances(pred, gt, frames)
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return float(cutoff)

    # Each pair's sum takes its terms in frame order (adding 0.0 where neither
    # track exists changes nothing), so it is the frame-by-frame sum exactly.
    total = np.zeros((n, m))
    seen = np.zeros((n, m), dtype=np.int64)
    for gi, pi, d in blocks:
        step = np.zeros((n, m))
        step[gi, :] = step[:, pi] = cutoff
        step[np.ix_(gi, pi)] = np.minimum(cutoff, d)
        total += step
        seen[gi, :] += 1
        seen[:, pi] += 1
        seen[np.ix_(gi, pi)] -= 1
    # In units of the cutoff, every cost is at most 1: a high order can
    # neither overflow nor underflow an unmatched track's cost. With every
    # track matched, the bottleneck value is the unit instead when it is
    # below 1: some assignment then has every scaled cost at most 1, and
    # every assignment has one at least 1, so the chosen one can neither
    # overflow nor underflow to 0. Costs above the unit may overflow to inf,
    # and are never chosen.
    D = (total / seen).T / cutoff  # every track is present somewhere, so seen > 0
    scale = _bottleneck(D) if m == n else 1.0
    if not 0.0 < scale < 1.0:
        scale = 1.0
    with np.errstate(over="ignore"):
        P = (D / scale) ** order
    rows, cols = linear_sum_assignment(P)
    cost = float(P[rows, cols].sum())
    big = max(m, n)
    cost += big - min(m, n)
    return cutoff * float(scale) * float((cost / big) ** (1.0 / order))


@dataclass(frozen=True)
class PoseMetrics:
    """Keypoint scores: AP per threshold (mm), recall, and matched MPJPE."""

    ap: dict[float, float]
    recall: float
    mpjpe: float
    recall_at: float
    num_gt_poses: int
    num_pred_poses: int


def pose_metrics(
    pred: TrackTable,
    gt: TrackTable,
    ap_thresholds: Sequence[float] = (25.0, 50.0, 100.0, 150.0),
    recall_at: float = 500.0,
) -> PoseMetrics:
    """Score predicted 3D poses against ground truth.

    Poses are matched per frame by Hungarian assignment on MPJPE (mean
    per-joint Euclidean distance, reported in millimeters); assignments
    beyond ``recall_at`` mm do not count as matches. AP@d is the percentage
    of ground-truth poses matched within d mm; recall is AP at ``recall_at``;
    MPJPE averages over matched poses.

    Raises
    ------
    EmptyGroundTruth
        If ``gt`` has no keypoint annotations.
    """
    g_has, p_has = gt.has_keypoints, pred.has_keypoints
    total_gt, total_pred = int(g_has.sum()), int(p_has.sum())
    if total_gt == 0:
        raise EmptyGroundTruth("ground truth has no keypoints")

    g_frames, p_frames = gt.frame[g_has], pred.frame[p_has]
    frames = np.intersect1d(g_frames, p_frames, return_indices=True)[0]
    if frames.size and gt.keypoints.shape[1:] != pred.keypoints.shape[1:]:
        raise ValueError(
            f"keypoint count mismatch at frame {frames[0]}: "
            f"{gt.keypoints.shape[1:]} vs {pred.keypoints.shape[1:]}"
        )
    matched: list[np.ndarray] = []
    if frames.size:
        # The (3, n, J) coordinate planes of the poses, in row order.
        G, P = (np.ascontiguousarray(np.moveaxis(t.keypoints[has], -1, 0))
                for t, has in ((gt, g_has), (pred, p_has)))
    for (a, b), (c, d) in zip(_bounds(g_frames, frames), _bounds(p_frames, frames)):
        with np.errstate(over="ignore"):
            dx, dy, dz = G[:, a:b, None] - P[:, None, c:d]
            cost = 1000.0 * np.sqrt(dx * dx + dy * dy + dz * dz).mean(axis=-1)
        # A pair whose MPJPE overflows is never a match: its error stays inf,
        # and the solver takes it as dearer than all finite pairs together.
        over = np.isinf(cost)
        rows, cols = linear_sum_assignment(
            np.where(over, cost[~over].sum() + 1.0, cost) if over.any() else cost
        )
        errors = cost[rows, cols]
        matched.append(errors[errors <= recall_at])

    errors = np.concatenate(matched) if matched else np.zeros(0)
    ap = {
        float(d): 100.0 * float((errors <= d).sum()) / total_gt
        for d in ap_thresholds
    }
    recall = 100.0 * errors.size / total_gt
    mpjpe = float(errors.mean()) if errors.size else float("nan")
    return PoseMetrics(
        ap=ap,
        recall=recall,
        mpjpe=mpjpe,
        recall_at=float(recall_at),
        num_gt_poses=total_gt,
        num_pred_poses=total_pred,
    )


@dataclass(frozen=True)
class MetricReport:
    """Everything `evaluate_tracks` produces, JSON- and table-friendly."""

    mota: float
    idf1: float
    fp: int
    fn: int
    ids: int
    ospa: float
    pose: PoseMetrics | None
    threshold: float
    ospa_cutoff: float
    num_frames: int
    num_gt: int
    num_pred: int

    def to_dict(self) -> dict:
        out = {
            "mota": self.mota,
            "idf1": self.idf1,
            "fp": self.fp,
            "fn": self.fn,
            "ids": self.ids,
            "ospa2": self.ospa,
            "threshold_m": self.threshold,
            "ospa_cutoff_m": self.ospa_cutoff,
            "counts": {
                "frames": self.num_frames,
                "gt_detections": self.num_gt,
                "pred_detections": self.num_pred,
            },
            "pose": None,
        }
        if self.pose is not None:
            out["pose"] = {
                "mpjpe_mm": self.pose.mpjpe,
                "recall": self.pose.recall,
                "recall_at_mm": self.pose.recall_at,
                "ap": {f"{k:g}": v for k, v in self.pose.ap.items()},
                "gt_poses": self.pose.num_gt_poses,
                "pred_poses": self.pose.num_pred_poses,
            }
        return out

    def format_table(self) -> str:
        lines = [
            f"{'MOTA':>12}  {self.mota:8.2f} %",
            f"{'IDF1':>12}  {self.idf1:8.2f} %",
            f"{'FP':>12}  {self.fp:8d}",
            f"{'FN':>12}  {self.fn:8d}",
            f"{'IDS':>12}  {self.ids:8d}",
            f"{'OSPA(2)':>12}  {self.ospa:8.4f} m",
        ]
        if self.pose is not None:
            lines.append(f"{'MPJPE':>12}  {self.pose.mpjpe:8.2f} mm")
            for d in sorted(self.pose.ap):
                lines.append(f"{f'AP@{d:g}mm':>12}  {self.pose.ap[d]:8.2f} %")
            lines.append(
                f"{f'Recall@{self.pose.recall_at:g}':>12}  "
                f"{self.pose.recall:8.2f} %"
            )
        return "\n".join(lines)


def _on_plane(t: TrackTable) -> TrackTable:
    flat = t.position.copy()
    flat[:, 2] = 0.0
    return TrackTable(t.frame, t.object_id, flat)


def evaluate_tracks(
    pred: TrackTable,
    gt: TrackTable,
    threshold: float = 1.0,
    ospa_cutoff: float = 1.0,
    ospa_order: float = 1.0,
    window: int | None = None,
    ap_thresholds: Sequence[float] = (25.0, 50.0, 100.0, 150.0),
    recall_at: float = 500.0,
    plane: bool = False,
) -> MetricReport:
    """Run the full evaluation battery on two track tables.

    ``plane=True`` scores CLEAR/IDF1/OSPA on ground-plane (x, y) distance
    only; pose metrics always use full 3D. Pose metrics appear only when the
    ground truth carries keypoints.
    """
    p, g = (_on_plane(pred), _on_plane(gt)) if plane else (pred, gt)
    mot = clear_mot(p, g, threshold)
    f1 = idf1(p, g, threshold)
    ospa = ospa2(p, g, cutoff=ospa_cutoff, order=ospa_order, window=window)
    pose = None
    if gt.has_keypoints.any():
        pose = pose_metrics(
            pred, gt, ap_thresholds=ap_thresholds, recall_at=recall_at
        )
    return MetricReport(
        mota=mot.mota,
        idf1=f1,
        fp=mot.fp,
        fn=mot.fn,
        ids=mot.ids,
        ospa=ospa,
        pose=pose,
        threshold=threshold,
        ospa_cutoff=ospa_cutoff,
        num_frames=len(_unique(np.concatenate((gt.frame, pred.frame)))),
        num_gt=len(g),
        num_pred=len(p),
    )
