"""Track-level and pose-level evaluation.

All association gates and the OSPA cutoff are in meters; MOTA/IDF1/recall/AP
are percentages; MPJPE and the pose thresholds are in millimeters. Euclidean
distance throughout (``evaluate_tracks`` with ``config.plane`` scores on the
ground plane only).

Every metric is defined frame by frame. A track table is sorted by (frame,
object id), so each frame's objects are one block of rows, found with
``searchsorted``. IDF1 pairs every gt row with the pred rows of its frame,
about ``_BLOCK_BUDGET`` pairs at a time, and adds their in-gate hits into a
trajectory overlap matrix; pose metrics take one MPJPE matrix per frame;
CLEAR MOT the distances of the pairs it tests: each object's last match,
then the free objects it assigns. OSPA(2) works on blocks of B consecutive
frames, B the largest with B*n*m <= ``_BLOCK_BUDGET`` entries (one frame when
n*m alone exceeds it): one (B, n, m) distance array per block, NaN where a
track has no row, whose cut-off terms are added into per-pair sums frame by
frame, so each sum is the per-frame one exactly. Working memory stays per
frame, or per bounded block.

Every score takes its distances from one kernel, :func:`_distance`, on
(x, y, z) coordinate planes: arrays of shape (3, ...), the positions'
columns, which broadcast to the pairs wanted. It computes ``sqrt(dx*dx +
dy*dy + dz*dz)``, summed in that order, in the difference's own memory, one
rounding per step: no BLAS kernel (whose FMA chains differ between builds)
decides the last bit, so scores do not depend on the machine, and an MPJPE
is the mean over joints of the bits ``np.linalg.norm(axis=-1)`` gives. A
distance that overflows is inf, beyond every gate.

The assignment solver assigns the leading rows whose strict minima lie in
columns no earlier row took, as its search would, and starts the search at
the first row that is contested.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .tracks import TrackTable

if TYPE_CHECKING:
    from .io import RunConfig


def _unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``values``, as ``np.unique(values)`` gives
    them. A return flag keeps numpy on its sort path: flagless ``np.unique``
    (and ``np.union1d``, ``np.intersect1d``) import ``numpy.ma``."""
    return np.unique(values, return_index=True)[0]


def _uncontested_prefix(cost: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """How many leading rows of ``cost`` have one strict, finite minimum in a
    column that no earlier row's minimum took; and each row's minimum and
    its column.

    These are the rows whose first scan in :func:`_shortest_paths` ends at
    once: with every column dual still zero its reduced costs are its costs,
    so the scan ends at the row's minimum, a free column, and moves no dual.
    The next row then starts from zero column duals too."""
    nr = len(cost)
    col = cost.argmin(axis=1)
    low = cost[np.arange(nr), col]
    first = np.zeros(nr, dtype=bool)
    first[np.unique(col, return_index=True)[1]] = True
    ok = first & np.isfinite(low) & ((cost == low[:, None]).sum(axis=1) == 1)
    return (nr if ok.all() else int(ok.argmin())), low, col


def _shortest_paths(cost: np.ndarray) -> list[int]:
    """The column of each row of ``cost`` (no taller than it is wide) by
    shortest augmenting paths, one row at a time, as scipy's
    ``rectangular_lsap`` finds it. The uncontested leading rows
    (:func:`_uncontested_prefix`) take their minima with the duals their
    scans would leave, and the search starts at the first row after them."""
    nr, nc = cost.shape
    k, low, col = _uncontested_prefix(cost)
    col4row = col[:k].tolist() + [-1] * (nr - k)
    if k == nr:
        return col4row
    c = cost.tolist()
    inf = np.inf
    # u as each prefix row's scan leaves it: 0.0 + its minimum (a -0.0 becomes 0.0).
    u = [0.0 + x for x in low[:k].tolist()] + [0.0] * (nr - k)
    v = [0.0] * nc
    path, row4col = [-1] * nc, [-1] * nc
    for i, j in enumerate(col4row[:k]):
        row4col[j] = i
    for cur_row in range(k, nr):
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
    included, and raises the same ``ValueError``s. The leading rows whose
    strict minima lie in columns of their own take those columns without a
    search (:func:`_uncontested_prefix`); when that covers every row, no
    search runs at all.

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
    """Euclidean distances between the (x, y, z) coordinate planes ``a`` and
    ``b``, of shapes (3, ...) that broadcast: ``sqrt(dx*dx + dy*dy + dz*dz)``
    in that order, computed in the memory of ``a - b``. An overflow is inf,
    so its pair is never a match."""
    sq = a - b
    sq *= sq
    d = sq[0]
    d += sq[1]
    d += sq[2]
    return np.sqrt(d, out=d)


def _bounds(frame: np.ndarray, frames: np.ndarray) -> list[tuple[int, int]]:
    """The rows ``lo:hi`` of the sorted column ``frame`` at each of ``frames``."""
    lo, hi = (np.searchsorted(frame, frames, side).tolist() for side in ("left", "right"))
    return list(zip(lo, hi))


def _scored_rows(t: TrackTable, frames: np.ndarray) -> tuple[int, int, np.ndarray]:
    """The rows of ``t`` from ``frames[0]`` on (``frames`` ascending, and
    every frame of ``t`` from ``frames[0]`` on): the first of them, the
    number of their objects, and each one's object among their sorted ids."""
    start = int(np.searchsorted(t.frame, frames[0])) if frames.size else len(t)
    ids, index = np.unique(t.object_id[start:], return_inverse=True)
    return start, len(ids), index


def _first_appearance(t: TrackTable) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``t`` sorted by frame, then by object rank in order of
    first appearance (by frame, then id): each row's rank, and the (3, rows)
    coordinate planes of their positions."""
    _, first, index = np.unique(t.object_id, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[index]
    order = np.lexsort((rank, t.frame))
    return rank[order], t.position.T[:, order]


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
    ValidationError
        If ``gt`` contains no detections.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    total_gt = len(gt)
    if total_gt == 0:
        raise ValidationError("ground truth has no detections")

    frames = _unique(np.concatenate((gt.frame, pred.frame)))
    # Each frame's rows in tie-break order; g_at, p_at: its planes by rank.
    (g_rank, g_pos), (p_rank, p_pos) = _first_appearance(gt), _first_appearance(pred)
    g_at, p_at = np.empty_like(g_pos), np.empty_like(p_pos)
    fp = fn = ids = 0
    last_known: dict[int, int] = {}  # gt object -> pred object
    for (ga, gb), (pa, pb) in zip(_bounds(gt.frame, frames), _bounds(pred.frame, frames)):
        gi, pi = g_rank[ga:gb].tolist(), p_rank[pa:pb].tolist()
        g_at[:, g_rank[ga:gb]], p_at[:, p_rank[pa:pb]] = g_pos[:, ga:gb], p_pos[:, pa:pb]
        present = set(pi)
        # Distances of the pairs tested only: last matches, then the free block.
        kept = [(g, last_known[g]) for g in gi if last_known.get(g) in present]
        matches, taken = {}, set()  # gt object -> pred object; pred objects matched
        if kept:
            kg, kp = zip(*kept)
            for g, p, d in zip(kg, kp, _distance(g_at[:, kg], p_at[:, kp]).tolist()):
                if p not in taken and d <= threshold:
                    matches[g] = p
                    taken.add(p)
        free_g = [g for g in gi if g not in matches]
        free_p = [p for p in pi if p not in taken]
        if free_g and free_p:
            d = _distance(g_at[:, free_g, None], p_at[:, None, free_p])
            near = d <= threshold
            # Above any finite in-gate total (the most in-gate pairs match, then
            # by distance); capped at the largest float, which an in-gate
            # distance may tie.
            far = float(threshold) * min(d.shape)
            far = min(max(far + 1.0, np.nextafter(far, np.inf)), sys.float_info.max)
            rows, cols = linear_sum_assignment(np.where(near, d, far))
            for i, j in zip(rows.tolist(), cols.tolist()):
                if near[i, j]:
                    matches[free_g[i]] = free_p[j]
        fn += len(gi) - len(matches)
        fp += len(pi) - len(matches)
        for g, p in matches.items():
            prev = last_known.get(g)
            if prev is not None and prev != p:
                ids += 1
            last_known[g] = p
    mota = 100.0 * (1.0 - (fp + fn + ids) / total_gt)
    return ClearMotResult(fp=fp, fn=fn, ids=ids, mota=mota)


# The most entries of one vectorized step: pairs in idf1, a block's (B, n, m)
# arrays in ospa2. Working memory stays bounded however long the scene.
_BLOCK_BUDGET = 1 << 18


def idf1(pred: TrackTable, gt: TrackTable, threshold: float = 1.0) -> float:
    """Identity F1: trajectory-level assignment maximizing frames in which a
    ground-truth object and its assigned prediction coincide within the gate.

    With IDTP the total coinciding frames under the best one-to-one
    trajectory assignment, IDF1 = 100 * 2 IDTP / (total GT + total pred).

    Raises
    ------
    ValueError
        If ``threshold`` is not positive.
    ValidationError
        If ``gt`` contains no detections.
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    total_gt, total_pred = len(gt), len(pred)
    if total_gt == 0:
        raise ValidationError("ground truth has no detections")
    if total_pred == 0:
        return 0.0

    (g_ids, g_obj), (p_ids, p_obj) = (np.unique(t.object_id, return_inverse=True)
                                       for t in (gt, pred))
    n, m = len(g_ids), len(p_ids)
    # Each gt row pairs with the pred rows lo:hi of its frame. The pairs are
    # numbered in row order, and a pair's number plus hi - end of its gt row
    # is its pred row. Runs of rows take about _BLOCK_BUDGET pairs at a time.
    lo, hi = (np.searchsorted(pred.frame, gt.frame, side) for side in ("left", "right"))
    end = np.cumsum(hi - lo)
    runs = np.searchsorted(end, np.arange(0, end[-1], _BLOCK_BUDGET), "right").tolist()
    overlap = np.zeros(n * m)
    G, P = (np.ascontiguousarray(t.position.T) for t in (gt, pred))
    for a, b in zip(runs, runs[1:] + [len(gt)]):
        row = np.repeat(np.arange(a, b), hi[a:b] - lo[a:b])
        col = np.arange(len(row)) + (end[a] - hi[a] + lo[a]) + (hi - end)[row]
        hit = _distance(G.take(row, axis=1), P.take(col, axis=1)) <= threshold
        overlap += np.bincount(g_obj[row[hit]] * m + p_obj[col[hit]], minlength=n * m)
    overlap = overlap.reshape(n, m)
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

    (g0, n, g_obj), (p0, m, p_obj) = _scored_rows(gt, frames), _scored_rows(pred, frames)
    if m == 0 and n == 0:
        return 0.0
    if m == 0 or n == 0:
        return float(cutoff)

    size = max(1, _BLOCK_BUDGET // (n * m))  # frames to a block

    def positions(t: TrackTable, start: int, count: int, index: np.ndarray):
        """Per block of frames, the (3, B, count) coordinate planes of the
        objects, NaN where an object has no row (positions are finite)."""
        at = np.searchsorted(frames, t.frame[start:])
        pos = t.position[start:].T
        for k in range(0, len(frames), size):
            stop = min(k + size, len(frames))
            a, b = np.searchsorted(at, (k, stop)).tolist()
            block = np.full((3, stop - k, count), np.nan)
            block[:, at[a:b] - k, index[a:b]] = pos[:, a:b]
            yield block

    # Each pair's sum takes its terms in frame order (adding 0.0 where neither
    # track exists changes nothing), so it is the frame-by-frame sum exactly.
    total = np.zeros((n, m))
    seen = np.zeros((n, m), dtype=np.int64)
    for G, P in zip(positions(gt, g0, n, g_obj), positions(pred, p0, m, p_obj)):
        g, p = ~np.isnan(G[0, :, :, None]), ~np.isnan(P[0, :, None])
        either = g | p
        step = np.where(
            g & p,
            np.minimum(cutoff, _distance(G[..., None], P[:, :, None])),
            np.where(either, cutoff, 0.0),
        )
        for term in step:
            total += term
        seen += either.sum(axis=0)
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
    ValueError
        If an AP threshold or ``recall_at`` is not positive.
    ValidationError
        If ``gt`` has no keypoint annotations.
    """
    if not all(d > 0 for d in ap_thresholds):
        raise ValueError("ap_thresholds must be positive")
    if not recall_at > 0:
        raise ValueError("recall_at must be positive")
    g_has, p_has = gt.has_keypoints, pred.has_keypoints
    total_gt, total_pred = int(g_has.sum()), int(p_has.sum())
    if total_gt == 0:
        raise ValidationError("ground truth has no keypoints")

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
            cost = 1000.0 * _distance(G[:, a:b, None], P[:, None, c:d]).mean(axis=-1)
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


def _on_plane(t: TrackTable) -> TrackTable:
    flat = t.position.copy()
    flat[:, 2] = 0.0
    return TrackTable(t.frame, t.object_id, flat)


def evaluate_tracks(pred: TrackTable, gt: TrackTable, config: "RunConfig") -> dict:
    """Run the full evaluation battery on two track tables, with the scoring
    settings of ``config``: the report that ``mvfuse evaluate`` prints, as a
    JSON-ready dict (:func:`format_table` gives its table).

    ``config.plane`` scores CLEAR/IDF1/OSPA on ground-plane (x, y) distance
    only; pose metrics always use full 3D. The ``pose`` section is None
    unless the ground truth carries keypoints; its AP is keyed by each
    threshold's ``:g`` label.
    """
    p, g = (_on_plane(pred), _on_plane(gt)) if config.plane else (pred, gt)
    mot = clear_mot(p, g, config.threshold)
    report = {
        "mota": mot.mota,
        "idf1": idf1(p, g, config.threshold),
        "fp": mot.fp,
        "fn": mot.fn,
        "ids": mot.ids,
        "ospa2": ospa2(p, g, config.ospa_cutoff, config.ospa_order, config.ospa_window),
        "threshold_m": config.threshold,
        "ospa_cutoff_m": config.ospa_cutoff,
        "counts": {
            "frames": len(_unique(np.concatenate((gt.frame, pred.frame)))),
            "gt_detections": len(g),
            "pred_detections": len(p),
        },
        "pose": None,
    }
    if gt.has_keypoints.any():
        pose = pose_metrics(
            pred, gt, ap_thresholds=config.ap_thresholds, recall_at=config.recall_at
        )
        report["pose"] = {
            "mpjpe_mm": pose.mpjpe,
            "recall": pose.recall,
            "recall_at_mm": pose.recall_at,
            "ap": {f"{d:g}": v for d, v in pose.ap.items()},
            "gt_poses": pose.num_gt_poses,
            "pred_poses": pose.num_pred_poses,
        }
    return report


def format_table(report: dict) -> str:
    """The human-readable table of an :func:`evaluate_tracks` report, AP
    lines by ascending threshold."""
    lines = [
        f"{'MOTA':>12}  {report['mota']:8.2f} %",
        f"{'IDF1':>12}  {report['idf1']:8.2f} %",
        f"{'FP':>12}  {report['fp']:8d}",
        f"{'FN':>12}  {report['fn']:8d}",
        f"{'IDS':>12}  {report['ids']:8d}",
        f"{'OSPA(2)':>12}  {report['ospa2']:8.4f} m",
    ]
    pose = report["pose"]
    if pose is not None:
        lines.append(f"{'MPJPE':>12}  {pose['mpjpe_mm']:8.2f} mm")
        for label in sorted(pose["ap"], key=float):
            lines.append(f"{f'AP@{label}mm':>12}  {pose['ap'][label]:8.2f} %")
        recall = f"Recall@{pose['recall_at_mm']:g}"
        lines.append(f"{recall:>12}  {pose['recall']:8.2f} %")
    return "\n".join(lines)
