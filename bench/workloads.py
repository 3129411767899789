"""The benchmark's four workloads: inputs made from the seed, and the checks
that each workload's outputs are correct.

The program only ever sees the files ``mvfuse synth`` writes (from the scene
spec made here) plus the run config written here; for ``evaluate`` also the
prediction file this module plants.  Nothing here imports mvfuse: accuracy
figures are computed from the JSONL files on their own.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]
    spec: dict
    config: dict = field(default_factory=dict)


def _sparse_occlusions(rng: random.Random, cameras: int, objects: int, frames: int) -> list[dict]:
    """Occlusion windows for the ``sparse`` scene.

    Every camera loses all objects for 50 frames; every object loses two
    single-camera stretches of 30 frames, and one 8-frame stretch on every
    camera at once, which the tracker must bridge with predict-only frames.
    Windows start after frame 10, so every object is born at frame 0.
    """
    out = []
    for cam in range(cameras):
        start = rng.randrange(10, frames - 50)
        out.append({"camera_id": cam, "start": start, "stop": start + 50})
    for obj in range(objects):
        for cam in rng.sample(range(cameras), 2):
            start = rng.randrange(10, frames - 30)
            out.append({"camera_id": cam, "start": start, "stop": start + 30, "object_id": obj})
        start = rng.randrange(20, frames - 20)
        for cam in range(cameras):
            out.append({"camera_id": cam, "start": start, "stop": start + 8, "object_id": obj})
    return out


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    if name == "boxes":
        return Workload(
            name,
            "criterion-1 scene cut to 60 frames, 3,600 noiseless box updates: the box UKF and its per-sigma-point measurement map do almost all the work; no keypoints",
            ("synth", "annotate", "evaluate"),
            {"seed": seed, "num_objects": 10, "num_cameras": 6, "frames": 60, "fps": 10.0,
             "motion": "constant-velocity"},
            {"dt": 0.1},
        )
    if name == "sparse":
        rng = random.Random(seed)
        return Workload(
            name,
            "the box path with 3 px noise, occlusions and predict-only gaps: varying per-frame subsets of objects, where batching gains least and accuracy moves",
            ("synth", "annotate", "evaluate"),
            {"seed": seed, "num_objects": 10, "num_cameras": 6, "frames": 200, "fps": 10.0,
             "motion": "waypoint", "pixel_noise": 3.0,
             "occlusions": _sparse_occlusions(rng, 6, 10, 200)},
            {"dt": 0.1, "r_bbox": 9.0, "q_pos": 0.1},
        )
    if name == "pose":
        return Workload(
            name,
            "criterion-2 scene with 2 of its 3 subjects: 7,500 keypoint joint updates against 500 box updates, so the keypoint filter path dominates fusion",
            ("synth", "annotate", "evaluate"),
            {"seed": seed, "num_objects": 2, "num_cameras": 5, "frames": 50, "fps": 10.0,
             "motion": "constant-velocity", "skeleton": "panoptic15"},
            {"dt": 0.1, "r_keypoint": 1e-4, "skeleton": "panoptic15"},
        )
    if name == "evaluate":
        return Workload(
            name,
            "no fusion: scores 20 objects x 400 frames of poses with planted dropouts, id switches and false tracks, so the metrics layer dominates",
            ("synth", "evaluate"),
            {"seed": seed, "num_objects": 20, "num_cameras": 1, "frames": 400, "fps": 10.0,
             "arena": [30.0, 30.0], "motion": "constant-velocity", "skeleton": "panoptic15"},
        )
    raise KeyError(name)


NAMES = ("boxes", "sparse", "pose", "evaluate")


def read_jsonl(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --- planted errors for the ``evaluate`` workload ---------------------------

_NOISE_M = 0.05
_DROPOUTS = 40       # windows of _DROP_LEN frames in which one object has no prediction
_DROP_LEN = 5
_RELABELS = 12       # an object's prediction continues under a new id
_FALSE_TRACKS = 6    # tracks 100 m outside the arena, _FALSE_LEN frames each
_FALSE_LEN = 50


@dataclass(frozen=True)
class Planted:
    fp: int
    fn: int
    ids: int
    pred_to_gt: dict  # predicted object id -> ground-truth id, false tracks absent


def plant_predictions(gt_path: Path, pred_path: Path, seed: int) -> Planted:
    """Write a prediction: the ground truth with 5 cm noise, dropouts, id
    switches and far-away false tracks, and return the error counts a
    correct CLEAR MOT scorer must report for it.

    Every dropout and id switch gets a frame slot of its own, so no two
    events ever compete in one frame's assignment; that makes FN, IDS and
    FP exactly the number of dropped entries, relabels and false entries.
    """
    rng = random.Random(seed)
    noise = np.random.default_rng(seed)
    rows = read_jsonl(gt_path)
    frames = sorted({r["frame"] for r in rows})
    objects = sorted({r["object_id"] for r in rows})
    by_key = {(r["frame"], r["object_id"]): r for r in rows}

    # Disjoint slots of _DROP_LEN frames, kept clear of the first and last frames.
    slots = list(range(frames[0] + 10, frames[-1] - 40, _DROP_LEN + 1))
    chosen = rng.sample(slots, _DROPOUTS + _RELABELS)
    dropped = set()
    for start in chosen[:_DROPOUTS]:
        obj = rng.choice(objects)
        dropped.update((f, obj) for f in range(start, start + _DROP_LEN) if (f, obj) in by_key)
    relabel_at: dict[int, list[int]] = {}
    for start in chosen[_DROPOUTS:]:
        relabel_at.setdefault(rng.choice(objects), []).append(start)

    next_id = max(objects) + 1000
    pred_to_gt = {}
    current = {}
    out = []
    for f in frames:
        for obj in objects:
            if obj not in current:
                current[obj] = obj
            elif f in relabel_at.get(obj, ()):
                current[obj] = next_id
                next_id += 1
            pred_to_gt[current[obj]] = obj
            rec = by_key.get((f, obj))
            if rec is None or (f, obj) in dropped:
                continue
            new = {"frame": f, "object_id": current[obj],
                   "position": (np.asarray(rec["position"]) + noise.normal(0.0, _NOISE_M, 3)).tolist()}
            if "half_axes" in rec:
                new["half_axes"] = rec["half_axes"]
            if "keypoints" in rec:
                kp = np.asarray(rec["keypoints"])
                new["keypoints"] = (kp + noise.normal(0.0, _NOISE_M, kp.shape)).tolist()
            out.append(new)
    false_entries = 0
    template = rows[0]
    for k in range(_FALSE_TRACKS):
        oid = next_id + k
        start = rng.randrange(frames[0], frames[-1] - _FALSE_LEN)
        for f in range(start, start + _FALSE_LEN):
            pos = [100.0 + 5.0 * k + 0.01 * (f - start), -100.0, 0.9]
            new = {"frame": f, "object_id": oid, "position": pos}
            if "keypoints" in template:
                new["keypoints"] = [[pos[0], pos[1], pos[2] + 0.1 * j] for j in range(len(template["keypoints"]))]
            out.append(new)
            false_entries += 1
    out.sort(key=lambda r: (r["frame"], r["object_id"]))
    with open(pred_path, "w") as fh:
        for rec in out:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    ids = sum(len(v) for v in relabel_at.values())
    return Planted(fp=false_entries, fn=len(dropped), ids=ids, pred_to_gt=pred_to_gt)


# --- accuracy and correctness -----------------------------------------------


def mean_position_error(pred_path: Path, gt_path: Path, pred_to_gt: dict | None = None) -> float:
    """Mean 3D distance from each predicted entry to its ground-truth position.

    Entries are paired by (frame, object id), through ``pred_to_gt`` when
    given; entries without a ground-truth partner are not counted.
    """
    gt = {(r["frame"], r["object_id"]): r["position"] for r in read_jsonl(gt_path)}
    total = 0.0
    n = 0
    for r in read_jsonl(pred_path):
        oid = r["object_id"] if pred_to_gt is None else pred_to_gt.get(r["object_id"])
        ref = gt.get((r["frame"], oid))
        if ref is None:
            continue
        total += math.dist(r["position"], ref)
        n += 1
    return total / n if n else math.nan


def input_counts(annotations_path: Path, visibility_threshold: float = 0.5) -> dict:
    """Update counts implied by the annotations alone.

    Every box record is one box update attempt.  Keypoint joints are updated
    from an object's birth (its first frame with a box) on, one update per
    visible joint row.
    """
    rows = read_jsonl(annotations_path)
    birth: dict[int, int] = {}
    for r in rows:
        if r.get("bbox") is not None:
            birth[r["object_id"]] = min(r["frame"], birth.get(r["object_id"], r["frame"]))
    boxes = sum(1 for r in rows if r.get("bbox") is not None)
    joints = 0
    for r in rows:
        kp = r.get("keypoints")
        if kp is None or r["object_id"] not in birth or r["frame"] < birth[r["object_id"]]:
            continue
        joints += sum(1 for row in kp if row[2] >= visibility_threshold)
    return {"box_updates": boxes, "kp_updates": joints}


def check(workload: Workload, report: dict, pred_path: Path, gt_path: Path,
          planted: Planted | None) -> list[str]:
    """Correctness failures of one pipeline's outputs (empty when correct)."""
    fails = []

    def need(cond: bool, msg: str):
        if not cond:
            fails.append(msg)

    if workload.name == "boxes":
        # the criterion-1 acceptance gates
        need(report["mota"] >= 99.9, f"MOTA {report['mota']:.3f} < 99.9")
        need(report["idf1"] >= 99.9, f"IDF1 {report['idf1']:.3f} < 99.9")
        need(report["fp"] == report["fn"] == report["ids"] == 0,
             f"FP/FN/IDS {report['fp']}/{report['fn']}/{report['ids']} not all 0")
        need(report["ospa2"] <= 0.02, f"OSPA(2) {report['ospa2']:.4f} m > 0.02 m")
    elif workload.name == "pose":
        pose = report.get("pose") or {}
        need(pose.get("mpjpe_mm", math.inf) <= 10.0, f"MPJPE {pose.get('mpjpe_mm')} mm > 10 mm")
        need(pose.get("recall") == 100.0, f"recall {pose.get('recall')} % != 100 %")
    elif workload.name == "sparse":
        n_pred = len({r["object_id"] for r in read_jsonl(pred_path)})
        n_gt = len({r["object_id"] for r in read_jsonl(gt_path)})
        need(n_pred == n_gt, f"{n_pred} tracks for {n_gt} ground-truth objects")
    elif workload.name == "evaluate":
        got = (report["fp"], report["fn"], report["ids"])
        want = (planted.fp, planted.fn, planted.ids)
        need(got == want, f"FP/FN/IDS {got} != planted {want}")
    return fails
