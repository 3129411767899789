"""File formats and run configuration.

Calibration is a JSON document; annotations and tracks are JSONL, one record
per line. All world units are meters (``units="mm"`` on the calibration
loader rescales millimeter extrinsics); pixels for image-plane quantities.
Writers emit keys in a fixed order so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import BBox, CameraModel
from .pose import CanonicalPose, canonical_pose
from .tracker import AnnotationFrame
from .tracks import TrackTable

_UNIT_SCALE = {"m": 1.0, "mm": 1e-3}


def require_finite(obj, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of dataclass ``obj`` that holds
    a non-finite float, alone or in a list or tuple."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        items = value if isinstance(value, (list, tuple)) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise error(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Tunable parameters for tracking and evaluation.

    Noise units: ``q_pos`` is acceleration spectral density (m^2/s^3-ish per
    kinematic block), ``q_shape`` log-axis random-walk variance per step,
    ``r_bbox``/``r_keypoint`` pixel variances per measured coordinate.
    """

    dt: float = 1.0
    alpha: float = 0.1
    beta: float = 2.0
    kappa: float = 0.0
    q_pos: float = 1e-6
    q_shape: float = 1e-6
    r_bbox: float = 1e-4
    r_keypoint: float = 1.0
    default_half_axes: tuple[float, float, float] = (0.3, 0.3, 0.9)
    init_pos_var: float = 0.25
    init_vel_var: float = 1.0
    init_shape_var: float = 0.05
    init_keypoint_pos_var: float = 0.05
    init_keypoint_vel_var: float = 1.0
    visibility_threshold: float = 0.5
    skeleton: str | None = None
    # evaluation
    threshold: float = 1.0
    ospa_cutoff: float = 1.0
    ospa_order: float = 1.0
    ospa_window: int | None = None
    ap_thresholds: tuple[float, ...] = (25.0, 50.0, 100.0, 150.0)
    recall_at: float = 500.0
    plane: bool = False

    def __post_init__(self):
        def need(cond: bool, msg: str):
            if not cond:
                raise ValidationError(msg)

        require_finite(self, ValidationError)
        need(self.dt > 0, f"dt must be positive, got {self.dt}")
        need(self.alpha > 0, f"alpha must be positive, got {self.alpha}")
        need(self.q_pos >= 0, "q_pos must be non-negative")
        need(self.q_shape >= 0, "q_shape must be non-negative")
        need(self.r_bbox > 0, "r_bbox must be positive")
        need(self.r_keypoint > 0, "r_keypoint must be positive")
        half = tuple(float(v) for v in self.default_half_axes)
        need(
            len(half) == 3 and all(v > 0 for v in half),
            f"default_half_axes must be 3 positive values, got {self.default_half_axes}",
        )
        for name in (
            "init_pos_var",
            "init_vel_var",
            "init_shape_var",
            "init_keypoint_pos_var",
            "init_keypoint_vel_var",
        ):
            need(getattr(self, name) > 0, f"{name} must be positive")
        need(
            0.0 <= self.visibility_threshold <= 1.0,
            "visibility_threshold must be within [0, 1]",
        )
        need(self.threshold > 0, "threshold must be positive")
        need(self.ospa_cutoff > 0, "ospa_cutoff must be positive")
        need(self.ospa_order >= 1, "ospa_order must be >= 1")
        need(
            self.ospa_window is None or int(self.ospa_window) >= 1,
            "ospa_window must be >= 1 or null",
        )
        thresholds = tuple(float(v) for v in self.ap_thresholds)
        need(
            len(thresholds) > 0 and all(v > 0 for v in thresholds),
            "ap_thresholds must be positive",
        )
        need(self.recall_at > 0, "recall_at must be positive")
        object.__setattr__(self, "default_half_axes", half)
        object.__setattr__(self, "ap_thresholds", thresholds)
        object.__setattr__(
            self,
            "ospa_window",
            None if self.ospa_window is None else int(self.ospa_window),
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        return cls(**data)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["default_half_axes"] = list(self.default_half_axes)
        out["ap_thresholds"] = list(self.ap_thresholds)
        return out


@dataclass(frozen=True)
class SceneBundle:
    """Everything one run needs: cameras, annotations, optional skeleton."""

    calibration: dict[int, CameraModel]
    annotations: list[AnnotationFrame]
    skeleton: CanonicalPose | None = None

    def __post_init__(self):
        frames = [af.frame for af in self.annotations]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValidationError("annotation frames must be strictly increasing")


def _read_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(path), None, f"cannot read: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, exc.msg) from exc


def _float_list(value, n: int, path: str, line: int | None, what: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ParseError(path, line, f"{what} must be a list of {n} numbers")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ParseError(path, line, f"{what} must contain numbers")
    try:
        out = [float(v) for v in value]  # an int too large for a float overflows
    except OverflowError:
        out = None
    if out is None or not all(map(math.isfinite, out)):
        raise ParseError(path, line, f"{what} must be finite")
    return out


def _float_rows(rows, n: int, path: str, line: int | None, what: str) -> np.ndarray:
    """Rows of ``n`` finite numbers as one (len(rows), n) array, checked in
    one pass; a list that fails is read row by row by :func:`_float_list`,
    which names the first bad row."""
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
    return np.array([_float_list(r, n, path, line, what) for r in rows])


def _integer(value, path: str, line: int | None, what: str) -> int:
    """A JSON integer that fits 64 bits; bools, floats and strings are
    refused, not coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(path, line, f"{what} must be an integer, got {value!r}")
    if not -(2**63) <= value < 2**63:
        raise ParseError(path, line, f"{what} must fit in 64 bits, got {value}")
    return value


def load_calibration(path, units: str = "m") -> dict[int, CameraModel]:
    """Read a camera rig from JSON.

    Accepts either a top-level list of camera entries or ``{"cameras":
    [...]}``. Each entry: ``id``, row-major ``K`` (9), ``R`` (9), ``t`` (3),
    ``width``, ``height``. ``units="mm"`` converts millimeter translations to
    meters.
    """
    spath = str(path)
    if units not in _UNIT_SCALE:
        raise ValidationError(f"unknown units {units!r}; expected 'm' or 'mm'")
    scale = _UNIT_SCALE[units]
    doc = _read_json(path)
    if isinstance(doc, dict) and "cameras" in doc:
        doc = doc["cameras"]
    if not isinstance(doc, list):
        raise ParseError(spath, None, "calibration must be a list of cameras")
    cams: dict[int, CameraModel] = {}
    for i, entry in enumerate(doc):
        where = f"camera #{i}"
        if not isinstance(entry, dict):
            raise ParseError(spath, None, f"{where} is not an object")
        try:
            cid = _integer(entry["id"], spath, None, f"{where} id")
            K = np.array(_float_list(entry["K"], 9, spath, None, f"{where} K")).reshape(3, 3)
            R = np.array(_float_list(entry["R"], 9, spath, None, f"{where} R")).reshape(3, 3)
            t = np.array(_float_list(entry["t"], 3, spath, None, f"{where} t")) * scale
            size = tuple(
                _integer(entry[k], spath, None, f"{where} {k}") for k in ("width", "height")
            )
        except KeyError as exc:
            raise ParseError(spath, None, f"{where} missing key {exc}") from exc
        if cid in cams:
            raise ValidationError(f"duplicate camera id {cid}")
        try:
            cams[cid] = CameraModel(
                intrinsics=K, rotation=R, translation=t, image_size=size
            )
        except ValueError as exc:
            raise ValidationError(f"camera {cid}: {exc}") from exc
    if not cams:
        raise ValidationError("calibration contains no cameras")
    return cams


def save_calibration(cams: Mapping[int, CameraModel], path) -> None:
    entries = []
    for cid in sorted(cams):
        cam = cams[cid]
        entries.append(
            {
                "id": cid,
                "K": [float(v) for v in cam.intrinsics.ravel()],
                "R": [float(v) for v in cam.rotation.ravel()],
                "t": [float(v) for v in cam.translation],
                "width": cam.image_size[0],
                "height": cam.image_size[1],
            }
        )
    Path(path).write_text(json.dumps({"cameras": entries}, indent=2) + "\n")


def _iter_jsonl(path) -> Iterable[tuple[int, dict]]:
    spath = str(path)
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(spath, None, f"cannot read: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(spath, lineno, exc.msg) from exc
        if not isinstance(record, dict):
            raise ParseError(spath, lineno, "record must be a JSON object")
        yield lineno, record


def load_annotations(path) -> list[AnnotationFrame]:
    """Read 2D annotations from JSONL.

    Record schema: ``frame``, ``object_id``, ``camera_id``, plus ``bbox``
    (``[u_min, v_min, u_max, v_max]``) and/or ``keypoints`` (list of
    ``[u, v, visibility]``). Frames come back sorted ascending.
    """
    spath = str(path)
    boxes: dict[int, dict[int, dict[int, BBox]]] = {}
    kps: dict[int, dict[int, dict[int, np.ndarray]]] = {}
    for lineno, rec in _iter_jsonl(path):
        frame, oid, cid = (
            _integer(rec.get(k), spath, lineno, k) for k in ("frame", "object_id", "camera_id")
        )
        if frame < 0:
            raise ParseError(spath, lineno, "frame must be non-negative")
        has_any = False
        if rec.get("bbox") is not None:
            vals = _float_list(rec["bbox"], 4, spath, lineno, "bbox")
            try:
                box = BBox.from_array(vals)
            except ValueError as exc:
                raise ParseError(spath, lineno, str(exc)) from exc
            per_obj = boxes.setdefault(frame, {}).setdefault(oid, {})
            if cid in per_obj:
                raise ValidationError(
                    f"{spath}:{lineno}: duplicate bbox for frame {frame}, "
                    f"object {oid}, camera {cid}"
                )
            per_obj[cid] = box
            has_any = True
        if rec.get("keypoints") is not None:
            rows = rec["keypoints"]
            if not isinstance(rows, list) or not rows:
                raise ParseError(spath, lineno, "keypoints must be a non-empty list")
            arr = _float_rows(rows, 3, spath, lineno, "keypoint row")
            per_obj = kps.setdefault(frame, {}).setdefault(oid, {})
            if cid in per_obj:
                raise ValidationError(
                    f"{spath}:{lineno}: duplicate keypoints for frame {frame}, "
                    f"object {oid}, camera {cid}"
                )
            arr.setflags(write=False)
            per_obj[cid] = arr
            has_any = True
        if not has_any:
            raise ParseError(spath, lineno, "record carries no bbox or keypoints")
    frames = sorted(set(boxes) | set(kps))
    return [
        AnnotationFrame(
            frame=f, boxes=boxes.get(f, {}), keypoints=kps.get(f, {})
        )
        for f in frames
    ]


def save_annotations(frames: Sequence[AnnotationFrame], path) -> None:
    lines = []
    for af in sorted(frames, key=lambda a: a.frame):
        oids = sorted(set(af.boxes) | set(af.keypoints))
        for oid in oids:
            cam_ids = sorted(
                set(af.boxes.get(oid, {})) | set(af.keypoints.get(oid, {}))
            )
            for cid in cam_ids:
                rec: dict = {"frame": af.frame, "object_id": oid, "camera_id": cid}
                box = af.boxes.get(oid, {}).get(cid)
                if box is not None:
                    rec["bbox"] = [box.u_min, box.v_min, box.u_max, box.v_max]
                kp = af.keypoints.get(oid, {}).get(cid)
                if kp is not None:
                    rec["keypoints"] = np.asarray(kp, dtype=np.float64).tolist()
                lines.append(json.dumps(rec, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_tracks(path) -> TrackTable:
    """Read a track table from JSONL, records in any order; every keypoint
    record in one file must have the same number of rows."""
    spath = str(path)
    seen: set[tuple[int, int]] = set()
    frames, oids, positions, half_axes, keypoints = [], [], [], [], []
    joints: tuple[int, int] | None = None  # (rows per record, first line)
    for lineno, rec in _iter_jsonl(path):
        frame, oid = (_integer(rec.get(k), spath, lineno, k) for k in ("frame", "object_id"))
        if "position" not in rec:
            raise ParseError(spath, lineno, "record needs a position")
        positions.append(_float_list(rec["position"], 3, spath, lineno, "position"))
        if (frame, oid) in seen:
            raise ValidationError(
                f"{spath}:{lineno}: duplicate entry for object {oid}, frame {frame}"
            )
        seen.add((frame, oid))
        frames.append(frame)
        oids.append(oid)
        hax = [math.nan] * 3  # absent
        if rec.get("half_axes") is not None:
            hax = _float_list(rec["half_axes"], 3, spath, lineno, "half_axes")
            if any(v <= 0 for v in hax):
                raise ParseError(spath, lineno, "half_axes must be positive")
        half_axes.append(hax)
        kp = None
        if rec.get("keypoints") is not None:
            rows = rec["keypoints"]
            if not isinstance(rows, list) or not rows:
                raise ParseError(spath, lineno, "keypoints must be a non-empty list")
            kp = _float_rows(rows, 3, spath, lineno, "keypoint row")
            joints = joints or (len(kp), lineno)
            if len(kp) != joints[0]:
                raise ParseError(
                    spath, lineno, f"{len(kp)} keypoint rows, line {joints[1]} has {joints[0]}"
                )
        keypoints.append(kp)
    frame, oid = np.array(frames, dtype=np.int64), np.array(oids, dtype=np.int64)
    order = np.lexsort((oid, frame))
    kp_col = None
    if joints is not None:
        # Each record's rows are copied straight to their sorted row and then
        # dropped, so the load never holds a second, stacked copy of them.
        kp_col = np.full((len(order), joints[0], 3), np.nan)
        for row, i in enumerate(order.tolist()):
            if keypoints[i] is not None:
                kp_col[row] = keypoints[i]
                keypoints[i] = None
    return TrackTable(
        frame=frame[order],
        object_id=oid[order],
        position=np.array(positions).reshape(-1, 3)[order],
        half_axes=np.array(half_axes).reshape(-1, 3)[order],
        keypoints=kp_col,
    )


def save_tracks(tracks: TrackTable, path) -> None:
    """Write a track table as JSONL, one record per row, in row order: by
    (frame, object id)."""
    has_half, has_kp = tracks.has_half_axes.tolist(), tracks.has_keypoints.tolist()
    columns = (tracks.frame, tracks.object_id, tracks.position, tracks.half_axes)
    lines = []
    for i, (frame, oid, pos, hax) in enumerate(zip(*(c.tolist() for c in columns))):
        rec: dict = {"frame": frame, "object_id": oid, "position": pos}
        if has_half[i]:
            rec["half_axes"] = hax
        if has_kp[i]:
            rec["keypoints"] = tracks.keypoints[i].tolist()
        lines.append(json.dumps(rec, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_skeleton(source) -> CanonicalPose:
    """Resolve a skeleton from a built-in name or a JSON file.

    A JSON skeleton is ``{"name": ..., "joints": [...], "coords": [[x, y, z],
    ...]}`` with coordinates in any consistent units; they are normalized on
    load.
    """
    name = str(source)
    if not Path(name).exists():
        try:
            return canonical_pose(name)
        except ValueError as exc:
            raise ValidationError(
                f"{name!r} is neither a skeleton file nor a built-in name"
            ) from exc
    doc = _read_json(name)
    if not isinstance(doc, dict):
        raise ParseError(name, None, "skeleton must be a JSON object")
    try:
        joints = doc["joints"]
        coords = doc["coords"]
    except KeyError as exc:
        raise ParseError(name, None, f"skeleton missing key {exc}") from exc
    if not isinstance(joints, list) or not all(isinstance(j, str) for j in joints):
        raise ParseError(name, None, "joints must be a list of strings")
    if not isinstance(coords, list):
        raise ParseError(name, None, "coords must be a list of [x, y, z]")
    rows = _float_rows(coords, 3, name, None, "coords row")
    try:
        return CanonicalPose.from_raw(str(doc.get("name", Path(name).stem)), joints, rows)
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def load_config(path) -> RunConfig:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(str(path), None, "config must be a JSON object")
    return RunConfig.from_dict(doc)


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")


def load_scene(
    calibration_path,
    annotations_path,
    skeleton=None,
    units: str = "m",
) -> SceneBundle:
    """Load and cross-validate a full scene.

    Every annotation must reference a calibrated camera; keypoint rows must
    agree in joint count with the skeleton (when one is given) and with each
    other.
    """
    cams = load_calibration(calibration_path, units=units)
    annotations = load_annotations(annotations_path)
    pose = load_skeleton(skeleton) if skeleton is not None else None

    num_joints = pose.num_joints if pose is not None else None
    for af in annotations:
        for oid, per_cam in af.boxes.items():
            for cid in per_cam:
                if cid not in cams:
                    raise ValidationError(
                        f"frame {af.frame}, object {oid}: unknown camera {cid}"
                    )
        for oid, per_cam in af.keypoints.items():
            for cid, arr in per_cam.items():
                if cid not in cams:
                    raise ValidationError(
                        f"frame {af.frame}, object {oid}: unknown camera {cid}"
                    )
                if num_joints is None:
                    num_joints = arr.shape[0]
                elif arr.shape[0] != num_joints:
                    raise ValidationError(
                        f"frame {af.frame}, object {oid}, camera {cid}: "
                        f"{arr.shape[0]} keypoints, expected {num_joints}"
                    )
    return SceneBundle(calibration=cams, annotations=annotations, skeleton=pose)
