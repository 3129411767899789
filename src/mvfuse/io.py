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
import numbers
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import CameraModel
from .pose import CanonicalPose, canonical_pose
from .tracks import AnnotationTable, TrackTable

_UNIT_SCALE = {"m": 1.0, "mm": 1e-3}
# The field types checked, and what a value of each must be.
_KINDS = {
    float: ("a number", numbers.Real),
    int: ("an integer", numbers.Integral),
    bool: ("true or false", bool),
    str: ("a string", str),
}
_DUPLICATE = "{}:{}: duplicate {} for frame {}, object {}, camera {}"


def check_fields(obj, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field of dataclass ``obj`` whose value
    does not fit its annotation.

    A ``float`` field takes an int or a finite float, an ``int`` field an int,
    neither a bool; ``bool`` and ``str`` fields take their own type. A tuple
    field takes a list or tuple whose items fit; None fits an optional field.
    """
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        hint, value = hints[f.name], getattr(obj, f.name)
        args = get_args(hint) or (hint,)
        if value is None and type(None) in args:
            continue
        items = (value,)
        if get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise error(f"{f.name} must be a list, got {value!r}")
            items = value
        kind = next((k for k in _KINDS if k in args), None)
        if kind is None:
            continue
        what, cls = _KINDS[kind]
        for v in items:
            if not isinstance(v, cls) or (isinstance(v, bool) and kind is not bool):
                raise error(f"{f.name} must be {what}, got {value!r}")
            if isinstance(v, float) and not math.isfinite(v):
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

        check_fields(self, ValidationError)
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
            self.ospa_window is None or self.ospa_window >= 1,
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
    annotations: AnnotationTable
    skeleton: CanonicalPose | None = None


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


def _keypoint_rows(rows, joints, path: str, line: int) -> tuple[np.ndarray, tuple[int, int]]:
    """A record's keypoint rows (J, 3), and the file's (J, first line), which
    every keypoint record of one file must match."""
    if not isinstance(rows, list) or not rows:
        raise ParseError(path, line, "keypoints must be a non-empty list")
    kp = _float_rows(rows, 3, path, line, "keypoint row")
    joints = joints or (len(kp), line)
    if len(kp) != joints[0]:
        raise ParseError(path, line, f"{len(kp)} keypoint rows, line {joints[1]} has {joints[0]}")
    return kp, joints


def _sorted_keypoints(records: list, order: np.ndarray, joints: tuple[int, int] | None):
    """The records' keypoint rows (None: absent) as one (n, J, 3) column in
    ``order``, NaN where absent; None when no record has any. Each record's
    rows are copied to their sorted row and dropped, so the load never holds a
    second, stacked copy of them."""
    if joints is None:
        return None
    col = np.full((len(order), joints[0], 3), np.nan)
    for row, i in enumerate(order.tolist()):
        if records[i] is not None:
            col[row] = records[i]
            records[i] = None
    return col


def load_annotations(path) -> AnnotationTable:
    """Read 2D annotations from JSONL, records in any order.

    Record schema: ``frame``, ``object_id``, ``camera_id``, plus ``bbox``
    (``[u_min, v_min, u_max, v_max]``) and/or ``keypoints`` (list of
    ``[u, v, visibility]``). A (frame, object, camera) may be split into a
    bbox record and a keypoints record, which load as one row; every keypoint
    record in one file must have the same number of rows.
    """
    spath = str(path)
    row_of: dict[tuple[int, int, int], int] = {}  # in first-seen order
    boxes: list[list[float]] = []
    keypoints: list[np.ndarray | None] = []
    joints: tuple[int, int] | None = None  # (rows per record, first line)
    for lineno, rec in _iter_jsonl(path):
        key = tuple(
            _integer(rec.get(k), spath, lineno, k) for k in ("frame", "object_id", "camera_id")
        )
        if key[0] < 0:
            raise ParseError(spath, lineno, "frame must be non-negative")
        if rec.get("bbox") is None and rec.get("keypoints") is None:
            raise ParseError(spath, lineno, "record carries no bbox or keypoints")
        i = row_of.setdefault(key, len(row_of))
        if i == len(boxes):
            boxes.append([math.nan] * 4)
            keypoints.append(None)
        if rec.get("bbox") is not None:
            box = _float_list(rec["bbox"], 4, spath, lineno, "bbox")
            if box[0] > box[2] or box[1] > box[3]:
                raise ParseError(spath, lineno, f"bbox corners out of order: {box}")
            if not math.isnan(boxes[i][0]):
                raise ValidationError(_DUPLICATE.format(spath, lineno, "bbox", *key))
            boxes[i] = box
        if rec.get("keypoints") is not None:
            kp, joints = _keypoint_rows(rec["keypoints"], joints, spath, lineno)
            if keypoints[i] is not None:
                raise ValidationError(_DUPLICATE.format(spath, lineno, "keypoints", *key))
            keypoints[i] = kp
    frame, oid, cid = np.array(list(row_of), dtype=np.int64).reshape(-1, 3).T
    order = np.lexsort((cid, oid, frame))
    return AnnotationTable(
        frame=frame[order],
        object_id=oid[order],
        camera_id=cid[order],
        bbox=np.array(boxes).reshape(-1, 4)[order],
        keypoints=_sorted_keypoints(keypoints, order, joints),
    )


def save_annotations(annotations: AnnotationTable, path) -> None:
    """Write an annotation table as JSONL, one record per row, in row order:
    by (frame, object id, camera id)."""
    has_box, has_kp = annotations.has_bbox.tolist(), annotations.has_keypoints.tolist()
    columns = (annotations.frame, annotations.object_id, annotations.camera_id, annotations.bbox)
    lines = []
    for i, (frame, oid, cid, box) in enumerate(zip(*(c.tolist() for c in columns))):
        rec: dict = {"frame": frame, "object_id": oid, "camera_id": cid}
        if has_box[i]:
            rec["bbox"] = box
        if has_kp[i]:
            rec["keypoints"] = annotations.keypoints[i].tolist()
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
            kp, joints = _keypoint_rows(rec["keypoints"], joints, spath, lineno)
        keypoints.append(kp)
    frame, oid = np.array(frames, dtype=np.int64), np.array(oids, dtype=np.int64)
    order = np.lexsort((oid, frame))
    return TrackTable(
        frame=frame[order],
        object_id=oid[order],
        position=np.array(positions).reshape(-1, 3)[order],
        half_axes=np.array(half_axes).reshape(-1, 3)[order],
        keypoints=_sorted_keypoints(keypoints, order, joints),
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

    Every annotation must reference a calibrated camera, and keypoint rows
    must agree in joint count with the skeleton when one is given (with each
    other they agree on load).
    """
    cams = load_calibration(calibration_path, units=units)
    ann = load_annotations(annotations_path)
    pose = load_skeleton(skeleton) if skeleton is not None else None
    unknown = ~np.isin(ann.camera_id, list(cams))
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ValidationError(
            f"frame {ann.frame[i]}, object {ann.object_id[i]}: unknown camera {ann.camera_id[i]}"
        )
    if pose is not None and ann.keypoints is not None and ann.keypoints.shape[1] != pose.num_joints:
        i = int(np.argmax(ann.has_keypoints))
        raise ValidationError(
            f"frame {ann.frame[i]}, object {ann.object_id[i]}, camera {ann.camera_id[i]}: "
            f"{ann.keypoints.shape[1]} keypoints, expected {pose.num_joints}"
        )
    return SceneBundle(calibration=cams, annotations=ann, skeleton=pose)
