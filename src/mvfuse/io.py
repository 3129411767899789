"""File formats and run configuration.

Calibration is a JSON document; annotations and tracks are JSONL, one record
per line, where only a newline ends a line. All world units are meters
(``units="mm"`` on the calibration loader rescales millimeter extrinsics);
pixels for image-plane quantities. Writers emit keys in a fixed order so
identical inputs produce identical bytes.

One reader and one writer serve both JSONL tables, and take each table's
layout from its class (``KEY``, ``COLUMNS``, ``REQUIRED``); only the
messages for a bad file are theirs. The reader checks each record whole,
in line order: JSON syntax, integer keys, a payload, then each payload field
in ``COLUMNS`` order (not given twice for one key, its values numbers of the
right shape). The row rules (non-negative frames, box corners in order,
positive half-axes) are the tables': the first row a table refuses is
reported at the line of the record that gave the bad value. So of several
faults in a file, the first faulty record's comes first, and row-rule faults
only after every record is read.

It takes the records ``_CHUNK`` lines at a time. A chunk whose records are
all clean is checked as a whole: the keys by one ``itemgetter`` map and set
tests, the payload fields together, and each field's values by one
``np.array`` whose dtype, shape and finiteness are then tested. Any other
chunk is read record by record, which gives every message, ``file:line``
and the order of faults; a clean chunk has none to give. Either way a
chunk's values of a column end as one array. The collector is paused during
a read, since decoded records form no reference cycles.

Both run on orjson and keep ``json``'s text and errors. The writer gives the
bytes of ``json.dumps(record, separators=(",", ":"))``: a float is its
shortest round-trip repr, and a row with a float that orjson writes unlike
repr (magnitude in [1e-9, 1e-4) or >= 1e16) is written by ``json.dumps``. The
reader decodes a line with orjson, and a line orjson refuses (``NaN``,
``Infinity``, ``1e400``, a lone surrogate, a syntax error) with
``json.loads``, the reference, which reads it or raises its own error for it
(an integer longer than Python converts is refused as too long).
"""

from __future__ import annotations

import gc
import json
import math
import numbers
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, get_args, get_origin, get_type_hints

import numpy as np
import orjson

from .errors import ParseError, ValidationError
from .tracks import AnnotationTable, RowError, TrackTable

if TYPE_CHECKING:
    from .geometry import CameraModel
    from .pose import CanonicalPose

_UNIT_SCALE = {"m": 1.0, "mm": 1e-3}
_CAMERA_KEYS = frozenset(("id", "K", "R", "t", "width", "height"))
_CHUNK = 128  # rows per JSONL write, non-blank lines per check on read
# The field types checked, and what a value of each must be.
_KINDS = {
    float: ("a number", numbers.Real),
    int: ("an integer", numbers.Integral),
    bool: ("true or false", bool),
    str: ("a string", str),
}


def _finite(value: numbers.Real) -> bool:
    """Whether ``value`` converts to a finite float: an int too large for a
    float does not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The resolved field annotations of each Checked class.
_HINTS: dict[type, dict] = {}


class Checked:
    """Base of the frozen dataclasses read from a JSON object: the run
    config, the scene spec and its occlusions. A subclass sets ``_what``, the
    name of its object in messages; ``_items`` maps a tuple field to the
    ``Checked`` class of its items.

    Built, it raises ``ValidationError`` naming the first field whose value
    does not fit its annotation. A ``float`` field takes an int that converts
    to a finite float, or a finite float; an ``int`` field an int; neither a
    bool. ``bool`` and ``str`` fields take their own type. A tuple field
    takes a list or tuple whose items fit; None fits an optional field.
    """

    _items = {}

    def __post_init__(self):
        cls = type(self)
        hints = _HINTS.get(cls)
        if hints is None:  # resolved once per class, not per instance
            hints = _HINTS[cls] = get_type_hints(cls)
        for f in fields(self):
            hint, value = hints[f.name], getattr(self, f.name)
            args = get_args(hint) or (hint,)
            if value is None and type(None) in args:
                continue
            items = (value,)
            if get_origin(hint) is tuple:
                if not isinstance(value, (list, tuple)):
                    raise ValidationError(f"{f.name} must be a list, got {value!r}")
                items = value
            kind = next((k for k in _KINDS if k in args), None)
            if kind is None:
                continue
            what, cls = _KINDS[kind]
            for v in items:
                if not isinstance(v, cls) or (isinstance(v, bool) and kind is not bool):
                    raise ValidationError(f"{f.name} must be {what}, got {value!r}")
                if kind is float and not _finite(v):
                    raise ValidationError(f"{f.name} must be finite, got {value}")

    def _need(self, cond: bool, msg: str) -> None:
        if not cond:
            raise ValidationError(msg)

    def to_dict(self) -> dict:
        """The fields as JSON-ready data (``json.dumps`` writes a tuple as a list)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping):
        """``cls(**data)``, checked: unknown keys are refused, then a
        missing required key; each item of an ``_items`` field must be an
        object, read by its class's ``from_dict``."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown {cls._what} keys: {unknown}")
        missing = sorted(f.name for f in fields(cls) if f.default is MISSING and f.name not in data)
        if missing:
            raise ValidationError(f"{cls._what} missing key {missing[0]!r}")
        kwargs = dict(data)
        for name, item in cls._items.items():
            entries = kwargs.get(name)
            if isinstance(entries, (list, tuple)):  # anything else fails the field check
                parsed = []
                for entry in entries:
                    if not isinstance(entry, Mapping):
                        raise ValidationError(f"each {item._what} must be an object")
                    parsed.append(item.from_dict(entry))
                kwargs[name] = tuple(parsed)
        return cls(**kwargs)


@dataclass(frozen=True)
class RunConfig(Checked):
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

    _what = "config"

    def __post_init__(self):
        super().__post_init__()
        self._need(self.dt > 0, f"dt must be positive, got {self.dt}")
        self._need(self.alpha > 0, f"alpha must be positive, got {self.alpha}")
        self._need(self.q_pos >= 0, "q_pos must be non-negative")
        self._need(self.q_shape >= 0, "q_shape must be non-negative")
        self._need(self.r_bbox > 0, "r_bbox must be positive")
        self._need(self.r_keypoint > 0, "r_keypoint must be positive")
        half = tuple(float(v) for v in self.default_half_axes)
        self._need(
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
            self._need(getattr(self, name) > 0, f"{name} must be positive")
        self._need(
            0.0 <= self.visibility_threshold <= 1.0,
            "visibility_threshold must be within [0, 1]",
        )
        self._need(self.threshold > 0, "threshold must be positive")
        self._need(self.ospa_cutoff > 0, "ospa_cutoff must be positive")
        self._need(self.ospa_order >= 1, "ospa_order must be >= 1")
        self._need(
            self.ospa_window is None or self.ospa_window >= 1,
            "ospa_window must be >= 1 or null",
        )
        thresholds = tuple(float(v) for v in self.ap_thresholds)
        self._need(
            len(thresholds) > 0 and all(v > 0 for v in thresholds),
            "ap_thresholds must be positive",
        )
        # The report keys AP by each threshold's label, so no two may share one.
        labels = [f"{v:g}" for v in thresholds]
        for i, label in enumerate(labels):
            j = labels.index(label)
            self._need(
                i == j, f"ap_thresholds {thresholds[j]!r} and {thresholds[i]!r} are both AP@{label}"
            )
        self._need(self.recall_at > 0, "recall_at must be positive")
        object.__setattr__(self, "default_half_axes", half)
        object.__setattr__(self, "ap_thresholds", thresholds)


@dataclass(frozen=True)
class SceneBundle:
    """Everything one run needs: cameras, annotations, optional skeleton."""

    calibration: dict[int, CameraModel]
    annotations: AnnotationTable
    skeleton: CanonicalPose | None = None


def _json_loads(text: str, path: str, line: int | None = None) -> object:
    """``json.loads(text)``, its errors raised as a ParseError of ``path`` at
    ``line``, else at the error's own line: for an integer longer than
    Python converts, the line of the first such run of digits."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, line or exc.lineno, exc.msg) from exc
    except RecursionError as exc:
        raise ParseError(path, line, "JSON nested too deeply") from exc
    except ValueError as exc:  # only the integer digit limit raises it
        limit = sys.get_int_max_str_digits()
        if line is None:
            at = re.search(rf"(?<![\w.+-])-?\d{{{limit + 1},}}(?![\w.])", text)
            line = text.count("\n", 0, at.start()) + 1 if at else None
        raise ParseError(path, line, f"integer longer than {limit} digits") from exc


def _read_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(path), None, f"cannot read: {exc}") from exc
    return _json_loads(text, str(path))


def read_object(path, what: str) -> dict:
    """The JSON object in the file ``path``; anything else is a ParseError
    that calls it ``what``."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(str(path), None, f"{what} must be a JSON object")
    return doc


def _float_list(value, n: int, path: str, line: int | None, what: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ParseError(path, line, f"{what} must be a list of {n} numbers")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ParseError(path, line, f"{what} must contain numbers")
    if not all(map(_finite, value)):
        raise ParseError(path, line, f"{what} must be finite")
    return [float(v) for v in value]


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
    [...]}`` with no other key. Each entry has exactly the keys ``id``,
    row-major ``K`` (9), ``R`` (9), ``t`` (3), ``width`` and ``height``; any
    other key, lens distortion among them, is a ParseError, as the model is
    a pinhole on rectified pixels. ``units="mm"`` converts millimeter
    translations to meters.
    """
    from .geometry import CameraModel  # only the commands that read a rig load it

    spath = str(path)
    if units not in _UNIT_SCALE:
        raise ValidationError(f"unknown units {units!r}; expected 'm' or 'mm'")
    scale = _UNIT_SCALE[units]
    doc = _read_json(path)
    if isinstance(doc, dict) and "cameras" in doc:
        unknown = sorted(set(doc) - {"cameras"})
        if unknown:
            raise ParseError(spath, None, f"calibration has unknown keys: {unknown}")
        doc = doc["cameras"]
    if not isinstance(doc, list):
        raise ParseError(spath, None, "calibration must be a list of cameras")
    cams: dict[int, CameraModel] = {}
    for i, entry in enumerate(doc):
        where = f"camera #{i}"
        if not isinstance(entry, dict):
            raise ParseError(spath, None, f"{where} is not an object")
        unknown = sorted(set(entry) - _CAMERA_KEYS)
        if unknown:
            raise ParseError(spath, None, f"{where} has unknown keys: {unknown}")
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
            raise ValidationError(f"{spath}: duplicate camera id {cid}")
        try:
            cams[cid] = CameraModel(
                intrinsics=K, rotation=R, translation=t, image_size=size
            )
        except ValueError as exc:
            raise ValidationError(f"{spath}: camera {cid}: {exc}") from exc
    if not cams:
        raise ValidationError(f"{spath}: calibration contains no cameras")
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


def _chunks(path) -> Iterator[tuple[list[int], list[str]]]:
    """The line numbers and the text of the file's non-blank lines,
    ``_CHUNK`` lines at a time. A read error ends the file: the lines read
    before it are still yielded, then it is raised as a ParseError."""
    # Lines are read as they come, so the file is never held whole. A line
    # ends at "\n", "\r\n" or "\r"; str.splitlines() would also end one at a
    # U+2028 inside a string.
    linenos, lines, failure = [], [], None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.isspace():
                    linenos.append(lineno)
                    lines.append(line)
                    if len(lines) == _CHUNK:
                        yield linenos, lines
                        linenos, lines = [], []
    except (OSError, UnicodeDecodeError) as exc:
        failure = exc
    if lines:
        yield linenos, lines
    if failure is not None:
        raise ParseError(str(path), None, f"cannot read: {failure}") from failure


class _Reader:
    """The rows of one JSONL table, taken from its records a chunk of lines
    at a time, in line order.

    The table class names the fields: its ``KEY``, a row's integer fields,
    and its ``COLUMNS``, each payload field and its row width (None:
    keypoints, (J, 3)). A record needs one of its ``REQUIRED`` fields, else
    it is refused with ``missing``; the records of one key merge into one
    row, and a field given twice for a row is refused with ``duplicate``,
    formatted with the key and ``column``.

    Each column's values are kept as one checked array per chunk that has
    any, in line order.
    """

    def __init__(self, path, table, missing, duplicate):
        self.path, self.cls, self.missing, self.duplicate = str(path), table, missing, duplicate
        self.key, self.columns, self.required = table.KEY, table.COLUMNS, table.REQUIRED
        self.keys_of = itemgetter(*self.key)
        self.row_of: dict[tuple[int, ...], int] = {}  # key -> row, in first-seen order
        self.given = {c: {} for c in self.columns}  # column -> {row: line}, in line order
        self.values = {c: [] for c in self.columns}  # column -> segments of the values of `given`
        self.joints: tuple[int, int] | None = None  # (keypoint rows per record, first line)
        self.kp = next((c for c, width in self.columns.items() if width is None), None)

    def take(self, linenos: list[int], lines: list[str]) -> None:
        """Take a chunk of lines: in one pass if every record in it is clean
        (:meth:`take_clean`), else record by record (:meth:`record`), each
        column's values then stacked into one array."""
        if self.take_clean(linenos, lines):
            return
        for segments in self.values.values():
            segments.append([])
        for lineno, line in zip(linenos, lines):
            self.record(lineno, line)
        for segments in self.values.values():
            if values := segments.pop():
                segments.append(np.array(values))

    def take_clean(self, linenos: list[int], lines: list[str]) -> bool:
        """Take the chunk in one pass and return True if each record in it
        passes every check :meth:`record` makes and its values are numbers
        of the right shape; else take nothing and return False.

        Clean means: each line is an object orjson reads; its key fields are
        ints that fit 64 bits, and its key is new to the file; it has a
        required field; and the chunk's values of each column make one
        finite array of numbers, (m, width) or (m, J, 3) with the file's J.
        ``np.array`` reads a JSON true or false as a number, so a chunk with
        either word anywhere in its text is not clean."""
        # Numbers and key names have no "u", so the "u" of a true is looked
        # for alone: one memchr, several times faster than finding "true".
        # Every line but the last ends in "\n", so no "false" spans two.
        text = "".join(lines)
        if "u" in text or "false" in text:
            return False
        try:
            recs = list(map(orjson.loads, lines))
        except orjson.JSONDecodeError:
            return False
        if set(map(type, recs)) != {dict}:
            return False
        try:
            keys = list(map(self.keys_of, recs))
        except KeyError:
            return False
        ints = list(chain.from_iterable(keys))
        if (
            set(map(type, ints)) != {int}
            or not -(2**63) <= min(ints) <= max(ints) < 2**63
            or len(set(keys)) < len(keys)
            or not self.row_of.keys().isdisjoint(keys)
        ):
            return False
        got = {c: [rec.get(c) for rec in recs] for c in self.columns}
        if any(vs.count(None) == len(vs) for vs in zip(*(got[c] for c in self.required))):
            return False
        has, arrays = {}, {}
        for c, width in self.columns.items():
            has[c] = [v is not None for v in got[c]]
            if not any(has[c]):
                continue
            try:
                arr = np.array(list(compress(got[c], has[c])))
            except ValueError:  # rows of different lengths
                return False
            # keypoints: J rows of 3, J the file's or, in its first keypoints, these
            joints = self.joints[0] if self.joints else arr.shape[1] if arr.ndim > 1 else -1
            row = (width,) if width else (joints, 3)
            if not (arr.dtype.kind in "fi" and arr.shape[1:] == row and np.isfinite(arr).all()):
                return False
            arrays[c] = arr.astype(np.float64, copy=False)
        start = len(self.row_of)
        self.row_of.update(zip(keys, range(start, start + len(keys))))
        for c, arr in arrays.items():
            rows = compress(range(start, start + len(recs)), has[c])
            self.given[c].update(zip(rows, compress(linenos, has[c])))
            self.values[c].append(arr)
        if self.kp in arrays and self.joints is None:
            self.joints = (arrays[self.kp].shape[1], next(compress(linenos, has[self.kp])))
        return True

    def record(self, lineno: int, line: str) -> None:
        """Take one record, or raise the first fault it has. orjson reads an
        integer outside [-2**63, 2**64) as a float, so a record whose key
        field comes back a float is read again by ``json.loads``, which gives
        the integer the key check refuses."""
        spath = self.path
        try:
            rec = orjson.loads(line)
        except orjson.JSONDecodeError:
            rec = _json_loads(line, spath, lineno)
        if not isinstance(rec, dict):
            raise ParseError(spath, lineno, "record must be a JSON object")
        if float in {type(rec.get(f)) for f in self.key}:
            rec = _json_loads(line, spath, lineno)
        k = tuple(_integer(rec.get(f), spath, lineno, f) for f in self.key)
        if all(rec.get(c) is None for c in self.required):
            raise ParseError(spath, lineno, self.missing)
        row = self.row_of.setdefault(k, len(self.row_of))
        for c, width in self.columns.items():
            value = rec.get(c)
            if value is None:
                continue
            if row in self.given[c]:
                raise ValidationError(f"{spath}:{lineno}: " + self.duplicate.format(*k, column=c))
            self.given[c][row] = lineno
            if width is not None:
                self.values[c][-1].append(_float_list(value, width, spath, lineno, c))
                continue
            if not isinstance(value, list) or not value:
                raise ParseError(spath, lineno, f"{c} must be a non-empty list")
            # a bad row of the record is named before its row count
            rows = _float_rows(value, 3, spath, lineno, "keypoint row")
            self.joints = joints = self.joints or (len(value), lineno)
            if len(value) != joints[0]:
                raise ParseError(
                    spath, lineno, f"{len(value)} keypoint rows, line {joints[1]} has {joints[0]}"
                )
            self.values[c][-1].append(rows)

    def table(self):
        """The rows taken, as the table sorted by key, which checks its row
        rules."""
        spath, key, given = self.path, self.key, self.given
        keys = np.array(list(self.row_of), dtype=np.int64).reshape(-1, len(key)).T
        order = np.lexsort(keys[::-1])
        rank = np.argsort(order)  # first-seen row -> sorted row
        cols = dict(zip(key, keys[:, order]))
        for c, width in self.columns.items():
            if width is None and self.joints is None:
                continue
            row = (width,) if width else (self.joints[0], 3)
            cols[c] = np.full((len(order), *row), np.nan)
            rows, segments, lo = rank[list(given[c])], self.values[c], 0
            # Each segment goes straight to its sorted rows and is dropped,
            # so the load never holds a second, stacked copy.
            for i, seg in enumerate(segments):
                cols[c][rows[lo : lo + len(seg)]], segments[i] = seg, None
                lo += len(seg)
        try:
            return self.cls(**cols)
        except RowError as exc:
            # the line that gave the bad value; for a key, the row's first line
            row = int(order[exc.row])
            line = min(g[row] for c, g in given.items() if row in g and exc.column in (c, *key))
            raise ParseError(spath, line, exc.reason) from exc


def _read_jsonl(path, table, missing, duplicate):
    """Read the table class ``table`` from JSONL, records in any line order,
    checked as the module docstring says; the messages are :class:`_Reader`'s.

    The cyclic garbage collector is paused for the read: decoded records
    hold no reference cycles, so its passes over them would free nothing."""
    reader = _Reader(path, table, missing, duplicate)
    collect = gc.isenabled()
    gc.disable()
    try:
        for linenos, lines in _chunks(path):
            reader.take(linenos, lines)
        return reader.table()
    finally:
        if collect:
            gc.enable()


_DUMPS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
# orjson writes a float as its shortest round-trip repr, but for two forms:
# an exponent has no "+" and no leading zero (1e16, 1e-7; repr: 1e+16,
# 1e-07), and [1e-5, 1e-4) is positional (0.000015; repr: 1.5e-05). So
# only values in [1e-9, 1e-4) or at least 1e16 in magnitude are written
# differently, and only the rows that hold one are written by json.dumps.


def _write_jsonl(table, path) -> None:
    """Write ``table`` as JSONL, one record per row, in row order: its ``KEY``
    fields, then each of its payload ``COLUMNS`` that the row has, in the
    text ``json.dumps(record, separators=(",", ":"))`` gives. ``json.dumps``
    writes each row holding a float that orjson writes unlike repr (see
    ``_DUMPS``), orjson the rest. Rows are written ``_CHUNK`` at a time, so
    the file's text is never held whole."""
    keys = [getattr(table, f) for f in table.KEY]
    names = [c for c in table.COLUMNS if getattr(table, c) is not None]
    with open(path, "wb") as out:
        for lo in range(0, len(table), _CHUNK):
            hi = min(lo + _CHUNK, len(table))
            ids = zip(*(k[lo:hi].tolist() for k in keys))
            cols = [np.ascontiguousarray(getattr(table, c)[lo:hi]) for c in names]
            rows = [col.reshape(hi - lo, -1) for col in cols]
            shapes = zip(*((~np.isnan(r[:, 0])).tolist() for r in rows))
            flat = np.abs(np.hstack(rows))
            unlike = ((flat >= 1e-9) & (flat < 1e-4)) | (flat >= 1e16)
            lines = []
            for k, row, shape, fix in zip(ids, zip(*cols), shapes, unlike.any(axis=1).tolist()):
                rec = dict(zip(table.KEY, k))
                for c, v, has in zip(names, row, shape):
                    if has:
                        rec[c] = v.tolist() if fix else v
                if fix:
                    lines.append(json.dumps(rec, separators=(",", ":")).encode() + b"\n")
                else:
                    lines.append(orjson.dumps(rec, option=_DUMPS))
            out.write(b"".join(lines))


def load_annotations(path) -> AnnotationTable:
    """Read 2D annotations from JSONL, records in any order.

    Record schema: ``frame``, ``object_id``, ``camera_id``, plus ``bbox``
    (``[u_min, v_min, u_max, v_max]``) and/or ``keypoints`` (list of
    ``[u, v, visibility]``). A (frame, object, camera) may be split into a
    bbox record and a keypoints record, which load as one row; every keypoint
    record in one file must have the same number of rows.
    """
    return _read_jsonl(
        path, AnnotationTable, "record carries no bbox or keypoints",
        "duplicate {column} for frame {0}, object {1}, camera {2}",
    )


def save_annotations(annotations: AnnotationTable, path) -> None:
    """Write an annotation table as JSONL, one record per row, in row order:
    by (frame, object id, camera id)."""
    _write_jsonl(annotations, path)


def load_tracks(path) -> TrackTable:
    """Read a track table from JSONL, records in any order; every keypoint
    record in one file must have the same number of rows."""
    return _read_jsonl(
        path, TrackTable, "record needs a position", "duplicate entry for object {1}, frame {0}"
    )


def save_tracks(tracks: TrackTable, path) -> None:
    """Write a track table as JSONL, one record per row, in row order: by
    (frame, object id)."""
    _write_jsonl(tracks, path)


def load_skeleton(source) -> CanonicalPose:
    """Resolve a skeleton from a JSON file or, when ``source`` names no
    file (a directory or ``""`` included), a built-in name.

    A JSON skeleton is ``{"name": ..., "joints": [...], "coords": [[x, y, z],
    ...]}`` with coordinates in any consistent units; they are normalized on
    load.
    """
    from .pose import CanonicalPose, canonical_pose  # only a fusion run reads a skeleton

    name = str(source)
    if not Path(name).is_file():
        try:
            return canonical_pose(name)
        except ValueError as exc:
            raise ValidationError(
                f"{name!r} is neither a skeleton file nor a built-in name"
            ) from exc
    doc = read_object(name, "skeleton")
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


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2) + "\n")


def load_scene(
    calibration_path,
    annotations_path,
    skeleton=None,
    units: str = "m",
) -> SceneBundle:
    """Load a full scene: the calibration, the annotations and, when one is
    named, the skeleton, each checked on its own. Whether the annotations fit
    the rig and the skeleton (known cameras, the skeleton's joint count) is
    checked by :func:`~mvfuse.tracker.run_all`, which fuses them.
    """
    cams = load_calibration(calibration_path, units=units)
    ann = load_annotations(annotations_path)
    pose = load_skeleton(skeleton) if skeleton is not None else None
    return SceneBundle(calibration=cams, annotations=ann, skeleton=pose)
