"""The two tables: annotations, what fusion reads, and tracks, what fusion
produces, the track files hold and the metrics score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RowError(ValueError):
    """A row breaks a row rule of its table: ``row`` is the first bad row and
    ``column`` the column it breaks the rule in."""

    def __init__(self, row: int, column: str, reason: str):
        self.row, self.column, self.reason = row, column, reason
        super().__init__(f"row {row}: {reason}")


def _row_rule(bad: np.ndarray, column: str, values: np.ndarray, reason: str) -> None:
    """Raise :class:`RowError` at the first row of mask ``bad``, if any, with
    ``reason`` formatted with that row of ``values``."""
    if bad.any():
        row = int(np.argmax(bad))
        raise RowError(row, column, reason.format(values[row].tolist()))


def _key_columns(**cols) -> list[np.ndarray]:
    """The key columns as (n,) int64 arrays, checked to be integers of one
    length whose rows are in strictly increasing order of the keys, first key
    first, so that each key tuple appears once; a negative first key (the
    frame) raises :class:`RowError`."""
    names = ", ".join(cols)
    keys = [np.asarray(c) for c in cols.values()]
    if any(k.ndim != 1 or (k.size and k.dtype.kind not in "iu") for k in keys):
        raise ValueError(f"{names} must be 1-D integer arrays")
    n = [len(k) for k in keys]
    if len(set(n)) != 1:
        ids = " and ".join(name.replace("_id", " ids") for name in list(cols)[1:])
        raise ValueError(f"{n[0]} frames need {n[0]} {ids}, got {n[1:]}")
    keys = [k.astype(np.int64, copy=False) for k in keys]
    later = np.zeros(max(len(keys[0]) - 1, 0), dtype=bool)
    tied = ~later
    for k in keys:
        step = np.diff(k)
        later |= tied & (step > 0)
        tied &= step == 0
    if not later.all():
        raise ValueError(f"rows must be sorted by ({names}), each once")
    first = next(iter(cols))
    _row_rule(keys[0] < 0, first, keys[0], f"{first} must be non-negative")
    return keys


def _payload_column(col, name: str, width: int | None, n: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The checked column ``name``, (n, width) or, for keypoints (``width``
    None), (n, J, 3), and the mask (n,) of its rows that are all finite;
    every other row must be all NaN. A fixed-width column given as None is
    all NaN; keypoints given as None, or made only of NaN rows, are None."""
    if col is None and width is None:
        return None, np.zeros(n, dtype=bool)
    col = np.asarray(np.full((n, width), np.nan) if col is None else col, dtype=np.float64)
    if width is None:
        if col.ndim != 3 or col.shape[0] != n or col.shape[1] < 1 or col.shape[2] != 3:
            raise ValueError(f"{name} must be (n, J, 3) with n = {n}, got {col.shape}")
    elif col.shape != (n, width):
        raise ValueError(f"{name} must be (n, {width}) with n = {n}, got {col.shape}")
    rows = tuple(range(1, col.ndim))
    present = np.isfinite(col).all(axis=rows)
    if not (present | np.isnan(col).all(axis=rows)).all():
        raise ValueError(f"each {name} row must be all finite or all NaN")
    return (col if width or present.any() else None), present


class _Rows:
    """What the two tables share: one constructor for the layout each
    declares, one row per ``frame`` entry, and keypoints.

    A table declares its layout once, and the file codec in :mod:`mvfuse.io`
    reads it too: ``KEY``, its integer key columns in sort order;
    ``COLUMNS``, each payload column and its row width (None for the (J, 3)
    keypoints), in the order records are written; ``REQUIRED``, the payload
    columns a row must have one of. Its ``_row_rules(**columns)`` raises
    :class:`RowError` at the first row that breaks a rule of its own.
    """

    def __post_init__(self):
        cols = dict(zip(self.KEY, _key_columns(**{k: getattr(self, k) for k in self.KEY})))
        n = len(cols["frame"])
        has = np.zeros(n, dtype=bool)
        for c, width in self.COLUMNS.items():
            cols[c], present = _payload_column(getattr(self, c), c, width, n)
            if c in self.REQUIRED:
                has |= present
        if not has.all():
            raise ValueError(f"every row needs a {' or '.join(self.REQUIRED)}")
        self._row_rules(**cols)
        for name, col in cols.items():
            if col is not None:
                col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.frame)

    @property
    def has_keypoints(self) -> np.ndarray:
        """Mask (n,) of the rows with keypoints."""
        if self.keypoints is None:
            return np.zeros(len(self), dtype=bool)
        return ~np.isnan(self.keypoints[:, 0, 0])


@dataclass(frozen=True, eq=False)
class AnnotationTable(_Rows):
    """2D annotations as columns, one row per (frame, object, camera):
    ``frame``, ``object_id`` and ``camera_id`` (n,) integers, the pixel box
    ``bbox`` (n, 4) as (u_min, v_min, u_max, v_max) and the keypoint rows
    ``keypoints`` (n, J, 3) of (u, v, visibility).

    Rows are sorted by (frame, object id, camera id), each triple at most
    once; a row with a negative frame or box corners out of order raises
    :class:`RowError`. Presence follows :class:`TrackTable`: a row without a
    box (keypoints) is all NaN there, ``bbox=None`` means no row has one, and
    ``keypoints`` is None when no row has keypoints. Every row carries a box
    or keypoints. Every column is checked at once and frozen.
    """

    frame: np.ndarray
    object_id: np.ndarray
    camera_id: np.ndarray
    bbox: np.ndarray | None = None
    keypoints: np.ndarray | None = None

    KEY = ("frame", "object_id", "camera_id")
    COLUMNS = {"bbox": 4, "keypoints": None}
    REQUIRED = ("bbox", "keypoints")

    def _row_rules(self, bbox, **_) -> None:
        disorder = (bbox[:, 0] > bbox[:, 2]) | (bbox[:, 1] > bbox[:, 3])
        _row_rule(disorder, "bbox", bbox, "bbox corners out of order: {}")

    @property
    def has_bbox(self) -> np.ndarray:
        """Mask (n,) of the rows with a box."""
        return ~np.isnan(self.bbox[:, 0])


@dataclass(frozen=True, eq=False)
class TrackTable(_Rows):
    """Tracks as columns, one row per (frame, object): ``frame`` and
    ``object_id`` (n,) integers, the 3D ``position`` (n, 3), the ellipsoid
    ``half_axes`` (n, 3) and the 3D ``keypoints`` (n, J, 3).

    Rows are sorted by (frame, object id), each pair at most once. A row
    without half-axes (keypoints) is all NaN there; ``half_axes=None`` means
    no row has them, and ``keypoints`` is None when no row has keypoints (a
    column of NaN rows becomes None); a row with a negative frame or a
    half-axis that is not positive raises :class:`RowError`. Every row has a
    position. Every column is checked at once and frozen.
    """

    frame: np.ndarray
    object_id: np.ndarray
    position: np.ndarray
    half_axes: np.ndarray | None = None
    keypoints: np.ndarray | None = None

    KEY = ("frame", "object_id")
    COLUMNS = {"position": 3, "half_axes": 3, "keypoints": None}
    REQUIRED = ("position",)

    def _row_rules(self, half_axes, **_) -> None:
        _row_rule((half_axes <= 0).any(axis=1), "half_axes", half_axes, "half_axes must be positive")
