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


def _present(col: np.ndarray, name: str) -> np.ndarray:
    """Mask (n,) of the rows of ``col`` that are all finite; every other row
    must be all NaN."""
    rows = tuple(range(1, col.ndim))
    present = np.isfinite(col).all(axis=rows)
    if not (present | np.isnan(col).all(axis=rows)).all():
        raise ValueError(f"each {name} row must be all finite or all NaN")
    return present


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


def _keypoint_column(kp, n: int) -> tuple[np.ndarray | None, np.ndarray]:
    """A checked (n, J, 3) keypoints column, None when no row has keypoints,
    and the mask (n,) of the rows that have them."""
    if kp is None:
        return None, np.zeros(n, dtype=bool)
    kp = np.asarray(kp, dtype=np.float64)
    if kp.ndim != 3 or kp.shape[0] != n or kp.shape[1] < 1 or kp.shape[2] != 3:
        raise ValueError(f"keypoints must be (n, J, 3) with n = {n}, got {kp.shape}")
    present = _present(kp, "keypoints")
    return (kp if present.any() else None), present


def _freeze(table, **cols) -> None:
    for name, col in cols.items():
        if col is not None:
            col.setflags(write=False)
        object.__setattr__(table, name, col)


class _Rows:
    """What the two tables share: one row per ``frame`` entry, and keypoints."""

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

    def __post_init__(self):
        frame, oid, cid = _key_columns(
            frame=self.frame, object_id=self.object_id, camera_id=self.camera_id
        )
        n = len(frame)
        box = np.full((n, 4), np.nan) if self.bbox is None else self.bbox
        box = np.asarray(box, dtype=np.float64)
        if box.shape != (n, 4):
            raise ValueError(f"bbox must be (n, 4) with n = {n}, got {box.shape}")
        has_box = _present(box, "bbox")
        disorder = (box[:, 0] > box[:, 2]) | (box[:, 1] > box[:, 3])
        _row_rule(disorder, "bbox", box, "bbox corners out of order: {}")
        kp, has_kp = _keypoint_column(self.keypoints, n)
        if not (has_box | has_kp).all():
            raise ValueError("every row needs a bbox or keypoints")
        _freeze(self, frame=frame, object_id=oid, camera_id=cid, bbox=box, keypoints=kp)

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
    half-axis that is not positive raises :class:`RowError`. Every column is
    checked at once and frozen.
    """

    frame: np.ndarray
    object_id: np.ndarray
    position: np.ndarray
    half_axes: np.ndarray | None = None
    keypoints: np.ndarray | None = None

    def __post_init__(self):
        frame, oid = _key_columns(frame=self.frame, object_id=self.object_id)
        n = len(frame)
        pos = np.asarray(self.position, dtype=np.float64)
        half = np.full((n, 3), np.nan) if self.half_axes is None else self.half_axes
        half = np.asarray(half, dtype=np.float64)
        if pos.shape != (n, 3) or half.shape != (n, 3):
            raise ValueError(
                f"{n} rows need (n, 3) position and half_axes, "
                f"got {pos.shape} and {half.shape}"
            )
        if not np.isfinite(pos).all():
            raise ValueError("position contains non-finite values")
        _present(half, "half_axes")
        _row_rule((half <= 0).any(axis=1), "half_axes", half, "half_axes must be positive")
        kp, _ = _keypoint_column(self.keypoints, n)
        _freeze(self, frame=frame, object_id=oid, position=pos, half_axes=half, keypoints=kp)

    @property
    def has_half_axes(self) -> np.ndarray:
        """Mask (n,) of the rows with half-axes."""
        return ~np.isnan(self.half_axes[:, 0])
