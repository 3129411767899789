"""The track table: what fusion produces, the track files hold and the
metrics score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _present(col: np.ndarray, name: str) -> np.ndarray:
    """Mask (n,) of the rows of ``col`` that are all finite; every other row
    must be all NaN."""
    rows = tuple(range(1, col.ndim))
    present = np.isfinite(col).all(axis=rows)
    if not (present | np.isnan(col).all(axis=rows)).all():
        raise ValueError(f"each {name} row must be all finite or all NaN")
    return present


@dataclass(frozen=True, eq=False)
class TrackTable:
    """Tracks as columns, one row per (frame, object): ``frame`` and
    ``object_id`` (n,) integers, the 3D ``position`` (n, 3), the ellipsoid
    ``half_axes`` (n, 3) and the 3D ``keypoints`` (n, J, 3).

    Rows are sorted by (frame, object id), each pair at most once. A row
    without half-axes (keypoints) is all NaN there; ``half_axes=None`` means
    no row has them, and ``keypoints`` is None when no row has keypoints (a
    column of NaN rows becomes None). Every column is checked at once and
    frozen.
    """

    frame: np.ndarray
    object_id: np.ndarray
    position: np.ndarray
    half_axes: np.ndarray | None = None
    keypoints: np.ndarray | None = None

    def __post_init__(self):
        frame, oid = np.asarray(self.frame), np.asarray(self.object_id)
        if any(a.ndim != 1 or (a.size and a.dtype.kind not in "iu") for a in (frame, oid)):
            raise ValueError("frame and object_id must be 1-D integer arrays")
        frame, oid = frame.astype(np.int64, copy=False), oid.astype(np.int64, copy=False)
        n = len(frame)
        pos = np.asarray(self.position, dtype=np.float64)
        half = np.full((n, 3), np.nan) if self.half_axes is None else self.half_axes
        half = np.asarray(half, dtype=np.float64)
        if oid.shape != (n,) or pos.shape != (n, 3) or half.shape != (n, 3):
            raise ValueError(
                f"{n} frames need {n} object ids and (n, 3) position and half_axes, "
                f"got {oid.shape}, {pos.shape} and {half.shape}"
            )
        step = np.diff(frame)
        if not ((step > 0) | ((step == 0) & (np.diff(oid) > 0))).all():
            raise ValueError("rows must be sorted by (frame, object_id), each pair once")
        if not np.isfinite(pos).all():
            raise ValueError("position contains non-finite values")
        _present(half, "half_axes")
        if (half <= 0).any():
            raise ValueError("half_axes must be positive")
        kp = self.keypoints
        if kp is not None:
            kp = np.asarray(kp, dtype=np.float64)
            if kp.ndim != 3 or kp.shape[0] != n or kp.shape[1] < 1 or kp.shape[2] != 3:
                raise ValueError(f"keypoints must be (n, J, 3) with n = {n}, got {kp.shape}")
            if not _present(kp, "keypoints").any():
                kp = None
        for name, col in (
            ("frame", frame), ("object_id", oid), ("position", pos),
            ("half_axes", half), ("keypoints", kp),
        ):
            if col is not None:
                col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.frame)

    @property
    def has_half_axes(self) -> np.ndarray:
        """Mask (n,) of the rows with half-axes."""
        return ~np.isnan(self.half_axes[:, 0])

    @property
    def has_keypoints(self) -> np.ndarray:
        """Mask (n,) of the rows with keypoints."""
        if self.keypoints is None:
            return np.zeros(len(self), dtype=bool)
        return ~np.isnan(self.keypoints[:, 0, 0])
