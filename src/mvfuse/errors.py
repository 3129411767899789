"""Exception hierarchy.

Everything raised on purpose by this package derives from :class:`MvfuseError`,
so callers can catch one type at the boundary. There is one class for each way
a caller handles a failure; the message tells failures of one class apart.
Numerical failures carry enough context to identify the offending entity
(camera, frame, object) where known. A bad argument, such as operands of the
wrong shape or a non-positive time step, is a ``ValueError``: a bug in the
caller, never isolated as a failure of one row.
"""

from __future__ import annotations


class MvfuseError(Exception):
    """Base class for all package errors; the command line exits 1 on one."""


class GeometryError(MvfuseError):
    """Projective-geometry failure: a point or ellipsoid on or behind the
    camera, a singular ground homography, a ray parallel to the ground, a
    projection that overflows, or an outline that is not a bounded ellipse.
    ``ukf_update`` wraps it, ``init_target`` skips the camera and the
    synthetic renderer drops the box."""


class FilterError(MvfuseError):
    """Estimation failure of one row: a covariance not factorizable, a
    measurement map that fails on the sigma points, or a prediction or
    update that overflows or leaves the state's valid range.
    ``update_rows`` isolates the row."""


class NoObservation(MvfuseError):
    """Object has no usable observation (no birth possible); the tracker
    defers the birth."""


class ParseError(MvfuseError):
    """Malformed input file; the command line exits 2.

    Parameters
    ----------
    path : str
        File being parsed.
    line : int or None
        1-based line number where parsing failed, if known.
    reason : str
        Human-readable description.
    """

    def __init__(self, path: str, line: int | None, reason: str):
        self.path = str(path)
        self.line = line
        self.reason = reason
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {reason}")


class ValidationError(MvfuseError):
    """Structurally valid input with inconsistent content: a run config or
    scene spec out of range, or an empty ground truth; the command line
    exits 2."""
