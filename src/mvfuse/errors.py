"""Exception hierarchy.

Everything raised on purpose by this package derives from :class:`MvfuseError`,
so callers can catch one type at the boundary. Numerical failures carry enough
context to identify the offending entity (camera, frame, object) where known.
"""

from __future__ import annotations


class MvfuseError(Exception):
    """Base class for all package errors."""


# --- geometry ---------------------------------------------------------------

class GeometryError(MvfuseError):
    """Base class for projective-geometry failures."""


class NonPositiveDepth(GeometryError):
    """Point lies on or behind the camera's principal plane."""


class DegenerateHomography(GeometryError):
    """Ground-plane homography is rank deficient (camera in the plane)."""


class PointAtInfinity(GeometryError):
    """Back-projected ray is parallel to the ground plane, or a projection overflows."""


class DegenerateConic(GeometryError):
    """Ellipsoid outline is not a bounded ellipse (camera inside or tangent)."""


# --- filter -----------------------------------------------------------------

class FilterError(MvfuseError):
    """Base class for estimation failures."""


class DimensionMismatch(FilterError):
    """Operands have incompatible shapes."""


class InvalidDt(FilterError):
    """Non-positive time step."""


class CholeskyFailure(FilterError):
    """Covariance not factorizable even after jitter escalation."""


class SingularInnovation(FilterError):
    """Innovation covariance not invertible; update cannot proceed."""


class SigmaPointProjectionFailure(FilterError):
    """A sigma point could not be pushed through the measurement map."""


class DivergentUpdate(FilterError):
    """A predicted or updated belief is not finite, or an update leaves the
    state's valid range."""


# --- tracking ---------------------------------------------------------------

class NoObservation(MvfuseError):
    """Object has no usable observation (no birth possible)."""


# --- metrics ----------------------------------------------------------------

class EmptyGroundTruth(MvfuseError):
    """Ground-truth track set contains no positions."""


# --- io / synth -------------------------------------------------------------

class ParseError(MvfuseError):
    """Malformed input file.

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
    """Structurally valid input with inconsistent content."""


class InvalidSpec(MvfuseError):
    """Synthetic scene specification is unsatisfiable or out of range."""
