"""Multi-camera annotation fusion.

Lifts human-annotated 2D bounding boxes and pose keypoints from calibrated
cameras into 3D tracks — position, velocity, ellipsoid extent, and skeleton
keypoints per object — and scores tracks against ground truth.

Importing the package loads none of its modules: each public name, and each
module, is imported the first time it is looked up, so a caller pays only for
the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "CholeskyFailure", "DegenerateConic", "DegenerateHomography",
            "DimensionMismatch", "DivergentUpdate", "EmptyGroundTruth", "FilterError",
            "GeometryError", "InvalidDt", "InvalidSpec", "MvfuseError", "NonPositiveDepth",
            "NoObservation", "ParseError", "PointAtInfinity", "SigmaPointProjectionFailure",
            "SingularInnovation", "ValidationError",
        ),
        "filter": (
            "GaussianBelief", "MotionModel", "kalman_predict", "make_motion_model",
            "sigma_points", "ukf_update", "update_rows",
        ),
        "geometry": (
            "CameraModel", "backproject_ground", "ground_homography", "in_front",
            "project_ellipsoid_to_bbox", "project_point",
        ),
        "io": (
            "RunConfig", "SceneBundle", "load_annotations", "load_calibration",
            "load_scene", "load_skeleton", "load_tracks", "save_annotations",
            "save_calibration", "save_config", "save_tracks",
        ),
        "metrics": (
            "ClearMotResult", "MetricReport", "PoseMetrics", "clear_mot",
            "evaluate_tracks", "idf1", "ospa2", "pose_metrics",
        ),
        "pose": ("CanonicalPose", "canonical_pose", "init_keypoints", "scaled_offsets"),
        "synth": ("Occlusion", "SceneSpec", "generate"),
        "tracker": ("Diagnostic", "bbox_measurement", "init_target", "run_all"),
        "tracks": ("AnnotationTable", "TrackTable"),
    }.items()
    for name in names
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = sorted([*_EXPORTS, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
