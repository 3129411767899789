"""Multi-camera annotation fusion.

Lifts human-annotated 2D bounding boxes and pose keypoints from calibrated
cameras into 3D tracks — position, velocity, ellipsoid extent, and skeleton
keypoints per object — and scores tracks against ground truth.
"""

__version__ = "0.1.0"

from .errors import (
    CholeskyFailure,
    DegenerateConic,
    DegenerateHomography,
    DimensionMismatch,
    DivergentUpdate,
    EmptyGroundTruth,
    FilterError,
    GeometryError,
    InvalidDt,
    InvalidSpec,
    MvfuseError,
    NonPositiveDepth,
    NoObservation,
    ParseError,
    PointAtInfinity,
    SigmaPointProjectionFailure,
    SingularInnovation,
    TrackingError,
    ValidationError,
)
from .filter import (
    GaussianBelief,
    MotionModel,
    kalman_predict,
    make_motion_model,
    sigma_points,
    ukf_update,
    unscented_transform,
    update_rows,
)
from .geometry import (
    CameraModel,
    backproject_ground,
    ground_homography,
    in_front,
    project_ellipsoid_to_bbox,
    project_point,
)
from .io import (
    RunConfig,
    SceneBundle,
    load_annotations,
    load_calibration,
    load_config,
    load_scene,
    load_skeleton,
    load_tracks,
    save_annotations,
    save_calibration,
    save_config,
    save_tracks,
)
from .metrics import (
    ClearMotResult,
    MetricReport,
    PoseMetrics,
    clear_mot,
    evaluate_tracks,
    idf1,
    ospa2,
    pose_metrics,
)
from .pose import (
    CanonicalPose,
    canonical_pose,
    init_keypoints,
    scaled_offsets,
)
from .synth import Occlusion, SceneSpec, generate
from .tracker import (
    Diagnostic,
    bbox_measurement,
    init_target,
    run_all,
)
from .tracks import AnnotationTable, TrackTable

__all__ = [name for name in dir() if not name.startswith("_")]
