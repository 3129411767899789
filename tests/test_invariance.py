"""Invariance checks: the same scene, described differently, gives the same
tracks (metamorphic testing: Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM CSUR 2018).

Ground truth should not depend on how a user numbers objects or frames, or
on where the world origin is. Each check fuses a synthetic scene twice, once
as rendered and once transformed, and needs no ground truth. Relabelling the
objects also reverses their rows in the stacked filter, so it checks that
rows never mix.
"""

from functools import lru_cache

import numpy as np
import pytest

from mvfuse import AnnotationTable, CameraModel, RunConfig, SceneSpec, generate, run_all

# (motion, pixel noise sigma, q_pos) of the 6-object, 4-camera, 120-frame scene.
_SCENES = [
    (motion, sigma, q_pos)
    for motion, q_pos in (("constant-velocity", 1e-6), ("waypoint", 1.0))
    for sigma in (0.0, 1.0, 3.0)
]
# The pose workload's scene under a process noise whose predicts overflow:
# box updates are skipped and both objects end early.
_SKIPS = "pose-q1e307"
CASES = [*_SCENES, _SKIPS]
IDS = [f"{m}-sigma{s:g}" for m, s, _ in _SCENES] + [_SKIPS]


@lru_cache(maxsize=None)
def _scene(case):
    """(annotations, cameras, config, skeleton) of one case."""
    if case == _SKIPS:
        spec = SceneSpec(seed=1, num_objects=2, num_cameras=5, frames=50, fps=10.0,
                         skeleton="panoptic15")
        config = RunConfig(q_pos=1e307, dt=1.0, skeleton="panoptic15")
    else:
        motion, sigma, q_pos = case
        spec = SceneSpec(seed=3, num_objects=6, num_cameras=4, frames=120, fps=10.0,
                         motion=motion, pixel_noise=sigma)
        noise = {"r_bbox": sigma ** 2, "r_keypoint": sigma ** 2} if sigma else {}
        config = RunConfig(dt=0.1, q_pos=q_pos, **noise)
    bundle, _ = generate(spec)
    return bundle.annotations, bundle.calibration, config, bundle.skeleton


def _fuse(annotations, cams, config, skeleton):
    events = []
    tracks = run_all(annotations, cams, config, skeleton, on_event=events.append)
    return tracks, events


@lru_cache(maxsize=None)
def _reference(case):
    ann, cams, config, skeleton = _scene(case)
    tracks, events = _fuse(ann, cams, config, skeleton)
    if case == _SKIPS:
        assert {"update_skipped", "predict_failed"} <= {e.kind for e in events}
    return tracks, events


def _resorted(ann: AnnotationTable, frame, object_id) -> AnnotationTable:
    """``ann`` with new frame and object id columns, rows sorted again."""
    order = np.lexsort((ann.camera_id, object_id, frame))
    return AnnotationTable(
        frame=frame[order],
        object_id=object_id[order],
        camera_id=ann.camera_id[order],
        bbox=ann.bbox[order],
        keypoints=None if ann.keypoints is None else ann.keypoints[order],
    )


def _bits(a) -> bytes:
    return b"" if a is None else np.ascontiguousarray(a).tobytes()


def _object(tracks, events, oid):
    """An object's track columns as bytes, and its diagnostics in order."""
    rows = tracks.object_id == oid
    kp = None if tracks.keypoints is None else tracks.keypoints[rows]
    columns = [_bits(c) for c in (tracks.position[rows], tracks.half_axes[rows], kp)]
    diags = [(d.kind, d.frame, d.camera_id, d.message) for d in events if d.object_id == oid]
    return tracks.frame[rows].tolist(), columns, diags


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_reversed_object_ids_give_identical_tracks(case):
    ann, cams, config, skeleton = _scene(case)
    tracks, events = _reference(case)
    top = int(ann.object_id.max())
    relabelled = _resorted(ann, ann.frame, top - ann.object_id)
    tracks_r, events_r = _fuse(relabelled, cams, config, skeleton)
    assert sorted(tracks_r.object_id.tolist()) == sorted((top - tracks.object_id).tolist())
    for oid in np.unique(ann.object_id).tolist():
        assert _object(tracks_r, events_r, top - oid) == _object(tracks, events, oid)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_shifted_frames_give_identical_tracks(case):
    shift = 10 ** 6
    ann, cams, config, skeleton = _scene(case)
    tracks, events = _reference(case)
    tracks_s, events_s = _fuse(
        _resorted(ann, ann.frame + shift, ann.object_id), cams, config, skeleton
    )
    assert (tracks_s.frame - shift).tolist() == tracks.frame.tolist()
    assert tracks_s.object_id.tolist() == tracks.object_id.tolist()
    for a, b in ((tracks_s.position, tracks.position), (tracks_s.half_axes, tracks.half_axes),
                 (tracks_s.keypoints, tracks.keypoints)):
        assert _bits(a) == _bits(b)
    moved = [(d.kind, d.object_id, None if d.frame is None else d.frame - shift, d.camera_id,
              d.message) for d in events_s]
    assert moved == [(d.kind, d.object_id, d.frame, d.camera_id, d.message) for d in events]


@pytest.mark.parametrize("shift", [(1e3, -2e3), (-2e5, 3e5), (5e6, -5e6)])
@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_shifted_world_moves_tracks_with_it(case, shift):
    # A georeferenced site: every world point moves by s = (sx, sy, 0), and
    # each camera with it (X_cam = R X + t = R (X + s) + (t - R s)). Only
    # rounding moves, and it grows with |s|: over these cases and the four
    # sign combinations of (5e6, 5e6), the worst was 8.9e-7 m in position
    # (sigma = 0, shift (5e6, -5e6)) and 1.04e-7 m in half-axes (the skipped
    # updates case, same shift). The bounds are about 3x that.
    s = np.array([*shift, 0.0])
    ann, cams, config, skeleton = _scene(case)
    tracks, events = _reference(case)
    moved = {
        cid: CameraModel(
            intrinsics=cam.intrinsics,
            rotation=cam.rotation,
            translation=cam.translation - cam.rotation @ s,
            image_size=cam.image_size,
        )
        for cid, cam in cams.items()
    }
    tracks_w, events_w = _fuse(ann, moved, config, skeleton)
    assert tracks_w.frame.tolist() == tracks.frame.tolist()
    assert tracks_w.object_id.tolist() == tracks.object_id.tolist()
    assert [(d.kind, d.object_id) for d in events_w] == [(d.kind, d.object_id) for d in events]
    np.testing.assert_allclose(tracks_w.position - s, tracks.position, rtol=0, atol=3e-6)
    np.testing.assert_allclose(tracks_w.half_axes, tracks.half_axes, rtol=0, atol=3e-7)
