"""Tracker tests: measurement closure, target birth, frame walking, and
stacked multi-object runs."""

from types import SimpleNamespace

import numpy as np
import pytest

from mvfuse import (
    AnnotationTable,
    CameraModel,
    CholeskyFailure,
    DivergentUpdate,
    GaussianBelief,
    NoObservation,
    Occlusion,
    RunConfig,
    SceneSpec,
    SigmaPointProjectionFailure,
    TrackTable,
    ValidationError,
    bbox_measurement,
    canonical_pose,
    generate,
    in_front,
    init_keypoints,
    init_target,
    project_ellipsoid_to_bbox,
    project_point,
    run_all,
    save_tracks,
    scaled_offsets,
    sigma_points,
)
from mvfuse.errors import NonPositiveDepth, DegenerateConic
from mvfuse.filter import POS, SHAPE, VEL, kalman_predict, make_motion_model, ukf_update
from mvfuse import tracker as tracker_mod
from mvfuse.tracks import RowError

from oracles import dual_quadric_bbox, random_camera
from test_geometry import _side_camera


def _cam(K, R, t, width=1920, height=1080):
    return CameraModel(
        intrinsics=K, rotation=R, translation=t, image_size=(width, height)
    )


def _state(position, half_axes, velocity=(0.0, 0.0, 0.0)):
    x = np.zeros(9)
    x[POS] = position
    x[VEL] = velocity
    x[SHAPE] = np.log(half_axes)
    return x


def _box_for(cam, position, half_axes):
    return project_ellipsoid_to_bbox(cam, position, half_axes)


def _annotations(*records):
    """An annotation table from (frame, object id, camera id, bbox[,
    keypoints]) records in any order; None marks a missing bbox or
    keypoints."""
    records = sorted(((*r, None)[:5] for r in records), key=lambda r: r[:3])
    J = next((len(r[4]) for r in records if r[4] is not None), 0)
    boxes = [np.full(4, np.nan) if r[3] is None else r[3] for r in records]
    kps = [np.full((J, 3), np.nan) if r[4] is None else r[4] for r in records]
    return AnnotationTable(
        [r[0] for r in records], [r[1] for r in records], [r[2] for r in records],
        bbox=np.array(boxes, dtype=float).reshape(-1, 4),
        keypoints=np.array(kps, dtype=float).reshape(-1, J, 3) if J else None,
    )


def _rows(table, keep):
    """The annotation table of the rows ``keep`` of ``table``."""
    kp = None if table.keypoints is None else table.keypoints[keep]
    return AnnotationTable(
        table.frame[keep], table.object_id[keep], table.camera_id[keep], table.bbox[keep], kp
    )


def _ids(table):
    return np.unique(table.object_id).tolist()


def _track(table, oid):
    """The rows of one object of a track table."""
    rows = table.object_id == oid
    kp = None if table.keypoints is None else table.keypoints[rows]
    return SimpleNamespace(
        frame=table.frame[rows], position=table.position[rows],
        half_axes=table.half_axes[rows], keypoints=kp,
    )


class TestBBoxMeasurement:
    def test_decodes_center_and_log_half_axes(self, axis_camera):
        got = bbox_measurement(axis_camera)(_state([1.0, 2.0, 5.0], [0.3, 0.4, 0.9]))
        want = project_ellipsoid_to_bbox(axis_camera, [1.0, 2.0, 5.0], [0.3, 0.4, 0.9])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_velocity_entries_ignored(self, axis_camera):
        h = bbox_measurement(axis_camera)
        a = h(_state([0, 0, 5], [0.3, 0.3, 0.9]))
        b = h(_state([0, 0, 5], [0.3, 0.3, 0.9], velocity=(5, -3, 2)))
        np.testing.assert_array_equal(a, b)

    def test_rejects_wrong_state_length(self, axis_camera):
        with pytest.raises(ValueError):
            bbox_measurement(axis_camera)(np.zeros(6))

    def test_matches_dual_quadric_projection(self):
        # The reduced conic form must agree with the transparent 4x4 dual
        # quadric route on generic states.
        rng = np.random.default_rng(42)
        for _ in range(50):
            K, R, t, w, h = random_camera(rng)
            cam = _cam(K, R, t, w, h)
            position = rng.uniform([-2, -2, 0.3], [2, 2, 1.8])
            half = rng.uniform(0.2, 1.0, size=3)
            got = bbox_measurement(cam)(_state(position, half))
            want = dual_quadric_bbox(cam.projection_matrix, position, half)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_maps_sigma_matrix_row_by_row(self, axis_camera):
        rng = np.random.default_rng(43)
        X = np.stack(
            [_state(rng.uniform([-1, -1, 4], [1, 1, 6]), rng.uniform(0.2, 1.0, 3))
             for _ in range(19)]
        )
        h = bbox_measurement(axis_camera)
        Z = h(X)
        assert Z.shape == (19, 4)
        for x, z in zip(X, Z):
            np.testing.assert_array_equal(z, h(x))

    def test_behind_camera_raises(self, axis_camera):
        h = bbox_measurement(axis_camera)
        with pytest.raises(NonPositiveDepth):
            h(_state([0.0, 0.0, -2.0], [0.3, 0.3, 0.9]))

    def test_camera_inside_ellipsoid_raises(self, axis_camera):
        h = bbox_measurement(axis_camera)
        with pytest.raises(DegenerateConic):
            h(_state([0.0, 0.0, 0.5], [2.0, 2.0, 2.0]))


class TestInitTarget:
    def test_single_camera_hand_case(self, overhead_camera, config):
        # Bottom-edge midpoint (600, 300) backprojects to ground (1, 2);
        # z starts at the default half-height.
        box = [580.0, 240.0, 620.0, 300.0]
        belief = init_target([0], [box], {0: overhead_camera}, config)
        mean, cov = belief.mean[0], belief.covariance[0]
        np.testing.assert_allclose(mean[POS], [1.0, 2.0, 0.9], atol=1e-9)
        np.testing.assert_array_equal(mean[VEL], 0.0)
        np.testing.assert_allclose(
            mean[SHAPE], np.log([0.3, 0.3, 0.9]), atol=1e-12
        )
        np.testing.assert_allclose(
            np.diag(cov),
            [0.25, 1.0, 0.25, 1.0, 0.25, 1.0, 0.05, 0.05, 0.05],
        )

    def test_two_cameras_average(self, overhead_camera, config):
        boxes = [
            [780.0, 40.0, 820.0, 100.0],  # camera 1: feet -> (3, 4)
            [580.0, 240.0, 620.0, 300.0],  # camera 0: feet -> (1, 2)
        ]
        cams = {0: overhead_camera, 1: overhead_camera}
        belief = init_target([1, 0], boxes, cams, config)
        np.testing.assert_allclose(
            belief.mean[0, POS], [2.0, 3.0, 0.9], atol=1e-9
        )

    def test_degenerate_camera_skipped(self, overhead_camera, config):
        # A camera at ground height has a singular ground homography; its box
        # must not poison the average.
        ground_cam = _cam(
            overhead_camera.intrinsics,
            np.diag([1.0, -1.0, -1.0]),
            np.zeros(3),
            1000,
            1000,
        )
        box = [580.0, 240.0, 620.0, 300.0]
        good = init_target([0], [box], {0: overhead_camera}, config)
        mixed = init_target(
            [0, 1],
            [box, [0.0, 0.0, 50.0, 50.0]],
            {0: overhead_camera, 1: ground_cam},
            config,
        )
        np.testing.assert_array_equal(good.mean, mixed.mean)

    def test_no_usable_camera_raises(self, config):
        ground_cam = _cam(
            np.array([[1000.0, 0, 500.0], [0, 1000.0, 500.0], [0, 0, 1.0]]),
            np.diag([1.0, -1.0, -1.0]),
            np.zeros(3),
            1000,
            1000,
        )
        with pytest.raises(NoObservation):
            init_target([0], [[0, 0, 10, 10]], {0: ground_cam}, config)


def _two_camera_rig():
    """Overhead camera plus an oblique one, both seeing the arena center."""
    rng = np.random.default_rng(7)
    K, R, t, w, h = random_camera(rng, distance=9.0)
    overhead = _cam(
        np.array([[1000.0, 0, 500.0], [0, 1000.0, 500.0], [0, 0, 1.0]]),
        np.diag([1.0, -1.0, -1.0]),
        np.array([0.0, 0.0, 10.0]),
        1000,
        1000,
    )
    return {0: overhead, 1: _cam(K, R, t, w, h)}


def _annotations_for(cams, path, half=(0.3, 0.3, 0.9), oid=1):
    """Boxes for an object moving along ``path`` (frame -> position)."""
    return _annotations(
        *((k, oid, cid, _box_for(cam, pos, half)) for k, pos in path.items() for cid, cam in cams.items())
    )


class TestTrackObject:
    def test_matches_manual_replay(self, config):
        # The tracker must be exactly: init, then per frame (predict unless
        # birth) followed by one chained UKF update per camera in id order.
        cams = _two_camera_rig()
        half = (0.3, 0.3, 0.9)
        path = {k: np.array([0.5 + 0.1 * k, -0.4 + 0.05 * k, 0.9]) for k in range(4)}
        annotations = _annotations_for(cams, path)

        track = run_all(annotations, cams, config)

        b = init_target(
            list(cams), [_box_for(cam, path[0], half) for cam in cams.values()], cams, config
        )
        mean, cov = b.mean, b.covariance
        motion = make_motion_model(config.dt, config.q_pos, config.q_shape)
        r_box = config.r_bbox * np.eye(4)
        for k in range(4):
            if k > 0:
                mean, cov = kalman_predict(mean, cov, motion)
            for cid in sorted(cams):
                mean, cov = ukf_update(
                    mean,
                    cov,
                    _box_for(cams[cid], path[k], half),
                    bbox_measurement(cams[cid]),
                    r_box,
                    alpha=config.alpha,
                    beta=config.beta,
                    kappa=config.kappa,
                )
            assert (track.frame[k], track.object_id[k]) == (k, 1)
            np.testing.assert_array_equal(track.position[k], mean[0, POS])
            np.testing.assert_array_equal(track.half_axes[k], np.exp(mean[0, SHAPE]))
        assert track.keypoints is None

    def test_keypoints_match_manual_replay(self, config):
        # Keypoints must be exactly: the box replay, init_keypoints from the
        # birth frame's box posterior, then per frame a predict unless birth
        # and one stacked ukf_update per camera in id order over the joints
        # that camera sees; joint 3 is flagged invisible to camera 0 in frame 1.
        cams = _two_camera_rig()
        skeleton = canonical_pose("panoptic15")
        half = (0.3, 0.3, 0.9)
        path = {k: np.array([0.5 + 0.1 * k, -0.4 + 0.05 * k, 0.9]) for k in range(2)}
        pixels = {
            (k, cid): np.hstack([
                project_point(cam, path[k] + scaled_offsets(skeleton, half) + 0.01 * k),
                np.ones((15, 1)),
            ])
            for k in path for cid, cam in cams.items()
        }
        pixels[1, 0][3, 2] = 0.0
        annotations = _annotations(*(
            (k, 1, cid, _box_for(cam, path[k], half), pixels[k, cid])
            for k in path for cid, cam in cams.items()
        ))

        track = run_all(annotations, cams, config, skeleton=skeleton)

        scaling = dict(alpha=config.alpha, beta=config.beta, kappa=config.kappa)
        motion = make_motion_model(config.dt, config.q_pos, config.q_shape)
        kp_motion = make_motion_model(config.dt, config.q_pos)
        b = init_target(
            list(cams), [_box_for(cam, path[0], half) for cam in cams.values()], cams, config
        )
        mean, cov = b.mean, b.covariance
        seen_counts = []
        for k in path:
            if k > 0:
                mean, cov = kalman_predict(mean, cov, motion)
                kp_mean, kp_cov = kalman_predict(kp_mean, kp_cov, kp_motion)
            for cid in sorted(cams):
                mean, cov = ukf_update(
                    mean, cov, _box_for(cams[cid], path[k], half), bbox_measurement(cams[cid]),
                    config.r_bbox * np.eye(4), **scaling,
                )
            if k == 0:
                kp = init_keypoints(skeleton, mean, config)
                kp_mean, kp_cov = kp.mean, kp.covariance
            for cid in sorted(cams):
                seen = np.flatnonzero(pixels[k, cid][:, 2] >= config.visibility_threshold)
                seen_counts.append(seen.size)
                post = ukf_update(
                    kp_mean[seen], kp_cov[seen],
                    pixels[k, cid][seen, :2],
                    lambda X, cam=cams[cid]: project_point(cam, X[..., POS]),
                    config.r_keypoint * np.eye(2), **scaling,
                )
                kp_mean, kp_cov = kp_mean.copy(), kp_cov.copy()
                kp_mean[seen], kp_cov[seen] = post
            np.testing.assert_array_equal(track.position[k], mean[0, POS])
            np.testing.assert_array_equal(track.keypoints[k], kp_mean[:, POS])
        assert seen_counts == [15, 15, 14, 15]

    def test_gap_frames_are_predict_only(self, config):
        cams = _two_camera_rig()
        path = {0: np.array([0.5, -0.4, 0.9]), 3: np.array([0.8, -0.25, 0.9])}
        annotations = _annotations_for(cams, path)

        track = run_all(annotations, cams, config)
        assert track.frame.tolist() == [0, 1, 2, 3]

        motion = make_motion_model(config.dt, config.q_pos, config.q_shape)
        first = run_all(_annotations_for(cams, {0: path[0]}), cams, config).position[-1]
        # Re-derive frames 1 and 2 by pure prediction from the frame-0 output.
        b = init_target(
            list(cams), [_box_for(cam, path[0], (0.3, 0.3, 0.9)) for cam in cams.values()],
            cams, config,
        )
        r_box = config.r_bbox * np.eye(4)
        mean, cov = b.mean, b.covariance
        for cid in sorted(cams):
            mean, cov = ukf_update(
                mean,
                cov,
                _box_for(cams[cid], path[0], (0.3, 0.3, 0.9)),
                bbox_measurement(cams[cid]),
                r_box,
                alpha=config.alpha,
                beta=config.beta,
                kappa=config.kappa,
            )
        for k in (1, 2):
            mean, cov = kalman_predict(mean, cov, motion)
            np.testing.assert_array_equal(track.position[k], mean[0, POS])
        np.testing.assert_array_equal(first, track.position[0])

    def test_track_spans_birth_to_last_observation(self, config):
        cams = _two_camera_rig()
        path = {3: np.array([0.5, -0.4, 0.9]), 5: np.array([0.6, -0.3, 0.9])}
        annotations = _annotations_for(cams, path)
        track = run_all(annotations, cams, config)
        assert track.frame.tolist() == [3, 4, 5]

    def test_failed_update_skipped_with_diagnostic(self, overhead_camera, config):
        # Camera 1 sits above the scene looking further up: the target is
        # behind it, every sigma point fails, and the update must be skipped
        # without killing the track.
        sky_cam = _cam(
            overhead_camera.intrinsics,
            np.eye(3),
            np.array([0.0, 0.0, -5.0]),
            1000,
            1000,
        )
        cams = {0: overhead_camera, 1: sky_cam}
        half = (0.3, 0.3, 0.9)
        pos = np.array([1.0, 2.0, 0.9])
        good_box = _box_for(overhead_camera, pos, half)
        annotations = _annotations(
            (0, 1, 0, good_box), (1, 1, 0, good_box), (1, 1, 1, [100, 100, 200, 200])
        )
        events = []
        track = run_all(annotations, cams, config, on_event=events.append)
        assert len(track) == 2
        assert [
            (d.kind, d.object_id, d.frame, d.camera_id) for d in events
        ] == [("update_skipped", 1, 1, 1)]

    def test_some_sigma_points_behind_camera_skip_update(self, overhead_camera):
        # Camera 0 looks down from 0.7 m above the object's top. With a wide
        # birth belief, only the sigma point pushed up in z lands behind it:
        # one failed row fails the whole update, which is skipped once.
        near = _cam(
            overhead_camera.intrinsics,
            np.diag([1.0, -1.0, -1.0]),
            np.array([-1.0, 2.0, 2.5]),
            1000,
            1000,
        )
        cams = {0: near, 1: overhead_camera}
        pos, half = np.array([1.0, 2.0, 0.9]), (0.3, 0.3, 0.9)
        boxes = {cid: _box_for(cam, pos, half) for cid, cam in cams.items()}
        config = RunConfig(dt=0.1, init_pos_var=100.0)

        belief = init_target(list(boxes), list(boxes.values()), cams, config)
        X, _, _ = sigma_points(belief.mean, belief.covariance)
        front = in_front(near, X[..., POS])
        assert front.any() and not front.all()
        with pytest.raises(SigmaPointProjectionFailure) as info:
            ukf_update(belief.mean, belief.covariance, boxes[0], bbox_measurement(near),
                       config.r_bbox * np.eye(4))
        assert isinstance(info.value.__cause__, NonPositiveDepth)

        events = []
        track = run_all(
            _annotations(*((0, 1, cid, box) for cid, box in boxes.items())),
            cams, config, on_event=events.append,
        )
        assert len(track) == 1
        assert [
            (d.kind, d.object_id, d.frame, d.camera_id) for d in events
        ] == [("update_skipped", 1, 0, 0)]

    def test_keypoints_attached_when_annotated(self, config):
        cams = _two_camera_rig()
        skeleton = canonical_pose("panoptic15")
        pos = np.array([0.5, -0.4, 0.9])
        half = (0.3, 0.3, 0.9)
        kp_rows = np.hstack(
            [np.full((15, 2), 500.0), np.ones((15, 1))]
        )
        annotations = _annotations(
            *((f, 1, cid, _box_for(cam, pos, half), kp_rows if (f, cid) == (1, 0) else None)
              for f in (0, 1) for cid, cam in cams.items())
        )
        track = run_all(annotations, cams, config, skeleton=skeleton)
        assert track.keypoints.shape == (2, 15, 3)
        assert track.has_keypoints.all()

    def test_no_keypoint_annotations_means_none(self, config):
        # A configured skeleton alone is not enough: without keypoint
        # annotations anywhere the per-joint filters are never started.
        cams = _two_camera_rig()
        path = {0: np.array([0.5, -0.4, 0.9])}
        annotations = _annotations_for(cams, path)
        track = run_all(annotations, cams, config, skeleton=canonical_pose("panoptic15"))
        assert len(track) == 1 and track.keypoints is None


class TestRunAll:
    def test_recovers_ground_truth(self, small_scene, config):
        bundle, gt = small_scene
        tracks = run_all(bundle.annotations, bundle.calibration, config)
        assert _ids(tracks) == _ids(gt)
        for oid in _ids(tracks):
            t, truth = _track(tracks, oid), _track(gt, oid)
            np.testing.assert_allclose(
                t.position[-1], truth.position[truth.frame == t.frame[-1]][0], atol=1e-3
            )

    def test_beliefs_checked_only_where_they_enter(self, monkeypatch):
        # One check per object at birth (init_target) and one per keypoint
        # seeding (init_keypoints), in frame order: births are events of the
        # frame pass. Predict and update build every other belief from arrays
        # that already passed.
        checked = []
        post_init = GaussianBelief.__post_init__

        def check(self):
            post_init(self)
            checked.append(self.mean.shape)

        monkeypatch.setattr(GaussianBelief, "__post_init__", check)
        spec = SceneSpec(
            seed=4, num_objects=3, num_cameras=3, frames=12, fps=10.0,
            motion="constant-velocity", skeleton="panoptic15",
            occlusions=tuple(Occlusion(c, 0, 4, object_id=2) for c in range(3)),
        )
        bundle, _ = generate(spec)
        checked.clear()
        tracks = run_all(
            bundle.annotations, bundle.calibration, RunConfig(dt=0.1), skeleton=bundle.skeleton
        )
        assert [_track(tracks, oid).frame[0] for oid in _ids(tracks)] == [0, 0, 4]
        assert checked == [(1, 9), (1, 9), (30, 6), (1, 9), (15, 6)]

    def test_box_kernel_runs_once_per_live_block(self, monkeypatch):
        # With no failed update, each (frame, camera) block that holds a box
        # row of a live object costs exactly one call of the box kernel: the
        # sigma points of all its objects go through it as one stack.
        # Occlusions stagger the births and leave frames with fewer cameras.
        calls = []
        kernel = tracker_mod.project_ellipsoid_to_bbox

        def counting(cam, center, half_axes):
            calls.append(np.shape(center))
            return kernel(cam, center, half_axes)

        monkeypatch.setattr(tracker_mod, "project_ellipsoid_to_bbox", counting)
        spec = SceneSpec(
            seed=4, num_objects=3, num_cameras=3, frames=12, fps=10.0,
            motion="constant-velocity", skeleton="panoptic15",
            occlusions=tuple(Occlusion(c, 0, 4, object_id=2) for c in range(3))
            + (Occlusion(0, 5, 9, object_id=0), Occlusion(1, 2, 6)),
        )
        bundle, _ = generate(spec)
        events = []
        tracks = run_all(
            bundle.annotations, bundle.calibration, RunConfig(dt=0.1),
            skeleton=bundle.skeleton, on_event=events.append,
        )
        assert events == []
        ann = bundle.annotations
        tracked = set(zip(tracks.frame.tolist(), tracks.object_id.tolist()))
        live = [
            (f, c) for f, o, c, box in zip(
                ann.frame.tolist(), ann.object_id.tolist(), ann.camera_id.tolist(),
                ann.has_bbox.tolist(),
            )
            if box and (f, o) in tracked
        ]
        blocks = set(live)
        assert len(calls) == len(blocks) < len(live)
        # Each call stacks the sigma points of every object in its block.
        assert sorted(shape[0] for shape in calls) == sorted(live.count(b) for b in blocks)

    @pytest.mark.parametrize("frames", [10, 40])
    def test_filter_rows_match_the_live_frames(self, monkeypatch, frames):
        # A work count, not a timer: the rows that run_all sends through the
        # box predict, the joint predict and the box update, at F and 4F
        # frames. Each object is predicted once per frame after its birth
        # through its last frame, its J joints with it, and each box record
        # is one update row. Object 2 is hidden at first, so births differ.
        rows = {"box_predict": [], "joint_predict": [], "box_update": []}

        def counting(name, fn):
            def count(mean, cov, *args, **kwargs):
                rows[name].append(len(mean))
                return fn(mean, cov, *args, **kwargs)
            return count

        monkeypatch.setattr(
            tracker_mod, "kalman_predict", counting("box_predict", tracker_mod.kalman_predict)
        )
        monkeypatch.setattr(
            tracker_mod.pose_mod, "predict_keypoints",
            counting("joint_predict", tracker_mod.pose_mod.predict_keypoints),
        )
        monkeypatch.setattr(
            tracker_mod, "ukf_update", counting("box_update", tracker_mod.ukf_update)
        )
        spec = SceneSpec(
            seed=4, num_objects=3, num_cameras=3, frames=frames, fps=10.0,
            motion="constant-velocity", skeleton="panoptic15",
            occlusions=tuple(Occlusion(c, 0, 4, object_id=2) for c in range(3)),
        )
        bundle, _ = generate(spec)
        events = []
        run_all(
            bundle.annotations, bundle.calibration, RunConfig(dt=0.1),
            skeleton=bundle.skeleton, on_event=events.append,
        )
        assert events == []
        ann = bundle.annotations
        span = {
            o: (ann.frame[(ann.object_id == o) & ann.has_bbox].min(),
                ann.frame[ann.object_id == o].max())
            for o in set(ann.object_id.tolist())
        }
        moving = [
            sum(birth < f <= last for birth, last in span.values()) for f in range(frames)
        ]
        assert sorted(birth for birth, _ in span.values()) == [0, 0, 4]
        assert sum(rows["box_predict"]) == sum(moving)
        assert len(rows["box_predict"]) == sum(n > 0 for n in moving)
        assert sum(rows["joint_predict"]) == bundle.skeleton.num_joints * sum(moving)
        assert sum(rows["box_update"]) == int(ann.has_bbox.sum())

    @staticmethod
    def _counting_predicts(monkeypatch) -> list:
        """Patch ``tracker._predict`` to log its calls: two per visited frame,
        one for the box stack and one for the joint stack."""
        calls, real = [], tracker_mod._predict

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(tracker_mod, "_predict", counting)
        return calls

    def test_dead_span_costs_no_frames(self, monkeypatch, config):
        # A work count: object 1's records moved 1e5 frames later leave a
        # span in which no object is alive. The pass visits each object's 3
        # frames, not the span (the frame-by-frame walk visits 100,003), and
        # each object's track is the one it gets unshifted, frames shifted.
        bundle, _ = generate(SceneSpec(seed=1, num_objects=2, num_cameras=3, frames=3))
        ann, shift = bundle.annotations, 10**5
        moved = ann.frame + shift * (ann.object_id == 1)
        order = np.lexsort((ann.camera_id, ann.object_id, moved))
        shifted = AnnotationTable(
            moved[order], ann.object_id[order], ann.camera_id[order], ann.bbox[order]
        )
        calls = self._counting_predicts(monkeypatch)
        tracks = run_all(shifted, bundle.calibration, config)
        assert len(calls) == 12
        plain = run_all(ann, bundle.calibration, config)
        for oid, offset in ((0, 0), (1, shift)):
            got, want = _track(tracks, oid), _track(plain, oid)
            assert got.frame.tolist() == (want.frame + offset).tolist()
            assert got.frame.tolist() == [offset, offset + 1, offset + 2]
            np.testing.assert_array_equal(got.position, want.position)
            np.testing.assert_array_equal(got.half_axes, want.half_axes)

    def test_unknown_camera_refused(self, config):
        # run_all checks that the annotations fit the rig it is given: a rig
        # without camera 2 refuses the first row, in table order, that names it.
        bundle, _ = generate(SceneSpec(seed=1, num_objects=2, num_cameras=3, frames=3))
        cams = {cid: cam for cid, cam in bundle.calibration.items() if cid != 2}
        with pytest.raises(ValidationError, match="^frame 0, object 0: unknown camera 2$"):
            run_all(bundle.annotations, cams, config)

    @pytest.mark.parametrize("skeleton", [None, "panoptic15"])
    def test_no_annotations_give_an_empty_table(self, config, tmp_path, skeleton):
        # Zero rows: the pass visits no frame, so the table is built from its
        # one empty chunk, with no keypoint column, and writes an empty file.
        none = np.zeros(0, dtype=np.int64)
        kp = None if skeleton is None else np.zeros((0, 15, 3))
        annotations = AnnotationTable(none, none, none, np.zeros((0, 4)), kp)
        pose = None if skeleton is None else canonical_pose(skeleton)
        tracks = run_all(annotations, {0: _side_camera()}, config, skeleton=pose)
        assert len(tracks) == 0 and tracks.keypoints is None
        save_tracks(tracks, tmp_path / "tracks.jsonl")
        assert (tmp_path / "tracks.jsonl").read_bytes() == b""

    def test_unborn_object_at_a_far_frame_costs_that_frame_alone(self, monkeypatch, config):
        # An object whose only box, 1e5 frames on, gives no ground point is
        # never born: the pass visits its annotated frame to try the birth,
        # and none of the frames in between.
        cam = _side_camera()
        box = _box_for(cam, [0.0, 0.0, 0.9], (0.3, 0.3, 0.9))
        annotations = _annotations(
            (0, 1, 0, box), (1, 1, 0, box), (10**5, 2, 0, TestBirth.HORIZON_BOX)
        )
        calls = self._counting_predicts(monkeypatch)
        events = []
        tracks = run_all(annotations, {0: cam}, config, on_event=events.append)
        assert len(calls) == 2 * 3
        assert tracks.frame.tolist() == [0, 1] and _ids(tracks) == [1]
        assert [(d.kind, d.object_id, d.message) for d in events] == [
            ("no_observation", 2, "no box gave a usable ground point")
        ]

    def test_stacked_run_equals_each_object_alone(self):
        # Objects share the stacked filter but never interact: fusing all of
        # them at once gives each object the track it gets on its own
        # annotations. Occlusions stagger births and per-camera subsets.
        spec = SceneSpec(
            seed=4, num_objects=3, num_cameras=3, frames=12, fps=10.0,
            motion="waypoint", pixel_noise=2.0, skeleton="panoptic15",
            occlusions=tuple(Occlusion(c, 0, 4, object_id=2) for c in range(3))
            + (Occlusion(0, 5, 9, object_id=0), Occlusion(1, 2, 6)),
        )
        bundle, _ = generate(spec)
        config = RunConfig(dt=0.1, r_bbox=4.0, r_keypoint=4.0, q_pos=0.1)
        tracks = run_all(
            bundle.annotations, bundle.calibration, config, skeleton=bundle.skeleton
        )
        assert [_track(tracks, oid).frame[0] for oid in _ids(tracks)] == [0, 0, 4]
        ann = bundle.annotations
        for oid in _ids(tracks):
            alone = run_all(
                _rows(ann, ann.object_id == oid),
                bundle.calibration, config, skeleton=bundle.skeleton,
            )
            t = _track(tracks, oid)
            assert _ids(alone) == [oid]
            np.testing.assert_array_equal(alone.frame, t.frame)
            np.testing.assert_array_equal(alone.position, t.position)
            np.testing.assert_array_equal(alone.half_axes, t.half_axes)
            np.testing.assert_array_equal(alone.keypoints, t.keypoints)

    def test_filter_error_skips_only_that_object(self, small_scene, config, monkeypatch):
        # Any FilterError in one object's row (here a CholeskyFailure) skips
        # that object's update alone: the stack is redone row by row, the
        # other objects keep their tracks, and the failing object carries on
        # with its prediction and one diagnostic per (frame, camera). Its
        # last frame's updates apply, so it still has a track.
        bundle, _ = small_scene
        clean = run_all(bundle.annotations, bundle.calibration, config)
        ann = bundle.annotations
        failing = (ann.object_id == 0) & ann.has_bbox & (ann.frame < ann.frame.max())
        bad_boxes = {tuple(box) for box in ann.bbox[failing].tolist()}
        real = tracker_mod.ukf_update

        def flaky(mean, cov, z, *args, **kwargs):
            if any(tuple(row) in bad_boxes for row in np.atleast_2d(z)):
                raise CholeskyFailure("covariance not factorizable")
            return real(mean, cov, z, *args, **kwargs)

        monkeypatch.setattr(tracker_mod, "ukf_update", flaky)
        events = []
        tracks = run_all(
            bundle.annotations, bundle.calibration, config, on_event=events.append
        )
        assert _ids(tracks) == [0, 1]
        np.testing.assert_array_equal(_track(tracks, 1).position, _track(clean, 1).position)
        np.testing.assert_array_equal(_track(tracks, 1).half_axes, _track(clean, 1).half_axes)
        assert [(d.kind, d.object_id, d.frame, d.camera_id) for d in events] == [
            ("update_skipped", 0, frame, cid)
            for frame, cid in zip(ann.frame[failing].tolist(), ann.camera_id[failing].tolist())
        ]
        birth = _track(tracks, 0).position[0]
        assert birth[2] == pytest.approx(0.9)  # default half-height, never updated
        assert len(_track(tracks, 0).frame) == len(_track(clean, 0).frame)

    def test_failed_predict_ends_only_that_object(self, small_scene, config, monkeypatch):
        # A FilterError in one object's predict (here the overflow that
        # kalman_predict reports) ends that object at its last good frame
        # with one diagnostic; the stack is redone row by row, so the other
        # object's track is untouched.
        bundle, _ = small_scene
        clean = run_all(bundle.annotations, bundle.calibration, config)
        last_good = _track(clean, 0)
        last_good = last_good.position[last_good.frame.tolist().index(2)]
        real = tracker_mod.kalman_predict

        def overflowing(mean, cov, model):
            if any((row[POS] == last_good).all() for row in mean):
                raise DivergentUpdate("prediction overflowed to non-finite values")
            return real(mean, cov, model)

        monkeypatch.setattr(tracker_mod, "kalman_predict", overflowing)
        events = []
        tracks = run_all(
            bundle.annotations, bundle.calibration, config, on_event=events.append
        )
        assert [(d.kind, d.object_id, d.frame, d.camera_id) for d in events] == [
            ("predict_failed", 0, 3, None)
        ]
        ended, kept = _track(clean, 0), _track(clean, 1)
        assert _track(tracks, 0).frame.tolist() == [f for f in ended.frame.tolist() if f <= 2]
        np.testing.assert_array_equal(_track(tracks, 0).position, ended.position[ended.frame <= 2])
        np.testing.assert_array_equal(_track(tracks, 1).position, kept.position)
        np.testing.assert_array_equal(_track(tracks, 1).half_axes, kept.half_axes)

    def test_ended_object_takes_no_keypoint_update(self, monkeypatch):
        # Once an object's predict fails it has ended: no keypoint update
        # runs on its joints, though they are still annotated, while the
        # other object's joints are updated as in the clean run.
        spec = SceneSpec(
            seed=4, num_objects=2, num_cameras=3, frames=8, fps=10.0,
            motion="constant-velocity", skeleton="panoptic15",
        )
        bundle, _ = generate(spec)

        def fuse(**kw):
            config = RunConfig(dt=0.1)
            return run_all(bundle.annotations, bundle.calibration, config, bundle.skeleton, **kw)

        clean = fuse()
        first = _track(clean, 0)
        last_good = first.position[first.frame.tolist().index(2)]
        ended, kp_updates, touched = [], set(), []
        real_predict, real_rows = tracker_mod.kalman_predict, tracker_mod.update_rows
        real_kp_update = tracker_mod.pose_mod.keypoint_update

        def overflowing(mean, cov, model):
            if any((row[POS] == last_good).all() for row in mean):
                ended.append(True)
                raise DivergentUpdate("prediction overflowed to non-finite values")
            return real_predict(mean, cov, model)

        def kp_update(cam, config):
            update = real_kp_update(cam, config)
            kp_updates.add(update)
            return update

        def spy(update, mean, cov, rows, z):
            if ended and update in kp_updates:
                touched.extend(rows.tolist())
            return real_rows(update, mean, cov, rows, z)

        monkeypatch.setattr(tracker_mod, "kalman_predict", overflowing)
        monkeypatch.setattr(tracker_mod, "update_rows", spy)
        monkeypatch.setattr(tracker_mod.pose_mod, "keypoint_update", kp_update)
        events = []
        tracks = fuse(on_event=events.append)
        assert [(d.kind, d.object_id, d.frame) for d in events] == [("predict_failed", 0, 3)]
        J = bundle.skeleton.num_joints
        assert touched and min(touched) == J  # object 1's joints only
        np.testing.assert_array_equal(_track(tracks, 1).keypoints, _track(clean, 1).keypoints)

    def test_object_without_applied_update_omitted(self, small_scene, config, monkeypatch):
        # Every box update of object 0 fails: its track would be prediction
        # alone, so it is omitted with a no_observation diagnostic after its
        # update_skipped ones, and object 1 is untouched.
        bundle, _ = small_scene
        clean = run_all(bundle.annotations, bundle.calibration, config)
        ann = bundle.annotations
        failing = (ann.object_id == 0) & ann.has_bbox
        bad_boxes = {tuple(box) for box in ann.bbox[failing].tolist()}
        real = tracker_mod.ukf_update

        def flaky(mean, cov, z, *args, **kwargs):
            if any(tuple(row) in bad_boxes for row in np.atleast_2d(z)):
                raise CholeskyFailure("covariance not factorizable")
            return real(mean, cov, z, *args, **kwargs)

        monkeypatch.setattr(tracker_mod, "ukf_update", flaky)
        events = []
        tracks = run_all(
            bundle.annotations, bundle.calibration, config, on_event=events.append
        )
        assert _ids(tracks) == [1]
        np.testing.assert_array_equal(tracks.position, _track(clean, 1).position)
        assert [(d.kind, d.object_id, d.frame, d.camera_id) for d in events] == [
            ("update_skipped", 0, frame, cid)
            for frame, cid in zip(ann.frame[failing].tolist(), ann.camera_id[failing].tolist())
        ] + [("no_observation", 0, None, None)]
        assert events[-1].message == "every box update was skipped"

    def test_near_camera_scene_writes_no_prediction_only_track(self):
        # Cameras 1 m up on a 5.5 m ring and a birth belief so wide that some
        # sigma point of every update lands behind a camera: all 80 box
        # updates are skipped and no track is written. With the default
        # birth belief every object keeps its track.
        spec = SceneSpec(
            seed=0, num_objects=4, num_cameras=4, frames=5, fps=10.0,
            ring_radius=5.5, cam_height=1.0, arena=(6.0, 6.0),
            motion="constant-velocity",
        )
        bundle, _ = generate(spec)
        wide = RunConfig(dt=0.1, init_pos_var=2500.0, init_shape_var=4.0)
        events = []
        assert len(run_all(bundle.annotations, bundle.calibration, wide, on_event=events.append)) == 0
        kinds = [(d.kind, d.object_id) for d in events]
        assert kinds == [
            k for oid in range(4)
            for k in [("update_skipped", oid)] * 20 + [("no_observation", oid)]
        ]
        tracks = run_all(bundle.annotations, bundle.calibration, RunConfig(dt=0.1))
        assert _ids(tracks) == [0, 1, 2, 3]

    def test_absurd_box_skips_only_that_update(self, small_scene, config):
        # A zero-size box half a million pixels off the image drives the
        # posterior half-axes out of range: that one update is skipped, the
        # object carries on, and the other object is untouched.
        bundle, _ = small_scene
        clean = run_all(bundle.annotations, bundle.calibration, config)
        ann = bundle.annotations
        frame = int(np.unique(ann.frame)[2])
        boxes = ann.bbox.copy()
        boxes[(ann.frame == frame) & (ann.object_id == 0) & (ann.camera_id == 1)] = [
            0.0, -475076.0, 0.0, 0.0
        ]
        annotations = AnnotationTable(ann.frame, ann.object_id, ann.camera_id, boxes)
        events = []
        tracks = run_all(annotations, bundle.calibration, config, on_event=events.append)
        assert [(d.kind, d.object_id, d.frame, d.camera_id) for d in events] == [
            ("update_skipped", 0, frame, 1)
        ]
        np.testing.assert_array_equal(tracks.object_id, clean.object_id)
        np.testing.assert_array_equal(tracks.frame, clean.frame)
        np.testing.assert_allclose(
            _track(tracks, 0).position[-1], _track(clean, 0).position[-1], atol=1e-3
        )
        np.testing.assert_array_equal(_track(tracks, 1).position, _track(clean, 1).position)

    def test_boxless_object_omitted_with_event(self, overhead_camera, config):
        pos = np.array([1.0, 2.0, 0.9])
        box = _box_for(overhead_camera, pos, (0.3, 0.3, 0.9))
        kp_rows = np.hstack([np.full((15, 2), 500.0), np.ones((15, 1))])
        # object 7 never gets a box
        annotations = _annotations((0, 1, 0, box), (0, 7, 0, None, kp_rows))
        events = []
        tracks = run_all(
            annotations, {0: overhead_camera}, config, on_event=events.append
        )
        assert _ids(tracks) == [1]
        assert [(d.kind, d.object_id) for d in events] == [("no_observation", 7)]


class TestBirth:
    # Side camera 1 m above ground looking horizontally: image row 360 is the
    # horizon, so a box with its feet there has no ground hit.
    HORIZON_BOX = [600.0, 300.0, 680.0, 360.0]

    def _frames(self, cam, second):
        box = _box_for(cam, [0.0, 0.0, 0.9], (0.3, 0.3, 0.9))
        return _annotations(
            (0, 1, 0, box), (0, 2, 0, self.HORIZON_BOX), (1, 1, 0, box), (1, 2, 0, second)
        )

    def test_failed_birth_omits_only_that_object(self, config):
        cam = _side_camera()
        annotations = self._frames(cam, self.HORIZON_BOX)
        with pytest.raises(NoObservation):
            init_target([0], [self.HORIZON_BOX], {0: cam}, config)
        events = []
        tracks = run_all(annotations, {0: cam}, config, on_event=events.append)
        assert tracks.object_id.tolist() == [1, 1]
        assert [(d.kind, d.object_id) for d in events] == [("no_observation", 2)]

    def test_birth_deferred_to_first_usable_frame(self, config):
        cam = _side_camera()
        box = _box_for(cam, [1.0, 0.5, 0.9], (0.3, 0.3, 0.9))
        events = []
        tracks = run_all(
            self._frames(cam, box), {0: cam}, config, on_event=events.append
        )
        assert _ids(tracks) == [1, 2]
        assert _track(tracks, 2).frame.tolist() == [1]
        alone = run_all(_annotations((1, 2, 0, box)), {0: cam}, config)
        np.testing.assert_array_equal(_track(tracks, 2).position, alone.position)
        assert events == []

    @pytest.mark.parametrize("count", [1, 2])
    def test_births_at_the_largest_frame(self, config, count):
        # Frames reach 2**63 - 1, the largest the reader takes: an object
        # whose records end there gets the track it gets at frames from 0.
        cam = _side_camera()
        box = _box_for(cam, [0.0, 0.0, 0.9], (0.3, 0.3, 0.9))
        last = 2**63 - 1
        events = []
        tracks = run_all(
            _annotations(*[(last - k, 1, 0, box) for k in range(count)]), {0: cam}, config,
            on_event=events.append,
        )
        low = run_all(_annotations(*[(k, 1, 0, box) for k in range(count)]), {0: cam}, config)
        assert events == []
        assert tracks.frame.tolist() == sorted(last - k for k in range(count))
        np.testing.assert_array_equal(tracks.position, low.position)
        np.testing.assert_array_equal(tracks.half_axes, low.half_axes)


class TestContainers:
    # A track table row is one track entry: (frame, object id, position,
    # half-axes, keypoints).
    def test_entry_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="each position row must be all finite or all NaN"):
            TrackTable([0], [0], [[np.nan, 0, 0]])

    def test_entry_rejects_nonpositive_axes(self):
        with pytest.raises(ValueError, match="positive"):
            TrackTable([0], [0], [[0, 0, 0]], half_axes=[[1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("column, first", [("frame", 0), ("bbox", 2), ("half_axes", 2)])
    def test_row_rules_name_first_bad_row_and_column(self, column, first):
        # Two rows break the rule; the error is a ValueError naming the
        # first of them (negative frames sort first) and the column.
        good, bad = [0.0, 0.0, 5.0, 5.0], [0.0, 6.0, 5.0, 5.0]
        half = np.full((5, 3), 0.5)
        half[[2, 3], 1] = [0.0, -1.0]
        make = {
            "frame": lambda: _annotations(*((f, 0, 0, good) for f in (-2, -1, 0, 1, 2))),
            "bbox": lambda: _annotations(*((f, 0, 0, bad if f in (2, 3) else good) for f in range(5))),
            "half_axes": lambda: TrackTable(np.arange(5), np.zeros(5, dtype=int), np.zeros((5, 3)), half),
        }[column]
        reason = {
            "frame": "frame must be non-negative",
            "bbox": f"bbox corners out of order: {bad}",
            "half_axes": "half_axes must be positive",
        }[column]
        with pytest.raises(ValueError) as err:
            make()
        assert isinstance(err.value, RowError)
        assert (err.value.row, err.value.column, err.value.reason) == (first, column, reason)
        assert str(err.value) == f"row {first}: {reason}"

    def test_entry_rejects_bad_keypoint_shape(self):
        with pytest.raises(ValueError, match="keypoints"):
            TrackTable([0], [0], [[0, 0, 1]], keypoints=np.zeros((1, 4, 2)))

    def test_entry_arrays_read_only(self):
        t = TrackTable([0], [0], [[0, 0, 1]], half_axes=[[1, 1, 1]])
        with pytest.raises(ValueError):
            t.position[0, 0] = 5.0

    def test_track_requires_increasing_frames(self):
        # Rows sorted by (frame, object id), each pair once.
        for frames, ids in (([2, 2], [0, 0]), ([3, 2], [0, 0]), ([2, 2], [1, 0])):
            with pytest.raises(ValueError, match="sorted"):
                TrackTable(frames, ids, np.zeros((2, 3)))
        TrackTable([2, 2, 3], [0, 1, 0], np.zeros((3, 3)))

    def test_entry_ids_are_integers(self):
        with pytest.raises(ValueError, match="integer"):
            TrackTable([0.5], [0], [[0, 0, 1]])

    def test_annotation_frame_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            _annotations((-1, 0, 0, [0, 0, 5, 5]))

    # An annotation table row is one (frame, object, camera) record.
    def test_annotation_corner_order_enforced(self):
        with pytest.raises(ValueError, match="out of order"):
            _annotations((0, 0, 0, [10.0, 0.0, 5.0, 20.0]))
        with pytest.raises(ValueError, match="out of order"):
            _annotations((0, 0, 0, [0.0, 20.0, 5.0, 10.0]))
        _annotations((0, 0, 0, [5.0, 5.0, 5.0, 5.0]))  # a point is in order

    def test_annotation_rejects_nonfinite_box(self):
        for box in ([0.0, 0.0, np.inf, 1.0], [0.0, np.nan, 1.0, 1.0]):
            with pytest.raises(ValueError, match="all finite or all NaN"):
                _annotations((0, 0, 0, box))

    def test_annotation_presence_rule(self):
        kp = np.ones((2, 3))
        t = _annotations((0, 1, 0, [0, 0, 5, 5]), (0, 1, 1, None, kp), (1, 1, 0, [0, 0, 5, 5], kp))
        assert t.has_bbox.tolist() == [True, False, True]
        assert t.has_keypoints.tolist() == [False, True, True]
        assert np.isnan(t.bbox[1]).all() and np.isnan(t.keypoints[0]).all()
        with pytest.raises(ValueError, match="bbox or keypoints"):
            AnnotationTable([0], [0], [0], bbox=np.full((1, 4), np.nan))
        with pytest.raises(ValueError, match="bbox or keypoints"):
            AnnotationTable([0, 0], [0, 0], [0, 1], [[0, 0, 5, 5], [np.nan] * 4],
                            keypoints=[kp, np.full((2, 3), np.nan)])
        with pytest.raises(ValueError, match="keypoints row"):
            AnnotationTable([0], [0], [0], keypoints=[[[0, 0, 1], [np.nan, 0, 1]]])
        # A keypoints column of NaN rows is no column.
        t = AnnotationTable([0], [0], [0], [[0, 0, 5, 5]], keypoints=np.full((1, 2, 3), np.nan))
        assert t.keypoints is None and not t.has_keypoints.any()

    def test_annotation_rows_sorted_each_triple_once(self):
        box = np.zeros((2, 4))
        for frames, objects, cameras in (
            ([0, 0], [1, 1], [2, 2]),  # duplicate triple
            ([1, 0], [0, 0], [0, 0]),
            ([0, 0], [1, 0], [0, 0]),
            ([0, 0], [0, 0], [1, 0]),
        ):
            with pytest.raises(ValueError, match="sorted"):
                AnnotationTable(frames, objects, cameras, box)
        AnnotationTable([0, 1], [1, 0], [1, 0], box)
        AnnotationTable([0, 0], [0, 1], [1, 0], box)

    def test_annotation_arrays_read_only_and_ids_integers(self):
        t = _annotations((0, 0, 0, [0, 0, 5, 5]))
        with pytest.raises(ValueError):
            t.bbox[0, 0] = 1.0
        with pytest.raises(ValueError, match="integer"):
            AnnotationTable([0], [0], [0.5], [[0, 0, 5, 5]])
