import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse import (
    AnnotationTable,
    CameraModel,
    CanonicalPose,
    GaussianBelief,
    RunConfig,
    SceneSpec,
    ValidationError,
    canonical_pose,
    generate,
    init_keypoints,
    project_point,
    run_all,
    scaled_offsets,
)
from mvfuse import pose as pose_mod
from mvfuse.filter import POS, SHAPE, VEL, make_motion_model, update_rows
from mvfuse.pose import keypoint_update, predict_keypoints
from oracles import dlt_triangulate


class TestBuiltinPoses:
    @pytest.mark.parametrize(
        "name,joints", [("coco17", 17), ("panoptic15", 15)]
    )
    def test_joint_counts(self, name, joints):
        assert canonical_pose(name).num_joints == joints

    def test_coco_has_standard_joints(self):
        joints = canonical_pose("coco17").joints
        for name in ("nose", "left_shoulder", "right_ankle", "left_wrist"):
            assert name in joints

    def test_panoptic_has_midline_joints(self):
        joints = canonical_pose("panoptic15").joints
        for name in ("neck", "nose", "mid_hip"):
            assert name in joints

    @pytest.mark.parametrize("name", ["coco17", "panoptic15"])
    def test_normalization_invariants(self, name):
        coords = canonical_pose(name).coords
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        assert np.max(np.abs(lo + hi)) < 1e-12  # midrange at origin
        assert abs((hi[2] - lo[2]) - 1.0) < 1e-12  # unit height

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown skeleton"):
            canonical_pose("humanoid99")

    def test_lateral_symmetry(self):
        pose = canonical_pose("coco17")
        idx = {j: i for i, j in enumerate(pose.joints)}
        for left in (j for j in pose.joints if j.startswith("left_")):
            right = "right_" + left.removeprefix("left_")
            l, r = pose.coords[idx[left]], pose.coords[idx[right]]
            assert np.allclose(l * [1, -1, 1], r)


class TestCanonicalPose:
    def test_from_raw_normalizes(self):
        raw = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 1.8]])
        pose = CanonicalPose.from_raw("stick", ["a", "b"], raw)
        lo, hi = pose.coords.min(axis=0), pose.coords.max(axis=0)
        assert abs((hi[2] - lo[2]) - 1.0) < 1e-12
        assert np.max(np.abs(lo + hi)) < 1e-12

    def test_from_raw_preserves_shape_ratios(self):
        raw = np.array([[0.0, 0.0, 0.0], [0.4, 0.0, 2.0]])
        pose = CanonicalPose.from_raw("stick", ["a", "b"], raw)
        span = pose.coords.max(axis=0) - pose.coords.min(axis=0)
        assert np.isclose(span[0], 0.2)  # 0.4 / 2.0

    def test_rejects_unnormalized_direct_construction(self):
        with pytest.raises(ValueError, match="normalized"):
            CanonicalPose("bad", ("a", "b"), np.array([[0, 0, 0], [0, 0, 2.0]]))

    def test_rejects_duplicate_joints(self):
        with pytest.raises(ValueError, match="unique"):
            CanonicalPose.from_raw(
                "dup", ["a", "a"], np.array([[0, 0, 0], [0, 0, 1.0]])
            )

    def test_rejects_flat_pose(self):
        with pytest.raises(ValueError, match="vertical extent"):
            CanonicalPose.from_raw(
                "flat", ["a", "b"], np.array([[0, 0, 0], [1, 0, 0.0]])
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 24))
    def test_from_raw_invariants_property(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.normal(scale=2.0, size=(n, 3))
        raw[-1, 2] = raw[0, 2] + 1.7  # guarantee vertical extent
        pose = CanonicalPose.from_raw("p", [f"j{i}" for i in range(n)], raw)
        lo, hi = pose.coords.min(axis=0), pose.coords.max(axis=0)
        assert abs((hi[2] - lo[2]) - 1.0) < 1e-9
        assert np.max(np.abs(lo + hi)) < 1e-9


class TestScaledOffsets:
    def test_spans_match_ellipsoid(self):
        pose = canonical_pose("panoptic15")
        off = scaled_offsets(pose, [0.3, 0.4, 0.9])
        span = off.max(axis=0) - off.min(axis=0)
        assert np.isclose(span[2], 1.8)  # full height 2c
        assert np.isclose(span[1], 0.8)  # full width 2b
        assert np.isclose(span[0], 0.6)  # full depth 2a

    def test_degenerate_extent_falls_back(self):
        # two joints differing only vertically: x and y extents are zero
        pose = CanonicalPose.from_raw(
            "stick", ["a", "b"], np.array([[0, 0, 0], [0, 0, 1.0]])
        )
        off = scaled_offsets(pose, [0.3, 0.4, 0.9])
        assert np.all(np.isfinite(off))
        span = off.max(axis=0) - off.min(axis=0)
        assert np.isclose(span[2], 1.8)

    @pytest.mark.parametrize("raw", [
        None,  # panoptic15
        [[0, 0, 0], [0, 1.0, 1.0]],  # no x extent: x takes y's factor
        [[0, 0, 0], [0, 0, 1.0]],  # no x or y extent: both take z's factor
    ], ids=["panoptic15", "flat-x", "stick"])
    def test_stack_equals_one_call_per_row(self, raw):
        pose = canonical_pose("panoptic15") if raw is None else CanonicalPose.from_raw(
            "p", ["a", "b"], np.array(raw)
        )
        half = np.random.default_rng(3).uniform(0.05, 2.0, (7, 3))
        stacked = scaled_offsets(pose, half)
        assert stacked.shape == (7, pose.num_joints, 3)
        expected = np.stack([scaled_offsets(pose, h) for h in half])
        assert stacked.tobytes() == expected.tobytes()
        assert scaled_offsets(pose, half[None]).tobytes() == expected.tobytes()
        assert scaled_offsets(pose, half[:0]).shape == (0, pose.num_joints, 3)


def _object_mean(center, velocity, half_axes):
    mean = np.zeros((1, 9))
    mean[0, POS] = center
    mean[0, VEL] = velocity
    mean[0, SHAPE] = np.log(half_axes)
    return mean


class TestInitKeypoints:
    def test_positions_and_velocities(self, config):
        pose = canonical_pose("panoptic15")
        center = np.array([1.0, -2.0, 0.85])
        velocity = np.array([0.4, -0.1, 0.0])
        half = np.array([0.3, 0.35, 0.85])
        states = init_keypoints(pose, _object_mean(center, velocity, half), config)
        assert states.mean.shape == (15, 6)
        expected = scaled_offsets(pose, half) + center
        assert np.allclose(states.mean[:, POS], expected)
        assert np.allclose(states.mean[:, VEL], velocity)

    def test_initial_covariance_from_config(self, config):
        pose = canonical_pose("coco17")
        states = init_keypoints(
            pose, _object_mean([0, 0, 0.9], [0, 0, 0], [0.3, 0.3, 0.9]), config
        )
        diag = np.diag(states.covariance[0])
        assert np.allclose(diag[POS], config.init_keypoint_pos_var)
        assert np.allclose(diag[VEL], config.init_keypoint_vel_var)

    def test_stack_equals_one_call_per_object(self, config):
        # Joint j of object i is row i * num_joints + j, as if each object
        # were seeded on its own.
        pose = canonical_pose("coco17")
        rng = np.random.default_rng(4)
        mean = rng.normal(size=(5, 9))
        mean[:, SHAPE] = np.log(rng.uniform(0.1, 1.5, (5, 3)))
        states = init_keypoints(pose, mean, config)
        ones = [init_keypoints(pose, mean[i : i + 1], config) for i in range(5)]
        assert states.mean.tobytes() == np.concatenate([b.mean for b in ones]).tobytes()
        assert states.covariance.tobytes() == np.concatenate([b.covariance for b in ones]).tobytes()

    def test_rejects_wrong_dim(self, config):
        pose = canonical_pose("coco17")
        with pytest.raises(ValueError, match=r"must be \(n, 9\)"):
            init_keypoints(pose, np.zeros((1, 6)), config)


class TestKeypointState:
    def test_rejects_wrong_dim(self, config):
        update = keypoint_update(_ring(1)[0], config)
        with pytest.raises(ValueError, match="6-dim"):
            update(np.zeros((1, 4)), np.eye(4)[None], np.array([[640.0, 360.0]]))

    def test_position_extraction(self):
        mean = np.array([1.0, 0.0, 2.0, 0.0, 3.0, 0.0])
        s = GaussianBelief(mean, np.eye(6))
        assert np.allclose(s.mean[:, POS], [[1, 2, 3]])


def _ring(n=3, radius=8.0, height=3.0):
    cams = {}
    K = np.array([[900.0, 0, 640.0], [0, 900.0, 360.0], [0, 0, 1.0]])
    for i in range(n):
        angle = 2 * np.pi * i / n
        center = np.array([radius * np.cos(angle), radius * np.sin(angle), height])
        forward = np.array([0.0, 0.0, 1.0]) - center
        forward /= np.linalg.norm(forward)
        right = np.cross(forward, [0.0, 0.0, 1.0])
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        R = np.stack([right, down, forward])
        cams[i] = CameraModel(
            intrinsics=K, rotation=R, translation=-R @ center,
            image_size=(1280, 720),
        )
    return cams


def _fuse(states, observed, cam, config):
    """One camera's keypoint update of a (mean, cov) stack as ``run_all``
    makes it: the joints whose (u, v, visibility) row reaches the visibility
    threshold are updated in one ``update_rows`` call; the others are left
    untouched."""
    mean, cov = states[0].copy(), states[1].copy()
    seen = np.flatnonzero(observed[:, 2] >= config.visibility_threshold)
    update_rows(keypoint_update(cam, config), mean, cov, seen, observed[seen, :2])
    return mean, cov


def _pose_scene(frames=2):
    spec = SceneSpec(
        seed=2, num_objects=1, num_cameras=2, frames=frames, fps=10.0,
        motion="constant-velocity", skeleton="panoptic15",
    )
    bundle, _ = generate(spec)
    return bundle


def _with_keypoints(ann, keypoints):
    return AnnotationTable(ann.frame, ann.object_id, ann.camera_id, ann.bbox, keypoints)


class TestUpdateKeypoints:
    def test_invisible_joints_untouched(self, config, monkeypatch):
        # Visibility is read where run_all picks the joints a camera updates:
        # a camera view whose joints are all flagged invisible runs no
        # keypoint update at all, and an invisible joint's pixels are never
        # read, so changing them changes no output bit.
        bundle = _pose_scene()
        ann, skeleton = bundle.annotations, bundle.skeleton
        kp = ann.keypoints.copy()
        hidden = (ann.frame == 1) & (ann.camera_id == 0)
        kp[hidden, :, 2] = 0.0
        calls, real = [], pose_mod.ukf_update

        def counted(mean, *args, **kwargs):
            calls.append(len(mean))
            return real(mean, *args, **kwargs)

        monkeypatch.setattr(pose_mod, "ukf_update", counted)
        out = run_all(_with_keypoints(ann, kp.copy()), bundle.calibration, config, skeleton=skeleton)
        assert calls == [15, 15, 15]  # frame 0: both cameras; frame 1: camera 1
        kp[hidden, :, :2] += 40.0
        moved = run_all(_with_keypoints(ann, kp), bundle.calibration, config, skeleton=skeleton)
        np.testing.assert_array_equal(moved.keypoints, out.keypoints)

    def test_visible_joint_moves_toward_truth(self, config):
        cams = _ring(1)
        truth = np.array([0.3, -0.2, 1.1])
        uv = project_point(cams[0], truth)
        prior_mean = np.array([0.0, 0, 0.0, 0, 1.0, 0])
        state = GaussianBelief(prior_mean, 0.25 * np.eye(6))
        out = _fuse((state.mean, state.covariance), np.array([[uv[0], uv[1], 1.0]]), cams[0], config)
        before = np.linalg.norm(prior_mean[POS] - truth)
        after = np.linalg.norm(out[0][0, POS] - truth)
        assert after < before

    def test_stacked_joints_equal_joint_by_joint(self, config):
        # One camera's joints are one stacked update. Each joint's result is
        # bit-identical to updating it alone; an invisible joint is left as
        # is, and so is a joint whose covariance cannot be factorized.
        cams = _ring(1)
        states = init_keypoints(
            canonical_pose("panoptic15"),
            _object_mean([0.3, -0.2, 0.9], [0.1, 0.0, 0.0], [0.3, 0.3, 0.9]),
            config,
        )
        mean, cov = states.mean, states.covariance.copy()
        cov[4] = np.diag([1e-20] * 5 + [-1e-10])
        pixels = project_point(cams[0], mean[:, POS] + 0.05)
        obs = np.hstack([pixels, np.ones((15, 1))])
        obs[7, 2] = 0.0
        out = _fuse((mean, cov), obs, cams[0], config)
        for j in range(15):
            alone = _fuse((mean[j : j + 1], cov[j : j + 1]), obs[j : j + 1], cams[0], config)
            np.testing.assert_array_equal(out[0][j], alone[0][0])
            np.testing.assert_array_equal(out[1][j], alone[1][0])
        for j in (4, 7):
            np.testing.assert_array_equal(out[0][j], mean[j])
        moved = np.any(out[0] != mean, axis=1)
        assert moved.sum() == 13

    def test_shape_mismatch(self, config):
        # Keypoint rows must have the skeleton's joint count.
        bundle = _pose_scene(frames=1)
        ann = bundle.annotations
        wrong = _with_keypoints(ann, ann.keypoints[:, :2])
        with pytest.raises(ValidationError, match="2 keypoints, expected 15"):
            run_all(wrong, bundle.calibration, config, skeleton=bundle.skeleton)


def _track(frames, states, cams, config):
    """Filter a (mean, cov) stack of keypoints over frames of {camera id:
    (N, 3) rows}, the first frame without a predict; returns the (F, N, 3)
    positions after each."""
    model = make_motion_model(config.dt, config.q_pos)
    out = []
    for k, per_cam in enumerate(frames):
        if k > 0:
            states = predict_keypoints(*states, model)
        for cid in sorted(per_cam):
            states = _fuse(states, per_cam[cid], cams[cid], config)
        out.append(states[0][:, POS])
    return np.array(out)


class TestTrackKeypoints:
    def test_converges_to_triangulation(self):
        # q_pos must be large enough for the filter to forget the spurious
        # velocity picked up during the birth transient; with q -> 0 that
        # velocity error decays too slowly to converge in a short window.
        config = RunConfig(dt=0.1, r_keypoint=1e-2, q_pos=1e-3)
        cams = _ring(3)
        truth = np.array([0.4, 0.6, 1.2])
        obs_rows = {
            cid: np.array([[*project_point(cam, truth), 1.0]])
            for cid, cam in cams.items()
        }
        initial = GaussianBelief(np.array([0.0, 0, 0.0, 0, 1.0, 0]), 0.25 * np.eye(6))
        frames = [obs_rows] * 12
        out = _track(frames, (initial.mean, initial.covariance), cams, config)
        assert out.shape == (12, 1, 3)
        dlt = dlt_triangulate(
            [cams[c].projection_matrix for c in sorted(cams)],
            [obs_rows[c][0, :2] for c in sorted(cams)],
        )
        assert np.linalg.norm(dlt - truth) < 1e-9  # oracle sanity
        assert np.linalg.norm(out[-1, 0] - truth) < 1e-3

    def test_static_prediction_between_observations(self, config):
        cams = _ring(2)
        initial = GaussianBelief(np.array([0.5, 0.1, 0.5, 0.0, 1.0, 0.0]), 0.1 * np.eye(6))
        out = _track([{}, {}, {}], (initial.mean, initial.covariance), cams, config)
        # no observations: pure constant-velocity propagation
        assert np.allclose(out[0, 0], [0.5, 0.5, 1.0])
        assert np.allclose(out[2, 0], [0.5 + 0.2 * 0.1, 0.5, 1.0])


class TestPredictKeypoints:
    def test_velocity_integration(self, config):
        model = make_motion_model(config.dt, config.q_pos)
        s = GaussianBelief(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]), np.eye(6))
        mean, _ = predict_keypoints(s.mean, s.covariance, model)
        assert np.isclose(mean[0, 0], config.dt)
