"""Synthetic-scene generator tests: determinism, spec validation, and
consistency of the rendered annotations with the ground truth."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse import synth
from mvfuse import (
    Occlusion,
    SceneSpec,
    generate,
    project_ellipsoid_to_bbox,
    project_point,
    save_annotations,
    save_calibration,
    save_tracks,
)

from mvfuse.errors import GeometryError, ValidationError
from mvfuse.synth import _joint_pixels, _outline_boxes
from oracles import loop_constant_velocity, loop_generate, pinhole_project, track_dicts


def _spec(**kwargs):
    base = dict(seed=3, num_objects=2, num_cameras=3, frames=6, fps=10.0)
    base.update(kwargs)
    return SceneSpec(**base)


class TestSceneSpec:
    def test_dict_roundtrip(self):
        spec = _spec(
            motion="waypoint",
            skeleton="panoptic15",
            occlusions=(Occlusion(camera_id=1, start=2, stop=4, object_id=0),),
        )
        assert SceneSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match=r"^unknown scene keys: \['cameras_n'\]$"):
            SceneSpec.from_dict({"cameras_n": 4})

    def test_unknown_occlusion_key(self):
        with pytest.raises(ValidationError, match=r"^unknown occlusion keys: \['until'\]$"):
            SceneSpec.from_dict(
                {"occlusions": [{"camera_id": 0, "start": 0, "until": 3}]}
            )

    @pytest.mark.parametrize("data, message", [
        ({"objects": 3, "occlusions": [5]}, "unknown scene keys: ['objects']"),
        ({"occlusions": [{"start": 0, "until": 3}, 5]}, "unknown occlusion keys: ['until']"),
        ({"occlusions": [5, {"until": 3}]}, "each occlusion must be an object"),
        ({"occlusions": [{"camera_id": 0}, 5]}, "occlusion missing key 'start'"),
        ({"occlusions": [{"camera_id": 0, "start": 0}]}, "occlusion missing key 'stop'"),
        ({"frames": 0, "occlusions": [{"camera_id": "x", "start": 0, "stop": 1}]},
         "camera_id must be an integer, got 'x'"),
    ], ids=["scene-key", "occlusion-key", "not-an-object", "missing-start", "missing-stop",
            "occlusion-type"])
    def test_first_fault_is_reported(self, data, message):
        # Unknown keys first, then missing ones, then each occlusion in turn,
        # then the values.
        with pytest.raises(ValidationError) as exc:
            SceneSpec.from_dict(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(num_cameras=0), "num_cameras must be >= 1"),
            (dict(frames=0), "frames must be >= 1"),
            (dict(fps=0.0), "fps must be positive"),
            (dict(motion="brownian"), "motion must be one of"),
            (dict(pixel_noise=-1.0), "pixel_noise must be non-negative"),
            (dict(arena=(0.0, 12.0)), "arena must be two positive extents"),
            (dict(skeleton="human36"), "unknown skeleton 'human36'"),
            (dict(ring_radius=-2.0), "ring_radius must be positive when given"),
            (dict(occlusions=(Occlusion(camera_id=0, start=4, stop=2),)),
             "occlusion window [4, 2) out of range"),
            (dict(occlusions=(Occlusion(camera_id=9, start=0, stop=2),)),
             "occlusion references unknown camera 9"),
            (dict(occlusions=(Occlusion(camera_id=0, start=0, stop=2, object_id=2),)),
             "occlusion references unknown object 2"),
            (dict(occlusions=(Occlusion(camera_id=0, start=0, stop=2, object_id=-1),)),
             "occlusion references unknown object -1"),
            (dict(fps=10**400), f"fps must be finite, got {10**400}"),
            # Scene sizes numpy cannot make arrays of, refused before any is made.
            (dict(frames=10**400),
             f"frames x num_objects x num_cameras = {10**400} x 2 x 3 is more than numpy can size"),
            (dict(frames=2**62, num_objects=1),
             f"frames x num_objects x num_cameras = {2**62} x 1 x 3 is more than numpy can size"),
            (dict(num_cameras=10**400, frames=2),
             f"frames x num_objects x num_cameras = 2 x 2 x {10**400} is more than numpy can size"),
            (dict(image_size=(10**400, 1080), frames=2),
             f"image_size must be below 2**63, got ({10**400}, 1080)"),
        ],
        ids=[f"kwargs{i}" for i in range(17)],
    )
    def test_invalid_values(self, kwargs, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            _spec(**kwargs)

    def test_overcrowded_arena(self):
        with pytest.raises(ValidationError, match="^cannot place"):
            generate(_spec(num_objects=40, arena=(4.0, 4.0)))

    def test_ring_inside_arena(self):
        with pytest.raises(ValidationError, match="^ring_radius .* must exceed the arena half-diagonal"):
            generate(_spec(ring_radius=5.0, arena=(12.0, 12.0)))


class TestDeterminism:
    def test_identical_seeds_identical_files(self, tmp_path):
        spec = _spec(skeleton="coco17", pixel_noise=0.5)
        for name in ("a", "b"):
            bundle, gt = generate(spec)
            d = tmp_path / name
            d.mkdir()
            save_calibration(bundle.calibration, d / "calibration.json")
            save_annotations(bundle.annotations, d / "annotations.jsonl")
            save_tracks(gt, d / "gt.jsonl")
        for f in ("calibration.json", "annotations.jsonl", "gt.jsonl"):
            assert (tmp_path / "a" / f).read_bytes() == (
                tmp_path / "b" / f
            ).read_bytes()

    def test_seed_changes_layout(self):
        _, gt_a = generate(_spec(seed=1))
        _, gt_b = generate(_spec(seed=2))
        assert not np.array_equal(gt_a.position[0], gt_b.position[0])


class TestGeometryOfTheRing:
    def test_cameras_look_at_arena_center(self):
        bundle, _ = generate(_spec(num_cameras=5))
        w, h = 1920, 1080
        for cam in bundle.calibration.values():
            # The look-at target (0, 0, 1) must land on the principal point.
            uv, depth = pinhole_project(
                cam.intrinsics, cam.rotation, cam.translation, [[0.0, 0.0, 1.0]]
            )
            assert depth[0] > 0
            np.testing.assert_allclose(uv[0], [w / 2.0, h / 2.0], atol=1e-9)

    def test_overrides_respected(self):
        spec = _spec(ring_radius=15.0, cam_height=4.0, focal=777.0)
        bundle, _ = generate(spec)
        for cam in bundle.calibration.values():
            c = -cam.rotation.T @ cam.translation
            assert np.hypot(c[0], c[1]) == pytest.approx(15.0)
            assert c[2] == pytest.approx(4.0)
            assert cam.intrinsics[0, 0] == 777.0


class TestAnnotationsMatchGroundTruth:
    def test_boxes_are_exact_outlines(self):
        bundle, table = generate(_spec())
        gt = track_dicts(table)
        ann = bundle.annotations
        assert ann.has_bbox.all()
        for frame, oid, cid, box in zip(ann.frame, ann.object_id, ann.camera_id, ann.bbox):
            want = project_ellipsoid_to_bbox(
                bundle.calibration[cid], gt.positions[oid][frame], gt.half_axes[oid][frame]
            )
            np.testing.assert_array_equal(box, want)

    def test_boxes_inside_image(self):
        bundle, _ = generate(_spec(num_objects=4, frames=10))
        w, h = 1920, 1080
        u_min, v_min, u_max, v_max = bundle.annotations.bbox.T
        assert ((0 <= u_min) & (u_min <= u_max) & (u_max <= w)).all()
        assert ((0 <= v_min) & (v_min <= v_max) & (v_max <= h)).all()

    def test_keypoints_match_oracle_projection(self):
        bundle, table = generate(_spec(skeleton="panoptic15"))
        gt = track_dicts(table)
        w, h = 1920, 1080
        checked = 0
        ann = bundle.annotations
        for frame, oid, cid, rows in zip(ann.frame, ann.object_id, ann.camera_id, ann.keypoints):
            cam = bundle.calibration[cid]
            uv, depth = pinhole_project(
                cam.intrinsics, cam.rotation, cam.translation, gt.keypoints[oid][frame]
            )
            assert np.all(depth > 0)
            np.testing.assert_allclose(rows[:, :2], uv, atol=1e-6)
            inside = (
                (uv[:, 0] >= 0)
                & (uv[:, 0] <= w)
                & (uv[:, 1] >= 0)
                & (uv[:, 1] <= h)
            )
            np.testing.assert_array_equal(rows[:, 2], inside.astype(float))
            checked += rows.shape[0]
        assert checked > 0

    def test_ground_truth_is_complete(self):
        spec = _spec(num_objects=3, frames=7, skeleton="coco17")
        bundle, table = generate(spec)
        assert len(table) == 21 and table.keypoints.shape == (21, 17, 3)
        gt = track_dicts(table)
        assert sorted(gt.positions) == [0, 1, 2]
        for oid in range(3):
            assert sorted(gt.positions[oid]) == list(range(7))
            assert sorted(gt.half_axes[oid]) == list(range(7))
            assert sorted(gt.keypoints[oid]) == list(range(7))
        assert bundle.skeleton is not None

    def test_annotation_frames_strictly_increasing(self):
        # One row per (frame, object, camera), sorted.
        ann = generate(_spec(frames=12))[0].annotations
        keys = list(zip(ann.frame.tolist(), ann.object_id.tolist(), ann.camera_id.tolist()))
        assert keys == sorted(set(keys)) and len(keys) == 12 * 2 * 3


class TestFrameGeometry:
    def test_degenerate_outlines_are_nan_rows(self, axis_camera):
        # behind the camera, camera inside the ellipsoid, two good rows
        centers = np.array(
            [[0.0, 0.0, 5.0], [0.0, 0.0, -5.0], [0.0, 0.0, 0.5], [1.0, 0.0, 6.0]]
        )
        half = np.ones((4, 3))
        got = _outline_boxes(axis_camera, centers, half)
        assert np.isnan(got[1:3]).all()
        for i in (0, 3):
            np.testing.assert_array_equal(
                got[i], project_ellipsoid_to_bbox(axis_camera, centers[i], half[i])
            )

    def test_joints_behind_camera_masked(self, axis_camera):
        joints = np.array(
            [[[0.0, 0.0, 5.0], [0.0, 0.0, -1.0]], [[1.0, 2.0, 4.0], [0.0, 0.0, 0.0]]]
        )
        front, uv = _joint_pixels(axis_camera, joints)
        np.testing.assert_array_equal(front, [[True, False], [True, False]])
        np.testing.assert_array_equal(uv[~front], 0.0)
        np.testing.assert_array_equal(
            uv[front], project_point(axis_camera, joints[front])
        )


# A tight rig: object 2 of seed 5 comes so close to camera 3 that from frame 12
# on its outline is not a bounded ellipse there.
_DEGENERATE = dict(
    seed=5, num_objects=3, num_cameras=8, frames=30, arena=(4.0, 4.0), ring_radius=2.9,
    cam_height=0.9, focal=300.0, skeleton="coco17", pixel_noise=1.0,
)
_OCCLUSIONS = (
    Occlusion(camera_id=1, start=2, stop=9),
    Occlusion(camera_id=0, start=4, stop=12, object_id=2),
)


class TestRendererMatchesLoop:
    """``generate`` renders the whole scene as arrays; the oracle renders it
    one (frame, object, camera) at a time, drawing noise as it goes."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(motion="static", occlusions=_OCCLUSIONS[:1]),
            dict(motion="static", pixel_noise=3.0, skeleton="panoptic15"),
            dict(motion="constant-velocity", pixel_noise=1.0, skeleton="panoptic15",
                 occlusions=_OCCLUSIONS[1:]),
            dict(motion="constant-velocity", skeleton="coco17", occlusions=_OCCLUSIONS),
            dict(motion="waypoint", pixel_noise=3.0, skeleton="coco17", occlusions=_OCCLUSIONS),
            # 25 px noise pushes boxes and joints across the image border and
            # swaps box corners.
            dict(motion="waypoint", pixel_noise=25.0, occlusions=_OCCLUSIONS),
            dict(motion="waypoint", pixel_noise=25.0, skeleton="panoptic15", focal=1500.0),
            _DEGENERATE,
            dict(num_objects=0),
            dict(num_objects=0, pixel_noise=1.0, skeleton="coco17"),
        ],
    )
    def test_columns_equal_loop(self, kwargs):
        spec = _spec(**{**dict(seed=7, num_objects=4, num_cameras=4, frames=15), **kwargs})
        bundle, gt = generate(spec)
        want_ann, want_gt = loop_generate(spec)
        for got, want in ((bundle.annotations, want_ann), (gt, want_gt)):
            for name in got.__dataclass_fields__:
                a, b = getattr(got, name), getattr(want, name)
                if b is None:
                    assert a is None, name
                else:
                    assert a.shape == b.shape, name
                    np.testing.assert_array_equal(a, b, err_msg=name)

    def test_degenerate_frames_alone_go_row_by_row(self, monkeypatch):
        spec = _spec(**_DEGENERATE)
        bundle, gt = generate(spec)
        n = spec.num_objects
        centers = gt.position.reshape(spec.frames, n, 3)
        half = gt.half_axes.reshape(spec.frames, n, 3)
        raising = 0
        for cam in bundle.calibration.values():
            for c, h in zip(centers, half):
                try:
                    project_ellipsoid_to_bbox(cam, c, h)
                except GeometryError:
                    raising += 1
        assert 0 < raising < spec.frames

        calls = []

        def counted(cam, center, half_axes):
            calls.append(np.ndim(center))
            return project_ellipsoid_to_bbox(cam, center, half_axes)

        monkeypatch.setattr(synth, "project_ellipsoid_to_bbox", counted)
        generate(spec)
        assert calls.count(1) == raising * n

    def test_noiseless_values_untouched(self, monkeypatch):
        # Adding a zero noise would turn -0.0 into 0.0.
        def negative_zero_u(kernel):
            def patched(cam, *args):
                out = kernel(cam, *args)
                out[..., 0] = -0.0
                return out
            return patched

        monkeypatch.setattr(synth, "project_ellipsoid_to_bbox", negative_zero_u(project_ellipsoid_to_bbox))
        monkeypatch.setattr(synth, "project_point", negative_zero_u(project_point))
        ann = generate(_spec(skeleton="coco17"))[0].annotations
        front = ann.keypoints[..., 2] == 1.0
        assert len(ann) and front.any()
        assert np.signbit(ann.bbox[:, 0]).all()
        assert np.signbit(ann.keypoints[..., 0][front]).all()


class TestMotionModels:
    def test_static_objects_do_not_move(self):
        gt = track_dicts(generate(_spec(motion="static", frames=9))[1])
        for per_frame in gt.positions.values():
            arr = np.stack([per_frame[f] for f in sorted(per_frame)])
            assert np.ptp(arr, axis=0).max() == 0.0

    def test_constant_velocity_second_difference_vanishes(self):
        gt = track_dicts(generate(_spec(motion="constant-velocity", frames=20))[1])
        for per_frame in gt.positions.values():
            arr = np.stack([per_frame[f] for f in sorted(per_frame)])
            accel = np.diff(arr, n=2, axis=0)
            assert np.abs(accel).max() < 1e-12

    def test_waypoint_speed_bounded_and_inside(self):
        spec = _spec(motion="waypoint", frames=40, seed=6)
        gt = track_dicts(generate(spec)[1])
        dt = 1.0 / spec.fps
        bound = np.array([0.48 * 12.0, 0.48 * 12.0])
        for per_frame in gt.positions.values():
            arr = np.stack([per_frame[f] for f in sorted(per_frame)])
            steps = np.linalg.norm(np.diff(arr[:, :2], axis=0), axis=1)
            assert steps.max() <= 0.9 * dt + 1e-9
            assert np.all(np.abs(arr[:, :2]) <= bound + 1e-9)

    def test_height_is_half_axis(self):
        gt = track_dicts(generate(_spec())[1])
        for oid, per_frame in gt.positions.items():
            for f, p in per_frame.items():
                assert p[2] == gt.half_axes[oid][f][2]


class TestOcclusions:
    def test_camera_window_dropped(self):
        occ = Occlusion(camera_id=1, start=2, stop=4)
        bundle, _ = generate(_spec(frames=6, occlusions=(occ,), skeleton="coco17"))
        ann = bundle.annotations
        seen = set(zip(ann.frame.tolist(), ann.camera_id.tolist()))
        assert (2, 1) not in seen and (3, 1) not in seen
        assert (1, 1) in seen and (4, 1) in seen

    def test_object_specific_window(self):
        occ = Occlusion(camera_id=0, start=0, stop=6, object_id=0)
        ann = generate(_spec(frames=6, occlusions=(occ,)))[0].annotations
        assert not ((ann.object_id == 0) & (ann.camera_id == 0)).any()
        # object 1 is still observed by camera 0 somewhere
        assert ((ann.object_id == 1) & (ann.camera_id == 0)).any()


class TestPixelNoise:
    def test_noise_perturbs_but_stays_ordered(self):
        clean, _ = generate(_spec())
        noisy, gt = generate(_spec(pixel_noise=2.0))
        # Every box of this scene is inside the image, noisy or not.
        c, n = clean.annotations, noisy.annotations
        for col in ("frame", "object_id", "camera_id"):
            np.testing.assert_array_equal(getattr(c, col), getattr(n, col))
        box = n.bbox
        assert (box[:, :2] <= box[:, 2:]).all()
        diffs = np.abs(box - c.bbox).max(axis=1)
        assert diffs.max() > 0.1  # noise actually applied
        assert diffs.max() < 16.0  # ~8 sigma


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    objects=st.integers(1, 8),
    frames=st.integers(1, 600),
    fps=st.floats(0.5, 120.0),
    spread=st.floats(0.01, 20.0),
)
def test_constant_velocity_has_the_bits_of_stepping_frame_by_frame(seed, objects, frames, fps, spread):
    spec = _spec(seed=seed, num_objects=objects, frames=frames, fps=fps)
    starts = np.random.default_rng(seed).uniform(-spread, spread, (objects, 2))
    got = synth._plan_motion(spec, np.random.default_rng(seed), starts)
    want = loop_constant_velocity(spec, np.random.default_rng(seed), starts)
    assert got.tobytes() == want.tobytes()
