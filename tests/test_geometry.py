import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse import (
    CameraModel,
    DegenerateConic,
    DegenerateHomography,
    NonPositiveDepth,
    PointAtInfinity,
    SceneSpec,
    backproject_ground,
    generate,
    ground_homography,
    in_front,
    project_ellipsoid_to_bbox,
    project_point,
)
from oracles import random_camera, sampled_bbox


class TestCameraModel:
    def test_camera_center(self, overhead_camera):
        # The optical center C = -R^T t has zero depth: nothing projects.
        cam = overhead_camera
        center = -cam.rotation.T @ cam.translation
        np.testing.assert_allclose(center, [0, 0, 10])
        assert not in_front(cam, center)
        assert in_front(cam, center - [0, 0, 1e-3])
        with pytest.raises(NonPositiveDepth):
            project_point(cam, center)

    def test_projection_matrix(self, overhead_camera):
        P = overhead_camera.projection_matrix
        X = np.array([1.0, 2.0, 0.0, 1.0])
        uvw = P @ X
        assert np.allclose(uvw[:2] / uvw[2], [600, 300])

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraModel(
                intrinsics=np.eye(3),
                rotation=np.eye(3) * 2.0,
                translation=np.zeros(3),
                image_size=(100, 100),
            )

    def test_rejects_huge_rotation_without_overflow(self):
        # Such an entry, found by the annotate fuzz test, overflowed R.T @ R
        # with a RuntimeWarning before the rotation was refused.
        with pytest.raises(ValueError, match="orthonormal"):
            CameraModel(
                intrinsics=np.eye(3),
                rotation=np.diag([1.0, 1.0, 1e155]),
                translation=np.zeros(3),
                image_size=(100, 100),
            )

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            CameraModel(
                intrinsics=np.eye(3),
                rotation=np.diag([1.0, 1.0, -1.0]),
                translation=np.zeros(3),
                image_size=(100, 100),
            )

    def test_rejects_lower_triangular_intrinsics(self):
        K = np.eye(3)
        K[1, 0] = 5.0
        with pytest.raises(ValueError, match="triangular"):
            CameraModel(
                intrinsics=K,
                rotation=np.eye(3),
                translation=np.zeros(3),
                image_size=(100, 100),
            )

    def test_rejects_non_positive_focal(self):
        K = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="focal"):
            CameraModel(
                intrinsics=K,
                rotation=np.eye(3),
                translation=np.zeros(3),
                image_size=(100, 100),
            )

    def test_rejects_bad_image_size(self):
        with pytest.raises(ValueError, match="image_size"):
            CameraModel(
                intrinsics=np.eye(3),
                rotation=np.eye(3),
                translation=np.zeros(3),
                image_size=(0, 100),
            )

    def test_arrays_are_read_only(self, overhead_camera):
        with pytest.raises(ValueError):
            overhead_camera.rotation[0, 0] = 2.0


class TestEllipsoid:
    def test_rejects_non_positive_axes(self, axis_camera):
        with pytest.raises(ValueError, match="positive"):
            project_ellipsoid_to_bbox(
                axis_camera, [0.0, 0.0, 5.0], np.array([1.0, 0.0, 1.0])
            )


class TestProjectPoint:
    def test_known_ground_point(self, overhead_camera):
        assert np.allclose(project_point(overhead_camera, [1, 2, 0]), [600, 300])

    def test_origin_hits_principal_point(self, overhead_camera):
        assert np.allclose(project_point(overhead_camera, [0, 0, 0]), [500, 500])

    def test_behind_camera_raises(self, overhead_camera):
        with pytest.raises(NonPositiveDepth):
            project_point(overhead_camera, [0.0, 0.0, 11.0])

    def test_depth_epsilon_boundary(self, overhead_camera):
        with pytest.raises(NonPositiveDepth):
            project_point(overhead_camera, [0.0, 0.0, 10.0])

    def test_stack_equals_row_by_row(self, overhead_camera):
        points = np.random.default_rng(5).uniform(-4, 4, size=(2, 7, 3))
        got = project_point(overhead_camera, points)
        assert got.shape == (2, 7, 2)
        for idx in np.ndindex(2, 7):
            np.testing.assert_array_equal(
                got[idx], project_point(overhead_camera, points[idx])
            )

    def test_names_first_row_behind_camera(self, overhead_camera):
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 12.0], [0.0, 0.0, 11.0]])
        with pytest.raises(NonPositiveDepth, match="at row 1$"):
            project_point(overhead_camera, points)

    def test_in_front_matches_projection_rule(self, overhead_camera):
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 10.0], [1.0, 1.0, 11.0]])
        mask = in_front(overhead_camera, points)
        np.testing.assert_array_equal(mask, [True, False, False])
        project_point(overhead_camera, points[mask])
        for p in points[~mask]:
            with pytest.raises(NonPositiveDepth):
                project_point(overhead_camera, p)


class TestGroundHomography:
    def test_origin_column(self, overhead_camera):
        H = ground_homography(overhead_camera)
        w = H @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(w / w[2], [500, 500, 1])

    def test_matches_projection_for_ground_points(self, overhead_camera):
        H = ground_homography(overhead_camera)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(-4, 4, 2)
            w = H @ np.array([x, y, 1.0])
            assert np.allclose(
                w[:2] / w[2], project_point(overhead_camera, [x, y, 0.0])
            )

    def test_camera_in_plane_degenerate(self):
        cam = CameraModel(
            intrinsics=np.array(
                [[1000.0, 0.0, 500.0], [0.0, 1000.0, 500.0], [0.0, 0.0, 1.0]]
            ),
            rotation=np.eye(3),
            translation=np.zeros(3),
            image_size=(1000, 1000),
        )
        with pytest.raises(DegenerateHomography):
            ground_homography(cam)


def _side_camera():
    """Camera 1 m above ground looking along world +x (horizontal axis)."""
    R = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    center = np.array([-5.0, 0.0, 1.0])
    return CameraModel(
        intrinsics=np.array(
            [[800.0, 0.0, 640.0], [0.0, 800.0, 360.0], [0.0, 0.0, 1.0]]
        ),
        rotation=R,
        translation=-R @ center,
        image_size=(1280, 720),
    )


class TestBackprojectGround:
    def test_roundtrip_known_point(self, overhead_camera):
        assert np.allclose(
            backproject_ground(overhead_camera, [600, 300]), [1, 2, 0]
        )

    def test_roundtrip_random(self, overhead_camera):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = np.array([*rng.uniform(-4, 4, 2), 0.0])
            uv = project_point(overhead_camera, p)
            assert np.linalg.norm(backproject_ground(overhead_camera, uv) - p) < 1e-6

    def test_horizon_pixel_raises(self):
        cam = _side_camera()
        # The principal point looks along the horizontal optical axis.
        with pytest.raises(PointAtInfinity):
            backproject_ground(cam, [640.0, 360.0])

    def test_result_is_on_ground(self):
        cam = _side_camera()
        p = backproject_ground(cam, [640.0, 500.0])
        assert p[2] == 0.0

    def test_pixel_above_horizon_raises(self):
        # Above the horizon only the backward ray meets the ground.
        with pytest.raises(NonPositiveDepth):
            backproject_ground(_side_camera(), [640.0, 200.0])

    def test_ground_hit_behind_synth_camera_raises(self):
        # Default synth rig, camera 0: pixel (930, 1) used to give the
        # ground point (30.59, 0.67, 0) at camera depth -9.22 m.
        bundle, _ = generate(SceneSpec(num_objects=0, frames=1))
        with pytest.raises(NonPositiveDepth, match="behind the camera"):
            backproject_ground(bundle.calibration[0], [930.0, 1.0])


class TestEllipsoidBBox:
    def test_unit_sphere_silhouette(self, axis_camera):
        box = project_ellipsoid_to_bbox(axis_camera, [0.0, 0.0, 5.0], [1.0, 1.0, 1.0])
        half_width = 1000.0 / np.sqrt(24.0)
        assert np.allclose(
            box,
            [500 - half_width, 500 - half_width, 500 + half_width, 500 + half_width],
        )

    def test_silhouette_wider_than_naive_projection(self, axis_camera):
        # The silhouette of a sphere subtends more than f * r / depth.
        box = project_ellipsoid_to_bbox(axis_camera, [0.0, 0.0, 5.0], [1.0, 1.0, 1.0])
        assert (box[2] - box[0]) / 2.0 > 1000.0 / 5.0

    def test_behind_camera_raises(self, axis_camera):
        with pytest.raises(NonPositiveDepth):
            project_ellipsoid_to_bbox(axis_camera, [0.0, 0.0, -5.0], [1.0, 1.0, 1.0])

    def test_camera_inside_raises(self, axis_camera):
        with pytest.raises(DegenerateConic):
            project_ellipsoid_to_bbox(axis_camera, [0.0, 0.0, 0.5], [1.0, 1.0, 1.0])

    def test_box_contains_projected_surface_points(self, axis_camera):
        rng = np.random.default_rng(2)
        center = np.array([0.5, -0.3, 6.0])
        half = np.array([0.4, 0.7, 1.1])
        box = project_ellipsoid_to_bbox(axis_camera, center, half)
        for _ in range(200):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            surface = center + direction * half
            u, v = project_point(axis_camera, surface)
            assert box[0] - 1e-9 <= u <= box[2] + 1e-9
            assert box[1] - 1e-9 <= v <= box[3] + 1e-9

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            K, R, t, _, _ = random_camera(rng)
            cam = CameraModel(
                intrinsics=K, rotation=R, translation=t, image_size=(1920, 1080)
            )
            center = rng.uniform(-2, 2, 3) + [0, 0, 1]
            half = rng.uniform(0.2, 1.0, 3)
            box = project_ellipsoid_to_bbox(cam, center, half)
            oracle = sampled_bbox(K, R, t, center, half, n=10_000)
            assert np.max(np.abs(box - oracle)) < 0.5

    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(4)
        K, R, t, w, h = random_camera(rng)
        cam = CameraModel(intrinsics=K, rotation=R, translation=t, image_size=(w, h))
        centers = rng.uniform([-2, -2, 0.3], [2, 2, 1.8], size=(3, 19, 3))
        halves = rng.uniform(0.2, 1.0, size=(3, 19, 3))
        got = project_ellipsoid_to_bbox(cam, centers, halves)
        assert got.shape == (3, 19, 4)
        for idx in np.ndindex(3, 19):
            np.testing.assert_array_equal(
                got[idx], project_ellipsoid_to_bbox(cam, centers[idx], halves[idx])
            )

    def test_names_first_degenerate_row(self, axis_camera):
        centers = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -5.0], [0.0, 0.0, -6.0]])
        with pytest.raises(NonPositiveDepth, match="at row 1$"):
            project_ellipsoid_to_bbox(axis_camera, centers, np.ones(3))
        centers[1:, 2] = [5.0, 0.5]
        with pytest.raises(DegenerateConic, match="at row 2$"):
            project_ellipsoid_to_bbox(axis_camera, centers, np.ones(3))


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(-4, 4),
    y=st.floats(-4, 4),
    fx=st.floats(500, 2000),
    height=st.floats(3, 30),
)
def test_ground_roundtrip_property(x, y, fx, height):
    cam = CameraModel(
        intrinsics=np.array([[fx, 0, 500.0], [0, fx, 500.0], [0, 0, 1.0]]),
        rotation=np.diag([1.0, -1.0, -1.0]),
        translation=np.array([0.0, 0.0, height]),
        image_size=(1000, 1000),
    )
    p = np.array([x, y, 0.0])
    uv = project_point(cam, p)
    assert np.linalg.norm(backproject_ground(cam, uv) - p) < 1e-6
