"""The box step against its earlier form (``oracles.loop_*``): the same bits
on healthy, jittered and clamped stacks, the same error on degenerate rows
and at the exact boundaries of every whole-stack check, and a fixed number
of factorizations per update."""

import numpy as np
import pytest

from mvfuse import filter as filter_mod
from mvfuse.errors import GeometryError, SigmaPointProjectionFailure
from mvfuse.filter import POS, SHAPE, GaussianBelief, sigma_points, ukf_update
from mvfuse.geometry import CameraModel, project_ellipsoid_to_bbox, project_point
from mvfuse.tracker import bbox_measurement

from oracles import (
    loop_project_ellipsoid_to_bbox,
    loop_sigma_points,
    loop_ukf_update,
    random_camera,
    random_spd,
)

R_BOX = 9.0 * np.eye(4)


def _camera(rng):
    K, R, t, w, h = random_camera(rng)
    return CameraModel(intrinsics=K, rotation=R, translation=t, image_size=(w, h))


def _identity_camera():
    # P = [I | 0]: every conic entry is a sum of exact squares and products
    # for small integer inputs, so boundary cases can be built exactly.
    return CameraModel(
        intrinsics=np.eye(3), rotation=np.eye(3), translation=np.zeros(3), image_size=(10, 10)
    )


def _loop_h(cam):
    """The box map as the tracker built it before: fancy-indexed positions
    and an exp of the log half-axes."""
    return lambda X: loop_project_ellipsoid_to_bbox(cam, X[..., POS], np.exp(X[..., SHAPE]))


def _stack(rng, n, kind="healthy"):
    mean = np.zeros((n, 9))
    mean[:, POS] = rng.normal(0.0, 1.0, (n, 3)) + [0.0, 0.0, 0.9]
    mean[:, 1:6:2] = rng.normal(0.0, 0.5, (n, 3))
    mean[:, SHAPE] = np.log([0.3, 0.3, 0.9]) + rng.normal(0.0, 0.1, (n, 3))
    cov = np.array([random_spd(rng, 9, 0.01) for _ in range(n)])
    if kind == "singular":
        # One zero eigenvalue made slightly negative: the stacked Cholesky
        # fails and the row walks the jitter ladder.
        for i in range(n):
            w, V = np.linalg.eigh(cov[i])
            w[0] = -1e-15 * w[-1]
            cov[i] = (V * w) @ V.T
            cov[i] = 0.5 * (cov[i] + cov[i].T)
    return mean, cov


def _same_outcome(new, old):
    """Run both callables; they must return equal bits or raise the same
    exception type with the same message. Returns the result, or the
    exception both raised."""
    try:
        expected = old()
    except Exception as exc:  # noqa: BLE001 - any error must be mirrored
        with pytest.raises(type(exc)) as info:
            new()
        assert str(info.value) == str(exc)
        return info.value
    got = new()
    for a, b in zip(got if isinstance(got, tuple) else (got,),
                    expected if isinstance(expected, tuple) else (expected,)):
        np.testing.assert_array_equal(a, b)
        assert a.shape == b.shape
    return got


class TestSameBitsAsLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_stacks(self, seed):
        rng = np.random.default_rng(seed)
        cam = _camera(rng)
        n = int(rng.integers(1, 13))
        kind = ("healthy", "singular")[seed % 2]
        mean, cov = _stack(rng, n, kind)

        X, wm, wc = sigma_points(mean, cov)
        X0, wm0, wc0 = loop_sigma_points(mean, cov)
        for a, b in ((X, X0), (wm, wm0), (wc, wc0)):
            np.testing.assert_array_equal(a, b)

        h, h0 = bbox_measurement(cam), _loop_h(cam)
        np.testing.assert_array_equal(h(X), h0(X0))
        z = h(X)[:, 0] + rng.normal(0.0, 3.0, (n, 4))
        got = _same_outcome(
            lambda: ukf_update(mean, cov, z, h, R_BOX),
            lambda: loop_ukf_update(mean, cov, z, h0, R_BOX),
        )
        assert isinstance(got, Exception) or got[0].shape == (n, 9)

    def test_jitter_ladder_and_clamp_reached(self, monkeypatch):
        # Priors with a slightly negative eigenvalue reach the jitter ladder,
        # and their posteriors keep it, so the clamp runs too; with noise
        # far below the box scale as well, both paths still give the loop's
        # bits.
        calls = {"jitter": 0, "clamp": 0}
        chol, clamp = filter_mod._chol_with_jitter, filter_mod._clamp_indefinite

        def counted_chol(mats, scale, *args):
            try:
                np.linalg.cholesky(scale * mats)
            except np.linalg.LinAlgError:
                calls["jitter"] += 1
            return chol(mats, scale, *args)

        def counted_clamp(cov):
            calls["clamp"] += 1
            return clamp(cov)

        monkeypatch.setattr(filter_mod, "_chol_with_jitter", counted_chol)
        monkeypatch.setattr(filter_mod, "_clamp_indefinite", counted_clamp)
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            cam = _camera(rng)
            n = int(rng.integers(1, 13))
            mean, cov = _stack(rng, n, "singular")
            h, h0 = bbox_measurement(cam), _loop_h(cam)
            z = h0(mean[:, None, :])[:, 0]
            for noise in (R_BOX, 1e-14 * np.eye(4)):
                _same_outcome(
                    lambda: ukf_update(mean, cov, z, h, noise),
                    lambda: loop_ukf_update(mean, cov, z, h0, noise),
                )
        assert calls["jitter"] > 0 and calls["clamp"] > 0

    @pytest.mark.parametrize("where", ["behind", "inside", "c22"])
    def test_degenerate_row_raises_as_loop(self, where):
        cam = _identity_camera()
        centers = np.array([[0.0, 0.0, 10.0], [1.0, -1.0, 12.0], [0.5, 0.5, 9.0]])
        half = np.full((3, 3), 0.5)
        if where == "behind":
            centers[1] = [0.0, 0.0, -4.0]
        elif where == "inside":
            centers[1], half[1] = [0.5, 0.0, 1.0], [3.0, 3.0, 3.0]
        else:  # C22 = c^2 - Z^2 = 0 exactly
            centers[1], half[1] = [0.0, 0.0, 2.0], [0.5, 0.5, 2.0]
        out = _same_outcome(
            lambda: project_ellipsoid_to_bbox(cam, centers, half),
            lambda: loop_project_ellipsoid_to_bbox(cam, centers, half),
        )
        assert isinstance(out, GeometryError) and str(out).endswith("at row 1")

        # Through the update: a sigma point on the bad row fails the stack.
        mean = np.zeros((3, 9))
        mean[:, POS], mean[:, SHAPE] = centers, np.log(half)
        cov = np.broadcast_to(1e-6 * np.eye(9), (3, 9, 9)).copy()
        z = np.full((3, 4), 5.0)
        h, h0 = bbox_measurement(cam), _loop_h(cam)
        out = _same_outcome(
            lambda: ukf_update(mean, cov, z, h, R_BOX)[0],
            lambda: loop_ukf_update(mean, cov, z, h0, R_BOX)[0],
        )
        assert isinstance(out, SigmaPointProjectionFailure)


class TestWholeStackBoundaries:
    """Each whole-stack test must trip exactly where the per-row search of
    the loop form finds a row, and name the same row."""

    def _check(self, cam, centers, half):
        return _same_outcome(
            lambda: project_ellipsoid_to_bbox(cam, centers, half),
            lambda: loop_project_ellipsoid_to_bbox(cam, centers, half),
        )

    def _good(self, n):
        return np.tile([[0.2, -0.1, 8.0]], (n, 1)), np.full((n, 3), 0.4)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_depth_at_1e9(self, step):
        cam = _identity_camera()
        depth = 1e-9
        for _ in range(abs(step)):
            depth = np.nextafter(depth, np.inf * step)
        centers, half = self._good(3)
        centers[2] = [0.0, 0.0, depth]
        half[2] = 1e-12
        out = self._check(cam, centers, half)
        assert isinstance(out, GeometryError)  # a 1e-12 ellipsoid at 1e-9 m is degenerate anyway
        assert ("center depth" in str(out)) == (depth <= 1e-9)

    @pytest.mark.parametrize("step", [-1, 0, 1])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_c22_at_threshold(self, step, stacked):
        # Row with C = (a^2, b^2, 0, 0, c^2 - Z^2, 0): c = 1.5, Z = 2.5 give
        # |C22| = 4, and a is the half-axis nearest 2e6 with 1e-12 a^2 = 4.
        cam = _identity_camera()
        start = np.sqrt(4e12)
        a = next(b for b in start + np.spacing(start) * np.arange(-300, 300)
                 if 1e-12 * (b * b) == 4.0)
        for _ in range(abs(step)):
            a = np.nextafter(a, np.inf * step)
        centers, half = self._good(3)
        centers[1], half[1] = [0.0, 0.0, 2.5], [a, 1.0, 1.5]
        if stacked:  # a larger conic elsewhere trips the whole-stack test
            centers[2], half[2] = [0.0, 0.0, 9.0], [3e6, 1.0, 1.0]
        else:
            centers, half = centers[1:2], half[1:2]
        out = self._check(cam, centers, half)
        if step <= 0:
            assert np.isfinite(out).all()
        else:
            assert isinstance(out, GeometryError) and "C22" in str(out)

    @pytest.mark.parametrize("a", [5.0, np.nextafter(5.0, 0.0)])
    def test_disc_exactly_zero(self, a):
        # Center (4, 4, 3), half-axes (a, 1, 5): C22 = 16, C02 = -12 and
        # C00 = a^2 - 16, so disc u = 0.5625 - C00 / 16 is exactly 0 at
        # a = 5, while disc v = 1.5.
        cam = _identity_camera()
        centers, half = self._good(4)
        centers[2], half[2] = [4.0, 4.0, 3.0], [a, 1.0, 5.0]
        out = self._check(cam, centers, half)
        if a == 5.0:
            assert str(out).endswith("(disc u, v = [0.0, 1.5]) at row 2")
        else:
            assert np.isfinite(out).all()

    @pytest.mark.parametrize("bad_later", [False, True])
    def test_overflowed_row_among_good_rows(self, bad_later):
        # A finite row whose conic overflows to inf and NaN is refused by
        # name, with no warning, unless the depth test trips on a later row.
        cam = _identity_camera()
        centers, half = self._good(4)
        centers[1] = [1e200, 1e200, 1e200]
        if bad_later:
            centers[3] = [0.0, 0.0, -1.0]
        with np.errstate(all="ignore"), pytest.raises(GeometryError) as loop:  # the loop warns
            loop_project_ellipsoid_to_bbox(cam, centers, half)
        with pytest.raises(type(loop.value)) as info:  # a warning would be an error here
            project_ellipsoid_to_bbox(cam, centers, half)
        assert str(info.value) == str(loop.value)
        if bad_later:
            assert str(info.value).startswith("ellipsoid center depth") and "at row 3" in str(info.value)
        else:
            assert str(info.value) == "outline conic overflows at row 1"


class TestNonFiniteInput:
    # A non-finite input row trips one of the whole-stack tests whatever
    # the camera, including one whose P has exact zeros (inf * 0 is NaN).
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", range(6))
    @pytest.mark.parametrize("identity", [False, True])
    def test_box_names_first_non_finite_row(self, value, column, identity):
        cam = _identity_camera() if identity else _camera(np.random.default_rng(column))
        centers = np.zeros((4, 3)) + [0.0, 0.0, 0.9 + 5.0 * identity]
        half = np.full((4, 3), 0.4)
        for row in (2, 3):
            (centers if column < 3 else half)[row, column % 3] = value
        with np.errstate(all="ignore"):
            with pytest.raises(GeometryError, match=r"^non-finite center and half-axes .* at row 2$"):
                project_ellipsoid_to_bbox(cam, centers, half)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", range(3))
    @pytest.mark.parametrize("identity", [False, True])
    def test_point_names_first_non_finite_row(self, value, column, identity):
        cam = _identity_camera() if identity else _camera(np.random.default_rng(column))
        points = np.zeros((3, 3)) + [0.0, 0.0, 5.0 * identity]
        points[1, column] = value
        with np.errstate(all="ignore"):
            with pytest.raises(GeometryError, match=r"^non-finite point \[.*\] at row 1$"):
                project_point(cam, points)

    def test_single_rows_and_the_update(self):
        cam = _identity_camera()
        with pytest.raises(GeometryError, match=r"^non-finite center and half-axes \[0\.0, 0\.0, nan\] and \[0\.3, 0\.3, 0\.8\]$"):
            project_ellipsoid_to_bbox(cam, [0, 0, np.nan], [0.3, 0.3, 0.8])
        with pytest.raises(GeometryError, match=r"^non-finite point \[1\.0, nan, 2\.0\]$"):
            project_point(cam, [1.0, np.nan, 2.0])
        belief = GaussianBelief([0.0, 0.0, 0.0, 0.0, 5.0, 0.0], np.eye(6))

        def h(X):
            X = X.copy()
            X[0, 3, 2] = np.nan
            return project_point(cam, X[..., POS])

        with pytest.raises(SigmaPointProjectionFailure) as info:
            ukf_update(belief.mean, belief.covariance, [1.0, 1.0], h, np.eye(2))
        assert str(info.value).startswith("sigma points failed measurement map: non-finite point [")
        assert str(info.value).endswith("at row (0, 3)")


class TestBudget:
    def test_one_box_update_factorizes_a_fixed_number_of_times(self, monkeypatch):
        rng = np.random.default_rng(7)
        cam = _camera(rng)
        mean, cov = _stack(rng, 6)
        belief = GaussianBelief(mean, cov)
        h = bbox_measurement(cam)
        z = h(sigma_points(belief.mean, belief.covariance)[0])[:, 0] + 1.0
        calls = {"cholesky": 0, "solve": 0, "eigh": 0, "h": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("cholesky", "solve", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        ukf_update(belief.mean, belief.covariance, z, counting("h", h), R_BOX)
        assert calls == {"cholesky": 3, "solve": 2, "eigh": 0, "h": 1}

    def test_camera_constants_built_once_and_read_only(self):
        cam = _camera(np.random.default_rng(3))
        # Built with the camera, before any kernel call.
        consts = cam.__dict__["_kernel_constants"]
        P = cam.projection_matrix
        project_point(cam, [0.0, 0.0, 0.5])
        for _ in range(3):
            project_ellipsoid_to_bbox(cam, [[0.0, 0.0, 0.5]], [[0.3, 0.3, 0.8]])
            project_point(cam, [[0.0, 0.0, 0.5]])
        assert cam.__dict__["_kernel_constants"] is consts
        assert cam.projection_matrix is P
        for a in (P,) + consts:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_sigma_weights_shared_and_read_only(self):
        b = GaussianBelief(np.zeros(3), np.eye(3))
        _, wm, wc = sigma_points(b.mean, b.covariance)
        _, wm2, wc2 = sigma_points(b.mean, b.covariance)
        assert wm is wm2 and wc is wc2
        assert not wm.flags.writeable and not wc.flags.writeable
