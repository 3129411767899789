import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse import (
    CholeskyFailure,
    DimensionMismatch,
    DivergentUpdate,
    GaussianBelief,
    InvalidDt,
    MotionModel,
    NonPositiveDepth,
    SigmaPointProjectionFailure,
    SingularInnovation,
    kalman_predict,
    make_motion_model,
    sigma_points,
    ukf_update,
    update_rows,
)
from oracles import ClosedFormKF, random_spd


class TestGaussianBelief:
    def test_rejects_asymmetric_covariance(self):
        cov = np.eye(2)
        cov[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            GaussianBelief(np.zeros(2), cov)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            GaussianBelief(np.zeros(2), np.diag([1.0, -0.5]))

    def test_tolerates_tiny_negative_eigenvalue(self):
        b = GaussianBelief(np.zeros(2), np.diag([1.0, -1e-12]))
        assert b.mean.shape == (1, 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianBelief(np.zeros(3), np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianBelief(np.array([np.nan, 0.0]), np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            GaussianBelief(np.zeros(2), np.diag([1.0, np.inf]))

    def test_rejects_covariance_that_overflows_when_symmetrized(self):
        # Finite entries whose sum overflows: refused, with no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                GaussianBelief(np.zeros(2), np.diag([1.7e308, 1.7e308]))

    def test_stack_check_names_bad_row(self):
        cov = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
        with pytest.raises(ValueError, match="row 1 has a significantly negative"):
            GaussianBelief(np.zeros((3, 2)), cov)


class TestSigmaPoints:
    def test_known_1d_example(self):
        # d=1, alpha=1, beta=0, kappa=2: lambda=2, points at 0, +-sqrt(3),
        # mean weights (2/3, 1/6, 1/6).
        b = GaussianBelief(np.zeros(1), np.eye(1))
        points, wm, wc = sigma_points(b.mean, b.covariance, alpha=1.0, beta=0.0, kappa=2.0)
        assert np.allclose(sorted(points.ravel()), [-np.sqrt(3), 0, np.sqrt(3)])
        assert np.allclose(wm, [2 / 3, 1 / 6, 1 / 6])
        assert np.allclose(wc, [2 / 3, 1 / 6, 1 / 6])

    def test_mean_weights_sum_to_one(self):
        b = GaussianBelief(np.zeros(5), np.eye(5))
        _, wm, _ = sigma_points(b.mean, b.covariance)
        assert np.isclose(wm.sum(), 1.0)

    def test_moment_reconstruction(self):
        rng = np.random.default_rng(0)
        for d in (1, 3, 6, 9):
            mean = rng.normal(size=d)
            cov = random_spd(rng, d)
            b = GaussianBelief(mean, cov)
            X, wm, wc = sigma_points(b.mean, b.covariance)
            rec_mean = wm @ X
            dX = X - rec_mean[:, None, :]
            rec_cov = np.swapaxes(dX, -1, -2) @ (wc[:, None] * dX)
            assert np.allclose(rec_mean, mean, atol=1e-9)
            assert np.max(np.abs(rec_cov - b.covariance)) < 1e-9 * max(
                1.0, np.max(np.abs(cov))
            )

    def test_jitter_recovers_semidefinite_covariance(self):
        cov = np.diag([1.0, 0.0])  # PSD but not PD
        b = GaussianBelief(np.zeros(2), cov)
        points, _, _ = sigma_points(b.mean, b.covariance)
        assert np.all(np.isfinite(points))

    def test_zero_covariance_fails(self):
        b = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(CholeskyFailure):
            sigma_points(b.mean, b.covariance)

    def test_invalid_scaling_rejected(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            sigma_points(b.mean, b.covariance, alpha=1.0, kappa=-5.0)


class TestMotionModel:
    def test_structure(self):
        m = make_motion_model(2.0, q_pos=1.0, q_shape=0.5)
        assert m.dim == 9
        kin = np.array([[1.0, 2.0], [0.0, 1.0]])
        for i in range(3):
            sl = slice(2 * i, 2 * i + 2)
            assert np.array_equal(m.transition[sl, sl], kin)
        assert np.array_equal(m.transition[6:, 6:], np.eye(3))
        qk = np.array([[4.0, 4.0], [4.0, 4.0]])  # dt=2: dt^4/4=4, dt^3/2=4, dt^2=4
        assert np.allclose(m.process_noise[:2, :2], qk)
        assert np.allclose(m.process_noise[6:, 6:], 0.5 * np.eye(3))

    def test_six_dim_variant(self):
        assert make_motion_model(0.1, q_pos=1.0).dim == 6

    def test_invalid_dt(self):
        with pytest.raises(InvalidDt):
            make_motion_model(0.0, q_pos=1.0)
        with pytest.raises(InvalidDt):
            make_motion_model(-1.0, q_pos=1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            make_motion_model(1.0, q_pos=-1.0)

    def test_process_noise_that_overflows_when_symmetrized_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="process_noise is not finite"):
                make_motion_model(1.0, q_pos=1e308)

    def test_asymmetric_process_noise_rejected(self):
        Q = np.eye(2)
        Q[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            MotionModel(transition=np.eye(2), process_noise=Q)


class TestPredict:
    def test_matches_manual_computation(self):
        rng = np.random.default_rng(1)
        m = make_motion_model(0.5, q_pos=0.1, q_shape=0.01)
        b = GaussianBelief(rng.normal(size=9), random_spd(rng, 9))
        mean, cov = kalman_predict(b.mean, b.covariance, m)
        F, Q = m.transition, m.process_noise
        assert np.allclose(mean[0], F @ b.mean[0])
        assert np.allclose(cov[0], F @ b.covariance[0] @ F.T + Q)

    def test_dimension_mismatch(self):
        b = GaussianBelief(np.zeros(6), np.eye(6))
        m = make_motion_model(1.0, q_pos=1.0, q_shape=1.0)
        with pytest.raises(DimensionMismatch):
            kalman_predict(b.mean, b.covariance, m)

    def test_overflowing_prediction_raises(self):
        # A filter failure, which the tracker isolates to the failing row.
        b = GaussianBelief(np.zeros(6), 1e300 * np.eye(6))
        m = make_motion_model(1e5, q_pos=0.0)
        with pytest.raises(DivergentUpdate, match="non-finite"):
            kalman_predict(b.mean, b.covariance, m)

    def test_overflow_in_symmetrizing_raises(self):
        # F P F^T is finite (position variance 1e308), but summing it with
        # its transpose overflows: an error, not an inf covariance or a
        # numpy overflow warning.
        b = GaussianBelief(np.zeros(6), 5e307 * np.eye(6))
        m = make_motion_model(1.0, q_pos=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentUpdate, match="non-finite"):
                kalman_predict(b.mean, b.covariance, m)


def _affine_update_pair(rng, d, m):
    """Random belief + affine measurement, returns (ukf posterior, kf oracle)."""
    mean = rng.normal(size=d)
    cov = random_spd(rng, d)
    H = rng.normal(size=(m, d))
    b_off = rng.normal(size=m)
    R = random_spd(rng, m, scale=0.5)
    z = rng.normal(size=m)

    belief = GaussianBelief(mean, cov)
    posterior = ukf_update(belief.mean, belief.covariance, z, lambda X: X @ H.T + b_off, R)

    oracle = ClosedFormKF(mean, cov)
    oracle.update(z, H, b_off, R)
    return posterior, oracle


class TestUkfUpdate:
    def test_exact_for_affine_measurements(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = rng.integers(1, 10)
            m = rng.integers(1, 5)
            (mean, cov), oracle = _affine_update_pair(rng, d, m)
            scale = max(1.0, np.max(np.abs(oracle.cov)))
            assert np.max(np.abs(mean - oracle.mean)) < 1e-9
            assert np.max(np.abs(cov - oracle.cov)) < 1e-9 * scale

    def test_exactness_independent_of_scaling(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=4)
        cov = random_spd(rng, 4)
        H = rng.normal(size=(2, 4))
        R = np.eye(2)
        z = rng.normal(size=2)
        oracle = ClosedFormKF(mean, cov)
        oracle.update(z, H, np.zeros(2), R)
        for alpha, beta, kappa in ((1.0, 0.0, 3.0), (0.3, 2.0, 0.0), (1e-2, 2.0, 1.0)):
            b = GaussianBelief(mean, cov)
            post_mean, _ = ukf_update(
                b.mean, b.covariance, z, lambda X: X @ H.T, R,
                alpha=alpha, beta=beta, kappa=kappa,
            )
            assert np.max(np.abs(post_mean - oracle.mean)) < 1e-9

    def test_posterior_covariance_shrinks(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))
        _, cov = ukf_update(b.mean, b.covariance, [0.5, 0.5], lambda X: X, 0.1 * np.eye(2))
        assert np.trace(cov[0]) < np.trace(b.covariance[0])
        assert np.linalg.eigvalsh(cov[0])[0] >= -1e-9

    def test_nonlinear_measurement_stays_psd(self):
        rng = np.random.default_rng(4)
        b = GaussianBelief(np.array([1.0, 2.0, 0.5]), random_spd(rng, 3, 0.1))
        _, cov = ukf_update(
            b.mean, b.covariance, [2.4], lambda X: np.linalg.norm(X, axis=-1, keepdims=True),
            np.array([[0.01]]),
        )
        assert np.linalg.eigvalsh(cov[0])[0] >= -1e-9

    def test_h_called_once_on_sigma_matrix(self):
        b = GaussianBelief(np.zeros(3), np.eye(3))
        shapes = []

        def h(X):
            shapes.append(X.shape)
            return X[..., :2]

        ukf_update(b.mean, b.covariance, [0.1, 0.2], h, np.eye(2))
        assert shapes == [(1, 7, 3)]

    def test_projection_failure_surfaces(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))

        def bad(X):
            raise NonPositiveDepth("behind")

        with pytest.raises(SigmaPointProjectionFailure):
            ukf_update(b.mean, b.covariance, [0.0], bad, np.eye(1))

    def test_singular_innovation(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(SingularInnovation):
            ukf_update(
                b.mean, b.covariance, [0.0], lambda X: np.zeros(X.shape[:-1] + (1,)), np.zeros((1, 1))
            )

    def test_non_finite_measurement_map_surfaces(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(SigmaPointProjectionFailure, match="non-finite"):
            ukf_update(
                b.mean, b.covariance, [0.0], lambda X: np.where(X[..., :1] > 0, np.inf, 0.0), np.eye(1)
            )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_posterior_raises(self):
        # the overflow is silent: the finiteness check raises, as in predict
        b = GaussianBelief(np.array([-1e308]), np.eye(1))
        with pytest.raises(DivergentUpdate):
            ukf_update(b.mean, b.covariance, [1e308], lambda X: X, np.eye(1))

    def test_noise_shape_mismatch(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            ukf_update(b.mean, b.covariance, [0.0, 1.0], lambda X: X, np.eye(3))

    def test_h_output_length_mismatch(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            ukf_update(b.mean, b.covariance, [0.0], lambda X: X, np.eye(1))


def _stack(rng, n, d):
    """A checked (n, d) mean and (n, d, d) covariance stack, as arrays."""
    b = GaussianBelief(
        rng.normal(size=(n, d)), np.array([random_spd(rng, d) for _ in range(n)])
    )
    return b.mean, b.covariance


def _bent(X):
    """A nonlinear map from states (..., d >= 4) to (..., 3)."""
    return np.stack(
        [np.sin(X[..., 0]), X[..., 1] * X[..., 2], np.exp(0.1 * X[..., 3])], axis=-1
    )


# Positive semidefinite within the belief check's -1e-9 tolerance, yet no
# rung of the jitter ladder makes it factorizable.
_UNFACTORIZABLE = np.diag([1e-20] * 8 + [-1e-10])


class TestStacks:
    def test_rows_equal_single_row_results(self):
        # Rows never mix: each row of a stacked predict, sigma-point set and
        # update is bit-identical to the same call on that row alone.
        rng = np.random.default_rng(5)
        mean, cov = _stack(rng, 6, 9)
        z, R = rng.normal(size=(6, 3)), random_spd(rng, 3)
        model = make_motion_model(0.1, q_pos=0.3, q_shape=0.01)
        post = ukf_update(mean, cov, z, _bent, R)
        pred = kalman_predict(mean, cov, model)
        X, _, _ = sigma_points(mean, cov)
        for i in range(6):
            one = mean[i : i + 1], cov[i : i + 1]
            for got, alone in zip(post, ukf_update(*one, z[i], _bent, R)):
                np.testing.assert_array_equal(got[i], alone[0])
            for got, alone in zip(pred, kalman_predict(*one, model)):
                np.testing.assert_array_equal(got[i], alone[0])
            np.testing.assert_array_equal(X[i], sigma_points(*one)[0][0])

    def test_h_maps_whole_stack_once(self):
        rng = np.random.default_rng(6)
        shapes = []

        def h(X):
            shapes.append(X.shape)
            return _bent(X)

        ukf_update(*_stack(rng, 4, 5), rng.normal(size=(4, 3)), h, np.eye(3))
        assert shapes == [(4, 11, 5)]

    def test_measurement_rows_must_match_belief_rows(self):
        mean, cov = _stack(np.random.default_rng(7), 3, 4)
        with pytest.raises(DimensionMismatch):
            ukf_update(mean, cov, np.zeros((2, 3)), _bent, np.eye(3))

    def test_unfactorizable_row_keeps_prior_beside_good_row(self):
        rng = np.random.default_rng(8)
        good = _stack(rng, 1, 9)
        bad = GaussianBelief(np.zeros(9), _UNFACTORIZABLE)
        with pytest.raises(CholeskyFailure):
            sigma_points(bad.mean, bad.covariance)
        pair = (
            np.concatenate([good[0], bad.mean]),
            np.concatenate([good[1], bad.covariance]),
        )
        z, R = rng.normal(size=(2, 3)), np.eye(3)
        with pytest.raises(CholeskyFailure):
            ukf_update(*pair, z, _bent, R)

        mean, cov = pair[0].copy(), pair[1].copy()
        failed = update_rows(
            lambda m, c, zz: ukf_update(m, c, zz, _bent, R), mean, cov, np.arange(2), z
        )
        alone = ukf_update(*good, z[:1], _bent, R)
        np.testing.assert_array_equal(mean[0], alone[0][0])
        np.testing.assert_array_equal(cov[0], alone[1][0])
        np.testing.assert_array_equal(mean[1], bad.mean[0])
        np.testing.assert_array_equal(cov[1], bad.covariance[0])
        assert [(i, type(e)) for i, e in failed] == [(1, CholeskyFailure)]

    def test_update_rows_without_failure_is_one_call(self):
        rng = np.random.default_rng(9)
        (mean, cov), z = _stack(rng, 3, 4), rng.normal(size=(3, 3))
        calls = []

        def update(m, c, zz):
            calls.append(len(m))
            return ukf_update(m, c, zz, _bent, np.eye(3))

        expected = ukf_update(mean, cov, z, _bent, np.eye(3))[0]
        mean, cov = mean.copy(), cov.copy()
        failed = update_rows(update, mean, cov, np.arange(3), z)
        assert calls == [3] and failed == []
        np.testing.assert_array_equal(mean, expected)

    def test_update_rows_writes_only_its_rows(self):
        # The posterior is written into the given rows of the stack, in
        # place; the other rows are not touched, and a failed row is named
        # by its index in the stack and keeps its prior.
        rng = np.random.default_rng(13)
        good = _stack(rng, 3, 9)
        mean = np.concatenate([good[0], np.zeros((1, 9))])
        cov = np.concatenate([good[1], _UNFACTORIZABLE[None]])
        prior = mean.copy(), cov.copy()
        z, R = rng.normal(size=(2, 3)), np.eye(3)
        failed = update_rows(
            lambda m, c, zz: ukf_update(m, c, zz, _bent, R), mean, cov, np.array([3, 1]), z
        )
        assert [(i, type(e)) for i, e in failed] == [(3, CholeskyFailure)]
        alone = ukf_update(prior[0][1:2], prior[1][1:2], z[1:], _bent, R)
        np.testing.assert_array_equal(mean[1], alone[0][0])
        np.testing.assert_array_equal(cov[1], alone[1][0])
        for i in (0, 2, 3):
            np.testing.assert_array_equal(mean[i], prior[0][i])
            np.testing.assert_array_equal(cov[i], prior[1][i])
        assert update_rows(None, mean, cov, np.array([], dtype=int), np.zeros((0, 3))) == []

    def test_jitter_is_chosen_per_row(self):
        # One row needs jitter; its neighbour's sigma points must not move.
        rng = np.random.default_rng(10)
        _, good = _stack(rng, 1, 2)
        pair = GaussianBelief(np.zeros((2, 2)), np.stack([good[0], np.diag([1.0, 0.0])]))
        X, _, _ = sigma_points(pair.mean, pair.covariance)
        alone, _, _ = sigma_points(np.zeros((1, 2)), good)
        np.testing.assert_array_equal(X[0], alone[0])
        assert np.all(np.isfinite(X[1]))


def _old_clamp(cov):
    """Reference PSD clamp: eigh of the whole stack, and each row with a
    negative eigenvalue rebuilt with its negative eigenvalues set to 0."""
    cov = cov.copy()
    w, V = np.linalg.eigh(cov)
    neg = w[:, 0] < 0.0
    clamped = (V[neg] * np.clip(w[neg], 0.0, None)[:, None, :]) @ np.swapaxes(V[neg], -1, -2)
    cov[neg] = 0.5 * (clamped + np.swapaxes(clamped, -1, -2))
    return cov


class TestTrustedBeliefs:
    """Predict and update return their (mean, cov) arrays without the
    eigenvalue check; the posterior clamp runs only when one batched
    Cholesky fails."""

    @pytest.fixture
    def eigh_inputs(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def spy(a):
            seen.append(a.copy())
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return seen

    def test_indefinite_posterior_clamped_as_before(self, eigh_inputs):
        # Row 0's prior has rank one, so measuring x leaves a singular
        # posterior that roundoff makes indefinite; row 1 stays definite.
        cov = np.array([[[0.7, 0.7], [0.7, 0.7]], [[2.0, 0.5], [0.5, 1.0]]])
        b = GaussianBelief(np.zeros((2, 2)), cov)
        _, post = ukf_update(b.mean, b.covariance, [[0.3], [0.3]], lambda X: X[..., :1], np.eye(1))
        [raw] = eigh_inputs  # the rows Cholesky rejected: row 0 alone
        assert raw.shape == (1, 2, 2) and np.linalg.eigvalsh(raw)[0, 0] < 0.0
        np.testing.assert_array_equal(post[:1], _old_clamp(raw))
        assert not np.array_equal(post[0], raw[0])
        np.testing.assert_array_equal(post[1:], _old_clamp(post[1:]))

    def test_clamp_never_mixes_rows(self):
        # Row 0's posterior is singular and fails Cholesky. Row 1's passes
        # it, though eigh may report a roundoff-negative eigenvalue for it
        # (about -1e-26 here); it is not clamped beside row 0 either.
        H = np.array([[2.0, 2.0, -2.0]])
        cov = np.stack([np.outer(H[0], H[0]) / 4.0, 1e-10 * np.eye(3)])
        b, z, R = GaussianBelief(np.zeros((2, 3)), cov), np.zeros((2, 1)), np.zeros((1, 1))
        _, post = ukf_update(b.mean, b.covariance, z, lambda X: X @ H.T, R)
        for i in range(2):
            one = b.mean[i : i + 1], b.covariance[i : i + 1]
            _, alone = ukf_update(*one, z[i], lambda X: X @ H.T, R)
            np.testing.assert_array_equal(post[i], alone[0])

    def test_definite_posterior_returned_unclamped(self, eigh_inputs):
        rng = np.random.default_rng(11)
        mean, cov = _stack(rng, 5, 9)
        _, post = ukf_update(mean, cov, rng.normal(size=(5, 3)), _bent, np.eye(3))
        assert eigh_inputs == []
        np.testing.assert_array_equal(post, _old_clamp(post))

    def test_update_writing_its_inputs_cannot_change_the_stack(self):
        # An update that writes into the arrays it receives reaches neither
        # the stack rows outside ``rows`` nor the rows whose update failed:
        # it gets copies, and only a returned posterior is written back.
        rng = np.random.default_rng(12)
        prior = _stack(rng, 4, 6)
        mean, cov = prior[0].copy(), prior[1].copy()
        z, R = rng.normal(size=(3, 3)), np.eye(3)
        retried = []

        def update(m, c, zz):
            retried.append(len(m))
            post = ukf_update(m.copy(), c.copy(), zz, _bent, R)
            m[:], c[:] = np.nan, np.nan
            if len(m) > 1 or zz[0, 0] == z[1, 0]:
                raise SingularInnovation("retry row by row; the second row fails")
            return post

        failed = update_rows(update, mean, cov, np.array([3, 0, 2]), z)
        assert retried == [3, 1, 1, 1]
        assert [(i, type(e)) for i, e in failed] == [(0, SingularInnovation)]
        for i in (0, 1):
            np.testing.assert_array_equal(mean[i], prior[0][i])
            np.testing.assert_array_equal(cov[i], prior[1][i])
        for i, k in ((3, 0), (2, 2)):
            alone = ukf_update(prior[0][i : i + 1], prior[1][i : i + 1], z[k], _bent, R)
            np.testing.assert_array_equal(mean[i], alone[0][0])
            np.testing.assert_array_equal(cov[i], alone[1][0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 9), m=st.integers(1, 4))
def test_affine_exactness_property(seed, d, m):
    rng = np.random.default_rng(seed)
    (mean, cov), oracle = _affine_update_pair(rng, d, m)
    scale = max(1.0, np.max(np.abs(oracle.cov)))
    assert np.max(np.abs(mean - oracle.mean)) < 1e-9
    assert np.max(np.abs(cov - oracle.cov)) < 1e-9 * scale
