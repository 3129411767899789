"""Metric tests built around small hand-checkable scenarios, seeded
randomized checks of the OSPA metric axioms, and a seeded comparison with
the one-pair-at-a-time reference implementations in ``oracles``."""

import itertools
import json
import math
import sys

import numpy as np
import pytest

from mvfuse import (
    EmptyGroundTruth,
    RunConfig,
    TrackTable,
    clear_mot,
    evaluate_tracks,
    idf1,
    ospa2,
    pose_metrics,
)
from mvfuse import metrics
from mvfuse.metrics import _bottleneck, _distance, linear_sum_assignment

from oracles import (
    loop_clear_mot,
    loop_frame_clear_mot,
    loop_frame_idf1,
    loop_frame_pose_metrics,
    loop_frame_ospa2,
    loop_idf1,
    loop_linear_sum_assignment,
    loop_ospa2,
    loop_pose_metrics,
)


def _still(frames, xyz):
    """frame -> position dict for an object parked at ``xyz``."""
    p = np.asarray(xyz, dtype=np.float64)
    return {f: p.copy() for f in frames}


def _table(positions, keypoints=None):
    """A track table from ``{oid: {frame: position}}`` and, optionally,
    ``{oid: {frame: (J, 3) pose}}`` dicts; every pose needs a position."""
    keys = sorted((f, oid) for oid, per in positions.items() for f in per)
    kp = None
    if keypoints and any(keypoints.values()):
        J = len(next(pose for per in keypoints.values() for pose in per.values()))
        absent = np.full((J, 3), np.nan)
        kp = np.array([keypoints.get(oid, {}).get(f, absent) for f, oid in keys])
    return TrackTable(
        frame=np.array([f for f, _ in keys], dtype=int),
        object_id=np.array([oid for _, oid in keys], dtype=int),
        position=np.array([positions[oid][f] for f, oid in keys]).reshape(-1, 3),
        keypoints=kp,
    )


def _poses(keypoints):
    """A track table of ``{oid: {frame: pose}}``, every position at the
    origin."""
    return _table({oid: _still(per, (0, 0, 0)) for oid, per in keypoints.items()}, keypoints)


class TestClearMot:
    def test_perfect(self):
        gt = _table({0: _still(range(5), (1, 2, 0)), 1: _still(range(5), (4, 1, 0))})
        res = clear_mot(gt, gt)
        assert (res.fp, res.fn, res.ids) == (0, 0, 0)
        assert res.mota == 100.0

    def test_identity_switch_frozen(self):
        # One GT object over two frames, covered by two different pred ids:
        # exactly one switch, MOTA = 100 * (1 - 1/2) = 50.
        gt = _table({0: _still([0, 1], (0, 0, 0))})
        pred = _table({10: _still([0], (0, 0, 0)), 11: _still([1], (0, 0, 0))})
        res = clear_mot(pred, gt)
        assert (res.fp, res.fn, res.ids) == (0, 0, 1)
        assert res.mota == 50.0

    def test_occlusion_gap_keeps_identity(self):
        # Prediction briefly missing: two misses but no switch on return.
        gt = _table({0: _still(range(5), (2, 2, 0))})
        pred = _table({7: _still([0, 1, 4], (2, 2, 0))})
        res = clear_mot(pred, gt)
        assert (res.fp, res.fn, res.ids) == (0, 2, 0)
        assert res.mota == 60.0

    def test_false_positive_counted(self):
        gt = _table({0: _still([0], (0, 0, 0))})
        pred = _table({0: _still([0], (0, 0, 0)), 9: _still([0], (8, 8, 0))})
        res = clear_mot(pred, gt)
        assert (res.fp, res.fn, res.ids) == (1, 0, 0)

    def test_outside_gate_is_fp_and_fn(self):
        gt = _table({0: _still([0], (0, 0, 0))})
        pred = _table({0: _still([0], (1.5, 0, 0))})
        res = clear_mot(pred, gt, threshold=1.0)
        assert (res.fp, res.fn) == (1, 1)
        assert res.mota == -100.0

    def test_gate_is_inclusive(self):
        gt = _table({0: _still([0], (0, 0, 0))})
        pred = _table({0: _still([0], (1.0, 0, 0))})
        res = clear_mot(pred, gt, threshold=1.0)
        assert (res.fp, res.fn) == (0, 0)

    def test_empty_gt_raises(self):
        with pytest.raises(EmptyGroundTruth):
            clear_mot(_table({0: _still([0], (0, 0, 0))}), _table({}))

    def test_threshold_must_be_positive(self):
        gt = _table({0: _still([0], (0, 0, 0))})
        with pytest.raises(ValueError, match="threshold"):
            clear_mot(gt, gt, threshold=0.0)

    def test_out_of_gate_cost_keeps_in_gate_distances_apart(self):
        # Frame 0: pred 7 is 0.3 m from gt 1 and 0.2 m from gt 2; pred 8 is
        # in no gate. The cost of pairing it must not swamp the 0.1 m
        # difference (at a cost of 1e15, whose float spacing is 0.125, both
        # assignments tie), so gt 2 keeps pred 7 and frame 1 has no switch.
        a = np.array
        gt = _table({
            1: _still([0, 1], (0, 0, 0)),
            2: {0: a([0.5, 0.0, 0.0]), 1: a([1.5, 0.0, 0.0])},
        })
        pred = _table({
            7: {0: a([0.3, 0.0, 0.0]), 1: a([1.5, 0.0, 0.0])},
            8: _still([0], (9, 9, 0)),
            9: _still([1], (0, 0, 0)),
        })
        res = clear_mot(pred, gt)
        assert (res.fp, res.fn, res.ids, res.mota) == (1, 1, 0, 50.0)
        assert tuple(res) == loop_clear_mot(pred, gt)

    def test_gate_past_two_to_the_53_never_matches_an_out_of_gate_pair(self):
        # At a 1e16 gate, 1e16 + 1.0 rounds to 1e16: the earlier out-of-gate
        # cost passed its "cost <= threshold" test, and a pair 2e16 apart
        # was matched. Whether a pair is in the gate is now its distance's
        # test alone.
        gt = _table({1: _still([0], (0, 0, 0))})
        pred = _table({1: _still([0], (2e16, 0, 0))})
        res = clear_mot(pred, gt, 1e16)
        assert tuple(res) == (1, 1, 0, -100.0) == loop_clear_mot(pred, gt, 1e16)
        assert loop_frame_clear_mot(pred, gt, 1e16) == (0, 0, 0, 100.0)

    def test_huge_gate_never_matches_an_overflowing_distance(self):
        # Every distance overflows to inf, beyond even the largest gate; the
        # out-of-gate cost stays finite, with no overflow warning for a numpy
        # gate either, so the assignment still runs.
        gt = _table({1: _still([0], (1e200, 0, 0)), 2: _still([0], (1e200, 1, 0))})
        pred = _table({1: _still([0], (-1e200, 0, 0)), 2: _still([0], (-1e200, 1, 0))})
        for threshold in (1e308, np.float64(1e308), sys.float_info.max):
            res = clear_mot(pred, gt, threshold)
            assert tuple(res) == (2, 2, 0, -100.0) == loop_clear_mot(pred, gt, threshold)


class TestIdf1:
    def test_perfect(self):
        gt = _table({0: _still(range(4), (1, 1, 0)), 1: _still(range(4), (3, 3, 0))})
        assert idf1(gt, gt) == 100.0

    def test_half_coverage_frozen(self):
        # 4 GT detections, 2 covered: IDF1 = 100 * 2*2 / (4 + 2) = 66.67.
        gt = _table({0: _still(range(4), (1, 1, 0))})
        pred = _table({5: _still([0, 1], (1, 1, 0))})
        assert idf1(pred, gt) == pytest.approx(200.0 / 3.0)

    def test_identity_split_frozen(self):
        # The frame-level switch scenario: trajectory assignment can pick
        # only one of the two fragments, IDF1 = 100 * 2*1 / (2 + 2) = 50.
        gt = _table({0: _still([0, 1], (0, 0, 0))})
        pred = _table({10: _still([0], (0, 0, 0)), 11: _still([1], (0, 0, 0))})
        assert idf1(pred, gt) == 50.0

    def test_no_predictions_scores_zero(self):
        gt = _table({0: _still([0], (0, 0, 0))})
        assert idf1(_table({}), gt) == 0.0

    def test_empty_gt_raises(self):
        with pytest.raises(EmptyGroundTruth):
            idf1(_table({}), _table({}))


def _random_trackset(rng, max_objects=4, frames=10):
    positions = {}
    for oid in range(rng.integers(0, max_objects + 1)):
        present = rng.random(frames) < 0.7
        if not present.any():
            continue
        positions[oid] = {
            f: rng.uniform(-2.0, 2.0, size=3) for f in range(frames) if present[f]
        }
    return _table(positions)


class TestOspa2:
    def test_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ts = _random_trackset(rng)
            assert ospa2(ts, ts) == 0.0

    def test_both_empty(self):
        assert ospa2(_table({}), _table({})) == 0.0

    def test_one_empty_saturates(self):
        ts = _table({0: _still(range(3), (0, 0, 0))})
        assert ospa2(_table({}), ts, cutoff=0.7) == 0.7
        assert ospa2(ts, _table({}), cutoff=0.7) == 0.7

    def test_far_prediction_saturates(self):
        gt = _table({0: _still(range(4), (0, 0, 0))})
        pred = _table({0: _still(range(4), (50, 0, 0))})
        assert ospa2(pred, gt, cutoff=1.0) == 1.0

    def test_missing_frame_hand_value(self):
        # Identical tracks except one of ten frames missing on the pred side:
        # base distances are nine zeros and one cutoff, so OSPA = 0.1.
        gt = _table({0: _still(range(10), (1, 1, 0))})
        pred = _table({0: _still(range(1, 10), (1, 1, 0))})
        assert ospa2(pred, gt, cutoff=1.0) == pytest.approx(0.1)

    def test_window_drops_old_frames(self):
        gt = _table({0: _still(range(10), (1, 1, 0))})
        pred = _table({0: _still(range(1, 10), (1, 1, 0))})
        assert ospa2(pred, gt, window=5) == 0.0
        assert ospa2(pred, gt, window=10) == pytest.approx(0.1)

    def test_window_ignores_tracks_outside_it(self):
        # Track 5 lives only in frames 0-9; the last 10 frames are 100-109,
        # where pred and gt agree, so the windowed score is 0.
        gt = _table({0: _still(range(100, 110), (1, 1, 0))})
        pred = _table({0: _still(range(100, 110), (1, 1, 0)), 5: _still(range(10), (3, 3, 0))})
        assert ospa2(pred, gt) == 0.5
        assert ospa2(pred, gt, window=10) == 0.0
        assert ospa2(gt, pred, window=10) == 0.0
        assert ospa2(pred, gt, window=110) == 0.5

    def test_cardinality_penalty_orders(self):
        # Pred misses one of two GT tracks: ((0 + c^p) / 2)^(1/p).
        gt = _table(
            {0: _still(range(10), (0, 0, 0)), 1: _still(range(10), (5, 5, 0))}
        )
        pred = _table({0: _still(range(10), (0, 0, 0))})
        assert ospa2(pred, gt, cutoff=1.0, order=1.0) == pytest.approx(0.5)
        assert ospa2(pred, gt, cutoff=1.0, order=2.0) == pytest.approx(np.sqrt(0.5))
        # c^p overflows (10^400) or underflows (0.5^2000) in a float.
        for cutoff, order in ((10.0, 400.0), (0.5, 2000.0)):
            expected = cutoff * 0.5 ** (1.0 / order)
            assert ospa2(pred, gt, cutoff=cutoff, order=order) == pytest.approx(expected, rel=1e-12)

    def test_matched_tracks_do_not_underflow_at_high_order(self):
        # 0.2^2000 is 0 in a float: in units of the cutoff the one cost of
        # these matched tracks would collapse to 0.
        gt = _table({0: _still(range(5), (0, 0, 0))})
        pred = _table({0: _still(range(5), (0.2, 0, 0))})
        for cutoff in (1.0, 0.5):
            for order in (1.0, 400.0, 2000.0):
                got = ospa2(pred, gt, cutoff=cutoff, order=order)
                assert got == pytest.approx(0.2, rel=1e-12)

    def test_cross_pair_at_cutoff_does_not_underflow_at_high_order(self):
        # The cross pairs (about 7 m apart) sit at the cutoff, so the largest
        # base ratio is 1; the matched pairs, 0.2 and 0.1 m apart, are what
        # a high order must not underflow to 0.
        gt = _table({0: _still(range(5), (0, 0, 0)), 1: _still(range(5), (5, 5, 0))})
        pred = _table({0: _still(range(5), (0.2, 0, 0)), 1: _still(range(5), (5.1, 5, 0))})
        for order in (500.0, 2000.0):
            expected = 0.2 * (0.5 * (1.0 + 0.5 ** order)) ** (1.0 / order)
            assert ospa2(pred, gt, order=order) == pytest.approx(expected, rel=1e-12)
        assert ospa2(pred, gt, order=500.0) == pytest.approx(0.19972, abs=1e-5)
        assert ospa2(pred, gt, order=2000.0) == pytest.approx(0.19993, abs=1e-5)

    def test_bottleneck_unit_matches_brute_force(self):
        # The unit is the least t for which some full assignment uses only
        # entries <= t; rounding to one decimal makes repeated entries and
        # rows that share a nearest column common.
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            D = np.round(rng.uniform(0.0, 1.0, size=(n, n)), 1)
            want = min(max(D[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
            assert _bottleneck(D) == want

    def test_metric_axioms_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            a = _random_trackset(rng)
            b = _random_trackset(rng)
            c = _random_trackset(rng)
            dab = ospa2(a, b)
            dba = ospa2(b, a)
            dac = ospa2(a, c)
            dbc = ospa2(b, c)
            assert 0.0 <= dab <= 1.0
            assert abs(dab - dba) < 1e-12
            assert dac <= dab + dbc + 1e-9

    def test_parameter_validation(self):
        ts = _table({0: _still([0], (0, 0, 0))})
        with pytest.raises(ValueError):
            ospa2(ts, ts, cutoff=0.0)
        with pytest.raises(ValueError):
            ospa2(ts, ts, order=0.5)
        with pytest.raises(ValueError):
            ospa2(ts, ts, window=0)


def _pose(offset=(0.0, 0.0, 0.0), joints=4):
    base = np.linspace(0.0, 1.0, joints * 3).reshape(joints, 3)
    return base + np.asarray(offset, dtype=np.float64)


class TestPoseMetrics:
    def test_exact_match(self):
        kp = {0: {f: _pose() for f in range(3)}}
        gt = _table({0: _still(range(3), (0, 0, 0))}, keypoints=kp)
        res = pose_metrics(gt, gt)
        assert res.mpjpe == 0.0
        assert res.recall == 100.0
        assert all(v == 100.0 for v in res.ap.values())
        assert res.num_gt_poses == res.num_pred_poses == 3

    def test_uniform_offset_frozen(self):
        # Every joint off by 30 mm: MPJPE 30, AP@25 = 0, AP@50 = 100.
        gt = _poses({0: {0: _pose()}})
        pred = _poses({0: {0: _pose(offset=(0.03, 0, 0))}})
        res = pose_metrics(pred, gt, ap_thresholds=(25.0, 50.0))
        assert res.mpjpe == pytest.approx(30.0)
        assert res.ap[25.0] == 0.0
        assert res.ap[50.0] == 100.0
        assert res.recall == 100.0

    def test_hungarian_resolves_crossed_ids(self):
        gt = _poses({0: {0: _pose()}, 1: {0: _pose(offset=(1.0, 0, 0))}})
        pred = _poses({5: {0: _pose(offset=(1.0, 0, 0))}, 6: {0: _pose()}})
        res = pose_metrics(pred, gt)
        assert res.mpjpe == 0.0
        assert res.recall == 100.0

    def test_beyond_recall_gate_unmatched(self):
        gt = _poses({0: {0: _pose()}})
        pred = _poses({0: {0: _pose(offset=(0.6, 0, 0))}})
        res = pose_metrics(pred, gt, recall_at=500.0)
        assert res.recall == 0.0
        assert np.isnan(res.mpjpe)

    def test_partial_coverage_recall(self):
        kp_gt = {0: {f: _pose() for f in range(2)}, 1: {f: _pose() for f in range(2)}}
        kp_pred = {0: {0: _pose()}, 1: {0: _pose()}}
        gt = _poses(kp_gt)
        pred = _poses(kp_pred)
        res = pose_metrics(pred, gt)
        assert res.recall == 50.0

    def test_joint_count_mismatch_raises(self):
        gt = _poses({0: {0: _pose(joints=4)}})
        pred = _poses({0: {0: _pose(joints=5)}})
        with pytest.raises(ValueError, match="mismatch"):
            pose_metrics(pred, gt)

    def test_no_gt_keypoints_raises(self):
        pred = _poses({0: {0: _pose()}})
        with pytest.raises(EmptyGroundTruth):
            pose_metrics(pred, _table({0: _still([0], (0, 0, 0))}))


_SKELETON = np.linspace(-0.3, 0.3, 12).reshape(4, 3)


def _random_scene(rng, threshold, frames=30):
    """A gt track set and a prediction of it with id gaps and unsorted ids,
    births, deaths and gaps, dropouts, id switches, predictions exactly at
    the gate, and false tracks. Positions sit on a dyadic grid so that
    offsets of exactly ``threshold`` give distances of exactly ``threshold``.
    """
    gt_pos, gt_kp, pred_pos, pred_kp = {}, {}, {}, {}
    n_gt = int(rng.integers(1, 7))
    ids = iter(int(i) for i in rng.choice(1000, size=n_gt + 40, replace=False))
    for oid in [next(ids) for _ in range(n_gt)]:
        start = int(rng.integers(0, frames - 1))
        stop = int(rng.integers(start + 1, frames + 1))
        base = rng.integers(-6, 7, size=3) * 0.5
        vel = rng.integers(-2, 3, size=3) * 0.125
        pid = oid if rng.random() < 0.5 else next(ids)
        for f in range(start, stop):
            if rng.random() < 0.1:
                continue
            g = base + vel * (f - start)
            gt_pos.setdefault(oid, {})[f] = g
            gt_kp.setdefault(oid, {})[f] = g + _SKELETON
            r = rng.random()
            if r < 0.1:
                continue
            if r < 0.15:
                pid = next(ids)
            if r < 0.35:
                offset = np.zeros(3)
                offset[rng.integers(0, 3)] = threshold * rng.choice([-1.0, 1.0])
            else:
                offset = rng.normal(scale=0.5 * threshold, size=3)
            pred_pos.setdefault(pid, {})[f] = g + offset
            pred_kp.setdefault(pid, {})[f] = (
                g + offset + _SKELETON + rng.normal(scale=0.02, size=(4, 3))
            )
    for _ in range(int(rng.integers(0, 3))):
        pid, start = next(ids), int(rng.integers(0, frames - 5))
        p = rng.integers(-6, 7, size=3) * 0.5
        for f in range(start, start + 5):
            pred_pos.setdefault(pid, {})[f] = p
            pred_kp.setdefault(pid, {})[f] = p + _SKELETON
    return _table(pred_pos, pred_kp), _table(gt_pos, gt_kp)


def _flat(t):
    return TrackTable(t.frame, t.object_id, t.position * [1.0, 1.0, 0.0])


def test_metrics_match_pair_by_pair_oracles():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        threshold = (0.5, 1.0)[trial % 2]
        pred, gt = _random_scene(rng, threshold)
        for plane in (False, True):
            p, g = (_flat(pred), _flat(gt)) if plane else (pred, gt)
            report = evaluate_tracks(pred, gt, RunConfig(threshold=threshold, plane=plane))
            fp, fn, ids, mota = loop_clear_mot(p, g, threshold)
            assert (report.fp, report.fn, report.ids) == (fp, fn, ids)
            assert report.mota == pytest.approx(mota, rel=0, abs=1e-12)
            assert report.idf1 == pytest.approx(loop_idf1(p, g, threshold), rel=0, abs=1e-12)
            assert report.ospa == pytest.approx(loop_ospa2(p, g), rel=0, abs=1e-12)
            assert ospa2(p, g, cutoff=0.7, order=2.0) == pytest.approx(
                loop_ospa2(p, g, cutoff=0.7, order=2.0), rel=0, abs=1e-12
            )
        ap, recall, mpjpe = loop_pose_metrics(pred, gt, recall_at=300.0)
        res = pose_metrics(pred, gt, recall_at=300.0)
        assert res.ap == pytest.approx(ap, rel=0, abs=1e-12)
        assert res.recall == pytest.approx(recall, rel=0, abs=1e-12)
        assert res.mpjpe == pytest.approx(mpjpe, rel=0, abs=1e-12, nan_ok=True)


def test_distances_are_the_plain_root_of_the_sum_of_squares():
    # Bit for bit, in this order: no BLAS kernel decides the last digit.
    rng = np.random.default_rng(6)
    a, b = rng.normal(scale=5.0, size=(2, 60_000, 3))
    expected = [math.sqrt(dx * dx + dy * dy + dz * dz) for dx, dy, dz in (a - b).tolist()]
    assert _distance(a, b).tolist() == expected
    assert _distance(a[:, None], b[None, :50]).shape == (60_000, 50)


# gt 10 and 19 coincide in the last frames, so their assignments tie. In the
# first frames every object appears alone and out of every gate, so that
# first appearance ranks gt 10, 19, 8 and pred 4, 13, 12, 2.
_TIES_GT = {
    10: {0: (5.0, 5.0, 5.0), 3: (0.75, 0.5, 0.5), 4: (0.75, 0.25, 0.25), 5: (0.0, 0.75, 0.75)},
    19: {1: (5.0, 5.0, 5.0), 3: (0.75, 0.5, 0.5), 4: (0.75, 0.25, 0.25), 5: (0.5, 0.75, 0.0)},
    8: {3: (0.75, 0.75, 0.0), 4: (0.5, 0.5, 0.75), 5: (0.25, 0.75, 0.25)},
}
_TIES_PRED = {
    4: {0: (-5.0, -5.0, -5.0), 3: (0.75, 0.0, 0.75), 4: (0.5, 0.25, 0.5)},
    13: {1: (-5.0, -5.0, -5.0), 3: (0.5, 0.0, 0.75), 5: (0.0, 0.75, 0.5)},
    12: {2: (-5.0, -5.0, -5.0), 3: (0.25, 0.25, 0.25), 5: (0.25, 0.25, 0.5)},
    2: {3: (0.25, 0.25, 0.25), 4: (0.75, 0.0, 0.25), 5: (0.0, 0.5, 0.5)},
}


def test_clear_mot_ties_follow_first_appearance():
    # Ties go to objects in order of first appearance (by frame, then id),
    # as in the oracle; here that order decides the identity switch count,
    # which would be 1 with the objects in sorted-id order.
    p, g = _table(_TIES_PRED), _table(_TIES_GT)
    res = clear_mot(p, g)
    assert tuple(res) == loop_clear_mot(p, g)
    assert (res.fp, res.fn, res.ids) == (4, 3, 2)


class TestEvaluateTracks:
    def test_plane_flag_ignores_height(self):
        gt = _table({0: _still(range(4), (1, 2, 0))})
        pred = _table({0: _still(range(4), (1, 2, 5))})
        full = evaluate_tracks(pred, gt, RunConfig())
        flat = evaluate_tracks(pred, gt, RunConfig(plane=True))
        assert full.mota < 0
        assert flat.mota == 100.0 and flat.idf1 == 100.0 and flat.ospa == 0.0

    def test_report_serializes(self):
        kp = {0: {f: _pose() for f in range(3)}}
        gt = _table({0: _still(range(3), (0, 0, 0))}, keypoints=kp)
        report = evaluate_tracks(gt, gt, RunConfig())
        d = json.loads(json.dumps(report.to_dict()))
        assert d["mota"] == 100.0
        assert d["ospa2"] == 0.0
        assert d["counts"]["gt_detections"] == 3
        assert d["pose"]["mpjpe_mm"] == 0.0
        table = report.format_table()
        assert "MOTA" in table and "MPJPE" in table

    # Finite, but its square overflows a float.
    _HUGE = 1.3407807929942597e154

    def test_overflowing_position_distance_is_never_a_match(self):
        # Frame 1's squared distance overflows: a miss and a false track,
        # scored with no overflow warning.
        gt = _table({0: _still(range(2), (0, 0, 0))})
        pred = _table({0: {0: np.zeros(3), 1: np.array([0.0, 0.0, self._HUGE])}})
        report = evaluate_tracks(pred, gt, RunConfig())
        assert (report.fp, report.fn, report.mota) == (1, 1, 0.0)
        assert report.idf1 == 50.0 and report.ospa == 0.5

    def test_overflowing_mpjpe_is_never_a_match(self):
        # Every pair with gt pose 0 overflows; the other pose still matches.
        huge = _pose()
        huge[0] = (0.0, 0.0, self._HUGE)
        gt = _poses({0: {0: huge}, 1: {0: _pose(offset=(1.0, 0, 0))}})
        pred = _poses({0: {0: _pose()}, 1: {0: _pose(offset=(1.0, 0, 0))}})
        res = pose_metrics(pred, gt)
        assert (res.recall, res.mpjpe) == (50.0, 0.0)
        alone = pose_metrics(_poses({0: {0: _pose()}}), _poses({0: {0: huge}}))
        assert alone.recall == 0.0 and np.isnan(alone.mpjpe)

    def test_pose_section_optional(self):
        gt = _table({0: _still(range(3), (0, 0, 0))})
        report = evaluate_tracks(gt, gt, RunConfig())
        assert report.pose is None
        assert report.to_dict()["pose"] is None
        assert "MPJPE" not in report.format_table()


class TestTrackSet:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="position"):
            TrackTable([0], [0], np.zeros((1, 2)))
        with pytest.raises(ValueError, match="object ids"):
            TrackTable([0, 1], [0], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="keypoints"):
            TrackTable([0], [0], np.zeros((1, 3)), keypoints=np.zeros((1, 4)))

    def test_rejects_nonfinite(self):
        # A row's keypoints are all NaN (absent) or all finite.
        kp = np.zeros((2, 4, 3))
        kp[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="all finite or all NaN"):
            TrackTable([0, 1], [0, 0], np.zeros((2, 3)), keypoints=kp)
        kp[1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="all finite or all NaN"):
            TrackTable([0, 1], [0, 0], np.zeros((2, 3)), keypoints=kp)
        kp[1] = np.nan
        t = TrackTable([0, 1], [0, 0], np.zeros((2, 3)), keypoints=kp)
        assert t.has_keypoints.tolist() == [True, False]
        absent = np.full((2, 4, 3), np.nan)
        assert TrackTable([0, 1], [0, 0], np.zeros((2, 3)), keypoints=absent).keypoints is None

    def test_arrays_read_only(self):
        t = _poses({0: {0: _pose()}})
        for col in (t.frame, t.object_id, t.keypoints, t.half_axes):
            with pytest.raises(ValueError):
                col[0] = 9


def _assignment_matrices(rng, count):
    """Seeded cost matrices, 0-12 x 0-12, wide and tall: uniform, tie-heavy
    integer and quarter-step costs, tenths (whose near-ties the rounding of
    the dual updates decides), negative costs (as IDF1 solves) and +inf
    entries (some of them infeasible)."""
    for k in range(count):
        shape = tuple(rng.integers(0, 13, size=2))
        kind = k % 6
        if kind == 0:
            yield rng.random(shape)
        elif kind == 1:
            yield rng.integers(0, 3, shape).astype(float)
        elif kind == 2:
            yield rng.integers(0, 8, shape) * 0.25
        elif kind == 3:
            yield rng.integers(0, 5, shape) * 0.1
        elif kind == 4:
            yield -rng.integers(0, 5, shape).astype(float)
        else:
            cost = rng.integers(-3, 4, shape).astype(float)
            cost[rng.random(shape) < rng.random()] = np.inf
            yield cost


def test_assignment_solver_matches_scipy():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    infeasible = 0
    for cost in itertools.chain(
        [np.zeros((0, 4)), np.zeros((4, 0)), np.zeros((0, 0)), np.ones((3, 5)), np.ones((5, 3))],
        _assignment_matrices(rng, 2400),
    ):
        try:
            expected = scipy_optimize.linear_sum_assignment(cost)
        except ValueError as exc:
            infeasible += 1
            with pytest.raises(ValueError) as err:
                linear_sum_assignment(cost)
            assert str(err.value) == str(exc)
            continue
        rows, cols = linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, expected[0], strict=True)
        np.testing.assert_array_equal(cols, expected[1], strict=True)
    assert infeasible > 10
    for bad in (np.nan, -np.inf):
        cost = np.ones((3, 4))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="invalid numeric entries"):
            scipy_optimize.linear_sum_assignment(cost)
        with pytest.raises(ValueError, match="invalid numeric entries"):
            linear_sum_assignment(cost)
    cost = np.array([[np.inf, 1.0], [np.inf, 2.0]])
    with pytest.raises(ValueError, match="cost matrix is infeasible"):
        scipy_optimize.linear_sum_assignment(cost)
    with pytest.raises(ValueError, match="cost matrix is infeasible"):
        linear_sum_assignment(cost)


def test_assignment_cost_is_minimal():
    # Against every assignment of the smaller side, up to 6 x 6.
    rng = np.random.default_rng(12)
    for _ in range(300):
        nr, nc = rng.integers(1, 7, size=2)
        cost = rng.integers(-4, 5, (nr, nc)) * 0.5 if rng.random() < 0.5 else rng.normal(size=(nr, nc))
        rows, cols = linear_sum_assignment(cost)
        assert len(rows) == min(nr, nc)
        assert np.all(np.diff(rows) > 0) and len(set(cols.tolist())) == len(cols)
        small = cost if nr <= nc else cost.T
        best = min(
            small[range(len(small)), list(p)].sum()
            for p in itertools.permutations(range(small.shape[1]), len(small))
        )
        assert cost[rows, cols].sum() == pytest.approx(best, rel=1e-12, abs=1e-12)


def _forced_matrices(rng, count):
    """Seeded wide, tall and square matrices whose assignment is forced: each
    row of the shorter side has a strict minimum in a column of its own.
    Continuous and tie-heavy integer costs, some with +inf entries, and as
    many near misses, where two minima share a column or a minimum is tied."""
    for k in range(count):
        nr, nc = (int(v) for v in rng.integers(1, 13, size=2))
        if k % 2:
            cost = rng.integers(1, 4, (nr, nc)).astype(float)
        else:
            cost = rng.random((nr, nc)) + 1.0
        if k % 3 == 0:
            cost[rng.random((nr, nc)) < 0.3] = np.inf
        n = min(nr, nc)
        short = np.arange(n)
        long = rng.permutation(max(nr, nc))[:n]
        rows, cols = (short, long) if nr <= nc else (long, short)
        cost[rows, cols] = rng.integers(-2, 1, n) if k % 2 else rng.random(n)
        if k % 4 == 3 and n > 1:  # a near miss
            i, j = rng.choice(n, 2, replace=False)
            if nr <= nc:
                cost[i, cols[j]] = cost[i, cols[i]] - (k % 8 == 3)
            else:
                cost[rows[j], j] = cost[rows[i], i] - (k % 8 == 3)
        yield cost


def _solve_all(cost):
    """scipy's, the package's and the full search's outcome on ``cost``: the
    (rows, cols) arrays' dtypes and values, or the message of the
    ``ValueError`` raised."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    outcomes = []
    for solve in (scipy_optimize.linear_sum_assignment, linear_sum_assignment,
                  loop_linear_sum_assignment):
        try:
            rows, cols = solve(cost)
        except ValueError as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append((rows.dtype, rows.tolist(), cols.dtype, cols.tolist()))
    return outcomes


def test_forced_assignments_match_scipy_and_the_search(monkeypatch):
    # The leading rows whose strict minima have columns of their own are
    # assigned without a search, and a matrix made only of such rows without
    # any: the same (rows, cols) as scipy and as the search from row 0.
    prefix = metrics._uncontested_prefix
    direct = []

    def counted(cost):
        found = prefix(cost)
        direct.append(found[0] == len(cost))
        return found

    monkeypatch.setattr(metrics, "_uncontested_prefix", counted)
    rng = np.random.default_rng(19)
    for cost in itertools.chain(_forced_matrices(rng, 1200), _assignment_matrices(rng, 600)):
        outcomes = _solve_all(cost)
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert 400 < sum(direct) < len(direct) - 400


def _contested_at(rng, n, first, wide=2):
    """An n x (n + wide) matrix whose rows before ``first`` have strict minima
    in columns of their own, and whose row ``first`` wants an earlier row's
    column (or, for row 0, ties two columns)."""
    cost = rng.random((n, n + wide)) + 1.0
    cols = rng.permutation(n + wide)[:n]
    cost[np.arange(n), cols] = rng.random(n)
    if first:
        cost[first, cols[rng.integers(0, first)]] = cost[first, cols[first]] - 0.5
    else:
        cost[0, cols[1]] = cost[0, cols[0]]
    return cost


def test_search_starts_at_the_first_contested_row():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 12):
        for first in range(n):
            if n == 1 and first == 0:
                continue
            for wide in (0, 3):
                cost = _contested_at(rng, n, first, wide)
                assert metrics._uncontested_prefix(cost)[0] == first
                outcomes = _solve_all(cost)
                assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
                # Tall: the transpose is solved.
                outcomes = _solve_all(cost.T.copy())
                assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_prefix_stops_at_a_tied_minimum():
    # Row 2's minimum is tied between two free columns: it is searched.
    cost = np.array([
        [0.5, 3.0, 3.0, 3.0, 3.0],
        [3.0, 0.25, 3.0, 3.0, 3.0],
        [3.0, 3.0, 1.0, 1.0, 3.0],
        [3.0, 3.0, 3.0, 2.0, 0.75],
    ])
    assert metrics._uncontested_prefix(cost)[0] == 2
    outcomes = _solve_all(cost)
    assert outcomes[1] == outcomes[0] == outcomes[2]
    assert outcomes[0][1:4:2] == ([0, 1, 2, 3], [0, 1, 2, 4])
    for tall in (cost.T, np.ascontiguousarray(cost.T)):
        outcomes = _solve_all(tall)
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_prefix_stops_at_an_infinite_minimum():
    # Row 2 has no finite entry: the search starts there and raises scipy's
    # message; before it, the rows are uncontested.
    cost = np.array([
        [0.5, 3.0, 3.0, 3.0],
        [3.0, 0.25, 3.0, 3.0],
        [np.inf, np.inf, np.inf, np.inf],
    ])
    assert metrics._uncontested_prefix(cost)[0] == 2
    outcomes = _solve_all(cost)
    assert outcomes == ["cost matrix is infeasible"] * 3
    assert _solve_all(cost.T) == ["cost matrix is infeasible"] * 3


@pytest.mark.parametrize("cost, message", [
    ([[np.inf]], "cost matrix is infeasible"),
    ([[np.inf], [np.inf]], "cost matrix is infeasible"),
    ([[1.0, 2.0], [np.inf, np.inf]], "cost matrix is infeasible"),
    ([[0.0, np.nan], [1.0, 0.0]], "matrix contains invalid numeric entries"),
    ([[0.0, 1.0], [-np.inf, 0.0]], "matrix contains invalid numeric entries"),
    ([[0.0, 1.0, 2.0], [1.0, 0.0, np.nan]], "matrix contains invalid numeric entries"),
])
def test_bad_costs_raise_as_scipy_does(cost, message):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for solve in (scipy_optimize.linear_sum_assignment, linear_sum_assignment):
        with pytest.raises(ValueError) as err:
            solve(np.array(cost))
        assert str(err.value) == message


def _bits(pose):
    """Every field of a PoseMetrics, floats as their exact hex."""
    return {
        k: {d: x.hex() for d, x in v.items()} if isinstance(v, dict)
        else v.hex() if isinstance(v, float) else v
        for k, v in vars(pose).items()
    }


def test_pose_metrics_match_the_per_frame_form_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(40):
        pred, gt = _random_scene(rng, 1.0, frames=60)
        recall_at = (500.0, 300.0)[trial % 2]
        expected = _bits(loop_frame_pose_metrics(pred, gt, recall_at=recall_at))
        assert _bits(pose_metrics(pred, gt, recall_at=recall_at)) == expected
        assert _bits(evaluate_tracks(pred, gt, RunConfig(recall_at=recall_at)).pose) == expected
    # One pose pair: the MPJPE is that pair's cost, so every bit of it shows.
    for _ in range(300):
        J, scale = int(rng.integers(1, 20)), 10.0 ** rng.integers(-3, 3)
        g, p = (rng.normal(scale=scale, size=(1, J, 3)) for _ in range(2))
        gt, pred = (TrackTable([0], [0], kp[:, 0], keypoints=kp) for kp in (g, p))
        expected = _bits(loop_frame_pose_metrics(pred, gt, recall_at=1e300))
        assert _bits(pose_metrics(pred, gt, recall_at=1e300)) == expected


def test_ospa2_matches_the_per_frame_form_bit_for_bit():
    rng = np.random.default_rng(37)
    for trial in range(24):
        pred, gt = _random_scene(rng, (0.5, 1.0)[trial % 2], frames=40)
        for p, g in ((pred, gt), (_flat(pred), _flat(gt))):
            for cutoff, order, window in itertools.product((0.7, 1), (1, 2, 500), (None, 5)):
                expected = loop_frame_ospa2(p, g, cutoff=cutoff, order=order, window=window)
                got = ospa2(p, g, cutoff=cutoff, order=order, window=window)
                assert got.hex() == expected.hex()
        for plane in (False, True):
            report = evaluate_tracks(
                pred, gt, RunConfig(ospa_cutoff=0.7, ospa_order=2, ospa_window=5, plane=plane)
            )
            p, g = (_flat(pred), _flat(gt)) if plane else (pred, gt)
            assert report.ospa.hex() == loop_frame_ospa2(p, g, 0.7, 2, 5).hex()


def _many_tracks(rng, n, m, frames):
    """``n`` gt tracks 3 m apart over ``frames`` frames, and ``m`` <= n
    predictions of the first of them, each near its own and missing a
    tenth of its frames."""
    gt = {i: _still(range(frames), (3.0 * i, 0.0, 0.0)) for i in range(n)}
    pred = {
        j: {f: p + rng.normal(scale=0.2, size=3) for f, p in gt[j].items() if rng.random() > 0.1}
        for j in range(m)
    }
    return _table(pred), _table(gt)


def test_ospa2_over_several_blocks_matches_the_per_frame_form():
    # 24 x 20 pairs: 546 frames to a block, so 1,200 frames take three.
    rng = np.random.default_rng(41)
    pred, gt = _many_tracks(rng, 24, 20, 1200)
    assert metrics._BLOCK_BUDGET // (24 * 20) < 1200 // 2
    for window in (None, 700):
        for order in (1, 2):
            expected = loop_frame_ospa2(pred, gt, cutoff=0.7, order=order, window=window)
            assert ospa2(pred, gt, cutoff=0.7, order=order, window=window).hex() == expected.hex()


def test_ospa2_with_more_pairs_than_the_block_budget_matches_the_per_frame_form():
    # 600 x 440 pairs exceed the budget: each block is one frame.
    rng = np.random.default_rng(43)
    pred, gt = _many_tracks(rng, 600, 440, 3)
    assert 600 * 440 > metrics._BLOCK_BUDGET
    assert ospa2(pred, gt).hex() == loop_frame_ospa2(pred, gt).hex()


@pytest.mark.parametrize("budget", [1, 7, 50])
def test_ospa2_is_the_same_for_every_block_size(monkeypatch, budget):
    rng = np.random.default_rng(47)
    scenes = [_random_scene(rng, 1.0, frames=30) for _ in range(6)]
    expected = [ospa2(p, g, order=2, window=w).hex() for p, g in scenes for w in (None, 5)]
    monkeypatch.setattr(metrics, "_BLOCK_BUDGET", budget)
    assert [ospa2(p, g, order=2, window=w).hex() for p, g in scenes for w in (None, 5)] == expected


@pytest.mark.parametrize("budget", [None, 1, 7, 50])
def test_clear_mot_and_idf1_match_the_per_frame_form_bit_for_bit(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(metrics, "_BLOCK_BUDGET", budget)
    rng = np.random.default_rng(53)
    for trial in range(30):
        threshold = (0.5, 1.0)[trial % 2]
        pred, gt = _random_scene(rng, threshold, frames=40)
        for p, g in ((pred, gt), (_flat(pred), _flat(gt))):
            assert tuple(clear_mot(p, g, threshold)) == loop_frame_clear_mot(p, g, threshold)
            assert idf1(p, g, threshold).hex() == loop_frame_idf1(p, g, threshold).hex()


def _distance_sizes(monkeypatch):
    """The number of distances of each ``metrics._distance`` call, as made."""
    sizes, distance = [], metrics._distance

    def counted(a, b):
        d = distance(a, b)
        sizes.append(d.size)
        return d

    monkeypatch.setattr(metrics, "_distance", counted)
    return sizes


def test_kept_match_and_id_switch_across_a_run_boundary(monkeypatch):
    # 2 gt x 2 pred objects in each of 4 frames: 16 pairs, which a budget of
    # 8 splits into idf1 runs of frames 0-1 and 2-3. gt 1 keeps pred 10 into
    # frame 2 although pred 12 is nearer, so gt 2 switches from pred 11 to
    # pred 12 there: one switch, not the two a fresh assignment would count.
    a = np.array
    gt = _table({
        1: _still(range(4), (0, 0, 0)),
        2: {0: a([5.0, 0, 0]), 1: a([5.0, 0, 0]), 2: a([0.5, 0, 0]), 3: a([0.5, 0, 0])},
    })
    pred = _table({
        10: {0: a([0.0, 0, 0]), 1: a([0.0, 0, 0]), 2: a([0.375, 0, 0]), 3: a([0.375, 0, 0])},
        11: _still([0, 1], (5, 0, 0)),
        12: _still([2, 3], (0.125, 0, 0)),
    })
    monkeypatch.setattr(metrics, "_BLOCK_BUDGET", 8)
    res = clear_mot(pred, gt)
    assert (res.fp, res.fn, res.ids, res.mota) == (0, 0, 1, 87.5)
    assert tuple(res) == loop_frame_clear_mot(pred, gt) == loop_clear_mot(pred, gt)
    sizes = _distance_sizes(monkeypatch)
    assert idf1(pred, gt) == loop_frame_idf1(pred, gt) == loop_idf1(pred, gt) == 75.0
    assert sizes == [8, 8]


def test_idf1_and_clear_mot_take_only_pairs_that_share_a_frame(monkeypatch):
    # 200 gt objects over 1,000 frames, each alive for 20 of them (4 at a
    # time), and a prediction 0.1 m off each: idf1 takes the distances of
    # exactly the pairs that share a frame, and clear_mot no more, however
    # many objects the scene holds in all.
    rows = sorted((f, o) for o in range(200) for f in range(5 * o, 5 * o + 20))
    frame, oid = (np.array(c) for c in zip(*rows))
    at = np.column_stack([3.0 * oid, np.zeros(len(oid)), np.zeros(len(oid))])
    gt, pred = TrackTable(frame, oid, at), TrackTable(frame, oid, at + 0.1)
    shared = int((np.unique(frame, return_counts=True)[1] ** 2).sum())
    sizes = _distance_sizes(monkeypatch)
    assert idf1(pred, gt) == loop_frame_idf1(pred, gt) == 100.0
    assert sum(sizes) == shared
    sizes.clear()
    assert tuple(clear_mot(pred, gt)) == loop_frame_clear_mot(pred, gt) == (0, 0, 0, 100.0)
    assert sum(sizes) <= shared
