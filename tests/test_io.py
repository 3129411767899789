"""Round-trip and error-reporting tests for the file formats."""

import dataclasses
import gc
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvfuse import (
    AnnotationTable,
    ParseError,
    RunConfig,
    SceneBundle,
    Occlusion,
    SceneSpec,
    TrackTable,
    ValidationError,
    canonical_pose,
    generate,
    load_annotations,
    load_calibration,
    load_scene,
    load_skeleton,
    load_tracks,
    run_all,
    save_annotations,
    save_calibration,
    save_config,
    save_tracks,
)

from mvfuse import io as mvfuse_io
from oracles import loop_read_jsonl, random_camera
from test_tracker import _annotations, _cam, _rows


@pytest.fixture
def rig(overhead_camera):
    rng = np.random.default_rng(5)
    K, R, t, w, h = random_camera(rng)
    return {0: overhead_camera, 3: _cam(K, R, t, w, h)}


class TestCalibration:
    def test_roundtrip(self, rig, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration(rig, path)
        loaded = load_calibration(path)
        assert sorted(loaded) == sorted(rig)
        for cid, cam in rig.items():
            np.testing.assert_array_equal(loaded[cid].intrinsics, cam.intrinsics)
            np.testing.assert_array_equal(loaded[cid].rotation, cam.rotation)
            np.testing.assert_array_equal(loaded[cid].translation, cam.translation)
            assert loaded[cid].image_size == cam.image_size

    def test_bare_list_accepted(self, rig, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration(rig, path)
        doc = json.loads(path.read_text())["cameras"]
        path.write_text(json.dumps(doc))
        assert sorted(load_calibration(path)) == sorted(rig)

    def test_millimeter_units(self, overhead_camera, tmp_path):
        path = tmp_path / "calibration.json"
        entry = {
            "id": 0,
            "K": [float(v) for v in overhead_camera.intrinsics.ravel()],
            "R": [float(v) for v in overhead_camera.rotation.ravel()],
            "t": [0.0, 0.0, 10000.0],  # millimeters
            "width": 1000,
            "height": 1000,
        }
        path.write_text(json.dumps([entry]))
        cams = load_calibration(path, units="mm")
        np.testing.assert_allclose(cams[0].translation, [0.0, 0.0, 10.0])

    def test_unknown_units(self, tmp_path):
        with pytest.raises(ValidationError, match="units"):
            load_calibration(tmp_path / "x.json", units="cm")

    def test_missing_key(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps([{"id": 0, "K": [1.0] * 9}]))
        with pytest.raises(ParseError, match="camera #0"):
            load_calibration(path)

    @pytest.mark.parametrize(
        "key,value",
        [("id", "abc"), ("id", 1.5), ("id", True), ("width", None),
         ("width", 1920.0), ("height", "1080")],
    )
    def test_non_integer_field_is_parse_error(self, overhead_camera, tmp_path, key, value):
        path = tmp_path / "calibration.json"
        save_calibration({0: overhead_camera}, path)
        doc = json.loads(path.read_text())
        doc["cameras"][0][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"camera #0 {key} must be an integer") as err:
            load_calibration(path)
        assert err.value.path == str(path)

    def test_integer_too_large_for_float_is_parse_error(self, overhead_camera, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration({0: overhead_camera}, path)
        text = path.read_text().replace("1000.0", "1" + "0" * 400, 1)
        path.write_text(text)
        with pytest.raises(ParseError, match="camera #0 K must be finite"):
            load_calibration(path)

    def test_duplicate_id(self, overhead_camera, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration({0: overhead_camera}, path)
        doc = json.loads(path.read_text())
        doc["cameras"].append(dict(doc["cameras"][0]))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            load_calibration(path)

    def test_invalid_rotation_reported(self, overhead_camera, tmp_path):
        path = tmp_path / "calibration.json"
        save_calibration({0: overhead_camera}, path)
        doc = json.loads(path.read_text())
        doc["cameras"][0]["R"] = [2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="camera 0"):
            load_calibration(path)

    def test_empty_rig_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("[]")
        with pytest.raises(ValidationError, match="no cameras"):
            load_calibration(path)

    def test_malformed_json_has_line(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text('{"cameras": [\n  {"id": 0,}\n]}')
        with pytest.raises(ParseError) as err:
            load_calibration(path)
        assert err.value.line == 2


def _sample_annotations():
    kp = np.array([[100.0, 120.0, 1.0], [110.0, 140.0, 0.0]])
    return _annotations(
        (0, 1, 0, [10, 20, 30, 40], kp), (0, 1, 3, [5, 5, 9, 9]), (2, 2, 3, [1, 2, 3, 4])
    )


def _assert_same_table(a, b):
    for col in ("frame", "object_id", "camera_id", "bbox", "keypoints"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))


@pytest.mark.parametrize("loader", [load_calibration, load_annotations, load_tracks])
def test_undecodable_bytes_are_parse_error(tmp_path, loader):
    path = tmp_path / "input"
    path.write_bytes(b'{"frame": \xff}\n')
    with pytest.raises(ParseError, match="cannot read"):
        loader(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
@pytest.mark.parametrize("kind", ["tracks", "annotations"])
def test_records_end_at_newline_only(tmp_path, kind, sep, end):
    # A line separator inside a string is part of the record, which ends at
    # a newline (in any of its three forms); the next record's fault is on
    # line 2.
    good = {"frame": 0, "object_id": 1, "note": f"a{sep}b"}
    good.update({"position": [0, 0, 1]} if kind == "tracks" else {"camera_id": 0, "bbox": [0, 0, 5, 5]})
    path = tmp_path / "input.jsonl"
    records = [json.dumps(r, ensure_ascii=False) for r in (good, {**good, "frame": 1.5})]
    path.write_text(records[0] + end + records[1] + end, newline="")
    load = load_tracks if kind == "tracks" else load_annotations
    with pytest.raises(ParseError) as err:
        load(path)
    assert (err.value.line, err.value.reason) == (2, "frame must be an integer, got 1.5")
    path.write_text(records[0] + end, newline="")
    assert len(load(path)) == 1


class TestAnnotations:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        original = _sample_annotations()
        save_annotations(original, path)
        loaded = load_annotations(path)
        assert loaded.frame.tolist() == [0, 0, 2]
        assert loaded.has_keypoints.tolist() == [True, False, False]
        _assert_same_table(loaded, original)

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_annotations(_sample_annotations(), a)
        save_annotations(_sample_annotations(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        rec = {"frame": 0, "object_id": 1, "camera_id": 0, "bbox": [0, 0, 5, 5]}
        path.write_text("\n" + json.dumps(rec) + "\n\n")
        assert len(load_annotations(path)) == 1

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        good = {"frame": 0, "object_id": 1, "camera_id": 0, "bbox": [0, 0, 5, 5]}
        bad = {"frame": 1, "object_id": 1}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError) as err:
            load_annotations(path)
        assert err.value.line == 2

    def test_payload_required(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        path.write_text(
            json.dumps({"frame": 0, "object_id": 1, "camera_id": 0}) + "\n"
        )
        with pytest.raises(ParseError, match="no bbox or keypoints"):
            load_annotations(path)

    @pytest.mark.parametrize("key", ["frame", "object_id", "camera_id"])
    @pytest.mark.parametrize("value", [1.5, 1.0, True, "3", None])
    def test_ids_must_be_json_integers(self, tmp_path, key, value):
        good = {"frame": 0, "object_id": 1, "camera_id": 0, "bbox": [0, 0, 5, 5]}
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, key: value}) + "\n")
        with pytest.raises(ParseError, match=f"{key} must be an integer") as err:
            load_annotations(path)
        assert err.value.line == 2

    def test_negative_frame_rejected(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        rec = {"frame": -1, "object_id": 1, "camera_id": 0, "bbox": [0, 0, 5, 5]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="non-negative"):
            load_annotations(path)

    def test_negative_frame_in_shuffled_file_names_its_line(self, tmp_path):
        # The bad record sorts first but is the 5th line.
        path = tmp_path / "annotations.jsonl"
        path.write_text("".join(
            json.dumps({"frame": f, "object_id": 1, "camera_id": 0, "bbox": [0, 0, 5, 5]}) + "\n"
            for f in (3, 0, 7, 2, -1, 5, 1)
        ))
        with pytest.raises(ParseError) as err:
            load_annotations(path)
        assert (err.value.line, err.value.reason) == (5, "frame must be non-negative")

    def test_duplicate_bbox_rejected(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        rec = {"frame": 0, "object_id": 1, "camera_id": 0, "bbox": [0, 0, 5, 5]}
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_annotations(path)

    @pytest.mark.parametrize(
        "box, split",
        [([10, 0, 5, 20], False), ([0, 20, 5, 10], False), ([10, 0, 5, 20], True), ([0, 20, 5, 10], True)],
        ids=["box0", "box1", "split-box0", "split-box1"],
    )
    def test_corners_out_of_order_rejected(self, tmp_path, box, split):
        # The bad box after a good row, or as the bbox record of a split row
        # (its keypoints on line 2) after rows that sort before and after it.
        def rec(frame, oid=1, **payload):
            return {"frame": frame, "object_id": oid, "camera_id": 0, **payload}

        good = [0, 0, 5, 5]
        recs = [rec(0, bbox=good), rec(1, bbox=box)]
        if split:
            recs = [rec(2, bbox=good), rec(1, keypoints=[[1.0, 2.0, 1.0]]), rec(0, bbox=good),
                    rec(0, 2, bbox=good), rec(1, bbox=box)]
        path = tmp_path / "annotations.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(ParseError, match="out of order") as err:
            load_annotations(path)
        assert err.value.line == len(recs)
        assert err.value.reason == f"bbox corners out of order: {[float(v) for v in box]}"

    def test_any_line_order_loads_the_same_table(self, tmp_path):
        bundle, _ = generate(SceneSpec(seed=3, num_objects=3, num_cameras=3, frames=5,
                                       skeleton="coco17", pixel_noise=1.0))
        path, shuffled = tmp_path / "a.jsonl", tmp_path / "shuffled.jsonl"
        save_annotations(bundle.annotations, path)
        lines = path.read_text().splitlines()
        np.random.default_rng(0).shuffle(lines)
        shuffled.write_text("\n".join(lines) + "\n")
        _assert_same_table(load_annotations(shuffled), bundle.annotations)

    def test_split_records_merge_into_one_row(self, tmp_path):
        # A triple's keypoints record before its bbox record, with another
        # row between them: one row carries both.
        path = tmp_path / "annotations.jsonl"
        kp = [[1.0, 2.0, 1.0], [3.0, 4.0, 0.0]]
        recs = [
            {"frame": 4, "object_id": 1, "camera_id": 2, "keypoints": kp},
            {"frame": 0, "object_id": 1, "camera_id": 2, "bbox": [0, 0, 5, 5]},
            {"frame": 4, "object_id": 1, "camera_id": 2, "bbox": [1, 2, 3, 4]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        table = load_annotations(path)
        assert table.frame.tolist() == [0, 4]
        np.testing.assert_array_equal(table.bbox, [[0, 0, 5, 5], [1, 2, 3, 4]])
        assert table.has_keypoints.tolist() == [False, True]
        np.testing.assert_array_equal(table.keypoints[1], kp)
        # A second bbox (or keypoints) for the merged triple is a duplicate.
        for extra in (recs[2], recs[0]):
            path.write_text("".join(json.dumps(r) + "\n" for r in recs + [extra]))
            with pytest.raises(ValidationError, match="^.*:4: duplicate"):
                load_annotations(path)

    def test_mixed_joint_counts_rejected_with_line(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        recs = [
            {"frame": f, "object_id": 1, "camera_id": 0, "keypoints": [[0, 0, 1]] * n}
            for f, n in enumerate([3, 3, 2])
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(ParseError, match="2 keypoint rows, line 1 has 3") as err:
            load_annotations(path)
        assert err.value.line == 3

    def test_generate_save_load_save_is_byte_identical(self, tmp_path):
        # Noisy boxes and keypoints, an occlusion, and a long focal length
        # that pushes some boxes off the image: keypoint rows with and
        # without a box.
        spec = SceneSpec(seed=5, num_objects=3, num_cameras=4, frames=8, skeleton="panoptic15",
                         pixel_noise=2.0, focal=5000.0, occlusions=[Occlusion(1, 2, 5)])
        bundle, _ = generate(spec)
        assert 0 < bundle.annotations.has_bbox.sum() < len(bundle.annotations)
        first, again = tmp_path / "first.jsonl", tmp_path / "again.jsonl"
        save_annotations(bundle.annotations, first)
        save_annotations(load_annotations(first), again)
        assert again.read_bytes() == first.read_bytes()


def _big_table():
    rng = np.random.default_rng(23)
    n = 200  # objects 4 and 9 in frames 0-99
    return TrackTable(
        frame=np.repeat(np.arange(100), 2),
        object_id=np.tile([4, 9], 100),
        position=rng.uniform(-5, 5, size=(n, 3)),
        half_axes=rng.uniform(0.2, 1.0, size=(n, 3)),
        keypoints=rng.uniform(-1, 1, size=(n, 15, 3)),
    )


class TestTracks:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        table = _big_table()
        save_tracks(table, path)
        loaded = load_tracks(path)
        for col in ("frame", "object_id", "position", "half_axes", "keypoints"):
            np.testing.assert_array_equal(getattr(loaded, col), getattr(table, col))

    def test_load_save_is_byte_identical_with_partial_rows(self, tmp_path):
        # Rows with and without half_axes and keypoints, in one file: the
        # loaded table writes the same bytes back.
        path, again = tmp_path / "tracks.jsonl", tmp_path / "again.jsonl"
        path.write_text(
            '{"frame":0,"object_id":2,"position":[0.5,-1.25,0.9]}\n'
            '{"frame":0,"object_id":7,"position":[1.0,2.0,0.8],"half_axes":[0.3,0.25,0.8]}\n'
            '{"frame":1,"object_id":2,"position":[0.6,-1.2,0.9],'
            '"keypoints":[[0.1,0.2,1.7],[0.3,0.1,0.2]]}\n'
            '{"frame":1,"object_id":7,"position":[1.1,2.0,0.8],"half_axes":[0.3,0.25,0.8],'
            '"keypoints":[[1.0,2.0,1.6],[1.25,2.0,0.1]]}\n'
            '{"frame":3,"object_id":7,"position":[1.3,2.0,0.8]}\n'
        )
        table = load_tracks(path)
        assert (~np.isnan(table.half_axes[:, 0])).tolist() == [False, True, False, True, False]
        assert table.has_keypoints.tolist() == [False, False, True, True, False]
        save_tracks(table, again)
        assert again.read_bytes() == path.read_bytes()

    def test_load_save_is_byte_identical_for_a_fused_run(self, tmp_path):
        # Object 0 has keypoint annotations and object 1 has none, so the
        # fused table mixes rows with and without keypoints.
        spec = SceneSpec(seed=3, num_objects=2, num_cameras=3, frames=6, skeleton="coco17")
        bundle, _ = generate(spec)
        ann = bundle.annotations
        keypoints = np.where((ann.object_id == 0)[:, None, None], ann.keypoints, np.nan)
        annotations = _rows(
            AnnotationTable(ann.frame, ann.object_id, ann.camera_id, ann.bbox, keypoints),
            ann.has_bbox | (ann.object_id == 0),
        )
        tracks = run_all(annotations, bundle.calibration, RunConfig(dt=0.1), bundle.skeleton)
        assert sorted(set(tracks.object_id[tracks.has_keypoints].tolist())) == [0]
        assert (~np.isnan(tracks.half_axes[:, 0])).all() and (~tracks.has_keypoints).sum() == 6
        path, again = tmp_path / "tracks.jsonl", tmp_path / "again.jsonl"
        save_tracks(tracks, path)
        save_tracks(load_tracks(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_any_line_order_loads_sorted(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        recs = [(5, 1), (0, 9), (5, 0), (0, 3)]
        path.write_text("".join(
            json.dumps({"frame": f, "object_id": o, "position": [f, o, 1.0],
                        **({"keypoints": [[o, 0.0, 0.0]]} if o % 3 == 0 else {})}) + "\n"
            for f, o in recs
        ))
        table = load_tracks(path)
        assert list(zip(table.frame.tolist(), table.object_id.tolist())) == sorted(recs)
        np.testing.assert_array_equal(table.position[:, :2], sorted(recs))
        assert table.has_keypoints.tolist() == [True, True, True, False]
        np.testing.assert_array_equal(table.keypoints[:3, 0, 0], [3, 9, 0])

    def test_rows_sorted_by_frame_then_object(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        save_tracks(_big_table(), path)
        keys = [
            (r["frame"], r["object_id"])
            for r in map(json.loads, path.read_text().splitlines())
        ]
        assert keys == sorted(keys)

    def test_position_required(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        path.write_text(json.dumps({"frame": 0, "object_id": 1}) + "\n")
        with pytest.raises(ParseError, match="position"):
            load_tracks(path)

    @pytest.mark.parametrize("key", ["frame", "object_id"])
    @pytest.mark.parametrize("value", [1.5, False, "3"])
    def test_ids_must_be_json_integers(self, tmp_path, key, value):
        path = tmp_path / "tracks.jsonl"
        rec = {"frame": 0, "object_id": 1, "position": [0, 0, 1], key: value}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=f"{key} must be an integer") as err:
            load_tracks(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("key", ["frame", "object_id"])
    def test_ids_must_fit_64_bits(self, tmp_path, key):
        path = tmp_path / "tracks.jsonl"
        rec = {"frame": 0, "object_id": 1, "position": [0, 0, 1], key: 2**63}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=f"{key} must fit in 64 bits") as err:
            load_tracks(path)
        assert err.value.line == 1

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        rec = {"frame": 0, "object_id": 1, "position": [0, 0, 1]}
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_tracks(path)

    def test_bad_half_axes_rejected(self, tmp_path):
        path = tmp_path / "tracks.jsonl"
        rec = {
            "frame": 0,
            "object_id": 1,
            "position": [0, 0, 1],
            "half_axes": [0.3, -0.3, 0.9],
        }
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="half_axes"):
            load_tracks(path)

    @pytest.mark.parametrize("half", [[0.3, -0.3, 0.9], [0.3, 0.3, 0.0]])
    def test_bad_half_axes_in_shuffled_file_names_its_line(self, tmp_path, half):
        # The 4th of 6 records, the first row once sorted.
        path = tmp_path / "tracks.jsonl"
        recs = [
            {"frame": f, "object_id": 1, "position": [0, 0, 1],
             **({"half_axes": [0.3, 0.3, 0.9]} if f % 2 else {})}
            for f in (4, 1, 5, 0, 3, 2)
        ]
        recs[3]["half_axes"] = half
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert (err.value.line, err.value.reason) == (4, "half_axes must be positive")


class TestSkeleton:
    def test_builtin_names(self):
        for name in ("coco17", "panoptic15"):
            pose = load_skeleton(name)
            assert pose.name == name
            np.testing.assert_array_equal(pose.coords, canonical_pose(name).coords)

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValidationError, match="neither"):
            load_skeleton(str(tmp_path / "nope"))

    def test_file_normalized_on_load(self, tmp_path):
        # A skeleton given in millimeters with an offset must come back in
        # the canonical frame.
        ref = canonical_pose("panoptic15")
        path = tmp_path / "skeleton.json"
        path.write_text(
            json.dumps(
                {
                    "name": "custom",
                    "joints": list(ref.joints),
                    "coords": (ref.coords * 1000.0 + 40.0).tolist(),
                }
            )
        )
        pose = load_skeleton(str(path))
        assert pose.name == "custom"
        np.testing.assert_allclose(pose.coords, ref.coords, atol=1e-9)

    def test_file_missing_keys(self, tmp_path):
        path = tmp_path / "skeleton.json"
        path.write_text(json.dumps({"joints": ["a"]}))
        with pytest.raises(ParseError, match="coords"):
            load_skeleton(str(path))


def load_config(path) -> RunConfig:
    """The config file at ``path``, read as the CLI reads ``--config``."""
    return RunConfig.from_dict(mvfuse_io.read_object(path, "config"))


class TestConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        config = RunConfig(
            dt=0.05,
            r_keypoint=0.2,
            skeleton="coco17",
            ospa_window=30,
            ap_thresholds=(25.0, 75.0),
            plane=True,
        )
        save_config(config, path)
        assert load_config(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dt": 0.1, "qpos": 1.0}))
        with pytest.raises(ValidationError, match="qpos"):
            load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dt": 0.0}))
        with pytest.raises(ValidationError, match="dt"):
            load_config(path)

    def test_must_be_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParseError, match="object"):
            load_config(path)

    def test_defaults_validate(self):
        RunConfig()  # must not raise


class TestLoadScene:
    def _write_scene(self, tmp_path, rig, annotations):
        cal = tmp_path / "calibration.json"
        ann = tmp_path / "annotations.jsonl"
        save_calibration(rig, cal)
        save_annotations(annotations, ann)
        return cal, ann

    def test_happy_path(self, rig, tmp_path):
        cal, ann = self._write_scene(tmp_path, rig, _sample_annotations())
        bundle = load_scene(cal, ann, skeleton=None)
        assert sorted(bundle.calibration) == [0, 3]
        assert bundle.annotations.frame.tolist() == [0, 0, 2]
        assert bundle.skeleton is None

    def test_unknown_camera_rejected(self, overhead_camera, tmp_path):
        # The scene loads; fusing it refuses the first annotation, in table
        # order, whose camera the rig lacks.
        cal, ann = self._write_scene(
            tmp_path, {0: overhead_camera}, _sample_annotations()
        )
        bundle = load_scene(cal, ann)
        with pytest.raises(ValidationError, match="^frame 0, object 1: unknown camera 3$"):
            run_all(bundle.annotations, bundle.calibration, RunConfig())

    def test_skeleton_joint_count_enforced(self, rig, tmp_path):
        # Sample annotations carry 2-joint keypoints; coco17 wants 17.
        cal, ann = self._write_scene(tmp_path, rig, _sample_annotations())
        bundle = load_scene(cal, ann, skeleton="coco17")
        with pytest.raises(
            ValidationError, match="^frame 0, object 1, camera 0: 2 keypoints, expected 17$"
        ):
            run_all(bundle.annotations, bundle.calibration, RunConfig(), skeleton=bundle.skeleton)

    def test_inconsistent_joint_counts_rejected(self, rig, tmp_path):
        # The table holds one joint count, so the file is refused on load,
        # at the first record that differs.
        cal, ann = self._write_scene(tmp_path, rig, _sample_annotations())
        rec = {"frame": 1, "object_id": 1, "camera_id": 0, "keypoints": [[0.0, 0.0, 1.0]] * 5}
        ann.write_text(ann.read_text() + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="5 keypoint rows, line 1 has 2") as err:
            load_scene(cal, ann)
        assert err.value.line == 4

    def test_bundle_frames_must_increase(self, rig):
        # The bundle holds a table, whose rows are sorted by frame.
        with pytest.raises(ValueError, match="sorted"):
            SceneBundle(calibration=rig, annotations=AnnotationTable(
                [1, 0], [1, 1], [0, 0], bbox=[[0, 0, 5, 5]] * 2
            ))


# Each malformed row, as raw JSON text, and the reason the file is refused.
_BAD_ROWS = {
    "bool": ("[1.0, true, 2.0]", "must contain numbers"),
    "str": ('[1.0, "2", 2.0]', "must contain numbers"),
    "null": ("[1.0, null, 2.0]", "must contain numbers"),
    "two values": ("[1.0, 2.0]", "must be a list of 3 numbers"),
    "huge int": ("[1.0, 1" + "0" * 400 + ", 2.0]", "must be finite"),
    "NaN": ("[1.0, NaN, 2.0]", "must be finite"),
    "Infinity": ("[1.0, -Infinity, 2.0]", "must be finite"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_ROWS))
@pytest.mark.parametrize("kind", ["tracks", "annotations", "skeleton"])
def test_malformed_row_names_file_and_line(tmp_path, kind, bad):
    # The fourth of six rows is bad; every other row (an int among them) is
    # fine. The error reads exactly as the row-by-row reader put it.
    text, reason = _BAD_ROWS[bad]
    rows = "[" + ", ".join(["[0.5, 1, 2.5]"] * 3 + [text] + ["[0.0, 0.0, 0.0]"] * 2) + "]"
    path = tmp_path / "input"
    if kind == "skeleton":
        path.write_text('{"joints": ["a", "b", "c", "d", "e", "f"], "coords": ' + rows + "}")
        load, line, what = (lambda p: load_skeleton(str(p))), None, "coords row"
    else:
        head = '{"frame": 3, "object_id": 1, '
        head += '"position": [0, 0, 1], ' if kind == "tracks" else '"camera_id": 0, '
        good = head.replace('"frame": 3', '"frame": 2') + '"keypoints": [[0.0, 0.0, 1.0]] }'
        if kind == "tracks":
            good = good.replace("[[0.0, 0.0, 1.0]]", "[" + ", ".join(["[0.0, 0.0, 1.0]"] * 6) + "]")
        path.write_text(good + "\n" + head + '"keypoints": ' + rows + "}\n")
        load = load_tracks if kind == "tracks" else load_annotations
        line, what = 2, "keypoint row"
    with pytest.raises(ParseError) as err:
        load(path)
    assert (err.value.line, err.value.reason) == (line, f"{what} {reason}")
    assert str(err.value).startswith(f"{path}:2: " if line else f"{path}: ")


def test_mixed_keypoint_row_counts_in_one_file_rejected(tmp_path):
    path = tmp_path / "tracks.jsonl"
    recs = [
        {"frame": f, "object_id": 1, "position": [0, 0, 1], "keypoints": [[0, 0, 1]] * n}
        for f, n in enumerate([3, 3, 2])
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    with pytest.raises(ParseError, match="2 keypoint rows, line 1 has 3") as err:
        load_tracks(path)
    assert err.value.line == 3


def test_writers_emit_plain_float_lists(tmp_path):
    table = _big_table()
    path = tmp_path / "tracks.jsonl"
    save_tracks(table, path)
    first = path.read_text().splitlines()[0]
    assert first == json.dumps(
        {
            "frame": 0,
            "object_id": 4,
            "position": [float(v) for v in table.position[0]],
            "half_axes": [float(v) for v in table.half_axes[0]],
            "keypoints": [[float(v) for v in row] for row in table.keypoints[0]],
        },
        separators=(",", ":"),
    )


def _full_columns(table) -> dict:
    """Three rows of ``table``'s class with every column given: the keys,
    then each of its ``COLUMNS``, two keypoint rows per record."""
    cols = {k: np.arange(3) for k in table.KEY}
    for c, width in table.COLUMNS.items():
        cols[c] = np.ones((3, 2, 3)) if width is None else np.tile(np.arange(1.0, width + 1), (3, 1))
    return cols


_LAYOUT = [(t, c) for t in (AnnotationTable, TrackTable) for c in t.COLUMNS]


@pytest.mark.parametrize("table, column", _LAYOUT, ids=[f"{t.__name__}-{c}" for t, c in _LAYOUT])
def test_table_layout_checks_each_column(table, column):
    # The one constructor checks each declared column: its row width, its
    # all-finite-or-all-NaN rows and, for a required one, that every row has
    # a required payload; each refusal names the column.
    table(**_full_columns(table))
    cols = _full_columns(table)
    cols[column] = np.ones((3, 2, 4)) if table.COLUMNS[column] is None else cols[column][:, :-1]
    with pytest.raises(ValueError, match=f"^{column} must be "):
        table(**cols)
    cols = _full_columns(table)
    cols[column][1, 0] = np.nan
    with pytest.raises(ValueError, match=f"^each {column} row must be all finite or all NaN$"):
        table(**cols)
    if column in table.REQUIRED:
        cols = _full_columns(table)
        for c in table.REQUIRED:
            cols[c][1] = np.nan
        with pytest.raises(ValueError, match=f"^every row needs a .*{column}"):
            table(**cols)


@pytest.mark.parametrize("table, save", [(AnnotationTable, save_annotations), (TrackTable, save_tracks)])
def test_writer_writes_the_key_then_the_present_columns_in_order(tmp_path, table, save):
    # Row i lacks the i-th column that a row can lack; each record holds
    # KEY, then the columns its row has, in the order COLUMNS gives.
    cols = _full_columns(table)
    optional = [c for c in table.COLUMNS if table.REQUIRED != (c,)]  # a lone required column is not
    for i, c in enumerate(optional):
        cols[c][i] = np.nan
    save(table(**cols), tmp_path / "t.jsonl")
    records = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert len(records) == 3
    for i, rec in enumerate(records):
        present = [c for c in table.COLUMNS if i >= len(optional) or c != optional[i]]
        assert list(rec) == [*table.KEY, *present]


# Floats whose shortest repr takes each form: signed zero, exponents either
# side, the smallest subnormal and the largest finite value; each end of the
# positional range [1e-4, 1e16) and of the decade below it; the smallest
# one-digit and the largest two-digit negative exponent; the residue gt
# keypoints carry.
_EDGE_FLOATS = [
    -0.0, 1e-07, 1e16, 5e-324, 1.7976931348623157e308, 0.1, -2.5,
    1e-05, -1.5e-05, 9.999999999999999e-05, 1e-4, 9999999999999998.0,
    2.220446049250313e-16, 1e-09, 9.999999999999999e-10, -1.5e22,
]
_BIG = 2**63 - 1


def _edge_values(n: int, width: int, rng) -> np.ndarray:
    return rng.choice(_EDGE_FLOATS, size=(n, width))


def _dumps(table, key, columns) -> list[str]:
    """Each row of ``table`` as ``json.dumps`` writes its record: the key,
    then the payload columns the row has."""
    out = []
    for i in range(len(table)):
        rec = {f: int(getattr(table, f)[i]) for f in key}
        for c in columns:
            col = getattr(table, c)
            if col is not None and not np.isnan(col[i]).all():
                rec[c] = col[i].tolist()
        out.append(json.dumps(rec, separators=(",", ":")))
    return out


def test_track_writer_writes_every_line_as_json_dumps(tmp_path):
    # 300 rows cycle through every row shape, across several write chunks,
    # with keys at both ends of 64 bits.
    rng = np.random.default_rng(4)
    n = 300
    shape = np.arange(n) % 4
    half = np.abs(_edge_values(n, 3, rng)) + 5e-324  # positive, edge floats kept
    half[shape % 2 == 0] = np.nan
    kp = _edge_values(n, 2 * 3, rng).reshape(n, 2, 3)
    kp[shape < 2] = np.nan
    table = TrackTable(
        frame=np.r_[np.arange(n - 1), _BIG],
        object_id=np.tile([-(2**63), 0, _BIG], n)[:n],
        position=_edge_values(n, 3, rng),
        half_axes=half,
        keypoints=kp,
    )
    assert {(h, k) for h, k in zip(~np.isnan(table.half_axes[:, 0]), table.has_keypoints)} == {
        (False, False), (True, False), (False, True), (True, True)
    }
    path, again = tmp_path / "tracks.jsonl", tmp_path / "again.jsonl"
    save_tracks(table, path)
    expected = _dumps(table, ("frame", "object_id"), ("position", "half_axes", "keypoints"))
    assert path.read_text().splitlines() == expected
    assert "-0.0" in path.read_text() and f'"frame":{_BIG},"object_id":{_BIG}' in expected[-1]
    save_tracks(load_tracks(path), again)
    assert again.read_bytes() == path.read_bytes()
    save_tracks(TrackTable([], [], np.empty((0, 3)), keypoints=np.empty((0, 2, 3))), path)
    assert path.read_text() == "" and len(load_tracks(path)) == 0


def test_annotation_writer_writes_every_line_as_json_dumps(tmp_path):
    # Rows with a box, with keypoints, and with both; a column no row has
    # is left out of every record.
    rng = np.random.default_rng(5)
    n = 200
    shape = np.arange(n) % 3
    lo = _edge_values(n, 2, rng)
    bbox = np.hstack([np.minimum(lo, 1e-07), np.maximum(lo, 1e16)])  # corners in order
    bbox[shape == 1] = np.nan
    kp = _edge_values(n, 3 * 3, rng).reshape(n, 3, 3)
    kp[shape == 0] = np.nan
    table = AnnotationTable(
        frame=np.r_[np.arange(n - 1), _BIG],
        object_id=np.r_[np.zeros(n - 1, dtype=np.int64), _BIG],
        camera_id=np.r_[np.zeros(n - 1, dtype=np.int64), _BIG],
        bbox=bbox,
        keypoints=kp,
    )
    key, columns = ("frame", "object_id", "camera_id"), ("bbox", "keypoints")
    path = tmp_path / "annotations.jsonl"
    save_annotations(table, path)
    assert path.read_text().splitlines() == _dumps(table, key, columns)
    boxed = shape != 1
    boxes_only = AnnotationTable(
        table.frame[boxed], table.object_id[boxed], table.camera_id[boxed], bbox=bbox[boxed]
    )
    save_annotations(boxes_only, path)
    assert path.read_text().splitlines() == _dumps(boxes_only, key, columns)
    assert "keypoints" not in path.read_text()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
def test_writer_writes_any_finite_float_as_json_dumps(tmp_path_factory, values):
    # Each value is a position coordinate and a keypoint coordinate; the
    # columns are Fortran-ordered, so no row is one contiguous block.
    n = -(-len(values) // 3)
    pos = np.asfortranarray(np.resize(np.array(values), (n, 3)))
    table = TrackTable(np.arange(n), np.zeros(n, dtype=np.int64), pos, keypoints=pos[:, None, :])
    path = tmp_path_factory.mktemp("writer") / "tracks.jsonl"
    save_tracks(table, path)
    expected = _dumps(table, ("frame", "object_id"), ("position", "keypoints"))
    assert path.read_text().splitlines() == expected


_HUGE = "1" + "0" * 399  # an integer literal 400 digits long


@pytest.mark.parametrize("field, text, reason", [
    ("frame", str(2**64), f"frame must fit in 64 bits, got {2**64}"),
    ("frame", str(-(2**63) - 1), f"frame must fit in 64 bits, got {-(2**63) - 1}"),
    ("object_id", str(2**64), f"object_id must fit in 64 bits, got {2**64}"),
    ("object_id", _HUGE, f"object_id must fit in 64 bits, got {_HUGE}"),
    ("frame", "1e400", "frame must be an integer, got inf"),
    ("position", f"[{_HUGE}, 0, 1]", "position must be finite"),
    ("position", "[0, NaN, 1]", "position must be finite"),
    ("position", "[0, -Infinity, 1]", "position must be finite"),
    ("position", "[0, 1e400, 1]", "position must be finite"),
], ids=["frame-2**64", "frame-below-int64", "id-2**64", "id-400-digits", "frame-1e400",
        "400-digits", "NaN", "Infinity", "1e400"])
def test_reader_refuses_what_json_loads_gives(tmp_path, field, text, reason):
    # The values orjson reads otherwise than json.loads (an integer beyond
    # 64 bits as a float) or not at all are refused as json's values are.
    rec = {"frame": 1, "object_id": 1, "position": "[0, 0, 1]", field: text}
    path = tmp_path / "tracks.jsonl"
    path.write_text(_GOOD_TRACK % 0 + "\n{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n")
    with pytest.raises(ParseError) as err:
        load_tracks(path)
    assert (err.value.line, err.value.reason) == (2, reason)


@pytest.mark.parametrize("text, value", [
    (str(2**64 + 1), float(2**64 + 1)),
    (str(-(2**63) - 1), float(-(2**63) - 1)),
    (str(3**300), float(3**300)),
    ("1e-400", 0.0),
    ("-0", 0.0),
], ids=["2**64+1", "below-int64", "3**300", "underflow", "minus-zero"])
def test_reader_reads_payload_numbers_as_json_loads(tmp_path, text, value):
    path = tmp_path / "tracks.jsonl"
    path.write_text(f'{{"frame": 0, "object_id": 1, "position": [0, {text}, 1]}}\n')
    assert load_tracks(path).position[0].tolist() == [0.0, value, 1.0]


def test_reader_reads_a_lone_surrogate_as_json_loads(tmp_path):
    # orjson refuses a lone surrogate in a string; json.loads reads it, and
    # a field no table has is ignored.
    path = tmp_path / "tracks.jsonl"
    path.write_text('{"frame": 0, "object_id": 1, "note": "\\ud800", "position": [0, 0, 1]}\n')
    assert json.loads(path.read_text())["note"] == "\ud800"
    assert load_tracks(path).position.tolist() == [[0.0, 0.0, 1.0]]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_reader_reads_repr_text_as_its_float(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("reader") / "tracks.jsonl"
    path.write_text(f'{{"frame": 0, "object_id": 1, "position": [{x!r}, 0, 1]}}\n')
    assert load_tracks(path).position[0, 0].tobytes() == np.float64(x).tobytes()


_GOOD_TRACK = '{"frame": %d, "object_id": 1, "position": [0, 0, 1]}'
_GOOD_KP = '{"frame": %d, "object_id": 1, "position": [0, 0, 1], "keypoints": [[0, 0, 1], [1, 1, 0]]}'


@pytest.mark.parametrize("lines, line, reason", [
    ([_GOOD_TRACK % 0, _GOOD_TRACK % 1 + "\x0c"], 2, "Extra data"),
    ([_GOOD_TRACK % 0 + "\xa0"], 1, "Extra data"),
    ([_GOOD_TRACK % 0 + " ", _GOOD_TRACK % 1], 1, "Extra data"),
    ([_GOOD_TRACK % 0, _GOOD_TRACK % 1 + _GOOD_TRACK % 2], 2, "Extra data"),
    ([_GOOD_TRACK % 0 + " " + _GOOD_TRACK % 1], 1, "Extra data"),
    (["﻿" + _GOOD_TRACK % 0], 1, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ([_GOOD_TRACK % 0, "  "], None, None),
    (["\x0c", "   " + _GOOD_TRACK % 0 + "\t", "\t" + _GOOD_TRACK % 1 + " \r"], None, None),
    ([_GOOD_TRACK % 0, _GOOD_TRACK.replace("1]", "NaN]") % 1], 2, "position must be finite"),
    ([_GOOD_TRACK % 0, '{"frame": 1, "object_id": 1, "position": [0, 0, 1}'], 2,
     "Expecting ',' delimiter"),
    ([_GOOD_TRACK % 0, '{"frame": 1, "object_id": 1, "position": [0, 0, 1,]}'], 2,
     "Expecting value"),
], ids=["formfeed", "nbsp", "line-separator", "two-records", "two-records-spaced", "bom",
        "blank-line", "json-whitespace", "nan", "unclosed", "trailing-comma"])
def test_reader_edge_lines(tmp_path, lines, line, reason):
    # What follows a record on its line may be only JSON whitespace; the
    # file:line and reason are what json.loads gives for the line.
    path = tmp_path / "tracks.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    if reason is None:
        assert len(load_tracks(path)) == sum(bool(s.strip()) for s in lines)
        return
    with pytest.raises(ParseError) as err:
        load_tracks(path)
    assert (err.value.line, err.value.reason) == (line, reason)
    assert str(err.value) == f"{path}:{line}: {reason}"


@pytest.mark.parametrize("later", [
    '{"frame": "x", "object_id": 1, "position": [0, 0, 1]}',
    '{"frame": 0, "object_id": 1, "position": [0, 0, 1]}',
    '{"frame": 9999, "object_id": 1}',
    '{"frame": 9999, "object_id": 1, "position": [0, 0, 1], "keypoints": [[0, 0, 1]]}',
    '{"frame": 9999, "object_id": 1, "position": [0, 0, 1], "keypoints": [[0, true, 1]]}',
    '{"frame": 9999, "object_id": 1, "position": [0, 0, 1], "keypoints": []}',
    "[1, 2]",
    "{",
], ids=["bad-key", "duplicate", "no-position", "joint-count", "joint-count-bad-row",
        "empty-keypoints", "not-object", "syntax"])
@pytest.mark.parametrize("before", [0, 1, 127, 200])
def test_keypoint_fault_is_reported_before_a_later_record_fault(tmp_path, before, later):
    # A bad keypoint row on the line after ``before`` good keypoint records
    # is reported at its own line, ahead of any fault on a later line.
    good = [_GOOD_KP % f for f in range(before)]
    bad = _GOOD_KP.replace("[1, 1, 0]", "[1, NaN, 0]") % before
    path = tmp_path / "tracks.jsonl"
    path.write_text("\n".join([*good, bad, later]) + "\n")
    with pytest.raises(ParseError) as err:
        load_tracks(path)
    assert (err.value.line, err.value.reason) == (before + 1, "keypoint row must be finite")


_ANN = '{"frame": %d, "object_id": 1, "camera_id": 0, "bbox": %s}'


@pytest.mark.parametrize("load, lines, line, reason", [
    (load_annotations,
     [_ANN % (0, "[0, 0, 10, 10]"), _ANN % (1, '[0, "x", 10, 10]'), _ANN % (2, "[0, 0, 10, 10]"),
      _ANN % (0, "[0, 0, 10, 10]")],
     2, "bbox must contain numbers"),
    (load_tracks,
     [_GOOD_TRACK % 0, '{"frame": 1, "object_id": 1, "position": [0, 0, 1], "half_axes": [1, null, 1]}',
      '{"frame": 2, "object_id": 1, "position": [0, "1", 1]}'],
     2, "half_axes must contain numbers"),
    (load_tracks,
     ['{"frame": 0, "object_id": 1, "position": [0, 0, 1], "half_axes": [1, -1, 1]}',
      _GOOD_TRACK % 1, '{"frame": 2, "object_id": 1, "position": [0, "1", 1]}'],
     3, "position must contain numbers"),
], ids=["bbox-before-duplicate", "half-axes-before-position", "value-before-row-rule"])
def test_first_faulty_record_is_reported_then_row_rules(tmp_path, load, lines, line, reason):
    # Each record is checked whole where it is read, its fields in COLUMNS
    # order, so a malformed value is reported ahead of any fault on a later
    # line; a row rule is checked only after every record is read.
    path = tmp_path / "input.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load(path)
    assert (err.value.line, err.value.reason) == (line, reason)


@pytest.mark.parametrize("rows, reason", [
    ("[[0, 0, 1]]", "1 keypoint rows, line 1 has 2"),
    ("[[0, 0, 1], [1, 1]]", "keypoint row must be a list of 3 numbers"),
    ("[[0, 0, 1], [1, 1, 0], [true, 0, 0]]", "keypoint row must contain numbers"),
], ids=["count", "row-width", "row-type"])
@pytest.mark.parametrize("before", [1, 128, 300])
def test_keypoint_faults_after_full_chunks_name_their_line(tmp_path, before, rows, reason):
    # Records past the first chunks: the record's own row fault comes
    # before its joint-count fault, and a good file of the same length loads.
    good = [_GOOD_KP % f for f in range(before)]
    path = tmp_path / "tracks.jsonl"
    path.write_text("\n".join(good) + "\n")
    assert load_tracks(path).keypoints.shape == (before, 2, 3)
    bad = f'{{"frame": {before}, "object_id": 1, "position": [0, 0, 1], "keypoints": {rows}}}'
    path.write_text("\n".join([*good, bad, _GOOD_KP % (before + 1)]) + "\n")
    with pytest.raises(ParseError) as err:
        load_tracks(path)
    assert (err.value.line, err.value.reason) == (before + 1, reason)


# --- the chunked reader against the record-by-record one ---------------------

_FAULTS = (
    "bool-row", "string-row", "null-row", "bool-value", "string-value", "null-value",
    "joint-count", "float-key", "bool-key", "big-key", "duplicate", "no-payload", "not-object",
)


def _random_jsonl(rng: random.Random, kind: str, n: int, fault: str | None, at: int) -> str:
    """The text of a random track or annotation file of ``n`` records, lines
    shuffled, with blank lines, split bbox/keypoint records (annotations),
    ints in float fields and at times 2**70 in one, at times "true" inside
    an extra string field, and the ``fault`` planted on line ``at`` (0: the
    last line)."""
    joints = rng.choice((1, 2, 3))

    def number(lo=-1e3, hi=1e3):
        return rng.randint(int(lo), int(hi)) if rng.random() < 0.1 else rng.uniform(lo, hi)

    def record(k):
        rec = {"frame": k // 8, "object_id": k % 8}
        if kind == "annotations":
            rec.update(object_id=k % 8 // 2, camera_id=k % 2)
        kp = [[number(), number(), number()] for _ in range(joints)]
        if kind == "tracks":
            rec["position"] = [number(), number(), number()]
            if rng.random() < 0.5:
                rec["half_axes"] = [number(1, 2), number(1, 2), number(1, 2)]
            if rng.random() < 0.7:
                rec["keypoints"] = kp
        else:
            u, v = number(0, 500), number(0, 500)
            r = rng.random()
            if r < 0.8:
                rec["bbox"] = [u, v, u + number(1, 50), v + number(1, 50)]
            if r > 0.3:
                rec["keypoints"] = kp
        return rec

    keys = rng.sample(range(8 * n), n)
    records = [record(k) for k in keys]
    if rng.random() < 0.3:
        rng.choice(records)["note"] = rng.choice(("true story", "untrue", "a false start"))
    if rng.random() < 0.3:
        big = rng.choice(records)
        field = next(c for c in ("keypoints", "position", "bbox") if c in big)
        if field == "keypoints":
            big[field][0][2] = 2**70
        else:
            big[field][-1] = 2**70
    lines, split = [], rng.choice((0.0, 0.01, 0.2))
    for rec in records:
        if kind == "annotations" and "bbox" in rec and "keypoints" in rec and rng.random() < split:
            head = {f: rec[f] for f in AnnotationTable.KEY}
            lines += [json.dumps({**head, "bbox": rec["bbox"]}),
                      json.dumps({**head, "keypoints": rec["keypoints"]})]
        else:
            lines.append(json.dumps(rec))
    rng.shuffle(lines)
    for i in sorted(rng.sample(range(len(lines)), rng.choice((0, len(lines) // 20))), reverse=True):
        lines.insert(i, rng.choice(("", "  ", "\t")))
    if fault is not None:
        bad = record(8 * n + rng.randrange(8))
        bad.setdefault("keypoints", [[number(), number(), number()] for _ in range(joints)])
        if fault.endswith(("-row", "-value")):  # a non-number in a keypoint row or fixed-width field
            what, where = fault.split("-")
            wrong = {"bool": rng.choice((True, False)), "string": "1.5", "null": None}[what]
            if where == "row":
                bad["keypoints"][-1][rng.randrange(3)] = wrong
            else:
                field = rng.choice(("position", "half_axes") if kind == "tracks" else ("bbox",))
                value = bad.setdefault(field, [number(1, 2) for _ in range(3 if kind == "tracks" else 4)])
                value[rng.randrange(len(value))] = wrong
        elif fault == "joint-count":
            bad["keypoints"] = bad["keypoints"] * 2 if rng.random() < 0.5 else bad["keypoints"] + [[0, 0, 1]]
        elif fault == "float-key":
            bad[rng.choice(("frame", "object_id"))] = rng.choice((1.0, 2.5, 2.0**64))
        elif fault == "bool-key":
            bad["object_id"] = rng.choice((True, False))
        elif fault == "big-key":
            bad["frame"] = rng.choice((2**63, -(2**63) - 1, 2**64))
        elif fault == "duplicate":
            bad = dict(rng.choice(records))
        elif fault == "no-payload":
            for c in ("position", "bbox", "keypoints"):
                bad.pop(c, None)
        index = (at if 0 < at <= len(lines) else len(lines)) - 1
        lines[index] = "[1, 2]" if fault == "not-object" else json.dumps(bad)
    return "\n".join(lines) + "\n"


def _outcome(load, path):
    """A load's table as (dtype, shape, bytes) per column, or its error."""
    try:
        table = load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return {
        f.name: None if (v := getattr(table, f.name)) is None else (v.dtype.str, v.shape, v.tobytes())
        for f in dataclasses.fields(table)
    }


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["tracks", "annotations"]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    fault=st.sampled_from([None, *_FAULTS]),
    at=st.sampled_from([1, 127, 128, 129, 0]),
)
def test_reader_matches_the_record_by_record_reader(tmp_path_factory, kind, n, seed, fault, at):
    # The same table bits, or the same error and message, as the reader
    # that checks one record at a time.
    path = tmp_path_factory.mktemp("reader") / f"{kind}.jsonl"
    path.write_text(_random_jsonl(random.Random(seed), kind, n, fault, at))
    load = load_tracks if kind == "tracks" else load_annotations
    with mock.patch.object(mvfuse_io, "_read_jsonl", loop_read_jsonl):
        expected = _outcome(load, path)
    assert _outcome(load, path) == expected


@pytest.mark.parametrize("before", [128, 256])
def test_joint_count_that_changes_at_a_chunk_boundary_is_refused(tmp_path, before):
    # Every record of the later chunks agrees with the others in its chunk,
    # not with the file's first record.
    three = _GOOD_KP.replace("[1, 1, 0]]", "[1, 1, 0], [2, 2, 1]]")
    lines = [_GOOD_KP % f for f in range(before)] + [three % f for f in range(before, before + 200)]
    path = tmp_path / "tracks.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_tracks(path)
    assert (err.value.line, err.value.reason) == (before + 1, "3 keypoint rows, line 1 has 2")


_SCENE_SHAPES = {
    "boxes": {"num_objects": 10, "num_cameras": 6, "frames": 20},
    "sparse": {"num_objects": 10, "num_cameras": 6, "frames": 40, "motion": "waypoint",
               "pixel_noise": 3.0, "occlusions": [
                   {"camera_id": 0, "start": 5, "stop": 25},
                   {"camera_id": 3, "start": 10, "stop": 18, "object_id": 2}]},
    "pose": {"num_objects": 2, "num_cameras": 5, "frames": 20, "skeleton": "panoptic15"},
    "evaluate": {"num_objects": 20, "num_cameras": 1, "frames": 20, "arena": [30.0, 30.0],
                 "skeleton": "panoptic15"},
}


@pytest.mark.parametrize("shape", sorted(_SCENE_SHAPES))
def test_synth_files_load_without_the_record_by_record_path(tmp_path, shape):
    # The files mvfuse writes are clean, so every chunk of them is taken in
    # one pass: with the per-record body broken they still load.
    bundle, gt = generate(SceneSpec.from_dict({"seed": 1, **_SCENE_SHAPES[shape]}))
    save_annotations(bundle.annotations, tmp_path / "annotations.jsonl")
    save_tracks(gt, tmp_path / "gt_tracks.jsonl")
    assert len(bundle.annotations) > 128 and len(gt) > 128 or shape == "pose"

    def broken(self, lineno, line):
        raise AssertionError(f"line {lineno} was read record by record")

    with mock.patch.object(mvfuse_io._Reader, "record", broken):
        _assert_same_table(load_annotations(tmp_path / "annotations.jsonl"), bundle.annotations)
        assert _outcome(load_tracks, tmp_path / "gt_tracks.jsonl") == _outcome(lambda _: gt, None)


@pytest.mark.parametrize("enabled", [True, False])
def test_reader_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good = "\n".join(_GOOD_KP % f for f in range(300)) + "\n"
    path = tmp_path / "tracks.jsonl"
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        path.write_text(good)
        load_tracks(path)
        assert gc.isenabled() is enabled
        path.write_text(good.replace('"frame": 200,', '"frame": "200",'))
        with pytest.raises(ParseError) as err:
            load_tracks(path)
        assert err.value.line == 201
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
