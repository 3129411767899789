"""CLI tests driving ``main(argv)`` in-process, and in a fresh interpreter
where the test is about what a run imports."""

import copy
import gc
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mvfuse
from mvfuse import FilterError, RunConfig, SceneSpec, cli, load_tracks, metrics
from mvfuse.cli import main


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scene")
    rc = main(
        [
            "synth",
            "--out",
            str(d),
            "--seed",
            "5",
            "--objects",
            "2",
            "--cameras",
            "3",
            "--frames",
            "10",
            "--motion",
            "constant-velocity",
            "--skeleton",
            "panoptic15",
        ]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def fused_tracks(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fused") / "tracks.jsonl"
    rc = main(
        [
            "annotate",
            "--calibration",
            str(scene_dir / "calibration.json"),
            "--annotations",
            str(scene_dir / "annotations.jsonl"),
            "--config",
            str(scene_dir / "config.json"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_writes_all_artifacts(self, scene_dir, capsys):
        for name in (
            "calibration.json",
            "annotations.jsonl",
            "gt_tracks.jsonl",
            "config.json",
            "scene.json",
        ):
            assert (scene_dir / name).exists(), name
        scene = json.loads((scene_dir / "scene.json").read_text())
        assert scene["num_objects"] == 2
        config = json.loads((scene_dir / "config.json").read_text())
        assert config["dt"] == pytest.approx(0.1)
        assert config["skeleton"] == "panoptic15"

    def test_config_noise_matches_pixel_noise(self, scene_dir, tmp_path, capsys):
        noiseless = json.loads((scene_dir / "config.json").read_text())
        assert (noiseless["r_bbox"], noiseless["r_keypoint"]) == (1e-4, 1.0)
        out = tmp_path / "noisy"
        argv = ["synth", "--out", str(out), "--objects", "1", "--frames", "2"]
        assert main(argv + ["--noise", "3"]) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["r_bbox"] == config["r_keypoint"] == 9.0

    def test_config_and_scene_bytes(self, tmp_path, capsys):
        # The exact text synth writes: keys in field order, two-space
        # indent, tuple fields and the occlusions as JSON lists, an int
        # given for a float field written as a float, and a final newline.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "arena": [10, 8.5], "image_size": [640, 480],
            "occlusions": [{"camera_id": 1, "start": 1, "stop": 3},
                           {"camera_id": 0, "start": 2, "stop": 4, "object_id": 1}],
        }))
        out = tmp_path / "scene"
        argv = ["synth", "--out", str(out), "--spec", str(spec), "--seed", "3", "--objects", "2",
                "--cameras", "2", "--frames", "5", "--noise", "1.5", "--skeleton", "coco17"]
        assert main(argv) == 0
        config = {
            "dt": 0.1, "alpha": 0.1, "beta": 2.0, "kappa": 0.0, "q_pos": 1e-06,
            "q_shape": 1e-06, "r_bbox": 2.25, "r_keypoint": 2.25,
            "default_half_axes": [0.3, 0.3, 0.9], "init_pos_var": 0.25, "init_vel_var": 1.0,
            "init_shape_var": 0.05, "init_keypoint_pos_var": 0.05, "init_keypoint_vel_var": 1.0,
            "visibility_threshold": 0.5, "skeleton": "coco17", "threshold": 1.0,
            "ospa_cutoff": 1.0, "ospa_order": 1.0, "ospa_window": None,
            "ap_thresholds": [25.0, 50.0, 100.0, 150.0], "recall_at": 500.0, "plane": False,
        }
        scene = {
            "seed": 3, "num_objects": 2, "num_cameras": 2, "frames": 5, "fps": 10.0,
            "arena": [10.0, 8.5], "motion": "constant-velocity", "pixel_noise": 1.5,
            "skeleton": "coco17", "image_size": [640, 480], "ring_radius": None,
            "cam_height": None, "focal": None,
            "occlusions": [
                {"camera_id": 1, "start": 1, "stop": 3, "object_id": None},
                {"camera_id": 0, "start": 2, "stop": 4, "object_id": 1},
            ],
        }
        for name, doc in (("config.json", config), ("scene.json", scene)):
            assert (out / name).read_text() == json.dumps(doc, indent=2) + "\n"

    def test_spec_file_with_flag_override(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "num_objects": 1, "frames": 3}))
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), "--spec", str(spec), "--frames", "5"]) == 0
        assert json.loads((out / "scene.json").read_text())["frames"] == 5

    def test_malformed_spec_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{nope")
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_object_spec_names_its_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"error: {spec}: scene spec must be a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc, message", [
        ({"occlusions": [5]}, "{spec}: each occlusion must be an object"),
        ({"occlusions": [{"camera_id": 0, "start": 0}]}, "{spec}: occlusion missing key 'stop'"),
        ({"ring_radius": 9.0}, "{spec}: camera ring too tight for the arena"),
        ({"ring_radius": 2.0}, "{spec}: ring_radius 2.0 must exceed the arena half-diagonal 8.49"),
        # Rings whose cameras overflow: refused with no RuntimeWarning (one
        # would be an error here).
        ({"arena": [1e200, 1e200], "frames": 2, "num_objects": 1},
         "{spec}: camera ring (radius 1.13e+200, height 5.09e+199, focal 275) overflows: "
         "rotation contains non-finite values"),
        ({"arena": [1e300, 1e300], "frames": 2, "num_objects": 1},
         "{spec}: camera ring (radius 1.13e+300, height 5.09e+299, focal 275) overflows: "
         "rotation contains non-finite values"),
        # Finite projection matrices whose outline conic weights overflow.
        ({"focal": 1e306}, "{spec}: camera ring (radius 17.6, height 7.91, focal 1e+306) "
         "overflows: outline conic weights of M = K R overflow"),
        ({"ring_radius": 1e154}, "{spec}: camera ring (radius 1e+154, height 4.5e+153, "
         "focal 4.94e+155) overflows: outline conic weights of M = K R overflow"),
    ], ids=["occlusion-not-object", "occlusion-missing-key", "ring-too-tight", "ring-inside-arena",
            "arena-1e200", "arena-1e300", "focal-1e306", "ring-1e154"])
    def test_unsatisfiable_spec_is_exit_2(self, tmp_path, capsys, doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message.format(spec=spec)}"]

    def test_cameras_built_once_per_run(self, tmp_path, capsys, monkeypatch):
        # The spec builds its cameras to check them; generate renders with
        # those, and equality and the written spec ignore them.
        from mvfuse import synth

        built = []
        build = synth._build_cameras
        monkeypatch.setattr(synth, "_build_cameras", lambda spec: built.append(spec) or build(spec))
        argv = ["synth", "--out", str(tmp_path / "o"), "--objects", "1", "--frames", "2"]
        assert main(argv) == 0
        assert len(built) == 1
        spec = built[0]
        assert "cameras" not in spec.to_dict() and spec == SceneSpec(**spec.to_dict())

    def test_unknown_spec_key_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"objects": 3}))
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == 2

    @pytest.mark.parametrize("object_id", [99, 6, -1])
    def test_occlusion_of_unknown_object_is_exit_2(self, tmp_path, capsys, object_id):
        spec = tmp_path / "spec.json"
        occlusion = {"camera_id": 0, "start": 1, "stop": 3, "object_id": object_id}
        spec.write_text(json.dumps({"num_objects": 6, "frames": 5, "occlusions": [occlusion]}))
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"occlusion references unknown object {object_id}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"seed": "\xff"}'),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_spec_is_exit_2(self, tmp_path, capsys, make):
        spec = tmp_path / "spec.json"
        make(spec)
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"error: {spec}: cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["annotate", "evaluate", "synth"])
def test_unwritable_output_is_exit_2(scene_dir, fused_tracks, tmp_path, capsys, command):
    # A directory where annotate or evaluate writes a file, a file where
    # synth makes a directory: one error line naming the path, exit 2.
    out = tmp_path / "out"
    out.mkdir() if command != "synth" else out.write_text("")
    argv = {
        "annotate": _annotate_argv(scene_dir, tmp_path),
        "evaluate": ["evaluate", "--pred", str(fused_tracks),
                     "--gt", str(scene_dir / "gt_tracks.jsonl"), "--report", str(out)],
        "synth": ["synth", "--out", str(out), "--objects", "1", "--cameras", "1", "--frames", "2"],
    }[command]
    if command == "annotate":
        argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line.lower()]
    assert len(errors) == 1 and errors[0].startswith("error: ") and str(out) in errors[0]


class TestAnnotate:
    def test_tracks_cover_ground_truth(self, scene_dir, fused_tracks):
        pred = load_tracks(fused_tracks)
        gt = load_tracks(scene_dir / "gt_tracks.jsonl")
        assert set(pred.object_id.tolist()) == set(gt.object_id.tolist())
        # Skeleton came from the config, so fused tracks carry 3D keypoints.
        assert pred.has_keypoints.all() and gt.has_keypoints.all()

    def test_keypoints_without_skeleton_warn(self, scene_dir, tmp_path, caplog):
        # the scene's annotations carry keypoints; omitting the config (and
        # its skeleton) must not drop them silently
        rc = main(
            [
                "annotate",
                "--calibration",
                str(scene_dir / "calibration.json"),
                "--annotations",
                str(scene_dir / "annotations.jsonl"),
                "--out",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert rc == 0
        assert any("skeleton" in r.message for r in caplog.records)

    def test_missing_calibration_is_exit_2(self, scene_dir, tmp_path, capsys):
        rc = main(
            [
                "annotate",
                "--calibration",
                str(tmp_path / "nope.json"),
                "--annotations",
                str(scene_dir / "annotations.jsonl"),
                "--out",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert rc == 2

    def test_bad_config_is_exit_2(self, scene_dir, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({"dt": -1.0}))
        rc = main(
            [
                "annotate",
                "--calibration",
                str(scene_dir / "calibration.json"),
                "--annotations",
                str(scene_dir / "annotations.jsonl"),
                "--config",
                str(bad),
                "--out",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert rc == 2


    def test_deeply_nested_config_is_exit_2(self, scene_dir, tmp_path, capsys):
        # json.loads runs out of stack on it: an error naming the file.
        config = tmp_path / "config.json"
        config.write_text('{"dt": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(_annotate_argv(scene_dir, tmp_path, "--config", str(config))) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: JSON nested too deeply" in err
        assert "Traceback" not in err

    def test_config_with_workers_is_exit_2(self, scene_dir, tmp_path, capsys):
        # The process pool is gone; an old config that still sets it is
        # refused rather than silently ignored.
        config = json.loads((scene_dir / "config.json").read_text())
        bad = tmp_path / "config.json"
        bad.write_text(json.dumps({**config, "workers": 2}))
        rc = main(_annotate_argv(scene_dir, tmp_path, "--config", str(bad)))
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_workers_flag_is_gone(self, scene_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_annotate_argv(scene_dir, tmp_path, "--workers", "2"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "skeleton must be a JSON object"),
        ({"joints": ["a", 1], "coords": [[0, 0, 0], [0, 0, 1]]}, "joints must be a list of strings"),
        ({"joints": ["a", "b"], "coords": "xyz"}, "coords must be a list of [x, y, z]"),
        ({"joints": ["a", "a"], "coords": [[0, 0, 0], [0, 0, 1]]}, "joint names must be unique"),
    ], ids=["not-object", "joints", "coords", "refused-pose"])
    def test_bad_skeleton_file_names_it(self, scene_dir, tmp_path, capsys, doc, message):
        skeleton = tmp_path / "skeleton.json"
        skeleton.write_text(json.dumps(doc))
        assert main(_annotate_argv(scene_dir, tmp_path, "--skeleton", str(skeleton))) == 2
        err = capsys.readouterr().err
        assert f"error: {skeleton}: {message}" in err and "Traceback" not in err

    def test_skeleton_flag_replaces_the_config_value(self, scene_dir, tmp_path, capsys):
        # --skeleton is laid over the config like any other flag, so an empty
        # one is the value "" and not a fall-back to the config's skeleton.
        config = json.loads((scene_dir / "config.json").read_text())
        empty = tmp_path / "config.json"
        empty.write_text(json.dumps({**config, "skeleton": ""}))
        with_config = _annotate_argv(scene_dir, tmp_path, "--config", str(scene_dir / "config.json"))
        assert main(with_config + ["--skeleton", ""]) == 2
        flag = capsys.readouterr().err
        assert main(_annotate_argv(scene_dir, tmp_path, "--config", str(empty))) == 2
        assert capsys.readouterr().err == flag
        assert main(with_config + ["--skeleton", "coco17"]) == 2
        assert "15 keypoints, expected 17" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [lambda tmp_path: "", lambda tmp_path: str(tmp_path)],
                             ids=["empty", "directory"])
    def test_skeleton_that_names_no_file_is_looked_up_as_a_built_in(
        self, scene_dir, tmp_path, capsys, make
    ):
        # Only a file is read as a skeleton; "" (which is the working
        # directory to the file system) and a directory are names.
        skeleton = make(tmp_path)
        assert main(_annotate_argv(scene_dir, tmp_path, "--skeleton", skeleton)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {skeleton!r} is neither a skeleton file nor a built-in name"
        ]

    def test_calibration_not_a_list_names_it(self, scene_dir, tmp_path, capsys):
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps({"cams": []}))
        argv = _annotate_argv(scene_dir, tmp_path)
        argv[argv.index("--calibration") + 1] = str(calibration)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {calibration}: calibration must be a list of cameras" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("id", "abc"), ("width", None)])
    def test_malformed_calibration_is_exit_2(self, scene_dir, tmp_path, capsys, key, value):
        doc = json.loads((scene_dir / "calibration.json").read_text())
        doc["cameras"][1][key] = value
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps(doc))
        argv = _annotate_argv(scene_dir, tmp_path)
        argv[argv.index("--calibration") + 1] = str(calibration)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{calibration}: camera #1 {key} must be an integer" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda cams: cams.append(dict(cams[0])), "duplicate camera id 0"),
        (lambda cams: cams[0].update(R=[2.0, 0, 0, 0, 1, 0, 0, 0, 1]),
         "camera 0: rotation is not orthonormal"),
        (lambda cams: cams.clear(), "calibration contains no cameras"),
        (lambda cams: cams.__setitem__(1, 5), "camera #1 is not an object"),
        (lambda cams: cams[0]["K"].__setitem__(8, 2.0),
         "camera 0: intrinsics bottom row must be (0, 0, 1)"),
        (lambda cams: cams[0].update(t=[0.0, 0.0, 1e306]),
         "camera 0: projection matrix K [R | t] overflows"),
        (lambda cams: cams[0]["K"].__setitem__(0, 1e160) or cams[0]["K"].__setitem__(4, 1e160),
         "camera 0: outline conic weights of M = K R overflow"),
    ], ids=["duplicate", "rotation", "empty", "not-object", "K22", "overflow", "focal-1e160"])
    def test_calibration_error_names_its_file(self, scene_dir, tmp_path, capsys, edit, message):
        doc = json.loads((scene_dir / "calibration.json").read_text())
        edit(doc["cameras"])
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps(doc))
        argv = _annotate_argv(scene_dir, tmp_path)
        argv[argv.index("--calibration") + 1] = str(calibration)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {calibration}: {message}" in err
        assert "Warning" not in err

    def test_far_camera_skips_its_updates_without_warning(self, tmp_path, capsys, caplog):
        # A finite camera so far away that the outline conic overflows: each
        # of its updates is skipped with a diagnostic, the run exits 0, and
        # no RuntimeWarning is printed (one would be an error here).
        scene = tmp_path / "s"
        argv = ["synth", "--out", str(scene), "--objects", "2", "--cameras", "2",
                "--frames", "3", "--seed", "0"]
        assert main(argv) == 0
        calibration = scene / "calibration.json"
        doc = json.loads(calibration.read_text())
        doc["cameras"][0]["t"] = [0, 3.27133036537092e151, 0]
        calibration.write_text(json.dumps(doc))
        argv = _annotate_argv(scene, tmp_path, "--config", str(scene / "config.json"))
        argv[argv.index("--calibration") + 1] = str(calibration)
        assert main(argv) == 0
        assert "Warning" not in capsys.readouterr().err
        skipped = [r.args[1:3] for r in caplog.records if r.args and r.args[0] == "update_skipped"]
        assert sorted(skipped) == [(oid, f" frame {f} camera 0") for oid in (0, 1) for f in range(3)]
        assert not [r for r in caplog.records if "C22" in r.getMessage()]

    def test_large_valid_process_noise_fuses(self, scene_dir, tmp_path, capsys):
        # q_pos * dt^4 = 8.1e11: a PSD process noise whose eigenvalues carry
        # roundoff far above 1e-9, which is no reason to refuse it.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"q_pos": 1e10, "dt": 3}))
        assert main(_annotate_argv(scene_dir, tmp_path, "--config", str(config))) == 0
        assert "error" not in capsys.readouterr().err
        assert set(load_tracks(tmp_path / "t.jsonl").object_id.tolist()) == {0, 1}

    @pytest.mark.parametrize("doc", [
        {"q_pos": 1e307, "dt": 1},
        {"init_vel_var": 1e300, "dt": 1e5},
    ], ids=["q_pos", "init_vel_var"])
    def test_overflowing_predict_ends_the_object(self, scene_dir, tmp_path, capsys, caplog, doc):
        # Each config passes the start-of-run checks, then a predict
        # overflows: the object ends at its last good frame with one
        # diagnostic, and the run writes the tracks with no traceback.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**doc, "skeleton": "panoptic15"}))
        assert main(_annotate_argv(scene_dir, tmp_path, "--config", str(config))) == 0
        assert "Traceback" not in capsys.readouterr().err
        ended = [r.args[1] for r in caplog.records if r.args and r.args[0] == "predict_failed"]
        assert sorted(ended) == [0, 1]
        tracks = load_tracks(tmp_path / "t.jsonl")
        gt = load_tracks(scene_dir / "gt_tracks.jsonl")
        assert set(tracks.object_id.tolist()) == {0, 1}
        assert tracks.frame.max() < gt.frame.max()

    def test_diagnostics_name_only_the_fields_they_have(self, scene_dir, tmp_path):
        # In a fresh interpreter's stderr: both objects' predicts overflow
        # (predict_failed names no camera), an object with keypoints and no
        # box is never born (no_observation names no frame or camera), and a
        # skipped update names its batch row with plain ints.
        annotations = tmp_path / "annotations.jsonl"
        kp_only = {"frame": 0, "object_id": 9, "camera_id": 0, "keypoints": [[5.0, 5.0, 1.0]] * 15}
        annotations.write_text(
            (scene_dir / "annotations.jsonl").read_text() + json.dumps(kp_only) + "\n"
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"q_pos": 1e307, "dt": 1, "skeleton": "panoptic15"}))
        argv = _annotate_argv(scene_dir, tmp_path, "--config", str(config))
        argv[argv.index("--annotations") + 1] = str(annotations)
        env = {**os.environ, "PYTHONPATH": str(Path(mvfuse.__file__).parents[1]),
               "MVFUSE_LOG": "WARNING"}
        proc = subprocess.run([sys.executable, "-m", "mvfuse", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert "WARNING mvfuse: no_observation: object 9 no boxes at all" in lines
        failed = [line for line in lines if "predict_failed" in line]
        assert [line.split(" frame ")[0] for line in failed] == [
            f"WARNING mvfuse: predict_failed: object {i}" for i in (0, 1)
        ]
        assert all(line.endswith(" prediction overflowed to non-finite values") for line in failed)
        assert any(line.endswith(" at row (0, 1)") and " camera 0 " in line for line in lines)
        assert "None" not in proc.stderr and "np.int64" not in proc.stderr


def _annotate_argv(scene_dir, tmp_path, *extra):
    return [
        "annotate",
        "--calibration", str(scene_dir / "calibration.json"),
        "--annotations", str(scene_dir / "annotations.jsonl"),
        "--out", str(tmp_path / "t.jsonl"),
        *extra,
    ]


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_NUMBER = st.integers(-10**6, 10**6) | st.floats(allow_nan=False, allow_infinity=False)
# Replacement values: arbitrary JSON, or number lists of the lengths the
# formats expect, so that well-formed but wild geometry reaches the fusion.
_VALUE = _JSON | st.integers(1, 17).flatmap(lambda n: st.lists(_NUMBER, min_size=n, max_size=n))
_CAMERA_KEYS = ["id", "K", "R", "t", "width", "height", "extra"]
_RECORD_KEYS = ["frame", "object_id", "camera_id", "bbox", "keypoints", "extra"]
_TRACK_KEYS = ["frame", "object_id", "position", "half_axes", "keypoints", "extra"]


def _mutate(doc: dict, keys: list[str], data) -> None:
    key = data.draw(st.sampled_from(keys))
    if data.draw(st.booleans()) and key in doc:
        del doc[key]
    else:
        doc[key] = data.draw(_VALUE)


def _mutate_lines(lines: list[str], keys: list[str], data) -> None:
    """Replace one of ``lines`` by text (1 in 10), or set or delete one key
    of its record."""
    i = data.draw(st.integers(0, len(lines) - 1))
    if data.draw(st.integers(0, 9)) == 0:
        lines[i] = data.draw(st.text(max_size=20))
        return
    try:
        rec = json.loads(lines[i])
    except ValueError:  # already replaced by text
        return
    if isinstance(rec, dict):
        _mutate(rec, keys, data)
        lines[i] = json.dumps(rec)


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    argv = ["synth", "--out", str(d), "--seed", "2", "--objects", "2", "--cameras", "2",
            "--frames", "3", "--skeleton", "coco17"]
    assert main(argv) == 0
    return d


@pytest.fixture(scope="module")
def tiny_scene(tiny_dir):
    return (
        json.loads((tiny_dir / "calibration.json").read_text()),
        (tiny_dir / "annotations.jsonl").read_text().splitlines(),
        (tiny_dir / "config.json").read_text(),
    )


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_annotate_fuzz_exits_0_or_2(tiny_scene, data):
    # Whatever a calibration.json or annotations.jsonl holds, annotate either
    # fuses it (exit 0) or refuses it as bad input (exit 2); it never raises.
    calibration, lines, config = tiny_scene
    calibration = copy.deepcopy(calibration)
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            cam = data.draw(st.sampled_from(calibration["cameras"]))
            _mutate(cam, _CAMERA_KEYS, data)
        else:
            _mutate_lines(lines, _RECORD_KEYS, data)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "calibration.json").write_text(json.dumps(calibration))
        (tmp / "annotations.jsonl").write_text("\n".join(lines) + "\n")
        (tmp / "config.json").write_text(config)
        rc = main([
            "annotate",
            "--calibration", str(tmp / "calibration.json"),
            "--annotations", str(tmp / "annotations.jsonl"),
            "--config", str(tmp / "config.json"),
            "--out", str(tmp / "tracks.jsonl"),
        ])
    assert rc in (0, 2)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_evaluate_fuzz_exits_0_or_2(tiny_dir, data):
    # Whatever the pred and gt tracks files hold, evaluate either scores
    # them (exit 0) or refuses them as bad input (exit 2); it never raises.
    files = {name: (tiny_dir / "gt_tracks.jsonl").read_text().splitlines() for name in ("pred", "gt")}
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_lines(files[data.draw(st.sampled_from(sorted(files)))], _TRACK_KEYS, data)
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in files.items():
            (Path(tmp) / name).write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--pred", str(Path(tmp) / "pred"), "--gt", str(Path(tmp) / "gt")])
    assert rc in (0, 2)


class TestEvaluate:
    def test_json_to_stdout_table_to_stderr(self, scene_dir, fused_tracks, capsys):
        rc = main(
            [
                "evaluate",
                "--pred",
                str(fused_tracks),
                "--gt",
                str(scene_dir / "gt_tracks.jsonl"),
                "--config",
                str(scene_dir / "config.json"),
            ]
        )
        assert rc == 0
        out, err = capsys.readouterr()
        report = json.loads(out)  # stdout must be pure JSON
        assert report["mota"] == 100.0
        assert report["fp"] == 0 and report["fn"] == 0 and report["ids"] == 0
        assert report["ospa2"] < 0.02
        assert report["pose"] is not None
        assert "MOTA" in err and "MPJPE" in err

    def test_report_file_matches_stdout(self, scene_dir, fused_tracks, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "evaluate",
                "--pred",
                str(fused_tracks),
                "--gt",
                str(scene_dir / "gt_tracks.jsonl"),
                "--report",
                str(report_path),
            ]
        )
        assert rc == 0
        out, _ = capsys.readouterr()
        assert json.loads(report_path.read_text()) == json.loads(out)

    def test_flag_overrides_reach_report(self, scene_dir, fused_tracks, capsys):
        rc = main(
            [
                "evaluate",
                "--pred",
                str(fused_tracks),
                "--gt",
                str(scene_dir / "gt_tracks.jsonl"),
                "--threshold",
                "0.5",
                "--ospa-cutoff",
                "2.0",
                "--ap",
                "25",
                "--plane",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["threshold_m"] == 0.5
        assert report["ospa_cutoff_m"] == 2.0
        assert list(report["pose"]["ap"]) == ["25"]

    def test_flag_replaces_a_refused_config_value(self, scene_dir, fused_tracks, tmp_path, capsys):
        # The flags are laid over the config file before its one check, so a
        # flag can replace a file value that the check would refuse.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threshold": -1.0, "ospa_cutoff": 2.0}))
        argv = ["evaluate", "--pred", str(fused_tracks), "--gt", str(scene_dir / "gt_tracks.jsonl"),
                "--config", str(config)]
        assert main(argv) == 2
        assert "threshold must be positive" in capsys.readouterr().err
        assert main(argv + ["--threshold", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["threshold_m"], report["ospa_cutoff_m"]) == (0.5, 2.0)

    @pytest.mark.parametrize("field", ["position", "keypoints"])
    def test_overflowing_distance_is_scored(self, scene_dir, fused_tracks, tmp_path, capsys, field):
        # A finite coordinate whose square overflows: that pair is never a
        # match, and the run neither warns nor fails.
        lines = (scene_dir / "gt_tracks.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        huge = [0.0, 0.0, 1.3407807929942597e154]
        rec[field] = huge if field == "position" else [huge] + rec[field][1:]
        gt = tmp_path / "gt.jsonl"
        gt.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        assert main(["evaluate", "--pred", str(fused_tracks), "--gt", str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        if field == "position":
            assert report["fn"] >= 1 and report["fp"] >= 1
        else:
            assert report["pose"]["recall"] < 100.0

    def test_huge_gate_with_overflowing_distances_is_scored(self, tmp_path, capsys):
        # Every distance overflows, so no pair is in the gate; the cost that
        # keeps out-of-gate pairs apart would be threshold * 2 + 1 = inf.
        for kind, x in (("gt", 1e200), ("pred", -1e200)):
            (tmp_path / f"{kind}.jsonl").write_text("".join(
                json.dumps({"frame": 0, "object_id": oid, "position": [x, y, 0.0]}) + "\n"
                for oid, y in ((1, 0.0), (2, 1.0))
            ))
        argv = ["evaluate", "--pred", str(tmp_path / "pred.jsonl"),
                "--gt", str(tmp_path / "gt.jsonl"), "--threshold", "1e308"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["fp"], report["fn"], report["ids"], report["mota"]) == (2, 2, 0, -100.0)

    def test_invalid_flag_override_is_exit_2(self, scene_dir, fused_tracks, capsys):
        # flags must hit the same validation as config-file values
        rc = main(
            [
                "evaluate",
                "--pred",
                str(fused_tracks),
                "--gt",
                str(scene_dir / "gt_tracks.jsonl"),
                "--threshold",
                "-1",
            ]
        )
        assert rc == 2
        assert "threshold must be positive" in capsys.readouterr().err

    def test_empty_ground_truth_is_exit_2(self, fused_tracks, tmp_path, capsys):
        empty = tmp_path / "gt.jsonl"
        empty.write_text("")
        rc = main(
            ["evaluate", "--pred", str(fused_tracks), "--gt", str(empty)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_joint_count_mismatch_is_exit_2(self, tmp_path, capsys):
        # pred poses have 2 joints, gt poses 3: a validation error naming
        # both counts, not a traceback.
        pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
        for path, joints in ((pred, 2), (gt, 3)):
            rec = {"frame": 0, "object_id": 1, "position": [0, 0, 1],
                   "keypoints": [[0.0, 0.0, 1.0]] * joints}
            path.write_text(json.dumps(rec) + "\n")
        rc = main(["evaluate", "--pred", str(pred), "--gt", str(gt)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{pred} has 2 keypoints per pose, {gt} has 3" in err
        assert "Traceback" not in err

    def test_negative_frame_is_exit_2(self, fused_tracks, tmp_path, capsys):
        # The bad record is the 2nd line and sorts first.
        bad = tmp_path / "tracks.jsonl"
        bad.write_text(
            json.dumps({"frame": 0, "object_id": 1, "position": [0, 0, 1]}) + "\n"
            + json.dumps({"frame": -3, "object_id": 1, "position": [0, 0, 1]}) + "\n"
        )
        for pred, gt in ((bad, fused_tracks), (fused_tracks, bad)):
            assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 2
            err = capsys.readouterr().err
            assert f"{bad}:2: frame must be non-negative" in err
            assert "Traceback" not in err

    def test_mixed_joint_counts_in_one_file_is_exit_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text("".join(
            json.dumps({"frame": f, "object_id": 1, "position": [0, 0, 1],
                        "keypoints": [[0.0, 0.0, 1.0]] * joints}) + "\n"
            for f, joints in enumerate((3, 2))
        ))
        rc = main(["evaluate", "--pred", str(gt), "--gt", str(gt)])
        assert rc == 2
        assert f"{gt}:2: 2 keypoint rows, line 1 has 3" in capsys.readouterr().err


    def test_deeply_nested_line_is_exit_2(self, fused_tracks, tmp_path, capsys):
        # The NaN makes orjson refuse the line, and json.loads, which reads
        # it instead, runs out of stack: an error at the line.
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            json.dumps({"frame": 0, "object_id": 1, "position": [0, 0, 1]}) + "\n"
            + '{"frame": 1, "object_id": 1, "position": [0, 0, NaN], "x": '
            + "[" * 100_000 + "]" * 100_000 + "}\n"
        )
        assert main(["evaluate", "--pred", str(fused_tracks), "--gt", str(gt)]) == 2
        err = capsys.readouterr().err
        assert f"error: {gt}:2: JSON nested too deeply" in err
        assert "Traceback" not in err

# Objects 10 and 19 of the gt coincide in frames 0 and 1, so their
# assignments tie, and the object order decides the identity switches.
_TIE_GT = {
    10: [(0.75, 0.5, 0.5), (0.75, 0.25, 0.25), (0.0, 0.75, 0.75)],
    19: [(0.75, 0.5, 0.5), (0.75, 0.25, 0.25), (0.5, 0.75, 0.0)],
    8: [(0.75, 0.75, 0.0), (0.5, 0.5, 0.75), (0.25, 0.75, 0.25)],
}
_TIE_PRED = {
    4: {0: (0.75, 0.0, 0.75), 1: (0.5, 0.25, 0.5)},
    13: {0: (0.5, 0.0, 0.75), 2: (0.0, 0.75, 0.5)},
    12: {0: (0.25, 0.25, 0.25), 2: (0.25, 0.25, 0.5)},
    2: {0: (0.25, 0.25, 0.25), 1: (0.75, 0.0, 0.25), 2: (0.0, 0.5, 0.5)},
}


def test_report_does_not_depend_on_line_order(tmp_path, capsys):
    # The same records, object by object or sorted by (frame, id): one
    # table, one report.
    records = {
        "gt": [(f, oid, p) for oid, path in _TIE_GT.items() for f, p in enumerate(path)],
        "pred": [(f, oid, p) for oid, per in _TIE_PRED.items() for f, p in per.items()],
    }
    reports = []
    for order in (list, sorted):
        for kind, recs in records.items():
            (tmp_path / f"{kind}.jsonl").write_text("".join(
                json.dumps({"frame": f, "object_id": oid, "position": p}) + "\n"
                for f, oid, p in order(recs)
            ))
        argv = ["evaluate", "--pred", str(tmp_path / "pred.jsonl"), "--gt", str(tmp_path / "gt.jsonl")]
        assert main(argv) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert json.loads(reports[0].out)["ids"] == 1


def _float_fields(cls) -> list[str]:
    """The fields of a config dataclass that hold floats, alone or in a
    tuple."""
    return [f.name for f in fields(cls) if "float" in str(f.type)]


@pytest.mark.parametrize("value", ["Infinity", "NaN"])
@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls in (RunConfig, SceneSpec) for name in _float_fields(cls)],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_nonfinite_config_and_spec_numbers_are_exit_2(scene_dir, tmp_path, capsys, cls, name, value):
    # JSON admits Infinity and NaN; as a config or scene number either is
    # bad input naming the field, never a traceback or an empty run.
    default = getattr(cls(), name)
    if isinstance(default, tuple):
        value = "[" + ", ".join([value] + [repr(float(v)) for v in default[1:]]) + "]"
    path = tmp_path / "doc.json"
    path.write_text(f'{{"{name}": {value}}}')
    if cls is RunConfig:
        argv = _annotate_argv(scene_dir, tmp_path, "--config", str(path))
    else:
        argv = ["synth", "--out", str(tmp_path / "scene"), "--spec", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {name} must be finite" in err
    assert "Traceback" not in err


_OCCLUSION = {"camera_id": 0, "start": 0, "stop": 1}


@pytest.mark.parametrize("command, doc, name", [
    ("annotate", {"alpha": "x"}, "alpha"),
    ("annotate", {"alpha": True}, "alpha"),
    ("annotate", {"ospa_window": 2.5}, "ospa_window"),
    ("annotate", {"ap_thresholds": [25.0, False]}, "ap_thresholds"),
    ("annotate", {"plane": 1}, "plane"),
    ("synth", {"num_objects": "3"}, "num_objects"),
    ("synth", {"frames": 4.0}, "frames"),
    ("synth", {"arena": 12.0}, "arena"),
    ("synth", {"occlusions": 5}, "occlusions"),
    ("synth", {"image_size": [1920]}, "image_size"),
    ("synth", {"image_size": [1920, 1080, 7]}, "image_size"),
    ("synth", {"occlusions": [{**_OCCLUSION, "camera_id": "x"}]}, "camera_id"),
    ("synth", {"occlusions": [{**_OCCLUSION, "start": 0.7}]}, "start"),
    ("synth", {"occlusions": [{**_OCCLUSION, "object_id": True}]}, "object_id"),
])
def test_mistyped_config_and_spec_fields_are_exit_2(scene_dir, tmp_path, capsys, command, doc, name):
    # A number field takes an int or a float, an integer field an int; a
    # string, a bool or a fraction is refused naming the field, never
    # coerced and never a traceback.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "annotate":
        argv = _annotate_argv(scene_dir, tmp_path, "--config", str(path))
    else:
        argv = ["synth", "--out", str(tmp_path / "scene"), "--spec", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {name} must be " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, doc, message", [
    ("annotate", {"dt": -1}, "dt must be positive, got -1"),
    ("synth", {"occlusions": [5]}, "each occlusion must be an object"),
], ids=["config", "spec"])
def test_refused_file_value_names_the_file(scene_dir, tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "annotate":
        argv = _annotate_argv(scene_dir, tmp_path, "--config", str(path))
    else:
        argv = ["synth", "--out", str(tmp_path / "scene"), "--spec", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]


@pytest.mark.parametrize("command, doc, flag", [
    ("evaluate", {"threshold": 1.0}, ["--threshold", "-1"]),
    ("synth", {"frames": 5}, ["--fps", "-1"]),
], ids=["config", "spec"])
def test_refused_flag_over_a_good_file_keeps_its_message(
    scene_dir, fused_tracks, tmp_path, capsys, command, doc, flag
):
    # The flag, not the file, is at fault: the message is the one the flag
    # gets with no file at all.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = _command_argv(command, scene_dir, fused_tracks, tmp_path) + flag
    assert main(argv) == 2
    alone = capsys.readouterr().err
    assert main(argv + ["--spec" if command == "synth" else "--config", str(path)]) == 2
    assert capsys.readouterr().err == alone
    assert str(path) not in alone and alone.startswith("error: ")


@pytest.mark.parametrize("doc, name", [
    ({"kappa": -20}, "kappa"),
    ({"alpha": 1e-200}, "alpha"),
    ({"alpha": 1e200}, "alpha"),
    ({"dt": 1e308}, "dt"),
    ({"q_pos": 1e308}, "q_pos"),
    ({"q_shape": 1e308}, "q_shape"),
    ({"init_pos_var": 1e308}, "init_pos_var"),
    ({"init_keypoint_vel_var": 1e308, "skeleton": "panoptic15"}, "init_keypoint_vel_var"),
    # Julier's kappa = 3 - n for the 9-dim box state leaves the 6-dim
    # keypoint state no sigma points.
    ({"kappa": -6, "skeleton": "panoptic15"}, "kappa"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_config_that_gives_no_filter_is_exit_2(scene_dir, tmp_path, capsys, doc, name):
    # Each value passes RunConfig on its own, but no motion model, sigma
    # points or birth belief can be built from it: annotate refuses it,
    # naming the field, writes no tracks and prints no traceback.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(_annotate_argv(scene_dir, tmp_path, "--config", str(path))) == 2
    err = capsys.readouterr().err
    assert name in err.split("error: ", 1)[1]
    assert "Traceback" not in err
    assert not (tmp_path / "t.jsonl").exists()


def test_box_only_run_fuses_with_julier_kappa(scene_dir, tmp_path, capsys):
    # kappa = -6 gives the 9-dim box state a positive sigma scale; without a
    # skeleton no keypoint state is filtered, so the boxes still fuse.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kappa": -6}))
    assert main(_annotate_argv(scene_dir, tmp_path, "--config", str(path))) == 0
    assert len(load_tracks(tmp_path / "t.jsonl")) > 0


_HOOK_TARGETS = """
import sys
sys.path[:0] = sys.argv[1:3]
import trace_child
rec = trace_child.Recorder()
trace_child.install(rec, "full")
print(rec.absent)
"""


def test_every_benchmark_hook_target_exists():
    # The benchmark's tracer rebinds module attributes by name; a renamed
    # one would silently drop the per-layer metrics that need it.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _HOOK_TARGETS, str(root / "bench"), str(root / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _traced_span_counts(argv, tmp_path) -> dict[str, int]:
    """Run ``mvfuse argv`` under the benchmark's full tracer; the span count
    of each traced name. No hook target may be absent."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.npz"
    env = {**os.environ, "PYTHONPATH": str(Path(mvfuse.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "trace_child.py"), str(spans), "full", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(spans) as z:
        names = [str(n) for n in z["names"]]
        counts = np.bincount(z["name_id"], minlength=len(names))
        assert z["absent"].tolist() == []
    return dict(zip(names, counts.tolist()))


def test_traced_annotate_records_every_fusion_span(scene_dir, tmp_path):
    # The tracer's hooks only see calls that look their target up at call
    # time; a caller that binds a hooked name early would leave that layer's
    # spans, and the per-layer metrics built on them, at zero.
    argv = _annotate_argv(scene_dir, tmp_path, "--config", str(scene_dir / "config.json"))
    counts = _traced_span_counts(argv, tmp_path)
    for name in (
        "tracker.box_update", "pose.kp_update", "tracker.predict", "pose.predict_keypoints",
        "geometry.box_measure", "geometry.project_point", "filter.sigma_points",
    ):
        assert counts.get(name, 0) > 0, name


def _command_argv(command, scene_dir, fused_tracks, tmp_path) -> list[str]:
    """A small run of ``command`` on the module's scene."""
    return {
        "synth": ["synth", "--out", str(tmp_path / "scene"), "--seed", "5", "--objects", "2",
                  "--cameras", "3", "--frames", "10", "--skeleton", "panoptic15"],
        "annotate": _annotate_argv(scene_dir, tmp_path, "--config", str(scene_dir / "config.json")),
        "evaluate": ["evaluate", "--pred", str(fused_tracks), "--gt", str(scene_dir / "gt_tracks.jsonl")],
    }.get(command, [command])


@pytest.mark.parametrize("command, roots", [
    ("synth", ("synth.generate", "io.save_annotations", "io.save_tracks")),
    ("annotate", ("io.load_scene", "tracker.run_all", "io.save_tracks")),
    ("evaluate", ("io.load_tracks", "metrics.evaluate_tracks")),
])
def test_traced_command_records_its_stage_roots(scene_dir, fused_tracks, tmp_path, command, roots):
    # The stage roots are hooked on the cli module, which loads each stage
    # when its command runs: the command must call what the tracer bound.
    counts = _traced_span_counts(_command_argv(command, scene_dir, fused_tracks, tmp_path), tmp_path)
    for name in roots:
        assert counts.get(name, 0) > 0, name


def test_runtime_failure_is_exit_1(scene_dir, tmp_path, capsys, monkeypatch):
    # A stage that fails at run time (not bad input): exit 1, one error line.
    def fail(*args, **kwargs):
        raise FilterError("planted filter failure")

    monkeypatch.setitem(vars(cli), "run_all", fail)
    assert main(_annotate_argv(scene_dir, tmp_path)) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: planted filter failure"
    ]
    assert "Traceback" not in err
    assert not (tmp_path / "t.jsonl").exists()


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "mvfuse" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


_STAGES_IN_ONE_PROCESS = """
import contextlib, io, json, sys
import mvfuse
from mvfuse import metrics
from mvfuse.cli import main

d = sys.argv[1]
out = {"solver_attribute": callable(metrics.linear_sum_assignment), "rc": {}}
loaded = out["scipy_loaded"] = {"import": "scipy" in sys.modules}
out["rc"]["synth"] = main(["synth", "--out", d, "--seed", "5", "--objects", "2", "--cameras", "3",
                           "--frames", "10", "--skeleton", "panoptic15"])
loaded["synth"] = "scipy" in sys.modules
out["rc"]["annotate"] = main(["annotate", "--calibration", d + "/calibration.json",
                              "--annotations", d + "/annotations.jsonl",
                              "--config", d + "/config.json", "--out", d + "/tracks.jsonl"])
loaded["annotate"] = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as report:
    out["rc"]["evaluate"] = main(["evaluate", "--pred", d + "/tracks.jsonl",
                                  "--gt", d + "/gt_tracks.jsonl"])
loaded["evaluate"] = "scipy" in sys.modules
out["report"] = report.getvalue()
with open(d + "/result.json", "w") as fh:
    json.dump(out, fh)
"""


def test_no_command_loads_scipy(tmp_path, capsys, monkeypatch):
    # mvfuse solves its assignments itself: import, synth, annotate and
    # evaluate run without loading scipy.
    env = {**os.environ, "PYTHONPATH": str(Path(mvfuse.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _STAGES_IN_ONE_PROCESS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["solver_attribute"]
    assert result["rc"] == {"synth": 0, "annotate": 0, "evaluate": 0}
    assert result["scipy_loaded"] == {
        "import": False, "synth": False, "annotate": False, "evaluate": False
    }
    # The report equals the one scored with scipy's solver patched in.
    scipy_optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(metrics, "linear_sum_assignment", scipy_optimize.linear_sum_assignment)
    pred, gt = tmp_path / "tracks.jsonl", tmp_path / "gt_tracks.jsonl"
    assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 0
    assert capsys.readouterr().out == result["report"]


_LOADED_MODULES = """
import json, sys
out, argv = sys.argv[1], sys.argv[2:]
if argv:
    from mvfuse.cli import main
    try:
        main(argv)
    except SystemExit:  # --version and --help exit from the parser
        pass
else:
    import mvfuse
with open(out, "w") as fh:
    json.dump(sorted(m for m in sys.modules if m.split(".")[0] in ("mvfuse", "numpy", "orjson", "logging")), fh)
"""


@pytest.mark.parametrize("command, not_loaded", [
    ("import", ("numpy", "orjson", "mvfuse.cli", "mvfuse.errors", "logging")),
    ("--version", ("numpy", "orjson", "logging")),
    ("--help", ("numpy", "orjson", "logging")),
    ("synth", ("mvfuse.tracker", "mvfuse.metrics")),
    ("annotate", ("mvfuse.synth", "mvfuse.metrics")),
    ("evaluate", ("mvfuse.synth", "mvfuse.tracker", "mvfuse.filter", "logging")),
])
def test_each_command_loads_only_its_layers(scene_dir, fused_tracks, tmp_path, command, not_loaded):
    # Importing mvfuse loads none of its modules, and the cli loads a
    # command's stages when that command runs; no command loads numpy.ma,
    # which numpy's set operations import unless given a return flag.
    # Neither numpy nor orjson is loaded before a command needs a file, and
    # only annotate, the one command that logs, loads logging.
    argv = [] if command == "import" else _command_argv(command, scene_dir, fused_tracks, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(mvfuse.__file__).parents[1])}
    result = tmp_path / "loaded.json"
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, str(result), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(result.read_text())
    assert "Traceback" not in proc.stderr
    assert "mvfuse" in loaded and "numpy.ma" not in loaded
    assert not set(not_loaded) & set(loaded)
    if command == "annotate":
        assert "logging" in loaded
    if command in ("import", "--version", "--help"):
        assert {m for m in loaded if m.startswith("mvfuse.")} <= {"mvfuse.cli", "mvfuse.errors"}


def test_python_m_mvfuse_runs_the_cli():
    # From a plain checkout, with src/ on the path; --version loads no numpy.
    env = {**os.environ, "PYTHONPATH": str(Path(mvfuse.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "mvfuse", "--version"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"mvfuse {mvfuse.__version__}"
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "mvfuse.cli" in imported and "numpy" not in imported


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("ok", [True, False])
@pytest.mark.parametrize("command", ["synth", "annotate", "evaluate"])
def test_main_with_argv_leaves_the_collector_as_it_found_it(
    scene_dir, fused_tracks, tmp_path, capsys, command, ok, enabled
):
    # The stages load with the collector paused, and an explicit argv is
    # not the process's own command line, so main never freezes.
    argv = _command_argv(command, scene_dir, fused_tracks, tmp_path)
    if not ok:  # an input file that does not exist: exit 2
        argv += [{"synth": "--spec", "annotate": "--calibration", "evaluate": "--pred"}[command],
                 str(tmp_path / "missing.json")]
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == (0 if ok else 2)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


_OWN_COMMAND_LINE = """
import atexit, gc, json, sys
out = sys.argv.pop(1)
passes = []  # one per collector pass: (numpy loaded, objects frozen)

def on_pass(phase, info):
    if phase == "start":
        passes.append(("numpy" in sys.modules, gc.get_freeze_count()))

def report():
    gc.callbacks.remove(on_pass)
    with open(out, "w") as fh:
        json.dump({"passes": passes, "frozen": gc.get_freeze_count()}, fh)

gc.callbacks.append(on_pass)
atexit.register(report)
from mvfuse.cli import main
sys.exit(main())
"""


def _run_own_command_line(argv, tmp_path) -> tuple[subprocess.CompletedProcess, dict]:
    """``sys.exit(main())`` in a fresh interpreter with ``argv`` as its
    command line, and the collector passes and freeze count it saw."""
    env = {**os.environ, "PYTHONPATH": str(Path(mvfuse.__file__).parents[1])}
    result = tmp_path / "collector.json"
    proc = subprocess.run(
        [sys.executable, "-c", _OWN_COMMAND_LINE, str(result), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc, json.loads(result.read_text())


@pytest.mark.parametrize("command", ["synth", "annotate", "evaluate"])
def test_main_owning_the_process_freezes_after_the_stage_imports(
    scene_dir, fused_tracks, tmp_path, capsys, command
):
    # No command module loads numpy before the stages do, so a pass with
    # numpy loaded and nothing frozen would run during the stage imports.
    own, here = tmp_path / "own", tmp_path / "here"
    own.mkdir(), here.mkdir()
    proc, seen = _run_own_command_line(_command_argv(command, scene_dir, fused_tracks, own), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert seen["frozen"] > 0
    assert [p for p in seen["passes"] if p == [True, 0]] == []
    # the same bytes as the same command run in-process
    assert main(_command_argv(command, scene_dir, fused_tracks, here)) == 0
    assert proc.stdout == capsys.readouterr().out
    written = sorted(p.relative_to(own) for p in own.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
    for name in written:
        assert (own / name).read_bytes() == (here / name).read_bytes(), name


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_never_freeze(tmp_path, flag):
    proc, seen = _run_own_command_line([flag], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert seen["frozen"] == 0


def test_every_public_name_resolves_to_its_module():
    # Lazy exports: each name of __all__ is importable, and each one a
    # module defines is that module's object.
    import importlib

    for name in mvfuse.__all__:
        value = getattr(mvfuse, name)
        module = mvfuse._EXPORTS.get(name)
        if module is None:
            assert value is importlib.import_module(f"mvfuse.{name}")
        else:
            assert value is getattr(importlib.import_module(f"mvfuse.{module}"), name)
    assert set(mvfuse.__all__) <= set(dir(mvfuse))
    with pytest.raises(AttributeError):
        mvfuse.no_such_name
