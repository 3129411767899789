"""CLI tests driving ``main(argv)`` in-process."""

import json

import pytest

from mvfuse import load_tracks
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

    def test_unknown_spec_key_is_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"objects": 3}))
        assert main(["synth", "--out", str(tmp_path / "o"), "--spec", str(spec)]) == 2


class TestAnnotate:
    def test_tracks_cover_ground_truth(self, scene_dir, fused_tracks):
        pred = load_tracks(fused_tracks)
        gt = load_tracks(scene_dir / "gt_tracks.jsonl")
        assert sorted(pred.positions) == sorted(gt.positions)
        # Skeleton came from the config, so fused tracks carry 3D keypoints.
        assert sorted(pred.keypoints) == sorted(gt.keypoints)

    def test_workers_flag_reproduces_serial_output(
        self, scene_dir, fused_tracks, tmp_path, capsys
    ):
        out = tmp_path / "tracks2.jsonl"
        rc = main(
            [
                "annotate",
                "--calibration",
                str(scene_dir / "calibration.json"),
                "--annotations",
                str(scene_dir / "annotations.jsonl"),
                "--config",
                str(scene_dir / "config.json"),
                "--workers",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == fused_tracks.read_bytes()

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
