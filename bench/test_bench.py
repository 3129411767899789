"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py

They run the benchmark on the ``pose`` workload, about a minute in all.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import layers
import run
import trace_child
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_counts_repeat_exactly_with_the_same_seed():
    args = ("--workload", "pose", "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = (_result(_bench(ROOT, *args)) for _ in range(2))
    assert first["correct"] and second["correct"]
    exact = [m.name for m in layers.PER_LAYER if m.unit in ("count", "bytes")]
    assert set(exact) <= set(first["metrics"])
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["pose.kp_updates"]["value"] > 0


def test_timed_run_reports_every_gated_metric():
    result = _result(_bench(ROOT, "--workload", "pose", "--seed", "7", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    gated = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(gated)
    assert all(result["metrics"][n]["value"] > 0 for n in gated)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "boxes", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.make(w["name"], 0).why
    units = dict(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert units[m["name"]] == m["unit"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)


def test_missing_hook_targets_make_their_metrics_absent(tmp_path):
    rec = trace_child.Recorder()
    rec.hook(types.SimpleNamespace(), "sigma_points", "filter.sigma_points")
    rec.wrap("cli.main", rec.wrap("tracker.run_all", lambda: None))()
    rec.save(str(tmp_path / "spans.npz"))
    spans = layers.Spans(tmp_path / "spans.npz")
    counts = dict.fromkeys(("box_updates", "kp_updates", "box_updates_skipped", "bytes_read",
                            "bytes_written"), 1)
    values, absent = layers.compute({"annotate": spans, "evaluate": spans}, spans, "annotate", counts)
    assert set(absent) == {m.name for m in layers.PER_LAYER if "filter.sigma_points" in m.spans}
    assert set(values) == {m.name for m in layers.PER_LAYER} - set(absent)
    assert values["tracker.run_all_s"] > 0


def test_child_time_is_rescaled_by_the_probe_taken_while_it_ran(tmp_path):
    runner = run.Runner(ROOT, tmp_path, started=time.monotonic(), probe=True)
    child = runner.run([sys.executable, "-c", "sum(i * i for i in range(3_000_000))"])
    assert child.returncode == 0
    assert child.cpu_s > 0 and child.probe_s > 0
    assert child.norm_s == child.cpu_s * run.PROBE_NOMINAL_S / child.probe_s
