"""Benchmark of mvfuse's three CLI stages: synth -> annotate -> evaluate.

Run from the root of an mvfuse checkout:

    python3 bench/run.py --workload boxes --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``boxes``, ``sparse``,
``pose`` and ``evaluate``.  Every subcommand runs as a child process of this
one, on the source tree in ./src, one child at a time; nothing under src/ is
modified.  Scratch files go to ./.bench_work/<workload>/.

``--trace 0`` times the stages.  It first starts ``mvfuse --version`` several
times (``setup_s``: interpreter start-up plus ``import mvfuse``), then
repeats the whole pipeline until ``--seconds`` are used up, starting another
pass only if it is expected to finish in time; the first pass always runs.
Every pass is checked for correctness.

This process and its children are pinned to one CPU, and the times are
host-normalised.  On a shared 2-vCPU KVM guest (Xeon, Sapphire Rapids) the
speed of one vCPU changed by up to 2x within minutes and by a third from
one second to the next, as other tenants came and went, with no steal time
reported; the two vCPUs' per-second speeds were uncorrelated.  So while a
child runs, this process times a fixed chunk of work on the same CPU every
20 ms (``Runner``) and rescales the child's CPU time by the chunks' mean
CPU time to the chunk's nominal speed (``PROBE_NOMINAL_S``, its time when
the host ran at full speed).  Each stage time is the median over passes of
its rescaled child times; the unscaled wall time (``pipeline_wall_s``, less
the chunks) and the median slowdown of the chunk (``host_slowdown``) are
printed beside them.  ``--trace 1`` runs no probe.

``--trace 1`` runs the pipeline once with every layer traced from outside
(trace_child.py) and reports the per-layer metrics (layers.py).

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (subcommand runs, and those that exited non-zero or produced
output that failed the workload's check) and ``metrics``.  The lines before
it print every metric by name with its unit, and the machine the run was
made on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
MVFUSE = [sys.executable, "-c", "import sys; from mvfuse.cli import main; sys.exit(main())"]
TRACED = [sys.executable, str(BENCH_DIR / "trace_child.py")]
SETUP_REPS = 5
RUN_LIMIT_S = 170.0  # every run ends within 180 s; children are killed at this point
PROBE_GAP_S = 0.02
# A probe chunk's CPU time on a quiet host (2-vCPU Xeon KVM guest, Python
# 3.11, numpy 2.4); host-normalised times are in seconds at that speed.
PROBE_NOMINAL_S = 0.002

# (name, unit): every end-to-end metric the table prints.
END_TO_END = (
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("annotate_s", "s"),
    ("evaluate_s", "s"),
    ("pipeline_s", "s"),
    ("pipeline_wall_s", "s"),
    ("host_slowdown", "x"),
    ("peak_rss_mb", "MB"),
    ("ospa2_m", "m"),
    ("mota", "%"),
    ("idf1", "%"),
    ("mpjpe_mm", "mm"),
    ("pos_err_mean_m", "m"),
    ("skipped_updates_frac", "frac"),
    ("failed_frac", "frac"),
)
# The ones reported in the result and bounded in BENCHMARK.json.  The rest
# are missing on some workload (no fusion, no keypoints), can be 0 or near 0
# (noiseless scenes), so that a ratio to their median means nothing, or are
# single stages, which spread more between runs than the whole pipeline; they
# are printed, and the workload checks gate the accuracy figures.
GATED = ("setup_s", "pipeline_s", "peak_rss_mb", "mota")


@dataclass
class Child:
    returncode: int
    wall_s: float  # less the CPU time the probe chunks took meanwhile
    cpu_s: float  # user + system time of the child
    peak_rss_mb: float
    stdout: str
    stderr: str
    probe_s: float  # mean CPU time of one probe chunk while the child ran

    @property
    def norm_s(self) -> float:
        """The CPU time rescaled to the probe's nominal speed."""
        return self.cpu_s * PROBE_NOMINAL_S / self.probe_s


_PROBE_A = np.random.default_rng(0).random((13, 13))
_PROBE_SPD = _PROBE_A @ _PROBE_A.T + 13.0 * np.eye(13)


def _probe_chunk() -> None:
    """A fixed mix of the kinds of work the subcommands do: interpreted
    arithmetic, 13 x 13 linear algebra, numpy calls on 3-vectors, building
    and sorting a dict, and a JSON round trip; about 2 ms on a quiet host.

    Over 10 runs of each workload on a busy host, rescaling by the chunks
    timed while each child ran left a quartile spread of ``pipeline_s`` of
    0.02-0.08 of the median, against 0.06-0.37 for the unscaled wall time.
    Timing such chunks only before and after each child left about twice
    the spread of single child times, and any one of the five kinds of work
    alone did worse than the mix.
    """
    total = 0.0
    for i in range(1600):
        total += (i * 7) % 5 * 0.5
    for _ in range(32):
        (_PROBE_A @ np.linalg.cholesky(_PROBE_SPD)).sum()
    for i in range(120):
        v = np.array([1.0, 2.0, float(i)])
        float((v * 2.0 + v) @ v)
    d = {i: [i, str(i)] for i in range(2400)}
    sorted(d, key=lambda k: -k)
    json.loads(json.dumps([{"frame": i, "p": [i * 0.1, 2.0, 3.0]} for i in range(240)]))


def _time_probe() -> float:
    t0 = time.thread_time()
    _probe_chunk()
    return time.thread_time() - t0


class Runner:
    """Starts one child at a time and records what each cost.

    With ``probe``, this process, on the child's CPU, times one probe chunk
    every ``PROBE_GAP_S`` while the child runs.  Both sides are CPU times:
    the chunk's own, so the child preempting a chunk does not count, and the
    child's user + system time, so the chunks (about a tenth of the CPU)
    and anything else sharing the CPU do not count against the child.
    """

    def __init__(self, root: Path, work: Path, started: float, probe: bool):
        self.work = work
        self.started = started
        self.probe = probe
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env["MVFUSE_LOG"] = "WARNING"
        self.children: list[Child] = []

    def run(self, argv: list[str]) -> Child:
        out_path = self.work / "child.stdout"
        err_path = self.work / "child.stderr"
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        probes: list[float] = []
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    start_new_session=True)
            killer = threading.Timer(timeout, _kill, (proc.pid,))
            killer.start()
            pidfd = os.pidfd_open(proc.pid)
            try:
                # the pidfd turns readable when the child exits
                while self.probe and not select.select([pidfd], [], [], PROBE_GAP_S)[0]:
                    probes.append(_time_probe())
                # wait4 rather than Popen.wait: it returns this child's own rusage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
                os.close(pidfd)
            wall = time.perf_counter() - t0 - sum(probes)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not probes:  # no probe, or a child quicker than one gap
            probes.append(_time_probe())
        child = Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text(),
                      statistics.fmean(probes))
        self.children.append(child)
        return child


def _kill(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment(root: Path, seed: int) -> dict:
    """What the result was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"  # a checkout without .git, as when the files are copied out
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": ver("numpy"), "scipy": ver("scipy"), "commit": commit, "seed": seed}


class Pipeline:
    """One workload's files and the subcommand line of each stage."""

    def __init__(self, workload: workloads.Workload, work: Path, seed: int):
        self.workload = workload
        self.seed = seed
        self.scene = work / "scene"
        self.spec = work / "spec.json"
        self.config = work / "config.json"
        self.tracks = work / "tracks.jsonl"
        self.planted_path = work / "planted.jsonl"
        self.gt = self.scene / "gt_tracks.jsonl"
        self.spec.write_text(json.dumps(workload.spec, indent=1))
        self.config.write_text(json.dumps(workload.config, indent=1))
        self.planted: workloads.Planted | None = None
        self.main_stage = "annotate" if "annotate" in workload.stages else "evaluate"

    @property
    def pred(self) -> Path:
        return self.tracks if "annotate" in self.workload.stages else self.planted_path

    def args(self, stage: str) -> list[str]:
        if stage == "synth":
            return ["synth", "--out", str(self.scene), "--spec", str(self.spec)]
        if stage == "annotate":
            return ["annotate", "--calibration", str(self.scene / "calibration.json"),
                    "--annotations", str(self.scene / "annotations.jsonl"),
                    "--config", str(self.config), "--out", str(self.tracks)]
        return ["evaluate", "--pred", str(self.pred), "--gt", str(self.gt)]

    def after(self, stage: str) -> None:
        if stage == "synth" and self.workload.name == "evaluate" and self.planted is None:
            self.planted = workloads.plant_predictions(self.gt, self.planted_path, self.seed)

    def reads(self, stage: str) -> list[Path]:
        if stage == "annotate":
            return [self.scene / "calibration.json", self.scene / "annotations.jsonl", self.config]
        if stage == "evaluate":
            return [self.pred, self.gt]
        return [self.spec]

    def writes(self, stage: str) -> list[Path]:
        if stage == "synth":
            return sorted(self.scene.iterdir())
        return [self.tracks] if stage == "annotate" else []


@dataclass
class Pass:
    """One run of the whole pipeline."""

    children: dict[str, Child]
    failures: list[str]
    report: dict | None = None


def run_pass(runner: Runner, pipe: Pipeline, command, stages: tuple[str, ...], digests: dict) -> Pass:
    """Run ``stages`` once each; stop at the first one that exits non-zero.

    ``digests`` holds each output file's hash from the first pass; a later
    pass that writes different bytes from the same inputs is a failure.
    """
    done = Pass({}, [])
    for stage in stages:
        child = runner.run(command(stage) + pipe.args(stage))
        done.children[stage] = child
        if child.returncode != 0:
            tail = child.stderr.strip().splitlines()[-1:] or ["(no output)"]
            done.failures.append(f"{stage} exited {child.returncode}: {tail[0]}")
            return done
        pipe.after(stage)
        for path in pipe.writes(stage):
            digest = sha256(path)
            if digests.setdefault(path.name, digest) != digest:
                done.failures.append(f"{stage} wrote different bytes to {path.name} from the same input")
    try:
        done.report = json.loads(done.children["evaluate"].stdout)
    except json.JSONDecodeError as exc:
        done.failures.append(f"evaluate printed no JSON report: {exc}")
        return done
    done.failures += workloads.check(pipe.workload, done.report, pipe.pred, pipe.gt, pipe.planted)
    return done


def count_failed(runner: Runner, passes: list[Pass]) -> int:
    """Subcommand runs that exited non-zero, plus one per pass whose
    subcommands all exited 0 but whose outputs failed the check."""
    crashed = sum(1 for c in runner.children if c.returncode != 0)
    wrong = sum(1 for p in passes
                if p.failures and all(c.returncode == 0 for c in p.children.values()))
    return crashed + wrong


def timed(runner: Runner, pipe: Pipeline, seconds: float) -> tuple[dict, dict, list[Pass]]:
    runner.run(MVFUSE + ["--version"])  # warm-up: compiles the .pyc files
    setup = []
    for _ in range(SETUP_REPS):
        child = runner.run(MVFUSE + ["--version"])
        if child.returncode == 0:
            setup.append(child)
    deadline = time.monotonic() + seconds
    digests: dict = {}
    passes: list[Pass] = []
    pass_times: list[float] = []
    while not passes or time.monotonic() + statistics.median(pass_times) <= deadline:
        t0 = time.monotonic()
        passes.append(run_pass(runner, pipe, lambda stage: MVFUSE, pipe.workload.stages, digests))
        pass_times.append(time.monotonic() - t0)
        if time.monotonic() - runner.started > RUN_LIMIT_S / 2:
            break

    good = [p for p in passes if not p.failures]
    values: dict = {}
    if setup:
        values["setup_s"] = statistics.median(c.norm_s for c in setup)
    for stage in pipe.workload.stages:
        samples = [p.children[stage] for p in good]
        if samples:
            values[f"{stage}_s"] = statistics.median(c.norm_s for c in samples)
    if good:
        values["pipeline_s"] = sum(values[f"{s}_s"] for s in pipe.workload.stages)
        values["pipeline_wall_s"] = sum(statistics.median(p.children[s].wall_s for p in good)
                                        for s in pipe.workload.stages)
        values.update(accuracy(pipe, good[0]))
    values["host_slowdown"] = statistics.median(c.probe_s for c in runner.children) / PROBE_NOMINAL_S
    values["peak_rss_mb"] = max(c.peak_rss_mb for c in runner.children)
    values["failed_frac"] = count_failed(runner, passes) / len(runner.children)
    info = {"passes": len(passes),
            "setup_samples": [(c.wall_s, c.cpu_s, c.probe_s) for c in setup],
            "stage_samples": {s: [(p.children[s].wall_s, p.children[s].cpu_s, p.children[s].probe_s)
                                  for p in passes if s in p.children]
                              for s in pipe.workload.stages}}
    return values, info, passes


def accuracy(pipe: Pipeline, done: Pass) -> dict:
    report = done.report
    out = {"ospa2_m": report["ospa2"], "mota": report["mota"], "idf1": report["idf1"]}
    if report.get("pose"):
        out["mpjpe_mm"] = report["pose"]["mpjpe_mm"]
    mapping = pipe.planted.pred_to_gt if pipe.planted else None
    out["pos_err_mean_m"] = workloads.mean_position_error(pipe.pred, pipe.gt, mapping)
    if "annotate" in done.children:
        boxes = workloads.input_counts(pipe.scene / "annotations.jsonl")["box_updates"]
        out["skipped_updates_frac"] = skipped_updates(done.children["annotate"]) / boxes
    return out


def skipped_updates(annotate: Child) -> int:
    """Box updates the CLI reported as skipped (one WARNING line each)."""
    return annotate.stderr.count("WARNING mvfuse: update_skipped:")


def traced(runner: Runner, pipe: Pipeline) -> tuple[dict, dict, list[Pass]]:
    spans_dir = runner.work / "spans"
    spans_dir.mkdir()

    def command(stage: str, mode: str = "full") -> list[str]:
        return TRACED + [str(spans_dir / f"{stage}-{mode}.npz"), mode]

    # Generate the scene, run the main stage with only its root hooked, then
    # the remaining stages with every hook; the two main-stage runs give the
    # tracing overhead, and must write the same bytes.
    digests: dict = {}
    synth = runner.run(command("synth") + pipe.args("synth"))
    if synth.returncode != 0:
        return {}, {"passes": 1}, [Pass({"synth": synth}, [f"synth exited {synth.returncode}"])]
    pipe.after("synth")
    light = runner.run(command(pipe.main_stage, "stage") + pipe.args(pipe.main_stage))
    if light.returncode == 0:
        for path in pipe.writes(pipe.main_stage):
            digests[path.name] = sha256(path)
    done = run_pass(runner, pipe, command, pipe.workload.stages[1:], digests)
    if light.returncode != 0:
        done.failures.append(f"{pipe.main_stage} exited {light.returncode} with only its root traced")
    info: dict = {"passes": 1}
    if done.failures:
        return {}, info, [done]

    fused = "annotate" in pipe.workload.stages
    inputs = workloads.input_counts(pipe.scene / "annotations.jsonl")
    counts = {
        "box_updates": inputs["box_updates"] if fused else 0,
        "kp_updates": inputs["kp_updates"] if fused and pipe.workload.config.get("skeleton") else 0,
        "box_updates_skipped": skipped_updates(done.children["annotate"]) if fused else 0,
        "bytes_read": sum(p.stat().st_size for s in pipe.workload.stages for p in pipe.reads(s)),
        "bytes_written": sum(p.stat().st_size for s in pipe.workload.stages for p in pipe.writes(s)),
    }
    stages = {s: layers.Spans(spans_dir / f"{s}-full.npz") for s in pipe.workload.stages}
    light_spans = layers.Spans(spans_dir / f"{pipe.main_stage}-stage.npz")
    values, absent = layers.compute(stages, light_spans, pipe.main_stage, counts)
    info["absent"] = absent
    return values, info, [done]


def table(values: dict, units: dict, notes: dict) -> list[str]:
    """One line per metric: name, value (n/a where not measured), unit."""
    lines = []
    for name, unit in units.items():
        v = values.get(name)
        text = "n/a" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)
        lines.append(f"  {name:<44} {text:>14} {unit:<6} {notes.get(name, '')}".rstrip())
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    # one CPU for this process and every child it starts; see the docstring
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "mvfuse" / "__init__.py").is_file():
        print(f"error: {root} holds no src/mvfuse; run from the root of an mvfuse checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = workloads.make(args.workload, args.seed)
    pipe = Pipeline(workload, work, args.seed)
    runner = Runner(root, work, started, probe=not args.trace)
    if args.trace:
        values, info, passes = traced(runner, pipe)
        wanted = {m.name: m.unit for m in layers.PER_LAYER}
        reported = wanted
        notes = {m.name: f"moves {m.moves}" for m in layers.PER_LAYER}
    else:
        values, info, passes = timed(runner, pipe, args.seconds)
        wanted = dict(END_TO_END)
        reported = {name: wanted[name] for name in GATED}
        notes = {}
    failures = [f for p in passes for f in p.failures]
    attempted = len(runner.children)
    failed = count_failed(runner, passes)
    env = environment(root, args.seed)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {info['passes']} pass(es), {attempted} subcommand runs, {failed} failed")
    for f in failures:
        print(f"  FAILED: {f}")
    print("\n".join(table(values, wanted, notes)))
    if info.get("absent"):
        print(f"  absent (hook target gone): {', '.join(info['absent'])}")
    print(f"env {json.dumps(env)}")
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in reported.items() if k in values},
    }
    (work / "result.json").write_text(json.dumps({**result, "all": values, "env": env, "info": info}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
