"""Run one ``mvfuse`` command in this process with its layers traced.

    python3 bench/trace_child.py SPANS.npz {full,stage} <mvfuse arguments...>

The hooks rebind, in this process only, the module attributes that mvfuse's
callers look up at call time (``tracker.ukf_update``, ``filter.sigma_points``,
``GaussianBelief.__post_init__``, ...) to wrappers that record one span per
call: name, start, end, parent span and whether the call raised.  ``stage``
hooks only the command's main stage (fusion, scoring or generation), so
comparing its duration with the ``full`` run gives the tracing overhead.

Spans stay in memory and are written to SPANS.npz when the command returns,
together with the names of hook targets that no longer exist; the layer
metrics that depend on those are reported as absent.  The exit code is the
command's.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np


class Recorder:
    """Spans in parallel arrays; index order is start order, so a parent
    always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.absent: list[str] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, raised, stack = (
            self.name_id, self.start, self.end, self.parent, self.raised, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def hook(self, owner, attr: str, name: str, factory: bool = False) -> None:
        """Rebind ``owner.attr`` to a traced wrapper.  With ``factory`` the
        callables that ``owner.attr`` returns are traced instead."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(name)
            return
        if factory:
            def make(*args, **kwargs):
                return self.wrap(name, orig(*args, **kwargs))

            setattr(owner, attr, make)
        else:
            setattr(owner, attr, self.wrap(name, orig))

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            absent=np.array(self.absent, dtype=str),
        )


def install(rec: Recorder, mode: str) -> None:
    from mvfuse import cli, filter, io, metrics, pose, tracker

    # the stage roots: what cli.main calls for each command
    rec.hook(cli, "run_all", "tracker.run_all")
    rec.hook(cli, "evaluate_tracks", "metrics.evaluate_tracks")
    rec.hook(cli, "generate", "synth.generate")
    if mode == "stage":
        return
    rec.hook(tracker, "kalman_predict", "tracker.predict")
    rec.hook(tracker, "ukf_update", "tracker.box_update")
    rec.hook(tracker, "bbox_measurement", "geometry.box_measure", factory=True)
    rec.hook(pose, "predict_keypoints", "pose.predict_keypoints")
    rec.hook(pose, "ukf_update", "pose.kp_update")
    rec.hook(pose, "project_point", "geometry.project_point")
    rec.hook(filter, "sigma_points", "filter.sigma_points")
    rec.hook(getattr(filter, "GaussianBelief", None), "__post_init__", "filter.belief_validate")
    for attr in ("load_scene", "load_tracks", "save_tracks", "save_annotations"):
        rec.hook(cli, attr, f"io.{attr}")
    rec.hook(io, "load_annotations", "io.load_annotations")
    for attr in ("clear_mot", "idf1", "ospa2", "pose_metrics"):
        rec.hook(metrics, attr, f"metrics.{attr}")
    rec.hook(metrics, "linear_sum_assignment", "metrics.assignment")


def main(argv: list[str]) -> int:
    out, mode, args = argv[0], argv[1], argv[2:]
    if mode not in ("full", "stage"):
        print(f"trace mode must be full or stage, got {mode!r}", file=sys.stderr)
        return 2
    from mvfuse import cli

    rec = Recorder()
    install(rec, mode)
    root = rec.wrap("cli.main", cli.main)
    try:
        return root(args)
    finally:
        rec.save(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
