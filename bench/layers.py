"""Per-layer metrics computed from the spans that ``trace_child.py`` records.

``PER_LAYER`` lists every per-layer metric with its unit, which direction is
better, the span names it is computed from (when one of them was not hooked
because its target is gone, the metric is reported as absent), and the
end-to-end metric and workload it should move.  Times per update are divided
by the number of updates the annotations imply, not by the number of calls,
so they stay comparable when calls get batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOX = "tracker.box_update"
KP = "pose.kp_update"
RUN_ALL = "tracker.run_all"
EVALUATE = "metrics.evaluate_tracks"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]
    moves: str


def _m(name, unit, spans, moves, better="lower"):
    return LayerMetric(name, unit, better, tuple(spans), moves)


PER_LAYER = (
    _m("geometry.box_measure_us_per_update", "us", ["geometry.box_measure"], "annotate_s on boxes (most), sparse"),
    _m("geometry.box_measure_calls", "count", ["geometry.box_measure"], "annotate_s on boxes, sparse"),
    _m("geometry.box_measure_frac_of_run_all", "frac", ["geometry.box_measure", RUN_ALL], "annotate_s on boxes"),
    _m("geometry.project_point_us_per_update", "us", ["geometry.project_point"], "annotate_s on pose"),
    _m("geometry.project_point_calls", "count", ["geometry.project_point"], "annotate_s on pose"),
    _m("filter.sigma_points_us_per_box_update", "us", ["filter.sigma_points", BOX], "annotate_s on boxes, sparse"),
    _m("filter.sigma_points_us_per_kp_update", "us", ["filter.sigma_points", KP], "annotate_s on pose"),
    _m("filter.sigma_points_calls", "count", ["filter.sigma_points"], "annotate_s on boxes, pose"),
    _m("filter.belief_validate_us_per_box_update", "us", ["filter.belief_validate", BOX], "annotate_s on boxes, sparse"),
    _m("filter.belief_validate_us_per_kp_update", "us", ["filter.belief_validate", KP], "annotate_s on pose"),
    _m("filter.belief_validate_s", "s", ["filter.belief_validate"], "annotate_s on boxes, pose"),
    _m("filter.belief_constructions", "count", ["filter.belief_validate"], "annotate_s on boxes, pose"),
    _m("filter.ukf_update_self_us_per_box_update", "us", [BOX], "annotate_s on boxes, sparse"),
    _m("filter.ukf_update_self_us_per_kp_update", "us", [KP], "annotate_s on pose"),
    _m("tracker.run_all_s", "s", [RUN_ALL], "annotate_s on boxes, sparse, pose"),
    _m("tracker.run_all_self_s", "s", [RUN_ALL], "annotate_s on boxes, sparse"),
    _m("tracker.box_update_us_p50", "us", [BOX], "annotate_s on boxes, sparse"),
    _m("tracker.box_update_us_p99", "us", [BOX], "annotate_s on boxes, sparse"),
    _m("tracker.predict_s", "s", ["tracker.predict"], "annotate_s on sparse (gaps), boxes"),
    _m("tracker.predict_calls", "count", ["tracker.predict"], "annotate_s on sparse, boxes"),
    _m("tracker.box_updates", "count", [], "annotate_s on boxes, sparse (work done, from the annotations)", "higher"),
    _m("tracker.box_updates_skipped", "count", [], "skipped_updates_frac on sparse"),
    _m("pose.kp_update_us_p50", "us", [KP], "annotate_s on pose"),
    _m("pose.kp_update_us_p99", "us", [KP], "annotate_s on pose"),
    _m("pose.kp_updates", "count", [], "annotate_s on pose (work done, from the annotations)", "higher"),
    _m("pose.kp_updates_skipped", "count", [KP], "mpjpe_mm on pose"),
    _m("pose.predict_keypoints_s", "s", ["pose.predict_keypoints"], "annotate_s on pose"),
    _m("io.load_annotations_s", "s", ["io.load_annotations"], "annotate_s on boxes"),
    _m("io.save_tracks_s", "s", ["io.save_tracks"], "annotate_s on boxes, synth_s on evaluate"),
    _m("io.load_tracks_s", "s", ["io.load_tracks"], "evaluate_s on evaluate"),
    _m("io.save_annotations_s", "s", ["io.save_annotations"], "synth_s on all workloads"),
    _m("io.bytes_read", "bytes", [], "evaluate_s on evaluate, annotate_s on boxes"),
    _m("io.bytes_written", "bytes", [], "synth_s on all workloads"),
    _m("synth.generate_s", "s", ["synth.generate"], "synth_s on evaluate, boxes"),
    _m("metrics.clear_mot_s", "s", ["metrics.clear_mot"], "evaluate_s on evaluate"),
    _m("metrics.idf1_s", "s", ["metrics.idf1"], "evaluate_s on evaluate"),
    _m("metrics.ospa2_s", "s", ["metrics.ospa2"], "evaluate_s on evaluate"),
    _m("metrics.pose_metrics_s", "s", ["metrics.pose_metrics"], "evaluate_s on evaluate"),
    _m("metrics.assignments", "count", ["metrics.assignment"], "evaluate_s on evaluate"),
    _m("metrics.frac_of_evaluate", "frac",
       ["metrics.clear_mot", "metrics.idf1", "metrics.ospa2", "metrics.pose_metrics"], "evaluate_s on evaluate"),
    _m("cli.self_s", "s", [], "annotate_s on sparse (diagnostic logging), evaluate_s"),
    _m("trace.overhead_frac", "frac", [], "none: cost of the hooks on the main stage"),
    _m("trace.spans", "count", [], "none: spans recorded"),
)


class Spans:
    """One traced command's spans, loaded from its .npz file."""

    def __init__(self, path):
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.name_id = z["name_id"]
            self.parent = z["parent"]
            self.raised = z["raised"].astype(bool)
            self.absent = {str(n) for n in z["absent"]}
            self.dur = z["end"] - z["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered

    def __len__(self):
        return len(self.dur)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name_id == self.names.index(name)

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def nearest(self, names: tuple[str, ...]) -> np.ndarray:
        """Index of each span's nearest ancestor (or itself) named in
        ``names``, -1 where there is none."""
        target = np.zeros(len(self.dur), dtype=bool)
        for n in names:
            target |= self.mask(n)
        owner = np.where(target, np.arange(len(self.dur)), -1)
        anc = self.parent.copy()
        todo = np.nonzero((owner < 0) & (anc >= 0))[0]
        while todo.size:
            a = anc[todo]
            hit = target[a]
            owner[todo[hit]] = a[hit]
            anc[todo] = self.parent[a]
            todo = todo[~hit & (anc[todo] >= 0)]
        return owner

    def total_under(self, name: str, ancestor: str) -> float:
        """Total duration of the ``name`` spans inside an ``ancestor`` span
        (a box or a keypoint update)."""
        owner = self.nearest((BOX, KP))
        mine = self.mask(name) & (owner >= 0)
        idx = np.nonzero(mine)[0]
        keep = self.mask(ancestor)[owner[idx]]
        return float(self.dur[idx[keep]].sum())


def _per(x: float, n: int, scale: float = 1e6) -> float:
    return scale * x / n if n else 0.0


def _pct(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if durations.size else 0.0


def compute(stages: dict[str, Spans], light: Spans, main_stage: str, counts: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values from the fully traced commands ``stages``
    (keyed by subcommand), the ``stage``-traced run of the main subcommand
    and the counts taken outside the trace (updates implied by the input,
    skipped box updates the CLI reported, bytes read and written).

    Returns the values and the names of the metrics that are absent.
    """
    absent_spans = set().union(*(s.absent for s in stages.values()))
    fuse = stages.get("annotate")
    evaluate = stages.get("evaluate")
    box_n = counts["box_updates"]
    kp_n = counts["kp_updates"]

    def on(spans, fn, default=0.0):
        return fn(spans) if spans is not None else default

    def tot(spans, name):
        return on(spans, lambda s: s.total(name))

    def cnt(name):
        return sum(s.count(name) for s in stages.values())

    def durations(name):
        return fuse.dur[fuse.mask(name)] if fuse is not None else np.zeros(0)

    def self_of(name):
        return on(fuse, lambda s: float(s.self_time[s.mask(name)].sum()))

    run_all = tot(fuse, RUN_ALL)
    scoring = sum(tot(evaluate, f"metrics.{n}") for n in ("clear_mot", "idf1", "ospa2", "pose_metrics"))
    main_span = RUN_ALL if main_stage == "annotate" else EVALUATE
    light_main = light.total(main_span)
    values = {
        "geometry.box_measure_us_per_update": _per(tot(fuse, "geometry.box_measure"), box_n),
        "geometry.box_measure_calls": cnt("geometry.box_measure"),
        "geometry.box_measure_frac_of_run_all": tot(fuse, "geometry.box_measure") / run_all if run_all else 0.0,
        "geometry.project_point_us_per_update": _per(tot(fuse, "geometry.project_point"), kp_n),
        "geometry.project_point_calls": cnt("geometry.project_point"),
        "filter.sigma_points_us_per_box_update": _per(on(fuse, lambda s: s.total_under("filter.sigma_points", BOX)), box_n),
        "filter.sigma_points_us_per_kp_update": _per(on(fuse, lambda s: s.total_under("filter.sigma_points", KP)), kp_n),
        "filter.sigma_points_calls": cnt("filter.sigma_points"),
        "filter.belief_validate_us_per_box_update": _per(on(fuse, lambda s: s.total_under("filter.belief_validate", BOX)), box_n),
        "filter.belief_validate_us_per_kp_update": _per(on(fuse, lambda s: s.total_under("filter.belief_validate", KP)), kp_n),
        "filter.belief_validate_s": sum(s.total("filter.belief_validate") for s in stages.values()),
        "filter.belief_constructions": cnt("filter.belief_validate"),
        "filter.ukf_update_self_us_per_box_update": _per(self_of(BOX), box_n),
        "filter.ukf_update_self_us_per_kp_update": _per(self_of(KP), kp_n),
        "tracker.run_all_s": run_all,
        "tracker.run_all_self_s": self_of(RUN_ALL),
        "tracker.box_update_us_p50": _pct(durations(BOX), 50),
        "tracker.box_update_us_p99": _pct(durations(BOX), 99),
        "tracker.predict_s": tot(fuse, "tracker.predict"),
        "tracker.predict_calls": cnt("tracker.predict"),
        "tracker.box_updates": box_n,
        "tracker.box_updates_skipped": counts["box_updates_skipped"],
        "pose.kp_update_us_p50": _pct(durations(KP), 50),
        "pose.kp_update_us_p99": _pct(durations(KP), 99),
        "pose.kp_updates": kp_n,
        "pose.kp_updates_skipped": on(fuse, lambda s: int((s.raised & s.mask(KP)).sum()), 0),
        "pose.predict_keypoints_s": tot(fuse, "pose.predict_keypoints"),
        "io.load_annotations_s": tot(fuse, "io.load_annotations"),
        "io.save_tracks_s": sum(s.total("io.save_tracks") for s in stages.values()),
        "io.load_tracks_s": tot(evaluate, "io.load_tracks"),
        "io.save_annotations_s": tot(stages.get("synth"), "io.save_annotations"),
        "io.bytes_read": counts["bytes_read"],
        "io.bytes_written": counts["bytes_written"],
        "synth.generate_s": tot(stages.get("synth"), "synth.generate"),
        "metrics.clear_mot_s": tot(evaluate, "metrics.clear_mot"),
        "metrics.idf1_s": tot(evaluate, "metrics.idf1"),
        "metrics.ospa2_s": tot(evaluate, "metrics.ospa2"),
        "metrics.pose_metrics_s": tot(evaluate, "metrics.pose_metrics"),
        "metrics.assignments": cnt("metrics.assignment"),
        "metrics.frac_of_evaluate": scoring / tot(evaluate, "cli.main") if evaluate is not None else 0.0,
        "cli.self_s": sum(float(s.self_time[s.mask("cli.main")].sum()) for s in stages.values()),
        "trace.overhead_frac": stages[main_stage].total(main_span) / light_main - 1.0 if light_main else 0.0,
        "trace.spans": sum(len(s) for s in stages.values()),
    }
    absent = [m.name for m in PER_LAYER if absent_spans.intersection(m.spans)]
    for name in absent:
        del values[name]
    return values, absent
