"""Command-line interface.

Three subcommands: ``synth`` renders a synthetic scene to disk, ``annotate``
fuses 2D annotations into 3D tracks, ``evaluate`` scores predicted tracks
against ground truth. Machine-readable output (the evaluation report JSON)
goes to stdout; progress and human-readable summaries go to stderr.

Exit codes: 0 success, 2 bad input (parse/validation/spec errors, or a path
that cannot be read or written), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    EmptyGroundTruth,
    InvalidSpec,
    MvfuseError,
    ParseError,
    ValidationError,
)


def __getattr__(name: str):
    # The stages the commands call (run_all, load_tracks, ...) are the
    # package's public names, each of which imports its module on first
    # lookup. A command looks its stages up on this module when it runs, so
    # it loads only those, and calls the one a caller (a tracer, say) bound
    # here before main ran.
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


def _stages(*names: str) -> list:
    """The stages ``names``, as this module binds them now."""
    module = sys.modules[__name__]
    return [getattr(module, name) for name in names]


logger = logging.getLogger("mvfuse")


def _setup_logging() -> None:
    level = os.environ.get("MVFUSE_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfuse",
        description="Fuse multi-camera 2D annotations into 3D ground-truth tracks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser(
        "synth", help="render a synthetic scene with known ground truth"
    )
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--spec", help="scene spec JSON (flags override it)")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--objects", type=int, dest="num_objects")
    p_synth.add_argument("--cameras", type=int, dest="num_cameras")
    p_synth.add_argument("--frames", type=int)
    p_synth.add_argument("--fps", type=float)
    p_synth.add_argument(
        "--motion", choices=("static", "constant-velocity", "waypoint")
    )
    p_synth.add_argument(
        "--noise", type=float, dest="pixel_noise", help="pixel noise sigma"
    )
    p_synth.add_argument("--skeleton", help="built-in skeleton name")
    p_synth.set_defaults(func=_cmd_synth)

    p_track = sub.add_parser(
        "annotate", help="fuse 2D annotations into 3D tracks"
    )
    p_track.add_argument("--calibration", required=True)
    p_track.add_argument("--annotations", required=True)
    p_track.add_argument("--out", required=True, help="output tracks JSONL")
    p_track.add_argument("--config", help="run config JSON")
    p_track.add_argument(
        "--skeleton", help="built-in name or skeleton JSON (overrides config)"
    )
    p_track.add_argument(
        "--units",
        choices=("m", "mm"),
        default="m",
        help="calibration translation units",
    )
    p_track.set_defaults(func=_cmd_annotate)

    p_eval = sub.add_parser(
        "evaluate", help="score predicted tracks against ground truth"
    )
    p_eval.add_argument("--pred", required=True, help="predicted tracks JSONL")
    p_eval.add_argument("--gt", required=True, help="ground-truth tracks JSONL")
    p_eval.add_argument("--config", help="run config JSON")
    p_eval.add_argument("--threshold", type=float, help="association gate (m)")
    p_eval.add_argument("--ospa-cutoff", type=float, help="OSPA cutoff (m)")
    p_eval.add_argument("--ospa-order", type=float)
    p_eval.add_argument(
        "--window", type=int, help="score only the last N frames for OSPA"
    )
    p_eval.add_argument(
        "--ap",
        type=float,
        nargs="+",
        dest="ap_thresholds",
        help="AP thresholds (mm)",
    )
    p_eval.add_argument("--recall-at", type=float, help="recall threshold (mm)")
    p_eval.add_argument(
        "--plane",
        action="store_true",
        default=None,
        help="score position metrics on the ground plane only",
    )
    p_eval.add_argument("--report", help="also write the JSON report here")
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    from .io import _read_json

    (SceneSpec, generate, RunConfig,
     save_calibration, save_annotations, save_tracks, save_config) = _stages(
        "SceneSpec", "generate", "RunConfig",
        "save_calibration", "save_annotations", "save_tracks", "save_config",
    )
    spec_dict: dict = {}
    if args.spec:
        doc = _read_json(args.spec)
        if not isinstance(doc, dict):
            raise InvalidSpec("scene spec must be a JSON object")
        spec_dict.update(doc)
    for key in (
        "seed",
        "num_objects",
        "num_cameras",
        "frames",
        "fps",
        "motion",
        "pixel_noise",
        "skeleton",
    ):
        value = getattr(args, key, None)
        if value is not None:
            spec_dict[key] = value
    spec = SceneSpec.from_dict(spec_dict)

    bundle, gt = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_calibration(bundle.calibration, out / "calibration.json")
    save_annotations(bundle.annotations, out / "annotations.jsonl")
    save_tracks(gt, out / "gt_tracks.jsonl")
    noise = (
        {"r_bbox": spec.pixel_noise ** 2, "r_keypoint": spec.pixel_noise ** 2}
        if spec.pixel_noise > 0
        else {}
    )
    config = RunConfig(dt=1.0 / spec.fps, skeleton=spec.skeleton, **noise)
    save_config(config, out / "config.json")
    (out / "scene.json").write_text(json.dumps(spec.to_dict(), indent=2) + "\n")

    print(
        f"wrote {spec.num_objects} objects / {spec.num_cameras} cameras / "
        f"{spec.frames} frames ({bundle.annotations.has_bbox.sum()} boxes) to {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    load_config, RunConfig, load_scene, run_all, save_tracks = _stages(
        "load_config", "RunConfig", "load_scene", "run_all", "save_tracks"
    )
    config = load_config(args.config) if args.config else RunConfig()
    skeleton_src = args.skeleton or config.skeleton
    scene = load_scene(
        args.calibration,
        args.annotations,
        skeleton=skeleton_src,
        units=args.units,
    )
    if scene.skeleton is None and scene.annotations.keypoints is not None:
        logger.warning(
            "annotations carry keypoints but no skeleton is configured; "
            "fusing boxes only (pass --skeleton to fuse keypoints)"
        )

    events = []
    tracks = run_all(
        scene.annotations,
        scene.calibration,
        config,
        skeleton=scene.skeleton,
        on_event=events.append,
    )
    for d in events:
        where = "".join(
            f" {name} {value}"
            for name, value in (("frame", d.frame), ("camera", d.camera_id))
            if value is not None
        )
        logger.warning("%s: object %s%s %s", d.kind, d.object_id, where, d.message)
    save_tracks(tracks, args.out)
    print(
        f"fused {len(set(tracks.object_id.tolist()))} tracks ({len(tracks)} entries, "
        f"{len(events)} diagnostics) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    load_config, RunConfig, load_tracks, evaluate_tracks = _stages(
        "load_config", "RunConfig", "load_tracks", "evaluate_tracks"
    )
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {
        "threshold": args.threshold,
        "ospa_cutoff": args.ospa_cutoff,
        "ospa_order": args.ospa_order,
        "ospa_window": args.window,
        "ap_thresholds": args.ap_thresholds,
        "recall_at": args.recall_at,
        "plane": args.plane,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        # back through RunConfig so flags get the same validation as the file
        config = RunConfig.from_dict({**config.to_dict(), **overrides})

    pred = load_tracks(args.pred)
    gt = load_tracks(args.gt)
    joints = [None if t.keypoints is None else t.keypoints.shape[1] for t in (pred, gt)]
    if None not in joints and joints[0] != joints[1]:
        raise ValidationError(
            f"{args.pred} has {joints[0]} keypoints per pose, {args.gt} has {joints[1]}"
        )
    report = evaluate_tracks(
        pred,
        gt,
        threshold=config.threshold,
        ospa_cutoff=config.ospa_cutoff,
        ospa_order=config.ospa_order,
        window=config.ospa_window,
        ap_thresholds=config.ap_thresholds,
        recall_at=config.recall_at,
        plane=config.plane,
    )

    payload = json.dumps(report.to_dict(), indent=2)
    print(payload)
    print(report.format_table(), file=sys.stderr)
    if args.report:
        Path(args.report).write_text(payload + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, InvalidSpec, EmptyGroundTruth, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MvfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
