"""Command-line interface.

Three subcommands: ``synth`` renders a synthetic scene to disk, ``annotate``
fuses 2D annotations into 3D tracks, ``evaluate`` scores predicted tracks
against ground truth. Machine-readable output (the evaluation report JSON)
goes to stdout; progress and human-readable summaries go to stderr.

Exit codes: 0 success, 2 bad input (parse/validation/spec errors, or a path
that cannot be read or written), 1 runtime failure.

A command's stages are imported before it runs, with the cyclic garbage
collector paused: the imports leave a few hundred objects of cyclic garbage
among some 33,000 live ones, so its passes over them cost far more than they
free. The caller's setting is restored when they end. ``main()`` with no
``argv`` reads the process's own command line, as the ``mvfuse`` script and
``python -m mvfuse`` do, and so owns the process: it then also moves every
object alive after the imports to the collector's permanent generation
(``gc.freeze()``), so neither the run's collections nor the interpreter's
teardown walk the modules again. ``main(argv)`` with a list never freezes
and leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
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
    # lookup. main looks a command's stages up on this module when the
    # command runs, so it loads only those, and the command calls the one a
    # caller (a tracer, say) bound here before main ran.
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


def _command(*stages: str):
    """Mark a command function as taking, after its arguments, the stages
    ``stages``, as this module binds them when the command runs."""

    def mark(func):
        func.stages = stages
        return func

    return mark


def _load_stages(names: tuple[str, ...], freeze: bool) -> list:
    """The stages ``names``, as this module binds them now, imported with the
    collector paused; with ``freeze``, everything alive after the imports is
    then frozen (see the module docstring)."""
    collect = gc.isenabled()
    gc.disable()
    try:
        module = sys.modules[__name__]
        stages = [getattr(module, name) for name in names]
        if freeze:
            gc.freeze()
        return stages
    finally:
        if collect:
            gc.enable()


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

    # synth and evaluate leave a flag out of the namespace unless it is given,
    # so the flags present are the overrides of the spec or config file.
    p_synth = sub.add_parser(
        "synth",
        help="render a synthetic scene with known ground truth",
        argument_default=argparse.SUPPRESS,
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
        "evaluate",
        help="score predicted tracks against ground truth",
        argument_default=argparse.SUPPRESS,
    )
    p_eval.add_argument("--pred", required=True, help="predicted tracks JSONL")
    p_eval.add_argument("--gt", required=True, help="ground-truth tracks JSONL")
    p_eval.add_argument("--config", help="run config JSON")
    p_eval.add_argument("--threshold", type=float, help="association gate (m)")
    p_eval.add_argument("--ospa-cutoff", type=float, help="OSPA cutoff (m)")
    p_eval.add_argument("--ospa-order", type=float)
    p_eval.add_argument(
        "--window",
        type=int,
        dest="ospa_window",
        metavar="WINDOW",
        help="score only the last N frames for OSPA",
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
        help="score position metrics on the ground plane only",
    )
    p_eval.add_argument("--report", help="also write the JSON report here")
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def _overrides(args: argparse.Namespace, cls) -> dict:
    """The flags given in ``args`` that name a field of the dataclass ``cls``."""
    from dataclasses import fields  # loaded with the stages

    names = {f.name for f in fields(cls)}
    return {key: value for key, value in vars(args).items() if key in names}


@_command(
    "SceneSpec", "generate", "RunConfig",
    "save_calibration", "save_annotations", "save_tracks", "save_config",
)
def _cmd_synth(
    args: argparse.Namespace, SceneSpec, generate, RunConfig,
    save_calibration, save_annotations, save_tracks, save_config,
) -> int:
    from .io import _read_json  # loaded with RunConfig

    doc = _read_json(args.spec) if getattr(args, "spec", None) else {}
    if not isinstance(doc, dict):
        raise InvalidSpec("scene spec must be a JSON object")
    spec = SceneSpec.from_dict({**doc, **_overrides(args, SceneSpec)})

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


@_command("load_config", "RunConfig", "load_scene", "run_all", "save_tracks")
def _cmd_annotate(
    args: argparse.Namespace, load_config, RunConfig, load_scene, run_all, save_tracks
) -> int:
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


@_command("load_config", "RunConfig", "load_tracks", "evaluate_tracks")
def _cmd_evaluate(
    args: argparse.Namespace, load_config, RunConfig, load_tracks, evaluate_tracks
) -> int:
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = _overrides(args, RunConfig)
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
    if getattr(args, "report", None):
        Path(args.report).write_text(payload + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the command line ``argv`` and return its exit code.

    With ``argv`` None the command line is the process's own
    (``sys.argv[1:]``), and main owns the process: after importing the
    command's stages it calls ``gc.freeze()``, and does not undo it. With a
    list, as from a test or a library caller, it never freezes, and the
    collector's setting is as main found it when main returns. Either way
    the stages are imported with the collector paused. ``--version`` and
    ``--help`` exit in the parser, before any of that.
    """
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    stages = _load_stages(args.func.stages, freeze=argv is None)
    try:
        return args.func(args, *stages)
    except (ParseError, ValidationError, InvalidSpec, EmptyGroundTruth, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MvfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
