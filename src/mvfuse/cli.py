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
import os
import sys
from pathlib import Path

from . import __version__
from .errors import MvfuseError, ParseError, ValidationError


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


def _load_stages(names: tuple[str, ...], freeze: bool) -> argparse.Namespace:
    """The stages ``names``, as this module binds them now, imported with the
    collector paused; with ``freeze``, everything alive after the imports is
    then frozen (see the module docstring)."""
    collect = gc.isenabled()
    gc.disable()
    try:
        module = sys.modules[__name__]
        stages = argparse.Namespace(**{name: getattr(module, name) for name in names})
        if freeze:
            gc.freeze()
        return stages
    finally:
        if collect:
            gc.enable()


def _setup_logging():
    """The ``mvfuse`` logger, with stderr logging set to the level that
    ``MVFUSE_LOG`` names. Only ``annotate`` logs, so only it loads
    ``logging``."""
    import logging

    level = os.environ.get("MVFUSE_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    return logging.getLogger("mvfuse")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfuse",
        description="Fuse multi-camera 2D annotations into 3D ground-truth tracks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command leaves a flag out of the namespace unless it is given, so
    # the flags present are the overrides of the spec or config file.
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

    p_track = sub.add_parser(
        "annotate",
        help="fuse 2D annotations into 3D tracks",
        argument_default=argparse.SUPPRESS,
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
    return parser


def _config(args: argparse.Namespace, cls, flag: str, what: str):
    """A ``cls``, checked once by its ``from_dict``: the JSON object in the
    file that ``--flag`` names (the file is called ``what`` if it holds
    anything else), or none, with the flags given in ``args`` laid over it.

    A refusal that the file's object alone gets too is the file's, and is a
    ``ParseError`` naming it; one that a flag brought keeps its message."""
    from dataclasses import fields  # loaded with the stages

    from .io import read_object

    path = getattr(args, flag, None)
    doc = read_object(path, what) if path else {}
    names = {f.name for f in fields(cls)}
    try:
        return cls.from_dict({**doc, **{k: v for k, v in vars(args).items() if k in names}})
    except ValidationError as exc:
        if path:
            try:
                cls.from_dict(doc)
            except ValidationError as alone:
                if str(alone) == str(exc):
                    raise ParseError(path, None, str(exc)) from None
        raise


def _cmd_synth(args: argparse.Namespace, s: argparse.Namespace) -> int:
    spec = _config(args, s.SceneSpec, "spec", "scene spec")
    bundle, gt = s.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    s.save_calibration(bundle.calibration, out / "calibration.json")
    s.save_annotations(bundle.annotations, out / "annotations.jsonl")
    s.save_tracks(gt, out / "gt_tracks.jsonl")
    noise = (
        {"r_bbox": spec.pixel_noise ** 2, "r_keypoint": spec.pixel_noise ** 2}
        if spec.pixel_noise > 0
        else {}
    )
    config = s.RunConfig(dt=1.0 / spec.fps, skeleton=spec.skeleton, **noise)
    s.save_config(config, out / "config.json")
    (out / "scene.json").write_text(json.dumps(spec.to_dict(), indent=2) + "\n")

    print(
        f"wrote {spec.num_objects} objects / {spec.num_cameras} cameras / "
        f"{spec.frames} frames ({bundle.annotations.has_bbox.sum()} boxes) to {out}",
        file=sys.stderr,
    )
    return 0


def _cmd_annotate(args: argparse.Namespace, s: argparse.Namespace) -> int:
    logger = _setup_logging()
    config = _config(args, s.RunConfig, "config", "config")
    scene = s.load_scene(
        args.calibration,
        args.annotations,
        skeleton=config.skeleton,
        units=args.units,
    )
    if scene.skeleton is None and scene.annotations.keypoints is not None:
        logger.warning(
            "annotations carry keypoints but no skeleton is configured; "
            "fusing boxes only (pass --skeleton to fuse keypoints)"
        )

    events = []
    tracks = s.run_all(
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
    s.save_tracks(tracks, args.out)
    print(
        f"fused {len(set(tracks.object_id.tolist()))} tracks ({len(tracks)} entries, "
        f"{len(events)} diagnostics) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace, s: argparse.Namespace) -> int:
    config = _config(args, s.RunConfig, "config", "config")
    pred = s.load_tracks(args.pred)
    gt = s.load_tracks(args.gt)
    joints = [None if t.keypoints is None else t.keypoints.shape[1] for t in (pred, gt)]
    if None not in joints and joints[0] != joints[1]:
        raise ValidationError(
            f"{args.pred} has {joints[0]} keypoints per pose, {args.gt} has {joints[1]}"
        )
    report = s.evaluate_tracks(pred, gt, config)

    payload = json.dumps(report, indent=2)
    print(payload)
    print(s.format_table(report), file=sys.stderr)
    if getattr(args, "report", None):
        Path(args.report).write_text(payload + "\n")
    return 0


# Each command and its stages, by the public names this module binds them
# to. main imports them when the command runs and passes them to it as one
# namespace.
_COMMANDS = {
    "synth": (_cmd_synth, ("SceneSpec", "generate", "RunConfig", "save_calibration",
                           "save_annotations", "save_tracks", "save_config")),
    "annotate": (_cmd_annotate, ("RunConfig", "load_scene", "run_all", "save_tracks")),
    "evaluate": (_cmd_evaluate, ("RunConfig", "load_tracks", "evaluate_tracks", "format_table")),
}


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    command, names = _COMMANDS[args.command]
    stages = _load_stages(names, freeze=argv is None)
    try:
        return command(args, stages)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MvfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
