"""Synthetic scenes with known ground truth.

Builds a camera ring around a rectangular arena, moves ellipsoidal subjects
through it, and renders exact bounding boxes (dual-quadric outlines) and
keypoint projections, optionally with pixel noise and occlusion windows.
Because the renderer uses the same projective model as the tracker's
measurement maps, a noiseless scene closes the loop: the tracker should
recover the ground truth to within filter convergence error.

Subjects are rigid: their keypoints are the canonical skeleton scaled to the
subject's ellipsoid, carried along with its center.

The pixel noise is drawn in a fixed order, so that a seed names the same
scene across versions: for each rendered (frame, object, camera) row, in that
order, 4 box values (u_min, v_min, u_max, v_max), then 2 values (u, v) per
joint in front of the camera, in joint order. A row is rendered when the
camera sees a bounded outline and no occlusion covers it, and it draws its
noise whether or not its box or joints then land inside the image. A
noiseless scene draws nothing and leaves every value as projected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InvalidSpec
from .geometry import CameraModel, in_front, project_ellipsoid_to_bbox, project_point
from .io import Checked, SceneBundle
from .pose import canonical_pose, scaled_offsets
from .tracks import AnnotationTable, TrackTable

_MOTIONS = ("static", "constant-velocity", "waypoint")


@dataclass(frozen=True)
class Occlusion(Checked):
    """Drop all records of a camera (optionally one object) for frames in
    [start, stop)."""

    camera_id: int
    start: int
    stop: int
    object_id: int | None = None

    _what, _error = "occlusion", InvalidSpec


@dataclass(frozen=True)
class SceneSpec(Checked):
    """Parameters of a synthetic scene.

    The camera ring surrounds the arena; radius, height, and focal length
    are derived from the arena size unless overridden. ``fps`` fixes the
    frame spacing (dt = 1/fps) used for subject motion. ``cameras``, not a
    field, holds the ring's cameras, built and checked with the spec.
    """

    seed: int = 0
    num_objects: int = 5
    num_cameras: int = 4
    frames: int = 100
    fps: float = 10.0
    arena: tuple[float, float] = (12.0, 12.0)
    motion: str = "constant-velocity"
    pixel_noise: float = 0.0
    skeleton: str | None = None
    image_size: tuple[int, int] = (1920, 1080)
    ring_radius: float | None = None
    cam_height: float | None = None
    focal: float | None = None
    occlusions: tuple[Occlusion, ...] = ()

    _what, _error, _items = "scene", InvalidSpec, {"occlusions": Occlusion}

    def __post_init__(self):
        super().__post_init__()
        self._need(self.num_objects >= 0, f"num_objects must be >= 0, got {self.num_objects}")
        self._need(self.num_cameras >= 1, f"num_cameras must be >= 1, got {self.num_cameras}")
        self._need(self.frames >= 1, f"frames must be >= 1, got {self.frames}")
        self._need(self.fps > 0, f"fps must be positive, got {self.fps}")
        arena = tuple(float(v) for v in self.arena)
        self._need(
            len(arena) == 2 and all(v > 0 for v in arena),
            f"arena must be two positive extents, got {self.arena}",
        )
        self._need(
            self.motion in _MOTIONS,
            f"motion must be one of {_MOTIONS}, got {self.motion!r}",
        )
        self._need(self.pixel_noise >= 0, "pixel_noise must be non-negative")
        size = tuple(self.image_size)
        self._need(
            len(size) == 2 and all(v > 0 for v in size),
            f"image_size must be two positive integers, got {self.image_size}",
        )
        for name in ("ring_radius", "cam_height", "focal"):
            v = getattr(self, name)
            self._need(v is None or v > 0, f"{name} must be positive when given")
        if self.skeleton is not None:
            try:
                canonical_pose(self.skeleton)
            except ValueError as exc:
                raise InvalidSpec(str(exc)) from None
        occl = tuple(self.occlusions)
        for o in occl:
            self._need(
                0 <= o.start < o.stop <= self.frames,
                f"occlusion window [{o.start}, {o.stop}) out of range",
            )
            self._need(
                0 <= o.camera_id < self.num_cameras,
                f"occlusion references unknown camera {o.camera_id}",
            )
            self._need(
                o.object_id is None or 0 <= o.object_id < self.num_objects,
                f"occlusion references unknown object {o.object_id}",
            )
        object.__setattr__(self, "arena", arena)
        object.__setattr__(self, "image_size", size)
        object.__setattr__(self, "occlusions", occl)
        object.__setattr__(self, "cameras", _build_cameras(self))


def _look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation for a camera at ``center`` looking at
    ``target`` (camera x right, y down, z forward)."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(forward, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def _camera_ring(spec: SceneSpec) -> tuple[float, float]:
    """The camera ring's radius and focal length: given by ``spec``, or
    derived from the arena size.

    Raises
    ------
    InvalidSpec
        If the ring does not surround the arena, or (with no focal length
        given) is too tight to frame it.
    """
    ax, ay = spec.arena
    half_diag = float(np.hypot(ax, ay)) / 2.0
    radius = spec.ring_radius or (1.6 * half_diag + 4.0)
    if radius <= half_diag:
        raise InvalidSpec(
            f"ring_radius {radius} must exceed the arena half-diagonal {half_diag:.2f}"
        )
    if spec.focal is not None:
        return radius, spec.focal
    # Fit the arena (plus body margin) inside the narrower field of view.
    reach = half_diag + 0.8
    tan_span = reach / (radius - reach) if radius > reach else None
    if tan_span is None or tan_span <= 0:
        raise InvalidSpec("camera ring too tight for the arena")
    return radius, 0.85 * (min(spec.image_size) / 2.0) / tan_span


def _build_cameras(spec: SceneSpec) -> dict[int, CameraModel]:
    radius, focal = _camera_ring(spec)
    height = spec.cam_height or (0.45 * radius)
    width, img_h = spec.image_size
    target = np.array([0.0, 0.0, 1.0])
    K = np.array(
        [
            [focal, 0.0, width / 2.0],
            [0.0, focal, img_h / 2.0],
            [0.0, 0.0, 1.0],
        ]
    )
    cams = {}
    for i in range(spec.num_cameras):
        angle = 2.0 * np.pi * i / spec.num_cameras
        center = np.array(
            [radius * np.cos(angle), radius * np.sin(angle), height]
        )
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN is refused below
            R = _look_at(center, target)
        try:
            cams[i] = CameraModel(
                intrinsics=K,
                rotation=R,
                translation=-R @ center,
                image_size=spec.image_size,
            )
        except ValueError as exc:
            raise InvalidSpec(
                f"camera ring (radius {radius:.3g}, height {height:.3g}, focal {focal:.3g}) "
                f"overflows: {exc}"
            ) from None
    return cams


def _place_objects(spec: SceneSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Start positions (ground plane) and half-axes, objects well separated."""
    ax, ay = spec.arena
    lo = np.array([-0.45 * ax, -0.45 * ay])
    hi = -lo
    starts = []
    min_sep = 2.2
    for _ in range(spec.num_objects):
        for attempt in range(2000):
            cand = rng.uniform(lo, hi)
            if all(np.linalg.norm(cand - s) >= min_sep for s in starts):
                starts.append(cand)
                break
        else:
            raise InvalidSpec(
                f"cannot place {spec.num_objects} objects {min_sep} m apart "
                f"in a {ax} x {ay} arena"
            )
    half_axes = np.column_stack(
        [
            rng.uniform(0.24, 0.36, spec.num_objects),
            rng.uniform(0.24, 0.36, spec.num_objects),
            rng.uniform(0.75, 0.95, spec.num_objects),
        ]
    )
    return np.array(starts).reshape(spec.num_objects, 2), half_axes


def _plan_motion(
    spec: SceneSpec, rng: np.random.Generator, starts: np.ndarray
) -> np.ndarray:
    """Ground-plane positions, shape (frames, num_objects, 2)."""
    dt = 1.0 / spec.fps
    ax, ay = spec.arena
    bound = np.array([0.48 * ax, 0.48 * ay])
    out = np.empty((spec.frames, spec.num_objects, 2))
    for o in range(spec.num_objects):
        start = starts[o]
        if spec.motion == "static":
            out[:, o, :] = start
            continue
        if spec.motion == "constant-velocity":
            heading = rng.uniform(0.0, 2.0 * np.pi)
            speed = rng.uniform(0.3, 0.9)
            vel = speed * np.array([np.cos(heading), np.sin(heading)])
            end = start + vel * dt * (spec.frames - 1)
            if np.any(np.abs(end) > bound):
                vel = -vel
                end = start + vel * dt * (spec.frames - 1)
            if np.any(np.abs(end) > bound):
                # Shrink speed until the endpoint stays inside.
                over = np.max(np.abs(end) / bound)
                vel = vel / (over * 1.05)
            # start, start + step, (start + step) + step, ...: cumsum adds
            # in that order, so each position has the bits of stepping
            steps = np.repeat([vel * dt], spec.frames, axis=0)
            steps[0] = start
            out[:, o, :] = np.cumsum(steps, axis=0)
            continue
        # waypoint: constant speed along a random polyline, hold at the end
        points = [start]
        for _ in range(3):
            points.append(rng.uniform(-0.85 * bound, 0.85 * bound))
        speed = rng.uniform(0.4, 0.9)
        pos = start.copy()
        seg = 0
        for k in range(spec.frames):
            out[k, o, :] = pos
            remaining = speed * dt
            while remaining > 0 and seg < len(points) - 1:
                to_next = points[seg + 1] - pos
                dist = float(np.linalg.norm(to_next))
                if dist <= remaining:
                    pos = points[seg + 1].copy()
                    remaining -= dist
                    seg += 1
                else:
                    pos = pos + to_next * (remaining / dist)
                    remaining = 0.0
    return out


def _outline_boxes(cam: CameraModel, centers, half_axes) -> np.ndarray:
    """Outline boxes (..., 4) of the ellipsoids (..., 3); NaN rows where the
    camera sees no bounded outline. Rows equal single-row kernel calls bit for
    bit. When a stack raises, each of its leading slices (a frame's rows) is
    retried alone, so only the slices that raise go row by row."""
    try:
        return project_ellipsoid_to_bbox(cam, centers, half_axes)
    except GeometryError:
        if centers.ndim > 2:
            return np.stack([_outline_boxes(cam, c, h) for c, h in zip(centers, half_axes)])
        out = np.full((len(centers), 4), np.nan)
        for i, (center, half) in enumerate(zip(centers, half_axes)):
            try:
                out[i] = project_ellipsoid_to_bbox(cam, center, half)
            except GeometryError:
                pass
        return out


def _joint_pixels(cam: CameraModel, joints) -> tuple[np.ndarray, np.ndarray]:
    """Mask (..., J) of the joints (..., J, 3) in front of the camera, and
    their pixels (..., J, 2), zero where not in front."""
    front = in_front(cam, joints)
    uv = np.zeros(joints.shape[:-1] + (2,))
    uv[front] = project_point(cam, joints[front])
    return front, uv


def generate(spec: SceneSpec) -> tuple[SceneBundle, TrackTable]:
    """Render a scene: (bundle with calibration + annotations, ground-truth
    track table).

    Annotations contain a box for every (frame, object, camera) whose exact
    outline box lies fully inside the image and is not occluded, and keypoint
    rows flagged visible when the joint projects inside the image. Ground
    truth carries positions, half-axes, and (with a skeleton) 3D keypoints.

    The whole scene is rendered as (frame, object, camera) arrays. Noise is
    drawn in one call and laid out as described in the module docstring.
    """
    rng = np.random.default_rng(spec.seed)
    cams = dict(spec.cameras)
    starts, half_axes = _place_objects(spec, rng)
    ground = _plan_motion(spec, rng, starts)
    skeleton = canonical_pose(spec.skeleton) if spec.skeleton else None
    F, N = spec.frames, spec.num_objects
    J = skeleton.num_joints if skeleton is not None else 0
    width, height = spec.image_size

    halves = np.broadcast_to(half_axes, (F, N, 3))
    centers = np.concatenate([ground, halves[..., 2:]], axis=-1)  # (F, N, 3)
    joints = np.zeros((F, N, J, 3))  # no skeleton: J = 0 joints per row
    if skeleton is not None:
        joints = scaled_offsets(skeleton, half_axes) + centers[:, :, None, :]
    # (F, N, C, ...) per camera: outlines, NaN where degenerate or occluded,
    # and which joints are in front with their pixels.
    outlines = np.stack([_outline_boxes(cam, centers, halves) for cam in cams.values()], axis=2)
    for occ in spec.occlusions:
        objects = slice(None) if occ.object_id is None else occ.object_id
        outlines[occ.start:occ.stop, objects, occ.camera_id] = np.nan
    present = ~np.isnan(outlines[..., 0])
    pixels = [_joint_pixels(cam, joints) for cam in cams.values()]
    # The rendered rows, in (frame, object, camera) order.
    box = outlines[present]  # (R, 4)
    front = np.stack([f for f, _ in pixels], axis=2)[present]  # (R, J)
    uv = np.stack([p for _, p in pixels], axis=2)[present]  # (R, J, 2)

    if spec.pixel_noise:
        # Each row's draws: its 4 box values, then 2 per joint in front.
        slots = np.concatenate([np.ones((len(box), 4), dtype=bool), front.repeat(2, axis=1)], axis=1)
        noise = np.zeros(slots.shape)
        noise[slots] = rng.normal(0.0, spec.pixel_noise, int(slots.sum()))
        box = box + noise[:, :4]
        uv = uv + noise[:, 4:].reshape(uv.shape)
    lo, hi = np.minimum(box[:, :2], box[:, 2:]), np.maximum(box[:, :2], box[:, 2:])
    box = np.concatenate([lo, hi], axis=1)
    keep = (lo >= 0).all(axis=1) & (hi[:, 0] <= width) & (hi[:, 1] <= height)
    box[~keep] = np.nan
    # A joint behind the camera stays an invisible (0, 0) row.
    u, v = uv[..., 0], uv[..., 1]
    visible = front & (0 <= u) & (u <= width) & (0 <= v) & (v <= height)
    rows = np.where(front[..., None], np.concatenate([uv, visible[..., None]], axis=-1), 0.0)
    seen = visible.any(axis=1)
    rows[~seen] = np.nan
    keep |= seen

    frame, oid, cid = (i[keep] for i in np.nonzero(present))
    annotations = AnnotationTable(
        frame, oid, cid, bbox=box[keep], keypoints=rows[keep] if J else None,
    )
    gt = TrackTable(
        frame=np.repeat(np.arange(F), N),
        object_id=np.tile(np.arange(N), F),
        position=centers.reshape(-1, 3),
        half_axes=halves.reshape(-1, 3),
        keypoints=joints.reshape(-1, J, 3) if J and N else None,
    )
    return SceneBundle(calibration=cams, annotations=annotations, skeleton=skeleton), gt
