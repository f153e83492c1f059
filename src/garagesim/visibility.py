"""Pinhole-camera ray casting: what fraction of a target box is visible.

The camera sits mount_height above the slab at the ego's 2D position,
looking along the ego heading with a symmetric horizontal field of view;
the vertical half-angle follows from the aspect ratio.  Visibility of a
target is measured by sampling a point grid on each camera-facing face of
its box and ray-casting from the camera apex: a point counts as visible
when it lies inside the frustum and no other opaque node interrupts the
segment.  The fraction is visible points over frustum-eligible points, so
everything is deterministic: no randomness anywhere.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .scene import FLOOR_THICKNESS, NodeKind, OPAQUE_KINDS, SceneGraph, SceneNode

SWEEP_SCHEMA = "sweep/1"

DEFAULT_SAMPLES_PER_EDGE = 24
_EPS_REL = 1e-9


def _hull_2d(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """CCW convex hull (monotone chain) of a handful of points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def build(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class CameraConfig:
    """Camera mounted above the ego's floor point, facing forward.

    forward is the camera axis in the ego frame (x ahead, y to the right);
    the default is a straight front-facing mount.
    """

    mount_height: float = 1.6
    horizontal_fov_deg: float = 60.0
    aspect: float = 16.0 / 9.0
    forward: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.horizontal_fov_deg < 180.0:
            raise ValueError(f"horizontal fov must be in (0, 180), got {self.horizontal_fov_deg}")
        if not 0.0 < self.mount_height < math.inf:
            raise ValueError(f"mount height must be positive and finite, got {self.mount_height}")
        if not 0.0 < self.aspect < math.inf:
            raise ValueError(f"aspect must be positive and finite, got {self.aspect}")
        if not (all(map(math.isfinite, self.forward)) and math.hypot(*self.forward) > 0.0):
            raise ValueError(f"forward must be a finite non-zero vector, got {self.forward}")


@dataclass(frozen=True)
class EgoPose:
    position: tuple[float, float]
    heading: float  # radians, 0 = +x (east), pi/2 = +y (south)


@dataclass(frozen=True)
class Frustum:
    apex: tuple[float, float, float]
    forward: tuple[float, float, float]
    right: tuple[float, float, float]
    up: tuple[float, float, float]
    tan_half_h: float
    tan_half_v: float

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points (N, 3) inside the frustum."""
        d = points - np.asarray(self.apex)
        fwd = d @ np.asarray(self.forward)
        lat = d @ np.asarray(self.right)
        ver = d @ np.asarray(self.up)
        with np.errstate(invalid="ignore"):
            ok = (fwd > 0.0) & (np.abs(lat) <= fwd * self.tan_half_h) & (
                np.abs(ver) <= fwd * self.tan_half_v
            )
        return ok

    def contains_point(self, point: tuple[float, float, float]) -> bool:
        return bool(self.contains(np.asarray([point], dtype=float))[0])


def make_camera(ego: EgoPose, cfg: CameraConfig = CameraConfig()) -> Frustum:
    """Frustum for an ego pose: apex raised by the mount height above the
    slab, horizontal half-angle fov/2, vertical half-angle atan(tan(fov/2)/aspect)."""
    ch, sh = math.cos(ego.heading), math.sin(ego.heading)
    fx, fy = cfg.forward
    norm = math.hypot(fx, fy)
    fx, fy = fx / norm, fy / norm
    # rotate the ego-frame axis into the world
    ax = fx * ch - fy * sh
    ay = fx * sh + fy * ch
    tan_h = math.tan(math.radians(cfg.horizontal_fov_deg) / 2.0)
    return Frustum(
        apex=(ego.position[0], ego.position[1], FLOOR_THICKNESS + cfg.mount_height),
        forward=(ax, ay, 0.0),
        right=(-ay, ax, 0.0),
        up=(0.0, 0.0, 1.0),
        tan_half_h=tan_h,
        tan_half_v=tan_h / cfg.aspect,
    )


@dataclass(frozen=True)
class VisibilitySample:
    ego: EgoPose
    target_id: str
    visible_fraction: float
    in_frustum: bool
    occluders: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class OcclusionSweep:
    samples: tuple[VisibilitySample, ...]
    step: float
    path: tuple[EgoPose, ...]
    swept: str = "ego"  # "target" when the scenario moves the target instead


# --- scene index -----------------------------------------------------------------


class SceneIndex:
    """Precomputed arrays over the opaque nodes of a scene for fast ray tests."""

    def __init__(self, scene: SceneGraph):
        opaque = [n for n in scene.nodes if n.kind in OPAQUE_KINDS]
        self.ids: list[str] = [n.id for n in opaque]
        self.index_of: dict[str, int] = {n.id: k for k, n in enumerate(opaque)}
        k = len(opaque)
        self.centers = np.zeros((k, 3))
        self.halves = np.zeros((k, 3))
        self.cos_yaw = np.zeros(k)
        self.sin_yaw = np.zeros(k)
        self.aabbs = np.zeros((k, 6))
        for idx, n in enumerate(opaque):
            self.centers[idx] = n.box.center
            self.halves[idx] = n.box.half_extents
            self.cos_yaw[idx] = math.cos(n.box.yaw)
            self.sin_yaw[idx] = math.sin(n.box.yaw)
            self.aabbs[idx] = n.box.aabb

    def candidates(self, lo: np.ndarray, hi: np.ndarray, skip: set[int]) -> list[int]:
        """Opaque nodes whose AABB intersects [lo, hi], minus skipped ones.

        The bounds are shrunk a hair so boxes that merely touch the ray
        bundle (e.g. the floor plane vehicles rest on) are not dragged in:
        a tangential contact can never interrupt a segment strictly early.
        """
        if not self.ids:
            return []
        hit = np.all(self.aabbs[:, :3] < hi - 1e-9, axis=1) & np.all(
            self.aabbs[:, 3:] > lo + 1e-9, axis=1
        )
        return [k for k in np.nonzero(hit)[0].tolist() if k not in skip]

    def cull_outside_wedge(
        self, subset: list[int], apex_xy: tuple[float, float],
        corners_xy: list[tuple[float, float]],
    ) -> list[int]:
        """Drop candidates fully outside the 2D hull of apex + target corners.

        Conservative separating-axis test along the hull edges only, so it
        never discards a box the rays could pass through.
        """
        if not subset:
            return subset
        hull = _hull_2d([apex_xy] + corners_xy)
        if len(hull) < 3:
            return subset
        idx = np.asarray(subset)
        x0, y0 = self.aabbs[idx, 0], self.aabbs[idx, 1]
        x1, y1 = self.aabbs[idx, 3], self.aabbs[idx, 4]
        keep = np.ones(len(subset), dtype=bool)
        for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
            # inward normal of a CCW edge; a box is outside when its corner
            # most along the normal still falls behind the edge
            nx, ny = -(by - ay), bx - ax
            best = (np.where(nx > 0, x1, x0) - ax) * nx + (
                np.where(ny > 0, y1, y0) - ay
            ) * ny
            keep &= best > 0.0
        return [subset[k] for k in np.nonzero(keep)[0].tolist()]

    def entry_distances(
        self, origin: np.ndarray, dirs: np.ndarray, subset: list[int]
    ) -> np.ndarray:
        """Entry distance of each unit ray into each subset box, inf on miss.

        Returns an array (len(subset), nrays); rays starting inside a box
        get distance 0 for it.
        """
        nrays = dirs.shape[0]
        out = np.full((len(subset), nrays), np.inf)
        for row, k in enumerate(subset):
            c, s = self.cos_yaw[k], self.sin_yaw[k]
            rel = origin - self.centers[k]
            # local frame: u = (c, s), v = (-s, c), w = z
            o_local = (
                rel[0] * c + rel[1] * s,
                -rel[0] * s + rel[1] * c,
                rel[2],
            )
            d_local = np.stack(
                [
                    dirs[:, 0] * c + dirs[:, 1] * s,
                    -dirs[:, 0] * s + dirs[:, 1] * c,
                    dirs[:, 2],
                ],
                axis=1,
            )
            t_lo = np.full(nrays, -np.inf)
            t_hi = np.full(nrays, np.inf)
            ok = np.ones(nrays, dtype=bool)
            for axis in range(3):
                o, h = o_local[axis], self.halves[k][axis]
                d = d_local[:, axis]
                zero = np.abs(d) < 1e-15
                with np.errstate(divide="ignore", invalid="ignore"):
                    t1 = (-h - o) / d
                    t2 = (h - o) / d
                lo_a = np.minimum(t1, t2)
                hi_a = np.maximum(t1, t2)
                if zero.any():
                    inside = abs(o) <= h
                    lo_a = np.where(zero, -np.inf if inside else np.inf, lo_a)
                    hi_a = np.where(zero, np.inf if inside else -np.inf, hi_a)
                t_lo = np.maximum(t_lo, lo_a)
                t_hi = np.minimum(t_hi, hi_a)
                ok &= hi_a >= lo_a
            entry = np.maximum(t_lo, 0.0)
            hit = ok & (t_hi >= entry)
            out[row, hit] = entry[hit]
        return out


def ray_intersect(
    scene: SceneGraph,
    origin: tuple[float, float, float],
    direction: tuple[float, float, float],
    ignore: frozenset[str] | set[str] = frozenset(),
) -> tuple[str, float] | None:
    """Nearest opaque node hit by a unit ray, or None.

    Lamps and markings never block; nodes listed in ignore are skipped.
    """
    index = SceneIndex(scene)
    if not index.ids:
        return None
    subset = [k for k in range(len(index.ids)) if index.ids[k] not in ignore]
    if not subset:
        return None
    dirs = np.asarray([direction], dtype=float)
    norm = float(np.linalg.norm(dirs))
    if not math.isclose(norm, 1.0, rel_tol=1e-6):
        raise ValueError(f"direction must be a unit vector, |d|={norm}")
    t = index.entry_distances(np.asarray(origin, dtype=float), dirs, subset)[:, 0]
    best = int(np.argmin(t))
    if not np.isfinite(t[best]):
        return None
    return index.ids[subset[best]], float(t[best])


# --- target sampling ----------------------------------------------------------


def _face_points(node: SceneNode, apex: np.ndarray, s: int) -> np.ndarray:
    """Sample points on every camera-facing face of the node's box, (P, 3).

    Each face carries an s x s grid at cell centers, so boundary samples
    never sit exactly on edges.
    """
    box = node.box
    c, sn = math.cos(box.yaw), math.sin(box.yaw)
    u = np.array([c, sn, 0.0])
    v = np.array([-sn, c, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    axes = (u, v, w)
    center = np.asarray(box.center)
    half = box.half_extents
    ticks = (np.arange(s) + 0.5) / s * 2.0 - 1.0  # cell centers in [-1, 1]
    faces = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            normal = axes[axis] * sign
            face_center = center + normal * half[axis]
            if float(np.dot(normal, apex - face_center)) <= 0.0:
                continue
            a1, a2 = (axes[(axis + 1) % 3], axes[(axis + 2) % 3])
            h1, h2 = half[(axis + 1) % 3], half[(axis + 2) % 3]
            g1, g2 = np.meshgrid(ticks * h1, ticks * h2, indexing="ij")
            pts = (
                face_center[None, :]
                + g1.reshape(-1, 1) * a1[None, :]
                + g2.reshape(-1, 1) * a2[None, :]
            )
            faces.append(pts)
    if not faces:
        return np.zeros((0, 3))
    return np.concatenate(faces, axis=0)


def visible_fraction(
    scene: SceneGraph,
    ego: EgoPose,
    cfg: CameraConfig,
    target_id: str,
    *,
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE,
    ignore_ids: frozenset[str] = frozenset(),
    index: SceneIndex | None = None,
) -> VisibilitySample:
    """Visible fraction of a target vehicle from an ego pose.

    The target itself never occludes its own sample points; nodes in
    ignore_ids (e.g. the ego's own body) are excluded as occluders too.
    """
    return _sample_pairs(
        scene, target_id, lambda target: [(ego, target)], cfg,
        samples_per_edge, ignore_ids, index,
    )[0]


def _sample_pairs(
    scene: SceneGraph,
    target_id: str,
    pairs: Callable[[SceneNode], Iterable[tuple[EgoPose, SceneNode]]],
    cfg: CameraConfig,
    samples_per_edge: int,
    ignore_ids: frozenset[str],
    index: SceneIndex | None = None,
) -> tuple[VisibilitySample, ...]:
    """The one sample loop: visibility of a target vehicle over the
    (ego pose, target node) pairs that pairs(target) yields.

    The index is built once over the scene.  A moved target keeps its id,
    so the index skips it as an occluder wherever the pair puts it.
    """
    target = scene.node(target_id)
    if target.kind is not NodeKind.VEHICLE:
        raise ValueError(f"target {target_id!r} is {target.kind.value}, not a vehicle")
    if index is None:
        index = SceneIndex(scene)
    samples = []
    for ego, node in pairs(target):
        frustum = make_camera(ego, cfg)
        apex = np.asarray(frustum.apex)
        points = _face_points(node, apex, samples_per_edge)
        samples.append(_sample_from_points(index, frustum, apex, points, ego, node, ignore_ids))
    return tuple(samples)


def _sample_from_points(
    index: SceneIndex,
    frustum: Frustum,
    apex: np.ndarray,
    points: np.ndarray,
    ego: EgoPose,
    target: SceneNode,
    ignore_ids: frozenset[str],
) -> VisibilitySample:
    eligible = frustum.contains(points)
    total = int(eligible.sum())
    if total == 0:
        return VisibilitySample(ego, target.id, 0.0, False, ())

    pts = points[eligible]
    rel = pts - apex[None, :]
    dist = np.linalg.norm(rel, axis=1)
    dirs = rel / dist[:, None]

    skip = {index.index_of[i] for i in (set(ignore_ids) | {target.id}) if i in index.index_of}
    t_aabb = target.box.aabb
    lo = np.minimum(np.asarray(t_aabb[:3]), apex)
    hi = np.maximum(np.asarray(t_aabb[3:]), apex)
    subset = index.candidates(lo, hi, skip)
    subset = index.cull_outside_wedge(
        subset,
        (float(apex[0]), float(apex[1])),
        [(t_aabb[0], t_aabb[1]), (t_aabb[3], t_aabb[1]),
         (t_aabb[3], t_aabb[4]), (t_aabb[0], t_aabb[4])],
    )

    if subset:
        t = index.entry_distances(apex, dirs, subset)
        nearest = t.min(axis=0)
        blocked = nearest < dist * (1.0 - _EPS_REL)
        visible = int((~blocked).sum())
        contrib: dict[str, int] = {}
        if blocked.any():
            who = np.asarray(subset)[np.argmin(t, axis=0)]
            for k in who[blocked]:
                node_id = index.ids[int(k)]
                contrib[node_id] = contrib.get(node_id, 0) + 1
        occluders = tuple(
            (nid, cnt / total)
            for nid, cnt in sorted(contrib.items(), key=lambda kv: (-kv[1], kv[0]))
        )
    else:
        visible = total
        occluders = ()
    return VisibilitySample(ego, target.id, visible / total, True, occluders)


# --- sweeps ---------------------------------------------------------------------


def _as_poses(path) -> tuple[EgoPose, ...]:
    poses = []
    pts = list(path)
    if not pts:
        raise ValueError("path needs at least one vertex")
    raw = [
        (p.position[0], p.position[1]) if isinstance(p, EgoPose) else (float(p[0]), float(p[1]))
        for p in pts
    ]
    for k, (x, y) in enumerate(raw):
        if k + 1 < len(raw):
            dx, dy = raw[k + 1][0] - x, raw[k + 1][1] - y
        elif k > 0:
            dx, dy = x - raw[k - 1][0], y - raw[k - 1][1]
        else:
            dx = dy = 0.0
        if dx == 0.0 and dy == 0.0:
            heading = pts[k].heading if isinstance(pts[k], EgoPose) else 0.0
        else:
            heading = math.atan2(dy, dx)
        poses.append(EgoPose((x, y), heading))
    return tuple(poses)


def path_length(path: tuple[EgoPose, ...]) -> float:
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += math.hypot(b.position[0] - a.position[0], b.position[1] - a.position[1])
    return total


def pose_at(path: tuple[EgoPose, ...], s: float) -> EgoPose:
    """Pose at arc length s: position on the polyline, heading along the
    local segment (clamped to the ends)."""
    if len(path) == 1:
        return path[0]
    remaining = max(s, 0.0)
    for a, b in zip(path, path[1:]):
        dx = b.position[0] - a.position[0]
        dy = b.position[1] - a.position[1]
        seg = math.hypot(dx, dy)
        if seg <= 0.0:
            continue
        if remaining <= seg:
            f = remaining / seg
            return EgoPose(
                (a.position[0] + f * dx, a.position[1] + f * dy), math.atan2(dy, dx)
            )
        remaining -= seg
    return path[-1]


def sample_arclengths(total: float, step: float) -> list[float]:
    """Arc lengths of sweep samples: multiples of step from 0, inclusive of
    0, up to the path length (a trailing remainder shorter than step is
    not sampled)."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    count = int(math.floor(total / step + 1e-9)) + 1
    return [k * step for k in range(count)]


def sweep(
    scene: SceneGraph,
    path,
    cfg: CameraConfig,
    target_id: str,
    step: float = 0.5,
    *,
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE,
    ignore_ids: frozenset[str] = frozenset(),
) -> OcclusionSweep:
    """Visibility of one target from poses every `step` meters along a path."""
    poses = _as_poses(path)
    samples = _sample_pairs(
        scene, target_id,
        lambda target: ((pose_at(poses, s), target)
                        for s in sample_arclengths(path_length(poses), step)),
        cfg, samples_per_edge, ignore_ids,
    )
    return OcclusionSweep(samples=samples, step=step, path=poses, swept="ego")


# --- export ---------------------------------------------------------------------

SWEEP_CSV_HEADER = "s_m,x,y,heading_rad,in_frustum,visible_fraction,confidence_ext"


def sweep_csv(sw: OcclusionSweep) -> str:
    """CSV mirror of a sweep.  x, y and heading describe the swept entity
    (the ego, or the target in swapped-role scenarios); confidence_ext is
    left empty for joining externally measured detector confidences."""
    lines = [SWEEP_CSV_HEADER]
    for k, sample in enumerate(sw.samples):
        s = k * sw.step
        pose = pose_at(sw.path, s)
        lines.append(
            f"{s!r},{pose.position[0]!r},{pose.position[1]!r},{pose.heading!r},"
            f"{'true' if sample.in_frustum else 'false'},{sample.visible_fraction!r},"
        )
    return "\n".join(lines) + "\n"


def sweep_document(sw: OcclusionSweep) -> dict:
    return {
        "schema": SWEEP_SCHEMA,
        "step_m": sw.step,
        "swept": sw.swept,
        "path": [
            {"x": p.position[0], "y": p.position[1], "heading_rad": p.heading}
            for p in sw.path
        ],
        "samples": [
            {
                "s_m": k * sw.step,
                "ego": {
                    "x": s.ego.position[0],
                    "y": s.ego.position[1],
                    "heading_rad": s.ego.heading,
                },
                "target_id": s.target_id,
                "in_frustum": s.in_frustum,
                "visible_fraction": s.visible_fraction,
                "occluders": [[nid, frac] for nid, frac in s.occluders],
            }
            for k, s in enumerate(sw.samples)
        ],
    }


def emit_sweep(sw: OcclusionSweep) -> str:
    return json.dumps(sweep_document(sw), indent=2, sort_keys=True) + "\n"
