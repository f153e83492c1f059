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

import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import OptionError
from .scene import (
    FLOOR_THICKNESS, NodeKind, OPAQUE_KINDS, Box3, SceneGraph, SceneNode, _box_columns,
)

SWEEP_SCHEMA = "sweep/1"

DEFAULT_STEP = 0.5
DEFAULT_SAMPLES_PER_EDGE = 24
#: most samples one sweep takes; a longer sweep is an OptionError, not a
#: list that grows until memory runs out
MAX_SWEEP_SAMPLES = 1_000_000
_EPS_REL = 1e-9
#: consecutive samples that share one grid query of the broadphase
_STRETCH = 32


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
    """Camera mounted above the ego's floor point, facing along its heading."""

    mount_height: float = 1.6
    horizontal_fov_deg: float = 60.0
    aspect: float = 16.0 / 9.0

    def __post_init__(self):
        if not 0.0 < self.horizontal_fov_deg < 180.0:
            raise OptionError(f"horizontal fov must be in (0, 180), got {self.horizontal_fov_deg}")
        if not 0.0 < self.mount_height < math.inf:
            raise OptionError(f"mount height must be positive and finite, got {self.mount_height}")
        if not 0.0 < self.aspect < math.inf:
            raise OptionError(f"aspect must be positive and finite, got {self.aspect}")


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
        """Boolean mask of points (N, 3) inside the frustum; a point with a
        NaN or infinite coordinate may come out NaN, and is outside."""
        with np.errstate(invalid="ignore"):
            d = points - np.asarray(self.apex)
            fwd = d @ np.asarray(self.forward)
            lat = d @ np.asarray(self.right)
            ver = d @ np.asarray(self.up)
            ok = (fwd > 0.0) & (np.abs(lat) <= fwd * self.tan_half_h) & (
                np.abs(ver) <= fwd * self.tan_half_v
            )
        return ok


def make_camera(ego: EgoPose, cfg: CameraConfig = CameraConfig()) -> Frustum:
    """Frustum for an ego pose: apex raised by the mount height above the
    slab, horizontal half-angle fov/2, vertical half-angle atan(tan(fov/2)/aspect)."""
    ax, ay = math.cos(ego.heading), math.sin(ego.heading)
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


def _cell_side(x0, y0, x1, y1, finite: np.ndarray) -> float:
    """Bucket-grid cell side for the finite boxes' xy bounds: twice
    sqrt(area / count), raised so neither axis has more than sqrt(count) + 1
    cells; 0 (no grid) where float rounding could move a box by half a cell."""
    count = int(finite.sum())
    if not count:
        return 0.0
    low = [float(v.min(where=finite, initial=math.inf)) for v in (x0, y0)]
    high = [float(v.max(where=finite, initial=-math.inf)) for v in (x1, y1)]
    width, depth = high[0] - low[0], high[1] - low[1]
    cell = max(2.0 * math.sqrt(width * depth / count), max(width, depth) / math.sqrt(count))
    reach = max(map(abs, low + high))
    return cell if 0.0 < cell < math.inf and reach <= cell * 2.0**40 else 0.0


class SceneIndex:
    """Precomputed arrays over the opaque nodes of a scene for fast ray tests.

    A uniform 2D bucket grid over the boxes' xy centres answers the AABB
    broadphase: each box sits in the one cell holding its centre, stored
    CSR-style (box ids sorted by cell key plus each cell's start offset).
    The cell side is twice sqrt(xy area / box count), raised where needed
    so neither axis has more than sqrt(box count) + 1 cells.  Boxes wider
    than a cell, and non-finite ones, go to a short list that every query
    tests.  A box no wider than a cell that meets a query range has its
    centre within half a cell of it, so visiting the cells under the range
    grown by one cell finds it; the grid only narrows which boxes the
    exact AABB test runs on, never its answer.
    """

    def __init__(self, scene: SceneGraph):
        opaque = [n for n in scene.nodes if n.kind in OPAQUE_KINDS]
        self.centers, self.halves, self.cos_yaw, self.sin_yaw, self.aabbs = _box_columns(
            [n.box for n in opaque])
        self._build_grid()
        # built last, so the peak memory of the array and grid work stays
        # below what the index keeps
        self.ids: list[str] = [n.id for n in opaque]
        self.index_of: dict[str, int] = {n.id: k for k, n in enumerate(opaque)}

    def _build_grid(self) -> None:
        x0, y0, _, x1, y1, _ = self.aabbs.T
        finite = np.isfinite(self.aabbs).all(axis=1)
        cell = _cell_side(x0, y0, x1, y1, finite)
        with np.errstate(invalid="ignore"):
            narrow = finite & (cell > 0.0) & (x1 - x0 <= cell) & (y1 - y0 <= cell)
        members = np.flatnonzero(narrow)
        self._wide = np.flatnonzero(~narrow)
        cx, cy = self.centers[members, 0], self.centers[members, 1]
        if len(members):
            self._cell = cell
            self._origin = np.array([cx.min(), cy.min()])
            self._dims = np.floor((np.array([cx.max(), cy.max()]) - self._origin) / cell) + 1.0
        else:  # a unit cell keeps queries on an empty grid in finite arithmetic
            self._cell, self._origin, self._dims = 1.0, np.zeros(2), np.zeros(2)
        # binned in place, cell key y * nx + x into cy: the build's peak
        # memory is part of every sweep's
        for col, origin, dim in zip((cx, cy), self._origin, self._dims):
            col -= origin
            col /= self._cell
            np.clip(np.floor(col, out=col), 0.0, dim - 1.0, out=col)
        keys = cy
        keys *= self._dims[0]
        keys += cx
        del cx
        order = np.argsort(keys, kind="stable")
        self._members = members[order]
        self._start = np.searchsorted(keys[order], np.arange(self._dims.prod() + 1.0))

    def candidates(self, lo: np.ndarray, hi: np.ndarray, skip: set[int]) -> list[int]:
        """Opaque nodes whose AABB intersects [lo, hi], minus skipped ones,
        in ascending index order.

        The bounds are shrunk a hair so boxes that merely touch the ray
        bundle (e.g. the floor plane vehicles rest on) are not dragged in:
        a tangential contact can never interrupt a segment strictly early.
        """
        parts = [self._wide]
        cell = self._cell
        i0, j0 = np.maximum(np.floor((lo[:2] - cell - self._origin) / cell), 0.0)
        i1, j1 = np.minimum(np.floor((hi[:2] + cell - self._origin) / cell), self._dims - 1.0)
        if i0 <= i1 and j0 <= j1:  # false for an empty grid or a NaN range
            nx, i0, i1 = int(self._dims[0]), int(i0), int(i1)
            for row in range(int(j0) * nx, int(j1) * nx + 1, nx):
                parts.append(self._members[self._start[row + i0]:self._start[row + i1 + 1]])
        near = np.concatenate(parts)
        hit = _meets(self.aabbs[near], lo, hi)
        return [k for k in np.sort(near[hit]).tolist() if k not in skip]

    def candidates_each(
        self, lo: np.ndarray, hi: np.ndarray, skip: set[int]
    ) -> list[np.ndarray]:
        """candidates() of each range [lo[r], hi[r]] (rows of (S, 3) arrays),
        as ascending index arrays, from one grid query.

        The query range is the union of the rows, folded with fmin and fmax
        so a NaN row cannot empty the others' lists.  Its candidates hold
        every row's, and each row's own exact test on them keeps exactly
        that row's list, in the same order.
        """
        if not len(lo):
            return []
        near = np.array(self.candidates(np.fmin.reduce(lo), np.fmax.reduce(hi), skip),
                        dtype=np.intp)
        return [near[hit] for hit in _meets(self.aabbs[near], lo[:, None], hi[:, None])]

    def cull_outside_wedge(
        self, subset: np.ndarray, apex_xy: tuple[float, float],
        corners_xy: list[tuple[float, float]],
    ) -> np.ndarray:
        """Drop candidates (an index array) fully outside the 2D hull of
        apex + target corners.

        Conservative separating-axis test along the hull edges only, so it
        never discards a box the rays could pass through.
        """
        if not len(subset):
            return subset
        hull = _hull_2d([apex_xy] + corners_xy)
        if len(hull) < 3:
            return subset
        # one row per hull edge a -> b, one column per box
        a, b = np.array(hull), np.array(hull[1:] + hull[:1])
        ax, ay = a[:, :1], a[:, 1:]
        # inward normal of a CCW edge; a box is outside when its corner
        # most along the normal still falls behind the edge
        nx, ny = -(b[:, 1:] - ay), b[:, :1] - ax
        box = self.aabbs[subset]
        with np.errstate(invalid="ignore"):
            best = (np.where(nx > 0, box[:, 3], box[:, 0]) - ax) * nx + (
                np.where(ny > 0, box[:, 4], box[:, 1]) - ay
            ) * ny
        return subset[(best > 0.0).all(axis=0)]

    def entry_distances(
        self, origin: np.ndarray, dirs: np.ndarray, subset
    ) -> np.ndarray:
        """Entry distance of each unit ray into each subset box, inf on miss.

        Returns an array (len(subset), nrays); rays starting inside a box
        get distance 0 for it.  One slab test over every (box, ray) pair;
        non-finite boxes and rays raise no floating-point warnings.
        """
        k = np.asarray(subset, dtype=np.intp)
        c, s = self.cos_yaw[k][:, None], self.sin_yaw[k][:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rel = origin - self.centers[k]
            rx, ry = rel[:, :1], rel[:, 1:2]
            dx, dy = dirs[:, 0], dirs[:, 1]
            # local frame: u = (c, s), v = (-s, c), w = z
            o_local = (rx * c + ry * s, -rx * s + ry * c, rel[:, 2:])
            d_local = (dx * c + dy * s, -dx * s + dy * c, dirs[:, 2])
            for axis in range(3):
                o, h, d = o_local[axis], self.halves[k, axis:axis + 1], d_local[axis]
                t1 = (-h - o) / d
                t2 = (h - o) / d
                lo_a = np.minimum(t1, t2)
                hi_a = np.maximum(t1, t2, out=t1)
                zero = np.abs(d) < 1e-15
                if zero.any():  # a ray parallel to a slab is inside it everywhere or nowhere
                    inside = np.abs(o) <= h
                    lo_a = np.where(zero, np.where(inside, -np.inf, np.inf), lo_a)
                    hi_a = np.where(zero, np.where(inside, np.inf, -np.inf), hi_a)
                if axis == 0:
                    t_lo, t_hi = lo_a, hi_a
                else:
                    np.maximum(t_lo, lo_a, out=t_lo)
                    np.minimum(t_hi, hi_a, out=t_hi)
            # an empty or NaN slab interval leaves t_hi < entry or a NaN, so the
            # one comparison below also rejects it
            entry = np.maximum(t_lo, 0.0, out=t_lo)
            np.copyto(entry, np.inf, where=~(t_hi >= entry))
        return entry


def _meets(boxes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The exact broadphase test, broadcast over AABB rows (..., 6) and
    ranges (..., 3): the box meets [lo, hi] shrunk by 1e-9 on every side."""
    return np.all(boxes[..., :3] < hi - 1e-9, axis=-1) & np.all(boxes[..., 3:] > lo + 1e-9, axis=-1)


# --- target sampling ----------------------------------------------------------


def _face_grids(box: Box3, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outward normals (6, 3), centres (6, 3) and sample points (6, s * s, 3)
    of the box's six faces, in the order +u, -u, +v, -v, +w, -w (u and v
    the yawed x and y axes, w up).  Each face carries an s x s grid at cell
    centers, so boundary samples never sit exactly on edges.  An infinite
    box gets NaN points, quietly, and the frustum test rejects them."""
    c, sn = math.cos(box.yaw), math.sin(box.yaw)
    axes = np.array([[c, sn, 0.0], [-sn, c, 0.0], [0.0, 0.0, 1.0]])
    half = np.asarray(box.half_extents, dtype=float)
    ticks = (np.arange(s) + 0.5) / s * 2.0 - 1.0  # cell centers in [-1, 1]
    axis = np.repeat(np.arange(3), 2)
    normals = axes[axis] * np.tile([1.0, -1.0], 3)[:, None]
    with np.errstate(invalid="ignore"):
        centers = np.asarray(box.center) + normals * half[axis, None]
        # the face spans its other two axes; grid point (i, j) is
        # (centre + ticks[i] * h1 * a1) + ticks[j] * h2 * a2
        a1, a2 = (axis + 1) % 3, (axis + 2) % 3
        g1 = (ticks * half[a1, None])[:, :, None, None] * axes[a1][:, None, None, :]
        g2 = (ticks * half[a2, None])[:, None, :, None] * axes[a2][:, None, None, :]
        points = centers[:, None, None, :] + g1 + g2
    return normals, centers, points.reshape(6, s * s, 3)


def _facing_points(
    grids: tuple[np.ndarray, np.ndarray, np.ndarray], apex: np.ndarray
) -> np.ndarray:
    """The sample points, (P, 3), of the faces in _face_grids' order that
    face the apex: all but those whose outward normal has a dot product
    <= 0 with the apex seen from the face centre (a NaN keeps its face)."""
    normals, centers, points = grids
    facing = [f for f in range(6) if not float(np.dot(normals[f], apex - centers[f])) <= 0.0]
    return points[facing].reshape(-1, 3)


def visible_fraction(
    scene: SceneGraph,
    ego: EgoPose,
    cfg: CameraConfig,
    target_id: str,
    *,
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE,
    ignore_ids: frozenset[str] = frozenset(),
) -> VisibilitySample:
    """Visible fraction of a target vehicle from an ego pose.

    The target itself never occludes its own sample points; nodes in
    ignore_ids (e.g. the ego's own body) are excluded as occluders too.
    """
    return _sample_pairs(
        scene, target_id, lambda target: [(ego, target)], cfg,
        samples_per_edge, ignore_ids,
    )[0]


def _sample_pairs(
    scene: SceneGraph,
    target_id: str,
    pairs: Callable[[SceneNode], Iterable[tuple[EgoPose, SceneNode]]],
    cfg: CameraConfig,
    samples_per_edge: int,
    ignore_ids: frozenset[str],
) -> tuple[VisibilitySample, ...]:
    """The one sample loop: visibility of a target vehicle over the
    (ego pose, target node) pairs that pairs(target) yields.

    The scene's index is built once per scene and kept with it.  A moved
    target keeps its id, so the index skips it as an occluder wherever the
    pair puts it.  A node's face grids are built when it first appears, so
    a target that stays put (a sweep) has them built once.  The pairs are
    taken in stretches of _STRETCH, and the samples of a stretch share one
    grid query of the broadphase.
    """
    if not (isinstance(samples_per_edge, numbers.Integral) and samples_per_edge >= 1):
        raise OptionError(f"samples per edge must be a positive integer, got {samples_per_edge!r}")
    target = scene.node(target_id)
    if target.kind is not NodeKind.VEHICLE:
        raise ValueError(f"target {target_id!r} is {target.kind.value}, not a vehicle")
    index = scene.index
    skip = {index.index_of[i] for i in (set(ignore_ids) | {target_id}) if i in index.index_of}
    samples = []
    node_seen = grids = bounds = None
    stream = iter(pairs(target))
    while stretch := list(islice(stream, _STRETCH)):
        # per sample: ego, target node, its AABB, camera apex and the
        # target's sample points in the frustum
        views = []
        for ego, node in stretch:
            if node is not node_seen:
                node_seen, grids = node, _face_grids(node.box, samples_per_edge)
                bounds = node.box.aabb
            frustum = make_camera(ego, cfg)
            apex = np.asarray(frustum.apex)
            points = _facing_points(grids, apex)
            views.append((ego, node, bounds, apex, points[frustum.contains(points)]))
        # the broadphase of the samples in view: each gets the candidates
        # of the box spanned by its camera and its target
        shown = [v for v in views if len(v[4])]
        near = iter(())
        if shown:
            box, apexes = np.array([v[2] for v in shown]), np.array([v[3] for v in shown])
            near = iter(index.candidates_each(
                np.minimum(box[:, :3], apexes), np.maximum(box[:, 3:], apexes), skip))
        samples += [_sample_from_points(index, *v, next(near) if len(v[4]) else None)
                    for v in views]
    return tuple(samples)


def _sample_from_points(
    index: SceneIndex,
    ego: EgoPose,
    target: SceneNode,
    t_aabb: tuple[float, ...],
    apex: np.ndarray,
    pts: np.ndarray,
    subset: np.ndarray | None,
) -> VisibilitySample:
    """One sample from the target's sample points in the frustum, pts, and
    the broadphase candidates of the camera and target range, subset."""
    total = len(pts)
    if total == 0:
        return VisibilitySample(ego, target.id, 0.0, False, ())

    rel = pts - apex[None, :]
    # the Euclidean norm as np.linalg.norm computes it
    dist = np.sqrt(np.add.reduce(rel * rel, axis=1))
    dirs = rel / dist[:, None]

    subset = index.cull_outside_wedge(
        subset,
        (float(apex[0]), float(apex[1])),
        [(t_aabb[0], t_aabb[1]), (t_aabb[3], t_aabb[1]),
         (t_aabb[3], t_aabb[4]), (t_aabb[0], t_aabb[4])],
    )

    if len(subset):
        t = index.entry_distances(apex, dirs, subset)
        # the first nearest box of each ray: argmin takes the element min
        # would, NaN included
        first = t.argmin(axis=0)
        blocked = t[first, np.arange(total)] < dist * (1.0 - _EPS_REL)
        counts = np.bincount(first[blocked], minlength=len(subset))
        hits = np.flatnonzero(counts)
        visible = total - int(counts.sum())
        contrib = sorted(((index.ids[k], cnt) for k, cnt in
                          zip(subset[hits].tolist(), counts[hits].tolist())),
                         key=lambda kv: (-kv[1], kv[0]))
        occluders = tuple((nid, cnt / total) for nid, cnt in contrib)
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
    not sampled).  The step must be positive and finite, and the count at
    most MAX_SWEEP_SAMPLES (OptionError)."""
    if not 0.0 < step < math.inf:
        raise OptionError(f"step must be positive and finite, got {step}")
    ratio = total / step + 1e-9
    if not ratio < MAX_SWEEP_SAMPLES:
        raise OptionError(f"a {total} m sweep at step {step} m takes more than"
                          f" {MAX_SWEEP_SAMPLES} samples")
    count = int(math.floor(ratio)) + 1
    return [k * step for k in range(count)]


def sweep(
    scene: SceneGraph,
    path,
    cfg: CameraConfig,
    target_id: str,
    step: float = DEFAULT_STEP,
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

