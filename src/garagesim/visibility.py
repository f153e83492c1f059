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

import functools
import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import OptionError
from .scene import (
    FLOOR_THICKNESS, NodeKind, OPAQUE_KINDS, Box3, SceneGraph, _bounded,
)

SWEEP_SCHEMA = "sweep/1"

DEFAULT_STEP = 0.5
DEFAULT_SAMPLES_PER_EDGE = 24
#: most samples one sweep takes; a longer sweep is an OptionError, not a
#: list that grows until memory runs out
MAX_SWEEP_SAMPLES = 1_000_000
_EPS_REL = 1e-9
#: consecutive samples whose cameras, verdicts, facing faces, broadphase,
#: wedge cull and box frames the sample loop takes as one step
_STRETCH = 32
_UP = (0.0, 0.0, 1.0)


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
    """A level camera's frustum: up is +z for every camera make_camera
    builds, and view reads a point's height off its z."""

    apex: tuple[float, float, float]
    forward: tuple[float, float, float]
    right: tuple[float, float, float]
    up: tuple[float, float, float]
    tan_half_h: float
    tan_half_v: float

    def view(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points (N, 3) seen from the apex, points - apex, and the
        boolean mask of those inside the frustum (_in_view)."""
        d = points - np.asarray(self.apex)
        return d, _in_view(d, np.asarray(self.forward), np.asarray(self.right),
                           self.tan_half_h, self.tan_half_v)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points (N, 3) inside the frustum (see view)."""
        return self.view(points)[1]


def _in_view(d: np.ndarray, forward: np.ndarray, right: np.ndarray,
             tan_h: float, tan_v: float) -> np.ndarray:
    """Mask of the points seen from a level camera's apex as d (N, 3) that
    lie inside its frustum.  The forward and lateral offsets are one matmul
    each, whose bits follow d's layout, so the sample loop gives d C-ordered
    as view's subtraction does; the vertical offset d @ up of a level camera
    has the magnitude of d's z exactly."""
    fwd = d @ forward
    return (fwd > 0.0) & (np.abs(d @ right) <= fwd * tan_h) & (np.abs(d[:, 2]) <= fwd * tan_v)


def _cameras(egos, cfg: CameraConfig) -> tuple[np.ndarray, ...]:
    """The camera of each ego pose, as make_camera builds it: the apexes,
    forward and right vectors as rows (S, 3), and tan(fov/2) and the
    vertical slope tan(fov/2)/aspect.  Headings turn into vectors through
    math.cos and math.sin, one pose at a time; a pose that is the same
    object as the one before it (a target sweep's ego) is not read again.
    An apex, heading or vertical slope that is not finite or lies past
    BOX_MAX is an OptionError."""
    tan_h = math.tan(math.radians(cfg.horizontal_fov_deg) / 2.0)
    tan_v, height = tan_h / cfg.aspect, FLOOR_THICKNESS + cfg.mount_height
    rows, seen = [], None
    for ego in egos:
        if ego is not seen:
            seen, apex = ego, (*ego.position, height)
            if not _bounded((*apex, ego.heading, tan_v)):
                raise OptionError(f"ego pose must be finite and below 2**129 in magnitude, as"
                                  f" must the camera; got position {ego.position}, heading"
                                  f" {ego.heading}, mount height {cfg.mount_height} and aspect"
                                  f" {cfg.aspect}")
            ax, ay = math.cos(ego.heading), math.sin(ego.heading)
            row = (*apex, ax, ay, 0.0, -ay, ax, 0.0)
        rows.append(row)
    table = np.array(rows, dtype=float).reshape(-1, 9)
    apex, forward, right = (np.ascontiguousarray(table[:, k:k + 3]) for k in (0, 3, 6))
    return apex, forward, right, tan_h, tan_v


def make_camera(ego: EgoPose, cfg: CameraConfig = CameraConfig()) -> Frustum:
    """Frustum for an ego pose: apex raised by the mount height above the
    slab, horizontal half-angle fov/2, vertical half-angle atan(tan(fov/2)/aspect).
    An apex, heading or vertical slope tan(fov/2)/aspect that is not finite
    or lies past BOX_MAX is an OptionError."""
    apex, forward, right, tan_h, tan_v = _cameras([ego], cfg)
    return Frustum(
        apex=tuple(apex[0].tolist()),
        forward=tuple(forward[0].tolist()),
        right=tuple(right[0].tolist()),
        up=_UP,
        tan_half_h=tan_h,
        tan_half_v=tan_v,
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


def _cell_side(x0, y0, x1, y1) -> float:
    """Bucket-grid cell side for the boxes' xy bounds: twice sqrt(area /
    count), raised so neither axis has more than sqrt(count) + 1 cells; 0
    (no grid) where float rounding could move a box by half a cell."""
    count = len(x0)
    if not count:
        return 0.0
    low = [float(x0.min()), float(y0.min())]
    high = [float(x1.max()), float(y1.max())]
    width, depth = high[0] - low[0], high[1] - low[1]
    cell = max(2.0 * math.sqrt(width * depth / count), max(width, depth) / math.sqrt(count))
    reach = max(map(abs, low + high))
    return cell if 0.0 < cell and reach <= cell * 2.0**40 else 0.0


class SceneIndex:
    """Precomputed arrays over the opaque nodes of a scene for fast ray tests.

    A uniform 2D bucket grid over the boxes' xy centres answers the AABB
    broadphase: each box sits in the one cell holding its centre, stored
    CSR-style (box ids sorted by cell key plus each cell's start offset).
    The cell side is twice sqrt(xy area / box count), raised where needed
    so neither axis has more than sqrt(box count) + 1 cells.  Boxes wider
    than a cell go to a short list that every query tests.  Every box value
    is finite and at most BOX_MAX (Box3's check), so no bound or cell key
    overflows.  A box no wider than a cell that meets a query range has its
    centre within half a cell of it, so visiting the cells under the range
    grown by one cell finds it; the grid only narrows which boxes the
    exact AABB test runs on, never its answer.
    """

    def __init__(self, scene: SceneGraph, opaque=None):
        """The index of the scene's opaque boxes.  opaque, where given, is
        their ids and their columns, as _BoxTable.columns gives them; the
        index keeps these as they are."""
        if opaque is None:
            table = scene._table.take(scene._table.kind_mask(OPAQUE_KINDS))
            opaque = table.ids, table.columns()
            del table  # its box values, copied into the columns, go before the grid work
        self.ids: list[str] = opaque[0]
        self.centers, self.halves, self.cos_yaw, self.sin_yaw, self.aabbs = opaque[1]
        del opaque
        self._build_grid()
        # built last, so the peak memory of the grid work stays below what the
        # index keeps; back to front, so the first of equal ids wins (as in node())
        self.index_of = dict(zip(reversed(self.ids), range(len(self.ids) - 1, -1, -1)))

    def _build_grid(self) -> None:
        x0, y0, _, x1, y1, _ = self.aabbs.T
        cell = _cell_side(x0, y0, x1, y1)
        narrow = (cell > 0.0) & (x1 - x0 <= cell) & (y1 - y0 <= cell)
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
        """candidates() of each range [lo[r], hi[r]] (rows of (S, 3) arrays
        with no NaN), as ascending index arrays, from one grid query.

        The query range is the union of the rows.  Its candidates hold
        every row's, and each row's own exact test on them keeps exactly
        that row's list, in the same order.
        """
        if not len(lo):
            return []
        near = np.array(self.candidates(lo.min(axis=0), hi.max(axis=0), skip), dtype=np.intp)
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
        return self._cull_wedges([subset], [_hull_2d([apex_xy] + corners_xy)])[0]

    def _cull_wedges(
        self, subsets: list[np.ndarray], hulls: list[list[tuple[float, float]]]
    ) -> list[np.ndarray]:
        """cull_outside_wedge of each candidate array against the hull
        beside it, as one separating-axis test over every candidate: row
        per candidate, column per edge of its hull.  Hulls are padded to one
        width with their first edge, which tests nothing new; a hull of
        fewer than three vertices keeps every candidate it has."""
        width = max(len(hull) for hull in hulls)
        edges, loose = [], []
        for hull in hulls:
            loose.append(len(hull) < 3)
            ring = [(*a, *b) for a, b in zip(hull, hull[1:] + hull[:1])] if len(hull) >= 3 \
                else [(0.0, 0.0, 0.0, 0.0)]
            edges.append(ring + ring[:1] * (width - len(ring)))
        owner = np.repeat(np.arange(len(subsets)), [len(subset) for subset in subsets])
        ax, ay, bx, by = np.array(edges, dtype=float)[owner].transpose(2, 0, 1)
        # inward normal of a CCW edge a -> b; a box is outside when its
        # corner most along the normal still falls behind the edge
        nx, ny = -(by - ay), bx - ax
        box = self.aabbs[np.concatenate(subsets)]
        best = (np.where(nx > 0, box[:, 3:4], box[:, :1]) - ax) * nx + (
            np.where(ny > 0, box[:, 4:5], box[:, 1:2]) - ay
        ) * ny
        keep = (best > 0.0).all(axis=1) | np.array(loose)[owner]
        ends = np.cumsum([len(subset) for subset in subsets])
        return [subset[kept] for subset, kept in zip(subsets, np.split(keep, ends[:-1]))]

    def entry_distances(
        self, origin: np.ndarray, dirs: np.ndarray, subset
    ) -> np.ndarray:
        """Entry distance of each unit ray into each subset box, inf on miss.

        Returns an array (len(subset), nrays); rays starting inside a box
        get distance 0 for it.  The origin goes into each box's frame
        (_frames), and the rays are read as three contiguous coordinate
        columns (a copy, unless dirs is column-major) for _slabs.
        """
        k = np.asarray(subset, dtype=np.intp)
        return self._slabs(self._frames(origin, k), k, np.ascontiguousarray(dirs.T))

    def _frames(self, origins: np.ndarray, boxes: np.ndarray) -> tuple[np.ndarray, list]:
        """Ray origins, one (3,) for every box or one row per box, in the
        local frames of the boxes, u = (c, s), v = (-s, c), w = z for a box
        of yaw (cos c, sin s), as rows (len(boxes), 3); and each box's
        (c, s) as Python floats.  Row by row, so the sample loop takes the
        frames of a whole stretch's (sample, kept box) pairs at once."""
        c, s = self.cos_yaw[boxes], self.sin_yaw[boxes]
        rel = origins - self.centers[boxes]
        rx, ry, cc, ss = rel[:, :1], rel[:, 1:2], c[:, None], s[:, None]
        local = np.concatenate((rx * cc + ry * ss, -rx * ss + ry * cc, rel[:, 2:]), axis=1)
        return local, list(zip(c.tolist(), s.tolist()))

    def _slabs(self, frames: tuple[np.ndarray, list], boxes: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
        """Entry distances (len(boxes), nrays) of unit rays, three
        contiguous direction columns cols, from the origin in the boxes'
        frames (_frames).  The slab test runs once per distinct (cos, sin)
        of yaw among the boxes, on the ray columns turned into that yaw's
        frame; each group's rows go back in box order.  Unrotated boxes (cos
        1, sin 0) take the columns as they are, where turning them by x * 1
        + y * 0 can change only the sign of a zero component, which takes
        the parallel-ray branch either way; so every distance keeps the
        per-box loop's bits."""
        local, yaws = frames
        groups: dict[tuple[float, float], list[int]] = {}
        for row, yaw in enumerate(yaws):
            groups.setdefault(yaw, []).append(row)
        halves, rays = self.halves[boxes], (cols, _parallel(cols))
        if len(groups) == 1:  # every row in one pass, no gather or scatter
            (yaw, _), = groups.items()
            return _slab(local, halves, *_turned(rays, *yaw))
        entry = np.empty((len(boxes), cols.shape[1]))
        for yaw, rows in groups.items():
            entry[rows] = _slab(local[rows], halves[rows], *_turned(rays, *yaw))
        return entry


def _parallel(cols) -> list:
    """Per direction column, the mask of the components too near 0 to
    divide by, or None where there is none."""
    zero = np.abs(cols) < 1e-15
    return [mask if found else None for mask, found in zip(zero, zero.any(axis=1).tolist())]


def _turned(rays, c: float, s: float):
    """Ray direction columns and their _parallel masks, in the frame of a
    box of yaw (cos c, sin s); an unrotated box takes them as they are."""
    cols, parallel = rays
    if c == 1.0 and s == 0.0:
        return rays
    dx, dy, dz = cols
    turned = dx * c + dy * s, -dx * s + dy * c
    return (*turned, dz), _parallel(turned) + parallel[2:]


def _slab(o: np.ndarray, halves: np.ndarray, dirs, parallel) -> np.ndarray:
    """Kay-Kajiya slab test of boxes that share one yaw: the ray origin in
    each box's frame and its half extents (n, 3), the ray directions in
    that frame as three coordinate columns and their _parallel masks;
    entry distances (n, nrays), inf on a miss.  Box values and the ray
    origin are at most BOX_MAX, so only a division by a direction component
    under the _parallel mask could overflow, divide by zero or give 0/0;
    those lanes divide by 1 instead and are replaced after, so no
    floating-point warning can arise."""
    # the offsets of each box's two slab planes along its three axes
    near, far = -halves - o, halves - o
    for axis in range(3):
        d, zero = dirs[axis], parallel[axis]
        if zero is not None:
            d = np.where(zero, 1.0, d)
        t1 = near[:, axis:axis + 1] / d
        t2 = far[:, axis:axis + 1] / d
        lo_a = np.minimum(t1, t2)
        hi_a = np.maximum(t1, t2, out=t1)
        if zero is not None:  # a ray parallel to a slab is inside it everywhere or nowhere
            inside = np.abs(o[:, axis:axis + 1]) <= halves[:, axis:axis + 1]
            lo_a = np.where(zero, np.where(inside, -np.inf, np.inf), lo_a)
            hi_a = np.where(zero, np.where(inside, np.inf, -np.inf), hi_a)
        if axis == 0:
            t_lo, t_hi = lo_a, hi_a
        else:
            np.maximum(t_lo, lo_a, out=t_lo)
            np.minimum(t_hi, hi_a, out=t_hi)
    # an empty slab interval leaves t_hi < entry, so the one comparison
    # below also rejects it
    entry = np.maximum(t_lo, 0.0, out=t_lo)
    return np.where(t_hi >= entry, entry, np.inf)


def _meets(boxes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The exact broadphase test, broadcast over AABB rows (..., 6) and
    ranges (..., 3): the box meets [lo, hi] shrunk by 1e-9 on every side."""
    return np.all(boxes[..., :3] < hi - 1e-9, axis=-1) & np.all(boxes[..., 3:] > lo + 1e-9, axis=-1)


# --- target sampling ----------------------------------------------------------


def _face_shape(yaw: float, half_extents, s: int) -> tuple[np.ndarray, ...]:
    """What a box's face grids take from its yaw and half extents alone:
    the outward normals (6, 3), the offsets of the face centres from the
    box centre (6, 3), and the two grid terms of each face's sample points
    as coordinate columns, (3, 6, s, 1) and (3, 6, 1, s)."""
    c, sn = math.cos(yaw), math.sin(yaw)
    axes = np.array([[c, sn, 0.0], [-sn, c, 0.0], [0.0, 0.0, 1.0]])
    half = np.asarray(half_extents, dtype=float)
    ticks = (np.arange(s) + 0.5) / s * 2.0 - 1.0  # cell centers in [-1, 1]
    axis = np.repeat(np.arange(3), 2)
    normals = axes[axis] * np.tile([1.0, -1.0], 3)[:, None]
    offsets = normals * half[axis, None]
    # the face spans its other two axes; grid point (i, j) is
    # (centre + ticks[i] * h1 * a1) + ticks[j] * h2 * a2
    a1, a2 = (axis + 1) % 3, (axis + 2) % 3
    g1 = (ticks * half[a1, None])[None, :, :, None] * axes[a1].T[:, :, None, None]
    g2 = (ticks * half[a2, None])[None, :, None, :] * axes[a2].T[:, :, None, None]
    return normals, offsets, g1, g2


@functools.lru_cache(maxsize=64)
def _kept_face_shape(yaw: float, yaw_sign: float, half_extents: tuple, s: int) -> tuple:
    """_face_shape(yaw, half_extents, s), read-only, made once per process
    and key.  yaw_sign keeps 0.0 and -0.0 apart: equal as keys, they give
    zero offsets of different signs."""
    shape = _face_shape(yaw, half_extents, s)
    for part in shape:
        part.flags.writeable = False
    return shape


def _face_centers(center, shape: tuple[np.ndarray, ...]) -> np.ndarray:
    """Centres (6, 3) of the faces of a box with the given centre and
    _face_shape, in the order +u, -u, +v, -v, +w, -w (u and v the yawed x
    and y axes, w up)."""
    return np.asarray(center) + shape[1]


def _face_points(centers: np.ndarray, shape: tuple[np.ndarray, ...], faces) -> np.ndarray:
    """Sample points of the given faces (indices in _face_centers' order)
    of a box with those face centres and _face_shape, as three coordinate
    columns (3, len(faces), s * s): an s x s grid at cell centers per face,
    so boundary samples never sit exactly on edges.  Point (i, j) is
    (centre + ticks[i] * h1 * a1) + ticks[j] * h2 * a2, so a face's points
    have the same bits whichever faces are taken with it."""
    _, _, g1, g2 = shape
    cols = centers[faces].T[:, :, None, None] + g1[:, faces] + g2[:, faces]
    return cols.reshape(3, cols.shape[1], -1)


def _point_rows(cols: np.ndarray) -> np.ndarray:
    """Face sample points (3, F, n) as rows (F, n, 3), C-contiguous."""
    return np.ascontiguousarray(cols.transpose(1, 2, 0))


def _facings(
    normals: np.ndarray, centers: np.ndarray, apexes: np.ndarray, margins: np.ndarray
) -> np.ndarray:
    """Which faces face each apex: face normals and centres (S, 6, 3),
    apexes (S, 3) and margins (S,) give a mask (S, 6).  A face faces the
    apex when its outward normal has a dot product > 0 with the apex seen
    from the face centre.  The dot product is taken elementwise, summed in
    the order Python floats take it, and again with np.dot where it falls
    within the margin of 0; a margin that bounds the two sums' rounding, as
    _frustum_verdicts' does, gives every face the side np.dot gives it."""
    d = apexes[:, None, :] - centers
    dots = normals[..., 0] * d[..., 0] + normals[..., 1] * d[..., 1] + normals[..., 2] * d[..., 2]
    for k, f in zip(*np.nonzero(np.abs(dots) <= margins[:, None])):
        dots[k, f] = np.dot(normals[k, f], apexes[k] - centers[k, f])
    return dots > 0.0


def _frustum_verdicts(
    apexes: np.ndarray, forwards: np.ndarray, rights: np.ndarray,
    tan_h: float, tan_v: float, aabbs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per level camera (apex, forward and right vectors as rows (S, 3), and
    the two slopes) and box AABB (rows (S, 6) of x0, y0, z0, x1, y1, z1):
    whether one of the frustum's five planes has every point of the box
    outside by a margin (out), and whether the frustum holds every point by
    the margin (full); a box that is neither is undecided.  Also the
    margins, which _facings can use.  Three arrays (S,).

    Each plane is a linear function of the point, fwd or fwd * tan -+ lat
    or fwd * tan -+ ver, that is positive inside, so its least and
    greatest values over the AABB are at two corners, chosen axis by axis
    by the sign of the plane normal (Assarsson and Moeller's n- and
    p-vertices).  The margin, _EPS_REL times the sum of every coordinate's
    magnitude and the slopes, bounds many times over what rounding moves a
    face point off its box and Frustum.view's values off these exact ones,
    so Frustum.view puts every face point of a settled box on the side the
    verdict gives.  Nothing here can overflow: box values, the apex and the
    slopes are at most BOX_MAX (about 2**129; Box3's and make_camera's
    checks), so an AABB value is at most 3 BOX_MAX and the sum is at most
    (1 + 21 BOX_MAX) (1 + 2 BOX_MAX), below 2**264."""
    reach = 1.0 + np.abs(aabbs).sum(axis=1) + np.abs(apexes).sum(axis=1)
    margins = _EPS_REL * (reach * (1.0 + tan_h + tan_v))
    f, r, u = forwards[:, None], rights[:, None], np.array(_UP)
    normals = np.concatenate((f, f * tan_h - r, f * tan_h + r,
                              f * tan_v - u, f * tan_v + u), axis=1)
    low = normals * (aabbs[:, None, :3] - apexes[:, None])
    high = normals * (aabbs[:, None, 3:] - apexes[:, None])
    least, most = np.minimum(low, high), np.maximum(low, high)
    margin = margins[:, None]
    out = (((most[..., 0] + most[..., 1]) + most[..., 2]) < -margin).any(axis=1)
    full = ~out & (((least[..., 0] + least[..., 1]) + least[..., 2]) > margin).all(axis=1)
    return out, full, margins


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


class _TargetFaces:
    """What the sample loop keeps of the target boxes it meets: the last
    box's AABB, face centres and shape (_kept_face_shape, so a moved target
    that keeps its yaw and half extents keeps its face offsets and grid
    terms); and the sample points of the last box's last facing faces, as
    columns and, once asked for, as rows.  A sweep's target is one box, so
    it has its points built once per set of facing faces; a moved target
    has only its facing faces' built."""

    def __init__(self, s: int):
        self.s = s
        self.box = self.settled = self.cols = self.point_rows = None
        self.taken = (None, None)

    def settle(self, box: Box3) -> tuple:
        """The box's AABB, face centres and _face_shape."""
        if box is not self.box:
            shape = _kept_face_shape(box.yaw, math.copysign(1.0, box.yaw),
                                     tuple(box.half_extents), self.s)
            self.box = box
            self.settled = (box.aabb, _face_centers(box.center, shape), shape)
        return self.settled

    def columns(self, box: Box3, settled: tuple, facing: list[int]) -> np.ndarray:
        """The points of the facing faces of the box, whose AABB, face
        centres and shape settle gave, as three coordinate columns (3, n)."""
        self._take(box, settled, facing)
        return self.cols.reshape(3, -1)

    def rows(self, box: Box3, settled: tuple, facing: list[int]) -> np.ndarray:
        """The same points as rows (n, 3), laid out as (n / s, 3 s)."""
        self._take(box, settled, facing)
        if self.point_rows is None:
            self.point_rows = _point_rows(self.cols).reshape(-1, 3 * self.s)
        return self.point_rows

    def _take(self, box: Box3, settled: tuple, facing: list[int]) -> None:
        if self.taken[0] is not box or self.taken[1] != facing:
            self.taken = (box, facing)
            self.cols, self.point_rows = _face_points(settled[1], settled[2], facing), None


def _sample_pairs(
    scene: SceneGraph,
    target_id: str,
    pairs: Callable[[Box3], Iterable[tuple[EgoPose, Box3]]],
    cfg: CameraConfig,
    samples_per_edge: int,
    ignore_ids: frozenset[str],
) -> tuple[VisibilitySample, ...]:
    """The one sample loop: visibility of a target vehicle over the
    (ego pose, target box) pairs that pairs(target box) yields.

    The scene's index is built once per scene and kept with it.  A moved
    target keeps its id, so the index skips it as an occluder wherever the
    pair puts it.  The pairs are taken in stretches of _STRETCH samples.
    Once per stretch, on stacked arrays of its samples, run the cameras,
    the frustum verdicts (_frustum_verdicts: every face point of the
    target in view, none, or Frustum.view must sort them point by point),
    the facing faces of the samples not out of view, one grid query of the
    broadphase for the samples with a facing face, one separating-axis
    test of the wedge cull for every candidate it found, and the frames of
    the kept boxes (SceneIndex._frames: the apex turned into each box's
    frame).  Per sample run Frustum.view's projections of the undecided
    samples' facing points, one matmul per vector on C-ordered rays as
    view's subtraction gives them, and, for the samples whose wedge kept a
    box, the rays, their lengths and directions, the slab test, the
    first-hit scan, the occluder tally and its sort.

    Work whose result nobody reads is skipped.  A sample out of view takes
    no face points.  A sample whose wedge keeps no box takes no rays: every
    face point in view is seen, and its count, for a sample wholly in view
    len(facing) * s * s, is all the sample needs.  Face points are built
    for the facing faces only, once per box and set of facing faces
    (_TargetFaces).
    """
    if not (isinstance(samples_per_edge, numbers.Integral) and samples_per_edge >= 1):
        raise OptionError(f"samples per edge must be a positive integer, got {samples_per_edge!r}")
    target = scene.node(target_id)
    if target.kind is not NodeKind.VEHICLE:
        raise ValueError(f"target {target_id!r} is {target.kind.value}, not a vehicle")
    index = scene.index
    skip = {index.index_of[i] for i in (set(ignore_ids) | {target_id}) if i in index.index_of}
    faces = _TargetFaces(samples_per_edge)
    samples = []
    stream = iter(pairs(target.box))
    while stretch := list(islice(stream, _STRETCH)):
        samples += _stretch_samples(index, target_id, stretch, cfg, faces, skip)
    return tuple(samples)


def _stretch_samples(
    index: SceneIndex, target_id: str, stretch: list[tuple[EgoPose, Box3]],
    cfg: CameraConfig, faces: _TargetFaces, skip: set[int],
) -> list[VisibilitySample]:
    """The samples of one stretch of _sample_pairs."""
    s = faces.s
    apex, forward, right, tan_h, tan_v = _cameras([ego for ego, _ in stretch], cfg)
    settled = [faces.settle(box) for _, box in stretch]
    aabbs = np.array([aabb for aabb, _, _ in settled])
    out, full, margins = _frustum_verdicts(apex, forward, right, tan_h, tan_v, aabbs)
    facing: list[list[int]] = [[] for _ in stretch]
    look = np.flatnonzero(~out)
    if len(look):
        mask = _facings(np.stack([settled[k][2][0] for k in look]),
                        np.stack([settled[k][1] for k in look]), apex[look], margins[look])
        for k, row in zip(look.tolist(), mask.tolist()):
            facing[k] = [f for f, faces_apex in enumerate(row) if faces_apex]

    # the broadphase of the samples with a facing face, each with the
    # candidates of the box spanned by its camera and its target, then
    # their wedge cull and the frames of the boxes it keeps
    kept: dict[int, np.ndarray] = {}
    shown = [k for k in look.tolist() if facing[k]]
    if shown:
        near = index.candidates_each(np.minimum(aabbs[shown, :3], apex[shown]),
                                     np.maximum(aabbs[shown, 3:], apex[shown]), skip)
        culled = [(k, subset) for k, subset in zip(shown, near) if len(subset)]
        if culled:
            hulls = []
            for k, _ in culled:
                x0, y0, _, x1, y1, _ = settled[k][0]
                hulls.append(_hull_2d([tuple(apex[k, :2].tolist()),
                                       (x0, y0), (x1, y0), (x1, y1), (x0, y1)]))
            wedged = index._cull_wedges([subset for _, subset in culled], hulls)
            kept = {k: subset for (k, _), subset in zip(culled, wedged) if len(subset)}
    frames = {}
    if kept:
        owners = list(kept)
        sizes = [len(kept[k]) for k in owners]
        local, yaws = index._frames(np.repeat(apex[owners], sizes, axis=0),
                                    np.concatenate([kept[k] for k in owners]))
        start = 0
        for k, size in zip(owners, sizes):
            frames[k] = (local[start:start + size], yaws[start:start + size])
            start += size

    # each row of the apex repeated s times, so that the subtraction from
    # face point rows (n / s, 3 s) runs along rows, not in threes
    tiles = np.tile(apex, (1, s)) if (~out & ~full).any() else None
    samples = []
    for k, (ego, box) in enumerate(stretch):
        total, rel = 0, None
        if facing[k] and full[k]:
            total = len(facing[k]) * s * s
            if k in kept:
                rel = faces.columns(box, settled[k], facing[k]) - apex[k][:, None]
        elif facing[k]:
            d = (faces.rows(box, settled[k], facing[k]) - tiles[k]).reshape(-1, 3)
            inside = _in_view(d, forward[k], right[k], tan_h, tan_v)
            total = int(np.count_nonzero(inside))
            if k in kept and total:
                rel = d.T.take(np.flatnonzero(inside), axis=1)
        samples.append(_sample_from_points(index, ego, target_id, total, rel,
                                           kept.get(k), frames.get(k)))
    return samples


def _lengths(rel: np.ndarray) -> np.ndarray:
    """Row norms of an (n, 3) array, bit-equal to np.linalg.norm(rel, axis=1):
    the same sum, (x*x + y*y) + z*z, taken from the columns, which costs a
    fraction of a reduction over the length-3 axis."""
    x, y, z = rel.T
    return np.sqrt((x * x + y * y) + z * z)


def _first_hits(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row of each column's least entry, first on ties, and that entry
    (up to the sign of a zero): t.argmin(axis=0) and its gather, for a t
    with no NaN (slab distances), from one scan down the rows with a strict
    <, which costs less than argmin's copy of t."""
    first = np.zeros(t.shape[1], dtype=np.intp)
    best = t[0].copy()
    for row in range(1, len(t)):
        np.putmask(first, t[row] < best, row)
        np.minimum(best, t[row], out=best)
    return first, best


def _sample_from_points(
    index: SceneIndex,
    ego: EgoPose,
    target_id: str,
    total: int,
    rel: np.ndarray | None,
    kept: np.ndarray | None,
    frames: tuple[np.ndarray, list] | None,
) -> VisibilitySample:
    """One sample from the count of its target's face points in the
    frustum, total, and, where its wedge kept boxes, the rays to those
    points, rel (points - apex, three coordinate columns), the kept boxes
    and their frames (SceneIndex._frames).  A sample in view without rays
    sees every point."""
    if total == 0:
        return VisibilitySample(ego, target_id, 0.0, False, ())
    if rel is None:
        return VisibilitySample(ego, target_id, 1.0, True, ())
    dist = _lengths(rel.T)
    first, nearest = _first_hits(index._slabs(frames, kept, rel / dist))
    blocked = nearest < dist * (1.0 - _EPS_REL)
    counts = np.bincount(first[blocked], minlength=len(kept))
    hits = np.flatnonzero(counts)
    contrib = sorted(((index.ids[k], cnt) for k, cnt in
                      zip(kept[hits].tolist(), counts[hits].tolist())),
                     key=lambda kv: (-kv[1], kv[0]))
    occluders = tuple((nid, cnt / total) for nid, cnt in contrib)
    return VisibilitySample(ego, target_id, (total - int(counts.sum())) / total, True, occluders)


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
        # sweep made each sample's ego as pose_at(path, k * step)
        pose = sample.ego if sw.swept == "ego" else pose_at(sw.path, s)
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

