"""3D scene synthesis: classified grid -> boxes in world space.

World frame: +x east, +y south (row 0 sits at y=0, the north edge), +z up,
meters everywhere.  The slab surface is the top of the floor tiles, so
anything resting "on the floor" sits at FLOOR_THICKNESS.

Synthesis order is fixed and deterministic: floor tiles with their markings
(row-major), obstacle wall slabs, columns, ceiling panels, ramp markers,
lamps.  Vehicles are appended afterwards by populate_vehicles.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress
from typing import TYPE_CHECKING

from .errors import OptionError, PlanError, SchemaError
from .classify import ClassifiedGrid
from .grid import BOX_MAX, CellKind, CellRef, _check_schema, _load_json, _prefix

if TYPE_CHECKING:
    import numpy as np

    from .visibility import SceneIndex

SCENE_SCHEMA = "scene/1"
PLAN_SCHEMA = "occupancy-plan/1"

CEILING_HEIGHT = 3.0
COLUMN_SIZE = 0.5
MARKING_INSET = 0.1
FLOOR_THICKNESS = 0.05
CEILING_THICKNESS = 0.05
MARKING_THICKNESS = 0.01
LAMP_SIZE = (0.3, 0.3, 0.1)

# length, width, height in meters
VEHICLE_SIZES: dict[str, tuple[float, float, float]] = {
    "small": (4.2, 1.8, 1.5),
    "medium": (4.9, 1.9, 1.8),
    "large": (5.9, 2.1, 2.4),
}

_COMPASS = ("north", "east", "south", "west")


class NodeKind(str, Enum):
    FLOOR_TILE = "floor_tile"
    LANE_MARKING = "lane_marking"
    PARKING_MARKING = "parking_marking"
    COLUMN = "column"
    CEILING_PANEL = "ceiling_panel"
    LAMP = "lamp"
    VEHICLE = "vehicle"
    RAMP_MARKER = "ramp_marker"


#: Kinds that block sight lines.  Markings, ramp markers and lamps never do.
OPAQUE_KINDS = frozenset(
    {NodeKind.FLOOR_TILE, NodeKind.COLUMN, NodeKind.CEILING_PANEL, NodeKind.VEHICLE}
)


class LightLevel(str, Enum):
    """The four lighting presets: lamp coverage over eligible sites and the
    relative intensity of the populated lamps."""

    BRIGHT = "bright"
    CLEAR = "clear"
    MODERATE = "moderate"
    DIM = "dim"

    @property
    def lamp_coverage(self) -> float:
        return _LIGHT_PRESETS[self][0]

    @property
    def lamp_intensity(self) -> float:
        return _LIGHT_PRESETS[self][1]


_LIGHT_PRESETS = {
    LightLevel.BRIGHT: (1.0, 1.0),
    LightLevel.CLEAR: (1.0, 0.6),
    LightLevel.MODERATE: (0.7, 0.6),
    LightLevel.DIM: (0.4, 0.6),
}


@dataclass(frozen=True, slots=True)
class Box3:
    """Oriented box: center, half extents along its local axes, yaw about +z."""

    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]
    yaw: float = 0.0

    def __post_init__(self):
        if len(self.center) != 3:
            raise ValueError(f"center needs three coordinates, got {self.center}")
        _check_box(self.center, self.half_extents, self.yaw)

    @property
    def aabb(self) -> tuple[float, float, float, float, float, float]:
        """World-space bounds (min x, min y, min z, max x, max y, max z)."""
        return _aabb(self.center, self.half_extents, math.cos(self.yaw), math.sin(self.yaw))


def _bounded(values) -> bool:
    """Whether every value is a real number of magnitude at most BOX_MAX,
    so finite too."""
    try:
        return all(-BOX_MAX <= v <= BOX_MAX for v in values)
    except TypeError:  # a value that is no real number
        return False


def _check_box(center, half, yaw) -> None:
    """The one check of a box's values, which Box3 makes and every row that
    synthesis, vehicle placement, re-lighting and SceneGraph put in a box
    table gets (_BoxTable.check): ValueError unless all seven are real
    numbers of magnitude at most BOX_MAX and the half extents are
    positive."""
    cx, cy, cz = center
    hx, hy, hz = half
    try:  # one expression for the common box: a table builds a Box3 per node
        if (-BOX_MAX <= cx <= BOX_MAX and -BOX_MAX <= cy <= BOX_MAX and -BOX_MAX <= cz <= BOX_MAX
                and 0.0 < hx <= BOX_MAX and 0.0 < hy <= BOX_MAX and 0.0 < hz <= BOX_MAX
                and -BOX_MAX <= yaw <= BOX_MAX):
            return
    except TypeError:  # no real number, which _bounded tells below
        pass
    if _bounded((cx, cy, cz, hx, hy, hz, yaw)):
        raise ValueError(f"half extents must be positive, got {tuple(half)}")
    raise ValueError(f"box values must be finite real numbers below 2**129 in magnitude, got"
                     f" center {tuple(center)}, half extents {tuple(half)} and yaw {yaw}")


#: where a float64's high byte (sign and top seven exponent bits) sits in
#: its bytes: -0.0 has its one set bit there
_HIGH = array("d", [-0.0]).tobytes().index(0x80)
#: high byte -> 1 where the float is NaN, infinite or past BOX_MAX (2**129
#: or more in magnitude); and where a half extent may be no positive one
_PAST_MAX = bytes(b & 0x7F >= 0x48 for b in range(256))
_NOT_HALF = bytes(not 0 < b < 0x48 for b in range(256))


def _rows_pass(values: array) -> bool:
    """Whether every row of seven box values surely passes _check_box, read
    off each float's high byte.  A row this fails may still pass (a half
    extent below 2**-1007)."""
    with memoryview(values) as view, view.cast("B") as data:
        high = data[_HIGH::8].tobytes()
    halves = high[3::7] + high[4::7] + high[5::7]
    return not (1 in high.translate(_PAST_MAX) or 1 in halves.translate(_NOT_HALF))


def _box(values) -> Box3:
    """The box of seven box values: centre, half extents and yaw."""
    return Box3(values[:3], values[3:6], values[6])


def _aabb(center, half, cos_yaw, sin_yaw):
    """Bounds of an oriented box as in Box3.aabb.  Floats or numpy columns
    alike, with the same operations either way, so an array of boxes gets
    bit-identical bounds."""
    hx, hy, hz = half
    c, s = abs(cos_yaw), abs(sin_yaw)
    ex = hx * c + hy * s
    ey = hx * s + hy * c
    cx, cy, cz = center
    return (cx - ex, cy - ey, cz - hz, cx + ex, cy + ey, cz + hz)


def _fold_bounds(aabbs) -> Box3:
    """Axis-aligned box around world AABBs, given as rows of (min x, min y,
    min z, max x, max y, max z): the one fold for loose boxes (their
    Box3.aabb) and box table rows alike.  Each bound is folded in order with
    min or max, which keep the first of equal values (0.0 or -0.0).  No
    AABB at all is a ValueError, as are bounds past BOX_MAX (Box3's check)."""
    columns = list(zip(*aabbs))
    if not columns:
        raise ValueError("no boxes to bound")
    lo = [min(columns[k]) for k in range(3)]
    hi = [max(columns[k + 3]) for k in range(3)]
    return Box3(
        center=tuple((lo[k] + hi[k]) / 2.0 for k in range(3)),
        half_extents=tuple(max((hi[k] - lo[k]) / 2.0, 1e-9) for k in range(3)),
    )


@dataclass(frozen=True, slots=True)
class SceneNode:
    id: str
    kind: NodeKind
    box: Box3
    tags: dict[str, str] = field(default_factory=dict)


_KINDS = tuple(NodeKind)
#: kind -> its code in a box table, and the same keyed by the kind's JSON text
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_NODE_CODES = {kind.value: code for code, kind in enumerate(_KINDS)}
_FLOOR_CODE = _KIND_CODES[NodeKind.FLOOR_TILE]
#: rows a box table turns into nodes, or scene/1 records, at a time
_CHUNK = 1024


class _BoxTable:
    """The boxes of a scene in node order, as one table: node ids, kind
    codes (indexes into _KINDS), tags, and seven float64 box values per row
    (centre, half extents, yaw) in one array.  A table is filled once, in
    the pass that makes it, and never changed after."""

    __slots__ = ("ids", "codes", "tags", "values", "_rows")

    def __init__(self, ids=None, codes=None, tags=None, values=None):
        self.ids: list[str] = [] if ids is None else ids
        self.codes: array = array("B") if codes is None else codes
        self.tags: list[dict[str, str]] = [] if tags is None else tags
        self.values: array = array("d") if values is None else values
        self._rows: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, node_id: str, code: int, tags: dict[str, str], values) -> None:
        """Append one row.  A value that is no real number raises the error
        of the first bad row; check() finds the other bad rows, once the
        table is filled."""
        try:
            self.values.extend(values)
        except TypeError:
            del self.values[7 * len(self.ids):]  # what extend took of the row
            self.check()
            _check_box(values[:3], values[3:6], values[6])
            raise
        self.ids.append(node_id)
        self.codes.append(code)
        self.tags.append(tags)

    def check(self) -> None:
        """_check_box of every row, in bulk (_rows_pass), and row by row
        where that fails, so that the first bad row's error is raised."""
        if not _rows_pass(self.values):
            for k in range(0, len(self.values), 7):
                row = self.values[k:k + 7]
                _check_box(row[:3], row[3:6], row[6])

    def __add__(self, other: _BoxTable) -> _BoxTable:
        """This table's rows, then other's."""
        return _BoxTable(self.ids + other.ids, self.codes + other.codes,
                         self.tags + other.tags, self.values + other.values)

    def kind_mask(self, kinds) -> np.ndarray:
        """A mask of the rows whose kind is one of kinds."""
        import numpy as np

        wanted = np.zeros(len(_KINDS), bool)
        wanted[[_KIND_CODES[kind] for kind in kinds]] = True
        return wanted[np.frombuffer(self.codes, np.uint8)]

    def take(self, rows: np.ndarray) -> _BoxTable:
        """A table of the rows in a mask, in order."""
        return _BoxTable.joined(((self, rows),))

    @classmethod
    def joined(cls, parts) -> _BoxTable:
        """One table of the rows in a mask of each table, for (table, mask)
        pairs in order: each kept row is copied once."""
        import numpy as np

        out = cls()
        for table, rows in parts:
            keep = rows.tobytes()
            out.ids += compress(table.ids, keep)
            out.codes.frombytes(np.frombuffer(table.codes, np.uint8)[rows])
            out.tags += compress(table.tags, keep)
            out.values.frombytes(np.frombuffer(table.values).reshape(-1, 7)[rows].view(np.uint8))
        return out

    def columns(self) -> tuple[np.ndarray, ...]:
        """Centres and half extents (k, 3), cos and sin of yaw (k,) and world
        AABBs (k, 6) of the rows.  The cos and sin come from math, as in
        Box3.aabb (numpy's may differ in the last bit), so every row's bounds
        are the floats Box3.aabb gives its node's box."""
        import numpy as np  # loaded on the first box array, not by importing scene

        box = np.frombuffer(self.values).reshape(-1, 7)
        centers, halves = box[:, :3].copy(), box[:, 3:6].copy()
        yaw = self.values[6::7]
        cos_yaw = np.fromiter(map(math.cos, yaw), float, len(yaw))
        sin_yaw = np.fromiter(map(math.sin, yaw), float, len(yaw))
        aabbs = np.stack(_aabb(centers.T, halves.T, cos_yaw, sin_yaw), axis=1)
        return centers, halves, cos_yaw, sin_yaw, aabbs

    def row(self, node_id: str) -> int:
        """The first row with the given id (KeyError if none), from an id
        map made on the first call, once the table is filled."""
        if self._rows is None:
            ids = self.ids
            # filled back to front, so of two rows sharing an id the first wins
            self._rows = {ids[k]: k for k in range(len(ids) - 1, -1, -1)}
        return self._rows[node_id]

    def node(self, k: int) -> SceneNode:
        """The node of row k."""
        return self._build(k, k + 1, float)[0]

    def nodes(self) -> tuple[SceneNode, ...]:
        """The node of every row, built _CHUNK rows at a time, so that only
        one chunk's box values stand as a list beside the nodes.  Equal box
        values share one float (signed zeros apart)."""
        number = _Floats().__getitem__
        nodes: list[SceneNode] = []
        for start in range(0, len(self), _CHUNK):
            nodes += self._build(start, start + _CHUNK, number)
        return tuple(nodes)

    def _build(self, start: int, stop: int, number) -> list[SceneNode]:
        v = list(map(number, self.values[7 * start:7 * stop]))
        boxes = map(Box3, zip(v[0::7], v[1::7], v[2::7]), zip(v[3::7], v[4::7], v[5::7]),
                    v[6::7])
        return list(map(SceneNode, self.ids[start:stop],
                        map(_KINDS.__getitem__, self.codes[start:stop]), boxes,
                        self.tags[start:stop]))


@dataclass(frozen=True, init=False)
class SceneGraph:
    """An ordered scene of boxes, held as one box table, which the ray-test
    index, the bounds of a merge, re-lighting, vehicle placement and the
    scene/1 writer read.  SceneGraph(nodes, bounds, light_level) tables the
    nodes at once, every box value as the float64 it converts to, and
    checks them (_check_box); its bounds become a Box3 of float64s too.
    node() builds just the node asked for, and count() reads the table.
    What is derived (the index, the table's id map) is kept with the scene;
    a scene is never changed (every edit makes a new SceneGraph, with
    nothing cached), so what is kept cannot go stale."""

    #: a field, so that ==, repr and dataclasses.replace see the nodes; they
    #: are built from the table on each access and not kept
    nodes: tuple[SceneNode, ...] = property(lambda self: self._table.nodes())
    bounds: Box3
    light_level: LightLevel

    def __init__(self, nodes, bounds: Box3, light_level: LightLevel):
        table = _BoxTable()
        for n in nodes:
            # unpacked, so that a box vector of other than three values
            # (of a box that is no Box3) is refused, not run into the next row
            (cx, cy, cz), (hx, hy, hz), yaw = n.box.center, n.box.half_extents, n.box.yaw
            table.add(n.id, _KIND_CODES[n.kind], n.tags, (cx, cy, cz, hx, hy, hz, yaw))
        table.check()
        floats = tuple(array("d", (*bounds.center, *bounds.half_extents, bounds.yaw)))
        vars(self).update(_table=table, bounds=_box(floats), light_level=light_level)

    @functools.cached_property
    def index(self) -> SceneIndex:
        """The SceneIndex over this scene's opaque boxes."""
        from .visibility import SceneIndex

        return SceneIndex(self)

    def node(self, node_id: str) -> SceneNode:
        """The first node with the given id, built from its row."""
        try:
            return self._table.node(self._table.row(node_id))
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise KeyError(f"no node {node_id!r} in scene") from None

    def count(self, kind: NodeKind) -> int:
        return self._table.codes.count(_KIND_CODES[kind])


def _table_scene(table: _BoxTable, bounds: Box3, light_level: LightLevel) -> SceneGraph:
    """A scene made from its filled and checked box table."""
    scene = object.__new__(SceneGraph)
    vars(scene).update(_table=table, bounds=bounds, light_level=light_level)
    return scene


def _table_bounds(*aabbs: np.ndarray) -> Box3:
    """_fold_bounds of the rows of box tables' AABB columns (columns()[4]),
    in order, as scenario._scene_from_nodes bounds the nodes of a scene.
    The fold of one bound ends on the first row holding that bound's
    extreme, the row argmin or argmax names, and no row before it holds the
    extreme; so folding just those rows, at most six and kept in order,
    gives the same box.  (Not np.unique: it loads numpy.ma, 1 MB.)"""
    import numpy as np

    rows = np.concatenate(aabbs)
    picked = (sorted({*rows[:, :3].argmin(axis=0).tolist(), *rows[:, 3:].argmax(axis=0).tolist()})
              if len(rows) else [])
    return _fold_bounds(rows[picked].tolist())


@dataclass(frozen=True)
class PlanEntry:
    cell: CellRef
    size: str
    parked: bool = True
    color: str = "white"
    force: bool = False


@dataclass(frozen=True)
class OccupancyPlan:
    entries: tuple[PlanEntry, ...]


@dataclass(frozen=True)
class SynthOptions:
    light: LightLevel = LightLevel.BRIGHT
    prune_columns: frozenset[tuple[int, int]] = frozenset()


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


def layout_cells(grid: ClassifiedGrid) -> list[tuple[CellRef, Rect]]:
    """World rectangle of every cell via prefix sums of the width vectors.

    Cell (i, j) spans x in [sum C[:j], sum C[:j+1]] and y in
    [sum R[:i], sum R[:i+1]]; together the rectangles tile the envelope.
    """
    spec = grid.spec
    xs = _prefix(spec.col_widths)
    ys = _prefix(spec.row_widths)
    out = []
    for i in range(spec.m):
        for j in range(spec.n):
            out.append((CellRef(i, j), Rect(xs[j], ys[i], xs[j + 1], ys[i + 1])))
    return out


def _slab(x0: float, y0: float, x1: float, y1: float, z0: float, z1: float) -> tuple:
    """Box values of the unrotated box spanning [x0, x1] x [y0, y1] x
    [z0, z1]: the one rule for floors, walls and ceilings."""
    return ((x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0,
            (x1 - x0) / 2.0, (y1 - y0) / 2.0, (z1 - z0) / 2.0, 0.0)


def slab_box(x0: float, y0: float, x1: float, y1: float, z0: float, z1: float) -> Box3:
    """Unrotated box spanning [x0, x1] x [y0, y1] x [z0, z1] (_slab)."""
    return _box(_slab(x0, y0, x1, y1, z0, z1))


def _column(x: float, y: float, size: float, height: float) -> tuple:
    """Box values of a square column of side size standing from z = 0 to
    height at (x, y)."""
    half, half_z = size / 2.0, height / 2.0
    return (x, y, half_z, half, half, half_z, 0.0)


def column_box(x: float, y: float, size: float, height: float) -> Box3:
    """Square column of side size standing from z = 0 to height at (x, y) (_column)."""
    return _box(_column(x, y, size, height))


def synthesize(grid: ClassifiedGrid, options: SynthOptions = SynthOptions()) -> SceneGraph:
    """Build the scene graph for a classified grid.

    Floor tiles carry their cell's classification in tags; obstacle cells
    become full-height wall slabs (merged per row run); columns stand on
    every interior grid corner that touches a non-obstacle cell unless
    pruned (a prune corner off the interior corners is an OptionError);
    ceiling panels cover the envelope per row; lamps populate drivable-cell
    centers per the light preset, row-major.

    The scene is made from its box table, filled row by row; its rows are
    checked as Box3 checks a box, in bulk once they are all in
    (_BoxTable.check), so a grid whose boxes would hold a value that is not
    finite or past BOX_MAX raises the first such box's ValueError.
    """
    spec = grid.spec
    for ci, cj in sorted(options.prune_columns):  # columns stand on the interior corners only
        if not (0 < ci < spec.m and 0 < cj < spec.n):
            raise OptionError(f"prune corner {ci},{cj} is not an interior corner"
                              f" of the {spec.m}x{spec.n} plan")
    h = CEILING_HEIGHT
    xs = _prefix(spec.col_widths)
    ys = _prefix(spec.row_widths)
    table = _BoxTable()

    def add(node_id: str, kind: NodeKind, tags: dict[str, str], box: tuple) -> None:
        table.add(node_id, _KIND_CODES[kind], tags, box)

    # floor tiles and markings, row-major
    inset_scale = 1.0 - 2.0 * MARKING_INSET
    kind_name = {k: k.name.lower() for k in CellKind}
    half_pi = math.pi / 2.0
    mark_z = FLOOR_THICKNESS + MARKING_THICKNESS / 2.0
    mark_hz = MARKING_THICKNESS / 2.0
    floors = []
    for i in range(spec.m):
        for j in range(spec.n):
            c = grid.cells[i][j]
            if c.kind is CellKind.OBSTACLE:
                continue
            subtype = c.lane_subtype or c.park_subtype
            turns = c.rotation.quarter_turns
            tags = {
                "cell": f"{i},{j}",
                "cell_kind": kind_name[c.kind],
                "subtype": subtype.value,
                "quarter_turns": str(turns),
            }
            if c.render_variant is not None:
                tags["variant"] = c.render_variant.value
            floor = _slab(xs[j], ys[i], xs[j + 1], ys[i + 1], 0.0, FLOOR_THICKNESS)
            add(f"floor-{i}-{j}", NodeKind.FLOOR_TILE, tags, floor)
            cx, cy = floor[0], floor[1]
            floors.append((tags, cx, cy))
            # the marking is the tile inset, its local extents swapped on odd
            # turns so that it stays in its cell
            half_w = floor[3] * inset_scale
            half_h = floor[4] * inset_scale
            if turns % 2 == 1:
                half_w, half_h = half_h, half_w
            mark = (cx, cy, mark_z, half_w, half_h, mark_hz, turns * half_pi)
            if c.kind.drivable:
                add(f"mark-lane-{i}-{j}", NodeKind.LANE_MARKING, dict(tags), mark)
            else:
                add(f"mark-park-{i}-{j}", NodeKind.PARKING_MARKING, dict(tags), mark)
    lamp_sites = _lamp_sites(floors)

    # obstacle wall slabs, merged per row run
    for i in range(spec.m):
        j = 0
        while j < spec.n:
            if grid.cells[i][j].kind is CellKind.OBSTACLE:
                j0 = j
                while j < spec.n and grid.cells[i][j].kind is CellKind.OBSTACLE:
                    j += 1
                add(f"wall-{i}-{j0}", NodeKind.COLUMN,
                    {"structure": "wall", "row": str(i), "cols": f"{j0}-{j - 1}"},
                    _slab(xs[j0], ys[i], xs[j], ys[i + 1], 0.0, h))
            else:
                j += 1

    # columns on interior grid corners
    for ci in range(1, spec.m):
        for cj in range(1, spec.n):
            if (ci, cj) in options.prune_columns:
                continue
            touching = (
                grid.cells[ci - 1][cj - 1], grid.cells[ci - 1][cj],
                grid.cells[ci][cj - 1], grid.cells[ci][cj],
            )
            if all(t.kind is CellKind.OBSTACLE for t in touching):
                continue
            add(f"col-{ci}-{cj}", NodeKind.COLUMN, {"corner": f"{ci},{cj}"},
                _column(xs[cj], ys[ci], COLUMN_SIZE, h))

    # ceiling panels, one per row, covering the envelope
    for i in range(spec.m):
        add(f"ceil-{i}", NodeKind.CEILING_PANEL, {"row": str(i)},
            _slab(xs[0], ys[i], xs[-1], ys[i + 1], h - CEILING_THICKNESS, h))

    # ramp markers on entrance/exit squares
    for i in range(spec.m):
        for j in range(spec.n):
            c = grid.cells[i][j]
            if c.kind in (CellKind.ENTRANCE, CellKind.EXIT):
                rect = Rect(xs[j], ys[i], xs[j + 1], ys[i + 1])
                cx, cy = rect.center
                add(f"ramp-{i}-{j}", NodeKind.RAMP_MARKER,
                    {"cell": f"{i},{j}", "ramp": c.kind.name.lower()},
                    (cx, cy, FLOOR_THICKNESS + MARKING_THICKNESS + 0.005,
                     rect.width / 4.0, rect.height / 4.0, 0.005, 0.0))

    # lamps last, over the drivable floor tiles found above
    lamps, lamp_z, half = _lamps(lamp_sites, options.light, h)
    for lamp_id, tags, x, y in lamps:
        add(lamp_id, NodeKind.LAMP, tags, (x, y, lamp_z, *half, 0.0))

    table.check()
    bounds = Box3(
        center=(xs[-1] / 2.0, ys[-1] / 2.0, h / 2.0),
        half_extents=(xs[-1] / 2.0, ys[-1] / 2.0, h / 2.0),
    )
    return _table_scene(table, bounds, options.light)


def _lamps(sites: list[tuple[float, float, str]], level: LightLevel, ceiling_h: float):
    """The lamps of a light level over the given sites: the (id, tags, x, y)
    of each, in site order, and the centre height and half extents that
    they share."""
    count = math.ceil(level.lamp_coverage * len(sites)) if sites else 0
    lamp_z = ceiling_h - CEILING_THICKNESS - LAMP_SIZE[2] / 2.0
    half = (LAMP_SIZE[0] / 2.0, LAMP_SIZE[1] / 2.0, LAMP_SIZE[2] / 2.0)
    intensity = repr(level.lamp_intensity)
    lamps = [("lamp-" + cell.replace(",", "-"),
              {"cell": cell, "site_index": str(k), "intensity": intensity}, cx, cy)
             for k, (cx, cy, cell) in enumerate(sites[:count])]
    return lamps, lamp_z, half


_DRIVABLE_NAMES = frozenset(k.name.lower() for k in CellKind if k.drivable)


def _lamp_sites(floors) -> list[tuple[float, float, str]]:
    """(x, y, cell) of each drivable-cell tile among floor tiles given as
    (tags, centre x, centre y), in order: the one source of lamp sites for
    synthesis and re-lighting alike."""
    return [(x, y, tags["cell"]) for tags, x, y in floors
            if tags.get("cell_kind") in _DRIVABLE_NAMES]


def apply_light_level(scene: SceneGraph, level: LightLevel) -> SceneGraph:
    """Repopulate lamps per the preset; everything else is untouched.

    Lamp sites are the drivable-cell floor tiles, filled row-major, so the
    populated set under a lower coverage is a prefix of a higher one.
    Applying a level always overrides the previous one.  The scene is read
    from its box table, and the new one is made from a table.
    """
    return _relit((scene._table,), scene.bounds, level)


def _relit(tables, bounds: Box3, level: LightLevel) -> SceneGraph:
    """A scene of the rows of the tables, in order, less their lamps, then
    the lamps the level places over their drivable floor tiles below the
    top of bounds; bounded by bounds.  Each kept row is copied once.  The
    table is checked as synthesis checks its rows, so bounds whose top lies
    past BOX_MAX, where the lamps hang, are a ValueError."""
    sites = []
    for table in tables:
        floors = table.kind_mask({NodeKind.FLOOR_TILE}).tobytes()
        sites += _lamp_sites(compress(zip(table.tags, table.values[0::7], table.values[1::7]),
                                      floors))
    unlit = set(NodeKind) - {NodeKind.LAMP}
    relit = _BoxTable.joined((table, table.kind_mask(unlit)) for table in tables)
    lamps, lamp_z, half = _lamps(sites, level, bounds.center[2] + bounds.half_extents[2])
    lamp = _KIND_CODES[NodeKind.LAMP]
    for lamp_id, tags, x, y in lamps:
        relit.add(lamp_id, lamp, tags, (x, y, lamp_z, *half, 0.0))
    relit.check()
    return _table_scene(relit, bounds, level)


def _merged(tables, level: LightLevel) -> SceneGraph:
    """The scene of the rows of the tables, in order, bounded by all of
    them and re-lit to level (_relit), with its index built.  Each row's
    columns are computed once, for the bounds and the index alike, and
    only the index's copies of the opaque rows outlive the call.  Bounds
    past BOX_MAX, or lamps hung under them, are a ValueError."""
    import numpy as np

    from .visibility import SceneIndex

    columns = [table.columns() for table in tables]
    scene = _relit(tables, _table_bounds(*(own[4] for own in columns)), level)
    # the relit rows keep every opaque row of the tables, in order (lamps,
    # the rows it drops and adds, are not opaque)
    masks = [table.kind_mask(OPAQUE_KINDS) for table in tables]
    ids = [node_id for table, mask in zip(tables, masks)
           for node_id in compress(table.ids, mask.tobytes())]
    opaque = tuple(np.concatenate([own[k][mask] for own, mask in zip(columns, masks)])
                   for k in range(5))
    del columns
    vars(scene)["index"] = SceneIndex(scene, (ids, opaque))
    return scene


def remove_node(scene: SceneGraph, node_id: str) -> SceneGraph:
    """New scene without the named node (used for pruning experiments)."""
    table, kept = scene._table, _BoxTable()
    for k, other in enumerate(table.ids):
        if other != node_id:
            kept.add(other, table.codes[k], table.tags[k], table.values[7 * k:7 * k + 7])
    if len(kept) == len(table):
        raise KeyError(f"no node {node_id!r} in scene")
    return _table_scene(kept, scene.bounds, scene.light_level)


def _vehicle(center_xy: tuple[float, float], size: str, quarter_turns: int) -> tuple:
    """Box values of a vehicle resting on the slab; at rotation 0 it faces
    north (length along y), one quarter-turn faces it east."""
    length, width, height = VEHICLE_SIZES[size]
    return (center_xy[0], center_xy[1], FLOOR_THICKNESS + height / 2.0,
            width / 2.0, length / 2.0, height / 2.0, quarter_turns * math.pi / 2.0)


def vehicle_box(
    center_xy: tuple[float, float], size: str, quarter_turns: int
) -> Box3:
    """Box for a vehicle resting on the slab (_vehicle)."""
    return _box(_vehicle(center_xy, size, quarter_turns))


def populate_vehicles(
    scene: SceneGraph, grid: ClassifiedGrid, plan: OccupancyPlan
) -> SceneGraph:
    """Place one vehicle per plan entry, centered in its cell and yawed to
    face the cell's lane.  Entries on non-parking cells or Type4 spaces
    need the force flag.  Returns a new graph, made from the scene's box
    table with a row per vehicle appended; the input is unchanged.  The
    vehicle rows are checked as synthesis checks its rows, once the plan's
    entries have passed their own checks."""
    from .classify import ParkSubtype

    spec = grid.spec
    xs, ys = _prefix(spec.col_widths), _prefix(spec.row_widths)
    rows, cols = range(spec.m), range(spec.n)
    seen: set[CellRef] = set()
    vehicles = _BoxTable()
    aabbs = [scene.bounds.aabb]
    vehicle = _KIND_CODES[NodeKind.VEHICLE]
    for entry in plan.entries:
        if entry.cell in seen:
            raise PlanError(f"cell ({entry.cell.i},{entry.cell.j}) referenced twice")
        seen.add(entry.cell)
        i, j = entry.cell.i, entry.cell.j
        if i not in rows or j not in cols:
            raise PlanError(f"cell ({entry.cell.i},{entry.cell.j}) outside the grid")
        if entry.size not in VEHICLE_SIZES:
            raise PlanError(f"unknown vehicle size {entry.size!r}")
        c = grid.cells[i][j]
        placeable = c.kind is CellKind.PARKING and c.park_subtype is not ParkSubtype.TYPE4
        if not placeable and not entry.force:
            raise PlanError(
                f"cell ({entry.cell.i},{entry.cell.j}) is {c.kind.name.lower()}"
                f"{'/type4' if c.park_subtype is ParkSubtype.TYPE4 else ''};"
                " use force to place here"
            )
        # layout_cells' rectangle of this one cell
        rect = Rect(xs[j], ys[i], xs[j + 1], ys[i + 1])
        turns = c.rotation.quarter_turns
        box = _vehicle(rect.center, entry.size, turns)
        length, width, _ = VEHICLE_SIZES[entry.size]
        foot_x, foot_y = (width, length) if turns % 2 == 0 else (length, width)
        tags = {
            "cell": f"{entry.cell.i},{entry.cell.j}",
            "vehicle_size": entry.size,
            "parked": "true" if entry.parked else "false",
            "color": entry.color,
            "facing": _COMPASS[turns],
        }
        if foot_x > rect.width + 1e-9 or foot_y > rect.height + 1e-9:
            tags["overhang"] = "true"
        vehicles.add(f"veh-{entry.cell.i}-{entry.cell.j}", vehicle, tags, box)
        aabbs.append(_aabb(box[:3], box[3:6], math.cos(box[6]), math.sin(box[6])))
    vehicles.check()
    return _table_scene(scene._table + vehicles, _fold_bounds(aabbs), scene.light_level)


# --- occupancy plan documents -------------------------------------------------


def parse_occupancy_plan(text: str) -> OccupancyPlan:
    doc = _load_json(text, "occupancy plan")
    _check_schema(doc, PLAN_SCHEMA)
    raw_entries = doc.get("entries", [])
    if type(raw_entries) is not list:
        raise SchemaError("plan entries must be a JSON array")
    return OccupancyPlan(tuple(_plan_entry(k, raw) for k, raw in enumerate(raw_entries)))


# the fields of a plan entry besides its cell, with their JSON types
_PLAN_FIELDS = {"size": (str, "string"), "parked": (bool, "boolean"),
                "color": (str, "string"), "force": (bool, "boolean")}


def _plan_entry(k: int, raw) -> PlanEntry:
    """Entry k of a plan document.  Nothing is converted: 0.9, "1" and true
    are no cell coordinates, and "false" is no boolean."""
    if type(raw) is not dict:
        raise SchemaError(f"bad plan entry {k}: not a JSON object")
    cell = raw.get("cell")
    if type(cell) is not list or len(cell) != 2 or any(type(c) is not int for c in cell):
        raise SchemaError(f"bad plan entry {k}: cell must be two integers, got {cell!r}")
    if "size" not in raw:
        raise SchemaError(f"bad plan entry {k}: no size")
    fields = {name: raw[name] for name in _PLAN_FIELDS if name in raw}
    for name, value in fields.items():
        kind, json_name = _PLAN_FIELDS[name]
        if type(value) is not kind:
            raise SchemaError(f"bad plan entry {k}: {name} must be a JSON {json_name},"
                              f" got {value!r}")
    return PlanEntry(CellRef(*cell), **fields)


def emit_occupancy_plan(plan: OccupancyPlan) -> str:
    doc = {
        "schema": PLAN_SCHEMA,
        "entries": [
            {
                "cell": [e.cell.i, e.cell.j],
                "size": e.size,
                "parked": e.parked,
                "color": e.color,
                "force": e.force,
            }
            for e in plan.entries
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- scene documents -----------------------------------------------------------


def _box_values(doc: dict, owner: str) -> tuple[float, ...]:
    """Centre, half extents and yaw of the owner's object as seven floats,
    with every check Box3 makes; a value that is not finite, or a field the
    object lacks ("node 'a' has no yaw"), has a SchemaError of its own."""
    try:
        center = tuple(map(float, doc["center"]))
        half = tuple(map(float, doc["half_extents"]))
        yaw = float(doc["yaw"])
        values = (*center, *half, yaw)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite value in center {center}, half_extents {half}"
                             f" or yaw {yaw}")
        Box3(center, half, yaw)  # its checks, with its messages
        return values
    except KeyError as exc:
        raise SchemaError(f"{owner} has no {exc.args[0]}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad box: {exc}") from exc


# scene/1 text is exactly what json.dumps(document, indent=2, sort_keys=True)
# writes, laid out from fixed templates whose keys are already sorted; the
# oracle test in tests/test_scene.py holds the two byte-equal.
_SCENE_HEAD = """\
{
  "bounds": {
    "center": [
      %s,
      %s,
      %s
    ],
    "half_extents": [
      %s,
      %s,
      %s
    ],
    "yaw": %s
  },
  "light_level": %s,
  "nodes": ["""

_NODE_RECORD = """\
    {
      "center": [
        %s,
        %s,
        %s
      ],
      "half_extents": [
        %s,
        %s,
        %s
      ],
      "id": %s,
      "kind": %s,
      "tags": %s,
      "yaw": %s
    },"""

_SCENE_TAIL = """,
  "origin": [
    0.0,
    0.0,
    0.0
  ],
  "schema": %s
}
""" % json.dumps(SCENE_SCHEMA)

_encode_str = json.encoder.encode_basestring_ascii


class _FloatTexts(dict):
    """float -> its JSON text, float.__repr__ (a box value is finite),
    filled while one scene is written.  0.0 and -0.0 are one key, which
    holds "0.0"; _number_texts spells -0.0 itself."""

    def __init__(self):
        super().__init__({0.0: "0.0"})

    def __missing__(self, value: float) -> str:
        text = self[value] = float.__repr__(value)
        return text


_NEGATIVE_ZERO = array("d", [-0.0]).tobytes()


def _number_texts(numbers: array, floats: _FloatTexts) -> list[str]:
    """The JSON text of each float of an array('d')."""
    texts = list(map(floats.__getitem__, numbers))
    if _NEGATIVE_ZERO in numbers.tobytes():  # a -0.0, or its bytes across two floats
        for k, number in enumerate(numbers):
            if not number and math.copysign(1.0, number) < 0.0:
                texts[k] = "-0.0"
    return texts


def _tags_text(tags: dict[str, str]) -> str:
    if not tags:
        return "{}"
    items = ",\n        ".join([_encode_str(k) + ": " + _encode_str(v)
                                for k, v in sorted(tags.items())])
    return "{\n        " + items + "\n      }"


def _tag_texts(tags: list[dict[str, str]]) -> list[str]:
    """The text of each tags dict; a dict equal to the one before it (a
    marking's, after its floor tile's) takes that one's text."""
    texts, last, text = [], None, ""
    for t in tags:
        if t != last:
            last, text = t, _tags_text(t)
        texts.append(text)
    return texts


#: a node record followed by its comma and newline; the JSON text of each kind by code
_RECORD = _NODE_RECORD + "\n"
_KIND_TEXTS = tuple(_encode_str(kind.value) for kind in _KINDS)


def _records(table: _BoxTable, start: int, stop: int, floats: _FloatTexts) -> str:
    """The records of rows start to stop of a box table, formatted with
    one %."""
    texts = _number_texts(table.values[7 * start:7 * stop], floats)
    fields = zip(texts[0::7], texts[1::7], texts[2::7], texts[3::7], texts[4::7], texts[5::7],
                 map(_encode_str, table.ids[start:stop]),
                 map(_KIND_TEXTS.__getitem__, table.codes[start:stop]),
                 _tag_texts(table.tags[start:stop]), texts[6::7])
    return (_RECORD * (len(texts) // 7)) % tuple(chain.from_iterable(fields))


def _write_scene(scene: SceneGraph) -> str:
    """scene/1 text, written from the scene's box table _CHUNK rows at a
    time."""
    floats = _FloatTexts()
    bounds, table = scene.bounds, scene._table
    head = _SCENE_HEAD % (*_number_texts(array("d", (*bounds.center, *bounds.half_extents,
                                                     bounds.yaw)), floats),
                          _encode_str(scene.light_level.value))
    chunks = [_records(table, start, start + _CHUNK, floats)
              for start in range(0, len(table), _CHUNK)]
    if not chunks:
        return head + "]" + _SCENE_TAIL
    chunks[-1] = chunks[-1][:-2]  # no comma and newline after the last node
    return "".join([head, "\n", *chunks, "\n  ]", _SCENE_TAIL])


def export_scene(scene: SceneGraph, format: str = "scene-json") -> str:
    """Serialize a scene.  scene-json round-trips losslessly through
    import_scene; obj is a lossy 12-triangles-per-box mesh for viewers.
    Node ids and tags must be strings (TypeError otherwise)."""
    if format == "scene-json":
        return _write_scene(scene)
    if format == "obj":
        return _export_obj(scene)
    raise ValueError(f"unknown export format {format!r}")


_STR = frozenset({str})


class _Floats(dict):
    """Box value -> its float, filled while one table builds its nodes, so
    that equal box values share one float.  Zeros are never stored, because
    0.0 == -0.0 would give both one entry."""

    def __missing__(self, value) -> float:
        number = float(value)
        if number:
            self[value] = number
        return number


def _node_row(raw: dict) -> tuple[str, int, dict[str, str], tuple[float, ...]]:
    """The check of one node object, as the node-by-node reading makes it:
    id, kind, tags, the cell tag of a drivable floor tile, then the box.  A
    node that passes gives its table row.  The duplicate-id check is the
    caller's, between the id and the rest.  _columns_pass makes the same
    checks in bulk."""
    node_id = raw.get("id")
    if not isinstance(node_id, str) or not node_id:
        raise SchemaError("node without a string id")
    kind_raw = raw.get("kind")
    try:
        code = _NODE_CODES.get(kind_raw)
    except TypeError:  # unhashable, so no kind's value
        code = None
    if code is None:
        raise SchemaError(f"unknown node kind {kind_raw!r}")
    tags = raw.get("tags", {})
    # JSON object keys are always strings, so only the values need a look
    if type(tags) is not dict or not _STR.issuperset(map(type, tags.values())):
        raise SchemaError(f"node {node_id!r} tags must map strings to strings")
    if code == _FLOOR_CODE and tags.get("cell_kind") in _DRIVABLE_NAMES and "cell" not in tags:
        # lamp sites are read from these tiles' cell tags
        raise SchemaError(f"floor tile {node_id!r} of a drivable cell has no cell tag")
    return node_id, code, tags, _box_values(raw, f"node {node_id!r}")


#: what the import hook leaves in the document for a node it has collected
_ROW = object()
#: kind code -> 1 for a floor tile, else 0, as a bytes.translate table
_FLOOR_BYTES = bytes(code == _FLOOR_CODE for code in range(256))


def _column_hook(table: _BoxTable):
    """A json object_hook that only collects each node's raw values into
    the table's columns as the parser closes it, so that neither the
    document tree nor a node object stands beside the table.  An object
    with a "kind" key and no "schema" key is taken for a node.  One that
    lacks a node key or names no kind is left as parsed (it may be a tags
    object with a "kind" tag).  A node whose values do not fit the columns
    (a centre or half extent of other than three values, a value array('d')
    takes no float from) raises, and ends the parse; _columns_pass checks
    the rest once the parse is done."""
    add_id, add_code, add_tags = table.ids.append, table.codes.append, table.tags.append
    extend = table.values.extend

    def hook(obj: dict):
        if "kind" not in obj or "schema" in obj:
            return obj
        try:
            # every lookup before the first append, so that a row is
            # appended whole or not at all
            center, half = obj["center"], obj["half_extents"]
            code, node_id, yaw = _NODE_CODES[obj["kind"]], obj["id"], obj["yaw"]
        except KeyError:
            return obj
        # unpacking checks each vector per node: a 4-value centre beside a
        # 2-value half extent would fill seven values too
        cx, cy, cz = center
        hx, hy, hz = half
        add_code(code)
        add_id(node_id)
        add_tags(obj.get("tags", {}))
        extend((cx, cy, cz, hx, hy, hz, yaw))
        return _ROW

    return hook


def _columns_pass(table: _BoxTable) -> bool:
    """Whether every row the import hook collected passes _node_row's
    checks, made column by column: string ids, none empty and none twice;
    tags that map strings to strings; a cell tag on every drivable floor
    tile; seven values a row that pass _rows_pass.  Rows that pass hold the
    floats _node_row gives."""
    ids, tags, values = table.ids, table.tags, table.values
    n = len(ids)
    try:
        unique = set(ids)
        # JSON object keys are always strings, so only the tag values need a
        # look; dict.values raises TypeError on tags that are no dict
        tags_pass = _STR.issuperset(map(type, chain.from_iterable(map(dict.values, tags))))
    except TypeError:  # or an unhashable id
        return False
    if not (len(unique) == n and "" not in unique and _STR.issuperset(map(type, ids))
            and tags_pass and len(values) == 7 * n and _rows_pass(values)):
        return False
    floors = compress(tags, table.codes.tobytes().translate(_FLOOR_BYTES))
    return not any(t.get("cell_kind") in _DRIVABLE_NAMES and "cell" not in t for t in floors)


def import_scene(text: str) -> SceneGraph:
    """Parse a scene/1 document in one pass into a scene made from its box
    table; a box with a non-finite number (JSON's NaN and Infinity tokens,
    or an overflowing literal) or one past BOX_MAX is a SchemaError, as is
    an input that is not made of JSON objects where the schema has them.

    The parse collects every node into the table's columns, which are then
    checked in bulk; where every node passes and the hook took nothing else
    for a node, the rest of the document stands as parsed and is checked as
    it is.  Any other outcome (a node the hook could not collect, a row that
    fails the bulk checks, an object taken for a node where no node stands,
    or a text that is no JSON) parses the text again without the hook and
    checks it node by node, so that the first error in document order is
    raised, worded from the document as parsed."""
    table = _BoxTable()
    try:
        doc = json.loads(text, object_hook=_column_hook(table))
    except (TypeError, ValueError, OverflowError, RecursionError):
        pass  # JSONDecodeError is a ValueError: the reading below words it
    else:
        nodes = doc.get("nodes", []) if type(doc) is dict else None
        if (type(nodes) is list and len(nodes) == len(table) == nodes.count(_ROW)
                and _columns_pass(table)):
            return _scene_from_document(doc, table)
    return _scene_from_document(_load_json(text, "scene"))


def _scene_from_document(doc, table: _BoxTable | None = None) -> SceneGraph:
    """The scene of a parsed scene/1 document, checked in document order.
    Without a table, each node is checked and tabled here; with one, the
    import hook has collected every node already, and they passed."""
    _check_schema(doc, SCENE_SCHEMA)
    try:
        level = LightLevel(doc["light_level"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad light_level: {exc}") from exc
    nodes = doc.get("nodes", [])
    if type(nodes) is not list:
        raise SchemaError("scene nodes must be a JSON array")
    if table is None:
        table = _BoxTable()
        seen: set[str] = set()
        for k, node in enumerate(nodes):
            if type(node) is not dict:
                raise SchemaError(f"scene node {k} is not a JSON object")
            node_id = node.get("id")
            if isinstance(node_id, str) and node_id in seen:
                raise SchemaError(f"duplicate node id {node_id!r}")
            table.add(*_node_row(node))
            seen.add(node_id)
    bounds = doc.get("bounds")
    if not isinstance(bounds, dict):
        raise SchemaError("scene document is missing its bounds box")
    return _table_scene(table, _box(_box_values(bounds, "bounds")), level)


_BOX_FACES = (
    (0, 1, 2), (0, 2, 3), (4, 6, 5), (4, 7, 6),
    (0, 4, 5), (0, 5, 1), (1, 5, 6), (1, 6, 2),
    (2, 6, 7), (2, 7, 3), (3, 7, 4), (3, 4, 0),
)


def _footprint(box: Box3) -> list[tuple[float, float]]:
    """The box's 2D corners at local (-x, -y), (+x, -y), (+x, +y), (-x, +y)."""
    hx, hy, _ = box.half_extents
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    cx, cy, _ = box.center
    return [
        (cx + dx * c - dy * s, cy + dx * s + dy * c)
        for dx, dy in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy))
    ]


def _box_corners(box: Box3) -> list[tuple[float, float, float]]:
    cz, hz = box.center[2], box.half_extents[2]
    return [(x, y, cz + dz) for dz in (-hz, hz) for x, y in _footprint(box)]


def _export_obj(scene: SceneGraph) -> str:
    lines = ["# garagesim box mesh"]
    offset = 0
    for n in scene.nodes:
        lines.append(f"o {n.id}")
        for x, y, z in _box_corners(n.box):
            lines.append(f"v {x:.6f} {y:.6f} {z:.6f}")
        for a, b, c in _BOX_FACES:
            lines.append(f"f {offset + a + 1} {offset + b + 1} {offset + c + 1}")
        offset += 8
    return "\n".join(lines) + "\n"
