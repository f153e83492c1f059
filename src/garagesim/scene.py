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
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import JSON_TOO_DEEP, PlanError, SchemaError
from .classify import ClassifiedGrid
from .grid import CellKind, CellRef, _prefix

if TYPE_CHECKING:
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
        hx, hy, hz = self.half_extents
        if hx <= 0.0 or hy <= 0.0 or hz <= 0.0:
            raise ValueError(f"half extents must be positive, got {self.half_extents}")

    @property
    def aabb(self) -> tuple[float, float, float, float, float, float]:
        """World-space bounds (min x, min y, min z, max x, max y, max z)."""
        return _aabb(self.center, self.half_extents, math.cos(self.yaw), math.sin(self.yaw))


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


def _box_columns(boxes: list[Box3]) -> tuple[np.ndarray, ...]:
    """Centres and half extents (k, 3), cos and sin of yaw (k,) and world
    AABBs (k, 6) of the boxes.  The cos and sin come from math, as in
    Box3.aabb (numpy's may differ in the last bit), so every row's bounds
    are the floats Box3.aabb gives."""
    k = len(boxes)
    chain = itertools.chain.from_iterable
    centers = np.fromiter(chain(b.center for b in boxes), float, 3 * k).reshape(k, 3)
    halves = np.fromiter(chain(b.half_extents for b in boxes), float, 3 * k).reshape(k, 3)
    cos_yaw = np.fromiter((math.cos(b.yaw) for b in boxes), float, k)
    sin_yaw = np.fromiter((math.sin(b.yaw) for b in boxes), float, k)
    # inf * 0 on infinite boxes and overflow on huge ones, quiet as in Box3.aabb
    with np.errstate(invalid="ignore", over="ignore"):
        aabbs = np.stack(_aabb(centers.T, halves.T, cos_yaw, sin_yaw), axis=1)
    return centers, halves, cos_yaw, sin_yaw, aabbs


@dataclass(frozen=True, slots=True)
class SceneNode:
    id: str
    kind: NodeKind
    box: Box3
    tags: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SceneGraph:
    """An ordered scene of boxes.  What is derived from it, the ray-test
    index and the id lookup, is built on first use and kept with the scene;
    a scene is never changed (every edit makes a new SceneGraph, with
    nothing cached), so what is kept cannot go stale."""

    nodes: tuple[SceneNode, ...]
    bounds: Box3
    light_level: LightLevel

    @functools.cached_property
    def index(self) -> SceneIndex:
        """The SceneIndex over this scene's opaque boxes."""
        from .visibility import SceneIndex

        return SceneIndex(self)

    @functools.cached_property
    def _node_by_id(self) -> dict[str, SceneNode]:
        # filled back to front, so of two nodes sharing an id the first wins
        return {n.id: n for n in reversed(self.nodes)}

    def node(self, node_id: str) -> SceneNode:
        try:
            return self._node_by_id[node_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id names no node
            raise KeyError(f"no node {node_id!r} in scene") from None

    def count(self, kind: NodeKind) -> int:
        return sum(1 for n in self.nodes if n.kind is kind)


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


def slab_box(x0: float, y0: float, x1: float, y1: float, z0: float, z1: float) -> Box3:
    """Unrotated box spanning [x0, x1] x [y0, y1] x [z0, z1]: the one rule
    for floors, walls and ceilings."""
    return Box3(((x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0),
                ((x1 - x0) / 2.0, (y1 - y0) / 2.0, (z1 - z0) / 2.0))


def column_box(x: float, y: float, size: float, height: float) -> Box3:
    """Square column of side size standing from z = 0 to height at (x, y)."""
    half, half_z = size / 2.0, height / 2.0
    return Box3((x, y, half_z), (half, half, half_z))


def synthesize(grid: ClassifiedGrid, options: SynthOptions = SynthOptions()) -> SceneGraph:
    """Build the scene graph for a classified grid.

    Floor tiles carry their cell's classification in tags; obstacle cells
    become full-height wall slabs (merged per row run); columns stand on
    every interior grid corner that touches a non-obstacle cell unless
    pruned; ceiling panels cover the envelope per row; lamps populate
    drivable-cell centers per the light preset, row-major.
    """
    spec = grid.spec
    h = CEILING_HEIGHT
    xs = _prefix(spec.col_widths)
    ys = _prefix(spec.row_widths)
    nodes: list[SceneNode] = []

    # floor tiles and markings, row-major
    inset_scale = 1.0 - 2.0 * MARKING_INSET
    kind_name = {k: k.name.lower() for k in CellKind}
    half_pi = math.pi / 2.0
    mark_z = FLOOR_THICKNESS + MARKING_THICKNESS / 2.0
    mark_hz = MARKING_THICKNESS / 2.0
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
            floor = slab_box(xs[j], ys[i], xs[j + 1], ys[i + 1], 0.0, FLOOR_THICKNESS)
            nodes.append(SceneNode(f"floor-{i}-{j}", NodeKind.FLOOR_TILE, floor, tags))
            # the marking is the tile inset, its local extents swapped on odd
            # turns so that it stays in its cell
            cx, cy, _ = floor.center
            half_w = floor.half_extents[0] * inset_scale
            half_h = floor.half_extents[1] * inset_scale
            if turns % 2 == 1:
                half_w, half_h = half_h, half_w
            mark_box = Box3(
                center=(cx, cy, mark_z),
                half_extents=(half_w, half_h, mark_hz),
                yaw=turns * half_pi,
            )
            if c.kind.drivable:
                nodes.append(SceneNode(f"mark-lane-{i}-{j}", NodeKind.LANE_MARKING,
                                       mark_box, dict(tags)))
            else:
                nodes.append(SceneNode(f"mark-park-{i}-{j}", NodeKind.PARKING_MARKING,
                                       mark_box, dict(tags)))
    lamp_sites = _lamp_sites(nodes)

    # obstacle wall slabs, merged per row run
    for i in range(spec.m):
        j = 0
        while j < spec.n:
            if grid.cells[i][j].kind is CellKind.OBSTACLE:
                j0 = j
                while j < spec.n and grid.cells[i][j].kind is CellKind.OBSTACLE:
                    j += 1
                nodes.append(
                    SceneNode(
                        f"wall-{i}-{j0}", NodeKind.COLUMN,
                        slab_box(xs[j0], ys[i], xs[j], ys[i + 1], 0.0, h),
                        {"structure": "wall", "row": str(i), "cols": f"{j0}-{j - 1}"},
                    )
                )
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
            nodes.append(
                SceneNode(
                    f"col-{ci}-{cj}", NodeKind.COLUMN,
                    column_box(xs[cj], ys[ci], COLUMN_SIZE, h),
                    {"corner": f"{ci},{cj}"},
                )
            )

    # ceiling panels, one per row, covering the envelope
    for i in range(spec.m):
        nodes.append(
            SceneNode(f"ceil-{i}", NodeKind.CEILING_PANEL,
                      slab_box(xs[0], ys[i], xs[-1], ys[i + 1], h - CEILING_THICKNESS, h),
                      {"row": str(i)})
        )

    # ramp markers on entrance/exit squares
    for i in range(spec.m):
        for j in range(spec.n):
            c = grid.cells[i][j]
            if c.kind in (CellKind.ENTRANCE, CellKind.EXIT):
                rect = Rect(xs[j], ys[i], xs[j + 1], ys[i + 1])
                cx, cy = rect.center
                nodes.append(
                    SceneNode(
                        f"ramp-{i}-{j}", NodeKind.RAMP_MARKER,
                        Box3((cx, cy, FLOOR_THICKNESS + MARKING_THICKNESS + 0.005),
                             (rect.width / 4.0, rect.height / 4.0, 0.005)),
                        {"cell": f"{i},{j}", "ramp": c.kind.name.lower()},
                    )
                )

    # lamps last, over the drivable floor tiles found above
    nodes.extend(_make_lamps(lamp_sites, options.light, h))

    bounds = Box3(
        center=(xs[-1] / 2.0, ys[-1] / 2.0, h / 2.0),
        half_extents=(xs[-1] / 2.0, ys[-1] / 2.0, h / 2.0),
    )
    return SceneGraph(nodes=tuple(nodes), bounds=bounds, light_level=options.light)


def _make_lamps(
    sites: list[tuple[float, float, str]], level: LightLevel, ceiling_h: float
) -> list[SceneNode]:
    count = math.ceil(level.lamp_coverage * len(sites)) if sites else 0
    lamp_z = ceiling_h - CEILING_THICKNESS - LAMP_SIZE[2] / 2.0
    half = (LAMP_SIZE[0] / 2.0, LAMP_SIZE[1] / 2.0, LAMP_SIZE[2] / 2.0)
    intensity = repr(level.lamp_intensity)
    lamps = []
    for k, (cx, cy, cell) in enumerate(sites[:count]):
        lamps.append(
            SceneNode(
                "lamp-" + cell.replace(",", "-"), NodeKind.LAMP,
                Box3((cx, cy, lamp_z), half),
                {"cell": cell, "site_index": str(k), "intensity": intensity},
            )
        )
    return lamps


_DRIVABLE_NAMES = frozenset(k.name.lower() for k in CellKind if k.drivable)


def _lamp_sites(nodes) -> list[tuple[float, float, str]]:
    """(x, y, cell) of each drivable-cell floor tile, in node order: the one
    source of lamp sites for synthesis and re-lighting alike."""
    return [
        (n.box.center[0], n.box.center[1], n.tags["cell"])
        for n in nodes
        if n.kind is NodeKind.FLOOR_TILE and n.tags.get("cell_kind") in _DRIVABLE_NAMES
    ]


def apply_light_level(scene: SceneGraph, level: LightLevel) -> SceneGraph:
    """Repopulate lamps per the preset; everything else is untouched.

    Lamp sites are the drivable-cell floor tiles, filled row-major, so the
    populated set under a lower coverage is a prefix of a higher one.
    Applying a level always overrides the previous one.
    """
    sites = _lamp_sites(scene.nodes)
    keep = tuple(n for n in scene.nodes if n.kind is not NodeKind.LAMP)
    h = scene.bounds.center[2] + scene.bounds.half_extents[2]
    lamps = _make_lamps(sites, level, h)
    return SceneGraph(nodes=keep + tuple(lamps), bounds=scene.bounds, light_level=level)


def remove_node(scene: SceneGraph, node_id: str) -> SceneGraph:
    """New scene without the named node (used for pruning experiments)."""
    kept = tuple(n for n in scene.nodes if n.id != node_id)
    if len(kept) == len(scene.nodes):
        raise KeyError(f"no node {node_id!r} in scene")
    return replace(scene, nodes=kept)


def _fold_bounds(boxes) -> Box3:
    """Axis-aligned box around the world AABBs of the given boxes, in
    float64 (an int box field past 2**52 is rounded to a float first).  A
    NaN bound is skipped, as a min/max fold over the boxes skips it."""
    aabbs = _box_columns(list(boxes))[4]
    lo = np.fmin.reduce(aabbs[:, :3], axis=0, initial=math.inf).tolist()
    hi = np.fmax.reduce(aabbs[:, 3:], axis=0, initial=-math.inf).tolist()
    return Box3(
        center=tuple((lo[k] + hi[k]) / 2.0 for k in range(3)),
        half_extents=tuple(max((hi[k] - lo[k]) / 2.0, 1e-9) for k in range(3)),
    )


def vehicle_box(
    center_xy: tuple[float, float], size: str, quarter_turns: int
) -> Box3:
    """Box for a vehicle resting on the slab; at rotation 0 it faces north
    (length along y), one quarter-turn faces it east."""
    length, width, height = VEHICLE_SIZES[size]
    return Box3(
        center=(center_xy[0], center_xy[1], FLOOR_THICKNESS + height / 2.0),
        half_extents=(width / 2.0, length / 2.0, height / 2.0),
        yaw=quarter_turns * math.pi / 2.0,
    )


def populate_vehicles(
    scene: SceneGraph, grid: ClassifiedGrid, plan: OccupancyPlan
) -> SceneGraph:
    """Place one vehicle per plan entry, centered in its cell and yawed to
    face the cell's lane.  Entries on non-parking cells or Type4 spaces
    need the force flag.  Returns a new graph; the input is unchanged."""
    from .classify import ParkSubtype

    rects = {cell: rect for cell, rect in layout_cells(grid)}
    seen: set[CellRef] = set()
    vehicles: list[SceneNode] = []
    for entry in plan.entries:
        if entry.cell in seen:
            raise PlanError(f"cell ({entry.cell.i},{entry.cell.j}) referenced twice")
        seen.add(entry.cell)
        if entry.cell not in rects:
            raise PlanError(f"cell ({entry.cell.i},{entry.cell.j}) outside the grid")
        if entry.size not in VEHICLE_SIZES:
            raise PlanError(f"unknown vehicle size {entry.size!r}")
        c = grid.cells[entry.cell.i][entry.cell.j]
        placeable = c.kind is CellKind.PARKING and c.park_subtype is not ParkSubtype.TYPE4
        if not placeable and not entry.force:
            raise PlanError(
                f"cell ({entry.cell.i},{entry.cell.j}) is {c.kind.name.lower()}"
                f"{'/type4' if c.park_subtype is ParkSubtype.TYPE4 else ''};"
                " use force to place here"
            )
        rect = rects[entry.cell]
        turns = c.rotation.quarter_turns
        box = vehicle_box(rect.center, entry.size, turns)
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
        vehicles.append(
            SceneNode(f"veh-{entry.cell.i}-{entry.cell.j}", NodeKind.VEHICLE, box, tags)
        )
    bounds = _fold_bounds([scene.bounds, *(v.box for v in vehicles)])
    return SceneGraph(
        nodes=scene.nodes + tuple(vehicles), bounds=bounds, light_level=scene.light_level
    )


# --- occupancy plan documents -------------------------------------------------


def parse_occupancy_plan(text: str) -> OccupancyPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid plan JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(f"invalid plan JSON: {JSON_TOO_DEEP}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != PLAN_SCHEMA:
        raise SchemaError(f"expected schema {PLAN_SCHEMA!r}")
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


def _box_from_document(doc: dict, number=float) -> Box3:
    """The box of a node or bounds object; number reads each box value
    (float, or a _Floats lookup that gives the same float)."""
    try:
        center = tuple(map(number, doc["center"]))
        half = tuple(map(number, doc["half_extents"]))
        yaw = number(doc["yaw"])
        if not all(map(math.isfinite, (*center, *half, yaw))):
            raise ValueError(f"non-finite value in center {center}, half_extents {half}"
                             f" or yaw {yaw}")
        return Box3(center, half, yaw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
_as_float = float.__float__


class _FloatTexts(dict):
    """float -> its JSON text (float.__repr__, or NaN, Infinity, -Infinity),
    filled while one scene is written.  Zeros are never stored, because
    0.0 == -0.0 would give both one entry."""

    def __missing__(self, value: float) -> str:
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        text = float.__repr__(value)
        if value:
            self[value] = text
        return text


def _scalar(value) -> str:
    """A box value that is no float (an int, say), as json writes it."""
    if isinstance(value, (list, tuple, dict)):
        raise TypeError(f"a box value must be a number, got {value!r}")
    return json.dumps(value)


def _box_texts(box: Box3, floats: _FloatTexts) -> tuple[str, ...]:
    """Center, half extents and yaw of a box as JSON number texts."""
    values = (*box.center, *box.half_extents, box.yaw)
    try:
        # float.__float__ turns float subclasses into plain floats and
        # rejects ints, which must not meet an equal float's cached text
        return tuple(map(floats.__getitem__, map(_as_float, values)))
    except TypeError:
        return tuple(map(_scalar, values))


def _tags_text(tags: dict[str, str]) -> str:
    if not tags:
        return "{}"
    items = ",\n        ".join([_encode_str(k) + ": " + _encode_str(v)
                                for k, v in sorted(tags.items())])
    return "{\n        " + items + "\n      }"


def _write_scene(scene: SceneGraph) -> str:
    floats = _FloatTexts()
    head = _SCENE_HEAD % (*_box_texts(scene.bounds, floats),
                          _encode_str(scene.light_level.value))
    if not scene.nodes:
        return head + "]" + _SCENE_TAIL
    lines = [head]
    for n in scene.nodes:
        c0, c1, c2, h0, h1, h2, yaw = _box_texts(n.box, floats)
        lines.append(_NODE_RECORD % (c0, c1, c2, h0, h1, h2, _encode_str(n.id),
                                     _encode_str(n.kind.value), _tags_text(n.tags), yaw))
    lines[-1] = lines[-1][:-1]  # no comma after the last node
    lines.append("  ]" + _SCENE_TAIL)
    return "\n".join(lines)


def export_scene(scene: SceneGraph, format: str = "scene-json") -> str:
    """Serialize a scene.  scene-json round-trips losslessly through
    import_scene; obj is a lossy 12-triangles-per-box mesh for viewers.
    Node ids and tags must be strings (TypeError otherwise)."""
    if format == "scene-json":
        return _write_scene(scene)
    if format == "obj":
        return _export_obj(scene)
    raise ValueError(f"unknown export format {format!r}")


_NODE_KINDS = {k.value: k for k in NodeKind}
_STR = frozenset({str})


class _Floats(dict):
    """JSON box value -> its float, filled while one scene is read, so that
    equal box values share one float.  An equal int or bool finds the
    stored float, which is what float() gives it.  Zeros are never stored,
    because 0.0 == -0.0 would give both one entry."""

    def __missing__(self, value) -> float:
        number = float(value)
        if number:
            self[value] = number
        return number


def _node_from_document(raw: dict, number=float) -> SceneNode:
    """The one check of a node object: id, kind, tags, the cell tag of a
    drivable floor tile, then the box.  The duplicate-id check is the
    caller's, between the id and the rest."""
    node_id = raw.get("id")
    if not isinstance(node_id, str) or not node_id:
        raise SchemaError("node without a string id")
    kind_raw = raw.get("kind")
    try:
        kind = _NODE_KINDS.get(kind_raw)
    except TypeError:  # unhashable, so no kind's value
        kind = None
    if kind is None:
        raise SchemaError(f"unknown node kind {kind_raw!r}")
    tags = raw.get("tags", {})
    # JSON object keys are always strings, so only the values need a look
    if type(tags) is not dict or not _STR.issuperset(map(type, tags.values())):
        raise SchemaError(f"node {node_id!r} tags must map strings to strings")
    if (kind is NodeKind.FLOOR_TILE and tags.get("cell_kind") in _DRIVABLE_NAMES
            and "cell" not in tags):
        # lamp sites are read from these tiles' cell tags
        raise SchemaError(f"floor tile {node_id!r} of a drivable cell has no cell tag")
    return SceneNode(node_id, kind, _box_from_document(raw, number), tags)


def _node_hook():
    """A json object_hook that builds each node as the parser closes it, so
    that the document tree never stands beside the scene.  An object with
    a "kind" key is taken for a node (one with a "schema" key may be the
    document); one that fails the check is left as it was parsed, for the
    walk after the parse to raise its error in document order."""
    number = _Floats().__getitem__

    def hook(obj: dict):
        if "kind" not in obj or "schema" in obj:
            return obj
        try:
            return _node_from_document(obj, number)
        except SchemaError:
            return obj

    return hook


def import_scene(text: str) -> SceneGraph:
    """Parse a scene/1 document in one pass; a box with a non-finite
    number (JSON's NaN and Infinity tokens, or an overflowing literal) is a
    SchemaError, as is an input that is not made of JSON objects where the
    schema has them."""
    try:
        doc = json.loads(text, object_hook=_node_hook())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid scene JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(f"invalid scene JSON: {JSON_TOO_DEEP}") from exc
    # a document read as a node had no schema key
    schema = doc.get("schema") if type(doc) is dict else None
    if schema != SCENE_SCHEMA:
        raise SchemaError(f"expected schema {SCENE_SCHEMA!r}, got {schema!r}")
    try:
        level = LightLevel(doc["light_level"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad light_level: {exc}") from exc
    nodes = doc.get("nodes", [])
    if type(nodes) is not list:
        raise SchemaError("scene nodes must be a JSON array")
    seen: set[str] = set()
    for k, node in enumerate(nodes):
        if type(node) is not SceneNode:
            # the hook left it as parsed: check it here, where the first bad
            # node in document order raises its error
            if type(node) is not dict:
                raise SchemaError(f"scene node {k} is not a JSON object")
            node_id = node.get("id")
            if isinstance(node_id, str) and node_id in seen:
                raise SchemaError(f"duplicate node id {node_id!r}")
            node = nodes[k] = _node_from_document(node)
        if node.id in seen:
            raise SchemaError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
    bounds = doc.get("bounds")
    if type(bounds) is SceneNode:  # a bounds object that also reads as a node
        bounds = bounds.box
    elif isinstance(bounds, dict):
        bounds = _box_from_document(bounds)
    else:
        raise SchemaError("scene document is missing its bounds box")
    return SceneGraph(nodes=tuple(nodes), bounds=bounds, light_level=level)


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
