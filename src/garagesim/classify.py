"""Per-square classification: lane/parking subtypes and model rotations.

Every square gets the count of drivable 4-neighbors.  Drivable squares are
crossroads (4 neighbors), T-junctions (3) or straight pieces (2 or fewer);
parking squares fall into four types by the count and arrangement of their
drivable neighbors.  Each square also carries the rotation that orients its
canonical model (open edge facing north) toward its actual neighbors.

Rotations are stored canonically: a configuration whose neighbor pattern is
invariant under k quarter-turns keeps its rotation in [0, 4/k).  This makes
classification commute exactly with quarter-turn rotation of the whole plan.

All of this is one rule, :func:`_classify_square`, keyed by the square's
code and its set of drivable-neighbor directions; :func:`classify_all` and
the per-cell functions only gather those two inputs and call it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

from .errors import SpecValidationError
from .grid import (
    CellKind,
    CellRef,
    Direction,
    GarageSpec,
    is_drivable,
    validate,
)

CLASSIFIED_SCHEMA = "classified-grid/1"


class LaneSubtype(str, Enum):
    CROSSROADS = "crossroads"
    T_JUNCTION = "t-junction"
    STRAIGHT = "straight"


class ParkSubtype(str, Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"
    TYPE4 = "type4"


class RenderVariant(str, Enum):
    """Model choice for straight squares: a through-piece, a corner piece,
    or a dead end (also used for isolated squares)."""

    AXIS = "axis"
    CORNER = "corner"
    DEAD_END = "dead-end"


@dataclass(frozen=True)
class Rotation:
    """Quarter-turns from the canonical orientation; one turn maps an edge
    facing north onto east."""

    quarter_turns: int

    def __post_init__(self):
        if self.quarter_turns not in (0, 1, 2, 3):
            raise ValueError(f"quarter_turns must be in 0..3, got {self.quarter_turns}")


@dataclass(frozen=True)
class ClassifiedCell:
    cell: CellRef
    kind: CellKind
    lane_adjacency: int
    lane_subtype: LaneSubtype | None
    park_subtype: ParkSubtype | None
    render_variant: RenderVariant | None
    rotation: Rotation


@dataclass(frozen=True)
class ClassifiedGrid:
    spec: GarageSpec
    cells: tuple[tuple[ClassifiedCell, ...], ...]

    def cell(self, i: int, j: int) -> ClassifiedCell:
        return self.cells[i][j]


# --- neighbor analysis ---------------------------------------------------------


def _drivable_neighbors(
    structure: tuple[tuple[int, ...], ...], m: int, n: int, i: int, j: int
) -> frozenset[Direction]:
    """Directions from square (i, j) whose neighbor is drivable; sides
    beyond the grid count as not drivable."""
    dirs = []
    if i > 0 and is_drivable(structure[i - 1][j]):
        dirs.append(Direction.NORTH)
    if j < n - 1 and is_drivable(structure[i][j + 1]):
        dirs.append(Direction.EAST)
    if i < m - 1 and is_drivable(structure[i + 1][j]):
        dirs.append(Direction.SOUTH)
    if j > 0 and is_drivable(structure[i][j - 1]):
        dirs.append(Direction.WEST)
    return frozenset(dirs)


def lane_directions(spec: GarageSpec, cell: CellRef) -> frozenset[Direction]:
    """Directions whose neighbor is a drivable square (lane, entrance, exit)."""
    if not spec.in_bounds(cell):
        raise IndexError(f"cell ({cell.i},{cell.j}) outside {spec.m}x{spec.n} grid")
    return _drivable_neighbors(spec.structure, spec.m, spec.n, cell.i, cell.j)


def count_lane_neighbors(spec: GarageSpec, cell: CellRef) -> int:
    """Number of drivable squares among the 4-neighborhood (off-grid sides
    contribute nothing)."""
    return len(lane_directions(spec, cell))


def symmetry_period(dirs: frozenset[Direction]) -> int:
    """Smallest positive number of quarter-turns leaving the direction set
    unchanged: 1 for empty/full sets, 2 for opposite pairs, else 4."""
    n = len(dirs)
    if n == 0 or n == 4:
        return 1
    if n == 2:
        a, b = dirs
        if (a - b) % 4 == 2:
            return 2
    return 4


# --- the classification rule ------------------------------------------------------

# Open edges of the canonical (rotation 0) model for each drivable-neighbor
# count; two neighbors facing each other take the through-piece instead.
_CANONICAL_OPEN = (
    frozenset(),
    frozenset({Direction.NORTH}),
    frozenset({Direction.NORTH, Direction.EAST}),
    frozenset(Direction) - {Direction.SOUTH},
    frozenset(Direction),
)
_THROUGH = frozenset({Direction.NORTH, Direction.SOUTH})


def _model_edges(cnt: int, across: bool, quarter_turns: int) -> frozenset[Direction]:
    """Open edges of the model for a square with cnt drivable neighbors
    (facing each other when across), turned by quarter_turns."""
    base = _THROUGH if across else _CANONICAL_OPEN[cnt]
    return frozenset(d.rotated(quarter_turns) for d in base)


class _Square(NamedTuple):
    """A square's classification: the fields of ClassifiedCell after cell."""

    kind: CellKind
    lane_adjacency: int
    lane_subtype: LaneSubtype | None
    park_subtype: ParkSubtype | None
    render_variant: RenderVariant | None
    rotation: Rotation


@cache
def _classify_square(code: int, dirs: frozenset[Direction]) -> _Square:
    """The one rule from a square's code and its drivable-neighbor
    directions to subtypes, model variant and rotation.

    Drivable squares are crossroads (4 neighbors), T-junctions (3) or
    straight pieces, drawn as a through-piece, a corner or a dead end.
    Parking is Type1 with 3+ neighbors or an opposite pair, Type2 with a
    perpendicular pair, Type3 with one and Type4 with none.  The rotation
    is the fewest quarter-turns that map the canonical model's open edges
    onto the neighbors, so it lies below the set's symmetry period and
    classification commutes with plan rotation; obstacles keep rotation 0.
    """
    kind = CellKind(code)
    cnt = len(dirs)
    across = symmetry_period(dirs) == 2
    lane = park = variant = None
    if kind.drivable:
        if cnt == 4:
            lane = LaneSubtype.CROSSROADS
        elif cnt == 3:
            lane = LaneSubtype.T_JUNCTION
        else:
            lane = LaneSubtype.STRAIGHT
            if cnt < 2:
                variant = RenderVariant.DEAD_END
            else:
                variant = RenderVariant.AXIS if across else RenderVariant.CORNER
    elif kind is CellKind.PARKING:
        if cnt >= 3 or across:
            park = ParkSubtype.TYPE1
        else:
            park = (ParkSubtype.TYPE4, ParkSubtype.TYPE3, ParkSubtype.TYPE2)[cnt]
    turns = 0
    if kind is not CellKind.OBSTACLE:
        turns = next(t for t in range(4) if _model_edges(cnt, across, t) == dirs)
    return _Square(kind, cnt, lane, park, variant, Rotation(turns))


def classify_lane(spec: GarageSpec, cell: CellRef) -> LaneSubtype:
    """Subtype of a drivable square from its drivable-neighbor count."""
    kind = CellKind(spec.code(cell))
    if not kind.drivable:
        raise ValueError(f"cell ({cell.i},{cell.j}) is {kind.name}, not drivable")
    return _classify_square(kind.value, lane_directions(spec, cell)).lane_subtype


def classify_parking(spec: GarageSpec, cell: CellRef) -> ParkSubtype:
    """Parking type from count and arrangement of drivable neighbors:
    3+ or an opposite pair -> Type1, a perpendicular pair -> Type2,
    one -> Type3, none -> Type4."""
    kind = CellKind(spec.code(cell))
    if kind is not CellKind.PARKING:
        raise ValueError(f"cell ({cell.i},{cell.j}) is {kind.name}, not a parking square")
    return _classify_square(kind.value, lane_directions(spec, cell)).park_subtype


def assign_rotation(
    spec: GarageSpec, cell: CellRef, subtype: LaneSubtype | ParkSubtype
) -> Rotation:
    """Rotation orienting the square's canonical model toward its drivable
    neighbors.  Deterministic; see :func:`_classify_square` for the rule."""
    kind = CellKind(spec.code(cell))
    if isinstance(subtype, LaneSubtype) and not kind.drivable:
        raise ValueError(f"lane subtype given for non-drivable cell ({cell.i},{cell.j})")
    if isinstance(subtype, ParkSubtype) and kind is not CellKind.PARKING:
        raise ValueError(f"parking subtype given for non-parking cell ({cell.i},{cell.j})")
    return _classify_square(kind.value, lane_directions(spec, cell)).rotation


def open_edges(cell: ClassifiedCell) -> frozenset[Direction]:
    """Directions the cell's rotated model opens toward.

    Canonical open-edge sets (rotation 0): crossroads all four, T-junction
    all but south, straight-axis north/south, corner north+east, dead end
    north only.  Parking models open toward their entry edges the same way.
    """
    if cell.kind is CellKind.OBSTACLE:
        return frozenset()
    across = cell.render_variant is RenderVariant.AXIS or (
        cell.park_subtype is ParkSubtype.TYPE1 and cell.lane_adjacency == 2
    )
    return _model_edges(cell.lane_adjacency, across, cell.rotation.quarter_turns)


# --- whole-grid classification ---------------------------------------------------


def classify_all(spec: GarageSpec) -> ClassifiedGrid:
    """Classify and rotate every square; refuses invalid plans."""
    report = validate(spec)
    if not report.ok:
        raise SpecValidationError(report)

    m, n = spec.m, spec.n
    structure = spec.structure
    cells = tuple(
        tuple(
            ClassifiedCell(
                CellRef(i, j),
                *_classify_square(structure[i][j], _drivable_neighbors(structure, m, n, i, j)),
            )
            for j in range(n)
        )
        for i in range(m)
    )
    return ClassifiedGrid(spec=spec, cells=cells)


# --- export ----------------------------------------------------------------------


def classified_grid_document(grid: ClassifiedGrid) -> dict:
    cells = []
    for row in grid.cells:
        out_row = []
        for c in row:
            subtype = c.lane_subtype or c.park_subtype
            out_row.append(
                {
                    "kind": c.kind.name.lower(),
                    "cnt": c.lane_adjacency,
                    "subtype": subtype.value if subtype else None,
                    "render_variant": c.render_variant.value if c.render_variant else None,
                    "quarter_turns": c.rotation.quarter_turns,
                }
            )
        cells.append(out_row)
    return {"schema": CLASSIFIED_SCHEMA, "m": grid.spec.m, "n": grid.spec.n, "cells": cells}


def emit_classified_grid(grid: ClassifiedGrid) -> str:
    return json.dumps(classified_grid_document(grid), indent=2, sort_keys=True) + "\n"
