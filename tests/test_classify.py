import itertools
import json
import random

import pytest

from garagesim.classify import (
    LaneSubtype,
    ParkSubtype,
    RenderVariant,
    Rotation,
    assign_rotation,
    classify_all,
    classify_lane,
    classify_parking,
    classified_grid_document,
    count_lane_neighbors,
    emit_classified_grid,
    lane_directions,
    open_edges,
    symmetry_period,
)
from garagesim.errors import SpecValidationError
from garagesim.grid import CellKind, CellRef, Direction, GarageSpec, rotate_quarter
from conftest import random_spec
from oracles import (
    CANONICAL_OPEN,
    LANE_TABLE,
    parking_table,
    period_of,
    rotated_dirs,
)

N, E, S, W = Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST

LANE_TRUE = (CellKind.LANE, CellKind.ENTRANCE, CellKind.EXIT)
LANE_FALSE = (CellKind.OBSTACLE, CellKind.PARKING)

# (name, present directions, probe position, grid shape)
TRUNCATIONS = [
    ("interior", (N, E, S, W), (1, 1), (3, 3)),
    ("north-edge", (E, S, W), (0, 1), (2, 3)),
    ("south-edge", (N, E, W), (1, 1), (2, 3)),
    ("west-edge", (N, E, S), (1, 0), (3, 2)),
    ("east-edge", (N, S, W), (1, 1), (3, 2)),
    ("nw-corner", (E, S), (0, 0), (2, 2)),
    ("ne-corner", (S, W), (0, 1), (2, 2)),
    ("sw-corner", (N, E), (1, 0), (2, 2)),
    ("se-corner", (N, W), (1, 1), (2, 2)),
]


def probe_grid(center_kind, lane_dirs, present, probe, shape, fill_idx=0):
    """Build a spec whose probe cell has exactly the requested drivable
    neighbors; every direction in `present` exists on the grid."""
    m, n = shape
    structure = [[CellKind.OBSTACLE.value for _ in range(n)] for _ in range(m)]
    pi, pj = probe
    structure[pi][pj] = center_kind.value
    for k, d in enumerate(present):
        di, dj = d.delta
        if d in lane_dirs:
            structure[pi + di][pj + dj] = LANE_TRUE[(fill_idx + k) % 3].value
        else:
            structure[pi + di][pj + dj] = LANE_FALSE[(fill_idx + k) % 2].value
    return GarageSpec(
        structure=tuple(tuple(r) for r in structure),
        row_widths=tuple(5.0 for _ in range(m)),
        col_widths=tuple(6.0 for _ in range(n)),
    )


def all_cases():
    for trunc_name, present, probe, shape in TRUNCATIONS:
        for r in range(len(present) + 1):
            for lane_dirs in itertools.combinations(present, r):
                yield trunc_name, present, probe, shape, frozenset(lane_dirs)


class TestCountLaneNeighbors:
    def test_exhaustive_against_hand_counter(self):
        checked = 0
        for trunc, present, probe, shape, lane_dirs in all_cases():
            for kind in (CellKind.LANE, CellKind.PARKING):
                spec = probe_grid(kind, lane_dirs, present, probe, shape, checked)
                got = count_lane_neighbors(spec, CellRef(*probe))
                assert got == len(lane_dirs), (trunc, lane_dirs)
                checked += 1
        assert checked == 2 * sum(2 ** len(p) for _, p, _, _ in TRUNCATIONS)

    def test_interior_all_lane(self, all_lane_3x3):
        assert count_lane_neighbors(all_lane_3x3, CellRef(1, 1)) == 4

    def test_isolated_cell(self):
        spec = probe_grid(CellKind.LANE, frozenset(), (N, E, S, W), (1, 1), (3, 3))
        assert count_lane_neighbors(spec, CellRef(1, 1)) == 0

    def test_corner_single_lane(self):
        spec = probe_grid(CellKind.LANE, frozenset({E}), (E, S), (0, 0), (2, 2))
        assert count_lane_neighbors(spec, CellRef(0, 0)) == 1

    def test_out_of_bounds(self, all_lane_3x3):
        with pytest.raises(IndexError):
            count_lane_neighbors(all_lane_3x3, CellRef(3, 0))


class TestSubtypeOracle:
    def test_lane_table_equivalence_exhaustive(self):
        for trunc, present, probe, shape, lane_dirs in all_cases():
            for kind in LANE_TRUE:
                spec = probe_grid(kind, lane_dirs, present, probe, shape)
                got = classify_lane(spec, CellRef(*probe))
                assert got.value == LANE_TABLE[len(lane_dirs)], (trunc, kind, lane_dirs)

    def test_parking_table_equivalence_exhaustive(self):
        for trunc, present, probe, shape, lane_dirs in all_cases():
            spec = probe_grid(CellKind.PARKING, lane_dirs, present, probe, shape)
            got = classify_parking(spec, CellRef(*probe))
            assert got.value == parking_table(lane_dirs), (trunc, lane_dirs)

    def test_wrong_kind_errors(self):
        spec = probe_grid(CellKind.PARKING, frozenset(), (N, E, S, W), (1, 1), (3, 3))
        with pytest.raises(ValueError):
            classify_lane(spec, CellRef(1, 1))
        spec = probe_grid(CellKind.LANE, frozenset(), (N, E, S, W), (1, 1), (3, 3))
        with pytest.raises(ValueError):
            classify_parking(spec, CellRef(1, 1))

    def test_across_vs_adjacent(self):
        across = probe_grid(CellKind.PARKING, frozenset({N, S}), (N, E, S, W), (1, 1), (3, 3))
        assert classify_parking(across, CellRef(1, 1)) is ParkSubtype.TYPE1
        adjacent = probe_grid(CellKind.PARKING, frozenset({N, E}), (N, E, S, W), (1, 1), (3, 3))
        assert classify_parking(adjacent, CellRef(1, 1)) is ParkSubtype.TYPE2


class TestRotation:
    def test_spec_examples(self):
        # straight east-west -> one quarter-turn
        spec = probe_grid(CellKind.LANE, frozenset({E, W}), (N, E, S, W), (1, 1), (3, 3))
        assert assign_rotation(spec, CellRef(1, 1), LaneSubtype.STRAIGHT).quarter_turns == 1
        # crossroads: symmetric, canonical zero
        spec = probe_grid(CellKind.LANE, frozenset({N, E, S, W}), (N, E, S, W), (1, 1), (3, 3))
        assert assign_rotation(spec, CellRef(1, 1), LaneSubtype.CROSSROADS).quarter_turns == 0
        # type3 parking facing its single lane neighbor to the south
        spec = probe_grid(CellKind.PARKING, frozenset({S}), (N, E, S, W), (1, 1), (3, 3))
        assert assign_rotation(spec, CellRef(1, 1), ParkSubtype.TYPE3).quarter_turns == 2

    def test_corner_mapping(self):
        expected = {frozenset({N, E}): 0, frozenset({E, S}): 1,
                    frozenset({S, W}): 2, frozenset({W, N}): 3}
        for dirs, turns in expected.items():
            spec = probe_grid(CellKind.LANE, dirs, (N, E, S, W), (1, 1), (3, 3))
            assert assign_rotation(spec, CellRef(1, 1), LaneSubtype.STRAIGHT).quarter_turns == turns

    def test_t_junction_missing_arm(self):
        for missing in Direction:
            dirs = frozenset(set(Direction) - {missing})
            spec = probe_grid(CellKind.LANE, dirs, (N, E, S, W), (1, 1), (3, 3))
            cell = classify_all(spec).cell(1, 1)
            assert cell.lane_subtype is LaneSubtype.T_JUNCTION
            assert missing not in open_edges(cell)
            assert open_edges(cell) == dirs

    def test_rotation_validates_range(self):
        with pytest.raises(ValueError):
            Rotation(4)

    def test_wrong_subtype_kind(self):
        spec = probe_grid(CellKind.PARKING, frozenset({N}), (N, E, S, W), (1, 1), (3, 3))
        with pytest.raises(ValueError):
            assign_rotation(spec, CellRef(1, 1), LaneSubtype.STRAIGHT)

    def test_parking_subtype_for_a_lane_square(self):
        spec = probe_grid(CellKind.LANE, frozenset({N}), (N, E, S, W), (1, 1), (3, 3))
        with pytest.raises(ValueError) as err:
            assign_rotation(spec, CellRef(1, 1), ParkSubtype.TYPE1)
        assert str(err.value) == "parking subtype given for non-parking cell (1,1)"


class TestConnectivityOracle:
    """Open edges of the rotated model must face the drivable neighbors."""

    def test_connectivity_on_random_specs(self, rng):
        for _ in range(60):
            spec = random_spec(rng)
            grid = classify_all(spec)
            for row in grid.cells:
                for cell in row:
                    dirs = lane_directions(spec, cell.cell)
                    sub = cell.lane_subtype
                    if sub in (LaneSubtype.CROSSROADS, LaneSubtype.T_JUNCTION):
                        assert open_edges(cell) == dirs
                    elif sub is LaneSubtype.STRAIGHT and len(dirs) in (1, 2):
                        assert open_edges(cell) == dirs
                    elif cell.park_subtype and cell.park_subtype is not ParkSubtype.TYPE4:
                        assert open_edges(cell) == dirs
                    else:  # obstacles, Type4 and isolated squares open nowhere
                        assert open_edges(cell) == frozenset()

    def test_open_edges_match_independent_tables(self, rng):
        for _ in range(40):
            spec = random_spec(rng)
            grid = classify_all(spec)
            for row in grid.cells:
                for cell in row:
                    if cell.lane_subtype is None:
                        continue
                    variant = cell.render_variant.value if cell.render_variant else None
                    if (cell.lane_subtype.value, variant) not in CANONICAL_OPEN:
                        continue
                    if cell.lane_adjacency == 0:
                        continue  # isolated squares open nowhere
                    base = CANONICAL_OPEN[(cell.lane_subtype.value, variant)]
                    got = open_edges(cell)
                    assert got == rotated_dirs(base, cell.rotation.quarter_turns)


class TestClassifyAll:
    def test_lane_strip(self):
        spec = GarageSpec(((1, 1, 1),), (5.0,), (6.0, 6.0, 6.0))
        grid = classify_all(spec)
        subtypes = [c.lane_subtype for c in grid.cells[0]]
        assert subtypes == [LaneSubtype.STRAIGHT] * 3
        assert grid.cell(0, 1).lane_adjacency == 2
        assert grid.cell(0, 1).render_variant is RenderVariant.AXIS
        assert grid.cell(0, 1).rotation.quarter_turns == 1

    def test_plus_shape(self, lane_cross_spec):
        grid = classify_all(lane_cross_spec)
        assert grid.cell(1, 1).lane_subtype is LaneSubtype.CROSSROADS
        for i, j in ((0, 1), (1, 0), (1, 2), (2, 1)):
            assert grid.cell(i, j).lane_subtype is LaneSubtype.STRAIGHT
        # the arms dead-end away from the center
        assert grid.cell(0, 1).render_variant is RenderVariant.DEAD_END
        assert open_edges(grid.cell(0, 1)) == frozenset({S})

    def test_rejects_invalid_spec(self):
        allobstacle = GarageSpec(((-1, -1), (-1, -1)), (5.0, 5.0), (6.0, 6.0))
        with pytest.raises(SpecValidationError):
            classify_all(allobstacle)

    def test_deterministic(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            assert classify_all(spec) == classify_all(spec)

    def test_invariant_fields(self, rng):
        for _ in range(30):
            spec = random_spec(rng)
            grid = classify_all(spec)
            for i in range(spec.m):
                for j in range(spec.n):
                    c = grid.cell(i, j)
                    assert c.cell == CellRef(i, j)
                    assert (c.lane_subtype is not None) == c.kind.drivable
                    assert (c.park_subtype is not None) == (c.kind is CellKind.PARKING)
                    assert c.lane_adjacency == count_lane_neighbors(spec, c.cell)
                    # the whole-grid pass and the per-cell API agree cell by cell
                    if c.kind.drivable:
                        assert c.lane_subtype is classify_lane(spec, c.cell)
                    if c.kind is CellKind.PARKING:
                        assert c.park_subtype is classify_parking(spec, c.cell)
                    subtype = c.lane_subtype or c.park_subtype
                    if subtype is not None:
                        assert c.rotation == assign_rotation(spec, c.cell, subtype)
                        dirs = set(lane_directions(spec, c.cell))
                        variant = None
                        if subtype is LaneSubtype.STRAIGHT and len(dirs) < 2:
                            variant = RenderVariant.DEAD_END
                        elif subtype is LaneSubtype.STRAIGHT:
                            across = dirs in ({N, S}, {E, W})
                            variant = RenderVariant.AXIS if across else RenderVariant.CORNER
                        assert c.render_variant is variant
                    else:
                        assert c.render_variant is None and c.rotation == Rotation(0)


class TestEquivariance:
    @staticmethod
    def expected_after_rotation(grid):
        """Independent transform: location (i,j) -> (j, m-1-i), rotation
        bumped one turn modulo the neighbor pattern's symmetry period."""
        m = grid.spec.m
        mapping = {}
        for row in grid.cells:
            for cell in row:
                dirs = lane_directions(grid.spec, cell.cell)
                period = period_of(dirs)
                new_turns = (cell.rotation.quarter_turns + 1) % period
                if cell.kind is CellKind.OBSTACLE:
                    new_turns = 0
                loc = (cell.cell.j, m - 1 - cell.cell.i)
                sub = cell.lane_subtype or cell.park_subtype
                mapping[loc] = (
                    cell.kind, cell.lane_adjacency, sub, cell.render_variant, new_turns
                )
        return mapping

    def test_quarter_turn_commutes(self, rng):
        for _ in range(60):
            spec = random_spec(rng, max_side=8)
            grid = classify_all(spec)
            rotated = classify_all(rotate_quarter(spec))
            expected = self.expected_after_rotation(grid)
            for row in rotated.cells:
                for cell in row:
                    sub = cell.lane_subtype or cell.park_subtype
                    got = (cell.kind, cell.lane_adjacency, sub, cell.render_variant,
                           cell.rotation.quarter_turns)
                    assert got == expected[(cell.cell.i, cell.cell.j)]

    def test_symmetry_period_values(self):
        assert symmetry_period(frozenset()) == 1
        assert symmetry_period(frozenset(Direction)) == 1
        assert symmetry_period(frozenset({N, S})) == 2
        assert symmetry_period(frozenset({E, W})) == 2
        assert symmetry_period(frozenset({N, E})) == 4
        assert symmetry_period(frozenset({N})) == 4
        assert symmetry_period(frozenset({N, E, S})) == 4


class TestExport:
    def test_document_shape(self, lane_cross_spec):
        grid = classify_all(lane_cross_spec)
        doc = classified_grid_document(grid)
        assert doc["schema"] == "classified-grid/1"
        assert doc["m"] == 3 and doc["n"] == 3
        center = doc["cells"][1][1]
        assert center == {
            "kind": "lane", "cnt": 4, "subtype": "crossroads",
            "render_variant": None, "quarter_turns": 0,
        }

    def test_emit_parses_and_is_stable(self, lane_cross_spec):
        grid = classify_all(lane_cross_spec)
        text = emit_classified_grid(grid)
        assert json.loads(text)["cells"][0][0]["subtype"] == "type2"
        assert emit_classified_grid(grid) == text
