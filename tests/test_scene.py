import gc
import itertools
import json
import math
import random
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from garagesim import scene as scene_module
from garagesim.classify import classify_all
from garagesim.errors import OptionError, PlanError, SchemaError
from garagesim.grid import BOX_MAX, CellKind, CellRef, GarageSpec
from garagesim.scenario import _scene_from_nodes
from garagesim.scene import (
    Box3,
    CEILING_HEIGHT,
    FLOOR_THICKNESS,
    LightLevel,
    NodeKind,
    OPAQUE_KINDS,
    OccupancyPlan,
    PlanEntry,
    SceneGraph,
    SceneNode,
    SynthOptions,
    VEHICLE_SIZES,
    apply_light_level,
    emit_occupancy_plan,
    export_scene,
    import_scene,
    layout_cells,
    parse_occupancy_plan,
    populate_vehicles,
    remove_node,
    synthesize,
    _BoxTable,
    _fold_bounds,
    _table_bounds,
    _table_scene,
)
from conftest import random_spec
from oracles import fold_bounds, import_scene_two_pass, scene_json, synthesize_nodes


class TestLayout:
    def test_single_cell(self):
        grid = classify_all(GarageSpec(((1,),), (5.0,), (6.0,)))
        [(cell, rect)] = layout_cells(grid)
        assert cell == CellRef(0, 0)
        assert (rect.x0, rect.y0, rect.x1, rect.y1) == (0.0, 0.0, 6.0, 5.0)

    def test_prefix_sums(self):
        grid = classify_all(GarageSpec(((1, 1), (1, 1)), (5.0, 5.0), (6.0, 6.0)))
        rects = dict(layout_cells(grid))
        r = rects[CellRef(1, 1)]
        assert (r.x0, r.y0, r.x1, r.y1) == (6.0, 5.0, 12.0, 10.0)

    def test_area_sum(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            grid = classify_all(spec)
            total = sum(r.width * r.height for _, r in layout_cells(grid))
            expected = sum(spec.row_widths) * sum(spec.col_widths)
            assert math.isclose(total, expected, rel_tol=1e-12)

    def test_no_overlaps_small_grids(self, rng):
        for _ in range(10):
            spec = random_spec(rng, max_side=4)
            rects = [r for _, r in layout_cells(classify_all(spec))]
            for a, b in itertools.combinations(rects, 2):
                x_overlap = min(a.x1, b.x1) - max(a.x0, b.x0)
                y_overlap = min(a.y1, b.y1) - max(a.y0, b.y0)
                assert min(x_overlap, y_overlap) <= 1e-12


class TestSynthesize:
    def test_all_lane_3x3_counts(self, all_lane_3x3):
        scene = synthesize(classify_all(all_lane_3x3))
        assert scene.count(NodeKind.FLOOR_TILE) == 9
        assert scene.count(NodeKind.COLUMN) == 4  # (m-1)(n-1) interior corners
        assert scene.count(NodeKind.LAMP) == 9
        assert scene.count(NodeKind.CEILING_PANEL) == 3
        assert scene.count(NodeKind.LANE_MARKING) == 9

    def test_interior_corner_count_by_enumeration(self, rng):
        # brute-force count of corners touching a non-obstacle cell
        for _ in range(15):
            spec = random_spec(rng, max_side=5)
            grid = classify_all(spec)
            scene = synthesize(grid)
            expected = 0
            for ci in range(1, spec.m):
                for cj in range(1, spec.n):
                    cells = [
                        spec.structure[ci - 1][cj - 1], spec.structure[ci - 1][cj],
                        spec.structure[ci][cj - 1], spec.structure[ci][cj],
                    ]
                    if any(c != -1 for c in cells):
                        expected += 1
            got = sum(1 for n in scene.nodes
                      if n.kind is NodeKind.COLUMN and "corner" in n.tags)
            assert got == expected

    def test_lamp_presets(self, all_lane_3x3):
        grid = classify_all(all_lane_3x3)
        for level, count in ((LightLevel.BRIGHT, 9), (LightLevel.CLEAR, 9),
                             (LightLevel.MODERATE, 7), (LightLevel.DIM, 4)):
            scene = synthesize(grid, SynthOptions(light=level))
            assert scene.count(NodeKind.LAMP) == count
            assert scene.light_level is level

    def test_lamp_monotone_containment(self, all_lane_3x3):
        grid = classify_all(all_lane_3x3)
        ids = {}
        for level in (LightLevel.DIM, LightLevel.MODERATE, LightLevel.CLEAR,
                      LightLevel.BRIGHT):
            scene = synthesize(grid, SynthOptions(light=level))
            ids[level] = {n.id for n in scene.nodes if n.kind is NodeKind.LAMP}
        assert ids[LightLevel.DIM] <= ids[LightLevel.MODERATE]
        assert ids[LightLevel.MODERATE] <= ids[LightLevel.CLEAR]
        assert ids[LightLevel.CLEAR] <= ids[LightLevel.BRIGHT]

    def test_prune_columns(self, all_lane_3x3):
        grid = classify_all(all_lane_3x3)
        scene = synthesize(grid, SynthOptions(prune_columns=frozenset({(1, 1)})))
        assert scene.count(NodeKind.COLUMN) == 3
        assert all(n.tags.get("corner") != "1,1" for n in scene.nodes)

    @pytest.mark.parametrize("corners, bad", [
        ({(99, 99)}, "99,99"), ({(0, 1)}, "0,1"), ({(1, 3)}, "1,3"), ({(3, 1)}, "3,1"),
        ({(-1, 1)}, "-1,1"), ({(1, 1), (99, 99), (0, 1)}, "0,1"),
    ])
    def test_prune_corner_off_the_interior_rejected(self, all_lane_3x3, corners, bad):
        # a 3x3 plan's interior corners are rows 1..2 and columns 1..2
        with pytest.raises(OptionError) as err:
            synthesize(classify_all(all_lane_3x3), SynthOptions(prune_columns=frozenset(corners)))
        assert str(err.value) == f"prune corner {bad} is not an interior corner of the 3x3 plan"

    def test_obstacle_row_has_ceiling_but_no_tiles(self):
        spec = GarageSpec(((-1, -1), (1, 1)), (5.0, 5.0), (6.0, 6.0))
        scene = synthesize(classify_all(spec))
        assert scene.count(NodeKind.FLOOR_TILE) == 2
        assert scene.count(NodeKind.CEILING_PANEL) == 2
        walls = [n for n in scene.nodes if n.tags.get("structure") == "wall"]
        assert len(walls) == 1  # the obstacle run merges into one slab
        assert walls[0].box.aabb[5] == CEILING_HEIGHT

    def test_ramp_markers(self):
        spec = GarageSpec(((2, 1, 3),), (5.0,), (6.0, 6.0, 6.0))
        scene = synthesize(classify_all(spec))
        ramps = [n for n in scene.nodes if n.kind is NodeKind.RAMP_MARKER]
        assert [n.tags["ramp"] for n in ramps] == ["entrance", "exit"]
        # entrance/exit cells still get lane markings and lamps
        assert scene.count(NodeKind.LANE_MARKING) == 3
        assert scene.count(NodeKind.LAMP) == 3

    def test_everything_inside_envelope(self, rng):
        for _ in range(15):
            spec = random_spec(rng)
            scene = synthesize(classify_all(spec))
            x1 = sum(spec.col_widths)
            y1 = sum(spec.row_widths)
            for n in scene.nodes:
                a = n.box.aabb
                assert a[0] >= -1e-9 and a[1] >= -1e-9 and a[2] >= -1e-9
                assert a[3] <= x1 + 1e-9 and a[4] <= y1 + 1e-9
                assert a[5] <= CEILING_HEIGHT + 1e-9

    def test_floor_under_ceiling(self, rng):
        spec = random_spec(rng)
        scene = synthesize(classify_all(spec))
        panels = [n.box.aabb for n in scene.nodes if n.kind is NodeKind.CEILING_PANEL]
        assert len({p[5] for p in panels}) == 1  # common height
        for tile in scene.nodes:
            if tile.kind is not NodeKind.FLOOR_TILE:
                continue
            c = tile.box.center
            assert any(p[0] <= c[0] <= p[3] and p[1] <= c[1] <= p[4] for p in panels)

    def test_deterministic(self, rng):
        spec = random_spec(rng)
        grid = classify_all(spec)
        assert synthesize(grid) == synthesize(grid)

    def test_unique_ids(self, rng):
        for _ in range(10):
            scene = synthesize(classify_all(random_spec(rng)))
            ids = [n.id for n in scene.nodes]
            assert len(ids) == len(set(ids))


class TestApplyLightLevel:
    def test_override_idempotent(self, all_lane_3x3, rng):
        # random plans add parking, obstacle, entrance and exit cells
        for spec in [all_lane_3x3] + [random_spec(rng) for _ in range(15)]:
            grid = classify_all(spec)
            for start, level in itertools.product(LightLevel, repeat=2):
                relit = apply_light_level(synthesize(grid, SynthOptions(light=start)), level)
                assert relit == synthesize(grid, SynthOptions(light=level))

    def test_non_lamp_geometry_untouched(self, all_lane_3x3):
        scene = synthesize(classify_all(all_lane_3x3))
        relit = apply_light_level(scene, LightLevel.DIM)
        keep = [n for n in scene.nodes if n.kind is not NodeKind.LAMP]
        keep2 = [n for n in relit.nodes if n.kind is not NodeKind.LAMP]
        assert keep == keep2

    def test_intensity_tag(self, all_lane_3x3):
        scene = synthesize(classify_all(all_lane_3x3), SynthOptions(light=LightLevel.CLEAR))
        lamps = [n for n in scene.nodes if n.kind is NodeKind.LAMP]
        assert all(n.tags["intensity"] == "0.6" for n in lamps)


class TestVehicles:
    @pytest.fixture
    def parking_grid(self):
        # lane row over a parking row: every space is Type3 facing north
        spec = GarageSpec(((1, 1, 1), (0, 0, 0)), (6.0, 5.0), (3.0, 3.0, 3.0))
        return classify_all(spec)

    def test_single_placement(self, parking_grid):
        scene = synthesize(parking_grid)
        plan = OccupancyPlan((PlanEntry(CellRef(1, 1), "small"),))
        out = populate_vehicles(scene, parking_grid, plan)
        assert len(out.nodes) == len(scene.nodes) + 1
        veh = out.node("veh-1-1")
        assert veh.tags["facing"] == "north"
        assert veh.box.center[0] == 4.5
        assert veh.box.center[2] == FLOOR_THICKNESS + VEHICLE_SIZES["small"][2] / 2
        # input unchanged
        assert all(n.kind is not NodeKind.VEHICLE for n in scene.nodes)

    def test_duplicate_cell_rejected(self, parking_grid):
        scene = synthesize(parking_grid)
        plan = OccupancyPlan(
            (PlanEntry(CellRef(1, 1), "small"), PlanEntry(CellRef(1, 1), "large"))
        )
        with pytest.raises(PlanError, match="twice"):
            populate_vehicles(scene, parking_grid, plan)

    def test_lane_needs_force(self, parking_grid):
        scene = synthesize(parking_grid)
        with pytest.raises(PlanError, match="force"):
            populate_vehicles(
                scene, parking_grid, OccupancyPlan((PlanEntry(CellRef(0, 0), "small"),))
            )
        forced = populate_vehicles(
            scene, parking_grid,
            OccupancyPlan((PlanEntry(CellRef(0, 0), "small", parked=False, force=True),)),
        )
        assert forced.node("veh-0-0").tags["parked"] == "false"

    def test_overhang_warning(self):
        # large vehicle is 5.9 m long; the cell is only 5 m deep
        spec = GarageSpec(((1,), (0,)), (6.0, 5.0), (3.0,))
        grid = classify_all(spec)
        scene = synthesize(grid)
        out = populate_vehicles(
            scene, grid, OccupancyPlan((PlanEntry(CellRef(1, 0), "large"),))
        )
        assert out.node("veh-1-0").tags.get("overhang") == "true"
        small = populate_vehicles(
            scene, grid, OccupancyPlan((PlanEntry(CellRef(1, 0), "small"),))
        )
        assert "overhang" not in small.node("veh-1-0").tags

    def test_every_placeable_cell_holds_its_vehicle_at_the_layout_centre(self, rng):
        from garagesim.classify import ParkSubtype

        placed = 0
        for _ in range(12):
            grid = classify_all(random_spec(rng, max_side=14))
            rects = dict(layout_cells(grid))
            cells = [cell for cell in rects
                     if grid.cells[cell.i][cell.j].kind is CellKind.PARKING
                     and grid.cells[cell.i][cell.j].park_subtype is not ParkSubtype.TYPE4]
            rng.shuffle(cells)
            out = populate_vehicles(synthesize(grid), grid, OccupancyPlan(
                tuple(PlanEntry(cell, rng.choice(sorted(VEHICLE_SIZES))) for cell in cells)))
            for cell in cells:
                box = out.node(f"veh-{cell.i}-{cell.j}").box
                assert box.center[:2] == rects[cell].center, cell
            placed += len(cells)
        assert placed > 100

    @pytest.mark.parametrize("entries, text", [
        ([PlanEntry(CellRef(1, 0), "small"), PlanEntry(CellRef(1, 0), "large")],
         "cell (1,0) referenced twice"),
        ([PlanEntry(CellRef(2, 0), "small")], "cell (2,0) outside the grid"),
        ([PlanEntry(CellRef(0, 3), "small")], "cell (0,3) outside the grid"),
        ([PlanEntry(CellRef(-1, 0), "small")], "cell (-1,0) outside the grid"),
        ([PlanEntry(CellRef(1, -1), "small")], "cell (1,-1) outside the grid"),
        # the checks run in this order on one entry
        ([PlanEntry(CellRef(5, 5), "huge")], "cell (5,5) outside the grid"),
        ([PlanEntry(CellRef(0, 0), "huge")], "unknown vehicle size 'huge'"),
        ([PlanEntry(CellRef(0, 0), "small")], "cell (0,0) is lane; use force to place here"),
        ([PlanEntry(CellRef(1, 2), "small")],
         "cell (1,2) is parking/type4; use force to place here"),
    ])
    def test_plan_errors_keep_their_texts(self, entries, text):
        # lane row over a parking row whose last space has no lane beside it
        grid = classify_all(GarageSpec(((1, 1, -1), (0, 0, 0)), (6.0, 5.0), (3.0, 3.0, 3.0)))
        with pytest.raises(PlanError) as err:
            populate_vehicles(synthesize(grid), grid, OccupancyPlan(tuple(entries)))
        assert str(err.value) == text

    def test_plan_documents_round_trip(self):
        plan = OccupancyPlan(
            (
                PlanEntry(CellRef(1, 1), "small"),
                PlanEntry(CellRef(1, 2), "large", parked=False, color="black", force=True),
            )
        )
        assert parse_occupancy_plan(emit_occupancy_plan(plan)) == plan

    @pytest.mark.parametrize("entry, match", [
        ({"cell": [0.9, "1"], "size": "small", "force": True}, "cell must be two integers"),
        ({"cell": [True, 2], "size": "small"}, "cell must be two integers"),
        ({"cell": [1.0, 2], "size": "small"}, "cell must be two integers"),
        ({"cell": [1, 2, 3], "size": "small"}, "cell must be two integers"),
        ({"cell": "12", "size": "small"}, "cell must be two integers"),
        ({"size": "small"}, "cell must be two integers"),
        ({"cell": [1, 2]}, "no size"),
        ({"cell": [1, 2], "size": 4}, "size must be a JSON string"),
        ({"cell": [1, 2], "size": "small", "parked": "false"}, "parked must be a JSON boolean"),
        ({"cell": [1, 2], "size": "small", "parked": 0}, "parked must be a JSON boolean"),
        ({"cell": [1, 2], "size": "small", "force": "true"}, "force must be a JSON boolean"),
        ({"cell": [1, 2], "size": "small", "color": None}, "color must be a JSON string"),
        ([1, 2], "not a JSON object"),
    ])
    def test_plan_entries_are_not_coerced(self, entry, match):
        doc = {"schema": "occupancy-plan/1", "entries": [{"cell": [0, 0], "size": "large"},
                                                          entry]}
        with pytest.raises(SchemaError, match=f"bad plan entry 1: {match}"):
            parse_occupancy_plan(json.dumps(doc))

    @pytest.mark.parametrize("text, got", [
        ('{"schema": "scene/1", "entries": []}', "'scene/1'"), ('{"entries": []}', "None"),
        ("[]", "None"),
    ])
    def test_plan_document_of_another_schema(self, text, got):
        with pytest.raises(SchemaError) as err:
            parse_occupancy_plan(text)
        assert str(err.value) == f"expected schema 'occupancy-plan/1', got {got}"

    @pytest.mark.parametrize("entries", [5, {"cell": [1, 2]}, "entries"])
    def test_plan_entries_must_be_an_array(self, entries):
        with pytest.raises(SchemaError, match="entries must be a JSON array"):
            parse_occupancy_plan(json.dumps({"schema": "occupancy-plan/1",
                                             "entries": entries}))


class _OwnRepr(float):
    """A float subclass whose own repr the scene writer must not use."""

    def __repr__(self):
        return "not-json"


# Box values of every type and edge the writer has to spell as json does,
# up to the bound Box3 holds them to.  Small pools of values that compare
# equal across types (0.0 and -0.0, 1.0, 1 and True) repeat within a scene,
# and boxes of floats only are common, because the writer reuses the text of
# a float it has already written.
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e16, 1e-7, 0.1, BOX_MAX, -BOX_MAX, 1e38]),
    st.floats(-BOX_MAX, BOX_MAX), st.floats(-BOX_MAX, BOX_MAX).map(_OwnRepr),
)
_NUMBERS = st.one_of(_FLOATS, st.sampled_from([0, 1, True, -7, 10**20]),
                     st.integers(-int(BOX_MAX), int(BOX_MAX)))
_POSITIVE_FLOATS = st.one_of(
    st.sampled_from([1.0, 0.5, 5e-324, 1e16, 1e-7, BOX_MAX, 1e38]),
    st.floats(5e-324, BOX_MAX), st.floats(5e-324, BOX_MAX).map(_OwnRepr),
)
_POSITIVE = st.one_of(_POSITIVE_FLOATS, st.sampled_from([1, True, 10**20]),
                      st.integers(1, int(BOX_MAX)))


def _boxes(numbers, positive):
    return st.builds(Box3, st.tuples(numbers, numbers, numbers),
                     st.tuples(positive, positive, positive), numbers)


_BOXES = _boxes(_FLOATS, _POSITIVE_FLOATS) | _boxes(_NUMBERS, _POSITIVE)
# quotes, backslashes, control characters, non-ASCII and lone surrogates
_TEXTS = st.one_of(
    st.sampled_from(['', '"', '\\', '\\"', '\x00', '\x1f', '\x7f', '\n\t\r', '\u00e9',
                     '\u2603', '\U0001f697', '\ud800']),
    st.text(st.characters(exclude_categories=()), max_size=12),
)
_TAGS = st.one_of(st.just({}), st.dictionaries(_TEXTS, _TEXTS, max_size=4),
                  st.dictionaries(_TEXTS, _TEXTS, min_size=10, max_size=30))
_NODES = st.builds(SceneNode, _TEXTS, st.sampled_from(NodeKind), _BOXES, _TAGS)
_scenes = st.builds(SceneGraph, st.lists(_NODES, max_size=8).map(tuple), _BOXES,
                    st.sampled_from(LightLevel))


def _one_node_document(**fields) -> str:
    """scene/1 text of one column node, with the given node fields replaced."""
    node = {"id": "a", "kind": "column", "center": [0, 0, 1], "half_extents": [1, 1, 1],
            "yaw": 0.0, "tags": {}}
    return json.dumps({
        "schema": "scene/1", "light_level": "bright",
        "bounds": {"center": [0, 0, 0], "half_extents": [1, 1, 1], "yaw": 0.0},
        "nodes": [dict(node, **fields)],
    })


class TestSceneDocuments:
    def test_round_trip_equality(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            scene = synthesize(classify_all(spec))
            assert import_scene(export_scene(scene)) == scene

    def test_round_trip_bytes(self, rng):
        for light in [*LightLevel] * 3:
            spec = random_spec(rng)
            scene = synthesize(classify_all(spec), SynthOptions(light=light))
            text = export_scene(scene)
            assert export_scene(import_scene(text)) == text

    def test_empty_scene_document(self):
        scene = import_scene(json.dumps({
            "schema": "scene/1", "light_level": "bright",
            "bounds": {"center": [0, 0, 0], "half_extents": [1, 1, 1], "yaw": 0.0},
            "nodes": [],
        }))
        assert scene.nodes == ()
        assert export_scene(scene, "obj").count("\nf ") == 0

    def test_duplicate_id_rejected(self):
        node = {"id": "a", "kind": "column", "center": [0, 0, 1],
                "half_extents": [1, 1, 1], "yaw": 0.0, "tags": {}}
        doc = json.dumps({
            "schema": "scene/1", "light_level": "bright",
            "bounds": {"center": [0, 0, 0], "half_extents": [1, 1, 1], "yaw": 0.0},
            "nodes": [node, node],
        })
        with pytest.raises(SchemaError, match="duplicate"):
            import_scene(doc)

    def test_unknown_kind_named(self):
        doc = json.dumps({
            "schema": "scene/1", "light_level": "bright",
            "bounds": {"center": [0, 0, 0], "half_extents": [1, 1, 1], "yaw": 0.0},
            "nodes": [{"id": "a", "kind": "pillar!", "center": [0, 0, 1],
                       "half_extents": [1, 1, 1], "yaw": 0.0, "tags": {}}],
        })
        with pytest.raises(SchemaError, match="pillar!"):
            import_scene(doc)

    @pytest.mark.parametrize("center", [[0, 0, 1, 7], [0, 0]])
    def test_center_needs_three_coordinates(self, center):
        doc = json.dumps({
            "schema": "scene/1", "light_level": "bright",
            "bounds": {"center": [0, 0, 0], "half_extents": [1, 1, 1], "yaw": 0.0},
            "nodes": [{"id": "a", "kind": "column", "center": center,
                       "half_extents": [1, 1, 1], "yaw": 0.0, "tags": {}}],
        })
        with pytest.raises(SchemaError, match="three coordinates"):
            import_scene(doc)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    @pytest.mark.parametrize("where", ["node", "bounds"])
    @pytest.mark.parametrize("field", ["center", "half_extents", "yaw"])
    def test_non_finite_box_values_rejected(self, value, where, field):
        good = {"center": [0, 0, 1], "half_extents": [1, 1, 1], "yaw": 0.0}
        bad = dict(good, **{field: "@" if field == "yaw" else [1, "@", 1]})
        doc = {"schema": "scene/1", "light_level": "bright",
               "bounds": bad if where == "bounds" else good,
               "nodes": [dict(bad if where == "node" else good,
                              id="a", kind="column", tags={})]}
        with pytest.raises(SchemaError, match="non-finite"):
            import_scene(json.dumps(doc).replace('"@"', value))

    @pytest.mark.parametrize("half", [[0, 1, 1], [1, -0.0, 1], [1, 1, -2.5]])
    @pytest.mark.parametrize("where", ["node", "bounds"])
    def test_non_positive_half_extents_rejected(self, half, where):
        good = {"center": [0, 0, 1], "half_extents": [1, 1, 1], "yaw": 0.0}
        bad = dict(good, half_extents=half)
        doc = {"schema": "scene/1", "light_level": "bright",
               "bounds": bad if where == "bounds" else good,
               "nodes": [dict(bad if where == "node" else good, id="a", kind="column", tags={})]}
        with pytest.raises(SchemaError, match="half extents must be positive"):
            import_scene(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(scene=_scenes)
    @example(scene=SceneGraph((), Box3((0, -0.0, 1e16), (1, 5e-324, 1e-7)), LightLevel.DIM))
    @example(scene=SceneGraph(
        tuple(SceneNode(f"n{k}", NodeKind.COLUMN, Box3(c, (1.0, 0.5, 1.0), 0.0))
              for k, c in enumerate([(0.0, 1.0, 0.5), (-0.0, 0.5, 1.0), (1, True, 0.5)])),
        Box3((1.0, 1.0, 1.0), (0.5, 0.5, 0.5)), LightLevel.CLEAR))
    @example(scene=SceneGraph(
        (SceneNode("a", NodeKind.LAMP, Box3((BOX_MAX, -BOX_MAX, -1e38),
                                            (BOX_MAX, 5e-324, 2.0), 3.0), {}),
         SceneNode('"\\\x00\x1f\u00e9\U0001f697', NodeKind.VEHICLE,
                   Box3((_OwnRepr(-0.0), True, 10**20), (_OwnRepr(0.5), 1, 1e-7), -0.0),
                   {f"k{k}\\": '"\x7f\u2603' * k for k in range(12)})),
        Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), LightLevel.BRIGHT))
    def test_writer_matches_json_oracle(self, scene):
        assert export_scene(scene) == scene_json(scene)

    @given(nodes=st.lists(st.builds(SceneNode, _TEXTS, st.sampled_from(NodeKind),
                                    _boxes(_FLOATS, _POSITIVE_FLOATS), _TAGS), max_size=8),
           bounds=_boxes(_FLOATS, _POSITIVE_FLOATS), level=st.sampled_from(LightLevel))
    def test_table_writer_matches_json_oracle(self, nodes, bounds, level):
        # the oracle reads the nodes and bounds as given, not from the table
        given = SimpleNamespace(nodes=nodes, bounds=bounds, light_level=level)
        assert export_scene(SceneGraph(tuple(nodes), bounds, level)) == scene_json(given)

    def test_box_values_are_written_as_the_floats_stored(self):
        # an int or bool box value is stored, and so written, as its float
        raw = Box3((1, True, 10**20), (1, 2, 10**20), 0)
        box = Box3((1.0, 1.0, 1e20), (1.0, 2.0, 1e20), 0.0)
        scene = SceneGraph([SceneNode("a", NodeKind.COLUMN, raw)], raw, LightLevel.BRIGHT)
        given = SimpleNamespace(nodes=[SceneNode("a", NodeKind.COLUMN, box)], bounds=box,
                                light_level=LightLevel.BRIGHT)
        text = export_scene(scene)
        assert text == scene_json(given) and text.count("1e+20") == 4
        assert {type(v) for b in (scene.bounds, scene.nodes[0].box)
                for v in (*b.center, *b.half_extents, b.yaw)} == {float}
        assert export_scene(import_scene(text)) == text

    @pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025])
    def test_table_writer_matches_json_oracle_at_chunk_edges(self, rows, nodes_built):
        rng = random.Random(rows)
        numbers = [0.0, 0.0, 1.0, 0.5, 5e-324, 1e16, 1e-7, 0.1, -2.5, BOX_MAX, -BOX_MAX, 1e38]
        positive = [1.0, 0.5, 5e-324, 1e16, 1e-7, 0.1, BOX_MAX, 1e38]
        # the bytes of -0.0 across two floats: 5e-324's high half, then this one's low half
        straddle = struct.unpack("<d", b"\x00\x00\x00\x80\x00\x00\xf0\x3f")[0]
        table, tags = _BoxTable(), {}
        for k in range(rows):
            values = [rng.choice(pool) if rng.random() < 0.6 else rng.uniform(0.01, 50.0)
                      for pool in [numbers] * 3 + [positive] * 3 + [numbers]]
            if k == 3:
                values[1] = values[6] = -0.0
            if k == rows - 1:
                values[5:7] = [5e-324, straddle]
            # equal tags on some consecutive rows, as a marking's after its tile's
            tags = dict(tags) if rng.random() < 0.3 else {
                f"t{n}": rng.choice(["a", '"\\', "\u00e9"]) for n in range(rng.randrange(4))}
            table.add(f"n{k}", rng.randrange(len(NodeKind)), tags, values)
        scene = _table_scene(table, Box3((0.0, -0.0, 1.0), (1.0, 2.0, 3.0)), LightLevel.DIM)
        text = export_scene(scene)
        assert nodes_built == [] and len(scene.nodes) == rows
        assert text == scene_json(scene)

    @pytest.mark.parametrize("kind", [["column"], {"column": 1}, None, 3, "Column"])
    def test_unknown_or_unhashable_kind_rejected(self, kind):
        with pytest.raises(SchemaError, match="unknown node kind"):
            import_scene(_one_node_document(kind=kind))

    @pytest.mark.parametrize("tags", [["a"], "a", {"a": 1}, {"a": "b", "c": None},
                                      {"a": ["b"]}, {"a": {"b": "c"}}])
    def test_non_string_tags_rejected(self, tags):
        with pytest.raises(SchemaError, match="tags must map strings to strings"):
            import_scene(_one_node_document(tags=tags))

    @pytest.mark.parametrize("cell_kind", ["lane", "entrance", "exit"])
    def test_drivable_floor_tile_needs_cell_tag(self, cell_kind):
        with pytest.raises(SchemaError, match="no cell tag"):
            import_scene(_one_node_document(kind="floor_tile", tags={"cell_kind": cell_kind}))
        parking = import_scene(_one_node_document(kind="floor_tile",
                                                  tags={"cell_kind": "parking"}))
        assert apply_light_level(parking, LightLevel.BRIGHT).count(NodeKind.LAMP) == 0

    def test_wrong_schema(self):
        with pytest.raises(SchemaError, match="^expected schema 'scene/1', got 'scene/2'$"):
            import_scene(json.dumps({"schema": "scene/2"}))

    @pytest.mark.parametrize("nodes, match", [
        ([1], "scene node 0 is not a JSON object"),
        (["x"], "scene node 0 is not a JSON object"),
        ([[1, 2]], "scene node 0 is not a JSON object"),
        ([{"id": "a", "kind": "column", "center": [0, 0, 1], "half_extents": [1, 1, 1],
           "yaw": 0.0}, None], "scene node 1 is not a JSON object"),
        (5, "scene nodes must be a JSON array"),
        ({}, "scene nodes must be a JSON array"),
    ])
    def test_non_object_nodes_rejected(self, nodes, match):
        doc = {"schema": "scene/1", "light_level": "bright",
               "bounds": {"center": [0, 0, 0], "half_extents": [1, 1, 1], "yaw": 0.0},
               "nodes": nodes}
        with pytest.raises(SchemaError, match=match):
            import_scene(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[1]", "5", '"scene/1"', "null"])
    def test_non_object_document_rejected(self, text):
        with pytest.raises(SchemaError, match="expected schema 'scene/1', got None"):
            import_scene(text)

    def test_unknown_export_format(self, all_lane_3x3):
        with pytest.raises(ValueError, match="^unknown export format 'x'$"):
            export_scene(synthesize(classify_all(all_lane_3x3)), "x")

    def test_obj_triangle_count(self, all_lane_3x3):
        scene = synthesize(classify_all(all_lane_3x3))
        obj = export_scene(scene, "obj")
        faces = [l for l in obj.splitlines() if l.startswith("f ")]
        verts = [l for l in obj.splitlines() if l.startswith("v ")]
        assert len(faces) == 12 * len(scene.nodes)
        assert len(verts) == 8 * len(scene.nodes)

    def test_remove_node(self, all_lane_3x3):
        scene = synthesize(classify_all(all_lane_3x3))
        out = remove_node(scene, "col-1-1")
        assert len(out.nodes) == len(scene.nodes) - 1
        with pytest.raises(KeyError):
            remove_node(scene, "no-such-node")


# scene/1 inputs for the one-pass reader against the two-pass oracle: valid
# documents with a few flaws each.  Valid box values mix ints, bools,
# numeric strings, -0.0 and extreme floats; flawed ones add NaN, the
# infinities, values past the bound and overflowing literals (placeholders
# swapped for text json cannot write).  Ids come from a small pool, so
# duplicates are common.  An object shaped like a valid node is drawn
# wherever one may stand: as a tags dict or tag value, a kind, a box value,
# the bounds, the light level, the schema and the document itself.  The
# one-pass reader tables such an object as a node wherever it stands, and
# an error message must still quote it as parsed.
_FAR = {'"@far@"': "1e999", '"@-far@"': "-1e999"}
_GOOD_VALUES = st.one_of(st.floats(-1e3, 1e3), st.integers(-5, 5),
                         st.sampled_from([0.0, -0.0, True, False, "1.5", " -2 ", BOX_MAX, 5e-324]))
_GOOD_HALVES = st.one_of(st.floats(0.01, 1e3), st.integers(1, 5), st.sampled_from([True, "2"]))
_VALID_NODE = {"id": "t", "kind": "column", "center": [0, 0, 1], "half_extents": [1, 1, 1],
               "yaw": 0.0, "tags": {}}
_BAD_VALUES = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -2.0**129, 0, -1, 10**400, "x", "nan", None, "@far@",
     "@-far@", [1.0], {"a": 1}, _VALID_NODE]))
_NODE_KINDS = [k.value for k in NodeKind]
_TAG_TEXTS = st.sampled_from(["lane", "exit", "parking", "0,0", "column"])
_GOOD_TAGS = st.dictionaries(st.sampled_from(["cell", "kind", "id", "x"]), _TAG_TEXTS,
                             max_size=4)


def _vectors(values, sizes=(3, 3)):
    return st.lists(values, min_size=sizes[0], max_size=sizes[1])


_NODE_FLAWS = {
    "id": st.sampled_from(["", 1, None, ["a"]]),
    "kind": st.sampled_from(["pillar!", "Column", None, 3, ["column"], {"column": 1},
                             _VALID_NODE]),
    "center": st.one_of(_vectors(st.one_of(_GOOD_VALUES, _BAD_VALUES), (2, 4)),
                        st.sampled_from(["abc", "123", 5, None, {}, {"a": 1}])),
    "half_extents": st.one_of(_vectors(st.one_of(_GOOD_HALVES, _BAD_VALUES), (2, 4)),
                              st.sampled_from(["123", 5, None])),
    "yaw": _BAD_VALUES,
    "tags": st.one_of(
        st.dictionaries(_TAG_TEXTS, st.sampled_from([1, None, ["b"], {"b": "c"}, _VALID_NODE]),
                        min_size=1, max_size=2),
        st.sampled_from(["a", ["a"], 1, None, _VALID_NODE, {"cell_kind": "lane"}])),
}


@st.composite
def _node_objects(draw):
    node = {"id": draw(st.sampled_from("abcdefgh")), "kind": draw(st.sampled_from(_NODE_KINDS)),
            "center": draw(_vectors(_GOOD_VALUES)), "half_extents": draw(_vectors(_GOOD_HALVES)),
            "yaw": draw(_GOOD_VALUES), "tags": draw(_GOOD_TAGS)}
    flaws = st.lists(st.sampled_from([*_NODE_FLAWS, "drop", "extra"]), min_size=1, max_size=2)
    for flaw in draw(flaws) if draw(st.integers(0, 4)) == 0 else ():
        if flaw == "drop":
            node.pop(draw(st.sampled_from(sorted(node))), None)
        elif flaw == "extra":
            node.update(draw(st.sampled_from([{"schema": "scene/1"}, {"extra": [1]}])))
        else:
            node[flaw] = draw(_NODE_FLAWS[flaw])
    if draw(st.integers(0, 9)) == 0:  # a drivable floor tile, tagged or not
        node["kind"] = "floor_tile"
        node["tags"] = draw(st.sampled_from([{"cell_kind": "exit"},
                                             {"cell_kind": "lane", "cell": "0,0"}]))
    return node


_DOC_FLAWS = {
    "schema": st.sampled_from(["scene/2", None, _VALID_NODE]),
    "light_level": st.sampled_from(["dusk", [1], _VALID_NODE]),
    "bounds": st.one_of(
        st.builds(lambda c, h, y: {"center": c, "half_extents": h, "yaw": y},
                  _NODE_FLAWS["center"], _NODE_FLAWS["half_extents"], _BAD_VALUES),
        st.sampled_from([1, [1], None, _VALID_NODE, dict(_VALID_NODE, kind="x")])),
    "nodes": st.sampled_from([5, None, {}, "", "abc", _VALID_NODE]),
    "entry": st.sampled_from([1, "x", [1, 2], None]),
}


@st.composite
def _scene_texts(draw):
    doc = {"schema": "scene/1", "light_level": draw(st.sampled_from([v.value for v in LightLevel])),
           "bounds": {"center": draw(_vectors(_GOOD_VALUES)),
                      "half_extents": draw(_vectors(_GOOD_HALVES)), "yaw": draw(_GOOD_VALUES)},
           "nodes": [draw(_node_objects()) for _ in range(draw(st.sampled_from(range(7))))]}
    flaws = st.lists(st.sampled_from([*_DOC_FLAWS, "drop", "kind", "top"]), min_size=1,
                     max_size=2)
    flaws = draw(flaws) if draw(st.booleans()) else ()
    for flaw in flaws:
        if flaw == "drop":
            doc.pop(draw(st.sampled_from(sorted(doc))), None)
        elif flaw == "kind":  # the document with node keys besides its own
            doc.update(draw(st.sampled_from([{"kind": "column", "id": "d"}, _VALID_NODE])))
        elif flaw == "entry" and type(doc.get("nodes")) is list:
            doc["nodes"].insert(draw(st.integers(0, len(doc["nodes"]))), draw(_DOC_FLAWS[flaw]))
        elif flaw != "top" and flaw != "entry":
            doc[flaw] = draw(_DOC_FLAWS[flaw])
    if "top" in flaws:
        doc = draw(st.sampled_from([[1], 5, "x", None, dict(_VALID_NODE, x=doc)]))
    text = json.dumps(doc)
    for placeholder, literal in _FAR.items():
        text = text.replace(placeholder, literal)
    return text


def _read_outcome(read, text):
    """A scene with its text, a SchemaError's message, or the type of any
    other exception."""
    try:
        scene = read(text)
    except SchemaError as exc:
        return "error", str(exc)
    except Exception as exc:
        return "crash", type(exc).__name__
    return "scene", scene, export_scene(scene)


def _column_document(*nodes, **doc) -> str:
    return json.dumps({"schema": "scene/1", "light_level": "bright",
                       "bounds": {"center": [0, 0, 0], "half_extents": [1, 1, 1], "yaw": 0.0},
                       "nodes": [dict(_VALID_NODE, **node) for node in nodes], **doc})


class TestOnePassImport:
    @settings(max_examples=400, deadline=None)
    @given(text=_scene_texts())
    @example(text=_column_document({"id": "a"}, {"id": "b", "center": [1, True, "2.5"]},
                                   {"id": "c", "center": [-0.0, 0, 1e-300]}))
    @example(text=_column_document({"id": "a"}, {"id": "a", "kind": "pillar!"}))
    @example(text=_column_document({"id": "a", "kind": "pillar!"}, {"id": "a"}))
    @example(text=_column_document({"id": "a", "center": [0, 1]}))
    @example(text=_column_document({"id": "a", "center": [0, [1.0], 1]}))
    @example(text=_column_document({"id": "a", "center": [0, 1, 2, 3]}))
    @example(text=_column_document({"id": "a", "yaw": "@far@"}).replace('"@far@"', "1e999"))
    @example(text=_column_document({"id": "a", "half_extents": [1, float("inf"), 1]}))
    @example(text=_column_document({"id": "a", "center": [float("nan"), 0, 1]}))
    @example(text=_column_document({"id": "a", "tags": {"a": 1}}))
    @example(text=_column_document({"id": "a", "tags": _VALID_NODE}))
    @example(text=_column_document({"id": "a", "kind": "floor_tile",
                                    "tags": {"cell_kind": "lane"}}))
    @example(text=_column_document({"id": "a"}, bounds=_VALID_NODE))
    @example(text=_column_document({"id": "a"}, bounds=None))
    @example(text=_column_document({"id": "a", "schema": "scene/1"}, {"id": "a"}))
    @example(text=json.dumps(dict(_VALID_NODE, light_level="bright")))
    @example(text=_column_document(nodes={}))
    # an object shaped like a valid node where an error message quotes it
    @example(text=_column_document({"id": "a"}, light_level=_VALID_NODE))
    @example(text=_column_document({"id": "a"}, schema=_VALID_NODE))
    @example(text=_column_document({"id": "a", "kind": _VALID_NODE}))
    @example(text=_column_document({"id": "a", "center": [0, _VALID_NODE, 1]}))
    @example(text=_column_document({"id": "a", "yaw": _VALID_NODE}))
    @example(text=_column_document({"id": "a", "tags": {"x": _VALID_NODE}}))
    @example(text=_column_document({"id": "a"}, {"id": "a", "kind": _VALID_NODE}))
    # the seam between the column hook with its bulk checks and the
    # node-by-node reading it falls back to
    @example(text=_column_document({"id": "a", "center": [0, 1, 2, 3], "half_extents": [1, 1]}))
    @example(text=_column_document({"id": "a"}, {"id": "b"}, {"id": "c", "half_extents": [1, 0, 1]}))
    @example(text=_column_document({"id": "a"}, {"id": "b"}, {"id": "a"}))
    @example(text=_column_document({"id": "a"}, {"id": ""}))
    @example(text=_column_document({"id": "a", "center": [True, 2**53 + 1, 0.5], "yaw": False}))
    @example(text=_column_document({"id": "a", "center": [True, 2**53 + 1, "2.5"]}))
    @example(text=_column_document({"id": "a"}, {"id": "b", "tags": {"x": dict(_VALID_NODE,
                                                                                 id="c")}}))
    @example(text=_column_document({"id": "a"}, bounds=dict(_VALID_NODE, id="c")))
    @example(text=_column_document())
    def test_one_pass_reader_matches_the_two_pass_oracle(self, text):
        old = _read_outcome(import_scene_two_pass, text)
        new = _read_outcome(import_scene, text)
        if new == ("error", "scene nodes must be a JSON array"):
            # the two-pass reader looped over whatever "nodes" held: it failed
            # on most of it and read an empty object or string as no nodes
            nodes = json.loads(text)["nodes"]
            assert type(nodes) is not list
            assert old[0] == "crash" or nodes in ({}, "")
        elif old[0] == "crash":
            assert new[0] == "error", (old, new)
        else:
            assert new == old

    def test_exported_scenes_take_the_column_path(self, monkeypatch):
        calls = []

        def counted(raw):
            calls.append(raw)
            return node_row(raw)

        node_row = scene_module._node_row
        monkeypatch.setattr(scene_module, "_node_row", counted)
        # a lane row over a parking row, with two vehicles parked
        grid = classify_all(GarageSpec(((1, 1, 1), (0, 0, 0)), (6.0, 5.0), (3.0, 3.0, 3.0)))
        text = export_scene(populate_vehicles(synthesize(grid), grid, OccupancyPlan(
            (PlanEntry(CellRef(1, 0), "small"), PlanEntry(CellRef(1, 2), "large")))))
        assert export_scene(import_scene(text)) == text
        # a tags object with a "kind" tag is no node
        tagged = import_scene(_column_document({"id": "a", "tags": {"kind": "pillar"}}))
        assert tagged.node("a").tags == {"kind": "pillar"}
        assert calls == []
        # a flawed copy is read node by node, through the counted check
        with pytest.raises(SchemaError, match="duplicate node id"):
            import_scene(text.replace('"id": "floor-0-1"', '"id": "floor-0-0"'))
        assert calls

    def test_nodes_share_equal_floats_but_keep_signed_zeros(self):
        scene = import_scene(_column_document({"id": "a", "center": [2.5, 1, -0.0]},
                                              {"id": "b", "center": [2.5, True, 0.0]}))
        a, b = (n.box for n in scene.nodes)
        assert a.center[0] is b.center[0] and a.center[1] is b.center[1]
        assert [math.copysign(1.0, n.box.center[2]) for n in scene.nodes] == [-1.0, 1.0]
        assert all(type(v) is float for n in scene.nodes for v in n.box.center)

    def test_peak_memory_is_near_the_scene_it_returns(self, rng):
        # lanes on every third row and column, parking between them
        structure = tuple(tuple(1 if i % 3 == 0 or j % 3 == 0 else 0 for j in range(60))
                          for i in range(60))
        grid = classify_all(GarageSpec(structure, (5.0,) * 60, (3.0,) * 60))
        spaces = [cell for cell, _ in layout_cells(grid)
                  if structure[cell.i][cell.j] == 0 and rng.random() < 0.3]
        scene = populate_vehicles(synthesize(grid), grid, OccupancyPlan(
            tuple(PlanEntry(cell, "medium") for cell in spaces)))
        text = export_scene(scene)
        del scene
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scene = import_scene(text)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scene.nodes) > 5000
        # a reader that holds the parsed document beside the scene peaks near 1.6x
        assert peak - before <= 1.25 * (after - before)

    @pytest.mark.parametrize("field", ["center", "half_extents", "yaw"])
    @pytest.mark.parametrize("owner", ["node", "bounds"])
    def test_a_missing_box_field_names_its_owner(self, owner, field):
        doc = json.loads(_column_document({"id": "col-1-1"}))
        del (doc["nodes"][0] if owner == "node" else doc["bounds"])[field]
        text = json.dumps(doc)
        want = f"{'node ' + repr('col-1-1') if owner == 'node' else 'bounds'} has no {field}"
        assert _read_outcome(import_scene, text) == ("error", want)
        assert _read_outcome(import_scene_two_pass, text) == ("error", want)


class TestSceneGraph:
    def test_node_is_a_lookup_with_first_match_and_scan_errors(self):
        first = SceneNode("dup", NodeKind.COLUMN, Box3((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)))
        second = SceneNode("dup", NodeKind.VEHICLE, Box3((5.0, 0.0, 1.0), (1.0, 1.0, 1.0)))
        other = SceneNode("other", NodeKind.LAMP, Box3((9.0, 0.0, 1.0), (1.0, 1.0, 1.0)))
        scene = SceneGraph((first, other, second), first.box, LightLevel.BRIGHT)
        assert scene.node("dup") == first
        assert scene.node("other") == other
        for missing in ("nope", "", ["dup"]):
            with pytest.raises(KeyError) as err:
                scene.node(missing)
            assert err.value.args == (f"no node {missing!r} in scene",)

    def test_derived_data_is_per_scene(self, all_lane_3x3):
        scene = synthesize(classify_all(all_lane_3x3))
        assert scene.index is scene.index
        nodes = scene.nodes
        for other in (replace(scene, nodes=nodes[1:]),
                      apply_light_level(scene, LightLevel.DIM), remove_node(scene, "col-1-1")):
            assert other.index is not scene.index
            assert other.index.ids == [n.id for n in other.nodes if n.kind in OPAQUE_KINDS]
        assert replace(scene, nodes=nodes[1:]).node("floor-0-1") == nodes[2]
        with pytest.raises(KeyError):
            replace(scene, nodes=nodes[1:]).node(nodes[0].id)
        # derived data is no field: it takes no part in equality or the repr
        assert replace(scene) == scene and repr(replace(scene)) == repr(scene)


def _box_repr(box: Box3) -> str:
    """Exact text of a box's floats: equal for equal bits (the sign of zero
    told apart)."""
    return repr((box.center, box.half_extents, box.yaw))


def _outcome(fold, boxes) -> str:
    try:
        return _box_repr(fold(boxes))
    except ValueError as exc:  # bounds past BOX_MAX, or no boxes at all
        return type(exc).__name__


# ints up to 2**52 in magnitude, whose sums and differences float64 holds
# exactly, so the Python fold's exact int arithmetic gives the same floats
_FOLD_INTS = st.integers(-2**52, 2**52)
_FOLD_BOXES = _boxes(_FLOATS, _POSITIVE_FLOATS) | _boxes(
    st.one_of(_FLOATS, _FOLD_INTS), st.one_of(_POSITIVE_FLOATS, st.integers(1, 2**52)))
# the bounds of a scene made only for its table
_UNIT = Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


class TestFoldBounds:
    @given(st.lists(_FOLD_BOXES, max_size=12))
    @example([Box3((-0.0, 0.0, -0.0), (1.0, 2.0, 0.5), yaw=0.3)])
    @example([Box3((1e38, 1.0, 2.0), (1.0, 1.0, 1.0)), Box3((3.0, 4.0, 5.0), (1.0, 1.0, 1.0))])
    @example([Box3((1.0, 2.0, 3.0), (BOX_MAX, 1.0, 1.0)), Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])
    @example([Box3((-BOX_MAX, 0.0, 0.0), (1.0, 1.0, 1.0)),
              Box3((BOX_MAX, 0.0, 0.0), (1.0, 1.0, 1.0))])
    @example([Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), yaw=BOX_MAX)])
    @example([Box3((BOX_MAX, 0.0, 0.0), (BOX_MAX, 1.0, 1.0), yaw=0.7)])  # bounds past BOX_MAX
    @example([])
    def test_fold_of_aabbs_equals_the_per_box_fold(self, boxes):
        def fold(boxes):
            return _fold_bounds([b.aabb for b in boxes])

        assert _outcome(fold, boxes) == _outcome(fold_bounds, boxes)
        # callers pass generators too
        assert (_outcome(lambda bs: _fold_bounds(b.aabb for b in bs), boxes)
                == _outcome(fold_bounds, boxes))

    @given(st.lists(_FOLD_BOXES, max_size=12))
    @example([Box3((-0.0, 0.0, -0.0), (1.0, 2.0, 0.5), yaw=0.3),
              Box3((0.0, -0.0, 0.0), (1.0, 2.0, 0.5), yaw=-0.3)])
    @example([Box3((1e38, 1.0, 2.0), (1.0, 1.0, 1.0)), Box3((3.0, 4.0, 5.0), (1.0, 1.0, 1.0))])
    @example([Box3((1e38, 1.0, 2.0), (1.0, 1.0, 1.0))])
    @example([Box3((-BOX_MAX, 0.0, 0.0), (1.0, 1.0, 1.0)),
              Box3((BOX_MAX, 0.0, 0.0), (1.0, 1.0, 1.0))])
    @example([])
    def test_table_fold_equals_the_per_box_fold(self, boxes):
        """A scene bounded from its box table (a merge) folds only the rows
        that hold an extreme, and gets the per-box fold's floats."""
        def fold(boxes):
            nodes = [SceneNode(f"n{k}", NodeKind.COLUMN, b) for k, b in enumerate(boxes)]
            return _table_bounds(SceneGraph(nodes, _UNIT, LightLevel.BRIGHT)._table.columns()[4])

        assert _outcome(fold, boxes) == _outcome(fold_bounds, boxes)

    def test_no_boxes_is_a_value_error(self):
        for bound in (lambda: _fold_bounds([]), lambda: _fold_bounds(iter(())),
                      lambda: _table_bounds(_BoxTable().columns()[4]), lambda: _scene_from_nodes([])):
            with pytest.raises(ValueError, match="no boxes to bound"):
                bound()

    def test_rotated_boxes_on_a_garage(self, lane_cross_spec):
        scene = synthesize(classify_all(lane_cross_spec))
        boxes = [n.box for n in scene.nodes]
        assert any(b.yaw for b in boxes)
        assert _box_repr(_fold_bounds(b.aabb for b in boxes)) == _box_repr(fold_bounds(boxes))
        # a box table's rows fold to the same bounds as its nodes' boxes
        rows = scene._table.columns()[4].tolist()
        assert _box_repr(_fold_bounds(rows)) == _box_repr(fold_bounds(boxes))


class TestBox3:
    def test_positive_half_extents(self):
        with pytest.raises(ValueError):
            Box3((0, 0, 0), (1.0, 0.0, 1.0))

    def test_aabb_with_yaw(self):
        box = Box3((0.0, 0.0, 1.0), (2.0, 1.0, 1.0), yaw=math.pi / 2)
        a = box.aabb
        assert a[0] == pytest.approx(-1.0) and a[3] == pytest.approx(1.0)
        assert a[1] == pytest.approx(-2.0) and a[4] == pytest.approx(2.0)


# box values on both sides of the bound: any float (NaN and the infinities
# among them) or int, and the values next to the bound
_EDGE_VALUES = st.one_of(st.floats(), st.integers(), st.sampled_from([
    BOX_MAX, -BOX_MAX, 2.0**129, -(2.0**129), int(BOX_MAX), int(BOX_MAX) + 1, -int(BOX_MAX) - 1,
    2**129 - 2**75, 1e38, 1e300, math.nan, math.inf, -math.inf, 5e-324, 0.0, -0.0, 1.0]))
_EDGE_BOXES = st.tuples(*[_EDGE_VALUES] * 7)


def _within(values) -> bool:
    """Whether seven box values are what Box3 takes: every one at most
    BOX_MAX in magnitude (NaN compares false), the half extents positive."""
    return all(-BOX_MAX <= v <= BOX_MAX for v in values) and all(h > 0 for h in values[3:6])


def _widths_grid(rows, cols):
    """The lane-and-parking grid of test_box_table, its widths set after
    classification, as a library caller may set them."""
    grid = classify_all(GarageSpec(((1, 1), (0, -1)), (5.0, 5.0), (5.0, 5.0)))
    return replace(grid, spec=replace(grid.spec, row_widths=rows, col_widths=cols))


def _built(make):
    try:
        return "scene", export_scene(make())
    except ValueError as exc:
        return ValueError, str(exc)


_WIDTHS = st.one_of(st.floats(0.5, 20.0), st.floats(min_value=5e-324), st.sampled_from(
    [math.nan, math.inf, BOX_MAX, BOX_MAX / 2.0, 1e38, 1e300, 2.0**129, 5e-324]))


class TestBoxBound:
    """Every way a box enters a scene takes the same values: Box3, the rows
    synthesis fills from a grid that no validation has seen, and scene/1
    import.  A value that is not finite or lies past BOX_MAX is refused
    with each entry's documented error; values within it are taken, and
    export to the bytes the json oracle writes."""

    @settings(max_examples=300, deadline=None)
    @given(_EDGE_BOXES)
    @example((BOX_MAX, -BOX_MAX, 0.0, BOX_MAX, 5e-324, 1.0, -BOX_MAX))
    @example((int(BOX_MAX), 0, 0, 1, 1, int(BOX_MAX), 0))
    @example((2**129 - 2**75, 0, 0, 1, 1, 1, 0))  # an int whose float is 2**129
    @example((0.0, 0.0, 0.0, 1.0, 2.0**129, 1.0, 0.0))
    def test_box3(self, values):
        center, half, yaw = values[:3], values[3:6], values[6]
        if not _within(values):
            with pytest.raises(ValueError):
                Box3(center, half, yaw)
            return
        box = Box3(center, half, yaw)
        scene = SceneGraph((SceneNode("a", NodeKind.COLUMN, box),), box, LightLevel.BRIGHT)
        # its table (checked as it is made) holds the floats of its values,
        # which round-trip
        text = export_scene(scene)
        assert text == scene_json(scene)
        assert export_scene(import_scene(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(_WIDTHS, _WIDTHS), st.tuples(_WIDTHS, _WIDTHS))
    @example((5.0, 5.0), (math.nan, 3.0))
    @example((5.0, math.inf), (3.0, 3.0))
    @example((5.0, 5.0), (BOX_MAX, BOX_MAX))  # an envelope of 2 BOX_MAX
    @example((5.0, 5.0), (BOX_MAX / 2.0, BOX_MAX / 2.0))
    def test_synthesis(self, rows, cols):
        grid = _widths_grid(rows, cols)
        got = _built(lambda: synthesize(grid))
        assert got == _built(lambda: synthesize_nodes(grid))
        edges = [(0.0, w[0], w[0] + w[1]) for w in (rows, cols)]
        if not all(map(math.isfinite, rows + cols)):
            assert got[0] is ValueError
        elif min(rows + cols) >= 1.0 and all(e[0] < e[1] < e[2] <= BOX_MAX for e in edges):
            # no width absorbed into an edge or halved to 0 in a marking
            assert got[0] == "scene"
            assert export_scene(import_scene(got[1])) == got[1]

    @settings(max_examples=300, deadline=None)
    @given(_EDGE_BOXES, st.sampled_from(["node", "bounds"]))
    @example((0.0, 1e300, 0.0, 1.0, 1.0, 1.0, 0.0), "node")
    @example((0.0, 0.0, 0.0, 1.0, 1.0, BOX_MAX, -BOX_MAX), "bounds")
    @example((0.0, 0.0, int(BOX_MAX) + 1, 1.0, 1.0, 1.0, 0.0), "node")  # its float is BOX_MAX
    def test_import(self, values, where):
        box = {"center": list(values[:3]), "half_extents": list(values[3:6]), "yaw": values[6]}
        good = {"center": [0, 0, 1], "half_extents": [1, 1, 1], "yaw": 0.0}
        text = json.dumps({"schema": "scene/1", "light_level": "bright",
                           "bounds": box if where == "bounds" else good,
                           "nodes": [dict(box if where == "node" else good, id="a",
                                          kind="column", tags={})]})
        try:
            floats = tuple(map(float, values))  # the reader's conversion
        except OverflowError:
            floats = (math.inf,)
        if not _within(floats):
            with pytest.raises(SchemaError, match="bad box"):
                import_scene(text)
            return
        scene = import_scene(text)
        again = export_scene(scene)
        assert again == scene_json(scene) == export_scene(import_scene(again))
        assert again == export_scene(import_scene_two_pass(text))
