"""The box table behind every scene: what a scene made from its table (a
synthesized, populated, imported, merged or re-lit one) gives must be what
the same scene made from its nodes gives, synthesis and vehicle placement
must give what their node-building references give, and the scenario and
generate commands must not build the garage's nodes.  "Builds no node" is
a count of SceneNode.__init__ calls (the nodes_built fixture)."""

import json
import math
import random
import sys
import threading
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from garagesim import cli
from garagesim.classify import ParkSubtype, classify_all
from garagesim.errors import SchemaError
from garagesim.grid import CellKind, CellRef, GarageSpec, emit_garage_spec
from garagesim.scenario import _scene_from_nodes, build_case1, build_case2
from garagesim.scene import (
    Box3,
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
    populate_vehicles,
    remove_node,
    synthesize,
    _BoxTable,
    _check_box,
)
from garagesim.visibility import CameraConfig, EgoPose, visible_fraction
from conftest import random_spec
from oracles import (
    import_scene_two_pass, merge_scene, populate_vehicles_nodes, scene_json, synthesize_nodes,
)


def _grid(side: int = 6):
    """A garage plan with lanes on every third row and column, parking
    between them, an entrance, an exit and a wall, classified."""
    structure = [[1 if i % 3 == 0 or j % 3 == 0 else 0 for j in range(side)]
                 for i in range(side)]
    structure[0][0], structure[0][-1], structure[-1][-1] = 2, 3, -1
    return classify_all(GarageSpec(tuple(map(tuple, structure)), (5.0,) * side, (3.0,) * side))


def _garage_text(seed: int = 7, side: int = 6) -> str:
    """scene/1 text of the garage of _grid at moderate light, with a third
    of its spaces taken."""
    rng = random.Random(seed)
    grid = _grid(side)
    spaces = [cell for cell, _ in layout_cells(grid)
              if grid.cells[cell.i][cell.j].kind is CellKind.PARKING and rng.random() < 0.35]
    plan = OccupancyPlan(tuple(PlanEntry(cell, "medium", force=True) for cell in spaces))
    garage = populate_vehicles(synthesize(grid, SynthOptions(light=LightLevel.MODERATE)),
                               grid, plan)
    return export_scene(garage)


def _merged():
    return merge_scene(build_case1().scene, import_scene(_garage_text()))


# each a scene made from its table, and the nodes its copy is made from
SCENES = {
    "imported": lambda: import_scene(_garage_text()),
    "merged": _merged,
    "relit": lambda: apply_light_level(import_scene(_garage_text()), LightLevel.DIM),
    "merged-relit": lambda: apply_light_level(_merged(), LightLevel.BRIGHT),
    "case-relit": lambda: apply_light_level(build_case2().scene, LightLevel.CLEAR),
}


def _copy(scene: SceneGraph) -> SceneGraph:
    """The same scene made from its nodes."""
    return SceneGraph(tuple(scene.nodes), scene.bounds, scene.light_level)


def _assert_index_of(index, nodes):
    """Every array of the index holds the bytes that the nodes' own boxes
    give, one opaque node at a time (Box3.aabb and math for cos and sin)."""
    opaque = [n for n in nodes if n.kind in OPAQUE_KINDS]
    boxes = [n.box for n in opaque]
    expected = {
        "centers": np.array([b.center for b in boxes], float).reshape(-1, 3),
        "halves": np.array([b.half_extents for b in boxes], float).reshape(-1, 3),
        "cos_yaw": np.array([math.cos(b.yaw) for b in boxes], float),
        "sin_yaw": np.array([math.sin(b.yaw) for b in boxes], float),
        "aabbs": np.array([b.aabb for b in boxes], float).reshape(-1, 6),
    }
    for name, want in expected.items():
        got = getattr(index, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert index.ids == [n.id for n in opaque]
    assert index.index_of == {n.id: k for k, n in enumerate(opaque)}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_index_arrays_match_the_nodes(name, nodes_built):
    scene = SCENES[name]()
    nodes_built.clear()
    index = scene.index
    assert nodes_built == [], "the index reads the table, not nodes"
    nodes = scene.nodes
    _assert_index_of(index, nodes)
    _assert_index_of(_copy(scene).index, nodes)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_replaced_and_pruned_scenes_index_their_nodes(name):
    scene = SCENES[name]()
    nodes = scene.nodes
    for derived in (replace(scene, nodes=nodes[2:]), remove_node(scene, nodes[-1].id)):
        _assert_index_of(derived.index, derived.nodes)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_scene_reads_agree_with_a_scene_built_from_nodes(name, nodes_built):
    scene = SCENES[name]()
    ids = list(scene._table.ids)
    wanted = ids[::7] + ids[-3:]
    nodes_built.clear()
    counts = {kind: scene.count(kind) for kind in NodeKind}
    looked_up = [scene.node(node_id) for node_id in wanted]
    assert nodes_built == wanted, "count reads the table, and node() builds the one node"
    with pytest.raises(KeyError) as err:
        scene.node("no-such-node")
    assert err.value.args == ("no node 'no-such-node' in scene",)
    with pytest.raises(KeyError):
        scene.node(["unhashable"])

    copy = _copy(scene)
    nodes = scene.nodes
    assert [n.id for n in nodes] == ids
    assert nodes == scene.nodes == copy.nodes and scene == copy and repr(scene) == repr(copy)
    assert counts == {kind: copy.count(kind) for kind in NodeKind}
    assert looked_up == [copy.node(n.id) for n in looked_up]
    assert scene.node(ids[0]) == nodes[0]
    assert scene.bounds == copy.bounds
    assert export_scene(scene) == export_scene(copy)
    assert export_scene(scene, "obj") == export_scene(copy, "obj")
    # the table made again from the nodes is the one the scene was made from
    assert copy._table.ids == ids and copy._table.values == scene._table.values


def test_merged_scene_is_the_scenario_then_the_garage():
    base, extra = build_case1().scene, import_scene(_garage_text())
    merged = merge_scene(base, extra)
    assert merged == _scene_from_nodes([*base.nodes, *import_scene_two_pass(_garage_text()).nodes])
    assert merged.light_level is LightLevel.BRIGHT


@pytest.mark.parametrize("level", list(LightLevel))
def test_relit_table_scene_keeps_its_rows_and_lamps_as_synthesis_places_them(level):
    scene = import_scene(_garage_text())
    relit = apply_light_level(scene, level)
    others = [n for n in import_scene_two_pass(_garage_text()).nodes if n.kind is not NodeKind.LAMP]
    lamps = [n for n in synthesize(_grid(), SynthOptions(light=level)).nodes
             if n.kind is NodeKind.LAMP]
    assert relit.count(NodeKind.LAMP) == len(lamps) > 0
    assert relit.nodes == (*others, *lamps)


@pytest.mark.parametrize("level", list(LightLevel))
def test_merge_with_a_level_relights_in_the_one_copy(level, monkeypatch, nodes_built):
    # the scene apply_light_level makes of the merged one, from one pass
    # over the two tables: no joined table is copied again to re-light it
    base, extra = build_case1().scene, import_scene(_garage_text())
    want = apply_light_level(merge_scene(base, extra), level)
    passes = []
    joined = _BoxTable.joined.__func__
    monkeypatch.setattr(_BoxTable, "joined", classmethod(
        lambda cls, parts: passes.append(1) or joined(cls, parts)))
    monkeypatch.setattr(_BoxTable, "__add__", None)
    # each table's columns are computed once, for the bounds and the index
    tables = []
    columns = _BoxTable.columns
    monkeypatch.setattr(_BoxTable, "columns", lambda table: tables.append(table) or columns(table))
    nodes_built.clear()
    got = cli._merge_scene(base, extra, level)
    assert passes == [1]
    assert len(tables) == 2 and tables[0].ids == base._table.ids
    assert nodes_built == []
    assert got.bounds == want.bounds and got.light_level is want.light_level is level
    index = got.index
    assert len(tables) == 2, "the merge built the index"
    _assert_index_of(index, want.nodes)
    assert export_scene(got) == export_scene(want)
    assert got.nodes == want.nodes


def test_merge_collision_names_the_first_colliding_id():
    base = build_case1().scene
    extra = SceneGraph(tuple(SceneNode(node_id, NodeKind.COLUMN, base.bounds)
                             for node_id in ("fresh", "col-corner", "floor", "veh-target")),
                       base.bounds, LightLevel.BRIGHT)
    for other in (extra, import_scene(export_scene(extra))):
        for merge in (merge_scene, lambda *scenes: cli._merge_scene(*scenes, LightLevel.DIM)):
            with pytest.raises(SchemaError) as err:
                merge(base, other)
            assert str(err.value) == "--scene node id 'col-corner' collides with the scenario"


def test_scenario_with_scene_builds_no_imported_node(tmp_path, nodes_built):
    text = _garage_text(side=9)
    path = tmp_path / "garage.json"
    path.write_text(text, encoding="utf-8")
    imported = len(import_scene(text).nodes)
    garage_ids = set(import_scene(text)._table.ids)
    assert len(garage_ids) == imported > 200
    for case in ("1", "2", "3"):
        nodes_built.clear()
        out = tmp_path / f"r{case}.json"
        assert cli.main(["scenario", "--case", case, "--scene", str(path), "--light", "dim",
                         "--out", str(out)]) == 0
        # the case builder's own nodes and the targets looked up, none of
        # the garage's
        built = set(nodes_built)
        assert built and not garage_ids & built, sorted(garage_ids & built)[:5]
        assert len(built) < 10


def test_threads_reading_nodes_at_once_get_equal_tuples():
    """A table scene shared by threads: each reads nodes while another may
    be building them, and each gets the scene's nodes, with no error."""
    text = _garage_text(side=9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            scene = import_scene(text)
            start = threading.Barrier(4)
            got, errors = [], []

            def read():
                start.wait()
                try:
                    got.append(scene.nodes)
                except Exception as exc:  # noqa: BLE001 - the test reports any
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            want = scene.nodes
            assert len(got) == 4 and all(nodes == want for nodes in got)
    finally:
        sys.setswitchinterval(interval)


def test_table_node_lookup_takes_the_first_of_equal_ids(nodes_built):
    box = build_case1().scene.bounds
    nodes = [SceneNode(node_id, kind, box, {"n": str(k)}) for k, (node_id, kind) in enumerate(
        [("dup", NodeKind.COLUMN), ("other", NodeKind.LAMP), ("dup", NodeKind.VEHICLE)])]
    scene = SceneGraph(nodes, box, LightLevel.BRIGHT)
    nodes_built.clear()
    assert [scene.node(i).tags["n"] for i in ("dup", "other", "dup")] == ["0", "1", "0"]
    assert nodes_built == ["dup", "other", "dup"], "node() builds only the node asked for"


# --- synthesis and vehicle placement fill the table ----------------------------------


def _assert_same_scene(make, reference: SceneGraph, built: list[str]) -> SceneGraph:
    """The scene make() gives, a table scene, gives what the node-built
    reference gives: scene/1 bytes, nodes, bounds and light level.  make()
    and the writer build no node (built: the nodes_built fixture)."""
    built.clear()
    scene = make()
    text = export_scene(scene)
    assert built == [], "synthesis, placement and the writer build no node"
    assert text == export_scene(reference) == scene_json(reference)
    assert scene.nodes == reference.nodes
    assert scene.bounds == reference.bounds
    assert scene.light_level is reference.light_level
    return scene


def _random_grid(rng: random.Random):
    return classify_all(random_spec(rng, max_side=9))


@pytest.mark.parametrize("seed", range(10))
def test_synthesis_matches_the_node_building_reference(seed, nodes_built):
    rng = random.Random(seed)
    grid = _random_grid(rng)
    corners = [(ci, cj) for ci in range(1, grid.spec.m) for cj in range(1, grid.spec.n)]
    prune = frozenset(rng.sample(corners, len(corners) // 3))
    for level in LightLevel:
        options = SynthOptions(light=level, prune_columns=prune)
        _assert_same_scene(lambda: synthesize(grid, options), synthesize_nodes(grid, options),
                           nodes_built)


def test_vehicles_match_the_node_building_reference(nodes_built):
    forced = overhanging = 0
    for seed in range(25):
        rng = random.Random(seed)
        grid = _random_grid(rng)
        cells = [cell for cell, _ in layout_cells(grid)]
        entries = []
        for cell in rng.sample(cells, (len(cells) + 1) // 2):
            c = grid.cells[cell.i][cell.j]
            force = c.kind is not CellKind.PARKING or c.park_subtype is ParkSubtype.TYPE4
            entries.append(PlanEntry(cell, rng.choice(sorted(VEHICLE_SIZES)),
                                     parked=rng.random() < 0.5,
                                     color=rng.choice(["white", "red", "gray"]), force=force))
            forced += force
        plan = OccupancyPlan(tuple(entries))
        options = SynthOptions(light=rng.choice(list(LightLevel)))
        reference = populate_vehicles_nodes(synthesize_nodes(grid, options), grid, plan)
        scene = _assert_same_scene(lambda: populate_vehicles(synthesize(grid, options), grid, plan),
                                   reference, nodes_built)
        overhanging += sum(n.tags.get("overhang") == "true" for n in scene.nodes)
        # a scene made from nodes gets its vehicles appended to its table too
        from_nodes = synthesize_nodes(grid, options)
        _assert_same_scene(lambda: populate_vehicles(from_nodes, grid, plan), reference,
                           nodes_built)
    assert forced > 50 and overhanging > 50


def _grid_with_widths(structure, row_widths, col_widths):
    """A classified grid whose widths are set after classification, as a
    library caller may set them: validate checks no such grid."""
    grid = classify_all(GarageSpec(structure, (5.0,) * len(structure),
                                   (5.0,) * len(structure[0])))
    return replace(grid, spec=replace(grid.spec, row_widths=row_widths, col_widths=col_widths))


def _outcome(make):
    try:
        return "scene", export_scene(make())
    except Exception as exc:  # noqa: BLE001 - the test compares any error
        return type(exc), str(exc)


@pytest.mark.parametrize("grid", [
    # positive widths, but the second column's edges round to one float,
    # which validate's cell-extent rule refuses
    pytest.param(_grid_with_widths(((1, 1, 0), (0, 1, 0)), (5.0, 5.0), (1e17, 1.0, 6.0)),
                 id="absorbed-width-floor"),
    pytest.param(_grid_with_widths(((1, -1, 0), (1, -1, 0)), (5.0, 5.0), (1e17, 1.0, 6.0)),
                 id="absorbed-width-wall"),
    pytest.param(_grid_with_widths(((1, 1), (0, 1)), (5.0, -2.0), (3.0, 3.0)), id="negative-row"),
    pytest.param(_grid_with_widths(((1, 1), (0, 1)), (5.0, 5.0), (0.0, 3.0)), id="zero-column"),
    pytest.param(_grid_with_widths(((1, 1), (0, 1)), (5.0, 5.0), (1j, 3.0)), id="complex"),
    pytest.param(_grid_with_widths(((1, 1), (0, 1)), (5.0, math.nan), (math.inf, 3.0)),
                 id="non-finite"),
])
def test_synthesis_errors_are_the_node_building_references(grid):
    # every such grid makes a box that Box3's check refuses: a zero,
    # negative, complex or non-finite extent
    for level in (LightLevel.BRIGHT, LightLevel.DIM):
        options = SynthOptions(light=level)
        got = _outcome(lambda: synthesize(grid, options))
        assert got == _outcome(lambda: synthesize_nodes(grid, options))
        assert got[0] is ValueError


@pytest.mark.parametrize("widths", [(math.nan, 3.0), (3.0, math.inf), (3.0, 1e300)])
def test_vehicle_rows_get_the_box_check(widths):
    # a plan placed by a grid whose cells lie past the bound: the vehicle
    # rows get Box3's check, with the node-building reference's error
    grid = _grid_with_widths(((1, 1), (0, 1)), (5.0, 5.0), (3.0, 3.0))
    far = _grid_with_widths(((1, 1), (0, 1)), (5.0, 5.0), widths)
    plan = OccupancyPlan((PlanEntry(CellRef(1, 0), "small"), PlanEntry(CellRef(1, 1), "small",
                                                                       force=True)))
    got = _outcome(lambda: populate_vehicles(synthesize(grid), far, plan))
    assert got == _outcome(lambda: populate_vehicles_nodes(synthesize_nodes(grid), far, plan))
    assert got[0] is ValueError


def test_node_boxes_get_the_box_check_in_the_table():
    # a node box that is no Box3 but has its fields (a named tuple, say)
    # meets the check where its scene's box table is filled, so the index
    # never holds its infinite half extent
    box = namedtuple("Box", "center half_extents yaw")((6.0, 0.0, 1.5), (0.3, math.inf, 1.5), 0.0)
    with pytest.raises(ValueError, match="finite real numbers"):
        SceneGraph((SceneNode("col", NodeKind.COLUMN, box),),
                   Box3((6.0, 0.0, 1.5), (1.0, 1.0, 1.5)), LightLevel.BRIGHT).index


_BOX = namedtuple("Box", "center half_extents yaw")


@pytest.mark.parametrize("box", [
    _BOX((6.0, 0.0, 1.5), (0.3, math.inf, 1.5), 0.0),
    _BOX((6.0, 0.0, 1.5), (0.3, 1.0, 1.5), math.nan),
    _BOX((6.0, -math.inf, 1.5), (0.3, 1.0, 1.5), 0.0),
    _BOX((2.0**129, 0.0, 1.5), (0.3, 1.0, 1.5), 0.0),
    _BOX((6.0, 0.0, 1.5), (0.3, 1.0, 2**129), 0.0),
    _BOX((6.0, 0.0, 1.5), (0.3, 0.0, 1.5), 0.0),
    _BOX((6.0, 0.0, 1.5, 9.0), (0.3, 1.0, 1.5), 0.0),
    _BOX((6.0, 0.0, 1.5), (0.3, 1.0), 0.0),
], ids=["inf-half", "nan-yaw", "inf-center", "past-max-center", "past-max-int-half", "zero-half",
        "four-value-center", "two-value-half"])
def test_scene_construction_gets_the_box_check(box):
    # every box value of a scene made from nodes is checked as the scene is
    # made, with the error the one check gives of the floats it stores
    good = SceneNode("veh", NodeKind.VEHICLE, Box3((12.0, 0.0, 1.0), (1.0, 1.0, 1.0)))
    with pytest.raises(ValueError) as want:
        _check_box(tuple(map(float, box.center)), tuple(map(float, box.half_extents)),
                   float(box.yaw))
    for nodes in ([SceneNode("col", NodeKind.COLUMN, box)],
                  [good, SceneNode("col", NodeKind.COLUMN, box), good]):
        with pytest.raises(ValueError) as got:
            SceneGraph(nodes, good.box, LightLevel.BRIGHT)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("half", [(0.3, math.inf, 1.5), (0.3, 1, math.nan), (-1.0, 1.0, 1.0),
                                  (0.3, 2.0**129, 1.5)])
def test_node_scene_export_gets_the_box_check(half):
    # a node scene's box values are checked as the ray test checks them, so
    # the scene/1 writer never writes "inf" or "nan", which no JSON reader
    # takes
    box = namedtuple("Box", "center half_extents yaw")((6.0, 0, 1.5), half, 0.0)
    target = SceneNode("veh", NodeKind.VEHICLE, Box3((12.0, 0.0, 1.0), (1.0, 1.0, 1.0)))

    def scene():
        return SceneGraph((SceneNode("col", NodeKind.COLUMN, box), target), target.box,
                          LightLevel.BRIGHT)

    with pytest.raises(ValueError) as want:
        visible_fraction(scene(), EgoPose((0.0, 0.0), 0.0), CameraConfig(), "veh")
    with pytest.raises(ValueError) as got:
        export_scene(scene())
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("entries", [
    [PlanEntry(CellRef(1, 0), "small"), PlanEntry(CellRef(1, 0), "large")],
    [PlanEntry(CellRef(1, 0), "small"), PlanEntry(CellRef(2, 0), "small")],
    [PlanEntry(CellRef(-1, 0), "small")],
    [PlanEntry(CellRef(1, 1), "huge")],
    [PlanEntry(CellRef(1, 0), "small"), PlanEntry(CellRef(0, 0), "small")],
    [PlanEntry(CellRef(1, 2), "small")],
    [PlanEntry(CellRef(1, 2), "large", force=True), PlanEntry(CellRef(0, 2), "small", force=True)],
])
def test_plan_errors_are_the_node_building_references(entries):
    grid = classify_all(GarageSpec(((1, 1, -1), (0, 0, 0)), (6.0, 5.0), (3.0, 3.0, 3.0)))
    plan = OccupancyPlan(tuple(entries))
    for base in (synthesize(grid), synthesize_nodes(grid)):
        got = _outcome(lambda: populate_vehicles(base, grid, plan))
        assert got == _outcome(lambda: populate_vehicles_nodes(synthesize_nodes(grid), grid, plan))


@pytest.mark.parametrize("occupancy", [False, True])
@pytest.mark.parametrize("out", [False, True])
def test_generate_builds_no_node(tmp_path, capsys, nodes_built, occupancy, out):
    """generate writes its scene and counts its nodes from the box table."""
    structure = [[1 if i % 3 == 0 or j % 3 == 0 else 0 for j in range(9)] for i in range(9)]
    spec = GarageSpec(tuple(map(tuple, structure)), (5.0,) * 9, (3.0,) * 9)
    plan = tmp_path / "plan.json"
    plan.write_text(emit_garage_spec(spec), encoding="utf-8")
    argv = ["generate", str(plan)]
    if occupancy:
        vehicles = tmp_path / "occupancy.json"
        vehicles.write_text(emit_occupancy_plan(OccupancyPlan(tuple(
            PlanEntry(CellRef(i, j), "medium") for i in range(9) for j in range(9)
            if structure[i][j] == 0 and (i + j) % 2))), encoding="utf-8")
        argv += ["--occupancy", str(vehicles)]
    if out:
        argv = ["--format", "json", *argv, "--out", str(tmp_path / "scene.json")]
    assert cli.main(argv) == 0
    assert nodes_built == []
    captured = capsys.readouterr()
    text = (tmp_path / "scene.json").read_text(encoding="utf-8") if out else captured.out
    nodes = len(import_scene(text).nodes)
    assert nodes > 100
    if out:
        assert json.loads(captured.out)["nodes"] == nodes
    else:
        assert captured.err == f"nodes: {nodes}\n"
