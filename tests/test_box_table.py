"""The box table behind every scene: what a scene made from its table (an
imported, merged or re-lit one) gives must be what the same scene made from
its nodes gives, and the scenario command must not build the imported
garage's nodes."""

import math
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from garagesim import cli
from garagesim.classify import classify_all
from garagesim.errors import SchemaError
from garagesim.grid import CellKind, GarageSpec
from garagesim.scenario import _scene_from_nodes, build_case1, build_case2
from garagesim.scene import (
    LightLevel,
    NodeKind,
    OPAQUE_KINDS,
    OccupancyPlan,
    PlanEntry,
    SceneGraph,
    SceneNode,
    SynthOptions,
    apply_light_level,
    export_scene,
    import_scene,
    layout_cells,
    populate_vehicles,
    remove_node,
    synthesize,
)
from oracles import import_scene_two_pass


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
    return cli._merge_scene(build_case1().scene, import_scene(_garage_text()))


# each a scene made from its table, and the nodes its copy is made from
SCENES = {
    "imported": lambda: import_scene(_garage_text()),
    "merged": _merged,
    "relit": lambda: apply_light_level(import_scene(_garage_text()), LightLevel.DIM),
    "merged-relit": lambda: apply_light_level(_merged(), LightLevel.BRIGHT),
    "case-relit": lambda: apply_light_level(build_case2().scene, LightLevel.CLEAR),
}


def _table_scene(name: str) -> SceneGraph:
    scene = SCENES[name]()
    assert "nodes" not in vars(scene), "a table scene builds no nodes until asked"
    return scene


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
def test_index_arrays_match_the_nodes(name):
    scene = _table_scene(name)
    index = scene.index
    assert "nodes" not in vars(scene), "the index reads the table, not nodes"
    _assert_index_of(index, scene.nodes)
    _assert_index_of(_copy(scene).index, scene.nodes)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_replaced_and_pruned_scenes_index_their_nodes(name):
    scene = _table_scene(name)
    for derived in (replace(scene, nodes=scene.nodes[2:]),
                    remove_node(scene, scene.nodes[-1].id)):
        _assert_index_of(derived.index, derived.nodes)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_scene_reads_agree_with_a_scene_built_from_nodes(name):
    scene = _table_scene(name)
    ids = list(scene._table_of().ids)
    counts = {kind: scene.count(kind) for kind in NodeKind}
    looked_up = [scene.node(node_id) for node_id in ids[::7] + ids[-3:]]
    assert "nodes" not in vars(scene), "count and node() read the table"
    with pytest.raises(KeyError) as err:
        scene.node("no-such-node")
    assert err.value.args == ("no node 'no-such-node' in scene",)
    with pytest.raises(KeyError):
        scene.node(["unhashable"])

    copy = _copy(scene)
    assert "_own_table" not in vars(scene), "built nodes stand in place of the table"
    assert [n.id for n in scene.nodes] == ids
    assert scene.nodes == copy.nodes and scene == copy and repr(scene) == repr(copy)
    assert counts == {kind: copy.count(kind) for kind in NodeKind}
    assert looked_up == [copy.node(n.id) for n in looked_up]
    assert scene.node(ids[0]) is scene.nodes[0]
    assert scene.bounds == copy.bounds
    assert export_scene(scene) == export_scene(copy)
    assert export_scene(scene, "obj") == export_scene(copy, "obj")
    # the table derived again from the nodes is the one the scene was made from
    again = scene._table_of()
    assert again.ids == ids and again.values == SCENES[name]()._table_of().values


def test_merged_scene_is_the_scenario_then_the_garage():
    base, extra = build_case1().scene, import_scene(_garage_text())
    merged = cli._merge_scene(base, extra)
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


def test_merge_collision_names_the_first_colliding_id():
    base = build_case1().scene
    extra = SceneGraph(tuple(SceneNode(node_id, NodeKind.COLUMN, base.bounds)
                             for node_id in ("fresh", "col-corner", "floor", "veh-target")),
                       base.bounds, LightLevel.BRIGHT)
    for other in (extra, import_scene(export_scene(extra))):
        with pytest.raises(SchemaError) as err:
            cli._merge_scene(base, other)
        assert str(err.value) == "--scene node id 'col-corner' collides with the scenario"


def test_scenario_with_scene_builds_no_imported_node(tmp_path, monkeypatch):
    text = _garage_text(side=9)
    path = tmp_path / "garage.json"
    path.write_text(text, encoding="utf-8")
    imported = len(import_scene(text).nodes)
    built = []
    init = SceneNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SceneNode, "__init__", counting_init)
    garage_ids = set(import_scene(text)._table_of().ids)
    assert len(garage_ids) == imported > 200
    for case in ("1", "2", "3"):
        built.clear()
        out = tmp_path / f"r{case}.json"
        assert cli.main(["scenario", "--case", case, "--scene", str(path), "--light", "dim",
                         "--out", str(out)]) == 0
        # the case builder's own nodes and the targets looked up (case 2 moves its
        # target, one node per sample), none of the garage's
        assert built and not garage_ids & set(built), sorted(garage_ids & set(built))[:5]
        assert len(set(built)) < 10


def test_threads_building_nodes_at_once_get_one_tuple():
    """A table scene shared by threads: each reads nodes while another may
    be building them, and all get the one tuple the scene then keeps."""
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
            assert len(got) == 4 and all(nodes is scene.nodes for nodes in got)
    finally:
        sys.setswitchinterval(interval)
