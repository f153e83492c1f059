"""The sample loop against its one-sample-at-a-time reference.

_sample_pairs takes the cameras, frustum verdicts, facing faces, grid
broadphase, wedge cull and box frames once per stretch of samples, and
skips the rays of a sample whose wedge keeps no box; the reference,
``oracles.per_sample_loop``, takes each sample alone: it tests every face
point against the frustum, queries once, culls the wedge one hull edge at
a time and reduces with min, np.unique and np.linalg.norm.  Both must give
equal VisibilitySample tuples, repr included, so fractions and named
occluders are the same bits.  Scenes come from test_scene_index's
generator (rotated boxes, wall runs, ceiling panels, far and huge boxes,
lamps) plus vehicle targets, some of them far or huge; paths run past one
stretch, and both ``sweep`` and ``target_sweep``'s moving target are
checked, at the CLI's 24 samples per edge too, over sweeps of stretch-edge
lengths and stretches that mix every kind of sample.
"""

import math
import random

import pytest

from garagesim import scenario, visibility
from garagesim.grid import BOX_MAX
from garagesim.scene import Box3, LightLevel, NodeKind, SceneGraph, SceneNode
from garagesim.scenario import target_sweep
from garagesim.visibility import CameraConfig, EgoPose, sweep

from oracles import per_sample_loop
from test_scene_index import SIDE, random_scene

CFG = CameraConfig()


def _target_box(rng: random.Random) -> Box3:
    half = SIDE / 2.0
    roll = rng.random()
    if roll < 0.1:  # far or huge, up to the bound Box3 holds every box to
        return rng.choice([
            Box3((1e16, 0.0, 0.75), (2.4, 0.9, 0.75)),
            Box3((5.0, 5.0, 0.75), (2.4, 1e17, 0.75)),
            Box3((BOX_MAX, 0.0, 0.75), (2.4, 0.9, 0.75)),
            Box3((5.0, -1e38, 0.75), (2.4, 0.9, 0.75)),
            Box3((5.0, 5.0, 0.75), (BOX_MAX, 0.9, 0.75)),
            Box3((5.0, 5.0, 0.75), (2.4, 0.9, 0.75), yaw=BOX_MAX),
        ])
    return Box3((rng.uniform(-half, half), rng.uniform(-half, half), 0.75),
                (rng.uniform(1.8, 2.6), rng.uniform(0.8, 1.0), 0.75),
                yaw=rng.uniform(-math.pi, math.pi))


def _scene(rng: random.Random, count: int) -> SceneGraph:
    base = random_scene(rng, count)
    targets = tuple(SceneNode(f"t-{k}", NodeKind.VEHICLE, _target_box(rng)) for k in range(3))
    return SceneGraph(base.nodes + targets, base.bounds, LightLevel.BRIGHT)


def _path(rng: random.Random, toward: Box3) -> list[tuple[float, float]]:
    """A polyline that mostly heads for the target and often drives past
    it, so samples fall in view and out of it."""
    half = SIDE / 2.0
    aim = toward.center[:2]
    if rng.random() < 0.2:
        aim = (rng.uniform(-half, half), rng.uniform(-half, half))
    heading, reach = rng.uniform(-math.pi, math.pi), rng.uniform(8.0, 40.0)
    start = (aim[0] + reach * math.cos(heading), aim[1] + reach * math.sin(heading))
    past, side = rng.uniform(-0.9, 0.4), rng.uniform(-4.0, 4.0)
    end = (aim[0] + past * (aim[0] - start[0]) - side * math.sin(heading),
           aim[1] + past * (aim[1] - start[1]) + side * math.cos(heading))
    if rng.random() < 0.3:  # a bend halfway
        mid = ((start[0] + end[0]) / 2.0 + rng.uniform(-3.0, 3.0),
               (start[1] + end[1]) / 2.0 + rng.uniform(-3.0, 3.0))
        return [start, mid, end]
    return [start, end]


def _assert_same_as_reference(module, run) -> tuple:
    got = run().samples
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_sample_pairs", per_sample_loop)
        want = run().samples
    assert got == want
    assert repr(got) == repr(want)
    return got


def test_sweeps_match_per_sample_loop():
    rng = random.Random(23)
    seen = {"samples": 0, "in_view": 0, "occluded": 0, "long": 0}
    for trial in range(24):
        scene = _scene(rng, rng.choice([0, 5, 40, 300]))
        target = f"t-{rng.randrange(3)}"
        opaque = [n.id for n in scene.nodes if n.kind is not NodeKind.LAMP]
        ignore = frozenset(rng.sample(opaque, min(len(opaque), rng.randrange(4))))
        path = _path(rng, scene.node(target).box)
        step, grid = rng.choice([0.25, 0.5, 1.0]), rng.choice([3, 5])
        samples = _assert_same_as_reference(visibility, lambda: sweep(
            scene, path, CFG, target, step, samples_per_edge=grid, ignore_ids=ignore))
        seen["samples"] += len(samples)
        seen["in_view"] += sum(s.in_frustum for s in samples)
        seen["occluded"] += sum(bool(s.occluders) for s in samples)
        seen["long"] += len(samples) > visibility._STRETCH
    # the paths cover several stretches, and samples in and out of view
    assert seen["long"] >= 3 and 0 < seen["in_view"] < seen["samples"], seen
    assert seen["occluded"] > 100, seen


def test_moving_target_matches_per_sample_loop():
    rng = random.Random(29)
    seen = {"samples": 0, "in_view": 0, "occluded": 0}
    for trial in range(10):
        scene = _scene(rng, rng.choice([5, 40, 300]))
        target = f"t-{rng.randrange(3)}"
        # the camera parked by the target's path, facing along it
        target_path = visibility._as_poses(_path(rng, scene.node(target).box))
        ego = EgoPose(target_path[0].position, target_path[0].heading)
        ego = EgoPose((ego.position[0] - 12.0 * math.cos(ego.heading),
                       ego.position[1] - 12.0 * math.sin(ego.heading) + rng.uniform(-3, 3)),
                      ego.heading + rng.uniform(-0.9, 0.9))
        ignore = frozenset([scene.nodes[0].id]) if trial % 2 else frozenset()
        samples = _assert_same_as_reference(scenario, lambda: target_sweep(
            scene, ego, target_path, CFG, target, 0.5, samples_per_edge=4, ignore_ids=ignore))
        seen["samples"] += len(samples)
        seen["in_view"] += sum(s.in_frustum for s in samples)
        seen["occluded"] += sum(bool(s.occluders) for s in samples)
    assert 0 < seen["in_view"] < seen["samples"] and seen["occluded"] > 20, seen


def _across(rng: random.Random, toward: Box3) -> list[tuple[float, float]]:
    """A straight drive that passes the target a few metres to one side,
    from well before it to well past it, so the target goes from wholly
    in view through the edge of the frustum to wholly out of it."""
    heading = rng.uniform(-math.pi, math.pi)
    side = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 6.0)
    cx, cy = toward.center[:2]
    ox, oy = cx - side * math.sin(heading), cy + side * math.cos(heading)
    before, past = rng.uniform(12.0, 30.0), rng.uniform(3.0, 12.0)
    return [(ox - before * math.cos(heading), oy - before * math.sin(heading)),
            (ox + past * math.cos(heading), oy + past * math.sin(heading))]


def _counting_verdicts(patch) -> dict:
    """Counts of each verdict the engine reaches: every face point in view
    (True), none (False) or undecided (None)."""
    seen = {True: 0, False: 0, None: 0}
    verdicts = visibility._frustum_verdicts

    def counted(*args):
        out, full, margins = verdicts(*args)
        seen[True] += int(full.sum())
        seen[False] += int(out.sum())
        seen[None] += int((~out & ~full).sum())
        return out, full, margins

    patch.setattr(visibility, "_frustum_verdicts", counted)
    return seen


def test_paths_across_the_frustum_edge_match_per_sample_loop():
    # the target wholly in view, straddling the frustum and wholly out of
    # it, for a driving ego and for a moving target crossing a parked
    # camera's view: every verdict's shortcut is checked against the
    # reference, which tests each face point
    rng = random.Random(31)
    with pytest.MonkeyPatch.context() as patch:
        seen = _counting_verdicts(patch)
        for trial in range(16):
            scene = _scene(rng, rng.choice([5, 40, 300]))
            target = f"t-{rng.randrange(3)}"
            box = scene.node(target).box
            if trial % 2:
                path = visibility._as_poses(_across(rng, box))
                start = path[0]
                ego = EgoPose((start.position[0] - 6.0 * math.cos(start.heading),
                               start.position[1] - 6.0 * math.sin(start.heading)),
                              start.heading + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2))
                _assert_same_as_reference(scenario, lambda: target_sweep(
                    scene, ego, path, CFG, target, 0.5, samples_per_edge=4))
            else:
                path, grid = _across(rng, box), rng.choice([3, 5])
                _assert_same_as_reference(visibility, lambda: sweep(
                    scene, path, CFG, target, 0.5, samples_per_edge=grid))
    assert min(seen.values()) > 50, seen


def test_coincident_occluders_name_the_first():
    # two equal boxes between camera and target tie on every ray: the tie
    # goes to the first in index order, here the one whose id sorts last
    wall = Box3((6.0, 0.0, 1.0), (0.3, 3.0, 1.0))
    nodes = (
        SceneNode("z-first", NodeKind.COLUMN, wall),
        SceneNode("a-second", NodeKind.COLUMN, wall),
        SceneNode("target", NodeKind.VEHICLE, Box3((12.0, 0.0, 0.75), (0.9, 2.2, 0.75))),
    )
    scene = SceneGraph(nodes, Box3((6.0, 0.0, 1.5), (8.0, 4.0, 1.5)), LightLevel.BRIGHT)
    samples = _assert_same_as_reference(visibility, lambda: sweep(
        scene, [(0.0, 0.0), (2.0, 0.0)], CFG, "target", 0.5, samples_per_edge=6))
    assert all(s.occluders and {nid for nid, _ in s.occluders} == {"z-first"} for s in samples)


# --- stretches: their sizes, what they mix, and the CLI's grid --------------------


def _column(node_id: str, x: float, y: float) -> SceneNode:
    return SceneNode(node_id, NodeKind.COLUMN, Box3((x, y, 1.5), (0.3, 0.3, 1.5)))


def _lane_scene(*extra: SceneNode) -> SceneGraph:
    """A target parked by a lane, a column that comes between them for part
    of a drive along the lane, and a rotated box further off."""
    nodes = (
        SceneNode("target", NodeKind.VEHICLE, Box3((12.0, 0.0, 0.75), (2.2, 0.9, 0.75))),
        _column("col-near", 8.0, 3.0),
        SceneNode("box-turned", NodeKind.COLUMN, Box3((16.0, 4.0, 1.0), (0.4, 1.5, 1.0), 0.7)),
        *extra,
    )
    return SceneGraph(nodes, Box3((5.0, 0.0, 1.5), (25.0, 12.0, 1.5)), LightLevel.BRIGHT)


def _recording_stretches(patch) -> list[dict]:
    """Per stretch the engine takes: its verdicts and how many samples the
    wedge left with boxes and without."""
    stretches = []
    verdicts, wedges = visibility._frustum_verdicts, visibility.SceneIndex._cull_wedges

    def counted_verdicts(*args):
        out, full, margins = verdicts(*args)
        stretches.append({"out": int(out.sum()), "full": int(full.sum()),
                          "undecided": int((~out & ~full).sum()), "kept": 0, "culled": 0})
        return out, full, margins

    def counted_wedges(index, subsets, hulls):
        kept = wedges(index, subsets, hulls)
        stretches[-1]["kept"] += sum(bool(len(k)) for k in kept)
        stretches[-1]["culled"] += sum(not len(k) for k in kept)
        return kept

    patch.setattr(visibility, "_frustum_verdicts", counted_verdicts)
    patch.setattr(visibility.SceneIndex, "_cull_wedges", counted_wedges)
    return stretches


@pytest.mark.parametrize("count", [
    visibility._STRETCH - 1, visibility._STRETCH, visibility._STRETCH + 1, 2 * visibility._STRETCH,
])
def test_sweeps_of_stretch_edge_lengths_match_per_sample_loop(count):
    # a drive of exactly count samples: one stretch short of full, one
    # full, one sample into the next, two full
    scene = _lane_scene()
    path = [(-4.0, 5.0), (-4.0 + 0.5 * (count - 1), 5.0)]
    with pytest.MonkeyPatch.context() as patch:
        stretches = _recording_stretches(patch)
        samples = _assert_same_as_reference(visibility, lambda: sweep(
            scene, path, CFG, "target", 0.5, samples_per_edge=4))
    assert len(samples) == count
    sizes = [sum(s[k] for k in ("out", "full", "undecided")) for s in stretches]
    assert sizes == [min(visibility._STRETCH, count - k)
                     for k in range(0, count, visibility._STRETCH)]


def test_stretches_mix_every_kind_of_sample():
    # a drive past the target: wholly in view, then across the frustum's
    # edge and out of it, with the column in the wedge for part of the way;
    # stretches hold samples of every verdict, and samples whose wedge keeps
    # a box beside samples whose wedge keeps none
    scene = _lane_scene(_column("col-far", 30.0, -8.0))
    with pytest.MonkeyPatch.context() as patch:
        stretches = _recording_stretches(patch)
        samples = _assert_same_as_reference(visibility, lambda: sweep(
            scene, [(-4.0, 5.0), (18.0, 5.0)], CFG, "target", 0.5, samples_per_edge=6))
    assert any(s["out"] and s["full"] and s["undecided"] for s in stretches), stretches
    assert any(s["kept"] and s["culled"] for s in stretches), stretches
    occluded = [bool(s.occluders) for s in samples if s.in_frustum]
    assert any(occluded) and not all(occluded)


def test_cli_face_grid_matches_per_sample_loop():
    # the CLI's default of 24 samples per edge, for a driving ego and a
    # moving target, in random scenes
    rng = random.Random(37)
    assert visibility.DEFAULT_SAMPLES_PER_EDGE == 24
    for trial in range(4):
        scene = _scene(rng, rng.choice([5, 40]))
        target = f"t-{rng.randrange(3)}"
        box = scene.node(target).box
        if trial % 2:
            path = visibility._as_poses(_across(rng, box))
            start = path[0]
            ego = EgoPose((start.position[0] - 6.0 * math.cos(start.heading),
                           start.position[1] - 6.0 * math.sin(start.heading)),
                          start.heading + rng.uniform(0.3, 1.0))
            _assert_same_as_reference(scenario, lambda: target_sweep(
                scene, ego, path, CFG, target, 1.0))
        else:
            path = _across(rng, box)
            _assert_same_as_reference(visibility, lambda: sweep(scene, path, CFG, target, 1.0))


def test_moving_target_turning_in_mid_stretch_matches_per_sample_loop(monkeypatch):
    # the target's path bends after 9 samples, so its yaw changes inside
    # the first stretch, and again after 39, inside the second
    made = []
    face_shape = visibility._face_shape
    monkeypatch.setattr(visibility, "_face_shape",
                        lambda *args: made.append(args) or face_shape(*args))
    visibility._kept_face_shape.cache_clear()  # shapes kept by earlier tests
    scene = _lane_scene()
    path = visibility._as_poses([(12.0, -6.0), (12.0, -1.5), (27.0, -1.5), (27.0, 12.0)])
    ego = EgoPose((-2.0, 1.0), 0.2)
    samples = _assert_same_as_reference(scenario, lambda: target_sweep(
        scene, ego, path, CFG, "target", 0.5, samples_per_edge=5))
    assert len(samples) > 2 * visibility._STRETCH
    # one shape per yaw of the path's straight pieces: the last piece's yaw
    # is the first's, so it takes the shape kept for the process
    assert [args[0] for args in made] == [math.pi, math.pi / 2.0]
    assert len({s.in_frustum for s in samples}) == 2 and any(s.occluders for s in samples)


def test_moving_target_builds_no_node_per_sample(nodes_built):
    # target_sweep yields target boxes; the loop looks the target up once
    scene = _lane_scene()
    path = visibility._as_poses([(12.0, -6.0), (12.0, 6.0)])
    nodes_built.clear()
    got = target_sweep(scene, EgoPose((-2.0, 1.0), 0.0), path, CFG, "target", 0.5)
    assert len(got.samples) == 25 and nodes_built == ["target"]
