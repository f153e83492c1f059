"""The sample loop against its one-query-per-sample reference.

_sample_pairs runs the grid broadphase once per stretch of samples and
then each sample's exact AABB test on that stretch's candidates; the
reference, ``oracles.per_sample_loop``, queries once per sample, culls the
wedge one hull edge at a time and reduces with min, np.unique and
np.linalg.norm.  Both must give equal VisibilitySample tuples, repr
included, so fractions and named occluders are the same bits.  Scenes come
from test_scene_index's generator (rotated boxes, wall runs, ceiling
panels, far and huge boxes, lamps) plus vehicle targets, some of them far
or huge; paths run past one stretch, and both ``sweep`` and
``target_sweep``'s moving target are checked.
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
    """Counts of each _frustum_verdict outcome the engine reaches."""
    seen = {True: 0, False: 0, None: 0}
    verdict = visibility._frustum_verdict

    def counted(frustum, aabb):
        got = verdict(frustum, aabb)
        seen[got[0]] += 1
        return got

    patch.setattr(visibility, "_frustum_verdict", counted)
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
