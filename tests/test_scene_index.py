"""SceneIndex against one-box-at-a-time references.

The bucket-grid broadphase must return exactly the list a full scan over
every AABB returns, order included (ties in the nearest-box argmin go to
the first box, so the order names the occluder), also for each range of
a stack queried at once, and the broadcast slab test and wedge cull must
return the per-box and per-edge loops' results bit for bit.  The scenes
mix small rotated boxes with wall runs and ceiling panels wider than a
grid cell, far and huge boxes up to the bound Box3 holds every box to,
and non-blocking kinds; the queries fall inside, across and outside the
scene, on box bounds, and single queries carry NaN and infinite
coordinates.
"""

import math
import random

import numpy as np

import pytest

from garagesim.grid import BOX_MAX
from garagesim.scene import Box3, LightLevel, NodeKind, OPAQUE_KINDS, SceneGraph, SceneNode
from garagesim.visibility import SceneIndex

from oracles import full_scan_candidates, per_box_entry_distances, per_edge_cull_outside_wedge

OPAQUE = sorted(OPAQUE_KINDS, key=lambda k: k.value)
SIDE = 60.0


def _box(rng: random.Random) -> tuple[NodeKind, Box3]:
    roll = rng.random()
    half = SIDE / 2.0
    if roll < 0.6:  # column- or vehicle-sized, often rotated
        yaw = rng.choice([0.0, math.pi / 2.0, rng.uniform(-math.pi, math.pi)])
        return rng.choice(OPAQUE), Box3(
            (rng.uniform(-half, half), rng.uniform(-half, half), rng.uniform(0.0, 3.0)),
            (rng.uniform(0.05, 1.5), rng.uniform(0.05, 2.5), rng.uniform(0.05, 1.5)),
            yaw=yaw,
        )
    if roll < 0.72:  # wall run along x or y
        long, thin = rng.uniform(3.0, half), rng.uniform(0.05, 0.3)
        halves = (long, thin, 1.4) if rng.random() < 0.5 else (thin, long, 1.4)
        return NodeKind.COLUMN, Box3(
            (rng.uniform(-half, half), rng.uniform(-half, half), 1.4), halves)
    if roll < 0.8:  # ceiling panel spanning the scene
        return NodeKind.CEILING_PANEL, Box3(
            (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 2.9), (half, half, 0.1))
    if roll < 0.88:  # far or huge, up to the bound
        return rng.choice(OPAQUE), rng.choice([
            Box3((1e16, 0.0, 1.0), (1.0, 1.0, 1.0)),
            Box3((0.0, 0.0, 1.0), (1e17, 1.0, 1.0)),
            Box3((BOX_MAX, 0.0, 1.0), (1.0, 1.0, 1.0)),
            Box3((0.0, -BOX_MAX, 1.0), (1.0, 1.0, 1.0)),
            Box3((1.0, 2.0, 1.0), (BOX_MAX, 1.0, 1.0), yaw=0.5),
            Box3((1.0, 2.0, 1.0), (1.0, 1.0, 1.0), yaw=BOX_MAX),
        ])
    return NodeKind.LAMP, Box3((0.0, 0.0, 2.5), (0.2, 0.2, 0.05))


def random_scene(rng: random.Random, count: int) -> SceneGraph:
    nodes = tuple(SceneNode(f"n-{k}", *_box(rng)) for k in range(count))
    return SceneGraph(nodes, Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), LightLevel.BRIGHT)


def random_query(rng: random.Random, index: SceneIndex,
                 nan: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """A query range; one of its coordinates now and then NaN (where nan
    holds) or infinite."""
    half = SIDE / 2.0
    mode = rng.randrange(6)
    if mode == 0 and index.ids:  # snapped to a box's bounds, give or take the 1e-9 shrink
        a = index.aabbs[rng.randrange(len(index.ids))]
        nudge = rng.choice([0.0, 1e-9, -1e-9, 2e-9])
        lo, hi = a[:3] + nudge, a[3:] - nudge
    else:
        reach = [half, half, 4.0 * half, 0.5][mode % 4]  # inside, across, outside, tiny
        lo = np.array([rng.uniform(-reach, reach), rng.uniform(-reach, reach),
                       rng.uniform(-1.0, 3.0)])
        hi = lo + np.array([rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE / 4.0),
                            rng.uniform(0.0, 3.0)])
        if mode == 4:  # inverted range
            lo, hi = hi, lo
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if rng.random() < 0.15:
        (lo if rng.random() < 0.5 else hi)[rng.randrange(3)] = rng.choice(
            [math.nan if nan else math.inf, math.inf, -math.inf])
    return lo, hi


def _assert_candidates_match(index: SceneIndex, rng: random.Random, queries: int) -> None:
    for q in range(queries):
        lo, hi = random_query(rng, index)
        skip = set(rng.sample(range(len(index.ids)), min(len(index.ids), rng.randrange(3))))
        expected = full_scan_candidates(index.aabbs, lo, hi, skip)
        assert index.candidates(lo, hi, skip) == expected, (q, lo, hi)


def test_candidates_match_full_scan():
    rng = random.Random(3)
    for count in (0, 1, 2, 5, 40, 300, 1500):
        for _ in range(4):
            _assert_candidates_match(SceneIndex(random_scene(rng, count)), rng, 60)


def test_candidates_each_match_full_scan():
    # one grid query over the union of a stack of ranges, then each range's
    # own exact test: every row's list as a query of its own returns it,
    # with infinite and inverted rows in the stack (the sample loop's
    # ranges, spanned by a camera and a box, hold no NaN)
    rng = random.Random(7)
    for count in (0, 1, 5, 40, 300, 1500):
        for _ in range(6):
            index = SceneIndex(random_scene(rng, count))
            rows = [random_query(rng, index, nan=False) for _ in range(rng.randrange(1, 40))]
            lo, hi = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
            skip = set(rng.sample(range(len(index.ids)), min(len(index.ids), rng.randrange(3))))
            got = index.candidates_each(lo, hi, skip)
            assert len(got) == len(rows)
            for r, near in enumerate(got):
                assert near.dtype == np.intp
                assert near.tolist() == full_scan_candidates(index.aabbs, lo[r], hi[r], skip), r
    assert SceneIndex(random_scene(rng, 5)).candidates_each(np.empty((0, 3)), np.empty((0, 3)),
                                                            set()) == []


def test_wedge_cull_matches_per_edge_loop():
    rng = random.Random(19)
    half = SIDE / 2.0
    for trial in range(200):
        index = SceneIndex(random_scene(rng, rng.randrange(1, 60)))
        subset = sorted(rng.sample(range(len(index.ids)), rng.randrange(len(index.ids) + 1)))
        apex = (rng.uniform(-half, half), rng.uniform(-half, half))
        x0, y0 = rng.uniform(-half, half), rng.uniform(-half, half)
        x1, y1 = x0 + rng.choice([0.0, rng.uniform(0.5, 5.0)]), y0 + rng.uniform(0.5, 5.0)
        if subset and trial % 3 == 0:  # a hull edge on a box's bound: best is exactly 0
            x0, y0, _, x1, y1, _ = index.aabbs[rng.choice(subset)].tolist()
            x0, y0 = rng.choice([(x1, y0), (x0, y1), (x1, y1)])
            x1, y1 = x0 + rng.uniform(0.5, 5.0), y0 + rng.uniform(0.5, 5.0)
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        if trial % 10 == 0:  # a degenerate hull keeps every candidate
            apex, corners = (x0, y0), [(x0, y0)] * 4
        got = index.cull_outside_wedge(np.array(subset, dtype=np.intp), apex, corners)
        assert got.tolist() == per_edge_cull_outside_wedge(index, subset, apex, corners), trial


def test_one_box_scenes():
    rng = random.Random(11)
    for _ in range(40):
        kind, box = _box(rng)
        scene = SceneGraph((SceneNode("only", kind, box),), box, LightLevel.BRIGHT)
        _assert_candidates_match(SceneIndex(scene), rng, 25)


def test_empty_scene_has_no_candidates():
    index = SceneIndex(SceneGraph((), Box3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), LightLevel.BRIGHT))
    assert index.candidates(np.full(3, -np.inf), np.full(3, np.inf), set()) == []
    assert index.entry_distances(np.zeros(3), np.array([[1.0, 0.0, 0.0]]), []).shape == (0, 1)


def test_small_boxes_are_binned_and_wide_ones_listed():
    # the equality tests above only mean something if the grid is in use
    rng = random.Random(5)
    nodes = [SceneNode(f"c-{k}", NodeKind.COLUMN,
                       Box3((rng.uniform(-30, 30), rng.uniform(-30, 30), 1.4), (0.3, 0.3, 1.4),
                            yaw=rng.uniform(0.0, 1.5)))
             for k in range(500)]
    nodes.append(SceneNode("ceiling", NodeKind.CEILING_PANEL, Box3((0, 0, 2.9), (30, 30, 0.1))))
    # a NaN box, which once went to the short list too, cannot be built
    with pytest.raises(ValueError, match="finite"):
        Box3((math.nan, 0, 1), (1, 1, 1))
    index = SceneIndex(SceneGraph(tuple(nodes), nodes[-1].box, LightLevel.BRIGHT))
    wide = [index.ids[k] for k in index._wide]
    assert wide == ["ceiling"]
    lo, hi = np.array([-2.0, -2.0, 0.5]), np.array([2.0, 2.0, 1.0])
    near = index.candidates(lo, hi, set())
    assert near == full_scan_candidates(index.aabbs, lo, hi, set())
    assert 0 < len(near) < 60


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


AXIAL_DIRS = _unit([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.6, 0.8, 0.0], [0.0, -0.6, 0.8], [-0.6, 0.0, 0.8],
    # negative zeros: an unrotated box takes them as they are, where turning
    # the ray by x * 1 + y * 0 gives +0.0
    [-0.0, 1.0, 0.0], [1.0, -0.0, -0.0], [-0.0, -0.0, -1.0], [-0.0, 0.6, -0.8],
    [0.8, -0.0, 0.6], [-0.6, -0.8, -0.0],
])


def test_entry_distances_match_per_box_loop():
    rng = random.Random(17)
    for trial in range(60):
        index = SceneIndex(random_scene(rng, rng.randrange(1, 25)))
        if not index.ids:
            continue
        subset = sorted(rng.sample(range(len(index.ids)), rng.randrange(len(index.ids) + 1)))
        roll = rng.random()
        if roll < 0.3:  # from inside a box (its centre) or on one of its faces
            k = rng.randrange(len(index.ids))
            origin = index.centers[k].copy()
            if roll < 0.15:
                origin[rng.randrange(3)] += index.halves[k][rng.randrange(3)]
        else:
            origin = np.array([rng.uniform(-35, 35), rng.uniform(-35, 35), rng.uniform(-1, 4)])
        dirs = np.concatenate([
            AXIAL_DIRS,
            _unit([[rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 0.3)] for _ in range(40)]),
        ])
        got = index.entry_distances(origin, dirs, subset)
        want = per_box_entry_distances(index, origin, dirs, subset)
        assert got.shape == want.shape == (len(subset), len(dirs))
        assert np.array_equal(got, want), trial
        assert got.tobytes() == want.tobytes(), trial
