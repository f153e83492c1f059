import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from garagesim import visibility
from garagesim.errors import OptionError
from garagesim.grid import BOX_MAX
from garagesim.scene import (
    Box3,
    CEILING_HEIGHT,
    FLOOR_THICKNESS,
    LightLevel,
    NodeKind,
    SceneGraph,
    SceneNode,
    _merged,
    vehicle_box,
)
from garagesim.scenario import _scene_from_nodes, target_sweep
from garagesim.visibility import (
    CameraConfig,
    EgoPose,
    Frustum,
    SWEEP_CSV_HEADER,
    make_camera,
    pose_at,
    sample_arclengths,
    sweep,
    sweep_csv,
    sweep_document,
    visible_fraction,
    _face_centers,
    _face_points,
    _face_shape,
    _facings,
    _frustum_verdicts,
    _point_rows,
)
from fixtures_visibility import CFG, EGO, _slab, build_fixtures
from oracles import (
    emit_sweep, face_points, full_scan_candidates, per_box_entry_distances, per_sample_loop,
    ray_intersect,
)

FIXTURES = build_fixtures()


def _face_columns(center, shape) -> tuple[np.ndarray, ...]:
    """Normals, centres and point columns (3, 6, s * s) of the six face
    grids of a box with the given centre and _face_shape."""
    centers = _face_centers(center, shape)
    return shape[0], centers, _face_points(centers, shape, slice(None))


def _faces(box: Box3, s: int) -> tuple[np.ndarray, ...]:
    """Normals, centres and point columns of the box's face grids."""
    return _face_columns(box.center, _face_shape(box.yaw, box.half_extents, s))


def _facing(normals, centers, apex, margin=math.inf) -> list[int]:
    """The faces that face one apex, by _facings."""
    mask = _facings(normals[None], centers[None], np.asarray(apex)[None], np.array([margin]))
    return np.flatnonzero(mask[0]).tolist()


def _verdict(fr: Frustum, aabb) -> tuple[bool | None, float]:
    """_frustum_verdicts of one frustum and box: True (in view), False
    (out of view) or None, and the margin."""
    rows = (np.array([v], dtype=float) for v in (fr.apex, fr.forward, fr.right))
    out, full, margin = _frustum_verdicts(*rows, fr.tan_half_h, fr.tan_half_v,
                                          np.array([aabb], dtype=float))
    return (False if out[0] else True if full[0] else None), float(margin[0])


def simple_scene(extra=()):
    nodes = [
        _slab("floor", NodeKind.FLOOR_TILE, -2, -8, 30, 8, 0.0, FLOOR_THICKNESS),
        SceneNode("veh-t", NodeKind.VEHICLE, vehicle_box((12.0, 0.0), "medium", 1),
                  {"vehicle_size": "medium"}),
        *extra,
    ]
    return _scene_from_nodes(nodes)


def contains_point(fr: Frustum, point: tuple[float, float, float]) -> bool:
    return bool(fr.contains(np.asarray([point], dtype=float))[0])


class TestFrustum:
    def test_half_angle_from_fov(self):
        fr = make_camera(EGO, CameraConfig(horizontal_fov_deg=60.0))
        assert fr.tan_half_h == pytest.approx(math.tan(math.radians(30.0)))
        assert fr.tan_half_v == pytest.approx(math.tan(math.radians(30.0)) / (16 / 9))

    def test_axis_point_inside(self):
        fr = make_camera(EGO, CFG)
        assert contains_point(fr, (25.0, 0.0, fr.apex[2]))
        assert contains_point(fr, (0.5, 0.0, fr.apex[2]))

    def test_bearing_just_outside(self):
        fr = make_camera(EGO, CFG)
        d = 10.0
        inside = (d, d * math.tan(math.radians(29.9)), fr.apex[2])
        outside = (d, d * math.tan(math.radians(30.1)), fr.apex[2])
        assert contains_point(fr, inside)
        assert not contains_point(fr, outside)

    def test_behind_camera(self):
        fr = make_camera(EGO, CFG)
        assert not contains_point(fr, (-1.0, 0.0, fr.apex[2]))

    def test_vertical_limit(self):
        fr = make_camera(EGO, CFG)
        d = 10.0
        v = d * fr.tan_half_v
        assert contains_point(fr, (d, 0.0, fr.apex[2] + v - 1e-6))
        assert not contains_point(fr, (d, 0.0, fr.apex[2] + v + 1e-3))

    def test_heading_rotates_axis(self):
        fr = make_camera(EgoPose((0.0, 0.0), math.pi / 2), CFG)
        assert contains_point(fr, (0.0, 10.0, fr.apex[2]))
        assert not contains_point(fr, (10.0, 0.0, fr.apex[2]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CameraConfig(horizontal_fov_deg=0.0)
        with pytest.raises(ValueError):
            CameraConfig(horizontal_fov_deg=180.0)
        with pytest.raises(ValueError):
            CameraConfig(mount_height=-1.0)
        for bad in (
            {"horizontal_fov_deg": math.nan},
            {"mount_height": 0.0},
            {"mount_height": math.nan},
            {"mount_height": math.inf},
            {"aspect": 0.0},
            {"aspect": math.nan},
            {"aspect": math.inf},
        ):
            with pytest.raises(ValueError):
                CameraConfig(**bad)


class TestRayIntersect:
    def test_axis_hit_distance(self):
        scene = simple_scene()
        hit = ray_intersect(scene, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        # medium vehicle: half length 2.45, centered at x=12
        assert hit is not None
        assert hit[0] == "veh-t"
        assert hit[1] == pytest.approx(12.0 - 2.45)

    def test_miss(self):
        scene = simple_scene()
        assert ray_intersect(scene, (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0)) is None

    def test_nearest_of_two(self):
        near = _slab("near", NodeKind.COLUMN, 4.0, -1.0, 4.5, 1.0, 0.0, 3.0)
        far = _slab("far", NodeKind.COLUMN, 7.0, -1.0, 7.5, 1.0, 0.0, 3.0)
        scene = simple_scene([near, far])
        hit = ray_intersect(scene, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        assert hit == ("near", pytest.approx(4.0))

    def test_ignore_set(self):
        near = _slab("near", NodeKind.COLUMN, 4.0, -1.0, 4.5, 1.0, 0.0, 3.0)
        scene = simple_scene([near])
        hit = ray_intersect(scene, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), ignore={"near"})
        assert hit[0] == "veh-t"

    def test_non_blocking_kinds_pass(self):
        lamp = SceneNode("lamp", NodeKind.LAMP,
                         Box3((5.0, 0.0, 1.0), (0.5, 0.5, 0.5)), {})
        scene = simple_scene([lamp])
        hit = ray_intersect(scene, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        assert hit[0] == "veh-t"

    def test_unit_vector_required(self):
        with pytest.raises(ValueError):
            ray_intersect(simple_scene(), (0, 0, 1), (2.0, 0.0, 0.0))

    def test_oriented_box(self):
        rot = SceneNode(
            "rot", NodeKind.COLUMN,
            Box3((6.0, 0.0, 1.5), (1.0, 0.2, 1.5), yaw=math.pi / 4), {},
        )
        scene = _scene_from_nodes([rot])
        hit = ray_intersect(scene, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        assert hit is not None and hit[0] == "rot"
        # the axis ray enters through the box's slanted thin slab:
        # local o_v = 6/sqrt(2), d_v = -1/sqrt(2) -> t = (o_v - 0.2) * sqrt(2)
        expected = 6.0 - 0.2 * math.sqrt(2.0)
        assert hit[1] == pytest.approx(expected, abs=1e-9)


class TestRayLengths:
    """The sample loop's ray lengths are the bits np.linalg.norm gives."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31, 1152, 8193, 20000])
    def test_bit_equal_to_linalg_norm(self, n):
        rng = np.random.default_rng(n)
        # moderate magnitudes, with some whose squares overflow to inf and
        # some whose squares are subnormal or zero, mixed within rows
        exponent = rng.uniform(-3.0, 3.0, (n, 3))
        pick = rng.random((n, 3))
        exponent[pick < 0.1] = rng.uniform(140.0, 200.0, (n, 3))[pick < 0.1]
        exponent[pick > 0.9] = rng.uniform(-200.0, -140.0, (n, 3))[pick > 0.9]
        rel = rng.normal(size=(n, 3)) * 10.0 ** exponent
        rel[rng.random((n, 3)) < 0.02] = 0.0
        with np.errstate(over="ignore"):
            expected = np.linalg.norm(rel, axis=1)
            got = visibility._lengths(rel)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestFirstHits:
    """The first-hit scan names the row t.argmin(axis=0) names and returns
    the entry its gather does, ties going to the first row, for the slab
    distances it is given: finite entries and inf, never NaN."""

    @staticmethod
    def _assert_matches_argmin(t: np.ndarray) -> None:
        want = t.argmin(axis=0)
        first, best = visibility._first_hits(t)
        assert first.tolist() == want.tolist(), t
        # equal up to the sign of a zero, which no comparison sees
        assert np.array_equal(best, t[want, np.arange(t.shape[1])]), t

    def test_columns_by_hand(self):
        inf = math.inf
        t = np.array([
            # tie, tie later, no hit, a minimum first and last, signed zeros
            [1.0, 2.0, inf, 0.25, 0.5, inf, 0.0],
            [1.0, 1.0, inf, 0.5, 1.0, 0.5, -0.0],
            [2.0, 1.0, inf, 1.0, 0.25, 0.5, 0.0],
        ])
        self._assert_matches_argmin(t)
        assert visibility._first_hits(t)[0].tolist() == [0, 1, 0, 0, 2, 1, 0]

    def test_random_matrices_with_ties_and_misses(self):
        rng = np.random.default_rng(41)
        values = np.array([0.0, -0.0, 0.5, 0.5, 2.0, 3.0, np.inf, np.inf])
        for trial in range(400):
            t = rng.choice(values, size=(rng.integers(1, 9), rng.integers(1, 60)))
            self._assert_matches_argmin(t)


_COORDS = st.floats(-50.0, 50.0)
_YAWS = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, -math.pi / 4, BOX_MAX]),
                  st.floats(-7.0, 7.0))
_TARGET_BOXES = st.builds(Box3, st.tuples(_COORDS, _COORDS, _COORDS),
                          st.tuples(*[st.floats(1e-3, 10.0)] * 3), _YAWS)


@st.composite
def _box_and_apex(draw):
    """A box and an apex: anywhere, or on the plane of one face, reached
    from that face's centre along the face (the facing test's dot product
    is then 0 for an unrotated box, and within rounding of 0 otherwise)."""
    box = draw(_TARGET_BOXES)
    if draw(st.booleans()):
        apex = draw(st.tuples(_COORDS, _COORDS, _COORDS).map(np.array))
        return box, apex
    normals, centers, _ = _faces(box, 1)
    face = draw(st.integers(0, 5))
    along = np.cross(normals[face], [0.0, 0.0, 1.0] if face < 4 else [1.0, 0.0, 0.0])
    return box, centers[face] + along * draw(st.sampled_from([0.0, 1.0, 3.5, -20.0]))


class TestFacePoints:
    @given(_box_and_apex(), st.sampled_from([1, 2, 3, 24]))
    @example((Box3((1.0, 2.0, 0.5), (2.0, 1.0, 0.5)), np.array([3.0, 7.0, 1.65])), 24)
    @example((Box3((1.0, 2.0, 0.5), (2.0, 1.0, 0.5), BOX_MAX), np.zeros(3)), 2)
    @example((Box3((1.0, 2.0, 0.5), (2.0, 1.0, 0.5)), np.array([1.0, 2.0, 0.5])), 3)
    @example((Box3((0.0, 0.0, 1.0), (2.0, 1.0, 1.0)), np.array([2.0, 5.0, 1.0])), 4)
    def test_face_grids_built_once_select_the_per_sample_points(self, box_apex, s):
        # grids built once per box, then filtered per apex, give the points
        # that sampling only the facing faces per apex gave, bit for bit
        box, apex = box_apex
        normals, centers, cols = _faces(box, s)
        got = _point_rows(cols)[_facing(normals, centers, apex)].reshape(-1, 3)
        want = face_points(SceneNode("t", NodeKind.VEHICLE, box), apex, s)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _planes(fr: Frustum) -> list[np.ndarray]:
    """The normals of the frustum's five planes, fwd and fwd * tan -+ lat
    or ver, each positive inside."""
    f, r, u = (np.asarray(v) for v in (fr.forward, fr.right, fr.up))
    th, tv = fr.tan_half_h, fr.tan_half_v
    return [f, f * th - r, f * th + r, f * tv - u, f * tv + u]


def _corners(aabb) -> np.ndarray:
    x0, y0, z0, x1, y1, z1 = aabb
    return np.array([(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)])


def _all_face_points(box: Box3, s: int = 24) -> np.ndarray:
    return _point_rows(_faces(box, s)[2]).reshape(-1, 3)


class TestSettledPerBox:
    """The sample loop settles three things once per target box, not once
    per point: the frustum verdict from the target's AABB, the facing faces
    from Python floats, and the face offsets of a moved target.  Each must
    agree with the per-point code it skips."""

    @staticmethod
    def _check(fr: Frustum, box: Box3):
        verdict, margin = _verdict(fr, box.aabb)
        inside = fr.contains(_all_face_points(box))
        if verdict is not None:
            assert inside.all() if verdict else not inside.any(), (fr, box, verdict)
            assert 0.0 < margin < math.inf
        return verdict

    def test_verdict_agrees_with_view_near_each_plane(self):
        # boxes placed 1e-12 .. 1e-1 inside or outside one of the five
        # planes, near the origin and about 1e6 m out; yaw 0 boxes with a
        # heading that makes a side plane meet the box's x faces head on
        # put whole faces of sample points at the gap
        rng = random.Random(61)
        alpha = math.radians(CFG.horizontal_fov_deg) / 2.0
        aligned = {0: 0.0, 1: math.pi / 2.0 - alpha, 2: alpha - math.pi / 2.0}
        seen = {True: 0, False: 0, None: 0}
        close = {True: 0, False: 0}
        for trial in range(1500):
            plane = rng.randrange(5)
            far_out = trial % 3 == 0
            origin = (1.0e6 + rng.uniform(-5, 5), -1.0e6 + rng.uniform(-5, 5)) if far_out \
                else (rng.uniform(-5, 5), rng.uniform(-5, 5))
            line_up = plane in aligned and rng.random() < 0.5
            heading = aligned[plane] if line_up else rng.uniform(-math.pi, math.pi)
            fr = make_camera(EgoPose(origin, heading), CFG)
            reach = rng.uniform(3.0, 30.0)
            start = np.array(fr.apex) + reach * np.array(fr.forward)
            box = Box3(tuple(start), (rng.uniform(0.2, 2.5), rng.uniform(0.2, 2.5),
                                      rng.uniform(0.2, 1.0)),
                       0.0 if line_up else rng.choice([0.0, math.pi / 2, rng.uniform(-4, 4)]))
            n = _planes(fr)[plane]
            values = (_corners(box.aabb) - np.array(fr.apex)) @ n
            gap = 10.0 ** -rng.randint(1, 12)
            # slide the box along the plane normal: its least value to +gap,
            # or its greatest to -gap
            shift = gap - values.min() if rng.random() < 0.5 else -gap - values.max()
            center = tuple(np.array(box.center) + shift * n / (n @ n))
            moved = Box3(center, box.half_extents, box.yaw)
            verdict = self._check(fr, moved)
            seen[verdict] += 1
            if verdict is not None and gap <= 1e-3:
                close[verdict] += 1
        assert min(seen.values()) > 100 and min(close.values()) > 20, (seen, close)

    def test_apex_inside_the_box_is_undecided(self):
        rng = random.Random(67)
        for trial in range(200):
            origin = (rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6))
            fr = make_camera(EgoPose(origin, rng.uniform(-4, 4)), CFG)
            box = Box3(tuple(np.array(fr.apex) + [rng.uniform(-0.5, 0.5) for _ in range(3)]),
                       (rng.uniform(0.6, 3), rng.uniform(0.6, 3), rng.uniform(0.6, 3)),
                       rng.uniform(-4, 4))
            assert self._check(fr, box) is None

    @pytest.mark.parametrize("aabb", [
        (math.nan, 0.0, 0.0, 1.0, 1.0, 1.0),
        (0.0, 0.0, 0.0, 1.0, math.nan, 1.0),
        (5.0, -1.0, 0.0, math.inf, 1.0, 1.0),
        (-math.inf, -1.0, 0.0, 5.0, 1.0, 1.0),
        (5.0, -math.inf, 0.0, 6.0, math.inf, 1.0),
        # finite corners whose sum, or whose offsets from the apex, overflow
        (1e308, -1.0, 0.0, 1.7e308, 1.0, 1.0),
        (-1e300, -1.0, 0.0, 1e300, 1.0, 1.0),
    ])
    def test_corners_past_the_bound_cannot_be_built(self, aabb):
        # the verdict once had to decide nothing for such corners; no box
        # and no camera that reaches it can hold them now
        x0, y0, z0, x1, y1, z1 = aabb
        with pytest.raises(ValueError, match="finite real numbers below 2"):
            Box3(((x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0),
                 ((x1 - x0) / 2.0, (y1 - y0) / 2.0, (z1 - z0) / 2.0))
        for position in ((-1e308, 0.0), (1e300, -1e300), (2.0**129, 0.0)):
            with pytest.raises(OptionError, match="ego pose must be finite"):
                make_camera(EgoPose(position, 0.0), CFG)
        for cfg in (CameraConfig(mount_height=1e300), CameraConfig(aspect=1e-300)):
            with pytest.raises(OptionError, match="ego pose must be finite"):
                make_camera(EgoPose((0.0, 0.0), 0.0), cfg)

    def test_verdict_sums_stay_finite_at_the_bound(self):
        # the largest box and camera the checks let through: every value the
        # verdict adds up is finite, and so is its margin
        huge = (BOX_MAX, BOX_MAX, BOX_MAX)
        for box in (Box3((BOX_MAX, -BOX_MAX, BOX_MAX), huge, BOX_MAX),
                    Box3((0.0, 0.0, 0.0), huge, 0.7)):
            for fov, aspect in ((60.0, 16.0 / 9.0), (179.999, 1e-7)):
                cfg = CameraConfig(horizontal_fov_deg=fov, aspect=aspect, mount_height=1e38)
                fr = make_camera(EgoPose((-BOX_MAX, BOX_MAX), 1.0), cfg)
                verdict, margin = _verdict(fr, box.aabb)
                assert 0.0 < margin < math.inf and verdict in (True, False, None)

    def test_facing_agrees_with_np_dot_near_each_face_plane(self):
        # apexes on a face's plane or within 1e-12 of it, along the face
        # and off it; margins as the verdict gives them and infinite (every
        # face to np.dot)
        rng = random.Random(71)
        near = decided = 0
        for trial in range(600):
            far_out = trial % 2 == 0
            center = (rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6), rng.uniform(-2, 2)) \
                if far_out else (rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-2, 2))
            box = Box3(center, (rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(0.1, 2)),
                       rng.choice([0.0, -0.0, math.pi / 2, rng.uniform(-7, 7)]))
            normals, centers, _ = _faces(box, 1)
            face = rng.randrange(6)
            along = np.cross(normals[face], [0.0, 0.0, 1.0] if face < 4 else [1.0, 0.0, 0.0])
            off = rng.choice([0.0, 1e-12, -1e-12, 3e-13, -5e-16])
            apex = centers[face] + along * rng.uniform(-30, 30) + normals[face] * off
            want = [f for f in range(6)
                    if not float(np.dot(normals[f], apex - centers[f])) <= 0.0]
            fr = Frustum(tuple(apex.tolist()), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                         math.tan(math.radians(30.0)), 0.3)
            margin = _verdict(fr, box.aabb)[1]
            dots = np.abs(np.einsum("fk,fk->f", normals, apex - centers))
            near += bool(dots[face] <= margin)
            decided += int((dots > margin).sum())
            for m in (margin, math.inf):
                assert _facing(normals, centers, apex, m) == want, (box, apex, m)
        # the face on whose plane the apex sits goes to np.dot, the others
        # are mostly settled from Python floats
        assert near == 600 and decided > 2000, (near, decided)

    def test_cached_offsets_give_fresh_grids_along_bent_paths(self):
        # the moved target's boxes, as target_sweep makes them along bent
        # paths: a shape kept from the last box of the same yaw and half
        # extents gives every face array bit for bit, and the facing points
        # equal the per-sample sampler's
        rng = random.Random(73)
        for trial in range(12):
            half = (rng.uniform(0.8, 1.0), rng.uniform(1.8, 2.6), 0.75)
            corners = [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(4)]
            path = visibility._as_poses(corners)
            s = rng.choice([1, 3, 24])
            key = shape = None
            shapes = 0
            for arc in sample_arclengths(visibility.path_length(path), 7.5):
                pose = pose_at(path, arc)
                box = Box3((*pose.position, 0.75), half, pose.heading + math.pi / 2.0)
                if (box.yaw, math.copysign(1.0, box.yaw), box.half_extents) != key:
                    key = (box.yaw, math.copysign(1.0, box.yaw), box.half_extents)
                    shape, shapes = _face_shape(box.yaw, box.half_extents, s), shapes + 1
                got, fresh = _face_columns(box.center, shape), _faces(box, s)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in fresh]
                apex = np.array([pose.position[0] + 9.0, pose.position[1] - 4.0, 1.65])
                normals, centers, cols = got
                points = _point_rows(cols)[_facing(normals, centers, apex)].reshape(-1, 3)
                want = face_points(SceneNode("t", NodeKind.VEHICLE, box), apex, s)
                assert points.tobytes() == want.tobytes()
            assert shapes <= 3  # one per straight piece of the path
        # the shape key tells a zero yaw's sign: the two zeros' shapes differ
        # in the sign of zero offsets, which reaches a centre at -0.0
        box = Box3((-0.0, -0.0, 0.75), (0.9, 2.2, 0.75), -0.0)
        kept = _face_shape(0.0, box.half_extents, 2)
        assert _face_columns(box.center, kept)[1].tobytes() != _faces(box, 2)[1].tobytes()

    def test_moved_target_builds_its_shape_once_per_straight_piece(self, monkeypatch):
        made = []
        face_shape = visibility._face_shape
        monkeypatch.setattr(visibility, "_face_shape",
                            lambda *args: made.append(args) or face_shape(*args))
        visibility._kept_face_shape.cache_clear()  # shapes kept by earlier tests
        scene = simple_scene()
        path = visibility._as_poses([(12.0, -4.0), (12.0, 0.0), (14.0, 3.0)])
        got = target_sweep(scene, EgoPose((0.0, 0.0), 0.0), path, CFG, "veh-t", 0.5)
        assert all(s.in_frustum for s in got.samples) and len(got.samples) > 10
        assert len(made) == 2
        # kept for the process: the same sweep again builds no shape
        again = target_sweep(scene, EgoPose((0.0, 0.0), 0.0), path, CFG, "veh-t", 0.5)
        assert again == got and len(made) == 2

    def test_kept_face_shapes_are_read_only_and_tell_zero_yaws_apart(self):
        half = (0.9, 2.2, 0.75)
        plus = visibility._kept_face_shape(0.0, 1.0, half, 2)
        minus = visibility._kept_face_shape(-0.0, -1.0, half, 2)
        assert plus is visibility._kept_face_shape(0.0, 1.0, half, 2)
        assert [a.tobytes() for a in plus] == [a.tobytes() for a in _face_shape(0.0, half, 2)]
        assert [a.tobytes() for a in minus] == [a.tobytes() for a in _face_shape(-0.0, half, 2)]
        assert plus[1].tobytes() != minus[1].tobytes()
        for part in plus:
            with pytest.raises(ValueError):
                part[...] = 0.0


def test_a_box_sharing_the_target_id_still_occludes():
    # the index, built from the table or from the merge's columns, takes the
    # first of two equal ids as scene.node does: the target is skipped as an
    # occluder, and the wall after it blocks the view as under its own id
    scene = simple_scene([_slab("veh-t", NodeKind.COLUMN, 6, -8, 7, 8, 0.0, 3.0)])
    for built in (scene, _merged((scene._table,), LightLevel.BRIGHT)):
        assert built.index.ids == ["floor", "veh-t", "veh-t"]
        assert built.index.index_of == {"floor": 0, "veh-t": 1}
        assert visible_fraction(built, EGO, CFG, "veh-t").visible_fraction == 0.0
    other = simple_scene([_slab("wall", NodeKind.COLUMN, 6, -8, 7, 8, 0.0, 3.0)])
    assert visible_fraction(other, EGO, CFG, "veh-t").visible_fraction == 0.0


class TestVisibleFractionFixtures:
    @pytest.mark.parametrize("fx", FIXTURES, ids=[f.name for f in FIXTURES])
    def test_matches_analytic(self, fx):
        got = visible_fraction(fx.scene, EGO, CFG, "veh-t")
        assert got.visible_fraction == pytest.approx(fx.expected, abs=0.05)

    def test_exact_half_is_exact(self):
        fx = next(f for f in FIXTURES if f.name == "half")
        got = visible_fraction(fx.scene, EGO, CFG, "veh-t")
        assert got.visible_fraction == 0.5
        assert got.occluders == (("occ", 0.5),)

    def test_occluder_contributions_sum(self):
        for fx in FIXTURES[:10]:
            s = visible_fraction(fx.scene, EGO, CFG, "veh-t")
            total = s.visible_fraction + sum(c for _, c in s.occluders)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            visible_fraction(simple_scene(), EGO, CFG, "nope")

    def test_infinite_column_is_refused_not_scored_visible(self):
        # a column of infinite half extent between the camera and the vehicle
        # once scored it fully visible: the column's AABB had NaN x bounds,
        # which the broadphase dropped.  Such a box cannot be built now, and
        # a wide finite column hides the vehicle
        with pytest.raises(ValueError, match="finite real numbers below 2"):
            Box3((6.0, 0.0, 1.5), (0.3, math.inf, 1.5))
        column = SceneNode("col", NodeKind.COLUMN, Box3((6.0, 0.0, 1.5), (0.3, 25.0, 1.5)))
        got = visible_fraction(simple_scene([column]), EgoPose((0.0, 0.0), 0.0), CFG, "veh-t")
        assert got.in_frustum and got.visible_fraction == 0.0
        assert got.occluders == (("col", 1.0),)

    def test_non_vehicle_target(self):
        scene = simple_scene()
        with pytest.raises(ValueError, match="not a vehicle"):
            visible_fraction(scene, EGO, CFG, "floor")

    @pytest.mark.parametrize("ego", [
        EgoPose((-math.inf, 0.0), 0.0), EgoPose((0.0, math.nan), 0.0),
        EgoPose((0.0, math.inf), 0.0), EgoPose((0.0, 0.0), math.nan),
        EgoPose((0.0, 0.0), math.inf), EgoPose((0.0, 0.0), -math.inf),
    ])
    def test_non_finite_pose_is_an_option_error(self, ego):
        # a non-finite camera once ran into a RuntimeWarning in the facing
        # test (or math's domain error), which the warning filter fails
        with pytest.raises(OptionError, match="ego pose must be finite"):
            visible_fraction(simple_scene(), ego, CFG, "veh-t")
        with pytest.raises(OptionError, match="ego pose must be finite"):
            sweep(simple_scene(), [ego], CFG, "veh-t", step=0.5)


class TestVisibleFractionProperties:
    def test_convergence_with_sampling_density(self):
        for fx in FIXTURES:
            f24 = visible_fraction(fx.scene, EGO, CFG, "veh-t", samples_per_edge=24)
            f48 = visible_fraction(fx.scene, EGO, CFG, "veh-t", samples_per_edge=48)
            assert abs(f24.visible_fraction - f48.visible_fraction) <= 4 / 24

    def test_occluder_monotonicity(self):
        rng = random.Random(7)
        scene = simple_scene()
        base = visible_fraction(scene, EGO, CFG, "veh-t").visible_fraction
        for k in range(40):
            x = rng.uniform(1.0, 16.0)
            y = rng.uniform(-3.0, 3.0)
            w = rng.uniform(0.1, 1.5)
            h = rng.uniform(0.3, 3.0)
            node = SceneNode(f"occ-{k}", NodeKind.COLUMN,
                             Box3((x, y, h / 2), (w / 2, w / 2, h / 2),
                                  yaw=rng.uniform(0, math.pi)), {})
            bigger = _scene_from_nodes(list(scene.nodes) + [node])
            got = visible_fraction(bigger, EGO, CFG, "veh-t").visible_fraction
            assert got <= base + 1e-12

    def test_mirror_symmetry(self):
        def mirrored(scene: SceneGraph) -> SceneGraph:
            nodes = [
                SceneNode(
                    n.id, n.kind,
                    Box3(
                        (n.box.center[0], -n.box.center[1], n.box.center[2]),
                        n.box.half_extents, -n.box.yaw,
                    ),
                    dict(n.tags),
                )
                for n in scene.nodes
            ]
            return _scene_from_nodes(nodes)

        for fx in FIXTURES[:12]:
            ego = EgoPose((0.0, 0.4), 0.1)
            a = visible_fraction(fx.scene, ego, CFG, "veh-t").visible_fraction
            b = visible_fraction(
                mirrored(fx.scene), EgoPose((0.0, -0.4), -0.1), CFG, "veh-t"
            ).visible_fraction
            assert a == pytest.approx(b, abs=2 / 24)

    def test_zero_when_outside_frustum(self):
        scene = simple_scene()
        behind = visible_fraction(scene, EgoPose((20.0, 0.0), 0.0), CFG, "veh-t")
        assert behind.visible_fraction == 0.0 and not behind.in_frustum
        aside = visible_fraction(scene, EgoPose((12.0, -7.0), math.pi), CFG, "veh-t")
        assert aside.visible_fraction == 0.0 and not aside.in_frustum

    def test_deterministic(self):
        fx = FIXTURES[5]
        a = visible_fraction(fx.scene, EGO, CFG, "veh-t")
        b = visible_fraction(fx.scene, EGO, CFG, "veh-t")
        assert a == b

    def test_yaw_groups_keep_subset_order(self, monkeypatch):
        # candidates [A (yaw 0), Q (yaw pi/2), A' (a copy of A)]: the slab
        # runs A and A' in one pass and Q in another, and each row must go
        # back to its place, so ties name A and Q's own rays name Q
        wall = Box3((6.0, 0.0, 1.0), (0.3, 3.0, 1.0))
        scene = _scene_from_nodes([
            SceneNode("z-a", NodeKind.COLUMN, wall),
            SceneNode("q", NodeKind.COLUMN, Box3((4.0, 0.4, 1.0), (0.2, 0.5, 1.0),
                                                 yaw=math.pi / 2)),
            SceneNode("a-copy", NodeKind.COLUMN, wall),
            SceneNode("veh-t", NodeKind.VEHICLE, Box3((12.0, 0.0, 0.75), (0.9, 2.2, 0.75))),
        ])
        assert scene.index.ids[:3] == ["z-a", "q", "a-copy"]
        got = visible_fraction(scene, EGO, CFG, "veh-t", samples_per_edge=8)
        monkeypatch.setattr(visibility, "_sample_pairs", per_sample_loop)
        assert visible_fraction(scene, EGO, CFG, "veh-t", samples_per_edge=8) == got
        assert {nid for nid, _ in got.occluders} == {"z-a", "q"}

    def test_camera_inside_occluder_blocks_all(self):
        wall = _slab("box", NodeKind.COLUMN, -1.0, -1.0, 1.0, 1.0, 0.0, 3.0)
        scene = simple_scene([wall])
        got = visible_fraction(scene, EGO, CFG, "veh-t")
        assert got.visible_fraction == 0.0 and got.in_frustum

    def test_candidate_culling_matches_brute_force(self):
        # the broadphase must never change the answer, only the cost: the
        # candidate list equals a full scan, and the fraction and the named
        # occluders equal a per-box slab test over every opaque box
        from garagesim.visibility import SceneIndex

        rng = random.Random(41)
        for trial in range(40):
            extras = []
            for k in range(rng.randrange(1, 40)):
                x = rng.uniform(-2.0, 18.0)
                y = rng.uniform(-5.0, 5.0)
                h = rng.uniform(0.2, 3.0)
                extras.append(
                    SceneNode(
                        f"b-{k}", NodeKind.COLUMN,
                        Box3((x, y, h / 2),
                             (rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.2), h / 2),
                             yaw=rng.uniform(0.0, 3.1)),
                        {},
                    )
                )
            if rng.random() < 0.5:  # wider than any grid cell: a wall run
                y = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 6.0)
                extras.append(_slab("wall", NodeKind.COLUMN, -2, y - 0.1, 30, y + 0.1, 0.0,
                                    rng.uniform(0.5, 3.0)))
            if rng.random() < 0.5:  # a ceiling panel spanning the scene
                extras.append(_slab("ceiling", NodeKind.CEILING_PANEL, -2, -8, 30, 8,
                                    rng.uniform(1.2, 2.8), 3.0))
            if rng.random() < 0.3:  # far off the scene
                extras.append(SceneNode("far", NodeKind.COLUMN,
                                        Box3((1e16, 0.0, 1.0), (1.0, 1.0, 1.0)), {}))
            scene = simple_scene(extras)
            ego = EgoPose((rng.uniform(-1, 3), rng.uniform(-2, 2)),
                          rng.uniform(-0.4, 0.4))
            engine = visible_fraction(scene, ego, CFG, "veh-t")

            index = SceneIndex(scene)
            frustum = make_camera(ego, CFG)
            apex = np.asarray(frustum.apex)
            target = scene.node("veh-t")
            skip = {index.index_of["veh-t"]}
            lo = np.minimum(np.asarray(target.box.aabb[:3]), apex)
            hi = np.maximum(np.asarray(target.box.aabb[3:]), apex)
            assert index.candidates(lo, hi, skip) == full_scan_candidates(
                index.aabbs, lo, hi, skip), trial
            points = face_points(target, apex, 24)
            eligible = frustum.contains(points)
            if not eligible.any():
                assert engine.visible_fraction == 0.0
                continue
            pts = points[eligible]
            rel = pts - apex[None, :]
            dist = np.linalg.norm(rel, axis=1)
            dirs = rel / dist[:, None]
            subset = [k for k, nid in enumerate(index.ids) if nid != "veh-t"]
            t = per_box_entry_distances(index, apex, dirs, subset)
            blocked = t.min(axis=0) < dist * (1.0 - 1e-9)
            brute = float((~blocked).sum() / eligible.sum())
            assert engine.visible_fraction == pytest.approx(brute, abs=1e-12), trial
            counts = {}
            for k in np.asarray(subset)[np.argmin(t, axis=0)][blocked].tolist():
                counts[index.ids[k]] = counts.get(index.ids[k], 0) + 1
            named = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            assert engine.occluders == tuple(
                (nid, cnt / int(eligible.sum())) for nid, cnt in named), trial


class TestSweep:
    def test_sample_count_ten_meters(self):
        scene = simple_scene()
        sw = sweep(scene, [(0.0, 0.0), (10.0, 0.0)], CFG, "veh-t", step=0.5)
        assert len(sw.samples) == 21

    def test_degenerate_path_single_sample(self):
        scene = simple_scene()
        sw = sweep(scene, [(0.0, 0.0), (0.3, 0.0)], CFG, "veh-t", step=0.5)
        assert len(sw.samples) == 1
        zero = sweep(scene, [(0.0, 0.0)], CFG, "veh-t", step=0.5)
        assert len(zero.samples) == 1

    def test_empty_scene_all_visible(self):
        scene = _scene_from_nodes([
            SceneNode("veh-t", NodeKind.VEHICLE, vehicle_box((25.0, 0.0), "medium", 1),
                      {"vehicle_size": "medium"}),
        ])
        sw = sweep(scene, [(0.0, 0.0), (10.0, 0.0)], CFG, "veh-t", step=0.5)
        assert all(s.visible_fraction == 1.0 for s in sw.samples)

    def test_positions_spaced_by_step(self):
        scene = simple_scene()
        sw = sweep(scene, [(0.0, 0.0), (4.0, 3.0)], CFG, "veh-t", step=0.5)
        for a, b in zip(sw.samples, sw.samples[1:]):
            d = math.dist(a.ego.position, b.ego.position)
            assert d == pytest.approx(0.5, abs=1e-9)

    def test_heading_follows_tangent(self):
        scene = simple_scene()
        sw = sweep(scene, [(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)], CFG, "veh-t", step=1.0)
        assert sw.samples[0].ego.heading == pytest.approx(0.0)
        assert sw.samples[-1].ego.heading == pytest.approx(math.pi / 2)

    def test_arclengths_rule(self):
        assert sample_arclengths(10.0, 0.5) == [k * 0.5 for k in range(21)]
        assert sample_arclengths(0.3, 0.5) == [0.0]
        assert sample_arclengths(0.0, 0.5) == [0.0]
        with pytest.raises(ValueError):
            sample_arclengths(1.0, 0.0)

    @pytest.mark.parametrize("total, step", [
        (1e308, 0.5),  # total / step overflows to inf
        (1e308, 1.0),  # finite, but ~1e308 samples
        (10.0, 1e-300),
        (1e6, 1.0),  # one past the cap
    ])
    def test_arclengths_cap(self, total, step):
        with pytest.raises(OptionError):
            sample_arclengths(total, step)

    def test_arclengths_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(visibility, "MAX_SWEEP_SAMPLES", 21)
        assert len(sample_arclengths(10.0, 0.5)) == 21
        with pytest.raises(OptionError):
            sample_arclengths(10.5, 0.5)

    def test_pose_at_clamps(self):
        path = (EgoPose((0.0, 0.0), 0.0), EgoPose((2.0, 0.0), 0.0))
        assert pose_at(path, 99.0).position == (2.0, 0.0)

    def test_pose_at_steps_over_a_zero_length_segment(self):
        path = visibility._as_poses([(0.0, 0.0), (0.0, 0.0), (0.0, 4.0)])
        assert pose_at(path, 1.0) == EgoPose((0.0, 1.0), math.pi / 2.0)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="^path needs at least one vertex$"):
            visibility._as_poses([])


class TestSweepExport:
    def test_csv_shape(self):
        scene = simple_scene()
        sw = sweep(scene, [(0.0, 0.0), (2.0, 0.0)], CFG, "veh-t", step=0.5)
        text = sweep_csv(sw)
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(sw.samples)
        # confidence_ext stays empty: rows end with the separator
        assert all(line.endswith(",") for line in lines[1:])
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[4] == "true"

    def test_csv_deterministic(self):
        scene = simple_scene()
        sw = sweep(scene, [(0.0, 0.0), (2.0, 0.0)], CFG, "veh-t", step=0.5)
        assert sweep_csv(sw) == sweep_csv(sw)

    def test_json_mirror(self):
        scene = simple_scene()
        sw = sweep(scene, [(0.0, 0.0), (1.0, 0.0)], CFG, "veh-t", step=0.5)
        doc = sweep_document(sw)
        assert doc["schema"] == "sweep/1"
        assert doc["step_m"] == 0.5
        assert len(doc["samples"]) == 3
        assert doc["samples"][1]["s_m"] == 0.5
        assert emit_sweep(sw) == emit_sweep(sw)
