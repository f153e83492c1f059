"""Independent reference implementations used to check the engine.

Everything here is written from scratch against the rules, or is the
engine's earlier plain-loop version of a step kept as its reference, and
does not call back into the package internals: lookup tables for the
subtype rules, an interval-arithmetic shadow model for single-occluder
visibility, a 2D segment/rectangle blocker for full-height columns, the
per-face sample grid of a target box, plain one-box-at-a-time versions of
the scene index's AABB broadphase and slab test, which read only the
index's box arrays, the wedge cull one hull edge at a time, the Python
fold of scene bounds, the quadratic ``clears_from`` scan, and the scene/1
document as a dict that ``json.dumps(indent=2, sort_keys=True)`` writes,
which the scene writer must match byte for byte, and the two-pass scene/1
reader that the one-pass reader must match scene for scene and error for
error.  ``ray_intersect`` and ``per_sample_loop`` are the exceptions:
``ray_intersect`` asks the engine's slab test for one ray, so analytic
distances can check it, and ``per_sample_loop``, the sample loop with one
broadphase query per sample, asks the engine's camera, hull, broadphase
query and slab test, each checked on its own, so it checks how the loop
puts them together.  ``emit_sweep`` writes the engine's sweep/1 document
as text, the form the golden digests pin.
"""

from __future__ import annotations

import json
import math

import numpy as np

from garagesim.errors import SchemaError
from garagesim.grid import Direction
from garagesim.scene import Box3, LightLevel, NodeKind, SceneGraph, SceneNode
from garagesim.visibility import VisibilitySample, _hull_2d, make_camera

N, E, S, W = Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST

# --- subtype rule transcriptions -------------------------------------------------

LANE_TABLE = {
    4: "crossroads",
    3: "t-junction",
    2: "straight",
    1: "straight",
    0: "straight",
}

_OPPOSITE = ({N, S}, {E, W})


def parking_table(dirs: frozenset[Direction]) -> str:
    cnt = len(dirs)
    if cnt >= 3:
        return "type1"
    if cnt == 2:
        return "type1" if set(dirs) in _OPPOSITE else "type2"
    if cnt == 1:
        return "type3"
    return "type4"


# Canonical open-edge sets at rotation 0, rotated k quarter-turns by mapping
# each direction d -> (d + k) % 4.
CANONICAL_OPEN = {
    ("crossroads", None): {N, E, S, W},
    ("t-junction", None): {N, E, W},
    ("straight", "axis"): {N, S},
    ("straight", "corner"): {N, E},
    ("straight", "dead-end"): {N},
}


def rotated_dirs(dirs: set[Direction], k: int) -> set[Direction]:
    return {Direction((d + k) % 4) for d in dirs}


def period_of(dirs: frozenset[Direction]) -> int:
    for k in (1, 2):
        if rotated_dirs(set(dirs), k) == set(dirs):
            return k
    return 4


# --- analytic single-occluder shadow model ---------------------------------------


def interval_overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def analytic_blocked_fraction(
    apex: tuple[float, float, float],
    face_x: float,
    face_y: tuple[float, float],
    face_z: tuple[float, float],
    occ_x: tuple[float, float],
    occ_y: tuple[float, float],
    occ_z: tuple[float, float],
) -> float:
    """Blocked fraction of an axis-aligned target face behind one box.

    Valid when the occluder spans the full shadow extent on one axis (the
    usual fixtures: full-height columns or full-width walls), so blocking
    reduces to one interval on the other axis.  A face point p is blocked
    iff some x in [occ_x] has the ray's y and z inside the occluder there;
    with one axis fully covered this is an interval with the near edge
    scaled by the far plane and vice versa.
    """
    ax, ay, az = apex
    depth = face_x - ax
    x0, x1 = occ_x
    d0, d1 = x0 - ax, x1 - ax
    assert 0 < d0 <= d1 < depth, "occluder must sit strictly between apex and face"

    def axis_interval(lo: float, hi: float, a_lat: float) -> tuple[float, float]:
        # p such that the ray crosses [lo, hi] laterally somewhere in [d0, d1]
        lo_rel, hi_rel = lo - a_lat, hi - a_lat
        p_lo = lo_rel * depth / (d1 if lo_rel >= 0 else d0)
        p_hi = hi_rel * depth / (d0 if hi_rel >= 0 else d1)
        return a_lat + p_lo, a_lat + p_hi

    # does the occluder cover every crossing z for rays into the face?
    z_span = axis_interval(occ_z[0], occ_z[1], az)
    covers_z = z_span[0] <= face_z[0] and z_span[1] >= face_z[1]
    y_span = axis_interval(occ_y[0], occ_y[1], ay)
    covers_y = y_span[0] <= face_y[0] and y_span[1] >= face_y[1]
    assert covers_z or covers_y, "fixture must fully cover one axis"

    if covers_z:
        frac = interval_overlap(*face_y, *y_span) / (face_y[1] - face_y[0])
    else:
        frac = interval_overlap(*face_z, *z_span) / (face_z[1] - face_z[0])
    return frac


# --- 2D full-height column blocker ------------------------------------------------


def segment_crosses_rect(
    p0: tuple[float, float],
    p1: tuple[float, float],
    rect: tuple[float, float, float, float],
) -> bool:
    """Exact 2D segment vs axis-aligned rectangle test by interval clipping."""
    x0, y0, x1, y1 = rect
    t_lo, t_hi = 0.0, 1.0
    for (a, b, lo, hi) in ((p0[0], p1[0], x0, x1), (p0[1], p1[1], y0, y1)):
        d = b - a
        if abs(d) < 1e-15:
            if not (lo <= a <= hi):
                return False
            continue
        ta, tb = (lo - a) / d, (hi - a) / d
        if ta > tb:
            ta, tb = tb, ta
        t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
        if t_lo > t_hi:
            return False
    return True


def column_shadow_fraction(
    apex: tuple[float, float, float],
    tan_half_h: float,
    tan_half_v: float,
    heading: float,
    face_points: list[tuple[float, float, float]],
    column_rects: list[tuple[float, float, float, float]],
) -> tuple[float, bool]:
    """Visible fraction of pre-sampled target points behind full-height
    columns, using angle-based frustum math (independent of the engine)."""
    fx, fy = math.cos(heading), math.sin(heading)
    eligible = []
    for (px, py, pz) in face_points:
        dx, dy, dz = px - apex[0], py - apex[1], pz - apex[2]
        fwd = dx * fx + dy * fy
        if fwd <= 0:
            continue
        lat = -dx * fy + dy * fx
        if abs(lat) > fwd * tan_half_h or abs(dz) > fwd * tan_half_v:
            continue
        eligible.append((px, py))
    if not eligible:
        return 0.0, False
    visible = 0
    for (px, py) in eligible:
        if not any(
            segment_crosses_rect((apex[0], apex[1]), (px, py), rect)
            for rect in column_rects
        ):
            visible += 1
    return visible / len(eligible), True


def box_face_points(
    center: tuple[float, float, float],
    half: tuple[float, float, float],
    yaw: float,
    apex: tuple[float, float, float],
    n: int = 16,
) -> list[tuple[float, float, float]]:
    """Sample each camera-facing face of an oriented box on an n x n grid."""
    c, s = math.cos(yaw), math.sin(yaw)
    axes = ((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))
    pts = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            nx, ny, nz = (axes[axis][k] * sign for k in range(3))
            fc = tuple(center[k] + (nx, ny, nz)[k] * half[axis] for k in range(3))
            to_apex = tuple(apex[k] - fc[k] for k in range(3))
            if nx * to_apex[0] + ny * to_apex[1] + nz * to_apex[2] <= 0:
                continue
            a1, a2 = axes[(axis + 1) % 3], axes[(axis + 2) % 3]
            h1, h2 = half[(axis + 1) % 3], half[(axis + 2) % 3]
            for i in range(n):
                u = ((i + 0.5) / n * 2 - 1) * h1
                for j in range(n):
                    v = ((j + 0.5) / n * 2 - 1) * h2
                    pts.append(
                        tuple(fc[k] + u * a1[k] + v * a2[k] for k in range(3))
                    )
    return pts


def face_points(node, apex: np.ndarray, s: int) -> np.ndarray:
    """Sample points on every camera-facing face of the node's box, (P, 3),
    face by face (+u, -u, +v, -v, +w, -w), each an s x s grid at cell
    centers: the engine's per-sample face sampler before its face grids
    were built once per box."""
    box = node.box
    c, sn = math.cos(box.yaw), math.sin(box.yaw)
    u = np.array([c, sn, 0.0])
    v = np.array([-sn, c, 0.0])
    w = np.array([0.0, 0.0, 1.0])
    axes = (u, v, w)
    center = np.asarray(box.center)
    half = box.half_extents
    ticks = (np.arange(s) + 0.5) / s * 2.0 - 1.0  # cell centers in [-1, 1]
    faces = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            normal = axes[axis] * sign
            face_center = center + normal * half[axis]
            if float(np.dot(normal, apex - face_center)) <= 0.0:
                continue
            a1, a2 = (axes[(axis + 1) % 3], axes[(axis + 2) % 3])
            h1, h2 = half[(axis + 1) % 3], half[(axis + 2) % 3]
            g1, g2 = np.meshgrid(ticks * h1, ticks * h2, indexing="ij")
            pts = (
                face_center[None, :]
                + g1.reshape(-1, 1) * a1[None, :]
                + g2.reshape(-1, 1) * a2[None, :]
            )
            faces.append(pts)
    if not faces:
        return np.zeros((0, 3))
    return np.concatenate(faces, axis=0)


# --- scene index: full-scan broadphase and per-box slab test ----------------------


def full_scan_candidates(aabbs: np.ndarray, lo, hi, skip) -> list[int]:
    """Every box whose AABB meets [lo, hi] shrunk by 1e-9, found by testing
    all of them, in ascending index order."""
    hit = np.all(aabbs[:, :3] < hi - 1e-9, axis=1) & np.all(aabbs[:, 3:] > lo + 1e-9, axis=1)
    return [k for k in np.nonzero(hit)[0].tolist() if k not in skip]


def per_box_entry_distances(index, origin: np.ndarray, dirs: np.ndarray, subset) -> np.ndarray:
    """Entry distance of each unit ray into each subset box (inf on a miss),
    one box at a time: the ray goes into the box frame and meets its three
    slabs in turn."""
    nrays = dirs.shape[0]
    out = np.full((len(subset), nrays), np.inf)
    for row, k in enumerate(subset):
        c, s = index.cos_yaw[k], index.sin_yaw[k]
        rel = origin - index.centers[k]
        # local frame: u = (c, s), v = (-s, c), w = z
        o_local = (
            rel[0] * c + rel[1] * s,
            -rel[0] * s + rel[1] * c,
            rel[2],
        )
        d_local = np.stack(
            [
                dirs[:, 0] * c + dirs[:, 1] * s,
                -dirs[:, 0] * s + dirs[:, 1] * c,
                dirs[:, 2],
            ],
            axis=1,
        )
        t_lo = np.full(nrays, -np.inf)
        t_hi = np.full(nrays, np.inf)
        ok = np.ones(nrays, dtype=bool)
        for axis in range(3):
            o, h = o_local[axis], index.halves[k][axis]
            d = d_local[:, axis]
            zero = np.abs(d) < 1e-15
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-h - o) / d
                t2 = (h - o) / d
            lo_a = np.minimum(t1, t2)
            hi_a = np.maximum(t1, t2)
            if zero.any():
                inside = abs(o) <= h
                lo_a = np.where(zero, -np.inf if inside else np.inf, lo_a)
                hi_a = np.where(zero, np.inf if inside else -np.inf, hi_a)
            t_lo = np.maximum(t_lo, lo_a)
            t_hi = np.minimum(t_hi, hi_a)
            ok &= hi_a >= lo_a
        entry = np.maximum(t_lo, 0.0)
        hit = ok & (t_hi >= entry)
        out[row, hit] = entry[hit]
    return out


def ray_intersect(scene, origin, direction, ignore=frozenset()):
    """Nearest opaque node hit by a unit ray, as (id, distance), or None,
    from the scene index's slab test.  Lamps and markings never block;
    nodes listed in ignore are skipped."""
    index = scene.index
    subset = [k for k in range(len(index.ids)) if index.ids[k] not in ignore]
    if not subset:
        return None
    dirs = np.asarray([direction], dtype=float)
    norm = float(np.linalg.norm(dirs))
    if not math.isclose(norm, 1.0, rel_tol=1e-6):
        raise ValueError(f"direction must be a unit vector, |d|={norm}")
    t = index.entry_distances(np.asarray(origin, dtype=float), dirs, subset)[:, 0]
    best = int(np.argmin(t))
    if not np.isfinite(t[best]):
        return None
    return index.ids[subset[best]], float(t[best])


# --- the sample loop with one broadphase query per sample ----------------------------


def per_edge_cull_outside_wedge(index, subset: list[int], apex_xy, corners_xy) -> list[int]:
    """The wedge cull one hull edge at a time: candidates whose AABB lies
    fully behind an edge of the 2D hull of apex + target corners dropped."""
    if not subset:
        return subset
    hull = _hull_2d([apex_xy] + corners_xy)
    if len(hull) < 3:
        return subset
    idx = np.asarray(subset)
    x0, y0 = index.aabbs[idx, 0], index.aabbs[idx, 1]
    x1, y1 = index.aabbs[idx, 3], index.aabbs[idx, 4]
    keep = np.ones(len(subset), dtype=bool)
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        nx, ny = -(by - ay), bx - ax
        best = (np.where(nx > 0, x1, x0) - ax) * nx + (
            np.where(ny > 0, y1, y0) - ay
        ) * ny
        keep &= best > 0.0
    return [subset[k] for k in np.nonzero(keep)[0].tolist()]


def per_sample_loop(scene, target_id, pairs, cfg, samples_per_edge, ignore_ids):
    """The engine's sample loop before its broadphase ran once per stretch of
    samples, in _sample_pairs' signature: per sample, the face points
    sampled afresh, one candidates() query of the camera and target range,
    the wedge cull edge by edge, ray lengths from np.linalg.norm, the
    nearest box from min and argmin, and occluders tallied with np.unique."""
    index = scene.index
    target = scene.node(target_id)
    skip = {index.index_of[i] for i in (set(ignore_ids) | {target_id}) if i in index.index_of}
    samples = []
    for ego, node in pairs(target):
        frustum = make_camera(ego, cfg)
        apex = np.asarray(frustum.apex)
        points = face_points(node, apex, samples_per_edge)
        eligible = frustum.contains(points)
        total = int(eligible.sum())
        if total == 0:
            samples.append(VisibilitySample(ego, node.id, 0.0, False, ()))
            continue
        pts = points[eligible]
        rel = pts - apex[None, :]
        dist = np.linalg.norm(rel, axis=1)
        dirs = rel / dist[:, None]
        t_aabb = node.box.aabb
        lo = np.minimum(np.asarray(t_aabb[:3]), apex)
        hi = np.maximum(np.asarray(t_aabb[3:]), apex)
        subset = per_edge_cull_outside_wedge(
            index, index.candidates(lo, hi, skip), (float(apex[0]), float(apex[1])),
            [(t_aabb[0], t_aabb[1]), (t_aabb[3], t_aabb[1]),
             (t_aabb[3], t_aabb[4]), (t_aabb[0], t_aabb[4])],
        )
        occluders, visible = (), total
        if subset:
            t = index.entry_distances(apex, dirs, subset)
            blocked = t.min(axis=0) < dist * (1.0 - 1e-9)
            visible = int((~blocked).sum())
            who = np.asarray(subset)[np.argmin(t, axis=0)[blocked]]
            hits, counts = np.unique(who, return_counts=True)
            contrib = sorted(((index.ids[k], cnt) for k, cnt in zip(hits.tolist(), counts.tolist())),
                             key=lambda kv: (-kv[1], kv[0]))
            occluders = tuple((nid, cnt / total) for nid, cnt in contrib)
        samples.append(VisibilitySample(ego, node.id, visible / total, True, occluders))
    return tuple(samples)


# --- scene bounds and sweep stats as plain loops -----------------------------------


def fold_bounds(boxes) -> Box3:
    """Axis-aligned box around the world AABBs of the given boxes, folded
    one box at a time with Python's min and max (which keep the running
    bound over a NaN)."""
    lo = [math.inf] * 3
    hi = [-math.inf] * 3
    for b in boxes:
        a = b.aabb
        lo = [min(lo[k], a[k]) for k in range(3)]
        hi = [max(hi[k], a[k + 3]) for k in range(3)]
    return Box3(
        center=tuple((lo[k] + hi[k]) / 2.0 for k in range(3)),
        half_extents=tuple(max((hi[k] - lo[k]) / 2.0, 1e-9) for k in range(3)),
    )


def clears_from(fracs: list[float], step: float) -> float | None:
    """Arc length of the first sample from which every visible fraction is
    at least 0.9, or None: each start index tested against all the rest."""
    for k in range(len(fracs)):
        if all(f >= 0.9 for f in fracs[k:]):
            return k * step
    return None


# --- scene/1 documents through json -------------------------------------------------


def scene_document(scene) -> dict:
    def box(b):
        return {"center": list(b.center), "half_extents": list(b.half_extents), "yaw": b.yaw}

    return {
        "schema": "scene/1",
        "light_level": scene.light_level.value,
        "bounds": box(scene.bounds),
        "origin": [0.0, 0.0, 0.0],
        "nodes": [
            {"id": n.id, "kind": n.kind.value, **box(n.box), "tags": dict(sorted(n.tags.items()))}
            for n in scene.nodes
        ],
    }


def scene_json(scene) -> str:
    """scene/1 text as json's pure-Python indent encoder writes it."""
    return json.dumps(scene_document(scene), indent=2, sort_keys=True) + "\n"


def _document_box(doc: dict) -> Box3:
    try:
        center = tuple(map(float, doc["center"]))
        half = tuple(map(float, doc["half_extents"]))
        yaw = float(doc["yaw"])
        if not all(map(math.isfinite, (*center, *half, yaw))):
            raise ValueError(f"non-finite value in center {center}, half_extents {half}"
                             f" or yaw {yaw}")
        return Box3(center, half, yaw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad box: {exc}") from exc


_DRIVABLE_CELL_KINDS = frozenset({"lane", "entrance", "exit"})


def import_scene_two_pass(text: str) -> SceneGraph:
    """The engine's earlier scene/1 reader: the whole document parsed to
    dicts first, then one loop over its nodes.  Its errors are the ones the
    one-pass reader must give, except where this one fails on an input
    that is not made of JSON objects (an AttributeError or TypeError)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid scene JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != "scene/1":
        raise SchemaError(f"expected schema 'scene/1', got {doc.get('schema')!r}")
    try:
        level = LightLevel(doc["light_level"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad light_level: {exc}") from exc
    kinds = {k.value: k for k in NodeKind}
    nodes = []
    seen: set[str] = set()
    for raw in doc.get("nodes", []):
        node_id = raw.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise SchemaError("node without a string id")
        if node_id in seen:
            raise SchemaError(f"duplicate node id {node_id!r}")
        seen.add(node_id)
        kind_raw = raw.get("kind")
        try:
            kind = kinds.get(kind_raw)
        except TypeError:
            kind = None
        if kind is None:
            raise SchemaError(f"unknown node kind {kind_raw!r}")
        tags = raw.get("tags", {})
        if type(tags) is not dict or not all(type(v) is str for v in tags.values()):
            raise SchemaError(f"node {node_id!r} tags must map strings to strings")
        if (kind is NodeKind.FLOOR_TILE and tags.get("cell_kind") in _DRIVABLE_CELL_KINDS
                and "cell" not in tags):
            raise SchemaError(f"floor tile {node_id!r} of a drivable cell has no cell tag")
        nodes.append(SceneNode(node_id, kind, _document_box(raw), tags))
    bounds_raw = doc.get("bounds")
    if not isinstance(bounds_raw, dict):
        raise SchemaError("scene document is missing its bounds box")
    return SceneGraph(nodes=tuple(nodes), bounds=_document_box(bounds_raw), light_level=level)


# --- sweep/1 text -----------------------------------------------------------------------


def emit_sweep(sw) -> str:
    from garagesim.visibility import sweep_document

    return json.dumps(sweep_document(sw), indent=2, sort_keys=True) + "\n"
