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
error, and the node-building synthesis and vehicle placement that the
box-table ones must match the same way (these two build their boxes with
the engine's slab_box, column_box and vehicle_box).  ``ray_intersect`` and ``per_sample_loop`` are the exceptions:
``ray_intersect`` asks the engine's slab test for one ray, so analytic
distances can check it, and ``per_sample_loop``, the sample loop with one
broadphase query per sample, asks the engine's camera, hull, broadphase
query and slab test, each checked on its own, so it checks how the loop
puts them together.  ``emit_sweep`` writes the engine's sweep/1 document
as text, the form the golden digests pin.  ``merge_scene`` is the
``--scene`` merge without re-lighting, from the engine's box tables and
table bounds, the plain merge that the one-copy merge must match.
``build_parser`` is the command line's parser with every command's flags
built and ``parse_command_line`` its parse as the CLI ran it, with a
--config file read once argv parses and applied through argparse's own
actions, and numbers read by its own copy of the command line's number
rule: the bytes and exit codes that the per-command parser must match.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from garagesim.classify import ParkSubtype
from garagesim import __version__
from garagesim.errors import JSON_TOO_DEEP, PlanError, SchemaError
from garagesim.grid import CellKind, Direction
from garagesim.scene import (
    CEILING_HEIGHT, CEILING_THICKNESS, COLUMN_SIZE, FLOOR_THICKNESS, LAMP_SIZE, MARKING_INSET,
    MARKING_THICKNESS, VEHICLE_SIZES, Box3, LightLevel, NodeKind, SceneGraph, SceneNode,
    SynthOptions, column_box, slab_box, vehicle_box,
)
from garagesim.scoring import BLACKOUT_THRESHOLD
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
    for ego, box in pairs(target.box):
        node = SceneNode(target.id, target.kind, box)
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


def _document_box(doc: dict, owner: str) -> Box3:
    def field(name: str):
        if name not in doc:
            raise SchemaError(f"{owner} has no {name}")
        return doc[name]

    try:
        center = tuple(map(float, field("center")))
        half = tuple(map(float, field("half_extents")))
        yaw = float(field("yaw"))
        if not all(map(math.isfinite, (*center, *half, yaw))):
            raise ValueError(f"non-finite value in center {center}, half_extents {half}"
                             f" or yaw {yaw}")
        return Box3(center, half, yaw)
    except (TypeError, ValueError, OverflowError) as exc:
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
        nodes.append(SceneNode(node_id, kind, _document_box(raw, f"node {node_id!r}"), tags))
    bounds_raw = doc.get("bounds")
    if not isinstance(bounds_raw, dict):
        raise SchemaError("scene document is missing its bounds box")
    return SceneGraph(nodes=tuple(nodes), bounds=_document_box(bounds_raw, "bounds"),
                      light_level=level)


# --- scene synthesis, one SceneNode per element ----------------------------------------


def _edges(widths) -> list[float]:
    out = [0.0]
    for w in widths:
        out.append(out[-1] + w)
    return out


def synthesize_nodes(grid, options=SynthOptions()) -> SceneGraph:
    """The engine's earlier synthesis, which made a Box3 and a SceneNode per
    element and a scene from its nodes, in the same order: floor tiles with
    their markings, walls, columns, ceiling panels, ramp markers, lamps."""
    spec = grid.spec
    h = CEILING_HEIGHT
    xs, ys = _edges(spec.col_widths), _edges(spec.row_widths)
    nodes = []
    sites = []
    for i in range(spec.m):
        for j in range(spec.n):
            c = grid.cells[i][j]
            if c.kind is CellKind.OBSTACLE:
                continue
            turns = c.rotation.quarter_turns
            tags = {"cell": f"{i},{j}", "cell_kind": c.kind.name.lower(),
                    "subtype": (c.lane_subtype or c.park_subtype).value,
                    "quarter_turns": str(turns)}
            if c.render_variant is not None:
                tags["variant"] = c.render_variant.value
            floor = slab_box(xs[j], ys[i], xs[j + 1], ys[i + 1], 0.0, FLOOR_THICKNESS)
            nodes.append(SceneNode(f"floor-{i}-{j}", NodeKind.FLOOR_TILE, floor, tags))
            if c.kind.drivable:
                sites.append((floor.center[0], floor.center[1], tags["cell"]))
            half_w = floor.half_extents[0] * (1.0 - 2.0 * MARKING_INSET)
            half_h = floor.half_extents[1] * (1.0 - 2.0 * MARKING_INSET)
            if turns % 2 == 1:
                half_w, half_h = half_h, half_w
            mark = Box3((floor.center[0], floor.center[1],
                         FLOOR_THICKNESS + MARKING_THICKNESS / 2.0),
                        (half_w, half_h, MARKING_THICKNESS / 2.0), turns * (math.pi / 2.0))
            name, kind = (("lane", NodeKind.LANE_MARKING) if c.kind.drivable
                          else ("park", NodeKind.PARKING_MARKING))
            nodes.append(SceneNode(f"mark-{name}-{i}-{j}", kind, mark, dict(tags)))
    for i in range(spec.m):
        j = 0
        while j < spec.n:
            if grid.cells[i][j].kind is not CellKind.OBSTACLE:
                j += 1
                continue
            j0 = j
            while j < spec.n and grid.cells[i][j].kind is CellKind.OBSTACLE:
                j += 1
            nodes.append(SceneNode(f"wall-{i}-{j0}", NodeKind.COLUMN,
                                   slab_box(xs[j0], ys[i], xs[j], ys[i + 1], 0.0, h),
                                   {"structure": "wall", "row": str(i), "cols": f"{j0}-{j - 1}"}))
    for ci in range(1, spec.m):
        for cj in range(1, spec.n):
            touching = [grid.cells[a][b] for a in (ci - 1, ci) for b in (cj - 1, cj)]
            if (ci, cj) in options.prune_columns or all(
                    t.kind is CellKind.OBSTACLE for t in touching):
                continue
            nodes.append(SceneNode(f"col-{ci}-{cj}", NodeKind.COLUMN,
                                   column_box(xs[cj], ys[ci], COLUMN_SIZE, h),
                                   {"corner": f"{ci},{cj}"}))
    for i in range(spec.m):
        nodes.append(SceneNode(f"ceil-{i}", NodeKind.CEILING_PANEL,
                               slab_box(xs[0], ys[i], xs[-1], ys[i + 1], h - CEILING_THICKNESS, h),
                               {"row": str(i)}))
    for i in range(spec.m):
        for j in range(spec.n):
            kind = grid.cells[i][j].kind
            if kind in (CellKind.ENTRANCE, CellKind.EXIT):
                nodes.append(SceneNode(
                    f"ramp-{i}-{j}", NodeKind.RAMP_MARKER,
                    Box3(((xs[j] + xs[j + 1]) / 2.0, (ys[i] + ys[i + 1]) / 2.0,
                          FLOOR_THICKNESS + MARKING_THICKNESS + 0.005),
                         ((xs[j + 1] - xs[j]) / 4.0, (ys[i + 1] - ys[i]) / 4.0, 0.005)),
                    {"cell": f"{i},{j}", "ramp": kind.name.lower()}))
    level = options.light
    count = math.ceil(level.lamp_coverage * len(sites)) if sites else 0
    for k, (x, y, cell) in enumerate(sites[:count]):
        nodes.append(SceneNode(
            "lamp-" + cell.replace(",", "-"), NodeKind.LAMP,
            Box3((x, y, h - CEILING_THICKNESS - LAMP_SIZE[2] / 2.0),
                 (LAMP_SIZE[0] / 2.0, LAMP_SIZE[1] / 2.0, LAMP_SIZE[2] / 2.0)),
            {"cell": cell, "site_index": str(k), "intensity": repr(level.lamp_intensity)}))
    bounds = Box3((xs[-1] / 2.0, ys[-1] / 2.0, h / 2.0), (xs[-1] / 2.0, ys[-1] / 2.0, h / 2.0))
    return SceneGraph(tuple(nodes), bounds, level)


def populate_vehicles_nodes(scene, grid, plan) -> SceneGraph:
    """The engine's earlier populate_vehicles: the scene's nodes and a
    SceneNode per vehicle, checked in the same order, with the bounds
    folded one box at a time."""
    spec = grid.spec
    xs, ys = _edges(spec.col_widths), _edges(spec.row_widths)
    seen = set()
    vehicles = []
    for entry in plan.entries:
        i, j = entry.cell.i, entry.cell.j
        if entry.cell in seen:
            raise PlanError(f"cell ({i},{j}) referenced twice")
        seen.add(entry.cell)
        if not (0 <= i < spec.m and 0 <= j < spec.n):
            raise PlanError(f"cell ({i},{j}) outside the grid")
        if entry.size not in VEHICLE_SIZES:
            raise PlanError(f"unknown vehicle size {entry.size!r}")
        c = grid.cells[i][j]
        type4 = c.park_subtype is ParkSubtype.TYPE4
        if not (c.kind is CellKind.PARKING and not type4) and not entry.force:
            raise PlanError(f"cell ({i},{j}) is {c.kind.name.lower()}"
                            f"{'/type4' if type4 else ''}; use force to place here")
        turns = c.rotation.quarter_turns
        box = vehicle_box(((xs[j] + xs[j + 1]) / 2.0, (ys[i] + ys[i + 1]) / 2.0),
                          entry.size, turns)
        length, width, _ = VEHICLE_SIZES[entry.size]
        foot_x, foot_y = (width, length) if turns % 2 == 0 else (length, width)
        tags = {"cell": f"{i},{j}", "vehicle_size": entry.size,
                "parked": "true" if entry.parked else "false", "color": entry.color,
                "facing": ("north", "east", "south", "west")[turns]}
        if foot_x > xs[j + 1] - xs[j] + 1e-9 or foot_y > ys[i + 1] - ys[i] + 1e-9:
            tags["overhang"] = "true"
        vehicles.append(SceneNode(f"veh-{i}-{j}", NodeKind.VEHICLE, box, tags))
    return SceneGraph(scene.nodes + tuple(vehicles),
                      fold_bounds([scene.bounds, *(v.box for v in vehicles)]), scene.light_level)


# --- sweep/1 text -----------------------------------------------------------------------


def emit_sweep(sw) -> str:
    from garagesim.visibility import sweep_document

    return json.dumps(sweep_document(sw), indent=2, sort_keys=True) + "\n"


# --- the --scene merge without re-lighting -----------------------------------------------


def merge_scene(base: SceneGraph, extra: SceneGraph) -> SceneGraph:
    """The scenario scene plus extra environment, bounded by both and
    bright, made from their box tables: the scenario's rows, then the
    extra ones.  A colliding id, or bounds past BOX_MAX, is a SchemaError."""
    from garagesim.scene import _table_bounds, _table_scene

    tables = base._table, extra._table
    ids = set(tables[0].ids)
    if not ids.isdisjoint(tables[1].ids):
        first = next(node_id for node_id in tables[1].ids if node_id in ids)
        raise SchemaError(f"--scene node id {first!r} collides with the scenario")
    try:
        bounds = _table_bounds(*(table.columns()[4] for table in tables))
    except ValueError as exc:
        raise SchemaError(f"--scene boxes reach too far: {exc}") from exc
    return _table_scene(tables[0] + tables[1], bounds, LightLevel.BRIGHT)


# --- the command line's parser, every command built -------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garagesim",
        description="Garage plan compiler and occlusion analyzer",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="JSON file of flag defaults", default=None)
    parser.add_argument(
        "--seedless", action="store_true",
        help="accepted for scripting symmetry; the pipeline never uses randomness",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "human"), default="human",
        help="stdout payload format where applicable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a plan document")
    p_val.add_argument("spec", help="garage-spec/1 JSON file or CSV directory")

    p_gen = sub.add_parser("generate", help="compile a plan into a scene")
    p_gen.add_argument("spec")
    p_gen.add_argument("--light", choices=[l.value for l in LightLevel], default="bright")
    p_gen.add_argument("--occupancy", help="occupancy-plan/1 JSON file", default=None)
    p_gen.add_argument("--prune-columns", default="",
                       help="corners to drop, e.g. '1,1;2,3'")
    p_gen.add_argument("--out", help="scene file (stdout when omitted)", default=None)
    p_gen.add_argument("--obj", help="also write a box mesh OBJ here", default=None)

    p_scn = sub.add_parser("scenario", help="build and run an occlusion case")
    p_scn.add_argument("--case", required=True, help="1, 2 or 3")
    p_scn.add_argument("--column-setback", type=_number)
    p_scn.add_argument("--lane-width", type=_number)
    p_scn.add_argument("--target-distance", type=_number)
    p_scn.add_argument("--column-offset", type=_number)
    p_scn.add_argument("--lane-distance", type=_number)
    p_scn.add_argument("--layout", default="close:large,far:small",
                       help="case 3 slots, e.g. 'close:large,far:small'")
    p_scn.add_argument("--light", choices=[l.value for l in LightLevel], default="bright")
    p_scn.add_argument("--scene", default=None,
                       help="scene/1 file to merge in as extra environment")
    p_scn.add_argument("--step", type=_number)
    p_scn.add_argument("--fov", type=_number)
    p_scn.add_argument("--mount-height", type=_number)
    p_scn.add_argument("--aspect", type=_number)
    p_scn.add_argument("--weights", default=None, help="w_occ,w_blk,w_lit summing to 1")
    p_scn.add_argument("--blackout-threshold", type=_number, default=BLACKOUT_THRESHOLD)
    p_scn.add_argument("--out", required=True, help="report/1 JSON output path")

    p_sco = sub.add_parser("score", help="re-score an emitted report")
    p_sco.add_argument("report", help="report/1 JSON file")
    p_sco.add_argument("--weights", default=None, help="w_occ,w_blk,w_lit summing to 1")
    p_sco.add_argument("--blackout-threshold", type=_number, default=BLACKOUT_THRESHOLD)

    return parser


def _number(text: str) -> float:
    """The command line's number rule, written out: a float as Python
    spells it, inf and nan too, in ASCII characters only and with no '_'."""
    if any(ord(c) > 127 or c == "_" for c in str(text)):
        raise ValueError(f"not a plain number: {text!r}")
    return float(text)


_number.__name__ = "float"  # the name argparse's usage error gives the type


def _apply_config_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """The JSON config file at path provides flag defaults; flags override it."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid config {path} JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise SchemaError(f"invalid config {path} JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"invalid config {path} JSON: {JSON_TOO_DEEP}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config file must hold a JSON object")
    defaults = {str(k).replace("-", "_"): v for k, v in raw.items()}
    subs = [sub for action in parser._actions
            if isinstance(action, argparse._SubParsersAction) for sub in action.choices.values()]
    flags = [a for p in (parser, *subs) for a in p._actions if a.option_strings
             and isinstance(a, (argparse._StoreAction, argparse._StoreConstAction))]
    unknown = sorted(set(defaults) - {a.dest for a in flags})
    if unknown:
        raise SchemaError(f"no flag for config key(s) {', '.join(map(repr, unknown))}")
    for action in flags:
        if action.dest in defaults:
            defaults[action.dest] = _config_value(action, defaults[action.dest])
    parser.set_defaults(**defaults)
    for sub in subs:
        own = {a.dest for a in sub._actions}
        sub.set_defaults(**{k: v for k, v in defaults.items() if k in own})


def _config_value(action: argparse.Action, value):
    if isinstance(action, argparse._StoreConstAction):
        ok = isinstance(value, bool)
    elif action.type is None:
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    else:
        try:
            value, ok = action.type(value), True
        except (TypeError, ValueError, OverflowError):
            ok = False
    if ok and action.choices is not None:
        ok = value in action.choices
    if not ok:
        raise SchemaError(f"config value {value!r} is not a valid {action.option_strings[0]}")
    return value


def parse_command_line(argv: list[str]) -> tuple[int, argparse.Namespace | None]:
    """The exit code of the command line's parse (0 where it parses) and
    its arguments, printing what the CLI printed on a parse that ends it:
    argv is parsed, and where it names a --config file, parsed again with
    the file's values as defaults."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if isinstance(args.config, str):
            _apply_config_defaults(parser, args.config)
            args = parser.parse_args(argv)
        return 0, args
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except SystemExit as exc:
        return int(exc.code or 0), None
