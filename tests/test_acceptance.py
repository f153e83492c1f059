"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Every expected value here is either computed by an independent oracle
(lookup tables, interval arithmetic, brute-force enumeration) or is a
declared tolerance; nothing is calibrated against the engine's own output.
"""

import gc
import itertools
import json
import math
import random
import time

import numpy as np

import garagesim as g
from garagesim.grid import (
    GarageSpec,
    RULE_CODE_RANGE,
    RULE_COL_COUNT,
    RULE_ROW_COUNT,
)
from garagesim.scene import Box3, LightLevel, NodeKind, SceneNode, vehicle_box
from garagesim.scenario import _scene_from_nodes
from garagesim.visibility import CameraConfig, EgoPose

from conftest import random_spec
from fixtures_visibility import CFG, EGO, _slab, build_fixtures
from oracles import LANE_TABLE, parking_table, period_of

N, E, S, W = (g.Direction.NORTH, g.Direction.EAST, g.Direction.SOUTH, g.Direction.WEST)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --- 1. validation completeness ---------------------------------------------------


def test_c1_validation_completeness():
    rng = random.Random(101)
    t0 = time.perf_counter()

    bad_hits = 0
    for k in range(1000):
        spec = random_spec(rng, max_side=6)
        mode = k % 3
        if mode == 0:  # row vector length mismatch
            widths = spec.row_widths + (5.0,) if k % 2 else spec.row_widths[:-1]
            if not widths:
                widths = spec.row_widths + (5.0,)
            mutated = GarageSpec(spec.structure, widths, spec.col_widths)
            expected = (RULE_ROW_COUNT, "row_widths")
        elif mode == 1:  # column vector length mismatch
            widths = spec.col_widths + (6.0,) if k % 2 else spec.col_widths[:-1]
            if not widths:
                widths = spec.col_widths + (6.0,)
            mutated = GarageSpec(spec.structure, spec.row_widths, widths)
            expected = (RULE_COL_COUNT, "col_widths")
        else:  # out-of-range area code
            while spec.m * spec.n < 2:
                spec = random_spec(rng, max_side=6)
            i = rng.randrange(spec.m)
            j = rng.randrange(spec.n)
            structure = [list(row) for row in spec.structure]
            structure[i][j] = rng.choice((-7, -2, 4, 6, 11))
            if not any(1 <= c <= 3 for r, row in enumerate(structure)
                       for c_, c in enumerate(row) if (r, c_) != (i, j)):
                # keep the plan otherwise clean: some square must stay a lane
                i2, j2 = ((i + 1) % spec.m, j) if spec.m > 1 else (i, (j + 1) % spec.n)
                structure[i2][j2] = 1
            mutated = GarageSpec(
                tuple(tuple(r) for r in structure), spec.row_widths, spec.col_widths
            )
            expected = (RULE_CODE_RANGE, f"cell({i},{j})")
        violations = g.validate(mutated).violations
        assert len(violations) == 1, (expected, violations)
        assert (violations[0].rule, violations[0].location) == expected
        bad_hits += 1

    clean_hits = 0
    for _ in range(1000):
        spec = random_spec(rng, max_side=6)
        rep = g.validate(spec)
        assert rep.ok and rep.violations == ()
        clean_hits += 1

    elapsed = time.perf_counter() - t0
    report(
        "C1 validation completeness",
        bad_hits == 1000 and clean_hits == 1000 and elapsed < 5.0,
        f"{bad_hits} injected violations pinpointed, {clean_hits} clean plans "
        f"accepted, {elapsed:.2f}s (< 5s)",
    )


# --- 2. classifier oracle equivalence ----------------------------------------------

TRUNCATIONS = [
    ((N, E, S, W), (1, 1), (3, 3)),
    ((E, S, W), (0, 1), (2, 3)),
    ((N, E, W), (1, 1), (2, 3)),
    ((N, E, S), (1, 0), (3, 2)),
    ((N, S, W), (1, 1), (3, 2)),
    ((E, S), (0, 0), (2, 2)),
    ((S, W), (0, 1), (2, 2)),
    ((N, E), (1, 0), (2, 2)),
    ((N, W), (1, 1), (2, 2)),
]

LANE_TRUE = (g.CellKind.LANE, g.CellKind.ENTRANCE, g.CellKind.EXIT)
LANE_FALSE = (g.CellKind.OBSTACLE, g.CellKind.PARKING)


def _probe(center, lane_dirs, present, probe, shape, salt=0):
    m, n = shape
    structure = [[-1] * n for _ in range(m)]
    pi, pj = probe
    structure[pi][pj] = center.value
    for k, d in enumerate(present):
        di, dj = d.delta
        pick = LANE_TRUE[(salt + k) % 3] if d in lane_dirs else LANE_FALSE[(salt + k) % 2]
        structure[pi + di][pj + dj] = pick.value
    return GarageSpec(
        tuple(tuple(r) for r in structure),
        tuple(5.0 for _ in range(m)),
        tuple(6.0 for _ in range(n)),
    )


def test_c2_classifier_oracle_equivalence():
    t0 = time.perf_counter()
    cases = 0
    for present, probe, shape in TRUNCATIONS:
        for r in range(len(present) + 1):
            for lane_dirs in itertools.combinations(present, r):
                dirs = frozenset(lane_dirs)
                for kind in g.CellKind:
                    spec = _probe(kind, dirs, present, probe, shape, cases)
                    cell = g.CellRef(*probe)
                    assert g.count_lane_neighbors(spec, cell) == len(dirs)
                    if kind in LANE_TRUE:
                        got = g.classify_lane(spec, cell)
                        assert got.value == LANE_TABLE[len(dirs)]
                    elif kind is g.CellKind.PARKING:
                        got = g.classify_parking(spec, cell)
                        assert got.value == parking_table(dirs)
                    cases += 1
    elapsed = time.perf_counter() - t0
    report(
        "C2 classifier oracle equivalence",
        cases == 5 * sum(2 ** len(p) for p, _, _ in TRUNCATIONS) and elapsed < 1.0,
        f"{cases} kind/pattern/truncation cases match the rule tables, "
        f"{elapsed:.2f}s (< 1s)",
    )


# --- 3. rotation equivariance -------------------------------------------------------


def test_c3_rotation_equivariance():
    rng = random.Random(303)
    t0 = time.perf_counter()
    cells = 0
    for _ in range(200):
        spec = random_spec(rng, max_side=20)
        grid = g.classify_all(spec)
        rotated = g.classify_all(g.rotate_quarter(spec))
        m = spec.m
        for row in grid.cells:
            for cell in row:
                dirs = g.lane_directions(spec, cell.cell)
                period = period_of(dirs)
                turns = cell.rotation.quarter_turns
                expected = 0 if cell.kind is g.CellKind.OBSTACLE else (turns + 1) % period
                image = rotated.cell(cell.cell.j, m - 1 - cell.cell.i)
                assert image.kind == cell.kind
                assert image.lane_adjacency == cell.lane_adjacency
                assert image.lane_subtype == cell.lane_subtype
                assert image.park_subtype == cell.park_subtype
                assert image.render_variant == cell.render_variant
                assert image.rotation.quarter_turns == expected
                cells += 1
    elapsed = time.perf_counter() - t0
    report(
        "C3 rotation equivariance",
        elapsed < 10.0,
        f"{cells} cells over 200 plans commute bit-exactly, {elapsed:.2f}s (< 10s)",
    )


# --- 4. geometry tiling ---------------------------------------------------------------


def test_c4_geometry_tiling():
    rng = random.Random(404)
    t0 = time.perf_counter()
    for _ in range(200):
        spec = random_spec(rng, max_side=20)
        rects = np.array(
            [(r.x0, r.y0, r.x1, r.y1) for _, r in g.layout_cells(g.classify_all(spec))]
        )
        area = ((rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])).sum()
        expected = sum(spec.row_widths) * sum(spec.col_widths)
        assert abs(area - expected) <= 1e-9 * expected
        # pairwise interior disjointness
        ox = np.minimum(rects[:, None, 2], rects[None, :, 2]) - np.maximum(
            rects[:, None, 0], rects[None, :, 0]
        )
        oy = np.minimum(rects[:, None, 3], rects[None, :, 3]) - np.maximum(
            rects[:, None, 1], rects[None, :, 1]
        )
        overlap = (ox > 1e-12) & (oy > 1e-12)
        np.fill_diagonal(overlap, False)
        assert not overlap.any()
    elapsed = time.perf_counter() - t0
    report(
        "C4 geometry tiling",
        elapsed < 30.0,
        f"200 plans tile exactly (area to 1e-9 relative, no interior overlap), "
        f"{elapsed:.2f}s",
    )


# --- 5. visibility accuracy ------------------------------------------------------------


def test_c5_visibility_accuracy():
    t0 = time.perf_counter()
    fixtures = build_fixtures()
    assert len(fixtures) >= 50
    worst_analytic = worst_oracle = 0.0
    half_exact = None
    for fx in fixtures:
        engine = g.visible_fraction(fx.scene, EGO, CFG, "veh-t", samples_per_edge=24)
        oracle = g.visible_fraction(fx.scene, EGO, CFG, "veh-t", samples_per_edge=512)
        da = abs(engine.visible_fraction - fx.expected)
        do = abs(engine.visible_fraction - oracle.visible_fraction)
        worst_analytic = max(worst_analytic, da)
        worst_oracle = max(worst_oracle, do)
        assert da <= 0.05, (fx.name, engine.visible_fraction, fx.expected)
        assert do <= 0.05, (fx.name, engine.visible_fraction, oracle.visible_fraction)
        if fx.name == "half":
            half_exact = engine.visible_fraction
    elapsed = time.perf_counter() - t0
    report(
        "C5 visibility accuracy",
        half_exact == 0.5 and elapsed < 30.0,
        f"{len(fixtures)} fixtures: |engine-analytic| <= {worst_analytic:.3f}, "
        f"|s24-s512| <= {worst_oracle:.3f}, half-cover = {half_exact}, "
        f"{elapsed:.1f}s (< 30s)",
    )


# --- 6. case-1 sweep shape ---------------------------------------------------------------


def test_c6_case1_behavior():
    t0 = time.perf_counter()
    scn = g.build_case1()
    rep = g.run_scenario(scn)
    fr = [s.visible_fraction for s in rep.sweeps["veh-target"].samples]

    start_hidden = fr[0] < 0.3
    clear_from = next(
        (k for k in range(len(fr)) if all(f >= 0.9 for f in fr[k:])), None
    )
    clears = clear_from is not None and clear_from < len(fr) - 1

    pruned = g.Scenario(
        scene=g.remove_node(scn.scene, scn.params["column_id"]),
        ego_path=scn.ego_path,
        target_ids=scn.target_ids,
        label=scn.label,
        params=scn.params,
    )
    fr_pruned = [
        s.visible_fraction for s in g.run_scenario(pruned).sweeps["veh-target"].samples
    ]
    monotone = all(b >= a - 1e-12 for a, b in zip(fr, fr_pruned))
    elapsed = time.perf_counter() - t0
    report(
        "C6 case-1 behavior",
        start_hidden and clears and monotone and elapsed < 5.0,
        f"start {fr[0]:.3f} < 0.3, clears at sample {clear_from} "
        f"(s={clear_from * 0.5:.1f} m), pruning never lowers visibility, "
        f"{elapsed:.2f}s (< 5s)",
    )


# --- 7. case-3 compound ordering ------------------------------------------------------------


def test_c7_case3_compound_ordering():
    t0 = time.perf_counter()
    sizes = ("small", "medium", "large")
    rank = {s: k for k, s in enumerate(sizes)}
    mins = {}
    for occ, tgt in itertools.permutations(sizes, 2):
        rep = g.run_scenario(g.build_case3([("close", occ), ("far", tgt)]))
        sw = rep.sweeps["veh-far"]
        mins[(occ, tgt)] = min(
            s.visible_fraction for s in sw.samples if s.in_frustum
        )
    ordered = True
    strict = 0
    for tgt in sizes:
        lo, hi = sorted((o for o in sizes if o != tgt), key=rank.__getitem__)
        ordered &= mins[(hi, tgt)] <= mins[(lo, tgt)] + 1e-12
        if mins[(hi, tgt)] < mins[(lo, tgt)] - 1e-12:
            strict += 1
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{o}->{t}: {v:.3f}" for (o, t), v in sorted(mins.items()))
    report(
        "C7 case-3 compound ordering",
        ordered and strict >= 1 and elapsed < 10.0,
        f"larger occluders never reveal more ({strict} strict), "
        f"[{detail}], {elapsed:.1f}s (< 10s)",
    )


# --- 8. score monotonicity ---------------------------------------------------------------------


def _random_scenario_scene(rng: random.Random):
    nodes = [
        _slab("floor", NodeKind.FLOOR_TILE, -2, -8, 26, 8, 0.0, 0.05),
        _slab("ceiling", NodeKind.CEILING_PANEL, -2, -8, 26, 8, 2.95, 3.0),
        SceneNode(
            "veh-t", NodeKind.VEHICLE,
            vehicle_box((rng.uniform(10.0, 20.0), rng.uniform(-2.0, 2.0)),
                        rng.choice(("small", "medium", "large")),
                        rng.randrange(4)),
            {"vehicle_size": "small"},
        ),
    ]
    for k in range(rng.randrange(3)):
        x = rng.uniform(2.0, 9.0)
        y = rng.uniform(-3.0, 3.0)
        nodes.append(
            SceneNode(f"col-{k}", NodeKind.COLUMN,
                      Box3((x, y, 1.5), (0.25, 0.25, 1.5), yaw=rng.uniform(0, 3.1)),
                      {}),
        )
    return _scene_from_nodes(nodes)


def test_c8_score_monotonicity():
    rng = random.Random(808)
    t0 = time.perf_counter()
    cfg = CameraConfig()
    dim_strict = True
    for _ in range(100):
        scene = _random_scenario_scene(rng)
        path = [(0.0, rng.uniform(-1.0, 1.0)), (rng.uniform(1.0, 2.0), 0.0)]
        sw = g.sweep(scene, path, cfg, "veh-t", step=0.5)
        base = g.score([sw], LightLevel.BRIGHT)

        extra = SceneNode(
            "extra", NodeKind.COLUMN,
            Box3(
                (rng.uniform(0.0, 22.0), rng.uniform(-6.0, 6.0), rng.uniform(0.5, 1.5)),
                (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0), rng.uniform(0.5, 1.5)),
                yaw=rng.uniform(0.0, 3.1),
            ),
            {},
        )
        bigger_scene = _scene_from_nodes(list(scene.nodes) + [extra])
        sw2 = g.sweep(bigger_scene, path, cfg, "veh-t", step=0.5)
        grown = g.score([sw2], LightLevel.BRIGHT)
        assert grown.total >= base.total - 1e-9

        dim = g.score([sw], LightLevel.DIM)
        dim_strict &= dim.total > base.total
    elapsed = time.perf_counter() - t0
    report(
        "C8 score monotonicity",
        dim_strict and elapsed < 30.0,
        f"100 random scenes: extra occluders never lower the score, dim always "
        f"raises it, {elapsed:.1f}s (< 30s)",
    )


# --- 9. document round-trips ----------------------------------------------------------------------


def test_c9_round_trips():
    rng = random.Random(909)
    t0 = time.perf_counter()

    specs = [random_spec(rng) for _ in range(100)]
    specs.append(GarageSpec(((0, 1, 0), (1, 1, 1), (0, 1, 0)),
                            (5.0, 6.0, 5.0), (5.0, 6.0, 5.0)))
    specs.append(GarageSpec(((2, 1, 3),), (5.5,), (6.0, 6.25, 6.0)))
    for spec in specs:
        text = g.emit_garage_spec(spec)
        again = g.emit_garage_spec(g.parse_garage_spec(text))
        assert again == text

    scene_count = 0
    for k in range(10):
        spec = random_spec(rng)
        grid = g.classify_all(spec)
        level = list(LightLevel)[k % 4]
        scene = g.synthesize(grid, g.SynthOptions(light=level))
        park_cells = [
            c.cell for row in grid.cells for c in row
            if c.park_subtype and c.park_subtype.value != "type4"
        ]
        if park_cells:
            plan = g.OccupancyPlan((g.PlanEntry(park_cells[0], "medium"),))
            scene = g.populate_vehicles(scene, grid, plan)
        text = g.export_scene(scene)
        assert g.export_scene(g.import_scene(text)) == text
        scene_count += 1
    for scn in (g.build_case1(), g.build_case2(),
                g.build_case3([("close", "large"), ("far", "small")])):
        text = g.export_scene(scn.scene)
        assert g.export_scene(g.import_scene(text)) == text
        scene_count += 1

    elapsed = time.perf_counter() - t0
    report(
        "C9 document round-trips",
        True,
        f"{len(specs)} plan docs and {scene_count} scene docs byte-stable, "
        f"{elapsed:.1f}s",
    )


# --- 10. desk-scale performance ----------------------------------------------------------------------


def test_c10_performance():
    n = 200
    doc = g.emit_garage_spec(
        GarageSpec(
            tuple(
                tuple(
                    1 if (i % 3 == 0 or j % 3 == 0) else (0 if (i + j) % 7 else -1)
                    for j in range(n)
                )
                for i in range(n)
            ),
            tuple(5.0 for _ in range(n)),
            tuple(6.0 for _ in range(n)),
        )
    )
    gc.collect()
    t0 = time.perf_counter()
    spec = g.parse_garage_spec(doc)
    assert g.validate(spec).ok
    scene = g.synthesize(g.classify_all(spec))
    build_time = time.perf_counter() - t0
    # nodes are built on each access: count them once
    node_count = len(scene.nodes)
    assert node_count > 100_000

    # 1000-sample sweep through a ~500-node garage
    spec2 = GarageSpec(
        tuple(tuple(1 for _ in range(12)) for _ in range(12)),
        tuple(6.0 for _ in range(12)),
        tuple(6.0 for _ in range(12)),
    )
    scene2 = g.synthesize(g.classify_all(spec2))
    target = SceneNode(
        "veh-x", NodeKind.VEHICLE, vehicle_box((36.0, 39.0), "medium", 1),
        {"vehicle_size": "medium"},
    )
    scene2 = g.SceneGraph(
        nodes=scene2.nodes + (target,), bounds=scene2.bounds,
        light_level=scene2.light_level,
    )
    assert len(scene2.nodes) >= 500
    path = [(2.0, 3.0)]
    y = 3.0
    for leg in range(8):
        path.append((70.0 if leg % 2 == 0 else 2.0, y))
        y += 6.0
        path.append((path[-1][0], y))
    gc.collect()
    t0 = time.perf_counter()
    sw = g.sweep(scene2, path, CameraConfig(), "veh-x", step=0.5)
    sweep_time = time.perf_counter() - t0
    assert len(sw.samples) >= 1000

    report(
        "C10 desk-scale performance",
        build_time < 2.0 and sweep_time < 5.0,
        f"200x200 build {build_time:.2f}s (< 2s, {node_count} nodes); "
        f"{len(sw.samples)}-sample sweep in {len(scene2.nodes)}-node scene "
        f"{sweep_time:.2f}s (< 5s)",
    )
