"""Golden bytes: SHA-256 digests of CLI outputs on a fixed input set.

Pins every byte of the scenario reports and per-target CSVs, a generated
scene/1 document with its OBJ mesh, the CSV line of ``score``, and the
sweep/1 documents of four sweeps through a garage of a few thousand opaque
boxes, so a refactor that claims equal output is checked against the
output itself.  The sweep/1 documents name each sample's occluders, and
the large garage is where a broadphase has cells to get wrong.  Two more
digests pin the classifier and the synthesizer on their own: the
classified-grid/1 documents of seeded random plans that between them meet
every (cell kind, drivable-neighbour set) pair, and the scene/1 document
``generate --light moderate`` makes of a 12 x 12 plan with obstacles, an
entrance, an exit and parked vehicles (lamp sites, markings and ramp
markers).  The scene/1 bytes of the acceptance test's 200 x 200 plan
(``C10_SCENE``, 139,587 nodes) pin the exporter on a scene of full size.
The digests were taken on x86-64 Linux with CPython 3.11 and numpy 2.4; a
different libm can move a float's last bit and so every digest.
Print the current digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from garagesim.classify import classify_all, emit_classified_grid, lane_directions
from garagesim.cli import main
from garagesim.grid import CellRef, Direction, GarageSpec, emit_garage_spec
from garagesim.scene import (
    OccupancyPlan, PlanEntry, export_scene, populate_vehicles, synthesize,
)
from garagesim.visibility import CameraConfig, sweep
from conftest import random_spec
from oracles import emit_sweep

# laid over cases 2 and 3 so its wall, columns and vehicles cut sight lines
PLAN = GarageSpec(((1, 1, 1), (0, 0, -1)), (3.0, 3.0), (3.0, 3.0, 3.0))
OCCUPANCY = {
    "schema": "occupancy-plan/1",
    "entries": [{"cell": [1, 0], "size": "small"}, {"cell": [1, 1], "size": "large"}],
}

# case name -> scenario argv without --out; "{scene}" is the generated garage
SCENARIOS = {
    "case1": ["--case", "1"],
    "case1-dim": ["--case", "1", "--light", "dim"],
    "case1-step": ["--case", "1", "--step", "0.3", "--target-distance", "20"],
    # drives past its target: samples in view, straddling the frustum and out of it
    "case1-past": ["--case", "1", "--column-setback", "20", "--target-distance", "10"],
    "case2": ["--case", "2"],
    "case2-step": ["--case", "2", "--step", "0.3", "--column-offset", "3"],
    "case2-scene": ["--case", "2", "--scene", "{scene}"],
    "case3": ["--case", "3"],
    "case3-three": ["--case", "3", "--layout", "close:large,medium:medium,far:small",
                    "--light", "moderate"],
    "case3-scene": ["--case", "3", "--scene", "{scene}", "--light", "dim"],
}

GOLDEN = {
    "generate": "fc8fbaeea6d8296b25a85453fb0b4555add5308fa9b457e6346d24ae76375792",
    "case1": "bd84eda45890dafc16ef7f1cbd51a0f8e0a42a9a003d9790ae9a00c48cddb86d",
    "case1-dim": "213900b9a90716eb395eba70291759d129eed79104c313d03ab68c6dfd25cf4a",
    "case1-step": "6298a67e8d607e1b4fd3724bded5874cc83b749a13788787b82485eea4f8609a",
    "case1-past": "7008fbcd4c37908757c72565544c1ea2a21ecf9d7342a2bed79a656005a98f40",
    "case2": "d4e8ba354e9f02e8404fab00fcbd48989c2f2b078a610facc0d75417021dc919",
    "case2-step": "d7033de6c53bf30b265b260ba112c4267c0a0ce78c9b98091fa03a03a61e282f",
    "case2-scene": "998ba09d093b191f5e961361fe52bf2778a9efc62ed0212a7cb544d3f2ded7d1",
    "case3": "df4f0d9ab2a9fee07d5af8e14fe3c44fe1f403e01904949c935ccb174a6b934f",
    "case3-three": "1812580efd9c8aa3e9ddfc5e499c3627a1eaafb1e3ff3ce673ad7ef98545b39e",
    "case3-scene": "61a052db8c07e93159afa8d452a87d6d390bfe4c6f7eff25f1fc609b3147b5aa",
    "score-csv": "4282db77e70930e24e83e81f5959adebf919aaed0a5d4b2985115c59ee3b1876",
}


BIG_GARAGE_SWEEPS = "cb253fae7b9cadf61125018d34e6aa360fe4e60128fa91f81ca9f6e91ce8bfc6"
CLASSIFIED_GRIDS = "281956c340797e6afca8f64a0a1954ec779671ca0a5ce0d1b2312a57ff7f0aab"
MIXED_GENERATE = "971031bdab49cb49a972d8896b5f829d95028e2c9447a492b8e8c058d8bf7fa8"
C10_SCENE = "7a57f270ea476eaf302f2e0a9cee582b821d7d108612f514516737ac8b9017dc"

# 40 x 40 cells of 5 m rows by 6 m columns: lanes on every third row and
# column, a sprinkle of obstacles, and a vehicle in every other parking cell
BIG_SIDE = 40
ROW_DEPTH, COLUMN_WIDTH = 5.0, 6.0
SIZES = ("small", "medium", "large")


def big_garage():
    rows = [
        [1 if i % 3 == 0 or j % 3 == 0 else (-1 if (7 * i + 3 * j) % 11 == 0 else 0)
         for j in range(BIG_SIDE)]
        for i in range(BIG_SIDE)
    ]
    rows[0][0], rows[-1][-1] = 2, 3
    spec = GarageSpec(tuple(map(tuple, rows)), (ROW_DEPTH,) * BIG_SIDE,
                      (COLUMN_WIDTH,) * BIG_SIDE)
    cells = classify_all(spec)
    parked = [(i, j) for i in range(BIG_SIDE) for j in range(BIG_SIDE)
              if rows[i][j] == 0 and (i + j) % 2 == 0]
    plan = OccupancyPlan(tuple(PlanEntry(CellRef(i, j), SIZES[(i + j) % 3])
                               for i, j in parked))
    return populate_vehicles(synthesize(cells), cells, plan), set(parked)


def big_garage_sweeps() -> str:
    """emit_sweep text of four 20 m lane sweeps, each aimed at a vehicle
    parked in the next row, 8-30 m past the end of the path."""
    scene, parked = big_garage()
    out = []
    for lane, x0 in ((3, 4.0), (12, 40.0), (24, 100.0), (33, 55.0)):
        x1 = x0 + 20.0
        row = lane + 1
        j = next(j for j in range(BIG_SIDE) if (row, j) in parked
                 and x1 + 8.0 <= (j + 0.5) * COLUMN_WIDTH <= x1 + 30.0)
        y = (lane + 0.5) * ROW_DEPTH
        sw = sweep(scene, [(x0, y), (x1, y)], CameraConfig(), f"veh-{row}-{j}", 0.5)
        out.append(emit_sweep(sw))
    return "".join(out)


def classified_plans() -> list[GarageSpec]:
    """Seeded random plans of 1-7 rows and columns over all five codes."""
    rng = random.Random(4711)
    return [random_spec(rng, max_side=7) for _ in range(160)]


def classified_grids() -> str:
    return "".join(emit_classified_grid(classify_all(spec)) for spec in classified_plans())


def mixed_plan() -> GarageSpec:
    """12 x 12 cells of uneven widths: lanes on rows 1, 6, 10 and columns 2,
    7, obstacles scattered over the parking, an entrance on the north edge
    and an exit on the east edge."""
    side = 12
    rows = [
        [1 if i in (1, 6, 10) or j in (2, 7) else (-1 if (5 * i + 3 * j) % 13 == 0 else 0)
         for j in range(side)]
        for i in range(side)
    ]
    rows[0][2], rows[6][11] = 2, 3
    return GarageSpec(tuple(map(tuple, rows)),
                      tuple(5.0 + 0.25 * (i % 3) for i in range(side)),
                      tuple(2.5 + 0.5 * (j % 4) for j in range(side)))


def mixed_occupancy(spec: GarageSpec) -> dict:
    """A vehicle in every third parking cell that touches a drivable one."""
    def touches_lane(i, j):
        return any(0 <= i + di < spec.m and 0 <= j + dj < spec.n
                   and spec.structure[i + di][j + dj] >= 1
                   for di, dj in ((-1, 0), (0, 1), (1, 0), (0, -1)))

    cells = [(i, j) for i in range(spec.m) for j in range(spec.n)
             if spec.structure[i][j] == 0 and touches_lane(i, j)]
    return {"schema": "occupancy-plan/1",
            "entries": [{"cell": [i, j], "size": SIZES[k % 3]}
                        for k, (i, j) in enumerate(cells[::3])]}


def mixed_generate(tmp: Path) -> str:
    """Digest of the scene/1 bytes generate writes for mixed_plan()."""
    spec = mixed_plan()
    plan, occ, scene = tmp / "mixed.json", tmp / "mixed-occ.json", tmp / "mixed-scene.json"
    plan.write_text(emit_garage_spec(spec), encoding="utf-8")
    occ.write_text(json.dumps(mixed_occupancy(spec)), encoding="utf-8")
    rc = main(["generate", str(plan), "--occupancy", str(occ), "--light", "moderate",
               "--out", str(scene)])
    assert rc == 0
    return hashlib.sha256(scene.read_bytes()).hexdigest()


def c10_scene() -> str:
    """Digest of the scene/1 bytes of test_c10_performance's 200 x 200 plan."""
    n = 200
    spec = GarageSpec(
        tuple(tuple(1 if (i % 3 == 0 or j % 3 == 0) else (0 if (i + j) % 7 else -1)
                    for j in range(n)) for i in range(n)),
        (5.0,) * n, (6.0,) * n)
    text = export_scene(synthesize(classify_all(spec)))
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def _generate(tmp: Path) -> Path:
    plan = tmp / "plan.json"
    plan.write_text(emit_garage_spec(PLAN), encoding="utf-8")
    occ = tmp / "occupancy.json"
    occ.write_text(json.dumps(OCCUPANCY), encoding="utf-8")
    scene = tmp / "garage.json"
    rc = main(["generate", str(plan), "--occupancy", str(occ), "--light", "moderate",
               "--out", str(scene), "--obj", str(tmp / "garage.obj")])
    assert rc == 0
    return scene


def compute_digests(tmp: Path, capture) -> dict[str, str]:
    """Digest per case; capture() returns the stdout written since its last call."""
    scene = _generate(tmp)
    capture()
    out = {"generate": _digest({p.name: p.read_bytes()
                                for p in (scene, tmp / "garage.obj")})}
    for name, argv in SCENARIOS.items():
        case_dir = tmp / name
        case_dir.mkdir()
        args = [a.replace("{scene}", str(scene)) for a in argv]
        assert main(["scenario", *args, "--out", str(case_dir / "report.json")]) == 0
        out[name] = _digest({p.name: p.read_bytes() for p in case_dir.iterdir()})
    capture()
    report = tmp / "case3-three" / "report.json"
    assert main(["--format", "csv", "score", str(report), "--weights", "0.5,0.3,0.2"]) == 0
    out["score-csv"] = _digest({"stdout": capture().encode()})
    return out


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    digests = compute_digests(tmp_path, lambda: capsys.readouterr().out)
    assert digests == GOLDEN


def test_big_garage_sweeps_match_golden_digest():
    digest = hashlib.sha256(big_garage_sweeps().encode()).hexdigest()
    assert digest == BIG_GARAGE_SWEEPS


def test_classified_plans_cover_every_rule_input():
    """Every (code, drivable-neighbour set) pair, and every code on every
    kind of edge and corner; only a lone non-drivable square, which no valid
    plan has, is missing from the second set."""
    rule_inputs, placements = set(), set()
    for spec in classified_plans():
        for i in range(spec.m):
            for j in range(spec.n):
                cell = CellRef(i, j)
                on_grid = frozenset(d for d in Direction if spec.in_bounds(cell.step(d)))
                rule_inputs.add((spec.code(cell), lane_directions(spec, cell)))
                placements.add((spec.code(cell), on_grid))
    assert len(rule_inputs) == 5 * 16
    assert len(placements) == 5 * 16 - 2


def test_classified_grids_match_golden_digest():
    digest = hashlib.sha256(classified_grids().encode()).hexdigest()
    assert digest == CLASSIFIED_GRIDS


def test_mixed_generate_matches_golden_digest(tmp_path):
    assert mixed_generate(tmp_path) == MIXED_GENERATE


def test_c10_scene_matches_golden_digest():
    assert c10_scene() == C10_SCENE


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    buf = io.StringIO()

    def _take() -> str:
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(buf):
        result = compute_digests(Path(d), _take)
        result["mixed-generate"] = mixed_generate(Path(d))
    result["big-garage-sweeps"] = hashlib.sha256(big_garage_sweeps().encode()).hexdigest()
    result["classified-grids"] = hashlib.sha256(classified_grids().encode()).hexdigest()
    result["c10-scene"] = c10_scene()
    json.dump(result, sys.stdout, indent=4)
    print()
