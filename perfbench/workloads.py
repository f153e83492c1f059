"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Every workload is a closed loop over rounds.  A round is a fixed, seeded list
of operations; the runner repeats rounds until the timed work reaches the run
length and always finishes the round it is in, so each run has the same mix
of operation sizes whatever the program's speed.

An operation receives a ``Clock`` and times only the calls into garagesim
inside ``clock.part(...)``.  Everything else an operation does, such as
building its inputs, capturing CLI output and checking the results, runs
outside the timed parts.  An operation returns an ``Outcome``: the work it
did, the outputs whose SHA-256 digests are compared with the recorded ones on
the default seed, and the problems its checks found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from garagesim import classify, cli, grid, scenario, scene, visibility

LANE_ROW_DEPTH = 5.0
COLUMN_WIDTH = 6.0
SIZES = ("small", "medium", "large")
LIGHTS = ("bright", "clear", "moderate", "dim")
SLOTS = ("close", "medium", "far")
WEIGHTS = ("0.4,0.4,0.2", "0.5,0.3,0.2", "0.3,0.5,0.2", "0.6,0.2,0.2")
STEPS = ("0.30", "0.40", "0.50", "0.60", "0.70")


@dataclass
class Outcome:
    items: int
    outputs: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    # reports whose rescore agrees with their score only up to rounding
    inexact: int = 0


class Clock:
    """Accumulates the timed parts of one operation; a tracer, when given,
    records spans only while a part is open."""

    def __init__(self, tracer=None):
        self.parts: dict[str, float] = {}
        self._tracer = tracer

    @contextlib.contextmanager
    def part(self, name: str):
        if self._tracer is not None:
            self._tracer.open_root(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if self._tracer is not None:
                self._tracer.close_root()
            self.parts[name] = self.parts.get(name, 0.0) + dt


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Relative tolerance of a rescored report against its own score.  The
# in-process score sums visible fractions in target order, the rescore in the
# report's sorted key order, so the two may differ by float rounding (seen:
# up to 8e-16 relative); a changed formula, weight or sample differs by far
# more.  Bit equality is counted apart, in ``Outcome.inexact``.
SCORE_REL_TOL = 1e-12


def same_score(a: dict, b: dict) -> bool:
    """Two ``DifficultyScore.to_document()`` dicts agree: equal keys and
    weights, and every term equal up to ``SCORE_REL_TOL``."""
    if a.keys() != b.keys() or a["weights"] != b["weights"]:
        return False
    return all(
        math.isclose(a[k], b[k], rel_tol=SCORE_REL_TOL, abs_tol=SCORE_REL_TOL)
        for k in a if k != "weights"
    )


# --- seeded garage plans ------------------------------------------------------


@dataclass(frozen=True)
class Garage:
    """A generated plan plus the vehicles to park in it."""

    spec_text: str
    lane_rows: tuple[int, ...]
    vehicles: tuple[tuple[int, int, str], ...]  # (row, col, size)
    n: int


def make_garage(rng: random.Random, m: int, n: int) -> Garage:
    """C10-style plan: lanes on every third row and column, parking between
    the lanes, about 1/7 of the parking squares turned into obstacles, an
    entrance and an exit on the border lane; about a third of the placeable
    spaces get a vehicle."""
    oi, oj = rng.randrange(3), rng.randrange(3)
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            if (i + oi) % 3 == 0 or (j + oj) % 3 == 0:
                row.append(1)
            else:
                row.append(-1 if rng.random() < 1.0 / 7.0 else 0)
        rows.append(row)
    lane_rows = tuple(i for i in range(m) if (i + oi) % 3 == 0)
    rows[lane_rows[0]][0] = 2
    rows[lane_rows[-1]][n - 1] = 3
    spec = grid.GarageSpec(
        tuple(tuple(r) for r in rows),
        tuple(LANE_ROW_DEPTH for _ in range(m)),
        tuple(COLUMN_WIDTH for _ in range(n)),
    )
    placeable = _placeable_cells(rows)
    vehicles = tuple(
        (i, j, rng.choice(SIZES)) for i, j in placeable if rng.random() < 1.0 / 3.0
    )
    return Garage(grid.emit_garage_spec(spec), lane_rows, vehicles, n)


def _placeable_cells(rows: list[list[int]]) -> list[tuple[int, int]]:
    """Parking squares with at least one drivable neighbour (not type4),
    computed from the plan alone so the program only receives documents."""
    m, n = len(rows), len(rows[0])
    out = []
    for i in range(m):
        for j in range(n):
            if rows[i][j] != 0:
                continue
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                a, b = i + di, j + dj
                if 0 <= a < m and 0 <= b < n and rows[a][b] >= 1:
                    out.append((i, j))
                    break
    return out


def occupancy(g: Garage) -> scene.OccupancyPlan:
    return scene.OccupancyPlan(
        tuple(scene.PlanEntry(grid.CellRef(i, j), size) for i, j, size in g.vehicles)
    )


def build_garage_scene(g: Garage) -> scene.SceneGraph:
    """Plan text to a populated scene graph (dim light)."""
    spec = grid.parse_garage_spec(g.spec_text)
    cells = classify.classify_all(spec)
    sg = scene.synthesize(cells, scene.SynthOptions(light=scene.LightLevel.DIM))
    return scene.populate_vehicles(sg, cells, occupancy(g))


# --- workload: plan-compile ------------------------------------------------------


class PlanCompile:
    """Plan text through parse, validate, classify, synthesize, populate and
    scene/1 export, then import of that text.  One operation is one plan."""

    name = "plan-compile"
    unit = "nodes"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        # from a realistic deck up to a stress plan
        self.sizes = (12, 6, 9) if tiny else (120, 20, 80, 40, 60)

    def setup(self, workdir: Path) -> None:
        warm = make_garage(random.Random(self.seed), 9, 9)
        self._compile(warm, Clock())

    def round_ops(self, r: int):
        rng = random.Random(f"{self.seed}:plan-compile:{r}")
        return [
            (f"plan {s}x{s}", self._op(make_garage(rng, s, s))) for s in self.sizes
        ]

    def _op(self, g: Garage):
        return lambda clock: self._compile(g, clock)

    def _compile(self, g: Garage, clock: Clock) -> Outcome:
        plan = occupancy(g)
        with clock.part("compile"):
            spec = grid.parse_garage_spec(g.spec_text)
            report = grid.validate(spec)
            cells = classify.classify_all(spec)
            sg = scene.synthesize(cells, scene.SynthOptions(light=scene.LightLevel.DIM))
            sg = scene.populate_vehicles(sg, cells, plan)
            text = scene.export_scene(sg)
        with clock.part("load"):
            loaded = scene.import_scene(text)
        out = Outcome(items=len(sg.nodes), outputs={"scene": digest(text)})
        if not report.ok:
            out.problems.append("generated plan failed validation")
        if len(loaded.nodes) != len(sg.nodes):
            out.problems.append("import_scene changed the node count")
        elif scene.export_scene(loaded) != text:
            out.problems.append("scene/1 text does not re-export to the same bytes")
        return out


# --- workload: garage-sweep ------------------------------------------------------


class GarageSweep:
    """Sweeps along lane rows of one large populated garage, each targeting a
    vehicle parked one row off the lane, ahead of the path.  One operation
    is one ``sweep`` call."""

    name = "garage-sweep"
    unit = "samples"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.side = 24 if tiny else 130
        self.path_m = 10.0 if tiny else 60.0
        self.step = 0.5
        self.cfg = visibility.CameraConfig()

    def setup(self, workdir: Path) -> None:
        self.garage = make_garage(random.Random(f"{self.seed}:garage"), self.side, self.side)
        self.scene = build_garage_scene(self.garage)
        self._by_row: dict[int, list[tuple[int, int, str]]] = {}
        for v in self.garage.vehicles:
            self._by_row.setdefault(v[0], []).append(v)
        # warm-up: a one-pose sweep
        path, target = self._pick(random.Random(self.seed))
        visibility.sweep(self.scene, [path[0]], self.cfg, target, self.step)

    def _pick(self, rng: random.Random):
        """A lane row, a start point and a parked target 8-30 m past the end
        of the path in an adjacent row (so it stays in view)."""
        width = self.garage.n * COLUMN_WIDTH
        while True:
            lane = rng.choice(self.garage.lane_rows)
            x0 = rng.uniform(0.0, max(width - self.path_m - 31.0, 0.0))
            x1 = x0 + self.path_m
            rows = [lane - 1, lane + 1]
            rng.shuffle(rows)
            for row in rows:
                ahead = [
                    v for v in self._by_row.get(row, ())
                    if x1 + 8.0 <= (v[1] + 0.5) * COLUMN_WIDTH <= x1 + 30.0
                ]
                if ahead:
                    i, j, _ = rng.choice(ahead)
                    y = (lane + 0.5) * LANE_ROW_DEPTH
                    return ((x0, y), (x1, y)), f"veh-{i}-{j}"

    def round_ops(self, r: int):
        path, target = self._pick(random.Random(f"{self.seed}:garage-sweep:{r}"))
        return [(f"sweep to {target}", self._op(path, target))]

    def _op(self, path, target: str):
        expected = len(visibility.sample_arclengths(self.path_m, self.step))

        def run(clock: Clock) -> Outcome:
            with clock.part("sweep"):
                sw = visibility.sweep(self.scene, list(path), self.cfg, target, self.step)
            text = visibility.sweep_csv(sw)
            out = Outcome(items=len(sw.samples), outputs={"csv": digest(text)})
            if len(sw.samples) != expected:
                out.problems.append(f"{len(sw.samples)} samples, expected {expected}")
            if any(not 0.0 <= s.visible_fraction <= 1.0 for s in sw.samples):
                out.problems.append("visible fraction outside [0, 1]")
            if not any(s.in_frustum for s in sw.samples):
                out.problems.append("target never in view")
            return out

        return run


# --- workloads: scenario-suite and merged-scenario -----------------------------


def _case_args(rng: random.Random, case: str, targets: int) -> list[str]:
    """Seeded, always-constructible parameters for one scenario case."""
    if case == "1":
        return [
            "--column-setback", f"{rng.uniform(2.5, 4.0):.2f}",
            "--lane-width", f"{rng.uniform(5.5, 7.0):.2f}",
            "--target-distance", f"{rng.uniform(14.0, 20.0):.2f}",
        ]
    if case == "2":
        return [
            "--column-offset", f"{rng.uniform(1.5, 3.5):.2f}",
            "--lane-distance", f"{rng.uniform(6.0, 10.0):.2f}",
        ]
    slots = sorted(rng.sample(SLOTS, targets), key=SLOTS.index)
    return ["--layout", ",".join(f"{s}:{rng.choice(SIZES)}" for s in slots)]


class _CommandPairs:
    """``garagesim scenario`` followed by ``garagesim score`` on its report,
    both in-process through ``garagesim.cli.main``.  One operation is one
    such pair.

    A command's cost follows mostly from its step and its number of case-3
    targets, so every round holds the same grid of steps, cases and target
    counts, in seeded order; the seed also sets the geometry, vehicle sizes,
    light and weights.
    """

    unit = "samples"
    scene_arg: list[str] = []
    steps = STEPS
    case3_targets = (1, 2, 3)

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def setup(self, workdir: Path) -> None:
        self.report = workdir / f"{self.name}.json"
        # warm-up: one pair; its outcome is not counted
        rng = random.Random(self.seed)
        self._pair(["--case", "1"] + _case_args(rng, "1", 1), "0.4,0.4,0.2", "0.4,0.4,0.2",
                   "0.50", "bright", Clock())

    def round_ops(self, r: int):
        rng = random.Random(f"{self.seed}:{self.name}:{r}")
        n = len(self.case3_targets)
        plan = [(case, step, self.case3_targets[k % n])
                for k, step in enumerate(self.steps) for case in ("1", "2", "3")]
        rng.shuffle(plan)
        ops = []
        for case, step, targets in plan:
            args = ["--case", case] + _case_args(rng, case, targets)
            light = rng.choice(LIGHTS)
            w_run, w_score = rng.choice(WEIGHTS), rng.choice(WEIGHTS)
            ops.append((f"case {case} step {step}",
                        self._op(args, w_run, w_score, step, light)))
        return ops

    def _op(self, args, w_run, w_score, step, light):
        return lambda clock: self._pair(args, w_run, w_score, step, light, clock)

    def _pair(self, args, w_run, w_score, step, light, clock: Clock) -> Outcome:
        argv = (["--format", "json", "scenario"] + args + self.scene_arg
                + ["--light", light, "--step", step, "--weights", w_run,
                   "--out", str(self.report)])
        sink, errs = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errs):
            with clock.part("scenario"):
                rc_run = cli.main(argv)
            first = sink.tell()
            with clock.part("score"):
                rc_score = cli.main(["--format", "json", "score", str(self.report),
                                     "--weights", w_score])
        out = Outcome(items=0)
        if rc_run != 0 or rc_score != 0:
            out.problems.append(
                f"exit codes {rc_run}/{rc_score}: {errs.getvalue().strip()[:200]}"
            )
            return out
        report_text = self.report.read_text(encoding="utf-8")
        doc = json.loads(report_text)
        out.outputs["report"] = digest(report_text)
        for tid, sw in sorted(doc["sweeps"].items()):
            out.items += len(sw["samples"])
            csv_path = self.report.with_name(f"{self.report.stem}.{tid}.csv")
            out.outputs[f"csv {tid}"] = digest(csv_path.read_text(encoding="utf-8"))
        weights_run = tuple(float(w) for w in w_run.split(","))
        weights_score = tuple(float(w) for w in w_score.split(","))
        rescored = scenario.rescore_report_document(doc, weights_run).to_document()
        if not same_score(rescored, doc["score"]):
            out.problems.append("rescore of the emitted report differs from its score")
        elif rescored != doc["score"]:
            out.inexact += 1
        printed = json.loads(sink.getvalue()[first:])
        if printed != scenario.rescore_report_document(doc, weights_score).to_document():
            out.problems.append("score command output differs from rescore")
        return out


class ScenarioSuite(_CommandPairs):
    name = "scenario-suite"


class MergedScenario(_CommandPairs):
    """Scenario cases run against a mid-size garage scene/1 file that set-up
    writes; every command imports and merges that file."""

    name = "merged-scenario"
    # one step and three case-3 targets make every round alike
    steps = ("0.50",)
    case3_targets = (3,)

    def setup(self, workdir: Path) -> None:
        side = 10 if self.tiny else 60
        g = make_garage(random.Random(f"{self.seed}:merged"), side, side)
        text = scene.export_scene(build_garage_scene(g))
        path = workdir / "garage.scene.json"
        path.write_text(text, encoding="utf-8")
        if scene.export_scene(scene.import_scene(text)) != text:
            raise RuntimeError("garage scene/1 text does not round-trip")
        self.scene_arg = ["--scene", str(path)]
        super().setup(workdir)


WORKLOADS = {
    w.name: w for w in (PlanCompile, GarageSweep, ScenarioSuite, MergedScenario)
}
