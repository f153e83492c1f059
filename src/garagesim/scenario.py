"""Occlusion scenarios and difficulty scoring.

Three parameterized setups mirror the classic garage hazards: a corner
column hiding a vehicle ahead in the lane, a parked ego peeking past a
nearby column at crossing traffic, and stacked parking rows where one
parked vehicle shadows another.  Each run sweeps visibility at half-meter
spacing and reduces the series to a difficulty score combining mean
occlusion, the longest visibility blackout, and a lighting penalty.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .errors import ConstructionError, OptionError
from .scene import (
    Box3,
    CEILING_HEIGHT,
    CEILING_THICKNESS,
    COLUMN_SIZE,
    FLOOR_THICKNESS,
    LightLevel,
    NodeKind,
    SceneGraph,
    SceneNode,
    VEHICLE_SIZES,
    _FloatTexts,
    _bounded,
    _encode_str,
    _fold_bounds,
    _footprint,
    _number_texts,
    column_box,
    slab_box,
    vehicle_box,
)
# the score formula and the report reader live in scoring, which loads no
# numpy; scenario.rescore_report_document stays importable
from .scoring import (
    BLACKOUT_THRESHOLD,
    DEFAULT_WEIGHTS,
    REPORT_SCHEMA,
    DifficultyScore,
    _check_score_options,
    _score_fractions,
    rescore_report_document,
)
from .visibility import (
    DEFAULT_SAMPLES_PER_EDGE,
    DEFAULT_STEP,
    SWEEP_SCHEMA,
    CameraConfig,
    EgoPose,
    OcclusionSweep,
    _as_poses,
    _sample_pairs,
    path_length,
    pose_at,
    sample_arclengths,
    sweep,
    sweep_document,
)

SCENARIO_SCHEMA = "scenario/1"

#: lateral offset of each parking row from the ego lane, meters
SLOT_OFFSETS = {"close": 4.0, "medium": 8.0, "far": 12.0}


class ScenarioLabel(str, Enum):
    CASE1_CORNER_COLUMN = "case1-corner-column"
    CASE2_PARKED_EGO = "case2-parked-ego"
    CASE3_PARKED_ROWS = "case3-parked-rows"


@dataclass(frozen=True)
class Scenario:
    scene: SceneGraph
    ego_path: tuple[EgoPose, ...]
    target_ids: tuple[str, ...]
    label: ScenarioLabel
    params: dict
    target_path: tuple[EgoPose, ...] | None = None  # set when the target moves
    ignore_ids: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.target_ids:
            raise ConstructionError("scenario needs at least one target")
        if not self.ego_path:
            raise ConstructionError("scenario needs an ego pose or path")


@dataclass(frozen=True)
class ScenarioReport:
    label: ScenarioLabel
    params: dict
    light_level: LightLevel
    sweeps: dict[str, OcclusionSweep]
    score: DifficultyScore
    stats: dict[str, dict]


# --- shared construction helpers -------------------------------------------------


def _shell(x0: float, y0: float, x1: float, y1: float) -> list[SceneNode]:
    """Floor and ceiling slabs over the rectangle [x0, x1] x [y0, y1]."""
    return [
        SceneNode("floor", NodeKind.FLOOR_TILE, slab_box(x0, y0, x1, y1, 0.0, FLOOR_THICKNESS)),
        SceneNode("ceiling", NodeKind.CEILING_PANEL,
                  slab_box(x0, y0, x1, y1, CEILING_HEIGHT - CEILING_THICKNESS, CEILING_HEIGHT)),
    ]


def _scene_from_nodes(nodes: list[SceneNode]) -> SceneGraph:
    """The case builders' scene of the given nodes, tabled, bounded by
    their boxes and lit bright."""
    return SceneGraph(
        nodes=tuple(nodes),
        bounds=_fold_bounds(n.box.aabb for n in nodes),
        light_level=LightLevel.BRIGHT,
    )


def _boxes_overlap(a: Box3, b: Box3) -> bool:
    aa, bb = a.aabb, b.aabb
    return all(aa[k] < bb[k + 3] and bb[k] < aa[k + 3] for k in range(3))


# --- case builders ----------------------------------------------------------------


def _check_dimensions(case: int, *dims: float) -> None:
    """A dimension that is not finite or lies past BOX_MAX is a bad option
    (OptionError); one within that is not positive is impossible geometry
    (ConstructionError)."""
    if not _bounded(dims):
        raise OptionError(f"case {case} needs finite dimensions below 2**129,"
                          f" got {', '.join(map(str, dims))}")
    if min(dims) <= 0.0:
        raise ConstructionError(f"case {case} needs positive dimensions")


def build_case1(
    column_setback: float = 3.0,
    lane_width: float = 6.0,
    target_distance: float = 18.0,
) -> Scenario:
    """Corner-column scenario: ego drives toward a turn; a column between
    the camera and a vehicle parked past the corner hides it at the start
    and clears as the ego advances.

    The column is centered on the start-pose sight line so the target is
    fully hidden at the first sample; the path ends while the target is
    still inside the field of view.
    """
    _check_dimensions(1, column_setback, lane_width, target_distance)

    ego_y = -lane_width / 6.0
    target_y = lane_width / 3.0
    target = SceneNode(
        "veh-target",
        NodeKind.VEHICLE,
        vehicle_box((target_distance, target_y), "small", 1),
        {"vehicle_size": "small", "parked": "true", "color": "white"},
    )

    # aim the column at the middle of the target's angular band from the start pose
    apex = (0.0, ego_y)
    bearings = [
        math.atan2(cy - apex[1], cx - apex[0]) for cx, cy in _footprint(target.box)
    ]
    mid = (min(bearings) + max(bearings)) / 2.0
    col_y = apex[1] + column_setback * math.tan(mid)
    if not _bounded((col_y,)):  # a bearing near a right angle
        raise ConstructionError("column placement falls past 2**129")
    column = SceneNode(
        "col-corner",
        NodeKind.COLUMN,
        column_box(column_setback, col_y, COLUMN_SIZE, CEILING_HEIGHT),
        {"corner": "case1"},
    )
    if _boxes_overlap(column.box, target.box):
        raise ConstructionError("column placement overlaps the target vehicle")

    path_end = max(column_setback + 2.0, target_distance - 8.0)
    path = ((0.0, ego_y), (path_end, ego_y))
    col_aabb = column.box.aabb
    if col_aabb[1] <= ego_y <= col_aabb[4]:
        raise ConstructionError("column placement blocks the ego path")

    nodes = [*_shell(-2.0, -lane_width, target_distance + 8.0, lane_width), column, target]
    return Scenario(
        scene=_scene_from_nodes(nodes),
        ego_path=_as_poses(path),
        target_ids=("veh-target",),
        label=ScenarioLabel.CASE1_CORNER_COLUMN,
        params={
            "column_setback": column_setback,
            "lane_width": lane_width,
            "target_distance": target_distance,
            "column_id": "col-corner",
        },
    )


def build_case2(column_offset: float = 2.5, lane_distance: float = 8.0) -> Scenario:
    """Parked-ego scenario: the ego sits in a space looking out; a column at
    the space's corner shadows part of the lane ahead, and the target
    drives across.  The sweep moves the target, not the ego."""
    _check_dimensions(2, column_offset, lane_distance)
    if lane_distance <= column_offset:
        raise ConstructionError("the lane must lie beyond the column")

    side_y = -1.0
    ego = EgoPose((0.0, 0.0), 0.0)
    ego_body = SceneNode(
        "veh-ego",
        NodeKind.VEHICLE,
        vehicle_box((-2.1 + VEHICLE_SIZES["small"][0] / 2.0, 0.0), "small", 1),
        {"vehicle_size": "small", "parked": "true", "color": "gray"},
    )
    column = SceneNode(
        "col-side",
        NodeKind.COLUMN,
        column_box(column_offset, side_y, COLUMN_SIZE, CEILING_HEIGHT),
        {"corner": "case2"},
    )
    half_span = 6.0
    target_path = ((lane_distance, -half_span), (lane_distance, half_span))
    target = SceneNode(
        "veh-target",
        NodeKind.VEHICLE,
        vehicle_box((lane_distance, -half_span), "small", 0),
        {"vehicle_size": "small", "parked": "false", "color": "white"},
    )

    nodes = [
        *_shell(-4.0, -half_span - 4.0, lane_distance + 6.0, half_span + 4.0),
        ego_body,
        column,
        target,
    ]
    return Scenario(
        scene=_scene_from_nodes(nodes),
        ego_path=(ego,),
        target_ids=("veh-target",),
        label=ScenarioLabel.CASE2_PARKED_EGO,
        params={
            "column_offset": column_offset,
            "lane_distance": lane_distance,
            "column_id": "col-side",
        },
        target_path=_as_poses(target_path),
        ignore_ids=frozenset({"veh-ego"}),
    )


def build_case3(layout: list[tuple[str, str]]) -> Scenario:
    """Stacked-row scenario: parking rows at increasing lateral offsets from
    the ego lane, staggered down-lane so that from early in the sweep the
    slots line up along one sight line (a closer vehicle then shadows a
    farther one).  Every placed vehicle is a target."""
    if not layout:
        raise ConstructionError("case 3 needs at least one (slot, size) entry")
    seen_slots = set()
    for slot, size in layout:
        if slot not in SLOT_OFFSETS:
            raise ConstructionError(f"unknown slot {slot!r}; expected close/medium/far")
        if size not in VEHICLE_SIZES:
            raise ConstructionError(f"unknown vehicle size {size!r}")
        if slot in seen_slots:
            raise ConstructionError(f"slot {slot!r} used twice")
        seen_slots.add(slot)

    # slots sit on a ray from the alignment point (2, 0): x = 2 + 2 * y
    anchor_x, slope = 2.0, 2.0
    vehicles = []
    for slot, size in layout:
        y = SLOT_OFFSETS[slot]
        x = anchor_x + slope * y
        vehicles.append(
            SceneNode(
                f"veh-{slot}",
                NodeKind.VEHICLE,
                vehicle_box((x, y), size, 0),
                {"vehicle_size": size, "parked": "true", "color": "white", "slot": slot},
            )
        )

    max_y = max(SLOT_OFFSETS.values()) + 6.0
    max_x = anchor_x + slope * max(SLOT_OFFSETS.values()) + 8.0
    return Scenario(
        scene=_scene_from_nodes([*_shell(-2.0, -4.0, max_x, max_y), *vehicles]),
        ego_path=_as_poses(((0.0, 0.0), (20.0, 0.0))),
        target_ids=tuple(v.id for v in vehicles),
        label=ScenarioLabel.CASE3_PARKED_ROWS,
        params={"layout": [[slot, size] for slot, size in layout]},
    )


# --- running and scoring -----------------------------------------------------------


def target_sweep(
    scene: SceneGraph,
    ego: EgoPose,
    target_path: tuple[EgoPose, ...],
    cfg: CameraConfig,
    target_id: str,
    step: float = DEFAULT_STEP,
    *,
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE,
    ignore_ids: frozenset[str] = frozenset(),
) -> OcclusionSweep:
    """Sweep with swapped roles: the camera stays parked while the target,
    its own box at its own height, advances along its own path (half-meter
    spacing as usual)."""

    def pairs(target: Box3):
        for s in sample_arclengths(path_length(target_path), step):
            pose = pose_at(target_path, s)
            # driving orientation: box yaw puts the length along the heading
            yield ego, Box3((*pose.position, target.center[2]), target.half_extents,
                            pose.heading + math.pi / 2.0)

    samples = _sample_pairs(scene, target_id, pairs, cfg, samples_per_edge, ignore_ids)
    return OcclusionSweep(samples=samples, step=step, path=target_path, swept="target")


def score(
    sweeps: dict[str, OcclusionSweep] | list[OcclusionSweep],
    level: LightLevel,
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
    blackout_threshold: float = BLACKOUT_THRESHOLD,
) -> DifficultyScore:
    """Difficulty score over one or more sweeps.

    occlusion term: mean of (1 - visible fraction) pooled over all samples;
    blackout term: worst sweep's longest run below the threshold, as a
    fraction of that sweep's length; light term: fixed penalty per level.
    total = 100 * (w_occ*occ + w_blk*blackout + w_lit*light), weights
    finite, non-negative and summing to 1, threshold in [0, 1].
    """
    sweep_list = list(sweeps.values()) if isinstance(sweeps, dict) else list(sweeps)
    if not sweep_list or any(not sw.samples for sw in sweep_list):
        raise ValueError("score needs at least one non-empty sweep")
    fractions = [[s.visible_fraction for s in sw.samples] for sw in sweep_list]
    return _score_fractions(fractions, level, weights, blackout_threshold)


def _sweep_stats(sw: OcclusionSweep) -> dict:
    fracs = [s.visible_fraction for s in sw.samples]
    first_full = None
    for k, f in enumerate(fracs):
        if first_full is None and f >= 1.0 - 1e-9:
            first_full = k * sw.step
    # the sweep clears from the sample after the last one below 0.9 (a NaN
    # counts as below), and never if that is the last sample
    start = len(fracs)
    while start and fracs[start - 1] >= 0.9:
        start -= 1
    clear_from = start * sw.step if start < len(fracs) else None
    contributions: dict[str, float] = {}
    for s in sw.samples:
        for nid, frac in s.occluders:
            contributions[nid] = max(contributions.get(nid, 0.0), frac)
    return {
        "min_visible_fraction": min(fracs),
        "mean_visible_fraction": sum(fracs) / len(fracs),
        "first_full_visibility_s": first_full,
        "clears_from_s": clear_from,
        "clears_to_high_visibility": clear_from is not None,
        "samples": len(fracs),
        "occluder_contributions": dict(
            sorted(contributions.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
    }


def run_scenario(
    scn: Scenario,
    cfg: CameraConfig = CameraConfig(),
    step: float = DEFAULT_STEP,
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS,
    blackout_threshold: float = BLACKOUT_THRESHOLD,
    samples_per_edge: int = DEFAULT_SAMPLES_PER_EDGE,
) -> ScenarioReport:
    """Sweep every target and reduce to stats and a difficulty score.  A bad
    option raises OptionError before the first sample is taken."""
    _check_score_options(weights, blackout_threshold)
    sweeps: dict[str, OcclusionSweep] = {}
    for target_id in scn.target_ids:
        if scn.target_path is not None:
            sweeps[target_id] = target_sweep(
                scn.scene, scn.ego_path[0], scn.target_path, cfg, target_id, step,
                samples_per_edge=samples_per_edge, ignore_ids=scn.ignore_ids,
            )
        else:
            sweeps[target_id] = sweep(
                scn.scene, scn.ego_path, cfg, target_id, step,
                samples_per_edge=samples_per_edge, ignore_ids=scn.ignore_ids,
            )
    sc = score(sweeps, scn.scene.light_level, weights, blackout_threshold)
    stats = {tid: _sweep_stats(sw) for tid, sw in sweeps.items()}
    return ScenarioReport(
        label=scn.label,
        params=dict(scn.params),
        light_level=scn.scene.light_level,
        sweeps=sweeps,
        score=sc,
        stats=stats,
    )


# --- documents ----------------------------------------------------------------------


def report_document(report: ScenarioReport) -> dict:
    return {
        **_report_head(report),
        "sweeps": {tid: sweep_document(sw) for tid, sw in report.sweeps.items()},
    }


def _report_head(report: ScenarioReport) -> dict:
    """report_document less its sweeps."""
    return {
        "schema": REPORT_SCHEMA,
        "scenario": {
            "schema": SCENARIO_SCHEMA,
            "label": report.label.value,
            "params": report.params,
        },
        "light_level": report.light_level.value,
        "score": report.score.to_document(),
        "stats": report.stats,
    }


# report/1's sweep records as json.dumps(indent=2, sort_keys=True) lays them
# out in a report, keys sorted, each followed by a comma and a newline
_SWEEP = """\
    %s: {
      "path": %s,
      "samples": %s,
      "schema": %s,
      "step_m": %s,
      "swept": %s
    },
"""
_POSE = """\
        {
          "heading_rad": %s,
          "x": %s,
          "y": %s
        },
"""
_SAMPLE = """\
        {
          "ego": {
            "heading_rad": %s,
            "x": %s,
            "y": %s
          },
          "in_frustum": %s,
          "occluders": %s,
          "s_m": %s,
          "target_id": %s,
          "visible_fraction": %s
        },
"""
_OCCLUDER = """\
            [
              %s,
              %s
            ],
"""


class _Unwritten(Exception):
    """A report value that the fixed layout does not write as json does."""


def _float_texts(values, floats: _FloatTexts) -> list[str]:
    """The JSON text of each value: float.__repr__, for finite floats only
    (TypeError for an int or any other type, _Unwritten for NaN or an
    infinity, which json spells its own way)."""
    numbers = array("d", map(float.__float__, values))
    if not all(map(math.isfinite, numbers)):
        raise _Unwritten
    return _number_texts(numbers, floats)


def _bool_text(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise _Unwritten


def _bracketed(records: str, indent: str, brackets: str = "[]") -> str:
    """records, each ending ",\n", in brackets, the closing one at indent,
    as json writes a list or an object: bare brackets when there is none."""
    if not records:
        return brackets
    return f"{brackets[0]}\n{records[:-2]}\n{indent}{brackets[1]}"


def _occluders_text(occluders, floats: _FloatTexts) -> str:
    if not occluders:
        return "[]"
    ids, fracs = [], []
    for nid, frac in occluders:
        ids.append(_encode_str(nid))
        fracs.append(frac)
    records = (_OCCLUDER * len(ids)) % tuple(chain.from_iterable(
        zip(ids, _float_texts(fracs, floats))))
    return _bracketed(records, " " * 10)


def _sweep_text(tid: str, sw: OcclusionSweep, floats: _FloatTexts) -> str:
    """One entry of report/1's sweeps, as sweep_document writes it there."""
    step = sw.step
    numbers, flags, occluders, ids = [], [], [], []
    for k, s in enumerate(sw.samples):
        ego = s.ego
        numbers += (ego.heading, ego.position[0], ego.position[1], k * step, s.visible_fraction)
        flags.append(_bool_text(s.in_frustum))
        occluders.append(_occluders_text(s.occluders, floats))
        ids.append(_encode_str(s.target_id))
    t = _float_texts(numbers, floats)
    samples = (_SAMPLE * len(ids)) % tuple(chain.from_iterable(
        zip(t[0::5], t[1::5], t[2::5], flags, occluders, t[3::5], ids, t[4::5])))
    p = _float_texts([v for pose in sw.path
                      for v in (pose.heading, pose.position[0], pose.position[1])], floats)
    path = (_POSE * len(sw.path)) % tuple(p)
    return _SWEEP % (_encode_str(tid), _bracketed(path, " " * 6),
                     _bracketed(samples, " " * 6), _encode_str(SWEEP_SCHEMA),
                     *_float_texts([step], floats), _encode_str(sw.swept))


def emit_report(report: ScenarioReport) -> str:
    """report/1 text: json.dumps(report_document(report), indent=2,
    sort_keys=True) and a newline.  The sweeps, nearly all of it, are
    written from fixed-layout templates, and the rest by json.  Where a
    sweep holds a value that is no finite float, str or bool where one is
    expected (an int position, say, or a NaN), json writes it all."""
    floats = _FloatTexts()
    try:
        sweeps = "".join([_sweep_text(tid, sw, floats)
                          for tid, sw in sorted(report.sweeps.items())])
    except (_Unwritten, TypeError):
        return json.dumps(report_document(report), indent=2, sort_keys=True) + "\n"
    head = json.dumps(_report_head(report), indent=2, sort_keys=True)
    # "sweeps" sorts after every key of the head
    return f'{head[:-2]},\n  "sweeps": {_bracketed(sweeps, "  ", "{}")}\n}}\n'
