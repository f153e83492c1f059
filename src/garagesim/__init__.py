"""garagesim: compile matrix-encoded garage plans into 3D scenes and measure
how badly columns, walls and parked vehicles hide a target from a camera.

The plan, classification, scene and scoring names load with the package;
none of them needs numpy.  The ray-casting names (visibility) and the
scenario names, which need it, load on first use.
"""

__version__ = "0.1.0"

from .grid import (
    CellKind,
    CellRef,
    Direction,
    GarageSpec,
    NeighborSet,
    ValidationReport,
    Violation,
    cell_kind,
    emit_garage_spec,
    load_garage_spec,
    load_garage_spec_csv,
    neighbor_set,
    parse_garage_spec,
    rotate_quarter,
    validate,
)
from .classify import (
    ClassifiedCell,
    ClassifiedGrid,
    LaneSubtype,
    ParkSubtype,
    RenderVariant,
    Rotation,
    assign_rotation,
    classify_all,
    classify_lane,
    classify_parking,
    count_lane_neighbors,
    emit_classified_grid,
    lane_directions,
    symmetry_period,
)
from .scene import (
    Box3,
    LightLevel,
    NodeKind,
    OccupancyPlan,
    PlanEntry,
    SceneGraph,
    SceneNode,
    SynthOptions,
    apply_light_level,
    export_scene,
    import_scene,
    layout_cells,
    populate_vehicles,
    remove_node,
    synthesize,
)
from .scoring import DifficultyScore

#: name -> the submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    "visibility": "visibility",
    "CameraConfig": "visibility",
    "EgoPose": "visibility",
    "Frustum": "visibility",
    "OcclusionSweep": "visibility",
    "VisibilitySample": "visibility",
    "make_camera": "visibility",
    "sweep": "visibility",
    "sweep_csv": "visibility",
    "visible_fraction": "visibility",
    "scenario": "scenario",
    "Scenario": "scenario",
    "ScenarioLabel": "scenario",
    "ScenarioReport": "scenario",
    "build_case1": "scenario",
    "build_case2": "scenario",
    "build_case3": "scenario",
    "emit_report": "scenario",
    "run_scenario": "scenario",
    "score": "scenario",
    "target_sweep": "scenario",
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "Box3", "CameraConfig", "CellKind", "CellRef", "ClassifiedCell", "ClassifiedGrid",
    "DifficultyScore", "Direction", "EgoPose", "Frustum", "GarageSpec", "LaneSubtype",
    "LightLevel", "NeighborSet", "NodeKind", "OcclusionSweep", "OccupancyPlan",
    "ParkSubtype", "PlanEntry", "RenderVariant", "Rotation", "Scenario", "ScenarioLabel",
    "ScenarioReport", "SceneGraph", "SceneNode", "SynthOptions", "ValidationReport",
    "Violation", "VisibilitySample", "apply_light_level", "assign_rotation", "build_case1",
    "build_case2", "build_case3", "cell_kind", "classify", "classify_all", "classify_lane",
    "classify_parking", "count_lane_neighbors", "emit_classified_grid", "emit_garage_spec",
    "emit_report", "errors", "export_scene", "grid", "import_scene", "lane_directions",
    "layout_cells", "load_garage_spec", "load_garage_spec_csv", "make_camera",
    "neighbor_set", "parse_garage_spec", "populate_vehicles", "remove_node",
    "rotate_quarter", "run_scenario", "scenario", "scene", "score", "sweep", "sweep_csv",
    "symmetry_period", "synthesize", "target_sweep", "validate", "visibility",
    "visible_fraction",
]
