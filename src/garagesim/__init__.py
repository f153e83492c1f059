"""garagesim: compile matrix-encoded garage plans into 3D scenes and measure
how badly columns, walls and parked vehicles hide a target from a camera."""

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
from .visibility import (
    CameraConfig,
    EgoPose,
    Frustum,
    OcclusionSweep,
    VisibilitySample,
    make_camera,
    sweep,
    sweep_csv,
    visible_fraction,
)
from .scenario import (
    DifficultyScore,
    Scenario,
    ScenarioLabel,
    ScenarioReport,
    build_case1,
    build_case2,
    build_case3,
    emit_report,
    run_scenario,
    score,
    target_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
