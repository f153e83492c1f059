"""Single-occluder fixtures with analytically known blocked fractions.

Each fixture puts a medium or large vehicle dead ahead of the camera so
exactly one box face is camera-facing (the apex sits below the roof line
and on the target's lateral center line), then slides one axis-covering
occluder between: a full-height pillar (blocks a y-interval of the face)
or a full-width barrier (blocks a z-interval).  The expected fraction is
interval arithmetic, computed in tests/oracles.py with no engine code.
"""

from __future__ import annotations

from dataclasses import dataclass

from garagesim.scene import (
    Box3,
    CEILING_HEIGHT,
    FLOOR_THICKNESS,
    NodeKind,
    SceneGraph,
    SceneNode,
    VEHICLE_SIZES,
    slab_box,
    vehicle_box,
)
from garagesim.scenario import _scene_from_nodes
from garagesim.visibility import CameraConfig, EgoPose, make_camera

from oracles import analytic_blocked_fraction

CFG = CameraConfig()  # 60 deg fov, 1.6 m mount
EGO = EgoPose((0.0, 0.0), 0.0)
APEX = (0.0, 0.0, FLOOR_THICKNESS + CFG.mount_height)


def _slab(node_id: str, kind: NodeKind, x0, y0, x1, y1, z0, z1, tags=None) -> SceneNode:
    """A node whose box spans [x0, x1] x [y0, y1] x [z0, z1]."""
    return SceneNode(node_id, kind, slab_box(x0, y0, x1, y1, z0, z1), tags or {})


@dataclass(frozen=True)
class Fixture:
    name: str
    scene: SceneGraph
    expected: float  # analytic visible fraction


def _target(distance: float, size: str) -> SceneNode:
    return SceneNode(
        "veh-t", NodeKind.VEHICLE, vehicle_box((distance, 0.0), size, 1),
        {"vehicle_size": size},
    )


def _face_geometry(distance: float, size: str):
    length, width, height = VEHICLE_SIZES[size]
    face_x = distance - length / 2.0
    face_y = (-width / 2.0, width / 2.0)
    face_z = (FLOOR_THICKNESS, FLOOR_THICKNESS + height)
    return face_x, face_y, face_z


def _base_nodes(distance: float, size: str) -> list[SceneNode]:
    x1 = distance + 8.0
    return [
        _slab("floor", NodeKind.FLOOR_TILE, -2.0, -6.0, x1, 6.0, 0.0, FLOOR_THICKNESS),
        _slab("ceiling", NodeKind.CEILING_PANEL, -2.0, -6.0, x1, 6.0,
              CEILING_HEIGHT - 0.05, CEILING_HEIGHT),
        _target(distance, size),
    ]


def _fixture_with_occluder(
    name: str,
    distance: float,
    size: str,
    occ_x: tuple[float, float],
    occ_y: tuple[float, float],
    occ_z: tuple[float, float],
) -> Fixture:
    face_x, face_y, face_z = _face_geometry(distance, size)
    blocked = analytic_blocked_fraction(
        APEX, face_x, face_y, face_z, occ_x, occ_y, occ_z
    )
    occluder = _slab("occ", NodeKind.COLUMN, occ_x[0], occ_y[0], occ_x[1], occ_y[1],
                     occ_z[0], occ_z[1])
    scene = _scene_from_nodes(_base_nodes(distance, size) + [occluder])
    return Fixture(name, scene, 1.0 - blocked)


def build_fixtures() -> list[Fixture]:
    fixtures: list[Fixture] = []

    # unobstructed control
    fixtures.append(Fixture("open", _scene_from_nodes(_base_nodes(12.0, "medium")), 1.0))

    # exact half cover: full-height pillar whose inner edge projects to the
    # face center line from both of its x-planes
    fixtures.append(
        _fixture_with_occluder("half", 12.0, "medium",
                               (4.0, 4.4), (-2.0, 0.0), (0.0, CEILING_HEIGHT))
    )

    # total occlusion: barrier larger than the whole silhouette
    fixtures.append(
        _fixture_with_occluder("blocked", 12.0, "medium",
                               (5.0, 5.2), (-3.0, 3.0), (0.0, CEILING_HEIGHT))
    )

    # occluder outside the silhouette shadow
    fixtures.append(
        _fixture_with_occluder("offside", 12.0, "medium",
                               (5.0, 5.4), (2.0, 3.0), (0.0, CEILING_HEIGHT))
    )

    # full-height pillars: vary distance, lateral position and width
    k = 0
    for dist, size in ((10.0, "medium"), (14.0, "large")):
        for occ_d in (3.0, 4.5, 6.0):
            for y_c in (-0.45, -0.15, 0.3):
                for hw in (0.15, 0.3):
                    k += 1
                    fixtures.append(
                        _fixture_with_occluder(
                            f"pillar-{k}", dist, size,
                            (occ_d - 0.05, occ_d + 0.05),
                            (y_c - hw, y_c + hw),
                            (0.0, CEILING_HEIGHT),
                        )
                    )

    # wide barriers with partial height: standing and hanging
    for dist, size in ((10.0, "medium"), (14.0, "large")):
        for occ_d in (3.5, 5.0):
            for z_top in (0.6, 1.0, 1.4):
                fixtures.append(
                    _fixture_with_occluder(
                        f"barrier-{dist:.0f}-{occ_d}-{z_top}", dist, size,
                        (occ_d - 0.05, occ_d + 0.05), (-4.0, 4.0), (0.0, z_top),
                    )
                )

    return fixtures


def eligible_everywhere(fx: Fixture) -> bool:
    """Every sampled face point of the fixture target lies in the frustum."""
    import numpy as np
    from oracles import face_points

    frustum = make_camera(EGO, CFG)
    target = fx.scene.node("veh-t")
    pts = face_points(target, np.asarray(frustum.apex), 24)
    return bool(frustum.contains(pts).all())
