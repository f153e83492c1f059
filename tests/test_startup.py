"""Start-up: what importing the package and running a command loads.

Each check runs in a fresh interpreter, since this process has long since
imported numpy and every garagesim module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import garagesim
from garagesim.cli import main
from garagesim.grid import CellRef, GarageSpec, emit_garage_spec
from garagesim.scene import OccupancyPlan, PlanEntry, emit_occupancy_plan

SRC = str(Path(garagesim.__file__).resolve().parent.parent)

#: the package's public names, as `from garagesim import *` binds them
ALL = [
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

# a command in a fresh interpreter: its exit code is the process's, and it
# fails with exit 99 if the command loaded numpy
_RUN_COMMAND = """
import sys
from garagesim import cli
code = cli.main(sys.argv[1:])
sys.exit(99 if "numpy" in sys.modules else code)
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)


def _json_from(code: str):
    done = _python(code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_numpy():
    done = _python("import sys, garagesim; sys.exit('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("top, flags", [
    ([], []),
    (["--format", "json"], []),
    (["--format", "csv"], []),
    ([], ["--weights", "0.5,0.3,0.2", "--blackout-threshold", "0.3"]),
])
def test_score_loads_no_numpy_and_prints_the_same_bytes(tmp_path, capsys, top, flags):
    report = tmp_path / "r.json"
    assert main(["scenario", "--case", "3", "--out", str(report)]) == 0
    argv = [*top, "score", str(report), *flags]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    done = _python(_RUN_COMMAND, *argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected


def test_score_error_loads_no_numpy(tmp_path):
    report = tmp_path / "r.json"
    report.write_text('{"schema": "report/1"}', encoding="utf-8")
    done = _python(_RUN_COMMAND, "score", str(report))
    assert done.returncode == 2 and done.stderr.startswith("error: "), done.stderr


@pytest.mark.parametrize("structure, code", [(((1, 1, 1), (0, 2, 0)), 0),
                                             (((0, 0), (-1, 0)), 1)])
def test_validate_loads_no_numpy(tmp_path, capsys, structure, code):
    plan = tmp_path / "plan.json"
    spec = GarageSpec(structure, (5.0,) * len(structure), (6.0,) * len(structure[0]))
    plan.write_text(emit_garage_spec(spec), encoding="utf-8")
    assert main(["validate", str(plan)]) == code
    expected = capsys.readouterr().out
    done = _python(_RUN_COMMAND, "validate", str(plan))
    assert (done.returncode, done.stdout) == (code, expected), done.stderr


@pytest.mark.parametrize("occupancy", [False, True])
def test_generate_loads_no_numpy(tmp_path, capsys, occupancy):
    """generate, with or without vehicles, writes the same scene without
    numpy: the bounds around the vehicles fold Box3.aabb floats."""
    plan, extra = tmp_path / "plan.json", []
    spec = GarageSpec(((1, 1, 1), (0, 0, 0)), (5.0, 5.0), (3.0, 3.0, 3.0))
    plan.write_text(emit_garage_spec(spec), encoding="utf-8")
    if occupancy:
        vehicles = tmp_path / "occupancy.json"
        vehicles.write_text(emit_occupancy_plan(OccupancyPlan((
            PlanEntry(CellRef(1, 0), "small"), PlanEntry(CellRef(1, 2), "large")))),
            encoding="utf-8")
        extra = ["--occupancy", str(vehicles)]
    argv = ["generate", str(plan), *extra, "--out", str(tmp_path / "a.json")]
    assert main(argv) == 0
    expected = capsys.readouterr().out.replace("a.json", "b.json")
    argv[-1] = str(tmp_path / "b.json")
    done = _python(_RUN_COMMAND, *argv)
    assert (done.returncode, done.stdout) == (0, expected), done.stderr
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert ('"vehicle"' in (tmp_path / "b.json").read_text(encoding="utf-8")) == occupancy


def test_all_is_the_pinned_list():
    assert sorted(garagesim.__all__) == ALL


def test_every_public_name_is_its_home_module_attribute():
    """In a fresh interpreter each name of __all__, looked up on the
    package, is the very object its defining module holds, and is kept in
    the package's namespace from then on."""
    mismatched = _json_from("""
import json, sys, types
import garagesim
bad = []
for name in garagesim.__all__:
    value = getattr(garagesim, name)
    if isinstance(value, types.ModuleType):
        same = sys.modules["garagesim." + name] is value
    else:
        same = getattr(sys.modules[value.__module__], name) is value
    if not same or vars(garagesim).get(name) is not value:
        bad.append(name)
print(json.dumps(bad))
""")
    assert mismatched == []
    assert garagesim.sweep is garagesim.visibility.sweep
    assert garagesim.score is garagesim.scenario.score


def test_star_import_binds_every_public_name():
    bound = _json_from("""
from garagesim import *
names = sorted(k for k in dir() if not k.startswith("_"))
import json
print(json.dumps(names))
""")
    assert bound == ALL


def test_dir_lists_the_lazy_names_before_loading_them():
    listed, numpy_loaded = _json_from("""
import json, sys
import garagesim
names = dir(garagesim)
print(json.dumps([names, "numpy" in sys.modules]))
""")
    assert set(ALL) <= set(listed) and listed == sorted(listed)
    assert not numpy_loaded


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        garagesim.nope  # noqa: B018
    assert not hasattr(garagesim, "nope")
