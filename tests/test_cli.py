import copy
import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from garagesim import cli
from garagesim.classify import classify_all
from garagesim.cli import main
from garagesim.grid import (
    BOX_MAX, CellRef, GarageSpec, emit_garage_spec, load_garage_spec, parse_garage_spec,
    validate,
)
from garagesim.scene import (
    LightLevel, OccupancyPlan, PlanEntry, import_scene, populate_vehicles, synthesize,
)
from conftest import CODES
from oracles import parse_command_line


ALL_LANE_3X3 = GarageSpec(
    ((1, 1, 1), (1, 1, 1), (1, 1, 1)), (6.0, 6.0, 6.0), (6.0, 6.0, 6.0)
)


# the plans validate once passed and generate then crashed on
THIN_PLANS = [
    {"structure": [[1], [0]], "row_widths_m": [2.5, 1e-300], "col_widths_m": [2.5]},
    {"structure": [[1, 1, 0]], "row_widths_m": [6], "col_widths_m": [9223372036854775808, 6.0, 5]},
    {"structure": [[2, 1], [1, 1]], "row_widths_m": [1e-323, 5], "col_widths_m": [6, 6]},
]


@pytest.fixture
def spec_file(tmp_path: Path) -> Path:
    p = tmp_path / "plan.json"
    p.write_text(emit_garage_spec(ALL_LANE_3X3), encoding="utf-8")
    return p


class TestValidate:
    def test_ok(self, spec_file, capsys):
        assert main(["validate", str(spec_file)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_wrong_row_vector(self, tmp_path, capsys):
        bad = GarageSpec(((1, 1, 1), (0, 0, 0), (0, 0, 0)),
                         (5.0, 5.0, 5.0, 5.0), (6.0, 6.0, 6.0))
        p = tmp_path / "bad.json"
        p.write_text(emit_garage_spec(bad), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        out = capsys.readouterr().out
        assert "row-count" in out and "4" in out and "m=3" in out

    def test_widths_summing_past_float_range(self, tmp_path, capsys):
        wide = GarageSpec(((1, 1),), (5.0,), (1e308, 1e308))
        p = tmp_path / "wide.json"
        p.write_text(emit_garage_spec(wide), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert "envelope-finite at col_widths" in capsys.readouterr().out
        out = tmp_path / "scene.json"
        assert main(["generate", str(p), "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_unparseable(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{oops", encoding="utf-8")
        assert main(["validate", str(p)]) == 2

    def test_json_format(self, spec_file, capsys):
        assert main(["--format", "json", "validate", str(spec_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"ok": True, "violations": []}

    def test_csv_directory(self, tmp_path, capsys):
        (tmp_path / "structure.csv").write_text("1,1\n0,0\n")
        (tmp_path / "rows.csv").write_text("5\n5\n")
        (tmp_path / "cols.csv").write_text("6\n6\n")
        assert main(["validate", str(tmp_path)]) == 0

    @pytest.mark.parametrize("plan", THIN_PLANS, ids=["absorbed-row", "absorbed-cols", "ramp-row"])
    def test_cells_too_thin_to_build_fail_validate_and_generate(self, tmp_path, capsys, plan):
        # a width absorbed into the running total before it, or a subnormal
        # one that a ramp marker's quarter rounds to 0: the cell would be a
        # box of no extent, which synthesis refuses with a ValueError
        p = tmp_path / "thin.json"
        p.write_text(json.dumps({"schema": "garage-spec/1", **plan}), encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("violation cell-extent at "), out
        scene = tmp_path / "scene.json"
        assert main(["generate", str(p), "--out", str(scene)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == out and not scene.exists()


_PLAN_WIDTHS = st.one_of(
    st.floats(2.0, 8.0),
    st.floats(min_value=5e-324, max_value=BOX_MAX),
    st.sampled_from([5e-324, 1e-323, 1.5e-323, 2e-323, sys.float_info.min, 1e-300, 1e-17,
                     2.0**63, 1e38, BOX_MAX / 2.0, BOX_MAX]),
)


@st.composite
def _plans(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    structure = draw(st.lists(st.lists(st.sampled_from(CODES), min_size=n, max_size=n),
                              min_size=m, max_size=m))
    rows = draw(st.lists(_PLAN_WIDTHS, min_size=m, max_size=m))
    cols = draw(st.lists(_PLAN_WIDTHS, min_size=n, max_size=n))
    return {"structure": structure, "row_widths_m": rows, "col_widths_m": cols}


@settings(max_examples=300, deadline=None)
@given(_plans())
@example(THIN_PLANS[0])
@example(THIN_PLANS[1])
@example(THIN_PLANS[2])
@example({"structure": [[2, 1], [1, 1]], "row_widths_m": [1.5e-323, 5], "col_widths_m": [6, 6]})
@example({"structure": [[1, 3]], "row_widths_m": [BOX_MAX / 2.0], "col_widths_m": [2e-323, 6]})
def test_a_plan_validate_accepts_compiles(plan):
    # validate passing means synthesis and vehicle placement succeed, with a
    # forced vehicle in every cell, and generate exits 0
    spec = GarageSpec(tuple(map(tuple, plan["structure"])), tuple(plan["row_widths_m"]),
                      tuple(plan["col_widths_m"]))
    if not validate(spec).ok:
        return
    grid = classify_all(spec)
    occupancy = OccupancyPlan(tuple(PlanEntry(CellRef(i, j), "small", force=True)
                                    for i in range(spec.m) for j in range(spec.n)))
    populate_vehicles(synthesize(grid), grid, occupancy)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        (path / "plan.json").write_text(emit_garage_spec(spec), encoding="utf-8")
        entries = [{"cell": [e.cell.i, e.cell.j], "size": e.size, "force": True}
                   for e in occupancy.entries]
        (path / "occupancy.json").write_text(
            json.dumps({"schema": "occupancy-plan/1", "entries": entries}), encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["generate", str(path / "plan.json"), "--occupancy",
                         str(path / "occupancy.json"), "--out", str(path / "scene.json")])
        assert code == 0, err.getvalue()


@st.composite
def _csv_trio(draw, plan: dict) -> dict[str, str]:
    """The CSV files of a plan, each value written with json.dumps: one line
    per structure row, each width vector split over lines at drawn places,
    with drawn blank lines, spaces around the fields and line ends."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def text(rows) -> str:
        lines = []
        for row in rows:
            lines.extend(draw(st.lists(st.sampled_from(["", " "]), max_size=1)))
            lines.append(",".join(draw(st.sampled_from(["", " "])) + json.dumps(value)
                                  + draw(st.sampled_from(["", "\t"])) for value in row))
        return newline.join(lines) + draw(st.sampled_from(["", newline]))

    def split(widths) -> list:
        cuts = sorted(draw(st.sets(st.integers(1, len(widths) - 1)))) if len(widths) > 1 else []
        return [widths[a:b] for a, b in zip([0, *cuts], [*cuts, len(widths)])]

    return {"structure.csv": text(plan["structure"]),
            "rows.csv": text(split(plan["row_widths_m"])),
            "cols.csv": text(split(plan["col_widths_m"]))}


def _write_files(root: Path, files: dict[str, str]) -> str:
    for name, text in files.items():
        (root / name).write_bytes(text.encode("utf-8"))
    return str(root)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_csv_plan_loads_as_its_json_form(data):
    plan = data.draw(_plans())
    files = data.draw(_csv_trio(plan))
    with tempfile.TemporaryDirectory() as tmp:
        spec = load_garage_spec(_write_files(Path(tmp), files))
    assert spec == parse_garage_spec(json.dumps({"schema": "garage-spec/1", **plan}))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_csv_plan_with_an_empty_field_exits_2(data):
    files = data.draw(_csv_trio(data.draw(_plans())))
    name = data.draw(st.sampled_from(sorted(files)))
    lines = files[name].splitlines()
    k = data.draw(st.sampled_from([k for k, line in enumerate(lines) if line.strip()]))
    fields = lines[k].split(",")
    fields.insert(data.draw(st.integers(0, len(fields))), data.draw(st.sampled_from(["", " "])))
    lines[k] = ",".join(fields)
    files[name] = "\n".join(lines) + "\n"
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", _write_files(Path(tmp), files)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().splitlines() == [
        f"error: invalid {Path(tmp) / name} field JSON at line {k + 1}: Expecting value"]


class TestGenerate:
    def test_counts_summary(self, spec_file, tmp_path, capsys):
        out = tmp_path / "scene.json"
        assert main(["generate", str(spec_file), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "9 floor_tile" in text and "4 column" in text and "9 lamp" in text

    def test_scene_counts(self, spec_file, tmp_path):
        out = tmp_path / "scene.json"
        main(["generate", str(spec_file), "--out", str(out)])
        scene = import_scene(out.read_text(encoding="utf-8"))
        from garagesim.scene import NodeKind

        assert scene.count(NodeKind.FLOOR_TILE) == 9
        assert scene.count(NodeKind.COLUMN) == 4
        assert scene.count(NodeKind.LAMP) == 9

    def test_dim_lamp_count(self, spec_file, tmp_path):
        out = tmp_path / "scene.json"
        main(["generate", str(spec_file), "--light", "dim", "--out", str(out)])
        scene = import_scene(out.read_text(encoding="utf-8"))
        from garagesim.scene import NodeKind

        assert scene.count(NodeKind.LAMP) == 4

    def test_prune_columns(self, spec_file, tmp_path):
        out = tmp_path / "scene.json"
        main(["generate", str(spec_file), "--prune-columns", "1,1", "--out", str(out)])
        scene = import_scene(out.read_text(encoding="utf-8"))
        from garagesim.scene import NodeKind

        assert scene.count(NodeKind.COLUMN) == 3

    def test_invalid_spec_exit_1(self, tmp_path, capsys):
        bad = GarageSpec(((-1, -1), (-1, -1)), (5.0, 5.0), (6.0, 6.0))
        p = tmp_path / "bad.json"
        p.write_text(emit_garage_spec(bad), encoding="utf-8")
        assert main(["generate", str(p), "--out", str(tmp_path / "s.json")]) == 1
        assert "no-lanes" in capsys.readouterr().err

    def test_byte_identical_outputs(self, spec_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", str(spec_file), "--out", str(a)])
        main(["generate", str(spec_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_occupancy_plan(self, tmp_path):
        spec = GarageSpec(((1, 1), (0, 0)), (6.0, 5.0), (3.0, 3.0))
        sp = tmp_path / "plan.json"
        sp.write_text(emit_garage_spec(spec), encoding="utf-8")
        plan = {
            "schema": "occupancy-plan/1",
            "entries": [{"cell": [1, 0], "size": "small"}],
        }
        pp = tmp_path / "occupancy.json"
        pp.write_text(json.dumps(plan), encoding="utf-8")
        out = tmp_path / "scene.json"
        assert main(["generate", str(sp), "--occupancy", str(pp),
                     "--out", str(out)]) == 0
        scene = import_scene(out.read_text(encoding="utf-8"))
        assert scene.node("veh-1-0").tags["vehicle_size"] == "small"

    @pytest.mark.parametrize("entry", [
        {"cell": [0.9, "1"], "size": "small", "force": True},
        {"cell": [True, 2], "size": "small", "force": True},
        {"cell": [1, 0], "size": "small", "parked": "false"},
        {"cell": [1, 0], "size": "small", "force": "true"},
    ])
    def test_coerced_plan_entry_exit_2(self, tmp_path, capsys, entry):
        sp = tmp_path / "plan.json"
        sp.write_text(emit_garage_spec(GarageSpec(((1, 1, 1), (0, 0, 0)), (6.0, 5.0),
                                                  (3.0, 3.0, 3.0))), encoding="utf-8")
        pp = tmp_path / "occupancy.json"
        pp.write_text(json.dumps({"schema": "occupancy-plan/1", "entries": [entry]}),
                      encoding="utf-8")
        out = tmp_path / "s.json"
        assert main(["generate", str(sp), "--occupancy", str(pp), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "plan entry 0" in err[0], err
        assert not out.exists()

    def test_bad_plan_exit_1(self, tmp_path):
        spec = GarageSpec(((1, 1), (0, 0)), (6.0, 5.0), (3.0, 3.0))
        sp = tmp_path / "plan.json"
        sp.write_text(emit_garage_spec(spec), encoding="utf-8")
        plan = {"schema": "occupancy-plan/1",
                "entries": [{"cell": [0, 0], "size": "small"}]}  # lane, no force
        pp = tmp_path / "occupancy.json"
        pp.write_text(json.dumps(plan), encoding="utf-8")
        assert main(["generate", str(sp), "--occupancy", str(pp),
                     "--out", str(tmp_path / "s.json")]) == 1

    def test_stdout_mode(self, spec_file, capsys):
        assert main(["generate", str(spec_file)]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["schema"] == "scene/1"
        assert "nodes:" in captured.err

    def test_obj_export(self, spec_file, tmp_path):
        out = tmp_path / "scene.json"
        obj = tmp_path / "scene.obj"
        main(["generate", str(spec_file), "--out", str(out), "--obj", str(obj)])
        assert obj.read_text(encoding="utf-8").startswith("# garagesim box mesh")


class TestScenario:
    def test_case1_writes_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["scenario", "--case", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == "report/1"
        assert doc["stats"]["veh-target"]["clears_to_high_visibility"] is True
        csv = tmp_path / "report.veh-target.csv"
        assert csv.exists()
        header = csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "s_m,x,y,heading_rad,in_frustum,visible_fraction,confidence_ext"
        assert "clears" in capsys.readouterr().out

    def test_case3_per_target_csv(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["scenario", "--case", "3",
                     "--layout", "close:large,far:small", "--out", str(out)]) == 0
        assert (tmp_path / "r.veh-close.csv").exists()
        assert (tmp_path / "r.veh-far.csv").exists()

    def test_unknown_case_usage_error(self, tmp_path):
        assert main(["scenario", "--case", "4", "--out", str(tmp_path / "r.json")]) == 2

    def test_bad_construction_exit_1(self, tmp_path):
        assert main(["scenario", "--case", "2", "--column-offset", "9",
                     "--lane-distance", "8", "--out", str(tmp_path / "r.json")]) == 1

    def test_scene_merge_accepts_generate_output(self, spec_file, tmp_path):
        scene_out = tmp_path / "scene.json"
        main(["generate", str(spec_file), "--out", str(scene_out)])
        out = tmp_path / "report.json"
        assert main(["scenario", "--case", "1", "--scene", str(scene_out),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == "report/1"

    @pytest.mark.parametrize("center, yaw", [("[5, 1e999, 1]", "NaN"), ("[5, 1e999, 1]", "0.0")])
    def test_scene_with_non_finite_box_exit_2(self, tmp_path, capsys, center, yaw):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"schema": "scene/1", "light_level": "bright", "bounds": {"center": [0, 0, 0],'
            ' "half_extents": [50, 50, 3], "yaw": 0.0}, "nodes": [{"id": "x", "kind":'
            f' "column", "center": {center}, "half_extents": [1, 1, 1], "yaw": {yaw},'
            ' "tags": {}}]}', encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["scenario", "--case", "1", "--scene", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("cell_kind", ["lane", "entrance", "exit"])
    def test_scene_with_untagged_drivable_tile_exit_2(self, tmp_path, capsys, cell_kind):
        bad = tmp_path / "notag.json"
        bad.write_text(
            '{"schema": "scene/1", "light_level": "bright", "bounds": {"center": [0, 0, 0],'
            ' "half_extents": [50, 50, 3], "yaw": 0.0}, "nodes": [{"id": "f", "kind":'
            ' "floor_tile", "center": [5, 5, 0.025], "half_extents": [3, 3, 0.025],'
            f' "yaw": 0.0, "tags": {{"cell_kind": "{cell_kind}"}}}}]}}', encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["scenario", "--case", "1", "--scene", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "cell tag" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("nodes", ["[1]", '["x"]', "[[1, 2]]", "5", None])
    def test_scene_of_non_objects_exit_2(self, tmp_path, capsys, nodes):
        bad = tmp_path / "bad.json"
        bad.write_text("[1]" if nodes is None else
                       '{"schema": "scene/1", "light_level": "bright", "bounds": {"center":'
                       ' [0, 0, 0], "half_extents": [50, 50, 3], "yaw": 0.0}, "nodes": %s}'
                       % nodes, encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["scenario", "--case", "1", "--scene", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not out.exists()

    def test_reports_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["scenario", "--case", "1", "--out", str(a)])
        main(["scenario", "--case", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_light_flag_raises_score(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["scenario", "--case", "1", "--out", str(a)])
        main(["scenario", "--case", "1", "--light", "dim", "--out", str(b)])
        sa = json.loads(a.read_text(encoding="utf-8"))["score"]["total"]
        sb = json.loads(b.read_text(encoding="utf-8"))["score"]["total"]
        assert sb > sa


class TestScore:
    @pytest.fixture
    def report_file(self, tmp_path) -> Path:
        out = tmp_path / "report.json"
        main(["scenario", "--case", "1", "--out", str(out)])
        return out

    def test_default_weights(self, report_file, capsys):
        assert main(["score", str(report_file)]) == 0
        assert "difficulty" in capsys.readouterr().out

    def test_occlusion_only_weights(self, report_file, capsys):
        assert main(["--format", "json", "score", str(report_file),
                     "--weights", "1,0,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == pytest.approx(100.0 * doc["occlusion_term"])

    def test_bad_weights_exit_2(self, report_file, tmp_path, capsys):
        assert main(["score", str(report_file), "--weights", "0.5,0.5,0.5"]) == 2
        scenario = ["scenario", "--case", "1", "--out", str(tmp_path / "bad.json")]
        score = ["score", str(report_file)]
        bad_score_options = [
            ["--weights", "2,-1,0"],
            ["--weights", "1.5,-0.5,0"],
            ["--weights", "nan,0.5,0.5"],
            ["--blackout-threshold", "nan"],
            ["--blackout-threshold", "1.5"],
        ]
        bad_run_options = [
            ["--step", "0"],
            ["--step", "nan"],
            ["--step", "inf"],
            ["--fov", "200"],
            ["--mount-height", "0"],
            ["--mount-height", "nan"],
            ["--aspect", "0"],
            ["--aspect", "nan"],
        ]
        bad_case_geometry = [
            ["--case", "1", "--column-setback", "nan"],
            ["--case", "1", "--target-distance", "nan"],
            ["--case", "1", "--lane-width", "inf"],
            ["--case", "2", "--lane-distance", "nan"],
            ["--case", "2", "--column-offset", "nan"],
            ["--case", "2", "--column-offset=-inf"],
        ]
        cases = [[*cmd, *opt] for cmd in (scenario, score) for opt in bad_score_options]
        cases += [[*scenario, *opt] for opt in bad_run_options + bad_case_geometry]
        capsys.readouterr()
        for argv in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("fraction", ['"0.5"', "7.0", "-0.25", "true", "NaN", "null"])
    def test_bad_visible_fraction_exit_2(self, report_file, capsys, fraction):
        text = report_file.read_text(encoding="utf-8")
        report_file.write_text(re.sub(r'"visible_fraction": [^,\n]+',
                                      f'"visible_fraction": {fraction}', text), encoding="utf-8")
        capsys.readouterr()
        assert main(["score", str(report_file)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "visible_fraction" in err[0], err

    def test_missing_report(self, tmp_path):
        assert main(["score", str(tmp_path / "none.json")]) == 2

    def test_csv_format(self, report_file, capsys):
        assert main(["--format", "csv", "score", str(report_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("total,occlusion_term")
        assert len(lines) == 2


class TestGlobalFlags:
    def test_seedless_accepted(self, spec_file):
        assert main(["--seedless", "validate", str(spec_file)]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_config_file_defaults(self, spec_file, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"format": "json"}), encoding="utf-8")
        assert main(["--config", str(cfg), "validate", str(spec_file)]) == 0
        json.loads(capsys.readouterr().out)  # json because the config said so

    def test_flags_override_config(self, spec_file, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"format": "json"}), encoding="utf-8")
        assert main(["--config", str(cfg), "--format", "human",
                     "validate", str(spec_file)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_config_sets_subcommand_flags(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"step": 5.0, "light": "dim"}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg), "scenario", "--case", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert (doc["light_level"], doc["sweeps"]["veh-target"]["step_m"]) == ("dim", 5.0)
        # flags still win over the config, on the subcommand and at the top level
        assert main(["--config", str(cfg), "scenario", "--case", "1", "--step", "0.5",
                     "--light", "bright", "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert (doc["light_level"], doc["sweeps"]["veh-target"]["step_m"]) == ("bright", 0.5)

    @pytest.mark.parametrize("config, command", [
        ({"step": [1]}, ["scenario", "--case", "1", "--out", "{out}"]),
        ({"step": True}, ["scenario", "--case", "1", "--out", "{out}"]),
        ({"weights": 5}, ["scenario", "--case", "1", "--out", "{out}"]),
        ({"light": "neon"}, ["scenario", "--case", "1", "--out", "{out}"]),
        ({"layout": 5}, ["scenario", "--case", "3", "--out", "{out}"]),
        ({"layout": [["close", "large"]]}, ["scenario", "--case", "3", "--out", "{out}"]),
        ({"prune_columns": 5}, ["generate", "{spec}", "--out", "{out}"]),
        ({"format": "xml"}, ["validate", "{spec}"]),
        ({"seedless": "yes"}, ["validate", "{spec}"]),
    ])
    def test_config_values_checked_like_flags(self, spec_file, tmp_path, capsys, config,
                                              command):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out.json"
        argv = [a.format(spec=spec_file, out=out) for a in command]
        assert main(["--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config value "), err
        assert not out.exists()

    def test_bad_config(self, spec_file, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1,2,3]", encoding="utf-8")
        assert main(["--config", str(cfg), "validate", str(spec_file)]) == 2

    def test_config_key_naming_no_flag(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"stpe": 0.01, "weigths": "1,0,0"}), encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["--config", str(cfg), "scenario", "--case", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'stpe'" in err[0], err
        assert not out.exists()


BIG = "1" * 400  # a JSON integer that float() cannot hold


def _wide_plan(tmp_path, out):
    plan = tmp_path / "plan.json"
    plan.write_text(emit_garage_spec(ALL_LANE_3X3).replace("6.0", BIG, 1), encoding="utf-8")
    return ["validate", str(plan)]


def _far_scene_box(tmp_path, out):
    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"schema": "scene/1", "light_level": "bright", "bounds": {"center": [0, 0, 0],'
        ' "half_extents": [50, 50, 3], "yaw": 0.0}, "nodes": [{"id": "x", "kind":'
        f' "column", "center": [5, {BIG}, 1], "half_extents": [1, 1, 1], "yaw": 0.0,'
        ' "tags": {}}]}', encoding="utf-8")
    return ["scenario", "--case", "1", "--scene", str(scene), "--out", str(out)]


def _far_occupancy_cell(tmp_path, out):
    spec, plan = tmp_path / "plan.json", tmp_path / "occupancy.json"
    spec.write_text(emit_garage_spec(ALL_LANE_3X3), encoding="utf-8")
    plan.write_text('{"schema": "occupancy-plan/1", "entries": [{"cell": [1e400, 0],'
                    ' "size": "small", "force": true}]}', encoding="utf-8")
    return ["generate", str(spec), "--occupancy", str(plan), "--out", str(out)]


def _huge_config_step(tmp_path, out):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"step": %s}' % BIG, encoding="utf-8")
    return ["--config", str(cfg), "scenario", "--case", "1", "--out", str(out)]


def _huge_report_fraction(tmp_path, out):
    report = tmp_path / "report.json"
    assert main(["scenario", "--case", "1", "--out", str(report)]) == 0
    text = report.read_text(encoding="utf-8")
    report.write_text(re.sub(r'"visible_fraction": [^,\n]+', f'"visible_fraction": {BIG}',
                             text, count=1), encoding="utf-8")
    return ["score", str(report)]


def _huge_sweep(tmp_path, out):
    return ["scenario", "--case", "1", "--column-setback=1e308", "--out", str(out)]


def _scene_box_past_the_bound(tmp_path, out):
    # finite, but past the 2**129 every box value is held to
    scene = tmp_path / "scene.json"
    scene.write_text(_scene_with_node('"center": [5, 1e300, 1], "half_extents": [1, 1, 1]'),
                     encoding="utf-8")
    return ["scenario", "--case", "1", "--scene", str(scene), "--out", str(out)]


def _merged_bounds_past_the_bound(tmp_path, out):
    # a box within the bound whose turned corners, and so the merged
    # scene's bounds, reach past it
    scene = tmp_path / "scene.json"
    scene.write_text(_scene_with_node('"center": [0, 0, 1], "half_extents": [6.5e38, 6.5e38, 1],'
                                      ' "yaw": 0.75'), encoding="utf-8")
    return ["scenario", "--case", "1", "--scene", str(scene), "--out", str(out)]


def _lamps_past_the_bound(tmp_path, out):
    # bounds within the bound whose top, where the lamps over the lane tile
    # hang, is not
    scene = tmp_path / "scene.json"
    scene.write_text(_scene_with_node(
        '"center": [0, 0, 5e38], "half_extents": [1, 1, 5e38]},'
        ' {"id": "tile", "kind": "floor_tile", "center": [40, 0, 0.025],'
        ' "half_extents": [1, 1, 0.025], "yaw": 0.0, "tags": {"cell_kind": "lane", "cell": "0,0"}'),
        encoding="utf-8")
    return ["scenario", "--case", "1", "--scene", str(scene), "--out", str(out)]


def _long_config_integer(tmp_path, out):
    # past int's 4,300-digit limit, where json raises a bare ValueError
    cfg = tmp_path / "config.json"
    cfg.write_text('{"step": %s}' % ("1" * 5000), encoding="utf-8")
    return ["--config", str(cfg), "scenario", "--case", "1", "--out", str(out)]


def _camera_past_the_bound(tmp_path, out):
    return ["scenario", "--case", "1", "--mount-height", "1e300", "--out", str(out)]


def _scene_with_node(box: str) -> str:
    """scene/1 text of one column node with the given box fields."""
    return ('{"schema": "scene/1", "light_level": "bright", "bounds": {"center": [0, 0, 0],'
            ' "half_extents": [50, 50, 3], "yaw": 0.0}, "nodes": [{"id": "x", "kind": "column",'
            ' "yaw": 0.0, "tags": {}, %s}]}' % box)


@pytest.mark.parametrize("make_argv", [
    _wide_plan, _far_scene_box, _far_occupancy_cell, _huge_config_step,
    _huge_report_fraction, _huge_sweep, _scene_box_past_the_bound, _merged_bounds_past_the_bound,
    _lamps_past_the_bound, _camera_past_the_bound, _long_config_integer,
], ids=lambda make_argv: make_argv.__name__.lstrip("_"))
def test_out_of_range_number_exit_2(tmp_path, capsys, make_argv):
    out = tmp_path / "out.json"
    argv = make_argv(tmp_path, out)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


DEEP = "[" * 100_000  # past the recursion limit of every JSON reader


def _deep_plan(tmp_path, out):
    plan = tmp_path / "plan.json"
    plan.write_text('{"schema": "garage-spec/1", "structure": %s}' % DEEP, encoding="utf-8")
    return ["validate", str(plan)]


def _deep_plan_document(tmp_path, out):
    plan = tmp_path / "plan.json"
    plan.write_text(DEEP, encoding="utf-8")
    return ["generate", str(plan), "--out", str(out)]


def _deep_scene(tmp_path, out):
    scene = tmp_path / "scene.json"
    scene.write_text('{"schema": "scene/1", "light_level": "bright", "nodes": [{"id": "x",'
                     ' "kind": "column", "tags": %s}]}' % DEEP, encoding="utf-8")
    return ["scenario", "--case", "1", "--scene", str(scene), "--out", str(out)]


def _deep_scene_document(tmp_path, out):
    scene = tmp_path / "scene.json"
    scene.write_text(DEEP, encoding="utf-8")
    return ["scenario", "--case", "2", "--scene", str(scene), "--out", str(out)]


def _deep_occupancy(tmp_path, out):
    spec, plan = tmp_path / "plan.json", tmp_path / "occupancy.json"
    spec.write_text(emit_garage_spec(ALL_LANE_3X3), encoding="utf-8")
    plan.write_text('{"schema": "occupancy-plan/1", "entries": %s' % DEEP, encoding="utf-8")
    return ["generate", str(spec), "--occupancy", str(plan), "--out", str(out)]


def _deep_report(tmp_path, out):
    report = tmp_path / "report.json"
    report.write_text('{"schema": "report/1", "sweeps": %s' % DEEP, encoding="utf-8")
    return ["score", str(report)]


def _deep_report_document(tmp_path, out):
    report = tmp_path / "report.json"
    report.write_text(DEEP, encoding="utf-8")
    return ["score", str(report)]


def _deep_config(tmp_path, out):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"step": %s}' % DEEP, encoding="utf-8")
    return ["--config", str(cfg), "scenario", "--case", "1", "--out", str(out)]


@pytest.mark.parametrize("make_argv", [
    _deep_plan, _deep_plan_document, _deep_scene, _deep_scene_document, _deep_occupancy,
    _deep_report, _deep_report_document, _deep_config,
], ids=lambda make_argv: make_argv.__name__.lstrip("_"))
def test_deeply_nested_json_exit_2(tmp_path, capsys, make_argv):
    out = tmp_path / "out.json"
    argv = make_argv(tmp_path, out)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "nested too deeply" in err[0], err
    assert not out.exists()


NOT_UTF8 = b"\xff\xfe{"  # a UTF-16 byte-order mark, then a brace


def _not_utf8(path: Path) -> str:
    path.write_bytes(NOT_UTF8)
    return str(path)


def _plan(tmp_path: Path) -> str:
    plan = tmp_path / "plan.json"
    plan.write_text(emit_garage_spec(ALL_LANE_3X3), encoding="utf-8")
    return str(plan)


def _csv_plan(tmp_path: Path) -> str:
    for name, text in (("structure.csv", "1,1\n1,1\n"), ("rows.csv", "6,6\n"),
                       ("cols.csv", "6,6\n")):
        (tmp_path / name).write_text(text, encoding="utf-8")
    _not_utf8(tmp_path / "rows.csv")
    return str(tmp_path)


@pytest.mark.parametrize("make_argv", [
    lambda tmp_path, out: ["--config", _not_utf8(tmp_path / "config.json"), "validate",
                           _plan(tmp_path)],
    lambda tmp_path, out: ["score", _not_utf8(tmp_path / "report.json")],
    lambda tmp_path, out: ["validate", _not_utf8(tmp_path / "plan.json")],
    lambda tmp_path, out: ["validate", _csv_plan(tmp_path)],
    lambda tmp_path, out: ["generate", _not_utf8(tmp_path / "plan.json"), "--out", str(out)],
    lambda tmp_path, out: ["generate", _plan(tmp_path), "--occupancy",
                           _not_utf8(tmp_path / "occupancy.json"), "--out", str(out)],
    lambda tmp_path, out: ["scenario", "--case", "1", "--scene",
                           _not_utf8(tmp_path / "scene.json"), "--out", str(out)],
], ids=["config", "score", "validate", "validate-csv", "generate", "generate-occupancy",
        "scenario-scene"])
def test_non_utf8_input_exit_2(tmp_path, capsys, make_argv):
    out = tmp_path / "out.json"
    argv = make_argv(tmp_path, out)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not UTF-8" in err[0], err
    assert not out.exists()


# --- the per-command parser against the full one ------------------------------------


def _outcome(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code, args = run(argv)
    return code, out.getvalue(), err.getvalue(), args


@pytest.fixture
def same_parse(monkeypatch):
    """Checks that main parses argv as the full parser does: the same exit
    code, stdout and stderr, and where the parse succeeds the same values of
    the flags the command has.  Every command's handler is replaced by one
    that records its arguments, so nothing runs; help is 80 columns wide."""
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for name in ("_cmd_validate", "_cmd_generate", "_cmd_scenario", "_cmd_score"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)

    def run_main(argv):
        seen.clear()
        return main(argv), (seen[0] if seen else None)

    def check(argv):
        code, out, err, args = _outcome(run_main, argv)
        want = _outcome(parse_command_line, argv)
        assert (code, out, err) == want[:3]
        assert (args is None) == (want[3] is None)
        if args is not None:
            # the full parser also takes config values for other commands' flags
            assert vars(args).items() <= vars(want[3]).items()
            assert set(vars(args)) == {"command"} | {
                flag.dest for flag in cli.FLAGS[None] + cli.FLAGS[args.command]}
        return code, out, err

    return check


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["--version"], ["--help", "scenario"], ["--version", "score", "r.json"],
    [], ["bogus"], ["scenario"], ["validate"], ["score", "--weights", "1,0,0"],
    ["validate", "--help"], ["generate", "--help"], ["scenario", "--help"], ["score", "-h"],
    ["scenario", "--case", "1"], ["scenario", "--case", "1", "--out", "r.json", "--bogus"],
    ["scenario", "--case", "1", "--out", "r.json", "--light", "neon"],
    ["scenario", "--case", "1", "--out", "r.json", "--step", "fast"],
    ["score", "r.json", "--weights"], ["score", "r.json", "--format", "json"],
    ["--format", "xml", "validate", "p.json"], ["--format", "--help", "validate", "p.json"],
    ["--conf", "c.json", "score", "r.json"], ["--conf", "scenario", "score", "r.json"],
    ["--form", "score", "validate", "p.json"], ["--form", "json", "score"],
    ["--config=score", "validate", "p.json"], ["--config"], ["--seedless=1", "validate", "p"],
    ["--", "validate", "p.json"], ["-x", "validate", "p.json"],
    ["--seedless", "--format=csv", "score", "r.json", "--blackout-threshold", "0.3"],
    ["--format", "json", "scenario", "--case", "3", "--layout", "close:small", "--out", "r.json"],
    ["generate", "p.json", "--light", "dim", "--prune-columns", "1,1", "--obj", "m.obj"],
])
def test_parse_matches_the_full_parser(same_parse, argv):
    same_parse(argv)


def test_help_lists_every_command_and_prints_at_any_width(same_parse, monkeypatch):
    code, out, _ = same_parse(["--help"])
    assert code == 0 and "{validate,generate,scenario,score}" in out
    for command, text in cli.COMMANDS.items():
        assert re.search(rf"^    {command} +{re.escape(text)}$", out, re.M), command
    monkeypatch.setenv("COLUMNS", "200")
    for argv in (["--help"], ["scenario", "--help"], ["score", "/r.json", "--bad"]):
        same_parse(argv)


BIG_STEP = '{"step": %s}' % BIG
DEEP_STEP = '{"step": %s}' % ("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("config, command", [
    # each --config error of the tests above
    ({"step": [1]}, ["scenario", "--case", "1", "--out", "r.json"]),
    ({"step": True}, ["scenario", "--case", "1", "--out", "r.json"]),
    ({"weights": 5}, ["scenario", "--case", "1", "--out", "r.json"]),
    ({"light": "neon"}, ["scenario", "--case", "1", "--out", "r.json"]),
    ({"layout": 5}, ["scenario", "--case", "3", "--out", "r.json"]),
    ({"layout": [["close", "large"]]}, ["scenario", "--case", "3", "--out", "r.json"]),
    ({"prune_columns": 5}, ["generate", "p.json", "--out", "r.json"]),
    ({"format": "xml"}, ["validate", "p.json"]),
    ({"seedless": "yes"}, ["validate", "p.json"]),
    ("[1,2,3]", ["validate", "p.json"]),
    ({"stpe": 0.01, "weigths": "1,0,0"}, ["scenario", "--case", "1", "--out", "r.json"]),
    (BIG_STEP, ["scenario", "--case", "1", "--out", "r.json"]),
    (DEEP_STEP, ["scenario", "--case", "1", "--out", "r.json"]),
    ("{", ["score", "r.json"]),
    ({"spec": "p.json"}, ["validate"]),
    ({"help": True}, ["score", "r.json"]),
    ({"blackout_threshold": "high", "format": "xml"}, ["score", "r.json"]),
    # and config values that every parser takes, those of other commands' flags too
    ({"blackout_threshold": 0.25}, ["scenario", "--case", "1", "--out", "r.json"]),
    ({"step": 5.0, "light": "dim"}, ["scenario", "--case", "1", "--out", "r.json"]),
    ({"step": 5.0, "light": "dim"}, ["scenario", "--case", "1", "--step", "0.5",
                                     "--light", "bright", "--out", "r.json"]),
    ({"format": "json", "seedless": True}, ["validate", "p.json"]),
    ({"light": "clear", "blackout-threshold": "0.5", "prune_columns": "1,1"}, ["score", "r.json"]),
    ({"config": "other.json", "case": "2", "out": "x.json"}, ["scenario", "--case", "1"]),
])
def test_config_parse_matches_the_full_parser(same_parse, tmp_path, config, command):
    cfg = tmp_path / "config.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    for argv in (["--config", str(cfg), *command], [f"--config={cfg}", *command],
                 [*command, "--config", str(cfg)], ["--conf", str(cfg), *command]):
        same_parse(argv)


_TOKENS = ["validate", "generate", "scenario", "score", "-h", "--help", "--version", "--config",
           "--config=CFG", "CFG", "--conf", "--form", "--format", "--format=json", "json", "xml",
           "--seedless", "--case", "1", "--out", "r.json", "--step", "0.5", "--light", "dim",
           "--weights", "1,0,0", "--blackout-threshold", "--layout", "--", "-x", "p.json"]


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_TOKENS), max_size=7))
def test_any_command_line_parses_as_the_full_parser_does(same_parse, tmp_path, tokens):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"light": "clear", "blackout_threshold": 0.25, "step": 2.0}),
                   encoding="utf-8")
    same_parse([token.replace("CFG", str(cfg)) for token in tokens])


def test_flag_table_light_levels_are_the_library_levels():
    for command in ("generate", "scenario"):
        light = next(flag for flag in cli.FLAGS[command] if flag.name == "--light")
        assert light.choices == tuple(level.value for level in LightLevel)


def test_each_call_builds_the_flags_of_its_command_only(monkeypatch):
    # nothing is kept between calls: each builds what a fresh process builds,
    # the top level's flags and those of the command argv names
    built = []
    add_flags = cli._add_flags
    monkeypatch.setattr(cli, "_add_flags", lambda parser, *rest: built.append(parser.prog)
                        or add_flags(parser, *rest))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for _ in range(2):
            main(["--format", "json", "score", "/no/report.json"])
        assert built == ["garagesim", "garagesim score"] * 2
        built.clear()
        main(["--help"])
    assert built == ["garagesim", *(f"garagesim {command}" for command in cli.COMMANDS)]


# --- one path per command -------------------------------------------------------------


@pytest.mark.parametrize("with_scene", [False, True], ids=["alone", "with-scene"])
@pytest.mark.parametrize("case", ["1", "2", "3"])
def test_scenario_prepares_its_scene_in_one_step(spec_file, tmp_path, monkeypatch, case,
                                                 with_scene):
    # re-lit in one copy and indexed once, from the columns the merge took
    # for the bounds, whether or not --scene adds a garage
    from garagesim import scene as scene_module, visibility

    argv = ["scenario", "--case", case, "--light", "dim", "--out", str(tmp_path / "r.json")]
    if with_scene:
        garage = tmp_path / "garage.json"
        assert main(["generate", str(spec_file), "--out", str(garage)]) == 0
        argv += ["--scene", str(garage)]
    relit, indexed = [], []
    _relit = scene_module._relit
    monkeypatch.setattr(scene_module, "_relit", lambda *a: relit.append(a) or _relit(*a))
    index_init = visibility.SceneIndex.__init__
    monkeypatch.setattr(visibility.SceneIndex, "__init__",
                        lambda self, *a: indexed.append(a) or index_init(self, *a))
    assert main(argv) == 0
    assert len(relit) == 1 and len(relit[0][0]) == 1 + with_scene
    assert len(indexed) == 1 and indexed[0][1] is not None, "the index takes the merge's columns"


def _validate_calls(monkeypatch) -> list:
    """The plans grid.validate is called on, wherever a module took it."""
    import garagesim
    from garagesim import classify, grid

    calls = []
    validate_plan = grid.validate

    def counting(spec):
        calls.append(spec)
        return validate_plan(spec)

    for module in (garagesim, grid, classify, cli):
        monkeypatch.setattr(module, "validate", counting)
    return calls


def test_generate_validates_a_valid_plan_once(spec_file, tmp_path, monkeypatch):
    calls = _validate_calls(monkeypatch)
    assert main(["generate", str(spec_file), "--out", str(tmp_path / "s.json")]) == 0
    assert len(calls) == 1


def test_generate_validates_an_invalid_plan_once(tmp_path, capsys, monkeypatch):
    plan = tmp_path / "bad.json"
    plan.write_text(emit_garage_spec(GarageSpec(((-1, 5), (-1, -1)), (5.0, float("nan")),
                                                (6.0, 6.0))), encoding="utf-8")
    calls = _validate_calls(monkeypatch)
    capsys.readouterr()
    assert main(["generate", str(plan), "--out", str(tmp_path / "s.json")]) == 1
    assert len(calls) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "violation code-range at cell(0,1): code 5 outside [-1, 3]\n"
        "violation width-positive at row_widths[1]: width nan is not a positive finite number\n"
        "violation no-lanes at structure: plan contains no drivable squares\n")
    # validate prints the same lines, to stdout
    assert main(["validate", str(plan)]) == 1
    assert capsys.readouterr() == (captured.err, "")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("corners", ["99,99", "0,1", "1,2", "2,1", "-1,1", "1,1;3,1"])
@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_prune_corner_off_the_interior_exit_2(tmp_path, capsys, corners, by_config):
    # a 2x2 plan has one interior corner, 1,1
    plan = tmp_path / "plan.json"
    plan.write_text(emit_garage_spec(GarageSpec(((1, 1), (1, 1)), (6.0, 6.0), (6.0, 6.0))),
                    encoding="utf-8")
    out = tmp_path / "s.json"
    argv = ["generate", str(plan), "--out", str(out)]
    if by_config:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"prune_columns": corners}), encoding="utf-8")
        argv = ["--config", str(config), *argv]
    else:
        argv.append(f"--prune-columns={corners}")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    bad = corners.split(";")[-1]
    assert err == [f"error: prune corner {bad} is not an interior corner of the 2x2 plan"]
    assert not out.exists()
    assert main(["generate", str(plan), "--prune-columns", "1,1", "--out", str(out)]) == 0


# --- error paths of the readers and the flags ------------------------------------------


def _report(tmp_path: Path) -> str:
    report = tmp_path / "report.json"
    assert main(["scenario", "--case", "1", "--step", "4", "--out", str(report)]) == 0
    return str(report)


def _written(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _no_samples(tmp_path: Path) -> str:
    doc = json.loads(Path(_report(tmp_path)).read_text(encoding="utf-8"))
    for sw in doc["sweeps"].values():
        sw["samples"] = []
    return _written(tmp_path / "empty.json", json.dumps(doc))


def _csv_dir(tmp_path: Path, structure: str, cols: str, rows: str = "5\n5\n") -> str:
    """A plan directory of the CSV trio with the given file texts."""
    for name, text in (("structure.csv", structure), ("rows.csv", rows), ("cols.csv", cols)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    return str(tmp_path)


@pytest.mark.parametrize("make_argv, words", [
    (lambda tmp, out: ["score", _report(tmp), "--weights", "1,2"], "three comma-separated"),
    (lambda tmp, out: ["score", _report(tmp), "--weights", "a,b,c"], "non-numeric weight"),
    (lambda tmp, out: ["scenario", "--case", "1", "--weights", "1,2", "--out", str(out)],
     "three comma-separated"),
    (lambda tmp, out: ["generate", _plan(tmp), "--prune-columns", "1", "--out", str(out)],
     "bad corner '1'"),
    (lambda tmp, out: ["generate", _plan(tmp), "--prune-columns", "a,b", "--out", str(out)],
     "bad corner 'a,b'"),
    (lambda tmp, out: ["scenario", "--case", "3", "--layout", "close", "--out", str(out)],
     "bad layout entry 'close'"),
    (lambda tmp, out: ["score", _written(tmp / "r.json", '{"schema": "report/1",')],
     "invalid report JSON"),
    (lambda tmp, out: ["score", _no_samples(tmp)], "report has no sweep samples"),
    (lambda tmp, out: ["generate", _plan(tmp), "--occupancy", _written(tmp / "o.json", "{"),
                       "--out", str(out)], "invalid occupancy plan JSON at line 1: "),
    (lambda tmp, out: ["generate", _plan(tmp), "--occupancy",
                       _written(tmp / "o.json", '{"schema": "scene/1", "entries": []}'),
                       "--out", str(out)], "occupancy-plan/1"),
    (lambda tmp, out: ["scenario", "--case", "1", "--scene", _written(tmp / "s.json", "[1,"),
                       "--out", str(out)], "scene"),
    (lambda tmp, out: ["validate", _csv_dir(tmp, "1,,0\n1,,0\n", "3,3\n")],
     "structure.csv field JSON at line 1: Expecting value"),
    (lambda tmp, out: ["validate", _csv_dir(tmp, "0_1\n", "3\n")],
     "structure.csv field JSON at line 1: Extra data"),
    (lambda tmp, out: ["validate", _csv_dir(tmp, "1\n0\n", "3\n", "5\n\n.5\n")],
     "rows.csv field JSON at line 3: Expecting value"),
    (lambda tmp, out: ["validate", str(tmp / "nowhere")], "No such file or directory"),
    (lambda tmp, out: ["--config", str(tmp / "missing.json"), "validate", _plan(tmp)],
     "error: [Errno 2] No such file or directory: "),
    (lambda tmp, out: ["scenario", "--case", "1", "--scene", _written(
        tmp / "s.json", _scene_with_node('"half_extents": [1, 1, 1]')), "--out", str(out)],
     "node 'x' has no center"),
], ids=["score-weights-two", "score-weights-text", "scenario-weights-two", "prune-one-number",
        "prune-text", "layout-no-size", "score-bad-json", "score-no-samples",
        "occupancy-bad-json", "occupancy-wrong-schema", "scene-bad-json", "csv-empty-field",
        "csv-underscore", "csv-leading-point", "csv-missing-file", "config-missing-file",
        "scene-node-without-center"])
def test_reader_and_flag_errors_exit_2(tmp_path, capsys, make_argv, words):
    out = tmp_path / "out.json"
    argv = make_argv(tmp_path, out)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: ") and words in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["scenario", "--case", "1", "--weights=--"], "--weights"),
    (["scenario", "--case", "1", "--step=--"], "--step"),
    (["scenario", "--case", "3", "--layout=--"], "--layout"),
    (["scenario", "--case", "1", "--light=--"], "--light"),
    (["--format=--", "scenario", "--case", "1"], "--format"),
    (["generate", "PLAN", "--prune-columns=--"], "--prune-columns"),
])
def test_a_flag_value_of_two_dashes_exit_2(tmp_path, capsys, argv, flag):
    # argparse would hand the command an empty list for the value
    out = tmp_path / "out.json"
    argv = [_plan(tmp_path) if tok == "PLAN" else tok for tok in argv] + ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"garagesim: error: argument {flag}: expected one argument", err
    assert not out.exists()


#: each JSON reader, the kind its errors name and the schema it takes
_READERS = {
    "plan": ("garage-spec/1", lambda tmp, doc: ["validate", doc]),
    "occupancy plan": ("occupancy-plan/1", lambda tmp, doc: [
        "generate", _plan(tmp), "--occupancy", doc, "--out", str(tmp / "out.json")]),
    "scene": ("scene/1", lambda tmp, doc: [
        "scenario", "--case", "1", "--scene", doc, "--out", str(tmp / "out.json")]),
    "report": ("report/1", lambda tmp, doc: ["score", doc]),
}


@pytest.mark.parametrize("kind", _READERS)
@pytest.mark.parametrize("text, line", [
    ("{\n", "error: invalid {kind} JSON at line 2:"
             " Expecting property name enclosed in double quotes"),
    ('{"schema": "x/1"}', "error: expected schema '{schema}', got 'x/1'"),
    ('{"entries": []}', "error: expected schema '{schema}', got None"),
    ("1" * 5000, "error: invalid {kind} JSON: Exceeds the limit (4300 digits)"),
], ids=["bad-json", "wrong-schema", "no-schema", "long-integer"])
def test_json_readers_word_their_errors_alike(tmp_path, capsys, kind, text, line):
    schema, make_argv = _READERS[kind]
    argv = make_argv(tmp_path, _written(tmp_path / "doc.json", text))
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith(line.format(kind=kind, schema=schema)), err
    assert not (tmp_path / "out.json").exists()


def test_column_blocking_the_ego_path_exits_1(tmp_path, capsys):
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["scenario", "--case", "1", "--lane-width", "1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: column placement blocks the ego path\n")
    assert not out.exists()


def test_json_validate_of_a_plan_without_lanes_exits_1(tmp_path, capsys):
    plan = _written(tmp_path / "plan.json", emit_garage_spec(
        GarageSpec(((0, -1),), (6.0,), (3.0, 3.0))))
    capsys.readouterr()
    assert main(["--format", "json", "validate", plan]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {"ok": False, "violations": [
        {"rule": "no-lanes", "location": "structure",
         "message": "plan contains no drivable squares"}]}


def test_scenario_json_format_prints_the_report_summary(tmp_path, capsys):
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["--format", "json", "scenario", "--case", "3", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert captured.err == ""
    assert payload == {"label": "case3-parked-rows", "targets": ["veh-close", "veh-far"],
                       "score": report["score"], "stats": report["stats"]}


# --- fuzzed documents into the readers -------------------------------------------------

#: values a mutation puts in place of one in a valid document
_ODD_VALUES = (None, True, False, 0, -1, 3, 0.5, -0.0, 1e308, float("inf"), float("nan"),
               10**400, "", "x", "small", "report/1", [], [0, 0], [1.0, 2.0, 3.0], {}, {"a": 1})


def _places(doc, found=None) -> list:
    """(container, key) of every value in a JSON document, in order."""
    found = [] if found is None else found
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in items:
        found.append((doc, key))
        _places(value, found)
    return found


@st.composite
def _mutated(draw, text: str) -> str:
    """A JSON document's text with one to three values replaced or
    dropped, the whole document replaced, or the text cut short."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        places = _places(doc)
        spot = draw(st.integers(-1, len(places) - 1))
        new = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        if spot < 0:
            doc = new
        elif draw(st.booleans()):
            places[spot][0][places[spot][1]] = new
        else:
            container, key = places[spot]
            del container[key]
    text = json.dumps(doc, indent=1)
    if draw(st.integers(0, 5)) == 5:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _run_twice(argv: list[str], out: Path | None) -> tuple:
    """The exit code, stdout and stderr of main(argv), and the bytes of the
    files whose names start with out's stem, run twice: both runs must
    give the same, end in exit 0, 1 or 2 and print no traceback."""
    runs = []
    for _ in range(2):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        files = {}
        if out is not None:
            for path in sorted(out.parent.glob(f"{out.stem}*")):
                files[path.name] = path.read_bytes()
                path.unlink()
        runs.append((code, stdout.getvalue(), stderr.getvalue(), files))
    assert runs[0] == runs[1]
    code, _, err, _ = runs[0]
    assert code in (0, 1, 2) and "Traceback" not in err, (code, err)
    if code:
        assert len(err.splitlines()) >= 1 and not runs[0][3], err
    return runs[0]


@pytest.fixture(scope="module")
def fuzz_dir():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        report = root / "seed-report.json"
        assert main(["scenario", "--case", "2", "--step", "3", "--out", str(report)]) == 0
        plan = root / "plan.json"
        plan.write_text(emit_garage_spec(GarageSpec(((1, 1, 0), (0, 1, 3)), (6.0, 5.0),
                                                    (3.0, 6.0, 3.0))), encoding="utf-8")
        scene = root / "seed-scene.json"
        with redirect_stdout(io.StringIO()):
            assert main(["generate", str(plan), "--light", "dim", "--out", str(scene)]) == 0
        yield root


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(data=st.data())
def test_mutated_report_into_score(fuzz_dir, data):
    text = data.draw(_mutated((fuzz_dir / "seed-report.json").read_text(encoding="utf-8")))
    report = fuzz_dir / "fuzz-report.json"
    report.write_text(text, encoding="utf-8")
    fmt = data.draw(st.sampled_from(["human", "json", "csv"]))
    _run_twice(["--format", fmt, "score", str(report)], None)


@settings(_FUZZ, max_examples=60)
@given(data=st.data())
def test_mutated_scene_into_scenario(fuzz_dir, data):
    text = data.draw(_mutated((fuzz_dir / "seed-scene.json").read_text(encoding="utf-8")))
    scene = fuzz_dir / "fuzz-scene.json"
    scene.write_text(text, encoding="utf-8")
    out = fuzz_dir / "out" / "r.json"
    out.parent.mkdir(exist_ok=True)
    case = data.draw(st.sampled_from(["1", "2", "3"]))
    _run_twice(["scenario", "--case", case, "--step", "4", "--scene", str(scene),
                "--out", str(out)], out)


_OCCUPANCY = json.dumps({"schema": "occupancy-plan/1", "entries": [
    {"cell": [1, 0], "size": "small"},
    {"cell": [0, 0], "size": "large", "force": True, "parked": False},
    {"cell": [0, 2], "size": "medium", "color": "red"},
]})


@_FUZZ
@given(data=st.data())
def test_mutated_occupancy_into_generate(fuzz_dir, data):
    occupancy = fuzz_dir / "fuzz-occupancy.json"
    occupancy.write_text(data.draw(_mutated(_OCCUPANCY)), encoding="utf-8")
    out = fuzz_dir / "out" / "s.json"
    out.parent.mkdir(exist_ok=True)
    _run_twice(["generate", str(fuzz_dir / "plan.json"), "--occupancy", str(occupancy),
                "--out", str(out)], out)


# --- drawn command lines ---------------------------------------------------------------

#: the numeric flags of each case, each with a range of ordinary values
_CASE_FLAGS = {
    "1": {"--column-setback": (1.0, 20.0), "--lane-width": (3.0, 10.0),
          "--target-distance": (8.0, 40.0)},
    "2": {"--column-offset": (0.5, 6.0), "--lane-distance": (4.0, 20.0)},
    "3": {},
}
#: the numeric flags every case takes
_RUN_FLAGS = {"--step": (0.5, 4.0), "--fov": (30.0, 120.0), "--mount-height": (0.5, 3.0),
              "--aspect": (0.5, 3.0), "--blackout-threshold": (0.0, 1.0)}
#: zero, negative, subnormal, huge, at and past 2**129, NaN and infinite values
_EDGE_VALUES = ("0", "-0.0", "-1", "-1e300", "5e-324", "1e-310", "1e30", "1e300", repr(BOX_MAX),
                repr(2.0**129), "1e39", "1e400", "nan", "inf", "-inf")


@st.composite
def _value(draw, low: float, high: float) -> str:
    """A flag value: an edge value one time in three, else an ordinary one."""
    if draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(_EDGE_VALUES))
    return repr(draw(st.floats(low, high)))


@_FUZZ
@given(data=st.data())
def test_drawn_scenario_command_lines(fuzz_dir, data):
    # a command that runs writes a report whose rescore, with the run's
    # weights and threshold, is the score the run printed
    case = data.draw(st.sampled_from(sorted(_CASE_FLAGS)))
    flags = [f"{name}={data.draw(_value(*span))}"
             for name, span in {**_CASE_FLAGS[case], **_RUN_FLAGS}.items()
             if data.draw(st.booleans())]
    if data.draw(st.booleans()):
        weights = data.draw(st.one_of(
            st.sampled_from(["0.4,0.4,0.2", "1,0,0", "0.2,0.3,0.5"]),
            st.lists(_value(0.0, 1.0), min_size=3, max_size=3).map(",".join)))
        flags.append(f"--weights={weights}")
    out = fuzz_dir / "out" / "r.json"
    out.parent.mkdir(exist_ok=True)
    code, stdout, _, files = _run_twice(
        ["--format", "json", "scenario", "--case", case, *flags, "--out", str(out)], out)
    if code:
        return
    report = fuzz_dir / "rescored.json"
    report.write_bytes(files[out.name])
    score_flags = [f for f in flags if f.startswith(("--weights=", "--blackout-threshold="))]
    rescored = _run_twice(["--format", "json", "score", str(report), *score_flags], None)
    assert rescored[0] == 0, rescored
    ran, again = json.loads(stdout)["score"], json.loads(rescored[1])
    assert ran["weights"] == again["weights"]
    for term in ("total", "occlusion_term", "blackout_term", "light_term"):
        assert abs(ran[term] - again[term]) <= 1e-12, (term, ran, again)


#: corner lists, whole and in pieces; the fuzz plan is 2x3, with interior
#: corners 1,1 and 1,2
_CORNER_TOKENS = ("1,1", "1,2", "0,1", "2,2", "1,3", "99,99", "-1,1", "1", "1,1,1", "a,b", "",
                  " ", " 1 , 2 ", "+1,1", "1_1,1", "1.0,1", "1e0,1", "9" * 5000 + ",1", ";",
                  "١,٢")


@_FUZZ
@given(corners=st.lists(st.one_of(st.sampled_from(_CORNER_TOKENS),
                                  st.text(alphabet="0123456789,;- ", max_size=8)),
                        max_size=4).map(";".join))
def test_drawn_prune_corners_into_generate(fuzz_dir, corners):
    out = fuzz_dir / "out" / "p.json"
    out.parent.mkdir(exist_ok=True)
    code, _, err, _ = _run_twice(["generate", str(fuzz_dir / "plan.json"),
                                  f"--prune-columns={corners}", "--out", str(out)], out)
    assert code in (0, 2), err


# --- --config read once argv parses, and the one number rule ---------------------------


def test_an_abbreviated_config_flag_applies_its_file(tmp_path):
    cfg = _written(tmp_path / "step.json", '{"step": 2.0}')
    reports = []
    for flag in (["--config", cfg], ["--conf", cfg], [f"--config={cfg}"]):
        out = tmp_path / f"r{len(reports)}.json"
        assert main([*flag, "scenario", "--case", "1", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["sweeps"]["veh-target"]["step_m"] == 2.0


@pytest.mark.parametrize("make_argv, line", [
    (lambda tmp, out: ["scenario", "--case", "1", "--step", "0_5", "--out", out],
     "garagesim scenario: error: argument --step: invalid float value: '0_5'"),
    (lambda tmp, out: ["scenario", "--case", "1", "--step", "５", "--out", out],
     "garagesim scenario: error: argument --step: invalid float value: '５'"),
    (lambda tmp, out: ["scenario", "--case", "1", "--lane-width", "1_0", "--out", out],
     "garagesim scenario: error: argument --lane-width: invalid float value: '1_0'"),
    (lambda tmp, out: ["--config", _written(tmp / "c.json", '{"step": "0_5"}'),
                       "scenario", "--case", "1", "--out", out],
     "error: config value '0_5' is not a valid --step"),
    (lambda tmp, out: ["scenario", "--case", "1", "--weights", "0_4,0.4,0.2", "--out", out],
     "error: non-numeric weight in '0_4,0.4,0.2'"),
    (lambda tmp, out: ["generate", _plan(tmp), "--prune-columns", "١,١", "--out", out],
     "error: bad corner '١,١'"),
    (lambda tmp, out: ["generate", _plan(tmp), "--prune-columns", "0_1,1", "--out", out],
     "error: bad corner '0_1,1'"),
], ids=["step-underscore", "step-fullwidth", "lane-width-underscore", "config-underscore",
        "weights-underscore", "prune-arabic-indic", "prune-underscore"])
def test_a_number_past_ascii_or_with_an_underscore_exit_2(tmp_path, capsys, make_argv, line):
    out = tmp_path / "out.json"
    argv = make_argv(tmp_path, str(out))
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == line, captured.err
    assert not out.exists()


def test_numbers_in_python_spelling_still_read(tmp_path, capsys):
    reports = []
    for step in ("5", "0.5e1"):
        out = tmp_path / f"r{len(reports)}.json"
        assert main(["scenario", "--case", "1", "--step", step, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["sweeps"]["veh-target"]["step_m"] == 5.0
    capsys.readouterr()
    # inf is a number, which the library then refuses
    assert main(["scenario", "--case", "1", "--step", "inf", "--out", str(tmp_path / "i.json")]) == 2
    assert capsys.readouterr().err == "error: step must be positive and finite, got inf\n"
    assert cli._number(" -1e3 ") == -1000.0 and cli._number("+7", int) == 7
    assert math.isnan(cli._number("nan")) and cli._number("-Infinity") == -math.inf


def test_a_config_after_the_command_is_a_usage_error(tmp_path, capsys, monkeypatch):
    read = []
    monkeypatch.setattr(cli, "_config_defaults", lambda path: read.append(path) or {})
    out = tmp_path / "r.json"
    assert main(["scenario", "--case", "1", "--out", str(out), "--config", "missing.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "garagesim: error: unrecognized arguments: --config missing.json", err
    # and a config spelled "--" names no file
    assert main(["--config=--", "scenario", "--case", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "garagesim: error: argument --config: expected one argument", err
    assert read == [] and not out.exists()


@pytest.mark.parametrize("argv, first", [
    (["-h", "--config", "CFG"], "usage: garagesim "),
    (["--config", "CFG", "scenario", "--help"], "usage: garagesim scenario "),
    (["--version", "--config", "CFG"], f"garagesim {cli.__version__}"),
])
def test_help_and_version_come_before_the_config(tmp_path, capsys, argv, first):
    cfg = _written(tmp_path / "broken.json", "{")
    assert main([cfg if tok == "CFG" else tok for tok in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(first) and captured.err == ""


@pytest.mark.parametrize("text, line", [
    ("{", 1), ('{"step": 2.0,\n\n}', 3), ('{"step": 2.0}\n{}', 2),
])
def test_a_broken_config_names_its_line(tmp_path, capsys, text, line):
    cfg = _written(tmp_path / "config.json", text)
    out = tmp_path / "r.json"
    assert main(["--config", cfg, "scenario", "--case", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, err
    assert err[0].startswith(f"error: invalid config {cfg} JSON at line {line}: "), err
    assert not out.exists()


#: every flag that takes a number, or numbers in a text: the command line it
#: is given on and the value a numeral stands in
_NUMERIC_FLAGS = [
    *((["scenario", "--case", "1", "--out", "OUT"], flag.name, "{}")
      for flag in cli.FLAGS["scenario"] if flag.type is not None),
    (["scenario", "--case", "1", "--out", "OUT"], "--weights", "{},0.4,0.2"),
    (["generate", "PLAN", "--out", "OUT"], "--prune-columns", "{},1"),
    (["score", "REPORT"], "--blackout-threshold", "{}"),
]


@st.composite
def _odd_numeral(draw) -> str:
    """A numeral that Python's float and int read but JSON does not: ASCII
    digits with a '_' between two of them, or with a non-ASCII digit."""
    digits = draw(st.text("0123456789", min_size=2, max_size=5))
    if draw(st.booleans()):
        k = draw(st.integers(1, len(digits) - 1))
        numeral = f"{digits[:k]}_{digits[k:]}"
    else:
        k = draw(st.integers(0, len(digits) - 1))
        digit = draw(st.characters(categories=["Nd"]).filter(lambda c: not c.isascii()))
        numeral = digits[:k] + digit + digits[k + 1:]
    return draw(st.sampled_from(["", "-", "0.", "1e"])) + numeral


@_FUZZ
@given(spot=st.sampled_from(_NUMERIC_FLAGS), numeral=_odd_numeral(), by_config=st.booleans())
def test_drawn_odd_numerals_into_every_numeric_flag_exit_2(fuzz_dir, spot, numeral, by_config):
    command, flag, value = spot
    out = fuzz_dir / "out" / "n.json"
    out.parent.mkdir(exist_ok=True)
    paths = {"OUT": out, "PLAN": fuzz_dir / "plan.json", "REPORT": fuzz_dir / "seed-report.json"}
    argv = [str(paths.get(tok, tok)) for tok in command]
    if by_config:
        config = fuzz_dir / "numeral-config.json"
        config.write_text(json.dumps({flag[2:]: value.format(numeral)}), encoding="utf-8")
        argv = ["--config", str(config), *argv]
    else:
        argv.append(f"{flag}={value.format(numeral)}")
    code, _, err, _ = _run_twice(argv, out)
    assert code == 2, (argv, err)


#: every flag a config key may name, and keys that name none
_CONFIG_FLAGS = {flag.dest: flag for own in cli.FLAGS.values() for flag in own
                 if flag.name.startswith("--")}
_ODD_KEYS = ("stpe", "spec", "report", "help", "", "Step")
_CONFIG_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.just(10**400),
    st.sampled_from([0.25, 0.5, 2.0, 5.0, -1.0, 1e300, math.inf, math.nan]),
    st.sampled_from(["", "x", "0.5", "0_5", "١", "2", "1e1", "inf", "json", "csv", "dim",
                     "bright", "0.4,0.4,0.2", "1,0,0", "1,1", "close:small", "."]))
_CONFIG_VALUES = st.one_of(_CONFIG_SCALARS, st.lists(_CONFIG_SCALARS, max_size=2),
                           st.dictionaries(st.sampled_from(["a", "step"]), _CONFIG_SCALARS,
                                           max_size=2))


def _fitting(flag) -> st.SearchStrategy:
    """Values of the JSON type the flag takes, in range or not."""
    if flag.switch:
        return st.booleans()
    if flag.choices:
        return st.sampled_from(flag.choices)
    if flag.type is not None:
        return st.sampled_from([0.5, 1, 2.0, 5, 30.0, "2", "0.75", "1e1", "-1", "nan"])
    return st.sampled_from(["", "x", ".", "1,1", "0.4,0.4,0.2", "0.5,0.5,0", "close:small"])


@_FUZZ
@given(data=st.data())
def test_drawn_configs_into_scenario_and_validate(fuzz_dir, data):
    # flag keys, dashed or not, with values that fit them or of any JSON
    # type; now and then a key that names no flag, a document that is no
    # object, or a text cut short
    config = {}
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.integers(0, 7)) == 0:
            config[data.draw(st.sampled_from(_ODD_KEYS))] = data.draw(_CONFIG_SCALARS)
            continue
        dest = data.draw(st.sampled_from(sorted(_CONFIG_FLAGS)))
        key = dest.replace("_", "-") if data.draw(st.booleans()) else dest
        config[key] = data.draw(_fitting(_CONFIG_FLAGS[dest]) if data.draw(st.integers(0, 3))
                                else _CONFIG_VALUES)
    text = json.dumps(config)
    form = data.draw(st.integers(0, 9))
    if form == 8:
        text = json.dumps(data.draw(_CONFIG_VALUES))
    elif form == 9:
        text = text[:len(text) // 2]
    cfg = fuzz_dir / "fuzz-config.json"
    cfg.write_text(text, encoding="utf-8")
    out = fuzz_dir / "out" / "c.json"
    out.parent.mkdir(exist_ok=True)
    _run_twice(["--config", str(cfg), "scenario", "--case", "1", "--out", str(out)], out)
    _run_twice(["--config", str(cfg), "validate", str(fuzz_dir / "plan.json")], None)
