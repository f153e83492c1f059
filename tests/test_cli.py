import json
import re
from pathlib import Path

import pytest

from garagesim.cli import main
from garagesim.grid import GarageSpec, emit_garage_spec
from garagesim.scene import import_scene


ALL_LANE_3X3 = GarageSpec(
    ((1, 1, 1), (1, 1, 1), (1, 1, 1)), (6.0, 6.0, 6.0), (6.0, 6.0, 6.0)
)


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


@pytest.mark.parametrize("make_argv", [
    _wide_plan, _far_scene_box, _far_occupancy_cell, _huge_config_step,
    _huge_report_fraction, _huge_sweep,
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
