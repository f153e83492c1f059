import json
import random
import re

import pytest

from garagesim import grid
from garagesim.errors import SchemaError, SpecParseError
from garagesim.grid import (
    CellKind,
    CellRef,
    Direction,
    GarageSpec,
    RULE_CELL_EXTENT,
    RULE_CODE_RANGE,
    RULE_COL_COUNT,
    RULE_ENVELOPE_FINITE,
    RULE_NO_LANES,
    RULE_ROW_COUNT,
    RULE_WIDTH_POSITIVE,
    cell_kind,
    emit_garage_spec,
    load_garage_spec,
    load_garage_spec_csv,
    neighbor_set,
    parse_garage_spec,
    rotate_quarter,
    validate,
)
from conftest import random_spec


def doc(structure, rows, cols) -> str:
    return json.dumps(
        {
            "schema": "garage-spec/1",
            "structure": structure,
            "row_widths_m": rows,
            "col_widths_m": cols,
        }
    )


class TestParse:
    def test_direct_transcription(self):
        spec = parse_garage_spec(doc([[1, 1], [0, 0]], [5, 5], [6, 6]))
        assert spec.m == 2 and spec.n == 2
        assert spec.structure == ((1, 1), (0, 0))
        assert spec.row_widths == (5.0, 5.0)
        assert spec.col_widths == (6.0, 6.0)

    def test_ragged_row_rejected(self):
        with pytest.raises(SpecParseError, match="ragged row 1"):
            parse_garage_spec(doc([[1, 1, 1], [0, 0]], [5, 5], [6, 6, 6]))

    def test_out_of_range_code_parses(self):
        # range checking is validate's job, not the parser's
        spec = parse_garage_spec(doc([[7]], [5], [6]))
        assert spec.structure == ((7,),)

    def test_non_integer_cell_rejected(self):
        with pytest.raises(SpecParseError, match="non-integer cell"):
            parse_garage_spec(doc([[1.5]], [5], [6]))
        with pytest.raises(SpecParseError, match="non-integer cell"):
            parse_garage_spec(doc([[True]], [5], [6]))

    def test_non_numeric_width_rejected(self):
        with pytest.raises(SpecParseError, match="non-numeric width"):
            parse_garage_spec(doc([[1]], ["wide"], [6]))

    @pytest.mark.parametrize("text, message", [
        (doc([], [5], [6]), "field 'structure' must be a non-empty list of rows"),
        (doc([[1], []], [5, 5], [6]), "structure row 1 must be a non-empty list"),
        (doc([[1]], [], [6]), "field 'row_widths_m' must be a non-empty list of numbers"),
        ("[]", "top-level document must be a JSON object"),
        ('"garage-spec/1"', "top-level document must be a JSON object"),
    ])
    def test_shape_errors_keep_their_texts(self, text, message):
        with pytest.raises(SpecParseError) as err:
            parse_garage_spec(text)
        assert str(err.value) == message

    def test_bad_json_names_line(self):
        with pytest.raises(SpecParseError, match="line"):
            parse_garage_spec("{not json")

    def test_wrong_schema(self):
        bad = json.dumps({"schema": "garage-spec/9", "structure": [[1]],
                          "row_widths_m": [5], "col_widths_m": [6]})
        with pytest.raises(SchemaError):
            parse_garage_spec(bad)

    def test_missing_field(self):
        bad = json.dumps({"schema": "garage-spec/1", "structure": [[1]]})
        with pytest.raises(SpecParseError, match="row_widths_m"):
            parse_garage_spec(bad)


class TestEmitRoundTrip:
    def test_parse_emit_identity(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            assert parse_garage_spec(emit_garage_spec(spec)) == spec

    def test_emit_is_stable_bytes(self, rng):
        spec = random_spec(rng)
        first = emit_garage_spec(spec)
        assert emit_garage_spec(parse_garage_spec(first)) == first

    def test_file_loader(self, tmp_path, rng):
        spec = random_spec(rng)
        p = tmp_path / "plan.json"
        p.write_text(emit_garage_spec(spec), encoding="utf-8")
        assert load_garage_spec(p) == spec

    def test_csv_loader(self, tmp_path):
        (tmp_path / "structure.csv").write_text("1,1\n0,-1\n")
        (tmp_path / "rows.csv").write_text("5.0\n4.5\n")
        (tmp_path / "cols.csv").write_text("6.0,3.25\n")
        spec = load_garage_spec(tmp_path)
        assert spec == GarageSpec(((1, 1), (0, -1)), (5.0, 4.5), (6.0, 3.25))
        same = load_garage_spec_csv(
            tmp_path / "structure.csv", tmp_path / "rows.csv", tmp_path / "cols.csv"
        )
        assert same == spec

    def test_csv_fields_are_json_values(self, tmp_path):
        # integers past a float's, blank and space-only lines, spaces and CRLF
        (tmp_path / "structure.csv").write_text("100000000000000000000, -1\r\n \r\n")
        (tmp_path / "rows.csv").write_text("5\n")
        (tmp_path / "cols.csv").write_text("9223372036854775808\n\n1e-3\n")
        assert load_garage_spec(tmp_path) == GarageSpec(
            ((10**20, -1),), (5.0,), (9223372036854775808.0, 0.001))

    @pytest.mark.parametrize("field", ["", " ", "0_1", "+1", ".5", "5.", "wide", "1,"])
    def test_csv_field_that_is_no_json_value_refused(self, tmp_path, field):
        (tmp_path / "structure.csv").write_text("1,1\n")
        (tmp_path / "rows.csv").write_text("5\n")
        (tmp_path / "cols.csv").write_text(f"6\n{field},6\n")
        where = re.escape(str(tmp_path / "cols.csv"))
        with pytest.raises(SpecParseError, match=f"^invalid {where} field JSON at line 2: "):
            load_garage_spec(tmp_path)

    def test_csv_field_of_the_wrong_type_refused(self, tmp_path):
        (tmp_path / "structure.csv").write_text("1,1.0\n")
        (tmp_path / "rows.csv").write_text('"5"\n')
        (tmp_path / "cols.csv").write_text("6,6\n")
        with pytest.raises(SpecParseError, match=r"non-integer cell at \(0,1\): 1.0"):
            load_garage_spec(tmp_path)
        (tmp_path / "structure.csv").write_text("1,1\n")
        with pytest.raises(SpecParseError, match="non-numeric width row_widths_m\\[0\\]: '5'"):
            load_garage_spec(tmp_path)

    def test_csv_missing_or_not_utf8_is_an_os_error(self, tmp_path):
        (tmp_path / "structure.csv").write_text("1\n")
        (tmp_path / "rows.csv").write_bytes(b"\xff5\n")
        with pytest.raises(OSError, match="not UTF-8"):
            load_garage_spec(tmp_path)
        (tmp_path / "rows.csv").write_text("5\n")
        with pytest.raises(FileNotFoundError):
            load_garage_spec(tmp_path)

    def test_csv_ragged(self, tmp_path):
        (tmp_path / "structure.csv").write_text("1,1\n0\n")
        (tmp_path / "rows.csv").write_text("5\n5\n")
        (tmp_path / "cols.csv").write_text("6,6\n")
        with pytest.raises(SpecParseError, match="ragged"):
            load_garage_spec(tmp_path)

    def test_csv_field_far_down_names_its_line(self, tmp_path):
        lines = ["6"] * 6000
        lines[4999] = "6 6"
        (tmp_path / "structure.csv").write_text("1\n")
        (tmp_path / "rows.csv").write_text("5\n")
        (tmp_path / "cols.csv").write_text("\n".join(lines) + "\n")
        where = re.escape(str(tmp_path / "cols.csv"))
        with pytest.raises(SpecParseError, match=f"^invalid {where} field JSON at line 5000: "):
            load_garage_spec(tmp_path)

    def test_csv_fields_are_decoded_once(self, tmp_path, monkeypatch):
        # each field goes to the decode step alone, with no padding before it
        texts = {"structure.csv": "1,1\n\n1,0\n", "rows.csv": "5\n5\n",
                 "cols.csv": "6\n" * 500 + "6.5\n"}
        for name, text in texts.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        handed = []
        load_json = grid._load_json
        monkeypatch.setattr(grid, "_load_json",
                            lambda text, *rest: handed.append(text) or load_json(text, *rest))
        spec = load_garage_spec(tmp_path)
        assert spec.col_widths == (6.0,) * 500 + (6.5,)
        assert len(handed) == 4 + 2 + 501
        assert sum(map(len, handed)) <= sum(map(len, texts.values()))


class TestValidate:
    def test_clean_spec_ok(self):
        spec = GarageSpec(((1, 0, -1), (2, 3, 0), (0, 0, 0)),
                          (5.0, 5.0, 5.0), (6.0, 6.0, 6.0))
        report = validate(spec)
        assert report.ok and report.violations == ()

    def test_row_vector_length(self):
        spec = GarageSpec(((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
                          (5.0, 5.0, 5.0, 5.0), (6.0, 6.0, 6.0, 6.0))
        report = validate(spec)
        assert not report.ok
        assert [v.rule for v in report.violations] == [RULE_ROW_COUNT]
        assert "4" in report.violations[0].message and "m=3" in report.violations[0].message

    def test_col_vector_length(self):
        spec = GarageSpec(((1, 0),), (5.0,), (6.0, 6.0, 6.0))
        report = validate(spec)
        assert [v.rule for v in report.violations] == [RULE_COL_COUNT]

    def test_code_range(self):
        spec = GarageSpec(((1, 0), (0, -2)), (5.0, 5.0), (6.0, 6.0))
        report = validate(spec)
        assert [(v.rule, v.location) for v in report.violations] == [
            (RULE_CODE_RANGE, "cell(1,1)")
        ]

    def test_width_positive(self):
        spec = GarageSpec(((1,),), (0.0,), (6.0,))
        report = validate(spec)
        assert [(v.rule, v.location) for v in report.violations] == [
            (RULE_WIDTH_POSITIVE, "row_widths[0]")
        ]

    def test_non_finite_width(self):
        spec = GarageSpec(((1,),), (float("inf"),), (6.0,))
        assert [v.rule for v in validate(spec).violations] == [RULE_WIDTH_POSITIVE]

    def test_envelope_past_the_bound(self):
        # finite widths whose total, an edge of the envelope, lies past 2**129
        spec = GarageSpec(((1, 1),), (5.0,), (4e38, 4e38))
        assert [(v.rule, v.location) for v in validate(spec).violations] == [
            (RULE_ENVELOPE_FINITE, "col_widths")]
        assert validate(GarageSpec(((1, 1),), (5.0,), (3e38, 3e38))).ok

    def test_cells_too_thin_to_build(self):
        # a width absorbed into the running total before it, and a subnormal
        # one that a quarter rounds to 0, each leave a cell of no extent
        for rows, cols, location in (((5.0,), (1e17, 1.0, 6.0), "col_widths"),
                                     ((1e-323, 5.0), (6.0,), "row_widths")):
            spec = GarageSpec(((1,) * len(cols),) * len(rows), rows, cols)
            assert [(v.rule, v.location) for v in validate(spec).violations] == [
                (RULE_CELL_EXTENT, location)]
        # the thinnest extent whose quarter is still above 0
        assert validate(GarageSpec(((2, 1), (1, 1)), (1.5e-323, 5.0), (6.0, 6.0))).ok

    def test_zero_lane_garage_flagged(self):
        spec = GarageSpec(((-1, 0), (0, -1)), (5.0, 5.0), (6.0, 6.0))
        assert [v.rule for v in validate(spec).violations] == [RULE_NO_LANES]

    def test_total_on_weird_specs(self, rng):
        # validate never raises on anything the parser accepts
        for _ in range(200):
            spec = random_spec(rng)
            structure = [list(row) for row in spec.structure]
            structure[rng.randrange(spec.m)][rng.randrange(spec.n)] = rng.randint(-9, 9)
            mutated = GarageSpec(
                tuple(tuple(r) for r in structure),
                spec.row_widths[: rng.randint(0, spec.m)] or (0.0,),
                spec.col_widths,
            )
            validate(mutated)


class TestCellQueries:
    def test_cell_kind_decoding(self):
        spec = GarageSpec(((1, -1), (0, 3)), (5.0, 5.0), (6.0, 6.0))
        assert cell_kind(spec, CellRef(0, 0)) is CellKind.LANE
        assert cell_kind(spec, CellRef(0, 1)) is CellKind.OBSTACLE
        assert cell_kind(spec, CellRef(1, 0)) is CellKind.PARKING
        assert cell_kind(spec, CellRef(1, 1)) is CellKind.EXIT

    def test_out_of_bounds(self):
        spec = GarageSpec(((1,),), (5.0,), (6.0,))
        with pytest.raises(IndexError):
            cell_kind(spec, CellRef(1, 0))
        with pytest.raises(IndexError):
            neighbor_set(spec, CellRef(0, -1))

    def test_interior_neighbors(self, all_lane_3x3):
        ns = neighbor_set(all_lane_3x3, CellRef(1, 1))
        assert (ns.north, ns.east, ns.south, ns.west) == (CellKind.LANE,) * 4

    def test_corner_neighbors_absent(self, all_lane_3x3):
        ns = neighbor_set(all_lane_3x3, CellRef(0, 0))
        assert ns.north is None and ns.west is None
        assert ns.east is CellKind.LANE and ns.south is CellKind.LANE

    def test_obstacle_east(self):
        spec = GarageSpec(((1, -1),), (5.0,), (6.0, 6.0))
        assert neighbor_set(spec, CellRef(0, 0)).east is CellKind.OBSTACLE

    def test_neighbor_symmetry(self, rng):
        for _ in range(30):
            spec = random_spec(rng)
            for i in range(spec.m):
                for j in range(spec.n):
                    here = CellRef(i, j)
                    for d in Direction:
                        nb = here.step(d)
                        if not spec.in_bounds(nb):
                            continue
                        back = neighbor_set(spec, nb).get(d.opposite)
                        assert back == cell_kind(spec, here)

    def test_validated_specs_decode_everywhere(self, rng):
        for _ in range(30):
            spec = random_spec(rng)
            assert validate(spec).ok
            for i in range(spec.m):
                for j in range(spec.n):
                    cell_kind(spec, CellRef(i, j))
                    neighbor_set(spec, CellRef(i, j))


class TestRotateQuarter:
    def test_shape_and_widths(self):
        spec = GarageSpec(((1, 2, 3), (0, -1, 1)), (5.0, 7.0), (6.0, 6.5, 4.0))
        rot = rotate_quarter(spec)
        assert (rot.m, rot.n) == (3, 2)
        assert rot.row_widths == (6.0, 6.5, 4.0)
        assert rot.col_widths == (7.0, 5.0)

    def test_cell_mapping(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            rot = rotate_quarter(spec)
            for i in range(spec.m):
                for j in range(spec.n):
                    assert rot.structure[j][spec.m - 1 - i] == spec.structure[i][j]

    def test_four_turns_identity(self, rng):
        spec = random_spec(rng)
        out = spec
        for _ in range(4):
            out = rotate_quarter(out)
        assert out == spec
