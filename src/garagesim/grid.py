"""Matrix-encoded garage plans: parsing, validation, and cell queries.

A plan is three matrices: an m x n structure matrix of integer area codes,
a length-m vector of row extents in meters and a length-n vector of column
extents in meters.  Cell (i, j) is a rectangle col_widths[j] wide (east-west)
by row_widths[i] deep (north-south).

Compass convention used everywhere in this package: row 0 is the north edge,
so north = decreasing row index = world -y, east = increasing column index =
world +x.  A quarter-turn of the plan maps north onto east.
"""

from __future__ import annotations

import errno
import json
import math
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

from .errors import JSON_TOO_DEEP, GarageError, SchemaError, SpecParseError

SPEC_SCHEMA = "garage-spec/1"

#: the largest magnitude of a box value or a plan's envelope, the largest
#: float below 2**129 (about 6.8e38): far past any garage, and too small for
#: an AABB, face point, slab offset or frustum sum made from it to overflow
BOX_MAX = math.nextafter(2.0 ** 129, 0.0)


class CellKind(IntEnum):
    """Area codes of the structure matrix.

    PARKING covers both parking spaces and free floor; ENTRANCE and EXIT are
    ramp squares that carry traffic like lanes do.
    """

    OBSTACLE = -1
    PARKING = 0
    LANE = 1
    ENTRANCE = 2
    EXIT = 3

    @property
    def drivable(self) -> bool:
        return is_drivable(self._value_)


def is_drivable(code: int) -> bool:
    """Lanes, entrances and exits carry traffic; parking and obstacles don't."""
    return 1 <= code <= 3


class Direction(IntEnum):
    """Compass direction; the integer order N, E, S, W matches one
    quarter-turn per increment (north rotated once faces east)."""

    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3

    @property
    def delta(self) -> tuple[int, int]:
        """(row, col) step toward this direction."""
        return _DELTAS[self]

    def rotated(self, quarter_turns: int = 1) -> "Direction":
        return Direction((self + quarter_turns) % 4)

    @property
    def opposite(self) -> "Direction":
        return Direction((self + 2) % 4)


_DELTAS = {
    Direction.NORTH: (-1, 0),
    Direction.EAST: (0, 1),
    Direction.SOUTH: (1, 0),
    Direction.WEST: (0, -1),
}


@dataclass(frozen=True)
class CellRef:
    """0-based (row, col) address of a grid square."""

    i: int
    j: int

    def step(self, direction: Direction) -> "CellRef":
        di, dj = direction.delta
        return CellRef(self.i + di, self.j + dj)


@dataclass(frozen=True)
class NeighborSet:
    """The four axis-adjacent cell kinds; None where the grid ends."""

    north: CellKind | None
    east: CellKind | None
    south: CellKind | None
    west: CellKind | None

    def get(self, direction: Direction) -> CellKind | None:
        return (self.north, self.east, self.south, self.west)[direction]


@dataclass(frozen=True)
class GarageSpec:
    """Immutable plan: structure codes plus per-row / per-column extents."""

    structure: tuple[tuple[int, ...], ...]
    row_widths: tuple[float, ...]
    col_widths: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.structure)

    @property
    def n(self) -> int:
        return len(self.structure[0]) if self.structure else 0

    def in_bounds(self, cell: CellRef) -> bool:
        return 0 <= cell.i < self.m and 0 <= cell.j < self.n

    def code(self, cell: CellRef) -> int:
        if not self.in_bounds(cell):
            raise IndexError(f"cell ({cell.i},{cell.j}) outside {self.m}x{self.n} grid")
        return self.structure[cell.i][cell.j]


@dataclass(frozen=True)
class Violation:
    rule: str
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_document(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"rule": v.rule, "location": v.location, "message": v.message}
                for v in self.violations
            ],
        }


# --- parsing -----------------------------------------------------------------


def _parse_structure(raw: object) -> tuple[tuple[int, ...], ...]:
    if not isinstance(raw, list) or not raw:
        raise SpecParseError("field 'structure' must be a non-empty list of rows")
    rows: list[tuple[int, ...]] = []
    width = None
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            raise SpecParseError(f"structure row {i} must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SpecParseError(f"ragged row {i}: length {len(row)} != {width}")
        for j, cell in enumerate(row):
            if isinstance(cell, bool) or not isinstance(cell, int):
                raise SpecParseError(f"non-integer cell at ({i},{j}): {cell!r}")
        rows.append(tuple(row))
    return tuple(rows)


def _parse_widths(raw: object, field: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or not raw:
        raise SpecParseError(f"field '{field}' must be a non-empty list of numbers")
    out = []
    for k, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecParseError(f"non-numeric width {field}[{k}]: {value!r}")
        try:
            out.append(float(value))
        except OverflowError as exc:
            raise SpecParseError(f"width {field}[{k}] is out of float range") from exc
    return tuple(out)


def parse_garage_spec(text: str) -> GarageSpec:
    """Parse a garage-spec/1 JSON document.

    Only shape is enforced here (rectangular matrix, numeric fields);
    semantic checks such as code ranges belong to :func:`validate`.
    """
    return _spec_from_document(_load_json(text, "plan", SpecParseError))


def _spec_from_document(doc) -> GarageSpec:
    """The plan of a decoded garage-spec/1 document, whichever form it was
    read from."""
    if not isinstance(doc, dict):
        raise SpecParseError("top-level document must be a JSON object")
    _check_schema(doc, SPEC_SCHEMA)
    for field in ("structure", "row_widths_m", "col_widths_m"):
        if field not in doc:
            raise SpecParseError(f"missing field '{field}'")
    return GarageSpec(
        structure=_parse_structure(doc["structure"]),
        row_widths=_parse_widths(doc["row_widths_m"], "row_widths_m"),
        col_widths=_parse_widths(doc["col_widths_m"], "col_widths_m"),
    )


def emit_garage_spec(spec: GarageSpec) -> str:
    """Serialize to the canonical garage-spec/1 form (stable bytes)."""
    doc = {
        "schema": SPEC_SCHEMA,
        "structure": [list(row) for row in spec.structure],
        "row_widths_m": list(spec.row_widths),
        "col_widths_m": list(spec.col_widths),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_text(path: str | Path) -> str:
    """The text of a UTF-8 file.  A file that is not UTF-8 raises an
    OSError (EILSEQ) naming it, as a file that cannot be read does, so that
    every reader reports both alike."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                      str(path)) from exc


def _load_json(text: str, kind: str, error: type[GarageError] = SchemaError, line: int = 1):
    """The value of a JSON text, decoded as every input document is; a text
    that is no JSON raises error, naming its kind and the line, the text's first
    being line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid {kind} JSON at line {line - 1 + exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise error(f"invalid {kind} JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"invalid {kind} JSON: {JSON_TOO_DEEP}") from exc


def _check_schema(doc, schema: str) -> None:
    """A SchemaError unless doc is a JSON object tagged with schema."""
    got = doc.get("schema") if type(doc) is dict else None
    if got != schema:
        raise SchemaError(f"expected schema {schema!r}, got {got!r}")


def load_garage_spec(path: str | Path) -> GarageSpec:
    """Load a plan from a garage-spec/1 JSON file, or from a directory
    holding the CSV fallback trio (structure.csv, rows.csv, cols.csv)."""
    p = Path(path)
    if p.is_dir():
        return load_garage_spec_csv(p / "structure.csv", p / "rows.csv", p / "cols.csv")
    return parse_garage_spec(_read_text(p))


def _csv_rows(path: str | Path) -> list[list]:
    """The non-blank lines of a CSV file, each field decoded once as the
    JSON value it spells, so that a JSON error names the file's line."""
    return [[_load_json(field, f"{path} field", SpecParseError, k)
             for field in line.split(",")]
            for k, line in enumerate(_read_text(path).splitlines(), 1) if line.strip()]


def load_garage_spec_csv(
    structure_path: str | Path, rows_path: str | Path, cols_path: str | Path
) -> GarageSpec:
    """CSV fallback loader: one file per matrix, read as the garage-spec/1
    document they spell.  The structure file's lines are the matrix rows; the
    fields of each widths file, line after line, are its width vector."""
    return _spec_from_document({
        "schema": SPEC_SCHEMA,
        "structure": _csv_rows(structure_path),
        "row_widths_m": [w for row in _csv_rows(rows_path) for w in row],
        "col_widths_m": [w for row in _csv_rows(cols_path) for w in row],
    })


# --- validation ---------------------------------------------------------------

RULE_ROW_COUNT = "row-count"
RULE_COL_COUNT = "col-count"
RULE_CODE_RANGE = "code-range"
RULE_WIDTH_POSITIVE = "width-positive"
RULE_ENVELOPE_FINITE = "envelope-finite"
RULE_CELL_EXTENT = "cell-extent"
RULE_NO_LANES = "no-lanes"


def _prefix(widths: tuple[float, ...]) -> list[float]:
    """Cell edges along one axis: the running totals of the widths from 0,
    added left to right."""
    out = [0.0]
    for w in widths:
        out.append(out[-1] + w)
    return out


def validate(spec: GarageSpec) -> ValidationReport:
    """Check plan well-formedness; reports every breach, never raises.

    Rules: row/col width vectors must match the matrix dimensions, every
    code must lie in [-1, 3], every width must be positive and finite, the
    running total of finite widths (the envelope's cell edges) must stay
    within BOX_MAX, every cell's extent between two such edges must stay
    positive when synthesis quarters it (a ramp marker's half extent, the
    smallest part it makes of a cell), and a garage without a single
    drivable square is unusable.  A width below half an ulp of the total
    before it vanishes from the edges, and a subnormal one can round to 0
    when quartered; either cell would be a box of no extent.
    """
    violations: list[Violation] = []
    m, n = spec.m, spec.n

    if len(spec.row_widths) != m:
        violations.append(
            Violation(
                RULE_ROW_COUNT,
                "row_widths",
                f"row vector length {len(spec.row_widths)} != m={m}",
            )
        )
    if len(spec.col_widths) != n:
        violations.append(
            Violation(
                RULE_COL_COUNT,
                "col_widths",
                f"column vector length {len(spec.col_widths)} != n={n}",
            )
        )
    for i, row in enumerate(spec.structure):
        for j, code in enumerate(row):
            if not (-1 <= code <= 3):
                violations.append(
                    Violation(
                        RULE_CODE_RANGE,
                        f"cell({i},{j})",
                        f"code {code} outside [-1, 3]",
                    )
                )
    for name, widths in (("row_widths", spec.row_widths), ("col_widths", spec.col_widths)):
        for k, w in enumerate(widths):
            if not math.isfinite(w) or w <= 0.0:
                violations.append(
                    Violation(
                        RULE_WIDTH_POSITIVE,
                        f"{name}[{k}]",
                        f"width {w!r} is not a positive finite number",
                    )
                )
        edges = _prefix(widths)
        if all(map(math.isfinite, widths)) and not edges[-1] <= BOX_MAX:
            violations.append(
                Violation(
                    RULE_ENVELOPE_FINITE,
                    name,
                    f"widths add up to {edges[-1]!r}, past 2**129",
                )
            )
        elif all(0.0 < w < math.inf for w in widths):
            extents = [b - a for a, b in zip(edges, edges[1:])]
            thin = [k for k, extent in enumerate(extents) if not extent / 4.0 > 0.0]
            if thin:
                violations.append(
                    Violation(
                        RULE_CELL_EXTENT,
                        name,
                        f"{'rows' if name == 'row_widths' else 'columns'} {thin} span"
                        f" {[extents[k] for k in thin]!r} m between the running totals of"
                        f" the widths; a quarter of each must stay above 0",
                    )
                )
    if not any(is_drivable(code) for row in spec.structure for code in row):
        violations.append(
            Violation(RULE_NO_LANES, "structure", "plan contains no drivable squares")
        )
    return ValidationReport(tuple(violations))


# --- cell queries -------------------------------------------------------------


def cell_kind(spec: GarageSpec, cell: CellRef) -> CellKind:
    """Decode the area code at a cell; IndexError when out of bounds."""
    return CellKind(spec.code(cell))


def neighbor_set(spec: GarageSpec, cell: CellRef) -> NeighborSet:
    """Kinds of the 4-neighborhood; sides beyond the grid are None."""
    if not spec.in_bounds(cell):
        raise IndexError(f"cell ({cell.i},{cell.j}) outside {spec.m}x{spec.n} grid")
    kinds: list[CellKind | None] = []
    for d in Direction:
        nb = cell.step(d)
        kinds.append(CellKind(spec.structure[nb.i][nb.j]) if spec.in_bounds(nb) else None)
    return NeighborSet(*kinds)


def rotate_quarter(spec: GarageSpec) -> GarageSpec:
    """Rotate the plan one quarter-turn (north onto east).

    The structure matrix transposes with a flip, the row vector becomes the
    old column vector, and the new column vector is the old row vector
    reversed; cell (i, j) lands at (j, m-1-i).
    """
    m, n = spec.m, spec.n
    rotated = tuple(
        tuple(spec.structure[m - 1 - b][a] for b in range(m)) for a in range(n)
    )
    return GarageSpec(
        structure=rotated,
        row_widths=spec.col_widths,
        col_widths=tuple(reversed(spec.row_widths)),
    )
