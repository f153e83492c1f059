"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: schema/parse problems and bad options
are usage-level failures (exit 2), domain failures such as an invalid plan or impossible
scenario geometry are data-level failures (exit 1).
"""

from __future__ import annotations

#: what every JSON reader says, in its own error type, of a document nested
#: past the interpreter's recursion limit (json raises RecursionError there)
JSON_TOO_DEEP = "nested too deeply"


class GarageError(Exception):
    """Base class for all package-specific errors."""


class SpecParseError(GarageError):
    """A plan document could not be parsed (bad shape, bad token, bad file)."""


class SchemaError(GarageError):
    """A JSON document does not conform to its declared schema."""


class OptionError(GarageError, ValueError):
    """A run option (camera, step, samples per edge, score weights or
    threshold, case dimension) is out of range; a ValueError too."""


class SpecValidationError(GarageError):
    """An operation requiring a well-formed plan was given an invalid one.

    Carries the full validation report so callers can show every violation.
    """

    def __init__(self, report):
        self.report = report
        lines = "; ".join(f"{v.rule} at {v.location}" for v in report.violations)
        super().__init__(f"plan failed validation: {lines}")


class PlanError(GarageError):
    """An occupancy plan references cells it must not."""


class ConstructionError(GarageError):
    """Scenario parameters produce impossible geometry."""
