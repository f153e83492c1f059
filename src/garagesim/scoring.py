"""The difficulty score formula and the report/1 reader.

A score pools the visible fractions of one or more sweeps into three
terms: mean occlusion, the worst sweep's longest visibility blackout and a
lighting penalty.  This module imports no numpy, so re-scoring an emitted
report (the `score` command) loads none of the ray-casting machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OptionError, SchemaError
from .grid import _check_schema
from .scene import LightLevel

REPORT_SCHEMA = "report/1"

BLACKOUT_THRESHOLD = 0.2
DEFAULT_WEIGHTS = (0.4, 0.4, 0.2)

LIGHT_PENALTY = {
    LightLevel.BRIGHT: 0.0,
    LightLevel.CLEAR: 0.2,
    LightLevel.MODERATE: 0.5,
    LightLevel.DIM: 1.0,
}


@dataclass(frozen=True)
class DifficultyScore:
    total: float
    occlusion_term: float
    blackout_term: float
    light_term: float
    weights: tuple[float, float, float]

    def to_document(self) -> dict:
        return {
            "total": self.total,
            "occlusion_term": self.occlusion_term,
            "blackout_term": self.blackout_term,
            "light_term": self.light_term,
            "weights": list(self.weights),
        }


def _longest_blackout(fractions: list[float], threshold: float) -> int:
    longest = run = 0
    for f in fractions:
        run = run + 1 if f < threshold else 0
        longest = max(longest, run)
    return longest


def _check_score_options(weights, blackout_threshold: float) -> None:
    """The one check of the score options (OptionError): three finite,
    non-negative weights summing to 1, and a finite threshold in [0, 1]."""
    if (
        len(weights) != 3
        or not all(0.0 <= w < math.inf for w in weights)
        or abs(sum(weights) - 1.0) > 1e-9
    ):
        raise OptionError(
            f"weights must be three finite non-negative numbers summing to 1, got {weights}"
        )
    if not 0.0 <= blackout_threshold <= 1.0:
        raise OptionError(f"blackout threshold must be in [0, 1], got {blackout_threshold}")


def _score_fractions(
    fractions: list[list[float]],
    level: LightLevel,
    weights: tuple[float, float, float],
    blackout_threshold: float,
) -> DifficultyScore:
    """The score formula over per-sweep visible-fraction lists, pooled in
    the order given."""
    _check_score_options(weights, blackout_threshold)
    w_occ, w_blk, w_lit = weights
    all_fracs = [f for fr in fractions for f in fr]
    occlusion = sum(1.0 - f for f in all_fracs) / len(all_fracs)
    blackout = max(_longest_blackout(fr, blackout_threshold) / len(fr) for fr in fractions)
    light = LIGHT_PENALTY[level]
    total = 100.0 * (w_occ * occlusion + w_blk * blackout + w_lit * light)
    return DifficultyScore(total, occlusion, blackout, light, tuple(weights))


def _fraction(value) -> float:
    """A report's visible fraction: a JSON number (no bool) in [0, 1]."""
    if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
        raise SchemaError(f"malformed report: visible_fraction {value!r} is not a number"
                          " in [0, 1]")
    return float(value)


def rescore_report_document(
    doc: dict,
    weights: tuple[float, float, float],
    blackout_threshold: float = BLACKOUT_THRESHOLD,
) -> DifficultyScore:
    """Recompute the difficulty score of an emitted report/1 document.

    Fractions pool in the report's key order, which may differ from the
    run's target order in the last bit of the occlusion term."""
    _check_schema(doc, REPORT_SCHEMA)
    try:
        level = LightLevel(doc["light_level"])
        sweeps = doc["sweeps"]
        fractions = {
            tid: [_fraction(s["visible_fraction"]) for s in sw["samples"]]
            for tid, sw in sweeps.items()
        }
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise SchemaError(f"malformed report: {exc}") from exc
    if not fractions or any(not f for f in fractions.values()):
        raise SchemaError("report has no sweep samples")
    return _score_fractions(list(fractions.values()), level, weights, blackout_threshold)
