import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from garagesim.grid import GarageSpec

CODES = (-1, 0, 1, 2, 3)

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# test that fails in CI fails the same way when run locally with it set
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_spec(rng: random.Random, max_side: int = 6, ensure_lane: bool = True) -> GarageSpec:
    """Well-formed random plan; guarantees at least one drivable square."""
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    structure = [[rng.choice(CODES) for _ in range(n)] for _ in range(m)]
    if ensure_lane and not any(1 <= c <= 3 for row in structure for c in row):
        structure[rng.randrange(m)][rng.randrange(n)] = 1
    return GarageSpec(
        structure=tuple(tuple(row) for row in structure),
        row_widths=tuple(round(rng.uniform(2.0, 8.0), 3) for _ in range(m)),
        col_widths=tuple(round(rng.uniform(2.0, 8.0), 3) for _ in range(n)),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def lane_cross_spec() -> GarageSpec:
    """Plus-shaped lane in a 3x3 parking block."""
    return GarageSpec(
        structure=((0, 1, 0), (1, 1, 1), (0, 1, 0)),
        row_widths=(5.0, 6.0, 5.0),
        col_widths=(5.0, 6.0, 5.0),
    )


@pytest.fixture
def all_lane_3x3() -> GarageSpec:
    return GarageSpec(
        structure=((1, 1, 1), (1, 1, 1), (1, 1, 1)),
        row_widths=(6.0, 6.0, 6.0),
        col_widths=(6.0, 6.0, 6.0),
    )


@pytest.fixture
def nodes_built(monkeypatch) -> list[str]:
    """The ids of the SceneNodes made while the test runs, in order (one per
    SceneNode.__init__ call); clear it to count from a later point."""
    from garagesim.scene import SceneNode

    built = []
    init = SceneNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SceneNode, "__init__", counting_init)
    return built
