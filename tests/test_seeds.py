"""The seed rule: a seed is a whole number, checked where its stream is made.

NaN, ±inf, fractions and non-numbers raise ConfigError at every entry point
that draws from a stream; `int()` used to truncate 7.9 to seed 7's stream and
accept the string "7". A whole float, a numpy integer and every int address
the same stream as the int itself, by its low 64 bits.
"""

import math

import numpy as np
import pytest

from seqdef import (
    AttackPlan,
    ConfigError,
    DegreeModel,
    DetectorProfile,
    RiskBudget,
    average_random_attack,
    generate,
    simulate_detection,
)
from seqdef.degree_models import sample_degree_sequence

GRAPH = generate(DegreeModel.er(3), 60, seed=1)

# entry point -> call(seed), returning what the seed decides in a form that compares with ==
SITES = {
    "generate": lambda s: generate(DegreeModel.er(3, n=50), 50, s).edges.tolist(),
    "sample_degree_sequence": lambda s: sample_degree_sequence(DegreeModel.power_law(2.5, n=50), 50, s).tolist(),
    "average_random_attack": lambda s: average_random_attack(GRAPH, 0.5, 5, 3, s).lcc_by_removed.tolist(),
    "simulate_detection": lambda s: simulate_detection(
        AttackPlan("random", 0.5, 100), DetectorProfile(0.9, 0.001), RiskBudget(0.01, 0.001), 10, 50, s
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.5, 7.9, "7", None], ids=repr)
@pytest.mark.parametrize("site", list(SITES))
def test_entry_points_reject_non_whole_seeds(site, value):
    with pytest.raises(ConfigError, match="seed must be a whole number"):
        SITES[site](value)


@pytest.mark.parametrize("site", list(SITES))
def test_whole_seeds_keep_their_stream(site):
    call = SITES[site]
    seven = call(7)
    assert call(7.0) == seven
    assert call(np.int64(7)) == seven
    assert call(2**64 + 7) == seven
    assert call(-1) == call(2**64 - 1)
    assert call(8) != seven
