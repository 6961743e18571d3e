"""The seed rule: a seed is a whole number, checked on entry by every public name that takes one.

NaN, ±inf, fractions and non-numbers raise ConfigError, also where no stream
is drawn (a static removal order, an inert report stream); `int()` used to
truncate 7.9 to seed 7's stream and accept the string "7". A whole float, a
numpy integer and every int address the same stream as the int itself, by
its low 64 bits.
"""

import inspect
import math

import numpy as np
import pytest

import seqdef
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


BAD_SEEDS = [math.nan, math.inf, -math.inf, 1.5, 7.9, "7", None]

# a tiny argument by parameter name, chosen so that no stream is drawn where that can be avoided:
# a degree plan and scheme have static orders, and p_d = p_f makes every report inert
TINY = {
    "graph": GRAPH,
    "model": DegreeModel.er(3, n=60),
    "n": 60,
    "size": 60,
    "degrees": GRAPH.degrees(),
    "scheme": "degree",
    "q": 0.5,
    "step_count": 3,
    "trials": 2,
    "plan": AttackPlan("degree", 0.5, 60),
    "detector": DetectorProfile(0.1, 0.1),
    "risk": RiskBudget(0.01, 0.001),
    "m_c": 10,
}


def parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):  # not callable, or an exception class, which has no signature
        return {}


SEEDED = sorted(name for name in seqdef.__all__ if "seed" in parameters(getattr(seqdef, name)))


@pytest.mark.parametrize("value", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("name", SEEDED)
def test_every_public_name_with_a_seed_checks_it(name, value):
    # found by signature, so a new entry point is covered here; one with a new parameter name needs a TINY entry
    func = getattr(seqdef, name)
    required = [p for p in parameters(func).values() if p.default is inspect.Parameter.empty]
    with pytest.raises(ConfigError, match="seed must be a whole number"):
        func(**{p.name: value if p.name == "seed" else TINY[p.name] for p in required})


def test_walk_finds_every_seeded_name():
    assert len(SEEDED) >= 8 and {"removal_order", "estimate_qc", "simulate_attack", "simulate_detection"} <= set(SEEDED)


@pytest.mark.parametrize("value", BAD_SEEDS, ids=repr)
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
