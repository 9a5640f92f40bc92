"""``evaluate_linking`` counts pairs per group; the oracle lists them.

Both must return the same precision, recall and F1, float for float, on
every seeded map: empty maps, all singletons, one cluster, maps that name
different records, and random groupings of several sizes.
"""

import random

import pytest

from oracles.linking import evaluate_linking_by_pairs
from repro.construction.linking import LinkingResult, evaluate_linking


def _random_maps(seed: int) -> tuple[dict[str, str], dict[str, str]]:
    """A random truth map and a linking that follows it with a random fidelity;
    each map leaves out about a tenth of the records."""
    rng = random.Random(seed)
    size = rng.randint(0, 80)
    labels = rng.randint(1, max(1, size))
    fidelity = rng.random()
    truth, assignments = {}, {}
    for index in range(size):
        record = f"src:{index}"
        label = rng.randrange(labels)
        if rng.random() < 0.9:
            truth[record] = f"t{label}"
        if rng.random() < 0.9:
            linked = label if rng.random() < fidelity else rng.randrange(labels)
            assignments[record] = f"kg:{linked}"
    return truth, assignments


FIXED_MAPS = {
    "empty": ({}, {}),
    "all_singletons": (
        {f"s:{i}": f"t{i}" for i in range(12)},
        {f"s:{i}": f"kg:{i}" for i in range(12)},
    ),
    "one_cluster": (
        {f"s:{i}": "t0" for i in range(12)},
        {f"s:{i}": "kg:0" for i in range(12)},
    ),
    "one_predicted_cluster_over_singletons": (
        {f"s:{i}": f"t{i}" for i in range(12)},
        {f"s:{i}": "kg:0" for i in range(12)},
    ),
    "disjoint_records": ({"s:1": "t0", "s:2": "t0"}, {"s:3": "kg:0", "s:4": "kg:0"}),
    "mixed": (
        {"s:1": "t1", "s:2": "t1", "s:3": "t2", "s:4": "t2"},
        {"s:1": "kg:a", "s:2": "kg:a", "s:3": "kg:b", "s:4": "kg:c"},
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED_MAPS))
def test_fixed_maps_match_the_pair_listing_oracle(name):
    truth, assignments = FIXED_MAPS[name]
    result = LinkingResult(assignments=dict(assignments))
    assert evaluate_linking(result, truth) == evaluate_linking_by_pairs(result, truth)


@pytest.mark.parametrize("seed", range(40))
def test_random_maps_match_the_pair_listing_oracle(seed):
    truth, assignments = _random_maps(seed)
    result = LinkingResult(assignments=assignments)
    assert evaluate_linking(result, truth) == evaluate_linking_by_pairs(result, truth)


def test_empty_input_scores_perfectly():
    assert evaluate_linking(LinkingResult(), {}) == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
