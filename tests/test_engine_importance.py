"""Entity importance (§3.3) against the dict-based oracle, on a star, and
under any hash seed."""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from oracles.pagerank import importance_metrics
from repro.engine.graph_engine import GraphEngine
from repro.engine.importance import compute_importance
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore

SOURCES = ("wiki", "musicdb", "fanwiki")
PREDICATES = ("spouse", "member_of", "performed_by", "influenced_by", "genre")


def triple(subject, predicate, obj, source="wiki"):
    return ExtendedTriple(subject=subject, predicate=predicate, obj=obj,
                          provenance=Provenance.from_source(source, 0.9))


def assert_matches_oracle(store: TripleStore) -> None:
    scores = compute_importance(store)
    expected = importance_metrics(store)
    assert list(scores) == sorted(expected)
    for node, (in_degree, out_degree, identities, rank) in expected.items():
        score = scores[node]
        assert (score.in_degree, score.out_degree, score.identity_count) == (
            in_degree, out_degree, identities), node
        assert score.pagerank == pytest.approx(rank, abs=1e-6), node


def seeded_store(seed: int) -> TripleStore:
    """KG ids and plain-string subjects whose facts point at subjects, at
    themselves, at KG ids no fact is about, at literals and at numbers."""
    rng = random.Random(seed)
    subjects = [f"kg:e{index}" for index in range(rng.randint(2, 40))]
    subjects += [f"artist-{index}" for index in range(rng.randint(0, 4))]
    store = TripleStore()
    for subject in subjects:
        store.add(triple(subject, "name", f"Name of {subject}", rng.choice(SOURCES)))
        for _ in range(rng.randint(0, 5)):          # none: a dangling node
            obj = rng.choice((
                rng.choice(subjects), rng.choice(subjects), subject,
                f"kg:ghost{rng.randint(0, 3)}", "not an entity", rng.randint(0, 9),
            ))
            store.add(triple(subject, rng.choice(PREDICATES), obj, rng.choice(SOURCES)))
    return store


@pytest.mark.parametrize("seed", range(25))
def test_seeded_stores_match_the_oracle(seed):
    assert_matches_oracle(seeded_store(seed))


def test_each_edge_rule_matches_the_oracle():
    store = TripleStore([
        triple("kg:a", "spouse", "kg:b"),
        triple("kg:a", "member_of", "kg:b", source="musicdb"),   # same pair: one edge
        triple("kg:a", "same_as", "kg:a"),                         # self-reference: none
        triple("kg:a", "influenced_by", "kg:ghost"),               # an id no fact is about
        triple("kg:b", "name", "B", source="musicdb"),
        triple("kg:b", "influenced_by", "artist-1"),               # a plain subject name
        triple("artist-1", "genre", "not an entity"),              # a literal: none
        triple("kg:c", "name", "C"),                               # dangling
    ])
    scores = compute_importance(store)
    assert list(scores) == ["artist-1", "kg:a", "kg:b", "kg:c", "kg:ghost"]
    degrees = {node: (s.in_degree, s.out_degree, s.identity_count) for node, s in scores.items()}
    assert degrees == {
        "artist-1": (1, 0, 1), "kg:a": (0, 2, 2), "kg:b": (1, 1, 2),
        "kg:c": (0, 0, 1), "kg:ghost": (1, 0, 0),
    }
    assert_matches_oracle(store)


def test_the_reference_kg_matches_the_oracle(reference_store):
    assert_matches_oracle(reference_store)


def test_an_empty_store_matches_the_oracle():
    assert_matches_oracle(TripleStore())


def test_a_star_builds_every_figure7_view(ontology):
    # at N=15 the power iteration meets no tolerance within 50 rounds: the
    # scores are the 50th iterate, and every view still builds
    store = TripleStore(
        [triple(f"kg:s{index:02d}", "performed_by", "kg:hub") for index in range(14)]
        + [triple("kg:hub", "name", "Hub")]
    )
    engine = GraphEngine(ontology)
    engine.publish_store(store, source_id="construction")
    names = engine.register_standard_views()
    assert set(engine.materialize_views()) == set(names) == {
        "entity_importance", "entity_features", "ranked_entity_index", "entity_neighbourhood",
    }
    assert engine.view_artifact("entity_importance")[0]["subject"] == "kg:hub"
    assert_matches_oracle(store)


def test_rows_do_not_depend_on_the_hash_seed():
    # the reference KG of the suite's world, scored in two processes whose
    # string hashes (and so set orders) differ
    snippet = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from conftest import SMALL_WORLD_CONFIG\n"
        "from repro.datagen import generate_world, world_to_store\n"
        "from repro.engine.importance import compute_importance, importance_view_rows\n"
        "store = world_to_store(generate_world(SMALL_WORLD_CONFIG))\n"
        "print(json.dumps(importance_view_rows(compute_importance(store).values())))\n"
    )
    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    tests_dir = str(pathlib.Path(__file__).resolve().parent)
    outputs = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=hash_seed)
        outputs.append(subprocess.run(
            [sys.executable, "-c", snippet, tests_dir],
            env=env, capture_output=True, text=True, check=True,
        ).stdout)
    assert json.loads(outputs[0])
    assert outputs[0] == outputs[1]
