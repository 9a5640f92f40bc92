"""NERD's output, pinned float for float.

``annotate`` over the tier-1 passages and ``link_mention`` over every entity
name of the tier-1 world (bare, and inside its passage context) are digested
with every score written as ``float.hex``, so any change to candidate
retrieval, the disambiguation features, their weights or the order of the
sum shows as a different digest.  Re-record the digest only for an intended
output change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.ml.nerd import NERDService

PINNED_NERD_DIGEST = "0cecb2199f89b996"


def _result_key(result) -> tuple:
    return (
        result.entity_id,
        result.confidence.hex(),
        result.rejected,
        result.candidate_count,
        sorted((entity_id, score.hex()) for entity_id, score in result.scores.items()),
    )


@pytest.fixture(scope="module")
def nerd_service(reference_store, ontology):
    return NERDService.from_store(reference_store, ontology)


def test_nerd_output_matches_pinned_digest(nerd_service, passages, world):
    annotations = [
        [
            (a.mention.text, a.mention.start, a.mention.end, a.entity_id,
             a.confidence.hex(), a.rejected, a.candidate_count)
            for a in nerd_service.annotate(passage.text)
        ]
        for passage in passages
    ]
    context = {m.truth_id: p.text for p in passages for m in p.mentions}
    links = [
        (
            entity.truth_id,
            name,
            _result_key(nerd_service.link_mention(name)),
            _result_key(nerd_service.link_mention(
                name, context_text=context.get(entity.truth_id, ""),
                type_hints=(entity.entity_type,),
            )),
        )
        for entity in sorted(world.entities.values(), key=lambda e: e.truth_id)
        for name in entity.all_names
    ]
    digest = hashlib.sha256(repr((annotations, links)).encode()).hexdigest()[:16]
    assert digest == PINNED_NERD_DIGEST
