"""Build a clean reference KG directly from the ground-truth world.

Several subsystems (NERD, embeddings, views, the live graph) are evaluated
against a *known-correct* knowledge graph so their measurements are not
confounded by linking noise.  This module converts the synthetic world into a
:class:`~repro.model.triples.TripleStore` whose entity identifiers are the
ground-truth identifiers, mirroring what the production platform would have
after a fully-converged construction run.
"""

from __future__ import annotations

from repro.datagen.world import World
from repro.model.provenance import Provenance
from repro.model.triples import ExtendedTriple, TripleStore
from repro.model.identifiers import relationship_id

REFERENCE_SOURCE = "reference"


def world_to_store(world: World, source_id: str = REFERENCE_SOURCE) -> TripleStore:
    """Materialize the ground-truth world as a triple store."""
    store = TripleStore()
    for entity in world.entities.values():
        provenance = Provenance.from_source(source_id, 0.95)
        store.add(
            ExtendedTriple(
                subject=entity.truth_id,
                predicate="type",
                obj=entity.entity_type,
                provenance=provenance,
            )
        )
        store.add(
            ExtendedTriple(
                subject=entity.truth_id,
                predicate="name",
                obj=entity.name,
                provenance=provenance,
            )
        )
        for alias in entity.aliases:
            store.add(
                ExtendedTriple(
                    subject=entity.truth_id,
                    predicate="alias",
                    obj=alias,
                    provenance=provenance,
                )
            )
        store.add(
            ExtendedTriple(
                subject=entity.truth_id,
                predicate="popularity",
                obj=round(float(entity.popularity), 4),
                provenance=provenance,
            )
        )
        for predicate, value in entity.facts.items():
            for item in value if isinstance(value, list) else [value]:
                if item is None:
                    continue
                store.add(
                    ExtendedTriple(
                        subject=entity.truth_id,
                        predicate=predicate,
                        obj=item,
                        provenance=provenance,
                    )
                )
        for predicate, nodes in entity.relationships.items():
            for node in nodes:
                discriminator = "|".join(f"{k}={node[k]}" for k in sorted(node))
                rel_id = relationship_id(entity.truth_id, predicate, discriminator)
                for rel_predicate, rel_value in node.items():
                    if rel_value is None:
                        continue
                    store.add(
                        ExtendedTriple(
                            subject=entity.truth_id,
                            predicate=predicate,
                            obj=rel_value,
                            relationship_id=rel_id,
                            relationship_predicate=rel_predicate,
                            provenance=provenance,
                        )
                    )
    return store
