"""The in-house open-domain ontology (Section 2.1 / 2.2).

The ontology controls:

* which **entity types** exist, arranged in a subclass hierarchy
  (``music_artist`` is-a ``person`` is-a ``entity``);
* which **predicates** exist, their expected value kind (literal, entity
  reference, or composite relationship), cardinality, and the entity types
  they apply to;
* **ontological constraints** used by truth discovery and fact verification
  (e.g. functional predicates can hold a single value per entity).

Saga's ingestion pipelines align source schemas to this ontology, and the
matching / fusion stages consult it for domain-specific behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.errors import OntologyError

ROOT_TYPE = "entity"


class ValueKind(str, Enum):
    """What a predicate's object is allowed to be."""

    LITERAL = "literal"
    REFERENCE = "reference"     # object is (or should resolve to) a KG entity
    COMPOSITE = "composite"     # object is a relationship node


class Cardinality(str, Enum):
    """How many values a predicate may hold per subject."""

    SINGLE = "single"
    MULTI = "multi"


@dataclass(frozen=True)
class EntityType:
    """An entity type in the ontology hierarchy."""

    name: str
    parent: str | None = ROOT_TYPE
    description: str = ""


@dataclass(frozen=True)
class PredicateSpec:
    """Schema information for one ontology predicate."""

    name: str
    value_kind: ValueKind = ValueKind.LITERAL
    cardinality: Cardinality = Cardinality.MULTI
    domain: tuple[str, ...] = ()          # entity types the predicate applies to ((): any)
    range_types: tuple[str, ...] = ()     # for REFERENCE predicates: allowed object types
    volatile: bool = False                # e.g. popularity: excluded from delta payloads
    description: str = ""

    @property
    def is_functional(self) -> bool:
        """True when at most one value is allowed per entity."""
        return self.cardinality is Cardinality.SINGLE


class Ontology:
    """Registry of entity types and predicates with hierarchy-aware lookups."""

    def __init__(self) -> None:
        self._types: dict[str, EntityType] = {ROOT_TYPE: EntityType(ROOT_TYPE, parent=None)}
        self._predicates: dict[str, PredicateSpec] = {}

    # -------------------------------------------------------------- #
    # registration
    # -------------------------------------------------------------- #
    def add_type(
        self, name: str, parent: str = ROOT_TYPE, description: str = ""
    ) -> EntityType:
        """Register an entity type under *parent*."""
        if not name:
            raise OntologyError("entity type name must be non-empty")
        if parent not in self._types:
            raise OntologyError(f"unknown parent type {parent!r} for {name!r}")
        entity_type = EntityType(name=name, parent=parent, description=description)
        self._types[name] = entity_type
        return entity_type

    def add_predicate(
        self,
        name: str,
        value_kind: ValueKind | str = ValueKind.LITERAL,
        cardinality: Cardinality | str = Cardinality.MULTI,
        domain: Iterable[str] = (),
        range_types: Iterable[str] = (),
        volatile: bool = False,
        description: str = "",
    ) -> PredicateSpec:
        """Register a predicate; referenced types must already exist."""
        if not name:
            raise OntologyError("predicate name must be non-empty")
        domain = tuple(domain)
        range_types = tuple(range_types)
        for type_name in (*domain, *range_types):
            if type_name not in self._types:
                raise OntologyError(
                    f"predicate {name!r} references unknown type {type_name!r}"
                )
        spec = PredicateSpec(
            name=name,
            value_kind=ValueKind(value_kind),
            cardinality=Cardinality(cardinality),
            domain=domain,
            range_types=range_types,
            volatile=volatile,
            description=description,
        )
        self._predicates[name] = spec
        return spec

    # -------------------------------------------------------------- #
    # lookups
    # -------------------------------------------------------------- #
    def has_type(self, name: str) -> bool:
        """Return whether *name* is a registered entity type."""
        return name in self._types

    def has_predicate(self, name: str) -> bool:
        """Return whether *name* is a registered predicate."""
        return name in self._predicates

    def type(self, name: str) -> EntityType:
        """Return the :class:`EntityType` called *name*."""
        try:
            return self._types[name]
        except KeyError:
            raise OntologyError(f"unknown entity type {name!r}") from None

    def predicate(self, name: str) -> PredicateSpec:
        """Return the :class:`PredicateSpec` called *name*."""
        try:
            return self._predicates[name]
        except KeyError:
            raise OntologyError(f"unknown predicate {name!r}") from None

    def types(self) -> list[str]:
        """All registered type names (including the root)."""
        return sorted(self._types)

    def volatile_predicates(self) -> set[str]:
        """Predicates flagged volatile (popularity-style update churn)."""
        return {name for name, spec in self._predicates.items() if spec.volatile}

    def ancestors(self, type_name: str) -> list[str]:
        """Return the chain of ancestors of *type_name* up to the root."""
        chain: list[str] = []
        current = self.type(type_name)
        while current.parent is not None:
            chain.append(current.parent)
            current = self.type(current.parent)
        return chain

    def is_subtype(self, type_name: str, ancestor: str) -> bool:
        """Return whether *type_name* equals or descends from *ancestor*."""
        if type_name == ancestor:
            return True
        return ancestor in self.ancestors(type_name)

    def common_supertype(self, first: str, second: str) -> str:
        """Return the most specific common ancestor of two types."""
        first_chain = [first, *self.ancestors(first)]
        second_chain = set([second, *self.ancestors(second)])
        for candidate in first_chain:
            if candidate in second_chain:
                return candidate
        return ROOT_TYPE

    def predicates_for_type(self, type_name: str) -> list[PredicateSpec]:
        """Predicates whose domain includes *type_name* (or any type)."""
        specs = []
        for spec in self._predicates.values():
            if not spec.domain:
                specs.append(spec)
                continue
            if any(self.is_subtype(type_name, domain_type) for domain_type in spec.domain):
                specs.append(spec)
        return sorted(specs, key=lambda s: s.name)

    def compatible_types(self, first: str, second: str) -> bool:
        """True when entities of the two types may refer to the same thing.

        Used by linking: a ``movie`` never matches a ``person``, but a
        ``music_artist`` may match a ``person`` because one subsumes the other.
        """
        if not first or not second:
            return True
        if not self.has_type(first) or not self.has_type(second):
            return first == second
        return self.is_subtype(first, second) or self.is_subtype(second, first)

    # -------------------------------------------------------------- #
    # validation
    # -------------------------------------------------------------- #
    def validate_fact(
        self, entity_type: str, predicate: str, existing_value_count: int = 0
    ) -> list[str]:
        """Return a list of constraint violations for asserting a fact.

        An empty list means the fact is admissible.  Violations are advisory
        strings used by fusion and fact verification rather than hard errors,
        because real feeds routinely contain recoverable issues.
        """
        violations: list[str] = []
        if not self.has_predicate(predicate):
            violations.append(f"unknown predicate {predicate!r}")
            return violations
        spec = self.predicate(predicate)
        if spec.domain and entity_type:
            if self.has_type(entity_type):
                if not any(self.is_subtype(entity_type, d) for d in spec.domain):
                    violations.append(
                        f"predicate {predicate!r} does not apply to type {entity_type!r}"
                    )
            else:
                violations.append(f"unknown entity type {entity_type!r}")
        if spec.is_functional and existing_value_count >= 1:
            violations.append(
                f"functional predicate {predicate!r} already has a value"
            )
        return violations

    def copy(self) -> "Ontology":
        """Return an independent copy of the ontology."""
        clone = Ontology()
        clone._types = dict(self._types)
        clone._predicates = dict(self._predicates)
        return clone


def default_ontology() -> Ontology:
    """Build the open-domain ontology used by examples, tests, and benches.

    Covers the verticals the paper motivates: people, music (artists, albums,
    songs, playlists), movies, organizations, places, plus live-graph types
    (sports games/teams, stocks, flights).
    """
    onto = Ontology()

    # --- entity type hierarchy -------------------------------------- #
    onto.add_type("person")
    onto.add_type("music_artist", parent="person")
    onto.add_type("actor", parent="person")
    onto.add_type("athlete", parent="person")
    onto.add_type("creative_work")
    onto.add_type("song", parent="creative_work")
    onto.add_type("album", parent="creative_work")
    onto.add_type("playlist", parent="creative_work")
    onto.add_type("movie", parent="creative_work")
    onto.add_type("organization")
    onto.add_type("school", parent="organization")
    onto.add_type("record_label", parent="organization")
    onto.add_type("sports_team", parent="organization")
    onto.add_type("company", parent="organization")
    onto.add_type("place")
    onto.add_type("city", parent="place")
    onto.add_type("country", parent="place")
    onto.add_type("stadium", parent="place")
    onto.add_type("event")
    onto.add_type("sports_game", parent="event")
    onto.add_type("flight", parent="event")
    onto.add_type("financial_instrument")
    onto.add_type("stock", parent="financial_instrument")

    # --- common predicates ------------------------------------------ #
    onto.add_predicate("name", ValueKind.LITERAL, Cardinality.MULTI)
    onto.add_predicate("alias", ValueKind.LITERAL, Cardinality.MULTI)
    onto.add_predicate("description", ValueKind.LITERAL, Cardinality.SINGLE)
    onto.add_predicate("type", ValueKind.LITERAL, Cardinality.MULTI)
    onto.add_predicate("same_as", ValueKind.LITERAL, Cardinality.MULTI)
    onto.add_predicate("popularity", ValueKind.LITERAL, Cardinality.SINGLE, volatile=True)
    onto.add_predicate("image_url", ValueKind.LITERAL, Cardinality.MULTI)

    # --- person ------------------------------------------------------ #
    onto.add_predicate("birth_date", ValueKind.LITERAL, Cardinality.SINGLE, domain=("person",))
    onto.add_predicate("death_date", ValueKind.LITERAL, Cardinality.SINGLE, domain=("person",))
    onto.add_predicate(
        "birth_place", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("person",), range_types=("place",),
    )
    onto.add_predicate("occupation", ValueKind.LITERAL, Cardinality.MULTI, domain=("person",))
    onto.add_predicate(
        "spouse", ValueKind.REFERENCE, Cardinality.MULTI,
        domain=("person",), range_types=("person",),
    )
    onto.add_predicate(
        "educated_at", ValueKind.COMPOSITE, Cardinality.MULTI, domain=("person",),
    )

    # --- music -------------------------------------------------------- #
    onto.add_predicate(
        "performed_by", ValueKind.REFERENCE, Cardinality.MULTI,
        domain=("song", "album"), range_types=("music_artist",),
    )
    onto.add_predicate(
        "part_of_album", ValueKind.REFERENCE, Cardinality.MULTI,
        domain=("song",), range_types=("album",),
    )
    onto.add_predicate(
        "record_label", ValueKind.REFERENCE, Cardinality.MULTI,
        domain=("music_artist", "album"), range_types=("record_label",),
    )
    onto.add_predicate("genre", ValueKind.LITERAL, Cardinality.MULTI)
    onto.add_predicate("release_date", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("creative_work",))
    onto.add_predicate("duration_seconds", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("song",))
    onto.add_predicate(
        "track", ValueKind.REFERENCE, Cardinality.MULTI,
        domain=("playlist", "album"), range_types=("song",),
    )

    # --- movies -------------------------------------------------------- #
    onto.add_predicate(
        "directed_by", ValueKind.REFERENCE, Cardinality.MULTI,
        domain=("movie",), range_types=("person",),
    )
    onto.add_predicate(
        "cast_member", ValueKind.COMPOSITE, Cardinality.MULTI, domain=("movie",),
    )
    onto.add_predicate("full_title", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("creative_work",))

    # --- organizations / places ---------------------------------------- #
    onto.add_predicate(
        "headquarters", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("organization",), range_types=("place",),
    )
    onto.add_predicate(
        "located_in", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("place", "organization"), range_types=("place",),
    )
    onto.add_predicate(
        "capital", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("country",), range_types=("city",),
    )
    onto.add_predicate(
        "mayor", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("city",), range_types=("person",),
    )
    onto.add_predicate(
        "head_of_state", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("country",), range_types=("person",),
    )
    onto.add_predicate("population", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("place",), volatile=True)

    # --- live graph types ----------------------------------------------- #
    onto.add_predicate(
        "home_team", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("sports_game",), range_types=("sports_team",),
    )
    onto.add_predicate(
        "away_team", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("sports_game",), range_types=("sports_team",),
    )
    onto.add_predicate(
        "venue", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("sports_game",), range_types=("stadium",),
    )
    onto.add_predicate("home_score", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("sports_game",), volatile=True)
    onto.add_predicate("away_score", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("sports_game",), volatile=True)
    onto.add_predicate("game_status", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("sports_game",), volatile=True)
    onto.add_predicate("ticker", ValueKind.LITERAL, Cardinality.SINGLE, domain=("stock",))
    onto.add_predicate("stock_price", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("stock",), volatile=True)
    onto.add_predicate("flight_number", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("flight",))
    onto.add_predicate("flight_status", ValueKind.LITERAL, Cardinality.SINGLE,
                       domain=("flight",), volatile=True)
    onto.add_predicate(
        "departure_airport", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("flight",), range_types=("place",),
    )
    onto.add_predicate(
        "arrival_airport", ValueKind.REFERENCE, Cardinality.SINGLE,
        domain=("flight",), range_types=("place",),
    )
    onto.add_predicate(
        "plays_for", ValueKind.REFERENCE, Cardinality.MULTI,
        domain=("athlete",), range_types=("sports_team",),
    )
    return onto
