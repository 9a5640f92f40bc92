"""Object Resolution (OBR): map literal objects to KG entity identifiers.

Section 2.3: many triples carry a string literal (e.g. a person name) in the
object field of a reference predicate.  OBR resolves such literals to existing
KG entities — or creates new entities — so cross-references in the KG are
normalized.  The production system backs OBR with the NERD stack (Section 5.2);
this module defines the resolver interface, a lightweight name-index resolver
used for bootstrapping and tests, and :class:`ObjectResolutionStage`, whose
:meth:`~ObjectResolutionStage.resolve_linked` a construction commit calls to
rewrite linked entities into KG triples just before fusing them.  A mention
no resolver answers with enough confidence gets a new entity, so every
reference object leaves OBR as a KG identifier.

The NERD service (:mod:`repro.ml.nerd.service`) satisfies the
:class:`ObjectResolver` protocol structurally, so it can be plugged in without
an import dependency from the ML stack onto construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

from repro.ml.similarity import jaro_winkler_normalized, normalize_string
from repro.model.entity import NAME_PREDICATES, TYPE_PREDICATE, SourceEntity
from repro.model.identifiers import IdGenerator, is_kg_identifier
from repro.model.ontology import Ontology, ValueKind
from repro.model.triples import ExtendedTriple, TripleStore

FUZZY_THRESHOLD = 0.90
"""Least Jaro-Winkler score at which :class:`NameIndexResolver` accepts a
fuzzy name match."""

EXACT_CONFIDENCE = 0.97
"""Confidence :class:`NameIndexResolver` reports for an exact name hit."""

FUZZY_CONFIDENCE_CAP = 0.96
"""Highest confidence :class:`NameIndexResolver` reports for a fuzzy hit,
strictly below :data:`EXACT_CONFIDENCE`: a misspelt mention never outranks a
correctly spelt one.  A fuzzy hit scores at least :data:`FUZZY_THRESHOLD`, so
the cap changes no decision against :data:`CONFIDENCE_THRESHOLD`."""

CONFIDENCE_THRESHOLD = 0.9
"""Least resolver confidence :class:`ObjectResolutionStage` accepts; a mention
below it gets a new entity."""


@dataclass
class ResolutionContext:
    """Context handed to a resolver alongside the mention."""

    subject_id: str = ""
    predicate: str = ""
    expected_types: tuple[str, ...] = ()
    context_values: tuple[str, ...] = ()   # other literals about the same subject
    locale: str = "en"


@dataclass
class Resolution:
    """A resolver's answer for one mention."""

    entity_id: str
    confidence: float
    candidate_count: int = 0
    created: bool = False


class ObjectResolver(Protocol):
    """Anything that can resolve a text mention to a KG entity identifier."""

    def resolve(self, mention: str, context: ResolutionContext) -> Resolution | None:
        """Return the best resolution for *mention*, or ``None`` to reject."""
        ...


class NameIndexResolver:
    """Resolve mentions by (fuzzy) lookup in a name → entity index.

    This is the bootstrap resolver: exact normalized-name hits are returned
    with high confidence; otherwise the best fuzzy match above a threshold
    wins.  Entity-type hints restrict the candidate set exactly like the
    "NERD + type hints" configuration in Figure 14(b).

    The index records which names and types each subject contributed, so
    :meth:`reread` can bring a few subjects up to date without rescanning
    the store; an :class:`~repro.construction.incremental.IncrementalConstructor`
    keeps one resolver for its lifetime that way.
    """

    def __init__(self, store: TripleStore, ontology: Ontology | None = None) -> None:
        self.ontology = ontology
        # Tuples, not sets: the index lives as long as its constructor, and
        # nearly every name has one holder and every entity one type.
        self._names: dict[str, tuple[str, ...]] = {}          # normalized name -> entity ids
        self._types: dict[str, tuple[str, ...]] = {}          # entity id -> types
        self._subject_names: dict[str, tuple[str, ...]] = {}  # entity id -> normalized names
        #: :meth:`_string_info` of every name the index ever held, computed
        #: once per name
        self._name_info: dict[str, tuple[int, int, int, str, tuple[int, ...]]] = {}
        #: entities :meth:`add_entity` registered since the last re-read
        self._registered: set[str] = set()
        self.refresh(store)

    def refresh(self, store: TripleStore) -> None:
        """Rebuild the index from the current KG triple store."""
        self._names.clear()
        self._types.clear()
        self._subject_names.clear()
        self.reread(store, store.subjects())

    def reread(self, store: TripleStore, subjects: Iterable[str]) -> None:
        """Re-read *subjects*, and every entity :meth:`add_entity` registered
        since the last re-read, from *store*: afterwards the index holds for
        them exactly their ``name`` / ``alias`` / ``title`` / ``full_title``
        and ``type`` objects in the store."""
        for subject in {*subjects, *self._registered}:
            for name in self._subject_names.pop(subject, ()):
                holders = tuple(holder for holder in self._names[name] if holder != subject)
                if holders:
                    self._names[name] = holders
                else:
                    del self._names[name]
            self._types.pop(subject, None)
            for predicate, _, obj in store.scan_subject(subject):
                if predicate == TYPE_PREDICATE:
                    _add_member(self._types, subject, str(obj))
                elif predicate in NAME_PREDICATES:
                    self._add_name(subject, obj)
        self._registered.clear()

    def add_entity(self, entity_id: str, names: Iterable[str], entity_type: str = "") -> None:
        """Register a newly created entity so later mentions resolve to it."""
        for name in names:
            self._add_name(entity_id, name)
        if entity_type:
            _add_member(self._types, entity_id, entity_type)
        self._registered.add(entity_id)

    def resolve(self, mention: str, context: ResolutionContext) -> Resolution | None:
        """Resolve *mention* against the name index.

        An exact hit reports :data:`EXACT_CONFIDENCE`; a fuzzy one its
        Jaro-Winkler score, capped at :data:`FUZZY_CONFIDENCE_CAP`.  Among
        equal candidates the smallest entity id wins, so the answer does not
        depend on the order names entered the index.

        The fuzzy scan prunes index names that provably cannot reach the
        threshold before computing any similarity: Jaro-Winkler with prefix
        weight 0.1 is bounded by ``0.6 * jaro + 0.4``, and Jaro itself is
        bounded by the character-multiset overlap of the two strings — so a
        length-ratio check and a shared-character count eliminate the vast
        majority of candidates with exact results (the scan was the dominant
        cost of object resolution, which runs inside every commit).
        """
        normalized = normalize_string(mention)
        if not normalized:
            return None
        exact = self._filter_by_type(self._names.get(normalized, ()), context)
        if exact:
            return Resolution(
                entity_id=min(exact), confidence=EXACT_CONFIDENCE, candidate_count=len(exact)
            )
        best_id, best_score, candidates = "", 0.0, 0
        # jw = jaro + prefix * 0.1 * (1 - jaro), prefix <= 4  =>  jw <= 0.6 * jaro + 0.4
        min_jaro = (FUZZY_THRESHOLD - 0.4) / 0.6
        needed = 3.0 * min_jaro - 1.0    # m/|a| + m/|b| must reach this
        q_len, q_mask, q_surplus, q_chars, q_counts = self._string_info(normalized)
        q_count_of = dict(zip(q_chars, q_counts))
        name_info = self._name_info
        for name, holders in self._names.items():
            n_len, n_mask, n_surplus, n_chars, n_counts = name_info[name]
            # Jaro match count m is bounded by min(|a|, |b|) ...
            shorter = q_len if q_len < n_len else n_len
            if shorter / q_len + shorter / n_len < needed:
                continue
            # ... by the distinct shared characters plus the smaller
            # repeat surplus (multiset intersection <= distinct common +
            # min surplus; bitmask collisions only loosen the bound) ...
            bound = (q_mask & n_mask).bit_count() + (
                q_surplus if q_surplus < n_surplus else n_surplus
            )
            if bound < shorter and bound / q_len + bound / n_len < needed:
                continue
            # ... and exactly by the character-multiset intersection.
            common = 0
            for char, count in zip(n_chars, n_counts):
                mine = q_count_of.get(char, 0)
                common += count if count < mine else mine
            if common / q_len + common / n_len < needed:
                continue
            score = jaro_winkler_normalized(normalized, name)
            if score < FUZZY_THRESHOLD:
                continue
            filtered = self._filter_by_type(holders, context)
            if not filtered:
                continue
            candidates += len(filtered)
            chosen = min(filtered)
            if score > best_score or (score == best_score and chosen < best_id):
                best_score, best_id = score, chosen
        if not candidates:
            return None
        return Resolution(
            entity_id=best_id,
            confidence=min(best_score, FUZZY_CONFIDENCE_CAP),
            candidate_count=candidates,
        )

    def _add_name(self, subject: str, name: object) -> None:
        normalized = normalize_string(name)
        if not normalized:
            return
        _add_member(self._names, normalized, subject)
        _add_member(self._subject_names, subject, normalized)
        if normalized not in self._name_info:
            self._name_info[normalized] = self._string_info(normalized)

    @staticmethod
    def _string_info(normalized: str) -> tuple[int, int, int, str, tuple[int, ...]]:
        """``(length, character bitmask, repeat surplus, distinct characters,
        their counts)``.

        The bitmask folds characters onto 64 bits (collisions only loosen the
        pruning bound, never tighten it); the repeat surplus is ``length -
        distinct characters`` — together they bound the character-multiset
        intersection from above without touching the counts.  The counts are
        a string and a tuple rather than a dict: the index keeps one entry per
        name for its lifetime.
        """
        counts: dict[str, int] = {}
        mask = 0
        for char in normalized:
            counts[char] = counts.get(char, 0) + 1
            mask |= 1 << (ord(char) & 63)
        return (
            len(normalized), mask, len(normalized) - len(counts),
            "".join(counts), tuple(counts.values()),
        )

    def _filter_by_type(
        self, entity_ids: Iterable[str], context: ResolutionContext
    ) -> set[str]:
        if not context.expected_types:
            return set(entity_ids)
        filtered = set()
        for entity_id in entity_ids:
            entity_types = self._types.get(entity_id, ())
            if not entity_types:
                filtered.add(entity_id)
                continue
            for entity_type in entity_types:
                if any(
                    self._compatible(entity_type, expected)
                    for expected in context.expected_types
                ):
                    filtered.add(entity_id)
                    break
        return filtered

    def _compatible(self, entity_type: str, expected: str) -> bool:
        if self.ontology is None or not self.ontology.has_type(entity_type):
            return entity_type == expected
        if not self.ontology.has_type(expected):
            return entity_type == expected
        return self.ontology.compatible_types(entity_type, expected)


@dataclass
class ObjectResolutionStats:
    """Counters describing one object-resolution pass."""

    examined: int = 0
    resolved: int = 0
    created: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for logging and tests."""
        return {
            "examined": self.examined,
            "resolved": self.resolved,
            "created": self.created,
        }


@dataclass
class ObjectResolutionStage:
    """Rewrite reference-predicate objects of linked triples to KG ids."""

    ontology: Ontology
    resolver: ObjectResolver
    id_generator: IdGenerator | None = None
    _creations: dict[str, str] = field(default_factory=dict)

    def resolve_linked(
        self, entities: Sequence[SourceEntity], assignments: dict[str, str]
    ) -> tuple[dict[str, list[ExtendedTriple]], ObjectResolutionStats]:
        """Rewrite linked source entities into resolved KG triples by subject.

        *assignments* maps source entity ids to KG ids; an entity without one
        is skipped.  The payload's own entities are registered with a
        name-index resolver first, so a reference can point at an entity
        arriving in the same payload (a song naming an artist shipped
        alongside it) instead of minting a duplicate.  Reads the live store's
        name index and may mint identifiers, so it runs inside a commit.
        """
        if isinstance(self.resolver, NameIndexResolver):
            for entity in entities:
                kg_id = assignments.get(entity.entity_id)
                if kg_id is not None:
                    self.resolver.add_entity(kg_id, entity.names(), entity.entity_type)
        all_triples: list[ExtendedTriple] = []
        for entity in entities:
            kg_id = assignments.get(entity.entity_id)
            if kg_id is not None:
                all_triples.extend(t.with_subject(kg_id) for t in entity.to_triples())
        resolved, created, stats = self.resolve_triples(all_triples)
        triples_by_subject: dict[str, list[ExtendedTriple]] = {}
        for triple in [*resolved, *created]:
            triples_by_subject.setdefault(triple.subject, []).append(triple)
        return triples_by_subject, stats

    def resolve_triples(
        self, triples: Sequence[ExtendedTriple]
    ) -> tuple[list[ExtendedTriple], list[ExtendedTriple], ObjectResolutionStats]:
        """Resolve objects in *triples*.

        Returns ``(resolved_triples, new_entity_triples, stats)`` where
        ``new_entity_triples`` carries the name/type facts of the entities
        minted for mentions no resolver answered with at least
        :data:`CONFIDENCE_THRESHOLD`; one mention mints one entity per stage.
        """
        stats = ObjectResolutionStats()
        resolved: list[ExtendedTriple] = []
        new_entity_triples: list[ExtendedTriple] = []
        contexts: dict[str, tuple[str, ...]] | None = None

        for triple in triples:
            predicate_name = triple.relationship_predicate or triple.predicate
            if not self._needs_resolution(triple, predicate_name):
                resolved.append(triple)
                continue
            stats.examined += 1
            if contexts is None:
                contexts = _context_values(triples)
            context = ResolutionContext(
                subject_id=triple.subject,
                predicate=predicate_name,
                expected_types=self._expected_types(predicate_name),
                context_values=contexts[triple.subject],
                locale=triple.locale,
            )
            resolution = self.resolver.resolve(str(triple.obj), context)
            if resolution is not None and resolution.confidence >= CONFIDENCE_THRESHOLD:
                resolved.append(triple.with_object(resolution.entity_id))
                stats.resolved += 1
                continue
            entity_id, created_triples = self._create_entity(triple, predicate_name)
            resolved.append(triple.with_object(entity_id))
            new_entity_triples.extend(created_triples)
            stats.created += 1
        return resolved, new_entity_triples, stats

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def _needs_resolution(self, triple: ExtendedTriple, predicate_name: str) -> bool:
        if not isinstance(triple.obj, str) or is_kg_identifier(triple.obj):
            return False
        if not self.ontology.has_predicate(predicate_name):
            return False
        return self.ontology.predicate(predicate_name).value_kind is ValueKind.REFERENCE

    def _expected_types(self, predicate_name: str) -> tuple[str, ...]:
        if not self.ontology.has_predicate(predicate_name):
            return ()
        return self.ontology.predicate(predicate_name).range_types

    def _create_entity(
        self, triple: ExtendedTriple, predicate_name: str
    ) -> tuple[str, list[ExtendedTriple]]:
        mention_key = normalize_string(triple.obj)
        existing = self._creations.get(mention_key)
        if existing is not None:
            return existing, []
        generator = self.id_generator or IdGenerator()
        self.id_generator = generator
        entity_id = generator.next_id()
        self._creations[mention_key] = entity_id
        created = [
            ExtendedTriple(
                subject=entity_id,
                predicate="name",
                obj=str(triple.obj),
                locale=triple.locale,
                provenance=triple.provenance,
            )
        ]
        expected = self._expected_types(predicate_name)
        if expected:
            created.append(
                ExtendedTriple(
                    subject=entity_id,
                    predicate="type",
                    obj=expected[0],
                    locale=triple.locale,
                    provenance=triple.provenance,
                )
            )
        # Make the fresh entity immediately addressable by later mentions.
        if isinstance(self.resolver, NameIndexResolver):
            self.resolver.add_entity(
                entity_id, [str(triple.obj)], expected[0] if expected else ""
            )
        return entity_id, created


def _context_values(triples: Sequence[ExtendedTriple]) -> dict[str, tuple[str, ...]]:
    """Each subject's first 12 string objects, in triple order, in one pass."""
    grouped: dict[str, list[str]] = {}
    for triple in triples:
        if isinstance(triple.obj, str):
            values = grouped.setdefault(triple.subject, [])
            if len(values) < 12:
                values.append(str(triple.obj))
    return {subject: tuple(values) for subject, values in grouped.items()}


def _add_member(index: dict[str, tuple[str, ...]], key: str, member: str) -> None:
    """Add *member* to the tuple *index* holds under *key*, once."""
    held = index.get(key, ())
    if member not in held:
        index[key] = (*held, member)
