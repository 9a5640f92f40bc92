"""Ontology alignment via Predicate Generation Functions (PGFs) (Section 2.2).

Alignment populates a target schema that follows the KG ontology.  Saga uses a
config-driven paradigm: users specify source predicates and target predicates
and PGFs populate the target schema from the source data.  A PGF may:

* rename a predicate (``category`` → ``genre``);
* combine a group of source predicates into one target predicate
  (``<title, sequel_number>`` → ``full_title``);
* transform values (parse years, split lists, coerce numbers).

Subjects and objects stay in the source namespace after alignment; they are
linked to KG identifiers later, during knowledge construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.errors import AlignmentError
from repro.model.entity import SourceEntity
from repro.model.ontology import Ontology


@dataclass
class PredicateGenerationFunction:
    """Populate one target (KG-ontology) predicate from source predicates.

    Parameters
    ----------
    target_predicate
        Predicate name in the KG ontology.
    source_predicates
        Source predicate names consumed by this PGF, in order.
    combine
        Optional callable receiving the source values (one positional argument
        per source predicate, missing values are ``None``) and returning the
        target value.  When omitted: a single source predicate is copied
        through, multiple source predicates are joined with a space.
    transform
        Optional callable applied to the combined value (and to each element
        of list values).
    required
        When ``True``, alignment reports a violation if no value could be
        produced for this predicate.
    """

    target_predicate: str
    source_predicates: tuple[str, ...]
    combine: Callable[..., object] | None = None
    transform: Callable[[object], object] | None = None
    required: bool = False

    def __post_init__(self) -> None:
        if not self.target_predicate:
            raise AlignmentError("PGF target predicate must be non-empty")
        if not self.source_predicates:
            raise AlignmentError(
                f"PGF for {self.target_predicate!r} needs at least one source predicate"
            )

    def apply(self, properties: Mapping[str, object]) -> object | None:
        """Compute the target value from the source *properties*."""
        values = [properties.get(name) for name in self.source_predicates]
        if self.combine is not None:
            combined = self.combine(*values)
        elif len(values) == 1:
            combined = values[0]
        else:
            present = [str(v) for v in values if v not in (None, "", [])]
            combined = " ".join(present) if present else None
        if combined is None:
            return None
        if self.transform is None:
            return combined
        if isinstance(combined, list):
            transformed = [self.transform(v) for v in combined]
            return [v for v in transformed if v is not None]
        return self.transform(combined)


# Short alias used throughout configs, mirroring the paper's terminology.
PGF = PredicateGenerationFunction


@dataclass
class AlignmentConfig:
    """Config-driven specification of source-to-ontology alignment."""

    source_id: str
    pgfs: list[PredicateGenerationFunction] = field(default_factory=list)
    type_map: dict[str, str] = field(default_factory=dict)   # source type -> KG type
    default_type: str = ""
    passthrough_unmapped: bool = True   # copy predicates already named per the ontology
    drop_predicates: tuple[str, ...] = ()

    def add_rename(self, source_predicate: str, target_predicate: str) -> "AlignmentConfig":
        """Convenience: add a simple rename PGF."""
        self.pgfs.append(PGF(target_predicate, (source_predicate,)))
        return self

    def mapped_source_predicates(self) -> set[str]:
        """Source predicates consumed by at least one PGF."""
        consumed: set[str] = set()
        for pgf in self.pgfs:
            consumed.update(pgf.source_predicates)
        return consumed


@dataclass
class AlignmentReport:
    """Statistics and violations produced while aligning one payload."""

    total: int = 0
    aligned: int = 0
    unknown_predicates: dict[str, int] = field(default_factory=dict)
    missing_required: list[str] = field(default_factory=list)
    unknown_types: dict[str, int] = field(default_factory=dict)

    def note_unknown_predicate(self, predicate: str) -> None:
        """Count a predicate that is not part of the KG ontology."""
        self.unknown_predicates[predicate] = self.unknown_predicates.get(predicate, 0) + 1

    def note_unknown_type(self, entity_type: str) -> None:
        """Count an entity type that is not part of the KG ontology."""
        self.unknown_types[entity_type] = self.unknown_types.get(entity_type, 0) + 1


class OntologyAligner:
    """Apply an :class:`AlignmentConfig` to entity-centric source records."""

    def __init__(self, ontology: Ontology, config: AlignmentConfig) -> None:
        self.ontology = ontology
        self.config = config

    def align(self, entities: Iterable[SourceEntity]) -> tuple[list[SourceEntity], AlignmentReport]:
        """Return ontology-aligned copies of *entities* plus a report."""
        report = AlignmentReport()
        aligned_entities: list[SourceEntity] = []
        for entity in entities:
            report.total += 1
            aligned_entities.append(self._align_entity(entity, report))
            report.aligned += 1
        return aligned_entities, report

    def _align_entity(self, entity: SourceEntity, report: AlignmentReport) -> SourceEntity:
        target_properties: dict[str, object] = {}

        # 1. PGFs populate the target schema.
        for pgf in self.config.pgfs:
            value = pgf.apply(entity.properties)
            if value in (None, "", []):
                if pgf.required:
                    report.missing_required.append(
                        f"{entity.entity_id}:{pgf.target_predicate}"
                    )
                continue
            if not self.ontology.has_predicate(pgf.target_predicate):
                report.note_unknown_predicate(pgf.target_predicate)
            target_properties[pgf.target_predicate] = value

        # 2. Pass through source predicates already expressed in the ontology.
        if self.config.passthrough_unmapped:
            consumed = self.config.mapped_source_predicates()
            for predicate, value in entity.properties.items():
                if predicate in consumed or predicate in target_properties:
                    continue
                if predicate in self.config.drop_predicates:
                    continue
                if value in (None, "", []):
                    continue
                if self.ontology.has_predicate(predicate):
                    target_properties[predicate] = value
                else:
                    report.note_unknown_predicate(predicate)

        # 3. Map the entity type into the KG ontology.
        entity_type = self.config.type_map.get(
            entity.entity_type, entity.entity_type or self.config.default_type
        )
        if entity_type and not self.ontology.has_type(entity_type):
            report.note_unknown_type(entity_type)
            entity_type = self.config.default_type or entity_type

        return SourceEntity(
            entity_id=entity.entity_id,
            entity_type=entity_type,
            properties=target_properties,
            source_id=entity.source_id or self.config.source_id,
            trust=entity.trust,
            locale=entity.locale,
        )


# --------------------------------------------------------------------- #
# common value transforms used in alignment configs
# --------------------------------------------------------------------- #
def to_int(value: object) -> int | None:
    """Parse *value* as an integer, returning ``None`` when impossible."""
    try:
        return int(str(value).strip())
    except (TypeError, ValueError):
        return None


def split_list(separator: str = "|") -> Callable[[object], object]:
    """Return a transform splitting delimiter-joined strings into lists."""

    def _split(value: object) -> object:
        if isinstance(value, str) and separator in value:
            return [part.strip() for part in value.split(separator) if part.strip()]
        return value

    return _split


def join_title(title: object, qualifier: object) -> object:
    """Combine ``<title, sequel_number>`` into ``full_title`` (paper example)."""
    if title in (None, ""):
        return None
    if qualifier in (None, ""):
        return str(title)
    return f"{title} {qualifier}"
