"""The analytics warehouse: a relational projection of the KG.

Section 3.1.1: the analytics engine is a relational data warehouse over the
KG extended triples; it powers analytics jobs and generates subgraph and
schematized entity views for upstream tasks.  Its optimized join processing is
what Figure 8 compares against a legacy Spark-based implementation.

This module provides:

* :class:`Relation` — a small in-memory relational table with rename,
  hash-join, and group-by operators;
* :class:`AnalyticsStore` — a read-only projection of a
  :class:`~repro.model.triples.TripleStore`: relation extraction, join-input
  loaders and schematized entity-view computation built on hash joins (the
  optimized path measured in the FIG8 benchmark), all read off the store's
  columns, with no copy of the facts;
* :class:`JoinAccessPattern` — the indexed join inputs of incrementally
  maintained join views (:mod:`repro.engine.views`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import StoreError
from repro.model.entity import NAME_PREDICATES, TYPE_PREDICATE
from repro.model.triples import TripleStore

Row = dict


@dataclass
class Relation:
    """A named, in-memory relational table."""

    name: str
    rows: list[Row] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def from_columns(cls, name: str, columns: dict[str, list]) -> "Relation":
        """Build a relation from parallel column lists (batch construction).

        The batch idiom of the columnar store applied to the warehouse: join
        build sides assemble from whole columns in one zip instead of one
        dict append per source row.  All columns must have equal length.
        """
        if not columns:
            return cls(name, [])
        names = list(columns)
        lengths = {column: len(columns[column]) for column in names}
        if len(set(lengths.values())) > 1:
            raise StoreError(
                f"relation {name!r} needs equal-length columns; got "
                + ", ".join(f"{column}={length}" for column, length in lengths.items())
            )
        rows = [
            dict(zip(names, values))
            for values in zip(*(columns[column] for column in names))
        ]
        return cls(name, rows)

    # -------------------------------------------------------------- #
    # operators
    # -------------------------------------------------------------- #
    def rename(self, mapping: dict[str, str]) -> "Relation":
        """Rename columns according to *mapping*."""
        renamed = []
        for row in self.rows:
            renamed.append({mapping.get(key, key): value for key, value in row.items()})
        return Relation(self.name, renamed)

    def hash_join(
        self,
        other: "Relation",
        left_key: str,
        right_key: str,
        how: str = "inner",
    ) -> "Relation":
        """Hash join with *other* on ``left_key == right_key``.

        ``how`` is ``"inner"`` or ``"left"``.  The smaller relation is always
        used to build the hash table, which is the textbook optimization the
        legacy row-at-a-time implementation lacks.

        Every row must carry its side's join key (a ``None`` *value* is a
        legal key and joins other ``None`` keys); a row missing the key
        column outright raises :class:`~repro.errors.StoreError` naming the
        relation, the row index, and the column — silently joining absent
        keys as ``None`` hid schema mistakes.
        """
        if how not in ("inner", "left"):
            raise StoreError(f"unsupported join type {how!r}")
        self._require_key(left_key)
        other._require_key(right_key)
        build_right = len(other.rows) <= len(self.rows) or how == "left"
        if build_right:
            table: dict[object, list[Row]] = defaultdict(list)
            for row in other.rows:
                table[row[right_key]].append(row)
            joined = []
            for row in self.rows:
                matches = table.get(row[left_key], [])
                if matches:
                    for match in matches:
                        joined.append({**match, **row})
                elif how == "left":
                    joined.append(dict(row))
            return Relation(f"{self.name}⋈{other.name}", joined)
        # Build on the left side instead, then probe with the right rows.
        table = defaultdict(list)
        for row in self.rows:
            table[row[left_key]].append(row)
        joined = []
        for row in other.rows:
            for match in table.get(row[right_key], []):
                joined.append({**row, **match})
        return Relation(f"{self.name}⋈{other.name}", joined)

    def _require_key(self, key: str) -> None:
        for index, row in enumerate(self.rows):
            if key not in row:
                raise StoreError(
                    f"relation {self.name!r} row {index} is missing join key "
                    f"{key!r}; every row of a join side must carry the key column"
                )

    def group_by(
        self,
        keys: Sequence[str],
        aggregations: dict[str, Callable[[list[Row]], object]],
    ) -> "Relation":
        """Group rows by *keys* and apply named aggregation callables."""
        groups: dict[tuple, list[Row]] = defaultdict(list)
        for row in self.rows:
            groups[tuple(row.get(key) for key in keys)].append(row)
        result = []
        for group_key, group_rows in groups.items():
            out = dict(zip(keys, group_key))
            for name, aggregate in aggregations.items():
                out[name] = aggregate(group_rows)
            result.append(out)
        return Relation(f"{self.name}_grouped", result)

    def to_rows(self) -> list[Row]:
        """Copy of the underlying rows."""
        return [dict(row) for row in self.rows]


class JoinAccessPattern:
    """Hash access patterns over one join input (IVM building block).

    The indexed access patterns of the delta-query factorization (PAPERS.md,
    *Conjunctive Queries with Free Access Patterns under Updates*): a join
    input is materialized twice — ``subject → rows`` for replaying one
    entity's contribution, and ``join-key → subjects`` for probing which
    partners a delta on the *other* side touches.  Both stay consistent under
    :meth:`replace_subject_rows`, so maintenance cost is O(|delta| · lookup)
    instead of O(|input|).

    Rows must be dicts carrying ``subject`` and the *key* column; validation
    mirrors :meth:`Relation.hash_join` — a missing key column is a schema
    mistake, not an empty join.
    """

    def __init__(self, name: str, key: str) -> None:
        if not name:
            raise StoreError("join access pattern needs a non-empty name")
        if not key:
            raise StoreError(f"join input {name!r} needs a non-empty join key")
        self.name = name
        self.key = key
        self._rows_by_subject: dict[str, list[Row]] = {}
        self._subjects_by_key: dict[object, set[str]] = defaultdict(set)
        self.lookups = 0

    def rebuild(self, rows: Iterable[Row]) -> int:
        """Batch-(re)build both indexes from scratch; returns the row count.

        Columnar construction: rows are validated once and grouped per
        subject in one pass, the same batch idiom
        :meth:`Relation.from_columns` applies to join build sides.
        """
        self._rows_by_subject.clear()
        self._subjects_by_key.clear()
        count = 0
        for row in rows:
            self._insert(row)
            count += 1
        return count

    def replace_subject_rows(
        self, subject: str, rows: Sequence[Row]
    ) -> tuple[set[object], set[object]]:
        """Replace one subject's rows; returns ``(old_keys, new_keys)``.

        The returned key-value sets are exactly what the delta rule probes on
        the partner side: a partner row is affected iff it joins one of these
        values.  An empty *rows* removes the subject from the input.
        Validation happens before any mutation, so a rejected replacement
        leaves the indexes untouched.
        """
        for row in rows:
            if str(row.get("subject", subject)) != subject:
                raise StoreError(
                    f"join input {self.name!r}: row for subject {subject!r} "
                    f"names a different subject {row.get('subject')!r}"
                )
        old_keys = self._remove_subject(subject)
        new_keys: set[object] = set()
        for row in rows:
            self._insert(row)
            new_keys.add(row[self.key])
        return old_keys, new_keys

    def contains(self, subject: str) -> bool:
        """Whether *subject* currently contributes rows to this input."""
        return subject in self._rows_by_subject

    def rows_of(self, subject: str) -> list[Row]:
        """The subject's current rows (empty when it is not a member)."""
        self.lookups += 1
        return self._rows_by_subject.get(subject, [])

    def subjects_for_keys(self, keys: Iterable[object]) -> set[str]:
        """Partners of the given join-key values — the delta-rule probe."""
        affected: set[str] = set()
        for value in keys:
            self.lookups += 1
            affected |= self._subjects_by_key.get(value, set())
        return affected

    def subjects(self) -> list[str]:
        """Every member subject, sorted (deterministic full-join order)."""
        return sorted(self._rows_by_subject)

    def __len__(self) -> int:
        return len(self._rows_by_subject)

    def _insert(self, row: Row) -> None:
        if not isinstance(row, dict) or "subject" not in row:
            raise StoreError(
                f"join input {self.name!r} rows need a 'subject' key"
            )
        if self.key not in row:
            raise StoreError(
                f"join input {self.name!r} row for subject "
                f"{row['subject']!r} is missing join key {self.key!r}"
            )
        subject = str(row["subject"])
        self._rows_by_subject.setdefault(subject, []).append(dict(row))
        self._subjects_by_key[row[self.key]].add(subject)

    def _remove_subject(self, subject: str) -> set[object]:
        old_rows = self._rows_by_subject.pop(subject, [])
        old_keys = {row[self.key] for row in old_rows}
        for value in old_keys:
            partners = self._subjects_by_key.get(value)
            if partners is not None:
                partners.discard(subject)
                if not partners:
                    del self._subjects_by_key[value]
        return old_keys


@dataclass
class EntityViewSpec:
    """Specification of a schematized entity-centric view (Figure 8 workload).

    ``predicates`` become literal columns; ``reference_joins`` maps a column
    name to a reference predicate whose target entity's display name should be
    joined in (one hash join per entry); ``nested_joins`` maps a column name
    to a two-hop path ``(first_predicate, second_predicate)``.
    """

    name: str
    entity_type: str
    predicates: tuple[str, ...] = ()
    reference_joins: dict[str, str] = field(default_factory=dict)
    nested_joins: dict[str, tuple[str, str]] = field(default_factory=dict)


class AnalyticsStore:
    """Read-only relational projection of a :class:`TripleStore`.

    Every relation and view is read off the store's columns when asked for:
    the warehouse holds no fact, row, value list, type set or name map of
    its own, so it never lags the store and shows a write the moment the
    store holds it.  Subjects come out sorted and a subject's values in
    :meth:`TripleStore.facts_about` order, so a relation's row order depends
    on the facts alone, not on the order they were written in.  A composite
    fact is keyed under its relationship predicate, any other under its
    predicate.
    """

    def __init__(self, triples: TripleStore) -> None:
        self.triples = triples
        self.rows_scanned = 0
        self.joins_executed = 0

    def triple_count(self) -> int:
        """Number of stored facts."""
        return len(self.triples)

    def subjects_of_type(self, entity_type: str) -> list[str]:
        """Subjects having the given type."""
        return sorted(self.triples.subjects_with(TYPE_PREDICATE, entity_type))

    def entity_types(self) -> list[str]:
        """Every type some subject has."""
        return sorted({
            str(fact.obj)
            for fact in self.triples.facts_with_predicate(TYPE_PREDICATE)
            if fact.relationship_id is None
        })

    def display_name(self, subject: str) -> str:
        """The subject's first name in ``NAME_PREDICATES`` order (falls back
        to the identifier)."""
        name = self._name(subject)
        return subject if name is None else name

    def entity_rows(
        self,
        entity_type: str,
        predicates: Sequence[str],
        subjects: Iterable[str] | None = None,
    ) -> list[Row]:
        """One collapsed row per subject of *entity_type* — a join-input loader.

        Each row carries ``subject`` plus one column per predicate (collapsed
        to a scalar when single-valued; absent predicates stay absent).  With
        *subjects* given, only the named subjects are loaded **and only those
        still of the type are returned** — exactly the contract
        :class:`~repro.engine.views.JoinInput` loaders follow, so an entity
        that migrated away from the type reads as "no longer a member".
        """
        if subjects is None:
            pool = self.subjects_of_type(entity_type)
        else:
            pool = sorted({str(subject) for subject in subjects})
        rows: list[Row] = []
        for subject in pool:
            facts = self.triples.facts_about(subject)
            self.rows_scanned += len(facts) + 1
            if subjects is not None and not any(
                fact.predicate == TYPE_PREDICATE
                and fact.relationship_id is None
                and fact.obj == entity_type
                for fact in facts
            ):
                continue
            values: dict[str, list[object]] = {}
            for fact in facts:
                values.setdefault(fact.relationship_predicate or fact.predicate, []).append(fact.obj)
            row: Row = {"subject": subject}
            for predicate in predicates:
                if predicate in values:
                    row[predicate] = _collapse(values[predicate])
            rows.append(row)
        return rows

    def full_relation(self) -> Relation:
        """The raw extended-triples relation (used by ad-hoc analytics), in
        :meth:`ExtendedTriple.to_row`'s format (Table 1)."""
        rows = [fact.to_row() for _, facts in self.triples.iter_subject_groups() for fact in facts]
        self.rows_scanned += len(rows)
        return Relation("triples", rows)

    # -------------------------------------------------------------- #
    # schematized entity views (optimized, hash-join based)
    # -------------------------------------------------------------- #
    def entity_view(self, spec: EntityViewSpec) -> Relation:
        """Compute a schematized entity-centric view using hash joins.

        Join inputs are read off the store's predicate columns
        (:meth:`TripleStore.objects_by_subject`) and assembled whole
        (:meth:`Relation.from_columns`); the name relation holds the
        entities a join resolves.
        """
        subjects = self.subjects_of_type(spec.entity_type)
        base = Relation.from_columns(spec.name, {"subject": subjects})
        self.rows_scanned += len(subjects)

        for predicate in spec.predicates:
            held = self.triples.objects_by_subject(predicate)
            self.rows_scanned += sum(map(len, held.values()))
            column = Relation.from_columns(
                predicate, {"subject": list(held), predicate: list(map(_collapse, held.values()))}
            )
            base = base.hash_join(column, "subject", "subject", how="left")
            self.joins_executed += 1

        for column_name, reference_predicate in spec.reference_joins.items():
            reference = self._pairs(reference_predicate, "subject", "_ref")
            resolved = reference.hash_join(self._names(reference), "_ref", "_ref", how="left")
            self.joins_executed += 2
            base = base.hash_join(
                _named_column(resolved, column_name), "subject", "subject", how="left"
            )
            self.joins_executed += 1

        for column_name, (first, second) in spec.nested_joins.items():
            first_hop = self._pairs(first, "subject", "_mid")
            second_hop = self._pairs(second, "_mid", "_far")
            two_hop = first_hop.hash_join(second_hop, "_mid", "_mid").rename({"_far": "_ref"})
            self.joins_executed += 2
            far_named = two_hop.hash_join(self._names(two_hop), "_ref", "_ref", how="left")
            self.joins_executed += 1
            base = base.hash_join(
                _named_column(far_named, column_name), "subject", "subject", how="left"
            )
            self.joins_executed += 1

        return Relation(spec.name, base.to_rows())

    def _pairs(self, predicate: str, left: str, right: str) -> Relation:
        """Relation ``(left, right)`` of every subject and each of its
        *predicate* objects."""
        subjects: list[str] = []
        objects: list[object] = []
        for subject, held in self.triples.objects_by_subject(predicate).items():
            subjects.extend([subject] * len(held))
            objects.extend(held)
        self.rows_scanned += len(subjects)
        return Relation.from_columns(predicate, {left: subjects, right: objects})

    def _name(self, subject: str) -> str | None:
        """The first name of *subject* in ``NAME_PREDICATES`` order, the name
        :attr:`KGEntity.primary_name <repro.model.entity.KGEntity.primary_name>`
        picks: a ``name`` beats an ``alias`` however the facts sort."""
        for predicate in NAME_PREDICATES:
            values = self.triples.values_of(subject, predicate)
            if values:
                return str(values[0])
        return None

    def _names(self, references: Relation) -> Relation:
        """Relation ``(_ref, _name)`` of the named entities among the
        ``_ref`` values of *references*."""
        refs: list[object] = []
        names: list[str] = []
        for ref in dict.fromkeys(row["_ref"] for row in references.rows):
            name = self._name(ref)
            if name is not None:
                refs.append(ref)
                names.append(name)
        self.rows_scanned += len(refs)
        return Relation.from_columns("names", {"_ref": refs, "_name": names})


def _named_column(resolved: Relation, column_name: str) -> Relation:
    """Per subject, its resolved names (a reference without a name shows
    its identifier), collapsed into *column_name*."""
    return resolved.group_by(
        ["subject"],
        {column_name: lambda rows: _collapse([r.get("_name") or r.get("_ref") for r in rows])},
    )


def _collapse(values: list[object]) -> object:
    """Collapse a value list to a scalar when it has a single element."""
    cleaned = [value for value in values if value is not None]
    if not cleaned:
        return None
    if len(cleaned) == 1:
        return cleaned[0]
    return cleaned
