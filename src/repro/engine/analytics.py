"""The analytics warehouse: a read-optimized relational store over the KG.

Section 3.1.1: the analytics engine is a relational data warehouse storing the
KG extended triples; it powers analytics jobs and generates subgraph and
schematized entity views for upstream tasks.  Its optimized join processing is
what Figure 8 compares against a legacy Spark-based implementation.

This module provides:

* :class:`Relation` — a small in-memory relational table with filter, project,
  hash-join, and group-by operators;
* :class:`AnalyticsStore` — an ingest-able triple warehouse with per-predicate
  indexes, relation extraction, and schematized entity-view computation built
  on hash joins (the optimized path measured in the FIG8 benchmark).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import StoreError
from repro.model.entity import NAME_PREDICATES
from repro.model.triples import ExtendedTriple, FactRow, fact_row_dict

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

    def columns(self) -> list[str]:
        """Union of column names across rows."""
        seen: set[str] = set()
        for row in self.rows:
            seen.update(row)
        return sorted(seen)

    # -------------------------------------------------------------- #
    # operators
    # -------------------------------------------------------------- #
    def filter(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Rows satisfying *predicate*."""
        return Relation(self.name, [row for row in self.rows if predicate(row)])

    def project(self, columns: Sequence[str]) -> "Relation":
        """Keep only *columns* (missing values become ``None``)."""
        return Relation(
            self.name,
            [{column: row.get(column) for column in columns} for row in self.rows],
        )

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

    def distinct(self) -> "Relation":
        """Remove duplicate rows."""
        seen = set()
        unique = []
        for row in self.rows:
            key = tuple(sorted((k, repr(v)) for k, v in row.items()))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return Relation(self.name, unique)

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
    """Read-optimized warehouse of extended triples with hash-join views."""

    def __init__(self) -> None:
        # subject -> its fact rows: dropping or refreshing a subject touches
        # that subject's rows only, never the whole warehouse
        self._rows: dict[str, list[FactRow]] = {}
        # predicate -> subject -> [objects]
        self._by_predicate: dict[str, dict[str, list[object]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self._types: dict[str, list[str]] = defaultdict(list)
        self._subjects_by_type: dict[str, set[str]] = defaultdict(set)
        self._names: dict[str, str] = {}
        self.rows_scanned = 0
        self.joins_executed = 0

    # -------------------------------------------------------------- #
    # ingest
    # -------------------------------------------------------------- #
    def ingest(self, triples: Iterable[ExtendedTriple]) -> int:
        """Batch-ingest triples (updates to the engine are batched, §3.1.1)."""
        return self.ingest_rows(
            (
                triple.subject,
                triple.predicate,
                triple.relationship_id,
                triple.relationship_predicate,
                triple.obj,
                triple.locale,
                triple.provenance.references,
            )
            for triple in triples
        )

    def ingest_rows(self, rows: Iterable[FactRow]) -> int:
        """Batch-ingest decoded fact rows (:meth:`TripleBatch.rows
        <repro.model.triples.TripleBatch.rows>`) without building triples."""
        count = 0
        for row in rows:
            subject, predicate, relationship_id, relationship_predicate, obj, _, _ = row
            self._rows.setdefault(subject, []).append(row)
            self._by_predicate[relationship_predicate or predicate][subject].append(obj)
            if predicate == "type" and relationship_id is None:
                type_name = str(obj)
                self._types[subject].append(type_name)
                self._subjects_by_type[type_name].add(subject)
            if predicate in NAME_PREDICATES and subject not in self._names:
                self._names[subject] = str(obj)
            count += 1
        return count

    def remove_subjects(self, subjects: Iterable[str]) -> int:
        """Drop every triple about the given subjects (delta maintenance)."""
        removed = 0
        for subject in set(subjects):
            rows = self._rows.pop(subject, None)
            if rows is None:
                continue
            removed += len(rows)
            for _, predicate, _, relationship_predicate, _, _, _ in rows:
                self._by_predicate[relationship_predicate or predicate].pop(subject, None)
            for type_name in self._types.pop(subject, []):
                self._subjects_by_type[type_name].discard(subject)
            self._names.pop(subject, None)
        return removed

    def refresh_subjects(
        self, subjects: Iterable[str], triples: Iterable[ExtendedTriple]
    ) -> int:
        """Replace the stored triples of *subjects* with *triples* (incremental update)."""
        self.remove_subjects(subjects)
        return self.ingest(triples)

    # -------------------------------------------------------------- #
    # relational access
    # -------------------------------------------------------------- #
    def triple_count(self) -> int:
        """Number of stored triple rows."""
        return sum(map(len, self._rows.values()))

    def subjects_of_type(self, entity_type: str) -> list[str]:
        """Subjects having the given type."""
        return sorted(self._subjects_by_type.get(entity_type, set()))

    def entity_types(self) -> list[str]:
        """All entity types present in the warehouse."""
        return sorted(self._subjects_by_type)

    def display_name(self, subject: str) -> str:
        """First recorded name of a subject (falls back to the identifier)."""
        return self._names.get(subject, subject)

    def predicate_relation(self, predicate: str) -> Relation:
        """Relation ``(subject, object)`` for one predicate, from the index."""
        index = self._by_predicate.get(predicate, {})
        rows = []
        for subject, objects in index.items():
            for obj in objects:
                rows.append({"subject": subject, "object": obj})
        self.rows_scanned += len(rows)
        return Relation(predicate, rows)

    def predicate_columns(self, predicate: str) -> tuple[list[str], list[object]]:
        """Parallel ``(subjects, objects)`` columns of one predicate.

        Column form of :meth:`predicate_relation` — same pairs, same index
        order, same ``rows_scanned`` accounting — feeding
        :meth:`Relation.from_columns` join build sides without materializing
        a dict per pair first.
        """
        index = self._by_predicate.get(predicate, {})
        subjects: list[str] = []
        objects: list[object] = []
        for subject, values in index.items():
            subjects.extend([subject] * len(values))
            objects.extend(values)
        self.rows_scanned += len(subjects)
        return subjects, objects

    def entity_rows(
        self,
        entity_type: str,
        predicates: Sequence[str],
        subjects: Iterable[str] | None = None,
    ) -> list[Row]:
        """One collapsed row per subject of *entity_type* — a join-input loader.

        Each row carries ``subject`` plus one column per predicate (collapsed
        to a scalar when single-valued, like :meth:`grouped_predicate_relation`;
        absent predicates stay absent).  With *subjects* given, only the named
        subjects are loaded **and only those still of the type are returned**
        — exactly the contract :class:`~repro.engine.views.JoinInput` loaders
        follow, so an entity that migrated away from the type reads as "no
        longer a member".
        """
        members = self._subjects_by_type.get(entity_type, set())
        if subjects is None:
            pool = sorted(members)
        else:
            pool = sorted(set(str(subject) for subject in subjects) & members)
        rows: list[Row] = []
        scanned = 0
        for subject in pool:
            row: Row = {"subject": subject}
            for predicate in predicates:
                values = self._by_predicate.get(predicate, {}).get(subject)
                if values:
                    scanned += len(values)
                    row[predicate] = _collapse(list(values))
            rows.append(row)
        self.rows_scanned += scanned + len(pool)
        return rows

    def grouped_predicate_relation(self, predicate: str, column_name: str) -> Relation:
        """Per-subject collapsed relation of one predicate, from the index.

        Produces exactly ``predicate_relation(predicate).group_by(["subject"],
        {column_name: collapse})`` — the per-predicate index is already
        grouped by subject, so the pair rows and the regroup are skipped
        entirely.  ``rows_scanned`` still counts the underlying pairs.
        """
        index = self._by_predicate.get(predicate, {})
        rows = []
        scanned = 0
        for subject, values in index.items():
            scanned += len(values)
            rows.append({"subject": subject, column_name: _collapse(values)})
        self.rows_scanned += scanned
        return Relation(f"{predicate}_grouped", rows)

    def name_relation(self) -> Relation:
        """Relation ``(subject, display_name)`` for every named subject."""
        rows = [
            {"subject": subject, "display_name": name}
            for subject, name in self._names.items()
        ]
        self.rows_scanned += len(rows)
        return Relation("names", rows)

    def full_relation(self) -> Relation:
        """The raw extended-triples relation (used by ad-hoc analytics)."""
        rows = [
            fact_row_dict(row) for subject_rows in self._rows.values() for row in subject_rows
        ]
        self.rows_scanned += len(rows)
        return Relation("triples", rows)

    # -------------------------------------------------------------- #
    # schematized entity views (optimized, hash-join based)
    # -------------------------------------------------------------- #
    def entity_view(self, spec: EntityViewSpec) -> Relation:
        """Compute a schematized entity-centric view using hash joins.

        Join build sides assemble from whole index columns
        (:meth:`predicate_columns` into :meth:`Relation.from_columns`) and
        literal predicate columns come pre-grouped from the index
        (:meth:`grouped_predicate_relation`) — the row output, join plan, and
        ``rows_scanned`` / ``joins_executed`` accounting are identical to the
        row-at-a-time build, pair-row materialization is not.
        """
        subjects = self.subjects_of_type(spec.entity_type)
        base = Relation.from_columns(spec.name, {"subject": subjects})
        self.rows_scanned += len(subjects)

        for predicate in spec.predicates:
            column = self.grouped_predicate_relation(predicate, predicate)
            base = base.hash_join(column, "subject", "subject", how="left")
            self.joins_executed += 1

        name_subjects = list(self._names)
        name_values = list(self._names.values())
        self.rows_scanned += len(name_subjects)
        name_relation = Relation.from_columns(
            "names", {"_ref": name_subjects, "_name": name_values}
        )
        for column_name, reference_predicate in spec.reference_joins.items():
            ref_subjects, ref_objects = self.predicate_columns(reference_predicate)
            reference = Relation.from_columns(
                reference_predicate, {"subject": ref_subjects, "_ref": ref_objects}
            )
            resolved = reference.hash_join(name_relation, "_ref", "_ref", how="left")
            self.joins_executed += 2
            collapsed = resolved.group_by(
                ["subject"],
                {column_name: lambda rows: _collapse(
                    [r.get("_name") or r.get("_ref") for r in rows]
                )},
            )
            base = base.hash_join(collapsed, "subject", "subject", how="left")
            self.joins_executed += 1

        for column_name, (first, second) in spec.nested_joins.items():
            first_subjects, first_objects = self.predicate_columns(first)
            first_hop = Relation.from_columns(
                first, {"subject": first_subjects, "_mid": first_objects}
            )
            second_subjects, second_objects = self.predicate_columns(second)
            second_hop = Relation.from_columns(
                second, {"_mid": second_subjects, "_far": second_objects}
            )
            two_hop = first_hop.hash_join(second_hop, "_mid", "_mid")
            self.joins_executed += 2
            far_named = two_hop.rename({"_far": "_ref"}).hash_join(
                name_relation, "_ref", "_ref", how="left"
            )
            self.joins_executed += 1
            collapsed = far_named.group_by(
                ["subject"],
                {column_name: lambda rows: _collapse(
                    [r.get("_name") or r.get("_ref") for r in rows]
                )},
            )
            base = base.hash_join(collapsed, "subject", "subject", how="left")
            self.joins_executed += 1

        return Relation(spec.name, base.to_rows())


def _collapse(values: list[object]) -> object:
    """Collapse a value list to a scalar when it has a single element."""
    cleaned = [value for value in values if value is not None]
    if not cleaned:
        return None
    if len(cleaned) == 1:
        return cleaned[0]
    return cleaned
