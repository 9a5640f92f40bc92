"""The extended-triples data model (Section 2.1, Table 1 of the paper).

A knowledge graph fact is a ``<subject, predicate, object>`` triple.  To avoid
expensive self-joins when retrieving one-hop composite relationships, Saga
flattens relationship nodes into the *extended triple* format: a triple may
carry a ``relationship_id`` and ``relationship_predicate`` describing a fact
about a composite relationship node (e.g. ``educated_at.school``).

Every extended triple also carries provenance (sources + trust) and a locale,
as required for data governance and multi-lingual knowledge.

The :class:`TripleStore` is a dictionary-encoded, predicate-partitioned
columnar store (see :mod:`repro.model.columnar` for the storage primitives and
``docs/store.md`` for the full design):

* subjects, predicates, relationship ids, and locales are interned to dense
  integer ids; object values are interned with ``dict`` equality semantics
  while a literal side-table keeps each row's value exactly as provided;
* each predicate owns a partition of parallel ``array('q')`` id columns, so
  predicate scans touch one contiguous partition and point lookups use the
  partition's ``(subject, predicate)`` composite index;
* batch operators (:meth:`add_batch`, :meth:`add_rows`,
  :meth:`remove_subjects_batch`, :meth:`merge_from`, :meth:`project`,
  :meth:`scan_tuples`, :meth:`stage` / :meth:`add_staged`) move whole fact
  sets without materializing triples;
* the row-at-a-time API (:meth:`add`, :meth:`facts_about`, iteration, ...) is
  a compatibility shim materializing :class:`ExtendedTriple` views lazily and
  caching them per row — a materialized triple shares the store's live
  :class:`~repro.model.provenance.Provenance` object, so in-place provenance
  edits through it are visible to the store, exactly as with the legacy
  dict-of-triples layout (kept verbatim as a test-side oracle under
  ``tests/oracles``);
* :meth:`snapshot` is copy-on-write over the column chunks instead of a deep
  copy of every triple.

:meth:`canonical_rows` is the single equivalence oracle: the seeded suites
prove the columnar store byte-identical to the legacy layout through it.  The
production system stores these triples in a distributed warehouse; the
relational layout is identical.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

from repro.errors import DataModelError
from repro.model.columnar import (
    ROW_BITS,
    ROW_MASK,
    ObjectDict,
    PredicatePartition,
    TermDict,
    pack_ref,
)
from repro.model.provenance import DEFAULT_LOCALE, Provenance, SourceReference

Value = object  # literal (str, int, float, bool) or an entity identifier

#: One decoded fact of a :class:`TripleBatch`: ``(subject, predicate,
#: relationship_id, relationship_predicate, object, locale, references)`` with
#: *references* a tuple of :class:`~repro.model.provenance.SourceReference`.
#: Immutable end to end, so every consumer of a batch may keep it as is.
FactRow = tuple[str, str, "str | None", "str | None", Value, str, tuple[SourceReference, ...]]


def fact_row_dict(row: FactRow) -> dict:
    """The flat relational row of Table 1 (:meth:`ExtendedTriple.to_row`'s
    format) for one decoded fact."""
    subject, predicate, relationship_id, relationship_predicate, obj, locale, references = row
    return {
        "subject": subject,
        "predicate": predicate,
        "r_id": relationship_id,
        "r_predicate": relationship_predicate,
        "object": obj,
        "locale": locale,
        "sources": [reference.source_id for reference in references],
        "trust": [reference.trust for reference in references],
    }


@dataclass
class ExtendedTriple:
    """One row of the extended-triples relational model.

    Attributes mirror Table 1 in the paper:

    subject
        Entity identifier the fact is about.
    predicate
        Ontology predicate name (e.g. ``name``, ``educated_at``).
    obj
        Literal value or identifier of another entity.
    relationship_id
        Identifier of the composite relationship node this triple belongs to,
        or ``None`` for simple facts.
    relationship_predicate
        Predicate on the relationship node (e.g. ``school``), or ``None``.
    locale
        BCP-47-ish locale tag for literals.
    provenance
        Sources asserting the fact and their trust scores.
    """

    subject: str
    predicate: str
    obj: Value
    relationship_id: str | None = None
    relationship_predicate: str | None = None
    locale: str = DEFAULT_LOCALE
    provenance: Provenance = field(default_factory=Provenance)

    def __post_init__(self) -> None:
        if not self.subject:
            raise DataModelError("triple subject must be non-empty")
        if not self.predicate:
            raise DataModelError("triple predicate must be non-empty")
        if (self.relationship_id is None) != (self.relationship_predicate is None):
            raise DataModelError(
                "relationship_id and relationship_predicate must be set together "
                f"(subject={self.subject!r}, predicate={self.predicate!r})"
            )

    @property
    def is_composite(self) -> bool:
        """True when the triple describes a composite relationship node."""
        return self.relationship_id is not None

    @property
    def sources(self) -> list[str]:
        """Identifiers of the sources asserting this fact."""
        return self.provenance.sources

    @property
    def trust(self) -> list[float]:
        """Trust scores aligned with :attr:`sources`."""
        return self.provenance.trust_scores

    def confidence(self) -> float:
        """Aggregated probability that the fact is correct."""
        return self.provenance.confidence()

    def key(self) -> tuple:
        """Identity key used when merging provenance of equivalent facts.

        Two triples with equal keys state the same fact (possibly observed in
        different sources) and are consolidated during fusion.
        """
        return (
            self.subject,
            self.predicate,
            self.relationship_id,
            self.relationship_predicate,
            self.obj,
            self.locale,
        )

    def with_subject(self, subject: str) -> "ExtendedTriple":
        """Return a copy with the subject replaced (used after linking)."""
        return replace(self, subject=subject, provenance=self.provenance.copy())

    def with_object(self, obj: Value) -> "ExtendedTriple":
        """Return a copy with the object replaced (used after object resolution)."""
        return replace(self, obj=obj, provenance=self.provenance.copy())

    def copy(self) -> "ExtendedTriple":
        """Return an independent copy of the triple."""
        return replace(self, provenance=self.provenance.copy())

    def to_row(self) -> dict:
        """Serialize to the flat relational row shown in Table 1."""
        return {
            "subject": self.subject,
            "predicate": self.predicate,
            "r_id": self.relationship_id,
            "r_predicate": self.relationship_predicate,
            "object": self.obj,
            "locale": self.locale,
            "sources": list(self.provenance.sources),
            "trust": list(self.provenance.trust_scores),
        }

    @classmethod
    def from_row(cls, row: dict) -> "ExtendedTriple":
        """Deserialize a row produced by :meth:`to_row`."""
        provenance = Provenance.from_mapping(
            dict(zip(row.get("sources", []), row.get("trust", [])))
        )
        return cls(
            subject=row["subject"],
            predicate=row["predicate"],
            obj=row["object"],
            relationship_id=row.get("r_id"),
            relationship_predicate=row.get("r_predicate"),
            locale=row.get("locale", DEFAULT_LOCALE),
            provenance=provenance,
        )


class TripleBatch:
    """Immutable columnar snapshot of every fact of a set of subjects.

    Built by :meth:`TripleStore.stage` and applied by
    :meth:`TripleStore.add_staged`: the payload one publish stages once and
    every store replays.  Rows are grouped by subject (``subjects`` is
    sorted; a subject without facts owns an empty group) and ordered as
    :meth:`TripleStore.facts_about` orders them.  The id columns index the
    source store's term dictionaries, which are append-only and therefore
    stay valid however the source changes afterwards; object values and
    provenance references are copied out, so the batch keeps describing the
    moment it was staged — a snapshot's semantics at a delta's cost.
    """

    __slots__ = (
        "subjects", "_starts", "_terms", "_pids", "_rids", "_rpids", "_oids", "_lids",
        "_objs", "_refs",
    )

    def __init__(self, subjects: tuple[str, ...], terms: tuple) -> None:
        self.subjects = subjects
        self._starts = [0]                # row range of subjects[i]: _starts[i:i + 2]
        self._terms = terms               # source (predicate, rid, locale, object) dictionaries
        self._pids = array("q")
        self._rids = array("q")
        self._rpids = array("q")
        self._oids = array("q")
        self._lids = array("q")
        self._objs: list[Value] = []      # object values as provided
        self._refs: list[tuple[SourceReference, ...]] = []

    def __len__(self) -> int:
        return len(self._objs)

    def rows(self) -> Iterator[FactRow]:
        """Every staged fact, decoded, in batch order."""
        predicate_terms, rid_terms, locale_terms, _ = self._terms
        predicates, rids, locales = predicate_terms.terms, rid_terms.terms, locale_terms.terms
        for index, subject in enumerate(self.subjects):
            for row in range(self._starts[index], self._starts[index + 1]):
                yield (
                    subject,
                    predicates[self._pids[row]],
                    rids[self._rids[row]],
                    predicates[self._rpids[row]],
                    self._objs[row],
                    locales[self._lids[row]],
                    self._refs[row],
                )

    def subject_facts(self) -> Iterator[tuple[str, list[tuple]]]:
        """``(subject, [(predicate, relationship_id, relationship_predicate,
        object), ...])`` per staged subject — the entity-materialization feed
        (:meth:`repro.model.entity.KGEntity.from_facts`)."""
        predicate_terms, rid_terms, _, _ = self._terms
        predicates, rids = predicate_terms.terms, rid_terms.terms
        for index, subject in enumerate(self.subjects):
            yield subject, [
                (
                    predicates[self._pids[row]],
                    rids[self._rids[row]],
                    predicates[self._rpids[row]],
                    self._objs[row],
                )
                for row in range(self._starts[index], self._starts[index + 1])
            ]


def _translate_ids(column: Iterable[int], theirs: TermDict, mine: TermDict) -> list[int]:
    """One id column of another store's dictionary, re-expressed in *mine*:
    each distinct term is interned once, however many rows carry it."""
    their_terms = theirs.terms
    memo: dict[int, int] = {}
    translated = []
    for term_id in column:
        mapped = memo.get(term_id)
        if mapped is None:
            mapped = memo[term_id] = mine.intern(their_terms[term_id])
        translated.append(mapped)
    return translated


class TripleStore:
    """Columnar, dictionary-interned collection of extended triples.

    The store deduplicates facts by :meth:`ExtendedTriple.key`; adding an
    already-present fact merges provenance instead of creating a duplicate row
    (non-destructive integration).  Facts live in per-predicate column
    partitions; the row-at-a-time API materializes :class:`ExtendedTriple`
    views lazily.

    Internal layout (private — the lint guard bans touching these outside
    ``src/repro/model/``):

    ``_by_key``
        Insertion-ordered dict from the id-encoded fact key
        ``(sid, pid, rid, rpid, oid, lid)`` to a packed row reference
        ``(pid << 32) | row``.  Iteration order of the store is this dict's
        insertion order, matching the legacy layout.
    ``_by_subject`` / ``_by_object``
        Exact secondary indexes from subject / object id to packed refs.
    ``_by_source``
        Inverted index from source id to packed refs.  A *superset* index:
        fusion removes sources from provenance in place through materialized
        triples without telling the store, so entries are re-checked against
        live provenance before use (no code path adds sources in place, so the
        superset never misses a fact).
    """

    def __init__(self, triples: Iterable[ExtendedTriple] | None = None) -> None:
        self._subject_terms = TermDict()
        self._predicate_terms = TermDict()  # predicates and relationship predicates
        self._rid_terms = TermDict()  # relationship ids (``None`` for simple facts)
        self._locale_terms = TermDict()
        self._object_terms = ObjectDict()
        self._none_rid = self._rid_terms.intern(None)
        self._none_rpred = self._predicate_terms.intern(None)
        self._partitions: dict[int, PredicatePartition] = {}
        self._by_key: dict[tuple, int] = {}
        self._by_subject: dict[int, set[int]] = {}
        self._by_object: dict[int, set[int]] = {}
        self._by_source: dict[str, set[int]] = {}
        # Repeated-scan cache: subject id -> facts in facts_about order.
        # Invalidated per subject when a fact is created or removed; provenance
        # merges mutate the cached facts in place and need no invalidation.
        self._facts_cache: dict[int, list[ExtendedTriple]] = {}
        self._cow = False
        if triples:
            self._ensure_private()
            for triple in triples:
                self._upsert_triple(triple)

    # ------------------------------------------------------------------ #
    # mutation (row-at-a-time shim)
    # ------------------------------------------------------------------ #
    def add(self, triple: ExtendedTriple) -> ExtendedTriple:
        """Insert *triple*, merging provenance when the fact already exists.

        Returns the stored triple (the same materialized view on every call
        for a given fact).
        """
        self._ensure_private()
        return self._materialize(self._upsert_triple(triple))

    def add_all(self, triples: Iterable[ExtendedTriple]) -> int:
        """Insert every triple; return how many new facts were created."""
        return self.add_batch(triples)

    def discard(self, triple: ExtendedTriple) -> bool:
        """Remove the fact identified by *triple*'s key. Returns ``True`` if present."""
        key = self._key_ids(triple)
        if key is None:
            return False
        ref = self._by_key.get(key)
        if ref is None:
            return False
        self._ensure_private()
        self._discard_ref(ref)
        return True

    def remove_subject(self, subject: str) -> int:
        """Remove every fact about *subject*; return the number removed."""
        sid = self._subject_terms.id_of(subject)
        if sid is None or sid not in self._by_subject:
            return 0
        self._ensure_private()
        refs = list(self._by_subject.get(sid, ()))
        for ref in refs:
            self._discard_ref(ref)
        return len(refs)

    def remove_source(self, source_id: str) -> int:
        """Drop *source_id* from all provenance; purge facts left unsupported.

        Implements on-demand source deletion (licensing / governance).
        Returns the number of facts removed entirely.  Touches only the facts
        in the source's inverted-index entry, not the whole store.
        """
        if not self._by_source.get(source_id):
            return 0
        self._ensure_private()
        removed = 0
        for ref in list(self._by_source.get(source_id, ())):
            prov = self._partitions[ref >> ROW_BITS].prov[ref & ROW_MASK]
            if prov is None or source_id not in prov:
                continue  # stale superset entry: the source left this fact in place
            prov.remove_source(source_id)
            if prov.is_empty():
                self._discard_ref(ref)
                removed += 1
        self._by_source.pop(source_id, None)
        return removed

    # ------------------------------------------------------------------ #
    # batch operators
    # ------------------------------------------------------------------ #
    def add_batch(self, triples: Iterable[ExtendedTriple]) -> int:
        """Insert triples without materializing views; return new-fact count."""
        self._ensure_private()
        before = len(self._by_key)
        for triple in triples:
            self._upsert_triple(triple)
        return len(self._by_key) - before

    def add_rows(self, rows: Iterable[dict]) -> int:
        """Insert relational rows (:meth:`ExtendedTriple.to_row` format) directly.

        Skips triple construction entirely; validation matches
        :meth:`ExtendedTriple.from_row` exactly.  Returns new-fact count.
        """
        self._ensure_private()
        before = len(self._by_key)
        for row in rows:
            subject = row["subject"]
            predicate = row["predicate"]
            if not subject:
                raise DataModelError("triple subject must be non-empty")
            if not predicate:
                raise DataModelError("triple predicate must be non-empty")
            relationship_id = row.get("r_id")
            relationship_predicate = row.get("r_predicate")
            if (relationship_id is None) != (relationship_predicate is None):
                raise DataModelError(
                    "relationship_id and relationship_predicate must be set together "
                    f"(subject={subject!r}, predicate={predicate!r})"
                )
            provenance = Provenance.from_mapping(
                dict(zip(row.get("sources", []), row.get("trust", [])))
            )
            self._upsert(
                subject,
                predicate,
                relationship_id,
                relationship_predicate,
                row["object"],
                row.get("locale", DEFAULT_LOCALE),
                provenance.references,
            )
        return len(self._by_key) - before

    def remove_subjects_batch(self, subjects: Iterable[str]) -> int:
        """Remove every fact of every listed subject; return the number removed."""
        removed = 0
        for subject in subjects:
            removed += self.remove_subject(subject)
        return removed

    def retract_source_from_subjects(
        self,
        source_id: str,
        subjects: Iterable[str],
        only_predicates: Iterable[str] | None = None,
        skip_predicates: Iterable[str] = (),
    ) -> int:
        """Remove *source_id* from the provenance of matching facts of the
        given subjects, purging facts left unsupported.

        The fusion retract primitive: candidate facts come from intersecting
        the subject and source inverted indexes, so a retraction touches only
        the facts the source actually asserted instead of scanning every fact
        of the subject.  *only_predicates* restricts the retraction to those
        predicates (the volatile-partition path); *skip_predicates* exempts
        predicates (fusion never retracts ``sameAs`` links).  Returns the
        number of facts purged entirely.
        """
        if not self._by_source.get(source_id):
            return 0
        pid_filter = None
        if only_predicates is not None:
            ids = (self._predicate_terms.id_of(p) for p in only_predicates)
            pid_filter = {pid for pid in ids if pid is not None}
        ids = (self._predicate_terms.id_of(p) for p in skip_predicates)
        skip_pids = {pid for pid in ids if pid is not None}
        self._ensure_private()
        removed = 0
        for subject in subjects:
            sid = self._subject_terms.id_of(subject)
            if sid is None:
                continue
            subject_refs = self._by_subject.get(sid)
            source_refs = self._by_source.get(source_id)
            if not subject_refs or not source_refs:
                continue
            for ref in subject_refs & source_refs:
                pid = ref >> ROW_BITS
                if pid_filter is not None and pid not in pid_filter:
                    continue
                if pid in skip_pids:
                    continue
                prov = self._partitions[pid].prov[ref & ROW_MASK]
                if prov is None or source_id not in prov:
                    continue  # stale superset entry
                prov.remove_source(source_id)
                refs = self._by_source.get(source_id)
                if refs is not None:
                    refs.discard(ref)
                    if not refs:
                        del self._by_source[source_id]
                if prov.is_empty():
                    self._discard_ref(ref)
                    removed += 1
        return removed

    def merge_from(self, other: "TripleStore") -> int:
        """Merge every fact of *other* into this store; return new-fact count.

        The columnar fast path translates *other*'s dense ids into this
        store's dictionaries through per-column memo tables, so each distinct
        term is hashed once regardless of how many rows use it.  Merging into
        an **empty** store adopts *other*'s column chunks wholesale through
        the copy-on-write machinery (the serving-bootstrap / fusion-barrier
        case) instead of re-inserting row by row.  Falls back to
        :meth:`add_batch` for plain triple iterables.
        """
        if not isinstance(other, TripleStore):
            return self.add_batch(other)
        if not self._by_key:
            adopted = other.snapshot()
            self.__dict__.update(adopted.__dict__)
            return len(self._by_key)
        self._ensure_private()
        before = len(self._by_key)
        smemo: dict[int, int] = {}
        pmemo: dict[int, int] = {}
        rmemo: dict[int, int] = {}
        omemo: dict[int, int] = {}
        lmemo: dict[int, int] = {}

        def translate(memo: dict[int, int], theirs: TermDict, mine: TermDict, tid: int) -> int:
            mapped = memo.get(tid)
            if mapped is None:
                mapped = mine.intern(theirs.terms[tid])
                memo[tid] = mapped
            return mapped

        for key, ref in list(other._by_key.items()):
            partition = other._partitions[key[1]]
            row = ref & ROW_MASK
            my_key = (
                translate(smemo, other._subject_terms, self._subject_terms, key[0]),
                translate(pmemo, other._predicate_terms, self._predicate_terms, key[1]),
                translate(rmemo, other._rid_terms, self._rid_terms, key[2]),
                translate(pmemo, other._predicate_terms, self._predicate_terms, key[3]),
                translate(omemo, other._object_terms, self._object_terms, key[4]),
                translate(lmemo, other._locale_terms, self._locale_terms, key[5]),
            )
            self._insert_ids(
                my_key, partition.predicate, partition.objs[row], partition.prov[row].references
            )
        return len(self._by_key) - before

    def stage(self, subjects: Iterable[str]) -> TripleBatch:
        """Snapshot every fact of *subjects* into one :class:`TripleBatch`.

        Reads the partitions' columns directly — no triple, row dict or
        provenance object is built — and costs O(facts of *subjects*).
        Later changes to this store do not show in the batch.
        """
        batch = TripleBatch(
            tuple(sorted(set(subjects))),
            (self._predicate_terms, self._rid_terms, self._locale_terms, self._object_terms),
        )
        for subject in batch.subjects:
            sid = self._subject_terms.id_of(subject)
            for ref in sorted(self._by_subject.get(sid, ()), key=self._repr_of):
                partition = self._partitions[ref >> ROW_BITS]
                row = ref & ROW_MASK
                batch._pids.append(partition.pid)
                batch._rids.append(partition.rid[row])
                batch._rpids.append(partition.rpred[row])
                batch._oids.append(partition.obj_ids[row])
                batch._lids.append(partition.loc[row])
                batch._objs.append(partition.objs[row])
                batch._refs.append(tuple(partition.prov[row].references))
            batch._starts.append(len(batch._objs))
        return batch

    def add_staged(self, batch: TripleBatch) -> int:
        """Insert every fact of a staged *batch*; return new-fact count.

        The batch's id columns are translated into this store's dictionaries
        through per-column memo tables (each distinct term is interned once
        per call, each subject once per group) and the rows inserted
        id-encoded: no triple, row dict or intermediate provenance object is
        built.  Merge semantics are
        :meth:`add_batch`'s — a fact already present gains the batch's sources.
        """
        self._ensure_private()
        before = len(self._by_key)
        their_predicates, their_rids, their_locales, their_objects = batch._terms
        pids = _translate_ids(batch._pids, their_predicates, self._predicate_terms)
        rpids = _translate_ids(batch._rpids, their_predicates, self._predicate_terms)
        rids = _translate_ids(batch._rids, their_rids, self._rid_terms)
        oids = _translate_ids(batch._oids, their_objects, self._object_terms)
        lids = _translate_ids(batch._lids, their_locales, self._locale_terms)
        predicates = self._predicate_terms.terms
        starts = batch._starts
        for index, subject in enumerate(batch.subjects):
            first, end = starts[index], starts[index + 1]
            if first == end:
                continue
            sid = self._subject_terms.intern(subject)
            for row in range(first, end):
                pid = pids[row]
                self._insert_ids(
                    (sid, pid, rids[row], rpids[row], oids[row], lids[row]),
                    predicates[pid],
                    batch._objs[row],
                    batch._refs[row],
                )
        return len(self._by_key) - before

    def project(
        self,
        subjects: Iterable[str] | None = None,
        predicates: Iterable[str] | None = None,
    ) -> "TripleStore":
        """Return a new store restricted to the given subjects and/or predicates.

        Filtering happens on dense ids before any triple is materialized;
        omitted filters match everything.
        """
        subject_ids = None
        if subjects is not None:
            ids = (self._subject_terms.id_of(s) for s in subjects)
            subject_ids = {sid for sid in ids if sid is not None}
        partition_ids = None
        if predicates is not None:
            ids = (self._predicate_terms.id_of(p) for p in predicates)
            partition_ids = {pid for pid in ids if pid is not None}
        result = TripleStore()
        for key, ref in self._by_key.items():
            if subject_ids is not None and key[0] not in subject_ids:
                continue
            if partition_ids is not None and key[1] not in partition_ids:
                continue
            partition = self._partitions[key[1]]
            row = ref & ROW_MASK
            result._upsert(
                self._subject_terms.terms[key[0]],
                partition.predicate,
                self._rid_terms.terms[key[2]],
                self._predicate_terms.terms[key[3]],
                partition.objs[row],
                self._locale_terms.terms[key[5]],
                partition.prov[row].references,
            )
        return result

    def scan_tuples(self) -> Iterator[tuple]:
        """Insertion-ordered ``(subject, predicate, relationship_predicate, object)``
        scan without materializing triples — the graph-shaped hot-loop feed."""
        subject_terms = self._subject_terms.terms
        predicate_terms = self._predicate_terms.terms
        for key, ref in self._by_key.items():
            partition = self._partitions[key[1]]
            row = ref & ROW_MASK
            yield (
                subject_terms[partition.subj[row]],
                partition.predicate,
                predicate_terms[partition.rpred[row]],
                partition.objs[row],
            )

    def scan_subject(self, subject: str) -> Iterator[tuple[str, bool, Value]]:
        """Unordered ``(predicate, is_composite, object)`` scan of one
        subject's facts, without materializing triples — for liveness and
        type checks that don't care about fact order."""
        sid = self._subject_terms.id_of(subject)
        if sid is None:
            return
        for ref in self._by_subject.get(sid, ()):
            partition = self._partitions[ref >> ROW_BITS]
            row = ref & ROW_MASK
            yield (
                partition.predicate,
                partition.rid[row] != self._none_rid,
                partition.objs[row],
            )

    def rows_about(self, subject: str) -> list[dict]:
        """Relational rows of every fact about *subject*, in
        :meth:`facts_about` order, built straight from the columns."""
        sid = self._subject_terms.id_of(subject)
        refs = self._by_subject.get(sid) if sid is not None else None
        if not refs:
            return []
        return [self._row_of(ref) for ref in sorted(refs, key=self._repr_of)]

    def iter_subject_groups(self) -> Iterator[tuple[str, list[ExtendedTriple]]]:
        """Yield ``(subject, facts)`` for every subject in sorted order, with
        facts in :meth:`facts_about` order — the entity-materialization feed."""
        by_name = sorted(
            (self._subject_terms.terms[sid], sid) for sid in self._by_subject
        )
        for subject, sid in by_name:
            yield subject, list(self._facts_of_sid(sid))

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def facts_about(self, subject: str) -> list[ExtendedTriple]:
        """Return all facts whose subject is *subject*."""
        sid = self._subject_terms.id_of(subject)
        if sid is None:
            return []
        return list(self._facts_of_sid(sid))

    def _facts_of_sid(self, sid: int) -> list[ExtendedTriple]:
        """Materialized facts of one subject id, cached between mutations.

        Callers must copy before handing the list out (returned lists are
        caller-owned in the legacy contract)."""
        cached = self._facts_cache.get(sid)
        if cached is None:
            refs = self._by_subject.get(sid)
            if not refs:
                return []
            cached = [self._materialize(ref) for ref in sorted(refs, key=self._repr_of)]
            self._facts_cache[sid] = cached
        return cached

    def facts_with_predicate(self, predicate: str) -> list[ExtendedTriple]:
        """Return all facts using *predicate*."""
        pid = self._predicate_terms.id_of(predicate)
        partition = self._partitions.get(pid) if pid is not None else None
        if partition is None or not partition.live:
            return []
        refs = [pack_ref(pid, row) for row in partition.live_rows()]
        refs.sort(key=self._repr_of)
        return [self._materialize(ref) for ref in refs]

    def facts_with_object(self, obj: Value) -> list[ExtendedTriple]:
        """Return all facts whose object equals *obj* (literal or entity id)."""
        try:
            oid = self._object_terms.id_of(obj)
        except TypeError:  # unhashable object value: fall back to a scan
            return [t for t in self if t.obj == obj]
        refs = self._by_object.get(oid) if oid is not None else None
        if not refs:
            return []
        return [self._materialize(ref) for ref in sorted(refs, key=self._repr_of)]

    def value_of(self, subject: str, predicate: str) -> Value | None:
        """Return one object for ``(subject, predicate)`` or ``None``.

        Served from the ``(subject, predicate)`` composite index — wide
        entities no longer pay a scan over their unrelated facts.
        """
        for ref in self._composite_index_refs(subject, predicate):
            partition = self._partitions[ref >> ROW_BITS]
            row = ref & ROW_MASK
            if partition.rid[row] == self._none_rid:
                return partition.objs[row]
        return None

    def values_of(self, subject: str, predicate: str) -> list[Value]:
        """Return every object asserted for ``(subject, predicate)``."""
        values = []
        for ref in self._composite_index_refs(subject, predicate):
            partition = self._partitions[ref >> ROW_BITS]
            row = ref & ROW_MASK
            if partition.rid[row] == self._none_rid:
                values.append(partition.objs[row])
        return values

    def relationship_facts(
        self, subject: str, predicate: str
    ) -> dict[str, list[ExtendedTriple]]:
        """Group composite facts of ``(subject, predicate)`` by relationship id."""
        grouped: dict[str, list[ExtendedTriple]] = {}
        for ref in self._composite_index_refs(subject, predicate):
            partition = self._partitions[ref >> ROW_BITS]
            row = ref & ROW_MASK
            rid = partition.rid[row]
            if rid != self._none_rid:
                relationship_id = self._rid_terms.terms[rid]
                grouped.setdefault(relationship_id, []).append(self._materialize(ref))
        return grouped

    def subjects(self) -> set[str]:
        """Return the set of all subject identifiers."""
        return {self._subject_terms.terms[sid] for sid in self._by_subject}

    def predicates(self) -> set[str]:
        """Return the set of all predicates in use."""
        return {p.predicate for p in self._partitions.values() if p.live}

    def entity_count(self) -> int:
        """Number of distinct subjects (entities) in the store."""
        return len(self._by_subject)

    def fact_count(self) -> int:
        """Number of distinct facts in the store."""
        return len(self._by_key)

    def filter(self, predicate_fn: Callable[[ExtendedTriple], bool]) -> "TripleStore":
        """Return a new store with the facts satisfying *predicate_fn*."""
        return TripleStore(t.copy() for t in self if predicate_fn(t))

    def snapshot(self) -> "TripleStore":
        """Return an independent view of the store (used for versioned analytics).

        Copy-on-write: column chunks and indexes are shared with the original
        until either side mutates, so a snapshot costs one provenance copy per
        fact instead of a deep copy of every triple.
        """
        clone = TripleStore.__new__(TripleStore)
        clone._subject_terms = self._subject_terms
        clone._predicate_terms = self._predicate_terms
        clone._rid_terms = self._rid_terms
        clone._locale_terms = self._locale_terms
        clone._object_terms = self._object_terms
        clone._none_rid = self._none_rid
        clone._none_rpred = self._none_rpred
        clone._partitions = {
            pid: partition.cow_clone() for pid, partition in self._partitions.items()
        }
        clone._by_key = self._by_key
        clone._by_subject = self._by_subject
        clone._by_object = self._by_object
        clone._by_source = self._by_source
        clone._facts_cache = {}  # the clone materializes its own views
        clone._cow = True
        self._cow = True
        return clone

    def to_rows(self) -> list[dict]:
        """Serialize the whole store to relational rows."""
        return [self._row_of(ref) for ref in self._by_key.values()]

    def canonical_rows(self) -> list[tuple]:
        """Canonical content of the store: every fact with its provenance.

        Sorted, hashable, and independent of insertion order — two stores are
        byte-equivalent (facts *and* per-source provenance) exactly when their
        canonical rows are equal.  The batch-construction and columnar
        equivalence suites compare stores through this one definition.
        """
        rows = []
        for ref in self._by_key.values():
            prov = self._partitions[ref >> ROW_BITS].prov[ref & ROW_MASK]
            rows.append(
                (
                    self._repr_of(ref),
                    tuple(sorted((r.source_id, r.trust) for r in prov.references)),
                )
            )
        rows.sort()
        return rows

    @classmethod
    def from_rows(cls, rows: Iterable[dict]) -> "TripleStore":
        """Deserialize a store from rows produced by :meth:`to_rows`."""
        store = cls()
        store.add_rows(rows)
        return store

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ensure_private(self) -> None:
        """Copy shared store-level indexes before the first post-snapshot
        mutation (partition chunks are copied per-partition on demand)."""
        if not self._cow:
            return
        self._by_key = dict(self._by_key)
        self._by_subject = {sid: set(refs) for sid, refs in self._by_subject.items()}
        self._by_object = {oid: set(refs) for oid, refs in self._by_object.items()}
        self._by_source = {src: set(refs) for src, refs in self._by_source.items()}
        self._cow = False

    def _upsert_triple(self, triple: ExtendedTriple) -> int:
        return self._upsert(
            triple.subject,
            triple.predicate,
            triple.relationship_id,
            triple.relationship_predicate,
            triple.obj,
            triple.locale,
            triple.provenance.references,
        )

    def _upsert(
        self,
        subject: str,
        predicate: str,
        relationship_id: str | None,
        relationship_predicate: str | None,
        obj: Value,
        locale: str,
        references: list,
    ) -> int:
        # Intern the object first: an unhashable value raises TypeError before
        # anything is modified, as the legacy key-tuple dict did.
        key = (
            self._subject_terms.intern(subject),
            self._predicate_terms.intern(predicate),
            self._rid_terms.intern(relationship_id),
            self._predicate_terms.intern(relationship_predicate),
            self._object_terms.intern(obj),
            self._locale_terms.intern(locale),
        )
        return self._insert_ids(key, predicate, obj, references)

    def _insert_ids(self, key: tuple, predicate: str, obj: Value, references: list) -> int:
        """Insert or merge one id-encoded fact; the caller holds privacy."""
        ref = self._by_key.get(key)
        if ref is not None:
            prov = self._partitions[key[1]].prov[ref & ROW_MASK]
            for r in references:
                prov.add(r.source_id, r.trust)
                self._by_source.setdefault(r.source_id, set()).add(ref)
            return ref
        pid = key[1]
        partition = self._partitions.get(pid)
        if partition is None:
            partition = self._partitions[pid] = PredicatePartition(pid, predicate)
        else:
            partition.ensure_private()
        row = partition.alloc(
            key[0], key[2], key[3], key[4], key[5], obj, Provenance(list(references))
        )
        ref = pack_ref(pid, row)
        self._by_key[key] = ref
        self._by_subject.setdefault(key[0], set()).add(ref)
        self._by_object.setdefault(key[4], set()).add(ref)
        for r in references:
            self._by_source.setdefault(r.source_id, set()).add(ref)
        self._facts_cache.pop(key[0], None)
        return ref

    def _key_ids(self, triple: ExtendedTriple) -> tuple | None:
        """Id-encode *triple*'s key, or ``None`` when any term is unknown.

        Raises ``TypeError`` for unhashable objects (legacy parity)."""
        oid = self._object_terms.id_of(triple.obj)
        sid = self._subject_terms.id_of(triple.subject)
        pid = self._predicate_terms.id_of(triple.predicate)
        rid = self._rid_terms.id_of(triple.relationship_id)
        rpid = self._predicate_terms.id_of(triple.relationship_predicate)
        lid = self._locale_terms.id_of(triple.locale)
        if oid is None or sid is None or pid is None or rid is None or rpid is None or lid is None:
            return None
        return (sid, pid, rid, rpid, oid, lid)

    def _discard_ref(self, ref: int) -> None:
        """Remove one live row; the caller holds store-level privacy."""
        pid, row = ref >> ROW_BITS, ref & ROW_MASK
        partition = self._partitions[pid]
        sid = partition.subj[row]
        oid = partition.obj_ids[row]
        key = (sid, pid, partition.rid[row], partition.rpred[row], oid, partition.loc[row])
        del self._by_key[key]
        self._facts_cache.pop(sid, None)
        refs = self._by_subject.get(sid)
        if refs is not None:
            refs.discard(ref)
            if not refs:
                del self._by_subject[sid]
        refs = self._by_object.get(oid)
        if refs is not None:
            refs.discard(ref)
            if not refs:
                del self._by_object[oid]
        prov = partition.prov[row]
        for r in prov.references:
            refs = self._by_source.get(r.source_id)
            if refs is not None:
                refs.discard(ref)
                if not refs:
                    del self._by_source[r.source_id]
        partition.ensure_private()
        partition.release(row)

    def _composite_index_refs(self, subject: str, predicate: str) -> list[int]:
        """Refs of ``(subject, predicate)`` in :meth:`facts_about` order, from
        the partition's composite index."""
        sid = self._subject_terms.id_of(subject)
        pid = self._predicate_terms.id_of(predicate)
        if sid is None or pid is None:
            return []
        partition = self._partitions.get(pid)
        if partition is None:
            return []
        rows = partition.by_subject.get(sid)
        if not rows:
            return []
        if len(rows) == 1:
            (row,) = rows
            return [pack_ref(pid, row)]
        return sorted((pack_ref(pid, row) for row in rows), key=self._repr_of)

    def _materialize(self, ref: int) -> ExtendedTriple:
        """The cached :class:`ExtendedTriple` view of one live row.

        The view shares the store's live ``Provenance`` object so that
        in-place provenance edits made through it (fusion retracts) are
        visible to the store, matching the legacy stored-instance behaviour.
        """
        partition = self._partitions[ref >> ROW_BITS]
        row = ref & ROW_MASK
        shim = partition.shims[row]
        if shim is None:
            shim = ExtendedTriple.__new__(ExtendedTriple)
            shim.subject = self._subject_terms.terms[partition.subj[row]]
            shim.predicate = partition.predicate
            shim.obj = partition.objs[row]
            shim.relationship_id = self._rid_terms.terms[partition.rid[row]]
            shim.relationship_predicate = self._predicate_terms.terms[partition.rpred[row]]
            shim.locale = self._locale_terms.terms[partition.loc[row]]
            shim.provenance = partition.prov[row]
            partition.shims[row] = shim
        return shim

    def _repr_of(self, ref: int) -> str:
        """``repr`` of the row's key tuple, cached per row — the sort key of
        every ordered lookup (identical to the legacy ``sorted(keys, key=repr)``)."""
        partition = self._partitions[ref >> ROW_BITS]
        row = ref & ROW_MASK
        cached = partition.reprs[row]
        if cached is None:
            cached = repr(
                (
                    self._subject_terms.terms[partition.subj[row]],
                    partition.predicate,
                    self._rid_terms.terms[partition.rid[row]],
                    self._predicate_terms.terms[partition.rpred[row]],
                    partition.objs[row],
                    self._locale_terms.terms[partition.loc[row]],
                )
            )
            partition.reprs[row] = cached
        return cached

    def _row_of(self, ref: int) -> dict:
        partition = self._partitions[ref >> ROW_BITS]
        row = ref & ROW_MASK
        prov = partition.prov[row]
        return {
            "subject": self._subject_terms.terms[partition.subj[row]],
            "predicate": partition.predicate,
            "r_id": self._rid_terms.terms[partition.rid[row]],
            "r_predicate": self._predicate_terms.terms[partition.rpred[row]],
            "object": partition.objs[row],
            "locale": self._locale_terms.terms[partition.loc[row]],
            "sources": [r.source_id for r in prov.references],
            "trust": [r.trust for r in prov.references],
        }

    def __iter__(self) -> Iterator[ExtendedTriple]:
        return iter([self._materialize(ref) for ref in self._by_key.values()])

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, ExtendedTriple):
            return False
        key = self._key_ids(triple)
        return key is not None and key in self._by_key
