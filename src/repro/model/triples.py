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
  :meth:`remove_subjects_batch`, :meth:`retract_source_from_subjects`,
  :meth:`scan_tuples`, :meth:`stage` / :meth:`stage_without_source` /
  :meth:`apply_staged`) move whole fact sets without materializing
  triples; :meth:`apply_staged` writes only the difference between a
  subject's stored and staged facts;
* a row holds an immutable :class:`~repro.model.provenance.Provenance`
  value, and a stored fact's provenance changes only through the store's
  operators (a re-assert, :meth:`remove_source`,
  :meth:`retract_source_from_subjects`), which replace the value;
* the row-at-a-time API (:meth:`add`, :meth:`facts_about`, iteration, ...) is
  a compatibility shim materializing :class:`ExtendedTriple` views lazily and
  caching them per row; a replacement updates the row's view, so a triple
  the store handed out earlier reads the fact's current provenance, as with
  the legacy dict-of-triples layout (kept verbatim as a test-side oracle
  under ``tests/oracles``).

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
    posting_add,
    posting_ids,
    posting_remove,
)
from repro.model.provenance import DEFAULT_LOCALE, Provenance, SourceReference

Value = object  # literal (str, int, float, bool) or an entity identifier

#: One decoded fact of a :class:`TripleBatch`: ``(subject, predicate,
#: relationship_id, relationship_predicate, object, locale, references)`` with
#: *references* a tuple of :class:`~repro.model.provenance.SourceReference`.
#: Immutable end to end, so every consumer of a batch may keep it as is.
FactRow = tuple[str, str, "str | None", "str | None", Value, str, tuple[SourceReference, ...]]


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
        return replace(self, subject=subject)

    def with_object(self, obj: Value) -> "ExtendedTriple":
        """Return a copy with the object replaced (used after object resolution)."""
        return replace(self, obj=obj)

    def copy(self) -> "ExtendedTriple":
        """Return an independent copy of the triple."""
        return replace(self)

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
    :meth:`TripleStore.apply_staged`: the payload one publish stages once and
    every store replays.  Rows are grouped by subject (``subjects`` is
    sorted; a subject without facts owns an empty group) and ordered as
    :meth:`TripleStore.facts_about` orders them.  The id columns index the
    source store's term dictionaries, which are append-only and therefore
    stay valid however the source changes afterwards; object values and
    provenance values are kept as the rows held them (the store replaces a
    row's provenance, never edits it), so the batch keeps describing the
    moment it was staged — a snapshot's semantics at a delta's cost.
    """

    __slots__ = (
        "subjects", "_starts", "_terms", "_pids", "_rids", "_rpids", "_oids", "_lids",
        "_objs", "_provs",
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
        self._provs: list[Provenance] = []

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
                    self._provs[row].references,
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

    ``_row_order``
        Insertion-ordered dict whose keys are the packed row references
        ``(pid << 32) | row`` of the live rows.  Iteration order of the store
        is this dict's order, matching the legacy layout: a discard deletes
        the ref, and a new row, in a reused slot too, appends its ref.  A
        fact key is found through the partition's ``(subject, predicate)``
        posting and a compare of that posting's few rows (:meth:`_find_ref`).
    ``_by_subject`` / ``_by_object``
        Exact secondary indexes from subject / object id to packed refs; a
        posting with one ref is the bare ref.
    ``_source_rows``
        Per source id, the live rows whose provenance holds it: a row's
        provenance changes only through the store, which keeps the counts in
        step.  The rows themselves are found by reading the provenance
        column.

    Sort keys are not stored: :meth:`_sort_key_fn` joins the term
    dictionaries' cached ``repr`` strings and the ``repr`` of the row's
    literal.
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
        self._row_order: dict[int, None] = {}
        self._by_subject: dict[int, int | set[int]] = {}
        self._by_object: dict[int, int | set[int]] = {}
        self._source_rows: dict[str, int] = {}
        # Repeated-scan cache: subject id -> facts in facts_about order.
        # Invalidated per subject when a fact is created or removed; a
        # provenance replacement updates the cached view in place.
        self._facts_cache: dict[int, list[ExtendedTriple]] = {}
        #: Bumped whenever some subject's set of facts changes (a row is
        #: created or removed); a provenance merge or replacement leaves it.
        #: A reader that keeps state derived from the facts compares it with
        #: the value it last saw to learn whether anything changed since.
        self.version = 0
        if triples:
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
        return self._materialize(self._upsert_triple(triple))

    def add_all(self, triples: Iterable[ExtendedTriple]) -> int:
        """Insert every triple; return how many new facts were created."""
        return self.add_batch(triples)

    def discard(self, triple: ExtendedTriple) -> bool:
        """Remove the fact identified by *triple*'s key. Returns ``True`` if present."""
        key = self._key_ids(triple)
        ref = None if key is None else self._find_ref(*key)
        if ref is None:
            return False
        self._discard_ref(ref)
        return True

    def remove_subject(self, subject: str) -> int:
        """Remove every fact about *subject*; return the number removed."""
        sid = self._subject_terms.id_of(subject)
        refs = tuple(posting_ids(self._by_subject.get(sid)))
        for ref in refs:
            self._discard_ref(ref)
        return len(refs)

    def remove_source(self, source_id: str) -> int:
        """Drop *source_id* from all provenance; purge facts left unsupported.

        Implements on-demand source deletion (licensing / governance).
        Returns the number of facts removed entirely.  A rare operation, it
        walks the provenance column of every partition; a source holding no
        row returns at once.
        """
        if not self._source_rows.get(source_id):
            return 0
        return sum(self._retract(ref, source_id) for ref in self._refs_of_source(source_id))

    # ------------------------------------------------------------------ #
    # batch operators
    # ------------------------------------------------------------------ #
    def add_batch(self, triples: Iterable[ExtendedTriple]) -> int:
        """Insert triples without materializing views; return new-fact count."""
        before = len(self._row_order)
        for triple in triples:
            self._upsert_triple(triple)
        return len(self._row_order) - before

    def add_rows(self, rows: Iterable[dict]) -> int:
        """Insert relational rows (:meth:`ExtendedTriple.to_row` format) directly.

        Skips triple construction entirely; validation matches
        :meth:`ExtendedTriple.from_row` exactly.  Returns new-fact count.
        """
        before = len(self._row_order)
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
                provenance,
            )
        return len(self._row_order) - before

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

        The fusion retract primitive: candidate facts are the subject's refs
        whose provenance holds the source, so a retraction reads only the
        named subjects' few rows.  *only_predicates* restricts the retraction
        to those predicates (the volatile-partition path); *skip_predicates*
        exempts predicates (fusion never retracts ``sameAs`` links).  Returns
        the number of facts purged entirely.
        """
        if not self._source_rows.get(source_id):
            return 0
        pid_filter = None
        if only_predicates is not None:
            ids = (self._predicate_terms.id_of(p) for p in only_predicates)
            pid_filter = {pid for pid in ids if pid is not None}
        ids = (self._predicate_terms.id_of(p) for p in skip_predicates)
        skip_pids = {pid for pid in ids if pid is not None}
        partitions = self._partitions
        removed = 0
        for subject in subjects:
            sid = self._subject_terms.id_of(subject)
            for ref in tuple(posting_ids(self._by_subject.get(sid))):
                pid = ref >> ROW_BITS
                if pid_filter is not None and pid not in pid_filter:
                    continue
                if pid in skip_pids:
                    continue
                if source_id in partitions[pid].prov[ref & ROW_MASK]:
                    removed += self._retract(ref, source_id)
        return removed

    def stage(self, subjects: Iterable[str]) -> TripleBatch:
        """Snapshot every fact of *subjects* into one :class:`TripleBatch`.

        Reads the partitions' columns directly — no triple, row dict or
        provenance object is built or copied — and costs O(facts of
        *subjects*).  Later changes to this store do not show in the batch.
        """
        return self._stage(sorted(set(subjects)))

    def stage_without_source(self, source_id: str) -> tuple[TripleBatch, list[str]]:
        """Stage every subject holding a fact from *source_id* as
        :meth:`remove_source` would leave it, without changing the store.

        Each staged fact's provenance drops *source_id*, and a fact left with
        no source is omitted.  Returns the batch of the subjects that keep a
        fact and, sorted, the subjects left with none.  The subjects come from
        a walk of the provenance column, as in :meth:`remove_source`.
        """
        terms, partitions = self._subject_terms.terms, self._partitions
        touched = sorted({
            terms[partitions[ref >> ROW_BITS].subj[ref & ROW_MASK]]
            for ref in self._refs_of_source(source_id)
        })
        batch = self._stage(touched, dropped_source=source_id)
        kept = set(batch.subjects)
        return batch, [subject for subject in touched if subject not in kept]

    def _stage(self, subjects: list[str], dropped_source: str | None = None) -> TripleBatch:
        """The batch of *subjects* (sorted, distinct).  With *dropped_source*,
        that source leaves every row's provenance, a row it leaves with no
        source is skipped, and a subject left with no row is left out."""
        batch = TripleBatch(
            (),
            (self._predicate_terms, self._rid_terms, self._locale_terms, self._object_terms),
        )
        kept: list[str] = []
        sort_key = self._sort_key_fn()
        for subject in subjects:
            sid = self._subject_terms.id_of(subject)
            for ref in sorted(posting_ids(self._by_subject.get(sid)), key=sort_key):
                partition = self._partitions[ref >> ROW_BITS]
                row = ref & ROW_MASK
                provenance = partition.prov[row]
                if dropped_source is not None and dropped_source in provenance:
                    provenance = provenance.without(dropped_source)
                    if provenance.is_empty():
                        continue
                batch._pids.append(partition.pid)
                batch._rids.append(partition.rid[row])
                batch._rpids.append(partition.rpred[row])
                batch._oids.append(partition.obj_ids[row])
                batch._lids.append(partition.loc[row])
                batch._objs.append(partition.objs[row])
                batch._provs.append(provenance)
            if dropped_source is None or len(batch._objs) > batch._starts[-1]:
                batch._starts.append(len(batch._objs))
                kept.append(subject)
        batch.subjects = tuple(kept)
        return batch

    def apply_staged(self, batch: TripleBatch) -> int:
        """Make each subject of a staged *batch* hold exactly its staged
        facts; return how many facts were inserted.

        The batch's id columns are translated into this store's dictionaries
        through per-column memo tables (each distinct term is interned once
        per call, each subject once per group), and each subject's group is
        diffed against the rows the store holds for it:

        * a staged fact already stored keeps its row and its materialized
          triple; the row's provenance is replaced only when the batch's
          value differs;
        * a stored fact the batch no longer names is discarded (a subject
          staged without facts leaves the store);
        * a new fact is inserted id-encoded, sharing the batch's provenance
          value.

        Object ids conflate dict-equal literals (``True``, ``1``, ``1.0``),
        so a stored row matches only when its literal is also the staged
        one; otherwise the row is rewritten with the staged literal.  The
        result equals :meth:`remove_subjects_batch` of the batch's subjects
        followed by inserting its facts; only :meth:`to_rows` order differs,
        since unchanged facts keep their place.
        """
        their_predicates, their_rids, their_locales, their_objects = batch._terms
        pids = _translate_ids(batch._pids, their_predicates, self._predicate_terms)
        rpids = _translate_ids(batch._rpids, their_predicates, self._predicate_terms)
        rids = _translate_ids(batch._rids, their_rids, self._rid_terms)
        oids = _translate_ids(batch._oids, their_objects, self._object_terms)
        lids = _translate_ids(batch._lids, their_locales, self._locale_terms)
        predicates = self._predicate_terms.terms
        partitions = self._partitions
        objs, provs, starts = batch._objs, batch._provs, batch._starts
        inserted = 0
        for index, subject in enumerate(batch.subjects):
            first, end = starts[index], starts[index + 1]
            if first == end:
                sid = self._subject_terms.id_of(subject)
            else:
                sid = self._subject_terms.intern(subject)
            # the subject's stored refs by the rest of their fact key; what
            # no staged fact claims is stale
            stored: dict[tuple, int] = {}
            for ref in posting_ids(self._by_subject.get(sid)):
                partition = partitions[ref >> ROW_BITS]
                row = ref & ROW_MASK
                stored[(
                    partition.pid, partition.rid[row], partition.rpred[row],
                    partition.obj_ids[row], partition.loc[row],
                )] = ref
            fresh: list[int] = []
            for row in range(first, end):
                key = (pids[row], rids[row], rpids[row], oids[row], lids[row])
                ref = stored.get(key)
                if ref is not None and self._holds_literal(ref, objs[row]):
                    del stored[key]
                    self._set_prov(ref, provs[row])
                else:
                    fresh.append(row)
            for ref in stored.values():
                self._discard_ref(ref)
            before = len(self._row_order)
            for row in fresh:
                key = (sid, pids[row], rids[row], rpids[row], oids[row], lids[row])
                self._insert_ids(key, predicates[key[1]], objs[row], provs[row])
            inserted += len(self._row_order) - before
        return inserted

    def scan_tuples(self) -> Iterator[tuple]:
        """Insertion-ordered ``(subject, predicate, relationship_predicate,
        object, provenance)`` scan without materializing triples — the
        graph-shaped hot-loop feed."""
        subject_terms = self._subject_terms.terms
        predicate_terms = self._predicate_terms.terms
        for ref in self._row_order:
            partition = self._partitions[ref >> ROW_BITS]
            row = ref & ROW_MASK
            yield (
                subject_terms[partition.subj[row]],
                partition.predicate,
                predicate_terms[partition.rpred[row]],
                partition.objs[row],
                partition.prov[row],
            )

    def scan_subject(self, subject: str) -> Iterator[tuple[str, bool, Value]]:
        """Unordered ``(predicate, is_composite, object)`` scan of one
        subject's facts, without materializing triples — for liveness and
        type checks that don't care about fact order."""
        sid = self._subject_terms.id_of(subject)
        if sid is None:
            return
        for ref in posting_ids(self._by_subject.get(sid)):
            partition = self._partitions[ref >> ROW_BITS]
            row = ref & ROW_MASK
            yield (
                partition.predicate,
                partition.rid[row] != self._none_rid,
                partition.objs[row],
            )

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
            if refs is None:
                return []
            cached = [
                self._materialize(ref)
                for ref in sorted(posting_ids(refs), key=self._sort_key_fn())
            ]
            self._facts_cache[sid] = cached
        return cached

    def facts_with_predicate(self, predicate: str) -> list[ExtendedTriple]:
        """Return all facts using *predicate*."""
        pid = self._predicate_terms.id_of(predicate)
        partition = self._partitions.get(pid) if pid is not None else None
        if partition is None or not partition.live:
            return []
        refs = [pack_ref(pid, row) for row, p in enumerate(partition.prov) if p is not None]
        refs.sort(key=self._sort_key_fn())
        return [self._materialize(ref) for ref in refs]

    def facts_with_object(self, obj: Value) -> list[ExtendedTriple]:
        """Return all facts whose object equals *obj* (literal or entity id)."""
        try:
            oid = self._object_terms.id_of(obj)
        except TypeError:  # unhashable object value: fall back to a scan
            return [t for t in self if t.obj == obj]
        refs = posting_ids(self._by_object.get(oid))
        return [self._materialize(ref) for ref in sorted(refs, key=self._sort_key_fn())]

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

    def has_subject(self, subject: str) -> bool:
        """Whether the store holds at least one fact about *subject*."""
        sid = self._subject_terms.id_of(subject)
        return sid is not None and sid in self._by_subject

    def subjects(self) -> set[str]:
        """Return the set of all subject identifiers."""
        return {self._subject_terms.terms[sid] for sid in self._by_subject}

    def predicates(self) -> set[str]:
        """Return the set of all predicates in use."""
        return {p.predicate for p in self._partitions.values() if p.live}

    def entity_count(self) -> int:
        """Number of distinct subjects (entities) in the store."""
        return len(self._by_subject)

    def fact_count(self, subject: str | None = None) -> int:
        """Number of distinct facts in the store, or about *subject* when
        given — counted from the subject's posting, materializing nothing."""
        if subject is None:
            return len(self._row_order)
        sid = self._subject_terms.id_of(subject)
        return len(posting_ids(self._by_subject.get(sid)))

    def filter(self, predicate_fn: Callable[[ExtendedTriple], bool]) -> "TripleStore":
        """Return a new store with the facts satisfying *predicate_fn*."""
        return TripleStore(t for t in self if predicate_fn(t))

    def to_rows(self) -> list[dict]:
        """Serialize the whole store to relational rows."""
        return [self._row_of(ref) for ref in self._row_order]

    def canonical_rows(self) -> list[tuple]:
        """Canonical content of the store: every fact with its provenance.

        Sorted, hashable, and independent of insertion order — two stores are
        byte-equivalent (facts *and* per-source provenance) exactly when their
        canonical rows are equal.  The batch-construction and columnar
        equivalence suites compare stores through this one definition.
        """
        rows = []
        sort_key = self._sort_key_fn()
        for ref in self._row_order:
            prov = self._partitions[ref >> ROW_BITS].prov[ref & ROW_MASK]
            rows.append(
                (
                    sort_key(ref),
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
    def _upsert_triple(self, triple: ExtendedTriple) -> int:
        return self._upsert(
            triple.subject,
            triple.predicate,
            triple.relationship_id,
            triple.relationship_predicate,
            triple.obj,
            triple.locale,
            triple.provenance,
        )

    def _upsert(
        self,
        subject: str,
        predicate: str,
        relationship_id: str | None,
        relationship_predicate: str | None,
        obj: Value,
        locale: str,
        provenance: Provenance,
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
        return self._insert_ids(key, predicate, obj, provenance)

    def _insert_ids(self, key: tuple, predicate: str, obj: Value, provenance: Provenance) -> int:
        """Insert one id-encoded fact holding *provenance*, or merge
        *provenance* into the fact already stored under *key*."""
        sid, pid, rid, rpid, oid, lid = key
        ref = self._find_ref(sid, pid, rid, rpid, oid, lid)
        if ref is not None:
            held = self._partitions[pid].prov[ref & ROW_MASK]
            self._set_prov(ref, held.merge(provenance))
            return ref
        partition = self._partitions.get(pid)
        if partition is None:
            partition = self._partitions[pid] = PredicatePartition(pid, predicate)
        row = partition.alloc(sid, rid, rpid, oid, lid, obj, provenance)
        ref = pack_ref(pid, row)
        self._row_order[ref] = None
        posting_add(self._by_subject, sid, ref)
        posting_add(self._by_object, oid, ref)
        self._count_sources(provenance, 1)
        self._facts_cache.pop(sid, None)
        self.version += 1
        return ref

    def _find_ref(self, sid: int, pid: int, rid: int, rpid: int, oid: int, lid: int) -> int | None:
        """The packed ref of the live row holding the id-encoded fact key, or
        ``None``: the ``(sid, pid)`` posting names the subject's few rows of
        the predicate, and their id columns are compared."""
        partition = self._partitions.get(pid)
        if partition is None:
            return None
        rows = partition.by_subject.get(sid)
        if rows is None:
            return None
        for row in (rows,) if type(rows) is int else rows:
            if (
                partition.obj_ids[row] == oid
                and partition.rid[row] == rid
                and partition.rpred[row] == rpid
                and partition.loc[row] == lid
            ):
                return pack_ref(pid, row)
        return None

    def _count_sources(self, provenance: Provenance, step: int) -> None:
        """Add *step* to the count of each source of *provenance*.  A count
        is the source's references over the live rows, so it is positive
        exactly while some live row holds the source."""
        counts = self._source_rows
        for reference in provenance.references:
            source_id = reference.source_id
            count = counts.get(source_id, 0) + step
            if count:
                counts[source_id] = count
            else:
                del counts[source_id]

    def _refs_of_source(self, source_id: str) -> list[int]:
        """Refs of every live row whose provenance holds *source_id*, read
        from the provenance columns."""
        return [
            pack_ref(pid, row)
            for pid, partition in self._partitions.items()
            for row, prov in enumerate(partition.prov)
            if prov is not None and source_id in prov
        ]

    def _holds_literal(self, ref: int, obj: Value) -> bool:
        """Whether the live row stores *obj* as provided, not merely a
        dict-equal literal of another type or spelling (``1`` for ``True``)."""
        stored = self._partitions[ref >> ROW_BITS].objs[ref & ROW_MASK]
        if stored is obj:
            return True
        if type(stored) is not type(obj):
            return False
        return type(obj) is str or repr(stored) == repr(obj)

    def _set_prov(self, ref: int, provenance: Provenance) -> None:
        """Give one live row *provenance* unless it already holds that value;
        the per-source row counts follow the sources that left or joined."""
        partition = self._partitions[ref >> ROW_BITS]
        row = ref & ROW_MASK
        held = partition.prov[row]
        if held is provenance or held == provenance:
            return
        partition.replace_prov(row, provenance)
        self._count_sources(held, -1)
        self._count_sources(provenance, 1)

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

    def _retract(self, ref: int, source_id: str) -> bool:
        """Drop *source_id* from one live row that holds it, releasing the
        row when no source is left; ``True`` when the row was released."""
        prov = self._partitions[ref >> ROW_BITS].prov[ref & ROW_MASK].without(source_id)
        if prov.is_empty():
            self._discard_ref(ref)
            return True
        self._set_prov(ref, prov)
        return False

    def _discard_ref(self, ref: int) -> None:
        """Remove one live row."""
        partition = self._partitions[ref >> ROW_BITS]
        row = ref & ROW_MASK
        sid = partition.subj[row]
        del self._row_order[ref]
        self._facts_cache.pop(sid, None)
        self.version += 1
        posting_remove(self._by_subject, sid, ref)
        posting_remove(self._by_object, partition.obj_ids[row], ref)
        self._count_sources(partition.prov[row], -1)
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
        if rows is None:
            return []
        if type(rows) is int:
            return [pack_ref(pid, rows)]
        return sorted((pack_ref(pid, row) for row in rows), key=self._sort_key_fn())

    def _materialize(self, ref: int) -> ExtendedTriple:
        """The cached :class:`ExtendedTriple` view of one live row.

        The view holds the row's provenance value, and every replacement of
        that value updates it (:meth:`PredicatePartition.replace_prov`), so
        the view always reads the fact's current provenance, matching the
        legacy stored-instance behaviour.
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

    def _sort_key_fn(self) -> Callable[[int], str]:
        """The sort key of every ordered lookup: a ref's ``repr`` of its key
        tuple, identical to the legacy ``sorted(keys, key=repr)``.  It is
        built from the term dictionaries' cached reprs and the row literal's
        own ``repr`` and stored nowhere; the returned function binds the
        dictionaries once per sort."""
        partitions = self._partitions
        subject_reprs = self._subject_terms.reprs
        predicate_reprs = self._predicate_terms.reprs
        rid_reprs = self._rid_terms.reprs
        locale_reprs = self._locale_terms.reprs

        def sort_key(ref: int) -> str:
            partition = partitions[ref >> ROW_BITS]
            row = ref & ROW_MASK
            return (
                f"({subject_reprs[partition.subj[row]]}, {predicate_reprs[partition.pid]}, "
                f"{rid_reprs[partition.rid[row]]}, {predicate_reprs[partition.rpred[row]]}, "
                f"{partition.objs[row]!r}, {locale_reprs[partition.loc[row]]})"
            )

        return sort_key

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
        return iter([self._materialize(ref) for ref in self._row_order])

    def __len__(self) -> int:
        return len(self._row_order)

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, ExtendedTriple):
            return False
        key = self._key_ids(triple)
        return key is not None and self._find_ref(*key) is not None
