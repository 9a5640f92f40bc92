"""Live KG indexes: key-value store plus inverted graph index (§4.1).

The live KG is indexed with two structures optimized for low-latency retrieval
under high concurrency: a key-value store holding the full document of every
live (and stable-view) entity, and an inverted index from names / literal
values to entity identifiers for entity search.  The paper's index is
"sharded and replicated"; here that scale-out is the serving fleet
(:mod:`repro.serving`): each replica owns one :class:`LiveIndex`,
:class:`~repro.serving.router.ShardRouter` places keys and queries on
replicas, and inside one index every document is held exactly once.  A
held document is a value: nothing mutates it once an index holds it, so
the replicas of one process share the documents a shipped batch decodes to
(:meth:`repro.serving.shipping.ShipmentBatch.documents`), and each index
diffs a new document against the one it replaces instead of keeping a
reverse map of its own.

The key-value store also keeps, per ``(feed, type)``, the partition's ids in
id order and, built on the first read after the partition changed, two
columns per queried predicate: a numeric column
(:meth:`GraphKVStore.numeric_column`), the access pattern "a type of one
feed, in id order, compared on one predicate" that range filters read, and
a value column (:meth:`GraphKVStore.value_column`), the raw values one hop
reads per row, which a type scan projects from without reading a document.
Display names are not baked into a value column: :meth:`GraphKVStore.display`
resolves them at read time, one dict probe per value, so a renamed target
shows its new name although its referrers' partition did not change.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.engine.metadata import WatermarkMap
from repro.live.members import add_member, copy_members, discard_member, members
from repro.live.rpq import AdjacencyIndex, document_edges
from repro.ml.similarity import normalize_string, tokens


def _shared(normalized: str, value: object) -> str:
    """*normalized*, or *value* itself when normalizing did not change it."""
    return value if normalized == value else normalized   # type: ignore[return-value]


@dataclass(slots=True)
class LiveEntityDocument:
    """The serving document of one entity in the live KG.

    Once an index holds a document it is a value: nothing mutates it (an
    update stores a new document), so several indexes may hold the same
    object.  Its posting keys and edges are computed on first use and
    cached on it; the cache fields take no part in equality or in
    :func:`document_checksum`.
    """

    entity_id: str
    entity_type: str = ""
    name: str = ""
    facts: dict[str, list[object]] = field(default_factory=dict)
    references: dict[str, str] = field(default_factory=dict)   # predicate -> entity id
    source_id: str = ""
    timestamp: int = 0
    is_live: bool = False       # True for streaming entities, False for stable-view entities
    _keys: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _edges: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def value(self, predicate: str) -> object | None:
        """First value of *predicate* (falls back to references)."""
        values = self.facts.get(predicate)
        if values:
            return values[0]
        return self.references.get(predicate)

    def values(self, predicate: str) -> list[object]:
        """All values of *predicate*, including a reference if present."""
        values = list(self.facts.get(predicate, []))
        if predicate in self.references:
            values.append(self.references[predicate])
        return values

    def hop(self, predicate: str) -> list[object]:
        """What one hop of a KGQ path reads here: the name for ``name``
        when the document has one, else :meth:`values`."""
        if predicate == "name" and self.name:
            return [self.name]
        return self.values(predicate)

    def merged(self, other: "LiveEntityDocument") -> "LiveEntityDocument":
        """This document updated by a newer one (streaming upsert), as a new value.

        Predicates and references *other* names replace this document's;
        the rest carry over.  An older *other* changes nothing: ``self``.
        """
        if other.timestamp < self.timestamp:
            return self
        return LiveEntityDocument(
            entity_id=self.entity_id,
            entity_type=other.entity_type or self.entity_type,
            name=other.name or self.name,
            facts={**self.facts, **{p: list(values) for p, values in other.facts.items()}},
            references={**self.references, **other.references},
            source_id=other.source_id or self.source_id,
            timestamp=other.timestamp,
            is_live=self.is_live or other.is_live,
        )

    def posting_keys(self) -> tuple[tuple, tuple, tuple]:
        """``(name tokens, exact names, value keys)`` the inverted index posts
        this document under, computed once.  A normalized string equal to the
        document's own value is that value, not a copy."""
        if self._keys is None:
            name_tokens: set[str] = set()
            exact_names: set[str] = set()
            value_keys: set[tuple[str, str]] = set()
            for name in [self.name, *[str(v) for v in self.facts.get("alias", [])]]:
                normalized = _shared(normalize_string(name), name)
                if normalized:
                    exact_names.add(normalized)
                    name_tokens.update(tokens(normalized))
            for predicate, values in self.facts.items():
                for value in values:
                    value_keys.add((predicate, _shared(normalize_string(value), value)))
            for predicate, reference in self.references.items():
                value_keys.add((predicate, _shared(normalize_string(reference), reference)))
            self._keys = (tuple(name_tokens), tuple(exact_names), tuple(value_keys))
        return self._keys

    def edges(self) -> tuple[tuple[str, str], ...]:
        """The document's :func:`~repro.live.rpq.document_edges`, computed once."""
        if self._edges is None:
            self._edges = tuple(document_edges(self))
        return self._edges


class _Partition:
    """The ids of one ``(feed, type)`` partition in id order, a change count,
    and the numeric and value columns built from it (each stamped with the
    count it was built at)."""

    __slots__ = ("ids", "changes", "columns", "value_columns")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.changes = 0
        self.columns: dict[str, tuple[int, array, array]] = {}
        self.value_columns: dict[str, tuple[int, list, dict[int, tuple]]] = {}

    def copy(self) -> "_Partition":
        """A partition with its own id list and column dicts; a built column
        is never mutated (a stale one is replaced), so the columns are shared."""
        twin = _Partition()
        twin.ids = list(self.ids)
        twin.changes = self.changes
        twin.columns = dict(self.columns)
        twin.value_columns = dict(self.value_columns)
        return twin


def _numeric_bounds(values: Iterable[object]) -> tuple[float, float]:
    """``(min, max)`` of the values ``float()`` accepts, NaN skipped;
    ``(inf, -inf)`` when there are none."""
    low, high = math.inf, -math.inf
    for value in values:
        try:
            number = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
        if number < low:
            low = number
        if number > high:
            high = number
    return low, high


class GraphKVStore:
    """Key-value store of live entity documents: one dict, one owner.

    Scale-out is the replica fleet's job (every replica holds its own
    :class:`LiveIndex`; placement across replicas is
    :meth:`repro.serving.router.ShardRouter.owners`), so inside one index a
    document lives in exactly one dict.  Beside it every ``(source_id,
    entity_type)`` pair has a partition: its ids in id order, so a type scan
    reads them without sorting and a feed-scoped scan reads no other feed's
    rows.  A partition counts its changes, and :meth:`numeric_column` and
    :meth:`value_column` build a column on first read after the count
    moved, so applying a document costs the partition one counter bump and
    no column work.
    """

    def __init__(self) -> None:
        self._documents: dict[str, LiveEntityDocument] = {}
        # (source_id, entity_type) -> partition; "" is the untyped type.
        self._id_partitions: dict[tuple[str, str], _Partition] = {}
        self.reads = 0

    def put(self, document: LiveEntityDocument) -> LiveEntityDocument | None:
        """Insert or merge-update a document; returns the one it displaced.

        A held document is never mutated: an update stores
        :meth:`LiveEntityDocument.merged`, a new document.
        """
        previous = self._documents.get(document.entity_id)
        return self.replace(document if previous is None else previous.merged(document))

    def replace(self, document: LiveEntityDocument) -> LiveEntityDocument | None:
        """Hold *document* as it is; returns the document it displaced."""
        entity_id = document.entity_id
        previous = self._documents.get(entity_id)
        self._documents[entity_id] = document
        if (
            previous is not None
            and previous.source_id == document.source_id
            and previous.entity_type == document.entity_type
        ):
            self._id_partitions[(document.source_id, document.entity_type)].changes += 1
            return previous
        if previous is not None:
            self._unlist(previous)
        key = (document.source_id, document.entity_type)
        partition = self._id_partitions.get(key)
        if partition is None:
            partition = self._id_partitions[key] = _Partition()
        ids = partition.ids
        if not ids or ids[-1] < entity_id:
            ids.append(entity_id)
        else:
            insort(ids, entity_id)
        partition.changes += 1
        return previous

    def _unlist(self, document: LiveEntityDocument) -> None:
        key = (document.source_id, document.entity_type)
        partition = self._id_partitions[key]
        ids = partition.ids
        del ids[bisect_left(ids, document.entity_id)]
        partition.changes += 1
        if not ids:
            del self._id_partitions[key]

    def copy(self) -> "GraphKVStore":
        """A store holding the very same documents (values, never mutated)
        in partitions of its own."""
        twin = GraphKVStore()
        twin._documents = dict(self._documents)
        twin._id_partitions = {
            key: partition.copy() for key, partition in self._id_partitions.items()
        }
        return twin

    def get(self, entity_id: str) -> LiveEntityDocument | None:
        """Point lookup by entity id."""
        self.reads += 1
        return self._documents.get(entity_id)

    def get_many(self, entity_ids: Iterable[str]) -> dict[str, LiveEntityDocument]:
        """Batched point lookups: one read operation, missing ids omitted.

        The executor's batch entry point — candidate id sets resolve to
        documents in a single pass instead of one counted read per id.
        """
        self.reads += 1
        documents = self._documents
        found: dict[str, LiveEntityDocument] = {}
        for entity_id in entity_ids:
            document = documents.get(entity_id)
            if document is not None:
                found[entity_id] = document
        return found

    def reader(self) -> Callable[[str], LiveEntityDocument | None]:
        """Lazy point lookups counted as one read operation, like
        :meth:`get_many`: the caller resolves ids one at a time and may
        stop early (a REACH walk stops at its LIMIT)."""
        self.reads += 1
        return self._documents.get

    def pop(self, entity_id: str) -> LiveEntityDocument | None:
        """Remove a document and return it (``None`` when absent)."""
        document = self._documents.pop(entity_id, None)
        if document is not None:
            self._unlist(document)
        return document

    def partition(self, feed: str, entity_type: str) -> list[str]:
        """The ids of *feed*'s documents of *entity_type*, in id order.

        Returned without copying; callers must treat it as frozen.
        """
        partition = self._id_partitions.get((feed, entity_type))
        return partition.ids if partition is not None else []

    def partition_feeds(self, entity_type: str) -> list[str]:
        """The feeds holding documents of *entity_type*."""
        return [feed for feed, held_type in self._id_partitions if held_type == entity_type]

    def by_type(self, entity_type: str) -> list[LiveEntityDocument]:
        """All documents of one entity type, ordered by entity id: the
        type's partitions merged."""
        self.reads += 1
        documents = self._documents
        runs = [self.partition(feed, entity_type) for feed in self.partition_feeds(entity_type)]
        return [documents[entity_id] for entity_id in heapq.merge(*runs)]

    def numeric_column(
        self, feed: str, entity_type: str, predicate: str
    ) -> tuple[array, array]:
        """``(low, high)``: per id of :meth:`partition`, the least and greatest
        of the row's *predicate* values that ``float()`` accepts (NaN
        skipped; ``inf`` / ``-inf`` when there are none).

        Some value ``v`` has ``float(v) > t`` exactly when ``high > t``, and
        ``float(v) < t`` exactly when ``low < t``.  The values are those one
        KGQ path hop reads (:meth:`LiveEntityDocument.hop`).  Rebuilt on the
        first read after the partition changed.
        """
        partition = self._id_partitions.get((feed, entity_type))
        if partition is None:
            return array("d"), array("d")
        built = partition.columns.get(predicate)
        if built is not None and built[0] == partition.changes:
            return built[1], built[2]
        low, high = array("d"), array("d")
        documents = self._documents
        for entity_id in partition.ids:
            row_low, row_high = _numeric_bounds(documents[entity_id].hop(predicate))
            low.append(row_low)
            high.append(row_high)
        partition.columns[predicate] = (partition.changes, low, high)
        return low, high

    def value_column(
        self, feed: str, entity_type: str, predicate: str
    ) -> tuple[list, dict[int, tuple]]:
        """``(single, many)``: per id of :meth:`partition`, the values one KGQ
        path hop reads (:meth:`LiveEntityDocument.hop`).

        ``single[i]`` is the row's value when it reads exactly one, else
        ``None``; ``many`` maps each position reading two or more to them
        all, in hop order.  Raw values: :meth:`display` resolves names at
        read time.  Returned without copying (callers must treat both as
        frozen) and rebuilt on the first read after the partition changed.
        """
        partition = self._id_partitions.get((feed, entity_type))
        if partition is None:
            return [], {}
        built = partition.value_columns.get(predicate)
        if built is not None and built[0] == partition.changes:
            return built[1], built[2]
        single: list[object] = []
        many: dict[int, tuple] = {}
        documents = self._documents
        for position, entity_id in enumerate(partition.ids):
            values = documents[entity_id].hop(predicate)
            if len(values) == 1:
                single.append(values[0])
                continue
            single.append(None)
            if values:
                many[position] = tuple(values)
        partition.value_columns[predicate] = (partition.changes, single, many)
        return single, many

    def display(self, values: list) -> list:
        """*values* as a result row shows them: a string that is the id of a
        held document with a name reads as that name.

        One dict probe per value; *values* comes back as it is when no value
        names a document, else a new list.
        """
        documents = self._documents
        try:
            found = list(map(documents.get, values))
        except TypeError:       # an unhashable value, which names nothing
            found = [documents.get(value) if isinstance(value, str) else None for value in values]
        if found.count(None) == len(found):
            return values
        return [
            value if document is None or not document.name else document.name
            for value, document in zip(values, found)
        ]

    def __iter__(self) -> Iterator[LiveEntityDocument]:
        return iter(self._documents.values())

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, entity_id: object) -> bool:
        return isinstance(entity_id, str) and self.get(entity_id) is not None


class InvertedGraphIndex:
    """Inverted index from tokens of names / literal values to entity ids.

    Re-indexing a document diffs its posting keys against those of the
    document it replaces (:meth:`LiveEntityDocument.posting_keys`, cached
    on the document) and touches only the postings it left or joined, so a
    shipped row that changed one fact moves one posting.  A posting is held
    in the form its size picks (:mod:`repro.live.members`): the bare id, a
    sorted tuple of a few ids, a set of more.
    """

    def __init__(self) -> None:
        self._name_postings: dict[str, str | tuple[str, ...] | set[str]] = {}
        self._exact_names: dict[str, str | tuple[str, ...] | set[str]] = {}
        self._value_postings: dict[tuple[str, str], str | tuple[str, ...] | set[str]] = {}
        self.lookups = 0

    def _postings(self) -> tuple[dict, dict, dict]:
        return (self._name_postings, self._exact_names, self._value_postings)

    def copy(self) -> "InvertedGraphIndex":
        """An index with postings equal to these, sharing every bare id and
        tuple posting and copying every set."""
        twin = InvertedGraphIndex()
        twin._name_postings, twin._exact_names, twin._value_postings = (
            copy_members(postings) for postings in self._postings()
        )
        return twin

    def index_document(
        self, document: LiveEntityDocument, previous: LiveEntityDocument | None = None
    ) -> None:
        """Index *document* in place of *previous*, the document this index
        held under the same id (``None`` when it held none)."""
        if previous is document:
            return
        entity_id = document.entity_id
        held = ((), (), ()) if previous is None else previous.posting_keys()
        for postings, before, after in zip(self._postings(), held, document.posting_keys()):
            if before == after:
                continue
            for key in set(before).difference(after):
                discard_member(postings, key, entity_id)
            for key in set(after).difference(before):
                add_member(postings, key, entity_id)

    def remove(self, document: LiveEntityDocument) -> None:
        """Drop a held document from all postings it is listed under."""
        for postings, held in zip(self._postings(), document.posting_keys()):
            for key in held:
                discard_member(postings, key, document.entity_id)

    def lookup_name(self, name: str) -> set[str]:
        """Entity ids whose name matches *name* exactly (normalized)."""
        self.lookups += 1
        return set(members(self._exact_names.get(normalize_string(name))))

    def search_name_tokens(self, query: str) -> set[str]:
        """Entity ids containing every token of *query* in their names."""
        self.lookups += 1
        results: set[str] | None = None
        for token in tokens(query):
            posting = members(self._name_postings.get(token))
            results = set(posting) if results is None else results.intersection(posting)
            if not results:
                break
        return results or set()

    def lookup_value(self, predicate: str, value: object) -> set[str]:
        """Entity ids with ``predicate = value`` (normalized string match)."""
        self.lookups += 1
        return set(members(self._value_postings.get((predicate, normalize_string(value)))))

    # -------------------------------------------------------------- #
    # raw postings (executor entry points)
    # -------------------------------------------------------------- #
    def value_postings(self, predicate: str, normalized_value: str) -> tuple[str, ...] | set[str]:
        """The ids posted under ``(predicate, normalized value)``: a tuple or
        the index's own set, uncopied.

        Unlike :meth:`lookup_value` this takes an already-normalized value,
        does not copy, and does not count a lookup — it is the executor's
        equality primitive, called once per equality probe per condition.
        Callers must treat the result as frozen.
        """
        return members(self._value_postings.get((predicate, normalized_value)))

    def exact_name_postings(self, normalized_name: str) -> tuple[str, ...] | set[str]:
        """The ids whose name or alias normalizes to *normalized_name*: a
        tuple or the index's own set, uncopied (callers must treat it as
        frozen)."""
        return members(self._exact_names.get(normalized_name))


def view_row_documents(
    view_name: str,
    feed: str,
    rows: Iterable[dict],
    version: int,
) -> list[LiveEntityDocument]:
    """Turn a batch of row-shaped view rows into serving documents.

    Documents are keyed ``{view_name}:{subject}`` so several views may serve
    rows about the same KG entity side by side; ``version`` (the LSN the rows
    reflect) becomes the document timestamp, and a row without ``types`` is
    typed ``view_row``.  Shared by replica apply and
    the anti-entropy auditor, which must agree byte-for-byte on how a
    shipped row is served.  Batch form: one call per
    shipment group instead of one per row, so replicas apply shipments
    without per-row function dispatch.
    """
    prefix = view_name + ":"
    documents: list[LiveEntityDocument] = []
    for row in rows:
        types = row.get("types") or []
        facts = {
            key: list(value) if isinstance(value, (list, tuple)) else [value]
            for key, value in row.items()
            if key not in ("subject", "name", "types") and value not in (None, "")
        }
        documents.append(
            LiveEntityDocument(
                entity_id=prefix + str(row["subject"]),
                entity_type=str(types[0]) if types else "view_row",
                name=str(row.get("name", "")),
                facts=facts,
                source_id=feed,
                timestamp=version,
                is_live=False,
            )
        )
    return documents


def view_row_document(view_name: str, feed: str, row: dict, version: int) -> LiveEntityDocument:
    """Single-row convenience form of :func:`view_row_documents`."""
    return view_row_documents(view_name, feed, (row,), version)[0]


def document_checksum(document: LiveEntityDocument) -> str:
    """Content digest of one serving document (anti-entropy comparison unit).

    Covers the fields that determine what a reader sees — id, type, name,
    facts, references — and deliberately excludes ``timestamp`` and
    ``source_id``: the same row shipped in different batches (snapshot vs
    delta, different LSNs) must still hash identically on every replica.

    Always recomputed from the document: anti-entropy exists to catch silent
    in-place corruption, so the digest is never cached on the object it is
    auditing, and the posting keys and edges that are cached on it take no
    part.  Replicas share documents, so an in-place corruption shows on
    every replica holding that document.
    """
    canonical = json.dumps(
        [
            document.entity_id,
            document.entity_type,
            document.name,
            {k: document.facts[k] for k in sorted(document.facts)},
            {k: document.references[k] for k in sorted(document.references)},
        ],
        sort_keys=True,
        default=str,
        separators=(",", ":"),
    )
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


class LiveIndex:
    """The KV store and inverted index maintained together.

    ``watermarks`` track, per upstream feed (the stable KG, each served view
    artifact), the Graph Engine log position (LSN) the loaded documents
    reflect.  A feed is loaded whole with :meth:`replace_feed` and kept
    current with :meth:`apply_feed_delta`, which also track which document
    ids each feed serves, so a replaced or dropped feed unserves vanished
    rows.  Streaming documents belong to no feed (:meth:`upsert`).
    """

    def __init__(self) -> None:
        self.kv = GraphKVStore()
        self.inverted = InvertedGraphIndex()
        #: Per-feed, per-predicate compressed adjacency for REACH (RPQ)
        #: evaluation — maintained in lockstep with the postings, so shipped
        #: deltas invalidate it on the same code path.
        self.adjacency = AdjacencyIndex()
        self.watermarks = WatermarkMap()
        self._feed_documents: dict[str, set[str]] = {}

    def copy(self) -> "LiveIndex":
        """An index equal, map for map, to a rebuild from the documents this
        one holds, and independent of it: applying to either leaves the other
        as it was.

        It shares what is immutable — the documents, bare ids, tuple members,
        built columns and interval encodings — and copies every set and
        mutable container, so a replica can start from a current peer's index
        instead of rebuilding the same postings and rows from the same
        documents.
        """
        twin = LiveIndex()
        twin.kv = self.kv.copy()
        twin.inverted = self.inverted.copy()
        twin.adjacency = self.adjacency.copy()
        twin.watermarks.update(self.watermarks)
        twin._feed_documents = {feed: set(ids) for feed, ids in self._feed_documents.items()}
        return twin

    def watermark(self, feed: str) -> int:
        """The upstream LSN *feed* currently serves (0 when never loaded)."""
        return self.watermarks.of(feed)

    def is_fresh(self, feed: str, required_lsn: int) -> bool:
        """Whether *feed* serves at least upstream version *required_lsn*."""
        return self.watermark(feed) >= required_lsn

    def upsert(self, document: LiveEntityDocument) -> None:
        """Insert or update a document in both structures."""
        previous = self.kv.put(document)
        self._index(self.kv.get(document.entity_id), previous)

    def replace(self, document: LiveEntityDocument) -> None:
        """Authoritatively replace a document, discarding any prior state.

        Unlike :meth:`upsert` (which merge-updates streaming documents), a
        replace serves feeds whose rows are the whole truth — view artifacts —
        so predicates dropped from a row do not survive the reload.  The
        postings and edges diff against the replaced document, so only those
        that changed move.
        """
        self._index(document, self.kv.replace(document))

    def _index(
        self, document: LiveEntityDocument, previous: LiveEntityDocument | None
    ) -> None:
        self.inverted.index_document(document, previous)
        self.adjacency.index_document(document, previous)

    def delete_many(self, entity_ids: Iterable[str]) -> int:
        """Delete several documents; returns how many actually existed."""
        return sum(1 for entity_id in entity_ids if self.delete(entity_id))

    def upsert_many(self, documents: Iterable[LiveEntityDocument]) -> int:
        """Upsert several documents; returns how many were written."""
        count = 0
        for document in documents:
            self.upsert(document)
            count += 1
        return count

    # -------------------------------------------------------------- #
    # feed-tracked serving (replica-backed reads)
    # -------------------------------------------------------------- #
    def feed_documents(self, feed: str) -> set[str]:
        """Document ids currently served for *feed* (feed-tracked loads only)."""
        return set(self._feed_documents.get(feed, set()))

    def replace_feed(
        self, feed: str, documents: Iterable[LiveEntityDocument], lsn: int
    ) -> int:
        """Authoritatively replace every document of *feed* (snapshot load).

        Documents that vanished from the feed stop being served.  The whole
        feed is replaced, so its watermark is set to *lsn* — not advanced:
        the feed now reflects exactly that position, even one below the
        position the replaced copy held.  Returns the number of documents
        written.
        """
        fresh_ids: set[str] = set()
        written = 0
        for document in documents:
            self.replace(document)
            fresh_ids.add(document.entity_id)
            written += 1
        self.delete_many(self._feed_documents.get(feed, set()) - fresh_ids)
        self._feed_documents[feed] = fresh_ids
        self.watermarks[feed] = lsn
        return written

    def apply_feed_delta(
        self,
        feed: str,
        upserts: Iterable[LiveEntityDocument],
        deleted_ids: Iterable[str],
        lsn: int,
    ) -> int:
        """Apply one incremental feed delta (journal catch-up load).

        Returns the number of documents written; deletions that were not
        being served are no-ops.
        """
        served = self._feed_documents.setdefault(feed, set())
        written = 0
        for document in upserts:
            self.replace(document)
            served.add(document.entity_id)
            written += 1
        for doc_id in deleted_ids:
            self.delete(doc_id)
            served.discard(doc_id)
        self.watermarks.advance(feed, lsn)
        return written

    def drop_feed(self, feed: str) -> int:
        """Stop serving *feed* entirely; returns how many documents left."""
        removed = self.delete_many(self._feed_documents.pop(feed, set()))
        self.watermarks.pop(feed, None)
        return removed

    def delete(self, entity_id: str) -> bool:
        """Delete a document from both structures."""
        document = self.kv.pop(entity_id)
        if document is None:
            return False
        self.inverted.remove(document)
        self.adjacency.remove(document)
        return True

    def get(self, entity_id: str) -> LiveEntityDocument | None:
        """Point lookup by entity id."""
        return self.kv.get(entity_id)

    def get_many(self, entity_ids: Iterable[str]) -> dict[str, LiveEntityDocument]:
        """Batched point lookups (one counted read; missing ids omitted)."""
        return self.kv.get_many(entity_ids)

    def seed_selectivity(self, predicate: str, value: object) -> int:
        """Estimated candidate count of seeding from ``predicate = value``.

        Exact postings sizes (a one-id posting counts 1), read without
        copying — the planner uses this to seed from the cheapest pushable
        condition.  Name-shaped predicates read the exact-name postings
        (what :class:`QueryExecutor`'s ``IndexLookup`` resolves through);
        everything else reads the value postings.
        """
        normalized = normalize_string(value)
        if predicate in ("name", "alias"):
            return len(self.inverted.exact_name_postings(normalized))
        return len(self.inverted.value_postings(predicate, normalized))

    def __len__(self) -> int:
        return len(self.kv)
