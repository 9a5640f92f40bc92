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
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.engine.metadata import WatermarkMap
from repro.live.rpq import AdjacencyIndex, document_edges
from repro.ml.similarity import normalize_string, tokens

#: Shared immutable empty postings set (avoids allocating on every miss).
_EMPTY_IDS: frozenset[str] = frozenset()

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


class GraphKVStore:
    """Key-value store of live entity documents: one dict, one owner.

    Scale-out is the replica fleet's job (every replica holds its own
    :class:`LiveIndex`; placement across replicas is
    :meth:`repro.serving.router.ShardRouter.owners`), so inside one index a
    document lives in exactly one dict.  A per-type partition index serves
    :meth:`by_type` / :meth:`ids_by_type` in time proportional to the
    partition instead of scanning the store — the entry point the KGQ
    executor seeds type scans from.
    """

    def __init__(self) -> None:
        self._documents: dict[str, LiveEntityDocument] = {}
        # entity_type -> ids; "" holds untyped documents.
        self._by_type: dict[str, set[str]] = defaultdict(set)
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
        if previous is None or previous.entity_type != document.entity_type:
            if previous is not None:
                self._discard_type(previous.entity_type, entity_id)
            self._by_type[document.entity_type].add(entity_id)
        return previous

    def _discard_type(self, entity_type: str, entity_id: str) -> None:
        partition = self._by_type.get(entity_type)
        if partition is not None:
            partition.discard(entity_id)
            if not partition:
                del self._by_type[entity_type]

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

    def pop(self, entity_id: str) -> LiveEntityDocument | None:
        """Remove a document and return it (``None`` when absent)."""
        document = self._documents.pop(entity_id, None)
        if document is not None:
            self._discard_type(document.entity_type, entity_id)
        return document

    def by_type(self, entity_type: str) -> list[LiveEntityDocument]:
        """All documents of one entity type, ordered by entity id.

        Served from the type partition index — cost is proportional to the
        partition, not the store.
        """
        self.reads += 1
        documents = self._documents
        return [documents[entity_id] for entity_id in sorted(self._by_type.get(entity_type, ()))]

    def ids_by_type(self, entity_type: str) -> set[str]:
        """The id partition of one entity type (read-only view — do not mutate).

        ``""`` addresses the untyped partition.  Returned without copying so
        the executor can intersect candidate sets against it; callers must
        treat it as frozen.
        """
        return self._by_type.get(entity_type, _EMPTY_IDS)  # type: ignore[return-value]

    def __iter__(self) -> Iterator[LiveEntityDocument]:
        return iter(self._documents.values())

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, entity_id: object) -> bool:
        return isinstance(entity_id, str) and self.get(entity_id) is not None


def _unpost(postings: dict, key: object, entity_id: str) -> None:
    """Drop *entity_id* from one postings set, and the set once empty."""
    posted = postings.get(key)
    if posted is not None:
        posted.discard(entity_id)
        if not posted:
            del postings[key]


class InvertedGraphIndex:
    """Inverted index from tokens of names / literal values to entity ids.

    Re-indexing a document diffs its posting keys against those of the
    document it replaces (:meth:`LiveEntityDocument.posting_keys`, cached
    on the document) and touches only the postings it left or joined, so a
    shipped row that changed one fact moves one posting.
    """

    def __init__(self) -> None:
        self._name_postings: dict[str, set[str]] = defaultdict(set)
        self._exact_names: dict[str, set[str]] = defaultdict(set)
        self._value_postings: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.lookups = 0

    def _postings(self) -> tuple[dict, dict, dict]:
        return (self._name_postings, self._exact_names, self._value_postings)

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
                _unpost(postings, key, entity_id)
            for key in set(after).difference(before):
                postings[key].add(entity_id)

    def remove(self, document: LiveEntityDocument) -> None:
        """Drop a held document from all postings it is listed under."""
        for postings, held in zip(self._postings(), document.posting_keys()):
            for key in held:
                _unpost(postings, key, document.entity_id)

    def lookup_name(self, name: str) -> set[str]:
        """Entity ids whose name matches *name* exactly (normalized)."""
        self.lookups += 1
        return set(self._exact_names.get(normalize_string(name), set()))

    def search_name_tokens(self, query: str) -> set[str]:
        """Entity ids containing every token of *query* in their names."""
        self.lookups += 1
        query_tokens = tokens(query)
        if not query_tokens:
            return set()
        results: set[str] | None = None
        for token in query_tokens:
            posting = self._name_postings.get(token, set())
            results = posting if results is None else results & posting
            if not results:
                return set()
        return set(results or set())

    def lookup_value(self, predicate: str, value: object) -> set[str]:
        """Entity ids with ``predicate = value`` (normalized string match)."""
        self.lookups += 1
        return set(self._value_postings.get((predicate, normalize_string(value)), set()))

    # -------------------------------------------------------------- #
    # raw postings (executor entry points)
    # -------------------------------------------------------------- #
    def value_postings(self, predicate: str, normalized_value: str) -> set[str]:
        """The raw ``(predicate, normalized value)`` postings set, uncopied.

        Unlike :meth:`lookup_value` this takes an already-normalized value,
        does not copy, and does not count a lookup — it is the executor's
        set-intersection primitive, called once per equality probe per
        condition.  Callers must treat the result as frozen.
        """
        return self._value_postings.get((predicate, normalized_value), _EMPTY_IDS)  # type: ignore[return-value]

    def exact_name_postings(self, normalized_name: str) -> set[str]:
        """The raw exact-name postings set, uncopied (read-only view)."""
        return self._exact_names.get(normalized_name, _EMPTY_IDS)  # type: ignore[return-value]


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

    ``watermarks`` track, per upstream feed (the stable view, each served
    view artifact), the Graph Engine log position (LSN) the loaded documents
    reflect, so refreshes can be skipped when the upstream has not advanced.
    Feeds loaded through :meth:`replace_feed` / :meth:`apply_feed_delta` (the
    replica-backed serving path) additionally track which document ids each
    feed serves, so a replaced or dropped feed unserves vanished rows.
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

    def set_watermark(self, feed: str, lsn: int) -> None:
        """Record that *feed*'s documents reflect the upstream log up to *lsn*."""
        self.watermarks.advance(feed, lsn)

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

        Documents that vanished from the feed stop being served; the feed's
        watermark advances to *lsn*.  Returns the number of documents written.
        """
        fresh_ids: set[str] = set()
        written = 0
        for document in documents:
            self.replace(document)
            fresh_ids.add(document.entity_id)
            written += 1
        self.delete_many(self._feed_documents.get(feed, set()) - fresh_ids)
        self._feed_documents[feed] = fresh_ids
        self.watermarks.advance(feed, lsn)
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

        Exact postings sizes, read without copying — the planner uses this to
        seed from the cheapest pushable condition.  Name-shaped predicates
        read the exact-name postings (what :class:`QueryExecutor`'s
        ``IndexLookup`` resolves through); everything else reads the value
        postings.
        """
        normalized = normalize_string(value)
        if predicate in ("name", "alias"):
            return len(self.inverted.exact_name_postings(normalized))
        return len(self.inverted.value_postings(predicate, normalized))

    def __len__(self) -> int:
        return len(self.kv)
