"""The pre-columnar TripleStore, frozen as an equivalence baseline.

This is the row-at-a-time, dict-of-``ExtendedTriple`` store the platform used
before the columnar refactor of :mod:`repro.model.triples`: every fact is a
full :class:`~repro.model.triples.ExtendedTriple` object held in a dict keyed
by :meth:`~repro.model.triples.ExtendedTriple.key`, with ``set``-of-keys
secondary indexes.  It is kept verbatim for two jobs:

* the seeded equivalence suite (``tests/test_model_triples_columnar.py``)
  runs random operation sequences against this store and the columnar one and
  asserts ``canonical_rows()`` equality — the byte-level oracle proving the
  refactor changed the layout, not the semantics;
* the STORE benchmark (``benchmarks/bench_triplestore.py``) measures the
  columnar batch operators against this implementation's scans.

Do not "fix" or optimize this module: its value is that it stays exactly what
shipped before.  It lives with the tests (``tests/oracles``), not in ``src/``:
the program holds one triple store.  It accesses only its own private state;
the lint guard banning ``TripleStore`` internals outside ``src/repro/model/``
whitelists this file.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator

from repro.model.triples import ExtendedTriple, Value


class LegacyTripleStore:
    """In-memory collection of extended triples with secondary indexes.

    The store deduplicates facts by :meth:`ExtendedTriple.key`; adding an
    already-present fact merges provenance instead of creating a duplicate row
    (non-destructive integration).
    """

    def __init__(self, triples: Iterable[ExtendedTriple] | None = None) -> None:
        self._by_key: dict[tuple, ExtendedTriple] = {}
        self._by_subject: dict[str, set[tuple]] = defaultdict(set)
        self._by_predicate: dict[str, set[tuple]] = defaultdict(set)
        self._by_object: dict[Value, set[tuple]] = defaultdict(set)
        if triples:
            for triple in triples:
                self.add(triple)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: ExtendedTriple) -> ExtendedTriple:
        """Insert *triple*, merging provenance when the fact already exists.

        Returns the stored triple (existing instance when merged).
        """
        key = triple.key()
        existing = self._by_key.get(key)
        if existing is not None:
            existing.provenance = existing.provenance.merge(triple.provenance)
            return existing
        stored = triple.copy()
        self._by_key[key] = stored
        self._by_subject[stored.subject].add(key)
        self._by_predicate[stored.predicate].add(key)
        self._index_object(stored, key)
        return stored

    def add_all(self, triples: Iterable[ExtendedTriple]) -> int:
        """Insert every triple; return how many new facts were created."""
        before = len(self._by_key)
        for triple in triples:
            self.add(triple)
        return len(self._by_key) - before

    def discard(self, triple: ExtendedTriple) -> bool:
        """Remove the fact identified by *triple*'s key. Returns ``True`` if present."""
        return self._discard_key(triple.key())

    def remove_subject(self, subject: str) -> int:
        """Remove every fact about *subject*; return the number removed."""
        keys = list(self._by_subject.get(subject, ()))
        for key in keys:
            self._discard_key(key)
        return len(keys)

    def remove_source(self, source_id: str) -> int:
        """Drop *source_id* from all provenance; purge facts left unsupported."""
        removed = 0
        for key in list(self._by_key):
            triple = self._by_key[key]
            if source_id in triple.provenance:
                triple.provenance.remove_source(source_id)
                if triple.provenance.is_empty():
                    self._discard_key(key)
                    removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def facts_about(self, subject: str) -> list[ExtendedTriple]:
        """Return all facts whose subject is *subject*."""
        return [self._by_key[key] for key in sorted(self._by_subject.get(subject, ()), key=repr)]

    def facts_with_predicate(self, predicate: str) -> list[ExtendedTriple]:
        """Return all facts using *predicate*."""
        return [self._by_key[key] for key in sorted(self._by_predicate.get(predicate, ()), key=repr)]

    def facts_with_object(self, obj: Value) -> list[ExtendedTriple]:
        """Return all facts whose object equals *obj* (literal or entity id)."""
        try:
            keys = self._by_object.get(obj, set())
        except TypeError:  # unhashable object value: fall back to a scan
            return [t for t in self if t.obj == obj]
        return [self._by_key[key] for key in sorted(keys, key=repr)]

    def value_of(self, subject: str, predicate: str) -> Value | None:
        """Return one object for ``(subject, predicate)`` or ``None``."""
        for triple in self.facts_about(subject):
            if triple.predicate == predicate and not triple.is_composite:
                return triple.obj
        return None

    def values_of(self, subject: str, predicate: str) -> list[Value]:
        """Return every object asserted for ``(subject, predicate)``."""
        return [
            t.obj
            for t in self.facts_about(subject)
            if t.predicate == predicate and not t.is_composite
        ]

    def relationship_facts(
        self, subject: str, predicate: str
    ) -> dict[str, list[ExtendedTriple]]:
        """Group composite facts of ``(subject, predicate)`` by relationship id."""
        grouped: dict[str, list[ExtendedTriple]] = defaultdict(list)
        for triple in self.facts_about(subject):
            if triple.predicate == predicate and triple.is_composite:
                grouped[triple.relationship_id].append(triple)
        return dict(grouped)

    def subjects(self) -> set[str]:
        """Return the set of all subject identifiers."""
        return {s for s, keys in self._by_subject.items() if keys}

    def predicates(self) -> set[str]:
        """Return the set of all predicates in use."""
        return {p for p, keys in self._by_predicate.items() if keys}

    def entity_count(self) -> int:
        """Number of distinct subjects (entities) in the store."""
        return len(self.subjects())

    def fact_count(self) -> int:
        """Number of distinct facts in the store."""
        return len(self._by_key)

    def filter(self, predicate_fn: Callable[[ExtendedTriple], bool]) -> "LegacyTripleStore":
        """Return a new store with the facts satisfying *predicate_fn*."""
        return LegacyTripleStore(t.copy() for t in self if predicate_fn(t))

    def snapshot(self) -> "LegacyTripleStore":
        """Return a deep copy of the store (used for versioned analytics)."""
        return LegacyTripleStore(t.copy() for t in self)

    def to_rows(self) -> list[dict]:
        """Serialize the whole store to relational rows."""
        return [t.to_row() for t in self]

    def canonical_rows(self) -> list[tuple]:
        """Canonical content of the store: every fact with its provenance.

        Sorted, hashable, and independent of insertion order — the same
        definition as :meth:`repro.model.triples.TripleStore.canonical_rows`,
        which is what makes the two implementations comparable byte-for-byte.
        """
        return sorted(
            (
                repr(triple.key()),
                tuple(
                    sorted(
                        (ref.source_id, ref.trust)
                        for ref in triple.provenance.references
                    )
                ),
            )
            for triple in self
        )

    @classmethod
    def from_rows(cls, rows: Iterable[dict]) -> "LegacyTripleStore":
        """Deserialize a store from rows produced by :meth:`to_rows`."""
        return cls(ExtendedTriple.from_row(row) for row in rows)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _index_object(self, triple: ExtendedTriple, key: tuple) -> None:
        try:
            self._by_object[triple.obj].add(key)
        except TypeError:
            # Unhashable literal objects are rare; they are still retrievable
            # via full scans, just not via the object index.
            pass

    def _discard_key(self, key: tuple) -> bool:
        triple = self._by_key.pop(key, None)
        if triple is None:
            return False
        self._by_subject[triple.subject].discard(key)
        self._by_predicate[triple.predicate].discard(key)
        try:
            self._by_object[triple.obj].discard(key)
        except TypeError:
            pass
        return True

    def __iter__(self) -> Iterator[ExtendedTriple]:
        return iter(list(self._by_key.values()))

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, ExtendedTriple):
            return False
        return triple.key() in self._by_key
