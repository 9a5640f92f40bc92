"""Columnar storage primitives backing the dictionary-interned TripleStore.

The extended-triples model (Section 2.1, Table 1 of the paper) is explicitly
relational, so the store lays facts out the way a relational engine would:

* :class:`TermDict` interns the string-ish columns (subjects, predicates,
  relationship ids, locales) to dense integer ids — every occurrence of a
  term costs one machine int, and id equality is term equality;
* :class:`ObjectDict` interns object values with Python ``dict`` equality
  semantics (``1 == 1.0 == True`` conflate), which is exactly how the legacy
  store's key-tuple dict compared them — fact identity is preserved
  bit-for-bit across the refactor;
* :class:`PredicatePartition` holds the rows of one predicate as parallel
  ``array('q')`` id columns plus a literal side-table with the row's actual
  object value (the value *as provided*, so ``repr`` output and serialized
  rows never change when dict-equal-but-distinct literals are interned).

Partitions also carry the store's per-row side state — provenance, the lazy
``repr(key)`` cache used by every sorted lookup, the lazily materialized
:class:`~repro.model.triples.ExtendedTriple` compatibility shims — and the
``(subject, predicate)`` composite index (``by_subject``), since a partition
already fixes the predicate.

A row's provenance is an immutable
:class:`~repro.model.provenance.Provenance` value, so rows (and the staged
batches of :meth:`~repro.model.triples.TripleStore.stage`) share values
instead of copying them; only the store's operators replace the value a row
holds (:meth:`PredicatePartition.replace_prov`).

Row references are packed ints: ``(partition id << ROW_BITS) | row index``.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.model.provenance import Provenance

#: Bits reserved for the row index inside a packed row reference.
ROW_BITS = 32
ROW_MASK = (1 << ROW_BITS) - 1


def pack_ref(pid: int, row: int) -> int:
    """Pack a (partition id, row index) pair into one int reference."""
    return (pid << ROW_BITS) | row


class TermDict:
    """Append-only interning dictionary from terms (str or None) to dense ids.

    Ids are never reused or remapped, so an id taken from a :class:`TermDict`
    stays valid forever: a staged batch can keep indexing its source store's
    dictionaries however that store changes afterwards.
    """

    __slots__ = ("ids", "terms")

    def __init__(self) -> None:
        self.ids: dict[object, int] = {}
        self.terms: list[object] = []

    def intern(self, term: object) -> int:
        """Return the id of *term*, assigning the next dense id when new."""
        term_id = self.ids.get(term)
        if term_id is None:
            term_id = len(self.terms)
            self.ids[term] = term_id
            self.terms.append(term)
        return term_id

    def id_of(self, term: object) -> int | None:
        """The id of *term*, or ``None`` when it was never interned."""
        return self.ids.get(term)

    def __len__(self) -> int:
        return len(self.terms)


class ObjectDict(TermDict):
    """Interning dictionary for object values.

    Identical to :class:`TermDict` mechanically; the separate type documents
    the one semantic it must provide: equality is Python ``dict`` equality,
    so dict-equal values of different types (``1``, ``1.0``, ``True``) share
    one id — the same conflation the legacy store's key-tuple dict performed.
    Interning an unhashable value raises ``TypeError`` exactly where the
    legacy ``dict`` operations did.
    """

    __slots__ = ()


class PredicatePartition:
    """The rows of one predicate: parallel id columns plus side tables.

    ``subj``/``rid``/``rpred``/``obj_ids``/``loc`` are parallel ``array('q')``
    columns over the store's term dictionaries; ``objs`` is the literal
    side-table holding each row's object value as provided.  A dead row keeps
    its column slots (``prov[row] is None`` marks it) and its index goes on
    the free list for reuse; global iteration order lives in the store's
    insertion-ordered key dict, so slot reuse never disturbs it.
    """

    __slots__ = (
        "pid",
        "predicate",
        "subj",
        "rid",
        "rpred",
        "obj_ids",
        "loc",
        "objs",
        "prov",
        "reprs",
        "shims",
        "by_subject",
        "free",
        "live",
    )

    def __init__(self, pid: int, predicate: str) -> None:
        self.pid = pid
        self.predicate = predicate
        self.subj = array("q")
        self.rid = array("q")
        self.rpred = array("q")
        self.obj_ids = array("q")
        self.loc = array("q")
        self.objs: list[object] = []
        self.prov: list[Provenance | None] = []
        self.reprs: list[str | None] = []
        self.shims: list[object | None] = []
        self.by_subject: dict[int, set[int]] = {}
        self.free: list[int] = []
        self.live = 0

    # ------------------------------------------------------------------ #
    # row lifecycle
    # ------------------------------------------------------------------ #
    def alloc(
        self,
        sid: int,
        rid: int,
        rpred: int,
        oid: int,
        lid: int,
        obj: object,
        prov: Provenance,
    ) -> int:
        """Store one row (reusing a free slot when available); returns its index."""
        if self.free:
            row = self.free.pop()
            self.subj[row] = sid
            self.rid[row] = rid
            self.rpred[row] = rpred
            self.obj_ids[row] = oid
            self.loc[row] = lid
            self.objs[row] = obj
            self.prov[row] = prov
            self.reprs[row] = None
            self.shims[row] = None
        else:
            row = len(self.prov)
            self.subj.append(sid)
            self.rid.append(rid)
            self.rpred.append(rpred)
            self.obj_ids.append(oid)
            self.loc.append(lid)
            self.objs.append(obj)
            self.prov.append(prov)
            self.reprs.append(None)
            self.shims.append(None)
        rows = self.by_subject.get(sid)
        if rows is None:
            self.by_subject[sid] = {row}
        else:
            rows.add(row)
        self.live += 1
        return row

    def replace_prov(self, row: int, prov: Provenance) -> None:
        """Give a live row a new provenance value; the row's materialized
        triple, if one was handed out, reads the new value too."""
        self.prov[row] = prov
        shim = self.shims[row]
        if shim is not None:
            shim.provenance = prov

    def release(self, row: int) -> None:
        """Mark a row dead and recycle its slot."""
        sid = self.subj[row]
        rows = self.by_subject.get(sid)
        if rows is not None:
            rows.discard(row)
            if not rows:
                del self.by_subject[sid]
        self.prov[row] = None
        self.shims[row] = None
        self.reprs[row] = None
        self.objs[row] = None
        self.free.append(row)
        self.live -= 1

    def live_rows(self) -> Iterable[int]:
        """Indexes of the live rows (order unspecified)."""
        return (row for row, p in enumerate(self.prov) if p is not None)
