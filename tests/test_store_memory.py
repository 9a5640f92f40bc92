"""The triple store's indexes cost ids, not one container per fact.

``world_to_store`` loads the tier-1 world (1,145 facts), and ``stage`` of
every subject runs each ordered read path once, so a sort key cached per row
would stay behind.  ``tracemalloc`` then bounds the bytes the store retains
per fact, and ``gc`` the objects it adds to the cyclic collector's tracking
per fact: a one-row posting is the bare row id and a longer one an
``array('q')`` of ids, a fact key is found through its ``(subject,
predicate)`` posting, and no per-source index, per-row ``repr`` or unread
``ExtendedTriple`` view is kept.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.datagen import world_to_store

#: Retained bytes per fact: 341 measured on CPython 3.11, plus 20 %.  Postings
#: of two or more ids held as ``array('q')``; held as a ``set`` they retained
#: 455.  A set per posting, a 6-tuple key per fact, a per-source ref index, a
#: cached ``repr`` per row and a view cached per ``add`` retained 1,092.
BYTES_PER_FACT_BOUND = 410

#: GC-tracked objects per fact: 0.893 measured on CPython 3.11, plus 20 %.
#: The same layout tracked 3.19.
TRACKED_PER_FACT_BOUND = 1.07


def test_store_retains_bounded_bytes_and_tracked_objects_per_fact(world):
    gc.collect()
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = world_to_store(world)
        store.stage(store.subjects())
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tracked = len(gc.get_objects()) - tracked_before
    facts = store.fact_count()
    assert retained / facts <= BYTES_PER_FACT_BOUND, f"{retained / facts:.0f} bytes per fact"
    assert tracked / facts <= TRACKED_PER_FACT_BOUND, f"{tracked / facts:.3f} tracked per fact"
