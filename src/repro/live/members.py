"""Small member sets held in the form their size picks.

A replica's indexes hold tens of thousands of small sets: a posting of
:class:`~repro.live.index.InvertedGraphIndex` lists the entity ids posted
under one key, an adjacency row of :class:`~repro.live.rpq.AdjacencyIndex`
the node ordinals one node points to, and most hold one member.  A ``set``
costs at least 216 bytes whatever it holds, so a dict of them stores each
value in the form its size picks:

* one member is the member itself (an id string, an ordinal int);
* two to :data:`TUPLE_LIMIT` members are a sorted tuple;
* more are a ``set``.

The form is a function of the members alone, with no hysteresis and nothing
of the order they came in, so a dict built by adding and discarding equals,
key for key, one built from the final members.  A member is never a tuple or
a set.  Read a stored value only through :func:`members`: a bare id string
iterates as its characters.  Only the sets are mutable, so
:func:`copy_members` copies a dict of them by copying the dict and its sets.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable

#: The most members a sorted tuple holds; a larger member set is a ``set``.
TUPLE_LIMIT = 8


def members(held: object) -> tuple | set:
    """The members of one stored value: ``()`` for ``None``, a bare member
    as a 1-tuple, a tuple or set as it is (uncopied: callers must treat it
    as frozen)."""
    if held is None:
        return ()
    cls = held.__class__
    if cls is tuple or cls is set:
        return held    # type: ignore[return-value]
    return (held,)


def copy_members(store: dict) -> dict:
    """A copy of *store* that shares no mutable value with it: a ``set`` is
    copied, a bare member or a tuple is immutable and shared."""
    return {key: held.copy() if held.__class__ is set else held for key, held in store.items()}


def add_member(store: dict, key: Hashable, member: object) -> None:
    """Add *member* to the value *store* holds under *key*."""
    held = store.get(key)
    if held is None:
        store[key] = member
        return
    cls = held.__class__
    if cls is set:
        held.add(member)
    elif cls is tuple:
        at = bisect_left(held, member)
        if at < len(held) and held[at] == member:
            return
        if len(held) < TUPLE_LIMIT:
            store[key] = (*held[:at], member, *held[at:])
        else:
            store[key] = {*held, member}
    elif held != member:
        store[key] = (held, member) if held < member else (member, held)


def discard_member(store: dict, key: Hashable, member: object) -> None:
    """Drop *member* from the value *store* holds under *key*, and the key
    once no member is left."""
    held = store.get(key)
    if held is None:
        return
    cls = held.__class__
    if cls is set:
        held.discard(member)
        if len(held) <= TUPLE_LIMIT:
            store[key] = tuple(sorted(held))
    elif cls is tuple:
        at = bisect_left(held, member)
        if at == len(held) or held[at] != member:
            return
        if len(held) == 2:
            store[key] = held[1 - at]         # the other member
        else:
            store[key] = (*held[:at], *held[at + 1:])
    elif held == member:
        del store[key]
