"""Identifier management for the knowledge graph.

Saga keeps two identifier namespaces apart:

* **source namespace** — whatever identifiers an upstream provider uses
  (``musicdb:artist/42``).  These survive the ingestion pipeline untouched so
  that incremental construction can re-identify previously seen records.
* **KG namespace** — canonical entity identifiers minted by knowledge
  construction (``kg:e000001``).  ``same_as`` facts record the mapping from
  source identifiers to KG identifiers (Section 2.3 of the paper).

This module provides small helpers for creating, parsing, and validating both
kinds of identifiers deterministically.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.errors import DataModelError

KG_NAMESPACE = "kg"
RELATIONSHIP_NAMESPACE = "rel"


def qualify(namespace: str, local_id: str) -> str:
    """Return ``namespace:local_id``.

    >>> qualify("musicdb", "artist/42")
    'musicdb:artist/42'
    """
    if not namespace or not local_id:
        raise DataModelError("namespace and local id must be non-empty")
    return f"{namespace}:{local_id}"


def split_identifier(identifier: str) -> tuple[str, str]:
    """Split ``namespace:local_id`` into its two components."""
    namespace, sep, local_id = identifier.partition(":")
    if not sep or not namespace or not local_id:
        raise DataModelError(f"malformed identifier: {identifier!r}")
    return namespace, local_id


def is_kg_identifier(identifier: str) -> bool:
    """Return ``True`` when *identifier* lives in the canonical KG namespace."""
    return identifier.startswith(KG_NAMESPACE + ":")


def content_hash(*parts: str) -> str:
    """Return a short, stable hash of the given parts.

    Used to derive deterministic identifiers for relationship nodes and staged
    payloads so that re-running a pipeline on identical input produces
    identical artifacts.
    """
    digest = hashlib.sha1("\x1f".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass
class IdGenerator:
    """Mint sequential identifiers in a namespace.

    The generator is deterministic: a fresh generator started from the same
    ``start`` value produces the same sequence, which keeps construction runs
    reproducible in tests and benchmarks.
    """

    namespace: str = KG_NAMESPACE
    prefix: str = "e"
    width: int = 8
    start: int = 1
    _counter: itertools.count = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._counter = itertools.count(self.start)

    def next_id(self) -> str:
        """Return the next identifier, e.g. ``kg:e00000001``."""
        value = next(self._counter)
        return qualify(self.namespace, f"{self.prefix}{value:0{self.width}d}")


def relationship_id(subject: str, predicate: str, discriminator: str = "") -> str:
    """Return a deterministic identifier for a composite relationship node.

    Relationship nodes (the ``education`` node in Figure 2 of the paper) have
    no upstream identity of their own, so we derive one from the subject, the
    predicate, and a discriminator (usually a hash of the relationship's own
    facts).
    """
    return qualify(
        RELATIONSHIP_NAMESPACE, content_hash(subject, predicate, discriminator)
    )
