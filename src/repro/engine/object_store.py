"""High-throughput staging object store for ingest payloads (Section 3.1).

Construction stages data payloads in an object store and writes a reference
to them into the operation log; orchestration agents later fetch the payload
by key when replaying the operation.  The in-process implementation stores
opaque Python payloads keyed by string and tracks simple usage statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StoreError
from repro.model.identifiers import content_hash


@dataclass
class ObjectStore:
    """Key-value staging area for ingest payloads."""

    _objects: dict[str, object] = field(default_factory=dict)
    puts: int = 0
    gets: int = 0

    def put(self, payload: object, key: str | None = None) -> str:
        """Stage *payload*; return its key (content-derived when not given)."""
        if key is None:
            key = f"payload/{content_hash(repr(type(payload)), str(self.puts))}"
        self._objects[key] = payload
        self.puts += 1
        return key

    def get(self, key: str) -> object:
        """Fetch a staged payload by key."""
        self.gets += 1
        try:
            return self._objects[key]
        except KeyError:
            raise StoreError(f"no staged payload under key {key!r}") from None

    def delete(self, key: str) -> bool:
        """Delete a staged payload; returns ``True`` when it existed."""
        return self._objects.pop(key, None) is not None

    def __contains__(self, key: object) -> bool:
        return key in self._objects
