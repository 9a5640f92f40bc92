"""Vector database with nearest-neighbour search (the "Vector DB" of Figure 6).

Stores dense vectors keyed by entity id with optional attributes (entity type,
locale) usable as filters — e.g. the "people embeddings" subset of Figure 7 is
just an attribute-filtered view of the full embedding collection.  Search is
exact cosine/dot-product kNN over a numpy matrix, which is the correct
laptop-scale substitute for the approximate-NN service used in production.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import StoreError


@dataclass
class VectorHit:
    """One nearest-neighbour result."""

    key: str
    score: float
    attributes: dict = field(default_factory=dict)


class VectorDB:
    """Exact kNN store over dense vectors with attribute filters."""

    def __init__(self, dimension: int, metric: str = "cosine") -> None:
        if dimension <= 0:
            raise StoreError("vector dimension must be positive")
        if metric not in ("cosine", "dot"):
            raise StoreError(f"unsupported metric {metric!r}")
        self.dimension = dimension
        self.metric = metric
        self._keys: list[str] = []
        self._index_of: dict[str, int] = {}
        self._matrix = np.zeros((0, dimension))
        self._attributes: dict[str, dict] = {}
        self.queries = 0

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #
    def upsert(self, key: str, vector: Sequence[float], attributes: dict | None = None) -> None:
        """Insert or replace the vector stored under *key*."""
        array = np.asarray(vector, dtype=float).reshape(-1)
        if array.shape[0] != self.dimension:
            raise StoreError(
                f"vector for {key!r} has dimension {array.shape[0]}, expected {self.dimension}"
            )
        if key in self._index_of:
            self._matrix[self._index_of[key]] = array
        else:
            self._index_of[key] = len(self._keys)
            self._keys.append(key)
            self._matrix = np.vstack([self._matrix, array[None, :]])
        self._attributes[key] = dict(attributes or {})

    def delete(self, key: str) -> bool:
        """Remove a vector; returns ``True`` when it existed."""
        index = self._index_of.pop(key, None)
        if index is None:
            return False
        self._keys.pop(index)
        self._matrix = np.delete(self._matrix, index, axis=0)
        self._attributes.pop(key, None)
        # Re-number the shifted tail.
        for position in range(index, len(self._keys)):
            self._index_of[self._keys[position]] = position
        return True

    def get(self, key: str) -> np.ndarray | None:
        """Return the stored vector for *key* (``None`` when absent)."""
        index = self._index_of.get(key)
        if index is None:
            return None
        return self._matrix[index].copy()

    # -------------------------------------------------------------- #
    # search
    # -------------------------------------------------------------- #
    def search(
        self,
        query: Sequence[float],
        k: int = 10,
        attribute_filter: dict | None = None,
        exclude: Iterable[str] = (),
    ) -> list[VectorHit]:
        """Return the *k* nearest stored vectors to *query*.

        ``attribute_filter`` keeps only vectors whose attributes contain every
        given key/value pair (the "people embeddings" filter of Figure 7).
        """
        self.queries += 1
        query_array = np.asarray(query, dtype=float).reshape(-1)
        if query_array.shape[0] != self.dimension:
            raise StoreError(
                f"query has dimension {query_array.shape[0]}, expected {self.dimension}"
            )
        if not self._keys:
            return []
        scores = self._matrix @ query_array
        if self.metric == "cosine":
            norms = np.linalg.norm(self._matrix, axis=1) * (np.linalg.norm(query_array) + 1e-12)
            scores = scores / np.maximum(norms, 1e-12)
        excluded = set(exclude)
        hits = []
        for index in np.argsort(-scores):
            key = self._keys[int(index)]
            if key in excluded:
                continue
            attributes = self._attributes.get(key, {})
            if attribute_filter and any(
                attributes.get(name) != value for name, value in attribute_filter.items()
            ):
                continue
            hits.append(VectorHit(key=key, score=float(scores[int(index)]), attributes=attributes))
            if len(hits) >= k:
                break
        return hits

    def filtered_view(self, attribute_filter: dict) -> "VectorDB":
        """Materialize a new VectorDB holding only matching vectors."""
        view = VectorDB(self.dimension, self.metric)
        for key in self._keys:
            attributes = self._attributes.get(key, {})
            if all(attributes.get(name) == value for name, value in attribute_filter.items()):
                view.upsert(key, self.get(key), attributes)
        return view

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._index_of
