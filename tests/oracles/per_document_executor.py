"""The per-document KGQ executor, kept as the semantic reference.

Before the postings-intersection executor of :mod:`repro.live.executor`, a
plan ran as one loop over candidate documents: seed them, gate each on the
query's type, evaluate every condition against each one, project each
survivor.  That loop is the executor's oracle — the seeded equivalence suite
(``tests/test_live_executor_vectorized.py``) and
``benchmarks/bench_kgq_executor.py`` require identical rows, ordering and
``candidates_examined`` from both — and it lives here, with the tests, so the
program holds one executor.

:class:`PerDocumentExecutor` is a drop-in :class:`QueryExecutor` (a replica's
``node.executor`` can be swapped for it).  It replaces matching and projection
with the per-document forms — a type scan too projects off its documents, not
off the value columns; condition semantics (``_evaluate_condition``,
``_equal``, ``_walk_path``) are the executor's own, which the set-based path
also verifies every postings hit with.
"""

from __future__ import annotations

from itertools import repeat

from repro.errors import KGQPlanError
from repro.live.executor import QueryExecutor, QueryResultRow
from repro.live.index import LiveEntityDocument
from repro.live.kgq import Condition
from repro.live.planner import IndexLookup, PhysicalPlan, TypeScan


class PerDocumentExecutor(QueryExecutor):
    """One condition evaluation per candidate document, one walk per column."""

    def _match_rows(self, plan: PhysicalPlan, feed: str | None) -> tuple[list[QueryResultRow], int]:
        documents, examined = self.match_documents(plan, feed)
        return self._project_batch(documents, plan), examined

    def match_documents(
        self,
        plan: PhysicalPlan,
        feed: str | None = None,
        apply_limit: bool = True,
    ) -> tuple[list[LiveEntityDocument], int]:
        limit = plan.limit.limit if apply_limit and plan.limit is not None else None
        candidates = self._seed_candidates(plan)
        if feed is not None:
            candidates = [document for document in candidates if document.source_id == feed]
        query_type = plan.query.entity_type
        examined = 0
        survivors = []
        for document in candidates:
            if limit is not None and len(survivors) >= limit and not plan.filters:
                break
            examined += 1
            if document.entity_type and query_type and document.entity_type != query_type:
                continue
            if all(self._evaluate_condition(document, f.condition) for f in plan.filters):
                survivors.append(document)
        if limit is not None:
            survivors = survivors[:limit]
        return survivors, examined

    def _seed_candidates(self, plan: PhysicalPlan) -> list[LiveEntityDocument]:
        """Every document of the scanned type, or every document satisfying
        the lookup's condition — the index is not consulted for the latter,
        so a postings probe that misses a match shows as a difference."""
        seed = plan.seed
        if isinstance(seed, TypeScan):
            return self.index.kv.by_type(seed.entity_type)
        if isinstance(seed, IndexLookup):
            condition = Condition(seed.predicate_path, seed.operator, seed.value)
            documents = sorted(self.index.kv, key=lambda document: document.entity_id)
            return [
                document for document in documents
                if self._evaluate_condition(document, condition)
            ]
        raise KGQPlanError(f"unknown seed operator {seed!r}")

    def _project_batch(
        self, documents: list[LiveEntityDocument], plan: PhysicalPlan, witnesses=None
    ) -> list[QueryResultRow]:
        if witnesses is None:
            witnesses = repeat(None)
        return [
            QueryResultRow(document.entity_id, self._project(document, plan), witness)
            for document, witness in zip(documents, witnesses)
        ]

    def _project(self, document: LiveEntityDocument, plan: PhysicalPlan) -> dict[str, object]:
        projected: dict[str, object] = {}
        returns = plan.project.returns
        if not returns or any(len(path) == 0 for path in returns):
            projected["name"] = document.name
            for predicate, values in document.facts.items():
                projected[predicate] = values[0] if len(values) == 1 else list(values)
            for predicate, reference in document.references.items():
                projected.setdefault(predicate, self._display(reference))
            return projected
        for path in returns:
            values = [self._display(value) for value in self._walk_path(document, path)]
            column = ".".join(path)
            if not values:
                projected[column] = None
            elif len(values) == 1:
                projected[column] = values[0]
            else:
                projected[column] = values
        return projected

    def _display(self, value: object) -> object:
        if isinstance(value, str):
            document = self.index.get(value)
            if document is not None and document.name:
                return document.name
        return value
