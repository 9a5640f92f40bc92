"""Legacy view computation baseline for the Figure 8 comparison.

Figure 8 compares the Graph Engine's analytics store against a legacy
implementation of the same schematized entity views as custom Spark jobs.  The
characteristic weaknesses of that legacy path — row-at-a-time processing over
the raw triples, no secondary indexes, dependent lookups executed as repeated
full scans — are what this baseline reproduces: it computes *exactly the same
view rows* as :meth:`repro.engine.analytics.AnalyticsStore.entity_view`, but
with nested-loop scans over the full triple list, so the relative speedup of
the optimized hash-join path can be measured on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.analytics import EntityViewSpec, Relation
from repro.model.entity import NAME_PREDICATES
from repro.model.triples import ExtendedTriple


@dataclass
class LegacyViewEngine:
    """Row-at-a-time, index-free computation of schematized entity views."""

    triples: list[ExtendedTriple] = field(default_factory=list)
    rows_scanned: int = 0

    @classmethod
    def from_triples(cls, triples: Iterable[ExtendedTriple]) -> "LegacyViewEngine":
        """Load the raw triples the legacy jobs would read from the warehouse dump."""
        return cls(triples=list(triples))

    # -------------------------------------------------------------- #
    # the legacy "job"
    # -------------------------------------------------------------- #
    def entity_view(self, spec: EntityViewSpec) -> Relation:
        """Compute the same view as the optimized engine with full scans."""
        subjects = self._scan_subjects_of_type(spec.entity_type)
        rows = []
        for subject in subjects:
            row: dict = {"subject": subject}
            for predicate in spec.predicates:
                row[predicate] = self._collapse(self._scan_values(subject, predicate))
            for column, reference_predicate in spec.reference_joins.items():
                references = self._scan_values(subject, reference_predicate)
                names = [self._scan_display_name(ref) for ref in references]
                row[column] = self._collapse(names)
            for column, (first, second) in spec.nested_joins.items():
                mids = self._scan_values(subject, first)
                far_names = []
                for mid in mids:
                    for far in self._scan_values(str(mid), second):
                        far_names.append(self._scan_display_name(str(far)))
                row[column] = self._collapse(far_names)
            rows.append(row)
        return Relation(spec.name, rows)

    def compute_views(self, specs: Sequence[EntityViewSpec]) -> dict[str, Relation]:
        """Run one legacy job per view spec."""
        return {spec.name: self.entity_view(spec) for spec in specs}

    # -------------------------------------------------------------- #
    # full-scan primitives (no indexes, by design)
    # -------------------------------------------------------------- #
    def _scan_subjects_of_type(self, entity_type: str) -> list[str]:
        subjects = []
        seen = set()
        for triple in self.triples:
            self.rows_scanned += 1
            if (
                triple.predicate == "type"
                and not triple.is_composite
                and triple.obj == entity_type
                and triple.subject not in seen
            ):
                seen.add(triple.subject)
                subjects.append(triple.subject)
        return sorted(subjects)

    def _scan_values(self, subject: str, predicate: str) -> list[object]:
        values = []
        for triple in self.triples:
            self.rows_scanned += 1
            effective = triple.relationship_predicate or triple.predicate
            if triple.subject == subject and effective == predicate:
                values.append(triple.obj)
        return values

    def _scan_display_name(self, subject: str) -> object:
        """The subject's first name in ``NAME_PREDICATES`` order, as the
        warehouse picks it, from one full scan."""
        names: dict[str, object] = {}
        for triple in self.triples:
            self.rows_scanned += 1
            if (
                triple.subject == subject
                and triple.predicate in NAME_PREDICATES
                and not triple.is_composite
            ):
                names.setdefault(triple.predicate, triple.obj)
        return next((names[p] for p in NAME_PREDICATES if p in names), subject)

    @staticmethod
    def _collapse(values: list[object]) -> object:
        cleaned = [value for value in values if value is not None]
        if not cleaned:
            return None
        if len(cleaned) == 1:
            return cleaned[0]
        return cleaned
