"""KG views: catalog, dependency graph, and delta-driven, LSN-tracked maintenance.

Section 3.2: a view is *any* transformation of the graph — subgraph views,
schematized relational views, aggregates, iterative algorithms (PageRank), or
alternative representations (embeddings).  View definitions are scripted
against the target engine's native APIs and provide two procedures:
``create`` and ``apply_delta`` (the paper's update given the changed entities,
handed over as a :class:`ViewDelta` with the ids classified).
Definitions live in a central view
catalog with their dependencies; the View Manager coordinates execution over
the dependency graph, which enables the 26% runtime saving from reusing shared
intermediate views reported in the paper (the VIEWDEP benchmark re-measures
this effect).

Maintenance model
-----------------

The manager maintains views *selectively* and *change-driven* rather than
rebuilding every materialized view on any update:

* **One input.**  :meth:`ViewManager.enqueue` takes one :class:`ViewDelta`
  stamped with the operation-log LSN it reflects — the Graph Engine
  registers it as the log replay's delta listener, so every publish's
  delta arrives, source removals included; an unstamped delta
  (``last_lsn == 0``) is refused with a :class:`~repro.errors.ViewError`.
  Deltas fold into one pending delta by the rule :meth:`ViewDelta.merge`
  defines, and flush only when asked (``flush``; the Graph Engine's
  ``update_views``).  A flush hands the batch on as one :class:`ViewDelta`
  carrying the LSN range it covers.

* **Affected closure.**  Each :class:`ViewDefinition` may declare an entity
  ``scope`` predicate.  A root view is affected when the delta's changed ids
  intersect its scope *or* its pre-delete scope snapshot (no scope means
  "affected by any change"); a dependent view is affected when any of its
  dependencies is affected.  Only the affected closure is maintained; every
  other materialized view merely advances its watermark and counts a skipped
  update — the proof of work avoided.

* **Pre-delete scope snapshots.**  A deleted entity can no longer be
  classified by a store-derived scope predicate, so the manager keeps a
  per-view set of the entities in its scope (seeded from ``entity_source``
  at build time, maintained from deltas afterwards).  Deletions resolve to
  the views whose snapshot actually contained the entity; a deletion
  matching no snapshot (and no unscoped view) is a no-op flush.  Scope
  *migration* (a changed entity leaving a view's scope) is caught through
  snapshot membership the same way.

* **Journal events.**  Every committed maintenance step is published to
  journal listeners as one :class:`JournalEvent`; the manager itself keeps
  no change history.  An ``append`` event carries the view's changed
  *output* rows: an ``apply_delta`` builder either reports them itself
  (:class:`DeltaApplyResult`) or returns a new subject → row mapping, which
  the manager compares with the previous artifact on the projected delta's
  subjects, leaving out every row that came back equal; artifacts that
  cannot be compared emit their scope-projected input delta.  A delta with
  nothing left in it becomes the watermark-only ``advance`` event of an
  unaffected view.  Views rebuilt through ``create``
  emit ``truncate`` (the extent of the change is unknown).  What changed
  since a given LSN is
  answered downstream, by the serving tier's
  :class:`~repro.serving.journal_store.JournalStore`, for the views
  something consumes.

* **Flush order.**  ``flush()`` maintains the affected closure one view at a
  time on the calling thread, generation by generation of the dependency
  order the catalog computes once per registration, so a dependent never
  starts before its dependencies committed.  Artifact, scope-snapshot
  update, and watermark publication are committed atomically per view under
  a per-view lock — shipper and auditor threads read through it — so a
  failing view neither corrupts a sibling branch's state nor loses the
  pending delta (the flush restores it and re-raises).

* **LSN watermarks.**  Every :class:`ViewState` records ``built_at_lsn`` — the
  operation-log position its artifact reflects, the one freshness measure —
  and :meth:`ViewManager.lagging_views` answers which views trail the log
  head.  A view already at or beyond a batch's LSN is not maintained again.

* **Lifecycle safety.**  A view name is registered once: the catalog
  refuses a second definition under a registered name, so no artifact is
  ever served under a definition other than the one that built it; and
  maintenance fails fast with a :class:`~repro.errors.ViewError` when a
  dependent would be rebuilt on top of a dependency that has never been
  materialized.

Incremental-procedure contract
------------------------------

``apply_delta(context, delta)`` must confine artifact row changes to the
delta's entities: rows outside ``delta.changed | delta.deleted`` must be
byte-identical to a from-scratch rebuild.  A view whose rows can change
beyond the delta (e.g. an iterative algorithm) must not declare
``apply_delta`` — the ``create`` fallback emits ``truncate`` so no consumer
trusts a delta that undersells the change.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.engine.analytics import JoinAccessPattern, _collapse
from repro.errors import ViewError


def row_checksum(row: object) -> str:
    """Content digest of one artifact row (canonical-JSON ``blake2b``).

    The same row always hashes to the same digest regardless of dict insertion
    order, so primary and replica can compare copies without shipping rows.
    Values outside the JSON types are stringified — a checksum must never fail
    on a serveable row.
    """
    canonical = json.dumps(row, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def combine_checksums(checksums: dict[str, str]) -> str:
    """One digest over a subject → row-checksum map (order-independent)."""
    digest = hashlib.blake2b(digest_size=8)
    for subject in sorted(checksums):
        digest.update(subject.encode("utf-8"))
        digest.update(checksums[subject].encode("utf-8"))
    return digest.hexdigest()


def rows_by_subject(
    artifact: object, view_name: str, error: type[Exception] = ViewError
) -> dict[str, dict]:
    """Normalize a row-shaped artifact into a subject → row mapping.

    The one definition of "row-shaped" every consumer shares — a sequence of
    dicts with a ``subject`` key, or a mapping whose values are such dicts.
    Anything else raises *error* (:class:`~repro.errors.ViewError` here;
    the serving layer passes its own class so its callers keep catching
    serving errors).
    """
    if isinstance(artifact, dict):
        rows = list(artifact.values())
    elif isinstance(artifact, (list, tuple)):
        rows = list(artifact)
    else:
        raise error(
            f"view artifact {view_name!r} is not row-shaped; cannot ship it"
        )
    by_subject: dict[str, dict] = {}
    for row in rows:
        if not isinstance(row, dict) or "subject" not in row:
            raise error(
                f"view artifact {view_name!r} rows need a 'subject' key to be shipped"
            )
        by_subject[str(row["subject"])] = row
    return by_subject


@dataclass(frozen=True)
class ViewDelta:
    """One entity-level delta with the LSN range it covers.

    ``added`` / ``updated`` / ``deleted`` partition the entity ids; ``changed``
    is the union of the first two.  The deltas of ``append`` journal events
    and the arguments of ``apply_delta`` procedures are instances of this
    class — for scoped views
    the sets are projected onto the view's scope, so ``deleted`` also contains
    entities that migrated *out* of the scope (their rows leave the view).
    """

    added: frozenset[str] = frozenset()
    updated: frozenset[str] = frozenset()
    deleted: frozenset[str] = frozenset()
    first_lsn: int = 0
    last_lsn: int = 0

    @property
    def changed(self) -> frozenset[str]:
        """Entities whose rows must be (re)computed: added plus updated."""
        return self.added | self.updated

    def is_empty(self) -> bool:
        """Whether the delta carries no entity at all."""
        return not (self.added or self.updated or self.deleted)

    def merge(self, later: "ViewDelta") -> "ViewDelta":
        """Net effect of this delta followed by *later* (entity-wise fold).

        The fold itself is :meth:`_DeltaBatch.fold`, run here on copies.
        """
        net = _DeltaBatch.of(self)
        net.fold(later)
        return net.delta()


@dataclass
class _DeltaBatch:
    """A :class:`ViewDelta` under construction: mutable sets, folded in place.

    :meth:`fold` is the one definition of the net-effect fold.
    :meth:`ViewDelta.merge` runs it on copies; the manager's pending batch
    runs it in place, so observing an event costs O(|event|), not
    O(|batch|).
    """

    added: set[str] = field(default_factory=set)
    updated: set[str] = field(default_factory=set)
    deleted: set[str] = field(default_factory=set)
    first_lsn: int = 0     # the lowest non-zero LSN folded in (0: none yet)
    last_lsn: int = 0

    @classmethod
    def of(cls, delta: ViewDelta) -> "_DeltaBatch":
        return cls(
            set(delta.added), set(delta.updated), set(delta.deleted),
            delta.first_lsn, delta.last_lsn,
        )

    def __len__(self) -> int:
        """Distinct entities in the batch (the three sets partition them)."""
        return len(self.added) + len(self.updated) + len(self.deleted)

    def fold(self, later: ViewDelta) -> None:
        """Fold *later* in: each entity takes its latest classification,
        except that an update leaves an added entity added and brings a
        deleted one back as added.  ``first_lsn`` stays the lowest non-zero
        bound, ``last_lsn`` the highest."""
        for entity_id in later.added:
            self.deleted.discard(entity_id)
            self.updated.discard(entity_id)
            self.added.add(entity_id)
        for entity_id in later.updated:
            if entity_id in self.deleted:
                # deleted then updated: net-new from the consumer's viewpoint
                self.deleted.discard(entity_id)
                self.added.add(entity_id)
            elif entity_id not in self.added:
                self.updated.add(entity_id)
        for entity_id in later.deleted:
            self.added.discard(entity_id)
            self.updated.discard(entity_id)
            self.deleted.add(entity_id)
        if later.first_lsn and (not self.first_lsn or later.first_lsn < self.first_lsn):
            self.first_lsn = later.first_lsn
        self.last_lsn = max(self.last_lsn, later.last_lsn)

    def delta(self) -> ViewDelta:
        """The batch as a frozen delta."""
        return ViewDelta(
            added=frozenset(self.added),
            updated=frozenset(self.updated),
            deleted=frozenset(self.deleted),
            first_lsn=self.first_lsn,
            last_lsn=self.last_lsn,
        )


def _is_subject_keyed(artifact: dict) -> bool:
    """Whether a dict artifact maps each subject to that subject's row.

    Judged by its first entry: an aggregate (``{"total": 3}``) or a mapping
    keyed by anything but the rows' own ``subject`` fails it, and keeps
    journaling its input delta.
    """
    if not artifact:
        return False
    key, row = next(iter(artifact.items()))
    return isinstance(row, dict) and row.get("subject") == key


def _changed_rows(previous: dict, artifact: dict, delta: ViewDelta) -> ViewDelta:
    """The output-row delta between two subject → row artifacts.

    Only the subjects *delta* names are compared — the incremental-procedure
    contract confines row changes to them — and each is classified by what
    happened to its row; a subject whose row is equal in both (or absent
    from both) is left out.
    """
    added: set[str] = set()
    updated: set[str] = set()
    deleted: set[str] = set()
    for subject in delta.changed | delta.deleted:
        old_row = previous.get(subject)
        new_row = artifact.get(subject)
        if new_row is None:
            if old_row is not None:
                deleted.add(subject)
        elif old_row is None:
            added.add(subject)
        elif new_row != old_row:
            updated.add(subject)
    return ViewDelta(
        added=frozenset(added),
        updated=frozenset(updated),
        deleted=frozenset(deleted),
        first_lsn=delta.first_lsn,
        last_lsn=delta.last_lsn,
    )


@dataclass(frozen=True)
class DeltaApplyResult:
    """An ``apply_delta`` outcome that refines the journaled delta.

    A plain ``apply_delta`` return value is the new artifact, and the manager
    looks for changed rows among the subjects of the scope-projected *input*
    delta — correct for entity-scoped views whose output rows are keyed by
    the very entities that changed.  A join-shaped view breaks that
    identity: a delta on the *right* input changes output rows keyed by
    *left* subjects, so the input delta names the wrong subjects.  Returning a
    ``DeltaApplyResult`` instead lets the builder name the **output-row**
    delta (which subjects were added / updated / deleted in the artifact);
    the manager journals and ships exactly that, while still advancing the
    view's pre-delete scope snapshot from the input delta.

    The output delta must satisfy the same incremental-procedure contract:
    artifact rows outside ``delta.changed | delta.deleted`` are byte-identical
    to a from-scratch rebuild.
    """

    artifact: object
    delta: ViewDelta


@dataclass(frozen=True)
class JournalEvent:
    """One committed maintenance step, published to journal listeners.

    ``kind`` is ``"append"`` (incremental maintenance changed output rows —
    ``delta`` carries the subjects whose rows changed), ``"advance"`` (only the
    watermark moved to ``lsn``: the flush proved the view unaffected, or
    maintained it and no output row changed — shipped copies advance their
    applied LSN without touching a row), or ``"truncate"`` (the
    view was rebuilt from scratch; history restarts at ``lsn`` and any
    shipped copy must resync from the artifact).
    """

    kind: str
    view_name: str
    lsn: int
    delta: ViewDelta | None = None


JournalListener = Callable[[JournalEvent], None]


@dataclass
class ViewContext:
    """Execution context handed to view procedures.

    ``engines`` exposes the Graph Engine's stores by name (``analytics``,
    ``entity_store``, ``text_index``, ``vector_db``, ``triples``, ...);
    ``artifacts`` holds the materialized results of dependency views (during
    maintenance it also holds the view's own previous artifact, which
    ``apply_delta`` procedures may patch in place).
    """

    engines: dict[str, object] = field(default_factory=dict)
    artifacts: dict[str, object] = field(default_factory=dict)

    def engine(self, name: str) -> object:
        """Return the engine registered under *name*."""
        try:
            return self.engines[name]
        except KeyError:
            raise ViewError(f"no engine named {name!r} available to views") from None

    def artifact(self, view_name: str) -> object:
        """Return the materialized artifact of a dependency view."""
        try:
            return self.artifacts[view_name]
        except KeyError:
            raise ViewError(
                f"view dependency {view_name!r} has not been materialized"
            ) from None


CreateProcedure = Callable[[ViewContext], object]
DeltaProcedure = Callable[[ViewContext, ViewDelta], object]
ScopePredicate = Callable[[str], bool]


@dataclass
class ViewDefinition:
    """A registered view: procedures plus dependency and scope metadata."""

    name: str
    engine: str
    create: CreateProcedure
    apply_delta: DeltaProcedure | None = None  # incremental builder (ViewDelta in)
    dependencies: tuple[str, ...] = ()
    scope: ScopePredicate | None = None    # entity-id predicate for selectivity
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ViewError("view name must be non-empty")
        if not callable(self.create):
            raise ViewError(f"view {self.name!r} needs a callable create procedure")
        if self.apply_delta is not None and not callable(self.apply_delta):
            raise ViewError(f"view {self.name!r} apply_delta must be callable")
        if self.scope is not None and not callable(self.scope):
            raise ViewError(f"view {self.name!r} scope must be callable")


#: Loads a join input's current rows: ``loader(context, None)`` enumerates the
#: whole input; ``loader(context, ids)`` returns rows for the named entities
#: only — and only for those that are *currently members* of the input, so an
#: id returning no rows reads as "left the input".  Rows are dicts carrying
#: ``subject`` plus the input's join-key column.
JoinRowLoader = Callable[[ViewContext, "Sequence[str] | None"], Sequence[dict]]


@dataclass
class JoinInput:
    """One side of a join view: a named relation with a join key.

    ``scope`` classifies which entity ids belong to this input (the same
    predicate contract as :attr:`ViewDefinition.scope`); when ``None`` the
    runtime falls back to probing the loader for every changed id, which is
    correct but less selective.
    """

    name: str
    key: str
    loader: JoinRowLoader
    scope: ScopePredicate | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ViewError("join input name must be non-empty")
        if not self.key:
            raise ViewError(f"join input {self.name!r} needs a join key")
        if not callable(self.loader):
            raise ViewError(f"join input {self.name!r} loader must be callable")
        if self.scope is not None and not callable(self.scope):
            raise ViewError(f"join input {self.name!r} scope must be callable")


class JoinViewDefinition(ViewDefinition):
    """A two-input join view maintained incrementally via delta rules.

    The delta-query/access-pattern factorization (PAPERS.md, *Conjunctive
    Queries with Free Access Patterns under Updates*) applied to the view
    layer: both inputs are materialized as hash access patterns
    (:class:`~repro.engine.analytics.JoinAccessPattern` — ``subject → rows``
    and ``join-key → subjects``), and each maintenance round evaluates the
    delta join instead of the full join::

        Δ(L ⋈ R)  is covered by recomputing   ΔL-subjects  ∪  L ⋉ keys(ΔR)

    — the left subjects the left delta names, plus the left subjects whose
    key joins a key value added *or* removed on the right.  Taking the set
    union counts the ΔL ⋈ ΔR overlap once (the "minus double-counted" term
    of the textbook rule), and each affected output row is recomputed from
    the post-delta access patterns, so maintenance costs
    O(|delta| · lookup) rather than O(|view|).

    Output rows are keyed by **left** subject: the left row's columns merged
    with the matched right rows' columns (right's non-key columns override
    left's on a name collision; multi-valued columns collapse like the
    warehouse's grouped relations).  ``how="left"`` keeps unmatched left
    subjects; ``how="inner"`` drops them.  Join-key values must be hashable.

    ``apply_delta`` returns a :class:`DeltaApplyResult` whose delta names the
    changed **output** subjects — that is what flows through the journal →
    shipping → replica path, so replicas converge even when the triggering
    entity was a right-side subject that owns no output row.  Deletions
    resolve against access-pattern membership (complete since ``create``
    seeds both inputs in full), complementing the manager's pre-delete scope
    snapshots which decide that the view is affected at all.

    The instance holds the access-pattern state: register one instance with
    one manager (the usual catalog arrangement); ``create`` reseeds the
    state from scratch, so forced rebuilds stay safe.
    """

    def __init__(
        self,
        name: str,
        left: JoinInput,
        right: JoinInput,
        how: str = "left",
        engine: str = "analytics",
        dependencies: tuple[str, ...] = (),
        description: str = "",
    ) -> None:
        if how not in ("inner", "left"):
            raise ViewError(f"join view {name!r}: unsupported join type {how!r}")
        if left.name == right.name:
            raise ViewError(f"join view {name!r}: input names must differ")
        self.left = left
        self.right = right
        self.how = how
        self._left_index = JoinAccessPattern(left.name, left.key)
        self._right_index = JoinAccessPattern(right.name, right.key)
        self.full_builds = 0        # create-path rebuilds (initial + forced)
        self.delta_rounds = 0       # apply_delta maintenance rounds
        self.rows_recomputed = 0    # output rows recomputed across all rounds
        self.noop_rows = 0          # affected rows whose recompute changed nothing
        scope: ScopePredicate | None = None
        if left.scope is not None and right.scope is not None:
            left_scope, right_scope = left.scope, right.scope

            def scope(entity_id: str) -> bool:
                return left_scope(entity_id) or right_scope(entity_id)

        super().__init__(
            name=name,
            engine=engine,
            create=self._create,
            apply_delta=self._apply_delta,
            dependencies=dependencies,
            scope=scope,
            description=description or (
                f"{how} join of {left.name!r} and {right.name!r} on "
                f"{left.key!r} = {right.key!r}, delta-maintained"
            ),
        )

    # ------------------------------------------------------------------ #
    # procedures (bound into the ViewDefinition slots)
    # ------------------------------------------------------------------ #
    def _create(self, context: ViewContext) -> dict[str, dict]:
        """Full rebuild: reseed both access patterns, join every left subject."""
        self._left_index.rebuild(self.left.loader(context, None))
        self._right_index.rebuild(self.right.loader(context, None))
        artifact: dict[str, dict] = {}
        for subject in self._left_index.subjects():
            row = self._join_row(subject)
            if row is not None:
                artifact[subject] = row
        self.full_builds += 1
        self.rows_recomputed += len(self._left_index)
        return artifact

    def _apply_delta(self, context: ViewContext, delta: ViewDelta) -> DeltaApplyResult:
        """One delta-join round: classify, reload, probe, recompute affected."""
        previous = context.artifact(self.name)
        if not isinstance(previous, dict):
            raise ViewError(
                f"join view {self.name!r} artifact must be a subject → row dict"
            )
        changed = sorted(delta.changed)
        deleted = sorted(delta.deleted)
        affected: set[str] = set()
        probe_keys: set[object] = set()
        for view_input, index in (
            (self.left, self._left_index),
            (self.right, self._right_index),
        ):
            touched = self._touched(view_input, index, changed, deleted)
            reload_ids = [e for e in touched if e not in delta.deleted]
            fresh: dict[str, list[dict]] = {}
            if reload_ids:
                for row in view_input.loader(context, reload_ids):
                    fresh.setdefault(str(row.get("subject", "")), []).append(row)
            for entity_id in sorted(touched):
                old_keys, new_keys = index.replace_subject_rows(
                    entity_id, fresh.get(entity_id, [])
                )
                if index is self._left_index:
                    affected.add(entity_id)
                else:
                    probe_keys |= old_keys | new_keys
        # Probe after both inputs applied their delta: the recompute below
        # must see post-delta state on both sides.
        affected |= self._left_index.subjects_for_keys(probe_keys)
        artifact = dict(previous)
        added: set[str] = set()
        updated: set[str] = set()
        removed: set[str] = set()
        for subject in sorted(affected):
            new_row = self._join_row(subject)
            old_row = previous.get(subject)
            if new_row is None:
                if old_row is not None:
                    del artifact[subject]
                    removed.add(subject)
                else:
                    self.noop_rows += 1
            elif old_row is None:
                artifact[subject] = new_row
                added.add(subject)
            elif new_row != old_row:
                artifact[subject] = new_row
                updated.add(subject)
            else:
                self.noop_rows += 1
        self.delta_rounds += 1
        self.rows_recomputed += len(affected)
        return DeltaApplyResult(
            artifact=artifact,
            delta=ViewDelta(
                added=frozenset(added),
                updated=frozenset(updated),
                deleted=frozenset(removed),
                first_lsn=delta.first_lsn,
                last_lsn=delta.last_lsn,
            ),
        )

    # ------------------------------------------------------------------ #
    # delta-rule internals
    # ------------------------------------------------------------------ #
    def _touched(
        self,
        view_input: JoinInput,
        index: JoinAccessPattern,
        changed: list[str],
        deleted: list[str],
    ) -> set[str]:
        """The delta's entities this input must reload or retract.

        A changed id is touched when the input's scope claims it (it may be
        a new member) or the access pattern already holds it (it may have
        migrated out — the loader answering no rows retracts it).  A deleted
        id is touched only when it is a current member: access-pattern
        membership is complete (seeded by ``create``), which is the per-input
        analogue of the manager's pre-delete scope snapshot.
        """
        touched: set[str] = set()
        for entity_id in changed:
            if (
                view_input.scope is None
                or view_input.scope(entity_id)
                or index.contains(entity_id)
            ):
                touched.add(entity_id)
        for entity_id in deleted:
            if index.contains(entity_id):
                touched.add(entity_id)
        return touched

    def _join_row(self, subject: str) -> dict | None:
        """The view's current output row for one left subject (None = no row).

        Deterministic regardless of maintenance history: left rows in load
        order, matched right rows grouped by partner subject in sorted order,
        multi-values collapsed — ``create`` and ``apply_delta`` produce
        byte-identical rows, which the seeded equivalence suite asserts.
        """
        left_rows = self._left_index.rows_of(subject)
        if not left_rows:
            return None
        left_values: dict[str, list] = {}
        matched: list[dict] = []
        for left_row in left_rows:
            for column, value in left_row.items():
                if column != "subject":
                    left_values.setdefault(column, []).append(value)
            key_value = left_row[self.left.key]
            for partner in sorted(self._right_index.subjects_for_keys([key_value])):
                for right_row in self._right_index.rows_of(partner):
                    if right_row[self.right.key] == key_value:
                        matched.append(right_row)
        if not matched and self.how == "inner":
            return None
        row: dict = {"subject": subject}
        for column, values in left_values.items():
            row[column] = _collapse(list(values))
        right_values: dict[str, list] = {}
        for right_row in matched:
            for column, value in right_row.items():
                if column not in ("subject", self.right.key):
                    right_values.setdefault(column, []).append(value)
        for column, values in right_values.items():
            row[column] = _collapse(list(values))
        return row

    def ivm_stats(self) -> dict[str, int]:
        """Counters proving the delta rules did the work, not rebuilds."""
        return {
            "full_builds": self.full_builds,
            "delta_rounds": self.delta_rounds,
            "rows_recomputed": self.rows_recomputed,
            "noop_rows": self.noop_rows,
            "left_size": len(self._left_index),
            "right_size": len(self._right_index),
            "index_lookups": self._left_index.lookups + self._right_index.lookups,
        }


@dataclass
class ViewState:
    """Runtime state of one registered view."""

    materialized: bool = False
    artifact: object = None
    built_at_lsn: int = 0          # operation-log position the artifact reflects
    builds: int = 0
    delta_applies: int = 0         # maintenance runs through apply_delta
    skipped_updates: int = 0       # flushes that proved no rebuild was needed


def _topological_order(definitions: dict[str, ViewDefinition]) -> tuple[str, ...]:
    """Every view after all its dependencies, generation by generation
    (Kahn's algorithm, breadth first).  The definitions hold no cycle: each
    was registered after its dependencies.

    The views with no dependency come first, in order of first mention (a
    view's own registration, or an earlier view naming it as a dependency).
    The walk then takes the placed views in turn and appends, in
    registration order, each dependent whose last unplaced dependency that
    was."""
    dependents: dict[str, list[str]] = {}     # keyed in order of first mention
    waiting: dict[str, int] = {}
    for name, definition in definitions.items():
        dependents.setdefault(name, [])
        dependencies = dict.fromkeys(definition.dependencies)
        waiting[name] = len(dependencies)
        for dependency in dependencies:
            dependents.setdefault(dependency, []).append(name)
    order = [name for name in dependents if not waiting[name]]
    for name in order:              # grows while walked: a breadth-first pass
        for dependent in dependents[name]:
            waiting[dependent] -= 1
            if not waiting[dependent]:
                order.append(dependent)
    return tuple(order)


class ViewCatalog:
    """Central registry of view definitions and their dependency order.

    The topological order is computed once per :meth:`register`, the only
    place definitions change, and every ordered walk reads it.
    """

    def __init__(self) -> None:
        self._definitions: dict[str, ViewDefinition] = {}
        self._order: tuple[str, ...] = ()

    def register(self, definition: ViewDefinition) -> ViewDefinition:
        """Register a view; dependencies must already be registered.

        A name is registered once: a second definition under a registered
        name is refused, as is a view that depends on itself (the only cycle
        a new name can close), and the catalog keeps its previous state.
        """
        if definition.name in self._definitions:
            raise ViewError(f"view {definition.name!r} is already registered")
        if definition.name in definition.dependencies:
            raise ViewError(
                f"registering view {definition.name!r} would create a dependency cycle"
            )
        for dependency in definition.dependencies:
            if dependency not in self._definitions:
                raise ViewError(
                    f"view {definition.name!r} depends on unknown view {dependency!r}"
                )
        self._definitions = {**self._definitions, definition.name: definition}
        self._order = _topological_order(self._definitions)
        return definition

    def get(self, name: str) -> ViewDefinition:
        """Return the definition registered under *name*."""
        try:
            return self._definitions[name]
        except KeyError:
            raise ViewError(f"unknown view {name!r}") from None

    def names(self) -> list[str]:
        """All registered view names."""
        return sorted(self._definitions)

    def execution_order(self, targets: Iterable[str] | None = None) -> list[str]:
        """Topological execution order covering *targets* and their dependencies."""
        if targets is None:
            return list(self._order)
        needed: set[str] = set()
        frontier = list(targets)
        while frontier:
            name = frontier.pop()
            if name in needed:
                continue
            needed.add(name)
            frontier.extend(self.get(name).dependencies)
        return [name for name in self._order if name in needed]

    def generation_order(self, names: Iterable[str]) -> list[str]:
        """*names* generation by generation of their own dependency subgraph
        (a view's generation is one past the highest of its dependencies
        among *names*), each generation sorted by name."""
        wanted = set(names)
        level: dict[str, int] = {}
        for name in self._order:
            if name in wanted:
                level[name] = max(
                    (level[d] + 1 for d in self._definitions[name].dependencies if d in level),
                    default=0,
                )
        return sorted(level, key=lambda name: (level[name], name))

    def dependents_of(self, name: str) -> list[str]:
        """Views that (transitively) depend on *name*."""
        reached = {name}
        for view in self._order:
            if any(d in reached for d in self._definitions[view].dependencies):
                reached.add(view)
        reached.discard(name)
        return sorted(reached)

    def __contains__(self, name: object) -> bool:
        return name in self._definitions

    def __len__(self) -> int:
        return len(self._definitions)


class ViewManager:
    """Materialize and selectively maintain views over the engine's stores.

    ``lsn_source`` (the log position every store has replayed) stamps every
    build with the log position it reflects (read back through
    :meth:`lagging_views` and each state's ``built_at_lsn``);
    ``entity_source`` enumerates current entity ids, which seed the scoped
    views' pre-delete scope snapshots.  Changes arrive through
    :meth:`enqueue` only.  Maintenance runs on the caller's thread, one view
    at a time.
    """

    def __init__(
        self,
        catalog: ViewCatalog,
        engines: dict[str, object],
        lsn_source: Callable[[], int],
        entity_source: Callable[[], Iterable[str]],
    ) -> None:
        self.catalog = catalog
        self.engines = engines
        self.lsn_source = lsn_source
        self.entity_source = entity_source
        self.states: dict[str, ViewState] = {}
        self.flushes = 0
        self.deltas_observed = 0
        self.maintenance_decisions = 0   # skip-or-rebuild verdicts reached
        self.maintenance_skips = 0
        self.maintenance_rebuilds = 0
        self.full_rebuilds = 0           # maintenance runs through the create fallback
        self.incremental_applies = 0     # maintenance runs through apply_delta
        self.delta_rows_journaled = 0    # entities across appended maintenance deltas
        self.noop_maintenance = 0        # incremental runs that changed no output row
        self._pending = _DeltaBatch()
        self._scope_snapshots: dict[str, set[str]] = {}
        self._state_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self.journal_listeners: list[JournalListener] = []
        # Bounded: a persistently failing listener must not grow memory.
        self.journal_listener_errors: deque[str] = deque(maxlen=256)

    def add_journal_listener(self, listener: JournalListener) -> None:
        """Call *listener* with every committed :class:`JournalEvent`.

        Events fire after the per-view commit (artifact, scope snapshot,
        watermark) released its lock, in the order the views committed.
        Listener failures are recorded in ``journal_listener_errors`` (a
        bounded deque of the most recent 256) and never unwind maintenance —
        a broken shipper must not fail a flush.
        """
        self.journal_listeners.append(listener)

    def remove_journal_listener(self, listener: JournalListener) -> None:
        """Detach a journal listener (no-op when it was never attached)."""
        try:
            self.journal_listeners.remove(listener)
        except ValueError:
            pass

    def _emit_journal_event(self, event: JournalEvent) -> None:
        for listener in self.journal_listeners:
            try:
                listener(event)
            except Exception as exc:  # noqa: BLE001 - maintenance already committed
                self.journal_listener_errors.append(
                    f"{event.kind} {event.view_name} lsn={event.lsn}: {exc}"
                )

    # -------------------------------------------------------------- #
    # materialization
    # -------------------------------------------------------------- #
    def materialize(self, targets: Sequence[str] | None = None) -> dict[str, float]:
        """Materialize the target views (or all) and return per-view seconds.

        Every view in the targets' dependency closure is built exactly once
        and its artifact reused by all dependents — the
        multi-query-optimization practice behind the paper's 26% saving.
        """
        context = ViewContext(engines=self.engines)
        return {
            name: self._build_view(name, context)
            for name in self.catalog.execution_order(targets)
        }

    def _build_view(self, name: str, context: ViewContext) -> float:
        definition = self.catalog.get(name)
        started = time.perf_counter()
        artifact = definition.create(context)
        elapsed = time.perf_counter() - started
        context.artifacts[name] = artifact
        state = self.states.setdefault(name, ViewState())
        with self._state_lock(name):
            state.materialized = True
            state.artifact = artifact
            state.built_at_lsn = max(state.built_at_lsn, self.current_lsn())
            state.builds += 1
            self._seed_snapshot(name, definition)
        # A from-scratch build changes the artifact by an unknown extent
        # relative to any previously served version: history restarts here.
        self._emit_journal_event(JournalEvent(
            kind="truncate", view_name=name, lsn=state.built_at_lsn,
        ))
        return elapsed

    # -------------------------------------------------------------- #
    # incremental maintenance
    # -------------------------------------------------------------- #
    def enqueue(self, delta: ViewDelta) -> None:
        """Accumulate one LSN-stamped delta for the next flush.

        ``delta.deleted`` must name entities removed from the stores; the
        next flush resolves them against the pre-delete scope snapshots so
        only the views that actually contained them are maintained.  The
        delta folds into the pending batch as :meth:`ViewDelta.merge` would
        fold it.  A delta without an LSN (``last_lsn == 0``) is refused: a
        view's freshness is the log position it reflects.  Deltas observed
        before any view is materialized are dropped: the initial ``create``
        reads current store state, so those changes are already covered.
        """
        if not delta.last_lsn:
            raise ViewError("a view delta must carry the LSN it reflects")
        if not self._has_materialized():
            return
        self._pending.fold(delta)
        self.deltas_observed += 1

    def flush(self) -> dict[str, float]:
        """Maintain the affected closure of the pending delta.

        Only views affected by the batched delta (directly through their
        scope or snapshot, or transitively through an affected dependency)
        are maintained; every other materialized view merely advances its LSN
        watermark and counts a skipped update.  A view already at or beyond
        the batch's target LSN is not maintained again.
        """
        if not self._pending:
            return {}
        delta = self._pending.delta()
        self._pending = _DeltaBatch()
        try:
            return self._flush_batch(delta)
        except Exception:
            # A failed flush must not lose the delta: fold whatever reentrant
            # observers enqueued meanwhile on top of it, so a retry covers
            # every pending change and the newer classification of an id wins.
            self._pending = _DeltaBatch.of(delta.merge(self._pending.delta()))
            raise

    def _flush_batch(self, delta: ViewDelta) -> dict[str, float]:
        target_lsn = delta.last_lsn
        closure = self._affected_closure(delta)
        to_maintain: list[str] = []
        for name in self.catalog.execution_order():
            state = self.states.get(name)
            if state is None or not state.materialized:
                continue
            if name not in closure:
                self.maintenance_decisions += 1
                self.maintenance_skips += 1
                state.skipped_updates += 1
                if target_lsn > state.built_at_lsn:
                    with self._state_lock(name):
                        state.built_at_lsn = target_lsn
                    # Watermark-only progress still ships: replicas must
                    # advance their applied LSN or consistency-gated reads
                    # would reject them for changes that never touched the
                    # view ("empty delta is a positive answer").
                    self._emit_journal_event(JournalEvent(
                        kind="advance", view_name=name, lsn=target_lsn,
                    ))
                continue
            if state.built_at_lsn >= target_lsn:
                self.maintenance_decisions += 1
                self.maintenance_skips += 1
                state.skipped_updates += 1
                continue
            definition = self.catalog.get(name)
            self._require_dependencies(name, definition)
            to_maintain.append(name)
        timings = self._run_schedule(to_maintain, delta)
        self.flushes += 1
        return timings

    def _run_schedule(self, names: list[str], delta: ViewDelta) -> dict[str, float]:
        """Maintain *names* one at a time, generation by generation.

        Walking the catalog's dependency generations of *names* in order
        guarantees a dependent never starts before every dependency has
        committed its artifact.  A failing view blocks its own transitive
        dependents but sibling branches run to completion before the first
        failure is re-raised (in topological order).
        """
        timings: dict[str, float] = {}
        if not names:
            return timings
        context = ViewContext(engines=self.engines, artifacts=self._artifacts())
        failures: dict[str, Exception] = {}
        blocked: set[str] = set()
        for name in self.catalog.generation_order(names):
            dependencies = self.catalog.get(name).dependencies
            if any(dep in failures or dep in blocked for dep in dependencies):
                blocked.add(name)
                continue
            try:
                timings[name] = self._maintain_one(name, context, delta)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                failures[name] = exc
        for name in names:
            if name in failures:
                raise failures[name]
        return timings

    def _maintain_one(self, name: str, context: ViewContext, delta: ViewDelta) -> float:
        """Maintain one view, commit artifact + watermark atomically, emit its event."""
        definition = self.catalog.get(name)
        state = self.states[name]
        projected = self._project_delta(definition, delta)
        incremental = definition.apply_delta is not None
        if incremental and projected.is_empty() and not delta.is_empty():
            # Only transitively affected, with nothing in its own scope: the
            # dependency change's extent relative to this view's rows is
            # unknown.  An empty-delta apply_delta call would keep a stale
            # artifact, or change rows while the empty projection journals
            # nothing — either way downstream consumers would read a false
            # "nothing changed".  Rebuild (and truncate) instead.
            incremental = False
        started = time.perf_counter()
        journaled = projected
        if incremental:
            artifact = definition.apply_delta(context, projected)
            if isinstance(artifact, DeltaApplyResult):
                # The builder refined the journaled delta to the output rows
                # it actually changed (a join view's output subjects are not
                # its input subjects).  The scope snapshot still advances
                # from the input-level projection below.
                journaled = artifact.delta
                artifact = artifact.artifact
            elif (
                isinstance(artifact, dict)
                and isinstance(state.artifact, dict)
                and artifact is not state.artifact
                and _is_subject_keyed(artifact or state.artifact)
            ):
                # Same rule for a plain subject → row mapping: what consumers
                # must re-read is the set of rows that differ from the
                # previous artifact, not every entity the input delta named.
                # (A builder that patched the previous dict in place left
                # nothing to compare against; its input delta stands.)
                journaled = _changed_rows(state.artifact, artifact, projected)
        else:
            artifact = definition.create(context)
        elapsed = time.perf_counter() - started
        with self._state_lock(name):
            if incremental:
                state.delta_applies += 1
            else:
                state.builds += 1
            if artifact is not None:
                state.artifact = artifact
                context.artifacts[name] = artifact
            self._update_snapshot(name, definition, projected)
            state.built_at_lsn = max(state.built_at_lsn, delta.last_lsn)
        if not incremental:
            # The rebuild's change extent is unknown to consumers — even a
            # delta-driven create may touch rows the delta does not name.
            self._emit_journal_event(JournalEvent(
                kind="truncate", view_name=name, lsn=state.built_at_lsn,
            ))
        elif journaled.is_empty():
            # Maintenance ran and no row moved: to every consumer this is the
            # watermark-only progress of an unaffected view.
            self._emit_journal_event(JournalEvent(
                kind="advance", view_name=name, lsn=state.built_at_lsn,
            ))
        else:
            self._emit_journal_event(JournalEvent(
                kind="append", view_name=name, lsn=state.built_at_lsn,
                delta=journaled,
            ))
        self.maintenance_decisions += 1
        self.maintenance_rebuilds += 1
        if incremental:
            self.incremental_applies += 1
            self.delta_rows_journaled += (
                len(journaled.added) + len(journaled.updated) + len(journaled.deleted)
            )
            if journaled.is_empty():
                self.noop_maintenance += 1
        else:
            self.full_rebuilds += 1
        return elapsed

    def _affected_closure(self, delta: ViewDelta) -> set[str]:
        """Views the delta affects, resolved against pre-delete snapshots.

        A scoped root is affected when the delta's changed ids intersect its
        scope or its snapshot (an entity migrating out of scope must leave
        the view), or when a deleted id was a snapshot member.  Unscoped
        views are affected by any change, including any deletion.
        """
        affected: set[str] = set()
        changed = delta.changed
        has_changes = bool(changed or delta.deleted)
        for name in self.catalog.execution_order():
            definition = self.catalog.get(name)
            if any(dep in affected for dep in definition.dependencies):
                affected.add(name)
                continue
            if definition.scope is None:
                if has_changes:
                    affected.add(name)
                continue
            members = self._scope_snapshots.get(name, ())
            if (
                any(definition.scope(e) or e in members for e in changed)
                or any(e in members for e in delta.deleted)
            ):
                affected.add(name)      # in scope, left the scope, or deleted
        return affected

    def _project_delta(self, definition: ViewDefinition, delta: ViewDelta) -> ViewDelta:
        """Restrict a delta to one view's scope using its pre-delete snapshot."""
        if definition.scope is None:
            return delta
        members = self._scope_snapshots.get(definition.name, ())
        added: set[str] = set()
        updated: set[str] = set()
        deleted: set[str] = set()
        for entity_id in delta.changed:
            if definition.scope(entity_id):
                (updated if entity_id in members else added).add(entity_id)
            elif entity_id in members:
                deleted.add(entity_id)          # migrated out of scope
        deleted.update(e for e in delta.deleted if e in members)
        return ViewDelta(
            added=frozenset(added),
            updated=frozenset(updated),
            deleted=frozenset(deleted),
            first_lsn=delta.first_lsn,
            last_lsn=delta.last_lsn,
        )

    def _seed_snapshot(self, name: str, definition: ViewDefinition) -> None:
        """(Re)seed a view's scope snapshot from the entity enumeration."""
        if definition.scope is None:
            self._scope_snapshots.pop(name, None)
            return
        self._scope_snapshots[name] = {
            e for e in self.entity_source() if definition.scope(e)
        }

    def _update_snapshot(
        self, name: str, definition: ViewDefinition, projected: ViewDelta
    ) -> None:
        """Advance scope membership by one applied (already projected) delta."""
        if definition.scope is None:
            return
        members = self._scope_snapshots.setdefault(name, set())
        members |= projected.changed
        members -= projected.deleted

    def _require_dependencies(self, name: str, definition: ViewDefinition) -> None:
        missing = [
            dependency
            for dependency in definition.dependencies
            if not self.is_materialized(dependency)
        ]
        if missing:
            raise ViewError(
                f"cannot maintain view {name!r}: dependencies {missing} have never "
                "been materialized — materialize them before updating dependents"
            )

    # -------------------------------------------------------------- #
    # access
    # -------------------------------------------------------------- #
    def artifact(self, name: str) -> object:
        """Return the materialized artifact of *name*."""
        state = self.states.get(name)
        if state is None or not state.materialized:
            raise ViewError(f"view {name!r} has not been materialized")
        return state.artifact

    def is_materialized(self, name: str) -> bool:
        """Whether *name* currently has a materialized artifact."""
        state = self.states.get(name)
        return bool(state and state.materialized)

    def built_at_lsn(self, name: str) -> int:
        """The operation-log position the view's artifact reflects."""
        state = self.states.get(name)
        return state.built_at_lsn if state is not None else 0

    def view_rows_snapshot(self, name: str) -> tuple[int, dict[str, dict]]:
        """Atomic ``(built_at_lsn, subject → row copy)`` snapshot.

        Taken under the view's state lock — the same lock maintenance
        commits hold — so a concurrent flush can neither mutate the rows
        mid-iteration nor leave the LSN and the rows from different
        commits.  Rows are shallow-copied: auditors hash them after the
        lock is released, and ``apply_delta`` builders may patch artifact
        dicts in place.  Raises :class:`~repro.errors.ViewError` when the
        artifact is not row-shaped or not materialized.
        """
        with self._state_lock(name):
            rows = {
                subject: dict(row)
                for subject, row in rows_by_subject(self.artifact(name), name).items()
            }
            return self.states[name].built_at_lsn, rows

    def view_digest(
        self, name: str, snapshot: tuple[int, dict[str, dict]] | None = None
    ) -> str:
        """One content digest over the view's rows.

        Combines the row checksums of one atomic snapshot (*snapshot* when a
        caller — the anti-entropy auditor — already took one;
        :meth:`view_rows_snapshot` otherwise) into a single digest.  This is
        the one definition of the audited digest: the anti-entropy auditor
        records it, with the snapshot's LSN, on its
        :class:`~repro.serving.anti_entropy.AuditReport`.
        """
        if snapshot is None:
            snapshot = self.view_rows_snapshot(name)
        _, rows = snapshot
        return combine_checksums(
            {subject: row_checksum(row) for subject, row in rows.items()}
        )

    def current_lsn(self) -> int:
        """The log position maintenance is stamped against right now."""
        return int(self.lsn_source())

    def pending_changes(self) -> list[str]:
        """Changed entity ids accumulated and not yet flushed."""
        pending = self._pending
        return sorted(pending.added | pending.updated | pending.deleted)

    def lagging_views(self, head_lsn: int | None = None) -> dict[str, int]:
        """Materialized views behind *head_lsn*, and how many log positions."""
        head = head_lsn if head_lsn is not None else self.current_lsn()
        return {
            name: head - state.built_at_lsn
            for name, state in sorted(self.states.items())
            if state.materialized and state.built_at_lsn < head
        }

    def stats(self) -> dict[str, float]:
        """Manager-wide maintenance counters (the incremental-vs-rebuild proof).

        ``full_rebuilds`` counts maintenance runs that fell back to the
        ``create`` procedure, ``incremental_applies`` the runs served by
        ``apply_delta``; a delta-only workload over views with
        working incremental procedures keeps ``full_rebuilds`` at zero.
        ``delta_rows_journaled`` totals the entities across the deltas of
        ``append`` events (the shipped change volume) and
        ``noop_maintenance`` counts incremental runs whose output-row delta
        came out empty — affected views whose rows did not actually change.
        """
        return {
            "flushes": self.flushes,
            "deltas_observed": self.deltas_observed,
            "maintenance_decisions": self.maintenance_decisions,
            "maintenance_skips": self.maintenance_skips,
            "maintenance_rebuilds": self.maintenance_rebuilds,
            "full_rebuilds": self.full_rebuilds,
            "incremental_applies": self.incremental_applies,
            "delta_rows_journaled": self.delta_rows_journaled,
            "noop_maintenance": self.noop_maintenance,
        }

    def maintenance_stats(self) -> dict[str, dict[str, object]]:
        """Per-view lifecycle counters proving the work selectivity avoided."""
        return {
            name: {
                "materialized": state.materialized,
                "builds": state.builds,
                "delta_applies": state.delta_applies,
                "skipped_updates": state.skipped_updates,
                "built_at_lsn": state.built_at_lsn,
            }
            for name, state in sorted(self.states.items())
        }

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #
    def close(self) -> None:
        """Release the manager's resources: there are none to release.

        Maintenance runs on the caller's thread and holds no pool, so this is
        a no-op, kept for owners that close the manager on teardown.
        """

    def _state_lock(self, name: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._state_locks.get(name)
            if lock is None:
                lock = self._state_locks[name] = threading.Lock()
        return lock

    def _has_materialized(self) -> bool:
        return any(state.materialized for state in self.states.values())

    def _artifacts(self) -> dict[str, object]:
        return {
            name: state.artifact
            for name, state in self.states.items()
            if state.materialized
        }
