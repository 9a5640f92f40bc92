"""KGQ query compilation: logical query → physical execution plan (§4.2).

The planner applies the two execution optimizations the paper calls out:

* **operator push-down** — equality conditions on names or single-hop literal
  predicates are pushed into the inverted graph index, so execution starts
  from a small candidate set instead of a type scan;
* **bounded traversal** — multi-hop paths compile into explicit traversal
  operators over the KV store, so plan cost is proportional to the candidate
  set times the path length (KGQ's restricted expressiveness guarantees this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KGQPlanError
from repro.live.kgq import CallQuery, Condition, Query, RpqExpr, VirtualOperatorRegistry
from repro.live.rpq import Automaton, compile_automaton, single_label_closure


@dataclass(frozen=True)
class IndexLookup:
    """Seed the candidate set from the inverted index (pushed-down condition)."""

    predicate_path: tuple[str, ...]
    operator: str
    value: object

    def describe(self) -> str:
        """Human-readable operator description (used in EXPLAIN output)."""
        return f"IndexLookup({'.'.join(self.predicate_path)} {self.operator} {self.value!r})"


@dataclass(frozen=True)
class TypeScan:
    """Seed the candidate set with every live document of the query's type."""

    entity_type: str

    def describe(self) -> str:
        """Human-readable operator description."""
        return f"TypeScan({self.entity_type})"


@dataclass(frozen=True)
class FilterOp:
    """Evaluate one traversal condition against each candidate document."""

    condition: Condition

    def describe(self) -> str:
        """Human-readable operator description."""
        return f"Filter({self.condition.render()})"


@dataclass(frozen=True)
class ProjectOp:
    """Project the requested return paths from each surviving document."""

    returns: tuple[tuple[str, ...], ...]

    def describe(self) -> str:
        """Human-readable operator description."""
        rendered = ", ".join("*" if not path else ".".join(path) for path in self.returns) or "*"
        return f"Project({rendered})"


@dataclass(frozen=True)
class LimitOp:
    """Stop after the first *n* results."""

    limit: int

    def describe(self) -> str:
        """Human-readable operator description."""
        return f"Limit({self.limit})"


@dataclass(frozen=True)
class ReachOp:
    """Expand the surviving candidates along a compiled RPQ automaton.

    The REACH expression is compiled at plan time into its minimal DFA, an
    :class:`~repro.live.rpq.Automaton` that every plan of the expression
    shares (:func:`~repro.live.rpq.compile_automaton` memoises it);
    evaluation is then a product construction over the adjacency rows
    (see :class:`~repro.live.rpq.RpqEvaluator`).  ``closure`` marks single-label closures (``part_of*``)
    eligible for the interval-encoding fast path.  ``target_type`` restricts
    the answers to one entity type (the ``TO`` clause) — empty means any.
    """

    expression: RpqExpr
    target_type: str
    automaton: Automaton
    closure: tuple[str, bool, bool] | None = None

    def describe(self) -> str:
        """Human-readable operator description."""
        target = f" TO {self.target_type}" if self.target_type else ""
        fast = ", interval-eligible" if self.closure is not None else ""
        return (
            f"Reach({self.expression.render()}{target}, "
            f"states={self.automaton.num_states}{fast})"
        )


@dataclass
class PhysicalPlan:
    """Ordered operator list produced by the planner."""

    query: Query
    seed: IndexLookup | TypeScan = None  # type: ignore[assignment]
    filters: list[FilterOp] = field(default_factory=list)
    project: ProjectOp = ProjectOp(())
    limit: LimitOp | None = None
    reach: ReachOp | None = None

    def explain(self) -> list[str]:
        """EXPLAIN-style rendering of the plan."""
        steps = [self.seed.describe()]
        steps.extend(op.describe() for op in self.filters)
        if self.reach is not None:
            steps.append(self.reach.describe())
        steps.append(self.project.describe())
        if self.limit is not None:
            steps.append(self.limit.describe())
        return steps


def plan_scope(plan: PhysicalPlan) -> frozenset[str]:
    """The entity types a plan's candidate set can draw from.

    KGQ's restricted expressiveness makes the scope decidable at plan time:
    every candidate comes from the MATCH type's partition (a TypeScan seeds
    from it directly; an IndexLookup seed is still gated by the type filter
    during execution), so the scope is exactly the query's entity type.
    Multi-tenant serving uses this to enforce a tenant's KG slice *before*
    any replica sees the plan — see
    :class:`repro.serving.frontdoor.TenantRegistry`.

    A REACH clause widens the scope: answers carry the ``TO`` type when one
    was given, and the sentinel ``"*"`` otherwise — an unbounded REACH can
    surface any entity type, so a type-sliced tenant must name a ``TO`` type
    inside their slice.
    """
    entity_type = plan.query.entity_type
    scope = {entity_type} if entity_type else set()
    if plan.reach is not None:
        scope.add(plan.reach.target_type or "*")
    return frozenset(scope)


def ensure_plan_within_types(
    plan: PhysicalPlan, allowed_types: frozenset[str] | None
) -> None:
    """Raise :class:`~repro.errors.KGQPlanError` when *plan* leaves *allowed_types*.

    ``None`` means the caller's slice is the whole KG (no restriction); an
    empty set forbids every typed query.  Used by tenant-scoped planning so
    the refusal happens at plan time, with the offending type named.
    """
    if allowed_types is None:
        return
    outside = plan_scope(plan) - allowed_types
    if outside:
        if "*" in outside:
            raise KGQPlanError(
                "a REACH without a TO type can surface any entity type; "
                "type-sliced callers must bound it with TO "
                f"(allowed: {sorted(allowed_types)})"
            )
        raise KGQPlanError(
            f"plan touches entity types outside the allowed slice: "
            f"{sorted(outside)} (allowed: {sorted(allowed_types)})"
        )


class QueryPlanner:
    """Compile parsed KGQ queries into physical plans."""

    #: Conditions on these single-hop predicates can seed from the name index.
    NAME_PREDICATES = ("name", "alias")

    def __init__(
        self,
        virtual_operators: VirtualOperatorRegistry | None = None,
        selectivity: "Callable[[str, object], int] | None" = None,
    ) -> None:
        self.virtual_operators = virtual_operators or VirtualOperatorRegistry()
        #: Optional ``(predicate, value) -> estimated candidate count`` — the
        #: live index's postings sizes.  When wired, the seed choice is
        #: cost-based: the smallest postings list seeds.
        self.selectivity = selectivity

    def plan(self, query: Query | CallQuery) -> PhysicalPlan:
        """Compile *query* (expanding virtual operators first)."""
        if isinstance(query, CallQuery):
            query = self.virtual_operators.expand(query)
        if not query.entity_type:
            raise KGQPlanError("a MATCH query needs an entity type")

        seed, remaining = self._choose_seed(query)
        reach = None
        if query.reach is not None:
            reach = ReachOp(
                expression=query.reach,
                target_type=query.reach_type,
                automaton=compile_automaton(query.reach),
                closure=single_label_closure(query.reach),
            )
        plan = PhysicalPlan(
            query=query,
            seed=seed,
            filters=[FilterOp(condition) for condition in remaining],
            project=ProjectOp(tuple(query.returns)),
            limit=LimitOp(query.limit) if query.limit is not None else None,
            reach=reach,
        )
        return plan

    def _choose_seed(
        self, query: Query
    ) -> tuple[IndexLookup | TypeScan, list[Condition]]:
        """Pick the most selective pushable condition as the index seed.

        With a :attr:`selectivity` estimator the choice is cost-based: every
        single-hop equality condition is scored by its estimated postings
        size and the smallest seeds (ties prefer name-shaped predicates, then
        query order).  Without one, the legacy heuristic applies — the first
        pushable condition wins, name equality preferred.
        """
        pushable_index = None
        if self.selectivity is not None:
            best_cost: tuple[int, int, int] | None = None
            for index, condition in enumerate(query.conditions):
                if condition.operator != "=" or len(condition.path) != 1:
                    continue
                cost = (
                    self.selectivity(condition.path[0], condition.value),
                    0 if condition.path[0] in self.NAME_PREDICATES else 1,
                    index,
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    pushable_index = index
            if pushable_index is None:
                return TypeScan(query.entity_type), list(query.conditions)
            chosen = query.conditions[pushable_index]
            remaining = [c for i, c in enumerate(query.conditions) if i != pushable_index]
            return (
                IndexLookup(
                    predicate_path=chosen.path, operator=chosen.operator, value=chosen.value
                ),
                remaining,
            )
        for index, condition in enumerate(query.conditions):
            if condition.operator != "=":
                continue
            if len(condition.path) == 1:
                pushable_index = index
                # Name equality is the most selective seed we have; stop looking.
                if condition.path[0] in self.NAME_PREDICATES:
                    break
        if pushable_index is None:
            return TypeScan(query.entity_type), list(query.conditions)
        chosen = query.conditions[pushable_index]
        remaining = [c for i, c in enumerate(query.conditions) if i != pushable_index]
        return (
            IndexLookup(predicate_path=chosen.path, operator=chosen.operator, value=chosen.value),
            remaining,
        )
