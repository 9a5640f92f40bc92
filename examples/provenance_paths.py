"""Regular path queries with provenance witness paths over a small ontology.

Builds a tiny geographic ontology in the live index and runs three REACH
queries against it:

1. ``part_of*`` ancestry from a neighborhood — the tree-shaped closure the
   planner serves from the pre/post-order interval encoding;
2. ``^part_of+`` descendants of a country — one preorder range scan;
3. an alternation ``(part_of|twinned_with)/part_of*`` that no interval can
   serve, evaluated as an automaton product over the adjacency rows.

Every answer row carries a *witness path*: the canonical (shortest, then
lexicographically least) sequence of labeled edges proving the answer is
reachable — the provenance-semiring annotation described in docs/kgq.md.

Run with:  python examples/provenance_paths.py
"""

from __future__ import annotations

from repro.live.executor import QueryExecutor
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.kgq import parse
from repro.live.planner import QueryPlanner


def ontology() -> list[LiveEntityDocument]:
    """A small place hierarchy plus one non-tree ``twinned_with`` edge."""

    def place(eid: str, etype: str, name: str, **facts: list[str]) -> LiveEntityDocument:
        return LiveEntityDocument(
            entity_id=eid, entity_type=etype, name=name,
            facts=dict(facts), timestamp=1,
        )

    return [
        place("earth", "planet", "Earth"),
        place("freedonia", "country", "Freedonia", part_of=["earth"]),
        place("sylvania", "country", "Sylvania", part_of=["earth"]),
        place("north-province", "region", "North Province", part_of=["freedonia"]),
        place("south-province", "region", "South Province", part_of=["freedonia"]),
        place("capital-city", "city", "Capital City", part_of=["north-province"],
              twinned_with=["port-azure"]),
        place("harborview", "city", "Harborview", part_of=["south-province"]),
        place("port-azure", "city", "Port Azure", part_of=["sylvania"]),
        place("old-town", "neighborhood", "Old Town", part_of=["capital-city"]),
        place("dockside", "neighborhood", "Dockside", part_of=["harborview"]),
    ]


def show(title: str, text: str, executor: QueryExecutor, planner: QueryPlanner) -> None:
    plan = planner.plan(parse(text))
    print(f"\n{title}\n  {text}")
    for line in plan.explain():
        print(f"    {line}")
    result = executor.execute(plan)
    for row in result.rows:
        hops = " -> ".join(f"[{label}] {dst}" for _, label, dst in row.witness)
        path = f"(seed) {hops}" if hops else "(seed)"
        name = row.values.get("name", "")
        if isinstance(name, list):
            name = name[0] if name else ""
        print(f"  {row.entity_id:<16} {name:<16} {path}")


def main() -> None:
    index = LiveIndex()
    index.upsert_many(ontology())
    executor = QueryExecutor(index)
    planner = QueryPlanner(selectivity=index.seed_selectivity)

    show(
        "1. Ancestry of Old Town (interval-encoded tree closure):",
        'MATCH neighborhood WHERE name = "Old Town" REACH part_of* RETURN name',
        executor, planner,
    )
    show(
        "2. Cities inside Freedonia (descendant range scan, TO-typed):",
        'MATCH country WHERE name = "Freedonia" REACH ^part_of+ TO city RETURN name',
        executor, planner,
    )
    show(
        "3. Where does Capital City lead via containment or twinning "
        "(automaton product):",
        'MATCH city WHERE name = "Capital City" '
        "REACH (part_of|twinned_with)/part_of* RETURN name",
        executor, planner,
    )


if __name__ == "__main__":
    main()
