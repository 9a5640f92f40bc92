"""Analytics dashboard: an incrementally maintained join view, served fleet-wide.

Builds the warehouse half of a "top artists by label" dashboard (see
docs/views.md and docs/serving.md):

* artist and label triples go into a :class:`TripleStore`, and the
  ``entity_rows`` loader of an :class:`AnalyticsStore` over it feeds both
  sides of a :class:`JoinViewDefinition` — artists joined to their record
  label's row on ``label``;
* live updates (signings, label renames, label shutdowns) flow through the
  **delta rules** — the view recomputes only the affected output rows, never
  the full join, and the journal carries the changed *output* subjects;
* a three-replica serving fleet answers a cross-view join whole on one
  replica that serves both views, reading both sides at one state of it.

Run with:  python examples/analytics_dashboard.py
"""

from __future__ import annotations

import random

from repro.engine.analytics import AnalyticsStore
from repro.engine.views import (
    JoinInput,
    JoinViewDefinition,
    ViewCatalog,
    ViewDefinition,
    ViewDelta,
    ViewManager,
)
from repro.model.triples import ExtendedTriple, TripleStore
from repro.serving import ServingFleet

LABELS = ("l_apex", "l_bolt", "l_crest")


def build_warehouse(rng: random.Random) -> tuple[TripleStore, dict, dict]:
    """Write a small music-industry world into a triple store."""
    labels = {name: {"country": rng.choice(["US", "UK", "JP"])} for name in LABELS}
    artists = {
        f"a{i:02d}": {"label": rng.choice(LABELS), "albums": rng.randint(1, 9)}
        for i in range(12)
    }
    triples = []
    for label, fields in labels.items():
        triples += [
            ExtendedTriple(label, "type", "label"),
            ExtendedTriple(label, "name", f"Label {label[2:].title()}"),
            ExtendedTriple(label, "country", fields["country"]),
        ]
    for artist, fields in artists.items():
        triples += [
            ExtendedTriple(artist, "type", "artist"),
            ExtendedTriple(artist, "name", f"Artist {artist}"),
            ExtendedTriple(artist, "signed_to", fields["label"]),
            ExtendedTriple(artist, "albums", fields["albums"]),
        ]
    return TripleStore(triples), artists, labels


def main() -> None:
    rng = random.Random(11)
    triples, artists, labels = build_warehouse(rng)
    store = AnalyticsStore(triples)
    print(f"warehouse ready: {store.triple_count()} triples, "
          f"types {store.entity_types()}")

    # ------------------------------------------------------------ #
    # The join view: artists ⋈ labels on the signing, delta-maintained.
    # ------------------------------------------------------------ #
    catalog = ViewCatalog()
    dashboard = JoinViewDefinition(
        "artist_dashboard",
        JoinInput(
            "artists", "signed_to",
            lambda context, ids: store.entity_rows(
                "artist", ["signed_to", "albums"], ids),
            scope=lambda e: e.startswith("a"),
        ),
        JoinInput(
            "labels", "label_id",
            lambda context, ids: [
                dict(row, label_id=row["subject"])
                for row in store.entity_rows("label", ["country"], ids)
            ],
            scope=lambda e: e.startswith("l"),
        ),
        how="left",
        description="artist rows joined to their label's country",
    )
    catalog.register(dashboard)
    clock = {"lsn": 1}
    manager = ViewManager(
        catalog, engines={},
        lsn_source=lambda: clock["lsn"],
        entity_source=lambda: list(artists) + list(labels),
    )
    manager.materialize()
    sample = manager.artifact("artist_dashboard")["a00"]
    print(f"\n== join view materialized ({len(manager.artifact('artist_dashboard'))} "
          f"rows) ==\n  a00 -> {sample}")

    # Live updates: only the affected output rows are recomputed.
    def apply(changed=(), deleted=()):
        clock["lsn"] += 1
        manager.enqueue(ViewDelta(
            updated=frozenset(changed), deleted=frozenset(deleted),
            first_lsn=clock["lsn"], last_lsn=clock["lsn"],
        ))
        manager.flush()

    # The warehouse reads the triple store: a rewrite shows at once.
    triples.remove_subject("a00")
    triples.add_all([
        ExtendedTriple("a00", "type", "artist"),
        ExtendedTriple("a00", "name", "Artist a00"),
        ExtendedTriple("a00", "signed_to", "l_crest"),      # re-signed!
        ExtendedTriple("a00", "albums", 10),
    ])
    apply(changed=["a00"])
    print(f"  a00 re-signed  -> {manager.artifact('artist_dashboard')['a00']}")

    triples.remove_subject("l_crest")
    triples.add_all([
        ExtendedTriple("l_crest", "type", "label"),
        ExtendedTriple("l_crest", "name", "Label Crest Intl"),
        ExtendedTriple("l_crest", "country", "DE"),         # relocated
    ])
    apply(changed=["l_crest"])
    crest_roster = [s for s, row in manager.artifact("artist_dashboard").items()
                    if row.get("country") == "DE"]
    print(f"  l_crest moved  -> {len(crest_roster)} artist rows updated via "
          f"the right-side delta rule: {crest_roster}")

    ivm = dashboard.ivm_stats()
    stats = manager.stats()
    print(f"  ivm stats: {ivm}")
    print(f"  manager:   full_rebuilds={stats['full_rebuilds']} "
          f"incremental_applies={stats['incremental_applies']} "
          f"flushes={stats['flushes']}")

    # ------------------------------------------------------------ #
    # The serving half: a cross-view join run whole on one replica.
    # ------------------------------------------------------------ #
    serving_catalog = ViewCatalog()

    def row_view(name, members, row_of, prefix):
        serving_catalog.register(ViewDefinition(
            name, "analytics",
            create=lambda context: {e: row_of(e) for e in sorted(members())},
            scope=lambda e: e.startswith(prefix),
        ))

    row_view("artist_rows", lambda: artists,
             lambda e: {"subject": e, "name": store.display_name(e),
                        "label": artists[e]["label"],
                        "albums": artists[e]["albums"], "types": ["artist"]},
             "a")
    row_view("label_rows", lambda: labels,
             lambda e: {"subject": e, "name": store.display_name(e),
                        "label": e, "country": labels[e]["country"],
                        "types": ["label"]},
             "l")
    serving_manager = ViewManager(
        serving_catalog, engines={},
        lsn_source=lambda: 1,
        entity_source=lambda: list(artists) + list(labels),
    )
    serving_manager.materialize()
    fleet = ServingFleet(serving_manager, num_replicas=3).start()
    fleet.serve_view("artist_rows")
    fleet.serve_view("label_rows")
    fleet.drain()

    left = "MATCH artist WHERE albums > 3 RETURN name, label, albums"
    right = "MATCH label RETURN label, country"
    print(f"\n== cross-view join on a 3-replica fleet ==\n  {left}\n"
          f"  ⋈ {right}  on label")
    result = fleet.join(left, "artist_rows", right, "label_rows",
                        "label", "label", how="left")
    print(f"  -> {len(result.rows)} rows in {result.latency_ms:.2f} ms; "
          f"first: {result.rows[0].values}")
    router = fleet.query_router.stats()
    answered = {name: node.status()["joins_executed"]
                for name, node in sorted(fleet.replicas.items())}
    print(f"  router: join_queries={router['join_queries']} "
          f"fragments_dispatched={router['fragments_dispatched']} "
          f"joins_executed={answered}")
    fleet.stop()


if __name__ == "__main__":
    main()
