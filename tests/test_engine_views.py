"""Tests for the view catalog, manager, dependencies, and incremental updates."""

import pytest

from repro.engine.views import (
    ViewCatalog,
    ViewContext,
    ViewDefinition,
    ViewDelta,
    ViewManager,
)
from repro.errors import ViewError


def make_manager(catalog):
    """A manager over no stores: builds stamp LSN 0, no entity is stored."""
    return ViewManager(catalog, engines={}, lsn_source=lambda: 0, entity_source=lambda: ())


def flush_changed(manager, ids, lsn=1):
    """Enqueue *ids* as updated at *lsn* and flush them."""
    manager.enqueue(ViewDelta(updated=frozenset(ids), first_lsn=lsn, last_lsn=lsn))
    return manager.flush()


def make_catalog_with_chain(calls):
    """base -> shared -> (left, right); every create appends to *calls*."""
    catalog = ViewCatalog()

    def make_create(name, value):
        def create(context):
            calls.append(name)
            return value
        return create

    catalog.register(ViewDefinition("base", "analytics", make_create("base", [1, 2, 3])))
    catalog.register(ViewDefinition(
        "shared", "analytics",
        create=lambda ctx: (calls.append("shared"), len(ctx.artifact("base")))[1],
        dependencies=("base",),
    ))
    catalog.register(ViewDefinition(
        "left", "text_index",
        create=lambda ctx: (calls.append("left"), ctx.artifact("shared") * 10)[1],
        dependencies=("shared",),
    ))
    catalog.register(ViewDefinition(
        "right", "vector_db",
        create=lambda ctx: (calls.append("right"), ctx.artifact("shared") + 1)[1],
        dependencies=("shared",),
    ))
    return catalog


def test_catalog_registration_validates_dependencies_and_names():
    catalog = ViewCatalog()
    with pytest.raises(ViewError):
        catalog.register(ViewDefinition("v", "analytics", lambda ctx: 1, dependencies=("missing",)))
    with pytest.raises(ViewError):
        ViewDefinition("", "analytics", lambda ctx: 1)
    with pytest.raises(ViewError):
        ViewDefinition("v", "analytics", create="not callable")  # type: ignore[arg-type]
    catalog.register(ViewDefinition("v", "analytics", lambda ctx: 1))
    assert "v" in catalog and len(catalog) == 1
    with pytest.raises(ViewError):
        catalog.get("other")


def test_execution_order_is_topological():
    calls = []
    catalog = make_catalog_with_chain(calls)
    order = catalog.execution_order()
    assert order.index("base") < order.index("shared") < order.index("left")
    targeted = catalog.execution_order(["left"])
    assert targeted == ["base", "shared", "left"]
    assert catalog.dependents_of("shared") == ["left", "right"]


def test_materialize_with_reuse_builds_shared_views_once():
    calls = []
    catalog = make_catalog_with_chain(calls)
    manager = make_manager(catalog)
    timings = manager.materialize(["left", "right"])
    assert calls.count("shared") == 1
    assert calls.count("base") == 1
    assert set(timings) == {"base", "shared", "left", "right"}
    assert manager.artifact("left") == 30
    assert manager.artifact("right") == 4


def test_materialize_without_reuse_rebuilds_dependencies_per_target():
    calls = []
    catalog = make_catalog_with_chain(calls)
    manager = make_manager(catalog)
    for target in ("left", "right"):            # one pipeline per target
        manager.materialize([target])
    assert calls.count("shared") == 2
    assert calls.count("base") == 2


def test_incremental_update_prefers_update_procedure():
    catalog = ViewCatalog()
    update_calls = []
    catalog.register(ViewDefinition(
        "incremental", "analytics",
        create=lambda ctx: {"built": True},
        apply_delta=lambda ctx, delta: update_calls.append(sorted(delta.changed)) or
        {"updated": True},
    ))
    rebuild_count = {"n": 0}

    def rebuild(ctx):
        rebuild_count["n"] += 1
        return rebuild_count["n"]

    catalog.register(ViewDefinition("full_rebuild", "analytics", create=rebuild))
    manager = make_manager(catalog)
    manager.materialize()
    flush_changed(manager, ["kg:e1", "kg:e2"])
    assert update_calls == [["kg:e1", "kg:e2"]]
    assert manager.artifact("incremental") == {"updated": True}
    assert rebuild_count["n"] == 2                      # no apply_delta -> rebuilt
    assert manager.states["incremental"].delta_applies == 1
    assert manager.states["incremental"].builds == 1


def test_artifact_of_unmaterialized_view_raises_and_drop_works():
    catalog = ViewCatalog()
    dropped = []
    catalog.register(ViewDefinition("v", "analytics", lambda ctx: 42,
                                    drop=lambda ctx: dropped.append("v")))
    manager = make_manager(catalog)
    with pytest.raises(ViewError):
        manager.artifact("v")
    manager.materialize(["v"])
    assert manager.is_materialized("v")
    manager.drop("v")
    assert dropped == ["v"]
    assert not manager.is_materialized("v")


def test_cycle_detection():
    catalog = ViewCatalog()
    catalog.register(ViewDefinition("a", "analytics", lambda ctx: 1))
    catalog.register(ViewDefinition("b", "analytics", lambda ctx: 1, dependencies=("a",)))
    # registration is the only way in, and it refuses to close a cycle
    with pytest.raises(ViewError, match="cycle"):
        catalog.register(ViewDefinition("a", "analytics", lambda ctx: 1, dependencies=("b",)))
    with pytest.raises(ViewError, match="cycle"):
        catalog.register(ViewDefinition("c", "analytics", lambda ctx: 1, dependencies=("c",)))
    # a refused registration leaves the catalog as it was
    assert catalog.execution_order() == ["a", "b"]
    assert catalog.get("a").dependencies == ()
    assert "c" not in catalog


def test_scope_must_be_callable():
    with pytest.raises(ViewError):
        ViewDefinition("v", "analytics", lambda ctx: 1, scope="a:*")  # type: ignore[arg-type]


def test_maintenance_stats_report_skips_and_builds():
    catalog = ViewCatalog()
    catalog.register(ViewDefinition("everything", "analytics", lambda ctx: 1))
    catalog.register(ViewDefinition(
        "scoped", "analytics", lambda ctx: 2,
        scope=lambda entity_id: entity_id.startswith("x:"),
    ))
    manager = make_manager(catalog)
    manager.materialize()
    flush_changed(manager, ["y:1"])
    stats = manager.maintenance_stats()
    assert stats["everything"]["builds"] == 2          # rebuilt: no scope
    assert stats["scoped"]["builds"] == 1
    assert stats["scoped"]["skipped_updates"] == 1     # out of scope: work avoided
    assert stats["scoped"]["materialized"] is True


def test_enqueue_before_any_materialization_is_dropped():
    catalog = ViewCatalog()
    catalog.register(ViewDefinition("v", "analytics", lambda ctx: 1))
    manager = make_manager(catalog)
    manager.enqueue(ViewDelta(updated=frozenset({"kg:e1"}), first_lsn=5, last_lsn=5))
    assert manager.pending_changes() == []
    assert manager.flush() == {}


def test_an_unstamped_delta_is_refused():
    """A view's freshness is the log position it reflects: a delta that
    names none is refused before it reaches the pending batch."""
    catalog = ViewCatalog()
    catalog.register(ViewDefinition("v", "analytics", lambda ctx: 1))
    manager = make_manager(catalog)
    manager.materialize()
    with pytest.raises(ViewError, match="LSN"):
        manager.enqueue(ViewDelta(updated=frozenset({"kg:e1"})))
    assert manager.pending_changes() == []
    assert manager.stats()["deltas_observed"] == 0


def test_view_context_errors():
    context = ViewContext(engines={"analytics": object()})
    assert context.engine("analytics") is not None
    with pytest.raises(ViewError):
        context.engine("missing")
    with pytest.raises(ViewError):
        context.artifact("missing")
