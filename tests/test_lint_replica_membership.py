"""Lint guard: a serving fleet keeps one map of its replicas.

Saga's serving tier follows the Graph Engine's log by LSN (Section 3.1): the
shipper turns each committed view delta into a batch and offers it to the
replicas, and the router places reads on the same replicas.  The fleet's
``replicas`` dict is that one membership: the shipper offers batches to it
and the router reads it, so no second map has to be kept in step with it
and no listener has to run after another in registration order.

The guard parses the modules under ``src/repro/serving/`` and fails on:

* a module other than ``serving/fleet.py`` writing into a ``replicas`` map
  (a subscript store or delete, or ``pop`` / ``popitem`` / ``clear`` /
  ``update`` / ``setdefault``) or building one (``replicas = {}``,
  ``dict(...)`` or a dict comprehension);
* any module defining ``subscribe``, ``unsubscribe`` or ``subscribers``
  (a function, or a name or attribute it assigns);
* a module other than ``serving/shipping.py`` calling ``.offer(`` (the
  front door's ``self.queue.offer(waiter, ...)`` queues a request on its
  admission queue, not a batch on a replica, and is not counted);
* ``serving/fleet.py`` calling ``add_journal_listener``: the shipper is the
  fleet's one journal listener.
"""

from __future__ import annotations

import ast
from pathlib import Path

SERVING_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro" / "serving"

#: The one module that inserts into the replica map, relative to serving/.
MEMBERSHIP_MODULE = "fleet.py"

#: The one module that offers batches to replicas, relative to serving/.
SHIPPING_MODULE = "shipping.py"

#: The names of a second, subscription-shaped membership.
SUBSCRIPTION_NAMES = {"subscribe", "unsubscribe", "subscribers"}

#: Dict methods that change the map they are called on.
MUTATING_METHODS = {"pop", "popitem", "clear", "update", "setdefault"}


def _guarded_modules():
    for path in sorted(SERVING_ROOT.rglob("*.py")):
        relative = path.relative_to(SERVING_ROOT).as_posix()
        yield relative, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_replicas(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "replicas") or (
        isinstance(node, ast.Attribute) and node.attr == "replicas"
    )


def _builds_a_map(value: ast.AST | None) -> bool:
    return isinstance(value, (ast.Dict, ast.DictComp)) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "dict"
    )


def _membership_writes(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_replicas(node.value) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            verb = "deletes from" if isinstance(node.ctx, ast.Del) else "assigns into"
            found.append((node.lineno, f"{verb} a replicas map"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and _is_replicas(node.func.value)
        ):
            found.append((node.lineno, f"calls replicas.{node.func.attr}()"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_is_replicas(target) for target in targets) and _builds_a_map(node.value):
                found.append((node.lineno, "builds a replicas map"))
    return sorted(found)


def _subscriptions(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in SUBSCRIPTION_NAMES
        ):
            found.append((node.lineno, f"defines {node.name}()"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in SUBSCRIPTION_NAMES
            and isinstance(node.ctx, ast.Store)
        ):
            found.append((node.lineno, f"assigns .{node.attr}"))
        elif (
            isinstance(node, ast.Name)
            and node.id in SUBSCRIPTION_NAMES
            and isinstance(node.ctx, ast.Store)
        ):
            found.append((node.lineno, f"assigns {node.id}"))
    return sorted(found)


def _calls(tree: ast.AST, attribute: str) -> list[tuple[int, str]]:
    return sorted(
        (node.lineno, f"calls .{attribute}()")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attribute
        and not _is_admission_queue(node.func.value)
    )


def _is_admission_queue(receiver: ast.AST) -> bool:
    return isinstance(receiver, ast.Attribute) and receiver.attr == "queue"


def _violations(relative: str, tree: ast.AST) -> list[tuple[int, str]]:
    found = _subscriptions(tree)
    if relative != MEMBERSHIP_MODULE:
        found += _membership_writes(tree)
    if relative != SHIPPING_MODULE:
        found += _calls(tree, "offer")
    if relative == MEMBERSHIP_MODULE:
        found += _calls(tree, "add_journal_listener")
    return sorted(found)


def test_one_replica_map_per_fleet():
    violations = [
        f"src/repro/serving/{relative}:{line}: {what}"
        for relative, tree in _guarded_modules()
        for line, what in _violations(relative, tree)
    ]
    assert not violations, (
        "the fleet's replicas dict is the one replica membership: only "
        "fleet.py inserts into it, only the shipper offers batches to it, and "
        "the shipper is the fleet's one journal listener:\n" + "\n".join(violations)
    )


def test_the_guard_sees_every_shape():
    source = (
        "class Bus:\n"
        "    def __init__(self, manager):\n"
        "        self.subscribers = {}\n"
        "        self.replicas = {}\n"
        "        manager.add_journal_listener(self.on_event)\n"
        "    def subscribe(self, node):\n"
        "        self.replicas[node.name] = node\n"
        "    def unsubscribe(self, name):\n"
        "        del self.replicas[name]\n"
        "        self.replicas.pop(name, None)\n"
        "    def publish(self, batch):\n"
        "        for node in self.replicas.values():\n"
        "            node.offer(batch)\n"
        "replicas = dict()\n"
        "self.queue.offer(waiter, 0.0)\n"
    )
    tree = ast.parse(source)
    # a module other than fleet.py and shipping.py: everything but the listener
    assert _violations("router.py", tree) == [
        (3, "assigns .subscribers"),
        (4, "builds a replicas map"),
        (6, "defines subscribe()"),
        (7, "assigns into a replicas map"),
        (8, "defines unsubscribe()"),
        (9, "deletes from a replicas map"),
        (10, "calls replicas.pop()"),
        (13, "calls .offer()"),
        (14, "builds a replicas map"),
    ]
    # fleet.py may fill the map but registers no journal listener
    assert _violations("fleet.py", tree) == [
        (3, "assigns .subscribers"),
        (5, "calls .add_journal_listener()"),
        (6, "defines subscribe()"),
        (8, "defines unsubscribe()"),
        (13, "calls .offer()"),
    ]
    # shipping.py may offer, but not keep or fill a map of its own
    assert (13, "calls .offer()") not in _violations("shipping.py", tree)
    assert (7, "assigns into a replicas map") in _violations("shipping.py", tree)
