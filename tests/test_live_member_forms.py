"""A posting and an adjacency row hold their members in the canonical form.

:mod:`repro.live.members` stores one member bare, up to ``TUPLE_LIMIT`` as a
sorted tuple and more as a set, as a function of the members alone.  Seeded
sequences walk one posting key and one pair of adjacency rows from no member
to above the limit and back to none, adding and removing members in random
order (a member leaves by a delete or by a replace that moves its values
elsewhere).  After every step:

* the stored values are exactly the canonical form of the members, and a
  one-target row is the very int object the graph interned for the target;
* ``lookup_value``, ``value_postings``, ``exact_name_postings``,
  ``lookup_name``, ``search_name_tokens`` and ``seed_selectivity`` agree with
  a plain-set oracle (a one-id posting counts 1, not the id's length);
* the ``part_of`` interval encoding holds exactly the members under the
  root, and REACH answers and witnesses, interval path and automaton product
  alike, equal :func:`~repro.live.rpq.naive_rpq` over the ε-free NFA.

Sequence counts follow ``--runs-seeded`` (``index_seed``, see conftest.py).
"""

from __future__ import annotations

import random

from repro.live.executor import QueryExecutor
from repro.live.index import LiveEntityDocument, LiveIndex
from repro.live.kgq import parse
from repro.live.members import TUPLE_LIMIT
from repro.live.rpq import compile_automaton, compile_nfa, naive_rpq, single_label_closure

IDS = [f"e{i:02d}" for i in range(TUPLE_LIMIT + 4)]
ROOT = "root"
EXPRESSIONS = ["^part_of*", "part_of+", "knows/part_of", "(knows|genre|^genre)+"]


def canonical(values):
    """The form :mod:`repro.live.members` must hold *values* in."""
    ordered = sorted(values)
    if not ordered:
        return None
    if len(ordered) == 1:
        return ordered[0]
    if len(ordered) <= TUPLE_LIMIT:
        return tuple(ordered)
    return set(ordered)


def assert_form(held, values) -> None:
    expected = canonical(values)
    assert held == expected and type(held) is type(expected), (held, values)


def member_document(entity_id: str) -> LiveEntityDocument:
    return LiveEntityDocument(
        entity_id=entity_id, entity_type="node", name="Blue River",
        facts={"genre": ["jazz"], "part_of": [ROOT]},
    )


def moved_document(entity_id: str) -> LiveEntityDocument:
    """*entity_id* held, but under no posting key or row the test watches."""
    return LiveEntityDocument(
        entity_id=entity_id, entity_type="node", name="Night Echo",
        facts={"genre": ["rock"], "part_of": ["elsewhere"]},
    )


def root_document(members: set[str]) -> LiveEntityDocument:
    facts = {"knows": sorted(members)} if members else {}
    return LiveEntityDocument(entity_id=ROOT, entity_type="node", name="Root Node", facts=facts)


def walk(rng: random.Random) -> list[tuple[str, str]]:
    """``(add|remove, id)`` steps from no member to above the limit and back."""
    members: set[str] = set()
    steps = []
    rising = True
    while rising or members:
        if rising and len(members) > TUPLE_LIMIT + 1:
            rising = False
        absent = [entity_id for entity_id in IDS if entity_id not in members]
        add = absent and (not members or rng.random() < (0.7 if rising else 0.3))
        entity_id = rng.choice(absent if add else sorted(members))
        steps.append(("add" if add else "remove", entity_id))
        (members.add if add else members.discard)(entity_id)
    return steps


def assert_postings(index: LiveIndex, members: set[str]) -> None:
    inverted = index.inverted
    assert_form(inverted._value_postings.get(("genre", "jazz")), members)
    assert_form(inverted._exact_names.get("blue river"), members)
    assert_form(inverted._name_postings.get("river"), members)
    assert inverted.lookup_value("genre", "jazz") == members
    assert inverted.lookup_name("Blue River") == members
    assert inverted.search_name_tokens("river blue") == members
    for postings in (inverted.value_postings("genre", "jazz"),
                     inverted.exact_name_postings("blue river")):
        assert set(postings) == members and len(postings) == len(members)
    assert index.seed_selectivity("genre", "jazz") == len(members)
    assert index.seed_selectivity("name", "blue river") == len(members)


def assert_adjacency(index: LiveIndex, members: set[str]) -> None:
    graph = index.adjacency.graph("")
    root = graph.ids[ROOT]
    ordinals = {graph.ids[entity_id] for entity_id in members}
    knows = graph.forward.get("knows", {}).get(root)
    children = graph.reverse.get("part_of", {}).get(root)
    assert_form(knows, ordinals)
    assert_form(children, ordinals)
    if len(members) == 1:
        (member,) = members
        assert knows is graph.ids[member] and children is graph.ids[member]
    interval = index.adjacency.interval_index("", "part_of")
    assert interval is not None
    subtree = {graph.names[node] for node in interval.descendants(root)}
    assert subtree == ({ROOT} | members if members else set())   # an edgeless root is no tree node


def assert_reach(index: LiveIndex, documents: list[LiveEntityDocument]) -> None:
    evaluator = QueryExecutor(index).rpq
    for text in EXPRESSIONS:
        expression = parse(f"MATCH node REACH {text} RETURN name").reach
        closure = single_label_closure(expression)
        for seeds in ([ROOT], ["jazz", IDS[0]]):
            answers, _ = evaluator.evaluate("", seeds, compile_automaton(expression), closure)
            expected, _ = naive_rpq(documents, seeds, compile_nfa(expression))
            assert {node: answers.witness(node) for node in answers} == expected, (text, seeds)


def test_posting_and_row_forms_follow_members_alone(index_seed):
    rng = random.Random(index_seed)
    index = LiveIndex()
    held: dict[str, LiveEntityDocument] = {ROOT: root_document(set())}
    index.replace(held[ROOT])
    members: set[str] = set()
    for action, entity_id in walk(rng):
        if action == "add":
            members.add(entity_id)
            held[entity_id] = member_document(entity_id)
            index.replace(held[entity_id])
        else:
            members.discard(entity_id)
            if rng.random() < 0.5:
                del held[entity_id]
                index.delete(entity_id)
            else:
                held[entity_id] = moved_document(entity_id)
                index.replace(held[entity_id])
        held[ROOT] = root_document(members)
        index.replace(held[ROOT])
        assert_postings(index, members)
        assert_adjacency(index, members)
        assert_reach(index, list(held.values()))
