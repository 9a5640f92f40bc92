"""Tests for the KGQ language: lexer, parser, literal lifting, virtual
operators, planner."""

import random

import pytest

from repro.errors import KGQPlanError, KGQSyntaxError
from repro.live.kgq import (
    CallQuery,
    Condition,
    Query,
    VirtualOperatorRegistry,
    default_virtual_operators,
    lift_literals,
    parse,
    parse_shape,
    tokenize,
)
from repro.live.planner import IndexLookup, QueryPlanner, TypeScan


def test_tokenize_basic_query():
    tokens = tokenize('MATCH person WHERE name = "Ada" LIMIT 5')
    kinds = [token.kind for token in tokens]
    assert kinds == ["ident", "ident", "ident", "ident", "op", "string", "ident", "number"]
    with pytest.raises(KGQSyntaxError):
        tokenize("MATCH person WHERE name = @bad")


def test_parse_simple_match():
    query = parse('MATCH country WHERE name = "Canada" RETURN head_of_state.name')
    assert isinstance(query, Query)
    assert query.entity_type == "country"
    assert query.conditions == [Condition(("name",), "=", "Canada")]
    assert query.returns == [("head_of_state", "name")]
    assert query.limit is None


def test_parse_multiple_conditions_returns_and_limit():
    query = parse(
        'MATCH sports_game WHERE home_team.name CONTAINS "Wolves" AND game_status = "final" '
        "RETURN name, home_score, away_score LIMIT 3"
    )
    assert len(query.conditions) == 2
    assert query.conditions[0].operator == "CONTAINS"
    assert query.returns == [("name",), ("home_score",), ("away_score",)]
    assert query.limit == 3


def test_parse_numeric_and_comparison_conditions():
    query = parse("MATCH stock WHERE stock_price > 100.5 RETURN *")
    assert query.conditions[0].operator == ">"
    assert query.conditions[0].value == pytest.approx(100.5)
    assert query.returns == [()]


def test_parse_call_query():
    call = parse('CALL HeadOfState("Canada")')
    assert isinstance(call, CallQuery)
    assert call.operator == "HeadOfState"
    assert call.arguments == ("Canada",)
    multi = parse('CALL Something("a", 3, bare)')
    assert multi.arguments == ("a", 3, "bare")


@pytest.mark.parametrize("bad_query", [
    "",
    "MATCH",
    "WHERE name = \"x\"",
    "MATCH person WHERE",
    "MATCH person WHERE name",
    "MATCH person WHERE name LIKE \"x\"",
    "MATCH person RETURN",
    "MATCH person LIMIT many",
    "MATCH person trailing garbage =",
    "CALL Op(",
])
def test_parse_rejects_malformed_queries(bad_query):
    with pytest.raises(KGQSyntaxError):
        parse(bad_query)


def test_query_render_roundtrip():
    text = 'MATCH country WHERE name = "Canada" AND population > 1000 RETURN head_of_state.name LIMIT 2'
    query = parse(text)
    assert parse(query.render()) == query


def test_virtual_operator_registry_expansion():
    registry = default_virtual_operators()
    assert "headofstate" in registry
    expanded = registry.expand(CallQuery("HeadOfState", ("Canada",)))
    assert expanded.entity_type == "country"
    assert expanded.conditions[0].value == "Canada"
    with pytest.raises(KGQSyntaxError):
        registry.expand(CallQuery("Nonexistent", ()))
    custom = VirtualOperatorRegistry()
    custom.register("TeamVenue", lambda team: Query(
        entity_type="sports_team",
        conditions=[Condition(("name",), "=", team)],
        returns=[("venue", "name")],
    ))
    assert custom.names() == ["teamvenue"]


def test_planner_pushes_down_name_equality():
    planner = QueryPlanner(default_virtual_operators())
    plan = planner.plan(
        parse('MATCH country WHERE name = "Canada" AND population > 5 RETURN name LIMIT 3')
    )
    assert isinstance(plan.seed, IndexLookup)
    assert plan.seed.predicate_path == ("name",)
    assert len(plan.filters) == 1
    assert "IndexLookup" in plan.explain()[0]
    assert plan.explain()[-1] == plan.limit.describe() == "Limit(3)"


def test_planner_falls_back_to_type_scan():
    planner = QueryPlanner()
    plan = planner.plan(parse('MATCH sports_game WHERE home_team.name CONTAINS "Wolves"'))
    assert isinstance(plan.seed, TypeScan)
    assert plan.seed.entity_type == "sports_game"
    assert len(plan.filters) == 1


def test_planner_expands_call_queries_and_validates():
    planner = QueryPlanner(default_virtual_operators())
    plan = planner.plan(parse('CALL MayorOf("Springfield")'))
    assert plan.query.entity_type == "city"
    with pytest.raises(KGQPlanError):
        planner.plan(Query(entity_type=""))


def test_planner_prefers_single_hop_equality_over_multi_hop():
    planner = QueryPlanner()
    query = parse('MATCH song WHERE performed_by.name = "X" AND genre = "pop"')
    plan = planner.plan(query)
    assert isinstance(plan.seed, IndexLookup)
    assert plan.seed.predicate_path == ("genre",)


def test_planner_cost_based_seed_picks_smallest_postings():
    sizes = {("year", "1999"): 1, ("genre", "pop"): 40, ("name", "x"): 15}
    planner = QueryPlanner(
        default_virtual_operators(),
        selectivity=lambda predicate, value: sizes.get((predicate, str(value).lower()), 0),
    )
    query = parse('MATCH song WHERE genre = "pop" AND year = 1999 AND name = "X"')
    plan = planner.plan(query)
    assert isinstance(plan.seed, IndexLookup)
    assert plan.seed.predicate_path == ("year",)          # cheapest postings list seeds
    assert len(plan.filters) == 2


def test_planner_cost_based_seed_ties_prefer_name_predicates():
    planner = QueryPlanner(
        default_virtual_operators(), selectivity=lambda predicate, value: 7
    )
    plan = planner.plan(parse('MATCH song WHERE genre = "pop" AND name = "X"'))
    assert plan.seed.predicate_path == ("name",)
    # Without an estimator the legacy heuristic also prefers name equality —
    # otherwise the last pushable condition wins, cost unexamined.
    legacy = QueryPlanner(default_virtual_operators())
    plan = legacy.plan(parse('MATCH song WHERE genre = "pop" AND year = 1999'))
    assert plan.seed.predicate_path == ("year",)


def test_planner_cost_based_seed_skips_non_pushable_conditions():
    planner = QueryPlanner(
        default_virtual_operators(), selectivity=lambda predicate, value: 0
    )
    plan = planner.plan(parse('MATCH song WHERE performed_by.name = "X" AND year > 3'))
    assert isinstance(plan.seed, TypeScan)                # nothing single-hop "="
    assert len(plan.filters) == 2


# ------------------------------------------------------------------ #
# literal lifting: one shape per template, literals bound back in
# ------------------------------------------------------------------ #
def _bound(text):
    shape, literals = lift_literals(text)
    return parse_shape(shape).bind(literals)


def test_lifting_keeps_digits_inside_identifiers():
    text = "MATCH r2d2 WHERE x1.part_of2 = 3 REACH part_of2+ TO zone9 RETURN a1b LIMIT 4"
    shape, literals = lift_literals(text)
    assert shape == "MATCH r2d2 WHERE x1.part_of2 = ? REACH part_of2+ TO zone9 RETURN a1b LIMIT ?"
    assert literals == ("3", "4")
    assert _bound(text) == parse(text)


def test_lifting_reads_negative_and_decimal_numbers_whole():
    text = "MATCH stock WHERE a > -3 AND b < 0.5 AND c=-0.25 AND d != 7.0"
    shape, literals = lift_literals(text)
    assert shape == "MATCH stock WHERE a > ? AND b < ? AND c=? AND d != ?"
    assert literals == ("-3", "0.5", "-0.25", "7.0")
    query = _bound(text)
    assert [c.value for c in query.conditions] == [-3, 0.5, -0.25, 7]
    assert type(query.conditions[3].value) is int      # 7.0 converts as the parser does
    assert query == parse(text)


@pytest.mark.parametrize("literal", [
    '"R2-D2 2024"', '"what?"', '"v.1.5"', '"MATCH x LIMIT 5 CALL"', '"?"', '""', '"-3"',
])
def test_a_string_literal_is_lifted_whole(literal):
    text = f"MATCH person WHERE name = {literal} RETURN name"
    assert lift_literals(text) == ("MATCH person WHERE name = ? RETURN name", (literal,))
    query = _bound(text)
    assert query.conditions[0].value == literal[1:-1]
    assert query == parse(text)


def test_a_bareword_literal_stays_in_the_shape():
    text = "MATCH sports_game WHERE game_status = final RETURN name"
    assert lift_literals(text) == (text, ())
    assert _bound(text) == parse(text)


@pytest.mark.parametrize("text", [
    'CALL HeadOfState("Canada")',
    '  call Something("a", 3, -0.5, bare)',
    'CALL StockPrice("ABC?")',
])
def test_call_texts_are_not_lifted(text):
    assert lift_literals(text) == (text, ())
    assert _bound(text) == parse(text)


def test_limit_is_a_slot_that_takes_numbers_only():
    query = _bound("MATCH person RETURN name LIMIT 12")
    assert query.limit == 12
    assert _bound("MATCH person RETURN name LIMIT 12.0").limit == 12
    shape, literals = lift_literals('MATCH person RETURN name LIMIT "12"')
    with pytest.raises(KGQSyntaxError) as lifted:
        parse_shape(shape).bind(literals)
    with pytest.raises(KGQSyntaxError) as parsed:
        parse('MATCH person RETURN name LIMIT "12"')
    assert str(lifted.value) == str(parsed.value)


@pytest.mark.parametrize("text", [
    "MATCH person WHERE name = ?",
    "MATCH person WHERE name = ? RETURN name LIMIT 3",
    'MATCH person WHERE name = "x" LIMIT ?',
    "MATCH ? RETURN name",
    "?",
])
def test_a_bare_question_mark_is_a_syntax_error(text):
    with pytest.raises(KGQSyntaxError):
        parse(text)
    with pytest.raises(KGQSyntaxError):
        lift_literals(text)


def test_question_marks_parse_only_where_a_literal_may_stand():
    for shape in ("MATCH ? RETURN name", "MATCH person RETURN ?", "MATCH person REACH ?+",
                  "MATCH person WHERE ? = 1", "CALL HeadOfState(?)"):
        with pytest.raises(KGQSyntaxError):
            parse_shape(shape)
    with pytest.raises(KGQSyntaxError):
        tokenize("MATCH person WHERE name = ?")
    assert tokenize("MATCH person WHERE name = ?", slots=True)[-1].kind == "slot"
    with pytest.raises(KGQSyntaxError):         # one slot, two literals
        parse_shape("MATCH person WHERE name = ?").bind(('"a"', '"b"'))


_TYPES = ("person", "r2d2", "sports_game", "zone9")
_PATHS = (("name",), ("part_of2",), ("home_team", "name"), ("x1", "y2"), ("population",))
_LABELS = ("part_of", "part_of2", "knows", "performed_by", "l9")
_STRING_PIECES = ("Ada", "2024", "?", ".", "-", " ", "MATCH", "LIMIT", "CALL", "x1", "0.5")


def _random_literal(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return str(rng.randint(-500, 500))
    if kind == 1:
        return f"{rng.uniform(-100, 100):.{rng.randint(1, 3)}f}"
    if kind == 2:
        return f"{rng.randint(-9, 9)}.0"
    if kind == 3:
        return '"' + "".join(rng.choice(_STRING_PIECES) for _ in range(rng.randint(0, 4))) + '"'
    return rng.choice(("final", "active", "x9"))       # a bareword


def _random_rpq(rng, depth=0):
    kind = rng.randrange(5 if depth < 2 else 1)
    if kind == 0:
        return ("^" if rng.random() < 0.2 else "") + rng.choice(_LABELS)
    if kind == 1:
        return f"{_random_rpq(rng, depth + 1)}/{_random_rpq(rng, depth + 1)}"
    if kind == 2:
        return f"({_random_rpq(rng, depth + 1)}|{_random_rpq(rng, depth + 1)})"
    return f"({_random_rpq(rng, depth + 1)}){rng.choice('*+')}"


def _keyword(rng, word):
    return word if rng.random() < 0.8 else word.lower()


def _random_text(rng):
    parts = [_keyword(rng, "MATCH"), rng.choice(_TYPES)]
    conditions = rng.randint(0, 3)
    for index in range(conditions):
        parts.append(_keyword(rng, "WHERE" if index == 0 else "AND"))
        operator = rng.choice(("=", "!=", "<", ">", "CONTAINS"))
        gap = " " if operator == "CONTAINS" else rng.choice(("", " ", "  "))
        parts.append(
            ".".join(rng.choice(_PATHS)) + gap + operator + gap + _random_literal(rng)
        )
    if rng.random() < 0.4:
        parts += [_keyword(rng, "REACH"), _random_rpq(rng)]
        if rng.random() < 0.6:
            parts += [_keyword(rng, "TO"), rng.choice(_TYPES)]
    if rng.random() < 0.8:
        items = [rng.choice(("*", "name", "x1.y2", "a1b")) for _ in range(rng.randint(1, 3))]
        parts += [_keyword(rng, "RETURN"), ", ".join(items)]
    if rng.random() < 0.5:
        parts += [_keyword(rng, "LIMIT"), rng.choice((str(rng.randint(1, 400)), "7.0"))]
    return " ".join(parts)


_BATTERY = (
    'MATCH country WHERE name = "Canada" RETURN head_of_state.name',
    'MATCH sports_game WHERE home_team.name CONTAINS "Wolves" RETURN home_score, away_score',
    'MATCH district WHERE name = "Old Town" REACH part_of* TO region RETURN name',
    'MATCH person WHERE name = "Ada" REACH mentor/(knows|^knows)+ TO person RETURN name',
    'MATCH music_artist WHERE name = "Band 7" REACH (part_of|performed_by|record_label)+ '
    "RETURN name LIMIT 53",
    "MATCH city WHERE population > 23000 RETURN name, population LIMIT 17",
    "MATCH song WHERE popularity > 0.35 RETURN name, popularity LIMIT 5",
    'MATCH song WHERE genre = "pop" AND year = 1999 AND name = "X"',
    "MATCH song RETURN name, fact_count LIMIT 240",
    'CALL HeadOfState("Canada")',
    'CALL GameScore("Wolves 2")',
)


@pytest.mark.parametrize("selectivity", [None, lambda predicate, value: len(str(value)) % 4])
def test_bound_shapes_plan_exactly_as_parsed_texts(selectivity):
    planner = QueryPlanner(default_virtual_operators(), selectivity=selectivity)
    rng = random.Random(3_900)
    texts = list(_BATTERY) + [_random_text(rng) for _ in range(400)]
    for text in texts:
        shape, literals = lift_literals(text)
        if not text.lstrip().upper().startswith("CALL"):
            # the literals are exactly the string and number tokens the lexer reads
            assert list(literals) == [
                token.value for token in tokenize(text) if token.kind in ("string", "number")
            ], text
        assert planner.plan(parse_shape(shape).bind(literals)) == planner.plan(parse(text)), text
