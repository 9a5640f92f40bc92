"""KGQ: the live graph query language (Section 4.2).

KGQ is a deliberately restricted graph query language: expressive enough to
capture the semantics of natural-language questions arriving from the search
front end (entity search with traversal constraints, property retrieval over
multi-hop paths), but bounded so that every query compiles to a plan with
predictable cost.  The language also supports *virtual operators*: named,
reusable expansions registered by clients that encapsulate complex expressions.

Grammar (informally)::

    query      := match_query | call_query
    match_query:= 'MATCH' type_name
                  ('WHERE' condition ('AND' condition)*)?
                  ('REACH' rpq_expr ('TO' type_name)?)?
                  ('RETURN' return_item (',' return_item)*)?
                  ('LIMIT' integer)?
    call_query := 'CALL' name '(' argument (',' argument)* ')'
    condition  := path operator literal
    path       := identifier ('.' identifier)*
    operator   := '=' | '!=' | '<' | '>' | 'CONTAINS'
    return_item:= path | '*'
    literal    := "double-quoted string" | number | bareword
    rpq_expr   := rpq_concat ('|' rpq_concat)*
    rpq_concat := rpq_postfix ('/' rpq_postfix)*
    rpq_postfix:= rpq_atom ('*' | '+')*
    rpq_atom   := '^'? identifier | '(' rpq_expr ')'

The REACH clause is a **regular path query** (RPQ): a regex over edge labels.
The matched entities become path seeds, the expression is compiled into an
automaton (:mod:`repro.live.rpq`), and the answers are every entity reachable
over a label sequence the expression accepts — alternation ``|``,
concatenation ``/``, closure ``*``/``+``, and ``^label`` for traversing an
edge backwards.  ``TO type`` bounds the answers to one entity type (required
for type-sliced tenants).  Every answer row carries the concrete edge
sequence proving reachability (its provenance witness path).

Examples::

    MATCH country WHERE name = "Canada" RETURN head_of_state.name
    MATCH sports_game WHERE home_team.name CONTAINS "Wolves" RETURN home_score, away_score
    MATCH district WHERE name = "Old Town" REACH part_of* TO region RETURN name
    MATCH person WHERE name = "Ada" REACH mentor/(knows|^knows)+ TO person RETURN name
    CALL HeadOfState("Canada")

Literal lifting
---------------
Front ends fill a few templates with different names and thresholds, so a
server parses each query *shape* once.  :func:`lift_literals` replaces every
string and number token of a text with ``?`` in one regex pass, reading them
exactly as :func:`tokenize` does; :func:`parse_shape` parses the shape into a
:class:`QueryShape` whose literal positions are numbered slots
(:class:`Slot`), and :meth:`QueryShape.bind` puts a text's literals back.
``?`` is not KGQ syntax: it is accepted only in a lifted shape, where a
literal may stand (a condition value, the LIMIT count), and a ``?`` in a
client's own text is a :class:`~repro.errors.KGQSyntaxError`.  A CALL text is
not lifted: a virtual operator's expansion is arbitrary Python, so its shape
is the whole text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import KGQSyntaxError

KEYWORDS = {"MATCH", "WHERE", "AND", "REACH", "TO", "RETURN", "LIMIT", "CALL", "CONTAINS"}
OPERATORS = {"=", "!=", "<", ">", "CONTAINS"}

_TOKEN_PATTERN = re.compile(
    r"""
    (?P<string>"[^"]*")
  | (?P<number>-?\d+(\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>!=|=|<|>)
  | (?P<dot>\.)
  | (?P<comma>,)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<star>\*)
  | (?P<plus>\+)
  | (?P<pipe>\|)
  | (?P<slash>/)
  | (?P<caret>\^)
  | (?P<slot>\?)
  | (?P<space>\s+)
""",
    re.VERBOSE,
)

#: One string or number token, read as :func:`tokenize` reads it: a digit run
#: right after an identifier character belongs to the identifier
#: (``part_of2``), a leading ``-`` and a fraction belong to the number.
_LITERAL_PATTERN = re.compile(r'("[^"]*"|-\d+(?:\.\d+)?|(?<![A-Za-z0-9_])\d+(?:\.\d+)?)')
_CALL_PREFIX = re.compile(r"\s*CALL\b", re.IGNORECASE)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str
    value: str
    position: int


def tokenize(text: str, *, slots: bool = False) -> list[Token]:
    """Tokenize a KGQ query string; *slots* admits the ``?`` of a lifted shape."""
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None or (match.lastgroup == "slot" and not slots):
            raise KGQSyntaxError(f"unexpected character {text[position]!r} at position {position}")
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "space":
            tokens.append(Token(kind=kind, value=value, position=position))
        position = match.end()
    return tokens


@dataclass(frozen=True)
class Condition:
    """One traversal constraint: ``path operator value``."""

    path: tuple[str, ...]
    operator: str
    value: object

    def render(self) -> str:
        """Render back to KGQ text."""
        value = f'"{self.value}"' if isinstance(self.value, str) else str(self.value)
        return f"{'.'.join(self.path)} {self.operator} {value}"


# ------------------------------------------------------------------ #
# regular path expressions (the REACH clause)
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class RpqLabel:
    """One edge label; ``inverse`` traverses the edge backwards (``^label``)."""

    predicate: str
    inverse: bool = False

    def render(self) -> str:
        """Render back to REACH syntax."""
        return ("^" if self.inverse else "") + self.predicate


@dataclass(frozen=True)
class RpqConcat:
    """Concatenation: the parts must match in sequence (``a/b``)."""

    parts: tuple["RpqExpr", ...]

    def render(self) -> str:
        """Render back to REACH syntax (alternation children need parens)."""
        return "/".join(
            f"({part.render()})" if isinstance(part, RpqAlt) else part.render()
            for part in self.parts
        )


@dataclass(frozen=True)
class RpqAlt:
    """Alternation: any option may match (``a|b``)."""

    options: tuple["RpqExpr", ...]

    def render(self) -> str:
        """Render back to REACH syntax."""
        return "|".join(option.render() for option in self.options)


def _render_closed(expr: "RpqExpr") -> str:
    return expr.render() if isinstance(expr, RpqLabel) else f"({expr.render()})"


@dataclass(frozen=True)
class RpqStar:
    """Kleene closure: zero or more matches of the inner expression."""

    inner: "RpqExpr"

    def render(self) -> str:
        """Render back to REACH syntax."""
        return _render_closed(self.inner) + "*"


@dataclass(frozen=True)
class RpqPlus:
    """Positive closure: one or more matches of the inner expression."""

    inner: "RpqExpr"

    def render(self) -> str:
        """Render back to REACH syntax."""
        return _render_closed(self.inner) + "+"


RpqExpr = RpqLabel | RpqConcat | RpqAlt | RpqStar | RpqPlus


@dataclass
class Query:
    """Parsed MATCH query."""

    entity_type: str
    conditions: list[Condition] = field(default_factory=list)
    returns: list[tuple[str, ...]] = field(default_factory=list)   # () means '*'
    limit: int | None = None
    reach: RpqExpr | None = None       # REACH expression (regular path query)
    reach_type: str = ""               # TO type bound ("" = unbounded)

    def render(self) -> str:
        """Render back to KGQ text (useful for caching and logging)."""
        parts = [f"MATCH {self.entity_type}"]
        if self.conditions:
            parts.append("WHERE " + " AND ".join(c.render() for c in self.conditions))
        if self.reach is not None:
            parts.append(f"REACH {self.reach.render()}")
            if self.reach_type:
                parts.append(f"TO {self.reach_type}")
        if self.returns:
            rendered = ", ".join("*" if not path else ".".join(path) for path in self.returns)
            parts.append(f"RETURN {rendered}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class CallQuery:
    """Parsed CALL of a virtual operator."""

    operator: str
    arguments: tuple[object, ...]


@dataclass(frozen=True)
class Slot:
    """A lifted literal's place in a parsed shape: the text's *index*-th literal."""

    index: int


def _literal(raw: str) -> object:
    """The value of one string or number token."""
    if raw[0] == '"':
        return raw[1:-1]
    number = float(raw)
    return int(number) if number.is_integer() else number


@dataclass(frozen=True)
class QueryShape:
    """A parsed query shape: a query whose literals are numbered slots.

    Condition values and the LIMIT count may be :class:`Slot` objects.  A
    CALL shape has none: it is the whole text.
    """

    query: Query | CallQuery
    slots: int

    def bind(self, literals: Sequence[str]) -> Query | CallQuery:
        """The query with *literals* (tokens, as lifted) in its slots.

        Values convert as the parser converts them.  A LIMIT slot takes a
        number only.
        """
        if len(literals) != self.slots:
            raise KGQSyntaxError(
                f"the shape has {self.slots} literal slots, got {len(literals)} literals"
            )
        query = self.query
        if not self.slots:
            return query
        conditions = [
            Condition(condition.path, condition.operator, _literal(literals[condition.value.index]))
            if isinstance(condition.value, Slot) else condition
            for condition in query.conditions
        ]
        limit = query.limit
        if isinstance(limit, Slot):
            raw = literals[limit.index]
            if raw[0] == '"':
                raise KGQSyntaxError(f"expected a number after LIMIT, got {raw!r}")
            limit = int(float(raw))
        return Query(
            entity_type=query.entity_type,
            conditions=conditions,
            returns=query.returns,
            limit=limit,
            reach=query.reach,
            reach_type=query.reach_type,
        )


class Parser:
    """Recursive-descent parser for KGQ."""

    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = list(tokens)
        self._index = 0
        self.slots = 0      # slot tokens read as literals so far

    # ---- helpers -------------------------------------------------- #
    def _peek(self) -> Token | None:
        return self._tokens[self._index] if self._index < len(self._tokens) else None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise KGQSyntaxError("unexpected end of query")
        self._index += 1
        return token

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._next()
        if token.kind != "ident" or token.value.upper() != keyword:
            raise KGQSyntaxError(f"expected {keyword}, got {token.value!r}")
        return token

    def _is_keyword(self, token: Token | None, keyword: str) -> bool:
        return token is not None and token.kind == "ident" and token.value.upper() == keyword

    # ---- grammar -------------------------------------------------- #
    def parse(self) -> Query | CallQuery:
        """Parse the token stream into a query object."""
        token = self._peek()
        if token is None:
            raise KGQSyntaxError("empty query")
        if self._is_keyword(token, "CALL"):
            return self._parse_call()
        return self._parse_match()

    def _parse_call(self) -> CallQuery:
        self._expect_keyword("CALL")
        name_token = self._next()
        if name_token.kind != "ident":
            raise KGQSyntaxError(f"expected operator name, got {name_token.value!r}")
        open_token = self._next()
        if open_token.kind != "lparen":
            raise KGQSyntaxError("expected '(' after virtual operator name")
        arguments: list[object] = []
        while True:
            token = self._next()
            if token.kind == "rparen":
                break
            if token.kind == "comma":
                continue
            arguments.append(self._literal_value(token))
        self._assert_consumed()
        return CallQuery(operator=name_token.value, arguments=tuple(arguments))

    def _parse_match(self) -> Query:
        self._expect_keyword("MATCH")
        type_token = self._next()
        if type_token.kind != "ident":
            raise KGQSyntaxError(f"expected entity type, got {type_token.value!r}")
        query = Query(entity_type=type_token.value)

        token = self._peek()
        if self._is_keyword(token, "WHERE"):
            self._next()
            query.conditions.append(self._parse_condition())
            while self._is_keyword(self._peek(), "AND"):
                self._next()
                query.conditions.append(self._parse_condition())

        if self._is_keyword(self._peek(), "REACH"):
            self._next()
            query.reach = self._parse_rpq_expression()
            if self._is_keyword(self._peek(), "TO"):
                self._next()
                type_token = self._next()
                if type_token.kind != "ident":
                    raise KGQSyntaxError(
                        f"expected an entity type after TO, got {type_token.value!r}"
                    )
                query.reach_type = type_token.value

        if self._is_keyword(self._peek(), "RETURN"):
            self._next()
            query.returns.append(self._parse_return_item())
            while self._peek() is not None and self._peek().kind == "comma":
                self._next()
                query.returns.append(self._parse_return_item())

        if self._is_keyword(self._peek(), "LIMIT"):
            self._next()
            number = self._next()
            if number.kind == "slot":
                query.limit = self._literal_value(number)
            elif number.kind == "number":
                query.limit = int(float(number.value))
            else:
                raise KGQSyntaxError(f"expected a number after LIMIT, got {number.value!r}")

        self._assert_consumed()
        return query

    def _parse_condition(self) -> Condition:
        path = self._parse_path()
        op_token = self._next()
        if op_token.kind == "op":
            operator = op_token.value
        elif self._is_keyword(op_token, "CONTAINS"):
            operator = "CONTAINS"
        else:
            raise KGQSyntaxError(f"expected an operator, got {op_token.value!r}")
        value_token = self._next()
        return Condition(path=path, operator=operator, value=self._literal_value(value_token))

    # ---- REACH expressions (regular path queries) ------------------ #
    def _parse_rpq_expression(self) -> RpqExpr:
        options = [self._parse_rpq_concat()]
        while self._peek() is not None and self._peek().kind == "pipe":
            self._next()
            options.append(self._parse_rpq_concat())
        return options[0] if len(options) == 1 else RpqAlt(tuple(options))

    def _parse_rpq_concat(self) -> RpqExpr:
        parts = [self._parse_rpq_postfix()]
        while self._peek() is not None and self._peek().kind == "slash":
            self._next()
            parts.append(self._parse_rpq_postfix())
        return parts[0] if len(parts) == 1 else RpqConcat(tuple(parts))

    def _parse_rpq_postfix(self) -> RpqExpr:
        expr = self._parse_rpq_atom()
        while self._peek() is not None and self._peek().kind in ("star", "plus"):
            token = self._next()
            expr = RpqStar(expr) if token.kind == "star" else RpqPlus(expr)
        return expr

    def _parse_rpq_atom(self) -> RpqExpr:
        token = self._peek()
        if token is None:
            raise KGQSyntaxError("unexpected end of REACH expression")
        if token.kind == "lparen":
            self._next()
            expr = self._parse_rpq_expression()
            closing = self._next()
            if closing.kind != "rparen":
                raise KGQSyntaxError(
                    f"expected ')' in REACH expression, got {closing.value!r}"
                )
            return expr
        inverse = False
        if token.kind == "caret":
            self._next()
            inverse = True
        label = self._next()
        if label.kind != "ident":
            raise KGQSyntaxError(f"expected an edge label in REACH, got {label.value!r}")
        return RpqLabel(predicate=label.value, inverse=inverse)

    def _parse_return_item(self) -> tuple[str, ...]:
        token = self._peek()
        if token is not None and token.kind == "star":
            self._next()
            return ()
        return self._parse_path()

    def _parse_path(self) -> tuple[str, ...]:
        token = self._next()
        if token.kind != "ident":
            raise KGQSyntaxError(f"expected a predicate, got {token.value!r}")
        segments = [token.value]
        while self._peek() is not None and self._peek().kind == "dot":
            self._next()
            segment = self._next()
            if segment.kind != "ident":
                raise KGQSyntaxError(f"expected a predicate after '.', got {segment.value!r}")
            segments.append(segment.value)
        return tuple(segments)

    def _literal_value(self, token: Token) -> object:
        if token.kind in ("string", "number"):
            return _literal(token.value)
        if token.kind == "ident":
            return token.value
        if token.kind == "slot":
            self.slots += 1
            return Slot(self.slots - 1)
        raise KGQSyntaxError(f"expected a literal, got {token.value!r}")

    def _assert_consumed(self) -> None:
        token = self._peek()
        if token is not None:
            raise KGQSyntaxError(f"unexpected trailing input at {token.value!r}")


def parse(text: str) -> Query | CallQuery:
    """Parse a KGQ query string."""
    return Parser(tokenize(text)).parse()


def lift_literals(text: str) -> tuple[str, tuple[str, ...]]:
    """Split *text* into its shape and its string and number tokens.

    The shape is *text* with each such token replaced by ``?``; the literals
    are the tokens as written, in text order.  A CALL text is its own shape.
    A ``?`` outside a string literal raises
    :class:`~repro.errors.KGQSyntaxError`, as :func:`parse` would.
    """
    if _CALL_PREFIX.match(text):
        return text, ()
    parts = _LITERAL_PATTERN.split(text)
    shape = "?".join(parts[::2])
    literals = tuple(parts[1::2])
    if shape.count("?") != len(literals):
        tokenize(text)      # raises at the client's own '?', or earlier
        raise KGQSyntaxError("'?' is not KGQ syntax")
    return shape, literals


def parse_shape(shape: str) -> QueryShape:
    """Parse a lifted shape; ``?`` stands only where a literal may."""
    parser = Parser(tokenize(shape, slots=True))
    query = parser.parse()
    if isinstance(query, CallQuery) and parser.slots:
        raise KGQSyntaxError("a CALL text is not lifted: '?' is not KGQ syntax")
    return QueryShape(query=query, slots=parser.slots)


VirtualOperator = Callable[..., Query]


class VirtualOperatorRegistry:
    """Registry of reusable virtual operators (KGQ extensibility)."""

    def __init__(self) -> None:
        self._operators: dict[str, VirtualOperator] = {}

    def register(self, name: str, expansion: VirtualOperator) -> None:
        """Register *expansion* under *name* (case-insensitive)."""
        self._operators[name.lower()] = expansion

    def expand(self, call: CallQuery) -> Query:
        """Expand a CALL query into the underlying MATCH query."""
        expansion = self._operators.get(call.operator.lower())
        if expansion is None:
            raise KGQSyntaxError(f"unknown virtual operator {call.operator!r}")
        return expansion(*call.arguments)

    def names(self) -> list[str]:
        """Registered operator names."""
        return sorted(self._operators)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._operators


def default_virtual_operators() -> VirtualOperatorRegistry:
    """Virtual operators used by the QA examples and benchmarks."""
    registry = VirtualOperatorRegistry()
    registry.register(
        "HeadOfState",
        lambda country: Query(
            entity_type="country",
            conditions=[Condition(("name",), "=", country)],
            returns=[("head_of_state", "name")],
        ),
    )
    registry.register(
        "MayorOf",
        lambda city: Query(
            entity_type="city",
            conditions=[Condition(("name",), "=", city)],
            returns=[("mayor", "name")],
        ),
    )
    registry.register(
        "SpouseOf",
        lambda person: Query(
            entity_type="person",
            conditions=[Condition(("name",), "=", person)],
            returns=[("spouse", "name")],
        ),
    )
    registry.register(
        "GameScore",
        lambda team: Query(
            entity_type="sports_game",
            conditions=[Condition(("home_team", "name"), "CONTAINS", team)],
            returns=[("name",), ("home_score",), ("away_score",), ("game_status",)],
        ),
    )
    registry.register(
        "StockPrice",
        lambda ticker: Query(
            entity_type="stock",
            conditions=[Condition(("ticker",), "=", ticker)],
            returns=[("stock_price",)],
        ),
    )
    return registry
