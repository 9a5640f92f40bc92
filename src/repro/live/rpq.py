"""Regular path query evaluation over compact adjacency rows.

This module gives the KGQ REACH clause (:mod:`repro.live.kgq`) its runtime:

* **Automaton compilation** — a REACH expression compiles through a Thompson
  construction and epsilon elimination into an NFA (:func:`compile_nfa`),
  then by subset construction and Moore refinement into its minimal DFA
  (:func:`compile_automaton`, memoised per expression), so evaluation is a
  product construction over (node, DFA-state) pairs, never re-interprets the
  regex, and reaches each node in as few states as the language allows.
* **Per-predicate compact adjacency** — :class:`AdjacencyIndex` maintains,
  per feed and per edge label, forward and reverse adjacency rows over dense
  node ordinals, each in the form its size picks (:mod:`repro.live.members`:
  the bare ordinal, a sorted tuple of a few, a set of more), kept
  incrementally consistent by :class:`~repro.live.index.LiveIndex` on every
  upsert/replace/delete — a shipped view delta sets and clears only the
  edges it changed, exactly like it touches only the postings it changed.
* **Provenance witnesses** — evaluation is a provenance semiring over edge
  sequences: *times* is path concatenation, *plus* keeps the canonical
  (shortest, then lexicographically least) witness.  Every answer therefore
  carries one concrete edge sequence ``(src, label, dst), ...`` proving
  reachability, and the canonical choice is independent of evaluation order —
  which is why a replica evaluating over its own copy of a view returns the
  primary's witnesses bit for bit.
* **Interval encoding** — for tree-shaped predicates (``part_of``-style
  ontologies) a pre/post-order interval index (the XPath-accelerator idiom)
  turns single-label closures (``p*``, ``^p+``, ...) into parent-chain walks
  and preorder range scans instead of iteration to fixpoint.  The index is
  rebuilt lazily and invalidated by a per-feed mutation counter, so a shipped
  delta that changes an edge drops the stale encoding.
* **Naive BFS reference** — :func:`naive_rpq` re-derives the edge relation by
  scanning documents and runs a plain set-based BFS; it is the oracle the
  seeded equivalence suite (and the BENCH_RPQ gate) compares against.

The product BFS of :class:`RpqEvaluator` walks (node, DFA-state) pairs in
canonical-witness order: a pair's first discovery is its canonical witness,
so each pair holds only its parent pair and the label of the edge between
them, and :class:`ReachAnswers` builds a witness from those on demand — a
REACH that stops at its LIMIT builds witnesses for the rows it returns
alone (the interval path's descendants answer the same way; its ancestry
walk builds its few witnesses as it climbs, :class:`WalkedAnswers`).
Primary and replicas run the same evaluator, a replica over the ``view:X``
feed of the view it serves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence

from repro.live.kgq import RpqAlt, RpqConcat, RpqExpr, RpqLabel, RpqPlus, RpqStar
from repro.live.members import add_member, copy_members, discard_member, members

#: One provenance witness: a tuple of (src, rendered label, dst) edge triples.
Witness = tuple[tuple[str, str, str], ...]


# ------------------------------------------------------------------ #
# automaton compilation (Thompson, epsilon elimination, minimal DFA)
# ------------------------------------------------------------------ #
#: How many compiled expressions :func:`compile_automaton` keeps.  A REACH
#: text names its seeds inline, so texts rarely repeat, but a workload holds
#: only a handful of distinct expressions.
COMPILED_EXPRESSIONS = 256

#: Outgoing edges of one state: ``(predicate, inverse, next_state)``, in
#: :func:`edge_label` order (then by target state).
Transitions = tuple[tuple[str, bool, int], ...]


def edge_label(predicate: str, inverse: bool) -> str:
    """How a witness renders an edge's label: ``p``, or ``^p`` walked backwards."""
    return ("^" + predicate) if inverse else predicate


@dataclass(frozen=True, slots=True)
class Automaton:
    """Finite automaton over edge labels, compiled from a REACH expression.

    ``transitions[state]`` holds the state's outgoing ``(predicate, inverse,
    next_state)`` edges in rendered-label order (:func:`edge_label`), the
    order a witness compares them in; states are numbered ``0 ..
    num_states - 1`` in a deterministic BFS order from ``start`` (edges
    explored in that order), so the same expression compiles to the same
    automaton in every process — a requirement for distributed evaluation, where primary and
    replicas must agree on state identity.  Immutable: one compiled
    automaton is shared by every plan of its expression.
    """

    accepting: frozenset[int]
    transitions: tuple[Transitions, ...]
    start: int = 0

    @property
    def num_states(self) -> int:
        """One state per ``transitions`` entry."""
        return len(self.transitions)

    def matches_empty(self) -> bool:
        """Whether the expression accepts the zero-length path (seeds answer)."""
        return self.start in self.accepting


class _NfaBuilder:
    """Thompson construction: one (start, end) fragment per sub-expression."""

    def __init__(self) -> None:
        self.count = 0
        self.edges: list[tuple[int, str, bool, int]] = []
        self.epsilon: list[tuple[int, int]] = []

    def state(self) -> int:
        state = self.count
        self.count += 1
        return state

    def build(self, expr: RpqExpr) -> tuple[int, int]:
        if isinstance(expr, RpqLabel):
            start, end = self.state(), self.state()
            self.edges.append((start, expr.predicate, expr.inverse, end))
            return start, end
        if isinstance(expr, RpqConcat):
            start, end = self.build(expr.parts[0])
            for part in expr.parts[1:]:
                part_start, part_end = self.build(part)
                self.epsilon.append((end, part_start))
                end = part_end
            return start, end
        if isinstance(expr, RpqAlt):
            start, end = self.state(), self.state()
            for option in expr.options:
                option_start, option_end = self.build(option)
                self.epsilon.append((start, option_start))
                self.epsilon.append((option_end, end))
            return start, end
        if isinstance(expr, (RpqStar, RpqPlus)):
            start, end = self.state(), self.state()
            inner_start, inner_end = self.build(expr.inner)
            self.epsilon.append((start, inner_start))
            self.epsilon.append((inner_end, end))
            self.epsilon.append((inner_end, inner_start))      # loop back
            if isinstance(expr, RpqStar):
                self.epsilon.append((start, end))              # zero matches
            return start, end
        raise TypeError(f"unknown RPQ expression node {expr!r}")


def _renumbered(
    start: int, accepting: Container[int], edges: dict[int, list[tuple[str, bool, int]]]
) -> Automaton:
    """Keep the states reachable from *start*, renumbered in BFS order.

    Each state's outgoing edges are explored and kept in rendered-label
    order, so the numbering depends only on the automaton's shape.
    """
    ordered = {
        state: sorted(held, key=lambda edge: (edge_label(edge[0], edge[1]), edge[2]))
        for state, held in edges.items()
    }
    order = {start: 0}
    queue = [start]
    for state in queue:                       # grows while it is walked
        for _, _, target in ordered.get(state, ()):
            if target not in order:
                order[target] = len(order)
                queue.append(target)
    return Automaton(
        accepting=frozenset(order[state] for state in queue if state in accepting),
        transitions=tuple(
            tuple(
                (predicate, inverse, order[target])
                for predicate, inverse, target in ordered.get(state, ())
            )
            for state in queue
        ),
    )


def compile_nfa(expr: RpqExpr) -> Automaton:
    """Compile a REACH expression into an epsilon-free NFA.

    The first step of :func:`compile_automaton`, callable on its own so the
    seeded equivalence suite can run its reference BFS over an automaton the
    minimisation never touched.
    """
    builder = _NfaBuilder()
    start, accept = builder.build(expr)

    # Epsilon closures by fixpoint over the (small) state set.
    closures = [{state} for state in range(builder.count)]
    changed = True
    while changed:
        changed = False
        for source, target in builder.epsilon:
            for closure in closures:
                if source in closure and target not in closure:
                    closure.add(target)
                    changed = True

    # Epsilon elimination: delta'(q, a) = closure(delta(closure(q), a)),
    # accepting'(q) iff closure(q) touches the accept state.
    by_source: dict[int, set[tuple[str, bool, int]]] = {}
    for source, predicate, inverse, target in builder.edges:
        for state in range(builder.count):
            if source in closures[state]:
                by_source.setdefault(state, set()).update(
                    (predicate, inverse, landed) for landed in closures[target]
                )
    return _renumbered(
        start,
        {state for state in range(builder.count) if accept in closures[state]},
        {state: sorted(edges) for state, edges in by_source.items()},
    )


def _minimal_dfa(nfa: Automaton) -> Automaton:
    """Subset construction over *nfa*, then Moore partition refinement.

    DFA states are sorted tuples of NFA states and symbols are visited in
    sorted order, so no step depends on set iteration order.  The DFA is
    partial (a missing move is the implicit dead state); every Thompson
    state can reach acceptance, so no live state is equivalent to the dead
    one and the quotient is the minimal DFA.
    """
    subsets = [(nfa.start,)]
    ids = {subsets[0]: 0}
    moves: list[dict[tuple[str, bool], int]] = []
    for subset in subsets:                    # grows while it is walked
        targets: dict[tuple[str, bool], set[int]] = {}
        for state in subset:
            for predicate, inverse, target in nfa.transitions[state]:
                targets.setdefault((predicate, inverse), set()).add(target)
        move = {}
        for symbol in sorted(targets):
            landed = tuple(sorted(targets[symbol]))
            if landed not in ids:
                ids[landed] = len(subsets)
                subsets.append(landed)
            move[symbol] = ids[landed]
        moves.append(move)
    alphabet = sorted({symbol for move in moves for symbol in move})

    # Moore refinement: split blocks by (block, block of each move) until
    # the block count stops growing; -1 stands for the dead state.
    accepts = [any(s in nfa.accepting for s in subset) for subset in subsets]
    blocks = [int(accept) for accept in accepts]
    count = len(set(blocks))
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        blocks = [
            signatures.setdefault(
                (blocks[state],) + tuple(blocks[move[s]] if s in move else -1 for s in alphabet),
                len(signatures),
            )
            for state, move in enumerate(moves)
        ]
        if len(signatures) == count:
            break
        count = len(signatures)

    edges: dict[int, list[tuple[str, bool, int]]] = {}
    for state, move in enumerate(moves):
        if blocks[state] not in edges:        # any member speaks for its block
            edges[blocks[state]] = [
                (predicate, inverse, blocks[target])
                for (predicate, inverse), target in move.items()
            ]
    accepting = {block for block, accept in zip(blocks, accepts) if accept}
    return _renumbered(blocks[0], accepting, edges)


@functools.lru_cache(maxsize=COMPILED_EXPRESSIONS)
def compile_automaton(expr: RpqExpr) -> Automaton:
    """Compile a REACH expression into its minimal DFA, once per expression.

    Thompson construction, epsilon elimination (:func:`compile_nfa`), subset
    construction and Moore refinement.  The language is unchanged, so the
    accepted edge sequences — and with them every answer's canonical
    witness — are those of the NFA.  Memoised on the frozen expression: every
    plan of one expression shares one read-only :class:`Automaton`.
    """
    return _minimal_dfa(compile_nfa(expr))


def single_label_closure(expr: RpqExpr) -> tuple[str, bool, bool] | None:
    """``(predicate, inverse, include_zero)`` when *expr* is ``label*``/``label+``.

    These are the closures the interval encoding can answer with range scans
    (``part_of*`` ancestry, ``^part_of+`` proper descendants); anything else
    returns ``None`` and evaluates through the automaton product.
    """
    if isinstance(expr, RpqStar) and isinstance(expr.inner, RpqLabel):
        return (expr.inner.predicate, expr.inner.inverse, True)
    if isinstance(expr, RpqPlus) and isinstance(expr.inner, RpqLabel):
        return (expr.inner.predicate, expr.inner.inverse, False)
    return None


# ------------------------------------------------------------------ #
# edge extraction (the shared definition of the edge relation)
# ------------------------------------------------------------------ #
def document_feed_node(document) -> tuple[str, str]:
    """The ``(feed key, node id)`` a document contributes edges under.

    View-feed documents (``source_id = "view:X"``, keyed ``X:subject``) are
    graphed in subject space under their feed, so replicas and a primary that
    loaded the same feed build identical graphs; everything else belongs to
    the global live graph (feed ``""``) under its entity id.
    """
    source = document.source_id
    if source.startswith("view:"):
        prefix = source[5:] + ":"
        entity_id = document.entity_id
        node = entity_id[len(prefix):] if entity_id.startswith(prefix) else entity_id
        return source, node
    return "", document.entity_id


def document_edges(document) -> list[tuple[str, str]]:
    """The labeled out-edges one document asserts: ``(predicate, target)``.

    An edge exists for every non-empty string fact value and every reference
    — the same value space :meth:`LiveEntityDocument.values` exposes to KGQ
    path traversal, deduplicated and predicate-sorted for determinism.
    """
    edges: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for predicate in sorted(set(document.facts) | set(document.references)):
        for value in document.values(predicate):
            if not isinstance(value, str) or not value:
                continue
            edge = (predicate, value)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


# ------------------------------------------------------------------ #
# compact adjacency (rows of dense node ordinals)
# ------------------------------------------------------------------ #
def row_targets(row: int | tuple[int, ...] | set[int]) -> Sequence[int]:
    """The ordinals one adjacency row holds, ascending.

    A one-target row is the target's ordinal itself, a few targets a
    sorted tuple, more a set (sorted here).  The product BFS reads rows
    itself, in target name order (:meth:`RpqEvaluator._evaluate_product`).
    """
    return sorted(row) if row.__class__ is set else members(row)    # type: ignore[return-value]


class _FeedGraph:
    """One feed's labeled graph: interned nodes + per-predicate adjacency rows.

    A row holds its targets in the form their count picks
    (:mod:`repro.live.members`); a one-target row is the very int object
    ``ids`` holds for the target, so it costs the row dict's slot alone.
    Read a row through :func:`row_targets`, or as the product BFS does.
    """

    __slots__ = ("ids", "names", "forward", "reverse", "mutations")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        # predicate -> source ordinal -> target ordinals (and back).
        self.forward: dict[str, dict[int, int | tuple[int, ...] | set[int]]] = {}
        self.reverse: dict[str, dict[int, int | tuple[int, ...] | set[int]]] = {}
        # predicate -> how often its edges changed (interval encoding stamps).
        self.mutations: dict[str, int] = {}

    def touch(self, predicates: Iterable[str]) -> None:
        """Note that edges of each of *predicates* changed."""
        for predicate in predicates:
            self.mutations[predicate] = self.mutations.get(predicate, 0) + 1

    def copy(self) -> "_FeedGraph":
        """A graph equal to this one that shares only immutable parts: the
        interned names and ordinals, bare-ordinal rows and tuple rows."""
        twin = _FeedGraph()
        twin.ids = dict(self.ids)
        twin.names = list(self.names)
        twin.forward = {predicate: copy_members(rows) for predicate, rows in self.forward.items()}
        twin.reverse = {predicate: copy_members(rows) for predicate, rows in self.reverse.items()}
        twin.mutations = dict(self.mutations)
        return twin

    def intern(self, node: str) -> int:
        ordinal = self.ids.get(node)
        if ordinal is None:
            ordinal = len(self.names)
            self.ids[node] = ordinal
            self.names.append(node)
        return ordinal


class IntervalIndex:
    """Pre/post-order interval encoding of one tree-shaped predicate.

    The XPath-accelerator idiom: a DFS over the forest assigns every node a
    preorder number (``pre``) and the maximum preorder in its subtree
    (``end``), so the descendants of ``x`` are exactly the contiguous slice
    ``order[pre[x] : end[x] + 1]`` — ancestry becomes a range scan, and the
    parent map answers ancestor chains without touching adjacency rows.
    """

    __slots__ = ("parent", "pre", "end", "order")

    def __init__(
        self,
        parent: dict[int, int],
        pre: dict[int, int],
        end: dict[int, int],
        order: list[int],
    ) -> None:
        self.parent = parent
        self.pre = pre
        self.end = end
        self.order = order

    def descendants(self, ordinal: int) -> list[int]:
        """Every node in *ordinal*'s subtree (itself included), one slice."""
        position = self.pre.get(ordinal)
        if position is None:
            return []
        return self.order[position : self.end[ordinal] + 1]


def _build_interval_index(graph: _FeedGraph, predicate: str) -> IntervalIndex | None:
    """Interval-encode *predicate* when its edges form a forest, else ``None``.

    Forest-shaped means functional (every forward row a single ordinal) and
    acyclic; DFS order is by node name so the encoding is process-stable.
    """
    rows = graph.forward.get(predicate, {})
    parent: dict[int, int] = {}
    nodes: set[int] = set()
    for source, row in rows.items():
        targets = row_targets(row)
        if len(targets) != 1:
            return None                       # a node with two parents: not a tree
        parent[source] = targets[0]
        nodes.add(source)
        nodes.add(targets[0])
    children: dict[int, list[int]] = {}
    for child, node_parent in parent.items():
        children.setdefault(node_parent, []).append(child)
    roots = sorted(
        (node for node in nodes if node not in parent),
        key=lambda node: graph.names[node],
    )
    pre: dict[int, int] = {}
    end: dict[int, int] = {}
    order: list[int] = []
    for root in roots:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                end[node] = len(order) - 1
                continue
            pre[node] = len(order)
            order.append(node)
            stack.append((node, True))
            for child in sorted(
                children.get(node, ()), key=lambda c: graph.names[c], reverse=True
            ):
                stack.append((child, False))
    if len(order) != len(nodes):
        return None                           # a cycle kept some nodes off the forest
    return IntervalIndex(parent=parent, pre=pre, end=end, order=order)


def _set_edge(graph: _FeedGraph, predicate: str, source: int, target: int) -> None:
    add_member(graph.forward.setdefault(predicate, {}), source, target)
    add_member(graph.reverse.setdefault(predicate, {}), target, source)


def _clear_edge(graph: _FeedGraph, predicate: str, source: int, target: int) -> None:
    for rows, key, member in ((graph.forward, source, target), (graph.reverse, target, source)):
        row = rows.get(predicate)
        if row is None:
            continue
        discard_member(row, key, member)
        if not row:
            del rows[predicate]


class AdjacencyIndex:
    """Per-feed, per-predicate compact adjacency, incrementally maintained.

    Mirrors the :class:`~repro.live.index.InvertedGraphIndex` maintenance
    discipline: ``index_document`` diffs one document's edges against those
    of the document it replaces (``document.edges()``, cached on the
    immutable document) and adds or drops only the edges that changed, and
    ``remove`` drops exactly the edges the removed document added.  Rows
    take the form their target count picks and nothing else, so a graph
    built by diffs equals, row for row, one rebuilt from the same
    documents.  Interval encodings are derived state: a change to a feed's
    edges bumps the mutation counter of each predicate it moved, and
    :meth:`interval_index` rebuilds lazily when its stamp is stale — so a
    shipped delta that moves a ``part_of`` edge drops the ``part_of``
    encoding, and one that moves only edges of other predicates keeps it.
    """

    def __init__(self) -> None:
        self._feeds: dict[str, _FeedGraph] = {}
        self._intervals: dict[tuple[str, str], tuple[int, IntervalIndex | None]] = {}
        self.interval_builds = 0

    def index_document(self, document, previous=None) -> None:
        """Record *document*'s out-edges in place of *previous*, the document
        this index held under the same id (``None`` when it held none)."""
        if previous is document:
            return
        feed_key, node = document_feed_node(document)
        held = () if previous is None else previous.edges()
        if held and document_feed_node(previous) != (feed_key, node):
            self.remove(previous)             # the document moved feeds
            held = ()
        graph = self._feeds.get(feed_key)
        if graph is None:
            graph = self._feeds[feed_key] = _FeedGraph()
        source = graph.intern(node)
        edges = document.edges()
        if held == edges:
            return
        gone = set(held).difference(edges)
        new = set(edges).difference(held)
        for predicate, target in gone:
            _clear_edge(graph, predicate, source, graph.ids[target])
        for predicate, target in new:
            _set_edge(graph, predicate, source, graph.intern(target))
        graph.touch({predicate for predicate, _ in gone} | {predicate for predicate, _ in new})

    def remove(self, document) -> None:
        """Drop every edge a held document added."""
        edges = document.edges()
        if not edges:
            return
        feed_key, node = document_feed_node(document)
        graph = self._feeds[feed_key]
        source = graph.ids[node]
        for predicate, target in edges:
            _clear_edge(graph, predicate, source, graph.ids[target])
        graph.touch({predicate for predicate, _ in edges})

    def copy(self) -> "AdjacencyIndex":
        """An index equal to this one, graph for graph, that later edits to
        either leave the other alone.  A built interval encoding is never
        mutated, so the copy shares it under the same mutation stamp."""
        twin = AdjacencyIndex()
        twin._feeds = {feed: graph.copy() for feed, graph in self._feeds.items()}
        twin._intervals = dict(self._intervals)
        return twin

    def graph(self, feed: str) -> _FeedGraph | None:
        """The raw feed graph (``None`` when the feed asserted no edges)."""
        return self._feeds.get(feed)

    def interval_index(self, feed: str, predicate: str) -> IntervalIndex | None:
        """The (lazily rebuilt) interval encoding, ``None`` when not a forest."""
        graph = self._feeds.get(feed)
        if graph is None:
            return None
        key = (feed, predicate)
        stamp = graph.mutations.get(predicate, 0)
        cached = self._intervals.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        built = _build_interval_index(graph, predicate)
        self._intervals[key] = (stamp, built)
        self.interval_builds += 1
        return built


# ------------------------------------------------------------------ #
# answers: pairs reached, witnesses built on demand
# ------------------------------------------------------------------ #
class ReachAnswers:
    """The answers of one REACH evaluation: node -> the pair that answers it.

    The pairs an evaluation reached form a forest: pair ``i`` is the node
    ordinal ``keys[i] // num_states`` (in some automaton state), reached
    over an edge labelled ``labels[i]`` from pair ``parents[i]`` (``-1``
    for a seed).  An answer maps to the pair whose path is its canonical
    witness, ``-1`` when that is the empty path; :meth:`witnesses` walks
    the parents to build theirs.  Iterating yields the answer nodes,
    unordered.
    """

    __slots__ = (
        "_pairs", "_names", "_keys", "_num_states", "_parents", "_labels", "_evaluator", "_built",
    )

    def __init__(
        self,
        pairs: dict[str, int],
        names: Sequence[str],
        keys: list[int],
        num_states: int,
        parents: list[int],
        labels: list[str],
        evaluator: "RpqEvaluator",
    ) -> None:
        self._pairs = pairs
        self._names = names
        self._keys = keys
        self._num_states = num_states
        self._parents = parents
        self._labels = labels
        self._evaluator = evaluator
        self._built: dict[int, Witness] = {-1: ()}

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def witness(self, node: str) -> Witness:
        """*node*'s canonical witness: :meth:`witnesses` of one node."""
        return self.witnesses((node,))[0]

    def witnesses(self, nodes: Iterable[str]) -> list[Witness]:
        """The canonical witnesses of *nodes*, each an answer (``KeyError``
        otherwise), counted in the evaluator's ``witnesses_built``.  A
        built witness is kept per pair, so answers along one path share
        its prefixes."""
        pairs, built, build = self._pairs, self._built, self._build
        witnesses = [built.get(pair) or build(pair) for pair in map(pairs.__getitem__, nodes)]
        self._evaluator.witnesses_built += len(witnesses)
        return witnesses

    def _build(self, pair: int) -> Witness:
        built, parents = self._built, self._parents
        unbuilt = []                          # pairs up to a built one, deepest first
        while pair not in built:
            parent = parents[pair]
            if parent < 0:
                built[pair] = ()              # a seed: the empty path
                break
            unbuilt.append(pair)
            pair = parent
        witness = built[pair]
        if unbuilt:
            names, keys, num_states = self._names, self._keys, self._num_states
            labels = self._labels
            source = names[keys[pair] // num_states]
            for pair in reversed(unbuilt):
                target = names[keys[pair] // num_states]
                witness += ((source, labels[pair], target),)
                built[pair] = witness
                source = target
        return witness


class WalkedAnswers(dict):
    """Answers whose witnesses the walk built as it went: node -> witness.

    The ancestry closure's (``part_of*``): every answer lies on a seed's
    parent chain, which the walk climbs to its root anyway to count its
    steps, so a witness costs one tuple per step of that climb — less than
    keeping pairs to build it from later, and the answers are a few chains
    of the tree's depth.  Read like :class:`ReachAnswers`.
    """

    __slots__ = ("_evaluator",)

    def __init__(self, evaluator: "RpqEvaluator") -> None:
        super().__init__()
        self._evaluator = evaluator

    def witness(self, node: str) -> Witness:
        """*node*'s canonical witness: :meth:`witnesses` of one node."""
        return self.witnesses((node,))[0]

    def witnesses(self, nodes: Iterable[str]) -> list[Witness]:
        """The witnesses of *nodes*, counted in ``witnesses_built``."""
        witnesses = list(map(self.__getitem__, nodes))
        self._evaluator.witnesses_built += len(witnesses)
        return witnesses


# ------------------------------------------------------------------ #
# local evaluation
# ------------------------------------------------------------------ #
class RpqEvaluator:
    """Evaluate compiled REACH automata over an :class:`AdjacencyIndex`.

    Single-label closures over forest-shaped predicates take the interval
    fast path (parent-chain walks and preorder range scans — counted in
    ``interval_hits``); everything else runs the adjacency product BFS
    (``product_runs``).  Both produce identical answers and canonical
    witnesses; only the reported expansion count differs, because the fast
    path genuinely does less work.  ``witnesses_built`` counts the
    witnesses the answers handed out: built on demand, or for ancestry
    (:class:`WalkedAnswers`) as the walk went.
    """

    def __init__(self, adjacency: AdjacencyIndex) -> None:
        self.adjacency = adjacency
        self.interval_hits = 0
        self.product_runs = 0
        self.witnesses_built = 0

    def evaluate(
        self,
        feed: str,
        seeds: Iterable[str],
        automaton: Automaton,
        closure: tuple[str, bool, bool] | None = None,
    ) -> tuple[ReachAnswers | WalkedAnswers, int]:
        """Every reachable answer (witnesses on demand) plus the expansion count.

        *closure* (from :func:`single_label_closure`) enables the interval
        fast path; it silently falls back to the product BFS when the
        predicate is not forest-shaped in this feed.
        """
        ordered = sorted(set(seeds))
        graph = self.adjacency.graph(feed)
        if closure is not None and graph is not None:
            interval = self.adjacency.interval_index(feed, closure[0])
            if interval is not None:
                self.interval_hits += 1
                return self._evaluate_closure(graph, interval, ordered, closure)
        self.product_runs += 1
        return self._evaluate_product(graph, ordered, automaton)

    def _evaluate_product(
        self, graph: _FeedGraph | None, seeds: list[str], automaton: Automaton
    ) -> tuple[ReachAnswers, int]:
        """Product BFS over ``ordinal * num_states + state`` pair keys; the
        expansion count is the number of pairs reached, each expanded once.

        Seeds enter in name order and each pair's edges are walked in
        ``(label, target name)`` order, so the FIFO queue holds every round
        in canonical-witness order: a pair's first discovery is its least
        shortest witness, and a node's first accepting pair its answer.
        """
        num_states = automaton.num_states
        start = automaton.start
        accepting = automaton.accepting
        names: Sequence[str] = graph.names if graph is not None else ()
        ids = graph.ids if graph is not None else {}
        answers: dict[str, int] = {}
        keys: list[int] = []
        parents: list[int] = []
        labels: list[str] = []
        absent = 0
        for seed in seeds:
            ordinal = ids.get(seed)
            if start in accepting:
                answers[seed] = -1            # the empty path
            if ordinal is None:
                absent += 1                   # no edges: nothing to expand
                continue
            keys.append(ordinal * num_states + start)
            parents.append(-1)
            labels.append("")
        if graph is None:
            return ReachAnswers(answers, names, keys, num_states, parents, labels, self), absent
        # Per state, its moves with the rows they read, in label order.
        moves = [
            [
                (rows, edge_label(predicate, inverse), target_state, target_state in accepting)
                for predicate, inverse, target_state in edges
                if (rows := (graph.reverse if inverse else graph.forward).get(predicate))
            ]
            for edges in automaton.transitions
        ]
        by_name = names.__getitem__
        seen = set(keys)
        see, add_key, add_parent, add_label = seen.add, keys.append, parents.append, labels.append
        for pair, key in enumerate(keys):     # grows while it is walked
            ordinal, state = divmod(key, num_states)
            for rows, label, target_state, accepts in moves[state]:
                row = rows.get(ordinal)
                if row is None:               # not `not row`: ordinal 0 is a row
                    continue
                for target in (row,) if row.__class__ is int else sorted(row, key=by_name):
                    target_key = target * num_states + target_state
                    if target_key in seen:
                        continue
                    see(target_key)
                    if accepts:
                        answers.setdefault(names[target], len(keys))
                    add_key(target_key)
                    add_parent(pair)
                    add_label(label)
        return ReachAnswers(answers, names, keys, num_states, parents, labels, self), (
            len(keys) + absent
        )

    def _evaluate_closure(
        self,
        graph: _FeedGraph,
        interval: IntervalIndex,
        seeds: list[str],
        closure: tuple[str, bool, bool],
    ) -> tuple[ReachAnswers | WalkedAnswers, int]:
        """A single-label closure over a forest; the expansion count is the
        walk steps: each seed's whole parent chain (ancestry), or each
        reached node's chain up to its nearest seed ancestor (descendants).

        A node's answer is its shortest chain from a seed, ties going to
        the least seed name.  Descendants' pairs are node ordinals, and an
        answer builds nothing until its witness is asked for.
        """
        predicate, inverse, include_zero = closure
        label = edge_label(predicate, inverse)
        ids, names, parent_of = graph.ids, graph.names, interval.parent
        steps = 0
        if not inverse:
            # Ancestry (`part_of*`): climb each seed's parent chain, its
            # witness growing one edge a step; a node keeps the shortest,
            # ties going to the lexicographically least.
            walked = WalkedAnswers(self)
            if include_zero:
                walked.update(dict.fromkeys(seeds, ()))
            for seed in seeds:
                witness: Witness = ()
                name, current = seed, ids.get(seed)
                while (current := parent_of.get(current)) is not None:
                    parent_name = names[current]
                    witness += ((name, label, parent_name),)
                    steps += 1
                    held = walked.get(parent_name)
                    if held is None or (len(witness), witness) < (len(held), held):
                        walked[parent_name] = witness
                    name = parent_name
            return walked, steps

        answers: dict[str, int] = dict.fromkeys(seeds, -1) if include_zero else {}
        keys: list[int] = []
        parents: list[int] = []
        # Descendants (`^part_of*`): the seeds' preorder ranges, each nested
        # range skipped, walked in preorder, so a node's parent is walked
        # before it; a node's chain is its parent's plus one edge, or one
        # edge under a seed.
        seed_pairs: dict[int, int] = {}
        for seed in seeds:
            ordinal = ids.get(seed)
            if ordinal is not None and ordinal in interval.pre:
                seed_pairs[ordinal] = len(keys)
                keys.append(ordinal)
                parents.append(-1)
        chains: dict[int, tuple[int, int]] = {}   # non-seed node -> (pair, chain length)
        walked = -1
        for seed_ordinal in sorted(seed_pairs, key=interval.pre.__getitem__):
            if interval.pre[seed_ordinal] <= walked:
                continue                      # inside a range already walked
            walked = interval.end[seed_ordinal]
            for ordinal in interval.descendants(seed_ordinal):
                is_seed = ordinal in seed_pairs
                if is_seed and include_zero:
                    continue                  # answered with the empty path
                up = parent_of.get(ordinal)
                if up is None:
                    continue                  # a root seed: no seed above it
                if up in seed_pairs:
                    parent, length = seed_pairs[up], 1
                elif up in chains:
                    parent, length = chains[up]
                    length += 1
                else:
                    # A seed under no seed: its whole chain is walked in vain.
                    length = 1
                    while (up := parent_of.get(up)) is not None:
                        length += 1
                    steps += length
                    continue
                steps += length
                pair = len(keys)
                keys.append(ordinal)
                parents.append(parent)
                answers[names[ordinal]] = pair
                if not is_seed:
                    chains[ordinal] = (pair, length)
        return ReachAnswers(answers, names, keys, 1, parents, [label] * len(keys), self), steps


# ------------------------------------------------------------------ #
# the naive BFS reference (equivalence oracle and benchmark baseline)
# ------------------------------------------------------------------ #
def naive_rpq(
    documents: Iterable,
    seeds: Iterable[str],
    automaton: Automaton,
    feed: str = "",
) -> tuple[dict[str, Witness], int]:
    """Reference evaluation: rebuild plain adjacency, run a set-based BFS.

    Deliberately independent of :class:`AdjacencyIndex` — the edge relation
    is re-derived from the documents on every call and expansion uses plain
    dict-of-set adjacency, so the seeded equivalence suite genuinely tests
    the compact adjacency and interval machinery against first principles.
    Same round-synchronised BFS, same canonical witnesses.
    """
    forward: dict[str, dict[str, set[str]]] = {}
    reverse: dict[str, dict[str, set[str]]] = {}
    for document in documents:
        feed_key, node = document_feed_node(document)
        if feed_key != feed:
            continue
        for predicate, target in document_edges(document):
            forward.setdefault(predicate, {}).setdefault(node, set()).add(target)
            reverse.setdefault(predicate, {}).setdefault(target, set()).add(node)

    ordered = sorted(set(seeds))
    visited: dict[tuple[str, int], Witness] = {
        (node, automaton.start): () for node in ordered
    }
    frontier: list[tuple[str, int, Witness]] = [(node, automaton.start, ()) for node in ordered]
    expanded = 0
    while frontier:
        expanded += len(frontier)
        candidates: list[tuple[str, int, Witness]] = []
        for node, state, witness in frontier:
            for predicate, inverse, next_state in automaton.transitions[state]:
                rows = reverse.get(predicate) if inverse else forward.get(predicate)
                if not rows:
                    continue
                label = ("^" + predicate) if inverse else predicate
                for target in sorted(rows.get(node, ())):
                    candidates.append(
                        (target, next_state, witness + ((node, label, target),))
                    )
        best: dict[tuple[str, int], Witness] = {}
        for node, state, witness in candidates:
            key = (node, state)
            if key in visited:
                continue
            if key not in best or witness < best[key]:
                best[key] = witness
        visited.update(best)
        frontier = [(node, state, witness) for (node, state), witness in sorted(best.items())]
    answers: dict[str, Witness] = {}
    for (node, state), witness in visited.items():
        if state not in automaton.accepting:
            continue
        if node not in answers or (len(witness), witness) < (
            len(answers[node]),
            answers[node],
        ):
            answers[node] = witness
    return answers, expanded
