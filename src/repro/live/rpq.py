"""Regular path query evaluation over compressed adjacency bitmaps.

This module gives the KGQ REACH clause (:mod:`repro.live.kgq`) its runtime:

* **Automaton compilation** — a REACH expression compiles through a Thompson
  construction and epsilon elimination into an NFA (:func:`compile_nfa`),
  then by subset construction and Moore refinement into its minimal DFA
  (:func:`compile_automaton`, memoised per expression), so evaluation is a
  product construction over (node, DFA-state) pairs, never re-interprets the
  regex, and reaches each node in as few states as the language allows.
* **Per-predicate compressed adjacency** — :class:`AdjacencyIndex` maintains,
  per feed and per edge label, forward and reverse adjacency rows as packed
  bitsets (arbitrary-precision ints over dense node ordinals), kept
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

The product BFS of :class:`RpqEvaluator` is round-synchronised: a round
drops every already-visited pair before it builds anything, keeps the least
``(parent witness, edge)`` per new pair, and builds one witness tuple per
survivor (:func:`accepting_answers` projects the visited pairs onto
answers).  Primary and replicas run the same evaluator, a replica over the
``view:X`` feed of the view it serves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Container, Iterable, Iterator

from repro.live.kgq import RpqAlt, RpqConcat, RpqExpr, RpqLabel, RpqPlus, RpqStar

#: One provenance witness: a tuple of (src, rendered label, dst) edge triples.
Witness = tuple[tuple[str, str, str], ...]

#: One frontier entry of the product BFS: (node, automaton state, witness).
FrontierEntry = tuple[str, int, Witness]


# ------------------------------------------------------------------ #
# automaton compilation (Thompson, epsilon elimination, minimal DFA)
# ------------------------------------------------------------------ #
#: How many compiled expressions :func:`compile_automaton` keeps.  A REACH
#: text names its seeds inline, so texts rarely repeat, but a workload holds
#: only a handful of distinct expressions.
COMPILED_EXPRESSIONS = 256

#: Outgoing edges of one state: ``(predicate, inverse, next_state)``, sorted.
Transitions = tuple[tuple[str, bool, int], ...]


@dataclass(frozen=True, slots=True)
class Automaton:
    """Finite automaton over edge labels, compiled from a REACH expression.

    ``transitions[state]`` holds the state's outgoing ``(predicate, inverse,
    next_state)`` edges; states are numbered ``0 .. num_states - 1`` in a
    deterministic BFS order from ``start`` (edges explored in sorted label
    order), so the same expression compiles to the same automaton in every
    process — a requirement for distributed evaluation, where primary and
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

    *edges* lists each state's outgoing edges sorted; exploring them in that
    order makes the numbering depend only on the automaton's shape.
    """
    order = {start: 0}
    queue = [start]
    for state in queue:                       # grows while it is walked
        for _, _, target in edges.get(state, ()):
            if target not in order:
                order[target] = len(order)
                queue.append(target)
    return Automaton(
        accepting=frozenset(order[state] for state in queue if state in accepting),
        transitions=tuple(
            tuple(
                (predicate, inverse, order[target])
                for predicate, inverse, target in edges.get(state, ())
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
# compressed adjacency (packed bitsets over dense node ordinals)
# ------------------------------------------------------------------ #
def _iter_bits(bitmap: int) -> Iterator[int]:
    """Set-bit positions of a packed bitset, ascending."""
    while bitmap:
        low = bitmap & -bitmap
        yield low.bit_length() - 1
        bitmap ^= low


class _FeedGraph:
    """One feed's labeled graph: interned nodes + per-predicate bitmap rows."""

    __slots__ = ("ids", "names", "forward", "reverse", "mutations")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        # predicate -> source ordinal -> bitset of target ordinals (and back).
        self.forward: dict[str, dict[int, int]] = {}
        self.reverse: dict[str, dict[int, int]] = {}
        # predicate -> how often its edges changed (interval encoding stamps).
        self.mutations: dict[str, int] = {}

    def touch(self, predicates: Iterable[str]) -> None:
        """Note that edges of each of *predicates* changed."""
        for predicate in predicates:
            self.mutations[predicate] = self.mutations.get(predicate, 0) + 1

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
    parent map answers ancestor chains without touching bitmap rows.
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

    Forest-shaped means functional (every node at most one out-edge) and
    acyclic; DFS order is by node name so the encoding is process-stable.
    """
    rows = graph.forward.get(predicate, {})
    parent: dict[int, int] = {}
    nodes: set[int] = set()
    for source, bitmap in rows.items():
        targets = list(_iter_bits(bitmap))
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
    row = graph.forward.setdefault(predicate, {})
    row[source] = row.get(source, 0) | (1 << target)
    row = graph.reverse.setdefault(predicate, {})
    row[target] = row.get(target, 0) | (1 << source)


def _clear_edge(graph: _FeedGraph, predicate: str, source: int, target: int) -> None:
    for rows, key, bit in ((graph.forward, source, target), (graph.reverse, target, source)):
        row = rows.get(predicate)
        if row is None:
            continue
        remaining = row.get(key, 0) & ~(1 << bit)
        if remaining:
            row[key] = remaining
            continue
        row.pop(key, None)
        if not row:
            del rows[predicate]


class AdjacencyIndex:
    """Per-feed, per-predicate compressed adjacency, incrementally maintained.

    Mirrors the :class:`~repro.live.index.InvertedGraphIndex` maintenance
    discipline: ``index_document`` diffs one document's edges against those
    of the document it replaces (``document.edges()``, cached on the
    immutable document) and sets or clears only the bits that changed, and
    ``remove`` clears exactly the bits the removed document set.  Interval
    encodings are derived state: a change to a feed's edges bumps the
    mutation counter of each predicate it moved, and :meth:`interval_index`
    rebuilds lazily when its stamp is stale — so a shipped delta that moves
    a ``part_of`` edge drops the ``part_of`` encoding, and one that moves
    only edges of other predicates keeps it.
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
        """Clear every bit a held document set."""
        edges = document.edges()
        if not edges:
            return
        feed_key, node = document_feed_node(document)
        graph = self._feeds[feed_key]
        source = graph.ids[node]
        for predicate, target in edges:
            _clear_edge(graph, predicate, source, graph.ids[target])
        graph.touch({predicate for predicate, _ in edges})

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
# the product BFS, one round at a time
# ------------------------------------------------------------------ #
def accepting_answers(
    visited: dict[tuple[str, int], Witness], accepting: frozenset[int]
) -> dict[str, Witness]:
    """Project visited pairs onto accepting states: node -> canonical witness.

    A node reached in several accepting states keeps the shortest witness,
    ties broken lexicographically — the same canonical choice the per-round
    merge makes.
    """
    answers: dict[str, Witness] = {}
    for (node, state), witness in visited.items():
        if state not in accepting:
            continue
        if node not in answers:
            answers[node] = witness
            continue
        held = answers[node]
        if (len(witness), witness) < (len(held), held):
            answers[node] = witness
    return answers


# ------------------------------------------------------------------ #
# local evaluation
# ------------------------------------------------------------------ #
class RpqEvaluator:
    """Evaluate compiled REACH automata over an :class:`AdjacencyIndex`.

    Single-label closures over forest-shaped predicates take the interval
    fast path (parent-chain walks and preorder range scans — counted in
    ``interval_hits``); everything else runs the bitmap product BFS
    (``product_runs``).  Both produce identical answers and canonical
    witnesses; only the reported expansion count differs, because the fast
    path genuinely does less work.
    """

    def __init__(self, adjacency: AdjacencyIndex) -> None:
        self.adjacency = adjacency
        self.interval_hits = 0
        self.product_runs = 0

    def evaluate(
        self,
        feed: str,
        seeds: Iterable[str],
        automaton: Automaton,
        closure: tuple[str, bool, bool] | None = None,
    ) -> tuple[dict[str, Witness], int]:
        """All reachable ``node -> witness`` answers plus the expansion count.

        *closure* (from :func:`single_label_closure`) enables the interval
        fast path; it silently falls back to the product BFS when the
        predicate is not forest-shaped in this feed.
        """
        ordered = sorted(set(seeds))
        if closure is not None:
            fast = self._evaluate_closure(feed, ordered, closure)
            if fast is not None:
                self.interval_hits += 1
                return fast
        self.product_runs += 1
        return self._evaluate_product(feed, ordered, automaton)

    def _evaluate_product(
        self, feed: str, seeds: list[str], automaton: Automaton
    ) -> tuple[dict[str, Witness], int]:
        """Round-synchronised product BFS; the expansion count is the number
        of (node, state) pairs reached, each expanded once."""
        start = automaton.start
        visited: dict[tuple[str, int], Witness] = {(node, start): () for node in seeds}
        frontier: list[FrontierEntry] = [(node, start, ()) for node in seeds]
        expanded = len(frontier)
        graph = self.adjacency.graph(feed)
        if graph is None:
            return accepting_answers(visited, automaton.accepting), expanded
        ids, names = graph.ids, graph.names
        transitions = automaton.transitions
        while frontier:
            # Semiring *plus* over one round: every parent witness in a round
            # has the same length, so the least (parent witness, edge) is the
            # least concatenated witness.  A pair visited in an earlier round
            # has a shorter canonical witness and is skipped before anything
            # is built; each new pair builds its witness tuple once.
            best: dict[tuple[str, int], tuple[Witness, tuple[str, str, str]]] = {}
            for node, state, witness in frontier:
                edges = transitions[state]
                if not edges:
                    continue
                ordinal = ids.get(node)
                if ordinal is None:
                    continue
                for predicate, inverse, next_state in edges:
                    rows = graph.reverse.get(predicate) if inverse else graph.forward.get(predicate)
                    if not rows:
                        continue
                    bitmap = rows.get(ordinal)
                    if not bitmap:
                        continue
                    label = ("^" + predicate) if inverse else predicate
                    for target in _iter_bits(bitmap):
                        key = (names[target], next_state)
                        if key in visited:
                            continue
                        edge = (node, label, key[0])
                        held = best.get(key)
                        if held is None or (witness, edge) < held:
                            best[key] = (witness, edge)
            frontier = []
            for key, (witness, edge) in sorted(best.items()):
                witness = witness + (edge,)
                visited[key] = witness
                frontier.append((key[0], key[1], witness))
            expanded += len(frontier)
        return accepting_answers(visited, automaton.accepting), expanded

    def _evaluate_closure(
        self, feed: str, seeds: list[str], closure: tuple[str, bool, bool]
    ) -> tuple[dict[str, Witness], int] | None:
        predicate, inverse, include_zero = closure
        graph = self.adjacency.graph(feed)
        if graph is None:
            return None
        interval = self.adjacency.interval_index(feed, predicate)
        if interval is None:
            return None
        label = ("^" + predicate) if inverse else predicate
        answers: dict[str, Witness] = {}
        steps = 0

        def offer(node: str, witness: Witness) -> None:
            if node not in answers:
                answers[node] = witness
                return
            held = answers[node]
            if (len(witness), witness) < (len(held), held):
                answers[node] = witness

        if not inverse:
            # Ancestry (`part_of*`): walk each seed's parent chain — the path
            # is unique in a forest, so it is the canonical witness.
            for seed in seeds:
                if include_zero:
                    offer(seed, ())
                witness: Witness = ()
                current = graph.ids.get(seed)
                name = seed
                while current is not None:
                    parent = interval.parent.get(current)
                    if parent is None:
                        break
                    parent_name = graph.names[parent]
                    witness = witness + ((name, label, parent_name),)
                    steps += 1
                    offer(parent_name, witness)
                    current, name = parent, parent_name
            return answers, steps

        # Descendants (`^part_of*`): one preorder range scan per seed, then
        # each reached node's witness is the unique chain down from its
        # nearest seed ancestor (nearest = shortest, hence canonical).
        seed_ordinals = {
            graph.ids[seed] for seed in seeds if seed in graph.ids
        }
        reached: set[int] = set()
        for seed in seeds:
            if include_zero:
                offer(seed, ())
            ordinal = graph.ids.get(seed)
            if ordinal is not None:
                reached.update(interval.descendants(ordinal))
        for ordinal in reached:
            name = graph.names[ordinal]
            if include_zero and ordinal in seed_ordinals:
                continue                      # already answered with ()
            chain: list[tuple[str, str, str]] = []
            current = ordinal
            found = False
            while True:
                parent = interval.parent.get(current)
                if parent is None:
                    break
                chain.append((graph.names[parent], label, graph.names[current]))
                steps += 1
                if parent in seed_ordinals:
                    found = True
                    break
                current = parent
            if found:
                offer(name, tuple(reversed(chain)))
        return answers, steps


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
    the bitmap and interval machinery against first principles.  Same
    round-synchronised BFS, same canonical witnesses.
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
    frontier: list[FrontierEntry] = [(node, automaton.start, ()) for node in ordered]
    expanded = 0
    while frontier:
        expanded += len(frontier)
        candidates: list[FrontierEntry] = []
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
