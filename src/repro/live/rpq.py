"""Regular path query evaluation over compressed adjacency bitmaps.

This module gives the KGQ REACH clause (:mod:`repro.live.kgq`) its runtime:

* **Automaton compilation** — a REACH expression compiles through a Thompson
  construction into an epsilon-free NFA (:func:`compile_automaton`), so
  evaluation is a product construction over (node, automaton-state) pairs and
  never re-interprets the regex.
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

The product BFS of :class:`RpqEvaluator` is round-synchronised
(:func:`expand_product_entries`, :func:`merge_frontier`,
:func:`accepting_answers`); primary and replicas run the same evaluator, a
replica over the ``view:X`` feed of the view it serves.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.live.kgq import RpqAlt, RpqConcat, RpqExpr, RpqLabel, RpqPlus, RpqStar

#: One provenance witness: a tuple of (src, rendered label, dst) edge triples.
Witness = tuple[tuple[str, str, str], ...]

#: One frontier entry of the product BFS: (node, automaton state, witness).
FrontierEntry = tuple[str, int, Witness]


# ------------------------------------------------------------------ #
# automaton compilation (Thompson construction, epsilon-eliminated)
# ------------------------------------------------------------------ #
class Automaton:
    """Epsilon-free NFA over edge labels, compiled from a REACH expression.

    ``transitions`` maps each state to its outgoing ``(predicate, inverse,
    next_state)`` edges; states are numbered compactly in a deterministic
    BFS order from ``start``, so the same expression compiles to the same
    automaton in every process — a requirement for distributed evaluation,
    where primary and replicas must agree on state identity.
    """

    __slots__ = ("start", "accepting", "transitions", "num_states")

    def __init__(
        self,
        start: int,
        accepting: frozenset[int],
        transitions: dict[int, tuple[tuple[str, bool, int], ...]],
        num_states: int,
    ) -> None:
        self.start = start
        self.accepting = accepting
        self.transitions = transitions
        self.num_states = num_states

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


def compile_automaton(expr: RpqExpr) -> Automaton:
    """Compile a REACH expression into an epsilon-free :class:`Automaton`."""
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
                outgoing = by_source.setdefault(state, set())
                for landed in sorted(closures[target]):
                    outgoing.add((predicate, inverse, landed))

    # Keep only states reachable from the start, renumbered in BFS order
    # (edges explored in sorted label order) for cross-process determinism.
    order: dict[int, int] = {start: 0}
    queue = [start]
    while queue:
        state = queue.pop(0)
        for predicate, inverse, target in sorted(by_source.get(state, ())):
            if target not in order:
                order[target] = len(order)
                queue.append(target)
    transitions = {
        order[state]: tuple(
            (predicate, inverse, order[target])
            for predicate, inverse, target in sorted(by_source.get(state, ()))
            if target in order
        )
        for state in order
    }
    accepting = frozenset(
        order[state] for state in order if accept in closures[state]
    )
    return Automaton(
        start=0,
        accepting=accepting,
        transitions={state: edges for state, edges in transitions.items() if edges},
        num_states=len(order),
    )


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
        self.mutations = 0

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
    encodings are derived state: a change to a feed's edges bumps its
    mutation counter, and :meth:`interval_index` rebuilds lazily when its
    stamp is stale — so a shipped delta that moves an edge drops the
    encoding, and one that moves none keeps it.
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
        if gone or new:
            graph.mutations += 1

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
        graph.mutations += 1

    def graph(self, feed: str) -> _FeedGraph | None:
        """The raw feed graph (``None`` when the feed asserted no edges)."""
        return self._feeds.get(feed)

    def interval_index(self, feed: str, predicate: str) -> IntervalIndex | None:
        """The (lazily rebuilt) interval encoding, ``None`` when not a forest."""
        graph = self._feeds.get(feed)
        if graph is None:
            return None
        key = (feed, predicate)
        cached = self._intervals.get(key)
        if cached is not None and cached[0] == graph.mutations:
            return cached[1]
        built = _build_interval_index(graph, predicate)
        self._intervals[key] = (graph.mutations, built)
        self.interval_builds += 1
        return built


# ------------------------------------------------------------------ #
# the product BFS, one round at a time
# ------------------------------------------------------------------ #
def expand_product_entries(
    graph: _FeedGraph | None, automaton: Automaton, entries: Iterable[FrontierEntry]
) -> list[FrontierEntry]:
    """One product-BFS step: every successor of every frontier entry.

    Successor sets come from the bitmap rows (forward for plain labels,
    reverse for ``^label``); each candidate's witness is the entry's witness
    *times* (concatenated with) the traversed edge.
    """
    candidates: list[FrontierEntry] = []
    if graph is None:
        return candidates
    names = graph.names
    for node, state, witness in entries:
        edges = automaton.transitions.get(state)
        if not edges:
            continue
        ordinal = graph.ids.get(node)
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
                target_name = names[target]
                candidates.append(
                    (target_name, next_state, witness + ((node, label, target_name),))
                )
    return candidates


def merge_frontier(
    visited: dict[tuple[str, int], Witness], candidates: Iterable[FrontierEntry]
) -> list[FrontierEntry]:
    """Semiring *plus* over one round: keep the least witness per new pair.

    Every candidate in a round has the same path length, so plain tuple
    comparison picks the lexicographically least witness — and because all
    shortest paths to a pair arrive in the same round (BFS), the survivor is
    the canonical witness regardless of candidate order.  Already-visited
    pairs are dropped (their canonical witness is shorter).  The new pairs
    are folded into *visited* and returned, sorted, as the next frontier.
    """
    best: dict[tuple[str, int], Witness] = {}
    for node, state, witness in candidates:
        key = (node, state)
        if key in visited:
            continue
        held = best.get(key)
        if held is None or witness < held:
            best[key] = witness
    visited.update(best)
    return [(node, state, witness) for (node, state), witness in sorted(best.items())]


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


def initial_frontier(
    seeds: Iterable[str], automaton: Automaton
) -> tuple[dict[tuple[str, int], Witness], list[FrontierEntry]]:
    """Round-zero state: every seed at the start state with the empty witness."""
    ordered = sorted(set(seeds))
    visited = {(node, automaton.start): () for node in ordered}
    return visited, [(node, automaton.start, ()) for node in ordered]


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
        graph = self.adjacency.graph(feed)
        visited, frontier = initial_frontier(seeds, automaton)
        expanded = 0
        while frontier:
            expanded += len(frontier)
            candidates = expand_product_entries(graph, automaton, frontier)
            frontier = merge_frontier(visited, candidates)
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
            for predicate, inverse, next_state in automaton.transitions.get(state, ()):
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
