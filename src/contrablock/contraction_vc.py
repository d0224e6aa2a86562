"""Deciding whether k edge contractions can drop the vertex cover number by d.

The solver follows a branch cascade: a trivial refusal when k < d, a cheap
yes when the bipartite contraction number is at least d, a component DP when
every component has a small cover, a guaranteed witness when k >= 2d, and a
bounded enumeration with a bipartite modulator otherwise.  One cascade serves
``algorithm1`` and both ``min_contract_*`` functions, and the component DP is
one forward pass over the components.
"""

from __future__ import annotations

import math
from itertools import combinations

from .bipartite_contraction import bc_decide
from .graphs import (
    Edge,
    Graph,
    _class_map,
    bfs,
    connected_components,
    contract_keeping_ids,
    contract_set,
    forest_sets,
    induced_subgraph,
    is_connected,
)
from .vertex_cover import _augment, _modulator_setup, _modulator_splits, vc_branching

TRACES = (
    "trivial-no",
    "bc-large",
    "small-components",
    "lemma3-budget",
    "enumeration-yes",
    "enumeration-no",
)


class Decision:
    """The answer, its witness edges (None for NO) and the cascade branch,
    ``trace``, that decided it.

    ``witness`` may also be given as a function of no arguments; it is called
    on the first read of ``.witness``, so a caller that never reads the
    witness never pays for it.  Decisions compare by value either way.
    """

    __slots__ = ("answer", "trace", "_witness")

    def __init__(self, answer: bool, witness, trace: str):
        if trace not in TRACES:
            raise ValueError(f"unknown trace {trace!r}")
        for name, value in (("answer", answer), ("trace", trace), ("_witness", witness)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Decision is immutable: cannot set {name!r}")

    @property
    def witness(self) -> tuple[Edge, ...] | None:
        if callable(self._witness):
            object.__setattr__(self, "_witness", self._witness())
        return self._witness

    def __eq__(self, other):
        if not isinstance(other, Decision):
            return NotImplemented
        return (self.answer, self.trace, self.witness) == (other.answer, other.trace, other.witness)

    def __hash__(self):
        return hash((self.answer, self.trace))  # equal decisions share these

    def __repr__(self):
        return f"Decision(answer={self.answer!r}, witness={self.witness!r}, trace={self.trace!r})"


def _spanning_forest_witness(g: Graph, d: int) -> tuple[Edge, ...]:
    """d BFS spanning-forest edges of the cover-induced monochromatic
    components; contracting them merges d pairs of cover vertices, dropping
    the cover number by d.  Valid whenever the coloring cost is >= d."""
    cover = vc_branching(g).cover
    forest = bfs(g.adj, sorted(cover), cover)
    edges = [(min(p, v), max(p, v)) for v, p in forest.items() if p != -1]
    if len(edges) < d:
        raise RuntimeError("cover components too small for the requested drop")
    return tuple(edges[:d])


def contraction_vc_1(g: Graph) -> Decision:
    """Exact answer for one contraction / drop one: ``algorithm1`` at
    k = d = 1, where every branch of the cascade is polynomial."""
    return algorithm1(g, 1, 1)


def two_approx_drop(g: Graph, component, d: int) -> list[Edge]:
    """At most 2d edges of one component whose contraction drops the cover
    number by at least d.

    Each of d rounds finds two minimum-cover vertices within distance two
    (an edge inside the cover, else a shared outside neighbor) and contracts
    the connecting path, which loses one cover vertex per round.
    """
    if d < 1:
        raise ValueError("drop must be positive")
    comp = sorted(set(component))
    if comp not in connected_components(g):
        raise ValueError("vertex set is not a connected component of the graph")
    before = vc_branching(g, allowed=comp)
    if before.size <= d:
        raise ValueError("component cover number must exceed the requested drop")

    initial = before.size
    all_edges = g.sorted_edges()
    q, cls, alive = g, range(g.n), comp
    chosen: list[Edge] = []
    while initial - before.size < d:  # a two-edge round may overshoot by one
        cover = before.cover
        picks = next(([(u, w)] for u in sorted(cover) for w in sorted(q.adj[u] & cover) if u < w), None)
        if picks is None:
            for w in sorted(alive):
                if w in cover:
                    continue
                inb = sorted(x for x in q.adj[w] if x in cover)
                if len(inb) >= 2:
                    picks = [(min(inb[0], w), max(inb[0], w)), (min(inb[1], w), max(inb[1], w))]
                    break
        if picks is None:
            raise RuntimeError(
                "a connected graph with cover >= 2 has two cover vertices within distance two"
            )
        for a, b in picks:  # the first original edge onto each picked quotient edge
            chosen.append(next(e for e in all_edges if {cls[e[0]], cls[e[1]]} == {a, b}))
        cls = _class_map(g, chosen)
        q = contract_keeping_ids(g, cls)
        alive = {cls[v] for v in comp}
        after = vc_branching(q, allowed=alive)
        if after.size > before.size - 1:
            raise RuntimeError("a round must lose a cover vertex")
        before = after
    return chosen


def _lp_exceeds(edges, cls, budget: int) -> bool:
    """Whether the vertex-cover LP optimum of the quotient that ``cls`` maps
    ``edges`` onto exceeds ``budget``; the cover number is at least that
    optimum, so then no cover of the quotient fits the budget.

    Cheap answers come first.  At most 2 * budget classes fit, each at
    value 1/2.  A greedy maximal matching with more than ``budget`` edges
    does not, since each of its edges needs its own cover vertex, and one
    whose ends number at most ``budget`` fits, since its ends cover the
    quotient.  Otherwise the LP optimum is half a maximum matching of the
    quotient's bipartite double cover (Nemhauser and Trotter), on which
    each of the n = len(cls) vertices a is a on the left and n + a on the
    right: the doubled greedy matching is grown there by ``_augment``,
    which stops once it has more than 2 * budget pairs."""
    n = len(cls)
    if len(set(cls)) <= 2 * budget:
        return False
    partner: dict[int, int] = {}
    for u, v in edges:
        a, b = cls[u], cls[v]
        if a != b and a not in partner and b not in partner:
            partner[a], partner[b] = b, a
            if len(partner) > 2 * budget:
                return True
    if len(partner) <= budget:
        return False
    double: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        a, b = cls[u], cls[v]
        if a != b:
            double[a].add(n + b)
            double[b].add(n + a)
    match = {}
    for a, b in partner.items():
        match[a], match[n + b] = n + b, a
    _augment(double, range(n), frozenset(range(2 * n)), match, 2 * budget)
    return len(match) > 4 * budget


def _first_drop(g: Graph, sizes, target: int, fits) -> tuple[Edge, ...] | None:
    """The first edge set ``f``, by size from ``sizes`` and then in sorted
    order, with ``fits(f, cls)``, or None; ``cls`` is the class map of f's
    contraction as ``forest_sets`` holds it, so no quotient is built here.

    Only acyclic sets are walked (``forest_sets``): a set with an edge that
    closes a cycle has the quotient of a smaller set, which either was tried
    already or is too small.  The walk is cut by the LP bound
    (``_lp_exceeds``), so ``fits`` is never asked of a set whose quotient's
    LP optimum exceeds ``target``.  One contraction lowers that optimum by
    at most one (a fractional cover of the quotient lifts back, both ends
    taking the merged vertex's value), so a prefix that still has r edges
    to add is cut with all its extensions when its optimum exceeds
    ``target + r``.  No set that fits is cut, so the first one is the
    first of the uncut walk."""
    edges = g.sorted_edges()
    for size in sizes:
        for f, cls in forest_sets(g, size, lambda cls, r: _lp_exceeds(edges, cls, target + r)):
            if fits(f, cls):
                return f
    return None


def _component_opt(c: Graph, d_prime: int, paper_convention: bool, vc_c: int | None = None):
    """(minimum contraction count, witness) for dropping the cover of one
    connected component by d_prime; (inf, None) when unattainable.  ``vc_c``
    is c's cover number when the caller already knows it."""
    if d_prime < 0:
        raise ValueError("drop must be non-negative")
    if not is_connected(c):
        raise ValueError("component must be connected")
    if d_prime == 0:
        return 0, ()
    if vc_c is None:
        vc_c = vc_branching(c).size
    if vc_c < d_prime or (paper_convention and vc_c == d_prime):
        return math.inf, None
    if vc_c == d_prime:
        # Only collapsing the component to a single vertex eliminates the
        # whole cover, so the minimum is a spanning tree.
        tree = [(min(p, v), max(p, v)) for v, p in bfs(c.adj, [0]).items() if p != -1]
        return len(tree), tuple(tree)
    target = vc_c - d_prime
    sizes = range(d_prime, min(2 * d_prime, c.m) + 1)  # each contraction drops the cover by <= 1
    f = _first_drop(c, sizes, target,
                    lambda _, cls: vc_branching(contract_keeping_ids(c, cls), budget=target) is not None)
    if f is not None:
        return len(f), f
    raise RuntimeError("a drop of d' needs at most 2d' contractions when vc > d'")


def component_opt(c: Graph, d_prime: int, paper_convention: bool = False):
    """Minimum edges to drop one component's cover number by d_prime, or
    infinity when impossible.  Under ``paper_convention`` the boundary
    d_prime == vc(c) also reports infinity instead of the spanning tree."""
    return _component_opt(c, d_prime, paper_convention)[0]


def _dp_with_witness(g: Graph, d: int, paper_convention: bool, sizes):
    """(minimum count, sorted witness) for dropping the cover number by d,
    split over components whose cover numbers are all at most d; (inf, None)
    when no split is attainable.  ``sizes`` holds those cover numbers in
    ``connected_components`` order, as ``_large_component`` finds them; at
    d = 0 every share is 0 and none is read.  One forward pass over the
    components keeps ``best[j]``, the cheapest drop of j so far; each j
    tries its component's share q in ascending order and keeps the first
    strict minimum.

    A component's optimum is finite for q up to its cover number (one less
    under ``paper_convention``) and inf above, so ``opts`` stops at the first
    inf and ``best`` only holds the drops reachable so far, all finite: the
    work follows the cover numbers, not d."""
    if d < 0:
        raise ValueError("drop must be non-negative")
    best = [(0, ())]
    for comp, vc_sub in zip(connected_components(g), sizes):
        sub, old = induced_subgraph(g, comp)
        opts = []
        for q in range(d + 1):
            val, wit = _component_opt(sub, q, paper_convention, vc_sub)
            if math.isinf(val):
                break
            opts.append((val, tuple((min(old[a], old[b]), max(old[a], old[b])) for a, b in wit)))
        step = []
        for j in range(min(d, len(best) + len(opts) - 2) + 1):
            cand = (math.inf, None)
            for q in range(max(0, j - len(best) + 1), min(j, len(opts) - 1) + 1):
                count, edges = best[j - q]
                val, wit = opts[q]
                if count + val < cand[0]:
                    cand = count + val, edges + wit
            step.append(cand)
        best = step
    if len(best) <= d:
        return math.inf, None
    count, edges = best[d]
    return count, tuple(sorted(edges))


def _large_component(g: Graph, d: int) -> tuple[list[int] | None, list[int]]:
    """(the first component whose cover number exceeds d, or None, and the
    cover numbers of the components before it)."""
    sizes = []
    for comp in connected_components(g):
        cover = vc_branching(g, d, comp)
        if cover is None:
            return comp, sizes
        sizes.append(cover.size)
    return None, sizes


def dp_min_contract(g: Graph, d: int, paper_convention: bool = False):
    """Minimum contraction count over a graph whose components all have cover
    number <= d, combined across components by a drop-allocation DP."""
    big, sizes = _large_component(g, d)
    if d > 0 and big is not None:
        raise ValueError("every component must have cover number at most the drop")
    return _dp_with_witness(g, d, paper_convention, sizes)[0]


def _class_decision(g: Graph, anchors, budget: int, rest, left, start):
    """``fits(f, cls)``: whether contracting the edge set ``f``, whose class
    map is ``cls``, leaves a vertex cover of at most ``budget``.  ``rest``,
    ``left`` and ``start`` are ``_modulator_setup``'s colouring and
    matching of ``g - anchors``, made once for every set.

    Each class of two or more vertices holds an edge of f, so every vertex
    outside ``anchors`` and V(f) is a class of its own: the quotient minus
    the classes of those vertices is ``g`` minus them, a bipartite induced
    subgraph of ``g - anchors``.  Those classes are the modulator, and the
    split loop takes the set-up of ``g - anchors`` as built."""

    def fits(f, cls):
        groups: dict[int, list[int]] = {}
        for v in sorted(set(anchors).union(*f)):
            groups.setdefault(cls[v], []).append(v)
        return any(True for _ in _modulator_splits(g, list(groups.values()), budget, rest, left, start))

    return fits


def _enumerate(g: Graph, k: int, d: int, low_bc_witness) -> tuple[Edge, ...] | None:
    """The first edge set of at most k edges, by size and then in sorted
    order, whose contraction drops the cover number by d, or None.  Every
    cover question goes through the modulator built from the bc witness
    plus merged classes, over one colouring and matching of g minus the
    witness ends: g's own cover number is the smallest split of the
    anchors, and each edge set only asks, on g, whether the cover of its
    contraction fits the target."""
    anchors = sorted({v for e in low_bc_witness for v in e})
    groups = [[v] for v in anchors]
    setup = _modulator_setup(g, groups)
    target = min(size for size, _, _ in _modulator_splits(g, groups, g.n, *setup)) - d
    fits = _class_decision(g, anchors, target, *setup)
    return _first_drop(g, range(d, k + 1), target, fits)  # each contraction drops the cover by <= 1


def _cascade(g: Graph, k: int, d: int, paper_convention: bool):
    """(count, witness, trace) of the cascade for k >= d >= 1: d when bc >= d,
    the component DP when every component has cover <= d, the size of
    two_approx_drop when k >= 2d (Lemma 3), and otherwise the size of the
    first set the enumeration finds at k, or k + 1 when it finds none; inf
    when vc < d, before any search that grows with d."""
    if vc_branching(g, d - 1) is not None:
        return math.inf, None, "small-components"
    low_bc_witness = bc_decide(g, d - 1)
    if low_bc_witness is None:
        return d, lambda: _spanning_forest_witness(g, d), "bc-large"  # fewer than d never drop by d
    big, sizes = _large_component(g, d)
    if big is None:
        return (*_dp_with_witness(g, d, paper_convention, sizes), "small-components")
    if k >= 2 * d:
        witness = tuple(two_approx_drop(g, big, d))
        return len(witness), witness, "lemma3-budget"
    witness = _enumerate(g, k, d, low_bc_witness)
    if witness is None:
        return k + 1, None, "enumeration-no"
    return len(witness), witness, "enumeration-yes"


def algorithm1(g: Graph, k: int, d: int) -> Decision:
    """Exact decision: can k contractions drop the cover number by d?"""
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive")
    if k < d:
        return Decision(False, None, "trivial-no")
    count, witness, trace = _cascade(g, k, d, paper_convention=False)
    if count > k:
        return Decision(False, None, trace)
    return Decision(True, witness, trace)


def _min_contract(g: Graph, d: int, paper_convention: bool, approx: bool) -> int | None:
    """The cascade's count at k = 2d - 1, where no set found means 2d by
    Lemma 3, or under ``approx`` at k = 2d, the size of two_approx_drop.
    When vc < d the cascade answers inf after one cover search bounded by
    d - 1, however large d is."""
    if d < 1:
        raise ValueError("drop must be positive")
    count = _cascade(g, 2 * d if approx else 2 * d - 1, d, paper_convention)[0]
    return None if math.isinf(count) else count


def min_contract_vc(g: Graph, d: int, paper_convention: bool = False) -> int | None:
    """Exact minimum contraction count for a drop of d, or None when even a
    full collapse cannot drop the cover number by d.  ``paper_convention``
    only changes the small-component optimum."""
    return _min_contract(g, d, paper_convention, approx=False)


def min_contract_2approx(g: Graph, d: int, paper_convention: bool = False) -> int | None:
    """Factor-2 estimate of the minimum contraction count for a drop of d;
    exact on every branch except the large-component one.  None when even a
    full collapse cannot drop the cover number by d."""
    return _min_contract(g, d, paper_convention, approx=True)


def brute_min_contract(g: Graph, d: int, cap: int, paper_convention: bool = False) -> int | None:
    """Ground-truth oracle: exhaustive minimum |F| with |F| <= cap such that
    the cover number of g/F drops by at least d, or None past the cap."""
    if d < 1:
        raise ValueError("drop must be positive")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    all_edges = g.sorted_edges()
    vcg = vc_branching(g).size
    comp_data = None
    if paper_convention:
        comp_data = []
        for comp in connected_components(g):
            sub, old = induced_subgraph(g, comp)
            pos = {v: i for i, v in enumerate(old)}
            comp_data.append((sub, pos, vc_branching(sub).size))
    for size in range(1, min(cap, len(all_edges)) + 1):
        for f in combinations(all_edges, size):
            if paper_convention:
                usable = 0
                for sub, pos, vc_i in comp_data:
                    if vc_i == 0:
                        continue
                    local = [(pos[u], pos[v]) for u, v in f if u in pos and v in pos]
                    if not local:
                        continue
                    drop = vc_i - vc_branching(contract_set(sub, local).quotient).size
                    usable += min(drop, vc_i - 1)
                if usable >= d:
                    return size
            else:
                q = contract_set(g, f).quotient
                if vc_branching(q, budget=vcg - d) is not None:
                    return size
    return None
