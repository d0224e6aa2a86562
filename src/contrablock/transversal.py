"""Exact pattern-hitting solvers.

A HitFamily pairs a containment relation with either explicit pattern graphs
or one of three symbolic families: "single-edge" (vertex cover),
"all-cycles" (feedback vertex set), "odd-cycles" (odd cycle transversal).
Symbolic families get dedicated solvers; explicit ones go through generic
occurrence search with branching on the occurrence's vertices.
"""

from __future__ import annotations

import functools
import heapq
import warnings
from dataclasses import dataclass

from .graphs import (
    Edge,
    Graph,
    _class_map,
    bfs,
    bipartition,
    checked_edges,
    checked_vertices,
    components,
    contract_keeping_ids,
    depth_first,
    is_connected,
    shallowest,
    shortest_odd_cycle,
    split_solve,
    tree_cycle,
)
from .vertex_cover import vc_branching

RELATIONS = ("subgraph", "induced-subgraph", "minor", "topological-minor")
SYMBOLIC_FAMILIES = ("single-edge", "all-cycles", "odd-cycles")


def _check_relation(relation: str) -> str:
    if relation not in RELATIONS:
        raise ValueError(f"unknown containment relation {relation!r}")
    return relation


@dataclass(frozen=True)
class HitFamily:
    relation: str
    patterns: tuple[Graph, ...] | str

    def __post_init__(self):
        _check_relation(self.relation)
        if isinstance(self.patterns, str):
            if self.patterns not in SYMBOLIC_FAMILIES:
                raise ValueError(f"unknown symbolic family {self.patterns!r}")
        else:
            object.__setattr__(self, "patterns", tuple(self.patterns))
            if not self.patterns:
                raise ValueError("explicit family needs at least one pattern")
            for h in self.patterns:
                if h.n == 0 or not is_connected(h):
                    raise ValueError("patterns must be connected and nonempty")

    @property
    def symbolic(self) -> bool:
        return isinstance(self.patterns, str)

    @functools.cached_property
    def plans(self) -> tuple:
        """The search plan of each explicit pattern, built on first use."""
        return tuple(map(_pattern_plan, self.patterns))

    @staticmethod
    def vertex_cover() -> "HitFamily":
        return HitFamily("subgraph", "single-edge")

    @staticmethod
    def feedback_vertex_set() -> "HitFamily":
        return HitFamily("subgraph", "all-cycles")

    @staticmethod
    def odd_cycle_transversal() -> "HitFamily":
        return HitFamily("subgraph", "odd-cycles")

    @staticmethod
    def explicit(patterns, relation: str) -> "HitFamily":
        return HitFamily(relation, tuple(patterns))


@dataclass(frozen=True)
class Occurrence:
    """One model of a pattern inside a host graph.

    ``vertices`` is the sorted set of all host vertices the model touches;
    a hitting set must meet it.  ``mapping`` holds the relation-specific
    model: image tuple (subgraph, induced), branch sets (minor), or
    (branch vertices, paths) for topological minors.
    """

    relation: str
    vertices: tuple[int, ...]
    mapping: tuple


def _first_of_length(root, children, length: int):
    """The first node of the search tree that has ``length`` entries, or None.
    That node is returned before ``children`` is asked for its children, so
    a ``children`` function here is never called on a full-length node."""
    for node in depth_first(root, children):
        if len(node) == length:
            return node
    return None


def _pattern_order(h: Graph) -> list[int]:
    """BFS order, so each vertex after the first root touches an earlier one."""
    return list(bfs(h.adj, range(h.n)))


def _pattern_plan(h: Graph):
    """How the search places h, position by position in the BFS order of
    ``_pattern_order``: a tuple (linked, apart, need, position), where for
    each position ``linked`` and ``apart`` hold the earlier positions whose
    vertex is and is not a neighbour and ``need`` its pattern degree, and
    ``position[v]`` is the position of pattern vertex v."""
    order = _pattern_order(h)
    linked = [tuple(j for j in range(i) if order[j] in h.adj[pv]) for i, pv in enumerate(order)]
    apart = [tuple(j for j in range(i) if j not in near) for i, near in enumerate(linked)]
    position = [0] * h.n
    for i, pv in enumerate(order):
        position[pv] = i
    return linked, apart, [h.degree(pv) for pv in order], position


def _subgraph_occ(g: Graph, plan, induced: bool, hosts: frozenset[int]) -> tuple[int, ...] | None:
    """A node is the tuple of host images of the pattern vertices, in BFS
    order, placed so far.  A candidate adjacent to every placed neighbour
    has at least that many neighbours in ``hosts``, so its degree is tested
    only when the pattern vertex needs more."""
    adj = g.adj
    linked, apart, need, position = plan

    def children(node):
        i = len(node)
        near = linked[i]
        degree = need[i] if need[i] > len(near) else 0
        away = [node[j] for j in apart[i]] if induced else ()
        for hv in sorted(hosts.intersection(*[adj[node[j]] for j in near]).difference(node)):
            if degree and len(adj[hv] & hosts) < degree:
                continue
            if not away or adj[hv].isdisjoint(away):
                yield node + (hv,)

    images = _first_of_length((), children, len(position))
    return None if images is None else tuple(images[i] for i in position)


def _connected_sets(g: Graph, free: frozenset[int], max_size: int):
    """Every connected subset of ``free`` with at most ``max_size`` vertices,
    exactly once, smallest-root first.  A node is (current, ext, banned): the
    set grown so far, the vertices it may still add, in order, and the
    vertices that earlier siblings added, which this subtree must not add
    again.  Every vertex of a root's subtree lies in ``pool``, the free
    vertices above the root."""

    def grow(node):
        current, ext, banned = node
        if len(current) >= max_size:
            return
        for idx, v in enumerate(ext):
            new_banned = banned | frozenset(ext[:idx])
            fresh = sorted(
                w
                for w in g.adj[v]
                if w in pool and w not in current and w not in new_banned and w not in ext
            )
            yield current | {v}, ext[idx + 1 :] + tuple(fresh), new_banned

    if max_size < 1:
        return
    for root in sorted(free):
        pool = frozenset(x for x in free if x > root)
        start = (frozenset([root]), tuple(sorted(g.adj[root] & pool)), frozenset())
        for current, _, _ in depth_first(start, grow):
            yield current


def _minor_occ(g: Graph, plan, hosts: frozenset[int]) -> tuple[frozenset[int], ...] | None:
    """A node is the tuple of branch sets of the pattern vertices, in BFS
    order, placed so far."""
    linked, _, _, position = plan
    size = len(position)
    if size > len(hosts):
        return None

    def children(node):
        i = len(node)
        free = hosts.difference(*node)
        for branch in _connected_sets(g, free, len(free) - (size - i - 1)):
            if all(any(g.adj[x] & node[j] for x in branch) for j in linked[i]):
                yield node + (branch,)

    sets = _first_of_length((), children, size)
    return None if sets is None else tuple(sets[i] for i in position)


def _simple_paths(g: Graph, a: int, b: int, blocked: frozenset[int], hosts: frozenset[int]):
    """Simple a..b paths whose internal vertices avoid ``blocked``, as
    tuples; a node is the path walked so far."""

    def step(path):
        if path[-1] == b:
            return
        for w in sorted(g.adj[path[-1]]):
            if w == b or (w not in path and w not in blocked and w in hosts):
                yield path + (w,)

    return (path for path in depth_first((a,), step) if path[-1] == b)


def _topo_occ(g: Graph, h: Graph, hosts: frozenset[int]):
    """A node holds the branch vertices of pattern vertices 0, 1, ... placed
    so far; once all ``h.n`` are placed, one host path per pattern edge
    follows, in sorted edge order."""
    if h.n > len(hosts):
        return None
    pedges = h.sorted_edges()

    def children(node):
        i = len(node)
        if i < h.n:
            for hv in sorted(hosts):
                if hv not in node and len(g.adj[hv] & hosts) >= h.degree(i):
                    yield node + (hv,)
            return
        branches = node[: h.n]
        a, b = pedges[i - h.n]
        blocked = frozenset(branches).union(*(p[1:-1] for p in node[h.n :])) - {branches[a], branches[b]}
        for path in _simple_paths(g, branches[a], branches[b], blocked, hosts):
            yield node + (path,)

    found = _first_of_length((), children, h.n + len(pedges))
    return None if found is None else (found[: h.n], found[h.n :])


def _occurrence(g: Graph, h: Graph, plan, relation: str, hosts: frozenset[int]) -> Occurrence | None:
    """The search behind ``contains``, unchecked: ``relation`` is one of
    RELATIONS, ``hosts`` a set of vertices of g, ``plan`` is h's."""
    if h.m >= h.n:
        # every relation keeps a cycle of h, and a forest has none
        edges = sum(len(g.adj[v] & hosts) for v in hosts) // 2
        if edges == len(hosts) - len(components(g.adj, hosts)):
            return None
    if relation in ("subgraph", "induced-subgraph"):
        mapping = _subgraph_occ(g, plan, relation == "induced-subgraph", hosts)
        if mapping is None:
            return None
        return Occurrence(relation, tuple(sorted(set(mapping))), mapping)
    if relation == "minor":
        sets = _minor_occ(g, plan, hosts)
        if sets is None:
            return None
        verts = sorted(v for s in sets for v in s)
        return Occurrence(relation, tuple(verts), sets)
    found = _topo_occ(g, h, hosts)
    if found is None:
        return None
    branches, paths = found
    verts = sorted(set(branches) | {v for p in paths for v in p})
    return Occurrence(relation, tuple(verts), (branches, paths))


def contains(g: Graph, h: Graph, relation: str, allowed=None) -> Occurrence | None:
    """First occurrence of h inside g under the relation, or None.

    Search is deterministic: pattern vertices in BFS order, host candidates
    ascending.  ``allowed`` restricts the host to an induced vertex subset.
    """
    relation = _check_relation(relation)
    return _occurrence(g, h, _pattern_plan(h), relation, checked_vertices(g, allowed))


def _family_occurrence(g: Graph, fam: HitFamily, allowed) -> Occurrence | None:
    """The first occurrence of ``fam``'s first pattern that occurs, as
    ``contains`` finds it; ``allowed`` is a frozenset of vertices of g, which
    the hitting solver builds inside ``range(g.n)``, so it is not checked."""
    for h, plan in zip(fam.patterns, fam.plans):
        occ = _occurrence(g, h, plan, fam.relation, allowed)
        if occ is not None:
            return occ
    return None


def _occurrence_vertices(g: Graph, fam: HitFamily, allowed) -> tuple[int, ...] | None:
    """The vertices of ``_family_occurrence(g, fam, allowed)``, or None."""
    occ = _family_occurrence(g, fam, allowed)
    return None if occ is None else occ.vertices


def _warn_if_not_antichain(fam: HitFamily) -> None:
    pats = fam.patterns
    for i, big in enumerate(pats):
        for j, small in enumerate(pats):
            if i != j and contains(big, small, fam.relation) is not None:
                warnings.warn(
                    f"pattern {j} is contained in pattern {i} under {fam.relation}; "
                    "the family is not an antichain",
                    stacklevel=3,
                )
                return


def _alive_components(g: Graph, alive: frozenset[int]) -> list[frozenset[int]]:
    return [frozenset(c) for c in components(g.adj, alive)]


def _packing_lb(occurrence, alive: frozenset[int], stop_at: int) -> int:
    """Greedy count of vertex-disjoint occurrences: a lower bound on the
    hitting number, capped at ``stop_at``."""
    count = 0
    while count < stop_at:
        occ = occurrence(alive)
        if occ is None:
            break
        alive = alive.difference(occ)
        count += 1
    return count


# ``occurrence`` below is ``_occurrence_vertices`` bound to one host graph
# and family and cached per vertex set, so one ``min_transversal`` call
# searches each vertex set at most once, and one ``first_dropping_edge`` scan
# searches each vertex set without the merged vertex at most once.  ``memo``
# maps a component to ("exact", size, picks) or ("lb", lower bound).  Each
# pick recurses once, on what is left.


def _hit_solve(g, occurrence, alive: frozenset[int], cap: int, memo) -> frozenset[int] | None:
    entry = memo.get(alive)
    if entry is not None and entry[0] == "exact":
        return entry[2] if entry[1] <= cap else None
    if cap < 0:
        return None
    comps = _alive_components(g, alive)
    if len(comps) != 1:
        lbs = [memo[c][1] if c in memo else int(occurrence(c) is not None) for c in comps]
        return split_solve(comps, lbs, cap, lambda comp, share: _hit_solve(g, occurrence, comp, share, memo))
    occ = occurrence(alive)
    if occ is None:
        memo[alive] = ("exact", 0, frozenset())
        return frozenset()
    if entry is None:
        entry = memo[alive] = ("lb", _packing_lb(occurrence, alive, cap + 1))
    if entry[1] > cap:
        return None
    best: frozenset[int] | None = None
    for v in occ:
        allowance = (len(best) - 2) if best is not None else (cap - 1)
        sub = _hit_solve(g, occurrence, alive - {v}, allowance, memo)
        if sub is not None:
            best = sub | {v}
    if best is None:
        memo[alive] = ("lb", cap + 1)
        return None
    memo[alive] = ("exact", len(best), best)
    return best


def min_transversal(g: Graph, fam: HitFamily, budget: int | None = None):
    """Minimum vertex set whose deletion removes every pattern occurrence;
    (size, set), or None iff a budget is given and the optimum exceeds it."""
    if fam.symbolic:
        if fam.patterns == "single-edge":
            r = vc_branching(g, budget)
            return (r.size, r.cover) if r is not None else None
        if fam.patterns == "all-cycles":
            return feedback_vertex_set(g, budget)
        return odd_cycle_transversal(g, budget)
    _warn_if_not_antichain(fam)
    occurrence = functools.cache(lambda alive: _occurrence_vertices(g, fam, alive))
    return _hit_transversal(g, frozenset(range(g.n)), budget, occurrence)


def _hit_transversal(g: Graph, alive: frozenset[int], budget: int | None, occurrence):
    """``min_transversal`` of an explicit family on the subgraph of g that
    ``alive`` induces, where ``occurrence(vertex set)`` gives the vertices
    of the set's first occurrence, or None."""
    cap = len(alive) if budget is None else min(budget, len(alive))
    picks = _hit_solve(g, occurrence, alive, cap, {})
    if picks is None:
        return None
    if occurrence(alive - picks) is not None:
        raise RuntimeError("transversal leaves a pattern occurrence")
    return len(picks), picks


def _scan_occurrence(q: Graph, fam: HitFamily, u: int, shared: dict):
    """``occurrence`` for ``_hit_transversal`` on ``q``, a single-edge
    quotient built by ``contract_keeping_ids`` whose merged vertex is u.
    A vertex set without u induces the same subgraph in q as in g, so its
    first occurrence is the same in every quotient of the scan: it is kept
    in ``shared`` under the set's bitmask, an int, which holds far less
    memory than the set.  A set with u is searched once per quotient."""
    own = functools.cache(lambda alive: _occurrence_vertices(q, fam, alive))
    bits = [1 << x for x in range(q.n)]

    def occurrence(alive):
        if u in alive:
            return own(alive)
        key = sum(map(bits.__getitem__, alive))
        if key not in shared:
            shared[key] = _occurrence_vertices(q, fam, alive)
        return shared[key]

    return occurrence


# -- dedicated feedback vertex set solver ------------------------------------
#
# Internal multigraph, vertex -> {neighbour: multiplicity}, multiplicities 1
# or 2 and a loop stored as {v: 1}, with the standard reductions: drop degree
# <= 1, bypass degree-2 vertices (merging their two edges; a resulting loop
# forces its vertex, a parallel pair forces an endpoint choice into the
# branching), then branch on a maximum-degree vertex in/out.  The gadget
# instances this must handle are dominated by degree-2 vertices: a top-level
# reduction of a gadget or of one of its single-edge quotients removes most
# of its vertices, so ``_mg_reduce`` keeps its loop lean, with a loop found
# by membership, a degree read as the sum of multiplicities, and a degree-2
# vertex bypassed in place.
#
# The reductions run off a worklist, a min-heap of vertex ids.  Whether a
# vertex is reducible depends only on its own adjacency and on the fixed
# forbidden set, so only a vertex whose adjacency changed (a neighbour of a
# deleted vertex, an endpoint of a bypass) can become reducible, and every
# vertex outside the heap is irreducible.  Popping the smallest id therefore
# always reduces the smallest reducible vertex: the same sequence, and the
# same residual multigraph, as a sorted rescan after every reduction.


def _mg_from_graph(g: Graph) -> dict[int, dict[int, int]]:
    return {v: dict.fromkeys(ns, 1) for v, ns in enumerate(g.adj)}


def _mg_copy(adj):
    return {v: dict(ns) for v, ns in adj.items()}


def _mg_delete(adj, v) -> None:
    for w in adj[v]:
        if w != v:
            del adj[w][v]
    del adj[v]


def _mg_degree(adj, v) -> int:
    return sum(c for w, c in adj[v].items() if w != v) + 2 * adj[v].get(v, 0)


def _mg_reduce(adj, forbidden, todo=None) -> set[int] | None:
    """Exhaustive degree reductions; returns forced solution vertices, or
    None when a loop sits on a forbidden vertex (branch infeasible).
    ``todo`` seeds the worklist (every vertex when None); the caller
    vouches that every other vertex is irreducible."""
    forced: set[int] = set()
    heap = sorted(adj if todo is None else todo)
    queued = set(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        v = heappop(heap)
        queued.discard(v)
        ns = adj[v]
        bypass = False
        if v in ns:
            if v in forbidden:
                return None
            forced.add(v)
            del ns[v]
        elif len(ns) > 2 or (degree := sum(ns.values())) > 2:
            continue
        elif degree == 2:
            u, w = ns if len(ns) == 2 else (*ns, *ns)
            if v not in forbidden and u in forbidden and w in forbidden:
                # bypassing commits to a solution without v, which needs a
                # free endpoint to swap onto; leave v to the branching
                continue
            bypass = True
        # delete v; a degree-2 vertex is bypassed by then joining its two ends
        del adj[v]
        for x in ns:
            del adj[x][v]
            if x not in queued:
                queued.add(x)
                heappush(heap, x)
        if bypass:
            if u == w:
                adj[u][u] = 1
            else:
                adj[u][w] = adj[w][u] = 2 if w in adj[u] else 1
    return forced


def _mg_components(adj) -> list[dict[int, dict[int, int]]]:
    """The components of a multigraph; they share ``adj``'s neighbour
    dicts, so a caller that changes one must not use ``adj`` again."""
    return [{v: adj[v] for v in comp} for comp in components(adj, adj)]


def _mg_double_edge(adj) -> tuple[int, int] | None:
    """The first doubled edge (v, w), v < w, in sorted order, or None."""
    for v in sorted(adj):
        for w, c in sorted(adj[v].items()):
            if w > v and c >= 2:
                return v, w
    return None


def _mg_find_cycle(adj) -> list[int] | None:
    """A cycle of a loop-free multigraph (``_mg_reduce`` removes every loop),
    or None: a doubled edge, else the cycle that the first non-tree edge
    closes in a breadth-first forest."""
    pair = _mg_double_edge(adj)
    if pair is not None:
        return list(pair)
    parent = bfs(adj, sorted(adj))
    for v, p in parent.items():
        for w in sorted(adj[v]):
            if w != p and parent[w] != v:
                return tree_cycle(parent, v, w)
    return None


def _mg_packing_lb(adj) -> int:
    work = _mg_copy(adj)
    count = 0
    while True:
        cycle = _mg_find_cycle(work)
        if cycle is None:
            return count
        for v in cycle:
            _mg_delete(work, v)
        count += 1


def _fvs_solve(adj, forbidden: frozenset[int], cap: int, todo=None) -> set[int] | None:
    """Minimum feedback vertex set of the multigraph avoiding ``forbidden``,
    if it has at most ``cap`` vertices, or None.  Consumes ``adj``: every
    caller passes a multigraph, or a component of one, that it does not use
    again.  ``todo`` holds the vertices that may have become reducible since
    ``adj`` was last reduced (all of them when None): none for a component
    of a reduced graph, the old neighbours of a deleted vertex, and a newly
    forbidden vertex itself, whose bypass forbidding may unblock."""
    forced = _mg_reduce(adj, forbidden, todo)
    if forced is None or len(forced) > cap:
        return None
    rem = cap - len(forced)
    comps = _mg_components(adj)
    if len(comps) != 1:
        lbs = [_mg_packing_lb(c) for c in comps]
        res = split_solve(comps, lbs, rem, lambda comp, share: _fvs_solve(comp, forbidden, share, ()))
    elif _mg_packing_lb(adj) > rem:
        return None
    else:
        # Branch on both ends of a doubled edge, or on deleting or
        # forbidding a maximum-degree vertex.  Each child gets a copy of
        # ``adj`` except the last, which consumes it.  A child returns at
        # most its cap, so every result found improves on ``res``.
        pair = _mg_double_edge(adj)
        if pair is not None:
            options = [(x, True) for x in pair if x not in forbidden]
        else:
            free = sorted(v for v in adj if v not in forbidden)
            if not free:
                return None
            v = max(free, key=lambda x: _mg_degree(adj, x))
            options = [(v, True), (v, False)]
        res = None
        for i, (v, delete) in enumerate(options):
            child = adj if i == len(options) - 1 else _mg_copy(adj)
            limit = rem if res is None else len(res) - 1
            if delete:
                touched = list(child[v])
                _mg_delete(child, v)
                sub = _fvs_solve(child, forbidden, limit - 1, touched)
                if sub is not None:
                    res = sub | {v}
            else:
                sub = _fvs_solve(child, forbidden | {v}, limit, (v,))
                if sub is not None:
                    res = sub
    if res is None:
        return None
    return forced | res


def feedback_vertex_set(g: Graph, budget: int | None = None):
    """Minimum vertex set meeting every cycle; (size, set), or None iff a
    budget is given and the optimum exceeds it."""
    cap = g.n if budget is None else min(budget, g.n)
    res = _fvs_solve(_mg_from_graph(g), frozenset(), cap)
    return None if res is None else (len(res), frozenset(res))


def odd_cycle_transversal(g: Graph, budget: int | None = None):
    """Minimum vertex set whose deletion leaves a bipartite graph, by
    level-order search over the vertices of a shortest odd cycle, run on
    each component within the budget the earlier components left."""

    def children(alive):
        return (alive - {v} for v in shortest_odd_cycle(g, alive))  # odd: its level failed the goal

    def solve(comp, share):
        part = frozenset(comp)
        alive = shallowest(part, lambda alive: bipartition(g, alive) is not None, children, min(share, len(part)))
        return None if alive is None else part - alive

    comps = components(g.adj, range(g.n))
    picks = split_solve(comps, [0] * len(comps), g.n if budget is None else budget, solve)
    return None if picks is None else (len(picks), picks)


def hitting_number(g: Graph, fam: HitFamily) -> int:
    """The size of a minimum transversal."""
    res = min_transversal(g, fam)
    if res is None:
        raise RuntimeError("unbudgeted min_transversal found no transversal")
    return res[0]


def _fvs_neutral(g: Graph, e: Edge) -> bool:
    """Has e an end b of degree 1, or of degree 2 whose other neighbour is
    not adjacent to e's other end a?  Then contracting e keeps the feedback
    vertex number (see ``first_dropping_edge``)."""
    for a, b in (e, e[::-1]):
        near = g.adj[b]
        if len(near) == 1 or len(near) == 2 and g.adj[a].isdisjoint(near - {a}):
            return True
    return False


def first_dropping_edge(g: Graph, fam: HitFamily, edges, tau: int) -> Edge | None:
    """The first edge of ``edges`` whose contraction brings the hitting
    number below ``tau``, or None.  A pair that is not an edge of g raises
    ValueError before any quotient is solved; with tau = 0 no edge drops.

    Each edge's quotient is solved within the budget tau - 1, but the scan
    reuses what one contraction cannot change.

    - All cycles (FVS): an edge ab is neutral when an end b has degree 1,
      or degree 2 with its other neighbour z not adjacent to a.  Then g/ab
      is g minus the leaf b, or g with the subdivision a-b-z of the edge az
      undone.  Either keeps the feedback vertex number: a cycle through b
      passes through a, so b in a minimum set can be swapped for a, and a
      set without b hits the same cycles in both graphs (the degree <= 2
      rules of FVS kernels; Bodlaender & van Dijk, TOCS 2010).  So every
      neutral edge has the answer of the first one, which is solved as any
      other edge, whatever ``tau`` is; once it has not dropped, later
      neutral edges are skipped.
    - Explicit patterns: the larger end, isolated in the quotient, is left
      out of the alive set.  A vertex set without the merged vertex then
      induces the same subgraph in g and in every quotient, so one cache
      for the whole scan holds the first occurrence of each such set; sets
      with the merged vertex keep a cache per quotient.
    """
    if not fam.symbolic:
        _warn_if_not_antichain(fam)
    alive = frozenset(range(g.n))
    shared: dict[int, tuple[int, ...] | None] = {}
    settled = False  # a neutral edge was solved and did not drop
    for e in checked_edges(g, edges):
        neutral = fam.patterns == "all-cycles" and _fvs_neutral(g, e)
        if neutral and settled:
            continue
        q = contract_keeping_ids(g, _class_map(g, [e]))
        if fam.symbolic:
            smaller = min_transversal(q, fam, budget=tau - 1)
        else:
            smaller = _hit_transversal(q, alive - {e[1]}, tau - 1, _scan_occurrence(q, fam, e[0], shared))
        settled |= neutral
        if smaller is not None:
            return e
    return None


def drop_given_edge(g: Graph, e, fam: HitFamily) -> bool:
    """Does contracting this one edge lower the hitting number?  A pair
    that is not an edge of g raises ValueError before anything is solved."""
    return first_dropping_edge(g, fam, checked_edges(g, [e]), hitting_number(g, fam)) is not None


def find_dropping_edge(g: Graph, fam: HitFamily) -> Edge | None:
    """Lexicographically first edge whose contraction lowers the hitting
    number, or None when no edge does."""
    return first_dropping_edge(g, fam, g.sorted_edges(), hitting_number(g, fam))
