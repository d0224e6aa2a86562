"""Exact minimum vertex cover: branching, bipartite matching, and a
bipartite-modulator solver, plus the contracted-edge cover formula."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bfs, bipartition, checked_edges, checked_vertices, components, split_solve


@dataclass(frozen=True)
class CoverResult:
    size: int
    cover: frozenset[int]


def _delete(adj: dict[int, set[int]], vertices) -> None:
    """Delete ``vertices`` and their edges from ``adj`` in place, dropping
    vertices left without neighbours."""
    for v in vertices:
        for w in adj.pop(v, ()):
            adj[w].discard(v)
            if not adj[w]:
                del adj[w]


def _min_cover(adj: dict[int, set[int]], cap: int) -> set[int] | None:
    """A minimum vertex cover of the graph given by ``adj``, or None if vc > cap.

    ``adj`` holds only vertices with neighbours and is consumed.  Degree-1
    vertices are resolved by taking the neighbor; otherwise branch on a
    maximum-degree vertex v: either v joins the cover or all of N(v) does.
    A later child must beat the cover an earlier one found, so the first
    minimum cover in depth-first order is kept; smallest-index tie-breaking
    makes it deterministic, and the matching bound only cuts subtrees with
    no cover under the cap, so it never changes which cover is found.
    """
    picks: set[int] = set()
    while True:
        leaf = None
        for v in sorted(adj):
            if len(adj[v]) == 1:
                leaf = v
                break
        if leaf is None:
            break
        w = next(iter(adj[leaf]))
        picks.add(w)
        _delete(adj, (w,))
        if len(picks) > cap:
            return None

    if not adj:
        return picks
    if len(picks) >= cap:
        return None
    budget = cap - len(picks)

    # Every edge of a matching needs its own cover vertex, so a greedy
    # maximal matching with more edges than the budget rules out this subtree.
    matched: set[int] = set()
    for u, ns in adj.items():
        if u not in matched:
            for w in ns:
                if w not in matched:
                    matched.update((u, w))
                    break
    if len(matched) > 2 * budget:
        return None

    # The first child gets a copy of ``adj``; the last consumes it.
    v = max(sorted(adj), key=lambda x: len(adj[x]))
    options = ([v], sorted(adj[v]))
    best = None
    for i, take in enumerate(options):
        if len(take) > budget:
            continue
        sub = adj if i == len(options) - 1 else {x: set(ns) for x, ns in adj.items()}
        _delete(sub, take)  # deleting N(v) leaves v isolated, so v goes too
        res = _min_cover(sub, budget - len(take))
        if res is not None:
            best = set(take) | res
            budget = len(best) - 1
    return None if best is None else picks | best


def vc_branching(g: Graph, budget: int | None = None, allowed=None) -> CoverResult | None:
    """Minimum vertex cover by branching; None iff a budget is given and vc(g)
    exceeds it.  ``allowed`` restricts the graph to an induced vertex subset."""
    if budget is not None and budget < 0:
        return None
    alive = checked_vertices(g, allowed)
    adj = {v: set(ns) for v in alive if (ns := g.adj[v] & alive)}
    cap = len(alive) if budget is None else budget
    comps = components(adj, adj)  # each has an edge, so a cover of at least 1
    sol = split_solve(comps, [1] * len(comps), cap,
                      lambda comp, share: _min_cover({v: adj[v] for v in comp}, share))
    return None if sol is None else CoverResult(len(sol), sol)


def _augment(adj, left, alive, match: dict[int, int], limit: int) -> dict[int, int]:
    """Grow the bipartite matching ``match`` in place by one augmenting-path
    search inside the vertex set ``alive`` from each free vertex of ``left``
    that lies in it, in sorted order; returns ``match``.  ``adj`` maps a
    vertex to its neighbours, as ``Graph.adj`` does.  A free vertex with
    no augmenting path has none after later augmentations either (Kuhn), so
    one pass reaches a maximum matching from any starting matching.  It
    stops as soon as the matching has more than ``limit`` pairs.

    Each search is a depth-first search on an explicit stack, so long paths
    cannot exhaust the interpreter's recursion limit.  A vertex's neighbours
    are sorted when a search first reaches it, and only vertices of
    ``left`` are ever reached that way, so ``adj`` may leave out the other
    side."""
    pairs = len(match) // 2
    nbrs: dict[int, list[int]] = {}

    def reach(u):
        if u not in nbrs:
            nbrs[u] = sorted(adj[u] & alive)
        return iter(nbrs[u])

    for root in sorted(left):
        if pairs > limit:
            break
        if root in match or root not in alive:
            continue
        seen: set[int] = set()
        stack = [(root, reach(root))]
        path: list[int] = []  # path[i] is the vertex reached from stack[i]
        while stack:
            for w in stack[-1][1]:
                if w not in seen:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(w)
            path.append(w)
            if w in match:
                stack.append((match[w], reach(match[w])))
                continue
            # flip the path, from its free end back to the root
            for (u, _), x in reversed(list(zip(stack, path))):
                match[x] = u
                match[u] = x
            pairs += 1
            break
    return match


def maximum_matching(g: Graph, left: list[int], allowed=None) -> dict[int, int]:
    """Maximum matching of a bipartite graph via augmenting paths; returns a
    symmetric vertex->partner map.  ``left`` must be one side; ``allowed``
    restricts the graph to an induced vertex subset, and vertices of
    ``left`` outside it are skipped; ValueError when ``allowed`` holds a
    vertex outside g.  It is ``_augment`` run from an empty matching."""
    return _augment(g.adj, left, checked_vertices(g, allowed), {}, g.n)


def vc_bipartite(g: Graph, allowed=None) -> CoverResult:
    """Minimum vertex cover of a bipartite graph: maximum matching, then the
    alternating-reachability cover extraction.  ``allowed`` restricts the
    graph to an induced vertex subset."""
    sides = bipartition(g, allowed)
    if sides is None:
        raise ValueError("graph is not bipartite")
    left, right = sides
    lset = set(left)
    alive = lset.union(right)
    match = maximum_matching(g, left, allowed)

    # Alternating reachability from unmatched left vertices: left->right via
    # non-matching edges, right->left via matching edges.
    alt = {u: (g.adj[u] & alive) - {match.get(u)} for u in left}
    alt.update((w, [match[w]] if w in match else []) for w in right)
    reach = bfs(alt, [u for u in left if u not in match])

    cover = sorted([v for v in left if v not in reach] + [v for v in right if v in reach])
    matched_pairs = sum(1 for v in match if v in lset)
    if len(cover) != matched_pairs:
        raise RuntimeError("cover size must equal matching size")
    return CoverResult(len(cover), frozenset(cover))


def _modulator_setup(g: Graph, groups):
    """(rest, left, start) for ``_modulator_splits`` over ``groups``,
    disjoint vertex lists of g: ``rest`` holds every other vertex, ``left``
    is one side of its colouring and ``start`` a maximum matching of it.
    ValueError when ``rest`` is not bipartite."""
    rest = set(range(g.n)).difference(*groups)
    sides = bipartition(g, rest)
    if sides is None:
        raise ValueError("graph minus modulator is not bipartite")
    return rest, sides[0], maximum_matching(g, sides[0], rest)


def _modulator_splits(g: Graph, groups, budget: int, rest, left, start: dict[int, int]):
    """Each split of a bipartite modulator whose cover fits ``budget``, in
    mask order, as (size, taken, remaining).

    The modulator is ``groups``, disjoint vertex lists of g, each one vertex
    of the graph made by contracting it; a group's neighbours are the union
    of its members' neighbours in g.  Every other vertex is in ``rest``, once
    the groups' vertices are removed from it here, and ``left`` is one side
    of its colouring.  A split puts some groups in the cover, and each group
    left out forces its neighbours in.  ``taken`` holds the members of the
    groups inside and the forced vertices, ``remaining`` the vertices of
    ``rest`` still to cover, and ``size`` the split's minimum cover: one per
    group inside, one per forced vertex, plus a maximum matching of
    ``remaining`` (König).  So the smallest size is the cover number of that
    contracted graph, and a first split answers whether it fits ``budget``;
    no cover is built.  No size exceeds ``g.n``, a budget that refuses none.

    Each split's matching starts from the pairs of ``start``, a matching of
    g, that lie inside ``remaining``.  A split whose forced part alone, or
    with its starting matching, already exceeds ``budget`` is refused
    unsized, and the others stop augmenting as soon as they exceed it."""
    rest = rest.difference(*groups)
    member = {v: i for i, grp in enumerate(groups) for v in grp}
    forces: list[set[int]] = []  # each group's neighbours in rest
    links: set[int] = set()  # the two bits of each pair of adjacent groups
    for i, grp in enumerate(groups):
        out = set().union(*(g.adj[v] for v in grp))
        forces.append(out & rest)
        links.update(1 << i | 1 << member[w] for w in out if member.get(w, i) != i)
    base = {u: w for u, w in start.items() if u in rest and w in rest}
    for mask in range(1 << len(groups)):
        if mask.bit_count() > budget:
            continue
        if not all(mask & link for link in links):
            continue  # an edge between two groups left out cannot be covered
        forced = set().union(*(forces[i] for i in range(len(groups)) if not mask >> i & 1))
        fixed = mask.bit_count() + len(forced)
        if fixed > budget:
            continue
        match = dict(base)
        for v in forced:
            if v in match:
                del match[match.pop(v)]
        if fixed + len(match) // 2 > budget:
            continue
        remaining = rest - forced
        _augment(g.adj, left, remaining, match, budget - fixed)
        size = fixed + len(match) // 2
        if size <= budget:
            inside = set().union(*(groups[i] for i in range(len(groups)) if mask >> i & 1))
            yield size, inside | forced, remaining


def vc_with_modulator(g: Graph, modulator) -> CoverResult:
    """Minimum vertex cover when deleting ``modulator`` leaves a bipartite
    graph: try every split of the modulator into cover / non-cover vertices;
    non-cover vertices force their whole neighborhood into the cover, and the
    first smallest split's bipartite remainder is solved exactly."""
    b = sorted(set(modulator))
    for v in b:
        if not 0 <= v < g.n:
            raise ValueError(f"modulator vertex {v} out of range")
    groups = [[v] for v in b]
    _, taken, remaining = min(_modulator_splits(g, groups, g.n, *_modulator_setup(g, groups)),
                              key=lambda split: split[0])
    cover = taken | vc_bipartite(g, remaining).cover
    return CoverResult(len(cover), frozenset(cover))


def vc_after_contraction(g: Graph, e) -> int:
    """vc of g/e for bipartite g, via the two splits of the merged vertex w:
    min(1 + vc(G_e - w), |N(w)| + vc(G_e - N[w])), both parts bipartite.
    The splits are sized on g with e's ends as one group, so no quotient is
    built."""
    if bipartition(g) is None:
        raise ValueError("graph is not bipartite")
    groups = [list(checked_edges(g, [e])[0])]
    return min(size for size, _, _ in _modulator_splits(g, groups, g.n, *_modulator_setup(g, groups)))
