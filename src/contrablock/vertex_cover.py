"""Exact minimum vertex cover: branching, bipartite matching, and a
bipartite-modulator solver, plus the contracted-edge cover formula."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bfs, bipartition, checked_vertices, components, contract_edge, split_solve


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


def maximum_matching(g: Graph, left: list[int], allowed=None) -> dict[int, int]:
    """Maximum matching of a bipartite graph via augmenting paths; returns a
    symmetric vertex->partner map.  ``left`` must be one side; ``allowed``
    restricts the graph to an induced vertex subset.  Both must be vertices
    of ``g`` and are not checked: the callers pass one side of a
    ``bipartition`` colouring, which checked them, and a range check here
    cost the bounded enumeration about 4 %.

    Each augmenting-path search is a depth-first search on an explicit stack,
    so long paths cannot exhaust the interpreter's recursion limit.
    """
    alive = set(range(g.n) if allowed is None else allowed)
    nbrs = {u: sorted(g.adj[u] & alive) for u in left}
    match: dict[int, int] = {}
    for root in sorted(left):
        if root in match:
            continue
        seen: set[int] = set()
        stack = [(root, iter(nbrs[root]))]
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
                stack.append((match[w], iter(nbrs[match[w]])))
                continue
            # flip the path, from its free end back to the root
            for (u, _), x in reversed(list(zip(stack, path))):
                match[x] = u
                match[u] = x
            break
    return match


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


def _modulator_splits(g: Graph, modulator, budget: int | None = None):
    """Each feasible split of a bipartite modulator, in mask order, as
    (size, taken, remaining): ``taken`` is the cover part fixed by the split
    (the modulator vertices inside plus the neighbours the others force in),
    ``remaining`` the bipartite vertex set still to cover and ``size`` the
    split's minimum cover, ``len(taken)`` plus a maximum matching of
    ``remaining`` (König).  Splits whose ``taken`` exceeds ``budget`` are
    skipped unsized.  ``g - modulator`` is coloured once, and an invalid
    modulator raises ValueError on the first step."""
    b = sorted(set(modulator))
    for v in b:
        if not 0 <= v < g.n:
            raise ValueError(f"modulator vertex {v} out of range")
    rest = set(range(g.n)).difference(b)
    sides = bipartition(g, rest)
    if sides is None:
        raise ValueError("graph minus modulator is not bipartite")
    for mask in range(1 << len(b)):
        inside = {b[i] for i in range(len(b)) if mask >> i & 1}
        outside = {v for v in b if v not in inside}
        forced: set[int] = set()
        feasible = True
        for v in outside:
            if g.adj[v] & outside:
                feasible = False  # an edge inside the excluded part cannot be covered
                break
            forced |= g.adj[v]
        if not feasible:
            continue
        taken = inside | forced
        if budget is None or len(taken) <= budget:
            remaining = rest - forced
            left = [v for v in sides[0] if v not in forced]
            yield len(taken) + len(maximum_matching(g, left, remaining)) // 2, taken, remaining


def vc_with_modulator(g: Graph, modulator) -> CoverResult:
    """Minimum vertex cover when deleting ``modulator`` leaves a bipartite
    graph: try every split of the modulator into cover / non-cover vertices;
    non-cover vertices force their whole neighborhood into the cover, and the
    first smallest split's bipartite remainder is solved exactly."""
    best = min(_modulator_splits(g, modulator), key=lambda split: split[0], default=None)
    if best is None:
        raise RuntimeError("the mask with every modulator vertex inside always works")
    cover = best[1] | vc_bipartite(g, best[2]).cover
    return CoverResult(len(cover), frozenset(cover))


def vc_with_modulator_fits(g: Graph, modulator, budget: int) -> bool:
    """Whether ``vc_with_modulator(g, modulator).size <= budget``, decided
    without building a cover: the first split whose size fits answers."""
    return any(size <= budget for size, _, _ in _modulator_splits(g, modulator, budget))


def vc_after_contraction(g: Graph, e) -> int:
    """vc of g/e for bipartite g, via the two splits of the merged vertex w:
    min(1 + vc(G_e - w), |N(w)| + vc(G_e - N[w])), both parts bipartite."""
    if bipartition(g) is None:
        raise ValueError("graph is not bipartite")
    res = contract_edge(g, tuple(e))
    return vc_with_modulator(res.quotient, [res.vmap[tuple(e)[0]]]).size
