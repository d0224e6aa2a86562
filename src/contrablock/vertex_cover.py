"""Exact minimum vertex cover: branching, bipartite matching, and a
bipartite-modulator solver, plus the contracted-edge cover formula."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bipartition, contract_edge, induced_subgraph


@dataclass(frozen=True)
class CoverResult:
    size: int
    cover: frozenset[int]


def _decide_cover(adj: dict[int, set[int]], k: int) -> set[int] | None:
    """A vertex cover of size <= k of the graph given by ``adj``, or None.

    Degree-1 vertices are resolved by taking the neighbor; otherwise branch
    on a maximum-degree vertex v: either v joins the cover or all of N(v)
    does.  Smallest-index tie-breaking keeps the witness deterministic.
    """
    adj = {v: set(ns) for v, ns in adj.items() if ns}
    picks: set[int] = set()

    def remove(v: int) -> None:
        for w in adj.pop(v, ()):
            adj[w].discard(v)
            if not adj[w]:
                del adj[w]

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
        remove(w)
        if len(picks) > k:
            return None

    if not adj:
        return picks
    if len(picks) >= k:
        return None
    budget = k - len(picks)

    v = max(sorted(adj), key=lambda x: len(adj[x]))
    nbrs = sorted(adj[v])

    sub = {x: set(ns) for x, ns in adj.items()}
    for w in sub.pop(v):
        sub[w].discard(v)
        if not sub[w]:
            del sub[w]
    res = _decide_cover(sub, budget - 1)
    if res is not None:
        return picks | {v} | res

    if len(nbrs) <= budget:
        sub = {x: set(ns) for x, ns in adj.items()}
        for w in nbrs + [v]:
            for y in sub.pop(w, ()):
                sub[y].discard(w)
                if not sub[y]:
                    del sub[y]
        res = _decide_cover(sub, budget - len(nbrs))
        if res is not None:
            return picks | set(nbrs) | res
    return None


def vc_branching(g: Graph, budget: int | None = None) -> CoverResult | None:
    """Minimum vertex cover by branching; None iff a budget is given and
    vc(g) exceeds it."""
    adj = {v: set(g.adj[v]) for v in range(g.n) if g.adj[v]}
    hi = g.n if budget is None else min(budget, g.n)
    for k in range(hi + 1):
        sol = _decide_cover(adj, k)
        if sol is not None:
            return CoverResult(len(sol), frozenset(sol))
    return None


def maximum_matching(g: Graph, left: list[int]) -> dict[int, int]:
    """Maximum matching of a bipartite graph via augmenting paths; returns a
    symmetric vertex->partner map.  ``left`` must be one side."""
    match: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for w in sorted(g.adj[u]):
            if w in seen:
                continue
            seen.add(w)
            if w not in match or augment(match[w], seen):
                match[w] = u
                match[u] = w
                return True
        return False

    for u in sorted(left):
        if u not in match:
            augment(u, set())
    return match


def vc_bipartite(g: Graph) -> CoverResult:
    """Minimum vertex cover of a bipartite graph: maximum matching, then the
    alternating-reachability cover extraction."""
    sides = bipartition(g)
    if sides is None:
        raise ValueError("graph is not bipartite")
    left, right = sides
    lset = set(left)
    match = maximum_matching(g, left)

    # Alternating reachability from unmatched left vertices: left->right via
    # non-matching edges, right->left via matching edges.
    reach: set[int] = set(u for u in left if u not in match)
    stack = sorted(reach)
    while stack:
        u = stack.pop()
        for w in sorted(g.adj[u]):
            if u in lset:
                if match.get(u) == w or w in reach:
                    continue
            elif match.get(u) != w or w in reach:
                continue
            reach.add(w)
            stack.append(w)

    cover = sorted([v for v in left if v not in reach] + [v for v in right if v in reach])
    matched_pairs = sum(1 for v in match if v in lset)
    if len(cover) != matched_pairs:
        raise RuntimeError("cover size must equal matching size")
    return CoverResult(len(cover), frozenset(cover))


def vc_with_modulator(g: Graph, modulator) -> CoverResult:
    """Minimum vertex cover when deleting ``modulator`` leaves a bipartite
    graph: try every split of the modulator into cover / non-cover vertices;
    non-cover vertices force their whole neighborhood into the cover, and the
    bipartite remainder is solved exactly."""
    b = sorted(set(modulator))
    for v in b:
        if not 0 <= v < g.n:
            raise ValueError(f"modulator vertex {v} out of range")
    rest = [v for v in range(g.n) if v not in set(b)]
    sub_rest, _ = induced_subgraph(g, rest)
    if bipartition(sub_rest) is None:
        raise ValueError("graph minus modulator is not bipartite")

    best: CoverResult | None = None
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
        removed = set(b) | forced
        residual = [v for v in range(g.n) if v not in removed]
        sub, old = induced_subgraph(g, residual)
        part = vc_bipartite(sub)
        cover = inside | forced | {old[x] for x in part.cover}
        if best is None or len(cover) < best.size:
            best = CoverResult(len(cover), frozenset(cover))
    if best is None:
        raise RuntimeError("the mask with every modulator vertex inside always works")
    return best


def vc_after_contraction(g: Graph, e) -> int:
    """vc of g/e for bipartite g, via the merged-vertex case split:
    min(1 + vc(G_e - w), |N(w)| + vc(G_e - N[w])), both parts bipartite."""
    if bipartition(g) is None:
        raise ValueError("graph is not bipartite")
    res = contract_edge(g, tuple(e))
    ge = res.quotient
    w = res.vmap[tuple(e)[0]]

    without_w, _ = induced_subgraph(ge, [v for v in range(ge.n) if v != w])
    take_w = 1 + vc_bipartite(without_w).size

    closed = set(ge.adj[w]) | {w}
    without_nw, _ = induced_subgraph(ge, [v for v in range(ge.n) if v not in closed])
    take_nbrs = len(ge.adj[w]) + vc_bipartite(without_nw).size

    return min(take_w, take_nbrs)
