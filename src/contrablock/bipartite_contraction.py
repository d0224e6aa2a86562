"""Two-colorings, their cost, and exact bipartite-contraction search.

A 2-coloring assigns 1 or 2 to every vertex; its cost is the sum of
(size - 1) over monochromatic components.  A graph can be made bipartite by
contracting k edges iff it has a 2-coloring of cost at most k, which is what
bc_decide searches for, returning the edge set itself.
"""

from __future__ import annotations

from .graphs import Edge, Graph, bfs, bipartition, components, contract_set, shortest_odd_cycle

Coloring = tuple[int, ...]


def _check_coloring(g: Graph, phi) -> Coloring:
    phi = tuple(phi)
    if len(phi) != g.n:
        raise ValueError(f"coloring has {len(phi)} entries for {g.n} vertices")
    if any(c not in (1, 2) for c in phi):
        raise ValueError("colors must be 1 or 2")
    return phi


def monochromatic_components(g: Graph, phi) -> list[list[int]]:
    """Maximal connected same-color vertex sets; a partition of V."""
    phi = _check_coloring(g, phi)
    classes = ([v for v in g.vertices() if phi[v] == c] for c in (1, 2))
    # the parts are disjoint, so sorting by first entry orders them by minimum
    return sorted(comp for cls in classes for comp in components(g.adj, cls))


def coloring_cost(g: Graph, phi) -> int:
    return sum(len(c) - 1 for c in monochromatic_components(g, phi))


def coloring_to_contraction(g: Graph, phi) -> list[Edge]:
    """BFS spanning-tree edges of every monochromatic component; contracting
    them collapses each component to a point, so the quotient is bipartite
    and the edge count equals the coloring cost."""
    phi = _check_coloring(g, phi)
    edges: list[Edge] = []
    for c in (1, 2):
        cls = [v for v in g.vertices() if phi[v] == c]
        tree = bfs(g.adj, cls, set(cls))
        edges.extend((min(p, v), max(p, v)) for v, p in tree.items() if p != -1)
    return sorted(edges)


def contraction_to_coloring(g: Graph, contracted) -> Coloring:
    """Pull the quotient's bipartition back through the vertex map."""
    res = contract_set(g, contracted)
    sides = bipartition(res.quotient)
    if sides is None:
        raise ValueError("quotient is not bipartite")
    left = set(sides[0])
    return tuple(1 if res.vmap[v] in left else 2 for v in range(g.n))


def bc_decide(g: Graph, k: int) -> list[Edge] | None:
    """An edge set F with |F| <= k and g/F bipartite, or None.

    Iterative deepening; each level branches on the original edges incident
    to the classes of a shortest odd cycle of the current quotient.
    Destroying every odd cycle requires contracting such an edge, so the
    search is complete.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    for depth in range(k + 1):
        visited: set[frozenset[Edge]] = set()
        found = _bc_search(g, (), depth, visited)
        if found is not None:
            return sorted(found)
    return None


def _bc_search(
    g: Graph, chosen: tuple[Edge, ...], slack: int, visited: set[frozenset[Edge]]
) -> tuple[Edge, ...] | None:
    key = frozenset(chosen)
    if key in visited:
        return None
    visited.add(key)
    res = contract_set(g, chosen)
    cycle = shortest_odd_cycle(res.quotient)
    if cycle is None:
        return chosen
    if slack == 0:
        return None
    on_cycle = set(cycle)
    have = set(chosen)
    for e in g.sorted_edges():
        if e in have:
            continue
        a, b = res.vmap[e[0]], res.vmap[e[1]]
        if a == b:
            continue  # inside one class: contracting it cannot change the quotient
        if a in on_cycle or b in on_cycle:
            found = _bc_search(g, chosen + (e,), slack - 1, visited)
            if found is not None:
                return found
    return None
