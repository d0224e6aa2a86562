"""Two-colorings, their cost, and exact bipartite-contraction search.

A 2-coloring assigns 1 or 2 to every vertex; its cost is the sum of
(size - 1) over monochromatic components.  A graph can be made bipartite by
contracting k edges iff it has a 2-coloring of cost at most k, which is what
bc_decide searches for, returning the edge set itself.
"""

from __future__ import annotations

from .graphs import (Edge, Graph, _class_map, bfs, components, contract_keeping_ids, contracted_coloring, shallowest,
                     shortest_odd_cycle)

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
    classes = ([v for v in range(g.n) if phi[v] == c] for c in (1, 2))
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
        cls = [v for v in range(g.n) if phi[v] == c]
        tree = bfs(g.adj, cls, set(cls))
        edges.extend((min(p, v), max(p, v)) for v, p in tree.items() if p != -1)
    return sorted(edges)


def contraction_to_coloring(g: Graph, contracted) -> Coloring:
    """Pull the quotient's bipartition back through the vertex map: the
    quotient's left side, which holds each component's smallest quotient
    vertex, is colour 1."""
    color = contracted_coloring(g, contracted)
    if color is None:
        raise ValueError("quotient is not bipartite")
    return tuple(c + 1 for c in color)


def bc_decide(g: Graph, k: int) -> list[Edge] | None:
    """An edge set F with |F| <= k and g/F bipartite, or None.

    Level-order search over sets of chosen edges; a set's children add
    each original edge between two classes, one of them on a shortest odd
    cycle of the current quotient.  Destroying every odd cycle requires
    contracting such an edge, so the search is complete.

    The goal test is a 2-colouring of g itself that keeps the colour
    inside a class and flips it between classes (``contracted_coloring``),
    so a quotient is built only for a set the search expands.  It runs only
    on the root and on children whose edge joins two consecutive vertices
    of the parent's cycle: contracting one edge maps every odd closed walk
    that avoids that edge to an odd closed walk, so any other child keeps
    the parent's cycle as an odd closed walk and is not bipartite.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    edges = g.sorted_edges()
    candidates = {frozenset()}  # the root and the children that may be bipartite

    def children(chosen):
        cls = _class_map(g, chosen)
        cycle = shortest_odd_cycle(contract_keeping_ids(g, cls))  # odd: its level failed the goal
        on_cycle = set(cycle)
        steps = set(zip(cycle, cycle[1:] + cycle[:1]))
        for e in edges:
            a, b = cls[e[0]], cls[e[1]]
            if a != b and (a in on_cycle or b in on_cycle):  # a == b: inside one class, no change
                child = chosen | {e}
                if (a, b) in steps or (b, a) in steps:
                    candidates.add(child)
                yield child

    def goal(chosen):
        return chosen in candidates and contracted_coloring(g, chosen) is not None

    found = shallowest(frozenset(), goal, children, k)
    return None if found is None else sorted(found)
