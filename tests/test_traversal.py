"""The shared traversals in ``graphs`` against the loops they replaced.

Each ``_reference_*`` function below is the hand-written breadth- or
depth-first loop a caller carried before it went through ``bfs`` or
``components``; the callers must reproduce it exactly, order included.
``networkx`` is a second, independent oracle for the two helpers.
"""

from __future__ import annotations

import random
from collections import deque

import networkx as nx

from contrablock.bipartite_contraction import coloring_to_contraction, monochromatic_components
from contrablock.contraction_vc import _component_opt, _spanning_forest_witness, algorithm1
from contrablock.graphs import (
    Graph,
    bfs,
    components,
    connected_components,
    induced_subgraph,
    is_connected,
    is_two_connected,
    shortest_odd_cycle,
    tree_cycle,
)
from contrablock.transversal import (
    _alive_components,
    _mg_components,
    _mg_find_cycle,
    _mg_reduce,
    _pattern_order,
)
from contrablock.vertex_cover import vc_branching

from .conftest import random_graph
from .test_hitting_once import _reference_mg_find_cycle


def _reference_connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in sorted(g.adj[v]):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _reference_cut_to_simple_odd_cycle(walk: list[int]) -> list[int]:
    # Closed odd walk -> simple odd cycle contained in it.
    while True:
        pos: dict[int, int] = {}
        split = None
        for i, v in enumerate(walk):
            if v in pos:
                split = (pos[v], i)
                break
            pos[v] = i
        if split is None:
            return walk
        i, j = split
        inner = walk[i:j]
        outer = walk[:i] + walk[j:]
        walk = inner if len(inner) % 2 == 1 else outer


def _reference_shortest_odd_cycle(g: Graph, allowed=None) -> list[int] | None:
    alive = set(allowed) if allowed is not None else set(range(g.n))
    best: tuple[int, list[int]] | None = None
    for s in sorted(alive):
        dist = {s: 0}
        par = {s: -1}
        queue = deque([s])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(g.adj[v]):
                if w in alive and w not in dist:
                    dist[w] = dist[v] + 1
                    par[w] = v
                    queue.append(w)
        for v in order:
            for w in sorted(g.adj[v]):
                if w not in dist or w <= v:
                    continue
                if (dist[v] + dist[w]) % 2 == 0:
                    length = dist[v] + dist[w] + 1
                    if best is None or length < best[0]:
                        up, down = [], []
                        x = v
                        while x != -1:
                            up.append(x)
                            x = par[x]
                        x = w
                        while x != -1:
                            down.append(x)
                            x = par[x]
                        walk = up[::-1] + down[:-1]
                        cyc = _reference_cut_to_simple_odd_cycle(walk)
                        best = (len(cyc), cyc)
        if best is not None and best[0] == 3:
            break
    return best[1] if best is not None else None


def _reference_monochromatic_components(g: Graph, phi) -> list[list[int]]:
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in sorted(g.adj[v]):
                if not seen[w] and phi[w] == phi[v]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _reference_coloring_to_contraction(g: Graph, phi) -> list[tuple[int, int]]:
    edges = []
    for comp in _reference_monochromatic_components(g, phi):
        inside = set(comp)
        seen = {comp[0]}
        queue = deque([comp[0]])
        while queue:
            v = queue.popleft()
            for w in sorted(g.adj[v]):
                if w in inside and w not in seen and phi[w] == phi[v]:
                    seen.add(w)
                    edges.append((min(v, w), max(v, w)))
                    queue.append(w)
    return sorted(edges)


def _reference_forest_edges(g: Graph, cover) -> list[tuple[int, int]]:
    """The cover-induced BFS forest of ``_spanning_forest_witness``."""
    edges = []
    seen: set[int] = set()
    for s in sorted(cover):
        if s in seen:
            continue
        seen.add(s)
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in sorted(g.adj[v]):
                if w in cover and w not in seen:
                    seen.add(w)
                    edges.append((min(v, w), max(v, w)))
                    queue.append(w)
    return edges


def _reference_spanning_tree_edges(c: Graph) -> list[tuple[int, int]]:
    edges = []
    seen = {0} if c.n else set()
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in sorted(c.adj[v]):
            if w not in seen:
                seen.add(w)
                edges.append((min(v, w), max(v, w)))
                queue.append(w)
    return edges


def _reference_pattern_order(h: Graph) -> list[int]:
    order: list[int] = []
    seen: set[int] = set()
    for root in range(h.n):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in sorted(h.adj[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def _reference_alive_components(g: Graph, alive) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps = []
    for s in sorted(alive):
        if s in seen:
            continue
        seen.add(s)
        comp = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w in alive and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def _reference_mg_components(adj) -> list[dict[int, dict[int, int]]]:
    seen: set[int] = set()
    comps = []
    for s in sorted(adj):
        if s in seen:
            continue
        seen.add(s)
        comp = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append({v: dict(adj[v]) for v in sorted(comp)})
    return comps


def _reference_is_two_connected(g: Graph) -> bool:
    if g.n < 3 or len(_reference_connected_components(g)) != 1:
        return False
    for v in range(g.n):
        sub, _ = induced_subgraph(g, [x for x in range(g.n) if x != v])
        if len(_reference_connected_components(sub)) != 1:
            return False
    return True


def _corpus(seed: int, count: int):
    """Seeded (graph, allowed subset, colouring) triples on 0..11 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 11)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
        keep = rng.choice([0.4, 0.7, 0.9])
        allowed = {v for v in range(n) if rng.random() < keep}
        phi = tuple(rng.choice((1, 2)) for _ in range(n))
        yield g, allowed, phi


def _multigraph(rng: random.Random, g: Graph):
    """``g`` as an FVS multigraph, with some loops and doubled edges."""
    adj = {v: {} for v in range(g.n)}
    for v in range(g.n):
        if rng.random() < 0.1:
            adj[v][v] = 1
    for u, v in g.edges:
        mult = 2 if rng.random() < 0.2 else 1
        adj[u][v] = adj[v][u] = mult
    return adj


class TestCallersMatchReplacedLoops:
    def test_graph_queries(self):
        odd = 0
        sizes = set()
        for g, allowed, _ in _corpus(3001, 2000):
            sizes.add(g.n)
            assert connected_components(g) == _reference_connected_components(g)
            assert shortest_odd_cycle(g) == _reference_shortest_odd_cycle(g)
            got = shortest_odd_cycle(g, allowed)
            assert got == _reference_shortest_odd_cycle(g, allowed), (g, allowed)
            odd += got is not None
            assert is_connected(g) == (g.n <= 1 or len(_reference_connected_components(g)) == 1)
            assert is_two_connected(g) == _reference_is_two_connected(g)
        assert odd >= 200 and sizes == set(range(12))

    def test_colorings(self):
        for g, _, phi in _corpus(3002, 2000):
            assert monochromatic_components(g, phi) == _reference_monochromatic_components(g, phi)
            assert coloring_to_contraction(g, phi) == _reference_coloring_to_contraction(g, phi)

    def test_transversal_helpers(self):
        for g, allowed, _ in _corpus(3003, 2000):
            assert _pattern_order(g) == _reference_pattern_order(g)
            alive = frozenset(allowed)
            assert _alive_components(g, alive) == _reference_alive_components(g, alive)

    def test_multigraph_components(self):
        rng = random.Random(3004)
        loops = parallel = 0
        for g, _, _ in _corpus(3005, 2000):
            adj = _multigraph(rng, g)
            loops += any(v in ns for v, ns in adj.items())
            assert _mg_components(adj) == _reference_mg_components(adj)
            forbidden = {v for v in adj if rng.random() < 0.2}
            if _mg_reduce(adj, forbidden) is None:
                continue
            parallel += any(c == 2 for ns in adj.values() for c in ns.values())
            assert _mg_components(adj) == _reference_mg_components(adj)
        assert loops >= 200 and parallel >= 200

    def test_spanning_witnesses(self):
        bc_large = trees = 0
        for g, _, _ in _corpus(3006, 2000):
            if g.m == 0:
                continue
            forest = _reference_forest_edges(g, vc_branching(g).cover)
            for d in range(1, len(forest) + 1):
                assert _spanning_forest_witness(g, d) == tuple(forest[:d])
            if shortest_odd_cycle(g) is not None:
                decision = algorithm1(g, 1, 1)
                assert decision.trace == "bc-large"
                assert decision.witness == tuple(forest[:1])
                bc_large += 1
            if len(connected_components(g)) == 1:
                size, witness = _component_opt(g, vc_branching(g).size, False)
                tree = _reference_spanning_tree_edges(g)
                assert (size, witness) == (len(tree), tuple(tree))
                trees += 1
        assert bc_large >= 200 and trees >= 200


def _cycle_edges(cycle: list[int]) -> list[frozenset[int]]:
    return [frozenset((a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])]


class TestTreeCycles:
    def test_tree_cycle_closes_each_non_tree_edge(self):
        below_root = 0
        for g, allowed, _ in _corpus(3009, 2000):
            parent = bfs(g.adj, sorted(allowed), allowed)
            tree = {frozenset((v, p)) for v, p in parent.items() if p != -1}
            for v, w in g.edges:
                if v not in parent or w not in parent or frozenset((v, w)) in tree:
                    continue
                cycle = tree_cycle(parent, v, w)
                assert len(set(cycle)) == len(cycle) >= 3, (g, allowed, v, w)
                edges = _cycle_edges(cycle)
                assert len(set(edges)) == len(edges) and frozenset((v, w)) in edges
                assert all(e in tree for e in edges if e != frozenset((v, w)))
                # the ancestor comes first, and v's successor is w
                assert cycle[cycle.index(v) + 1 - len(cycle)] == w
                top = cycle[0]
                for x in cycle[1:]:
                    while x != top and x != -1:
                        x = parent[x]
                    assert x == top
                below_root += parent[top] != -1
        assert below_root >= 200

    def test_mg_find_cycle_finds_a_cycle_of_the_multigraph(self):
        rng = random.Random(3010)
        found = forests = 0
        for g, allowed, _ in _corpus(3011, 2000):
            adj = _multigraph(rng, g)
            adj = {v: {w: c for w, c in adj[v].items() if w in allowed and w != v} for v in allowed}
            cycle = _mg_find_cycle(adj)
            assert (cycle is None) == (_reference_mg_find_cycle(adj) is None), adj
            if cycle is None:
                forests += 1
                continue
            found += 1
            assert len(set(cycle)) == len(cycle) >= 2
            if len(cycle) == 2:
                assert adj[cycle[0]][cycle[1]] >= 2
            else:
                assert all(adj[a].get(b, 0) >= 1 for a, b in map(tuple, _cycle_edges(cycle)))
        assert found >= 200 and forests >= 200


def _nx_graph(g: Graph, verts) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(verts)
    h.add_edges_from((u, v) for u, v in g.edges if u in h and v in h)
    return h


class TestHelpersMatchNetworkx:
    def test_components(self):
        for g, allowed, _ in _corpus(3007, 2000):
            for verts in (range(g.n), allowed):
                want = sorted(sorted(c) for c in nx.connected_components(_nx_graph(g, verts)))
                assert components(g.adj, verts) == want

    def test_bfs_forest(self):
        for g, allowed, _ in _corpus(3008, 2000):
            roots = sorted(allowed)
            h = _nx_graph(g, allowed)
            want: dict[int, int] = {}
            for r in roots:
                if r in want:
                    continue
                want[r] = -1
                for p, v in nx.bfs_edges(h, r, sort_neighbors=sorted):
                    want[v] = p
            got = bfs(g.adj, roots, allowed)
            assert list(got.items()) == list(want.items())
            if not allowed:
                continue
            # the whole graph from one root, with no ``allowed`` restriction
            r = roots[0]
            want = {r: -1}
            want.update((v, p) for p, v in nx.bfs_edges(_nx_graph(g, range(g.n)), r,
                                                         sort_neighbors=sorted))
            assert list(bfs(g.adj, [r]).items()) == list(want.items())

    def test_bfs_roots_in_given_order(self):
        # a later root already reached by an earlier one starts no new tree
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert bfs(g.adj, [2, 0, 4, 3]) == {2: -1, 1: 2, 0: 1, 4: -1, 3: 4}
        assert list(bfs(g.adj, [2, 0, 4, 3])) == [2, 1, 0, 4, 3]
        assert bfs(g.adj, [0], allowed={0, 2}) == {0: -1}
        assert components(g.adj, []) == []
        assert components(g.adj, [4, 2, 0]) == [[0], [2], [4]]
        assert components({7: {7: 1, 9: 2}, 9: {7: 2}}, {7: None, 9: None}) == [[7, 9]]
