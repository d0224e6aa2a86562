"""Bench-local graph and formula oracles.

Nothing here imports contrablock: the expected answers and witness
certificates of the benchmark come from this code alone, so a defect in a
solver cannot also hide in the check that judges it.  Graphs are plain
``(n, edges)`` pairs with edges as ``(u, v)`` tuples, ``u < v``.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_bipartite(n: int, edges, removed=frozenset()) -> bool:
    """Proper 2-colouring exists on the graph minus ``removed``."""
    adj = adjacency(n, edges)
    color: dict[int, int] = {}
    for s in range(n):
        if s in removed or s in color:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w in removed:
                    continue
                if w not in color:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def quotient(n: int, edges, contracted) -> tuple[int, list[tuple[int, int]]]:
    """Graph after contracting ``contracted`` (which must be edges of the graph)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in contracted:
        parent[find(u)] = find(v)
    roots = sorted({find(v) for v in range(n)})
    index = {r: i for i, r in enumerate(roots)}
    qedges = set()
    for u, v in edges:
        a, b = index[find(u)], index[find(v)]
        if a != b:
            qedges.add((min(a, b), max(a, b)))
    return len(roots), sorted(qedges)


def vertex_cover_number(n: int, edges) -> int:
    """Exact cover number as n minus a maximum independent set (bitmask
    recursion with memo); meant for graphs of at most a few dozen vertices."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo: dict[int, int] = {}

    def mis(mask: int) -> int:
        if mask == 0:
            return 0
        if mask in memo:
            return memo[mask]
        best_v, best_deg = -1, -1
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = bin(nbr[v] & mask).count("1")
            if deg <= 1:
                best_v, best_deg = v, deg
                break
            if deg > best_deg:
                best_v, best_deg = v, deg
            m ^= low
        v = best_v
        with_v = 1 + mis(mask & ~(1 << v) & ~nbr[v])
        if best_deg <= 1:
            out = with_v  # some maximum independent set contains a vertex of degree <= 1
        else:
            out = max(with_v, mis(mask & ~(1 << v)))
        memo[mask] = out
        return out

    return n - mis((1 << n) - 1)


def cover_drop_possible(n: int, edges, k: int, d: int) -> bool:
    """Brute force: does some set of at most k edges lower the cover number by d?"""
    target = vertex_cover_number(n, edges) - d
    seen: set[tuple] = set()
    for size in range(1, k + 1):
        for f in combinations(edges, size):
            q = quotient(n, edges, f)
            key = (q[0], tuple(q[1]))
            if key in seen:
                continue
            seen.add(key)
            if vertex_cover_number(*q) <= target:
                return True
    return False


def cycle_drop_possible(length: int, k: int, d: int) -> bool:
    """Closed form: contracting j < length - 2 edges of a cycle leaves the
    cycle on length - j vertices, and vc(C_n) = ceil(n / 2)."""
    if k > length - 3:
        raise ValueError("closed form needs the quotient to stay a cycle")
    return (length + 1) // 2 - (length - k + 1) // 2 >= d


def grid_cover_number(rows: int, cols: int) -> int:
    """Grids are bipartite with a matching of size floor(rows * cols / 2)."""
    return rows * cols // 2


def _odd_walk_vertices(n: int, adj, alive: set[int]) -> set[int] | None:
    """Vertex set of a shortest odd closed walk through BFS trees (it
    contains an odd cycle), or None when the alive part is bipartite."""
    best: set[int] | None = None
    for s in sorted(alive):
        dist = {s: 0}
        par = {s: -1}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if w in alive and w not in dist:
                    dist[w] = dist[v] + 1
                    par[w] = v
                    queue.append(w)
        for v in dist:
            for w in adj[v]:
                if w in dist and v < w and dist[v] == dist[w]:
                    walk: set[int] = set()
                    for x in (v, w):
                        while x != -1:
                            walk.add(x)
                            x = par[x]
                    if best is None or len(walk) < len(best):
                        best = walk
    return best


def odd_cycle_packing(n: int, edges) -> int:
    """Greedy count of vertex-disjoint odd cycles.  Each one needs its own
    monochromatic edge in any 2-colouring, and vertex-disjoint edges are
    independent in the cycle matroid, so this bounds the bipartite
    contraction number from below."""
    adj = adjacency(n, edges)
    alive = set(range(n))
    count = 0
    while True:
        walk = _odd_walk_vertices(n, adj, alive)
        if walk is None:
            return count
        alive -= walk
        count += 1


def min_odd_cycle_transversal(n: int, edges) -> int:
    for size in range(n + 1):
        for removed in combinations(range(n), size):
            if is_bipartite(n, edges, frozenset(removed)):
                return size
    raise AssertionError("deleting every vertex leaves a bipartite graph")


def has_long_cycle(n: int, edges, removed=frozenset()) -> bool:
    """Cycle of length >= 4 in the graph minus ``removed``: true iff some
    block has four or more vertices (a 2-connected graph on >= 4 vertices
    has a cycle of length >= 4; 3-vertex blocks are triangles)."""
    adj = adjacency(n, edges)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    for root in range(n):
        if root in removed or root in disc:
            continue
        disc[root] = low[root] = len(disc)
        edge_stack: list[tuple[int, int]] = []
        stack = [(root, -1, iter(sorted(adj[root])))]
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w in removed or w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if parent == -1:
                continue
            low[parent] = min(low[parent], low[v])
            if low[v] >= disc[parent]:
                block: set[int] = set()
                while True:
                    e = edge_stack.pop()
                    block.update(e)
                    if e == (parent, v):
                        break
                if len(block) >= 4:
                    return True
    return False


def min_long_cycle_hitting(n: int, edges) -> int:
    """Fewest vertices whose deletion leaves no cycle of length >= 4, which
    is the C4 hitting number under the minor and topological-minor relations."""
    for size in range(n + 1):
        for removed in combinations(range(n), size):
            if not has_long_cycle(n, edges, frozenset(removed)):
                return size
    raise AssertionError("deleting every vertex leaves no cycle")


def satisfiable(nvars: int, clauses) -> bool:
    for mask in range(1 << nvars):
        if all(any((mask >> (abs(l) - 1) & 1) == (l > 0) for l in c) for c in clauses):
            return True
    return False
