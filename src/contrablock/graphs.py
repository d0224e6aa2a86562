"""Simple undirected graphs, edge contraction, and basic structure queries.

Vertices are the integers 0..n-1.  A ``Graph`` is ``n`` plus one neighbour set
per vertex; its edges, (min, max) tuples, are derived on first read and cached.
Graphs are immutable, so threads may share them (racing first reads agree).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Malformed graph text; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Loopless simple graph given by its neighbour sets.  The constructor
    trusts ``adj``; code outside this module builds through ``from_edges``."""

    n: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge {_norm(u, v)}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(n, tuple(map(frozenset, nbrs)))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset((u, w) for u, ns in enumerate(self.adj) for w in ns if u < w)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def checked_vertices(g: Graph, allowed=None) -> frozenset[int]:
    """``allowed`` (all of g when None) as a set; ValueError outside 0..n-1."""
    if allowed is None:
        return frozenset(range(g.n))
    verts = frozenset(allowed)
    if verts and not (0 <= min(verts) and max(verts) < g.n):
        raise ValueError("vertex out of range")
    return verts


def checked_edges(g: Graph, pairs) -> list[Edge]:
    """The pairs as (min, max) edges of g; ValueError names the first non-edge."""
    edges = [_norm(u, v) for u, v in pairs]
    for e in edges:
        if not (0 <= e[0] < g.n and e[1] in g.adj[e[0]]):
            raise ValueError(f"edge {e} not in graph")
    return edges


@dataclass(frozen=True)
class ContractionResult:
    """Quotient graph plus the total map from old vertices to new ones."""

    quotient: Graph
    vmap: tuple[int, ...]

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.quotient.n)]
        for old, new in enumerate(self.vmap):
            out[new].append(old)
        return out


def parse_graph(text: str) -> Graph:
    """Parse the plain text format: '# comment' lines, then 'n m', then m 'u v' lines."""
    n = m = -1
    found = 0
    nbrs: dict[int, set[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n < 0:
            if len(parts) != 2:
                raise GraphFormatError("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("non-integer header field", lineno) from None
            if n < 0 or m < 0:
                raise GraphFormatError("negative count in header", lineno)
            continue
        if len(parts) != 2:
            raise GraphFormatError("expected edge 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("non-integer vertex", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range 0..{n - 1}", lineno)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", lineno)
        if v in nbrs.get(u, ()):
            raise GraphFormatError(f"duplicate edge {min(u, v)} {max(u, v)}", lineno)
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
        found += 1
    if n < 0:
        raise GraphFormatError("missing header 'n m'")
    if found != m:
        raise GraphFormatError(f"header announced {m} edges, found {found}")
    # every edge line was checked above, with its line number
    return Graph(n, tuple(frozenset(nbrs.get(v, ())) for v in range(n)))


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def _class_map(g: Graph, contracted) -> list[int]:
    """``cls[v]``, the smallest original vertex of v's class once the edges
    of ``contracted`` are contracted; ValueError names the first non-edge."""
    joined: dict[int, list[int]] = {}
    for u, v in checked_edges(g, contracted):
        joined.setdefault(u, []).append(v)
        joined.setdefault(v, []).append(u)
    cls = list(range(g.n))
    for comp in components(joined, joined):
        for v in comp:
            cls[v] = comp[0]  # a component comes back sorted
    return cls


def contract_set(g: Graph, contracted) -> ContractionResult:
    """Contract a set of edges; merged classes are renumbered by their minimum
    original vertex, so the result is independent of input order.  It is
    ``contract_keeping_ids`` restricted to the class minima."""
    cls = _class_map(g, contracted)
    quotient, minima = induced_subgraph(contract_keeping_ids(g, cls), [v for v, r in enumerate(cls) if r == v])
    rank = {r: i for i, r in enumerate(minima)}
    return ContractionResult(quotient, tuple(rank[r] for r in cls))


def contract_keeping_ids(g: Graph, cls) -> Graph:
    """The quotient of g by the class map ``cls`` on g's own numbering: each
    class is its smallest vertex, which holds the class's neighbours, and
    the class's other vertices stay in the graph as isolated vertices.  A
    vertex set of class minima induces the subgraph that ``contract_set``
    builds on their ranks, and a set of vertices outside every merged class
    induces the same subgraph as in g.  It trusts ``cls``: ``cls[v]`` is
    the smallest vertex of v's class, as ``_class_map`` and ``forest_sets``
    build it."""
    # A quotient of a simple graph is simple, so it is built unvalidated; the
    # loop reads g's cached edge set, which holds each edge once, not twice.
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        a, b = cls[u], cls[v]
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return Graph(g.n, tuple(map(frozenset, nbrs)))


def contracted_coloring(g: Graph, contracted) -> tuple[int, ...] | None:
    """``bipartition``'s 0/1 colouring of the contraction of ``contracted``,
    read back onto g's vertices, or None when that quotient is odd.

    The quotient is never built: one stack search over g keeps the colour
    across an edge inside a class and flips it across one between classes.
    Each component starts with colour 0 at its smallest vertex, whose class
    is the component's smallest quotient vertex, as in ``bipartition``."""
    cls = _class_map(g, contracted)
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            same, flip, c = color[v], color[v] ^ 1, cls[v]
            for w in g.adj[v]:
                want = same if cls[w] == c else flip
                if color[w] < 0:
                    color[w] = want
                    stack.append(w)
                elif color[w] != want:
                    return None
    return tuple(color)


def contract_edge(g: Graph, e: Edge) -> ContractionResult:
    return contract_set(g, [e])


def bfs(adj, roots, allowed=None) -> dict[int, int]:
    """Breadth-first forest grown from each root not yet reached, in the
    given order, visiting neighbours in ascending order and staying inside
    ``allowed`` when given.  Returns vertex -> parent (-1 for a root) in
    visiting order.  ``adj`` is anything indexed by vertex that yields
    neighbours, such as ``Graph.adj`` or a multigraph dict."""
    parent: dict[int, int] = {}
    for r in roots:
        if r in parent:
            continue
        parent[r] = -1
        queue = deque([r])
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if w not in parent and (allowed is None or w in allowed):
                    parent[w] = v
                    queue.append(w)
    return parent


def depth_first(root, children):
    """Every node of the search tree below ``root``, root included, in
    depth-first preorder with children in the order ``children(node)``
    yields them.  The stack holds one iterator per open node, so the depth
    of the tree is not bounded by the recursion limit; a child is expanded
    only once the caller asks for the node after it."""
    yield root
    stack = [iter(children(root))]
    while stack:
        for node in stack[-1]:
            yield node
            stack.append(iter(children(node)))
            break
        else:
            stack.pop()


def forest_sets(g: Graph, size: int, cut=None):
    """Every acyclic set of ``size`` edges of ``g`` in
    ``itertools.combinations(g.sorted_edges(), size)`` order, as
    ``(edges, cls)`` with ``cls[v]`` the smallest vertex of v's class in the
    contraction of ``edges``.

    The sets are the full-size nodes of a prefix tree walked by
    ``depth_first``.  A child adds a later edge whose ends lie in different
    classes, so a prefix that closes a cycle is cut with all its
    extensions, and a child is made only while enough edges remain.
    ``cut(cls, r)``, when given, is asked of each child, with its class map
    and the r edges it still has to add; a child it answers True for is cut
    with all its extensions, so only the sets it never cut come, in the same
    order."""
    edges = g.sorted_edges()

    def children(node):
        start, chosen, cls = node
        r = size - len(chosen) - 1  # the edges a child still has to add
        if r < 0:
            return
        for i in range(start, len(edges) - r):
            a, b = cls[edges[i][0]], cls[edges[i][1]]
            if a != b:
                lo, hi = (a, b) if a < b else (b, a)
                child = tuple(lo if c == hi else c for c in cls)
                if cut is None or not cut(child, r):
                    yield i + 1, chosen + (edges[i],), child

    for _, chosen, cls in depth_first((0, (), tuple(range(g.n))), children):
        if len(chosen) == size:
            yield chosen, cls


def shallowest(root, goal, children, hi: int):
    """Level-order search: the first goal state among the fewest
    ``children`` steps below ``root`` (at most ``hi``), or None.

    A level's states are expanded in order and each new child is tested
    as it is generated; one ``seen`` set keeps a state from being tested
    or expanded twice, and a state is expanded only after its level failed."""
    if hi < 0:
        return None
    if goal(root):
        return root
    seen = {root}
    level = [root]
    for _ in range(hi):
        following = []
        for state in level:
            for child in children(state):
                if child not in seen:
                    if goal(child):
                        return child
                    seen.add(child)
                    following.append(child)
        level = following
    return None


def split_solve(parts, lbs, cap: int, solve) -> frozenset[int] | None:
    """Solve disjoint parts in order, each within the cap left over after
    the lower bounds of the parts still to come; ``solve(part, share)``
    returns a set of at most ``share`` picks, or None.  The union of the
    parts' sets, which stays within ``cap``, or None when a part fails."""
    rest = sum(lbs)
    if rest > cap:
        return None
    picks: frozenset[int] = frozenset()
    for part, lb in zip(parts, lbs):
        rest -= lb
        got = solve(part, cap - len(picks) - rest)
        if got is None:
            return None
        picks |= got
    return picks


def components(adj, verts) -> list[list[int]]:
    """Components of the subgraph induced by ``verts``, as sorted vertex
    lists ordered by their minimum vertex.  The search is an unsorted
    stack: neighbour order cannot change a vertex set."""
    todo = set(verts)
    comps: list[list[int]] = []
    for s in sorted(todo):
        if s not in todo:
            continue
        todo.remove(s)
        comp = [s]
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w in todo:
                    todo.remove(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by their minimum vertex."""
    return components(g.adj, range(g.n))


def bipartition(g: Graph, allowed=None) -> tuple[list[int], list[int]] | None:
    """A proper two-sided split (L, R), or None if the graph is odd.

    The odd-cycle witness paired with a None answer is produced by
    shortest_odd_cycle.  ``allowed`` restricts the check to an induced
    vertex subset.
    """
    alive = checked_vertices(g, allowed)
    color: dict[int, int] = {}
    for s in sorted(alive):
        if s in color:
            continue
        color[s] = 0
        stack = [s]  # a connected bipartite graph has one 2-colouring, whatever the visiting order
        while stack:
            v = stack.pop()
            for w in g.adj[v] & alive:
                if w not in color:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return sorted(v for v in alive if color[v] == 0), sorted(v for v in alive if color[v] == 1)


def tree_cycle(parent: dict[int, int], v: int, w: int) -> list[int]:
    """The cycle that the non-tree edge vw closes in the forest of a ``bfs``
    parent map: their lowest common ancestor first, down the tree to v, then
    from w back up to just below the ancestor."""
    up = [v]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    ancestors = set(up)
    back = [w]
    while back[-1] not in ancestors:
        back.append(parent[back[-1]])
    return up[up.index(back[-1]) :: -1] + back[:-1]


def shortest_odd_cycle(g: Graph, allowed=None) -> list[int] | None:
    """A shortest odd cycle as a vertex list (consecutive and wrap-around
    entries adjacent), or None when the graph is bipartite.

    Each root, in ascending order, grows its breadth-first tree level by
    level with neighbours in ascending order, so parents and visiting order
    are those of ``bfs``.  While a level h is expanded, its vertices are
    scanned in visiting order for a larger neighbour on the same level; the
    first such edge, with its smallest partner, ends the root's search.  It
    closes an odd cycle of at most 2h + 1 vertices through the tree
    (``tree_cycle``), and it replaces the best cycle so far only when
    2h + 1 is below the best's length; every later odd edge of the root
    lies on level h or deeper.  So once a cycle of length L is known, a
    root stops before the first level with 2h + 1 >= L, provided an
    earlier search that found an odd edge visited it, so that its
    component is known to be odd.  Any other root searches on, so that a
    root that exhausts its component without an odd edge marks the
    component bipartite and its other roots are skipped.
    """
    alive = checked_vertices(g, allowed)
    best: list[int] | None = None
    bipartite: set[int] = set()
    odd: set[int] = set()
    for s in sorted(alive):
        if s in bipartite:
            continue
        par = {s: -1}
        level, length, edge = [s], 1, None
        while level and edge is None and (best is None or length < len(best) or s not in odd):
            on, following = set(level), []
            for v in level:
                for w in sorted(g.adj[v]):
                    if w in on:
                        if w > v:
                            edge = v, w
                            break
                    elif w not in par and w in alive:
                        par[w] = v
                        following.append(w)
                if edge is not None:
                    break
            else:
                level, length = following, length + 2
        if edge is not None:
            odd.update(par)
            if best is None or length < len(best):
                best = tree_cycle(par, *edge)
                if len(best) == 3:
                    break
        elif not level:
            bipartite.update(par)
    return best


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``vertices``; returns (subgraph, new-to-old map)."""
    keep = checked_vertices(g, vertices)
    old = sorted(keep)
    pos = {v: i for i, v in enumerate(old)}
    adj = tuple(frozenset(pos[w] for w in g.adj[v] & keep) for v in old)
    return Graph(len(old), adj), old


def path_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> Graph:
    return Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def subdivide_edges(g: Graph) -> Graph:
    """Subdivide every edge once; original vertices keep their indices and
    subdivision vertices are appended in sorted edge order."""
    edges = []
    nxt = g.n
    for u, v in g.sorted_edges():
        edges.append((u, nxt))
        edges.append((nxt, v))
        nxt += 1
    return Graph.from_edges(nxt, edges)


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def is_two_connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and no cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    return all(len(components(g.adj, [x for x in range(g.n) if x != v])) == 1 for v in range(g.n))
