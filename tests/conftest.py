"""Shared corpus builders and independent brute-force oracles.

Every oracle here enumerates subsets or assignments directly and never calls
the solver paths it is used to check.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from contrablock.graphs import (
    Graph,
    bipartition,
    connected_components,
    induced_subgraph,
)


def graph_from(n: int, edges) -> Graph:
    return Graph.from_edges(n, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.from_edges(a.n + b.n, edges)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def serialize_cnf(phi) -> str:
    lines = [f"p cnf {phi.n} {phi.m}"]
    lines.extend(" ".join(str(l) for l in c) + " 0" for c in phi.clauses)
    return "\n".join(lines) + "\n"


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid; vertex cols * r + c sits in row r, column c."""
    return Graph.from_edges(rows * cols,
                            [(cols * r + c, cols * r + c + 1) for r in range(rows) for c in range(cols - 1)]
                            + [(cols * r + c, cols * r + c + cols) for r in range(rows - 1) for c in range(cols)])


def random_connected_graph(
    rng: random.Random, n_lo: int, n_hi: int, max_edges: int = 17
) -> Graph:
    while True:
        n = rng.randint(n_lo, n_hi)
        p = rng.choice([0.3, 0.4, 0.55, 0.7])
        g = random_graph(rng, n, p)
        if g.m <= max_edges and (n <= 1 or len(connected_components(g)) == 1):
            return g


def random_bipartite_graph(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    n = rng.randint(n_lo, n_hi)
    left_size = rng.randint(0, n)
    left = set(range(left_size))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u in left) != (v in left) and rng.random() < 0.5:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])


def brute_vc(g: Graph) -> int:
    """Subset-enumeration minimum vertex cover size."""
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            ss = set(s)
            if all(u in ss or v in ss for u, v in g.edges):
                return k
    return g.n


def is_forest(g: Graph) -> bool:
    return g.m == g.n - len(connected_components(g))


def brute_fvs(g: Graph) -> int:
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            rest = [v for v in range(g.n) if v not in s]
            sub, _ = induced_subgraph(g, rest)
            if is_forest(sub):
                return k
    return g.n


def brute_oct(g: Graph) -> int:
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            rest = [v for v in range(g.n) if v not in s]
            sub, _ = induced_subgraph(g, rest)
            if bipartition(sub) is not None:
                return k
    return g.n


def min_coloring_cost(g: Graph) -> int:
    """Exhaustive minimum cost over all 2-colorings."""
    from contrablock.bipartite_contraction import coloring_cost

    return min(coloring_cost(g, phi) for phi in product((1, 2), repeat=g.n))


def cover_is_valid(g: Graph, cover) -> bool:
    cover = set(cover)
    return all(u in cover or v in cover for u, v in g.edges)


@pytest.fixture(scope="session")
def small_graph_corpus():
    """Seeded mix used by the oracle-equivalence suites: every labeled graph
    on up to 4 vertices plus random graphs on 5..8."""
    rng = random.Random(2024)
    corpus = []
    for n in range(1, 5):
        corpus.extend(all_graphs(n))
    for _ in range(120):
        corpus.append(random_graph(rng, rng.randint(5, 8), rng.choice([0.3, 0.5, 0.7])))
    return corpus
