"""The cover solvers on vertex subsets against the induced copies they replaced.

Each ``_reference_*`` function below is the code a solver or caller carried
before the solvers took an ``allowed`` vertex set: it builds an induced
subgraph, solves it and maps the result back.  The new code must reproduce
it exactly, cover sets and matchings included.  ``networkx`` is a second,
independent oracle for the matching size.
"""

from __future__ import annotations

import random
import sys
from collections import Counter

import networkx as nx

from contrablock import vertex_cover
from contrablock.contraction_vc import _large_component
from contrablock.graphs import (
    Graph,
    bipartition,
    connected_components,
    contract_edge,
    induced_subgraph,
    shortest_odd_cycle,
)
from contrablock.vertex_cover import (
    CoverResult,
    _min_cover,
    maximum_matching,
    vc_after_contraction,
    vc_bipartite,
    vc_branching,
    vc_with_modulator,
)

from .conftest import random_bipartite_graph, random_graph


def _reference_decide_cover(adj, k):
    adj = {v: set(ns) for v, ns in adj.items() if ns}
    picks = set()

    def remove(v):
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
    res = _reference_decide_cover(sub, budget - 1)
    if res is not None:
        return picks | {v} | res

    if len(nbrs) <= budget:
        sub = {x: set(ns) for x, ns in adj.items()}
        for w in nbrs + [v]:
            for y in sub.pop(w, ()):
                sub[y].discard(w)
                if not sub[y]:
                    del sub[y]
        res = _reference_decide_cover(sub, budget - len(nbrs))
        if res is not None:
            return picks | set(nbrs) | res
    return None


def _reference_vc_branching(g, budget=None):
    adj = {v: set(g.adj[v]) for v in range(g.n) if g.adj[v]}
    hi = g.n if budget is None else min(budget, g.n)
    for k in range(hi + 1):
        sol = _reference_decide_cover(adj, k)
        if sol is not None:
            return CoverResult(len(sol), frozenset(sol))
    return None


def _reference_matching(g, left, depth=None):
    """The recursive augmenting-path matching; ``depth``, when given, is a
    one-entry list that records the deepest recursion reached."""
    match = {}

    def augment(u, seen, level):
        if depth is not None:
            depth[0] = max(depth[0], level)
        for w in sorted(g.adj[u]):
            if w in seen:
                continue
            seen.add(w)
            if w not in match or augment(match[w], seen, level + 1):
                match[w] = u
                match[u] = w
                return True
        return False

    for u in sorted(left):
        if u not in match:
            augment(u, set(), 1)
    return match


def _reference_vc_bipartite(g):
    sides = bipartition(g)
    if sides is None:
        raise ValueError("graph is not bipartite")
    left, right = sides
    lset = set(left)
    match = _reference_matching(g, left)
    reach = set(u for u in left if u not in match)
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
    return CoverResult(len(cover), frozenset(cover))


def _reference_vc_with_modulator(g, modulator):
    b = sorted(set(modulator))
    for v in b:
        if not 0 <= v < g.n:
            raise ValueError(f"modulator vertex {v} out of range")
    rest = [v for v in range(g.n) if v not in set(b)]
    sub_rest, _ = induced_subgraph(g, rest)
    if bipartition(sub_rest) is None:
        raise ValueError("graph minus modulator is not bipartite")
    best = None
    for mask in range(1 << len(b)):
        inside = {b[i] for i in range(len(b)) if mask >> i & 1}
        outside = {v for v in b if v not in inside}
        forced = set()
        feasible = True
        for v in outside:
            if g.adj[v] & outside:
                feasible = False
                break
            forced |= g.adj[v]
        if not feasible:
            continue
        removed = set(b) | forced
        residual = [v for v in range(g.n) if v not in removed]
        sub, old = induced_subgraph(g, residual)
        part = _reference_vc_bipartite(sub)
        cover = inside | forced | {old[x] for x in part.cover}
        if best is None or len(cover) < best.size:
            best = CoverResult(len(cover), frozenset(cover))
    return best


def _reference_vc_after_contraction(g, e):
    res = contract_edge(g, tuple(e))
    ge = res.quotient
    w = res.vmap[tuple(e)[0]]
    without_w, _ = induced_subgraph(ge, [v for v in range(ge.n) if v != w])
    take_w = 1 + _reference_vc_bipartite(without_w).size
    closed = set(ge.adj[w]) | {w}
    without_nw, _ = induced_subgraph(ge, [v for v in range(ge.n) if v not in closed])
    take_nbrs = len(ge.adj[w]) + _reference_vc_bipartite(without_nw).size
    return min(take_w, take_nbrs)


def _reference_large_component(g, d):
    for comp in connected_components(g):
        sub, _ = induced_subgraph(g, comp)
        if vc_branching(sub, budget=d) is None:
            return comp
    return None


def _mapped(res, old):
    """A cover found on an induced copy, in the labels of the original graph."""
    return None if res is None else CoverResult(res.size, frozenset(old[x] for x in res.cover))


def _corpus(seed: int, count: int, bipartite: bool = False):
    """Seeded (graph, allowed subset) pairs on 0..12 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        if bipartite:
            g = random_bipartite_graph(rng, 0, 12)
        else:
            g = random_graph(rng, rng.randint(0, 12), rng.choice([0.15, 0.3, 0.5, 0.7]))
        keep = rng.choice([0.4, 0.7, 0.9, 1.0])
        yield rng, g, {v for v in range(g.n) if rng.random() < keep}


def _odd_cycle_hitting_set(g: Graph) -> set[int]:
    """A greedy modulator: one vertex of each shortest odd cycle found."""
    hit: set[int] = set()
    cycle = shortest_odd_cycle(g)
    while cycle is not None:
        hit.add(cycle[0])
        cycle = shortest_odd_cycle(g, set(range(g.n)) - hit)
    return hit


class TestBranchingOnSubsets:
    def test_decide_cover_matches_reference(self):
        """The search at cap k finds the reference's cover at the smallest
        budget j <= k that has one."""
        nones = 0
        for rng, g, allowed in _corpus(4001, 2000):
            adj = {v: g.adj[v] & allowed for v in sorted(allowed) if g.adj[v] & allowed}
            k = rng.randint(0, len(allowed))
            want = next((c for j in range(k + 1) if (c := _reference_decide_cover(adj, j)) is not None), None)
            assert _min_cover({v: set(ns) for v, ns in adj.items()}, k) == want, (g, allowed, k)
            nones += want is None
        assert nones >= 200

    def test_vc_branching_matches_induced_copy(self):
        nones = 0
        for rng, g, allowed in _corpus(4002, 2000):
            budget = rng.choice([None, -1, rng.randint(0, g.n)])
            assert vc_branching(g, budget) == _reference_vc_branching(g, budget)
            sub, old = induced_subgraph(g, allowed)
            want = _mapped(_reference_vc_branching(sub, budget), old)
            assert vc_branching(g, budget, allowed) == want, (g, allowed, budget)
            nones += want is None
        assert nones >= 200

    def test_matching_bound_prunes_the_search(self, monkeypatch):
        """On a seeded G(60, 0.15) the matching bound cuts the search to at
        most half the nodes of the reference, which has no bound, and the
        cover found is the same.  Both searches recurse through their module
        attribute, so the patched counters see every node."""
        g = random_graph(random.Random(60), 60, 0.15)
        nodes = Counter()
        for module, name in [(vertex_cover, "_min_cover"),
                             (sys.modules[__name__], "_reference_decide_cover")]:
            def counted(adj, k, name=name, search=getattr(module, name)):
                nodes[name] += 1
                return search(adj, k)
            monkeypatch.setattr(module, name, counted)
        assert vc_branching(g) == _reference_vc_branching(g)
        assert 2 * nodes["_min_cover"] <= nodes["_reference_decide_cover"], nodes


class TestBipartiteOnSubsets:
    def test_vc_bipartite_matches_induced_copy(self):
        odd = 0
        for _, g, allowed in _corpus(4003, 2000):
            sub, old = induced_subgraph(g, allowed)
            if bipartition(sub) is None:
                odd += 1
                try:
                    vc_bipartite(g, allowed)
                except ValueError:
                    continue
                raise AssertionError(f"odd subset accepted: {g} {allowed}")
            got = vc_bipartite(g, allowed)
            assert got == _mapped(_reference_vc_bipartite(sub), old), (g, allowed)
            if bipartition(g) is not None:
                assert vc_bipartite(g) == _reference_vc_bipartite(g)
        assert 200 <= odd <= 1800

    def test_cover_size_matches_networkx(self):
        for _, g, allowed in _corpus(4004, 2000, bipartite=True):
            h = nx.Graph()
            h.add_nodes_from(allowed)
            h.add_edges_from((u, v) for u, v in g.edges if u in allowed and v in allowed)
            left = bipartition(g, allowed)[0]
            pairs = nx.bipartite.hopcroft_karp_matching(h, top_nodes=left)
            assert vc_bipartite(g, allowed).size == len(pairs) // 2, (g, allowed)

    def test_matching_matches_recursive_reference(self):
        rng = random.Random(4005)
        deepest = 0
        graphs = [g for _, g, _ in _corpus(4006, 900, bipartite=True)]
        # relabelled long paths, even cycles and grids give long augmenting paths
        for _ in range(100):
            n = rng.randint(10, 60)
            perm = list(range(n))
            rng.shuffle(perm)
            if rng.random() < 0.5:
                edges = [(perm[i], perm[i + 1]) for i in range(n - 1)]
            else:
                n -= n % 2
                edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
            graphs.append(Graph.from_edges(len(perm), edges))
        for g in graphs:
            keep = rng.choice([0.6, 0.9, 1.0])
            allowed = {v for v in range(g.n) if rng.random() < keep}
            for verts in (None, allowed):
                sub, old = induced_subgraph(g, range(g.n) if verts is None else verts)
                depth = [0]
                ref = _reference_matching(sub, bipartition(sub)[0], depth)
                deepest = max(deepest, depth[0])
                want = [(old[a], old[b]) for a, b in ref.items()]
                got = maximum_matching(g, bipartition(g, verts)[0], verts)
                assert list(got.items()) == want, (g, verts)
        assert deepest >= 8


class TestModulatorOnSubsets:
    def test_vc_with_modulator_matches_reference(self):
        invalid = 0
        for rng, g, _ in _corpus(4007, 2000):
            modulator = _odd_cycle_hitting_set(g)
            if g.n and rng.random() < 0.5:
                modulator.add(rng.randrange(g.n))
            if g.n and rng.random() < 0.2:
                modulator = {rng.randrange(g.n)}  # often not a modulator at all
            try:
                want = _reference_vc_with_modulator(g, modulator)
            except ValueError:
                invalid += 1
                try:
                    vc_with_modulator(g, modulator)
                except ValueError:
                    continue
                raise AssertionError(f"invalid modulator accepted: {g} {modulator}")
            assert vc_with_modulator(g, modulator) == want, (g, modulator)
        assert invalid >= 100

    def test_vc_after_contraction_matches_reference(self):
        for _, g, _ in _corpus(4008, 500, bipartite=True):
            for e in g.sorted_edges():
                assert vc_after_contraction(g, e) == _reference_vc_after_contraction(g, e)


def test_large_component_matches_reference():
    found = 0
    for rng, g, _ in _corpus(4009, 2000):
        d = rng.randint(1, 3)
        want = _reference_large_component(g, d)
        big, sizes = _large_component(g, d)
        assert big == want, (g, d)
        comps = connected_components(g)
        before = comps if want is None else comps[:comps.index(want)]
        assert sizes == [vc_branching(induced_subgraph(g, comp)[0]).size for comp in before], (g, d)
        found += want is not None
    assert 200 <= found <= 1800
