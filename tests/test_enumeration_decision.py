"""The bounded enumeration's per-quotient decision against the code it replaced.

Each ``_reference_*`` function below is the code the library carried before
the enumeration asked a yes/no question of each quotient: quotients were
built through the validating ``Graph.from_edges``, and ``_component_opt``
tried every edge set, including sets with an edge that closes a cycle.  The
new code must return exactly the same quotients, values and witnesses, and
``vc_with_modulator_fits`` must agree with the size of the full modulator
solve at every budget.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from contrablock import contraction_vc, vertex_cover
from contrablock.contraction_vc import _component_opt, algorithm1
from contrablock.graphs import (
    ContractionResult,
    Graph,
    bfs,
    bipartition,
    contract_set,
    is_connected,
)
from contrablock.vertex_cover import vc_branching, vc_with_modulator, vc_with_modulator_fits

from .conftest import grid_graph, random_connected_graph, random_graph


def _reference_contract_set(g, contracted):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in contracted:
        e = (min(u, v), max(u, v))
        if e not in g.edges:
            raise ValueError(f"edge {e} not in graph")
        ru, rv = find(e[0]), find(e[1])
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    roots = sorted({find(v) for v in range(g.n)})
    index = {r: i for i, r in enumerate(roots)}
    vmap = tuple(index[find(v)] for v in range(g.n))
    qedges = {(min(vmap[u], vmap[v]), max(vmap[u], vmap[v])) for u, v in g.edges if vmap[u] != vmap[v]}
    return ContractionResult(Graph.from_edges(len(roots), qedges), vmap)


def _reference_component_opt(c, d_prime, paper_convention):
    if d_prime < 0:
        raise ValueError("drop must be non-negative")
    if not is_connected(c):
        raise ValueError("component must be connected")
    if d_prime == 0:
        return 0, ()
    vc_c = vc_branching(c).size
    if vc_c < d_prime or (paper_convention and vc_c == d_prime):
        return math.inf, None
    if vc_c == d_prime:
        tree = [(min(p, v), max(p, v)) for v, p in bfs(c.adj, [0]).items() if p != -1]
        return len(tree), tuple(tree)
    target = vc_c - d_prime
    cap = min(2 * d_prime, c.m)
    for size in range(d_prime, cap + 1):
        for f in combinations(c.sorted_edges(), size):
            q = _reference_contract_set(c, f).quotient
            if vc_branching(q, budget=target) is not None:
                return size, f
    raise RuntimeError("a drop of d' needs at most 2d' contractions when vc > d'")


def _random_modulator(rng, g):
    """A random vertex set whose deletion leaves ``g`` bipartite: a random
    start, grown by random vertices until the rest is bipartite."""
    mod = {v for v in range(g.n) if rng.random() < 0.15}
    rest = [v for v in range(g.n) if v not in mod]
    rng.shuffle(rest)
    while bipartition(g, set(range(g.n)) - mod) is None:
        mod.add(rest.pop())
    return mod


class TestModulatorDecision:
    def test_matches_the_full_solve_at_every_budget(self):
        rng = random.Random(7001)
        empty = 0
        for _ in range(2000):
            g = random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.35, 0.5]))
            mods = [_random_modulator(rng, g)]
            if bipartition(g) is not None:
                mods.append(set())
            for mod in mods:
                empty += not mod
                opt = vc_with_modulator(g, mod).size
                for budget in range(opt - 2, opt + 3):
                    assert vc_with_modulator_fits(g, mod, budget) == (opt <= budget), (g, mod, budget)
        assert empty >= 200

    def test_invalid_modulators_raise_the_same_errors(self):
        rng = random.Random(7002)
        odd = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(3, 9), 0.5)
            bad = [{g.n}, {-1}, {0, g.n + 2}]
            mod = {v for v in range(g.n) if rng.random() < 0.2}
            if bipartition(g, set(range(g.n)) - mod) is None:
                bad.append(mod)
                odd += 1
            for mod in bad:
                with pytest.raises(ValueError) as full:
                    vc_with_modulator(g, mod)
                for budget in (-1, 0, g.n):
                    with pytest.raises(ValueError) as fits:
                        vc_with_modulator_fits(g, mod, budget)
                    assert str(fits.value) == str(full.value)
        assert odd >= 50


class TestTrustedQuotients:
    def test_contract_set_matches_the_validated_construction(self):
        rng = random.Random(7003)
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]))
            edges = g.sorted_edges()
            f = rng.sample(edges, rng.randint(0, min(len(edges), 6)))
            f = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in f]
            got, want = contract_set(g, f), _reference_contract_set(g, f)
            assert (got.quotient.n, got.quotient.edges, got.quotient.adj, got.vmap) == (
                want.quotient.n, want.quotient.edges, want.quotient.adj, want.vmap)
            assert got == want

    def test_contract_set_still_rejects_a_non_edge(self):
        g = grid_graph(2, 2)
        for bad in [(0, 3), (3, 0), (1, 1), (0, 9)]:
            with pytest.raises(ValueError, match="not in graph"):
                contract_set(g, [(0, 1), bad])


class TestCycleClosingSets:
    def test_component_opt_matches_the_unskipped_search(self):
        rng = random.Random(7004)
        graphs = [random_connected_graph(rng, 2, 8, max_edges=13) for _ in range(70)]
        graphs += [grid_graph(3, 3), grid_graph(2, 4)]
        for g in graphs:
            for d_prime in range(4):
                for paper in (False, True):
                    assert _component_opt(g, d_prime, paper) == _reference_component_opt(
                        g, d_prime, paper), (g, d_prime, paper)


class TestEnumerationCalls:
    def test_grid_enumeration_decides_each_quotient(self, monkeypatch):
        """On grid 4x4 at k = 5, d = 3 the enumeration solves one full
        modulator cover, for its target, and decides every quotient without
        a König cover extraction.  Each counter wraps the module attribute
        its caller resolves."""
        calls = {"full": 0, "fits": 0, "bipartite_outside_full": 0}
        inside_full = [0]
        full, fits = contraction_vc.vc_with_modulator, contraction_vc.vc_with_modulator_fits
        bipartite = vertex_cover.vc_bipartite

        def counted_full(*args):
            calls["full"] += 1
            inside_full[0] += 1
            try:
                return full(*args)
            finally:
                inside_full[0] -= 1

        def counted_fits(*args):
            calls["fits"] += 1
            return fits(*args)

        def counted_bipartite(*args):
            if not inside_full[0]:
                calls["bipartite_outside_full"] += 1
            return bipartite(*args)

        monkeypatch.setattr(contraction_vc, "vc_with_modulator", counted_full)
        monkeypatch.setattr(contraction_vc, "vc_with_modulator_fits", counted_fits)
        monkeypatch.setattr(vertex_cover, "vc_bipartite", counted_bipartite)
        dec = algorithm1(grid_graph(4, 4), 5, 3)
        assert dec.answer and dec.trace == "enumeration-yes"
        assert dec.witness == ((1, 2), (1, 5), (4, 5), (4, 8))
        assert calls["full"] == 1 and calls["bipartite_outside_full"] == 0, calls
        assert calls["fits"] > 1000, calls
