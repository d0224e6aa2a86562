"""The bounded enumeration's per-quotient decision against the code it replaced.

Each ``_reference_*`` function below is the code the library carried before
the enumeration asked a yes/no question of each quotient: quotients were
built through the validating ``Graph.from_edges``, and ``_component_opt``
tried every edge set, including sets with an edge that closes a cycle.
``_reference_enumerate`` is the enumeration before it walked acyclic edge
prefixes and refused sets by a matching bound: it built the quotient of every
``combinations`` set and skipped those that closed a cycle.  The new code
must return exactly the same quotients, values and witnesses, and the
enumeration's decision must agree with the size of the full modulator solve
at every budget.  The references ask that solve, ``vc_with_modulator``,
whether its cover fits a budget.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contrablock import contraction_vc, vertex_cover
from contrablock.bipartite_contraction import bc_decide
from contrablock.contraction_vc import _class_decision, _component_opt, _enumerate, _lp_exceeds, algorithm1
from contrablock.graphs import (
    ContractionResult,
    Graph,
    _class_map,
    bfs,
    bipartition,
    contract_keeping_ids,
    contract_set,
    cycle_graph,
    forest_sets,
    induced_subgraph,
    is_connected,
)
from contrablock.vertex_cover import _modulator_setup, maximum_matching, vc_branching, vc_with_modulator

from .conftest import grid_graph, random_bipartite_graph, random_connected_graph, random_graph


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


def _reference_enumerate(g, k, d, low_bc_witness):
    anchors = sorted({v for e in low_bc_witness for v in e})
    target = vc_with_modulator(g, anchors).size - d
    all_edges = g.sorted_edges()
    for size in range(d, k + 1):  # each contraction drops the cover by <= 1
        for f in combinations(all_edges, size):
            res = contract_set(g, f)
            if res.quotient.n > g.n - size:
                continue
            modulator = {res.vmap[v] for v in anchors} | {res.vmap[u] for u, _ in f}
            if vc_with_modulator(res.quotient, modulator).size <= target:
                return f
    return None


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
        """The enumeration's decision, asked of the empty edge set with the
        modulator as its anchors (one vertex per group), fits a budget
        exactly when the full modulator solve's cover does."""
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
                anchors = sorted(mod)
                setup = _modulator_setup(g, [[v] for v in anchors])
                for budget in range(opt - 2, opt + 3):
                    fits = _class_decision(g, anchors, budget, *setup)
                    assert fits((), range(g.n)) == (opt <= budget), (g, mod, budget)
        assert empty >= 200

    def test_invalid_modulators_raise_the_same_errors(self):
        rng = random.Random(7002)
        odd = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(3, 9), 0.5)
            bad = [({g.n}, g.n), ({-1}, -1), ({0, g.n + 2}, g.n + 2)]
            bad = [(mod, f"modulator vertex {v} out of range") for mod, v in bad]
            mod = {v for v in range(g.n) if rng.random() < 0.2}
            if bipartition(g, set(range(g.n)) - mod) is None:
                bad.append((mod, "graph minus modulator is not bipartite"))
                odd += 1
            for mod, message in bad:
                with pytest.raises(ValueError) as err:
                    vc_with_modulator(g, mod)
                assert str(err.value) == message
        assert odd >= 50


class TestTrustedQuotients:
    def test_contract_set_matches_the_validated_construction(self):
        rng = random.Random(7003)
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7]))
            edges = g.sorted_edges()
            f = rng.sample(edges, rng.randint(0, min(len(edges), 6)))
            f += rng.sample(f, rng.randint(0, len(f)))  # repeated pairs
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


def _relabelled_cycle(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in cycle_graph(n).edges])


class TestForestWalk:
    def test_forest_sets_are_the_acyclic_combinations(self):
        rng = random.Random(7005)
        graphs = [random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.8])) for _ in range(100)]
        graphs = [g for g in graphs if g.m <= 12] + [grid_graph(3, 3), _relabelled_cycle(rng, 6)]
        for g in graphs:
            for size in range(5):
                want = []
                for f in combinations(g.sorted_edges(), size):
                    res = contract_set(g, f)
                    if res.quotient.n == g.n - size:
                        low = [min(c) for c in res.classes()]
                        want.append((f, tuple(low[res.vmap[v]] for v in range(g.n))))
                assert list(forest_sets(g, size)) == want, (g, size)
                for f, cls in want:
                    minima = [v for v in range(g.n) if cls[v] == v]
                    kept = induced_subgraph(contract_keeping_ids(g, cls), minima)[0]
                    assert kept == contract_set(g, f).quotient, (g, f)

    def test_a_cut_drops_the_sets_below_a_cut_prefix(self):
        """With a cut predicate the walk yields, in the same order, exactly
        the acyclic sets none of whose prefixes the predicate cuts, asked
        with the prefix's class map and the edges still to add."""
        rng = random.Random(7009)
        graphs = [random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.8])) for _ in range(60)]
        graphs = [g for g in graphs if g.m <= 12] + [grid_graph(3, 3)]
        for g in graphs:
            salt = rng.random()

            def cut(cls, r):
                return random.Random(f"{salt}/{cls}/{r}").random() < 0.2

            for size in range(5):
                want = [(f, cls) for f, cls in forest_sets(g, size)
                        if not any(cut(tuple(_class_map(g, f[:j])), size - j) for j in range(1, size + 1))]
                assert list(forest_sets(g, size, cut)) == want, (g, size)

    def test_enumerate_matches_the_reference(self):
        rng = random.Random(7006)
        graphs = []
        for _ in range(70):
            n = rng.randint(4, 11)
            graphs.append(random_graph(rng, n, rng.choice([0.25, 0.35, 0.5])))
            graphs.append(random_bipartite_graph(rng, n, n))
        graphs = [g for g in graphs if g.m <= 14] + [grid_graph(3, 3), grid_graph(3, 4), grid_graph(4, 4)]
        graphs += [_relabelled_cycle(rng, n) for n in range(9, 15)]
        found = tried = 0
        for g in graphs:
            for d in range(1, 4):
                low_bc_witness = bc_decide(g, d - 1)
                if low_bc_witness is None:
                    continue
                # The reference tries sets by size, so its first set at
                # k = 2d - 1 is its answer at every k it fits, and none below.
                first = _reference_enumerate(g, 2 * d - 1, d, low_bc_witness)
                for k in range(d, 2 * d):
                    want = first if first is not None and len(first) <= k else None
                    assert _enumerate(g, k, d, low_bc_witness) == want, (g, k, d)
                    tried += 1
                    found += want is not None
        assert tried >= 500 and found >= 150, (tried, found)


@st.composite
def _small_graphs(draw):
    """Graphs on 2..8 vertices with at most 10 edges; half of them hold the
    triangle 0-1-2, so odd graphs are always among the draws."""
    n = draw(st.integers(min_value=3, max_value=8))
    slots = list(combinations(range(n), 2))
    edges = set(draw(st.lists(st.sampled_from(slots), unique=True, max_size=10)))
    if draw(st.booleans()):
        edges |= {(0, 1), (1, 2), (0, 2)}
    return Graph.from_edges(n, sorted(edges))


class TestClassDecision:
    @given(_small_graphs(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_quotient_decision(self, g, d):
        """For every set the enumeration walks at k = 2d - 1, deciding on g
        through the class map answers as the modulator decision on the
        contracted quotient does, at budgets around the target."""
        low_bc_witness = bc_decide(g, d - 1)
        assume(low_bc_witness is not None)
        anchors = sorted({v for e in low_bc_witness for v in e})
        target = vc_with_modulator(g, anchors).size - d
        budgets = range(target - 2, target + 3)
        setup = _modulator_setup(g, [[v] for v in anchors])
        decisions = [_class_decision(g, anchors, budget, *setup) for budget in budgets]
        for size in range(2 * d):
            for f, cls in forest_sets(g, size):
                modulator = {cls[v] for v in anchors} | {cls[u] for u, _ in f}
                opt = vc_with_modulator(contract_keeping_ids(g, cls), modulator).size
                for budget, fits in zip(budgets, decisions):
                    assert fits(f, cls) == (opt <= budget), (g, f, budget)


@st.composite
def _forest_prefixes(draw):
    """A small graph and an acyclic edge set of it, kept from a random
    order of the graph's edges as each joins two classes."""
    g = draw(_small_graphs())
    prefix = []
    for u, v in draw(st.permutations(g.sorted_edges()))[:draw(st.integers(min_value=0, max_value=4))]:
        cls = _class_map(g, prefix)
        if cls[u] != cls[v]:
            prefix.append((u, v))
    return g, sorted(prefix)


def _lp_optimum_doubled(g, cls) -> int:
    """Twice the vertex-cover LP optimum of the quotient by ``cls``, by
    trying every half-integral cover of its vertices with an edge: the LP
    has a half-integral optimum (Nemhauser and Trotter)."""
    qedges = {(min(cls[u], cls[v]), max(cls[u], cls[v])) for u, v in g.edges if cls[u] != cls[v]}
    verts = sorted({v for e in qedges for v in e})
    pos = {v: i for i, v in enumerate(verts)}
    best = 2 * len(verts)
    for y in product((0, 1, 2), repeat=len(verts)):
        if sum(y) < best and all(y[pos[a]] + y[pos[b]] >= 2 for a, b in qedges):
            best = sum(y)
    return best


class TestLpBound:
    @given(_forest_prefixes())
    @settings(max_examples=150, deadline=None)
    def test_refuses_exactly_above_the_lp_optimum(self, case):
        """The bound refuses a class map at budget b exactly when the
        quotient's LP optimum exceeds b, and then the quotient has no cover
        within b."""
        g, prefix = case
        cls = _class_map(g, prefix)
        lp2 = _lp_optimum_doubled(g, cls)
        for b in range(g.n + 1):
            refused = _lp_exceeds(g.sorted_edges(), cls, b)
            assert refused == (lp2 > 2 * b), (g, prefix, b)
            if refused:
                assert vc_branching(contract_keeping_ids(g, cls), b) is None, (g, prefix, b)

    @given(_forest_prefixes(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_a_refused_prefix_has_no_extension_within_budget(self, case, r):
        """When the bound refuses a prefix at b + r, contracting any r more
        edges of g leaves a quotient whose cover exceeds b: one contraction
        lowers the LP optimum by at most one."""
        g, prefix = case
        cls = _class_map(g, prefix)
        for b in range(g.n + 1):
            if _lp_exceeds(g.sorted_edges(), cls, b + r):
                for more in combinations(g.sorted_edges(), r):
                    quotient = contract_keeping_ids(g, _class_map(g, prefix + list(more)))
                    assert vc_branching(quotient, b) is None, (g, prefix, more, b)


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestWarmStart:
    def test_restricted_matching_augments_to_a_maximum_one(self):
        """A maximum matching restricted to the vertices that survive random
        deletions, then augmented, is as large as a matching of the
        survivors from nothing; with a limit, it stops at limit + 1 pairs."""
        rng = random.Random(7007)
        graphs = [_relabelled(rng, random_bipartite_graph(rng, 2, 16)) for _ in range(300)]
        graphs += [_relabelled(rng, grid_graph(rng.randint(2, 6), rng.randint(2, 6))) for _ in range(100)]
        grown = 0
        for g in graphs:
            left = bipartition(g)[0]
            full = maximum_matching(g, left)
            alive = {v for v in range(g.n) if rng.random() < 0.8}
            survivors = [v for v in left if v in alive]
            want = len(maximum_matching(g, survivors, alive)) // 2
            start = {u: w for u, w in full.items() if u in alive and w in alive}
            got = vertex_cover._augment(g.adj, survivors, alive, dict(start), g.n)
            assert len(got) // 2 == want, (g, alive)
            assert vertex_cover._augment(g.adj, left, alive, dict(start), g.n) == got, (g, alive)
            assert all(got[w] == u and w in g.adj[u] and u in alive for u, w in got.items()), (g, alive)
            grown += want > len(start) // 2
            for limit in range(len(start) // 2, want + 1):
                got = vertex_cover._augment(g.adj, survivors, alive, dict(start), limit)
                assert len(got) // 2 == min(want, limit + 1), (g, alive, limit)
        assert grown >= 100, grown


def _counted_calls(monkeypatch) -> dict[str, int]:
    """Counters of the enumeration's steps, filled while the test runs: the
    sets ``forest_sets`` yields, the LP bound's calls and refusals, the
    decisions and the solver calls beneath them.  Each counter wraps the
    module attribute its caller resolves, so ``augment`` counts the split
    loop's calls and ``lp_augment`` the LP bound's."""
    calls = {"full": 0, "bipartite": 0, "setup": 0, "splits": 0, "fits": 0, "sets": 0,
             "bounds": 0, "cut": 0, "contract_set": 0, "contract_keeping_ids": 0, "bipartition": 0,
             "maximum_matching": 0, "augment": 0, "lp_augment": 0}
    decision = contraction_vc._class_decision
    sets, exceeds = contraction_vc.forest_sets, contraction_vc._lp_exceeds

    def counted_sets(*args):
        for item in sets(*args):
            calls["sets"] += 1
            yield item

    def counted_exceeds(*args):
        cut = exceeds(*args)
        calls["bounds"] += 1
        calls["cut"] += cut
        return cut

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(contraction_vc, "_class_decision", lambda *args: counted("fits", decision(*args)))
    monkeypatch.setattr(contraction_vc, "forest_sets", counted_sets)
    monkeypatch.setattr(contraction_vc, "_lp_exceeds", counted_exceeds)
    for module, name, key in [
        (vertex_cover, "vc_with_modulator", "full"), (vertex_cover, "vc_bipartite", "bipartite"),
        (contraction_vc, "_modulator_setup", "setup"), (contraction_vc, "_modulator_splits", "splits"),
        (contraction_vc, "contract_set", "contract_set"),
        (contraction_vc, "contract_keeping_ids", "contract_keeping_ids"),
        (vertex_cover, "bipartition", "bipartition"),
        (vertex_cover, "maximum_matching", "maximum_matching"), (vertex_cover, "_augment", "augment"),
        (contraction_vc, "_augment", "lp_augment"),
    ]:
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    return calls


class TestEnumerationCalls:
    def test_grid_enumeration_decides_each_quotient(self, monkeypatch):
        """On grid 4x4 at k = 5, d = 3 the enumeration solves no full
        modulator cover and extracts no König cover: its target is the
        smallest split of the anchors.  The LP bound cuts the walk down to
        one set, the witness, decided on g through the class map
        ``forest_sets`` holds: no quotient is built.  One set-up colours and matches g - anchors
        from nothing, and every split matching, the target's among them, is
        warm-started from it."""
        calls = _counted_calls(monkeypatch)
        dec = algorithm1(grid_graph(4, 4), 5, 3)
        assert dec.answer and dec.trace == "enumeration-yes"
        assert dec.witness == ((1, 2), (1, 5), (4, 5), (4, 8))
        assert calls["full"] == 0 and calls["bipartite"] == 0, calls
        assert calls["sets"] == 1 and calls["fits"] == 1, calls
        assert calls["bounds"] == 583 and calls["cut"] == 532 and calls["lp_augment"] == 480, calls
        assert calls["setup"] == 1 and calls["splits"] == 1 + calls["fits"], calls
        assert calls["contract_set"] == 0 and calls["contract_keeping_ids"] == 0, calls
        assert calls["bipartition"] == 1 and calls["maximum_matching"] == 1, calls
        assert calls["augment"] - calls["maximum_matching"] == 2, calls

    def test_cycle_enumeration_runs_the_split_loop_once(self, monkeypatch):
        """C10 has cover number 5, so at k = 3, d = 2 the target is 3.  A
        quotient of C10 by j <= 3 edges is C(10 - j), whose LP optimum
        (10 - j) / 2 exceeds 3, so the LP bound cuts every set the walk
        reaches, at a leaf or at a prefix, and the split loop runs once, for
        the target.  The cycle is relabelled so that its sorted edges are
        not its walk order."""
        calls = _counted_calls(monkeypatch)
        dec = algorithm1(_relabelled_cycle(random.Random(7008), 10), 3, 2)
        assert (dec.answer, dec.trace) == (False, "enumeration-no")
        assert calls["sets"] == 0 and calls["fits"] == 0, calls
        assert calls["bounds"] == 173 and calls["cut"] == 129, calls
        assert calls["splits"] == 1, calls


class TestLargeWitnesses:
    @pytest.mark.parametrize("g, want", [
        (grid_graph(5, 5), ((1, 6), (5, 6), (6, 7), (6, 11))),
        (grid_graph(4, 6), ((1, 2), (1, 7), (6, 7), (6, 12))),
        (cycle_graph(20), None),
    ], ids=["grid5x5", "grid4x6", "C20"])
    def test_witness_at_k5_d3(self, g, want):
        """At sizes the reference enumeration does not reach, where the LP
        bound cuts most of the walk, the first set in the witness order is
        still the one found.  C20 answers NO: its target is 10 - 3 = 7, and
        five contractions leave at least C15, whose cover number is 8."""
        dec = algorithm1(g, 5, 3)
        assert dec.witness == want
        assert dec.trace == ("enumeration-no" if want is None else "enumeration-yes")
