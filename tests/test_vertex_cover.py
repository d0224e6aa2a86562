import random

import pytest

from contrablock import graphs, vertex_cover
from contrablock.graphs import (
    Graph,
    bipartition,
    complete_graph,
    connected_components,
    contract_edge,
    cycle_graph,
    path_graph,
)
from contrablock.vertex_cover import (
    vc_after_contraction,
    vc_bipartite,
    vc_branching,
    vc_with_modulator,
)

from .conftest import brute_vc, cover_is_valid, disjoint_union, random_bipartite_graph, random_graph, star_graph


# the cover search as it was before the one-pass branch-and-bound, kept
# verbatim as an oracle: a decision search restarted at each budget
def _reference_delete(adj: dict[int, set[int]], vertices) -> None:
    """Delete ``vertices`` and their edges from ``adj`` in place, dropping
    vertices left without neighbours."""
    for v in vertices:
        for w in adj.pop(v, ()):
            adj[w].discard(v)
            if not adj[w]:
                del adj[w]


def _reference_decide_cover(adj: dict[int, set[int]], k: int) -> set[int] | None:
    """A vertex cover of size <= k of the graph given by ``adj``, or None.

    ``adj`` holds only vertices with neighbours and is consumed.  Degree-1
    vertices are resolved by taking the neighbor; otherwise branch on a
    maximum-degree vertex v: either v joins the cover or all of N(v) does.
    Smallest-index tie-breaking keeps the witness deterministic, and the
    matching bound only cuts subtrees that hold no cover, so it never
    changes which cover is found.
    """
    picks: set[int] = set()
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
        _reference_delete(adj, (w,))
        if len(picks) > k:
            return None

    if not adj:
        return picks
    if len(picks) >= k:
        return None
    budget = k - len(picks)

    # Every edge of a matching needs its own cover vertex, so a greedy
    # maximal matching with more edges than the budget rules out this subtree.
    matched: set[int] = set()
    for u, ns in adj.items():
        if u not in matched:
            for w in ns:
                if w not in matched:
                    matched.update((u, w))
                    break
    if len(matched) > 2 * budget:
        return None

    # The first child gets a copy of ``adj``; the last consumes it.
    v = max(sorted(adj), key=lambda x: len(adj[x]))
    options = ([v], sorted(adj[v]))
    for i, take in enumerate(options):
        if len(take) > budget:
            continue
        sub = adj if i == len(options) - 1 else {x: set(ns) for x, ns in adj.items()}
        _reference_delete(sub, take)  # deleting N(v) leaves v isolated, so v goes too
        res = _reference_decide_cover(sub, budget - len(take))
        if res is not None:
            return picks | set(take) | res
    return None


def _reference_vc_branching(g: Graph, budget: int | None = None, allowed=None):
    """The decision search above, restarted for each budget 0, 1, ..., vc."""
    alive = set(range(g.n) if allowed is None else allowed)
    adj = {v: ns for v in alive if (ns := g.adj[v] & alive)}
    hi = len(alive) if budget is None else min(budget, len(alive))
    for k in range(hi + 1):
        sol = _reference_decide_cover({v: set(ns) for v, ns in adj.items()}, k)
        if sol is not None:
            return vertex_cover.CoverResult(len(sol), frozenset(sol))
    return None


class TestBranching:
    def test_c5(self):
        assert vc_branching(cycle_graph(5)).size == 3

    def test_star(self):
        res = vc_branching(star_graph(4))
        assert res.size == 1 and res.cover == frozenset({0})

    def test_edgeless(self):
        res = vc_branching(Graph.from_edges(3, []))
        assert res.size == 0 and res.cover == frozenset()

    def test_budget(self):
        assert vc_branching(cycle_graph(5), budget=2) is None
        assert vc_branching(cycle_graph(5), budget=3).size == 3

    def test_matches_subset_enumeration(self, small_graph_corpus):
        corpus = list(small_graph_corpus)
        rng = random.Random(17)
        corpus.extend(random_graph(rng, rng.randint(9, 10), rng.choice([0.3, 0.5])) for _ in range(40))
        for g in corpus:
            res = vc_branching(g)
            assert res.size == brute_vc(g), g.edges
            assert cover_is_valid(g, res.cover)

    def test_matches_budget_deepening_on_deep_trees(self):
        """One branch-and-bound pass finds the cover that restarting the
        decision search at each budget finds, on graphs whose search trees
        are far deeper than the 12-vertex corpora reach."""
        rng = random.Random(1600)
        corpus = [random_graph(rng, rng.randint(15, 40), rng.choice([0.05, 0.1, 0.2, 0.3])) for _ in range(200)]
        for k4s in range(2, 7):
            for c5s in (0, 1, 2):
                g = Graph.from_edges(0, [])
                for h in [complete_graph(4)] * k4s + [cycle_graph(5)] * c5s:
                    g = disjoint_union(g, h)
                corpus.append(g)
        nones = 0
        for g in corpus:
            vc = _reference_vc_branching(g).size
            for budget in (None, -1, vc - 1, vc, vc + 2):
                want = _reference_vc_branching(g, budget)
                assert vc_branching(g, budget) == want, (g, budget)
                nones += want is None
        assert nones == 2 * len(corpus)  # budgets -1 and vc - 1

    def test_components_solved_apart_match_the_whole_search(self):
        """Each component searched on its own, within the budget the earlier
        ones left, gives the cover the search over the whole graph gives,
        also on induced vertex subsets."""
        rng = random.Random(1700)
        seen = {"split": 0, "none": 0}
        for _ in range(300):
            g = Graph.from_edges(0, [])
            for _ in range(rng.randint(2, 4)):
                g = disjoint_union(g, random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8])))
            allowed = None if rng.random() < 0.5 else [v for v in range(g.n) if rng.random() < 0.8]
            vc = _reference_vc_branching(g, allowed=allowed).size
            for budget in (None, vc - 1, vc, vc + 1):
                want = _reference_vc_branching(g, budget, allowed)
                assert vc_branching(g, budget, allowed) == want, (g, budget, allowed)
                seen["none"] += want is None
            seen["split"] += len(connected_components(g)) > 1
        assert seen["split"] >= 250 and seen["none"] >= 250, seen

    def test_split_refuses_a_budget_below_one_per_component(self, monkeypatch):
        """Every component left to cover has an edge, so it needs a cover
        vertex; a budget below the component count is refused before any
        component is searched."""
        calls = []
        real = vertex_cover._min_cover
        monkeypatch.setattr(vertex_cover, "_min_cover", lambda adj, cap: calls.append(cap) or real(adj, cap))
        g = Graph.from_edges(0, [])
        for _ in range(40):
            g = disjoint_union(g, complete_graph(4))
        assert vc_branching(g, budget=39) is None
        assert calls == []
        assert vc_branching(g, budget=120).size == 120


class TestBipartite:
    def test_examples(self):
        assert vc_bipartite(path_graph(4)).size == 2
        assert vc_bipartite(cycle_graph(4)).size == 2
        matching3 = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        assert vc_bipartite(matching3).size == 3

    def test_rejects_odd_graph(self):
        with pytest.raises(ValueError):
            vc_bipartite(cycle_graph(5))

    def test_koenig_equality_on_random_bipartite(self):
        rng = random.Random(77)
        for _ in range(120):
            g = random_bipartite_graph(rng, 1, 12)
            res = vc_bipartite(g)
            assert res.size == vc_branching(g).size
            assert cover_is_valid(g, res.cover)

    def test_deterministic(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_bipartite_graph(rng, 2, 10)
            assert vc_bipartite(g) == vc_bipartite(g)

    def test_matching_skips_a_repeated_left_vertex(self):
        g = path_graph(4)
        match = vertex_cover.maximum_matching(g, [0, 0, 2, 2])
        assert match == vertex_cover.maximum_matching(g, [0, 2]) == {0: 1, 1: 0, 2: 3, 3: 2}

    def test_matching_skips_left_vertices_outside_the_graph(self):
        # ``left`` vertices outside ``allowed`` (all of g by default) are
        # skipped; ``allowed`` itself must hold vertices of g
        g = path_graph(3)
        assert vertex_cover.maximum_matching(g, [-1]) == {}
        assert vertex_cover.maximum_matching(g, [5]) == {}
        for allowed in ([7], [0, 3], [-1, 1]):
            with pytest.raises(ValueError, match="vertex out of range"):
                vertex_cover.maximum_matching(g, [7], allowed)
        assert vertex_cover.maximum_matching(g, [1], [0, 1]) == {0: 1, 1: 0}

    def test_koenig_self_check_raises(self, monkeypatch):
        # a matching smaller than the cover must fail loudly, also under python -O
        monkeypatch.setattr(vertex_cover, "maximum_matching", lambda g, left, allowed=None: {})
        with pytest.raises(RuntimeError, match="matching size"):
            vc_bipartite(path_graph(2))


class TestModulator:
    def test_c5_with_one_vertex(self):
        assert vc_with_modulator(cycle_graph(5), {0}).size == 3

    def test_empty_modulator_on_bipartite(self):
        g = path_graph(5)
        assert vc_with_modulator(g, set()).size == vc_bipartite(g).size

    def test_k4_with_two_vertices(self):
        assert vc_with_modulator(complete_graph(4), {0, 1}).size == 3

    def test_rejects_bad_modulator(self):
        with pytest.raises(ValueError):
            vc_with_modulator(complete_graph(4), {0})  # K4 minus one vertex is a triangle

    def test_matches_branching(self, small_graph_corpus):
        from contrablock.graphs import shortest_odd_cycle

        rng = random.Random(9)
        for g in small_graph_corpus[:220]:
            # greedy odd-cycle hitting set is always a valid modulator
            cycle = shortest_odd_cycle(g)
            modulator = set()
            while cycle is not None:
                modulator.add(cycle[0])
                cycle = shortest_odd_cycle(g, set(range(g.n)) - modulator)
            if rng.random() < 0.5 and g.n:
                modulator.add(rng.randrange(g.n))
            res = vc_with_modulator(g, modulator)
            assert res.size == vc_branching(g).size, (g.edges, modulator)
            assert cover_is_valid(g, res.cover)


def _random_groups(rng, g):
    """Disjoint vertex groups of one to three vertices, and a set-up of g
    over singletons inside them, as the enumeration's ``fits`` builds them:
    the set-up's vertices are grown until the rest of g is bipartite, and
    the groups hold them plus a few more vertices."""
    mod = {v for v in range(g.n) if rng.random() < 0.15}
    while bipartition(g, set(range(g.n)) - mod) is None:
        mod.add(rng.choice(sorted(set(range(g.n)) - mod)))
    setup = vertex_cover._modulator_setup(g, [[v] for v in sorted(mod)])
    members = sorted(mod | {v for v in range(g.n) if rng.random() < 0.15})
    rng.shuffle(members)
    groups = []
    while members:
        cut = rng.randint(1, 3)
        groups.append(sorted(members[:cut]))
        members = members[cut:]
    return groups, setup


class TestSplitBudget:
    def test_a_budget_keeps_the_splits_that_fit_it(self):
        """Each budget from -1 to n yields exactly the splits of size at most
        the budget among those of budget n, and budget n yields one split per
        mask whose left-out groups are pairwise non-adjacent: the groups
        inside and their neighbours forced in are taken, and the rest's cover
        is sized by König."""
        rng = random.Random(7101)
        merged = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.35, 0.5]))
            groups, setup = _random_groups(rng, g)
            merged += any(len(grp) > 1 for grp in groups)
            rest = set(range(g.n)).difference(*groups)
            want = []
            for mask in range(1 << len(groups)):
                out = [grp for i, grp in enumerate(groups) if not mask >> i & 1]
                near = [set().union(*(g.adj[v] for v in grp)) for grp in out]
                if any(near[i] & set(out[j]) for i in range(len(out)) for j in range(len(out)) if i != j):
                    continue
                forced = set().union(*near) & rest
                inside = {v for i, grp in enumerate(groups) if mask >> i & 1 for v in grp}
                size = mask.bit_count() + len(forced) + vc_bipartite(g, rest - forced).size
                want.append((size, inside | forced, rest - forced))
            full = list(vertex_cover._modulator_splits(g, groups, g.n, *setup))
            assert full == want, (g, groups)
            for budget in range(-1, g.n + 1):
                got = list(vertex_cover._modulator_splits(g, groups, budget, *setup))
                assert got == [split for split in full if split[0] <= budget], (g, groups, budget)
        assert merged >= 100, merged


class TestAfterContraction:
    def test_examples(self):
        assert vc_after_contraction(path_graph(4), (1, 2)) == 1
        assert vc_after_contraction(cycle_graph(4), (0, 1)) == 2
        assert vc_after_contraction(path_graph(2), (0, 1)) == 0

    def test_rejects_odd_graph(self):
        with pytest.raises(ValueError):
            vc_after_contraction(cycle_graph(5), (0, 1))

    def test_checks_bipartite_before_the_edge(self):
        with pytest.raises(ValueError, match="^graph is not bipartite$"):
            vc_after_contraction(cycle_graph(5), (0, 2))
        for bad in [(0, 2), (2, 0), (1, 1), (0, 9), (-1, 0)]:
            with pytest.raises(ValueError, match=r"^edge \(-?\d+, \d+\) not in graph$"):
                vc_after_contraction(cycle_graph(4), bad)

    def test_builds_no_quotient(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("quotient built")

        for module in (graphs, vertex_cover):
            for name in ("contract_edge", "contract_set", "contract_keeping_ids"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert vc_after_contraction(cycle_graph(6), (2, 3)) == 3
        assert vc_after_contraction(path_graph(4), (1, 2)) == 1

    def test_matches_quotient_cover(self):
        rng = random.Random(13)
        for _ in range(80):
            g = random_bipartite_graph(rng, 2, 10)
            for e in g.sorted_edges():
                got = vc_after_contraction(g, e)
                want = vc_branching(contract_edge(g, e).quotient).size
                assert got == want, (g.edges, e)


def test_single_contraction_monotonicity(small_graph_corpus):
    # vc never increases and drops by at most one per contraction
    for g in small_graph_corpus:
        base = vc_branching(g).size
        for e in g.sorted_edges():
            after = vc_branching(contract_edge(g, e).quotient).size
            assert base - 1 <= after <= base, (g.edges, e)
