import random
import warnings

import pytest

from contrablock import transversal
from contrablock.graphs import (
    Graph,
    complete_graph,
    contract_edge,
    cycle_graph,
    path_graph,
    subdivide_edges,
)
from contrablock.transversal import (
    HitFamily,
    contains,
    drop_given_edge,
    feedback_vertex_set,
    find_dropping_edge,
    first_dropping_edge,
    min_transversal,
    odd_cycle_transversal,
)
from .conftest import brute_fvs, brute_oct, brute_vc, disjoint_union, is_forest, random_graph, star_graph

BOWTIE = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


class TestHitFamily:
    def test_symbolic_constructors(self):
        assert HitFamily.vertex_cover().patterns == "single-edge"
        assert HitFamily.feedback_vertex_set().patterns == "all-cycles"
        assert HitFamily.odd_cycle_transversal().patterns == "odd-cycles"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            HitFamily("subgraph", "no-such-family")
        with pytest.raises(ValueError):
            HitFamily("before", "all-cycles")
        with pytest.raises(ValueError):
            HitFamily.explicit([], "subgraph")
        with pytest.raises(ValueError):
            HitFamily.explicit([disjoint_union(path_graph(2), path_graph(2))], "subgraph")

    def test_antichain_warning(self):
        fam = HitFamily.explicit([path_graph(4), path_graph(3)], "subgraph")
        with pytest.warns(UserWarning, match="antichain"):
            min_transversal(path_graph(5), fam)
        fam_ok = HitFamily.explicit([cycle_graph(3), cycle_graph(4)], "subgraph")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            min_transversal(path_graph(5), fam_ok)


class TestContains:
    def test_triangle_in_c4(self):
        assert contains(cycle_graph(4), complete_graph(3), "subgraph") is None
        occ = contains(cycle_graph(4), complete_graph(3), "minor")
        assert occ is not None and len(occ.mapping) == 3

    def test_c6_not_topological_minor_of_k4(self):
        assert contains(complete_graph(4), cycle_graph(6), "topological-minor") is None

    def test_k4_subdivision_is_topological_minor(self):
        from contrablock.graphs import subdivide_edges

        host = subdivide_edges(complete_graph(4))
        occ = contains(host, complete_graph(4), "topological-minor")
        assert occ is not None
        branches, paths = occ.mapping
        assert sorted(branches) == [0, 1, 2, 3]
        assert len(paths) == 6

    def test_p3_in_any_graph_with_degree_two(self):
        for g in (star_graph(3), path_graph(3), cycle_graph(5)):
            assert contains(g, path_graph(3), "subgraph") is not None
            assert contains(g, path_graph(3), "induced-subgraph") is not None

    def test_induced_versus_plain(self):
        assert contains(complete_graph(3), path_graph(3), "subgraph") is not None
        assert contains(complete_graph(3), path_graph(3), "induced-subgraph") is None

    @pytest.mark.parametrize("relation", ["subgraph", "induced-subgraph", "minor", "topological-minor"])
    def test_cyclic_pattern_in_a_forest(self, relation):
        # a path of 50 holds about 50^4 topological K3 candidates to refute
        assert contains(path_graph(50), complete_graph(3), relation) is None
        assert contains(cycle_graph(50), complete_graph(3), relation, allowed=range(1, 50)) is None
        assert (contains(cycle_graph(50), complete_graph(3), relation) is None) == relation.endswith("subgraph")

    def test_minor_model_is_valid(self):
        from contrablock.graphs import connected_components, induced_subgraph

        rng = random.Random(19)
        pats = [complete_graph(3), cycle_graph(4), complete_graph(4)]
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7), 0.5)
            for h in pats:
                occ = contains(g, h, "minor")
                if occ is None:
                    continue
                sets = occ.mapping
                flat = [v for s in sets for v in s]
                assert len(flat) == len(set(flat))
                for s in sets:
                    sub, _ = induced_subgraph(g, s)
                    assert len(connected_components(sub)) == 1
                for a, b in h.edges:
                    assert any(g.has_edge(x, y) for x in sets[a] for y in sets[b])


class TestSolvers:
    def test_examples(self):
        assert min_transversal(cycle_graph(5), HitFamily.vertex_cover())[0] == 3
        fam_c4 = HitFamily.explicit([cycle_graph(4)], "subgraph")
        assert min_transversal(cycle_graph(4), fam_c4)[0] == 1
        fam_k3_minor = HitFamily.explicit([complete_graph(3)], "minor")
        assert min_transversal(cycle_graph(4), fam_k3_minor)[0] == 1

    def test_fvs_examples(self):
        assert feedback_vertex_set(path_graph(5))[0] == 0
        assert feedback_vertex_set(complete_graph(4))[0] == 2
        assert feedback_vertex_set(disjoint_union(complete_graph(3), complete_graph(3)))[0] == 2

    def test_oct_examples(self):
        assert odd_cycle_transversal(cycle_graph(4))[0] == 0
        assert odd_cycle_transversal(cycle_graph(5))[0] == 1
        assert odd_cycle_transversal(complete_graph(4))[0] == 2

    def test_budgets(self):
        assert feedback_vertex_set(complete_graph(4), budget=1) is None
        assert odd_cycle_transversal(complete_graph(4), budget=1) is None
        assert min_transversal(cycle_graph(5), HitFamily.vertex_cover(), budget=2) is None

    def test_symbolic_families_match_brute_oracles(self, small_graph_corpus):
        for g in small_graph_corpus[:150]:
            assert min_transversal(g, HitFamily.vertex_cover())[0] == brute_vc(g)
            assert min_transversal(g, HitFamily.feedback_vertex_set())[0] == brute_fvs(g)
            assert min_transversal(g, HitFamily.odd_cycle_transversal())[0] == brute_oct(g)

    def test_certificate_failure_raises(self, monkeypatch):
        # the hitting certificate must survive python -O, so it cannot be an assert
        import contrablock.transversal as tr

        monkeypatch.setattr(tr, "_hit_solve", lambda *args: frozenset())
        fam = HitFamily.explicit([complete_graph(3)], "subgraph")
        with pytest.raises(RuntimeError, match="occurrence"):
            min_transversal(complete_graph(3), fam)

    def test_hitting_set_soundness(self):
        rng = random.Random(55)
        fams = [
            HitFamily.explicit([complete_graph(3)], "subgraph"),
            HitFamily.explicit([path_graph(4)], "subgraph"),
            HitFamily.explicit([cycle_graph(4)], "minor"),
            HitFamily.explicit([complete_graph(3)], "topological-minor"),
        ]
        from contrablock.graphs import induced_subgraph

        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 7), 0.5)
            for fam in fams:
                size, picks = min_transversal(g, fam)
                assert len(picks) == size
                rest = [v for v in range(g.n) if v not in picks]
                sub, _ = induced_subgraph(g, rest)
                for h in fam.patterns:
                    assert contains(sub, h, fam.relation) is None


class TestRestrictedFvsSearch:
    # the in/out branching explores subproblems where chosen vertices are
    # excluded from the solution; the reductions must stay exact there
    def test_bypass_needs_a_free_swap_target(self):
        from contrablock.transversal import _fvs_solve, _mg_from_graph

        # triangle with two excluded corners: only the third can hit it
        g = complete_graph(3)
        res = _fvs_solve(_mg_from_graph(g), frozenset({0, 1}), g.n)
        assert res == {2}
        # all three excluded: genuinely infeasible
        assert _fvs_solve(_mg_from_graph(g), frozenset({0, 1, 2}), g.n) is None

    def test_restricted_matches_brute_force(self):
        from itertools import combinations

        from contrablock.graphs import connected_components, induced_subgraph
        from contrablock.transversal import _fvs_solve, _mg_from_graph

        def brute(g, excluded):
            allowed = [v for v in range(g.n) if v not in excluded]
            for k in range(len(allowed) + 1):
                for s in combinations(allowed, k):
                    rest = [v for v in range(g.n) if v not in s]
                    sub, _ = induced_subgraph(g, rest)
                    if sub.m == sub.n - len(connected_components(sub)):
                        return k
            return None

        rng = random.Random(66)
        for _ in range(250):
            g = random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5, 0.7]))
            excluded = frozenset(v for v in range(g.n) if rng.random() < 0.35)
            got = _fvs_solve(_mg_from_graph(g), excluded, g.n)
            want = brute(g, excluded)
            assert (len(got) if got is not None else None) == want, (g.edges, excluded)


def _reference_reduce(adj, forbidden):
    """The sorted full rescan after every reduction, which the worklist in
    ``_mg_reduce`` must reproduce step for step."""
    from contrablock.transversal import _mg_degree, _mg_delete

    forced = set()
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            if adj[v].get(v, 0):
                if v in forbidden:
                    return None
                forced.add(v)
                _mg_delete(adj, v)
                changed = True
                break
            deg = _mg_degree(adj, v)
            if deg <= 1:
                _mg_delete(adj, v)
                changed = True
                break
            if deg == 2:
                ends = []
                for w, c in adj[v].items():
                    ends.extend([w] * c)
                u, w = ends
                if v not in forbidden and u in forbidden and w in forbidden:
                    continue
                _mg_delete(adj, v)
                if u == w:
                    adj[u][u] = 1
                else:
                    mult = min(2, adj[u].get(w, 0) + 1)
                    adj[u][w] = mult
                    adj[w][u] = mult
                changed = True
                break
    return forced


def _random_multigraph(rng):
    n = rng.randint(1, 14)
    p = rng.choice([0.1, 0.2, 0.3, 0.5])
    adj = {v: {} for v in range(n)}
    for u in range(n):
        if rng.random() < 0.1:
            adj[u][u] = 1
        for w in range(u + 1, n):
            if rng.random() < p:
                mult = 2 if rng.random() < 0.25 else 1
                adj[u][w] = mult
                adj[w][u] = mult
    return adj


class TestWorklistReduction:
    def test_matches_sorted_rescan(self):
        from contrablock.transversal import _mg_copy, _mg_degree, _mg_reduce

        rng = random.Random(4091)
        infeasible = skipped = 0
        for _ in range(3000):
            adj = _random_multigraph(rng)
            frac = rng.choice([0.0, 0.3, 0.7])
            forbidden = frozenset(v for v in adj if rng.random() < frac)
            want_adj = _mg_copy(adj)
            want = _reference_reduce(want_adj, forbidden)
            got = _mg_reduce(adj, forbidden)
            assert got == want, (want_adj, forbidden)
            assert adj == want_adj, forbidden
            infeasible += got is None
            skipped += got is not None and any(
                v not in forbidden and _mg_degree(adj, v) == 2 and set(ns) <= forbidden
                for v, ns in adj.items()
            )
        # both the infeasible exit and the both-endpoints-forbidden skip ran
        assert infeasible >= 20 and skipped >= 20

    def test_gadget_multigraphs_match_sorted_rescan(self):
        # the theorem-1 (C4) and theorem-2 (clique 3) gadgets of the first
        # ten clean formulas, and single-edge quotients of them as
        # first_dropping_edge builds, carry long chains of degree-2 vertices
        # that the random multigraphs above are too small to reach
        from itertools import islice

        from contrablock.graphs import contract_set
        from contrablock.reductions import (
            build_double_copy_instance,
            build_subdivided_clique_instance,
            enumerate_clean_formulas,
        )
        from contrablock.transversal import _mg_copy, _mg_from_graph, _mg_reduce

        rng = random.Random(4092)
        formulas = list(islice((phi for n in range(1, 6) for phi in enumerate_clean_formulas(n)), 10))
        hosts = removed = forced = 0
        for phi in formulas:
            for inst in (build_double_copy_instance(phi, cycle_graph(4)), build_subdivided_clique_instance(phi, 3)):
                g = inst.graph
                edges = rng.sample(g.sorted_edges(), 6)
                for host in [g] + [contract_set(g, [e]).quotient for e in edges]:
                    adj = _mg_from_graph(host)
                    frac = rng.choice([0.0, 0.0, 0.1, 0.3])
                    forbidden = frozenset(v for v in adj if rng.random() < frac)
                    want_adj = _mg_copy(adj)
                    want = _reference_reduce(want_adj, forbidden)
                    assert _mg_reduce(adj, forbidden) == want, (phi.clauses, host.n, forbidden)
                    assert adj == want_adj, (phi.clauses, host.n, forbidden)
                    hosts += 1
                    removed += host.n - len(adj)
                    forced += len(want or ())
        # chains bypassed into loops, which force their vertex
        assert hosts == 140 and removed >= 100 * hosts and forced >= 500, (removed, forced)

    def test_large_subdivided_tree(self):
        # complete binary tree on 1023 hubs, every tree edge subdivided by three
        # fresh vertices, and a triangle on a pendant edge at hub 0: thousands
        # of degree-2 reductions before the one cycle is left
        hubs = 1023
        edges = []
        nxt = hubs
        for child in range(1, hubs):
            path = [(child - 1) // 2, nxt, nxt + 1, nxt + 2, child]
            edges.extend(zip(path, path[1:]))
            nxt += 3
        a, b, c = nxt, nxt + 1, nxt + 2
        edges += [(0, a), (a, b), (b, c), (a, c)]
        g = Graph.from_edges(c + 1, edges)
        assert g.n == 4092

        res = feedback_vertex_set(g)
        assert res == (1, frozenset({4091}))
        from contrablock.graphs import induced_subgraph

        rest, _ = induced_subgraph(g, [v for v in range(g.n) if v not in res[1]])
        assert is_forest(rest)


class TestSeededReduction:
    def test_matches_full_worklist(self, monkeypatch):
        # _fvs_solve re-examines only the vertices a branch changed; seeding
        # every vertex at every node must find the same sets
        rng = random.Random(4093)
        cases = []
        for _ in range(800):
            g = random_graph(rng, rng.randint(3, 12), rng.choice([0.2, 0.3, 0.45]))
            if rng.random() < 0.3:
                g = subdivide_edges(g)
            cases.append((g, rng.choice([None, None, rng.randint(0, 4)])))
        seeded = [feedback_vertex_set(g, budget) for g, budget in cases]
        real = transversal._mg_reduce
        monkeypatch.setattr(transversal, "_mg_reduce", lambda adj, forbidden, todo=None: real(adj, forbidden))
        assert [feedback_vertex_set(g, budget) for g, budget in cases] == seeded
        # budgets that refuse, and optima deep enough to branch several times
        assert sum(res is None for res in seeded) >= 50
        assert sum(res is not None and res[0] >= 3 for res in seeded) >= 100

    def test_branch_seeds_reach_every_reducible_vertex(self):
        # in a reduced multigraph, deleting v can make only its old
        # neighbours reducible, and forbidding v only v itself (a degree-2
        # vertex between two forbidden ones may now be bypassed): reducing
        # from those seeds ends where the sorted full rescan ends
        from contrablock.transversal import _mg_copy, _mg_delete, _mg_reduce

        rng = random.Random(4094)
        bypassed = {"delete": 0, "forbid": 0}
        for _ in range(3000):
            adj = _random_multigraph(rng)
            forbidden = frozenset(v for v in adj if rng.random() < rng.choice([0.0, 0.3, 0.7]))
            free = [v for v in adj if v not in forbidden]
            if _mg_reduce(adj, forbidden) is None or not set(free) & set(adj):
                continue
            v = rng.choice(sorted(set(free) & set(adj)))
            child = _mg_copy(adj)
            if rng.random() < 0.5:
                kind, seeds, rule = "delete", list(child[v]), forbidden
                _mg_delete(child, v)
            else:
                kind, seeds, rule = "forbid", (v,), forbidden | {v}
            want_adj = _mg_copy(child)
            want = _reference_reduce(want_adj, rule)
            assert _mg_reduce(child, rule, seeds) == want, (adj, forbidden, kind, v)
            assert child == want_adj, (adj, forbidden, kind, v)
            bypassed[kind] += len(child) < len(adj) - (kind == "delete")
        assert min(bypassed.values()) >= 20, bypassed


class TestBlockerQueries:
    def test_drop_given_edge_examples(self):
        fam = HitFamily.vertex_cover()
        assert drop_given_edge(path_graph(4), (1, 2), fam)
        assert not drop_given_edge(cycle_graph(4), (0, 1), fam)
        assert drop_given_edge(path_graph(2), (0, 1), fam)

    @pytest.mark.parametrize("pair,message", [
        ((3, 0), "edge (0, 3) not in graph"),
        ((-1, 0), "edge (-1, 0) not in graph"),
        ((0, 9), "edge (0, 9) not in graph"),
    ])
    def test_every_pair_checked_before_solving(self, monkeypatch, pair, message):
        def solve(*args, **kwargs):
            raise AssertionError("solved before every pair was checked")

        monkeypatch.setattr(transversal, "min_transversal", solve)
        with pytest.raises(ValueError) as exc:
            first_dropping_edge(path_graph(4), HitFamily.vertex_cover(), [(0, 1), (1, 2), pair], 2)
        assert str(exc.value) == message

    def test_find_dropping_edge_examples(self):
        fvs = HitFamily.feedback_vertex_set()
        assert find_dropping_edge(BOWTIE, fvs) is None
        assert find_dropping_edge(path_graph(4), HitFamily.vertex_cover()) == (0, 1)
        assert find_dropping_edge(cycle_graph(4), fvs) is None

    def test_lower_bound_per_contraction(self, small_graph_corpus):
        # a contraction lowers any of the three numbers by at most one
        fams = {
            "vc": brute_vc,
            "fvs": brute_fvs,
            "oct": brute_oct,
        }
        for g in small_graph_corpus[:120]:
            if g.n > 7:
                continue
            base = {name: fn(g) for name, fn in fams.items()}
            for e in g.sorted_edges():
                q = contract_edge(g, e).quotient
                for name, fn in fams.items():
                    assert fn(q) >= base[name] - 1, (g.edges, e, name)

    def test_contraction_never_increases_fvs_and_can_increase_oct(self, small_graph_corpus):
        # oct grows under contraction (an even cycle may become odd); fvs
        # cannot, since any cycle of the quotient lifts to one in the source
        assert brute_oct(contract_edge(cycle_graph(4), (0, 1)).quotient) == 1 > brute_oct(cycle_graph(4))
        increase = None
        for g in small_graph_corpus[:120]:
            if g.n > 6:
                continue
            base = brute_fvs(g)
            for e in g.sorted_edges():
                after = brute_fvs(contract_edge(g, e).quotient)
                assert after <= base, (g.edges, e)
                if after > base:
                    increase = (g, e)
        assert increase is None
