import random
from itertools import combinations

import pytest

from contrablock import bipartite_contraction
from contrablock.bipartite_contraction import (
    bc_decide,
    coloring_cost,
    coloring_to_contraction,
    contraction_to_coloring,
    monochromatic_components,
)
from contrablock.graphs import (
    bipartition,
    complete_graph,
    contract_set,
    contracted_coloring,
    cycle_graph,
    path_graph,
    shortest_odd_cycle,
)

from .conftest import disjoint_union, min_coloring_cost, random_graph


def _reference_bc(g, k):
    """Subset enumeration: the first edge set of size <= k, by size and then
    lexicographically, whose contraction leaves a bipartite quotient."""
    for size in range(k + 1):
        for f in combinations(g.sorted_edges(), size):
            if bipartition(contract_set(g, f).quotient) is not None:
                return list(f)
    return None


def _reference_contraction_to_coloring(g, contracted):
    """``contraction_to_coloring`` as it was before it read the colouring
    off g itself: the quotient's bipartition pulled back, verbatim."""
    res = contract_set(g, contracted)
    sides = bipartition(res.quotient)
    if sides is None:
        raise ValueError("quotient is not bipartite")
    left = set(sides[0])
    return tuple(1 if res.vmap[v] in left else 2 for v in range(g.n))


def _outcome(fn, g, f):
    try:
        return fn(g, f)
    except ValueError as err:
        return str(err)


class TestColoringCost:
    def test_examples(self):
        assert coloring_cost(complete_graph(3), (1, 1, 1)) == 2
        assert coloring_cost(cycle_graph(4), (1, 2, 1, 2)) == 0
        assert coloring_cost(path_graph(4), (1, 1, 2, 2)) == 2

    def test_components_partition(self):
        rng = random.Random(4)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            phi = tuple(rng.choice((1, 2)) for _ in range(g.n))
            comps = monochromatic_components(g, phi)
            flat = sorted(v for c in comps for v in c)
            assert flat == list(range(g.n))
            for comp in comps:
                colors = {phi[v] for v in comp}
                assert len(colors) == 1

    def test_rejects_bad_coloring(self):
        with pytest.raises(ValueError):
            coloring_cost(path_graph(3), (1, 2))
        with pytest.raises(ValueError):
            coloring_cost(path_graph(3), (1, 2, 3))


class TestColoringContractionBridge:
    def test_monochromatic_triangle(self):
        f = coloring_to_contraction(complete_graph(3), (1, 1, 1))
        assert len(f) == 2
        assert contract_set(complete_graph(3), f).quotient.n == 1

    def test_proper_coloring_gives_empty_set(self):
        assert coloring_to_contraction(cycle_graph(4), (1, 2, 1, 2)) == []

    def test_p4_two_blocks(self):
        f = coloring_to_contraction(path_graph(4), (1, 1, 2, 2))
        assert f == [(0, 1), (2, 3)]
        q = contract_set(path_graph(4), f).quotient
        assert q.n == 2 and q.m == 1

    def test_quotient_always_bipartite_with_matching_cost(self):
        rng = random.Random(8)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            phi = tuple(rng.choice((1, 2)) for _ in range(g.n))
            f = coloring_to_contraction(g, phi)
            assert len(f) == coloring_cost(g, phi)
            assert bipartition(contract_set(g, f).quotient) is not None

    def test_pullback_examples(self):
        phi = contraction_to_coloring(complete_graph(3), [(0, 1)])
        assert coloring_cost(complete_graph(3), phi) <= 1
        phi = contraction_to_coloring(cycle_graph(4), [])
        assert coloring_cost(cycle_graph(4), phi) == 0
        phi = contraction_to_coloring(cycle_graph(5), [(0, 1)])
        assert coloring_cost(cycle_graph(5), phi) <= 1

    def test_pullback_rejects_odd_quotient(self):
        with pytest.raises(ValueError):
            contraction_to_coloring(cycle_graph(5), [])

    def test_pullback_never_costs_more_than_the_set(self):
        rng = random.Random(15)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            edges = g.sorted_edges()
            if not edges:
                continue
            f = rng.sample(edges, rng.randint(1, min(3, len(edges))))
            if bipartition(contract_set(g, f).quotient) is None:
                continue
            phi = contraction_to_coloring(g, f)
            assert coloring_cost(g, phi) <= len(f)
            # and converting back never grows the witness
            assert len(coloring_to_contraction(g, phi)) <= len(f)

    def test_pullback_matches_reference(self):
        # colourings, the odd-quotient refusal and the non-edge refusal all
        # stay as they were, on sets with and without cycles
        rng = random.Random(26)
        kinds = {"coloring": 0, "quotient is not bipartite": 0, "non-edge": 0}
        for _ in range(2000):
            g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
            f = rng.sample(g.sorted_edges(), rng.randint(0, min(4, g.m)))
            if rng.random() < 0.1:
                f.append(rng.choice([(u, v) for u in range(g.n) for v in range(g.n + 1) if not g.has_edge(u, v)]))
            want = _outcome(_reference_contraction_to_coloring, g, f)
            assert _outcome(contraction_to_coloring, g, f) == want, (g.sorted_edges(), f)
            kinds["coloring" if isinstance(want, tuple) else "non-edge" if want.endswith("not in graph") else want] += 1
        assert min(kinds.values()) >= 100, kinds


class TestBcDecide:
    def test_examples(self):
        assert bc_decide(cycle_graph(4), 0) == []
        assert len(bc_decide(complete_graph(3), 1)) == 1
        assert bc_decide(complete_graph(4), 1) is None
        assert len(bc_decide(complete_graph(4), 2)) == 2

    def test_bc_zero_iff_bipartite(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            assert (bc_decide(g, 0) is not None) == (bipartition(g) is not None)

    def test_witness_contract_is_bipartite(self):
        rng = random.Random(22)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8), 0.6)
            for k in range(4):
                f = bc_decide(g, k)
                if f is not None:
                    assert len(f) <= k
                    assert bipartition(contract_set(g, f).quotient) is not None

    def test_matches_enumeration_oracle(self):
        rng = random.Random(23)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 7), 0.6)
            for k in range(4):
                fast = bc_decide(g, k)
                slow = _reference_bc(g, k)
                assert (fast is None) == (slow is None), (g.edges, k)
                if fast is not None:
                    assert len(fast) == len(slow), (g.edges, k)  # both are minimum

    @pytest.mark.parametrize("g,k,witness,expanded,tested,colored", [
        (disjoint_union(complete_graph(4), cycle_graph(5)), 3, [(0, 1), (0, 2), (4, 5)], 8, 23, 20),
        (complete_graph(5), 2, None, 10, 55, 23),
    ], ids=["K4+C5", "K5"])
    def test_quotients_only_for_expanded_states(self, g, k, witness, expanded, tested, colored, monkeypatch):
        # one quotient per state the search expands, one goal test per
        # state it tests (the root and each new child), and one colouring per
        # tested state that may be bipartite; the pinned counts let a later
        # change show fewer nodes, not only fewer seconds
        calls = {"quotient": 0, "coloring": 0, "expand": 0, "goal": 0}

        def counted(key, fn):
            return lambda *args: calls.update({key: calls[key] + 1}) or fn(*args)

        real = bipartite_contraction.shallowest
        monkeypatch.setattr(bipartite_contraction, "contract_keeping_ids",
                            counted("quotient", bipartite_contraction.contract_keeping_ids))
        monkeypatch.setattr(bipartite_contraction, "contracted_coloring",
                            counted("coloring", bipartite_contraction.contracted_coloring))
        monkeypatch.setattr(bipartite_contraction, "shallowest", lambda root, goal, children, hi: real(
            root, counted("goal", goal), counted("expand", children), hi))
        assert bc_decide(g, k) == witness
        assert calls == {"quotient": expanded, "coloring": colored, "expand": expanded, "goal": tested}

    def test_children_off_the_cycle_stay_odd(self):
        # the goal skips a child whose edge's quotient ends are not
        # consecutive on the parent's shortest odd cycle: that cycle stays an
        # odd closed walk once the edge is contracted
        rng = random.Random(27)
        skipped = 0
        for _ in range(600):
            g = random_graph(rng, rng.randint(3, 10), rng.choice([0.3, 0.5, 0.7]))
            cls = list(range(g.n))
            forest = []
            for u, v in rng.sample(g.sorted_edges(), min(g.m, rng.randint(0, 4))):
                if cls[u] != cls[v]:
                    old = cls[v]
                    cls = [cls[u] if c == old else c for c in cls]
                    forest.append((u, v))
            res = contract_set(g, forest)
            cycle = shortest_odd_cycle(res.quotient)
            if cycle is None:
                continue
            steps = set(zip(cycle, cycle[1:] + cycle[:1]))
            for e in g.sorted_edges():
                a, b = res.vmap[e[0]], res.vmap[e[1]]
                if (a, b) not in steps and (b, a) not in steps:
                    assert contracted_coloring(g, forest + [e]) is None, (g.sorted_edges(), forest, e)
                    skipped += 1
        assert skipped >= 2000, skipped

    def test_matches_coloring_oracle(self):
        # decision success must coincide with the existence of a cheap coloring
        rng = random.Random(24)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 7), 0.5)
            best = min_coloring_cost(g)
            for k in range(4):
                assert (bc_decide(g, k) is not None) == (best <= k), (g.edges, k)
