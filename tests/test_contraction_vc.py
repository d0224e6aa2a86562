import math
import random
from itertools import combinations

import pytest

from contrablock import contraction_vc
from contrablock.contraction_vc import (
    Decision,
    algorithm1,
    brute_min_contract,
    component_opt,
    contraction_vc_1,
    dp_min_contract,
    min_contract_2approx,
    min_contract_vc,
    two_approx_drop,
)
from contrablock.graphs import (
    Graph,
    complete_graph,
    connected_components,
    contract_set,
    cycle_graph,
    path_graph,
)
from contrablock.vertex_cover import vc_branching

from .conftest import disjoint_union, random_connected_graph, random_graph, star_graph


def min_drop_edges(g, d, cap):
    """Independent oracle: smallest |F| <= cap whose contraction drops vc by d."""
    base = vc_branching(g).size
    for size in range(1, cap + 1):
        for f in combinations(g.sorted_edges(), size):
            if vc_branching(contract_set(g, f).quotient).size <= base - d:
                return size
    return None


class TestSingleDrop:
    def test_c5_yes(self):
        dec = contraction_vc_1(cycle_graph(5))
        assert dec.answer and dec.trace == "bc-large"

    def test_c4_no(self):
        dec = contraction_vc_1(cycle_graph(4))
        assert not dec.answer and dec.witness is None

    def test_p4_yes_with_witness(self):
        dec = contraction_vc_1(path_graph(4))
        assert dec.answer
        q = contract_set(path_graph(4), dec.witness).quotient
        assert vc_branching(q).size == 1

    def test_matches_algorithm1(self, small_graph_corpus):
        for g in small_graph_corpus:
            if g.m == 0:
                assert not contraction_vc_1(g).answer
                continue
            assert contraction_vc_1(g).answer == algorithm1(g, 1, 1).answer, g.edges


class TestTwoApproxDrop:
    def test_k4_drop_two(self):
        g = complete_graph(4)
        f = two_approx_drop(g, [0, 1, 2, 3], 2)
        assert len(f) <= 4
        assert vc_branching(contract_set(g, f).quotient).size <= 1

    def test_k3_single_drop(self):
        f = two_approx_drop(complete_graph(3), [0, 1, 2], 1)
        assert len(f) <= 2
        assert vc_branching(contract_set(complete_graph(3), f).quotient).size == 1

    def test_c7_single_drop(self):
        g = cycle_graph(7)
        f = two_approx_drop(g, list(range(7)), 1)
        assert len(f) <= 2
        assert vc_branching(contract_set(g, f).quotient).size <= 3

    def test_rejects_small_cover(self):
        with pytest.raises(ValueError):
            two_approx_drop(star_graph(3), [0, 1, 2, 3], 1)  # vc = 1 <= d

    def test_rejects_non_component(self):
        with pytest.raises(ValueError):
            two_approx_drop(cycle_graph(5), [0, 1, 2], 1)

    def test_bound_and_drop_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(60):
            g = random_connected_graph(rng, 3, 8)
            base = vc_branching(g).size
            comp = connected_components(g)[0]
            for d in range(1, min(3, base - 1) + 1):
                f = two_approx_drop(g, comp, d)
                assert len(f) <= 2 * d
                after = vc_branching(contract_set(g, f).quotient).size
                assert after <= base - d, (g.edges, d, f)


class TestComponentOpt:
    def test_triangle(self):
        assert component_opt(complete_graph(3), 1) == 1
        assert component_opt(complete_graph(3), 2) == 2
        assert component_opt(complete_graph(3), 0) == 0

    def test_paper_convention_boundary(self):
        assert math.isinf(component_opt(complete_graph(3), 2, paper_convention=True))
        assert component_opt(complete_graph(3), 1, paper_convention=True) == 1

    def test_unattainable_returns_infinity(self):
        assert math.isinf(component_opt(complete_graph(3), 3))
        assert math.isinf(component_opt(path_graph(2), 2))

    def test_star_full_collapse(self):
        assert component_opt(star_graph(3), 1) == 3

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            component_opt(disjoint_union(path_graph(2), path_graph(2)), 1)

    def test_rejects_negative_drop(self):
        with pytest.raises(ValueError, match="^drop must be non-negative$"):
            component_opt(complete_graph(3), -1)

    def test_matches_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            g = random_connected_graph(rng, 2, 6, max_edges=10)
            base = vc_branching(g).size
            for d in range(1, base + 2):
                got = component_opt(g, d)
                want = min_drop_edges(g, d, g.m)
                if want is None:
                    assert math.isinf(got), (g.edges, d)
                else:
                    assert got == want, (g.edges, d)


class TestDpMinContract:
    def test_two_triangles(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert dp_min_contract(g, 2) == 2

    def test_star_boundary_semantics(self):
        assert dp_min_contract(star_graph(3), 1) == 3
        assert math.isinf(dp_min_contract(star_graph(3), 1, paper_convention=True))

    def test_zero_drop(self):
        assert dp_min_contract(disjoint_union(path_graph(3), path_graph(3)), 0) == 0

    def test_rejects_large_component(self):
        with pytest.raises(ValueError):
            dp_min_contract(complete_graph(4), 1)  # vc = 3 > d

    def test_rejects_negative_drop(self):
        with pytest.raises(ValueError, match="^drop must be non-negative$"):
            dp_min_contract(path_graph(3), -1)

    def test_full_collapse_across_components(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert dp_min_contract(g, 4) == 4
        assert math.isinf(dp_min_contract(g, 4, paper_convention=True))


class TestAlgorithm1:
    def test_trace_examples(self):
        assert algorithm1(cycle_graph(5), 1, 1).trace == "bc-large"
        dec = algorithm1(cycle_graph(4), 1, 1)
        assert not dec.answer and dec.trace == "enumeration-no"
        assert algorithm1(path_graph(4), 1, 2).trace == "trivial-no"

    def test_small_component_trace(self):
        # bc = 2 < d = 3, both components have cover number 2 <= 3
        g = disjoint_union(complete_graph(3), complete_graph(3))
        dec = algorithm1(g, 3, 3)
        assert dec.answer and dec.trace == "small-components"
        assert len(dec.witness) == 3
        assert not algorithm1(g, 2, 3).answer

    def test_budget_trace(self):
        # bc = 0 < d = 2 and the single component has cover number 3 > d
        dec = algorithm1(cycle_graph(6), 4, 2)
        assert dec.answer and dec.trace == "lemma3-budget"
        assert len(dec.witness) <= 4

    def test_enumeration_trace(self):
        # contracting up to three cycle edges keeps a cycle, so no drop of 2
        dec = algorithm1(cycle_graph(6), 3, 2)
        assert not dec.answer and dec.trace == "enumeration-no"

    def test_enumeration_on_large_bipartite_grid(self):
        """The bounded enumeration on grid 10x10 at k = d = 1 answers through
        the modulator solver in about 0.4 s; budgeted branching on the same
        loop takes about a minute (54 s on a two-core machine, Python 3.11),
        which is why the modulator stays on this path."""
        g = Graph.from_edges(100, [(10 * r + c, 10 * r + c + 1) for r in range(10) for c in range(9)]
                             + [(10 * r + c, 10 * r + c + 10) for r in range(9) for c in range(10)])
        dec = algorithm1(g, 1, 1)
        assert not dec.answer and dec.trace == "enumeration-no"
        assert contraction_vc_1(g) == dec

    def test_bc_large_witness_is_built_on_first_read(self, monkeypatch):
        """The bc-large witness equals the eager one and is only built when
        read; equal decisions hash equal whether or not it was built."""
        rng = random.Random(61)
        odd = [cycle_graph(5), complete_graph(4), disjoint_union(cycle_graph(7), path_graph(3))]
        odd += [random_graph(rng, 12, 0.3) for _ in range(4)]
        for g in odd:
            eager = Decision(True, contraction_vc._spanning_forest_witness(g, 1), "bc-large")
            assert algorithm1(g, 1, 1) == eager == contraction_vc_1(g), g.edges
            assert hash(algorithm1(g, 1, 1)) == hash(eager) == hash(contraction_vc_1(g))
            assert len({algorithm1(g, 1, 1), eager}) == 1

        def refuse(g, d):
            raise AssertionError("witness built before it was read")

        monkeypatch.setattr(contraction_vc, "_spanning_forest_witness", refuse)
        two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
        for dec in (algorithm1(two_k3, 2, 2), contraction_vc_1(cycle_graph(5))):
            assert dec.answer and dec.trace == "bc-large"
            with pytest.raises(AssertionError):
                dec.witness

    def test_decision_is_immutable(self):
        dec = algorithm1(cycle_graph(5), 1, 1)
        with pytest.raises(AttributeError):
            dec.answer = False

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            algorithm1(path_graph(3), 0, 1)
        with pytest.raises(ValueError):
            Decision(True, None, "nonsense")

    def test_compares_only_with_decisions(self):
        dec = Decision(False, None, "trivial-no")
        assert dec != "x" and not dec == "x"
        assert dec.__eq__("x") is NotImplemented

    def test_repr_shows_the_witness(self):
        dec = Decision(True, lambda: ((0, 1),), "enumeration-yes")
        assert repr(dec) == "Decision(answer=True, witness=((0, 1),), trace='enumeration-yes')"


def test_yes_witnesses_are_sound():
    rng = random.Random(44)
    for _ in range(60):
        g = random_connected_graph(rng, 3, 8)
        base = vc_branching(g).size
        for d in (1, 2):
            for k in (1, 2, 4):
                dec = algorithm1(g, k, d)
                if not dec.answer:
                    continue
                assert dec.witness is not None and len(dec.witness) <= k
                q = contract_set(g, dec.witness).quotient
                assert vc_branching(q).size <= base - d, (g.edges, k, d, dec)


class TestBruteMinContract:
    def test_examples(self):
        assert brute_min_contract(path_graph(4), 1, 2) == 1
        assert brute_min_contract(cycle_graph(4), 1, 1) is None
        g = cycle_graph(5)
        assert brute_min_contract(g, 1, g.m) is not None

    @pytest.mark.parametrize("d,cap,message", [(0, 2, "drop must be positive"), (1, -1, "cap must be non-negative")])
    def test_refusals(self, d, cap, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            brute_min_contract(path_graph(4), d, cap)

    def test_non_bipartite_always_finite_for_single_drop(self):
        rng = random.Random(43)
        from contrablock.graphs import bipartition

        for _ in range(40):
            g = random_connected_graph(rng, 3, 7)
            if bipartition(g) is None:
                assert brute_min_contract(g, 1, g.m) == 1


class TestTwoApproxMin:
    def test_examples(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert min_contract_2approx(g, 2) == 2
        assert min_contract_2approx(cycle_graph(5), 1) == 1

    def test_k33(self):
        k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
        k_hat = min_contract_2approx(k33, 2)
        k0 = min_drop_edges(k33, 2, k33.m)
        assert k_hat <= 4 and k0 <= k_hat <= 2 * k0

    def test_infeasible(self):
        assert min_contract_2approx(star_graph(3), 2) is None
        assert min_contract_2approx(Graph.from_edges(3, []), 1) is None


class TestMinContractVc:
    def test_examples(self):
        assert min_contract_vc(cycle_graph(5), 1) == 1
        assert min_contract_vc(star_graph(3), 2) is None
        assert min_contract_vc(star_graph(3), 1) == 3
        assert min_contract_vc(star_graph(3), 1, paper_convention=True) is None

    def test_matches_brute_oracle(self):
        rng = random.Random(988)
        found = 0
        for _ in range(260):
            g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.45, 0.6]))
            if g.m > 10:
                continue
            for d in (1, 2):
                for pc in (False, True):
                    want = brute_min_contract(g, d, g.m, pc)
                    assert min_contract_vc(g, d, pc) == want, (g.edges, d, pc)
                    found += want is not None
        assert found >= 400
