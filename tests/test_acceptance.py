"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Expected values come from subset-enumeration oracles, exhaustive
assignment checks, or hand-checked instances; tolerances are exact
throughout.
"""

import math
import random
from itertools import combinations

from contrablock.bipartite_contraction import (
    bc_decide,
    coloring_cost,
    coloring_to_contraction,
    contraction_to_coloring,
)
from contrablock.contraction_vc import (
    algorithm1,
    brute_min_contract,
    contraction_vc_1,
    dp_min_contract,
    min_contract_2approx,
    two_approx_drop,
)
from contrablock.graphs import (
    Graph,
    bipartition,
    complete_graph,
    connected_components,
    contract_edge,
    contract_set,
    cycle_graph,
    induced_subgraph,
    path_graph,
    serialize_graph,
    subdivide_edges,
)
from contrablock.reductions import (
    brute_force_sat,
    build_double_copy_instance,
    build_path_instance,
    build_subdivided_clique_instance,
    clean_formula,
    enumerate_clean_formulas,
    verify_claims,
)
from contrablock.transversal import (
    HitFamily,
    feedback_vertex_set,
    find_dropping_edge,
    min_transversal,
    odd_cycle_transversal,
)
from contrablock.vertex_cover import vc_bipartite, vc_branching

from .conftest import (
    all_graphs,
    brute_fvs,
    brute_oct,
    brute_vc,
    disjoint_union,
    min_coloring_cost,
    random_bipartite_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)

PHI0 = clean_formula(2, [(1, 2), (1, -2), (-1, 2)])


def _named_connected_specials():
    yield from (path_graph(4), path_graph(5), star_graph(3), star_graph(5))
    yield from (cycle_graph(n) for n in range(3, 9))
    yield from (complete_graph(n) for n in range(3, 7))
    yield Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])  # K33


def _criterion_corpus(seed):
    """Every connected graph on up to 5 vertices, structured specials, and
    at least 500 random connected graphs on 6..8 vertices."""
    from itertools import combinations

    corpus = []
    for n in range(1, 6):
        slots = list(combinations(range(n), 2))
        for mask in range(1 << len(slots)):
            g = Graph.from_edges(n, [e for i, e in enumerate(slots) if mask >> i & 1])
            if n <= 1 or len(connected_components(g)) == 1:
                corpus.append(g)
    corpus.extend(_named_connected_specials())
    rng = random.Random(seed)
    for _ in range(500):
        corpus.append(random_connected_graph(rng, 6, 8, max_edges=15))
    return corpus


def test_c01_algorithm1_matches_brute_oracle():
    corpus = _criterion_corpus(1001)
    checked = 0
    for g in corpus:
        best = {d: brute_min_contract(g, d, 4) for d in (1, 2)}
        for d in (1, 2):
            for k in range(1, 5):
                expected = best[d] is not None and best[d] <= k
                decision = algorithm1(g, k, d)
                assert decision.answer == expected, (g.edges, k, d)
                checked += 1
    assert checked == len(corpus) * 8 and len(corpus) >= 500
    print(f"CRITERION 1: PASS - algorithm1 == brute oracle on {checked} cases over {len(corpus)} graphs")


def test_c02_single_drop_polynomial_algorithm():
    corpus = _criterion_corpus(1002)
    for g in corpus:
        expected = brute_min_contract(g, 1, 1) == 1
        assert contraction_vc_1(g).answer == expected, g.edges
    assert contraction_vc_1(path_graph(4)).answer is True
    assert contraction_vc_1(cycle_graph(4)).answer is False
    assert contraction_vc_1(cycle_graph(5)).answer is True
    print(f"CRITERION 2: PASS - one-contraction decision matches oracle on {len(corpus)} graphs; P4=YES C4=NO C5=YES")


def test_c03_koenig_equality():
    rng = random.Random(1003)
    for i in range(200):
        g = random_bipartite_graph(rng, 1, 14)
        res = vc_bipartite(g)
        assert res.size == vc_branching(g).size, g.edges
        assert all(u in res.cover or v in res.cover for u, v in g.edges)
    print("CRITERION 3: PASS - matching-based cover == branching cover on 200 random bipartite graphs")


def test_c04_two_coloring_round_trip():
    rng = random.Random(1004)
    corpus = []
    for n in range(1, 6):
        corpus.extend(all_graphs(n))
    for _ in range(200):
        corpus.append(random_graph(rng, rng.randint(6, 8), rng.choice([0.3, 0.5, 0.7])))
    for g in corpus:
        cheapest = min_coloring_cost(g)
        for k in range(4):
            witness = bc_decide(g, k)
            assert (witness is not None) == (cheapest <= k), (g.edges, k)
            if witness is not None:
                assert len(witness) <= k
                quotient = contract_set(g, witness).quotient
                assert bipartition(quotient) is not None
                phi = contraction_to_coloring(g, witness)
                assert coloring_cost(g, phi) <= len(witness)
                assert len(coloring_to_contraction(g, phi)) <= len(witness)
    print(f"CRITERION 4: PASS - coloring existence <=> contraction witness on {len(corpus)} graphs, k <= 3")


def test_c05_bounded_witness_drop():
    rng = random.Random(1005)
    checked = 0
    while checked < 200:
        g = random_connected_graph(rng, 4, 9, max_edges=16)
        base = vc_branching(g).size
        comp = connected_components(g)[0]
        for d in range(1, 4):
            if base < d + 1:
                continue
            f = two_approx_drop(g, comp, d)
            assert len(f) <= 2 * d
            assert vc_branching(contract_set(g, f).quotient).size <= base - d
            checked += 1
    print(f"CRITERION 5: PASS - bounded witness (|F| <= 2d, drop >= d) on {checked} graph/d pairs")


def _random_union(rng):
    def component():
        kind = rng.choice(["path", "cycle", "star", "k3", "rand"])
        if kind == "path":
            return path_graph(rng.randint(2, 5))
        if kind == "cycle":
            return cycle_graph(rng.randint(3, 5))
        if kind == "star":
            return star_graph(rng.randint(1, 4))
        if kind == "k3":
            return complete_graph(3)
        return random_connected_graph(rng, 4, 5, max_edges=7)

    g = component()
    for _ in range(rng.randint(0, 2)):
        g = disjoint_union(g, component())
    return g


def test_c06_component_dp_matches_oracle_under_both_conventions():
    rng = random.Random(1006)
    checked = 0
    while checked < 100:
        g = _random_union(rng)
        comp_vc = max(
            vc_branching(induced_subgraph(g, c)[0]).size for c in connected_components(g)
        )
        for d in range(1, 4):
            if comp_vc > d:
                continue
            for paper in (False, True):
                value = dp_min_contract(g, d, paper_convention=paper)
                cap = 5 if math.isinf(value) else min(int(value) + 1, 8)
                got = brute_min_contract(g, d, cap, paper_convention=paper)
                if math.isinf(value):
                    assert got is None, (g.edges, d, paper)
                else:
                    assert got == value, (g.edges, d, paper)
            checked += 1
    print(f"CRITERION 6: PASS - component DP == oracle under both conventions on {checked} union/d pairs")


def test_c07_two_approximation_guarantee():
    rng = random.Random(1007)
    checked = 0
    while checked < 100:
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.35, 0.5]))
        if g.m > 15:
            continue
        for d in (1, 2):
            k_hat = min_contract_2approx(g, d)
            base = vc_branching(g).size
            if base < d:
                assert k_hat is None, (g.edges, d)
                continue
            k0 = None
            for size in range(1, g.m + 1):
                for f in combinations(g.sorted_edges(), size):
                    if vc_branching(contract_set(g, f).quotient).size <= base - d:
                        k0 = size
                        break
                if k0 is not None:
                    break
            assert k0 is not None
            assert k0 <= k_hat <= 2 * k0, (g.edges, d, k0, k_hat)
        checked += 1
    print(f"CRITERION 7: PASS - k0 <= estimate <= 2*k0 on {checked} random graphs, d <= 2")


def test_c08_threshold_equivalence_over_clean_sweep():
    inst0 = build_double_copy_instance(PHI0, cycle_graph(4))
    assert feedback_vertex_set(inst0.graph)[0] == 13 == 8 * PHI0.n - PHI0.m

    sat_seen = unsat_seen = 0
    for n in (2, 3):
        for phi in enumerate_clean_formulas(n):
            inst = build_double_copy_instance(phi, cycle_graph(4))
            tau = feedback_vertex_set(inst.graph)[0]
            satisfiable = brute_force_sat(phi) is not None
            assert tau >= phi.threshold, phi.clauses
            assert (tau == phi.threshold) == satisfiable, phi.clauses
            sat_seen += satisfiable
            unsat_seen += not satisfiable

    # No clean formula with n <= 3 is unsatisfiable, so extend the sweep to
    # n = 4: verify the equivalence on every unsatisfiable formula there plus
    # a deterministic slice of satisfiable ones.
    assert unsat_seen == 0
    quota = 60
    for phi in enumerate_clean_formulas(4):
        satisfiable = brute_force_sat(phi) is not None
        if satisfiable:
            if quota == 0:
                continue
            quota -= 1
        inst = build_double_copy_instance(phi, cycle_graph(4))
        tau = feedback_vertex_set(inst.graph)[0]
        assert tau >= phi.threshold, phi.clauses
        assert (tau == phi.threshold) == satisfiable, phi.clauses
        sat_seen += satisfiable
        unsat_seen += not satisfiable
    assert sat_seen > 0 and unsat_seen > 0
    print(
        "CRITERION 8: PASS - hitting number == 8n-m iff satisfiable "
        f"({sat_seen} satisfiable, {unsat_seen} unsatisfiable instances; n <= 3 exhaustive, n = 4 extension)"
    )


def _first_unsat_clean_formula():
    for phi in enumerate_clean_formulas(4):
        if brute_force_sat(phi) is None:
            return phi
    raise AssertionError("expected an unsatisfiable clean formula at n = 4")


def test_c09_contraction_claims():
    fam = HitFamily.feedback_vertex_set()

    inst0 = build_double_copy_instance(PHI0, cycle_graph(4))
    report = verify_claims(inst0, full_scan=True)
    assert report.tau == report.threshold
    assert report.claim2 == "pass" and report.scanned_edges == inst0.graph.m

    unsat = _first_unsat_clean_formula()
    inst1 = build_double_copy_instance(unsat, cycle_graph(4))
    tau = feedback_vertex_set(inst1.graph)[0]
    assert tau > inst1.threshold
    edge = find_dropping_edge(inst1.graph, fam)
    assert edge is not None
    quotient = contract_set(inst1.graph, [edge]).quotient
    assert feedback_vertex_set(quotient, budget=tau - 1) is not None
    print(
        "CRITERION 9: PASS - no dropping edge among all "
        f"{inst0.graph.m} edges at the threshold; dropping edge {edge} found above it"
    )


def test_c10_subdivided_clique_consistency():
    via_clique = build_subdivided_clique_instance(PHI0, 3)
    direct = build_double_copy_instance(PHI0, subdivide_edges(complete_graph(3)))
    assert serialize_graph(via_clique.graph) == serialize_graph(direct.graph)

    # truncate to pairwise disjoint gadget copies so the subinstance keeps
    # several separate cycles
    keep: set[int] = set()
    for copy in via_clique.meta["copies"]:
        verts = set(copy["vertices"])
        if keep & verts or len(keep | verts) > 20:
            continue
        keep |= verts
    sub, _ = induced_subgraph(via_clique.graph, keep)
    dedicated = feedback_vertex_set(sub)[0]
    generic = min_transversal(sub, HitFamily.explicit([complete_graph(3)], "minor"))[0]
    assert dedicated == generic and dedicated >= 3
    print(
        "CRITERION 10: PASS - clique construction delegates to the subdivided pattern; "
        f"fvs == triangle-minor hitting number ({dedicated}) on a {sub.n}-vertex subinstance"
    )


def test_c11_path_instance_hitting_number():
    inst = build_path_instance(PHI0, 4)
    fam = HitFamily.explicit([path_graph(4)], "subgraph")
    size, picks = min_transversal(inst.graph, fam)
    assert size == 13 == inst.threshold
    assert len(picks) == 13
    print("CRITERION 11: PASS - four-vertex-path hitting number of the path instance is 13")


def test_c12_library_invariants():
    rng = random.Random(1012)

    # contraction order independence
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        edges = g.sorted_edges()
        if not edges:
            continue
        f = rng.sample(edges, rng.randint(1, len(edges)))
        bulk = contract_set(g, f)
        for _ in range(2):
            order = f[:]
            rng.shuffle(order)
            cur, vmap = g, list(range(g.n))
            for u, v in order:
                a, b = vmap[u], vmap[v]
                if a == b:
                    continue
                step = contract_edge(cur, (min(a, b), max(a, b)))
                cur = step.quotient
                vmap = [step.vmap[x] for x in vmap]
            assert vmap == list(bulk.vmap) and cur.edges == bulk.quotient.edges

    # vc moves by at most one and never up, per contraction
    corpus8 = [random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5, 0.7])) for _ in range(120)]
    for g in corpus8:
        base = vc_branching(g).size
        for e in g.sorted_edges():
            after = vc_branching(contract_edge(g, e).quotient).size
            assert base - 1 <= after <= base

    # each transversal number drops by at most one per contraction
    corpus7 = [random_graph(rng, rng.randint(2, 7), rng.choice([0.3, 0.5, 0.7])) for _ in range(80)]
    solvers = {
        "vc": lambda h: vc_branching(h).size,
        "fvs": lambda h: feedback_vertex_set(h)[0],
        "oct": lambda h: odd_cycle_transversal(h)[0],
    }
    oracles = {"vc": brute_vc, "fvs": brute_fvs, "oct": brute_oct}
    for g in corpus7:
        base = {name: fn(g) for name, fn in solvers.items()}
        for name in solvers:
            assert base[name] == oracles[name](g)
        for e in g.sorted_edges():
            q = contract_edge(g, e).quotient
            for name, fn in solvers.items():
                assert fn(q) >= base[name] - 1, (g.edges, e, name)
    print("CRITERION 12: PASS - order independence, cover monotonicity, and per-contraction lower bounds hold")
