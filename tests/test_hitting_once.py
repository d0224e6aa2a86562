"""The transversal solvers ask each hitting question once: one component
split, one blocker-edge loop, FVS branch children copied once, no
occurrence search repeated within a ``min_transversal`` call, and no
single-edge scan re-solving what one contraction leaves unchanged.

The ``_reference_*`` functions are the earlier code, kept verbatim as
oracles: every answer, witness, exception and claim report must match them.
They reach ``_family_occurrence`` and ``_mg_copy`` through the module, so
one patch counts the calls of both versions.
"""

import random
from itertools import combinations

import pytest

from contrablock import transversal as tr
from contrablock.graphs import Graph, checked_edges, complete_graph, contract_set, cycle_graph, path_graph
from contrablock.reductions import (
    ClaimReport,
    GadgetInstance,
    brute_force_sat,
    build_double_copy_instance,
    build_path_instance,
    build_subdivided_clique_instance,
    clean_formula,
    default_family,
    enumerate_clean_formulas,
    verify_claims,
)
from contrablock.transversal import (
    HitFamily,
    drop_given_edge,
    feedback_vertex_set,
    find_dropping_edge,
    min_transversal,
)
from contrablock.vertex_cover import vc_branching

from .conftest import disjoint_union, random_graph, star_graph

PHI0 = clean_formula(2, [(1, 2), (1, -2), (-1, 2)])
# _mg_copy calls of the earlier feedback_vertex_set on the PHI0 theorem-1 gadget
REFERENCE_MG_COPIES_PHI0 = 7


# -- the earlier generic hitting solver ---------------------------------------


def _reference_packing_lb(g, fam, alive, stop_at):
    count = 0
    current = set(alive)
    while count < stop_at:
        occ = tr._family_occurrence(g, fam, frozenset(current))
        if occ is None:
            break
        current.difference_update(occ.vertices)
        count += 1
    return count


def _reference_hit_component(g, fam, comp, cap, memo):
    entry = memo.get(comp)
    if entry is not None and entry[0] == "exact":
        return (entry[1], entry[2]) if entry[1] <= cap else None
    if cap < 0:
        return None
    occ = tr._family_occurrence(g, fam, comp)
    if occ is None:
        memo[comp] = ("exact", 0, frozenset())
        return 0, frozenset()
    lb = entry[1] if entry is not None else None
    if lb is None:
        lb = _reference_packing_lb(g, fam, comp, cap + 1)
        memo[comp] = ("lb", lb)
    if lb > cap:
        return None
    best = None
    for v in occ.vertices:
        allowance = (best[0] - 2) if best is not None else (cap - 1)
        sub = _reference_hit_solve(g, fam, comp - {v}, allowance, memo)
        if sub is not None:
            candidate = (sub[0] + 1, sub[1] | {v})
            if best is None or candidate[0] < best[0]:
                best = candidate
    if best is None:
        stored = memo.get(comp)
        known = stored[1] if stored is not None and stored[0] == "lb" else 0
        memo[comp] = ("lb", max(known, cap + 1))
        return None
    memo[comp] = ("exact", best[0], best[1])
    return best


def _reference_hit_solve(g, fam, alive, cap, memo):
    if cap < 0:
        return None
    comps = tr._alive_components(g, alive)
    if not comps:
        return 0, frozenset()
    if len(comps) == 1:
        return _reference_hit_component(g, fam, comps[0], cap, memo)
    lbs = []
    for comp in comps:
        entry = memo.get(comp)
        if entry is not None:
            lbs.append(entry[1])
        else:
            lbs.append(1 if tr._family_occurrence(g, fam, comp) is not None else 0)
    if sum(lbs) > cap:
        return None
    total = 0
    picks = set()
    for i, comp in enumerate(comps):
        rest = sum(lbs[i + 1 :])
        res = _reference_hit_component(g, fam, comp, cap - total - rest, memo)
        if res is None:
            return None
        total += res[0]
        picks |= res[1]
    if total > cap:
        return None
    return total, frozenset(picks)


def _reference_min_transversal(g, fam, budget=None):
    if fam.symbolic:
        if fam.patterns == "single-edge":
            r = vc_branching(g, budget)
            return (r.size, r.cover) if r is not None else None
        if fam.patterns == "all-cycles":
            return _reference_feedback_vertex_set(g, budget)
        return tr.odd_cycle_transversal(g, budget)
    tr._warn_if_not_antichain(fam)
    cap = g.n if budget is None else min(budget, g.n)
    memo = {}
    res = _reference_hit_solve(g, fam, frozenset(range(g.n)), cap, memo)
    if res is None:
        return None
    size, picks = res
    if tr._family_occurrence(g, fam, frozenset(range(g.n)) - picks) is not None:
        raise RuntimeError("transversal leaves a pattern occurrence")
    return size, frozenset(picks)


# -- the earlier feedback vertex set solver -----------------------------------


def _reference_mg_find_cycle(adj):
    for v in sorted(adj):
        if adj[v].get(v, 0):
            return [v]
    for v in sorted(adj):
        for w, c in sorted(adj[v].items()):
            if w > v and c >= 2:
                return [v, w]
    seen = set()
    for s in sorted(adj):
        if s in seen:
            continue
        parent = {s: -1}
        stack = [(s, -1)]
        while stack:
            v, par = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            parent[v] = par
            for w in sorted(adj[v]):
                if w == par:
                    continue
                if w in parent and w in seen:
                    cycle = [v]
                    x = v
                    while x != w and parent[x] != -1:
                        x = parent[x]
                        cycle.append(x)
                    if cycle[-1] == w:
                        return cycle
                    continue
                if w not in seen:
                    stack.append((w, v))
    return None


def _reference_mg_packing_lb(adj):
    work = tr._mg_copy(adj)
    count = 0
    while True:
        cycle = _reference_mg_find_cycle(work)
        if cycle is None:
            return count
        for v in cycle:
            tr._mg_delete(work, v)
        count += 1


def _reference_fvs_solve(adj, forbidden, cap):
    if cap < 0:
        return None
    adj = tr._mg_copy(adj)
    forced = tr._mg_reduce(adj, forbidden)
    if forced is None or len(forced) > cap:
        return None
    total = len(forced)
    picks = set(forced)
    if not adj:
        return total, picks

    comps = tr._mg_components(adj)
    if len(comps) > 1:
        lbs = [_reference_mg_packing_lb(c) for c in comps]
        if total + sum(lbs) > cap:
            return None
        for i, comp in enumerate(comps):
            res = _reference_fvs_solve(comp, forbidden, cap - total - sum(lbs[i + 1 :]))
            if res is None:
                return None
            total += res[0]
            picks |= res[1]
        return (total, picks) if total <= cap else None

    rem = cap - total
    if _reference_mg_packing_lb(adj) > rem:
        return None

    pair = None
    for v in sorted(adj):
        for w, c in sorted(adj[v].items()):
            if w > v and c >= 2:
                pair = (v, w)
                break
        if pair:
            break

    best = None

    def consider(res, extra_vertex=None):
        nonlocal best
        if res is None:
            return
        size, chosen = res
        if extra_vertex is not None:
            size += 1
            chosen = chosen | {extra_vertex}
        if best is None or size < best[0]:
            best = (size, chosen)

    def allowance():
        return rem if best is None else best[0] - 1

    if pair is not None:
        for x in pair:
            if x in forbidden:
                continue
            child = tr._mg_copy(adj)
            tr._mg_delete(child, x)
            consider(_reference_fvs_solve(child, forbidden, allowance() - 1), x)
    else:
        candidates = [v for v in adj if v not in forbidden]
        if not candidates:
            return None
        v = max(sorted(candidates), key=lambda x: tr._mg_degree(adj, x))
        child = tr._mg_copy(adj)
        tr._mg_delete(child, v)
        consider(_reference_fvs_solve(child, forbidden, allowance() - 1), v)
        consider(_reference_fvs_solve(adj, forbidden | {v}, allowance()))

    if best is None:
        return None
    return total + best[0], picks | best[1]


def _reference_feedback_vertex_set(g, budget=None):
    cap = g.n if budget is None else min(budget, g.n)
    res = _reference_fvs_solve(tr._mg_from_graph(g), frozenset(), cap)
    if res is None:
        return None
    return res[0], frozenset(res[1])


# -- the earlier blocker-edge queries and claim verifier ----------------------


def _reference_drop_given_edge(g, e, fam):
    base = _reference_min_transversal(g, fam)
    if base is None:
        raise RuntimeError("unbudgeted min_transversal found no transversal")
    size = base[0]
    if size == 0:
        return False
    quotient = contract_set(g, [tuple(e)]).quotient
    return _reference_min_transversal(quotient, fam, budget=size - 1) is not None


def _reference_find_dropping_edge(g, fam):
    base = _reference_min_transversal(g, fam)
    if base is None:
        raise RuntimeError("unbudgeted min_transversal found no transversal")
    size = base[0]
    if size == 0:
        return None
    for e in g.sorted_edges():
        quotient = contract_set(g, [e]).quotient
        if _reference_min_transversal(quotient, fam, budget=size - 1) is not None:
            return e
    return None


def _reference_first_dropping_edge(g, fam, edges, tau):
    # one quotient per edge, renumbered by contract_set, and one
    # min_transversal call (so one occurrence cache) per quotient
    for e in checked_edges(g, edges):
        quotient = contract_set(g, [e]).quotient
        if tr.min_transversal(quotient, fam, budget=tau - 1) is not None:
            return e
    return None


def _reference_verify_claims(inst, fam=None, sample_edges=None, full_scan=False):
    phi = inst.meta["formula"]
    if fam is None:
        fam = default_family(inst)
    assignment = brute_force_sat(phi)
    sat = assignment is not None

    result = _reference_min_transversal(inst.graph, fam)
    if result is None:
        raise RuntimeError("unbudgeted min_transversal found no transversal")
    tau = result[0]
    threshold = inst.threshold
    lower_bound_ok = tau >= threshold
    claim1 = "pass" if (tau == threshold) == sat else "fail"

    claim2 = "not-applicable"
    claim3 = "not-applicable"
    scanned = 0
    scan_mode = "none"
    dropping = None
    failing = None
    if tau == threshold:
        edges = inst.graph.sorted_edges()
        if full_scan or sample_edges is None and phi.n <= 2:
            scan = edges
            scan_mode = "full"
        elif sample_edges is not None:
            count = max(1, min(sample_edges, len(edges)))
            step = len(edges) / count
            picked = {min(len(edges) - 1, int(k * step)) for k in range(count)}
            scan = [edges[idx] for idx in sorted(picked)]
            scan_mode = f"sample:{len(scan)}"
        else:
            scan = None
            scan_mode = "skipped:pass sample_edges or full_scan for n > 2"
        if scan is None:
            claim2 = "skipped"
        else:
            claim2 = "pass"
            for e in scan:
                scanned += 1
                quotient = contract_set(inst.graph, [e]).quotient
                if _reference_min_transversal(quotient, fam, budget=tau - 1) is not None:
                    claim2 = "fail"
                    failing = e
                    break
    else:
        dropping = _reference_find_dropping_edge(inst.graph, fam)
        claim3 = "pass" if dropping is not None else "fail"

    return ClaimReport(sat, assignment, tau, threshold, lower_bound_ok, claim1, claim2, claim3,
                       scanned, scan_mode, dropping, failing)


# -- helpers -------------------------------------------------------------------


def _outcome(fn, *args):
    """A call's result, or the type and message of the exception it raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _first_unsat_clean_formula():
    return next(phi for phi in enumerate_clean_formulas(4) if brute_force_sat(phi) is None)


@pytest.fixture
def shared_occurrences(monkeypatch):
    """Memoize occurrence search across both versions.  The search itself is
    unchanged and deterministic, so the solvers still see the same answers;
    the gadget comparisons only avoid paying for each search twice.  Call
    the fixture's value between instances to drop the memo."""
    memo = {}
    original = tr._family_occurrence

    def lookup(g, fam, allowed):
        key = (g.n, g.edges, fam, allowed)
        if key not in memo:
            memo[key] = original(g, fam, allowed)
        return memo[key]

    monkeypatch.setattr(tr, "_family_occurrence", lookup)
    return memo.clear


GADGETS = {
    1: lambda phi: build_double_copy_instance(phi, cycle_graph(4)),
    2: lambda phi: build_subdivided_clique_instance(phi, 3),
    3: lambda phi: build_path_instance(phi, 4),
}


# -- tests ---------------------------------------------------------------------


class TestFeedbackVertexSetMatchesReference:
    def test_seeded_graphs_with_budgets(self):
        # every other graph is a disjoint union, so the component split and
        # its shares run under tight budgets
        rng = random.Random(8001)
        sizes = set()
        for i in range(1200):
            if i % 2:
                a = rng.randint(3, 5)
                g = disjoint_union(random_graph(rng, a, rng.choice([0.5, 0.7, 0.9])),
                                   random_graph(rng, rng.randint(3, 9 - a), rng.choice([0.5, 0.7, 0.9])))
            else:
                g = random_graph(rng, rng.randint(0, 9), rng.choice([0.2, 0.35, 0.5, 0.7]))
            want = _reference_feedback_vertex_set(g)
            assert feedback_vertex_set(g) == want, g.edges
            opt = want[0]
            sizes.add(opt)
            for budget in (opt - 1, opt, opt + 1):
                assert feedback_vertex_set(g, budget) == _reference_feedback_vertex_set(g, budget)
        assert sizes >= set(range(6))

    def test_forbidden_vertices(self):
        # forbidden sets reach the pair branch with one or both ends excluded
        rng = random.Random(8002)
        infeasible = 0
        for _ in range(600):
            g = random_graph(rng, rng.randint(3, 9), rng.choice([0.3, 0.5, 0.7]))
            forbidden = frozenset(v for v in range(g.n) if rng.random() < 0.35)
            for cap in (g.n, 2):
                got = tr._fvs_solve(tr._mg_from_graph(g), forbidden, cap)
                want = _reference_fvs_solve(tr._mg_from_graph(g), forbidden, cap)
                assert ((len(got), got) if got is not None else None) == want, (g.edges, forbidden, cap)
                infeasible += got is None
        assert infeasible >= 50

    def test_fewer_multigraph_copies(self, monkeypatch):
        inst = GADGETS[1](PHI0)
        copies = []
        original = tr._mg_copy
        monkeypatch.setattr(tr, "_mg_copy", lambda adj: copies.append(1) or original(adj))
        want = _reference_feedback_vertex_set(inst.graph)
        assert len(copies) == REFERENCE_MG_COPIES_PHI0
        copies.clear()
        assert feedback_vertex_set(inst.graph) == want
        assert len(copies) == 3 < REFERENCE_MG_COPIES_PHI0


EXPLICIT = {"C4": cycle_graph(4), "K3": complete_graph(3), "P4": path_graph(4)}


def _explicit_corpus(seed: int, count: int, n_hi: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, rng.randint(0, n_hi), rng.choice([0.35, 0.5, 0.65]))


class TestGenericSolverMatchesReference:
    @pytest.mark.parametrize("relation", tr.RELATIONS)
    @pytest.mark.parametrize("name", sorted(EXPLICIT))
    def test_explicit_families(self, name, relation):
        fam = HitFamily.explicit([EXPLICIT[name]], relation)
        positive = 0
        for g in _explicit_corpus(8100 + tr.RELATIONS.index(relation), 60, 8):
            want = _reference_min_transversal(g, fam)
            assert min_transversal(g, fam) == want, g.edges
            opt = want[0]
            positive += opt > 0
            for budget in (opt - 1, opt, opt + 1):
                assert min_transversal(g, fam, budget) == _reference_min_transversal(g, fam, budget)
        assert positive >= 10

    def test_mixed_family(self):
        fam = HitFamily.explicit([cycle_graph(4), complete_graph(3)], "subgraph")
        for g in _explicit_corpus(8200, 80, 8):
            assert min_transversal(g, fam) == _reference_min_transversal(g, fam)


class TestBlockerQueriesMatchReference:
    FAMILIES = [
        HitFamily.vertex_cover(),
        HitFamily.feedback_vertex_set(),
        HitFamily.odd_cycle_transversal(),
        HitFamily.explicit([cycle_graph(4)], "minor"),
        HitFamily.explicit([complete_graph(3)], "topological-minor"),
        HitFamily.explicit([path_graph(4)], "induced-subgraph"),
    ]

    def test_every_edge_and_non_edge(self):
        zero_tau_non_edges = 0
        for g in _explicit_corpus(8300, 40, 6):
            for fam in self.FAMILIES:
                assert _outcome(find_dropping_edge, g, fam) == _outcome(
                    _reference_find_dropping_edge, g, fam)
                tau = _reference_min_transversal(g, fam)[0]
                for e in combinations(range(g.n), 2):
                    got = _outcome(drop_given_edge, g, e, fam)
                    want = _outcome(_reference_drop_given_edge, g, e, fam)
                    if tau == 0 and not g.has_edge(*e):
                        # the earlier code answered False without checking the edge
                        assert want == ("ok", False)
                        assert got == ("ValueError", f"edge {e} not in graph")
                        zero_tau_non_edges += 1
                    else:
                        assert got == want, (g.edges, e, fam)
        assert zero_tau_non_edges >= 20

    def test_out_of_range_edge(self):
        g = cycle_graph(4)
        for fam in self.FAMILIES:
            want = _outcome(_reference_drop_given_edge, g, (0, 9), fam)
            if _reference_min_transversal(g, fam)[0] == 0:
                assert want == ("ok", False)
            else:
                assert want == ("ValueError", "edge (0, 9) not in graph")
            assert _outcome(drop_given_edge, g, (0, 9), fam) == ("ValueError", "edge (0, 9) not in graph")


class TestVerifyClaimsMatchesReference:
    @pytest.mark.parametrize("theorem", sorted(GADGETS))
    def test_every_clean_formula_up_to_three_variables(self, theorem, shared_occurrences):
        modes = set()
        for n in (2, 3):
            for phi in enumerate_clean_formulas(n):
                shared_occurrences()
                inst = GADGETS[theorem](phi)
                got = verify_claims(inst)
                assert got == _reference_verify_claims(inst), (theorem, phi.clauses)
                modes.add(got.scan_mode)
        assert modes == {"full", "skipped:pass sample_edges or full_scan for n > 2"}

    @pytest.mark.parametrize("sample_edges", [1, 7, 10_000])
    def test_sampled_scans(self, sample_edges):
        for theorem in sorted(GADGETS):
            inst = GADGETS[theorem](PHI0)
            got = verify_claims(inst, sample_edges=sample_edges)
            assert got == _reference_verify_claims(inst, sample_edges=sample_edges)
            assert got.claim2 == "pass"

    @pytest.mark.parametrize("theorem", sorted(GADGETS))
    def test_first_unsatisfiable_formula(self, theorem, shared_occurrences):
        inst = GADGETS[theorem](_first_unsat_clean_formula())
        got = verify_claims(inst)
        assert got == _reference_verify_claims(inst)
        assert got.claim3 == "pass" and got.dropping_edge is not None

    def test_small_instances_on_both_claim_paths(self):
        # a threshold equal to the hitting number takes the claim-2 scan,
        # which can fail part-way; any other threshold takes claim 3
        rng = random.Random(8400)
        families = TestBlockerQueriesMatchReference.FAMILIES
        seen = set()
        for g in _explicit_corpus(8401, 40, 7):
            if g.m == 0:
                continue  # an edgeless graph has nothing to sample
            for fam in families:
                tau = _reference_min_transversal(g, fam)[0]
                for threshold in (tau, tau - 1, tau + 1):
                    inst = GadgetInstance(g, {}, threshold, {"formula": PHI0})
                    for sample in (None, 1, rng.randint(2, 6)):
                        got = verify_claims(inst, fam, sample, sample is None)
                        assert got == _reference_verify_claims(inst, fam, sample, sample is None)
                        seen.add((got.claim2, got.claim3))
        assert seen == {("pass", "not-applicable"), ("fail", "not-applicable"),
                        ("not-applicable", "pass"), ("not-applicable", "fail")}


class TestOccurrenceSearchedOnce:
    @pytest.mark.parametrize("relation", ["minor", "topological-minor"])
    def test_no_vertex_set_searched_twice(self, monkeypatch, relation):
        g = random_graph(random.Random(9), 9, 0.4)
        fam = HitFamily.explicit([cycle_graph(4)], relation)
        searched = []
        original = tr._family_occurrence

        def record(host, family, allowed):
            searched.append(frozenset(allowed))
            return original(host, family, allowed)

        monkeypatch.setattr(tr, "_family_occurrence", record)
        want = _reference_min_transversal(g, fam)
        reference_calls = len(searched)
        assert reference_calls > len(set(searched))
        searched.clear()
        assert min_transversal(g, fam) == want and want[0] >= 2
        assert len(searched) == len(set(searched))
        assert len(searched) < reference_calls


# -- the single-edge scan ------------------------------------------------------


def _sparse_corpus(seed: int, count: int):
    """Seeded graphs with some edges subdivided and some leaves hung on, so
    that many edges have an end of degree 1 or 2."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randint(3, 6), rng.choice([0.4, 0.55, 0.7]))
        n, edges = g.n, []
        for u, v in g.sorted_edges():
            if rng.random() < 0.3:
                edges += [(u, n), (n, v)]
                n += 1
            else:
                edges.append((u, v))
        for _ in range(rng.randint(0, 2)):
            edges.append((rng.randrange(n), n))
            n += 1
        yield Graph.from_edges(n, edges)


def _keeps_fvs(g, e):
    # an end of degree at most 2 and no common neighbour: contracting e
    # deletes a leaf or undoes a subdivision, and loses no other edge
    a, b = e
    return min(g.degree(a), g.degree(b)) <= 2 and g.adj[a].isdisjoint(g.adj[b])


SCAN_PATTERNS = {"C4": [cycle_graph(4)], "P3": [path_graph(3)], "K3+K13": [complete_graph(3), star_graph(3)]}


class TestScanMatchesReference:
    def _compare(self, g, fam, rng):
        tau = min_transversal(g, fam)[0]
        edges = g.sorted_edges()
        for t in (tau - 1, tau, tau + 1):
            order = rng.sample(edges, len(edges)) if rng.random() < 0.5 else edges
            got = tr.first_dropping_edge(g, fam, order, t)
            assert got == _reference_first_dropping_edge(g, fam, order, t), (g.edges, fam, t)
            yield got

    def test_feedback_vertex_set(self):
        rng = random.Random(8501)
        found = set()
        for g in _sparse_corpus(8500, 250):
            for got in self._compare(g, HitFamily.feedback_vertex_set(), rng):
                found.add(got is None)
        assert found == {True, False}

    @pytest.mark.parametrize("relation", tr.RELATIONS)
    @pytest.mark.parametrize("name", sorted(SCAN_PATTERNS))
    def test_explicit_families(self, name, relation):
        fam = HitFamily.explicit(SCAN_PATTERNS[name], relation)
        rng = random.Random(8502)
        found = set()
        for i, g in enumerate(_sparse_corpus(8503 + tr.RELATIONS.index(relation), 45)):
            if i % 3 == 0:
                g = random_graph(rng, rng.randint(4, 8), 0.5)
            for got in self._compare(g, fam, rng):
                found.add(got is None)
        assert found == {True, False}

    def test_numbering_regression(self):
        # a scan-wide cache keyed by vertex sets of contract_set's quotients,
        # whose ids differ from quotient to quotient, or one that also kept
        # sets with the merged vertex, answered (3, 5) here
        g = random_graph(random.Random(14), 10, 0.4)
        fam = HitFamily.explicit([path_graph(3)], "induced-subgraph")
        tau = min_transversal(g, fam)[0]
        assert tau == 4
        assert _reference_first_dropping_edge(g, fam, g.sorted_edges(), tau) == (2, 5)
        assert tr.first_dropping_edge(g, fam, g.sorted_edges(), tau) == (2, 5)


class TestNeutralEdges:
    def test_neutral_edges_keep_the_feedback_vertex_number(self):
        neutral = 0
        for g in _sparse_corpus(8510, 200):
            size = feedback_vertex_set(g)[0]
            for e in g.sorted_edges():
                assert tr._fvs_neutral(g, e) == _keeps_fvs(g, e), (g.edges, e)
                if tr._fvs_neutral(g, e):
                    neutral += 1
                    assert feedback_vertex_set(contract_set(g, [e]).quotient)[0] == size, (g.edges, e)
        assert neutral >= 500

    def test_a_degree_two_end_on_a_triangle_is_not_neutral(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert not tr._fvs_neutral(g, (0, 1)) and tr._fvs_neutral(g, (2, 3))
        assert feedback_vertex_set(contract_set(g, [(0, 1)]).quotient)[0] == 0 < feedback_vertex_set(g)[0]


def _merged_edge(cls):
    """The edge (u, v), u < v, whose contraction has the class map ``cls``."""
    (v, u), = ((v, u) for v, u in enumerate(cls) if u != v)
    return u, v


class TestScanSolvesLess:
    def test_theorem_one_scan_solves_one_neutral_edge(self, monkeypatch):
        inst = GADGETS[1](_first_unsat_clean_formula())
        g, fam = inst.graph, default_family(inst)
        tau = feedback_vertex_set(g)[0]
        solves = []
        original_solve = tr.feedback_vertex_set
        monkeypatch.setattr(tr, "feedback_vertex_set", lambda h, budget=None: solves.append(1) or original_solve(h, budget))
        want = _reference_first_dropping_edge(g, fam, g.sorted_edges(), tau)
        reference_solves = len(solves)
        solves.clear()
        contracted = []
        original_quotient = tr.contract_keeping_ids
        monkeypatch.setattr(tr, "contract_keeping_ids",
                            lambda h, cls: contracted.append(_merged_edge(cls)) or original_quotient(h, cls))
        assert tr.first_dropping_edge(g, fam, g.sorted_edges(), tau) == want is not None
        assert len(solves) == len(contracted) < reference_solves
        assert sum(_keeps_fvs(g, e) for e in contracted) <= 1
        assert sum(_keeps_fvs(g, e) for e in g.sorted_edges() if e < want) >= 100

    def test_theorem_three_scan_searches_each_set_without_the_merged_vertex_once(self, monkeypatch):
        inst = GADGETS[3](PHI0)
        g, fam = inst.graph, default_family(inst)
        tau = min_transversal(g, fam)[0]
        merged = [None]
        searched = []
        original_quotient = tr.contract_keeping_ids
        monkeypatch.setattr(tr, "contract_keeping_ids",
                            lambda h, cls: merged.append(_merged_edge(cls)[0]) or original_quotient(h, cls))
        original_search = tr._family_occurrence

        def record(host, family, allowed):
            searched.append((merged[-1], allowed))
            return original_search(host, family, allowed)

        monkeypatch.setattr(tr, "_family_occurrence", record)
        want = _reference_first_dropping_edge(g, fam, g.sorted_edges(), tau)
        per_quotient = len(searched)
        searched.clear()
        assert tr.first_dropping_edge(g, fam, g.sorted_edges(), tau) == want
        assert len(merged) == g.m + 1
        outside = [allowed for u, allowed in searched if u not in allowed]
        assert len(outside) == len(set(outside)) > 0
        assert len(searched) < per_quotient
