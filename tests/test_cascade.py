"""The shared cascade of ``contraction_vc`` against the code it replaced.

Each ``_reference_*`` function below is the code the library carried
before ``min_contract_vc``, ``min_contract_2approx`` and
``contraction_vc_1`` shared one cascade: ``contraction_vc_1`` answered
non-bipartite graphs at once and ran the enumeration on the others,
``min_contract_vc`` asked ``algorithm1`` for every k in turn,
``min_contract_2approx`` wrote the cascade out again, and
``two_approx_drop`` solved an induced copy of the component, twice per
round.  ``_reference_dp_with_witness`` is the component DP as a table with
a backward reconstruction, before it became one forward pass.  The new code
must return exactly the same values, witnesses and ``ValueError`` messages
for every d >= 1.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from itertools import combinations

import pytest

from contrablock import contraction_vc
from contrablock.bipartite_contraction import bc_decide
from contrablock.contraction_vc import (
    Decision,
    _component_opt,
    _dp_with_witness,
    _enumerate,
    _large_component,
    _spanning_forest_witness,
    algorithm1,
    contraction_vc_1,
    dp_min_contract,
    min_contract_2approx,
    min_contract_vc,
    two_approx_drop,
)
from contrablock.graphs import Edge, Graph, bipartition, connected_components, contract_set, cycle_graph, induced_subgraph, path_graph
from contrablock.vertex_cover import vc_branching, vc_with_modulator

from .conftest import disjoint_union, random_graph


def _reference_two_approx_drop(g, component, d):
    if d < 1:
        raise ValueError("drop must be positive")
    comp = sorted(set(component))
    if comp not in connected_components(g):
        raise ValueError("vertex set is not a connected component of the graph")
    sub, old = induced_subgraph(g, comp)
    if vc_branching(sub, budget=d) is not None:
        raise ValueError("component cover number must exceed the requested drop")
    pos = {v: i for i, v in enumerate(old)}

    q = sub
    to_current = list(range(sub.n))
    chosen: list[Edge] = []

    def original_edge(qe):
        for x, y in g.sorted_edges():
            if x in pos and y in pos:
                a, b = to_current[pos[x]], to_current[pos[y]]
                if (a, b) == qe or (b, a) == qe:
                    return (x, y)
        raise RuntimeError("quotient edge without an original preimage")

    initial = vc_branching(sub).size
    while True:
        before = vc_branching(q)
        if initial - before.size >= d:
            break
        cover = before.cover
        picks = None
        for e in q.sorted_edges():
            if e[0] in cover and e[1] in cover:
                picks = [e]
                break
        if picks is None:
            for w in range(q.n):
                if w in cover:
                    continue
                inb = sorted(x for x in q.adj[w] if x in cover)
                if len(inb) >= 2:
                    picks = [(min(inb[0], w), max(inb[0], w)), (min(inb[1], w), max(inb[1], w))]
                    break
        if picks is None:
            raise RuntimeError("no two cover vertices within distance two")
        chosen.extend(original_edge(e) for e in picks)
        res = contract_set(q, picks)
        q = res.quotient
        to_current = [res.vmap[c] for c in to_current]
        after = vc_branching(q)
        if after.size > before.size - 1:
            raise RuntimeError("a round must lose a cover vertex")
    return chosen


@functools.cache  # shared by the algorithm1 and min_contract_vc comparisons
def _reference_algorithm1(g, k, d):
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive")
    if k < d:
        return Decision(False, None, "trivial-no")
    low_bc_witness = bc_decide(g, d - 1)
    if low_bc_witness is None:
        return Decision(True, _spanning_forest_witness(g, d), "bc-large")
    big, sizes = _large_component(g, d)
    if big is None:
        value, witness = _dp_with_witness(g, d, paper_convention=False, sizes=sizes)
        if value <= k:
            return Decision(True, witness, "small-components")
        return Decision(False, None, "small-components")
    if k >= 2 * d:
        return Decision(True, tuple(_reference_two_approx_drop(g, big, d)), "lemma3-budget")
    anchors = sorted({v for e in low_bc_witness for v in e})
    target = vc_with_modulator(g, anchors).size - d
    all_edges = g.sorted_edges()
    for size in range(1, k + 1):
        for f in combinations(all_edges, size):
            res = contract_set(g, f)
            merged = {c for c, cnt in Counter(res.vmap).items() if cnt >= 2}
            modulator = {res.vmap[v] for v in anchors} | merged
            if vc_with_modulator(res.quotient, modulator).size <= target:
                return Decision(True, f, "enumeration-yes")
    return Decision(False, None, "enumeration-no")


def _reference_contraction_vc_1(g: Graph) -> Decision:
    if bipartition(g) is None:
        return Decision(True, lambda: _spanning_forest_witness(g, 1), "bc-large")
    witness = _enumerate(g, 1, 1, ())
    if witness is not None:
        return Decision(True, witness, "enumeration-yes")
    return Decision(False, None, "enumeration-no")


def _reference_min_contract_vc(g, d, paper_convention=False):
    if vc_branching(g).size < d:
        return None
    if paper_convention and _large_component(g, d)[0] is None:
        value = dp_min_contract(g, d, paper_convention=True)
        return None if math.isinf(value) else int(value)
    forest_bound = sum(len(c) - 1 for c in connected_components(g))
    for k in range(d, max(forest_bound, d) + 1):
        if _reference_algorithm1(g, k, d).answer:
            return k
    raise RuntimeError("a feasible drop is reachable within the spanning forest bound")


def _reference_min_contract_2approx(g, d, paper_convention=False):
    if d < 1:
        raise ValueError("drop must be positive")
    if vc_branching(g).size < d:
        return None
    if bc_decide(g, d - 1) is None:
        return d
    big = _large_component(g, d)[0]
    if big is None:
        value = dp_min_contract(g, d, paper_convention)
        return None if math.isinf(value) else int(value)
    return len(_reference_two_approx_drop(g, big, d))


def _reference_dp_with_witness(g, d, paper_convention):
    if d < 0:
        raise ValueError("drop must be non-negative")
    if d == 0:
        return 0, ()
    if _large_component(g, d)[0] is not None:
        raise ValueError("every component must have cover number at most the drop")
    subs = [induced_subgraph(g, c) for c in connected_components(g)]

    p = len(subs)
    opt_cache: dict[tuple[int, int], tuple] = {}

    def opt(i: int, q: int):
        if (i, q) not in opt_cache:
            opt_cache[(i, q)] = _component_opt(subs[i][0], q, paper_convention)
        return opt_cache[(i, q)]

    dp = [[math.inf] * (d + 1) for _ in range(p + 1)]
    take = [[0] * (d + 1) for _ in range(p + 1)]
    for i in range(p + 1):
        dp[i][0] = 0
    for i in range(1, p + 1):
        for j in range(1, d + 1):
            for q in range(j + 1):
                prev = dp[i - 1][j - q]
                if math.isinf(prev):
                    continue
                val = opt(i - 1, q)[0]
                if prev + val < dp[i][j]:
                    dp[i][j] = prev + val
                    take[i][j] = q
    if math.isinf(dp[p][d]):
        return math.inf, None

    edges: list[Edge] = []
    j = d
    for i in range(p, 0, -1):
        q = take[i][j]
        if q:
            _, wit = opt(i - 1, q)
            old = subs[i - 1][1]
            edges.extend((min(old[a], old[b]), max(old[a], old[b])) for a, b in wit)
        j -= q
    return int(dp[p][d]), tuple(sorted(edges))


def _outcome(fn, *args):
    """The return value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@functools.cache
def _corpus():
    """2,000 seeded graphs on up to 8 vertices with at most 8 edges, many of
    them with several components."""
    rng = random.Random(502)
    graphs = []
    while len(graphs) < 2000:
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.3, 0.45, 0.6]))
        if g.m <= 8:
            graphs.append(g)
    return graphs


def test_two_approx_drop_matches_reference():
    rng = random.Random(505)
    raised = returned = 0
    for g in _corpus():
        comps = connected_components(g)
        sets = comps + [sorted(rng.sample(range(g.n), rng.randint(1, g.n)))]
        for d in (0, 1, 2, 3):
            for comp in sets:
                want = _outcome(_reference_two_approx_drop, g, comp, d)
                assert _outcome(two_approx_drop, g, comp, d) == want, (g.edges, comp, d)
                if isinstance(want, list):
                    returned += 1
                else:
                    raised += 1
    assert returned >= 1000 and raised >= 1000


def test_algorithm1_matches_reference():
    traces = Counter()
    for g in _corpus():
        for d in (1, 2, 3):
            for k in range(1, 2 * d + 1):
                want = _reference_algorithm1(g, k, d)
                assert algorithm1(g, k, d) == want, (g.edges, k, d)
                traces[want.trace] += 1
    assert all(traces[t] >= 50 for t in traces) and len(traces) == 6, traces


def test_contraction_vc_1_matches_reference():
    """The same answer and witness as the fork, and the same trace except
    where every component has cover number <= 1: the cascade settles those
    as small-components before it reaches the enumeration."""
    rng = random.Random(21)
    traces = Counter()
    for _ in range(5000):
        g = random_graph(rng, rng.randint(0, 9), rng.choice([0.1, 0.2, 0.3, 0.45, 0.6]))
        new, old = contraction_vc_1(g), _reference_contraction_vc_1(g)
        assert (new.answer, new.witness) == (old.answer, old.witness), g.edges
        small = all(vc_branching(g, 1, comp) is not None for comp in connected_components(g))
        assert new.trace == ("small-components" if small else old.trace), g.edges
        traces[old.trace, new.trace] += 1
    assert len(traces) == 5 and min(traces.values()) >= 100, traces


@pytest.mark.parametrize("paper_convention", [False, True])
def test_min_contract_matches_reference(paper_convention):
    values = Counter()
    for g in _corpus():
        for d in (1, 2, 3):
            want = _reference_min_contract_vc(g, d, paper_convention)
            assert min_contract_vc(g, d, paper_convention) == want, (g.edges, d)
            want_approx = _reference_min_contract_2approx(g, d, paper_convention)
            assert min_contract_2approx(g, d, paper_convention) == want_approx, (g.edges, d)
            values[want] += 1
            values["approx-above-exact"] += want_approx != want
    assert values[None] >= 100 and values["approx-above-exact"] >= 10, values


def test_dp_with_witness_matches_reference():
    # disjoint unions of up to three small random graphs, so the drop is
    # split over several components; a union with a component of cover > d
    # is refused by dp_min_contract with the reference's message
    rng = random.Random(509)
    seen = Counter()
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 5), rng.choice([0.3, 0.5, 0.7]))
        for _ in range(rng.randint(1, 2)):
            g = disjoint_union(g, random_graph(rng, rng.randint(1, 5), rng.choice([0.3, 0.5, 0.7])))
        for d in range(5):
            for paper_convention in (False, True):
                want = _outcome(_reference_dp_with_witness, g, d, paper_convention)
                if isinstance(want[0], type):  # a component has cover > d
                    assert _outcome(dp_min_contract, g, d, paper_convention) == want, (g.edges, d)
                    seen["refused"] += 1
                    continue
                sizes = _large_component(g, d)[1]
                assert _dp_with_witness(g, d, paper_convention, sizes) == want, (g.edges, d)
                assert dp_min_contract(g, d, paper_convention) == want[0], (g.edges, d)
                count, witness = want
                if math.isinf(count):
                    seen["inf"] += 1
                else:
                    touched = sum(any(u in comp for u, _ in witness) for comp in map(set, connected_components(g)))
                    seen[f"touches {min(touched, 2)} components"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 100, seen


@pytest.mark.parametrize("paper_convention", [False, True])
def test_drop_far_above_the_cover_number_is_cheap(paper_convention, monkeypatch):
    # vc(C5 + C5) = 6 < d: the cascade answers before the DP, and the DP
    # itself asks each component for shares up to the first infinite one
    # only, not for all d + 1 of them
    asked = Counter()
    real = contraction_vc._component_opt
    monkeypatch.setattr(contraction_vc, "_component_opt",
                        lambda c, q, pc, *vc: asked.update([q]) or real(c, q, pc, *vc))
    g = disjoint_union(cycle_graph(5), cycle_graph(5))
    d = 10**5
    assert min_contract_vc(g, d, paper_convention) is None
    assert min_contract_2approx(g, d, paper_convention) is None
    if not paper_convention:
        assert algorithm1(g, d, d) == Decision(False, None, "small-components")
    assert not asked, asked
    assert math.isinf(dp_min_contract(g, d, paper_convention))
    # C5's optimum is finite up to q = 3 (2 under the paper's convention),
    # and the DP asks both components up to the first infinite share
    last = 3 if paper_convention else 4
    assert asked == Counter({q: 2 for q in range(last + 1)}), asked


def test_dp_solves_each_component_cover_once(monkeypatch):
    # four disjoint P4s at k = d = 4: the DP reads each component's cover
    # number from _large_component's budgeted search, so it solves no
    # unbounded cover; the budgeted calls are the cascade's vc < d check,
    # _large_component's four on g, and one quotient fit each
    calls = Counter()
    real = contraction_vc.vc_branching

    def counted(h, budget=None, allowed=None):
        calls["unbounded" if budget is None else "budgeted"] += 1
        return real(h, budget, allowed)

    monkeypatch.setattr(contraction_vc, "vc_branching", counted)
    g = path_graph(4)
    for _ in range(3):
        g = disjoint_union(g, path_graph(4))
    assert algorithm1(g, 4, 4) == Decision(True, ((0, 1), (4, 5), (8, 9), (12, 13)), "small-components")
    assert calls["unbounded"] == 0 and calls["budgeted"] == 9, calls


@pytest.mark.parametrize("d", [21, 10**5])
def test_drop_above_the_cover_number_skips_the_bc_search(d, monkeypatch):
    # vc = 20 on this G(30, 0.3), and bc_decide would walk every edge set up
    # to bc(g) edges; vc < d already says no drop of d exists
    def refuse(*args):
        raise AssertionError("bc_decide called")

    monkeypatch.setattr(contraction_vc, "bc_decide", refuse)
    g = random_graph(random.Random(5), 30, 0.3)
    assert (g.m, vc_branching(g).size) == (127, 20)
    assert algorithm1(g, d, d) == Decision(False, None, "small-components")
    for paper_convention in (False, True):
        assert min_contract_vc(g, d, paper_convention) is None
        assert min_contract_2approx(g, d, paper_convention) is None
