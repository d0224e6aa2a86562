"""``bc_decide`` and ``odd_cycle_transversal`` run on ``graphs.shallowest``.

The ``_reference_*`` functions are the earlier hand-written iterative
deepenings, kept verbatim as oracles: every edge list, vertex set and None
must match them.  ``_reference_unsplit_oct`` is ``odd_cycle_transversal``
before it searched each component on its own, one ``shallowest`` search
over the whole graph.
"""

import random

import pytest

from contrablock.bipartite_contraction import bc_decide
from contrablock.graphs import (
    bipartition,
    complete_graph,
    contract_set,
    cycle_graph,
    depth_first,
    shallowest,
    shortest_odd_cycle,
)
from contrablock.transversal import odd_cycle_transversal

from .conftest import disjoint_union, random_graph


def _reference_bc_decide(g, k):
    if k < 0:
        raise ValueError("budget must be non-negative")
    for depth in range(k + 1):
        visited = set()
        found = _reference_bc_search(g, (), depth, visited)
        if found is not None:
            return sorted(found)
    return None


def _reference_bc_search(g, chosen, slack, visited):
    key = frozenset(chosen)
    if key in visited:
        return None
    visited.add(key)
    res = contract_set(g, chosen)
    cycle = shortest_odd_cycle(res.quotient)
    if cycle is None:
        return chosen
    if slack == 0:
        return None
    on_cycle = set(cycle)
    have = set(chosen)
    for e in g.sorted_edges():
        if e in have:
            continue
        a, b = res.vmap[e[0]], res.vmap[e[1]]
        if a == b:
            continue  # inside one class: contracting it cannot change the quotient
        if a in on_cycle or b in on_cycle:
            found = _reference_bc_search(g, chosen + (e,), slack - 1, visited)
            if found is not None:
                return found
    return None


def _reference_odd_cycle_transversal(g, budget=None):
    hi = g.n if budget is None else min(budget, g.n)
    for k in range(hi + 1):
        visited = set()
        res = _reference_oct_decide(g, frozenset(range(g.n)), k, visited)
        if res is not None:
            return len(res), frozenset(res)
    return None


def _reference_oct_decide(g, alive, k, visited):
    cycle = shortest_odd_cycle(g, alive)
    if cycle is None:
        return set()
    if k == 0 or alive in visited:
        return None
    visited.add(alive)
    for v in cycle:
        res = _reference_oct_decide(g, alive - {v}, k - 1, visited)
        if res is not None:
            res.add(v)
            return res
    return None


def _reference_unsplit_oct(g, budget=None):
    def children(alive):
        return (alive - {v} for v in shortest_odd_cycle(g, alive))  # odd: its level failed the goal

    everything = frozenset(range(g.n))
    hi = g.n if budget is None else min(budget, g.n)
    alive = shallowest(everything, lambda alive: bipartition(g, alive) is not None, children, hi)
    return None if alive is None else (g.n - len(alive), everything - alive)


def _corpus():
    """Seeded G(n, p) graphs with n <= 10; every fifth is a disjoint union
    of two of them."""
    rng = random.Random(1985)
    for i in range(300):
        if i % 5 == 4:
            a = rng.randint(1, 5)
            yield disjoint_union(random_graph(rng, a, rng.choice([0.5, 0.8])),
                                 random_graph(rng, rng.randint(1, 10 - a), rng.choice([0.5, 0.8])))
        else:
            yield random_graph(rng, rng.randint(0, 10), rng.choice([0.3, 0.4, 0.5, 0.65]))


CORPUS = list(_corpus())


def test_bc_decide_matches_reference():
    sizes = set()
    for g in CORPUS:
        for k in range(4):
            witness = bc_decide(g, k)
            assert witness == _reference_bc_decide(g, k), (g, k)
            sizes.add(None if witness is None else len(witness))
    assert sizes == {0, 1, 2, 3, None}


def test_odd_cycle_transversal_matches_reference():
    sizes = set()
    for g in CORPUS:
        for budget in (None, 0, 1, 2, 3):
            res = odd_cycle_transversal(g, budget)
            assert res == _reference_odd_cycle_transversal(g, budget), (g, budget)
            sizes.add(None if res is None else res[0])
    assert {0, 1, 2, 3, 4, None} <= sizes


def _copies(g, count):
    union = g
    for _ in range(count - 1):
        union = disjoint_union(union, g)
    return union


def test_deep_searches_match_reference():
    # each triangle needs one contraction or deletion and each K4 two, so
    # these searches go 4-8 levels deep; bc stops at three K4 to keep the
    # reference's time short
    triangles = [(_copies(cycle_graph(3), t), t) for t in range(4, 8)]
    k4s = [(_copies(complete_graph(4), c), 2 * c) for c in range(2, 5)]
    for g, opt in triangles + k4s[:2]:
        for k in range(opt + 1):
            assert bc_decide(g, k) == _reference_bc_decide(g, k), (g, k)
        assert len(bc_decide(g, opt)) == opt
    for g, opt in triangles + k4s:
        for budget in (None, *range(opt + 1)):
            assert odd_cycle_transversal(g, budget) == _reference_odd_cycle_transversal(g, budget), (g, budget)
        assert odd_cycle_transversal(g)[0] == opt


def test_split_oct_matches_the_unsplit_search_on_disjoint_unions():
    rng = random.Random(2323)
    sizes = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 6), rng.choice([0.4, 0.6, 0.9]))
        for _ in range(rng.randint(1, 2)):
            g = disjoint_union(g, random_graph(rng, rng.randint(1, 6), rng.choice([0.4, 0.6, 0.9])))
        for budget in (None, 0, 1, 2, 3, 4):
            res = odd_cycle_transversal(g, budget)
            assert res == _reference_unsplit_oct(g, budget), (g, budget)
            sizes.add(None if res is None else res[0])
    assert {0, 1, 2, 3, 4, 5, None} <= sizes


def test_negative_budgets():
    g = random_graph(random.Random(5), 6, 0.8)
    with pytest.raises(ValueError, match="non-negative"):
        bc_decide(g, -1)
    assert odd_cycle_transversal(g, -1) is None


def test_shallowest_takes_the_first_goal_of_the_lowest_depth():
    # states are strings; a child appends a letter, so a state's depth is its length
    def children(s):
        return (s + c for c in "ba")

    def mixed(s):
        return "a" in s and "b" in s

    assert shallowest("", mixed, children, 3) == "ba"
    assert shallowest("", mixed, children, 1) is None
    assert shallowest("", lambda s: True, children, 0) == ""
    assert shallowest("", lambda s: True, children, -1) is None


def test_shallowest_skips_repeated_states():
    # a state is a set, reached in every order of its members; each is
    # tested once and expanded at most once, and the last level is not expanded
    tested = []
    expanded = []

    def goal(s):
        tested.append(s)
        return False

    def children(s):
        expanded.append(s)
        return (s | {x} for x in range(3) if x not in s)

    assert shallowest(frozenset(), goal, children, 3) is None
    assert len(tested) == len(set(tested)) == 1 + 3 + 3 + 1
    assert len(expanded) == len(set(expanded)) == 1 + 3 + 3


def test_depth_first_is_preorder_and_not_bounded_by_recursion():
    tree = {"r": "ab", "a": "cd", "b": "", "c": "", "d": ""}
    assert list(depth_first("r", lambda v: tree[v])) == ["r", "a", "c", "d", "b"]
    deepest = None
    for deepest in depth_first(0, lambda v: [v + 1] if v < 5000 else []):
        pass
    assert deepest == 5000
