"""Occurrence search runs on one explicit-stack depth-first search.

The ``_reference_*`` functions are the earlier recursive search, kept
verbatim as oracles: ``contains`` must return exactly the occurrence they
return (relation, vertices and mapping), or None where they do, and the
connected-set and simple-path generators must yield the same sequences.
"""

from __future__ import annotations

import random

import pytest

from contrablock import transversal as tr
from contrablock.graphs import Graph, bfs, complete_graph, cycle_graph, path_graph
from contrablock.transversal import contains

from .conftest import graph_from, random_graph

# -- the earlier recursive occurrence search ----------------------------------


def _reference_pattern_order(h: Graph) -> list[int]:
    """BFS order, so each vertex after the first root touches an earlier one."""
    return list(bfs(h.adj, range(h.n)))


def _reference_subgraph_occ(g: Graph, h: Graph, induced: bool, allowed) -> tuple[int, ...] | None:
    hosts = frozenset(range(g.n)) if allowed is None else frozenset(allowed)
    order = _reference_pattern_order(h)
    image: dict[int, int] = {}
    used: set[int] = set()

    def degree_in(v: int) -> int:
        return len(g.adj[v] & hosts)

    def place(i: int) -> bool:
        if i == len(order):
            return True
        pv = order[i]
        anchors = [image[q] for q in h.adj[pv] if q in image]
        candidates = sorted(g.adj[anchors[0]] & hosts) if anchors else sorted(hosts)
        for hv in candidates:
            if hv in used or degree_in(hv) < h.degree(pv):
                continue
            ok = True
            for q, iq in image.items():
                adjacent = hv in g.adj[iq]
                if q in h.adj[pv]:
                    if not adjacent:
                        ok = False
                        break
                elif induced and adjacent:
                    ok = False
                    break
            if not ok:
                continue
            image[pv] = hv
            used.add(hv)
            if place(i + 1):
                return True
            del image[pv]
            used.remove(hv)
        return False

    if place(0):
        return tuple(image[v] for v in range(h.n))
    return None


def _reference_connected_sets(g: Graph, free: frozenset[int], max_size: int):
    """Every connected subset of ``free`` exactly once, smallest-root first."""
    if max_size < 1:
        return
    for root in sorted(free):
        pool = frozenset(x for x in free if x > root)
        yield from _reference_grow_set(g, frozenset([root]), sorted(g.adj[root] & pool), frozenset(), pool, max_size)


def _reference_grow_set(g, current, ext, banned, pool, max_size):
    yield current
    if len(current) >= max_size:
        return
    for idx, v in enumerate(ext):
        new_banned = banned | frozenset(ext[:idx])
        fresh = sorted(
            w
            for w in g.adj[v]
            if w in pool and w not in current and w not in new_banned and w not in ext
        )
        yield from _reference_grow_set(g, current | {v}, ext[idx + 1 :] + fresh, new_banned, pool, max_size)


def _reference_minor_occ(g: Graph, h: Graph, allowed) -> tuple[frozenset[int], ...] | None:
    hosts = frozenset(range(g.n)) if allowed is None else frozenset(allowed)
    if h.n > len(hosts):
        return None
    order = _reference_pattern_order(h)
    sets: dict[int, frozenset[int]] = {}
    used: set[int] = set()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        pv = order[i]
        earlier = [q for q in h.adj[pv] if q in sets]
        free = hosts - used
        max_size = len(free) - (len(order) - i - 1)
        for branch in _reference_connected_sets(g, frozenset(free), max_size):
            if all(any(g.adj[x] & sets[q] for x in branch) for q in earlier):
                sets[pv] = branch
                used.update(branch)
                if place(i + 1):
                    return True
                del sets[pv]
                used.difference_update(branch)
        return False

    if place(0):
        return tuple(sets[v] for v in range(h.n))
    return None


def _reference_simple_paths(g: Graph, a: int, b: int, blocked: frozenset[int], hosts: frozenset[int]):
    """Simple a..b paths whose internal vertices avoid ``blocked``."""

    path = [a]
    on_path = {a}

    def walk(v: int):
        for w in sorted(g.adj[v]):
            if w == b:
                yield path + [b]
                continue
            if w in on_path or w in blocked or w not in hosts:
                continue
            path.append(w)
            on_path.add(w)
            yield from walk(w)
            path.pop()
            on_path.remove(w)

    yield from walk(a)


def _reference_topo_occ(g: Graph, h: Graph, allowed):
    hosts = frozenset(range(g.n)) if allowed is None else frozenset(allowed)
    if h.n > len(hosts):
        return None
    pedges = h.sorted_edges()
    branch: dict[int, int] = {}

    def place(i: int):
        if i == h.n:
            return route(0, frozenset(), ())
        for hv in sorted(hosts):
            if hv in branch.values():
                continue
            if len(g.adj[hv] & hosts) < h.degree(i):
                continue
            branch[i] = hv
            res = place(i + 1)
            if res is not None:
                return res
            del branch[i]
        return None

    def route(j: int, internals: frozenset[int], paths: tuple):
        if j == len(pedges):
            return paths
        a, b = pedges[j]
        blocked = frozenset(branch.values()) - {branch[a], branch[b]}
        for path in _reference_simple_paths(g, branch[a], branch[b], blocked | internals, hosts):
            inner = frozenset(path[1:-1])
            res = route(j + 1, internals | inner, paths + (tuple(path),))
            if res is not None:
                return res
        return None

    paths = place(0)
    if paths is None:
        return None
    branches = tuple(branch[v] for v in range(h.n))
    return branches, paths


def _reference_contains(g: Graph, h: Graph, relation: str, allowed=None) -> tr.Occurrence | None:
    """First occurrence of h inside g under the relation, or None.

    Search is deterministic: pattern vertices in BFS order, host candidates
    ascending.  ``allowed`` restricts the host to an induced vertex subset.
    """
    relation = tr._check_relation(relation)
    if relation in ("subgraph", "induced-subgraph"):
        mapping = _reference_subgraph_occ(g, h, relation == "induced-subgraph", allowed)
        if mapping is None:
            return None
        return tr.Occurrence(relation, tuple(sorted(set(mapping))), mapping)
    if relation == "minor":
        sets = _reference_minor_occ(g, h, allowed)
        if sets is None:
            return None
        verts = sorted(v for s in sets for v in s)
        return tr.Occurrence(relation, tuple(verts), sets)
    found = _reference_topo_occ(g, h, allowed)
    if found is None:
        return None
    branches, paths = found
    verts = sorted(set(branches) | {v for p in paths for v in p})
    return tr.Occurrence(relation, tuple(verts), (branches, paths))


# -- the comparison -----------------------------------------------------------

PATTERNS = {
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "P3": path_graph(3),
    "P4": path_graph(4),
    "K1,3": graph_from(4, [(0, 1), (0, 2), (0, 3)]),
    "K4": complete_graph(4),
    "diamond": graph_from(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    "triangle with tail": graph_from(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
}
CASES = 3200


def _random_case(rng: random.Random) -> tuple[Graph, frozenset[int] | None]:
    g = random_graph(rng, rng.randint(3, 9), rng.choice([0.25, 0.4, 0.55, 0.7]))
    if rng.random() < 0.5:
        return g, None
    return g, frozenset(v for v in range(g.n) if rng.random() < 0.75)


@pytest.mark.parametrize("relation", tr.RELATIONS)
def test_contains_matches_the_recursive_search(relation):
    rng = random.Random(f"occurrence-{relation}")
    found = missing = 0
    for case in range(CASES // len(tr.RELATIONS)):
        g, allowed = _random_case(rng)
        name = rng.choice(sorted(PATTERNS))
        expected = _reference_contains(g, PATTERNS[name], relation, allowed)
        assert contains(g, PATTERNS[name], relation, allowed) == expected, (case, name, g, allowed)
        if expected is None:
            missing += 1
        else:
            found += 1
    assert found >= 250 and missing >= 250, (found, missing)


def test_connected_sets_match_the_recursive_growth():
    rng = random.Random("connected-sets")
    for _ in range(400):
        g, allowed = _random_case(rng)
        free = frozenset(range(g.n)) if allowed is None else allowed
        max_size = rng.randint(0, len(free))
        assert list(tr._connected_sets(g, free, max_size)) == list(
            _reference_connected_sets(g, free, max_size)
        ), (g, free, max_size)


def test_simple_paths_match_the_recursive_walk():
    rng = random.Random("simple-paths")
    for _ in range(400):
        g, allowed = _random_case(rng)
        hosts = frozenset(range(g.n)) if allowed is None else allowed
        a, b = rng.sample(range(g.n), 2)
        blocked = frozenset(v for v in range(g.n) if v not in (a, b) and rng.random() < 0.2)
        expected = [tuple(p) for p in _reference_simple_paths(g, a, b, blocked, hosts)]
        assert list(tr._simple_paths(g, a, b, blocked, hosts)) == expected, (g, a, b, blocked, hosts)


@pytest.mark.parametrize("relation", tr.RELATIONS)
def test_family_occurrence_matches_contains_over_the_patterns(relation):
    # the hitting solver searches through _family_occurrence, with plans kept
    # on the family and no range check; it must return the first occurrence
    # that the public contains finds over the family's patterns, in order
    rng = random.Random(f"family-occurrence-{relation}")
    names = sorted(PATTERNS)
    found = missing = later = 0
    for case in range(150):
        g = random_graph(rng, rng.randint(5, 10), rng.choice([0.25, 0.4, 0.55]))
        fam = tr.HitFamily.explicit([PATTERNS[name] for name in rng.sample(names, rng.randint(1, 3))], relation)
        for _ in range(3):  # the family's plans are built once and reused
            allowed = frozenset(v for v in range(g.n) if rng.random() < 0.8)
            occs = [contains(g, h, relation, allowed) for h in fam.patterns]
            expected = next((occ for occ in occs if occ is not None), None)
            assert tr._family_occurrence(g, fam, allowed) == expected, (case, fam, g, allowed)
            found += expected is not None
            missing += expected is None
            later += occs[0] is None and expected is not None
    assert found >= 100 and missing >= 100 and later >= 25, (found, missing, later)
