import dataclasses
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrablock.graphs import (
    Graph,
    GraphFormatError,
    bfs,
    bipartition,
    checked_vertices,
    complete_graph,
    connected_components,
    _class_map,
    contract_edge,
    contract_keeping_ids,
    contract_set,
    contracted_coloring,
    cycle_graph,
    induced_subgraph,
    parse_graph,
    path_graph,
    serialize_graph,
    shortest_odd_cycle,
    subdivide_edges,
    tree_cycle,
)
from contrablock.transversal import contains
from contrablock.vertex_cover import vc_bipartite, vc_branching

from .conftest import disjoint_union, grid_graph, random_bipartite_graph, random_graph


def edge_subsets(draw_edges):
    return st.lists(st.sampled_from(draw_edges), unique=True) if draw_edges else st.just([])


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    return Graph.from_edges(n, edges)


class TestParsing:
    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
        assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_single_vertex(self):
        g = parse_graph("1 0\n")
        assert g.n == 1 and g.m == 0

    def test_c4(self):
        g = parse_graph("4 4\n0 1\n1 2\n2 3\n0 3\n")
        assert g.n == 4 and g.m == 4 and g.degree(0) == 2

    def test_comments_ignored(self):
        g = parse_graph("# hello\n3 1\n# mid\n0 2\n")
        assert g.m == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("3\n", 1),
            ("3 1\n0 9\n", 2),
            ("3 1\n1 1\n", 2),
            ("3 2\n0 1\n1 0\n", 3),
            ("3 2\n0 1\nx y\n", 3),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.line == line

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 2\n0 1\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "missing header 'n m'"),
            ("3\n", "line 1: expected header 'n m'"),
            ("x y\n", "line 1: non-integer header field"),
            ("-1 0\n", "line 1: negative count in header"),
            ("3 1\n0 1 2\n", "line 2: expected edge 'u v'"),
            ("3 2\n0 1\nx y\n", "line 3: non-integer vertex"),
            ("3 1\n0 9\n", "line 2: vertex out of range 0..2"),
            ("3 1\n1 1\n", "line 2: loop at vertex 1"),
            ("3 2\n0 1\n1 0\n", "line 3: duplicate edge 0 1"),
            ("# c\n3 2\n2 1\n1 2\n", "line 4: duplicate edge 1 2"),
            ("3 2\n0 1\n", "header announced 2 edges, found 1"),
            ("2 0\n0 1\n", "header announced 0 edges, found 1"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert str(err.value) == message

    def test_validates_each_edge_once(self, monkeypatch):
        # parse_graph checks every edge line itself, so it builds the Graph
        # without handing the same edges to the validating from_edges again
        def refuse(*args):
            raise AssertionError("from_edges called")

        monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))
        g = parse_graph("# c\n5 4\n3 1\n0 1\n1 2\n4 0\n")
        assert g.n == 5 and g.adj == (frozenset({1, 4}), frozenset({0, 2, 3}), frozenset({1}),
                                      frozenset({1}), frozenset({0}))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, g):
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == text


class TestContraction:
    def test_c4_single_edge_gives_triangle(self):
        res = contract_edge(cycle_graph(4), (0, 1))
        assert res.quotient.n == 3 and res.quotient.m == 3

    def test_spanning_tree_of_triangle_gives_point(self):
        res = contract_set(complete_graph(3), [(0, 1), (1, 2)])
        assert res.quotient.n == 1 and res.quotient.m == 0

    def test_empty_set_is_identity(self):
        g = cycle_graph(5)
        res = contract_set(g, [])
        assert res.quotient.edges == g.edges and res.vmap == tuple(range(5))

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            contract_set(path_graph(3), [(0, 2)])

    def test_contracting_a_long_path_to_a_point_is_linear(self):
        # a class map relabelled in full at each merge would take seconds here
        g = path_graph(20000)
        edges = g.sorted_edges()
        start = time.perf_counter()
        res = contract_set(g, edges)
        assert time.perf_counter() - start < 1.0
        assert res.quotient.n == 1 and res.vmap == (0,) * 20000

    def test_vmap_surjective_and_class_rule(self):
        g = cycle_graph(6)
        res = contract_set(g, [(0, 1), (3, 4)])
        assert sorted(set(res.vmap)) == list(range(res.quotient.n))
        # classes renumbered by minimum original vertex
        classes = res.classes()
        assert [min(c) for c in classes] == sorted(min(c) for c in classes)

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_order_independence(self, g, rnd):
        edges = g.sorted_edges()
        if not edges:
            return
        f = rnd.sample(edges, rnd.randint(1, len(edges)))
        bulk = contract_set(g, f)

        for _ in range(2):
            order = f[:]
            rnd.shuffle(order)
            cur, vmap = g, list(range(g.n))
            for u, v in order:
                a, b = vmap[u], vmap[v]
                if a == b:
                    continue
                step = contract_edge(cur, (min(a, b), max(a, b)))
                cur = step.quotient
                vmap = [step.vmap[x] for x in vmap]
            # sequential contraction yields the same partition, hence the
            # same graph up to the deterministic relabeling
            assert vmap == list(bulk.vmap)
            assert cur.edges == bulk.quotient.edges

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_quotient_size_formula(self, g, rnd):
        edges = g.sorted_edges()
        f = rnd.sample(edges, rnd.randint(0, len(edges))) if edges else []
        res = contract_set(g, f)
        touched = {v for e in f for v in e}
        n_classes = len({res.vmap[v] for v in touched})
        assert res.quotient.n == g.n - len(touched) + n_classes


class TestContractionKeepingIds:
    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_relabelled_it_is_the_quotient(self, g, rnd):
        if not g.edges:
            return
        u, v = rnd.choice(g.sorted_edges())
        kept = contract_keeping_ids(g, _class_map(g, [(v, u)]))
        assert kept.n == g.n and not kept.adj[v]
        assert all(v not in ns for ns in kept.adj)
        new = [x - (x > v) for x in range(g.n)]
        relabelled = {tuple(sorted((new[a], new[b]))) for a, b in kept.edges}
        quotient = contract_edge(g, (u, v)).quotient
        assert relabelled == quotient.edges
        assert [new[x] for x in range(g.n) if x != v] == list(range(quotient.n))

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_sets_without_the_merged_vertex_induce_what_they_induce_in_g(self, g, rnd):
        if not g.edges:
            return
        u, v = rnd.choice(g.sorted_edges())
        kept = contract_keeping_ids(g, _class_map(g, [(u, v)]))
        others = [x for x in range(g.n) if x not in (u, v)]
        for _ in range(5):
            subset = rnd.sample(others, rnd.randint(0, len(others)))
            assert induced_subgraph(kept, subset) == induced_subgraph(g, subset)

    def test_examples(self):
        # C4 with 1 merged into 0 is a triangle on 0, 2, 3
        kept = contract_keeping_ids(cycle_graph(4), _class_map(cycle_graph(4), [(0, 1)]))
        assert kept.n == 4 and kept.edges == {(0, 2), (0, 3), (2, 3)}
        # the middle edge of P4: the merged vertex 1 keeps both outer ends
        kept = contract_keeping_ids(path_graph(4), _class_map(path_graph(4), [(2, 1)]))
        assert kept.edges == {(0, 1), (1, 3)} and kept.degree(2) == 0

    @pytest.mark.parametrize("pair", [(0, 2), (0, 9), (-1, 0)])
    def test_non_edge_rejected_like_contract_set(self, pair):
        # the class map checks the edges before any quotient is built
        with pytest.raises(ValueError, match="not in graph"):
            contract_keeping_ids(path_graph(3), _class_map(path_graph(3), [pair]))

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_restricted_to_the_class_minima_it_is_contract_set(self, g, rnd):
        f = rnd.sample(g.sorted_edges(), rnd.randint(0, g.m))
        cls = _class_map(g, f)
        kept = contract_keeping_ids(g, cls)
        minima = [v for v in range(g.n) if cls[v] == v]
        res = contract_set(g, f)
        assert induced_subgraph(kept, minima) == (res.quotient, minima)
        assert res.vmap == tuple(minima.index(r) for r in cls)
        assert all(not kept.adj[v] for v in range(g.n) if cls[v] != v)

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_contraction_commutes_with_relabelling(self, g, rnd):
        # contracting F in g and its image in g relabelled by a permutation
        # give quotients that the classes' correspondence maps onto each other
        f = rnd.sample(g.sorted_edges(), rnd.randint(0, g.m))
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        res = contract_set(g, f)
        image = contract_set(h, [(perm[u], perm[v]) for u, v in f])
        pairs = {(res.vmap[v], image.vmap[perm[v]]) for v in range(g.n)}
        onto = dict(pairs)  # one image per class, and distinct classes have distinct images
        assert len(pairs) == len(onto) == len(set(onto.values())) == res.quotient.n == image.quotient.n
        assert {tuple(sorted((onto[a], onto[b]))) for a, b in res.quotient.edges} == image.quotient.edges


class TestStructureQueries:
    def test_components(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]
        assert connected_components(Graph.from_edges(4, [])) == [[0], [1], [2], [3]]
        assert len(connected_components(cycle_graph(5))) == 1

    def test_bipartition(self):
        assert bipartition(cycle_graph(4)) == ([0, 2], [1, 3])
        assert bipartition(cycle_graph(5)) is None
        assert bipartition(Graph.from_edges(3, [])) == ([0, 1, 2], [])

    def test_odd_cycle_witness_pairs_with_bipartition(self):
        rng = random.Random(5)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            cycle = shortest_odd_cycle(g)
            if bipartition(g) is None:
                assert cycle is not None and len(cycle) % 2 == 1
                assert len(set(cycle)) == len(cycle)
                for i, v in enumerate(cycle):
                    assert g.has_edge(v, cycle[(i + 1) % len(cycle)])
            else:
                assert cycle is None

    def test_subdivide_k4(self):
        assert subdivide_edges(complete_graph(4)).n == 10


def _reference_shortest_odd_cycle(g: Graph, allowed=None) -> list[int] | None:
    """``shortest_odd_cycle`` as it was before it searched level by level,
    verbatim: a full ``bfs`` per root and a sorted scan of every edge."""
    alive = checked_vertices(g, allowed)
    best: list[int] | None = None
    bipartite: set[int] = set()  # components whose search found no odd edge
    for s in sorted(alive):
        if s in bipartite:
            continue
        par = bfs(g.adj, [s], alive)
        dist: dict[int, int] = {}
        for v, p in par.items():
            dist[v] = 0 if p == -1 else dist[p] + 1
        odd = False
        for v in par:
            for w in sorted(g.adj[v]):
                if w not in dist or w <= v:
                    continue
                if (dist[v] + dist[w]) % 2 == 0:
                    odd = True
                    length = dist[v] + dist[w] + 1
                    if best is None or length < len(best):
                        best = tree_cycle(par, v, w)
        if not odd:
            bipartite.update(par)  # no root of a bipartite component can close an odd cycle
        if best is not None and len(best) == 3:
            break
    return best


def _odd_girth(g: Graph, alive) -> int | None:
    """The length of a shortest odd closed walk inside ``alive``, or None.
    Such a walk never repeats a vertex, so this is the odd girth; it is
    found by growing the walks from every vertex one step at a time, with
    no search tree."""
    reach = {v: {v} for v in alive}
    for length in range(1, len(reach) + 1):
        reach = {v: {w for u in ends for w in g.adj[u] if w in alive} for v, ends in reach.items()}
        if length % 2 and any(v in ends for v, ends in reach.items()):
            return length
    return None


class TestShortestOddCycle:
    def test_matches_reference(self):
        # the same cycle, not only the same length: bc_decide's and OCT's
        # witnesses depend on which shortest odd cycle comes back
        rng = random.Random(28)
        kinds = {"odd": 0, "bipartite": 0, "allowed": 0, "bipartite first": 0, "bipartite last": 0}
        for i in range(3200):
            p = rng.choice([0.05, 0.1, 0.2, 0.35, 0.6])
            if i % 4 < 2:
                part = random_bipartite_graph(rng, 1, 11)
                other = random_graph(rng, rng.randint(3, 22 - part.n), rng.choice([0.35, 0.6]))
                g = disjoint_union(part, other) if i % 4 == 0 else disjoint_union(other, part)
            else:
                g = random_graph(rng, rng.randint(1, 22), p)
            allowed = None if rng.random() < 0.5 else [v for v in range(g.n) if rng.random() < rng.choice([0.5, 0.8])]
            got = shortest_odd_cycle(g, allowed)
            assert got == _reference_shortest_odd_cycle(g, allowed), (g.sorted_edges(), allowed)
            kinds["odd" if got else "bipartite"] += 1
            kinds["allowed"] += allowed is not None
            if i % 4 < 2 and got is not None and part.m > 0:
                kinds["bipartite first" if i % 4 == 0 else "bipartite last"] += 1
        assert min(kinds.values()) >= 300, kinds

    def test_bipartite_component_after_a_long_odd_cycle_is_searched_once(self):
        # a root of the grid is not known to be in an odd component, so it
        # searches on past the 101-cycle's 50 levels and marks the grid
        # bipartite; stopping it there would search every grid root 50
        # levels deep, seconds here
        g = disjoint_union(cycle_graph(101), grid_graph(60, 60))
        start = time.perf_counter()
        cycle = shortest_odd_cycle(g)
        assert time.perf_counter() - start < 1.0
        assert cycle == list(range(101)) == _reference_shortest_odd_cycle(g)

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_none_iff_bipartite_and_length_is_the_odd_girth(self, g, rnd):
        allowed = None if rnd.random() < 0.3 else {v for v in range(g.n) if rnd.random() < 0.8}
        alive = set(range(g.n)) if allowed is None else allowed
        sub = nx.Graph()
        sub.add_nodes_from(alive)
        sub.add_edges_from(e for e in g.edges if set(e) <= alive)
        cycle = shortest_odd_cycle(g, allowed)
        assert (cycle is None) == nx.is_bipartite(sub)
        assert (None if cycle is None else len(cycle)) == _odd_girth(g, alive)
        if cycle is not None:
            assert len(set(cycle)) == len(cycle) and set(cycle) <= alive
            assert all(g.has_edge(v, cycle[i - 1]) for i, v in enumerate(cycle))


def test_induced_subgraph_matches_an_edge_scan():
    # the subgraph is read off the chosen vertices' neighbours; scanning
    # every edge of the host gives the same graph
    rng = random.Random(41)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 15), rng.choice([0.1, 0.3, 0.6]))
        vertices = [v for v in range(g.n) if rng.random() < rng.choice([0.3, 0.7, 1.0])]
        old = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(old)}
        scanned = Graph.from_edges(len(old), [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos])
        assert induced_subgraph(g, vertices) == (scanned, old), (g, vertices)


@pytest.mark.parametrize("call,args", [
    (induced_subgraph, (path_graph(3), [-1, 0])),
    (induced_subgraph, (path_graph(3), [0, 3])),
    (bipartition, (path_graph(3), [-1, 0, 1])),
    (shortest_odd_cycle, (complete_graph(3), [-1, 0, 1])),
    (vc_branching, (path_graph(3), None, [-1, 0, 1])),
    (vc_branching, (path_graph(3), None, [0, 5])),
    (vc_bipartite, (path_graph(3), [-1, 0, 1])),
    (contains, (path_graph(3), path_graph(2), "subgraph", [-1, 1])),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_allowed_vertex_out_of_range(call, args):
    # a vertex outside 0..n-1 has no neighbour set: a negative one would read
    # another vertex's set, a large one would raise IndexError
    with pytest.raises(ValueError, match="vertex out of range"):
        call(*args)


class TestContractedColoring:
    """``contracted_coloring`` answers on g itself what ``bipartition`` of
    the quotient answers, read back through the vertex map."""

    @staticmethod
    def pulled_back(g, f):
        res = contract_set(g, f)
        sides = bipartition(res.quotient)
        if sides is None:
            return None
        left = set(sides[0])
        return tuple(0 if res.vmap[v] in left else 1 for v in range(g.n))

    def test_matches_quotient_bipartition(self):
        rng = random.Random(20)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            g = random_graph(rng, rng.randint(0, 10), rng.choice([0.15, 0.3, 0.5]))
            edges = g.sorted_edges()
            f = rng.sample(edges, rng.randint(0, min(5, len(edges))))
            rng.shuffle(f)
            f = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in f]
            got = contracted_coloring(g, f)
            assert got == self.pulled_back(g, f), (g.sorted_edges(), f)
            outcomes[got is None] += 1
        assert min(outcomes.values()) >= 500, outcomes

    def test_examples(self):
        assert contracted_coloring(complete_graph(3), []) is None
        assert contracted_coloring(complete_graph(3), [(0, 1)]) == (0, 0, 1)
        assert contracted_coloring(cycle_graph(4), [(0, 1), (1, 2)]) == (0, 0, 0, 1)
        assert contracted_coloring(cycle_graph(4), [(0, 1)]) is None  # the quotient is a triangle
        assert contracted_coloring(disjoint_union(path_graph(2), path_graph(3)), []) == (0, 1, 0, 1, 0)
        assert contracted_coloring(Graph.from_edges(0, []), []) == ()

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (0, 5), (-1, 0)])
    def test_non_edge_rejected_like_contract_set(self, pair):
        g = path_graph(3)
        with pytest.raises(ValueError) as want:
            contract_set(g, [(0, 1), pair])
        with pytest.raises(ValueError) as got:
            contracted_coloring(g, [(0, 1), pair])
        assert str(got.value) == str(want.value)


class TestGraphCore:
    """A Graph is its vertex count and neighbour sets; the edge set is
    derived from them on first read."""

    @staticmethod
    def four_ways(g: Graph, rng: random.Random) -> list[Graph]:
        """g built by from_edges, parse_graph, contract_set and induced_subgraph."""
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.sorted_edges()]
        rng.shuffle(flipped)
        # contracting each subdivision vertex into the smaller end of its
        # edge gives g back, since classes are numbered by their minimum
        sub = subdivide_edges(g)
        onto = [(u, g.n + i) for i, (u, _) in enumerate(g.sorted_edges())]
        padded = disjoint_union(g, path_graph(3))
        return [
            Graph.from_edges(g.n, flipped),
            parse_graph(serialize_graph(g)),
            contract_set(sub, onto).quotient,
            induced_subgraph(padded, range(g.n))[0],
        ]

    def test_constructors_agree(self):
        rng = random.Random(19)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 12), rng.choice([0.1, 0.3, 0.6]))
            want = g.sorted_edges()
            for built in self.four_ways(g, rng):
                assert built == g and hash(built) == hash(g), want
                assert built.edges == g.edges and built.m == len(want) and built.sorted_edges() == want

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 0), (1, 0)]])
    def test_duplicate_in_either_orientation(self, edges):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph.from_edges(3, [(1, 2), *edges])

    @pytest.mark.parametrize("n,edges,message", [
        (-1, [], r"^vertex count must be non-negative$"),
        (3, [(0, 3)], r"^vertex out of range in edge \(0, 3\)$"),
        (3, [(-1, 2)], r"^vertex out of range in edge \(-1, 2\)$"),
        (3, [(0, 1), (2, 2)], r"^loop at vertex 2$"),
    ])
    def test_from_edges_refusals(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(n, edges)

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError, match=r"^cycle needs at least 3 vertices$"):
            cycle_graph(2)

    def test_fields_are_n_and_adj(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj"]

    @pytest.mark.parametrize("read", [lambda h: h.edges, lambda h: h.m, Graph.sorted_edges],
                             ids=["edges", "m", "sorted_edges"])
    def test_edge_set_derived_on_first_read(self, read):
        g = cycle_graph(5)
        for h in (contract_set(g, [(0, 1)]).quotient, induced_subgraph(g, [0, 1, 2])[0]):
            assert "edges" not in vars(h)
            read(h)
            assert vars(h)["edges"] == frozenset((u, w) for u in range(h.n) for w in h.adj[u] if u < w)

    def test_edges_cannot_be_assigned(self):
        g = path_graph(3)
        for _ in range(2):  # before and after the first read
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.edges = frozenset()
            assert g.edges == {(0, 1), (1, 2)}
