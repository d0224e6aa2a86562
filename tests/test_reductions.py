import random
from collections import defaultdict
from itertools import islice

import pytest

from contrablock.graphs import (
    Edge,
    Graph,
    complete_graph,
    contract_set,
    cycle_graph,
    induced_subgraph,
    is_two_connected,
    path_graph,
    serialize_graph,
    subdivide_edges,
)
from contrablock.reductions import (
    ClaimReport,
    CleanFormulaError,
    GadgetInstance,
    _base_layout,
    _Builder,
    _first_nonadjacent_pair,
    _place_copy,
    brute_force_sat,
    build_base,
    build_double_copy_instance,
    build_path_instance,
    build_subdivided_clique_instance,
    clean_formula,
    default_family,
    enumerate_clean_formulas,
    parse_cnf,
    serialize_roles,
    validate_clean,
    verify_claims,
)
from contrablock.transversal import HitFamily, feedback_vertex_set, find_dropping_edge

from .conftest import serialize_cnf

PHI0 = clean_formula(2, [(1, 2), (1, -2), (-1, 2)])


def _reference_build_double_copy_instance(
    phi, pattern: Graph, u: int | None = None, v: int | None = None
) -> GadgetInstance:
    """``build_double_copy_instance`` as it was while it took the attachment
    pair as optional parameters and checked it."""
    if not is_two_connected(pattern):
        raise ValueError("pattern must be 2-connected")
    if pattern.m == pattern.n * (pattern.n - 1) // 2:
        raise ValueError("pattern must not be complete")
    if u is None or v is None:
        u, v = _first_nonadjacent_pair(pattern)
    if not (0 <= u < pattern.n and 0 <= v < pattern.n) or u == v:
        raise ValueError("attachment vertices must be two distinct pattern vertices")
    if pattern.has_edge(u, v):
        raise ValueError("attachment vertices must be non-adjacent")

    b = _Builder()
    a_edges, b_edges, ab_edges = _base_layout(phi, b)

    copies: list[dict] = []
    seq = 0
    for kind, edge_list, fold in (("a", a_edges, 2), ("b", b_edges, 2), ("ab", ab_edges, 1)):
        for x, y in edge_list:
            for _ in range(fold):
                verts = _place_copy(b, pattern, {u: x, v: y}, f"internal-{kind}:copy{seq}")
                copies.append({"kind": kind, "attach": (x, y), "vertices": verts, "seq": seq})
                seq += 1

    # Base vertex: the lowest-index internal of each cross copy.
    cross_copies = [c for c in copies if c["kind"] == "ab"]
    pendant_edges: list[Edge] = []
    for copy in cross_copies:
        internals = sorted(set(copy["vertices"]) - set(copy["attach"]))
        z = internals[0]
        b.roles[z] = f"base:copy{copy['seq']}"
        copy["base"] = z
    for copy in cross_copies:
        z = copy["base"]
        s = b.vertex(f"pendant-root:copy{copy['seq']}")
        for _ in range(2):
            verts = _place_copy(b, pattern, {u: s}, f"pendant:copy{copy['seq']}")
            copies.append({"kind": "pendant", "attach": (s,), "vertices": verts, "seq": seq})
            seq += 1
        b.edge(z, s)
        pendant_edges.append((min(z, s), max(z, s)))

    return GadgetInstance(
        b.graph(),
        b.roles,
        phi.threshold,
        {
            "formula": phi,
            "construction": "double-copy",
            "pattern": pattern,
            "u": u,
            "v": v,
            "copies": copies,
            "pendant_edges": pendant_edges,
        },
    )


def _attach_path(builder: _Builder, anchor: int, length: int, role: str) -> list[int]:
    """Append a path of ``length`` vertices whose first vertex is ``anchor``."""
    verts = [anchor]
    for _ in range(length - 1):
        w = builder.vertex(role)
        builder.edge(verts[-1], w)
        verts.append(w)
    return verts


def _reference_build_path_instance(phi, path_len: int) -> GadgetInstance:
    """``build_path_instance`` with its own path builder, before it used
    ``_attach_path`` for the replaced edges."""
    i = path_len
    if i < 4:
        raise ValueError("path pattern needs at least 4 vertices")
    if i % 2 == 0:
        replace_len = i // 2 + 1
        attach_len = i // 2
    else:
        replace_len = (i + 1) // 2
        attach_len = (i + 1) // 2

    b = _Builder()
    a_edges, b_edges, ab_edges = _base_layout(phi, b)
    n_base = b.next_id

    def replace_by_path(x: int, y: int, count: int, role: str) -> list[int]:
        verts = [x]
        for _ in range(count - 2):
            verts.append(b.vertex(role))
        verts.append(y)
        for p, q in zip(verts, verts[1:]):
            b.edge(p, q)
        return verts

    for x, y in a_edges:
        replace_by_path(x, y, replace_len, "internal-a")
    for x, y in b_edges:
        replace_by_path(x, y, replace_len, "internal-b")

    bases: list[int] = []
    for x, y in ab_edges:
        verts = replace_by_path(x, y, 3, "internal-ab")
        z = verts[1]
        b.roles[z] = "base"
        bases.append(z)

    for v in range(n_base):
        _attach_path(b, v, attach_len, "attach")

    pendant_edges: list[Edge] = []
    for z in bases:
        s = b.vertex("pendant-root")
        _attach_path(b, s, i, "pendant")
        _attach_path(b, s, i, "pendant")
        b.edge(z, s)
        pendant_edges.append((min(z, s), max(z, s)))

    return GadgetInstance(
        b.graph(),
        b.roles,
        phi.threshold,
        {
            "formula": phi,
            "construction": "path",
            "path_len": i,
            "pendant_edges": pendant_edges,
        },
    )


def role_kind(tag: str) -> str:
    return tag.split(":")[0]


class TestCleanValidation:
    def test_phi0_is_clean(self):
        assert PHI0.n == 2 and PHI0.m == 3 and PHI0.threshold == 13

    def test_repeated_variable_in_clause(self):
        errs = validate_clean(2, [(1, 2, 1), (1, -2), (-1, 2)])
        assert any("repeats variable 1" in e for e in errs)

    def test_missing_negative_occurrence(self):
        errs = validate_clean(2, [(1, 2), (1, 2), (1, 2)])
        assert any("variable 1 never occurs negatively" in e for e in errs)
        assert any("variable 2 never occurs negatively" in e for e in errs)

    def test_all_violations_reported(self):
        errs = validate_clean(2, [(1, 2, 1), (1,), (2, -1)])
        assert len(errs) >= 3  # clause size, repeat, occurrence counts

    def test_occurrence_count(self):
        errs = validate_clean(1, [(1, -1)])
        assert errs  # n=1 cannot be clean: clauses need distinct variables

    def test_parse_cnf_round_trip(self):
        phi = parse_cnf(serialize_cnf(PHI0))
        assert phi == PHI0

    def test_parse_cnf_rejects_unclean(self):
        text = "p cnf 2 3\n1 2 0\n1 2 0\n1 2 0\n"
        with pytest.raises(CleanFormulaError) as err:
            parse_cnf(text)
        assert len(err.value.violations) == 2  # both variables lack a negative

    def test_parse_cnf_rejects_bad_header(self):
        with pytest.raises(CleanFormulaError):
            parse_cnf("p cnf 2\n1 2 0\n")

    def test_parse_cnf_skips_comments_and_blank_lines(self):
        assert parse_cnf("c a comment\n\n" + serialize_cnf(PHI0) + "\nc trailing\n") == PHI0

    @pytest.mark.parametrize("text,message", [
        ("1 2 0\np cnf 2 3\n1 -2 0\n-1 2 0\n", "clause before 'p cnf' line"),
        ("c no header\n", "missing 'p cnf' line"),
        ("p cnf 2 3\n1 2 0\n1 -2 0\n-1 2\n", "unterminated final clause (missing 0)"),
        ("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n", "header announced 4 clauses, found 3"),
    ])
    def test_parse_cnf_refusals(self, text, message):
        with pytest.raises(CleanFormulaError) as err:
            parse_cnf(text)
        assert err.value.violations == [message]

    def test_parse_cnf_refuses_more_variables_than_literals(self):
        # one violation, not three per absent variable
        with pytest.raises(CleanFormulaError) as err:
            parse_cnf("p cnf 3000000 0\n")
        assert err.value.violations == ["header announced 3000000 variables, found 0 literals"]
        with pytest.raises(CleanFormulaError) as err:
            parse_cnf("p cnf 3 1\n1 2 -3 0\n")  # at the bound each variable is still listed
        assert len(err.value.violations) == 6

    @pytest.mark.parametrize("n,clauses,message", [
        (0, [], "formula must have at least one variable"),
        (2, [(1, 2), (1, -3), (-1, 2)], "clause 2 has out-of-range literal -3"),
        (2, [(1, 0), (1, -2), (-1, 2)], "clause 1 has out-of-range literal 0"),
        (2, [(-1, 2), (-1, 2), (-1, -2)], "variable 1 never occurs positively"),
    ])
    def test_validate_clean_refusals(self, n, clauses, message):
        assert message in validate_clean(n, clauses)

    def test_parse_cnf_rejects_non_integers(self):
        with pytest.raises(CleanFormulaError, match="non-integer header field 'x'"):
            parse_cnf("p cnf x 2\n1 2 0\n")
        with pytest.raises(CleanFormulaError, match="non-integer header field '3.0'"):
            parse_cnf("p cnf 2 3.0\n1 2 0\n")
        with pytest.raises(CleanFormulaError, match="non-integer literal 'y'"):
            parse_cnf("p cnf 2 3\n1 2 0\n1 y 0\n-1 2 0\n")

    def test_sat_example(self):
        assert brute_force_sat(PHI0) == (True, True)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_clean_formulas(2))) == 8
        assert len(list(enumerate_clean_formulas(3))) == 256

    def test_no_formulas_without_variables(self):
        assert list(enumerate_clean_formulas(0)) == []
        assert list(enumerate_clean_formulas(-1)) == []

    def test_phi0_in_sweep(self):
        canon = tuple(sorted(tuple(sorted(c, key=lambda l: (abs(l), -l))) for c in PHI0.clauses))
        assert any(f.clauses == canon for f in enumerate_clean_formulas(2))

    def test_all_enumerated_formulas_are_clean(self):
        for n in (2, 3):
            for phi in enumerate_clean_formulas(n):
                assert not validate_clean(phi.n, phi.clauses)

    def test_small_formulas_are_satisfiable(self):
        # a clause over |C| of n variables excludes exactly 2^(n-|C|)
        # assignments; for n <= 3 the exclusions can never cover all 2^n
        for n in (2, 3):
            assert all(brute_force_sat(f) is not None for f in enumerate_clean_formulas(n))


class TestBaseConstruction:
    def test_phi0_counts(self):
        inst = build_base(PHI0)
        assert inst.graph.n == 14
        assert inst.graph.m == 17
        assert inst.threshold == 13

    def test_every_clause_vertex_has_one_cross_edge(self):
        inst = build_base(PHI0)
        b_vertices = [v for v, tag in inst.roles.items() if role_kind(tag) == "b"]
        assert len(b_vertices) == 6
        a_vertices = {v for v, tag in inst.roles.items() if role_kind(tag) == "a"}
        for b in b_vertices:
            cross = [w for w in inst.graph.adj[b] if w in a_vertices]
            assert len(cross) == 1

    def test_variable_blocks_are_cycles(self):
        inst = build_base(PHI0)
        for var in range(PHI0.n):
            block = list(range(4 * var, 4 * var + 4))
            sub, _ = induced_subgraph(inst.graph, block)
            assert sub.m == 4 and all(sub.degree(v) == 2 for v in range(4))


class TestDoubleCopyConstruction:
    def test_phi0_c4_counts(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        assert inst.graph.n == 112
        assert inst.graph.m == 166
        assert inst.threshold == 13

    def test_role_census(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        kinds = defaultdict(int)
        for tag in inst.roles.values():
            kinds[role_kind(tag)] += 1
        n, total_lits = PHI0.n, sum(len(c) for c in PHI0.clauses)
        assert kinds["a"] == 3 * n
        assert kinds["a-dummy"] == n
        assert kinds["b"] == total_lits
        assert kinds["base"] == 3 * n  # one per cross copy
        assert kinds["pendant-root"] == 3 * n
        copies = inst.meta["copies"]
        assert sum(1 for c in copies if c["kind"] == "ab") == 3 * n
        assert sum(1 for c in copies if c["kind"] == "pendant") == 6 * n

    def test_internal_degrees(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        g = inst.graph
        for v, tag in inst.roles.items():
            kind = role_kind(tag)
            if kind in ("internal-a", "internal-b", "internal-ab"):
                assert g.degree(v) == 2, (v, tag)
            elif kind == "base":
                # cycle internal plus the pendant edge
                assert g.degree(v) == 3, (v, tag)
            elif kind == "pendant-root":
                # identified vertex of two pattern copies plus the pendant edge
                assert g.degree(v) == 5, (v, tag)

    def test_pendant_edges_bridge_base_to_root(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        for z, s in inst.meta["pendant_edges"]:
            tags = {role_kind(inst.roles[z]), role_kind(inst.roles[s])}
            assert tags == {"base", "pendant-root"}

    def test_determinism(self):
        a = build_double_copy_instance(PHI0, cycle_graph(4))
        b = build_double_copy_instance(PHI0, cycle_graph(4))
        assert serialize_graph(a.graph) == serialize_graph(b.graph)
        assert serialize_roles(a) == serialize_roles(b)

    def test_rejects_bad_patterns(self):
        with pytest.raises(ValueError):
            build_double_copy_instance(PHI0, complete_graph(4))  # complete
        with pytest.raises(ValueError):
            build_double_copy_instance(PHI0, path_graph(4))  # not 2-connected

    def test_default_attachment_pair(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        assert (inst.meta["u"], inst.meta["v"]) == (0, 2)

    def test_degree_bound(self):
        pattern = cycle_graph(4)
        inst = build_double_copy_instance(PHI0, pattern)
        max_deg = max(inst.graph.degree(v) for v in range(inst.graph.n))
        assert max_deg <= 5 * max(pattern.degree(v) for v in range(pattern.n))

    def test_threshold_lower_bound(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        assert feedback_vertex_set(inst.graph)[0] >= inst.threshold


def surviving_copy_count(inst, contracted_edge) -> int:
    """Vertex-disjoint intact pattern copies in the quotient: two per
    variable gadget plus one per pendant pair."""
    res = contract_set(inst.graph, [contracted_edge])
    used: set[int] = set()

    def intact(copy) -> bool:
        classes = {res.vmap[v] for v in copy["vertices"]}
        return len(classes) == len(copy["vertices"]) and not (classes & used)

    def claim(copy) -> None:
        used.update(res.vmap[v] for v in copy["vertices"])

    count = 0
    by_attach = defaultdict(list)
    for c in inst.meta["copies"]:
        if c["kind"] in ("a", "pendant"):
            by_attach[(c["kind"], c["attach"])].append(c)
    n = inst.meta["formula"].n
    for var in range(n):
        ids = [4 * var + i for i in range(4)]
        for slot in ((ids[0], ids[1]), (ids[2], ids[3])):
            key = ("a", (min(slot), max(slot)))
            good = [c for c in by_attach[("a", key[1])] if intact(c)]
            if good:
                claim(good[0])
                count += 1
    for key, pair in by_attach.items():
        if key[0] != "pendant":
            continue
        good = [c for c in pair if intact(c)]
        if good:
            claim(good[0])
            count += 1
    return count


class TestDoubleCopyRobustness:
    def test_every_contraction_leaves_disjoint_copies(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        n = PHI0.n
        rng = random.Random(99)
        edges = inst.graph.sorted_edges()
        sample = rng.sample(edges, 25) + inst.meta["pendant_edges"]
        for e in sample:
            assert surviving_copy_count(inst, e) >= 5 * n, e


class TestSubdividedClique:
    def test_equals_double_copy_with_subdivided_pattern(self):
        via_clique = build_subdivided_clique_instance(PHI0, 3)
        direct = build_double_copy_instance(PHI0, subdivide_edges(complete_graph(3)))
        assert serialize_graph(via_clique.graph) == serialize_graph(direct.graph)
        assert serialize_roles(via_clique) == serialize_roles(direct)

    def test_pattern_is_six_cycle(self):
        pattern = subdivide_edges(complete_graph(3))
        assert pattern.n == 6 and pattern.m == 6
        assert all(pattern.degree(v) == 2 for v in range(6))

    def test_rejects_small_clique(self):
        with pytest.raises(ValueError):
            build_subdivided_clique_instance(PHI0, 2)


class TestPathConstruction:
    def test_even_structure(self):
        inst = build_path_instance(PHI0, 4)
        assert inst.graph.n == 87
        assert inst.threshold == 13
        kinds = defaultdict(int)
        for tag in inst.roles.values():
            kinds[role_kind(tag)] += 1
        assert kinds["attach"] == 14  # one pendant vertex per base vertex
        assert kinds["internal-a"] == 8
        assert kinds["internal-b"] == 3
        assert kinds["base"] == 6  # the sole interior vertex of each cross path
        assert kinds["pendant-root"] == 6
        assert kinds["pendant"] == 6 * 6  # two arms of three vertices each

    def test_odd_structure(self):
        inst = build_path_instance(PHI0, 5)
        kinds = defaultdict(int)
        for tag in inst.roles.values():
            kinds[role_kind(tag)] += 1
        assert kinds["attach"] == 28  # paths on three vertices: two fresh each
        assert kinds["internal-a"] == 8
        assert kinds["pendant"] == 6 * 8

    def test_pendant_root_degree(self):
        inst = build_path_instance(PHI0, 4)
        for z, s in inst.meta["pendant_edges"]:
            assert inst.graph.degree(s) == 3  # two arm ends plus pendant edge
            assert inst.graph.degree(z) == 3

    def test_rejects_short_paths(self):
        with pytest.raises(ValueError):
            build_path_instance(PHI0, 3)

    def test_matches_reference(self):
        formulas = [phi for n in (1, 2) for phi in enumerate_clean_formulas(n)]
        assert len(formulas) == 8
        for phi in formulas:
            for path_len in range(4, 9):
                new = build_path_instance(phi, path_len)
                old = _reference_build_path_instance(phi, path_len)
                assert serialize_graph(new.graph) == serialize_graph(old.graph)
                assert serialize_roles(new) == serialize_roles(old)
                assert new.meta == old.meta


class TestVerifyClaims:
    def test_phi0_report(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        report = verify_claims(inst)
        assert report.sat and report.tau == 13 and report.threshold == 13
        assert report.lower_bound_ok
        assert report.claim1 == "pass"
        assert report.claim2 == "pass"
        assert report.claim3 == "not-applicable"
        assert report.scan_mode == "full" and report.scanned_edges == inst.graph.m

    def test_sampled_scan(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        report = verify_claims(inst, sample_edges=10)
        assert report.claim2 == "pass" and report.scan_mode.startswith("sample:")
        assert report.scanned_edges <= 10

    def test_claim_three_above_the_threshold(self):
        unsat = next(phi for phi in enumerate_clean_formulas(4) if brute_force_sat(phi) is None)
        inst = build_double_copy_instance(unsat, cycle_graph(4))
        report = verify_claims(inst)
        assert not report.sat and report.tau > report.threshold
        assert report.claim1 == "pass" and report.claim3 == "pass"
        assert report.claim2 == "not-applicable"
        assert report.scan_mode == "none" and report.scanned_edges == 0
        assert report.dropping_edge == find_dropping_edge(inst.graph, HitFamily.feedback_vertex_set())
        assert report.dropping_edge is not None

    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_edges_below_one(self, count):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        with pytest.raises(ValueError, match="at least 1"):
            verify_claims(inst, sample_edges=count)

    def test_sample_edges_and_full_scan_exclude_each_other(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        with pytest.raises(ValueError, match="mutually exclusive"):
            verify_claims(inst, sample_edges=5, full_scan=True)

    def test_default_family_selection(self):
        assert default_family(build_double_copy_instance(PHI0, cycle_graph(4))).patterns == "all-cycles"
        assert default_family(build_subdivided_clique_instance(PHI0, 3)).patterns == "all-cycles"
        fam = default_family(build_path_instance(PHI0, 4))
        assert not fam.symbolic and fam.patterns[0].n == 4

    @pytest.mark.parametrize("build,pattern", [
        (lambda: build_double_copy_instance(PHI0, cycle_graph(5)), cycle_graph(5)),
        (lambda: build_subdivided_clique_instance(PHI0, 4), subdivide_edges(complete_graph(4))),
    ])
    def test_default_family_is_explicit_for_other_patterns(self, build, pattern):
        fam = default_family(build())
        assert (fam.relation, fam.patterns) == ("subgraph", (pattern,))

    def test_default_family_refuses_the_base_graph(self):
        with pytest.raises(ValueError, match="no verification family for construction 'base'"):
            default_family(build_base(PHI0))

    def test_report_lines(self):
        inst = build_double_copy_instance(PHI0, cycle_graph(4))
        lines = verify_claims(inst, sample_edges=5).as_lines()
        assert "sat=true" in lines and "tau=13" in lines and "claim1=pass" in lines

    def test_report_lines_name_the_dropping_and_failing_edges(self):
        report = ClaimReport(False, None, 5, 4, True, "fail", "fail", "pass", 3, "full", (0, 2), (1, 5))
        assert report.as_lines()[-2:] == ["dropping_edge=0-2", "failing_edge=1-5"]


class TestRoleFile:
    def test_format(self):
        inst = build_base(PHI0)
        lines = serialize_roles(inst).splitlines()
        assert len(lines) == inst.graph.n
        idx, tag = lines[0].split(" ", 1)
        assert idx == "0" and tag == inst.roles[0]


def _same_instance(new: GadgetInstance, old: GadgetInstance) -> None:
    assert serialize_graph(new.graph) == serialize_graph(old.graph)
    assert serialize_roles(new) == serialize_roles(old)
    assert list(new.meta.items()) == list(old.meta.items())
    assert new.threshold == old.threshold
    assert default_family(new) == default_family(old)


class TestReferenceBuilders:
    """Every builder against its reference copy on 33 formulas (all 8 with
    n = 2, the first 25 with n = 3) and 15 gadgets each: 495 instances."""

    FORMULAS = list(enumerate_clean_formulas(2)) + list(islice(enumerate_clean_formulas(3), 25))
    PATTERNS = (
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),  # K2,3
        subdivide_edges(complete_graph(4)),
    )

    def test_formula_set(self):
        assert len(self.FORMULAS) == 33 and {phi.n for phi in self.FORMULAS} == {2, 3}

    @pytest.mark.parametrize("pattern", PATTERNS, ids=["c4", "c5", "c6", "k23", "sub-k4"])
    def test_double_copy(self, pattern):
        for phi in self.FORMULAS:
            _same_instance(
                build_double_copy_instance(phi, pattern),
                _reference_build_double_copy_instance(phi, pattern),
            )

    @pytest.mark.parametrize("size", (3, 4, 5))
    def test_subdivided_clique(self, size):
        for phi in self.FORMULAS:
            old = _reference_build_double_copy_instance(phi, subdivide_edges(complete_graph(size)))
            old.meta.update(construction="subdivided-clique", clique_size=size)
            _same_instance(build_subdivided_clique_instance(phi, size), old)

    @pytest.mark.parametrize("path_len", range(4, 11))
    def test_path(self, path_len):
        for phi in self.FORMULAS:
            _same_instance(
                build_path_instance(phi, path_len), _reference_build_path_instance(phi, path_len)
            )

    def test_refusals_match(self):
        for pattern, message in ((complete_graph(4), "must not be complete"), (path_graph(4), "2-connected")):
            for build in (build_double_copy_instance, _reference_build_double_copy_instance):
                with pytest.raises(ValueError, match=message):
                    build(PHI0, pattern)
