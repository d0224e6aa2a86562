"""Clean 3-SAT handling and deterministic hardness-instance generators.

A clean formula has every variable occurring exactly three times, with both
signs present, in clauses of two or three distinct variables.  The builders
turn such a formula into a graph whose hitting number equals 8n - m exactly
when the formula is satisfiable; the claim verifier checks that equivalence
and the edge-contraction behavior around it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product

from .graphs import (
    Edge,
    Graph,
    complete_graph,
    is_two_connected,
    path_graph,
    subdivide_edges,
)
from .transversal import HitFamily, first_dropping_edge, hitting_number

Literal = int  # +v / -v for 1-based variable v
Clause = tuple[Literal, ...]


class CleanFormulaError(ValueError):
    """Validation failure; ``violations`` lists every broken condition."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class CleanFormula:
    n: int
    clauses: tuple[Clause, ...]

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def threshold(self) -> int:
        return 8 * self.n - self.m


def validate_clean(n: int, clauses) -> list[str]:
    """All violated cleanliness conditions, empty when the formula is clean."""
    violations: list[str] = []
    if n < 1:
        violations.append("formula must have at least one variable")
    counts = {v: [0, 0] for v in range(1, n + 1)}  # [positive, negative]
    for idx, clause in enumerate(clauses, start=1):
        if len(clause) not in (2, 3):
            violations.append(f"clause {idx} has {len(clause)} literals, need 2 or 3")
        seen_vars: set[int] = set()
        for lit in clause:
            v = abs(lit)
            if lit == 0 or v > n:
                violations.append(f"clause {idx} has out-of-range literal {lit}")
                continue
            if v in seen_vars:
                violations.append(f"clause {idx} repeats variable {v}")
            seen_vars.add(v)
            counts[v][0 if lit > 0 else 1] += 1
    for v in range(1, n + 1):
        pos, neg = counts[v]
        if pos + neg != 3:
            violations.append(f"variable {v} occurs {pos + neg} times, need exactly 3")
        if pos == 0:
            violations.append(f"variable {v} never occurs positively")
        if neg == 0:
            violations.append(f"variable {v} never occurs negatively")
    return violations


def clean_formula(n: int, clauses) -> CleanFormula:
    clauses = tuple(tuple(c) for c in clauses)
    violations = validate_clean(n, clauses)
    if violations:
        raise CleanFormulaError(violations)
    return CleanFormula(n, clauses)


def _cnf_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CleanFormulaError([f"non-integer {what} {tok!r}"]) from None


def parse_cnf(text: str) -> CleanFormula:
    """DIMACS CNF parser with clean validation."""
    n = m = None
    clauses: list[Clause] = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CleanFormulaError([f"bad problem line {line!r}"])
            n, m = _cnf_int(parts[2], "header field"), _cnf_int(parts[3], "header field")
            continue
        if n is None:
            raise CleanFormulaError(["clause before 'p cnf' line"])
        for tok in line.split():
            lit = _cnf_int(tok, "literal")
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if n is None:
        raise CleanFormulaError(["missing 'p cnf' line"])
    if current:
        raise CleanFormulaError(["unterminated final clause (missing 0)"])
    if len(clauses) != m:
        raise CleanFormulaError([f"header announced {m} clauses, found {len(clauses)}"])
    literals = sum(map(len, clauses))
    if n > literals:  # validation lists three violations per absent variable
        raise CleanFormulaError([f"header announced {n} variables, found {literals} literals"])
    return clean_formula(n, clauses)


def brute_force_sat(phi: CleanFormula) -> tuple[bool, ...] | None:
    """First satisfying assignment in mask order, or None."""
    for mask in range(1 << phi.n):
        values = tuple(bool(mask >> i & 1) for i in range(phi.n))
        ok = True
        for clause in phi.clauses:
            if not any(values[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return values
    return None


def enumerate_clean_formulas(n: int):
    """Every clean formula on n variables, one per clause multiset; none for n < 1."""
    if n < 1:
        return
    sizes = []
    for threes in range(n + 1):
        rest = 3 * n - 3 * threes
        if rest % 2 == 0:
            sizes.append((threes, rest // 2))

    variables = list(range(1, n + 1))
    degree3 = Counter({v: 3 for v in variables})
    seen: set[tuple[Clause, ...]] = set()

    def var_sets(threes: int, twos: int):
        """Non-decreasing clause var-set sequences with every degree 3."""
        for big in combinations_with_replacement(combinations(variables, 3), threes):
            for small in combinations_with_replacement(combinations(variables, 2), twos):
                if Counter(v for c in big + small for v in c) == degree3:
                    yield big + small

    for threes, twos in sizes:
        for structure in var_sets(threes, twos):
            slots = [(ci, v) for ci, clause_vars in enumerate(structure) for v in clause_vars]
            for signbits in product((1, -1), repeat=len(slots)):
                per_var: dict[int, set[int]] = {v: set() for v in variables}
                for (ci, v), s in zip(slots, signbits):
                    per_var[v].add(s)
                if any(len(s) != 2 for s in per_var.values()):
                    continue
                lits: list[list[int]] = [[] for _ in structure]
                for (ci, v), s in zip(slots, signbits):
                    lits[ci].append(s * v)
                canon = tuple(sorted(tuple(sorted(c, key=lambda l: (abs(l), -l))) for c in lits))
                if canon in seen:
                    continue
                seen.add(canon)
                yield clean_formula(n, canon)


# -- gadget construction ------------------------------------------------------


@dataclass(frozen=True)
class GadgetInstance:
    graph: Graph
    roles: dict[int, str]
    threshold: int
    meta: dict = field(compare=False)


class _Builder:
    def __init__(self):
        self.next_id = 0
        self.edges: list[Edge] = []
        self.roles: dict[int, str] = {}

    def vertex(self, role: str) -> int:
        v = self.next_id
        self.next_id += 1
        self.roles[v] = role
        return v

    def edge(self, u: int, v: int) -> None:
        self.edges.append((min(u, v), max(u, v)))

    def graph(self) -> Graph:
        return Graph.from_edges(self.next_id, self.edges)


def _base_layout(phi: CleanFormula, builder: _Builder):
    """A/B vertex blocks plus the categorized base edges.

    Per variable, the four cycle vertices are the two majority-sign
    occurrences (clause order) in positions 1 and 3, the minority occurrence
    in position 2, and the dummy in position 4; the cycle edges run
    1-2, 2-3, 3-dummy, dummy-1.  B vertices follow per clause in literal
    order, forming a clique per clause; each occurrence contributes one
    cross edge.
    """
    occ_by_var: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, phi.n + 1)}
    for ci, clause in enumerate(phi.clauses):
        for lit in clause:
            occ_by_var[abs(lit)].append((ci, lit))

    a_of_occ: dict[tuple[int, int], int] = {}
    a_edges: list[Edge] = []
    for var in range(1, phi.n + 1):
        occs = occ_by_var[var]
        majority = 1 if sum(1 for _, lit in occs if lit > 0) == 2 else -1
        majors = [o for o in occs if (1 if o[1] > 0 else -1) == majority]
        minors = [o for o in occs if (1 if o[1] > 0 else -1) != majority]
        ordered = [majors[0], minors[0], majors[1]]
        ids = []
        for ci, lit in ordered:
            v = builder.vertex(f"a:c{ci}:l{lit}")
            a_of_occ[(ci, lit)] = v
            ids.append(v)
        dummy = builder.vertex(f"a-dummy:v{var}")
        ids.append(dummy)
        for i in range(4):
            a_edges.append((min(ids[i], ids[(i + 1) % 4]), max(ids[i], ids[(i + 1) % 4])))

    b_of_occ: dict[tuple[int, int], int] = {}
    b_edges: list[Edge] = []
    for ci, clause in enumerate(phi.clauses):
        ids = []
        for lit in clause:
            v = builder.vertex(f"b:c{ci}:l{lit}")
            b_of_occ[(ci, lit)] = v
            ids.append(v)
        for x, y in combinations(ids, 2):
            b_edges.append((min(x, y), max(x, y)))

    ab_edges: list[Edge] = []
    for ci, clause in enumerate(phi.clauses):
        for lit in clause:
            u, v = a_of_occ[(ci, lit)], b_of_occ[(ci, lit)]
            ab_edges.append((min(u, v), max(u, v)))

    return a_edges, b_edges, ab_edges


def build_base(phi: CleanFormula) -> GadgetInstance:
    """The plain variable-cycle / clause-clique / cross-edge graph."""
    b = _Builder()
    a_edges, b_edges, ab_edges = _base_layout(phi, b)
    for e in a_edges + b_edges + ab_edges:
        b.edge(*e)
    return GadgetInstance(
        b.graph(),
        b.roles,
        phi.threshold,
        {"formula": phi, "construction": "base"},
    )


def _first_nonadjacent_pair(h: Graph) -> tuple[int, int]:
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if not h.has_edge(u, v):
                return u, v
    raise ValueError("pattern must not be complete")


def _place_copy(builder: _Builder, h: Graph, ends: dict[int, int], role: str) -> list[int]:
    """Instantiate a copy of h with some vertices identified via ``ends``;
    fresh internals are created in ascending pattern order."""
    image = dict(ends)
    for pv in range(h.n):
        if pv not in image:
            image[pv] = builder.vertex(role)
    for x, y in h.sorted_edges():
        builder.edge(image[x], image[y])
    return [image[pv] for pv in range(h.n)]


def build_double_copy_instance(phi: CleanFormula, pattern: Graph) -> GadgetInstance:
    """Replace same-side base edges by two copies of the pattern glued at
    its first non-adjacent pair u, v in index order, cross edges by one copy,
    and hang a doubled pendant copy from each cross copy's base vertex."""
    if not is_two_connected(pattern):
        raise ValueError("pattern must be 2-connected")
    u, v = _first_nonadjacent_pair(pattern)

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
    pendant_edges: list[Edge] = []
    for copy in [c for c in copies if c["kind"] == "ab"]:
        z = min(set(copy["vertices"]) - set(copy["attach"]))
        b.roles[z] = f"base:copy{copy['seq']}"
        copy["base"] = z
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


def build_subdivided_clique_instance(phi: CleanFormula, clique_size: int) -> GadgetInstance:
    """The clique variant: the pattern is the clique with every edge
    subdivided once, glued at its first non-adjacent pair, clique vertices
    0 and 1."""
    if clique_size < 3:
        raise ValueError("clique size must be at least 3")
    inst = build_double_copy_instance(phi, subdivide_edges(complete_graph(clique_size)))
    inst.meta.update(construction="subdivided-clique", clique_size=clique_size)
    return inst


def build_path_instance(phi: CleanFormula, path_len: int) -> GadgetInstance:
    """The path variant for a path pattern on i = path_len >= 4 vertices.

    Same-side base edges become paths of i // 2 + 1 vertices, every base A/B
    vertex gets an attached path of (i + 1) // 2 vertices, and cross edges
    become three-vertex paths whose middle vertex carries two pendant paths
    of i vertices from one root.
    """
    i = path_len
    if i < 4:
        raise ValueError("path pattern needs at least 4 vertices")
    replaced, cross, attached, pendant = (path_graph(c) for c in (i // 2 + 1, 3, (i + 1) // 2, i))

    b = _Builder()
    a_edges, b_edges, ab_edges = _base_layout(phi, b)
    n_base = b.next_id

    for edge_list, role in ((a_edges, "internal-a"), (b_edges, "internal-b")):
        for x, y in edge_list:
            _place_copy(b, replaced, {0: x, replaced.n - 1: y}, role)

    bases: list[int] = []
    for x, y in ab_edges:
        z = _place_copy(b, cross, {0: x, 2: y}, "internal-ab")[1]
        b.roles[z] = "base"
        bases.append(z)

    for v in range(n_base):
        _place_copy(b, attached, {0: v}, "attach")

    pendant_edges: list[Edge] = []
    for z in bases:
        s = b.vertex("pendant-root")
        _place_copy(b, pendant, {0: s}, "pendant")
        _place_copy(b, pendant, {0: s}, "pendant")
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


def serialize_roles(inst: GadgetInstance) -> str:
    lines = [f"{v} {inst.roles[v]}" for v in range(inst.graph.n)]
    return "\n".join(lines) + "\n"


def default_family(inst: GadgetInstance) -> HitFamily:
    """The hitting family the instance was built against."""
    kind = inst.meta["construction"]
    if kind == "double-copy":
        pattern = inst.meta["pattern"]
        if pattern.n == 4 and pattern.m == 4 and all(pattern.degree(x) == 2 for x in range(4)):
            return HitFamily.feedback_vertex_set()  # four-cycle stands in for all cycles
        return HitFamily.explicit([pattern], "subgraph")
    if kind == "subdivided-clique":
        if inst.meta["clique_size"] == 3:
            return HitFamily.feedback_vertex_set()  # triangle minors are exactly cycles
        return HitFamily.explicit([inst.meta["pattern"]], "subgraph")
    if kind == "path":
        return HitFamily.explicit([path_graph(inst.meta["path_len"])], "subgraph")
    raise ValueError(f"no verification family for construction {kind!r}")


@dataclass
class ClaimReport:
    sat: bool
    assignment: tuple | None
    tau: int
    threshold: int
    lower_bound_ok: bool
    claim1: str
    claim2: str
    claim3: str
    scanned_edges: int
    scan_mode: str
    dropping_edge: Edge | None
    failing_edge: Edge | None

    def as_lines(self) -> list[str]:
        rows = [
            ("sat", str(self.sat).lower()),
            ("tau", str(self.tau)),
            ("threshold", str(self.threshold)),
            ("lower_bound_ok", str(self.lower_bound_ok).lower()),
            ("claim1", self.claim1),
            ("claim2", self.claim2),
            ("claim3", self.claim3),
            ("scanned_edges", str(self.scanned_edges)),
            ("scan_mode", self.scan_mode),
        ]
        if self.dropping_edge is not None:
            rows.append(("dropping_edge", f"{self.dropping_edge[0]}-{self.dropping_edge[1]}"))
        if self.failing_edge is not None:
            rows.append(("failing_edge", f"{self.failing_edge[0]}-{self.failing_edge[1]}"))
        return [f"{k}={v}" for k, v in rows]


def verify_claims(
    inst: GadgetInstance,
    fam: HitFamily | None = None,
    sample_edges: int | None = None,
    full_scan: bool = False,
) -> ClaimReport:
    """Check the satisfiability/threshold equivalence and the contraction
    behavior of a built instance.

    When the hitting number equals the threshold, no single contraction may
    lower it (scanned over all edges, or an evenly spaced sample on demand);
    when it exceeds the threshold, some contraction must lower it.
    """
    if sample_edges is not None and sample_edges < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_edges}")
    phi: CleanFormula = inst.meta["formula"]
    if fam is None:
        fam = default_family(inst)
    assignment = brute_force_sat(phi)
    sat = assignment is not None

    tau = hitting_number(inst.graph, fam)
    threshold = inst.threshold
    lower_bound_ok = tau >= threshold
    claim1 = "pass" if (tau == threshold) == sat else "fail"

    claim2 = "not-applicable"
    claim3 = "not-applicable"
    scanned = 0
    scan_mode = "none"
    dropping = None
    failing = None
    edges = inst.graph.sorted_edges()
    if tau == threshold:
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
            failing = first_dropping_edge(inst.graph, fam, scan, tau)
            claim2 = "pass" if failing is None else "fail"
            scanned = len(scan) if failing is None else scan.index(failing) + 1
    else:
        dropping = first_dropping_edge(inst.graph, fam, edges, tau)
        claim3 = "pass" if dropping is not None else "fail"

    return ClaimReport(
        sat,
        assignment,
        tau,
        threshold,
        lower_bound_ok,
        claim1,
        claim2,
        claim3,
        scanned,
        scan_mode,
        dropping,
        failing,
    )
