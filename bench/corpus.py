"""Seeded query corpora for the three workloads.

``build(workload, seed, directory)`` generates one corpus: the text of its
input files, which ``Corpus.write`` puts into ``directory``, and its
queries.  The seed drives every random choice; instance
sizes are fixed by the position of a query in the corpus, so two seeds
give corpora of the same shape and differ only in the random graphs and
formulas.  Each query carries a check that compares the CLI's stdout with
an answer from ``oracle`` and certifies any witness it prints.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import oracle

WORKLOADS = ("vc-enumerate", "odd-dense", "gadget-verify")

# The first unsatisfiable clean formula on four variables in the library's
# enumeration order; its claim-3 scan is the heaviest single query.
UNSAT_FORMULA = (4, ((-3, -4), (-3, 4), (-1, 3), (1, -2), (1, 2), (2, 4)))


@dataclass
class Query:
    argv: list[str]
    label: str  # argv with bare file names, stable across input directories
    check: Callable[[str], str | None]  # stdout -> error message, None when correct


@dataclass
class Corpus:
    queries: list[Query]
    input_sha256: str
    files: list[tuple[str, str]]  # (path, text) of every input file

    def write(self) -> None:
        for path, text in self.files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


class _Inputs:
    """Collects input files and hashes their names and contents in order."""

    def __init__(self, directory: str):
        self.directory = directory
        self.digest = hashlib.sha256()
        self.files: list[tuple[str, str]] = []

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.directory, name)
        self.files.append((path, text))
        self.digest.update(f"{name}\n{text}".encode())
        return path

    def graph(self, name: str, n: int, edges) -> str:
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
        return self._write(name, "\n".join(lines) + "\n")

    def cnf(self, name: str, nvars: int, clauses) -> str:
        lines = [f"p cnf {nvars} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
        return self._write(name, "\n".join(lines) + "\n")

    def query(self, argv: list[str], check) -> Query:
        label = " ".join(argv).replace(self.directory + os.sep, "")
        self.digest.update(label.encode() + b"\n")
        return Query(argv, label, check)


def _once(fn):
    """Memoise a zero-argument oracle so repeated checks pay for it once."""
    box: list = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _parse_edges(line: str) -> list[tuple[int, int]] | None:
    out = []
    for tok in line.split():
        parts = tok.split("-")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            return None
        u, v = int(parts[0]), int(parts[1])
        out.append((min(u, v), max(u, v)))
    return out


def _parse_int_and_set(out: str) -> tuple[int, list[int]] | None:
    lines = out.splitlines()
    if not lines or not lines[0].isdigit():
        return None
    size = int(lines[0])
    picks = [int(t) for t in lines[1].split()] if len(lines) > 1 else []
    return size, picks


# -- query kinds ----------------------------------------------------------------


def _contract_vc(inp: _Inputs, name, n, edges, k, d, expected, cover_number, witness=True) -> Query:
    """``expected`` is a bool or a zero-argument oracle, ``cover_number`` a
    zero-argument function giving the cover number of the graph.  With
    ``witness`` the query asks for the contracted edges, and a YES witness
    is certified to lower the cover number by d; without, the answer must
    be the only line."""
    path = inp.graph(name, n, edges)
    edge_set = set(edges)
    want = expected if callable(expected) else (lambda: expected)

    def check(out: str) -> str | None:
        lines = out.splitlines()
        first = lines[0] if lines else ""
        if first != ("YES" if want() else "NO"):
            return f"answer {first!r}, expected {'YES' if want() else 'NO'}"
        if not witness:
            return None if len(lines) == 1 else f"{len(lines)} lines without --witness"
        if first == "NO":
            return None
        wit = _parse_edges(lines[1]) if len(lines) > 1 else None
        if not wit:
            return "YES without a witness"
        if not set(wit) <= edge_set:
            return f"witness edge not in graph: {lines[1]}"
        if len(set(wit)) > k:
            return f"witness has {len(set(wit))} edges, budget {k}"
        after = oracle.vertex_cover_number(*oracle.quotient(n, edges, wit))
        if after > cover_number() - d:
            return f"witness lowers the cover number only to {after}"
        return None

    argv = ["contract-vc", path, "-k", str(k), "-d", str(d)] + (["--witness"] if witness else [])
    return inp.query(argv, check)


def _bc(inp: _Inputs, path, n, edges, k, expected: bool) -> Query:
    edge_set = set(edges)

    def check(out: str) -> str | None:
        lines = out.splitlines()
        first = lines[0] if lines else ""
        if first != ("YES" if expected else "NO"):
            return f"answer {first!r}, expected {'YES' if expected else 'NO'}"
        if first == "NO":
            return None
        wit = _parse_edges(lines[1]) if len(lines) > 1 else []
        if wit is None or not set(wit) <= edge_set or len(wit) > k:
            return f"bad witness {lines[1:]!r}"
        if not oracle.is_bipartite(*oracle.quotient(n, edges, wit)):
            return "quotient of the witness is not bipartite"
        return None

    return inp.query(["bc", path, "--max", str(k)], check)


def _tau(inp: _Inputs, argv, n, edges, remainder_ok, minimum) -> Query:
    """Hitting-number query: the printed set must leave a remainder that
    passes ``remainder_ok`` and its size must equal the oracle ``minimum``."""

    def check(out: str) -> str | None:
        parsed = _parse_int_and_set(out)
        if parsed is None:
            return f"unparsable output {out[:40]!r}"
        size, picks = parsed
        if len(set(picks)) != size or not all(0 <= v < n for v in picks):
            return f"printed set {picks} does not match size {size}"
        if not remainder_ok(frozenset(picks)):
            return "remainder still contains an occurrence"
        if size != minimum():
            return f"size {size}, oracle minimum {minimum()}"
        return None

    return inp.query(argv, check)


def _verify_claims(inp: _Inputs, name, nvars, clauses, extra, scan) -> Query:
    """``scan`` is the expected scan of the at-threshold edge check: "full",
    "sample" or "skipped".  tau = 8n - m exactly when the bench-local SAT
    oracle finds the formula satisfiable."""
    path = inp.cnf(name, nvars, clauses)
    threshold = 8 * nvars - len(clauses)
    sat = _once(lambda: oracle.satisfiable(nvars, clauses))

    def check(out: str) -> str | None:
        rep = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        want = {
            "sat": str(sat()).lower(),
            "threshold": str(threshold),
            "lower_bound_ok": "true",
            "claim1": "pass",
            "claim2": ("skipped" if scan == "skipped" else "pass") if sat() else "not-applicable",
            "claim3": "not-applicable" if sat() else "pass",
        }
        for key, value in want.items():
            if rep.get(key) != value:
                return f"{key}={rep.get(key)}, expected {value}"
        tau = int(rep.get("tau", "-1"))
        if (tau == threshold) != sat() or tau < threshold:
            return f"tau={tau} against threshold {threshold} with sat={sat()}"
        mode = rep.get("scan_mode", "")
        if sat() and not mode.startswith(scan):
            return f"scan_mode={mode}, expected {scan}"
        if not sat() and "dropping_edge" not in rep:
            return "claim 3 passed without a dropping edge"
        return None

    return inp.query(["verify-claims", path, *extra], check)


# -- random instances -------------------------------------------------------------


def _connected_bipartite(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random spanning tree with alternating sides, plus ``extra`` cross
    edges, so the edge count and with it the enumeration size is fixed."""
    side = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        side[v] = 1 - side[u]
        edges.add((u, v))
    cross = [e for e in combinations(range(n), 2) if side[e[0]] != side[e[1]] and e not in edges]
    edges.update(rng.sample(cross, min(extra, len(cross))))
    return sorted(edges)


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _rename(rng: random.Random, nvars: int, clauses):
    """The formula with its variables permuted and each one's sign flipped
    at random; it stays clean, and satisfiable when the original is."""
    perm = list(range(1, nvars + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(nvars)]
    return [tuple((1 if l > 0 else -1) * sign[abs(l) - 1] * perm[abs(l) - 1] for l in c) for c in clauses]


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [e for e in combinations(range(n), 2) if rng.random() < p]


def _planted(rng: random.Random, n: int, p: float, t: int):
    """Random bipartite graph with sides of n // 2 and n - n // 2 vertices
    and a share p of the cross pairs as edges, plus t edges inside the
    sides.  Contracting the t planted edges only merges same-side vertices,
    so the bipartite contraction number is at most t.  The sizes are fixed,
    so two seeds give graphs of the same size."""
    side = [i % 2 for i in range(n)]
    rng.shuffle(side)
    pairs = [e for e in combinations(range(n), 2) if side[e[0]] != side[e[1]]]
    cross = set(rng.sample(pairs, round(p * len(pairs))))
    planted = rng.sample([e for e in combinations(range(n), 2) if side[e[0]] == side[e[1]]], t)
    return sorted(cross | set(planted))


def _clean_formula(rng: random.Random, nvars: int):
    """Random clean formula: every variable three times with both signs, in
    nvars - 2 clauses of three distinct variables and three of two.  The
    clause count is fixed, so the gadget graphs of two seeds have the same
    size and their queries cost about the same."""
    while True:
        sizes = [3] * (nvars - 2) + [2] * 3
        rng.shuffle(sizes)
        slots = [v for v in range(1, nvars + 1) for _ in range(3)]
        rng.shuffle(slots)
        clauses, pos = [], 0
        for size in sizes:
            clauses.append(slots[pos : pos + size])
            pos += size
        if any(len(set(c)) != len(c) for c in clauses):
            continue
        signs = {}
        for v in range(1, nvars + 1):
            s = [1, 1, -1] if rng.random() < 0.5 else [1, -1, -1]
            rng.shuffle(s)
            signs[v] = s
        return [tuple(v * signs[v].pop() for v in c) for c in clauses]


def _sat_formula(rng: random.Random, nvars: int):
    """Satisfiable clean formulas only: an unsatisfiable one triggers the
    claim-3 edge scan, which costs seconds and would make the corpus cost
    depend on the seed.  The unsatisfiable case is the pinned formula."""
    while True:
        clauses = _clean_formula(rng, nvars)
        if oracle.satisfiable(nvars, clauses):
            return clauses


def _cycle(n: int):
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def _grid(rows: int, cols: int):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return sorted(edges)


def _spread(light: list[Query], heavy: list[Query]) -> list[Query]:
    """Interleave heavy queries evenly among light ones, light query first."""
    out: list[Query] = []
    step = max(1, len(light) // max(1, len(heavy)))
    pending = list(heavy)
    for i, q in enumerate(light):
        out.append(q)
        if (i + 1) % step == 0 and pending:
            out.append(pending.pop(0))
    return out + pending


# -- workloads -----------------------------------------------------------------
#
# Each corpus has a few hundred queries: enough that the latency quantiles
# of two seeds agree, and that far more than ten samples lie beyond p90.
# Most are light seeded instances; a small fixed set of heavy ones carries
# most of the time, so the throughput mostly measures the heavy paths.
# The first query of each corpus is the same for every seed, because set-up
# times it as the warm-up query.


def _vc_enumerate(rng: random.Random, inp: _Inputs, tiny: bool) -> list[Query]:
    """contract-vc -k 2d-1 -d d on cycles and grids (the heavy, fixed part)
    and on small seeded bipartite graphs: most take the bounded enumeration,
    some the component DP (unions of small components) and some the
    lemma3-budget branch (k = 2d)."""
    warmup = _contract_vc(inp, "warmup.gr", 7, _cycle(7), 3, 2, oracle.cycle_drop_possible(7, 3, 2),
                          lambda: 4)
    heavy = []
    for d in (2,) if tiny else (2, 3):
        # At d = 3 only C11 and grids 3x4 and 4x4 stay, to keep a pass near
        # five seconds; the even cycles at d = 2 cover the exhaustive no.
        cycles = (11,) if tiny else (11,) if d == 3 else (11, 12, 13, 14)
        grids = ((3, 4),) if tiny else ((3, 4), (4, 4)) if d == 3 else ((3, 4), (4, 4))
        for n in cycles:
            heavy.append(_contract_vc(inp, f"c{n}_d{d}.gr", n, _cycle(n), 2 * d - 1, d,
                                      oracle.cycle_drop_possible(n, 2 * d - 1, d),
                                      lambda n=n: (n + 1) // 2))
        for rows, cols in grids:
            n, edges = rows * cols, _grid(rows, cols)
            heavy.append(_contract_vc(
                inp, f"grid{rows}x{cols}_d{d}.gr", n, edges, 2 * d - 1, d,
                _once(lambda n=n, e=edges, d=d: oracle.cover_drop_possible(n, e, 2 * d - 1, d)),
                lambda r=rows, c=cols: oracle.grid_cover_number(r, c)))

    # Relabelled copies of C10 at d = 2: a no that enumerates every set of at
    # most three edges whatever the labels, so their cost is the same for all
    # seeds.  They sit at the 90th percentile and keep it from following the
    # seeded tail.
    for i in range(2 if tiny else 26):
        heavy.append(_contract_vc(inp, f"c10_{i}.gr", 10, _relabel(rng, 10, _cycle(10)), 3, 2,
                                  oracle.cycle_drop_possible(10, 3, 2), lambda: 5))

    components = [[(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)],
                  [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1), (1, 2), (2, 3), (3, 4)]]
    light = []
    for i in range(6 if tiny else 200):
        d = 2 + (i // 5) % 2
        kind = i % 5
        if kind == 3:  # union of components whose cover numbers are at most d
            edges, n = [], 0
            for _ in range(2 + i % 2):
                comp = rng.choice(components)
                size = 1 + max(max(e) for e in comp)
                edges.extend((u + n, v + n) for u, v in comp)
                n += size
            k = rng.randint(d, 2 * d)
        else:
            n = 6 + i % 3
            edges = _connected_bipartite(rng, n, 2)
            k = 2 * d if kind == 4 else 2 * d - 1
        cover = _once(lambda n=n, e=edges: oracle.vertex_cover_number(n, e))
        light.append(_contract_vc(
            inp, f"r{i}.gr", n, edges, k, d,
            _once(lambda n=n, e=edges, k=k, d=d: oracle.cover_drop_possible(n, e, k, d)), cover))
    return [warmup] + _spread(light, heavy)


def _odd_dense(rng: random.Random, inp: _Inputs, tiny: bool) -> list[Query]:
    """Non-bipartite sparse inputs: contract-vc -k 1 -d 1 on G(n, 0.15)
    (bc-large branch; its witness needs an exact cover, so these are the
    slow tail; every other one runs without --witness, the path a lazy
    witness would speed up), and bc / tau oct on planted near-bipartite
    graphs, whose small odd-cycle parameters keep the exponential searches
    bounded."""
    path = inp.graph("warmup.gr", 5, _cycle(5))
    warmup = _bc(inp, path, 5, _cycle(5), 1, True)
    light, heavy = [], []
    for i in range(4 if tiny else 120):
        n, t = 16 + i % 6, (1, 2, 2)[i % 3]
        # t vertex-disjoint odd cycles make the bipartite contraction number
        # exactly t, so the no query has the same budget for every seed.
        edges = _planted(rng, n, 0.3, t)
        while oracle.odd_cycle_packing(n, edges) != t:
            edges = _planted(rng, n, 0.3, t)
        path = inp.graph(f"p{i}.gr", n, edges)
        light.append(_bc(inp, path, n, edges, t, True))
        light.append(_bc(inp, path, n, edges, t - 1, False))
        light.append(_tau(inp, ["tau", path, "--family", "oct"], n, edges,
                          lambda rm, n=n, e=edges: oracle.is_bipartite(n, e, rm),
                          _once(lambda n=n, e=edges: oracle.min_odd_cycle_transversal(n, e))))
    sizes = (30,) if tiny else (40, 42, 44, 46, 48, 50)
    for i in range(2 if tiny else 20):
        n = sizes[i % len(sizes)]
        while True:  # an odd graph, so contracting one cover-internal edge drops vc by 1
            edges = _gnp(rng, n, 0.15)
            if not oracle.is_bipartite(n, edges):
                break
        heavy.append(_contract_vc(inp, f"g{i}.gr", n, edges, 1, 1, True,
                                  _once(lambda n=n, e=edges: oracle.vertex_cover_number(n, e)),
                                  witness=i % 2 == 0))
    # Relabelled copies of one fixed odd G(46, 0.15): the cover search costs
    # about the same under any labels, so these hold the 90th percentile
    # steady across seeds while the seeded graphs above vary.
    n = 30 if tiny else 46
    fixed = _gnp(random.Random("odd-dense/base"), n, 0.15)
    fixed_cover = _once(lambda: oracle.vertex_cover_number(n, fixed))  # the same under any labels
    for i in range(2 if tiny else 50):
        heavy.append(_contract_vc(inp, f"base{i}.gr", n, _relabel(rng, n, fixed), 1, 1, True,
                                  fixed_cover, witness=i % 2 == 0))
    return [warmup] + _spread(light, heavy)


def _gadget_verify(rng: random.Random, inp: _Inputs, tiny: bool) -> list[Query]:
    """verify-claims on seeded satisfiable clean formulas for all three
    theorems, the pinned unsatisfiable formula (claim-3 scan), and C4
    hitting numbers under the minor and topological-minor relations."""
    light, heavy = [], []
    c4 = inp.graph("c4.gr", 4, _cycle(4))
    warmup = _tau(inp, ["tau", c4, "--family", f"pattern:{c4}", "--relation", "minor"], 4, _cycle(4),
                  lambda rm: not oracle.has_long_cycle(4, _cycle(4), rm), lambda: 1)
    for i in range(4 if tiny else 20):
        n = 8 + i % 2
        edges = sorted(rng.sample(list(combinations(range(n), 2)), round(0.4 * n * (n - 1) / 2)))
        path = inp.graph(f"h{i}.gr", n, edges)
        for rel in ("minor", "topo"):
            light.append(_tau(inp, ["tau", path, "--family", f"pattern:{c4}", "--relation", rel],
                              n, edges,
                              lambda rm, n=n, e=edges: not oracle.has_long_cycle(n, e, rm),
                              _once(lambda n=n, e=edges: oracle.min_long_cycle_hitting(n, e))))
    for i in range(4 if tiny else 110):
        nvars = 3 + i % 3
        light.append(_verify_claims(inp, f"t1_{i}.cnf", nvars, _sat_formula(rng, nvars),
                                    ["--theorem", "1"], "skipped"))
    for i in range(4 if tiny else 40):
        nvars = 3 + i % 2
        light.append(_verify_claims(inp, f"t2_{i}.cnf", nvars, _sat_formula(rng, nvars),
                                    ["--theorem", "2", "--clique", "3"], "skipped"))
    # Renamings of one fixed formula give the same gadget up to labels, so
    # they cost about the same for every seed and hold the 90th percentile
    # steady while the seeded formulas above vary.
    fixed = _sat_formula(random.Random("gadget-verify/base"), 5)
    for i in range(2 if tiny else 20):
        heavy.append(_verify_claims(inp, f"base{i}.cnf", 5, _rename(rng, 5, fixed),
                                    ["--theorem", "2", "--clique", "3"], "skipped"))
    if not tiny:
        heavy.append(_verify_claims(inp, "full.cnf", 2, _sat_formula(rng, 2), ["--theorem", "1"], "full"))
        for i in range(2):
            heavy.append(_verify_claims(inp, f"sample{i}.cnf", 3 + i, _sat_formula(rng, 3 + i),
                                        ["--theorem", "1", "--sample-edges", "20"], "sample"))
        heavy.append(_verify_claims(inp, "path.cnf", 2, _sat_formula(rng, 2),
                                    ["--theorem", "3", "--path", "4"], "full"))
        heavy.append(_verify_claims(inp, "unsat4.cnf", *UNSAT_FORMULA, ["--theorem", "1"], "none"))
    return [warmup] + _spread(light, heavy)


_BUILDERS = {
    "vc-enumerate": _vc_enumerate,
    "odd-dense": _odd_dense,
    "gadget-verify": _gadget_verify,
}


def build(workload: str, seed: int, directory: str, tiny: bool = False) -> Corpus:
    """Generate the corpus of ``workload`` for ``seed``, with its input files
    placed in ``directory``; nothing is written until ``Corpus.write``.
    ``tiny`` keeps a few light queries of each kind, for the smoke test."""
    inp = _Inputs(directory)
    queries = _BUILDERS[workload](random.Random(f"{workload}/{seed}"), inp, tiny)
    return Corpus(queries, inp.digest.hexdigest(), inp.files)
