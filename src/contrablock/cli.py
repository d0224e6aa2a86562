"""Command-line front end.

First output line is machine-readable (YES / NO / an integer), edge
witnesses print as ``u-v`` lists, reports as key=value lines.  Exit codes:
0 computed, 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import bipartite_contraction, contraction_vc, reductions, transversal, vertex_cover
from .graphs import GraphFormatError, cycle_graph, parse_graph, serialize_graph

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


class BudgetExceeded(Exception):
    pass


def _load(path: str, parse):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (GraphFormatError, reductions.CleanFormulaError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _edge_list(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in sorted(edges))


def _print_set(vertices) -> None:
    print(len(vertices))
    if vertices:
        print(" ".join(str(v) for v in sorted(vertices)))


_SYMBOLIC_FAMILIES = {
    "vc": transversal.HitFamily.vertex_cover,
    "fvs": transversal.HitFamily.feedback_vertex_set,
    "oct": transversal.HitFamily.odd_cycle_transversal,
}


def _parse_family(name: str, relation: str) -> transversal.HitFamily:
    if name.startswith("pattern:"):
        pattern = _load(name.split(":", 1)[1], parse_graph)
        return transversal.HitFamily.explicit([pattern], relation)
    if name not in _SYMBOLIC_FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    if relation != "subgraph":
        raise ValueError(f"--relation applies to pattern: families only, not to {name!r}")
    return _SYMBOLIC_FAMILIES[name]()


_RELATIONS = {
    "subgraph": "subgraph",
    "induced": "induced-subgraph",
    "minor": "minor",
    "topo": "topological-minor",
}


def _cmd_vc(args) -> None:
    g = _load(args.graph, parse_graph)
    if args.modulator is not None:
        try:
            mod = [int(t) for t in args.modulator.split(",")] if args.modulator else []
        except ValueError:
            raise ValueError(f"bad modulator {args.modulator!r}, expected V,V,...") from None
        res = vertex_cover.vc_with_modulator(g, mod)
    elif args.bipartite:
        res = vertex_cover.vc_bipartite(g)
    else:
        res = vertex_cover.vc_branching(g)
    _print_set(res.cover)


def _cmd_tau(args) -> None:
    g = _load(args.graph, parse_graph)
    fam = _parse_family(args.family, _RELATIONS[args.relation])
    if args.budget is not None and args.budget < 0:
        raise ValueError("budget must be non-negative")
    res = transversal.min_transversal(g, fam, budget=args.budget)
    if res is None:
        raise BudgetExceeded(f"hitting number exceeds budget {args.budget}")
    _print_set(res[1])


def _cmd_bc(args) -> None:
    g = _load(args.graph, parse_graph)
    witness = bipartite_contraction.bc_decide(g, args.max)
    if witness is None:
        print("NO")
    else:
        print("YES")
        if witness:
            print(_edge_list(witness))


def _cmd_contract_vc(args) -> None:
    g = _load(args.graph, parse_graph)
    decision = contraction_vc.algorithm1(g, args.k, args.d)
    print("YES" if decision.answer else "NO")
    if decision.answer and args.witness and decision.witness:
        print(_edge_list(decision.witness))


def _cmd_min_contract_vc(args) -> None:
    if args.cap is not None and not args.brute:
        raise ValueError("--cap needs --brute")
    g = _load(args.graph, parse_graph)
    if args.brute:
        cap = args.cap if args.cap is not None else g.m
        res = contraction_vc.brute_min_contract(g, args.d, cap, args.paper_convention)
        if res is None and cap < g.m:  # a cap of every edge leaves nothing untried
            raise BudgetExceeded(f"no set of at most {cap} edges achieves the drop")
    elif args.approx:
        res = contraction_vc.min_contract_2approx(g, args.d, args.paper_convention)
    else:
        res = contraction_vc.min_contract_vc(g, args.d, args.paper_convention)
    print("INFEASIBLE" if res is None else res)


def _cmd_reduce(args) -> None:
    phi = _load(args.cnf, reductions.parse_cnf)
    inst = _build_instance(phi, args)
    graph_path = f"{args.output}.gr"
    roles_path = f"{args.output}.roles"
    outputs = {graph_path: serialize_graph(inst.graph), roles_path: reductions.serialize_roles(inst)}
    for path, text in outputs.items():
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from exc
    print(f"vertices={inst.graph.n}")
    print(f"edges={inst.graph.m}")
    print(f"threshold={inst.threshold}")
    print(f"graph={graph_path}")
    print(f"roles={roles_path}")


def _cmd_verify_claims(args) -> None:
    phi = _load(args.cnf, reductions.parse_cnf)
    inst = _build_instance(phi, args)
    report = reductions.verify_claims(
        inst, sample_edges=args.sample_edges, full_scan=args.full_scan
    )
    for line in report.as_lines():
        print(line)


def _cmd_blocker_edge(args) -> None:
    g = _load(args.graph, parse_graph)
    try:
        u, v = (int(t) for t in args.edge.split(","))
    except ValueError:
        raise ValueError(f"bad edge {args.edge!r}, expected U,V") from None
    fam = _parse_family(args.family, _RELATIONS[args.relation])
    print("YES" if transversal.drop_given_edge(g, (u, v), fam) else "NO")


_INSTANCE_FLAGS = {1: "gadget", 2: "clique", 3: "path"}


def _build_instance(phi, args) -> reductions.GadgetInstance:
    for theorem, flag in _INSTANCE_FLAGS.items():
        if theorem != args.theorem and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to --theorem {theorem} only")
    if args.theorem == 1:
        pattern = cycle_graph(4) if args.gadget in (None, "c4") else _load(args.gadget, parse_graph)
        return reductions.build_double_copy_instance(phi, pattern)
    if args.theorem == 2:
        if args.clique is None:
            raise ValueError("--clique is required with --theorem 2")
        return reductions.build_subdivided_clique_instance(phi, args.clique)
    if args.path is None:
        raise ValueError("--path is required with --theorem 3")
    return reductions.build_path_instance(phi, args.path)


def _add_instance_flags(sub) -> None:
    sub.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    sub.add_argument("--gadget", help="c4 (the default) or a pattern graph file (theorem 1)")
    sub.add_argument("--clique", type=int, help="clique size (theorem 2)")
    sub.add_argument("--path", type=int, help="path length in vertices (theorem 3)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contrablock")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("vc", help="minimum vertex cover")
    p.add_argument("graph")
    solver = p.add_mutually_exclusive_group()
    solver.add_argument("--bipartite", action="store_true", help="use the matching-based solver")
    solver.add_argument("--modulator", help="comma-separated vertex list")
    p.set_defaults(func=_cmd_vc)

    p = subs.add_parser("tau", help="minimum hitting set")
    p.add_argument("graph")
    p.add_argument("--family", required=True, help="fvs | oct | vc | pattern:<file>")
    p.add_argument("--relation", choices=sorted(_RELATIONS), default="subgraph")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_tau)

    p = subs.add_parser("bc", help="contract at most K edges to reach a bipartite graph")
    p.add_argument("graph")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_bc)

    p = subs.add_parser("contract-vc", help="can k contractions drop the cover number by d?")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_contract_vc)

    p = subs.add_parser("min-contract-vc", help="minimum contractions for a cover drop of d")
    p.add_argument("graph")
    p.add_argument("-d", type=int, required=True)
    method = p.add_mutually_exclusive_group()
    method.add_argument("--approx", action="store_true", help="factor-2 estimate")
    method.add_argument("--brute", action="store_true", help="exhaustive oracle")
    p.add_argument("--cap", type=int, help="edge budget for --brute")
    p.add_argument("--paper-convention", action="store_true",
                   help="treat a full component collapse as unattainable")
    p.set_defaults(func=_cmd_min_contract_vc)

    p = subs.add_parser("reduce", help="build a hardness instance from a clean CNF")
    p.add_argument("cnf")
    _add_instance_flags(p)
    p.add_argument("-o", "--output", required=True, help="output prefix")
    p.set_defaults(func=_cmd_reduce)

    p = subs.add_parser("verify-claims", help="check the instance claims for a clean CNF")
    p.add_argument("cnf")
    _add_instance_flags(p)
    scan = p.add_mutually_exclusive_group()
    scan.add_argument("--sample-edges", type=int)
    scan.add_argument("--full-scan", action="store_true")
    p.set_defaults(func=_cmd_verify_claims)

    p = subs.add_parser("blocker-edge", help="does contracting one edge drop the hitting number?")
    p.add_argument("graph")
    p.add_argument("-e", "--edge", required=True, help="U,V")
    p.add_argument("--family", required=True)
    p.add_argument("--relation", choices=sorted(_RELATIONS), default="subgraph")
    p.set_defaults(func=_cmd_blocker_edge)

    return parser


# built once per process: ``parse_args`` keeps no state between calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceeded, RecursionError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
