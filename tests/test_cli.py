import hashlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contrablock
from contrablock import contraction_vc, transversal
from contrablock.cli import main
from contrablock.graphs import MAX_VERTICES, Graph, cycle_graph, serialize_graph
from contrablock.reductions import (
    build_double_copy_instance,
    build_subdivided_clique_instance,
    parse_cnf,
    serialize_roles,
)

from .conftest import grid_graph, random_graph

P4 = "4 3\n0 1\n1 2\n2 3\n"
C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
TREE = "5 4\n0 1\n0 2\n1 3\n1 4\n"
PHI0 = "p cnf 2 3\n1 2 0\n1 -2 0\n-1 2 0\n"
UNSAT4 = "p cnf 4 6\n-3 -4 0\n-3 4 0\n-1 3 0\n1 -2 0\n1 2 0\n2 4 0\n"  # first unsatisfiable clean n = 4


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("p4.gr", P4), ("c4.gr", C4), ("c5.gr", C5), ("tree.gr", TREE), ("phi0.cnf", PHI0)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestContractVc:
    def test_p4_yes_with_witness(self, files, capsys):
        code, out = run(capsys, ["contract-vc", files["p4.gr"], "-k", "1", "-d", "1", "--witness"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "YES"
        # any single returned edge must actually drop the cover number
        u, v = (int(x) for x in lines[1].split("-"))
        from contrablock.graphs import contract_edge, parse_graph
        from contrablock.vertex_cover import vc_branching

        q = contract_edge(parse_graph(P4), (u, v)).quotient
        assert vc_branching(q).size == 1

    def test_p4_witness_is_first_lexicographic(self, files, capsys):
        code, out = run(capsys, ["contract-vc", files["p4.gr"], "-k", "1", "-d", "1", "--witness"])
        assert out == "YES\n0-1\n"

    def test_c4_no(self, files, capsys):
        code, out = run(capsys, ["contract-vc", files["c4.gr"], "-k", "1", "-d", "1"])
        assert code == 0 and out == "NO\n"

    def test_c5_yes(self, files, capsys):
        code, out = run(capsys, ["contract-vc", files["c5.gr"], "-k", "1", "-d", "1"])
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_bc_large_without_witness_never_builds_it(self, tmp_path, capsys, monkeypatch):
        """An exact cover of G(120, 0.15) takes tens of seconds, and without
        --witness the bc-large answer needs none."""
        path = tmp_path / "g120.gr"
        path.write_text(serialize_graph(random_graph(random.Random(120), 120, 0.15)))

        def refuse(g, d):
            raise AssertionError("witness built but not printed")

        monkeypatch.setattr(contraction_vc, "_spanning_forest_witness", refuse)
        assert run(capsys, ["contract-vc", str(path), "-k", "1", "-d", "1"]) == (0, "YES\n")

    def test_bc_large_witness_is_the_eager_one(self, tmp_path, capsys):
        g = random_graph(random.Random(60), 60, 0.15)
        path = tmp_path / "g60.gr"
        path.write_text(serialize_graph(g))
        (u, v), = contraction_vc._spanning_forest_witness(g, 1)
        code, out = run(capsys, ["contract-vc", str(path), "-k", "1", "-d", "1", "--witness"])
        assert code == 0 and out == f"YES\n{u}-{v}\n"


class TestVcAndTau:
    def test_vc(self, files, capsys):
        code, out = run(capsys, ["vc", files["c5.gr"]])
        assert code == 0 and out.splitlines()[0] == "3"

    def test_vc_bipartite(self, files, capsys):
        code, out = run(capsys, ["vc", files["p4.gr"], "--bipartite"])
        assert code == 0 and out.splitlines()[0] == "2"

    def test_vc_modulator(self, files, capsys):
        code, out = run(capsys, ["vc", files["c5.gr"], "--modulator", "0"])
        assert code == 0 and out.splitlines()[0] == "3"

    def test_vc_empty_modulator(self, files, capsys):
        code, out = run(capsys, ["vc", files["p4.gr"], "--modulator", ""])
        assert code == 0 and out == "2\n0 2\n"

    def test_long_path_has_no_recursion_limit(self, tmp_path, capsys):
        # augmenting paths on P2000 are far longer than the interpreter's recursion limit
        path = tmp_path / "p2000.gr"
        path.write_text("2000 1999\n" + "".join(f"{i} {i + 1}\n" for i in range(1999)))
        code, out = run(capsys, ["vc", str(path), "--bipartite"])
        assert code == 0 and out.splitlines()[0] == "1000"
        code, out = run(capsys, ["contract-vc", str(path), "-k", "1", "-d", "1"])
        assert code == 0 and out == "YES\n"

    @pytest.mark.parametrize("relation", ["topo", "minor"])
    def test_long_cycle_pattern_search_has_no_recursion_limit(self, tmp_path, capsys, relation):
        # the first K3 model in C1500 routes a path, or grows a branch set,
        # around the whole cycle
        cycle = tmp_path / "c1500.gr"
        cycle.write_text("1500 1500\n" + "".join(f"{i} {(i + 1) % 1500}\n" for i in range(1500)))
        k3 = tmp_path / "k3.gr"
        k3.write_text("3 3\n0 1\n1 2\n0 2\n")
        code = main(["tau", str(cycle), "--family", f"pattern:{k3}", "--relation", relation, "--budget", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", "budget exceeded: hitting number exceeds budget 0\n")

    def test_recursion_limit_exits_as_budget_exceeded(self, tmp_path):
        # the exact hitting solver recurses once per picked vertex, and P500
        # needs 250 picks: within the default recursion limit, but past a
        # limit of 300 frames set before `main` runs
        path = tmp_path / "p500.gr"
        path.write_text("500 499\n" + "".join(f"{i} {i + 1}\n" for i in range(499)))
        k2 = tmp_path / "k2.gr"
        k2.write_text("2 1\n0 1\n")
        src = str(Path(contrablock.__file__).resolve().parents[1])
        argv = ["tau", str(path), "--family", f"pattern:{k2}"]
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys; from contrablock import cli; sys.setrecursionlimit(300); sys.exit(cli.main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr.count("\n")) == (3, "", 1), proc.stderr
        assert proc.stderr.startswith("budget exceeded: ") and "Traceback" not in proc.stderr
        proc = subprocess.run([sys.executable, "-m", "contrablock.cli", *argv], env=env, capture_output=True, text=True)
        evens = " ".join(map(str, range(0, 500, 2)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"250\n{evens}\n", "")

    def test_tau_fvs_on_tree(self, files, capsys):
        code, out = run(capsys, ["tau", files["tree.gr"], "--family", "fvs"])
        assert code == 0 and out == "0\n"

    def test_tau_budget_exceeded(self, files, capsys):
        code = main(["tau", files["c5.gr"], "--family", "vc", "--budget", "2"])
        assert code == 3

    def test_tau_negative_budget_is_an_input_error(self, files, capsys):
        # as for bc --max -1: a negative budget is malformed input, not a budget the answer exceeds
        for argv in (*(["tau", files["tree.gr"], "--family", f, "--budget", "-1"] for f in ("vc", "fvs", "oct")),
                     ["bc", files["c5.gr"], "--max", "-1"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", "error: budget must be non-negative\n")
        assert run(capsys, ["tau", files["tree.gr"], "--family", "fvs", "--budget", "0"]) == (0, "0\n")

    def test_tau_pattern_file(self, files, capsys, tmp_path):
        pattern = tmp_path / "k3.gr"
        pattern.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out = run(
            capsys,
            ["tau", files["c4.gr"], "--family", f"pattern:{pattern}", "--relation", "minor"],
        )
        assert code == 0 and out.splitlines()[0] == "1"


class TestBcAndBlocker:
    def test_bc_yes(self, files, capsys):
        code, out = run(capsys, ["bc", files["c5.gr"], "--max", "1"])
        assert code == 0 and out.splitlines()[0] == "YES"

    def test_bc_no(self, files, capsys):
        code = main(["bc", files["c5.gr"], "--max", "0"])
        assert code == 0
        assert capsys.readouterr().out == "NO\n"

    def test_blocker_edge(self, files, capsys):
        code, out = run(capsys, ["blocker-edge", files["p4.gr"], "-e", "1,2", "--family", "vc"])
        assert code == 0 and out == "YES\n"
        code, out = run(capsys, ["blocker-edge", files["c4.gr"], "-e", "0,1", "--family", "vc"])
        assert code == 0 and out == "NO\n"

    @pytest.mark.parametrize("relation", ["topo", "minor"])
    def test_blocker_edge_cyclic_pattern_on_long_cycle(self, tmp_path, capsys, relation):
        # C1500/e is still a cycle, and every branch of the hitting search
        # deletes a vertex of it and asks for K3 in a path
        cycle = tmp_path / "c1500.gr"
        cycle.write_text("1500 1500\n" + "".join(f"{i} {(i + 1) % 1500}\n" for i in range(1500)))
        k3 = tmp_path / "k3.gr"
        k3.write_text("3 3\n0 1\n1 2\n0 2\n")
        argv = ["blocker-edge", str(cycle), "-e", "0,1", "--family", f"pattern:{k3}", "--relation", relation]
        assert run(capsys, argv) == (0, "NO\n")


class TestMinContract:
    def test_exact(self, files, capsys):
        code, out = run(capsys, ["min-contract-vc", files["c5.gr"], "-d", "1"])
        assert code == 0 and out == "1\n"

    def test_approx(self, files, capsys):
        code, out = run(capsys, ["min-contract-vc", files["c5.gr"], "-d", "1", "--approx"])
        assert code == 0 and out == "1\n"

    def test_brute_with_cap(self, files, capsys):
        code = main(["min-contract-vc", files["c4.gr"], "-d", "1", "--brute", "--cap", "1"])
        assert code == 3

    @pytest.mark.parametrize("text, flags", [
        (P4, ["-d", "3"]),
        (P4, ["-d", "3", "--cap", "3"]),
        (P4, ["-d", "3", "--cap", "99"]),
        ("1 0\n", ["-d", "1"]),
        ("4 3\n0 1\n0 2\n0 3\n", ["-d", "1", "--paper-convention"]),  # star
    ])
    def test_brute_unreachable_drop_is_infeasible(self, tmp_path, capsys, text, flags):
        # a cap of every edge leaves no set untried, so no set reaches the drop
        path = tmp_path / "g.gr"
        path.write_text(text)
        code, out = run(capsys, ["min-contract-vc", str(path), "--brute", *flags])
        assert code == 0 and out == "INFEASIBLE\n"

    def test_infeasible(self, files, capsys):
        code, out = run(capsys, ["min-contract-vc", files["tree.gr"], "-d", "3"])
        assert code == 0 and out == "INFEASIBLE\n"

    def test_paper_convention_flag(self, tmp_path, capsys):
        star = tmp_path / "star.gr"
        star.write_text("4 3\n0 1\n0 2\n0 3\n")
        code, out = run(capsys, ["min-contract-vc", str(star), "-d", "1"])
        assert code == 0 and out == "3\n"
        code, out = run(capsys, ["min-contract-vc", str(star), "-d", "1", "--approx", "--paper-convention"])
        assert code == 0 and out == "INFEASIBLE\n"
        code, out = run(capsys, ["min-contract-vc", str(star), "-d", "1", "--paper-convention"])
        assert code == 0 and out == "INFEASIBLE\n"


class TestReduceAndVerify:
    def test_reduce_writes_instance(self, files, capsys, tmp_path):
        prefix = str(tmp_path / "inst")
        code, out = run(capsys, ["reduce", files["phi0.cnf"], "--theorem", "1", "-o", prefix])
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["vertices"] == "112" and report["threshold"] == "13"
        from contrablock.graphs import parse_graph

        g = parse_graph(open(prefix + ".gr").read())
        assert g.n == 112
        roles = open(prefix + ".roles").read().splitlines()
        assert len(roles) == 112

    def test_verify_claims(self, files, capsys):
        code, out = run(capsys, ["verify-claims", files["phi0.cnf"], "--theorem", "1"])
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["sat"] == "true"
        assert report["tau"] == "13"
        assert report["claim1"] == "pass"
        assert report["claim2"] == "pass"

    def test_verify_claims_sampled(self, files, capsys):
        code, out = run(
            capsys, ["verify-claims", files["phi0.cnf"], "--theorem", "1", "--sample-edges", "8"]
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["scan_mode"].startswith("sample:")

    def test_reduce_theorem3(self, files, capsys, tmp_path):
        prefix = str(tmp_path / "p4inst")
        code, out = run(
            capsys, ["reduce", files["phi0.cnf"], "--theorem", "3", "--path", "4", "-o", prefix]
        )
        assert code == 0
        report = dict(line.split("=", 1) for line in out.splitlines())
        assert report["vertices"] == "87"

    def test_theorem1_gadget_defaults_to_c4(self, files, capsys, tmp_path):
        """No --gadget, --gadget c4 and a C4 file give the same bytes: C4
        glued at its first non-adjacent pair, (0, 2).  The subdivided
        triangle's first non-adjacent pair is (0, 1)."""
        c4 = tmp_path / "c4-gadget.gr"
        c4.write_text(C4)
        inst = build_double_copy_instance(parse_cnf(PHI0), cycle_graph(4))
        want = (serialize_graph(inst.graph), serialize_roles(inst))
        for name, flags in [("none", []), ("c4", ["--gadget", "c4"]), ("file", ["--gadget", str(c4)])]:
            prefix = tmp_path / name
            code, out = run(capsys, ["reduce", files["phi0.cnf"], "--theorem", "1", "-o", str(prefix), *flags])
            assert code == 0 and out.splitlines()[:3] == ["vertices=112", f"edges={inst.graph.m}", "threshold=13"]
            assert (Path(f"{prefix}.gr").read_text(), Path(f"{prefix}.roles").read_text()) == want, name
        clique = build_subdivided_clique_instance(parse_cnf(PHI0), 3)
        assert (clique.meta["u"], clique.meta["v"]) == (0, 1)

    # sha256 of the files ``reduce`` writes for two fixed formulas, so a
    # builder change that moves one gadget byte fails here
    GADGET_DIGESTS = {
        ("phi0", "t1"): ("2339d5db7a4d438fce25a97fd3333a86f7b83f8a9bb11241997cc01e98eb0919",
                         "3a0833d6464534c608ea87c27dfff775c68a43bf7fac0615b37dbc891fc80eb0"),
        ("phi0", "t2c3"): ("9c6e681e69467837008d5bcf7f645349d56269e8c07e669508d1c3aad3a0bf6b",
                           "cf2181b5d4104a1e478c1156d3dcb71549f2ef886247fbe167d04bd66de124d8"),
        ("phi0", "t2c4"): ("9da80f454220dd31490faf5a77bb7a35d6cd997704a3f16e57ccdd8a2a29c0d5",
                           "348c6397b96a9ae5b487c162c2731952481a1fb1d4300715f41bcc6cbf5093e8"),
        ("phi0", "t3p4"): ("ec3be6e7a91f4145165492f3b5b95a1ac8c9e2c49f587e8e3fc6d284228731bb",
                           "cc2ebe7abd3fd5f8d3a2b2296e0d17efdd7e12a25c1465a33d1b8c42c3c55a18"),
        ("phi0", "t3p5"): ("72facfd5af08b701dc7e9bba55ff6a7bbb5ff47c2b987c3ad72e4a78dfb4fc71",
                           "43f786cd5ec3e38cea8534090ed7e10ea24b3c0522eaff70d1431b54d5d72844"),
        ("unsat4", "t1"): ("57727934cbee2bddf8d42ac1398ca8c323e0fbe86d0fe31095c247ba342ee089",
                           "2a45e72eb12bf1bb5a9e212f89a41ea74e99b0c1653ce11f3e0eff72256bbc40"),
        ("unsat4", "t2c3"): ("8d83b050e94ab7ebfe54a6b079f3b429fbced4841d3cef2d1f363717fe4972fb",
                             "57fe4e55c66e3be3e27b7c622aabf749ff2bd73a2f34185d283404b5b3c26432"),
        ("unsat4", "t2c4"): ("cdc6bbbbd74de961b1768932c4f4528fe3fe7ff880ea1be589f2984c7630a368",
                             "8534de7850f0ad909d3e81fb21564296e385292d41e06d22a4f8458c60e593fb"),
        ("unsat4", "t3p4"): ("2cc0107d7627f5c413eb19b9dc5298ab6273c852fd6dff0ca7a4c788d84aa133",
                             "6fc2f708d2ea985c848e236a96ebf77c8093399be1f0389f0b332825cf7edf8f"),
        ("unsat4", "t3p5"): ("bef63060bebedca20a2a19a73e15f101644a5328431a567ff355bc9d2dc31bd1",
                             "2b7205f80be4e7df163465098822404ff8be3040e6c82c4b6434b93ee212f67b"),
    }
    GADGET_FLAGS = {
        "t1": ["--theorem", "1"],
        "t2c3": ["--theorem", "2", "--clique", "3"],
        "t2c4": ["--theorem", "2", "--clique", "4"],
        "t3p4": ["--theorem", "3", "--path", "4"],
        "t3p5": ["--theorem", "3", "--path", "5"],
    }

    @pytest.mark.parametrize("formula,case", sorted(GADGET_DIGESTS))
    def test_reduce_bytes_are_pinned(self, capsys, tmp_path, formula, case):
        cnf = tmp_path / f"{formula}.cnf"
        cnf.write_text({"phi0": PHI0, "unsat4": UNSAT4}[formula])
        prefix = tmp_path / case
        code, _ = run(capsys, ["reduce", str(cnf), *self.GADGET_FLAGS[case], "-o", str(prefix)])
        assert code == 0
        got = tuple(hashlib.sha256(Path(f"{prefix}{ext}").read_bytes()).hexdigest() for ext in (".gr", ".roles"))
        assert got == self.GADGET_DIGESTS[formula, case]

    def test_reduce_theorem2_requires_clique(self, files, capsys):
        code = main(["reduce", files["phi0.cnf"], "--theorem", "2", "-o", "/tmp/x"])
        assert code == 2

    def test_reduce_into_missing_directory(self, files, capsys, tmp_path):
        prefix = tmp_path / "missing" / "inst"
        code = main(["reduce", files["phi0.cnf"], "--theorem", "1", "-o", str(prefix)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {prefix}.gr: ") and "Traceback" not in captured.err


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["vc", "/nonexistent.gr"]) == 2

    def test_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("3 1\n0 9\n")
        assert main(["vc", str(bad)]) == 2

    def test_unclean_cnf(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 3\n1 2 0\n1 2 0\n1 2 0\n")
        assert main(["verify-claims", str(bad), "--theorem", "1"]) == 2

    def test_bad_edge_spec(self, files, capsys):
        assert main(["blocker-edge", files["p4.gr"], "-e", "oops", "--family", "vc"]) == 2

    def test_non_edge(self, files, capsys):
        assert main(["blocker-edge", files["p4.gr"], "-e", "0,3", "--family", "vc"]) == 2

    @pytest.mark.parametrize("family", ["vc", "fvs", "oct"])
    @pytest.mark.parametrize("relation", ["induced", "minor", "topo"])
    def test_relation_on_symbolic_family(self, files, capsys, family, relation):
        # under minor, C4 has a K3 minor, so "oct" there would not mean odd cycles
        for argv in (["tau", files["c4.gr"]], ["blocker-edge", files["c4.gr"], "-e", "0,1"]):
            code = main([*argv, "--family", family, "--relation", relation])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err == f"error: --relation applies to pattern: families only, not to {family!r}\n"

    def test_subgraph_relation_on_symbolic_family(self, files, capsys):
        assert run(capsys, ["tau", files["c4.gr"], "--family", "oct", "--relation", "subgraph"]) == (0, "0\n")

    @pytest.mark.parametrize("flags,message", [
        (["--theorem", "2", "--clique", "3", "--gadget", "nonexistent.gr"], "--gadget applies to --theorem 1 only"),
        (["--theorem", "1", "--clique", "3"], "--clique applies to --theorem 2 only"),
        (["--theorem", "1", "--path", "4"], "--path applies to --theorem 3 only"),
    ])
    def test_flag_of_another_theorem(self, files, capsys, tmp_path, flags, message):
        prefix = tmp_path / "inst"
        for argv in (["verify-claims", files["phi0.cnf"]], ["reduce", files["phi0.cnf"], "-o", str(prefix)]):
            code = main([*argv, *flags])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert not list(tmp_path.glob("inst*"))


def test_sample_edges_and_full_scan_exclude_each_other(files, capsys):
    argv = ["verify-claims", files["phi0.cnf"], "--theorem", "1", "--sample-edges", "3", "--full-scan"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


class TestValueErrorsExitTwo:
    """Library ValueErrors reach ``main`` unwrapped: one ``error:`` line on
    stderr, nothing on stdout, exit code 2."""

    def check(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    def test_clique_too_small(self, files, capsys):
        argv = ["verify-claims", files["phi0.cnf"], "--theorem", "2", "--clique", "2"]
        self.check(capsys, argv, "clique size must be at least 3")

    def test_theorem3_requires_path(self, files, capsys):
        self.check(capsys, ["verify-claims", files["phi0.cnf"], "--theorem", "3"],
                   "--path is required with --theorem 3")

    def test_unknown_family(self, files, capsys):
        self.check(capsys, ["tau", files["c4.gr"], "--family", "xyz"], "unknown family 'xyz'")

    def test_unreadable_cnf(self, tmp_path, capsys):
        missing = tmp_path / "missing.cnf"
        code = main(["verify-claims", str(missing), "--theorem", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: cannot read {missing}: ") and captured.err.count("\n") == 1

    def test_path_too_short(self, files, capsys):
        argv = ["verify-claims", files["phi0.cnf"], "--theorem", "3", "--path", "3"]
        self.check(capsys, argv, "path pattern needs at least 4 vertices")

    def test_complete_gadget(self, files, capsys, tmp_path):
        k4 = tmp_path / "k4.gr"
        k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        argv = ["verify-claims", files["phi0.cnf"], "--theorem", "1", "--gadget", str(k4)]
        self.check(capsys, argv, "pattern must not be complete")

    def test_blocker_edge_on_non_edge(self, files, capsys):
        argv = ["blocker-edge", files["p4.gr"], "-e", "0,3", "--family", "vc"]
        self.check(capsys, argv, "edge (0, 3) not in graph")

    @pytest.mark.parametrize("edge", ["0,3", "0,9"])
    def test_blocker_edge_on_non_edge_with_zero_hitting_number(self, files, capsys, edge):
        # P4 has no cycle, so the hitting number is 0; the edge is checked anyway
        argv = ["blocker-edge", files["p4.gr"], "-e", edge, "--family", "fvs"]
        self.check(capsys, argv, f"edge ({edge.replace(',', ', ')}) not in graph")

    @pytest.mark.parametrize("family", ["vc", "fvs", "oct"])
    @pytest.mark.parametrize("edge", ["0,3", "9,0"])
    def test_blocker_edge_checks_the_pair_before_solving(self, files, capsys, monkeypatch, family, edge):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the pair was checked")

        monkeypatch.setattr(transversal, "min_transversal", solve)
        argv = ["blocker-edge", files["p4.gr"], "-e", edge, "--family", family]
        u, v = sorted(map(int, edge.split(",")))
        self.check(capsys, argv, f"edge ({u}, {v}) not in graph")

    @pytest.mark.parametrize("text,message", [
        ("p cnf x 2\n1 2 0\n", "non-integer header field 'x'"),
        ("p cnf 2 3\n1 2 0\n1 y 0\n-1 2 0\n", "non-integer literal 'y'"),
    ])
    def test_cnf_parse_error_names_the_file(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cnf"
        bad.write_text(text)
        self.check(capsys, ["verify-claims", str(bad), "--theorem", "1"], f"{bad}: {message}")

    def test_cnf_header_beyond_its_literals_is_one_short_line(self, tmp_path, capsys):
        bad = tmp_path / "huge.cnf"
        bad.write_text("p cnf 3000000 0\n")
        message = f"{bad}: header announced 3000000 variables, found 0 literals"
        self.check(capsys, ["verify-claims", str(bad), "--theorem", "1"], message)

    @pytest.mark.parametrize("argv", [
        ["vc", "{bad}"],
        ["verify-claims", "{bad}", "--theorem", "1"],
        ["tau", "{c4}", "--family", "pattern:{bad}"],
        ["verify-claims", "{phi0}", "--theorem", "1", "--gadget", "{bad}"],
    ], ids=["graph", "cnf", "pattern", "gadget"])
    def test_non_utf8_file_names_the_file(self, files, capsys, tmp_path, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"4 3\n0 \xff1\n")
        paths = {"bad": str(bad), "c4": files["c4.gr"], "phi0": files["phi0.cnf"]}
        message = f"{bad}: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte"
        self.check(capsys, [arg.format(**paths) for arg in argv], message)

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_edges_below_one(self, files, capsys, count):
        argv = ["verify-claims", files["phi0.cnf"], "--theorem", "1", "--sample-edges", count]
        self.check(capsys, argv, f"sample size must be at least 1, got {count}")

    @pytest.mark.parametrize("flags", [[], ["--approx"], ["--paper-convention"],
                                       ["--approx", "--paper-convention"]])
    def test_min_contract_zero_drop(self, tmp_path, capsys, flags):
        edgeless = tmp_path / "e3.gr"
        edgeless.write_text("3 0\n")
        self.check(capsys, ["min-contract-vc", str(edgeless), "-d", "0", *flags],
                   "drop must be positive")

    def test_cap_without_brute(self, files, capsys):
        self.check(capsys, ["min-contract-vc", files["c5.gr"], "-d", "1", "--cap", "0"], "--cap needs --brute")

    def test_approx_and_brute_exclude_each_other(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["min-contract-vc", files["c5.gr"], "-d", "1", "--approx", "--brute"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --brute: not allowed with argument --approx" in captured.err

    def test_bipartite_and_modulator_exclude_each_other(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vc", files["c5.gr"], "--bipartite", "--modulator", "0"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --modulator: not allowed with argument --bipartite" in captured.err

    def test_bad_modulator_names_the_flag(self, files, capsys):
        self.check(capsys, ["vc", files["c5.gr"], "--modulator", "0,x"], "bad modulator '0,x', expected V,V,...")

    @pytest.mark.parametrize("spec", ["1,,2", ",,", "0,"])
    def test_empty_modulator_entry(self, files, capsys, spec):
        self.check(capsys, ["vc", files["c5.gr"], "--modulator", spec], f"bad modulator {spec!r}, expected V,V,...")


BYTE_IDENTITY_GRAPHS = {
    "c5.gr": C5,
    "p4.gr": P4,
    "c6.gr": "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n",
    "two_k3.gr": "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n",
    "k33.gr": "6 9\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
    "petersen.gr": "10 15\n0 1\n1 2\n2 3\n3 4\n0 4\n0 5\n1 6\n2 7\n3 8\n4 9\n"
                   "5 7\n7 9\n6 9\n6 8\n5 8\n",
    "g30.gr": serialize_graph(random_graph(random.Random(30), 30, 0.15)),  # not bipartite
    "grid4x4.gr": serialize_graph(grid_graph(4, 4)),
    "c4.gr": C4,
    "unsat4.cnf": UNSAT4,
}

BYTE_IDENTITY_COMMANDS = [
    ["contract-vc", "c5.gr", "-k", "1", "-d", "1", "--witness"],  # bc-large
    ["contract-vc", "two_k3.gr", "-k", "3", "-d", "3", "--witness"],  # small-components
    ["contract-vc", "p4.gr", "-k", "1", "-d", "1", "--witness"],  # enumeration-yes
    ["contract-vc", "grid4x4.gr", "-k", "5", "-d", "3", "--witness"],  # enumeration-yes, modulator decision
    ["contract-vc", "c6.gr", "-k", "4", "-d", "2", "--witness"],  # lemma3-budget
    ["min-contract-vc", "k33.gr", "-d", "2"],
    ["min-contract-vc", "k33.gr", "-d", "2", "--approx"],
    ["min-contract-vc", "c6.gr", "-d", "2"],
    ["min-contract-vc", "c6.gr", "-d", "2", "--approx"],  # two_approx_drop
    ["bc", "petersen.gr", "--max", "3"],
    ["tau", "petersen.gr", "--family", "oct"],
    ["verify-claims", "phi0.cnf", "--theorem", "1"],
    ["vc", "g30.gr"],  # the cover search's matching bound walks set order
    ["verify-claims", "unsat4.cnf", "--theorem", "1"],  # claim 3
    ["tau", "petersen.gr", "--family", "fvs"],
    ["tau", "petersen.gr", "--family", "pattern:c4.gr", "--relation", "minor"],
    ["blocker-edge", "two_k3.gr", "-e", "0,1", "--family", "fvs"],
]


# run under ``python -O`` too, which strips asserts
OPTIMIZE_COMMANDS = [
    ["contract-vc", "grid4x4.gr", "-k", "5", "-d", "3", "--witness"],
    ["tau", "petersen.gr", "--family", "oct"],
    ["bc", "petersen.gr", "--max", "3"],
    ["verify-claims", "unsat4.cnf", "--theorem", "1"],
]


def test_stdout_is_independent_of_hash_seed(tmp_path):
    """Each command prints the same bytes under two string-hash seeds, and
    each of ``OPTIMIZE_COMMANDS`` also under ``python -O`` at both seeds."""
    assert all(argv in BYTE_IDENTITY_COMMANDS for argv in OPTIMIZE_COMMANDS)
    for name, text in {**BYTE_IDENTITY_GRAPHS, "phi0.cnf": PHI0}.items():
        (tmp_path / name).write_text(text)
    src = str(Path(contrablock.__file__).resolve().parents[1])
    for argv in BYTE_IDENTITY_COMMANDS:
        outs = []
        for flags, seed in product([[], ["-O"]] if argv in OPTIMIZE_COMMANDS else [[]], ["0", "1"]):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, *flags, "-m", "contrablock.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, check=True)
            outs.append(proc.stdout)
        assert len(set(outs)) == 1 and outs[0], argv


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """A 20,000-edge matching, 40 disjoint copies of K4, a G(30, 0.3) with
    cover number 20, P500 and K2, written once for the smoke test below."""
    k4s = Graph.from_edges(160, [(4 * i + a, 4 * i + b) for i in range(40) for a in range(4) for b in range(a + 1, 4)])
    texts = {
        "matching.gr": "40000 20000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(20000)),
        "k4s.gr": serialize_graph(k4s),
        "g5.gr": serialize_graph(random_graph(random.Random(5), 30, 0.3)),
        "p500.gr": "500 499\n" + "".join(f"{i} {i + 1}\n" for i in range(499)),
        "k2.gr": "2 1\n0 1\n",
    }
    path = tmp_path_factory.mktemp("large")
    for name, text in texts.items():
        (path / name).write_text(text)
    return path


LARGE_INPUT_COMMANDS = [
    (["contract-vc", "matching.gr", "-k", "2", "-d", "1"], "YES"),
    (["min-contract-vc", "matching.gr", "-d", "1"], "1"),
    (["vc", "k4s.gr"], "120"),
    (["tau", "k4s.gr", "--family", "oct"], "80"),
    (["contract-vc", "g5.gr", "-k", "21", "-d", "21"], "NO"),  # vc = 20 < d
    (["min-contract-vc", "g5.gr", "-d", "21"], "INFEASIBLE"),
    (["min-contract-vc", "g5.gr", "-d", "21", "--approx"], "INFEASIBLE"),
    (["tau", "p500.gr", "--family", "pattern:k2.gr"], "250"),
]


@pytest.mark.parametrize("argv", [["vc", "huge.gr"], ["tau", "huge.gr", "--family", "fvs"],
                                  ["bc", "huge.gr", "--max", "0"]], ids=lambda argv: argv[0])
def test_a_huge_header_exits_2_at_once(tmp_path, argv):
    # 13 bytes that announce 10**9 vertices, about 300 GB as neighbour sets
    (tmp_path / "huge.gr").write_text("1000000000 0\n")
    src = str(Path(contrablock.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "contrablock.cli", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=10)
    error = f"error: huge.gr: line 1: vertex count 1000000000 exceeds the limit {MAX_VERTICES}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


@pytest.mark.parametrize("argv, first", LARGE_INPUT_COMMANDS, ids=[" ".join(argv) for argv, _ in LARGE_INPUT_COMMANDS])
def test_large_inputs_answer_within_seconds(large_files, argv, first):
    src = str(Path(contrablock.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "contrablock.cli", *argv], cwd=large_files,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout.split("\n", 1)[0]) == (0, first), proc.stderr


# Drawn command lines: small, partly malformed graph and CNF files and random
# subcommands and flags.  "{dir}" stands for the folder that holds the files:
# g.gr and h.gr (graphs), f.cnf (a formula) and out (an output prefix);
# missing.gr and missing.cnf are never written.
_RARELY = st.sampled_from([False] * 5 + [True])
_SMALL = st.sampled_from(["1", "2", "0", "3", "4"] * 3 + ["-1", "x", "1.5"])
_FAMILIES = st.sampled_from(["fvs", "oct", "vc", "pattern:{dir}/h.gr"] * 3 + ["pattern:{dir}/missing.gr", "cycles"])
_RELATION = ("--relation", st.sampled_from(["subgraph", "induced", "minor", "topo"] * 2 + ["none"]))
_CLEAN_CNFS = [PHI0, "p cnf 2 3\n-1 -2 0\n1 2 0\n1 2 0\n", "p cnf 2 3\n-1 2 0\n1 -2 0\n1 2 0\n"]
_GRAPH_FLAGS = {  # (required, optional) flags of each subcommand that reads g.gr
    "vc": ([], [("--bipartite", None), ("--modulator", st.sampled_from(["0", "0,1", "", "0,x", "9"]))]),
    "tau": ([("--family", _FAMILIES)], [_RELATION, ("--budget", _SMALL)]),
    "bc": ([("--max", _SMALL)], []),
    "contract-vc": ([("-k", _SMALL), ("-d", _SMALL)], [("--witness", None)]),
    "min-contract-vc": ([("-d", _SMALL)], [("--approx", None), ("--brute", None), ("--cap", _SMALL),
                                            ("--paper-convention", None)]),
    "blocker-edge": ([("-e", st.sampled_from(["0,1"] * 4 + ["1,2", "0,2", "0,0", "9,1", "x"])),
                      ("--family", _FAMILIES)], [_RELATION]),
}
_INSTANCE_FLAGS = {"--gadget": st.sampled_from(["c4", "{dir}/h.gr"]),
                   "--clique": st.sampled_from(["3", "2", "0", "-1"]),
                   "--path": st.sampled_from(["4", "2", "-1"])}


@st.composite
def _graph_texts(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)) if n else []
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    fault = draw(st.sampled_from([None] * 12 + ["range", "loop", "duplicate", "count", "header", "junk"]))
    if fault == "range":
        pairs.append((0, n))
    elif fault == "loop":
        pairs.append((0, 0))
    elif fault == "duplicate" and pairs:
        pairs.append(pairs[0][::-1])
    header = {"count": f"{n} {len(pairs) + 1}", "header": draw(st.sampled_from([f"{n}", "x 1", "-1 0", f"{n} 0 0"]))}
    lines = [header.get(fault, f"{n} {len(pairs)}"), *(f"{u} {v}" for u, v in pairs)]
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# comment"])))
    if fault == "junk":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["1", "a b", "0 1 2", "\\x00"])))
    return "\n".join(lines) + "\n"


@st.composite
def _cnf_texts(draw):
    lines = draw(st.sampled_from(_CLEAN_CNFS)).splitlines()
    if draw(_RARELY):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(["p cnf 3 3", "p cnf 2", "p dnf 2 3", "1 3 0", "1 2", "x 0", "0",
                                         "c comment", "1 -1 0", "-2 -1 2 0"]))
    return "\n".join(lines) + "\n"


def _flags(draw, required, optional):
    """The ``required`` (flag, values) pairs, one of them now and then
    dropped, and each of the ``optional`` ones now and then, in drawn
    order; a flag with values None is a switch."""
    if required and draw(_RARELY):
        required = required[1:]
    chosen = required + [option for option in optional if draw(_RARELY)]
    argv = []
    for flag, values in draw(st.permutations(chosen)):
        argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def _commands(draw):
    command = draw(st.sampled_from([*_GRAPH_FLAGS, "reduce", "verify-claims"]))
    if command in _GRAPH_FLAGS:
        return [command, draw(st.sampled_from(["{dir}/g.gr"] * 9 + ["{dir}/missing.gr"])),
                *_flags(draw, *_GRAPH_FLAGS[command])]
    theorem = draw(st.sampled_from(["1", "2", "3"] * 3 + ["4"]))
    own = {"2": ["--clique"], "3": ["--path"]}.get(theorem, [])
    required = [("--theorem", st.just(theorem))] + [(flag, _INSTANCE_FLAGS[flag]) for flag in own]
    optional = [(flag, values) for flag, values in _INSTANCE_FLAGS.items() if flag not in own]
    if command == "reduce":
        required.append(("-o", st.just("{dir}/out")))
    else:
        optional += [("--sample-edges", _SMALL), ("--full-scan", None)]
    return [command, draw(st.sampled_from(["{dir}/f.cnf"] * 9 + ["{dir}/missing.cnf"])),
            *_flags(draw, required, optional)]


_CASES = st.tuples(_commands(), _graph_texts(), _graph_texts(), _cnf_texts())


def _write_case(folder, graph, pattern, cnf):
    for name, text in [("g.gr", graph), ("h.gr", pattern), ("f.cnf", cnf)]:
        Path(folder, name).write_text(text)


@given(_CASES)
@settings(max_examples=400, deadline=None)
def test_drawn_commands_exit_0_2_or_3(case):
    """Every drawn command returns a documented exit code from ``main``,
    with no other exception escaping, and prints a first stdout line of the
    documented form exactly when it returns 0; argparse refuses a malformed
    command line by exiting 2 itself."""
    argv, *texts = case
    with tempfile.TemporaryDirectory() as folder:
        _write_case(folder, *texts)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([token.replace("{dir}", folder) for token in argv])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3), (argv, texts, code, err.getvalue())
    first = out.getvalue().split("\n", 1)[0]
    assert (code == 0) == bool(re.fullmatch(r"YES|NO|INFEASIBLE|\d+|[a-z_]+=\S+", first)), (argv, texts, code, first)


@given(_CASES)
@settings(max_examples=10, deadline=None)
def test_drawn_commands_print_the_same_bytes_under_o_and_hash_seeds(case):
    """A drawn command prints the same stdout bytes and exits the same way
    under plain ``python`` and ``python -O``, each at two string-hash seeds."""
    argv, *texts = case
    src = str(Path(contrablock.__file__).resolve().parents[1])
    runs = set()
    with tempfile.TemporaryDirectory() as folder:
        _write_case(folder, *texts)
        for flags, seed in product([[], ["-O"]], ["0", "1"]):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, *flags, "-m", "contrablock.cli",
                                   *(token.replace("{dir}", ".") for token in argv)],
                                  cwd=folder, env=env, capture_output=True, timeout=60)
            runs.add((proc.returncode, proc.stdout))
    assert len(runs) == 1, (argv, texts, runs)
    assert next(iter(runs))[0] in (0, 2, 3), (argv, texts, runs)
