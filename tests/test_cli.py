import pytest

from contrablock.cli import main

P4 = "4 3\n0 1\n1 2\n2 3\n"
C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
C5 = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
TREE = "5 4\n0 1\n0 2\n1 3\n1 4\n"
PHI0 = "p cnf 2 3\n1 2 0\n1 -2 0\n-1 2 0\n"


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

    def test_long_path_has_no_recursion_limit(self, tmp_path, capsys):
        # augmenting paths on P2000 are far longer than the interpreter's recursion limit
        path = tmp_path / "p2000.gr"
        path.write_text("2000 1999\n" + "".join(f"{i} {i + 1}\n" for i in range(1999)))
        code, out = run(capsys, ["vc", str(path), "--bipartite"])
        assert code == 0 and out.splitlines()[0] == "1000"
        code, out = run(capsys, ["contract-vc", str(path), "-k", "1", "-d", "1"])
        assert code == 0 and out == "YES\n"

    def test_tau_fvs_on_tree(self, files, capsys):
        code, out = run(capsys, ["tau", files["tree.gr"], "--family", "fvs"])
        assert code == 0 and out == "0\n"

    def test_tau_budget_exceeded(self, files, capsys):
        code = main(["tau", files["c5.gr"], "--family", "vc", "--budget", "2"])
        assert code == 3

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

    def test_reduce_theorem2_requires_clique(self, files, capsys):
        code = main(["reduce", files["phi0.cnf"], "--theorem", "2", "-o", "/tmp/x"])
        assert code == 2


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
