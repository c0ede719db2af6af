import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from graphpower import cli, perm, power, ra, solver, zlinalg
from graphpower.cli import build_parser, main
from graphpower.graphs import (
    complete,
    cycle,
    graph6_decode,
    graph6_encode,
    hypercube,
    is_isomorphic,
    parse_graph_spec,
)
from graphpower.schemas import (
    CLASSIFY_SCHEMA,
    GRAPH_SCHEMA,
    GROUP_REPORT_SCHEMA,
    RA_VERDICT_SCHEMA,
    SOLVE_SCHEMA,
    validate,
)
from graphpower.zlinalg import divisor_tuple_str, snf_divisors

from oracles import activation_rows_by_sets, disjoint_union, gfp_rank, ra_matrix_by_sets


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_gen_graph6(capsys):
    code, out, _ = run(capsys, "graph", "gen", "cycle", "5")
    assert code == 0
    assert is_isomorphic(graph6_decode(out.strip()), cycle(5))


def test_malformed_graph6_spec_exits_2(capsys):
    for spec in ("g6:A\x7f", "g6:A\u00e9", "g6:~??~", "g6:"):
        code, out, err = run(capsys, "ra", "check", spec)
        assert code == 2 and out == "" and "bad graph6" in err, spec


def test_graph_gen_json_and_dot(capsys):
    code, out, _ = run(capsys, "graph", "gen", "hypercube", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, GRAPH_SCHEMA)
    assert payload["n"] == 8
    code, out, _ = run(capsys, "graph", "gen", "petersen", "--format", "dot")
    assert code == 0 and out.startswith("graph G {")


def test_graph_classify(capsys):
    code, out, _ = run(capsys, "graph", "classify", "Q3")
    assert code == 0
    payload = json.loads(out)
    validate(payload, CLASSIFY_SCHEMA)
    assert payload["girth"] == 4 and payload["square_completion"] is True


def test_eldivs_fixtures(capsys):
    for spec, want in [("C4", "(1^3, 3)"), ("Q3", "(1^4, 2, 0^3)"), ("T4,1", "(1^4, 2)")]:
        code, out, _ = run(capsys, "eldivs", spec)
        assert code == 0 and out.strip() == want
    code, out, _ = run(capsys, "eldivs", "C4", "--matrix", "ra")
    assert code == 0 and out.strip() == "(1^4)"


def test_eldivs_bad_token(capsys):
    code, _, err = run(capsys, "eldivs", "Xk9")
    assert code == 2 and "Xk9" in err


def test_ra_check(capsys):
    code, out, _ = run(capsys, "ra", "check", "Q3")
    assert code == 0
    payload = json.loads(out)
    validate(payload, RA_VERDICT_SCHEMA)
    assert payload["ra"] is False
    code, out, _ = run(capsys, "ra", "check", "petersen")
    assert json.loads(out)["ra"] is True


def test_ra_check_precondition_is_input_error(capsys):
    code, _, err = run(capsys, "ra", "check", "K4")
    assert code == 2
    code, out, _ = run(capsys, "ra", "check", "K4", "--reduce")
    assert code == 0 and json.loads(out)["ra"] is True


def test_ra_gra_fixture(capsys):
    code, out, _ = run(capsys, "ra", "gra", "Q3", "--group", "D8")
    assert code == 0
    payload = json.loads(out)
    validate(payload, GROUP_REPORT_SCHEMA)
    assert payload["ra_index"] == 2 and payload["g_ra"] is False
    code, out, _ = run(capsys, "ra", "gra", "Q3", "--group", "D10")
    payload = json.loads(out)
    assert payload["ra_index"] == 1 and payload["g_ra"] is True


def test_ra_gra_and_ra_chain_count_comm_b_without_building_the_group_power(capsys, monkeypatch):
    # Q3 (index 2) is off the closed form under D8 and H2 (|[G,G]| = 2), but
    # their [G,G] is central and G^ab lifts, so Comm = Comm_b is counted
    def refuse(*args, **kwargs):
        raise AssertionError("G^graph built")
    monkeypatch.setattr(power, "graph_power", refuse)
    for command, group in [("gra", "D8"), ("chain", "D8"), ("gra", "H2")]:
        code, out, err = run(capsys, "ra", command, "Q3", "--group", group)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["ra_index"] == 2 and payload["orders"]["comm"] == 128
    # the counted |D8^Q3| = 2^7 |(D8^ab)^Q3| = 2^15 meets the cap as the
    # build did, in `ra gra` too
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", "32767")
    code, out, err = run(capsys, "ra", "gra", "Q3", "--group", "D8")
    assert code == 3 and out == "" and "32768 exceeds cap 32767" in err


def test_ra_chain(capsys):
    code, out, _ = run(capsys, "ra", "chain", "C4", "--group", "D8")
    assert code == 0
    payload = json.loads(out)
    assert payload["orders"]["comm_d"] == 8
    assert payload["orders"]["comm_b"] == 16
    assert payload["g_ra"] is True


def test_ra_chain_on_a_large_group_answers_promptly():
    # Comm_b and Comm_d come from the generators of [G,G], not from all
    # |G|^2 commutators, so S7 (|G|^2 = 25401600) answers at once
    env = {k: v for k, v in os.environ.items() if k != "GRAPHPOWER_MAX_ORDER"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "graphpower.cli", "ra", "chain", "P2",
                           "--group", "S7"], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["orders"]["comm"] == 2520 and payload["ra_index"] == 2520


def test_ra_gra_capacity_exit(capsys, monkeypatch):
    # Q3 is not RA (intersection lattice index 2), so its orders need G^Q3
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", "100")
    code, out, err = run(capsys, "ra", "gra", "Q3", "--group", "D8")
    assert code == 3 and "exceeds cap" in err and out == ""


def test_ra_gra_closed_form_above_the_cap(capsys, monkeypatch):
    # on RA graphs |G^graph| = |[G,G]|^n |(G^Ab)^graph| needs no closure
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", "100")
    code, out, _ = run(capsys, "ra", "gra", "C5", "--group", "S4")
    assert code == 0
    payload = json.loads(out)
    validate(payload, GROUP_REPORT_SCHEMA)
    assert payload["orders"]["graph_power"] == 7962624 == 24 ** 5
    assert payload["ra_index"] == 1 and payload["g_ra"] is True
    monkeypatch.delenv("GRAPHPOWER_MAX_ORDER")
    for graph, group, order in [("petersen", "S4", 1981355655168), ("C5", "H7", 4747561509943)]:
        code, out, _ = run(capsys, "ra", "gra", graph, "--group", group)
        assert code == 0 and json.loads(out)["orders"]["graph_power"] == order


def test_ra_gra_answers_when_the_lattice_index_is_prime_to_the_commutator_order(capsys):
    # FQ5 and Q7 are not RA (lattice index 2), but 2 is prime to
    # |[H_p, H_p]| = p, so Comm = [G,G]^n and G^graph is not built (both
    # requests exited 3 on the cap when it was)
    for graph, p in [("FQ5", 3), ("Q7", 5)]:
        code, out, err = run(capsys, "ra", "gra", graph, "--group", f"H{p}")
        assert code == 0, err
        payload = json.loads(out)
        validate(payload, GROUP_REPORT_SCHEMA)
        g = parse_graph_spec(graph)
        span = p ** gfp_rank(activation_rows_by_sets(g), p)  # H_p^ab = Z_p x Z_p
        assert payload["orders"] == {"comm": p ** g.n, "full_commutator_power": p ** g.n,
                                     "abelian_power": span ** 2,
                                     "graph_power": p ** g.n * span ** 2}
        assert payload["ra_index"] == 1 and payload["g_ra"] is True


def test_ra_gra_answers_where_the_early_stop_basis_keeps_the_span_under_its_budget(capsys):
    # each span mod |[G,G]| of the u <= v rows passed RA_TEST_BUDGET when it
    # eliminated every row, so the closed form was lost and the request
    # exited 3 on the cap; the basis stops at full rank and the closed form
    # answers. The abelian part is checked by the list kernel mod p on the
    # set-based activation rows, p^rank for each of the f factors Z_p of G^ab
    for graph, group, p, f, k in [("Q9", "S3", 2, 1, 3), ("FQ10", "A4", 3, 1, 4),
                                  ("K3,300", "H5", 5, 2, 5)]:
        code, out, err = run(capsys, "ra", "gra", graph, "--group", group)
        assert code == 0, (graph, err)
        payload = json.loads(out)
        validate(payload, GROUP_REPORT_SCHEMA)
        g = parse_graph_spec(graph)
        rows = [[x % p for x in row] for row in activation_rows_by_sets(g)]
        span = p ** len(zlinalg._echelon(rows, g.n, p)[1])
        assert payload["orders"] == {"comm": k ** g.n, "full_commutator_power": k ** g.n,
                                     "abelian_power": span ** f,
                                     "graph_power": span ** f * k ** g.n}
        assert payload["ra_index"] == 1 and payload["g_ra"] is True


def test_ra_gra_builds_the_group_power_when_a_prime_divides_index_and_commutator_order(capsys):
    # Q7's index 2 divides |[D8,D8]| = 2, so its rows do not span mod 2 and
    # the closed form fails. Comm = Comm_b is counted without D8^Q7 ([D8,D8]
    # is central and D8^ab lifts), but that route keeps the build's cap rule,
    # and a greedy independent set shows |D8^Q7| >= 8^11 > 2^30 (see below)
    code, out, err = run(capsys, "ra", "gra", "Q7", "--group", "D8")
    assert code == 3 and out == "" and "exceeds cap" in err


def test_ra_gra_stops_before_building_a_group_power_over_the_cap(capsys, monkeypatch):
    # G^graph projects onto G^S for an independent set S, so |D8^Q7| is at
    # least 8^11 > 2^30 after 11 vertices of a greedy one; nothing is built
    def refuse(*args, **kwargs):
        raise AssertionError("G^graph built")
    monkeypatch.setattr(power, "graph_power", refuse)
    code, out, err = run(capsys, "ra", "gra", "Q7", "--group", "D8")
    assert code == 3 and out == "" and f"at least {8 ** 11} exceeds cap" in err


def test_ra_chain_capacity_exit(capsys, monkeypatch):
    # on C5 (RA) the chain takes the closed form and builds no subgroup of
    # G^n, but the closed-form |H7^C5| = 7^15 still meets the cap
    def refuse(*args, **kwargs):
        raise AssertionError("a subgroup of G^n was built")
    monkeypatch.setattr(power, "PermGroup", refuse)
    code, out, err = run(capsys, "ra", "chain", "C5", "--group", "H7")
    assert code == 3 and out == "" and "exceeds cap" in err
    assert "4747561509943" in err and str(perm.DEFAULT_MAX_ORDER) in err


def test_ra_chain_under_a_raised_cap_reads_the_sandwich(capsys, monkeypatch):
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", str(10 ** 15))
    code, out, err = run(capsys, "ra", "chain", "C5", "--group", "H7")
    assert code == 0, err
    payload = json.loads(out)
    assert list(payload["orders"].values()) == [7 ** 5] * 5 and payload["ra_index"] == 1


def test_ra_chain_cap_applies_to_the_group_power_only(capsys, monkeypatch):
    # petersen's lattices have index 1 both ways, so the chain takes the
    # closed form: every order is 12^10 > 2^30, and only the closed-form
    # |S4^petersen| = 1.98e12 meets the raised cap
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", "10000000000000")
    code, out, err = run(capsys, "ra", "chain", "petersen", "--group", "S4")
    assert code == 0, err
    assert set(json.loads(out)["orders"].values()) == {12 ** 10}


def test_ra_chain_cap_bounds_the_group_power_exactly(capsys, monkeypatch):
    # |D8^Q3| = 2^15: the chain answers at that cap and exits 3 just below it
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", "32768")
    code, out, _ = run(capsys, "ra", "chain", "Q3", "--group", "D8")
    assert code == 0 and json.loads(out)["orders"]["full_commutator_power"] == 256
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", "32767")
    code, out, err = run(capsys, "ra", "chain", "Q3", "--group", "D8")
    assert code == 3 and out == "" and "exceeds cap 32767" in err


def test_past_the_schreier_sims_budget_exits_3(capsys, monkeypatch):
    # building S10 to its known order writes 5050 permutation entries and its
    # derived subgroup A10 10950; the chain on C4 (RA) builds no S5^C4, but
    # C4's u < v index 2 divides |A5| = 60, so Comm_d is a closure on 20
    # points (25020 entries)
    for argv in [("ra", "gra", "C4", "--group", "S10"), ("ra", "chain", "C4", "--group", "S5")]:
        code, _, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(perm, "SCHREIER_SIMS_BUDGET", 10000)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "Schreier-Sims" in err and "10000" in err
        monkeypatch.undo()


def test_ra_gra_over_the_ra_test_budget_takes_the_closure(capsys, monkeypatch):
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 74)  # C5 has 15 distinct rows, 75 entries
    monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", "100")
    code, out, err = run(capsys, "ra", "gra", "C5", "--group", "S4")
    assert code == 3 and out == "" and "exceeds cap" in err
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 1000)
    code, out, _ = run(capsys, "ra", "gra", "C5", "--group", "S4")
    assert code == 0 and json.loads(out)["orders"]["graph_power"] == 24 ** 5


def test_ra_check_past_the_ra_test_budget_exits_3(capsys, monkeypatch):
    # Q5: 272 distinct intersection rows of 32 entries (8704 in all), whose
    # elimination over Z rewrites between 50000 and 100000 entries
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 8703)
    code, out, err = run(capsys, "ra", "check", "Q5")
    assert code == 3 and out == "" and "8704 entries" in err and "budget of 8703" in err
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 50000)
    code, out, err = run(capsys, "ra", "check", "Q5")
    assert code == 3 and out == "" and "50000" in err
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 100000)
    code, out, _ = run(capsys, "ra", "check", "Q5")
    assert code == 0 and json.loads(out)["ra"] is False


def test_eldivs_ra_matrix_past_the_ra_test_budget_exits_3(capsys, monkeypatch):
    code, out, _ = run(capsys, "eldivs", "Q5", "--matrix", "ra")
    assert code == 0 and out.strip() == "(1^31, 2)"
    # the 272 distinct rows of Q5's 528 x 32 matrix hold 8704 entries
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 8703)
    code, out, err = run(capsys, "eldivs", "Q5", "--matrix", "ra")
    assert code == 3 and out == "" and "8704 entries" in err and "budget of 8703" in err


def test_eldivs_past_the_work_budget_exits_3(capsys, monkeypatch):
    # Q8's activation SNF ran for minutes with no bound, and Q9's RA test
    # eliminates 12032 distinct rows; both stop on the budget of 2^24
    # entries, whatever share of a charged row operation is written
    code, out, err = run(capsys, "eldivs", "Q8")
    assert (code, out, err) == (
        3, "", "capacity: the elimination rewrites more entries than its budget of 16777216\n")
    code, out, err = run(capsys, "ra", "check", "Q9")
    assert (code, out, err) == (
        3, "", "capacity: RA test: the elimination rewrites more entries than its budget of 16777216\n")
    # Q5's 272 distinct intersection rows (8704 entries) fit a budget of 50000
    # entries, but their elimination rewrites more
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 50000)
    code, out, err = run(capsys, "eldivs", "Q5", "--matrix", "ra")
    assert code == 3 and out == "" and "rewrites more entries than its budget of 50000" in err


def test_eldivs_ra_matrix_reads_the_distinct_rows(capsys):
    # the divisors of the distinct nonzero rows, padded with zeros to n, are
    # those of the full n(n+1)/2 x n matrix
    graphs = [parse_graph_spec(s) for s in ("Q5", "Q6", "FQ5", "petersen", "grid6x6", "C12",
                                            "K3,4", "St6", "K5")]
    graphs.append(disjoint_union(complete(3), complete(2)))
    want = [divisor_tuple_str(snf_divisors(ra_matrix_by_sets(g))) for g in graphs]
    assert want[-2:] == ["(1, 0^4)", "(1^2, 0^3)"]
    for g, expected in zip(graphs, want):
        code, out, _ = run(capsys, "eldivs", "g6:" + graph6_encode(g), "--matrix", "ra")
        assert code == 0 and out.strip() == expected


def test_ra_check_bounds_the_distinct_rows_not_the_full_matrix(capsys):
    # grid20x20's full matrix would have 32 million entries, but its 2278
    # distinct rows hold 0.9 million
    code, out, _ = run(capsys, "ra", "check", "grid20x20")
    assert code == 0 and json.loads(out)["ra"] is True
    # Q10 has 29184 distinct rows of 1024 entries: the builder stops before
    # holding them all, and no elimination runs
    code, out, err = run(capsys, "ra", "check", "Q10")
    assert code == 3 and out == ""
    assert "distinct intersection rows" in err and f"budget of {ra.RA_TEST_BUDGET}" in err


def test_heisenberg_limit(capsys):
    # the abelianization of H_p builds one subgroup, so H31 answers; H37 is
    # past the limit and a bad group spec
    code, out, _ = run(capsys, "ra", "gra", "C5", "--group", "H31")
    assert code == 0
    payload = json.loads(out)
    validate(payload, GROUP_REPORT_SCHEMA)
    assert payload["orders"]["graph_power"] == 31 ** 15 and payload["ra_index"] == 1
    code, out, err = run(capsys, "ra", "gra", "C5", "--group", "H37")
    assert code == 2 and out == "" and "H37" in err


def test_bad_group_spec(capsys):
    code, _, err = run(capsys, "ra", "gra", "C4", "--group", "Z9")
    assert code == 2 and "Z9" in err


def test_census_csv_and_oeis(capsys, tmp_path):
    code, out, err = run(capsys, "ra", "census", "--max-n", "5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "graph6", "divisors", "ra", "method", "witness"]
    assert "full-lattice counts: 1,0,1,1,6" in err
    body = rows[1:]
    assert all(r[3] == "1" for r in body)

    good = tmp_path / "b.txt"
    good.write_text("1 1\n2 0\n3 1\n4 3\n5 11\n")
    code, _, err = run(capsys, "ra", "census", "--max-n", "5", "--oeis", str(good))
    assert code == 0 and "MISMATCH" not in err

    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 0\n3 1\n4 3\n5 12\n")
    code, _, err = run(capsys, "ra", "census", "--max-n", "5", "--oeis", str(bad))
    assert code == 4 and "MISMATCH" in err


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_census_stdout_is_pinned_to_seven_vertices(capsys):
    code, out, err = run(capsys, "ra", "census", "--max-n", "7")
    assert code == 0 and err == "full-lattice counts: 1,0,1,1,6,20,172\n"
    assert _sha256(out) == "51320996cc457a6e5c3404a3581f803c52c775757a1058b8ccff85e89217c97b"


@pytest.mark.slow
def test_census_stdout_is_pinned_to_eight_vertices_with_a_one_line_note(capsys):
    # the library's size warning reaches stderr as one note line, without the
    # file, line number and source line of a printed UserWarning
    code, out, err = run(capsys, "ra", "census", "--max-n", "8")
    assert code == 0
    assert _sha256(out) == "78cadbfdf29883ca85d80a0d86e99d56d909be9a1497bf3d13e5389df112a8e5"
    note, counts = err.splitlines()
    assert note.startswith("note: census at n = 8 enumerates 11117 graph classes; about ")
    assert counts == "full-lattice counts: 1,0,1,1,6,20,172,1916"


def test_census_rejects_a_bad_b_file_before_the_census(capsys, tmp_path):
    # a malformed line, a file that is not UTF-8, and a directory
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("1 1\n2 abc\n")
    short = tmp_path / "short.txt"
    short.write_text("1 1\n2\n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"1 1\n\xff\xfe 2\n")
    for path, reason in ((malformed, "line 2"), (short, "line 2"), (binary, "utf-8"),
                         (tmp_path, "cannot read")):
        code, out, err = run(capsys, "ra", "census", "--max-n", "5", "--oeis", str(path))
        assert code == 2 and out == "" and reason in err, (path, err)


def test_graph_json_needs_integer_vertices_and_pairs(capsys, tmp_path):
    spec = tmp_path / "g.json"
    for text in ('{"n": 4.7, "edges": []}', '{"n": true, "edges": []}',
                 '{"n": "4", "edges": []}', '{"n": 4, "edges": [[0, true]]}',
                 '{"n": 4, "edges": [[0, 1.0]]}', '{"n": 4, "edges": [[0, 1, 2]]}',
                 '{"n": 4, "edges": [3]}'):
        spec.write_text(text)
        code, out, err = run(capsys, "graph", "classify", f"@{spec}")
        assert code == 2 and out == "" and str(spec) in err, text
    spec.write_text('{"n": 4, "edges": [[0, 1], [3, 2]]}')
    code, out, _ = run(capsys, "graph", "classify", f"@{spec}")
    assert code == 0 and json.loads(out)["components"] == [[0, 1], [2, 3]]


def test_deeply_nested_graph_json_exits_2(capsys, tmp_path):
    spec = tmp_path / "deep.json"
    spec.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "graph", "classify", f"@{spec}")
    assert code == 2 and out == "" and "bad graph JSON" in err


def test_census_past_eight_vertices_exits_3(capsys):
    code, out, err = run(capsys, "ra", "census", "--max-n", "9")
    assert code == 3 and out == "" and "261080" in err
    with pytest.raises(SystemExit) as exc:  # argparse rejects the removed option
        main(["ra", "census", "--max-n", "5", "--allow-eight"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


LEAVES = [["graph", "gen"], ["graph", "classify"], ["eldivs"], ["ra", "check"], ["ra", "gra"],
          ["ra", "chain"], ["ra", "census"], ["solve"]]


@pytest.mark.parametrize("argv, code", [
    *(([*leaf, "--help"], 0) for leaf in [[], ["graph"], ["ra"], *LEAVES]),
    (["bogus"], 2),
    (["ra", "census"], 2),
], ids=lambda value: "_".join(value) if isinstance(value, list) else None)
def test_help_and_usage_errors_match_the_full_parser(capsys, argv, code):
    """main parses none of these lines from the command table, so its help
    and usage errors are those of the parser with every command built."""
    def exit_of(call):
        with pytest.raises(SystemExit) as exc:
            call()
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    got = exit_of(lambda: main(argv))
    assert got[0] == code
    assert got == exit_of(lambda: build_parser().parse_args(argv))


def _argparse_vars(parser, argv):
    """vars() of the namespace argparse gives argv, or None when it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _sample_value(rng, kwargs):
    """A value for an argument of the command table: mostly one it takes,
    sometimes a bad choice or int, sometimes one that starts with '-'."""
    if rng.random() < 0.1:
        return rng.choice(["-1,0", "-3", "-", "--x", "-h"])
    if "choices" in kwargs:
        return rng.choice(list(kwargs["choices"]) + ["nope"])
    if kwargs.get("type") is int:
        return rng.choice(["7", "3", " 5", "x", "2.5"])
    return rng.choice(["Q3", "C4", "4", "H3", "2,3", "Z", "1,0,0,0", "", "a=b", "g6:Cw",
                       '{"0": [1, 2]}'])


def _random_command_line(rng):
    """A seeded command line built from the command table: the words of a
    leaf, its positionals and options, and now and then an abbreviated,
    repeated, missing or unknown option, the '=' form, a flag with a value,
    an extra or moved positional, a wrong command word, '-h' or '--'."""
    leaves = [(path, arguments) for path, (_, func, arguments) in cli._COMMANDS.items() if func]
    path, arguments = rng.choice(leaves)
    words, positionals, options = list(path), [], []
    for (name,), kwargs in arguments:
        if not name.startswith("-"):
            count = rng.randint(0, 3) if kwargs.get("nargs") == "*" else 1
            positionals += [_sample_value(rng, kwargs) for _ in range(count)]
        elif "action" in kwargs:
            if rng.random() < 0.5:
                options.append([name + "=1" if rng.random() < 0.05 else name])
        elif kwargs.get("required") or rng.random() < 0.5:
            options.append([name, _sample_value(rng, kwargs)])
    for option in options:
        if rng.random() < 0.1:
            option[0] = option[0][:rng.randint(3, len(option[0]) - 1)]
        if len(option) == 2 and rng.random() < 0.3:
            option[:] = ["=".join(option)]
    if options and rng.random() < 0.1:
        options.append(list(rng.choice(options)))
    if options and rng.random() < 0.1:
        options.remove(rng.choice(options))
    if rng.random() < 0.05:
        options.append(["--bogus"])
    if rng.random() < 0.1:
        positionals.append("Q3")
    if rng.random() < 0.05:
        words[-1] = rng.choice(["bogus", words[-1][:-1]]) if rng.random() < 0.5 else ""
        words = [w for w in words if w]
    rng.shuffle(options)
    tail = [token for option in options for token in option]
    argv = words + (tail + positionals if rng.random() < 0.1 else positionals + tail)
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(["-h", "--help", "--"]))
    return argv


@pytest.mark.parametrize("argv, taken", [
    (["ra", "gra", "Q3", "--group", "H3"], True),
    (["ra", "gra", "Q3", "--reduce", "--group=H3"], True),
    (["solve", "C4", "--moduli", "Z", "--target=-1,0,0,0"], True),
    (["solve", "C4", "--target=", "--moduli", "3"], True),
    (["graph", "gen", "grid", "3", "3", "--format", "dot"], True),
    (["graph", "gen", "grid"], True),
    (["ra", "census", "--max-n", "7", "--oeis", "a=b"], True),
    (["eldivs", "", "--matrix=ra"], True),
    (["ra", "gra", "Q3", "--gr", "H3"], False),  # an abbreviation
    (["ra", "gra", "Q3", "--group", "H3", "--group", "D8"], False),  # repeated
    (["solve", "C4", "--moduli", "Z", "--target", "-1,0,0,0"], False),  # value after '-'
    (["ra", "gra", "Q3"], False),  # --group missing
    (["ra", "check", "Q3", "Q5"], False),  # an extra positional
    (["ra", "check", "--reduce", "Q3"], False),  # a positional after an option
    (["ra", "check", "Q3", "--reduce=1"], False),  # a flag with a value
    (["eldivs", "Q3", "--matrix", "bogus"], False),
    (["graph", "gen", "cycle", "5", "--format", "svg"], False),
    (["ra", "census", "--max-n", "seven"], False),
    (["ra", "check", "Q3", "-h"], False),
    (["ra", "check", "--", "Q3"], False),
    (["graph", "gen", "grid", "--format", "dot", "3", "3"], False),  # params after --format
    (["ra", "Q3"], False),
    ([], False),
], ids=lambda value: "_".join(value) or "empty" if isinstance(value, list) else None)
def test_the_table_parse_takes_only_what_argparse_takes_alike(argv, taken):
    got = cli._match(argv)
    assert (got is not None) == taken
    want = _argparse_vars(build_parser(), argv)
    if got is not None:
        assert vars(got) == want


def test_the_table_parse_agrees_with_argparse_on_random_command_lines():
    # argparse is the oracle: a line the table parse takes, argparse takes
    # with the same namespace, and a line argparse refuses goes to argparse
    parser, rng = build_parser(), random.Random(29)
    taken = refused = 0
    for _ in range(1500):
        argv = _random_command_line(rng)
        got, want = cli._match(argv), _argparse_vars(parser, argv)
        if got is not None:
            assert vars(got) == want, argv
            taken += 1
        refused += want is None
    assert taken > 500 and refused > 300, (taken, refused)


def test_every_timed_request_takes_the_table_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    parser = build_parser()
    for seed in range(6):
        for name, build in workloads.WORKLOADS.items():
            for req in build(random.Random(seed), False):
                got = cli._match(req.argv)
                assert got is not None, (seed, name, req.argv)
                assert vars(got) == _argparse_vars(parser, req.argv), (seed, name, req.argv)


def _cli_in_a_child(*argv):
    """(exit code, stdout, stderr without the import lines, the modules
    imported) of `python -X importtime -m graphpower.cli argv`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "graphpower.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    lines = proc.stderr.splitlines(keepends=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    err = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, err, imported


def test_a_well_formed_command_never_imports_argparse(capsys, monkeypatch):
    code, out, _, imported = _cli_in_a_child("ra", "gra", "Q3", "--group", "H3")
    assert code == 0 and json.loads(out)["ra_index"] == 1
    assert "argparse" not in imported and "graphpower.zlinalg" in imported
    code, out, _, imported = _cli_in_a_child("solve", "C4", "--moduli", "Z",
                                             "--target=-1,0,0,0")
    assert code == 0 and json.loads(out)["solvable"] is False
    assert "argparse" not in imported
    # help and usage errors still come from the full parser
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err, imported = _cli_in_a_child("--help")
    assert (code, out, err) == (0, build_parser().format_help(), "")
    assert "argparse" in imported
    code, out, err, _ = _cli_in_a_child("ra", "gra", "Q3")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["ra", "gra", "Q3"])
    assert exc.value.code == 2
    assert (code, out, err) == (2, "", capsys.readouterr().err)


def test_solve_solvable(capsys):
    code, out, _ = run(capsys, "solve", "grid5x5", "--moduli", "2",
                       "--target", ",".join(["1"] * 25))
    assert code == 0
    payload = json.loads(out)
    validate(payload, SOLVE_SCHEMA)
    assert payload["solvable"] is True
    assert len(payload["clicks"][0]) == 25
    assert payload["schedule"]


def test_solve_unsolvable_witness(capsys):
    code, out, err = run(capsys, "solve", "C4", "--moduli", "Z", "--target", "1,0,0,0")
    assert code == 0
    payload = json.loads(out)
    validate(payload, SOLVE_SCHEMA)
    assert payload["solvable"] is False
    assert payload["witness"]["vertex"] == 3
    assert "UNSOLVABLE" in err


def test_solve_json_target(capsys):
    code, out, _ = run(capsys, "solve", "P3", "--moduli", "2,3",
                       "--target", '{"0": [1, 2], "2": [1, 0]}')
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] is True


def test_solve_bad_target_length(capsys):
    code, _, err = run(capsys, "solve", "C4", "--moduli", "2", "--target", "1,0")
    assert code == 2 and "4 vertices" in err


def test_solve_target_with_an_empty_entry_exits_2(capsys):
    # five fields of which one is empty are not the four entries of C4
    for target in ("1,,0,0,0", "1,0,0,0,", ",1,0,0,0", "1, ,0,0"):
        code, out, err = run(capsys, "solve", "C4", "--moduli", "2", "--target", target)
        assert code == 2 and out == "" and "empty entry" in err, target


def test_bad_family_parameter(capsys):
    code, _, err = run(capsys, "graph", "gen", "cycle", "four")
    assert code == 2 and "integers" in err


def test_bad_json_target(capsys):
    code, _, err = run(capsys, "solve", "C4", "--moduli", "2",
                       "--target", '{"zero": 1}')
    assert code == 2


def test_solve_zero_modulus(capsys):
    code, out, err = run(capsys, "solve", "C4", "--moduli", "0", "--target", "1,0,0,0")
    assert code == 2 and out == "" and ">= 2" in err


def test_solve_non_integer_json_value(capsys):
    nested = '{"0": ' + "[" * 50000 + "]" * 50000 + "}"
    for target in ('{"0": "abc"}', nested, '{"0": 1.5}', '{"1": true}',
                   '{"0": 1.5, "1": true}', '{"0": [1, 2.0]}', '{"0": [false, 1]}'):
        code, out, err = run(capsys, "solve", "C4", "--moduli", "3", "--target", target)
        assert code == 2 and out == "" and "bad JSON target" in err


def test_solve_missing_target_file(capsys, tmp_path):
    missing = tmp_path / "missing-target.txt"
    code, out, err = run(capsys, "solve", "C4", "--moduli", "3", "--target", f"@{missing}")
    assert code == 2 and out == "" and "cannot read target file" in err


def test_nonpositive_max_order(capsys, monkeypatch):
    for raw in ("0", "-5"):
        monkeypatch.setenv("GRAPHPOWER_MAX_ORDER", raw)
        code, out, err = run(capsys, "ra", "chain", "C4", "--group", "D8")
        assert code == 2 and out == "" and "must be positive" in err


def test_oversized_graphs_exit_capacity(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1000000000, "edges": []}')
    for spec in ("Q30", "K100000", "grid100000x100000", f"@{huge}"):
        code, out, err = run(capsys, "graph", "classify", spec)
        assert code == 3 and out == "" and "cap" in err
    code, out, err = run(capsys, "graph", "gen", "hypercube", "30")
    assert code == 3 and out == ""


_RA_CHILD = """
import contextlib, io, json, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from graphpower.cli import main
results = []
for spec in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ra", sys.argv[2], "C4", "--group", spec])
    except Exception as exc:
        code = type(exc).__name__
    results.append([spec, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def _ra_in_a_child(specs, timeout, command="gra"):
    """[spec, exit code or the name of what main raised, stdout, stderr] of
    `ra <command> C4 --group spec` for each spec, run in turn in one child
    process under a 1 GB address-space limit, so that a spec that allocates
    too much fails there and not in the test runner."""
    env = {k: v for k, v in os.environ.items() if k != "GRAPHPOWER_MAX_ORDER"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RA_CHILD, str(1 << 30), command], env=env,
                          input=json.dumps(specs), capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_oversized_groups_exit_capacity():
    # each spec needs more than SCHREIER_SIMS_BUDGET entries for the
    # transversals of its chain alone, and is refused before any of its
    # permutations is allocated
    degrees = {"S3000000": 3000000, "C3000000": 3000000, "D6000000": 3000000,
               "A3000000": 3000000, "S100000000": 100000000, "C5794": 5794,
               "C2xS3000000": 3000000, "x".join(["C2"] * 20000): 40000}
    for spec, code, out, err in _ra_in_a_child(list(degrees), timeout=60):
        assert (code, out) == (3, ""), (spec[:20], code, err[-300:])
        assert err == (f"capacity: Schreier-Sims on {degrees[spec]} points needs more than "
                       f"{perm.SCHREIER_SIMS_BUDGET} permutation entries\n")


def test_products_of_hundreds_of_c2_factors_exit_capacity_or_answer():
    # ra gra forms a commutator of each pair of the k generators, three
    # products of 2k entries each; from k = 283 on, those alone pass the
    # Schreier-Sims budget, and none is formed. ra chain reads the known order
    # 2^k and stops at the cap before it builds a chain. 200 factors answer.
    counts = (200, 283, 1000, 4096)
    specs = ["x".join(["C2"] * k) for k in counts]
    gra = _ra_in_a_child(specs, timeout=120)
    chain = _ra_in_a_child(specs, timeout=60, command="chain")
    for k, (_, code, out, err), (_, chain_code, chain_out, chain_err) in zip(counts, gra, chain):
        if k == 200:
            assert code == 0 and json.loads(out)["orders"]["full_commutator_power"] == 1
        else:
            assert (code, out, err) == (3, "", f"capacity: Schreier-Sims on {2 * k} points needs "
                                               f"more than {perm.SCHREIER_SIMS_BUDGET} "
                                               f"permutation entries\n"), k
        assert (chain_code, chain_out) == (3, ""), k
        assert chain_err == f"capacity: predicted order at least {2 ** k} exceeds cap " \
                            f"{perm.DEFAULT_MAX_ORDER}\n", k


def _fuzzed_group_specs(seed: int) -> list:
    """About 200 group specs from one seed: one to three factors of C, D, S,
    A, H or a junk letter, with an order of 0-12 or 10^6-10^12; some joins
    malformed (a bare x, a doubled x, a trailing x); and products of C2
    factors: two of a seeded 283-4096 factors, one of 4096 (the most the
    group-spec bound admits) and three of thousands more."""
    rng = random.Random(seed)

    def factor():
        letter = rng.choice("CDSAH") if rng.random() < 0.85 else rng.choice("BZcq")
        return letter + str(rng.randint(0, 12) if rng.random() < 0.7
                            else rng.randint(10 ** 6, 10 ** 12))
    specs = []
    for _ in range(200):
        spec = "x".join(factor() for _ in range(rng.randint(1, 3)))
        roll = rng.random()
        if roll < 0.04:
            spec = "x"
        elif roll < 0.08:
            spec += "x"
        elif roll < 0.12:
            spec = spec.replace("x", "xx", 1) if "x" in spec else "xx" + spec
        specs.append(spec)
    counts = [rng.randint(283, 4096) for _ in range(2)] + [4096, 5000, 12000, 20000]
    return specs + ["x".join(["C2"] * k) for k in counts]


def test_fuzzed_group_specs_keep_the_exit_code_contract():
    # every spec answers (0), is refused as input (2) or as over a budget or
    # the cap (3), with no traceback and nothing on stdout unless it answers.
    # Orders of about 10^3-10^4 are left out only because they correctly take
    # seconds: S2000 exits 3 on the Schreier-Sims budget in 4.7 s and C5000
    # answers in 12.6 s
    for seed in (1, 2, 3):
        results = _ra_in_a_child(_fuzzed_group_specs(seed), timeout=120)
        assert len(results) == 206
        for spec, code, out, err in results:
            assert code in (0, 2, 3), (spec[:40], code, err[-300:])
            assert out == "" if code else json.loads(out)["group"] == spec, spec[:40]
        assert {code for _, code, _, _ in results} == {0, 2, 3}


def test_oversized_spec_numbers_are_input_errors(capsys):
    # int() refuses strings past 4300 digits; that must not end in a traceback
    code, out, err = run(capsys, "graph", "classify", "Q" + "9" * 5000)
    assert code == 2 and out == "" and "number too long" in err
    code, out, err = run(capsys, "ra", "gra", "C4", "--group", "C" + "9" * 5000)
    assert code == 2 and out == "" and "bad group order" in err


def test_solve_consistency_fault_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(solver, "row_solve",
                        lambda M, target, r=0, budget=None: ((0,) * M.rows, None))
    for moduli in ("Z", "3"):
        code, out, err = run(capsys, "solve", "C4", "--moduli", moduli, "--target", "1,1,1,0")
        assert code == 4 and out == "" and "consistency" in err


def test_hypercube_gen_matches_library(capsys):
    code, out, _ = run(capsys, "graph", "gen", "hypercube", "3", "--format", "graph6")
    assert code == 0
    assert is_isomorphic(graph6_decode(out.strip()), hypercube(3))


def test_ra_check_consistent_with_heisenberg_group_verdict(capsys):
    # a graph verdict of RA must never coexist with g_ra false over H(F_2)
    for spec in ["C4", "C5", "Q3", "St3", "petersen"]:
        code, out, _ = run(capsys, "ra", "check", spec)
        assert code == 0
        ra_true = json.loads(out)["ra"]
        code, out, _ = run(capsys, "ra", "gra", spec, "--group", "H2")
        assert code == 0
        g_ra = json.loads(out)["g_ra"]
        if ra_true:
            assert g_ra


@pytest.mark.slow
def test_solve_prints_the_same_with_the_list_kernel_under_the_packed_one(capsys, monkeypatch):
    # the packed kernel mod 2 against _echelon behind its signature: the same
    # bytes for solvable targets on grid30x30 and Q10 and an obstructed one
    argvs = [["solve", graph, "--moduli", "2", "--target", target]
             for graph, n in (("grid30x30", 900), ("Q10", 1024))
             for target in (",".join(["1"] * n), '{"0": 1}')]
    want = [run(capsys, *argv) for argv in argvs]
    assert [json.loads(out)["solvable"] for _, out, _ in want] == [True, False, True, True]

    def via_lists(rows, n, width, p, budget=None):
        rows, pivots = zlinalg._echelon([zlinalg._unpack(x, width, p) for x in rows], n, p,
                                        budget=budget)
        return zlinalg._pack(rows, p), pivots
    monkeypatch.setattr(zlinalg, "_prime_echelon", via_lists)
    assert [run(capsys, *argv) for argv in argvs] == want
