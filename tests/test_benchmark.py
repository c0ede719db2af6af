import random
import subprocess
import sys
from pathlib import Path

from graphpower import ra
from graphpower.cli import main

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # one tiny request per workload, checked against the benchmark's own
    # oracles: an answer the benchmark would reject fails here too
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout


def test_every_timed_request_passes_in_process(capsys, monkeypatch):
    # every request of every timed deck, for the benchmark's default seed and
    # seed 1, run through cli.main in this process and judged by the deck's
    # own expected exit code and answer check
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    for seed in (0, 1):
        for name, build in workloads.WORKLOADS.items():
            for req in build(random.Random(seed), False):
                with monkeypatch.context() as env:
                    for key, value in req.env.items():
                        env.setenv(key, value)
                    try:
                        rc = main(list(req.argv))
                    except SystemExit as exc:  # argparse rejects bad arguments this way
                        rc = exc.code
                out = capsys.readouterr().out
                assert rc == req.expect_rc, (seed, name, req.label, rc)
                assert req.check(out) is None, (seed, name, req.label, req.check(out))


def test_the_known_defect_relabelings_answer_in_process(capsys, monkeypatch):
    # the two relabelings the verdicts deck keeps out of its timed runs, on
    # which the Smith form of eldivs grid16x16 blew up and eldivs Q7 ran 3x
    # slower, through cli.main and the deck's own checks. Their largest
    # Smith passes charge 159549 and 24320 entries (3757312 and 692571 with
    # no unit-pivot pre-pass), so a budget of 2^18 catches a pivot order
    # that lets the labeling decide the work again
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    monkeypatch.setattr(ra, "RA_TEST_BUDGET", 1 << 18)
    import workloads

    for graph, seed in [("grid16x16", workloads.BLOWUP_RELABELING_SEED),
                        ("Q7", workloads.SLOW_Q7_RELABELING_SEED)]:
        n = workloads.oracle.family(graph)[0]
        perm = workloads.random_permutation(n, random.Random(seed))
        req = workloads.verdict_request("eldivs", graph, perm)
        assert main(list(req.argv)) == req.expect_rc == 0, graph
        out = capsys.readouterr().out
        assert req.check(out) is None, (graph, out)
