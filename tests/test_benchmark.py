import random
import subprocess
import sys
from pathlib import Path

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
