import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # one tiny request per workload, checked against the benchmark's own
    # oracles: an answer the benchmark would reject fails here too
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
