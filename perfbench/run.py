"""graphpower benchmark: CLI requests end to end, and per layer when traced.

    python3 perfbench/run.py --request-timeout 30 --workload census --seed 1 \
        --seconds 25 --trace 0

A closed loop with one client sends one request at a time. Each request runs
`graphpower.cli.main(argv)` in a fresh interpreter (perfbench/child.py), as
the `graphpower` command does, so nothing cached in one request helps the
next; the latency timer sits inside the child around main. The seed builds
the request deck (relabelings, targets, order); the run repeats whole passes
over the deck until another pass would end after --seconds, so every run
measures the same mix. Timings are scaled to a reference speed of the host
by a calibration loop in each child (see end_to_end). Every answer is
checked.

--trace 0 prints the end-to-end metrics. --trace 1 runs each request twice,
untraced and traced, and prints the per-layer metrics (per pass over the
deck) from the traced copies, plus the tracing overhead from the pairs.
--workload all runs all four workloads; --known-defects adds the requests
that fail today; --self-test checks the harness itself on tiny inputs.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Run output goes to perfbench/results/ (spans of traced runs too).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "peak_rss_mb": "MB"}
# the calibration loop's median time (child.py) on the machine of baseline.json
REFERENCE_CALIBRATION_S = 0.031
WARMUP = workloads.Request(
    "warm-up eldivs C4", ["eldivs", "C4"], 0,
    lambda out: None if out.strip() == "(1^3, 3)" else "wrong divisors")


@dataclass
class Result:
    label: str
    traced: bool
    wall: float  # spawn to reaped, seconds
    setup: Optional[float] = None  # spawn to just before main
    latency: Optional[float] = None  # main, measured inside the child
    rc: Optional[int] = None
    maxrss_mb: Optional[float] = None
    stdout_bytes: int = 0
    spans: Optional[list] = None
    wrapped: Optional[list] = None  # traced: the attributes the tracer replaced
    missing: Optional[list] = None  # traced: targets the program no longer has
    failure: Optional[str] = None
    slot: int = -1  # position in the deck
    calibration: Optional[float] = None  # the child's calibration loop, seconds


def child_env(extra):
    env = {k: v for k, v in os.environ.items() if k != "GRAPHPOWER_MAX_ORDER"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # identical set orders, so counts repeat exactly
    env.update(extra)
    return env


def run_child(req, traced, timeout):
    """Run one request in a fresh interpreter and judge it."""
    spec = json.dumps({"argv": req.argv, "trace": traced})
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, spec], cwd=ROOT, env=child_env(req.env),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Result(req.label, traced, time.monotonic() - t_spawn,
                      failure=f"passed the {timeout:g} s time limit")
    wall = time.monotonic() - t_spawn
    try:
        rec = json.loads(out)
    except ValueError:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
        return Result(req.label, traced, wall, failure="benchmark child died: " + tail[0])
    res = Result(req.label, traced, wall, rec["ready"] - t_spawn, rec["latency"], rec["rc"],
                 rec["maxrss_kb"] / 1024, len(rec["stdout"].encode()), rec.get("spans"),
                 rec.get("wrapped"), rec.get("missing"), calibration=rec["calibration"])
    if os.path.realpath(rec["program"]) != os.path.realpath(os.path.join(SRC, "graphpower")):
        res.failure = "child imported graphpower from " + rec["program"]
    elif rec["exception"]:
        res.failure = "uncaught exception: " + rec["exception"].strip().splitlines()[-1]
    elif res.rc != req.expect_rc:
        res.failure = f"exit {res.rc}, expected {req.expect_rc}"
    elif res.latency > timeout:
        res.failure = f"passed the {timeout:g} s time limit"
    else:
        reason = req.check(rec["stdout"])
        if reason is None and traced and req.trace_check is not None:
            reason = req.trace_check(res.spans)
        if reason is not None:
            res.failure = "wrong payload: " + reason
    return res


def scaled(r, value):
    """A time the child `r` reported, in seconds at reference speed."""
    return value * REFERENCE_CALIBRATION_S / r.calibration if r.calibration else value


def end_to_end(results, slots):
    """Metrics of the untraced requests, in seconds at reference speed.

    The host is shared, and how fast it runs a child drifts by a quarter and
    more over minutes. So every time a child reports is scaled by
    REFERENCE_CALIBRATION_S over the mean time that child took for a fixed
    calibration loop just before and just after main (child.py). A deck
    slot's timing is the median of its repetitions in the run (one per
    pass); setup_s and latency_p50_s are medians over the slots,
    latency_tail_s is the slowest slot, and ops_per_s is the number of slots
    over the sum of their busy times. A slot with any failed repetition
    counts as infinitely slow, so it misses any latency limit, and as not
    completed."""
    runs = [[r for r in results if r.slot == i] for i in range(slots)]
    ok = [all(r.failure is None for r in rs) for rs in runs]
    latencies = [statistics.median(scaled(r, r.latency) for r in rs) if good else math.inf
                 for rs, good in zip(runs, ok)]
    setups = [statistics.median([scaled(r, r.setup) for r in rs if r.setup is not None]
                                or [math.inf]) for rs in runs]
    walls = [statistics.median(scaled(r, r.wall) for r in rs) for rs in runs]
    raw = [statistics.median(r.latency for r in rs) if good else math.inf
           for rs, good in zip(runs, ok)]
    rss = [r.maxrss_mb for r in results if r.maxrss_mb is not None]
    reps = min(len(rs) for rs in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(ok) / sum(walls),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": max(latencies),
        "peak_rss_mb": max(rss) if rss else math.inf,
    }
    each = f"each the median of its {reps} or more repetitions"
    notes = {
        "setup_s": f"median over {slots} requests, {each}",
        "ops_per_s": f"{sum(ok)} completed requests / their busy time, {each}",
        "latency_p50_s": f"median over {slots} requests, {each}; "
                         f"unscaled {statistics.median(raw):.4g} s",
        "latency_tail_s": f"p100: the slowest of {slots} requests, {each}; "
                          f"unscaled {max(raw):.4g} s",
        "peak_rss_mb": "largest child ru_maxrss",
    }
    return metrics, notes


def per_layer(results, passes):
    traced = [r for r in results if r.traced]
    metrics, _ = tracer.aggregate([(r.spans, r.stdout_bytes) for r in traced if r.spans], passes)
    # each request ran once untraced and once traced, in deck order
    pairs = [(u, t) for u, t in zip([r for r in results if not r.traced], traced)
             if u.failure is None and t.failure is None]
    base = sum(scaled(u, u.latency) for u, _ in pairs)
    extra = sum(scaled(t, t.latency) for _, t in pairs) - base
    metrics["trace.overhead_s"] = extra / len(pairs) if pairs else 0.0
    metrics["trace.overhead_pct"] = 100 * extra / base if base else 0.0
    return metrics


def request_digest(deck):
    blob = json.dumps([[r.argv, r.env, r.expect_rc] for r in deck], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_deck(deck, seconds, traced, timeout):
    """Whole passes over the deck while another pass is expected to end
    within `seconds`; at least one pass."""
    results, passes, last = [], 0, 0.0
    start = time.monotonic()
    while passes == 0 or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        for i, req in enumerate(deck):
            # alternate which copy runs first, so neither gains from a warm file cache
            for copy in (((False, True) if i % 2 == 0 else (True, False)) if traced else (False,)):
                res = run_child(req, copy, timeout)
                res.slot = i
                results.append(res)
        last = time.monotonic() - t0
        passes += 1
    return results, passes, time.monotonic() - start


def run_workload(name, seed, seconds, traced, timeout, known_defects):
    deck = workloads.WORKLOADS[name](random.Random(seed), known_defects)
    warm = run_child(WARMUP, False, timeout)  # fills the bytecode cache
    if warm.failure:
        raise SystemExit(f"warm-up request failed: {warm.failure}")
    results, passes, elapsed = run_deck(deck, seconds, traced, timeout)
    plain = [r for r in results if not r.traced]
    if traced:
        metrics = per_layer(results, passes)
        units = {k: _layer_unit(k) for k in metrics}
        notes = {}
    else:
        metrics, notes = end_to_end(plain, len(deck))
        units = E2E_UNITS
    failures = [r for r in results if r.failure]
    report = {
        "workload": name, "seed": seed, "trace": int(traced),
        "request_sha256": request_digest(deck),
        "requests_per_pass": len(deck), "passes": passes, "measured_s": elapsed,
        "request_timeout_s": timeout, "known_defects": known_defects,
        "error_rate": len([r for r in plain if r.failure]) / len(plain),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
        "failures": [[r.label, r.failure] for r in failures],
        "traced_attributes": next((r.wrapped for r in results if r.wrapped), None),
        "missing_targets": next((r.missing for r in results if r.wrapped), None),
        "requests": [[r.label, int(r.traced), r.rc, r.latency, r.setup, r.wall, r.failure,
                      r.calibration] for r in results],
    }
    _save(report, results)
    return report


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "calls_per_graph")):
        return "ratio"
    if name.endswith(("_bits", "_bytes")):
        return name.rsplit("_", 1)[1]
    return "count"


def _save(report, results):
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    stem = os.path.join(RESULTS, name)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if report["trace"]:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for rid, r in enumerate(res for res in results if res.traced):
                fh.write(json.dumps({"request": rid, "label": r.label, "spans": r.spans}) + "\n")


def print_report(report):
    print(f"# {report['workload']}: seed {report['seed']}, trace {report['trace']}, "
          f"{report['requests_per_pass']} requests x {report['passes']} passes in "
          f"{report['measured_s']:.1f} s, request list sha256 {report['request_sha256']}")
    for k, m in report["metrics"].items():
        note = report["notes"].get(k, "")
        print(f"{k:44s} {m['value']:>14.6g} {m['unit']:6s} {note}")
    plain = [q for q in report["requests"] if not q[1]]
    print(f"{'error_rate':44s} {report['error_rate']:>14.6g} ratio  "
          f"{sum(1 for q in plain if q[6])} of {len(plain)} failed")
    if report["traced_attributes"]:
        print(f"# traced {len(report['traced_attributes'])} attributes; targets missing "
              f"from the program: {report['missing_targets'] or 'none'}")
    for label, reason in report["failures"]:
        print(f"#   FAILED {label[:80]}: {reason}")


def summary_line(reports):
    """The result object; for several workloads, metric names get the workload
    as a prefix."""
    failed = sum(len(r["failures"]) for r in reports)
    metrics = {}
    for r in reports:
        prefix = "" if len(reports) == 1 else r["workload"] + "."
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(len(r["requests"]) for r in reports),
                       "failed": failed, "metrics": metrics})


# -- self-test -------------------------------------------------------------------

def self_test(timeout):
    """One tiny request per workload through both run modes, a deliberately
    wrong expectation, and the expected answers checked against ranks mod p."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rng = random.Random(0)
    tiny = {
        "census": [workloads.census_request(4)],
        "verdicts": [workloads.verdict_request("check", "petersen",
                                               workloads.random_permutation(10, rng))],
        "solve": [workloads.solve_request(rng, "grid6x6", "Z", "built", {})],
        "powers": [workloads.power_request("chain", "C4", "D8")],
    }
    problems = []
    for name, deck in tiny.items():
        results, passes, _ = run_deck(deck, 0, True, timeout)
        problems += [f"{name}: {r.label}: {r.failure}" for r in results if r.failure]
        plain = [r for r in results if not r.traced]
        e2e, _ = end_to_end(plain, len(deck))
        layers = per_layer(results, passes)
        for m in spec["end_to_end"]:
            if m["name"] not in e2e or E2E_UNITS.get(m["name"]) != m["unit"]:
                problems.append(f"{name}: end-to-end metric {m['name']} [{m['unit']}] not printed")
        for m in spec["per_layer"]:
            if m["name"] not in layers or _layer_unit(m["name"]) != m["unit"]:
                problems.append(f"{name}: layer metric {m['name']} [{m['unit']}] not printed")
        shown = ", ".join(f"{k} {v:.4g} {E2E_UNITS[k]}" for k, v in e2e.items())
        print(f"self-test {name}: {shown}")
    wrong = [workloads.verdict_request("eldivs", "C61", expected="(1^61)"),
             workloads.Request("eldivs C61 expecting exit 2", ["eldivs", "C61"], 2,
                               lambda out: None)]
    for req in wrong:
        if run_child(req, False, timeout).failure is None:
            problems.append(f"a wrong expectation was not counted as a failure: {req.label}")
    problems += check_expected_answers()
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return not problems


def check_expected_answers():
    """Every expected divisor chain has, for each small prime p, as many
    entries divisible by p as the matrix has nullity mod p; an RA verdict
    needs the intersection matrix to have full rank mod every prime."""
    problems = []
    primes = (2, 3, 5, 7)
    for table, rows_of in ((workloads.ACTIVATION_DIVISORS, oracle.activation_rows),
                           (workloads.RA_MATRIX_DIVISORS, oracle.intersection_rows)):
        for graph, text in table.items():
            n, edges = oracle.family(graph)
            if n > 100:
                continue
            divs = oracle.parse_divisors(text)
            for p in primes:
                rank = len(oracle.EchelonModP(rows_of(n, edges), n, p).pivots)
                if sum(d % p == 0 for d in divs) != n - rank:
                    problems.append(f"{graph} {text}: nullity mod {p} is {n - rank}")
    for graph, ra in workloads.RA.items():
        n, edges = oracle.family(graph)
        if n > 100:
            continue
        full = [len(oracle.EchelonModP(oracle.intersection_rows(n, edges), n, p).pivots) == n
                for p in primes]
        if ra and not all(full) or not ra and all(full[:2]):
            problems.append(f"{graph}: RA {ra} disagrees with ranks mod {primes}")
        if graph in workloads.RA_MATRIX_DIVISORS:
            divs = oracle.parse_divisors(workloads.RA_MATRIX_DIVISORS[graph])
            if ra != all(d == 1 for d in divs):
                problems.append(f"{graph}: RA {ra} disagrees with its RA-matrix divisors")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--request-timeout", type=float,
                        help="per-request time limit in seconds; a slower request fails")
    parser.add_argument("--known-defects", action="store_true",
                        help="add the requests that fail today, counted as failures")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphpower", "cli.py")):
        print(f"error: no graphpower sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test(args.request_timeout or 30.0) else 1
    if args.workload is None or args.request_timeout is None:
        parser.error("--workload and --request-timeout are required")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.request_timeout, args.known_defects)
        print_report(report)
        reports.append(report)
    print(summary_line(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
