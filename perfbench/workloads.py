"""The four workloads: request decks, expected outcomes and answer checks.

A deck is one pass of requests. It is built from the seed before timing
starts, and every request carries its expected exit code and a check of its
payload. A check returns None for a right answer, else the reason it is
wrong. Expected answers come from three sources:

- facts that do not depend on this program: graph counts, closed-form
  divisor chains, |[G,G]|^n, abelian orders from ranks mod p, and solver
  answers re-multiplied with `oracle.py`'s own arithmetic;
- the acceptance fixtures of the paper (the D8 chain on C4, RA indices on
  Q3, |S4^C5|);
- the program's family-label answers at the commit that added this
  benchmark (divisor chains, RA verdicts and chain orders below). The
  self-test checks each of them against ranks mod small primes.

Verdicts and divisor chains do not depend on vertex labels, so a relabeled
request must give the family-label answer.

Requests that fail today (a traceback, a stall, a labeling on which SNF
blows up) are kept out of the timed decks so that no timed operation fails;
`--known-defects` adds them, and they are counted as failures.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracle
import tracer


@dataclass
class Request:
    label: str
    argv: list
    expect_rc: int
    check: Callable  # stdout -> None when right, else the reason
    env: dict = field(default_factory=dict)
    trace_check: Optional[Callable] = None  # spans -> None when right, else the reason


def _empty_stdout(stdout):
    return None if stdout == "" else "expected no payload"


def _json(stdout):
    try:
        return json.loads(stdout), None
    except ValueError:
        return None, "payload is not JSON"


# -- census ------------------------------------------------------------------------

CONNECTED_CLASSES = (1, 1, 2, 6, 21, 112, 853)  # OEIS A001349
DISTINGUISHABLE = (1, 0, 1, 3, 11, 61, 507)
FULL_LATTICE = (1, 0, 1, 1, 6, 20, 172)
CENSUS_HEADER = ["n", "graph6", "divisors", "ra", "method", "witness"]


def census_request(max_n: int = 7) -> Request:
    def check(stdout):
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or rows[0] != CENSUS_HEADER:
            return "bad CSV header"
        per_n, full, seen = [0] * max_n, [0] * max_n, set()
        for row in rows[1:]:
            n, g6 = int(row[0]), row[1]
            divs = oracle.parse_divisors(row[2])
            if ord(g6[0]) - 63 != n or len(divs) != n or g6 in seen:
                return f"bad census row {row}"
            if row[3] != "1":
                return f"{g6} reported not RA"
            seen.add(g6)
            per_n[n - 1] += 1
            full[n - 1] += all(d == 1 for d in divs)
        if tuple(per_n) != DISTINGUISHABLE[:max_n]:
            return f"distinguishable counts {per_n}"
        if tuple(full) != FULL_LATTICE[:max_n]:
            return f"full-lattice counts {full}"
        return None

    def trace_check(spans):
        classes = tracer.aggregate([(spans, 0)], 1)[1]
        got = tuple(classes.get(n, 0) for n in range(1, max_n + 1))
        return None if got == CONNECTED_CLASSES[:max_n] else f"connected classes {got}"

    return Request(f"ra census --max-n {max_n}", ["ra", "census", "--max-n", str(max_n)],
                   0, check, trace_check=trace_check)


def census_deck(rng, known_defects):
    return [census_request()]


# -- verdicts ------------------------------------------------------------------

RA = {"Q5": False, "Q6": True, "Q8": True, "FQ5": False, "FQ7": False, "grid8x8": True,
      "grid10x10": True, "K7,8": True, "C61": True, "petersen": True}
ACTIVATION_DIVISORS = {
    "Q7": "(1^64, 2^21, 6^7, 12, 0^35)",
    "FQ7": "(1^28, 2, 0^35)",
    "grid10x10": "(1^95, 23^4, 989)",
    "grid16x16": "(1^248, 2^3, 134, 536^2, 5576008, 2280587272)",
    "K7,8": "(1^14, 55)",  # K_{m,n}: (1^(m+n-1), mn-1)
    "C61": "(1^60, 3)",  # C_n, 3 not dividing n: (1^(n-1), 3)
    "petersen": "(1^5, 2^4, 8)",
}
RA_MATRIX_DIVISORS = {
    "Q6": "(1^64)",
    "FQ7": "(1^63, 2)",
    "grid8x8": "(1^64)",
    "C61": "(1^61)",
}
# (command, graph, relabeled): a relabeled request gets a seeded permutation
# of the graph and passes it as a g6 literal; about half the deck is
# relabeled. The deck is kept small, so that a run repeats each request
# often enough for the median of its repetitions to be steady (see run.py).
# SNF time on the larger matrices depends on the labeling far more than on
# size (eldivs grid16x16 takes 0.3 s under family labels and over 60 s under
# some relabelings; eldivs Q7 0.12 s, and 0.3-0.5 s under about one in twenty),
# so a seed would decide the slowest request of a run. Grids from 12x12 up
# and the eldivs of Q7 go under family labels only; the known-defect set
# keeps one such relabeling of each.
VERDICT_DECK = (
    ("check", "Q5", True), ("check", "Q6", True), ("eldivs", "Q7", False),
    ("check", "FQ5", True), ("eldivs", "FQ7", True),
    ("check", "grid8x8", True), ("eldivs-ra", "grid8x8", False),
    ("eldivs", "grid10x10", False), ("eldivs", "grid16x16", False),
    ("check", "K7,8", True), ("eldivs", "C61", False), ("eldivs-ra", "C61", True),
    ("eldivs", "petersen", True),
)
BLOWUP_RELABELING_SEED = 1002  # eldivs grid16x16 under this relabeling: over 60 s
SLOW_Q7_RELABELING_SEED = 1005  # eldivs Q7 under this relabeling: about 3x, not failing


def random_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def verdict_request(command: str, graph: str, perm=None, expected=None) -> Request:
    n, edges = oracle.family(graph)
    if perm is not None:
        edges = oracle.relabel(n, edges, perm)
    g6 = oracle.graph6(n, edges)
    spec = graph if perm is None else "g6:" + g6
    label = f"{command} {graph}" + ("" if perm is None else " relabeled")
    if command == "check":
        want = RA[graph] if expected is None else expected

        def check(stdout):
            payload, err = _json(stdout)
            if err:
                return err
            if payload.get("graph") != g6:
                return "verdict names another graph"
            return None if payload.get("ra") is want else f"ra is {payload.get('ra')}"
        return Request(label, ["ra", "check", spec], 0, check)
    table = ACTIVATION_DIVISORS if command == "eldivs" else RA_MATRIX_DIVISORS
    want = oracle.parse_divisors(expected or table[graph])
    argv = ["eldivs", spec] + (["--matrix", "ra"] if command == "eldivs-ra" else [])

    def check(stdout):
        try:
            got = oracle.parse_divisors(stdout)
        except ValueError as exc:
            return str(exc)
        return None if got == want else f"divisors {stdout.strip()}"
    return Request(label, argv, 0, check)


def verdicts_deck(rng, known_defects):
    deck = [verdict_request(command, graph,
                            random_permutation(oracle.family(graph)[0], rng) if relabeled else None)
            for command, graph, relabeled in VERDICT_DECK]
    if known_defects:
        deck.append(verdict_request("check", "Q8"))  # stalls in SNF of a 256x256 matrix
        blowup = random_permutation(256, random.Random(BLOWUP_RELABELING_SEED))
        deck.append(verdict_request("eldivs", "grid16x16", blowup))
        slow = random_permutation(128, random.Random(SLOW_Q7_RELABELING_SEED))
        deck.append(verdict_request("eldivs", "Q7", slow))
    rng.shuffle(deck)
    return deck


# -- solve ---------------------------------------------------------------------

# (graph, moduli, target kind): "built" targets are c.A for random c, so they
# are solvable; "random" targets are uniform, and oracle.py decides them.
# grid16x16 (3 s a request) is left out: one pass of the deck must fit a few
# seconds, and grid12x12 runs the same code.
SOLVE_DECK = (
    ("grid12x12", "3", "built"), ("Q7", "2", "random"), ("Q6", "2,3", "built"),
    ("Q6", "3", "random"), ("grid6x6", "Z", "built"), ("grid8x8", "Z", "random"),
)
MALFORMED_SOLVE = (
    ["solve", "C4", "--moduli", "1", "--target", "1,0,0,0"],
    ["solve", "C4", "--moduli", "3", "--target", "1,0,0"],
)
# each of these must exit 2 but ends in a traceback today
KNOWN_DEFECT_SOLVE = (
    ["solve", "C4", "--moduli", "0", "--target", "1,0,0,0"],
    ["solve", "C4", "--moduli", "3", "--target", '{"0":"abc"}'],
    ["solve", "C4", "--moduli", "3", "--target", "@missing-target.txt"],
)


def solve_request(rng, graph, moduli, kind, echelons) -> Request:
    n, edges = oracle.family(graph)
    rows = oracle.activation_rows(n, edges)
    factors = [None] if moduli == "Z" else [int(r) for r in moduli.split(",")]
    targets, solvable = [], []
    for r in factors:
        if kind == "built":
            coeffs = [rng.randrange(-3, 4) if r is None else rng.randrange(r) for _ in range(n)]
            t = oracle.row_times_matrix(coeffs, rows, n)
            targets.append(t if r is None else [x % r for x in t])
            solvable.append(True)
            continue
        t = [rng.randrange(5 if r is None else r) for _ in range(n)]
        targets.append(t)
        if r is None:
            solvable.append(oracle.integer_solvable(rows, n, t))
        else:
            if (graph, r) not in echelons:
                echelons[graph, r] = oracle.EchelonModP(rows, n, r)
            solvable.append(echelons[graph, r].contains(t))
    blocked = next((a for a, ok in enumerate(solvable) if not ok), None)
    if len(factors) == 1:
        text = ",".join(map(str, targets[0]))
    else:
        text = json.dumps({str(v): [t[v] for t in targets] for v in range(n)})

    def check(stdout):
        payload, err = _json(stdout)
        if err:
            return err
        if blocked is not None:
            witness = payload.get("witness") or {}
            want = "Z" if factors[blocked] is None else factors[blocked]
            if payload.get("solvable") is not False or witness.get("factor") != blocked \
                    or witness.get("modulus") != want:
                return "expected unsolvable at factor %d" % blocked
            return None
        if payload.get("solvable") is not True:
            return "solvable target reported unsolvable"
        clicks = payload.get("clicks") or []
        if len(clicks) != len(factors):
            return "wrong number of click vectors"
        for r, t, x in zip(factors, targets, clicks):
            if len(x) != n:
                return "click vector of the wrong length"
            diff = [a - b for a, b in zip(oracle.row_times_matrix(x, rows, n), t)]
            if any(d % r if r else d for d in diff):
                return f"clicks do not reach the target (modulus {r or 'Z'})"
        return None
    return Request(f"solve {graph} --moduli {moduli} ({kind})",
                   ["solve", graph, "--moduli", moduli, "--target=" + text], 0, check)


def solve_deck(rng, known_defects):
    echelons = {}
    deck = [solve_request(rng, *spec, echelons) for spec in SOLVE_DECK]
    bad = MALFORMED_SOLVE + (KNOWN_DEFECT_SOLVE if known_defects else ())
    deck += [Request("malformed " + " ".join(argv[2:]), argv, 2, _empty_stdout) for argv in bad]
    rng.shuffle(deck)
    return deck


# -- powers --------------------------------------------------------------------

DERIVED_ORDER = {"D8": 2, "D10": 5, "S3": 3, "S4": 12, "A4": 4, "H3": 3, "H5": 5, "H7": 7}
ABELIANIZATION = {"D8": (2, 2), "D10": (2,), "S3": (2,), "S4": (2,), "A4": (3,),
                  "H3": (3, 3), "H5": (5, 5), "H7": (7, 7)}
# (comm_d, comm_b, derived_power, comm, full_commutator_power) and RA index
CHAINS = {
    ("C4", "D8"): ((8, 16, 16, 16, 16), 1),  # paper fixture
    ("Q3", "D8"): ((128, 128, 128, 128, 256), 2),  # paper fixture: index 2
    ("Q3", "D10"): ((390625,) * 5, 1),  # paper fixture: index 1
    ("C4", "S4"): ((20736,) * 5, 1),
    ("C5", "S4"): ((248832,) * 5, 1),
    ("petersen", "S3"): ((59049,) * 5, 1),
    ("Q3", "H3"): ((6561,) * 5, 1),
    ("P6", "A4"): ((4096,) * 5, 1),
    ("C5", "H5"): ((3125,) * 5, 1),
}
RAISED_CAP = {("C5", "H5"): "1000000000000000"}  # |H5^C5| = 5^15 exceeds the default 2^30
OVER_CAP = ("C5", "H7")  # at the default cap this must stop with exit 3


def power_request(command: str, graph: str, group: str) -> Request:
    argv = ["ra", command, graph, "--group", group]
    label = f"{command} {graph} {group}"
    if (graph, group) == OVER_CAP:
        return Request(label, argv, 3, _empty_stdout)
    n, edges = oracle.family(graph)
    rows = oracle.activation_rows(n, edges)
    orders, index = CHAINS[graph, group]
    full = DERIVED_ORDER[group] ** n
    abelian = 1
    for p in ABELIANIZATION[group]:
        abelian *= p ** len(oracle.EchelonModP(rows, n, p).pivots)

    def check(stdout):
        payload, err = _json(stdout)
        if err:
            return err
        if payload.get("ra_index") != index or payload.get("g_ra") is not (index == 1):
            return f"ra_index {payload.get('ra_index')}"
        got = payload.get("orders", {})
        if command == "chain":
            keys = ("comm_d", "comm_b", "derived_power", "comm", "full_commutator_power")
            seq = tuple(got.get(k) for k in keys)
            return None if seq == orders else f"chain {seq}"
        # |G^graph| = |[G,G]|^n |(G^ab)^graph| / index, e.g. |S4^C5| = 24^5
        want = {"full_commutator_power": full, "abelian_power": abelian,
                "graph_power": full * abelian // index, "comm": orders[3]}
        wrong = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
        return f"orders {wrong}" if wrong else None
    return Request(label, argv, 0, check, env={"GRAPHPOWER_MAX_ORDER": RAISED_CAP[graph, group]}
                   if (graph, group) in RAISED_CAP else {})


# (command, graph, group); H5 on C5 goes as `ra gra` (0.7 s) rather than
# `ra chain` (2.4 s), so that one pass of the deck fits a few seconds
POWER_DECK = (
    ("chain", "C4", "D8"), ("gra", "Q3", "D8"), ("chain", "Q3", "D10"), ("chain", "C4", "S4"),
    ("gra", "C5", "S4"), ("chain", "petersen", "S3"), ("gra", "Q3", "H3"),
    ("gra", "P6", "A4"), ("gra", "C5", "H5"), ("chain", "C5", "H7"),
)


def powers_deck(rng, known_defects):
    deck = [power_request(*spec) for spec in POWER_DECK]
    rng.shuffle(deck)
    return deck


WORKLOADS = {"census": census_deck, "verdicts": verdicts_deck,
             "solve": solve_deck, "powers": powers_deck}
