"""Command-line interface.

Exit codes: 0 success, 2 bad input, 3 capacity limit, 4 internal consistency
fault. Machine-readable payloads go to stdout, diagnostics to stderr.

The capacity cap for subgroup computations can be overridden with the
GRAPHPOWER_MAX_ORDER environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import power, ra, solver
from .errors import CapacityError, ConsistencyError, GraphPowerError, InputError
from .graphs import (
    FAMILIES,
    _json_int,
    classify,
    graph6_encode,
    make_family,
    parse_graph_spec,
    reduce_indistinguishable,
    to_dot,
    to_json,
)
from .groups import parse_group_spec
from .perm import DEFAULT_MAX_ORDER
from .zlinalg import divisor_tuple_str, snf_divisors


def _max_order() -> int:
    raw = os.environ.get("GRAPHPOWER_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"GRAPHPOWER_MAX_ORDER={raw!r} is not an integer")
    if cap <= 0:
        raise InputError(f"GRAPHPOWER_MAX_ORDER={raw!r} must be positive")
    return cap


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _graph_arg(spec: str, reduce: bool):
    g = parse_graph_spec(spec)
    if reduce:
        g = reduce_indistinguishable(g)
    return g


# -- subcommand handlers --------------------------------------------------------

def cmd_graph_gen(args) -> int:
    try:
        params = [int(p) for p in args.params]
    except ValueError:
        raise InputError(f"family parameters must be integers, got {args.params!r}")
    g = make_family(args.family, *params)
    if args.format == "graph6":
        print(graph6_encode(g))
    elif args.format == "dot":
        print(to_dot(g))
    else:
        _emit(to_json(g))
    return 0


def cmd_graph_classify(args) -> int:
    g = _graph_arg(args.graph, reduce=False)
    _emit(classify(g).to_json())
    return 0


def cmd_eldivs(args) -> int:
    g = _graph_arg(args.graph, args.reduce)
    mat = ra.activation_matrix(g) if args.matrix == "activation" else ra.ra_matrix(g)
    print(divisor_tuple_str(snf_divisors(mat)))
    return 0


def cmd_ra_check(args) -> int:
    g = _graph_arg(args.graph, args.reduce)
    verdict = ra.is_ra(g)
    _emit(verdict.to_json())
    return 0


def cmd_ra_gra(args) -> int:
    g = _graph_arg(args.graph, args.reduce)
    group = parse_group_spec(args.group)
    ab_order, comm, full = power._orders(group, g, max_order=_max_order())
    index = full // comm
    payload = {
        "graph": graph6_encode(g),
        "group": group.name,
        "orders": {
            "graph_power": ab_order * comm,
            "abelian_power": ab_order,
            "comm": comm,
            "full_commutator_power": full,
        },
        "ra_index": index,
        "g_ra": index == 1,
    }
    _emit(payload)
    return 0


def cmd_ra_chain(args) -> int:
    g = _graph_arg(args.graph, args.reduce)
    group = parse_group_spec(args.group)
    report = power.chain_report(group, g, max_order=_max_order())
    index = report.full_commutator_power // report.comm
    payload = report.to_json()
    payload["graph"] = graph6_encode(g)
    payload["ra_index"] = index
    payload["g_ra"] = index == 1
    _emit(payload)
    return 0


def cmd_ra_census(args) -> int:
    expected = _read_bfile(args.oeis) if args.oeis else None
    report = ra.census(args.max_n)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "graph6", "divisors", "ra", "method", "witness"])
    for row in report.rows:
        writer.writerow([row.n, row.graph6, divisor_tuple_str(row.divisors),
                         int(row.ra), row.method, row.witness])
    summary = ",".join(str(s.full_lattice) for s in report.summaries)
    print(f"full-lattice counts: {summary}", file=sys.stderr)
    if expected is not None and not _oeis_crosscheck(expected, report):
        raise ConsistencyError("census disagrees with the OEIS b-file")
    return 0


def _read_bfile(path: str) -> dict:
    """{n: a(n)} from a local OEIS b-file: lines of 'n a(n)', blank lines and
    '#' comments skipped. An unreadable or malformed file is an InputError."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                try:
                    n, value = map(int, parts)
                except ValueError:
                    raise ValueError(f"line {number} is not 'n a(n)'") from None
                values[n] = value
    except OSError as exc:
        raise InputError(f"cannot read b-file {path!r}: {exc}")
    except ValueError as exc:  # a malformed line, or not UTF-8
        raise InputError(f"bad b-file {path!r}: {exc}")
    return values


def _oeis_crosscheck(values: dict, report) -> bool:
    """Compare per-n connected distinguishable counts against b-file values."""
    ok = True
    for s in report.summaries:
        if s.n not in values:
            print(f"OEIS cross-check: n={s.n} missing from b-file", file=sys.stderr)
            continue
        if values[s.n] == s.distinguishable:
            print(f"OEIS cross-check: n={s.n} match ({s.distinguishable})", file=sys.stderr)
        else:
            ok = False
            print(
                f"OEIS cross-check: n={s.n} MISMATCH census={s.distinguishable} "
                f"b-file={values[s.n]}", file=sys.stderr)
    return ok


def _parse_target(raw: str, n: int):
    text = raw.strip()
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read target file {text[1:]!r}: {exc}")
    if text.startswith("{"):
        try:
            obj = json.loads(text)
            items = [(int(k), tuple(_json_int(x) for x in val) if isinstance(val, list)
                      else _json_int(val)) for k, val in obj.items()]
        except (ValueError, TypeError, RecursionError) as exc:
            raise InputError(f"bad JSON target: {exc}")
        target = [None] * n
        for v, val in items:
            if not 0 <= v < n:
                raise InputError(f"target vertex {v} outside 0..{n - 1}")
            target[v] = val
        k = None
        for t in target:
            if isinstance(t, tuple):
                k = len(t)
                break
        default = (0,) * k if k else 0
        return [t if t is not None else default for t in target]
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if len(parts) != n:
        raise InputError(f"target has {len(parts)} entries, graph has {n} vertices")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"bad target entry: {exc}")


def cmd_solve(args) -> int:
    g = _graph_arg(args.graph, args.reduce)
    raw = args.moduli.strip()
    if raw in ("Z", "z"):
        moduli = solver.INTEGERS
    else:
        try:
            moduli = tuple(int(p) for p in raw.split(","))
        except ValueError:
            raise InputError(f"bad moduli list {raw!r}")
    target = _parse_target(args.target, g.n)
    result = solver.solve(g, moduli, target)
    if isinstance(result, solver.Solution):
        schedule = []
        for alpha, clicks in enumerate(result.clicks):
            mod = result.moduli[alpha]
            for v, c in enumerate(clicks):
                if c:
                    schedule.append(f"factor {alpha} (mod {mod}): click vertex {v} x {c}")
        payload = {
            "solvable": True,
            "moduli": list(result.moduli),
            "clicks": [list(c) for c in result.clicks],
            "witness": None,
            "schedule": schedule,
        }
    else:
        payload = {
            "solvable": False,
            "moduli": [result.modulus],
            "clicks": None,
            "witness": {
                "factor": result.factor,
                "modulus": result.modulus,
                "vertex": result.vertex,
                "detail": result.detail,
            },
            "schedule": None,
        }
        print(f"UNSOLVABLE: {result.detail}", file=sys.stderr)
    _emit(payload)
    return 0


# -- argument parsing -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpower",
        description="Graph powers of groups: divisors, RA verdicts, and abelian solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="construct and classify graphs")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_gen = graph_sub.add_parser("gen", help="emit a standard family member")
    p_gen.add_argument("family", choices=sorted(FAMILIES))
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("--format", choices=["graph6", "dot", "json"], default="graph6")
    p_gen.set_defaults(func=cmd_graph_gen)
    p_cls = graph_sub.add_parser("classify", help="connectivity, girth, and friends")
    p_cls.add_argument("graph")
    p_cls.set_defaults(func=cmd_graph_classify)

    p_eldivs = sub.add_parser("eldivs", help="elementary divisors of a graph matrix")
    p_eldivs.add_argument("graph")
    p_eldivs.add_argument("--matrix", choices=["activation", "ra"], default="activation")
    p_eldivs.add_argument("--reduce", action="store_true",
                          help="drop neighborhood-indistinguishable vertices first")
    p_eldivs.set_defaults(func=cmd_eldivs)

    p_ra = sub.add_parser("ra", help="reducible-to-abelian analysis")
    ra_sub = p_ra.add_subparsers(dest="ra_command", required=True)
    p_check = ra_sub.add_parser("check", help="RA verdict for a graph")
    p_check.add_argument("graph")
    p_check.add_argument("--reduce", action="store_true")
    p_check.set_defaults(func=cmd_ra_check)
    p_gra = ra_sub.add_parser("gra", help="RA index over a specific group")
    p_gra.add_argument("graph")
    p_gra.add_argument("--group", required=True)
    p_gra.add_argument("--reduce", action="store_true")
    p_gra.set_defaults(func=cmd_ra_gra)
    p_chain = ra_sub.add_parser("chain", help="the five commutator-chain orders")
    p_chain.add_argument("graph")
    p_chain.add_argument("--group", required=True)
    p_chain.add_argument("--reduce", action="store_true")
    p_chain.set_defaults(func=cmd_ra_chain)
    p_census = ra_sub.add_parser("census", help="CSV census of small graphs")
    p_census.add_argument("--max-n", type=int, required=True)
    p_census.add_argument("--oeis", help="local OEIS b-file to cross-check counts")
    p_census.set_defaults(func=cmd_ra_census)

    p_solve = sub.add_parser("solve", help="abelian Lights Out solving")
    p_solve.add_argument("graph")
    p_solve.add_argument("--moduli", required=True, help="comma list like 2,3 or Z")
    p_solve.add_argument("--target", required=True,
                         help="comma string, inline JSON {vertex: exponents}, or @file")
    p_solve.add_argument("--reduce", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency fault: {exc}", file=sys.stderr)
        return 4
    except GraphPowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
