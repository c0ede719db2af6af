"""Command-line interface.

Exit codes: 0 success, 2 bad input, 3 capacity limit, 4 internal consistency
fault. Machine-readable payloads go to stdout, diagnostics to stderr.

A well-formed command line is parsed from the command table `_COMMANDS`
alone. argparse, whose first use costs a few milliseconds, is imported only
for help and for the lines the table parse does not take (usage errors,
abbreviations, '--'), so help text, usage errors and exit codes stay
argparse's own.

The capacity cap for subgroup computations can be overridden with the
GRAPHPOWER_MAX_ORDER environment variable.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import warnings
from types import SimpleNamespace

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
    # the intersection matrix less its zero and repeated rows, which add only
    # zeros to the chain; it is padded with them to n
    mat = ra.activation_matrix(g) if args.matrix == "activation" else ra._distinct_rows(g, True)
    divs = snf_divisors(mat, budget=ra.RA_TEST_BUDGET)
    print(divisor_tuple_str(divs + (0,) * (g.n - len(divs))))
    return 0


def cmd_ra_check(args) -> int:
    g = _graph_arg(args.graph, args.reduce)
    verdict = ra.is_ra(g)
    _emit(verdict.to_json())
    return 0


def cmd_ra_gra(args) -> int:
    g = _graph_arg(args.graph, args.reduce)
    group = parse_group_spec(args.group)
    _, _, ab_order, comm, full = power._power_orders(group, g, _max_order())
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
    with warnings.catch_warnings():  # the library's size warning, as one line
        warnings.showwarning = lambda message, *_: print(f"note: {message}", file=sys.stderr)
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
        k = next((len(t) for t in target if isinstance(t, tuple)), None)
        default = (0,) * k if k else 0
        return [t if t is not None else default for t in target]
    parts = [p.strip() for p in text.split(",")]
    if "" in parts:
        raise InputError(f"target {text!r} has an empty entry")
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
        schedule = [f"factor {alpha} (mod {mod}): click vertex {v} x {c}"
                    for alpha, (mod, clicks) in enumerate(zip(result.moduli, result.clicks))
                    for v, c in enumerate(clicks) if c]
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

_GRAPH = (("graph",), {})
_GROUP = (("--group",), {"required": True})
_REDUCE = (("--reduce",), {"action": "store_true"})

# command path -> (help, handler, arguments as (args, kwargs) pairs); a
# group has no handler, and its subcommands follow it
_COMMANDS = {
    ("graph",): ("construct and classify graphs", None, ()),
    ("graph", "gen"): ("emit a standard family member", cmd_graph_gen, (
        (("family",), {"choices": sorted(FAMILIES)}),
        (("params",), {"nargs": "*"}),
        (("--format",), {"choices": ["graph6", "dot", "json"], "default": "graph6"}))),
    ("graph", "classify"): ("connectivity, girth, and friends", cmd_graph_classify, (_GRAPH,)),
    ("eldivs",): ("elementary divisors of a graph matrix", cmd_eldivs, (
        _GRAPH, (("--matrix",), {"choices": ["activation", "ra"], "default": "activation"}),
        (("--reduce",), {"action": "store_true",
                         "help": "drop neighborhood-indistinguishable vertices first"}))),
    ("ra",): ("reducible-to-abelian analysis", None, ()),
    ("ra", "check"): ("RA verdict for a graph", cmd_ra_check, (_GRAPH, _REDUCE)),
    ("ra", "gra"): ("RA index over a specific group", cmd_ra_gra, (_GRAPH, _GROUP, _REDUCE)),
    ("ra", "chain"): ("the five commutator-chain orders", cmd_ra_chain, (_GRAPH, _GROUP, _REDUCE)),
    ("ra", "census"): ("CSV census of small graphs", cmd_ra_census, (
        (("--max-n",), {"type": int, "required": True}),
        (("--oeis",), {"help": "local OEIS b-file to cross-check counts"}))),
    ("solve",): ("abelian Lights Out solving", cmd_solve, (
        _GRAPH, (("--moduli",), {"required": True, "help": "comma list like 2,3 or Z"}),
        (("--target",), {"required": True,
                          "help": "comma string, inline JSON {vertex: exponents}, or @file"}),
        _REDUCE)),
}


def _typed(raw: str, kwargs: dict):
    """`raw` converted by the argument's `type` and checked against its
    `choices`, as argparse does; ValueError where argparse would refuse it."""
    value = kwargs.get("type", str)(raw)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(f"invalid choice: {value!r}")
    return value


def _match(argv):
    """The namespace argparse gives a well-formed command line, read from the
    table alone: the command words, the leaf's positionals, then each option
    once by its exact name, as `--name value`, `--name=value` or a flag. None
    for anything else (help, abbreviations, '--', a separate value that
    starts with '-', a usage error), which goes to argparse."""
    path = tuple(argv[:2]) if tuple(argv[:2]) in _COMMANDS else tuple(argv[:1])
    _, func, arguments = _COMMANDS.get(path, (None, None, ()))
    if func is None:
        return None
    values = {"command": path[0], "func": func}
    if len(path) == 2:
        values[f"{path[0]}_command"] = path[1]
    rest = list(argv[len(path):])
    first = next((i for i, token in enumerate(rest) if token.startswith("-")), len(rest))
    positionals, rest = rest[:first], rest[first:]
    options = {}
    try:
        for (name,), kwargs in arguments:
            dest = name.lstrip("-").replace("-", "_")
            if name.startswith("-"):
                options[name] = dest, kwargs
                values[dest] = kwargs.get("default", False if "action" in kwargs else None)
            elif kwargs.get("nargs") == "*":
                values[dest] = [_typed(raw, kwargs) for raw in positionals]
                positionals = []
            elif positionals:
                values[dest] = _typed(positionals.pop(0), kwargs)
            else:
                return None
        while rest:
            name, eq, raw = rest.pop(0).partition("=")
            if name not in options:
                return None
            dest, kwargs = options.pop(name)
            if "action" in kwargs:  # store_true, which takes no value
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                if not rest or rest[0].startswith("-"):
                    return None
                raw = rest.pop(0)
            values[dest] = _typed(raw, kwargs)
    except ValueError:
        return None
    if positionals or any(kwargs.get("required") for _, kwargs in options.values()):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser with every command of the table. `main` reaches it
    only for help and for the lines `_match` does not take: usage errors and
    the forms argparse alone accepts, such as abbreviations."""
    import argparse  # deferred: its first use costs more than most commands

    parser = argparse.ArgumentParser(
        prog="graphpower",
        description="Graph powers of groups: divisors, RA verdicts, and abelian solving.",
    )
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (help_, func, arguments) in _COMMANDS.items():
        p = subs[path[:-1]].add_parser(path[-1], help=help_)
        if func is None:
            subs[path] = p.add_subparsers(dest=f"{path[0]}_command", required=True)
            continue
        p.set_defaults(func=func)
        for args, kwargs in arguments:
            p.add_argument(*args, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _match(argv) or build_parser().parse_args(argv)
    try:
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
