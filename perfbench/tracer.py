"""Spans around graphpower's public functions, installed from outside.

The traced child process calls `install` after importing graphpower and
before running the CLI. Every target function is replaced by a wrapper at
every module attribute that holds it (`snf_divisors` is reached as
`graphpower.zlinalg.snf_divisors`, `graphpower.ra.snf_divisors`,
`graphpower.power.snf_divisors`, ...), and methods are replaced on their
class, so the program's own calls go through the wrappers too. The program's
source is not modified.

A span is [id, parent id, name, start, end, excluded seconds, attributes].
Attributes that cost time to compute (such as the largest entry of an HNF
witness) are taken after the span ends; that time is added to the
`excluded` field of every span still open, so it is not charged to any
layer. `aggregate` turns the spans of a run into the per-layer metrics.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

ID, PARENT, NAME, START, END, EXCLUDED, ATTRS = range(7)


def _snf_divisors_attrs(args, kwargs, result):
    m = args[0]
    return {"dim": max(m.rows, m.cols)}


def _hnf_attrs(args, kwargs, result):
    return {"witness_bits": max((abs(x).bit_length() for row in result.U._rows for x in row),
                                default=0)}


def _is_ra_attrs(args, kwargs, result):
    return {"method": result.method}


def _solve_attrs(args, kwargs, result):
    return {"outcome": "solvable" if result else "unsolvable"}


def _perm_group_attrs(args, kwargs, result):
    group = args[0]
    return {"degree": group.degree, "base_length": len(group.base_points())}


# (module, attribute, span name, attribute probe); "Class.method" wraps a
# method on its class. PermGroup construction (including Schreier-Sims)
# is its __init__.
TARGETS = (
    ("graphs", "canonical_form", "graphs.canonical_form", None),
    ("graphs", "enumerate_connected_graphs", "graphs.enumerate_connected_graphs", None),
    ("graphs", "parse_graph_spec", "graphs.parse_graph_spec", None),
    ("zlinalg", "snf_divisors", "zlinalg.snf_divisors", _snf_divisors_attrs),
    ("zlinalg", "rank_mod_p", "zlinalg.rank_mod_p", None),
    ("zlinalg", "spans_full_lattice", "zlinalg.spans_full_lattice", None),
    ("zlinalg", "hnf", "zlinalg.hnf", _hnf_attrs),
    ("zlinalg", "snf", "zlinalg.snf", None),
    ("ra", "is_ra", "ra.is_ra", _is_ra_attrs),
    ("ra", "ra_matrix", "ra.ra_matrix", None),
    ("ra", "activation_matrix", "ra.activation_matrix", None),
    ("ra", "census", "ra.census", None),
    ("solver", "solve", "solver.solve", _solve_attrs),
    ("power", "power_click", "power.power_click", None),
    ("power", "graph_power", "power.graph_power", None),
    ("power", "derived_of_power", "power.derived_of_power", None),
    ("power", "chain_report", "power.chain_report", None),
    ("power", "ra_index", "power.ra_index", None),
    ("power", "comm_b_order", "power.comm_b_order", None),
    ("perm", "PermGroup.__init__", "perm.PermGroup", _perm_group_attrs),
    ("perm", "PermGroup.contains", "perm.PermGroup.contains", None),
    ("perm", "normal_closure", "perm.normal_closure", None),
    ("groups", "parse_group_spec", "groups.parse_group_spec", None),
    ("groups", "derived_subgroup", "groups.derived_subgroup", None),
    ("groups", "abelianization", "groups.abelianization", None),
    ("groups", "commutator_witnesses", "groups.commutator_witnesses", None),
    ("cli", "main", "cli.main", None),
)

GENERATORS = {"graphs.enumerate_connected_graphs"}


class Tracer:
    """In-memory span recorder for one request."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        rec = [len(self.spans), self.stack[-1][ID] if self.stack else None,
               name, perf_counter(), None, 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec, attrs=None):
        rec[END] = perf_counter()
        self.stack.pop()
        if attrs is not None:
            t0 = perf_counter()
            rec[ATTRS] = attrs()
            spent = perf_counter() - t0
            for outer in self.stack:
                outer[EXCLUDED] += spent

    def wrap(self, name, fn, probe):
        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(rec, lambda: {"error": type(exc).__name__})
                raise
            self.close(rec, probe and (lambda: probe(args, kwargs, result)))
            return result
        return traced

    def wrap_generator(self, name, fn):
        """Each resumption of the generator is one span, so the consumer's
        work between items is not charged to the generator. `top` marks
        generators not created inside another one of the same name."""
        @wraps(fn)
        def traced(*args, **kwargs):
            top = not any(rec[NAME] == name for rec in self.stack)
            return self._segments(name, fn(*args, **kwargs), top, args[0] if args else None)
        return traced

    def _segments(self, name, gen, top, key):
        while True:
            rec = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                self.close(rec)
                return
            except BaseException as exc:
                self.close(rec, lambda: {"error": type(exc).__name__})
                raise
            self.close(rec, lambda: {"yield": 1, "top": top, "key": key})
            yield item


def install(tracer):
    """Wrap every target at every graphpower attribute that holds it.

    Returns (wrapped attribute paths, targets not found). A target missing
    from the program leaves its metrics at zero instead of failing."""
    import graphpower.cli  # noqa: F401  (loads every module that can hold a target)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "graphpower" or name.startswith("graphpower.")}
    wrapped, missing = [], []
    for module_name, attr, span_name, probe in TARGETS:
        module = modules.get("graphpower." + module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is None:
                missing.append(span_name)
                continue
            new = tracer.wrap(span_name, fn, probe)
            for key, value in list(vars(cls).items()):
                if value is fn:
                    setattr(cls, key, new)
                    wrapped.append(f"{cls.__module__}.{cls_name}.{key}")
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(span_name)
            continue
        if span_name in GENERATORS:
            new = tracer.wrap_generator(span_name, fn)
        else:
            new = tracer.wrap(span_name, fn, probe)
        for mod_name, mod in modules.items():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, new)
                    wrapped.append(f"{mod_name}.{key}")
    return wrapped, missing


# -- aggregation (benchmark process) ------------------------------------------

def self_times(spans):
    """Span id -> self time: duration minus excluded probe time minus the
    durations of direct children. Calls are synchronous, so children nest
    inside their parent and do not overlap each other."""
    eff = {s[ID]: s[END] - s[START] - s[EXCLUDED] for s in spans}
    out = dict(eff)
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= eff[s[ID]]
    return out


def _has_ancestor(span, by_id, name):
    parent = span[PARENT]
    while parent is not None:
        p = by_id[parent]
        if p[NAME] == name:
            return True
        parent = p[PARENT]
    return False


SELF_TIMES = (
    "graphs.canonical_form", "graphs.enumerate_connected_graphs", "graphs.parse_graph_spec",
    "zlinalg.snf_divisors", "zlinalg.rank_mod_p", "zlinalg.hnf", "zlinalg.snf",
    "ra.is_ra", "ra.ra_matrix", "ra.census", "solver.solve", "power.power_click",
    "perm.PermGroup", "perm.PermGroup.contains", "perm.normal_closure",
    "groups.parse_group_spec", "groups.derived_subgroup", "groups.abelianization",
    "groups.commutator_witnesses", "power.graph_power", "power.derived_of_power",
    "power.chain_report", "power.ra_index", "power.comm_b_order", "cli.main",
)
CALLS = (
    "graphs.canonical_form", "zlinalg.snf_divisors", "zlinalg.rank_mod_p",
    "zlinalg.spans_full_lattice", "zlinalg.hnf", "zlinalg.snf", "ra.is_ra",
    "ra.activation_matrix", "solver.solve", "power.power_click", "perm.PermGroup",
    "perm.PermGroup.contains",
)


def aggregate(requests, passes):
    """Per-layer metrics per pass over the request deck.

    requests: list of (span list, stdout byte count), one per traced request.
    Returns (metrics name -> value, top-level enumeration yields by n)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    maxima = defaultdict(int)
    methods = defaultdict(int)
    outcomes = defaultdict(int)
    classes_by_n = defaultdict(int)
    census_snf = census_graphs = 0
    stdout_bytes = 0
    for spans, out_bytes in requests:
        stdout_bytes += out_bytes
        by_id = {s[ID]: s for s in spans}
        own = self_times(spans)
        for s in spans:
            name, attrs = s[NAME], s[ATTRS] or {}
            calls[name] += 1
            self_s[name] += own[s[ID]]
            if "dim" in attrs:
                maxima["snf_dim"] = max(maxima["snf_dim"], attrs["dim"])
            if "witness_bits" in attrs:
                maxima["witness_bits"] = max(maxima["witness_bits"], attrs["witness_bits"])
            if "degree" in attrs:
                maxima["degree"] = max(maxima["degree"], attrs["degree"])
                maxima["base_length"] = max(maxima["base_length"], attrs["base_length"])
            if "method" in attrs:
                methods[attrs["method"]] += 1
            if "outcome" in attrs:
                outcomes[attrs["outcome"]] += 1
            if attrs.get("yield") and attrs.get("top"):
                classes_by_n[attrs["key"]] += 1
            in_census = name in ("zlinalg.snf_divisors", "ra.is_ra") \
                and _has_ancestor(s, by_id, "ra.census")
            if in_census and name == "ra.is_ra":
                census_graphs += 1
            elif in_census:
                census_snf += 1
    k = max(passes, 1)
    classes = sum(classes_by_n.values())
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = calls[name] / k
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = self_s[name] / k
    metrics.update({
        "graphs.enumerate.useful_ratio":
            classes / calls["graphs.canonical_form"] if calls["graphs.canonical_form"] else 0.0,
        "zlinalg.snf_divisors.max_dim": maxima["snf_dim"],
        "zlinalg.snf_divisors.calls_per_graph":
            census_snf / census_graphs if census_graphs else 0.0,
        "zlinalg.hnf.max_witness_bits": maxima["witness_bits"],
        "ra.is_ra.method.prime_rank_scan": methods["prime_rank_scan"] / k,
        "ra.is_ra.method.snf_full_lattice": methods["snf_full_lattice"] / k,
        "solver.outcome.solvable": outcomes["solvable"] / k,
        "solver.outcome.unsolvable": outcomes["unsolvable"] / k,
        "perm.PermGroup.max_degree": maxima["degree"],
        "perm.PermGroup.max_base_length": maxima["base_length"],
        "cli.stdout_bytes": stdout_bytes / k,
    })
    return metrics, {n: c // k for n, c in sorted(classes_by_n.items())}
