"""Shipped JSON shapes for machine-readable CLI output, with a small
structural validator used by the test suite."""

from __future__ import annotations

GRAPH_SCHEMA = {"n": int, "edges": [[int]]}

CLASSIFY_SCHEMA = {
    "connected": bool,
    "components": [[int]],
    "girth": (int, type(None)),
    "nbhd_distinguishable": bool,
    "square_completion": bool,
    "degree_sequence": [int],
}

RA_VERDICT_SCHEMA = {"graph": str, "ra": bool, "method": str, "witness": str}

GROUP_REPORT_SCHEMA = {
    "graph": str,
    "group": str,
    "orders": dict,
    "ra_index": int,
    "g_ra": bool,
}

SOLVE_SCHEMA = {
    "solvable": bool,
    "moduli": list,
    "clicks": (list, type(None)),
    "witness": (dict, type(None)),
    "schedule": (list, type(None)),
}


def validate(obj, schema, path="$") -> None:
    """Raise ValueError when obj does not match the schema shape."""
    if isinstance(schema, dict):
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: expected object, got {type(obj).__name__}")
        if schema:
            for key, sub in schema.items():
                if key not in obj:
                    raise ValueError(f"{path}: missing key {key!r}")
                validate(obj[key], sub, f"{path}.{key}")
    elif isinstance(schema, list):
        if not isinstance(obj, list):
            raise ValueError(f"{path}: expected array, got {type(obj).__name__}")
        for i, item in enumerate(obj):
            validate(item, schema[0], f"{path}[{i}]")
    elif isinstance(schema, tuple):
        if not any(_matches(obj, alt) for alt in schema):
            raise ValueError(f"{path}: no alternative matched")
    else:
        if schema is int and isinstance(obj, bool):
            raise ValueError(f"{path}: expected int, got bool")
        if not isinstance(obj, schema):
            raise ValueError(f"{path}: expected {schema.__name__}, got {type(obj).__name__}")


def _matches(obj, schema) -> bool:
    try:
        validate(obj, schema)
        return True
    except ValueError:
        return False
