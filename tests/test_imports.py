import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphpower"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression of the module
    reads. Annotations count as reads; `from __future__` imports do not bind."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_import_check_sees_an_unused_name():
    source = "from math import gcd, lcm\nimport os.path\n\nprint(lcm(2, 3))\n"
    assert unused_imports(source) == [(1, "gcd"), (2, "os")]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == [], module.name


def _defined_names(node) -> set:
    """Names a top-level statement binds: a def, a class or assignment
    targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


PACKAGE_NAMES = {"graphpower"} | {p.stem for p in MODULES}


def _names_a_module(node) -> bool:
    """Whether an expression names a package module: `ra`, `graphpower.cli`."""
    while isinstance(node, ast.Attribute) and node.attr in PACKAGE_NAMES:
        node = node.value
    return isinstance(node, ast.Name) and node.id in PACKAGE_NAMES


def _read_names(node) -> set:
    """Names a statement reads: plain names, attributes of a package module
    (`ra._closed_masks`, `graphpower.cli.main`; `self.comm_b` reads no
    top-level name) and the names it imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and _names_a_module(sub.value):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) for each private top-level name (one leading
    underscore) of the given {module: source} that no other top-level
    statement of any of them reads."""
    return _unreferenced(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def _unreferenced(sources: dict, wanted, outside: set = frozenset()) -> list:
    """(module, name) for each top-level name of the given {module: source}
    that `wanted` accepts and that neither another top-level statement of
    any of them nor the set `outside` reads."""
    defined = []
    reads = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            defined.extend((module, name, len(reads)) for name in _defined_names(node)
                           if wanted(name))
            reads.append(_read_names(node))
    return sorted((module, name) for module, name, own in defined if name not in outside
                  and not any(name in r for i, r in enumerate(reads) if i != own))


def test_unreferenced_private_name_check_sees_a_leftover():
    sources = {"a": "def _used():\n    return 1\n\n\ndef _left(n):\n    return _left(n - 1)\n",
               "b": "from .a import _used\n_X = 1\nprint(_used(), _X)\n"}
    assert unreferenced_private_names(sources) == [("a", "_left")]


def test_every_private_top_level_name_is_referenced():
    # a private helper that nothing in the package reads is a leftover
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def _names_read_in(*folders) -> set:
    """Names that the .py files of the given top-level folders read."""
    out = set()
    for folder in folders:
        for path in (PACKAGE.parent.parent / folder).glob("*.py"):
            out |= _read_names(ast.parse(path.read_text()))
    return out


def test_every_public_top_level_name_is_read():
    # a public name that neither the package nor its tests, demos or
    # benchmark read is a leftover too
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    outside = _names_read_in("tests", "demos", "perfbench")
    assert _unreferenced(sources, lambda name: not name.startswith("_"), outside) == []


def public_names_only_tests_read(sources: dict, outside: set) -> list:
    """(module, name) for each public top-level name of the given {module:
    source} that no top-level statement of another module than `__init__`
    nor the set `outside` (what demos and the benchmark read) reads."""
    return _unreferenced({m: s for m, s in sources.items() if m != "__init__"},
                         lambda name: not name.startswith("_"), outside)


# the public names that only tests read: the paper-facing API (the subgroups
# Comm_b and Comm_d, and the orders and verdicts the paper defines) and the
# JSON schemas of the CLI payloads
TEST_READ_PUBLIC_NAMES = [
    ("graphs", "closed_neighborhood"),
    ("graphs", "is_isomorphic"),
    ("power", "comm_b"),
    ("power", "comm_b_order"),
    ("power", "comm_d"),
    ("power", "comm_d_order"),
    ("power", "is_g_ra"),
    ("schemas", "CLASSIFY_SCHEMA"),
    ("schemas", "GRAPH_SCHEMA"),
    ("schemas", "GROUP_REPORT_SCHEMA"),
    ("schemas", "RA_VERDICT_SCHEMA"),
    ("schemas", "SOLVE_SCHEMA"),
]


def test_public_name_check_sees_a_name_only_tests_read():
    sources = {"__init__": "from .a import kept, shown\n",
               "a": "def helper():\n    return 1\n\n\ndef kept():\n    return helper()\n"
                    "\n\ndef shown():\n    return 2\n"}
    assert public_names_only_tests_read(sources, {"shown"}) == [("a", "kept")]


def test_public_name_check_counts_only_attributes_of_package_modules():
    sources = {"__init__": "", "ra": "def kept():\n    return 1\n",
               "power": "class _Report:\n    def f(self, obj):\n"
                        "        return self.kept, obj.kept\n"}
    assert public_names_only_tests_read(sources, set()) == [("ra", "kept")]
    sources["power"] = "from . import ra\nprint(ra.kept())\n"
    assert public_names_only_tests_read(sources, set()) == []
    assert _read_names(ast.parse("graphpower.ra.kept\nx.ra.other")) == \
        {"graphpower", "ra", "kept", "x"}


def test_public_names_only_tests_read_are_listed():
    # a public name that only tests read is a helper for the tests, which
    # belongs in tests/oracles.py, unless it is listed above
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert public_names_only_tests_read(sources, _names_read_in("demos", "perfbench")) == \
        TEST_READ_PUBLIC_NAMES


def private_names_read_from(module: str, sources: dict) -> list:
    """The private top-level names of `module` that the other modules of the
    given {module: source} import from it or read as its attributes."""
    private = set()
    for node in ast.parse(sources[module]).body:
        private |= {name for name in _defined_names(node)
                    if name.startswith("_") and not name.startswith("__")}
    read = set()
    for other, source in sources.items():
        if other == module:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and \
                    ast.unparse(node.value).split(".")[-1] == module:
                read.add(node.attr)
    return sorted(private & read)


def test_private_name_check_sees_a_twin_read_from_outside():
    sources = {"zlinalg": "def _kernel():\n    pass\n\n\ndef _twin():\n    pass\n\n\n"
                          "def _inner():\n    pass\n",
               "ra": "from .zlinalg import _kernel\nfrom . import zlinalg\nzlinalg._twin()\n",
               "cli": "import graphpower.zlinalg\ngraphpower.zlinalg._kernel()\n_inner = 1\n"}
    assert private_names_read_from("zlinalg", sources) == ["_kernel", "_twin"]


# the private zlinalg names that other modules read: the echelon kernel, for
# solver's reachability profile, and the prime helpers of ra and groups;
# every other reader hands an IntMat to a public zlinalg function, so no
# (rows, n) twin of one may grow back
ZLINALG_PRIVATE_NAMES_READ_OUTSIDE = [
    "_echelon",
    "_require_prime",
    "_smallest_prime_factor",
]


def test_private_zlinalg_names_read_outside_zlinalg_are_listed():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert private_names_read_from("zlinalg", sources) == ZLINALG_PRIVATE_NAMES_READ_OUTSIDE


def functions_reading(name: str, source: str) -> list:
    """The top-level functions of `source` that read `name`."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and name in _read_names(node))


def test_function_check_sees_a_reader():
    source = ("def _kernel():\n    pass\n\n\ndef a():\n    return _kernel()\n"
              "\n\ndef b(f=_kernel):\n    return f\n\n\ndef c():\n    return kernel()\n")
    assert functions_reading("_kernel", source) == ["a", "b"]


# the zlinalg functions that call each prime-field kernel: the echelon solves,
# the early-stop basis takes every rank and span mod p <= 13, so a third
# prime-field route cannot grow back unnoticed
ZLINALG_PRIME_KERNEL_CALLERS = {
    "_prime_echelon": ["_prime_row_solve"],
    "_basis_rank": ["rank_mod_p", "span_order_mod"],
}


def test_prime_field_kernels_have_the_listed_callers():
    source = (PACKAGE / "zlinalg.py").read_text()
    assert {name: functions_reading(name, source) for name in ZLINALG_PRIME_KERNEL_CALLERS} \
        == ZLINALG_PRIME_KERNEL_CALLERS


def modules_reading_attribute(attribute: str, sources: dict) -> list:
    """The modules of the given {module: source} that read `attribute` of
    any object."""
    return sorted(module for module, source in sources.items()
                  if any(isinstance(node, ast.Attribute) and node.attr == attribute
                         for node in ast.walk(ast.parse(source))))


def test_attribute_check_sees_a_reader():
    sources = {"zlinalg": "x._row_masks = ()\n", "power": "y = mat._row_masks\n",
               "ra": "_row_masks = 1\nz = graph._masks\n"}
    assert modules_reading_attribute("_row_masks", sources) == ["power", "zlinalg"]


def test_only_zlinalg_reads_the_masks_of_an_intmat():
    # the bitmask rows of an IntMat are zlinalg's format: other modules build
    # a matrix with IntMat.from_masks, ask it whether it is 0/1 (`_zero_one`)
    # or read its entry tuples, so the format can change in one module
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert modules_reading_attribute("_row_masks", sources) == ["zlinalg"]


def test_cli_import_loads_no_dataclasses():
    # -S keeps out whatever site would import, which could mask the result
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import graphpower.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
