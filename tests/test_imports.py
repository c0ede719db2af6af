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


def test_cli_import_loads_no_dataclasses():
    # -S keeps out whatever site would import, which could mask the result
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import graphpower.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
