"""Import hygiene: every module-level import in the package and the tests
is used.

A name a module-level import binds must be read somewhere in its
module, or be listed in the module's `__all__` (a re-export).
`from __future__ import annotations` binds nothing and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/virmin/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that the
    module never reads and does not list in `__all__`, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "print(os.sep, gcd(4, 6))\n"
    )
    assert unused_imports(source) == ["js", "lcm"]
