"""Source check: no module of the package imports a name it never uses.

Code that moves out of a module (to another module, or to a test oracle)
tends to leave its imports behind; pyflakes would catch them, but the check
needs only `ast`.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "svarspec"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names that `source` binds by an import and never reads, sorted.

    `import a.b` binds `a`; `from __future__` imports are directives, not
    names.  A name read only inside a string annotation ("Poly") counts as
    read.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = [tree] + [ast.parse(a.value, mode="eval") for a in _annotations(tree)
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for t in read for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = '''
from __future__ import annotations
import os.path
import json as js
from fractions import Fraction
from .graph import Path, Trek, count_treks

def f(x: "Fraction") -> Path:
    return os.path.join(count_treks(x))
'''
    assert unused_imports(source) == ["Trek", "js"]


# __init__.py imports to re-export: its imports are the public surface.
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
