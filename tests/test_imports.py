"""Source checks: no module of the package imports a name it never uses, and
only `io` touches a file or knows a file format.

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


FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_access(source: str) -> list[str]:
    """The file reads and writes `source` calls and the dict codecs
    (`*_to_dict`, `*_from_dict`) it defines, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.add(f"{name}()")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith(("_to_dict", "_from_dict")):
                found.add(f"def {node.name}")
    return sorted(found)


def test_file_access_finds_reads_writes_and_codecs():
    source = '''
import json
from pathlib import Path

def matrix_to_dict(m):
    return {"rows": m.rows}

def save(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh)
    Path(path).write_text(json.dumps(data))
    return Path(path).read_bytes(), dict(data), data.to_dict()
'''
    assert file_access(source) == ["def matrix_to_dict", "open()", "read_bytes()",
                                   "write_text()"]


# io is the one module that reads or writes files and holds their formats.
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "io.py"))
def test_only_io_touches_files(module):
    assert file_access((PACKAGE / module).read_text()) == []
