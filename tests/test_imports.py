"""Source checks: no module of the package imports a name it never uses,
every public function and class has a caller in the package or is listed with
what runs it, and only `io` touches a file or knows a file format.  Import
checks: the exact commands run in a fresh interpreter without loading numpy.

Code that moves out of a module (to another module, or to a test oracle)
tends to leave its imports behind, and code whose last caller goes tends to
stay; pyflakes and vulture would catch them, but the checks need only `ast`.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import svarspec

#: The source of the package under test, wherever it was imported from.
PACKAGE = pathlib.Path(svarspec.__file__).parent


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


def _string_annotations(tree: ast.AST) -> list[ast.AST]:
    """The parsed text of each annotation written as a string ("Poly")."""
    return [ast.parse(a.value, mode="eval") for a in _annotations(tree)
            if isinstance(a, ast.Constant) and isinstance(a.value, str)]


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
    read = [tree] + _string_annotations(tree)
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


def _read_names(node: ast.AST) -> set[str]:
    """Every name `node` reads, bare or as an attribute, string annotations included."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for t in [node] + _string_annotations(node) for n in ast.walk(t)
            if isinstance(n, (ast.Name, ast.Attribute))}


def uncalled_public_names(sources: dict[str, str]) -> list[str]:
    """`module.name` of each public module-level function and class in
    `sources` (module name -> text) that no code reads outside its own
    definition, sorted.

    A name counts as read wherever a name or an attribute of that spelling
    occurs in any module, so a method of the same name hides an uncalled
    function; an import alone does not read it.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [(node, _read_names(node)) for tree in trees.values() for node in tree.body]
    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for other, names in reads if other is not node))


def test_uncalled_public_names_finds_what_nothing_reads():
    sources = {"a": '''
def used():
    return helper()

def helper():
    return 1

def recursive(n):
    return recursive(n - 1) if n else 0

def _private():
    pass

def imported_only():
    pass

class Orphan:
    def used(self):
        pass

def annotated(x: "Shape") -> None:
    pass
''', "b": '''
from .a import imported_only
from . import a

class Shape:
    pass

def caller():
    return a.used() + [a.annotated]
'''}
    assert uncalled_public_names(sources) == ["a.Orphan", "a.imported_only", "a.recursive",
                                              "b.caller"]


#: The public names no code in the package calls, and what runs each one.
CALLED_OUTSIDE_THE_PACKAGE = {
    "ratlinalg.det": "acceptance criterion 2",
    "identify.identify_instrument": "acceptance criterion 6",
    "identify.recover_lag_coefficients": "acceptance criterion 9",
    "simulate.exact_spectrum_values": "acceptance criterion 10",
    "svar.spectrum_trek": "acceptance criterion 3 and the trek-family benchmark workload",
    "svar.conditional_spectrum": "the benchmark's tracer, which binds it by name",
}


def test_every_public_name_has_a_caller_or_is_listed():
    """A name whose last caller leaves the package leaves it too, or moves to
    the tests beside its callers; `__init__` only re-exports, so its imports
    are no callers."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert uncalled_public_names(sources) == sorted(CALLED_OUTSIDE_THE_PACKAGE)


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


# -- the exact layer loads no numpy ------------------------------------------------------

#: Each exact command, run through `cli.main` in one fresh interpreter after
#: `import svarspec.cli`; "{dir}" is the directory of the input files.
EXACT_COMMANDS = [
    ["validate", "--graph", "{dir}/graph.json"],
    ["query", "--graph", "{dir}/graph.json", "--query", "dsep", "--x", "u", "--y", "w",
     "--z", "v,l"],
    ["query", "--graph", "{dir}/graph.json", "--query", "tsep", "--x", "v", "--y", "w"],
    ["query", "--graph", "{dir}/graph.json", "--query", "treks", "--x", "v", "--y", "w"],
    ["query", "--graph", "{dir}/graph.json", "--query", "rank", "--x", "v", "--y", "w",
     "--seed", "3"],
    ["spectrum", "--graph", "{dir}/graph.json", "--params", "{dir}/params.json",
     "--out", "{dir}/bundle.json"],
    ["identify", "--graph", "{dir}/graph.json", "--spectrum", "{dir}/bundle.json",
     "--out", "{dir}/cert_spectrum.json"],
    ["identify", "--graph", "{dir}/graph.json", "--params", "{dir}/params.json",
     "--out", "{dir}/cert_params.json"],
    ["discover", "--graph", "{dir}/graph.json", "--params", "{dir}/params.json"],
    ["discover", "--graph", "{dir}/graph.json", "--seed", "1"],
]

#: Prints, as JSON, the floating-point modules loaded after the import and
#: after each command, with each command's exit code.
FRESH_RUN = """
import contextlib, io, json, sys
FLOAT = ("numpy", "svarspec.simulate")
import svarspec.cli
seen = [["import", 0, [m for m in FLOAT if m in sys.modules]]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = svarspec.cli.main(argv)
    seen.append([" ".join(argv[:2]), code, [m for m in FLOAT if m in sys.modules]])
print(json.dumps(seen))
"""


def test_exact_commands_never_load_numpy(tmp_path, instrument_tsg):
    from svarspec.svar import sample_stable_params

    from io_reference import save_graph, save_params
    save_graph(instrument_tsg, tmp_path / "graph.json")
    save_params(sample_stable_params(instrument_tsg, seed=7), tmp_path / "params.json")
    commands = [[a.format(dir=tmp_path) for a in argv] for argv in EXACT_COMMANDS]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == len(commands) + 1
    assert [(step, code, loaded) for step, code, loaded in seen
            if code or loaded] == []


SIMULATION_NAMES = ["EstimationError", "IllConditionedBlockError", "SeriesSample",
                    "SimulationError", "SpectrumEstimate", "empirical_ci_test",
                    "estimate_spectrum", "exact_spectrum_values", "simulate_series"]


def test_simulation_names_are_re_exported_on_first_use():
    import svarspec.simulate
    assert svarspec.simulate_series is svarspec.simulate.simulate_series
    assert set(SIMULATION_NAMES) <= set(dir(svarspec))
    for name in SIMULATION_NAMES:
        assert getattr(svarspec, name) is getattr(svarspec.simulate, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        svarspec.no_such_name
