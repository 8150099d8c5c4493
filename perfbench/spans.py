"""Span tracing of svarspec from outside the program.

`Tracer.install` replaces the public functions and methods of each svarspec
module, in every svarspec namespace that binds them, with wrappers that
record a span per call.  Spans nest through a stack; on exit a span's
duration is added to its function's inclusive time (outermost activation
only, so recursion is not counted twice) and its duration minus that of its
direct children to its self time.  A module's self time is the sum over its
functions.  Hooks read arguments and results to count sizes (matrix
dimensions, degrees, bytes); their own time is charged to no span.

Spans shallower than `KEEP_DEPTH` (CLI commands and their steps, library
calls and their direct callees) are also kept as records, so the shape of
one instance can be read from the trace file; deeper spans, which run in
the hundreds of thousands, are only aggregated.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

#: svarspec modules traced, in layer order.
LAYERS = ("ratfield", "ratlinalg", "graph", "svar", "identify", "simulate", "io", "cli")

#: Arithmetic and call dunders wrapped alongside public methods.
DUNDERS = ("__init__", "__call__", "__add__", "__sub__", "__mul__", "__neg__",
           "__truediv__", "__matmul__", "__divmod__", "__floordiv__", "__mod__")

#: Constant-time accessors left unwrapped; their time counts toward the caller.
ACCESSORS = {"entry", "at", "parents", "children", "pa_observed", "pa_latent",
             "has_edge", "auto_lags_of", "vertex_set", "matrix_at", "column"}

#: Spans shallower than this are kept as records.
KEEP_DEPTH = 2

perf_counter = time.perf_counter

UNITS = {
    "graph.lfhtc_check_yield": "ratio",
    "simulate.vertex_steps_per_s": "1/s",
    "trace.instances_per_s": "1/s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "svar.max_coeff_bits": "bit",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def _max_size(matrix) -> tuple[int, int]:
    degree, bits = 0, 0
    for row in matrix.entries:
        for e in row:
            for p in (e.num, e.den):
                degree = max(degree, len(p.coeffs) - 1)
                for c in p.coeffs:
                    bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return degree, bits


def _binder(fn):
    """Map a call's (args, kwargs) to fn's parameter names, defaults filled in."""
    signature = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.distinct_z: set = set()
        self._keep: list = []
        self.spans: list[tuple] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def wrap(self, fn, name, hook=None):
        stack, stats, active, spans = self.stack, self.stats, self.active, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            depth = len(stack)
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += duration
                entry = stats[name]
                entry[0] += 1
                if not active[name]:
                    entry[1] += duration
                entry[2] += duration - frame[0]
                if depth < KEEP_DEPTH:
                    spans.append((name, depth, start, duration))
            if hook is not None:
                hook_start = perf_counter()
                replaced = hook(args, kwargs, result)
                if replaced is not None:
                    result = replaced
                if stack:
                    stack[-1][0] += perf_counter() - hook_start
            return result

        return traced

    # -- installation --------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and method of the traced modules."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        namespaces = [package] + list(modules.values())
        hooks = self._hooks(modules)
        for mod_name, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{mod_name}.{attr}"
                    wrapped = self.wrap(obj, name, hooks.get(name))
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, key, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(mod_name, obj, hooks)

    def _wrap_class(self, mod_name, cls, hooks) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr in ACCESSORS or (attr.startswith("_") and attr not in DUNDERS):
                continue
            if "__dataclass_fields__" in vars(cls) and attr == "__init__":
                continue
            name = f"{mod_name}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, hooks.get(name)))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, hooks.get(name)))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, hooks.get(name))
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key) if not inspect.isclass(owner)
                           else vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- size hooks ------------------------------------------------------------------

    def _hooks(self, modules) -> dict:
        counts, maxima = self.counts, self.maxima

        def spectrum_size(args, kwargs, result):
            matrix = getattr(result, "S", result)
            degree, bits = _max_size(matrix)
            maxima["svar.max_degree"] = max(maxima["svar.max_degree"], degree)
            maxima["svar.max_coeff_bits"] = max(maxima["svar.max_coeff_bits"], bits)

        conditional_args = _binder(modules["svar"].conditional_spectrum)
        simulate_args = _binder(modules["simulate"].simulate_series)

        def conditional(args, kwargs, result):
            bound = conditional_args(args, kwargs)
            S, Z = bound["S"], bound["Z"]
            if Z:
                counts["svar.conditional_solves"] += 1
                self.distinct_z.add((id(S), frozenset(Z)))
                self._keep.append(S)  # keeps id(S) unique while counted

        def solve_dim(args, kwargs, result):
            maxima["ratlinalg.solve_max_dim"] = max(maxima["ratlinalg.solve_max_dim"],
                                                    len(args[0].row_labels))

        def oracle(args, kwargs, result):
            # the oracle is a closure made per spectrum: trace it as its own span
            return self.wrap(result, "identify.ci_oracle")

        def identify_steps(args, kwargs, result):
            counts["identify.steps"] += len(result.steps)

        def order_steps(args, kwargs, result):
            counts["graph.lfhtc_triples_used"] += len(result.steps)

        def simulate_steps(args, kwargs, result):
            burn_in = simulate_args(args, kwargs)["burn_in"]
            counts["simulate.vertex_steps"] += (result.length + burn_in) * len(result.labels)

        def segments(args, kwargs, result):
            counts["simulate.segments"] += result.segment_count

        def file_size(fn, counter):
            bind = _binder(fn)

            def hook(args, kwargs, result):
                counts[counter] += os.path.getsize(bind(args, kwargs)["path"])

            return hook

        hooks = {
            "svar.spectrum": spectrum_size,
            "svar.spectrum_trek": spectrum_size,
            "svar.conditional_spectrum": conditional,
            "identify.spectral_ci_oracle": oracle,
            "ratlinalg.solve_many": solve_dim,
            "identify.identify_all": identify_steps,
            "graph.lfhtc_order": order_steps,
            "simulate.simulate_series": simulate_steps,
            "simulate.estimate_spectrum": segments,
        }
        for attr in dir(modules["io"]):
            if attr.startswith("save_"):
                hooks[f"io.{attr}"] = file_size(getattr(modules["io"], attr), "io.bytes_written")
            elif attr.startswith("load_"):
                hooks[f"io.{attr}"] = file_size(getattr(modules["io"], attr), "io.bytes_read")
        return hooks

    # -- metrics ------------------------------------------------------------------------

    def _sum(self, prefix, column) -> float:
        return sum(v[column] for k, v in self.stats.items() if k.split(".")[0] == prefix)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round of the workload."""
        st = self.stats

        def calls(name):
            return st[name][0] if name in st else 0

        def incl(name):
            return st[name][1] if name in st else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self._sum(layer, 2)
        out.update({
            "ratfield.gcd_calls": calls("ratfield.poly_gcd"),
            "ratfield.gcd_s": incl("ratfield.poly_gcd"),
            "ratfield.poly_mul_calls": calls("ratfield.Poly.__mul__"),
            "ratfield.poly_mul_s": incl("ratfield.Poly.__mul__"),
            "ratfield.divexact_calls": calls("ratfield.Poly.divexact"),
            "ratfield.divexact_s": incl("ratfield.Poly.divexact"),
            "ratfield.ratfn_new_calls": calls("ratfield.RatFn.__init__"),
            "ratlinalg.solve_calls": calls("ratlinalg.solve_many"),
            "ratlinalg.solve_s": incl("ratlinalg.solve_many"),
            "ratlinalg.rank_calls": calls("ratlinalg.rank"),
            "ratlinalg.rank_s": incl("ratlinalg.rank"),
            "ratlinalg.matmul_calls": calls("ratlinalg.RatMatrix.__matmul__"),
            "ratlinalg.matmul_s": incl("ratlinalg.RatMatrix.__matmul__"),
            "svar.spectrum_s": incl("svar.spectrum"),
            "svar.spectrum_trek_s": incl("svar.spectrum_trek"),
            "svar.conditional_spectrum_calls": calls("svar.conditional_spectrum"),
            "svar.conditional_spectrum_s": incl("svar.conditional_spectrum"),
            "svar.conditional_solves": self.counts["svar.conditional_solves"],
            "svar.conditional_distinct_z": len(self.distinct_z),
            "svar.generic_rank_s": incl("svar.generic_rank"),
            "graph.enumerate_paths_calls": calls("graph.enumerate_paths"),
            "graph.enumerate_treks_s": incl("graph.enumerate_treks"),
            "graph.lfhtc_order_s": incl("graph.lfhtc_order"),
            "graph.lfhtc_check_calls": calls("graph.lfhtc_check"),
            "graph.t_separation_min_s": incl("graph.t_separation_min"),
            "graph.d_separated_calls": calls("graph.d_separated"),
            "identify.identify_all_s": incl("identify.identify_all"),
            "identify.steps": self.counts["identify.steps"],
            "identify.discover_s": incl("identify.discover_cpdag"),
            "identify.ci_oracle_calls": calls("identify.ci_oracle"),
            "simulate.simulate_s": incl("simulate.simulate_series"),
            "simulate.estimate_s": incl("simulate.estimate_spectrum"),
            "simulate.segments": self.counts["simulate.segments"],
            "io.save_s": sum(v[1] for k, v in st.items() if k.startswith("io.save_")),
            "io.load_s": sum(v[1] for k, v in st.items() if k.startswith("io.load_")),
            "io.bytes_written": self.counts["io.bytes_written"],
            "io.bytes_read": self.counts["io.bytes_read"],
            "cli.commands": calls("cli.main"),
        })
        out = {k: v / rounds for k, v in out.items()}
        checks = calls("graph.lfhtc_check")
        out["graph.lfhtc_check_yield"] = (self.counts["graph.lfhtc_triples_used"] / checks
                                          if checks else 0.0)
        simulate_s = incl("simulate.simulate_series")
        out["simulate.vertex_steps_per_s"] = (self.counts["simulate.vertex_steps"] / simulate_s
                                              if simulate_s else 0.0)
        out["svar.max_degree"] = self.maxima["svar.max_degree"]
        out["svar.max_coeff_bits"] = self.maxima["svar.max_coeff_bits"]
        out["ratlinalg.solve_max_dim"] = self.maxima["ratlinalg.solve_max_dim"]
        return out

    def table(self) -> list[dict]:
        return [{"name": k, "calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.stats.items(), key=lambda kv: -kv[1][2])]
