"""Planted faults in `src/` that the test suite must catch (mutation analysis).

Each entry of `MUTANTS` names a file under `src/svarspec`, a text that occurs
there exactly once, its replacement, and the tests that must fail on the
result.  The script copies `src/` to a temporary directory and checks that
every entry's text occurs exactly once, so a refactor that moves the text
updates this list instead of skipping the entry.  It runs all named tests once
on the unchanged copy, where they must pass, and then applies each entry in
turn and runs its tests with `-x`.  A mutant is caught when pytest reports a
failing test (exit status 1); a pass, or any other status, fails the script.

    python tests/mutants.py

pytest does not collect this file: its name does not match `test_*.py`.
See DeMillo, Lipton & Sayward 1978 (IEEE Computer 11(4)) and Jia & Harman
2011 (IEEE TSE 37(5)).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/svarspec
    old: str
    new: str
    tests: tuple[str, ...]


SVAR = "tests/test_svar.py::"
SIM = "tests/test_simulate.py::"

MUTANTS = [
    # the cyclic spectrum through the kernel
    Mutant("D_a dropped from into[v][a]", "svar.py",
           "[x if bit & known else D[a] * x,", "[x,",
           (SVAR + "test_cyclic_spectrum_where_d_vanishes_at_zero",)),
    Mutant("d used in place of d* on the right", "svar.py",
           "kd = _KnownDenominator(kd.left + [core])\n",
           "kd = _KnownDenominator(kd.left + [core])\n        kd.right[-1] = core\n",
           (SVAR + "test_cyclic_spectrum_over_a_linear_determinant",)),
    Mutant("back-substitution divides by d instead of U_ii", "ratlinalg.py",
           ".divexact(U[i]) for b", ".divexact(d) for b",
           ("tests/test_ratlinalg.py::test_adjugate_solves_m_x_equal_to_d_times_identity",)),
    Mutant("the latent sum keeps only its last child", "svar.py",
           "sums.setdefault(l, [P_ZERO, known])[0] += x * links[(l, a)][0]",
           "sums[l] = [x * links[(l, a)][0], known]",
           (SVAR + "test_cyclic_spectrum_where_d_shares_a_factor_off_the_cycle",)),
    Mutant("no D_a divided out of d", "svar.py",
           "d, known = d.divexact(D[a]), known | tops[a][1]", "raise ArithmeticError",
           (SVAR + "test_cyclic_spectrum_where_d_shares_a_factor_off_the_cycle",)),
    Mutant("the zero-coefficient shift of d dropped", "svar.py",
           "low = next(i for i, c in enumerate(d.p) if c)", "low = 0",
           (SVAR + "test_cyclic_spectrum_where_d_vanishes_at_zero",)),
    # the known-denominator kernel
    Mutant("the root's sign flipped", "svar.py",
           "return -f.p[0] * pow(f.p[1], -1, MOD_PRIME) % MOD_PRIME",
           "return f.p[0] * pow(f.p[1], -1, MOD_PRIME) % MOD_PRIME",
           (SVAR + "test_kernel_cancels_a_repeated_auto_polynomial",)),
    Mutant("D_i's root used for D_i*", "svar.py",
           "[_root_mod(f) for f in self.right])", "[_root_mod(f) for f in self.left])",
           (SVAR + "test_kernel_cancels_a_repeated_auto_polynomial",)),
    Mutant("the mirror without conj", "svar.py",
           "rows[j][i] = rows[i][j].conj()", "rows[j][i] = rows[i][j]",
           (SVAR + "test_spectrum_hermitian",)),
    Mutant("the shift slice off by one", "svar.py",
           "num = _new(num.n, num.d, num.p[zeros:])",
           "num = _new(num.n, num.d, num.p[zeros - 1:])",
           (SVAR + "test_rectangular_block_is_the_submatrix_of_s",)),
    Mutant("the own term dropped from S_LI", "svar.py",
           "{a: {a: _ONE, **{", "{a: {**{",
           (SVAR + "test_projected_internal_spectrum_without_latents",)),
    # the rank filter of generic_rank over the kernel's values
    Mutant("image ignores the right mask", "svar.py",
           "(d_star if right >> i & 1 else 1)", "1",
           (SVAR + "test_spectrum_mod_takes_no_gcd",)),
    Mutant("the fallback reads rank_mod where it needs rank", "svar.py",
           "rank(RatMatrix(X, Y, [[kd.ratfn(a) for a in row] for row in block]))",
           "rank_mod([[kd.image(a) for a in row] for row in block])",
           (SVAR + "test_generic_rank_stops_at_full_rank",)),
    Mutant("generic_rank accepts bound - 1", "svar.py",
           "for row in block]) == bound:", "for row in block]) >= bound - 1:",
           (SVAR + "test_generic_rank_stops_at_full_rank",)),
    Mutant("the kernel image ignores the content denominator", "svar.py",
           "return f.n * _horner_mod(f.p, z) * pow(f.d, -1, MOD_PRIME) % MOD_PRIME",
           "return f.n * _horner_mod(f.p, z) % MOD_PRIME",
           (SVAR + "test_kernel_image_unlucky_cases",)),
    # the spectral CI oracle and the graph searches
    Mutant(">= for > in the oracle's modular verdict", "identify.py",
           "for i in rows]) > len(z)", "for i in rows]) >= len(z)",
           ("tests/test_identify.py::test_modular_filter_never_proves_a_vanishing_spectrum_nonzero",)),
    Mutant("the oracle's lower triangle without kd.conj", "identify.py",
           "values[j][i] = kd.conj(values[i][j])", "values[j][i] = values[i][j]",
           ("tests/test_cli.py::test_discover_reads_the_kernel_and_makes_canonical_only_what_it_ranks",)),
    Mutant("the augmenting path not reversed", "graph.py",
           "        residual[b][a] = residual[b].get(a, 0) + push\n", "",
           ("tests/test_graph.py::test_tsep_matches_brute_force_reference",)),
    Mutant("the regression-first rule dropped", "graph.py",
           "if lfhtc_check(graph, v, regression).ok and all(", "if False and all(",
           ("tests/test_graph.py::test_lfhtc_search_regression_on_fully_observed",)),
    # path and trek listing
    Mutant("every top lists its paths", "graph.py",
           "if (n := into_v[top] * into_w[top])}", "if (n := into_v[top] * into_w[top]) or True}",
           ("tests/test_graph.py::test_trek_listing_with_no_trek_lists_no_path",)),
    Mutant("the empty path dropped at u == y", "graph.py",
           "paths = [(u,)] if u == y else []", "paths = []",
           ("tests/test_graph.py::test_empty_path_at_every_vertex",)),
    Mutant("spectrum_trek sums the first path of each top only", "svar.py",
           "kd.total(map(side, enumerate_paths(graph, t, v)))",
           "kd.total(map(side, enumerate_paths(graph, t, v)[:1]))",
           (SVAR + "test_spectrum_trek_with_latents",)),
    # the input bounds: each has a test at the bound and one past it
    Mutant(">= for > in the CI-test bound", "cli.py",
           "if count > MAX_CI_TESTS:", "if count >= MAX_CI_TESTS:",
           ("tests/test_cli.py::test_discover_exits_validation_past_max_ci_tests",)),
    Mutant(">= for > in the estimate-size bound", "cli.py",
           "if values > MAX_ESTIMATE_VALUES:", "if values >= MAX_ESTIMATE_VALUES:",
           ("tests/test_cli.py::test_estimate_exits_validation_past_max_estimate_values",)),
    Mutant(">= for > in the trials bound", "cli.py",
           "if args.trials > MAX_TRIALS:", "if args.trials >= MAX_TRIALS:",
           ("tests/test_cli.py::test_query_rank_runs_max_trials_and_refuses_one_more_before_any_draw",)),
    # exact JSON input
    Mutant("no comma count in the list checker", "io.py",
           'joined.count(",") == len(coeffs) - 1', "True",
           ("tests/test_io.py::test_coefficient_parser_matches_the_fraction_oracle",)),
    Mutant("an eager S", "io.py",
           "[[_checked_ratfn(e) for e in row]", "[[_ratfn(_checked_ratfn(e)) for e in row]",
           ("tests/test_cli.py::test_identify_spectrum_builds_only_the_s_entries_it_reads",)),
    Mutant("load_bundle checks only S", "io.py",
           "matrix_from_dict(data[key]) for key in _BUNDLE_KEYS",
           "matrix_from_dict(data[key]) if key == \"S\" else None for key in _BUNDLE_KEYS",
           ("tests/test_cli.py::test_misread_inputs_exit_validation[bundle H zero denominator]",
            "tests/test_cli.py::test_misread_inputs_exit_validation[bundle S_I missing den]",
            "tests/test_cli.py::test_misread_inputs_exit_validation[bundle S_LI rows string]")),
    Mutant("the list checker's fallback joins the raw strings", "io.py",
           'return ",".join(f"{p}/{q}" for p, q in _ratios(coeffs)) or "0"',
           'return ",".join(coeffs) if _ratios(coeffs) else "0"',
           ("tests/test_io.py::test_spectral_density_loader_refuses_what_the_bundle_loader_refuses[H]",)),
    Mutant("the estimate writer names the window \"hanning\"", "io.py",
           '"window": "hann",', '"window": "hanning",',
           ("tests/test_io.py::test_estimate_round_trip",)),
    # graph files
    Mutant("TimeSeriesGraph.make keeps cross lags unsorted and repeated", "graph.py",
           "(str(a), str(b)): tuple(sorted(set(int(k) for k in lags)))",
           "(str(a), str(b)): tuple(int(k) for k in lags)",
           ("tests/test_io.py::test_graph_loader_sorts_and_deduplicates_lags",)),
    # the simulation a column at a time, and the series writer
    Mutant("the column-wise run takes an in-component source", "simulate.py",
           "enumerate(vterms) if j in inside)", "enumerate(vterms) if j == i)",
           (SIM + "test_simulation_and_series_files_match_the_scalar_reference",)),
    Mutant("the column-wise lag slice off by one", "simulate.py",
           "col[k:] += c * values[:total - k, j]", "col[k + 1:] += c * values[:total - k - 1, j]",
           (SIM + "test_components_run_in_dependence_order_and_terms_in_cross_order",)),
    Mutant("components visited in contemporaneous order", "simulate.py",
           "sorted(groups.values(), key=lambda c: len(ancestors[c[0]]))", "list(groups.values())",
           (SIM + "test_components_run_in_dependence_order_and_terms_in_cross_order",)),
    Mutant("the k <= t warm-up guard dropped", "simulate.py",
           "if k <= t:", "if True:",
           (SIM + "test_components_run_in_dependence_order_and_terms_in_cross_order",)),
    Mutant("the one-term recursion covers one residue of its lag", "simulate.py",
           "for r in range(k):", "for r in range(1):",
           (SIM + "test_components_run_in_dependence_order_and_terms_in_cross_order",)),
    Mutant("a block of the step loop keeps one step of history too few", "simulate.py",
           "low, stop = max(start - lag, 0)", "low, stop = max(start - lag + 1, 0)",
           (SIM + "test_simulation_and_series_files_match_the_scalar_reference",)),
    Mutant("save_series drops the empty series' second newline", "io.py",
           'fh.write("\\n")\n', "pass\n",
           ("tests/test_io.py::test_series_bytes_match_the_reference_at_block_and_empty_shapes",)),
    # the streaming series reader and the chunked digest
    Mutant("the last line split with its line break on", "io.py",
           'yield from last.removesuffix("\\n").splitlines()', "yield from last.splitlines()",
           ("tests/test_io.py::test_series_loader_matches_the_reference_on_malformed_text",)),
    Mutant("held-back blank lines flushed at the end of the file", "io.py",
           '        yield from last.removesuffix("\\n").splitlines()\n',
           '        yield from last.removesuffix("\\n").splitlines()\n        yield from [""] * blanks\n',
           ("tests/test_io.py::test_series_loader_matches_the_reference_on_malformed_text",)),
    Mutant("load_series reads the whole text", "io.py",
           "lines = _series_lines(fh)", 'lines = iter(fh.read().strip("\\n").splitlines())',
           ("tests/test_io.py::test_series_loader_never_holds_the_whole_text",)),
    Mutant("digest reads the whole file", "io.py",
           "while chunk := fh.read(1 << 16):", "while chunk := fh.read():",
           ("tests/test_io.py::test_digest_hashes_a_file_in_chunks",)),
    Mutant("a graph with no vertices simulated", "simulate.py",
           "if not labels:", "if False:",
           ("tests/test_cli.py::test_simulate_refuses_a_graph_with_no_vertices_before_writing",)),
    # the exact layer loads no numpy
    Mutant("numpy imported when io loads", "io.py",
           "from typing import TYPE_CHECKING, Any\n",
           "from typing import TYPE_CHECKING, Any\n\nimport numpy as np\n",
           ("tests/test_imports.py::test_exact_commands_never_load_numpy",)),
    # every public name has a caller
    Mutant("a public function that nothing calls", "io.py",
           "def digest(path) -> str:", "def orphan() -> None:\n    pass\n\n\ndef digest(path) -> str:",
           ("tests/test_imports.py::test_every_public_name_has_a_caller_or_is_listed",)),
]


def _pytest(src: Path, tests) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    mutants = MUTANTS
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        stale = [f"{m.name}: {m.file} holds its text {n} times, not once"
                 for m in mutants
                 if (n := (src / "svarspec" / m.file).read_text().count(m.old)) != 1]
        if stale:
            print("\n".join(stale))
            return 1
        tests = sorted({t for m in mutants for t in m.tests})
        if _pytest(src, tests):
            print("the named tests fail on the unchanged source")
            return 1
        survived = []
        for m in mutants:
            path = src / "svarspec" / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            status = _pytest(src, m.tests)
            path.write_text(text)
            verdict = "caught" if status == 1 else f"NOT CAUGHT (pytest exit {status})"
            print(f"{verdict:<28} {time.perf_counter() - start:5.1f} s  {m.name}")
            if status != 1:
                survived.append(m.name)
    print(f"{len(mutants) - len(survived)} of {len(mutants)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
