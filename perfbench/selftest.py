"""Planted-fault test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs each workload's pipeline on one or two small instances, requires the
checks to pass on the program's real outputs, then plants one fault at a
time in those outputs and requires the checks to report it.  Exits 1 if a
check misses a fault or flags a correct output.  Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import run

TINY = {
    "trek-family": run._cells([(2, (6, 0, 6, 0, 1, False))]),
    "latent-identify": run._cells([(1, (6, 1, 6, 3, 1, True))]),
    "separation-queries": run._cells([(1, (5, 0, 5, 0, 1, False))]),
    "plan-and-simulate": run._cells([(1, (8, 3, 8, 3, 1, True))]),
}


def _rewrite(path, edit) -> None:
    data = run._load(path)
    edit(data)
    Path(path).write_text(json.dumps(data))


def _bump(coeffs: list[str], k: int = 0) -> None:
    coeffs[k] = str(Fraction(coeffs[k]) + Fraction(1, 1000))


def faults(workload: str, inst: dict, result, sv):
    """Yield (description, planted result) pairs; files are edited in place."""
    f = inst["files"]
    if workload == "trek-family":
        S, S_trek = result
        e = S.entries[0][1] if not S.entries[0][1].is_zero else S.entries[0][0]
        bumped = sv.ratfield.RatFn(e.num + sv.ratfield.Poly((Fraction(1, 1000),)), e.den)
        rows = [list(r) for r in S.entries]
        rows[0][1 if e is S.entries[0][1] else 0] = bumped
        planted = sv.ratlinalg.RatMatrix(S.row_labels, S.col_labels, rows)
        yield "one coefficient perturbed in the matrix spectrum", (planted, S_trek)
        yield "the same entry perturbed in both spectra", (planted, planted)
    elif workload == "latent-identify":
        _rewrite(f["bundle"], lambda d: _bump(d["S"]["entries"][0][0]["num"]))
        yield "one coefficient perturbed in the bundle's S", result
        run.run_instance(workload, inst, sv)

        def bump_link(d):
            _bump(next(s for s in d["steps"] if s["solved"])["solved"][0]["link"]["num"])
        _rewrite(f["cert"], bump_link)
        yield "one coefficient perturbed in a solved link", result
        run.run_instance(workload, inst, sv)

        def drop_link(d):
            step = next(s for s in d["steps"] if s["solved"])
            step["solved"] = step["solved"][1:]
        _rewrite(f["cert"], drop_link)
        yield "one solved edge dropped from the certificate", result
        run.run_instance(workload, inst, sv)

        def unsolve_vertex(d):
            step = d["steps"].pop()
            d["unresolved_vertices"] = sorted(d["unresolved_vertices"] + [step["vertex"]])
            d["unresolved_edges"] = sorted(d["unresolved_edges"]
                                           + [[e["from"], e["to"]] for e in step["solved"]])
        _rewrite(f["cert"], unsolve_vertex)
        yield "the last solved vertex moved to unresolved in the certificate", result
    elif workload == "separation-queries":
        def drop_edge(d):
            key = "directed" if d["directed"] else "undirected"
            d[key] = d[key][1:]
        _rewrite(f["cpdag"], drop_edge)
        yield "one edge dropped from the CPDAG", result
        run.run_instance(workload, inst, sv)
        wrong = json.loads(json.dumps(result))
        wrong["outputs"]["generic_rank"] += 1
        yield "generic rank off by one", wrong
    elif workload == "plan-and-simulate":
        order, tsep = result

        def rescale(d):
            for m in d["matrices"]:
                m["real"] = [[2 * x for x in row] for row in m["real"]]
                m["imag"] = [[2 * x for x in row] for row in m["imag"]]
        _rewrite(f["estimate"], rescale)
        yield "Welch estimate rescaled by 2", result
        run.run_instance(workload, inst, sv)
        wrong = json.loads(json.dumps(tsep))
        out = wrong["outputs"]
        side = "Z_X" if out["Z_X"] else "Z_Y"
        out[side] = out[side][1:]
        out["size"] -= 1
        yield "one vertex dropped from the t-separating pair", (order, wrong)
        v = next(v for v, t in order.steps if t.Y)
        bad = type(order)(tuple((u, type(t).make(t.Y[1:], t.W, t.Lp) if u == v else t)
                                for u, t in order.steps), order.unresolved)
        yield "one vertex dropped from an LF-HTC triple's Y", (bad, tsep)
        unsolved = type(order)(order.steps[:-1], tuple(sorted(order.unresolved + (order.steps[-1][0],))))
        yield "the last solved vertex moved to unresolved", (unsolved, tsep)
        yield "a triple meeting every LF-HTC condition but the half-trek system", \
            (_without_system(order, inst["objects"]["base"], sv), tsep)


def _without_system(order, base, sv):
    """The order with one step's Y replaced so that only condition 3 fails."""
    g = sv.graph
    done = set()
    for i, (v, t) in enumerate(order.steps):
        solved = {(x, u) for u in done for x in base.pa_observed(u)}
        others = [x for x in base.observed if x != v and x not in t.W]
        for Y in combinations(others, len(t.Y)):
            triple = g.LfhtcTriple.make(Y, t.W, t.Lp)
            c = g.lfhtc_check(base, v, triple)
            if c.condition1 and c.condition2 and not c.condition3 \
                    and set(g.lfhtc_prerequisite_edges(base, v, triple)) <= solved:
                steps = order.steps[:i] + ((v, triple),) + order.steps[i + 1:]
                return type(order)(steps, order.unresolved)
        done.add(v)
    raise RuntimeError("no triple fails condition 3 alone on this instance")


def main() -> int:
    sv = run.import_program()
    started = time.perf_counter()
    bad = 0
    for workload, cells in TINY.items():
        workdir = run.WORK / f"selftest-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            inst = run.make_instances(workload, 1, workdir, sv, cells)[-1]
            result = run.run_instance(workload, inst, sv)
            clean = run.check_instance(workload, inst, result)
            print(f"{workload}: real outputs {'pass' if not clean else 'FLAGGED ' + str(clean)}")
            bad += bool(clean)
            for description, planted in faults(workload, inst, result, sv):
                problems = run.check_instance(workload, inst, planted)
                print(f"  {description}: {'caught' if problems else 'MISSED'}")
                bad += not problems
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'all faults caught' if not bad else f'{bad} failures'} "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
