"""svarspec benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload trek-family --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Set-up (imports, drawing graphs and parameters, writing input
files) is repeated SETUPS times; `setup_s` is the median import time plus
the median time to draw and write the inputs.  The workload then
runs whole rounds over the same generated instances until the next round
would end after `--seconds`; every output of every round is checked against
computations made apart from the program (see check.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 1` the program is wrapped by spans.py and the
metrics are per layer instead of end to end.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import gen  # noqa: E402

#: Set-ups per run.  The import, timed in a child interpreter, and the
#: drawing of inputs vary apart, so each part's median is taken.
SETUPS = 9

IMPORT_PROBE = ("import time; t = time.perf_counter(); import svarspec.cli; "
                "print(time.perf_counter() - t)")


class CommandFailed(Exception):
    """A CLI command exited with a code other than 0."""


# -- workloads ---------------------------------------------------------------------------
#
# Each workload is a list of cells (count, graph shape).  The graphs and lag
# sets of a workload form a fixed panel drawn from the workload's name; the
# seed draws every number on them: coefficients, noise variances, query sets
# and simulation seeds.  Drawn with the seed, graph structure moved a
# round's cost by about 6% from seed to seed on top of the machine's own
# noise (see README.md); coefficients move it by about 2%.


def _cells(spec):
    return [(count, dict(zip(("n_obs", "n_lat", "m", "fan", "order", "full_lags"), shape)))
            for count, shape in spec]


WORKLOADS = {
    "trek-family": _cells([(150, (6, 0, 6, 0, 1, False))]),
    "latent-identify": _cells([
        (16, (6, 1, 6, 3, 1, True)),
        (16, (7, 2, 7, 3, 1, True)),
        (8, (8, 2, 8, 3, 1, True)),
        (4, (10, 3, 12, 3, 1, True)),
        (8, (6, 1, 5, 3, 2, True)),
        (2, (8, 2, 8, 3, 2, True)),
    ]),
    "separation-queries": _cells([
        (30, (5, 0, 5, 0, 1, False)),
        (16, (6, 0, 6, 0, 1, False)),
        (6, (7, 0, 8, 0, 1, False)),
    ]),
    "plan-and-simulate": _cells([
        (6, (9, 3, 9, 3, 1, True)),
        (4, (10, 3, 10, 3, 1, True)),
        (2, (11, 3, 11, 3, 1, True)),
    ]),
}

#: Length of each simulated series and the Welch settings used on it.
SIM_LENGTH = 2**13
SIM_BURN_IN = 500
WELCH_SEGMENT = 128
WELCH_FREQUENCIES = "8"


def make_instances(workload: str, seed: int, workdir: Path, sv, cells=None) -> list[dict]:
    """Draw every instance of a round and write its input files."""
    panel = random.Random(f"perfbench-panel:{workload}")
    rng = random.Random(f"perfbench:{workload}:{seed}")
    instances = []
    for count, shape in cells or WORKLOADS[workload]:
        for _ in range(count):
            i = len(instances)
            graph = gen.draw_graph(panel, **shape)
            params = gen.draw_params(rng, graph)
            redraws = 0
            while workload == "latent-identify" and not gen.links_coprime(graph, params):
                redraws += 1
                params = gen.draw_params(rng, graph)
            inst = {"index": i, "graph": graph, "params": params, "redraws": redraws}
            base = workdir / f"i{i:03d}"
            inst["files"] = {k: str(base) + suffix for k, suffix in (
                ("graph", ".graph.json"), ("params", ".params.json"), ("bundle", ".bundle.json"),
                ("cert", ".cert.json"), ("cpdag", ".cpdag.json"), ("series", ".series.txt"),
                ("estimate", ".estimate.json"))}
            observed = graph["observed"]
            if workload == "trek-family":  # library calls only: no input files
                inst["objects"] = _library_objects(sv, graph, params)
            else:
                gen.write_json(inst["files"]["graph"], graph)
                gen.write_json(inst["files"]["params"], gen.params_to_json(params))
            if workload == "separation-queries":
                X = rng.sample(observed, 2)
                Y = rng.sample([v for v in observed if v not in X], 2)
                inst.update(X=sorted(X), Y=sorted(Y), rank_seed=rng.randrange(10**6))
            elif workload == "plan-and-simulate":
                inst["objects"] = _library_objects(sv, graph, params)
                size = min(2 + i % 4, len(observed) // 2)
                X = rng.sample(observed, size)
                Y = rng.sample([v for v in observed if v not in X], size)
                inst.update(X=sorted(X), Y=sorted(Y), sim_seed=rng.randrange(10**6))
            instances.append(inst)
    return instances


def _library_objects(sv, graph, params):
    edges = [(e["from"], e["to"]) for e in graph["edges"]]
    base = sv.graph.ProcessGraph.make(graph["observed"], graph["latent"], edges)
    tsg = sv.graph.TimeSeriesGraph.make(
        base, {(e["from"], e["to"]): e["lags"] for e in graph["edges"]}, graph["auto"])
    return {"base": base, "tsg": tsg,
            "params": sv.svar.SvarParams.make(params["cross"], params["auto"], params["noise"])}


def _cli(sv, argv) -> dict:
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sv.cli.main(argv)
    if code != 0:
        raise CommandFailed(f"svarspec {' '.join(argv)} exited {code}: {out.getvalue()[-300:]}")
    return json.loads(out.getvalue())


def run_instance(workload: str, inst: dict, sv):
    """The timed pipeline of one instance; returns what the check needs."""
    f = inst["files"]
    if workload == "trek-family":
        o = inst["objects"]
        return sv.svar.spectrum(o["tsg"], o["params"]).S, sv.svar.spectrum_trek(o["tsg"], o["params"])
    if workload == "latent-identify":
        _cli(sv, ["spectrum", "--graph", f["graph"], "--params", f["params"], "--out", f["bundle"]])
        _cli(sv, ["identify", "--graph", f["graph"], "--spectrum", f["bundle"], "--out", f["cert"]])
        return None
    if workload == "separation-queries":
        _cli(sv, ["discover", "--graph", f["graph"], "--params", f["params"], "--out", f["cpdag"]])
        return _cli(sv, ["query", "--graph", f["graph"], "--query", "rank",
                         "--x", ",".join(inst["X"]), "--y", ",".join(inst["Y"]),
                         "--seed", str(inst["rank_seed"])])
    if workload == "plan-and-simulate":
        order = sv.graph.lfhtc_order(inst["objects"]["base"])
        tsep = _cli(sv, ["query", "--graph", f["graph"], "--query", "tsep",
                         "--x", ",".join(inst["X"]), "--y", ",".join(inst["Y"])])
        _cli(sv, ["simulate", "--graph", f["graph"], "--params", f["params"],
                  "--length", str(SIM_LENGTH), "--burn-in", str(SIM_BURN_IN),
                  "--seed", str(inst["sim_seed"]), "--out", f["series"]])
        _cli(sv, ["estimate", "--series", f["series"], "--frequencies", WELCH_FREQUENCIES,
                  "--segments", str(WELCH_SEGMENT), "--out", f["estimate"]])
        return order, tsep
    raise KeyError(workload)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _matrix_pairs(matrix) -> list:
    return [[(e.num.coeffs, e.den.coeffs) for e in row] for row in matrix.entries]


def check_instance(workload: str, inst: dict, result) -> list[str]:
    graph, params, f = inst["graph"], inst["params"], inst["files"]
    if workload == "trek-family":
        S, S_trek = result
        problems = [] if S == S_trek else ["spectrum differs from the trek-rule spectrum"]
        return problems + check.compare_spectrum(graph, params, S.row_labels, _matrix_pairs(S))
    if workload == "latent-identify":
        S = _load(f["bundle"])["S"]
        entries = [[check.ratfn_json_pair(e) for e in row] for row in S["entries"]]
        return (check.check_certificate(graph, params, _load(f["cert"]), check.lfhtc_solvable(graph))
                + check.compare_spectrum(graph, params, S["rows"], entries))
    if workload == "separation-queries":
        problems = check.check_cpdag(graph, _load(f["cpdag"]))
        got = result["outputs"]["generic_rank"]
        want = check.min_tsep_size(graph, inst["X"], inst["Y"])
        if got != want:
            problems.append(f"generic rank {got} != minimal t-separation size {want}")
        return problems
    if workload == "plan-and-simulate":
        order, tsep = result
        steps = [(v, t.Y, t.W, t.Lp) for v, t in order.steps]
        out = tsep["outputs"]
        return (check.check_lfhtc_order(graph, steps, order.unresolved, check.lfhtc_solvable(graph))
                + check.check_tsep(graph, inst["X"], inst["Y"], out["size"], out["Z_X"], out["Z_Y"])
                + check.check_estimate(graph, params, _load(f["estimate"])))
    raise KeyError(workload)


# -- measurement -----------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import svarspec from {SRC}: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip())


def import_program():
    sys.path.insert(0, str(SRC))
    import svarspec
    import svarspec.cli
    import svarspec.graph
    import svarspec.svar
    if Path(svarspec.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"svarspec imported from {svarspec.__file__}, not from {SRC}")
    return svarspec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sv = import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    try:
        draw_s, import_s = [], []
        for k in range(SETUPS):
            started = time.perf_counter()
            target = workdir / f"setup{k}"
            target.mkdir(parents=True)
            instances = make_instances(args.workload, args.seed, target, sv)
            draw_s.append(time.perf_counter() - started)
            import_s.append(import_seconds())

        tracer = None
        if args.trace:
            from spans import Tracer, unit
            tracer = Tracer()
            tracer.install(sv)

        times: list[float] = []
        problems: list[str] = []
        failures: list[str] = []
        attempted = rounds = 0
        round_wall = 0.0
        while True:
            round_start = time.perf_counter()
            for inst in instances:
                attempted += 1
                started = time.perf_counter()
                try:
                    result = run_instance(args.workload, inst, sv)
                except (CommandFailed, ArithmeticError, ValueError, KeyError) as exc:
                    failures.append(f"instance {inst['index']} failed: {exc!r}"[:400])
                    continue
                times.append(time.perf_counter() - started)
                problems += [f"instance {inst['index']}: {p}"
                             for p in check_instance(args.workload, inst, result)]
            rounds += 1
            round_wall += time.perf_counter() - round_start
            if round_wall * (rounds + 1) / rounds > args.seconds:
                break
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    redrawn = sum(inst["redraws"] for inst in instances)
    if redrawn:
        print(f"set-up redrew {redrawn} non-generic parameter draws", file=sys.stderr)
    for p in (failures + problems)[:20]:
        print(p, file=sys.stderr)
    per_s = len(times) / sum(times) if times else 0.0
    if tracer is None:
        metrics = {
            "instances_per_s": (per_s, "1/s"),
            "instance_p50_ms": (statistics.median(times) * 1e3 if times else 0.0, "ms"),
            "setup_s": (statistics.median(draw_s) + statistics.median(import_s), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = {k: (v, unit(k)) for k, v in tracer.metrics(rounds).items()}
        metrics["trace.instances_per_s"] = (per_s, unit("trace.instances_per_s"))
        OUT.mkdir(exist_ok=True)
        gen.write_json(OUT / f"trace-{args.workload}-{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "functions": tracer.table(),
            "spans": [{"name": n, "depth": d, "start": s, "duration": t}
                      for n, d, s, t in tracer.spans],
        })
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
