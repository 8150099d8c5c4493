"""Byte identity of every command's output between two trees of `src/`.

    python tests/byte_identity.py --against REV   # REV's src/ against the working tree's
    python tests/byte_identity.py --self-check    # a planted byte change must be reported

The inputs are a fixed seeded family of graph and parameter files, written
once and read by both trees: acyclic, latent and cyclic graphs with 2-7
observed vertices and lag order 1-3, and the graph with no vertices.  For
each tree one child interpreter imports `svarspec` from that tree and runs
the family through `cli.main` in process, in a directory of its own:
`spectrum`, `identify --spectrum` and `--params`, `discover --params`,
`--seed` and `--estimate`, `query` of every kind, `simulate` and `estimate`.
The script compares exit codes, the bytes of every `--out` file and the
stdout reports with `timing_seconds` dropped, prints each difference, and
exits 1 when there is one.  `--against` exports REV's `src/` with
`git archive`, so it needs only the local repository.

`--self-check` runs the working tree against a copy of it in which
`io.to_json` writes keys in insertion order instead of sorted, and exits 0
only when that change is reported.  Each mode runs its two children side by
side: 444 commands in 5-6 s on a 2-CPU machine.

pytest does not collect this file: its name does not match `test_*.py`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (kind, observed count, lag order) of each graph of the family: two draws of
#: each kind and size, and the graph with no vertices first.
FAMILY = [("empty", 0, 1)] + [(kind, n, 1 + (n + draw) % 3)
                              for kind in ("acyclic", "latent", "cyclic")
                              for n in range(2, 8) for draw in range(2)]

#: The planted change of `--self-check`: one text of `io.py` and its replacement.
PLANTED = ("for k in sorted(value)]", "for k in value]")


def _lags(rng: random.Random, low: int, order: int) -> list[int]:
    return sorted(rng.sample(range(low, order + 1), rng.randint(1, min(2, order + 1 - low))))


def draw_graph(rng: random.Random, kind: str, n: int, order: int) -> dict:
    """A graph file: observed x0..x{n-1} with forward edges, latent parents of
    two observed vertices ("latent"), or one backward edge closing a cycle
    at lags of at least 1, so that no lag-0 cycle forms ("cyclic")."""
    observed = [f"x{i}" for i in range(n)]
    edges = {(a, b): _lags(rng, 0, order)
             for i, a in enumerate(observed) for b in observed[i + 1:] if rng.random() < 0.5}
    if n >= 2 and not edges:
        edges[(observed[0], observed[1])] = _lags(rng, 0, order)
    latent = []
    if kind == "latent":
        latent = [f"l{i}" for i in range(rng.randint(1, 2))]
        for l in latent:
            for child in rng.sample(observed, 2):
                edges[(l, child)] = _lags(rng, 0, order)
    if kind == "cyclic":
        a, b = rng.choice(sorted(e for e in edges if e[0] in observed))
        edges[(b, a)] = _lags(rng, 1, order)
    auto = {v: _lags(rng, 1, order) for v in observed if rng.random() < 0.6}
    return {"observed": observed, "latent": latent, "auto": auto,
            "edges": [{"from": a, "to": b, "lags": lags} for (a, b), lags in sorted(edges.items())]}


def _coeff(rng: random.Random, count: int) -> str:
    """A nonzero coefficient of absolute value at most 3/(4 count)."""
    return str(Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), 4 * count))


def draw_params(rng: random.Random, graph: dict) -> dict:
    """A parameter file that passes validation: every vertex's auto
    coefficients, and on a cyclic graph all observed cross coefficients
    together, sum to at most 3/4 in absolute value."""
    observed = set(graph["observed"])
    cross_keys = [(e["from"], e["to"], k) for e in graph["edges"] for k in e["lags"]]
    within = sum(a in observed for a, _, _ in cross_keys) or 1
    return {
        "cross": [{"from": a, "to": b, "lag": k, "coeff": _coeff(rng, within)}
                  for a, b, k in cross_keys],
        "auto": [{"vertex": v, "lag": k, "coeff": _coeff(rng, len(lags))}
                 for v, lags in sorted(graph["auto"].items()) for k in lags],
        "noise": [{"vertex": v, "variance": str(Fraction(rng.randint(1, 6), rng.randint(1, 3)))}
                  for v in graph["observed"] + graph["latent"]],
    }


def write_family(inputs: Path) -> list[list[str]]:
    """Write the family's graph and parameter files under `inputs` and return
    its command lines; output paths are relative to a child's directory."""
    commands = []
    for i, (kind, n, order) in enumerate(FAMILY):
        rng = random.Random(f"byte-identity:{i}")
        graph = draw_graph(rng, kind, n, order)
        t = f"g{i:02d}"
        g, p = str(inputs / f"{t}.graph.json"), str(inputs / f"{t}.params.json")
        Path(g).write_text(json.dumps(graph))
        Path(p).write_text(json.dumps(draw_params(rng, graph)))
        obs = graph["observed"]
        x, y, *rest = rng.sample(obs, len(obs)) if len(obs) >= 2 else ["", ""]
        seed = str(rng.randrange(1000))
        query = ["query", "--graph", g, "--x", x, "--y", y]
        commands += [
            ["spectrum", "--graph", g, "--params", p, "--out", f"{t}.bundle.json"],
            ["identify", "--graph", g, "--spectrum", f"{t}.bundle.json",
             "--out", f"{t}.cert_spectrum.json"],
            ["identify", "--graph", g, "--params", p, "--out", f"{t}.cert_params.json"],
            ["discover", "--graph", g, "--params", p, "--out", f"{t}.cpdag_params.json"],
            ["discover", "--graph", g, "--seed", seed, "--out", f"{t}.cpdag_seed.json"],
            query + ["--query", "dsep", "--z", ",".join(rest[:2])],
            query + ["--query", "tsep"],
            query + ["--query", "rank", "--seed", seed],
            query + ["--query", "treks"],
            ["simulate", "--graph", g, "--params", p, "--length", "256", "--burn-in", "50",
             "--seed", seed, "--out", f"{t}.series.txt"],
            ["estimate", "--series", f"{t}.series.txt", "--frequencies", "3",
             "--segments", "32", "--out", f"{t}.estimate.json"],
            ["discover", "--graph", g, "--estimate", f"{t}.estimate.json",
             "--out", f"{t}.cpdag_estimate.json"],
        ]
    return commands


#: Run in a child with arguments (src directory, command file); prints, per
#: command, its exit code (or the exception that escaped `main`), its report
#: without `timing_seconds`, and the SHA-256 of its `--out` file if one exists.
CHILD = r"""
import contextlib, hashlib, io, json, os, sys
src, commands = os.path.abspath(sys.argv[1]), json.load(open(sys.argv[2]))
import svarspec.cli
if os.path.dirname(os.path.dirname(os.path.abspath(svarspec.__file__))) != src:
    sys.exit(f"svarspec imported from {svarspec.__file__}, not from {src}")
results = []
for argv in commands:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = svarspec.cli.main(argv)
        report = json.loads(out.getvalue())
        report.pop("timing_seconds", None)
    except Exception as exc:
        code, report = f"raised {type(exc).__name__}: {exc}", None
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    digest = None
    if path and os.path.exists(path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    results.append({"code": code, "report": report, "out": digest})
print(json.dumps(results))
"""


def _start(src: Path, commands_file: Path, workdir: Path) -> subprocess.Popen:
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-c", CHILD, str(src), str(commands_file)],
                            cwd=workdir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _results(procs: list[subprocess.Popen], names: tuple[str, str]) -> list[list[dict]]:
    """Each child's results, once both have finished."""
    outputs = [proc.communicate() for proc in procs]
    for proc, name, (_, err) in zip(procs, names, outputs):
        if proc.returncode:
            raise SystemExit(f"the {name} tree's run failed:\n{err[-2000:]}")
    return [json.loads(out) for out, _ in outputs]


def _describe(old: dict, new: dict) -> list[str]:
    parts = []
    if old["code"] != new["code"]:
        parts.append(f"exit {old['code']} -> {new['code']}")
    if old["out"] != new["out"]:
        parts.append(f"--out {(old['out'] or 'none')[:12]} -> {(new['out'] or 'none')[:12]}")
    if old["report"] != new["report"]:
        a, b = old["report"] or {}, new["report"] or {}
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        parts.append(f"report differs at {', '.join(keys) or 'the top'}")
    return parts


def compare(old_src: Path, new_src: Path, old_name: str, new_name: str) -> int:
    """Run the family under both trees; print the differences and return their count."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        commands = write_family(tmp / "inputs")
        (tmp / "commands.json").write_text(json.dumps(commands))
        procs = [_start(src, tmp / "commands.json", tmp / f"run{i}")
                 for i, src in enumerate((old_src, new_src))]
        old, new = _results(procs, (old_name, new_name))
        inputs = str(tmp / "inputs") + os.sep
        differences = 0
        for argv, a, b in zip(commands, old, new):
            parts = _describe(a, b)
            if parts:
                differences += 1
                shown = " ".join(s.replace(inputs, "") for s in argv[:5])
                print(f"DIFFERS  {shown} ...: {'; '.join(parts)}")
    codes = sorted({str(r["code"]) for r in new})
    print(f"{len(commands) - differences} of {len(commands)} commands identical "
          f"({len(FAMILY)} graphs; exit codes seen under {new_name}: {', '.join(codes)}; "
          f"{sum(r['out'] is not None for r in new)} --out files) in "
          f"{time.perf_counter() - start:.1f} s")
    return differences


def _export(rev: str, dest: Path) -> Path:
    """REV's src/ under dest, from `git archive`."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True)
    if proc.returncode:
        raise SystemExit(f"git archive {rev} failed: {proc.stderr.decode()[-500:]}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kwargs)
    return dest / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV", help="a git revision whose src/ is compared")
    mode.add_argument("--self-check", action="store_true",
                      help="require a planted byte change to be reported")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.against:
            old = _export(args.against, Path(tmp))
            return 1 if compare(old, ROOT / "src", args.against, "working tree") else 0
        planted = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
        path = planted / "svarspec" / "io.py"
        text = path.read_text()
        if text.count(PLANTED[0]) != 1:
            print(f"io.py holds {PLANTED[0]!r} {text.count(PLANTED[0])} times, not once")
            return 1
        path.write_text(text.replace(*PLANTED))
        if compare(ROOT / "src", planted, "working tree", "planted"):
            print("self-check: the planted change (io.to_json writes keys unsorted) was reported")
            return 0
        print("self-check FAILED: the planted change was not reported")
        return 1


if __name__ == "__main__":
    sys.exit(main())
