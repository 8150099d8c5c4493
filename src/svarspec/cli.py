"""Command-line interface.

Every command prints a run report (JSON) to stdout and writes its primary
output, if any, to --out.  Primary outputs are byte-deterministic for
identical invocations; randomized commands therefore require an explicit
--seed.  Exit codes: 0 success, 2 validation failure (including an
unreadable input file or an unwritable --out), 3 a singular identification
system (`identify` on a non-generic S), 4 estimation precondition failure.
`main` is the one place that maps an exception to its exit code.  Only
`simulate`, `estimate` and `discover --estimate` load numpy; the exact
commands never import it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import io as sio
from .graph import count_treks, d_separated, enumerate_treks, t_separation_min
from .identify import discover_cpdag, identify_all, spectral_ci_oracle
from .ratlinalg import SingularMatrixError
from .svar import (SvarParams, generic_rank, sample_stable_params, spectral_density,
                   spectrum)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_GENERIC = 3
EXIT_ESTIMATION = 4

#: Most treks `query --query treks` lists; a larger count exits 2 before any
#: trek is built.  Counts grow exponentially with the graph (11.2 million
#: between two vertices of a complete 14-vertex DAG), while 100,000 treks
#: take well under a second to list.
MAX_TREKS = 100_000

#: Most frequencies `estimate --frequencies` takes, as a count or a list; more
#: exit 2 before any is built.  Each costs memory and output with the square
#: of the series count: on 512-step series with --segments 64, 10,000
#: frequencies took 36 MiB more peak memory than one and wrote 4.2 MB for 2
#: series, and 263 MiB and 42 MB for 8.
MAX_FREQUENCIES = 4096

#: Most values F * k^2 an estimate of k series at F frequencies holds; more
#: exit 2 before any DFT.  At the bound, 32 series of 2,048 steps at 256
#: frequencies with --segments 64 wrote 16.7 MB and peaked at 136 MiB.
MAX_ESTIMATE_VALUES = 32 * 32 * 256

#: Most conditional-independence tests `discover` runs; one more exits 2.
#: The PC search runs n(n-1) 2^(n-2) of them on a complete n-vertex DAG:
#: 23,040 in 1.6 s for n = 10, and about 2.5 times as many per added vertex.
#: Sparse graphs remove edges early and run far fewer, so the tests are
#: counted as the search runs rather than bounded in advance.
MAX_CI_TESTS = 25_000

#: Most draws `query --query rank --trials` asks for; more exit 2 before any
#: draw.  A draw that falls short of the rank bound is followed by the next:
#: on a 6-vertex cyclic graph whose cross block stays below min(|X|, |Y|),
#: 1,000 draws took 2.8 s on a 2-CPU machine.
MAX_TRIALS = 1000


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


class _UsageError(CliError):
    """A command line the parser rejects; `command` is the subcommand it names, if any."""

    def __init__(self, command: str | None, message: str):
        super().__init__(EXIT_VALIDATION, message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach `main`, to be reported and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        # a subcommand's parser is named "svarspec <command>", the top one "svarspec"
        raise _UsageError(self.prog.partition(" ")[2] or None, f"usage error: {message}")


def _report(command: str, inputs: dict, outputs, seed=None, warnings=()) -> dict:
    return {
        "command": command,
        "inputs": {name: sio.digest(path) for name, path in inputs.items()},
        "seed": seed,
        "outputs": outputs,
        "warnings": list(warnings),
    }


def _labels(arg: str | None) -> tuple[str, ...]:
    if not arg:
        return ()
    return tuple(s.strip() for s in arg.split(",") if s.strip())


def _load(kind: str, read, path: str, check=None):
    """Read an input file with `read` and pass the result to `check`; a missing,
    unreadable, malformed or rejected file is a validation error."""
    try:
        value = read(path)
        if check is not None:
            check(value)
    except (OSError, ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
        raise CliError(EXIT_VALIDATION, f"invalid {kind} file {path}: {exc}") from exc
    return value


def _load_params(tsg, path: str) -> SvarParams:
    return _load("parameter", sio.load_params, path, check=lambda p: p.validate(tsg))


# -- commands -------------------------------------------------------------------------


def _bounded(oracle):
    """The CI oracle, counting its tests; the test past MAX_CI_TESTS exits 2."""
    count = 0

    def bounded(X, Y, Z):
        nonlocal count
        count += 1
        if count > MAX_CI_TESTS:
            raise CliError(EXIT_VALIDATION, f"discover reached {count} CI tests, "
                                            f"past the limit of {MAX_CI_TESTS}")
        return oracle(X, Y, Z)

    return bounded


def cmd_validate(args) -> dict:
    tsg = _load("graph", sio.load_graph, args.graph)
    return _report("validate", {"graph": args.graph},
                   {"observed": list(tsg.base.observed),
                    "latent": list(tsg.base.latent),
                    "edges": len(tsg.base.edges),
                    "order": tsg.order,
                    "acyclic": tsg.base.is_acyclic})


def cmd_query(args) -> dict:
    tsg = _load("graph", sio.load_graph, args.graph)
    graph = tsg.base
    X, Y, Z = _labels(args.x), _labels(args.y), _labels(args.z)
    if args.query == "dsep":
        outputs = {"d_separated": d_separated(graph, X, Y, Z)}
    elif args.query == "tsep":
        size, zx, zy = t_separation_min(graph, X, Y)
        outputs = {"size": size, "Z_X": list(zx), "Z_Y": list(zy)}
    elif args.query == "rank":
        if args.seed is None:
            raise CliError(EXIT_VALIDATION, "rank queries require --seed")
        if args.trials < 1:
            raise CliError(EXIT_VALIDATION, f"--trials must be at least 1, got {args.trials}")
        if args.trials > MAX_TRIALS:
            raise CliError(EXIT_VALIDATION,
                           f"--trials {args.trials} exceeds the limit of {MAX_TRIALS}")
        outputs = {"generic_rank": generic_rank(tsg, X, Y, trials=args.trials,
                                                seed=args.seed)}
    else:  # treks
        count = sum(count_treks(graph, x, y) for x in X for y in Y)
        if count > MAX_TREKS:
            raise CliError(EXIT_VALIDATION,
                           f"{count} treks exceed the listing limit of {MAX_TREKS}")
        treks = [
            {"top": t.top, "left": list(t.left.vertices), "right": list(t.right.vertices)}
            for x in X for y in Y for t in enumerate_treks(graph, x, y)
        ]
        outputs = {"treks": treks, "count": len(treks)}
    return _report(f"query:{args.query}", {"graph": args.graph}, outputs, seed=args.seed)


def cmd_spectrum(args) -> dict:
    tsg = _load("graph", sio.load_graph, args.graph)
    params = _load_params(tsg, args.params)
    sio.save_bundle(spectrum(tsg, params), args.out)
    return _report("spectrum", {"graph": args.graph, "params": args.params},
                   {"out": args.out, "observed": list(tsg.base.observed)})


def cmd_identify(args) -> dict:
    tsg = _load("graph", sio.load_graph, args.graph)
    if args.spectrum:
        S = _load("spectrum", sio.load_bundle, args.spectrum).S
        inputs = {"graph": args.graph, "spectrum": args.spectrum}
    elif args.params:
        params = _load_params(tsg, args.params)
        S = spectral_density(tsg, params)
        inputs = {"graph": args.graph, "params": args.params}
    else:
        raise CliError(EXIT_VALIDATION, "identify needs --params or --spectrum")
    cert = identify_all(tsg.base, S)
    sio.save_certificate(cert, args.out)
    return _report("identify", inputs,
                   {"out": args.out,
                    "solved_edges": sorted(f"{a}->{b}" for a, b in cert.solved),
                    "unresolved_edges": [f"{a}->{b}" for a, b in cert.unresolved_edges]})


def cmd_simulate(args) -> dict:
    tsg = _load("graph", sio.load_graph, args.graph)
    params = _load_params(tsg, args.params)
    from . import simulate
    series = simulate.simulate_series(tsg, params, length=args.length,
                                      burn_in=args.burn_in, seed=args.seed)
    sio.save_series(series, args.out)
    return _report("simulate", {"graph": args.graph, "params": args.params},
                   {"out": args.out, "length": series.length}, seed=args.seed)


def _parse_frequencies(arg: str) -> tuple[float, ...]:
    parts = [p for p in arg.split(",") if p.strip()]
    if not parts:
        raise ValueError("no frequencies given")
    counted = len(parts) == 1 and "." not in parts[0]
    count = int(parts[0]) if counted else len(parts)
    if counted and count < 1:
        raise ValueError(f"frequency count must be positive, got {count}")
    if count > MAX_FREQUENCIES:
        raise ValueError(f"{count} frequencies exceed the limit of {MAX_FREQUENCIES}")
    if counted:
        return tuple(math.pi * (j + 1) / (count + 1) for j in range(count))
    return tuple(float(p) for p in parts)


def cmd_estimate(args) -> dict:
    series = _load("series", sio.load_series, args.series)
    try:
        frequencies = _parse_frequencies(args.frequencies)
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, f"invalid --frequencies: {exc}") from exc
    values = len(frequencies) * len(series.labels) ** 2
    if values > MAX_ESTIMATE_VALUES:
        raise CliError(EXIT_VALIDATION,
                       f"{len(frequencies)} frequencies of {len(series.labels)} series make "
                       f"{values} values, past the limit of {MAX_ESTIMATE_VALUES}")
    from . import simulate
    est = simulate.estimate_spectrum(series, frequencies,
                                     segment_length=args.segments, overlap=args.overlap)
    sio.save_estimate(est, args.out)
    return _report("estimate", {"series": args.series},
                   {"out": args.out, "segments": est.segment_count,
                    "frequencies": list(est.frequencies)})


def cmd_discover(args) -> dict:
    tsg = _load("graph", sio.load_graph, args.graph)
    observed = tsg.base.observed
    inputs = {"graph": args.graph}
    warnings: list[str] = []
    seed = None
    if args.estimate:
        threshold = args.threshold
        if not 0 < threshold < math.inf:
            raise CliError(EXIT_VALIDATION,
                           f"--threshold must be a positive finite number, got {threshold}")
        from . import simulate

        def covers_graph(est):
            missing = sorted(set(observed) - set(est.labels))
            if missing:
                raise ValueError(f"no series for observed labels {missing}")

        est = _load("estimate", sio.load_estimate, args.estimate, check=covers_graph)

        def oracle(X, Y, Z):
            try:
                return simulate.empirical_ci_test(est, set(X), set(Y), set(Z),
                                                  threshold=threshold)
            except simulate.IllConditionedBlockError as exc:
                warnings.append(str(exc))
                return False

        cpdag = discover_cpdag(_bounded(oracle), observed)
        inputs["estimate"] = args.estimate
    elif args.params:
        params = _load_params(tsg, args.params)
        cpdag = discover_cpdag(_bounded(spectral_ci_oracle(tsg, params)), observed)
        inputs["params"] = args.params
    elif args.seed is not None:
        seed = args.seed
        params = sample_stable_params(tsg, seed=seed)
        cpdag = discover_cpdag(_bounded(spectral_ci_oracle(tsg, params)), observed)
    else:
        raise CliError(EXIT_VALIDATION, "discover needs --params, --estimate or --seed")
    result = sio.cpdag_to_dict(cpdag)
    if args.out:
        sio.save_cpdag(cpdag, args.out)
        outputs = {"out": args.out, **result}
    else:
        outputs = result
    warnings.extend(cpdag.warnings)
    return _report("discover", inputs, outputs, seed=seed, warnings=warnings)


# -- entry point ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svarspec",
        description="Exact frequency-domain algebra and causal identification "
                    "for SVAR process graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph file")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("query", help="separation/rank/trek queries on a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True, choices=["dsep", "tsep", "rank", "treks"])
    p.add_argument("--x", required=True, help="comma-separated labels")
    p.add_argument("--y", required=True, help="comma-separated labels")
    p.add_argument("--z", default="", help="comma-separated labels")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("spectrum", help="compute the exact spectrum bundle")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("identify", help="run rational identification")
    p.add_argument("--graph", required=True)
    p.add_argument("--params")
    p.add_argument("--spectrum")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("simulate", help="simulate a trajectory")
    p.add_argument("--graph", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="Welch cross-spectral estimate from a series")
    p.add_argument("--series", required=True)
    p.add_argument("--frequencies", required=True,
                   help="comma-separated angles in [0, pi], or a count")
    p.add_argument("--segments", type=int, required=True, help="segment length")
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("discover", help="CPDAG discovery from a CI oracle")
    p.add_argument("--graph", required=True)
    p.add_argument("--params")
    p.add_argument("--estimate")
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_discover)

    return parser


def _estimation_error() -> tuple[type[Exception], ...]:
    """`simulate.EstimationError`, once a command has loaded `simulate`; until
    then nothing can raise it, and `except ()` catches nothing."""
    simulate = sys.modules.get(f"{__package__}.simulate")
    return (simulate.EstimationError,) if simulate else ()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; every failure it can meet maps to its exit code here."""
    command = None
    try:
        args = _parser().parse_args(argv)
        command, started = args.command, time.perf_counter()
        report = args.fn(args)
    except _UsageError as exc:
        command, code, message = exc.command, exc.code, exc.message
    except CliError as exc:
        code, message = exc.code, exc.message
    except SingularMatrixError as exc:
        code, message = EXIT_NON_GENERIC, f"{type(exc).__name__}: {exc}"
    except _estimation_error() as exc:  # a ValueError, so caught before the validation errors
        code, message = EXIT_ESTIMATION, f"{type(exc).__name__}: {exc}"
    except (OSError, ValueError, LookupError) as exc:
        code, message = EXIT_VALIDATION, f"{type(exc).__name__}: {exc}"
    else:
        report["timing_seconds"] = round(time.perf_counter() - started, 6)
        print(sio.to_json(report))
        return EXIT_OK
    print(sio.to_json({"command": command, "error": message}))
    return code


if __name__ == "__main__":
    sys.exit(main())
