"""Command-line surface: happy paths, exit codes, determinism, warnings."""

import contextlib
import hashlib
import io
import json
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svarspec import cli
from svarspec import identify as identify_module
from svarspec import io as sio
from svarspec import ratfield
from svarspec import simulate as simulate_module
from svarspec import svar as svar_module
from svarspec.cli import (EXIT_ESTIMATION, EXIT_NON_GENERIC, EXIT_OK,
                          EXIT_VALIDATION, MAX_FREQUENCIES, MAX_TREKS, MAX_TRIALS, main)
from svarspec.graph import ProcessGraph, TimeSeriesGraph
from svarspec.identify import discover_cpdag, identify_all
from svarspec.ratfield import RatFn
from svarspec.simulate import MAX_SERIES_VALUES, estimate_spectrum, simulate_series
from svarspec.ratlinalg import RatMatrix, rank
from svarspec.svar import (SvarParams, conditional_spectrum, sample_stable_params,
                           spectral_density, spectrum)

from io_reference import eager_bundle, graph_to_dict, params_to_dict, save_graph, save_params


@pytest.fixture
def instrument_files(tmp_path, instrument_tsg):
    graph_path = tmp_path / "graph.json"
    params_path = tmp_path / "params.json"
    save_graph(instrument_tsg, graph_path)
    save_params(sample_stable_params(instrument_tsg, seed=4), params_path)
    return str(graph_path), str(params_path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys, instrument_files):
    graph, _ = instrument_files
    code, report = run(capsys, "validate", "--graph", graph)
    assert code == EXIT_OK
    assert report["outputs"]["acyclic"] is True
    assert report["outputs"]["latent"] == ["l"]


def test_reports_are_pinned_to_the_byte(capsys, tmp_path):
    """The stdout reports of a success (its timing aside) and of an exit-2
    error: two-space indent, sorted keys, non-ASCII escaped."""
    graph = tmp_path / "graph.json"
    graph.write_bytes('{"observed": ["b", "a\u00e9"], "latent": [], "edges": '
                      '[{"from": "b", "to": "a\u00e9", "lags": [0, 1]}]}'.encode())
    assert main(["validate", "--graph", str(graph)]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.sub(r'"timing_seconds": [0-9.e-]+,', '"timing_seconds": T,', out) == (
        '{\n  "command": "validate",\n  "inputs": {\n    "graph": "d9fd9577d8e05892"\n  },\n'
        '  "outputs": {\n    "acyclic": true,\n    "edges": 1,\n    "latent": [],\n'
        '    "observed": [\n      "a\\u00e9",\n      "b"\n    ],\n    "order": 1\n  },\n'
        '  "seed": null,\n  "timing_seconds": T,\n  "warnings": []\n}\n')
    assert main(["identify", "--graph", str(graph)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == (
        '{\n  "command": "identify",\n'
        '  "error": "usage error: the following arguments are required: --out"\n}\n')


def test_validate_rejects_edge_into_latent(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "observed": ["a"], "latent": ["l"],
        "edges": [{"from": "a", "to": "l", "lags": [0]}],
    }))
    code, report = run(capsys, "validate", "--graph", str(bad))
    assert code == EXIT_VALIDATION
    assert "latent" in report["error"]


def test_validate_rejects_negative_lag(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "observed": ["a", "b"], "latent": [],
        "edges": [{"from": "a", "to": "b", "lags": [-2]}],
    }))
    code, report = run(capsys, "validate", "--graph", str(bad))
    assert code == EXIT_VALIDATION
    assert "lag" in report["error"]


@pytest.mark.parametrize("where", ["cross", "auto"])
def test_lag_above_bound_exits_validation_quickly(capsys, tmp_path, where):
    def graph_file(lag):
        path = tmp_path / f"{where}{lag}.json"
        path.write_text(json.dumps({
            "observed": ["a", "b"], "latent": [],
            "edges": [{"from": "a", "to": "b", "lags": [lag if where == "cross" else 0]}],
            "auto": {"a": [lag if where == "auto" else 1]},
        }))
        return str(path)

    assert run(capsys, "validate", "--graph", graph_file(sio.MAX_LAG))[0] == EXIT_OK
    big = graph_file(sio.MAX_LAG + 1)
    start = time.perf_counter()
    for argv in (["validate"], ["query", "--query", "rank", "--x", "a", "--y", "b", "--seed", "1"]):
        code, report = run(capsys, *argv, "--graph", big)
        assert code == EXIT_VALIDATION
        assert "lag" in report["error"]
    assert time.perf_counter() - start < 0.5


DUPLICATE_LABEL_GRAPH = json.dumps({
    "observed": ["a", "a", "b"], "latent": [],
    "edges": [{"from": "a", "to": "b", "lags": [0]}],
})


def test_validate_and_spectrum_reject_duplicate_labels(capsys, tmp_path, instrument_files):
    _, params = instrument_files
    bad = tmp_path / "bad.json"
    bad.write_text(DUPLICATE_LABEL_GRAPH)
    code, report = run(capsys, "validate", "--graph", str(bad))
    assert code == EXIT_VALIDATION
    assert "duplicate" in report["error"]
    code, report = run(capsys, "spectrum", "--graph", str(bad), "--params", params,
                       "--out", str(tmp_path / "bundle.json"))
    assert code == EXIT_VALIDATION
    assert "duplicate" in report["error"]
    assert not (tmp_path / "bundle.json").exists()


def test_query_dsep_and_tsep(capsys, instrument_files):
    graph, _ = instrument_files
    code, report = run(capsys, "query", "--graph", graph, "--query", "dsep",
                       "--x", "u", "--y", "w", "--z", "v,l")
    assert code == EXIT_OK and report["outputs"]["d_separated"] is True
    code, report = run(capsys, "query", "--graph", graph, "--query", "tsep",
                       "--x", "v", "--y", "w")
    assert code == EXIT_OK and report["outputs"]["size"] == 1
    code, report = run(capsys, "query", "--graph", graph, "--query", "treks",
                       "--x", "v", "--y", "w")
    assert code == EXIT_OK and report["outputs"]["count"] == 4


def test_query_treks_over_the_limit_exits_validation_quickly(capsys, tmp_path):
    # a complete 16-vertex DAG: listing the treks between its last two vertices
    # would take gigabytes; counting them takes microseconds
    labels = [f"v{i:02d}" for i in range(16)]
    graph = {"observed": labels, "latent": [], "auto": {},
             "edges": [{"from": a, "to": b, "lags": [0]}
                       for i, a in enumerate(labels) for b in labels[i + 1:]]}
    path = tmp_path / "complete.json"
    path.write_text(json.dumps(graph))
    start = time.perf_counter()
    code, report = run(capsys, "query", "--graph", str(path), "--query", "treks",
                       "--x", "v14", "--y", "v15")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_VALIDATION
    assert str(MAX_TREKS) in report["error"]
    # below the limit the treks are still listed
    code, report = run(capsys, "query", "--graph", str(path), "--query", "treks",
                       "--x", "v00", "--y", "v03")
    assert code == EXIT_OK and report["outputs"]["count"] == 4


def test_query_rank_requires_seed(capsys, instrument_files):
    graph, _ = instrument_files
    code, report = run(capsys, "query", "--graph", graph, "--query", "rank",
                       "--x", "v", "--y", "w")
    assert code == EXIT_VALIDATION
    code, report = run(capsys, "query", "--graph", graph, "--query", "rank",
                       "--x", "v", "--y", "w", "--seed", "3")
    assert code == EXIT_OK and report["outputs"]["generic_rank"] == 1


def test_query_unknown_label(capsys, instrument_files):
    graph, _ = instrument_files
    code, report = run(capsys, "query", "--graph", graph, "--query", "dsep",
                       "--x", "nope", "--y", "w")
    assert code == EXIT_VALIDATION
    for x, y in (("nope", "w"), ("v", "nope"), ("v,nope", "w")):
        code, report = run(capsys, "query", "--graph", graph, "--query", "tsep",
                           "--x", x, "--y", y)
        assert code == EXIT_VALIDATION and "nope" in report["error"]


def test_query_treks_names_only_the_unknown_label(capsys, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"observed": ["a", "b"], "latent": [],
                                "edges": [{"from": "a", "to": "b", "lags": [0]}]}))
    for x, y in (("a", "zz"), ("zz", "a")):
        code, report = run(capsys, "query", "--graph", str(path), "--query", "treks",
                           "--x", x, "--y", y)
        assert code == EXIT_VALIDATION
        assert "'zz'" in report["error"] and "'a'" not in report["error"]


def test_spectrum_identify_pipeline(capsys, tmp_path, instrument_files):
    graph, params = instrument_files
    bundle = tmp_path / "bundle.json"
    code, _ = run(capsys, "spectrum", "--graph", graph, "--params", params,
                  "--out", str(bundle))
    assert code == EXIT_OK
    cert1 = tmp_path / "cert1.json"
    cert2 = tmp_path / "cert2.json"
    code, report = run(capsys, "identify", "--graph", graph, "--params", params,
                       "--out", str(cert1))
    assert code == EXIT_OK
    assert report["outputs"]["solved_edges"] == ["u->v", "v->w"]
    code, _ = run(capsys, "identify", "--graph", graph, "--spectrum", str(bundle),
                  "--out", str(cert2))
    assert code == EXIT_OK
    assert cert1.read_bytes() == cert2.read_bytes()


def _outputs(capsys, out, commands) -> list:
    """Each command's exit code, report without its timing, and `out` bytes."""
    results = []
    for argv in commands:
        out.unlink(missing_ok=True)
        code, report = run(capsys, *argv)
        del report["timing_seconds"]
        results.append((code, report, out.read_bytes() if out.exists() else None))
    return results


def test_commands_that_read_s_alone_build_no_other_matrix(capsys, tmp_path, monkeypatch,
                                                         instrument_files):
    """On an acyclic graph S comes from `spectral_density`, which builds no H,
    S_I or S_LI; the exact fallback of a rank query is forced by a modular rank
    of 0.  Every report and file equals the one made without the patches."""
    graph, params = instrument_files
    out = tmp_path / "out.json"
    g, o = ["--graph", graph], ["--out", str(out)]
    commands = [["identify", *g, "--params", params, *o],
                ["discover", *g, "--params", params, *o],
                ["discover", *g, "--seed", "3", *o],
                ["query", *g, "--query", "rank", "--x", "u,v", "--y", "w", "--seed", "1"]]
    want = _outputs(capsys, out, commands)
    assert {code for code, _, _ in want} == {EXIT_OK}

    def refuse(*args):
        raise AssertionError("built a matrix other than S")

    for name in ("_transfer", "_internal", "_projected"):
        monkeypatch.setattr(svar_module, name, refuse)
    monkeypatch.setattr(svar_module, "rank_mod", lambda rows: 0)
    assert _outputs(capsys, out, commands) == want


def test_discover_reads_the_kernel_and_makes_canonical_only_what_it_ranks(capsys, tmp_path,
                                                                         monkeypatch):
    """`discover --params` and `--seed` build no full S (neither
    `spectral_density` nor `kd.hermitian`), rank blocks of S itself, entries
    below the diagonal included, and call `kd.ratfn` only on entries of the
    blocks that go to `rank`.  Each CPDAG is the one an oracle of conditional
    spectra over the full S finds, and reports and files are unchanged by the
    spies.  Acyclic, latent and cyclic graphs, lag order 1."""
    graphs = [ProcessGraph.make(["a", "b", "c", "d"], [], [("a", "b"), ("a", "c"), ("b", "d"),
                                                           ("c", "d")]),
              ProcessGraph.make(["u", "v", "w", "x"], ["l"], [("u", "v"), ("v", "w"), ("l", "v"),
                                                               ("l", "x"), ("w", "x")]),
              ProcessGraph.make(["a", "b", "c", "d"], [], [("a", "b"), ("b", "a"), ("c", "a"),
                                                           ("b", "d")])]
    out = tmp_path / "out.json"
    commands, spectra = [], []
    for i, g in enumerate(graphs):
        tsg = TimeSeriesGraph.full(g, 1)
        graph, params = tmp_path / f"graph{i}.json", tmp_path / f"params{i}.json"
        save_graph(tsg, graph)
        save_params(sample_stable_params(tsg, seed=4), params)
        for source, seed in ((["--params", str(params)], 4), (["--seed", "3"], 3)):
            commands.append(["discover", "--graph", str(graph), *source, "--out", str(out)])
            spectra.append(spectral_density(tsg, sample_stable_params(tsg, seed=seed)))
    want = _outputs(capsys, out, commands)
    assert {code for code, _, _ in want} == {EXIT_OK}
    for S, (_, report, _) in zip(spectra, want):
        cpdag = discover_cpdag(lambda X, Y, Z: conditional_spectrum(S, X, Y, Z).is_zero,
                               S.row_labels)
        assert report["outputs"] == {"out": str(out), **sio.cpdag_to_dict(cpdag)}

    def refuse(*args):
        raise AssertionError("built a full S")

    made, ranked = [], []
    ratfn = svar_module._KnownDenominator.ratfn

    def recording_ratfn(kd, value):
        made.append(ratfn(kd, value))
        return made[-1]

    def recording_rank(M):
        ranked.append(M)
        return rank(M)

    monkeypatch.setattr(cli, "spectral_density", refuse)
    monkeypatch.setattr(svar_module, "spectral_density", refuse)
    monkeypatch.setattr(svar_module._KnownDenominator, "hermitian", refuse)
    monkeypatch.setattr(svar_module._KnownDenominator, "ratfn", recording_ratfn)
    monkeypatch.setattr(identify_module, "rank", recording_rank)
    total = 0
    for command, S, expected in zip(commands, spectra, want):
        made.clear()
        ranked.clear()
        assert _outputs(capsys, out, [command]) == [expected]
        for M in ranked:
            assert M == S.submatrix(M.row_labels, M.col_labels), command
        entries = {id(e) for M in ranked for row in M.entries for e in row}
        assert all(id(r) in entries for r in made), command
        total += len(ranked)
    assert total


def test_identify_spectrum_builds_only_the_s_entries_it_reads(capsys, tmp_path, monkeypatch,
                                                              instrument_files):
    """`identify --spectrum` makes one `RatFn` per distinct entry of S that
    identification reads, and none for the other entries of S or for H, S_I
    and S_LI: as many as identification makes on a built S, plus one per
    entry read."""
    graph, params = instrument_files
    bundle = tmp_path / "bundle.json"
    run(capsys, "spectrum", "--graph", graph, "--params", params, "--out", str(bundle))
    built = eager_bundle(bundle).S
    made, reads, loaded = [], set(), []
    real_init, real_entry = RatFn.__init__, RatMatrix.entry

    def init(self, num, den=ratfield.P_ONE):
        made.append((num, den))
        real_init(self, num, den)

    def entry(self, row, col):
        if loaded and self is loaded[0]:
            reads.add((row, col))
        return real_entry(self, row, col)

    def identify(graph, S):
        loaded.append(S)
        return identify_all(graph, S)

    monkeypatch.setattr(RatFn, "__init__", init)
    monkeypatch.setattr(RatMatrix, "entry", entry)
    monkeypatch.setattr(cli, "identify_all", identify)
    identify_all(sio.load_graph(graph).base, built)
    on_built = len(made)
    made.clear()
    code, _ = run(capsys, "identify", "--graph", graph, "--spectrum", str(bundle),
                  "--out", str(tmp_path / "cert.json"))
    assert code == EXIT_OK and len(loaded) == 1
    n = len(built.row_labels)
    assert 0 < len(reads) < n * n
    assert len(made) - on_built == len(reads)
    monkeypatch.undo()
    assert loaded[0] == built


def test_series_labels_with_edge_spaces_round_trip(capsys, tmp_path):
    """A label's leading and trailing spaces survive simulate, estimate and discover."""
    labels = [" a", "b ", " c "]
    tsg = TimeSeriesGraph.full(ProcessGraph.make(labels, [], [(" a", "b "), ("b ", " c ")]), 1)
    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    save_graph(tsg, graph)
    save_params(sample_stable_params(tsg, seed=1), params)
    series, est = tmp_path / "series.txt", tmp_path / "est.json"
    for argv in (["simulate", "--graph", str(graph), "--params", str(params),
                  "--length", "1024", "--seed", "1", "--out", str(series)],
                 ["estimate", "--series", str(series), "--frequencies", "4",
                  "--segments", "64", "--out", str(est)]):
        assert run(capsys, *argv)[0] == EXIT_OK
    assert sio.load_series(series).labels == tsg.base.vertices
    code, report = run(capsys, "discover", "--graph", str(graph), "--estimate", str(est))
    assert code == EXIT_OK, report
    assert report["outputs"]["nodes"] == sorted(labels)


def test_spectrum_rejects_unstable_params(capsys, tmp_path, instrument_tsg, instrument_files):
    graph, _ = instrument_files
    p = sample_stable_params(instrument_tsg, seed=4)
    bad = SvarParams(cross=p.cross, auto={**p.auto, ("v", 1): Fraction(7, 4)},
                     noise=p.noise)
    bad_path = tmp_path / "bad-params.json"
    save_params(bad, bad_path)
    code, report = run(capsys, "spectrum", "--graph", graph, "--params", str(bad_path),
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_VALIDATION
    assert "stability" in report["error"]


def test_identify_singular_input_exits_non_generic(capsys, tmp_path, instrument_tsg, instrument_files):
    graph, _ = instrument_files
    p = sample_stable_params(instrument_tsg, seed=4)
    degenerate = SvarParams(
        cross={k: (Fraction(0) if k[:2] == ("u", "v") else c) for k, c in p.cross.items()},
        auto=p.auto, noise=p.noise,
    )
    path = tmp_path / "degenerate.json"
    save_params(degenerate, path)
    code, report = run(capsys, "identify", "--graph", graph, "--params", str(path),
                       "--out", str(tmp_path / "cert.json"))
    assert code == EXIT_NON_GENERIC
    assert "singular" in report["error"]


def test_simulate_estimate_pipeline(capsys, tmp_path, instrument_files):
    graph, params = instrument_files
    series = tmp_path / "series.txt"
    code, report = run(capsys, "simulate", "--graph", graph, "--params", params,
                       "--length", "4096", "--seed", "5", "--out", str(series))
    assert code == EXIT_OK and report["outputs"]["length"] == 4096
    est = tmp_path / "est.json"
    code, report = run(capsys, "estimate", "--series", str(series),
                       "--frequencies", "4", "--segments", "128", "--out", str(est))
    assert code == EXIT_OK and report["outputs"]["segments"] > 30
    # byte-determinism of the primary outputs
    series2 = tmp_path / "series2.txt"
    run(capsys, "simulate", "--graph", graph, "--params", params,
        "--length", "4096", "--seed", "5", "--out", str(series2))
    assert series.read_bytes() == series2.read_bytes()


@pytest.mark.parametrize("length, burn_in", [("1000000000000", "1000"),
                                             (str(MAX_SERIES_VALUES // 4), "1")])
def test_simulate_over_the_size_limit_exits_validation_quickly(capsys, tmp_path,
                                                               instrument_files,
                                                               length, burn_in):
    graph, params = instrument_files  # four vertices
    series = tmp_path / "series.txt"
    start = time.perf_counter()
    code, report = run(capsys, "simulate", "--graph", graph, "--params", params,
                       "--length", length, "--burn-in", burn_in, "--seed", "1",
                       "--out", str(series))
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_VALIDATION
    assert f"limit of {MAX_SERIES_VALUES}" in report["error"]
    assert not series.exists()


def test_simulate_refuses_a_graph_with_no_vertices_before_writing(capsys, tmp_path):
    """A graph with no vertices has no series: `simulate` exits 2 and writes
    nothing, and `estimate` refuses the header-less file that a series of no
    labels would make (an empty header line and one empty line per step)."""
    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    graph.write_text('{"observed": [], "latent": [], "edges": []}')
    params.write_text('{"cross": [], "auto": [], "noise": []}')
    series = tmp_path / "series.txt"
    code, report = run(capsys, "simulate", "--graph", str(graph), "--params", str(params),
                       "--length", "5", "--seed", "1", "--out", str(series))
    assert code == EXIT_VALIDATION and "no vertices" in report["error"]
    assert not series.exists()
    series.write_text("\n" * 6)
    code, report = run(capsys, "estimate", "--series", str(series), "--frequencies", "2",
                       "--segments", "4", "--out", str(tmp_path / "estimate.json"))
    assert code == EXIT_VALIDATION and "no header line" in report["error"]


@pytest.mark.parametrize("label", ["", "a\tb", "a\nb", "a\x0bb"])
def test_simulate_refuses_labels_that_do_not_read_back_before_writing(capsys, tmp_path, label):
    """A series file's header is its labels joined by tabs on one line, and the
    reader strips an empty header line: a lone empty label, a tab or a line
    break `str.splitlines` knows would come back as other labels, so `simulate`
    exits 2 and writes nothing."""
    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    graph.write_text(json.dumps({"observed": [label], "latent": [], "edges": []}))
    params.write_text(json.dumps({"cross": [], "auto": [],
                                  "noise": [{"vertex": label, "variance": "1"}]}))
    series = tmp_path / "series.txt"
    code, report = run(capsys, "simulate", "--graph", str(graph), "--params", str(params),
                       "--length", "8", "--seed", "1", "--out", str(series))
    assert code == EXIT_VALIDATION and "read back" in report["error"]
    assert not series.exists()


def test_estimate_bad_segmentation_exit_code(capsys, tmp_path, instrument_files):
    graph, params = instrument_files
    series = tmp_path / "short.txt"
    run(capsys, "simulate", "--graph", graph, "--params", params,
        "--length", "64", "--seed", "1", "--out", str(series))
    code, report = run(capsys, "estimate", "--series", str(series),
                       "--frequencies", "4", "--segments", "128",
                       "--out", str(tmp_path / "e.json"))
    assert code == EXIT_ESTIMATION
    assert "segment_length" in report["error"]


@pytest.mark.parametrize("frequencies, code", [
    ("0.5,0.3", EXIT_ESTIMATION), ("0.5,0.5", EXIT_ESTIMATION), ("0.5,nan", EXIT_ESTIMATION),
    ("abc", EXIT_VALIDATION), ("0", EXIT_VALIDATION), ("", EXIT_VALIDATION),
    (",", EXIT_VALIDATION)])
def test_estimate_bad_frequencies_exit_code(capsys, tmp_path, instrument_files,
                                            frequencies, code):
    graph, params = instrument_files
    series = tmp_path / "series.txt"
    run(capsys, "simulate", "--graph", graph, "--params", params,
        "--length", "256", "--seed", "1", "--out", str(series))
    got, report = run(capsys, "estimate", "--series", str(series),
                      "--frequencies", frequencies, "--segments", "64",
                      "--out", str(tmp_path / "e.json"))
    assert got == code
    assert "frequencies" in report["error"]
    assert not (tmp_path / "e.json").exists()


def test_estimate_frequencies_over_the_limit_exit_validation_quickly(capsys, tmp_path,
                                                                   instrument_files):
    graph, params = instrument_files
    series = tmp_path / "series.txt"
    run(capsys, "simulate", "--graph", graph, "--params", params,
        "--length", "256", "--seed", "1", "--out", str(series))
    over = MAX_FREQUENCIES + 1
    step = 3.0 / over
    start = time.perf_counter()
    for frequencies in (str(over), ",".join(f"{(j + 1) * step:.9f}" for j in range(over))):
        code, report = run(capsys, "estimate", "--series", str(series),
                           "--frequencies", frequencies, "--segments", "64",
                           "--out", str(tmp_path / "e.json"))
        assert code == EXIT_VALIDATION
        assert str(MAX_FREQUENCIES) in report["error"]
        assert not (tmp_path / "e.json").exists()
    assert time.perf_counter() - start < 0.5
    code, report = run(capsys, "estimate", "--series", str(series),
                       "--frequencies", str(MAX_FREQUENCIES), "--segments", "64",
                       "--out", str(tmp_path / "e.json"))
    assert code == EXIT_OK and len(report["outputs"]["frequencies"]) == MAX_FREQUENCIES


def test_estimate_exits_validation_past_max_estimate_values(capsys, tmp_path, monkeypatch,
                                                            instrument_files):
    graph, params = instrument_files
    series = tmp_path / "series.txt"
    run(capsys, "simulate", "--graph", graph, "--params", params,
        "--length", "256", "--seed", "1", "--out", str(series))
    argv = ["estimate", "--series", str(series), "--frequencies", "3", "--segments", "64",
            "--out", str(tmp_path / "e.json")]
    # four series (u, v, w and the latent l) at three frequencies: 3 * 4^2 values
    monkeypatch.setattr(cli, "MAX_ESTIMATE_VALUES", 48)
    assert run(capsys, *argv)[0] == EXIT_OK
    (tmp_path / "e.json").unlink()
    monkeypatch.setattr(cli, "MAX_ESTIMATE_VALUES", 47)
    monkeypatch.setattr(simulate_module, "estimate_spectrum", None)  # refused before any DFT
    code, report = run(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert "48 values" in report["error"] and "limit of 47" in report["error"]
    assert not (tmp_path / "e.json").exists()


#: sha256 of the primary outputs for the README instrument graph and
#: sample_stable_params(seed=7); exact outputs and the simulated series must
#: not change by a byte.  The estimate is not pinned: its bytes depend on BLAS.
README_SHA256 = {
    "bundle.json": "999cff660b4bc06e95c876508afff8baa8404fc8661ba342acedd29abb4e2cf1",
    "cert_params.json": "28ccea9bfcd78429aa43e363fe846aa19ace6fe667a2cde98376714fc5936fe7",
    "cert_spectrum.json": "28ccea9bfcd78429aa43e363fe846aa19ace6fe667a2cde98376714fc5936fe7",
    "series.txt": "2d1125ac4a3397702c0bb727adf130a5344b40987e3693f36af8666976f59565",
    "cpdag.json": "1c05cf34767aee19b06de621ac2ad58245921868a4141e39f8d577af007c6da3",
}


def test_readme_outputs_byte_identical(capsys, tmp_path, instrument_tsg):
    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    save_graph(instrument_tsg, graph)
    save_params(sample_stable_params(instrument_tsg, seed=7), params)
    out = {name: tmp_path / name for name in README_SHA256}
    for argv in (["spectrum", "--params", str(params), "--out", str(out["bundle.json"])],
                 ["identify", "--params", str(params), "--out", str(out["cert_params.json"])],
                 ["identify", "--spectrum", str(out["bundle.json"]),
                  "--out", str(out["cert_spectrum.json"])],
                 ["simulate", "--params", str(params), "--length", "65536", "--seed", "5",
                  "--out", str(out["series.txt"])],
                 ["discover", "--params", str(params), "--out", str(out["cpdag.json"])]):
        code, _ = run(capsys, argv[0], "--graph", str(graph), *argv[1:])
        assert code == EXIT_OK
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in out.items()} == README_SHA256


def test_discover_exact_and_sampled(capsys, tmp_path, instrument_files):
    graph, params = instrument_files
    code, report = run(capsys, "discover", "--graph", graph, "--params", params)
    assert code == EXIT_OK
    # the latent confounder makes every observed pair dependent: full skeleton
    assert report["outputs"]["undirected"] == ["u--v", "u--w", "v--w"]
    code, report2 = run(capsys, "discover", "--graph", graph, "--seed", "7")
    assert code == EXIT_OK
    assert report2["outputs"]["undirected"] == report["outputs"]["undirected"]


def _complete_dag_files(tmp_path, n: int) -> dict[str, str]:
    """Graph, parameter and estimate files of a complete n-vertex DAG."""
    labels = [f"x{i}" for i in range(n)]
    edges = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    g = ProcessGraph.make(labels, [], edges)
    tsg = TimeSeriesGraph.full(g, 1)
    params = sample_stable_params(tsg, seed=1)
    files = {name: str(tmp_path / f"{name}.json") for name in ("graph", "params", "estimate")}
    save_graph(tsg, files["graph"])
    save_params(params, files["params"])
    series = simulate_series(tsg, params, length=128, burn_in=50, seed=1)
    sio.save_estimate(estimate_spectrum(series, [0.5, 1.5], segment_length=32), files["estimate"])
    return files


@pytest.mark.parametrize("source", ["params", "seed", "estimate"])
def test_discover_exits_validation_past_max_ci_tests(capsys, tmp_path, monkeypatch, source):
    # every test answers "dependent" on a complete DAG (the empirical test is
    # made to), so PC removes no edge and runs n(n-1) 2^(n-2) = 48 tests for n = 4
    files = _complete_dag_files(tmp_path, 4)
    monkeypatch.setattr(simulate_module, "empirical_ci_test", lambda *args, **kwargs: False)
    argv = ["discover", "--graph", files["graph"],
            *{"params": ["--params", files["params"]], "seed": ["--seed", "1"],
              "estimate": ["--estimate", files["estimate"]]}[source]]
    monkeypatch.setattr(cli, "MAX_CI_TESTS", 48)
    code, report = run(capsys, *argv)
    assert code == EXIT_OK and len(report["outputs"]["undirected"]) == 6
    monkeypatch.setattr(cli, "MAX_CI_TESTS", 47)
    code, report = run(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert "48 CI tests" in report["error"] and "limit of 47" in report["error"]


def test_discover_bound_does_not_refuse_sparse_graphs(capsys, tmp_path):
    # a 16-vertex chain: a complete DAG of that size would run n(n-1) 2^(n-2),
    # 3.9 million tests, but the chain's search runs few
    labels = [f"x{i:02d}" for i in range(16)]
    tsg = TimeSeriesGraph.full(ProcessGraph.make(labels, [], list(zip(labels, labels[1:]))), 1)
    graph = tmp_path / "chain.json"
    save_graph(tsg, graph)
    assert 16 * 15 * 2 ** 14 > cli.MAX_CI_TESTS
    code, report = run(capsys, "discover", "--graph", str(graph), "--seed", "1")
    assert code == EXIT_OK and len(report["outputs"]["undirected"]) == 15


def test_discover_requires_some_input(capsys, instrument_files):
    graph, _ = instrument_files
    code, report = run(capsys, "discover", "--graph", graph)
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("argv, command, needle", [
    (["identify", "--graph", "g.json"], "identify", "--out"),
    (["query", "--graph", "g.json", "--query", "bogus", "--x", "a", "--y", "b"],
     "query", "invalid choice"),
    (["query", "--graph", "g.json", "--query", "rank", "--x", "a", "--y", "b",
      "--trials", "two"], "query", "--trials"),
    ([], None, "command"),
    (["bogus"], None, "invalid choice"),
])
def test_usage_errors_print_the_error_report(capsys, argv, command, needle):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == EXIT_VALIDATION
    assert set(report) == {"command", "error"}
    assert report["command"] == command and needle in report["error"]
    assert captured.err.startswith("usage: svarspec")


@pytest.mark.parametrize("argv", [["--help"], ["identify", "--help"]])
def test_help_still_prints_usage_and_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: svarspec")


def test_discover_empty_graph(capsys, tmp_path):
    g = ProcessGraph.make(["a", "b"], [], [])
    tsg = TimeSeriesGraph.make(g, {}, {"a": (1,), "b": (1,)})
    path = tmp_path / "empty.json"
    save_graph(tsg, path)
    code, report = run(capsys, "discover", "--graph", str(path), "--seed", "3")
    assert code == EXIT_OK
    assert report["outputs"]["directed"] == [] and report["outputs"]["undirected"] == []


# -- outside input maps to exit codes, never to a traceback -------------------------


def test_identify_cyclic_graph_exits_validation(capsys, tmp_path):
    g = ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("b", "c"), ("c", "a")])
    tsg = TimeSeriesGraph.full(g, 1)
    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    save_graph(tsg, graph)
    save_params(sample_stable_params(tsg, seed=1), params)
    code, report = run(capsys, "identify", "--graph", str(graph), "--params", str(params),
                       "--out", str(tmp_path / "cert.json"))
    assert code == EXIT_VALIDATION
    assert "acyclic" in report["error"]



@pytest.mark.parametrize("source", ["params", "spectrum"])
def test_identify_on_a_cycle_names_the_criterion_that_needs_acyclicity(capsys, tmp_path, source):
    """Both identify forms refuse a 2-cycle before any step, and the message
    names the half-trek criterion, which needs the graph acyclic, not a query."""
    g = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    tsg = TimeSeriesGraph.full(g, 1)
    graph, params = tmp_path / "graph.json", tmp_path / "params.json"
    save_graph(tsg, graph)
    save_params(sample_stable_params(tsg, seed=2), params)
    bundle = tmp_path / "bundle.json"
    assert run(capsys, "spectrum", "--graph", str(graph), "--params", str(params),
               "--out", str(bundle))[0] == 0
    code, report = run(capsys, "identify", "--graph", str(graph), f"--{source}",
                       str(params if source == "params" else bundle),
                       "--out", str(tmp_path / "cert.json"))
    assert code == EXIT_VALIDATION
    assert report["error"] == "CyclicGraphError: the half-trek criterion requires an acyclic process graph"

ZERO_DENOMINATOR_BUNDLE = json.dumps({
    **{key: {"rows": [], "cols": [], "entries": []} for key in ("H", "S_I", "S_LI")},
    "S": {"rows": ["u"], "cols": ["u"], "entries": [[{"num": ["1"], "den": ["0"]}]]},
})


@pytest.mark.parametrize("content", [None, '{"H": 1}', "not json", ZERO_DENOMINATOR_BUNDLE,
                                     "[]"])
def test_identify_bad_spectrum_file_exits_validation(capsys, tmp_path, instrument_files,
                                                     content):
    graph, _ = instrument_files
    bundle = tmp_path / "bundle.json"
    if content is not None:
        bundle.write_text(content)
    code, report = run(capsys, "identify", "--graph", graph, "--spectrum", str(bundle),
                       "--out", str(tmp_path / "cert.json"))
    assert code == EXIT_VALIDATION
    assert "spectrum file" in report["error"]


@pytest.mark.parametrize("content", ["a\tb\n1.0\tx\n", "a\tb\n1.0\n", ""])
def test_estimate_malformed_series_exits_validation(capsys, tmp_path, content):
    series = tmp_path / "series.txt"
    series.write_text(content)
    code, report = run(capsys, "estimate", "--series", str(series), "--frequencies", "4",
                       "--segments", "4", "--out", str(tmp_path / "e.json"))
    assert code == EXIT_VALIDATION
    assert "series file" in report["error"]


@pytest.mark.parametrize("content", ['{"labels": ["u"]}', '{"matrices": 1}', "[]"])
def test_discover_malformed_estimate_exits_validation(capsys, tmp_path, instrument_files,
                                                      content):
    graph, _ = instrument_files
    est = tmp_path / "est.json"
    est.write_text(content)
    code, report = run(capsys, "discover", "--graph", graph, "--estimate", str(est))
    assert code == EXIT_VALIDATION
    assert "estimate file" in report["error"]


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0", "-0.1"])
def test_discover_estimate_refuses_a_threshold_not_positive_and_finite(capsys, tmp_path,
                                                                      monkeypatch, threshold):
    # every comparison with NaN is false, so a NaN threshold once removed no
    # edge and exited 0, and an infinite one removed every edge
    files = _complete_dag_files(tmp_path, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a CI test ran")

    monkeypatch.setattr(simulate_module, "empirical_ci_test", refuse)
    code, report = run(capsys, "discover", "--graph", files["graph"],
                       "--estimate", files["estimate"], f"--threshold={threshold}")
    assert code == EXIT_VALIDATION
    assert "--threshold" in report["error"]


def test_discover_estimate_missing_observed_label_exits_validation(capsys, tmp_path,
                                                                  instrument_files):
    graph, params = instrument_files
    series, est = tmp_path / "series.txt", tmp_path / "est.json"
    run(capsys, "simulate", "--graph", graph, "--params", params,
        "--length", "512", "--seed", "1", "--out", str(series))
    run(capsys, "estimate", "--series", str(series), "--frequencies", "2",
        "--segments", "64", "--out", str(est))
    data = json.loads(est.read_text())
    # w is observed in the graph but has no series in the estimate
    data["labels"] = ["x" if lab == "w" else lab for lab in data["labels"]]
    est.write_text(json.dumps(data))
    code, report = run(capsys, "discover", "--graph", graph, "--estimate", str(est))
    assert code == EXIT_VALIDATION
    assert "estimate file" in report["error"] and "'w'" in report["error"]


def test_missing_input_files_exit_validation(capsys, tmp_path, instrument_files):
    graph, params = instrument_files
    missing = str(tmp_path / "missing.json")
    out = str(tmp_path / "out.json")
    for argv in (["validate", "--graph", missing],
                 ["spectrum", "--graph", missing, "--params", params, "--out", out],
                 ["spectrum", "--graph", graph, "--params", missing, "--out", out],
                 ["simulate", "--graph", graph, "--params", missing, "--length", "8",
                  "--seed", "1", "--out", out]):
        code, report = run(capsys, *argv)
        assert code == EXIT_VALIDATION, argv
        assert "missing.json" in report["error"]


@pytest.mark.parametrize("kind, content", [
    ("graph", "[]"),
    ("graph", json.dumps({"observed": ["a"], "latent": [], "edges": [], "auto": [1]})),
    ("graph", json.dumps({"observed": ["a"], "latent": [], "edges": [], "auto": None})),
    ("parameter", "[]"), ("parameter", "null"), ("parameter", '"x"'), ("parameter", "7")])
def test_non_object_graph_and_params_exit_validation(capsys, tmp_path, instrument_files,
                                                     kind, content):
    graph, params = instrument_files
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    commands = []
    if kind == "graph":
        graph = str(bad)
        commands.append(["validate", "--graph", graph])
    else:
        params = str(bad)
    commands.append(["spectrum", "--graph", graph, "--params", params,
                     "--out", str(tmp_path / "bundle.json")])
    for argv in commands:
        code, report = run(capsys, *argv)
        assert code == EXIT_VALIDATION, argv
        assert f"{kind} file" in report["error"]


@pytest.mark.parametrize("command", ["spectrum", "identify", "simulate", "estimate",
                                     "discover"])
def test_unwritable_out_exits_validation(capsys, tmp_path, instrument_files, command):
    graph, params = instrument_files
    series = str(tmp_path / "series.txt")
    if command == "estimate":
        run(capsys, "simulate", "--graph", graph, "--params", params,
            "--length", "64", "--seed", "1", "--out", series)
    argv = {
        "spectrum": ["--graph", graph, "--params", params],
        "identify": ["--graph", graph, "--params", params],
        "simulate": ["--graph", graph, "--params", params, "--length", "64", "--seed", "1"],
        "estimate": ["--series", series, "--frequencies", "2", "--segments", "16"],
        "discover": ["--graph", graph, "--params", params],
    }[command]
    out = str(tmp_path / "no-such-dir" / "out.json")
    code, report = run(capsys, command, *argv, "--out", out)
    assert code == EXIT_VALIDATION
    assert out in report["error"]


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_query_rank_rejects_non_positive_trials(capsys, instrument_files, trials):
    graph, _ = instrument_files
    code, report = run(capsys, "query", "--graph", graph, "--query", "rank",
                       "--x", "v", "--y", "w", "--seed", "3", "--trials", trials)
    assert code == EXIT_VALIDATION
    assert "--trials" in report["error"]


def test_query_rank_runs_max_trials_and_refuses_one_more_before_any_draw(capsys, monkeypatch,
                                                                         instrument_files):
    draws = []

    def sampler(tsg, seed):
        draws.append(seed)
        return sample_stable_params(tsg, seed=seed)

    monkeypatch.setattr(svar_module, "sample_stable_params", sampler)
    graph, _ = instrument_files
    argv = ["query", "--graph", graph, "--query", "rank", "--x", "v", "--y", "w",
            "--seed", "3", "--trials"]
    code, report = run(capsys, *argv, str(MAX_TRIALS))
    assert code == EXIT_OK and report["outputs"]["generic_rank"] == 1
    assert len(draws) == 1  # the first draw meets the bound
    draws.clear()
    code, report = run(capsys, *argv, str(MAX_TRIALS + 1))
    assert code == EXIT_VALIDATION and "--trials" in report["error"]
    assert draws == []


#: sha256 of `spectrum --out` on a cyclic observed graph, a -> b -> c -> a with
#: a latent h into a and b, at lag order 1 and sample_stable_params(seed=7):
#: as drawn, and with every c -> a coefficient zero, which leaves H_OO an
#: acyclic support.  Both S come from the adjugate of M = diag(D) - L_OO, with
#: det M as one more factor of the known denominator.
CYCLIC_SHA256 = {
    "cyclic": "b4e180b8756544987086a22cf08742c29b2420c5a88a35a90415652216daa3d1",
    "acyclic": "ec79d197b5dccf04d1039a88d6575f615f8f7bf4a0e5f0ca1226dfb03e45bf1a",
}


@pytest.mark.parametrize("support", sorted(CYCLIC_SHA256))
def test_cyclic_spectrum_bytes_pinned(capsys, tmp_path, support):
    g = ProcessGraph.make(["a", "b", "c"], ["h"],
                          [("a", "b"), ("b", "c"), ("c", "a"), ("h", "a"), ("h", "b")])
    tsg = TimeSeriesGraph.full(g, 1)
    params = sample_stable_params(tsg, seed=7)
    if support == "acyclic":
        params = SvarParams({k: Fraction(0) if k[:2] == ("c", "a") else c
                             for k, c in params.cross.items()}, params.auto, params.noise)
    assert spectrum(tsg, params).H.entry("c", "a").is_zero == (support == "acyclic")
    graph, params_file, out = tmp_path / "graph.json", tmp_path / "params.json", tmp_path / "b.json"
    save_graph(tsg, graph)
    save_params(params, params_file)
    code, _ = run(capsys, "spectrum", "--graph", str(graph), "--params", str(params_file),
                  "--out", str(out))
    assert code == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CYCLIC_SHA256[support]


# -- fuzzed input files ---------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6,
)


def _mutate(data, doc):
    """Delete one key or element somewhere in `doc`, or replace one value (the
    whole document included) with an arbitrary JSON value."""
    root = [doc]
    node = root
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif node is not root and data.draw(st.booleans()):
            del node[key]
            return root[0]
        else:
            node[key] = data.draw(JSON_VALUES)
            return root[0]


def _series_text(rows) -> str:
    """Write series rows back as tab-separated text; non-string cells as JSON."""
    lines = []
    for row in rows if isinstance(rows, list) else [rows]:
        cells = row if isinstance(row, list) else [row]
        lines.append("\t".join(c if isinstance(c, str) else json.dumps(c) for c in cells))
    return "\n".join(lines) + "\n"


@pytest.fixture
def valid_documents(tmp_path, instrument_tsg):
    """The graph, parameter, bundle, series and estimate documents of one valid
    instance."""
    params = sample_stable_params(instrument_tsg, seed=4)
    series = simulate_series(instrument_tsg, params, length=48, burn_in=50, seed=1)
    sio.save_series(series, tmp_path / "series.txt")
    return {
        "graph": graph_to_dict(instrument_tsg),
        "params": params_to_dict(params),
        "bundle": sio.bundle_to_dict(spectrum(instrument_tsg, params)),
        "series": [line.split("\t")
                   for line in (tmp_path / "series.txt").read_text().splitlines()],
        "estimate": sio.estimate_to_dict(estimate_spectrum(series, [0.5, 1.5],
                                                           segment_length=16)),
    }


def _run_commands(tmp_path, docs) -> list[int]:
    """Write the documents and run every command on them; each must exit with
    a documented code and print a JSON object.  Returns the exit codes."""
    files = {name: str(tmp_path / name) for name in docs}
    for name, doc in docs.items():
        text = _series_text(doc) if name == "series" else json.dumps(doc)
        (tmp_path / name).write_text(text)
    out = ["--out", str(tmp_path / "out")]
    query = ["query", "--graph", files["graph"], "--x", "u,v", "--y", "w"]
    codes = []
    for argv in (["spectrum", "--graph", files["graph"], "--params", files["params"], *out],
                 ["identify", "--graph", files["graph"], "--spectrum", files["bundle"], *out],
                 ["estimate", "--series", files["series"], "--frequencies", "2",
                  "--segments", "16", *out],
                 [*query, "--query", "tsep"],
                 [*query, "--query", "dsep", "--z", "l"],
                 [*query, "--query", "rank", "--seed", "1"],
                 [*query, "--query", "treks"],
                 ["discover", "--graph", files["graph"], "--params", files["params"]],
                 ["discover", "--graph", files["graph"], "--seed", "1"],
                 ["simulate", "--graph", files["graph"], "--params", files["params"],
                  "--length", "16", "--burn-in", "4", "--seed", "1", *out],
                 ["discover", "--graph", files["graph"], "--estimate", files["estimate"]]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NON_GENERIC, EXIT_ESTIMATION), argv
        assert isinstance(json.loads(stdout.getvalue()), dict), argv
        codes.append(code)
    return codes


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_input_files_map_to_exit_codes(tmp_path, valid_documents, data):
    kind = data.draw(st.sampled_from(sorted(valid_documents)))
    docs = json.loads(json.dumps(valid_documents))
    docs[kind] = _mutate(data, docs[kind])
    _run_commands(tmp_path, docs)


def _lag_at_bound(docs, where):
    """Give u a cross lag (on u -> v) or an auto lag at io.MAX_LAG, with a coefficient."""
    params = docs["params"]
    if where == "cross":
        next(e for e in docs["graph"]["edges"] if e["from"] == "u")["lags"].append(sio.MAX_LAG)
        params["cross"].append({"from": "u", "to": "v", "lag": sio.MAX_LAG, "coeff": "1/7"})
    else:
        docs["graph"]["auto"]["u"].append(sio.MAX_LAG)
        params["auto"] = [{**e, "coeff": "1/3"} if e["vertex"] == "u" else e
                          for e in params["auto"]]
        params["auto"].append({"vertex": "u", "lag": sio.MAX_LAG, "coeff": "1/3"})


def _series_past_max_estimate_values(rows):
    """Widen the series until the 2 frequencies that `_run_commands` asks
    `estimate` for make more than cli.MAX_ESTIMATE_VALUES values."""
    extra = math.isqrt(cli.MAX_ESTIMATE_VALUES // 2) + 1 - len(rows[0])
    rows[0].extend(f"x{i}" for i in range(extra))
    for row in rows[1:]:
        row.extend(row[:1] * extra)


#: Inputs that random mutation rarely reaches, each applied to the valid documents.
TARGETED_MUTATIONS = {
    "duplicate observed label": lambda d: d["graph"]["observed"].append("u"),
    "label observed and latent": lambda d: d["graph"]["latent"].append("u"),
    "duplicate series label": lambda d: d["series"][0].__setitem__(0, "u"),
    "duplicate estimate label": lambda d: d["estimate"]["labels"].__setitem__(0, "u"),
    "duplicate bundle label": lambda d: d["bundle"]["S"]["rows"].__setitem__(1, "u"),
    "decimal cross coefficient": lambda d: d["params"]["cross"][0].__setitem__("coeff", "0.25"),
    "decimal noise variance": lambda d: d["params"]["noise"][0].__setitem__("variance", "1.5"),
    "decimal bundle coefficient":
        lambda d: d["bundle"]["S"]["entries"][0][0]["den"].__setitem__(0, "0.5"),
    "series past MAX_ESTIMATE_VALUES": lambda d: _series_past_max_estimate_values(d["series"]),
    "cross lag at MAX_LAG": lambda d: _lag_at_bound(d, "cross"),
    "auto lag at MAX_LAG": lambda d: _lag_at_bound(d, "auto"),
    # valid documents under a lowered bound (see LOWERED_BOUNDS)
    "PC search past MAX_CI_TESTS": lambda d: None,
    # valid: identify --spectrum reads H unreduced, and must not refuse it
    "non-canonical H entry":
        lambda d: d["bundle"]["H"]["entries"][0][0].update(num=["3", "3"], den=["6", "6"]),
}

#: Faults in H, S_I or S_LI, which `identify --spectrum` reads only to check.
BUNDLE_MATRIX_FAULTS = {
    "zero denominator": lambda m: m["entries"][0][0].update(den=["0"]),
    "decimal coefficient": lambda m: m["entries"][0][0].update(den=["0.5"]),
    "rows string": lambda m: m.update(rows="".join(m["rows"])),
    "duplicate label": lambda m: m["rows"].__setitem__(1, m["rows"][0]),
    "missing den": lambda m: m["entries"][0][0].pop("den"),
}
TARGETED_MUTATIONS.update({
    f"{key} {fault}": (lambda d, key=key, edit=edit: edit(d["bundle"][key]))
    for key in ("H", "S_I", "S_LI") for fault, edit in BUNDLE_MATRIX_FAULTS.items()
})


#: The cli bound an entry lowers, and its value.  The latent l keeps every
#: observed pair dependent, so the PC search removes no edge and runs all 12
#: tests of three vertices.
LOWERED_BOUNDS = {"PC search past MAX_CI_TESTS": ("MAX_CI_TESTS", 11)}


@pytest.mark.parametrize("mutation", sorted(TARGETED_MUTATIONS))
def test_targeted_input_files_map_to_exit_codes(tmp_path, monkeypatch, valid_documents,
                                                mutation):
    docs = json.loads(json.dumps(valid_documents))
    TARGETED_MUTATIONS[mutation](docs)
    if mutation in LOWERED_BOUNDS:
        monkeypatch.setattr(cli, *LOWERED_BOUNDS[mutation])
    codes = _run_commands(tmp_path, docs)
    if mutation.endswith("at MAX_LAG") or mutation == "non-canonical H entry":
        assert set(codes) == {EXIT_OK}  # the bound itself is a valid lag
    else:
        assert EXIT_VALIDATION in codes


#: Malformed inputs that once loaded as something else and exited 0: a string
#: of labels or coefficients split into characters, a lag truncated or read
#: from a bool, a series or estimate naming one process twice (the latent
#: l's column is read as u's), and a parameter listed twice (the later value
#: won).
MISREAD_INPUTS = {
    "observed string": ("graph", lambda d: d.__setitem__("observed", "uvw")),
    "latent string": ("graph", lambda d: d.__setitem__("latent", "l")),
    "cross lag true": ("graph", lambda d: d["edges"][0].__setitem__("lags", [True])),
    "auto lag true": ("graph", lambda d: d["auto"].__setitem__("u", [True])),
    "params lag float":
        ("params", lambda d: next(e for e in d["cross"] if e["lag"] == 1).__setitem__("lag", 1.7)),
    "params lag true": ("params", lambda d: d["auto"][0].__setitem__("lag", True)),
    "series duplicate label": ("series", lambda rows: rows[0].__setitem__(0, "u")),
    "estimate duplicate label": ("estimate", lambda d: d["labels"].__setitem__(0, "u")),
    "estimate labels string": ("estimate", lambda d: d.update(labels="".join(d["labels"]))),
    "bundle rows string": ("bundle", lambda d: d["S"].update(rows="".join(d["S"]["rows"]))),
    "bundle cols string": ("bundle", lambda d: d["S"].update(cols="".join(d["S"]["cols"]))),
    "bundle coefficient string":  # read as 1 + 2z
        ("bundle", lambda d: d["S"]["entries"][0][0].update(num="12", den=["1"])),
    "params cross entry twice":  # read as the later 1/3
        ("params", lambda d: d["cross"].append({**d["cross"][0], "coeff": "1/3"})),
    "params auto entry twice":
        ("params", lambda d: d["auto"].append({**d["auto"][0], "coeff": "1/100"})),
    "params noise entry twice":
        ("params", lambda d: d["noise"].append({**d["noise"][0], "variance": "5"})),
    # read as 2, -5, 15 and 1 segments, segments of length 1, the numbers in the
    # strings and the frequency 1.0
    "estimate segment_count float": ("estimate", lambda d: d.update(segment_count=2.7)),
    "estimate segment_count negative": ("estimate", lambda d: d.update(segment_count=-5)),
    "estimate segment_count string": ("estimate", lambda d: d.update(segment_count="15")),
    "estimate segment_count true": ("estimate", lambda d: d.update(segment_count=True)),
    "estimate segment_length true": ("estimate", lambda d: d.update(segment_length=True)),
    "estimate frequencies strings":
        ("estimate", lambda d: d.update(frequencies=[str(f) for f in d["frequencies"]])),
    "estimate frequency true": ("estimate", lambda d: d["frequencies"].__setitem__(0, True)),
    # read as 1 and 0, the first matrix at the second frequency or at true, any
    # window, and
    # non-finite cells that the Hermitian check lets through
    "estimate real cell true":
        ("estimate", lambda d: d["matrices"][0]["real"][0].__setitem__(0, True)),
    "estimate imag cell false":
        ("estimate", lambda d: d["matrices"][0]["imag"][0].__setitem__(0, False)),
    "estimate matrix frequency off the grid":
        ("estimate", lambda d: d["matrices"][0].update(frequency=d["frequencies"][1])),
    "estimate matrix frequency true":  # True == 1.0 on the grid
        ("estimate", lambda d: (d["frequencies"].__setitem__(0, 1.0),
                                d["matrices"][0].update(frequency=True))),
    "estimate window number": ("estimate", lambda d: d.update(window=5)),
    "estimate cell nan":
        ("estimate", lambda d: d["matrices"][0]["real"][0].__setitem__(1, math.nan)),
    "estimate cell infinity":
        ("estimate", lambda d: d["matrices"][1]["real"][1].__setitem__(1, -math.inf)),
    # once a traceback: numpy overflows converting the integer to a double
    "estimate cell past the double range":
        ("estimate", lambda d: d["matrices"][0]["real"][1].__setitem__(0, 10**400)),
}
# faults that a reader of S alone could skip: every matrix of a bundle is checked
MISREAD_INPUTS.update({
    f"bundle {key} {fault}": ("bundle", lambda d, key=key, edit=edit: edit(d[key]))
    for key in ("H", "S_I", "S_LI") for fault, edit in BUNDLE_MATRIX_FAULTS.items()
})


def test_deeply_nested_json_exits_validation(capsys, tmp_path):
    """`json` parses nesting by recursion: input nested past the stack is refused."""
    path = tmp_path / "graph.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, report = run(capsys, "validate", "--graph", str(path))
    assert code == EXIT_VALIDATION and "nested too deeply" in report["error"]


@pytest.mark.parametrize("case", sorted(MISREAD_INPUTS))
def test_misread_inputs_exit_validation(capsys, tmp_path, valid_documents, case):
    kind, mutate = MISREAD_INPUTS[case]
    docs = json.loads(json.dumps(valid_documents))
    mutate(docs[kind])
    for name in ("graph", "params", "bundle", "estimate"):
        (tmp_path / name).write_text(json.dumps(docs[name]))
    (tmp_path / "series").write_text(_series_text(docs["series"]))
    out = str(tmp_path / "out")
    argv = {"graph": ["validate", "--graph", str(tmp_path / "graph")],
            "params": ["spectrum", "--graph", str(tmp_path / "graph"),
                       "--params", str(tmp_path / "params"), "--out", out],
            "bundle": ["identify", "--graph", str(tmp_path / "graph"),
                       "--spectrum", str(tmp_path / "bundle"), "--out", out],
            "series": ["estimate", "--series", str(tmp_path / "series"),
                       "--frequencies", "2", "--segments", "16", "--out", out],
            "estimate": ["discover", "--graph", str(tmp_path / "graph"),
                         "--estimate", str(tmp_path / "estimate"), "--out", out]}[kind]
    code, report = run(capsys, *argv)
    assert code == EXIT_VALIDATION, report
    assert not (tmp_path / "out").exists()
