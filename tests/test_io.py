"""Round trips and validation for the file formats."""

import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fraction_reference
import io_reference
import series_reference
from svarspec import io as sio
from svarspec.cli import EXIT_VALIDATION, main
from svarspec.graph import GraphValidationError, LfhtcTriple
from svarspec.identify import IdentificationCertificate, IdentificationStep, identify_all
from svarspec.ratfield import Poly, RatFn
from svarspec.ratlinalg import RatMatrix
from svarspec.simulate import SeriesSample, estimate_spectrum, simulate_series
from svarspec.svar import SpectrumBundle, sample_stable_params, spectrum

from conftest import random_ratfn


def test_ratfn_serialization_round_trip():
    rng = random.Random(12)
    for _ in range(50):
        r = random_ratfn(rng)
        assert io_reference.ratfn_from_dict(json.loads(sio.to_json(r))) == r


def test_serialization_rejects_decimal_strings():
    with pytest.raises(ValueError):
        io_reference.ratfn_from_dict({"num": ["0.5"], "den": ["1"]})


#: Coefficient strings off the writers' form `-?[0-9]+(/[0-9]+)?`, or in it but
#: not in lowest terms, or with a zero denominator, or two of them joined by
#: the comma that the whole-list check joins a list with.
ODD_COEFFICIENTS = ["2/4", "-0", "007", " +3/4", "1/0", "0/0", "-0/7", "0.5", "1e3",
                    "1E3", "-1/-2", "+5", "\t7\n", "1/", "/2", "", "-", "1_0", "inf",
                    "nan", "\u0663", "\u0661/\u0662", "3/\u0664", "\u00b2", "12/1",
                    "1,2", "0,0", "3/4,5"]

coefficient_strings = st.one_of(
    st.sampled_from(ODD_COEFFICIENTS),
    st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(0, 10**6)),
    st.integers(-10**30, 10**30).map(str),
    st.text(alphabet="0123456789-+/ .e_\u0663\u00b2", max_size=6),
    st.none() | st.booleans() | st.integers() | st.floats() | st.lists(st.just("1"), max_size=1),
)


def _outcome(parse, value):
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(coefficient_strings, max_size=4), st.lists(coefficient_strings, max_size=4))
def test_coefficient_parser_matches_the_fraction_oracle(num, den):
    for s in num + den:
        parsed = _outcome(lambda v: Fraction(*sio._ratio(v)), s)
        assert parsed == _outcome(fraction_reference.exact, s)
    data = {"num": num, "den": den}
    got = _outcome(io_reference.ratfn_from_dict, data)
    expected = _outcome(fraction_reference.ratfn_from_dict, data)
    if isinstance(got, RatFn):
        got = (got.num.coeffs, got.den.coeffs)
        expected = (expected[0].coeffs, expected[1].coeffs)
    assert got == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.fractions(max_denominator=10**12), max_size=5),
       st.lists(st.fractions(max_denominator=10**12), min_size=1, max_size=5))
def test_coefficient_writer_matches_the_fraction_oracle(num, den):
    assume(any(den))
    r = RatFn(Poly(num), Poly(den))
    assert json.loads(sio.to_json(r)) == fraction_reference.ratfn_to_dict(r)


def test_written_files_never_reach_the_fallback_parser(tmp_path, monkeypatch, instrument_tsg):
    params = sample_stable_params(instrument_tsg, seed=3)
    bundle = spectrum(instrument_tsg, params)
    io_reference.save_params(params, tmp_path / "p.json")
    sio.save_bundle(bundle, tmp_path / "b.json")

    def refuse(s):
        raise AssertionError(f"{s!r} went through the Fraction parser")

    monkeypatch.setattr(sio, "_exact", refuse)
    assert sio.load_params(tmp_path / "p.json") == params
    loaded = sio.load_bundle(tmp_path / "b.json")
    for name in ("H", "S_I", "S_LI", "S"):
        assert getattr(loaded, name) == getattr(bundle, name)
    with pytest.raises(AssertionError, match="Fraction parser"):
        io_reference.ratfn_from_dict({"num": ["2/4"], "den": [" 1"]})


#: Edits of one matrix of a bundle document: each breaks the file, or (the
#: last two) leaves it valid with an entry out of lowest terms.
BUNDLE_MATRIX_EDITS = {
    "zero denominator": lambda m: m["entries"][0][0].update(den=["0"]),
    # zeros off the writers' form, which take the coefficient-by-coefficient path
    "zero denominator +0": lambda m: m["entries"][0][0].update(den=["+0"]),
    "zero denominator spaced": lambda m: m["entries"][0][0].update(den=[" 0"]),
    "zero denominator mixed": lambda m: m["entries"][0][0].update(den=["0/7", " -0"]),
    "empty denominator": lambda m: m["entries"][0][0].update(den=[]),
    "decimal coefficient": lambda m: m["entries"][0][0].update(den=["0.5"]),
    "coefficient string": lambda m: m["entries"][0][0].update(num="12"),
    "coefficient past the digit limit":  # int refuses it, whichever matrix holds it
        lambda m: m["entries"][0][0].update(num=["1" * (sys.get_int_max_str_digits() + 1)]),
    "missing den": lambda m: m["entries"][0][0].pop("den"),
    "entry a list": lambda m: m["entries"][0].__setitem__(0, ["1"]),
    "rows string": lambda m: m.update(rows="".join(m["rows"])),
    "duplicate label": lambda m: m["cols"].__setitem__(1, m["cols"][0]),
    "short row": lambda m: m["entries"][0].pop(),
    "entries number": lambda m: m.update(entries=3),
    "missing rows": lambda m: m.pop("rows"),
    "not canonical": lambda m: m["entries"][0][0].update(num=["2", "2"], den=["4", "4"]),
    "zero over two": lambda m: m["entries"][0][0].update(num=["0"], den=["2"]),
}


def _unread_entry_first(S: dict, graph) -> dict:
    """S with its rows and columns reordered so that its first entry is one
    that `identify_all` never reads."""
    matrix = sio.matrix_from_dict(S)
    reads = set()

    class Recording(RatMatrix):
        def entry(self, row, col):
            reads.add((row, col))
            return super().entry(row, col)

    identify_all(graph, Recording(matrix.row_labels, matrix.col_labels, matrix.entries))
    r, c = min(set(itertools.product(S["rows"], S["cols"])) - reads)
    rows = [r] + [x for x in S["rows"] if x != r]
    cols = [c] + [x for x in S["cols"] if x != c]
    return {"rows": rows, "cols": cols,
            "entries": [[S["entries"][S["rows"].index(x)][S["cols"].index(y)] for y in cols]
                        for x in rows]}


@pytest.mark.parametrize("key", ["H", "S_I", "S_LI", "S", "S unread"])
def test_spectral_density_loader_refuses_what_the_bundle_loader_refuses(
        tmp_path, capsys, instrument_tsg, key):
    """`load_bundle`, which makes an entry canonical only when it is first
    read, refuses each file with the error of a reader that makes every entry
    canonical at load, and reads the same bundle from the others.  So every
    entry of every matrix is checked at load, an entry of S that
    identification never reads ("S unread") included, and `identify
    --spectrum` exits 2 wherever that reader refuses the file."""
    params = sample_stable_params(instrument_tsg, seed=2)
    bundle = io_reference.bundle_to_dict(spectrum(instrument_tsg, params))
    if key == "S unread":
        key, bundle["S"] = "S", _unread_entry_first(bundle["S"], instrument_tsg.base)
    path, graph = tmp_path / "bundle.json", tmp_path / "graph.json"
    io_reference.save_graph(instrument_tsg, graph)

    def outcome(load):
        try:
            return load(path)
        except Exception as exc:  # the class and the message are compared
            return type(exc), str(exc)

    def identify():
        code = main(["identify", "--graph", str(graph), "--spectrum", str(path),
                     "--out", str(tmp_path / "cert.json")])
        capsys.readouterr()
        return code

    for name, edit in BUNDLE_MATRIX_EDITS.items():
        data = json.loads(json.dumps(bundle))
        edit(data[key])
        path.write_text(json.dumps(data))
        want, got = outcome(io_reference.eager_bundle), outcome(sio.load_bundle)
        if isinstance(want, tuple):
            assert got == want, name
            assert identify() == EXIT_VALIDATION, name
        else:
            assert name in ("not canonical", "zero over two"), name
            assert got == want, name
    del bundle[key]
    path.write_text(json.dumps(bundle))
    assert outcome(sio.load_bundle) == outcome(io_reference.eager_bundle) == (KeyError, repr(key))


def test_matrix_serialization_round_trip():
    rng = random.Random(15)
    M = RatMatrix(["r0", "r1"], ["c0", "c1", "c2"],
                  [[random_ratfn(rng, max_degree=2) for _ in range(3)] for _ in range(2)])
    assert sio.matrix_from_dict(json.loads(sio.to_json(M))) == M


def test_graph_round_trip(tmp_path, instrument_tsg):
    path = tmp_path / "g.json"
    io_reference.save_graph(instrument_tsg, path)
    loaded = sio.load_graph(path)
    assert loaded == instrument_tsg


def test_graph_validation_names_offending_entry():
    with pytest.raises(GraphValidationError, match="entry #0"):
        sio.graph_from_dict({
            "observed": ["a", "b"], "latent": [],
            "edges": [{"from": "a", "to": "b", "lags": [-1]}],
        })
    with pytest.raises(GraphValidationError, match="missing key"):
        sio.graph_from_dict({"observed": ["a"]})
    with pytest.raises(GraphValidationError, match="latent"):
        sio.graph_from_dict({
            "observed": ["a"], "latent": ["l"],
            "edges": [{"from": "a", "to": "l", "lags": [0]}],
        })


def test_graph_loader_sorts_and_deduplicates_lags(tmp_path):
    """Lags listed out of order or twice load as the sorted file's, and an
    empty auto list is dropped: `sample_stable_params`, which draws in lag
    order, then draws the same parameters from both files."""
    graphs = []
    for cross, auto in (([1, 0, 1], {"a": [2, 1, 1], "b": []}), ([0, 1], {"a": [1, 2]})):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"observed": ["a", "b"], "latent": [], "auto": auto,
                                    "edges": [{"from": "a", "to": "b", "lags": cross}]}))
        graphs.append(sio.load_graph(path))
    unsorted, tidy = graphs
    assert unsorted == tidy
    assert tidy.cross_lags == {("a", "b"): (0, 1)} and tidy.auto_lags == {"a": (1, 2)}
    for seed in range(3):
        assert sample_stable_params(unsorted, seed) == sample_stable_params(tidy, seed)


def test_latent_edges_carry_lags(tmp_path, instrument_tsg):
    path = tmp_path / "g.json"
    io_reference.save_graph(instrument_tsg, path)
    data = io_reference.graph_to_dict(instrument_tsg)
    latent_edges = [e for e in data["edges"] if e["from"] == "l"]
    assert latent_edges and all(e["lags"] == [0, 1] for e in latent_edges)
    loaded = sio.load_graph(path)
    assert all(loaded.cross_lags[("l", e["to"])] == (0, 1) for e in latent_edges)


def test_params_round_trip(tmp_path, instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=1)
    path = tmp_path / "p.json"
    io_reference.save_params(p, path)
    assert sio.load_params(path) == p


def test_params_reject_decimal_coefficients():
    with pytest.raises(ValueError, match="exact rational"):
        sio.params_from_dict({
            "cross": [{"from": "a", "to": "b", "lag": 0, "coeff": "0.25"}],
            "auto": [], "noise": [],
        })


def test_bundle_round_trip(tmp_path, instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=2)
    bundle = spectrum(instrument_tsg, p)
    path = tmp_path / "bundle.json"
    sio.save_bundle(bundle, path)
    loaded = sio.load_bundle(path)
    assert loaded.H == bundle.H
    assert loaded.S == bundle.S
    assert loaded.S_I == bundle.S_I
    assert loaded.S_LI == bundle.S_LI


def test_certificate_round_trip(tmp_path, confounded_chain_graph, confounded_chain_tsg):
    p = sample_stable_params(confounded_chain_tsg, seed=3)
    cert = identify_all(confounded_chain_graph, spectrum(confounded_chain_tsg, p).S)
    path = tmp_path / "cert.json"
    sio.save_certificate(cert, path)
    loaded = io_reference.load_certificate(path)
    assert loaded.solved == cert.solved
    assert ([(s.vertex, s.triple) for s in loaded.steps]
            == [(s.vertex, s.triple) for s in cert.steps])
    assert [s.method for s in loaded.steps] == [s.method for s in cert.steps]


@pytest.mark.parametrize("where, value", [
    ("Y", "vu"), ("W", "w"), ("Lp", "l"),
    ("unresolved_vertices", "uv"), ("unresolved_edges", ["ab"]), ("Y", ["u", 1]),
])
def test_certificate_label_lists_must_be_lists(confounded_chain_graph, confounded_chain_tsg,
                                               where, value):
    # a string where a label list belongs would load as its characters
    p = sample_stable_params(confounded_chain_tsg, seed=3)
    data = io_reference.certificate_to_dict(
        identify_all(confounded_chain_graph, spectrum(confounded_chain_tsg, p).S))
    target = data if where.startswith("unresolved") else data["steps"][0]["triple"]
    target[where] = value
    with pytest.raises(ValueError, match="list of label strings"):
        io_reference.certificate_from_dict(data)


def test_series_round_trip(tmp_path, chain_tsg):
    p = sample_stable_params(chain_tsg, seed=4)
    series = simulate_series(chain_tsg, p, length=500, burn_in=50, seed=5)
    path = tmp_path / "series.txt"
    sio.save_series(series, path)
    loaded = sio.load_series(path)
    assert loaded.labels == series.labels
    assert np.array_equal(loaded.values, series.values)


@pytest.mark.parametrize("values", [
    [[-0.0, 0.0, 5e-324, -5e-324], [1e16, -1e16, 1e308, -1e308],
     [0.1, 1 / 3, 2.5e-17, 123456789.125], [1e15, 9999999999999998.0, 1e-5, 1e-4]],
    [[-0.0], [5e-324], [1e16], [1e308]],
    [[2.0]],
])
def test_series_format_matches_the_reference(tmp_path, values):
    series = SeriesSample(tuple(f"c{i}" for i in range(len(values[0]))), np.array(values))
    path, ref_path = tmp_path / "series.txt", tmp_path / "reference.txt"
    sio.save_series(series, path)
    series_reference.save_series(series, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    assert sio.load_series(path).values.tobytes() == series.values.tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (1, 0), (5, 0), (2 * sio.SERIES_BLOCK_ROWS + 3, 2)])
def test_series_bytes_match_the_reference_at_block_and_empty_shapes(tmp_path, shape):
    values = np.random.default_rng(sum(shape)).standard_normal(shape)
    series = SeriesSample(tuple(f"c{i}" for i in range(shape[1])), values)
    path, ref_path = tmp_path / "series.txt", tmp_path / "reference.txt"
    sio.save_series(series, path)
    series_reference.save_series(series, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    if values.size:
        assert sio.load_series(path).values.tobytes() == values.tobytes()


def _load_outcome(load, path):
    try:
        series = load(path)
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)
    return series.labels, series.values.shape, series.values.tobytes()


@pytest.mark.parametrize("text", [
    "a\tb\n1.0\t2.0\n3.0\n",       # ragged rows
    "a\tb\n1.0\n2.0\n",             # rows narrower than the header
    "a\tb\n",                        # header only
    "",                               # empty
    "\n\n",                           # blank lines only
    "a\n1_0\n2__0\n",                 # an underscore float accepts, then one it rejects
    "a\n1_0\n-2_5.0_1\n",
    "a\n\uff11\n\u0662.5\n",          # full-width and Arabic-Indic digits
    "a\n\U0001d7cf\n",                # a mathematical digit float rejects
    "a\tb\n 1.0 \t+2\n.5\t5.\n",     # surrounding spaces, signs, bare points
    "a\n0x10\n",
    "a\ntrue\n",
    "a\tb\n1.0\t\n",                 # an empty cell
    "a\nnan\n",                      # parsed, then rejected as non-finite
    "a\n1e400\n",
    "a\n1e-400\n-1e-400\n",
    "a\tb\n1.0\t2.0\r\n3.0\t4.0\r\n",  # CRLF line ends
    "a\tb\n1.0\x0c2.0\n",          # line breaks splitlines knows, inside a row
    "a\tb\n1.0\x1c2.0\n",
    "a\tb\n1.0\x852.0\n",
    "a\tb\n1.0 2.0\n",              # a space inside a row is no separator
    "a\tb\n1.0\t2.0\x0c\n3.0\t4.0\n",  # and at a row's end
    "a\tb\n1.0\t2.0\x1c\n3.0\t4.0\n",
    "a\tb\n1.0\t2.0\x85\n3.0\t4.0\n",
    "a\tb\n1.0\t2.0 \n3.0\t4.0\n",
    "a\n1.0\x0c\n\n",               # the last row ends \x0c\n\n
    "\n\na\n1.0\n2.0\n\n\n",         # leading and trailing blank lines
    "a\n1.0\n\n2.0\n",              # a blank middle row
])
def test_series_loader_matches_the_reference_on_malformed_text(tmp_path, text):
    path = tmp_path / "series.txt"
    path.write_text(text)
    assert _load_outcome(sio.load_series, path) == _load_outcome(series_reference.load_series, path)


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("text", [
    "a\tb\n1.0\t2.0\n3.0\n",           # ragged rows
    "a\tb\n1.0\t2.0\n3.0\t4.0\n5.0\n",  # the last block narrower
    "a\n1.0\n\n2.0\n",                # a blank row
    "a\tb\n1.0\t2.0\n-0.0\t5e-324\n1e16\t.5\n",
])
def test_series_loader_matches_the_reference_across_blocks(monkeypatch, tmp_path, text, block):
    monkeypatch.setattr(sio, "SERIES_BLOCK_ROWS", block)
    path = tmp_path / "series.txt"
    path.write_text(text)
    assert _load_outcome(sio.load_series, path) == _load_outcome(series_reference.load_series, path)


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(st.sampled_from(["\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85",
                                      " ", "1", "2", "."]), max_size=40).map("".join),
       block=st.sampled_from([1, 2, 512]))
def test_series_loader_matches_the_reference_on_random_text(monkeypatch, tmp_path, text, block):
    """The streaming reader against `read_text().strip("\\n").splitlines()`: each
    text mixes tabs, digits and every line break `splitlines` knows."""
    monkeypatch.setattr(sio, "SERIES_BLOCK_ROWS", block)
    path = tmp_path / "series.txt"
    path.write_text(text)
    assert _load_outcome(sio.load_series, path) == _load_outcome(series_reference.load_series, path)


def _traced_peak(call) -> int:
    """Bytes traced at the peak of call(), numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_loader_never_holds_the_whole_text(tmp_path):
    """A 20,000 x 4 series is a 1.57 MB file and a 0.64 MB array.  Reading the
    whole text holds at least the file's size; the streaming reader holds the
    parsed blocks, their concatenation and one block of text.  Measured peaks
    (Python 3.11, numpy 2.4): 5.12 MB reading the whole text, 1.37 MB
    streaming 512-row blocks."""
    values = np.random.default_rng(3).standard_normal((20_000, 4))
    path = tmp_path / "series.txt"
    sio.save_series(SeriesSample(("a", "b", "c", "d"), values), path)
    sio.load_series(path)  # numpy and svarspec.simulate imported outside the trace
    loaded = []
    peak = _traced_peak(lambda: loaded.append(sio.load_series(path)))
    assert loaded[0].values.tobytes() == values.tobytes()
    assert peak < path.stat().st_size


def test_series_loader_holds_about_one_array(tmp_path):
    """A 50,000 x 4 series is a 1.6 MB array.  Holding every parsed block and
    their concatenation peaks at twice the array; filling one array that
    grows by a quarter peaks at most a quarter above it, beside one block's
    text.  Measured peaks (Python 3.11, numpy 2.4): 3.42 MB (2.14 arrays)
    with the concatenation, 2.34 MB (1.46 arrays) filling one array."""
    values = np.random.default_rng(4).standard_normal((50_000, 4))
    path = tmp_path / "series.txt"
    sio.save_series(SeriesSample(("a", "b", "c", "d"), values), path)
    sio.load_series(path)  # numpy and svarspec.simulate imported outside the trace
    loaded = []
    peak = _traced_peak(lambda: loaded.append(sio.load_series(path)))
    assert loaded[0].values.tobytes() == values.tobytes()
    assert loaded[0].values.flags.owndata
    assert peak < 1.75 * values.nbytes


def test_digest_hashes_a_file_in_chunks(tmp_path):
    """Measured peaks (Python 3.11): 4.00 MB reading a 4 MB file whole, 0.14 MB
    hashing it in chunks."""
    path = tmp_path / "input.json"
    path.write_bytes(bytes(range(256)) * (4_000_000 // 256))
    want = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    got = []
    assert _traced_peak(lambda: got.append(sio.digest(path))) < 2_000_000
    assert got == [want]


def test_estimate_round_trip(tmp_path, chain_tsg):
    p = sample_stable_params(chain_tsg, seed=6)
    series = simulate_series(chain_tsg, p, length=4096, burn_in=100, seed=7)
    est = estimate_spectrum(series, [0.5, 1.5, 2.5], segment_length=64)
    path = tmp_path / "est.json"
    sio.save_estimate(est, path)
    loaded = sio.load_estimate(path)
    assert loaded.labels == est.labels
    assert loaded.frequencies == est.frequencies
    assert np.allclose(loaded.matrices, est.matrices)
    assert loaded.segment_count == est.segment_count


def test_saved_files_are_byte_deterministic(tmp_path, instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=8)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    io_reference.save_params(p, a)
    io_reference.save_params(p, b)
    assert a.read_bytes() == b.read_bytes()


class _Float(float):
    def __repr__(self):
        return "not JSON"


class _Int(int):
    def __repr__(self):
        return "not JSON"


#: Keys and strings with quotes, backslashes, control and non-ASCII characters.
json_text = st.text(alphabet=st.sampled_from(
    ['a', 'z', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f', '\u00e9', '\u2028',
     '\U0001f600', '\ud800', ' ']), max_size=4)
json_scalars = st.one_of(
    st.none(), st.booleans(), json_text,
    st.integers(), st.integers(-10**40, 10**40), st.builds(_Int, st.integers()),
    st.floats(), st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
    st.builds(_Float, st.floats()),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.lists(json_text, max_size=4),
                               st.dictionaries(json_text, children, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(json_values)
def test_emitter_writes_what_json_dumps_writes(value):
    assert sio.to_json(value) == json.dumps(value, indent=2, sort_keys=True)


#: Rational functions with zero entries, content denominators and negative
#: coefficients: most entries of a spectrum are zero.
exact_fractions = st.fractions(min_value=-10**20, max_value=10**20, max_denominator=10**6)
exact_ratfns = st.one_of(
    st.just(RatFn(0)),
    st.builds(lambda num, den: RatFn(Poly(num), Poly(den)),
              st.lists(exact_fractions, max_size=4),
              st.lists(exact_fractions, min_size=1, max_size=4).filter(any)),
)


@st.composite
def exact_matrices(draw):
    """Matrices of every shape up to 3 x 3, 0 x 0 and n x 0 included."""
    labels = st.lists(json_text, max_size=3, unique=True)
    rows, cols = draw(labels), draw(labels)
    return RatMatrix(rows, cols, [[draw(exact_ratfns) for _ in cols] for _ in rows])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.builds(SpectrumBundle, exact_matrices(), exact_matrices(), exact_matrices(),
                 exact_matrices()))
def test_bundle_writer_writes_what_json_dumps_writes_of_the_dict_form(bundle):
    document = {key: getattr(bundle, key) for key in sio._BUNDLE_KEYS}
    assert sio.to_json(document) == json.dumps(io_reference.bundle_to_dict(bundle),
                                               indent=2, sort_keys=True)


@st.composite
def certificates(draw):
    names = st.text(alphabet="abuvw", min_size=1, max_size=2)
    steps = []
    for _ in range(draw(st.integers(0, 2))):
        triple = LfhtcTriple.make(*(draw(st.lists(names, max_size=2, unique=True))
                                    for _ in range(3)))
        steps.append(IdentificationStep(
            vertex=draw(names), triple=triple, method=draw(st.sampled_from(["regression",
                                                                            "lfhtc"])),
            system=draw(exact_matrices()), rhs=tuple(draw(st.lists(exact_ratfns, max_size=3))),
            solved=draw(st.dictionaries(st.tuples(names, names), exact_ratfns, max_size=2)),
            aux=draw(st.dictionaries(names, exact_ratfns, max_size=2))))
    return IdentificationCertificate(
        tuple(steps), tuple(draw(st.lists(names, max_size=2))),
        tuple(draw(st.lists(st.tuples(names, names), max_size=2))))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(certificates())
def test_certificate_writer_writes_what_json_dumps_writes_of_the_dict_form(cert):
    assert sio.to_json(sio.certificate_to_dict(cert)) == json.dumps(
        io_reference.certificate_to_dict(cert), indent=2, sort_keys=True)


def test_written_bundle_is_the_dict_form_of_a_spectrum(tmp_path, instrument_tsg):
    """A spectrum's bundle file, zero entries and all, against the dict form."""
    bundle = spectrum(instrument_tsg, sample_stable_params(instrument_tsg, seed=5))
    assert any(not e for e in bundle.S_I.entries[0])
    sio.save_bundle(bundle, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_text() == json.dumps(
        io_reference.bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n"
