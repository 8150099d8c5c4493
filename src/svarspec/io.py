"""Every file the package reads or writes, and the JSON form of exact values.

Everything structured is JSON written by `to_json`, this module's emitter of
`json.dumps(value, indent=2, sort_keys=True)` bytes, plus a trailing
newline, so identical inputs produce byte-identical files.  Exact rational
coefficients travel as strings "p/q" in lowest terms, read and written as
integer pairs; decimal notation is rejected on load.  A coefficient list in
that form is checked by one match over the joined list, any other list
coefficient by coefficient.  A rational function is the coefficient lists of
its numerator and denominator, and a matrix adds its row and column labels.
A matrix on load has every entry checked at once, and each made canonical
again (a `RatFn`, with its gcd) only when it is first read, so
`identify --spectrum` builds only the entries of S it reads.  The module
reads graphs, parameters, spectrum bundles, series and estimates, and writes
bundles, certificates, CPDAGs, series and estimates: the files the commands
take and give.  Series are columnar text with a label header row, written
and read a block of rows at a time: the reader takes the file a line at a
time, so neither side holds the text of more than one block.  Input files
are hashed for the run report in chunks.  Only the series and estimate
readers and writers touch numpy, and they import it where they run.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .graph import (GraphValidationError, LfhtcTriple, ProcessGraph,
                    TimeSeriesGraph)
from .identify import Cpdag, IdentificationCertificate
from .ratfield import Poly, RatFn, _from_ratios, _new
from .ratlinalg import RatMatrix
from .svar import SpectrumBundle, SvarParams

if TYPE_CHECKING:
    import numpy as np

    from .simulate import SeriesSample, SpectrumEstimate

#: Largest lag a graph file may name; exact spectra grow with the lags.
MAX_LAG = 1000


#: JSON's quoted, ASCII-only form of a string; C code where CPython has it.
_quote = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _emit(value, newline: str) -> str:
    """value as `json.dumps(value, indent=2, sort_keys=True)` writes it, at the
    depth whose line break and indent is `newline`.  No value is both a
    container and a scalar, so testing containers first changes no output."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _emit(value[k], inner) for k in sorted(value)]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        try:  # a list of strings, such as a coefficient list, is quoted in C
            items = list(map(_quote, value))
        except TypeError:
            items = [_emit(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def to_json(value) -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)` for a value of
    dicts with string keys, lists, tuples, strings, ints, floats, bools and
    None, built without the standard library's pure-Python encoder, which
    that call runs whenever an indent is set."""
    return _emit(value, "\n")


def _dump(data: Any, path: str | Path) -> None:
    Path(path).write_text(to_json(data) + "\n")


def _load(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def digest(path) -> str:
    """The first 16 hex digits of a file's SHA-256: how a run report names its
    inputs.  The file is hashed 64 KiB at a time, never held whole."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()[:16]


def _is_int(k) -> bool:
    """Whether k is a JSON integer: `int` would truncate 1.7, and `True` is an int."""
    return isinstance(k, int) and not isinstance(k, bool)


# -- exact values ----------------------------------------------------------------------


#: The writers' form (an integer, or p/q in lowest terms with q > 1), which
#: `_ratio` reads as two integers wherever it matches.
_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _exact(s: str) -> Fraction:
    if not isinstance(s, str) or "." in s or "e" in s.lower():
        raise ValueError(f"coefficient {s!r} is not an exact rational string 'p/q'")
    return Fraction(s)


def _ratio(s: str) -> tuple[int, int]:
    """The exact coefficient string s as (p, q) with q > 0, not always in lowest terms.

    The writers' form is read as two integers; any other string, a zero
    denominator included, goes through `_exact`, which raises as `Fraction`
    does or accepts what it accepts.
    """
    m = _RATIO.fullmatch(s) if isinstance(s, str) else None
    if m is not None:
        p, q = m.groups()
        q = int(q) if q else 1
        if q:
            return int(p), q
    f = _exact(s)
    return f.numerator, f.denominator


def _labels(value, what: str, error: type[ValueError] = ValueError) -> list[str]:
    """value itself if it is a list of strings: a string would split into characters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise error(f"{what} must be a list of label strings, got {value!r}")
    return value


def _coeff_strings(poly: Poly) -> list[str]:
    """The coefficients of poly as `str` of their `Fraction`s, from the content
    n/d and primitive integers a: gcd(n, d) = 1, so n*a/d reduces by gcd(a, d)."""
    n, d = poly.n, poly.d
    out = []
    for a in poly.p:
        g = math.gcd(a, d)
        out.append(str(n * (a // d)) if g == d else f"{n * (a // g)}/{d // g}")
    return out


def _ratios(coeffs) -> list[tuple[int, int]]:
    if not isinstance(coeffs, list):
        raise ValueError(f"coefficients must be a list of strings, got {coeffs!r}")
    return [_ratio(s) for s in coeffs]


#: A whole coefficient list in the writers' form, joined by commas, with no
#: zero denominator; and such a list whose numerators are all zero.
_RATIO_LIST = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?(?:,-?[0-9]+(?:/0*[1-9][0-9]*)?)*")
_ZERO_LIST = re.compile(r"-?0+(?:/[0-9]+)?(?:,-?0+(?:/[0-9]+)?)*")

#: The most digits `int` reads from a string (0: no limit).
_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _checked(coeffs) -> str:
    """A coefficient list in the writers' form, joined by commas, or refused
    where `_ratios` refuses it.

    A list of strings that one match shows in that form, each too short to
    pass `int`'s digit limit, is returned joined as it is and not yet read;
    every other list goes through `_ratios`, which reads each coefficient and
    raises as it always has, and its pairs are joined as "p/q" (an empty list
    as "0").  A coefficient holding a comma adds one to the joined list's
    count, so it never matches.
    """
    if isinstance(coeffs, list):
        try:
            joined = ",".join(coeffs)
        except TypeError:  # a coefficient that is not a string
            joined = ""  # which no list matches
        limit = _max_digits()
        if (joined.count(",") == len(coeffs) - 1 and _RATIO_LIST.fullmatch(joined)
                and (not limit or max(map(len, coeffs)) <= limit)):
            return joined
    return ",".join(f"{p}/{q}" for p, q in _ratios(coeffs)) or "0"


def _poly(coeffs: str) -> Poly:
    """The polynomial of a list `_checked` returned."""
    ratios = []
    for s in coeffs.split(","):
        p, _, q = s.partition("/")
        ratios.append((int(p), int(q) if q else 1))
    return _new(*_from_ratios(ratios))


def ratfn_to_dict(r: RatFn) -> dict:
    return {"num": _coeff_strings(r.num), "den": _coeff_strings(r.den)}


def _checked_ratfn(data: dict) -> tuple:
    """A rational function's coefficient lists from `_checked`, refused
    wherever building it would fail, but not built: no `Poly`, gcd or
    `RatFn`."""
    num, den = _checked(data["num"]), _checked(data["den"])
    if _ZERO_LIST.fullmatch(den):
        raise ZeroDivisionError("rational function with zero denominator")
    return num, den


def _ratfn(checked: tuple) -> RatFn:
    """The rational function of checked coefficient lists; `RatFn` makes it
    canonical again."""
    return RatFn(_poly(checked[0]), _poly(checked[1]))


class _OnDemand(RatMatrix):
    """A matrix whose entries, checked by `_checked_ratfn`, are made canonical
    (a `RatFn`, with its gcd) when first read: `entry` and `at` build the one
    entry they return, and `entries`, so also `==` and every other matrix
    operation, builds them all."""

    __slots__ = ("_cells", "_all")

    @property
    def entries(self) -> tuple[tuple[RatFn, ...], ...]:
        if self._all is None:
            self._all = tuple(tuple(self.at(i, j) for j in range(len(row)))
                              for i, row in enumerate(self._cells))
        return self._all

    @entries.setter
    def entries(self, rows) -> None:  # `RatMatrix.__init__` stores the checked grid
        self._cells = [list(row) for row in rows]
        self._all = None

    def at(self, i: int, j: int) -> RatFn:
        cell = self._cells[i][j]
        if not isinstance(cell, RatFn):
            cell = self._cells[i][j] = _ratfn(cell)
        return cell


def matrix_to_dict(matrix: RatMatrix) -> dict:
    return {
        "rows": list(matrix.row_labels),
        "cols": list(matrix.col_labels),
        "entries": [[ratfn_to_dict(e) for e in row] for row in matrix.entries],
    }


def matrix_from_dict(data: dict) -> RatMatrix:
    """Read a matrix whose every entry is checked now and made canonical when
    first read; `RatMatrix` refuses duplicate labels and a grid of the wrong
    shape."""
    return _OnDemand(
        _labels(data["rows"], "matrix rows"), _labels(data["cols"], "matrix cols"),
        [[_checked_ratfn(e) for e in row] for row in data["entries"]],
    )


# -- graphs -------------------------------------------------------------------------


def graph_from_dict(data: dict) -> TimeSeriesGraph:
    try:
        observed = data["observed"]
        latent = data.get("latent", [])
        edge_entries = data["edges"]
    except KeyError as exc:
        raise GraphValidationError(f"graph file is missing key {exc.args[0]!r}") from None
    for key, labels in (("observed", observed), ("latent", latent)):
        _labels(labels, f"graph key {key!r}", GraphValidationError)
    edges = []
    cross = {}
    for i, entry in enumerate(edge_entries):
        try:
            a, b, lags = entry["from"], entry["to"], entry["lags"]
        except KeyError as exc:
            raise GraphValidationError(
                f"edge entry #{i} ({entry!r}) is missing key {exc.args[0]!r}"
            ) from None
        if not lags:
            raise GraphValidationError(f"edge entry #{i} ({a} -> {b}) has an empty lag list")
        for k in lags:
            if not _is_int(k) or not 0 <= k <= MAX_LAG:
                raise GraphValidationError(
                    f"edge entry #{i} ({a} -> {b}) has invalid lag {k!r}, not in 0..{MAX_LAG}"
                )
        edges.append((a, b))
        cross[(a, b)] = lags
    auto_entries = data.get("auto", {})
    if not isinstance(auto_entries, dict):
        raise GraphValidationError(f"graph key 'auto' must be an object, got {auto_entries!r}")
    for v, lags in auto_entries.items():
        for k in lags:
            if not _is_int(k) or not 1 <= k <= MAX_LAG:
                raise GraphValidationError(f"auto lag {k!r} at {v!r} is not in 1..{MAX_LAG}")
    base = ProcessGraph.make(observed, latent, edges)
    return TimeSeriesGraph.make(base, cross, auto_entries)


def load_graph(path) -> TimeSeriesGraph:
    return graph_from_dict(_load(path))


# -- parameters ---------------------------------------------------------------------------


def _lag(entry: dict) -> int:
    k = entry["lag"]
    if not _is_int(k):
        raise ValueError(f"lag {k!r} in parameter entry {entry!r} is not an integer")
    return k


def _keyed(entries, key, value: str, what: str) -> dict:
    """{key(e): e[value] as a Fraction}; a key listed twice is a ValueError, not
    a silent overwrite by the later entry."""
    out = {}
    for e in entries:
        k = key(e)
        if k in out:
            raise ValueError(f"{what} {k!r} is listed more than once")
        out[k] = Fraction(*_ratio(e[value]))
    return out


def params_from_dict(data: dict) -> SvarParams:
    return SvarParams(
        cross=_keyed(data.get("cross", []), lambda e: (e["from"], e["to"], _lag(e)), "coeff",
                     "cross coefficient"),
        auto=_keyed(data.get("auto", []), lambda e: (e["vertex"], _lag(e)), "coeff",
                    "auto coefficient"),
        noise=_keyed(data.get("noise", []), lambda e: e["vertex"], "variance", "noise variance"),
    )


def load_params(path) -> SvarParams:
    return params_from_dict(_load(path))


# -- spectrum bundles --------------------------------------------------------------------------


#: A bundle's matrices, in the order they are written and read.
_BUNDLE_KEYS = ("H", "S_I", "S_LI", "S")


def bundle_to_dict(bundle: SpectrumBundle) -> dict:
    return {key: matrix_to_dict(getattr(bundle, key)) for key in _BUNDLE_KEYS}


def save_bundle(bundle: SpectrumBundle, path) -> None:
    _dump(bundle_to_dict(bundle), path)


def load_bundle(path) -> SpectrumBundle:
    """A bundle file, every entry of its four matrices checked now and made
    canonical when first read: `identify --spectrum` builds only the entries
    of S that identification reads, and none of H, S_I and S_LI."""
    data = _load(path)
    return SpectrumBundle(**{key: matrix_from_dict(data[key]) for key in _BUNDLE_KEYS})


# -- certificates ---------------------------------------------------------------------------------


def _triple_to_dict(triple: LfhtcTriple) -> dict:
    return {"Y": list(triple.Y), "W": list(triple.W), "Lp": list(triple.Lp)}


def certificate_to_dict(cert: IdentificationCertificate) -> dict:
    return {
        "steps": [
            {
                "vertex": s.vertex,
                "triple": _triple_to_dict(s.triple),
                "method": s.method,
                "system": matrix_to_dict(s.system),
                "rhs": [ratfn_to_dict(r) for r in s.rhs],
                "solved": [
                    {"from": a, "to": b, "link": ratfn_to_dict(h)}
                    for (a, b), h in sorted(s.solved.items())
                ],
                "aux": {w: ratfn_to_dict(f) for w, f in sorted(s.aux.items())},
            }
            for s in cert.steps
        ],
        "unresolved_vertices": list(cert.unresolved_vertices),
        "unresolved_edges": [list(e) for e in cert.unresolved_edges],
    }


def save_certificate(cert: IdentificationCertificate, path) -> None:
    _dump(certificate_to_dict(cert), path)


# -- discovered CPDAGs -------------------------------------------------------------------------------


def cpdag_to_dict(cpdag: Cpdag) -> dict:
    return {
        "nodes": list(cpdag.nodes),
        "directed": sorted(f"{a}->{b}" for a, b in cpdag.directed),
        "undirected": sorted("--".join(sorted(e)) for e in cpdag.undirected),
    }


def save_cpdag(cpdag: Cpdag, path) -> None:
    _dump(cpdag_to_dict(cpdag), path)


# -- series and estimates -------------------------------------------------------------------------------


#: Rows of a series formatted and written, or split and parsed, at a time.
SERIES_BLOCK_ROWS = 512


def save_series(series: SeriesSample, path) -> None:
    """Write each value as `repr` of its Python float: the shortest text that
    reads back as the same double.  Rows go out a block at a time, so only one
    block is held as text; a series with no rows ends with an empty line.

    Labels whose header line would not read back as the same labels are
    refused with ValueError before the file is opened: an empty label alone
    (the reader strips the empty header line), or a label holding a tab or a
    line break as `str.splitlines` counts them."""
    values, header = series.values, "\t".join(series.labels)
    if series.labels and (header.splitlines() != [header]
                          or tuple(header.split("\t")) != series.labels):
        raise ValueError(f"series labels {series.labels!r} do not read back as a header line")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(values), SERIES_BLOCK_ROWS):
            rows = values[start:start + SERIES_BLOCK_ROWS].tolist()
            fh.write("\n".join(["\t".join(map(repr, row)) for row in rows]) + "\n")
        if not len(values):
            fh.write("\n")


def _series_lines(fh):
    """The lines of `fh.read().strip("\n").splitlines()`, read one physical
    line at a time.  A line that is only a line break is held back until a
    later line shows that it is not trailing, and the last line loses its
    break before `splitlines`, as the strip would take it."""
    last, blanks = None, 0
    for line in fh:
        if line == "\n":
            blanks += last is not None
            continue
        if last is not None:
            yield from last.splitlines()
            yield from repeat("", blanks)
        last, blanks = line, 0
    if last is not None:
        yield from last.removesuffix("\n").splitlines()


def load_series(path) -> SeriesSample:
    """Read a series file; numpy parses each cell as `float` would, so a cell
    `float` rejects, or a ragged row, raises ValueError.  Only line breaks are
    stripped from the ends of the text, so a label keeps its spaces, and a
    text with no line left has no header line and is refused.  The file is
    read a line at a time, and its cells split and parsed a block of rows at
    a time, so the text of only one block is held."""
    import numpy as np

    from .simulate import SeriesSample
    with open(path) as fh:
        lines = _series_lines(fh)
        header = next(lines, None)
        if header is None:
            raise ValueError("series file has no header line")
        labels = tuple(header.split("\t"))
        blocks = []
        while block := [line.split("\t") for line in islice(lines, SERIES_BLOCK_ROWS)]:
            blocks.append(np.array(block, dtype=np.float64))
    values = np.concatenate(blocks) if blocks else np.array([], dtype=np.float64)
    return SeriesSample(labels, values)


def estimate_to_dict(est: SpectrumEstimate) -> dict:
    return {
        "labels": list(est.labels),
        "frequencies": list(est.frequencies),
        "segment_count": est.segment_count,
        "segment_length": est.segment_length,
        "window": "hann",
        "matrices": [
            {
                "frequency": f,
                "real": m.real.tolist(),
                "imag": m.imag.tolist(),
            }
            for f, m in zip(est.frequencies, est.matrices)
        ],
    }


def _count(data: dict, key: str, least: int) -> int:
    k = data[key]
    if not _is_int(k) or k < least:
        raise ValueError(f"estimate {key} {k!r} is not an integer of at least {least}")
    return k


def _is_number(x) -> bool:
    """Whether x is a JSON number: `float` would read "0.5", and `True` is an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _frequencies(value) -> tuple[float, ...]:
    """value as floats if it is a list of JSON numbers."""
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ValueError(f"estimate frequencies must be a list of numbers, got {value!r}")
    return tuple(float(f) for f in value)


def _matrix(m: dict, frequency: float) -> np.ndarray:
    """One estimate matrix, if it is at `frequency` and every cell of its real
    and imag parts is a finite JSON number (`json` reads NaN and Infinity)."""
    import numpy as np
    if not _is_number(m["frequency"]) or m["frequency"] != frequency:
        raise ValueError(f"estimate matrix at {m['frequency']!r} where the grid has {frequency!r}")
    if not all(_is_number(x) for part in (m["real"], m["imag"]) for row in part for x in row):
        raise ValueError("estimate matrix cells must be JSON numbers")
    try:
        out = np.array(m["real"], dtype=float) + 1j * np.array(m["imag"], dtype=float)
    except OverflowError:  # an integer beyond the double range
        raise ValueError("estimate matrix cells must be finite") from None
    if not np.isfinite(out).all():
        raise ValueError("estimate matrix cells must be finite")
    return out


def estimate_from_dict(data: dict) -> SpectrumEstimate:
    import numpy as np

    from .simulate import SpectrumEstimate
    frequencies = _frequencies(data["frequencies"])
    window = data.get("window", "hann")
    if window != "hann":
        raise ValueError(f"estimate window {window!r} is not 'hann'")
    return SpectrumEstimate(
        labels=tuple(_labels(data["labels"], "estimate labels")),
        frequencies=frequencies,
        matrices=np.array([_matrix(m, f) for m, f in zip(data["matrices"], frequencies,
                                                         strict=True)]),
        segment_count=_count(data, "segment_count", 1),
        segment_length=_count(data, "segment_length", 2),
    )


def save_estimate(est: SpectrumEstimate, path) -> None:
    _dump(estimate_to_dict(est), path)


def load_estimate(path) -> SpectrumEstimate:
    return estimate_from_dict(_load(path))
