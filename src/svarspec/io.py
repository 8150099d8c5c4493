"""Every file the package reads or writes, and the JSON form of exact values.

Everything structured is JSON with sorted keys and a trailing newline, so
identical inputs produce byte-identical files.  Exact rational coefficients
travel as strings "p/q" in lowest terms, read and written as integer pairs;
decimal notation is rejected on load.  A rational function is the
coefficient lists of its numerator and denominator, made canonical again on
load, and a matrix adds its row and column labels.  `load_spectral_density`
reads a bundle's S alone: it checks H, S_I and S_LI as `load_bundle` does but
makes only S canonical.
Series are columnar text with a label header row.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .graph import (GraphValidationError, LfhtcTriple, ProcessGraph,
                    TimeSeriesGraph)
from .identify import Cpdag, IdentificationCertificate, IdentificationStep
from .ratfield import Poly, RatFn, _from_ratios, _new
from .ratlinalg import RatMatrix
from .simulate import SeriesSample, SpectrumEstimate
from .svar import SpectrumBundle, SvarParams

#: Largest lag a graph file may name; exact spectra grow with the lags.
MAX_LAG = 1000


def _dump(data: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _load(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    return data


def digest(path) -> str:
    """The first 16 hex digits of a file's SHA-256: how a run report names its inputs."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _is_lag(k) -> bool:
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


def _poly(coeffs) -> Poly:
    return _new(*_from_ratios(_ratios(coeffs)))


def ratfn_to_dict(r: RatFn) -> dict:
    return {"num": _coeff_strings(r.num), "den": _coeff_strings(r.den)}


def ratfn_from_dict(data: dict) -> RatFn:
    """Read a rational function; `RatFn` makes it canonical again."""
    return RatFn(_poly(data["num"]), _poly(data["den"]))


def _checked_ratfn(data: dict) -> None:
    """Read a rational function's coefficients and refuse it where
    `ratfn_from_dict` would, without building it: no `Poly`, gcd or `RatFn`."""
    _ratios(data["num"])
    if not any(p for p, _ in _ratios(data["den"])):
        raise ZeroDivisionError("rational function with zero denominator")


def matrix_to_dict(matrix: RatMatrix) -> dict:
    return {
        "rows": list(matrix.row_labels),
        "cols": list(matrix.col_labels),
        "entries": [[ratfn_to_dict(e) for e in row] for row in matrix.entries],
    }


def matrix_from_dict(data: dict, entry=ratfn_from_dict) -> RatMatrix:
    """Read a matrix, each entry by `entry`; `RatMatrix` refuses duplicate labels
    and a grid of the wrong shape."""
    return RatMatrix(
        _labels(data["rows"], "matrix rows"), _labels(data["cols"], "matrix cols"),
        [[entry(e) for e in row] for row in data["entries"]],
    )


# -- graphs -------------------------------------------------------------------------


def graph_to_dict(tsg: TimeSeriesGraph) -> dict:
    return {
        "observed": list(tsg.base.observed),
        "latent": list(tsg.base.latent),
        "edges": [
            {"from": a, "to": b, "lags": list(tsg.cross_lags[(a, b)])}
            for (a, b) in sorted(tsg.base.edges)
        ],
        "auto": {v: list(lags) for v, lags in sorted(tsg.auto_lags.items())},
    }


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
            if not _is_lag(k) or not 0 <= k <= MAX_LAG:
                raise GraphValidationError(
                    f"edge entry #{i} ({a} -> {b}) has invalid lag {k!r}, not in 0..{MAX_LAG}"
                )
        edges.append((a, b))
        cross[(a, b)] = tuple(sorted(set(lags)))
    auto_entries = data.get("auto", {})
    if not isinstance(auto_entries, dict):
        raise GraphValidationError(f"graph key 'auto' must be an object, got {auto_entries!r}")
    auto = {}
    for v, lags in auto_entries.items():
        for k in lags:
            if not _is_lag(k) or not 1 <= k <= MAX_LAG:
                raise GraphValidationError(f"auto lag {k!r} at {v!r} is not in 1..{MAX_LAG}")
        if lags:
            auto[v] = tuple(sorted(set(lags)))
    base = ProcessGraph.make(observed, latent, edges)
    return TimeSeriesGraph.make(base, cross, auto)


def save_graph(tsg: TimeSeriesGraph, path) -> None:
    _dump(graph_to_dict(tsg), path)


def load_graph(path) -> TimeSeriesGraph:
    return graph_from_dict(_load(path))


# -- parameters ---------------------------------------------------------------------------


def params_to_dict(params: SvarParams) -> dict:
    return {
        "cross": [
            {"from": a, "to": b, "lag": k, "coeff": str(c)}
            for (a, b, k), c in sorted(params.cross.items())
        ],
        "auto": [
            {"vertex": v, "lag": k, "coeff": str(c)}
            for (v, k), c in sorted(params.auto.items())
        ],
        "noise": [
            {"vertex": v, "variance": str(w)}
            for v, w in sorted(params.noise.items())
        ],
    }


def _lag(entry: dict) -> int:
    k = entry["lag"]
    if not _is_lag(k):
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


def save_params(params: SvarParams, path) -> None:
    _dump(params_to_dict(params), path)


def load_params(path) -> SvarParams:
    return params_from_dict(_load(path))


# -- spectrum bundles --------------------------------------------------------------------------


def bundle_to_dict(bundle: SpectrumBundle) -> dict:
    return {
        "H": matrix_to_dict(bundle.H),
        "S_I": matrix_to_dict(bundle.S_I),
        "S_LI": matrix_to_dict(bundle.S_LI),
        "S": matrix_to_dict(bundle.S),
    }


def _bundle_matrices(data: dict, canonical: set[str]) -> dict[str, RatMatrix]:
    """H, S_I, S_LI and S, read in that order and each refused as a whole matrix
    would be; only those named in `canonical` hold `RatFn` entries."""
    return {key: matrix_from_dict(data[key], ratfn_from_dict if key in canonical
                                  else _checked_ratfn)
            for key in ("H", "S_I", "S_LI", "S")}


def bundle_from_dict(data: dict) -> SpectrumBundle:
    return SpectrumBundle(**_bundle_matrices(data, {"H", "S_I", "S_LI", "S"}))


def save_bundle(bundle: SpectrumBundle, path) -> None:
    _dump(bundle_to_dict(bundle), path)


def load_bundle(path) -> SpectrumBundle:
    return bundle_from_dict(_load(path))


def load_spectral_density(path) -> RatMatrix:
    """S of a bundle file, refused wherever `load_bundle` refuses the file; only
    S is made canonical."""
    return _bundle_matrices(_load(path), {"S"})["S"]


# -- certificates ---------------------------------------------------------------------------------


def _triple_to_dict(triple: LfhtcTriple) -> dict:
    return {"Y": list(triple.Y), "W": list(triple.W), "Lp": list(triple.Lp)}


def _triple_from_dict(data: dict) -> LfhtcTriple:
    return LfhtcTriple.make(*(_labels(data[k], f"triple {k}") for k in ("Y", "W", "Lp")))


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


def certificate_from_dict(data: dict) -> IdentificationCertificate:
    steps = []
    for s in data["steps"]:
        steps.append(IdentificationStep(
            vertex=s["vertex"],
            triple=_triple_from_dict(s["triple"]),
            method=s["method"],
            system=matrix_from_dict(s["system"]),
            rhs=tuple(ratfn_from_dict(r) for r in s["rhs"]),
            solved={(e["from"], e["to"]): ratfn_from_dict(e["link"]) for e in s["solved"]},
            aux={w: ratfn_from_dict(f) for w, f in s["aux"].items()},
        ))
    return IdentificationCertificate(
        tuple(steps),
        tuple(_labels(data.get("unresolved_vertices", []), "unresolved vertices")),
        tuple(tuple(_labels(e, "unresolved edge")) for e in data.get("unresolved_edges", ())),
    )


def save_certificate(cert: IdentificationCertificate, path) -> None:
    _dump(certificate_to_dict(cert), path)


def load_certificate(path) -> IdentificationCertificate:
    return certificate_from_dict(_load(path))


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


def save_series(series: SeriesSample, path) -> None:
    """Write each value as `repr` of its Python float: the shortest text that
    reads back as the same double."""
    header = "\t".join(series.labels)
    body = "\n".join(["\t".join(map(repr, row)) for row in series.values.tolist()])
    Path(path).write_text(header + "\n" + body + "\n")


def load_series(path) -> SeriesSample:
    """Read a series file; numpy parses each cell as `float` would, so a cell
    `float` rejects, or a ragged row, raises ValueError.  Only line breaks are
    stripped from the ends of the text, so a label keeps its spaces."""
    lines = Path(path).read_text().strip("\n").splitlines()
    labels = tuple(lines[0].split("\t"))
    values = np.array([line.split("\t") for line in lines[1:]], dtype=np.float64)
    return SeriesSample(labels, values)


def estimate_to_dict(est: SpectrumEstimate) -> dict:
    return {
        "labels": list(est.labels),
        "frequencies": list(est.frequencies),
        "segment_count": est.segment_count,
        "segment_length": est.segment_length,
        "window": est.window,
        "matrices": [
            {
                "frequency": f,
                "real": np.real(m).tolist(),
                "imag": np.imag(m).tolist(),
            }
            for f, m in zip(est.frequencies, est.matrices)
        ],
    }


def estimate_from_dict(data: dict) -> SpectrumEstimate:
    mats = np.array([
        np.array(m["real"]) + 1j * np.array(m["imag"]) for m in data["matrices"]
    ])
    return SpectrumEstimate(
        labels=tuple(_labels(data["labels"], "estimate labels")),
        frequencies=tuple(float(f) for f in data["frequencies"]),
        matrices=mats,
        segment_count=int(data["segment_count"]),
        segment_length=int(data["segment_length"]),
        window=data.get("window", "hann"),
    )


def save_estimate(est: SpectrumEstimate, path) -> None:
    _dump(estimate_to_dict(est), path)


def load_estimate(path) -> SpectrumEstimate:
    return estimate_from_dict(_load(path))
