"""Codecs that no command needs: the tests' writers, readers and references.

Commands read graph, parameter and bundle files, and write bundles and
certificates (`svarspec.io`).  Tests also write graph and parameter files,
read a certificate or a single rational function back, and check the bundle
reader; those codecs live here, built on `svarspec.io`'s checked readers.

- `save_graph` and `save_params` write input files that the loaders read
  back as the same objects;
- `ratfn_from_dict` and `load_certificate` read a rational function and a
  certificate, each entry made canonical again;
- `eager_bundle` reads a bundle with every entry made canonical at load: the
  reference that `io.load_bundle`, which makes an entry canonical only when
  it is first read, must refuse and read alike;
- `ratfn_to_dict`, `matrix_to_dict`, `bundle_to_dict` and
  `certificate_to_dict` give exact values as nested dicts and lists of
  coefficient strings: `json.dumps(..., indent=2, sort_keys=True)` of them is
  the text `io.to_json` must write from the objects themselves.
"""

from __future__ import annotations

from svarspec import io as sio
from svarspec.graph import LfhtcTriple, TimeSeriesGraph
from svarspec.identify import IdentificationCertificate, IdentificationStep
from svarspec.ratfield import RatFn
from svarspec.ratlinalg import RatMatrix
from svarspec.svar import SpectrumBundle, SvarParams


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


def save_graph(tsg: TimeSeriesGraph, path) -> None:
    sio._dump(graph_to_dict(tsg), path)


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


def save_params(params: SvarParams, path) -> None:
    sio._dump(params_to_dict(params), path)


def ratfn_from_dict(data: dict) -> RatFn:
    """Read a rational function; `RatFn` makes it canonical again."""
    return sio._ratfn(sio._checked_ratfn(data))


def _eager_matrix(data: dict) -> RatMatrix:
    return RatMatrix(
        sio._labels(data["rows"], "matrix rows"), sio._labels(data["cols"], "matrix cols"),
        [[ratfn_from_dict(e) for e in row] for row in data["entries"]],
    )


def eager_bundle(path) -> SpectrumBundle:
    """A bundle file with every entry of its four matrices made canonical at load."""
    data = sio._load(path)
    return SpectrumBundle(**{key: _eager_matrix(data[key]) for key in sio._BUNDLE_KEYS})


def _triple_from_dict(data: dict) -> LfhtcTriple:
    return LfhtcTriple.make(*(sio._labels(data[k], f"triple {k}") for k in ("Y", "W", "Lp")))


def certificate_from_dict(data: dict) -> IdentificationCertificate:
    steps = []
    for s in data["steps"]:
        steps.append(IdentificationStep(
            vertex=s["vertex"],
            triple=_triple_from_dict(s["triple"]),
            method=s["method"],
            system=sio.matrix_from_dict(s["system"]),
            rhs=tuple(ratfn_from_dict(r) for r in s["rhs"]),
            solved={(e["from"], e["to"]): ratfn_from_dict(e["link"]) for e in s["solved"]},
            aux={w: ratfn_from_dict(f) for w, f in s["aux"].items()},
        ))
    return IdentificationCertificate(
        tuple(steps),
        tuple(sio._labels(data.get("unresolved_vertices", []), "unresolved vertices")),
        tuple(tuple(sio._labels(e, "unresolved edge"))
              for e in data.get("unresolved_edges", ())),
    )


def load_certificate(path) -> IdentificationCertificate:
    return certificate_from_dict(sio._load(path))


# -- the dict form of exact values: the byte oracle of `svarspec.io.to_json` ------------


def ratfn_to_dict(r: RatFn) -> dict:
    return {"num": sio._coeff_strings(r.num), "den": sio._coeff_strings(r.den)}


def matrix_to_dict(matrix: RatMatrix) -> dict:
    return {
        "rows": list(matrix.row_labels),
        "cols": list(matrix.col_labels),
        "entries": [[ratfn_to_dict(e) for e in row] for row in matrix.entries],
    }


def bundle_to_dict(bundle: SpectrumBundle) -> dict:
    return {key: matrix_to_dict(getattr(bundle, key)) for key in sio._BUNDLE_KEYS}


def _plain(value):
    """value with every `RatFn` and `RatMatrix` in it replaced by its dict form."""
    if isinstance(value, RatFn):
        return ratfn_to_dict(value)
    if isinstance(value, RatMatrix):
        return matrix_to_dict(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def certificate_to_dict(cert: IdentificationCertificate) -> dict:
    """A certificate's document with every exact value in its dict form."""
    return _plain(sio.certificate_to_dict(cert))
