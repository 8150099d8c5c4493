"""Reference spectra and determinant expansions over RatFn arithmetic.

Every value here is reduced to canonical form after each `RatFn` operation,
and the expansions enumerate path and trek systems, which is exponential in
the graph size.  `svarspec.svar` builds the internal, projected internal and
observed spectra over the known denominator prod_v D_v(z) D_v(1/z) instead;
these functions are the oracles it must match entry for entry:

- `link_function` and `transfer_matrix` form H[a, b] = L_ab / D_b as one
  `RatFn` per edge, straight from `lag_poly`, not from the kernel's values;
- `internal_spectrum` and `spectrum` form sigma_v / (D_v D_v*) with RatFn
  products, S_LI with RatFn matrix products, and S = N^T S_LI conj(N) with
  N = (I - H_OO)^{-1} from `unit_inverse`, which sums I + H_OO + H_OO^2 + ...
  when the support of H_OO is acyclic and solves by Bareiss elimination
  otherwise (the library always solves);
- `spectrum_trek` sums one RatFn trek term per trek;
- `path_function`, `trek_function`, `det_path_expansion` and
  `det_trek_expansion` give the Gessel-Viennot and trek-system determinant
  expansions (Sullivant, Talaska & Draisma 2010), over the systems that
  `graph_reference` enumerates.
"""

from __future__ import annotations

from svarspec.graph import (Path, ProcessGraph, TimeSeriesGraph, Trek,
                            enumerate_treks)
from svarspec.ratfield import P_ONE, Poly, R_ONE, R_ZERO, RatFn
from svarspec.ratlinalg import RatMatrix, inverse
from svarspec.svar import SpectrumBundle, SvarParams, lag_poly

from graph_reference import (nonintersecting_path_systems,
                             sided_nonintersecting_trek_systems, validate_path)


def unit_inverse(M: RatMatrix) -> RatMatrix:
    """(I - M)^{-1}.

    When the nonzero entries of M form no directed cycle, M is nilpotent and
    the inverse is the finite geometric sum I + M + M^2 + ...; otherwise the
    system is solved.
    """
    labels = M.row_labels
    support = [(a, b) for a, row in zip(labels, M.entries)
               for b, e in zip(M.col_labels, row) if not e.is_zero]
    eye = RatMatrix.identity(labels)
    if any(a == b for a, b in support) or not ProcessGraph.make(labels, (), support).is_acyclic:
        return inverse(eye - M)
    total = eye
    power = eye
    for _ in range(len(labels)):
        power = power @ M
        if power.is_zero:
            break
        total = total + power
    return total


def _auto_denominator(tsg: TimeSeriesGraph, params: SvarParams, v: str) -> Poly:
    return P_ONE - lag_poly(tsg, params, v, v)


def link_function(tsg: TimeSeriesGraph, params: SvarParams, x: str, y: str) -> RatFn:
    """Rational causal effect along the edge x -> y."""
    return RatFn(lag_poly(tsg, params, x, y), _auto_denominator(tsg, params, y))


def transfer_matrix(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    """H over all vertices, zero off the edge set."""
    edges = set(tsg.base.edges)

    def fn(a: str, b: str) -> RatFn:
        return link_function(tsg, params, a, b) if (a, b) in edges else R_ZERO

    return RatMatrix.build(tsg.base.vertices, tsg.base.vertices, fn)


def internal_spectrum(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    labels = tsg.base.vertices
    values = []
    for v in labels:
        r = RatFn(P_ONE, _auto_denominator(tsg, params, v))
        values.append(RatFn(Poly((params.noise[v],))) * r * r.conj())
    return RatMatrix.diagonal(labels, values)


def spectrum(tsg: TimeSeriesGraph, params: SvarParams) -> SpectrumBundle:
    H = transfer_matrix(tsg, params)
    S_I = internal_spectrum(tsg, params)
    observed = tsg.base.observed
    latent = tsg.base.latent
    S_LI = S_I.submatrix(observed, observed)
    if latent:
        H_LO = H.submatrix(latent, observed)
        S_LI = S_LI + H_LO.transpose() @ S_I.submatrix(latent, latent) @ H_LO.conj()
    N = unit_inverse(H.submatrix(observed, observed))
    S = N.transpose() @ S_LI @ N.conj()
    return SpectrumBundle(H=H, S_I=S_I, S_LI=S_LI, S=S)


def spectrum_trek(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    graph = tsg.base
    graph.require_acyclic()
    H = transfer_matrix(tsg, params)
    S_I = internal_spectrum(tsg, params)
    cache: dict[tuple[str, ...], RatFn] = {}

    def product(path: Path) -> RatFn:
        key = path.vertices
        if key not in cache:
            out = R_ONE
            for a, b in path.edges:
                out = out * H.entry(a, b)
            cache[key] = out
        return cache[key]

    def fn(v: str, w: str) -> RatFn:
        acc = R_ZERO
        for trek in enumerate_treks(graph, v, w):
            term = product(trek.left) * S_I.entry(trek.top, trek.top) * product(trek.right).conj()
            acc = acc + term
        return acc

    return RatMatrix.build(graph.observed, graph.observed, fn)


def path_function(tsg: TimeSeriesGraph, params: SvarParams, path: Path,
                  H: RatMatrix | None = None) -> RatFn:
    """Product of the link functions along a path; the empty path gives 1."""
    validate_path(path, tsg.base)
    out = R_ONE
    for a, b in path.edges:
        out = out * (H.entry(a, b) if H is not None else link_function(tsg, params, a, b))
    return out


def trek_function(tsg: TimeSeriesGraph, params: SvarParams, trek: Trek,
                  H: RatMatrix | None = None, S_I: RatMatrix | None = None) -> RatFn:
    left = path_function(tsg, params, trek.left, H)
    right = path_function(tsg, params, trek.right, H)
    top = (S_I.entry(trek.top, trek.top) if S_I is not None
           else internal_spectrum(tsg, params).entry(trek.top, trek.top))
    return left * top * right.conj()


def det_path_expansion(tsg: TimeSeriesGraph, params: SvarParams, X, Y,
                       H: RatMatrix | None = None) -> RatFn:
    """Signed sum of path-function products over non-intersecting path systems."""
    graph = tsg.base
    graph.require_acyclic()
    if H is None:
        H = transfer_matrix(tsg, params)
    acc = R_ZERO
    for system in nonintersecting_path_systems(graph, X, Y):
        term = R_ONE
        for path in system.paths:
            term = term * path_function(tsg, params, path, H)
        acc = acc + (term if system.sign > 0 else -term)
    return acc


def det_trek_expansion(tsg: TimeSeriesGraph, params: SvarParams, X, Y,
                       H: RatMatrix | None = None, S_I: RatMatrix | None = None) -> RatFn:
    """Signed sum of trek-function products over trek systems without sided
    intersection."""
    graph = tsg.base
    graph.require_acyclic()
    if H is None:
        H = transfer_matrix(tsg, params)
    if S_I is None:
        S_I = internal_spectrum(tsg, params)
    acc = R_ZERO
    for system in sided_nonintersecting_trek_systems(graph, X, Y):
        term = R_ONE
        for trek in system.treks:
            term = term * trek_function(tsg, params, trek, H, S_I)
        acc = acc + (term if system.sign > 0 else -term)
    return acc
