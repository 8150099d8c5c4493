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
  when the support of H_OO is acyclic and otherwise solves against the
  identity (the library reads N off the adjugate of a polynomial matrix);
- `spectrum_trek` sums one RatFn trek term per trek;
- `path_function`, `trek_function`, `det_path_expansion` and
  `det_trek_expansion` give the Gessel-Viennot and trek-system determinant
  expansions (Sullivant, Talaska & Draisma 2010), over the systems that
  `graph_reference` enumerates.

The labelled-matrix algebra these oracles need (`identity`, `zeros`,
`transpose`, `conj`, `plus`, `minus`, `matmul` and `inverse`) is kept here,
entrywise over RatFn: the library multiplies and inverts no matrix over R(z).
`residue` and `image` evaluate a `RatFn` and a matrix at a point modulo
`MOD_PRIME` one `Fraction` coefficient at a time: the oracle for the
kernel's images (`svar._KnownDenominator.image`) and for `rank_mod`.
"""

from __future__ import annotations

from svarspec.graph import (Path, ProcessGraph, TimeSeriesGraph, Trek,
                            enumerate_treks)
from svarspec.ratfield import MOD_PRIME, P_ONE, Poly, R_ONE, R_ZERO, RatFn
from svarspec.ratlinalg import RatMatrix, solve_many
from svarspec.svar import SpectrumBundle, SvarParams, lag_poly

from graph_reference import (nonintersecting_path_systems,
                             sided_nonintersecting_trek_systems, validate_path)


def identity(labels) -> RatMatrix:
    labels = tuple(labels)
    return RatMatrix.diagonal(labels, [R_ONE] * len(labels))


def zeros(rows, cols) -> RatMatrix:
    return RatMatrix.build(rows, cols, lambda r, c: R_ZERO)


def transpose(M: RatMatrix) -> RatMatrix:
    return RatMatrix.build(M.col_labels, M.row_labels, lambda c, r: M.entry(r, c))


def conj(M: RatMatrix) -> RatMatrix:
    """Entrywise conjugation."""
    return RatMatrix.build(M.row_labels, M.col_labels, lambda r, c: M.entry(r, c).conj())


def plus(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    assert (A.row_labels, A.col_labels) == (B.row_labels, B.col_labels), "label mismatch"
    return RatMatrix.build(A.row_labels, A.col_labels, lambda r, c: A.entry(r, c) + B.entry(r, c))


def minus(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    assert (A.row_labels, A.col_labels) == (B.row_labels, B.col_labels), "label mismatch"
    return RatMatrix.build(A.row_labels, A.col_labels, lambda r, c: A.entry(r, c) - B.entry(r, c))


def matmul(A: RatMatrix, *rest: RatMatrix) -> RatMatrix:
    """The product A B C ..., left to right."""
    for B in rest:
        assert A.col_labels == B.row_labels, "inner labels do not match"
        A = RatMatrix.build(A.row_labels, B.col_labels, lambda r, c, A=A, B=B: sum(
            (A.entry(r, k) * B.entry(k, c) for k in A.col_labels), R_ZERO))
    return A


def inverse(M: RatMatrix) -> RatMatrix:
    """M^{-1}, a solve against the identity; SingularMatrixError when det M = 0."""
    return RatMatrix(M.col_labels, M.row_labels, solve_many(M, identity(M.row_labels).entries))


def unit_inverse(M: RatMatrix) -> RatMatrix:
    """(I - M)^{-1}.

    When the nonzero entries of M form no directed cycle, M is nilpotent and
    the inverse is the finite geometric sum I + M + M^2 + ...; otherwise the
    system is solved.
    """
    labels = M.row_labels
    support = [(a, b) for a, row in zip(labels, M.entries)
               for b, e in zip(M.col_labels, row) if not e.is_zero]
    eye = identity(labels)
    if any(a == b for a, b in support) or not ProcessGraph.make(labels, (), support).is_acyclic:
        return inverse(minus(eye, M))
    total = eye
    power = eye
    for _ in range(len(labels)):
        power = matmul(power, M)
        if power.is_zero:
            break
        total = plus(total, power)
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
        S_LI = plus(S_LI, matmul(transpose(H_LO), S_I.submatrix(latent, latent), conj(H_LO)))
    N = unit_inverse(H.submatrix(observed, observed))
    S = matmul(transpose(N), S_LI, conj(N))
    return SpectrumBundle(H=H, S_I=S_I, S_LI=S_LI, S=S)


def spectrum_trek(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    graph = tsg.base
    graph.require_acyclic("spectrum_trek")
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
    graph.require_acyclic("path enumeration")
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
    graph.require_acyclic("trek enumeration")
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


# -- evaluation modulo the prime ---------------------------------------------------------


def residue(r: RatFn, z: int) -> int:
    """r at z modulo P = MOD_PRIME: numerator and denominator by Horner's rule
    on their `Fraction` coefficients, each c taken as c.numerator /
    c.denominator modulo P.  ValueError when P divides a coefficient's
    denominator or the denominator's value."""
    P = MOD_PRIME

    def at(coeffs) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * z + c.numerator * pow(c.denominator, -1, P)) % P
        return acc

    return at(r.num.coeffs) * pow(at(r.den.coeffs), -1, P) % P


def image(M: RatMatrix, z: int) -> list[list[int]]:
    """`residue` of every entry, by row."""
    return [[residue(e, z) for e in row] for row in M.entries]
