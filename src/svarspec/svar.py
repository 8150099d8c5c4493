"""Frequency-domain parameterisation of SVAR processes over R(z).

Maps exact rational coefficients (per edge and lag, plus auto-lags and noise
variances) to the transfer matrix H, the internal spectrum, the projected
internal spectrum, and the full spectrum of the observed processes.  Also
provides the trek-rule and path/trek determinant expansions used as
cross-check oracles, a Schur-complement conditional spectrum, generic rank by
random rational sampling, and the stable-parameter sampler itself.

Index convention, used consistently everywhere: the spectrum entry S[v, w]
carries the *unconjugated* path products into its row label v and the
conjugated products into its column label w, i.e.
S = (I - H^T)^{-1} S_internal (I - conj(H))^{-1} with H[a, b] the link
function of edge a -> b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .graph import (Path, ProcessGraph, TimeSeriesGraph, Trek, enumerate_treks,
                    nonintersecting_path_systems,
                    sided_nonintersecting_trek_systems, t_separation_min)
from .ratfield import (EVAL_POINT, MOD_PRIME, P_ONE, Poly, R_ONE, R_ZERO, RatFn,
                       UnluckyReduction)
from .ratlinalg import (RatMatrix, inverse, matmul_mod, rank, rank_mod,
                        solve_many, solve_mod)

CrossKey = tuple[str, str, int]  # (tail, head, lag)
AutoKey = tuple[str, int]


class ParameterError(ValueError):
    """Coefficients do not fit the time series graph or violate stability."""


@dataclass(frozen=True)
class SvarParams:
    """Exact rational SVAR coefficients: cross lags, auto lags, noise variances."""

    cross: dict[CrossKey, Fraction]
    auto: dict[AutoKey, Fraction]
    noise: dict[str, Fraction]

    @staticmethod
    def make(cross, auto, noise) -> "SvarParams":
        return SvarParams(
            {(str(a), str(b), int(k)): Fraction(c) for (a, b, k), c in dict(cross).items()},
            {(str(v), int(k)): Fraction(c) for (v, k), c in dict(auto).items()},
            {str(v): Fraction(w) for v, w in dict(noise).items()},
        )

    def validate(self, tsg: TimeSeriesGraph) -> None:
        """Check key structure and the stability inequalities; raises ParameterError."""
        expected_cross = {(a, b, k) for (a, b), lags in tsg.cross_lags.items() for k in lags}
        if set(self.cross) != expected_cross:
            missing = expected_cross - set(self.cross)
            extra = set(self.cross) - expected_cross
            raise ParameterError(
                f"cross coefficients do not match lag structure "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        expected_auto = {(v, k) for v, lags in tsg.auto_lags.items() for k in lags}
        if set(self.auto) != expected_auto:
            missing = expected_auto - set(self.auto)
            extra = set(self.auto) - expected_auto
            raise ParameterError(
                f"auto coefficients do not match lag structure "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        vertices = set(tsg.base.vertices)
        if set(self.noise) != vertices:
            raise ParameterError("noise variances must cover every vertex exactly once")
        for v, w in self.noise.items():
            if w <= 0:
                raise ParameterError(f"noise variance at {v!r} must be positive, got {w}")
        for v in vertices:
            total = sum(abs(c) for (u, k), c in self.auto.items() if u == v)
            if total >= 1:
                raise ParameterError(
                    f"auto-coefficient stability violated at {v!r}: sum of |phi| = {total} >= 1"
                )
        if tsg.base.observed_subgraph_cyclic():
            observed = set(tsg.base.observed)
            total = sum(
                abs(c) for (a, b, k), c in self.cross.items()
                if a in observed and b in observed
            )
            if total >= 1:
                raise ParameterError(
                    "observed process graph is cyclic and the joint cross-coefficient "
                    f"stability bound fails: sum of |phi| = {total} >= 1"
                )


@dataclass(frozen=True)
class SpectrumBundle:
    """Transfer matrix and the spectra derived from it.

    H is over all vertices; the internal spectrum is diagonal over all
    vertices; the projected internal spectrum and full spectrum are over the
    observed vertices.
    """

    H: RatMatrix
    S_I: RatMatrix
    S_LI: RatMatrix
    S: RatMatrix


def lag_poly(tsg: TimeSeriesGraph, params: SvarParams, x: str, y: str) -> Poly:
    """The generating polynomial of x's coefficients onto y across lags."""
    if x == y:
        lags = tsg.auto_lags_of(x)
        coeffs = {k: params.auto.get((x, k), Fraction(0)) for k in lags}
    else:
        if (x, y) not in tsg.cross_lags:
            raise KeyError(f"no edge ({x!r}, {y!r}) in the time series graph")
        lags = tsg.cross_lags[(x, y)]
        coeffs = {k: params.cross.get((x, y, k), Fraction(0)) for k in lags}
    if not lags:
        return Poly()
    out = [Fraction(0)] * (max(lags) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return Poly(out)


def _auto_denominator(tsg: TimeSeriesGraph, params: SvarParams, v: str) -> Poly:
    return Poly((1,)) - lag_poly(tsg, params, v, v)


def link_function(tsg: TimeSeriesGraph, params: SvarParams, x: str, y: str) -> RatFn:
    """Rational causal effect along the edge x -> y."""
    return RatFn(lag_poly(tsg, params, x, y), _auto_denominator(tsg, params, y))


def transfer_matrix(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    """H over all vertices, zero off the edge set."""
    edges = set(tsg.base.edges)
    labels = tsg.base.vertices

    def fn(a: str, b: str) -> RatFn:
        if (a, b) in edges:
            return link_function(tsg, params, a, b)
        return R_ZERO

    return RatMatrix.build(labels, labels, fn)


def internal_spectrum(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    """Diagonal spectrum of each vertex's internal dynamics."""
    labels = tsg.base.vertices
    values = []
    for v in labels:
        r = RatFn(P_ONE, _auto_denominator(tsg, params, v))
        values.append(RatFn(Poly((params.noise[v],))) * r * r.conj())
    return RatMatrix.diagonal(labels, values)


def projected_internal_spectrum(tsg: TimeSeriesGraph, params: SvarParams,
                                H: RatMatrix | None = None,
                                S_I: RatMatrix | None = None) -> RatMatrix:
    """Internal spectrum of the observed block plus all latent-parent contributions."""
    if H is None:
        H = transfer_matrix(tsg, params)
    if S_I is None:
        S_I = internal_spectrum(tsg, params)
    observed = tsg.base.observed
    latent = tsg.base.latent
    out = S_I.submatrix(observed, observed)
    if latent:
        H_LO = H.submatrix(latent, observed)
        out = out + H_LO.transpose() @ S_I.submatrix(latent, latent) @ H_LO.conj()
    return out


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


def spectrum(tsg: TimeSeriesGraph, params: SvarParams) -> SpectrumBundle:
    """Full bundle (H, internal, projected internal, observed spectrum)."""
    H = transfer_matrix(tsg, params)
    S_I = internal_spectrum(tsg, params)
    S_LI = projected_internal_spectrum(tsg, params, H, S_I)
    observed = tsg.base.observed
    N = unit_inverse(H.submatrix(observed, observed))
    S = N.transpose() @ S_LI @ N.conj()
    return SpectrumBundle(H=H, S_I=S_I, S_LI=S_LI, S=S)


def path_function(tsg: TimeSeriesGraph, params: SvarParams, path: Path,
                  H: RatMatrix | None = None) -> RatFn:
    """Product of the link functions along a path; the empty path gives 1."""
    path.validate(tsg.base)
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


def spectrum_trek(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    """Observed spectrum assembled entrywise from trek functions."""
    graph = tsg.base
    graph.require_acyclic()
    H = transfer_matrix(tsg, params)
    S_I = internal_spectrum(tsg, params)
    observed = graph.observed
    # the same side paths recur across entries; cache their products
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

    return RatMatrix.build(observed, observed, fn)


def conditional_spectrum(S: RatMatrix, X, Y, Z) -> RatMatrix:
    """Schur complement S[X,Y] - S[X,Z] S[Z,Z]^{-1} S[Z,Y]."""
    X = sorted(X) if isinstance(X, (set, frozenset)) else list(X)
    Y = sorted(Y) if isinstance(Y, (set, frozenset)) else list(Y)
    Z = tuple(sorted(Z))
    if set(X) & set(Y) or set(X) & set(Z) or set(Y) & set(Z):
        raise ValueError("X, Y, Z must be pairwise disjoint")
    S_XY = S.submatrix(X, Y)
    if not Z:
        return S_XY
    S_ZZ = S.submatrix(Z, Z)
    S_ZY = S.submatrix(Z, Y)
    W_rows = solve_many(S_ZZ, S_ZY.entries)  # raises SingularMatrixError
    W = RatMatrix(Z, Y, W_rows)
    return S_XY - S.submatrix(X, Z) @ W


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


def spectrum_mod(tsg: TimeSeriesGraph, params: SvarParams) -> list[list[int]] | None:
    """The image of the observed spectrum S at EVAL_POINT modulo MOD_PRIME.

    Rows and columns follow tsg.base.observed.  Nothing is multiplied over
    R(z): H and S_I are evaluated at z0 and at 1/z0, since conj is evaluation
    at 1/z (`RatFn.eval_mod`), and S(z0) = N^T S_LI conj(N) with
    N = (I - H_OO)^{-1} and S_LI = S_I[O, O] + H_LO^T S_I[L, L] conj(H_LO) is
    formed in GF(P).  The result equals `spectrum(tsg, params).S.eval_mod`
    at z0.  Returns None when an entry of H or S_I has no image at z0 or
    1/z0, or when I - H_OO is singular there.
    """
    z0 = EVAL_POINT
    H = transfer_matrix(tsg, params)
    try:
        Hz, Hw = H.eval_mod(z0), H.eval_mod(pow(z0, -1, MOD_PRIME))
        Iz = internal_spectrum(tsg, params).eval_mod(z0)
    except UnluckyReduction:
        return None
    index = {v: i for i, v in enumerate(H.row_labels)}
    obs = [index[v] for v in tsg.base.observed]
    lat = [index[v] for v in tsg.base.latent]
    S_LI = [[(Iz[a][b] + sum(Hz[l][a] * Iz[l][l] * Hw[l][b] for l in lat)) % MOD_PRIME
             for b in obs] for a in obs]
    eye = [[int(i == j) for j in range(len(obs))] for i in range(len(obs))]
    N, Nw = (solve_mod([[(int(a == b) - M[a][b]) % MOD_PRIME for b in obs] for a in obs], eye)
             for M in (Hz, Hw))
    if N is None or Nw is None:
        return None
    return matmul_mod(matmul_mod(list(zip(*N)), S_LI), Nw)


def generic_rank(tsg: TimeSeriesGraph, X, Y, trials: int = 3, seed: int = 0) -> int:
    """Rank of the observed subspectrum under random stable rational parameters.

    Takes the maximum over up to `trials` independent draws, and stops at the
    first draw that reaches a bound no draw can exceed: the minimal
    t-separation size on an acyclic graph (Sullivant, Talaska & Draisma 2010),
    min(|X|, |Y|) on a cyclic one.  Exact except on a measure-zero sampling
    event per draw.

    Each draw first takes the rank of `spectrum_mod`'s S[X, Y] over GF(P), a
    lower bound on its rank over R(z).  When it meets the bound, the draw's
    rank is proved equal to the bound without building a spectrum; otherwise
    the draw computes the exact spectrum and its Bareiss rank.
    """
    X = tuple(sorted(X))
    Y = tuple(sorted(Y))
    unknown = sorted(set(X + Y) - set(tsg.base.observed))
    if unknown:
        raise KeyError(f"unknown observed label {unknown[0]!r}")
    if tsg.base.is_acyclic:
        bound = t_separation_min(tsg.base, X, Y)[0]
    else:
        bound = min(len(X), len(Y))
    observed = {v: i for i, v in enumerate(tsg.base.observed)}
    best = 0
    for t in range(trials):
        if best == bound:
            break
        params = sample_stable_params(tsg, seed=seed * 1_000_003 + t)
        image = spectrum_mod(tsg, params)
        if image is not None and rank_mod(
                [[image[observed[x]][observed[y]] for y in Y] for x in X]) == bound:
            return bound
        S = spectrum(tsg, params).S
        best = max(best, rank(S.submatrix(X, Y)))
    return best


# -- sampling --------------------------------------------------------------------------

#: Stability inequalities are enforced with this strict margin during sampling.
STABILITY_MARGIN = Fraction(1, 10)


def _random_fraction(rng: random.Random, bound: Fraction) -> Fraction:
    sign = rng.choice((-1, 1))
    value = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    if value > 1:
        value = 1 / value  # keep magnitudes below one before the stability rescale
    return sign * value * bound


def sample_stable_params(tsg: TimeSeriesGraph, seed: int,
                         magnitude_bound: Fraction = Fraction(1)) -> SvarParams:
    """Deterministic-per-seed rational coefficients meeting stability strictly.

    Coefficients come from a finite set of rationals with small numerator and
    denominator; auto (and, for a cyclic observed subgraph, cross) blocks are
    rescaled so the stability sums stay at most 1 - margin.
    """
    # string seeding hashes with sha512, so draws are stable across processes
    rng = random.Random(f"svar-params:{seed}")
    bound = Fraction(magnitude_bound)
    cross = {
        (a, b, k): _random_fraction(rng, bound)
        for (a, b) in sorted(tsg.cross_lags)
        for k in tsg.cross_lags[(a, b)]
    }
    auto = {
        (v, k): _random_fraction(rng, bound)
        for v in sorted(tsg.auto_lags)
        for k in tsg.auto_lags[v]
    }
    limit = 1 - STABILITY_MARGIN
    for v in sorted(tsg.auto_lags):
        total = sum(abs(c) for (u, k), c in auto.items() if u == v)
        if total > limit:
            scale = limit / total
            for k in tsg.auto_lags[v]:
                auto[(v, k)] *= scale
    if tsg.base.observed_subgraph_cyclic():
        observed = set(tsg.base.observed)
        keys = [key for key in cross if key[0] in observed and key[1] in observed]
        total = sum(abs(cross[key]) for key in keys)
        if total > limit:
            scale = limit / total
            for key in keys:
                cross[key] *= scale
    noise = {
        v: Fraction(rng.randint(1, 12), rng.randint(1, 6))
        for v in tsg.base.vertices
    }
    params = SvarParams(cross=cross, auto=auto, noise=noise)
    params.validate(tsg)
    return params
