"""Frequency-domain parameterisation of SVAR processes over R(z).

Maps exact rational coefficients (per edge and lag, plus auto-lags and noise
variances) to the observed spectral density S (`spectral_density`, which
builds S alone) or to the whole bundle of H, the internal spectrum S_I, the
projected internal spectrum S_LI and S (`spectrum`).  Also provides the
trek-rule spectrum used as a cross-check, a Schur-complement conditional
spectrum, generic rank by random rational sampling, and the stable-parameter
sampler itself.

Index convention, used consistently everywhere: the spectrum entry S[v, w]
carries the *unconjugated* path products into its row label v and the
conjugated products into its column label w, i.e.
S = (I - H^T)^{-1} S_internal (I - conj(H))^{-1} with H[a, b] the link
function of edge a -> b.

The known denominator.  Let D_v = 1 - A_v(z) be the auto-lag denominator of
v, so H[a, b] = L_ab / D_b and S_I[t, t] = sigma_t / (D_t(z) D_t(1/z)).
`_trek_parts` alone turns parameters into polynomials: each link and each
S_I[t, t] as a value over these factors.  By the trek rule (Sullivant,
Talaska & Draisma 2010), on an acyclic graph S[v, w] is a sum of one term per
trek, and a trek's sides are directed paths, so each term has each D_u at
most once on the left and each D_u(1/z) = D_u*(z) z^-deg at most once on the
right, where D_u* is the reversal `Poly.conj`.  So prod_u D_u(z) D_u(1/z)
clears every entry: H, S_I, S_LI, S and `spectrum_trek` are read off these
values with `Poly` products and sums only (`_KnownDenominator`), each entry
reduced once.  `_KnownDenominator.image` is the one map of these values to
GF(P): `generic_rank` and `identify.spectral_ci_oracle` take the rank of a
block's image before they reduce any of its entries.  S_LI and S are one Gram
form over any rows and columns, M[v, w] = sum_t into[v][t] S_I[t, t]
conj(into[w][t]), where into[v][t] sums the link products of the directed
paths t .. v (for S_LI, v itself and the edges from its latent parents).

What can cancel.  Under the stability bound sum_k |phi_k| < 1, D_v has no
root in the closed unit disk (there |A_v(z)| < 1), so every root of D_w*, the
reciprocal of a root of D_w, lies inside the open disk and D_v, D_w* never
share a root: a factor of the numerator cancels only against left factors
jointly or right factors jointly, as when two vertices share one auto-lag
polynomial.  The reduction divides out each whole factor that divides the
numerator.  A linear factor is tried only when the numerator vanishes modulo
P at the image of its root, which a factor that divides must do, so almost
no trial division fails.  When every factor left is linear, the pair is then
coprime (both proofs are in `_KnownDenominator.ratfn`) and takes no gcd;
otherwise the final `RatFn` gcd removes the rest.  That proof and that gcd,
not the stability argument, guarantee the canonical form, so the bytes of
every spectrum are those of the unique reduced fraction, stable or not.

A cyclic observed part has no finite trek expansion; `_cyclic_density` reads
(I - H_OO)^{-1} off the adjugate of a polynomial matrix whose determinant joins
the kernel, so S is again one Gram form and no matrix is inverted over R(z).
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

from .graph import (Path, ProcessGraph, TimeSeriesGraph, Trek, enumerate_treks,
                    t_separation_min)
from .ratfield import (EVAL_POINT, MOD_PRIME, P_ONE, P_ZERO, Poly, R_ZERO, RatFn,
                       _from_ratios, _horner_mod, _new)
from .ratlinalg import RatMatrix, adjugate, rank, rank_mod, solve_many

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
        for kind, got, expected in (
                ("cross", set(self.cross),
                 {(a, b, k) for (a, b), lags in tsg.cross_lags.items() for k in lags}),
                ("auto", set(self.auto),
                 {(v, k) for v, lags in tsg.auto_lags.items() for k in lags})):
            if got != expected:
                raise ParameterError(
                    f"{kind} coefficients do not match lag structure "
                    f"(missing {sorted(expected - got)}, extra {sorted(got - expected)})"
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
        # latent vertices have in-degree 0, so every directed cycle is observed
        if not tsg.base.is_acyclic:
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
        coeffs = {k: params.auto.get((x, k), 0) for k in tsg.auto_lags_of(x)}
    elif (x, y) in tsg.cross_lags:
        coeffs = {k: params.cross.get((x, y, k), 0) for k in tsg.cross_lags[(x, y)]}
    else:
        raise KeyError(f"no edge ({x!r}, {y!r}) in the time series graph")
    ratios = [(0, 1)] * (max(coeffs, default=-1) + 1)
    for k, c in coeffs.items():
        ratios[k] = (c.numerator, c.denominator)
    return _new(*_from_ratios(ratios))


def transfer_matrix(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    """H over all vertices, zero off the edge set."""
    kd, _, links = _trek_parts(tsg, params)
    return _transfer(tsg.base, kd, links)


# -- the known-denominator kernel --------------------------------------------------------

#: A kernel value (num, left, right, shift): see `_KnownDenominator`.
_Value = tuple[Poly, int, int, int]

_ZERO: _Value = (P_ZERO, 0, 0, 0)
_ONE: _Value = (P_ONE, 0, 0, 0)


class _KnownDenominator:
    """Trek sums over the known denominator prod_v D_v(z) D_v(1/z), with no gcd.

    A value (num, left, right, shift) stands for

        num * z**shift / (prod_{i in left} D_i * prod_{i in right} D_i*),

    where bit i of a mask names D_i = `left[i]`, a nontrivial auto-lag
    denominator or the determinant factor of `_cyclic_density`, and D_i* =
    `right[i]` is its reversal (`Poly.conj`).  Since D_i(0) != 0, D_i(1/z) =
    D_i*(z) z**-deg D_i, so conj(1 / D_i) is z**deg D_i / D_i*.  A product ORs
    the masks, and its factors must not share a bit on either side; a sum
    lifts each term by the factors it lacks.  Both take `Poly` products and
    sums only.  `ratfn` reaches the canonical form.  `_nonlinear` has bit i
    set when D_i has degree 2 or more, and `_roots` holds, per side, the
    image in GF(P) of each linear factor's root (see `_root_mod`).  `image`
    maps a value to GF(P).
    """

    __slots__ = ("left", "right", "_nonlinear", "_roots", "_lifts", "_inverses")

    def __init__(self, factors: list[Poly]):
        self.left = factors
        self.right = [f.conj() for f in factors]
        self._nonlinear = sum(1 << i for i, f in enumerate(factors) if f.degree > 1)
        self._roots = ([_root_mod(f) for f in self.left], [_root_mod(f) for f in self.right])
        self._lifts: dict[tuple[int, int], Poly] = {(0, 0): P_ONE}
        self._inverses: list[tuple[int, int]] | None = None

    def lift(self, left: int, right: int) -> Poly:
        """prod_{i in left} D_i * prod_{i in right} D_i*, built once per pair of masks."""
        out = self._lifts.get((left, right))
        if out is None:
            if left:
                low = left & -left
                out = self.lift(left ^ low, right) * self.left[low.bit_length() - 1]
            else:
                low = right & -right
                out = self.lift(0, right ^ low) * self.right[low.bit_length() - 1]
            self._lifts[(left, right)] = out
        return out

    @staticmethod
    def mul(a: _Value, b: _Value) -> _Value:
        if not (a[0] and b[0]):
            return _ZERO
        if a is _ONE or b is _ONE:  # the value of the empty path
            return b if a is _ONE else a
        assert not (a[1] & b[1] or a[2] & b[2]), "a factor repeats on one side"
        return a[0] * b[0], a[1] | b[1], a[2] | b[2], a[3] + b[3]

    def total(self, values) -> _Value:
        """The sum of the values, over the union of their masks."""
        values = [v for v in values if v[0]]
        if len(values) < 2:
            return values[0] if values else _ZERO
        left = right = 0
        for _, l, r, _ in values:
            left |= l
            right |= r
        shift = min(v[3] for v in values)
        acc = P_ZERO
        for num, l, r, s in values:
            if l != left or r != right:
                num = num * self.lift(left ^ l, right ^ r)
            acc = acc + num.shift(s - shift)
        return acc, left, right, shift

    def conj(self, a: _Value) -> _Value:
        """The value at 1/z: num(1/z) = num* z**-deg num, and the masks swap sides."""
        num, left, right, shift = a
        if not num or a is _ONE:  # zero and one are their own conjugates
            return a
        return num.conj(), right, left, self.lift(left, right).degree - num.degree - shift

    def ratfn(self, a: _Value) -> RatFn:
        """The canonical form.  Each D_i or D_i* that divides the numerator is
        divided out, and so is the power of z it shares with the denominator.
        A `RatFn` gcd then removes whatever common factor is left, unless every
        factor left is linear: then the pair is already coprime, stable or not.

        Root test.  A linear factor f with a root image r (`_root_mod`) is
        tried only when num.p(r) = 0 modulo P: if f divides num over Q, Gauss's
        lemma gives f.p q = num.p with q in Z[z], so num.p(r) = f.p(r) q(r) = 0
        modulo P, and a nonzero image proves that f does not divide num.  A
        factor without an image (P divides its leading coefficient) and a
        factor of degree 2 or more take the trial division.

        Proof of coprimality.  Each D_i or D_i* left in the masks does not
        divide a numerator N, and the final numerator divides N z**k for some
        k >= 0.  A linear polynomial is irreducible, and neither factor carries
        z: D_i(0) != 0 and D_i*(0) = lc(D_i) != 0.  So a factor left divides
        neither N z**k nor the final numerator.  After the shift step z divides
        at most one side: when a power of z is left in the denominator, the
        numerator no longer vanishes at 0.  So numerator and denominator share
        no irreducible factor.
        """
        num, left, right, shift = a
        if not num:
            return R_ZERO
        masks = [left, right]
        for side, (factors, roots) in enumerate(zip((self.left, self.right), self._roots)):
            rest = masks[side]
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                if roots[i] is not None and _horner_mod(num.p, roots[i]):
                    continue
                try:
                    num = num.divexact(factors[i])
                except ArithmeticError:
                    continue
                masks[side] ^= low
        den = self.lift(*masks)
        if shift < 0:
            zeros = min(next(i for i, c in enumerate(num.p) if c), -shift)
            if zeros:  # num / z**zeros: dropping zero coefficients keeps p primitive
                num = _new(num.n, num.d, num.p[zeros:])
                shift += zeros
        if shift > 0:
            num = num.shift(shift)
        elif shift < 0:
            den = den.shift(-shift)
        if (masks[0] | masks[1]) & self._nonlinear:
            return RatFn(num, den)
        out = object.__new__(RatFn)
        out._set_coprime(num, den)
        return out

    def image(self, a: _Value) -> int:
        """The value at z0 = EVAL_POINT modulo P = MOD_PRIME: num(z0) z0**shift
        times the inverse images of its factors, each D_i and D_i* inverted
        once per kernel, with no `RatFn` built.  ValueError when P divides a
        content denominator or the image of a factor, or z0 = 0 meets a
        negative shift.  This is the one map from spectrum values to GF(P).

        Proof that it is a ring homomorphism.  Let R be the functions that can
        be written F/G with F, G in Z[z] and P not dividing G(z0).  R is a
        subring of Q(z) (the localisation of Z[z] at the maximal ideal
        (P, z - z0)), and F/G -> F(z0) / G(z0) mod P is well defined on it,
        since F G' = F' G gives F(z0) G'(z0) = F'(z0) G(z0) mod P with G(z0),
        G'(z0) units; it is a ring homomorphism R -> GF(P).  A value with an
        image lies in R: times its content denominators it is F/G with F, G in
        Z[z] and G(z0) a product of the units inverted here, and the image is
        F(z0) / G(z0).  So the image depends only on the function a value
        stands for, and `mul` and `total` map to products and sums of images;
        the image of `ratfn(a)`'s value is that of a.  conj(a) maps to the value
        of a's function at 1/z0: a(1/z) = (z**k F(1/z)) / (z**k G(1/z)), with
        integer polynomials for k at least both degrees.

        Consequences.  A nonzero image proves a nonzero function.  A minor is
        a polynomial in the entries, so a matrix over R whose image has rank r
        has a nonzero r x r minor over Q(z): the rank modulo P is a lower bound
        on the rank over R(z), and a deficient image proves nothing."""
        P, z0 = MOD_PRIME, EVAL_POINT
        if self._inverses is None:
            self._inverses = [(pow(_poly_mod(d, z0), -1, P), pow(_poly_mod(d_star, z0), -1, P))
                              for d, d_star in zip(self.left, self.right)]
        num, left, right, shift = a
        out = _poly_mod(num, z0) * pow(z0, shift, P) % P
        for i, (d, d_star) in enumerate(self._inverses):
            out = out * (d if left >> i & 1 else 1) * (d_star if right >> i & 1 else 1) % P
        return out

    def hermitian(self, labels, entry) -> RatMatrix:
        """The matrix with ratfn(entry(v, w)) on and above the diagonal, and
        below it the conjugate of the entry mirrored above."""
        n = len(labels)
        rows: list[list[RatFn]] = [[R_ZERO] * n for _ in range(n)]
        for i, v in enumerate(labels):
            for j in range(i, n):
                rows[i][j] = self.ratfn(entry(v, labels[j]))
                if j > i:
                    rows[j][i] = rows[i][j].conj()
        return RatMatrix(labels, labels, rows)


def _poly_mod(f: Poly, z: int) -> int:
    """f(z) modulo MOD_PRIME; ValueError when P divides f's content denominator."""
    return f.n * _horner_mod(f.p, z) * pow(f.d, -1, MOD_PRIME) % MOD_PRIME


def _root_mod(f: Poly) -> int | None:
    """The root -p0/p1 of a linear f = n/d (p0 + p1 z) modulo P, or None when
    f is not linear or P divides its leading coefficient p1."""
    if len(f.p) != 2 or not f.p[1] % MOD_PRIME:
        return None
    return -f.p[0] * pow(f.p[1], -1, MOD_PRIME) % MOD_PRIME


def _trek_parts(tsg: TimeSeriesGraph, params: SvarParams):
    """The kernel, each vertex's internal spectrum S_I[v, v] and each edge's link
    function, the last two as kernel values."""
    factors: list[Poly] = []
    tops: dict[str, _Value] = {}
    bits: dict[str, int] = {}
    for v in tsg.base.vertices:
        d = P_ONE - lag_poly(tsg, params, v, v)
        bit = 0
        if d.degree > 0:
            bit = 1 << len(factors)
            factors.append(d)
        bits[v] = bit
        # sigma_v / (D_v(z) D_v(1/z)) = sigma_v z**deg D_v / (D_v D_v*)
        sigma = params.noise[v]
        num = _new(sigma.numerator, sigma.denominator, (1,)) if sigma else P_ZERO
        tops[v] = (num, bit, bit, d.degree)
    links = {(a, b): (lag_poly(tsg, params, a, b), bits[b], 0, 0) for a, b in tsg.base.edges}
    return _KnownDenominator(factors), tops, links


def _transfer(graph: ProcessGraph, kd: _KnownDenominator, links) -> RatMatrix:
    """H[a, b] = L_ab / D_b on each edge a -> b, zero elsewhere."""
    return RatMatrix.build(graph.vertices, graph.vertices,
                           lambda a, b: kd.ratfn(links[(a, b)]) if (a, b) in links else R_ZERO)


def _internal(graph: ProcessGraph, kd: _KnownDenominator, tops) -> RatMatrix:
    return RatMatrix.diagonal(graph.vertices, [kd.ratfn(tops[v]) for v in graph.vertices])


def _projected(graph: ProcessGraph, kd: _KnownDenominator, tops, links) -> RatMatrix:
    """S_LI[a, b] = [a = b] S_I[a, a] + sum over latent l of H[l, a] S_I[l, l] conj(H[l, b])."""
    obs = graph.observed
    into = {a: {a: _ONE, **{l: links[(l, a)] for l in graph.pa_latent(a)}} for a in obs}
    return kd.hermitian(obs, _gram(kd, obs, obs, into, tops)[1])


def _gram(kd: _KnownDenominator, rows, cols, into, tops):
    """(kd, entry) with entry(v, w) = sum_t into[v][t] S_I[t, t] conj(into[w][t])
    as a kernel value, for v in rows and w in cols."""
    left = {v: {t: kd.mul(value, tops[t]) for t, value in into[v].items()} for v in rows}
    right = {w: {t: kd.conj(value) for t, value in into[w].items()} for w in cols}

    def entry(v: str, w: str) -> _Value:
        return kd.total(kd.mul(value, right[w][t]) for t, value in left[v].items() if t in right[w])

    return kd, entry


def _density(graph: ProcessGraph, kd: _KnownDenominator, tops, links, rows, cols):
    """(kd, entry) for the block S[rows, cols] (`_gram`), with into[v][t] by
    dynamic programming over parents in topological order; a graph with a
    cycle takes `_cyclic_density`, whose kernel gains a factor."""
    if not graph.is_acyclic:
        return _cyclic_density(graph, kd, tops, links, rows, cols)
    into: dict[str, dict[str, _Value]] = {}
    for v in graph.topological_order():
        terms: dict[str, list[_Value]] = {v: [_ONE]}
        for p in graph.parents(v):
            link = links[(p, v)]
            if link[0]:
                for t, value in into[p].items():
                    terms.setdefault(t, []).append(kd.mul(value, link))
        sums = ((t, kd.total(ts)) for t, ts in terms.items())
        into[v] = {t: value for t, value in sums if value[0]}
    return _gram(kd, rows, cols, into, tops)


def _cyclic_density(graph: ProcessGraph, kd: _KnownDenominator, tops, links, rows, cols):
    """S = N^T S_LI conj(N) with N = (I - H_OO)^{-1}, as one Gram form.

    I - H_OO = M diag(D)^{-1} for the polynomial matrix M[a, b] = [a = b] D_b -
    L_ab, so N = diag(D) X / d for (X, d) = `adjugate(M)`.  So into[v][a] =
    D_a X[a][v] / d for an observed a, and into[v][l] = sum_a X[a][v] L_la / d
    for a latent l: N's D_a cancels that of each link L_la / D_a exactly.
    Each D_a that divides d leaves d and into[v][a] and keeps its own bit: det
    M is the product of the determinants of M's diagonal blocks over its strong
    components, so the D_a of each vertex off the cycles divides d.

    The rest, c z**k d' with d'(0) != 0, joins the kernel as d', one more
    factor bit (d' on the left, d'* on the right); z**-k goes into the shift
    and c into the content, so every factor keeps a nonzero constant term.
    Validated parameters give k = 0: d(0) = +-det(I - B_0), B_0[a, b] the
    lag-0 coefficient of a -> b, since D_b(0) = 1.  On a cyclic graph
    `validate` bounds the absolute observed cross coefficients by a sum below
    1, so B_0's max-row-sum norm, and with it its spectral radius, is below 1.
    """
    obs = graph.observed
    D = {a: kd.lift(tops[a][1], 0) for a in obs}
    M = [[(D[b] if a == b else P_ZERO) - links.get((a, b), _ZERO)[0] for b in obs] for a in obs]
    X, d = adjugate(M)
    known = 0  # the mask of 1/d: each D_a divided out of d, then d'
    for a in obs:
        with suppress(ArithmeticError):  # D_a does not divide d
            d, known = d.divexact(D[a]), known | tops[a][1]
    low = next(i for i, c in enumerate(d.p) if c)
    core = _new(d.n, d.d, d.p[low:])  # dropping zero coefficients keeps p primitive
    if core.degree:  # else the constant core goes into the content
        kd = _KnownDenominator(kd.left + [core])
        known, core = known | 1 << len(kd.left) - 1, P_ONE
    into: dict[str, dict[str, _Value]] = {}
    for j, v in enumerate(obs):
        sums: dict[str, list] = {}  # t: [numerator, mask]
        for i, a in enumerate(obs):
            x = X[i][j]
            if x:
                bit = tops[a][1]
                sums[a] = [x if bit & known else D[a] * x, known & ~bit]
                for l in graph.pa_latent(a):
                    sums.setdefault(l, [P_ZERO, known])[0] += x * links[(l, a)][0]
        into[v] = {t: (num.divexact(core), mask, 0, -low)
                   for t, (num, mask) in sums.items() if num}
    return _gram(kd, rows, cols, into, tops)


def spectral_density(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    """The observed spectrum S alone, with no H, S_I or S_LI."""
    obs = tsg.base.observed
    kd, entry = _density(tsg.base, *_trek_parts(tsg, params), obs, obs)
    return kd.hermitian(obs, entry)


def spectrum(tsg: TimeSeriesGraph, params: SvarParams) -> SpectrumBundle:
    """The bundle (H, S_I, S_LI, S), each matrix built once from one `_trek_parts`."""
    graph, obs = tsg.base, tsg.base.observed
    kd, tops, links = _trek_parts(tsg, params)
    S_kd, entry = _density(graph, kd, tops, links, obs, obs)
    return SpectrumBundle(H=_transfer(graph, kd, links), S_I=_internal(graph, kd, tops),
                          S_LI=_projected(graph, kd, tops, links), S=S_kd.hermitian(obs, entry))


def spectrum_trek(tsg: TimeSeriesGraph, params: SvarParams) -> RatMatrix:
    """Observed spectrum assembled entrywise from trek terms, one per trek.

    The term of a trek is its left side's link product, times S_I at its top,
    times the conjugate of its right side's link product.  Each entry on and
    above the diagonal sums its terms in the known-denominator kernel and is
    reduced once; an entry below it is the conjugate of its mirror, since
    swapping the sides of every trek from v to w gives the treks from w to v
    and conjugates each term.
    """
    graph = tsg.base
    graph.require_acyclic("spectrum_trek")
    kd, tops, links = _trek_parts(tsg, params)
    # the same side paths recur across entries; cache their values
    lefts: dict[tuple[str, ...], _Value] = {}
    rights: dict[tuple[str, ...], _Value] = {}

    def side(path: Path) -> _Value:
        out = _ONE
        for e in path.edges:
            out = kd.mul(out, links[e])
        return out

    def term(trek: Trek) -> _Value:
        left, right = trek.left.vertices, trek.right.vertices
        if left not in lefts:
            lefts[left] = kd.mul(side(trek.left), tops[trek.top])
        if right not in rights:
            rights[right] = kd.conj(side(trek.right))
        return kd.mul(lefts[left], rights[right])

    def entry(v: str, w: str) -> _Value:
        return kd.total(term(trek) for trek in enumerate_treks(graph, v, w))

    return kd.hermitian(graph.observed, entry)


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
    W = solve_many(S.submatrix(Z, Z), S.submatrix(Z, Y).entries)  # raises SingularMatrixError
    return RatMatrix(X, Y, [[e - sum((a * w[j] for a, w in zip(s_xz, W)), R_ZERO)
                             for j, e in enumerate(s_xy)]
                            for s_xy, s_xz in zip(S_XY.entries, S.submatrix(X, Z).entries)])


def generic_rank(tsg: TimeSeriesGraph, X, Y, trials: int = 3, seed: int = 0) -> int:
    """Rank of the observed subspectrum under random stable rational parameters.

    Takes the maximum over up to `trials` independent draws, and stops at the
    first draw that reaches a bound no draw can exceed: the minimal
    t-separation size on an acyclic graph (Sullivant, Talaska & Draisma 2010),
    min(|X|, |Y|) on a cyclic one.  It never exceeds the generic rank, and
    falls short of it with a bounded, nonzero probability, not probability
    zero: `_random_fraction` draws from 92 values before the stability rescale.

    Each draw reads the block S[X, Y] off the spectrum kernel as values over
    its known denominator (`_density`), and first takes the rank of their
    images in GF(P) (`_KnownDenominator.image`), a lower bound on the block's
    rank over R(z).  When it meets the bound, the draw's rank is proved equal
    to the bound with no `RatFn` built; otherwise the same values are reduced
    to canonical form and the draw takes their Bareiss rank.
    """
    X = tuple(sorted(X))
    Y = tuple(sorted(Y))
    graph = tsg.base
    unknown = sorted(set(X + Y) - set(graph.observed))
    if unknown:
        raise KeyError(f"unknown observed label {unknown[0]!r}")
    if graph.is_acyclic:
        bound = t_separation_min(graph, X, Y)[0]
    else:
        bound = min(len(X), len(Y))
    best = 0
    for t in range(trials):
        if best == bound:
            break
        params = sample_stable_params(tsg, seed=seed * 1_000_003 + t)
        kd, entry = _density(graph, *_trek_parts(tsg, params), X, Y)
        block = [[entry(x, y) for y in Y] for x in X]
        with suppress(ValueError):  # a factor or a content denominator vanishes modulo P
            if rank_mod([[kd.image(a) for a in row] for row in block]) == bound:
                return bound
        best = max(best, rank(RatMatrix(X, Y, [[kd.ratfn(a) for a in row] for row in block])))
    return best


# -- sampling --------------------------------------------------------------------------

#: Stability inequalities are enforced with this strict margin during sampling.
STABILITY_MARGIN = Fraction(1, 10)


def _random_fraction(rng: random.Random) -> Fraction:
    sign = rng.choice((-1, 1))
    value = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    return sign * min(value, 1 / value)  # magnitudes at most one before the stability rescale


def sample_stable_params(tsg: TimeSeriesGraph, seed: int) -> SvarParams:
    """Deterministic-per-seed rational coefficients meeting stability strictly.

    Coefficients come from a finite set of rationals with small numerator and
    denominator; auto (and, for a cyclic observed subgraph, cross) blocks are
    rescaled so the stability sums stay at most 1 - margin.
    """
    # string seeding hashes with sha512, so draws are stable across processes
    rng = random.Random(f"svar-params:{seed}")
    cross = {
        (a, b, k): _random_fraction(rng)
        for (a, b) in sorted(tsg.cross_lags)
        for k in tsg.cross_lags[(a, b)]
    }
    auto = {
        (v, k): _random_fraction(rng)
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
    if not tsg.base.is_acyclic:  # every cycle is observed: latents have no parents
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
