"""Rational identification of link functions from the spectrum.

Implements instrument identification, the half-trek-criterion
identification step (a linear system over R(z) whose solution contains the
link functions into one vertex; with no W and no Lp, and Y the observed
parents, it is regression on them), the full pipeline producing a replayable
certificate, lag-coefficient recovery from link functions, and CPDAG
discovery from a conditional-independence oracle.  The spectral oracle is
built from parameters: it reads the values of S off the spectrum kernel once
and tests each conditional independence as a rank condition on a block of S,
on the values' images modulo a prime first (`svar._KnownDenominator.image`)
and over R(z) when that does not decide.

The linear systems are oriented so that unknown link functions multiply
*row*-indexed spectrum entries (S[u, y], unconjugated side); solving then
returns the link functions themselves rather than their conjugates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from .graph import (LfhtcOrder, LfhtcTriple, ProcessGraph, TimeSeriesGraph, lfhtc_check,
                    lfhtc_order, lfhtc_prerequisite_edges)
from .ratfield import RatFn
from .ratlinalg import RatMatrix, rank, rank_mod, solve
from .svar import SvarParams, _density, _trek_parts

Edge = tuple[str, str]


class ZeroInstrumentError(ArithmeticError):
    """The instrument entry of the spectrum vanishes identically."""


class MissingPrerequisiteError(KeyError):
    """A link function required by an identification step is not yet known."""


class LinkRecoveryError(ValueError):
    """Lag coefficients cannot be read off a link function."""


# -- elementary identification strategies ------------------------------------------


def identify_instrument(S: RatMatrix, u: str, v: str, w: str) -> RatFn:
    """Link function of v -> w through the instrument u: S[w,u] / S[v,u]."""
    denom = S.entry(v, u)
    if denom.is_zero:
        raise ZeroInstrumentError(f"S[{v!r}, {u!r}] vanishes; {u!r} is no instrument")
    return S.entry(w, u) / denom


# -- the half-trek identification step -----------------------------------------------


def lfhtc_identify_step(graph: ProcessGraph, S: RatMatrix, v: str, triple: LfhtcTriple,
                        known: dict[Edge, RatFn] | None = None):
    """Solve the half-trek linear system for the links into v, reading from
    `known` the links `lfhtc_prerequisite_edges` lists; MissingPrerequisiteError
    names the first one missing before any entry of S is read.

    Returns (solved, aux, system, rhs) where solved maps each edge (u, v) to
    its link function, aux maps each w in W to the auxiliary latent ratio
    solved alongside, and (system, rhs) is the assembled linear system.
    """
    known = known or {}
    check = lfhtc_check(graph, v, triple)
    if not check.ok:
        raise ValueError(f"triple fails the half-trek criterion: {check.failed}")
    edges = lfhtc_prerequisite_edges(graph, v, triple)
    if missing := [e for e in edges if e not in known]:
        raise MissingPrerequisiteError(
            f"link function for edge {missing[0]!r} required but not yet identified")
    heads = {y for _, y in edges}
    pa = list(graph.pa_observed(v))
    W = list(triple.W)
    Y = list(triple.Y)

    def col(row: str, y: str) -> RatFn:
        # S[row, y], minus y's incoming observed links (conjugated side) if y
        # heads a prerequisite edge: as y is not in W, iff W and v half-trek reach y
        acc = S.entry(row, y)
        if y in heads:
            for x in graph.pa_observed(y):
                acc = acc - S.entry(row, x) * known[(x, y)].conj()
        return acc

    def b_entry(w: str, y: str) -> RatFn:
        # col(w, y) with w's incoming observed links removed (unconjugated side)
        acc = col(w, y)
        for x in graph.pa_observed(w):
            acc = acc - known[(x, w)] * col(x, y)
        return acc

    rows = [[col(u, y) for u in pa] + [b_entry(w, y) for w in W] for y in Y]
    rhs = [col(v, y) for y in Y]
    system = RatMatrix(Y, pa + W, rows)
    values = solve(system, rhs)  # raises SingularMatrixError for non-generic input
    solved = {(u, v): h for u, h in zip(pa, values[: len(pa)])}
    aux = {w: f for w, f in zip(W, values[len(pa):])}
    return solved, aux, system, rhs


# -- the full pipeline ------------------------------------------------------------------


@dataclass(frozen=True)
class IdentificationStep:
    vertex: str
    triple: LfhtcTriple
    method: str  # "regression" | "lfhtc"
    system: RatMatrix
    rhs: tuple[RatFn, ...]
    solved: dict[Edge, RatFn]
    aux: dict[str, RatFn]


@dataclass(frozen=True)
class IdentificationCertificate:
    """Ordered, replayable record of how each link function was identified."""

    steps: tuple[IdentificationStep, ...]
    unresolved_vertices: tuple[str, ...]
    unresolved_edges: tuple[Edge, ...]

    @property
    def solved(self) -> dict[Edge, RatFn]:
        out: dict[Edge, RatFn] = {}
        for step in self.steps:
            out.update(step.solved)
        return out

    @property
    def ok(self) -> bool:
        return not self.unresolved_edges


def _method_tag(graph: ProcessGraph, v: str, triple: LfhtcTriple) -> str:
    if triple.is_regression and set(triple.Y) == set(graph.pa_observed(v)):
        return "regression"
    return "lfhtc"


def identify_all(graph: ProcessGraph, S: RatMatrix,
                 order: LfhtcOrder | None = None) -> IdentificationCertificate:
    """Run the half-trek recursion over the whole graph against a spectrum:
    solve each (vertex, triple) step of `order` (by default `lfhtc_order`),
    feeding earlier links forward.  A certificate replays as
    `identify_all(graph, S, LfhtcOrder(plan, ()))` with its steps' (vertex,
    triple) pairs as the plan."""
    if order is None:
        order = lfhtc_order(graph)
    known: dict[Edge, RatFn] = {}
    steps: list[IdentificationStep] = []
    for v, triple in order.steps:
        if not graph.pa_observed(v):
            continue
        solved, aux, system, rhs = lfhtc_identify_step(graph, S, v, triple, known)
        known.update(solved)
        steps.append(IdentificationStep(
            vertex=v, triple=triple, method=_method_tag(graph, v, triple),
            system=system, rhs=tuple(rhs), solved=solved, aux=aux,
        ))
    unresolved_edges = tuple(sorted(
        (x, v) for v in order.unresolved for x in graph.pa_observed(v)
    ))
    return IdentificationCertificate(tuple(steps), order.unresolved, unresolved_edges)


# -- coefficient recovery -------------------------------------------------------------------


def recover_lag_coefficients(h: RatFn, cross_lags=None, auto_lags=None):
    """Read cross and auto lag coefficients off a link function.

    Normalizes the denominator's constant term to 1, returning
    ({lag: cross coefficient}, {lag: auto coefficient}).  When the expected
    lag sets are supplied, a support mismatch (the symptom of a cancelled,
    non-generic representation) raises LinkRecoveryError.
    """
    den0 = h.den[0]
    if den0 == 0:
        raise LinkRecoveryError("denominator constant term is zero; representation cancelled")
    num = h.num.scale(1 / den0)
    den = h.den.scale(1 / den0)
    cross = {k: c for k, c in enumerate(num.coeffs) if c}
    auto = {k: -c for k, c in enumerate(den.coeffs) if c and k > 0}
    # a cancelled (resultant-zero) representation loses lags, so the supports
    # must match the declared structure exactly
    if cross_lags is not None and set(cross) != set(cross_lags):
        raise LinkRecoveryError(
            f"recovered cross lags {sorted(cross)} differ from expected {sorted(cross_lags)}"
        )
    if auto_lags is not None and set(auto) != set(auto_lags):
        raise LinkRecoveryError(
            f"recovered auto lags {sorted(auto)} differ from expected {sorted(auto_lags)}"
        )
    return cross, auto


# -- CPDAG discovery --------------------------------------------------------------------------

CiOracle = Callable[[frozenset, frozenset, frozenset], bool]


@dataclass(frozen=True)
class Cpdag:
    """Partially directed graph: directed edges plus undirected (unordered) ones."""

    nodes: tuple[str, ...]
    directed: frozenset[Edge]
    undirected: frozenset[frozenset]
    warnings: tuple[str, ...] = field(default=(), compare=False)


def spectral_ci_oracle(tsg: TimeSeriesGraph, params: SvarParams) -> CiOracle:
    """Exact symbolic oracle: the conditional cross-spectrum vanishes identically.

    Validated parameters have positive noise, so S is Hermitian positive
    definite at a generic point of the unit circle, and every principal block
    S[Z, Z] is nonsingular over R(z).  So rank S[Z | X, Z | Y] is |Z| plus the
    rank of the Schur complement S[X, Y] - S[X, Z] S[Z, Z]^{-1} S[Z, Y]
    (Guttman rank additivity), and the verdict is that block's rank being |Z|.

    The values of S are read once off the spectrum kernel (`svar._density`),
    each entry below the diagonal as the conjugate of its mirror, and mapped
    to GF(P) by `_KnownDenominator.image`.  An image's rank is a lower bound
    on the rank over R(z), so an image block of rank above |Z| proves
    "dependent", whatever the image of S[Z, Z].  Every other verdict is the
    block's Bareiss rank over R(z), on entries made canonical only when a
    block needs them; when a value has no image, every verdict is.
    Overlapping sets raise ValueError and unknown labels KeyError.
    """
    obs = tsg.base.observed
    kd, entry = _density(tsg.base, *_trek_parts(tsg, params), obs, obs)
    index = {v: i for i, v in enumerate(obs)}
    values: list[list] = [[None] * len(obs) for _ in obs]
    for i, v in enumerate(obs):
        for j in range(i, len(obs)):
            values[i][j] = entry(v, obs[j])
            if j > i:
                values[j][i] = kd.conj(values[i][j])
    try:
        image = [[kd.image(a) for a in row] for row in values]
    except ValueError:  # a factor or a content denominator vanishes modulo P
        image = None

    @functools.cache
    def exact(i: int, j: int) -> RatFn:
        return kd.ratfn(values[i][j])

    @functools.cache
    def independent(X: frozenset, Y: frozenset, Z: frozenset) -> bool:
        if X & Y or X & Z or Y & Z:
            raise ValueError("X, Y, Z must be pairwise disjoint")
        z = sorted(Z)
        r, c = z + sorted(X), z + sorted(Y)
        unknown = [v for v in r + c if v not in index]
        if unknown:
            raise KeyError(f"unknown label {unknown[0]!r}")
        rows, cols = [index[v] for v in r], [index[v] for v in c]
        if image is not None and rank_mod([[image[i][j] for j in cols] for i in rows]) > len(z):
            return False
        return rank(RatMatrix(r, c, [[exact(i, j) for j in cols] for i in rows])) == len(z)

    def oracle(X, Y, Z) -> bool:
        return independent(frozenset(X), frozenset(Y), frozenset(Z))

    return oracle


def discover_cpdag(ci_oracle: CiOracle, labels) -> Cpdag:
    """PC-style skeleton search, v-structure orientation and Meek closure."""
    nodes = tuple(sorted(labels))
    adjacent: dict[str, set[str]] = {v: set(nodes) - {v} for v in nodes}
    sepsets: dict[frozenset, frozenset] = {}
    warnings: list[str] = []

    def pairs():
        return [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]

    # skeleton: grow the conditioning size while any test is still possible
    level = 0
    while any(len(adjacent[a] - {b}) >= level for a, b in pairs() if b in adjacent[a]):
        for a, b in pairs():
            if b not in adjacent[a]:
                continue
            found = None
            for side in (a, b):
                other = b if side == a else a
                candidates = sorted(adjacent[side] - {other})
                if len(candidates) < level:
                    continue
                for Z in combinations(candidates, level):
                    if ci_oracle(frozenset({a}), frozenset({b}), frozenset(Z)):
                        found = frozenset(Z)
                        break
                if found is not None:
                    break
            if found is not None:
                adjacent[a].discard(b)
                adjacent[b].discard(a)
                sepsets[frozenset((a, b))] = found
        level += 1

    # orient v-structures a -> c <- b when c is outside sepset(a, b)
    directed: set[Edge] = set()
    undirected: set[frozenset] = {frozenset((a, b)) for a, b in pairs() if b in adjacent[a]}
    for c in nodes:
        for a, b in combinations(sorted(adjacent[c]), 2):
            if b in adjacent[a]:
                continue
            if c not in sepsets.get(frozenset((a, b)), frozenset()):
                for tail in (a, b):
                    if frozenset((tail, c)) in undirected:
                        undirected.discard(frozenset((tail, c)))
                        directed.add((tail, c))
                    elif (c, tail) in directed:
                        warnings.append(
                            f"conflicting v-structure orientation at {c!r} from ({a!r}, {b!r})"
                        )

    def points_to(a, b):
        return (a, b) in directed

    def linked(a, b):
        return frozenset((a, b)) in undirected

    # Meek rules to closure.  Each skeleton edge is in the CPDAG exactly once,
    # directed or undirected, and no other is, so adjacency is read off `adjacent`
    changed = True
    while changed:
        changed = False
        for a in nodes:
            for b in nodes:
                if a == b or not linked(a, b):
                    continue
                orient = False
                # R1: c -> a and c, b non-adjacent
                for c in nodes:
                    if points_to(c, a) and b not in adjacent[c]:
                        orient = True
                        break
                # R2: a -> c -> b
                if not orient:
                    for c in nodes:
                        if points_to(a, c) and points_to(c, b):
                            orient = True
                            break
                # R3: a - c -> b and a - d -> b with c, d non-adjacent
                if not orient:
                    incoming = [c for c in nodes if points_to(c, b) and linked(a, c)]
                    for c, d in combinations(incoming, 2):
                        if d not in adjacent[c]:
                            orient = True
                            break
                if orient:
                    undirected.discard(frozenset((a, b)))
                    directed.add((a, b))
                    changed = True
    return Cpdag(nodes, frozenset(directed), frozenset(undirected), tuple(warnings))
