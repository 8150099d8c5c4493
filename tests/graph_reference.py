"""Path systems, trek systems, half-treks and d-separation by direct search.

Each function here enumerates every system of paths or treks between two
label sets by backtracking, which is exponential in the graph size.
`svarspec.graph` decides t-separation and the latent-factor half-trek
criterion with max-flow instead; these are the oracles its answers and the
determinant expansions in `svar_reference` are checked against:

- `nonintersecting_path_systems` lists the vertex-disjoint path systems of
  the Gessel-Viennot expansion, with their permutation signs;
- `sided_nonintersecting_trek_systems` lists the trek systems without sided
  intersection of the trek-system expansion (Sullivant, Talaska & Draisma
  2010);
- `latent_factor_half_treks` lists the half-treks of the criterion, and
  `minimal_halftrek_subsystem` reduces a half-trek system to a minimal,
  source-orderable one;
- `moral_d_separated` decides d-separation by search in the moral graph of
  the ancestral closure (`ancestral_closure`), the test `graph.d_separated`
  replaced with a trek flow.

`t_separated` tests one given pair for t-separation and `dsep_ci_oracle`
answers CI queries by d-separation: no command needs either, and the tests
use them as references.  `t_separated` runs the library's own flow
(`_tsep_network`, `_augment`) on the pair.

`is_empty`, `vertex_set`, `validate_path` and `trek_edges` are the views of
a `Path` or `Trek` that only these searches and the tests need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from svarspec.graph import (Edge, GraphValidationError, Path, ProcessGraph, Trek,
                            _augment, _require_labels, _tsep_network, d_separated,
                            enumerate_paths, enumerate_treks)


def is_empty(path: Path) -> bool:
    """Whether the path visits one vertex and takes no edge."""
    return len(path.vertices) == 1


def vertex_set(path: Path) -> frozenset[str]:
    return frozenset(path.vertices)


def validate_path(path: Path, graph: ProcessGraph) -> None:
    for a, b in path.edges:
        if (a, b) not in graph.edges:
            raise GraphValidationError(f"path uses non-edge ({a!r}, {b!r})")


def trek_edges(trek: Trek) -> tuple[Edge, ...]:
    """The edges of both sides, each once, left side first."""
    return tuple(dict.fromkeys(trek.left.edges + trek.right.edges))


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class PathSystem:
    """Paths with pairwise distinct sources and targets, plus the induced sign."""

    paths: tuple[Path, ...]
    sign: int

    def __post_init__(self):
        sources = [p.source for p in self.paths]
        targets = [p.target for p in self.paths]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("path system sources/targets must be distinct")


@dataclass(frozen=True)
class TrekSystem:
    """Treks with pairwise distinct sources and targets, plus the induced sign."""

    treks: tuple[Trek, ...]
    sign: int

    def __post_init__(self):
        sources = [t.source for t in self.treks]
        targets = [t.target for t in self.treks]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("trek system sources/targets must be distinct")

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(t.source for t in self.treks)

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(t.target for t in self.treks)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(e for t in self.treks for e in trek_edges(t))


def _system_search(sources, targets, candidates, disjoint_ok):
    """Backtracking assignment of one candidate object per source; yields
    (objects, sign) for each complete system, in a deterministic order.

    candidates: source -> target -> tuple of objects.
    disjoint_ok(chosen, obj): whether obj can join the (target, object) pairs
    chosen so far.
    """
    targets = list(targets)

    def assign(i, used_targets, chosen):
        if i == len(sources):
            perm = tuple(targets.index(obj_target) for obj_target, _ in chosen)
            yield tuple(obj for _, obj in chosen), _perm_sign(perm)
            return
        src = sources[i]
        for t in targets:
            if t in used_targets:
                continue
            for obj in candidates(src, t):
                if disjoint_ok(chosen, obj):
                    yield from assign(i + 1, used_targets | {t}, chosen + [(t, obj)])

    return assign(0, frozenset(), [])


def _sided_disjoint(chosen, trek: Trek) -> bool:
    """Whether trek's left side avoids every chosen left side, and its right
    side every chosen right side."""
    lv, rv = vertex_set(trek.left), vertex_set(trek.right)
    return all(
        lv.isdisjoint(vertex_set(t.left)) and rv.isdisjoint(vertex_set(t.right))
        for _, t in chosen
    )


def _ordered(labels) -> tuple[str, ...]:
    # sequences keep their order (it fixes the permutation signs); sets are sorted
    if isinstance(labels, (set, frozenset)):
        return tuple(sorted(labels))
    return tuple(labels)


def nonintersecting_path_systems(graph: ProcessGraph, X, Y) -> tuple[PathSystem, ...]:
    """All systems of vertex-disjoint directed paths from X onto Y, with signs."""
    graph.require_acyclic("path enumeration")
    X, Y = _ordered(X), _ordered(Y)
    if len(X) != len(Y):
        raise ValueError("path systems need |X| = |Y|")
    _require_labels(graph, X + Y)

    def disjoint_ok(chosen, path: Path) -> bool:
        pv = vertex_set(path)
        return all(pv.isdisjoint(vertex_set(p)) for _, p in chosen)

    return tuple(
        PathSystem(paths, sign)
        for paths, sign in _system_search(X, Y, lambda x, y: enumerate_paths(graph, x, y),
                                          disjoint_ok)
    )


def sided_nonintersecting_trek_systems(graph: ProcessGraph, X, Y) -> tuple[TrekSystem, ...]:
    """Trek systems from X onto Y whose left sides are pairwise vertex-disjoint
    and whose right sides are pairwise vertex-disjoint."""
    graph.require_acyclic("trek enumeration")
    X, Y = _ordered(X), _ordered(Y)
    if len(X) != len(Y):
        raise ValueError("trek systems need |X| = |Y|")
    _require_labels(graph, X + Y)
    return tuple(
        TrekSystem(treks, sign)
        for treks, sign in _system_search(X, Y, lambda x, y: enumerate_treks(graph, x, y),
                                          _sided_disjoint)
    )


def latent_factor_half_treks(graph: ProcessGraph, a: str, b: str,
                             avoid=frozenset(), allow_trivial: bool = False) -> tuple[Trek, ...]:
    """Treks from a to b whose left side is empty (a directed path) or a single
    latent edge l -> a with l outside `avoid`."""
    out = [Trek(a, Path((a,)), path) for path in enumerate_paths(graph, a, b)
           if allow_trivial or not is_empty(path)]
    for l in graph.pa_latent(a):
        if l not in avoid:
            out.extend(Trek(l, Path((l, a)), right)
                       for right in enumerate_paths(graph, l, b) if not is_empty(right))
    return tuple(sorted(out))


# -- minimal half-trek subsystems ------------------------------------------------------------


def _source_orderable(treks: tuple[Trek, ...]) -> bool:
    """Whether sources can be indexed so each trek only visits lower-indexed ones."""
    sources = [t.source for t in treks]
    visit: dict[int, set[int]] = {i: set() for i in range(len(treks))}
    for i, t in enumerate(treks):
        vs = vertex_set(t.left) | vertex_set(t.right)
        for j, s in enumerate(sources):
            if j != i and s in vs:
                visit[i].add(j)  # j must come before i
    seen: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i in range(len(treks)):
            if i not in seen and visit[i] <= seen:
                seen.add(i)
                changed = True
    return len(seen) == len(treks)


def _is_lf_half_trek(trek: Trek, latents: frozenset[str]) -> bool:
    if is_empty(trek.left):
        return True
    return len(trek.left.vertices) == 2 and trek.top in latents


def minimal_halftrek_subsystem(graph: ProcessGraph, system: TrekSystem) -> TrekSystem:
    """Reduce a sided-non-intersecting half-trek system to one whose edge
    subgraph supports no other trek system between the same end sets.

    The result uses only edges of the input, visits each source exactly once
    on its own trek, and admits a source ordering in which every trek passes
    only through earlier sources.  Among valid reductions the one with the
    fewest edges (ties broken lexicographically) is returned.
    """
    graph.require_acyclic("the half-trek criterion")
    latents = frozenset(graph.latent)
    for trek in system.treks:
        validate_path(trek.left, graph)
        validate_path(trek.right, graph)
        if not _is_lf_half_trek(trek, latents):
            raise ValueError(f"trek {trek} is not a latent-factor half-trek")
    sources = tuple(sorted(system.sources))
    targets = tuple(sorted(system.targets))
    sub = graph.with_edges(system.edge_set())

    def candidates(src: str, tgt: str) -> tuple[Trek, ...]:
        return latent_factor_half_treks(sub, src, tgt, allow_trivial=True)

    valid = []
    for treks, sign in _system_search(sources, targets, candidates, _sided_disjoint):
        if not all(
            (t.left.vertices + t.right.vertices[1:]).count(t.source) == 1
            for t in treks
        ):
            continue
        if _source_orderable(treks):
            valid.append(TrekSystem(treks, sign))
    if not valid:
        raise ValueError("input system admits no orderable half-trek subsystem")
    valid.sort(key=lambda s: (sum(len(trek_edges(t)) for t in s.treks), s.treks))
    return valid[0]


# -- d-separation in the ancestral moral graph -----------------------------------------------


def ancestral_closure(graph: ProcessGraph, nodes) -> frozenset[str]:
    """nodes together with all their ancestors."""
    seen = set(nodes)
    stack = list(nodes)
    while stack:
        w = stack.pop()
        for p in graph.parents(w):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen)


def moral_d_separated(graph: ProcessGraph, X, Y, Z) -> bool:
    """Whether Z separates X and Y in the moral graph of the ancestral closure
    of X | Y | Z (Lauritzen et al. 1990), with the checks of `d_separated`."""
    graph.require_acyclic("d-separation")
    X, Y, Z = frozenset(X), frozenset(Y), frozenset(Z)
    if (X & Y) or (X & Z) or (Y & Z):
        raise ValueError("X, Y, Z must be pairwise disjoint")
    _require_labels(graph, X | Y | Z)
    if not X or not Y:
        return True
    relevant = ancestral_closure(graph, X | Y | Z)
    neighbours: dict[str, set[str]] = {v: set() for v in relevant}
    for a, b in graph.edges:
        if a in relevant and b in relevant:
            neighbours[a].add(b)
            neighbours[b].add(a)
    for v in relevant:  # moralization: marry parents of a common child
        ps = [p for p in graph.parents(v) if p in relevant]
        for p, q in combinations(ps, 2):
            neighbours[p].add(q)
            neighbours[q].add(p)
    stack = [v for v in X if v not in Z]
    seen = set(stack)
    while stack:
        v = stack.pop()
        if v in Y:
            return False
        for w in neighbours[v]:
            if w not in seen and w not in Z:
                seen.add(w)
                stack.append(w)
    return True


def t_separated(graph: ProcessGraph, X, Y, Z_X, Z_Y) -> bool:
    """Whether every trek from X to Y hits Z_X on its left or Z_Y on its right
    side: no source-sink path is left once the left copies of Z_X and the right
    copies of Z_Y have capacity 0."""
    cut = {"L": frozenset(Z_X), "R": frozenset(Z_Y)}
    network = _tsep_network(graph, X, Y, lambda x, side: int(x not in cut[side]))
    return _augment(network, "source") is not None


def dsep_ci_oracle(graph: ProcessGraph):
    """Graphical conditional-independence oracle from d-separation."""

    def oracle(X, Y, Z) -> bool:
        return d_separated(graph, X, Y, Z)

    return oracle
