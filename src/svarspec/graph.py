"""Process graphs with exogenous latent structure and the combinatorics on them.

Provides directed-path and trek enumeration and counting, d-separation,
t-separation, half-trek reachability, and the latent-factor half-trek
criterion (check, search and fixpoint ordering).  One augmenting-path routine
on a doubled trek graph finds a minimal t-separating pair as a weighted
minimum cut, and decides d-separation and condition 3 of the criterion as
unit-capacity flows, all in polynomial time.  The exhaustive path-system,
trek-system and half-trek-system searches and the ancestral moral graph those
flows replace are test oracles (`tests/graph_reference.py`), not library
code; so is the test of one given pair for t-separation.
Latent vertices must have in-degree zero; graphs are
immutable after construction and every query is pure.  A graph computes its
directed paths and each vertex's observed and latent parents once, on first
use, and keeps them.

Enumeration order is deterministic everywhere (lexicographic by label), so
identification certificates built on top of these queries are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

Edge = tuple[str, str]


class GraphValidationError(ValueError):
    """The graph violates a structural invariant."""


class CyclicGraphError(ValueError):
    """The query needs an acyclic process graph."""


@dataclass(frozen=True)
class ProcessGraph:
    """Finite causal graph over observed and latent process labels."""

    observed: tuple[str, ...]
    latent: tuple[str, ...]
    edges: tuple[Edge, ...]

    @staticmethod
    def make(observed, latent=(), edges=()) -> "ProcessGraph":
        obs = tuple(sorted(observed))
        lat = tuple(sorted(latent))
        edge_list = tuple(sorted((str(a), str(b)) for a, b in edges))
        return ProcessGraph(obs, lat, edge_list)

    def __post_init__(self):
        obs, lat = set(self.observed), set(self.latent)
        if len(obs) != len(self.observed) or len(lat) != len(self.latent):
            raise GraphValidationError("duplicate vertex labels")
        if obs & lat:
            raise GraphValidationError(f"labels both observed and latent: {sorted(obs & lat)}")
        vertices = obs | lat
        for a, b in self.edges:
            if a not in vertices or b not in vertices:
                raise GraphValidationError(f"edge ({a!r}, {b!r}) uses an unknown label")
            if a == b:
                raise GraphValidationError(f"self-loop at {a!r}; auto-dependence lives in lag sets")
            if b in lat:
                raise GraphValidationError(
                    f"edge ({a!r}, {b!r}) points into latent vertex {b!r}; "
                    "latent processes must be exogenous"
                )
        if len(set(self.edges)) != len(self.edges):
            raise GraphValidationError("duplicate edges")

    # -- structure ----------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.observed + self.latent))

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            out[b].append(a)
        return {v: tuple(sorted(ps)) for v, ps in out.items()}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            out[a].append(b)
        return {v: tuple(sorted(cs)) for v, cs in out.items()}

    @cached_property
    def _parent_roles(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        """vertex -> (observed parents, latent parents)."""
        latent = set(self.latent)
        return {v: (tuple(p for p in ps if p not in latent), tuple(p for p in ps if p in latent))
                for v, ps in self._parents.items()}

    @cached_property
    def _paths(self) -> dict[str, dict[str, tuple[Path, ...]]]:
        """source -> reachable target -> every directed path between them.  Built
        from the sinks up, a vertex's paths are its empty path plus its children's
        paths (children in label order) with it prepended, so each tuple is sorted."""
        out: dict[str, dict[str, tuple[Path, ...]]] = {}
        for v in reversed(self.topological_order()):
            paths: dict[str, list[Path]] = {v: [Path((v,))]}
            for c in self.children(v):
                for y, tails in out[c].items():
                    paths.setdefault(y, []).extend(Path((v,) + t.vertices) for t in tails)
            out[v] = {y: tuple(ps) for y, ps in paths.items()}
        return out

    def parents(self, v: str) -> tuple[str, ...]:
        return self._parents[v]

    def children(self, v: str) -> tuple[str, ...]:
        return self._children[v]

    def pa_observed(self, v: str) -> tuple[str, ...]:
        return self._parent_roles[v][0]

    def pa_latent(self, v: str) -> tuple[str, ...]:
        return self._parent_roles[v][1]

    @cached_property
    def is_acyclic(self) -> bool:
        return self._topological_order() is not None

    def _topological_order(self) -> tuple[str, ...] | None:
        indeg = {v: 0 for v in self.vertices}
        for _, b in self.edges:
            indeg[b] += 1
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for c in self.children(v):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
            ready.sort()
        return tuple(order) if len(order) == len(self.vertices) else None

    def topological_order(self) -> tuple[str, ...]:
        order = self._topological_order()
        if order is None:
            raise CyclicGraphError("graph has a directed cycle")
        return order

    def require_acyclic(self, what: str) -> None:
        """Raise CyclicGraphError on a directed cycle; the message names `what`,
        the criterion or construction that needs the graph acyclic."""
        if not self.is_acyclic:
            raise CyclicGraphError(f"{what} requires an acyclic process graph")

    def descendants(self, v: str) -> frozenset[str]:
        """Vertices reachable from v through at least one edge."""
        seen: set[str] = set()
        stack = list(self.children(v))
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(self.children(w))
        return frozenset(seen)

    def with_edges(self, edges) -> "ProcessGraph":
        """Same vertex sets, restricted/replaced edge set."""
        return ProcessGraph.make(self.observed, self.latent, edges)


@dataclass(frozen=True)
class TimeSeriesGraph:
    """Process graph annotated with lag sets; order is the maximum lag."""

    base: ProcessGraph
    cross_lags: dict[Edge, tuple[int, ...]] = field(default_factory=dict)
    auto_lags: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @staticmethod
    def make(base: ProcessGraph, cross_lags, auto_lags=None) -> "TimeSeriesGraph":
        cross = {
            (str(a), str(b)): tuple(sorted(set(int(k) for k in lags)))
            for (a, b), lags in dict(cross_lags).items()
        }
        auto = {
            str(v): tuple(sorted(set(int(k) for k in lags)))
            for v, lags in dict(auto_lags or {}).items()
            if lags
        }
        return TimeSeriesGraph(base, cross, auto)

    @staticmethod
    def full(base: ProcessGraph, order: int) -> "TimeSeriesGraph":
        """All cross lags 0..order on every edge, auto lags 1..order everywhere."""
        cross = {e: tuple(range(order + 1)) for e in base.edges}
        auto = {v: tuple(range(1, order + 1)) for v in base.vertices} if order >= 1 else {}
        return TimeSeriesGraph(base, cross, auto)

    def __post_init__(self):
        edge_set = set(self.base.edges)
        if set(self.cross_lags) != edge_set:
            missing = edge_set - set(self.cross_lags)
            extra = set(self.cross_lags) - edge_set
            raise GraphValidationError(
                f"cross lag keys do not match edges (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for e, lags in self.cross_lags.items():
            if not lags:
                raise GraphValidationError(f"edge {e} has an empty lag set")
            if any(k < 0 for k in lags):
                raise GraphValidationError(f"edge {e} has a negative lag")
        vertices = set(self.base.vertices)
        for v, lags in self.auto_lags.items():
            if v not in vertices:
                raise GraphValidationError(f"auto lags for unknown vertex {v!r}")
            if any(k < 1 for k in lags):
                raise GraphValidationError(f"auto lag at {v!r} must be >= 1")

    @property
    def order(self) -> int:
        lags = [k for ls in self.cross_lags.values() for k in ls]
        lags += [k for ls in self.auto_lags.values() for k in ls]
        return max(lags, default=0)

    def auto_lags_of(self, v: str) -> tuple[int, ...]:
        return self.auto_lags.get(v, ())


# -- paths and treks ---------------------------------------------------------------


@dataclass(frozen=True, order=True, slots=True)
class Path:
    """Directed path as its vertex sequence; length one means the empty path."""

    vertices: tuple[str, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path visits at least one vertex")

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.vertices, self.vertices[1:]))


@dataclass(frozen=True, order=True, slots=True)
class Trek:
    """Pair of directed paths out of a common top vertex."""

    top: str
    left: Path
    right: Path

    def __post_init__(self):
        if self.left.source != self.top or self.right.source != self.top:
            raise ValueError("both sides of a trek start at its top")

    @property
    def source(self) -> str:
        """Endpoint of the left side (the trek runs from here)."""
        return self.left.target

    @property
    def target(self) -> str:
        """Endpoint of the right side (the trek runs to here)."""
        return self.right.target


def enumerate_paths(graph: ProcessGraph, x: str, y: str) -> tuple[Path, ...]:
    """All directed paths x .. y, including the empty path when x == y."""
    graph.require_acyclic("path enumeration")
    paths = graph._paths
    if x not in paths or y not in paths:  # a dict lookup first: treks call this per top
        _require_labels(graph, (x, y))
    return paths[x].get(y, ())


def enumerate_treks(graph: ProcessGraph, v: str, w: str) -> tuple[Trek, ...]:
    """All treks from v to w: left side runs into v, right side into w."""
    out: list[Trek] = []
    for top in graph.vertices:  # tops, lefts and rights in order: the result is sorted
        lefts = enumerate_paths(graph, top, v)
        if lefts:
            rights = enumerate_paths(graph, top, w)
            out.extend(Trek(top, left, right) for left in lefts for right in rights)
    return tuple(out)


def count_treks(graph: ProcessGraph, v: str, w: str) -> int:
    """len(enumerate_treks(graph, v, w)) without listing a trek or a path.

    A trek is a top with one path into v and one into w, so the count is the
    sum over tops of paths(top, v) * paths(top, w).  Path counts into a fixed
    target follow the children, sinks first, in O(|V| + |E|) time.
    """
    graph.require_acyclic("trek enumeration")
    _require_labels(graph, (v, w))
    order = graph.topological_order()[::-1]

    def paths_into(target: str) -> dict[str, int]:
        count: dict[str, int] = {}
        for u in order:
            count[u] = (u == target) + sum(count[c] for c in graph.children(u))
        return count

    into_v, into_w = paths_into(v), paths_into(w)
    return sum(into_v[top] * into_w[top] for top in graph.vertices)


def _require_labels(graph: ProcessGraph, labels) -> None:
    unknown = sorted(set(labels) - set(graph.vertices))
    if unknown:
        raise KeyError(f"unknown label {unknown[0]!r}")


# -- the doubled trek graph: t- and d-separation -----------------------------------------


def _trek_network(graph: ProcessGraph, capacity, climb, descend, sources, sinks, big) -> dict:
    """Residual graph whose "source"-"sink" paths are the treks from `sources`
    to `sinks`: the copy (x, side) of x is an arc (x, side, 0) -> (x, side, 1) of
    capacity(x, side), and arcs of capacity `big` climb from left copies to those
    of climb(x), cross from left to right copies and descend to those of descend(x)."""
    residual: dict = {"source": {(x, "L", 0): big for x in sources}, "sink": {}}
    for x in graph.vertices:
        residual[x, "L", 0] = {(x, "L", 1): capacity(x, "L")}
        residual[x, "L", 1] = {(x, "R", 0): big} | {(p, "L", 0): big for p in climb(x)}
        residual[x, "R", 0] = {(x, "R", 1): capacity(x, "R")}
        residual[x, "R", 1] = {(c, "R", 0): big for c in descend(x)}
    for y in sinks:
        residual[y, "R", 1]["sink"] = big
    return residual


def _augment(residual: dict, start) -> dict | None:
    """Push the bottleneck capacity along a shortest residual path from `start`
    to "sink" and return None, or return the search tree, keyed by the nodes
    reachable from `start`, if there is none.  Repeated, this is Edmonds-Karp: O(VE) augmentations."""
    parent, queue = {start: None}, deque([start])
    while queue and "sink" not in parent:
        a = queue.popleft()
        for b, cap in residual[a].items():
            if cap and b not in parent:
                parent[b] = a
                queue.append(b)
    if "sink" not in parent:
        return parent
    path, b = [], "sink"
    while b != start:
        path.append((parent[b], b))
        b = parent[b]
    push = min(residual[a][b] for a, b in path)
    for a, b in path:
        residual[a][b] -= push
        residual[b][a] = residual[b].get(a, 0) + push
    return None


def _tsep_network(graph: ProcessGraph, X, Y, capacity, big: int = 1) -> dict:
    graph.require_acyclic("t-separation")
    _require_labels(graph, set(X) | set(Y))
    return _trek_network(graph, capacity, graph.parents, graph.children,
                         sorted(set(X)), sorted(set(Y)), big)


def d_separated(graph: ProcessGraph, X, Y, Z) -> bool:
    """Whether Z d-separates X and Y: at most |Z| sided-disjoint treks join X | Z to Y | Z.

    For disjoint X, Y and Z in a DAG, Z d-separates X and Y exactly when
    Sigma[X | Z, Y | Z] has generic rank |Z| (Sullivant, Talaska & Draisma
    2010, Thm 2.8), and that rank is the least size of a pair t-separating
    X | Z from Y | Z (ibid., Thm 2.2).  By Menger's theorem that least size
    is the most paths through distinct copies in the doubled trek graph with
    unit capacities, its maximum flow.  The trivial treks z -> z are |Z|
    disjoint paths, so the flow is at least |Z|, and Z separates exactly when
    |Z| + 1 augmentations do not all succeed.
    """
    graph.require_acyclic("d-separation")
    X, Y, Z = frozenset(X), frozenset(Y), frozenset(Z)
    if (X & Y) or (X & Z) or (Y & Z):
        raise ValueError("X, Y, Z must be pairwise disjoint")
    _require_labels(graph, X | Y | Z)
    if not X or not Y:
        return True
    network = _tsep_network(graph, X | Z, Y | Z, lambda x, side: 1)
    return any(_augment(network, "source") is not None for _ in range(len(Z) + 1))


def t_separation_min(graph: ProcessGraph, X, Y):
    """The first minimal t-separating pair (size, Z_X, Z_Y) in the order
    (|Z_X| + |Z_Y|, |Z_X|, Z_X, Z_Y), label tuples compared lexicographically.

    t-separating pairs are the copy-arc cuts of the doubled trek graph.  With n
    vertices, B = 4^n and label index i, a left copy costs (n+3)B - 2^(2n-1-i)
    and a right copy (n+2)B - 2^(n-1-i), so a pair with a left and b right
    copies costs (n+2)B(a+b) + aB - D, where D < B has one bit per member, first
    labels highest, Z_X's above Z_Y's.  As aB - D lies in (-B, nB], costs order
    pairs by total, then a, then -D: the label-order-first Z_X, then Z_Y (of two
    sets of one size, the one holding the first label where they differ has more
    bits).  So the minimum cut is unique and is the first minimal pair: the copies
    the last Edmonds-Karp search enters but does not cross (`big` outweighs them all).
    """
    n, B = len(graph.vertices), 4 ** len(graph.vertices)
    weight = {}
    for i, x in enumerate(graph.vertices):
        weight[x, "L"] = (n + 3) * B - 2 ** (2 * n - 1 - i)
        weight[x, "R"] = (n + 2) * B - 2 ** (n - 1 - i)
    residual = _tsep_network(graph, X, Y, lambda x, side: weight[x, side], big=2 * n * (n + 3) * B)
    while (reached := _augment(residual, "source")) is None:
        pass
    cut = [(x, side) for x, side in weight
           if (x, side, 0) in reached and (x, side, 1) not in reached]
    zx, zy = (tuple(x for x, side in cut if side == s) for s in "LR")
    return len(zx) + len(zy), zx, zy


# -- the latent-factor half-trek criterion ------------------------------------------------


def htr(graph: ProcessGraph, X, avoid=frozenset()) -> frozenset[str]:
    """Observed vertices half-trek reachable from some x in X while avoiding the
    latent set `avoid`; reachability needs at least one edge."""
    graph.require_acyclic("the half-trek criterion")
    avoid = frozenset(avoid)
    observed = set(graph.observed)
    out: set[str] = set()
    for x in sorted(set(X)):
        if x not in observed:
            raise KeyError(f"half-trek sources must be observed, got {x!r}")
        out |= graph.descendants(x)
        for l in graph.pa_latent(x):
            if l not in avoid:
                out |= graph.descendants(l)
    return frozenset(out & observed)


@dataclass(frozen=True)
class LfhtcTriple:
    """Candidate sets (Y, W, Lp) for identifying the links into one vertex."""

    Y: tuple[str, ...]
    W: tuple[str, ...]
    Lp: tuple[str, ...]

    @staticmethod
    def make(Y=(), W=(), Lp=()) -> "LfhtcTriple":
        return LfhtcTriple(tuple(sorted(Y)), tuple(sorted(W)), tuple(sorted(Lp)))

    @property
    def is_regression(self) -> bool:
        return not self.W and not self.Lp


@dataclass(frozen=True)
class LfhtcCheck:
    ok: bool
    condition1: bool
    condition2: bool
    condition3: bool

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(
            name for name, good in [
                ("size-and-parent-overlap", self.condition1),
                ("latent-parent-containment", self.condition2),
                ("half-trek-system", self.condition3),
            ] if not good
        )


def _validate_triple(graph: ProcessGraph, v: str, triple: LfhtcTriple) -> None:
    observed, latents = set(graph.observed), set(graph.latent)
    if v not in observed:
        raise KeyError(f"target vertex {v!r} is not observed")
    for lab in triple.Y + triple.W:
        if lab not in observed:
            raise GraphValidationError(f"triple label {lab!r} is not an observed vertex")
        if lab == v:
            raise GraphValidationError(f"triple may not contain the target vertex {v!r}")
    for lab in triple.Lp:
        if lab not in latents:
            raise GraphValidationError(f"triple label {lab!r} is not a latent vertex")


def _half_trek_linked(graph: ProcessGraph, v: str, W, Lp, pool, need) -> tuple[str, ...] | None:
    """The first `need` sources of `pool` (in label order, outside W; W is
    outside pa(v)) that a sided-non-intersecting system of latent-factor
    half-treks links onto pa(v) | W, each trek into a w in W being y <- l -> w
    with l in Lp; None if fewer link.

    In the doubled trek graph with unit capacities, a flow path enters a
    source's left copy, climbs at most one latent edge, crosses to its top's
    right copy and descends edges to a target; a w in W keeps only the edges
    into it from Lp, and none out.  Integral flows are then exactly the
    sided-non-intersecting systems (Foygel, Draisma & Drton 2012), so the
    linkable source sets are the independent sets of a gammoid, a matroid
    (Perfect 1968).  Keeping a source when it has an augmenting path, and
    reversing that path, is the matroid greedy algorithm, whose basis is the
    smallest place by place among all bases (Gale 1968): the kept sources are
    the lexicographically first linkable set.  Whether a path exists depends
    only on the sources kept so far, not on which paths carried them.
    """
    W, Lp = set(W), set(Lp)
    residual = _trek_network(
        graph, lambda x, side: 1, graph.pa_latent,
        lambda x: [c for c in graph.children(x) if x not in W and (c not in W or x in Lp)],
        (), set(graph.pa_observed(v)) | W, 1)
    kept: list[str] = []
    for y in pool:
        if len(kept) < need and _augment(residual, (y, "L", 0)) is None:
            kept.append(y)
    return tuple(kept) if len(kept) == need else None


def lfhtc_check(graph: ProcessGraph, v: str, triple: LfhtcTriple) -> LfhtcCheck:
    """Check the three half-trek-criterion conditions for (Y, W, Lp) at v."""
    graph.require_acyclic("the half-trek criterion")
    _validate_triple(graph, v, triple)
    Y, W, Lp = frozenset(triple.Y), frozenset(triple.W), frozenset(triple.Lp)
    pa = frozenset(graph.pa_observed(v))

    cond1 = (len(Y) == len(pa) + len(Lp)) and (len(W) == len(Lp)) and not (W & pa)

    pa_l_y = frozenset(l for y in Y for l in graph.pa_latent(y))
    pa_l_wv = frozenset(l for u in (W | {v}) for l in graph.pa_latent(u))
    cond2 = not (Y & W) and (pa_l_y & pa_l_wv) <= Lp

    cond3 = cond1 and cond2 and _half_trek_linked(graph, v, W, Lp, sorted(Y), len(Y)) is not None
    return LfhtcCheck(cond1 and cond2 and cond3, cond1, cond2, cond3)


def lfhtc_prerequisite_edges(graph: ProcessGraph, v: str, triple: LfhtcTriple) -> tuple[Edge, ...]:
    """Observed links that must already be identified before the triple can be
    used at v: those into W, and into each y in Y half-trek reachable from W
    and v."""
    reach = htr(graph, set(triple.W) | {v}, frozenset(triple.Lp))
    heads = set(triple.W) | (set(triple.Y) & reach)
    return tuple(sorted((x, y) for y in heads for x in graph.pa_observed(y)))


def lfhtc_search(graph: ProcessGraph, v: str, solved_edges=frozenset()) -> LfhtcTriple | None:
    """Smallest triple passing lfhtc_check whose prerequisite edges are all solved.

    After the regression triple, the first in (|Lp|, Y, W, Lp) order: one
    _half_trek_linked scan per (W, Lp) finds Y.  None when no triple is usable.
    """
    graph.require_acyclic("the half-trek criterion")
    solved = frozenset(solved_edges)
    observed = graph.observed
    if v not in set(observed):
        raise KeyError(f"target vertex {v!r} is not observed")
    pa = graph.pa_observed(v)
    regression = LfhtcTriple.make(Y=pa)
    if lfhtc_check(graph, v, regression).ok and all(
            e in solved for e in lfhtc_prerequisite_edges(graph, v, regression)):
        return regression

    def ready(y: str) -> bool:
        return all((x, y) in solved for x in graph.pa_observed(y))

    others = tuple(x for x in observed if x != v)
    w_pool = tuple(x for x in others if x not in pa and ready(x))
    for lp_size in range(min(len(graph.latent), len(w_pool)) + 1):
        found = []
        for W in combinations(w_pool, lp_size):
            shared = {l for u in W + (v,) for l in graph.pa_latent(u)}
            for Lp in combinations(graph.latent, lp_size):
                reach, banned = htr(graph, W + (v,), Lp), shared.difference(Lp)
                pool = [y for y in others if y not in W and (ready(y) or y not in reach)
                        and banned.isdisjoint(graph.pa_latent(y))]
                Y = _half_trek_linked(graph, v, W, Lp, pool, len(pa) + lp_size)
                if Y is not None:
                    found.append((Y, W, Lp))
        if found:
            return LfhtcTriple(*min(found))
    return None


@dataclass(frozen=True)
class LfhtcOrder:
    """Fixpoint result: solvable vertices in order, plus the unresolved rest."""

    steps: tuple[tuple[str, LfhtcTriple], ...]
    unresolved: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.unresolved


def lfhtc_order(graph: ProcessGraph) -> LfhtcOrder:
    """Iterate lfhtc_search over the observed vertices until no progress."""
    graph.require_acyclic("the half-trek criterion")
    pending = list(graph.observed)
    solved_edges: set[Edge] = set()
    steps: list[tuple[str, LfhtcTriple]] = []
    progress = True
    while progress and pending:
        progress = False
        for v in list(pending):
            triple = lfhtc_search(graph, v, frozenset(solved_edges))
            if triple is None:
                continue
            steps.append((v, triple))
            solved_edges.update((x, v) for x in graph.pa_observed(v))
            pending.remove(v)
            progress = True
    return LfhtcOrder(tuple(steps), tuple(sorted(pending)))
