"""Graph structures, path/trek combinatorics, separations, half-trek criterion."""

import ast
import pathlib
import random
import time
from itertools import combinations, product

import pytest

from svarspec.graph import (CyclicGraphError, GraphValidationError,
                            LfhtcCheck, LfhtcTriple, Path, ProcessGraph, TimeSeriesGraph,
                            Trek, count_treks, d_separated, enumerate_paths,
                            enumerate_treks, htr, lfhtc_check, lfhtc_order,
                            lfhtc_prerequisite_edges, lfhtc_search, t_separation_min,
                            _half_trek_linked)

from conftest import random_dag, random_latent_dag
from graph_reference import (TrekSystem, ancestral_closure, is_empty,
                             latent_factor_half_treks, minimal_halftrek_subsystem,
                             moral_d_separated, nonintersecting_path_systems,
                             sided_nonintersecting_trek_systems, t_separated, trek_edges,
                             vertex_set, _sided_disjoint, _system_search)


# -- construction invariants -----------------------------------------------------


def test_edge_into_latent_rejected():
    with pytest.raises(GraphValidationError, match="latent"):
        ProcessGraph.make(["a"], ["l"], [("a", "l")])


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError, match="self-loop"):
        ProcessGraph.make(["a"], [], [("a", "a")])


def test_observed_latent_overlap_rejected():
    with pytest.raises(GraphValidationError):
        ProcessGraph.make(["a"], ["a"], [])


def test_unknown_edge_label_rejected():
    with pytest.raises(GraphValidationError):
        ProcessGraph.make(["a"], [], [("a", "b")])


@pytest.mark.parametrize("observed, latent", [(["a", "a", "b"], []), (["a", "b"], ["l", "l"])])
def test_duplicate_labels_rejected(observed, latent):
    with pytest.raises(GraphValidationError, match="duplicate"):
        ProcessGraph.make(observed, latent, [("a", "b")])


def test_acyclicity_flag_matches_topological_sort():
    dag = ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("b", "c")])
    assert dag.is_acyclic and len(dag.topological_order()) == 3
    cyc = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    assert not cyc.is_acyclic
    with pytest.raises(CyclicGraphError):
        cyc.topological_order()


def _observed_subgraph_cyclic(graph: ProcessGraph) -> bool:
    """The cycle test parameter validation used before: observed edges only."""
    observed = set(graph.observed)
    sub = ProcessGraph.make(graph.observed, (),
                            [e for e in graph.edges if e[0] in observed and e[1] in observed])
    return not sub.is_acyclic


def test_every_cycle_is_observed():
    # latent vertices have in-degree 0, so no directed cycle passes through one
    rng = random.Random(31)
    verdicts = set()
    for _ in range(200):
        observed = [f"x{i}" for i in range(rng.randint(2, 6))]
        latent = [f"l{i}" for i in range(rng.randint(0, 3))]
        edges = [(a, b) for a in observed for b in observed if a != b and rng.random() < 0.2]
        edges += [(l, v) for l in latent for v in observed if rng.random() < 0.6]
        g = ProcessGraph.make(observed, latent, edges)
        assert _observed_subgraph_cyclic(g) == (not g.is_acyclic)
        verdicts.add((g.is_acyclic, bool(latent)))
    assert len(verdicts) == 4  # cyclic and acyclic, each with and without latents

def test_tsg_lag_validation():
    g = ProcessGraph.make(["a", "b"], [], [("a", "b")])
    with pytest.raises(GraphValidationError, match="lag"):
        TimeSeriesGraph.make(g, {("a", "b"): (-1,)})
    with pytest.raises(GraphValidationError, match="auto"):
        TimeSeriesGraph.make(g, {("a", "b"): (0,)}, {"a": (0,)})
    with pytest.raises(GraphValidationError, match="empty"):
        TimeSeriesGraph.make(g, {("a", "b"): ()})
    with pytest.raises(GraphValidationError, match="match"):
        TimeSeriesGraph.make(g, {})
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0, 2)}, {"b": (1,)})
    assert tsg.order == 2


# -- path and trek enumeration ------------------------------------------------------


def test_instrument_graph_single_path(instrument_graph):
    assert enumerate_paths(instrument_graph, "u", "w") == (Path(("u", "v", "w")),)


def test_empty_path_at_every_vertex(instrument_graph):
    assert enumerate_paths(instrument_graph, "u", "u") == (Path(("u",)),)


def test_path_enumeration_rejects_cyclic():
    cyc = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    with pytest.raises(CyclicGraphError):
        enumerate_paths(cyc, "a", "b")
    with pytest.raises(CyclicGraphError):
        enumerate_treks(cyc, "a", "b")
    with pytest.raises(CyclicGraphError):
        count_treks(cyc, "a", "b")
    with pytest.raises(CyclicGraphError):
        latent_factor_half_treks(cyc, "a", "b")


def test_path_counts_match_adjacency_powers():
    rng = random.Random(20)
    for _ in range(100):
        n = rng.randint(2, 6)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        verts = list(g.vertices)
        index = {v: i for i, v in enumerate(verts)}
        # counts[i][j] = number of directed paths i -> j, via powers of adjacency
        adj = [[0] * n for _ in range(n)]
        for a, b in g.edges:
            adj[index[a]][index[b]] = 1
        counts = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        power = [row[:] for row in counts]
        for _ in range(n):
            power = [
                [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            counts = [
                [counts[i][j] + power[i][j] for j in range(n)] for i in range(n)
            ]
        x, y = rng.sample(verts, 2)
        assert len(enumerate_paths(g, x, y)) == counts[index[x]][index[y]]


# Reference oracle: depth-first search over children, independent of the
# per-graph path table that enumerate_paths reads.


def reference_paths(graph: ProcessGraph, x: str, y: str) -> tuple[Path, ...]:
    out: list[Path] = []

    def extend(prefix: list[str]) -> None:
        if prefix[-1] == y:
            out.append(Path(tuple(prefix)))
        for c in graph.children(prefix[-1]):
            extend(prefix + [c])

    extend([x])
    return tuple(sorted(out))


def reference_treks(graph: ProcessGraph, v: str, w: str) -> tuple[Trek, ...]:
    return tuple(sorted(
        Trek(top, left, right)
        for top in graph.vertices
        for left in reference_paths(graph, top, v)
        for right in reference_paths(graph, top, w)
    ))


def reference_half_treks(graph: ProcessGraph, a: str, b: str, avoid,
                         allow_trivial: bool) -> tuple[Trek, ...]:
    out = [Trek(a, Path((a,)), p) for p in reference_paths(graph, a, b)
           if allow_trivial or len(p.vertices) > 1]
    for l in graph.latent:
        if (l, a) in graph.edges and l not in avoid:
            out += [Trek(l, Path((l, a)), p) for p in reference_paths(graph, l, b)
                    if len(p.vertices) > 1]
    return tuple(sorted(out))


# Reference LF-HTC: every (Y, W, Lp) in (|Lp|, Y, W, Lp) order, each checked
# by a backtracking search for a half-trek system.  Exponential; an oracle only.


def reference_half_trek_system_exists(graph: ProcessGraph, sources, targets, w_targets,
                                      allowed_latents) -> bool:
    def candidates(src: str, tgt: str) -> tuple[Trek, ...]:
        if tgt in w_targets:
            return tuple(Trek(l, Path((l, src)), Path((l, tgt)))
                         for l in graph.pa_latent(src)
                         if l in allowed_latents and (l, tgt) in graph.edges)
        return latent_factor_half_treks(graph, src, tgt, allow_trivial=True)

    systems = _system_search(tuple(sorted(sources)), tuple(sorted(targets)), candidates,
                             _sided_disjoint)
    return next(systems, None) is not None


def reference_lfhtc_check(graph: ProcessGraph, v: str, triple: LfhtcTriple) -> LfhtcCheck:
    Y, W, Lp = frozenset(triple.Y), frozenset(triple.W), frozenset(triple.Lp)
    pa = frozenset(graph.pa_observed(v))
    cond1 = len(Y) == len(pa) + len(Lp) and len(W) == len(Lp) and not W & pa
    pa_l_y = {l for y in Y for l in graph.pa_latent(y)}
    pa_l_wv = {l for u in W | {v} for l in graph.pa_latent(u)}
    cond2 = not Y & W and pa_l_y & pa_l_wv <= Lp
    cond3 = cond1 and cond2 and reference_half_trek_system_exists(graph, Y, pa | W, W, Lp)
    return LfhtcCheck(cond1 and cond2 and cond3, cond1, cond2, cond3)


def reference_lfhtc_search(graph: ProcessGraph, v: str, solved) -> LfhtcTriple | None:
    pa = graph.pa_observed(v)
    others = tuple(x for x in graph.observed if x != v)
    w_pool = tuple(x for x in others if x not in pa)

    def usable(triple: LfhtcTriple) -> bool:
        return reference_lfhtc_check(graph, v, triple).ok and all(
            e in solved for e in lfhtc_prerequisite_edges(graph, v, triple))

    regression = LfhtcTriple.make(Y=pa)
    if usable(regression):
        return regression
    for lp_size in range(len(graph.latent) + 1):
        for Y in combinations(others, len(pa) + lp_size):
            for W in combinations([x for x in w_pool if x not in Y], lp_size):
                for Lp in combinations(graph.latent, lp_size):
                    if usable(LfhtcTriple.make(Y, W, Lp)):
                        return LfhtcTriple.make(Y, W, Lp)
    return None


def reference_lfhtc_order(graph: ProcessGraph):
    pending, solved, steps = list(graph.observed), set(), []
    progress = True
    while progress:
        progress = False
        for v in list(pending):
            triple = reference_lfhtc_search(graph, v, solved)
            if triple is not None:
                steps.append((v, triple))
                solved.update((x, v) for x in graph.pa_observed(v))
                pending.remove(v)
                progress = True
    return tuple(steps), tuple(sorted(pending))


@pytest.mark.parametrize("latent", [(), ("l1",), ("l1", "l2", "l3")])
def test_paths_treks_and_half_treks_match_reference(latent):
    rng = random.Random(22 + len(latent))
    for _ in range(25):
        observed = [f"x{i}" for i in range(rng.randint(1, 6))]
        g = (random_latent_dag(rng, observed, latent, p=0.5) if latent
             else random_dag(rng, observed, p=0.5))
        avoid = frozenset(latent[:1])
        for a, b in product(g.vertices, repeat=2):
            assert enumerate_paths(g, a, b) == reference_paths(g, a, b)
            assert enumerate_treks(g, a, b) == reference_treks(g, a, b)
            assert count_treks(g, a, b) == len(reference_treks(g, a, b))
            for allow_trivial in (False, True):
                assert latent_factor_half_treks(g, a, b, avoid, allow_trivial) == \
                    reference_half_treks(g, a, b, avoid, allow_trivial)


def test_path_queries_reject_unknown_labels(instrument_graph):
    # the error names the unknown label only, never the known one beside it
    for query in (enumerate_paths, enumerate_treks, count_treks):
        for x, y in (("u", "nope"), ("nope", "u")):
            with pytest.raises(KeyError, match=r"^\"unknown label 'nope'\"$"):
                query(instrument_graph, x, y)
    # a source the search would never reach is still checked
    with pytest.raises(KeyError):
        nonintersecting_path_systems(instrument_graph, ["w", "nope"], ["u", "v"])
    isolated = ProcessGraph.make(["a", "b", "c"], [], [])
    with pytest.raises(KeyError):
        sided_nonintersecting_trek_systems(isolated, ["a", "nope"], ["b", "c"])


def test_instrument_graph_trek_set_is_complete(instrument_graph):
    treks = set(enumerate_treks(instrument_graph, "v", "w"))
    assert Trek("v", Path(("v",)), Path(("v", "w"))) in treks
    assert Trek("l", Path(("l", "v")), Path(("l", "w"))) in treks
    # the definition also admits the through-v treks with tops u and l
    assert len(treks) == 4


def test_trivial_trek_present(instrument_graph):
    treks = enumerate_treks(instrument_graph, "v", "v")
    assert Trek("v", Path(("v",)), Path(("v",))) in treks


def test_trek_counts_match_path_products():
    rng = random.Random(21)
    for _ in range(50):
        g = random_dag(rng, [f"x{i}" for i in range(rng.randint(2, 5))], p=0.6)
        verts = list(g.vertices)
        v, w = rng.choice(verts), rng.choice(verts)
        expected = sum(
            len(enumerate_paths(g, top, v)) * len(enumerate_paths(g, top, w))
            for top in verts
        )
        assert len(enumerate_treks(g, v, w)) == expected


# -- systems with signs ------------------------------------------------------------------


def test_identity_path_system_on_isolated_vertices():
    g = ProcessGraph.make(["a", "b"], [], [])
    systems = nonintersecting_path_systems(g, ["a", "b"], ["a", "b"])
    assert len(systems) == 1
    assert systems[0].sign == 1
    assert all(is_empty(p) for p in systems[0].paths)


def test_shared_middle_vertex_blocks_all_systems():
    g = ProcessGraph.make(["x1", "x2", "m", "y1", "y2"], [],
                          [("x1", "m"), ("m", "y1"), ("x2", "m"), ("m", "y2")])
    assert nonintersecting_path_systems(g, ["x1", "x2"], ["y1", "y2"]) == ()


def _brute_force_path_systems(g, X, Y):
    X, Y = tuple(sorted(X)), tuple(sorted(Y))
    out = []
    path_sets = {x: {y: enumerate_paths(g, x, y) for y in Y} for x in X}
    for perm in _permutations_with_signs(len(X)):
        targets = [Y[perm[i]] for i in range(len(X))]
        if len(set(targets)) != len(targets):
            continue
        for chosen in product(*[path_sets[x][t] for x, t in zip(X, targets)]):
            vsets = [vertex_set(p) for p in chosen]
            if all(a.isdisjoint(b) for a, b in combinations(vsets, 2)):
                out.append((tuple(chosen), _sign_of(perm)))
    return out


def _permutations_with_signs(n):
    from itertools import permutations
    return [tuple(p) for p in permutations(range(n))]


def _sign_of(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_path_systems_match_brute_force():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        k = rng.randint(1, min(3, n))
        X = tuple(sorted(rng.sample(list(g.vertices), k)))
        Y = tuple(sorted(rng.sample(list(g.vertices), k)))
        got = {(s.paths, s.sign) for s in nonintersecting_path_systems(g, X, Y)}
        want = {(paths, sign) for paths, sign in _brute_force_path_systems(g, X, Y)}
        assert got == want


def _brute_force_trek_systems(g, X, Y):
    X, Y = tuple(sorted(X)), tuple(sorted(Y))
    trek_sets = {x: {y: enumerate_treks(g, x, y) for y in Y} for x in X}
    out = []
    for perm in _permutations_with_signs(len(X)):
        targets = [Y[perm[i]] for i in range(len(X))]
        if len(set(targets)) != len(targets):
            continue
        for chosen in product(*[trek_sets[x][t] for x, t in zip(X, targets)]):
            lefts = [vertex_set(t.left) for t in chosen]
            rights = [vertex_set(t.right) for t in chosen]
            if all(a.isdisjoint(b) for a, b in combinations(lefts, 2)) and \
               all(a.isdisjoint(b) for a, b in combinations(rights, 2)):
                out.append((tuple(chosen), _sign_of(perm)))
    return out


def test_trek_systems_match_brute_force():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 5)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        k = rng.randint(1, 2)
        X = tuple(sorted(rng.sample(list(g.vertices), k)))
        Y = tuple(sorted(rng.sample(list(g.vertices), k)))
        got = {(s.treks, s.sign) for s in sided_nonintersecting_trek_systems(g, X, Y)}
        want = set(_brute_force_trek_systems(g, X, Y))
        assert got == want


def test_confounded_chain_trek_system_present(confounded_chain_graph):
    systems = sided_nonintersecting_trek_systems(confounded_chain_graph, ["v2", "v3"], ["v1", "v3"])
    wanted = {
        Trek("l", Path(("l", "v2")), Path(("l", "v1"))),
        Trek("v3", Path(("v3",)), Path(("v3",))),
    }
    assert any(set(s.treks) == wanted for s in systems)


def test_target_transposition_flips_sign():
    rng = random.Random(24)
    flips = 0
    for _ in range(40):
        g = random_dag(rng, [f"x{i}" for i in range(4)], p=0.7)
        X = tuple(sorted(rng.sample(list(g.vertices), 2)))
        Y = tuple(sorted(rng.sample(list(g.vertices), 2)))
        forward = nonintersecting_path_systems(g, X, Y)
        if not forward:
            continue
        swapped = nonintersecting_path_systems(g, X, (Y[1], Y[0]))
        by_paths = {s.paths: s.sign for s in swapped}
        for s in forward:
            assert by_paths[s.paths] == -s.sign
            flips += 1
    assert flips > 0


# -- d-separation --------------------------------------------------------------------------


def test_dsep_chain_and_single_edge(chain_graph):
    assert d_separated(chain_graph, {"a"}, {"c"}, {"b"}) is True
    single = ProcessGraph.make(["a", "b"], [], [("a", "b")])
    assert d_separated(single, {"a"}, {"b"}, set()) is False


def test_dsep_instrument_graph(instrument_graph):
    assert d_separated(instrument_graph, {"u"}, {"w"}, {"v", "l"}) is True
    assert d_separated(instrument_graph, {"u"}, {"w"}, {"v"}) is False  # collider v opened


def test_dsep_overlapping_sets_rejected(chain_graph):
    with pytest.raises(ValueError):
        d_separated(chain_graph, {"a"}, {"a"}, set())


def _blocked(g, path, Z):
    anc_z = ancestral_closure(g, Z)
    for i in range(1, len(path) - 1):
        prev_vertex, vertex, nxt = path[i - 1], path[i], path[i + 1]
        into_prev = (prev_vertex, vertex) in g.edges
        into_next = (nxt, vertex) in g.edges
        collider = into_prev and into_next
        if collider and vertex not in anc_z:
            return True
        if not collider and vertex in Z:
            return True
    return False


def _all_undirected_paths(g, x, y):
    neighbours = {v: set() for v in g.vertices}
    for a, b in g.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    out = []

    def walk(path):
        v = path[-1]
        if v == y:
            out.append(tuple(path))
            return
        for w in sorted(neighbours[v]):
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    walk([x])
    return out


def _dsep_by_path_blocking(g, X, Y, Z):
    # exhaustive oracle: every simple undirected path between the sets is blocked
    return all(
        _blocked(g, path, Z)
        for x in X for y in Y
        for path in _all_undirected_paths(g, x, y)
    )


def test_dsep_matches_exhaustive_path_blocking():
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(3, 5)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        verts = list(g.vertices)
        for _ in range(10):
            pool = verts[:]
            rng.shuffle(pool)
            x, y = pool[0], pool[1]
            rest = pool[2:]
            Z = set(rng.sample(rest, rng.randint(0, len(rest))))
            assert d_separated(g, {x}, {y}, Z) == _dsep_by_path_blocking(g, {x}, {y}, Z)


def test_dsep_flow_matches_the_moral_graph_oracle():
    # set-valued X, Y and Z over observed and latent labels, each possibly empty
    rng = random.Random(27)
    for _ in range(300):
        n, k = rng.randint(2, 9), rng.randint(0, 3)
        g = random_latent_dag(rng, [f"x{i}" for i in range(n)], [f"l{i}" for i in range(k)],
                              p=rng.uniform(0.1, 0.7), p_latent=rng.uniform(0.2, 0.8))
        verts = list(g.vertices)
        for _ in range(20):
            part = [rng.randrange(4) for _ in verts]  # 0, 1, 2: X, Y, Z; 3: left out
            X, Y, Z = ({v for v, p in zip(verts, part) if p == i} for i in range(3))
            assert d_separated(g, X, Y, Z) == moral_d_separated(g, X, Y, Z), (g.edges, X, Y, Z)


def test_dsep_equals_partitioned_tsep():
    # d-separation by Z is equivalent to some split of Z t-separating X u Z from Y u Z
    rng = random.Random(26)
    for _ in range(12):
        n = rng.randint(3, 5)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        verts = list(g.vertices)
        for X_set, Y_set, Z_set in _all_disjoint_triples(verts, max_each=2):
            want = d_separated(g, X_set, Y_set, Z_set)
            found = False
            zl = sorted(Z_set)
            for mask in range(2 ** len(zl)):
                Z_X = {zl[i] for i in range(len(zl)) if mask >> i & 1}
                Z_Y = Z_set - Z_X
                if t_separated(g, X_set | Z_set, Y_set | Z_set, Z_X, Z_Y):
                    found = True
                    break
            assert found == want


def _all_disjoint_triples(verts, max_each=2):
    out = []
    for xs in range(1, max_each + 1):
        for ys in range(1, max_each + 1):
            for X in combinations(verts, xs):
                rest = [v for v in verts if v not in X]
                for Y in combinations(rest, ys):
                    rest2 = [v for v in rest if v not in Y]
                    for zs in range(0, min(len(rest2), max_each) + 1):
                        for Z in combinations(rest2, zs):
                            out.append((set(X), set(Y), set(Z)))
    return out


# -- t-separation -----------------------------------------------------------------------------


def test_tsep_disconnected_is_zero():
    g = ProcessGraph.make(["a", "b"], [], [])
    assert t_separation_min(g, {"a"}, {"b"}) == (0, (), ())


def test_tsep_instrument_graph(instrument_graph):
    size, zx, zy = t_separation_min(instrument_graph, {"v"}, {"w"})
    assert size == 1
    assert t_separated(instrument_graph, {"v"}, {"w"}, set(zx), set(zy))


def test_tsep_brute_force_cover_property():
    rng = random.Random(27)
    for _ in range(20):
        g = random_dag(rng, [f"x{i}" for i in range(4)], p=0.6)
        verts = list(g.vertices)
        X = set(rng.sample(verts, 2))
        Y = set(rng.sample(verts, 2))
        size, zx, zy = t_separation_min(g, X, Y)
        assert t_separated(g, X, Y, set(zx), set(zy))
        assert len(zx) + len(zy) == size
        # minimality: no smaller pair separates
        for total in range(size):
            for a in range(total + 1):
                for Z_X in combinations(verts, a):
                    for Z_Y in combinations(verts, total - a):
                        assert not t_separated(g, X, Y, set(Z_X), set(Z_Y))


# Reference t-separation: every trek between X and Y, then subset pairs in the
# order (total, |Z_X|, Z_X, Z_Y).  Exponential; an oracle only.


def _reference_treks_between(graph: ProcessGraph, X, Y) -> list[Trek]:
    return [t for x in sorted(set(X)) for y in sorted(set(Y))
            for t in enumerate_treks(graph, x, y)]


def reference_t_separated(graph: ProcessGraph, X, Y, Z_X, Z_Y) -> bool:
    Z_X, Z_Y = frozenset(Z_X), frozenset(Z_Y)
    return all(vertex_set(t.left) & Z_X or vertex_set(t.right) & Z_Y
               for t in _reference_treks_between(graph, X, Y))


def reference_t_separation_min(graph: ProcessGraph, X, Y):
    sides = [(vertex_set(t.left), vertex_set(t.right))
             for t in _reference_treks_between(graph, X, Y)]
    for total in range(min(len(set(X)), len(set(Y))) + 1):
        for left_size in range(total + 1):
            for Z_X in combinations(graph.vertices, left_size):
                for Z_Y in combinations(graph.vertices, total - left_size):
                    if all(left & set(Z_X) or right & set(Z_Y) for left, right in sides):
                        return total, Z_X, Z_Y
    raise AssertionError("(X, ()) always t-separates")


def test_tsep_matches_brute_force_reference():
    rng = random.Random(29)
    kinds = set()
    for _ in range(1000):
        n_obs, n_lat = rng.randint(2, 9), rng.randint(0, 3)
        labels = [f"v{i}" for i in range(n_obs + n_lat)]
        rng.shuffle(labels)  # label order is not the topological order
        g = random_latent_dag(rng, labels[:n_obs], labels[n_obs:], p=rng.choice([0.2, 0.35, 0.5]),
                              p_latent=0.5)
        verts = list(g.vertices)
        for _ in range(3):
            X = set(rng.sample(verts, rng.randint(0, min(4, len(verts)))))
            Y = set(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
            got = t_separation_min(g, X, Y)
            assert got == reference_t_separation_min(g, X, Y), (g, X, Y)
            kinds.add(("empty X", not X))
            kinds.add(("overlap", bool(X & Y)))
            kinds.add(("latent", bool((X | Y) & set(g.latent))))
            kinds.add(("size 0", got[0] == 0))
            Z_X = set(rng.sample(verts, rng.randint(0, min(3, len(verts)))))
            Z_Y = set(rng.sample(verts, rng.randint(0, min(3, len(verts)))))
            separated = t_separated(g, X, Y, Z_X, Z_Y)
            assert separated == reference_t_separated(g, X, Y, Z_X, Z_Y), (g, X, Y, Z_X, Z_Y)
            kinds.add(("separated", separated))
    assert kinds == {(kind, flag) for kind, _ in kinds for flag in (False, True)}


def test_tsep_matches_readme_quick_tour(instrument_graph):
    # the README's graph g is the instrument graph
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    line = next(line for line in readme.splitlines()
                if line.startswith('t_separation_min(g, {"v"}, {"w"})'))
    assert ast.literal_eval(line.split("#")[1].strip()) == (1, (), ("w",))
    assert t_separation_min(instrument_graph, {"v"}, {"w"}) == (1, (), ("w",))


def test_tsep_scales_to_eighteen_observed_vertices():
    rng = random.Random(76)
    cases = []
    for n, k in ((16, 6), (18, 7)):
        g = random_latent_dag(rng, [f"x{i:02d}" for i in range(n)], ["l0", "l1", "l2"], p=0.3)
        cases.append((g, set(rng.sample(g.observed, k)), set(rng.sample(g.observed, k))))
    start = time.perf_counter()
    for g, X, Y in cases:
        size, zx, zy = t_separation_min(g, X, Y)
        assert t_separated(g, X, Y, zx, zy) and size == len(zx) + len(zy) > 0
    assert time.perf_counter() - start < 1.0


# -- half-trek reachability and the criterion ------------------------------------------------------


def test_htr_no_edges_is_empty():
    g = ProcessGraph.make(["a", "b"], [], [])
    assert htr(g, {"a"}, frozenset()) == frozenset()


def test_htr_confounded_chain(confounded_chain_graph):
    assert {"v2", "v3", "v4", "v5"} <= htr(confounded_chain_graph, {"v1"}, frozenset())
    assert htr(confounded_chain_graph, {"v1", "v4"}, frozenset({"l"})) == frozenset({"v5"})


def test_htr_monotone_in_avoided_latents():
    rng = random.Random(28)
    for _ in range(20):
        g = random_latent_dag(rng, [f"x{i}" for i in range(4)], ["l0", "l1"], p=0.4)
        x = rng.choice(list(g.observed))
        small = htr(g, {x}, frozenset())
        mid = htr(g, {x}, frozenset({"l0"}))
        big = htr(g, {x}, frozenset({"l0", "l1"}))
        assert big <= mid <= small


def test_lfhtc_parentless_vertex_empty_triple(confounded_chain_graph):
    assert lfhtc_check(confounded_chain_graph, "v1", LfhtcTriple.make()).ok


def test_lfhtc_confounded_chain_v4_triple(confounded_chain_graph):
    triple = LfhtcTriple.make(Y=["v2", "v3"], W=["v1"], Lp=["l"])
    assert lfhtc_check(confounded_chain_graph, "v4", triple).ok


def test_lfhtc_condition3_fails_without_confounding_edge(confounded_chain_graph):
    triple = LfhtcTriple.make(Y=["v2", "v3"], W=["v1"], Lp=["l"])
    pruned = confounded_chain_graph.with_edges([e for e in confounded_chain_graph.edges if e != ("l", "v1")])
    result = lfhtc_check(pruned, "v4", triple)
    assert not result.ok
    assert result.failed == ("half-trek-system",)


def test_lfhtc_malformed_triple_rejected(confounded_chain_graph):
    with pytest.raises(GraphValidationError):
        lfhtc_check(confounded_chain_graph, "v4", LfhtcTriple.make(Y=["l"]))
    with pytest.raises(GraphValidationError):
        lfhtc_check(confounded_chain_graph, "v4", LfhtcTriple.make(Y=["v4"]))


def test_lfhtc_search_regression_on_fully_observed():
    rng = random.Random(29)
    for _ in range(10):
        g = random_dag(rng, [f"x{i}" for i in range(4)], p=0.6)
        for v in g.observed:
            triple = lfhtc_search(g, v)
            assert triple == LfhtcTriple.make(Y=g.pa_observed(v))


def test_lfhtc_search_confounded_chain(confounded_chain_graph):
    assert lfhtc_search(confounded_chain_graph, "v4") == LfhtcTriple.make(["v2", "v3"], ["v1"], ["l"])
    assert lfhtc_search(confounded_chain_graph, "v3") is None
    after = lfhtc_search(confounded_chain_graph, "v3", frozenset({("v3", "v4")}))
    assert after == LfhtcTriple.make(["v1", "v2"], ["v4"], ["l"])


def test_lfhtc_order_confounded_chain(confounded_chain_graph):
    order = lfhtc_order(confounded_chain_graph)
    assert order.ok
    assert [v for v, _ in order.steps] == ["v1", "v2", "v4", "v5", "v3"]
    triples = dict(order.steps)
    assert triples["v4"] == LfhtcTriple.make(["v2", "v3"], ["v1"], ["l"])
    assert triples["v3"] == LfhtcTriple.make(["v1", "v2"], ["v4"], ["l"])


def test_lfhtc_order_topological_on_dag():
    g = ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("b", "c"), ("a", "c")])
    order = lfhtc_order(g)
    assert order.ok
    assert [v for v, _ in order.steps] == ["a", "b", "c"]
    assert all(t.is_regression for _, t in order.steps)


def test_lfhtc_unidentifiable_reported():
    # single confounded edge with no instrument: exhaustive search finds nothing
    g = ProcessGraph.make(["u", "v"], ["l"], [("u", "v"), ("l", "u"), ("l", "v")])
    order = lfhtc_order(g)
    assert order.unresolved == ("v",)
    assert lfhtc_search(g, "v") is None


def test_prerequisite_edges_confounded_chain(confounded_chain_graph):
    triple = LfhtcTriple.make(["v1", "v2"], ["v4"], ["l"])
    assert lfhtc_prerequisite_edges(confounded_chain_graph, "v3", triple) == (("v3", "v4"),)


def _random_lfhtc_graphs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        observed = [f"x{i}" for i in range(rng.randint(3, 8))]
        latent = [f"l{i}" for i in range(rng.randint(0, 3))]
        yield random_latent_dag(rng, observed, latent, p=rng.choice([0.3, 0.5]),
                                p_latent=rng.choice([0.4, 0.6]))


def test_lfhtc_order_matches_backtracking_reference():
    for g in _random_lfhtc_graphs(71, 200):
        order = lfhtc_order(g)
        assert (order.steps, order.unresolved) == reference_lfhtc_order(g)


def test_lfhtc_check_matches_backtracking_reference():
    rng = random.Random(72)
    graphs = list(_random_lfhtc_graphs(73, 100))
    checks, linked_cases = set(), set()
    for _ in range(2000):
        g = rng.choice(graphs)
        v = rng.choice(g.observed)
        pa = set(g.pa_observed(v))
        others = [x for x in g.observed if x != v]
        k = rng.randint(0, min(len(g.latent), len(others)))
        Lp = rng.sample(g.latent, k)
        # mostly W outside pa(v) and Y outside W, so condition 3 is reached
        w_pool = [x for x in others if rng.random() < 0.2 or x not in pa]
        W = rng.sample(w_pool, min(k, len(w_pool)))
        pool = [x for x in others if x not in W or rng.random() < 0.1]
        size = len(pa) + k + rng.choice([0, 0, 0, 0, 1, -1])
        Y = rng.sample(pool, max(0, min(size, len(pool))))
        triple = LfhtcTriple.make(Y, W, Lp)
        got = lfhtc_check(g, v, triple)
        assert got == reference_lfhtc_check(g, v, triple), (g, v, triple)
        checks.add((got.condition3, bool(W)))
        # condition 3 on its own, also where condition 2 fails
        if len(Y) == len(pa) + len(W) and not pa & set(W) and not set(Y) & set(W):
            linked = _half_trek_linked(g, v, W, Lp, sorted(Y), len(Y)) is not None
            assert linked == reference_half_trek_system_exists(g, Y, pa | set(W), W, Lp), \
                (g, v, triple)
            linked_cases.add((linked, got.condition2))
    both = {(False, False), (False, True), (True, False), (True, True)}
    assert checks == both and linked_cases == both


def test_lfhtc_order_scales_to_fourteen_observed_vertices():
    rng = random.Random(74)
    graphs = [random_latent_dag(rng, [f"x{i:02d}" for i in range(n)], ["l0", "l1", "l2"], p=0.3)
              for n in (12, 12, 12, 14, 14, 14)]
    start = time.perf_counter()
    for g in graphs:
        lfhtc_order(g)
    assert time.perf_counter() - start < 3.0


# -- minimal half-trek subsystems ----------------------------------------------------------------------


def test_minimal_subsystem_keeps_minimal_input(confounded_chain_graph):
    system = TrekSystem((
        Trek("l", Path(("l", "v2")), Path(("l", "v1"))),
        Trek("v3", Path(("v3",)), Path(("v3",))),
    ), 1)
    reduced = minimal_halftrek_subsystem(confounded_chain_graph, system)
    assert set(reduced.treks) == set(system.treks)


def test_minimal_subsystem_excises_source_revisit():
    # the confounded trek revisits its own source; the directed suffix replaces it
    g = ProcessGraph.make(["x", "y"], ["l"], [("l", "x"), ("x", "y"), ("l", "y")])
    system = TrekSystem((Trek("l", Path(("l", "x")), Path(("l", "x", "y"))),), 1)
    reduced = minimal_halftrek_subsystem(g, system)
    assert reduced.treks == (Trek("x", Path(("x",)), Path(("x", "y"))),)
    assert trek_edges(reduced.treks[0]) == (("x", "y"),)  # edge subset of the input


def test_minimal_subsystem_rejects_non_half_trek(instrument_graph):
    bad = TrekSystem((Trek("u", Path(("u", "v")), Path(("u", "v", "w"))),), 1)
    with pytest.raises(ValueError):
        minimal_halftrek_subsystem(instrument_graph, bad)


def test_latent_factor_half_trek_shapes(confounded_chain_graph):
    treks = latent_factor_half_treks(confounded_chain_graph, "v2", "v4")
    # directed: v2 -> v3 -> v4; confounded: v2 <- l -> ... -> v4
    shapes = {(t.top, t.left.vertices, t.right.vertices) for t in treks}
    assert ("v2", ("v2",), ("v2", "v3", "v4")) in shapes
    assert ("l", ("l", "v2"), ("l", "v4")) in shapes
    assert all(is_empty(t.left) or (len(t.left.vertices) == 2 and t.top == "l") for t in treks)
