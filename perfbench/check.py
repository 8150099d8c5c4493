"""Correctness checks computed apart from svarspec.

Each check takes the generated inputs and the program's outputs (objects or
parsed output files) and returns a list of problems, empty when the outputs
are right.  Nothing here imports svarspec: spectra are evaluated with numpy
from the drawn coefficients, CPDAGs come from the true DAG, and minimal
t-separation sizes from a max-flow.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

#: Relative tolerance when an exact spectrum is compared with numpy.
SPECTRUM_RTOL = 1e-8


def _vertices(graph: dict) -> list[str]:
    return sorted(graph["observed"] + graph["latent"])


def _parents(graph: dict) -> dict[str, list[str]]:
    out = {v: [] for v in _vertices(graph)}
    for e in graph["edges"]:
        out[e["to"]].append(e["from"])
    return out


def _children(graph: dict) -> dict[str, list[str]]:
    out = {v: [] for v in _vertices(graph)}
    for e in graph["edges"]:
        out[e["from"]].append(e["to"])
    return out


# -- spectra --------------------------------------------------------------------


def spectrum_numpy(graph: dict, params: dict, zs) -> tuple[list[str], np.ndarray]:
    """S(z) = (I - H^T)^{-1} S_I (I - H(1/z))^{-1} over all vertices, at each z.

    Built directly from the drawn coefficients: H[a, b] = A_ab(z) / (1 - A_b(z))
    and S_I = diag(sigma_v^2 / ((1 - A_v(z)) (1 - A_v(1/z)))).  Returns the
    vertex labels and an array of shape (len(zs), n, n).
    """
    labels = _vertices(graph)
    index = {v: i for i, v in enumerate(labels)}
    n = len(labels)

    def auto_at(v, z):
        return sum(float(c) * z**k for (u, k), c in params["auto"].items() if u == v)

    def transfer(z):
        H = np.zeros((n, n), dtype=complex)
        for (a, b, k), c in params["cross"].items():
            H[index[a], index[b]] += float(c) * z**k
        for b in labels:
            H[:, index[b]] /= 1 - auto_at(b, z)
        return H

    out = np.zeros((len(zs), n, n), dtype=complex)
    eye = np.eye(n)
    for f, z in enumerate(zs):
        S_I = np.diag([float(params["noise"][v]) / ((1 - auto_at(v, z)) * (1 - auto_at(v, 1 / z)))
                       for v in labels])
        left = np.linalg.inv(eye - transfer(z).T)
        right = np.linalg.inv(eye - transfer(1 / z))
        out[f] = left @ S_I @ right
    return labels, out


def _eval_exact(coeffs, a: int, b: int, c: int) -> tuple[Fraction, Fraction]:
    """p(z) at z = (a + bi) / c, exactly, as (real, imaginary) Fractions.

    Homogeneous Horner on Gaussian integers: with L clearing the coefficient
    denominators and d = deg p, the loop computes L c^d p(z).  Evaluating in
    floats instead loses up to 1e-7 relative near a pole, where canonical
    numerators and denominators of degree ~20 cancel.
    """
    if not coeffs:
        return Fraction(0), Fraction(0)
    L = math.lcm(*(Fraction(x).denominator for x in coeffs))
    ints = [int(Fraction(x) * L) for x in coeffs]
    re, im, power = 0, 0, 1
    for p in reversed(ints):
        re, im = re * a - im * b + p * power, re * b + im * a
        power *= c
    scale = L * power // c
    return Fraction(re, scale), Fraction(im, scale)


#: Points (a, b, c) with z = (a + bi) / c exactly on the unit circle:
#: z = ((q^2 - p^2) + 2pq i) / (q^2 + p^2) has angle 2 atan(p/q) for p/q in
#: 1/7, 2/3, 5/2, 9, i.e. 0.28 to 2.92, the last near z = -1 where auto lags
#: close to -1 make the spectrum peak.
UNIT_POINTS = [(q * q - p * p, 2 * p * q, q * q + p * p) for p, q in ((1, 7), (2, 3), (5, 2), (9, 1))]


def compare_spectrum(graph: dict, params: dict, labels, entries) -> list[str]:
    """Compare exact entries with numpy at each of UNIT_POINTS.

    `entries[i][j]` is a pair (num, den) of coefficient sequences for the
    observed labels `labels`; each is evaluated exactly, then rounded.
    """
    zs = [complex(a, b) / c for a, b, c in UNIT_POINTS]
    full_labels, expected = spectrum_numpy(graph, params, zs)
    idx = [full_labels.index(v) for v in labels]
    problems = []
    for f, (a, b, c) in enumerate(UNIT_POINTS):
        want = expected[f][np.ix_(idx, idx)]
        got = np.zeros_like(want)
        for i, row in enumerate(entries):
            for j, (num, den) in enumerate(row):
                nr, ni = _eval_exact(num, a, b, c)
                dr, di = _eval_exact(den, a, b, c)
                norm = dr * dr + di * di
                got[i, j] = complex(float((nr * dr + ni * di) / norm),
                                    float((ni * dr - nr * di) / norm))
        err = np.abs(got - want).max()
        if not err <= SPECTRUM_RTOL * np.abs(want).max():
            problems.append(f"spectrum differs from numpy by {err:.3g} at z={zs[f]:.4f}")
    return problems


def ratfn_json_pair(entry: dict) -> tuple[list[Fraction], list[Fraction]]:
    return [Fraction(s) for s in entry["num"]], [Fraction(s) for s in entry["den"]]


# -- identification ---------------------------------------------------------------


def check_certificate(graph: dict, params: dict, cert: dict, solvable) -> list[str]:
    """Solved links carry the drawn lag coefficients exactly; each step meets
    the LF-HTC (check_lfhtc_order); an observed edge is listed as unresolved
    exactly when `lfhtc_solvable` leaves its head unsolved, and is solved
    otherwise."""
    observed = set(graph["observed"])
    steps = [(s["vertex"], s["triple"]["Y"], s["triple"]["W"], s["triple"]["Lp"])
             for s in cert["steps"]]
    problems = check_lfhtc_order(graph, steps, cert["unresolved_vertices"], solvable)
    solved = {}
    for step in cert["steps"]:
        for item in step["solved"]:
            solved[(item["from"], item["to"])] = ratfn_json_pair(item["link"])
    unresolved = {tuple(e) for e in cert["unresolved_edges"]}
    want_unresolved = {(e["from"], e["to"]) for e in graph["edges"]
                       if e["from"] in observed and e["to"] not in solvable}
    if unresolved != want_unresolved:
        problems.append(f"unresolved edges {sorted(unresolved)}, "
                        f"the LF-HTC fixpoint leaves {sorted(want_unresolved)}")
    for e in graph["edges"]:
        a, b = e["from"], e["to"]
        if a not in observed or b not in solvable:
            continue
        if (a, b) not in solved:
            problems.append(f"edge {a}->{b} into a solvable vertex is not solved")
            continue
        num, den = solved[(a, b)]
        if not den or den[0] == 0:
            problems.append(f"link {a}->{b} has a denominator without constant term")
            continue
        d0 = den[0]
        cross = {k: c / d0 for k, c in enumerate(num) if c}
        auto = {k: -c / d0 for k, c in enumerate(den) if c and k > 0}
        want_cross = {k: c for (x, y, k), c in params["cross"].items() if (x, y) == (a, b)}
        want_auto = {k: c for (v, k), c in params["auto"].items() if v == b}
        if cross != want_cross or auto != want_auto:
            problems.append(f"link {a}->{b} gives coefficients {cross} / {auto}, "
                            f"drawn {want_cross} / {want_auto}")
    extra = set(solved) - {(e["from"], e["to"]) for e in graph["edges"]}
    if extra:
        problems.append(f"solved non-edges {sorted(extra)}")
    return problems


# -- CPDAG ---------------------------------------------------------------------------


def true_cpdag(graph: dict) -> dict:
    """The CPDAG of a DAG: skeleton, v-structures, then Meek rules R1-R3.

    PC with a perfect d-separation oracle returns exactly this graph.
    """
    nodes = sorted(graph["observed"])
    adj = {v: set() for v in nodes}
    parents = {v: set() for v in nodes}
    for e in graph["edges"]:
        a, b = e["from"], e["to"]
        adj[a].add(b)
        adj[b].add(a)
        parents[b].add(a)
    directed = set()
    for c in nodes:
        for a, b in combinations(sorted(parents[c]), 2):
            if b not in adj[a]:
                directed |= {(a, c), (b, c)}
    undirected = {frozenset((a, b)) for a in nodes for b in adj[a]
                  if (a, b) not in directed and (b, a) not in directed}

    def linked(a, b):
        return frozenset((a, b)) in undirected

    def adjacent(a, b):
        return b in adj[a]

    changed = True
    while changed:
        changed = False
        for a, b in sorted((a, b) for a in nodes for b in nodes if a != b and linked(a, b)):
            r1 = any((c, a) in directed and not adjacent(c, b) for c in nodes if c != b)
            r2 = any((a, c) in directed and (c, b) in directed for c in nodes)
            into_b = [c for c in nodes if (c, b) in directed and linked(a, c)]
            r3 = any(not adjacent(c, d) for c, d in combinations(into_b, 2))
            if r1 or r2 or r3:
                undirected.discard(frozenset((a, b)))
                directed.add((a, b))
                changed = True
    return {
        "directed": sorted(f"{a}->{b}" for a, b in directed),
        "undirected": sorted("--".join(sorted(e)) for e in undirected),
    }


def check_cpdag(graph: dict, got: dict) -> list[str]:
    want = true_cpdag(graph)
    got = {"directed": sorted(got["directed"]), "undirected": sorted(got["undirected"])}
    return [] if got == want else [f"CPDAG {got} differs from the true CPDAG {want}"]


# -- t-separation by max-flow ------------------------------------------------------


def _arc(arcs: dict, u, w, cap) -> None:
    arcs.setdefault(u, {})
    arcs[u][w] = arcs[u].get(w, 0) + cap
    arcs.setdefault(w, {}).setdefault(u, 0)


def _network(graph: dict, removed, source_arcs, sink_arcs, left_arcs) -> dict:
    """Unit vertex-capacity network on a left and a right copy of each vertex.

    Each copy (v, "L") / (v, "R") is split into in/out nodes joined by a unit
    arc, unless it is in `removed`; a flow path climbs left copies along
    `left_arcs` (pairs (child, parent)), crosses to the right side at its top
    and descends right copies along the graph's edges, so max-flow equals
    the largest number of paths that share no copy.
    """
    arcs: dict = {"source": {}, "sink": {}}
    big = len(_vertices(graph)) * 2 + 1
    for v in _vertices(graph):
        for side in "LR":
            if (v, side) not in removed:
                _arc(arcs, (v, side, "in"), (v, side, "out"), 1)
        _arc(arcs, (v, "L", "out"), (v, "R", "in"), big)
    for b, a in left_arcs:
        _arc(arcs, (b, "L", "out"), (a, "L", "in"), big)
    for e in graph["edges"]:
        _arc(arcs, (e["from"], "R", "out"), (e["to"], "R", "in"), big)
    for x in source_arcs:
        _arc(arcs, "source", (x, "L", "in"), big)
    for y in sink_arcs:
        _arc(arcs, (y, "R", "out"), "sink", big)
    return arcs


def _trek_network(graph: dict, X, Y, cut_left=(), cut_right=()):
    """Network whose source-sink paths are the treks from X to Y.

    A trek climbs its left side against edge direction, crosses at its top,
    then descends its right side, so max-flow equals the minimum number of
    copies meeting every trek (Sullivant, Talaska & Draisma 2010).  Copies
    in `cut_left` / `cut_right` are removed.
    """
    removed = {(v, "L") for v in cut_left} | {(v, "R") for v in cut_right}
    left = [(e["to"], e["from"]) for e in graph["edges"]]
    return _network(graph, removed, X, Y, left)


def max_flow(arcs: dict) -> int:
    """Edmonds-Karp on a residual-capacity dict (modified in place)."""
    flow = 0
    while True:
        parent = {"source": None}
        queue = deque(["source"])
        while queue and "sink" not in parent:
            u = queue.popleft()
            for w, cap in arcs[u].items():
                if cap > 0 and w not in parent:
                    parent[w] = u
                    queue.append(w)
        if "sink" not in parent:
            return flow
        path, w = [], "sink"
        while parent[w] is not None:
            path.append((parent[w], w))
            w = parent[w]
        push = min(arcs[u][w] for u, w in path)
        for u, w in path:
            arcs[u][w] -= push
            arcs[w][u] += push
        flow += push


def min_tsep_size(graph: dict, X, Y) -> int:
    return max_flow(_trek_network(graph, X, Y))


def check_tsep(graph: dict, X, Y, size: int, Z_X, Z_Y) -> list[str]:
    """(Z_X, Z_Y) t-separates X from Y and no smaller pair does."""
    problems = []
    if size != len(Z_X) + len(Z_Y):
        problems.append(f"size {size} != |Z_X| + |Z_Y| for {Z_X}, {Z_Y}")
    if max_flow(_trek_network(graph, X, Y, Z_X, Z_Y)) != 0:
        problems.append(f"({Z_X}, {Z_Y}) does not t-separate {X} from {Y}")
    best = min_tsep_size(graph, X, Y)
    if size != best:
        problems.append(f"t-separation size {size}, max-flow gives {best}")
    return problems


# -- LF-HTC ordering ------------------------------------------------------------------


def _descendants(children, v) -> set[str]:
    seen, stack = set(), list(children[v])
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack.extend(children[w])
    return seen


def _htr(graph: dict, sources, avoid) -> set[str]:
    """Observed vertices half-trek reachable from `sources` avoiding latents `avoid`."""
    children, parents = _children(graph), _parents(graph)
    latent = set(graph["latent"])
    out = set()
    for x in sources:
        out |= _descendants(children, x)
        for l in parents[x]:
            if l in latent and l not in avoid:
                out |= _descendants(children, l)
    return out & set(graph["observed"])


def _half_trek_system(graph: dict, sources, pa, W, Lp) -> bool:
    """Whether |pa| + |W| of `sources` reach pa | W by a sided-non-intersecting
    system of latent-factor half-treks, the treks into each w in W being
    y <- l -> w with l in Lp (condition 3 of the LF-HTC).

    The treks into W are single edges, so they are enumerated: each w takes
    a distinct source y and a distinct l in Lp with l -> y and l -> w, which
    uses the left copies of y and l and the right copies of l and w.  The
    treks into pa are then a unit-capacity max-flow from the other sources:
    a half-trek's left side is its source alone or one latent edge l -> y.
    """
    parents = _parents(graph)
    latent = set(graph["latent"])
    left = [(y, l) for y in graph["observed"] for l in parents[y] if l in latent]

    def assign(i, used_y, used_l):
        if i == len(W):
            removed = {(y, "L") for y in used_y} | {(l, s) for l in used_l for s in "LR"} \
                | {(w, "R") for w in W}
            rest = [y for y in sources if y not in used_y]
            return max_flow(_network(graph, removed, rest, pa, left)) == len(pa)
        w = W[i]
        return any(assign(i + 1, used_y | {y}, used_l | {l})
                   for l in Lp if l not in used_l and l in parents[w]
                   for y in sources if y not in used_y and l in parents[y])

    return assign(0, frozenset(), frozenset())


def lfhtc_solvable(graph: dict) -> set[str]:
    """Observed vertices that the LF-HTC recursion solves, by its own fixpoint.

    A vertex v is solvable once some triple (Y, W, Lp) meets the three
    conditions and every link into W, and into the part of Y half-trek
    reachable from W | {v} avoiding Lp, is solved.  Solving only adds links,
    so the fixpoint does not depend on the order vertices are tried in.  For
    each (Lp, W) the sources Y that may be used are those meeting the
    latent-parent condition and the prerequisites one at a time; condition 3
    over all Y of the right size is then one call of _half_trek_system.
    """
    parents = _parents(graph)
    observed, latent = graph["observed"], graph["latent"]
    pa_obs = {v: [p for p in parents[v] if p in set(observed)] for v in observed}
    pa_lat = {v: {p for p in parents[v] if p in set(latent)} for v in observed}
    solved: set[str] = set()

    def ready(y):
        return y in solved or not pa_obs[y]

    def usable(v):
        pa = pa_obs[v]
        others = [x for x in observed if x != v]
        w_pool = [x for x in others if x not in pa and ready(x)]
        for k in range(min(len(latent), len(w_pool)) + 1):
            for Lp in combinations(latent, k):
                for W in combinations(w_pool, k):
                    reach = _htr(graph, set(W) | {v}, Lp)
                    lat_wv = set().union(*(pa_lat[u] for u in W + (v,)))
                    pool = [y for y in others if y not in W and (ready(y) or y not in reach)
                            and pa_lat[y] & lat_wv <= set(Lp)]
                    if len(pool) >= len(pa) + k and _half_trek_system(graph, pool, pa, W, Lp):
                        return True
        return False

    changed = True
    while changed:
        changed = False
        for v in observed:
            if v not in solved and usable(v):
                solved.add(v)
                changed = True
    return solved


def check_lfhtc_order(graph: dict, steps, unresolved, solvable) -> list[str]:
    """Each step's triple meets the three LF-HTC conditions, recomputed here,
    and the links it needs were solved by earlier steps; the unresolved
    vertices are exactly those `lfhtc_solvable` cannot solve.

    `steps` is a sequence of (v, Y, W, Lp); vertices without observed
    parents may be left out of it.
    """
    problems = []
    parents = _parents(graph)
    observed, latent = set(graph["observed"]), set(graph["latent"])
    done: set[str] = set()
    for v, Y, W, Lp in steps:
        Y, W, Lp = set(Y), set(W), set(Lp)
        pa = {p for p in parents[v] if p in observed}
        if v in done or v not in observed or v in Y | W \
                or not (Y | W) <= observed or not Lp <= latent:
            problems.append(f"step {v}: malformed triple {sorted(Y)}, {sorted(W)}, {sorted(Lp)}")
            continue
        if len(Y) != len(pa) + len(Lp) or len(W) != len(Lp) or W & pa:
            problems.append(f"step {v}: size condition fails")
        lat_y = {l for y in Y for l in parents[y] if l in latent}
        lat_wv = {l for u in W | {v} for l in parents[u] if l in latent}
        if Y & W or not (lat_y & lat_wv) <= Lp:
            problems.append(f"step {v}: latent-parent condition fails")
        elif not _half_trek_system(graph, sorted(Y), sorted(pa), sorted(W), sorted(Lp)):
            problems.append(f"step {v}: no half-trek system from Y onto pa | W")
        heads = W | (Y & _htr(graph, W | {v}, Lp))
        missing = sorted(y for y in heads if y not in done and any(p in observed for p in parents[y]))
        if missing:
            problems.append(f"step {v}: links into {missing} used before they were solved")
        done.add(v)
    want = sorted(observed - solvable)
    if sorted(unresolved) != want:
        problems.append(f"unresolved vertices {sorted(unresolved)}, the LF-HTC fixpoint leaves {want}")
    return problems


# -- Welch estimate -----------------------------------------------------------------

#: Allowed error of a Welch entry, in units of sqrt(S_ii S_jj / segments).
WELCH_SIGMAS = 8.0


def check_estimate(graph: dict, params: dict, est: dict) -> list[str]:
    """|S_hat_ij - S_ij| <= WELCH_SIGMAS * sqrt(S_ii S_jj / K) at every
    frequency, with S evaluated by numpy at z = exp(-i theta) and K the
    segment count."""
    labels, exact = spectrum_numpy(graph, params,
                                   [complex(math.cos(t), -math.sin(t)) for t in est["frequencies"]])
    if list(est["labels"]) != labels:
        return [f"estimate labels {est['labels']} differ from {labels}"]
    got = np.array([np.array(m["real"]) + 1j * np.array(m["imag"]) for m in est["matrices"]])
    diag = np.real(np.einsum("fii->fi", exact))
    scale = np.sqrt(diag[:, :, None] * diag[:, None, :] / est["segment_count"])
    ratio = np.abs(got - exact) / scale
    worst = float(ratio.max())
    if not worst <= WELCH_SIGMAS:
        return [f"Welch estimate off by {worst:.2f} sigma (allowed {WELCH_SIGMAS})"]
    return []
