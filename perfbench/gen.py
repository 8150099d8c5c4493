"""Seeded input generation: graphs, exact parameters and their file forms.

Everything here is plain Python data, independent of svarspec, so the
program only ever sees what these functions produce.  A graph is a dict in
the program's graph-file format; parameters are dicts keyed like
`SvarParams` with `Fraction` values.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

#: Stability margin of the auto-lag draws: sum |phi_v| <= 1 - MARGIN.
MARGIN = Fraction(1, 10)


def draw_graph(rng: random.Random, n_obs: int, n_lat: int, m: int, fan: int,
               order: int, full_lags: bool) -> dict:
    """Random DAG with exactly `m` observed edges and `fan` children per latent.

    Observed edges follow the label order x0 < x1 < ..., so the graph is
    acyclic.  With `full_lags` every edge carries lags 0..order and every
    vertex auto lags 1..order; otherwise lag sets are drawn as in the
    acceptance suite's random instances (criterion 3).
    """
    obs = [f"x{i}" for i in range(n_obs)]
    lat = [f"l{i}" for i in range(n_lat)]
    pairs = [(obs[i], obs[j]) for i in range(n_obs) for j in range(i + 1, n_obs)]
    edges = sorted(rng.sample(pairs, m))
    for l in lat:
        edges += [(l, v) for v in sorted(rng.sample(obs, fan))]
    entries, auto = [], {}
    for a, b in edges:
        if full_lags:
            lags = list(range(order + 1))
        else:
            lags = sorted(rng.sample(range(order + 1), rng.randint(1, order + 1)))
        entries.append({"from": a, "to": b, "lags": lags})
    for v in sorted(obs + lat):
        if full_lags:
            auto[v] = list(range(1, order + 1))
        elif rng.random() < 0.7:
            auto[v] = sorted(rng.sample(range(1, order + 1), rng.randint(1, order)))
    return {"observed": obs, "latent": lat, "edges": entries, "auto": auto}


def _coeff(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    if value > 1:
        value = 1 / value
    return rng.choice((-1, 1)) * value


def draw_params(rng: random.Random, graph: dict) -> dict:
    """Nonzero rational coefficients on every declared lag; stable auto lags."""
    cross = {(e["from"], e["to"], k): _coeff(rng) for e in graph["edges"] for k in e["lags"]}
    auto = {}
    for v, lags in sorted(graph["auto"].items()):
        phis = {k: _coeff(rng) for k in lags}
        total = sum(abs(c) for c in phis.values())
        scale = min(Fraction(1), (1 - MARGIN) / total)
        auto.update({(v, k): c * scale for k, c in phis.items()})
    vertices = graph["observed"] + graph["latent"]
    noise = {v: Fraction(rng.randint(1, 12), rng.randint(1, 6)) for v in sorted(vertices)}
    return {"cross": cross, "auto": auto, "noise": noise}


def _poly_gcd_degree(f: list[Fraction], g: list[Fraction]) -> int:
    """Degree of gcd(f, g) over Q by plain Euclid (tiny inputs only)."""
    def strip(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p
    f, g = strip(list(f)), strip(list(g))
    while g:
        r = list(f)
        while len(r) >= len(g) and r:
            q = r[-1] / g[-1]
            shift = len(r) - len(g)
            for i, c in enumerate(g):
                r[shift + i] -= q * c
            r = strip(r)
        f, g = g, r
    return len(f) - 1


def links_coprime(graph: dict, params: dict) -> bool:
    """Whether every link function A_ab(z) / (1 - A_b(z)) is in lowest terms.

    A common factor would cancel in the canonical form and hide lags, so the
    drawn coefficients could not be read back; such a draw is non-generic.
    """
    for e in graph["edges"]:
        a, b = e["from"], e["to"]
        if a in graph["latent"]:
            continue
        num = [Fraction(0)] * (max(e["lags"]) + 1)
        for k in e["lags"]:
            num[k] = params["cross"][(a, b, k)]
        den = [Fraction(1)] + [Fraction(0)] * max(graph["auto"].get(b, [0]))
        for k in graph["auto"].get(b, []):
            den[k] = -params["auto"][(b, k)]
        if _poly_gcd_degree(num, den) > 0:
            return False
    return True


def params_to_json(params: dict) -> dict:
    """The program's parameter-file format, coefficients as "p/q" strings."""
    return {
        "cross": [{"from": a, "to": b, "lag": k, "coeff": str(c)}
                  for (a, b, k), c in sorted(params["cross"].items())],
        "auto": [{"vertex": v, "lag": k, "coeff": str(c)}
                 for (v, k), c in sorted(params["auto"].items())],
        "noise": [{"vertex": v, "variance": str(w)}
                  for v, w in sorted(params["noise"].items())],
    }


def write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
