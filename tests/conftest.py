"""Shared fixtures: benchmark graphs and random instance helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from svarspec.graph import ProcessGraph, TimeSeriesGraph
from svarspec.ratfield import Poly, RatFn


@pytest.fixture
def instrument_graph() -> ProcessGraph:
    """Three observed processes in a chain, one latent confounding the last two."""
    return ProcessGraph.make(
        ["u", "v", "w"], ["l"],
        [("u", "v"), ("v", "w"), ("l", "v"), ("l", "w")],
    )


@pytest.fixture
def instrument_tsg(instrument_graph) -> TimeSeriesGraph:
    return TimeSeriesGraph.full(instrument_graph, 1)


@pytest.fixture
def confounded_chain_graph() -> ProcessGraph:
    """Observed chain v2 -> v3 -> v4 -> v5 plus v1, all confounded by one latent."""
    return ProcessGraph.make(
        ["v1", "v2", "v3", "v4", "v5"], ["l"],
        [("v2", "v3"), ("v3", "v4"), ("v4", "v5"),
         ("l", "v1"), ("l", "v2"), ("l", "v3"), ("l", "v4"), ("l", "v5")],
    )


@pytest.fixture
def confounded_chain_tsg(confounded_chain_graph) -> TimeSeriesGraph:
    return TimeSeriesGraph.full(confounded_chain_graph, 1)


@pytest.fixture
def fork3_graph() -> ProcessGraph:
    """One source driving two sinks; its cross entry has generic rank one."""
    return ProcessGraph.make(["1", "2", "3"], [], [("1", "2"), ("1", "3")])


@pytest.fixture
def fork3_tsg(fork3_graph) -> TimeSeriesGraph:
    return TimeSeriesGraph.full(fork3_graph, 1)


@pytest.fixture
def chain_graph() -> ProcessGraph:
    return ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("b", "c")])


@pytest.fixture
def chain_tsg(chain_graph) -> TimeSeriesGraph:
    return TimeSeriesGraph.full(chain_graph, 1)


# -- random instance helpers ---------------------------------------------------


def random_dag(rng: random.Random, labels, p: float = 0.5) -> ProcessGraph:
    """Random DAG on the given labels: edges follow the label order."""
    labels = list(labels)
    edges = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if rng.random() < p
    ]
    return ProcessGraph.make(labels, [], edges)


def random_latent_dag(rng: random.Random, observed, latent, p: float = 0.5,
                      p_latent: float = 0.6) -> ProcessGraph:
    obs = list(observed)
    edges = [
        (obs[i], obs[j])
        for i in range(len(obs))
        for j in range(i + 1, len(obs))
        if rng.random() < p
    ]
    for l in latent:
        targets = [v for v in obs if rng.random() < p_latent]
        edges.extend((l, v) for v in targets)
    return ProcessGraph.make(obs, latent, edges)


def random_cyclic_graph(rng: random.Random, n: int) -> ProcessGraph:
    """Random edges in both directions on n >= 2 observed vertices, with a 2-cycle."""
    labels = [f"x{i}" for i in range(n)]
    edges = {(a, b) for a in labels for b in labels if a != b and rng.random() < 0.3}
    a, b = rng.sample(labels, 2)
    return ProcessGraph.make(labels, [], sorted(edges | {(a, b), (b, a)}))


def random_tsg(rng: random.Random, graph: ProcessGraph, max_order: int = 1) -> TimeSeriesGraph:
    cross = {}
    for e in graph.edges:
        size = rng.randint(1, max_order + 1)
        cross[e] = tuple(sorted(rng.sample(range(max_order + 1), size)))
    auto = {
        v: tuple(sorted(rng.sample(range(1, max_order + 1), rng.randint(1, max_order))))
        for v in graph.vertices
        if max_order >= 1 and rng.random() < 0.7
    }
    return TimeSeriesGraph.make(graph, cross, auto)


def dag_shapes(max_nodes: int):
    """Every DAG with a fixed topological labelling on 1..max_nodes vertices."""
    for n in range(1, max_nodes + 1):
        verts = [f"x{i}" for i in range(n)]
        pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(pairs)):
            yield ProcessGraph.make(verts, [], [e for i, e in enumerate(pairs) if mask >> i & 1])


def random_poly(rng: random.Random, max_degree: int = 3, zero_ok: bool = True) -> Poly:
    degree = rng.randint(-1 if zero_ok else 0, max_degree)
    if degree < 0:
        return Poly()
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 6)))
    return Poly(coeffs)


def random_ratfn(rng: random.Random, max_degree: int = 3, zero_ok: bool = True) -> RatFn:
    num = random_poly(rng, max_degree, zero_ok=zero_ok)
    den = random_poly(rng, max_degree, zero_ok=False)
    return RatFn(num, den)


# -- acceptance report ---------------------------------------------------------------

ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def record_acceptance(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, description, "PASS" if passed else "FAIL"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, verdict in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number:2d} [{verdict}] {description}")
