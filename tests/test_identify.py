"""Identification: regression, instruments, half-trek systems, CPDAG discovery."""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svarspec import identify as identify_module
from svarspec import svar as svar_module

from svarspec.graph import LfhtcOrder, LfhtcTriple, ProcessGraph, TimeSeriesGraph, lfhtc_order
from svarspec.identify import (LinkRecoveryError, MissingPrerequisiteError,
                               ZeroInstrumentError, discover_cpdag, identify_all,
                               identify_instrument, lfhtc_identify_step,
                               recover_lag_coefficients, spectral_ci_oracle)
from svarspec.ratfield import MOD_PRIME, RatFn
from svarspec.ratlinalg import RatMatrix, SingularMatrixError, rank, solve
from svarspec.svar import (SvarParams, _density, _trek_parts, conditional_spectrum,
                           sample_stable_params, spectral_density, spectrum,
                           transfer_matrix)

from conftest import (random_cyclic_graph, random_dag, random_latent_dag,
                      random_tsg)
from graph_reference import dsep_ci_oracle


# -- regression ----------------------------------------------------------------


def identify_regression(graph: ProcessGraph, S: RatMatrix, v: str) -> dict:
    """Link functions of v's observed parents by regression on the parent block:
    the reference for the regression triple of `lfhtc_identify_step`.

    Valid when no latent trek reaches v or its parents; with confounding the
    output is well defined but differs from the true link functions.
    """
    pa = list(graph.pa_observed(v))
    if not pa:
        return {}
    rows = [[S.entry(u, y) for u in pa] for y in pa]
    rhs = [S.entry(v, y) for y in pa]
    values = solve(RatMatrix(pa, pa, rows), rhs)
    return {(u, v): h for u, h in zip(pa, values)}


def test_regression_single_edge():
    g = ProcessGraph.make(["u", "v"], [], [("u", "v")])
    tsg = TimeSeriesGraph.full(g, 1)
    p = sample_stable_params(tsg, seed=0)
    b = spectrum(tsg, p)
    got = identify_regression(g, b.S, "v")
    # the row-oriented quotient; the unconjugated products sit in the first index
    assert got[("u", "v")] == b.S.entry("v", "u") / b.S.entry("u", "u")
    assert got[("u", "v")] == b.H.entry("u", "v")


def test_regression_recovers_chain_links(chain_graph, chain_tsg):
    for seed in range(5):
        p = sample_stable_params(chain_tsg, seed=seed)
        b = spectrum(chain_tsg, p)
        for v in ("b", "c"):
            for edge, h in identify_regression(chain_graph, b.S, v).items():
                assert h == b.H.entry(*edge)


def test_regression_negative_control_under_confounding(instrument_graph, instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=3)
    b = spectrum(instrument_tsg, p)
    got = identify_regression(instrument_graph, b.S, "w")
    assert got[("v", "w")] != b.H.entry("v", "w")


def test_regression_no_parents_is_empty(chain_graph, chain_tsg):
    p = sample_stable_params(chain_tsg, seed=4)
    b = spectrum(chain_tsg, p)
    assert identify_regression(chain_graph, b.S, "a") == {}


# -- instruments ---------------------------------------------------------------------


def test_instrument_recovers_confounded_link(instrument_tsg):
    for seed in range(20):
        p = sample_stable_params(instrument_tsg, seed=seed)
        b = spectrum(instrument_tsg, p)
        assert identify_instrument(b.S, "u", "v", "w") == b.H.entry("v", "w")


def test_instrument_zero_denominator_detected(instrument_graph):
    pruned = instrument_graph.with_edges([e for e in instrument_graph.edges if e != ("u", "v")])
    tsg = TimeSeriesGraph.make(pruned, {e: (0, 1) for e in pruned.edges},
                               {v: (1,) for v in pruned.vertices})
    p = sample_stable_params(tsg, seed=5)
    S = spectrum(tsg, p).S
    with pytest.raises(ZeroInstrumentError):
        identify_instrument(S, "u", "v", "w")


def test_instrument_agrees_with_pipeline(instrument_graph, instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=6)
    b = spectrum(instrument_tsg, p)
    cert = identify_all(instrument_graph, b.S)
    assert cert.solved[("v", "w")] == identify_instrument(b.S, "u", "v", "w")


# -- the half-trek step ----------------------------------------------------------------------


def test_step_system_entries_for_confounded_chain(confounded_chain_graph, confounded_chain_tsg):
    p = sample_stable_params(confounded_chain_tsg, seed=0)
    b = spectrum(confounded_chain_tsg, p)
    S = b.S
    triple = LfhtcTriple.make(["v2", "v3"], ["v1"], ["l"])
    solved, aux, system, rhs = lfhtc_identify_step(confounded_chain_graph, S, "v4", triple)
    assert system.entries[0][0] == S.entry("v3", "v2")
    assert system.entries[0][1] == S.entry("v1", "v2")
    assert system.entries[1][0] == S.entry("v3", "v3")
    assert system.entries[1][1] == S.entry("v1", "v3")
    assert tuple(rhs) == (S.entry("v4", "v2"), S.entry("v4", "v3"))
    assert solved[("v3", "v4")] == b.H.entry("v3", "v4")
    # the auxiliary unknown is the latent link ratio
    assert aux["v1"] == b.H.entry("l", "v4") / b.H.entry("l", "v1")


def test_step_second_stage_uses_known_links(confounded_chain_graph, confounded_chain_tsg):
    p = sample_stable_params(confounded_chain_tsg, seed=1)
    b = spectrum(confounded_chain_tsg, p)
    S = b.S
    known = {("v3", "v4"): b.H.entry("v3", "v4")}
    triple = LfhtcTriple.make(["v1", "v2"], ["v4"], ["l"])
    solved, aux, system, rhs = lfhtc_identify_step(confounded_chain_graph, S, "v3", triple, known)
    h34 = b.H.entry("v3", "v4")
    for i, y in enumerate(("v1", "v2")):
        assert system.entries[i][0] == S.entry("v2", y)
        assert system.entries[i][1] == S.entry("v4", y) - h34 * S.entry("v3", y)
        assert rhs[i] == S.entry("v3", y)
    assert solved[("v2", "v3")] == b.H.entry("v2", "v3")


def test_step_missing_prerequisite(confounded_chain_graph, confounded_chain_tsg):
    """The links a step needs are known from the graph alone, so a missing one
    is refused, named, before any entry of S is read."""
    p = sample_stable_params(confounded_chain_tsg, seed=2)
    S = spectrum(confounded_chain_tsg, p).S
    reads = []

    class RecordingS:
        def entry(self, row, col):
            reads.append((row, col))
            return S.entry(row, col)

    triple = LfhtcTriple.make(["v1", "v2"], ["v4"], ["l"])
    with pytest.raises(MissingPrerequisiteError, match=r"\('v3', 'v4'\)"):
        lfhtc_identify_step(confounded_chain_graph, RecordingS(), "v3", triple, known={})
    assert reads == []


def test_step_empty_latent_triple_equals_regression(chain_graph, chain_tsg):
    p = sample_stable_params(chain_tsg, seed=3)
    S = spectrum(chain_tsg, p).S
    triple = LfhtcTriple.make(Y=["b"])
    solved, aux, _, _ = lfhtc_identify_step(chain_graph, S, "c", triple)
    assert not aux
    assert solved == identify_regression(chain_graph, S, "c")


def test_step_singular_system_raises(instrument_graph, instrument_tsg):
    # zero coefficients on u -> v destroy the instrument and the system
    p = sample_stable_params(instrument_tsg, seed=4)
    degenerate = SvarParams(
        cross={k: (Fraction(0) if k[:2] == ("u", "v") else c) for k, c in p.cross.items()},
        auto=p.auto, noise=p.noise,
    )
    S = spectrum(instrument_tsg, degenerate).S
    triple = LfhtcTriple.make(Y=["u"])
    with pytest.raises(SingularMatrixError):
        lfhtc_identify_step(instrument_graph, S, "w", triple)


# -- the full pipeline --------------------------------------------------------------------------------


def test_identify_all_regression_only_on_dag():
    rng = random.Random(7)
    g = random_dag(rng, ["a", "b", "c", "d"], p=0.7)
    tsg = random_tsg(rng, g)
    p = sample_stable_params(tsg, seed=8)
    b = spectrum(tsg, p)
    cert = identify_all(g, b.S)
    assert cert.ok
    assert all(step.method == "regression" for step in cert.steps)
    for edge, h in cert.solved.items():
        assert h == b.H.entry(*edge)


def test_identify_all_confounded_chain_exact(confounded_chain_graph, confounded_chain_tsg):
    for seed in range(5):
        p = sample_stable_params(confounded_chain_tsg, seed=seed)
        b = spectrum(confounded_chain_tsg, p)
        cert = identify_all(confounded_chain_graph, b.S)
        assert cert.ok
        assert set(cert.solved) == {("v2", "v3"), ("v3", "v4"), ("v4", "v5")}
        for edge, h in cert.solved.items():
            assert h == b.H.entry(*edge)


def test_identify_all_reports_unresolved():
    g = ProcessGraph.make(["u", "v"], ["l"], [("u", "v"), ("l", "u"), ("l", "v")])
    tsg = TimeSeriesGraph.full(g, 1)
    p = sample_stable_params(tsg, seed=9)
    cert = identify_all(g, spectrum(tsg, p).S)
    assert not cert.ok
    assert cert.solved == {}
    assert cert.unresolved_edges == (("u", "v"),)


def test_identify_soundness_on_random_latent_graphs():
    rng = random.Random(10)
    checked = 0
    for trial in range(30):
        g = random_latent_dag(rng, [f"x{i}" for i in range(4)], ["h0"], p=0.5, p_latent=0.5)
        if not lfhtc_order(g).ok:
            continue
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial + 600)
        b = spectrum(tsg, p)
        try:
            cert = identify_all(g, b.S)
        except SingularMatrixError:
            continue  # non-generic draw; the pipeline caller resamples
        for edge, h in cert.solved.items():
            assert h == b.H.entry(*edge)
        checked += 1
    assert checked >= 10


def test_certificate_replay(confounded_chain_graph, confounded_chain_tsg):
    p = sample_stable_params(confounded_chain_tsg, seed=11)
    S = spectrum(confounded_chain_tsg, p).S
    cert = identify_all(confounded_chain_graph, S)
    plan = tuple((s.vertex, s.triple) for s in cert.steps)
    again = identify_all(confounded_chain_graph, S, LfhtcOrder(plan, ()))
    assert again.solved == cert.solved
    assert [s.system for s in again.steps] == [s.system for s in cert.steps]


# -- coefficient recovery -------------------------------------------------------------------------------


def test_recover_direct_read_off():
    a0, a1, b = Fraction(1, 3), Fraction(2, 7), Fraction(2, 5)
    h = RatFn([a0, a1], [1, -b])
    cross, auto = recover_lag_coefficients(h)
    assert cross == {0: a0, 1: a1}
    assert auto == {1: b}


def test_recover_round_trip_on_sampled_edges():
    rng = random.Random(12)
    recovered = 0
    while recovered < 200:
        g = random_dag(rng, [f"x{i}" for i in range(4)], p=0.6)
        if not g.edges:
            continue
        tsg = random_tsg(rng, g, max_order=2)
        p = sample_stable_params(tsg, seed=recovered + 700)
        H = transfer_matrix(tsg, p)
        for (a, b) in g.edges:
            cross, auto = recover_lag_coefficients(
                H.entry(a, b), cross_lags=tsg.cross_lags[(a, b)],
                auto_lags=tsg.auto_lags_of(b),
            )
            for k, c in cross.items():
                assert p.cross[(a, b, k)] == c
            for k, c in auto.items():
                assert p.auto[(b, k)] == c
            recovered += 1


def test_recover_flags_cancelled_representation():
    # numerator shares the root of the denominator: the quotient collapses
    c, b = Fraction(1, 3), Fraction(1, 2)
    h = RatFn([c, -c * b], [1, -b])
    assert h == RatFn(c)  # cancellation happened
    with pytest.raises(LinkRecoveryError):
        recover_lag_coefficients(h, cross_lags=(0, 1), auto_lags=(1,))


def test_recover_zero_constant_denominator_flagged():
    h = RatFn(RatFn([1, 1]).num, RatFn([0, 1]).num)  # denominator z
    with pytest.raises(LinkRecoveryError):
        recover_lag_coefficients(h)


# -- CPDAG discovery -----------------------------------------------------------------------------------------


def test_cpdag_chain_skeleton(chain_graph):
    cp = discover_cpdag(dsep_ci_oracle(chain_graph), chain_graph.observed)
    assert cp.directed == frozenset()
    assert cp.undirected == {frozenset(("a", "b")), frozenset(("b", "c"))}


def test_cpdag_collider_oriented():
    g = ProcessGraph.make(["a", "b", "c"], [], [("a", "c"), ("b", "c")])
    cp = discover_cpdag(dsep_ci_oracle(g), g.observed)
    assert cp.directed == {("a", "c"), ("b", "c")}
    assert cp.undirected == frozenset()


def test_cpdag_empty_graph():
    g = ProcessGraph.make(["a", "b", "c"], [], [])
    cp = discover_cpdag(dsep_ci_oracle(g), g.observed)
    assert cp.directed == frozenset() and cp.undirected == frozenset()


def test_cpdag_meek_rule_one():
    # a -> b - c with a, c non-adjacent: orient b -> c
    g = ProcessGraph.make(["a", "b", "c", "d"], [],
                          [("a", "b"), ("d", "b"), ("b", "c")])
    cp = discover_cpdag(dsep_ci_oracle(g), g.observed)
    assert ("b", "c") in cp.directed


def test_cpdag_matches_brute_force_equivalence_class():
    # the CPDAG's directed edges are exactly those shared by all DAGs with the
    # same d-separation oracle
    rng = random.Random(13)
    labels = ["a", "b", "c"]
    from itertools import permutations

    def all_dags():
        out = []
        pairs = [("a", "b"), ("a", "c"), ("b", "c")]
        for order in permutations(labels):
            pos = {v: i for i, v in enumerate(order)}
            for mask in range(8):
                edges = []
                for i, (x, y) in enumerate(pairs):
                    if mask >> i & 1:
                        edges.append((x, y) if pos[x] < pos[y] else (y, x))
                out.append(ProcessGraph.make(labels, [], set(edges)))
        return out

    def ci_signature(g):
        oracle = dsep_ci_oracle(g)
        sig = []
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            rest = [v for v in labels if v not in (x, y)]
            sig.append(oracle({x}, {y}, frozenset()))
            sig.append(oracle({x}, {y}, frozenset(rest)))
        return tuple(sig)

    dags = all_dags()
    for trial in range(8):
        g = random_dag(rng, labels, p=0.6)
        cp = discover_cpdag(dsep_ci_oracle(g), labels)
        matching = [d for d in dags if ci_signature(d) == ci_signature(g)]
        shared_edges = set(matching[0].edges)
        all_edges = set(matching[0].edges)
        for d in matching[1:]:
            shared_edges &= set(d.edges)
            all_edges |= set(d.edges)
        assert cp.directed == shared_edges
        undirected_pairs = {frozenset(e) for e in all_edges - shared_edges}
        assert cp.undirected == undirected_pairs


def test_cpdag_dual_oracle_agreement():
    rng = random.Random(14)
    for trial in range(20):
        n = rng.randint(2, 4)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial + 800)
        assert discover_cpdag(spectral_ci_oracle(tsg, p), g.observed) == \
            discover_cpdag(dsep_ci_oracle(g), g.observed)


# -- the modular filter of the spectral oracle against the all-exact oracle -------------------


def reference_spectral_ci_oracle(S: RatMatrix):
    """The all-exact oracle: every verdict is a conditional spectrum over R(z)."""
    cache: dict[tuple, bool] = {}

    def oracle(X, Y, Z) -> bool:
        key = (frozenset(X), frozenset(Y), frozenset(Z))
        if key not in cache:
            cache[key] = conditional_spectrum(S, set(X), set(Y), set(Z)).is_zero
        return cache[key]

    return oracle


def _queries(labels):
    """Every (a, b, Z) of singletons a != b and Z among the other labels."""
    for a in labels:
        for b in labels:
            if a == b:
                continue
            rest = [v for v in labels if v not in (a, b)]
            for k in range(len(rest) + 1):
                for Z in combinations(rest, k):
                    yield frozenset({a}), frozenset({b}), frozenset(Z)


def _oracle_against_reference(tsg: TimeSeriesGraph, params: SvarParams) -> tuple[int, set]:
    """Run both oracles on every query; returns the query count and the
    queries the oracle decided with exact ranks over R(z).

    Every verdict must agree, and a verdict reached without a call to `rank`
    must be "dependent" in the exact reference.
    """
    ranks = []

    def recording(matrix):
        ranks.append(matrix.shape)
        return rank(matrix)

    reference = reference_spectral_ci_oracle(spectral_density(tsg, params))
    exact_keys = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identify_module, "rank", recording)
        oracle = spectral_ci_oracle(tsg, params)
        queries = list(_queries(tsg.base.observed))
        for key in queries:
            want = reference(*key)
            before = len(ranks)
            assert oracle(*key) == want, key
            if len(ranks) > before:
                exact_keys.add(key)
            else:
                assert want is False, key
    return len(queries), exact_keys


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6), cyclic=st.booleans())
def test_modular_filter_never_proves_a_vanishing_spectrum_nonzero(seed, cyclic):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    if cyclic:
        graph = random_cyclic_graph(rng, n)
    else:
        graph = random_latent_dag(rng, [f"x{i}" for i in range(n)], ["h"], p=0.5)
    tsg = random_tsg(rng, graph, max_order=1)
    _oracle_against_reference(tsg, sample_stable_params(tsg, seed=seed))


def test_modular_filter_decides_dependence_without_solving(confounded_chain_tsg):
    params = sample_stable_params(confounded_chain_tsg, seed=4)
    queries, exact = _oracle_against_reference(confounded_chain_tsg, params)
    # the latent confounds every pair, so no verdict is "independent"
    assert (queries, len(exact)) == (160, 0)


def _check_forced_fallback(tsg: TimeSeriesGraph, params: SvarParams) -> None:
    """With no image of S, every verdict comes from the exact path."""
    queries, exact = _oracle_against_reference(tsg, params)
    assert len(exact) == queries


def test_oracle_falls_back_when_a_denominator_is_divisible_by_the_prime(chain_tsg):
    params = sample_stable_params(chain_tsg, seed=2)
    params = SvarParams(cross={**params.cross, ("a", "b", 0): Fraction(1, MOD_PRIME)},
                        auto=params.auto, noise=params.noise)
    _check_forced_fallback(chain_tsg, params)


def test_oracle_falls_back_when_the_point_is_a_pole(monkeypatch, chain_tsg):
    # 1 - z/2 is the auto-lag denominator of b, and z0 = 2 its root
    params = sample_stable_params(chain_tsg, seed=2)
    params = SvarParams(cross=params.cross, auto={**params.auto, ("b", 1): Fraction(1, 2)},
                        noise=params.noise)
    monkeypatch.setattr(svar_module, "EVAL_POINT", 2)
    _check_forced_fallback(chain_tsg, params)


def test_oracle_falls_back_when_the_conditioning_block_is_singular_at_the_point(monkeypatch):
    # c = (u + u_{-1}) / 4 + noise of variance 9/64, so 16 z S[c, c] is
    # z^2 + 17 z / 4 + 1 = (z + 4)(z + 1/4), which vanishes at z0 = -4; and
    # c separates x from y
    graph = ProcessGraph.make(["c", "u", "x", "y"], [], [("u", "c"), ("c", "x"), ("c", "y")])
    tsg = TimeSeriesGraph.make(graph, {("u", "c"): (0, 1), ("c", "x"): (0,), ("c", "y"): (0,)})
    quarter = Fraction(1, 4)
    params = SvarParams.make(
        {("u", "c", 0): quarter, ("u", "c", 1): quarter, ("c", "x", 0): 1, ("c", "y", 0): 1},
        {}, {"c": Fraction(9, 64), "u": 1, "x": 1, "y": 1})
    params.validate(tsg)
    monkeypatch.setattr(svar_module, "EVAL_POINT", -4 % MOD_PRIME)
    kd, entry = _density(graph, *_trek_parts(tsg, params), ["c"], ["c"])
    assert kd.image(entry("c", "c")) == 0
    assert spectral_ci_oracle(tsg, params)({"x"}, {"y"}, {"c"}) is True
    _, exact = _oracle_against_reference(tsg, params)
    assert (frozenset({"x"}), frozenset({"y"}), frozenset({"c"})) in exact


def _outcome(oracle, X, Y, Z):
    try:
        return oracle(X, Y, Z)
    except (ValueError, KeyError) as exc:
        return type(exc)


def test_oracle_raises_where_the_conditional_spectrum_raises():
    # q is no label of S; validated parameters leave no S[Z, Z] singular
    graph = ProcessGraph.make(["c", "d", "x", "y"], ["h"],
                              [("c", "x"), ("d", "x"), ("x", "y"), ("h", "d"), ("h", "y")])
    tsg = TimeSeriesGraph.full(graph, 1)
    params = sample_stable_params(tsg, seed=5)
    labels = ["c", "d", "q", "x", "y"]
    sets = [frozenset(c) for k in range(3) for c in combinations(labels, k)]
    oracle = spectral_ci_oracle(tsg, params)
    reference = reference_spectral_ci_oracle(spectral_density(tsg, params))
    seen = set()
    for X in sets:
        for Y in sets:
            for Z in sets:
                want = _outcome(reference, X, Y, Z)
                assert _outcome(oracle, X, Y, Z) == want, (X, Y, Z)
                seen.add(want if isinstance(want, type) else bool)
    assert seen == {bool, ValueError, KeyError}


def test_spectral_discovery_scales_to_dense_eight_node_dags():
    """Three dense DAGs on which every conditional spectrum took seconds exactly."""
    labels = [f"x{i}" for i in range(8)]
    pairs = list(combinations(labels, 2))
    elapsed = 0.0
    for seed in range(3):
        rng = random.Random(9100 + seed)
        graph = ProcessGraph.make(labels, [], rng.sample(pairs, 20))
        tsg = TimeSeriesGraph.full(graph, 1)
        oracle = spectral_ci_oracle(tsg, sample_stable_params(tsg, seed=seed))
        start = time.perf_counter()
        got = discover_cpdag(oracle, labels)
        elapsed += time.perf_counter() - start
        assert got == discover_cpdag(dsep_ci_oracle(graph), labels), seed
    assert elapsed < 2.0, f"discovery took {elapsed:.2f}s"
