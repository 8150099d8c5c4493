"""Acceptance suite: one test per criterion, each with its stated tolerance
and runtime budget.  A summary line per criterion is printed at the end of
the pytest run."""

import cmath
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from svarspec.graph import (LfhtcTriple, ProcessGraph, TimeSeriesGraph,
                            d_separated, lfhtc_order, t_separation_min)
from svarspec.identify import (LinkRecoveryError, discover_cpdag, identify_all,
                               identify_instrument, recover_lag_coefficients,
                               spectral_ci_oracle)
from svarspec.ratfield import Poly, RatFn
from svarspec.ratlinalg import RatMatrix, det, solve_many
from svarspec.svar import (SvarParams, generic_rank, sample_stable_params,
                           spectrum, spectrum_trek, transfer_matrix)
from svarspec.simulate import (estimate_spectrum, exact_spectrum_values,
                               simulate_series)

from conftest import (dag_shapes, random_dag, random_latent_dag, random_ratfn,
                      random_tsg, record_acceptance)
from graph_reference import dsep_ci_oracle
from svar_reference import det_path_expansion, matmul, minus, unit_inverse


def _criterion(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        record_acceptance(number, description, False)
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    record_acceptance(number, f"{description} ({elapsed:.1f}s / {budget_seconds}s)", within)
    assert within, f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"


# -- 1: involution suite ---------------------------------------------------------


def test_criterion_01_involution_suite():
    def body():
        rng = random.Random(101)
        for _ in range(1000):
            r = random_ratfn(rng)
            s = random_ratfn(rng)
            assert r.conj().conj() == r
            assert (r * s).conj() == r.conj() * s.conj()
            assert (r + s).conj() == r.conj() + s.conj()
        r = random_ratfn(random.Random(102), zero_ok=False)
        for k in range(16):
            zeta = cmath.exp(2j * cmath.pi * (k + 0.3) / 16)
            assert abs(r.conj()(zeta) - r(zeta.conjugate())) < 1e-9

    _criterion(1, "conjugation involution and homomorphism, 1000 pairs", 10, body)


# -- shared instance family for criteria 2 and 3 -------------------------------------


def _family():
    """Every DAG shape on <= 5 nodes, then 200 random 6-node graphs."""
    index = 0
    for graph in dag_shapes(5):
        yield index, graph
        index += 1
    rng = random.Random(2024)
    for _ in range(200):
        graph = random_dag(rng, [f"x{i}" for i in range(6)], p=0.4)
        yield index, graph
        index += 1


def _instance(index, graph):
    rng = random.Random(5000 + index)
    tsg = random_tsg(rng, graph, max_order=1)
    params = sample_stable_params(tsg, seed=index)
    n = len(graph.vertices)
    k = rng.randint(1, n)
    X = sorted(rng.sample(list(graph.vertices), k))
    Y = sorted(rng.sample(list(graph.vertices), k))
    return tsg, params, X, Y


def test_criterion_02_gessel_viennot():
    def body():
        for index, graph in _family():
            tsg, params, X, Y = _instance(index, graph)
            H = transfer_matrix(tsg, params)
            N = unit_inverse(H)
            assert det(N.submatrix(X, Y)) == det_path_expansion(tsg, params, X, Y, H)

    _criterion(2, "path-system determinant expansion, exhaustive <=5 plus 200 random", 120, body)


def test_criterion_03_trek_rule():
    def body():
        for index, graph in _family():
            tsg, params, _, _ = _instance(index, graph)
            assert spectrum(tsg, params).S == spectrum_trek(tsg, params)

    _criterion(3, "matrix spectrum equals trek-sum spectrum on the same family", 120, body)


# -- 4: trek separation --------------------------------------------------------------------


def test_criterion_04_trek_separation():
    def body():
        rng = random.Random(404)
        for trial in range(100):
            n = rng.randint(2, 5)
            if trial % 2 == 0:
                graph = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
            else:
                graph = random_latent_dag(rng, [f"x{i}" for i in range(n)],
                                          ["h"], p=0.5, p_latent=0.6)
            tsg = random_tsg(rng, graph, max_order=1)
            observed = list(graph.observed)
            k = rng.randint(1, min(3, len(observed)))
            X = sorted(rng.sample(observed, k))
            Y = sorted(rng.sample(observed, k))
            want = t_separation_min(graph, set(X), set(Y))[0]
            got = generic_rank(tsg, X, Y, trials=3, seed=trial)
            if got != want:  # non-generic draw: resample once with fresh seeds
                got = generic_rank(tsg, X, Y, trials=3, seed=trial + 77_777)
            assert got == want, (trial, graph.edges, X, Y, got, want)

    _criterion(4, "generic subspectrum rank equals minimal trek separation, 100 instances", 120, body)


# -- 5: d-separation equivalence ------------------------------------------------------------------


def _conditional_given(S, Z):
    """Schur complement of the block outside Z; rows/cols keep their labels."""
    rest = sorted(set(S.row_labels) - set(Z))
    S_rr = S.submatrix(rest, rest)
    if not Z:
        return S_rr
    Z = sorted(Z)
    S_zz = S.submatrix(Z, Z)
    S_zr = S.submatrix(Z, rest)
    W = RatMatrix(Z, rest, solve_many(S_zz, S_zr.entries))
    return minus(S_rr, matmul(S.submatrix(rest, Z), W))


def _all_triples(vertices):
    for z_size in range(0, len(vertices) - 1):
        for Z in combinations(vertices, z_size):
            rest = [v for v in vertices if v not in Z]
            for assignment in product((0, 1, 2), repeat=len(rest)):
                X = [v for v, a in zip(rest, assignment) if a == 1]
                Y = [v for v, a in zip(rest, assignment) if a == 2]
                if X and Y:
                    yield X, Y, Z


def test_criterion_05_d_separation_equivalence():
    def body():
        rng = random.Random(505)
        for trial in range(100):
            n = rng.randint(3, 5)
            graph = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
            tsg = random_tsg(rng, graph, max_order=1)
            verts = list(graph.vertices)
            for attempt in range(3):
                params = sample_stable_params(tsg, seed=trial + attempt * 90_001)
                S = spectrum(tsg, params).S
                conditionals = {}
                for z_size in range(0, n - 1):
                    for Z in combinations(verts, z_size):
                        conditionals[Z] = _conditional_given(S, Z)
                disagreement = False
                for X, Y, Z in _all_triples(verts):
                    ci = conditionals[tuple(Z)].submatrix(X, Y).is_zero
                    dsep = d_separated(graph, set(X), set(Y), set(Z))
                    if ci != dsep:
                        disagreement = True
                        break
                if not disagreement:
                    break
            assert not disagreement, (trial, graph.edges)

    _criterion(5, "symbolic conditional independence iff d-separation, 100 DAGs", 300, body)


# -- 6: instrument benchmark graph ----------------------------------------------------


def test_criterion_06_instrument_graph_goldens(instrument_graph, instrument_tsg):
    def body():
        for seed in range(20):
            params = sample_stable_params(instrument_tsg, seed=seed)
            b = spectrum(instrument_tsg, params)
            H, S_I, S, S_LI = b.H, b.S_I, b.S, b.S_LI
            # single-trek entry (one directed path, unconjugated side)
            assert S.entry("w", "u") == H.entry("u", "v") * H.entry("v", "w") * S_I.entry("u", "u")
            # confounded entry: the target spectrum split plus one latent trek
            assert S.entry("v", "w") == (
                S.entry("v", "v") * H.entry("v", "w").conj()
                + H.entry("l", "v") * S_I.entry("l", "l") * H.entry("l", "w").conj()
            )
            # projected internal spectrum entries
            assert S_LI.entry("u", "v").is_zero and S_LI.entry("u", "w").is_zero
            assert S_LI.entry("v", "w") == (
                H.entry("l", "v") * S_I.entry("l", "l") * H.entry("l", "w").conj()
            )
            # the instrument quotient recovers the link exactly
            assert identify_instrument(S, "u", "v", "w") == H.entry("v", "w")

    _criterion(6, "instrument benchmark: spectrum identities and exact recovery, 20 seeds", 60, body)


# -- 7: half-trek pipeline -----------------------------------------------------------------------------------


def test_criterion_07_confounded_chain_pipeline(confounded_chain_graph, confounded_chain_tsg):
    def body():
        order = lfhtc_order(confounded_chain_graph)
        assert order.ok
        triples = dict(order.steps)
        assert triples["v4"] == LfhtcTriple.make(["v2", "v3"], ["v1"], ["l"])
        assert triples["v3"] == LfhtcTriple.make(["v1", "v2"], ["v4"], ["l"])
        assert [v for v, _ in order.steps].index("v3") > [v for v, _ in order.steps].index("v4")
        for seed in range(20):
            params = sample_stable_params(confounded_chain_tsg, seed=seed)
            b = spectrum(confounded_chain_tsg, params)
            cert = identify_all(confounded_chain_graph, b.S, order)
            assert set(cert.solved) == {("v2", "v3"), ("v3", "v4"), ("v4", "v5")}
            for edge, h in cert.solved.items():
                assert h == b.H.entry(*edge)

    _criterion(7, "confounded-chain pipeline: triples found, links exact, 20 seeds", 60, body)


# -- 8: rank-one fork ------------------------------------------------------------


def test_criterion_08_fork_example(fork3_tsg):
    def body():
        assert generic_rank(fork3_tsg, ["2"], ["3"], trials=3, seed=8) == 1

        def coefficients(p):
            p0 = p.cross[("1", "2", 0)] * p.cross[("1", "3", 1)]
            p1 = (p.cross[("1", "2", 1)] * p.cross[("1", "3", 1)]
                  + p.cross[("1", "2", 0)] * p.cross[("1", "3", 0)])
            p2 = p.cross[("1", "2", 1)] * p.cross[("1", "3", 0)]
            return p0, p1, p2

        params = sample_stable_params(fork3_tsg, seed=88)
        S = spectrum(fork3_tsg, params).S
        p0, p1, p2 = coefficients(params)
        num = Poly([p0, p1, p2]).scale(params.noise["1"]).shift(1)
        den = (Poly([1, -params.auto[("2", 1)]]) * Poly([1, -params.auto[("1", 1)]])
               * Poly([-params.auto[("1", 1)], 1]) * Poly([-params.auto[("3", 1)], 1]))
        assert S.entry("2", "3") == RatFn(num, den)

        # z = 1 vanishing iff the coefficient sum vanishes: one hit, one miss
        hit = SvarParams.make(
            {("1", "2", 0): Fraction(1, 4), ("1", "2", 1): Fraction(-1, 4),
             ("1", "3", 0): Fraction(1, 5), ("1", "3", 1): Fraction(1, 5)},
            {("1", 1): Fraction(1, 3), ("2", 1): Fraction(1, 4), ("3", 1): Fraction(1, 5)},
            {"1": Fraction(1), "2": Fraction(1), "3": Fraction(2)},
        )
        hit.validate(fork3_tsg)
        h0, h1, h2 = coefficients(hit)
        assert h0 + h1 + h2 == 0
        assert spectrum(fork3_tsg, hit).S.entry("2", "3")(Fraction(1)) == 0
        m0, m1, m2 = coefficients(params)
        assert m0 + m1 + m2 != 0
        assert S.entry("2", "3")(Fraction(1)) != 0

    _criterion(8, "rank-one fork: generic rank, numerator structure, unit-root condition", 60, body)


# -- 9: coefficient round trip -------------------------------------------------------------------------------------


def test_criterion_09_coefficient_round_trip():
    def body():
        rng = random.Random(909)
        recovered = 0
        while recovered < 500:
            n = rng.randint(2, 5)
            graph = random_dag(rng, [f"x{i}" for i in range(n)], p=0.6)
            if not graph.edges:
                continue
            tsg = random_tsg(rng, graph, max_order=2)
            params = sample_stable_params(tsg, seed=recovered)
            H = transfer_matrix(tsg, params)
            for (a, b) in graph.edges:
                cross, auto = recover_lag_coefficients(
                    H.entry(a, b),
                    cross_lags=tsg.cross_lags[(a, b)],
                    auto_lags=tsg.auto_lags_of(b),
                )
                assert cross == {k: params.cross[(a, b, k)] for k in tsg.cross_lags[(a, b)]}
                assert auto == {k: params.auto[(b, k)] for k in tsg.auto_lags_of(b)}
                recovered += 1
        # a cancelling pair (zero resultant) must be flagged
        c, r = Fraction(1, 3), Fraction(1, 2)
        cancelled = RatFn([c, -c * r], [1, -r])
        with pytest.raises(LinkRecoveryError):
            recover_lag_coefficients(cancelled, cross_lags=(0, 1), auto_lags=(1,))

    _criterion(9, "transfer-matrix round trip on 500 edges; zero-resultant flagged", 120, body)


# -- 10: simulation bridge ----------------------------------------------------------------------------------------------


def test_criterion_10_simulation_bridge():
    def body():
        graph = ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("b", "c")])
        tsg = TimeSeriesGraph.full(graph, 1)
        params = SvarParams.make(
            {("a", "b", 0): Fraction(1), ("a", "b", 1): Fraction(1, 4),
             ("b", "c", 0): Fraction(-3, 4), ("b", "c", 1): Fraction(1, 4)},
            {("a", 1): Fraction(1, 4), ("b", 1): Fraction(-1, 4), ("c", 1): Fraction(1, 4)},
            {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(3, 4)},
        )
        params.validate(tsg)
        frequencies = tuple(np.linspace(0.25, 2.9, 8))
        exact = exact_spectrum_values(spectrum(tsg, params).S, frequencies)
        series = simulate_series(tsg, params, length=2**16, burn_in=1000, seed=5)
        est = estimate_spectrum(series, frequencies, segment_length=128)
        relative = np.abs(est.matrices - exact) / np.abs(exact)
        assert relative.max() <= 0.15
        # error decreases monotonically over three segment-count doublings
        previous = None
        for k in range(4):
            errors = []
            for seed in (5, 6, 7):
                s = simulate_series(tsg, params, length=2**12 * 2**k, burn_in=1000, seed=seed)
                e = estimate_spectrum(s, frequencies, segment_length=256)
                errors.append(np.abs(e.matrices - exact))
            median = float(np.median(np.concatenate(errors)))
            if previous is not None:
                assert median < previous
            previous = median

    _criterion(10, "Welch estimate within 0.15 of the exact spectrum; monotone trend", 60, body)


# -- 11: CPDAG discovery -------------------------------------------------------------------------------------------------------


def test_criterion_11_cpdag_discovery():
    def body():
        rng = random.Random(1111)
        for trial in range(100):
            n = rng.randint(2, 5)
            graph = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
            tsg = random_tsg(rng, graph, max_order=1)
            reference = discover_cpdag(dsep_ci_oracle(graph), graph.observed)
            for attempt in range(3):  # resample on an unfaithful draw
                params = sample_stable_params(tsg, seed=trial + attempt * 70_001)
                got = discover_cpdag(spectral_ci_oracle(tsg, params), graph.observed)
                if got == reference:
                    break
            assert got == reference, (trial, graph.edges)

    _criterion(11, "spectral-oracle CPDAG equals d-separation CPDAG, 100 DAGs", 300, body)
