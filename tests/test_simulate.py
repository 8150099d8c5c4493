"""Time-domain simulation, Welch estimation, and the empirical CI test."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import series_reference
from svarspec import io as sio
from svarspec import simulate
from svarspec.graph import ProcessGraph, TimeSeriesGraph
from svarspec.identify import spectral_ci_oracle
from svarspec.simulate import (EstimationError, IllConditionedBlockError,
                               SeriesSample, SimulationError,
                               empirical_ci_test, estimate_spectrum,
                               exact_spectrum_values, simulate_series)
from svarspec.svar import (ParameterError, SvarParams, sample_stable_params,
                           spectrum)

from conftest import random_cyclic_graph, random_dag, random_latent_dag, random_tsg


def chain_benchmark():
    """A fixed, well-conditioned 3-node chain used by the estimation tests."""
    graph = ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("b", "c")])
    tsg = TimeSeriesGraph.full(graph, 1)
    params = SvarParams.make(
        {("a", "b", 0): Fraction(1), ("a", "b", 1): Fraction(1, 4),
         ("b", "c", 0): Fraction(-3, 4), ("b", "c", 1): Fraction(1, 4)},
        {("a", 1): Fraction(1, 4), ("b", 1): Fraction(-1, 4), ("c", 1): Fraction(1, 4)},
        {"a": Fraction(1), "b": Fraction(1, 2), "c": Fraction(3, 4)},
    )
    params.validate(tsg)
    return tsg, params


BENCH_FREQUENCIES = tuple(np.linspace(0.25, 2.9, 8))
STEP_BLOCK = simulate.STEP_BLOCK


# -- simulation ---------------------------------------------------------------------


def test_white_noise_sample_variance():
    g = ProcessGraph.make(["x"], [], [])
    tsg = TimeSeriesGraph.make(g, {})
    p = SvarParams.make({}, {}, {"x": Fraction(9, 4)})
    s = simulate_series(tsg, p, length=10**5, burn_in=10, seed=2)
    assert abs(s.values.var() - 2.25) / 2.25 < 0.05


def test_zero_noise_degenerate_series():
    g = ProcessGraph.make(["x"], [], [])
    tsg = TimeSeriesGraph.make(g, {})
    p = SvarParams(cross={}, auto={}, noise={"x": Fraction(0)})  # test-only override
    with pytest.raises(ParameterError, match="positive"):
        simulate_series(tsg, p, length=200, burn_in=10, seed=3)
    # the recursion behind the validation runs on it
    s = simulate._simulate(tsg, p, length=200, burn_in=10, seed=3)
    assert np.all(s.values == 0.0)


def test_ar1_autocorrelation():
    g = ProcessGraph.make(["x"], [], [])
    tsg = TimeSeriesGraph.make(g, {}, {"x": (1,)})
    p = SvarParams.make({}, {("x", 1): Fraction(1, 2)}, {"x": Fraction(1)})
    s = simulate_series(tsg, p, length=10**5, burn_in=500, seed=1)
    x = s.values[:, 0]
    lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
    assert abs(lag1 - 0.5) < 0.02


def test_seed_determinism():
    tsg, p = chain_benchmark()
    a = simulate_series(tsg, p, length=2000, burn_in=100, seed=7)
    b = simulate_series(tsg, p, length=2000, burn_in=100, seed=7)
    c = simulate_series(tsg, p, length=2000, burn_in=100, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_contemporaneous_cycle_rejected():
    g = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0,), ("b", "a"): (0, 1)})
    p = SvarParams.make(
        {("a", "b", 0): Fraction(1, 4), ("b", "a", 0): Fraction(1, 4),
         ("b", "a", 1): Fraction(1, 8)},
        {}, {"a": Fraction(1), "b": Fraction(1)},
    )
    with pytest.raises(SimulationError, match="cycle"):
        simulate_series(tsg, p, length=100, seed=0)


def test_parameters_off_the_graph_are_rejected():
    # a lag-0 cross coefficient on an edge whose only lag is 1
    g = ProcessGraph.make(["a", "b"], [], [("a", "b")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (1,)})
    p = SvarParams.make({("a", "b", 0): Fraction(1, 2), ("a", "b", 1): Fraction(1, 4)},
                        {}, {"a": Fraction(1), "b": Fraction(1)})
    with pytest.raises(ParameterError, match="cross coefficients"):
        simulate_series(tsg, p, length=10, burn_in=0, seed=0)
    unstable = SvarParams.make({("a", "b", 1): Fraction(1, 4)}, {("a", 1): Fraction(1)},
                               {"a": Fraction(1), "b": Fraction(1)})
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (1,)}, {"a": (1,)})
    with pytest.raises(ParameterError, match="stability"):
        simulate_series(tsg, unstable, length=10, burn_in=0, seed=0)


def test_lagged_cycle_simulates():
    g = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (1,), ("b", "a"): (1,)})
    p = SvarParams.make(
        {("a", "b", 1): Fraction(1, 3), ("b", "a", 1): Fraction(1, 3)},
        {}, {"a": Fraction(1), "b": Fraction(1)},
    )
    s = simulate_series(tsg, p, length=5000, burn_in=200, seed=4)
    assert s.length == 5000


def test_latents_are_simulated(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=5)
    s = simulate_series(instrument_tsg, p, length=1000, burn_in=100, seed=5)
    assert s.labels == ("l", "u", "v", "w")
    assert s.values[:, s.labels.index("l")].std() > 0


def random_simulation_instance(seed: int, kind: str, order: int) -> TimeSeriesGraph:
    """A seeded latent DAG, cyclic graph with lags >= 1, single vertex, or mixed
    graph, of lag order at most `order` (at least 2 for a mixed graph).

    A mixed graph has a strong component c0 -> c1 (-> c2) -> c0 whose edge
    c0 -> c1 has lag 0, and around it: an observed parent `a` entering c1 at
    lags 0 and 2, a latent parent `h`, a parent `p` whose terms come after an
    in-component term in `params.cross` order (which sorts by source), and a
    downstream child `d`."""
    rng = random.Random(seed)

    def lags(low):
        return tuple(sorted(rng.sample(range(low, order + 1), rng.randint(1, order + 1 - low))))

    if kind == "mixed":
        order = max(order, 2)
        cycle = ["c0", "c1", "c2"][:rng.randint(2, 3)]
        closing = list(zip(cycle[1:], cycle[2:] + cycle[:1]))
        cross = {("c0", "c1"): (0,) + lags(1)[:rng.randint(0, 1)],
                 **{e: lags(1) for e in closing},
                 ("a", "c1"): (0, 2), ("h", rng.choice(cycle)): lags(0),
                 ("p", rng.choice(cycle)): lags(0), (rng.choice(cycle), "d"): lags(0)}
        if rng.random() < 0.5:
            cross[("h", "a")] = lags(0)
        graph = ProcessGraph.make(cycle + ["a", "p", "d"], ["h"], sorted(cross))
        auto = {v: lags(1) for v in graph.vertices if rng.random() < 0.7}
        return TimeSeriesGraph.make(graph, cross, auto)
    if kind == "single":
        graph = ProcessGraph.make(["x"], [], [])
        return TimeSeriesGraph.make(graph, {}, {"x": lags(1)} if rng.random() < 0.7 else {})
    if kind == "cyclic":
        graph = random_cyclic_graph(rng, rng.randint(2, 4))
        auto = {v: lags(1) for v in graph.vertices if rng.random() < 0.7}
        return TimeSeriesGraph.make(graph, {e: lags(1) for e in graph.edges}, auto)
    graph = random_latent_dag(rng, [f"x{i}" for i in range(rng.randint(2, 5))], ["h"], p=0.5)
    return random_tsg(rng, graph, max_order=order)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["latent", "cyclic", "single", "mixed"]),
       order=st.integers(1, 3), burn=st.sampled_from(["zero", "inside lag", "past lag"]),
       length=st.integers(1, 30), zero_noise=st.booleans(),
       block=st.sampled_from([STEP_BLOCK, 1, 2, 7]))
def test_simulation_and_series_files_match_the_scalar_reference(monkeypatch, tmp_path, seed,
                                                                kind, order, burn, length,
                                                                zero_noise, block):
    monkeypatch.setattr(simulate, "STEP_BLOCK", block)  # short blocks, some below the lag
    tsg = random_simulation_instance(seed, kind, order)
    params = sample_stable_params(tsg, seed=seed)
    if zero_noise:  # test-only override: every value is a signed zero
        params = SvarParams(cross=params.cross, auto=params.auto,
                            noise={v: Fraction(0) for v in params.noise})
    max_lag = max([k for lags in tsg.cross_lags.values() for k in lags]
                  + [k for lags in tsg.auto_lags.values() for k in lags], default=0)
    burn_in = {"zero": 0, "inside lag": max(max_lag - 1, 0),
               "past lag": max_lag + seed % 7}[burn]
    # zero variances fail validation; the recursion behind it still runs on them
    run = simulate._simulate if zero_noise else simulate_series
    got = run(tsg, params, length=length, burn_in=burn_in, seed=seed)
    want = series_reference.simulate_series(tsg, params, length=length, burn_in=burn_in,
                                            seed=seed)
    assert got.labels == want.labels
    assert got.values.shape == want.values.shape
    assert got.values.tobytes() == want.values.tobytes()
    path, ref_path = tmp_path / "series.txt", tmp_path / "reference.txt"
    sio.save_series(got, path)
    series_reference.save_series(want, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    assert sio.load_series(path).values.tobytes() == \
        series_reference.load_series(path).values.tobytes() == want.values.tobytes()


def test_components_run_in_dependence_order_and_terms_in_cross_order():
    # x0 comes first in contemporaneous order, but reads x1 and x2, whose auto
    # lags must be finished first; x0's own terms run in `params.cross` order.
    # x1 takes the one-term recursion at lag 2, x2 the step loop.
    graph = ProcessGraph.make(["x0", "x1", "x2"], [], [("x1", "x0"), ("x2", "x0")])
    tsg = TimeSeriesGraph.make(graph, {("x1", "x0"): (1,), ("x2", "x0"): (2,)},
                               {"x0": (1,), "x1": (2,), "x2": (1, 2)})
    assert simulate._contemporaneous_order(tsg) == ("x0", "x1", "x2")
    cross = [(("x1", "x0", 1), Fraction(5, 7)), (("x2", "x0", 2), Fraction(-3, 11))]
    auto = {("x0", 1): Fraction(1, 3), ("x1", 2): Fraction(-5, 6),
            ("x2", 1): Fraction(2, 5), ("x2", 2): Fraction(1, 7)}
    noise = {"x0": Fraction(1), "x1": Fraction(2), "x2": Fraction(1, 3)}
    runs = []
    for terms in (cross, cross[::-1]):
        params = SvarParams.make(dict(terms), auto, noise)
        got = simulate_series(tsg, params, length=300, burn_in=5, seed=11)
        want = series_reference.simulate_series(tsg, params, length=300, burn_in=5, seed=11)
        assert got.values.tobytes() == want.values.tobytes()
        runs.append(got.values.tobytes())
    assert runs[0] != runs[1]  # the order of the additions shows in the bytes


def test_simulation_size_limit(monkeypatch):
    tsg, p = chain_benchmark()  # three vertices
    monkeypatch.setattr(simulate, "MAX_SERIES_VALUES", 30)
    assert simulate_series(tsg, p, length=8, burn_in=2, seed=0).length == 8
    with pytest.raises(SimulationError, match="limit of 30"):
        simulate_series(tsg, p, length=9, burn_in=2, seed=0)
    with pytest.raises(SimulationError, match="limit of 30"):
        simulate_series(tsg, p, length=1, burn_in=10, seed=0)
    # a graph with no vertices is refused before the size is counted
    empty = TimeSeriesGraph.make(ProcessGraph.make([], [], []), {})
    none = SvarParams({}, {}, {})
    for length in (1, 31):
        with pytest.raises(SimulationError, match="no vertices"):
            simulate_series(empty, none, length=length, burn_in=0)


# -- estimation --------------------------------------------------------------------------


def test_flat_spectrum_for_white_noise():
    g = ProcessGraph.make(["x"], [], [])
    tsg = TimeSeriesGraph.make(g, {})
    p = SvarParams.make({}, {}, {"x": Fraction(1)})
    s = simulate_series(tsg, p, length=2**16, burn_in=10, seed=6)
    est = estimate_spectrum(s, np.linspace(0.3, 2.8, 6), segment_length=256)
    assert np.all(np.abs(est.matrices[:, 0, 0].real - 1.0) < 0.10)


def test_estimates_hermitian_and_psd():
    tsg, p = chain_benchmark()
    s = simulate_series(tsg, p, length=2**14, burn_in=500, seed=7)
    est = estimate_spectrum(s, BENCH_FREQUENCIES, segment_length=128)
    for m in est.matrices:
        assert np.allclose(m, m.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(m).min() >= -1e-8


def test_chain_benchmark_relative_error():
    tsg, p = chain_benchmark()
    exact = exact_spectrum_values(spectrum(tsg, p).S, BENCH_FREQUENCIES)
    s = simulate_series(tsg, p, length=2**16, burn_in=1000, seed=5)
    est = estimate_spectrum(s, BENCH_FREQUENCIES, segment_length=128)
    relative = np.abs(est.matrices - exact) / np.abs(exact)
    assert relative.max() < 0.15


def test_exact_spectrum_values_reads_a_generator_once():
    tsg, p = chain_benchmark()
    S = spectrum(tsg, p).S
    want = exact_spectrum_values(S, [0.5, 1.0])
    assert np.abs(want).min() > 0
    assert np.array_equal(exact_spectrum_values(S, (f for f in [0.5, 1.0])), want)


def test_error_shrinks_as_segment_count_doubles():
    tsg, p = chain_benchmark()
    exact = exact_spectrum_values(spectrum(tsg, p).S, BENCH_FREQUENCIES)
    previous = None
    for k in range(4):
        errors = []
        for seed in (5, 6, 7):
            s = simulate_series(tsg, p, length=2**12 * 2**k, burn_in=1000, seed=seed)
            est = estimate_spectrum(s, BENCH_FREQUENCIES, segment_length=256)
            errors.append(np.abs(est.matrices - exact))
        median = float(np.median(np.concatenate(errors)))
        if previous is not None:
            assert median < previous
        previous = median


def test_segmentation_validation():
    tsg, p = chain_benchmark()
    s = simulate_series(tsg, p, length=100, burn_in=10, seed=8)
    with pytest.raises(EstimationError):
        estimate_spectrum(s, [0.5], segment_length=128)
    with pytest.raises(EstimationError):
        estimate_spectrum(s, [4.0], segment_length=32)  # outside [0, pi]
    with pytest.raises(EstimationError):
        estimate_spectrum(s, [0.5], segment_length=32, overlap=1.0)


def test_frequencies_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        from svarspec.simulate import SpectrumEstimate
        SpectrumEstimate(("x",), (1.0, 0.5), np.zeros((2, 1, 1), dtype=complex), 1, 8)


# -- empirical conditional independence ----------------------------------------------------------


def test_empirical_ci_chain_verdicts():
    tsg, p = chain_benchmark()
    s = simulate_series(tsg, p, length=2**16, burn_in=1000, seed=5)
    est = estimate_spectrum(s, BENCH_FREQUENCIES, segment_length=128)
    assert empirical_ci_test(est, {"a"}, {"c"}, {"b"}, threshold=0.1) is True
    assert empirical_ci_test(est, {"a"}, {"b"}, set(), threshold=0.1) is False
    assert empirical_ci_test(est, {"a"}, {"c"}, set(), threshold=0.1) is False


def test_empirical_ci_matches_exact_oracle_mostly():
    rng = random.Random(15)
    total = agreements = 0
    for trial in range(20):
        g = random_dag(rng, ["a", "b", "c", "d"], p=0.5)
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial + 900)
        p = SvarParams(cross={k: c / 2 for k, c in p.cross.items()},
                       auto={k: c / 2 for k, c in p.auto.items()}, noise=p.noise)
        s = simulate_series(tsg, p, length=2**16, burn_in=1000, seed=trial)
        est = estimate_spectrum(s, BENCH_FREQUENCIES, segment_length=128)
        oracle = spectral_ci_oracle(tsg, p)
        for x, y in combinations(g.observed, 2):
            rest = [v for v in g.observed if v not in (x, y)]
            for size in range(len(rest) + 1):
                for Z in combinations(rest, size):
                    want = oracle(frozenset({x}), frozenset({y}), frozenset(Z))
                    got = empirical_ci_test(est, {x}, {y}, set(Z), threshold=0.1)
                    agreements += (want == got)
                    total += 1
    assert agreements / total >= 0.9


def test_empirical_ci_ill_conditioned_block():
    tsg, p = chain_benchmark()
    s = simulate_series(tsg, p, length=2**12, burn_in=100, seed=9)
    # duplicate one column: the conditioning block becomes numerically singular
    values = np.column_stack([s.values, s.values[:, 1]])
    doubled = SeriesSample(("a", "b", "c", "b2"), values)
    est = estimate_spectrum(doubled, BENCH_FREQUENCIES, segment_length=64)
    with pytest.raises(IllConditionedBlockError):
        empirical_ci_test(est, {"a"}, {"c"}, {"b", "b2"}, threshold=0.1)


def test_simulation_length_validation():
    tsg, p = chain_benchmark()
    with pytest.raises(SimulationError):
        simulate_series(tsg, p, length=0, seed=0)
    with pytest.raises(SimulationError):
        simulate_series(tsg, p, length=10, burn_in=-1, seed=0)
