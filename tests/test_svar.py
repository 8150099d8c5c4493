"""Frequency-domain parameterisation: transfer matrix, spectra, expansions."""

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svarspec import ratfield
from svarspec import svar as svar_module
from svarspec.graph import (Path, ProcessGraph, TimeSeriesGraph, Trek,
                            count_treks, t_separation_min)
from svarspec.identify import spectral_ci_oracle
from svarspec.ratfield import EVAL_POINT, MOD_PRIME, P_ONE, Poly, R_ONE, R_ZERO, RatFn
from svarspec.ratlinalg import RatMatrix, adjugate, det, rank, rank_mod
from svarspec.svar import (_ONE, _ZERO, ParameterError, SpectrumBundle, SvarParams,
                           _density, _KnownDenominator, _trek_parts,
                           conditional_spectrum, generic_rank, lag_poly,
                           sample_stable_params, spectral_density, spectrum,
                           spectrum_trek, transfer_matrix)

import svar_reference
from conftest import (random_cyclic_graph, random_dag, random_latent_dag,
                      random_ratfn, random_tsg)
from graph_reference import (TrekSystem, minimal_halftrek_subsystem,
                             sided_nonintersecting_trek_systems)
from svar_reference import (conj, det_path_expansion, det_trek_expansion, identity,
                            inverse, minus, path_function, transpose,
                            trek_function, unit_inverse)


# -- lag polynomials and link functions -------------------------------------------


def test_lag_poly_reads_off_coefficients(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=1)
    f = lag_poly(instrument_tsg, p, "u", "v")
    assert f == Poly([p.cross[("u", "v", 0)], p.cross[("u", "v", 1)]])


def test_lag_poly_no_auto_lags_is_zero():
    g = ProcessGraph.make(["a", "b"], [], [("a", "b")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0,)})
    p = sample_stable_params(tsg, seed=2)
    assert lag_poly(tsg, p, "a", "a") == Poly()


def test_lag_poly_unknown_edge(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=3)
    with pytest.raises(KeyError):
        lag_poly(instrument_tsg, p, "w", "u")


def test_link_function_quotient_shape(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=4)
    a0 = p.cross[("u", "v", 0)]
    a1 = p.cross[("u", "v", 1)]
    b = p.auto[("v", 1)]
    assert transfer_matrix(instrument_tsg, p).entry("u", "v") == RatFn([a0, a1], [1, -b])


def test_link_function_denominator_one_without_auto_lags():
    g = ProcessGraph.make(["a", "b"], [], [("a", "b")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0, 1)})
    p = sample_stable_params(tsg, seed=5)
    h = transfer_matrix(tsg, p).entry("a", "b")
    assert h.den == P_ONE


def test_transfer_matrix_zero_when_coefficients_vanish(instrument_tsg):
    zero_cross = {k: Fraction(0) for k in sample_stable_params(instrument_tsg, seed=6).cross}
    p = sample_stable_params(instrument_tsg, seed=6)
    params = SvarParams(cross=zero_cross, auto=p.auto, noise=p.noise)
    H = transfer_matrix(instrument_tsg, params)
    assert H.is_zero


def test_transfer_matrix_zero_off_edges(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=7)
    H = transfer_matrix(instrument_tsg, p)
    assert H.entry("w", "u").is_zero and H.entry("v", "u").is_zero
    assert not H.entry("u", "v").is_zero


# -- internal and projected spectra ------------------------------------------------------


def test_internal_spectrum_constant_without_auto_lags():
    g = ProcessGraph.make(["a"], [], [])
    tsg = TimeSeriesGraph.make(g, {})
    p = SvarParams.make({}, {}, {"a": Fraction(5, 3)})
    S_I = spectrum(tsg, p).S_I
    assert S_I.entry("a", "a") == RatFn(Fraction(5, 3))


def test_internal_spectrum_unit_circle_formula(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=8)
    S_I = spectrum(instrument_tsg, p).S_I
    phi = float(p.auto[("u", 1)])
    omega = float(p.noise["u"])
    for k in range(1, 9):
        theta = 0.35 * k
        z = cmath.exp(1j * theta)
        want = omega / (1 - 2 * phi * math.cos(theta) + phi * phi)
        assert abs(S_I.entry("u", "u")(z) - want) < 1e-9


def test_internal_spectrum_self_conjugate(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=9)
    S_I = spectrum(instrument_tsg, p).S_I
    for v in instrument_tsg.base.vertices:
        assert S_I.entry(v, v).conj() == S_I.entry(v, v)


def test_projected_internal_spectrum_without_latents(chain_tsg):
    p = sample_stable_params(chain_tsg, seed=10)
    b = spectrum(chain_tsg, p)
    S_I, S_LI = b.S_I, b.S_LI
    assert S_LI == S_I.submatrix(chain_tsg.base.observed, chain_tsg.base.observed)


def test_projected_internal_spectrum_latent_entries(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=11)
    H = transfer_matrix(instrument_tsg, p)
    b = spectrum(instrument_tsg, p)
    S_I, S_LI = b.S_I, b.S_LI
    assert S_LI.entry("u", "v").is_zero
    assert S_LI.entry("u", "w").is_zero
    assert S_LI.entry("v", "w") == H.entry("l", "v") * S_I.entry("l", "l") * H.entry("l", "w").conj()
    # diagonal: own internal spectrum plus the latent contribution
    want_v = S_I.entry("v", "v") + H.entry("l", "v") * H.entry("l", "v").conj() * S_I.entry("l", "l")
    assert S_LI.entry("v", "v") == want_v


def test_projected_internal_spectrum_positive_definite_on_circle(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=12)
    S_LI = spectrum(instrument_tsg, p).S_LI
    n = len(S_LI.row_labels)
    for k in range(8):
        theta = 0.2 + k * (math.pi - 0.4) / 7
        z = cmath.exp(1j * theta)
        mat = np.array([[complex(S_LI.at(i, j)(z)) for j in range(n)] for i in range(n)])
        eigenvalues = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        assert eigenvalues.min() > 0


# -- full spectrum ---------------------------------------------------------------------------


def test_spectrum_single_vertex():
    g = ProcessGraph.make(["a"], [], [])
    tsg = TimeSeriesGraph.make(g, {})
    p = SvarParams.make({}, {}, {"a": Fraction(2)})
    b = spectrum(tsg, p)
    assert b.S.entry("a", "a") == RatFn(2)


def test_spectrum_instrument_graph_identities(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=13)
    b = spectrum(instrument_tsg, p)
    H, S_I, S = b.H, b.S_I, b.S
    # the one-trek entry: left side carries the unconjugated path product
    assert S.entry("w", "u") == H.entry("u", "v") * H.entry("v", "w") * S_I.entry("u", "u")
    # grouping the treks into v's spectrum plus the single latent confounding trek
    assert S.entry("v", "w") == (
        S.entry("v", "v") * H.entry("v", "w").conj()
        + H.entry("l", "v") * S_I.entry("l", "l") * H.entry("l", "w").conj()
    )


def test_spectrum_hermitian(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=14)
    S = spectrum(instrument_tsg, p).S
    assert conj(S) == transpose(S)


def test_spectrum_matches_trek_rule_on_random_instances():
    rng = random.Random(30)
    for trial in range(12):
        n = rng.randint(1, 5)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial)
        assert spectrum(tsg, p).S == spectrum_trek(tsg, p)


def test_spectrum_trek_with_latents(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=15)
    assert spectrum(instrument_tsg, p).S == spectrum_trek(instrument_tsg, p)


def test_spectrum_trek_isolated_vertices():
    g = ProcessGraph.make(["a", "b"], [], [])
    tsg = TimeSeriesGraph.make(g, {}, {"a": (1,), "b": (1,)})
    p = sample_stable_params(tsg, seed=16)
    S = spectrum_trek(tsg, p)
    S_I = spectrum(tsg, p).S_I
    assert S == S_I.submatrix(("a", "b"), ("a", "b"))


def test_spectrum_trek_lists_each_top_and_observed_pair_once(monkeypatch, instrument_tsg):
    # the trek rule grouped by top: one path listing per (top, observed vertex),
    # |V| |O| of them, not one trek listing per entry
    calls = []
    enumerate_paths = svar_module.enumerate_paths
    monkeypatch.setattr(svar_module, "enumerate_paths",
                        lambda g, t, v: calls.append((t, v)) or enumerate_paths(g, t, v))
    rng = random.Random(31)
    for tsg in (instrument_tsg, random_tsg(rng, random_latent_dag(rng, "abcde", "lm", p=0.6))):
        calls.clear()
        p = sample_stable_params(tsg, seed=17)
        assert spectrum_trek(tsg, p) == svar_reference.spectrum_trek(tsg, p)
        graph = tsg.base
        assert len(calls) == len(set(calls)) == len(graph.vertices) * len(graph.observed)


def test_spectrum_on_cyclic_observed_graph():
    # spectra exist for cyclic graphs under the joint stability bound
    g = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (1,), ("b", "a"): (1,)})
    p = SvarParams.make(
        {("a", "b", 1): Fraction(1, 3), ("b", "a", 1): Fraction(1, 3)},
        {}, {"a": Fraction(1), "b": Fraction(1)},
    )
    p.validate(tsg)
    S = spectrum(tsg, p).S
    assert conj(S) == transpose(S)
    assert not S.entry("a", "b").is_zero


def test_unit_inverse_reads_nilpotency_off_the_zero_pattern():
    # a cyclic support is not nilpotent: a truncated geometric sum gives 7/6 at [a, a]
    ab = ["a", "b"]
    M = RatMatrix(ab, ab, [[R_ZERO, RatFn(Fraction(1, 2))], [RatFn(Fraction(1, 3)), R_ZERO]])
    assert unit_inverse(M) == inverse(minus(identity(ab), M))
    assert unit_inverse(M).entry("a", "a") == RatFn(Fraction(6, 5))
    # a strictly upper triangular support is nilpotent
    rng = random.Random(36)
    labels = ["a", "b", "c", "d"]
    N = RatMatrix(labels, labels, [
        [random_ratfn(rng, max_degree=1) if j > i else R_ZERO for j in range(4)]
        for i in range(4)
    ])
    assert unit_inverse(N) == inverse(minus(identity(labels), N))


# -- path/trek functions --------------------------------------------------------------------------


def test_path_function_empty_is_one(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=17)
    assert path_function(instrument_tsg, p, Path(("u",))) == R_ONE


def test_path_function_two_link_quotient(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=18)
    pi = Path(("u", "v", "w"))
    got = path_function(instrument_tsg, p, pi)
    num = lag_poly(instrument_tsg, p, "u", "v") * lag_poly(instrument_tsg, p, "v", "w")
    den = (P_ONE - lag_poly(instrument_tsg, p, "v", "v")) * (P_ONE - lag_poly(instrument_tsg, p, "w", "w"))
    assert got == RatFn(num, den)


def test_path_function_concatenation(confounded_chain_tsg):
    p = sample_stable_params(confounded_chain_tsg, seed=19)
    whole = path_function(confounded_chain_tsg, p, Path(("v2", "v3", "v4", "v5")))
    left = path_function(confounded_chain_tsg, p, Path(("v2", "v3")))
    right = path_function(confounded_chain_tsg, p, Path(("v3", "v4", "v5")))
    assert whole == left * right


def test_path_function_invalid_path(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=20)
    with pytest.raises(Exception):
        path_function(instrument_tsg, p, Path(("w", "u")))


# -- the known-denominator kernel against RatFn arithmetic ----------------------------------------


def _assert_matches_reference(tsg: TimeSeriesGraph, params: SvarParams) -> SpectrumBundle:
    """Every matrix of the bundle, and the trek-rule spectrum on an acyclic
    graph, equal their RatFn oracles entry for entry."""
    got, want = spectrum(tsg, params), svar_reference.spectrum(tsg, params)
    for name in ("H", "S_I", "S_LI", "S"):
        assert getattr(got, name) == getattr(want, name), name
    if tsg.base.is_acyclic:
        assert spectrum_trek(tsg, params) == svar_reference.spectrum_trek(tsg, params) == want.S
    return got


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(5, 8), latents=st.integers(0, 2),
       order=st.integers(1, 2))
def test_kernel_spectra_match_the_ratfn_reference(seed, n, latents, order):
    rng = random.Random(seed)
    graph = random_latent_dag(rng, [f"x{i}" for i in range(n)],
                              [f"h{j}" for j in range(latents)], p=0.4, p_latent=0.5)
    tsg = random_tsg(rng, graph, max_order=order)
    _assert_matches_reference(tsg, sample_stable_params(tsg, seed=seed))


def _kernel_value(kd, value) -> RatFn:
    """num z^shift / (prod of the masked factors), by RatFn arithmetic."""
    num, left, right, shift = value
    out = RatFn(num)
    for i, (d, d_star) in enumerate(zip(kd.left, kd.right)):
        out = out / RatFn(d) if left >> i & 1 else out
        out = out / RatFn(d_star) if right >> i & 1 else out
    z = RatFn(Poly([0, 1]))
    for _ in range(abs(shift)):
        out = out * z if shift > 0 else out / z
    return out


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_kernel_operations_match_ratfn_arithmetic(data):
    """ratfn maps the kernel's product, sum and conjugate to RatFn's, also for
    repeated factors and shifts of either sign."""
    coeff = st.fractions(-2, 2, max_denominator=5)
    factors: list[Poly] = []
    for _ in range(data.draw(st.integers(1, 3))):
        if factors and data.draw(st.booleans()):
            factors.append(data.draw(st.sampled_from(factors)))
        else:
            low = data.draw(st.lists(coeff, max_size=1))
            top = data.draw(coeff.filter(bool))
            factors.append(P_ONE - Poly([0, *low, top]))
    kd = svar_module._KnownDenominator(factors)
    full = (1 << len(factors)) - 1

    def value(free_left=full, free_right=full):
        num = Poly(data.draw(st.lists(coeff, max_size=4)))
        left = data.draw(st.integers(0, full)) & free_left
        right = data.draw(st.integers(0, full)) & free_right
        return num, left, right, data.draw(st.integers(-3, 3))

    a = value()
    b = value(full & ~a[1], full & ~a[2])
    c = value()
    assert kd.ratfn(a) == _kernel_value(kd, a)
    assert kd.ratfn(kd.conj(a)) == _kernel_value(kd, a).conj()
    assert kd.ratfn(kd.mul(a, b)) == _kernel_value(kd, a) * _kernel_value(kd, b)
    assert kd.ratfn(kd.total([a, b, c])) == \
        _kernel_value(kd, a) + _kernel_value(kd, b) + _kernel_value(kd, c)
    if a[0]:
        assert kd.total([a]) is a  # a lone value is its own sum


def _forbid_remainder_sequences(monkeypatch):
    def fail(a, b):
        raise AssertionError("a gcd fell back to the remainder sequence")

    monkeypatch.setattr(ratfield, "_pseudo_remainder", fail)


def _record_divexact(monkeypatch) -> list[tuple[Poly, bool]]:
    """Patch `Poly.divexact` to record (divisor, raised) per call."""
    calls = []
    divexact = Poly.divexact

    def recording(self, other):
        try:
            out = divexact(self, other)
        except ArithmeticError:
            calls.append((other, True))
            raise
        calls.append((other, False))
        return out

    monkeypatch.setattr(Poly, "divexact", recording)
    return calls


def test_kernel_cancels_a_repeated_auto_polynomial(monkeypatch):
    # D_x = D_z: S[y, y] sums terms over D_x and over D_z, never both, so the
    # lifted numerator carries D_x D_x* once too often.  Both pass the root
    # test and are divided out, no trial division fails, and with every
    # factor linear no gcd runs
    g = ProcessGraph.make(["x", "y", "z"], [], [("x", "y"), ("z", "y")])
    tsg = TimeSeriesGraph.full(g, 1)
    p = SvarParams.make(
        {("x", "y", 0): Fraction(1, 2), ("x", "y", 1): Fraction(1, 3),
         ("z", "y", 0): Fraction(-1, 4), ("z", "y", 1): Fraction(2, 5)},
        {("x", 1): Fraction(1, 2), ("y", 1): Fraction(-1, 3), ("z", 1): Fraction(1, 2)},
        {"x": Fraction(1), "y": Fraction(2), "z": Fraction(3)},
    )
    want = _assert_matches_reference(tsg, p).S
    D_x, D_y = P_ONE - Poly([0, Fraction(1, 2)]), P_ONE - Poly([0, Fraction(-1, 3)])
    assert want.entry("y", "y").den == (D_x * D_y * D_x.conj() * D_y.conj()).monic()
    monkeypatch.setattr(ratfield, "poly_gcd", lambda f, g: pytest.fail("a gcd ran"))
    calls = _record_divexact(monkeypatch)
    assert spectrum(tsg, p).S == spectrum_trek(tsg, p) == want
    assert (D_x, False) in calls and (D_x.conj(), False) in calls
    assert not any(raised for _, raised in calls)


def test_kernel_takes_no_gcd_over_linear_factors(monkeypatch):
    """With every D_v linear, each entry of H, S_I, S_LI, S and the trek-rule S
    is canonical without a gcd; a and b share one D_v in both graphs."""
    acyclic = ProcessGraph.make(["a", "b", "c", "d"], [],
                                [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    latent = ProcessGraph.make(["a", "b", "c"], ["h"],
                               [("a", "b"), ("b", "c"), ("h", "a"), ("h", "c")])
    cases = []
    for seed, graph in enumerate((acyclic, latent)):
        tsg = TimeSeriesGraph.full(graph, 1)
        p = sample_stable_params(tsg, seed=seed)
        p = SvarParams(cross=p.cross, auto={**p.auto, ("b", 1): p.auto[("a", 1)]}, noise=p.noise)
        cases.append((tsg, p, svar_reference.spectrum(tsg, p),
                      svar_reference.spectrum_trek(tsg, p)))

    def fail(f, g):
        raise AssertionError("a gcd ran")

    monkeypatch.setattr(ratfield, "poly_gcd", fail)
    for tsg, p, want, trek in cases:
        got = spectrum(tsg, p)
        for name in ("H", "S_I", "S_LI", "S"):
            assert getattr(got, name) == getattr(want, name), name
        assert spectral_density(tsg, p) == spectrum_trek(tsg, p) == trek == want.S


def test_kernel_tries_no_division_that_the_root_test_rules_out(monkeypatch):
    """With every D_v linear, each trial division that `ratfn` makes succeeds:
    a nonzero root image proves the factor does not divide the numerator."""
    rng = random.Random(40)
    cases = []
    for trial in range(80):  # 60 six-vertex DAGs and 20 latent graphs
        labels = [f"x{i}" for i in range(6)]
        graph = (random_dag(rng, labels, p=0.5) if trial % 4 else
                 random_latent_dag(rng, labels[:4], ["h1", "h2"], p=0.5))
        tsg = random_tsg(rng, graph, max_order=1)
        p = sample_stable_params(tsg, seed=trial)
        cases.append((tsg, p, svar_reference.spectrum(tsg, p)))
    calls = _record_divexact(monkeypatch)
    for tsg, p, want in cases:
        got = spectrum(tsg, p)
        for name in ("H", "S_I", "S_LI", "S"):
            assert getattr(got, name) == getattr(want, name), name
        assert spectral_density(tsg, p) == spectrum_trek(tsg, p) == want.S
    assert not any(raised for _, raised in calls)


def test_kernel_divides_when_the_prime_divides_a_leading_coefficient(monkeypatch):
    # D_x = D_z = 1 - z/P: D_x* = z - 1/P, whose primitive part P z - 1 has
    # leading coefficient P, has no root image and takes the trial division
    g = ProcessGraph.make(["x", "y", "z"], [], [("x", "y"), ("z", "y")])
    tsg = TimeSeriesGraph.full(g, 1)
    p = sample_stable_params(tsg, seed=8)
    tiny = Fraction(1, MOD_PRIME)
    p = SvarParams(cross=p.cross, auto={**p.auto, ("x", 1): tiny, ("z", 1): tiny},
                   noise=p.noise)
    D_star = (P_ONE - Poly([0, tiny])).conj()
    assert D_star.p[-1] % MOD_PRIME == 0
    want = svar_reference.spectrum(tsg, p)
    calls = _record_divexact(monkeypatch)
    got = spectrum(tsg, p)
    for name in ("H", "S_I", "S_LI", "S"):
        assert getattr(got, name) == getattr(want, name), name
    assert spectral_density(tsg, p) == spectrum_trek(tsg, p) == want.S
    assert (D_star, False) in calls


def test_kernel_takes_the_gcd_over_a_reducible_quadratic(monkeypatch):
    # D_v = (1 - z/2)(1 + z/3) = 1 - z/6 - z^2/6 beside D_w = 1 - z/2: the link
    # L_wv = 1 - z/2 divides neither D_v nor D_v*, yet shares a root with D_v,
    # so H[w, v] = L_wv / D_v reduces to 1 / (1 + z/3) only through the gcd
    g = ProcessGraph.make(["w", "v"], [], [("w", "v")])
    tsg = TimeSeriesGraph.make(g, {("w", "v"): (0, 1)}, {"w": (1,), "v": (1, 2)})
    p = SvarParams.make(
        {("w", "v", 0): Fraction(1), ("w", "v", 1): Fraction(-1, 2)},
        {("w", 1): Fraction(1, 2), ("v", 1): Fraction(1, 6), ("v", 2): Fraction(1, 6)},
        {"w": Fraction(1), "v": Fraction(2)},
    )
    want, trek = svar_reference.spectrum(tsg, p), svar_reference.spectrum_trek(tsg, p)
    assert want.H.entry("w", "v") == RatFn([1], [1, Fraction(1, 3)])
    calls = []
    gcd = ratfield.poly_gcd
    monkeypatch.setattr(ratfield, "poly_gcd", lambda f, g: calls.append(1) or gcd(f, g))
    got = spectrum(tsg, p)
    for name in ("H", "S_I", "S_LI", "S"):
        assert getattr(got, name) == getattr(want, name), name
    assert spectral_density(tsg, p) == spectrum_trek(tsg, p) == trek == want.S
    assert calls


def test_kernel_cancels_a_power_of_z(monkeypatch):
    # S[c, b] = H[a, c] S_I[a, a] conj(H[a, b]) with H[a, c] = z / 3 and
    # conj(H[a, b]) over z^2: the numerator's z cancels before the gcd
    g = ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("a", "c")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0, 1, 2), ("a", "c"): (1,)}, {"c": (1,)})
    p = SvarParams.make(
        {("a", "b", 0): Fraction(1, 2), ("a", "b", 1): Fraction(1, 3),
         ("a", "b", 2): Fraction(1, 4), ("a", "c", 1): Fraction(1, 3)},
        {("c", 1): Fraction(1, 5)}, {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)},
    )
    want = _assert_matches_reference(tsg, p).S
    assert want.entry("c", "b").den.degree == 2
    _forbid_remainder_sequences(monkeypatch)
    assert spectrum(tsg, p).S == spectrum_trek(tsg, p) == want


def test_kernel_without_auto_lags():
    # D_v = 1 at every vertex but c, and at every vertex in the second graph
    g = ProcessGraph.make(["a", "b", "c", "d"], ["h"],
                          [("a", "b"), ("b", "c"), ("a", "c"), ("h", "b"), ("h", "d")])
    cross = {e: (0, 1) for e in g.edges}
    for auto in ({"c": (1,)}, {}):
        tsg = TimeSeriesGraph.make(g, cross, auto)
        for seed in range(3):
            _assert_matches_reference(tsg, sample_stable_params(tsg, seed=seed))


def test_kernel_zero_coefficients_make_entries_vanish():
    # a -> b -> c with every coefficient of b -> c zero: S[a, c] and S[b, c] vanish
    g = ProcessGraph.make(["a", "b", "c"], ["h"], [("a", "b"), ("b", "c"), ("h", "a")])
    tsg = TimeSeriesGraph.full(g, 2)
    p = sample_stable_params(tsg, seed=5)
    p = SvarParams(cross={k: (Fraction(0) if k[:2] == ("b", "c") else c)
                          for k, c in p.cross.items()},
                   auto=p.auto, noise=p.noise)
    S = _assert_matches_reference(tsg, p).S
    assert S.entry("a", "c").is_zero and S.entry("c", "b").is_zero
    assert not S.entry("a", "b").is_zero
    # a zero variance at the latent h removes its term from S_LI
    q = SvarParams(cross=p.cross, auto=p.auto, noise={**p.noise, "h": Fraction(0)})
    b = _assert_matches_reference(tsg, q)
    assert b.S_LI.entry("a", "a") == b.S_I.entry("a", "a")


def test_kernel_isolated_vertex():
    g = ProcessGraph.make(["a", "b", "c"], ["h"], [("a", "b"), ("h", "a"), ("h", "b")])
    tsg = TimeSeriesGraph.full(g, 2)
    p = sample_stable_params(tsg, seed=6)
    b = _assert_matches_reference(tsg, p)
    S = b.S
    assert S.entry("c", "c") == b.S_I.entry("c", "c")
    assert all(S.entry("c", v).is_zero and S.entry(v, "c").is_zero for v in ("a", "b"))


def test_cyclic_observed_graph_keeps_the_bareiss_path(monkeypatch):
    """A cyclic observed part takes one adjugate of the |O| x |O| matrix M; an
    acyclic graph takes none."""
    calls = []

    def counting_adjugate(rows):
        calls.append(len(rows))
        return adjugate(rows)

    monkeypatch.setattr(svar_module, "adjugate", counting_adjugate)
    rng = random.Random(38)
    for trial in range(6):
        graph = random_cyclic_graph(rng, rng.randint(2, 4))
        graph = ProcessGraph.make(graph.observed, ["h"],
                                  graph.edges + (("h", graph.observed[0]),))
        tsg = random_tsg(rng, graph, max_order=1)
        calls.clear()
        _assert_matches_reference(tsg, sample_stable_params(tsg, seed=trial))
        assert calls == [len(graph.observed)]
    tsg = TimeSeriesGraph.full(random_dag(rng, ["a", "b", "c", "d"], p=0.7), 1)
    calls.clear()
    _assert_matches_reference(tsg, sample_stable_params(tsg, seed=0))
    assert calls == []


def test_cyclic_spectrum_over_a_linear_determinant(monkeypatch):
    """A 2-cycle without auto lags, a -> b at lag 0 and b -> a at lag 1: d is
    1 - c e z, linear, the only factor, so every entry takes no gcd."""
    g = ProcessGraph.make(["a", "b"], ["h"], [("a", "b"), ("b", "a"), ("h", "a")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0,), ("b", "a"): (1,), ("h", "a"): (0, 1)})
    p = sample_stable_params(tsg, seed=3)
    c, e = p.cross[("a", "b", 0)], p.cross[("b", "a", 1)]
    want = _assert_matches_reference(tsg, p).S
    d = Poly([1, -c * e])
    assert want.entry("a", "b").den == (d * d.conj()).monic()

    def fail(f, g):
        raise AssertionError("a gcd ran")

    monkeypatch.setattr(ratfield, "poly_gcd", fail)
    assert spectral_density(tsg, p) == want


def test_cyclic_spectrum_where_d_shares_a_factor_off_the_cycle(monkeypatch):
    """c is off the cycle a <-> b and D_c = 1 - z/16 equals the cycle's own
    determinant 1 - z/16, so d = D_c^2.  D_c is divided out of d, which leaves
    the kernel two linear factors, D_c and d', and no entry takes a gcd."""
    g = ProcessGraph.make(["a", "b", "c"], ["h"],
                          [("a", "b"), ("b", "a"), ("a", "c"), ("h", "b"), ("h", "c")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0,), ("b", "a"): (1,), ("a", "c"): (0, 1),
                                   ("h", "b"): (0,), ("h", "c"): (1,)}, {"c": (1,)})
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    p = SvarParams.make({("a", "b", 0): quarter, ("b", "a", 1): quarter, ("a", "c", 0): eighth,
                         ("a", "c", 1): -eighth, ("h", "b", 0): 2, ("h", "c", 1): 3},
                        {("c", 1): quarter * quarter}, {"a": 1, "b": 2, "c": 3, "h": eighth})
    p.validate(tsg)
    D_c = Poly([1, -quarter * quarter])
    M = [[P_ONE, -Poly([quarter]), -Poly([eighth, -eighth])],
         [-Poly([0, quarter]), P_ONE, Poly([])],
         [Poly([]), Poly([]), D_c]]
    assert adjugate(M)[1].monic() == (D_c * D_c).monic()
    want = _assert_matches_reference(tsg, p).S

    def fail(f, g):
        raise AssertionError("a gcd ran")

    monkeypatch.setattr(ratfield, "poly_gcd", fail)
    assert spectral_density(tsg, p) == want


def test_cyclic_spectrum_where_d_vanishes_at_zero():
    """Unvalidated parameters with det M = -5z/6: z leaves d for the shift and
    -5/6 for the content, and the kernel gets no factor from d.  So it does
    with d = z/5, where a kernel factor z would leave entries non-canonical."""
    g = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    cross = {("a", "b"): (0,), ("b", "a"): (0, 1)}
    p = SvarParams.make({("a", "b", 0): 1, ("b", "a", 0): 1, ("b", "a", 1): Fraction(1, 3)},
                        {("a", 1): Fraction(1, 2)}, {"a": 1, "b": 1})
    tsg = TimeSeriesGraph.make(g, cross, {"a": (1,)})
    with pytest.raises(ParameterError):
        p.validate(tsg)
    S = _assert_matches_reference(tsg, p).S
    assert S.entry("a", "a") == RatFn([Fraction(12, 25), Fraction(76, 25), Fraction(12, 25)],
                                      [0, 1])
    q = SvarParams.make({("a", "b", 0): Fraction(3, 5), ("b", "a", 0): Fraction(5, 3),
                         ("b", "a", 1): Fraction(1, 2)}, {("b", 1): Fraction(-1, 2)},
                        {"a": 1, "b": 1})
    M = [[P_ONE, -Poly([Fraction(3, 5)])],
         [-Poly([Fraction(5, 3), Fraction(1, 2)]), Poly([1, Fraction(1, 2)])]]
    assert adjugate(M)[1].monic() == Poly([0, 1])
    _assert_matches_reference(TimeSeriesGraph.make(g, cross, {"b": (1,)}), q)


def lag0_cyclic_instance(rng: random.Random) -> TimeSeriesGraph:
    """A random cyclic graph on 2-6 observed vertices whose 2-cycles all carry
    lag 0 both ways, with a latent in about half the draws, at lag order 1 or 2."""
    graph = random_cyclic_graph(rng, rng.randint(2, 6))
    if rng.random() < 0.5:
        obs = graph.observed
        children = [obs[0]] + [v for v in obs[1:] if rng.random() < 0.5]
        graph = ProcessGraph.make(obs, ["h"], graph.edges + tuple(("h", v) for v in children))
    tsg = random_tsg(rng, graph, max_order=rng.randint(1, 2))
    cross = {(a, b): tuple(sorted({0, *lags})) if (b, a) in tsg.cross_lags else lags
             for (a, b), lags in tsg.cross_lags.items()}
    return TimeSeriesGraph.make(graph, cross, tsg.auto_lags)


def test_validated_cyclic_parameters_leave_det_m_nonzero_at_zero(monkeypatch):
    """On validated parameters of a cyclic graph, the determinant d that
    `_cyclic_density` takes from `adjugate` has d(0) = +-det(I - B_0) != 0,
    B_0 the lag-0 observed cross coefficients, as its docstring proves.  So
    `adjugate` never raises SingularMatrixError there, the CI oracle builds
    on every draw, and `discover --seed` needs no second draw."""
    taken = []

    def recording(rows):
        X, d = adjugate(rows)
        taken.append(d)
        return X, d

    monkeypatch.setattr(svar_module, "adjugate", recording)
    rng = random.Random(28)
    kinds = set()
    for trial in range(40):
        tsg = lag0_cyclic_instance(rng)
        obs = tsg.base.observed
        kinds.add((bool(tsg.base.latent), tsg.order))
        for seed in range(2):
            params = sample_stable_params(tsg, seed=seed)
            taken.clear()
            spectral_ci_oracle(tsg, params)
            [d] = taken
            identity_minus_b0 = RatMatrix(obs, obs, [
                [RatFn([(a == b) - params.cross.get((a, b, 0), 0)], [1]) for b in obs]
                for a in obs])
            want = det(identity_minus_b0)(0)
            assert want != 0 and d(0) in (want, -want), (trial, seed)
    assert kinds == {(latent, order) for latent in (False, True) for order in (1, 2)}


def test_spectrum_gcd_calls_are_linear_in_the_graph(monkeypatch):
    """At most one gcd per entry of H, S_I, S_LI and S: |E| + |V| + 2 |O|^2,
    however many treks there are."""
    calls = []

    def counting_gcd(f, g):
        calls.append(1)
        return ratfield_gcd(f, g)

    ratfield_gcd = ratfield.poly_gcd
    monkeypatch.setattr(ratfield, "poly_gcd", counting_gcd)
    rng = random.Random(39)
    most = 0.0
    for trial in range(8):
        n = rng.randint(4, 7)
        graph = random_latent_dag(rng, [f"x{i}" for i in range(n)], ["h1", "h2"], p=0.8)
        tsg = random_tsg(rng, graph, max_order=2)
        params = sample_stable_params(tsg, seed=trial)
        calls.clear()
        spectrum(tsg, params)
        bound = len(graph.edges) + len(graph.vertices) + 2 * len(graph.observed) ** 2
        assert len(calls) <= bound, (trial, len(calls), bound)
        treks = sum(count_treks(graph, v, w) for v in graph.observed for w in graph.observed)
        most = max(most, treks / bound)
    # the densest graphs have several times more treks than the bound
    assert most > 4


# -- conditional spectrum -------------------------------------------------------------------------


def test_conditional_spectrum_empty_conditioning(chain_tsg):
    p = sample_stable_params(chain_tsg, seed=21)
    S = spectrum(chain_tsg, p).S
    assert conditional_spectrum(S, ["a"], ["c"], []) == S.submatrix(["a"], ["c"])


def test_conditional_spectrum_chain_vanishes(chain_tsg):
    p = sample_stable_params(chain_tsg, seed=22)
    S = spectrum(chain_tsg, p).S
    assert conditional_spectrum(S, ["a"], ["c"], ["b"]).is_zero


def test_conditional_spectrum_rank_characterisation():
    rng = random.Random(31)
    for trial in range(10):
        g = random_dag(rng, [f"x{i}" for i in range(4)], p=0.5)
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial + 50)
        S = spectrum(tsg, p).S
        verts = list(g.vertices)
        rng.shuffle(verts)
        X, Y, Z = [verts[0]], [verts[1]], verts[2:3]
        zero = conditional_spectrum(S, X, Y, Z).is_zero
        r = rank(S.submatrix(sorted(X + Z), sorted(Y + Z)))
        assert zero == (r == len(Z))


def test_conditional_spectrum_disjointness_enforced(chain_tsg):
    p = sample_stable_params(chain_tsg, seed=23)
    S = spectrum(chain_tsg, p).S
    with pytest.raises(ValueError):
        conditional_spectrum(S, ["a"], ["a"], [])


# -- generic rank and separation ----------------------------------------------------------------------


def test_generic_rank_disconnected_is_zero():
    g = ProcessGraph.make(["a", "b"], [], [])
    tsg = TimeSeriesGraph.make(g, {}, {"a": (1,), "b": (1,)})
    assert generic_rank(tsg, ["a"], ["b"], trials=2, seed=0) == 0


def test_generic_rank_instrument_graph(instrument_graph, instrument_tsg):
    assert generic_rank(instrument_tsg, ["v"], ["w"], trials=3, seed=1) == 1
    assert t_separation_min(instrument_graph, {"v"}, {"w"})[0] == 1


def test_generic_rank_fork_example(fork3_tsg):
    assert generic_rank(fork3_tsg, ["2"], ["3"], trials=3, seed=2) == 1


def spy_on_generic_rank(monkeypatch, params=None, exact_rank=rank):
    """Records generic_rank's draws, the blocks it reads off the kernel and the
    blocks it ranks exactly, each block as (rows, cols); building a full S
    fails.  With `params`, every draw takes them; `exact_rank` replaces the
    Bareiss rank."""
    log: dict[str, list] = {"draws": [], "blocks": [], "exact": []}

    def sampler(tsg, seed):
        log["draws"].append(seed)
        return sample_stable_params(tsg, seed=seed) if params is None else params

    def density(graph, kd, tops, links, rows, cols):
        log["blocks"].append((tuple(rows), tuple(cols)))
        return _density(graph, kd, tops, links, rows, cols)

    def exact(M):
        log["exact"].append((M.row_labels, M.col_labels))
        return exact_rank(M)

    def full_s(*args):
        raise AssertionError("generic_rank built a full S")

    monkeypatch.setattr(svar_module, "sample_stable_params", sampler)
    monkeypatch.setattr(svar_module, "_density", density)
    monkeypatch.setattr(svar_module, "rank", exact)
    monkeypatch.setattr(svar_module, "spectral_density", full_s)
    monkeypatch.setattr(svar_module._KnownDenominator, "hermitian", full_s)
    return log


def test_generic_rank_stops_at_full_rank(monkeypatch, instrument_tsg):
    log = spy_on_generic_rank(monkeypatch)

    def counts():
        """(draws, blocks read, blocks ranked exactly) since the last call."""
        out = tuple(len(log[key]) for key in ("draws", "blocks", "exact"))
        for calls in log.values():
            calls.clear()
        return out

    # the first draw reaches the bound modulo the prime: no exact rank
    assert generic_rank(instrument_tsg, ["v"], ["w"], trials=3, seed=1) == 1
    assert counts() == (1, 1, 0)
    # every trek from {x1, x2} to {y1, y2} passes through m: the bound is 1 < 2,
    # and the first draw reaches it
    g = ProcessGraph.make(["x1", "x2", "m", "y1", "y2"], [],
                          [("x1", "m"), ("x2", "m"), ("m", "y1"), ("m", "y2")])
    tsg = TimeSeriesGraph.full(g, 1)
    assert generic_rank(tsg, ["x2", "x1"], ["y1", "y2"], trials=3, seed=1) == 1
    assert log["blocks"] == [(("x1", "x2"), ("y1", "y2"))]
    assert counts() == (1, 1, 0)
    # a draw that stays below the bound modulo the prime ranks its block
    # exactly, and one that stays below it exactly too draws every trial
    monkeypatch.setattr(svar_module, "rank_mod", lambda rows: 0)
    assert generic_rank(tsg, ["x1", "x2"], ["y1", "y2"], trials=3, seed=1) == 1
    assert log["exact"] == [(("x1", "x2"), ("y1", "y2"))]
    assert counts() == (1, 1, 1)
    log = spy_on_generic_rank(monkeypatch, exact_rank=lambda M: 0)
    assert generic_rank(tsg, ["x1", "x2"], ["y1", "y2"], trials=3, seed=1) == 0
    assert counts() == (3, 3, 3)
    # a cyclic graph keeps min(|X|, |Y|) as its bound, modulo the prime or exactly
    cyclic = TimeSeriesGraph.full(ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")]), 1)
    monkeypatch.undo()
    log = spy_on_generic_rank(monkeypatch)
    assert generic_rank(cyclic, ["a"], ["b"], trials=3, seed=1) == 1
    assert counts() == (1, 1, 0)
    monkeypatch.setattr(svar_module, "rank_mod", lambda rows: 0)
    log = spy_on_generic_rank(monkeypatch, exact_rank=lambda M: 1)
    assert generic_rank(cyclic, ["a"], ["b"], trials=3, seed=1) == 1
    assert counts() == (1, 1, 1)


def test_generic_rank_rejects_labels_outside_the_observed_spectrum():
    # no trek joins the latent h to b: the separation bound is 0, so no draw reads S
    g = ProcessGraph.make(["a", "b"], ["h"], [("a", "b")])
    tsg = TimeSeriesGraph.make(g, {("a", "b"): (0,)}, {})
    for X in (["nope"], ["h"]):
        with pytest.raises(KeyError):
            generic_rank(tsg, X, ["b"], trials=1, seed=0)


def test_rank_never_exceeds_separation_bound():
    rng = random.Random(32)
    for trial in range(15):
        g = random_dag(rng, [f"x{i}" for i in range(4)], p=0.5)
        tsg = random_tsg(rng, g)
        verts = list(g.vertices)
        X = sorted(rng.sample(verts, 2))
        Y = sorted(rng.sample(verts, 2))
        p = sample_stable_params(tsg, seed=trial + 400)
        S = spectrum(tsg, p).S
        bound = t_separation_min(g, set(X), set(Y))[0]
        assert rank(S.submatrix(X, Y)) <= bound


# -- the modular lower bound against the all-exact rank ------------------------------------------


def reference_generic_rank(tsg: TimeSeriesGraph, X, Y, trials: int = 3, seed: int = 0) -> int:
    """generic_rank with every draw computed over R(z): an exact spectrum and a
    Bareiss rank per draw, stopping at the same separation bound."""
    X, Y = tuple(sorted(X)), tuple(sorted(Y))
    if tsg.base.is_acyclic:
        bound = t_separation_min(tsg.base, X, Y)[0]
    else:
        bound = min(len(X), len(Y))
    best = 0
    for t in range(trials):
        if best == bound:
            break
        params = sample_stable_params(tsg, seed=seed * 1_000_003 + t)
        best = max(best, rank(spectrum(tsg, params).S.submatrix(X, Y)))
    return best


def random_instance(seed: int, cyclic: bool) -> TimeSeriesGraph:
    """A seeded random latent DAG or cyclic observed graph with random lags."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    if cyclic:
        graph = random_cyclic_graph(rng, n)
    else:
        graph = random_latent_dag(rng, [f"x{i}" for i in range(n)], ["h"], p=0.5)
    return random_tsg(rng, graph, max_order=1)


def three_kinds(seed: int) -> TimeSeriesGraph:
    """A seeded acyclic, latent or cyclic instance as seed % 3 is 0, 1 or 2;
    `random_instance`'s latent DAGs always have latent edges."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(rng.randint(2, 5))]
    if seed % 3 == 0:
        graph = random_dag(rng, labels, p=0.5)
    elif seed % 3 == 1:
        graph = random_latent_dag(rng, labels, ["h", "k"], p=0.5, p_latent=0.7)
    else:
        graph = random_cyclic_graph(rng, len(labels))
    return random_tsg(rng, graph, max_order=2)


def kernel_block(tsg: TimeSeriesGraph, params: SvarParams, rows, cols):
    """The kernel and the values of S[rows, cols], by row."""
    kd, entry = _density(tsg.base, *_trek_parts(tsg, params), rows, cols)
    return kd, [[entry(v, w) for w in cols] for v in rows]


def kernel_image_of_s(tsg: TimeSeriesGraph, params: SvarParams):
    """S over the observed vertices modulo P, by `_KnownDenominator.image`."""
    obs = tsg.base.observed
    kd, values = kernel_block(tsg, params, obs, obs)
    return [[kd.image(a) for a in row] for row in values]


def test_spectrum_mod_is_the_image_of_the_exact_spectrum():
    """`_KnownDenominator.image` maps each value of S to its entry's image
    modulo P, on acyclic, latent and cyclic graphs."""
    for seed in range(40):
        tsg = random_instance(seed, cyclic=seed % 2 == 1)
        params = sample_stable_params(tsg, seed=seed)
        want = svar_reference.image(spectrum(tsg, params).S, EVAL_POINT)
        assert kernel_image_of_s(tsg, params) == want, seed


def test_spectrum_mod_takes_no_gcd(monkeypatch):
    """The image modulo P comes from the kernel values alone: no RatFn is
    reduced, on acyclic, latent and cyclic graphs."""
    cases = []
    for seed in range(45):
        tsg = three_kinds(seed)
        params = sample_stable_params(tsg, seed=seed)
        cases.append((tsg, params, svar_reference.image(spectrum(tsg, params).S, EVAL_POINT)))
    graphs = [tsg.base for tsg, _, _ in cases]
    assert any(not g.is_acyclic for g in graphs)
    assert any(a in g.latent for g in graphs for a, _ in g.edges)
    assert any(g.is_acyclic and not set(g.latent) & {a for a, _ in g.edges} for g in graphs)

    def fail(f, g):
        raise AssertionError("the image took a gcd")

    monkeypatch.setattr(ratfield, "poly_gcd", fail)
    for seed, (tsg, params, want) in enumerate(cases):
        assert kernel_image_of_s(tsg, params) == want, seed


def test_rectangular_block_is_the_submatrix_of_s():
    """The block read off the kernel for rows X and columns Y, in any order,
    overlapping or not, is S[X, Y], below S's diagonal as well as above it."""
    for seed in range(45):
        tsg = three_kinds(seed)
        params = sample_stable_params(tsg, seed=seed)
        obs = list(tsg.base.observed)
        rng = random.Random(seed)
        X = rng.sample(obs, rng.randint(1, len(obs)))
        Y = rng.sample(obs, rng.randint(1, len(obs)))
        kd, values = kernel_block(tsg, params, X, Y)
        got = RatMatrix(X, Y, [[kd.ratfn(a) for a in row] for row in values])
        assert got == spectral_density(tsg, params).submatrix(X, Y), seed


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def kernel_pairs(draw):
    """A kernel of one to three factors, each with a nonzero constant term, and
    two values over it whose masks share no factor on either side."""
    factors = draw(st.lists(st.builds(lambda c0, rest: Poly([c0, *rest]),
                                      small.filter(bool), st.lists(small, max_size=2))
                            .filter(lambda f: f.degree > 0), min_size=1, max_size=3))
    full = (1 << len(factors)) - 1

    def value(free_left, free_right):
        num = Poly(draw(st.lists(small, max_size=4)))
        return (num, draw(st.integers(0, full)) & free_left,
                draw(st.integers(0, full)) & free_right, draw(st.integers(-2, 2)))

    a = value(full, full)
    return _KnownDenominator(factors), a, value(full ^ a[1], full ^ a[2])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(kernel_pairs())
def test_hypothesis_kernel_image_is_a_ring_homomorphism(case):
    """`image` maps products and sums of values to products and sums, one
    function's values to one image (its canonical form's residue), and the
    conjugate to the value at 1/z0."""
    kd, a, b = case
    x, y = kd.image(a), kd.image(b)
    assert kd.image(kd.mul(a, b)) == x * y % MOD_PRIME
    assert kd.image(kd.total([a, b])) == (x + y) % MOD_PRIME
    assert x == svar_reference.residue(kd.ratfn(a), EVAL_POINT)
    w = pow(EVAL_POINT, -1, MOD_PRIME)
    assert kd.image(kd.conj(a)) == svar_reference.residue(kd.ratfn(a), w)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(kernel_pairs(), st.integers(min_value=-6, max_value=6))
@example((_KnownDenominator([Poly([1, Fraction(-1, 2)])]), (P_ONE, 0, 1, 0), _ONE), 2)
def test_hypothesis_kernel_image_reduces_the_exact_value(case, k):
    """At a small point k the image is the residue of the exact value; it has
    none exactly when a factor of the kernel vanishes at k, or k = 0 meets a
    negative shift."""
    factors, a = case[0].left, case[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svar_module, "EVAL_POINT", k % MOD_PRIME)
        kd = _KnownDenominator(factors)  # a kernel inverts its factors at its first image
        try:
            got = kd.image(a)
        except ValueError:
            got = None
    point = Fraction(k)
    if any(f(point) == 0 for f in kd.left + kd.right) or (k == 0 and a[3] < 0):
        assert got is None
    else:
        value = kd.ratfn(a)(point)
        assert got == value.numerator * pow(value.denominator, -1, MOD_PRIME) % MOD_PRIME


def test_kernel_image_unlucky_cases(monkeypatch):
    P = MOD_PRIME
    # the prime divides a content denominator
    kd = _KnownDenominator([Poly([1, -1])])
    with pytest.raises(ValueError):
        kd.image((Poly([Fraction(1, P), 1]), 0, 0, 0))
    # ... but not the image of a factor: 1 + P z is 1 modulo P, and its
    # reversal P + z is z
    kd = _KnownDenominator([Poly([1, P])])
    assert kd.image((P_ONE, 1, 0, 0)) == 1
    assert kd.image((P_ONE, 0, 1, 0)) == pow(EVAL_POINT, -1, P)
    # a factor vanishes at the point modulo the prime, though not over Q
    monkeypatch.setattr(svar_module, "EVAL_POINT", 2)
    with pytest.raises(ValueError):
        _KnownDenominator([Poly([-2 - P, 1])]).image((P_ONE, 1, 0, 0))
    # a numerator that vanishes modulo the prime is a zero image, not an unlucky one
    kd = _KnownDenominator([])
    assert kd.image((Poly([-2 - P, 1]), 0, 0, 0)) == 0
    assert kd.image((Poly([P]), 0, 0, 0)) == 0
    assert kd.image(_ZERO) == 0 and kd.image(_ONE) == 1
    # the point 0 against a negative shift
    monkeypatch.setattr(svar_module, "EVAL_POINT", 0)
    with pytest.raises(ValueError):
        _KnownDenominator([]).image((P_ONE, 0, 0, -1))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_principal_blocks_of_a_validated_spectrum_have_full_rank(seed):
    """Positive noise makes S Hermitian positive definite at a generic point of
    the unit circle, so every principal block S[Z, Z] is nonsingular over R(z):
    acyclic, latent and cyclic graphs, lag order up to 2."""
    tsg = three_kinds(seed)
    params = sample_stable_params(tsg, seed=seed)
    params.validate(tsg)
    S = spectral_density(tsg, params)
    observed = tsg.base.observed
    for k in range(1, len(observed) + 1):
        for Z in combinations(observed, k):
            assert rank(S.submatrix(Z, Z)) == k, Z


def test_transfer_matrix_matches_the_ratfn_reference(monkeypatch):
    """H read off the kernel's link values equals one RatFn L_ab / D_b per edge,
    and `spectrum` reads each lag polynomial once: D_v per vertex, L_ab per edge."""
    reads = []

    def counted(tsg, params, x, y):
        reads.append((x, y))
        return lag_poly(tsg, params, x, y)

    monkeypatch.setattr(svar_module, "lag_poly", counted)
    for seed in range(60):
        tsg = three_kinds(seed)
        params = sample_stable_params(tsg, seed=seed)
        want = svar_reference.transfer_matrix(tsg, params)
        reads.clear()
        assert spectrum(tsg, params).H == want, seed
        assert sorted(reads) == sorted([(v, v) for v in tsg.base.vertices] + list(tsg.base.edges))
        assert transfer_matrix(tsg, params) == want, seed


def test_spectral_density_builds_s_alone(monkeypatch):
    """`spectral_density` is the bundle's S and builds no H, S_I or S_LI, on an
    acyclic graph and a cyclic one alike; `spectrum` builds each once."""
    cases = [(tsg, sample_stable_params(tsg, seed=seed))
             for tsg in map(three_kinds, range(36)) for seed in (0, 1)]
    want = [spectrum(tsg, params).S for tsg, params in cases]
    assert {tsg.base.is_acyclic for tsg, _ in cases} == {True, False}
    calls = []

    def counted(name):
        real = getattr(svar_module, name)

        def wrapper(graph, *args):
            calls.append(name)
            return real(graph, *args)

        return wrapper

    for name in ("_transfer", "_internal", "_projected"):
        monkeypatch.setattr(svar_module, name, counted(name))
    for (tsg, params), S in zip(cases, want):
        calls.clear()
        assert spectral_density(tsg, params) == S
        assert calls == []
        calls.clear()
        assert spectrum(tsg, params).S == S
        assert sorted(calls) == ["_internal", "_projected", "_transfer"]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6), cyclic=st.booleans())
def test_modular_rank_never_exceeds_the_exact_rank(seed, cyclic):
    """The filter never says "full rank" where the exact subspectrum is deficient."""
    tsg = random_instance(seed, cyclic)
    params = sample_stable_params(tsg, seed=seed)
    S = spectrum(tsg, params).S
    observed = list(tsg.base.observed)
    kd, values = kernel_block(tsg, params, observed, observed)
    image = {(v, w): kd.image(a) for v, row in zip(observed, values) for w, a in zip(observed, row)}
    for k in range(1, len(observed) + 1):
        for X in combinations(observed, k):
            for Y in combinations(observed, k):
                exact = rank(S.submatrix(X, Y))
                assert rank_mod([[image[x, y] for y in Y] for x in X]) <= exact
    rng = random.Random(seed)
    k = rng.randint(1, len(observed))
    X, Y = rng.sample(observed, k), rng.sample(observed, k)
    assert generic_rank(tsg, X, Y, trials=2, seed=seed) == \
        reference_generic_rank(tsg, X, Y, trials=2, seed=seed)


def test_generic_rank_matches_exact_reference_on_criterion_four():
    """criterion 4's 100 instances, both seeds it tries"""
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
        for seed in (trial, trial + 77_777):
            assert generic_rank(tsg, X, Y, trials=3, seed=seed) == \
                reference_generic_rank(tsg, X, Y, trials=3, seed=seed), (trial, seed)


def _forced_fallback(monkeypatch, tsg, params):
    """generic_rank of S[v, w] on fixed parameters whose block has no image
    modulo P; returns the result and the spy's log."""
    kd, values = kernel_block(tsg, params, ["v"], ["w"])
    with pytest.raises(ValueError):
        kd.image(values[0][0])
    log = spy_on_generic_rank(monkeypatch, params)
    return generic_rank(tsg, ["v"], ["w"], trials=1, seed=0), log


def test_generic_rank_falls_back_when_a_denominator_is_divisible_by_the_prime(
        monkeypatch, instrument_tsg):
    params = sample_stable_params(instrument_tsg, seed=3)
    params = SvarParams(cross={**params.cross, ("v", "w", 1): Fraction(1, MOD_PRIME)},
                        auto=params.auto, noise=params.noise)
    want = rank(spectrum(instrument_tsg, params).S.submatrix(["v"], ["w"]))
    got, log = _forced_fallback(monkeypatch, instrument_tsg, params)
    assert log["blocks"] == log["exact"] == [(("v",), ("w",))]
    assert got == want == 1


def test_generic_rank_falls_back_when_the_point_is_a_pole(monkeypatch, instrument_tsg):
    # 1 - z/2 is the auto-lag denominator of w, and z0 = 2 its root
    params = sample_stable_params(instrument_tsg, seed=3)
    params = SvarParams(cross=params.cross, auto={**params.auto, ("w", 1): Fraction(1, 2)},
                        noise=params.noise)
    monkeypatch.setattr(svar_module, "EVAL_POINT", 2)
    got, log = _forced_fallback(monkeypatch, instrument_tsg, params)
    assert log["blocks"] == log["exact"] == [(("v",), ("w",))]
    assert got == 1


# -- determinant expansions ------------------------------------------------------------------------------


def test_det_path_expansion_trivial_singleton():
    g = ProcessGraph.make(["a"], [], [])
    tsg = TimeSeriesGraph.make(g, {}, {"a": (1,)})
    p = sample_stable_params(tsg, seed=24)
    assert det_path_expansion(tsg, p, ["a"], ["a"]) == R_ONE


def test_det_path_expansion_matches_elimination():
    rng = random.Random(33)
    for trial in range(25):
        n = rng.randint(2, 5)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial + 100)
        H = transfer_matrix(tsg, p)
        N = unit_inverse(H)
        k = rng.randint(1, n)
        X = sorted(rng.sample(list(g.vertices), k))
        Y = sorted(rng.sample(list(g.vertices), k))
        assert det(N.submatrix(X, Y)) == det_path_expansion(tsg, p, X, Y, H)


def test_det_path_expansion_order_zero_reduces_to_classical():
    # constant link coefficients: the identity is the classical one on weights
    rng = random.Random(34)
    g = random_dag(rng, ["a", "b", "c", "d"], p=0.7)
    tsg = TimeSeriesGraph.make(g, {e: (0,) for e in g.edges}, {})
    p = sample_stable_params(tsg, seed=25)
    H = transfer_matrix(tsg, p)
    assert all(e.den == P_ONE for row in H.entries for e in row)
    N = unit_inverse(H)
    X, Y = ["a", "b"], ["c", "d"]
    expansion = det_path_expansion(tsg, p, X, Y, H)
    assert det(N.submatrix(X, Y)) == expansion
    assert expansion.den == P_ONE and expansion.num.degree <= 0


def test_det_trek_expansion_isolated_vertex():
    g = ProcessGraph.make(["a"], [], [])
    tsg = TimeSeriesGraph.make(g, {}, {"a": (1,)})
    p = sample_stable_params(tsg, seed=26)
    S_I = spectrum(tsg, p).S_I
    assert det_trek_expansion(tsg, p, ["a"], ["a"]) == S_I.entry("a", "a")


def test_det_trek_expansion_matches_elimination():
    rng = random.Random(35)
    for trial in range(15):
        n = rng.randint(2, 4)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial + 200)
        S = spectrum(tsg, p).S
        k = rng.randint(1, min(2, n))
        X = sorted(rng.sample(list(g.vertices), k))
        Y = sorted(rng.sample(list(g.vertices), k))
        assert det(S.submatrix(X, Y)) == det_trek_expansion(tsg, p, X, Y)


def test_det_trek_expansion_vanishes_iff_no_system():
    rng = random.Random(36)
    seen_empty = seen_nonempty = False
    for trial in range(20):
        n = rng.randint(2, 4)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.4)
        tsg = random_tsg(rng, g)
        p = sample_stable_params(tsg, seed=trial + 300)
        k = rng.randint(1, 2)
        X = sorted(rng.sample(list(g.vertices), k))
        Y = sorted(rng.sample(list(g.vertices), k))
        systems = sided_nonintersecting_trek_systems(g, X, Y)
        value = det_trek_expansion(tsg, p, X, Y)
        if not systems:
            assert value.is_zero
            seen_empty = True
        else:
            assert not value.is_zero
            seen_nonempty = True
    assert seen_empty and seen_nonempty


def test_minimal_subsystem_determinant_is_single_product(confounded_chain_graph):
    system = TrekSystem((
        Trek("l", Path(("l", "v2")), Path(("l", "v1"))),
        Trek("v3", Path(("v3",)), Path(("v3",))),
    ), 1)
    reduced = minimal_halftrek_subsystem(confounded_chain_graph, system)
    X = tuple(sorted(reduced.sources))
    Y = tuple(sorted(reduced.targets))
    sub = confounded_chain_graph.with_edges(reduced.edge_set())
    tsg = TimeSeriesGraph.full(sub, 1)
    p = sample_stable_params(tsg, seed=27)
    S = spectrum(tsg, p).S
    lhs = det(S.submatrix(X, Y))
    product = R_ONE
    for trek in reduced.treks:
        product = product * trek_function(tsg, p, trek)
    assert lhs == (product if reduced.sign > 0 else -product)
    # the reduced subgraph supports exactly this one system
    assert len(sided_nonintersecting_trek_systems(sub, X, Y)) == 1


# -- sampling -------------------------------------------------------------------------------------------------


def test_sampler_deterministic(instrument_tsg):
    assert sample_stable_params(instrument_tsg, seed=42) == sample_stable_params(instrument_tsg, seed=42)
    assert sample_stable_params(instrument_tsg, seed=42) != sample_stable_params(instrument_tsg, seed=43)


def test_sampler_satisfies_invariants_many_seeds(instrument_tsg):
    for seed in range(1000):
        params = sample_stable_params(instrument_tsg, seed=seed)
        params.validate(instrument_tsg)  # raises on violation


def test_sampler_rank_verdicts_stable():
    rng = random.Random(37)
    disagreements = 0
    trials = 500
    for trial in range(trials):
        n = rng.randint(2, 4)
        g = random_dag(rng, [f"x{i}" for i in range(n)], p=0.5)
        tsg = random_tsg(rng, g)
        k = rng.randint(1, min(2, n))
        X = sorted(rng.sample(list(g.vertices), k))
        Y = sorted(rng.sample(list(g.vertices), k))
        r1 = generic_rank(tsg, X, Y, trials=1, seed=trial)
        r2 = generic_rank(tsg, X, Y, trials=1, seed=trial + 10_000)
        disagreements += (r1 != r2)
    assert disagreements / trials < 0.01


def test_stability_validation_rejects_large_auto(chain_tsg):
    p = sample_stable_params(chain_tsg, seed=28)
    bad = SvarParams(cross=p.cross, auto={**p.auto, ("a", 1): Fraction(3, 2)}, noise=p.noise)
    with pytest.raises(ParameterError, match="stability"):
        bad.validate(chain_tsg)


def test_stability_joint_bound_only_for_cyclic_observed():
    cyc = ProcessGraph.make(["a", "b"], [], [("a", "b"), ("b", "a")])
    tsg = TimeSeriesGraph.make(cyc, {("a", "b"): (1,), ("b", "a"): (1,)})
    bad = SvarParams.make(
        {("a", "b", 1): Fraction(3, 4), ("b", "a", 1): Fraction(3, 4)},
        {}, {"a": Fraction(1), "b": Fraction(1)},
    )
    with pytest.raises(ParameterError, match="cyclic"):
        bad.validate(tsg)
    # the same joint magnitude is fine on an acyclic graph
    acyclic = ProcessGraph.make(["a", "b", "c"], [], [("a", "b"), ("b", "c")])
    tsg2 = TimeSeriesGraph.make(acyclic, {("a", "b"): (1,), ("b", "c"): (1,)})
    ok = SvarParams.make(
        {("a", "b", 1): Fraction(3, 4), ("b", "c", 1): Fraction(3, 4)},
        {}, {"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)},
    )
    ok.validate(tsg2)


def test_noise_must_be_positive(chain_tsg):
    p = sample_stable_params(chain_tsg, seed=29)
    bad = SvarParams(cross=p.cross, auto=p.auto, noise={**p.noise, "a": Fraction(0)})
    with pytest.raises(ParameterError, match="positive"):
        bad.validate(chain_tsg)


# -- the rank-one fork ------------------------------------------------------------


def _fork_numerator_coefficients(p: SvarParams):
    p0 = p.cross[("1", "2", 0)] * p.cross[("1", "3", 1)]
    p1 = (p.cross[("1", "2", 1)] * p.cross[("1", "3", 1)]
          + p.cross[("1", "2", 0)] * p.cross[("1", "3", 0)])
    p2 = p.cross[("1", "2", 1)] * p.cross[("1", "3", 0)]
    return p0, p1, p2


def test_fork_entry_closed_form(fork3_tsg):
    p = sample_stable_params(fork3_tsg, seed=30)
    S = spectrum(fork3_tsg, p).S
    p0, p1, p2 = _fork_numerator_coefficients(p)
    num = Poly([p0, p1, p2]).scale(p.noise["1"]).shift(1)
    den = (Poly([1, -p.auto[("2", 1)]]) * Poly([1, -p.auto[("1", 1)]])
           * Poly([-p.auto[("1", 1)], 1]) * Poly([-p.auto[("3", 1)], 1]))
    assert S.entry("2", "3") == RatFn(num, den)


def test_fork_vanishing_at_one_iff_coefficient_sum_zero(fork3_tsg):
    hit = SvarParams.make(
        {("1", "2", 0): Fraction(1, 4), ("1", "2", 1): Fraction(-1, 4),
         ("1", "3", 0): Fraction(1, 5), ("1", "3", 1): Fraction(1, 5)},
        {("1", 1): Fraction(1, 3), ("2", 1): Fraction(1, 4), ("3", 1): Fraction(1, 5)},
        {"1": Fraction(1), "2": Fraction(1), "3": Fraction(2)},
    )
    hit.validate(fork3_tsg)
    p0, p1, p2 = _fork_numerator_coefficients(hit)
    assert p0 + p1 + p2 == 0
    S = spectrum(fork3_tsg, hit).S
    assert S.entry("2", "3")(Fraction(1)) == 0

    miss = sample_stable_params(fork3_tsg, seed=31)
    q0, q1, q2 = _fork_numerator_coefficients(miss)
    assert q0 + q1 + q2 != 0
    assert spectrum(fork3_tsg, miss).S.entry("2", "3")(Fraction(1)) != 0


def test_fork_vanishing_at_minus_one_iff_alternating_sum_zero(fork3_tsg):
    # evaluation-derived condition at z = -1
    hit = SvarParams.make(
        {("1", "2", 0): Fraction(1, 4), ("1", "2", 1): Fraction(1, 4),
         ("1", "3", 0): Fraction(1, 5), ("1", "3", 1): Fraction(1, 5)},
        {("1", 1): Fraction(1, 3), ("2", 1): Fraction(1, 4), ("3", 1): Fraction(1, 5)},
        {"1": Fraction(1), "2": Fraction(1), "3": Fraction(2)},
    )
    hit.validate(fork3_tsg)
    p0, p1, p2 = _fork_numerator_coefficients(hit)
    assert p0 - p1 + p2 == 0
    assert spectrum(fork3_tsg, hit).S.entry("2", "3")(Fraction(-1)) == 0
    miss = sample_stable_params(fork3_tsg, seed=32)
    q0, q1, q2 = _fork_numerator_coefficients(miss)
    if q0 - q1 + q2 != 0:
        assert spectrum(fork3_tsg, miss).S.entry("2", "3")(Fraction(-1)) != 0


# -- Cauchy-Binet ----------------------------------------------------------------------------------------------------


def test_cauchy_binet_expansion(instrument_tsg):
    p = sample_stable_params(instrument_tsg, seed=33)
    all_obs = ProcessGraph.make(instrument_tsg.base.vertices, [], instrument_tsg.base.edges)
    tsg = TimeSeriesGraph.make(all_obs, instrument_tsg.cross_lags, instrument_tsg.auto_lags)
    b = spectrum(tsg, p)
    N = unit_inverse(b.H)
    V = all_obs.vertices
    X, Y = ("u", "v"), ("v", "w")
    lhs = det(b.S.submatrix(X, Y))
    rhs = R_ZERO
    for S_top in combinations(V, 2):
        term = (det(transpose(N).submatrix(X, S_top))
                * det(b.S_I.submatrix(S_top, S_top))
                * det(conj(N).submatrix(S_top, Y)))
        rhs = rhs + term
    assert lhs == rhs
