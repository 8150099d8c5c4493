"""Exact polynomial and rational-function arithmetic, conjugation, evaluation."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from svarspec import ratfield
from svarspec.ratfield import (MOD_PRIME, NEG_INFINITY, P_ONE, P_ZERO, Poly,
                               PoleError, R_ONE, R_ZERO, RatFn, poly_gcd)

from conftest import random_poly, random_ratfn
from fraction_reference import (FracPoly, canonical, euclid_gcd, rat_add,
                                rat_conj, rat_div, rat_mul)


def test_poly_add_cancellation():
    assert Poly([1, 1]) + Poly([1, -1]) == Poly([2])


def test_poly_mul_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def test_degree_of_zero_is_minus_infinity():
    assert Poly().degree == NEG_INFINITY
    assert (Poly([1, 2]) - Poly([1, 2])).degree == NEG_INFINITY


def test_degree_additivity_on_random_pairs():
    rng = random.Random(1)
    for _ in range(500):
        f = random_poly(rng, zero_ok=False)
        g = random_poly(rng, zero_ok=False)
        assert (f * g).degree == f.degree + g.degree


def test_gcd_shared_root():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_gcd_coprime_linear():
    assert poly_gcd(Poly([2, 1]), Poly([3, 1])) == P_ONE


def test_gcd_of_common_factor_is_monic_factor():
    rng = random.Random(2)
    checked = 0
    while checked < 100:
        f = random_poly(rng, zero_ok=False)
        g = random_poly(rng, zero_ok=False)
        if poly_gcd(f, g) != P_ONE:
            continue
        h = random_poly(rng, zero_ok=False)
        if h.degree < 1:
            continue
        got = poly_gcd(f * h, g * h)
        assert got == h.monic()
        # divisibility both ways
        assert (f * h).divexact(got) * got == f * h
        assert (g * h).divexact(got) * got == g * h
        checked += 1


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        poly_gcd(P_ZERO, P_ZERO)


gcd_polys = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                     min_size=0, max_size=7).map(Poly)


@settings(max_examples=300, deadline=None)
@given(gcd_polys, gcd_polys, st.one_of(st.none(), gcd_polys))
@example(P_ZERO, Poly([Fraction(-3, 4)]), None)
@example(Poly([5]), Poly([1, 2, 3]), None)
@example(Poly([1, 2, 3]), P_ZERO, None)
@example(P_ZERO, Poly([1, 2]), Poly([Fraction(1, 3), 1]))
@example(Poly([2, 1]), Poly([3, 1]), Poly([7]))
def test_hypothesis_gcd_matches_fraction_euclid(f, g, factor):
    """With and without a planted common factor, including constant and zero arguments."""
    if factor is not None:
        f, g = f * factor, g * factor
    assume(not (f.is_zero and g.is_zero))
    assert poly_gcd(f, g).coeffs == euclid_gcd(FracPoly(f.coeffs), FracPoly(g.coeffs)).coeffs


def test_gcd_leading_coefficients_divisible_by_the_prime():
    """(P z + 1) is a constant modulo P, so the images of f and g are coprime there."""
    h = Poly([1, MOD_PRIME])
    f, g = h * Poly([1, 1]), h * Poly([2, 1])
    assert poly_gcd(f, g) == h.monic()
    assert RatFn(f, g) == RatFn([1, 1], [2, 1])


def test_gcd_coprime_over_q_but_not_modulo_the_prime():
    """z + P and z share the factor z modulo P only; the fallback still answers 1."""
    f, g = Poly([MOD_PRIME, 1]), Poly([0, 1])
    assert poly_gcd(f, g) == P_ONE
    assert RatFn(f, g).den == g


def test_gcd_planted_factor_with_large_coefficients():
    h = Poly([-(2**70 + 3), 5, Fraction(7, 2**40)])
    f, g = Poly([3, 2**65, 1]) * h, Poly([-1, 0, 0, 2**90]) * h
    assert poly_gcd(f, g) == h.monic()
    assert poly_gcd(f * f, g * h) == (h * h).monic()


def test_poly_conj_reverses_coefficients():
    a0, a1 = Fraction(2, 7), Fraction(-3, 5)
    assert Poly([a0, a1]).conj() == Poly([a1, a0])


def test_poly_conj_constant_fixed():
    assert Poly([Fraction(5, 3)]).conj() == Poly([Fraction(5, 3)])
    assert P_ZERO.conj() == P_ZERO


def test_poly_conj_multiplicative():
    rng = random.Random(3)
    for _ in range(500):
        f = random_poly(rng)
        g = random_poly(rng)
        assert (f * g).conj() == f.conj() * g.conj()


def test_rat_conj_of_link_shaped_quotient():
    # (a0 + a1 z)/(1 - b z) maps to (a1 + a0 z)/(-b + z)
    a0, a1, b = Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)
    h = RatFn([a0, a1], [1, -b])
    assert h.conj() == RatFn([a1, a0], [-b, 1])


def test_rat_conj_constant_fixed_point():
    r = RatFn(Fraction(7, 4))
    assert r.conj() == r


def test_rat_conj_involution_and_unit_circle():
    rng = random.Random(4)
    for _ in range(200):
        r = random_ratfn(rng)
        assert r.conj().conj() == r
    r = random_ratfn(random.Random(5), zero_ok=False)
    for k in range(16):
        zeta = cmath.exp(2j * cmath.pi * (k + 0.35) / 16)
        try:
            expected = r(zeta.conjugate())
            got = r.conj()(zeta)
        except PoleError:
            continue
        assert abs(got - expected) < 1e-9


def test_rat_conj_equals_eval_at_reciprocal_on_circle():
    rng = random.Random(6)
    r = random_ratfn(rng, zero_ok=False)
    for k in range(16):
        zeta = cmath.exp(2j * cmath.pi * (k + 0.2) / 16)
        assert abs(r.conj()(zeta) - r(1 / zeta)) < 1e-9


def test_rat_conj_well_defined_on_representatives():
    rng = random.Random(7)
    for _ in range(100):
        f = random_poly(rng)
        g = random_poly(rng, zero_ok=False)
        h = random_poly(rng, zero_ok=False)
        assert RatFn(f * h, g * h).conj() == RatFn(f, g).conj()


def _conj_through_gcd(r: RatFn) -> RatFn:
    """The conjugate's pair (f*/g*) z**(deg g - deg f), made canonical by `RatFn`."""
    fs, gs = r.num.conj(), r.den.conj()
    k = r.den.degree - r.num.degree
    return RatFn(fs.shift(k), gs) if k >= 0 else RatFn(fs, gs.shift(-k))


def test_rat_conj_equals_the_canonical_form_of_its_pair():
    rng = random.Random(9)
    signs = set()
    for _ in range(300):
        # powers of z on either side give zero low coefficients before canonicalisation
        f = random_poly(rng, zero_ok=False).shift(rng.randint(0, 2))
        g = random_poly(rng, zero_ok=False).shift(rng.randint(0, 2))
        r = RatFn(f, g)
        got, expected = r.conj(), _conj_through_gcd(r)
        assert [(p.n, p.d, p.p) for p in (got.num, got.den)] == \
            [(p.n, p.d, p.p) for p in (expected.num, expected.den)]
        signs.add((r.den.degree > r.num.degree) - (r.den.degree < r.num.degree))
    assert signs == {-1, 0, 1}


def test_rat_conj_takes_no_gcd(monkeypatch):
    rng = random.Random(10)
    functions = [random_ratfn(rng) for _ in range(100)]
    calls = []
    gcd = ratfield.poly_gcd
    monkeypatch.setattr(ratfield, "poly_gcd", lambda f, g: calls.append(1) or gcd(f, g))
    for r in functions:
        r.conj()
    assert not calls
    RatFn(Poly([1, 1]), Poly([2, 1]))
    assert calls  # the counter sees RatFn's own gcd


def test_canonical_form_idempotent():
    rng = random.Random(8)
    for _ in range(100):
        r = random_ratfn(rng)
        again = RatFn(r.num, r.den)
        assert again.num == r.num and again.den == r.den


def test_rat_add_zero_and_mul_inverse():
    rng = random.Random(9)
    for _ in range(50):
        r = random_ratfn(rng)
        assert r + R_ZERO == r
        if not r.is_zero:
            assert r * r.reciprocal() == R_ONE


def test_conj_is_additive_and_multiplicative():
    rng = random.Random(10)
    for _ in range(500):
        r = random_ratfn(rng)
        s = random_ratfn(rng)
        assert (r + s).conj() == r.conj() + s.conj()
        assert (r * s).conj() == r.conj() * s.conj()


def test_division_by_zero_function_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFn([1, 2]) / R_ZERO
    with pytest.raises(ZeroDivisionError):
        RatFn(P_ONE, P_ZERO)


def test_eval_simple_and_pole():
    r = RatFn([0, 1], [1, Fraction(-1, 2)])
    assert r(1) == 2
    with pytest.raises(PoleError):
        RatFn([1], [1, -1])(1)


def test_eval_multiplicative_away_from_poles():
    rng = random.Random(11)
    for _ in range(100):
        r = random_ratfn(rng)
        s = random_ratfn(rng)
        zeta = cmath.exp(1j * rng.uniform(0.1, 3.0))
        try:
            lhs = (r * s)(zeta)
            rhs = r(zeta) * s(zeta)
        except PoleError:
            continue
        assert abs(lhs - rhs) < 1e-9


def test_exact_eval_at_rational_points():
    r = RatFn([1, 1], [2, 0, 1])  # (1+z)/(2+z^2)
    assert r(Fraction(1, 2)) == Fraction(3, 2) / Fraction(9, 4)


# -- hypothesis property checks ------------------------------------------------------

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)
polys = st.lists(fractions, min_size=0, max_size=4).map(Poly)
ratfns = st.tuples(polys, polys.filter(lambda p: not p.is_zero)).map(lambda t: RatFn(*t))


@settings(max_examples=150, deadline=None)
@given(ratfns)
def test_hypothesis_involution(r):
    assert r.conj().conj() == r


@settings(max_examples=150, deadline=None)
@given(ratfns, ratfns)
def test_hypothesis_conj_homomorphism(r, s):
    assert (r * s).conj() == r.conj() * s.conj()
    assert (r + s).conj() == r.conj() + s.conj()


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_hypothesis_poly_conj_multiplicative(f, g):
    assert (f * g).conj() == f.conj() * g.conj()


# -- the integer representation against the Fraction reference -------------------------

ref_coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                      min_size=0, max_size=6)


@settings(max_examples=300, deadline=None)
@given(ref_coeffs, ref_coeffs, st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.integers(min_value=0, max_value=3))
@example([0, 0, 3], [0, -2], Fraction(-1, 3), 2)
@example([Fraction(1, 2), 0, Fraction(-3, 4)], [], 0, 1)
def test_hypothesis_poly_arithmetic_matches_fraction_reference(a, b, c, k):
    f, g, F, G = Poly(a), Poly(b), FracPoly(a), FracPoly(b)
    assert f.coeffs == F.coeffs
    pairs = [(f + g, F + G), (f - g, F - G), (f * g, F * G), (-f, -F),
             (f.monic(), F.monic()), (f.scale(c), F.scale(c)), (f.shift(k), F.shift(k)),
             (f.conj(), F.conj()), ((f * g).conj(), (F * G).conj())]
    for got, want in pairs:
        assert got.coeffs == want.coeffs
    if not g.is_zero:
        Q, R = divmod(F, G)
        assert (f * g).divexact(g).coeffs == F.coeffs
        if R.is_zero:
            assert f.divexact(g).coeffs == Q.coeffs
        else:
            with pytest.raises(ArithmeticError):
                f.divexact(g)


@settings(max_examples=200, deadline=None)
@given(ref_coeffs, ref_coeffs, st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_hypothesis_poly_equality_agrees_with_hash(a, b, c):
    f, g = Poly(a), Poly(b)
    assert (f == g) == (FracPoly(a).coeffs == FracPoly(b).coeffs)
    if f == g:
        assert hash(f) == hash(g)
    if c:
        same = (f * Poly([c])).scale(1 / c)  # another route to the same value
        assert same == f and hash(same) == hash(f)
        r = RatFn(f * Poly([1, c]), Poly([c, 0, 1]) * Poly([1, c]))
        s = RatFn(f, Poly([c, 0, 1]))
        assert r == s and hash(r) == hash(s)


def _pair(r):
    return r.num.coeffs, r.den.coeffs


def _ref_pair(r):
    return r[0].coeffs, r[1].coeffs


ref_nonzero = ref_coeffs.filter(lambda a: any(a))


@settings(max_examples=200, deadline=None)
@given(ref_coeffs, ref_nonzero, ref_coeffs, ref_nonzero)
@example([1, 1], [2, 1], [-1, -1], [Fraction(1, 3), Fraction(1, 2), 0, 1])
def test_hypothesis_ratfn_arithmetic_matches_fraction_reference(n1, d1, n2, d2):
    r, s = RatFn(Poly(n1), Poly(d1)), RatFn(Poly(n2), Poly(d2))
    R, S = canonical(FracPoly(n1), FracPoly(d1)), canonical(FracPoly(n2), FracPoly(d2))
    assert _pair(r) == _ref_pair(R)
    assert _pair(r + s) == _ref_pair(rat_add(R, S))
    assert _pair(r - s) == _ref_pair(rat_add(R, (-S[0], S[1])))
    assert _pair(r * s) == _ref_pair(rat_mul(R, S))
    if not s.is_zero:
        assert _pair(r / s) == _ref_pair(rat_div(R, S))


# -- the integer kernel builds no Fraction ----------------------------------------------


def _no_fraction(*args, **kwargs):
    raise AssertionError("the integer kernel built a Fraction")


def _normal(f: Poly) -> bool:
    """The content is a reduced pair of ints with d > 0, the part primitive, lc > 0."""
    if not f.p:
        return (f.n, f.d) == (0, 1)
    return (type(f.n) is int and type(f.d) is int and f.d > 0 and math.gcd(f.n, f.d) == 1
            and all(type(a) is int for a in f.p) and math.gcd(*f.p) == 1 and f.p[-1] > 0)


@settings(max_examples=200, deadline=None)
@given(ref_coeffs, ref_nonzero, ref_coeffs, ref_nonzero,
       st.fractions(min_value=-5, max_value=5, max_denominator=7), st.integers(0, 3))
@example([1, 1], [2, 1], [-1, -1], [Fraction(1, 3), Fraction(1, 2), 0, 1], Fraction(-2, 3), 1)
@example([Fraction(-3, 2), 0, Fraction(9, 4)], [Fraction(-1, 2)], [0, Fraction(6, 5)],
         [Fraction(3, 7), Fraction(-3, 7)], 4, 0)
def test_hypothesis_integer_kernel_builds_no_fraction(a, b, n2, d2, c, k):
    """Every Poly and RatFn operation on built operands runs with `Fraction` patched
    to raise, leaves every content a reduced int pair, and matches the reference."""
    f, g = Poly(a), Poly(b)
    r, s = RatFn(f, g), RatFn(Poly(n2), Poly(d2))
    F, G = FracPoly(a), FracPoly(b)
    R, S = canonical(F, G), canonical(FracPoly(n2), FracPoly(d2))
    again = RatFn(f * Poly([1, c]), g * Poly([1, c]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratfield, "Fraction", _no_fraction)
        patch.setattr(Fraction, "__new__", _no_fraction)
        polys = [f + g, f - g, f * g, -f, (f * g).divexact(g), f.scale(c), f.monic(),
                 f.conj(), f.shift(k), poly_gcd(f, g), poly_gcd(f * g, g)]
        ratfns = [RatFn(f, g), r + s, r - s, r * s, r.conj(), r / s if s else R_ZERO]
        same = r == again and hash(r) == hash(again)
    assert same
    want = [F + G, F - G, F * G, -F, F, F.scale(c), F.monic(), F.conj(), F.shift(k),
            euclid_gcd(F, G), euclid_gcd(F * G, G)]
    for got, ref in zip(polys, want, strict=True):
        assert _normal(got) and got.coeffs == ref.coeffs
    want = [R, rat_add(R, S), rat_add(R, (-S[0], S[1])), rat_mul(R, S), rat_conj(R),
            rat_div(R, S) if s else (FracPoly(), FracPoly([1]))]
    for got, ref in zip(ratfns, want, strict=True):
        assert _normal(got.num) and _normal(got.den)
        assert _pair(got) == _ref_pair(ref)
