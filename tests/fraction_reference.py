"""Reference polynomial and rational-function arithmetic on `Fraction` coefficients.

Every coefficient is a `Fraction` and every operation works on them one by
one, with no integer representation and no modular arithmetic, so tests can
compare `svarspec.ratfield` against it.  Rational functions are plain
(num, den) pairs of `FracPoly`, brought to canonical form by `canonical`.
`ratfn_to_dict` and `ratfn_from_dict` are the JSON codec of exact values as
`svarspec.io` once wrote it, one `Fraction` per coefficient string.
"""

from __future__ import annotations

from fractions import Fraction


def _strip(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


class FracPoly:
    """Univariate polynomial over Q, stored densely; coeffs[k] multiplies z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _strip(tuple(Fraction(c) for c in coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def __add__(self, other: FracPoly) -> FracPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FracPoly(out)

    def __neg__(self) -> FracPoly:
        return FracPoly(-c for c in self.coeffs)

    def __sub__(self, other: FracPoly) -> FracPoly:
        return self + (-other)

    def __mul__(self, other: FracPoly) -> FracPoly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FracPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return FracPoly(out)

    def scale(self, c) -> FracPoly:
        return FracPoly(a * Fraction(c) for a in self.coeffs)

    def shift(self, k: int) -> FracPoly:
        return FracPoly((Fraction(0),) * k + self.coeffs) if self.coeffs else self

    def __divmod__(self, other: FracPoly) -> tuple[FracPoly, FracPoly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= d:
            return FracPoly(), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q = c / lead
                quot[i - d] = q
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= q * b
        return FracPoly(quot), FracPoly(rem)

    def __mod__(self, other: FracPoly) -> FracPoly:
        return divmod(self, other)[1]

    def divexact(self, other: FracPoly) -> FracPoly:
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> FracPoly:
        return self.scale(1 / self.leading) if self.coeffs else self

    def conj(self) -> FracPoly:
        return FracPoly(self.coeffs[::-1])


def euclid_gcd(f: FracPoly, g: FracPoly) -> FracPoly:
    """Reference gcd: Euclid's algorithm over Q, made monic."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def canonical(num: FracPoly, den: FracPoly) -> tuple[FracPoly, FracPoly]:
    """The coprime pair with monic denominator equal to num/den."""
    if num.is_zero:
        return FracPoly(), FracPoly([1])
    g = euclid_gcd(num, den)
    num, den = num.divexact(g), den.divexact(g)
    lead = den.leading
    return num.scale(1 / lead), den.scale(1 / lead)


def rat_add(r, s):
    return canonical(r[0] * s[1] + s[0] * r[1], r[1] * s[1])


def rat_mul(r, s):
    return canonical(r[0] * s[0], r[1] * s[1])


def rat_div(r, s):
    return canonical(r[0] * s[1], r[1] * s[0])


def rat_conj(r):
    """(f/g)* = (f*/g*) z**(deg g - deg f), where p* reverses p's coefficients."""
    num, den = r
    if num.is_zero:
        return r
    k = len(den.coeffs) - len(num.coeffs)
    return canonical(num.conj().shift(max(k, 0)), den.conj().shift(max(-k, 0)))


# -- the JSON codec of rational functions -----------------------------------------


def exact(s) -> Fraction:
    """A coefficient string as `Fraction` parses it, decimals and exponents refused."""
    if not isinstance(s, str) or "." in s or "e" in s.lower():
        raise ValueError(f"coefficient {s!r} is not an exact rational string 'p/q'")
    return Fraction(s)


def ratfn_to_dict(r) -> dict:
    """The coefficient strings of a `svarspec.ratfield.RatFn`, one `str(Fraction)` each."""
    return {"num": [str(c) for c in r.num.coeffs], "den": [str(c) for c in r.den.coeffs]}


def ratfn_from_dict(data: dict) -> tuple[FracPoly, FracPoly]:
    num = FracPoly([exact(s) for s in data["num"]])
    den = FracPoly([exact(s) for s in data["den"]])
    if den.is_zero:
        raise ZeroDivisionError("rational function with zero denominator")
    return canonical(num, den)
