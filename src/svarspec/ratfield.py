"""Exact arithmetic in R[z] and R(z) with a unit-circle conjugation involution.

Coefficients are arbitrary-precision rationals, so equality of rational
functions is decidable: two values are equal exactly when their canonical
forms coincide.  The canonical form of a fraction is the coprime pair whose
denominator is monic; in particular the denominator's leading coefficient is
positive and the representative is unique.

A polynomial is stored as a rational content n/d times a primitive integer
polynomial: the integer coefficients have gcd 1 and a positive leading one,
and the content is a reduced pair of integers, d > 0 and gcd(n, d) = 1, so
the triple is unique.  By Gauss's lemma a product of primitive polynomials
is primitive, so products and exact quotients run on Python integers and
touch the content once, with two cross-gcds; sums take one content gcd.
`Fraction` appears only where coefficients enter or leave: `Poly(coeffs)`,
`Poly.coeffs`, indexing and evaluation at a point.

The conjugation ``conj`` sends f/g to (f*/g*) * z**(deg g - deg f), where p*
reverses the coefficients of p.  Restricted to the complex unit circle this
agrees with evaluating at the complex conjugate of the argument (equivalently
at 1/z), which is what lets cross-spectra be represented inside R(z).

Greatest common divisors, which every canonical form needs, are computed over
Z on the primitive parts, by the heuristic gcd GCDHEU (Char, Geddes & Gonnet
1989; Geddes, Czapor & Labahn 1992, section 7.7): both arguments are packed
into integers at a power of two, one integer gcd is taken, and its digits are
read back as a candidate divisor, which is accepted only once it is shown to
divide both arguments; `poly_gcd` proves that an accepted candidate is the
gcd.  After `GCDHEU_TRIES` tries a primitive polynomial remainder sequence
(Collins 1967) finds the gcd instead.  Either way the gcd is made monic over
Q only at the end; since the monic gcd is unique, canonical forms do not
depend on how it is computed.

The prime `MOD_PRIME` and the point `EVAL_POINT` fix where the spectrum
kernel's values are mapped to GF(P) (`svar._KnownDenominator.image`, whose
docstring proves the map a ring homomorphism); no `RatFn` is evaluated
modulo P.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

#: The Mersenne prime modulo which the spectrum kernel takes its images
#: (`svar._KnownDenominator.image`) and `ratlinalg.rank_mod` ranks them.
MOD_PRIME = 2**61 - 1

#: The fixed point z0 at which the modular filters evaluate.  Any nonzero
#: point gives sound verdicts; one other than 1 and -1 keeps z0 and 1/z0
#: apart, where a function and its conjugate would otherwise take one value.
EVAL_POINT = 1_152_921_504_606_846_883


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"denominator vanishes at {point!r}")


def _content(ints: Sequence[int]) -> int:
    """The gcd of a nonzero stripped coefficient list, signed like its leading term."""
    g = math.gcd(*ints)
    return -g if ints[-1] < 0 else g


def _normalize(num: int, den: int, ints: list[int]) -> tuple[int, int, tuple[int, ...]]:
    """The (n, d, primitive part) triple of the polynomial (num/den) * ints, den > 0."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        return 0, 1, ()
    del ints[n:]
    g = _content(ints)
    if g != 1:
        ints = [c // g for c in ints]
    num *= g
    g = math.gcd(num, den)
    return num // g, den // g, tuple(ints)


def _from_ratios(ratios: Sequence[tuple[int, int]]) -> tuple[int, int, tuple[int, ...]]:
    """The (n, d, primitive part) triple of the polynomial whose coefficient of
    z^k is p/q for ratios[k] = (p, q), q > 0, with no `Fraction` per coefficient."""
    den = math.lcm(*[q for _, q in ratios])
    return _normalize(1, den, [p * (den // q) for p, q in ratios])


def _new(n: int, d: int, p: tuple[int, ...]) -> Poly:
    """Wrap a triple that is already normalized."""
    out = object.__new__(Poly)
    out.n, out.d, out.p = n, d, p
    return out


def _times(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) * (n2/d2) in lowest terms, for reduced inputs with d1, d2 > 0."""
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _over(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) / (n2/d2) in lowest terms, for reduced inputs with n2 != 0."""
    return _times(n1, d1, -d2, -n2) if n2 < 0 else _times(n1, d1, d2, n2)


def _long_division(a: Sequence[int], b: Sequence[int]):
    """Integer long division of a by b, deg a >= deg b; None if a step is inexact.

    Returns the quotient and the remainder's len(b) - 1 low coefficients,
    which may carry trailing zeros.
    """
    d = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quot = [0] * (len(a) - d)
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[i + d], lead)
        if r:
            return None
        if q:
            quot[i] = q
            for j in range(d):
                rem[i + j] -= q * b[j]
    return quot, rem[:d]


class Poly:
    """Univariate polynomial over Q: the content n/d times the primitive integer tuple p.

    p[k] multiplies z^k; its coefficients have gcd 1 and p[-1] > 0, and d > 0
    with gcd(n, d) = 1, so the triple is unique.  The zero polynomial is
    (0, 1, ()).
    """

    __slots__ = ("n", "d", "p")

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        fracs = [Fraction(c) for c in coeffs]
        self.n, self.d, self.p = _from_ratios([(f.numerator, f.denominator) for f in fracs])

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coefficients; coeffs[k] multiplies z^k."""
        n, d = self.n, self.d
        return tuple(Fraction(n * a, d) for a in self.p)

    @property
    def is_zero(self) -> bool:
        return not self.p

    @property
    def degree(self):
        """Degree; NEG_INFINITY for the zero polynomial."""
        return len(self.p) - 1 if self.p else NEG_INFINITY

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.n * self.p[k], self.d) if 0 <= k < len(self.p) else Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.p == other.p
                and self.n == other.n and self.d == other.d)

    def __hash__(self):
        return hash(("Poly", self.n, self.d, self.p))

    def __bool__(self) -> bool:
        return bool(self.p)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        a, b = self.p, other.p
        if not a:
            return other
        if not b:
            return self
        # n_a/d_a a + n_b/d_b b = (g_n / lcm of denominators) * (m_a a + m_b b)
        na, da, nb, db = self.n, self.d, other.n, other.d
        gn, gd = math.gcd(na, nb), math.gcd(da, db)
        ma, mb = na // gn * (db // gd), nb // gn * (da // gd)
        if len(a) < len(b):
            a, b, ma, mb = b, a, mb, ma
        out = [ma * x for x in a]
        for i, y in enumerate(b):
            out[i] += mb * y
        return _new(*_normalize(gn, da // gd * db, out))

    def __neg__(self) -> Poly:
        return _new(-self.n, self.d, self.p)

    def __sub__(self, other: Poly) -> Poly:
        return self + _new(-other.n, other.d, other.p)

    def __mul__(self, other: Poly) -> Poly:
        a, b = self.p, other.p
        if not a or not b:
            return P_ZERO
        n, d = _times(self.n, self.d, other.n, other.d)
        if len(b) == 1:  # a primitive constant is 1
            return _new(n, d, a)
        if len(a) == 1:
            return _new(n, d, b)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        # Gauss's lemma: the product of primitive polynomials is primitive
        return _new(n, d, tuple(out))

    def scale(self, c: Coeff) -> Poly:
        """c times self, for an int or a `Fraction` c."""
        if not c or not self.p:
            return P_ZERO
        return _new(*_times(self.n, self.d, c.numerator, c.denominator), self.p)

    def shift(self, k: int) -> Poly:
        """Multiply by z^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero or k == 0:
            return self
        return _new(self.n, self.d, (0,) * k + self.p)

    def divexact(self, other: Poly) -> Poly:
        """The quotient self / other; ArithmeticError unless other divides self.

        For primitive a and b, a = q b over Q forces q to be a primitive
        integer polynomial (Gauss's lemma), so integer long division with an
        exact step at every coefficient finds it or proves there is none.
        """
        a, b = self.p, other.p
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not a:
            return P_ZERO
        if len(b) == 1:
            return _new(*_over(self.n, self.d, other.n, other.d), a)
        result = _long_division(a, b) if len(a) >= len(b) else None
        if result is None or any(result[1]):
            raise ArithmeticError("inexact polynomial division")
        return _new(*_over(self.n, self.d, other.n, other.d), tuple(result[0]))

    def monic(self) -> Poly:
        p = self.p
        if not p or (self.n == 1 and self.d == p[-1]):
            return self
        return _new(1, p[-1], p)

    # -- conjugation and evaluation ------------------------------------------

    def conj(self) -> Poly:
        """Coefficient reversal relative to the degree; zero maps to zero."""
        p = self.p
        if not p:
            return self
        low = next(i for i, x in enumerate(p) if x)
        r = p[low:][::-1]
        if r[-1] < 0:
            return _new(-self.n, self.d, tuple(-x for x in r))
        return _new(self.n, self.d, r)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mag = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(mag)
                elif c == -1:
                    terms.append(f"-{mag}")
                else:
                    terms.append(f"{c}*{mag}")
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


P_ZERO = Poly()
P_ONE = Poly((1,))


def _primitive(ints: list[int]) -> list[int]:
    """Divide a nonzero integer coefficient list by its content, leading term positive."""
    content = _content(ints)
    return ints if content == 1 else [c // content for c in ints]


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A nonzero integer multiple of a mod b, for deg a >= deg b >= 1; stripped.

    Each step scales the running remainder by lc(b)/gcd(lc(b), top) only, so no
    fraction is formed and coefficient growth per step stays small.
    """
    rem = list(a)
    d = len(b) - 1
    lead = b[-1]
    low = b[:-1]
    while len(rem) > d:
        top = rem.pop()
        if top:
            g = math.gcd(lead, top)
            scale, top = lead // g, top // g
            if scale != 1:
                rem = [scale * c for c in rem]
            base = len(rem) - d
            for j, bj in enumerate(low):
                if bj:
                    rem[base + j] -= top * bj
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _horner_mod(p: Sequence[int], z: int) -> int:
    """The integer polynomial p at z, modulo `MOD_PRIME`."""
    acc = 0
    for c in reversed(p):
        acc = (acc * z + c) % MOD_PRIME
    return acc


#: Evaluation points `poly_gcd` tries before it falls back to the remainder
#: sequence; each try squares the point.
GCDHEU_TRIES = 4


def _pack(p: Sequence[int], k: int) -> int:
    """The integer polynomial p at 2^k, by shifts and adds."""
    acc = 0
    for c in reversed(p):
        acc = (acc << k) + c
    return acc


def _unpack(n: int, k: int) -> list[int]:
    """The symmetric 2^k-adic digits of n > 0, lowest first: the integer
    polynomial H with H(2^k) = n and every digit in (-2^(k-1), 2^(k-1)]."""
    xi, half, mask = 1 << k, 1 << (k - 1), (1 << k) - 1
    digits = []
    while n:
        d = n & mask
        if d > half:
            d -= xi
        digits.append(d)
        n = (n - d) >> k
    return digits


def _divides(h: Sequence[int], a: Sequence[int]) -> bool:
    """Whether the integer polynomial h divides a over Z."""
    if len(h) > len(a):
        return False
    result = _long_division(a, h)
    return result is not None and not any(result[1])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over Q; raises ValueError if both are zero.

    Computed over Z on the primitive parts a and b of f and g, of degree >= 1,
    by GCDHEU: with xi = 2^k > 2 min(|a|, |b|) + 2 (|.| the largest absolute
    coefficient), let H be the polynomial of symmetric xi-adic digits of
    gamma = gcd(a(xi), b(xi)) and h = pp(H).  If h divides a and b, then h is
    their gcd g; a constant h divides both, so it proves them coprime.

    Proof: say |a| <= |b|.  Every root r of a has |r| < 1 + |a| (Cauchy's
    bound), so |xi - r| > xi - 1 - |a| > xi/2.  Since h divides a and b, it
    divides g over Z (Gauss's lemma); write g = h q with q in Z[z].  g(xi)
    divides a(xi) and b(xi), hence their gcd gamma = H(xi) = c h(xi), where
    c is the content of H; h(xi) != 0, as the roots of h are roots of a, so
    q(xi) divides c.  gamma > 0 since a(xi) != 0, so H != 0, and c divides
    each of its digits, which are at most xi/2 in absolute value: 0 < |c| <=
    xi/2.  If q had degree >= 1, its roots would be roots of a, and
    |q(xi)| >= prod |xi - r| > xi/2 >= |c|, which no divisor of c can be.  So
    q is constant, and h = g since both are primitive with positive leading
    coefficients.

    A candidate that fails the division check is discarded and k doubled,
    which keeps xi above the bound; after `GCDHEU_TRIES` tries a primitive
    polynomial remainder sequence finds the gcd.  The gcd is then made monic
    over Q.
    """
    a, b = f.p, g.p
    if not a or not b:
        if not a and not b:
            raise ValueError("gcd(0, 0) is undefined")
        return g.monic() if b else f.monic()
    if len(a) == 1 or len(b) == 1:
        return P_ONE
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()
    for _ in range(GCDHEU_TRIES):
        h = _unpack(math.gcd(_pack(a, k), _pack(b, k)), k)
        if len(h) == 1:
            return P_ONE
        h = _primitive(h)
        if _divides(h, a) and _divides(h, b):
            return _new(1, h[-1], tuple(h))
        k *= 2
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _pseudo_remainder(a, b)
        if not rem:
            return _new(1, b[-1], tuple(b))
        a, b = b, _primitive(rem)
    return P_ONE


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero or g.is_zero:
        return P_ZERO
    return (f * g.divexact(poly_gcd(f, g))).monic()


class RatFn:
    """Rational function over Q in canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        if not isinstance(num, Poly):
            num = Poly((num,)) if not isinstance(num, (tuple, list)) else Poly(num)
        if not isinstance(den, Poly):
            den = Poly((den,)) if not isinstance(den, (tuple, list)) else Poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = P_ZERO, P_ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        self._set_coprime(num, den)

    def _set_coprime(self, num: Poly, den: Poly) -> None:
        """Store the coprime pair num/den, num nonzero, with the denominator made monic."""
        n, d, top = den.n, den.d, den.p[-1]
        if n != 1 or d != top:  # the content n/d is in lowest terms, top > 0
            lead = _times(n, d, top, 1)
            num = _new(*_over(num.n, num.d, *lead), num.p)
            den = _new(1, top, den.p)
        self.num, self.den = num, den

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        # a monic denominator's content is fixed by its primitive part
        return (
            isinstance(other, RatFn)
            and self.num.p == other.num.p
            and self.den.p == other.den.p
            and self.num.n == other.num.n
            and self.num.d == other.num.d
        )

    def __hash__(self):
        return hash(("RatFn", self.num.n, self.num.d, self.num.p, self.den.p))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- field arithmetic -------------------------------------------------------

    def __add__(self, other: RatFn) -> RatFn:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g = poly_gcd(d1, d2)
        if g.degree <= 0:
            return RatFn(n1 * d2 + n2 * d1, d1 * d2)
        d2r = d2.divexact(g)
        return RatFn(n1 * d2r + n2 * d1.divexact(g), d1 * d2r)

    def __neg__(self) -> RatFn:
        out = object.__new__(RatFn)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other: RatFn) -> RatFn:
        return self + (-other)

    def __mul__(self, other: RatFn) -> RatFn:
        if self.is_zero or other.is_zero:
            return R_ZERO
        # cross-cancel before multiplying to keep the gcd inputs small
        n1, d2 = self.num, other.den
        g = poly_gcd(n1, d2)
        if g.degree > 0:
            n1, d2 = n1.divexact(g), d2.divexact(g)
        n2, d1 = other.num, self.den
        g = poly_gcd(n2, d1)
        if g.degree > 0:
            n2, d1 = n2.divexact(g), d1.divexact(g)
        return RatFn(n1 * n2, d1 * d2)

    def reciprocal(self) -> RatFn:
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of the zero function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other: RatFn) -> RatFn:
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return self * other.reciprocal()

    # -- conjugation and evaluation ------------------------------------------------

    def conj(self) -> RatFn:
        """The involution (f/g)* = (f*/g*) * z**(deg g - deg f).

        No gcd is needed: the pair is already coprime.  Write f = z^a f1 with
        f1(0) != 0; then f* = z^(deg f1) f1(1/z), so f*(0) = lc(f) != 0 and the
        roots of f* are the reciprocals of the nonzero roots of f, with their
        multiplicities; likewise for g.  As f and g share no root, neither do
        f* and g*, and since neither vanishes at 0 the power of z moved to one
        side shares no factor with the other.  Only the denominator's leading
        coefficient has to be made 1.
        """
        if self.is_zero:
            return self
        fs, gs = self.num.conj(), self.den.conj()
        k = self.den.degree - self.num.degree
        out = object.__new__(RatFn)
        if k >= 0:
            out._set_coprime(fs.shift(k), gs)
        else:
            out._set_coprime(fs, gs.shift(-k))
        return out

    def __call__(self, point):
        d = self.den(point)
        if not d:
            raise PoleError(point)
        return self.num(point) / d

    # -- display ----------------------------------------------------------------------

    def __repr__(self) -> str:
        if self.den == P_ONE:
            return repr(self.num)
        num = repr(self.num)
        if self.num.degree > 0:
            num = f"({num})"
        return f"{num}/({self.den!r})"


R_ZERO = RatFn(P_ZERO)
R_ONE = RatFn(P_ONE)

