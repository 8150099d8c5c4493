"""The modular coprimality proof `svarspec.ratfield.poly_gcd` once used.

`coprime_mod_prime` runs Euclid's algorithm on the images of two integer
polynomials modulo the prime `MOD_PRIME` (Brown 1971).  It answers True only
when that proves them coprime over Q, so it is a one-sided oracle: wherever
it answers True, `poly_gcd` must answer 1.
"""

from __future__ import annotations

from typing import Sequence

from svarspec.ratfield import MOD_PRIME


def coprime_mod_prime(a: Sequence[int], b: Sequence[int]) -> bool:
    """True only if a and b, of degree >= 1, are proved coprime over Q.

    Proof: a common factor h of degree >= 1 may be taken primitive in Z[z],
    where it divides a (Gauss's lemma), so lc(h) divides lc(a).  If the prime
    divides neither leading coefficient, h keeps its degree modulo the prime
    and divides both images there, so their gcd modulo the prime is not
    constant.  A constant gcd modulo the prime therefore proves gcd = 1.
    """
    P = MOD_PRIME
    u, v = [x % P for x in a], [x % P for x in b]
    if not u[-1] or not v[-1]:  # the prime divides a leading coefficient
        return False
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        # fraction-free Euclid: a modular inverse costs more than this scaling
        lead, d = v[-1], len(v) - 1
        for i in range(len(u) - 1, d - 1, -1):
            t = u[i]
            if t:  # u <- lead * u - t z^(i-d) v clears u[i]
                base = i - d
                for j in range(base):
                    u[j] = u[j] * lead % P
                for j in range(d):
                    u[base + j] = (u[base + j] * lead - t * v[j]) % P
        rem = u[:d]
        while rem and not rem[-1]:
            rem.pop()
        u, v = v, rem
    return len(v) == 1
