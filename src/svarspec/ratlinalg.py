"""Exact linear algebra for labelled matrices over R(z).

Determinant, rank and solving share one fraction-free (Bareiss) forward
elimination.  Each row is first cleared of denominators by the lcm of its
entries' denominators; the polynomial rows are then eliminated with every
update divided exactly by the previous pivot, which keeps intermediate
expression swell polynomial instead of exponential.  The determinant is the
signed last pivot over the row factors, the rank is the pivot count, and
solving back-substitutes in the fraction field; `adjugate` back-substitutes
over Z[z], where every division is exact.  All operations are pure, and
matrices are immutable after construction; none is multiplied or inverted.

The modular filters work on images in GF(P), P = `MOD_PRIME`, of the
spectrum kernel's values (`svar._KnownDenominator.image`).  There `rank_mod`'s
forward elimination is the only routine, and only a rank is taken.  It never
replaces the Bareiss kernel: a rank modulo P is only a lower bound on the rank
over R(z), and a deficient image proves nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .ratfield import (MOD_PRIME, P_ONE, P_ZERO, Poly, R_ONE, R_ZERO, RatFn,
                       poly_lcm)

Labels = Sequence[str]


class SingularMatrixError(ArithmeticError):
    """Raised when a linear system has no unique solution over R(z)."""


def _as_labels(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(labels)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate labels in {out!r}")
    return out


class RatMatrix:
    """Rectangular matrix of RatFn entries with labelled rows and columns."""

    __slots__ = ("row_labels", "col_labels", "entries", "_rindex", "_cindex")

    def __init__(self, row_labels: Iterable[str], col_labels: Iterable[str],
                 entries: Sequence[Sequence[RatFn]]):
        self.row_labels = _as_labels(row_labels)
        self.col_labels = _as_labels(col_labels)
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != len(self.row_labels) or any(
            len(row) != len(self.col_labels) for row in rows
        ):
            raise ValueError("entry grid does not match label counts")
        self.entries = rows
        self._rindex = {lab: i for i, lab in enumerate(self.row_labels)}
        self._cindex = {lab: j for j, lab in enumerate(self.col_labels)}

    # -- constructors -----------------------------------------------------

    @classmethod
    def build(cls, row_labels: Iterable[str], col_labels: Iterable[str],
              fn: Callable[[str, str], RatFn]) -> RatMatrix:
        rows = tuple(row_labels)
        cols = tuple(col_labels)
        return cls(rows, cols, [[fn(r, c) for c in cols] for r in rows])

    @classmethod
    def diagonal(cls, labels: Iterable[str], values: Sequence[RatFn]) -> RatMatrix:
        labs = tuple(labels)
        return cls(labs, labs,
                   [[values[i] if i == j else R_ZERO for j in range(len(labs))]
                    for i in range(len(labs))])

    # -- access ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    @property
    def is_square(self) -> bool:
        return len(self.row_labels) == len(self.col_labels)

    def entry(self, row: str, col: str) -> RatFn:
        try:
            i, j = self._rindex[row], self._cindex[col]
        except KeyError as exc:
            raise KeyError(f"unknown label {exc.args[0]!r}") from None
        return self.at(i, j)

    def at(self, i: int, j: int) -> RatFn:
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.row_labels == other.row_labels
            and self.col_labels == other.col_labels
            and self.entries == other.entries
        )

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __repr__(self) -> str:
        body = ",\n  ".join(
            f"{r}: [" + ", ".join(repr(e) for e in row) + "]"
            for r, row in zip(self.row_labels, self.entries)
        )
        return f"RatMatrix(cols={list(self.col_labels)},\n  {body})"

    # -- shape operations -----------------------------------------------------

    def submatrix(self, rows: Iterable[str], cols: Iterable[str]) -> RatMatrix:
        """Select labelled rows and columns.

        Sequence arguments keep their order (the order fixes determinant
        signs); unordered sets are sorted for determinism.
        """
        rows = sorted(rows) if isinstance(rows, (set, frozenset)) else list(rows)
        cols = sorted(cols) if isinstance(cols, (set, frozenset)) else list(cols)
        for lab in rows:
            if lab not in self._rindex:
                raise KeyError(f"unknown row label {lab!r}")
        for lab in cols:
            if lab not in self._cindex:
                raise KeyError(f"unknown column label {lab!r}")
        return RatMatrix(
            rows, cols,
            [[self.entries[self._rindex[r]][self._cindex[c]] for c in cols] for r in rows],
        )

# -- fraction-free elimination ------------------------------------------------------


def _cleared_rows(rows: Sequence[Sequence[RatFn]]) -> tuple[list[list[Poly]], list[Poly]]:
    """Clear denominators per row; returns polynomial rows and the row factors."""
    out_rows: list[list[Poly]] = []
    factors: list[Poly] = []
    for row in rows:
        common = P_ONE
        for e in row:
            if e.den.degree > 0:  # canonical denominators are monic, so const = 1
                common = poly_lcm(common, e.den)
        out_rows.append([e.num * common.divexact(e.den) for e in row])
        factors.append(common)
    return out_rows, factors


def _eliminate(rows: list[list[Poly]], n: int) -> tuple[int, int]:
    """Bareiss forward elimination of polynomial rows, in place.

    Pivots are sought in the first n columns; a column without a pivot below
    the current row is skipped.  Every later column of each row is updated,
    and each update divides exactly by the previous pivot.  Returns the rank
    of the first n columns and the sign of the row permutation.
    """
    n_rows = len(rows)
    width = len(rows[0]) if rows else 0
    r, sign, prev = 0, 1, P_ONE
    for c in range(n):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if not rows[i][c].is_zero), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        pivot = rows[r][c]
        for i in range(r + 1, n_rows):
            ric = rows[i][c]
            for j in range(c + 1, width):
                rows[i][j] = (pivot * rows[i][j] - ric * rows[r][j]).divexact(prev)
            rows[i][c] = P_ZERO
        prev = pivot
        r += 1
    return r, sign


def det(matrix: RatMatrix) -> RatFn:
    """Determinant over R(z) via fraction-free elimination; det of 0x0 is 1."""
    if not matrix.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = len(matrix.row_labels)
    if n == 0:
        return R_ONE
    rows, factors = _cleared_rows(matrix.entries)
    r, sign = _eliminate(rows, n)
    if r < n:
        return R_ZERO
    num = rows[n - 1][n - 1]
    if sign < 0:
        num = -num
    den = P_ONE
    for f in factors:
        den = den * f
    return RatFn(num, den)


def rank(matrix: RatMatrix) -> int:
    """Rank over the field R(z)."""
    rows, _ = _cleared_rows(matrix.entries)
    return _eliminate(rows, len(matrix.col_labels))[0]


def solve(matrix: RatMatrix, rhs: Sequence[RatFn]) -> list[RatFn]:
    """Solve M x = b for square M; raises SingularMatrixError when det(M) = 0."""
    cols = solve_many(matrix, [[b] for b in rhs])
    return [row[0] for row in cols]


def solve_many(matrix: RatMatrix, rhs_rows: Sequence[Sequence[RatFn]]) -> list[list[RatFn]]:
    """Solve M X = B where B is given row-wise; returns the rows of X."""
    if not matrix.is_square:
        raise ValueError("solve requires a square matrix")
    n = len(matrix.row_labels)
    if len(rhs_rows) != n:
        raise ValueError("right-hand side has wrong length")
    width = len(rhs_rows[0]) if n else 0
    if n == 0:
        return []
    augmented = [list(row) + list(extra) for row, extra in zip(matrix.entries, rhs_rows)]
    rows, _ = _cleared_rows(augmented)
    if _eliminate(rows, n)[0] < n:
        raise SingularMatrixError("matrix is singular over R(z)")
    # back-substitution in the fraction field
    solution: list[list[RatFn]] = [[R_ZERO] * width for _ in range(n)]
    for i in range(n - 1, -1, -1):
        inv_pivot = RatFn(P_ONE, rows[i][i])
        for b in range(width):
            acc = RatFn(rows[i][n + b])
            for j in range(i + 1, n):
                coeff = rows[i][j]
                if not coeff.is_zero:
                    acc = acc - RatFn(coeff) * solution[j][b]
            solution[i][b] = acc * inv_pivot
    return solution


def adjugate(rows: Sequence[Sequence[Poly]]) -> tuple[list[list[Poly]], Poly]:
    """(X, d) with M X = d I and d = +-det M, for the square polynomial matrix M
    given by rows; raises SingularMatrixError when det M = 0.

    The forward elimination of [M | I] leaves [U | B] with U = B M, and its
    last pivot is d.  So X = d M^{-1} solves U X = d B, and back-substitution
    X_i = (d B_i - sum_{j > i} U_ij X_j) / U_ii divides exactly: X = +-adj M
    is a polynomial matrix, and the quotient is its row i.
    """
    n = len(rows)
    work = [list(row) + [P_ONE if j == i else P_ZERO for j in range(n)]
            for i, row in enumerate(rows)]
    if _eliminate(work, n)[0] < n:
        raise SingularMatrixError("matrix is singular over R(z)")
    d = work[-1][n - 1] if n else P_ONE
    X: list[list[Poly]] = [[]] * n
    for i in range(n - 1, -1, -1):
        U = work[i]
        X[i] = [(d * U[n + b] - sum((U[j] * X[j][b] for j in range(i + 1, n)), P_ZERO))
                .divexact(U[i]) for b in range(n)]
    return X, d


# -- elimination over GF(P) -------------------------------------------------------------


def rank_mod(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(P) of a matrix given by rows of integers, by forward
    elimination of their residues: pivots are sought column by column, and
    each clears its column in the rows below it."""
    P = MOD_PRIME
    work = [[x % P for x in row] for row in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot, inv = work[r], pow(work[r][c], -1, P)
        for i in range(r + 1, len(work)):
            f = work[i][c] * inv % P
            if f:
                work[i] = [(x - f * y) % P for x, y in zip(work[i], pivot)]
        r += 1
    return r
