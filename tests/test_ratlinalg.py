"""Labelled matrices over R(z): determinant, rank, solving, the adjugate."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from svarspec.ratfield import EVAL_POINT, MOD_PRIME, P_ZERO, Poly, R_ONE, R_ZERO, RatFn
from svarspec.ratlinalg import (RatMatrix, SingularMatrixError, adjugate, det, rank,
                                rank_mod, solve)

import svar_reference
from conftest import random_ratfn
from svar_reference import conj, identity, inverse, matmul, transpose, zeros


def random_matrix(rng: random.Random, rows, cols, max_degree=2) -> RatMatrix:
    return RatMatrix(rows, cols, [
        [random_ratfn(rng, max_degree=max_degree) for _ in cols] for _ in rows
    ])


def labels(n, prefix="r"):
    return [f"{prefix}{i}" for i in range(n)]


def with_zero_column(M: RatMatrix, j: int) -> RatMatrix:
    return RatMatrix(M.row_labels, M.col_labels,
                     [row[:j] + (R_ZERO,) + row[j + 1:] for row in M.entries])


def with_zero_corner(M: RatMatrix) -> RatMatrix:
    """M with a zero top-left entry, so elimination must swap rows first."""
    return RatMatrix(M.row_labels, M.col_labels,
                     [(R_ZERO,) + M.entries[0][1:]] + list(M.entries[1:]))


# -- submatrix ------------------------------------------------------------------


def test_submatrix_full_selection_is_identity_operation():
    rng = random.Random(0)
    M = random_matrix(rng, labels(3), labels(4, "c"))
    assert M.submatrix(M.row_labels, M.col_labels) == M


def test_submatrix_empty_rows():
    rng = random.Random(1)
    M = random_matrix(rng, labels(3), labels(2, "c"))
    sub = M.submatrix([], ["c0"])
    assert sub.shape == (0, 1)


def test_submatrix_composition():
    rng = random.Random(2)
    M = random_matrix(rng, labels(4), labels(4, "c"))
    outer = M.submatrix(["r0", "r1", "r3"], ["c0", "c2", "c3"])
    inner = outer.submatrix(["r1", "r3"], ["c2"])
    assert inner == M.submatrix(["r1", "r3"], ["c2"])


def test_submatrix_unknown_label():
    rng = random.Random(3)
    M = random_matrix(rng, labels(2), labels(2, "c"))
    with pytest.raises(KeyError):
        M.submatrix(["nope"], ["c0"])


# -- determinant ------------------------------------------------------------------


def test_det_identity_and_empty():
    assert det(identity(labels(3))) == R_ONE
    assert det(identity([])) == R_ONE


def test_det_non_square_rejected():
    rng = random.Random(4)
    with pytest.raises(ValueError):
        det(random_matrix(rng, labels(2), labels(3, "c")))


def test_det_matches_cofactor_expansion_small():
    rng = random.Random(5)
    for _ in range(30):
        M = random_matrix(rng, labels(3), labels(3, "c"))
        # also a row swap (sign flip), a pivotless leading column, a pivotless middle column
        for N in (M, with_zero_corner(M), with_zero_column(M, 0), with_zero_column(M, 1)):
            e = N.entries
            cofactor = (
                e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
            )
            assert det(N) == cofactor


def test_det_multiplicative():
    rng = random.Random(6)
    for _ in range(15):
        A = random_matrix(rng, labels(3), labels(3), max_degree=1)
        B = random_matrix(rng, labels(3), labels(3), max_degree=1)
        assert det(matmul(A, B)) == det(A) * det(B)


# -- rank -----------------------------------------------------------------------------


def test_rank_zero_matrix():
    assert rank(zeros(labels(3), labels(2, "c"))) == 0


def _exhaustive_minor_rank(M: RatMatrix) -> int:
    n_rows, n_cols = M.shape
    best = 0
    for r in range(1, min(n_rows, n_cols) + 1):
        for rows in combinations(M.row_labels, r):
            for cols in combinations(M.col_labels, r):
                if not det(M.submatrix(rows, cols)).is_zero:
                    best = max(best, r)
                    break
            else:
                continue
            break
    return best


def test_rank_matches_exhaustive_minors():
    rng = random.Random(7)
    for trial in range(40):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        inner = rng.randint(0, min(n_rows, n_cols))
        if inner == 0:
            M = zeros(labels(n_rows), labels(n_cols, "c"))
        else:
            A = random_matrix(rng, labels(n_rows), labels(inner, "k"), max_degree=1)
            B = random_matrix(rng, labels(inner, "k"), labels(n_cols, "c"), max_degree=1)
            M = matmul(A, B)
        assert rank(M) == _exhaustive_minor_rank(M)
    # pivotless columns that are not the last: a zero leading column, a zero middle column
    for trial in range(20):
        n_rows = rng.randint(2, 4)
        M = random_matrix(rng, labels(n_rows), labels(3, "c"), max_degree=1)
        M = with_zero_column(M, trial % 2)
        assert rank(M) == _exhaustive_minor_rank(M) == min(n_rows, 2)


# -- solving -------------------------------------------------------------------------------


def test_solve_identity_returns_rhs():
    rng = random.Random(9)
    b = [random_ratfn(rng) for _ in range(3)]
    assert solve(identity(labels(3)), b) == b


def test_solve_residual_on_random_systems():
    rng = random.Random(10)
    solved = 0
    while solved < 200:
        n = rng.randint(1, 4)
        M = random_matrix(rng, labels(n), labels(n, "c"), max_degree=1)
        if det(M).is_zero:
            continue
        b = [random_ratfn(rng, max_degree=1) for _ in range(n)]
        x = solve(M, b)
        for i in range(n):
            acc = R_ZERO
            for j in range(n):
                acc = acc + M.entries[i][j] * x[j]
            assert acc == b[i]
        solved += 1


def test_solve_singular_raises():
    M = RatMatrix(["a", "b"], ["a", "b"],
                  [[RatFn([1, 1]), RatFn([2, 2])], [RatFn([3, 3]), RatFn([6, 6])]])
    with pytest.raises(SingularMatrixError):
        solve(M, [R_ONE, R_ONE])
    rng = random.Random(16)
    for j in (0, 1):
        M = with_zero_column(random_matrix(rng, labels(3), labels(3, "c"), max_degree=1), j)
        with pytest.raises(SingularMatrixError):
            solve(M, [R_ONE, R_ONE, R_ONE])


def test_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        M = random_matrix(rng, labels(3), labels(3), max_degree=1)
        if det(M).is_zero:
            continue
        assert matmul(M, inverse(M)) == identity(labels(3))


def random_poly_matrix(rng: random.Random, n: int) -> list[list[Poly]]:
    return [[Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(rng.randint(0, 3))]) for _ in range(n)] for _ in range(n)]


def test_adjugate_solves_m_x_equal_to_d_times_identity():
    rng = random.Random(19)
    swapped = 0
    for trial in range(60):
        n = rng.randint(1, 4)
        M = random_poly_matrix(rng, n)
        if trial % 3 == 0:  # a zero top-left entry: elimination swaps rows first
            M[0][0] = P_ZERO
        as_ratfn = RatMatrix(labels(n), labels(n, "c"), [[RatFn(e) for e in row] for row in M])
        if det(as_ratfn).is_zero:
            continue
        swapped += M[0][0].is_zero
        X, d = adjugate(M)
        assert det(as_ratfn) in (RatFn(d), -RatFn(d))
        for i in range(n):
            for j in range(n):
                acc = P_ZERO
                for k in range(n):
                    acc = acc + M[i][k] * X[k][j]
                assert acc == (d if i == j else P_ZERO)
    assert swapped
    assert adjugate([]) == ([], Poly([1]))


def test_adjugate_singular_raises():
    z = Poly([0, 1])
    with pytest.raises(SingularMatrixError):
        adjugate([[z, Poly([2]) * z], [Poly([1]), Poly([2])]])
    rng = random.Random(20)
    for j in (0, 1):
        M = random_poly_matrix(rng, 3)
        for row in M:
            row[j] = P_ZERO
        with pytest.raises(SingularMatrixError):
            adjugate(M)


# -- elimination over GF(P) ------------------------------------------------------------------


def test_rank_mod_is_the_rank_of_the_image():
    rng = random.Random(17)
    for trial in range(60):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 4)
        inner = rng.randint(0, min(n_rows, n_cols))
        if inner == 0:
            M = zeros(labels(n_rows), labels(n_cols, "c"))
        else:
            A = random_matrix(rng, labels(n_rows), labels(inner, "k"), max_degree=1)
            B = random_matrix(rng, labels(inner, "k"), labels(n_cols, "c"), max_degree=1)
            M = matmul(A, B)
        if trial % 3 == 0:
            M = with_zero_column(M, 0)
        image = svar_reference.image(M, EVAL_POINT)
        assert rank_mod(image) == rank(M)  # no unlucky draw among these
        assert rank_mod(image) <= min(n_rows, n_cols)
    # a rank that exists only over Q: P is 0 modulo P
    assert rank_mod([[1, 1], [1, 1 + MOD_PRIME]]) == 1
    assert rank_mod([]) == 0


# -- conjugation ----------------------------------------------------------------------------------


def test_det_commutes_with_conjugation():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 3)
        M = random_matrix(rng, labels(n), labels(n), max_degree=1)
        assert det(conj(M)) == det(M).conj()


def test_hermitian_structure_of_sandwich_products():
    # R = C^T B C* with self-conjugate diagonal B satisfies R* = R^T exactly
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(1, 3)
        C = random_matrix(rng, labels(n), labels(n, "c"), max_degree=1)
        diag = []
        for _ in range(n):
            r = random_ratfn(rng, max_degree=1, zero_ok=False)
            diag.append(r * r.conj())
        B = RatMatrix.diagonal(labels(n), diag)
        assert all(d.conj() == d for d in diag)
        R = matmul(transpose(C), B, conj(C))
        assert conj(R) == transpose(R)

