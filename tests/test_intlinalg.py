import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbialg.harrison import coboundary_matrix, cocycle_classify
from qbialg.intlinalg import (
    diagonal_entries,
    identity_matrix,
    invariant_factors,
    kernel_basis,
    matrix_mul,
    quotient_invariants,
    smith_normal_form,
    solve_columns,
)


def random_int_matrix(rng, rows, cols, span=6):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def det(m):
    """Fraction-exact determinant by Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            d = -d
        d *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return d


def check_snf(a):
    rows = len(a)
    cols = len(a[0]) if a else 0
    d, s, t = smith_normal_form(a)
    assert matrix_mul(matrix_mul(s, a), t) == d
    assert abs(det(s)) == 1
    assert abs(det(t)) == 1
    diag = diagonal_entries(d)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zeros only after all nonzero pivots
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return diag


def test_snf_random():
    rng = random.Random(10)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        check_snf(random_int_matrix(rng, rows, cols))


def test_snf_known_values():
    assert invariant_factors([[2, 4], [6, 8]]) == (2, 4)
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[1, 0], [0, 0]]) == (1,)
    assert invariant_factors([[0, 0], [0, 0]]) == ()
    assert invariant_factors([[6, 10], [10, 6]]) == (2, 32)


# -- recorded outputs: a change of pivot order or of the elementary
# operations keeps every property above, but not these values ---------------


def test_smith_forms_of_coboundary_matrices_are_pinned():
    # (d, s, t) of D_0 ... D_12 over Z, entry for entry
    recorded = json.loads((Path(__file__).resolve().parent / "golden" / "smith_coboundary_rank1.json").read_text())
    assert len(recorded) == 13
    for n, expected in enumerate(recorded):
        assert list(smith_normal_form(coboundary_matrix(1, n))) == expected, n


@pytest.mark.parametrize(
    "rank, kernel",
    [
        (1, ((1, 0, 0), (0, 0, 1))),
        (2, ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))),
        (
            3,
            (
                (1, 0, 0, 0, 0, 0, 0, 0, 0),
                (0, 1, 0, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 0, 0, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 0, 1, 0, 0),
                (0, 0, 0, 0, 0, 0, 0, 1, 0),
                (0, 0, 0, 0, 0, 0, 0, 0, 1),
            ),
        ),
    ],
)
def test_cocycle_kernel_vectors_are_pinned(rank, kernel):
    assert cocycle_classify(rank).kernel_vectors == kernel


def test_snf_empty_and_degenerate():
    assert smith_normal_form([])[0] == []
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="ragged rows"):
            smith_normal_form(ragged)
    check_snf([[0]])
    check_snf([[7]])
    check_snf([[3, 6, 9]])


def test_kernel_basis_annihilates():
    rng = random.Random(11)
    for _ in range(40):
        a = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = kernel_basis(a)
        for vec in basis:
            assert all(
                sum(row[j] * vec[j] for j in range(len(vec))) == 0 for row in a
            )


def test_kernel_basis_is_full_lattice():
    # any integer kernel vector must be an integer combination of the basis
    rng = random.Random(12)
    found = 0
    for _ in range(200):
        a = random_int_matrix(rng, 2, 4, span=3)
        basis = kernel_basis(a)
        if not basis:
            continue
        coeffs = [rng.randint(-3, 3) for _ in basis]
        vec = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(4)]
        assert solve_columns(basis, [vec]) == [coeffs]
        found += 1
    assert found > 50


def test_solve_columns_rejects_outside_vectors():
    basis = [[2, 0], [0, 2]]
    assert solve_columns(basis, [[4, -2]]) == [[2, -1]]
    with pytest.raises(ValueError):
        solve_columns(basis, [[1, 0]])  # not in the lattice spanned by basis
    with pytest.raises(ValueError):
        solve_columns([[1, 0], [2, 0]], [[1, 2]])  # dependent basis


def test_quotient_invariants():
    # Z^2 / <2e1, 3e2> = Z/6 after combining coprime factors
    assert quotient_invariants(2, [[2, 0], [0, 3]]) == (0, (6,))
    assert quotient_invariants(3, [[2, 0, 0]]) == (2, (2,))
    assert quotient_invariants(2, []) == (2, ())
    assert quotient_invariants(2, [[1, 0], [0, 1]]) == (0, ())
    assert quotient_invariants(3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]) == (0, (2, 2, 2))


def test_identity_matrix():
    assert identity_matrix(2) == [[1, 0], [0, 1]]
    assert identity_matrix(0) == []


def test_matrix_mul_is_a_list_of_int_lists():
    product = matrix_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]])
    assert product == [[2, 1], [4, 3]]
    assert all(type(row) is list and all(type(x) is int for x in row) for row in product)
    with pytest.raises(ValueError, match=re.escape("cannot multiply (1, 2) by (1, 2)")):
        matrix_mul([[1, 2]], [[1, 2]])


# -- invariant factors against sympy ---------------------------------------------


def sympy_invariant_factors(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as reference

    rows, cols = len(a), len(a[0]) if a else 0
    flat = [x for row in a for x in row]
    factors = reference(sympy.Matrix(rows, cols, flat), domain=sympy.ZZ)
    return tuple(int(x) for x in factors if x)


def test_invariant_factors_match_sympy_on_coboundary_matrices():
    for rank in range(1, 5):
        for degree in range(1, 24 // rank + 2):
            a = coboundary_matrix(rank, degree)
            assert invariant_factors(a) == sympy_invariant_factors(a), (rank, degree)


def int_matrices(max_dim, span):
    """Integer matrices of 1..max_dim rows and columns, entries in -span..span."""
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-span, span), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


@settings(max_examples=150, deadline=None)
@given(int_matrices(5, 6))
def test_invariant_factors_match_sympy_on_small_matrices(a):
    assert invariant_factors(a) == sympy_invariant_factors(a)


# -- the Smith routine on unit and non-unit pivots ------------------------------


@settings(max_examples=200, deadline=None)
@given(int_matrices(7, 12))
@example([[2, 0], [0, 3]])  # pivot 2 fails to divide 3: the divisibility fix
@example([[6, 10], [10, 6]])  # no unit entry at all
@example([[4, 6, 0], [6, 9, 2], [0, 2, 12]])
@example([[0, 0, 1], [2, 0, 0], [0, 5, 0]])  # a unit pivot away from (0, 0)
def test_smith_normal_form_properties(a):
    # d = s a t with s, t unimodular, a nonnegative diagonal, each entry
    # dividing the next and zeros last; entries in -12..12 give unit and
    # non-unit pivots both
    check_snf(a)


def kron_identity(a, rank):
    return [
        [x if k == l else 0 for x in row for l in range(rank)] for row in a for k in range(rank)
    ]


@settings(max_examples=60, deadline=None)
@given(int_matrices(4, 6), st.integers(1, 3))
def test_smith_form_of_tensor_with_identity(a, rank):
    # Smith(a (x) I_r) = Smith(a) (x) I_r: each invariant factor r times
    expected = tuple(f for f in invariant_factors(a) for _ in range(rank))
    assert invariant_factors(kron_identity(a, rank)) == expected


def test_integer_routines_refuse_non_integer_entries():
    # int() would truncate: invariant factors (1, 2) for a matrix with no
    # integer entries, and a "kernel" vector [1, 0] that [[0.5, 1]] sends to 0.5
    for call in (
        lambda: invariant_factors([[1.5, 0], [0, Fraction(5, 2)]]),
        lambda: kernel_basis([[0.5, 1]]),
        lambda: smith_normal_form([["3"]]),
    ):
        with pytest.raises(TypeError):
            call()
