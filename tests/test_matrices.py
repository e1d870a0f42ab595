import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg import matrices as mat
from qbialg.matrices import NotInvertible


def random_matrix(rng, rows, cols, span=4):
    return tuple(
        tuple(Fraction(rng.randint(-span, span)) for _ in range(cols)) for _ in range(rows)
    )


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        try:
            mat.inverse(m)
            return m
        except NotInvertible:
            continue


def test_identity_and_mul():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        assert mat.mul(a, mat.identity(n)) == a
        assert mat.mul(mat.identity(n), a) == a


def test_mul_associative():
    rng = random.Random(2)
    for _ in range(20):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 4)
        c = random_matrix(rng, 4, 2)
        assert mat.mul(mat.mul(a, b), c) == mat.mul(a, mat.mul(b, c))


def test_inverse():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_invertible(rng, n)
        assert mat.mul(a, mat.inverse(a)) == mat.identity(n)
        assert mat.mul(mat.inverse(a), a) == mat.identity(n)


def test_not_invertible():
    with pytest.raises(NotInvertible):
        mat.inverse(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    with pytest.raises(NotInvertible):
        mat.inverse(((Fraction(1), Fraction(2)),))


def test_power():
    f = ((Fraction(2),),)
    assert mat.power(f, 3) == ((Fraction(8),),)
    assert mat.power(f, 0) == mat.identity(1)
    assert mat.power(f, -2) == ((Fraction(1, 4),),)
    rng = random.Random(4)
    a = random_invertible(rng, 3)
    assert mat.mul(mat.power(a, 3), mat.power(a, -3)) == mat.identity(3)
    assert mat.power(a, 5) == mat.mul(mat.power(a, 2), mat.power(a, 3))


def test_power_matches_repeated_products():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(1, 3)
        a = random_invertible(rng, n)
        inv = mat.inverse(a)
        for e in range(-3, 7):
            expect = mat.identity(n)
            for _ in range(abs(e)):
                expect = mat.mul(expect, a if e > 0 else inv)
            assert mat.power(a, e) == expect


def test_kron_mixed_product():
    # (A (x) B)(C (x) D) = AC (x) BD ties legwise and full composition together
    rng = random.Random(5)
    for _ in range(15):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(rng, da, da)
        c = random_matrix(rng, da, da)
        b = random_matrix(rng, db, db)
        d = random_matrix(rng, db, db)
        assert mat.mul(mat.kron(a, b), mat.kron(c, d)) == mat.kron(
            mat.mul(a, c), mat.mul(b, d)
        )


def test_kron_layout_row_major_left_slowest():
    a = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    b = ((Fraction(5),),)
    assert mat.kron(a, b) == ((Fraction(5), Fraction(10)), (Fraction(15), Fraction(20)))
    k = mat.kron(b, a)
    assert k == ((Fraction(5), Fraction(10)), (Fraction(15), Fraction(20)))
    e1 = ((Fraction(1), Fraction(0)),)  # row vector picks out block structure
    m = mat.kron(((Fraction(2),),), mat.identity(2))
    assert m == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)))


def test_flip():
    rng = random.Random(6)
    for _ in range(15):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(rng, d1, d1)
        b = random_matrix(rng, d2, d2)
        # conjugation by the flip swaps Kronecker factors
        lhs = mat.mul(mat.flip(d1, d2), mat.kron(a, b))
        rhs = mat.mul(mat.kron(b, a), mat.flip(d1, d2))
        assert lhs == rhs
        assert mat.mul(mat.flip(d2, d1), mat.flip(d1, d2)) == mat.identity(d1 * d2)


def test_flip_explicit_2x2():
    f = mat.flip(2, 2)
    # e_i (x) e_j at row i*2+j goes to e_j (x) e_i at row j*2+i
    expect = (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )
    assert f == tuple(tuple(Fraction(x) for x in row) for row in expect)


def test_scale_sub_shape():
    a = ((Fraction(1), Fraction(2)),)
    assert mat.scale(Fraction(1, 2), a) == ((Fraction(1, 2), Fraction(1)),)
    assert mat.sub(a, a) == ((Fraction(0), Fraction(0)),)
    assert mat.shape(a) == (1, 2)


# -- representation: exact rationals, integral entries as int ----------------

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))


@st.composite
def square_matrices(draw, max_n=5, entries=rationals):
    """Square rational matrices up to max_n, about a third of them singular.

    Singular ones get a row that is a rational combination of the others
    (or zero), so the determinant vanishes for a reason sympy can see too.
    """
    n = draw(st.integers(1, max_n))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        weights = [draw(entries) for _ in range(n - 1)]
        rows[0] = [sum(w * r[j] for w, r in zip(weights, rows[1:])) for j in range(n)]
    return tuple(tuple(row) for row in rows)


mixed = st.one_of(st.integers(-4, 4), rationals)


def matrices_of(rows, cols, entries=mixed):
    """rows x cols matrices, by default with int and Fraction entries mixed."""
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols).map(tuple), min_size=rows, max_size=rows
    ).map(tuple)


def _to_sympy(a):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])


def _normalised(m):
    """Every entry an int or a Fraction, and an int exactly when integral."""
    return all(
        type(x) is (int if x.denominator == 1 else Fraction) for row in m for x in row
    )


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_inverse_matches_sympy(a):
    expect = _to_sympy(a)
    if expect.det() == 0:
        return
    inv = expect.inv()
    assert mat.inverse(a) == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in inv.tolist()
    )


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_not_invertible_exactly_when_determinant_vanishes(a):
    singular = _to_sympy(a).det() == 0
    try:
        mat.inverse(a)
    except NotInvertible:
        assert singular
    else:
        assert not singular


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_inverse_is_an_involution(a):
    try:
        inv = mat.inverse(a)
    except NotInvertible:
        return
    assert mat.inverse(inv) == a
    assert mat.mul(a, inv) == mat.identity(len(a))


@settings(max_examples=100, deadline=None)
@given(square_matrices(max_n=3), square_matrices(max_n=3), rationals, st.integers(-3, 3))
def test_no_operation_yields_a_float(a, b, c, e):
    a = mat.from_rows(a)
    b = mat.from_rows(b)
    normalised = [a, mat.scale(c, a), mat.flip(len(a), len(b)), mat.identity(len(b))]
    exact = [mat.mul(a, a), mat.kron(a, b), mat.sub(a, a)]
    try:
        normalised.append(mat.inverse(a))
        exact.append(mat.power(a, e))
    except NotInvertible:
        pass
    for m in normalised + exact:
        assert all(type(x) in (int, Fraction) for row in m for x in row)
    for m in normalised:
        assert _normalised(m)


@settings(max_examples=100, deadline=None)
@given(square_matrices(max_n=3, entries=st.integers(-3, 3)), st.integers(0, 4), st.data())
def test_integer_matrices_stay_integer(a, e, data):
    assert all(type(x) is int for row in a for x in row)
    for m in (mat.mul(a, a), mat.kron(a, a), mat.sub(a, a), mat.scale(-2, a), mat.power(a, e)):
        assert all(type(x) is int for row in m for x in row)
    # and rectangular ones, n x k by k x m
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    b, c = (data.draw(matrices_of(n, k, st.integers(-9, 9))) for _ in range(2))
    d = data.draw(matrices_of(k, m, st.integers(-9, 9)))
    for out in (mat.mul(b, d), mat.sub(b, c), mat.kron(b, d), mat.from_rows(b)):
        assert all(type(x) is int for row in out for x in row)


def test_integral_entries_come_back_as_int():
    rows = mat.from_rows([[Fraction(4, 2), Fraction(1, 2), 3]])
    assert rows == ((2, Fraction(1, 2), 3),) and _normalised(rows)
    # a float is not an exact entry, even when integral
    for bad in (0.5, 3.0):
        with pytest.raises(TypeError, match="^matrix entry: "):
            mat.from_rows([[1, bad]])
    assert _normalised(mat.scale(Fraction(1, 2), ((2, 3),)))
    # a unimodular matrix never leaves the integers, and a rational
    # matrix with an integer inverse gets ints back
    u = ((2, 1), (1, 1))
    assert mat.inverse(u) == ((1, -1), (-1, 2))
    assert all(type(x) is int for row in mat.inverse(u) for x in row)
    half = mat.from_rows(((Fraction(1, 2), 0), (0, Fraction(1, 3))))
    assert mat.inverse(half) == ((2, 0), (0, 3))
    assert _normalised(mat.inverse(half))
    assert mat.inverse(((Fraction(2),),)) == ((Fraction(1, 2),),)
    # only from_rows, scale and inverse normalise: mul and kron keep the
    # type their arithmetic gives
    product = mat.mul(((Fraction(1, 2),),), ((2,),))
    assert product == ((1,),) and type(product[0][0]) is Fraction
    assert type(mat.kron(((Fraction(1, 2),),), ((2,),))[0][0]) is Fraction
    assert type(mat.from_rows(product)[0][0]) is int
    assert type(mat.scale(2, ((Fraction(1, 2),),))[0][0]) is int


# -- the dense kernels against sympy -----------------------------------------


def _from_sympy(m):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in m.tolist())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernels_match_sympy_on_rectangular_matrices(data):
    sympy = pytest.importorskip("sympy")
    n, k, m, p = (data.draw(st.integers(1, 4)) for _ in range(4))
    a = data.draw(matrices_of(n, k))
    b = data.draw(matrices_of(k, m))
    c = data.draw(matrices_of(n, k))
    d = data.draw(matrices_of(p, m))
    assert mat.mul(a, b) == _from_sympy(_to_sympy(a) * _to_sympy(b))
    assert mat.sub(a, c) == _from_sympy(_to_sympy(a) - _to_sympy(c))
    assert mat.kron(a, d) == _from_sympy(sympy.kronecker_product(_to_sympy(a), _to_sympy(d)))
    for out in (mat.mul(a, b), mat.sub(a, c), mat.kron(a, d)):
        assert all(type(x) in (int, Fraction) for row in out for x in row)


def test_kernel_shape_mismatch_messages():
    a = ((1, 2, 3), (4, 5, 6))
    with pytest.raises(ValueError, match=r"^cannot multiply \(2, 3\) by \(2, 3\)$"):
        mat.mul(a, a)
    with pytest.raises(ValueError, match=r"^shape \(2, 3\) vs \(3, 2\)$"):
        mat.sub(a, tuple(zip(*a)))
