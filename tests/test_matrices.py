import random
from fractions import Fraction

import pytest

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


def test_string_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        half = mat.scale(Fraction(1, 2), a)
        assert mat.from_strings(mat.to_strings(half)) == half
