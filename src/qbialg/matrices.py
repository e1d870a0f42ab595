"""Small dense matrices over the rationals, exact throughout.

Matrices are immutable tuples of tuples of exact rationals: an integral
entry is a plain ``int`` and any other entry a ``Fraction``.  Only
``from_rows``, ``scale`` and ``inverse`` normalise their output to that
form (an integral ``Fraction`` becomes an ``int``), and ``identity`` and
``flip`` build ints.  ``mul``, ``kron``, ``sub`` and ``power`` do no
normalising step: int and Fraction arithmetic is exact, so integer
inputs give integer outputs, but a product of Fractions that happens to
be integral stays a ``Fraction`` -- ``mul(((Fraction(1, 2),),), ((2,),))``
is ``((Fraction(1, 1),),)``, equal to ``((1,),)`` but not of its type.
The one operation that leaves the integers is division, so every
division goes through ``Fraction`` (never ``/`` on two ints, which would
give a float).  There is deliberately no float path anywhere, input
included: ``laurent.read_rational`` reads every other entry.

Sizes stay tiny (single digits per factor), so plain row-times-column
products are the right tool.  The kernels run their inner loops in C:
``mul`` sums ``map(operator.mul, row, col)``, ``sub`` maps
``operator.sub`` over paired rows, and ``kron`` writes each output row
as one comprehension over a row of each factor.  ``inverse`` is
fraction-free: it clears denominators and eliminates with exact integer
divisions (Bareiss), so the unimodular matrices the hom-category checker
samples never touch a ``Fraction``.

``mul`` is the one dense product in the package: ``homcat`` folds each
leg word with it and ``intlinalg.matrix_mul`` is its list view.
``identity`` is cached only so that each size is built once; nothing
compares identities by ``is``.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .laurent import read_rational, read_shape

Rational = int | Fraction
Matrix = tuple[tuple[Rational, ...], ...]


class NotInvertible(ValueError):
    """Matrix has no inverse over the rationals."""


def _entry(x) -> Rational:
    """x as an int when integral, else a Fraction; a non-Fraction goes through ``read_rational``."""
    if type(x) is not Fraction:
        x = read_rational(x, "matrix entry")
    return x.numerator if x.denominator == 1 else x


def _quotient(n: int, d: int) -> Rational:
    """n / d for ints, as an int when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def from_rows(rows: Sequence[Sequence], field: str = "matrix") -> Matrix:
    """``rows`` as a matrix.  ``rows`` and each row i must be arrays,
    read as ``field`` and ``field[i]``, and all rows one length; an error
    names the field."""
    rows = read_shape(rows, "array", field)
    for i, row in enumerate(rows):
        if type(row) is not tuple:  # a tuple row, as every computed matrix has, needs no call
            read_shape(row, "array", f"{field}[{i}]")
    out = tuple([tuple([x if type(x) is int else _entry(x) for x in row]) for row in rows])
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError(f"{field}: ragged rows")
    return out


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


@lru_cache(maxsize=64)
def identity(n: int) -> Matrix:
    """The n x n identity, cached so that each size is built once."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mul(a: Matrix, b: Matrix) -> Matrix:
    n, inner = shape(a)
    inner2, m = shape(b)
    if inner != inner2:
        raise ValueError(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in bt]) for row in a])


def sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError(f"shape {shape(a)} vs {shape(b)}")
    return tuple([tuple(map(operator.sub, ra, rb)) for ra, rb in zip(a, b)])


def scale(c, a: Matrix) -> Matrix:
    c = c if type(c) is int else _entry(c)
    return tuple([tuple([y if type(y := c * x) is int else _entry(y) for x in row]) for row in a])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Row-major, the left factor slowest: row (i, k) is a[i] (x) b[k]."""
    return tuple([tuple([x * y for x in row_a for y in row_b]) for row_a in a for row_b in b])


def inverse(a: Matrix) -> Matrix:
    """The exact inverse, by fraction-free Gauss-Jordan elimination.

    With L the lcm of the denominators, B = L a is integral.  Bareiss
    elimination on [B | I] keeps every entry an integer (each is a minor
    of the augmented matrix, so each division by the previous pivot is
    exact) and ends at [d I | d B^-1] with d = +-det B.  Then
    a^-1 = L B^-1 is that right block times L / d, one division per
    entry at the end.
    """
    n, m = shape(a)
    if n != m:
        raise NotInvertible(f"matrix is {n}x{m}, not square")
    den = lcm(*(x.denominator for row in a for x in row))
    aug = [
        [int(x * den) for x in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(a)
    ]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise NotInvertible("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = aug[r]
                f = row[col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return tuple(tuple(_quotient(den * x, prev) for x in row[n:]) for row in aug)


def power(a: Matrix, e: int) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise NotInvertible("only square matrices have powers")
    if e < 0:
        return power(inverse(a), -e)
    if e == 0:
        return identity(n)
    # square-and-multiply without a product by the identity or a square
    # past the top bit: a^1 costs no product, a^(2^k) costs k
    out = None
    base = a
    while True:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if not e:
            return out
        base = mul(base, base)


def flip(d1: int, d2: int) -> Matrix:
    """Permutation matrix swapping tensor factors of dims d1 and d2.

    Row-major flattening with the left factor slowest: basis vector
    e_i (x) e_j at index i*d2 + j is sent to e_j (x) e_i at j*d1 + i.
    """
    rows = [[0] * (d1 * d2) for _ in range(d1 * d2)]
    for i in range(d1):
        for j in range(d2):
            rows[j * d1 + i][i * d2 + j] = 1
    return tuple(tuple(r) for r in rows)
