"""Small dense matrices over the rationals, exact throughout.

Matrices are immutable tuples of tuples of Fractions.  Sizes stay tiny
(single digits per factor), so plain row-times-column products are the
right tool; there is deliberately no float path anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


class NotInvertible(ValueError):
    """Matrix has no inverse over the rationals."""


def from_rows(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows")
    return out


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


@lru_cache(maxsize=64)
def identity(n: int) -> Matrix:
    """The n x n identity; cached, so equal sizes share one (immutable) object."""
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mul(a: Matrix, b: Matrix) -> Matrix:
    n, inner = shape(a)
    inner2, m = shape(b)
    if inner != inner2:
        raise ValueError(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError(f"shape {shape(a)} vs {shape(b)}")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def kron(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    return tuple(
        tuple(a[i // rb][j // cb] * b[i % rb][j % cb] for j in range(ca * cb))
        for i in range(ra * rb)
    )


def inverse(a: Matrix) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise NotInvertible(f"matrix is {n}x{m}, not square")
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise NotInvertible("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


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
    one, zero = Fraction(1), Fraction(0)
    rows = [[zero] * (d1 * d2) for _ in range(d1 * d2)]
    for i in range(d1):
        for j in range(d2):
            rows[j * d1 + i][i * d2 + j] = one
    return tuple(tuple(r) for r in rows)


def to_strings(a: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in a]


def from_strings(rows: Sequence[Sequence[str]]) -> Matrix:
    return from_rows(rows)
