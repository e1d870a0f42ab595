"""Exact integer linear algebra: Smith normal form and lattice quotients.

Everything here works on plain lists of Python ints, so nothing rounds
and there is no dependency; ``solve_columns`` is the one routine that
computes in ``Fraction``.  Products and shapes come from ``matrices``:
``matrix_mul`` is ``matrices.mul`` with its rows as lists.  The Smith
routine keeps both transform matrices in the array it reduces, beside
and below a, which is what lets callers extract honest lattice bases for
kernels instead of rational nullspaces.
"""

from __future__ import annotations

from fractions import Fraction

from . import matrices as mat
from .laurent import read_integer

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return [list(row) for row in mat.mul(a, b)]


def _pivot(rows: IntMatrix, k: int, m: int, n: int) -> tuple[int, int, int] | None:
    """(|v|, i, j) for the first entry v of least absolute value in the block
    of d from (k, k), scanned row by row, or None if that block is zero.
    Nothing is smaller than a unit, so the scan returns at the first one."""
    best = None
    for i in range(k, m):
        row = rows[i]
        for j in range(k, n):
            v = row[j]
            if v and (best is None or abs(v) < best[0]):
                best = abs(v), i, j
                if best[0] == 1:
                    return best
    return best


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize over Z: returns (d, s, t) with d = s * a * t.

    s and t are products of elementary integer operations, hence
    unimodular.  The diagonal of d is nonnegative with each entry
    dividing the next, nonzero entries first.

    One array holds all three: for a of shape m x n, ``rows[:m]`` are
    [d | s] and ``rows[m:]`` are t.  A row operation on d then acts on s
    in the same statement, and a column operation on d acts on t.

    Each pivot is the first entry of least absolute value in the
    trailing block, scanned row by row.  A unit pivot needs no
    divisibility check on the trailing block, since a unit divides
    everything.
    """
    m, n = mat.shape(a)
    if any(len(row) != n for row in a):  # rows of a and s must line up
        raise ValueError("ragged rows")
    rows = [
        [x if type(x) is int else read_integer(x, "matrix entry") for x in row] + e
        for row, e in zip(a, identity_matrix(m))
    ]
    rows += identity_matrix(n)

    def add_row(i, j, c):  # row i += c * row j, in d and s
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]

    def add_col(i, j, c):  # column i += c * column j, in d and t
        for row in rows:
            row[i] += c * row[j]

    for k in range(min(m, n)):
        while pivot := _pivot(rows, k, m, n):
            best, i, j = pivot
            rows[k], rows[i] = rows[i], rows[k]
            if j != k:
                for row in rows:
                    row[k], row[j] = row[j], row[k]
            # clear the pivot column and row; a nonzero remainder yields a
            # strictly smaller pivot, so this loop terminates
            p = rows[k][k]
            dirty = False
            for i in range(k + 1, m):
                if rows[i][k]:
                    add_row(i, k, -(rows[i][k] // p))
                    if rows[i][k]:
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, n):
                if rows[k][j]:
                    add_col(j, k, -(rows[k][j] // p))
                    if rows[k][j]:
                        dirty = True
            if dirty:
                continue
            # a unit divides everything; any other pivot must divide the
            # whole trailing block for the chain
            if best == 1:
                break
            offender = next((i for i in range(k + 1, m) if any(rows[i][j] % p for j in range(k + 1, n))), None)
            if offender is None:
                break
            add_row(k, offender, 1)
        else:  # a zero block: the rest of the diagonal is zero
            break
        if rows[k][k] < 0:
            rows[k] = [-x for x in rows[k]]
    return [row[:n] for row in rows[:m]], [row[n:] for row in rows[:m]], rows[m:]


def diagonal_entries(d: IntMatrix) -> list[int]:
    m, n = mat.shape(d)
    return [d[i][i] for i in range(min(m, n))]


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form, in dividing order."""
    return tuple(invariant_factors_from_diagonal(smith_normal_form(a)[0]))


def kernel_basis(a: IntMatrix) -> list[list[int]]:
    """A lattice basis of {x in Z^n : a x = 0}, as a list of columns.

    The basis columns span the full kernel lattice, not a finite-index
    sublattice: any integer kernel vector is an integer combination.
    """
    m, n = mat.shape(a)
    if n == 0:
        return []
    d, _, t = smith_normal_form(a)
    rank = len(invariant_factors_from_diagonal(d))
    return [[t[i][j] for i in range(n)] for j in range(rank, n)]


def invariant_factors_from_diagonal(d: IntMatrix) -> list[int]:
    return [x for x in diagonal_entries(d) if x]


def solve_columns(basis: list[list[int]], targets: list[list[int]]) -> list[list[int]]:
    """Coordinates of each target in the given lattice basis, exactly.

    ``basis`` holds linearly independent columns; the return value has
    one coordinate list per target.  Used to rewrite vectors that are
    known to lie in the spanned lattice in terms of the basis, so a
    non-integral or inconsistent system is a caller bug and raises.
    """
    if not targets:
        return []
    n = len(basis[0]) if basis else len(targets[0])
    k = len(basis)
    p = len(targets)
    # augmented rational elimination over the columns of basis
    aug = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(tt[i]) for tt in targets] for i in range(n)]
    pivots = []
    row = 0
    for col in range(k):
        pivot_row = next((i for i in range(row, n) if aug[i][col]), None)
        if pivot_row is None:
            raise ValueError("basis columns are linearly dependent")
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, n):
        if any(aug[i][k:]):
            raise ValueError("target vector lies outside the spanned lattice")
    out = [[Fraction(0)] * p for _ in range(k)]
    for r, col in enumerate(pivots):
        for j in range(p):
            out[col][j] = aug[r][k + j]
    for row_vals in out:
        for v in row_vals:
            if v.denominator != 1:
                raise ValueError("combination is not integral; not a lattice member")
    return [[int(out[i][j]) for i in range(k)] for j in range(p)]


def quotient_invariants(ambient_rank: int, relation_columns: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Structure of Z^ambient_rank modulo the span of the relation columns.

    Returns (free_rank, torsion) with torsion the invariant factors
    greater than one, each dividing the next.
    """
    if not relation_columns:
        return ambient_rank, ()
    mat = [[col[i] for col in relation_columns] for i in range(ambient_rank)]
    factors = invariant_factors(mat)
    free = ambient_rank - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return free, torsion
