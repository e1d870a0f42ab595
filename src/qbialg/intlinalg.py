"""Exact integer linear algebra: Smith normal form and lattice quotients.

Everything here works on plain lists of Python ints, so there is no
coefficient growth problem and no dependency.  The Smith routine keeps
both transform matrices, which is what lets callers extract honest
lattice bases for kernels instead of rational nullspaces.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_shape(a: IntMatrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def matrix_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner = matrix_shape(a)
    inner2, cols = matrix_shape(b)
    if inner != inner2:
        raise ValueError(f"cannot multiply {matrix_shape(a)} by {matrix_shape(b)}")
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize over Z: returns (d, s, t) with d = s * a * t.

    s and t are products of elementary integer operations, hence
    unimodular.  The diagonal of d is nonnegative with each entry
    dividing the next, nonzero entries first.

    Each pivot is the first entry of least absolute value in the
    trailing block, scanned row by row.  A unit pivot has two exits:
    the scan stops at the first entry of absolute value 1, and the
    divisibility check on the trailing block is skipped, since a unit
    divides everything.  Neither exit changes which pivot is taken, so
    d, s and t are those of the full scans.
    """
    m, n = matrix_shape(a)
    d = [list(map(int, row)) for row in a]
    s = identity_matrix(m)
    t = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in d:
            row[i] += c * row[j]
        for row in t:
            row[i] += c * row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        s[i] = [-x for x in s[i]]

    for k in range(min(m, n)):
        while True:
            # bring the smallest nonzero entry of the trailing block to (k, k);
            # nothing is smaller than a unit, so the search stops at the first
            pivot = None
            best = None
            for i in range(k, m):
                row = d[i]
                for j in range(k, n):
                    v = row[j]
                    if v and (best is None or abs(v) < best):
                        best, pivot = abs(v), (i, j)
                        if best == 1:
                            break
                if best == 1:
                    break
            if pivot is None:
                break
            if pivot != (k, k):
                if pivot[0] != k:
                    swap_rows(k, pivot[0])
                if pivot[1] != k:
                    swap_cols(k, pivot[1])
            # clear the pivot column and row; a nonzero remainder yields a
            # strictly smaller pivot, so this loop terminates
            dirty = False
            for i in range(k + 1, m):
                if d[i][k]:
                    add_row(i, k, -(d[i][k] // d[k][k]))
                    if d[i][k]:
                        dirty = True
            if dirty:
                continue
            for j in range(k + 1, n):
                if d[k][j]:
                    add_col(j, k, -(d[k][j] // d[k][k]))
                    if d[k][j]:
                        dirty = True
            if dirty:
                continue
            # a unit divides everything; any other pivot must divide the
            # whole trailing block for the chain
            if best == 1:
                break
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if d[i][j] % d[k][k]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(k, offender, 1)
        if k < min(m, n) and d[k][k] < 0:
            negate_row(k)
        if k < min(m, n) and d[k][k] == 0:
            break
    return d, s, t


def diagonal_entries(d: IntMatrix) -> list[int]:
    m, n = matrix_shape(d)
    return [d[i][i] for i in range(min(m, n))]


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form, in dividing order."""
    d, _, _ = smith_normal_form(a)
    return tuple(x for x in diagonal_entries(d) if x)


def kernel_basis(a: IntMatrix) -> list[list[int]]:
    """A lattice basis of {x in Z^n : a x = 0}, as a list of columns.

    The basis columns span the full kernel lattice, not a finite-index
    sublattice: any integer kernel vector is an integer combination.
    """
    m, n = matrix_shape(a)
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
