"""Harrison-style symmetric cohomology of k[Z^r] in its unit coefficients.

Cochains of degree n are invertible elements of the n-fold tensor
power: a nonzero scalar together with n exponent vectors.  The
coboundary is the alternating product of the n + 2 coface maps.  The
scalar part and the exponent part never mix, so cohomology splits into
a two-case parity analysis for the scalar and the cohomology of a
complex of free Z-modules for the exponents.  The latter is read off
two Smith normal forms (Munkres, *Elements of Algebraic Topology*,
§11): with dⁿ: Z^(rn) -> Z^(r(n+1)) the integer coboundary matrix,

    Hⁿ ≅ Z^((rn − rank dⁿ) − rank dⁿ⁻¹) ⊕ ⊕ᵢ Z/dᵢ,

where the dᵢ are the invariant factors of dⁿ⁻¹ greater than 1.  The
boundary never mixes the r coordinates of an exponent vector, so
dⁿ = Dₙ ⊗ I_r with Dₙ the (n+1) × n matrix for r = 1: the ranks
above are r · rank Dₙ, each dᵢ of Dₙ₋₁ appears r times, and the Smith
forms are taken of Dₙ and Dₙ₋₁ alone.  Dₙ does not depend on r, so its
invariant factors are kept by degree: each Dₙ is reduced once per
process, whatever the rank and however many tables are asked for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import chain
from typing import Mapping

from .intlinalg import invariant_factors, kernel_basis
from .laurent import (
    RankMismatch,
    UnitElement,
    Vector,
    _raw_unit,
    _read_unit,
    as_unit,
    format_coefficient,
    read_integer,
    read_key,
    read_shape,
)

CofaceIndex = int


class DegreeMismatch(ValueError):
    """Degree, leg count, or coface index out of agreement."""


@dataclass(frozen=True)
class HarrisonCochain:
    """A degree-n cochain: a unit q * x_1 (x) ... (x) x_n (n may be 0)."""

    degree: int
    unit: UnitElement

    def __post_init__(self):
        object.__setattr__(self, "degree", read_integer(self.degree, "degree"))
        if self.degree < 0:
            raise DegreeMismatch(f"degree must be >= 0, got {self.degree}")
        if self.unit.legs != self.degree:
            raise DegreeMismatch(
                f"unit has {self.unit.legs} legs but the cochain degree is {self.degree}"
            )

    @property
    def rank(self) -> int:
        return self.unit.rank

    @classmethod
    def from_data(cls, rank: int, scalar, elements) -> "HarrisonCochain":
        unit = _raw_unit(*_read_unit(rank, scalar, elements, "elements"))
        return cls(unit.legs, unit)

    @classmethod
    def identity(cls, rank: int, degree: int) -> "HarrisonCochain":
        return cls(degree, UnitElement.identity(rank, degree))

    def __mul__(self, other: "HarrisonCochain") -> "HarrisonCochain":
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        return HarrisonCochain(self.degree, self.unit * other.unit)

    def inverse(self) -> "HarrisonCochain":
        return HarrisonCochain(self.degree, self.unit.inverse())

    def to_dict(self) -> dict:
        return {
            "scalar": format_coefficient(self.unit.scalar),
            "elements": [list(v) for v in self.unit.monomial],
        }

    @classmethod
    def from_dict(cls, data: Mapping, rank: int | None = None) -> "HarrisonCochain":
        """The cochain a ``to_dict`` document describes, over ``rank`` when
        given (every element must then have that length)."""
        data = read_shape(data, "object", "cochain")
        elements = read_shape(read_key(data, "elements"), "array", "elements")
        if rank is None:
            if not elements:
                raise DegreeMismatch("a degree-0 cochain needs an explicit rank")
            rank = len(read_shape(elements[0], "array", "elements[0]"))
        return cls.from_data(rank, read_key(data, "scalar"), elements)


def coface(i: CofaceIndex, c: HarrisonCochain) -> HarrisonCochain:
    """The i-th coface: insert 1 at an end or duplicate the i-th slot."""
    n = c.degree
    if not 0 <= i <= n + 1:
        raise DegreeMismatch(f"coface index {i} outside 0..{n + 1}")
    mono = c.unit.monomial
    zero = (0,) * c.rank
    if i == 0:
        new = (zero,) + mono
    elif i == n + 1:
        new = mono + (zero,)
    else:
        new = mono[: i - 1] + (mono[i - 1], mono[i - 1]) + mono[i:]
    return HarrisonCochain(n + 1, _raw_unit(c.rank, c.unit.scalar, new))


def boundary(c: HarrisonCochain) -> HarrisonCochain:
    """Alternating product of all cofaces, computed from the definition.

    Multiplying units adds exponent vectors slot by slot, so the exponent
    part is a signed running sum: the n + 2 coface monomials, each
    flattened to r(n + 1) ints, are added to (i even) or subtracted from
    (i odd) one flat list, which is cut back into n + 1 slots at the end.
    The scalar is raised once to the sum of the signs.
    """
    rank = c.rank
    flat = [0] * (rank * (c.degree + 1))
    signs = 0
    for i in range(c.degree + 2):
        face = chain.from_iterable(coface(i, c).unit.monomial)
        if i % 2 == 0:
            flat = list(map(operator.add, flat, face))
            signs += 1
        else:
            flat = list(map(operator.sub, flat, face))
            signs -= 1
    slots = tuple(map(tuple, zip(*[iter(flat)] * rank)))
    unit = _raw_unit(rank, c.unit.scalar ** signs, slots)
    return HarrisonCochain(c.degree + 1, unit)


def boundary_closed_form(c: HarrisonCochain) -> HarrisonCochain:
    """The boundary evaluated through its closed form, split by parity.

    Even degree 2m: the scalar cancels; the image is x_1^-1 in the first
    slot, x_{2j} x_{2j+1}^-1 in each odd interior slot, x_{2m} in the
    last slot, identity elsewhere.  Odd degree 2m+1: the scalar
    survives; slots 2j and 2j+1 both carry x_{2j}, the two end slots are
    identity.  Degree 0 maps everything to the identity.  Both routes
    are kept callable so they can be played against each other.
    """
    n = c.degree
    rank = c.rank
    zero = (0,) * rank
    x = c.unit.monomial
    if n == 0:
        return HarrisonCochain.identity(rank, 1)
    slots = [zero] * (n + 1)
    if n % 2 == 0:
        m = n // 2
        slots[0] = tuple(-v for v in x[0])
        for j in range(1, m):
            slots[2 * j] = tuple(p - q for p, q in zip(x[2 * j - 1], x[2 * j]))
        slots[2 * m] = x[2 * m - 1]
        scalar = Fraction(1)
    else:
        m = (n - 1) // 2
        for j in range(1, m + 1):
            slots[2 * j - 1] = x[2 * j - 1]
            slots[2 * j] = x[2 * j - 1]
        scalar = c.unit.scalar
    return HarrisonCochain(n + 1, UnitElement(rank, scalar, tuple(slots)))


def coboundary_matrix(rank: int, degree: int) -> list[list[int]]:
    """Integer matrix of the boundary on the exponent part Z^(r*degree).

    Rows are grouped in ``degree + 1`` blocks of ``rank``; column block j
    is the j-th tensor slot of the source.  Degree 0 gives a matrix with
    no columns.

    Coface i, with sign (-1)^i, sends source slot s (0-based) to target
    slot s when s < i and to target slot s + 1 when s >= i - 1: slots
    below i - 1 keep their place, slot i - 1 is duplicated, and slots
    above shift up by one (coface 0 shifts every slot, coface n + 1
    none).  So Dₙ is bidiagonal.  Column s has

        Σ_{i=s+1}^{n+1} (-1)^i = [n odd] - [s even]  in row s, and
        Σ_{i=0}^{s+1} (-1)^i = [s odd]               in row s + 1,

    and the matrix is Dₙ ⊗ I_r, each entry repeated down a block diagonal.
    """
    if degree < 0:
        raise DegreeMismatch(f"degree must be >= 0, got {degree}")
    rows = rank * (degree + 1)
    cols = rank * degree
    mat = [[0] * cols for _ in range(rows)]
    for s in range(degree):
        stay = degree % 2 - (s % 2 == 0)
        shift = s % 2
        for j in range(s * rank, (s + 1) * rank):
            mat[j][j] = stay
            mat[j + rank][j] = shift
    return mat


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    """Isomorphism type k*^eps x Z^free x prod Z/d_i with d_1 | d_2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]
    has_scalar_factor: bool

    def __post_init__(self):
        object.__setattr__(self, "free_rank", read_integer(self.free_rank, "free_rank"))
        if self.free_rank < 0:
            raise ValueError(f"free rank must be >= 0, got {self.free_rank}")
        if not isinstance(self.has_scalar_factor, bool):
            raise TypeError(f"has_scalar_factor must be a bool, got {self.has_scalar_factor!r}")
        object.__setattr__(self, "torsion", tuple([read_integer(t, "torsion") for t in self.torsion]))
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion invariants must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion invariants must each divide the next")

    def is_trivial(self) -> bool:
        return not (self.free_rank or self.torsion or self.has_scalar_factor)

    def to_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "scalar_factor": self.has_scalar_factor,
        }

    def __str__(self) -> str:
        parts = []
        if self.has_scalar_factor:
            parts.append("k*")
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "1"


def _scalar_exponent(degree: int) -> int:
    # the boundary raises the scalar to the alternating sum of signs,
    # which is 1 in odd degree and 0 in even degree
    return 1 if degree % 2 == 1 else 0


# large enough for every degree the CLI accepts (0..MAX_DEGREE = 256);
# each entry is a short tuple of ints
@lru_cache(maxsize=512)
def _rank_one_factors(degree: int) -> tuple[int, ...]:
    """Invariant factors of Dₙ = ``coboundary_matrix(1, degree)``, memoised."""
    return invariant_factors(coboundary_matrix(1, degree))


def cohomology(rank: int, degree: int) -> AbelianGroupDescriptor:
    """Cohomology in one degree, derived, not tabulated.

    The exponent part is the cohomology of a complex of free Z-modules,
    read off the invariant factors of the outgoing matrix dⁿ and the
    incoming matrix dⁿ⁻¹ (Munkres, *Elements of Algebraic Topology*,
    §11): the kernel of dⁿ has rank rn − rank dⁿ, the image of dⁿ⁻¹
    lies in it with rank dⁿ⁻¹, and since the kernel is a direct summand
    of Z^(rn) the torsion of the quotient is that of Z^(rn) / Im dⁿ⁻¹,
    the invariant factors of dⁿ⁻¹ greater than 1.  Rank indices never
    mix, so dⁿ = Dₙ ⊗ I_r with Dₙ = ``coboundary_matrix(1, n)``, and the
    Smith form of A ⊗ I_r is Smith(A) ⊗ I_r: both Smith forms run on
    the r = 1 matrices, the free rank is r(n − rank Dₙ − rank Dₙ₋₁),
    and each invariant factor of Dₙ₋₁ above 1 appears r times.  The
    cost does not grow with r.  The scalar part only depends on the
    parity of the neighboring degrees.  The invariant factors of each Dₙ
    are memoised by degree, so each Dₙ is reduced once per process.
    """
    if rank < 1:
        raise RankMismatch(f"rank must be >= 1, got {rank}")
    if degree < 0:
        raise DegreeMismatch(f"degree must be >= 0, got {degree}")

    # scalar part: kernel is all of k* iff the outgoing exponent is 0;
    # the image from below is all of k* iff the incoming exponent is 1
    scalar_kernel_full = _scalar_exponent(degree) == 0
    scalar_image_full = degree >= 1 and _scalar_exponent(degree - 1) == 1
    has_scalar = scalar_kernel_full and not scalar_image_full

    if degree == 0:
        # no exponent part at all: the cochain group is k* alone
        return AbelianGroupDescriptor(0, (), has_scalar)

    outgoing = _rank_one_factors(degree)
    # D₀ leaves Z^0, so it has rank 0 and no invariant factors
    incoming = _rank_one_factors(degree - 1) if degree > 1 else ()
    free = rank * (degree - len(outgoing) - len(incoming))
    torsion = tuple(f for f in incoming if f > 1 for _ in range(rank))
    return AbelianGroupDescriptor(free, torsion, has_scalar)


@dataclass(frozen=True)
class ThreeCocycleClassification:
    """Exact description of the degree-3 cocycles over a given rank.

    ``kernel_vectors`` is the Smith-derived lattice basis of the kernel
    of the degree-3 coboundary inside Z^(3r).  ``cocycle_classify``
    confirms that the middle slot of every cocycle vanishes and that the
    two outer slots are free, so cocycles are parameterized by pairs
    (h, g) of exponent vectors; the scalar of a cocycle must be 1
    because the boundary preserves scalars in odd degree.
    """

    rank: int
    kernel_vectors: tuple[tuple[int, ...], ...]

    def free_parameters(self) -> int:
        return len(self.kernel_vectors)

    def cocycle(self, h: Vector, g: Vector) -> UnitElement:
        """The cocycle h (x) 1 (x) g attached to a parameter pair, as a unit."""
        return UnitElement(self.rank, 1, (h, (0,) * self.rank, g))

    def parameters_of(self, elem: UnitElement) -> tuple[Vector, Vector]:
        """Recover (h, g) from a cocycle; rejects non-cocycles.  ``elem`` is
        certified through ``as_unit``, so a one-term JSON record is read too."""
        u = as_unit(elem, self.rank, 3, "cocycle")
        if u.scalar != 1 or any(u.monomial[1]):
            raise ValueError("element is not in the kernel of the degree-3 boundary")
        return u.monomial[0], u.monomial[2]


def cocycle_classify(rank: int) -> ThreeCocycleClassification:
    """Derive the degree-3 cocycle lattice from the coboundary matrix.

    The kernel basis of D₃ = ``coboundary_matrix(1, 3)`` comes out of
    Smith normal form; the shape claims (rank 2, middle slot zero, outer
    slots jointly unimodular) are then checked rather than assumed, so a
    wrong coboundary matrix cannot silently produce the familiar answer.
    Rank indices never mix, so d³ = D₃ ⊗ I_r (as in ``cohomology``) and
    its kernel is ker D₃ ⊗ Z^r: each vector times each of e₁ … e_r.
    """
    if rank < 1:
        raise RankMismatch(f"rank must be >= 1, got {rank}")
    basis = kernel_basis(coboundary_matrix(1, 3))
    if len(basis) != 2:
        raise ArithmeticError(f"kernel of the degree-3 boundary has rank {len(basis)}, expected 2")
    if any(v[1] for v in basis):
        raise ArithmeticError("degree-3 kernel has a nonvanishing middle slot")
    factors = invariant_factors([[v[0] for v in basis], [v[2] for v in basis]])
    if len(factors) != 2 or any(f != 1 for f in factors):
        raise ArithmeticError("outer slots of the degree-3 kernel are not free")
    vectors = (
        tuple(x * (j == k) for x in v for j in range(rank)) for v in basis for k in range(rank)
    )
    return ThreeCocycleClassification(rank, tuple(vectors))
