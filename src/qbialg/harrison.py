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
forms are taken of Dₙ and Dₙ₋₁ alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .intlinalg import invariant_factors, kernel_basis
from .laurent import (
    RankMismatch,
    TensorElement,
    UnitElement,
    Vector,
    _raw_unit,
    as_unit,
    parse_coefficient,
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
        vecs = tuple(tuple(int(c) for c in v) for v in elements)
        return cls(len(vecs), UnitElement(rank, scalar, vecs))

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
            "scalar": str(self.unit.scalar),
            "elements": [list(v) for v in self.unit.monomial],
        }

    @classmethod
    def from_dict(cls, data: Mapping, rank: int | None = None) -> "HarrisonCochain":
        elements = [tuple(int(c) for c in v) for v in data["elements"]]
        if elements:
            rank = len(elements[0])
        elif rank is None:
            raise DegreeMismatch("a degree-0 cochain needs an explicit rank")
        return cls.from_data(rank, parse_coefficient(data["scalar"], "scalar"), elements)

    def dumps(self) -> str:
        return json.dumps(self.to_dict())


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

    Multiplying units adds exponent vectors slot by slot, so each coface
    is added with its sign into one integer accumulator per target slot,
    and the scalar is raised once to the sum of the signs.
    """
    rank = c.rank
    slots = [[0] * rank for _ in range(c.degree + 1)]
    signs = 0
    for i in range(c.degree + 2):
        sign = 1 if i % 2 == 0 else -1
        signs += sign
        for acc, v in zip(slots, coface(i, c).unit.monomial):
            for k in range(rank):
                acc[k] += sign * v[k]
    unit = _raw_unit(rank, c.unit.scalar ** signs, tuple(map(tuple, slots)))
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
    """
    if degree < 0:
        raise DegreeMismatch(f"degree must be >= 0, got {degree}")
    rows = rank * (degree + 1)
    cols = rank * degree
    mat = [[0] * cols for _ in range(rows)]
    for i in range(degree + 2):
        sign = 1 if i % 2 == 0 else -1
        # coface i sends source slot s to target slot(s): every slot below
        # i keeps its place, slot i (when 1 <= i <= n) is duplicated, and
        # slots above shift up by one.
        for s in range(degree):
            targets = []
            if i == 0:
                targets = [s + 1]
            elif i == degree + 1:
                targets = [s]
            elif s + 1 < i:
                targets = [s]
            elif s + 1 == i:
                targets = [s, s + 1]
            else:
                targets = [s + 1]
            for tgt in targets:
                for k in range(rank):
                    mat[tgt * rank + k][s * rank + k] += sign
    return mat


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    """Isomorphism type k*^eps x Z^free x prod Z/d_i with d_1 | d_2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]
    has_scalar_factor: bool

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
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
    parity of the neighboring degrees.
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

    outgoing = invariant_factors(coboundary_matrix(1, degree))
    # D₀ leaves Z^0, so it has rank 0 and no invariant factors
    incoming = invariant_factors(coboundary_matrix(1, degree - 1)) if degree > 1 else ()
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

    def cocycle(self, h: Vector, g: Vector) -> TensorElement:
        """The cocycle h (x) 1 (x) g attached to a parameter pair."""
        zero = (0,) * self.rank
        return TensorElement.single(1, (tuple(h), zero, tuple(g)))

    def parameters_of(self, elem: TensorElement) -> tuple[Vector, Vector]:
        """Recover (h, g) from a cocycle; rejects non-cocycles."""
        u = as_unit(elem)
        if u.legs != 3 or u.rank != self.rank:
            raise DegreeMismatch("a degree-3 cocycle has three legs over the given rank")
        if u.scalar != 1 or any(u.monomial[1]):
            raise ValueError("element is not in the kernel of the degree-3 boundary")
        return u.monomial[0], u.monomial[2]


def cocycle_classify(rank: int) -> ThreeCocycleClassification:
    """Derive the degree-3 cocycle lattice from the coboundary matrix.

    The kernel basis comes out of Smith normal form; the shape claims
    (middle slot zero, outer slots jointly unimodular) are then checked
    rather than assumed, so a wrong coboundary matrix cannot silently
    produce the familiar answer.
    """
    if rank < 1:
        raise RankMismatch(f"rank must be >= 1, got {rank}")
    basis = kernel_basis(coboundary_matrix(rank, 3))
    if len(basis) != 2 * rank:
        raise ArithmeticError(
            f"kernel of the degree-3 boundary has rank {len(basis)}, expected {2 * rank}"
        )
    if any(v[rank + k] for v in basis for k in range(rank)):
        raise ArithmeticError("degree-3 kernel has a nonvanishing middle slot")
    outer = [
        [v[k] for v in basis] for k in list(range(rank)) + list(range(2 * rank, 3 * rank))
    ]
    factors = invariant_factors(outer)
    if len(factors) != 2 * rank or any(f != 1 for f in factors):
        raise ArithmeticError("outer slots of the degree-3 kernel are not free")
    return ThreeCocycleClassification(rank, tuple(tuple(v) for v in basis))
