"""Quasi-bialgebra presentations on Laurent polynomial group algebras.

A presentation packages the coalgebra data (coproduct and counit, given
on generators) together with the associativity constraint phi and the
unit constraints lambda and rho, all living in tensor powers of k[Z^r].
The checks here are exact: a presentation either satisfies an axiom on
the nose or the report carries both sides as a witness.

Generator-level checking suffices because every map involved is an
algebra map and the generators generate: an identity between algebra
maps that holds on each g_i holds everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as _field
from fractions import Fraction
from typing import Mapping

from .laurent import (
    AlgebraMapSpec,
    CounitSpec,
    LegMismatch,
    RankMismatch,
    TensorElement,
    UnitElement,
    _ONE,
    _raw_unit,
    _zero_vector,
    apply_algebra_map_on_leg,
    apply_counit_on_leg,
    as_unit,
    format_coefficient,
    insert_unit_leg,
    read_instance,
    read_integer,
    read_key,
    read_nonzero,
    read_shape,
    tensor_concat,
)
from .reports import AxiomCheck, VerificationReport, compare


class NotForcedForm(ValueError):
    """Coproduct is not of the shape that group-likeness forces."""


class NoMonomialTwist(ValueError):
    """No invertible monomial twist carries the input to the ordinary form."""


def _basis_vector(rank: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(rank))


@dataclass(frozen=True)
class QuasiBialgebraPresentation:
    """The full datum (coproduct, counit, phi, lambda, rho) over k[Z^r].

    The constraints may be given as one-term ``TensorElement``s; they are
    stored as the ``UnitElement``s they are certified to be.
    """

    rank: int
    coproduct: AlgebraMapSpec
    counit: CounitSpec
    phi: UnitElement
    lam: UnitElement
    rho: UnitElement

    def __post_init__(self):
        r = self.rank
        if self.coproduct.rank != r or self.counit.rank != r:
            raise RankMismatch("coproduct/counit rank does not match the presentation")
        if self.coproduct.target_legs != 2:
            raise LegMismatch("a coproduct must have two output legs")
        for attr, field, legs in (("phi", "phi", 3), ("lam", "lambda", 1), ("rho", "rho", 1)):
            object.__setattr__(self, attr, as_unit(getattr(self, attr), r, legs, field))

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "coproduct": [im.to_dict() for im in self.coproduct.images],
            "counit": [format_coefficient(v) for v in self.counit.values],
            "phi": self.phi.to_dict(),
            "lambda": self.lam.to_dict(),
            "rho": self.rho.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "QuasiBialgebraPresentation":
        data = read_shape(data, "object", "presentation")
        rank = read_integer(read_key(data, "rank"), "rank")
        coproduct = read_shape(read_key(data, "coproduct"), "array", "coproduct")
        images = tuple(TensorElement.from_dict(d, f"coproduct[{i}].") for i, d in enumerate(coproduct))
        counit = CounitSpec(rank, read_key(data, "counit"))
        return cls(
            rank,
            AlgebraMapSpec(rank, 2, images, "coproduct"),
            counit,
            *(TensorElement.from_dict(read_key(data, k), f"{k}.") for k in ("phi", "lambda", "rho")),
        )


def _raw_presentation(
    rank: int,
    coproduct: AlgebraMapSpec,
    counit: CounitSpec,
    phi: UnitElement,
    lam: UnitElement,
    rho: UnitElement,
) -> QuasiBialgebraPresentation:
    """Internal constructor that skips validation, as ``laurent._raw_unit``
    does, for a presentation computed from valid ones: the coalgebra part
    of a presentation of ``rank``, and constraints that are units of that
    rank with 3, 1 and 1 legs.  It equals, and hashes as, the same
    presentation built through ``QuasiBialgebraPresentation(...)``."""
    p = object.__new__(QuasiBialgebraPresentation)
    vars(p).update(rank=rank, coproduct=coproduct, counit=counit, phi=phi, lam=lam, rho=rho)
    return p


@dataclass(frozen=True)
class CanonicalTriple:
    """Parameters (q, h, g) of a canonical quasi-bialgebra structure."""

    q: Fraction
    h: tuple[int, ...]
    g: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", read_nonzero(self.q, "q"))
        for name in ("h", "g"):
            exps = read_shape(getattr(self, name), "array", name)
            object.__setattr__(self, name, tuple([read_integer(c, name) for c in exps]))
        if len(self.h) != len(self.g) or not self.h:
            raise RankMismatch("h and g must be exponent vectors of the same rank >= 1")

    @property
    def rank(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class BialgebraIso:
    """An algebra automorphism of k[Z^r] scaling each generator.

    Its ``AlgebraMapSpec`` is built once, with the iso, and kept as
    ``_map``; ``apply`` reads no map.
    """

    rank: int
    generator_images: tuple[UnitElement, ...]
    _map: AlgebraMapSpec = _field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_map", AlgebraMapSpec(self.rank, 1, self.generator_images))

    def as_map(self) -> AlgebraMapSpec:
        return self._map

    def apply(self, x: UnitElement) -> UnitElement:
        """Apply the automorphism to every leg of x."""
        amap = self._map
        for leg in range(1, x.legs + 1):
            x = apply_algebra_map_on_leg(amap, x, leg)
        return x


@functools.lru_cache(maxsize=16, typed=True)
def ordinary(rank: int) -> QuasiBialgebraPresentation:
    """The standard bialgebra: diagonal coproduct, trivial constraints.
    Built once per rank and shared, since it is frozen; ``typed`` keeps a
    bool rank out of rank 1's entry, so it is still refused."""
    images = tuple(
        UnitElement(rank, Fraction(1), (_basis_vector(rank, i), _basis_vector(rank, i)))
        for i in range(rank)
    )
    return QuasiBialgebraPresentation(
        rank,
        AlgebraMapSpec(rank, 2, images),
        CounitSpec(rank, (Fraction(1),) * rank),
        UnitElement.identity(rank, 3),
        UnitElement.identity(rank, 1),
        UnitElement.identity(rank, 1),
    )


def canonical(triple: CanonicalTriple) -> QuasiBialgebraPresentation:
    """The structure with phi = h (x) 1 (x) g, lambda = q g^-1, rho = q h.

    The coalgebra part stays ordinary; only the constraints move.  These
    are exactly the presentations that exhaust, up to twisting, all
    quasi-bialgebra structures available on k[Z^r].  The triple is
    already read, so its constraints are built without the readers.
    """
    r = read_instance(triple, CanonicalTriple, "triple").rank
    q, h, g = triple.q, triple.h, triple.g
    base = ordinary(r)
    return _raw_presentation(
        r,
        base.coproduct,
        base.counit,
        _raw_unit(r, _ONE, (h, _zero_vector(r), g)),
        _raw_unit(r, q, (tuple([-c for c in g]),)),
        _raw_unit(r, q, (h,)),
    )


def is_ordinary_coalgebra(p: QuasiBialgebraPresentation) -> bool:
    """True when the coproduct is diagonal and the counit is constant 1; a
    ``p`` that is not a presentation raises TypeError naming it."""
    base = ordinary(read_instance(p, QuasiBialgebraPresentation, "p").rank)
    return p.coproduct == base.coproduct and p.counit == base.counit


def verify(p: QuasiBialgebraPresentation) -> VerificationReport:
    """Check every quasi-bialgebra axiom exactly; witnesses on failure.

    k[Z^r] is commutative, so each conjugation by a unit in the textbook
    axioms is the identity and the conjugated side is compared as it is.
    The per-generator rows (quasi-coassociativity and both counit laws)
    read only the coalgebra part, which every canonical presentation of a
    rank shares with ``ordinary``, so they are derived once per coalgebra:
    the last ``_COALGEBRAS_KEPT`` are memoised by equality.  A ``p`` that
    is not a presentation raises TypeError naming it.
    """
    p = read_instance(p, QuasiBialgebraPresentation, "p")
    delta = p.coproduct
    phi, lam, rho = p.phi, p.lam, p.rho

    # (i) the 3-cocycle identity for phi in four legs
    lhs = apply_algebra_map_on_leg(delta, phi, 3) * apply_algebra_map_on_leg(delta, phi, 1)
    rhs = (
        insert_unit_leg(phi, 1)
        * apply_algebra_map_on_leg(delta, phi, 2)
        * insert_unit_leg(phi, 4)
    )
    cocycle = compare("cocycle", lhs, rhs)

    # (ii) counit applied to the middle leg of phi matches the unit constraints
    counital = compare(
        "counital",
        apply_counit_on_leg(p.counit, phi, 2),
        tensor_concat(rho, lam.inverse()),
    )

    # (v) the constraints are invertible; construction already enforces
    # this, so the entry documents the fact rather than re-deriving it.
    return VerificationReport(
        (cocycle, counital, *_coalgebra_checks(delta, p.counit), AxiomCheck("invertibility", True))
    )


# each entry is 3r small checks; canonical presentations of one rank all
# share one coalgebra, so a handful of ranks fill it
_COALGEBRAS_KEPT = 16


@functools.lru_cache(maxsize=_COALGEBRAS_KEPT)
def _coalgebra_checks(delta: AlgebraMapSpec, eps: CounitSpec) -> tuple[AxiomCheck, ...]:
    """``verify``'s rows (iii) and (iv) for each generator, memoised."""
    r = delta.rank
    checks: list[AxiomCheck] = []
    for i in range(r):
        gen = _raw_unit(r, _ONE, (_basis_vector(r, i),))
        d = delta.images[i]

        # (iii) coassociativity up to conjugation by phi, which is the
        # identity in the commutative tensor power
        lhs = apply_algebra_map_on_leg(delta, d, 2)
        rhs = apply_algebra_map_on_leg(delta, d, 1)
        checks.append(compare(f"quasi_coassociativity[g{i + 1}]", lhs, rhs))

        # (iv) counit laws, one per side; conjugating g_i by lambda or rho
        # leaves it unchanged
        checks.append(compare(f"counit_left[g{i + 1}]", apply_counit_on_leg(eps, d, 1), gen))
        checks.append(compare(f"counit_right[g{i + 1}]", apply_counit_on_leg(eps, d, 2), gen))
    return tuple(checks)


def twist(
    p: QuasiBialgebraPresentation, alpha: TensorElement | UnitElement
) -> QuasiBialgebraPresentation:
    """Twist the presentation by an invertible alpha in two legs.

    The coproduct would be conjugated by alpha, which is the identity in
    the commutative k[Z^r]^(x2), so it is kept as it is.  The constraint
    phi picks up the usual boundary-like correction, and lambda, rho
    absorb the counit of the inverse.  Twisting by alpha and then by its
    inverse is the identity.  The result is built from the valid p and
    alpha without the readers; a ``p`` that is not a presentation raises
    TypeError naming it.
    """
    p = read_instance(p, QuasiBialgebraPresentation, "p")
    alpha = as_unit(alpha, p.rank, 2, "alpha")
    alpha_inv = alpha.inverse()
    delta = p.coproduct
    new_phi = (
        insert_unit_leg(alpha, 1)
        * apply_algebra_map_on_leg(delta, alpha, 2)
        * p.phi
        * apply_algebra_map_on_leg(delta, alpha_inv, 1)
        * insert_unit_leg(alpha_inv, 3)
    )
    new_lam = p.lam * apply_counit_on_leg(p.counit, alpha_inv, 1)
    new_rho = p.rho * apply_counit_on_leg(p.counit, alpha_inv, 2)
    return _raw_presentation(p.rank, delta, p.counit, new_phi, new_lam, new_rho)


def normalize(p: QuasiBialgebraPresentation) -> tuple[BialgebraIso, QuasiBialgebraPresentation]:
    """Rescale generators so the coalgebra part becomes the ordinary one.

    Group-likeness forces the coproduct of each generator to be
    (1 / counit(g_i)) * g_i (x) g_i; anything else raises NotForcedForm.
    The returned automorphism sends g_i to counit(g_i) * g_i and the
    returned presentation carries the constraints across it, built
    without the readers; a ``p`` that is not a presentation raises
    TypeError naming it.
    """
    r = read_instance(p, QuasiBialgebraPresentation, "p").rank
    images = []
    for i in range(r):
        e = _basis_vector(r, i)
        v = p.counit.values[i]
        im = p.coproduct.images[i]
        if im.scalar != 1 / v or im.monomial != (e, e):
            raise NotForcedForm(
                f"coproduct of g{i + 1} is not (1/counit) * g{i + 1} (x) g{i + 1}"
            )
        images.append(_raw_unit(r, v, (e,)))
    iso = BialgebraIso(r, tuple(images))
    base = ordinary(r)
    result = _raw_presentation(
        r, base.coproduct, base.counit, iso.apply(p.phi), iso.apply(p.lam), iso.apply(p.rho)
    )
    return iso, result


def find_trivializing_twist(p: QuasiBialgebraPresentation) -> UnitElement:
    """Solve for the monomial twist that turns p into the ordinary bialgebra.

    Writing the candidate as t * g^x (x) g^y, the twisted constraints are
    again monomials whose scalar and exponents are affine in (t, x, y),
    so the constraint equations read off a unique candidate: x from the
    first leg of phi, y from minus its third leg, t from the scalar of
    lambda.  Because every invertible element of the two-fold tensor
    power is such a monomial, failure of the candidate proves there is
    no twist at all.  The twist is returned as the unit it is.

    A ``p`` that is not a presentation raises TypeError naming it.  The
    twist is derived once per presentation: the last ``_TWISTS_KEPT``
    are memoised by equality, so ``solve_R(p)`` and ``classify`` reuse
    the twist their caller just found.  A refusal is not memoised; it is
    raised again on every call.
    """
    return _trivializing_twist(read_instance(p, QuasiBialgebraPresentation, "p"))


# each entry is one small unit, and is asked for again soon after it is
# made: solve_R and classify follow the call that found it
_TWISTS_KEPT = 16


@functools.lru_cache(maxsize=_TWISTS_KEPT)
def _trivializing_twist(p: QuasiBialgebraPresentation) -> UnitElement:
    """``find_trivializing_twist`` of a presentation, memoised."""
    if not is_ordinary_coalgebra(p):
        raise NotForcedForm("coalgebra part must be ordinary; run normalize first")
    first, _middle, third = p.phi.monomial
    candidate = _raw_unit(p.rank, p.lam.scalar, (first, tuple([-c for c in third])))
    if twist(p, candidate) != ordinary(p.rank):
        raise NoMonomialTwist(
            "no invertible monomial twist carries this presentation to the ordinary one"
        )
    return candidate
