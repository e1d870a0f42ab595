"""R-matrices: quasi-triangular and triangular structure over k[Z^r].

An R-matrix candidate is an invertible element of the two-fold tensor
power.  The two coproduct identities it must satisfy mix the
associativity constraint phi through all six leg orders, so the
implementation leans on exact leg permutation and identity-leg
insertion; no floating point, no normalization by convention.
"""

from __future__ import annotations

from .laurent import (
    TensorElement,
    UnitElement,
    _permuted,
    apply_algebra_map_on_leg,
    as_unit,
    insert_unit_leg,
    read_instance,
)
from .quasibialgebra import QuasiBialgebraPresentation, find_trivializing_twist
from .reports import AxiomCheck, VerificationReport, compare


def check_rmatrix_shape(r_elem: TensorElement | UnitElement, rank: int) -> UnitElement:
    """An R-matrix lives in two legs over the right rank and is a unit;
    returns it as that unit."""
    return as_unit(r_elem, rank, 2, "R")


def verify_R(
    p: QuasiBialgebraPresentation, r_elem: TensorElement | UnitElement
) -> VerificationReport:
    """Check the quasi-triangular axioms plus triangularity, exactly.

    The two coproduct identities are checked in the three-leg power with
    every phi factor permuted into the leg order the identity calls for;
    the opposite-coproduct identity is checked on each generator.
    k[Z^r] is commutative, so R * Delta(g) * R^-1 is Delta(g) itself and
    that identity compares the flipped coproduct with the coproduct.
    Every leg order here is a constant permutation of units the
    presentation and ``check_rmatrix_shape`` certified, so none is read.
    A ``p`` that is not a presentation raises TypeError naming it.
    """
    p = read_instance(p, QuasiBialgebraPresentation, "p")
    r_elem = check_rmatrix_shape(r_elem, p.rank)
    delta = p.coproduct
    phi = p.phi
    checks: list[AxiomCheck] = []

    # (1) coproduct on the first leg of R
    lhs = apply_algebra_map_on_leg(delta, r_elem, 1)
    rhs = (
        _permuted(phi, (2, 3, 1))
        * insert_unit_leg(r_elem, 2)
        * _permuted(phi, (1, 3, 2)).inverse()
        * insert_unit_leg(r_elem, 1)
        * phi
    )
    checks.append(compare("coproduct_first_leg", lhs, rhs))

    # (2) coproduct on the second leg of R
    lhs = apply_algebra_map_on_leg(delta, r_elem, 2)
    rhs = (
        _permuted(phi, (3, 1, 2)).inverse()
        * insert_unit_leg(r_elem, 2)
        * _permuted(phi, (2, 1, 3))
        * insert_unit_leg(r_elem, 3)
        * phi.inverse()
    )
    checks.append(compare("coproduct_second_leg", lhs, rhs))

    # (3) R conjugates the coproduct to its opposite, generator by generator;
    # the conjugation is the identity, so the coproduct must be cocommutative
    for i, d in enumerate(delta.images):
        checks.append(compare(f"opposite_coproduct[g{i + 1}]", _permuted(d, (2, 1)), d))

    # (4) triangularity: the flip of R is its inverse
    checks.append(compare("triangularity", _permuted(r_elem, (2, 1)), r_elem.inverse()))
    return VerificationReport(tuple(checks))


def twist_R(
    r_elem: TensorElement | UnitElement, alpha: TensorElement | UnitElement
) -> UnitElement:
    """Carry an R-matrix along a twist: flip(alpha) * R * alpha^-1, as a unit."""
    r_elem = as_unit(r_elem, None, 2, "R")
    alpha = as_unit(alpha, r_elem.rank, 2, "alpha")
    return _permuted(alpha, (2, 1)) * r_elem * alpha.inverse()


def solve_R(p: QuasiBialgebraPresentation) -> list[UnitElement]:
    """All R-matrices of a presentation in the classified family.

    Every invertible element of the two-leg power is a monomial
    t * g^x (x) g^y, so the search space is (t, x, y) and nothing else.
    For the ordinary bialgebra the two coproduct identities collapse to
    t = t^2 on scalars and x = 2x, y = 2y on exponents, whose only
    solution is the identity.  A general presentation is first carried
    to the ordinary one by its trivializing twist, and solutions are
    carried back; twisting is a bijection on R-matrices, so the list is
    complete.  ``find_trivializing_twist`` refuses a coalgebra part that
    is not ordinary, and a ``p`` that is not a presentation.  It keeps
    the twists it derived, so the twist a caller just found for p, or
    for an equal presentation, is reused, not derived again.  The
    solutions are returned as units.
    """
    back = find_trivializing_twist(p).inverse()
    return [twist_R(UnitElement.identity(p.rank, 2), back)]
