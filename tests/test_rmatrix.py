import random
from fractions import Fraction
from itertools import product

import pytest

from qbialg.laurent import LegMismatch, TensorElement, UnitElement, invert_unit
from qbialg.quasibialgebra import (
    CanonicalTriple,
    NotForcedForm,
    canonical,
    ordinary,
    twist,
)
from qbialg.rmatrix import solve_R, twist_R, verify_R


def random_triple(rng, max_rank=3):
    rank = rng.randint(1, max_rank)
    q = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    h = tuple(rng.randint(-3, 3) for _ in range(rank))
    g = tuple(rng.randint(-3, 3) for _ in range(rank))
    return CanonicalTriple(q, h, g)


def expected_r(triple):
    s = tuple(a + b for a, b in zip(triple.h, triple.g))
    return UnitElement(triple.rank, 1, (s, tuple(-x for x in s)))


def test_ordinary_has_identity_r_only():
    for rank in (1, 2, 3):
        assert solve_R(ordinary(rank)) == [UnitElement.identity(rank, 2)]


def test_identity_r_verifies_on_ordinary():
    report = verify_R(ordinary(2), TensorElement.one(2, 2))
    assert report.ok, report.failed()


def test_solve_r_canonical_golden():
    p = canonical(CanonicalTriple(Fraction(2), (1,), (1,)))
    assert solve_R(p) == [UnitElement(1, 1, ((2,), (-2,)))]


def test_solve_r_random_triples():
    rng = random.Random(30)
    for _ in range(30):
        t = random_triple(rng)
        p = canonical(t)
        sols = solve_R(p)
        assert sols == [expected_r(t)]
        report = verify_R(p, sols[0])
        assert report.ok, report.failed()


def test_solutions_are_triangular():
    rng = random.Random(31)
    for _ in range(10):
        t = random_triple(rng)
        p = canonical(t)
        report = verify_R(p, solve_R(p)[0])
        by_name = {c.axiom: c.passed for c in report.checks}
        assert by_name["triangularity"]


def test_verify_r_rejects_wrong_candidate():
    p = ordinary(1)
    report = verify_R(p, TensorElement.single(1, [(1,), (-1,)]))
    assert not report.ok
    failed_names = {c.axiom for c in report.failed()}
    assert "coproduct_first_leg" in failed_names or "coproduct_second_leg" in failed_names


def test_verify_r_shape_errors():
    with pytest.raises(LegMismatch):
        verify_R(ordinary(1), TensorElement.one(1, 3))


GRID_SCALARS = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(1, 3),
]


def grid_solutions(p, span=4):
    """Brute force over all rank-1 monomial candidates in the window."""
    hits = []
    for t, x, y in product(GRID_SCALARS, range(-span, span + 1), range(-span, span + 1)):
        cand = TensorElement.single(t, [(x,), (y,)])
        if verify_R(p, cand).ok:
            hits.append(cand)
    return sorted(hits, key=lambda e: e.terms())


def test_grid_oracle_matches_solver_rank_one():
    # exhaustive search is the independent route; the solver must agree
    cases = [
        CanonicalTriple(Fraction(1), (0,), (0,)),
        CanonicalTriple(Fraction(2), (1,), (1,)),
        CanonicalTriple(Fraction(1, 2), (2,), (-1,)),
        CanonicalTriple(Fraction(3), (-1,), (2,)),
        CanonicalTriple(Fraction(1), (2,), (2,)),
    ]
    for triple in cases:
        p = canonical(triple)
        solved = sorted((s.to_tensor() for s in solve_R(p)), key=lambda e: e.terms())
        assert grid_solutions(p) == solved
    assert grid_solutions(ordinary(1)) == [TensorElement.one(1, 2)]


def test_twist_equivariance():
    rng = random.Random(32)
    for _ in range(25):
        t = random_triple(rng)
        p = canonical(t)
        r_elem = solve_R(p)[0]
        alpha = TensorElement.single(
            Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])),
            [
                tuple(rng.randint(-2, 2) for _ in range(t.rank)),
                tuple(rng.randint(-2, 2) for _ in range(t.rank)),
            ],
        )
        report = verify_R(twist(p, alpha), twist_R(r_elem, alpha))
        assert report.ok, report.failed()


def test_twist_r_round_trip():
    rng = random.Random(33)
    for _ in range(20):
        rank = rng.randint(1, 3)
        r_elem = UnitElement(
            rank,
            Fraction(rng.choice([1, 2, -3])),
            [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(2)],
        )
        alpha = TensorElement.single(
            Fraction(rng.choice([1, -1, 2])),
            [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(2)],
        )
        assert twist_R(twist_R(r_elem, alpha), invert_unit(alpha)) == r_elem


def test_solve_r_requires_ordinary_coalgebra():
    from qbialg.laurent import AlgebraMapSpec, CounitSpec

    base = ordinary(1)
    scaled = type(base)(
        1,
        AlgebraMapSpec(1, 2, (TensorElement.single(Fraction(1, 2), [(1,), (1,)]),)),
        CounitSpec(1, (Fraction(2),)),
        base.phi,
        base.lam,
        base.rho,
    )
    with pytest.raises(NotForcedForm):
        solve_R(scaled)
