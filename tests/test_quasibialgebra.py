import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg.laurent import (
    AlgebraMapSpec,
    CounitSpec,
    TensorElement,
    UnitElement,
    format_coefficient,
    invert_unit,
)
from qbialg.quasibialgebra import (
    BialgebraIso,
    CanonicalTriple,
    NoMonomialTwist,
    NotForcedForm,
    QuasiBialgebraPresentation,
    canonical,
    find_trivializing_twist,
    is_ordinary_coalgebra,
    normalize,
    ordinary,
    twist,
    verify,
)


def random_triple(rng, max_rank=3):
    rank = rng.randint(1, max_rank)
    q = Fraction(rng.choice([1, -1, 2, -2, 3, 5]), rng.choice([1, 2, 3]))
    h = tuple(rng.randint(-3, 3) for _ in range(rank))
    g = tuple(rng.randint(-3, 3) for _ in range(rank))
    return CanonicalTriple(q, h, g)


def random_unit_twist(rng, rank):
    scalar = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    key = (
        tuple(rng.randint(-2, 2) for _ in range(rank)),
        tuple(rng.randint(-2, 2) for _ in range(rank)),
    )
    return TensorElement.single(scalar, key)


def test_ordinary_passes_all_axioms():
    for rank in (1, 2, 3):
        report = verify(ordinary(rank))
        assert report.ok, report.failed()


def test_canonical_passes_all_axioms():
    rng = random.Random(20)
    for _ in range(25):
        report = verify(canonical(random_triple(rng)))
        assert report.ok, report.failed()


def test_canonical_structure_golden():
    p = canonical(CanonicalTriple(Fraction(2), (1,), (1,)))
    assert p.phi == UnitElement(1, 1, [(1,), (0,), (1,)])
    assert p.lam == UnitElement(1, 2, [(-1,)])
    assert p.rho == UnitElement(1, 2, [(1,)])
    assert is_ordinary_coalgebra(p)


def test_triple_requires_nonzero_scalar():
    with pytest.raises(ValueError):
        CanonicalTriple(Fraction(0), (1,), (1,))
    with pytest.raises(ValueError):
        CanonicalTriple(Fraction(1), (1,), (1, 2))  # h and g rank disagree


def test_triple_takes_only_exact_scalars():
    assert CanonicalTriple("-3/2", (1,), (1,)).q == Fraction(-3, 2)
    assert CanonicalTriple(2, (1,), (1,)).q == Fraction(2)
    with pytest.raises(TypeError):
        CanonicalTriple(0.1, (1,), (1,))
    with pytest.raises(ValueError):
        CanonicalTriple("1e5", (1,), (1,))


def test_verify_detects_corruption():
    p = canonical(CanonicalTriple(Fraction(2), (1,), (1,)))
    bad = QuasiBialgebraPresentation(
        p.rank,
        p.coproduct,
        p.counit,
        p.phi * UnitElement(1, 1, [(1,), (0,), (0,)]),
        p.lam,
        p.rho,
    )
    report = verify(bad)
    assert not report.ok
    failed = report.failed()
    assert failed and all(c.lhs is not None and c.rhs is not None for c in failed)


def test_twist_preserves_axioms():
    rng = random.Random(21)
    for _ in range(20):
        p = canonical(random_triple(rng))
        alpha = random_unit_twist(rng, p.rank)
        assert verify(twist(p, alpha)).ok


def test_twist_round_trip():
    rng = random.Random(22)
    for _ in range(20):
        p = canonical(random_triple(rng))
        alpha = random_unit_twist(rng, p.rank)
        assert twist(twist(p, alpha), invert_unit(alpha)) == p


def test_twist_composition_is_a_product():
    rng = random.Random(23)
    for _ in range(20):
        p = canonical(random_triple(rng))
        alpha = random_unit_twist(rng, p.rank)
        beta = random_unit_twist(rng, p.rank)
        assert twist(twist(p, alpha), beta) == twist(p, alpha * beta)


def test_twist_requires_unit():
    p = ordinary(1)
    not_unit = TensorElement.one(1, 2) + TensorElement.single(1, [(1,), (0,)])
    with pytest.raises(ValueError):
        twist(p, not_unit)


def test_trivializing_twist_golden():
    p = canonical(CanonicalTriple(Fraction(2), (1,), (1,)))
    alpha = find_trivializing_twist(p)
    assert alpha == UnitElement(1, 2, ((1,), (-1,)))
    assert twist(p, alpha) == ordinary(1)


def test_trivializing_twist_random():
    rng = random.Random(24)
    for _ in range(40):
        t = random_triple(rng)
        p = canonical(t)
        alpha = find_trivializing_twist(p)
        expected = UnitElement(t.rank, t.q, (t.h, tuple(-x for x in t.g)))
        assert alpha == expected
        assert twist(p, alpha) == ordinary(t.rank)
        # the inverse twist carries the ordinary structure back
        assert twist(ordinary(t.rank), invert_unit(alpha)) == p


def test_trivializing_twist_rejects_non_cocycle():
    # valid shape but fails the axioms, so no twist can flatten it
    base = ordinary(1)
    p = QuasiBialgebraPresentation(
        1,
        base.coproduct,
        base.counit,
        TensorElement.single(1, [(1,), (1,), (1,)]),
        base.lam,
        base.rho,
    )
    assert not verify(p).ok
    with pytest.raises(NoMonomialTwist):
        find_trivializing_twist(p)


def test_trivializing_twist_needs_ordinary_coalgebra():
    base = ordinary(1)
    scaled = QuasiBialgebraPresentation(
        1,
        AlgebraMapSpec(1, 2, (TensorElement.single(Fraction(1, 2), [(1,), (1,)]),)),
        CounitSpec(1, (Fraction(2),)),
        base.phi,
        base.lam,
        base.rho,
    )
    with pytest.raises(NotForcedForm):
        find_trivializing_twist(scaled)


def _scaled_copy(p, eps):
    """Push a presentation through the generator rescaling g_i -> (1/eps_i) g_i."""
    inverse_iso = BialgebraIso(
        p.rank,
        tuple(
            UnitElement(p.rank, 1 / e, (tuple(1 if j == i else 0 for j in range(p.rank)),))
            for i, e in enumerate(eps)
        ),
    )
    coproduct = AlgebraMapSpec(
        p.rank,
        2,
        tuple(
            TensorElement.single(1 / e, [tuple(1 if j == i else 0 for j in range(p.rank))] * 2)
            for i, e in enumerate(eps)
        ),
    )
    return QuasiBialgebraPresentation(
        p.rank,
        coproduct,
        CounitSpec(p.rank, tuple(eps)),
        inverse_iso.apply(p.phi),
        inverse_iso.apply(p.lam),
        inverse_iso.apply(p.rho),
    )


def test_normalize_round_trip():
    rng = random.Random(25)
    for _ in range(20):
        t = random_triple(rng)
        p = canonical(t)
        eps = [Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])) for _ in range(t.rank)]
        scaled = _scaled_copy(p, eps)
        assert verify(scaled).ok
        iso, back = normalize(scaled)
        assert back == p
        assert is_ordinary_coalgebra(back)
        assert [u.scalar for u in iso.generator_images] == eps


def test_normalize_rejects_non_forced_coproduct():
    base = ordinary(1)
    crooked = QuasiBialgebraPresentation(
        1,
        AlgebraMapSpec(1, 2, (TensorElement.single(1, [(2,), (1,)]),)),
        base.counit,
        base.phi,
        base.lam,
        base.rho,
    )
    with pytest.raises(NotForcedForm):
        normalize(crooked)


def test_normalize_checks_the_forced_scalar():
    # diagonal exponents, but the scalar is not 1/counit
    base = ordinary(1)
    unscaled = QuasiBialgebraPresentation(
        1, base.coproduct, CounitSpec(1, (Fraction(2),)), base.phi, base.lam, base.rho
    )
    with pytest.raises(NotForcedForm):
        normalize(unscaled)


def through_json(p):
    """The presentation read back from its JSON text."""
    return QuasiBialgebraPresentation.from_dict(json.loads(json.dumps(p.to_dict())))


def test_presentation_serialization():
    rng = random.Random(26)
    for _ in range(10):
        p = canonical(random_triple(rng))
        assert through_json(p) == p
    d = ordinary(2).to_dict()
    assert set(d) == {"rank", "coproduct", "counit", "phi", "lambda", "rho"}


def test_verification_report_shape():
    report = verify(ordinary(2))
    data = report.to_list()
    names = {c["axiom"] for c in data}
    assert "cocycle" in names and "counital" in names
    assert any(n.startswith("quasi_coassociativity") for n in names)
    assert all(c["pass"] and c["lhs"] is None for c in data)


# -- the same properties for every canonical triple and unit twist ------------

exponents = st.integers(-3, 3)
nonzero_scalars = st.builds(
    Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)
)


@st.composite
def presentations_and_twists(draw):
    """A canonical presentation of rank <= 4 and two unit twists over it."""
    rank = draw(st.integers(1, 4))
    vector = st.tuples(*[exponents] * rank)
    p = canonical(CanonicalTriple(draw(nonzero_scalars), draw(vector), draw(vector)))
    alpha, beta = (
        UnitElement(rank, draw(nonzero_scalars), (draw(vector), draw(vector))) for _ in range(2)
    )
    return p, alpha, beta


@settings(max_examples=60, deadline=None)
@given(presentations_and_twists())
def test_twist_properties(case):
    p, alpha, beta = case
    twisted = twist(p, alpha)
    assert verify(twisted).ok
    assert twist(twisted, beta) == twist(p, alpha * beta)
    assert twist(twisted, alpha.inverse()) == p
    assert through_json(p) == p
    assert through_json(twisted) == twisted


def test_presentation_writes_a_long_counit_value_as_units_do():
    # 5,001 digits: more than str() writes under the default limit of 4,300
    long = 10**5000
    for value, text in ((long, format_coefficient(long)), (Fraction(-1, 2), "-1/2")):
        p = dataclasses.replace(ordinary(1), counit=CounitSpec(1, (value,)))
        assert p.to_dict()["counit"] == [text]
