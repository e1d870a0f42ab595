import dataclasses
import functools
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg import quasibialgebra as qb
from qbialg.laurent import (
    AlgebraMapSpec,
    CounitSpec,
    TensorElement,
    UnitElement,
    apply_algebra_map_on_leg,
    apply_counit_on_leg,
    format_coefficient,
    insert_unit_leg,
    invert_unit,
    permute_legs,
    tensor_concat,
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
from qbialg.rmatrix import solve_R, verify_R


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


# -- the textbook axioms, conjugations included, in the TensorElement ring -----
# verify, twist and verify_R leave out every conjugation by a unit, since
# k[Z^r]^(x m) is commutative.  This reference multiplies each textbook side
# out term by term in the general ring instead, conjugations and all.


def _product(*factors: UnitElement) -> TensorElement:
    return functools.reduce(operator.mul, (u.to_tensor() for u in factors))


def _conjugate(u: UnitElement, x: UnitElement) -> TensorElement:
    """u * x * u^-1, multiplied out in the tensor ring."""
    return _product(u, x, u.inverse())


def _entry(axiom: str, lhs: TensorElement, rhs: TensorElement) -> dict:
    ok = lhs == rhs
    return {
        "axiom": axiom,
        "pass": ok,
        "lhs": None if ok else lhs.to_dict(),
        "rhs": None if ok else rhs.to_dict(),
    }


def textbook_verify(p: QuasiBialgebraPresentation) -> list[dict]:
    on = functools.partial(apply_algebra_map_on_leg, p.coproduct)
    phi, lam, rho = p.phi, p.lam, p.rho
    entries = [
        _entry(
            "cocycle",
            _product(on(phi, 3), on(phi, 1)),
            _product(insert_unit_leg(phi, 1), on(phi, 2), insert_unit_leg(phi, 4)),
        ),
        _entry(
            "counital",
            apply_counit_on_leg(p.counit, phi, 2).to_tensor(),
            tensor_concat(rho, lam.inverse()).to_tensor(),
        ),
    ]
    for i, d in enumerate(p.coproduct.images):
        gen = UnitElement(p.rank, 1, (tuple(int(j == i) for j in range(p.rank)),))
        entries += [
            _entry(
                f"quasi_coassociativity[g{i + 1}]", on(d, 2).to_tensor(), _conjugate(phi, on(d, 1))
            ),
            _entry(
                f"counit_left[g{i + 1}]",
                apply_counit_on_leg(p.counit, d, 1).to_tensor(),
                _conjugate(lam.inverse(), gen),
            ),
            _entry(
                f"counit_right[g{i + 1}]",
                apply_counit_on_leg(p.counit, d, 2).to_tensor(),
                _conjugate(rho.inverse(), gen),
            ),
        ]
    return entries + [{"axiom": "invertibility", "pass": True, "lhs": None, "rhs": None}]


def textbook_verify_R(p: QuasiBialgebraPresentation, r_elem: UnitElement) -> list[dict]:
    on = functools.partial(apply_algebra_map_on_leg, p.coproduct)
    phi = p.phi
    entries = [
        _entry(
            "coproduct_first_leg",
            on(r_elem, 1).to_tensor(),
            _product(
                permute_legs(phi, (2, 3, 1)),
                insert_unit_leg(r_elem, 2),
                permute_legs(phi, (1, 3, 2)).inverse(),
                insert_unit_leg(r_elem, 1),
                phi,
            ),
        ),
        _entry(
            "coproduct_second_leg",
            on(r_elem, 2).to_tensor(),
            _product(
                permute_legs(phi, (3, 1, 2)).inverse(),
                insert_unit_leg(r_elem, 2),
                permute_legs(phi, (2, 1, 3)),
                insert_unit_leg(r_elem, 3),
                phi.inverse(),
            ),
        ),
    ]
    for i, d in enumerate(p.coproduct.images):
        flipped = permute_legs(d, (2, 1)).to_tensor()
        entries.append(_entry(f"opposite_coproduct[g{i + 1}]", flipped, _conjugate(r_elem, d)))
    flipped = permute_legs(r_elem, (2, 1)).to_tensor()
    return entries + [_entry("triangularity", flipped, r_elem.inverse().to_tensor())]


@st.composite
def presentations_with_units(draw):
    """A canonical presentation of rank <= 3, corrupted in at most one place,
    with a unit twist and an R-matrix candidate over it.

    The candidate is the R-matrix of the uncorrupted presentation or an
    arbitrary two-leg unit, so both passing and failing checks are drawn.
    A corruption always changes the value it touches.
    """
    rank = draw(st.integers(1, 3))
    vector = st.tuples(*[exponents] * rank)
    shift = vector.filter(any)
    new_scalar = nonzero_scalars.filter(lambda c: c != 1)
    p = canonical(CanonicalTriple(draw(nonzero_scalars), draw(vector), draw(vector)))
    (r_matrix,) = solve_R(p)
    i = draw(st.integers(0, rank - 1))
    images = list(p.coproduct.images)
    values = list(p.counit.values)
    corruption = draw(
        st.sampled_from(
            ["none", "phi exponent", "counit value", "coproduct scalar", "coproduct leg"]
        )
    )
    if corruption == "phi exponent":
        legs = [draw(shift), draw(vector), draw(vector)]
        p = dataclasses.replace(p, phi=p.phi * UnitElement(rank, 1, legs))
    elif corruption == "counit value":
        values[i] = draw(new_scalar)
    elif corruption == "coproduct scalar":
        images[i] = images[i] * UnitElement(rank, draw(new_scalar), ((0,) * rank,) * 2)
    elif corruption == "coproduct leg":
        images[i] = images[i] * UnitElement(rank, 1, (draw(shift), (0,) * rank))
    p = dataclasses.replace(
        p, coproduct=AlgebraMapSpec(rank, 2, tuple(images)), counit=CounitSpec(rank, tuple(values))
    )
    alpha, candidate = (
        UnitElement(rank, draw(nonzero_scalars), (draw(vector), draw(vector))) for _ in range(2)
    )
    return p, alpha, r_matrix if draw(st.booleans()) else candidate


@settings(max_examples=80, deadline=None)
@given(presentations_with_units())
def test_checks_match_the_textbook_conjugations(case):
    p, alpha, r_elem = case
    twisted = twist(p, alpha)
    for q in (p, twisted):
        assert verify(q).to_list() == textbook_verify(q)
        assert verify_R(q, r_elem).to_list() == textbook_verify_R(q, r_elem)
    conjugated = tuple(_conjugate(alpha, d) for d in p.coproduct.images)
    assert twisted.coproduct == AlgebraMapSpec(p.rank, 2, conjugated)


# -- values computed without the readers, and the memoised twist ---------------


def read_back(p):
    """``p`` built again through the readers: its presentation and its units."""
    units = (UnitElement(u.rank, u.scalar, u.monomial) for u in (p.phi, p.lam, p.rho))
    return QuasiBialgebraPresentation(p.rank, p.coproduct, p.counit, *units)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_presentations_built_without_the_readers_are_the_read_ones(rank, data):
    """canonical, twist and normalize build their results from values already
    read, without the readers; each is the presentation the readers build,
    field for field and type for type, and the twist memo keeps one entry
    for both."""
    vector = st.tuples(*[exponents] * rank)
    q, h, g = data.draw(nonzero_scalars), data.draw(vector), data.draw(vector)
    alpha = UnitElement(rank, data.draw(nonzero_scalars), (data.draw(vector), data.draw(vector)))
    eps = [data.draw(nonzero_scalars) for _ in range(rank)]
    p = canonical(CanonicalTriple(q, h, g))
    base = ordinary(rank)
    constraints = (
        UnitElement(rank, 1, (h, (0,) * rank, g)),
        UnitElement(rank, q, (tuple(-c for c in g),)),
        UnitElement(rank, q, (h,)),
    )
    twisted = twist(p, alpha)
    _, back = normalize(_scaled_copy(p, eps))
    pairs = (
        (p, QuasiBialgebraPresentation(rank, base.coproduct, base.counit, *constraints)),
        (twisted, read_back(twisted)),
        (back, read_back(back)),
    )
    for raw, read in pairs:
        assert raw == read and hash(raw) == hash(read)
        assert vars(raw) == vars(read) and repr(raw) == repr(read)
    alpha = find_trivializing_twist(p)
    hits = qb._trivializing_twist.cache_info().hits
    assert find_trivializing_twist(pairs[0][1]) is alpha
    assert find_trivializing_twist(back) is alpha
    assert qb._trivializing_twist.cache_info().hits == hits + 2


def test_the_memoised_twist_is_the_derived_one():
    """The memo returns what the uncached derivation returns, and refuses
    what it refuses on every call: a refusal is never memoised."""
    derive = qb._trivializing_twist.__wrapped__
    rng = random.Random(27)
    for _ in range(40):
        p = canonical(random_triple(rng))
        alpha = find_trivializing_twist(p)
        assert alpha == derive(p) and twist(p, alpha) == ordinary(p.rank)
        assert find_trivializing_twist(through_json(p)) is alpha
    base = ordinary(1)
    non_cocycle = dataclasses.replace(base, phi=UnitElement(1, 1, ((1,), (1,), (1,))))
    scaled = dataclasses.replace(
        base,
        coproduct=AlgebraMapSpec(1, 2, (UnitElement(1, Fraction(1, 2), ((1,), (1,))),)),
        counit=CounitSpec(1, (Fraction(2),)),
    )
    for p, error in ((non_cocycle, NoMonomialTwist), (scaled, NotForcedForm)):
        for call in (find_trivializing_twist, find_trivializing_twist, derive, solve_R):
            with pytest.raises(error):
                call(p)
    for p in (None, base.to_dict(), base.phi):
        with pytest.raises(TypeError, match=rf"^p: expected a QuasiBialgebraPresentation, got {type(p).__name__}$"):
            find_trivializing_twist(p)
