import json
import random
import re
import sys
import tempfile
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg import cli
from qbialg import matrices as mat
from qbialg.harrison import (
    AbelianGroupDescriptor,
    DegreeMismatch,
    HarrisonCochain,
    coboundary_matrix,
    cocycle_classify,
    cohomology,
)
from qbialg.homcat import HomObject, MonoidalParams, StructureMaps
from qbialg.intlinalg import smith_normal_form
from qbialg.matrices import NotInvertible
from qbialg.laurent import (
    AlgebraMapSpec,
    CounitSpec,
    LegMismatch,
    LegOutOfRange,
    NotAUnit,
    RankMismatch,
    TensorElement,
    UnitElement,
    apply_algebra_map_on_leg,
    apply_counit_on_leg,
    as_unit,
    format_coefficient,
    insert_unit_leg,
    invert_unit,
    permute_legs,
    read_rational,
    tensor_concat,
)
from qbialg.quasibialgebra import (
    CanonicalTriple,
    QuasiBialgebraPresentation,
    canonical,
    find_trivializing_twist,
    ordinary,
    twist,
    verify,
)
from qbialg.rmatrix import check_rmatrix_shape, solve_R, twist_R, verify_R

GOLDEN = Path(__file__).resolve().parent / "golden"


def random_element(rng, rank, legs, max_terms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(
            tuple(rng.randint(-span, span) for _ in range(rank)) for _ in range(legs)
        )
        terms[key] = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
    return TensorElement(rank, legs, terms)


def random_unit(rng, rank, legs, span=3):
    scalar = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    vecs = [[rng.randint(-span, span) for _ in range(rank)] for _ in range(legs)]
    return UnitElement(rank, scalar, vecs)


def test_zero_and_one():
    z = TensorElement.zero(2, 3)
    assert not z and str(z) == "0"
    e = TensorElement.one(2, 3)
    assert e.term_count() == 1
    assert dict(e.terms()) == {((0, 0),) * 3: 1}


def test_zero_coefficients_dropped():
    x = TensorElement(1, 1, {((1,),): Fraction(0), ((2,),): Fraction(3)})
    assert x.term_count() == 1


def test_generator_and_str():
    g1 = TensorElement.generator(2, 1)
    g2 = TensorElement.generator(2, 2)
    assert str(g1 * g2) == "g^(1,1)"
    assert str(TensorElement.single(2, [(1, 0)])) == "2 * g^(1,0)"
    x = TensorElement.single(1, [(2,), (-1,)])
    assert str(x) == "g^2 (x) g^-1"


def test_terms_canonical_order():
    x = TensorElement(
        1, 2, {((2,), (0,)): Fraction(1), ((0,), (1,)): Fraction(1), ((0,), (0,)): Fraction(1)}
    )
    keys = [k for k, _ in x.terms()]
    assert keys == sorted(keys)


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(60):
        rank = rng.randint(1, 3)
        legs = rng.randint(1, 3)
        x = random_element(rng, rank, legs)
        y = random_element(rng, rank, legs)
        z = random_element(rng, rank, legs)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == TensorElement.zero(rank, legs)
        assert x * TensorElement.one(rank, legs) == x


def test_scalar_multiplication():
    x = TensorElement.single(3, [(1,)])
    assert 2 * x == x * 2 == TensorElement.single(6, [(1,)])
    assert Fraction(1, 3) * x == TensorElement.single(1, [(1,)])
    assert 0 * x == TensorElement.zero(1, 1)


def test_mul_adds_exponents_per_leg():
    x = TensorElement.single(2, [(1, 0), (0, 2)])
    y = TensorElement.single(3, [(0, 1), (1, -2)])
    assert x * y == TensorElement.single(6, [(1, 1), (1, 0)])


def test_rank_and_leg_mismatches():
    with pytest.raises(RankMismatch):
        TensorElement.one(1, 2) + TensorElement.one(2, 2)
    with pytest.raises(LegMismatch):
        TensorElement.one(1, 2) * TensorElement.one(1, 3)
    with pytest.raises(LegOutOfRange):
        permute_legs(TensorElement.one(1, 2), (1, 3))


def test_units():
    x = TensorElement.single(Fraction(2, 3), [(1,), (-2,)])
    u = as_unit(x, 1, 2, "x")
    assert u.scalar == Fraction(2, 3) and u.monomial == ((1,), (-2,))
    assert u.to_tensor() == x
    assert x * invert_unit(x).to_tensor() == TensorElement.one(1, 2)
    assert u.power(3).scalar == Fraction(8, 27)
    assert u.power(-1).monomial == ((-1,), (2,))
    assert (u * u.inverse()) == UnitElement.identity(1, 2)
    assert as_unit(u, 1, 2, "u") is u
    with pytest.raises(RankMismatch, match="^u: element has rank 1, expected 2$"):
        as_unit(u, 2, 2, "u")
    with pytest.raises(LegMismatch, match="^u: element has 2 legs, expected 1$"):
        as_unit(u, 1, 1, "u")


def test_not_a_unit():
    two_terms = TensorElement.one(1, 1) + TensorElement.generator(1, 1)
    with pytest.raises(NotAUnit):
        as_unit(two_terms, 1, 1, "x")
    with pytest.raises(NotAUnit):
        as_unit(TensorElement.zero(1, 1), 1, 1, "x")
    with pytest.raises(NotAUnit):
        UnitElement(1, Fraction(0), ((1,),))


# -- one certification for every unit read or passed in -----------------------


def _presentation_with(field):
    def call(elem):
        units = {
            "phi": UnitElement.identity(1, 3),
            "lambda": UnitElement.identity(1, 1),
            "rho": UnitElement.identity(1, 1),
            field: elem,
        }
        base = ordinary(1)
        return QuasiBialgebraPresentation(
            1, base.coproduct, base.counit, units["phi"], units["lambda"], units["rho"]
        )

    return call


def _from_file(flag):
    """cli._element on a file holding the element; raises the refusal it wraps."""

    def call(elem):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "element.json"
            path.write_text(json.dumps(elem.to_dict()))
            try:
                return cli._element(str(path), 1, flag)
            except cli.InputParseError as exc:
                assert str(exc) == f"{path}: {exc.__cause__}"
                raise exc.__cause__

    return call


# entry point: (field named in the error, legs expected, call on a would-be rank-1 unit)
CERTIFIED = {
    "presentation.phi": ("phi", 3, _presentation_with("phi")),
    "presentation.lambda": ("lambda", 1, _presentation_with("lambda")),
    "presentation.rho": ("rho", 1, _presentation_with("rho")),
    "AlgebraMapSpec": ("image", 2, lambda e: AlgebraMapSpec(1, 2, (e,))),
    "twist": ("alpha", 2, lambda e: twist(ordinary(1), e)),
    "check_rmatrix_shape": ("R", 2, lambda e: check_rmatrix_shape(e, 1)),
    "twist_R.R": ("R", 2, lambda e: twist_R(e, UnitElement.identity(e.rank, 2))),
    "twist_R.alpha": ("alpha", 2, lambda e: twist_R(UnitElement.identity(1, 2), e)),
    "cli --twist": ("--twist", 2, _from_file("--twist")),
    "cli --r": ("--r", 2, _from_file("--r")),
    "parameters_of": ("cocycle", 3, lambda e: cocycle_classify(1).parameters_of(e)),
}


def _malformed(case, legs):
    """An element of the wrong rank, leg count or term count, and its refusal."""
    if case == "rank":
        return TensorElement.single(1, [(0, 0)] * legs), RankMismatch
    if case == "legs":
        return TensorElement.single(1, [(0,)] * (legs + 1)), LegMismatch
    return TensorElement(1, legs, {((0,),) * legs: 1, ((1,),) * legs: 1}), NotAUnit


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry in CERTIFIED
        for case in ("rank", "legs", "terms")
        # R sets the rank that twist_R certifies alpha at
        if (entry, case) != ("twist_R.R", "rank")
    ],
)
def test_every_entry_point_certifies_units_through_as_unit(entry, case):
    field, legs, call = CERTIFIED[entry]
    call(TensorElement.single(1, [(0,)] * legs))
    elem, refusal = _malformed(case, legs)
    with pytest.raises(refusal) as err:
        call(elem)
    assert str(err.value).startswith(field), str(err.value)


# -- units out: computed elements come back as the units they are -------------


def test_algebra_layer_returns_units():
    p = canonical(CanonicalTriple(Fraction(2), (1,), (1,)))
    alpha = find_trivializing_twist(p)
    solutions = solve_R(p)
    results = [
        alpha,
        *solutions,
        twist_R(solutions[0], alpha),
        invert_unit(alpha),
        cocycle_classify(1).cocycle((1,), (1,)),
    ]
    assert len(solutions) == 1
    assert all(type(u) is UnitElement for u in results)
    # each writes the document of its one-term record
    assert all(u.to_dict() == u.to_tensor().to_dict() for u in results)
    assert alpha.to_dict() == {"rank": 1, "legs": 2, "terms": [{"c": "2", "e": [[1], [-1]]}]}

    # witnesses of failed checks are units whose records are the CLI goldens
    bad_phi = p.to_dict()
    bad_phi["phi"]["terms"][0]["e"][0][0] += 1
    bad_counit = ordinary(2).to_dict()
    bad_counit["counit"] = ["2", "1/3"]
    reports = {
        "verify_phi_exponent": verify(QuasiBialgebraPresentation.from_dict(bad_phi)),
        "verify_counit": verify(QuasiBialgebraPresentation.from_dict(bad_counit)),
        "verify_r_scalar": verify_R(p, TensorElement.single(3, [(2,), (-2,)])),
    }
    for name, report in reports.items():
        failed = report.failed()
        assert failed, name
        assert all(type(c.lhs) is type(c.rhs) is UnitElement for c in failed), name
        assert report.to_list() == json.loads((GOLDEN / f"{name}.json").read_text()), name


def test_tensor_concat():
    x = UnitElement(1, 2, [(1,)])
    y = UnitElement(1, 3, [(0,), (2,)])
    assert tensor_concat(x, y) == UnitElement(1, 6, [(1,), (0,), (2,)])
    with pytest.raises(RankMismatch):
        tensor_concat(x, UnitElement(2, 1, [(0, 0)]))


def test_permute_legs():
    x = UnitElement(1, 5, [(1,), (2,), (3,)])
    assert permute_legs(x, (2, 3, 1)) == UnitElement(1, 5, [(2,), (3,), (1,)])
    rng = random.Random(3)
    for _ in range(20):
        y = random_unit(rng, 2, 3)
        assert permute_legs(permute_legs(y, (2, 3, 1)), (3, 1, 2)) == y


def test_insert_unit_leg():
    x = UnitElement(1, 2, [(1,), (2,)])
    assert insert_unit_leg(x, 2) == UnitElement(1, 2, [(1,), (0,), (2,)])
    assert insert_unit_leg(x, 1).legs == 3
    with pytest.raises(LegOutOfRange):
        insert_unit_leg(x, 4)


def test_serialization_round_trip():
    rng = random.Random(11)
    for _ in range(30):
        x = random_element(rng, rng.randint(1, 3), rng.randint(1, 3))
        text = json.dumps(x.to_dict())
        again = TensorElement.from_dict(json.loads(text))
        assert again == x
        assert json.dumps(again.to_dict()) == text


def test_serialization_format():
    x = TensorElement.single(Fraction(1, 2), [(1, 0), (0, -1)])
    d = x.to_dict()
    assert d == {"rank": 2, "legs": 2, "terms": [{"c": "1/2", "e": [[1, 0], [0, -1]]}]}
    assert json.loads(json.dumps(d)) == d


def test_algebra_map_spec():
    # coproduct-shaped map g -> g (x) g
    gens = [as_unit(TensorElement.generator(2, i), 2, 1, "g") for i in (1, 2)]
    delta = AlgebraMapSpec(2, 2, tuple(tensor_concat(g, g) for g in gens))
    u = delta.image_of_vector((2, -1))
    assert u.scalar == 1 and u.monomial == ((2, -1), (2, -1))


def test_apply_algebra_map_on_leg():
    delta = AlgebraMapSpec(
        1, 2, (as_unit(TensorElement.single(1, [(1,), (1,)]), 1, 2, "image"),)
    )
    x = UnitElement(1, 3, [(2,), (5,)])
    assert apply_algebra_map_on_leg(delta, x, 1) == UnitElement(1, 3, [(2,), (2,), (5,)])
    assert apply_algebra_map_on_leg(delta, x, 2) == UnitElement(1, 3, [(2,), (5,), (5,)])
    # scalar in the image accumulates through the exponent
    scaled = AlgebraMapSpec(1, 2, (as_unit(TensorElement.single(2, [(1,), (0,)]), 1, 2, "image"),))
    y = UnitElement(1, 1, [(3,)])
    assert apply_algebra_map_on_leg(scaled, y, 1) == UnitElement(1, 8, [(3,), (0,)])


def test_apply_counit_on_leg():
    eps = CounitSpec(1, (Fraction(2),))
    x = UnitElement(1, 3, [(2,), (1,)])
    assert apply_counit_on_leg(eps, x, 1) == UnitElement(1, 12, [(1,)])
    with pytest.raises(LegMismatch):
        apply_counit_on_leg(eps, UnitElement(1, 1, [(1,)]), 1)


def test_counit_nonzero_required():
    with pytest.raises(NotAUnit):
        CounitSpec(1, (Fraction(0),))


def test_immutability_and_hash():
    x = TensorElement.single(1, [(1,)])
    with pytest.raises(AttributeError):
        x.rank = 2
    assert len({x, TensorElement.single(1, [(1,)])}) == 1


def test_read_rational():
    accepted = (
        ("3", 3), ("-1/2", Fraction(-1, 2)), ("0.25", Fraction(1, 4)),
        (7, 7), (-2, -2), (" +5/10 ", Fraction(1, 2)),
    )
    for text, value in accepted:
        assert read_rational(text, "c") == value
    rejected = (
        "1e400000", "1E5", "2.5e-3", "1/0", "3/00", "abc", "", "1/2/3", "True", "inf",
        "nan", "9" * 5000,
        # Fraction() reads digits of any script and "1_0"; number text is ASCII
        "\u0661", "\u0661.\u0665", "1/\u0662", "1_0", "1_0/3",
    )
    for text in rejected:
        with pytest.raises(ValueError, match="^where: "):
            read_rational(text, "where")
    # not text and not exact: a float is binary, even 0.5
    for value in (0.5, None, True):
        with pytest.raises(TypeError, match="^where: "):
            read_rational(value, "where")


@pytest.fixture()
def digit_limit():
    """Set the interpreter's decimal conversion limit to its minimum, 640."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string conversion limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(saved)


def test_format_coefficient_bounds_what_str_cannot_write(digit_limit):
    for c in (Fraction(3), Fraction(-1, 2), 7, Fraction(10**639), Fraction(-1, 10**639)):
        assert format_coefficient(c) == str(c)
    assert format_coefficient(10**640) == "<2127-bit integer>"
    assert format_coefficient(Fraction(-(2**3000))) == "-<3001-bit integer>"
    assert format_coefficient(Fraction(3, 2**3000)) == "3/<3001-bit integer>"
    # decimal exactly when str() can write it, up to one digit of caution
    for bits in range(2110, 2140):
        for n in (2 ** (bits - 1), 2**bits - 1):
            text = format_coefficient(n)
            if text.startswith("<"):
                sys.set_int_max_str_digits(0)
                assert len(str(n)) >= digit_limit
                sys.set_int_max_str_digits(digit_limit)
            else:
                assert text == str(n)
    with pytest.raises(ValueError):
        read_rational(format_coefficient(10**640), "c")
    # with no limit, or a higher one, the same numbers are written in full
    for limit in (0, 4300):
        sys.set_int_max_str_digits(limit)
        assert format_coefficient(Fraction(3, 2**3000)) == str(Fraction(3, 2**3000))


def test_from_dict_names_the_bad_coefficient():
    doc = {"rank": 1, "legs": 1, "terms": [{"c": "1", "e": [[0]]}, {"c": "1e9", "e": [[1]]}]}
    with pytest.raises(ValueError, match=r"^phi\.terms\[1\]\.c: .*'1e9'"):
        TensorElement.from_dict(doc, "phi.")


@pytest.mark.parametrize(
    "change, refusal",
    [
        (lambda d: d["terms"][0]["e"][0].__setitem__(0, 1.7), "phi.terms[0].e: expected an integer, got "),
        (lambda d: d["terms"][0]["e"].__setitem__(1, "10"), "phi.terms[0].e: expected an array, got str"),
        (lambda d: d.__setitem__("rank", 2.0), "phi.rank: expected an integer, got "),
        (lambda d: d.__setitem__("legs", "3"), "phi.legs: expected an integer, got "),
        (lambda d: d["terms"][0]["e"][2].__setitem__(1, True), "phi.terms[0].e: expected an integer, got "),
    ],
)
def test_from_dict_refuses_non_integer_exponents(change, refusal):
    # int() would read 1.7 as 1, 2.0 as 2, true as 1 and, iterating "10", the digits (1, 0)
    doc = {"rank": 2, "legs": 3, "terms": [{"c": "1", "e": [[1, 0], [0, 0], [0, 1]]}]}
    TensorElement.from_dict(doc, "phi.")
    change(doc)
    with pytest.raises(TypeError, match=rf"^{re.escape(refusal)}"):
        TensorElement.from_dict(doc, "phi.")


# -- results built without re-validation ---------------------------------------

scalars = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 1, 2, 3, 7))
)


@st.composite
def unit_pairs(draw, max_rank=4, max_legs=4):
    """Two units of one shape, built through the validating constructor."""
    rank = draw(st.integers(1, max_rank))
    legs = draw(st.integers(0, max_legs))

    def unit():
        vecs = [[draw(st.integers(-5, 5)) for _ in range(rank)] for _ in range(legs)]
        return UnitElement(rank, draw(scalars), vecs)

    return unit(), unit()


def rebuilt(u):
    """``u`` is what the validating constructor makes of its own fields."""
    assert type(u.scalar) is Fraction and u.scalar
    assert all(len(v) == u.rank and all(type(c) is int for c in v) for v in u.monomial)
    assert type(u.monomial) is tuple and all(type(v) is tuple for v in u.monomial)
    return u == UnitElement(u.rank, u.scalar, u.monomial)


@settings(max_examples=100, deadline=None)
@given(unit_pairs(), st.integers(-4, 4))
def test_unit_arithmetic_results_are_valid_units(pair, n):
    a, b = pair
    results = [a * b, a.inverse(), a.power(n), UnitElement.identity(a.rank, a.legs)]
    assert all(rebuilt(u) for u in results)


@settings(max_examples=100, deadline=None)
@given(unit_pairs(max_legs=3).filter(lambda p: p[0].legs))
def test_unit_product_matches_tensor_product(pair):
    a, b = pair
    assert (a * b).to_tensor() == a.to_tensor() * b.to_tensor()
    assert a.to_tensor() == TensorElement(a.rank, a.legs, {a.monomial: a.scalar})


@settings(max_examples=100, deadline=None)
@given(unit_pairs())
def test_unit_inverse(pair):
    a, _ = pair
    assert a * a.inverse() == UnitElement.identity(a.rank, a.legs)
    assert a.inverse() * a == UnitElement.identity(a.rank, a.legs)


@settings(max_examples=100, deadline=None)
@given(unit_pairs(), st.integers(-5, 5))
def test_unit_power_is_repeated_product(pair, n):
    a, _ = pair
    expect = UnitElement.identity(a.rank, a.legs)
    step = a if n >= 0 else a.inverse()
    for _ in range(abs(n)):
        expect = expect * step
    assert a.power(n) == expect


def test_unit_power_needs_an_integer_exponent():
    u = UnitElement(1, Fraction(4), [(2,)])
    for n in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            u.power(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_image_of_vector_is_a_valid_unit(rank, legs, data):
    images = [
        UnitElement(
            rank,
            data.draw(scalars),
            [[data.draw(st.integers(-3, 3)) for _ in range(rank)] for _ in range(legs)],
        )
        for _ in range(rank)
    ]
    amap = AlgebraMapSpec(rank, legs, tuple(images))
    e = tuple(data.draw(st.integers(-3, 3)) for _ in range(rank))
    image = amap.image_of_vector(e)
    assert rebuilt(image)
    expect = UnitElement.identity(rank, legs)
    for im, c in zip(images, e):
        expect = expect * im.power(c)
    assert image == expect


def test_one_matches_the_validating_constructor():
    for rank in (1, 3):
        for legs in (1, 4):
            one = TensorElement.one(rank, legs)
            assert one == TensorElement(rank, legs, {((0,) * rank,) * legs: 1})
    with pytest.raises(RankMismatch):
        TensorElement.one(0, 2)
    with pytest.raises(LegMismatch):
        TensorElement.one(2, 0)


def test_public_unit_constructor_still_validates():
    with pytest.raises(TypeError):
        UnitElement(1, 0.5, [(1,)])
    with pytest.raises(ValueError):
        UnitElement(1, "1e5", [(1,)])
    with pytest.raises(RankMismatch):
        UnitElement(2, Fraction(1), [(1,)])
    for rank in (0, -3):
        with pytest.raises(RankMismatch):
            UnitElement(rank, Fraction(1), [])


def test_identity_checks_rank_as_the_constructor_does():
    for rank, legs in ((-1, 2), (0, 2), (0, 0)):
        with pytest.raises(RankMismatch):
            UnitElement.identity(rank, legs)
    assert UnitElement.identity(2, 0) == UnitElement(2, Fraction(1), [])


def test_identity_checks_leg_count():
    for legs in (-1, -3):
        with pytest.raises(LegMismatch):
            UnitElement.identity(1, legs)
    assert UnitElement.identity(1, 2) == UnitElement(1, Fraction(1), [[0], [0]])


# -- leg operations against the multi-term reference ---------------------------
#
# The leg operations act on units.  These are the multi-term forms they
# replaced, kept as the reference route: on a one-term element each must
# give the unit result, read as a tensor.


def _accumulate(rank, legs, pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return TensorElement(rank, legs, out)


def ref_tensor_concat(x, y):
    pairs = ((ka + kb, ca * cb) for ka, ca in x.terms() for kb, cb in y.terms())
    return _accumulate(x.rank, x.legs + y.legs, pairs)


def ref_permute_legs(x, perm):
    pairs = ((tuple(key[p - 1] for p in perm), c) for key, c in x.terms())
    return _accumulate(x.rank, x.legs, pairs)


def ref_insert_unit_leg(x, position):
    z = (0,) * x.rank
    pairs = ((key[: position - 1] + (z,) + key[position - 1 :], c) for key, c in x.terms())
    return _accumulate(x.rank, x.legs + 1, pairs)


def ref_apply_algebra_map_on_leg(amap, x, leg):
    pairs = []
    for key, c in x.terms():
        u = amap.image_of_vector(key[leg - 1])
        pairs.append((key[: leg - 1] + u.monomial + key[leg:], c * u.scalar))
    return _accumulate(x.rank, x.legs - 1 + amap.target_legs, pairs)


def ref_apply_counit_on_leg(eps, x, leg):
    pairs = (
        (key[: leg - 1] + key[leg:], c * eps.value_of_vector(key[leg - 1])) for key, c in x.terms()
    )
    return _accumulate(x.rank, x.legs - 1, pairs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.data())
def test_leg_operations_match_the_multi_term_reference(rank, legs, other_legs, data):
    def unit(m):
        vecs = [[data.draw(st.integers(-4, 4)) for _ in range(rank)] for _ in range(m)]
        return UnitElement(rank, data.draw(scalars), vecs)

    x, y = unit(legs), unit(other_legs)
    tx = x.to_tensor()
    assert tensor_concat(x, y).to_tensor() == ref_tensor_concat(tx, y.to_tensor())

    perm = tuple(data.draw(st.permutations(range(1, legs + 1))))
    assert permute_legs(x, perm).to_tensor() == ref_permute_legs(tx, perm)

    position = data.draw(st.integers(1, legs + 1))
    assert insert_unit_leg(x, position).to_tensor() == ref_insert_unit_leg(tx, position)

    leg = data.draw(st.integers(1, legs))
    target = data.draw(st.integers(1, 2))
    amap = AlgebraMapSpec(rank, target, tuple(unit(target) for _ in range(rank)))
    got = apply_algebra_map_on_leg(amap, x, leg).to_tensor()
    assert got == ref_apply_algebra_map_on_leg(amap, tx, leg)

    if legs >= 2:
        eps = CounitSpec(rank, tuple(data.draw(scalars) for _ in range(rank)))
        assert apply_counit_on_leg(eps, x, leg).to_tensor() == ref_apply_counit_on_leg(eps, tx, leg)


# -- scalars equal to 1 ---------------------------------------------------------
#
# Unit arithmetic passes a scalar equal to 1 on instead of multiplying,
# dividing or raising it.  Drawn with 1 about half the time, every result
# scalar must still be the plain Fraction formula, and a Fraction.

unit_scalars = st.one_of(
    st.just(Fraction(1)),
    st.sampled_from((Fraction(-1), Fraction(2, 3), Fraction(-5, 2), Fraction(7), Fraction(1, 4))),
)


def exact(q, expect):
    return type(q) is Fraction and q == expect


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(-4, 4), st.data())
def test_scalar_one_skip_matches_the_fraction_formula(rank, legs, n, data):
    def unit(m):
        vecs = [[data.draw(st.integers(-3, 3)) for _ in range(rank)] for _ in range(m)]
        return UnitElement(rank, data.draw(unit_scalars), vecs)

    x, y, z = unit(legs), unit(legs), unit(data.draw(st.integers(1, 3)))
    p, q = x.scalar, y.scalar
    assert exact((x * y).scalar, p * q)
    assert exact(x.inverse().scalar, 1 / p)
    assert exact(x.power(n).scalar, p ** n)
    assert exact(tensor_concat(x, z).scalar, p * z.scalar)

    leg = data.draw(st.integers(1, legs))
    e = x.monomial[leg - 1]
    target = data.draw(st.integers(1, 2))
    images = tuple(unit(target) for _ in range(rank))
    amap = AlgebraMapSpec(rank, target, images)
    expect = p * prod((im.scalar ** c for im, c in zip(images, e)), start=Fraction(1))
    assert exact(apply_algebra_map_on_leg(amap, x, leg).scalar, expect)

    if legs >= 2:
        eps = CounitSpec(rank, tuple(data.draw(unit_scalars) for _ in range(rank)))
        expect = p * prod((v ** c for v, c in zip(eps.values, e)), start=Fraction(1))
        assert exact(apply_counit_on_leg(eps, x, leg).scalar, expect)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CanonicalTriple(2, (1.7,), (1,)),
        lambda: UnitElement(1, 1, [(1.9,)]),
        lambda: HarrisonCochain.from_data(1, 1, [[2.5]]),
        lambda: TensorElement.single(1, ["12"]),
    ],
    ids=["CanonicalTriple", "UnitElement", "HarrisonCochain.from_data", "TensorElement.single"],
)
def test_constructors_refuse_non_integer_exponents(build):
    # a float is not truncated and a string is not split into digits
    with pytest.raises(TypeError):
        build()


# -- the two readers, at every site where an exact number comes in ------------


def _edited(doc, path, value):
    """A deep copy of the JSON document ``doc`` with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_RANK2 = canonical(CanonicalTriple(2, (1, 0), (0, 1))).to_dict()


def _presentation(path, value):
    return QuasiBialgebraPresentation.from_dict(_edited(_RANK2, path, value))


def _tensor_doc(rank=1, legs=1, c="1", e=((0,),)):
    doc = {"rank": rank, "legs": legs, "terms": [{"c": c, "e": [list(v) for v in e]}]}
    return TensorElement.from_dict(doc)


def _first_exponent(x):
    return x.terms()[0][0][0][0]


# (site, field, build): build(value) constructs with value at the site
# and returns what the site stores
INTEGER_SITES = [
    ("TensorElement.from_dict rank", "rank", lambda v: _tensor_doc(rank=v, e=((0, 0),)).rank),
    ("TensorElement.from_dict legs", "legs", lambda v: _tensor_doc(legs=v, e=((0,), (0,))).legs),
    ("TensorElement.from_dict exponent", "terms[0].e", lambda v: _first_exponent(_tensor_doc(e=((v,),)))),
    ("TensorElement rank", "rank", lambda v: TensorElement(v, 1, {((0, 0),): 1}).rank),
    ("TensorElement legs", "legs", lambda v: TensorElement(1, v, {((0,), (0,)): 1}).legs),
    ("TensorElement exponent", "exponent", lambda v: _first_exponent(TensorElement(1, 1, {((v,),): 1}))),
    ("TensorElement.single", "exponent", lambda v: _first_exponent(TensorElement.single(1, [(v,)]))),
    ("UnitElement rank", "rank", lambda v: UnitElement(v, 1, ((0, 0),)).rank),
    ("AlgebraMapSpec rank", "rank", lambda v: AlgebraMapSpec(v, 1, (UnitElement(2, 1, ((0, 0),)),) * 2).rank),
    (
        "AlgebraMapSpec target_legs",
        "target_legs",
        lambda v: AlgebraMapSpec(1, v, (UnitElement(1, 1, ((0,), (0,))),)).target_legs,
    ),
    ("CounitSpec rank", "rank", lambda v: CounitSpec(v, (1, 1)).rank),
    ("HarrisonCochain degree", "degree", lambda v: HarrisonCochain(v, UnitElement(1, 1, ((0,), (0,)))).degree),
    ("UnitElement monomial", "monomial[0]", lambda v: UnitElement(1, 1, ((v,),)).monomial[0][0]),
    ("UnitElement.power", "n", lambda v: UnitElement(1, 1, ((1,),)).power(v).monomial[0][0]),
    ("QuasiBialgebraPresentation.from_dict rank", "rank", lambda v: _presentation(("rank",), v).rank),
    (
        "QuasiBialgebraPresentation.from_dict phi",
        "phi.terms[0].e",
        lambda v: _presentation(("phi", "terms", 0, "e", 0, 0), v).phi.monomial[0][0],
    ),
    ("CanonicalTriple h", "h", lambda v: CanonicalTriple(2, (v,), (1,)).h[0]),
    ("CanonicalTriple g", "g", lambda v: CanonicalTriple(2, (1,), (v,)).g[0]),
    ("HarrisonCochain.from_data rank", "rank", lambda v: HarrisonCochain.from_data(v, 1, [[0, 0]]).rank),
    (
        "HarrisonCochain.from_data elements",
        "elements[0]",
        lambda v: HarrisonCochain.from_data(1, 1, [[v]]).unit.monomial[0][0],
    ),
    (
        "HarrisonCochain.from_dict elements",
        "elements[0]",
        lambda v: HarrisonCochain.from_dict({"scalar": "1", "elements": [[v]]}).unit.monomial[0][0],
    ),
    ("AbelianGroupDescriptor free_rank", "free_rank", lambda v: AbelianGroupDescriptor(v, (), False).free_rank),
    ("AbelianGroupDescriptor torsion", "torsion", lambda v: AbelianGroupDescriptor(0, (v,), False).torsion[0]),
    ("MonoidalParams a", "a", lambda v: MonoidalParams(1, v, 0).a),
    ("MonoidalParams b", "b", lambda v: MonoidalParams(1, 0, v).b),
    ("StructureMaps left_exp", "left_exp", lambda v: StructureMaps((0, 0, 0), 1, v, 1, 0, (0, 0)).left_exp),
    ("StructureMaps right_exp", "right_exp", lambda v: StructureMaps((0, 0, 0), 1, 0, 1, v, (0, 0)).right_exp),
    ("StructureMaps assoc_exp", "assoc_exp", lambda v: StructureMaps((0, v, 0), 1, 0, 1, 0, (0, 0)).assoc_exp[1]),
    ("StructureMaps braid_exp", "braid_exp", lambda v: StructureMaps((0, 0, 0), 1, 0, 1, 0, (v, 0)).braid_exp[0]),
    ("HomObject dim", "dim", lambda v: HomObject(v, ((1, 0), (0, 1))).dim),
    ("smith_normal_form", "matrix entry", lambda v: smith_normal_form([[v]])[0][0][0]),
]

RATIONAL_SITES = [
    ("TensorElement.from_dict coefficient", "terms[0].c", lambda v: _tensor_doc(c=v).terms()[0][1]),
    ("TensorElement coefficient", "coefficient", lambda v: TensorElement(1, 1, {((0,),): v}).terms()[0][1]),
    ("TensorElement.single", "coefficient", lambda v: TensorElement.single(v, [(0,)]).terms()[0][1]),
    ("UnitElement scalar", "scalar", lambda v: UnitElement(1, v, ((0,),)).scalar),
    ("CounitSpec", "counit[0]", lambda v: CounitSpec(1, (v,)).values[0]),
    (
        "QuasiBialgebraPresentation.from_dict counit",
        "counit[0]",
        lambda v: _presentation(("counit", 0), v).counit.values[0],
    ),
    (
        "QuasiBialgebraPresentation.from_dict coproduct",
        "coproduct[0].terms[0].c",
        lambda v: _presentation(("coproduct", 0, "terms", 0, "c"), v).coproduct.images[0].scalar,
    ),
    ("CanonicalTriple q", "q", lambda v: CanonicalTriple(v, (1,), (1,)).q),
    ("HarrisonCochain.from_data scalar", "scalar", lambda v: HarrisonCochain.from_data(1, v, [[1]]).unit.scalar),
    (
        "HarrisonCochain.from_dict scalar",
        "scalar",
        lambda v: HarrisonCochain.from_dict({"scalar": v, "elements": [[1]]}).unit.scalar,
    ),
    ("MonoidalParams q", "q", lambda v: MonoidalParams(v, 0, 0).q),
    ("StructureMaps left_scalar", "left_scalar", lambda v: StructureMaps((0, 0, 0), v, 0, 1, 0, (0, 0)).left_scalar),
    ("StructureMaps right_scalar", "right_scalar", lambda v: StructureMaps((0, 0, 0), 1, 0, v, 0, (0, 0)).right_scalar),
    ("from_rows", "matrix entry", lambda v: mat.from_rows([[v]])[0][0]),
    ("HomObject matrix", "matrix entry", lambda v: HomObject(1, ((v,),)).matrix[0][0]),
]


@pytest.mark.parametrize("field, build", [s[1:] for s in INTEGER_SITES], ids=[s[0] for s in INTEGER_SITES])
def test_integer_sites_read_exact_integers(field, build):
    # 2.0 and Fraction(2) are integral but not integers, "2" is text and
    # True is a bool: each would be read as a number by int() or index()
    for bad in (True, 2.0, 1.5, "2", Fraction(2)):
        with pytest.raises(TypeError, match=rf"^{re.escape(field)}: expected an integer, got "):
            build(bad)
    stored = build(2)
    assert stored == 2 and type(stored) is int


@pytest.mark.parametrize("field, build", [s[1:] for s in RATIONAL_SITES], ids=[s[0] for s in RATIONAL_SITES])
def test_rational_sites_read_exact_rationals(field, build):
    # 0.5 is a binary float, True a bool, "1e3" exponent notation
    for bad, error in ((0.5, TypeError), (True, TypeError), ("1e3", ValueError)):
        with pytest.raises(error, match=rf"^{re.escape(field)}: "):
            build(bad)
    # a matrix entry is normalised, an integral one to an int; every
    # other site stores a Fraction
    integral = int if field == "matrix entry" else Fraction
    for value, expected, kind in (
        (2, 2, integral),
        (Fraction(4, 2), 2, integral),
        (Fraction(3, 2), Fraction(3, 2), Fraction),
        ("-3/2", Fraction(-3, 2), Fraction),
    ):
        stored = build(value)
        assert stored == expected and type(stored) is kind


# -- library refusals, each with its exception and message ---------------------

_U1 = UnitElement(1, 1, ((0,),))
_U2 = UnitElement(2, 1, ((0, 0),))
_U11 = UnitElement(1, 1, ((0,), (0,)))
_DIAGONAL = AlgebraMapSpec(1, 2, (UnitElement(1, 1, ((1,), (1,))),))
_ORD = ordinary(1)

REFUSALS = [
    ("TensorElement rank 0", lambda: TensorElement(0, 1), RankMismatch, "rank must be >= 1"),
    ("TensorElement legs 0", lambda: TensorElement(1, 0), LegMismatch, "legs must be >= 1"),
    ("TensorElement term legs", lambda: TensorElement(1, 2, {((0,),): 1}), LegMismatch, "term ((0,),) has 1 legs"),
    ("TensorElement.single no legs", lambda: TensorElement.single(1, []), LegMismatch, "a tensor element needs"),
    ("TensorElement.generator", lambda: TensorElement.generator(1, 2), RankMismatch, "generator index 2 outside"),
    ("TensorElement + UnitElement", lambda: TensorElement.one(1, 1) + _U1, TypeError, "expected TensorElement"),
    ("UnitElement * rank", lambda: _U1 * _U2, RankMismatch, "rank 1 vs 2"),
    ("UnitElement * legs", lambda: _U1 * _U11, LegMismatch, "1 legs vs 2"),
    ("zero-leg to_tensor", lambda: UnitElement(1, 1, ()).to_tensor(), LegMismatch, "a zero-leg unit"),
    ("AlgebraMapSpec target_legs 0", lambda: AlgebraMapSpec(1, 0, ()), LegMismatch, "target_legs must be >= 1"),
    ("AlgebraMapSpec images", lambda: AlgebraMapSpec(2, 1, (_U2,)), RankMismatch, "image: need 2 generator images"),
    ("AlgebraMapSpec images not an array", lambda: AlgebraMapSpec(1, 1, 5), TypeError, "image: expected an array"),
    ("CounitSpec values", lambda: CounitSpec(2, (1,)), RankMismatch, "counit: need 2 generator values"),
    ("CounitSpec values not an array", lambda: CounitSpec(1, 5), TypeError, "counit: expected an array, got int"),
    ("UnitElement monomial not an array", lambda: UnitElement(1, 1, 5), TypeError, "monomial: expected an array"),
    ("TensorElement terms not an object", lambda: TensorElement(1, 1, 5), TypeError, "terms: expected an object, got int"),
    ("TensorElement.single exps not an array", lambda: TensorElement.single(1, 5), TypeError, "exps: expected an array"),
    (
        "TensorElement.single exponent vector not an array",
        lambda: TensorElement.single(1, (5,)),
        TypeError,
        "exps[0]: expected an array, got int",
    ),
    (
        "HarrisonCochain elements not an array",
        lambda: HarrisonCochain.from_data(1, 1, 5),
        TypeError,
        "elements: expected an array, got int",
    ),
    ("CanonicalTriple h not an array", lambda: CanonicalTriple(1, 5, (1,)), TypeError, "h: expected an array"),
    ("CanonicalTriple g not an array", lambda: CanonicalTriple(1, (1,), 5), TypeError, "g: expected an array"),
    (
        "StructureMaps assoc_exp not an array",
        lambda: StructureMaps(5, 1, 0, 1, 0, (0, 0)),
        TypeError,
        "assoc_exp: expected an array, got int",
    ),
    (
        "StructureMaps braid_exp not an array",
        lambda: StructureMaps((0, 0, 0), 1, 0, 1, 0, 5),
        TypeError,
        "braid_exp: expected an array, got int",
    ),
    (
        "apply_algebra_map_on_leg rank",
        lambda: apply_algebra_map_on_leg(_DIAGONAL, _U2, 1),
        RankMismatch,
        "map rank 1 vs element rank 2",
    ),
    ("apply_algebra_map_on_leg leg", lambda: apply_algebra_map_on_leg(_DIAGONAL, _U11, 3), LegOutOfRange, "leg 3"),
    (
        "apply_counit_on_leg rank",
        lambda: apply_counit_on_leg(CounitSpec(1, (1,)), UnitElement(2, 1, ((0, 0), (0, 0))), 1),
        RankMismatch,
        "counit rank 1 vs element rank 2",
    ),
    ("apply_counit_on_leg leg", lambda: apply_counit_on_leg(CounitSpec(1, (1,)), _U11, 3), LegOutOfRange, "leg 3"),
    (
        "presentation rank",
        lambda: QuasiBialgebraPresentation(2, _ORD.coproduct, _ORD.counit, _ORD.phi, _ORD.lam, _ORD.rho),
        RankMismatch,
        "coproduct/counit rank does not match",
    ),
    (
        "presentation three-leg coproduct",
        lambda: QuasiBialgebraPresentation(
            1,
            AlgebraMapSpec(1, 3, (UnitElement(1, 1, ((1,), (1,), (1,))),)),
            _ORD.counit,
            _ORD.phi,
            _ORD.lam,
            _ORD.rho,
        ),
        LegMismatch,
        "a coproduct must have two output legs",
    ),
    (
        "HarrisonCochain degree -1",
        lambda: HarrisonCochain(-1, UnitElement.identity(1, 0)),
        DegreeMismatch,
        "degree must be >= 0",
    ),
    ("HarrisonCochain legs", lambda: HarrisonCochain(2, _U1), DegreeMismatch, "unit has 1 legs"),
    ("coboundary_matrix degree", lambda: coboundary_matrix(1, -1), DegreeMismatch, "degree must be >= 0"),
    ("cohomology rank", lambda: cohomology(0, 1), RankMismatch, "rank must be >= 1"),
    ("cohomology degree", lambda: cohomology(1, -1), DegreeMismatch, "degree must be >= 0"),
    ("cocycle_classify rank", lambda: cocycle_classify(0), RankMismatch, "rank must be >= 1"),
    ("from_rows ragged", lambda: mat.from_rows([[1, 2], [3]]), ValueError, "matrix: ragged rows"),
    ("from_rows row", lambda: mat.from_rows([[1, 2], 3], "rows"), TypeError, "rows[1]: expected an array, got int"),
    ("power non-square", lambda: mat.power(((1, 2),), 2), NotInvertible, "only square matrices"),
]


@pytest.mark.parametrize("call, error, prefix", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_library_refusals(call, error, prefix):
    with pytest.raises(error, match=f"^{re.escape(prefix)}"):
        call()
