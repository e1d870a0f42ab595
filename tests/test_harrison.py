import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg import harrison, intlinalg
from qbialg.cli import MAX_DEGREE
from qbialg.harrison import (
    AbelianGroupDescriptor,
    DegreeMismatch,
    HarrisonCochain,
    boundary,
    boundary_closed_form,
    coboundary_matrix,
    coface,
    cocycle_classify,
    cohomology,
)
from qbialg.intlinalg import invariant_factors, kernel_basis, quotient_invariants, solve_columns
from qbialg.laurent import AlgebraMapSpec, RankMismatch, TensorElement, UnitElement, format_coefficient


def random_cochain(rng, rank, degree, span=3):
    scalar = Fraction(rng.choice([1, -1, 2, 3, 5]), rng.choice([1, 2, 7]))
    elements = [[rng.randint(-span, span) for _ in range(rank)] for _ in range(degree)]
    return HarrisonCochain.from_data(rank, scalar, elements)


def test_cofaces_degree_two():
    c = HarrisonCochain.from_data(1, Fraction(5), [[1], [2]])
    assert coface(0, c).to_dict()["elements"] == [[0], [1], [2]]
    assert coface(1, c).to_dict()["elements"] == [[1], [1], [2]]
    assert coface(2, c).to_dict()["elements"] == [[1], [2], [2]]
    assert coface(3, c).to_dict()["elements"] == [[1], [2], [0]]
    assert all(coface(i, c).unit.scalar == 5 for i in range(4))
    with pytest.raises(DegreeMismatch):
        coface(4, c)


def test_boundary_golden_degree_one():
    c = HarrisonCochain.from_data(2, Fraction(3, 2), [[1, -1]])
    b = boundary(c)
    # middle coface cancels both slots; scalar survives in odd degree
    assert b.to_dict() == {"scalar": "3/2", "elements": [[0, 0], [0, 0]]}


def test_boundary_golden_degree_two():
    c = HarrisonCochain.from_data(2, Fraction(3), [[1, 0], [0, 2]])
    assert boundary(c).to_dict() == {
        "scalar": "1",
        "elements": [[-1, 0], [0, 0], [0, 2]],
    }


def test_degree_two_closed_form_matches_displayed_shape():
    # first slot inverted, middle slot empty, last slot copied
    rng = random.Random(40)
    for _ in range(30):
        rank = rng.randint(1, 3)
        c = random_cochain(rng, rank, 2)
        x1, x2 = c.unit.monomial
        b = boundary_closed_form(c)
        assert b.unit.scalar == 1
        assert b.unit.monomial == (tuple(-v for v in x1), (0,) * rank, x2)
        assert boundary(c) == b


def test_closed_form_equals_definition():
    rng = random.Random(41)
    for degree in range(7):
        for _ in range(40):
            rank = rng.randint(1, 3)
            c = random_cochain(rng, rank, degree)
            assert boundary(c) == boundary_closed_form(c)


def test_boundary_squared_trivial():
    rng = random.Random(42)
    for degree in range(6):
        for _ in range(25):
            rank = rng.randint(1, 3)
            c = random_cochain(rng, rank, degree)
            assert boundary(boundary(c)) == HarrisonCochain.identity(rank, degree + 2)


def test_boundary_is_a_homomorphism():
    rng = random.Random(43)
    for _ in range(30):
        rank = rng.randint(1, 2)
        degree = rng.randint(0, 5)
        c1 = random_cochain(rng, rank, degree)
        c2 = random_cochain(rng, rank, degree)
        assert boundary(c1 * c2) == boundary(c1) * boundary(c2)
        assert boundary(c1.inverse()) == boundary(c1).inverse()


def test_scalar_exponent_parity():
    rng = random.Random(44)
    for degree in range(7):
        c = random_cochain(rng, 2, degree)
        expect = c.unit.scalar if degree % 2 == 1 else Fraction(1)
        assert boundary(c).unit.scalar == expect


def paper_table(rank, degree):
    """H^0 = k*, H^1 = Z^r and H^n = 1 for n >= 2, written out, no Smith form."""
    if degree == 0:
        return AbelianGroupDescriptor(0, (), True)
    return AbelianGroupDescriptor(rank if degree == 1 else 0, (), False)


def test_cohomology_table():
    for rank in range(1, 7):
        for degree in range(41):
            assert cohomology(rank, degree) == paper_table(rank, degree), (rank, degree)
    for degree in range(4):
        assert cohomology(1000, degree) == paper_table(1000, degree)


def coface_rule_matrix(rank, degree):
    """dⁿ entry by entry from the coface rule, one coface at a time: the
    reference for the bidiagonal ``coboundary_matrix``."""
    mat = [[0] * (rank * degree) for _ in range(rank * (degree + 1))]
    for i in range(degree + 2):
        sign = 1 if i % 2 == 0 else -1
        # coface i sends source slot s (0-based) to target slot s when
        # s < i and to target slot s + 1 when s >= i - 1: slots below i - 1
        # keep their place, slot i - 1 is duplicated, and slots above shift
        # up by one (coface 0 shifts every slot, coface n + 1 none).
        for s in range(degree):
            for tgt in (s,) * (s < i) + (s + 1,) * (s >= i - 1):
                for k in range(rank):
                    mat[tgt * rank + k][s * rank + k] += sign
    return mat


def test_coboundary_matrix_matches_coface_rule():
    cases = [(rank, degree) for rank in range(1, 5) for degree in range(65)]
    for rank, degree in cases + [(1, MAX_DEGREE)]:
        m = coboundary_matrix(rank, degree)
        assert m == coface_rule_matrix(rank, degree), (rank, degree)
        assert all(type(x) is int for row in m for x in row)


def test_coboundary_matrix_is_rank_one_matrix_tensor_identity():
    # d^n = D_n (x) I_r: entry (i r + k, j r + l) is D_n[i][j] when k == l, else 0
    for rank in range(1, 6):
        for degree in range(13):
            small = coboundary_matrix(1, degree)
            big = coboundary_matrix(rank, degree)
            assert len(big) == rank * len(small)
            assert all(len(row) == rank * degree for row in big)
            for i, row in enumerate(small):
                for j, x in enumerate(row):
                    for k in range(rank):
                        for l in range(rank):
                            assert big[i * rank + k][j * rank + l] == (x if k == l else 0)


def rank_one_coboundary_rank(degree):
    """rank D_n: n/2 + 1 for even n >= 2, (n - 1)/2 for odd n, 0 for n = 0."""
    if degree == 0:
        return 0
    return degree // 2 + 1 if degree % 2 == 0 else (degree - 1) // 2


def test_rank_one_coboundary_rank_closed_form():
    # every invariant factor is 1, so the complex has no torsion
    for degree in range(61):
        expected = (1,) * rank_one_coboundary_rank(degree)
        assert invariant_factors(coboundary_matrix(1, degree)) == expected, degree


@pytest.fixture
def fresh_memo():
    """Empty memos of the invariant factors of D_n and of the kernel of D_3,
    emptied again at teardown, so that what a test computes under a patch
    does not outlive it."""
    memos = (harrison._rank_one_factors, harrison._degree_three_kernel)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_rank_one_reduction_repeats_torsion(fresh_memo, monkeypatch):
    # the Harrison complexes have no torsion; doubling every coboundary
    # matrix keeps d∘d = 0 and makes every invariant factor 2, so the
    # route through D_n must repeat each factor r times to match the full matrices
    real = harrison.coboundary_matrix
    doubled = lambda rank, degree: [[2 * x for x in row] for row in real(rank, degree)]
    monkeypatch.setattr(harrison, "coboundary_matrix", doubled)
    for rank in range(1, 4):
        for degree in range(2, 9):
            outgoing = invariant_factors(doubled(rank, degree))
            incoming = invariant_factors(doubled(rank, degree - 1))
            desc = cohomology(rank, degree)
            assert desc.free_rank == rank * degree - len(outgoing) - len(incoming)
            assert desc.torsion == tuple(f for f in incoming if f > 1)
            assert desc.torsion == (2,) * (rank * rank_one_coboundary_rank(degree - 1))


def factors_route(rank, degree, matrix_rank):
    """(free rank, torsion) of H^degree read straight off the invariant
    factors of the outgoing and incoming matrices at ``matrix_rank``
    (1 for D_n, ``rank`` for the full d^n), each repeated
    rank / matrix_rank times; nothing is memoised."""
    outgoing = invariant_factors(coboundary_matrix(matrix_rank, degree)) if degree else ()
    incoming = invariant_factors(coboundary_matrix(matrix_rank, degree - 1)) if degree > 1 else ()
    copies = rank // matrix_rank
    free = copies * (matrix_rank * degree - len(outgoing) - len(incoming))
    return free, tuple(f for f in incoming if f > 1 for _ in range(copies))


def test_memoised_cohomology_equals_the_uncached_route(fresh_memo):
    for rank in range(1, 5):
        for degree in range(61):
            got = cohomology(rank, degree)
            assert (got.free_rank, got.torsion) == factors_route(rank, degree, 1), (rank, degree)
            if degree <= 8:
                assert (got.free_rank, got.torsion) == factors_route(rank, degree, rank), (rank, degree)
            # asked again, the memo gives the same answer
            assert cohomology(rank, degree) == got


def test_a_table_reduces_each_rank_one_matrix_once(fresh_memo, monkeypatch):
    calls = []
    real = intlinalg.smith_normal_form

    def counting(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    for rank in range(1, 5):
        for degree in range(25):
            assert cohomology(rank, degree) == paper_table(rank, degree), (rank, degree)
    # D_1 .. D_24, one Smith form each, whatever the rank
    assert len(calls) == 24
    assert sorted(calls) == [n + 1 for n in range(1, 25)]
    assert harrison._rank_one_factors.cache_info().maxsize > MAX_DEGREE


def test_descriptor_str_and_dict():
    assert str(AbelianGroupDescriptor(0, (), True)) == "k*"
    assert str(AbelianGroupDescriptor(2, (), False)) == "Z^2"
    assert str(AbelianGroupDescriptor(1, (2, 4), True)) == "k* x Z x Z/2 x Z/4"
    assert str(AbelianGroupDescriptor(0, (), False)) == "1"
    assert AbelianGroupDescriptor(0, (3,), False).to_dict() == {
        "free_rank": 0,
        "torsion": [3],
        "scalar_factor": False,
    }


def test_descriptor_validates_torsion_chain():
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(0, (4, 2), False)
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(0, (1,), False)


def test_cocycle_classification():
    for rank in (1, 2, 3):
        cls = cocycle_classify(rank)
        assert cls.free_parameters() == 2 * rank
        h = tuple(range(1, rank + 1))
        g = tuple(-v for v in h)
        elem = cls.cocycle(h, g)
        assert elem == UnitElement(rank, 1, (h, (0,) * rank, g))
        # membership: its boundary as a degree-3 cochain is trivial
        c = HarrisonCochain.from_data(rank, Fraction(1), [list(h), [0] * rank, list(g)])
        assert boundary(c) == HarrisonCochain.identity(rank, 4)
        assert cls.parameters_of(elem) == (h, g)


@pytest.mark.parametrize(
    "name, result, message",
    [
        ("coboundary_matrix", [[0] * 3 for _ in range(4)], "kernel of the degree-3 boundary has rank 3, expected 2"),
        (
            "coboundary_matrix",
            [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
            "degree-3 kernel has a nonvanishing middle slot",
        ),
        # a kernel lattice is saturated, so no matrix alone gives outer slots
        # that are not free: only a wrong basis reaches this guard
        ("kernel_basis", [[2, 0, 0], [0, 0, 1]], "outer slots of the degree-3 kernel are not free"),
    ],
    ids=["kernel rank", "middle slot", "outer slots"],
)
def test_cocycle_classify_checks_the_kernel_it_derives(fresh_memo, monkeypatch, name, result, message):
    monkeypatch.setattr(harrison, name, lambda *args: result)
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        cocycle_classify(1)


def test_cocycle_classify_derives_the_kernel_once(fresh_memo, monkeypatch):
    calls = []
    real = intlinalg.smith_normal_form

    def counting(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    for rank in range(1, 5):
        for _ in range(2):
            assert cocycle_classify(rank).free_parameters() == 2 * rank
    # the kernel basis of D_3 and the 2x2 outer-slot matrix, whatever the rank
    assert len(calls) == 2


def test_parameters_of_rejects_bad_elements():
    cls = cocycle_classify(1)
    with pytest.raises(ValueError):
        cls.parameters_of(TensorElement.single(2, [(1,), (0,), (1,)]))  # scalar != 1
    with pytest.raises(ValueError):
        cls.parameters_of(TensorElement.single(1, [(1,), (1,), (1,)]))  # middle leg


def test_every_monomial_cocycle_lies_in_the_family():
    # brute force degree-3 kernel over a small window, rank 1
    m = coboundary_matrix(1, 3)
    for x in range(-2, 3):
        for y in range(-2, 3):
            for z in range(-2, 3):
                vec = [x, y, z]
                img = [sum(row[j] * vec[j] for j in range(3)) for row in m]
                in_kernel = not any(img)
                assert in_kernel == (y == 0)


def test_cochain_validation():
    with pytest.raises(DegreeMismatch):
        HarrisonCochain.from_dict({"scalar": "1", "elements": []})
    c = HarrisonCochain.from_dict({"scalar": "1", "elements": []}, rank=2)
    assert c.degree == 0 and c.rank == 2
    with pytest.raises(DegreeMismatch):
        random_cochain(random.Random(0), 1, 2) * random_cochain(random.Random(0), 1, 3)
    for rank in (0, -1):
        with pytest.raises(RankMismatch):
            HarrisonCochain.identity(rank, 2)


def test_from_data_takes_only_exact_scalars():
    assert HarrisonCochain.from_data(1, "3/2", [[1]]).unit.scalar == Fraction(3, 2)
    assert HarrisonCochain.from_data(1, 2, [[1]]).unit.scalar == Fraction(2)
    with pytest.raises(TypeError):
        HarrisonCochain.from_data(1, 0.1, [[1]])
    with pytest.raises(ValueError):
        HarrisonCochain.from_data(1, "1e5", [[1]])


def kernel_image_route(rank, degree):
    """Exponent part of H^degree the long way: a kernel basis, the image
    rewritten in it, then the invariant factors of those relations."""
    if degree == 0:
        return 0, ()
    kernel = kernel_basis(coboundary_matrix(rank, degree))
    incoming = coboundary_matrix(rank, degree - 1)
    image_cols = [[row[j] for row in incoming] for j in range(len(incoming[0]))]
    return quotient_invariants(len(kernel), solve_columns(kernel, image_cols))


def test_cohomology_matches_kernel_image_route():
    for rank in range(1, 5):
        for degree in range(24 // rank + 2):
            desc = cohomology(rank, degree)
            assert (desc.free_rank, desc.torsion) == kernel_image_route(rank, degree)


scalars = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 1, 2, 3, 7))
)


@st.composite
def cochains(draw, max_rank=4, max_degree=24):
    rank = draw(st.integers(1, max_rank))
    degree = draw(st.integers(0, max_degree))
    elements = [[draw(st.integers(-5, 5)) for _ in range(rank)] for _ in range(degree)]
    return HarrisonCochain.from_data(rank, draw(scalars), elements)


def is_valid_unit(u):
    """``u`` is what the validating constructor makes of its own fields."""
    return (
        type(u.scalar) is Fraction
        and type(u.monomial) is tuple
        and all(type(v) is tuple and all(type(c) is int for c in v) for v in u.monomial)
        and u == UnitElement(u.rank, u.scalar, u.monomial)
    )


def coface_product(c):
    """The alternating product of the cofaces as unit products, one by one."""
    out = UnitElement.identity(c.rank, c.degree + 1)
    for i in range(c.degree + 2):
        out = out * coface(i, c).unit.power(1 if i % 2 == 0 else -1)
    return out


@settings(max_examples=150, deadline=None)
@given(cochains())
def test_boundary_routes_agree_up_to_degree_24(c):
    b = boundary(c)
    assert b == boundary_closed_form(c)
    assert b.unit == coface_product(c)
    assert boundary(b) == HarrisonCochain.identity(c.rank, c.degree + 2)


@pytest.mark.parametrize("degree", [1, 2, 31, 64, 127, MAX_DEGREE])
def test_boundary_routes_agree_at_rank_one_up_to_the_largest_degree(degree):
    c = random_cochain(random.Random(degree), 1, degree, span=9)
    b = boundary(c)
    assert b.unit == coface_product(c)
    assert b == boundary_closed_form(c)


def test_boundary_holds_no_coface_whole():
    """Each coface is a lazy run over the one flattened cochain, summed
    column by column: at degree 128 and rank 64 the boundary's peak stays
    under 1 MB, where all 130 cofaces held as tuples take about 8.8 MB."""
    c = random_cochain(random.Random(5), 64, 128)
    tracemalloc.start()
    try:
        b = boundary(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert b == boundary_closed_form(c)


@settings(max_examples=150, deadline=None)
@given(cochains())
def test_coboundary_matrix_matches_boundary(c):
    # the hand-written matrix route and the definitional route must agree,
    # over the ranks and degrees the benchmark's Harrison tables reach
    m = coboundary_matrix(c.rank, c.degree)
    flat = [v for vec in c.unit.monomial for v in vec]
    image = [sum(row[j] * flat[j] for j in range(len(flat))) for row in m]
    flat_out = [v for vec in boundary(c).unit.monomial for v in vec]
    assert image == flat_out


@settings(max_examples=100, deadline=None)
@given(cochains(max_degree=8))
def test_cofaces_and_boundary_are_valid_units(c):
    results = [coface(i, c) for i in range(c.degree + 2)]
    results += [boundary(c), boundary_closed_form(c), c.inverse(), c * c]
    assert all(is_valid_unit(d.unit) for d in results)
    # each cochain is built without the readers, and is the one they build
    for d in results:
        read = HarrisonCochain(d.degree, d.unit)
        assert d == read and hash(d) == hash(read) and repr(d) == repr(read)


@settings(max_examples=100, deadline=None)
@given(cochains(), st.data())
def test_unit_kernels_return_tuples_of_ints(c, data):
    # the map-based vector kernels must hand back tuples of plain ints,
    # never a list or a map object
    b = boundary(c).unit
    e = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=c.rank, max_size=c.rank)))
    spec = AlgebraMapSpec(c.rank, b.legs, tuple(b.power(j + 1) for j in range(c.rank)))
    results = [b, b * b, b.inverse(), b.power(data.draw(st.integers(-3, 3))), spec.image_of_vector(e)]
    assert all(is_valid_unit(u) for u in results)


def test_descriptor_refuses_non_integer_torsion():
    # int() would read (2.9, 4.0) as Z/2 x Z/4 and the string "2" as 2
    for torsion in ((2.9, 4.0), ("2",), (Fraction(5, 2),)):
        with pytest.raises(TypeError):
            AbelianGroupDescriptor(1, torsion, False)


@pytest.mark.parametrize("free_rank", [1.5, "1", Fraction(2)])
def test_descriptor_refuses_non_integer_free_rank(free_rank):
    # unchecked, 1.5 would print as "Z^1.5"
    with pytest.raises(TypeError):
        AbelianGroupDescriptor(free_rank, (), False)


def test_descriptor_refuses_negative_free_rank():
    # unchecked, -2 would print as "Z"
    with pytest.raises(ValueError):
        AbelianGroupDescriptor(-2, (), False)


@pytest.mark.parametrize("flag", ["yes", 1, None])
def test_descriptor_refuses_a_non_bool_scalar_factor(flag):
    # unchecked, "yes" would print as "k*"
    with pytest.raises(TypeError):
        AbelianGroupDescriptor(1, (), flag)


def test_cochain_writes_a_long_scalar_as_units_do():
    # 5,001 digits: more than str() writes under the default limit of 4,300
    long = 10**5000
    assert HarrisonCochain.from_data(1, long, [(1,), (-2,)]).to_dict() == {
        "scalar": format_coefficient(long), "elements": [[1], [-2]]
    }
    assert HarrisonCochain.from_data(1, Fraction(-3, 7), [(1,)]).to_dict()["scalar"] == "-3/7"
