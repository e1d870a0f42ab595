"""Work counts as contracts: exact numbers of calls on fixed seeds.

A count repeats exactly where a timing drifts, so a cost that comes back
fails here even when no benchmark could tell it from noise.  Each count
wraps a module global or a method with ``monkeypatch``.
"""

import dataclasses
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg import harrison, homcat, laurent
from qbialg import matrices as mat
from qbialg import quasibialgebra as qb
from qbialg.harrison import HarrisonCochain, boundary, boundary_closed_form
from qbialg.homcat import (
    HTILDE_STRUCTURE,
    HomObject,
    MonoidalParams,
    StructureMaps,
    check_coherence,
    compare_structures,
)
from qbialg.laurent import AlgebraMapSpec, TensorElement, UnitElement, apply_algebra_map_on_leg
from qbialg.quasibialgebra import (
    CanonicalTriple,
    QuasiBialgebraPresentation,
    canonical,
    find_trivializing_twist,
    normalize,
    ordinary,
    twist,
    verify,
)
from qbialg.rmatrix import solve_R, verify_R

COHERENT = [MonoidalParams(Fraction(2), 1, 1), MonoidalParams(Fraction(1, 2), -2, 3), HTILDE_STRUCTURE]
# outside the family: a nonzero middle associator exponent breaks the pentagon
OUTSIDE = StructureMaps((1, 1, -1), Fraction(2), 1, Fraction(2), 1, (0, 0))


def _pool():
    """Infinite and finite order, so that no count depends on the kind of object."""
    return [
        HomObject(1, ((2,),)),
        HomObject(2, ((1, 1), (0, 1))),
        HomObject(2, ((0, 1), (1, 0))),
        HomObject(2, ((-1, 0), (0, -1))),
    ]


def _count(monkeypatch, owner, name) -> list:
    """Count the calls of owner.name from now on; the count is calls[0]."""
    calls = [0]
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("s", COHERENT, ids=["q2_a1_b1", "q1/2_a-2_b3", "htilde"])
@pytest.mark.parametrize("pooled", [False, True], ids=["sampled", "pool"])
def test_coherence_builds_no_matrix_and_no_map(monkeypatch, s, pooled):
    """The words decide every instance of a coherent structure: no side is
    multiplied out, and no sampled object or map is built, so not one
    product is made.  A sampled object is only drawn, once per slot."""
    pool = _pool() if pooled else []
    to_matrix = _count(monkeypatch, homcat._LegMap, "to_matrix")
    morphisms = _count(monkeypatch, homcat.HomMorphism, "__post_init__")
    objects = _count(monkeypatch, homcat.HomObject, "__post_init__")
    muls = _count(monkeypatch, mat, "mul")
    drawn = _count(monkeypatch, homcat, "_draw_object")
    assert check_coherence(s, pool, trials=5, seed=3).ok
    assert (to_matrix[0], morphisms[0], objects[0], muls[0]) == (0, 0, 0, 0)
    # 5 trials of 4 + 2 + 3 + 3 + 2 + 3 + 1 + 2 objects, unless they come from the pool
    assert drawn[0] == (0 if pooled else 5 * 20)


@pytest.mark.parametrize("pooled", [False, True], ids=["sampled", "pool"])
def test_sampling_makes_no_public_draw(monkeypatch, pooled):
    """Every draw is ``homcat``'s rejection step on ``getrandbits``: neither
    check makes a ``randrange``, ``randint`` or ``choice`` call, a Python
    frame or three per draw, on a coherent structure, on one it leaves
    open, or in a comparison."""
    pool = _pool() if pooled else []
    public = [_count(monkeypatch, random.Random, name) for name in ("randrange", "randint", "choice")]
    words = _count(monkeypatch, random.Random, "getrandbits")
    for s in COHERENT:
        assert check_coherence(s, pool, trials=5, seed=3, max_dim=3).ok
    assert not check_coherence(OUTSIDE, pool, trials=2, seed=3, max_dim=2).ok
    assert not compare_structures(COHERENT[0], COHERENT[1], pool, trials=5, seed=3, max_dim=3).identical
    assert [n[0] for n in public] == [0, 0, 0]
    assert words[0] > 0


def test_comparing_a_structure_with_itself_builds_no_matrix(monkeypatch):
    """Every entry is equal by its words, so neither route builds a matrix
    or makes a product, and without a pool no drawn object is built."""
    pool = _pool()
    to_matrix = _count(monkeypatch, homcat._LegMap, "to_matrix")
    muls = _count(monkeypatch, mat, "mul")
    objects = _count(monkeypatch, homcat.HomObject, "__post_init__")
    for s in COHERENT:
        assert compare_structures(s, s, trials=5, seed=3).identical
        assert compare_structures(s, s, pool, trials=5, seed=3).identical
    assert (to_matrix[0], muls[0], objects[0]) == (0, 0, 0)


def _count_builders(monkeypatch) -> dict:
    """A fresh proofs memo, and every builder of ``_AXIOMS`` counted, in the
    table and in the memo alike; returns, by builder name, its calls on
    generic objects and on sampled ones."""
    monkeypatch.setattr(homcat, "_proved", functools.lru_cache(homcat._proved.__wrapped__))
    calls = {}

    def counting(name, build):
        def counted(s, *args, **kwargs):
            # args[0] is a block of one object, or for naturality the sources
            calls[name][isinstance(args[0][0], HomObject)] += 1
            return build(s, *args, **kwargs)

        calls[name] = [0, 0]
        return counted

    axioms = tuple(
        (axiom, n, tuple(counting(f"{axiom}[{i}]", b) for i, b in enumerate(builds)), natural)
        for axiom, n, builds, natural in homcat._AXIOMS
    )
    monkeypatch.setattr(homcat, "_AXIOMS", axioms)
    return calls


@pytest.mark.parametrize("trials", [1, 5, 25])
@pytest.mark.parametrize("s", COHERENT, ids=["q2_a1_b1", "q1/2_a-2_b3", "htilde"])
def test_a_coherent_structure_is_proved_once_and_builds_no_instance(monkeypatch, s, trials):
    """Each builder runs once on generic objects and never on sampled ones."""
    calls = _count_builders(monkeypatch)
    assert check_coherence(s, trials=trials, seed=3).ok
    assert len(calls) == 9 and all(n == [1, 0] for n in calls.values())


@pytest.mark.parametrize("s", COHERENT, ids=["q2_a1_b1", "q1/2_a-2_b3", "htilde"])
def test_an_equal_structure_reuses_the_proof(monkeypatch, s):
    calls = _count_builders(monkeypatch)
    assert check_coherence(s, trials=5, seed=3).ok
    again = dataclasses.replace(s)
    assert again == s and again is not s
    assert check_coherence(again, _pool(), trials=5, seed=4).ok
    assert all(n == [1, 0] for n in calls.values())


@pytest.mark.parametrize("trials", [1, 5])
def test_an_open_axiom_is_built_once_generically_and_never_per_instance(monkeypatch, trials):
    """An open row's instances substitute their objects into the sides the
    proof built, so its builders run once generically and never on a
    sampled instance, like those of a proved row."""
    calls = _count_builders(monkeypatch)
    report = check_coherence(OUTSIDE, _pool(), trials=trials, seed=3)
    assert not dict(report.axioms)["pentagon"][0].passed
    assert calls["pentagon[0]"] == [1, 0]
    # the naturality squares hold outside the family too, and are proved once
    assert [n for name, n in calls.items() if name.startswith("naturality")] == [[1, 0]] * 4
    assert len(calls) == 9 and all(n == [1, 0] for n in calls.values())


@pytest.mark.parametrize("trials", [1, 5])
def test_an_open_axiom_builds_no_map_and_draws_each_naturality_map_once(monkeypatch, trials):
    """Outside the family the pentagon is open and decided on matrices, yet
    no sampled map is built: the naturality squares are proved, so each of
    their objects only makes the draws of its map, once."""
    morphisms = _count(monkeypatch, homcat.HomMorphism, "__post_init__")
    draws = _count(monkeypatch, homcat, "_draw_map")
    report = check_coherence(OUTSIDE, _pool(), trials=trials, seed=3)
    assert not dict(report.axioms)["pentagon"][0].passed
    # 3 + 1 + 2 naturality objects per trial
    assert (morphisms[0], draws[0]) == (0, 6 * trials)


def _count_fractions(monkeypatch) -> list:
    """Count every ``Fraction`` built from now on: through ``__new__`` and,
    on Python 3.12 and later, through ``_from_coprime_ints``, where
    arithmetic builds its results without ``__new__``.  The count is
    calls[0]."""
    calls = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):
        coprime = vars(Fraction)["_from_coprime_ints"].__func__

        def counting_coprime(cls, *args):
            calls[0] += 1
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return calls


def _fraction_texts(report) -> int:
    """The witness entries of a report that are not integers."""
    return sum("/" in e for _, group in report.axioms for i in group for row in i.witness or () for e in row)


@pytest.mark.parametrize("integral", [False, True], ids=["pool", "finite_order_pool"])
def test_a_warm_open_row_forms_a_fraction_only_to_write_one(monkeypatch, integral):
    """A second check on the same pool finds every power, and every power
    with its denominators cleared, in its objects' caches, and its unitor
    scalars are integers: its open rows are compared on ints alone.  It
    forms one ``Fraction`` per non-integral witness entry it writes, and
    none at all where the pool's objects are integral both ways."""
    pool = _pool()[1:] if integral else _pool()
    first = check_coherence(OUTSIDE, pool, trials=5, seed=3)
    cleared = _count(monkeypatch, mat, "cleared")
    fractions = _count_fractions(monkeypatch)
    again = check_coherence(OUTSIDE, pool, trials=5, seed=3)
    assert again == first and not again.ok
    written = _fraction_texts(again)
    assert (written == 0) is integral
    assert (fractions[0], cleared[0]) == (written, 0)


def test_no_kronecker_product_takes_a_one_by_one_factor(monkeypatch):
    """A 1 x 1 leg, the unit's or a scalar object's, folds into the scale of
    its side or ratio, so neither route hands ``kron`` a 1 x 1 factor."""
    factors = []
    kron = mat.kron

    def recording(a, b):
        factors.append((len(a), len(b)))
        return kron(a, b)

    monkeypatch.setattr(mat, "kron", recording)
    for where in ({"objects": _pool()}, {"max_dim": 2}):
        assert not check_coherence(OUTSIDE, trials=5, seed=3, **where).ok
        assert not compare_structures(COHERENT[0], COHERENT[1], trials=5, seed=3, **where).identical
    assert factors and all(1 not in pair for pair in factors)


CANONICAL = pytest.mark.parametrize(
    "h, g", [((1,), (2,)), ((1, -1), (0, 2)), ((1, 0, 2), (-1, 3, 1))], ids=["rank1", "rank2", "rank3"]
)


@CANONICAL
def test_the_presentation_checks_multiply_units_a_fixed_number_of_times(monkeypatch, h, g):
    """``verify`` multiplies units only in the 3-cocycle identity (one product
    on the left, two on the right) and ``verify_R`` only in its two coproduct
    identities (four each), whatever the rank: every other axiom compares
    leg operations.  Neither builds a ``TensorElement``."""
    p = canonical(CanonicalTriple(2, h, g))
    r_elem = solve_R(p)[0]
    products = _count(monkeypatch, UnitElement, "__mul__")
    tensors = _count(monkeypatch, TensorElement, "__init__")
    raw = _count(monkeypatch, laurent, "_raw")
    assert verify(p).ok
    assert (products[0], tensors[0], raw[0]) == (3, 0, 0)
    assert verify_R(p, r_elem).ok
    assert (products[0], tensors[0], raw[0]) == (3 + 8, 0, 0)


@CANONICAL
def test_a_group_like_coproduct_copies_exponents(monkeypatch, h, g):
    """A canonical coproduct is group-like, so each of its images in
    ``verify``, ``twist`` and ``verify_R`` copies an exponent vector into
    both legs: not one vector is scaled, whatever the rank."""
    p = canonical(CanonicalTriple(2, h, g))
    trivializer = find_trivializing_twist(p)
    r_elem = solve_R(p)[0]
    alpha = UnitElement(p.rank, Fraction(3, 2), (g, h))
    scaled = _count(monkeypatch, laurent, "_vscale")
    assert verify(p).ok
    assert twist(p, trivializer) == ordinary(p.rank)
    assert verify(twist(p, alpha)).ok
    assert verify_R(p, r_elem).ok
    assert scaled[0] == 0


def test_a_map_that_is_not_group_like_multiplies_out_its_images(monkeypatch):
    """g to g (x) g^2 is no copy: its image of g^2 scales the image's two legs."""
    squaring = AlgebraMapSpec(1, 2, (UnitElement(1, 1, ((1,), (2,))),))
    scaled = _count(monkeypatch, laurent, "_vscale")
    image = apply_algebra_map_on_leg(squaring, UnitElement(1, 3, ((2,),)), 1)
    assert image == UnitElement(1, 3, ((2,), (4,)))
    assert scaled[0] == 2


@pytest.mark.parametrize("route", [boundary, boundary_closed_form], ids=["boundary", "closed_form"])
def test_a_computed_cochain_reads_no_more_at_a_higher_degree(monkeypatch, route):
    """The boundary of a cochain is built from valid ones, so it calls
    ``read_bounded`` as often at degree 24 as at degree 1, and never reads
    a unit."""
    cochains = [HarrisonCochain.from_data(2, Fraction(3, 2), [[k, 1 - k] for k in range(n)]) for n in (1, 8, 24)]
    bounded = [_count(monkeypatch, m, "read_bounded") for m in (laurent, harrison)]
    units = [_count(monkeypatch, m, "_read_unit") for m in (laurent, harrison)]
    reads = []
    for c in cochains:
        before = sum(n[0] for n in bounded)
        route(c)
        reads.append(sum(n[0] for n in bounded) - before)
    assert reads == [reads[0]] * 3
    assert sum(n[0] for n in units) == 0


def test_the_trivializing_twist_is_derived_once_per_presentation(monkeypatch):
    """``solve_R`` reuses the twist its caller just found, and so does an
    equal presentation built separately, through the readers or not."""
    monkeypatch.setattr(qb, "_trivializing_twist", functools.lru_cache(maxsize=16)(qb._trivializing_twist.__wrapped__))
    twists = _count(monkeypatch, qb, "twist")
    p = canonical(CanonicalTriple(2, (1, -1), (0, 2)))
    alpha = find_trivializing_twist(p)
    (r_elem,) = solve_R(p)
    assert twists[0] == 1
    for again in (canonical(CanonicalTriple(2, (1, -1), (0, 2))), QuasiBialgebraPresentation.from_dict(p.to_dict())):
        assert again == p and again is not p
        assert find_trivializing_twist(again) is alpha
        assert solve_R(again) == [r_elem]
    assert twists[0] == 1
    assert qb._trivializing_twist.cache_info()[:2] == (5, 1)  # hits, misses


@CANONICAL
def test_an_equal_coalgebra_reuses_its_rows(monkeypatch, h, g):
    """``verify``'s per-generator rows read only the coalgebra part, so a
    second presentation with an equal coalgebra, rebuilt through
    ``from_dict``, applies only the counital row's counit and the cocycle
    row's three maps: 1 and 3 calls, not 1 + 2r and 3 + 2r."""
    monkeypatch.setattr(qb, "_coalgebra_checks", functools.lru_cache(maxsize=16)(qb._coalgebra_checks.__wrapped__))
    p = canonical(CanonicalTriple(2, h, g))
    again = QuasiBialgebraPresentation.from_dict(p.to_dict())
    assert again == p and again.coproduct is not p.coproduct and again.counit is not p.counit
    counits = _count(monkeypatch, qb, "apply_counit_on_leg")
    maps = _count(monkeypatch, qb, "apply_algebra_map_on_leg")
    report = verify(p)
    assert report.ok and (counits[0], maps[0]) == (1 + 2 * p.rank, 3 + 2 * p.rank)
    assert verify(again) == report
    assert (counits[0], maps[0]) == (2 + 2 * p.rank, 6 + 2 * p.rank)
    assert qb._coalgebra_checks.cache_info()[:2] == (1, 1)  # hits, misses


_SCALARS = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-1, 3)])


@st.composite
def forced_forms(draw):
    """Two to four presentations of one rank, each with coproduct
    c_i g_i (x) g_i and a counit drawn apart from it: a counit law fails,
    with its witnesses, unless c_i ε_i = 1.  The scalars are few, so two
    presentations often share a coproduct or a counit but not both."""
    rank = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(-2, 2)] * rank)
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    out = []
    for _ in range(draw(st.integers(2, 4))):
        base = canonical(CanonicalTriple(draw(_SCALARS), draw(vector), draw(vector)))
        coproduct = AlgebraMapSpec(rank, 2, tuple(UnitElement(rank, draw(_SCALARS), (e, e)) for e in basis))
        counit = laurent.CounitSpec(rank, tuple(draw(_SCALARS) for _ in basis))
        out.append(dataclasses.replace(base, coproduct=coproduct, counit=counit))
    return out


@settings(max_examples=80, deadline=None)
@given(forced_forms())
def test_a_warm_memo_reports_what_a_cold_one_does(ps):
    """Rows served from the coalgebra memo, filled by every presentation of
    the draw, equal the rows derived after ``cache_clear``, witnesses too."""
    for p in ps:
        verify(p)
    warm = [verify(p) for p in ps]
    cold = []
    for p in ps:
        qb._coalgebra_checks.cache_clear()
        cold.append(verify(p))
    assert warm == cold and [r.to_list() for r in warm] == [r.to_list() for r in cold]
    assert all(c.lhs is not None and c.rhs is not None for r in cold for c in r.failed())


def test_normalize_builds_one_map(monkeypatch):
    """A ``BialgebraIso`` builds its map once, with the iso, so ``normalize``
    reads one ``AlgebraMapSpec`` for φ, λ and ρ together, not one each."""
    base = canonical(CanonicalTriple(2, (1, -1), (0, 2)))  # builds ordinary(2) before the count
    eps = (Fraction(2), Fraction(-1, 3))
    coproduct = AlgebraMapSpec(2, 2, tuple(UnitElement(2, 1 / e, (v, v)) for e, v in zip(eps, ((1, 0), (0, 1)))))
    p = dataclasses.replace(base, coproduct=coproduct, counit=laurent.CounitSpec(2, eps))
    maps = _count(monkeypatch, laurent.AlgebraMapSpec, "__post_init__")
    iso, flat = normalize(p)
    assert maps[0] == 1
    assert [u.scalar for u in iso.generator_images] == list(eps)
    assert iso.as_map() is iso.as_map() and flat.coproduct is ordinary(2).coproduct
