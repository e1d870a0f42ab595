import dataclasses
import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg import matrices as mat
from qbialg.homcat import (
    COHERENCE_AXIOMS,
    HTILDE_STRUCTURE,
    PLAIN_STRUCTURE,
    HomMorphism,
    HomObject,
    MonoidalParams,
    StructureMaps,
    associator,
    braiding,
    check_coherence,
    compare_structures,
    from_module_action,
    hexagon_backward_sides,
    hexagon_forward_sides,
    left_unitor,
    naturality_associator_sides,
    naturality_braiding_sides,
    naturality_unitor_sides,
    pentagon_sides,
    random_morphism,
    random_object,
    random_unimodular,
    right_unitor,
    structure_maps,
    symmetry_sides,
    tensor_obj,
    triangle_sides,
    unit_object,
    _below,
    _decide,
    _draw_map,
    _elementary_ops,
    _LegMap,
    _blocks,
    _maps_legs,
    _same_matrix,
)
from qbialg.laurent import NotAUnit, format_coefficient
from qbialg.matrices import NotInvertible

PARAM_SETS = [
    MonoidalParams(Fraction(1), 0, 0),
    MonoidalParams(Fraction(1), 1, -1),
    MonoidalParams(Fraction(2), 1, 1),
    MonoidalParams(Fraction(1, 2), -2, 3),
]


def frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def obj(rows):
    m = frac_rows(rows)
    return HomObject(len(m), m)


def test_object_validation():
    with pytest.raises(NotInvertible):
        HomObject(2, frac_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        HomObject(3, frac_rows([[1, 0], [0, 1]]))
    # a matrix that is not an array is refused by name, before any iteration
    with pytest.raises(TypeError, match=r"^matrix: expected an array, got int$"):
        HomObject(1, 5)


def test_morphism_validation():
    x = obj([[2]])
    ok = HomMorphism(x, x, frac_rows([[5]]))
    assert ok.matrix == frac_rows([[5]])
    a = obj([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        HomMorphism(a, a, frac_rows([[0, 1], [1, 0]]))  # does not commute with the shear
    with pytest.raises(ValueError):
        HomMorphism(x, a, frac_rows([[1]]))  # shape mismatch
    # a map that is not an array is refused by name, before any iteration
    with pytest.raises(TypeError, match=r"^matrix: expected an array, got int$"):
        HomMorphism(x, x, 5)
    # and so is a row that is not an array, or rows of two lengths
    with pytest.raises(TypeError, match=r"^matrix\[1\]: expected an array, got int$"):
        HomMorphism(x, x, ((1, 0), 7))
    with pytest.raises(TypeError, match=r"^matrix\[1\]: expected an array, got int$"):
        HomObject(2, ((1, 0), 5))
    with pytest.raises(ValueError, match=r"^matrix: ragged rows$"):
        HomMorphism(a, a, ((1, 0), (0,)))
    with pytest.raises(ValueError, match=r"^matrix: ragged rows$"):
        HomObject(2, ((1, 0), (1,)))


# the four constraints refuse an object by their own parameter name:
# left_unitor's x, though it is the y of I (x) X, and associator's z
@pytest.mark.parametrize(
    "call, field, got",
    [
        (lambda x: tensor_obj(x, None), "y", "NoneType"),
        (lambda x: HomMorphism(None, x, ((1,),)), "source", "NoneType"),
        (lambda x: HomMorphism(x, 2, ((1,),)), "target", "int"),
        (lambda x: associator(PLAIN_STRUCTURE, x, x, "y"), "z", "str"),
        (lambda x: associator(PLAIN_STRUCTURE, None, x, x), "x", "NoneType"),
        (lambda x: braiding(PLAIN_STRUCTURE, x, 3), "y", "int"),
        (lambda x: left_unitor(PLAIN_STRUCTURE, None), "x", "NoneType"),
        (lambda x: right_unitor(PLAIN_STRUCTURE, None), "x", "NoneType"),
        (lambda x: random_morphism(random.Random(0), None), "x", "NoneType"),
    ],
    ids=[
        "tensor_obj", "morphism_source", "morphism_target", "associator", "associator_x",
        "braiding", "left_unitor", "right_unitor", "random_morphism",
    ],
)
def test_a_wrong_type_operand_is_refused_by_its_field(call, field, got):
    with pytest.raises(TypeError, match=rf"^{field}: expected a HomObject, got {got}$"):
        call(obj([[2]]))


def test_params_validation():
    with pytest.raises(NotAUnit, match=r"^q: must be nonzero"):
        MonoidalParams(Fraction(0), 1, 1)
    # exact scalars and integer exponents only, as everywhere else
    assert MonoidalParams("1/2", -2, 3) == MonoidalParams(Fraction(1, 2), -2, 3)
    assert type(MonoidalParams(2, 1, 1).q) is Fraction
    with pytest.raises(TypeError):
        MonoidalParams(0.1, 0, 0)  # would become 3602879701896397/36028797018963968
    with pytest.raises(ValueError):
        MonoidalParams("1e5", 0, 0)  # exponent notation
    with pytest.raises(TypeError):
        MonoidalParams(Fraction(1), 1.5, 0)  # would truncate to 1
    with pytest.raises(TypeError):
        MonoidalParams(Fraction(1), 0, 1.5)
    # StructureMaps takes the same path, and a zero unitor scalar is refused
    plain = StructureMaps([0, 0, 0], 1, 0, "1", 0, [0, 0])
    assert plain == PLAIN_STRUCTURE and type(plain.left_scalar) is Fraction
    with pytest.raises(NotAUnit, match=r"^left_scalar: must be nonzero"):
        StructureMaps((0, 0, 0), 0, 0, 1, 0, (0, 0))
    for bad, error in (
        (dict(left_scalar=0.1), TypeError),  # would check with 3602879701896397/2**55
        (dict(right_scalar="1e5"), ValueError),  # exponent notation
        (dict(assoc_exp=(0.5, 0, 0)), TypeError),
        (dict(left_exp=1.5), TypeError),
        (dict(braid_exp=(0, 0.5)), TypeError),
        (dict(assoc_exp=(0, 0)), ValueError),
        (dict(braid_exp=(0, 0, 0)), ValueError),
    ):
        with pytest.raises(error):
            dataclasses.replace(PLAIN_STRUCTURE, **bad)


def test_tensor_obj_and_unit():
    x = obj([[2]])
    y = obj([[1, 1], [0, 1]])
    t = tensor_obj(x, y)
    assert t.dim == 2
    assert t.matrix == frac_rows([[2, 2], [0, 2]])
    assert unit_object().matrix == frac_rows([[1]])
    # cached powers are not part of an object's value
    assert t.power(3) == mat.power(t.matrix, 3) and t.power(-2) == mat.power(t.matrix, -2)
    assert t == HomObject(2, t.matrix) and hash(t) == hash(HomObject(2, t.matrix))


def test_from_module_action_goldens():
    w = from_module_action(mat.identity(3))
    assert (w.dim, w.matrix) == (3, mat.identity(3))
    w2 = from_module_action(frac_rows([[2]]))
    assert (w2.dim, w2.matrix) == (1, frac_rows([[2]]))
    with pytest.raises(NotInvertible):
        from_module_action(frac_rows([[1, 0]]))
    with pytest.raises(NotInvertible):
        from_module_action(frac_rows([[0]]))


def test_module_tensor_compatibility():
    # tensoring module actions matches tensoring their images
    rng = random.Random(50)
    for _ in range(30):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = random_unimodular(rng, da)[0]
        b = random_unimodular(rng, db)[0]
        assert tensor_obj(from_module_action(a), from_module_action(b)) == from_module_action(
            mat.kron(a, b)
        )


def test_constraint_matrices_one_dim():
    p = MonoidalParams(Fraction(3), 1, 2)
    x, y, z = obj([[2]]), obj([[5]]), obj([[7]])
    assert associator(p, x, y, z).matrix == frac_rows([[2 * 49]])
    assert left_unitor(p, x).matrix == frac_rows([[Fraction(3, 4)]])
    assert right_unitor(p, x).matrix == frac_rows([[6]])
    assert braiding(p, x, y).matrix == frac_rows([[8 * Fraction(1, 125)]])
    # the unitors pass through the unit's leg, and still run from x to x
    shear = obj([[1, 1], [0, 1]])
    for unitor in (left_unitor, right_unitor):
        for z in (x, shear):
            m = unitor(p, z)
            assert m.source == z and m.target == z
    assert left_unitor(p, shear).matrix == frac_rows([[3, -6], [0, 3]])  # 3 f^-2
    assert right_unitor(p, shear).matrix == frac_rows([[3, 3], [0, 3]])  # 3 f


def test_braiding_flips_factors():
    p = MonoidalParams(Fraction(1), 0, 0)
    x = obj([[1, 1], [0, 1]])
    y = obj([[3]])
    c = braiding(p, x, y)
    assert c.source.dim == c.target.dim == 2
    assert c.matrix == mat.flip(2, 1)


def test_structure_maps_coercion():
    s = structure_maps(MonoidalParams(Fraction(1), 1, -1))
    assert s == StructureMaps((1, 0, -1), Fraction(1), 1, Fraction(1), 1, (0, 0))
    assert s == HTILDE_STRUCTURE
    assert structure_maps(PLAIN_STRUCTURE) is PLAIN_STRUCTURE
    with pytest.raises(TypeError):
        structure_maps(42)


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(max_denominator=1000).filter(bool) | st.integers(-9, 9).filter(bool) | st.just("-3/7"),
    st.integers(-100, 100),
    st.integers(-100, 100),
)
def test_a_family_structure_built_without_the_readers_is_the_read_one(q, a, b):
    """structure_maps builds a family member from already read parameters
    without the readers; it is the StructureMaps the readers build, field
    for field and type for type, and the proofs memo keeps one entry for both."""
    from qbialg import homcat

    p = MonoidalParams(q, a, b)
    raw = structure_maps(p)
    read = StructureMaps((a, 0, b), q, -b, q, a, (a + b, -(a + b)))
    assert raw == read and hash(raw) == hash(read)
    assert vars(raw) == vars(read) and repr(raw) == repr(read)
    homcat._proved(raw)
    hits = homcat._proved.cache_info().hits
    assert homcat._proved(read) is homcat._proved(raw)
    assert homcat._proved.cache_info().hits == hits + 2


# -- the draws against the public calls of random.Random ---------------------
#
# The sampler draws through the stdlib's rejection step on getrandbits.  The
# public calls it stands for stay here, as the oracle: the sampler written
# through randrange, randint and choice.


def _public_ops(rng, n):
    """The elementary operations of one unimodular draw, by the public calls."""
    ops = []
    for _ in range(6):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            ops.append((0, i, j, rng.choice((-1, 1))))
        elif kind == 1 and i != j:
            ops.append((1, i, j, 0))
        elif kind == 2:
            ops.append((2, i, j, 0))
    return ops


def _public_draw_map(rng, n):
    """The draws of one intertwiner out of an object of dimension n, by the public calls."""
    ops = _public_ops(rng, n)
    coeffs = [rng.randint(-1, 1) for _ in range(3)]
    if not any(coeffs):
        coeffs[rng.randrange(3)] = 1
    return ops, coeffs


def _unimodular_of(ops, n):
    """u alone: the operations applied in turn to the rows of the identity, on lists."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j, c in ops:
        if kind == 0:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return tuple(tuple(r) for r in rows)


def test_the_kernel_draws_what_the_public_calls_draw():
    """On this Python, the rejection step on getrandbits gives what
    randrange(n), randint(-1, 1), randint(1, n) and choice give, value for
    value, and leaves the generator in the same state."""
    for seed in range(200):
        rng, copy = random.Random(seed), random.Random(seed)
        bits = rng.getrandbits
        for n in range(1, 10):
            seq = tuple(range(10, 10 + n))
            assert _below(bits, n) == copy.randrange(n)
            assert _below(bits, 3) - 1 == copy.randint(-1, 1)
            assert 1 + _below(bits, n) == copy.randint(1, n)
            assert seq[_below(bits, n)] == copy.choice(seq)
            assert _elementary_ops(rng, n) == _public_ops(copy, n)
        assert rng.getstate() == copy.getstate()


def test_the_samplers_draw_what_the_public_calls_draw():
    for seed in range(200):
        rng, copy = random.Random(seed), random.Random(seed)
        for n in range(1, 10):
            assert _draw_map(rng, n) == _public_draw_map(copy, n)
            assert random_unimodular(rng, n)[0] == _unimodular_of(_public_ops(copy, n), n)
        for max_dim in range(1, 5):
            x = random_object(rng, max_dim)
            n = copy.randint(1, max_dim)
            assert x == HomObject(n, _unimodular_of(_public_ops(copy, n), n))
            y, m = random_morphism(rng, x)
            target, _, expected = _product_route(copy, x)
            assert (y.matrix, m) == (target, expected)
        assert rng.getstate() == copy.getstate()


def test_random_unimodular_has_unimodular_inverse():
    # u^-1 comes with u, and u from the very draws of the elementary loop
    for n in range(1, 5):
        for seed in range(60):
            rng, copy = random.Random(seed), random.Random(seed)
            u, inv = random_unimodular(rng, n)
            assert u == _unimodular_of(_public_ops(copy, n), n)
            assert rng.getstate() == copy.getstate()
            assert inv == mat.inverse(u)
            assert mat.mul(u, inv) == mat.identity(n) == mat.mul(inv, u)
            assert all(type(x) is int for m in (u, inv) for row in m for x in row)


def test_random_morphism_intertwines():
    rng = random.Random(52)
    for _ in range(25):
        x = random_object(rng, 3)
        y, m = random_morphism(rng, x)
        HomMorphism(x, y, m)  # raises if the intertwining fails
        assert y.power(-1) == mat.inverse(y.matrix)  # the known inverse it was built with


def test_known_inverse_is_certified_by_one_product():
    u, inv = random_unimodular(random.Random(7), 3)
    x = HomObject(3, u, inv)
    assert x == HomObject(3, u) and x.power(-1) == inv == mat.inverse(u)
    with pytest.raises(ValueError, match="known_inverse"):
        HomObject(3, u, mat.scale(-1, inv))
    with pytest.raises(ValueError, match="known_inverse"):
        HomObject(3, u, tuple(row[:2] for row in inv))  # 3x2
    # a wrong shape is refused by name before the product is tried
    with pytest.raises(ValueError, match=r"^known_inverse must be 3x3, got \(2, 3\)$"):
        HomObject(3, u, inv[:2])  # 2x3
    with pytest.raises(ValueError, match=r"^known_inverse must be 2x2, got \(1, 1\)$"):
        HomObject(2, mat.identity(2), ((1,),))
    with pytest.raises(TypeError, match=r"^known_inverse: expected an array, got int$"):
        HomObject(1, ((1,),), 5)
    with pytest.raises(TypeError, match=r"^known_inverse\[1\]: expected an array, got int$"):
        HomObject(2, mat.identity(2), ((1, 0), 5))
    with pytest.raises(ValueError, match=r"^known_inverse: ragged rows$"):
        HomObject(2, mat.identity(2), ((1, 0), (1,)))
    singular = frac_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="known_inverse"):
        HomObject(2, singular, mat.identity(2))
    with pytest.raises(NotInvertible):
        HomObject(2, singular)


# automorphisms of dimension 1 with rational and integer entries, and of
# dimensions 2 to 4 with rational ones: the sampler's replay must agree
# with dense products on Fractions as well as on ints
_ORACLE_OBJECTS = [obj([[c]]) for c in (Fraction(1, 2), Fraction(-1, 3), 3, -1, 1)] + [
    HomObject(n, mat.scale(Fraction(1, 2), random_unimodular(random.Random(n), n)[0]))
    for n in range(2, 5)
]


def _product_route(rng, x):
    """random_morphism's target, its inverse and its map by dense products
    with u and u^-1, from the public calls the sampler's draws stand for."""
    n = x.dim
    ops, coeffs = _public_draw_map(rng, n)
    u = _unimodular_of(ops, n)
    u_inv = mat.inverse(u)
    f = x.matrix
    terms = [mat.scale(c, m) for c, m in zip(coeffs, (mat.identity(n), f, mat.mul(f, f)))]
    poly = functools.reduce(lambda a, b: mat.sub(a, mat.scale(-1, b)), terms)

    def conj(m):
        return mat.mul(mat.mul(u, m), u_inv)

    return conj(f), conj(mat.inverse(f)), mat.mul(u, poly)


def test_random_morphism_agrees_with_the_product_route():
    objects = _ORACLE_OBJECTS + [random_object(random.Random(s), 4) for s in range(12)]
    for x in objects:
        for seed in range(60):
            rng, copy = random.Random(seed), random.Random(seed)
            y, m = random_morphism(rng, x)
            target, target_inv, expected = _product_route(copy, x)
            assert rng.getstate() == copy.getstate()
            assert y.matrix == target and y.power(-1) == target_inv
            assert m == expected
            HomMorphism(x, y, m)


def _copy(rng):
    copy = random.Random()
    copy.setstate(rng.getstate())
    return copy


def test_a_wrong_column_replay_is_caught_by_the_known_inverse(monkeypatch):
    """Skipping the first row addition in the column replay conjugates the
    target and its known inverse by E on the left but by a different w on
    the right.  The one-product certification refuses every such pair
    that is not a true inverse pair.  The pair is one only when f conjugates
    the transvection w^-1 E to its inverse, as a finite-order f such as
    diag(-1, 1) can; ``HomMorphism`` then refuses the map E p(f) unless
    (w^-1 E - I) p(f) = 0, which a singular p(f) allows.  Such a target
    still differs from E f E^-1, which the product-route oracle above
    catches."""
    from qbialg import homcat

    replay = homcat._undo_columns

    def skip_first_addition(ops, m):
        first = next((k for k, op in enumerate(ops) if op[0] == 0), None)
        return replay(ops if first is None else ops[:first] + ops[first + 1:], m)

    caught = refused = slipped = 0
    for seed in range(300):
        rng = random.Random(seed)
        x = random_object(rng, 4)
        ops = homcat._elementary_ops(_copy(rng), x.dim)
        if not any(op[0] == 0 for op in ops):
            continue
        e = _unimodular_of(_public_ops(_copy(rng), x.dim), x.dim)
        w_inv = skip_first_addition(ops, mat.identity(x.dim))
        wrong = [mat.mul(mat.mul(e, m), w_inv) for m in (x.matrix, x.power(-1))]
        with monkeypatch.context() as patch:
            patch.setattr(homcat, "_undo_columns", skip_first_addition)
            if mat.mul(*wrong) != mat.identity(x.dim):
                with pytest.raises(ValueError, match="known_inverse"):
                    random_morphism(rng, x)
                caught += 1
            else:
                try:
                    y, _ = random_morphism(rng, x)
                except ValueError as err:
                    assert str(err) == "map does not intertwine the marked automorphisms"
                    refused += 1
                else:
                    assert y.matrix == wrong[0] != mat.mul(mat.mul(e, x.matrix), mat.inverse(e))
                    slipped += 1
    # seeds 0-299 give 165 draws with an addition: 148 refused by the known
    # inverse; of the 17 true inverse pairs, HomMorphism refuses 14
    assert (caught, refused, slipped) == (148, 14, 3)


def test_coherence_all_params():
    for p in PARAM_SETS:
        report = check_coherence(p, trials=6, seed=99)
        assert report.ok
        assert {name for name, _ in report.axioms} == set(COHERENCE_AXIOMS)


def test_coherence_uses_supplied_objects():
    pool = [obj([[2]]), obj([[1, 1], [0, 1]])]
    report = check_coherence(PARAM_SETS[2], pool, trials=4, seed=1)
    assert report.ok
    dims = {d for _, group in report.axioms for inst in group for d in inst.dims}
    assert dims <= {1, 2}


def test_report_serialization():
    report = check_coherence(PARAM_SETS[1], trials=2, seed=3)
    data = report.to_dict()
    assert data["ok"] and data["seed"] == 3 and data["trials"] == 2
    assert len(data["axioms"]) == len(COHERENCE_AXIOMS)
    for group in data["axioms"]:
        assert all(inst["witness"] is None for inst in group["instances"])


# -- negative controls: corrupt one exponent on one side only ---------------


def _witness_objects():
    # 1-dim objects with distinct scalars so every exponent change shows up
    return obj([[2]]), obj([[3]]), obj([[5]]), obj([[7]])


def _corrupt(s, field, delta=1):
    value = getattr(s, field)
    if isinstance(value, tuple):
        bumped = (value[0] + delta,) + value[1:]
    else:
        bumped = value + delta
    return dataclasses.replace(s, **{field: bumped})


def test_pentagon_detects_single_side_corruption():
    s = structure_maps(PARAM_SETS[2])
    u, v, w, x = _witness_objects()
    lhs_bad, _ = pentagon_sides(_corrupt(s, "assoc_exp"), u, v, w, x)
    _, rhs = pentagon_sides(s, u, v, w, x)
    assert lhs_bad != rhs
    lhs, _ = pentagon_sides(s, u, v, w, x)
    assert lhs == rhs


def test_triangle_detects_corruption():
    s = structure_maps(PARAM_SETS[2])
    v, w, _, _ = _witness_objects()
    lhs_bad, _ = triangle_sides(_corrupt(s, "left_exp"), v, w)
    _, rhs = triangle_sides(s, v, w)
    assert lhs_bad != rhs


def test_hexagons_detect_corruption():
    s = structure_maps(PARAM_SETS[2])
    u, v, w, _ = _witness_objects()
    for sides in (hexagon_forward_sides, hexagon_backward_sides):
        lhs_bad, _ = sides(_corrupt(s, "braid_exp"), u, v, w)
        _, rhs = sides(s, u, v, w)
        assert lhs_bad != rhs


def test_symmetry_detects_corruption():
    s = structure_maps(PARAM_SETS[2])
    u, v, _, _ = _witness_objects()
    lhs_bad, _ = symmetry_sides(_corrupt(s, "braid_exp"), u, v)
    _, rhs = symmetry_sides(s, u, v)
    assert lhs_bad != rhs


def test_naturality_detects_corruption():
    s = structure_maps(PARAM_SETS[2])
    u, v, w, _ = _witness_objects()
    rng = random.Random(8)
    mors = [random_morphism(rng, o) for o in (u, v, w)]
    targets = tuple(m[0] for m in mors)
    maps = tuple(m[1] for m in mors)

    bad = _corrupt(s, "assoc_exp")
    lhs_bad, _ = naturality_associator_sides(bad, (u, v, w), targets, maps)
    _, rhs = naturality_associator_sides(s, (u, v, w), targets, maps)
    assert lhs_bad != rhs

    bad = _corrupt(s, "left_exp")
    lhs_bad, _ = naturality_unitor_sides(bad, u, targets[0], maps[0], "left")
    _, rhs = naturality_unitor_sides(s, u, targets[0], maps[0], "left")
    assert lhs_bad != rhs
    # a unitor is "left" or "right"; any other side is refused, not read as "right"
    with pytest.raises(ValueError, match="^side must be 'left' or 'right', got 'up'$"):
        naturality_unitor_sides(s, u, targets[0], maps[0], "up")

    bad = _corrupt(s, "braid_exp")
    lhs_bad, _ = naturality_braiding_sides(bad, (u, v), targets[:2], maps[:2])
    _, rhs = naturality_braiding_sides(s, (u, v), targets[:2], maps[:2])
    assert lhs_bad != rhs


def test_corrupt_structure_fails_check_coherence():
    # symmetric corruption is visible outside the pentagon
    s = _corrupt(structure_maps(PARAM_SETS[2]), "braid_exp")
    report = check_coherence(s, [obj([[2]])], trials=2, seed=0)
    assert not report.ok
    bad = [inst for _, group in report.axioms for inst in group if not inst.passed]
    assert bad and all(inst.witness is not None for inst in bad)


# -- structure comparison ----------------------------------------------------


def test_htilde_is_the_one_minus_one_structure():
    report = compare_structures(HTILDE_STRUCTURE, PARAM_SETS[1], trials=8, seed=5)
    assert report.identical
    assert all(e.ratio is None for e in report.entries)


def test_compare_distinguishes_structures():
    x, z = obj([[2]]), obj([[3]])
    report = compare_structures(
        PLAIN_STRUCTURE, HTILDE_STRUCTURE, objects=[x, z], trials=6, seed=6
    )
    assert not report.identical
    unequal = [e for e in report.entries if not e.equal]
    assert unequal and all(e.ratio is not None for e in unequal)


def test_compare_ratio_witness_value():
    # one object with f = 2: the unitor ratio is exactly the power of f
    report = compare_structures(
        PLAIN_STRUCTURE, HTILDE_STRUCTURE, objects=[obj([[2]])], trials=1, seed=0
    )
    entry = next(e for e in report.entries if e.constraint == "left_unitor")
    assert not entry.equal
    assert entry.ratio == (("2",),)


def test_compare_determinism():
    a = compare_structures(PLAIN_STRUCTURE, HTILDE_STRUCTURE, trials=5, seed=9).to_dict()
    b = compare_structures(PLAIN_STRUCTURE, HTILDE_STRUCTURE, trials=5, seed=9).to_dict()
    assert a == b


def test_compare_braiding_ratio_matches_full_matrices():
    # the braiding carries a leg permutation, so its leg-wise ratio must be
    # conjugated by it; compare against second . first^-1 on full matrices
    x = obj([[1, 1], [0, 1]])
    y = obj([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    first, second = PARAM_SETS[2], PLAIN_STRUCTURE
    report = compare_structures(first, second, objects=[x, y], trials=1, seed=0)
    (entry,) = [e for e in report.entries if e.constraint == "braiding"]
    assert entry.dims == (2, 3) and not entry.equal
    m1 = braiding(first, x, y).matrix
    m2 = braiding(second, x, y).matrix
    expect = mat.mul(m2, mat.inverse(m1))
    assert entry.ratio == tuple(tuple(str(v) for v in row) for row in expect)


# -- the normal form on exponents against full matrices ----------------------


def _finite_order(n):
    """-I, and the cyclic shift of the coordinates (a swap for n = 2)."""
    shift = tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))
    return (mat.scale(-1, mat.identity(n)), shift)


@st.composite
def hom_objects(draw, max_dim=3):
    n = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(("random", "minus", "shift")))
    if kind == "random":
        return HomObject(n, *random_unimodular(random.Random(draw(st.integers(0, 2**32))), n))
    return HomObject(n, _finite_order(n)[kind == "shift"])


def _power(x, e):
    """f_x^e as a one-leg leg map."""
    return _blocks(((x,),), (e,))


def _factors(objs, maps, exps, foreign=None):
    """The factors of f_{X_k}^{e_k} m_k ... m_1 f_{X_0}^{e_0}, leftmost first,
    each a pair (one-leg leg map, its matrix); with a foreign object Z of
    X_0's dimension the word goes on as f_{X_0}^{e_0} f_Z f_{X_0}^{e_{k+1}}."""
    factors = []
    for j in range(len(objs) - 1, -1, -1):
        factors.append((_power(objs[j], exps[j]), objs[j].power(exps[j])))
        if j:
            factors.append((_maps_legs((maps[j - 1],)), maps[j - 1].matrix))
    if foreign is not None:
        factors.append((_power(foreign, 1), foreign.matrix))
        factors.append((_power(objs[0], exps[-1]), objs[0].power(exps[-1])))
    return factors


def _composed(factors):
    """The factors' leg maps composed with ``after``, checked against the
    product of their matrices."""
    legs = functools.reduce(_LegMap.after, [leg for leg, _ in factors])
    assert legs.to_matrix() == functools.reduce(mat.mul, [m for _, m in factors])
    return legs


@st.composite
def word_pairs(draw):
    """Two sides, each (scalar, perm, one factor list per leg) in powers
    and checked intertwiners; the factor lists of some legs continued
    through a foreign object; and a flag saying whether the composed
    sides agree by construction.

    Per leg, a chain X_0 -> X_1 -> ... of random_morphism maps with a
    power of the right object before and after each map.  The rhs may
    take another map out of X_0, and spreads the same total exponent
    differently or changes it.  A matrix that does not intertwine is
    refused by HomMorphism and only ever enters a factor list as the
    automorphism of a foreign object, which nothing moves across.
    """
    n = draw(st.integers(1, 3))
    exponent = st.integers(-3, 3)
    rng = random.Random(draw(st.integers(0, 2**32)))
    lhs_words, rhs_words, foreign_words, agree = [], [], [], True
    for _ in range(n):
        objs = [draw(hom_objects())]
        maps = []
        for _ in range(draw(st.integers(0, 2))):
            y, m = random_morphism(rng, objs[-1])
            maps.append(HomMorphism(objs[-1], y, m))
            objs.append(y)
        rhs_objs, rhs_maps = objs, maps
        if maps and draw(st.booleans()):
            y, m = random_morphism(rng, objs[0])
            rhs_objs, rhs_maps = [objs[0], y], [HomMorphism(objs[0], y, m)]
        exps = [draw(exponent) for _ in range(len(objs))]
        rhs_exps = [draw(exponent) for _ in range(len(rhs_objs))]
        if draw(st.booleans()):  # the same total, spread differently
            rhs_exps[-1] = sum(exps) - sum(rhs_exps[:-1])
        agree &= rhs_maps == maps and sum(rhs_exps) == sum(exps)
        lhs_words.append(_factors(objs, maps, exps))
        rhs_words.append(_factors(rhs_objs, rhs_maps, rhs_exps))
        if draw(st.booleans()):
            m = random_unimodular(rng, objs[0].dim)[0]
            if mat.mul(objs[0].matrix, m) != mat.mul(m, objs[0].matrix):
                with pytest.raises(ValueError):
                    HomMorphism(objs[0], objs[0], m)
                foreign = HomObject(objs[0].dim, m)
                foreign_words.append(_factors(objs, maps, exps + [draw(exponent)], foreign))
    perm = tuple(draw(st.permutations(range(n))))
    rhs_perm = tuple(draw(st.permutations(range(n)))) if draw(st.booleans()) else perm
    scalar = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2)])
    lhs_scalar = draw(scalar)
    rhs_scalar = draw(scalar) if draw(st.booleans()) else lhs_scalar
    agree &= rhs_perm == perm and rhs_scalar == lhs_scalar
    return (lhs_scalar, perm, lhs_words), (rhs_scalar, rhs_perm, rhs_words), foreign_words, agree


@settings(max_examples=300, deadline=None)
@given(word_pairs())
def test_normal_form_never_disagrees_with_full_matrices(case):
    *sides, foreign_words, agree = case
    lhs, rhs = (
        _LegMap(scalar, perm, tuple([_composed(factors).words[0] for factors in words]))
        for scalar, perm, words in sides
    )
    # a power of a foreign object meets no word, so nothing composes with it
    for factors in foreign_words:
        with pytest.raises(ValueError, match="do not meet"):
            _composed(factors)
    equal = lhs.to_matrix() == rhs.to_matrix()
    same = _same_matrix(lhs, rhs)
    if same:
        assert equal
    assert same == agree  # the normal form sees every pair built to agree
    dims = tuple(x.dim for _, x, _ in lhs.words)
    assert _decide(dims, [(lhs, rhs)]).passed == equal


def test_finite_order_coincidence_passes_through_the_fallback():
    for f in (*_finite_order(2), ((-1,),)):
        x = HomObject(len(f), f)
        lhs, rhs = _blocks(((x,), (x,)), (2, 1)), _blocks(((x,), (x,)), (0, 3))
        assert lhs.words != rhs.words  # exponents differ ...
        assert lhs.to_matrix() == rhs.to_matrix()  # ... but f^2 == I
        assert not _same_matrix(lhs, rhs)  # only the full matrices see it
        assert _decide((x.dim, x.dim), [(lhs, rhs)]).passed
    # a 3-cycle has order 3, so f^2 != I and the sides differ
    x = HomObject(3, _finite_order(3)[1])
    lhs, rhs = _blocks(((x,),), (2,)), _blocks(((x,),), (0,))
    assert not _same_matrix(lhs, rhs)
    assert not _decide((3,), [(lhs, rhs)]).passed


def test_nothing_moves_across_a_map_that_does_not_intertwine():
    x = HomObject(2, ((1, 1), (0, 1)))
    m = ((0, 1), (1, 0))  # does not commute with the shear
    with pytest.raises(ValueError, match="intertwine"):
        HomMorphism(x, x, m)
    # the public naturality sides check their maps as well
    s = structure_maps(PARAM_SETS[2])
    with pytest.raises(ValueError, match="intertwine"):
        naturality_unitor_sides(s, x, x, m, "left")
    with pytest.raises(ValueError, match="intertwine"):
        naturality_associator_sides(s, (x, x, x), (x, x, x), (m, m, m))
    with pytest.raises(ValueError, match="intertwine"):
        naturality_braiding_sides(s, (x, x), (x, x), (m, m))
    # so m enters a word only as the automorphism of another object, and
    # no word composes with it: f_x f_z and f_z f_x differ
    z = HomObject(2, m)
    fx, fz = _power(x, 1), _power(z, 1)
    for outer, inner in ((fx, fz), (fz, fx)):
        with pytest.raises(ValueError, match="do not meet"):
            outer.after(inner)
    assert mat.mul(x.matrix, z.matrix) != mat.mul(z.matrix, x.matrix)


def test_a_power_moves_only_across_a_map_into_its_object():
    x = HomObject(2, ((1, 1), (0, 1)))
    y, m = random_morphism(random.Random(4), x)
    m = _maps_legs((HomMorphism(x, y, m),))
    z = HomObject(2, ((2, 1), (1, 1)))  # same dimension as y, another automorphism
    moved = m.after(_power(x, 1))
    for word in ((_power(z, 1), m), (_power(y, 1), _power(z, 0), m), (_power(z, 1), _power(y, 0), m)):
        with pytest.raises(ValueError, match="do not meet"):
            functools.reduce(_LegMap.after, word)
    legs = _power(y, 1).after(m)
    assert legs.words == moved.words and _same_matrix(legs, moved)
    assert legs.to_matrix() == moved.to_matrix() == mat.mul(y.matrix, m.to_matrix())


@st.composite
def structures(draw, scalars=(Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))):
    """Any StructureMaps, inside the family or not: a nonzero middle
    associator exponent leaves it."""
    exponent = st.integers(-3, 3)
    scalar = st.sampled_from(scalars)
    return StructureMaps(
        (draw(exponent), draw(exponent), draw(exponent)),
        draw(scalar),
        draw(exponent),
        draw(scalar),
        draw(exponent),
        (draw(exponent), draw(exponent)),
    )


@settings(max_examples=100, deadline=None)
@given(structures(), st.lists(hom_objects(), min_size=3, max_size=3))
def test_every_constraint_intertwines_by_construction(s, objs):
    # compare_structures relies on this without a check of its own; the
    # public constraints build the full HomMorphism, which checks it
    x, y, z = objs
    associator(s, x, y, z)
    left_unitor(s, x)
    right_unitor(s, x)
    braiding(s, x, y)
    report = compare_structures(s, s, objs, trials=2, seed=0)
    assert report.identical
    assert all(e.ratio is None for e in report.entries)


_PUBLIC_CONSTRAINTS = {
    "associator": associator,
    "left_unitor": left_unitor,
    "right_unitor": right_unitor,
    "braiding": braiding,
}


@settings(max_examples=100, deadline=None)
@given(structures(), structures(), hom_objects())
def test_compare_agrees_with_the_public_constraint_matrices(s1, s2, x):
    # a one-object pool: every factor of every instance is x
    report = compare_structures(s1, s2, [x], trials=2, seed=0)
    assert report.entries
    for entry in report.entries:
        build = _PUBLIC_CONSTRAINTS[entry.constraint]
        objs = (x,) * len(entry.dims)
        m1, m2 = build(s1, *objs).matrix, build(s2, *objs).matrix
        assert entry.equal == (m1 == m2)
        if entry.equal:
            assert entry.ratio is None
        else:
            expect = mat.mul(m2, mat.inverse(m1))
            assert entry.ratio == tuple(tuple(map(format_coefficient, row)) for row in expect)


# outside the family: a nonzero middle associator exponent breaks the
# pentagon, yet every naturality square still holds
OUTSIDE = [
    StructureMaps((1, 1, -1), Fraction(2), 1, Fraction(2), 1, (0, 0)),
    StructureMaps((0, -2, 1), Fraction(-1, 3), -1, Fraction(-1, 3), 0, (1, -1)),
]

# infinite and finite order, and a random object of dimension 3
TOKEN_POOL = [
    obj([[2]]),
    obj([[1, 1], [0, 1]]),
    obj([[0, 1], [1, 0]]),
    HomObject(3, *random_unimodular(random.Random(5), 3)),
]


def _recorded_draws(patch):
    """Patch the draw function so that each call keeps the generator state
    it drew from, its source's dimension and its draws; returns the list
    the calls are appended to."""
    from qbialg import homcat

    calls, draw = [], homcat._draw_map

    def recording(rng, n):
        state = rng.getstate()
        drawn = draw(rng, n)
        calls.append((state, n, drawn))
        return drawn

    patch.setattr(homcat, "_draw_map", recording)
    return calls


def _counted_morphisms(patch) -> list:
    """Count the ``HomMorphism`` built, each certified, from now on; the count is calls[0]."""
    calls, init = [0], HomMorphism.__post_init__

    def counting(self):
        calls[0] += 1
        init(self)

    patch.setattr(HomMorphism, "__post_init__", counting)
    return calls


def test_every_draw_builds_the_map_random_morphism_samples(monkeypatch):
    """The words prove every naturality axiom, so a run makes the draws of
    its maps and builds none of them; here each recorded draw is built
    afterwards, out of an object of its dimension, certified by
    ``HomObject`` and ``HomMorphism``, and equals what random_morphism
    samples out of that object from the same generator state."""
    from qbialg import homcat

    with monkeypatch.context() as patch:
        draws = _recorded_draws(patch)
        morphisms = _counted_morphisms(patch)
        for s in (*PARAM_SETS, HTILDE_STRUCTURE, *OUTSIDE):
            unpooled = check_coherence(s, trials=3, seed=8, max_dim=2 if s in OUTSIDE else 4)
            pooled = check_coherence(s, TOKEN_POOL, trials=3, seed=8)
            assert unpooled.ok is pooled.ok is (s not in OUTSIDE)
    # 7 structures, 2 runs each, 3 trials of 3 + 1 + 2 naturality objects
    assert len(draws) == 7 * 2 * 3 * 6
    assert morphisms[0] == 0
    sources = {n: HomObject(n, *random_unimodular(random.Random(n), n)) for n in range(1, 5)}
    for state, n, drawn in draws:
        x = sources[n]
        m = homcat._build_map(x, drawn)  # certified by HomObject and HomMorphism
        assert m.source is x and m.target.power(-1) == mat.inverse(m.target.matrix)
        rng = random.Random()
        rng.setstate(state)
        assert random_morphism(rng, x) == (m.target, m.matrix)


def _sources_on_both_sides(constraint, s, sources, targets, maps):
    """A broken naturality square, C_sources = (maps, moved) . C_sources: it
    holds only for maps that act as the identity, and its words differ
    from the other side's by the maps, so every instance is left open."""
    from qbialg import homcat

    before = constraint(s, *[(x,) for x in sources])
    return before, homcat._maps_legs(homcat._permuted(before.perm, maps)).after(before)


def _break_naturality(patch):
    """_natural replaced by _sources_on_both_sides, also where _AXIOMS bound it.

    The proofs memo is swapped for a fresh one too: it is keyed by the
    structure alone, so without the swap a proof of the real builders
    would answer for the broken ones, and a verdict on the broken ones
    would outlive the patch."""
    from qbialg import homcat

    def rebind(build):
        if isinstance(build, functools.partial) and build.func is homcat._natural:
            return functools.partial(_sources_on_both_sides, *build.args, **build.keywords)
        return build

    axioms = tuple((name, n, tuple(map(rebind, builds)), nat) for name, n, builds, nat in homcat._AXIOMS)
    patch.setattr(homcat, "_AXIOMS", axioms)
    patch.setattr(homcat, "_natural", _sources_on_both_sides)
    patch.setattr(homcat, "_proved", functools.lru_cache(homcat._proved.__wrapped__))


def test_open_naturality_instances_are_decided_on_built_and_certified_maps(monkeypatch):
    from qbialg import homcat

    with monkeypatch.context() as patch:
        _break_naturality(patch)
        draws = _recorded_draws(patch)
        morphisms = _counted_morphisms(patch)
        report = check_coherence(PARAM_SETS[2], TOKEN_POOL, trials=4, seed=2)
    groups = dict(report.axioms)
    for name in ("naturality_associator", "naturality_unitors", "naturality_braiding"):
        assert any(not inst.passed and inst.witness for inst in groups[name]), name
    assert all(inst.passed for name in COHERENCE_AXIOMS[:5] for inst in groups[name])
    # 4 trials of 3 + 1 + 2 naturality objects: every drawn map was built
    # to decide its open instance, and certified
    assert len(draws) == morphisms[0] == 4 * 6

    # a column replay that skips its first operation: the first wrong map
    # an open instance builds is refused by its certification
    replay = homcat._undo_columns
    with monkeypatch.context() as patch:
        _break_naturality(patch)
        patch.setattr(homcat, "_undo_columns", lambda ops, m: replay(ops[1:], m))
        with pytest.raises(ValueError, match="known_inverse|intertwine"):
            check_coherence(PARAM_SETS[2], TOKEN_POOL, trials=4, seed=2)


OPEN_GOLDEN = Path(__file__).resolve().parent / "golden" / "open_naturality_reports.json"


def test_open_naturality_reports_are_byte_identical_to_golden(monkeypatch):
    """The negative control's reports, pooled and sampled, byte for byte: the
    one route on which coherence builds its sampled maps, so the golden
    pins their draw order and the witnesses their matrices give."""
    with monkeypatch.context() as patch:
        _break_naturality(patch)
        reports = {
            "pool": check_coherence(PARAM_SETS[2], TOKEN_POOL, trials=4, seed=2),
            "sampled": check_coherence(PARAM_SETS[2], trials=4, seed=2, max_dim=2),
        }
    text = json.dumps({key: r.to_dict() for key, r in reports.items()}, indent=1) + "\n"
    assert text == OPEN_GOLDEN.read_text(encoding="utf-8")
    assert not any(r.ok for r in reports.values())


@pytest.mark.parametrize("broken_first", [True, False], ids=["broken_first", "real_first"])
def test_a_broken_builder_and_the_real_ones_keep_their_own_verdicts(monkeypatch, broken_first):
    """The negative control and the real check on one structure, in either
    order, each get their own outcome, and the memo the real check reads
    ends holding the real proof alone."""
    from qbialg import homcat

    monkeypatch.setattr(homcat, "_proved", functools.lru_cache(homcat._proved.__wrapped__))

    def broken():
        with monkeypatch.context() as patch:
            _break_naturality(patch)
            return check_coherence(PARAM_SETS[2], TOKEN_POOL, trials=4, seed=2)

    def real():
        return check_coherence(PARAM_SETS[2], TOKEN_POOL, trials=4, seed=2)

    reports = {run: run() for run in ((broken, real) if broken_first else (real, broken))}
    groups = dict(reports[broken].axioms)
    for name in ("naturality_associator", "naturality_unitors", "naturality_braiding"):
        assert any(not inst.passed for inst in groups[name]), name
    assert reports[real].ok
    assert homcat._proved(structure_maps(PARAM_SETS[2])) == (True,) * len(COHERENCE_AXIOMS)
    assert homcat._proved.cache_info().currsize == 1


@settings(max_examples=200, deadline=None)
@given(structures(scalars=(Fraction(-1), Fraction(-2, 3), Fraction(1), Fraction(3))))
def test_the_words_prove_every_naturality_square(s):
    """Both sides of a naturality square carry the same scalar, permutation
    and per-leg word ((m,), source, e), whatever the exponents and the
    scalars: coherence never builds the maps it samples
    for a naturality axiom of a real structure."""
    from qbialg import homcat

    verdicts = dict(zip(COHERENCE_AXIOMS, homcat._proved.__wrapped__(s)))
    assert [verdicts[name] for name in COHERENCE_AXIOMS if name.startswith("naturality")] == [True] * 3


# unequal unitor scalars leave the triangle open
UNEQUAL_UNITORS = dataclasses.replace(PLAIN_STRUCTURE, left_scalar=Fraction(2))
ROUTE_STRUCTURES = [*PARAM_SETS, HTILDE_STRUCTURE, PLAIN_STRUCTURE, *OUTSIDE, UNEQUAL_UNITORS]


@pytest.mark.parametrize("s", ROUTE_STRUCTURES)
@pytest.mark.parametrize("pooled", [False, True], ids=["sampled", "pool"])
def test_a_proof_gives_the_report_of_the_per_instance_route(monkeypatch, s, pooled):
    """A second route: with the proofs memo proving nothing, every instance
    is decided on its own words, then matrices.  The reports are
    byte-identical, and every sampled instance of a row the memo proves
    agrees by its words."""
    from qbialg import homcat

    coherent = s not in OUTSIDE and s is not UNEQUAL_UNITORS
    where = {"objects": TOKEN_POOL} if pooled else {"max_dim": 4 if coherent else 2}
    proved = homcat._proved(structure_maps(s))
    assert all(proved) is coherent
    memoised = [json.dumps(check_coherence(s, trials=3, seed=seed, **where).to_dict()) for seed in range(5)]

    decide, sides = homcat._decide, []

    def recording(dims, pairs):
        sides.append(list(pairs))
        return decide(dims, sides[-1])

    monkeypatch.setattr(homcat, "_proved", lambda s: (False,) * len(COHERENCE_AXIOMS))
    monkeypatch.setattr(homcat, "_decide", recording)
    for seed, report in enumerate(memoised):
        assert json.dumps(check_coherence(s, trials=3, seed=seed, **where).to_dict()) == report
    # 5 seeds of the eight axioms, 3 trials each, in that order
    assert len(sides) == 5 * len(COHERENCE_AXIOMS) * 3
    for i, pairs in enumerate(sides):
        if proved[i // 3 % len(COHERENCE_AXIOMS)]:
            assert all(_same_matrix(lhs, rhs) for lhs, rhs in pairs)


# -- the block rule against the public constraint matrices -------------------


def _sides_from_public_constraints(s, u, v, w, x, mors):
    """Each axiom's two sides, composed from the public constraints at
    tensor_obj objects with kron, mul and identity alone."""
    t, eye, kron = tensor_obj, lambda o: mat.identity(o.dim), mat.kron

    def mul(*ms):
        return functools.reduce(mat.mul, ms)

    def a(*objs):
        return associator(s, *objs).matrix

    def a_inv(*objs):
        return mat.inverse(a(*objs))

    def c(*objs):
        return braiding(s, *objs).matrix

    (y1, m1), (y2, m2), (y3, m3) = mors
    one = mat.identity(1)
    return {
        "pentagon": (
            mul(kron(eye(u), a(v, w, x)), a(u, t(v, w), x), kron(a(u, v, w), eye(x))),
            mul(a(u, v, t(w, x)), a(t(u, v), w, x)),
        ),
        "triangle": (
            mul(kron(eye(v), left_unitor(s, w).matrix), a(v, unit_object(), w)),
            kron(right_unitor(s, v).matrix, eye(w)),
        ),
        "hexagon_forward": (
            mul(a(v, w, u), c(u, t(v, w)), a(u, v, w)),
            mul(kron(eye(v), c(u, w)), a(v, u, w), kron(c(u, v), eye(w))),
        ),
        "hexagon_backward": (
            mul(a_inv(w, u, v), c(t(u, v), w), a_inv(u, v, w)),
            mul(kron(c(u, w), eye(v)), a_inv(u, w, v), kron(eye(u), c(v, w))),
        ),
        "symmetry": (mul(c(v, u), c(u, v)), mat.identity(u.dim * v.dim)),
        "naturality_associator": (
            mul(a(y1, y2, y3), kron(kron(m1, m2), m3)),
            mul(kron(kron(m1, m2), m3), a(u, v, w)),
        ),
        "naturality_left_unitor": (
            mul(left_unitor(s, y1).matrix, kron(one, m1)),
            mul(kron(one, m1), left_unitor(s, u).matrix),
        ),
        "naturality_right_unitor": (
            mul(right_unitor(s, y1).matrix, kron(m1, one)),
            mul(kron(m1, one), right_unitor(s, u).matrix),
        ),
        "naturality_braiding": (mul(c(y1, y2), kron(m1, m2)), mul(kron(m2, m1), c(u, v))),
    }


@settings(max_examples=60, deadline=None)
@given(structures(), st.lists(hom_objects(), min_size=4, max_size=4), st.integers(0, 2**32))
def test_block_rule_agrees_with_the_public_constraint_matrices(s, objs, seed):
    # a second route to every side: f_(X(x)Y)^e is a power of one Kronecker
    # matrix here, never a leg-by-leg product, and composites are matrix
    # products of whole constraints
    u, v, w, x = objs
    rng = random.Random(seed)
    mors = [random_morphism(rng, o) for o in (u, v, w)]
    (y1, m1), (y2, m2), (y3, m3) = mors
    sides = {
        "pentagon": pentagon_sides(s, u, v, w, x),
        "triangle": triangle_sides(s, v, w),
        "hexagon_forward": hexagon_forward_sides(s, u, v, w),
        "hexagon_backward": hexagon_backward_sides(s, u, v, w),
        "symmetry": symmetry_sides(s, u, v),
        "naturality_associator": naturality_associator_sides(
            s, (u, v, w), (y1, y2, y3), (m1, m2, m3)
        ),
        "naturality_left_unitor": naturality_unitor_sides(s, u, y1, m1, "left"),
        "naturality_right_unitor": naturality_unitor_sides(s, u, y1, m1, "right"),
        "naturality_braiding": naturality_braiding_sides(s, (u, v), (y1, y2), (m1, m2)),
    }
    expect = _sides_from_public_constraints(s, u, v, w, x, mors)
    unitors = {"naturality_left_unitor", "naturality_right_unitor"}
    assert set(sides) == set(expect) == set(COHERENCE_AXIOMS) - {"naturality_unitors"} | unitors
    for axiom, (lhs, rhs) in sides.items():
        assert (lhs, rhs) == expect[axiom], axiom


@st.composite
def permuted_leg_maps(draw):
    """A scalar, a leg permutation other than the identity and one power
    of a drawn object per leg."""
    n = draw(st.integers(2, 3))
    objs = [draw(hom_objects(max_dim=2)) for _ in range(n)]
    perm = tuple(draw(st.permutations(range(n)).filter(lambda p: p != list(range(n)))))
    scalar = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2)]))
    exps = [draw(st.integers(-2, 2)) for _ in objs]
    return _blocks(tuple([(o,) for o in objs]), exps, scalar, perm)


@settings(max_examples=60, deadline=None)
@given(permuted_leg_maps(), permuted_leg_maps())
def test_tensor_of_leg_maps_is_the_kronecker_product(a, b):
    assert a.tensor(b).to_matrix() == mat.kron(a.to_matrix(), b.to_matrix())


# 5,001 digits: more than str() writes under the default limit of 4,300
_LONG = 10**5000


def test_params_write_a_long_scalar_as_units_do():
    assert MonoidalParams(_LONG, 0, 0).to_dict() == {"q": format_coefficient(_LONG), "a": 0, "b": 0}
    assert MonoidalParams("-1/3", 1, 2).to_dict() == {"q": "-1/3", "a": 1, "b": 2}


def test_coherence_report_writes_long_structure_scalars():
    s = dataclasses.replace(HTILDE_STRUCTURE, left_scalar=_LONG, right_scalar=Fraction(1, _LONG))
    params = check_coherence(s, [HomObject(1, ((2,),))], trials=1, max_dim=1).to_dict()["params"]
    assert params["left"] == [format_coefficient(_LONG), s.left_exp]
    assert params["right"] == [format_coefficient(Fraction(1, _LONG)), s.right_exp]
    assert check_coherence(HTILDE_STRUCTURE, trials=1).to_dict()["params"]["left"] == [
        str(HTILDE_STRUCTURE.left_scalar), HTILDE_STRUCTURE.left_exp
    ]
