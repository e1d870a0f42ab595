import dataclasses
import math
import random
from fractions import Fraction

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
    _check_intertwines,
    _leg_ratio,
    _LegMap,
    _same_matrix,
)
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


def test_morphism_validation():
    x = obj([[2]])
    ok = HomMorphism(x, x, frac_rows([[5]]))
    assert ok.matrix == frac_rows([[5]])
    a = obj([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        HomMorphism(a, a, frac_rows([[0, 1], [1, 0]]))  # does not commute with the shear
    with pytest.raises(ValueError):
        HomMorphism(x, a, frac_rows([[1]]))  # shape mismatch


def test_params_validation():
    with pytest.raises(ValueError):
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
        a = random_unimodular(rng, da)
        b = random_unimodular(rng, db)
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


def test_random_unimodular_has_unimodular_inverse():
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(1, 4)
        u = random_unimodular(rng, n)
        inv = mat.inverse(u)
        assert all(type(x) is int for row in u for x in row)
        assert all(type(x) is int for row in inv for x in row)


def test_leg_ratio_of_integer_legs_is_a_fraction():
    two, three = mat.scale(2, mat.identity(2)), mat.scale(3, mat.identity(2))
    assert all(type(x) is int for row in two + three for x in row)
    ratio = _leg_ratio(two, three)
    assert ratio == Fraction(2, 3) and type(ratio) is Fraction
    assert _leg_ratio(three, two) == Fraction(3, 2)
    assert _leg_ratio(two, ((1, 0), (0, 2))) is None


def test_random_morphism_intertwines():
    rng = random.Random(52)
    for _ in range(25):
        x = random_object(rng, 3)
        y, m = random_morphism(rng, x)
        HomMorphism(x, y, m)  # raises if the intertwining fails


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


def test_compare_singular_constraint_has_no_ratio():
    zero_unitor = dataclasses.replace(PLAIN_STRUCTURE, left_scalar=Fraction(0))
    with pytest.raises(NotInvertible):
        compare_structures(zero_unitor, PLAIN_STRUCTURE, objects=[obj([[2]])], trials=1)


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


def test_intertwining_falls_back_to_the_full_check():
    x = obj([[1, 0], [0, -1]])
    swap = frac_rows([[0, 1], [1, 0]])  # anticommutes with the automorphism of x
    # neither leg intertwines, but the two signs cancel in the tensor product
    _check_intertwines(_LegMap(Fraction(1), (0, 1), (swap, swap)), (x, x))
    with pytest.raises(ValueError):
        _check_intertwines(_LegMap(Fraction(1), (0, 1), (swap, mat.identity(2))), (x, x))


@st.composite
def leg_map_pairs(draw):
    """Two leg maps, often equal by construction, with a flag saying so.

    The lhs legs are multiples c_i of the rhs legs, and the scalars, the
    permutations and one lhs entry may be perturbed.  Legs and factors
    can be zero and legs can be 1-dimensional.
    """
    n = draw(st.integers(1, 3))
    dims = [draw(st.integers(1, 3)) for _ in range(n)]
    perm = tuple(draw(st.permutations(range(n))))
    entry = st.integers(-2, 2).map(Fraction)
    rhs_mats = tuple(tuple(tuple(draw(entry) for _ in range(d)) for _ in range(d)) for d in dims)
    factors = [draw(entry) for _ in range(n)]
    lhs_mats = [mat.scale(c, m) for c, m in zip(factors, rhs_mats)]
    lhs_scalar = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]))
    matched = lhs_scalar * math.prod(factors)
    rhs_scalar = draw(st.sampled_from([matched, matched + 1, Fraction(0)]))
    rhs_perm = tuple(draw(st.permutations(range(n)))) if draw(st.booleans()) else perm
    perturb = draw(st.booleans())
    if perturb:
        i = draw(st.integers(0, n - 1))
        rows = [list(r) for r in lhs_mats[i]]
        rows[0][0] += 1
        lhs_mats[i] = frac_rows(rows)
    equal_by_construction = (
        not perturb
        and rhs_perm == perm
        and rhs_scalar == matched
        and all(any(x for row in m for x in row) for m in rhs_mats)
    )
    lhs = _LegMap(lhs_scalar, perm, tuple(lhs_mats))
    return lhs, _LegMap(rhs_scalar, rhs_perm, rhs_mats), equal_by_construction


@settings(max_examples=300, deadline=None)
@given(leg_map_pairs())
def test_legwise_equality_never_disagrees_with_full_matrices(case):
    lhs, rhs, equal_by_construction = case
    decided = _same_matrix(lhs, rhs)
    if decided:
        assert lhs.to_matrix() == rhs.to_matrix()
    if equal_by_construction:
        assert decided  # proportional nonzero legs with matching scalars decide
