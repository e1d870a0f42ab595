"""Acceptance gate: one test per shipped claim, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with -s); pytest
itself provides the per-criterion pass/fail line in -v output.
"""

import dataclasses
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from qbialg import matrices as mat
from qbialg.harrison import (
    AbelianGroupDescriptor,
    HarrisonCochain,
    boundary,
    boundary_closed_form,
    cohomology,
)
from qbialg.homcat import (
    HTILDE_STRUCTURE,
    HomObject,
    MonoidalParams,
    check_coherence,
    compare_structures,
    from_module_action,
    hexagon_backward_sides,
    hexagon_forward_sides,
    naturality_associator_sides,
    naturality_braiding_sides,
    naturality_unitor_sides,
    pentagon_sides,
    random_morphism,
    random_unimodular,
    structure_maps,
    symmetry_sides,
    tensor_obj,
    triangle_sides,
)
from qbialg.laurent import TensorElement, UnitElement, invert_unit
from qbialg.quasibialgebra import (
    CanonicalTriple,
    canonical,
    find_trivializing_twist,
    ordinary,
    twist,
    verify,
)
from qbialg.rmatrix import solve_R, twist_R, verify_R


def _random_triple(rng, max_rank=3):
    rank = rng.randint(1, max_rank)
    q = Fraction(rng.choice([1, -1, 2, -2, 3, 5]), rng.choice([1, 2, 3]))
    h = tuple(rng.randint(-3, 3) for _ in range(rank))
    g = tuple(rng.randint(-3, 3) for _ in range(rank))
    return CanonicalTriple(q, h, g)


def test_criterion_1_cohomology_table():
    start = time.monotonic()
    for rank in (1, 2, 3):
        assert cohomology(rank, 0) == AbelianGroupDescriptor(0, (), True), (rank, 0)
        assert cohomology(rank, 1) == AbelianGroupDescriptor(rank, (), False), (rank, 1)
        for degree in range(2, 7):
            assert cohomology(rank, degree).is_trivial(), (rank, degree)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    print(f"PASS criterion 1: cohomology table r<=3, n<=6 exact in {elapsed:.2f}s")


def test_criterion_2_complex_and_closed_form():
    rng = random.Random(2026)
    checked = 0
    for degree in range(7):
        for _ in range(200):
            rank = rng.randint(1, 3)
            scalar = Fraction(rng.choice([1, -1, 2, 3, 5]), rng.choice([1, 2, 7]))
            elements = [
                [rng.randint(-4, 4) for _ in range(rank)] for _ in range(degree)
            ]
            c = HarrisonCochain.from_data(rank, scalar, elements)
            image = boundary(c)
            assert image == boundary_closed_form(c)
            assert boundary(image) == HarrisonCochain.identity(rank, degree + 2)
            checked += 1
    assert checked == 1400
    print("PASS criterion 2: boundary == closed form and d∘d == 1 on 1400 cochains")


def test_criterion_3_classification_round_trip():
    rng = random.Random(31415)
    for _ in range(100):
        t = _random_triple(rng)
        p = canonical(t)
        assert verify(p).ok
        alpha = find_trivializing_twist(p)
        assert alpha == UnitElement(t.rank, t.q, (t.h, tuple(-x for x in t.g)))
        assert twist(p, alpha) == ordinary(t.rank)
        assert twist(ordinary(t.rank), invert_unit(alpha)) == p
    print("PASS criterion 3: classification round trip on 100 random triples")


def test_criterion_4_r_matrix_uniqueness():
    rng = random.Random(27182)
    for _ in range(50):
        t = _random_triple(rng)
        p = canonical(t)
        s = tuple(a + b for a, b in zip(t.h, t.g))
        expected = UnitElement(t.rank, 1, (s, tuple(-x for x in s)))
        solutions = solve_R(p)
        assert solutions == [expected]
        report = verify_R(p, solutions[0])
        assert report.ok
        assert any(c.axiom == "triangularity" and c.passed for c in report.checks)
    for rank in (1, 2, 3):
        assert solve_R(ordinary(rank)) == [UnitElement.identity(rank, 2)]

    # exhaustive rank-1 search over the scalar/exponent window agrees
    scalars = [Fraction(v) for v in (1, -1, 2, -2, 3)] + [Fraction(1, 2), Fraction(1, 3)]
    for triple in (
        CanonicalTriple(Fraction(1), (0,), (0,)),
        CanonicalTriple(Fraction(2), (1,), (1,)),
        CanonicalTriple(Fraction(1, 2), (2,), (-1,)),
        CanonicalTriple(Fraction(3), (-1,), (2,)),
    ):
        p = canonical(triple)
        hits = [
            TensorElement.single(t, [(x,), (y,)])
            for t in scalars
            for x in range(-4, 5)
            for y in range(-4, 5)
            if verify_R(p, TensorElement.single(t, [(x,), (y,)])).ok
        ]
        assert sorted(hits, key=lambda e: e.terms()) == sorted(
            (s.to_tensor() for s in solve_R(p)), key=lambda e: e.terms()
        )
    print("PASS criterion 4: unique R-matrix on 50 triples, ordinary ranks, and grid search")


def test_criterion_5_twist_equivariance():
    rng = random.Random(16180)
    for _ in range(50):
        t = _random_triple(rng)
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
    print("PASS criterion 5: R-matrix twist equivariance on 50 random unit twists")


PARAM_SETS = [
    MonoidalParams(Fraction(1), 0, 0),
    MonoidalParams(Fraction(1), 1, -1),
    MonoidalParams(Fraction(2), 1, 1),
    MonoidalParams(Fraction(1, 2), -2, 3),
]


def _bump_first(s, field):
    value = getattr(s, field)
    bumped = (value[0] + 1,) + value[1:] if isinstance(value, tuple) else value + 1
    return dataclasses.replace(s, **{field: bumped})


def test_criterion_6_hom_category_coherence():
    for p in PARAM_SETS:
        report = check_coherence(p, trials=100, seed=2026, max_dim=4)
        assert report.ok, [
            (name, inst.dims)
            for name, group in report.axioms
            for inst in group
            if not inst.passed
        ]

    # negative controls: a single corrupted exponent on one side only
    s = structure_maps(PARAM_SETS[2])
    u, v, w, x = (HomObject(1, ((Fraction(k),),)) for k in (2, 3, 5, 7))
    rng = random.Random(6)
    mors = [random_morphism(rng, o) for o in (u, v, w)]
    targets = tuple(m[0] for m in mors)
    maps = tuple(m[1] for m in mors)
    controls = {
        "pentagon": (
            pentagon_sides(_bump_first(s, "assoc_exp"), u, v, w, x)[0],
            pentagon_sides(s, u, v, w, x)[1],
        ),
        "triangle": (
            triangle_sides(_bump_first(s, "left_exp"), u, v)[0],
            triangle_sides(s, u, v)[1],
        ),
        "hexagon_forward": (
            hexagon_forward_sides(_bump_first(s, "braid_exp"), u, v, w)[0],
            hexagon_forward_sides(s, u, v, w)[1],
        ),
        "hexagon_backward": (
            hexagon_backward_sides(_bump_first(s, "braid_exp"), u, v, w)[0],
            hexagon_backward_sides(s, u, v, w)[1],
        ),
        "symmetry": (
            symmetry_sides(_bump_first(s, "braid_exp"), u, v)[0],
            symmetry_sides(s, u, v)[1],
        ),
        "naturality_associator": (
            naturality_associator_sides(_bump_first(s, "assoc_exp"), (u, v, w), targets, maps)[0],
            naturality_associator_sides(s, (u, v, w), targets, maps)[1],
        ),
        "naturality_unitors": (
            naturality_unitor_sides(_bump_first(s, "right_exp"), u, targets[0], maps[0], "right")[0],
            naturality_unitor_sides(s, u, targets[0], maps[0], "right")[1],
        ),
        "naturality_braiding": (
            naturality_braiding_sides(_bump_first(s, "braid_exp"), (u, v), targets[:2], maps[:2])[0],
            naturality_braiding_sides(s, (u, v), targets[:2], maps[:2])[1],
        ),
    }
    for axiom, (lhs, rhs) in controls.items():
        assert lhs != rhs, f"negative control not detected for {axiom}"
    print("PASS criterion 6: coherence on 4 structures x 100 instances; 8 negative controls detected")


def test_criterion_7_htilde_identification():
    report = compare_structures(
        HTILDE_STRUCTURE, MonoidalParams(Fraction(1), 1, -1), trials=100, seed=2026
    )
    assert report.identical
    assert all(entry.equal for entry in report.entries)
    print(
        "PASS criterion 7: modified structure equals the (q,a,b)=(1,1,-1) structure "
        f"on {len(report.entries)} instances"
    )


def test_criterion_8_module_functor_tensor_compatibility():
    rng = random.Random(1729)
    for _ in range(100):
        da, db = rng.randint(1, 4), rng.randint(1, 4)
        a = random_unimodular(rng, da)[0]
        b = random_unimodular(rng, db)[0]
        assert tensor_obj(from_module_action(a), from_module_action(b)) == from_module_action(
            mat.kron(a, b)
        )
    print("PASS criterion 8: module-to-object functor preserves tensor on 100 pairs")


def _run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "qbialg", *args], capture_output=True, text=True, input=stdin
    )


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    for cmd in (
        ("classify", "--rank", "1", "--q", "2", "--h", "1", "--g", "1"),
        ("homcheck", "--q", "2", "--a", "1", "--b", "1", "--dims", "2,3", "--trials", "5", "--seed", "7"),
        ("cohomology", "--rank", "2", "--degree", "4"),
    ):
        first = _run_cli(*cmd)
        second = _run_cli(*cmd)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    good = tmp_path / "good.json"
    good.write_text(json.dumps(canonical(CanonicalTriple(Fraction(2), (1,), (1,))).to_dict()))
    assert _run_cli("verify", "--input", str(good)).returncode == 0

    corrupted = json.loads(good.read_text())
    corrupted["phi"]["terms"][0]["e"][0][0] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupted))
    res = _run_cli("verify", "--input", str(bad))
    assert res.returncode == 1
    assert any(not c["pass"] for c in json.loads(res.stdout))

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    assert _run_cli("verify", "--input", str(garbled)).returncode == 2
    assert _run_cli("verify", "--input", str(tmp_path / "absent.json")).returncode == 2
    assert _run_cli("cohomology", "--rank", "0", "--degree", "1").returncode == 2
    print("PASS criterion 9: CLI byte-determinism and 0/1/2 exit codes")
