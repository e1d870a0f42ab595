"""Monoidal categories of vector spaces carrying a marked automorphism.

An object is a pair (V, f) with f an invertible rational matrix on V;
morphisms are linear maps commuting with the marked automorphisms.  A
nonzero scalar q and integers (a, b) index a family of symmetric
monoidal structures on this category:

    associator   f_X^a (x) Id (x) f_Z^b
    left unitor  q f_X^(-b)     right unitor  q f_X^a
    braiding     flip after f_X^(a+b) (x) f_Y^(-(a+b))

The checker does not trust any of the coherence claims: it composes
both sides of each axiom on sampled objects and compares them exactly.
Every constraint and every composite of constraints is a scalar times
a permutation of tensor legs times, on each leg, a word in powers f^e
of the objects' automorphisms and sampled intertwiners, each checked
once by ``HomMorphism``.  Composing concatenates words, and two sides
are compared by the first of two routes that decides:

1. Normal forms, on exponents alone.  An intertwiner m: X -> Y
   satisfies f_Y^k m = m f_X^k, so each leg's word rewrites to its
   maps followed by one power of its source.  Equal permutations,
   equal scalars and, per leg, the same maps with the same summed
   exponent make the sides equal for every choice of the objects, and
   no matrix is multiplied.
2. Exact matrices on the sampled objects, built when the normal forms
   differ (an automorphism of finite order, such as -I or a swap, can
   still make the sides equal): coherence builds both full Kronecker
   matrices, whose difference is a failure's witness; a comparison
   builds one, the ratio, from the two constraints' exponent differences.

Flattening convention everywhere: row-major with the left tensor factor
slowest.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from typing import Sequence

from . import matrices as mat
from .laurent import _coeff, format_coefficient
from .matrices import Matrix, NotInvertible


@dataclass(frozen=True)
class MonoidalParams:
    """The scalar q != 0 and the pair of integer exponents (a, b)."""

    q: Fraction
    a: int
    b: int

    def __post_init__(self):
        # the one coefficient path: a float raises TypeError, exponent
        # notation ValueError; a and b must be integers, not truncated
        object.__setattr__(self, "q", _coeff(self.q))
        if not self.q:
            raise ValueError("the unit constraint scalar q must be nonzero")
        object.__setattr__(self, "a", operator.index(self.a))
        object.__setattr__(self, "b", operator.index(self.b))

    def to_dict(self) -> dict:
        return {"q": str(self.q), "a": self.a, "b": self.b}


@dataclass(frozen=True)
class HomObject:
    """A vector space dimension together with an invertible automorphism."""

    dim: int
    matrix: Matrix
    # f^e by exponent, filled on demand; not part of the object's value
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        m = mat.from_rows(self.matrix)
        if mat.shape(m) != (self.dim, self.dim):
            raise ValueError(f"automorphism must be {self.dim}x{self.dim}")
        self._powers[-1] = mat.inverse(m)  # NotInvertible propagates
        object.__setattr__(self, "matrix", m)

    def power(self, e: int) -> Matrix:
        """f^e, computed once per exponent."""
        if e not in self._powers:
            self._powers[e] = mat.power(self.matrix if e >= 0 else self._powers[-1], abs(e))
        return self._powers[e]


@dataclass(frozen=True)
class HomMorphism:
    """A linear map intertwining the marked automorphisms, checked exactly."""

    source: HomObject
    target: HomObject
    matrix: Matrix

    def __post_init__(self):
        m = mat.from_rows(self.matrix)
        if mat.shape(m) != (self.target.dim, self.source.dim):
            raise ValueError(
                f"map must be {self.target.dim}x{self.source.dim}, got {mat.shape(m)}"
            )
        if mat.mul(self.target.matrix, m) != mat.mul(m, self.source.matrix):
            raise ValueError("map does not intertwine the marked automorphisms")
        object.__setattr__(self, "matrix", m)


_UNIT = HomObject(1, ((1,),))


def unit_object() -> HomObject:
    """The tensor unit, one shared object."""
    return _UNIT


def tensor_obj(x: HomObject, y: HomObject) -> HomObject:
    """Tensor product: dimensions multiply, automorphisms Kronecker."""
    return HomObject(x.dim * y.dim, mat.kron(x.matrix, y.matrix))


def from_module_action(matrix) -> HomObject:
    """Wrap the action of the group generator on a module as an object.

    The module structure over the Laurent ring is exactly an invertible
    operator, so this is a bijection on data; tensoring modules matches
    tensoring objects because the generator acts diagonally.
    """
    m = mat.from_rows(matrix)
    rows, cols = mat.shape(m)
    if rows != cols:
        raise NotInvertible(f"action matrix is {rows}x{cols}, not square")
    return HomObject(rows, m)


@dataclass(frozen=True)
class StructureMaps:
    """Evaluation data of one monoidal structure in the family.

    Constraints are powers of the object automorphisms: the associator
    applies ``assoc_exp`` across the three factors, each unitor is a
    scalar times a power, and the braiding applies ``braid_exp`` before
    the flip.  Both the parameterized structures and the directly
    defined modified structure fit this shape.
    """

    assoc_exp: tuple[int, int, int]
    left_scalar: Fraction
    left_exp: int
    right_scalar: Fraction
    right_exp: int
    braid_exp: tuple[int, int]

    def __post_init__(self):
        # the one coefficient path, as in MonoidalParams; a zero scalar
        # is allowed, and makes its constraint singular
        for name in ("left_scalar", "right_scalar"):
            object.__setattr__(self, name, _coeff(getattr(self, name)))
        for name in ("left_exp", "right_exp"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        for name, length in (("assoc_exp", 3), ("braid_exp", 2)):
            exps = tuple(map(operator.index, getattr(self, name)))
            if len(exps) != length:
                raise ValueError(f"{name} needs {length} exponents, got {len(exps)}")
            object.__setattr__(self, name, exps)


def structure_maps(p) -> StructureMaps:
    if isinstance(p, StructureMaps):
        return p
    if isinstance(p, MonoidalParams):
        return StructureMaps(
            assoc_exp=(p.a, 0, p.b),
            left_scalar=p.q,
            left_exp=-p.b,
            right_scalar=p.q,
            right_exp=p.a,
            braid_exp=(p.a + p.b, -(p.a + p.b)),
        )
    raise TypeError(f"expected MonoidalParams or StructureMaps, got {type(p).__name__}")


# The modified structure written out directly: associator twists the outer
# factors by f and f^-1, both unitors are the automorphism itself, and the
# braiding is the plain flip.
HTILDE_STRUCTURE = StructureMaps((1, 0, -1), Fraction(1), 1, Fraction(1), 1, (0, 0))

# The unmodified vector space structure with the identity constraints.
PLAIN_STRUCTURE = StructureMaps((0, 0, 0), Fraction(1), 0, Fraction(1), 0, (0, 0))


# -- leg-structured composition --------------------------------------------


def _permuted(perm: Sequence[int], items: Sequence) -> tuple:
    """The items rearranged so that item i lands in slot perm[i]."""
    out = [None] * len(perm)
    for i, p in enumerate(perm):
        out[p] = items[i]
    return tuple(out)


def _factor_matrix(factor) -> Matrix:
    if type(factor) is tuple:
        obj, exp = factor
        return obj.power(exp)
    return factor.matrix


class _LegMap:
    """scalar * (leg permutation) * (one word of factors per leg).

    ``perm[i]`` is the output slot receiving input leg i; ``words[i]``
    lists the factors applied to leg i before the permutation, in
    matrix-product order (the last factor acts first).  A factor is a
    pair (X, e) standing for f_X^e or an intertwiner ``HomMorphism``,
    whose constructor checked it.  Composing concatenates words; the
    leg matrices ``mats`` are multiplied out only when something asks
    for them.
    """

    __slots__ = ("scalar", "perm", "words", "_mats")

    def __init__(self, scalar: Fraction, perm: tuple[int, ...], words: tuple[tuple, ...]):
        self.scalar = scalar
        self.perm = perm
        self.words = words
        self._mats = None

    def after(self, other: "_LegMap") -> "_LegMap":
        """Composite self . other (other runs first)."""
        perm = tuple(self.perm[p] for p in other.perm)
        words = tuple(self.words[p] + w for p, w in zip(other.perm, other.words))
        return _LegMap(self.scalar * other.scalar, perm, words)

    @property
    def mats(self) -> tuple[Matrix, ...]:
        if self._mats is None:
            mats = []
            for word in self.words:
                m = _factor_matrix(word[0])
                for factor in word[1:]:
                    m = _compose(m, _factor_matrix(factor))
                mats.append(m)
            self._mats = tuple(mats)
        return self._mats

    def to_matrix(self) -> Matrix:
        mats = list(self.mats)
        mats[0] = mat.scale(self.scalar, mats[0])
        k = reduce(mat.kron, mats)
        n = len(self.perm)
        if self.perm == tuple(range(n)):
            return k
        dims = [len(m) for m in mats]
        out_dims = _permuted(self.perm, dims)
        rows = []
        total = 1
        for d in out_dims:
            total *= d
        for flat in range(total):
            rem = flat
            idx = [0] * n
            for j in range(n - 1, -1, -1):
                idx[j] = rem % out_dims[j]
                rem //= out_dims[j]
            src = 0
            for i in range(n):
                src = src * dims[i] + idx[self.perm[i]]
            rows.append(k[src])
        return tuple(rows)


def _compose(a: Matrix, b: Matrix) -> Matrix:
    """a . b, skipping the product when a factor is an identity leg.

    f^0 legs are the matrices ``mat.identity`` caches, so ``is`` finds
    them without comparing entries; a miss only costs the product.
    """
    if a is mat.identity(len(a)):
        return b
    if b is mat.identity(len(b)):
        return a
    return mat.mul(a, b)


def _normal_word(word: tuple):
    """(maps, source, e) with word == maps[0] ... maps[-1] . f_source^e, or None.

    Read from the left, a power of the object a map lands in moves to
    its right as the same power of the object the map leaves:
    f_Y^k . m == m . f_X^k for an intertwiner m: X -> Y.  A power of any
    other object, or a map out of any other object, leaves the word
    without a normal form.
    """
    maps = []
    obj = None  # the object between the factors read so far and the rest
    exp = 0
    for factor in word:
        kind = type(factor)
        if kind is tuple and (obj is None or factor[0] is obj):
            obj = factor[0]
            exp += factor[1]
        elif kind is HomMorphism and (obj is None or factor.target is obj):
            maps.append(factor)
            obj = factor.source
        else:
            return None
    return tuple(maps), obj, exp


def _normal_form(legs: _LegMap):
    """The normal form of every leg, or None when one has none."""
    forms = tuple(map(_normal_word, legs.words))
    return None if None in forms else forms


def _legs(objs: Sequence[HomObject], exps: Sequence[int], scalar=Fraction(1), perm=None) -> _LegMap:
    return _LegMap(
        scalar if type(scalar) is Fraction else Fraction(scalar),
        tuple(range(len(objs))) if perm is None else tuple(perm),
        tuple(((o, e),) for o, e in zip(objs, exps)),
    )


def _identity_legs(objs: Sequence[HomObject]) -> _LegMap:
    return _legs(objs, [0] * len(objs))


def _same_matrix(lhs: _LegMap, rhs: _LegMap) -> bool:
    """A sound, sufficient test that two leg maps have the same full matrix.

    True when the permutations, the scalars and the normal forms of the
    words agree, which makes the sides equal whatever the objects.
    False only means undecided: the full matrices may still be equal.
    """
    if lhs.perm != rhs.perm or lhs.scalar != rhs.scalar:
        return False
    form = _normal_form(lhs)
    return form is not None and form == _normal_form(rhs)


def _morphism(legs: _LegMap, sources: Sequence[HomObject]) -> HomMorphism:
    """The full morphism from the tensor of the sources, checked in full."""
    targets = _permuted(legs.perm, sources)
    return HomMorphism(reduce(tensor_obj, sources), reduce(tensor_obj, targets), legs.to_matrix())


def _ratio(first: _LegMap, second: _LegMap) -> _LegMap:
    """second . first^-1, for two constraints on the same objects and permutation.

    Each is s P (x) f_i^e_i, one power per leg, so with P the common
    permutation the ratio is (s2/s1) P ((x) f_i^(e2_i - e1_i)) P^-1:
    the identity permutation with f_i^(e2_i - e1_i) in slot perm[i].
    """
    if not first.scalar:
        raise NotInvertible("matrix is singular")
    pairs = zip(first.words, second.words)
    objs, diffs = zip(*((x, e2 - e1) for ((x, e1),), ((_, e2),) in pairs))
    return _legs(
        _permuted(first.perm, objs), _permuted(first.perm, diffs), second.scalar / first.scalar
    )


def _strings(m: Matrix) -> tuple:
    return tuple(tuple(map(format_coefficient, row)) for row in m)


# -- constraints ------------------------------------------------------------


def _associator_legs(p, x: HomObject, y: HomObject, z: HomObject) -> _LegMap:
    return _legs((x, y, z), structure_maps(p).assoc_exp)


def _left_unitor_legs(p, x: HomObject) -> _LegMap:
    s = structure_maps(p)
    return _legs((x,), (s.left_exp,), scalar=s.left_scalar)


def _right_unitor_legs(p, x: HomObject) -> _LegMap:
    s = structure_maps(p)
    return _legs((x,), (s.right_exp,), scalar=s.right_scalar)


def _braiding_legs(p, x: HomObject, y: HomObject) -> _LegMap:
    return _legs((x, y), structure_maps(p).braid_exp, perm=(1, 0))


def associator(p, x: HomObject, y: HomObject, z: HomObject) -> HomMorphism:
    return _morphism(_associator_legs(p, x, y, z), (x, y, z))


def left_unitor(p, x: HomObject) -> HomMorphism:
    return _morphism(_left_unitor_legs(p, x), (x,))


def right_unitor(p, x: HomObject) -> HomMorphism:
    return _morphism(_right_unitor_legs(p, x), (x,))


def braiding(p, x: HomObject, y: HomObject) -> HomMorphism:
    return _morphism(_braiding_legs(p, x, y), (x, y))


# -- the coherence axioms, one pair of sides each ---------------------------


def _pentagon_legs(p, u, v, w, x) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    e1, e2, e3 = s.assoc_exp
    objs = (u, v, w, x)
    lhs = (
        _legs(objs, (0, e1, e2, e3))
        .after(_legs(objs, (e1, e2, e2, e3)))
        .after(_legs(objs, (e1, e2, e3, 0)))
    )
    rhs = _legs(objs, (e1, e2, e3, e3)).after(_legs(objs, (e1, e1, e2, e3)))
    return lhs, rhs


def _triangle_legs(p, v, w) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    e1, e2, e3 = s.assoc_exp
    k = unit_object()
    objs = (v, k, w)
    lhs = _legs(objs, (0, 0, s.left_exp), scalar=s.left_scalar).after(
        _legs(objs, (e1, e2, e3))
    )
    rhs = _legs(objs, (s.right_exp, 0, 0), scalar=s.right_scalar)
    return lhs, rhs


def _hexagon_forward_legs(p, u, v, w) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    e1, e2, e3 = s.assoc_exp
    b1, b2 = s.braid_exp
    lhs = (
        _legs((v, w, u), (e1, e2, e3))
        .after(_legs((u, v, w), (b1, b2, b2), perm=(2, 0, 1)))
        .after(_legs((u, v, w), (e1, e2, e3)))
    )
    rhs = (
        _legs((v, u, w), (0, b1, b2), perm=(0, 2, 1))
        .after(_legs((v, u, w), (e1, e2, e3)))
        .after(_legs((u, v, w), (b1, b2, 0), perm=(1, 0, 2)))
    )
    return lhs, rhs


def _hexagon_backward_legs(p, u, v, w) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    e1, e2, e3 = s.assoc_exp
    b1, b2 = s.braid_exp
    lhs = (
        _legs((w, u, v), (-e1, -e2, -e3))
        .after(_legs((u, v, w), (b1, b1, b2), perm=(1, 2, 0)))
        .after(_legs((u, v, w), (-e1, -e2, -e3)))
    )
    rhs = (
        _legs((u, w, v), (b1, b2, 0), perm=(1, 0, 2))
        .after(_legs((u, w, v), (-e1, -e2, -e3)))
        .after(_legs((u, v, w), (0, b1, b2), perm=(0, 2, 1)))
    )
    return lhs, rhs


def _symmetry_legs(p, u, v) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    b1, b2 = s.braid_exp
    lhs = _legs((v, u), (b1, b2), perm=(1, 0)).after(
        _legs((u, v), (b1, b2), perm=(1, 0))
    )
    return lhs, _identity_legs((u, v))


def _maps_legs(maps) -> _LegMap:
    """The tensor product of the maps, leg by leg."""
    return _LegMap(Fraction(1), tuple(range(len(maps))), tuple((m,) for m in maps))


def _naturality_associator_legs(p, sources, targets, maps) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    xi = _maps_legs(maps)
    lhs = _legs(targets, s.assoc_exp).after(xi)
    rhs = xi.after(_legs(sources, s.assoc_exp))
    return lhs, rhs


def _naturality_unitor_legs(p, sources, targets, maps, side: str) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    exp = s.left_exp if side == "left" else s.right_exp
    scal = s.left_scalar if side == "left" else s.right_scalar
    unit = unit_object()
    one = (unit, 0)
    (source,), (target,), (m,) = sources, targets, maps
    if side == "left":
        xi = _maps_legs((one, m))
        src, tgt, exps = (unit, source), (unit, target), (0, exp)
    else:
        xi = _maps_legs((m, one))
        src, tgt, exps = (source, unit), (target, unit), (exp, 0)
    lhs = _legs(tgt, exps, scalar=scal).after(xi)
    rhs = xi.after(_legs(src, exps, scalar=scal))
    return lhs, rhs


def _naturality_braiding_legs(p, sources, targets, maps) -> tuple[_LegMap, _LegMap]:
    s = structure_maps(p)
    b1, b2 = s.braid_exp
    lhs = _legs(targets, (b1, b2), perm=(1, 0)).after(_maps_legs(maps))
    rhs = _maps_legs((maps[1], maps[0])).after(
        _legs(sources, (b1, b2), perm=(1, 0))
    )
    return lhs, rhs


def _matrices(sides: tuple[_LegMap, _LegMap]) -> tuple[Matrix, Matrix]:
    lhs, rhs = sides
    return lhs.to_matrix(), rhs.to_matrix()


def pentagon_sides(p, u, v, w, x) -> tuple[Matrix, Matrix]:
    return _matrices(_pentagon_legs(p, u, v, w, x))


def triangle_sides(p, v, w) -> tuple[Matrix, Matrix]:
    return _matrices(_triangle_legs(p, v, w))


def hexagon_forward_sides(p, u, v, w) -> tuple[Matrix, Matrix]:
    return _matrices(_hexagon_forward_legs(p, u, v, w))


def hexagon_backward_sides(p, u, v, w) -> tuple[Matrix, Matrix]:
    return _matrices(_hexagon_backward_legs(p, u, v, w))


def symmetry_sides(p, u, v) -> tuple[Matrix, Matrix]:
    return _matrices(_symmetry_legs(p, u, v))


def naturality_associator_sides(p, sources, targets, maps) -> tuple[Matrix, Matrix]:
    maps = tuple(map(HomMorphism, sources, targets, maps))
    return _matrices(_naturality_associator_legs(p, sources, targets, maps))


def naturality_unitor_sides(p, source, target, m, side: str) -> tuple[Matrix, Matrix]:
    m = HomMorphism(source, target, m)
    return _matrices(_naturality_unitor_legs(p, (source,), (target,), (m,), side))


def naturality_braiding_sides(p, sources, targets, maps) -> tuple[Matrix, Matrix]:
    maps = tuple(map(HomMorphism, sources, targets, maps))
    return _matrices(_naturality_braiding_legs(p, sources, targets, maps))


# -- random sampling, all through one seeded generator ----------------------


def random_unimodular(rng: random.Random, n: int, ops: int = 6) -> Matrix:
    """A product of elementary integer matrices, so every power is exact."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return tuple(tuple(r) for r in rows)


def random_object(rng: random.Random, max_dim: int = 4) -> HomObject:
    n = rng.randint(1, max_dim)
    return HomObject(n, random_unimodular(rng, n))


def random_morphism(rng: random.Random, x: HomObject) -> tuple[HomObject, Matrix]:
    """A target object and an intertwiner from x to it.

    The target automorphism is a unimodular conjugate of the source one
    and the map is that conjugation times a small polynomial in f, which
    commutes with f; intertwining therefore holds by construction, and
    ``check_coherence`` still has ``HomMorphism`` check it on every use
    before any power is moved across the map.  f^2 comes from the
    object's cache of powers.
    """
    n = x.dim
    u = random_unimodular(rng, n)
    f = x.matrix
    coeffs = [rng.randint(-1, 1) for _ in range(3)]
    if not any(coeffs):
        coeffs[rng.randrange(3)] = 1
    poly = mat.scale(coeffs[0], mat.identity(n))
    for c, fp in zip(coeffs[1:], (f, x.power(2))):
        if c:
            poly = tuple(tuple(a + c * b for a, b in zip(ra, rb)) for ra, rb in zip(poly, fp))
    target = HomObject(n, mat.mul(mat.mul(u, f), mat.inverse(u)))
    return target, mat.mul(u, poly)


def _sample(rng: random.Random, pool, t: int, n: int, max_dim: int) -> tuple[HomObject, ...]:
    """The n objects of trial t.

    From a pool, slot 0 cycles through it deterministically and the
    other slots are drawn at random; without one, every slot is a fresh
    random object.
    """
    if not pool:
        return tuple(random_object(rng, max_dim) for _ in range(n))
    return (pool[t % len(pool)],) + tuple(rng.choice(pool) for _ in range(n - 1))


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class InstanceResult:
    dims: tuple[int, ...]
    passed: bool
    witness: tuple | None = None  # lhs - rhs, stringified, on failure only

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "pass": self.passed,
            "witness": [list(r) for r in self.witness] if self.witness else None,
        }


@dataclass(frozen=True)
class CoherenceReport:
    params: dict
    seed: int
    trials: int
    axioms: tuple[tuple[str, tuple[InstanceResult, ...]], ...]

    @property
    def ok(self) -> bool:
        return all(inst.passed for _, group in self.axioms for inst in group)

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "axioms": [
                {"axiom": name, "instances": [i.to_dict() for i in group]}
                for name, group in self.axioms
            ],
        }


# (axiom, objects drawn per instance, leg builders whose sides must all
# agree, whether each object also gets a random morphism out of it)
_AXIOMS = (
    ("pentagon", 4, (_pentagon_legs,), False),
    ("triangle", 2, (_triangle_legs,), False),
    ("hexagon_forward", 3, (_hexagon_forward_legs,), False),
    ("hexagon_backward", 3, (_hexagon_backward_legs,), False),
    ("symmetry", 2, (_symmetry_legs,), False),
    ("naturality_associator", 3, (_naturality_associator_legs,), True),
    (
        "naturality_unitors",
        1,
        (
            partial(_naturality_unitor_legs, side="left"),
            partial(_naturality_unitor_legs, side="right"),
        ),
        True,
    ),
    ("naturality_braiding", 2, (_naturality_braiding_legs,), True),
)

COHERENCE_AXIOMS = tuple(name for name, *_ in _AXIOMS)


def _decide(dims: tuple[int, ...], sides) -> InstanceResult:
    """Pass when every pair of sides agrees; else the first difference is the witness."""
    for lhs, rhs in sides:
        if _same_matrix(lhs, rhs):
            continue
        left, right = lhs.to_matrix(), rhs.to_matrix()
        if left != right:
            return InstanceResult(dims, False, _strings(mat.sub(left, right)))
    return InstanceResult(dims, True)


def check_coherence(
    p,
    objects: Sequence[HomObject] = (),
    trials: int = 25,
    seed: int = 0,
    max_dim: int = 4,
) -> CoherenceReport:
    """Exercise every axiom of the structure on sampled objects.

    Sampling is driven entirely by the seed, so reports are reproducible
    byte for byte.  User-supplied objects, when given, are cycled
    through deterministically and mixed with random picks.
    """
    s = structure_maps(p)
    rng = random.Random(seed)
    pool = list(objects)
    groups = []
    for axiom, arity, builders, natural in _AXIOMS:
        results = []
        for t in range(trials):
            objs = _sample(rng, pool, t, arity, max_dim)
            args = objs
            if natural:
                mors = [random_morphism(rng, o) for o in objs]
                targets = tuple(t for t, _ in mors)
                maps = tuple(HomMorphism(o, t, m) for o, (t, m) in zip(objs, mors))
                args = (objs, targets, maps)
            dims = tuple(o.dim for o in objs)
            results.append(_decide(dims, (build(s, *args) for build in builders)))
        groups.append((axiom, tuple(results)))
    params_desc = p.to_dict() if isinstance(p, MonoidalParams) else {
        "assoc_exp": list(s.assoc_exp),
        "left": [str(s.left_scalar), s.left_exp],
        "right": [str(s.right_scalar), s.right_exp],
        "braid_exp": list(s.braid_exp),
    }
    return CoherenceReport(params_desc, seed, trials, tuple(groups))


@dataclass(frozen=True)
class ConstraintComparison:
    constraint: str
    dims: tuple[int, ...]
    equal: bool
    ratio: tuple | None = None  # second composed with inverse of first

    def to_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "dims": list(self.dims),
            "equal": self.equal,
            "ratio": [list(r) for r in self.ratio] if self.ratio else None,
        }


@dataclass(frozen=True)
class ComparisonReport:
    seed: int
    trials: int
    entries: tuple[ConstraintComparison, ...]

    @property
    def identical(self) -> bool:
        return all(e.equal for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "identical": self.identical,
            "entries": [e.to_dict() for e in self.entries],
        }


# (constraint, leading objects of the trial it takes, leg builder)
_CONSTRAINTS = (
    ("associator", 3, _associator_legs),
    ("left_unitor", 1, _left_unitor_legs),
    ("right_unitor", 1, _right_unitor_legs),
    ("braiding", 2, _braiding_legs),
)


def compare_structures(
    p1,
    p2,
    objects: Sequence[HomObject] = (),
    trials: int = 25,
    seed: int = 0,
    max_dim: int = 4,
) -> ComparisonReport:
    """Evaluate both structures' constraints on shared sampled objects.

    Entries record exact equality per constraint per instance; when the
    matrices differ, the ratio (second against first) is attached so a
    reader can see the twist relating the two structures.  Each leg of
    a constraint is a power of that leg's own object, so it is a
    morphism by construction; the public constraint functions check
    that in full through ``HomMorphism``.  An instance the normal forms
    leave open builds one matrix, the ratio: the constraints are equal
    exactly when it is the identity, or when both scalars are zero.
    """
    s1 = structure_maps(p1)
    s2 = structure_maps(p2)
    rng = random.Random(seed)
    pool = list(objects)
    entries = []
    for t in range(trials):
        objs = _sample(rng, pool, t, 3, max_dim)
        for name, arity, build in _CONSTRAINTS:
            factors = objs[:arity]
            first, second = build(s1, *factors), build(s2, *factors)
            dims = tuple(o.dim for o in factors)
            equal = _same_matrix(first, second) or not (first.scalar or second.scalar)
            if not equal:
                ratio = _ratio(first, second).to_matrix()
                equal = ratio == mat.identity(len(ratio))
            entries.append(
                ConstraintComparison(name, dims, equal, None if equal else _strings(ratio))
            )
    return ComparisonReport(seed, trials, tuple(entries))
