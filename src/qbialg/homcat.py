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
Each side is its textbook composite of the four constraints a, l, r, c
at tensor objects, all built by one block rule: f_(X(x)Y)^e is
f_X^e (x) f_Y^e, so a constraint at X (x) Y puts its exponent on every
leg of X and of Y, and the braiding moves whole blocks of legs.  A test
cross-checks every side against products of the public constraint
matrices.  Every constraint and every composite of constraints is a
scalar times a permutation of tensor legs times, on each leg, a word
kept in normal form: one power f^e of the leg's source, then sampled
intertwiners, each checked once by ``HomMorphism``.  An intertwiner
m: X -> Y satisfies f_Y^k m = m f_X^k, so composing moves the outer
word's power across the inner word's maps and adds the exponents.  Two
sides are compared by the first of two routes that decides:

1. Normal forms, on exponents alone.  Equal permutations, equal scalars
   and, per leg, the same maps with the same exponent make the sides
   equal for every choice of the objects, and no matrix is multiplied.
2. Exact matrices on the sampled objects, built when the normal forms
   differ (an automorphism of finite order, such as -I or a swap, can
   still make the sides equal): coherence builds both full Kronecker
   matrices, whose difference is a failure's witness; a comparison
   builds one, the ratio, from the two constraints' exponent differences.

Flattening convention everywhere: row-major with the left tensor factor
slowest.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import partial, reduce
from typing import Sequence

from . import matrices as mat
from .laurent import format_coefficient, read_integer, read_rational, read_shape
from .matrices import Matrix, NotInvertible


@dataclass(frozen=True)
class MonoidalParams:
    """The scalar q != 0 and the pair of integer exponents (a, b)."""

    q: Fraction
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "q", read_rational(self.q, "q"))
        if not self.q:
            raise ValueError("the unit constraint scalar q must be nonzero")
        object.__setattr__(self, "a", read_integer(self.a, "a"))
        object.__setattr__(self, "b", read_integer(self.b, "b"))

    def to_dict(self) -> dict:
        return {"q": format_coefficient(self.q), "a": self.a, "b": self.b}


@dataclass(frozen=True)
class HomObject:
    """A vector space dimension together with an invertible automorphism.

    The automorphism is certified invertible on construction.  A caller
    that already holds its inverse passes it as ``known_inverse``, which
    is checked for f's shape and then by the one product f . f^-1 == I
    (for square matrices that makes it a two-sided inverse) and raises
    ``ValueError`` when either fails; without it, ``mat.inverse``
    eliminates and a singular matrix raises ``NotInvertible``.  Either way the inverse becomes the cached
    f^-1; it is not part of the object's value.
    """

    dim: int
    matrix: Matrix
    known_inverse: InitVar[Matrix | None] = None
    # f^e by exponent, filled on demand; not part of the object's value
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self, known_inverse):
        object.__setattr__(self, "dim", read_integer(self.dim, "dim"))
        m = mat.from_rows(self.matrix)
        if mat.shape(m) != (self.dim, self.dim):
            raise ValueError(f"automorphism must be {self.dim}x{self.dim}")
        if known_inverse is None:
            inv = mat.inverse(m)  # NotInvertible propagates
        else:
            inv = mat.from_rows(known_inverse, "known_inverse")
            if mat.shape(inv) != mat.shape(m):
                raise ValueError(
                    f"known_inverse must be {self.dim}x{self.dim}, got {mat.shape(inv)}"
                )
            if mat.mul(m, inv) != mat.identity(self.dim):
                raise ValueError("known_inverse is not the inverse of the automorphism")
        self._powers[-1] = inv
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
        # a zero scalar is allowed, and makes its constraint singular
        for name in ("left_scalar", "right_scalar"):
            object.__setattr__(self, name, read_rational(getattr(self, name), name))
        for name in ("left_exp", "right_exp"):
            object.__setattr__(self, name, read_integer(getattr(self, name), name))
        for name, length in (("assoc_exp", 3), ("braid_exp", 2)):
            exps = tuple([read_integer(e, name) for e in read_shape(getattr(self, name), "array", name)])
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


_ONE = Fraction(1)


def _product(a: Fraction, b: Fraction) -> Fraction:
    """a * b, skipping the product when a factor is the shared scalar 1."""
    return b if a is _ONE else a if b is _ONE else a * b


class _LegMap:
    """scalar * (leg permutation) * (one word per leg).

    ``perm[i]`` is the output slot receiving input leg i; ``words[i]``
    is applied to leg i before the permutation.  Each word is kept in
    normal form (maps, X, e), standing for maps[0] ... maps[-1] . f_X^e:
    intertwiners ``HomMorphism``, whose constructor checked them, after
    one power of the leg's source X.  The leg matrices are multiplied
    out only by ``to_matrix``.
    """

    __slots__ = ("scalar", "perm", "words")

    def __init__(self, scalar: Fraction, perm: tuple[int, ...], words: tuple[tuple, ...]):
        self.scalar = scalar
        self.perm = perm
        self.words = words

    def after(self, other: "_LegMap") -> "_LegMap":
        """Composite self . other (other runs first), in normal form.

        Where two words meet at an object Y, self's power f_Y^k moves
        right across other's maps: f_Y^k . m == m . f_X^k for an
        intertwiner m: X -> Y.  Words that do not meet at the same
        object (by ``is``) raise ``ValueError``.
        """
        words = []
        for p, (maps, x, e) in zip(other.perm, other.words):
            outer, y, k = self.words[p]
            if (maps[0].target if maps else x) is not y:
                raise ValueError(f"the words on leg {p} do not meet at one object")
            words.append((outer + maps, x, k + e))
        perm = tuple([self.perm[p] for p in other.perm])
        return _LegMap(_product(self.scalar, other.scalar), perm, tuple(words))

    def tensor(self, other: "_LegMap") -> "_LegMap":
        """self (x) other: other's legs follow self's."""
        n = len(self.perm)
        perm = self.perm + tuple([n + p for p in other.perm])
        return _LegMap(_product(self.scalar, other.scalar), perm, self.words + other.words)

    def to_matrix(self) -> Matrix:
        mats = [
            reduce(_compose, [m.matrix for m in maps] + [x.power(e)]) for maps, x, e in self.words
        ]
        mats[0] = mat.scale(self.scalar, mats[0])
        k = reduce(mat.kron, mats)
        n = len(self.perm)
        if self.perm == tuple(range(n)):
            return k
        dims = [len(m) for m in mats]
        strides = [1] * n
        for i in range(n - 1, 0, -1):
            strides[i - 1] = strides[i] * dims[i]
        # output slot perm[i] holds input leg i: walk the output slots,
        # slowest first, each stepping through k's rows by its leg's stride
        rows = [0]
        for i in _permuted(self.perm, range(n)):
            rows = [r + x * strides[i] for r in rows for x in range(dims[i])]
        return tuple([k[r] for r in rows])


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


def _same_matrix(lhs: _LegMap, rhs: _LegMap) -> bool:
    """A sound, sufficient test that two leg maps have the same full matrix.

    True when the permutations, the scalars and the words agree, which
    makes the sides equal whatever the objects.  False only means
    undecided: the full matrices may still be equal.
    """
    return lhs.perm == rhs.perm and lhs.scalar == rhs.scalar and lhs.words == rhs.words


def _morphism(legs: _LegMap) -> HomMorphism:
    """The full morphism of a constraint, from the tensor of its legs' objects,
    checked in full."""
    sources = tuple([x for _, x, _ in legs.words])
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
    words = tuple([((), x, e2 - e1) for (_, x, e1), (_, _, e2) in pairs])
    return _LegMap(
        second.scalar / first.scalar, tuple(range(len(words))), _permuted(first.perm, words)
    )


def _strings(m: Matrix) -> tuple:
    return tuple(tuple(map(format_coefficient, row)) for row in m)


# -- the four constraints at tensor objects ---------------------------------
#
# A block is a tuple of objects: the legs of their tensor product.  Every
# exponent of a structure enters here and nowhere else.


def _blocks(blocks: Sequence[tuple], exps=None, scalar: Fraction = _ONE, perm=None) -> _LegMap:
    """exps[i] on every leg of blocks[i], times scalar, then leg j to slot perm[j].

    f_(X(x)Y)^e = f_X^e (x) f_Y^e, so a constraint at a tensor object
    puts its exponent on every leg of that object.  Without exponents
    this is the identity.
    """
    if exps is None:
        exps = (0,) * len(blocks)
    words = tuple([((), x, e) for block, e in zip(blocks, exps) for x in block])
    return _LegMap(scalar, tuple(range(len(words))) if perm is None else perm, words)


_I = (_UNIT,)  # the unit as a block
_I_LEG = ((), _UNIT, 0)  # f_I^0, the identity on the unit's leg, as a word


def _assoc(s: StructureMaps, x: tuple, y: tuple, z: tuple, sign: int = 1) -> _LegMap:
    """a_{X,Y,Z}: (X (x) Y) (x) Z -> X (x) (Y (x) Z); its inverse for sign -1."""
    e1, e2, e3 = s.assoc_exp
    return _blocks((x, y, z), (e1, e2, e3) if sign > 0 else (-e1, -e2, -e3))


def _lunit(s: StructureMaps, x: tuple) -> _LegMap:
    """l_X: I (x) X -> X, keeping the unit's one-dimensional leg."""
    return _blocks((_I, x), (0, s.left_exp), s.left_scalar)


def _runit(s: StructureMaps, x: tuple) -> _LegMap:
    """r_X: X (x) I -> X, keeping the unit's one-dimensional leg."""
    return _blocks((x, _I), (s.right_exp, 0), s.right_scalar)


def _braid(s: StructureMaps, x: tuple, y: tuple) -> _LegMap:
    """c_{X,Y}: X (x) Y -> Y (x) X, moving X's legs past Y's."""
    n, m = len(x), len(y)
    return _blocks((x, y), s.braid_exp, perm=(*range(m, m + n), *range(m)))


def associator(p, x: HomObject, y: HomObject, z: HomObject) -> HomMorphism:
    return _morphism(_assoc(structure_maps(p), (x,), (y,), (z,)))


def left_unitor(p, x: HomObject) -> HomMorphism:
    return _morphism(_lunit(structure_maps(p), (x,)))


def right_unitor(p, x: HomObject) -> HomMorphism:
    return _morphism(_runit(structure_maps(p), (x,)))


def braiding(p, x: HomObject, y: HomObject) -> HomMorphism:
    return _morphism(_braid(structure_maps(p), (x,), (y,)))


# -- the coherence axioms, one pair of sides each ---------------------------
#
# Each side is its textbook composite of constraints at blocks.


def _pentagon(s, u, v, w, x) -> tuple[_LegMap, _LegMap]:
    """(id_U (x) a_{V,W,X}) a_{U,V(x)W,X} (a_{U,V,W} (x) id_X) = a_{U,V,W(x)X} a_{U(x)V,W,X}"""
    lhs = (
        _blocks((u,)).tensor(_assoc(s, v, w, x))
        .after(_assoc(s, u, v + w, x))
        .after(_assoc(s, u, v, w).tensor(_blocks((x,))))
    )
    return lhs, _assoc(s, u, v, w + x).after(_assoc(s, u + v, w, x))


def _triangle(s, v, w) -> tuple[_LegMap, _LegMap]:
    """(id_V (x) l_W) a_{V,I,W} = r_V (x) id_W"""
    lhs = _blocks((v,)).tensor(_lunit(s, w)).after(_assoc(s, v, _I, w))
    return lhs, _runit(s, v).tensor(_blocks((w,)))


def _hexagon_forward(s, u, v, w) -> tuple[_LegMap, _LegMap]:
    """a_{V,W,U} c_{U,V(x)W} a_{U,V,W} = (id_V (x) c_{U,W}) a_{V,U,W} (c_{U,V} (x) id_W)"""
    lhs = _assoc(s, v, w, u).after(_braid(s, u, v + w)).after(_assoc(s, u, v, w))
    rhs = (
        _blocks((v,)).tensor(_braid(s, u, w))
        .after(_assoc(s, v, u, w))
        .after(_braid(s, u, v).tensor(_blocks((w,))))
    )
    return lhs, rhs


def _hexagon_backward(s, u, v, w) -> tuple[_LegMap, _LegMap]:
    """a^-1_{W,U,V} c_{U(x)V,W} a^-1_{U,V,W} = (c_{U,W} (x) id_V) a^-1_{U,W,V} (id_U (x) c_{V,W})"""
    lhs = _assoc(s, w, u, v, -1).after(_braid(s, u + v, w)).after(_assoc(s, u, v, w, -1))
    rhs = (
        _braid(s, u, w).tensor(_blocks((v,)))
        .after(_assoc(s, u, w, v, -1))
        .after(_blocks((u,)).tensor(_braid(s, v, w)))
    )
    return lhs, rhs


def _symmetry(s, u, v) -> tuple[_LegMap, _LegMap]:
    """c_{V,U} c_{U,V} = id_{U(x)V}"""
    return _braid(s, v, u).after(_braid(s, u, v)), _blocks((u, v))


def _maps_legs(maps) -> _LegMap:
    """The tensor product of the maps, leg by leg; ``_I_LEG`` is already a word."""
    words = tuple([m if m is _I_LEG else ((m,), m.source, 0) for m in maps])
    return _LegMap(_ONE, tuple(range(len(maps))), words)


def _natural(constraint, s, sources, targets, maps) -> tuple[_LegMap, _LegMap]:
    """The naturality square of a constraint on one-leg objects:
    C_targets . (maps) = (maps, moved as C moves legs) . C_sources.

    ``maps`` holds one entry per leg of C's source: an intertwiner, or
    ``_I_LEG`` on a unitor's unit leg.
    """
    before = constraint(s, *[(x,) for x in sources])
    lhs = constraint(s, *[(y,) for y in targets]).after(_maps_legs(maps))
    return lhs, _maps_legs(_permuted(before.perm, maps)).after(before)


def _natural_unitor(s, sources, targets, maps, side: str) -> tuple[_LegMap, _LegMap]:
    if side == "left":
        return _natural(_lunit, s, sources, targets, (_I_LEG,) + maps)
    if side == "right":
        return _natural(_runit, s, sources, targets, maps + (_I_LEG,))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _matrices(build, p, *args) -> tuple[Matrix, Matrix]:
    """Both sides of build's axiom for structure p, as full matrices."""
    lhs, rhs = build(structure_maps(p), *args)
    return lhs.to_matrix(), rhs.to_matrix()


def pentagon_sides(p, u, v, w, x) -> tuple[Matrix, Matrix]:
    return _matrices(_pentagon, p, (u,), (v,), (w,), (x,))


def triangle_sides(p, v, w) -> tuple[Matrix, Matrix]:
    return _matrices(_triangle, p, (v,), (w,))


def hexagon_forward_sides(p, u, v, w) -> tuple[Matrix, Matrix]:
    return _matrices(_hexagon_forward, p, (u,), (v,), (w,))


def hexagon_backward_sides(p, u, v, w) -> tuple[Matrix, Matrix]:
    return _matrices(_hexagon_backward, p, (u,), (v,), (w,))


def symmetry_sides(p, u, v) -> tuple[Matrix, Matrix]:
    return _matrices(_symmetry, p, (u,), (v,))


def naturality_associator_sides(p, sources, targets, maps) -> tuple[Matrix, Matrix]:
    maps = tuple(map(HomMorphism, sources, targets, maps))
    return _matrices(partial(_natural, _assoc), p, sources, targets, maps)


def naturality_unitor_sides(p, source, target, m, side: str) -> tuple[Matrix, Matrix]:
    m = HomMorphism(source, target, m)
    return _matrices(_natural_unitor, p, (source,), (target,), (m,), side)


def naturality_braiding_sides(p, sources, targets, maps) -> tuple[Matrix, Matrix]:
    maps = tuple(map(HomMorphism, sources, targets, maps))
    return _matrices(partial(_natural, _braid), p, sources, targets, maps)


# -- random sampling, all through one seeded generator ----------------------

# elementary operations drawn for each unimodular matrix
_UNIMODULAR_DRAWS = 6


def _elementary_ops(rng: random.Random, n: int) -> list[tuple[int, int, int, int]]:
    """The elementary integer operations of one unimodular draw, in order.

    Each is (kind, i, j, c): kind 0 adds c times row j to row i, kind 1
    swaps rows i and j, kind 2 negates row i.  A draw whose i == j would
    make kind 0 or 1 the identity is drawn and dropped.
    """
    ops = []
    for _ in range(_UNIMODULAR_DRAWS):
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


def _apply_rows(ops, m: Matrix) -> Matrix:
    """E_k ... E_1 m, each operation applied to the rows of m in turn."""
    rows = list(m)
    for kind, i, j, c in ops:
        if kind == 0:
            rows[i] = tuple([x + c * y for x, y in zip(rows[i], rows[j])])
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = tuple([-x for x in rows[i]])
    return tuple(rows)


def _undo_columns(ops, m: Matrix) -> Matrix:
    """m E_1^-1 ... E_k^-1, each inverse applied to the columns of m in turn.

    Row i += c row j is undone on the right by column j -= c column i;
    a swap and a negation are their own inverses.
    """
    cols = list(zip(*m))
    for kind, i, j, c in ops:
        if kind == 0:
            cols[j] = tuple([x - c * y for x, y in zip(cols[j], cols[i])])
        elif kind == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = tuple([-x for x in cols[i]])
    return tuple(zip(*cols))


def random_unimodular(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """(u, u^-1) for u a product of elementary integer matrices.

    Every power of u is exact and integral.  u is the drawn operations
    replayed on the rows of the identity and u^-1 their inverses
    replayed on its columns, so u^-1 comes without an elimination.
    """
    ops = _elementary_ops(rng, n)
    return _apply_rows(ops, mat.identity(n)), _undo_columns(ops, mat.identity(n))


def random_object(rng: random.Random, max_dim: int = 4) -> HomObject:
    n = rng.randint(1, max_dim)
    return HomObject(n, *random_unimodular(rng, n))


def random_morphism(rng: random.Random, x: HomObject) -> tuple[HomObject, Matrix]:
    """A target object and an intertwiner from x to it.

    The target automorphism is a unimodular conjugate u f u^-1 of the
    source one and the map is u times a small polynomial p(f), which
    commutes with f; intertwining therefore holds by construction, and
    ``check_coherence`` still has ``HomMorphism`` check it on every use
    before any power is moved across the map.  u is never built: its
    drawn elementary operations are replayed on the rows and their
    inverses on the columns, O(draws n) per matrix instead of a dense
    product.  f^2 and f^-1 come from the object's cache of powers, so
    the target is built with its known inverse u f^-1 u^-1, which
    ``HomObject`` certifies by one product instead of an elimination.
    """
    n = x.dim
    ops = _elementary_ops(rng, n)
    f = x.matrix
    coeffs = [rng.randint(-1, 1) for _ in range(3)]
    if not any(coeffs):
        coeffs[rng.randrange(3)] = 1
    poly = mat.scale(coeffs[0], mat.identity(n))
    for c, fp in zip(coeffs[1:], (f, x.power(2))):
        if c:
            poly = tuple(tuple(a + c * b for a, b in zip(ra, rb)) for ra, rb in zip(poly, fp))
    target = HomObject(
        n,
        _undo_columns(ops, _apply_rows(ops, f)),
        _undo_columns(ops, _apply_rows(ops, x.power(-1))),
    )
    return target, _apply_rows(ops, poly)


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
    ("pentagon", 4, (_pentagon,), False),
    ("triangle", 2, (_triangle,), False),
    ("hexagon_forward", 3, (_hexagon_forward,), False),
    ("hexagon_backward", 3, (_hexagon_backward,), False),
    ("symmetry", 2, (_symmetry,), False),
    ("naturality_associator", 3, (partial(_natural, _assoc),), True),
    (
        "naturality_unitors",
        1,
        (partial(_natural_unitor, side="left"), partial(_natural_unitor, side="right")),
        True,
    ),
    ("naturality_braiding", 2, (partial(_natural, _braid),), True),
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
            if natural:
                mors = [random_morphism(rng, o) for o in objs]
                targets = tuple(t for t, _ in mors)
                maps = tuple(HomMorphism(o, t, m) for o, (t, m) in zip(objs, mors))
                args = (objs, targets, maps)
            else:
                args = tuple((o,) for o in objs)
            dims = tuple(o.dim for o in objs)
            results.append(_decide(dims, (build(s, *args) for build in builders)))
        groups.append((axiom, tuple(results)))
    params_desc = p.to_dict() if isinstance(p, MonoidalParams) else {
        "assoc_exp": list(s.assoc_exp),
        "left": [format_coefficient(s.left_scalar), s.left_exp],
        "right": [format_coefficient(s.right_scalar), s.right_exp],
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


# (constraint, leading objects of the trial it takes, block constraint)
_CONSTRAINTS = (
    ("associator", 3, _assoc),
    ("left_unitor", 1, _lunit),
    ("right_unitor", 1, _runit),
    ("braiding", 2, _braid),
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
        blocks = tuple([(o,) for o in objs])
        for name, arity, build in _CONSTRAINTS:
            first, second = build(s1, *blocks[:arity]), build(s2, *blocks[:arity])
            dims = tuple(o.dim for o in objs[:arity])
            equal = _same_matrix(first, second) or not (first.scalar or second.scalar)
            if not equal:
                ratio = _ratio(first, second).to_matrix()
                equal = ratio == mat.identity(len(ratio))
            entries.append(
                ConstraintComparison(name, dims, equal, None if equal else _strings(ratio))
            )
    return ComparisonReport(seed, trials, tuple(entries))
