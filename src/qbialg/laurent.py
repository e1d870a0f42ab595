"""Exact arithmetic in tensor powers of Laurent polynomial group algebras.

The base ring is the group algebra k[Z^r] over the rationals: Laurent
polynomials in r commuting invertible generators g_1, ..., g_r.  An
element of the m-fold tensor power k[Z^r]^(x m) is stored sparsely as a
map from m-tuples of integer exponent vectors to nonzero rational
coefficients.  All arithmetic is exact; nothing here ever rounds.

Every exact number coming in from a file or a Python caller is read by
one of two readers here, which name the field they refuse:
``read_integer`` takes an int that is not a bool, ``read_rational`` such
an int, a ``Fraction`` or text such as "-3/2", and neither a float.
``read_shape`` reads every array and record around them the same way, and
``read_key`` every key of a record.

Group-like monomials q * g^(v_1) (x) ... (x) g^(v_m) with q != 0 are
exactly the invertible elements of the tensor power.  ``as_unit`` is the
one place that certifies a unit: it checks the rank and the leg count the
caller expects, then asks for a single term and nothing more, and names
the caller's field in every error.
Such a unit is a ``UnitElement``, and the leg operations (concatenation,
permutation, identity-leg insertion, and an algebra map or the counit
on one leg) act on units: each is a splice of exponent tuples and a
product of scalars.  Every computed element, witnesses included, is a
``UnitElement``.  ``TensorElement`` is the JSON record: ``from_dict``
reads it, ``as_unit`` certifies it where it comes in, and
``UnitElement.to_dict`` writes a unit through it.  Its ring operations
are reached only from the tests, as the reference for the unit arithmetic.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import InitVar, dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Mapping

Vector = tuple[int, ...]
TermKey = tuple[Vector, ...]


class RankMismatch(ValueError):
    """Operands live over group algebras of different rank."""


class LegMismatch(ValueError):
    """Operands have a different number of tensor legs."""


class LegOutOfRange(ValueError):
    """A leg index falls outside 1..legs."""


class NotAUnit(ValueError):
    """Element is not invertible (it is not a single nonzero monomial)."""


def read_integer(value, field: str) -> int:
    """``value`` as an exact integer: an int that is not a bool.  1.7, 2.0,
    a ``Fraction``, "12" or ``True`` raises TypeError naming ``field``."""
    if type(value) is int:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return operator.index(value)  # an int subclass, as a plain int
    raise TypeError(f"{field}: expected an integer, got {value!r}")


# Number text is ASCII: a sign, the digits 0-9 and spaces around them
# (\d, int() and Fraction() also read other scripts' digits, int() "1_0").
# INTEGER_TEXT is an integer; _RATIONAL also p/q with q != 0 or a decimal,
# neither with an exponent, so the digits of the text bound the number.
INTEGER_TEXT = re.compile(r"\s*[-+]?[0-9]+\s*")
_RATIONAL = re.compile(r"\s*[-+]?([0-9]+(/0*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)\s*")


def read_rational(value, field: str) -> Fraction:
    """``value`` as an exact rational: an int that is not a bool, a ``Fraction``
    (returned as it is), or text such as "3", "-1/2" or "0.25".  A float or a
    bool raises TypeError, and exponent notation ValueError: "1e400000" is eight
    bytes that would expand into a 400,001-digit integer.  Both name ``field``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"{field}: expected an integer, a Fraction or rational text, got {value!r}")
    if not _RATIONAL.fullmatch(value):
        raise ValueError(
            f"{field}: expected an integer, p/q or a decimal"
            f" (no exponent, no zero denominator), got {value!r}"
        )
    try:
        return Fraction(value)
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"{field}: {exc}") from None


_SHAPES = {"array": (list, tuple), "object": dict}


def read_shape(value, kind: str, field: str):
    """``value`` if it is a JSON ``kind``, "array" (list or tuple) or "object" (dict)."""
    if isinstance(value, _SHAPES[kind]):
        return value
    raise TypeError(f"{field}: expected an {kind}, got {type(value).__name__}")


def read_key(record: Mapping, key: str, prefix: str = ""):
    """``record[key]``, the field ``{prefix}{key}``; a missing key raises
    ValueError naming that field."""
    if key not in record:
        raise ValueError(f"{prefix}{key}: missing")
    return record[key]


def _as_vector(v: Iterable, rank: int, field: str) -> Vector:
    vec = tuple([read_integer(c, field) for c in read_shape(v, "array", field)])
    if len(vec) != rank:
        raise RankMismatch(f"exponent vector {vec} has length {len(vec)}, expected {rank}")
    return vec


_ONE = Fraction(1)


def _vadd(a: Vector, b: Vector) -> Vector:
    return tuple(map(operator.add, a, b))


def _times(a: Fraction, b: Fraction) -> Fraction:
    """a * b, returning the other factor as it is when one of them is 1:
    most scalars in a round trip are 1, and a test costs far less than a
    ``Fraction`` product.  The result is always one of the inputs or their
    product, so it stays a ``Fraction``."""
    return a if b == 1 else b if a == 1 else a * b


def _vneg(a: Vector) -> Vector:
    return tuple(map(operator.neg, a))


def _vscale(c: int, a: Vector) -> Vector:
    return tuple(map(operator.mul, repeat(c), a))


def _zero_vector(rank: int) -> Vector:
    return (0,) * rank


# sys.get_int_max_str_digits is missing before Python 3.10.7, which has no limit
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


# An integer of b bits has at most floor(b * log10(2)) + 1 digits, and
# 0.30103 > log10(2).  So one of at most this many bits converts under any
# limit: a nonzero limit is at least sys.int_info.str_digits_check_threshold,
# 640 digits.
_ALWAYS_FITS_BITS = (640 * 100000 - 1) // 30103


def _integer_text(n: int, limit: int) -> str:
    bits = n.bit_length()
    if not limit or bits * 30103 // 100000 < limit:
        return str(n)
    return f"{'-' if n < 0 else ''}<{bits}-bit integer>"


def format_coefficient(c: Fraction | int) -> str:
    """``str(c)``, except that an integer part too long for ``str()`` under
    ``sys.get_int_max_str_digits()`` is written as ``<N-bit integer>``.

    Computed coefficients can outgrow the input: counit 2 and an exponent
    of 3,000,000 give 2^3000000, which has 903,090 digits.  Whether a part
    is too long is decided from its bit length, never by trying ``str()``.
    Such a text is a report, not an input: ``read_rational`` refuses it.
    """
    num, den = c.numerator, c.denominator
    if num.bit_length() <= _ALWAYS_FITS_BITS and den.bit_length() <= _ALWAYS_FITS_BITS:
        return str(num) if den == 1 else f"{num}/{den}"
    limit = _int_max_str_digits()
    text = _integer_text(num, limit)
    return text if den == 1 else f"{text}/{_integer_text(den, limit)}"


class TensorElement:
    """A sparse element of k[Z^r]^(x legs) with exact rational coefficients.

    Terms are kept in a dict keyed by tuples of exponent vectors; zero
    coefficients are dropped on construction, so the zero element is the
    one with no terms at all.  Serialization and printing list terms in
    a canonical order (lexicographic on the concatenated exponents), so
    equal elements always produce byte-identical output.
    """

    __slots__ = ("rank", "legs", "_terms")

    def __init__(self, rank: int, legs: int, terms: Mapping[TermKey, Fraction] | None = None):
        rank, legs = _shape(rank, legs, "")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "legs", legs)
        clean: dict[TermKey, Fraction] = {}
        for key, value in read_shape({} if terms is None else terms, "object", "terms").items():
            _add_term(clean, rank, legs, key, value, "exponent", "coefficient")
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, rank: int, legs: int) -> "TensorElement":
        return cls(rank, legs, {})

    @classmethod
    def one(cls, rank: int, legs: int) -> "TensorElement":
        """The multiplicative identity 1 (x) ... (x) 1."""
        return cls(rank, legs, {((0,) * rank,) * legs: 1})

    @classmethod
    def single(cls, coeff, exps: Iterable[Iterable[int]]) -> "TensorElement":
        """One monomial term coeff * g^(e_1) (x) ... (x) g^(e_m)."""
        exps = read_shape(exps, "array", "exps")
        key = tuple([tuple(read_shape(e, "array", f"exps[{i}]")) for i, e in enumerate(exps)])
        if not key:
            raise LegMismatch("a tensor element needs at least one leg")
        return cls(len(key[0]), len(key), {key: coeff})

    @classmethod
    def generator(cls, rank: int, index: int) -> "TensorElement":
        """The one-leg generator g_index (1-based index)."""
        if not 1 <= index <= rank:
            raise RankMismatch(f"generator index {index} outside 1..{rank}")
        vec = tuple(1 if j == index - 1 else 0 for j in range(rank))
        return cls(rank, 1, {(vec,): Fraction(1)})

    # -- inspection --------------------------------------------------

    def terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms in canonical order (lex on concatenated exponents)."""
        return sorted(self._terms.items(), key=lambda kv: tuple(chain.from_iterable(kv[0])))

    def term_count(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.rank == other.rank
            and self.legs == other.legs
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.rank, self.legs, tuple(self.terms())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring structure ----------------------------------------------

    def _check_compatible(self, other: "TensorElement") -> None:
        if not isinstance(other, TensorElement):
            raise TypeError(f"expected TensorElement, got {type(other).__name__}")
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        if self.legs != other.legs:
            raise LegMismatch(f"{self.legs} legs vs {other.legs}")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_compatible(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _raw(self.rank, self.legs, out)

    def __neg__(self) -> "TensorElement":
        return _raw(self.rank, self.legs, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __mul__(self, other) -> "TensorElement":
        if isinstance(other, (int, Fraction)):
            c = read_rational(other, "scalar")
            if not c:
                return TensorElement.zero(self.rank, self.legs)
            return _raw(self.rank, self.legs, {k: c * v for k, v in self._terms.items()})
        self._check_compatible(other)
        out: dict[TermKey, Fraction] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                key = tuple(_vadd(a, b) for a, b in zip(ka, kb))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _raw(self.rank, self.legs, out)

    __rmul__ = __mul__

    # -- printing and serialization -----------------------------------

    def _leg_str(self, vec: Vector) -> str:
        if all(c == 0 for c in vec):
            return "1"
        if self.rank == 1:
            e = vec[0]
            return "g" if e == 1 else f"g^{e}"
        return "g^(" + ",".join(str(c) for c in vec) + ")"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, c in self.terms():
            mono = " (x) ".join(self._leg_str(v) for v in key)
            parts.append(mono if c == 1 else f"{c} * {mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TensorElement(rank={self.rank}, legs={self.legs}, <{len(self._terms)} terms>)"

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "legs": self.legs,
            "terms": [
                {"c": format_coefficient(c), "e": [list(v) for v in key]}
                for key, c in self.terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping, field: str = "") -> "TensorElement":
        """The element a ``to_dict`` document describes; ``field`` ("phi.") prefixes errors."""
        data = read_shape(data, "object", field[:-1] or "element")
        rank, legs = _shape(read_key(data, "rank", field), read_key(data, "legs", field), field)
        terms: dict[TermKey, Fraction] = {}
        for i, entry in enumerate(read_shape(read_key(data, "terms", field), "array", f"{field}terms")):
            where = f"{field}terms[{i}]"
            entry = read_shape(entry, "object", where)
            e, c = read_key(entry, "e", f"{where}."), read_key(entry, "c", f"{where}.")
            _add_term(terms, rank, legs, e, c, f"{where}.e", f"{where}.c")
        return _raw(rank, legs, terms)


def _shape(rank, legs, field: str) -> tuple[int, int]:
    """``rank`` and ``legs`` read as ``{field}rank`` and ``{field}legs``, both >= 1."""
    rank = read_integer(rank, f"{field}rank")
    legs = read_integer(legs, f"{field}legs")
    if rank < 1:
        raise RankMismatch(f"rank must be >= 1, got {rank}")
    if legs < 1:
        raise LegMismatch(f"legs must be >= 1, got {legs}")
    return rank, legs


def _add_term(terms: dict, rank: int, legs: int, key, value, e_field: str, c_field: str) -> None:
    """Add value * g^(key[0]) (x) ... into ``terms``, dropping a zero sum;
    the exponents are read as ``e_field``, the coefficient as ``c_field``."""
    key = tuple([_as_vector(v, rank, e_field) for v in read_shape(key, "array", e_field)])
    if len(key) != legs:
        raise LegMismatch(f"term {key} has {len(key)} legs, expected {legs}")
    s = terms.pop(key, 0) + read_rational(value, c_field)
    if s:
        terms[key] = s


def _raw(rank: int, legs: int, terms: dict[TermKey, Fraction]) -> TensorElement:
    """Internal constructor that skips per-term validation."""
    elem = object.__new__(TensorElement)
    object.__setattr__(elem, "rank", rank)
    object.__setattr__(elem, "legs", legs)
    object.__setattr__(elem, "_terms", terms)
    return elem


@dataclass(frozen=True)
class UnitElement:
    """An invertible element q * g^(v_1) (x) ... (x) g^(v_m), q != 0.

    ``monomial`` may be empty (zero legs); that degenerate shape is the
    scalar group k* itself and is used by cochains of degree zero.
    """

    rank: int
    scalar: Fraction
    monomial: tuple[Vector, ...]

    def __post_init__(self):
        # results built from valid units go through _raw_unit instead
        parts = _read_unit(self.rank, self.scalar, self.monomial, "monomial")
        for name, value in zip(("rank", "scalar", "monomial"), parts):
            object.__setattr__(self, name, value)

    @property
    def legs(self) -> int:
        return len(self.monomial)

    @classmethod
    def identity(cls, rank: int, legs: int) -> "UnitElement":
        if legs < 0:
            raise LegMismatch(f"legs must be >= 0, got {legs}")
        return cls(rank, 1, ((0,) * rank,) * legs)

    def inverse(self) -> "UnitElement":
        q = self.scalar
        return _raw_unit(self.rank, q if q == 1 else 1 / q, tuple(map(_vneg, self.monomial)))

    def power(self, n: int) -> "UnitElement":
        n = read_integer(n, "n")
        q = self.scalar
        return _raw_unit(self.rank, q if q == 1 else q ** n, tuple(_vscale(n, v) for v in self.monomial))

    def __mul__(self, other: "UnitElement") -> "UnitElement":
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        if self.legs != other.legs:
            raise LegMismatch(f"{self.legs} legs vs {other.legs}")
        return _raw_unit(
            self.rank,
            _times(self.scalar, other.scalar),
            tuple(map(_vadd, self.monomial, other.monomial)),
        )

    def to_tensor(self) -> TensorElement:
        if not self.monomial:
            raise LegMismatch("a zero-leg unit has no tensor element form")
        return _raw(self.rank, self.legs, {self.monomial: self.scalar})

    def to_dict(self) -> dict:
        """The JSON record of the unit: ``TensorElement.to_dict`` of its one term."""
        return self.to_tensor().to_dict()

    def __str__(self) -> str:
        if not self.monomial:
            return str(self.scalar)
        return str(self.to_tensor())


def _read_unit(rank, scalar, vectors, field: str) -> tuple[int, Fraction, tuple[Vector, ...]]:
    """(rank, scalar, monomial) of a unit, read once; vector j as ``field[j]``."""
    rank = read_integer(rank, "rank")
    if rank < 1:
        raise RankMismatch(f"rank must be >= 1, got {rank}")
    scalar = read_rational(scalar, "scalar")
    if not scalar:
        raise NotAUnit("scalar part of a unit must be nonzero")
    vectors = read_shape(vectors, "array", field)
    return rank, scalar, tuple([_as_vector(v, rank, f"{field}[{j}]") for j, v in enumerate(vectors)])


def _raw_unit(rank: int, scalar: Fraction, monomial: tuple[Vector, ...]) -> UnitElement:
    """Internal constructor that skips validation, for results computed
    from units that are already valid: a nonzero ``Fraction`` scalar and
    ``rank``-long tuples of ints.  Unit arithmetic passes a scalar equal
    to 1 on as it is instead of multiplying, dividing or raising it
    (``_times``), so every computed scalar is still a ``Fraction``."""
    unit = object.__new__(UnitElement)
    object.__setattr__(unit, "rank", rank)
    object.__setattr__(unit, "scalar", scalar)
    object.__setattr__(unit, "monomial", monomial)
    return unit


# -- the operation surface ------------------------------------------------


def as_unit(x: TensorElement | UnitElement, rank: int, legs: int, field: str) -> UnitElement:
    """Certify x as an invertible element of k[Z^rank]^(x legs).

    The rank is checked first, then the leg count, then that x has
    exactly one term; the error (RankMismatch, LegMismatch or NotAUnit)
    starts with ``field``.  A ``UnitElement`` of that shape is returned
    unchanged.
    """
    if x.rank != rank:
        raise RankMismatch(f"{field}: element has rank {x.rank}, expected {rank}")
    if x.legs != legs:
        raise LegMismatch(f"{field}: element has {x.legs} legs, expected {legs}")
    if isinstance(x, UnitElement):
        return x
    if len(x._terms) != 1:
        raise NotAUnit(f"{field}: element has {len(x._terms)} terms, units have exactly 1")
    ((key, c),) = x._terms.items()
    return _raw_unit(rank, c, key)


def invert_unit(x: TensorElement | UnitElement) -> UnitElement:
    """Inverse of an invertible element, as a unit; raises NotAUnit otherwise."""
    return as_unit(x, x.rank, x.legs, "x").inverse()


def tensor_concat(x: UnitElement, y: UnitElement) -> UnitElement:
    """Place x and y side by side: legs concatenate, coefficients multiply."""
    if x.rank != y.rank:
        raise RankMismatch(f"rank {x.rank} vs {y.rank}")
    return _raw_unit(x.rank, _times(x.scalar, y.scalar), x.monomial + y.monomial)


def permute_legs(x: UnitElement, perm: tuple[int, ...]) -> UnitElement:
    """Reorder legs: new leg k is old leg perm[k] (1-based source list).

    permute_legs(x, (2, 3, 1)) realizes x^(2) (x) x^(3) (x) x^(1).
    """
    if sorted(perm) != list(range(1, x.legs + 1)):
        raise LegOutOfRange(f"{perm} is not a permutation of 1..{x.legs}")
    return _raw_unit(x.rank, x.scalar, tuple(x.monomial[p - 1] for p in perm))


def insert_unit_leg(x: UnitElement, position: int) -> UnitElement:
    """Insert an identity leg so that it becomes leg ``position`` (1-based)."""
    if not 1 <= position <= x.legs + 1:
        raise LegOutOfRange(f"position {position} outside 1..{x.legs + 1}")
    z = (_zero_vector(x.rank),)
    return _raw_unit(x.rank, x.scalar, x.monomial[: position - 1] + z + x.monomial[position - 1 :])


@dataclass(frozen=True)
class AlgebraMapSpec:
    """An algebra map k[Z^r] -> k[Z^r]^(x target_legs), by generator images.

    Each generator must land on an invertible element, so the whole map
    is determined by exact unit arithmetic: g^e goes to the product of
    the images raised to the matching exponents.
    """

    rank: int
    target_legs: int
    images: tuple[UnitElement, ...]
    field: InitVar[str] = "image"  # the images' name in errors

    def __post_init__(self, field):
        for name in ("rank", "target_legs"):
            object.__setattr__(self, name, read_integer(getattr(self, name), name))
        if self.target_legs < 1:
            raise LegMismatch(f"target_legs must be >= 1, got {self.target_legs}")
        imgs = tuple(
            as_unit(im, self.rank, self.target_legs, f"{field}[{i}]")
            for i, im in enumerate(read_shape(self.images, "array", field))
        )
        if len(imgs) != self.rank:
            raise RankMismatch(f"{field}: need {self.rank} generator images, got {len(imgs)}")
        object.__setattr__(self, "images", imgs)

    def image_of_vector(self, e: Vector) -> UnitElement:
        """Image of the monomial g^e, as a unit of the target power.  An
        image whose scalar is 1 adds nothing to the scalar, so its power is
        not taken."""
        scalar = _ONE
        legs = [_zero_vector(self.rank)] * self.target_legs
        for j, c in enumerate(e):
            if not c:
                continue
            im = self.images[j]
            if im.scalar != 1:
                scalar = _times(scalar, im.scalar ** c)
            legs = [_vadd(v, _vscale(c, w)) for v, w in zip(legs, im.monomial)]
        return _raw_unit(self.rank, scalar, tuple(legs))


@dataclass(frozen=True)
class CounitSpec:
    """A character k[Z^r] -> k given by a nonzero rational per generator."""

    rank: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "rank", read_integer(self.rank, "rank"))
        values = read_shape(self.values, "array", "counit")
        vals = tuple([read_rational(v, f"counit[{i}]") for i, v in enumerate(values)])
        if len(vals) != self.rank:
            raise RankMismatch(f"counit: need {self.rank} generator values, got {len(vals)}")
        if not all(vals):
            raise NotAUnit("counit values must be nonzero")
        object.__setattr__(self, "values", vals)

    def value_of_vector(self, e: Vector) -> Fraction:
        out = _ONE
        for v, c in zip(self.values, e):
            if c and v != 1:
                out = _times(out, v ** c)
        return out


def apply_algebra_map_on_leg(amap: AlgebraMapSpec, x: UnitElement, leg: int) -> UnitElement:
    """Apply an algebra map to one leg, splicing its output legs in place."""
    if amap.rank != x.rank:
        raise RankMismatch(f"map rank {amap.rank} vs element rank {x.rank}")
    if not 1 <= leg <= x.legs:
        raise LegOutOfRange(f"leg {leg} outside 1..{x.legs}")
    mono = x.monomial
    u = amap.image_of_vector(mono[leg - 1])
    return _raw_unit(x.rank, _times(x.scalar, u.scalar), mono[: leg - 1] + u.monomial + mono[leg:])


def apply_counit_on_leg(eps: CounitSpec, x: UnitElement, leg: int) -> UnitElement:
    """Evaluate the counit on one leg and drop it (needs legs >= 2)."""
    if eps.rank != x.rank:
        raise RankMismatch(f"counit rank {eps.rank} vs element rank {x.rank}")
    if x.legs < 2:
        raise LegMismatch("cannot drop the only leg; counit application needs legs >= 2")
    if not 1 <= leg <= x.legs:
        raise LegOutOfRange(f"leg {leg} outside 1..{x.legs}")
    mono = x.monomial
    scalar = _times(x.scalar, eps.value_of_vector(mono[leg - 1]))
    return _raw_unit(x.rank, scalar, mono[: leg - 1] + mono[leg:])
