"""Expected results, computed without qbialg.

Every check the benchmark makes compares qbialg's output with a value
built here from the inputs alone: small exact matrix arithmetic over
Fractions, the closed forms of the paper's constructions, and JSON
documents written in qbialg's serialization format.  Nothing in this
module imports qbialg.
"""

from __future__ import annotations

import random
from fractions import Fraction

# -- exact matrices as tuples of tuples of Fractions --------------------------


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def kron(a, b):
    return tuple(
        tuple(x * y for x in ra for y in rb) for ra in a for rb in b
    )


def scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def inverse(a):
    n = len(a)
    aug = [list(row) + list(e) for row, e in zip(a, identity(n))]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def power(a, e):
    if e < 0:
        a, e = inverse(a), -e
    out = identity(len(a))
    for _ in range(e):
        out = mul(out, a)
    return out


def determinant(a):
    m = [list(map(Fraction, row)) for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def as_strings(a):
    return tuple(tuple(str(x) for x in row) for row in a)


def random_automorphism(rng: random.Random, n: int):
    """An invertible rational matrix with small entries.

    Dimension 1 draws a nonzero scalar, so some objects have finite
    order and some do not.  Larger dimensions draw a unit lower
    triangular integer matrix with a random sign in every entry below
    the diagonal: its powers stay integral, and every draw of one size
    has the same zero pattern, so the cost of the exact arithmetic on
    it, eliminations included, hardly depends on the draw.
    """
    if n == 1:
        return ((Fraction(rng.choice((1, -1, 2, -2, 3))) ** rng.choice((1, -1)),),)
    return tuple(
        tuple(Fraction(1 if i == j else rng.choice((-1, 1)) if i > j else 0) for j in range(n))
        for i in range(n)
    )


# -- the (q, a, b) family of monoidal structures ---------------------------


def family_maps(q, a, b):
    """Constraint exponents of the structure with parameters (q, a, b)."""
    return {
        "assoc_exp": (a, 0, b),
        "left": (Fraction(q), -b),
        "right": (Fraction(q), a),
        "braid_exp": (a + b, -(a + b)),
    }


MODIFIED_MAPS = {
    "assoc_exp": (1, 0, -1),
    "left": (Fraction(1), 1),
    "right": (Fraction(1), 1),
    "braid_exp": (0, 0),
}


def params_description(maps, q=None, a=None, b=None):
    """The ``params`` field of a coherence report."""
    if q is not None:
        return {"q": str(Fraction(q)), "a": a, "b": b}
    return {
        "assoc_exp": list(maps["assoc_exp"]),
        "left": [str(maps["left"][0]), maps["left"][1]],
        "right": [str(maps["right"][0]), maps["right"][1]],
        "braid_exp": list(maps["braid_exp"]),
    }


def constraint_ratio(name, m1, m2, objs):
    """Second structure's constraint composed with the inverse of the first.

    Every constraint is a scalar times powers of the object
    automorphisms, so the ratio is the same expression in the exponent
    differences.  The braiding ratio has its factors swapped, because
    conjugating by the flip exchanges the two legs.
    """
    if name == "associator":
        x, y, z = objs
        da = [e2 - e1 for e1, e2 in zip(m1["assoc_exp"], m2["assoc_exp"])]
        return kron(power(x, da[0]), kron(power(y, da[1]), power(z, da[2])))
    if name in ("left_unitor", "right_unitor"):
        side = name.split("_")[0]
        (q1, e1), (q2, e2) = m1[side], m2[side]
        return scale(q2 / q1, power(objs[0], e2 - e1))
    x, y = objs
    d1 = m2["braid_exp"][0] - m1["braid_exp"][0]
    d2 = m2["braid_exp"][1] - m1["braid_exp"][1]
    return kron(power(y, d2), power(x, d1))


def pentagon_holds(middle_exp, fv, fw):
    """Pentagon instance (u, v, w, x) of a structure with associator
    exponents (e1, e, e3): its two sides differ by f_v^e (x) f_w^e on
    the middle legs, so it holds exactly when that product is Id."""
    prod = kron(power(fv, middle_exp), power(fw, middle_exp))
    return prod == identity(len(prod))


# -- Laurent tensors and presentations in qbialg's JSON format -----------------


def tensor(coeff, exps):
    """One-term tensor element coeff * g^e1 (x) ... (x) g^em as a dict."""
    exps = [list(v) for v in exps]
    return {
        "rank": len(exps[0]),
        "legs": len(exps),
        "terms": [{"c": str(Fraction(coeff)), "e": exps}],
    }


def basis(rank, i):
    return [int(j == i) for j in range(rank)]


def neg(v):
    return [-c for c in v]


def add(u, v):
    return [a + b for a, b in zip(u, v)]


def presentation(q, h, g, counit=None, phi_scalar=1):
    """The canonical presentation phi = h (x) 1 (x) g, lambda = q g^-g,
    rho = q h, over the coalgebra with coproduct (1/c_i) g_i (x) g_i
    and counit c_i (all c_i = 1 unless given)."""
    rank = len(h)
    counit = counit or [Fraction(1)] * rank
    zero = [0] * rank
    return {
        "rank": rank,
        "coproduct": [
            tensor(1 / Fraction(c), [basis(rank, i), basis(rank, i)])
            for i, c in enumerate(counit)
        ],
        "counit": [str(Fraction(c)) for c in counit],
        "phi": tensor(phi_scalar, [h, zero, g]),
        "lambda": tensor(q, [neg(g)]),
        "rho": tensor(q, [h]),
    }


def forced_presentation(q, h, g, counit):
    """A forced-form presentation whose normalization is canonical(q, h, g).

    The normalizing automorphism sends g_i to c_i g_i; the constraints
    here carry the inverse scaling, so applying it lands exactly on the
    canonical presentation.
    """
    def weight(v):
        out = Fraction(1)
        for c, e in zip(counit, v):
            out *= Fraction(c) ** e
        return out

    doc = presentation(q, h, g, counit, phi_scalar=1 / (weight(h) * weight(g)))
    doc["lambda"] = tensor(Fraction(q) * weight(g), [neg(g)])
    doc["rho"] = tensor(Fraction(q) / weight(h), [h])
    return doc


def ordinary(rank):
    zero = [0] * rank
    return presentation(1, zero, zero)


def trivializing_twist(q, h, g):
    """q g^h (x) g^-g carries canonical(q, h, g) to the ordinary structure."""
    return tensor(q, [h, neg(g)])


def r_matrix(h, g):
    """The unique R-matrix of canonical(q, h, g): g^(h+g) (x) g^-(h+g)."""
    s = add(h, g)
    return tensor(1, [s, neg(s)])


def twisted(q, h, g, t, x, y):
    """canonical(q, h, g) twisted by t g^x (x) g^y is canonical(q/t, h-x, g+y)."""
    return presentation(Fraction(q) / t, add(h, neg(x)), add(g, y))


def twisted_r(h, g, x, y):
    """flip(alpha) R alpha^-1 for R = g^s (x) g^-s, alpha = t g^x (x) g^y."""
    s = add(h, g)
    first = add(add(y, s), neg(x))
    return tensor(1, [first, neg(first)])


# -- Harrison cochains ------------------------------------------------------


def boundary(scalar, vectors, rank):
    """Alternating product of the n + 2 cofaces, on exponent vectors.

    Coface 0 and n + 1 put the identity at an end, coface i doubles
    slot i; the scalar survives exactly when n is odd.
    """
    n = len(vectors)
    zero = [0] * rank
    out = [list(zero) for _ in range(n + 1)]
    for i in range(n + 2):
        if i == 0:
            face = [zero] + [list(v) for v in vectors]
        elif i == n + 1:
            face = [list(v) for v in vectors] + [zero]
        else:
            face = [list(v) for v in vectors[:i]] + [list(v) for v in vectors[i - 1:]]
        sign = 1 if i % 2 == 0 else -1
        out = [[a + sign * b for a, b in zip(o, f)] for o, f in zip(out, face)]
    return {"scalar": str(Fraction(scalar) if n % 2 else Fraction(1)), "elements": out}


def cohomology(rank, degree):
    """H^0 = k*, H^1 = Z^r, and trivial from degree 2 on."""
    return {
        "free_rank": rank if degree == 1 else 0,
        "torsion": [],
        "scalar_factor": degree == 0,
    }
