"""The benchmark's four workloads, each a list of checked operations.

A workload hands out rounds.  Round k is a fixed list of operations
whose make-up (kinds, sizes, order) is the same in every round and
every run; only the values drawn from the seed change, and no input
repeats within a run.  Each operation has a ``run`` callable, the only
part that is timed, and a ``check`` that compares its result with
values computed in ``oracle`` from the inputs alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from qbialg import cli, harrison, homcat, laurent, rmatrix
from qbialg import quasibialgebra as qb


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # Set when the operation exercises a known fault and is expected to
    # fail until the program is mended; names the fault.
    known_fault: str | None = None
    # Counters taken from the result in traced runs.
    counts: Callable[[object], dict] | None = None


AXIOMS = (
    "pentagon", "triangle", "hexagon_forward", "hexagon_backward", "symmetry",
    "naturality_associator", "naturality_unitors", "naturality_braiding",
)
CONSTRAINTS = ("associator", "left_unitor", "right_unitor", "braiding")

# The four parameter sets of acceptance criterion 6.
FAMILY = ((Fraction(1), 0, 0), (Fraction(1), 1, -1), (Fraction(2), 1, 1), (Fraction(1, 2), -2, 3))
SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2, 3))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}")

    def _op_seed(self, k: int, i: int) -> int:
        """Seed handed to qbialg for operation i of round k; distinct
        within a run."""
        return self.seed * 1_000_000 + k * 100 + i

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError


def _objects(rng: random.Random, dims) -> tuple[list, list]:
    """Random objects of the given dimensions: their matrices, and the
    objects built from them."""
    mats = [oracle.random_automorphism(rng, d) for d in dims]
    return mats, [homcat.HomObject(len(m), m) for m in mats]


def _family_maps(params):
    return oracle.family_maps(*params) if params else oracle.MODIFIED_MAPS


def _structure(params):
    return homcat.MonoidalParams(*params) if params else homcat.HTILDE_STRUCTURE


# -- coherence ---------------------------------------------------------------


class Coherence(Workload):
    """Short check_coherence reports.

    Per round of 32: the four structures of criterion 6 and the
    modified structure, each on a pool of three random objects of one
    dimension: four times of dimension 1, once of dimension 2 and once
    of dimension 3 (81 x 81 pentagon matrices, the slowest sixth); and
    two structures outside the family, with a nonzero middle associator
    exponent, on a pool of one object per dimension 1, 2.  Pools of one
    dimension fix the shape of every matrix, so the cost of a round
    hardly depends on the seed, and the dimension-1 reports, over half
    of the operations, put the median in a band of one shape.
    """

    name = "coherence"

    def round(self, k):
        rng = self._rng(k)
        ops = []
        for dim in (1, 1, 1, 1, 2, 3):
            for params in FAMILY + (None,):
                ops.append(self._family(params, dim, rng, self._op_seed(k, len(ops))))
        for _ in range(2):
            ops.append(self._outside(rng, self._op_seed(k, len(ops))))
        return ops

    @staticmethod
    def _report_shape(report, params_desc, seed, trials, dims):
        return (
            report.params == params_desc
            and report.seed == seed
            and report.trials == trials
            and tuple(name for name, _ in report.axioms) == AXIOMS
            and all(len(group) == trials for _, group in report.axioms)
            and all(set(i.dims) <= dims for _, group in report.axioms for i in group)
        )

    def _family(self, params, dim, rng, seed):
        structure = _structure(params)
        objects = _objects(rng, [dim] * 3)[1]
        desc = oracle.params_description(_family_maps(params), *(params or ()))

        def run():
            return homcat.check_coherence(structure, objects, trials=1, seed=seed)

        def check(report):
            return (
                self._report_shape(report, desc, seed, 1, {dim})
                and report.ok
                and all(i.passed and i.witness is None for _, g in report.axioms for i in g)
            )

        return Op(f"family_dim{dim}", run, check)

    def _outside(self, rng, seed):
        q = rng.choice(SCALARS)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        e = rng.choice((-2, -1, 1, 2))
        maps = {"assoc_exp": (a, e, b), "left": (q, -b), "right": (q, a), "braid_exp": (a + b, -(a + b))}
        structure = homcat.StructureMaps((a, e, b), q, -b, q, a, (a + b, -(a + b)))
        mats, objects = _objects(rng, (1, 2))
        pool = dict(zip((1, 2), mats))
        trials = 2

        def run():
            return homcat.check_coherence(structure, objects, trials=trials, seed=seed)

        def check(report):
            if not self._report_shape(report, oracle.params_description(maps), seed, trials, set(pool)):
                return False
            pentagon = dict(report.axioms)["pentagon"]
            expected = [oracle.pentagon_holds(e, pool[i.dims[1]], pool[i.dims[2]]) for i in pentagon]
            if [i.passed for i in pentagon] != expected:
                return False
            return report.ok is False if not all(expected) else True

        return Op("outside_family", run, check)


# -- compare ---------------------------------------------------------------------


def _distinct_pair(rng):
    """Two family structures whose four constraints all differ on an
    object of infinite order: a, b and a + b all change."""
    while True:
        a1, b1, a2, b2 = (rng.randint(-2, 2) for _ in range(4))
        if a1 != a2 and b1 != b2 and a1 + b1 != a2 + b2:
            return (rng.choice(SCALARS), a1, b1), (rng.choice(SCALARS), a2, b2)



class Compare(Workload):
    """compare_structures reports on single-object pools.

    Per round of 16: the modified structure against (1, 1, -1), as in
    criterion 7, and two distinct random structures of the family,
    whose ratios run the unequal path, each on three objects of
    dimension 1 and five of dimension 2 (8 x 8 constraints).  Dimension
    3 is left out: one such report takes about 0.6 s, and the time of
    so long an operation follows the reference timings around it too
    loosely to normalise well.
    """

    name = "compare"

    def round(self, k):
        rng = self._rng(k)
        ops = []
        for d in (1,) * 3 + (2,) * 5:
            ops.append(self._op(rng, None, (Fraction(1), 1, -1), d, self._op_seed(k, len(ops))))
        for d in (1,) * 3 + (2,) * 5:
            ops.append(self._op(rng, *_distinct_pair(rng), d, self._op_seed(k, len(ops))))
        return ops

    def _op(self, rng, params1, params2, dim, seed):
        (f,), objects = _objects(rng, (dim,))
        s1, s2 = _structure(params1), _structure(params2)
        m1, m2 = _family_maps(params1), _family_maps(params2)

        def run():
            return homcat.compare_structures(s1, s2, objects, trials=1, seed=seed)

        def check(report):
            if report.seed != seed or report.trials != 1:
                return False
            if tuple(e.constraint for e in report.entries) != CONSTRAINTS:
                return False
            if any(set(e.dims) != {dim} for e in report.entries):
                return False
            identical = True
            for entry in report.entries:
                ratio = oracle.constraint_ratio(entry.constraint, m1, m2, [f] * len(entry.dims))
                equal = ratio == oracle.identity(len(ratio))
                identical &= equal
                if entry.equal != equal:
                    return False
                if entry.ratio != (None if equal else oracle.as_strings(ratio)):
                    return False
            return report.identical == identical and (params1 is not None or identical)

        return Op("modified" if params1 is None else "distinct", run, check)


# -- algebra -------------------------------------------------------------------


def _triple(rng, rank):
    q = Fraction(rng.choice((1, -1, 2, -2, 3, 5, -3)), rng.choice((1, 2, 3)))
    h = tuple(rng.randint(-3, 3) for _ in range(rank))
    g = tuple(rng.randint(-3, 3) for _ in range(rank))
    return q, h, g


def _unit_twist(rng, rank):
    t = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 2)))
    x = tuple(rng.randint(-2, 2) for _ in range(rank))
    y = tuple(rng.randint(-2, 2) for _ in range(rank))
    return t, x, y


def _cochain(rng, rank, degree):
    scalar = Fraction(rng.choice((1, -1, 2, -2, 3, 5)), rng.choice((1, 2, 3)))
    return scalar, [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(degree)]


class Algebra(Workload):
    """Presentation round trips and Harrison tables, never homcat.

    Per round, for each rank r = 1..4: five round trips on random
    canonical triples (canonical, verify, find_trivializing_twist,
    twist, solve_R, verify_R, and twist_R under a random unit twist),
    then one Harrison table (cohomology in degrees 0..24/r,
    cocycle_classify, and boundary against boundary_closed_form on a
    random cochain of each degree).  Every table ends at a coboundary
    matrix of about 24 columns, which makes each table slower than any
    round trip: the tables are the slowest sixth of a run.
    """

    name = "algebra"
    TOP_COLUMNS = 24

    def round(self, k):
        rng = self._rng(k)
        ops = []
        for rank in range(1, 5):
            for _ in range(5):
                ops.append(self._round_trip(rng, rank))
            ops.append(self._table(rng, rank))
        return ops

    def _round_trip(self, rng, rank):
        q, h, g = _triple(rng, rank)
        t, x, y = _unit_twist(rng, rank)

        def run():
            p = qb.canonical(qb.CanonicalTriple(q, h, g))
            report = qb.verify(p)
            trivializer = qb.find_trivializing_twist(p)
            flat = qb.twist(p, trivializer)
            solutions = rmatrix.solve_R(p)
            r_report = rmatrix.verify_R(p, solutions[0])
            alpha = laurent.TensorElement.single(t, (x, y))
            moved = qb.twist(p, alpha)
            moved_r = rmatrix.twist_R(solutions[0], alpha)
            moved_report = rmatrix.verify_R(moved, moved_r)
            return p, report, trivializer, flat, solutions, r_report, moved, moved_r, moved_report

        def check(out):
            p, report, trivializer, flat, solutions, r_report, moved, moved_r, moved_report = out
            triangular = [c.passed for c in r_report.checks if c.axiom == "triangularity"]
            return (
                p.to_dict() == oracle.presentation(q, h, g)
                and report.ok and len(report.checks) > 0
                and trivializer.to_dict() == oracle.trivializing_twist(q, h, g)
                and flat.to_dict() == oracle.ordinary(rank)
                and [s.to_dict() for s in solutions] == [oracle.r_matrix(h, g)]
                and r_report.ok and triangular == [True]
                and moved.to_dict() == oracle.twisted(q, h, g, t, x, y)
                and moved_r.to_dict() == oracle.twisted_r(h, g, x, y)
                and moved_report.ok
            )

        return Op("round_trip", run, check)

    def _table(self, rng, rank):
        top = self.TOP_COLUMNS // rank
        h, g = _triple(rng, rank)[1:]
        cochains = [_cochain(rng, rank, n) for n in range(top + 1)]

        def run():
            groups = [harrison.cohomology(rank, n) for n in range(top + 1)]
            classification = harrison.cocycle_classify(rank)
            params = classification.parameters_of(classification.cocycle(h, g))
            boundaries = []
            for scalar, vectors in cochains:
                c = harrison.HarrisonCochain.from_data(rank, scalar, vectors)
                d = harrison.boundary(c)
                boundaries.append((d, harrison.boundary_closed_form(c), harrison.boundary(d)))
            return groups, classification, params, boundaries

        def check(out):
            groups, classification, params, boundaries = out
            if [gr.to_dict() for gr in groups] != [oracle.cohomology(rank, n) for n in range(top + 1)]:
                return False
            kernel = classification.kernel_vectors
            if classification.free_parameters() != 2 * rank or len(kernel) != 2 * rank:
                return False
            for v in kernel:
                slots = [list(v[j * rank:(j + 1) * rank]) for j in range(3)]
                if any(slots[1]) or any(any(s) for s in oracle.boundary(1, slots, rank)["elements"]):
                    return False
            outer = [[v[i] for v in kernel] for i in list(range(rank)) + list(range(2 * rank, 3 * rank))]
            if abs(oracle.determinant(outer)) != 1 or params != (h, g):
                return False
            for (scalar, vectors), (d, closed, dd) in zip(cochains, boundaries):
                expected = oracle.boundary(scalar, vectors, rank)
                n = len(vectors)
                if d.to_dict() != expected or closed.to_dict() != expected:
                    return False
                if dd.to_dict() != {"scalar": "1", "elements": [[0] * rank] * (n + 2)}:
                    return False
            return True

        return Op("table", run, check)


# -- cli ---------------------------------------------------------------------


def call_cli(argv):
    """Run the command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv(v):
    return ",".join(str(c) for c in v)


TRIALS_FAULT = (
    "cli.py _cmd_homcheck/_cmd_compare_hom accept --trials < 1 and exit 0 having checked nothing"
)


class Cli(Workload):
    """Every README subcommand through qbialg.cli.main, in-process.

    Per round of 16 (rank 1 + k mod 4): classify; verify on a good, a
    corrupted, a garbled and a missing presentation; twist, trivialize,
    normalize, solve-r, verify-r; boundary, cohomology; homcheck and
    compare-hom on one object of dimension 1 with two trials, so that
    argument parsing and JSON rather than matrices dominate; and
    homcheck and compare-hom with --trials 0, which must be refused
    with exit 2.  Input files are written when the round is generated.
    In round 0 every call is run a second time, untimed, and must print
    the same bytes.
    """

    name = "cli"

    def round(self, k):
        rng = self._rng(k)
        rank = 1 + k % 4
        q, h, g = _triple(rng, rank)
        t, x, y = _unit_twist(rng, rank)
        counit = [Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2))) for _ in range(rank)]
        degree = rng.randint(1, 5)
        scalar, vectors = _cochain(rng, rank, degree)
        good = oracle.presentation(q, h, g)
        bad = json.loads(json.dumps(good))
        bad["phi"]["terms"][0]["e"][0][0] += 1
        folder = os.path.join(self.workdir, f"round-{k}")
        os.makedirs(folder)
        files = {}
        for name, doc in (
            ("good", good),
            ("bad", bad),
            ("forced", oracle.forced_presentation(q, h, g, counit)),
            ("alpha", oracle.tensor(t, [x, y])),
            ("r", oracle.r_matrix(h, g)),
            ("cochain", {"scalar": str(scalar), "elements": vectors}),
        ):
            files[name] = os.path.join(folder, f"{name}.json")
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        files["garbled"] = os.path.join(folder, "garbled.json")
        with open(files["garbled"], "w", encoding="utf-8") as fh:
            fh.write("{")
        files["missing"] = os.path.join(folder, "missing.json")

        hq = rng.choice(SCALARS)
        ha, hb = rng.randint(-2, 2), rng.randint(-2, 2)
        family = [f"--q={hq}", f"--a={ha}", f"--b={hb}", "--dims", "1"]
        tilde = ["--q1", "1", "--a1", "1", "--b1=-1", "--tilde", "--dims", "1"]
        triple = ["--rank", str(rank), f"--q={q}", f"--h={_csv(h)}", f"--g={_csv(g)}"]
        seeds = [self._op_seed(k, i) for i in range(4)]
        hom_params = {"q": str(hq), "a": ha, "b": hb}

        def all_pass(doc):
            return isinstance(doc, list) and doc and all(c["pass"] for c in doc)

        specs = [
            ("classify", ["classify", *triple], 0, lambda d: d == {
                "presentation": good,
                "trivializing_twist": oracle.trivializing_twist(q, h, g),
                "r_matrix": oracle.r_matrix(h, g),
            }),
            ("verify_good", ["verify", "--input", files["good"]], 0, all_pass),
            ("verify_bad", ["verify", "--input", files["bad"]], 1,
             lambda d: isinstance(d, list) and any(not c["pass"] for c in d)),
            ("verify_garbled", ["verify", "--input", files["garbled"]], 2, None),
            ("verify_missing", ["verify", "--input", files["missing"]], 2, None),
            ("twist", ["twist", "--input", files["good"], "--twist", files["alpha"]], 0,
             lambda d: d == oracle.twisted(q, h, g, t, x, y)),
            ("trivialize", ["trivialize", "--input", files["good"]], 0,
             lambda d: d == {"exists": True, "twist": oracle.trivializing_twist(q, h, g)}),
            ("normalize", ["normalize", "--input", files["forced"]], 0, lambda d: d == {
                "normalizable": True,
                "iso": [oracle.tensor(c, [oracle.basis(rank, i)]) for i, c in enumerate(counit)],
                "presentation": good,
            }),
            ("solve_r", ["solve-r", "--input", files["good"]], 0,
             lambda d: d == {"r_matrices": [oracle.r_matrix(h, g)]}),
            ("verify_r", ["verify-r", "--input", files["good"], "--r", files["r"]], 0, all_pass),
            ("boundary", ["boundary", "--degree", str(degree), "--input", files["cochain"]], 0,
             lambda d: d == oracle.boundary(scalar, vectors, rank)),
            ("cohomology", ["cohomology", "--rank", str(rank), "--degree", str(degree % 4)], 0,
             lambda d: d == oracle.cohomology(rank, degree % 4)),
            ("homcheck", ["homcheck", *family, "--trials", "2", "--seed", str(seeds[0])], 0,
             lambda d: d["ok"] is True and d["params"] == hom_params and d["trials"] == 2
             and [a["axiom"] for a in d["axioms"]] == list(AXIOMS)
             and all(len(a["instances"]) == 2 and all(i["pass"] for i in a["instances"]) for a in d["axioms"])),
            ("compare_hom", ["compare-hom", *tilde, "--trials", "2", "--seed", str(seeds[1])], 0,
             lambda d: d["identical"] is True and d["trials"] == 2
             and [e["constraint"] for e in d["entries"]] == list(CONSTRAINTS) * 2
             and all(e["equal"] and e["ratio"] is None for e in d["entries"])),
            ("homcheck_trials0", ["homcheck", *family, "--trials", "0", "--seed", str(seeds[2])], 2, None),
            ("compare_hom_trials0", ["compare-hom", *tilde, "--trials", "0", "--seed", str(seeds[3])], 2, None),
        ]
        return [self._op(kind, argv, code, content, repeat=(k == 0)) for kind, argv, code, content in specs]

    @staticmethod
    def _op(kind, argv, expected_code, content, repeat):
        def run():
            return call_cli(argv)

        def check(out):
            code, stdout, _ = out
            if code != expected_code:
                return False
            if content is None:
                ok = stdout == ""
            else:
                ok = content(json.loads(stdout))
            return ok and (not repeat or call_cli(argv)[:2] == out[:2])

        return Op(
            kind, run, check,
            known_fault=TRIALS_FAULT if kind.endswith("trials0") else None,
            counts=lambda out: {"cli.stdout_bytes": len(out[1].encode())},
        )


WORKLOADS = {w.name: w for w in (Coherence, Compare, Algebra, Cli)}
