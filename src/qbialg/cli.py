"""Command line front end.

Every subcommand reads JSON documents (files or stdin via ``-``) and
group elements as comma-separated exponent lists, and writes exactly one
JSON report to stdout; diagnostics go to stderr.  Exit codes: 0 when all
requested checks pass, 1 when a check fails (the report is still
emitted), 2 on malformed input, which includes a ``--degree`` above
``MAX_DEGREE`` for boundary and cohomology.  Output is deterministic:
identical argv, input files, and seeds give byte-identical stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import homcat
from .harrison import HarrisonCochain, boundary, cohomology
from .laurent import TensorElement, parse_coefficient
from .quasibialgebra import (
    CanonicalTriple,
    NoMonomialTwist,
    NotForcedForm,
    QuasiBialgebraPresentation,
    canonical,
    find_trivializing_twist,
    normalize,
    twist,
    verify,
)
from .rmatrix import solve_R, verify_R


class InputParseError(Exception):
    """Unreadable or malformed input; always maps to exit code 2."""


# Largest --degree accepted by boundary and cohomology.  Their work grows
# with the degree (a boundary of degree n builds n + 2 cofaces of n + 1
# slots), so an unchecked flag could ask for unbounded work.
MAX_DEGREE = 256


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise InputParseError(f"--degree must be <= {MAX_DEGREE}, got {degree}")


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
            where = "<stdin>"
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            where = path
    except OSError as exc:
        raise InputParseError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _presentation(path: str) -> QuasiBialgebraPresentation:
    data = _read_json(path)
    try:
        return QuasiBialgebraPresentation.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"{path}: {exc}") from exc


def _element(path: str) -> TensorElement:
    data = _read_json(path)
    try:
        return TensorElement.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"{path}: {exc}") from exc


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return parse_coefficient(text, flag)
    except ValueError as exc:
        raise InputParseError(str(exc)) from exc


def _int_csv(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InputParseError(f"{what}: expected comma-separated integers, got {text!r}") from exc


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# -- subcommand handlers -----------------------------------------------------


def _cmd_verify(args) -> int:
    report = verify(_presentation(args.input))
    _emit(report.to_list())
    return 0 if report.ok else 1


def _cmd_twist(args) -> int:
    p = _presentation(args.input)
    alpha = _element(args.twist)
    _emit(twist(p, alpha).to_dict())
    return 0


def _cmd_trivialize(args) -> int:
    p = _presentation(args.input)
    try:
        alpha = find_trivializing_twist(p)
    except NotForcedForm as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoMonomialTwist as exc:
        print(f"no trivializing twist: {exc}", file=sys.stderr)
        _emit({"exists": False, "twist": None})
        return 1
    _emit({"exists": True, "twist": alpha.to_dict()})
    return 0


def _cmd_normalize(args) -> int:
    p = _presentation(args.input)
    try:
        iso, result = normalize(p)
    except NotForcedForm as exc:
        print(f"not normalizable: {exc}", file=sys.stderr)
        _emit({"normalizable": False, "reason": str(exc)})
        return 1
    _emit(
        {
            "normalizable": True,
            "iso": [u.to_tensor().to_dict() for u in iso.generator_images],
            "presentation": result.to_dict(),
        }
    )
    return 0


def _cmd_solve_r(args) -> int:
    p = _presentation(args.input)
    try:
        solutions = solve_R(p)
    except NotForcedForm as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoMonomialTwist as exc:
        print(f"cannot solve: {exc}", file=sys.stderr)
        _emit({"r_matrices": None, "reason": str(exc)})
        return 1
    _emit({"r_matrices": [s.to_dict() for s in solutions]})
    return 0


def _cmd_verify_r(args) -> int:
    p = _presentation(args.input)
    r_elem = _element(args.r)
    report = verify_R(p, r_elem)
    _emit(report.to_list())
    return 0 if report.ok else 1


def _cmd_boundary(args) -> int:
    _check_degree(args.degree)
    data = _read_json(args.input)
    try:
        cochain = HarrisonCochain.from_dict(data, rank=args.rank)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputParseError(f"{args.input}: {exc}") from exc
    if cochain.degree != args.degree:
        raise InputParseError(
            f"--degree {args.degree} but the cochain has {cochain.degree} elements"
        )
    _emit(boundary(cochain).to_dict())
    return 0


def _cmd_cohomology(args) -> int:
    if args.rank < 1:
        raise InputParseError(f"--rank must be >= 1, got {args.rank}")
    if args.degree < 0:
        raise InputParseError(f"--degree must be >= 0, got {args.degree}")
    _check_degree(args.degree)
    _emit(cohomology(args.rank, args.degree).to_dict())
    return 0


def _cmd_classify(args) -> int:
    q = _fraction(args.q, "--q")
    h = _int_csv(args.h, "--h")
    g = _int_csv(args.g, "--g")
    if len(h) != args.rank or len(g) != args.rank:
        raise InputParseError(
            f"--h and --g must each have {args.rank} exponents for --rank {args.rank}"
        )
    try:
        triple = CanonicalTriple(q, h, g)
    except ValueError as exc:
        raise InputParseError(str(exc)) from exc
    p = canonical(triple)
    alpha = find_trivializing_twist(p)
    solutions = solve_R(p)
    if len(solutions) != 1:
        print(f"expected one R-matrix, found {len(solutions)}", file=sys.stderr)
        return 1
    _emit(
        {
            "presentation": p.to_dict(),
            "trivializing_twist": alpha.to_dict(),
            "r_matrix": solutions[0].to_dict(),
        }
    )
    return 0


def _object_pool(dims: str | None, seed: int) -> list[homcat.HomObject]:
    """Deterministic objects of the requested dimensions.

    Seeded separately from the checker so that changing --trials does
    not reshuffle which automorphisms the pool contains.
    """
    if not dims:
        return []
    sizes = _int_csv(dims, "--dims")
    if min(sizes) < 1:
        raise InputParseError(f"--dims: every dimension must be >= 1, got {dims!r}")
    rng = random.Random(seed)
    return [homcat.HomObject(d, homcat.random_unimodular(rng, d)) for d in sizes]


def _trials(trials: int) -> int:
    """Refuse a run that would check nothing."""
    if trials < 1:
        raise InputParseError(f"--trials must be >= 1, got {trials}")
    return trials


def _cmd_homcheck(args) -> int:
    try:
        params = homcat.MonoidalParams(_fraction(args.q, "--q"), args.a, args.b)
    except ValueError as exc:
        raise InputParseError(str(exc)) from exc
    trials = _trials(args.trials)
    pool = _object_pool(args.dims, args.seed)
    report = homcat.check_coherence(params, pool, trials=trials, seed=args.seed)
    _emit(report.to_dict())
    return 0 if report.ok else 1


def _cmd_compare_hom(args) -> int:
    try:
        first = homcat.MonoidalParams(_fraction(args.q1, "--q1"), args.a1, args.b1)
    except ValueError as exc:
        raise InputParseError(str(exc)) from exc
    if args.tilde:
        second = homcat.HTILDE_STRUCTURE
    elif args.q2 is not None and args.a2 is not None and args.b2 is not None:
        try:
            second = homcat.MonoidalParams(_fraction(args.q2, "--q2"), args.a2, args.b2)
        except ValueError as exc:
            raise InputParseError(str(exc)) from exc
    else:
        raise InputParseError("provide either --tilde or all of --q2/--a2/--b2")
    trials = _trials(args.trials)
    pool = _object_pool(args.dims, args.seed)
    report = homcat.compare_structures(first, second, pool, trials=trials, seed=args.seed)
    _emit(report.to_dict())
    return 0 if report.identical else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbialg",
        description="Exact checks, solves, and cohomology for quasi-bialgebra "
        "structures on Laurent polynomial group algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def presentation_cmd(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="presentation JSON file, or - for stdin")
        return cmd

    cmd = presentation_cmd("verify", "check every quasi-bialgebra axiom")
    cmd.set_defaults(func=_cmd_verify)

    cmd = presentation_cmd("twist", "apply a Drinfeld twist")
    cmd.add_argument("--twist", required=True, help="two-leg twist element JSON file")
    cmd.set_defaults(func=_cmd_twist)

    cmd = presentation_cmd("trivialize", "find the twist carrying the input to the ordinary structure")
    cmd.set_defaults(func=_cmd_trivialize)

    cmd = presentation_cmd("normalize", "strip a forced-form coproduct down to the ordinary one")
    cmd.set_defaults(func=_cmd_normalize)

    cmd = presentation_cmd("solve-r", "enumerate all R-matrices of the presentation")
    cmd.set_defaults(func=_cmd_solve_r)

    cmd = presentation_cmd("verify-r", "check the quasi-triangularity axioms for a given R")
    cmd.add_argument("--r", required=True, help="two-leg R-matrix JSON file")
    cmd.set_defaults(func=_cmd_verify_r)

    cmd = sub.add_parser("boundary", help="apply the Harrison boundary map to a cochain")
    cmd.add_argument("--degree", type=int, required=True)
    cmd.add_argument("--input", required=True, help="cochain JSON file, or - for stdin")
    cmd.add_argument("--rank", type=int, help="required for degree-0 cochains")
    cmd.set_defaults(func=_cmd_boundary)

    cmd = sub.add_parser("cohomology", help="Harrison cohomology group of k[Z^rank]")
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument("--degree", type=int, required=True)
    cmd.set_defaults(func=_cmd_cohomology)

    cmd = sub.add_parser(
        "classify",
        help="canonical presentation for (q, h, g) plus its trivializing twist and R-matrix",
    )
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument("--q", required=True, help="nonzero scalar, e.g. 2 or 1/2")
    cmd.add_argument(
        "--h", required=True, help="comma-separated exponents; write --h=-1,2 for a leading minus"
    )
    cmd.add_argument(
        "--g", required=True, help="comma-separated exponents; write --g=-1,2 for a leading minus"
    )
    cmd.set_defaults(func=_cmd_classify)

    cmd = sub.add_parser("homcheck", help="coherence report for one monoidal structure")
    cmd.add_argument("--q", required=True)
    cmd.add_argument("--a", type=int, required=True)
    cmd.add_argument("--b", type=int, required=True)
    cmd.add_argument("--dims", help="comma-separated object dimensions to sample from")
    cmd.add_argument("--trials", type=int, default=25)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(func=_cmd_homcheck)

    cmd = sub.add_parser("compare-hom", help="compare two monoidal structures constraint by constraint")
    cmd.add_argument("--q1", required=True)
    cmd.add_argument("--a1", type=int, required=True)
    cmd.add_argument("--b1", type=int, required=True)
    cmd.add_argument("--q2")
    cmd.add_argument("--a2", type=int)
    cmd.add_argument("--b2", type=int)
    cmd.add_argument("--tilde", action="store_true", help="compare against the modified structure")
    cmd.add_argument("--dims", help="comma-separated object dimensions to sample from")
    cmd.add_argument("--trials", type=int, default=25)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(func=_cmd_compare_hom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
