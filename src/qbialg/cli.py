"""Command line front end.

Every subcommand reads JSON documents (files or stdin via ``-``) and
group elements as comma-separated exponent lists, and writes exactly one
JSON report to stdout; diagnostics go to stderr.  Exit codes: 0 when all
requested checks pass, 1 when a check fails (the report is still
emitted), 2 on malformed input.  Each flag's bounds live on the flag
itself, as its argparse ``type`` in ``build_parser`` (``MAX_DEGREE``,
``MAX_RANK``, ``MAX_EXPONENT``, ``MAX_TRIALS``, ``MAX_DIM`` below), so a
value out of range is refused while the command line is parsed, before
any file is read or any object is drawn.  The parser's refusals and the
handlers' (such as compare-hom's ``--tilde`` given with ``--q2``) both
raise ``InputParseError``, which ``main`` turns into one ``error: ...``
line on stderr and exit 2.  Output is deterministic: identical argv,
input files, and seeds give byte-identical stdout.

``main(argv)`` may be called any number of times in one process: it
builds its parser with ``build_parser`` on the first call and reuses it,
since parsing leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import homcat
from .harrison import HarrisonCochain, boundary, cohomology
from .laurent import INTEGER_TEXT, TensorElement, UnitElement, as_unit, read_nonzero
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

# Largest --rank accepted by boundary.  Its output holds a --rank long
# exponent vector per slot, so an unchecked flag could ask for unbounded
# output from a tiny degree-0 input.
MAX_RANK = 256

# Largest absolute exponent accepted by homcheck and compare-hom.  A
# comparison that cannot be decided on exponents raises an automorphism
# to (differences of) these, and the entries of f^e grow geometrically
# with e, so an unchecked flag could ask for unbounded work.
MAX_EXPONENT = 64

# Largest --trials accepted by homcheck and compare-hom: each trial
# samples fresh objects and maps.
MAX_TRIALS = 1000

# Largest --dims entry accepted by homcheck and compare-hom.  A
# constraint on three objects of dimension d is a d^3 x d^3 matrix when
# it has to be built in full.
MAX_DIM = 6


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
    except UnicodeDecodeError as exc:
        raise InputParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too long an integer, too deep a nest
        raise InputParseError(f"{where}: {exc}") from exc


def _load(path: str, read):
    """``read`` applied to the JSON document at ``path``; a document it
    refuses is malformed input."""
    data = _read_json(path)
    try:
        return read(data)
    except (TypeError, ValueError) as exc:
        raise InputParseError(f"{path}: {exc}") from exc


def _presentation(path: str) -> QuasiBialgebraPresentation:
    return _load(path, QuasiBialgebraPresentation.from_dict)


def _element(path: str, rank: int, flag: str) -> UnitElement:
    """The two-leg unit over ``rank`` that the file given to ``flag`` holds."""
    return _load(path, lambda data: as_unit(TensorElement.from_dict(data), rank, 2, flag))


# -- flag types --------------------------------------------------------------
# Each refuses a bad value with an ArgumentTypeError, which argparse words
# as "argument --<flag>: <message>".


def _integer(text: str) -> int:
    """``text`` as ``INTEGER_TEXT`` reads it; ValueError when it is not one."""
    if not INTEGER_TEXT.fullmatch(text):
        raise ValueError(text)
    return int(text)  # ValueError for more digits than int() converts


def _bounded(lo: int | None = None, hi: int | None = None):
    """The type of an integer flag in lo..hi; a bound that is None is open."""

    def integer(text: str) -> int:
        try:
            n = _integer(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if (lo is not None and n < lo) or (hi is not None and n > hi):
            bounds = f">= {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text!r}")
        return n

    return integer


def _fraction(text: str) -> Fraction:
    """The type of a --q flag: a nonzero rational."""
    try:
        return read_nonzero(text, "scalar")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple([_integer(t) for t in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _dims(text: str) -> tuple[int, ...]:
    """The type of --dims: dimensions in 1..MAX_DIM; empty text asks for none."""
    if not text:
        return ()
    sizes = _int_csv(text)
    if min(sizes) < 1 or max(sizes) > MAX_DIM:
        raise argparse.ArgumentTypeError(
            f"every dimension must be between 1 and {MAX_DIM}, got {text!r}"
        )
    return sizes


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# -- subcommand handlers -----------------------------------------------------


def _cmd_verify(args) -> int:
    report = verify(_presentation(args.input))
    _emit(report.to_list())
    return 0 if report.ok else 1


def _cmd_twist(args) -> int:
    p = _presentation(args.input)
    alpha = _element(args.twist, p.rank, "--twist")
    _emit(twist(p, alpha).to_dict())
    return 0


def _cmd_trivialize(args) -> int:
    p = _presentation(args.input)
    try:
        alpha = find_trivializing_twist(p)
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
            "iso": [u.to_dict() for u in iso.generator_images],
            "presentation": result.to_dict(),
        }
    )
    return 0


def _cmd_solve_r(args) -> int:
    p = _presentation(args.input)
    try:
        solutions = solve_R(p)
    except NoMonomialTwist as exc:
        print(f"cannot solve: {exc}", file=sys.stderr)
        _emit({"r_matrices": None, "reason": str(exc)})
        return 1
    _emit({"r_matrices": [s.to_dict() for s in solutions]})
    return 0


def _cmd_verify_r(args) -> int:
    p = _presentation(args.input)
    r_elem = _element(args.r, p.rank, "--r")
    report = verify_R(p, r_elem)
    _emit(report.to_list())
    return 0 if report.ok else 1


def _cmd_boundary(args) -> int:
    cochain = _load(args.input, functools.partial(HarrisonCochain.from_dict, rank=args.rank))
    if cochain.degree != args.degree:
        raise InputParseError(
            f"--degree {args.degree} but the cochain has {cochain.degree} elements"
        )
    _emit(boundary(cochain).to_dict())
    return 0


def _cmd_cohomology(args) -> int:
    _emit(cohomology(args.rank, args.degree).to_dict())
    return 0


def _cmd_classify(args) -> int:
    if len(args.h) != args.rank or len(args.g) != args.rank:
        raise InputParseError(
            f"--h and --g must each have {args.rank} exponents for --rank {args.rank}"
        )
    p = canonical(CanonicalTriple(args.q, args.h, args.g))
    alpha = find_trivializing_twist(p)
    (r_matrix,) = solve_R(p)
    _emit(
        {
            "presentation": p.to_dict(),
            "trivializing_twist": alpha.to_dict(),
            "r_matrix": r_matrix.to_dict(),
        }
    )
    return 0


def _object_pool(dims: tuple[int, ...] | None, seed: int) -> list[homcat.HomObject]:
    """Deterministic objects of the requested dimensions.

    Seeded separately from the checker so that changing --trials does
    not reshuffle which automorphisms the pool contains.
    """
    if not dims:
        return []
    rng = random.Random(seed)
    return [homcat.HomObject(d, *homcat.random_unimodular(rng, d)) for d in dims]


def _cmd_homcheck(args) -> int:
    params = homcat.MonoidalParams(args.q, args.a, args.b)
    pool = _object_pool(args.dims, args.seed)
    report = homcat.check_coherence(params, pool, trials=args.trials, seed=args.seed)
    _emit(report.to_dict())
    return 0 if report.ok else 1


def _cmd_compare_hom(args) -> int:
    first = homcat.MonoidalParams(args.q1, args.a1, args.b1)
    if args.tilde:
        given = [f"--{f}" for f in ("q2", "a2", "b2") if getattr(args, f) is not None]
        if given:
            raise InputParseError(f"--tilde names the second structure; drop {'/'.join(given)}")
        second = homcat.HTILDE_STRUCTURE
    elif args.q2 is not None and args.a2 is not None and args.b2 is not None:
        second = homcat.MonoidalParams(args.q2, args.a2, args.b2)
    else:
        raise InputParseError("provide either --tilde or all of --q2/--a2/--b2")
    pool = _object_pool(args.dims, args.seed)
    report = homcat.compare_structures(first, second, pool, trials=args.trials, seed=args.seed)
    _emit(report.to_dict())
    return 0 if report.identical else 1


# -- parser ------------------------------------------------------------------

# argparse reads a separate "-1/3" as an option, so a negative value needs "="
_Q_HELP = "nonzero scalar, e.g. 2 or 1/2; write --%(dest)s=-1/3 for a negative one"


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals take main's one route to exit 2.

    argparse's own ``error`` prints the usage block and raises
    SystemExit; this one raises ``InputParseError`` with argparse's
    message, such as "argument --trials: must be between 1 and 1000,
    got '0'".  Subparsers are built with the class of their parent.
    """

    def error(self, message):
        raise InputParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbialg",
        description="Exact checks, solves, and cohomology for quasi-bialgebra "
        "structures on Laurent polynomial group algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    degree = _bounded(0, MAX_DEGREE)
    exponent = _bounded(-MAX_EXPONENT, MAX_EXPONENT)

    def presentation_cmd(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="presentation JSON file, or - for stdin")
        return cmd

    def sampling_flags(cmd):
        cmd.add_argument("--dims", type=_dims, help="comma-separated object dimensions to sample from")
        cmd.add_argument("--trials", type=_bounded(1, MAX_TRIALS), default=25)
        cmd.add_argument("--seed", type=_bounded(), default=0)

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
    cmd.add_argument("--degree", type=degree, required=True)
    cmd.add_argument("--input", required=True, help="cochain JSON file, or - for stdin")
    cmd.add_argument(
        "--rank", type=_bounded(1, MAX_RANK), help="required for degree 0; must match the cochain"
    )
    cmd.set_defaults(func=_cmd_boundary)

    cmd = sub.add_parser("cohomology", help="Harrison cohomology group of k[Z^rank]")
    cmd.add_argument("--rank", type=_bounded(1), required=True)
    cmd.add_argument("--degree", type=degree, required=True)
    cmd.set_defaults(func=_cmd_cohomology)

    cmd = sub.add_parser(
        "classify",
        help="canonical presentation for (q, h, g) plus its trivializing twist and R-matrix",
    )
    cmd.add_argument("--rank", type=_bounded(1), required=True)
    cmd.add_argument("--q", type=_fraction, required=True, help=_Q_HELP)
    for flag in ("--h", "--g"):
        cmd.add_argument(
            flag, type=_int_csv, required=True,
            help=f"comma-separated exponents; write {flag}=-1,2 for a leading minus",
        )
    cmd.set_defaults(func=_cmd_classify)

    cmd = sub.add_parser("homcheck", help="coherence report for one monoidal structure")
    cmd.add_argument("--q", type=_fraction, required=True, help=_Q_HELP)
    cmd.add_argument("--a", type=exponent, required=True)
    cmd.add_argument("--b", type=exponent, required=True)
    sampling_flags(cmd)
    cmd.set_defaults(func=_cmd_homcheck)

    cmd = sub.add_parser("compare-hom", help="compare two monoidal structures constraint by constraint")
    cmd.add_argument("--q1", type=_fraction, required=True, help=_Q_HELP)
    cmd.add_argument("--a1", type=exponent, required=True)
    cmd.add_argument("--b1", type=exponent, required=True)
    cmd.add_argument("--q2", type=_fraction, help=_Q_HELP)
    cmd.add_argument("--a2", type=exponent)
    cmd.add_argument("--b2", type=exponent)
    cmd.add_argument("--tilde", action="store_true", help="compare against the modified structure")
    sampling_flags(cmd)
    cmd.set_defaults(func=_cmd_compare_hom)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Reuse is safe: parse_args returns a fresh namespace and leaves the
    # parser unchanged, and argparse reads sys.stdout, sys.stderr and the
    # terminal width when it prints, not when the parser is built.
    # build_parser is looked up on the first call, not bound at import, so
    # a wrapper installed before then (perfbench/tracing.py) sees the build.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, once argparse has printed it
        return int(exc.code or 0)
    except (InputParseError, NotForcedForm) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
