import contextlib
import copy
import functools
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbialg.quasibialgebra import CanonicalTriple, canonical, ordinary

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "qbialg", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


@pytest.fixture()
def canonical_file(tmp_path):
    p = canonical(CanonicalTriple(Fraction(2), (1,), (1,)))
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(p.to_dict()))
    return path


@pytest.fixture()
def ordinary_file(tmp_path):
    path = tmp_path / "ordinary.json"
    path.write_text(json.dumps(ordinary(1).to_dict()))
    return path


def test_verify_ok(canonical_file):
    res = run_cli("verify", "--input", str(canonical_file))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert all(c["pass"] for c in report)


def test_verify_corrupted_exits_one(tmp_path, canonical_file):
    data = json.loads(canonical_file.read_text())
    data["phi"]["terms"][0]["e"][0][0] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    res = run_cli("verify", "--input", str(bad))
    assert res.returncode == 1
    report = json.loads(res.stdout)
    failed = [c for c in report if not c["pass"]]
    assert failed and failed[0]["lhs"] is not None  # witness attached


def _failing_runs():
    """Failing verify and verify-r runs: subcommand and the document for each flag."""
    canonical_doc = canonical(CanonicalTriple(Fraction(2), (1,), (1,))).to_dict()
    bad_phi = copy.deepcopy(canonical_doc)
    bad_phi["phi"]["terms"][0]["e"][0][0] += 1
    bad_counit = ordinary(2).to_dict()
    bad_counit["counit"] = ["2", "1/3"]
    r_scalar_3 = {"rank": 1, "legs": 2, "terms": [{"c": "3", "e": [[2], [-2]]}]}
    return {
        "verify_phi_exponent": ("verify", {"--input": bad_phi}),
        "verify_counit": ("verify", {"--input": bad_counit}),
        "verify_r_scalar": ("verify-r", {"--input": canonical_doc, "--r": r_scalar_3}),
    }


@pytest.mark.parametrize("name", sorted(_failing_runs()))
def test_failure_report_is_byte_identical_to_golden(tmp_path, name):
    command, docs = _failing_runs()[name]
    args = [command]
    for flag, doc in docs.items():
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(doc))
        args += [flag, str(path)]
    res = run_cli(*args)
    assert res.returncode == 1
    assert res.stdout == (GOLDEN / f"{name}.json").read_text()


def test_input_errors_exit_two(tmp_path):
    res = run_cli("verify", "--input", str(tmp_path / "missing.json"))
    assert res.returncode == 2 and res.stdout == ""
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    res = run_cli("verify", "--input", str(garbled))
    assert res.returncode == 2
    assert "garbled.json" in res.stderr
    res = run_cli("no-such-command")
    assert res.returncode == 2


def test_malformed_unit_files_exit_two(tmp_path, canonical_file, capsys):
    from qbialg.cli import main

    three_legs = tmp_path / "three_legs.json"
    three_legs.write_text(json.dumps({"rank": 1, "legs": 3, "terms": [{"c": "1", "e": [[0]] * 3}]}))
    rank_two = tmp_path / "rank_two.json"
    rank_two.write_text(json.dumps({"rank": 2, "legs": 2, "terms": [{"c": "1", "e": [[0, 0]] * 2}]}))
    for argv in (
        ["twist", "--input", str(canonical_file), "--twist", str(three_legs)],
        ["verify-r", "--input", str(canonical_file), "--r", str(rank_two)],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{argv[-1]}: {argv[-2]}: element has " in err


def test_forced_form_exits_two_where_only_normalize_accepts_it(tmp_path, ordinary_file, capsys):
    from qbialg.cli import main

    data = json.loads(ordinary_file.read_text())
    data["counit"] = ["2"]
    data["coproduct"][0]["terms"][0]["c"] = "1/2"
    forced = tmp_path / "forced.json"
    forced.write_text(json.dumps(data))
    for command in ("trivialize", "solve-r"):
        assert main([command, "--input", str(forced)]) == 2
        assert capsys.readouterr() == (
            "", "error: coalgebra part must be ordinary; run normalize first\n"
        )
    assert main(["normalize", "--input", str(forced)]) == 0


def test_stdin_input(ordinary_file):
    res = run_cli("verify", "--input", "-", stdin=ordinary_file.read_text())
    assert res.returncode == 0


def test_twist_then_verify(tmp_path, canonical_file):
    alpha = tmp_path / "alpha.json"
    alpha.write_text(
        json.dumps({"rank": 1, "legs": 2, "terms": [{"c": "3", "e": [[1], [2]]}]})
    )
    res = run_cli("twist", "--input", str(canonical_file), "--twist", str(alpha))
    assert res.returncode == 0
    twisted = tmp_path / "twisted.json"
    twisted.write_text(res.stdout)
    assert run_cli("verify", "--input", str(twisted)).returncode == 0


def test_trivialize_golden(canonical_file):
    res = run_cli("trivialize", "--input", str(canonical_file))
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["exists"] is True
    assert data["twist"]["terms"] == [{"c": "2", "e": [[1], [-1]]}]


def test_trivialize_failure_exits_one(tmp_path, ordinary_file):
    data = json.loads(ordinary_file.read_text())
    data["phi"]["terms"] = [{"c": "1", "e": [[1], [1], [1]]}]  # not a counital cocycle
    bad = tmp_path / "nontrivial.json"
    bad.write_text(json.dumps(data))
    res = run_cli("trivialize", "--input", str(bad))
    assert res.returncode == 1
    assert json.loads(res.stdout) == {"exists": False, "twist": None}
    assert res.stderr  # diagnostic on stderr, report on stdout


def test_normalize(tmp_path, ordinary_file):
    data = json.loads(ordinary_file.read_text())
    data["counit"] = ["2"]
    data["coproduct"][0]["terms"][0]["c"] = "1/2"
    forced = tmp_path / "forced.json"
    forced.write_text(json.dumps(data))
    res = run_cli("normalize", "--input", str(forced))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["normalizable"] is True
    assert out["presentation"]["counit"] == ["1"]

    data["coproduct"][0]["terms"][0]["e"] = [[2], [1]]
    data["coproduct"][0]["terms"][0]["c"] = "1"
    crooked = tmp_path / "crooked.json"
    crooked.write_text(json.dumps(data))
    res = run_cli("normalize", "--input", str(crooked))
    assert res.returncode == 1
    assert json.loads(res.stdout)["normalizable"] is False


def test_solve_r_and_verify_r(tmp_path, canonical_file):
    res = run_cli("solve-r", "--input", str(canonical_file))
    assert res.returncode == 0
    sols = json.loads(res.stdout)["r_matrices"]
    assert len(sols) == 1
    assert sols[0]["terms"] == [{"c": "1", "e": [[2], [-2]]}]
    r_path = tmp_path / "r.json"
    r_path.write_text(json.dumps(sols[0]))
    assert (
        run_cli("verify-r", "--input", str(canonical_file), "--r", str(r_path)).returncode == 0
    )
    # the identity is not an R-matrix for the canonical presentation
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"rank": 1, "legs": 2, "terms": [{"c": "1", "e": [[0], [0]]}]}))
    assert (
        run_cli("verify-r", "--input", str(canonical_file), "--r", str(one)).returncode == 1
    )


def test_boundary(tmp_path):
    cochain = tmp_path / "cochain.json"
    cochain.write_text(json.dumps({"scalar": "3", "elements": [[1, 0], [0, 2]]}))
    res = run_cli("boundary", "--degree", "2", "--input", str(cochain))
    assert res.returncode == 0
    assert json.loads(res.stdout) == {
        "scalar": "1",
        "elements": [[-1, 0], [0, 0], [0, 2]],
    }
    # degree flag must match the payload
    assert run_cli("boundary", "--degree", "3", "--input", str(cochain)).returncode == 2


def test_boundary_degree_zero_needs_rank(tmp_path):
    cochain = tmp_path / "scalar.json"
    cochain.write_text(json.dumps({"scalar": "5", "elements": []}))
    assert run_cli("boundary", "--degree", "0", "--input", str(cochain)).returncode == 2
    res = run_cli("boundary", "--degree", "0", "--input", str(cochain), "--rank", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"scalar": "1", "elements": [[0, 0]]}


def test_cohomology_golden_bytes():
    res = run_cli("cohomology", "--rank", "2", "--degree", "4")
    assert res.returncode == 0
    assert res.stdout == (
        '{\n  "free_rank": 0,\n  "torsion": [],\n  "scalar_factor": false\n}\n'
    )
    res = run_cli("cohomology", "--rank", "3", "--degree", "1")
    assert json.loads(res.stdout) == {"free_rank": 3, "torsion": [], "scalar_factor": False}
    assert run_cli("cohomology", "--rank", "0", "--degree", "1").returncode == 2


def test_classify_golden():
    res = run_cli("classify", "--rank", "1", "--q", "2", "--h", "1", "--g", "1")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["trivializing_twist"]["terms"] == [{"c": "2", "e": [[1], [-1]]}]
    assert data["r_matrix"]["terms"] == [{"c": "1", "e": [[2], [-2]]}]
    assert data["presentation"]["phi"]["terms"] == [{"c": "1", "e": [[1], [0], [1]]}]
    # malformed inputs
    assert run_cli("classify", "--rank", "2", "--q", "2", "--h", "1", "--g", "1").returncode == 2
    assert run_cli("classify", "--rank", "1", "--q", "0", "--h", "1", "--g", "1").returncode == 2
    assert run_cli("classify", "--rank", "1", "--q", "x", "--h", "1", "--g", "1").returncode == 2


def test_homcheck():
    res = run_cli(
        "homcheck", "--q", "1/2", "--a", "-2", "--b", "3",
        "--dims", "1,2,3", "--trials", "3", "--seed", "11",
    )
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["ok"] is True
    assert report["params"] == {"q": "1/2", "a": -2, "b": 3}
    assert {g["axiom"] for g in report["axioms"]} == {
        "pentagon", "triangle", "hexagon_forward", "hexagon_backward",
        "symmetry", "naturality_associator", "naturality_unitors", "naturality_braiding",
    }
    assert run_cli("homcheck", "--q", "0", "--a", "0", "--b", "0").returncode == 2


def test_negative_fraction_scalar_is_written_with_equals():
    # argparse reads a separate "-1/3" as an option; "--q=-1/3" is the
    # spelling the help text gives
    res = run_cli("classify", "--rank", "1", "--q=-1/3", "--h", "1", "--g", "1")
    assert res.returncode == 0
    assert "r_matrix" in json.loads(res.stdout)
    res = run_cli("homcheck", "--q=-1/3", "--a", "1", "--b", "0", "--trials", "2")
    assert res.returncode == 0
    assert json.loads(res.stdout)["params"] == {"q": "-1/3", "a": 1, "b": 0}
    res = run_cli(
        "compare-hom", "--q1=-1/3", "--a1", "1", "--b1", "0",
        "--q2=-1/3", "--a2", "1", "--b2", "0", "--trials", "2",
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["identical"] is True
    res = run_cli("classify", "--rank", "1", "--q", "-1/3", "--h", "1", "--g", "1")
    assert res.returncode == 2 and "expected one argument" in res.stderr


def test_compare_hom():
    res = run_cli(
        "compare-hom", "--q1", "1", "--a1", "1", "--b1", "-1", "--tilde",
        "--dims", "2,3", "--trials", "4", "--seed", "2",
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["identical"] is True
    res = run_cli(
        "compare-hom", "--q1", "2", "--a1", "1", "--b1", "1",
        "--q2", "1", "--a2", "0", "--b2", "0",
        "--dims", "1", "--trials", "2", "--seed", "2",
    )
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["identical"] is False
    assert any(e["ratio"] for e in report["entries"])
    assert run_cli("compare-hom", "--q1", "1", "--a1", "0", "--b1", "0").returncode == 2
    # --tilde names the second structure; a conflicting one is refused, not ignored
    res = run_cli(
        "compare-hom", "--q1", "1", "--a1", "1", "--b1", "-1", "--tilde",
        "--q2", "2", "--a2", "5", "--b2", "5",
    )
    assert res.returncode == 2 and res.stdout == ""
    assert "--q2/--a2/--b2" in res.stderr
    res = run_cli("compare-hom", "--q1", "1", "--a1", "1", "--b1", "-1", "--tilde", "--b2", "0")
    assert res.returncode == 2 and res.stdout == ""
    assert "--b2" in res.stderr and "--q2" not in res.stderr


def test_determinism_byte_identical():
    args = [
        ("classify", "--rank", "2", "--q", "1/3", "--h", "1,0", "--g=-1,2"),
        ("homcheck", "--q", "2", "--a", "1", "--b", "1", "--dims", "2,2", "--trials", "4", "--seed", "7"),
        ("cohomology", "--rank", "3", "--degree", "5"),
    ]
    for cmd in args:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_hom_commands_refuse_runs_that_check_nothing(trials):
    for cmd in (
        ("homcheck", "--q", "1", "--a", "0", "--b", "0", "--dims", "1", "--trials", trials),
        ("compare-hom", "--q1", "1", "--a1", "1", "--b1=-1", "--tilde", "--trials", trials),
    ):
        res = run_cli(*cmd)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--trials" in res.stderr


@pytest.mark.parametrize("dims", ["0", "2,-1"])
def test_hom_commands_refuse_empty_dimensions(dims):
    for cmd in (
        ("homcheck", "--q", "1", "--a", "0", "--b", "0", "--dims", dims),
        ("compare-hom", "--q1", "1", "--a1", "1", "--b1=-1", "--tilde", "--dims", dims),
    ):
        res = run_cli(*cmd)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--dims" in res.stderr and "randrange" not in res.stderr


def test_exponent_notation_is_malformed_input(tmp_path, ordinary_file):
    data = json.loads(ordinary_file.read_text())
    data["phi"]["terms"][0]["c"] = "1e400000"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    res = run_cli("verify", "--input", str(huge))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "phi.terms[0].c" in res.stderr and "'1e400000'" in res.stderr
    res = run_cli("homcheck", "--q", "1e3", "--a", "0", "--b", "0")
    assert res.returncode == 2 and res.stdout == "" and "--q" in res.stderr


def test_non_integer_exponents_are_malformed_input(tmp_path, canonical_file, capsys):
    # int() would read 1.7 as 1 (leaving the canonical presentation valid),
    # 1.9 as 1, and iterating the string "10" gives the digits (1, 0)
    from qbialg.cli import main

    data = json.loads(canonical_file.read_text())
    data["phi"]["terms"][0]["e"][0][0] = 1.7
    float_phi = tmp_path / "float_phi.json"
    float_phi.write_text(json.dumps(data))
    float_cochain = tmp_path / "float_cochain.json"
    float_cochain.write_text(json.dumps({"scalar": "2", "elements": [[1.9], [2]]}))
    string_cochain = tmp_path / "string_cochain.json"
    string_cochain.write_text(json.dumps({"scalar": "2", "elements": [[1, 0], "10"]}))
    for argv, refusal in (
        (["verify", "--input", str(float_phi)], "phi.terms[0].e: expected an integer, got 1.7"),
        (["boundary", "--degree", "2", "--input", str(float_cochain)], "elements[0]: expected an integer, got 1.9"),
        (["boundary", "--degree", "2", "--input", str(string_cochain)], "elements[1]: expected an array, got str"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {argv[-1]}: {refusal}\n"


def _set(path, value):
    """An edit of a document: the value at ``path`` (keys and indices) becomes ``value``."""
    def edit(doc):
        *parents, last = path
        functools.reduce(lambda node, key: node[key], parents, doc)[last] = value
    return edit


def _drop(path):
    """An edit of a document: the key at the end of ``path`` is deleted."""
    def edit(doc):
        *parents, last = path
        del functools.reduce(lambda node, key: node[key], parents, doc)[last]
    return edit


_CANONICAL_DOC = canonical(CanonicalTriple(Fraction(2), (1,), (1,))).to_dict()
_COCHAIN_DOC = {"scalar": "2", "elements": [[1], [2]]}

# (name, command, document, edit, the refusal after the path)
_SHAPE_ERRORS = [
    (
        "vector is a number", "verify", _CANONICAL_DOC, _set(("phi", "terms", 0, "e"), [1, 0, 1]),
        "phi.terms[0].e: expected an array, got int",
    ),
    (
        "vectors are a number", "verify", _CANONICAL_DOC, _set(("phi", "terms", 0, "e"), 5),
        "phi.terms[0].e: expected an array, got int",
    ),
    (
        "vector is a record", "verify", _CANONICAL_DOC, _set(("phi", "terms", 0, "e", 0), {"x": 1}),
        "phi.terms[0].e: expected an array, got dict",
    ),
    ("terms", "verify", _CANONICAL_DOC, _set(("phi", "terms"), 5), "phi.terms: expected an array, got int"),
    ("term", "verify", _CANONICAL_DOC, _set(("phi", "terms", 0), 5), "phi.terms[0]: expected an object, got int"),
    ("element", "verify", _CANONICAL_DOC, _set(("phi",), [1]), "phi: expected an object, got list"),
    ("counit", "verify", _CANONICAL_DOC, _set(("counit",), 5), "counit: expected an array, got int"),
    ("coproduct", "verify", _CANONICAL_DOC, _set(("coproduct",), 5), "coproduct: expected an array, got int"),
    (
        "coproduct image", "verify", _CANONICAL_DOC, _set(("coproduct", 0), 5),
        "coproduct[0]: expected an object, got int",
    ),
    (
        "coproduct image legs", "verify", _CANONICAL_DOC,
        _set(("coproduct", 0), {"rank": 1, "legs": 3, "terms": [{"c": "1", "e": [[1], [1], [1]]}]}),
        "coproduct[0]: element has 3 legs, expected 2",
    ),
    (
        "coproduct image count", "verify", _CANONICAL_DOC,
        _set(("coproduct",), _CANONICAL_DOC["coproduct"] * 2),
        "coproduct: expected length 1, got 2",
    ),
    (
        "term legs", "verify", _CANONICAL_DOC, _set(("phi", "terms", 0, "e"), [[1], [0]]),
        "phi.terms[0].e: expected length 3, got 2",
    ),
    (
        "vector length", "verify", _CANONICAL_DOC, _set(("phi", "terms", 0, "e", 0), [0, 0]),
        "phi.terms[0].e: expected length 1, got 2",
    ),
    ("counit values", "verify", _CANONICAL_DOC, _set(("counit",), ["1", "1"]), "counit: expected length 1, got 2"),
    ("presentation", "verify", [1], None, "presentation: expected an object, got list"),
    ("missing rank", "verify", _CANONICAL_DOC, _drop(("rank",)), "rank: missing"),
    ("missing lambda", "verify", _CANONICAL_DOC, _drop(("lambda",)), "lambda: missing"),
    ("missing legs", "verify", _CANONICAL_DOC, _drop(("phi", "legs")), "phi.legs: missing"),
    ("missing terms", "verify", _CANONICAL_DOC, _drop(("coproduct", 0, "terms")), "coproduct[0].terms: missing"),
    ("missing exponents", "verify", _CANONICAL_DOC, _drop(("phi", "terms", 0, "e")), "phi.terms[0].e: missing"),
    ("missing coefficient", "verify", _CANONICAL_DOC, _drop(("phi", "terms", 0, "c")), "phi.terms[0].c: missing"),
    (
        "cochain element", "boundary", _COCHAIN_DOC, _set(("elements",), [5]),
        "elements[0]: expected an array, got int",
    ),
    (
        "cochain element, rank given", "boundary --rank 1", _COCHAIN_DOC, _set(("elements",), [[1], 5]),
        "elements[1]: expected an array, got int",
    ),
    (
        "cochain element length", "boundary", _COCHAIN_DOC, _set(("elements",), [[1, 0], [2]]),
        "elements[1]: expected length 2, got 1",
    ),
    ("cochain elements", "boundary", _COCHAIN_DOC, _set(("elements",), 5), "elements: expected an array, got int"),
    ("cochain", "boundary", [1], None, "cochain: expected an object, got list"),
    ("missing cochain scalar", "boundary", _COCHAIN_DOC, _drop(("scalar",)), "scalar: missing"),
    ("missing cochain elements", "boundary", _COCHAIN_DOC, _drop(("elements",)), "elements: missing"),
]


@pytest.mark.parametrize(
    "command, doc, edit, refusal", [c[1:] for c in _SHAPE_ERRORS], ids=[c[0] for c in _SHAPE_ERRORS]
)
def test_shape_error_names_the_field(tmp_path, capsys, command, doc, edit, refusal):
    from qbialg.cli import main

    doc = copy.deepcopy(doc)
    if edit is not None:
        edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    name, *flags = command.split()
    if name == "boundary":
        flags += ["--degree", "2"]
    assert main([name, *flags, "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {refusal}\n")


@pytest.mark.parametrize("number", ["9007199254740993.0", "0.12345678901234567890"])
def test_json_float_coefficients_are_malformed_input(tmp_path, canonical_file, capsys, number):
    # json reads a number with a fraction part as a binary float, so the
    # first would be checked as 9007199254740992 and the second as
    # 1543209862654321/12500000000000000; decimals are written as strings
    from qbialg.cli import main

    data = json.loads(canonical_file.read_text())
    phi = json.loads(json.dumps(data))
    phi["phi"]["terms"][0]["c"] = "NUMBER"
    counit = json.loads(json.dumps(data))
    counit["counit"][0] = "NUMBER"
    cochain = {"scalar": "NUMBER", "elements": [[1], [2]]}
    for name, doc, command, field in (
        ("phi", phi, ["verify"], "phi.terms[0].c"),
        ("counit", counit, ["verify"], "counit[0]"),
        ("cochain", cochain, ["boundary", "--degree", "2"], "scalar"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc).replace('"NUMBER"', number))
        assert main([*command, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        expected = f"{field}: expected an integer, a Fraction or rational text, got {float(number)!r}"
        assert err == f"error: {path}: {expected}\n"


def test_degree_limit_is_checked_at_the_parse_boundary(tmp_path, capsys):
    from qbialg.cli import MAX_DEGREE, main

    too_big = str(MAX_DEGREE + 1)
    assert main(["cohomology", "--rank", "1", "--degree", too_big]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--degree" in err
    # the limit is checked before the input file is read
    missing = tmp_path / "never-read.json"
    assert main(["boundary", "--degree", too_big, "--input", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--degree" in err and "never-read" not in err

    assert main(["cohomology", "--rank", "2", "--degree", str(MAX_DEGREE)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "free_rank": 0, "torsion": [], "scalar_factor": False
    }
    cochain = tmp_path / "cochain.json"
    cochain.write_text(json.dumps({"scalar": "2", "elements": [[1], [3]]}))
    assert main(["boundary", "--degree", "2", "--input", str(cochain)]) == 0
    assert json.loads(capsys.readouterr().out) == {"scalar": "1", "elements": [[-1], [0], [3]]}


def test_rank_limit_is_checked_at_the_parse_boundary(tmp_path, capsys):
    from qbialg.cli import MAX_RANK, main

    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({"scalar": "5", "elements": []}))
    cochain = tmp_path / "cochain.json"
    cochain.write_text(json.dumps({"scalar": "3", "elements": [[1, 0], [0, 2]]}))
    # no rank-0 or negative-rank cochain, and no rank the cochain contradicts
    for rank, path, degree in (("0", scalar, "0"), ("-3", scalar, "0"), ("5", cochain, "2")):
        assert main(["boundary", "--degree", degree, "--input", str(path), "--rank", rank]) == 2
        assert capsys.readouterr().out == ""
    # the limit is checked before the input file is read
    missing = tmp_path / "never-read.json"
    too_big = str(MAX_RANK + 1)
    assert main(["boundary", "--degree", "0", "--input", str(missing), "--rank", too_big]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--rank" in err and "never-read" not in err

    assert main(["boundary", "--degree", "2", "--input", str(cochain), "--rank", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["elements"] == [[-1, 0], [0, 0], [0, 2]]
    assert main(["boundary", "--degree", "0", "--input", str(scalar), "--rank", str(MAX_RANK)]) == 0
    assert json.loads(capsys.readouterr().out)["elements"] == [[0] * MAX_RANK]


def test_hom_limits_are_checked_at_the_parse_boundary(capsys, monkeypatch):
    from qbialg import homcat
    from qbialg.cli import MAX_DIM, MAX_EXPONENT, MAX_TRIALS, main

    homcheck = {"--q": "2", "--a": "1", "--b": "-1", "--dims": "1", "--trials": "1"}
    family = {"--q1": "2", "--a1": "1", "--b1": "-1", "--dims": "1", "--trials": "1"}
    compare = {**family, "--q2": "1", "--a2": "0", "--b2": "0"}
    tilde = {**family, "--tilde": None}

    def argv(command, flags):
        return [command] + [x for k, v in flags.items() for x in ((k,) if v is None else (k, v))]

    broken = [("homcheck", homcheck, flag) for flag in ("--a", "--b")]
    broken += [("compare-hom", compare, flag) for flag in ("--a1", "--b1", "--a2", "--b2")]
    cases = [(cmd, {**flags, flag: str(sign * (MAX_EXPONENT + 1))}, flag)
             for cmd, flags, flag in broken for sign in (1, -1)]
    for cmd, flags in (("homcheck", homcheck), ("compare-hom", tilde)):
        cases.append((cmd, {**flags, "--trials": str(MAX_TRIALS + 1)}, "--trials"))
        cases.append((cmd, {**flags, "--dims": f"1,{MAX_DIM + 1}"}, "--dims"))

    def no_draw(*args):
        raise AssertionError("an object was drawn")

    with monkeypatch.context() as m:
        m.setattr(homcat, "random_unimodular", no_draw)
        for cmd, flags, flag in cases:
            assert main(argv(cmd, flags)) == 2, (cmd, flag)
            out, err = capsys.readouterr()
            assert out == "" and flag in err, (cmd, flag, err)

    # the bounds themselves are accepted
    edge = {"--dims": f"1,{MAX_DIM}"}
    for cmd, flags in (
        ("homcheck", {**homcheck, **edge, "--a": str(MAX_EXPONENT), "--b": str(-MAX_EXPONENT)}),
        ("compare-hom", {**compare, "--a1": str(-MAX_EXPONENT), "--b2": str(MAX_EXPONENT)}),
    ):
        assert main(argv(cmd, flags)) in (0, 1)
        assert json.loads(capsys.readouterr().out)["trials"] == 1


def test_reused_parser_answers_as_a_fresh_process(tmp_path, monkeypatch, canonical_file):
    from qbialg import cli

    # help text wraps at the terminal width, which both sides read from here
    monkeypatch.setenv("COLUMNS", "80")
    two_terms = tmp_path / "two_terms.json"
    two_terms.write_text(json.dumps(
        {"rank": 1, "legs": 2, "terms": [{"c": "1", "e": [[0], [0]]}, {"c": "1", "e": [[1], [0]]}]}
    ))
    homcheck = ["homcheck", "--q", "2", "--a", "1", "--b", "1"]
    compare = ["compare-hom", "--q1", "1", "--a1", "1", "--b1=-1"]
    sequence = [
        ["no-such-command"],
        ["homcheck", "--q", "1", "--a", "0"],
        [*homcheck, "--trials", "x"],
        ["--help"],
        ["homcheck", "--help"],
        [*homcheck, "--dims", "1", "--trials", "2", "--seed", "3"],
        homcheck,
        [*compare, "--tilde", "--dims", "1", "--trials", "2"],
        [*compare, "--q2", "1", "--a2", "0", "--b2", "0", "--dims", "1", "--trials", "2"],
        ["verify", "--input", str(canonical_file)],
        ["twist", "--input", str(canonical_file), "--twist", str(two_terms)],
        ["cohomology", "--rank", "2", "--degree", "4"],
    ]
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for argv in sequence:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            fresh = subprocess.run([sys.executable, "-m", "qbialg", *argv], capture_output=True)
            assert (code, out.getvalue().encode(), err.getvalue().encode()) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_witness_too_long_for_decimal_exits_one(tmp_path, ordinary_file, capsys):
    from qbialg.cli import main

    # a well-formed presentation whose counital witness is 2^3000000
    data = json.loads(ordinary_file.read_text())
    data["counit"] = ["2"]
    data["phi"]["terms"][0]["e"] = [[0], [3000000], [0]]
    path = tmp_path / "long_witness.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    (counital,) = [c for c in report if c["axiom"] == "counital"]
    assert counital["lhs"]["terms"][0]["c"] == "<3000001-bit integer>"
    # homcat's witnesses too: the ratio of q1 = q and q2 = 1/q is q^2
    q = "7" * 4000
    argv = ["compare-hom", "--q1", q, "--a1", "1", "--b1", "2", "--q2", f"1/{q}",
            "--a2", "0", "--b2", "0", "--dims", "2", "--trials", "1"]
    assert main(argv) == 1
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert "<26575-bit integer>" in json.dumps([e["ratio"] for e in entries])


def test_unreadable_bytes_are_malformed_input(tmp_path, capsys):
    from qbialg.cli import main

    path = tmp_path / "bytes.json"
    # an integer literal too long for int(), text that is not UTF-8, and
    # arrays nested deeper than the decoder recurses
    for content in (b'{"rank": ' + b"1" * 5000 + b"}", b'{"rank": "\xff"}', b"[" * 100000):
        path.write_bytes(content)
        for argv in (
            ["verify", "--input", str(path)],
            ["boundary", "--degree", "1", "--input", str(path)],
        ):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and str(path) in err


# -- fuzz: every exit code is 0, 1 or 2, and stdout is JSON or empty ---------

fuzz_coefficients = st.sampled_from(["1", "-1", "2", "1/2", "-3/2", "0"])


@st.composite
def fuzz_inputs(draw):
    """A presentation document near a canonical one, and a second element.

    Each constraint, the counit and the coproduct may be replaced by a
    drawn element of one or two terms, so some inputs are valid, some
    fail a check and some are not units at all.
    """
    rank = draw(st.integers(1, 2))

    def vector(r):
        return [draw(st.integers(-2, 2)) for _ in range(r)]

    def element(legs, r=rank):
        terms = [
            {"c": draw(fuzz_coefficients), "e": [vector(r) for _ in range(legs)]}
            for _ in range(draw(st.integers(1, 2)))
        ]
        return {"rank": r, "legs": legs, "terms": terms}

    q = draw(fuzz_coefficients.filter(lambda c: c != "0"))
    doc = canonical(CanonicalTriple(q, vector(rank), vector(rank))).to_dict()
    for key, legs in (("phi", 3), ("lambda", 1), ("rho", 1)):
        if draw(st.booleans()):
            doc[key] = element(legs)
    if draw(st.booleans()):
        doc["counit"] = [draw(fuzz_coefficients) for _ in range(rank)]
    if draw(st.booleans()):
        doc["coproduct"] = [element(2) for _ in range(rank)]
    other = element(draw(st.sampled_from((2, 2, 1, 3))), draw(st.sampled_from((rank, rank, 3))))
    return doc, other


@settings(max_examples=60, deadline=None)
@given(fuzz_inputs())
def test_presentation_commands_fuzz(inputs):
    from qbialg.cli import main

    doc, other = inputs
    with tempfile.TemporaryDirectory() as tmp:
        presentation = Path(tmp) / "presentation.json"
        presentation.write_text(json.dumps(doc))
        element = Path(tmp) / "element.json"
        element.write_text(json.dumps(other))
        for extra in (
            ("verify",), ("twist", "--twist", str(element)), ("verify-r", "--r", str(element)),
            ("normalize",), ("trivialize",), ("solve-r",),
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([extra[0], "--input", str(presentation), *extra[1:]])
            assert code in (0, 1, 2), extra
            if code == 2:
                assert out.getvalue() == "", extra
            else:
                json.loads(out.getvalue())


def test_sampled_hom_runs_are_byte_identical_to_golden():
    # a --dims pool feeds every sampled object and morphism of these runs,
    # so the goldens pin the sampler's draws and every report byte
    res = run_cli(
        "homcheck", "--q", "1/2", "--a", "-2", "--b", "3",
        "--dims", "2,3,4", "--trials", "25", "--seed", "0",
    )
    assert res.returncode == 0
    assert res.stdout == (GOLDEN / "homcheck_readme.json").read_text()
    res = run_cli(
        "compare-hom", "--q1", "2", "--a1", "1", "--b1", "1",
        "--q2", "1/2", "--a2", "-2", "--b2", "3", "--dims", "1,2", "--trials", "2", "--seed", "4",
    )
    assert res.returncode == 1
    assert res.stdout == (GOLDEN / "compare_hom_unequal.json").read_text()


def _bounded_flag_cases():
    """(argv, flag) for every value a number flag refuses."""
    from qbialg.cli import MAX_DEGREE, MAX_DIM, MAX_EXPONENT, MAX_RANK, MAX_TRIALS

    homcheck = ["homcheck", "--q", "2", "--a", "1", "--b", "-1", "--dims", "1", "--trials", "1"]
    compare = [
        "compare-hom", "--q1", "2", "--a1", "1", "--b1", "-1", "--q2", "1", "--a2", "0", "--b2", "0",
        "--dims", "1", "--trials", "1",
    ]
    boundary = ["boundary", "--input", "never-read.json", "--degree", "0", "--rank", "1"]
    cohomology = ["cohomology", "--rank", "1", "--degree", "1"]
    classify = ["classify", "--rank", "1", "--q", "2", "--h", "1", "--g", "1"]
    # int() reads an Arabic-Indic digit and "1_0", Fraction() the digit too;
    # number text is ASCII digits
    foreign = ("\u0661", "1_0")
    degree = (-1, MAX_DEGREE + 1, *foreign)
    scalar = ("0", "0/5", "\u0662", "\u0661.\u0665")
    exponent = (MAX_EXPONENT + 1, -MAX_EXPONENT - 1, *foreign)
    sampling = {
        "--dims": ("0", "2,-1", f"1,{MAX_DIM + 1}", *foreign, "1,\u0662"),
        "--trials": (0, -3, MAX_TRIALS + 1, *foreign),
        "--seed": foreign,
    }
    cases = []
    for base, refused in (
        (boundary, {"--degree": degree, "--rank": (0, -1, MAX_RANK + 1, *foreign)}),
        (cohomology, {"--degree": degree, "--rank": (0, -1, *foreign)}),
        (classify, {"--rank": (0, -1, *foreign), "--h": foreign, "--g": (*foreign, "1,1_0")}),
        (homcheck, {"--q": scalar, "--a": exponent, "--b": exponent, **sampling}),
        (compare, {
            "--q1": scalar, "--a1": exponent, "--b1": exponent,
            "--q2": scalar, "--a2": exponent, "--b2": exponent, **sampling,
        }),
    ):
        # appended after the base's own value of the flag, which it would override
        cases += [(base + [flag, str(v)], flag) for flag, values in refused.items() for v in values]
    return cases


@pytest.mark.parametrize(
    "argv, flag", _bounded_flag_cases(), ids=lambda x: " ".join(x) if isinstance(x, list) else x
)
def test_bounded_flag_is_refused_by_the_parser(argv, flag, capsys, monkeypatch):
    from qbialg import cli, homcat

    def untouched(*args):
        raise AssertionError("the refusal came after an input was read or drawn")

    monkeypatch.setattr(cli, "_read_json", untouched)
    monkeypatch.setattr(homcat, "random_unimodular", untouched)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert err.startswith(f"error: argument {flag}: "), err


@pytest.mark.parametrize("flag, value", [("--a", "1.5"), ("--trials", "x"), ("--q", "1e3")])
def test_unreadable_flag_value_is_named_with_the_flag(flag, value, capsys):
    from qbialg.cli import main

    argv = ["homcheck", "--q", "2", "--a", "1", "--b", "-1", "--dims", "1", "--trials", "1"]
    assert main([*argv, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: argument {flag}: ") and repr(value) in err, err
    assert "invalid" not in err, err


@pytest.mark.parametrize(
    "argv", [["--help"], *([c, "--help"] for c in ("boundary", "cohomology", "classify", "homcheck", "compare-hom"))]
)
def test_help_exits_zero(argv, capsys):
    from qbialg.cli import main

    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: qbialg") and err == ""


def test_empty_dims_asks_for_no_pool(capsys):
    from qbialg.cli import main

    argv = ["homcheck", "--q", "1/2", "--a", "-2", "--b", "3", "--trials", "1", "--seed", "2"]
    assert main([*argv, "--dims", ""]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "homcheck_no_pool.json").read_text()
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_a_long_run_with_no_pool_keeps_its_draws(capsys):
    """25 trials drawn from the seed alone: every object and map of every
    instance is drawn, in the order the golden pins, though the proved
    rows build none of them."""
    from qbialg.cli import main

    argv = ["homcheck", "--q", "2", "--a", "1", "--b", "1", "--dims", "", "--trials", "25", "--seed", "7"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "homcheck_no_pool_25.json").read_text()


def test_a_comparison_with_no_pool_keeps_its_draws(capsys):
    """Two different family structures, every object drawn from the seed:
    an entry the words leave open builds its trial's objects, and the
    ratio it prints is taken on them, in the order the golden pins."""
    from qbialg.cli import main

    argv = [
        "compare-hom", "--q1", "2", "--a1", "1", "--b1", "1",
        "--q2", "1/2", "--a2", "-2", "--b2", "3", "--dims", "", "--trials", "5", "--seed", "3",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().out == (GOLDEN / "compare_hom_no_pool.json").read_text()


# -- the report writer ---------------------------------------------------------

json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.text(st.characters(codec=None, exclude_categories=("Cs",)))
    | st.text("\x00\x1f\"\\/ é\U0001f600 a"),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_the_report_writer_writes_what_json_dumps_writes(tree):
    """``_emit``'s one-pass writer against ``json.dumps(obj, indent=2)``:
    non-ASCII and control characters, empty and nested containers,
    tuples, large and negative ints, booleans and None."""
    from qbialg.cli import _json

    assert _json(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": {2, 3}}, [Fraction(1, 2)], b"x"])
def test_the_report_writer_refuses_other_types(value):
    from qbialg.cli import _json

    with pytest.raises(TypeError):
        _json(value)
