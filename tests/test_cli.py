import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qbialg.quasibialgebra import CanonicalTriple, canonical, ordinary


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
    path.write_text(p.dumps())
    return path


@pytest.fixture()
def ordinary_file(tmp_path):
    path = tmp_path / "ordinary.json"
    path.write_text(ordinary(1).dumps())
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
