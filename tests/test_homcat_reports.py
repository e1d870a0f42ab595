"""Coherence and comparison reports, byte for byte against recorded goldens.

The goldens pin the seeded draw order of the sampler and every witness
and ratio string, so a change to how instances are decided cannot move
a single byte of a report.  Only public names are used.  To record the
goldens again after a deliberate change of the reports, run this file
as a script; it rewrites ``golden/homcat_reports.json`` and
``golden/coherence_reports.json``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from qbialg.homcat import (
    HTILDE_STRUCTURE,
    PLAIN_STRUCTURE,
    HomObject,
    MonoidalParams,
    StructureMaps,
    check_coherence,
    compare_structures,
    random_unimodular,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "homcat_reports.json"
COHERENCE_GOLDEN = GOLDEN.with_name("coherence_reports.json")

# the four structures of acceptance criterion 6
FAMILY = {
    "q1_a0_b0": MonoidalParams(Fraction(1), 0, 0),
    "q1_a1_b-1": MonoidalParams(Fraction(1), 1, -1),
    "q2_a1_b1": MonoidalParams(Fraction(2), 1, 1),
    "q1/2_a-2_b3": MonoidalParams(Fraction(1, 2), -2, 3),
}

# outside the family: a nonzero middle associator exponent breaks the
# pentagon on every object of infinite order
OUTSIDE = {
    "outside_e1": StructureMaps((1, 1, -1), Fraction(2), 1, Fraction(2), 1, (0, 0)),
    "outside_e-2": StructureMaps((0, -2, 1), Fraction(-1, 3), -1, Fraction(-1, 3), 0, (1, -1)),
}


def _pool():
    """Objects of infinite and of finite order, and two seeded random ones."""
    rng = random.Random(17)
    return [
        HomObject(1, ((2,),)),
        HomObject(2, ((1, 1), (0, 1))),
        HomObject(2, ((0, 1), (1, 0))),
        HomObject(2, ((-1, 0), (0, -1))),
        HomObject(2, *random_unimodular(rng, 2)),
        HomObject(3, *random_unimodular(rng, 3)),
    ]


def _small_pool():
    """Dimensions 1 and 2 only, so that pentagon witnesses stay 16 x 16."""
    return [HomObject(1, ((2,),)), HomObject(2, ((1, 1), (0, 1))), HomObject(1, ((-1,),))]


def reports() -> dict:
    out = {}
    for name, s in {**FAMILY, "htilde": HTILDE_STRUCTURE}.items():
        out[f"coherence/{name}/sampled"] = check_coherence(s, trials=3, seed=11, max_dim=3)
        out[f"coherence/{name}/pool"] = check_coherence(s, _pool(), trials=4, seed=5)
    for name, s in OUTSIDE.items():
        out[f"coherence/{name}/sampled"] = check_coherence(s, trials=2, seed=4, max_dim=2)
        out[f"coherence/{name}/pool"] = check_coherence(s, _small_pool(), trials=3, seed=3)
    pairs = {
        "htilde_vs_q1_a1_b-1": (HTILDE_STRUCTURE, FAMILY["q1_a1_b-1"]),
        "plain_vs_htilde": (PLAIN_STRUCTURE, HTILDE_STRUCTURE),
        "q2_a1_b1_vs_q1/2_a-2_b3": (FAMILY["q2_a1_b1"], FAMILY["q1/2_a-2_b3"]),
        "outside_e1_vs_outside_e-2": (OUTSIDE["outside_e1"], OUTSIDE["outside_e-2"]),
    }
    for name, (s1, s2) in pairs.items():
        out[f"compare/{name}/sampled"] = compare_structures(s1, s2, trials=3, seed=7, max_dim=2)
        out[f"compare/{name}/pool"] = compare_structures(s1, s2, _small_pool(), trials=3, seed=6)
    return {key: report.to_dict() for key, report in out.items()}


def coherence_reports() -> dict:
    """check_coherence on every structure above, with a pool of three
    objects and without one, at three seeds: a moved draw of the sampler
    moves the objects or the maps of every later instance.  The outside
    structures are sampled at dimension at most 2, so that their pentagon
    witnesses stay 16 x 16."""
    out = {}
    for name, s in {**FAMILY, "htilde": HTILDE_STRUCTURE, **OUTSIDE}.items():
        max_dim = 2 if name in OUTSIDE else 4
        for seed in (0, 1, 2):
            out[f"{name}/pool/{seed}"] = check_coherence(s, _small_pool(), trials=2, seed=seed)
            out[f"{name}/sampled/{seed}"] = check_coherence(
                s, trials=2, seed=seed, max_dim=max_dim
            )
    return {key: report.to_dict() for key, report in out.items()}


def _text(data: dict) -> str:
    return json.dumps(data, indent=1) + "\n"


def test_reports_are_byte_identical_to_golden():
    assert _text(reports()) == GOLDEN.read_text(encoding="utf-8")


def test_coherence_reports_are_byte_identical_to_golden():
    assert _text(coherence_reports()) == COHERENCE_GOLDEN.read_text(encoding="utf-8")


def test_goldens_cover_passes_failures_and_ratios():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name in OUTSIDE:
        for run in ("sampled", "pool"):
            report = data[f"coherence/{name}/{run}"]
            assert not report["ok"]
            assert any(
                inst["witness"] for group in report["axioms"] for inst in group["instances"]
            )
    for name in (*FAMILY, "htilde"):
        assert data[f"coherence/{name}/sampled"]["ok"] and data[f"coherence/{name}/pool"]["ok"]
    assert data["compare/htilde_vs_q1_a1_b-1/sampled"]["identical"]
    assert any(e["ratio"] for e in data["compare/plain_vs_htilde/pool"]["entries"])
    data = json.loads(COHERENCE_GOLDEN.read_text(encoding="utf-8"))
    assert len(data) == 7 * 2 * 3
    for key, report in data.items():
        assert report["ok"] is (key.split("/")[0] not in OUTSIDE)
        assert report["ok"] or any(
            inst["witness"] for group in report["axioms"] for inst in group["instances"]
        )


if __name__ == "__main__":
    GOLDEN.write_text(_text(reports()), encoding="utf-8")
    COHERENCE_GOLDEN.write_text(_text(coherence_reports()), encoding="utf-8")
