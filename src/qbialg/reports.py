"""Machine-readable results for axiom checking.

Every verification entry point returns a flat list of named checks.  A
check that fails carries both sides of the identity it tested, as the
units it computed, so a caller (or the command line tool) can print the
witness without recomputing anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import UnitElement


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    lhs: UnitElement | None = None
    rhs: UnitElement | None = None

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "pass": self.passed,
            "lhs": self.lhs.to_dict() if self.lhs is not None else None,
            "rhs": self.rhs.to_dict() if self.rhs is not None else None,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_list(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]


def compare(axiom: str, lhs: UnitElement, rhs: UnitElement) -> AxiomCheck:
    """Build a check entry; the two units are attached as witnesses only on failure."""
    if lhs == rhs:
        return AxiomCheck(axiom, True)
    return AxiomCheck(axiom, False, lhs, rhs)
