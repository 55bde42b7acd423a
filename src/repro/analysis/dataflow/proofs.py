"""Proof records attached to dataflow-driven code deletions.

Every statement the cleanup pass deletes (or splices) carries one
:class:`Proof` — a machine-checkable-in-spirit record of *why* the
deletion is sound: which rule fired, the static evidence (abstract
values, phase comparison, injectivity witness counts), and the launch
geometry the facts were computed under.  Proofs ride into the
compilation trace as ``proof`` events, so ``repro trace`` shows each
elimination alongside the ordinary pass decisions, and into the
reduction's compile log as ``cleanup:`` lines, so a record of *what*
was deleted always carries *on what grounds*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Rules the cleanup pass may cite.
RULE_GUARD_TRUE = "dataflow.guard-always-true"
RULE_GUARD_FALSE = "dataflow.guard-always-false"
RULE_BARRIER_PRIVATE = "dataflow.barrier-thread-private"

ALL_RULES = (RULE_GUARD_TRUE, RULE_GUARD_FALSE, RULE_BARRIER_PRIVATE)


@dataclass(frozen=True)
class Proof:
    """Why one deletion is sound under one launch geometry."""

    rule: str
    subject: str          # rendered condition / barrier description
    evidence: str         # abstract values or injectivity argument
    block: Tuple[int, int]
    grid: Tuple[int, int]
    affected_arrays: Tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if self.rule not in ALL_RULES:
            raise ValueError(f"unknown proof rule {self.rule!r}")

    def render(self) -> str:
        text = f"[{self.rule}] {self.subject}: {self.evidence}"
        if self.affected_arrays:
            text += f" (arrays: {', '.join(self.affected_arrays)})"
        if self.note:
            text += f" — {self.note}"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "subject": self.subject,
            "evidence": self.evidence,
            "block": list(self.block),
            "grid": list(self.grid),
            "affected_arrays": list(self.affected_arrays),
            "note": self.note,
        }


@dataclass
class CleanupResult:
    """What one cleanup run did to one kernel."""

    guards_removed: int = 0
    barriers_removed: int = 0
    proofs: list = field(default_factory=list)  # List[Proof]

    @property
    def changed(self) -> bool:
        return self.guards_removed > 0 or self.barriers_removed > 0

    def add(self, proof: Proof) -> None:
        self.proofs.append(proof)
        if proof.rule == RULE_BARRIER_PRIVATE:
            self.barriers_removed += 1
        else:
            self.guards_removed += 1

    def merge(self, other: Optional["CleanupResult"]) -> None:
        if other is None:
            return
        self.guards_removed += other.guards_removed
        self.barriers_removed += other.barriers_removed
        self.proofs.extend(other.proofs)

    def to_dict(self) -> dict:
        return {
            "guards_removed": self.guards_removed,
            "barriers_removed": self.barriers_removed,
            "proofs": [p.to_dict() for p in self.proofs],
        }
