"""Static summaries produced by the dataflow engine.

A :class:`KernelFacts` bundle is the engine's output for one kernel under
one launch configuration: per-access-site :class:`AccessFact` summaries
(abstract per-dimension indices plus a folded linear address), per-branch
:class:`GuardVerdict` records, and the variable environment observed at
kernel exit.  Facts are keyed by AST node identity (``id(node)``) — the
compiler pipeline hands the *same* AST objects to the engine, the
interpreter, and the cleanup pass, so identity keys line the three up
without any location bookkeeping.

The bundle is what the soundness oracle checks concrete executions
against, what the cleanup pass consumes as proof material, and what
``repro lint --facts`` serializes for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang import astnodes as ast

from .lattice import Val


@dataclass
class AccessFact:
    """Abstract summary of one global/shared array access site."""

    array: str
    space: str  # "global" | "shared"
    is_store: bool
    ref: ast.ArrayRef
    index_vals: Tuple[Val, ...]
    address: Val  # row-major linear address; Val.top() if extents unknown
    dims: Optional[Tuple[int, ...]] = None

    def join_with(self, other: "AccessFact") -> None:
        """Merge another visit of the same site (e.g. both if-branches)."""
        self.is_store = self.is_store or other.is_store
        self.index_vals = tuple(
            a.join(b) for a, b in zip(self.index_vals, other.index_vals))
        self.address = self.address.join(other.address)

    def covers(self, address: int) -> bool:
        return self.address.contains(address)

    def to_dict(self) -> dict:
        return {
            "array": self.array,
            "space": self.space,
            "kind": "store" if self.is_store else "load",
            "indices": [v.to_dict() for v in self.index_vals],
            "address": self.address.to_dict(),
            "rendered": f"{self.array}"
                        f"[{', '.join(str(v) for v in self.index_vals)}]"
                        f" -> addr {self.address}",
        }


@dataclass
class GuardVerdict:
    """Static verdict for a branch condition.

    ``verdict`` is three-valued: True (always taken), False (never
    taken), or None (unknown — the common case).  ``evidence`` is a
    human-auditable rendering of the abstract operands that justified a
    definite verdict; it rides along into cleanup proofs.
    """

    stmt: ast.IfStmt
    verdict: Optional[bool]
    cond_text: str
    evidence: str = ""

    def to_dict(self) -> dict:
        return {
            "cond": self.cond_text,
            "verdict": self.verdict,
            "evidence": self.evidence,
        }


@dataclass
class KernelFacts:
    """All facts the engine derived for one kernel + launch geometry."""

    kernel_name: str
    block: Tuple[int, int]
    grid: Tuple[int, int]
    accesses: Dict[int, AccessFact] = field(default_factory=dict)
    verdicts: Dict[int, GuardVerdict] = field(default_factory=dict)
    exit_env: Dict[str, Val] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def record_access(self, fact: AccessFact) -> None:
        key = id(fact.ref)
        existing = self.accesses.get(key)
        if existing is None:
            self.accesses[key] = fact
        else:
            existing.join_with(fact)

    def record_verdict(self, verdict: GuardVerdict) -> None:
        key = id(verdict.stmt)
        existing = self.verdicts.get(key)
        if existing is None:
            self.verdicts[key] = verdict
        elif existing.verdict != verdict.verdict:
            # Conflicting visits (e.g. different loop contexts): demote.
            existing.verdict = None
            existing.evidence = ""

    def verdict_for(self, stmt: ast.IfStmt) -> Optional[GuardVerdict]:
        return self.verdicts.get(id(stmt))

    def facts_for_array(self, name: str) -> List[AccessFact]:
        return [f for f in self.accesses.values() if f.array == name]

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "block": list(self.block),
            "grid": list(self.grid),
            "accesses": [f.to_dict() for f in self.accesses.values()],
            "guards": [v.to_dict() for v in self.verdicts.values()],
            "exit_env": {name: val.to_dict()
                         for name, val in sorted(self.exit_env.items())},
            "warnings": list(self.warnings),
        }
