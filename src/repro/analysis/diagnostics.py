"""Shared diagnostics framework for the static kernel verifier.

Every analysis reports :class:`Diagnostic` records into a
:class:`DiagnosticReport`.  A diagnostic carries a severity, the analysis
that produced it, a human-readable message, a source location (the
pretty-printed statement the finding anchors to — the AST has no file
positions, but the printed statement is exactly what ``python -m repro``
shows the user), and a machine-readable ``to_dict`` form for tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterable, Iterator, List, Optional

from repro.lang.astnodes import Stmt


class Severity(IntEnum):
    """Diagnostic severity; errors abort compilation under ``--verify``."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # 'error', not 'Severity.ERROR'
        return self.name.lower()


def stmt_location(stmt: Optional[Stmt], max_chars: int = 72) -> str:
    """A one-line source snippet identifying ``stmt`` in printed output."""
    if stmt is None:
        return "<kernel>"
    from repro.lang.printer import print_stmt
    try:
        text = print_stmt(stmt).strip()
    except TypeError:
        return f"<{type(stmt).__name__}>"
    first = text.splitlines()[0].rstrip("{").strip()
    if len(first) > max_chars:
        first = first[: max_chars - 3] + "..."
    return first


@dataclass
class Diagnostic:
    """One finding of one analysis."""

    analysis: str                 # 'races' | 'divergence' | 'bounds' |
                                  # 'banks' | 'dataflow'
    severity: Severity
    message: str
    rule: str = ""                # stable rule id, e.g. 'dataflow.uninit-read'
    kernel: str = ""
    stage: str = ""
    array: Optional[str] = None
    stmt: Optional[Stmt] = field(default=None, repr=False, compare=False)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def location(self) -> str:
        return stmt_location(self.stmt)

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (JSON-serializable)."""
        out: Dict[str, object] = {
            "analysis": self.analysis,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.rule:
            out["rule"] = self.rule
        if self.kernel:
            out["kernel"] = self.kernel
        if self.stage:
            out["stage"] = self.stage
        if self.array is not None:
            out["array"] = self.array
        if self.stmt is not None:
            out["location"] = self.location
        if self.details:
            out["details"] = dict(self.details)
        return out

    def render(self) -> str:
        """Pretty two-line rendering for terminal output."""
        where = []
        if self.kernel:
            where.append(f"kernel {self.kernel}")
        if self.stage:
            where.append(f"stage {self.stage}")
        head = f"{self.severity}[{self.rule or self.analysis}]: {self.message}"
        if where:
            head += f"  ({', '.join(where)})"
        if self.stmt is not None:
            head += f"\n    at: {self.location}"
        return head


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with severity queries."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def at_least(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def summary(self) -> str:
        e, w, i = len(self.errors), len(self.warnings), len(self.infos)
        return f"{e} error(s), {w} warning(s), {i} info"

    def render(self, min_severity: Severity = Severity.WARNING) -> str:
        """Render all diagnostics at or above ``min_severity``."""
        lines = [d.render() for d in self.diagnostics
                 if d.severity >= min_severity]
        return "\n".join(lines)
