"""The ``repro.resilience/1`` report: what survived, what rolled back.

A :class:`ResilienceReport` is the structured record one resilient
compilation leaves behind: one :class:`PassOutcome` per pipeline site
(kept / dropped / skipped, with cause and detail), plus the degradation
context — which block-size rung the pipeline compiled at, whether the
all-optimizations-off floor was reached, and whether validated mode was
on.  The resilience CLI aggregates these into the ``repro.resilience/1``
envelope CI uploads as an artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.envelope import make_envelope

#: Envelope schema tag for resilience reports.
RESILIENCE_SCHEMA = "repro.resilience/1"

#: Outcome statuses a pipeline site can end a compilation with.
OUTCOME_STATUSES = ("kept", "dropped", "skipped")

#: Causes attached to non-kept outcomes.  ``pass-error`` is a resource
#: :class:`~repro.passes.base.PassError` at the final rung; ``error`` an
#: unexpected exception; ``fault`` an injected one; ``budget`` a compile
#: budget overrun; ``validate`` a differential-validation mismatch;
#: ``dependency`` a skip forced by an earlier rollback; ``disabled`` a
#: stage toggle; ``policy`` the compiler's own skip heuristics.
OUTCOME_CAUSES = ("pass-error", "error", "fault", "budget", "validate",
                  "dependency", "disabled", "policy")


@dataclass
class PassOutcome:
    """What happened to one pipeline site during one compilation."""

    site: str
    status: str                 # see OUTCOME_STATUSES
    cause: str = ""             # empty for 'kept'; see OUTCOME_CAUSES
    detail: str = ""
    duration_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"site": self.site, "status": self.status}
        if self.cause:
            out["cause"] = self.cause
        if self.detail:
            out["detail"] = self.detail
        if self.duration_s:
            out["duration_s"] = round(self.duration_s, 6)
        return out


@dataclass
class ResilienceReport:
    """Per-compilation resilience record (one per ``_compile_once``)."""

    target_threads: int = 0
    validated: bool = False
    floor: bool = False          # compiled with every optimization off
    sites: List[PassOutcome] = field(default_factory=list)
    #: Why validated mode simulated no pass (work above the limit, or
    #: the naive reference raised); ``None`` when it did.
    validation_skipped: Optional[str] = None

    def record(self, outcome: PassOutcome) -> PassOutcome:
        if outcome.status not in OUTCOME_STATUSES:
            raise ValueError(f"bad outcome status {outcome.status!r}")
        if outcome.cause and outcome.cause not in OUTCOME_CAUSES:
            raise ValueError(f"bad outcome cause {outcome.cause!r}")
        self.sites.append(outcome)
        return outcome

    # -- views -------------------------------------------------------------

    @property
    def kept(self) -> List[PassOutcome]:
        return [o for o in self.sites if o.status == "kept"]

    @property
    def dropped(self) -> List[PassOutcome]:
        return [o for o in self.sites if o.status == "dropped"]

    @property
    def skipped(self) -> List[PassOutcome]:
        return [o for o in self.sites if o.status == "skipped"]

    def outcome(self, site: str) -> Optional[PassOutcome]:
        """The last recorded outcome for ``site`` (or None)."""
        for o in reversed(self.sites):
            if o.site == site:
                return o
        return None

    def summary_line(self) -> str:
        """One human line: 'kept 4/6 sites (dropped: merge[fault]), ...'."""
        total = len([o for o in self.sites if o.status != "skipped"])
        parts = [f"kept {len(self.kept)}/{total} pipeline site(s) "
                 f"at {self.target_threads} target threads"]
        if self.dropped:
            drops = ", ".join(f"{o.site}[{o.cause}]" for o in self.dropped)
            parts.append(f"dropped: {drops}")
        if self.floor:
            parts.append("degraded to the no-optimization floor")
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "target_threads": self.target_threads,
            "validated": self.validated,
            "floor": self.floor,
            "sites": [o.to_dict() for o in self.sites],
        }
        if self.validation_skipped is not None:
            out["validation_skipped"] = self.validation_skipped
        return out


def resilience_envelope(kernels: List[Dict[str, object]],
                        **meta) -> Dict[str, object]:
    """Build the ``repro.resilience/1`` envelope the CLI emits.

    ``kernels`` is a list of per-kernel result dicts (each typically
    carrying ``kernel``, ``status``, ``attempts``, and a ``report`` in
    :meth:`ResilienceReport.to_dict` form); ``meta`` adds run-level
    fields (mode, injected faults, totals).
    """
    return make_envelope(RESILIENCE_SCHEMA, **meta, kernels=kernels)
