"""The paper's figures (:data:`repro.bench.figures.FIGURES`) and the
plain-text tables they print."""

from repro.bench.report import format_table

__all__ = ["format_table"]
