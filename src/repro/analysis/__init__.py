"""Analysis tools: decomposition reports, SVG output, and static analysis.

Two halves live here.  The original post-decomposition analysis (balance
metrics, conflict reports, SVG rendering) operates on solve results; the
static-analysis linter (``python -m repro.analysis``, ``repro-decompose
lint`` — see :mod:`repro.analysis.engine` and :mod:`repro.analysis.linter`)
operates on this repository's own source, enforcing the determinism,
lock-discipline, schema-coupling, metrics-exposition and import-hygiene
invariants.
"""

from repro.analysis.metrics import (
    ConflictReport,
    GraphStatistics,
    MaskBalance,
    conflict_report,
    graph_statistics,
    mask_balance,
    summary_text,
)
from repro.analysis.svg import decomposition_to_svg, layout_to_svg

__all__ = [
    "MaskBalance",
    "mask_balance",
    "ConflictReport",
    "conflict_report",
    "GraphStatistics",
    "graph_statistics",
    "summary_text",
    "layout_to_svg",
    "decomposition_to_svg",
]
