"""Core of the reproduction: color assignment, graph division and the decomposer."""

from repro.core.options import (
    AlgorithmOptions,
    DecomposerOptions,
    DivisionOptions,
    HALF_PITCH_NM,
    MIN_SPACING_NM,
    MIN_WIDTH_NM,
    PENTUPLE_MIN_COLORING_DISTANCE,
    QUADRUPLE_MIN_COLORING_DISTANCE,
)
from repro.core.coloring import ColoringAlgorithm
from repro.core.evaluation import (
    CostBreakdown,
    DecompositionSolution,
    check_complete,
    count_conflicts,
    count_stitches,
    evaluate,
)
from repro.core.backtrack import BacktrackColoring, BacktrackStatistics, search_merged_graph
from repro.core.greedy_coloring import GreedyColoring
from repro.core.ilp_coloring import IlpColoring
from repro.core.linear_coloring import LinearColoring
from repro.core.sdp_coloring import SdpColoring
from repro.core.rotation import best_rotation, merge_component_colorings, rotate_coloring
from repro.core.division import DivisionReport, divide_and_color
from repro.core.decomposer import (
    Decomposer,
    DecompositionResult,
    decompose_layout,
    make_colorer,
)

__all__ = [
    "AlgorithmOptions",
    "DecomposerOptions",
    "DivisionOptions",
    "HALF_PITCH_NM",
    "MIN_SPACING_NM",
    "MIN_WIDTH_NM",
    "QUADRUPLE_MIN_COLORING_DISTANCE",
    "PENTUPLE_MIN_COLORING_DISTANCE",
    "ColoringAlgorithm",
    "CostBreakdown",
    "DecompositionSolution",
    "check_complete",
    "count_conflicts",
    "count_stitches",
    "evaluate",
    "BacktrackColoring",
    "BacktrackStatistics",
    "search_merged_graph",
    "GreedyColoring",
    "IlpColoring",
    "LinearColoring",
    "SdpColoring",
    "best_rotation",
    "merge_component_colorings",
    "rotate_coloring",
    "DivisionReport",
    "divide_and_color",
    "Decomposer",
    "DecompositionResult",
    "decompose_layout",
    "make_colorer",
]
