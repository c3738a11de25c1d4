"""Common interface of the color-assignment algorithms.

Each algorithm colors one decomposition graph (usually a component produced
by the graph-division stage) with K colors, minimising conflicts first and
stitches second.  The concrete algorithms are:

* :class:`repro.core.ilp_coloring.IlpColoring` — exact ILP baseline, solved
  by HiGHS's MIP solver,
* :class:`repro.core.sdp_coloring.SdpColoring` — SDP relaxation followed by
  greedy or backtrack mapping,
* :class:`repro.core.linear_coloring.LinearColoring` — the O(n) heuristic of
  Algorithm 2,
* :class:`repro.core.backtrack.BacktrackColoring` — exact search, used both
  standalone on small graphs and as the mapping stage of SDP+Backtrack,
* :class:`repro.core.greedy_coloring.GreedyColoring` — plain greedy reference.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

from repro.core.options import AlgorithmOptions
from repro.errors import ConfigurationError
from repro.graph.decomposition_graph import DecompositionGraph


class ColoringAlgorithm(abc.ABC):
    """Base class for K-coloring algorithms on decomposition graphs."""

    #: Short name used in reports and algorithm registries.
    name: str = "abstract"

    def __init__(
        self, num_colors: int, options: Optional[AlgorithmOptions] = None
    ) -> None:
        if num_colors < 2:
            raise ConfigurationError(f"num_colors must be >= 2, got {num_colors}")
        self.num_colors = num_colors
        self.options = options or AlgorithmOptions()

    @abc.abstractmethod
    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Return a complete coloring of ``graph`` (vertex id -> color)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(K={self.num_colors})"
