"""Solution evaluation: conflict/stitch counting and validity checks.

Every color-assignment algorithm is scored with the same two numbers the
paper's tables report: the **conflict number** (conflict edges whose endpoints
share a mask) and the **stitch number** (stitch edges whose endpoints differ).
Both are counted on the graph's flat form, so scoring a view never builds
its object graph.  A vertex the coloring leaves out counts for nothing, and
keys that are not vertices are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DecompositionError
from repro.graph.decomposition_graph import DecompositionGraph


@dataclass(frozen=True)
class CostBreakdown:
    """Conflict/stitch counts and the weighted objective of a coloring."""

    conflicts: int
    stitches: int
    alpha: float

    @property
    def cost(self) -> float:
        """Weighted objective ``conflicts + alpha * stitches``."""
        return self.conflicts + self.alpha * self.stitches

    def better_than(self, other: "CostBreakdown") -> bool:
        """Lexicographic comparison used for peer selection: conflicts first."""
        if self.conflicts != other.conflicts:
            return self.conflicts < other.conflicts
        return self.stitches < other.stitches


def check_complete(graph: DecompositionGraph, coloring: Dict[int, int], num_colors: int) -> None:
    """Raise :class:`DecompositionError` unless every vertex has a legal color."""
    missing = [v for v in graph.vertices() if v not in coloring]
    if missing:
        raise DecompositionError(
            f"coloring misses {len(missing)} vertices (first: {missing[:5]})"
        )
    bad = {v: c for v, c in coloring.items() if not 0 <= c < num_colors}
    if bad:
        raise DecompositionError(
            f"coloring uses out-of-range colors for {len(bad)} vertices"
        )


def _color_codes(flat, coloring: Dict[int, int]) -> np.ndarray:
    """Each rank's color in ``coloring``, coded by the distinct colors the
    ranks take, so that two codes are equal exactly when the colors are;
    ``-1`` for an uncolored vertex."""
    colors = list(map(coloring.get, flat.vertex_ids))
    index = {color: code for code, color in enumerate(set(colors))}
    index[None] = -1
    return np.fromiter(map(index.__getitem__, colors), dtype=np.int64, count=len(colors))


def _ends(edges, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The codes at the two ends of every rank pair in ``edges``."""
    pairs = np.frombuffer(edges, dtype="I").reshape(-1, 2)
    return codes[pairs[:, 0]], codes[pairs[:, 1]]


def _conflicts(edges, codes: np.ndarray) -> int:
    u, v = _ends(edges, codes)
    return int(np.count_nonzero((u >= 0) & (u == v)))


def _stitches(edges, codes: np.ndarray) -> int:
    u, v = _ends(edges, codes)
    return int(np.count_nonzero((u >= 0) & (v >= 0) & (u != v)))


def count_rank_pairs(conflict_edges, stitch_edges, colors) -> Tuple[int, int]:
    """``(conflicts, stitches)`` of the int32 rank ``colors`` (``-1`` =
    uncolored) over two flat rank-pair arrays: what
    ``CompiledCore.evaluate`` counts, with the same arguments."""
    codes = np.frombuffer(colors, dtype=np.intc)
    return _conflicts(conflict_edges, codes), _stitches(stitch_edges, codes)


def count_conflicts(graph: DecompositionGraph, coloring: Dict[int, int]) -> int:
    """Return the number of conflict edges with equal endpoint colors."""
    flat = graph.to_arrays()
    return _conflicts(flat.conflict_edges, _color_codes(flat, coloring))


def count_stitches(graph: DecompositionGraph, coloring: Dict[int, int]) -> int:
    """Return the number of stitch edges with different endpoint colors."""
    flat = graph.to_arrays()
    return _stitches(flat.stitch_edges, _color_codes(flat, coloring))


def evaluate(
    graph: DecompositionGraph, coloring: Dict[int, int], alpha: float = 0.1
) -> CostBreakdown:
    """Return the cost breakdown of ``coloring`` on ``graph``."""
    flat = graph.to_arrays()
    codes = _color_codes(flat, coloring)
    return CostBreakdown(
        conflicts=_conflicts(flat.conflict_edges, codes),
        stitches=_stitches(flat.stitch_edges, codes),
        alpha=alpha,
    )


@dataclass
class DecompositionSolution:
    """End-to-end result of decomposing one layout layer.

    Attributes
    ----------
    coloring:
        Mask index per decomposition-graph vertex.
    num_colors:
        Number of masks K.
    conflicts / stitches:
        Quality metrics as reported in the paper's tables.
    algorithm:
        Name of the color-assignment algorithm used.
    color_assignment_seconds:
        Time spent in color assignment only (the CPU column of the tables).
    total_seconds:
        Complete flow runtime including graph construction and division.
    graph:
        The decomposition graph the solution refers to.
    """

    coloring: Dict[int, int]
    num_colors: int
    conflicts: int
    stitches: int
    algorithm: str
    color_assignment_seconds: float = 0.0
    total_seconds: float = 0.0
    graph: Optional[DecompositionGraph] = None
    alpha: float = 0.1

    @property
    def cost(self) -> float:
        """Weighted objective ``conflicts + alpha * stitches``."""
        return self.conflicts + self.alpha * self.stitches

    def mask_of(self, vertex: int) -> int:
        """Return the mask assigned to ``vertex``."""
        try:
            return self.coloring[vertex]
        except KeyError as exc:
            raise DecompositionError(f"vertex {vertex} has no mask") from exc

    def masks(self) -> Dict[int, List[int]]:
        """Return vertices grouped by mask index."""
        grouped: Dict[int, List[int]] = {c: [] for c in range(self.num_colors)}
        for vertex, color in sorted(self.coloring.items()):
            grouped[color].append(vertex)
        return grouped

    def summary(self) -> str:
        """One-line human-readable summary (used by the CLI and examples)."""
        return (
            f"{self.algorithm}: K={self.num_colors} "
            f"conflicts={self.conflicts} stitches={self.stitches} "
            f"color-assign={self.color_assignment_seconds:.3f}s "
            f"total={self.total_seconds:.3f}s"
        )
