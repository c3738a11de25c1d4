"""Plain greedy K-coloring.

Serves three roles: the fallback when exact backtracking exceeds its budget,
the group-assignment step of the SDP greedy mapping, and a reference point for
ablation benchmarks.  Vertices are processed in decreasing conflict-degree
order; each picks the color with the smallest immediate cost (new conflicts
first, then missed stitch matches), breaking ties toward lower color indices
so the result is deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.coloring import ColoringAlgorithm
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import MergedGraph


def pick_greedy_color(
    graph: DecompositionGraph,
    vertex: int,
    coloring: Dict[int, int],
    num_colors: int,
    alpha: float,
) -> int:
    """Return the locally cheapest color for ``vertex`` given ``coloring``."""
    conflict_hits = [0] * num_colors
    stitch_hits = [0] * num_colors
    for neighbour in graph.conflict_neighbors(vertex):
        color = coloring.get(neighbour)
        if color is not None:
            conflict_hits[color] += 1
    colored_stitches = 0
    for neighbour in graph.stitch_neighbors(vertex):
        color = coloring.get(neighbour)
        if color is not None:
            stitch_hits[color] += 1
            colored_stitches += 1

    def cost(color: int) -> Tuple[float, int]:
        stitches = colored_stitches - stitch_hits[color]
        return (conflict_hits[color] + alpha * stitches, color)

    return min(range(num_colors), key=cost)


def greedy_color_graph(
    graph: DecompositionGraph,
    num_colors: int,
    alpha: float,
    order: Optional[Sequence[int]] = None,
) -> Dict[int, int]:
    """Greedily color a graph; ``order`` defaults to decreasing conflict degree."""
    if order is None:
        order = sorted(
            graph.vertices(), key=lambda v: (-graph.conflict_degree(v), v)
        )
    coloring: Dict[int, int] = {}
    for vertex in order:
        coloring[vertex] = pick_greedy_color(graph, vertex, coloring, num_colors, alpha)
    return coloring


def greedy_color_merged(
    merged: MergedGraph, num_colors: int, alpha: float
) -> Dict[int, int]:
    """Greedily color a merged (weighted) graph; returns node -> color.

    Mirrors :func:`greedy_color_graph` exactly on singleton-group merged
    graphs: nodes are processed in decreasing conflict-degree order (number
    of distinct conflict-weighted edges, the merged analogue of
    ``conflict_degree``), cost accumulators stay integers until the single
    ``hits + alpha * misses`` float comparison, and ties break toward the
    lower color then the lower node id.  An earlier version ordered by group
    size and accumulated float costs, which diverged from the unweighted
    reference on singleton groups.
    """
    n = merged.num_nodes
    conflict = merged.conflict_weight
    stitch = merged.stitch_weight
    adjacency: Dict[int, List[Tuple[int, int, int]]] = {node: [] for node in range(n)}
    conflict_degree = [0] * n
    keys = set(conflict) | set(stitch)
    for a, b in sorted(keys):
        cw = conflict.get((a, b), 0)
        sw = stitch.get((a, b), 0)
        adjacency[a].append((b, cw, sw))
        adjacency[b].append((a, cw, sw))
        if cw:
            conflict_degree[a] += 1
            conflict_degree[b] += 1
    order = sorted(range(n), key=lambda node: (-conflict_degree[node], node))

    coloring: Dict[int, int] = {}
    for node in order:
        conflict_hits = [0] * num_colors
        stitch_total = 0
        stitch_match = [0] * num_colors
        for other, cw, sw in adjacency[node]:
            color = coloring.get(other)
            if color is None:
                continue
            conflict_hits[color] += cw
            stitch_total += sw
            stitch_match[color] += sw
        coloring[node] = min(
            range(num_colors),
            key=lambda c: (conflict_hits[c] + alpha * (stitch_total - stitch_match[c]), c),
        )
    return coloring


class GreedyColoring(ColoringAlgorithm):
    """Stand-alone greedy colorer (reference baseline)."""

    name = "greedy"

    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Color ``graph`` greedily in decreasing conflict-degree order."""
        from repro.core.kernels import select_kernel

        kernel = select_kernel("greedy")
        if kernel is not None:
            coloring = kernel.greedy_color(graph, self.num_colors, self.options.alpha)
            if coloring is not None:
                return coloring
        return greedy_color_graph(graph, self.num_colors, self.options.alpha)
