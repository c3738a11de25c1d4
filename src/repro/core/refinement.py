"""Greedy post-refinement of a complete coloring (Algorithm 2, stage 3).

A single pass visits every vertex once and re-assigns it to the locally
cheapest color given its already-colored neighbours; the pass never increases
the objective, so it is safe to append to any algorithm's output.  Multiple
passes may be requested, stopping early once a pass makes no change.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.graph.decomposition_graph import DecompositionGraph


def local_color_cost(
    graph: DecompositionGraph,
    vertex: int,
    color: int,
    coloring: Dict[int, int],
    alpha: float,
) -> float:
    """Return the cost contributed by ``vertex`` if it takes ``color``."""
    conflicts = 0
    for neighbour in graph.conflict_neighbors(vertex):
        if coloring.get(neighbour) == color:
            conflicts += 1
    stitches = 0
    for neighbour in graph.stitch_neighbors(vertex):
        other = coloring.get(neighbour)
        if other is not None and other != color:
            stitches += 1
    return conflicts + alpha * stitches


def refine_coloring(
    graph: DecompositionGraph,
    coloring: Dict[int, int],
    num_colors: int,
    alpha: float,
    max_passes: int = 1,
    order: Optional[Sequence[int]] = None,
) -> Tuple[Dict[int, int], int]:
    """Greedily improve ``coloring`` in place.

    Returns the (same) coloring dictionary and the number of vertices whose
    color changed across all passes.
    """
    if order is None:
        order = graph.vertices()
    changed_total = 0
    for _ in range(max_passes):
        changed_this_pass = 0
        for vertex in order:
            if vertex not in coloring:
                continue
            current = coloring[vertex]
            current_cost = local_color_cost(graph, vertex, current, coloring, alpha)
            best_color = current
            best_cost = current_cost
            for color in range(num_colors):
                if color == current:
                    continue
                cost = local_color_cost(graph, vertex, color, coloring, alpha)
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    best_color = color
            if best_color != current:
                coloring[vertex] = best_color
                changed_this_pass += 1
        changed_total += changed_this_pass
        if changed_this_pass == 0:
            break
    return coloring, changed_total
