"""Plain greedy K-coloring.

Serves three roles: the fallback when exact backtracking exceeds its budget,
the group-assignment step of the SDP greedy mapping, and a reference point for
ablation benchmarks.  Vertices are processed in decreasing conflict-degree
order; each picks the color with the smallest immediate cost (new conflicts
first, then missed stitch matches), breaking ties toward lower color indices
so the result is deterministic.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.core.coloring import ColoringAlgorithm
from repro.core.kernels import MAX_COMPILED_COLORS, active_core
from repro.core.kernels.adjacency import CSRAdjacency, degree_order
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import MergedGraph


def greedy_walk(
    n: int,
    num_colors: int,
    alpha: float,
    order,
    conflict_start,
    conflict_adj,
    stitch_start,
    stitch_adj,
    colors,
) -> None:
    """Color the ranks in ``order`` one after another, on ``colors`` in place.

    The reference of ``CompiledCore.greedy_walk``, with its arguments:
    ``colors`` holds one color per rank of the CSR rows, ``-1`` for
    uncolored, and ``order`` has ``n`` ranks.  A rank takes the first color
    of least ``conflicts + alpha * stitches``, counting its colored conflict
    neighbours of that color and its colored stitch neighbours of another.
    """
    cs, ca, ss, sa = conflict_start, conflict_adj, stitch_start, stitch_adj
    for rank in order[:n]:
        conflict = [colors[other] for other in ca[cs[rank] : cs[rank + 1]]]
        stitch = [c for c in (colors[other] for other in sa[ss[rank] : ss[rank + 1]]) if c >= 0]
        colors[rank] = min(
            range(num_colors),
            key=lambda c: conflict.count(c) + alpha * (len(stitch) - stitch.count(c)),
        )


def greedy_color_merged(
    merged: MergedGraph, num_colors: int, alpha: float
) -> Dict[int, int]:
    """Greedily color a merged (weighted) graph; returns node -> color.

    Mirrors :class:`GreedyColoring` exactly on singleton-group merged
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
        """Color ``graph`` greedily in decreasing conflict-degree order.

        Runs in rank space on the flat form: the walk in the compiled core
        when it is loaded and K is within its bound, :func:`greedy_walk` on
        the same CSR otherwise.  The dict lists the vertices in walk order.
        """
        flat = graph.to_arrays()
        n = flat.num_vertices
        if n == 0:
            return {}
        csr = CSRAdjacency(flat, include_friend=False)
        order = degree_order(csr.conflict_start, n)
        colors = array("i", [-1]) * n
        core = active_core() if self.num_colors <= MAX_COMPILED_COLORS else None
        walk = greedy_walk if core is None else core.greedy_walk
        walk(
            n,
            self.num_colors,
            self.options.alpha,
            array("i", order),
            csr.conflict_start,
            csr.conflict_adj,
            csr.stitch_start,
            csr.stitch_adj,
            colors,
        )
        ids = flat.vertex_ids
        return {ids[rank]: colors[rank] for rank in order}
