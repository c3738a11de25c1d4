"""Linear color assignment (Algorithm 2, Section 3.2).

The O(n) heuristic that gives the paper its ~200x speedup over SDP+Backtrack.
Three stages:

1. **Iterative vertex removal** — vertices with conflict degree < K and stitch
   degree < 2 are non-critical: they are pushed on a stack and removed,
   because a legal color is guaranteed to exist for them later.
2. **Kernel coloring with peer selection** — the remaining (critical) vertices
   are greedily colored under three different orders (*sequence*, *degree*,
   *3-round*); each greedy step consults the colors of the vertex's
   **color-friendly** neighbours (Definition 2), which for dense layouts tend
   to share a mask; the best of the three colorings is kept.
3. **Post-refinement** — one greedy improvement pass, then the stack is popped
   and each removed vertex takes a legal (conflict-free) color, preferring a
   stitch-neighbour's color.

The 3-round order is not fully specified in the paper; this implementation
uses the interpretation documented in DESIGN.md: round one colors the densest
vertices (conflict degree >= K) in decreasing-degree order, round two the
vertices that have color-friendly neighbours, round three everything else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.coloring import ColoringAlgorithm
from repro.core.evaluation import evaluate
from repro.core.refinement import refine_coloring
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import peel_low_degree_vertices, reinsert_peeled_vertices


class LinearColoring(ColoringAlgorithm):
    """Linear-time color assignment with color-friendly rules and peer selection."""

    name = "linear"

    # ------------------------------------------------------------------ API
    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Color ``graph`` with Algorithm 2."""
        if graph.num_vertices == 0:
            return {}

        from repro.core.kernels import select_kernel

        kernel_module = select_kernel("linear")
        if kernel_module is not None:
            coloring = kernel_module.linear_color(graph, self.num_colors, self.options)
            if coloring is not None:
                return coloring

        # Stage 1: iterative removal of non-critical vertices.
        kernel, stack = peel_low_degree_vertices(graph, self.num_colors)

        # Stage 2: peer selection over three vertex orders on the kernel.
        coloring: Dict[int, int]
        if kernel.num_vertices == 0:
            coloring = {}
        else:
            candidates = [self._color_in_order(kernel, order) for order in self._orders(kernel)]
            scored = [
                (evaluate(kernel, candidate, self.options.alpha), candidate)
                for candidate in candidates
            ]
            best_score, coloring = scored[0]
            for score, candidate in scored[1:]:
                if score.better_than(best_score):
                    best_score, coloring = score, candidate

            # Stage 3: greedy post-refinement on the kernel.
            if self.options.use_post_refinement:
                refine_coloring(kernel, coloring, self.num_colors, self.options.alpha)

        # Pop the stack: every removed vertex has a guaranteed legal color.
        reinsert_peeled_vertices(graph, coloring, stack, self.num_colors)
        return coloring

    # ------------------------------------------------------------ orderings
    def _orders(self, kernel: DecompositionGraph) -> List[List[int]]:
        """Return the vertex orders processed by peer selection."""
        sequence = kernel.vertices()
        if not self.options.use_peer_selection:
            return [sequence]
        degree = sorted(
            sequence, key=lambda v: (-kernel.conflict_degree(v), v)
        )
        return [sequence, degree, self._three_round_order(kernel)]

    def _three_round_order(self, kernel: DecompositionGraph) -> List[int]:
        """3ROUND-COLORING order: dense vertices, friendly vertices, the rest."""
        round_one: List[int] = []
        round_two: List[int] = []
        round_three: List[int] = []
        for vertex in kernel.vertices():
            if kernel.conflict_degree(vertex) >= self.num_colors:
                round_one.append(vertex)
            elif kernel.friend_neighbors(vertex):
                round_two.append(vertex)
            else:
                round_three.append(vertex)
        round_one.sort(key=lambda v: (-kernel.conflict_degree(v), v))
        round_two.sort(key=lambda v: (-kernel.conflict_degree(v), v))
        round_three.sort()
        return round_one + round_two + round_three

    # ------------------------------------------------------------- coloring
    def _color_in_order(
        self, kernel: DecompositionGraph, order: Sequence[int]
    ) -> Dict[int, int]:
        """Greedily color the kernel following ``order``."""
        coloring: Dict[int, int] = {}
        for vertex in order:
            coloring[vertex] = self._pick_color(kernel, vertex, coloring)
        return coloring

    def _pick_color(
        self, kernel: DecompositionGraph, vertex: int, coloring: Dict[int, int]
    ) -> int:
        """Pick the cheapest color for ``vertex``, guided by color-friendly rules."""
        num_colors = self.num_colors
        conflict_hits = [0] * num_colors
        for neighbour in kernel.conflict_neighbors(vertex):
            color = coloring.get(neighbour)
            if color is not None:
                conflict_hits[color] += 1

        stitch_hits = [0] * num_colors
        colored_stitches = 0
        for neighbour in kernel.stitch_neighbors(vertex):
            color = coloring.get(neighbour)
            if color is not None:
                stitch_hits[color] += 1
                colored_stitches += 1

        friend_hits = [0] * num_colors
        if self.options.use_color_friendly:
            for neighbour in kernel.friend_neighbors(vertex):
                color = coloring.get(neighbour)
                if color is not None:
                    friend_hits[color] += 1

        def key(color: int) -> Tuple[int, float, int, int]:
            stitch_mismatch = colored_stitches - stitch_hits[color]
            return (
                conflict_hits[color],
                self.options.alpha * stitch_mismatch,
                -friend_hits[color],
                color,
            )

        return min(range(num_colors), key=key)
