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

The flow runs in *rank space* (a vertex is its position in sorted-id order)
on the graph's flat form and one
:class:`~repro.core.kernels.adjacency.CSRAdjacency`; a peeled vertex keeps
the color ``-1`` until it is reinserted.  Each stage runs in the compiled
core when it is loaded, K is within
:data:`~repro.core.kernels.MAX_COMPILED_COLORS` and the core's peel could
allocate; otherwise every stage runs its Python reference on the same CSR,
with the same arguments, results and traversal.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence

from repro.core.coloring import ColoringAlgorithm
from repro.core.evaluation import count_rank_pairs
from repro.core.kernels import MAX_COMPILED_COLORS, active_core
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.refinement import refine_pass
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import peel_low_degree_vertices, reinsert_peeled_vertices


class LinearColoring(ColoringAlgorithm):
    """Linear-time color assignment with color-friendly rules and peer selection."""

    name = "linear"

    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Color ``graph`` with Algorithm 2.

        The dict lists the kernel in the chosen candidate's order, then the
        peeled vertices in reinsertion order.
        """
        flat = graph.to_arrays()
        n = flat.num_vertices
        if n == 0:
            return {}
        num_colors, options = self.num_colors, self.options
        csr = CSRAdjacency(flat)

        # Stage 1: iterative removal of non-critical vertices.  The core that
        # peeled runs every later stage too; without one, the references do.
        core = active_core() if num_colors <= MAX_COMPILED_COLORS else None
        peeled = core.peel(num_colors, 2, csr) if core is not None else None
        if peeled is None:  # no core, K past its bound, or it could not allocate
            core = None
            peeled = peel_low_degree_vertices(num_colors, 2, csr)
        alive, cdeg, _, fdeg, stack = peeled
        kernel = [rank for rank in range(n) if alive[rank]]
        if core is None:
            walk, score, refine, reinsert = (
                linear_walk, count_rank_pairs, refine_pass, reinsert_peeled_vertices
            )
        else:
            walk, score, refine, reinsert = (
                core.linear_walk, core.evaluate, core.refine_pass, core.reinsert
            )

        # Stage 2: peer selection.  Each candidate starts uncolored; the
        # first with the fewest conflicts, then the fewest stitches, wins.
        alpha = options.alpha
        colors = array("i", [-1]) * n
        chosen: Sequence[int] = ()
        best = None
        for order in self._orders(kernel, cdeg, fdeg):
            candidate = array("i", [-1]) * n
            walk(num_colors, alpha, options.use_color_friendly, array("i", order), csr, candidate)
            counts = score(flat.conflict_edges, flat.stitch_edges, candidate)
            if best is None or counts < best:
                best, colors, chosen = counts, candidate, order

        # Stage 3: one refinement pass over the kernel, then pop the stack.
        if options.use_post_refinement:
            refine(num_colors, alpha, array("i", kernel), csr, colors)
        reinsert(num_colors, stack, csr, colors)

        ids = flat.vertex_ids
        coloring = {ids[rank]: colors[rank] for rank in chosen}
        for rank in reversed(stack):
            coloring[ids[rank]] = colors[rank]
        return coloring

    def _orders(self, kernel: List[int], cdeg, fdeg) -> List[List[int]]:
        """The kernel orders peer selection colors in: *sequence* (rank
        order), *degree* (decreasing conflict degree) and *3-round*; only
        *sequence* without peer selection, and none for an empty kernel."""
        if not kernel:
            return []
        if not self.options.use_peer_selection:
            return [kernel]
        degree = sorted(kernel, key=lambda rank: (-cdeg[rank], rank))
        dense = [rank for rank in degree if cdeg[rank] >= self.num_colors]
        friendly = [rank for rank in degree if cdeg[rank] < self.num_colors and fdeg[rank]]
        rest = [rank for rank in kernel if cdeg[rank] < self.num_colors and not fdeg[rank]]
        return [kernel, degree, dense + friendly + rest]


def linear_walk(num_colors: int, alpha: float, use_friendly: bool, order, csr, colors) -> None:
    """Color the ranks in ``order`` one after another, on ``colors`` in place.

    The reference of ``CompiledCore.linear_walk``, with its arguments:
    ``colors`` holds one color per rank of ``csr``, ``-1`` for uncolored.
    A rank takes the first color with the fewest colored conflict
    neighbours, then the fewest colored stitch neighbours of another color
    (times ``alpha``), then, with ``use_friendly``, the most color-friendly
    neighbours of that color.
    """
    cs, ca = csr.conflict_start, csr.conflict_adj
    ss, sa = csr.stitch_start, csr.stitch_adj
    fs, fa = csr.friend_start, csr.friend_adj
    for rank in order:
        conflict = [colors[other] for other in ca[cs[rank] : cs[rank + 1]]]
        stitch = [c for c in (colors[other] for other in sa[ss[rank] : ss[rank + 1]]) if c >= 0]
        friend = [colors[other] for other in fa[fs[rank] : fs[rank + 1]]] if use_friendly else []
        colors[rank] = min(
            range(num_colors),
            key=lambda c: (
                conflict.count(c),
                alpha * (len(stitch) - stitch.count(c)),
                -friend.count(c),
            ),
        )
