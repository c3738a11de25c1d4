"""Greedy post-refinement of a coloring (Algorithm 2, stage 3).

A pass visits the given ranks once, in order, and moves each to the color
that is locally cheapest given its neighbours' current colors; a move must
save more than ``1e-12``, so the pass never increases the objective.  The
linear colorer refines its kernel with one pass, the SDP backtrack mapping
its whole piece with two.  A pass that changes nothing leaves the next one
nothing to change.
"""

from __future__ import annotations

from typing import Sequence


def refine_pass(num_colors: int, alpha: float, order: Sequence[int], csr, colors) -> None:
    """One refinement pass over the ranks in ``order``, on ``colors`` in place.

    The reference of ``CompiledCore.refine_pass``, with its arguments:
    ``colors`` holds one color per rank of ``csr``, ``-1`` for uncolored.
    A rank's cost under color ``c`` is its conflict neighbours colored
    ``c`` plus ``alpha`` times its colored stitch neighbours not colored
    ``c``; the rank keeps its color unless another, tried in ascending
    order, costs less than the best so far by more than ``1e-12``.
    """
    cs, ca = csr.conflict_start, csr.conflict_adj
    ss, sa = csr.stitch_start, csr.stitch_adj
    for rank in order:
        conflict = [colors[other] for other in ca[cs[rank] : cs[rank + 1]]]
        stitch = [c for c in (colors[other] for other in sa[ss[rank] : ss[rank + 1]]) if c >= 0]

        def cost(color: int) -> float:
            return conflict.count(color) + alpha * (len(stitch) - stitch.count(color))

        current = best_color = colors[rank]
        best_cost = cost(current)
        for color in range(num_colors):
            if color != current:
                candidate = cost(color)
                if candidate < best_cost - 1e-12:
                    best_cost, best_color = candidate, color
        colors[rank] = best_color
