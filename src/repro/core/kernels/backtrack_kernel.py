"""Packed-array branch-and-bound search (kernel for ``search_merged_graph``).

The reference search in :mod:`repro.core.backtrack` walks per-node Python
lists of ``(other, conflict_w, stitch_w)`` tuples.  This kernel packs them
into four flat arrays in **position space** (position = index in the
decreasing-weighted-degree order, so the DFS works on contiguous ints) and
runs the identical loop — same dirty-suffix undo, same symmetry breaking,
same budget contract, same float accumulation order — in the compiled C
core.

Bit-exactness notes: all float-sensitive preprocessing (weighted degrees,
the node order, the incumbent cost) happens in Python with the reference
expressions; the packed per-position edge lists preserve the reference
append order (conflict entries in dict order, then stitch entries), so the
``added`` accumulator sums the same doubles in the same order; and the C
build disables FP contraction, so compiled arithmetic is IEEE-identical to
CPython's.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from repro.core.kernels import active_core


def backtrack_search(
    merged,
    num_colors: int,
    alpha: float,
    expansion_limit: int = 2_000_000,
    initial: Optional[Dict[int, int]] = None,
    statistics=None,
) -> Optional[Dict[int, int]]:
    """Branch-and-bound search; bit-identical to ``search_merged_graph``.

    Returns ``None`` — the caller runs the reference, and ``statistics`` is
    left untouched — when the compiled core is unavailable or cannot
    allocate its search state.
    """
    from repro.core.greedy_coloring import greedy_color_merged

    core = active_core()
    if core is None:
        return None
    n = merged.num_nodes
    if n == 0:
        if statistics is not None:
            statistics.expansions = 0
            statistics.completed = True
            statistics.best_cost = 0.0
        return {}

    weight_degree = [0.0] * n
    for (a, b), w in merged.conflict_weight.items():
        weight_degree[a] += w
        weight_degree[b] += w
    for (a, b), w in merged.stitch_weight.items():
        weight_degree[a] += alpha * w
        weight_degree[b] += alpha * w
    order = sorted(range(n), key=lambda node: (-weight_degree[node], node))
    position = {node: index for index, node in enumerate(order)}

    # Per-node earlier-edge lists in the reference append order, then packed
    # into position-space CSR: edges of the node at position p live in
    # edge_pos/edge_cw/edge_sw[edge_start[p]:edge_start[p + 1]].
    earlier = [[] for _ in range(n)]
    for (a, b), w in merged.conflict_weight.items():
        if position[a] < position[b]:
            earlier[b].append((position[a], float(w), 0.0))
        else:
            earlier[a].append((position[b], float(w), 0.0))
    for (a, b), w in merged.stitch_weight.items():
        if position[a] < position[b]:
            earlier[b].append((position[a], 0.0, float(w)))
        else:
            earlier[a].append((position[b], 0.0, float(w)))

    edge_start = array("i", bytes(4 * (n + 1)))
    total = 0
    for p, node in enumerate(order):
        edge_start[p] = total
        total += len(earlier[node])
    edge_start[n] = total
    edge_pos = array("i", bytes(4 * total))
    edge_cw = array("d", bytes(8 * total))
    edge_sw = array("d", bytes(8 * total))
    cursor = 0
    for node in order:
        for other_pos, cw, sw in earlier[node]:
            edge_pos[cursor] = other_pos
            edge_cw[cursor] = cw
            edge_sw[cursor] = sw
            cursor += 1

    incumbent = dict(initial) if initial else greedy_color_merged(merged, num_colors, alpha)
    _, _, best_cost = merged.coloring_cost(incumbent, alpha)
    best_pos = array("i", bytes(4 * n))
    for p, node in enumerate(order):
        best_pos[p] = incumbent.get(node, 0)

    result = core.backtrack_search(
        n,
        num_colors,
        alpha,
        expansion_limit,
        edge_start,
        edge_pos,
        edge_cw,
        edge_sw,
        best_cost,
        best_pos,
    )
    if result is None:  # the core could not allocate
        return None
    expansions, completed, best_cost = result

    if statistics is not None:
        statistics.expansions = expansions
        statistics.completed = completed
        statistics.best_cost = best_cost
    best_by_node = [0] * n
    for p, node in enumerate(order):
        best_by_node[node] = best_pos[p]
    return {node: best_by_node[node] for node in range(n)}

