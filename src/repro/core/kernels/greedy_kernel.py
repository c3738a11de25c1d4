"""Greedy coloring walk over CSR arrays (kernel for ``GreedyColoring``).

Replicates :func:`repro.core.greedy_coloring.greedy_color_graph` bit for bit
in rank space: vertices in decreasing conflict-degree order (ties toward the
lower id, which is the lower rank under the order-preserving relabeling),
per-color integer hit counters, and the reference cost expression
``conflict_hits + alpha * (colored_stitches - stitch_hits)`` compared with a
strict ``<`` scan over ascending colors — the exact first-minimum tie-break
of ``min(range(K), key=...)``.  The compiled core runs the walk in C with
the float expression order preserved operation for operation.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from repro.core.kernels import MAX_COMPILED_COLORS, active_core
from repro.core.kernels.adjacency import CSRAdjacency, degree_order


def greedy_color(graph, num_colors: int, alpha: float) -> Optional[Dict[int, int]]:
    """Color ``graph`` greedily; bit-identical to ``greedy_color_graph``.

    Returns ``None`` — the caller runs the reference — when the compiled
    core is unavailable or ``num_colors`` exceeds its color bound.
    """
    core = active_core()
    if core is None or num_colors > MAX_COMPILED_COLORS:
        return None
    flat = graph.to_arrays()
    n = flat.num_vertices
    if n == 0:
        return {}
    csr = CSRAdjacency(flat, include_friend=False)
    order = degree_order(csr.conflict_start, n)
    colors = array("i", bytes(4 * n))
    for rank in range(n):
        colors[rank] = -1
    core.greedy_walk(
        n,
        num_colors,
        alpha,
        array("i", order),
        csr.conflict_start,
        csr.conflict_adj,
        csr.stitch_start,
        csr.stitch_adj,
        colors,
    )
    # Emit in processing order — the reference builds its dict the same way.
    ids = flat.vertex_ids
    return {ids[rank]: colors[rank] for rank in order}
