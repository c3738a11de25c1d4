"""Linear color assignment over CSR arrays (kernel for ``LinearColoring``).

Replicates Algorithm 2 — peel, peer-selected kernel coloring, refinement,
reinsert — exactly as :class:`repro.core.linear_coloring.LinearColoring`
implements it, but in rank space over the packed flat arrays, with every
stage running in the compiled core:

* the peel and the reinsertion are ``repro_peel`` and ``repro_reinsert``,
  whose references in :mod:`repro.graph.simplify` the reference colorer
  runs on the same CSR;
* dead vertices keep the ``-1`` color sentinel, which reproduces the
  reference's "neighbour not in the kernel graph" behaviour without
  rebuilding subgraphs (a colored vertex is always alive);
* the reinsertion's blocked colors are a per-color bitmask over the
  full-graph CSR.

Every float comparison keeps the reference expression order (including
refinement's ``cost < best_cost - 1e-12``), and candidate orders, peer
scoring (conflicts first, then stitches, first-best wins) and dict insertion
order match the reference exactly.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.core.kernels import MAX_COMPILED_COLORS, active_core
from repro.core.kernels.adjacency import CSRAdjacency


def linear_color(graph, num_colors: int, options) -> Optional[Dict[int, int]]:
    """Color ``graph`` with Algorithm 2; bit-identical to ``LinearColoring``.

    Returns ``None`` — the caller runs the reference — when the compiled
    core is unavailable, ``num_colors`` exceeds its color bound, or the core
    cannot allocate its peel state.
    """
    core = active_core()
    if core is None or num_colors > MAX_COMPILED_COLORS:
        return None
    flat = graph.to_arrays()
    n = flat.num_vertices
    if n == 0:
        return {}
    csr = CSRAdjacency(flat)
    alpha = options.alpha
    peeled = core.peel(num_colors, 2, csr)
    if peeled is None:  # the core could not allocate
        return None
    alive, cdeg, sdeg, fdeg, peel_stack = peeled
    kernel_vertices = [r for r in range(n) if alive[r]]

    colors = array("i", bytes(4 * n))
    for rank in range(n):
        colors[rank] = -1

    chosen_order: List[int] = []
    if kernel_vertices:
        orders = _orders(csr, kernel_vertices, cdeg, fdeg, num_colors, options)
        best_colors = None
        best_conflicts = best_stitches = 0
        for candidate_order in orders:
            candidate = array("i", colors)
            core.linear_walk(
                num_colors,
                alpha,
                options.use_color_friendly,
                array("i", candidate_order),
                csr,
                candidate,
            )
            conflicts, stitches = core.evaluate(
                flat.conflict_edges, flat.stitch_edges, candidate
            )
            if best_colors is None or (
                conflicts < best_conflicts
                or (conflicts == best_conflicts and stitches < best_stitches)
            ):
                best_colors = candidate
                best_conflicts, best_stitches = conflicts, stitches
                chosen_order = candidate_order
        colors = best_colors

        if options.use_post_refinement:
            core.refine_pass(
                num_colors, alpha, array("i", kernel_vertices), csr, colors
            )

    # Pop the peel stack: every removed vertex takes a legal color.
    core.reinsert(num_colors, peel_stack, csr, colors)

    # Reference insertion order: chosen kernel order, then reinsert order.
    ids = flat.vertex_ids
    coloring = {ids[rank]: colors[rank] for rank in chosen_order}
    for rank in reversed(peel_stack):
        coloring[ids[rank]] = colors[rank]
    return coloring


# ------------------------------------------------------------------ ordering
def _orders(csr, kernel_vertices, cdeg, fdeg, num_colors, options):
    """The candidate vertex orders of peer selection (LinearColoring._orders)."""
    sequence = kernel_vertices
    if not options.use_peer_selection:
        return [sequence]
    degree = sorted(sequence, key=lambda r: (-cdeg[r], r))
    round_one: List[int] = []
    round_two: List[int] = []
    round_three: List[int] = []
    for rank in kernel_vertices:
        if cdeg[rank] >= num_colors:
            round_one.append(rank)
        elif fdeg[rank]:
            round_two.append(rank)
        else:
            round_three.append(rank)
    round_one.sort(key=lambda r: (-cdeg[r], r))
    round_two.sort(key=lambda r: (-cdeg[r], r))
    three_round = round_one + round_two + round_three
    return [sequence, degree, three_round]
