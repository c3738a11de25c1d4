"""SDP-based color assignment (Section 3.1).

Both SDP flavours evaluated in the paper share the relaxation stage and
differ only in how the continuous Gram matrix is mapped back to K colors:

* **SDP + Greedy** — the greedy mapping of the TPL decomposer [4]: vertex
  pairs are visited in decreasing ``x_ij`` order and unioned whenever the
  union stays conflict-free; the resulting groups are then colored greedily.
* **SDP + Backtrack** (Algorithm 1) — pairs with ``x_ij >= t_th`` are merged
  into larger vertices, and an exact branch-and-bound search colors the
  merged graph.  On merged graphs that are still large the search runs under
  an expansion budget seeded with the greedy solution, so it degrades
  gracefully instead of blowing up (the paper notes the same runtime risk).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

import numpy as np

from repro.core.backtrack import BacktrackStatistics, run_backtrack_search
from repro.core.coloring import ColoringAlgorithm
from repro.core.greedy_coloring import greedy_color_merged
from repro.core.kernels import active_core
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.refinement import refine_pass
from repro.errors import ConfigurationError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import MergedGraph, contract_ranks
from repro.opt.sdp import SdpOptions, SdpResult, VectorProgramSolver

#: Pairs with a relaxed inner product below this value are never considered
#: "same color" candidates by the greedy mapping.
GREEDY_MAPPING_FLOOR = 0.0


class SdpColoring(ColoringAlgorithm):
    """SDP relaxation followed by greedy or backtrack mapping.

    Both run in *rank space* (a vertex is its position in sorted-id order)
    on the piece's flat form and one
    :class:`~repro.core.kernels.adjacency.CSRAdjacency`: the relaxation
    solves over rank pairs, so its gram matrix is indexed by rank; one merge
    loop unions ranks and tests conflicts on CSR rows; the merged graph is
    contracted from the flat form; the backtrack mapping's refinement is
    :func:`~repro.core.refinement.refine_pass`, in the compiled core when it
    is loaded.
    """

    def __init__(
        self,
        num_colors: int,
        options=None,
        mapping: str = "backtrack",
        sdp_options: Optional[SdpOptions] = None,
    ) -> None:
        super().__init__(num_colors, options)
        if mapping not in ("backtrack", "greedy"):
            raise ConfigurationError(
                f"unknown SDP mapping {mapping!r}; expected 'backtrack' or 'greedy'"
            )
        self.mapping = mapping
        self.name = f"sdp-{mapping}"
        self.sdp_options = sdp_options or SdpOptions()
        #: Statistics of the last backtrack mapping (None for greedy mapping).
        self.last_backtrack_stats: Optional[BacktrackStatistics] = None

    # ------------------------------------------------------------------ API
    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Color ``graph`` via the vector-program relaxation plus mapping."""
        flat = graph.to_arrays()
        n = flat.num_vertices
        ids = flat.vertex_ids.tolist()
        if n <= 1 or flat.num_conflict_edges == 0:
            # No conflicts: give every vertex the same mask (zero stitches).
            return dict.fromkeys(ids, 0)

        solver = VectorProgramSolver(
            self.num_colors, alpha=self.options.alpha, options=self.sdp_options
        )
        conflict, stitch = flat.conflict_edges, flat.stitch_edges
        result = solver.solve(
            n,
            list(zip(conflict[0::2], conflict[1::2])),
            list(zip(stitch[0::2], stitch[1::2])),
        )
        csr = CSRAdjacency(flat, include_friend=False)
        if self.mapping == "greedy":
            label = _merge(result, csr, GREEDY_MAPPING_FLOOR, n)
            merged = contract_ranks(flat, label)
            node_coloring = greedy_color_merged(merged, self.num_colors, self.options.alpha)
            return merged.expand_coloring(node_coloring)

        node_limit = self.options.backtrack_node_limit
        label = _merge(result, csr, self.options.sdp_merge_threshold, node_limit)
        merged = contract_ranks(flat, label)
        coloring = merged.expand_coloring(self._backtrack_mapping(merged))
        # Two refinement passes: one that changes nothing leaves the next
        # nothing to change.
        colors = array("i", map(coloring.__getitem__, ids))
        core = active_core()
        refine = refine_pass if core is None else core.refine_pass
        order = array("i", range(n))
        for _ in range(2):
            refine(self.num_colors, self.options.alpha, order, csr, colors)
        return dict(zip(ids, colors))

    # -------------------------------------------------------------- mapping
    def _backtrack_mapping(self, merged: MergedGraph) -> Dict[int, int]:
        """Algorithm 1's exact search on the merged graph, from the greedy
        coloring; on a merged graph still past the node limit it runs as an
        anytime improvement pass."""
        expansion_limit = self.options.backtrack_expansion_limit
        if merged.num_nodes > self.options.backtrack_node_limit:
            # Dense graph that could not be clustered further without forcing
            # conflicts: run the search as an anytime improvement pass.
            expansion_limit = min(expansion_limit, 150_000)
        stats = BacktrackStatistics()
        node_coloring = run_backtrack_search(
            merged,
            self.num_colors,
            self.options.alpha,
            expansion_limit=expansion_limit,
            initial=greedy_color_merged(merged, self.num_colors, self.options.alpha),
            statistics=stats,
        )
        self.last_backtrack_stats = stats
        return node_coloring


def _merge(result: SdpResult, csr: CSRAdjacency, floor: float, node_limit: int) -> List[int]:
    """Union ranks pair by pair, in decreasing ``x_ij`` order, never across
    a conflict edge; each rank's group label.

    The loop stops at the first pair with ``x_ij < floor`` once there are
    at most ``node_limit`` groups.  The greedy mapping of [4] stops at
    ``x_ij < 0``.  Algorithm 1 merges every pair with ``x_ij >= t_th`` and,
    while the merged graph is still past the backtrack node limit, keeps
    merging down the list until it fits: the relaxation keeps guiding which
    vertices share a mask, and the exact search then optimises the small
    cluster graph.
    """
    n = csr.num_vertices
    first, second = np.triu_indices(n, k=1)
    values = result.gram[first, second]
    # The pairs come in (i, j) order, so a stable sort on -x_ij orders them
    # by (-x_ij, i, j).
    by_value = np.argsort(-values, kind="stable")
    cs, ca = csr.conflict_start.tolist(), csr.conflict_adj.tolist()
    label = list(range(n))
    members = [[rank] for rank in range(n)]
    groups = n
    for value, u, v in zip(
        values[by_value].tolist(), first[by_value].tolist(), second[by_value].tolist()
    ):
        if value < floor and groups <= node_limit:
            break
        small, large = label[u], label[v]
        if small == large:
            continue
        if len(members[small]) > len(members[large]):
            small, large = large, small
        if any(
            label[other] == large
            for rank in members[small]
            for other in ca[cs[rank] : cs[rank + 1]]
        ):
            continue
        for rank in members[small]:
            label[rank] = large
        members[large] += members[small]
        groups -= 1
    return label
