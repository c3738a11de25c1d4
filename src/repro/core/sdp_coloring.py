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

from typing import Dict, List, Optional, Tuple

from repro.core.backtrack import BacktrackStatistics, run_backtrack_search
from repro.core.coloring import ColoringAlgorithm
from repro.core.greedy_coloring import greedy_color_merged
from repro.core.refinement import refine_coloring
from repro.errors import ConfigurationError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import build_merged_graph
from repro.graph.unionfind import UnionFind
from repro.opt.sdp import SdpOptions, SdpResult, VectorProgramSolver

#: Pairs with a relaxed inner product below this value are never considered
#: "same color" candidates by the greedy mapping.
GREEDY_MAPPING_FLOOR = 0.0


class SdpColoring(ColoringAlgorithm):
    """SDP relaxation followed by greedy or backtrack mapping."""

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
        n = graph.num_vertices
        if n == 0:
            return {}
        if n == 1:
            return {graph.vertices()[0]: 0}
        if graph.num_conflict_edges == 0:
            # No conflicts: give every vertex the same mask (zero stitches).
            return {vertex: 0 for vertex in graph.vertices()}

        solver = VectorProgramSolver(
            self.num_colors, alpha=self.options.alpha, options=self.sdp_options
        )
        result, index = solver.solve_graph(
            graph.vertices(), graph.conflict_edges(), graph.stitch_edges()
        )
        if self.mapping == "greedy":
            coloring = self._greedy_mapping(graph, result, index)
        else:
            coloring = self._backtrack_mapping(graph, result, index)
            refine_coloring(
                graph, coloring, self.num_colors, self.options.alpha, max_passes=2
            )
        return coloring

    # -------------------------------------------------------------- mapping
    def _sorted_pairs(
        self,
        graph: DecompositionGraph,
        result: SdpResult,
        index: Dict[int, int],
        floor: float,
    ) -> List[Tuple[float, int, int]]:
        """Return vertex pairs sorted by decreasing relaxed inner product."""
        vertices = graph.vertices()
        pairs: List[Tuple[float, int, int]] = []
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                value = result.inner_product(index[u], index[v])
                if value >= floor:
                    pairs.append((value, u, v))
        pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
        return pairs

    def _greedy_mapping(
        self,
        graph: DecompositionGraph,
        result: SdpResult,
        index: Dict[int, int],
    ) -> Dict[int, int]:
        """Greedy mapping of [4]: union compatible pairs in x_ij order."""
        pairs = self._sorted_pairs(graph, result, index, GREEDY_MAPPING_FLOOR)
        uf = UnionFind(graph.vertices())
        members: Dict[int, set] = {v: {v} for v in graph.vertices()}
        for _, u, v in pairs:
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                continue
            if self._groups_conflict(graph, members[ru], members[rv]):
                continue
            root = uf.union(ru, rv)
            merged_members = members[ru] | members[rv]
            members[root] = merged_members
        merge_pairs = [
            (u, uf.find(u)) for u in graph.vertices() if uf.find(u) != u
        ]
        merged = build_merged_graph(graph, merge_pairs)
        node_coloring = greedy_color_merged(merged, self.num_colors, self.options.alpha)
        return merged.expand_coloring(node_coloring)

    def _backtrack_mapping(
        self,
        graph: DecompositionGraph,
        result: SdpResult,
        index: Dict[int, int],
    ) -> Dict[int, int]:
        """Algorithm 1: threshold merge then exact search on the merged graph.

        All pairs with ``x_ij >= t_th`` are merged.  When the merged graph is
        still larger than the backtrack node limit, merging continues down the
        sorted ``x_ij`` list (never across a conflict) until it fits — the SDP
        solution keeps guiding which vertices share a mask, and the exact
        search then optimises the small cluster graph.
        """
        threshold = self.options.sdp_merge_threshold
        node_limit = self.options.backtrack_node_limit
        pairs = self._sorted_pairs(graph, result, index, floor=-1.0)

        uf = UnionFind(graph.vertices())
        members: Dict[int, set] = {v: {v} for v in graph.vertices()}
        num_groups = graph.num_vertices
        for value, u, v in pairs:
            if value < threshold and num_groups <= node_limit:
                break
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                continue
            if self._groups_conflict(graph, members[ru], members[rv]):
                continue
            root = uf.union(ru, rv)
            members[root] = members[ru] | members[rv]
            num_groups -= 1

        merge_pairs = [(u, uf.find(u)) for u in graph.vertices() if uf.find(u) != u]
        merged = build_merged_graph(graph, merge_pairs)

        expansion_limit = self.options.backtrack_expansion_limit
        if merged.num_nodes > node_limit:
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
        return merged.expand_coloring(node_coloring)

    @staticmethod
    def _groups_conflict(graph: DecompositionGraph, first: set, second: set) -> bool:
        """Return True if any conflict edge crosses the two vertex groups."""
        small, large = (first, second) if len(first) <= len(second) else (second, first)
        for vertex in small:
            if graph.conflict_neighbors(vertex) & large:
                return True
        return False
