"""The colorers against their object-graph implementations, kept here as oracles.

Each colorer runs one rank-space flow on the flat form, its stages in the
compiled core or in their Python references.  Once both kernel modes share
that flow, comparing mode ``off`` with mode ``compiled`` no longer checks
the flow itself: a bug in that flow moves both modes at once.  So this module
keeps the dict-and-set implementations the flows replaced, as they were
before the move — ``LinearColoring``'s object-graph walk,
``greedy_color_graph``, ``refine_coloring`` and ``SdpColoring``'s two
mappings with the id-space relaxation and ``build_merged_graph`` they ran
on — and holds every colorer equal to them: in every kernel mode, on random
graphs with color-friendly edges and arbitrary vertex ids, K from 2 to 8 and
past the compiled bound (65), and every peer-selection, color-friendly and
post-refinement toggle.  ``LinearColoring`` and ``GreedyColoring`` must
also keep the oracles' dict insertion order; ``SdpColoring`` returns its
dict in rank order, which the division reads by vertex id.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backtrack import BacktrackStatistics, run_backtrack_search
from repro.core.evaluation import evaluate
from repro.core.greedy_coloring import GreedyColoring, greedy_color_merged
from repro.core.kernels import set_kernel_mode
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.kernels.ccore import compiled_core
from repro.core.linear_coloring import LinearColoring
from repro.core.options import AlgorithmOptions
from repro.core.sdp_coloring import GREEDY_MAPPING_FLOOR, SdpColoring
from repro.errors import GraphError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import (
    MergedGraph,
    peel_low_degree_vertices,
    reinsert_peeled_vertices,
)
from repro.graph.unionfind import UnionFind
from repro.opt.sdp import SdpResult, VectorProgramSolver

MODES = [
    "off",
    "auto",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            compiled_core() is None, reason="compiled solve core unavailable"
        ),
    ),
]


# ------------------------------------------------------------- refinement
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


# ----------------------------------------------------------------- greedy
def pick_greedy_color(
    graph: DecompositionGraph,
    vertex: int,
    coloring: Dict[int, int],
    num_colors: int,
    alpha: float,
) -> int:
    """Return the locally cheapest color for ``vertex`` given ``coloring``."""
    conflict_hits = [0] * num_colors
    stitch_hits = [0] * num_colors
    for neighbour in graph.conflict_neighbors(vertex):
        color = coloring.get(neighbour)
        if color is not None:
            conflict_hits[color] += 1
    colored_stitches = 0
    for neighbour in graph.stitch_neighbors(vertex):
        color = coloring.get(neighbour)
        if color is not None:
            stitch_hits[color] += 1
            colored_stitches += 1

    def cost(color: int) -> Tuple[float, int]:
        stitches = colored_stitches - stitch_hits[color]
        return (conflict_hits[color] + alpha * stitches, color)

    return min(range(num_colors), key=cost)


def greedy_color_graph(
    graph: DecompositionGraph,
    num_colors: int,
    alpha: float,
    order: Optional[Sequence[int]] = None,
) -> Dict[int, int]:
    """Greedily color a graph; ``order`` defaults to decreasing conflict degree."""
    if order is None:
        order = sorted(
            graph.vertices(), key=lambda v: (-graph.conflict_degree(v), v)
        )
    coloring: Dict[int, int] = {}
    for vertex in order:
        coloring[vertex] = pick_greedy_color(graph, vertex, coloring, num_colors, alpha)
    return coloring


# ----------------------------------------------------------------- linear
class OracleLinearColoring:
    """``LinearColoring`` on the object graph (its reference path)."""

    def __init__(self, num_colors: int, options: AlgorithmOptions) -> None:
        self.num_colors = num_colors
        self.options = options

    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Color ``graph`` with Algorithm 2."""
        if graph.num_vertices == 0:
            return {}

        # Stage 1: iterative removal of non-critical vertices, on ranks.
        flat = graph.to_arrays()
        ids = flat.vertex_ids
        csr = CSRAdjacency(flat)
        alive, _, _, _, stack = peel_low_degree_vertices(self.num_colors, 2, csr)
        kernel = graph.subgraph([ids[r] for r in range(flat.num_vertices) if alive[r]])

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
        # The popped vertices join ``coloring`` in pop order.
        colors = array("i", [coloring.get(vertex, -1) for vertex in ids])
        reinsert_peeled_vertices(self.num_colors, stack, csr, colors)
        for rank in reversed(stack):
            coloring[ids[rank]] = colors[rank]
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


# -------------------------------------------------------------------- SDP
def build_merged_graph(
    graph: DecompositionGraph,
    merge_pairs,
) -> MergedGraph:
    """Contract ``graph`` by unioning every pair in ``merge_pairs``."""
    uf = UnionFind(graph.vertices())
    for a, b in merge_pairs:
        if not graph.has_vertex(a) or not graph.has_vertex(b):
            raise GraphError(f"merge pair ({a}, {b}) not in graph")
        uf.union(a, b)
    groups = uf.groups()
    node_of: Dict[int, int] = {}
    for node, members in enumerate(groups):
        for vertex in members:
            node_of[vertex] = node

    merged = MergedGraph(groups=groups)
    for u, v in graph.conflict_edges():
        a, b = node_of[u], node_of[v]
        if a == b:
            merged.internal_conflicts += 1
            continue
        key = (a, b) if a < b else (b, a)
        merged.conflict_weight[key] = merged.conflict_weight.get(key, 0) + 1
    for u, v in graph.stitch_edges():
        a, b = node_of[u], node_of[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        merged.stitch_weight[key] = merged.stitch_weight.get(key, 0) + 1
    return merged


class OracleSdpColoring:
    """``SdpColoring`` on the object graph: both mappings, from one
    :class:`SdpResult` of the relaxation over id-sorted indices."""

    def __init__(self, num_colors: int, options: AlgorithmOptions, mapping: str) -> None:
        self.num_colors = num_colors
        self.options = options
        self.mapping = mapping

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

        solver = VectorProgramSolver(self.num_colors, alpha=self.options.alpha)
        result, index = self.solve_graph(
            solver, graph.vertices(), graph.conflict_edges(), graph.stitch_edges()
        )
        if self.mapping == "greedy":
            coloring = self._greedy_mapping(graph, result, index)
        else:
            coloring = self._backtrack_mapping(graph, result, index)
            refine_coloring(
                graph, coloring, self.num_colors, self.options.alpha, max_passes=2
            )
        return coloring

    @staticmethod
    def solve_graph(
        solver: VectorProgramSolver,
        vertices: Sequence[int],
        conflict_edges,
        stitch_edges=(),
    ) -> Tuple[SdpResult, Dict[int, int]]:
        """Solve for arbitrary vertex ids; also return the id -> index map."""
        index = {vertex: position for position, vertex in enumerate(sorted(vertices))}
        ce = [(index[u], index[v]) for (u, v) in conflict_edges]
        se = [(index[u], index[v]) for (u, v) in stitch_edges]
        return solver.solve(len(index), ce, se), index

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
        """Algorithm 1: threshold merge then exact search on the merged graph."""
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
        return merged.expand_coloring(node_coloring)

    @staticmethod
    def _groups_conflict(graph: DecompositionGraph, first: set, second: set) -> bool:
        """Return True if any conflict edge crosses the two vertex groups."""
        small, large = (first, second) if len(first) <= len(second) else (second, first)
        for vertex in small:
            if graph.conflict_neighbors(vertex) & large:
                return True
        return False


# ------------------------------------------------------------------ tests
@st.composite
def graphs(draw, max_vertices=12):
    """A graph on arbitrary sorted ids with conflict, stitch and
    color-friendly edges; a pair may carry more than one relation."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    ids = sorted(draw(st.sets(st.integers(0, 10_000), min_size=n, max_size=n)))
    rng = draw(st.randoms(use_true_random=False))
    density = [draw(st.sampled_from(levels)) for levels in ((0.2, 0.4, 0.6), (0.0, 0.15), (0.0, 0.2))]
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    conflict, stitch, friend = (
        [pair for pair in pairs if rng.random() < level] for level in density
    )
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=ids)
    for u, v in friend:
        graph.add_friend_edge(u, v)
    return graph


colors = st.one_of(st.integers(min_value=2, max_value=8), st.just(65))
#: The three toggles of Algorithm 2, and for the backtrack mapping a node
#: limit small enough to make it merge below ``t_th`` and cap the search.
toggles = st.builds(
    AlgorithmOptions,
    use_peer_selection=st.booleans(),
    use_color_friendly=st.booleans(),
    use_post_refinement=st.booleans(),
    sdp_merge_threshold=st.sampled_from([0.5, 0.9]),
    backtrack_node_limit=st.sampled_from([2, 4, 24]),
)


def in_mode(mode: str, colorer, graph):
    previous = set_kernel_mode(mode)
    try:
        return colorer.color(graph)
    finally:
        set_kernel_mode(previous)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=150, deadline=None)
@given(graph=graphs(), num_colors=colors, options=toggles)
def test_linear_and_greedy_equal_their_oracles(mode, graph, num_colors, options):
    for colorer, oracle in (
        (LinearColoring(num_colors, options), OracleLinearColoring(num_colors, options)),
        (GreedyColoring(num_colors, options), None),
    ):
        got = in_mode(mode, colorer, graph)
        if oracle is None:
            want = greedy_color_graph(graph, num_colors, options.alpha)
        else:
            want = oracle.color(graph)
        assert list(got.items()) == list(want.items()), type(colorer).__name__


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(graph=graphs(), num_colors=colors, options=toggles)
def test_sdp_mappings_equal_their_oracles(mode, graph, num_colors, options):
    for mapping in ("greedy", "backtrack"):
        got = in_mode(mode, SdpColoring(num_colors, options, mapping=mapping), graph)
        want = OracleSdpColoring(num_colors, options, mapping).color(graph)
        assert got == want, mapping
