"""Unit tests for the linear color assignment (Algorithm 2)."""

from array import array

import pytest

from repro.bench.cells import figure4_graph
from repro.core.evaluation import count_conflicts, count_stitches
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.linear_coloring import LinearColoring, linear_walk
from repro.core.options import AlgorithmOptions
from repro.graph.decomposition_graph import DecompositionGraph


class TestLinearColoringBasics:
    def test_empty_graph(self):
        assert LinearColoring(4).color(DecompositionGraph()) == {}

    def test_colors_every_vertex(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2), (2, 3)], [(3, 4)])
        coloring = LinearColoring(4).color(g)
        assert set(coloring) == set(g.vertices())
        assert all(0 <= c < 4 for c in coloring.values())

    def test_sparse_graph_conflict_free(self):
        """Any graph whose vertices all have conflict degree < 4 is peeled
        entirely and must come back conflict free."""
        g = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        )
        coloring = LinearColoring(4).color(g)
        assert count_conflicts(g, coloring) == 0

    def test_k4_conflict_free(self, k4_graph):
        coloring = LinearColoring(4).color(k4_graph)
        assert count_conflicts(k4_graph, coloring) == 0

    def test_k5_single_conflict(self, k5_graph):
        coloring = LinearColoring(4).color(k5_graph)
        assert count_conflicts(k5_graph, coloring) == 1

    def test_k5_with_five_colors_conflict_free(self, k5_graph):
        coloring = LinearColoring(5).color(k5_graph)
        assert count_conflicts(k5_graph, coloring) == 0

    def test_stitch_edges_minimised_on_chain(self):
        g = DecompositionGraph.from_edges([], [(0, 1), (1, 2), (2, 3)])
        coloring = LinearColoring(4).color(g)
        assert count_stitches(g, coloring) == 0

    def test_deterministic(self):
        g = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]
        )
        assert LinearColoring(4).color(g) == LinearColoring(4).color(g)


class TestFigure4:
    def test_figure4_conflict_free(self, fig4):
        """The Fig. 4 graph is 4-colorable; the linear assignment must find a
        conflict-free solution despite the greedy-ordering trap."""
        coloring = LinearColoring(4).color(fig4)
        assert count_conflicts(fig4, coloring) == 0

    def test_figure4_greedy_trap_exists(self, fig4):
        """Documentation of the pitfall: coloring a-b-c-d greedily by 'first
        free color' and then e can leave e with no conflict-free color."""
        coloring = {}
        for vertex in [0, 1, 2, 3]:
            used = {coloring[n] for n in fig4.conflict_neighbors(vertex) if n in coloring}
            # The greedy trap: the outer cycle alternates between just two
            # colors, so e (conflicting with all of a, b, c, d) still has a
            # free color.  Force the trap by giving d a third color, as in
            # Fig. 4(b) where d picks grey.
            coloring[vertex] = min(c for c in range(4) if c not in used)
        coloring[3] = 2 if coloring[3] != 2 else 3
        used_around_e = {coloring[n] for n in fig4.conflict_neighbors(4)}
        # With a, b, c, d using three different colors, e has exactly one
        # color left; flipping d to yet another color removes it.
        assert len(used_around_e) >= 3

    def test_color_friendly_breaks_ties_toward_friend_color(self):
        """Definition 2 in action: among equally conflict-free colors the one
        used by a color-friendly neighbour wins (Fig. 4(c)-(d))."""
        g = DecompositionGraph.from_edges([(0, 1), (0, 2)], vertices=[3])
        g.add_friend_edge(0, 3)
        csr = CSRAdjacency(g.to_arrays())

        def pick(use_friendly: bool) -> int:
            colors = array("i", [-1, 0, 1, 3])  # vertex 0 uncolored
            linear_walk(4, 0.1, use_friendly, array("i", [0]), csr, colors)
            return colors[0]

        assert pick(True) == 3
        assert pick(False) == 2


class TestAlgorithmOptions:
    def test_disable_peer_selection_still_valid(self, k5_graph):
        options = AlgorithmOptions()
        options.use_peer_selection = False
        coloring = LinearColoring(4, options).color(k5_graph)
        assert count_conflicts(k5_graph, coloring) == 1

    def test_disable_color_friendly_still_valid(self, fig4):
        options = AlgorithmOptions()
        options.use_color_friendly = False
        coloring = LinearColoring(4, options).color(fig4)
        assert set(coloring) == set(fig4.vertices())

    def test_disable_post_refinement_still_valid(self, k4_graph):
        options = AlgorithmOptions()
        options.use_post_refinement = False
        coloring = LinearColoring(4, options).color(k4_graph)
        assert count_conflicts(k4_graph, coloring) == 0

    def test_name(self):
        assert LinearColoring(4).name == "linear"
