"""Unit tests for connected component computation."""

from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph


class TestConnectedComponents:
    def test_single_component(self):
        g = DecompositionGraph.from_edges([(0, 1), (1, 2)])
        assert connected_components(g) == [[0, 1, 2]]

    def test_multiple_components(self):
        g = DecompositionGraph.from_edges([(0, 1), (2, 3)], vertices=[7])
        assert connected_components(g) == [[0, 1], [2, 3], [7]]

    def test_stitch_edges_connect_by_default(self):
        g = DecompositionGraph.from_edges([(0, 1)], [(1, 2)])
        assert connected_components(g) == [[0, 1, 2]]

    def test_empty_graph(self):
        assert connected_components(DecompositionGraph()) == []

    def test_components_partition_vertices(self):
        g = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)], vertices=[10, 11]
        )
        comps = connected_components(g)
        seen = [v for comp in comps for v in comp]
        assert sorted(seen) == g.vertices()
        assert len(seen) == len(set(seen))
