"""Unit tests for the Gomory-Hu tree (Gusfield construction)."""

import networkx as nx
import numpy as np
import pytest

from repro.bench.cells import figure6_graph
from repro.graph.gomory_hu import gomory_hu_tree


def random_connected_edges(n: int, extra: float, seed: int):
    """A random connected graph: a path plus random chords."""
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < extra:
                edges.append((i, j))
    return edges


def path_minimum(tree, u: int, v: int) -> int:
    """Smallest weight on the tree path between ``u`` and ``v``."""
    forest = nx.Graph()
    forest.add_weighted_edges_from(tree.edges)
    path = nx.shortest_path(forest, u, v)
    return min(forest[a][b]["weight"] for a, b in zip(path, path[1:]))


class TestGomoryHuTreeStructure:
    def test_empty_and_singleton(self):
        assert gomory_hu_tree([], []).edges == []
        assert gomory_hu_tree([3], []).edges == []

    def test_tree_has_n_minus_1_edges(self):
        edges = random_connected_edges(8, 0.3, 1)
        tree = gomory_hu_tree(range(8), edges)
        assert len(tree.edges) == 7

    def test_path_graph_cut_values(self):
        tree = gomory_hu_tree(range(4), [(0, 1), (1, 2), (2, 3)])
        for u in range(4):
            for v in range(u + 1, 4):
                assert path_minimum(tree, u, v) == 1

    def test_parallel_edges_add_capacity(self):
        tree = gomory_hu_tree(range(3), [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)])
        assert sorted(tree.edges) == [(1, 0, 2), (2, 1, 3)]
        assert tree.components_below(3) == [[0], [1, 2]]


class TestCutEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_pairs_match_direct_min_cut(self, seed):
        n = 9
        edges = random_connected_edges(n, 0.25, seed)
        tree = gomory_hu_tree(range(n), edges)
        g = nx.Graph(edges)
        nx.set_edge_attributes(g, 1, "capacity")
        for u in range(n):
            for v in range(u + 1, n):
                expected = nx.minimum_cut_value(g, u, v, capacity="capacity")
                assert path_minimum(tree, u, v) == expected, (u, v)


class TestComponentsBelow:
    def test_split_on_threshold(self):
        # Two triangles joined by a single edge: the joining cut has value 1.
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        tree = gomory_hu_tree(range(6), edges)
        parts = tree.components_below(2)
        assert sorted(map(tuple, parts)) == [(0, 1, 2), (3, 4, 5)]

    def test_threshold_one_keeps_everything(self):
        edges = [(0, 1), (1, 2)]
        tree = gomory_hu_tree(range(3), edges)
        assert tree.components_below(1) == [[0, 1, 2]]

    def test_two_k5s_joined_by_3cut(self):
        """Two K5 blocks joined by a 3-cut stay together at threshold 3 but
        split into the two blocks at threshold 4 (QPLD removes GH edges with
        weight < K = 4).  Inside a K5 every pairwise min cut is >= 4, so the
        blocks themselves survive the split."""
        k5_a = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        k5_b = [(i + 5, j + 5) for i in range(5) for j in range(i + 1, 5)]
        cut = [(0, 5), (1, 6), (2, 7)]
        edges = k5_a + k5_b + cut
        tree = gomory_hu_tree(range(10), edges)
        assert tree.components_below(3) == [list(range(10))]
        parts = tree.components_below(4)
        assert sorted(map(tuple, parts)) == [tuple(range(5)), tuple(range(5, 10))]


class TestFigure6:
    def test_figure6_division_into_three_parts(self):
        """The Fig. 6 graph splits into three components after 3-cut removal."""
        graph = figure6_graph()
        edges = graph.conflict_edges()
        tree = gomory_hu_tree(graph.vertices(), edges)
        parts = tree.components_below(4)
        sizes = sorted(len(p) for p in parts)
        assert len(parts) >= 2
        assert sum(sizes) == graph.num_vertices
