"""The division's pieces, computed without the tree, against two oracles.

``GomoryHuTree.components_below(t)`` finds the K-classes for K = t (maximal
vertex sets whose every pair has local edge connectivity >= t) with capped
flows between contracted classes.  It must equal the exact Gusfield tree
(``GomoryHuTree.edges``) with every edge of weight < t cut, and on simple
graphs ``networkx.k_edge_components``.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.gomory_hu import gomory_hu_tree
from repro.graph.maxflow import FlowNetwork


def tree_pieces(tree, threshold: int):
    """Components of the exact tree once every edge of weight < threshold is cut."""
    forest = nx.Graph()
    forest.add_nodes_from(tree.vertices)
    forest.add_edges_from((u, v) for u, v, w in tree.edges if w >= threshold)
    return sorted(sorted(piece) for piece in nx.connected_components(forest))


def networkx_pieces(n: int, edges, threshold: int):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return sorted(sorted(piece) for piece in nx.k_edge_components(graph, threshold))


@st.composite
def multigraphs(draw, min_vertices=0, max_vertices=10):
    """Random multigraphs: parallel edges, isolated vertices, several components."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    if n < 2:
        return n, []
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    return n, draw(st.lists(pairs, max_size=4 * n))


def two_hubs(k: int):
    """Hubs 0 and 1 joined only through ``k`` degree-2 vertices: for
    3 <= K <= k, {0, 1} is one K-class with no edge inside it."""
    edges = []
    for middle in range(2, k + 2):
        edges += [(0, middle), (middle, 1)]
    return k + 2, edges


class TestAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(multigraphs(), st.integers(min_value=0, max_value=6))
    def test_equals_the_exact_tree_cut(self, graph, threshold):
        n, edges = graph
        tree = gomory_hu_tree(range(n), edges)
        assert tree.components_below(threshold) == tree_pieces(tree, threshold)

    @settings(max_examples=150, deadline=None)
    # networkx answers [] for a lone vertex and k >= 3, so two vertices at least.
    @given(multigraphs(min_vertices=2), st.integers(min_value=1, max_value=6))
    def test_equals_networkx_on_simple_graphs(self, graph, threshold):
        n, edges = graph
        simple = sorted({(min(u, v), max(u, v)) for u, v in edges})
        pieces = gomory_hu_tree(range(n), simple).components_below(threshold)
        assert pieces == networkx_pieces(n, simple, threshold)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_class_without_an_inside_edge(self, k):
        n, edges = two_hubs(k)
        tree = gomory_hu_tree(range(n), edges)
        expected = [[0, 1]] + [[middle] for middle in range(2, n)]
        assert tree.components_below(k) == expected == tree_pieces(tree, k)
        assert expected == networkx_pieces(n, edges, k)
        singles = [[v] for v in range(n)]
        assert tree.components_below(k + 1) == singles == tree_pieces(tree, k + 1)

    def test_trivial_graphs(self):
        assert gomory_hu_tree([], []).components_below(4) == []
        assert gomory_hu_tree([7], []).components_below(4) == [[7]]
        assert gomory_hu_tree([9, 3], []).components_below(0) == [[3, 9]]
        assert gomory_hu_tree([9, 3], []).components_below(1) == [[3], [9]]


class TestFlowCount:
    """Every flow merges two classes or splits a group: n - 1 of them."""

    @pytest.fixture
    def flows(self, monkeypatch):
        calls = []
        original = FlowNetwork.max_flow

        def counting(network, source, sink, limit=None):
            calls.append(limit)
            return original(network, source, sink, limit)

        monkeypatch.setattr(FlowNetwork, "max_flow", counting)
        return calls

    @pytest.mark.parametrize("threshold", range(1, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_connected_graph_costs_n_minus_1_capped_flows(self, flows, seed, threshold):
        rng = np.random.default_rng(seed)
        n = 14
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.3]
        gomory_hu_tree(range(n), edges).components_below(threshold)
        assert flows == [threshold] * (n - 1)

    def test_pieces_build_no_tree(self, flows):
        """Only ``edges`` runs Gusfield's uncapped flows, and only on access."""
        n, edges = two_hubs(4)
        tree = gomory_hu_tree(range(n), edges)
        assert flows == []
        tree.components_below(4)
        assert flows == [4] * (n - 1)
        assert len(tree.edges) == n - 1
        assert flows[n - 1 :] == [None] * (n - 1)
