"""Unit tests for the unit-capacity max-flow network (networkx as oracle)."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.maxflow import FlowNetwork


def random_edges(n: int, probability: float, seed: int):
    rng = np.random.default_rng(seed)
    return [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < probability
    ]


def nx_capacity_graph(edges, n: int) -> nx.Graph:
    """Simple graph whose edge capacities count the parallel copies in ``edges``."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v in edges:
        if g.has_edge(u, v):
            g[u][v]["capacity"] += 1
        else:
            g.add_edge(u, v, capacity=1)
    return g


class TestFlowNetworkBasics:
    def test_single_edge(self):
        net = FlowNetwork.from_edges([(0, 1)])
        assert net.max_flow(0, 1) == 1

    def test_parallel_paths(self):
        net = FlowNetwork.from_edges([(0, 1), (1, 3), (0, 2), (2, 3)])
        assert net.max_flow(0, 3) == 2

    def test_bottleneck(self):
        # Two paths share the bottleneck edge (2, 3).
        net = FlowNetwork.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert net.max_flow(0, 3) == 1

    def test_disconnected_zero_flow(self):
        net = FlowNetwork.from_edges([(0, 1)], vertices=[2])
        assert net.max_flow(0, 2) == 0
        assert net.min_cut_partition() == {0, 1}

    def test_parallel_edges_add_capacity(self):
        net = FlowNetwork.from_edges([(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)])
        assert net.max_flow(0, 2) == 2
        assert net.min_cut_partition() == {0}
        assert net.max_flow(2, 1) == 3
        assert net.min_cut_partition() == {2}

    def test_same_terminals_rejected(self):
        net = FlowNetwork.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            net.max_flow(0, 0)

    def test_unknown_terminal_rejected(self):
        net = FlowNetwork.from_edges([(0, 1)])
        with pytest.raises(GraphError):
            net.max_flow(0, 9)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self loop"):
            FlowNetwork().add_edge(3, 3)

    def test_partition_before_any_flow_rejected(self):
        with pytest.raises(GraphError):
            FlowNetwork.from_edges([(0, 1)]).min_cut_partition()


class TestBulkBuild:
    """``from_edges`` lays out the arrays edge-by-edge building would."""

    @staticmethod
    def edge_by_edge(edges, vertices=()):
        net = FlowNetwork()
        for vertex in vertices:
            net.add_vertex(vertex)
        for u, v in edges:
            net.add_edge(u, v)
        return net

    @staticmethod
    def arrays(net):
        return (net._index, net._ids, net._arcs, net._heads, net._label, net._members)

    @pytest.mark.parametrize("seed", range(6))
    def test_arrays_equal_the_edge_by_edge_build(self, seed):
        rng = np.random.default_rng(seed)
        edges = [tuple(int(x) for x in rng.choice(40, 2, replace=False)) for _ in range(60)]
        edges += edges[:: 7]  # parallel edges
        isolated = [int(x) for x in rng.choice(range(40, 60), 4, replace=False)]
        vertices = isolated + [edges[0][1], isolated[0]]  # endpoints and repeats too
        bulk = FlowNetwork.from_edges(edges, vertices=vertices)
        assert self.arrays(bulk) == self.arrays(self.edge_by_edge(edges, vertices))
        assert self.arrays(FlowNetwork.from_edges(edges)) == self.arrays(
            self.edge_by_edge(edges)
        )

    def test_empty_and_isolated_only(self):
        for vertices in ((), (5, 3, 5)):
            assert self.arrays(FlowNetwork.from_edges([], vertices)) == self.arrays(
                self.edge_by_edge([], vertices)
            )

    def test_self_loop_still_rejected(self):
        with pytest.raises(GraphError, match="self loop on vertex 2"):
            FlowNetwork.from_edges([(0, 1), (2, 2)])


class TestMinCutPartition:
    def test_partition_separates_terminals(self):
        net = FlowNetwork.from_edges([(0, 1), (1, 2), (2, 3)])
        value = net.max_flow(0, 3)
        side = net.min_cut_partition()
        assert value == 1
        assert 0 in side and 3 not in side

    def test_cut_value_equals_crossing_edges(self):
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
        net = FlowNetwork.from_edges(edges)
        value = net.max_flow(0, 4)
        side = net.min_cut_partition()
        crossing = sum(1 for (u, v) in edges if (u in side) != (v in side))
        assert crossing == value == 1


class TestNetworkReuse:
    """One network answers any sequence of pairs as fresh networks would."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sequence_of_pairs_matches_fresh_networks(self, seed):
        n = 12
        edges = random_edges(n, 0.3, seed)
        shared = FlowNetwork.from_edges(edges, vertices=range(n))
        pairs = [(0, n - 1), (3, 7), (n - 1, 0), (5, 2), (0, n - 1)]
        for source, sink in pairs:
            fresh = FlowNetwork.from_edges(edges, vertices=range(n))
            expected = fresh.max_flow(source, sink)
            assert shared.max_flow(source, sink) == expected, (source, sink)
            assert shared.min_cut_partition() == fresh.min_cut_partition()


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_unit_graphs(self, seed):
        n = 12
        edges = random_edges(n, 0.25, seed)
        if not edges:
            pytest.skip("empty random graph")
        g = nx_capacity_graph(edges, n)
        source, sink = 0, n - 1
        expected = nx.maximum_flow_value(g, source, sink, capacity="capacity")
        net = FlowNetwork.from_edges(edges, vertices=range(n))
        assert net.max_flow(source, sink) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_parallel_edges_match_weighted_networkx(self, seed):
        """An edge repeated ``c`` times carries what capacity ``c`` carries."""
        rng = np.random.default_rng(100 + seed)
        n = 10
        edges = []
        for u, v in random_edges(n, 0.3, 100 + seed):
            edges.extend([(u, v)] * int(rng.integers(1, 6)))
        rng.shuffle(edges)
        g = nx_capacity_graph(edges, n)
        expected = nx.maximum_flow_value(g, 0, n - 1, capacity="capacity")
        net = FlowNetwork.from_edges(edges, vertices=range(n))
        assert net.max_flow(0, n - 1) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_source_side_is_minimal(self, seed):
        """``v`` is on the returned source side iff every minimum cut puts it
        there, i.e. iff tying ``v`` to the sink raises the cut value."""
        n = 10
        edges = random_edges(n, 0.35, 200 + seed)
        net = FlowNetwork.from_edges(edges, vertices=range(n))
        source, sink = 0, n - 1
        value = net.max_flow(source, sink)
        side = net.min_cut_partition()
        for vertex in range(1, n - 1):
            tied = nx_capacity_graph(edges, n)
            tied.add_edge(vertex, sink, capacity=len(edges) + 1)
            forced = nx.maximum_flow_value(tied, source, sink, capacity="capacity")
            assert (vertex in side) == (forced > value), vertex


def terminal_flow_value(edges, n, source_class, sink_class) -> int:
    """networkx's flow on the multigraph with the source class and the sink
    class each contracted to one vertex (edges inside them dropped)."""
    rep = {v: v for v in range(n)}
    rep.update({v: "s" for v in source_class})
    rep.update({v: "t" for v in sink_class})
    g = nx.Graph()
    g.add_nodes_from(rep.values())
    for u, v in edges:
        a, b = rep[u], rep[v]
        if a == b:
            continue
        if g.has_edge(a, b):
            g[a][b]["capacity"] += 1
        else:
            g.add_edge(a, b, capacity=1)
    return nx.maximum_flow_value(g, "s", "t", capacity="capacity")


class TestFlowLimit:
    @pytest.mark.parametrize("seed", range(6))
    def test_limit_returns_min_of_value_and_limit(self, seed):
        n = 12
        edges = random_edges(n, 0.35, 300 + seed)
        net = FlowNetwork.from_edges(edges, vertices=range(n))
        value = net.max_flow(0, n - 1)
        side = net.min_cut_partition()
        for limit in range(value + 3):
            assert net.max_flow(0, n - 1, limit=limit) == min(value, limit)
            if limit <= value:
                with pytest.raises(GraphError, match="no cut side"):
                    net.min_cut_partition()
            else:
                assert net.min_cut_partition() == side

    def test_capped_flow_drops_the_previous_cut_side(self):
        net = FlowNetwork.from_edges([(0, 1), (0, 1), (1, 2)])
        assert net.max_flow(1, 2) == 1
        assert net.min_cut_partition() == {0, 1}
        assert net.max_flow(0, 1, limit=2) == 2
        with pytest.raises(GraphError):
            net.min_cut_partition()


class TestMergedClasses:
    @pytest.mark.parametrize("seed", range(8))
    def test_flow_between_classes_matches_contracted_terminals(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 12
        edges = []
        for u, v in random_edges(n, 0.3, 400 + seed):
            edges.extend([(u, v)] * int(rng.integers(1, 3)))
        net = FlowNetwork.from_edges(edges, vertices=range(n))
        classes = [{v} for v in range(n)]
        for _ in range(5):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            net.merge(u, v)
            cu = next(c for c in classes if u in c)
            cv = next(c for c in classes if v in c)
            if cu is not cv:
                classes.remove(cv)
                cu |= cv
        for source_class, sink_class in zip(classes, classes[1:]):
            source, sink = max(source_class), min(sink_class)
            value = net.max_flow(source, sink)
            assert value == terminal_flow_value(edges, n, source_class, sink_class)
            side = net.min_cut_partition()
            assert source_class <= side and not sink_class & side
            assert sum((u in side) != (v in side) for u, v in edges) == value

    def test_merged_class_acts_as_one_vertex(self):
        # 3 hangs off the triangle 0-1-2 by one edge; merged with 2, it is
        # reached over both of 2's triangle edges.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        net = FlowNetwork.from_edges(edges)
        assert net.max_flow(0, 3) == 1
        net.merge(2, 3)
        assert net.max_flow(0, 3) == 2
        assert net.min_cut_partition() == {0}
        assert net.max_flow(3, 0) == 2
        assert net.min_cut_partition() == {2, 3}

    def test_flow_inside_one_class_rejected(self):
        net = FlowNetwork.from_edges([(0, 1), (1, 2), (2, 3)])
        net.merge(0, 2)
        net.merge(2, 2)
        with pytest.raises(GraphError, match="different classes"):
            net.max_flow(0, 2)
        with pytest.raises(GraphError, match="different classes"):
            net.max_flow(2, 0)
        assert net.max_flow(1, 3) == 1

    def test_merge_of_unknown_vertex_rejected(self):
        with pytest.raises(GraphError, match="not in network"):
            FlowNetwork.from_edges([(0, 1)]).merge(0, 7)
