"""Gomory–Hu division: the pieces left once every cut below K is removed.

A Gomory–Hu tree (GH-tree) of an undirected graph is a weighted tree on the
same vertex set such that, for any vertex pair ``(u, v)``, the minimum u-v cut
in the graph equals the smallest edge weight on the tree path between ``u``
and ``v``.  The paper builds the GH-tree with Gusfield's all-pairs method
[21] and the QPLD graph-division stage removes every tree edge of weight
< K; the resulting forest components are exactly the parts separated by some
(K-1)-cut (Lemma 2 / Theorem 2).

The division reads nothing else from the tree, so it does not build one.  A
piece is a *K-class*: a maximal vertex set whose every pair has local edge
connectivity λ ≥ K.  :meth:`GomoryHuTree.components_below` finds the
K-classes directly, with flows that stop after K augmenting paths between
contracted classes (the low-connectivity idea of Hariharan, Kavitha &
Panigrahi, *Efficient algorithms for computing all low s-t edge
connectivities and related problems*, SODA 2007).  Why the pieces cannot
move:

* λ ≥ K is an equivalence relation, since λ(u, w) ≥ min(λ(u, v), λ(v, w)).
  So the K-classes are unique, and the pieces, and their sorted order, equal
  the exact tree's.
* No cut of value < K separates two members of a class.  So contracting a
  class leaves every connectivity below K unchanged, and a flow that reaches
  K between two contracted classes proves every pair across them K-connected.
* For the same reason a residual cut below K never splits a class, so the
  groups split along such cuts keep every class whole.

:attr:`GomoryHuTree.edges` still runs the exact Gusfield construction, on
first access, with n − 1 uncapped flows on one
:class:`~repro.graph.maxflow.FlowNetwork`.  It serves the figures, the tests
and the reference the division's pieces must match.  Gusfield reads two
things from each flow: its value and the source side of the cut.  The value
is unique, and the side is the *minimal* minimum cut, which every maximum
flow yields alike (Picard & Queyranne, 1980; see :mod:`repro.graph.maxflow`).
So the tree is the same as with the paper's Dinic [22], whatever order the
edges come in.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.graph.maxflow import FlowNetwork


class GomoryHuTree:
    """A graph's cut-equivalence tree, built on demand, and its K-classes.

    Attributes
    ----------
    vertices:
        The vertex ids the tree spans, sorted.
    graph_edges:
        The graph's undirected unit-capacity edges between those vertices;
        parallel edges add capacity.
    """

    def __init__(self, vertices: Sequence[int], edges: Iterable[Tuple[int, int]]) -> None:
        self.vertices = sorted(set(vertices))
        self.graph_edges = list(edges)

    @cached_property
    def edges(self) -> List[Tuple[int, int, int]]:
        """Tree edges as ``(u, v, weight)`` triples, where ``weight`` is the
        minimum u-v cut value in the graph (Gusfield's construction)."""
        vertices = self.vertices
        if len(vertices) <= 1:
            return []
        network = FlowNetwork.from_edges(self.graph_edges, vertices=vertices)
        root = vertices[0]
        parent: Dict[int, int] = dict.fromkeys(vertices[1:], root)
        flow_value: Dict[int, int] = {}
        for index, vertex in enumerate(vertices[1:], start=1):
            target = parent[vertex]
            flow_value[vertex] = network.max_flow(vertex, target)
            source_side = network.min_cut_partition()
            for other in vertices[index + 1 :]:
                if other in source_side and parent[other] == target:
                    parent[other] = vertex
        return [(v, parent[v], flow_value[v]) for v in vertices[1:]]

    def components_below(self, threshold: int) -> List[List[int]]:
        """The K-classes for K = ``threshold``, each sorted, ordered by their
        smallest vertex: the components of the tree once every edge of
        weight < ``threshold`` is cut, found without building the tree.

        Every vertex starts as its own class and all start in one *group*, a
        set no cut below the threshold has separated yet.  Each flow runs
        between two classes of one group, from the smaller to the larger,
        capped at the threshold: at the cap it merges them, below it splits
        the group along the cut's source side.  So a graph of n vertices
        costs exactly n − 1 flows, as Gusfield's tree does.
        """
        network = FlowNetwork.from_edges(self.graph_edges, vertices=self.vertices)
        piece = {v: [v] for v in self.vertices}  # vertex -> its class, one list per class
        group = dict.fromkeys(self.vertices, 0)
        fresh = count(1)

        def separate(u: int, v: int) -> None:
            source, sink = (v, u) if len(piece[v]) < len(piece[u]) else (u, v)
            if network.max_flow(source, sink, limit=threshold) >= threshold:
                network.merge(source, sink)
                small, large = piece[source], piece[sink]
                large += small
                for vertex in small:
                    piece[vertex] = large
            else:
                old, new = group[u], next(fresh)
                for vertex in network.min_cut_partition():
                    if group[vertex] == old:
                        group[vertex] = new

        for u, v in self.graph_edges:
            if group[u] == group[v] and piece[u] is not piece[v]:
                separate(u, v)
        # A K-class need not induce a connected subgraph: for K >= 3, two
        # hubs joined only through K or more degree-2 vertices form one
        # class with no edge inside it.  So every vertex is also tested
        # against its group's leader, whose class holds every vertex of the
        # group visited so far.
        leader: Dict[int, int] = {}
        for v in self.vertices:
            u = leader.setdefault(group[v], v)
            if piece[u] is not piece[v]:
                separate(u, v)
                leader[group[u]] = u
                leader[group[v]] = v
        classes = {id(members): members for members in piece.values()}
        return sorted(sorted(members) for members in classes.values())


def gomory_hu_tree(
    vertices: Sequence[int], edges: Iterable[Tuple[int, int]]
) -> GomoryHuTree:
    """The GH-tree of an undirected unit-capacity graph, built on demand.

    Parameters
    ----------
    vertices:
        Vertex ids (for decomposition graphs the caller runs this per
        connected component).
    edges:
        Undirected edges of capacity 1; parallel edges add capacity.
    """
    return GomoryHuTree(vertices, edges)
