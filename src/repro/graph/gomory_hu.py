"""Gomory–Hu tree construction (Gusfield's simplification).

A Gomory–Hu tree (GH-tree) of an undirected graph is a weighted tree on the
same vertex set such that, for any vertex pair ``(u, v)``, the minimum u-v cut
in the graph equals the smallest edge weight on the tree path between ``u``
and ``v``.  The paper builds the GH-tree with Gusfield's all-pairs method
[21], which needs only ``n - 1`` max-flow computations and never contracts
the graph, so all of them run on one :class:`~repro.graph.maxflow.FlowNetwork`
built once per tree.

Gusfield reads two things from each flow: its value and the source side of
the cut.  The value is unique, and the side is the *minimal* minimum cut,
which every maximum flow yields alike (Picard & Queyranne, 1980; see
:mod:`repro.graph.maxflow`).  So the tree, and the pieces cut from it, are
the same as with the paper's Dinic [22], whatever order the edges come in.

The QPLD graph-division stage removes every tree edge of weight < K; the
resulting forest components are exactly the parts separated by some
(K-1)-cut (Lemma 2 / Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.graph.maxflow import FlowNetwork


@dataclass
class GomoryHuTree:
    """A cut-equivalence tree.

    Attributes
    ----------
    vertices:
        The vertex ids the tree spans.
    edges:
        Tree edges as ``(u, v, weight)`` triples, where ``weight`` is the
        minimum u-v cut value in the original graph.
    """

    vertices: List[int]
    edges: List[Tuple[int, int, int]]

    def components_below(self, threshold: int) -> List[List[int]]:
        """Split the tree by removing edges of weight < ``threshold``.

        Returns the vertex sets of the resulting forest components — the
        graph-division components used by the (K-1)-cut removal.
        """
        adjacency: Dict[int, List[int]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            if w >= threshold:
                adjacency[u].append(v)
                adjacency[v].append(u)
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            component = []
            seen.add(start)
            while stack:
                vertex = stack.pop()
                component.append(vertex)
                for other in adjacency[vertex]:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            components.append(sorted(component))
        components.sort(key=lambda comp: comp[0])
        return components


def gomory_hu_tree(
    vertices: Sequence[int], edges: Iterable[Tuple[int, int]]
) -> GomoryHuTree:
    """Build the GH-tree of an undirected unit-capacity graph.

    Parameters
    ----------
    vertices:
        Vertex ids (the graph must be connected on these vertices; for
        decomposition graphs the caller runs this per connected component).
    edges:
        Undirected edges of capacity 1; parallel edges add capacity.
    """
    vertices = sorted(set(vertices))
    if len(vertices) <= 1:
        return GomoryHuTree(vertices, [])

    network = FlowNetwork.from_edges(edges, vertices=vertices)
    root = vertices[0]
    parent: Dict[int, int] = {v: root for v in vertices if v != root}
    flow_value: Dict[int, int] = {}

    for index, vertex in enumerate(vertices[1:], start=1):
        target = parent[vertex]
        flow_value[vertex] = network.max_flow(vertex, target)
        source_side = network.min_cut_partition()
        for other in vertices[index + 1 :]:
            if other in source_side and parent[other] == target:
                parent[other] = vertex

    tree_edges = [(v, parent[v], flow_value[v]) for v in vertices[1:]]
    return GomoryHuTree(vertices, tree_edges)
