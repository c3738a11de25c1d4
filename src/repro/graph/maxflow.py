"""Unit-capacity maximum flow by BFS augmenting paths.

The GH-tree based (K-1)-cut removal of Section 4 needs ``n - 1`` minimum
s-t cut computations per component (Gusfield's construction) on an
undirected graph whose edges all have capacity 1.  The paper names Dinic's
algorithm [22]; this module augments along BFS shortest paths instead
(Edmonds–Karp), one unit per path, on a network built once and reused for
every terminal pair.

Which augmenting strategy runs cannot change the answer.  The flow value is
the min-cut value.  The source side is read off the residual graph of the
final flow: the vertices the source still reaches.  In *any* maximum flow
that set is the unique minimal minimum cut (Picard & Queyranne, *On the
structure of all minimum cuts in a network and applications*, Math. Prog.
Study 13, 1980), so Dinic, Edmonds–Karp or any other exact algorithm hand
Gusfield the same value and the same source side, and the GH-tree built on
them is the same.  On these graphs a flow value is at most a vertex degree
(tens), so one BFS per unit of flow is nearly as fast as Dinic's level graphs
with far less code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import GraphError


class FlowNetwork:
    """Undirected unit-capacity flow network on dense vertex indices.

    Vertex ids map to indices ``0..n-1`` in insertion order.  An undirected
    edge becomes the arc pair ``i`` (u→v) and ``i ^ 1`` (v→u), each of
    capacity 1 and each the other's residual; parallel edges add capacity.
    :meth:`max_flow` works on a fresh residual array and leaves the arcs
    untouched, so one network answers any sequence of terminal pairs.
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self._ids: List[int] = []
        self._arcs: List[List[int]] = []  # vertex index -> ids of arcs leaving it
        self._heads: List[int] = []  # arc id -> head vertex index
        self._source_side: Optional[Set[int]] = None

    # ---------------------------------------------------------------- build
    def add_vertex(self, vertex: int) -> int:
        """Ensure ``vertex`` exists in the network; return its dense index."""
        index = self._index.get(vertex)
        if index is None:
            index = self._index[vertex] = len(self._ids)
            self._ids.append(vertex)
            self._arcs.append([])
        return index

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge of capacity 1 between ``u`` and ``v``."""
        if u == v:
            raise GraphError(f"self loop on vertex {u}")
        tail, head = self.add_vertex(u), self.add_vertex(v)
        self._arcs[tail].append(len(self._heads))
        self._heads.append(head)
        self._arcs[head].append(len(self._heads))
        self._heads.append(tail)

    @staticmethod
    def from_edges(
        edges: Iterable[Tuple[int, int]], vertices: Iterable[int] = ()
    ) -> "FlowNetwork":
        """Build a network from an edge list (plus optional isolated vertices)."""
        network = FlowNetwork()
        for vertex in vertices:
            network.add_vertex(vertex)
        for u, v in edges:
            network.add_edge(u, v)
        return network

    # ---------------------------------------------------------------- solve
    def max_flow(self, source: int, sink: int) -> int:
        """Return the maximum flow value from ``source`` to ``sink``.

        Every call starts from the capacities the network was built with.
        The source side of the minimal minimum cut is kept for
        :meth:`min_cut_partition`.
        """
        if source == sink:
            raise GraphError("source and sink must differ")
        if source not in self._index or sink not in self._index:
            raise GraphError("source or sink not in network")
        s, t = self._index[source], self._index[sink]
        heads = self._heads
        residual = [1] * len(heads)
        total = 0
        while True:
            via, reached = self._search(s, t, residual)
            if via[t] == -1:
                ids = self._ids
                self._source_side = {ids[vertex] for vertex in reached}
                return total
            vertex = t
            while vertex != s:
                arc = via[vertex]
                residual[arc] -= 1
                residual[arc ^ 1] += 1
                vertex = heads[arc ^ 1]
            total += 1

    def min_cut_partition(self) -> Set[int]:
        """Return the source side of the minimal minimum cut of the last flow."""
        if self._source_side is None:
            raise GraphError("no max_flow has run on this network")
        return self._source_side

    # -------------------------------------------------------------- internal
    def _search(
        self, s: int, t: int, residual: List[int]
    ) -> Tuple[List[int], List[int]]:
        """BFS from ``s`` over arcs with residual capacity, stopping at ``t``.

        Returns ``via`` (the arc that first reached each vertex, ``-1`` if
        unreached) and the vertices reached before ``t``, in visiting order:
        all of them when ``t`` is unreachable.
        """
        arcs, heads = self._arcs, self._heads
        via = [-1] * len(arcs)
        via[s] = -2
        reached = [s]
        for vertex in reached:
            for arc in arcs[vertex]:
                if residual[arc]:
                    head = heads[arc]
                    if via[head] == -1:
                        via[head] = arc
                        if head == t:
                            return via, reached
                        reached.append(head)
        return via, reached
