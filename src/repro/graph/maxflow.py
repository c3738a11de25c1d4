"""Unit-capacity maximum flow by BFS augmenting paths, between vertex classes.

The GH-tree based (K-1)-cut removal of Section 4 needs ``n - 1`` minimum
s-t cut computations per component on an undirected graph whose edges all
have capacity 1.  The paper names Dinic's algorithm [22]; this module
augments along BFS shortest paths instead (Edmonds–Karp), one unit per path,
on a network built once and reused for every terminal pair.

Which augmenting strategy runs cannot change the answer.  The flow value is
the min-cut value.  The source side is read off the residual graph of the
final flow: the vertices the source still reaches.  In *any* maximum flow
that set is the unique minimal minimum cut (Picard & Queyranne, *On the
structure of all minimum cuts in a network and applications*, Math. Prog.
Study 13, 1980), so Dinic, Edmonds–Karp or any other exact algorithm hand
their caller the same value and the same source side.  On these graphs a
flow value is at most a vertex degree (tens), so one BFS per unit of flow is
nearly as fast as Dinic's level graphs with far less code.

The division only asks whether a pair is K-connected, and if not, for a cut
below K (see :mod:`repro.graph.gomory_hu`).  Two additions serve it:

* ``max_flow(source, sink, limit)`` stops after ``limit`` augmenting paths
  and returns ``min(value, limit)``.  The final, failing BFS, which visits
  everything the source reaches, then never runs, so a flow stopped at its
  limit keeps no cut side.
* :meth:`FlowNetwork.merge` contracts two vertex *classes*.  A flow runs from
  the source's whole class to the sink's whole class: its BFS starts from
  every member of the one and stops at the first member of the other, so no
  edge inside either class carries flow and each acts as one vertex.  A
  class that is neither terminal keeps its inside edges as plain capacity.
  The division merges only pairs it has proved K-connected, and no cut
  below K splits those, so for its flows capped at K this is the same as
  contracting every class.

With no merge and no limit, every class is one vertex and a flow is the
plain s-t flow, path for path.
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
        self._label: List[int] = []  # vertex index -> label of its class
        self._members: List[List[int]] = []  # label -> member indices, [] once merged away
        self._source_side: Optional[Set[int]] = None

    # ---------------------------------------------------------------- build
    def add_vertex(self, vertex: int) -> int:
        """Ensure ``vertex`` exists in the network; return its dense index."""
        index = self._index.get(vertex)
        if index is None:
            index = self._index[vertex] = len(self._ids)
            self._ids.append(vertex)
            self._arcs.append([])
            self._label.append(index)
            self._members.append([index])
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
        """Build a network from an edge list (plus optional isolated vertices).

        One pass over the pairs, with the indices and arcs exactly as
        :meth:`add_vertex` then :meth:`add_edge` per edge would lay them out:
        ``vertices`` first, then each new endpoint as its first edge names
        it, and edge ``k`` as the arc pair ``2k``/``2k + 1``.
        """
        network = FlowNetwork()
        index, ids = network._index, network._ids
        arcs, heads = network._arcs, network._heads
        for vertex in vertices:
            if vertex not in index:
                index[vertex] = len(ids)
                ids.append(vertex)
                arcs.append([])
        for u, v in edges:
            if u == v:
                raise GraphError(f"self loop on vertex {u}")
            tail = index.get(u)
            if tail is None:
                tail = index[u] = len(ids)
                ids.append(u)
                arcs.append([])
            head = index.get(v)
            if head is None:
                head = index[v] = len(ids)
                ids.append(v)
                arcs.append([])
            arcs[tail].append(len(heads))
            heads.append(head)
            arcs[head].append(len(heads))
            heads.append(tail)
        network._label = list(range(len(ids)))
        network._members = [[vertex] for vertex in network._label]
        return network

    def merge(self, u: int, v: int) -> None:
        """Contract the classes of ``u`` and ``v`` into one (a no-op when they
        share one already); flows from or to it start or stop at any member."""
        label, members = self._label, self._members
        keep, drop = self._class(u), self._class(v)
        if keep == drop:
            return
        if len(members[keep]) < len(members[drop]):
            keep, drop = drop, keep
        for vertex in members[drop]:
            label[vertex] = keep
        members[keep] += members[drop]
        members[drop] = []

    # ---------------------------------------------------------------- solve
    def max_flow(self, source: int, sink: int, limit: Optional[int] = None) -> int:
        """Return the maximum flow value from ``source``'s class to ``sink``'s.

        Every call starts from the capacities the network was built with.
        With a ``limit``, the flow stops after ``limit`` augmenting paths and
        returns ``min(value, limit)``; a flow stopped there keeps no cut side.
        Otherwise the source side of the minimal minimum cut is kept for
        :meth:`min_cut_partition`.
        """
        s, t = self._class(source), self._class(sink)
        if s == t:
            raise GraphError("source and sink must lie in different classes")
        heads = self._heads
        residual = [1] * len(heads)
        sources = self._members[s]
        self._source_side = None
        total = 0
        while limit is None or total < limit:
            via, reached, end = self._search(sources, t, residual)
            if end == -1:
                ids = self._ids
                self._source_side = {ids[vertex] for vertex in reached}
                return total
            arc = via[end]
            while arc >= 0:
                residual[arc] -= 1
                residual[arc ^ 1] += 1
                arc = via[heads[arc ^ 1]]
            total += 1
        return total

    def min_cut_partition(self) -> Set[int]:
        """Return the source side of the minimal minimum cut of the last flow."""
        if self._source_side is None:
            raise GraphError("no cut side: no max_flow ran, or the last stopped at its limit")
        return self._source_side

    # -------------------------------------------------------------- internal
    def _class(self, vertex: int) -> int:
        index = self._index.get(vertex)
        if index is None:
            raise GraphError(f"vertex {vertex} not in network")
        return self._label[index]

    def _search(
        self, sources: List[int], sink: int, residual: List[int]
    ) -> Tuple[List[int], List[int], int]:
        """BFS from every vertex of ``sources`` over arcs with residual
        capacity, stopping at the first vertex of class ``sink``.

        Returns ``via`` (the arc that first reached each vertex, ``-2`` on a
        source, ``-1`` if unreached), the vertices reached before the sink
        class, in visiting order (all of them when it is unreachable), and
        the sink-class vertex reached (``-1`` if none).
        """
        arcs, heads, label = self._arcs, self._heads, self._label
        via = [-1] * len(arcs)
        for vertex in sources:
            via[vertex] = -2
        reached = list(sources)
        for vertex in reached:
            for arc in arcs[vertex]:
                if residual[arc]:
                    head = heads[arc]
                    if via[head] == -1:
                        via[head] = arc
                        if label[head] == sink:
                            return via, reached, head
                        reached.append(head)
        return via, reached, -1
