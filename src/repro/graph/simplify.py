"""Graph simplification: low-degree vertex peeling and vertex merging.

Two reductions shared by the graph-division stage and the color-assignment
algorithms:

* **Low-degree peeling** — a vertex with conflict degree < K and stitch degree
  < 2 can always be colored after its neighbours without creating a conflict
  (there are K colors and fewer than K constrained neighbours), so it is
  removed and pushed on a stack, possibly enabling further removals.  Popping
  the stack after coloring restores a complete, conflict-safe assignment.
  Both run in *rank space*, on one component's
  :class:`~repro.core.kernels.adjacency.CSRAdjacency` (a vertex is its
  position in sorted-id order): they are the references of the compiled
  ``repro_peel`` and ``repro_reinsert``, with the same arguments, results
  and traversal, and no bound on the number of colors.
* **Merged graphs** — the SDP mapping stage unions vertices that the
  relaxation places (almost) parallel; the merged graph carries aggregated
  conflict/stitch weights between groups so the exact backtracking stage can
  optimise the true objective.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import GraphError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.unionfind import UnionFind


def peel_low_degree_vertices(
    num_colors: int, max_stitch_degree: int, csr
) -> Tuple[array, array, array, array, array]:
    """Iteratively remove non-critical vertices (Algorithm 2, lines 1-4).

    A rank is non-critical while its conflict degree among the live ranks
    is below ``num_colors`` and its stitch degree below
    ``max_stitch_degree``.  ``csr`` is any object with the
    :class:`~repro.core.kernels.adjacency.CSRAdjacency` attributes.

    Returns ``(alive, cdeg, sdeg, fdeg, stack)``, as ``CompiledCore.peel``
    does: ``alive`` (int8) marks the kernel; the int32 live conflict,
    stitch and color-friendly degrees, each frozen at its removal for a
    peeled rank; and the removed ranks in removal order (re-insert by
    popping from the end).  The queue is LIFO, seeded in rank order and
    guarded by a pending flag; degrees only fall, so it holds removable live
    ranks only, each once.  A removed rank enqueues its now removable
    neighbours in rank order.
    """
    n = csr.num_vertices
    cs, ca = csr.conflict_start.tolist(), csr.conflict_adj.tolist()
    ss, sa = csr.stitch_start.tolist(), csr.stitch_adj.tolist()
    fs, fa = csr.friend_start.tolist(), csr.friend_adj.tolist()
    cdeg = [cs[r + 1] - cs[r] for r in range(n)]
    sdeg = [ss[r + 1] - ss[r] for r in range(n)]
    fdeg = [fs[r + 1] - fs[r] for r in range(n)]
    alive = [1] * n
    queue = [r for r in range(n) if cdeg[r] < num_colors and sdeg[r] < max_stitch_degree]
    pending = [False] * n
    for rank in queue:
        pending[rank] = True
    stack: List[int] = []
    while queue:
        rank = queue.pop()
        pending[rank] = False
        conflict = [other for other in ca[cs[rank] : cs[rank + 1]] if alive[other]]
        stitch = [other for other in sa[ss[rank] : ss[rank + 1]] if alive[other]]
        alive[rank] = 0
        stack.append(rank)
        for other in conflict:
            cdeg[other] -= 1
        for other in stitch:
            sdeg[other] -= 1
        for other in fa[fs[rank] : fs[rank + 1]]:
            if alive[other]:
                fdeg[other] -= 1
        for other in sorted(set(conflict).union(stitch)) if stitch else conflict:
            if not pending[other] and cdeg[other] < num_colors and sdeg[other] < max_stitch_degree:
                pending[other] = True
                queue.append(other)
    return (
        array("b", alive),
        array("i", cdeg),
        array("i", sdeg),
        array("i", fdeg),
        array("i", stack),
    )


def reinsert_peeled_vertices(
    num_colors: int, stack: Sequence[int], csr, colors
) -> None:
    """Pop the peel ``stack`` and give each rank a legal color, in place.

    ``colors`` holds one color per rank of ``csr``, ``-1`` for uncolored,
    as ``CompiledCore.reinsert`` reads it.  A popped rank takes, in order of
    preference: the color of its first colored stitch neighbour (in rank
    order) that no colored conflict neighbour has, which avoids a stitch;
    the lowest such free color; and — if every color is blocked, which can
    only happen for a rank that was not peel-eligible — the lowest color
    with the fewest colored conflict neighbours.
    """
    cs, ca = csr.conflict_start, csr.conflict_adj
    ss, sa = csr.stitch_start, csr.stitch_adj
    for rank in reversed(stack):
        taken = [colors[other] for other in ca[cs[rank] : cs[rank + 1]]]
        blocked = set(taken)
        stitched = (colors[other] for other in sa[ss[rank] : ss[rank + 1]])
        picked = next((c for c in stitched if c >= 0 and c not in blocked), -1)
        if picked < 0:
            picked = next((c for c in range(num_colors) if c not in blocked), -1)
        if picked < 0:
            picked = min(range(num_colors), key=taken.count)
        colors[rank] = picked


# --------------------------------------------------------------------------
# Merged graphs
# --------------------------------------------------------------------------
@dataclass
class MergedGraph:
    """A weighted contraction of a decomposition graph.

    Attributes
    ----------
    groups:
        Original vertex ids per merged node (node id = index into this list).
    conflict_weight:
        ``{(i, j): w}`` — number of original conflict edges between groups i
        and j; assigning the groups the same color costs ``w`` conflicts.
    stitch_weight:
        ``{(i, j): w}`` — number of original stitch edges between groups;
        assigning them different colors costs ``w`` stitches.
    internal_conflicts:
        Conflict edges whose endpoints were merged into the same group; these
        conflicts are paid no matter the coloring.
    """

    groups: List[List[int]]
    conflict_weight: Dict[Tuple[int, int], int] = field(default_factory=dict)
    stitch_weight: Dict[Tuple[int, int], int] = field(default_factory=dict)
    internal_conflicts: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.groups)

    def group_of(self) -> Dict[int, int]:
        """Return the original-vertex -> merged-node index map."""
        mapping: Dict[int, int] = {}
        for node, members in enumerate(self.groups):
            for vertex in members:
                mapping[vertex] = node
        return mapping

    def expand_coloring(self, node_coloring: Dict[int, int]) -> Dict[int, int]:
        """Expand a merged-node coloring back to original vertex ids."""
        coloring: Dict[int, int] = {}
        for node, color in node_coloring.items():
            for vertex in self.groups[node]:
                coloring[vertex] = color
        return coloring

    def coloring_cost(
        self, node_coloring: Dict[int, int], alpha: float = 0.1
    ) -> Tuple[int, int, float]:
        """Return (conflicts, stitches, weighted cost) of a node coloring.

        Internal conflicts are included in the conflict count.
        """
        conflicts = self.internal_conflicts
        stitches = 0
        for (a, b), weight in self.conflict_weight.items():
            if node_coloring.get(a) == node_coloring.get(b):
                conflicts += weight
        for (a, b), weight in self.stitch_weight.items():
            if node_coloring.get(a) != node_coloring.get(b):
                stitches += weight
        return conflicts, stitches, conflicts + alpha * stitches


def build_merged_graph(
    graph: DecompositionGraph,
    merge_pairs: Iterable[Tuple[int, int]],
) -> MergedGraph:
    """Contract ``graph`` by unioning every pair in ``merge_pairs``.

    Reads only the graph's flat form; a pair with a vertex outside the
    graph raises :class:`~repro.errors.GraphError`.
    """
    flat = graph.to_arrays()
    rank = {vertex: index for index, vertex in enumerate(flat.vertex_ids)}
    uf = UnionFind(range(flat.num_vertices))
    for a, b in merge_pairs:
        if a not in rank or b not in rank:
            raise GraphError(f"merge pair ({a}, {b}) not in graph")
        uf.union(rank[a], rank[b])
    return contract_ranks(flat, [uf.find(index) for index in range(flat.num_vertices)])


def contract_ranks(flat, label: Sequence[int]) -> MergedGraph:
    """The merged graph of ``flat`` whose groups are the ranks sharing a
    ``label``.

    Groups come ordered by their smallest vertex, each sorted, and the
    weights are keyed in the order of the sorted edge lists (conflict
    edges, then stitch edges): the float order of
    :func:`~repro.core.backtrack.search_setup` depends on it.
    """
    node_of: Dict[int, int] = {}
    groups: List[List[int]] = []
    node = []
    for vertex, group in zip(flat.vertex_ids, label):
        index = node_of.setdefault(group, len(groups))
        if index == len(groups):
            groups.append([])
        groups[index].append(vertex)
        node.append(index)

    merged = MergedGraph(groups=groups)
    edges = flat.conflict_edges
    for u, v in zip(edges[0::2], edges[1::2]):
        a, b = node[u], node[v]
        if a == b:
            merged.internal_conflicts += 1
            continue
        key = (a, b) if a < b else (b, a)
        merged.conflict_weight[key] = merged.conflict_weight.get(key, 0) + 1
    edges = flat.stitch_edges
    for u, v in zip(edges[0::2], edges[1::2]):
        a, b = node[u], node[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        merged.stitch_weight[key] = merged.stitch_weight.get(key, 0) + 1
    return merged
