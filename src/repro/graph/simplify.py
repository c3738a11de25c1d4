"""Graph simplification: low-degree vertex peeling and vertex merging.

Two reductions shared by the graph-division stage and the color-assignment
algorithms:

* **Low-degree peeling** — a vertex with conflict degree < K and stitch degree
  < 2 can always be colored after its neighbours without creating a conflict
  (there are K colors and fewer than K constrained neighbours), so it is
  removed and pushed on a stack, possibly enabling further removals.  Popping
  the stack after coloring restores a complete, conflict-safe assignment.
* **Merged graphs** — the SDP mapping stage unions vertices that the
  relaxation places (almost) parallel; the merged graph carries aggregated
  conflict/stitch weights between groups so the exact backtracking stage can
  optimise the true objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.unionfind import UnionFind


def peel_low_degree_vertices(
    graph: DecompositionGraph,
    num_colors: int,
    max_stitch_degree: int = 2,
) -> Tuple[DecompositionGraph, List[int]]:
    """Iteratively remove non-critical vertices.

    A vertex is non-critical when its conflict degree is below ``num_colors``
    and its stitch degree is below ``max_stitch_degree`` (Algorithm 2,
    lines 1-4, with ``num_colors`` = 4 in QPLD).

    Returns the peeled copy of the graph and the removal stack (in removal
    order; re-insert by popping from the end).
    """
    work = graph.copy()
    stack: List[int] = []
    # Seed with all currently removable vertices, then propagate lazily.
    candidates = [
        v
        for v in work.vertices()
        if work.conflict_degree(v) < num_colors
        and work.stitch_degree(v) < max_stitch_degree
    ]
    pending = set(candidates)
    queue = list(candidates)
    while queue:
        vertex = queue.pop()
        pending.discard(vertex)
        if not work.has_vertex(vertex):
            continue
        if (
            work.conflict_degree(vertex) >= num_colors
            or work.stitch_degree(vertex) >= max_stitch_degree
        ):
            continue
        neighbours = work.neighbors(vertex)
        work.remove_vertex(vertex)
        stack.append(vertex)
        # Sorted so the peel order is a function of graph *content*: raw set
        # iteration order depends on the container's insertion history, which
        # differs between an in-process graph and its pickled copy in a
        # worker, and the peel order feeds the final coloring.
        for other in sorted(neighbours):
            if (
                other not in pending
                and work.has_vertex(other)
                and work.conflict_degree(other) < num_colors
                and work.stitch_degree(other) < max_stitch_degree
            ):
                pending.add(other)
                queue.append(other)
    return work, stack


def legal_color(
    graph: DecompositionGraph,
    vertex: int,
    coloring: Dict[int, int],
    num_colors: int,
) -> int:
    """Pick a color for ``vertex`` that avoids colored conflict neighbours.

    Preference order: a color shared by a stitch neighbour (avoids a stitch),
    then the lowest free color, then — if every color is blocked, which can
    only happen for vertices that were not peel-eligible — the color
    minimising new conflicts.
    """
    blocked: Set[int] = {
        coloring[n] for n in graph.conflict_neighbors(vertex) if n in coloring
    }
    # Sorted for determinism: with several differently-colored stitch
    # neighbours the first legal one wins, so the visit order must not depend
    # on set layout (see the peeling loop above).
    stitch_colors = [
        coloring[n] for n in sorted(graph.stitch_neighbors(vertex)) if n in coloring
    ]
    for color in stitch_colors:
        if color not in blocked:
            return color
    for color in range(num_colors):
        if color not in blocked:
            return color
    # Fall back to least-damaging color.
    damage = [0] * num_colors
    for n in graph.conflict_neighbors(vertex):
        if n in coloring:
            damage[coloring[n]] += 1
    return min(range(num_colors), key=lambda c: damage[c])


def reinsert_peeled_vertices(
    graph: DecompositionGraph,
    coloring: Dict[int, int],
    stack: Sequence[int],
    num_colors: int,
) -> Dict[int, int]:
    """Pop the peel stack and assign each vertex a legal color.

    ``graph`` must be the original (un-peeled) graph; ``coloring`` is extended
    in place and also returned.
    """
    for vertex in reversed(list(stack)):
        coloring[vertex] = legal_color(graph, vertex, coloring, num_colors)
    return coloring


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
    """Contract ``graph`` by unioning every pair in ``merge_pairs``."""
    uf = UnionFind(graph.vertices())
    for a, b in merge_pairs:
        if not graph.has_vertex(a) or not graph.has_vertex(b):
            raise GraphError(f"merge pair ({a}, {b}) not in graph")
        uf.union(a, b)
    groups = uf.groups()
    node_of: Dict[int, int] = {}
    for node, members in enumerate(groups):
        for vertex in members:
            node_of[vertex] = node

    merged = MergedGraph(groups=groups)
    for u, v in graph.conflict_edges():
        a, b = node_of[u], node_of[v]
        if a == b:
            merged.internal_conflicts += 1
            continue
        key = (a, b) if a < b else (b, a)
        merged.conflict_weight[key] = merged.conflict_weight.get(key, 0) + 1
    for u, v in graph.stitch_edges():
        a, b = node_of[u], node_of[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        merged.stitch_weight[key] = merged.stitch_weight.get(key, 0) + 1
    return merged
