"""Graph division pipeline (Section 4) wrapped around any color assigner.

The pipeline applies, in order and only where enabled:

1. independent (connected) component computation,
2. iterative removal of vertices with conflict degree < K,
3. 2-vertex-connected (biconnected) block decomposition, merged back by
   matching the colors of shared cut vertices,
4. GH-tree based (K-1)-cut removal, merged back by color rotation (Lemma 1).

The color-assignment algorithm only ever sees the final, smallest pieces.

Stages 2-4 run in *rank space*: a vertex is its rank in sorted-id order,
read off the component's memoised flat form
(:meth:`~repro.graph.decomposition_graph.DecompositionGraph.to_arrays`) and
one :class:`~repro.core.kernels.adjacency.CSRAdjacency`.  A kernel piece, a
block or a stage-4 part is a sorted list of ranks, never a graph; each final
piece reaches the colorer as a view of its flat form.  Rank order is id
order, so every traversal visits what the same steps on the component graph
would, in the same order, and the colorings are the same.  The peel and its
reinsertion run in the compiled core when it is loaded and K is within
:data:`~repro.core.kernels.MAX_COMPILED_COLORS`; otherwise their references
in :mod:`repro.graph.simplify` run on the same CSR.  The kernel's pieces
come from :func:`rank_components`, in the core that peeled it.
Blocks and K-classes run in the core whenever it is loaded, at any K; the
references are :func:`~repro.graph.biconnected.biconnected_blocks` and
:meth:`~repro.graph.gomory_hu.GomoryHuTree.components_below`, which also
run when the core cannot allocate.  The core repeats the reference's
depth-first search, and K-classes are unique, so the pieces are the same.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.coloring import ColoringAlgorithm
from repro.core.kernels import MAX_COMPILED_COLORS, active_core
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.options import DivisionOptions
from repro.core.rotation import rotation_merge
from repro.graph.biconnected import biconnected_blocks
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.gomory_hu import gomory_hu_tree
from repro.graph.simplify import peel_low_degree_vertices, reinsert_peeled_vertices

# The object-graph stages the division used to call, still attributes of
# this module for the benchmark's layer tracer, which patches them here.
from repro.core.rotation import merge_component_colorings  # noqa: IMP001
from repro.graph.biconnected import biconnected_components  # noqa: IMP001


@dataclass
class DivisionReport:
    """Statistics collected while dividing a graph (ablation / reporting)."""

    num_vertices: int = 0
    num_connected_components: int = 0
    peeled_vertices: int = 0
    num_biconnected_blocks: int = 0
    num_ghtree_parts: int = 0
    largest_colored_piece: int = 0
    colored_pieces: int = 0

    def observe_piece(self, size: int) -> None:
        self.colored_pieces += 1
        self.largest_colored_piece = max(self.largest_colored_piece, size)

    def merge_from(self, other: "DivisionReport") -> None:
        """Fold a per-component report delta into this aggregate.

        Counters add, the largest-piece watermark takes the max; the
        whole-graph fields (``num_vertices``, ``num_connected_components``)
        belong to the aggregate and are left untouched.  Addition and max are
        order-independent, which is what lets
        :func:`repro.runtime.pipeline.color_graph` merge per-component
        reports from any executor and still match the serial pipeline exactly.
        """
        self.peeled_vertices += other.peeled_vertices
        self.num_biconnected_blocks += other.num_biconnected_blocks
        self.num_ghtree_parts += other.num_ghtree_parts
        self.colored_pieces += other.colored_pieces
        self.largest_colored_piece = max(
            self.largest_colored_piece, other.largest_colored_piece
        )

    def component_delta(self) -> "DivisionReport":
        """Return a copy holding only the per-component counters."""
        return DivisionReport(
            peeled_vertices=self.peeled_vertices,
            num_biconnected_blocks=self.num_biconnected_blocks,
            num_ghtree_parts=self.num_ghtree_parts,
            colored_pieces=self.colored_pieces,
            largest_colored_piece=self.largest_colored_piece,
        )


def divide_and_color(
    graph: DecompositionGraph,
    colorer: ColoringAlgorithm,
    division: Optional[DivisionOptions] = None,
    report: Optional[DivisionReport] = None,
) -> Dict[int, int]:
    """Color ``graph`` using ``colorer`` after graph division.

    Returns a complete coloring of the graph.  ``report``, when provided, is
    filled with division statistics.

    The serial reference of the flow, one component after another: the
    library colors through :func:`repro.runtime.pipeline.color_graph`, which
    solves each distinct component once, and the equivalence tests and the
    table benchmarks compare against this function.
    """
    division = division or DivisionOptions()
    report = report if report is not None else DivisionReport()
    report.num_vertices = graph.num_vertices
    if graph.num_vertices == 0:
        return {}

    if division.independent_components:
        components = connected_components(graph)
    else:
        components = [graph.vertices()]
    report.num_connected_components = len(components)

    coloring: Dict[int, int] = {}
    for component in components:
        subgraph = graph.subgraph(component)
        coloring.update(color_component(subgraph, colorer, division, report))
    return coloring


# ---------------------------------------------------------------------------
# Stages 1-4, in rank space
# ---------------------------------------------------------------------------
def rank_components(
    csr: CSRAdjacency, alive: Optional[array] = None, core=None
) -> Tuple[array, List[List[int]]]:
    """Connected components of the ``alive`` ranks over conflict and stitch
    edges (all ranks when ``alive`` is ``None``).

    Returns ``(labels, pieces)``: each rank's component index, ``-1`` when
    not alive, and the components as sorted rank lists ordered by their
    smallest rank.  ``core`` runs the search in ``repro_components``;
    ``None`` runs the same breadth-first search here.
    """
    if core is not None:
        return core.components(csr, alive)
    n = csr.num_vertices
    cs, ca = csr.conflict_start.tolist(), csr.conflict_adj.tolist()
    ss, sa = csr.stitch_start.tolist(), csr.stitch_adj.tolist()
    labels = [-1] * n
    pieces: List[List[int]] = []
    for root in range(n):
        if labels[root] >= 0 or (alive is not None and not alive[root]):
            continue
        index = len(pieces)
        labels[root] = index
        piece = [root]
        for rank in piece:
            for other in ca[cs[rank] : cs[rank + 1]] + sa[ss[rank] : ss[rank + 1]]:
                if labels[other] < 0 and (alive is None or alive[other]):
                    labels[other] = index
                    piece.append(other)
        piece.sort()
        pieces.append(piece)
    return array("i", labels), pieces


def color_component(
    graph: DecompositionGraph,
    colorer: ColoringAlgorithm,
    division: DivisionOptions,
    report: DivisionReport,
) -> Dict[int, int]:
    """Color one connected component through stages 2-4 of the division flow.

    This is the unit of work shared by the serial loop above and every
    executor of :func:`repro.runtime.pipeline.color_graph` (through
    :func:`repro.runtime.component_io.solve_component`): a component is
    self-contained, so coloring it never reads or writes state outside
    ``graph`` and the per-call ``report``.
    """
    flat = graph.to_arrays()
    n = flat.num_vertices
    if n == 0:
        return {}
    num_colors = colorer.num_colors
    csr = CSRAdjacency(flat)

    # Stage 2: peel.  ``alive`` marks the kernel and ``stack`` holds the
    # removed ranks in removal order.  The core that peeled, if any, also
    # splits the kernel and reinserts; otherwise the references do.
    alive = None
    core = None
    stack: Sequence[int] = ()
    if division.low_degree_removal:
        if num_colors <= MAX_COMPILED_COLORS:
            core = active_core()
        peeled = core.peel(num_colors, 2, csr) if core is not None else None
        if peeled is None:
            core = None
            peeled = peel_low_degree_vertices(num_colors, 2, csr)
        alive, _, _, _, stack = peeled
    report.peeled_vertices += len(stack)

    divider = _RankDivider(flat, csr, colorer, division, report)
    # Peeling may disconnect the kernel; treat the pieces independently.
    _, pieces = rank_components(csr, alive, core)
    for piece in pieces:
        divider.color_blocks(piece)

    colors = divider.colors
    reinsert = reinsert_peeled_vertices if core is None else core.reinsert
    reinsert(num_colors, stack, csr, colors)
    ids = flat.vertex_ids
    return {ids[r]: colors[r] for r in range(n)}


class _RankDivider:
    """Stages 3 and 4 of one component, on ranks.

    ``colors`` holds the merged color of every rank a kernel piece colored
    so far, and ``-1`` elsewhere.  ``position`` is the compiled stages'
    rank-to-position scratch, all ``-1`` between calls.
    """

    def __init__(
        self,
        flat,
        csr: CSRAdjacency,
        colorer: ColoringAlgorithm,
        division: DivisionOptions,
        report: DivisionReport,
    ) -> None:
        self.flat = flat
        self.colorer = colorer
        self.division = division
        self.report = report
        self.num_colors = colorer.num_colors
        self.csr = csr
        self.core = active_core()
        self.position = array("i", [-1]) * flat.num_vertices
        # CSR rows as Python lists: a row is one list slice.
        self.conflict = (csr.conflict_start.tolist(), csr.conflict_adj.tolist())
        self.stitch = (csr.stitch_start.tolist(), csr.stitch_adj.tolist())
        self.friend = (csr.friend_start.tolist(), csr.friend_adj.tolist())
        self.colors = array("i", [-1]) * flat.num_vertices
        self._paired: Optional[List[int]] = None
        self._pairs: Tuple[List[Tuple[int, int]], ...] = ()

    # ------------------------------------------------------------ adjacency
    @staticmethod
    def pairs(relation, ranks: Sequence[int], inside) -> List[Tuple[int, int]]:
        """The ``relation`` edges induced on ``ranks`` (ascending; ``inside``
        answers membership), as sorted ``(u, v)`` pairs with ``u < v``."""
        start, adj = relation
        return [
            (u, v)
            for u in ranks
            for v in adj[start[u] : start[u + 1]]
            if v > u and v in inside
        ]

    def block_pairs(self, ranks: List[int]) -> Tuple[List[Tuple[int, int]], ...]:
        """The conflict and stitch :meth:`pairs` induced on ``ranks``.

        Built once per block: stage 4's reference and ``rotation_merge``
        both read the lists of the block last asked for.
        """
        if self._paired is not ranks:
            inside = set(ranks)
            self._paired = ranks
            self._pairs = (
                self.pairs(self.conflict, ranks, inside),
                self.pairs(self.stitch, ranks, inside),
            )
        return self._pairs

    # -------------------------------------------------- stage 3: blocks
    def blocks(self, ranks: List[int]) -> List[List[int]]:
        """The biconnected blocks of the subgraph induced on ``ranks``, as
        :func:`~repro.graph.biconnected.biconnected_components` orders them."""
        if self.core is not None:
            blocks = self.core.blocks(ranks, self.csr, self.position)
            if blocks is not None:
                blocks.sort(key=lambda block: (block[0], len(block)))
                return blocks
        position = {rank: index for index, rank in enumerate(ranks)}.get
        (cs, ca), (ss, sa) = self.conflict, self.stitch
        adjacency = []
        for rank in ranks:
            # Positions are increasing in rank, so a conflict row stays sorted.
            row = [p for p in map(position, ca[cs[rank] : cs[rank + 1]]) if p is not None]
            stitched = [p for p in map(position, sa[ss[rank] : ss[rank + 1]]) if p is not None]
            adjacency.append(sorted(set(row).union(stitched)) if stitched else row)
        return [[ranks[index] for index in block] for block in biconnected_blocks(adjacency)]

    def color_blocks(self, ranks: List[int]) -> None:
        """Color one kernel piece into :attr:`colors`."""
        colors = self.colors
        if not self.division.biconnected_components or len(ranks) <= 3:
            blocks = [ranks]
        else:
            blocks = self.blocks(ranks)
            self.report.num_biconnected_blocks += len(blocks)
        if len(blocks) <= 1:
            for rank, color in zip(ranks, self.color_cut(ranks)):
                colors[rank] = color
            return

        # Breadth-first traversal of the block-cut structure so every new
        # block shares at least one already-colored cut vertex with the
        # merged region.
        blocks_of_vertex: Dict[int, List[int]] = {}
        for index, block in enumerate(blocks):
            for vertex in block:
                blocks_of_vertex.setdefault(vertex, []).append(index)
        order: List[int] = []
        visited: Set[int] = set()
        for seed in range(len(blocks)):
            if seed in visited:
                continue
            visited.add(seed)
            queue: deque = deque([seed])
            while queue:
                current = queue.popleft()
                order.append(current)
                for vertex in blocks[current]:
                    for other in blocks_of_vertex[vertex]:
                        if other not in visited:
                            visited.add(other)
                            queue.append(other)

        for index in order:
            block = blocks[index]
            block_colors = self.color_cut(block)
            shared = [
                (color, colors[rank])
                for rank, color in zip(block, block_colors)
                if colors[rank] >= 0
            ]
            permutation = _matching_permutation(shared, self.num_colors)
            for rank, color in zip(block, block_colors):
                if colors[rank] < 0:
                    colors[rank] = permutation[color]

    # --------------------------------------------- stage 4: (K-1)-cuts
    def color_cut(self, ranks: List[int]) -> List[int]:
        """Colors of ``ranks`` (aligned) after GH-tree (K-1)-cut removal."""
        division, report, num_colors = self.division, self.report, self.num_colors
        small = len(ranks) <= max(division.ghtree_minimum_size, num_colors + 1)
        if not division.ghtree_cut_removal or small:
            report.observe_piece(len(ranks))
            return self.color_piece(ranks)

        parts = self.k_classes(ranks)
        report.num_ghtree_parts += len(parts)
        if len(parts) <= 1:
            report.observe_piece(len(ranks))
            return self.color_piece(ranks)

        part_colors: List[List[int]] = []
        for part in parts:
            report.observe_piece(len(part))
            part_colors.append(self.color_piece(part))
        conflict, stitch = self.block_pairs(ranks)
        merged = rotation_merge(
            parts, part_colors, conflict, stitch, num_colors, self.colorer.options.alpha
        )
        return [merged[rank] for rank in ranks]

    def k_classes(self, ranks: List[int]) -> List[List[int]]:
        """The K-classes of the subgraph induced on ``ranks``, each sorted,
        ordered by their smallest rank (the stage-4 pieces)."""
        if self.core is not None:
            parts = self.core.kclasses(self.num_colors, ranks, self.csr, self.position)
            if parts is not None:
                return parts
        conflict, stitch = self.block_pairs(ranks)
        return gomory_hu_tree(ranks, conflict + stitch).components_below(self.num_colors)

    def color_piece(self, ranks: List[int]) -> List[int]:
        """Hand the piece induced on ``ranks`` to the colorer; its colors."""
        position = {rank: index for index, rank in enumerate(ranks)}

        def local(relation) -> array:
            return array(
                "I",
                [
                    index
                    for u, v in self.pairs(relation, ranks, position)
                    for index in (position[u], position[v])
                ],
            )

        graph = self.flat.induced_graph(
            ranks, local(self.conflict), local(self.stitch), local(self.friend)
        )
        coloring = self.colorer.color(graph)
        return [coloring[vertex] for vertex in graph.to_arrays().vertex_ids]


def _matching_permutation(
    shared: Sequence[Tuple[int, int]], num_colors: int
) -> List[int]:
    """Return a color permutation aligning a block with already-fixed vertices.

    ``shared`` holds the ``(block color, fixed color)`` of each shared vertex,
    in vertex order.  In a block-cut tree traversal there is normally
    exactly one shared cut vertex; with several (possible when blocks are
    processed out of tree order) the first consistent demands win and the
    rest of the permutation is filled bijectively.  With none, the identity.
    """
    permutation: Dict[int, int] = {}
    used: Set[int] = set()
    for source, target in shared:
        if source in permutation or target in used:
            continue
        permutation[source] = target
        used.add(target)
    free_targets = [c for c in range(num_colors) if c not in used]
    for color in range(num_colors):
        if color not in permutation:
            permutation[color] = free_targets.pop(0)
    return [permutation[color] for color in range(num_colors)]
