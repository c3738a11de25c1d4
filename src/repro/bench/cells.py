"""Small hand-crafted layouts and graphs reproducing the paper's figures.

These patterns are used by the unit tests, the examples and the figure-level
reproduction checks:

* :func:`four_clique_contact_cell` — the standard-cell contact pattern of
  Fig. 1 whose decomposition graph contains a 4-clique: a native conflict for
  triple patterning that quadruple patterning resolves.
* :func:`regular_wire_array` — the 1-D regular pattern of Fig. 7 which turns
  into a K5 when ``min_s = 2*s_m + w_m``.
* :func:`figure4_graph`, :func:`figure5_graph`, :func:`figure6_graph` — the
  decomposition graphs drawn in Figs. 4-6 (ordering pitfall, 3-cut rotation,
  GH-tree division).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.options import MIN_SPACING_NM, MIN_WIDTH_NM
from repro.geometry.layout import Layout
from repro.geometry.rect import Rect
from repro.graph.decomposition_graph import DecompositionGraph


def four_clique_contact_cell(
    pitch: int = MIN_WIDTH_NM + 2 * MIN_SPACING_NM,
    contact_size: int = MIN_WIDTH_NM,
    origin: Tuple[int, int] = (0, 0),
) -> Layout:
    """Return the Fig. 1 contact cell: four contacts forming a 4-clique.

    The four contacts sit on the corners of a square whose diagonal spacing is
    still smaller than the quadruple-patterning coloring distance (the default
    pitch of ``w_m + 2*s_m`` = 60 nm keeps the corner-to-corner gap at about
    57 nm < 80 nm), so every pair conflicts.  Triple patterning cannot
    decompose the resulting K4 plus any additional neighbour; quadruple
    patterning colors it without conflicts.
    """
    ox, oy = origin
    layout = Layout(name="four-clique-contacts")
    offsets = [(0, 0), (pitch, 0), (0, pitch), (pitch, pitch)]
    for dx, dy in offsets:
        layout.add_rect(
            Rect(ox + dx, oy + dy, ox + dx + contact_size, oy + dy + contact_size),
            layer="contact",
        )
    return layout


def regular_wire_array(
    num_wires: int = 5,
    wire_length: int = 400,
    wire_width: int = MIN_WIDTH_NM,
    spacing: int = MIN_SPACING_NM,
    layer: str = "metal1",
) -> Layout:
    """Return the Fig. 7 1-D regular wire array.

    ``num_wires`` parallel horizontal wires at minimum pitch.  Fig. 7 uses
    this pattern to show how the conflict neighbourhood of a wire grows with
    the coloring distance: at ``min_s = s_m`` only adjacent tracks conflict,
    while at the quadruple-patterning distance ``2*s_m + 2*w_m`` each wire
    also conflicts with the track two positions away, so dense 2-D layouts
    easily embed K5 / K3,3 and classic planar four-coloring no longer applies.
    """
    layout = Layout(name="regular-wire-array")
    pitch = wire_width + spacing
    for index in range(num_wires):
        y = index * pitch
        layout.add_rect(Rect(0, y, wire_length, y + wire_width), layer=layer)
    return layout


def staircase_wire_pair(
    overlap: int = 100, layer: str = "metal1"
) -> Layout:
    """Two long wires with a stitch-friendly overlap region (stitch demo)."""
    layout = Layout(name="staircase-wires")
    width = MIN_WIDTH_NM
    layout.add_rect(Rect(0, 0, 400, width), layer=layer)
    layout.add_rect(Rect(400 - overlap, 60, 800, 60 + width), layer=layer)
    layout.add_rect(Rect(0, 120, 400, 120 + width), layer=layer)
    return layout


# ---------------------------------------------------------------------------
# Decomposition graphs of the paper's illustrative figures
# ---------------------------------------------------------------------------
def figure4_graph() -> DecompositionGraph:
    """Return the 5-vertex graph of Fig. 4(a).

    Vertices: a=0, b=1, c=2, d=3, e=4.  Vertex ``e`` conflicts with a, b, c
    and d; the outer vertices form a cycle a-b-c-d so that a greedy coloring
    in the order a, b, c, d, e can paint d with the one color that leaves e
    without any legal choice.  Vertex a is additionally color-friendly to d.
    """
    graph = DecompositionGraph.from_edges(
        conflict_edges=[(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)],
        vertices=range(5),
    )
    graph.add_friend_edge(0, 3)
    return graph


def figure5_graph() -> DecompositionGraph:
    """Return the 6-vertex, 3-cut example of Fig. 5(a).

    Component 1 is the triangle {a=0, b=1, c=2}, component 2 the triangle
    {d=3, e=4, f=5}; the 3-cut is {a-d, b-e, c-f}.
    """
    return DecompositionGraph.from_edges(
        conflict_edges=[
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (0, 3),
            (1, 4),
            (2, 5),
        ],
        vertices=range(6),
    )


def figure6_graph() -> DecompositionGraph:
    """Return the 5-vertex graph of Fig. 6(a) used for the GH-tree example.

    Vertices a=0, b=1 form a dense pair connected to a triangle {c=2, d=3}
    and a pendant vertex e=4; the GH-tree of Fig. 6(b) carries weights 3 and 4
    so that 3-cut removal splits the graph into three components
    {a, b}, {c, d} and {e} (Fig. 6(c)).
    """
    return DecompositionGraph.from_edges(
        conflict_edges=[
            # dense pair a-b (two disjoint paths keep their cut at 4)
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (1, 3),
            # c-d edge of the second component
            (2, 3),
            # pendant e attached to d by a 3-cut-ish connection
            (2, 4),
            (3, 4),
        ],
        vertices=range(5),
    )
