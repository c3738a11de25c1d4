"""Decomposition graph construction from a layout (Fig. 2, first stage).

The construction works on whole arrays of one layer's rectangles, in exact
int64 arithmetic, and makes three passes:

1. *Conflict neighbours* — one sort-and-sweep over the shapes' rectangles
   (:func:`~repro.geometry.distance.close_rect_pairs`) at radius ``min_s``
   yields every pair of features closer than ``min_s``.
2. *Stitch insertion* — every feature with at least one conflict neighbour
   is offered projection-based stitch candidates, all features at once
   (:func:`~repro.graph.stitch.stitch_positions`), and split into fragments.
3. *Fragment edges* — a second sweep over the fragments' rectangles at
   radius ``min_s + half_pitch``, skipping pairs from one shape, gives every
   fragment pair's exact spacing: below ``min_s`` a conflict edge, inside
   the band ``[min_s, min_s + half_pitch)`` a color-friendly edge
   (Definition 2).  Consecutive fragments of a feature are linked by stitch
   edges, and :meth:`DecompositionGraph.from_parts` assembles the graph in
   one call.

Every fragment rectangle lies inside its shape's rectangles, so two
fragments can only be that close when their shapes are: the fragment sweep
finds exactly the edges a shape-level search followed by a fragment-level
re-check of the close shape pairs would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.distance import close_rect_pairs
from repro.geometry.layout import Layout
from repro.geometry.point import COORDINATE_MAX
from repro.geometry.rect import Rect, rect_array
from repro.graph.decomposition_graph import DecompositionGraph, VertexData
from repro.graph.stitch import split_at, stitch_positions


@dataclass
class ConstructionOptions:
    """Parameters of the decomposition-graph construction.

    Attributes
    ----------
    min_coloring_distance:
        ``min_s`` in database units; features closer than this conflict.
        The paper uses 80 nm for quadruple and 110 nm for pentuple patterning
        on a 20 nm half-pitch Metal1 layer.
    half_pitch:
        Half pitch ``hp`` used by the color-friendly band
        ``(min_s, min_s + hp)``.
    enable_stitches:
        When False features are never split (no stitch edges).
    min_fragment_length:
        Minimum printable fragment length along the cut axis (``w_m``).
    max_stitches_per_feature:
        Upper bound on stitch candidates kept per feature.
    stitch_projection_margin:
        Extra margin added to neighbour projections during candidate search.
    enable_color_friendly:
        When False color-friendly edges are not computed (saves time when the
        linear color assignment is not used).
    """

    min_coloring_distance: int = 80
    half_pitch: int = 20
    enable_stitches: bool = True
    min_fragment_length: int = 20
    max_stitches_per_feature: int = 2
    stitch_projection_margin: int = 0
    enable_color_friendly: bool = True

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        if self.min_coloring_distance <= 0:
            raise ConfigurationError("min_coloring_distance must be positive")
        if self.half_pitch < 0:
            raise ConfigurationError("half_pitch must be non-negative")
        if self.min_fragment_length <= 0:
            raise ConfigurationError("min_fragment_length must be positive")
        if self.max_stitches_per_feature < 0:
            raise ConfigurationError("max_stitches_per_feature must be >= 0")
        if self.stitch_projection_margin < 0:
            raise ConfigurationError("stitch_projection_margin must be >= 0")
        # Lengths beyond the coordinate range are meaningless, and bounding
        # them keeps the int64 array passes exact.
        for name in ("min_fragment_length", "stitch_projection_margin"):
            if getattr(self, name) > COORDINATE_MAX:
                raise ConfigurationError(f"{name} must be at most {COORDINATE_MAX}")
        if self.min_coloring_distance + self.half_pitch > COORDINATE_MAX:
            raise ConfigurationError(
                f"min_coloring_distance + half_pitch must be at most {COORDINATE_MAX}"
            )


@dataclass
class ConstructionResult:
    """Output of :func:`build_decomposition_graph`.

    Attributes
    ----------
    graph:
        The decomposition graph; vertex ids index :attr:`fragments`.
    fragments:
        Rectangle decomposition of each vertex's geometry.
    shape_vertices:
        Vertex ids belonging to each original shape id, in cut-axis order.
    layer:
        Layer the graph was built from.
    options:
        The options used (for reporting).
    """

    graph: DecompositionGraph
    fragments: Dict[int, List[Rect]]
    shape_vertices: Dict[int, List[int]]
    layer: str
    options: ConstructionOptions

    @property
    def num_features(self) -> int:
        """Number of original (pre-stitch) features."""
        return len(self.shape_vertices)


def build_decomposition_graph(
    layout: Layout,
    layer: str = "metal1",
    options: Optional[ConstructionOptions] = None,
) -> ConstructionResult:
    """Build the decomposition graph of one layout layer.

    Raises :class:`GeometryError` for a coordinate outside the signed 32-bit
    range the array passes compute in.
    """
    options = options or ConstructionOptions()
    options.validate()
    shapes = layout.shapes_on_layer(layer)
    shape_rects = [shape.rects() for shape in shapes]
    sizes = np.array([len(rects) for rects in shape_rects], dtype=np.int64)
    boxes = rect_array([rect for rects in shape_rects for rect in rects])
    shape_of_row = np.repeat(np.arange(len(shapes)), sizes)

    cuts = _stitch_candidates(boxes, shape_of_row, sizes, options)

    # ---------------------------------------------------------------- split
    pieces_of = {
        index: split_at(shape_rects[index], positions, horizontal)
        for index, (positions, horizontal) in cuts.items()
    }
    vertex_data: Dict[int, VertexData] = {}
    fragments: Dict[int, List[Rect]] = {}
    shape_vertices: Dict[int, List[int]] = {}
    stitch_edges: List[Tuple[int, int]] = []
    first_vertex: List[int] = []
    split_rows: List[Rect] = []
    split_owners: List[int] = []
    split_shapes: List[int] = []
    vertex = 0
    for index, shape in enumerate(shapes):
        sid = shape.shape_id
        first_vertex.append(vertex)
        pieces = pieces_of.get(index)
        if pieces is None:
            vertex_data[vertex] = VertexData(sid)
            fragments[vertex] = shape_rects[index]
            shape_vertices[sid] = [vertex]
            vertex += 1
            continue
        vertex_ids = list(range(vertex, vertex + len(pieces)))
        for fragment_index, piece in enumerate(pieces):
            vertex_data[vertex] = VertexData(sid, fragment_index)
            fragments[vertex] = piece
            split_rows.extend(piece)
            split_owners.extend([vertex] * len(piece))
            split_shapes.extend([index] * len(piece))
            vertex += 1
        shape_vertices[sid] = vertex_ids
        stitch_edges.extend(zip(vertex_ids[:-1], vertex_ids[1:]))

    # ------------------------------------------------------- fragment edges
    # Unsplit shapes keep their rows; split ones contribute their pieces.
    whole = np.ones(len(shapes), dtype=bool)
    whole[list(pieces_of)] = False
    kept = whole[shape_of_row]
    fragment_boxes = np.concatenate((boxes[kept], rect_array(split_rows)))
    owners = np.concatenate(
        (
            np.array(first_vertex, dtype=np.int64)[shape_of_row[kept]],
            np.array(split_owners, dtype=np.int64),
        )
    )
    groups = np.concatenate(
        (shape_of_row[kept], np.array(split_shapes, dtype=np.int64))
    )
    min_s = options.min_coloring_distance
    radius = min_s + options.half_pitch if options.enable_color_friendly else min_s
    low, high, d2 = close_rect_pairs(fragment_boxes, owners, radius, groups)
    conflict = d2 < min_s * min_s
    graph = DecompositionGraph.from_parts(
        vertex_data,
        list(zip(low[conflict].tolist(), high[conflict].tolist())),
        stitch_edges,
        list(zip(low[~conflict].tolist(), high[~conflict].tolist())),
    )
    return ConstructionResult(
        graph=graph,
        fragments=fragments,
        shape_vertices=shape_vertices,
        layer=layer,
        options=options,
    )


def _stitch_candidates(
    boxes: np.ndarray,
    shape_of_row: np.ndarray,
    sizes: np.ndarray,
    options: ConstructionOptions,
) -> Dict[int, Tuple[List[int], bool]]:
    """Return ``{shape index: (sorted cut positions, horizontal)}`` for every
    shape offered stitch candidates.

    Only a shape with a conflict neighbour is offered candidates; each
    neighbour projects all of its rectangles.
    """
    if not options.enable_stitches:
        return {}
    a, b, _ = close_rect_pairs(boxes, shape_of_row, options.min_coloring_distance)
    if not len(a):
        return {}
    shape = np.concatenate((a, b))
    neighbour = np.concatenate((b, a))
    has_neighbour = np.zeros(len(sizes), dtype=bool)
    has_neighbour[shape] = True
    features = np.flatnonzero(has_neighbour)
    slot_of_shape = np.cumsum(has_neighbour) - 1

    # A shape's rows are consecutive, so its bounding box is one reduceat.
    starts = np.cumsum(sizes) - sizes
    feature_boxes = np.stack(
        (
            np.minimum.reduceat(boxes[:, 0], starts),
            np.minimum.reduceat(boxes[:, 1], starts),
            np.maximum.reduceat(boxes[:, 2], starts),
            np.maximum.reduceat(boxes[:, 3], starts),
        ),
        axis=1,
    )[features]
    repeats = sizes[neighbour]
    rows = np.arange(int(repeats.sum())) + np.repeat(
        starts[neighbour] - (np.cumsum(repeats) - repeats), repeats
    )
    found, positions, horizontal = stitch_positions(
        feature_boxes,
        np.repeat(slot_of_shape[shape], repeats),
        boxes[rows],
        min_fragment_length=options.min_fragment_length,
        projection_margin=options.stitch_projection_margin,
        max_candidates=options.max_stitches_per_feature,
    )
    cuts: Dict[int, List[int]] = {}
    for slot, position in zip(found.tolist(), positions.tolist()):
        cuts.setdefault(slot, []).append(position)
    indices, across = features.tolist(), horizontal.tolist()
    return {indices[slot]: (cut, across[slot]) for slot, cut in cuts.items()}
