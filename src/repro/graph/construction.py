"""Decomposition graph construction from a layout (Fig. 2, first stage).

The construction works on whole arrays of one layer's rectangles, in exact
int64 arithmetic.  It starts from a :class:`Layout` (each shape's cached
``rects()``) or from the layer's packed
:class:`~repro.geometry.outlines.Outlines` (a served request), turns either
into one array of rectangle rows, and makes three passes:

1. *Conflict neighbours* — one sort-and-sweep over the shapes' rectangles
   (:func:`~repro.geometry.distance.close_rect_pairs`) at radius ``min_s``
   yields every pair of features closer than ``min_s``.
2. *Stitch insertion* — every feature with at least one conflict neighbour
   is offered projection-based stitch candidates, all features at once
   (:func:`~repro.graph.stitch.stitch_positions`), and split into fragments
   (:func:`~repro.graph.stitch.split_rows`).
3. *Fragment edges* — a second sweep over the fragments' rectangles at
   radius ``min_s + half_pitch``, skipping pairs from one shape, gives every
   fragment pair's exact spacing: below ``min_s`` a conflict edge, inside
   the band ``[min_s, min_s + half_pitch)`` a color-friendly edge
   (Definition 2).  Consecutive fragments of a feature are linked by stitch
   edges.  These arrays are already the graph's canonical flat form, and
   the graph returned is a view of it
   (:meth:`DecompositionGraph.from_flat`): the division and the compiled
   colorers read only the flat form, and the adjacency sets are built only
   if a caller asks for them.

Every fragment rectangle lies inside its shape's rectangles, so two
fragments can only be that close when their shapes are: the fragment sweep
finds exactly the edges a shape-level search followed by a fragment-level
re-check of the close shape pairs would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.distance import close_rect_pairs
from repro.geometry.layout import Layout
from repro.geometry.outlines import Outlines
from repro.geometry.point import COORDINATE_MAX
from repro.geometry.rect import Rect, rect_array
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.flat import FlatGraph
from repro.graph.stitch import split_rows, stitch_positions


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
        The decomposition graph, a view of its flat form; vertex ids index
        the fragment arrays.
    fragment_boxes:
        int64 ``(m, 4)`` array: the rectangle rows of every vertex's
        geometry, vertex after vertex.
    fragment_vertices:
        int64 ``(m,)`` array: the vertex of each row of
        :attr:`fragment_boxes`, non-decreasing.
    vertex_shapes:
        int64 ``(v,)`` array: the original shape id of each vertex.
    layer:
        Layer the graph was built from.
    options:
        The options used (for reporting).
    """

    graph: DecompositionGraph
    fragment_boxes: np.ndarray
    fragment_vertices: np.ndarray
    vertex_shapes: np.ndarray
    layer: str
    options: ConstructionOptions

    @property
    def fragments(self) -> Dict[int, List[Rect]]:
        """Rectangle decomposition of each vertex's geometry (built per call)."""
        fragments: Dict[int, List[Rect]] = {}
        for vertex, row in zip(
            self.fragment_vertices.tolist(), self.fragment_boxes.tolist()
        ):
            fragments.setdefault(vertex, []).append(Rect(*row))
        return fragments

    @property
    def shape_vertices(self) -> Dict[int, List[int]]:
        """Vertex ids of each original shape id, in cut-axis order (built per call)."""
        shape_vertices: Dict[int, List[int]] = {}
        for vertex, shape_id in enumerate(self.vertex_shapes.tolist()):
            shape_vertices.setdefault(shape_id, []).append(vertex)
        return shape_vertices

    @property
    def num_features(self) -> int:
        """Number of original (pre-stitch) features."""
        return len(np.unique(self.vertex_shapes))


def build_decomposition_graph(
    layout: Union[Layout, Outlines],
    layer: str = "metal1",
    options: Optional[ConstructionOptions] = None,
) -> ConstructionResult:
    """Build the decomposition graph of one layout layer.

    ``layout`` is a :class:`Layout`, read on ``layer``, or the packed
    :class:`Outlines` of the layer's shapes, which ``layer`` then only
    names.  Raises :class:`GeometryError` for a coordinate outside the
    signed 32-bit range the array passes compute in.
    """
    options = options or ConstructionOptions()
    options.validate()
    if isinstance(layout, Outlines):
        boxes, sizes = layout.rect_rows()
        shape_ids = layout.shape_ids
    else:
        shapes = layout.shapes_on_layer(layer)
        shape_rects = [shape.rects() for shape in shapes]
        sizes = np.array([len(rects) for rects in shape_rects], dtype=np.int64)
        boxes = rect_array([rect for rects in shape_rects for rect in rects])
        shape_ids = np.array([shape.shape_id for shape in shapes], dtype=np.int64)
    count = len(sizes)
    shape_of_row = np.repeat(np.arange(count), sizes)

    # ---------------------------------------------------------------- split
    cut_shapes, positions, horizontal = _stitch_candidates(
        boxes, shape_of_row, sizes, options
    )
    offered = np.bincount(cut_shapes, minlength=count)
    split = offered > 0
    rows = np.flatnonzero(split[shape_of_row])
    row_shapes = shape_of_row[rows]
    per_row = offered[row_shapes]
    first_cut = np.cumsum(offered) - offered
    pieces, piece_rows, slots = split_rows(
        boxes[rows],
        horizontal[row_shapes],
        np.repeat(np.arange(len(rows)), per_row),
        positions[_ranges(first_cut[row_shapes], per_row)],
    )
    # One fragment per (shape, slot), in slot order; its pieces row by row.
    piece_shapes = row_shapes[piece_rows]
    order = np.argsort(
        piece_shapes * (int(slots.max(initial=0)) + 1) + slots, kind="stable"
    )
    pieces, piece_shapes, slots = pieces[order], piece_shapes[order], slots[order]
    starts = np.ones(len(slots), dtype=bool)
    starts[1:] = (piece_shapes[1:] != piece_shapes[:-1]) | (slots[1:] != slots[:-1])
    fragment_shapes = piece_shapes[starts]
    # Vertices in shape order: one per unsplit shape, one per fragment.
    vertex_counts = np.where(split, np.bincount(fragment_shapes, minlength=count), 1)
    first_vertex = np.cumsum(vertex_counts) - vertex_counts
    fragment_vertex = (
        first_vertex[fragment_shapes]
        + np.arange(len(fragment_shapes))
        - np.searchsorted(fragment_shapes, fragment_shapes)
    )
    piece_vertices = fragment_vertex[np.cumsum(starts) - 1]

    shape_of_vertex = np.repeat(np.arange(count), vertex_counts)
    fragment_index = np.arange(len(shape_of_vertex)) - first_vertex[shape_of_vertex]
    vertex_shapes = shape_ids[shape_of_vertex]
    later = np.flatnonzero(fragment_index > 0)

    # ------------------------------------------------------- fragment edges
    # Unsplit shapes keep their rows; split ones contribute their pieces.
    kept = ~split[shape_of_row]
    fragment_boxes = np.concatenate((boxes[kept], pieces))
    owners = np.concatenate((first_vertex[shape_of_row[kept]], piece_vertices))
    groups = np.concatenate((shape_of_row[kept], piece_shapes))
    min_s = options.min_coloring_distance
    radius = min_s + options.half_pitch if options.enable_color_friendly else min_s
    low, high, d2 = close_rect_pairs(fragment_boxes, owners, radius, groups)
    conflict = d2 < min_s * min_s
    # Vertex ids are 0..n-1, so a vertex is its own rank, and every edge
    # list is already sorted unique u < v pairs: the flat form as is.
    graph = DecompositionGraph.from_flat(
        FlatGraph(
            vertex_ids=_packed("q", np.arange(len(vertex_shapes))),
            shape_ids=_packed("q", vertex_shapes),
            fragments=_packed("I", fragment_index),
            weights=array("I", [1]) * len(vertex_shapes),
            conflict_edges=_packed("I", np.stack((low[conflict], high[conflict]), axis=1)),
            stitch_edges=_packed("I", np.stack((later - 1, later), axis=1)),
            friend_edges=_packed("I", np.stack((low[~conflict], high[~conflict]), axis=1)),
        )
    )
    by_vertex = np.argsort(owners, kind="stable")
    return ConstructionResult(
        graph=graph,
        fragment_boxes=fragment_boxes[by_vertex],
        fragment_vertices=owners[by_vertex],
        vertex_shapes=vertex_shapes,
        layer=layer,
        options=options,
    )


def _packed(typecode: str, values: np.ndarray) -> array:
    """``values`` as an ``array`` of ``typecode`` (its C type, row by row)."""
    packed = array(typecode)
    packed.frombytes(np.ascontiguousarray(values, dtype=typecode).tobytes())
    return packed


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    return np.arange(int(lengths.sum())) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths
    )


def _stitch_candidates(
    boxes: np.ndarray,
    shape_of_row: np.ndarray,
    sizes: np.ndarray,
    options: ConstructionOptions,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(shapes, positions, horizontal)``: every stitch candidate.

    ``shapes`` and ``positions`` are parallel arrays sorted by shape index,
    positions strictly ascending within a shape; ``horizontal`` holds each
    shape's cut axis.  Only a shape with a conflict neighbour is offered
    candidates; each neighbour projects all of its rectangles.
    """
    empty = np.zeros(0, dtype=np.int64)
    horizontal = np.zeros(len(sizes), dtype=bool)
    if not options.enable_stitches:
        return empty, empty, horizontal
    a, b, _ = close_rect_pairs(boxes, shape_of_row, options.min_coloring_distance)
    if not len(a):
        return empty, empty, horizontal
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
    found, positions, across = stitch_positions(
        feature_boxes,
        np.repeat(slot_of_shape[shape], repeats),
        boxes[_ranges(starts[neighbour], repeats)],
        min_fragment_length=options.min_fragment_length,
        projection_margin=options.stitch_projection_margin,
        max_candidates=options.max_stitches_per_feature,
    )
    horizontal[features] = across
    return features[found], positions, horizontal
