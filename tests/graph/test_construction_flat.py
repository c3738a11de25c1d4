"""The flat form the construction attaches to the graph it builds.

:func:`build_decomposition_graph` already holds the graph's arrays in
canonical order (vertex ids 0..n-1, sorted unique edge pairs), so it
attaches them as the graph's memoised :meth:`to_arrays` instead of letting
the first hash flatten the object graph.  The attached form must equal what
:func:`flatten_graph` builds from the graph itself, buffer for buffer, on
every benchmark circuit and on the inputs and options that change which
arrays the construction holds.
"""

from __future__ import annotations

import pytest

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS, load_circuit
from repro.core.options import DecomposerOptions
from repro.geometry.layout import Layout
from repro.geometry.outlines import PackedLayout
from repro.geometry.rect import Rect
from repro.graph.construction import ConstructionOptions, build_decomposition_graph
from repro.graph.flat import flatten_graph

QUADRUPLE = DecomposerOptions.for_quadruple_patterning().construction
PENTUPLE = DecomposerOptions.for_pentuple_patterning().construction


def _attached_equals_flattened(result) -> None:
    graph = result.graph
    attached = graph.to_arrays()
    assert attached is graph._flat
    assert attached == flatten_graph(graph)
    assert attached.is_canonical()


@pytest.mark.parametrize("scale", [0.1, 0.35])
@pytest.mark.parametrize(
    "circuits, options",
    [(TABLE1_CIRCUITS, QUADRUPLE), (TABLE2_CIRCUITS, PENTUPLE)],
    ids=["table1-k4", "table2-k5"],
)
def test_every_benchmark_graph(circuits, options, scale):
    for name in circuits:
        result = build_decomposition_graph(load_circuit(name, scale), options=options)
        assert result.graph.num_stitch_edges, name  # the stitch pairs are covered
        _attached_equals_flattened(result)


def test_packed_outlines_input():
    layout = load_circuit("C432", 0.1)
    layer = layout.layers()[0]
    outlines = PackedLayout.from_layout(layout).outlines(layer)
    result = build_decomposition_graph(outlines, layer=layer, options=QUADRUPLE)
    assert result.graph.num_vertices
    _attached_equals_flattened(result)


@pytest.mark.parametrize(
    "overrides",
    [{"enable_stitches": False}, {"enable_color_friendly": False}],
    ids=["no-stitches", "no-friends"],
)
def test_options_that_drop_an_edge_list(overrides):
    options = ConstructionOptions(**{**vars(QUADRUPLE), **overrides})
    result = build_decomposition_graph(load_circuit("C880", 0.1), options=options)
    if not options.enable_stitches:
        assert result.graph.num_stitch_edges == 0
    if not options.enable_color_friendly:
        assert result.graph.num_friend_edges == 0
    _attached_equals_flattened(result)


def test_empty_layer():
    result = build_decomposition_graph(Layout(), layer="metal1")
    assert result.graph.to_arrays().num_vertices == 0
    _attached_equals_flattened(result)


def test_a_mutation_drops_the_attached_form():
    layout = Layout()
    layout.add_rect(Rect(0, 0, 600, 20))
    layout.add_rect(Rect(0, 60, 200, 80))
    graph = build_decomposition_graph(layout, options=QUADRUPLE).graph
    attached = graph.to_arrays()
    graph.add_vertex(graph.num_vertices)
    assert graph.to_arrays() is not attached
    assert graph.to_arrays() == flatten_graph(graph)
