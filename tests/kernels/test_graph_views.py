"""Graph views and the rank-space component split.

The construction, the division's pieces and ``color_graph``'s components
are views (``DecompositionGraph.from_flat``): they hold a canonical flat
form and build their adjacency sets only when a method other than the
counts, ``vertices()`` and ``to_arrays()`` needs them.  Every answer a view
gives must equal the one of the graph ``flat.to_graph()`` builds, before and
after it is mutated, copied or pickled.

``color_graph`` labels components with ``rank_components`` (the
``repro_components`` search in the compiled core, a Python search in mode
``off``) and slices their flat forms with ``FlatGraph.split``.  Each slice
must equal ``graph.subgraph(c).to_arrays()`` byte for byte, for each ``c``
of ``connected_components(graph)``: vertex ids that are not contiguous,
isolated vertices, pairs that are a conflict and a stitch edge at once, and
friend edges between two components, which the split drops as ``subgraph``
does.
"""

from __future__ import annotations

import copy
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposer import make_colorer
from repro.core.division import DivisionReport, divide_and_color, rank_components
from repro.core.kernels import active_core, set_kernel_mode
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.kernels.ccore import compiled_core
from repro.core.options import DecomposerOptions
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph, VertexData
from repro.graph.flat import flatten_graph
from repro.runtime.pipeline import color_graph, solve_inline

needs_compiled = pytest.mark.skipif(
    compiled_core() is None, reason="compiled solve core unavailable"
)
MODES = ["off", pytest.param("compiled", marks=needs_compiled)]


@pytest.fixture(autouse=True)
def _restore_kernel_mode():
    previous = set_kernel_mode(None)
    set_kernel_mode(previous)
    yield
    set_kernel_mode(previous)


@st.composite
def graphs(draw, max_vertices=16):
    """Graphs on spread-out ids with vertex data; the conflict and stitch
    sets may share pairs, friend pairs are drawn independently (so they
    often join two components), and vertices on no edge are isolated."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    ids = sorted(draw(st.sets(st.integers(0, 10**6), min_size=n, max_size=n)))
    data = {
        vertex: VertexData(
            shape_id=draw(st.none() | st.integers(0, 40)),
            fragment=draw(st.integers(0, 3)),
            weight=draw(st.integers(1, 3)),
        )
        for vertex in ids
    }
    if n < 2:
        return DecompositionGraph.from_parts(data)
    index = st.integers(min_value=0, max_value=n - 1)
    pair = st.tuples(index, index).filter(lambda p: p[0] != p[1])
    edge = pair.map(lambda p: (ids[min(p)], ids[max(p)]))
    conflict = draw(st.sets(edge, max_size=n))
    stitch = draw(st.sets(edge, max_size=n // 2))
    friend = draw(st.sets(edge, max_size=n))
    return DecompositionGraph.from_parts(
        data, sorted(conflict), sorted(stitch), sorted(friend)
    )


def view_of(graph: DecompositionGraph) -> DecompositionGraph:
    return DecompositionGraph.from_flat(flatten_graph(graph))


def built(view: DecompositionGraph) -> bool:
    return "_vertices" in vars(view)


def assert_same_graph(got: DecompositionGraph, expected: DecompositionGraph) -> None:
    """Every read accessor of ``got`` answers as ``expected``'s does."""
    assert got.num_vertices == expected.num_vertices
    assert got.num_conflict_edges == expected.num_conflict_edges
    assert got.num_stitch_edges == expected.num_stitch_edges
    assert got.num_friend_edges == expected.num_friend_edges
    assert got.vertices() == expected.vertices()
    assert got.conflict_edges() == expected.conflict_edges()
    assert got.stitch_edges() == expected.stitch_edges()
    assert got.friend_edges() == expected.friend_edges()
    for vertex in expected.vertices():
        assert got.has_vertex(vertex)
        assert got.vertex_data(vertex) == expected.vertex_data(vertex)
        assert got.conflict_neighbors(vertex) == expected.conflict_neighbors(vertex)
        assert got.stitch_neighbors(vertex) == expected.stitch_neighbors(vertex)
        assert got.friend_neighbors(vertex) == expected.friend_neighbors(vertex)
        assert got.neighbors(vertex) == expected.neighbors(vertex)
        assert got.conflict_degree(vertex) == expected.conflict_degree(vertex)
        assert got.stitch_degree(vertex) == expected.stitch_degree(vertex)
    for u in expected.vertices():
        for v in expected.vertices():
            if u < v:
                assert got.has_conflict_edge(u, v) == expected.has_conflict_edge(u, v)
                assert got.has_stitch_edge(u, v) == expected.has_stitch_edge(u, v)
                assert got.has_friend_edge(u, v) == expected.has_friend_edge(u, v)
    assert not got.has_vertex(-1)
    assert got.to_arrays() == flatten_graph(expected)


# ------------------------------------------------------------------- views
@settings(max_examples=150, deadline=None)
@given(graphs())
def test_a_view_answers_as_its_built_graph(graph):
    flat = flatten_graph(graph)
    view = DecompositionGraph.from_flat(flat)
    expected = flat.to_graph()
    # The counts, the vertex list and the flat form need no object graph.
    assert view.num_vertices == expected.num_vertices
    assert (view.num_conflict_edges, view.num_stitch_edges, view.num_friend_edges) == (
        expected.num_conflict_edges,
        expected.num_stitch_edges,
        expected.num_friend_edges,
    )
    assert view.vertices() == expected.vertices()
    assert view.to_arrays() is flat
    assert not built(view)
    assert_same_graph(view, expected)
    assert built(view) and view.to_arrays() is flat  # building keeps the form
    assert_same_graph(view.subgraph(expected.vertices()[::2]), expected.subgraph(expected.vertices()[::2]))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_a_mutated_view_equals_the_mutated_graph(graph, data):
    view, expected = view_of(graph), view_of(graph).to_arrays().to_graph()
    stale = view.to_arrays()
    mutation = data.draw(
        st.sampled_from(["add_vertex", "add_edge", "set_data"])
    )
    vertices = expected.vertices()
    if mutation == "add_vertex" or not vertices:
        new = max(vertices, default=0) + 1
        for target in (view, expected):
            target.add_vertex(new)
    elif mutation == "add_edge" and len(vertices) >= 2:
        u, v = data.draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True))
        for target in (view, expected):
            target.add_stitch_edge(u, v)
            target.add_friend_edge(u, v)
    else:
        vertex = data.draw(st.sampled_from(vertices))
        for target in (view, expected):
            target.add_vertex(vertex, VertexData(shape_id=7, fragment=1, weight=2))
    assert view._flat is None and not view._key_memo
    assert_same_graph(view, expected)
    assert view.to_arrays() is not stale


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_copies_and_pickles_of_a_view_equal_the_built_graph(graph):
    expected = view_of(graph).to_arrays().to_graph()
    for duplicate in (
        copy.copy,
        copy.deepcopy,
        lambda view: pickle.loads(pickle.dumps(view)),
    ):
        view = view_of(graph)
        assert_same_graph(duplicate(view), expected)
        assert_same_graph(view, expected)


def test_a_pickled_view_carries_no_memo():
    view = view_of(DecompositionGraph.from_edges([(3, 9)], [(9, 40)], vertices=[1]))
    view._key_memo["config"] = "key"
    restored = pickle.loads(pickle.dumps(view))
    assert restored._flat is None and restored._key_memo == {}
    assert view.to_arrays() is not None and view._key_memo == {"config": "key"}


# ------------------------------------------------------------------- split
def split_components(graph: DecompositionGraph):
    """What ``color_graph`` does with a graph of several components."""
    flat = graph.to_arrays()
    labels, pieces = rank_components(CSRAdjacency(flat, include_friend=False), None, active_core())
    return pieces, flat.split(labels)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=150, deadline=None)
@given(graph=graphs(max_vertices=24))
def test_the_split_equals_the_subgraphs(mode, graph):
    set_kernel_mode(mode)
    pieces, parts = split_components(graph)
    components = connected_components(graph)
    ids = graph.vertices()
    assert pieces == [[ids.index(vertex) for vertex in c] for c in components]
    assert len(parts) == len(components)
    for part, component in zip(parts, components):
        expected = graph.subgraph(component).to_arrays()
        assert part.to_bytes() == expected.to_bytes()
        assert part == expected and part.is_canonical()


def crossing_friend_graph() -> DecompositionGraph:
    """Two components, one friend edge between them and one inside each."""
    graph = DecompositionGraph.from_edges(
        [(10, 20), (20, 30), (50, 70)], [(30, 40)], vertices=[5]
    )
    for u, v in ((20, 50), (10, 30), (40, 70), (5, 70)):
        graph.add_friend_edge(u, v)
    return graph


@pytest.mark.parametrize("mode", MODES)
def test_friend_edges_between_components_are_dropped(mode):
    set_kernel_mode(mode)
    graph = crossing_friend_graph()
    pieces, parts = split_components(graph)
    assert pieces == [[0], [1, 2, 3, 4], [5, 6]]
    assert [part.num_friend_edges for part in parts] == [0, 1, 0]
    options = DecomposerOptions.for_quadruple_patterning("linear")
    colored = color_graph(graph, options, solve_inline)
    colorer = make_colorer("linear", 4, options.algorithm_options)
    report = DivisionReport()
    assert colored.coloring == divide_and_color(graph, colorer, options.division, report)
    assert colored.report.num_connected_components == 3


# ---------------------------------------------------------- the C search
@needs_compiled
@settings(max_examples=300, deadline=None)
@given(graphs(max_vertices=24), st.data())
def test_repro_components_equals_the_python_search(graph, data):
    csr = CSRAdjacency(graph.to_arrays())
    n = graph.num_vertices
    masks = [None, array("b", data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))]
    for alive in masks:
        before = None if alive is None else alive.tobytes()
        got = compiled_core().components(csr, alive)
        assert (None if alive is None else alive.tobytes()) == before
        assert got == rank_components(csr, alive, None)


@needs_compiled
def test_repro_components_refuses_a_mask_it_cannot_read():
    csr = CSRAdjacency(DecompositionGraph.from_edges([(0, 1)], vertices=[2]).to_arrays())
    core = compiled_core()
    for alive in (array("b", [1, 1]), array("B", [1, 1, 1]), array("i", [1, 1, 1])):
        with pytest.raises(ValueError):
            core.components(csr, alive)
    assert core.components(csr, array("b", [1, 0, 1])) == (array("i", [0, -1, 1]), [[0], [2]])
