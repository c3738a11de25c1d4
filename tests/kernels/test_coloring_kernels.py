"""The compiled coloring stages against their Python references.

``LinearColoring``, ``GreedyColoring`` and the SDP backtrack mapping run
each stage in the compiled core or in its Python reference, with the same
arguments, on the same CSR adjacency.  On random graphs with color-friendly
edges, random partial colorings (``-1`` is uncolored), random rank orders
and K in {2, 3, 4, 5, 8, 64}, each pair must leave the same colors:
``repro_linear_walk`` and ``linear_coloring.linear_walk`` with and without
the color-friendly rule, ``repro_greedy_walk`` and
``greedy_coloring.greedy_walk``, ``repro_refine_pass`` and
``refinement.refine_pass``; and ``repro_evaluate`` must count what
``evaluation.count_rank_pairs`` counts, which scores the linear colorer's
candidates in mode ``off``.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import count_rank_pairs
from repro.core.greedy_coloring import greedy_walk
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.kernels.ccore import compiled_core
from repro.core.linear_coloring import linear_walk
from repro.core.refinement import refine_pass
from repro.graph.decomposition_graph import DecompositionGraph

pytestmark = pytest.mark.skipif(
    compiled_core() is None, reason="compiled solve core unavailable"
)


@st.composite
def cases(draw, max_vertices=14):
    """``(graph, K, colors, order)``: a graph on ``0..n-1`` whose three
    relations may share pairs, a partial coloring and a rank order (a
    permutation of some ranks, colored or not)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    normal = pair.filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))
    conflict, stitch, friend = (
        sorted(set(draw(st.lists(normal, max_size=size)))) if n >= 2 else []
        for size in (3 * n, n, 2 * n)
    )
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
    for u, v in friend:
        graph.add_friend_edge(u, v)
    num_colors = draw(st.sampled_from([2, 3, 4, 5, 8, 64]))
    color = st.one_of(st.just(-1), st.integers(min_value=0, max_value=num_colors - 1))
    colors = array("i", draw(st.lists(color, min_size=n, max_size=n)))
    order = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    return graph, num_colors, colors, array("i", order)


alphas = st.sampled_from([0.1, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(cases(), alphas, st.booleans())
def test_linear_walk_equals_the_reference(case, alpha, use_friendly):
    graph, num_colors, colors, order = case
    csr = CSRAdjacency(graph.to_arrays())
    want, have = array("i", colors), array("i", colors)
    linear_walk(num_colors, alpha, use_friendly, order, csr, want)
    compiled_core().linear_walk(num_colors, alpha, use_friendly, order, csr, have)
    assert have == want


@settings(max_examples=300, deadline=None)
@given(cases(), alphas)
def test_greedy_walk_equals_the_reference(case, alpha):
    graph, num_colors, colors, order = case
    csr = CSRAdjacency(graph.to_arrays(), include_friend=False)
    arrays = (csr.conflict_start, csr.conflict_adj, csr.stitch_start, csr.stitch_adj)
    want, have = array("i", colors), array("i", colors)
    greedy_walk(len(order), num_colors, alpha, order, *arrays, want)
    compiled_core().greedy_walk(len(order), num_colors, alpha, order, *arrays, have)
    assert have == want


@settings(max_examples=300, deadline=None)
@given(cases(), alphas)
def test_refine_pass_equals_the_reference(case, alpha):
    graph, num_colors, colors, order = case
    csr = CSRAdjacency(graph.to_arrays(), include_friend=False)
    want, have = array("i", colors), array("i", colors)
    refine_pass(num_colors, alpha, order, csr, want)
    compiled_core().refine_pass(num_colors, alpha, order, csr, have)
    assert have == want


@settings(max_examples=300, deadline=None)
@given(cases())
def test_rank_pair_counts_equal_the_core(case):
    graph, _, colors, _ = case
    flat = graph.to_arrays()
    want = count_rank_pairs(flat.conflict_edges, flat.stitch_edges, colors)
    assert compiled_core().evaluate(flat.conflict_edges, flat.stitch_edges, colors) == want
