"""The compiled division stages against their references.

``repro_peel`` and ``repro_reinsert`` (stage 2) run on a whole component's
CSR adjacency: on random graphs with color-friendly edges, K from 2 to 64
and a stitch bound from 1 to 3, the compiled peel must return the tuple
``graph/simplify.peel_low_degree_vertices`` returns, array for array, and
the compiled reinsertion must fill the colors its reference fills, from the
peel's own stack and from random partial colorings and stacks.
``repro_kclasses`` (stage 4) and ``repro_blocks`` (stage 3) run on one piece
of a component: its sorted ranks, the component's CSR adjacency and a
rank-to-position scratch that must come back all ``-1``.  On random graphs
whose conflict and stitch edges may share a pair (a parallel edge of
capacity 2), with isolated vertices and K from 0 to 6, the compiled
K-classes must equal ``GomoryHuTree.components_below`` and the exact
Gusfield tree cut below K.  The compiled blocks of rank subsets of a larger
component must come out in ``_biconnected_dfs``'s discovery order and,
sorted, equal ``biconnected_blocks``.
"""

from __future__ import annotations

from array import array

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.kernels.ccore import compiled_core
from repro.graph.biconnected import _biconnected_dfs, biconnected_blocks
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.gomory_hu import gomory_hu_tree
from repro.graph.simplify import peel_low_degree_vertices, reinsert_peeled_vertices

pytestmark = pytest.mark.skipif(
    compiled_core() is None, reason="compiled solve core unavailable"
)


@st.composite
def components(draw, max_vertices=14):
    """``(n, conflict, stitch)``: two sets of ``u < v`` pairs on ``0..n-1``
    that may share pairs; vertices on neither are isolated."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n < 2:
        return n, [], []
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    normal = pair.map(lambda pair: (min(pair), max(pair)))
    conflict = sorted(set(draw(st.lists(normal, max_size=3 * n))))
    stitch = sorted(set(draw(st.lists(normal, max_size=n))))
    return n, conflict, stitch


def csr_of(n, conflict, stitch, friend=()) -> CSRAdjacency:
    """The CSR adjacency of the graph on ids ``0..n-1`` (a rank is its id)."""
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
    for u, v in friend:
        graph.add_friend_edge(u, v)
    return CSRAdjacency(graph.to_arrays())


def induced(edges, ranks):
    inside = set(ranks)
    return [(u, v) for u, v in edges if u in inside and v in inside]


def tree_pieces(tree, threshold: int):
    """Components of the exact tree once every edge of weight < threshold is cut."""
    forest = nx.Graph()
    forest.add_nodes_from(tree.vertices)
    forest.add_edges_from((u, v) for u, v, w in tree.edges if w >= threshold)
    return sorted(sorted(piece) for piece in nx.connected_components(forest))


def untouched(n: int) -> array:
    return array("i", [-1]) * n


def subsets(data, n: int):
    """A sorted, possibly empty, subset of ``0..n-1``."""
    if n == 0:
        return []
    return sorted(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))))


# ------------------------------------------------------------ stage 2
@settings(max_examples=300, deadline=None)
@given(
    components(max_vertices=24),
    st.one_of(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=64)),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_peel_and_reinsert_equal_the_references(component, num_colors, max_stitch, data):
    n, conflict, stitch = component
    friend = set()
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in data.draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=2 * n)):
            friend.add((min(u, v), max(u, v)))
    csr = csr_of(n, conflict, stitch, sorted(friend))
    core = compiled_core()
    expected = peel_low_degree_vertices(num_colors, max_stitch, csr)
    got = core.peel(num_colors, max_stitch, csr)
    assert got == expected
    assert [a.typecode for a in got] == [a.typecode for a in expected]

    alive, stack = expected[0], expected[4]
    color = st.integers(min_value=0, max_value=num_colors - 1)
    kernel = array("i", [data.draw(color) if alive[r] else -1 for r in range(n)])
    partial = array("i", data.draw(st.lists(st.one_of(st.just(-1), color), min_size=n, max_size=n)))
    shuffled = array("i", data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))])
    # Every rank colored and popped: where all K colors get blocked.
    recolored = array("i", data.draw(st.lists(color, min_size=n, max_size=n)))
    everything = array("i", data.draw(st.permutations(range(n))))
    for order, colors in ((stack, kernel), (shuffled, partial), (everything, recolored)):
        want, have = array("i", colors), array("i", colors)
        reinsert_peeled_vertices(num_colors, order, csr, want)
        core.reinsert(num_colors, order, csr, have)
        assert have == want
        assert order is not stack or -1 not in want  # the peel's stack colors all


# ------------------------------------------------------------ stage 4
@settings(max_examples=300, deadline=None)
@given(components(), st.integers(min_value=0, max_value=6), st.data())
def test_kclasses_equal_the_reference_and_the_exact_tree(component, threshold, data):
    n, conflict, stitch = component
    csr = csr_of(n, conflict, stitch)
    for ranks in (list(range(n)), subsets(data, n)):
        position = untouched(n)
        got = compiled_core().kclasses(threshold, ranks, csr, position)
        assert position == untouched(n)
        tree = gomory_hu_tree(ranks, induced(conflict, ranks) + induced(stitch, ranks))
        assert got == tree.components_below(threshold)
        assert got == tree_pieces(tree, threshold)


def test_a_shared_pair_has_capacity_two():
    """A pair that is a conflict and a stitch edge carries two units."""
    csr = csr_of(3, [(0, 1), (1, 2)], [(0, 1)])
    ranks = [0, 1, 2]
    core = compiled_core()
    assert core.kclasses(2, ranks, csr, untouched(3)) == [[0, 1], [2]]
    assert core.kclasses(3, ranks, csr, untouched(3)) == [[0], [1], [2]]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_two_hubs(k):
    """Hubs 0 and 1 joined only through ``k`` degree-2 vertices: for
    3 <= K <= k, {0, 1} is one K-class with no edge inside it."""
    n = k + 2
    conflict = sorted((hub, middle) for hub in (0, 1) for middle in range(2, n))
    csr = csr_of(n, conflict, [])
    ranks = list(range(n))
    core = compiled_core()
    assert core.kclasses(k, ranks, csr, untouched(n)) == [[0, 1]] + [
        [middle] for middle in range(2, n)
    ]
    assert core.kclasses(k + 1, ranks, csr, untouched(n)) == [[v] for v in range(n)]


def test_kclasses_past_any_threshold():
    csr = csr_of(3, [(0, 1), (1, 2), (0, 2)], [])
    core = compiled_core()
    assert core.kclasses(-5, [0, 1, 2], csr, untouched(3)) == [[0, 1, 2]]
    assert core.kclasses(2**40, [0, 1, 2], csr, untouched(3)) == [[0], [1], [2]]
    assert core.kclasses(4, [], csr, untouched(3)) == []


# ------------------------------------------------------------ stage 3
@settings(max_examples=300, deadline=None)
@given(components(max_vertices=24), st.data())
def test_blocks_of_rank_subsets(component, data):
    n, conflict, stitch = component
    csr = csr_of(n, conflict, stitch)
    neighbours = {rank: set() for rank in range(n)}
    for u, v in conflict + stitch:
        neighbours[u].add(v)
        neighbours[v].add(u)
    for ranks in (list(range(n)), subsets(data, n)):
        position = untouched(n)
        got = compiled_core().blocks(ranks, csr, position)
        assert position == untouched(n)

        place = {rank: index for index, rank in enumerate(ranks)}
        adjacency = [sorted(place[o] for o in neighbours[r] if o in place) for r in ranks]
        _, discovered = _biconnected_dfs(adjacency)
        covered = {vertex for block in discovered for vertex in block}
        discovered += [[index] for index in range(len(ranks)) if index not in covered]
        assert got == [[ranks[index] for index in block] for block in discovered]

        got.sort(key=lambda block: (block[0], len(block)))
        expected = biconnected_blocks(adjacency)
        assert got == [[ranks[index] for index in block] for block in expected]


def test_pieces_the_core_cannot_index_are_refused():
    csr = csr_of(3, [(0, 1), (1, 2)], [])
    core = compiled_core()
    for stage in (core.blocks, lambda *args: core.kclasses(2, *args)):
        with pytest.raises(ValueError):
            stage([0, 3], csr, untouched(3))
        with pytest.raises(ValueError):
            stage([-1, 0], csr, untouched(3))
        with pytest.raises(ValueError):
            stage([0, 1], csr, untouched(2))
        with pytest.raises(ValueError):
            stage([0, 1], csr, array("q", [-1]) * 3)
