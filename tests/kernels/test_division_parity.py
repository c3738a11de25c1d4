"""The rank-space division against the object-graph division it replaced.

``color_component`` runs stages 2-4 on the component's ranks: the peel and
the reinsertion in the compiled core when it is loaded and K is within
``MAX_COMPILED_COLORS``, their rank-space references in ``graph/simplify``
otherwise, and blocks, K-classes and merges on rank arrays always.  The
oracle below is the object-graph division as it stood before (peel the live
vertices one at a time, reinsert by legal color, ``subgraph`` per kernel
piece, block and part, merge through ``merge_component_colorings``), with
its own dict-based Hopcroft–Tarjan.  On randomized graphs, under each
division toggle, every way of running the rank-space division must give the
oracle's coloring and report: mode ``off``, mode ``compiled``, a core whose
peel cannot allocate, and K past the compiled bound.  On the paths without
the compiled peel the division must also build no object graph outside the
colorer.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import division as division_module
from repro.core.decomposer import make_colorer
from repro.core.division import DivisionReport, color_component
from repro.core.kernels import MAX_COMPILED_COLORS, set_kernel_mode
from repro.core.kernels.adjacency import CSRAdjacency
from repro.core.kernels.ccore import compiled_core
from repro.core.options import AlgorithmOptions, DivisionOptions
from repro.core.rotation import merge_component_colorings
from repro.graph.biconnected import biconnected_components
from repro.graph.components import connected_components
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.flat import flatten_graph
from repro.graph.gomory_hu import gomory_hu_tree

needs_compiled = pytest.mark.skipif(
    compiled_core() is None, reason="compiled solve core unavailable"
)

#: Every division toggle switched off, one at a time, after the default.
TOGGLES = [
    None,
    "independent_components",
    "low_degree_removal",
    "biconnected_components",
    "ghtree_cut_removal",
]


@pytest.fixture(autouse=True)
def _restore_kernel_mode():
    previous = set_kernel_mode(None)
    set_kernel_mode(previous)
    yield
    set_kernel_mode(previous)


class _PeelFailingCore:
    """A loaded core whose peel, blocks and K-classes cannot allocate;
    nothing else may be called."""

    def peel(self, *args):
        return None

    def blocks(self, *args):
        return None

    def kclasses(self, *args):
        return None


@pytest.fixture
def failing_core(monkeypatch):
    from repro.core.kernels import ccore

    monkeypatch.setattr(ccore, "compiled_core", _PeelFailingCore)
    set_kernel_mode("auto")


# --------------------------------------------------------------- the oracle
def _oracle_blocks(graph: DecompositionGraph) -> List[List[int]]:
    """The dict-based Hopcroft–Tarjan blocks the division used to read."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    blocks: List[List[int]] = []
    edge_stack: List[Tuple[int, int]] = []
    counter = 0
    for root in graph.vertices():
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        dfs = [(root, -1, sorted(graph.neighbors(root)), 0)]
        while dfs:
            vertex, parent, neighbours, pointer = dfs.pop()
            advanced = False
            while pointer < len(neighbours):
                child = neighbours[pointer]
                pointer += 1
                if child == parent:
                    continue
                if child in index:
                    if index[child] < index[vertex]:
                        edge_stack.append((vertex, child))
                        low[vertex] = min(low[vertex], index[child])
                    continue
                edge_stack.append((vertex, child))
                index[child] = low[child] = counter
                counter += 1
                dfs.append((vertex, parent, neighbours, pointer))
                dfs.append((child, vertex, sorted(graph.neighbors(child)), 0))
                advanced = True
                break
            if advanced or parent == -1:
                continue
            low[parent] = min(low[parent], low[vertex])
            if low[vertex] >= index[parent]:
                block: Set[int] = set()
                while edge_stack:
                    edge = edge_stack.pop()
                    block.update(edge)
                    if edge == (parent, vertex):
                        break
                if block:
                    blocks.append(sorted(block))
        if edge_stack:
            block = set()
            while edge_stack:
                block.update(edge_stack.pop())
            blocks.append(sorted(block))
    covered = {vertex for block in blocks for vertex in block}
    blocks += [[vertex] for vertex in graph.vertices() if vertex not in covered]
    blocks.sort(key=lambda block: (block[0], len(block)))
    return blocks


def _oracle_peel(graph: DecompositionGraph, num_colors: int) -> Tuple[Set[int], List[int]]:
    """The object-graph peel: ``(kernel vertices, removal stack)``.

    Degrees count live neighbours only; the queue is LIFO, guarded by a
    pending set, and a removed vertex enqueues its removable neighbours in
    id order.
    """
    live = set(graph.vertices())

    def removable(vertex: int) -> bool:
        return (
            len(graph.conflict_neighbors(vertex) & live) < num_colors
            and len(graph.stitch_neighbors(vertex) & live) < 2
        )

    queue = [vertex for vertex in graph.vertices() if removable(vertex)]
    pending = set(queue)
    stack: List[int] = []
    while queue:
        vertex = queue.pop()
        pending.discard(vertex)
        if vertex not in live or not removable(vertex):
            continue
        neighbours = graph.neighbors(vertex) & live
        live.discard(vertex)
        stack.append(vertex)
        for other in sorted(neighbours):
            if other not in pending and removable(other):
                pending.add(other)
                queue.append(other)
    return live, stack


def _oracle_reinsert(graph, coloring: Dict[int, int], stack, num_colors: int) -> None:
    """Pop ``stack``, giving each vertex its legal color (in place): a
    stitch neighbour's color, else the lowest free color, else the color
    seen least on its colored conflict neighbours."""
    for vertex in reversed(stack):
        conflicting = [coloring[n] for n in graph.conflict_neighbors(vertex) if n in coloring]
        stitched = [coloring[n] for n in sorted(graph.stitch_neighbors(vertex)) if n in coloring]
        free = [color for color in range(num_colors) if color not in conflicting]
        legal = [color for color in stitched if color not in conflicting] + free
        coloring[vertex] = (
            legal[0] if legal else min(range(num_colors), key=conflicting.count)
        )


def _oracle_component(graph, colorer, division, report) -> Dict[int, int]:
    """Stages 2-4 on the component graph, as the division ran them before."""
    num_colors = colorer.num_colors
    if division.low_degree_removal:
        live, stack = _oracle_peel(graph, num_colors)
        kernel = graph.subgraph(live)
    else:
        kernel, stack = graph.subgraph(graph.vertices()), []
    report.peeled_vertices += len(stack)
    coloring: Dict[int, int] = {}
    if kernel.num_vertices:
        for piece in connected_components(kernel):
            coloring.update(
                _oracle_blocks_stage(kernel.subgraph(piece), colorer, division, report)
            )
    _oracle_reinsert(graph, coloring, stack, num_colors)
    return coloring


def _oracle_blocks_stage(graph, colorer, division, report) -> Dict[int, int]:
    num_colors = colorer.num_colors
    if not division.biconnected_components or graph.num_vertices <= 3:
        return _oracle_cut_stage(graph, colorer, division, report)
    blocks = _oracle_blocks(graph)
    report.num_biconnected_blocks += len(blocks)
    if len(blocks) <= 1:
        return _oracle_cut_stage(graph, colorer, division, report)
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
        queue = deque([seed])
        while queue:
            current = queue.popleft()
            order.append(current)
            for vertex in blocks[current]:
                for other in blocks_of_vertex[vertex]:
                    if other not in visited:
                        visited.add(other)
                        queue.append(other)
    coloring: Dict[int, int] = {}
    for index in order:
        block_coloring = _oracle_cut_stage(
            graph.subgraph(blocks[index]), colorer, division, report
        )
        shared = [v for v in blocks[index] if v in coloring]
        if not shared:
            coloring.update(block_coloring)
            continue
        permutation: Dict[int, int] = {}
        used: Set[int] = set()
        for vertex in shared:
            source, target = block_coloring[vertex], coloring[vertex]
            if source in permutation or target in used:
                continue
            permutation[source] = target
            used.add(target)
        free = [c for c in range(num_colors) if c not in used]
        for color in range(num_colors):
            if color not in permutation:
                permutation[color] = free.pop(0)
        for vertex, color in block_coloring.items():
            if vertex not in coloring:
                coloring[vertex] = permutation[color]
    return coloring


def _oracle_cut_stage(graph, colorer, division, report) -> Dict[int, int]:
    num_colors = colorer.num_colors
    small = graph.num_vertices <= max(division.ghtree_minimum_size, num_colors + 1)
    if not division.ghtree_cut_removal or small:
        report.observe_piece(graph.num_vertices)
        return colorer.color(graph)
    tree = gomory_hu_tree(graph.vertices(), graph.conflict_edges() + graph.stitch_edges())
    parts = tree.components_below(num_colors)
    report.num_ghtree_parts += len(parts)
    if len(parts) <= 1:
        report.observe_piece(graph.num_vertices)
        return colorer.color(graph)
    colorings = []
    for part in parts:
        report.observe_piece(len(part))
        colorings.append(colorer.color(graph.subgraph(part)))
    return merge_component_colorings(graph, colorings, num_colors, colorer.options.alpha)


# ---------------------------------------------------------------- the graphs
def division_graph(rng: random.Random, num_colors: int) -> DecompositionGraph:
    """Dense clusters joined the ways the division splits them.

    Clusters are joined by a low-degree path (the peel removes it and
    disconnects the kernel), by fewer than K edges (a stage-4 cut), through
    one shared vertex (a cut vertex between blocks) or by a stitch.  Pairs
    joined only by a stitch, scattered stitches and friend edges ride along,
    and the ids are spread out so that no rank equals its id.
    """
    conflict: Set[Tuple[int, int]] = set()
    stitch: Set[Tuple[int, int]] = set()
    friend: Set[Tuple[int, int]] = set()

    def pair(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u < v else (v, u)

    n = 0
    clusters: List[List[int]] = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(num_colors, 2 * num_colors + 2)
        members = list(range(n, n + size))
        n += size
        for i in members:
            for j in members:
                if i < j and rng.random() < 0.75:
                    conflict.add((i, j))
        clusters.append(members)
    for a, b in zip(clusters, clusters[1:]):
        join = rng.choice(["path", "cut", "vertex", "stitch"])
        if join == "path":
            previous = rng.choice(a)
            for _ in range(rng.randint(1, 3)):
                conflict.add(pair(previous, n))
                previous = n
                n += 1
            conflict.add(pair(previous, rng.choice(b)))
        elif join == "cut":
            for _ in range(rng.randint(1, num_colors - 1)):
                conflict.add(pair(rng.choice(a), rng.choice(b)))
        elif join == "vertex":
            hub = rng.choice(b)
            for u in rng.sample(a, min(len(a), num_colors)):
                conflict.add(pair(u, hub))
        else:
            stitch.add(pair(rng.choice(a), rng.choice(b)))
    for _ in range(rng.randint(0, 3)):  # stitch-only pieces
        stitch.add((n, n + 1))
        n += 2
    for _ in range(rng.randint(0, n // 4)):
        stitch.add(pair(*rng.sample(range(n), 2)))
    for _ in range(rng.randint(0, n // 2)):
        friend.add(pair(*rng.sample(range(n), 2)))

    ids = sorted(rng.sample(range(7 * n + 5), n))
    rng.shuffle(ids)  # ranks follow sorted ids, not construction order

    def relabel(edges):
        return [(ids[u], ids[v]) for u, v in sorted(edges)]

    graph = DecompositionGraph.from_edges(
        relabel(conflict), relabel(stitch), vertices=ids
    )
    for u, v in relabel(friend):
        graph.add_friend_edge(u, v)
    return graph


def _division(toggle) -> DivisionOptions:
    division = DivisionOptions()
    if toggle is not None:
        setattr(division, toggle, False)
    return division


def _run(solve, graph, algorithm, num_colors, division):
    colorer = make_colorer(algorithm, num_colors, AlgorithmOptions())
    report = DivisionReport()
    coloring = solve(graph, colorer, division, report)
    return coloring, dataclasses.asdict(report)


def _oracle(graph, algorithm, num_colors, division):
    previous = set_kernel_mode("off")
    try:
        return _run(_oracle_component, graph, algorithm, num_colors, division)
    finally:
        set_kernel_mode(previous)


def _cases(seeds, colors=(3, 4, 5, 6)):
    for seed in seeds:
        rng = random.Random(seed)
        for num_colors in colors:
            yield seed, num_colors, division_graph(rng, num_colors)


# ---------------------------------------------------------------- the checks
@pytest.mark.parametrize("toggle", TOGGLES)
@pytest.mark.parametrize(
    "mode", ["off", pytest.param("compiled", marks=needs_compiled)]
)
def test_rank_space_division_matches_the_oracle(mode, toggle):
    division = _division(toggle)
    for seed, num_colors, graph in _cases(range(6)):
        for algorithm in ("greedy", "linear"):
            expected = _oracle(graph, algorithm, num_colors, division)
            set_kernel_mode(mode)
            got = _run(color_component, graph, algorithm, num_colors, division)
            assert got == expected, (seed, num_colors, algorithm, toggle, mode)


@pytest.mark.parametrize("toggle", TOGGLES)
def test_a_failed_compiled_peel_runs_the_reference(failing_core, toggle):
    division = _division(toggle)
    for seed, num_colors, graph in _cases(range(3)):
        expected = _oracle(graph, "linear", num_colors, division)
        set_kernel_mode("auto")
        got = _run(color_component, graph, "linear", num_colors, division)
        assert got == expected, (seed, num_colors, toggle)


@pytest.mark.parametrize("toggle", TOGGLES)
def test_past_the_compiled_color_bound(toggle):
    """K = MAX_COMPILED_COLORS + 1: the peel and the colorers run the reference."""
    division = _division(toggle)
    too_many = MAX_COMPILED_COLORS + 1
    rng = random.Random(5)
    graphs = [division_graph(rng, 6) for _ in range(3)]
    for index, graph in enumerate(graphs):
        for algorithm in ("greedy", "linear"):
            expected = _oracle(graph, algorithm, too_many, division)
            set_kernel_mode("auto")
            got = _run(color_component, graph, algorithm, too_many, division)
            assert got == expected, (index, algorithm, toggle)


class _BuildCounter:
    """Counts ``DecompositionGraph.from_parts`` calls, every whole-graph
    build, made while no watched colorer is coloring."""

    def __init__(self, monkeypatch) -> None:
        self.outside = 0
        self._coloring = 0
        from_parts = DecompositionGraph.from_parts.__func__

        def counted(cls, *args, **kwargs):
            self.outside += not self._coloring
            return from_parts(cls, *args, **kwargs)

        monkeypatch.setattr(DecompositionGraph, "from_parts", classmethod(counted))

    def watch(self, colorer):
        color = colorer.color

        def watched(graph):
            self._coloring += 1
            try:
                return color(graph)
            finally:
                self._coloring -= 1

        colorer.color = watched
        return colorer


@pytest.mark.parametrize("toggle", TOGGLES)
@pytest.mark.parametrize("setting", ["off", "past_the_bound", "failed_peel"])
def test_the_reference_peel_builds_no_graph(request, monkeypatch, setting, toggle):
    """Mode ``off``, K past the compiled bound and a core whose peel cannot
    allocate: stages 2-4 of a component view read its flat form only, so
    every object graph is built inside the colorer."""
    division = _division(toggle)
    algorithms = ("greedy", "linear")
    if setting == "past_the_bound":
        rng = random.Random(5)
        cases = [(i, MAX_COMPILED_COLORS + 1, division_graph(rng, 6)) for i in range(3)]
        set_kernel_mode("auto")
    elif setting == "failed_peel":
        cases = list(_cases(range(3)))
        request.getfixturevalue("failing_core")
        algorithms = ("linear",)  # the failing core has no greedy walk
    else:
        cases = list(_cases(range(3)))
        set_kernel_mode("off")
    counter = _BuildCounter(monkeypatch)
    for seed, num_colors, graph in cases:
        view = DecompositionGraph.from_flat(flatten_graph(graph))
        for algorithm in algorithms:
            colorer = counter.watch(make_colorer(algorithm, num_colors, AlgorithmOptions()))
            coloring = color_component(view, colorer, division, DivisionReport())
            assert sorted(coloring) == graph.vertices()
            assert counter.outside == 0, (seed, num_colors, algorithm)


def test_graphs_reach_every_stage():
    """The generator exercises what the parity checks claim to cover."""
    totals = DivisionReport()
    disconnected = 0
    for _, num_colors, graph in _cases(range(6)):
        _, report = _oracle(graph, "linear", num_colors, DivisionOptions())
        live, _ = _oracle_peel(graph, num_colors)
        disconnected += len(connected_components(graph.subgraph(live))) > 1
        totals.merge_from(DivisionReport(**report))
    assert totals.peeled_vertices and totals.num_biconnected_blocks
    assert totals.num_ghtree_parts and disconnected


def _rank_blocks(graph: DecompositionGraph) -> List[List[int]]:
    flat = graph.to_arrays()
    divider = division_module._RankDivider(
        flat,
        CSRAdjacency(flat),
        make_colorer("greedy", 4, AlgorithmOptions()),
        DivisionOptions(),
        DivisionReport(),
    )
    ids = flat.vertex_ids
    ranks = list(range(flat.num_vertices))
    return [[ids[rank] for rank in block] for block in divider.blocks(ranks)]


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
        max_size=60,
    ),
    stitches=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
        max_size=8,
    ),
    spread=st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_rank_space_blocks_equal_biconnected_components(edges, stitches, spread):
    graph = DecompositionGraph.from_edges(
        [(u * spread, v * spread) for u, v in edges],
        [(u * spread, v * spread) for u, v in stitches],
        vertices=range(0, 31 * spread, spread),
    )
    expected = _oracle_blocks(graph)
    assert biconnected_components(graph) == expected
    assert _rank_blocks(graph) == expected


@pytest.mark.slow
@pytest.mark.parametrize(
    "mode", ["off", pytest.param("compiled", marks=needs_compiled)]
)
def test_every_table2_component_at_k5(mode):
    from repro.bench.circuits import TABLE2_CIRCUITS
    from repro.bench.factory import circuit_graph

    division = DivisionOptions()
    for circuit in TABLE2_CIRCUITS:
        graph = circuit_graph(circuit, 5, scale=0.35).graph
        for component in connected_components(graph):
            subgraph = graph.subgraph(component)
            for algorithm in ("greedy", "linear"):
                expected = _oracle(subgraph, algorithm, 5, division)
                set_kernel_mode(mode)
                got = _run(color_component, subgraph, algorithm, 5, division)
                assert got == expected, (circuit, component[0], algorithm, mode)
