"""Determinism harness: every executor and cache state must match serial.

The pipeline's contract is that the executor (inline, process pool),
worker count, component cache state and completion order are pure
execution details: masks (the full coloring), conflict counts, stitch
counts and the division report are identical to the serial reference
``divide_and_color``.  These tests enforce that contract on seeded-random
layouts across K ∈ {3, 4, 5} and every algorithm registered in
``make_colorer``, on hypothesis-generated random graphs, and on the named
benchmark circuits.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import logging
import pickle
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.runtime.pipeline as pipeline
from repro.bench.circuits import TABLE1_CIRCUITS, load_circuit
from repro.bench.factory import random_layout, repeated_cell_layout
from repro.core.decomposer import Decomposer, make_colorer
from repro.core.division import DivisionReport, divide_and_color
from repro.core.options import AlgorithmOptions, DecomposerOptions, DivisionOptions
from repro.graph.components import connected_components
from repro.graph.construction import build_decomposition_graph
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime import (
    ComponentCache,
    InMemoryBackend,
    PoolExecutor,
    canonical_component_key,
    color_graph,
    decompose_many,
    solve_inline,
)

#: Every algorithm ``make_colorer`` accepts, split by weight.
FAST_ALGORITHMS = ["greedy", "linear", "backtrack"]
SOLVER_ALGORITHMS = ["ilp", "sdp-backtrack", "sdp-greedy"]
ALL_ALGORITHMS = FAST_ALGORITHMS + SOLVER_ALGORITHMS

ALL_K = [3, 4, 5]


def _options(num_colors: int, algorithm: str) -> DecomposerOptions:
    if num_colors == 4:
        return DecomposerOptions.for_quadruple_patterning(algorithm)
    if num_colors == 5:
        return DecomposerOptions.for_pentuple_patterning(algorithm)
    return DecomposerOptions.for_k_patterning(num_colors, algorithm)


def _pipeline_options(
    num_colors: int, algorithm: str, division: DivisionOptions = None
) -> DecomposerOptions:
    """The solve configuration ``divide_and_color`` gets as loose arguments."""
    return DecomposerOptions(
        num_colors=num_colors,
        algorithm=algorithm,
        division=division or DivisionOptions(),
    )


def assert_identical_solutions(serial, parallel) -> None:
    """Full bit-identity: masks, metrics and the division report."""
    assert parallel.solution.coloring == serial.solution.coloring
    assert parallel.solution.conflicts == serial.solution.conflicts
    assert parallel.solution.stitches == serial.solution.stitches
    assert dataclasses.asdict(parallel.division_report) == dataclasses.asdict(
        serial.division_report
    )


class TestRandomLayoutEquivalence:
    """Seeded-random layouts, every K, fast algorithms, real process pool."""

    @pytest.mark.parametrize("num_colors", ALL_K)
    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
    @pytest.mark.parametrize("seed", [7, 21])
    def test_parallel_and_cache_match_serial(self, num_colors, algorithm, seed):
        layout = random_layout(count=60, seed=seed)
        options = _options(num_colors, algorithm)
        serial = Decomposer(options).decompose(layout)
        parallel = Decomposer(options).decompose(
            layout, workers=2, cache=ComponentCache()
        )
        assert_identical_solutions(serial, parallel)

    @pytest.mark.slow
    @pytest.mark.solver
    @pytest.mark.parametrize("num_colors", ALL_K)
    @pytest.mark.parametrize("algorithm", SOLVER_ALGORITHMS)
    def test_solver_algorithms_match_serial(self, num_colors, algorithm):
        layout = random_layout(count=50, seed=13)
        options = _options(num_colors, algorithm)
        options.algorithm_options.ilp_time_limit = 10.0
        serial = Decomposer(options).decompose(layout)
        parallel = Decomposer(options).decompose(
            layout, workers=2, cache=ComponentCache()
        )
        assert_identical_solutions(serial, parallel)


class TestColorGraphEquivalence:
    """color_graph vs divide_and_color on raw graphs, inline executor."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_all_algorithms_on_fig_graphs(self, algorithm, fig4, fig5):
        for graph in (fig4, fig5):
            colorer = make_colorer(algorithm, 4, AlgorithmOptions())
            serial_report = DivisionReport()
            serial = divide_and_color(graph, colorer, report=serial_report)
            colored = color_graph(
                graph,
                _pipeline_options(4, algorithm),
                solve_inline,
                cache=ComponentCache(),
            )
            assert colored.coloring == serial
            assert dataclasses.asdict(colored.report) == dataclasses.asdict(
                serial_report
            )

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)).filter(
                lambda edge: edge[0] != edge[1]
            ),
            min_size=0,
            max_size=40,
        ),
        num_colors=st.sampled_from(ALL_K),
        algorithm=st.sampled_from(FAST_ALGORITHMS),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_property_random_graphs(self, edges, num_colors, algorithm):
        graph = DecompositionGraph.from_edges(edges, vertices=range(24))
        colorer = make_colorer(algorithm, num_colors, AlgorithmOptions())
        serial = divide_and_color(graph, colorer)
        colored = color_graph(
            graph,
            _pipeline_options(num_colors, algorithm),
            solve_inline,
            cache=ComponentCache(),
        )
        assert colored.coloring == serial

    def test_division_options_respected(self, fig5):
        division = DivisionOptions(ghtree_cut_removal=False)
        colorer = make_colorer("greedy", 4, AlgorithmOptions())
        serial = divide_and_color(fig5, colorer, division=division)
        colored = color_graph(
            fig5, _pipeline_options(4, "greedy", division), solve_inline
        )
        assert colored.coloring == serial


class TestInCallDedup:
    """Identical components of one graph are solved once, with or without
    a cache, and replayed from the solve in hand."""

    @staticmethod
    def _options():
        options = _options(4, "linear")
        # Peeling would dissolve every 4-clique cell before the colorer runs.
        options.division.low_degree_removal = False
        return options

    def test_default_serial_path_solves_each_distinct_component_once(
        self, monkeypatch
    ):
        from repro.core.linear_coloring import LinearColoring

        calls = []
        original = LinearColoring.color

        def counting_color(colorer, graph):
            calls.append(graph.num_vertices)
            return original(colorer, graph)

        monkeypatch.setattr(LinearColoring, "color", counting_color)
        options = self._options()
        layout = repeated_cell_layout(copies=4)
        result = Decomposer(options).decompose(layout, layer="contact")
        assert calls == [4]  # four identical cells, one solve

        graph = result.construction.graph
        reference_report = DivisionReport()
        reference = divide_and_color(
            graph,
            make_colorer("linear", 4, options.algorithm_options),
            division=options.division,
            report=reference_report,
        )
        assert len(calls) == 5  # the reference solves every copy
        assert result.solution.coloring == reference
        assert dataclasses.asdict(result.division_report) == dataclasses.asdict(
            reference_report
        )

    def test_siblings_never_reread_an_evicted_entry(self):
        """A backend may lose an entry right after storing it (a concurrent
        process evicting it): the identical sibling still replays."""

        class ForgetfulBackend(InMemoryBackend):
            def put(self, key, record):
                super().put(key, record)
                self.clear()
                return 1

        options = self._options()
        layout = repeated_cell_layout(copies=2)
        serial = Decomposer(options).decompose(layout, layer="contact")
        cache = ComponentCache(backend=ForgetfulBackend())
        cached = Decomposer(options).decompose(layout, layer="contact", cache=cache)
        assert_identical_solutions(serial, cached)
        assert len(cache) == 0
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)


class TestSingleComponent:
    """A component spanning the graph is solved on the graph itself."""

    @pytest.mark.parametrize("independent", [True, False])
    def test_whole_graph_is_solved_without_a_copy(self, fig5, independent):
        from repro.runtime.component_io import solve_component
        from repro.runtime.pipeline import ColoredGraph

        division = DivisionOptions(independent_components=independent)
        options = _pipeline_options(4, "linear", division)
        batches = []

        def recording(batch, solve_options):
            batches.append(list(batch))
            return solve_inline(batch, solve_options)

        cache = ComponentCache()
        colored = color_graph(fig5, options, recording, cache=cache)
        [[(key, solved)]] = batches
        assert solved is fig5

        # The copy the pipeline used to hash and solve: same key, same result.
        copy = fig5.subgraph(fig5.vertices())
        assert key == canonical_component_key(
            copy, 4, "linear", options.algorithm_options, division
        )
        solve = solve_component(copy, options, key)
        expected = ColoredGraph(coloring=solve.coloring_for(copy))
        assert cache.lookup(key, copy).coloring_for(copy) == expected.coloring
        expected.report.num_vertices = fig5.num_vertices
        expected.report.num_connected_components = 1
        expected.report.merge_from(solve.report)
        expected.solver_timeouts = solve.solver_timeouts
        assert dataclasses.asdict(colored) == dataclasses.asdict(expected)


class TestBenchCircuitEquivalence:
    """The acceptance bar: identical results on the named bench circuits."""

    @pytest.mark.parametrize("circuit", ["C432", "S1488"])
    def test_fast_circuits(self, circuit):
        layout = load_circuit(circuit, scale=0.25)
        options = _options(4, "linear")
        serial = Decomposer(options).decompose(layout)
        parallel = Decomposer(options).decompose(
            layout, workers=2, cache=ComponentCache()
        )
        assert_identical_solutions(serial, parallel)

    @pytest.mark.slow
    @pytest.mark.parametrize("circuit", TABLE1_CIRCUITS)
    @pytest.mark.parametrize("num_colors", [4, 5])
    def test_every_bench_circuit(self, circuit, num_colors):
        layout = load_circuit(circuit, scale=0.12)
        options = _options(num_colors, "linear")
        serial = Decomposer(options).decompose(layout)
        parallel = Decomposer(options).decompose(
            layout, workers=2, cache=ComponentCache()
        )
        assert_identical_solutions(serial, parallel)

    def test_worker_counts_agree(self):
        layout = load_circuit("C499", scale=0.25)
        options = _options(4, "greedy")
        reference = Decomposer(options).decompose(layout)
        for workers in (1, 2, 4):
            run = Decomposer(options).decompose(layout, workers=workers)
            assert_identical_solutions(reference, run)


class TestPickleDeterminism:
    """Solving must be a function of graph content, not container layout.

    Worker processes receive components through pickle, which rebuilds the
    adjacency sets with a different hash-table layout than the original
    graph.  If any algorithm's decisions followed raw set-iteration order,
    the parallel path would silently diverge from serial (this happened: the
    low-degree peeling queue once followed ``set`` order).
    """

    @pytest.mark.parametrize("algorithm", FAST_ALGORITHMS)
    def test_roundtripped_graph_colors_identically(self, algorithm):
        import pickle

        layout = random_layout(count=80, seed=5)
        options = _options(4, algorithm)
        from repro.graph.construction import build_decomposition_graph

        graph = build_decomposition_graph(
            layout, layer="metal1", options=options.construction
        ).graph
        clone = pickle.loads(pickle.dumps(graph))
        colorer_a = make_colorer(algorithm, 4, AlgorithmOptions())
        colorer_b = make_colorer(algorithm, 4, AlgorithmOptions())
        assert divide_and_color(graph, colorer_a) == divide_and_color(clone, colorer_b)

    @pytest.mark.slow
    @pytest.mark.solver
    def test_roundtripped_graph_colors_identically_sdp(self):
        import pickle

        layout = random_layout(count=80, seed=5)
        options = _options(4, "sdp-backtrack")
        from repro.graph.construction import build_decomposition_graph

        graph = build_decomposition_graph(
            layout, layer="metal1", options=options.construction
        ).graph
        clone = pickle.loads(pickle.dumps(graph))
        colorer_a = make_colorer("sdp-backtrack", 4, AlgorithmOptions())
        colorer_b = make_colorer("sdp-backtrack", 4, AlgorithmOptions())
        assert divide_and_color(graph, colorer_a) == divide_and_color(clone, colorer_b)


class TestFallback:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch, caplog):
        """A dead pool must not change results — only the execution venue —
        and the executor says so in one WARNING naming the exception."""

        def broken_pool(max_workers):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
        layout = load_circuit("C432", scale=0.25)
        options = _options(4, "linear")
        serial = Decomposer(options).decompose(layout)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.pipeline"):
            parallel = Decomposer(options).decompose(layout, workers=4)
        assert_identical_solutions(serial, parallel)
        warnings = [r for r in caplog.records if r.name == "repro.runtime.pipeline"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "OSError: no processes in this sandbox" in warnings[0].getMessage()

    def test_abandoned_pool_stays_abandoned(self, monkeypatch, caplog):
        """One executor serving a whole batch gives up on its pool once."""
        attempts = []

        def broken_pool(max_workers):
            attempts.append(max_workers)
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
        # Both circuits have two components above the in-process cutoff.
        layouts = [
            ("a", load_circuit("C432", scale=0.25)),
            ("b", load_circuit("C499", scale=0.25)),
        ]
        options = _options(4, "linear")
        with caplog.at_level(logging.WARNING, logger="repro.runtime.pipeline"):
            batch = decompose_many(layouts, options=options, workers=2, cache=False)
        assert attempts == [2]
        warnings = [r for r in caplog.records if r.name == "repro.runtime.pipeline"]
        assert len(warnings) == 1
        for name, layout in layouts:
            serial = Decomposer(options).decompose(layout, layer=layout.layers()[0])
            assert_identical_solutions(serial, batch.item(name).result)


class TestPoolPayload:
    def test_pool_ships_inline_flat_frames_largest_first(self, monkeypatch):
        """Pool submissions carry each component's packed frame bytes,
        biggest component first — and solve exactly like the inline path."""
        submitted = []

        class InlinePool:
            """Runs each job at submit time, through a real pickle round trip."""

            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                submitted.append(args)
                future = Future()
                shipped = pickle.loads(pickle.dumps(args))
                future.set_result(pickle.loads(pickle.dumps(fn(*shipped))))
                return future

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        options = _options(4, "linear")
        layout = load_circuit("C432", scale=0.25)
        graph = build_decomposition_graph(
            layout, layer="metal1", options=options.construction
        ).graph
        pooled = color_graph(graph, options, PoolExecutor(2))
        assert pooled == color_graph(graph, options, solve_inline)

        frames, sizes = {}, {}
        for component in connected_components(graph):
            subgraph = graph.subgraph(component)
            key = canonical_component_key(
                subgraph, 4, "linear", options.algorithm_options, options.division
            )
            frames[key] = subgraph.to_arrays().to_bytes()
            sizes[key] = subgraph.num_vertices
        assert len(submitted) >= 2
        for frame, key, shipped_options in submitted:
            assert frame == frames[key]
            assert sizes[key] > pipeline.SMALL_COMPONENT_CUTOFF
            assert shipped_options is options
        shipped_sizes = [sizes[key] for _, key, _ in submitted]
        assert shipped_sizes == sorted(shipped_sizes, reverse=True)
