"""Determinism harness: the parallel/cached path must match serial bit-for-bit.

The scheduler's contract is that worker count, component cache state, and
completion order are pure execution details: masks (the full coloring),
conflict counts and stitch counts are identical to the serial
``divide_and_color`` pipeline.  These tests enforce that contract on
seeded-random layouts across K ∈ {3, 4, 5} and every algorithm registered in
``make_colorer``, on hypothesis-generated random graphs, and on the named
benchmark circuits.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.circuits import TABLE1_CIRCUITS, load_circuit
from repro.bench.factory import random_layout
from repro.core.decomposer import Decomposer, make_colorer
from repro.core.division import DivisionReport, divide_and_color
from repro.core.options import AlgorithmOptions, DecomposerOptions, DivisionOptions
from repro.graph.decomposition_graph import DecompositionGraph
from repro.runtime import ComponentCache, ComponentScheduler, schedule_and_color

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


class TestSchedulerGraphEquivalence:
    """Scheduler vs divide_and_color on raw graphs, in-process (no pool)."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_all_algorithms_on_fig_graphs(self, algorithm, fig4, fig5):
        for graph in (fig4, fig5):
            colorer = make_colorer(algorithm, 4, AlgorithmOptions())
            serial_report = DivisionReport()
            serial = divide_and_color(graph, colorer, report=serial_report)
            parallel_report = DivisionReport()
            parallel = schedule_and_color(
                graph,
                algorithm,
                4,
                AlgorithmOptions(),
                DivisionOptions(),
                workers=1,
                cache=ComponentCache(),
                report=parallel_report,
            )
            assert parallel == serial
            assert dataclasses.asdict(parallel_report) == dataclasses.asdict(
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
        parallel = schedule_and_color(
            graph, algorithm, num_colors, workers=1, cache=ComponentCache()
        )
        assert parallel == serial

    def test_division_options_respected(self, fig5):
        division = DivisionOptions(ghtree_cut_removal=False)
        colorer = make_colorer("greedy", 4, AlgorithmOptions())
        serial = divide_and_color(fig5, colorer, division=division)
        scheduler = ComponentScheduler(
            "greedy", 4, AlgorithmOptions(), division, workers=1
        )
        outcome = scheduler.run(fig5)
        assert outcome.coloring == serial


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
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        """A dead pool must not change results — only the execution venue."""
        import repro.runtime.scheduler as scheduler_module

        def broken_executor(self):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(
            scheduler_module.ComponentScheduler, "_ensure_executor", broken_executor
        )
        layout = load_circuit("C432", scale=0.25)
        options = _options(4, "linear")
        serial = Decomposer(options).decompose(layout)
        parallel = Decomposer(options).decompose(layout, workers=4)
        assert_identical_solutions(serial, parallel)


class TestPoolPayload:
    def test_remote_payload_is_the_inline_flat_frame(self, fig5):
        """Pool submissions carry the packed frame bytes — and solve alike."""
        from repro.runtime.scheduler import ComponentScheduler, _solve_component_job

        options = _options(4, "linear")
        scheduler = ComponentScheduler(
            "linear", 4, options.algorithm_options, options.division, workers=2
        )
        payload = scheduler._remote_payload(fig5)
        assert payload[0] == fig5.to_arrays().to_bytes()
        assert _solve_component_job(payload) == _solve_component_job(
            scheduler._payload(fig5)
        )
