"""Bit-identical parity between the solve kernels and the reference solvers.

The compiled kernels (``repro.core.kernels``) are pure speed: same colors,
same dict insertion order, same statistics, on every input.  These tests
sweep randomized graphs through all three kernels against the reference
implementations, check the dispatch plumbing (env modes, the in-process
override, the compiled-core contract, the fall-backs to the reference), and
— in the slow tier — sweep every component of all fifteen Table 1 circuits.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from repro.core.backtrack import (
    BacktrackStatistics,
    run_backtrack_search,
    search_merged_graph,
)
from repro.core.greedy_coloring import GreedyColoring
from repro.core.kernels import (
    KERNEL_MODE_ENV,
    MAX_COMPILED_COLORS,
    active_core,
    kernel_mode,
    select_kernel,
    set_kernel_mode,
)
from repro.core.kernels.backtrack_kernel import backtrack_search
from repro.core.kernels.ccore import compiled_core
from repro.core.linear_coloring import LinearColoring
from repro.core.options import AlgorithmOptions
from repro.errors import ConfigurationError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import build_merged_graph

COMPILED_AVAILABLE = compiled_core() is not None

needs_compiled = pytest.mark.skipif(
    not COMPILED_AVAILABLE, reason="compiled solve core unavailable"
)

#: Every parity test compares the reference (mode ``off``) with these.
MODES = [pytest.param("compiled", marks=needs_compiled)]


@pytest.fixture(autouse=True)
def _restore_kernel_mode():
    """Never leak an in-process mode override into other tests."""
    previous = set_kernel_mode(None)
    set_kernel_mode(previous)
    yield
    set_kernel_mode(previous)


def random_graph(rng: random.Random, n: int) -> DecompositionGraph:
    """Random graph with all three edge kinds (friend edges exercise linear)."""
    conflict, stitch, friend = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.25:
                conflict.append((i, j))
            elif r < 0.35:
                stitch.append((i, j))
            elif r < 0.42:
                friend.append((i, j))
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
    for u, v in friend:
        graph.add_friend_edge(u, v)
    return graph


def random_merged(rng: random.Random, n: int):
    """Random merged graph including some multi-member (weighted) nodes."""
    conflict, stitch = [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.3:
                conflict.append((i, j))
            elif r < 0.42:
                stitch.append((i, j))
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
    pairs = []
    vertices = list(range(n))
    rng.shuffle(vertices)
    for a, b in zip(vertices[::2], vertices[1::2]):
        if rng.random() < 0.3 and not graph.has_conflict_edge(a, b):
            pairs.append((a, b))
    return build_merged_graph(graph, pairs)


def _assert_same_coloring(reference, candidate, context):
    assert candidate == reference, context
    # Dict insertion order is part of the contract: downstream wire encoders
    # and expand_coloring iterate items() in insertion order.
    assert list(candidate.items()) == list(reference.items()), context


class TestGreedyLinearParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_graphs(self, mode, seed):
        rng = random.Random(seed)
        for trial in range(12):
            n = rng.randint(0, 14)
            graph = random_graph(rng, n)
            num_colors = rng.choice([3, 4])
            for algorithm_cls in (GreedyColoring, LinearColoring):
                algorithm = algorithm_cls(num_colors, AlgorithmOptions())
                set_kernel_mode("off")
                reference = algorithm.color(graph)
                set_kernel_mode(mode)
                candidate = algorithm.color(graph)
                _assert_same_coloring(
                    reference,
                    candidate,
                    (algorithm_cls.__name__, mode, seed, trial, n, num_colors),
                )

    @pytest.mark.parametrize("mode", MODES)
    def test_linear_option_toggles(self, mode):
        """Peer selection / color-friendly / refinement toggles all dispatch."""
        rng = random.Random(99)
        graph = random_graph(rng, 12)
        for peer in (True, False):
            for friendly in (True, False):
                for refinement in (True, False):
                    options = AlgorithmOptions(
                        use_peer_selection=peer,
                        use_color_friendly=friendly,
                        use_post_refinement=refinement,
                    )
                    algorithm = LinearColoring(4, options)
                    set_kernel_mode("off")
                    reference = algorithm.color(graph)
                    set_kernel_mode(mode)
                    candidate = algorithm.color(graph)
                    _assert_same_coloring(
                        reference, candidate, (mode, peer, friendly, refinement)
                    )


class TestBacktrackParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_merged_graphs(self, mode, seed):
        rng = random.Random(seed)
        for trial in range(15):
            n = rng.randint(0, 12)
            merged = random_merged(rng, n)
            num_colors = rng.choice([3, 4])
            limit = rng.choice([0, 1, 5, 50, 2_000_000])
            reference_stats = BacktrackStatistics()
            reference = search_merged_graph(
                merged, num_colors, 0.1,
                expansion_limit=limit, statistics=reference_stats,
            )
            set_kernel_mode(mode)
            kernel_stats = BacktrackStatistics()
            candidate = backtrack_search(
                merged, num_colors, 0.1,
                expansion_limit=limit, statistics=kernel_stats,
            )
            context = (mode, seed, trial, n, num_colors, limit)
            _assert_same_coloring(reference, candidate, context)
            assert kernel_stats.expansions == reference_stats.expansions, context
            assert kernel_stats.completed == reference_stats.completed, context
            # Bit-identical, not approx: the kernels replicate the reference
            # float summation order exactly (and the C build forbids FMA).
            assert kernel_stats.best_cost == reference_stats.best_cost, context

    @pytest.mark.parametrize("mode", MODES)
    def test_initial_incumbent_respected(self, mode):
        rng = random.Random(5)
        merged = random_merged(rng, 10)
        initial = {node: node % 3 for node in range(merged.num_nodes)}
        reference = search_merged_graph(
            merged, 3, 0.1, expansion_limit=0, initial=initial
        )
        set_kernel_mode(mode)
        candidate = backtrack_search(
            merged, 3, 0.1, expansion_limit=0, initial=initial
        )
        _assert_same_coloring(reference, candidate, mode)


class TestDispatchPlumbing:
    def test_env_mode_parsing(self, monkeypatch):
        set_kernel_mode(None)
        monkeypatch.delenv(KERNEL_MODE_ENV, raising=False)
        assert kernel_mode() == "auto"
        monkeypatch.setenv(KERNEL_MODE_ENV, "OFF")
        assert kernel_mode() == "off"
        monkeypatch.setenv(KERNEL_MODE_ENV, "")
        assert kernel_mode() == "auto"
        monkeypatch.setenv(KERNEL_MODE_ENV, "fast")
        with pytest.raises(ConfigurationError):
            kernel_mode()

    def test_python_mode_is_refused(self, monkeypatch):
        """The pure-Python tier is gone; its mode name must fail loudly."""
        set_kernel_mode(None)
        monkeypatch.setenv(KERNEL_MODE_ENV, "python")
        with pytest.raises(ConfigurationError) as from_env:
            kernel_mode()
        with pytest.raises(ConfigurationError) as from_override:
            set_kernel_mode("python")
        for excinfo in (from_env, from_override):
            message = str(excinfo.value)
            assert "'python'" in message
            assert "auto, compiled, off" in message

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_MODE_ENV, "compiled")
        set_kernel_mode("off")
        assert kernel_mode() == "off"
        assert select_kernel("greedy") is None

    def test_off_disables_dispatch(self):
        set_kernel_mode("off")
        assert select_kernel("greedy") is None
        assert select_kernel("linear") is None
        assert select_kernel("backtrack") is None
        assert active_core() is None

    def test_unknown_algorithm_is_none(self):
        set_kernel_mode("auto")
        assert select_kernel("sdp") is None

    def test_compiled_mode_is_strict(self, monkeypatch, tmp_path):
        """``compiled`` must raise, not fall back, when no core can build.

        This is what makes the CI compiled leg honest: if the toolchain
        breaks, the leg fails instead of silently testing the fallback.
        """
        from repro.core.kernels import ccore

        monkeypatch.setenv(ccore.BUILD_ENV, "0")
        monkeypatch.setenv(ccore.CACHE_DIR_ENV, str(tmp_path))
        ccore.reset()
        try:
            set_kernel_mode("compiled")
            with pytest.raises(ConfigurationError):
                active_core()
            set_kernel_mode("auto")
            assert active_core() is None  # auto runs the reference
            assert select_kernel("greedy") is None
            graph = random_graph(random.Random(4), 9)
            algorithm = GreedyColoring(4, AlgorithmOptions())
            candidate = algorithm.color(graph)
            set_kernel_mode("off")
            _assert_same_coloring(algorithm.color(graph), candidate, "no core")
        finally:
            ccore.reset()

    def test_ambient_mode_is_exercised(self):
        """Under an ambient env mode (the CI legs), the dispatch must hold.

        With ``REPRO_SOLVE_KERNELS=compiled`` this hard-fails when the core
        cannot build — ``active_core`` raises — which is exactly the point.
        With ``auto`` on a box that cannot build the core (the CI leg sets
        ``REPRO_KERNELS_BUILD=0`` over an empty cache), the reference path
        must be the one that runs.
        """
        from repro.core.kernels import ccore

        set_kernel_mode(None)
        mode = kernel_mode()
        if mode == "compiled":
            assert active_core() is not None
            assert select_kernel("greedy") is not None
        elif mode == "off" or _core_cannot_load(ccore):
            assert active_core() is None
            assert select_kernel("greedy") is None
            assert select_kernel("linear") is None
            assert select_kernel("backtrack") is None


def _core_cannot_load(ccore) -> bool:
    """True when builds are forbidden and the build cache holds no core."""
    if os.environ.get(ccore.BUILD_ENV, "").strip() != "0":
        return False
    return not Path(ccore._library_path()).exists()


class _AllocationFailingCore:
    """A loaded core whose allocating stages report failure (``None``)."""

    def backtrack_search(self, *args):
        return None

    def peel(self, *args):
        return None


class TestReferenceFallback:
    """Whenever a kernel declines, the reference runs — bit for bit."""

    @pytest.fixture
    def failing_core(self, monkeypatch):
        from repro.core.kernels import ccore

        monkeypatch.setattr(ccore, "compiled_core", _AllocationFailingCore)
        set_kernel_mode("auto")

    @pytest.mark.parametrize("seed", range(4))
    def test_backtrack_allocation_failure_runs_reference(self, failing_core, seed):
        rng = random.Random(seed)
        for trial in range(6):
            merged = random_merged(rng, rng.randint(0, 10))
            limit = rng.choice([0, 5, 2_000_000])
            reference_stats = BacktrackStatistics()
            reference = search_merged_graph(
                merged, 4, 0.1, expansion_limit=limit, statistics=reference_stats
            )
            stats = BacktrackStatistics()
            candidate = run_backtrack_search(
                merged, 4, 0.1, expansion_limit=limit, statistics=stats
            )
            context = (seed, trial, limit)
            _assert_same_coloring(reference, candidate, context)
            assert vars(stats) == vars(reference_stats), context

    @pytest.mark.parametrize("solver", ["greedy", "linear", "backtrack"])
    def test_auto_without_core_runs_reference(self, monkeypatch, solver):
        from repro.core.kernels import ccore

        monkeypatch.setattr(ccore, "compiled_core", lambda: None)
        set_kernel_mode("auto")
        assert select_kernel(solver) is None
        rng = random.Random(11)
        if solver == "backtrack":
            merged = random_merged(rng, 9)
            stats, reference_stats = BacktrackStatistics(), BacktrackStatistics()
            candidate = run_backtrack_search(merged, 4, 0.1, statistics=stats)
            reference = search_merged_graph(
                merged, 4, 0.1, statistics=reference_stats
            )
            assert vars(stats) == vars(reference_stats)
        else:
            graph = random_graph(rng, 12)
            cls = GreedyColoring if solver == "greedy" else LinearColoring
            algorithm = cls(4, AlgorithmOptions())
            candidate = algorithm.color(graph)
            set_kernel_mode("off")
            reference = algorithm.color(graph)
        _assert_same_coloring(reference, candidate, solver)

    @pytest.mark.parametrize("solver", ["greedy", "linear"])
    def test_kernels_decline_beyond_color_cap(self, failing_core, solver):
        """K past the compiled bound: the kernel declines before any C call."""
        from repro.core.kernels import greedy_kernel, linear_kernel

        graph = random_graph(random.Random(8), 8)
        too_many = MAX_COMPILED_COLORS + 1
        if solver == "greedy":
            assert greedy_kernel.greedy_color(graph, too_many, 0.1) is None
        else:
            options = AlgorithmOptions()
            assert linear_kernel.linear_color(graph, too_many, options) is None

    def test_unknown_algorithm_never_touches_the_core(self, monkeypatch, tmp_path):
        """``select_kernel('sdp')`` answers before loading (or requiring) a core."""
        from repro.core.kernels import ccore

        monkeypatch.setenv(ccore.BUILD_ENV, "0")
        monkeypatch.setenv(ccore.CACHE_DIR_ENV, str(tmp_path))
        ccore.reset()
        try:
            set_kernel_mode("compiled")
            assert select_kernel("sdp") is None
        finally:
            ccore.reset()

    @pytest.mark.parametrize("seed", range(4))
    def test_peel_allocation_failure_runs_reference(self, failing_core, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, 13)
        algorithm = LinearColoring(4, AlgorithmOptions())
        candidate = algorithm.color(graph)
        set_kernel_mode("off")
        _assert_same_coloring(algorithm.color(graph), candidate, seed)


class TestCompiledCore:
    @needs_compiled
    def test_build_is_cached(self):
        from repro.core.kernels import ccore

        first = ccore.compiled_core()
        second = ccore.compiled_core()
        assert first is second is not None

    @needs_compiled
    @pytest.mark.parametrize("algorithm_cls", [GreedyColoring, LinearColoring])
    def test_color_cap_falls_back(self, algorithm_cls):
        """K beyond the compiled color cap runs the reference solver."""
        rng = random.Random(3)
        graph = random_graph(rng, 10)
        algorithm = algorithm_cls(MAX_COMPILED_COLORS + 1, AlgorithmOptions())
        set_kernel_mode("off")
        reference = algorithm.color(graph)
        set_kernel_mode("compiled")
        candidate = algorithm.color(graph)
        _assert_same_coloring(reference, candidate, "color-cap")


    @needs_compiled
    def test_backtrack_has_no_color_cap(self):
        """The search keeps no per-color state, so K past the cap stays compiled."""
        merged = random_merged(random.Random(6), 10)
        too_many = MAX_COMPILED_COLORS + 1
        initial = {node: 0 for node in range(merged.num_nodes)}
        reference_stats = BacktrackStatistics()
        reference = search_merged_graph(
            merged, too_many, 0.1, initial=initial, statistics=reference_stats
        )
        set_kernel_mode("compiled")
        stats = BacktrackStatistics()
        candidate = backtrack_search(
            merged, too_many, 0.1, initial=initial, statistics=stats
        )
        assert candidate is not None
        _assert_same_coloring(reference, candidate, "backtrack past the color cap")
        assert vars(stats) == vars(reference_stats)
        assert stats.expansions > 1


class TestMemoizedFrameParity:
    """Workers solve straight off shipped frames — results must not change."""

    @pytest.mark.parametrize("mode", ["off", *MODES])
    def test_frame_roundtrip_solves_identically(self, mode):
        from repro.graph.flat import graph_from_frame

        rng = random.Random(17)
        graph = random_graph(rng, 13)
        frame = graph.to_arrays().to_bytes()
        rebuilt = graph_from_frame(frame, memoize=True)
        assert rebuilt._flat is not None  # decoded frame reused, not re-flattened
        for algorithm_cls in (GreedyColoring, LinearColoring):
            algorithm = algorithm_cls(4, AlgorithmOptions())
            set_kernel_mode("off")
            reference = algorithm.color(graph)
            set_kernel_mode(mode)
            candidate = algorithm.color(rebuilt)
            _assert_same_coloring(reference, candidate, (algorithm_cls.__name__, mode))


@pytest.mark.slow
class TestCircuitSweep:
    """Byte-identical colorings over every component of all 15 circuits."""

    SCALE = 0.15
    CIRCUITS = [
        "C432", "C499", "C880", "C1355", "C1908", "C2670", "C3540",
        "C5315", "C6288", "C7552", "S1488", "S38417", "S35932",
        "S38584", "S15850",
    ]
    #: Small components finish the search; the large ones stop here, so the
    #: sweep checks both a completed search and a budget-cut incumbent.
    EXPANSION_LIMIT = 20_000

    def _components(self, circuit):
        from repro.bench.factory import circuit_graph
        from repro.graph.components import connected_components

        graph = circuit_graph(circuit, 4, scale=self.SCALE).graph
        return [
            graph.subgraph(component) for component in connected_components(graph)
        ]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_all_components_identical(self, circuit, mode):
        components = self._components(circuit)
        for algorithm_cls in (GreedyColoring, LinearColoring):
            algorithm = algorithm_cls(4, AlgorithmOptions())
            for component in components:
                set_kernel_mode("off")
                reference = algorithm.color(component)
                set_kernel_mode(mode)
                candidate = algorithm.color(component)
                _assert_same_coloring(
                    reference,
                    candidate,
                    (circuit, algorithm_cls.__name__, mode, component.num_vertices),
                )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_all_components_backtrack_identical(self, circuit, mode):
        """The search on each component: unmerged at K=3, stitch-merged at K=4."""
        for component in self._components(circuit):
            for num_colors, merge_pairs in ((3, []), (4, component.stitch_edges())):
                merged = build_merged_graph(component, merge_pairs)
                reference_stats = BacktrackStatistics()
                reference = search_merged_graph(
                    merged, num_colors, 0.1,
                    expansion_limit=self.EXPANSION_LIMIT,
                    statistics=reference_stats,
                )
                set_kernel_mode(mode)
                stats = BacktrackStatistics()
                candidate = backtrack_search(
                    merged, num_colors, 0.1,
                    expansion_limit=self.EXPANSION_LIMIT,
                    statistics=stats,
                )
                context = (circuit, mode, num_colors, merged.num_nodes)
                _assert_same_coloring(reference, candidate, context)
                assert vars(stats) == vars(reference_stats), context


class TestEndToEndTable:
    def test_run_table_identical_off_vs_auto(self):
        """A full (small) experiment run must not depend on the kernel mode."""
        from repro.experiments.runner import run_table

        def table():
            return run_table(
                ["C432"],
                ["linear", "greedy"],
                num_colors=4,
                scale=0.12,
                name="kernel-parity",
            )

        set_kernel_mode("off")
        reference = table()
        set_kernel_mode("auto")
        candidate = table()
        for ref_row, cand_row in zip(reference.rows, candidate.rows):
            assert (ref_row.circuit, ref_row.algorithm) == (
                cand_row.circuit, cand_row.algorithm,
            )
            assert (ref_row.conflicts, ref_row.stitches) == (
                cand_row.conflicts, cand_row.stitches,
            ), (ref_row.circuit, ref_row.algorithm)
