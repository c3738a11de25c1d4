"""Brute-force optimality oracle for the backtracking search.

The backtrack solver claims exactness within its expansion budget.  These
tests enumerate *every* coloring of small random merged graphs and assert
the search (reference and, when it loads, the compiled kernel) lands on the
optimal weighted cost — the strongest check a bounded search can pass, and one that the
pruning (symmetry breaking, incumbent bound, cost cut) cannot fake.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.backtrack import BacktrackStatistics, search_merged_graph
from repro.core.kernels import set_kernel_mode
from repro.core.kernels.backtrack_kernel import backtrack_search
from repro.core.kernels.ccore import compiled_core
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.simplify import MergedGraph, build_merged_graph

COMPILED_AVAILABLE = compiled_core() is not None

#: Kernel modes checked next to the reference solver.
MODES = ["compiled"] if COMPILED_AVAILABLE else []


@pytest.fixture(autouse=True)
def _restore_kernel_mode():
    previous = set_kernel_mode(None)
    set_kernel_mode(previous)
    yield
    set_kernel_mode(previous)


def brute_force_optimum(merged: MergedGraph, num_colors: int, alpha: float) -> float:
    """Exhaustive minimum of the weighted objective over all colorings."""
    best = float("inf")
    for assignment in itertools.product(range(num_colors), repeat=merged.num_nodes):
        _, _, cost = merged.coloring_cost(dict(enumerate(assignment)), alpha)
        best = min(best, cost)
    return best


def random_merged(rng: random.Random, n: int) -> MergedGraph:
    conflict, stitch = [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.35:
                conflict.append((i, j))
            elif r < 0.5:
                stitch.append((i, j))
    graph = DecompositionGraph.from_edges(conflict, stitch, vertices=range(n))
    pairs = []
    vertices = list(range(n))
    rng.shuffle(vertices)
    for a, b in zip(vertices[::2], vertices[1::2]):
        if rng.random() < 0.25 and not graph.has_conflict_edge(a, b):
            pairs.append((a, b))
    return build_merged_graph(graph, pairs)


def _solvers():
    """(name, solver) pairs: the reference plus the compiled kernel."""
    yield "reference", search_merged_graph

    def kernel_solver(mode):
        def solve(merged, num_colors, alpha, **kwargs):
            previous = set_kernel_mode(mode)
            try:
                return backtrack_search(merged, num_colors, alpha, **kwargs)
            finally:
                set_kernel_mode(previous)

        return solve

    for mode in MODES:
        yield f"kernel-{mode}", kernel_solver(mode)


def _check_optimal(merged: MergedGraph, num_colors: int, context) -> None:
    alpha = 0.1
    optimum = brute_force_optimum(merged, num_colors, alpha)
    for name, solve in _solvers():
        stats = BacktrackStatistics()
        coloring = solve(merged, num_colors, alpha, statistics=stats)
        assert stats.completed, (name, *context)
        _, _, cost = merged.coloring_cost(coloring, alpha)
        assert cost == pytest.approx(optimum), (name, *context)
        assert stats.best_cost == pytest.approx(optimum), (name, *context)


class TestOracleFast:
    """Tier-1 slice: every graph up to 6 nodes over a handful of seeds."""

    @pytest.mark.parametrize("num_colors", [3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_on_small_graphs(self, seed, num_colors):
        rng = random.Random(seed)
        for trial in range(6):
            n = rng.randint(1, 6)
            merged = random_merged(rng, n)
            _check_optimal(merged, num_colors, (seed, trial, n, num_colors))


@pytest.mark.slow
class TestOracleFull:
    """Full sweep: up to 8 nodes (4^8 = 65536 colorings per brute force)."""

    @pytest.mark.parametrize("num_colors", [3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_optimal_up_to_eight_nodes(self, seed, num_colors):
        rng = random.Random(1000 + seed)
        for trial in range(8):
            n = rng.randint(5, 8)
            merged = random_merged(rng, n)
            _check_optimal(merged, num_colors, (seed, trial, n, num_colors))
