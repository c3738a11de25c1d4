"""Unit tests for the exact ILP color assignment."""

import itertools
import random

import numpy as np
import pytest

from repro.core.evaluation import count_conflicts, count_stitches, evaluate
from repro.core.greedy_coloring import GreedyColoring
from repro.core.ilp_coloring import IlpColoring
from repro.core.options import AlgorithmOptions
from repro.errors import SolverError
from repro.graph.decomposition_graph import DecompositionGraph


def _brute_force_cost(graph, num_colors, alpha):
    """Minimum ``conflicts + alpha * stitches`` over every coloring."""
    rank = {vertex: i for i, vertex in enumerate(graph.vertices())}
    colorings = np.array(
        list(itertools.product(range(num_colors), repeat=len(rank)))
    )

    def same(u, v):
        return colorings[:, rank[u]] == colorings[:, rank[v]]

    cost = np.zeros(len(colorings))
    for u, v in graph.conflict_edges():
        cost += same(u, v)
    for u, v in graph.stitch_edges():
        cost += alpha * ~same(u, v)
    return cost.min()


def _random_graph(seed):
    """A seeded random graph of 6-7 vertices (spread ids, some isolated)
    with conflict and stitch edges, and its color count K in {2, 3, 4}."""
    rng = random.Random(seed)
    ids = rng.sample(range(100), rng.choice((6, 7)))
    conflicts, stitches = [], []
    for pair in itertools.combinations(ids, 2):
        draw = rng.random()
        if draw < 0.45:
            conflicts.append(pair)
        elif draw < 0.65:
            stitches.append(pair)
    graph = DecompositionGraph.from_edges(conflicts, stitches, vertices=ids)
    return rng.choice((2, 3, 4)), graph


def _assert_matches_brute_force(graph, num_colors):
    """The ILP optimum equals the brute-force optimum, proven in time."""
    colorer = IlpColoring(num_colors)
    got = evaluate(graph, colorer.color(graph), 0.1).cost
    assert got == pytest.approx(_brute_force_cost(graph, num_colors, 0.1))
    assert colorer.timeouts == 0


def _stub_milp(monkeypatch, **result):
    """Make every ``scipy.optimize.milp`` call return ``result``."""
    import scipy.optimize

    monkeypatch.setattr(
        scipy.optimize, "milp", lambda *args, **kwargs: scipy.optimize.OptimizeResult(**result)
    )


class TestIlpColoring:
    def test_empty_graph(self):
        assert IlpColoring(4).color(DecompositionGraph()) == {}

    def test_k4_zero_conflicts(self, k4_graph):
        coloring = IlpColoring(4).color(k4_graph)
        assert count_conflicts(k4_graph, coloring) == 0

    def test_k5_exactly_one_conflict(self, k5_graph):
        coloring = IlpColoring(4).color(k5_graph)
        assert count_conflicts(k5_graph, coloring) == 1

    def test_stitch_minimisation(self, stitch_pair_graph):
        """The two fragments should share a color; the third vertex differs."""
        coloring = IlpColoring(4).color(stitch_pair_graph)
        assert count_conflicts(stitch_pair_graph, coloring) == 0
        assert count_stitches(stitch_pair_graph, coloring) == 0

    def test_matches_exact_on_weighted_instance(self):
        graph = DecompositionGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (3, 4)],
            [(4, 5), (5, 0)],
        )
        _assert_matches_brute_force(graph, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exact_on_random_graph(self, seed):
        num_colors, graph = _random_graph(seed)
        _assert_matches_brute_force(graph, num_colors)

    def test_timeout_counter_increments(self, k5_graph):
        options = AlgorithmOptions(ilp_time_limit=0.0)
        colorer = IlpColoring(4, options)
        coloring = colorer.color(k5_graph)
        # A zero budget cannot prove optimality; the fallback still colors.
        assert set(coloring) == set(k5_graph.vertices())
        assert colorer.timeouts >= 1

    def test_time_limit_without_incumbent_falls_back_to_greedy(
        self, k5_graph, monkeypatch
    ):
        _stub_milp(monkeypatch, status=1, x=None, message="Time limit reached.")
        colorer = IlpColoring(4)
        assert colorer.color(k5_graph) == GreedyColoring(4).color(k5_graph)
        assert colorer.timeouts == 1

    def test_solver_failure_raises(self, k5_graph, monkeypatch):
        _stub_milp(monkeypatch, status=4, x=None, message="solve error")
        with pytest.raises(SolverError, match="solve error"):
            IlpColoring(4).color(k5_graph)

    def test_five_colors(self, k5_graph):
        coloring = IlpColoring(5).color(k5_graph)
        assert count_conflicts(k5_graph, coloring) == 0
