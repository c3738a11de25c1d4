"""Unit tests for the vector-program (SDP) substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SolverError
from repro.opt.sdp import (
    SdpOptions,
    VectorProgramSolver,
    discrete_objective,
    gram_from_coloring,
    simplex_vectors,
)


class TestSimplexVectors:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8])
    def test_unit_norm(self, k):
        vectors = simplex_vectors(k)
        norms = np.linalg.norm(vectors, axis=1)
        assert np.allclose(norms, 1.0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8])
    def test_pairwise_inner_product(self, k):
        """Fig. 3 generalised: distinct vectors have inner product -1/(K-1)."""
        vectors = simplex_vectors(k)
        gram = vectors @ vectors.T
        expected = -1.0 / (k - 1)
        off_diagonal = gram[~np.eye(k, dtype=bool)]
        assert np.allclose(off_diagonal, expected, atol=1e-9)

    def test_explicit_dimension_padding(self):
        vectors = simplex_vectors(4, dimension=6)
        assert vectors.shape == (4, 6)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0)

    def test_too_small_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            simplex_vectors(4, dimension=2)

    def test_too_few_colors_rejected(self):
        with pytest.raises(ConfigurationError):
            simplex_vectors(1)


class TestGramFromColoring:
    def test_same_color_gives_one(self):
        gram = gram_from_coloring([0, 0, 1], 4)
        assert gram[0, 1] == pytest.approx(1.0)
        assert gram[0, 2] == pytest.approx(-1.0 / 3.0)


class TestDiscreteObjective:
    def test_counts(self):
        conflicts = [(0, 1), (1, 2)]
        stitches = [(2, 3)]
        value = discrete_objective([0, 0, 1, 0], conflicts, stitches, alpha=0.1)
        assert value == pytest.approx(1 + 0.1)


class TestVectorProgramSolver:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            VectorProgramSolver(1)
        with pytest.raises(ConfigurationError):
            VectorProgramSolver(4, alpha=-1.0)

    def test_rejects_empty_problem(self):
        with pytest.raises(SolverError):
            VectorProgramSolver(4).solve(0, [])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(SolverError):
            VectorProgramSolver(4).solve(2, [(0, 5)])

    def test_gram_properties(self):
        solver = VectorProgramSolver(4)
        result = solver.solve(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        gram = result.gram
        assert gram.shape == (5, 5)
        assert np.allclose(np.diag(gram), 1.0, atol=1e-6)
        assert np.all(gram <= 1.0 + 1e-9) and np.all(gram >= -1.0 - 1e-9)

    def test_conflict_edges_pushed_apart(self):
        """On a K4 with 4 colors the relaxation reaches roughly -1/3 per edge."""
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        result = VectorProgramSolver(4).solve(4, edges)
        for i, j in edges:
            assert result.gram[i, j] < 0.0
        assert result.constraint_violation < 0.05

    def test_stitch_edges_pulled_together(self):
        """Stitch-only problems drive the endpoints parallel (x_ij -> 1)."""
        result = VectorProgramSolver(4).solve(3, [], [(0, 1), (1, 2)])
        assert result.gram[0, 1] > 0.9
        assert result.gram[1, 2] > 0.9

    def test_triangle_with_pendant_stitch(self):
        """A stitch neighbour of a conflict triangle aligns with its partner."""
        conflict = [(0, 1), (1, 2), (0, 2)]
        stitch = [(2, 3)]
        result = VectorProgramSolver(4).solve(4, conflict, stitch)
        assert result.gram[2, 3] > 0.5

    def test_objective_close_to_discrete_optimum_on_k5(self):
        """For K5 with 4 colors the SDP lower bound must not exceed the
        discrete optimum (1 conflict)."""
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        result = VectorProgramSolver(4).solve(5, edges)
        # Eq. (1) objective of the relaxation: 3/4 * sum (x_ij + 1/3)
        relaxed_conflicts = 0.75 * sum(
            result.gram[i, j] + 1.0 / 3.0 for (i, j) in edges
        )
        assert relaxed_conflicts <= 1.0 + 0.1

    def test_deterministic_given_seed(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        a = VectorProgramSolver(4).solve(4, edges)
        b = VectorProgramSolver(4).solve(4, edges)
        assert np.allclose(a.gram, b.gram)

    def test_options_validation(self):
        with pytest.raises(ConfigurationError):
            SdpOptions(learning_rate=0.0).validate()
        with pytest.raises(ConfigurationError):
            SdpOptions(max_inner_iterations=0).validate()
        with pytest.raises(ConfigurationError):
            SdpOptions(penalty_growth=1.0).validate()
