"""Bit-identical parity between the compiled relaxation loop and its reference.

``VectorProgramSolver._relax`` defines the relaxation's arithmetic and the
compiled ``repro_sdp_solve`` repeats it operation for operation, so every
field of :class:`~repro.opt.sdp.SdpResult` must match exactly — not approx.
A byte pin on one fixed problem makes a numpy or BLAS upgrade that moves
the relaxation fail loudly, in either mode.  The slow tier replays every
SDP piece of the Table 1 (K=4) and Table 2 (K=5) circuits.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.core.kernels import set_kernel_mode
from repro.core.kernels.ccore import compiled_core
from repro.errors import SolverError
from repro.opt.sdp import SdpOptions, VectorProgramSolver

needs_compiled = pytest.mark.skipif(
    compiled_core() is None, reason="compiled solve core unavailable"
)


@pytest.fixture(autouse=True)
def _restore_kernel_mode():
    """Never leak an in-process mode override into other tests."""
    previous = set_kernel_mode(None)
    set_kernel_mode(previous)
    yield
    set_kernel_mode(previous)


def random_problem(rng: random.Random, n: int, stitches: bool):
    """Random conflict (and optionally stitch) edges, endpoints in either order."""
    conflict, stitch = [], []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.25:
                conflict.append((i, j) if rng.random() < 0.5 else (j, i))
            elif stitches and r < 0.35:
                stitch.append((i, j))
    return conflict, stitch


def solve_in(mode, solver, n, conflict, stitch):
    set_kernel_mode(mode)
    return solver.solve(n, conflict, stitch)


def assert_identical(reference, candidate, context):
    assert candidate.vectors.tobytes() == reference.vectors.tobytes(), context
    assert candidate.gram.tobytes() == reference.gram.tobytes(), context
    assert candidate.iterations == reference.iterations, context
    assert candidate.constraint_violation == reference.constraint_violation, context
    assert candidate.objective == reference.objective, context


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


class TestCompiledParity:
    @needs_compiled
    @pytest.mark.parametrize("num_colors", [3, 4, 5, 6])
    @pytest.mark.parametrize("stitches", [False, True])
    def test_random_problems(self, num_colors, stitches):
        """Both schedules: the default single penalty round, and six rounds,
        which keep the penalty-growth branch of both loops under test."""
        rng = random.Random(1000 * num_colors + stitches)
        for trial in range(6):
            n = rng.randint(1, 18)
            conflict, stitch = random_problem(rng, n, stitches)
            seed = rng.randint(0, 9999)
            for rounds in (1, 6):
                solver = VectorProgramSolver(
                    num_colors,
                    alpha=0.1,
                    options=SdpOptions(max_outer_iterations=rounds, seed=seed),
                )
                reference = solve_in("off", solver, n, conflict, stitch)
                candidate = solve_in("compiled", solver, n, conflict, stitch)
                assert_identical(
                    reference, candidate, (num_colors, stitches, trial, n, rounds)
                )

    @needs_compiled
    @pytest.mark.parametrize("dimension", [1, 3, 9])
    def test_dimension_override(self, dimension):
        rng = random.Random(dimension)
        conflict, stitch = random_problem(rng, 14, stitches=True)
        solver = VectorProgramSolver(4, options=SdpOptions(dimension=dimension))
        reference = solve_in("off", solver, 14, conflict, stitch)
        candidate = solve_in("compiled", solver, 14, conflict, stitch)
        assert reference.vectors.shape == (14, dimension)
        assert_identical(reference, candidate, dimension)

    @needs_compiled
    def test_edge_free_and_stitch_only_problems(self):
        for n, conflict, stitch in ((3, [], []), (4, [], [(0, 1), (2, 3), (1, 2)])):
            solver = VectorProgramSolver(4)
            reference = solve_in("off", solver, n, conflict, stitch)
            candidate = solve_in("compiled", solver, n, conflict, stitch)
            assert_identical(reference, candidate, (n, stitch))


class TestByteExactness:
    """One fixed problem, pinned to the byte in both modes under each schedule.

    Six penalty rounds reach a feasible iterate after five; the default
    single round stops at its 400-step cap, still violating the conflict
    bound, which is the iterate the mapping stages receive.
    """

    N = 12
    CONFLICT = [(i, (i + 1) % 12) for i in range(12)] + [
        (i, (i + 5) % 12) for i in range(0, 12, 2)
    ]
    STITCH = [(0, 6), (3, 9), (4, 10)]
    VECTORS_SHA256 = "ca50757f5f312e1d95eb89a73142defc6e541e04ad4d791880128e8cd71f69cd"
    GRAM_SHA256 = "3d12c48e0e35d8835cd81066e3f99dcf6e9da64661e1b4b73a4177510f919f6f"
    DEFAULT_VECTORS_SHA256 = (
        "1b4c59c8300f27112810a19ba4d8e17140609aa14f91d8b2228c3a5c15fc57da"
    )
    DEFAULT_GRAM_SHA256 = (
        "a25218c72bd889595bd2fe9aa0ab14d57dadeb7480b6959cee6cef9c686603b9"
    )

    @pytest.mark.parametrize(
        "mode", ["off", pytest.param("compiled", marks=needs_compiled)]
    )
    def test_bytes_pinned(self, mode):
        solver = VectorProgramSolver(4, options=SdpOptions(max_outer_iterations=6))
        result = solve_in(mode, solver, self.N, self.CONFLICT, self.STITCH)
        assert digest(result.vectors) == self.VECTORS_SHA256
        assert digest(result.gram) == self.GRAM_SHA256
        assert result.iterations == 2000
        assert result.constraint_violation == 0.0

    @pytest.mark.parametrize(
        "mode", ["off", pytest.param("compiled", marks=needs_compiled)]
    )
    def test_default_schedule_bytes_pinned(self, mode):
        result = solve_in(mode, VectorProgramSolver(4), self.N, self.CONFLICT, self.STITCH)
        assert digest(result.vectors) == self.DEFAULT_VECTORS_SHA256
        assert digest(result.gram) == self.DEFAULT_GRAM_SHA256
        assert result.iterations == 400
        assert result.constraint_violation == 0.2507674299978035


class _NoCallCore:
    """A loaded core that must never be reached."""

    def sdp_solve(self, *args):
        raise AssertionError("the compiled relaxation ran on invalid input")


class TestValidation:
    @pytest.mark.parametrize(
        "conflict, stitch", [([(0, 5)], []), ([(0, 1)], [(-1, 0)]), ([(2, 0)], [])]
    )
    def test_out_of_range_edges_raise_before_the_core(
        self, monkeypatch, conflict, stitch
    ):
        from repro.core.kernels import ccore

        monkeypatch.setattr(ccore, "compiled_core", _NoCallCore)
        set_kernel_mode("compiled")
        with pytest.raises(SolverError):
            VectorProgramSolver(4).solve(2, conflict, stitch)


@pytest.mark.slow
class TestCircuitSweep:
    """Every SDP piece the Table 1 / Table 2 flows solve, replayed in both modes."""

    @staticmethod
    def _pieces(monkeypatch, circuits, num_colors, scale):
        from repro.experiments.runner import run_table

        pieces = []
        original = VectorProgramSolver.solve

        def recording(self, num_vertices, conflict_edges, stitch_edges=()):
            pieces.append(
                (self.num_colors, self.alpha, num_vertices,
                 list(conflict_edges), list(stitch_edges))
            )
            return original(self, num_vertices, conflict_edges, stitch_edges)

        monkeypatch.setattr(VectorProgramSolver, "solve", recording)
        run_table(circuits, ["sdp-backtrack"], num_colors=num_colors, scale=scale)
        monkeypatch.undo()
        assert pieces
        return pieces

    @needs_compiled
    @pytest.mark.parametrize(
        "table, num_colors, scale", [(1, 4, 0.15), (2, 5, 0.12)]
    )
    def test_every_piece_identical(self, monkeypatch, table, num_colors, scale):
        from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS

        circuits = list(TABLE1_CIRCUITS if table == 1 else TABLE2_CIRCUITS)
        for num_colors, alpha, n, conflict, stitch in self._pieces(
            monkeypatch, circuits, num_colors, scale
        ):
            solver = VectorProgramSolver(num_colors, alpha=alpha)
            reference = solve_in("off", solver, n, conflict, stitch)
            candidate = solve_in("compiled", solver, n, conflict, stitch)
            assert_identical(reference, candidate, (table, n, len(conflict)))
