"""Semidefinite / vector programming substrate for color assignment.

The paper relaxes K-coloring to the vector program of Eq. (2)/(3):

.. math::

    \\min \\sum_{e_{ij} \\in CE} v_i \\cdot v_j
          \\; - \\; \\alpha \\sum_{e_{ij} \\in SE} v_i \\cdot v_j
    \\quad \\text{s.t.} \\quad
    v_i \\cdot v_i = 1, \\qquad
    v_i \\cdot v_j \\ge -\\tfrac{1}{K-1} \\;\\; \\forall e_{ij} \\in CE

and solves it with CSDP.  CSDP is not available offline, so this module
implements a specialised solver for exactly this SDP family using the
Burer–Monteiro low-rank factorisation ``X = V V^T`` with unit-norm rows:
projected gradient descent on the unit sphere with an augmented quadratic
penalty for the conflict-edge inequality constraints, and an outer loop that
can tighten the penalty.  The downstream mapping stages only consume the
pairwise inner products ``x_ij``, which this solver provides with the same
semantics ("close to 1" = same mask, "close to -1/(K-1)" = different masks).

Penalty schedule
----------------
By default the relaxation runs one penalty round: at most 400 gradient
steps at penalty 2.0.  More rounds (``SdpOptions.max_outer_iterations``)
multiply the penalty by ``penalty_growth`` and run again while the conflict
bound is still violated by 1e-3 or more.  The mapped tables chose one
round: over relaxation seeds 2014-2018 at full scale, six rounds gave more
conflicts on both tables under both mappings (Table 2 sdp-backtrack
776-783 against 547-562) for about twice the CPU
(``benchmarks/bench_sdp_schedule.py``).  So the default iterate usually
violates the conflict bound: 43 of the 46 relaxations of perfbench's
``sdp-k4`` inputs end at 1e-3 or more, against 19 with six rounds.  The
schedule was picked by the tables the mapping makes of the inner products,
not by the feasibility of the iterate.

Arithmetic contract
-------------------
The relaxation's output bytes are defined here, not by numpy's reduction
order, BLAS or SIMD width.  :meth:`VectorProgramSolver._relax` is the
reference, and the compiled loop ``repro_sdp_solve`` in
``repro/core/kernels/_solvecore.c`` repeats it operation for operation, so
the two are bit-identical (``tests/kernels/test_sdp_parity.py``):

* the start point is ``PCG64(seed + n).random_raw`` words — a stream NumPy
  keeps stable, unlike ``Generator.normal`` — whose top 53 bits map exactly
  to coordinates in ``[-1, 1)``, then each row is normalised;
* every dot product and every sum runs left to right from ``+0.0``, and a
  norm is the ``sqrt`` of such a sum (a row norm of 0 divides by 1);
* the gradient is scattered in edge order, conflict edges then stitch
  edges, fused per edge: edge ``(i, j)`` with weight ``w`` adds ``w * v_j``
  to row ``i`` and then ``w * v_i`` to row ``j``, where ``w`` is
  ``1 - 2 * penalty * max(lb - v_i.v_j, 0)`` for a conflict edge and
  ``-alpha`` for a stitch edge;
* the penalised value adds ``d + penalty * (s * s)`` per conflict edge (``d``
  the dot product, ``s`` its violation) and ``-alpha * d`` per stitch edge;
  the objective adds ``d`` and ``-alpha * d``;
* the gram matrix is the clipped row-by-row dot products of the final
  vectors.

Only elementwise numpy operations and sequential accumulations
(``np.add.accumulate``, ``np.add.at``) appear in the reference; ``einsum``,
``@``, ``linalg.norm`` and ``.sum()`` do not, because their summation order
is numpy's to choose.  The only libm call is ``sqrt``, which IEEE 754
rounds correctly everywhere.

The module also exposes :func:`simplex_vectors`, the K unit vectors of Fig. 3
(mutual inner product exactly ``-1/(K-1)``), used by tests and by the
discrete-solution encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SolverError


def simplex_vectors(num_colors: int, dimension: Optional[int] = None) -> np.ndarray:
    """Return ``num_colors`` unit vectors with pairwise inner product -1/(K-1).

    The vectors form a regular simplex; for K = 4 they match the four vectors
    of Fig. 3 up to rotation.  ``dimension`` defaults to ``num_colors - 1``
    (the minimum embedding dimension) and may be larger, in which case the
    vectors are zero-padded.
    """
    if num_colors < 2:
        raise ConfigurationError("simplex_vectors needs at least 2 colors")
    k = num_colors
    dim = dimension if dimension is not None else k - 1
    if dim < k - 1:
        raise ConfigurationError(
            f"dimension {dim} too small for {k} simplex vectors (need >= {k - 1})"
        )
    # Start from the identity-based construction: columns of I_k, centred and
    # scaled, give k points in the hyperplane orthogonal to the all-ones
    # vector with constant pairwise inner product.
    identity = np.eye(k)
    centred = identity - np.full((k, k), 1.0 / k)
    # Rows of `centred` live in a (k-1)-dimensional subspace; orthonormalise.
    basis, _ = np.linalg.qr(centred.T)
    coords = centred @ basis[:, : k - 1]
    norms = np.linalg.norm(coords, axis=1, keepdims=True)
    coords = coords / norms
    padded = np.zeros((k, dim))
    padded[:, : k - 1] = coords
    return padded


def gram_from_coloring(colors: Sequence[int], num_colors: int) -> np.ndarray:
    """Return the Gram matrix of a discrete coloring under the simplex encoding."""
    vectors = simplex_vectors(num_colors)
    v = np.asarray([vectors[c] for c in colors])
    return v @ v.T


def discrete_objective(
    colors: Sequence[int],
    conflict_edges: Iterable[Tuple[int, int]],
    stitch_edges: Iterable[Tuple[int, int]],
    alpha: float,
) -> float:
    """Return conflicts + alpha * stitches for a discrete coloring."""
    conflicts = sum(1 for (i, j) in conflict_edges if colors[i] == colors[j])
    stitches = sum(1 for (i, j) in stitch_edges if colors[i] != colors[j])
    return conflicts + alpha * stitches


@dataclass
class SdpOptions:
    """Hyper-parameters of the low-rank vector-program solver.

    The schedule is up to ``max_outer_iterations`` penalty rounds of at most
    ``max_inner_iterations`` steps of ``learning_rate``.  Round ``r`` (from
    0) uses penalty ``penalty_initial * penalty_growth ** r`` and runs only
    while the last round ended with a conflict violation of 1e-3 or more.
    The default is one round at penalty 2.0: more rounds cost time and made
    the mapped tables worse (module docstring, "Penalty schedule").
    """

    dimension: Optional[int] = None
    max_outer_iterations: int = 1
    max_inner_iterations: int = 400
    learning_rate: float = 0.05
    penalty_initial: float = 2.0
    penalty_growth: float = 4.0
    gradient_tolerance: float = 1e-4
    seed: int = 2014

    def validate(self) -> None:
        if self.max_outer_iterations <= 0 or self.max_inner_iterations <= 0:
            raise ConfigurationError("iteration counts must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        if self.penalty_initial <= 0 or self.penalty_growth <= 1:
            raise ConfigurationError("penalty schedule must be increasing")


@dataclass
class SdpResult:
    """Solution of the vector-program relaxation.

    Attributes
    ----------
    gram:
        ``n x n`` matrix of pairwise inner products, clipped to [-1, 1].
    vectors:
        The low-rank factor ``V`` (rows are unit vectors).
    objective:
        Relaxed objective value (Eq. 2/3 without the constant term).
    constraint_violation:
        Largest violation of the conflict-edge inequality (0 when feasible).
    iterations:
        Total inner iterations performed.
    """

    gram: np.ndarray
    vectors: np.ndarray
    objective: float
    constraint_violation: float
    iterations: int

    def inner_product(self, i: int, j: int) -> float:
        """Return ``x_ij`` for a vertex-index pair."""
        return float(self.gram[i, j])


class VectorProgramSolver:
    """Low-rank solver for the K-patterning vector program (Eq. 2/3)."""

    def __init__(
        self,
        num_colors: int,
        alpha: float = 0.1,
        options: Optional[SdpOptions] = None,
    ) -> None:
        if num_colors < 2:
            raise ConfigurationError("num_colors must be at least 2")
        if alpha < 0:
            raise ConfigurationError("alpha must be non-negative")
        self.num_colors = num_colors
        self.alpha = alpha
        self.options = options or SdpOptions()
        self.options.validate()

    # ------------------------------------------------------------------ API
    def solve(
        self,
        num_vertices: int,
        conflict_edges: Sequence[Tuple[int, int]],
        stitch_edges: Sequence[Tuple[int, int]] = (),
    ) -> SdpResult:
        """Solve the relaxation for a graph on ``range(num_vertices)``.

        Edge endpoints must be indices in ``[0, num_vertices)``.  Runs the
        compiled loop when the core is loaded and can allocate, and
        :meth:`_relax` otherwise; both return the same bytes.
        """
        if num_vertices <= 0:
            raise SolverError("cannot solve an empty vector program")
        for (i, j) in list(conflict_edges) + list(stitch_edges):
            if not (0 <= i < num_vertices and 0 <= j < num_vertices):
                raise SolverError(f"edge ({i}, {j}) outside vertex range")

        # A couple of extra dimensions beyond K helps the low-rank factorisation
        # escape the local minima a rank-K landscape exhibits.
        dim = self.options.dimension or (self.num_colors + 2)
        vectors = start_point(num_vertices, dim, self.options.seed)
        conflict = np.asarray(conflict_edges, dtype=int).reshape(-1, 2)
        stitch = np.asarray(stitch_edges, dtype=int).reshape(-1, 2)
        lower_bound = -1.0 / (self.num_colors - 1)

        from repro.core.kernels.sdp_kernel import relax

        result = relax(vectors, conflict, stitch, self.alpha, lower_bound, self.options)
        if result is not None:
            return result
        return self._relax(vectors, conflict, stitch, lower_bound)

    # ------------------------------------------------------------ reference
    def _relax(
        self,
        vectors: np.ndarray,
        conflict: np.ndarray,
        stitch: np.ndarray,
        lower_bound: float,
    ) -> SdpResult:
        """The reference loop: penalty schedule around projected gradient descent.

        Its operation order is the arithmetic contract of the module
        docstring; the compiled ``repro_sdp_solve`` repeats it exactly.
        """
        options = self.options
        n = vectors.shape[0]
        split = len(conflict)
        edges = np.concatenate((conflict, stitch))
        heads, tails = edges[:, 0], edges[:, 1]
        # Scatter entry 2e adds w_e * v_tail to the head's row, entry 2e + 1
        # adds w_e * v_head to the tail's row: np.add.at applies them in order.
        rows = edges.ravel()
        partners = edges[:, ::-1].ravel()
        weights = np.full(len(edges), -self.alpha)
        terms = np.empty(len(edges))

        penalty = options.penalty_initial
        total_iterations = 0
        for _ in range(options.max_outer_iterations):
            twice_penalty = 2.0 * penalty
            previous_value = math.inf
            for iteration in range(options.max_inner_iterations):
                dots = _row_dots(vectors[heads], vectors[tails])
                violation = np.maximum(lower_bound - dots[:split], 0.0)
                terms[:split] = dots[:split] + penalty * (violation * violation)
                terms[split:] = -self.alpha * dots[split:]
                value = _total(terms)
                weights[:split] = 1.0 - twice_penalty * violation
                gradient = np.zeros_like(vectors)
                np.add.at(
                    gradient, rows, vectors[partners] * np.repeat(weights, 2)[:, None]
                )
                # Project onto the tangent space of each unit sphere
                # (Riemannian gradient), then step and re-normalise.
                tangent = gradient - _row_dots(gradient, vectors)[:, None] * vectors
                grad_norm = math.sqrt(_total((tangent * tangent).ravel())) / n
                if grad_norm < options.gradient_tolerance:
                    break
                vectors = _normalised(vectors - options.learning_rate * tangent)
                if abs(previous_value - value) < 1e-9 * (1.0 + abs(value)):
                    break
                previous_value = value
            total_iterations += iteration + 1
            if _max_violation(vectors, conflict, lower_bound) < 1e-3:
                break
            penalty *= options.penalty_growth

        gram = np.zeros((n, n))
        for k in range(vectors.shape[1]):
            gram += np.multiply.outer(vectors[:, k], vectors[:, k])
        dots = _row_dots(vectors[heads], vectors[tails])
        terms[:split] = dots[:split]
        terms[split:] = -self.alpha * dots[split:]
        return SdpResult(
            gram=np.clip(gram, -1.0, 1.0),
            vectors=vectors,
            objective=_total(terms),
            constraint_violation=_max_violation(vectors, conflict, lower_bound),
            iterations=total_iterations,
        )


def start_point(num_vertices: int, dim: int, seed: int) -> np.ndarray:
    """Return the seeded start point: ``num_vertices`` unit rows of ``dim``.

    Each coordinate is the top 53 bits of one ``PCG64(seed + num_vertices)``
    word scaled to ``[0, 2)`` and shifted to ``[-1, 1)`` — all three steps
    are exact in double precision.
    """
    words = np.random.PCG64(seed + num_vertices).random_raw(num_vertices * dim)
    coords = (words >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0
    return _normalised(coords.reshape(num_vertices, dim))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each summed left to right from +0.0."""
    return np.add.accumulate(a * b, axis=1)[:, -1] + 0.0


def _total(values: np.ndarray) -> float:
    """Sum of a flat array, left to right from +0.0."""
    if not values.size:
        return 0.0
    return float(np.add.accumulate(values)[-1]) + 0.0


def _normalised(vectors: np.ndarray) -> np.ndarray:
    """Divide every row by its norm (a zero row is divided by 1)."""
    norms = np.sqrt(_row_dots(vectors, vectors))
    norms[norms == 0.0] = 1.0
    return vectors / norms[:, None]


def _max_violation(
    vectors: np.ndarray, conflict: np.ndarray, lower_bound: float
) -> float:
    """Largest ``lower_bound - v_i . v_j`` over the conflict edges, at least 0."""
    if not len(conflict):
        return 0.0
    dots = _row_dots(vectors[conflict[:, 0]], vectors[conflict[:, 1]])
    return float(np.maximum(lower_bound - dots, 0.0).max())
