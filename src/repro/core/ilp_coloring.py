"""Exact ILP color assignment (the paper's "ILP" baseline).

The formulation extends the triple-patterning ILP of [4] to K colors.  It
is built over vertex ranks (positions in sorted-id order) as sparse
constraint rows:

* a binary variable ``x[v, c]`` selects the mask of vertex ``v``
  (``sum_c x[v, c] = 1``),
* a conflict indicator ``z[u, v]`` is forced to 1 whenever a conflict edge's
  endpoints share a mask (``x[u, c] + x[v, c] - z[u, v] <= 1`` per color),
* a stitch indicator ``s[u, v]`` is forced to 1 whenever a stitch edge's
  endpoints differ (``x[u, c] - x[v, c] - s[u, v] <= 0`` per color, and the
  same with ``u`` and ``v`` swapped: implied for 0-1 ``x``, but it tightens
  the relaxation HiGHS branches on),
* the objective minimises ``sum z + alpha * sum s``.

The paper solves this with GUROBI under a one-hour cap; this reproduction
hands it to HiGHS's MIP solver (:func:`scipy.optimize.milp`) with a zero
optimality gap and ``ilp_time_limit`` as its time limit, and counts a solve
that stops at the limit the way Table 1 reports "N/A".
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.coloring import ColoringAlgorithm
from repro.core.greedy_coloring import GreedyColoring
from repro.errors import SolverError
from repro.graph.decomposition_graph import DecompositionGraph


class IlpColoring(ColoringAlgorithm):
    """Exact (time-budgeted) ILP color assignment."""

    name = "ilp"

    def __init__(self, num_colors, options=None) -> None:
        super().__init__(num_colors, options)
        #: Number of component solves that hit the time budget (any value > 0
        #: means the overall run is not proven optimal — Table 1's "N/A").
        self.timeouts: int = 0

    def color(self, graph: DecompositionGraph) -> Dict[int, int]:
        """Return an optimal coloring, or the best feasible one within budget.

        When the time limit stops HiGHS it returns its incumbent, or the
        greedy coloring when it has none; either way :attr:`timeouts` counts
        the solve.
        """
        if graph.num_vertices == 0:
            return {}
        # Only this baseline needs scipy (~0.5 s to import).  It loads here,
        # before HiGHS starts the clock of ``ilp_time_limit``.
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_array

        flat = graph.to_arrays()
        n, k = flat.num_vertices, self.num_colors
        u, v = np.asarray(flat.conflict_edges, dtype=np.int64).reshape(-1, 2).T
        p, q = np.asarray(flat.stitch_edges, dtype=np.int64).reshape(-1, 2).T
        # Variable indices: x[v, c], then one z per conflict edge and one s
        # per stitch edge, each repeated once per color.
        x = np.arange(n * k).reshape(n, k)
        z = np.repeat(x.size + np.arange(len(u)), k).reshape(-1, k)
        s = np.repeat(x.size + len(u) + np.arange(len(p)), k).reshape(-1, k)
        objective = np.concatenate(
            [np.zeros(x.size), np.ones(len(u)), np.full(len(p), self.options.alpha)]
        )

        def rows(variables, coefficients, lower, upper):
            """One constraint per row of ``variables``, weighted alike."""
            terms = variables.reshape(-1, len(coefficients))
            matrix = csr_array(
                (
                    np.tile(coefficients, len(terms)),
                    terms.ravel(),
                    np.arange(len(terms) + 1) * len(coefficients),
                ),
                shape=(len(terms), objective.size),
            )
            return LinearConstraint(matrix, lower, upper)

        # One row per vertex, then one per edge and color.
        constraints = [
            rows(x, np.ones(k), 1, 1),
            rows(np.stack([x[u], x[v], z], axis=-1), (1, 1, -1), -np.inf, 1),
            rows(np.stack([x[p], x[q], s], axis=-1), (1, -1, -1), -np.inf, 0),
            rows(np.stack([x[q], x[p], s], axis=-1), (1, -1, -1), -np.inf, 0),
        ]
        options = {"mip_rel_gap": 0.0}
        if self.options.ilp_time_limit is not None:
            options["time_limit"] = self.options.ilp_time_limit
        result = milp(
            objective,
            integrality=np.ones_like(objective),
            bounds=Bounds(0, 1),
            constraints=constraints,
            options=options,
        )
        if result.status not in (0, 1):
            raise SolverError(f"HiGHS failed on the ILP: {result.message}")
        if result.status == 1:
            self.timeouts += 1
        if result.x is None:
            return GreedyColoring(self.num_colors, self.options).color(graph)
        colors = result.x[: x.size].reshape(n, k).argmax(axis=1)
        return dict(zip(flat.vertex_ids, colors.tolist()))
