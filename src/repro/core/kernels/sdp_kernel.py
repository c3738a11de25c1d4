"""Compiled relaxation loop (kernel for ``VectorProgramSolver``).

The whole of :meth:`repro.opt.sdp.VectorProgramSolver._relax` — penalty
outer loop, projected-gradient inner loop, constraint violation, objective
and clipped gram — runs as one ``repro_sdp_solve`` call in the compiled
core, on the start point the solver already drew.  The C loop repeats the
reference arithmetic operation for operation (the contract is stated in
:mod:`repro.opt.sdp`), so its output is bit-identical.

Both loops read their schedule from the same ``SdpOptions``: one penalty
round by default.  The penalty-growth rounds run only when
``max_outer_iterations`` asks for more, which no default path does; the
SDP parity tests run both schedules, so they stay bit-identical there too.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.kernels import active_core
from repro.opt.sdp import SdpOptions, SdpResult


def relax(
    vectors: np.ndarray,
    conflict: np.ndarray,
    stitch: np.ndarray,
    alpha: float,
    lower_bound: float,
    options: SdpOptions,
) -> Optional[SdpResult]:
    """Solve from the start point ``vectors``; bit-identical to ``_relax``.

    Returns ``None`` — the caller runs the reference from the same,
    untouched start point — when the compiled core is unavailable or
    cannot allocate its gradient buffer.
    """
    core = active_core()
    if core is None:
        return None
    n = vectors.shape[0]
    solved = np.array(vectors, dtype=np.float64, order="C")
    gram = np.empty((n, n))
    outcome = core.sdp_solve(
        np.ascontiguousarray(conflict, dtype=np.int32),
        np.ascontiguousarray(stitch, dtype=np.int32),
        alpha,
        lower_bound,
        options,
        solved,
        gram,
    )
    if outcome is None:  # the core could not allocate
        return None
    iterations, objective, violation = outcome
    return SdpResult(
        gram=gram,
        vectors=solved,
        objective=objective,
        constraint_violation=violation,
        iterations=iterations,
    )
