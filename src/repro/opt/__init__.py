"""Optimisation substrate: the vector-program SDP.

The ILP baseline needs no substrate of its own: it hands its model to
HiGHS's MIP solver (:mod:`repro.core.ilp_coloring`).
"""

from repro.opt.sdp import (
    SdpOptions,
    SdpResult,
    VectorProgramSolver,
    discrete_objective,
    gram_from_coloring,
    simplex_vectors,
)

__all__ = [
    "SdpOptions",
    "SdpResult",
    "VectorProgramSolver",
    "simplex_vectors",
    "gram_from_coloring",
    "discrete_objective",
]
