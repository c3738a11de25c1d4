"""A work gate: how many object graphs one decomposition builds.

Every whole-graph build goes through ``DecompositionGraph.from_parts``
(``subgraph``, ``from_edges`` and ``FlatGraph.to_graph``, which also builds
a view's object graph), so counting its calls counts them.  A count, not a
timing, so it holds on any runner.  Every colorer reads only flat forms, in
both kernel modes: the construction, the component split, the division's
pieces, the colorers (the relaxation, the merge loop, the merged graph, the
search and the refinement included) and the scoring must build no graph at
all, and neither may a pool worker or a node solving a shipped component
frame.  The mode-``off`` cases need no compiled core, so they also run on a
box without a C compiler; the division's own count, at K = 65 and with a
failing core too, is in ``test_division_parity.py``.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.bench.circuits import TABLE1_CIRCUITS, TABLE2_CIRCUITS, load_circuit
from repro.core.decomposer import Decomposer
from repro.core.kernels import set_kernel_mode
from repro.core.kernels.ccore import compiled_core
from repro.core.options import DecomposerOptions
from repro.graph.construction import build_decomposition_graph
from repro.graph.decomposition_graph import DecompositionGraph
from repro.opt.sdp import VectorProgramSolver
from repro.runtime.cache import open_cache
from repro.runtime.component_io import solve_component_job
from repro.runtime.pipeline import _solve_frame, color_graph, solve_inline

MODES = [
    "off",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            compiled_core() is None, reason="compiled solve core unavailable"
        ),
    ),
]

#: The circuits and scales the served benchmark draws its requests from.
SERVED_PROFILES = (
    "C432", "C499", "C880", "C1355", "C1908", "C2670",
    "C3540", "C5315", "C6288", "C7552", "S1488",
)


@contextmanager
def counting_builds(monkeypatch, mode):
    """Yield a list that gains one entry per ``from_parts`` call, in ``mode``."""
    builds = []
    from_parts = DecompositionGraph.from_parts.__func__

    def counted(cls, *args, **kwargs):
        builds.append(cls)
        return from_parts(cls, *args, **kwargs)

    monkeypatch.setattr(DecompositionGraph, "from_parts", classmethod(counted))
    previous = set_kernel_mode(mode)
    try:
        yield builds
    finally:
        set_kernel_mode(previous)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ["linear", "greedy"])
def test_table2_builds_no_graph(monkeypatch, algorithm, mode):
    options = DecomposerOptions.for_pentuple_patterning(algorithm)
    layouts = {name: load_circuit(name, 0.35) for name in TABLE2_CIRCUITS}
    with counting_builds(monkeypatch, mode) as builds:
        for name, layout in layouts.items():
            result = Decomposer(options).decompose(layout)
            assert result.solution.coloring, name
            assert builds == [], f"{name}: {len(builds)} graphs built"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ["linear", "greedy"])
def test_served_profiles_build_no_graph(monkeypatch, algorithm, mode):
    options = DecomposerOptions.for_quadruple_patterning(algorithm)
    layouts = {
        (name, scale): load_circuit(name, scale)
        for name in SERVED_PROFILES
        for scale in (0.05, 0.15)
    }
    split = 0
    with counting_builds(monkeypatch, mode) as builds:
        for case, layout in layouts.items():
            result = Decomposer(options).decompose(layout)
            assert builds == [], f"{case}: {len(builds)} graphs built"
            split += result.division_report.num_connected_components > 1
    assert split, "no layout had two components, so no split was counted"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ["backtrack", "sdp-backtrack", "sdp-greedy"])
def test_table1_builds_no_graph(monkeypatch, algorithm, mode):
    """The search and both SDP mappings; the SDP cases must relax pieces."""
    options = DecomposerOptions.for_quadruple_patterning(algorithm)
    layouts = {name: load_circuit(name, 0.1) for name in TABLE1_CIRCUITS}
    relaxations = []
    solve = VectorProgramSolver.solve

    def counted_solve(self, *args, **kwargs):
        relaxations.append(args[0])
        return solve(self, *args, **kwargs)

    with counting_builds(monkeypatch, mode) as builds:
        monkeypatch.setattr(VectorProgramSolver, "solve", counted_solve)
        for name, layout in layouts.items():
            Decomposer(options).decompose(layout)
            assert builds == [], f"{name}: {len(builds)} graphs built"
    assert bool(relaxations) == algorithm.startswith("sdp"), len(relaxations)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ["linear", "greedy"])
def test_component_frames_build_no_graph(monkeypatch, algorithm, mode):
    """A shipped component frame is solved on a view: on a node (through
    its cache, a miss then a hit) and in a pool worker."""
    options = DecomposerOptions.for_quadruple_patterning(algorithm)
    frames = {}  # one frame per distinct component, as a node's cache sees them

    def recording(batch, solve_options):
        for key, graph in batch:
            frames.setdefault(key, graph.to_arrays().to_bytes())
        return solve_inline(batch, solve_options)

    for name in SERVED_PROFILES:
        for scale in (0.05, 0.15):
            construction = build_decomposition_graph(
                load_circuit(name, scale), options=options.construction
            )
            color_graph(construction.graph, options, recording)
    assert len(frames) > len(SERVED_PROFILES) * 2, "no layout had two components"
    cache = open_cache()
    with counting_builds(monkeypatch, mode) as builds:
        for key, frame in frames.items():
            job = {"graph_frame": frame, "key": key, "colors": 4, "algorithm": algorithm}
            assert not solve_component_job(job, cache)["cache_hit"]
            assert solve_component_job(job, cache)["cache_hit"]
            _solve_frame(frame, key, options)
            assert builds == [], f"{len(builds)} graphs built"
