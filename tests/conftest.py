"""Shared fixtures and marker registry for the repro test suite."""

from __future__ import annotations

import pytest

from repro.bench.cells import figure4_graph, figure5_graph, four_clique_contact_cell
from repro.bench.factory import repeated_cell_layout as make_repeated_cell_layout
from repro.bench.factory import wire_row_layout as make_wire_row_layout
from repro.geometry.layout import Layout
from repro.graph.decomposition_graph import DecompositionGraph


def pytest_configure(config) -> None:
    """Register the suite's tiering markers.

    Tier 1 (the fast gate run on every change) is ``pytest -m "not slow"``;
    the ``slow`` marker holds the heavyweight sweeps and ``solver`` marks
    tests that exercise the numerical ILP/SDP backends (typically also slow).
    """
    config.addinivalue_line(
        "markers", "slow: heavyweight test excluded from the tier-1 fast path"
    )
    config.addinivalue_line(
        "markers", "solver: exercises the numerical ILP/SDP solver backends"
    )
    config.addinivalue_line(
        "markers",
        "service: exercises the decomposition server / worker pool / client.  "
        "Fast service tests run in the tier-1 fast path and in CI's "
        "dedicated service step; heavyweight sweeps are additionally marked "
        "slow",
    )
    config.addinivalue_line(
        "markers",
        "cluster: exercises the multi-node cluster (ring, membership, "
        "coordinator, failover).  Fast cluster tests run in the tier-1 "
        "fast path and in CI's dedicated cluster step; full-circuit sweeps "
        "are additionally marked slow",
    )
    config.addinivalue_line(
        "markers",
        "obs: exercises the observability layer (tracing, histograms, "
        "journal and /trace).  All obs tests run in the tier-1 "
        "fast path and in CI's dedicated obs step",
    )


@pytest.fixture
def k4_graph() -> DecompositionGraph:
    """Complete conflict graph on 4 vertices (QP-colorable with 0 conflicts)."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return DecompositionGraph.from_edges(edges)


@pytest.fixture
def k5_graph() -> DecompositionGraph:
    """Complete conflict graph on 5 vertices (1 unavoidable QP conflict)."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return DecompositionGraph.from_edges(edges)


@pytest.fixture
def path_graph() -> DecompositionGraph:
    """Simple conflict path on 6 vertices."""
    return DecompositionGraph.from_edges([(i, i + 1) for i in range(5)])


@pytest.fixture
def stitch_pair_graph() -> DecompositionGraph:
    """Two fragments of one feature (stitch edge) each conflicting with a third."""
    graph = DecompositionGraph.from_edges(
        conflict_edges=[(0, 2), (1, 2)], stitch_edges=[(0, 1)]
    )
    return graph


@pytest.fixture
def fig4() -> DecompositionGraph:
    """The Fig. 4 ordering-pitfall graph."""
    return figure4_graph()


@pytest.fixture
def fig5() -> DecompositionGraph:
    """The Fig. 5 3-cut graph (two triangles joined by a 3-cut)."""
    return figure5_graph()


@pytest.fixture
def wire_row_layout() -> Layout:
    """Three parallel wires at minimum pitch (simple conflict chain)."""
    return make_wire_row_layout(num_wires=3, wire_length=400)


@pytest.fixture
def contact_cell_layout() -> Layout:
    """The Fig. 1 four-contact cell."""
    return four_clique_contact_cell()


@pytest.fixture
def repeated_cells_layout() -> Layout:
    """Four identical Fig. 1 cells far apart — the cache-hit workload."""
    return make_repeated_cell_layout(copies=4)
