"""repro — layout decomposition for quadruple patterning lithography and beyond.

A full reimplementation of the DAC 2014 decomposition framework of Yu & Pan:
decomposition-graph construction from Metal1/contact layouts, graph division
(independent components, low-degree peeling, biconnected blocks, Gomory-Hu
tree (K-1)-cut removal with color rotation) and four color-assignment
algorithms (exact ILP, SDP + backtrack, SDP + greedy, linear color
assignment), generalised to any K >= 4.

Every decomposition colors through one pipeline
(:func:`repro.runtime.color_graph`) that exploits the independence of
divided components: identical components of a layout are solved once,
``workers=N`` colors them across a process pool (largest-first,
deterministic merge, automatic in-process fallback) and a
:class:`ComponentCache` memoises solved components under a canonical graph
hash, so cells repeated across layouts are solved once too.  Both knobs are
pure execution strategies — masks, conflict counts and stitch counts stay
bit-identical to the serial flow.

Quick start::

    from repro import Decomposer, DecomposerOptions
    from repro.bench import load_circuit

    layout = load_circuit("C432", scale=0.35)
    options = DecomposerOptions.for_quadruple_patterning(algorithm="linear")
    result = Decomposer(options).decompose(layout, layer="metal1")
    print(result.solution.summary())

Batch decomposition of many layouts with shared workers and cache::

    from repro import decompose_many

    batch = decompose_many({"a": layout_a, "b": layout_b}, workers=4)
    print(batch.aggregate_summary())

The same batch engine backs the ``repro-decompose batch`` CLI subcommand and
the ``--workers`` / ``--cache`` flags of ``python -m repro.experiments``.

For request traffic, :mod:`repro.service` wraps it all in a long-running
asyncio HTTP server (``repro-decompose serve`` / ``python -m repro.service``)
with a persistent worker pool and a SQLite-backed component cache shared
across processes and restarts; see README "Running as a service".

To scale past one machine, :mod:`repro.cluster` shards the work across many
such servers: a coordinator (``repro-decompose cluster coordinator``) routes
every divided component to its cache-owning node via a consistent-hash ring
and merges results byte-identically, with heartbeat-driven failover; see
README "Running a cluster".
"""

from repro.errors import (
    ConfigurationError,
    DecompositionError,
    GeometryError,
    GraphError,
    LayoutError,
    LayoutIOError,
    ReproError,
    SolverError,
)
from repro.geometry import Layout, Point, Polygon, Rect, Shape
from repro.graph import (
    ConstructionOptions,
    DecompositionGraph,
    build_decomposition_graph,
)
from repro.core import (
    AlgorithmOptions,
    BacktrackColoring,
    Decomposer,
    DecomposerOptions,
    DecompositionResult,
    DecompositionSolution,
    DivisionOptions,
    GreedyColoring,
    IlpColoring,
    LinearColoring,
    SdpColoring,
    decompose_layout,
    divide_and_color,
    make_colorer,
)
from repro.runtime import (
    BatchResult,
    CacheStats,
    ComponentCache,
    decompose_many,
)
from repro.analysis import (
    conflict_report,
    decomposition_to_svg,
    graph_statistics,
    layout_to_svg,
    mask_balance,
    summary_text,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GeometryError",
    "LayoutError",
    "LayoutIOError",
    "GraphError",
    "SolverError",
    "DecompositionError",
    "ConfigurationError",
    # geometry
    "Point",
    "Rect",
    "Polygon",
    "Layout",
    "Shape",
    # graph
    "DecompositionGraph",
    "ConstructionOptions",
    "build_decomposition_graph",
    # core
    "AlgorithmOptions",
    "DecomposerOptions",
    "DivisionOptions",
    "Decomposer",
    "DecompositionResult",
    "DecompositionSolution",
    "decompose_layout",
    "divide_and_color",
    "make_colorer",
    "IlpColoring",
    "SdpColoring",
    "LinearColoring",
    "BacktrackColoring",
    "GreedyColoring",
    # runtime
    "BatchResult",
    "CacheStats",
    "ComponentCache",
    "decompose_many",
    # analysis
    "mask_balance",
    "conflict_report",
    "graph_statistics",
    "summary_text",
    "layout_to_svg",
    "decomposition_to_svg",
]
