"""Component-level work unit: solve options, the solve itself, responses.

The unit of work of every executor of :func:`repro.runtime.pipeline.color_graph`
is a single divided component, solved by :func:`solve_component` into a
rank-space :class:`ComponentSolve` — in this process, in a pool worker or on
a cluster node.  This module is also the component-level counterpart of
:mod:`repro.service.protocol`: one owner for the shapes that cross the
coordinator → node HTTP boundary.

Requests travel as one binary ``POST /components`` micro-batch frame
(:mod:`repro.runtime.wire_binary`): many components of one layout in a
single node round trip, each entry carrying its packed flat-array graph and
canonical cache key.  The response is JSON, ``results`` aligned
index-for-index with the frame's components; each entry is either a
component response or a per-component error envelope, so one bad component
never poisons its batch siblings::

    {"results": [
        {
          "key": "<canonical component hash>",
          "vertices": n,
          "cache_hit": true,
          "coloring": [c0, c1, ...],      # canonical *rank* space
          "report": {... DivisionReport delta ...},
          "solver_timeouts": 0
        },
        {"error": {"status": 422, "message": "..."}}, ...]}

The coloring travels in canonical rank space (rank = position in sorted
vertex-id order), exactly as the component cache stores it: the
coordinator replays it onto its own vertex ids
(:meth:`ComponentSolve.coloring_for`), and —
because the canonical relabeling is order-preserving and every colorer is
equivariant under it (see :mod:`repro.runtime.hashing`) — the replayed
coloring is bit-identical to solving the component locally.  That property
is what lets a cluster answer byte-for-byte like a single
:class:`~repro.core.decomposer.Decomposer`.

Solve parameters stay scalar (``colors``/``algorithm``): both sides expand
them through the same preset tables, so the canonical cache key computed by
the node always matches the one the coordinator routed on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.decomposer import make_colorer
from repro.core.division import DivisionReport, color_component
from repro.core.options import DecomposerOptions
from repro.errors import ComponentWireError, ReproError
from repro.graph.decomposition_graph import DecompositionGraph
from repro.graph.flat import FlatFrameError, graph_from_frame
from repro.runtime.cache import ComponentCache, ComponentSolve
from repro.runtime.hashing import canonical_component_key

#: DivisionReport counters that cross the wire (the per-component delta).
_REPORT_FIELDS = (
    "peeled_vertices",
    "num_biconnected_blocks",
    "num_ghtree_parts",
    "colored_pieces",
    "largest_colored_piece",
)


def options_for(colors: int, algorithm: str) -> DecomposerOptions:
    """Expand wire-level solve scalars into full :class:`DecomposerOptions`.

    Validates the scalars a request carries, then maps them through
    :meth:`DecomposerOptions.for_k_patterning`, the one preset mapping.  The
    coordinator (routing), the nodes (solving) and
    :func:`repro.service.protocol.build_options` (whole-layout requests) all
    delegate here, so the algorithm/division option sets — and therefore
    the canonical component keys — can never diverge between the routing
    side and the solving side.
    """
    if not isinstance(colors, int) or isinstance(colors, bool):
        raise ComponentWireError(f"'colors' must be an integer, got {colors!r}")
    if algorithm not in DecomposerOptions.KNOWN_ALGORITHMS:
        raise ComponentWireError(
            f"unknown algorithm {algorithm!r}; "
            f"known: {sorted(DecomposerOptions.KNOWN_ALGORITHMS)}"
        )
    try:
        options = DecomposerOptions.for_k_patterning(colors, algorithm)
        options.validate()
    except ReproError as exc:
        raise ComponentWireError(str(exc)) from exc
    return options


# -------------------------------------------------------------- micro-batch
class ComponentErrorEntry:
    """One failed entry of a ``POST /components`` response (coordinator side)."""

    __slots__ = ("status", "message")

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentErrorEntry(status={self.status}, message={self.message!r})"


def component_error_entry(status: int, message: str) -> Dict:
    """Encode one per-component error envelope (node side)."""
    return {"error": {"status": int(status), "message": str(message)}}


def parse_components_response(payload: Dict) -> List[object]:
    """Validate one batch response into per-entry outcomes.

    Returns a list aligned with the request's ``components``: each element
    is a :class:`ComponentSolve` or a :class:`ComponentErrorEntry`.  A
    malformed *entry* becomes an error entry (it fails only its layout); a
    malformed *envelope* raises :class:`ComponentWireError`.
    """
    if not isinstance(payload, dict):
        raise ComponentWireError("components response must be a JSON object")
    results = payload.get("results")
    if not isinstance(results, list):
        raise ComponentWireError("'results' must be an array")
    outcomes: List[object] = []
    for position, entry in enumerate(results):
        if isinstance(entry, dict) and "error" in entry:
            error = entry["error"] if isinstance(entry["error"], dict) else {}
            outcomes.append(
                ComponentErrorEntry(
                    status=int(error.get("status", 500)),
                    message=str(error.get("message", "component failed")),
                )
            )
            continue
        try:
            outcomes.append(parse_component_response(entry))
        except ComponentWireError as exc:
            outcomes.append(
                ComponentErrorEntry(
                    status=502, message=f"results[{position}] malformed: {exc}"
                )
            )
    return outcomes


# ------------------------------------------------------------------ response
def report_to_wire(report: DivisionReport) -> Dict[str, int]:
    """Serialise a per-component :class:`DivisionReport` delta."""
    return {name: getattr(report, name) for name in _REPORT_FIELDS}


def report_from_wire(payload: Dict) -> DivisionReport:
    """Rebuild a per-component :class:`DivisionReport` delta."""
    if not isinstance(payload, dict):
        raise ComponentWireError("'report' must be a JSON object")
    try:
        return DivisionReport(**{name: int(payload[name]) for name in _REPORT_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        raise ComponentWireError(f"invalid 'report' payload: {exc}") from exc


def solve_component(
    graph: DecompositionGraph, options: DecomposerOptions, key: str = ""
) -> ComponentSolve:
    """Solve one divided component; the one component-job function.

    The inline executor, the process pool's workers and a node's
    :func:`solve_component_job` all solve here, through stages 2-4 of the
    division flow (:func:`~repro.core.division.color_component`).
    """
    colorer = make_colorer(options.algorithm, options.num_colors, options.algorithm_options)
    report = DivisionReport()
    coloring = color_component(graph, colorer, options.division, report)
    return ComponentSolve(
        key=key,
        ranks=[coloring[vertex] for vertex in graph.vertices()],
        report=report.component_delta(),
        solver_timeouts=int(getattr(colorer, "timeouts", 0)),
    )


def parse_component_response(payload: Dict) -> ComponentSolve:
    """Validate one component response into a :class:`ComponentSolve`."""
    if not isinstance(payload, dict):
        raise ComponentWireError("component response must be a JSON object")
    ranks = payload.get("coloring")
    if not isinstance(ranks, list) or not all(isinstance(c, int) for c in ranks):
        raise ComponentWireError("'coloring' must be an array of integers")
    key = payload.get("key")
    if not isinstance(key, str):
        raise ComponentWireError(f"'key' must be a string, got {key!r}")
    return ComponentSolve(
        key=key,
        ranks=ranks,
        report=report_from_wire(payload.get("report", {})),
        solver_timeouts=int(payload.get("solver_timeouts", 0)),
        cache_hit=bool(payload.get("cache_hit", False)),
    )


# --------------------------------------------------------------- node worker
def job_graph(job: Dict) -> DecompositionGraph:
    """The job's component graph: a view of its checked ``graph_frame`` bytes.

    The frame is the component's packed flat-graph frame, exactly as it
    arrived in the binary ``POST /components`` body; it reaches process
    workers inline through the executor's pickle channel.  Node workers
    hash and solve straight off the shipped buffers.
    """
    try:
        return graph_from_frame(job["graph_frame"])
    except (FlatFrameError, KeyError) as exc:
        raise ComponentWireError(f"invalid 'graph_frame' payload: {exc}") from exc


def solve_component_job(job: Dict, cache: Optional[ComponentCache]) -> Dict:
    """Execute one component job inside a node worker.

    Consults the worker's component cache first (this is the cache-affinity
    payoff: any coordinator routing canonical key H here finds the entry a
    previous request stored), solves on a miss via :func:`solve_component`,
    and encodes the response in canonical rank space.

    A ``key`` shipped with the job (the coordinator's routing hash) is used
    for the cache *lookup* — hashing schemes are versioned together, so a
    peer's key is exactly what this worker would recompute, and the hit
    path (the affinity payoff) skips hashing entirely.  Cache *stores*
    always use a locally computed key: the request boundary is untrusted,
    and storing a solution under a caller-controlled key would let one bad
    request durably poison the shared cache for every later one.  The
    defensive re-hash only happens on the miss path, where the solve it
    precedes dwarfs it.
    """
    import time

    graph = job_graph(job)
    colors = job.get("colors", 4)
    algorithm = job.get("algorithm", "sdp-backtrack")
    options = options_for(colors, algorithm)

    def local_key() -> str:
        return canonical_component_key(
            graph, colors, algorithm, options.algorithm_options, options.division
        )

    key = job.get("key") or local_key()
    lookup_started = time.perf_counter()
    solve = cache.lookup(key, graph) if cache is not None else None
    if solve is None and cache is not None and job.get("key"):
        # The shipped key missed (cold cache — or a key that does not match
        # this graph).  Fall back to the authoritative local key before
        # paying for a solve; from here on `key` is trusted.
        key = local_key()
        if key != job["key"]:
            solve = cache.lookup(key, graph)
    lookup_seconds = time.perf_counter() - lookup_started
    solve_seconds = 0.0
    if solve is None:
        solve_started = time.perf_counter()
        solve = solve_component(graph, options, key)
        solve_seconds = time.perf_counter() - solve_started
        if cache is not None:
            cache.store(key, graph, solve)
    # "timings" is node-local observability: the server feeds it into its
    # stage histograms and trace spans, then strips it before encoding the
    # wire response, so response bytes are identical with tracing on or off.
    return {
        "key": key,
        "vertices": graph.num_vertices,
        "cache_hit": solve.cache_hit,
        "coloring": solve.ranks,
        "report": report_to_wire(solve.report),
        "solver_timeouts": solve.solver_timeouts,
        "timings": {"cache_lookup": lookup_seconds, "solve": solve_seconds},
    }
